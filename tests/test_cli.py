import io
import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import child_command, haar_unitary, random_state

from qmontyhall.analysis import CASES, NoSignChangeError, PayoffRangeError, sweep
from qmontyhall.channels import STATE_DIM, NoiseSpec
from qmontyhall.cli import (
    MAX_GRID_POINTS,
    MAX_INPUT_BYTES,
    _fmt,
    _range_values,
    _resolve_strategy,
    _write_csv,
    main,
)
from qmontyhall.game import GameConfig, StrategyUnitary, builtin_strategy

IDENTITY_FILE = [[[1, 0], [0, 0], [0, 0]],
                 [[0, 0], [1, 0], [0, 0]],
                 [[0, 0], [0, 0], [1, 0]]]

M2_FILE = [[[0, 0], [0, 0], [1, 0]],
           [[1, 0], [0, 0], [0, 0]],
           [[0, 0], [1, 0], [0, 0]]]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPayoff:
    def test_classic_baseline(self, capsys):
        code, out, err = run_cli(capsys, "payoff", "--case", "1", "--noise", "0",
                                 "--gamma", "0")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert list(doc) == ["payoff", "p_switch", "p_not_switch",
                             "optimal_gamma", "optimal_label", "config"]
        assert doc["payoff"] == 0.666666666667
        assert doc["p_not_switch"] == 0.333333333333
        assert doc["optimal_label"] == "switch"
        assert doc["config"]["case"] == 1

    def test_counter_strategy_peak(self, capsys):
        code, out, _ = run_cli(capsys, "payoff", "--state", "psi2", "--alice", "h",
                               "--bob", "id", "--channel", "se",
                               "--noise", "0.6931471805599453", "--gamma", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["payoff"] == 0.583333333333
        # the payoff peaks at gamma = 0, the switch-branch weight
        assert doc["optimal_label"] == "switch"
        assert doc["optimal_gamma"] == 0.0

    def test_fully_depolarized(self, capsys):
        code, out, _ = run_cli(capsys, "payoff", "--case", "5", "--noise", "1",
                               "--gamma", "0.7")
        assert code == 0
        doc = json.loads(out)
        assert doc["payoff"] == 0.333333333333
        assert doc["optimal_label"] == "indifferent"

    def test_gamma_literal(self, capsys):
        code, out, _ = run_cli(capsys, "payoff", "--case", "3", "--noise", "0",
                               "--gamma", "pi/2")
        assert code == 0
        assert json.loads(out)["payoff"] == 1.0

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_case_flag_equals_explicit_flags(self, capsys, case):
        spec = CASES[case]
        upper = 3.0 if spec.channel_kind == "se" else 1.0
        for noise, gamma in zip(np.linspace(0.0, upper, 5),
                                np.linspace(0.0, math.pi / 2, 5)):
            by_case = run_cli(capsys, "payoff", "--case", str(case),
                              "--noise", repr(float(noise)),
                              "--gamma", repr(float(gamma)))
            explicit = run_cli(capsys, "payoff", "--state", spec.initial,
                               "--alice", spec.alice, "--bob", spec.bob,
                               "--channel", spec.channel_kind,
                               "--noise", repr(float(noise)),
                               "--gamma", repr(float(gamma)))
            assert by_case[0] == explicit[0] == 0
            left, right = json.loads(by_case[1]), json.loads(explicit[1])
            for key in ("payoff", "p_switch", "p_not_switch",
                        "optimal_gamma", "optimal_label"):
                assert left[key] == right[key], (case, noise, gamma, key)
        grid = ("--noise-range", f"0:{upper}:{upper / 4}", "--gamma-range", "0:1.5:0.5")
        by_case = run_cli(capsys, "sweep", "--case", str(case), *grid)
        explicit = run_cli(capsys, "sweep", "--state", spec.initial,
                           "--alice", spec.alice, "--bob", spec.bob,
                           "--channel", spec.channel_kind, *grid)
        assert by_case[0] == 0 and by_case == explicit

    def test_case_requires_noise(self, capsys):
        code, out, err = run_cli(capsys, "payoff", "--case", "1", "--gamma", "0")
        assert code == 2 and out == "" and err != ""

    def test_case_excludes_explicit_flags(self, capsys):
        code, out, _ = run_cli(capsys, "payoff", "--case", "1", "--noise", "0",
                               "--state", "psi1")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("command", ["payoff", "sweep"])
    @pytest.mark.parametrize("flag,value", [
        ("--state", "psi2"), ("--alice", "id"), ("--bob", "id"), ("--channel", "none"),
        ("--channel", "se"), ("--a1", "1"), ("--a2", "1"),
    ])
    def test_case_excludes_each_flag_even_at_its_default(self, capsys, command, flag, value):
        tail = (["--noise", "0.5"] if command == "payoff"
                else ["--noise-range", "0:1:1", "--gamma-range", "0:0:1"])
        code, out, err = run_cli(capsys, command, "--case", "4", flag, value, *tail)
        assert (code, out, err) == (2, "", f"error: --case cannot be combined with {flag}\n")

    def test_noise_domain(self, capsys):
        code, out, err = run_cli(capsys, "payoff", "--case", "6", "--noise", "1.5")
        assert code == 4 and out == "" and "probability" in err
        code, out, _ = run_cli(capsys, "payoff", "--case", "1", "--noise", "-1")
        assert code == 4 and out == ""

    def test_noise_forbidden_without_channel(self, capsys):
        code, out, _ = run_cli(capsys, "payoff", "--state", "psi1", "--noise", "1")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_noise(self, capsys, value):
        code, out, _ = run_cli(capsys, "payoff", "--case", "1", "--noise", value)
        assert code == 4 and out == ""

    def test_non_finite_gamma(self, capsys):
        code, out, _ = run_cli(capsys, "payoff", "--case", "1", "--noise", "0",
                               "--gamma", "nan")
        assert code == 4 and out == ""

    def test_unknown_case(self, capsys):
        code, _, _ = run_cli(capsys, "payoff", "--case", "9", "--noise", "0")
        assert code == 4

    @pytest.mark.parametrize("flag", ["--a1", "--a2"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_einstein_coefficient(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "payoff", "--state", "psi1", "--channel", "se",
                                 flag, value, "--noise", "0")
        assert code == 4 and out == "" and "finite" in err


@pytest.mark.parametrize("command,flags", [
    ("payoff", ["--state", "psi1", "--channel", "gp", "--a1", "-5", "--noise", "0.1"]),
    ("sweep", ["--state", "psi1", "--channel", "none", "--a2", "2",
               "--noise-range", "0:1:1", "--gamma-range", "0:0:1"]),
    ("sweep", ["--state", "psi1", "--channel", "gp", "--a1", "1",
               "--noise-range", "0:1:1", "--gamma-range", "0:0:1"]),
    ("validate-channel", ["--channel", "gp", "--noise", "0.5", "--a2", "1"]),
])
def test_einstein_coefficients_need_se(capsys, command, flags):
    code, out, err = run_cli(capsys, command, *flags)
    assert (code, out) == (2, "") and "only to --channel se" in err


# One library call per subcommand, and the argv that reaches it
LIBRARY_CALLS = {
    "payoff": ("qmontyhall.cli.play", ["--case", "1", "--noise", "0.5"]),
    "sweep": ("qmontyhall.analysis.sweep",
              ["--case", "1", "--noise-range", "0:1:1", "--gamma-range", "0:0:1"]),
    "verify": ("qmontyhall.analysis.verify_case",
               ["--case", "1", "--noise-range", "0:1:1", "--gamma-range", "0:0:1"]),
    "threshold": ("qmontyhall.analysis.threshold", ["--case", "1"]),
    "validate-channel": ("qmontyhall.cli.complete_positivity_deviation",
                         ["--channel", "se", "--noise", "1"]),
}


@pytest.mark.parametrize("error,expected", [
    (NoSignChangeError, 5), (PayoffRangeError, 1), (ValueError, 4)])
@pytest.mark.parametrize("command", sorted(LIBRARY_CALLS))
def test_library_error_picks_exit_code(monkeypatch, capsys, command, error, expected):
    target, flags = LIBRARY_CALLS[command]

    def fail(*args, **kwargs):
        raise error("refused")

    monkeypatch.setattr(target, fail)
    assert run_cli(capsys, command, *flags) == (expected, "", "error: refused\n")


class TestStrategyFiles:
    def test_identity_file(self, tmp_path, capsys):
        path = tmp_path / "id.json"
        path.write_text(json.dumps(IDENTITY_FILE))
        builtin = run_cli(capsys, "payoff", "--case", "1", "--noise", "0.5",
                          "--gamma", "0.3")
        from_file = run_cli(capsys, "payoff", "--state", "psi1",
                            "--alice", str(path), "--bob", str(path),
                            "--channel", "se", "--noise", "0.5", "--gamma", "0.3")
        assert from_file[0] == 0
        assert json.loads(builtin[1])["payoff"] == json.loads(from_file[1])["payoff"]

    def test_shuffle_file_matches_builtin(self, tmp_path):
        path = tmp_path / "m2.json"
        path.write_text(json.dumps(M2_FILE))
        loaded = _resolve_strategy(str(path))
        np.testing.assert_array_equal(loaded.matrix, builtin_strategy("m2").matrix)

    def test_non_unitary_file(self, tmp_path, capsys):
        scaled = [[[2, 0], [0, 0], [0, 0]]] + IDENTITY_FILE[1:]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scaled))
        code, out, err = run_cli(capsys, "payoff", "--state", "psi1",
                                 "--alice", str(path))
        assert code == 3 and out == "" and "not unitary" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("[[1, 2,")
        code, out, err = run_cli(capsys, "payoff", "--state", "psi1",
                                 "--alice", str(path))
        assert code == 2 and out == "" and "JSON" in err

    def test_wrong_shape(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text(json.dumps(IDENTITY_FILE[:2]))
        code, out, err = run_cli(capsys, "payoff", "--state", "psi1",
                                 "--alice", str(path))
        assert code == 2 and out == "" and "shape" in err

    def test_non_finite_entries(self, tmp_path, capsys):
        nan_file = [[[float("nan"), 0], [0, 0], [0, 0]]] + IDENTITY_FILE[1:]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(nan_file))  # json emits a NaN literal
        code, out, err = run_cli(capsys, "payoff", "--state", "psi1",
                                 "--alice", str(path))
        assert code == 2 and out == "" and "finite" in err


class TestStateFiles:
    def test_correlated_state_file(self, tmp_path, capsys):
        amp = 1.0 / math.sqrt(3.0)
        entries = [[0.0, 0.0]] * 27
        for index in (0, 4, 8):
            entries[index] = [amp, 0.0]
        path = tmp_path / "psi2.json"
        path.write_text(json.dumps(entries))
        named = run_cli(capsys, "payoff", "--state", "psi2", "--gamma", "pi/2")
        from_file = run_cli(capsys, "payoff", "--state", str(path), "--gamma", "pi/2")
        assert from_file[0] == 0
        assert json.loads(named[1])["payoff"] == json.loads(from_file[1])["payoff"] == 1.0

    def test_unnormalised_state_file(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps([[1.0, 0.0]] * 27))
        code, out, err = run_cli(capsys, "payoff", "--state", str(path))
        assert code == 3 and out == "" and "norm" in err


PSI1_FILE = [[1.0 / 3.0, 0.0]] * 9 + [[0.0, 0.0]] * 18


def _padded(entries, size: int) -> bytes:
    """Valid JSON of ``entries``, padded with spaces to ``size`` bytes."""
    text = json.dumps(entries).encode()
    return b" " * (size - len(text)) + text


def _first_number(entries, literal: bytes) -> bytes:
    """JSON of ``entries`` with its first number written as ``literal``."""
    return re.sub(rb"[\d.]+", literal, json.dumps(entries).encode(), count=1)


def _reading(flag: str, path) -> list[str]:
    """payoff flags that read ``path`` through ``flag``, --state or a strategy flag."""
    return [flag, str(path)] if flag == "--state" else ["--state", "psi1", flag, str(path)]


@pytest.mark.parametrize("flag,valid", [("--state", PSI1_FILE), ("--alice", IDENTITY_FILE)],
                         ids=["state", "alice"])
@pytest.mark.parametrize("content", [
    lambda valid: _padded(valid, MAX_INPUT_BYTES + 1),  # oversize
    lambda valid: b"[" * 100_000,  # nested deeper than the parser's recursion limit
    lambda valid: b"\xff" + json.dumps(valid).encode(),  # not UTF-8
    # integers no float holds: 401 digits, and past json's 4300-digit str-to-int limit
    lambda valid: _first_number(valid, b"1" + b"0" * 400),
    lambda valid: _first_number(valid, b"1" + b"0" * 5000),
    # JSON values that are not numbers, though numpy would convert them
    lambda valid: _first_number(valid, b'"1"'),
    lambda valid: _first_number(valid, b"true"),
    lambda valid: _first_number(valid, b"null"),
], ids=["oversize", "deep", "not-utf8", "int-401-digits", "int-5001-digits", "string",
        "boolean", "null"])
def test_unreadable_input_file_exits_2(tmp_path, capsys, flag, valid, content):
    path = tmp_path / "input.json"
    path.write_bytes(content(valid))
    code, out, err = run_cli(capsys, "payoff", *_reading(flag, path), "--channel", "gp",
                             "--noise", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag,valid", [("--state", PSI1_FILE), ("--alice", IDENTITY_FILE)],
                         ids=["state", "alice"])
def test_input_file_of_max_size_is_read(tmp_path, capsys, flag, valid):
    path = tmp_path / "input.json"
    path.write_bytes(_padded(valid, MAX_INPUT_BYTES))
    code, out, err = run_cli(capsys, "payoff", *_reading(flag, path), "--channel", "gp",
                             "--noise", "0")
    assert (code, err) == (0, "")


class TestRangeGrammar:
    def test_surface_mesh_sizes(self):
        # the canonical plotting meshes: 61 noise points by 32 gamma points
        assert len(_range_values((0.0, 3.0, 0.05))) == 61
        assert len(_range_values((0.0, 1.5707963, 0.05))) == 32

    def test_inclusive_when_step_divides(self):
        values = _range_values((0.0, 1.0, 0.1))
        assert len(values) == 11
        assert values[-1] == 1.0

    def test_degenerate(self):
        assert _range_values((0.5, 0.5, 1.0)) == (0.5,)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--case", "1", "--noise-range", "1000:1000.000000000001:1e-14",
         "--gamma-range", "0:0:1"],
        ["sweep", "--case", "1", "--noise-range", "0:0:1",
         "--gamma-range", "1:1.0000000000000002:1e-17"],
        ["verify", "--case", "6", "--noise-range", "0.5:0.5000000000000001:1e-18"],
    ])
    def test_step_below_float_spacing(self, capsys, argv):
        # LO + i*STEP repeats values: a malformed range, not a domain error
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "float spacing" in err


class TestSweep:
    def test_grid_shape_and_order(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--case", "1",
                                 "--noise-range", "0:3:1", "--gamma-range", "0:1.5:0.5")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "noise,gamma,payoff"
        assert len(lines) == 1 + 4 * 4
        assert out.endswith("\n")
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert first[2] == "0.666666666667"
        # noise-major: first four rows share noise 0
        assert [line.split(",")[0] for line in lines[1:5]] == ["0"] * 4

    def test_byte_determinism(self, capsys):
        args = ("sweep", "--case", "6", "--noise-range", "0:1:0.25",
                "--gamma-range", "0:1.5:0.25")
        first = run_cli(capsys, *args)
        second = run_cli(capsys, *args)
        assert first == second and first[0] == 0

    def test_single_point_range(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--case", "5",
                               "--noise-range", "0.5:0.5:1", "--gamma-range", "0:0:1")
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_inclusive_endpoint(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--case", "5",
                               "--noise-range", "0:1:0.1", "--gamma-range", "0:0:1")
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 11
        assert rows[-1].split(",")[0] == "1"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "sweep", "--case", "7",
                               "--noise-range", "0:1:0.5", "--gamma-range", "0:0:1",
                               "--out", str(target))
        assert code == 0 and out == ""
        content = target.read_bytes()
        assert content.startswith(b"noise,gamma,payoff\n")
        assert content.endswith(b"\n") and b"\r" not in content

    def test_explicit_config(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--state", "psi2", "--channel", "gp",
                               "--noise-range", "1:1:1", "--gamma-range", "0:1.5:0.5")
        assert code == 0
        payoffs = {line.split(",")[2] for line in out.splitlines()[1:]}
        assert payoffs == {"0.333333333333"}

    def test_noise_flag_conflicts(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--case", "1", "--noise", "1",
                               "--noise-range", "0:1:1", "--gamma-range", "0:0:1")
        assert code == 2 and out == ""

    def test_channel_required_for_explicit(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--state", "psi1",
                               "--noise-range", "0:1:1", "--gamma-range", "0:0:1")
        assert code == 2 and out == ""

    def test_domain_violation(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--case", "6",
                               "--noise-range", "0:2:1", "--gamma-range", "0:0:1")
        assert code == 4 and out == ""

    def test_domain_error_writes_no_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, out, err = run_cli(capsys, "sweep", "--case", "6", "--noise-range", "0:2:1",
                                 "--gamma-range", "0:0:1", "--out", str(target))
        assert code == 4 and out == "" and "error probability" in err
        assert not target.exists()

    @pytest.mark.parametrize("out_file", [False, True])
    def test_nan_simulation_fails(self, monkeypatch, tmp_path, capsys, out_file):
        # every parameter is in its domain, so the refused table is a failure
        # (exit 1, as in verify), not exit 4
        monkeypatch.setattr("qmontyhall.analysis.branch_probabilities",
                            lambda cfg: lambda noise: (math.nan, math.nan))
        target = tmp_path / "table.csv"
        args = ["sweep", "--case", "1", "--noise-range", "0:1:0.5", "--gamma-range", "0:1:0.5"]
        code, out, err = run_cli(capsys, *args, *(["--out", str(target)] if out_file else []))
        assert (code, out, err) == (1, "", "error: payoff nan outside [0, 1]\n")
        assert not target.exists()

    def test_bad_range_grammar(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--case", "1",
                               "--noise-range", "0:1", "--gamma-range", "0:0:1")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("text", ["0:nan:0.1", "0:inf:0.1", "0:1:nan", "-inf:0:1"])
    def test_non_finite_range(self, capsys, text):
        code, out, err = run_cli(capsys, "sweep", "--case", "1",
                                 f"--noise-range={text}", "--gamma-range", "0:1:0.5")
        assert code == 2 and out == "" and "finite" in err

    @pytest.mark.parametrize("noise,gamma", [("0:1e9:1e-3", "0:0:1"),
                                             ("0:3:1e-3", "0:1.5:1e-3"),
                                             ("-1e308:1e308:1", "0:0:1")])
    def test_grid_cap(self, capsys, noise, gamma):
        code, out, err = run_cli(capsys, "sweep", "--case", "1",
                                 f"--noise-range={noise}", "--gamma-range", gamma)
        assert code == 2 and out == "" and str(MAX_GRID_POINTS) in err

    @pytest.mark.parametrize("noise,gamma", [
        # axes of 12 and more significant digits that print in exponent form, in
        # every shape of grid; 50 x 100 points also cross a write boundary
        ((1.234567890123456e-9, 3e-7, math.e * 1e-5), (2.5e-12, math.pi * 1e-5, 0.7)),
        ((1e-5,), tuple(i * math.pi * 1e-8 for i in range(50))),
        (tuple(i * math.e * 1e-7 for i in range(50)), (1e-5,)),
        (tuple(i * math.e * 1e-7 for i in range(50)),
         tuple(i * math.pi * 1e-8 for i in range(100))),
    ])
    def test_writer_matches_per_point_rule(self, rng, noise, gamma):
        # Haar strategies and states under both noise families; every line is
        # what `_fmt` makes of its point
        for kind in ("se", "gp"):
            cfg = GameConfig(random_state(rng, STATE_DIM),
                             StrategyUnitary(haar_unitary(rng, 3), name="haar-a"),
                             StrategyUnitary(haar_unitary(rng, 3), name="haar-b"),
                             NoiseSpec.of(kind, 0.0), 0.0)
            table = sweep(cfg, noise, gamma)
            sink = io.StringIO()
            _write_csv(sink, table)
            expected = [f"{_fmt(x)},{_fmt(g)},{_fmt(p)}\n" for x, g, p in table.rows]
            # compared line by line, so a failure names the first line that differs
            assert sink.getvalue().splitlines(True) == ["noise,gamma,payoff\n", *expected]
            assert any("e-" in line for line in expected)

    def test_out_directory_missing(self, tmp_path, capsys):
        target = tmp_path / "missing" / "table.csv"
        code, out, err = run_cli(capsys, "sweep", "--case", "1", "--noise-range", "0:1:1",
                                 "--gamma-range", "0:0:1", "--out", str(target))
        assert code == 2 and out == "" and "cannot write" in err


class TestVerify:
    def test_all_cases(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--case", "all")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == 7
        for index, line in enumerate(lines, start=1):
            assert line.startswith(f"case {index}: max_err=")
            assert line.endswith(" pass")

    def test_single_case_custom_grid(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--case", "4",
                               "--noise-range", "0:1:0.5", "--gamma-range", "0:1.5:0.5")
        assert code == 0
        assert out.startswith("case 4: max_err=")

    def test_bad_case_token(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--case", "quick")
        assert code == 2 and out == ""

    def test_grid_cap(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--case", "1",
                                 "--noise-range", "0:1e9:1e-3")
        assert code == 2 and out == "" and str(MAX_GRID_POINTS) in err

    def test_broken_operator_is_caught(self, capsys, monkeypatch):
        # cripple the opening rule for b == a (leave the register alone
        # instead of cycling it): case 3 rides on exactly that branch, and
        # of the two indicators only the switch one depends on the opening
        import qmontyhall.game as game_module

        o, b, a = np.indices((3, 3, 3)).reshape(3, 27)
        opened = np.where(b != a, (o - a - b) % 3, o)
        final = np.where(opened != b, 3 - opened - b, b)
        monkeypatch.setattr(game_module, "WIN_SWITCH", (final == a).astype(float))
        code, out, _ = run_cli(capsys, "verify", "--case", "3")
        assert code == 1
        assert out.startswith("case 3: max_err=") and out.rstrip().endswith(" fail")


class TestThreshold:
    def test_emission_case(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--case", "1")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["case", "threshold"]
        assert doc["threshold"] == pytest.approx(math.log(2.0), abs=1e-8)

    def test_depolarizing_case(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--case", "6")
        assert json.loads(out)["threshold"] == pytest.approx(
            (3.0 - math.sqrt(3.0)) / 2.0, abs=1e-8
        )
        assert code == 0

    def test_wide_bracket(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--case", "1",
                               "--lo", "0.01", "--hi", "1e40")
        assert code == 0
        assert json.loads(out)["threshold"] == pytest.approx(math.log(2.0), abs=1e-8)

    # the last one sets --lo above the default upper end 0.99 of a gp case
    @pytest.mark.parametrize("case,bracket", [
        ("1", ["--lo=3", "--hi=0.01"]), ("1", ["--lo=0.5", "--hi=0.5"]),
        ("1", ["--lo=nan", "--hi=1"]), ("6", ["--lo=0.995"]),
    ])
    def test_empty_or_reversed_bracket(self, capsys, case, bracket):
        code, out, err = run_cli(capsys, "threshold", "--case", case, *bracket)
        assert code == 2 and out == "" and "runs backwards" in err

    @pytest.mark.parametrize("case", [5, 7])
    def test_no_crossover(self, capsys, case):
        code, out, err = run_cli(capsys, "threshold", "--case", str(case))
        assert code == 5 and out == "" and "no sign change" in err


class TestValidateChannel:
    def test_emission(self, capsys):
        code, out, _ = run_cli(capsys, "validate-channel", "--channel", "se",
                               "--noise", "1.5")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert all(line.endswith(" pass") for line in lines)
        assert lines[0].startswith("single-qutrit") and lines[1].startswith("choi")

    def test_depolarizing(self, capsys):
        code, out, _ = run_cli(capsys, "validate-channel", "--channel", "gp",
                               "--noise", "1.0")
        assert code == 0
        assert all(line.endswith(" pass") for line in out.splitlines())

    def test_domain(self, capsys):
        code, out, err = run_cli(capsys, "validate-channel", "--channel", "gp",
                                 "--noise", "1.5")
        assert code == 4 and out == "" and err != ""

    def test_non_finite_einstein_coefficient(self, capsys):
        code, out, err = run_cli(capsys, "validate-channel", "--channel", "se",
                                 "--noise", "1", "--a1", "inf")
        assert code == 4 and out == "" and "finite" in err


class TestEntryPoint:
    def test_stdout_closed_mid_output(self):
        # some 4.5 MB of CSV: the reader takes one line and leaves, so a later
        # write fails with EPIPE
        proc = subprocess.Popen(stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                **child_command("-m", "qmontyhall", "sweep", "--case", "6",
                                                "--noise-range", "0:1:0.001",
                                                "--gamma-range", "0:1.5:0.01"))
        assert proc.stdout.readline() == b"noise,gamma,payoff\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert b"Traceback" not in err and err == b""

    def test_stdout_closed_before_output(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(stdout=write_end, stderr=subprocess.PIPE, timeout=60,
                                    **child_command("-m", "qmontyhall", "payoff", "--case", "1",
                                                    "--noise", "0"))
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (2, b"")

    @pytest.mark.parametrize("argv, code", [
        (["payoff", "--bogus"], 2),
        (["payoff", "--state", "psi1", "--channel", "gp", "--a1", "2", "--noise", "0"], 2),
        (["payoff", "--state", str(Path(__file__).parent / "golden" / "unnormalised.json"),
          "--channel", "gp", "--noise", "0"], 3),
        (["payoff", "--case", "9", "--noise", "0"], 4),
        (["threshold", "--case", "5", "--lo", "0.01", "--hi", "0.3"], 5),
    ], ids=["unknown-flag", "a1-with-gp", "unnormalised-state", "unknown-case", "no-crossover"])
    def test_stderr_closed_keeps_the_exit_code(self, argv, code):
        # the error line cannot be written: the code must not become 1, and
        # neither it nor argparse's usage line may go to stdout instead
        command = child_command("-m", "qmontyhall", *argv)
        result = subprocess.run(["sh", "-c", '"$@" 2>&-', "sh", *command["args"]],
                                env=command["env"], stdout=subprocess.PIPE, timeout=60)
        assert (result.returncode, result.stdout) == (code, b"")

    @pytest.mark.parametrize("argv, code", [
        (["payoff", "--case", "1", "--noise", "0"], 2),
        (["sweep", "--case", "1", "--noise-range", "0:1:0.5", "--gamma-range", "0:1:0.5"], 2),
        (["verify", "--case", "1"], 2),
        (["payoff", "--case", "9", "--noise", "0"], 4),
        (["sweep", "--case", "1", "--noise-range", "0:1:0.5", "--gamma-range", "0:1:0.5",
          "--out", "out.csv"], 0),
    ], ids=["payoff", "sweep", "verify", "unknown-case", "sweep-out"])
    def test_absent_stdout_keeps_the_exit_code(self, tmp_path, argv, code):
        # started without descriptor 1: output is refused as by a closed pipe,
        # and a command that writes none to stdout keeps its own code
        command = child_command("-m", "qmontyhall", *argv)
        result = subprocess.run(["sh", "-c", '"$@" >&-', "sh", *command["args"]],
                                env=command["env"], stderr=subprocess.PIPE, cwd=tmp_path,
                                timeout=60)
        assert result.returncode == code
        assert b"Traceback" not in result.stderr
        if "--out" in argv:
            lines = (tmp_path / "out.csv").read_text().splitlines()
            assert lines[0] == "noise,gamma,payoff" and len(lines) == 10

    def test_endless_input_file_under_a_memory_cap_exits_2(self):
        # the read stops at its bound, so a child whose address space is
        # capped at 2 GiB refuses /dev/zero as an input file without running
        # out of memory
        cap = 2 * 1024 ** 3

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        result = subprocess.run(capture_output=True, timeout=60, preexec_fn=limit_address_space,
                                **child_command("-m", "qmontyhall", "payoff", "--state",
                                                "/dev/zero", "--channel", "gp", "--noise", "0"))
        assert (result.returncode, result.stdout) == (2, b""), result.stderr

    def test_absent_stderr_keeps_the_exit_code_in_process(self, capsys, monkeypatch):
        # sys.stderr is None in a process started without descriptor 2
        monkeypatch.setattr(sys, "stderr", None)
        assert run_cli(capsys, "payoff", "--case", "9", "--noise", "0")[:2] == (4, "")

    def test_module_invocation(self):
        result = subprocess.run(capture_output=True, text=True,
                                **child_command("-m", "qmontyhall", "payoff", "--case", "1",
                                                "--noise", "0", "--gamma", "0"))
        assert result.returncode == 0
        assert json.loads(result.stdout)["payoff"] == 0.666666666667

    def test_runtime_needs_numpy_only(self):
        # scipy took most of the start-up time when the CLI imported it, and
        # fractions only served a reference that tests use
        probe = ("import sys, qmontyhall.cli; "
                 "print([m for m in ('scipy', 'fractions') if m in sys.modules])")
        result = subprocess.run(capture_output=True, text=True, **child_command("-c", probe))
        assert result.returncode == 0 and result.stdout.strip() == "[]", result.stderr
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        dependencies = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
        assert [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in dependencies] == ["numpy"]
