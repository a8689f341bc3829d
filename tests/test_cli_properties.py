"""Property test of the CLI contract on generated command lines.

Every argv, however malformed, must end in a documented exit code (0-5)
without an exception escaping `main`; an error exit (2-5) leaves stdout
empty; on success, `payoff` and `threshold` print strict JSON and `sweep`
prints a CSV of finite numbers.

Each token is drawn from a pool of valid values or, a quarter of the time,
of invalid ones (nan, inf, negative and huge numbers, unknown cases,
reversed and oversized ranges), so that both the success and the error
paths run.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmontyhall.cli import main


def _mixed(valid, invalid):
    """Valid values three times as often as invalid ones."""
    return st.sampled_from(valid * 3 + invalid)


NUMBERS = _mixed(
    ["0", "-0", "0.25", "0.5", "1", "3", "40", "1e-320", "pi/2", "1.5707963"],
    ["-1", "nan", "inf", "-inf", "1e308", "-1e308", "x", ""],
) | st.floats(allow_nan=True, allow_infinity=True).map(repr)
CASE_NUMBERS = ["1", "2", "3", "4", "5", "6", "7"]
CASES = _mixed(CASE_NUMBERS, ["0", "9", "-1", "x"])
# valid ranges hold a handful of points so each example stays cheap
RANGES = _mixed(
    ["0:1:0.5", "0:3:1", "0:0:1", "0.5:0.5:1", "0:1.5:0.75", "0.1:0.9:0.4", "0:1e-300:1e-301"],
    ["1:0:0.1", "0:1e9:1e-3", "0:1:1e-7", "-1e308:1e308:1", "0:nan:0.1", "0:inf:0.1",
     "0:1:nan", "-inf:0:1", "0:1:0", "0:1:-1", "0:1", "a:b:c"],
)
CHANNEL = _mixed(["se", "gp", "none"], ["xx"])


def _flag(name, values):
    # joined with "=", or argparse takes a value like -inf for a flag
    return values.map(lambda v: [f"{name}={v}"])


def _maybe(name, values, present=1):
    """The flag in ``present`` of four draws, else left out."""
    return st.sampled_from([False] * (4 - present) + [True] * present).flatmap(
        lambda on: _flag(name, values) if on else st.just([]))


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [t for p in ps for t in p])


CONFIG = st.one_of(
    _argv(_flag("--case", CASES), _maybe("--state", st.just("psi1"))),
    _argv(_flag("--state", _mixed(["psi1", "psi2"], ["psi3"])),
          _maybe("--alice", _mixed(["id", "h", "ID", "identity"], ["bogus"]), 3),
          _maybe("--bob", _mixed(["id", "m1", "m2"], ["bogus"]), 3),
          _flag("--channel", CHANNEL), _maybe("--a1", NUMBERS), _maybe("--a2", NUMBERS)),
)
COMMANDS = {
    "payoff": _argv(st.just(["payoff"]), CONFIG, _maybe("--noise", NUMBERS, 3),
                    _maybe("--gamma", NUMBERS, 3)),
    "sweep": _argv(st.just(["sweep"]), CONFIG, _flag("--noise-range", RANGES),
                   _flag("--gamma-range", RANGES),
                   _maybe("--out", st.just("/nonexistent-dir/table.csv"))),
    # verify always gets both ranges: its default grid costs 441 rounds a case
    "verify": _argv(st.just(["verify"]), _flag("--case", _mixed(CASE_NUMBERS + ["all"], ["0", "9", "x"])),
                    _flag("--noise-range", RANGES), _flag("--gamma-range", RANGES)),
    "threshold": _argv(st.just(["threshold"]), _flag("--case", CASES),
                       _maybe("--lo", NUMBERS), _maybe("--hi", NUMBERS)),
    "validate-channel": _argv(st.just(["validate-channel"]), _flag("--channel", CHANNEL),
                              _flag("--noise", NUMBERS), _maybe("--a1", NUMBERS),
                              _maybe("--a2", NUMBERS)),
}

# Lines that crashed, hung, printed NaN, accepted a reversed bracket, left
# partial output before an error, called a range whose STEP is below the
# float spacing a domain error or ran --case next to an explicit flag that
# held its default value; every run checks them besides the drawn ones.
KNOWN_DEFECTS = {
    "payoff": [["payoff", "--state", "psi1", "--channel", "se", "--a1", "inf", "--noise", "0"],
               ["payoff", "--case", "4", "--noise", "0.5", "--alice", "id"],
               ["payoff", "--case", "1", "--noise", "0.5", "--channel", "none"]],
    "sweep": [["sweep", "--case", "1", "--noise-range", r, "--gamma-range", "0:1:0.5"]
              for r in ("0:nan:0.1", "0:inf:0.1", "0:1:nan", "0:1e9:1e-3")]
    + [["sweep", "--case", "1", "--noise-range", "0:1:0.5", "--gamma-range", "0:1:0.5",
        "--out", "/nonexistent-dir/table.csv"],
       ["sweep", "--case", "1", "--noise-range", "1000:1000.000000000001:1e-14",
        "--gamma-range", "0:0:1"],
       ["sweep", "--case", "1", "--noise-range", "0:0:1",
        "--gamma-range", "1:1.0000000000000002:1e-17"],
       ["sweep", "--case", "6", "--bob", "id", "--noise-range", "0:1:0.5",
        "--gamma-range", "0:0:1"]],
    "verify": [["verify", "--case", "1", "--noise-range", "0:1e9:1e-3", "--gamma-range", "0:0:1"],
               ["verify", "--case", "all", "--noise-range", "0:3:1.5", "--gamma-range", "0:0:1"],
               ["verify", "--case", "6", "--noise-range", "0.5:0.5000000000000001:1e-18"]],
    "threshold": [["threshold", "--case", "1", "--lo", "0.01", "--hi", "1e40"],
                  ["threshold", "--case", "1", "--lo", "3", "--hi", "0.01"]],
    "validate-channel": [["validate-channel", "--channel", "se", "--noise", "0", "--a1", "inf"]],
}


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_argv_ends_in_a_documented_exit_code(command):
    def check(argv):
        code, out = _run(argv)
        assert code in range(6), (argv, code)
        if code >= 2:
            assert out == "", (argv, code, out)
        if code != 0:
            return
        if command in ("payoff", "threshold"):
            json.loads(out, parse_constant=_reject_constant)
        elif command == "sweep":
            lines = out.splitlines()
            assert lines[0] == "noise,gamma,payoff"
            for line in lines[1:]:
                assert all(math.isfinite(float(v)) for v in line.split(",")), line

    for argv in KNOWN_DEFECTS[command]:
        check = example(argv)(check)
    settings(max_examples=40, derandomize=True, deadline=None, database=None)(
        given(COMMANDS[command])(check))()
