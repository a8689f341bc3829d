"""Write the golden CLI corpus: `cli.jsonl` and the input files it names.

Each line of ``cli.jsonl`` is one command line run through ``cli.main`` with
this directory as the working directory: ``{"argv": [...], "exit": code,
"stdout": "..."}``.  ``test_golden.py`` replays every line and requires the
same exit code and byte-identical stdout.  A change that alters output on
purpose regenerates the corpus and lists every changed line:

    PYTHONPATH=src python tests/golden/make_corpus.py
    git diff tests/golden/cli.jsonl
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_cli_properties import KNOWN_DEFECTS  # noqa: E402

from qmontyhall import cli  # noqa: E402

CORPUS = HERE / "cli.jsonl"


def _pairs(values):
    return [[float(z.real), float(z.imag)] for z in values]


def _fourier_strategy():
    """The 3x3 discrete Fourier transform times fixed phases: unitary, dense
    and complex, written with math only so every platform writes the same file."""
    phases = (0.3, 1.1, -0.7)
    rows = []
    for j in range(3):
        row = []
        for k in range(3):
            angle = 2 * math.pi * j * k / 3 + phases[k]
            row.append(complex(math.cos(angle), math.sin(angle)) / math.sqrt(3))
        rows.append(_pairs(row))
    return rows


def _custom_state():
    v = [complex(math.sin(k + 1), math.cos(2 * k + 1)) for k in range(27)]
    norm = math.sqrt(sum(abs(z) ** 2 for z in v))
    return _pairs(z / norm for z in v)


INPUT_FILES = {
    "fourier.json": _fourier_strategy(),
    "m2.json": [[[0, 0], [0, 0], [1, 0]], [[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]],
    "scaled.json": [[[2, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]],
    "state.json": _custom_state(),
    "unnormalised.json": [[1, 0]] * 27,
}

SE_NOISE = ["0", "0.25", "0.6931471805599453", "1.5", "3", "40"]
GP_NOISE = ["0", "0.25", "0.5", "0.6339745962155614", "0.99", "1"]
GAMMAS = ["0", "0.4", "pi/2"]


def _payoff_lines():
    lines = []
    for case in range(1, 8):
        noises = SE_NOISE if case <= 4 else GP_NOISE
        for noise, gamma in itertools.product(noises, GAMMAS):
            lines.append(["payoff", "--case", str(case), "--noise", noise, "--gamma", gamma])
    channels = [["--channel", "none"],
                ["--channel", "se", "--noise", "0.5"],
                ["--channel", "se", "--noise", "0.5", "--a1", "2", "--a2", "0.5"],
                ["--channel", "gp", "--noise", "0.3"]]
    explicit = itertools.product(["psi1", "psi2", "state.json"], ["id", "h", "fourier.json"],
                                 ["id", "m1", "m2", "m2.json", "fourier.json"], channels)
    for i, (state, alice, bob, channel) in enumerate(explicit):
        lines.append(["payoff", "--state", state, "--alice", alice, "--bob", bob, *channel,
                      "--gamma", GAMMAS[i % 3]])
    return lines + [
        ["payoff", "--state", "psi1", "--alice", "scaled.json", "--channel", "none"],
        ["payoff", "--state", "unnormalised.json", "--channel", "none"],
        ["payoff", "--state", "missing.json", "--channel", "none"],
        ["payoff", "--case", "1", "--noise", "-1"],
        ["payoff", "--case", "6", "--noise", "1.5"],
        ["payoff", "--case", "1", "--noise", "0", "--gamma", "2"],
        ["payoff", "--case", "8", "--noise", "0"],
        ["payoff", "--case", "1"],
        ["payoff", "--case", "1", "--noise", "0", "--state", "psi2"],
        ["payoff", "--state", "psi1", "--channel", "none", "--noise", "0.5"],
    ]


def _sweep_lines():
    lines = []
    for case in range(1, 8):
        noise_range = "0:3:0.75" if case <= 4 else "0:1:0.25"
        lines.append(["sweep", "--case", str(case), "--noise-range", noise_range,
                      "--gamma-range", "0:1.5707963:0.5"])
    return lines + [
        ["sweep", "--state", "state.json", "--alice", "fourier.json", "--bob", "m2.json",
         "--channel", "gp", "--noise-range", "0:1:0.5", "--gamma-range", "0:1.5:0.75"],
        ["sweep", "--state", "psi2", "--alice", "h", "--channel", "se", "--a1", "2",
         "--a2", "0.5", "--noise-range", "0:2:1", "--gamma-range", "0:1.5:0.75"],
        ["sweep", "--case", "1", "--noise-range", "0.5:0.5:1", "--gamma-range", "0:0:1"],
        ["sweep", "--state", "psi1", "--channel", "none", "--noise-range", "0:1:1",
         "--gamma-range", "0:0:1"],
        ["sweep", "--case", "5", "--noise-range", "0:1.5:0.5", "--gamma-range", "0:0:1"],
        ["sweep", "--case", "1", "--noise-range", "1:0:0.1", "--gamma-range", "0:0:1"],
    ]


def _verify_lines():
    lines = [["verify", "--case", "all"]]
    for case in range(1, 8):
        noise_range = "0:3:1" if case <= 4 else "0:1:0.5"
        lines.append(["verify", "--case", str(case), "--noise-range", noise_range,
                      "--gamma-range", "0:1.5:0.5"])
    return lines + [
        ["verify", "--case", "6", "--noise-range", "0:1:0.5", "--gamma-range", "0:2:1"],
        ["verify", "--case", "9"],
        ["verify", "--case", "quick"],
    ]


def _threshold_lines():
    lines = [["threshold", "--case", str(case)] for case in range(1, 8)]
    for case in (5, 6, 7):
        lines.append(["threshold", "--case", str(case), "--lo", "0.01", "--hi", "1"])
    return lines + [
        ["threshold", "--case", "1", "--lo", "0.5", "--hi", "1"],
        ["threshold", "--case", "1", "--lo", "1", "--hi", "3"],
        ["threshold", "--case", "3", "--lo", "0.01", "--hi", "2"],
        ["threshold", "--case", "6", "--lo", "0.1", "--hi", "0.9"],
        ["threshold", "--case", "6", "--lo", "0.693147", "--hi", "1"],
        ["threshold", "--case", "6", "--lo", "-0.5", "--hi", "0.9"],
        ["threshold", "--case", "0"],
        ["threshold", "--case", "4", "--lo", "0", "--hi", "3"],
        ["threshold", "--case", "7", "--lo", "0", "--hi", "0.5"],
    ]


def _validate_lines():
    lines = [["validate-channel", "--channel", "se", "--noise", t] for t in SE_NOISE]
    lines += [["validate-channel", "--channel", "gp", "--noise", p] for p in GP_NOISE]
    return lines + [
        ["validate-channel", "--channel", "se", "--noise", "1", "--a1", "2", "--a2", "0.5"],
        ["validate-channel", "--channel", "gp", "--noise", "1.5"],
        ["validate-channel", "--channel", "se", "--noise", "1", "--a1", "0"],
    ]


def command_lines():
    lines = (_payoff_lines() + _sweep_lines() + _verify_lines() + _threshold_lines()
             + _validate_lines())
    for command in sorted(KNOWN_DEFECTS):
        lines += [argv for argv in KNOWN_DEFECTS[command] if argv not in lines]
    return lines


def run(argv):
    """(exit code, stdout) of one command line, run in this directory."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def main():
    for name, doc in INPUT_FILES.items():
        (HERE / name).write_text(json.dumps(doc) + "\n", encoding="utf-8")
    with CORPUS.open("w", encoding="utf-8", newline="\n") as fh:
        for argv in command_lines():
            code, out = run(argv)
            fh.write(json.dumps({"argv": argv, "exit": code, "stdout": out}) + "\n")


if __name__ == "__main__":
    main()
