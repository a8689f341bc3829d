"""Replay the golden CLI corpus: every recorded command line must give the
same exit code and byte-identical stdout (see tests/golden/make_corpus.py)."""

import json
import subprocess

import pytest
from conftest import child_command
from golden.make_corpus import CORPUS, HERE, run

COMMANDS = ["payoff", "sweep", "verify", "threshold", "validate-channel"]


def _records():
    return [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_matches_corpus(command):
    records = [r for r in _records() if r["argv"][0] == command]
    assert records
    changed = []
    for record in records:
        code, out = run(record["argv"])
        if (code, out) != (record["exit"], record["stdout"]):
            changed.append((" ".join(record["argv"]), record["exit"], code,
                            record["stdout"], out))
    assert not changed, changed[:5]


def test_entry_point_matches_corpus_sample():
    # the replay above calls cli.main in this process; this runs the first
    # record of each command, of each exit code and of those reading an input
    # file through `python -m qmontyhall`, as a user starts it
    sample = {}
    for record in _records():
        argv = record["argv"]
        kinds = [("command", argv[0]), ("exit", record["exit"])]
        if record["exit"] == 0 and any(arg.endswith(".json") for arg in argv):
            kinds.append(("reads a file",))
        for kind in kinds:
            sample.setdefault(kind, record)
    assert {("command", c) for c in COMMANDS} | {("exit", 2), ("exit", 5), ("reads a file",)} \
        <= set(sample)
    changed = []
    for argv, (code, out) in {tuple(r["argv"]): (r["exit"], r["stdout"])
                            for r in sample.values()}.items():
        result = subprocess.run(cwd=HERE, capture_output=True, timeout=60,
                                **child_command("-m", "qmontyhall", *argv))
        if (result.returncode, result.stdout) != (code, out.encode()):
            changed.append((" ".join(argv), code, result.returncode, out, result.stdout))
    assert not changed, changed
