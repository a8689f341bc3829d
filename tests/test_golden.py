"""Replay the golden CLI corpus: every recorded command line must give the
same exit code and byte-identical stdout (see tests/golden/make_corpus.py)."""

import json

import pytest
from golden.make_corpus import CORPUS, run


@pytest.mark.parametrize("command", ["payoff", "sweep", "verify", "threshold",
                                     "validate-channel"])
def test_cli_output_matches_corpus(command):
    records = [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]
    records = [r for r in records if r["argv"][0] == command]
    assert records
    changed = []
    for record in records:
        code, out = run(record["argv"])
        if (code, out) != (record["exit"], record["stdout"]):
            changed.append((" ".join(record["argv"]), record["exit"], code,
                            record["stdout"], out))
    assert not changed, changed[:5]
