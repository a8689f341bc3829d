"""The names, parameters and fields that the benchmark in ``perfbench/`` drives.

Removing or renaming one of them breaks the benchmark, so this pins them
in the test suite, where a pruning of the package shows at once.
"""

import dataclasses
import inspect

from qmontyhall import analysis, channels, cli, game


def test_benchmark_driven_names_keep_their_signatures():
    expected = {
        analysis.sweep: ["target", "noise_values", "gamma_values"],
        analysis.verify_case: ["case", "noise_values", "gamma_values"],
        analysis.threshold: ["case", "lo", "hi"],
        analysis.gamma_coefficients: ["payoff"],
        game.play: ["cfg"],
        game.GameConfig: ["initial", "alice", "bob", "noise", "gamma"],
        game.StrategyUnitary: ["matrix", "name"],
        channels.NoiseSpec.spontaneous_emission: ["t", "a1", "a2"],
        channels.NoiseSpec.generalized_pauli: ["p"],
        channels.se_single: ["t", "a1", "a2"],
        channels.gp_single: ["p"],
        cli.main: ["argv"],
    }
    got = {fn: list(inspect.signature(fn).parameters) for fn in expected}
    assert got == expected
    assert issubclass(analysis.NoSignChangeError, ValueError)
    # the fields the benchmark reads on what these return or take
    fields = {cls: {f.name for f in dataclasses.fields(cls)}
              for cls in (channels.NoiseSpec, game.GameOutcome, analysis.VerifyReport)}
    assert {"kind", "t", "p", "a1", "a2"} <= fields[channels.NoiseSpec]
    assert "payoff" in fields[game.GameOutcome]
    assert {"case", "max_abs_error", "passed", "points"} <= fields[analysis.VerifyReport]
    assert isinstance(analysis.SweepTable.rows, property)
