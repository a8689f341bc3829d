"""The names, parameters and fields that the benchmark in ``perfbench/`` drives.

Removing or renaming one of them breaks the benchmark, so this pins them
in the test suite, where a pruning of the package shows at once.  The
package root re-exports none of them: each has one import path, its module.
"""

import dataclasses
import inspect
import subprocess
import sys

from qmontyhall import analysis, channels, cli, game


def test_benchmark_driven_names_keep_their_signatures():
    expected = {
        analysis.sweep: ["target", "noise_values", "gamma_values"],
        analysis.verify_case: ["case", "noise_values", "gamma_values"],
        analysis.threshold: ["case", "lo", "hi"],
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


def test_package_root_reexports_nothing():
    # each name is imported from its module: a bare `import qmontyhall`, in a
    # fresh interpreter, binds nothing but the module's dunders and loads no numpy
    probe = ("import sys, qmontyhall; "
             "print(sorted(n for n in vars(qmontyhall) if not n.startswith('__')), "
             "'numpy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0 and result.stdout == "[] False\n", result.stderr
