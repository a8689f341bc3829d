"""The names, parameters and fields that the benchmark in ``perfbench/`` drives.

Removing or renaming one of them breaks the benchmark, so this pins them
in the test suite, where a pruning of the package shows at once.  The
package root re-exports none of them: each has one import path, its module.
"""

import dataclasses
import inspect
import subprocess
from pathlib import Path

import pytest
from conftest import child_command

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


def _fresh(probe: str, **env: str) -> str:
    """stdout of `probe` in a fresh interpreter, OPENBLAS_NUM_THREADS unset
    unless given."""
    result = subprocess.run(capture_output=True, text=True, **child_command("-c", probe, **env))
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_package_root_reexports_nothing():
    # each name is imported from its module: a bare `import qmontyhall`, in a
    # fresh interpreter, binds nothing but the module's dunders, loads no numpy
    # (so the entry point can still set numpy's thread count) and leaves the
    # environment as it was
    probe = ("import os, sys; env = dict(os.environ); import qmontyhall; "
             "print(sorted(n for n in vars(qmontyhall) if not n.startswith('__')), "
             "'numpy' in sys.modules, dict(os.environ) == env)")
    assert _fresh(probe) == "[] False True\n"


# the thread count numpy sees as it loads, and the one left afterwards
_BLAS_THREADS_PROBE = """
import os, sys
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Spy())
import qmontyhall.__main__
print(seen, os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.parametrize("preset,expected", [(None, "['1'] 1\n"), ("2", "['2'] 2\n")],
                         ids=["unset", "preset"])
def test_entry_point_defaults_to_one_blas_thread(preset, expected):
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    assert _fresh(_BLAS_THREADS_PROBE, **env) == expected


@pytest.mark.parametrize("enabled", [True, False])
def test_entry_point_import_keeps_gc_state_and_main_freezes(enabled):
    # importing the entry point leaves the importer's collector as it was;
    # main() freezes the import heap before it runs the command
    probe = ("import gc, sys; " + ("" if enabled else "gc.disable(); ")
             + "import qmontyhall.__main__ as entry; "
             "before = (gc.isenabled(), gc.get_freeze_count()); "
             "sys.argv = ['qmontyhall', 'validate-channel', '--channel', 'gp', '--noise', '0.5']; "
             "code = entry.main(); "
             "print(before, code, gc.get_freeze_count() > 0)")
    assert _fresh(probe).splitlines()[-1] == f"({enabled}, 0) 0 True"


def test_script_and_module_share_the_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"qmontyhall": "qmontyhall.__main__:main"}
