"""Command-line front end.

Subcommands: ``payoff`` (one game, JSON out), ``sweep`` (payoff grid, CSV
out), ``verify`` (simulation vs closed forms), ``threshold`` (strategy
crossover by bisection) and ``validate-channel`` (trace preservation and
complete positivity of a noise channel's superoperator).

Exit codes: 0 success, 1 verification/validation failure, 2 bad flags or
range, grid over MAX_GRID_POINTS, unparseable input file or unwritable
--out, 3 non-unitary strategy (or non-normalised state) file, 4 parameter
outside its domain, 5 no strategy crossover in range.
All diagnostics go to stderr; stdout carries only the command's output.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from . import analysis, game
from .channels import (
    STATE_DIM,
    STRUCTURAL_TOL,
    NoiseSpec,
    complete_positivity_deviation,
    single_channel,
    trace_preservation_deviation,
)
from .game import GameConfig, StrategyUnitary, builtin_strategy, check_state, play

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NOT_UNITARY = 3
EXIT_DOMAIN = 4
EXIT_NO_CROSSOVER = 5

# Most (noise, gamma) points one sweep or verify run may ask for; larger
# grids are refused with exit 2 before any grid is built.
MAX_GRID_POINTS = 1_000_000


class CliError(Exception):
    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


@contextmanager
def _domain():
    """Report a ValueError in the block (a parameter out of its domain) as exit 4."""
    try:
        yield
    except ValueError as err:
        raise CliError(EXIT_DOMAIN, str(err)) from None


def _print_json(doc: dict) -> None:
    """Print strict JSON; a non-finite number is a domain error, not NaN."""
    with _domain():
        text = json.dumps(doc, allow_nan=False)
    print(text)


def _fmt(x: float) -> str:
    """Shortest decimal within 12 significant digits."""
    return f"{float(x):.12g}"


def _round12(x: float) -> float:
    return float(_fmt(x))


def _parse_gamma(text: str) -> float:
    """Mixing angle in radians; the literal ``pi/2`` is also accepted."""
    if text.strip() == "pi/2":
        return math.pi / 2
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid gamma {text!r}") from None


def _parse_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"range {text!r} is not LO:HI:STEP")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric range {text!r}") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise argparse.ArgumentTypeError(f"range {text!r} must be finite")
    if step <= 0:
        raise argparse.ArgumentTypeError(f"range step must be positive in {text!r}")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"range {text!r} runs backwards")
    return lo, hi, step


def _range_shape(bounds: tuple[float, float, float]) -> tuple[int, bool]:
    """(number of grid values, whether HI is one of them) without building
    the grid.  HI is included when (HI-LO) is an integer multiple of STEP to
    within 1e-12; a span of MAX_GRID_POINTS steps or more counts as
    MAX_GRID_POINTS + 1 values."""
    lo, hi, step = bounds
    span = (hi - lo) / step
    if not span < MAX_GRID_POINTS:
        return MAX_GRID_POINTS + 1, False
    k = round(span)
    if abs((hi - lo) - k * step) <= 1e-12:
        return k + 1, True
    return math.floor(span) + 1, False


def _range_values(bounds: tuple[float, float, float]) -> tuple[float, ...]:
    """Grid LO, LO+STEP, ..., ending exactly on HI when HI is included;
    refused when STEP is below the float spacing and values repeat."""
    lo, hi, step = bounds
    count, inclusive = _range_shape(bounds)
    values = tuple(hi if inclusive and i == count - 1 else lo + i * step for i in range(count))
    if any(b <= a for a, b in itertools.pairwise(values)):
        raise CliError(EXIT_USAGE, f"range {lo!r}:{hi!r}:{step!r} repeats values: "
                                   "STEP is below the float spacing")
    return values


def _grid_values(args) -> list[tuple[float, ...] | None]:
    """The --noise-range and --gamma-range grids (None where a range is
    absent and verify's default axis applies), refused before they are built
    when they hold more than MAX_GRID_POINTS points together."""
    ranges = (args.noise_range, args.gamma_range)
    points = math.prod(_range_shape(r)[0] if r else analysis.DEFAULT_GRID_POINTS
                       for r in ranges)
    if points > MAX_GRID_POINTS:
        raise CliError(EXIT_USAGE, f"grid has more than {MAX_GRID_POINTS} points")
    return [_range_values(r) if r else None for r in ranges]


def parse_strategy_file(path: str) -> StrategyUnitary:
    """Load a 3x3 strategy from a JSON file of [re, im] pairs, row-major.

    The top level must be an array of 3 rows, each 3 entries, each a
    two-number [re, im] array; the matrix must be unitary within 1e-9.
    """
    matrix = _complex_array_from_file(path, (3, 3))
    try:
        return StrategyUnitary(matrix, name=path)
    except ValueError as err:
        raise CliError(EXIT_NOT_UNITARY, f"{path}: {err}") from None


def parse_state_file(path: str) -> np.ndarray:
    """Load a 27-dim initial state from a JSON file of 27 [re, im] pairs."""
    try:
        return check_state(_complex_array_from_file(path, (STATE_DIM,)))
    except ValueError as err:
        raise CliError(EXIT_NOT_UNITARY, f"{path}: {err}") from None


def _complex_array_from_file(path: str, shape: tuple[int, ...]) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise CliError(EXIT_USAGE, f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise CliError(EXIT_USAGE, f"{path}: invalid JSON: {err}") from None
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        raise CliError(EXIT_USAGE, f"{path}: expected nested arrays of numbers") from None
    if arr.shape != shape + (2,):
        raise CliError(EXIT_USAGE,
                       f"{path}: expected shape {shape} of [re, im] pairs, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise CliError(EXIT_USAGE, f"{path}: entries must be finite")
    return arr[..., 0] + 1j * arr[..., 1]


def _resolve_strategy(token: str) -> StrategyUnitary:
    """A built-in move by name, else a strategy file (a name wins over a file)."""
    if token.lower() in game.STRATEGY_NAMES:
        return builtin_strategy(token)
    return parse_strategy_file(token)


def _apply_case(args, parser: argparse.ArgumentParser) -> None:
    """``--case k`` is shorthand for case k's --state/--alice/--bob/--channel
    and excludes them all; then every flag still unset takes its default."""
    defaults = {"alice": "id", "bob": "id", "channel": "none", "a1": 1.0, "a2": 1.0}
    if args.case is not None:
        clashes = [f"--{name}" for name in ("state", *defaults) if getattr(args, name) is not None]
        if clashes:
            parser.error(f"--case cannot be combined with {', '.join(clashes)}")
        with _domain():
            spec = analysis.case_spec(args.case)
        args.state, args.alice, args.bob, args.channel = (
            spec.initial, spec.alice, spec.bob, spec.channel_kind)
    for name, default in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, default)


def _config_builder(args) -> Callable[[float | None, float], GameConfig]:
    """Parse the configuration flags once; the result builds the GameConfig
    at a given (noise, gamma)."""
    if args.state is None:
        raise CliError(EXIT_USAGE, "either --case or --state is required")
    initial = args.state if args.state in game.STATE_NAMES else parse_state_file(args.state)
    alice, bob = _resolve_strategy(args.alice), _resolve_strategy(args.bob)

    def build(noise: float | None, gamma: float) -> GameConfig:
        with _domain():
            noise_spec = NoiseSpec.of(args.channel, noise, args.a1, args.a2)
            return GameConfig(initial, alice, bob, noise_spec, gamma)

    return build


def _cmd_payoff(args, parser) -> int:
    _apply_case(args, parser)
    build = _config_builder(args)
    if args.channel == "none" and args.noise is not None:
        raise CliError(EXIT_USAGE, "--noise is meaningless with --channel none")
    if args.channel != "none" and args.noise is None:
        if args.case is not None:
            raise CliError(EXIT_USAGE, "--case requires --noise")
        raise CliError(EXIT_USAGE, f"--noise is required with --channel {args.channel}")
    outcome = play(build(args.noise, args.gamma))
    echo = {} if args.case is None else {"case": args.case}
    echo.update(state=args.state, alice=args.alice, bob=args.bob, channel=args.channel)
    if args.channel == "se" and args.case is None:
        echo.update(a1=_round12(args.a1), a2=_round12(args.a2))
    if args.noise is not None:
        echo["noise"] = _round12(args.noise)
    echo["gamma"] = _round12(args.gamma)
    gamma_star, label = analysis.optimal_gamma(outcome.mixing_coefficient)
    _print_json({
        "payoff": _round12(outcome.payoff),
        "p_switch": _round12(outcome.p_switch),
        "p_not_switch": _round12(outcome.p_not_switch),
        "optimal_gamma": _round12(gamma_star),
        "optimal_label": label,
        "config": echo,
    })
    return EXIT_OK


def _write_csv(fh, table: analysis.SweepTable) -> None:
    """Write the table as CSV by the `_fmt` rule, some thousand rows per write.
    Each noise value is formatted once per row of the grid; each gamma once,
    kept as text (some 60 B each) only when more rows than one read it."""
    fh.write("noise,gamma,payoff\n")
    # the axes and payoffs are floats already, so `_fmt`'s float() is left out
    gammas = map("{:.12g}".format, table.gamma_values)
    if len(table.noise_values) > 1:
        gammas = list(gammas)
    payoffs = iter(table.payoffs)
    lines = (f"{x},{g},{p:.12g}\n" for x in map("{:.12g}".format, table.noise_values)
             for g, p in zip(gammas, payoffs))
    while chunk := "".join(itertools.islice(lines, 4096)):
        fh.write(chunk)


def _cmd_sweep(args, parser) -> int:
    _apply_case(args, parser)
    build = _config_builder(args)
    if args.channel == "none":
        raise CliError(EXIT_USAGE, "sweep needs --channel se or gp for the noise axis")
    noise_values, gamma_values = _grid_values(args)
    with _domain():
        try:
            # the noise value and gamma of the configuration are not used
            table = analysis.sweep(build(0.0, 0.0), noise_values, gamma_values)
        except analysis.PayoffRangeError as err:
            # a simulated payoff the table refuses, with every parameter in its domain
            raise CliError(EXIT_FAIL, str(err)) from None
    if not args.out:
        _write_csv(sys.stdout, table)
        return EXIT_OK
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            _write_csv(fh, table)
    except OSError as err:
        raise CliError(EXIT_USAGE, f"cannot write {args.out}: {err}") from None
    return EXIT_OK


def _cmd_verify(args, parser) -> int:
    if args.case == "all":
        cases = sorted(analysis.CASES)
    else:
        try:
            cases = [int(args.case)]
        except ValueError:
            parser.error(f"--case must be 1..7 or 'all', got {args.case!r}")
    noise_values, gamma_values = _grid_values(args)
    # every case runs before the first line, so a domain error prints nothing
    with _domain():
        reports = [analysis.verify_case(case, noise_values, gamma_values) for case in cases]
    for report in reports:
        status = "pass" if report.passed else "fail"
        print(f"case {report.case}: max_err={report.max_abs_error:.3e} {status}")
    return EXIT_OK if all(report.passed for report in reports) else EXIT_FAIL


_THRESHOLD_BRACKETS = {"se": (0.01, 3.0), "gp": (0.01, 0.99)}


def _cmd_threshold(args, parser) -> int:
    with _domain():
        kind = analysis.case_spec(args.case).channel_kind
        default_lo, default_hi = _THRESHOLD_BRACKETS[kind]
        lo = args.lo if args.lo is not None else default_lo
        hi = args.hi if args.hi is not None else default_hi
        if not lo < hi:
            raise CliError(EXIT_USAGE, f"bracket [{lo}, {hi}] is empty or runs backwards")
        try:
            value = analysis.threshold(args.case, lo, hi)
        except analysis.NoSignChangeError as err:
            raise CliError(EXIT_NO_CROSSOVER, str(err)) from None
    _print_json({"case": args.case, "threshold": _round12(value)})
    return EXIT_OK


def _cmd_validate_channel(args, parser) -> int:
    with _domain():
        s = single_channel(args.channel, args.noise, args.a1, args.a2)
    label = f"SE(t={args.noise:g})" if args.channel == "se" else f"GP(p={args.noise:g})"
    deviations = [("single-qutrit", trace_preservation_deviation(s)),
                  ("choi", complete_positivity_deviation(s))]
    for scope, dev in deviations:
        status = "pass" if dev <= STRUCTURAL_TOL else "fail"
        print(f"{scope} {label}: max_deviation={dev:.3e} {status}")
    return EXIT_OK if all(dev <= STRUCTURAL_TOL for _, dev in deviations) else EXIT_FAIL


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    # no defaults here, so that a flag given next to --case shows; see _apply_case
    sub.add_argument("--case", type=int, help="named case 1..7 (excludes the explicit flags)")
    sub.add_argument("--state", help="psi1, psi2, or a JSON state file")
    sub.add_argument("--alice", help="id (default), h, or a JSON strategy file")
    sub.add_argument("--bob", help="id (default), m1, m2, or a JSON strategy file")
    sub.add_argument("--channel", choices=("none", "se", "gp"), help="default none")
    sub.add_argument("--a1", type=float, help="Einstein coefficient A1 (se only, default 1)")
    sub.add_argument("--a2", type=float, help="Einstein coefficient A2 (se only, default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmontyhall",
        description="Noisy quantum Monty Hall game: payoffs, sweeps, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_payoff = sub.add_parser("payoff", help="evaluate one game, JSON to stdout")
    _add_config_flags(p_payoff)
    p_payoff.add_argument("--noise", type=float, default=None,
                          help="time t (se) or error probability p (gp)")
    p_payoff.add_argument("--gamma", type=_parse_gamma, default=0.0,
                          help="switch/stay mixing angle in radians (or pi/2)")
    p_payoff.set_defaults(handler=_cmd_payoff)

    p_sweep = sub.add_parser("sweep", help="payoff over a (noise, gamma) grid, CSV")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--noise-range", type=_parse_range, required=True,
                         metavar="LO:HI:STEP")
    p_sweep.add_argument("--gamma-range", type=_parse_range, required=True,
                         metavar="LO:HI:STEP")
    p_sweep.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="simulation vs closed forms per case")
    p_verify.add_argument("--case", default="all", help="1..7 or 'all'")
    p_verify.add_argument("--noise-range", type=_parse_range, default=None,
                          metavar="LO:HI:STEP")
    p_verify.add_argument("--gamma-range", type=_parse_range, default=None,
                          metavar="LO:HI:STEP")
    p_verify.set_defaults(handler=_cmd_verify)

    p_threshold = sub.add_parser("threshold",
                                 help="noise value where the optimal move flips")
    p_threshold.add_argument("--case", type=int, required=True)
    p_threshold.add_argument("--lo", type=float, default=None)
    p_threshold.add_argument("--hi", type=float, default=None)
    p_threshold.set_defaults(handler=_cmd_threshold)

    p_validate = sub.add_parser("validate-channel",
                                help="trace preservation and complete positivity "
                                     "of a noise channel")
    p_validate.add_argument("--channel", choices=("se", "gp"), required=True)
    p_validate.add_argument("--noise", type=float, required=True)
    p_validate.add_argument("--a1", type=float, default=1.0)
    p_validate.add_argument("--a2", type=float, default=1.0)
    p_validate.set_defaults(handler=_cmd_validate_channel)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args, parser)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except SystemExit as exc:  # from argparse, also via parser.error in a handler
        return int(exc.code) if exc.code is not None else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
