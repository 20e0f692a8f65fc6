"""Command-line interface: exact and heuristic sweeps over confidence levels.

Exit codes: 0 success, 2 validation failure, 3 budget-infeasible instance
(decided once, on loading), 4 threshold infeasible under --enforce-threshold.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import ica
from .errors import BudgetInfeasibleError, ValidationError
from .io import bundled_instance, bundled_names, load_instance
from .model import ConfidenceLevels, PortfolioInstance, reformulate
from .oracle import solve_exact
from .report import Sweep, render_csv, render_json, render_table

__all__ = ["main", "BENCHMARK_LEVELS", "PUBLISHED_RESULTS"]

# objective values published for the bundled five-asset benchmark,
# per coupled lambda = eta level
PUBLISHED_RESULTS = {0.1: 422.54, 0.4: 289.3, 0.7: 187.48, 0.9: 95.56}

BENCHMARK_LEVELS = tuple(PUBLISHED_RESULTS)

DEFAULT_INSTANCE = "paper_table1"

# longest seed list --seeds accepts; checked before the list is built
MAX_SEEDS = 10_000

# the solve flag of each IcaConfig field but enforce_threshold; build_parser takes each
# flag's type and default from the field, so a new field needs only its line here
_FLAGS = {
    "n_countries": "--countries",
    "n_imperialists": "--imperialists",
    "revolution_rate": "--revolution",
    "max_iterations": "--iters",
    "epsilon": "--epsilon",
    "eq_factor": "--eq-factor",
}


def _parse_seeds(text: str) -> list[int]:
    seeds = []
    for token in text.split(","):
        token = token.strip()
        # a single seed a is the range a..a
        lo, dots, hi = token.partition("..")
        try:
            a = int(lo)
            b = int(hi) if dots else a
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad seed range {token!r}" if dots else f"bad seed {token!r}")
        if b < a:
            raise argparse.ArgumentTypeError(f"empty seed range {token!r}")
        if a < 0:
            raise argparse.ArgumentTypeError(f"negative seed in {token!r}")
        if len(seeds) + (b - a + 1) > MAX_SEEDS:
            raise argparse.ArgumentTypeError(f"seed list {text!r} is longer than {MAX_SEEDS} seeds")
        seeds.extend(range(a, b + 1))
    return seeds


def _parse_levels(text: str) -> list[float]:
    tokens = [tok for tok in text.split(",") if tok.strip()]
    try:
        levels = list(map(float, tokens))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad level list {text!r}")
    if not all(map(math.isfinite, levels)):
        # NaN sorts by its address in _levels' set, so the level an error names would vary
        token = next(tok for tok, level in zip(tokens, levels) if not math.isfinite(level))
        raise argparse.ArgumentTypeError(f"level {token.strip()!r} is not finite")
    return levels


class _Parser(argparse.ArgumentParser):
    """Reports a value argparse rejects as one ``error: <flag>: ...`` line,
    like every other validation failure, instead of the usage block."""

    def error(self, message: str):
        self.exit(2, f"error: {message.removeprefix('argument ')}\n")


def build_parser() -> argparse.ArgumentParser:
    ica_defaults = ica.IcaConfig()
    # subparsers are built with the parser's own class
    parser = _Parser(
        prog="fuzzfolio",
        description="Portfolio selection under fuzzy random returns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance over one or more confidence levels")
    solve.add_argument("--instance", default=DEFAULT_INSTANCE,
                       help="instance file path or bundled name (default: %(default)s)")
    solve.add_argument("--levels", action="append", type=_parse_levels, metavar="L[,L...]",
                       help="coupled lambda=eta levels; repeatable")
    solve.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="probability level (use with --eta for a decoupled pair)")
    solve.add_argument("--eta", type=float, default=None, help="necessity level")
    solve.add_argument("--solver", choices=("exact", "ica"), default="exact")
    solve.add_argument("--seeds", type=_parse_seeds, default=[0], metavar="RANGE",
                       help="ICA seeds, e.g. 7 or 1..20 or 1,5,9 (default: 0)")
    for field, flag in _FLAGS.items():
        default = getattr(ica_defaults, field)
        solve.add_argument(flag, dest=field, type=type(default), default=default,
                           help=f"IcaConfig.{field} (default: %(default)s)")
    solve.add_argument("--enforce-threshold", dest="enforce_threshold", action="store_true",
                       help="penalize the return floor inside ICA and fail (exit 4) if it is unsatisfiable")
    _output_flags(solve)

    rep = sub.add_parser(
        "reproduce-paper",
        help="re-run the bundled benchmark at the published parameter set and compare",
    )
    rep.add_argument("--seeds", type=_parse_seeds, default=list(range(1, 21)), metavar="RANGE",
                     help="ICA seeds (default: 1..20)")
    _output_flags(rep)
    return parser


def _output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=Path, default=None, help="write the report here instead of stdout")
    p.add_argument("--format", choices=("csv", "json", "table"), default="table")


def _resolve_instance(name_or_path: str) -> tuple[PortfolioInstance, str]:
    if Path(name_or_path).exists():
        return load_instance(name_or_path), name_or_path
    if name_or_path in bundled_names():
        return bundled_instance(name_or_path), f"bundled:{name_or_path}"
    raise ValidationError(
        f"{name_or_path!r} is neither a file nor a bundled instance (bundled: {bundled_names()})"
    )


def _levels(args) -> list[ConfidenceLevels]:
    if args.lam is not None or args.eta is not None:  # one decoupled pair
        if args.levels:
            raise ValidationError("--lambda/--eta cannot be combined with --levels")
        if args.lam is None or args.eta is None:
            raise ValidationError("--lambda and --eta must be given together")
        pairs = [(args.lam, args.eta)]
        flags = {"lam": "--lambda", "eta": "--eta"}
    else:
        if args.levels:
            flat = [v for chunk in args.levels for v in chunk]
            if not flat:
                raise ValidationError("--levels: no level given")
        else:
            flat = list(BENCHMARK_LEVELS)
        pairs = [(v, v) for v in sorted(set(flat))]
        flags = {"lam": "--levels", "eta": "--levels"}
    try:
        return [ConfidenceLevels(lam, eta) for lam, eta in pairs]
    except ValidationError as exc:
        raise ValidationError(f"{flags[exc.field]}: {exc}") from None


def _emit(sweep, args, meta) -> None:
    if args.format == "csv":
        text = render_csv(sweep)
    elif args.format == "json":
        text = render_json(sweep, meta)
    else:
        text = render_table(sweep)
    try:
        if args.out is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            args.out.write_text(text)
    except OSError as exc:
        if args.out is None:
            # a failed write leaves its bytes buffered, and the interpreter flushes stdout again at exit
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        where = "stdout: cannot write the report" if args.out is None else f"--out: cannot write {args.out}"
        raise ValidationError(f"{where}: {exc.strerror}") from None


def _config(args) -> ica.IcaConfig:
    try:
        return ica.IcaConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(ica.IcaConfig)})
    except ValidationError as exc:
        raise ValidationError(f"{_FLAGS.get(exc.field, exc.field)}: {exc}") from None


def _checked(instance, levels, n_rows, config):
    """The level-batched LP and its exact optimum.  The first level, in the
    given order, to fail a check raises, as if each level were checked alone
    in turn: its coefficients, threshold and optimal objective, then ica.refuse
    for the sweep's n_rows rows; so no search runs before a failing level is found.
    A failure re-checks the first half of the levels, then the second: about 2 log2(L) checks."""
    try:
        lp = reformulate(instance, levels)
        exact = solve_exact(lp)
        if n_rows:
            ica.refuse(lp, config, n_rows)
    except ValidationError:
        # a level fails in a batch exactly when it fails alone, so the first failing half holds the first failing level
        half = len(levels) // 2
        if half:
            _checked(instance, levels[:half], n_rows, config)
            _checked(instance, levels[half:], n_rows, config)
        raise
    return lp, exact


def _sweep(instance, levels, exact_rows, seeds, config, published=None):
    """The sweep's grid: at every level, in the given ascending order, the
    exact row (when exact_rows), then one ICA row per seed in ascending
    order; and whether the exact optimum clears the return floor at every
    level.  Every level is checked (see _checked) before the one ICA run starts.

    published maps a coupled level to its published objective.
    """
    lp, exact = _checked(instance, levels, len(levels) * len(seeds), config)
    seeds = sorted(seeds)
    reports = ica.run(lp, config, seeds) if seeds else []
    ica_x = np.array([r.best_position for r in reports]).reshape(len(reports), lp.n)
    sweep = Sweep(lam=[level.lam for level in levels], eta=[level.eta for level in levels],
                  threshold=lp.threshold.tolist(), oracle=exact.objective.tolist(),
                  exact_x=exact.x if exact_rows else None,
                  exact_budget=(exact.x.sum(axis=1) - lp.total_fund).tolist(),
                  published=None if published is None else [published[level.lam] for level in levels],
                  seeds=seeds, ica_objective=[r.best_objective for r in reports], ica_x=ica_x,
                  ica_budget=(ica_x.sum(axis=1) - lp.total_fund).tolist())
    return sweep, bool((exact.objective >= lp.threshold).all())


def _cmd_solve(args) -> int:
    config = _config(args)
    instance, source = _resolve_instance(args.instance)
    exact_rows = args.solver == "exact"
    sweep, all_satisfied = _sweep(instance, _levels(args), exact_rows, [] if exact_rows else args.seeds, config)
    _emit(sweep, args, {"instance": source, "solver": args.solver})
    if args.enforce_threshold and not all_satisfied:
        print("error: return threshold unsatisfiable at one or more levels", file=sys.stderr)
        return 4
    return 0


def _cmd_reproduce(args) -> int:
    # the published parameter set is the default config
    sweep, _ = _sweep(bundled_instance(DEFAULT_INSTANCE), [ConfidenceLevels(v, v) for v in BENCHMARK_LEVELS],
                     True, args.seeds, ica.IcaConfig(), PUBLISHED_RESULTS)
    _emit(sweep, args, {"instance": f"bundled:{DEFAULT_INSTANCE}", "solver": "exact+ica"})
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _cmd_solve(args) if args.command == "solve" else _cmd_reproduce(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BudgetInfeasibleError) else 2


if __name__ == "__main__":
    sys.exit(main())
