"""Command-line interface: exact and heuristic sweeps over confidence levels.

Exit codes: 0 success, 2 validation failure, 3 budget-infeasible instance
(decided once, on loading), 4 threshold infeasible under --enforce-threshold.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import ica
from .errors import BudgetInfeasibleError, ValidationError
from .io import bundled_instance, bundled_names, load_instance
from .model import ConfidenceLevels, PortfolioInstance, reformulate
from .oracle import solve_exact
from .report import SweepRow, render_csv, render_json, render_table

__all__ = ["main", "BENCHMARK_LEVELS", "PUBLISHED_RESULTS"]

# objective values published for the bundled five-asset benchmark,
# per coupled lambda = eta level
PUBLISHED_RESULTS = {0.1: 422.54, 0.4: 289.3, 0.7: 187.48, 0.9: 95.56}

BENCHMARK_LEVELS = tuple(PUBLISHED_RESULTS)

DEFAULT_INSTANCE = "paper_table1"

# longest seed list --seeds accepts; checked before the list is built
MAX_SEEDS = 10_000

# IcaConfig fields set by a solve flag
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
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad level list {text!r}")


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
    solve.add_argument("--iters", type=int, default=ica_defaults.max_iterations,
                       help="ICA iterations (default: %(default)s)")
    solve.add_argument("--countries", type=int, default=ica_defaults.n_countries)
    solve.add_argument("--imperialists", type=int, default=ica_defaults.n_imperialists)
    solve.add_argument("--revolution", type=float, default=ica_defaults.revolution_rate)
    solve.add_argument("--epsilon", type=float, default=ica_defaults.epsilon)
    solve.add_argument("--eq-factor", type=float, default=ica_defaults.eq_factor,
                       help="budget penalty factor for ICA (default: %(default)s)")
    solve.add_argument("--enforce-threshold", action="store_true",
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
    decoupled = args.lam is not None or args.eta is not None
    if decoupled:
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


def _row(level, threshold, oracle, solver, seed, allocation, budget_residual, objective, published=None) -> SweepRow:
    """One report row for the allocation tuple at level, whose return floor is
    threshold; oracle is the exact optimum there and published, if given,
    the published objective.  The row alone decides whether it clears the floor."""
    ok = objective >= threshold
    # positional, in SweepRow's field order: its keyword path costs about 2 µs a row
    return SweepRow(level.lam, level.eta, solver, seed,
                    "heuristic" if solver == "ica" else "optimal" if ok else "threshold_infeasible",
                    objective, oracle,
                    # rel_gap: exactly 0.0 for the exact row, whose objective is the finite oracle
                    (oracle - objective) / abs(oracle) if oracle != 0.0 else 0.0,
                    threshold, ok, budget_residual,
                    published, None if published is None else (objective - published) / published,
                    allocation)


def _emit(rows, args, meta) -> None:
    if args.format == "csv":
        text = render_csv(rows)
    elif args.format == "json":
        text = render_json(rows, meta)
    else:
        text = render_table(rows)
    if args.out is not None:
        try:
            args.out.write_text(text)
        except OSError as exc:
            raise ValidationError(f"--out: cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _config(args) -> ica.IcaConfig:
    try:
        return ica.IcaConfig(
            n_countries=args.countries,
            n_imperialists=args.imperialists,
            revolution_rate=args.revolution,
            max_iterations=args.iters,
            epsilon=args.epsilon,
            eq_factor=args.eq_factor,
            enforce_threshold=args.enforce_threshold,
        )
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
    """The exact row (when exact_rows), then one ICA row per seed in
    ascending order, at every level in the given ascending order, and
    whether the exact optimum clears the return floor at every level.
    Every level is checked (see _checked) before the one ICA run starts.

    published maps a coupled level to its published objective.
    """
    lp, exact = _checked(instance, levels, len(levels) * len(seeds), config)
    rows: list[SweepRow] = []
    seeds = sorted(seeds)
    reports = ica.run(lp, config, seeds) if seeds else []
    thresholds, optima = lp.threshold.tolist(), exact.objective.tolist()
    budget = (exact.x.sum(axis=1) - lp.total_fund).tolist()
    # a row whose bits (the sign of zero included) equal the previous row's shares its tuple
    repeats = [False, *(exact.x[1:].view("i8") == exact.x[:-1].view("i8")).all(axis=1).tolist()]
    for i, level in enumerate(levels):
        if exact_rows:
            allocation = allocation if repeats[i] else tuple(exact.x[i].tolist())
            pub = None if published is None else published[level.lam]
            rows.append(_row(level, thresholds[i], optima[i], "exact", None, allocation, budget[i], optima[i], pub))
        for report in reports[i * len(seeds):(i + 1) * len(seeds)]:
            x = report.best_position
            rows.append(_row(level, thresholds[i], optima[i], "ica", report.seed, tuple(x.tolist()),
                             float(x.sum() - lp.total_fund), report.best_objective))
    return rows, bool((exact.objective >= lp.threshold).all())


def _cmd_solve(args) -> int:
    config = _config(args)
    instance, source = _resolve_instance(args.instance)
    exact_rows = args.solver == "exact"
    rows, all_satisfied = _sweep(instance, _levels(args), exact_rows, [] if exact_rows else args.seeds, config)
    _emit(rows, args, {"instance": source, "solver": args.solver})
    if args.enforce_threshold and not all_satisfied:
        print("error: return threshold unsatisfiable at one or more levels", file=sys.stderr)
        return 4
    return 0


def _cmd_reproduce(args) -> int:
    # the published parameter set is the default config
    rows, _ = _sweep(bundled_instance(DEFAULT_INSTANCE), [ConfidenceLevels(v, v) for v in BENCHMARK_LEVELS],
                     True, args.seeds, ica.IcaConfig(), PUBLISHED_RESULTS)
    _emit(rows, args, {"instance": f"bundled:{DEFAULT_INSTANCE}", "solver": "exact+ica"})
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_reproduce(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BudgetInfeasibleError) else 2


if __name__ == "__main__":
    sys.exit(main())
