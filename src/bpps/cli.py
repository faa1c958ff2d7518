"""Command-line surface.

Subcommands: ``gen``, ``bounds``, ``cha``, ``solve``, ``emit-model``,
``verify``, ``report``, ``worstcase``.  Exit codes: 0 ok, 1 usage,
2 I/O or malformed file, 3 infeasible/validation failure, 4 search limit
reached (``cha`` and ``solve`` still print a feasible answer).
"""

from __future__ import annotations

import argparse
import functools
import shutil
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import exact, gen, milp
from .bounds import bounds_report, zeta_lp_dag
from .cha import BPP_EXACT, BPP_MODES, STEP2_BLOCKS, cha
from .core import (
    BppsError,
    InfeasibleSolutionError,
    Instance,
    InvalidInstanceError,
    Solution,
    check_feasible,
    solution_cost,
)
from .bpp import DEFAULT_NODE_LIMIT, NodeLimitExceeded
from .bounds import format_decimal, format_fraction
from .files import (
    FileFormatError,
    check_solution_name,
    read_instance,
    read_solution,
    render_instance,
    write_ascii,
    write_instance,
    write_solution,
)
from .report import REPORT_COLUMNS, collect_report, feature_report, render_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_INFEASIBLE = 3
EXIT_LIMIT = 4

_VARIANT_FLAGS = {variant.lower(): variant for variant in milp.MODEL_VARIANTS}


class UsageError(BppsError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise UsageError(message)


def _rational(value: Fraction | int) -> str:
    return f"{format_fraction(value)} ({format_decimal(value)})"


def _write_or_print(text: str, out: str | None, what: str) -> None:
    """Write ``text`` to the ASCII file ``out`` and say so, or to stdout."""
    if out:
        write_ascii(text, out)
        print(f"wrote {what} to {out}")
    else:
        sys.stdout.write(text)


def _out_name(args: argparse.Namespace) -> str | None:
    """The solution name ``--out`` will carry, checked before any search."""
    return check_solution_name(Path(args.instance).stem) if args.out else None


def _write_out(args: argparse.Namespace, name: str | None, sol: Solution) -> None:
    """Write ``sol`` under the ``_out_name`` result to ``--out``, if given."""
    if args.out:
        write_solution(name, sol, args.out)
        print(f"wrote solution to {args.out}")


def _print_bins(sol: Solution) -> None:
    print("bins:")
    for b, items in enumerate(sol.bins, start=1):
        print(f"  {b}: " + " ".join(str(i) for i in sorted(items)))


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.benchmark:
        try:
            configs = list(gen.benchmark_configs(args.base_seed))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        names = [_write_benchmark_instance(cfg, out_dir) for cfg in configs]
        print(f"wrote {len(names)} instances to {out_dir}")
        return EXIT_OK
    try:
        cfg = gen.GeneratorConfig(
            n=args.n,
            m=args.m,
            d=args.d,
            cost_mode=gen.COST_WITH if args.cost_mode == "costs" else gen.COST_WITHOUT,
            item_size=args.item_size,
            setup_size=args.setup_size,
            seed=args.seed,
            free_form=args.free_form,
        )
        outcome = gen.generate_verbose(cfg)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    text = render_instance(outcome.instance, _gen_comments(cfg, outcome))
    _write_or_print(text, args.out, gen.instance_name(cfg))
    return EXIT_OK


def _gen_comments(cfg: gen.GeneratorConfig, outcome: gen.GenOutcome) -> list[str]:
    return [
        gen.instance_name(cfg),
        f"seed={cfg.seed} class-redraws={outcome.class_redraws}"
        f" trivial-redraws={outcome.trivial_redraws}",
    ]


def _write_benchmark_instance(cfg: gen.GeneratorConfig, out_dir: Path) -> str:
    outcome = gen.generate_verbose(cfg)
    name = gen.instance_name(cfg)
    write_instance(outcome.instance, out_dir / f"{name}.txt", _gen_comments(cfg, outcome))
    return name


def _cmd_bounds(args: argparse.Namespace) -> int:
    report = bounds_report(read_instance(args.instance))
    print("gamma = " + " ".join(str(g) for g in report.gamma))
    print(f"k_lower = {report.k_lower}")
    print(f"zeta_n = {_rational(report.zeta_n)}")
    print(f"zeta_dag = {_rational(report.zeta_dag)}")
    print(f"zeta_ddag = {_rational(report.zeta_ddag)}")
    return EXIT_OK


def _cmd_cha(args: argparse.Namespace) -> int:
    inst = read_instance(args.instance)
    name = _out_name(args)
    solution, trace = cha(inst, args.bpp_mode, node_limit=args.node_limit)
    print(f"termination = {trace.termination}")
    print("beta = " + " ".join(str(b) for b in trace.beta))
    singles = " ".join(str(c) for c in sorted(trace.single_bin_classes)) or "-"
    print(f"single_bin_classes = {singles}")
    print(f"delta = {trace.delta if trace.delta is not None else '-'}")
    print(f"merge_class = {trace.merge_class if trace.merge_class is not None else '-'}")
    print(f"psi_bar = {trace.psi_bar}")
    # k_upper sums the same per-class counts cha() has just solved.
    print(f"k_upper = {sum(trace.beta)}")
    doubled = 2 * zeta_lp_dag(inst)
    relation = ">" if doubled > trace.psi_bar else "<="
    if args.bpp_mode != BPP_EXACT:
        note = " (informational in heuristic mode)"
    elif trace.unproved:
        note = " (informational: not every count is proved)"
    else:
        note = ""
    print(
        f"guarantee: 2 * zeta_dag = {format_fraction(doubled)} "
        f"{relation} psi_bar = {trace.psi_bar}{note}"
    )
    _print_bins(solution)
    if trace.unproved:
        names = ("blocks" if c == STEP2_BLOCKS else str(c) for c in trace.unproved)
        print("unproved = " + " ".join(names))
    _write_out(args, name, solution)
    if trace.unproved:
        print("search limit reached; unproved counts are upper bounds", file=sys.stderr)
        return EXIT_LIMIT
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = read_instance(args.instance)
    name = _out_name(args)
    method = args.method
    if method == "auto":
        method = "brute" if inst.n <= exact.BRUTE_FORCE_MAX_ITEMS else "bnb"
    if method == "brute":
        try:
            result = exact.brute_force(inst)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    else:
        result = exact.branch_and_bound(
            inst, node_limit=args.node_limit, time_limit=args.time_limit
        )
    print(f"status = {result.status}")
    print(f"psi = {result.psi}")
    print(f"lower_bound = {result.lower_bound}")
    print(f"nodes = {result.nodes}")
    _print_bins(result.solution)
    _write_out(args, name, result.solution)
    if result.status == exact.STATUS_LIMIT:
        print("search limit reached; value is an upper bound", file=sys.stderr)
        return EXIT_LIMIT
    return EXIT_OK


def _cmd_emit_model(args: argparse.Namespace) -> int:
    inst = read_instance(args.instance)
    model = milp.build_model(
        inst,
        _VARIANT_FLAGS[args.variant],
        exact_bin_bound=args.exact_kbar,
        node_limit=args.node_limit,
    )
    milp.emit_lp_file(model, args.out)
    print(
        f"wrote variant {model.variant} (k={model.k}, "
        f"{model.variable_count} variables, {model.constraint_count} constraints) "
        f"to {args.out}"
    )
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    inst = read_instance(args.instance)
    name, solution = read_solution(args.solution)
    report = check_feasible(inst, solution)
    if not report.ok:
        for violation in report.violations:
            print(f"violation: {violation}")
        print(f"{name}: infeasible ({len(report.violations)} violations)", file=sys.stderr)
        return EXIT_INFEASIBLE
    cost = solution_cost(inst, solution, report)
    features = feature_report(inst, solution, report)
    print(f"{name}: feasible")
    print(f"psi = {cost.total} (bins {cost.bin_cost_total} + setups {cost.setup_cost_total})")
    print(f"bins = {features.bins_used}")
    print(f"items_per_bin = {_rational(features.items_per_bin)}")
    print(f"classes_per_bin = {_rational(features.classes_per_bin)}")
    print(f"fill_percent = {_rational(features.fill_percent)}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    rows = collect_report(args.dir)
    _write_or_print(render_csv(rows, REPORT_COLUMNS), args.out, f"{len(rows)} rows")
    return EXIT_OK


_WORSTCASE_COLUMNS = (
    "family",
    "n",
    "theta",
    "r",
    "f1",
    "psi",
    "zeta_n",
    "zeta_dag",
    "zeta_ddag",
    "ratio_n",
    "ratio_dag",
    "ratio_ddag",
)


def _worstcase_instance(args: argparse.Namespace, value: int) -> Instance:
    try:
        if args.family == gen.FAMILY_PROP2:
            return gen.worst_case(gen.FAMILY_PROP2, n=value, r=args.r, f1=args.f1)
        return gen.worst_case(gen.FAMILY_PROP5, n=args.n, theta=value, r=args.r, f1=args.f1)
    except (ValueError, InvalidInstanceError) as exc:
        raise UsageError(str(exc)) from exc


def _worstcase_rows(args: argparse.Namespace) -> list[dict[str, str]]:
    lo, hi = args.sweep
    # The values that build form one interval, so once both ends build,
    # every value between them does: a bad end is refused before the sweep.
    ends = {value: _worstcase_instance(args, value) for value in (lo, hi)}
    rows = []
    for value in range(lo, hi + 1):
        inst = ends.pop(value) if value in ends else _worstcase_instance(args, value)
        n, theta = inst.n, ("" if args.family == gen.FAMILY_PROP2 else value)
        psi = n * (args.r + args.f1)
        report = bounds_report(inst)
        zetas = (report.zeta_n, report.zeta_dag, report.zeta_ddag)
        values = [str(v) for v in (args.family, n, theta, args.r, args.f1, psi)]
        values += [format_fraction(v) for v in (*zetas, *(zeta / psi for zeta in zetas))]
        rows.append(dict(zip(_WORSTCASE_COLUMNS, values)))
    return rows


def _cmd_worstcase(args: argparse.Namespace) -> int:
    rows = _worstcase_rows(args)
    _write_or_print(render_csv(rows, _WORSTCASE_COLUMNS), args.out, f"{len(rows)} rows")
    return EXIT_OK


def _range_pair(text: str) -> tuple[int, int]:
    try:
        lo_text, hi_text = text.split(":", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected LO:HI") from exc
    if lo > hi:
        raise argparse.ArgumentTypeError("expected LO <= HI")
    return lo, hi


def _at_least_zero(cast: Callable[[str], float], what: str) -> Callable[[str], float]:
    """An argparse ``type`` that reads ``cast(text)`` and requires it >= 0."""

    def parse(text: str) -> float:
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not value >= 0:  # NaN fails >= 0 too
            raise argparse.ArgumentTypeError(f"expected {what} >= 0, got {text!r}")
        return value

    return parse


def _add_node_limit(p: argparse.ArgumentParser, help_text: str) -> None:
    p.add_argument(
        "--node-limit",
        type=_at_least_zero(int, "an integer"),
        default=DEFAULT_NODE_LIMIT,
        help=help_text,
    )


def build_parser() -> argparse.ArgumentParser:
    # argparse builds a HelpFormatter for every add_argument, and each one
    # asks the terminal for its width; read it once and hand it to them all.
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
    parser = _Parser(prog="bpps", description=__doc__, formatter_class=formatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help_text, formatter_class=formatter)

    p = add("gen", "generate instances")
    p.add_argument("--benchmark", action="store_true", help="emit the full 480-instance grid")
    p.add_argument("--out-dir", default="instances", help="directory for --benchmark")
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--n", type=int, default=25)
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--d", type=int, default=200)
    p.add_argument("--cost-mode", choices=("costs", "nocosts"), default="costs")
    p.add_argument("--item-size", choices=("small", "large"), default="small")
    p.add_argument("--setup-size", choices=("small", "large"), default="small")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--free-form", action="store_true", help="allow off-grid n/m/d")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_gen)

    p = add("bounds", "print closed-form bounds")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_bounds)

    p = add("cha", "run the constructive heuristic")
    p.add_argument("--instance", required=True)
    p.add_argument("--bpp-mode", choices=BPP_MODES, default=BPP_EXACT)
    _add_node_limit(
        p, "nodes each per-class search may take in exact mode (heuristic mode ignores it)"
    )
    p.add_argument("--out", help="write the solution file here")
    p.set_defaults(func=_cmd_cha)

    p = add("solve", "solve exactly")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", choices=("auto", "brute", "bnb"), default="auto")
    _add_node_limit(p, "nodes branch-and-bound may take (brute force ignores it)")
    p.add_argument(
        "--time-limit", type=_at_least_zero(float, "seconds"), default=exact.DEFAULT_TIME_LIMIT
    )
    p.add_argument("--out", help="write the solution file here")
    p.set_defaults(func=_cmd_solve)

    p = add("emit-model", "write an LP-format model file")
    p.add_argument("--instance", required=True)
    p.add_argument("--variant", choices=tuple(_VARIANT_FLAGS), required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--exact-kbar",
        action="store_true",
        help="size the star variant with exact per-class packing",
    )
    _add_node_limit(
        p, "nodes each per-class search may take with --exact-kbar (ignored otherwise)"
    )
    p.set_defaults(func=_cmd_emit_model)

    p = add("verify", "check a solution file against an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--solution", required=True)
    p.set_defaults(func=_cmd_verify)

    p = add("report", "aggregate a directory into CSV")
    p.add_argument("--dir", required=True)
    p.add_argument("--out", help="CSV file (default: stdout)")
    p.set_defaults(func=_cmd_report)

    p = add("worstcase", "emit an adversarial family sweep as CSV")
    p.add_argument("--family", choices=gen.WORST_CASE_FAMILIES, required=True)
    p.add_argument(
        "--sweep",
        type=_range_pair,
        required=True,
        help="LO:HI for n (prop2) or theta (prop5)",
    )
    p.add_argument("--n", type=int, default=10, help="item count for prop5")
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--f1", type=int, default=0)
    p.add_argument("--out", help="CSV file (default: stdout)")
    p.set_defaults(func=_cmd_worstcase)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileFormatError, OSError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (InvalidInstanceError, InfeasibleSolutionError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NodeLimitExceeded as exc:
        print(f"limit reached: {exc}", file=sys.stderr)
        return EXIT_LIMIT


if __name__ == "__main__":
    sys.exit(main())
