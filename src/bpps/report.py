"""Solution-feature metrics, gap computation, and CSV aggregation."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .bounds import bounds_report, format_fraction
from .cha import BPP_HEURISTIC, k_upper
from .core import (
    Instance,
    InfeasibleSolutionError,
    Solution,
    ValidationReport,
    active_classes,
    bin_load,
    check_feasible,
    solution_cost,
)
from .files import FileFormatError, read_instance, read_solution


@dataclass(frozen=True)
class FeatureReport:
    """Shape of one solution: bin usage and how full the bins are.

    Fill percent averages ``100 * load / capacity`` over the used bins,
    where the load counts item weights plus the setup weights of the
    classes active in the bin.
    """

    bins_used: int
    items_per_bin: Fraction
    classes_per_bin: Fraction
    fill_percent: Fraction


@dataclass(frozen=True)
class GapRecord:
    """A named upper/lower bound pair and its percentage gap."""

    instance: str
    upper: Fraction
    lower: Fraction
    gap_percent: Fraction


def feature_report(
    inst: Instance, sol: Solution, report: ValidationReport | None = None
) -> FeatureReport:
    """Features of a feasible solution; raises if it is not feasible.

    ``report`` is the caller's ``check_feasible(inst, sol)``, if it has
    one; the solution is then not checked again.
    """
    if report is None:
        report = check_feasible(inst, sol)
    if not report.ok:
        raise InfeasibleSolutionError(report)
    used = sol.bin_count
    items = sum(len(b) for b in sol.bins)
    classes = sum(len(active_classes(inst, b)) for b in sol.bins)
    fill = sum(
        Fraction(100 * bin_load(inst, b), inst.capacity) for b in sol.bins
    )
    return FeatureReport(
        bins_used=used,
        items_per_bin=Fraction(items, used),
        classes_per_bin=Fraction(classes, used),
        fill_percent=fill / used,
    )


def gap(upper: Fraction | int, lower: Fraction | int) -> Fraction:
    """Percentage gap of ``lower`` below ``upper``, relative to ``upper``."""
    upper = Fraction(upper)
    if upper <= 0:
        raise ValueError("gap needs a positive upper value")
    return 100 * (upper - Fraction(lower)) / upper


def gap_record(
    instance: str, upper: Fraction | int, lower: Fraction | int
) -> GapRecord:
    return GapRecord(instance, Fraction(upper), Fraction(lower), gap(upper, lower))


#: Fixed column set of the aggregation CSV.  Bound columns are exact
#: rationals rendered at full precision; solution columns are empty when
#: the directory holds no solution file for the instance.
REPORT_COLUMNS = (
    "instance",
    "n",
    "m",
    "d",
    "r",
    "k_lower",
    "k_upper",
    "zeta_n",
    "zeta_dag",
    "zeta_ddag",
    "psi",
    "bins",
    "items_per_bin",
    "classes_per_bin",
    "fill_percent",
    "gap_n",
    "gap_dag",
    "gap_ddag",
)


def report_row(
    name: str, inst: Instance, sol: Solution | None
) -> dict[str, str]:
    bounds = bounds_report(inst)
    kbar = k_upper(inst, BPP_HEURISTIC)
    row = {
        "instance": name,
        "n": str(inst.n),
        "m": str(inst.m),
        "d": str(inst.capacity),
        "r": str(inst.bin_cost),
        "k_lower": str(bounds.k_lower),
        "k_upper": str(kbar),
        "zeta_n": format_fraction(bounds.zeta_n),
        "zeta_dag": format_fraction(bounds.zeta_dag),
        "zeta_ddag": format_fraction(bounds.zeta_ddag),
        "psi": "",
        "bins": "",
        "items_per_bin": "",
        "classes_per_bin": "",
        "fill_percent": "",
        "gap_n": "",
        "gap_dag": "",
        "gap_ddag": "",
    }
    if sol is not None:
        feasible = check_feasible(inst, sol)
        psi = solution_cost(inst, sol, feasible).total
        features = feature_report(inst, sol, feasible)
        row.update(
            psi=str(psi),
            bins=str(features.bins_used),
            items_per_bin=format_fraction(features.items_per_bin),
            classes_per_bin=format_fraction(features.classes_per_bin),
            fill_percent=format_fraction(features.fill_percent),
            gap_n=format_fraction(gap(psi, bounds.zeta_n)),
            gap_dag=format_fraction(gap(psi, bounds.zeta_dag)),
            gap_ddag=format_fraction(gap(psi, bounds.zeta_ddag)),
        )
    return row


def collect_report(directory: str | Path) -> list[dict[str, str]]:
    """One row per instance file in the directory, in name order.

    A solution file ``<stem>.sol`` sitting next to an instance file fills
    the solution-dependent columns.
    """
    directory = Path(directory)
    rows = []
    for path in sorted(directory.glob("*.txt")):
        try:
            inst = read_instance(path)
        except FileFormatError:
            continue
        sol = None
        sol_path = path.with_suffix(".sol")
        if sol_path.exists():
            _, sol = read_solution(sol_path)
        rows.append(report_row(path.stem, inst, sol))
    return rows


def render_csv(rows: list[dict[str, str]], columns: tuple[str, ...]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(columns), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()
