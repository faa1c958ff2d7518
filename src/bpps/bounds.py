"""Closed-form relaxation bounds and the fractional solutions attaining them.

Three lower bounds on the optimal cost are available in closed form, each
the exact optimum of a linear relaxation of the bin-oriented model:

* ``zeta_lp_n`` spreads all item and setup weight uniformly over the bins:
  ``(r/d) * (sum w + sum s) + sum f``.
* ``zeta_lp_dag`` additionally counts every class ``c`` at least ``gamma_c``
  times, where ``gamma_c`` is the volume bound on the number of bins class
  ``c`` must activate: ``(r/d) * (sum w + sum gamma_c s_c) + sum gamma_c f_c``.
* ``zeta_lp_ddag`` further rounds the implied bin usage up to the integer
  ``k_lower``: ``r * k_lower + sum gamma_c f_c``.

All values are exact ``Fraction`` objects; rendering to decimals happens
only at reporting boundaries.  The chain ``zeta_lp_n <= zeta_lp_dag <=
zeta_lp_ddag <= optimum`` holds on every valid instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Instance,
    ValidationReport,
    Violation,
)

#: Relaxation variants: the plain model, the model with per-class
#: minimum-activation rows, and the model with those rows plus the
#: minimum-bins row.
VARIANT_N = "N"
VARIANT_DAG = "DAG"
VARIANT_DDAG = "DDAG"
FRACTIONAL_VARIANTS = (VARIANT_N, VARIANT_DAG, VARIANT_DDAG)

#: Row families of the models (``milp``); ``verify_fractional`` reports a
#: violated row by its family, and a violated variable bound as ROW_BOUND.
FAMILY_ASSIGNMENT = "assignment"
FAMILY_CAPACITY = "capacity"
FAMILY_LINKING = "linking"
FAMILY_MCI = "mci"
FAMILY_MBI = "mbi"
ROW_BOUND = "variable-bound"


def gamma(inst: Instance) -> tuple[int, ...]:
    """Per-class lower bound on the bins each class must be active in.

    ``gamma_c = ceil(class weight / (d - s_c))``: the items of class ``c``
    can only live in bins whose residual capacity, after the class setup
    weight, is ``d - s_c``.  Computed in one pass over the items.
    """
    d = inst.capacity
    out = []
    for c in inst.classes:
        residual = d - inst.setup_weights[c - 1]
        if residual <= 0:
            # w_i >= 1 and w_i + s_c <= d force s_c <= d - 1 on valid data.
            raise ValueError(f"class {c} setup weight >= capacity")
        out.append(ceil_div(inst.class_weight(c), residual))
    return tuple(out)


def zeta_lp_n(inst: Instance) -> Fraction:
    """Bound from spreading items and setups evenly over the bins."""
    spread = Fraction(inst.bin_cost, inst.capacity) * (
        inst.total_weight + inst.total_setup_weight
    )
    return spread + sum(inst.setup_costs)


def zeta_lp_dag(inst: Instance) -> Fraction:
    """Bound counting each class ``gamma_c`` times."""
    return bounds_report(inst).zeta_dag


def k_lower(inst: Instance) -> int:
    """Lower bound on the bins used by any feasible solution.

    Ceiling of (total item weight plus each setup weight counted
    ``gamma_c`` times) over the capacity.  Always at least ``max gamma_c``.
    """
    return bounds_report(inst).k_lower


def zeta_lp_ddag(inst: Instance) -> Fraction:
    """Strongest closed-form bound: integer bin usage, weighted setups."""
    return bounds_report(inst).zeta_ddag


@dataclass(frozen=True)
class BoundsReport:
    """All closed-form bound data for one instance."""

    gamma: tuple[int, ...]
    k_lower: int
    zeta_n: Fraction
    zeta_dag: Fraction
    zeta_ddag: Fraction


def _weighted(g: tuple[int, ...], values: tuple[int, ...]) -> int:
    """Sum of ``values`` with class ``c`` counted ``gamma_c`` times."""
    return sum(gc * v for gc, v in zip(g, values))


def bounds_report(inst: Instance) -> BoundsReport:
    """Every closed-form bound, from one ``gamma`` and one pass per weighting."""
    g = gamma(inst)
    load = inst.total_weight + _weighted(g, inst.setup_weights)
    setup_cost = _weighted(g, inst.setup_costs)
    kl = ceil_div(load, inst.capacity)
    return BoundsReport(
        gamma=g,
        k_lower=kl,
        zeta_n=zeta_lp_n(inst),
        zeta_dag=Fraction(inst.bin_cost, inst.capacity) * load + setup_cost,
        zeta_ddag=Fraction(inst.bin_cost * kl) + setup_cost,
    )


@dataclass(frozen=True)
class FractionalSolution:
    """Optimal fractional point of one relaxation variant.

    The point is uniform across bins (every item value equals ``x_value``,
    every class-``c`` value equals ``y_values[c-1]``, every bin-use value
    equals ``z_value``), which is how the optimum is attained.  Per-index
    accessors expose the full ``(n + m + 1) * k`` coordinates so each
    constraint row can be checked individually.
    """

    variant: str
    k: int
    n: int
    m: int
    x_value: Fraction
    y_values: tuple[Fraction, ...]
    z_value: Fraction
    objective: Fraction

    def x(self, item: int, b: int) -> Fraction:
        self._check_index(item, self.n, "item")
        self._check_index(b, self.k, "bin")
        return self.x_value

    def y(self, c: int, b: int) -> Fraction:
        self._check_index(c, self.m, "class")
        self._check_index(b, self.k, "bin")
        return self.y_values[c - 1]

    def z(self, b: int) -> Fraction:
        self._check_index(b, self.k, "bin")
        return self.z_value

    @staticmethod
    def _check_index(value: int, upper: int, label: str) -> None:
        if not 1 <= value <= upper:
            raise IndexError(f"{label} index {value} outside 1..{upper}")


def fractional_solution(
    inst: Instance, variant: str, k: int
) -> FractionalSolution:
    """Build the optimal fractional point of the given variant on k bins.

    Requires ``k >= k_lower(inst)``, which guarantees every coordinate
    lies in ``[0, 1]`` (``k_lower`` dominates every ``gamma_c``).
    """
    if variant not in FRACTIONAL_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    report = bounds_report(inst)
    g, kl = report.gamma, report.k_lower
    if k < kl:
        raise ValueError(f"k = {k} below the minimum bin count {kl}")
    d = inst.capacity
    x = Fraction(1, k)
    if variant == VARIANT_N:
        y = tuple(Fraction(1, k) for _ in inst.classes)
        z = Fraction(inst.total_weight + inst.total_setup_weight, k * d)
        objective = report.zeta_n
    else:
        y = tuple(Fraction(gc, k) for gc in g)
        if variant == VARIANT_DAG:
            z = Fraction(inst.total_weight + _weighted(g, inst.setup_weights), k * d)
            objective = report.zeta_dag
        else:
            z = Fraction(kl, k)
            objective = report.zeta_ddag
    return FractionalSolution(
        variant=variant,
        k=k,
        n=inst.n,
        m=inst.m,
        x_value=x,
        y_values=y,
        z_value=z,
        objective=objective,
    )


def verify_fractional(inst: Instance, fs: FractionalSolution) -> ValidationReport:
    """Check every constraint row of the variant's relaxation exactly.

    Assignment rows (one per item), capacity rows (one per bin), linking
    rows (one per item/bin pair), variable bounds, and the per-variant
    minimum-classes / minimum-bins rows are all evaluated in exact
    rational arithmetic.  Rows sharing identical operands are evaluated
    once and reported per index.
    """
    v: list[Violation] = []
    k, d = fs.k, inst.capacity
    one = Fraction(1)

    def in_unit(value: Fraction) -> bool:
        return 0 <= value <= one

    if not in_unit(fs.x_value):
        for i in inst.items:
            v.append(Violation(ROW_BOUND, ("x", i), fs.x_value, "[0, 1]"))
    for c in inst.classes:
        if not in_unit(fs.y_values[c - 1]):
            v.append(Violation(ROW_BOUND, ("y", c), fs.y_values[c - 1], "[0, 1]"))
    if not in_unit(fs.z_value):
        for b in range(1, k + 1):
            v.append(Violation(ROW_BOUND, ("z", b), fs.z_value, "[0, 1]"))

    # Assignment: sum over bins of x(i, b) == 1.  The point is uniform, so
    # the row sum is k * x_value for every item.
    row_sum = k * fs.x_value
    if row_sum != 1:
        for i in inst.items:
            v.append(Violation(FAMILY_ASSIGNMENT, i, row_sum, 1))

    # Capacity: sum_i w_i x(i, b) + sum_c s_c y(c, b) <= d z(b), per bin.
    lhs = inst.total_weight * fs.x_value + sum(
        s * yc for s, yc in zip(inst.setup_weights, fs.y_values)
    )
    rhs = d * fs.z_value
    if lhs > rhs:
        for b in range(1, k + 1):
            v.append(Violation(FAMILY_CAPACITY, b, lhs, rhs))

    # Linking: x(i, b) <= y(class(i), b), per item/bin pair.
    link_ok = [fs.x_value <= fs.y_values[c - 1] for c in inst.classes]
    for i in inst.items:
        if not link_ok[inst.item_class(i) - 1]:
            for b in range(1, k + 1):
                v.append(
                    Violation(
                        FAMILY_LINKING,
                        (i, b),
                        fs.x_value,
                        fs.y_values[inst.item_class(i) - 1],
                    )
                )

    if fs.variant in (VARIANT_DAG, VARIANT_DDAG):
        report = bounds_report(inst)
        for c in inst.classes:
            total = k * fs.y_values[c - 1]
            if total < report.gamma[c - 1]:
                v.append(Violation(FAMILY_MCI, c, total, report.gamma[c - 1]))
        if fs.variant == VARIANT_DDAG:
            total = k * fs.z_value
            if total < report.k_lower:
                v.append(Violation(FAMILY_MBI, None, total, report.k_lower))
    return ValidationReport(tuple(v))


def format_fraction(value: Fraction | int) -> str:
    """Full-precision text form: ``35`` or ``127/3``."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def format_decimal(value: Fraction | int, places: int = 2) -> str:
    """Exact half-even rounding to a fixed number of decimal places."""
    f = Fraction(value)
    scale = 10**places
    scaled = round(f * scale)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), scale)
    return f"{sign}{whole}.{frac:0{places}d}"


def ceil_div(a: int, b: int) -> int:
    """Ceiling of a / b for positive b."""
    return -(-a // b)
