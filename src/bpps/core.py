"""Instance and solution data model for bin packing with class setups.

An instance packs ``n`` integer-weighted items into identical bins of
capacity ``d``.  Items are partitioned into ``m`` classes; whenever a bin
contains at least one item of class ``c`` (the class is *active* in the
bin), the bin loses ``s_c`` units of capacity and the solution pays the
setup cost ``f_c``.  Every used bin additionally costs ``r``.  A solution
is a partition of the items into bins such that item weight plus the setup
weights of the active classes fits the capacity in every bin, and its cost
is ``r * bins_used + sum of per-bin setup costs``.

Item and class indices are 1-based in every public structure (bins, files,
reports); positional arrays such as ``weights`` are indexed ``i - 1``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

#: Largest accepted input value.  All arithmetic is done with Python
#: integers (no wraparound); rejecting anything above 2**31 - 1 keeps
#: products like ``sum(w) * r`` in a range any consumer can handle.
MAX_VALUE = 2**31 - 1

#: Largest accepted item count.  Generating an instance of this size raised
#: the peak RSS of a Python 3.11.7 process by 91 MB at d = 1,000 and by
#: 147 MB at d = 100,000; ``2**31 - 1`` items would need over 2,000 times
#: as much.  Sizes are checked before anything of that length is built.
MAX_ITEMS = 10**6


class BppsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInstanceError(BppsError):
    """An :class:`Instance` was built from data that does not validate."""

    def __init__(self, report: ValidationReport) -> None:
        self.report = report
        lines = "; ".join(str(v) for v in report.violations[:5])
        super().__init__(f"invalid instance: {lines}")


class InfeasibleSolutionError(BppsError):
    """A solution violates the partition or capacity requirements."""

    def __init__(self, report: ValidationReport) -> None:
        self.report = report
        lines = "; ".join(str(v) for v in report.violations[:5])
        super().__init__(f"infeasible solution: {lines}")


# Violation kinds used by validate_instance / check_feasible.
V_ITEM_WEIGHT = "item-weight"
V_CAPACITY_VALUE = "capacity-value"
V_BIN_COST = "bin-cost"
V_SETUP_WEIGHT = "setup-weight"
V_SETUP_COST = "setup-cost"
V_VALUE_TOO_LARGE = "value-too-large"
V_ITEM_SETUP_OVERFLOW = "item-setup-overflow"
V_EMPTY_CLASS = "empty-class"
V_BIN_CAPACITY = "bin-capacity"
V_EMPTY_BIN = "empty-bin"
V_ITEM_MISSING = "item-missing"
V_ITEM_DUPLICATED = "item-duplicated"
V_ITEM_UNKNOWN = "item-unknown"


@dataclass(frozen=True)
class Violation:
    """One violated requirement: what, where, and by how much."""

    kind: str
    index: int | None = None
    measured: object = None
    allowed: object = None

    def __str__(self) -> str:
        where = "" if self.index is None else f" at {self.index}"
        detail = ""
        if self.measured is not None or self.allowed is not None:
            detail = f" (measured {self.measured}, allowed {self.allowed})"
        return f"{self.kind}{where}{detail}"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a validation pass; ``ok`` iff no violations."""

    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def store_integers(obj: object, sequences: tuple[str, ...], scalars: tuple[str, ...]) -> None:
    """Store the named fields of the frozen ``obj`` as exact ints.

    ``operator.index`` converts, so only integers pass: ``2.7`` and
    ``6.0`` alike raise :class:`ValueError` naming the field.
    """
    try:
        for name in sequences:
            object.__setattr__(obj, name, tuple(map(operator.index, getattr(obj, name))))
        for name in scalars:
            object.__setattr__(obj, name, operator.index(getattr(obj, name)))
    except TypeError:
        raise ValueError(f"{name} must be integral") from None


def check_item_count(what: str, count: int) -> None:
    """Raise :class:`ValueError` when ``count``, a number of ``what``, passes :data:`MAX_ITEMS`."""
    if count > MAX_ITEMS:
        raise ValueError(f"{count} {what} above the largest item count {MAX_ITEMS}")


@dataclass(frozen=True)
class Instance:
    """One problem instance.

    ``weights[i-1]`` is the weight of item ``i`` and ``class_of[i-1]`` its
    class in ``1..m``; ``setup_weights[c-1]`` / ``setup_costs[c-1]`` belong
    to class ``c``.  An instance is valid once built: structural faults,
    a value that is not an integer or a sequence longer than
    :data:`MAX_ITEMS` among them, raise :class:`ValueError`
    and data faults :class:`InvalidInstanceError`
    (see :func:`validate_instance`), so no consumer checks the data again.
    """

    weights: tuple[int, ...]
    capacity: int
    class_of: tuple[int, ...]
    setup_weights: tuple[int, ...]
    setup_costs: tuple[int, ...]
    bin_cost: int
    _class_items: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        fields = ("weights", "class_of", "setup_weights", "setup_costs")
        for name in fields:
            check_item_count(name, len(getattr(self, name)))
        store_integers(self, fields, ("capacity", "bin_cost"))
        if not self.weights:
            raise ValueError("instance must have at least one item")
        if not self.setup_weights:
            raise ValueError("instance must have at least one class")
        if len(self.class_of) != len(self.weights):
            raise ValueError("class_of must assign a class to every item")
        if len(self.setup_costs) != len(self.setup_weights):
            raise ValueError("setup_costs and setup_weights must have equal length")
        m = len(self.setup_weights)
        members: list[list[int]] = [[] for _ in range(m)]
        for i, c in enumerate(self.class_of, start=1):
            if not 1 <= c <= m:
                raise ValueError(f"item {i} has class {c} outside 1..{m}")
            members[c - 1].append(i)
        object.__setattr__(
            self, "_class_items", tuple(tuple(v) for v in members)
        )
        require_valid(self)

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def m(self) -> int:
        return len(self.setup_weights)

    @property
    def classes(self) -> range:
        return range(1, self.m + 1)

    @property
    def items(self) -> range:
        return range(1, self.n + 1)

    def weight(self, item: int) -> int:
        return self.weights[item - 1]

    def item_class(self, item: int) -> int:
        return self.class_of[item - 1]

    def items_of_class(self, c: int) -> tuple[int, ...]:
        return self._class_items[c - 1]

    def class_weight(self, c: int) -> int:
        """Total item weight of class ``c``."""
        return sum(self.weights[i - 1] for i in self._class_items[c - 1])

    @property
    def total_weight(self) -> int:
        return sum(self.weights)

    @property
    def total_setup_weight(self) -> int:
        return sum(self.setup_weights)


@dataclass(frozen=True)
class Solution:
    """A packing: one frozenset of 1-based item indices per used bin."""

    bins: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "bins", tuple(frozenset(b) for b in self.bins)
        )

    @property
    def bin_count(self) -> int:
        return len(self.bins)


@dataclass(frozen=True)
class CostBreakdown:
    """Cost of a solution split into bin and setup components."""

    bin_cost_total: int
    setup_cost_total: int

    @property
    def total(self) -> int:
        return self.bin_cost_total + self.setup_cost_total


def active_classes(inst: Instance, bin_items: Iterable[int]) -> frozenset[int]:
    """Classes with at least one item in the given bin."""
    return frozenset(inst.class_of[i - 1] for i in bin_items)


def bin_load(inst: Instance, bin_items: Iterable[int]) -> int:
    """Item weight plus setup weights of the classes active in the bin."""
    items = list(bin_items)
    setups = sum(inst.setup_weights[c - 1] for c in active_classes(inst, items))
    return sum(inst.weights[i - 1] for i in items) + setups


def validate_instance(inst: Instance) -> ValidationReport:
    """Report every violated instance requirement.

    Nothing is raised: all problems are collected, in a fixed order, for
    :func:`require_valid`, which every :class:`Instance` runs as it is
    built.  Only data errors are reported; a trivial instance (everything
    fits one bin) is valid, and its optimum is that one bin.
    """
    v: list[Violation] = []
    if inst.capacity < 1:
        v.append(Violation(V_CAPACITY_VALUE, None, inst.capacity, ">= 1"))
    if inst.bin_cost < 1:
        v.append(Violation(V_BIN_COST, None, inst.bin_cost, ">= 1"))
    for label, values, kind, low in (
        ("weight", inst.weights, V_ITEM_WEIGHT, 1),
        ("setup weight", inst.setup_weights, V_SETUP_WEIGHT, 0),
        ("setup cost", inst.setup_costs, V_SETUP_COST, 0),
    ):
        for idx, value in enumerate(values, start=1):
            if value < low:
                v.append(Violation(kind, idx, value, f">= {low}"))
            if value > MAX_VALUE:
                v.append(Violation(V_VALUE_TOO_LARGE, idx, value, MAX_VALUE))
    if inst.capacity > MAX_VALUE:
        v.append(Violation(V_VALUE_TOO_LARGE, None, inst.capacity, MAX_VALUE))
    if inst.bin_cost > MAX_VALUE:
        v.append(Violation(V_VALUE_TOO_LARGE, None, inst.bin_cost, MAX_VALUE))
    setups = inst.setup_weights
    capacity = inst.capacity
    for i, (weight, c) in enumerate(zip(inst.weights, inst.class_of), start=1):
        combined = weight + setups[c - 1]
        if combined > capacity:
            v.append(Violation(V_ITEM_SETUP_OVERFLOW, i, combined, capacity))
    for c in inst.classes:
        if not inst.items_of_class(c):
            v.append(Violation(V_EMPTY_CLASS, c, 0, ">= 1"))
    return ValidationReport(tuple(v))


def check_feasible(inst: Instance, sol: Solution) -> ValidationReport:
    """Check the partition property and every bin's capacity.

    Reports each bin whose load (items plus active-class setup weights)
    exceeds the capacity, along with missing, duplicated, or unknown items.
    """
    v: list[Violation] = []
    seen: dict[int, int] = {}
    for b, items in enumerate(sol.bins, start=1):
        if not items:
            v.append(Violation(V_EMPTY_BIN, b))
        for i in items:
            if not 1 <= i <= inst.n:
                v.append(Violation(V_ITEM_UNKNOWN, i, i, f"1..{inst.n}"))
            elif i in seen:
                v.append(Violation(V_ITEM_DUPLICATED, i, (seen[i], b), "one bin"))
            else:
                seen[i] = b
        known = [i for i in items if 1 <= i <= inst.n]
        load = bin_load(inst, known)
        if load > inst.capacity:
            v.append(Violation(V_BIN_CAPACITY, b, load, inst.capacity))
    for i in inst.items:
        if i not in seen:
            v.append(Violation(V_ITEM_MISSING, i))
    return ValidationReport(tuple(v))


def solution_cost(
    inst: Instance, sol: Solution, report: ValidationReport | None = None
) -> CostBreakdown:
    """Cost of a feasible solution; raises if it is not feasible.

    ``report`` is the caller's ``check_feasible(inst, sol)``, if it has
    one; the solution is then not checked again.
    """
    if report is None:
        report = check_feasible(inst, sol)
    if not report.ok:
        raise InfeasibleSolutionError(report)
    setup_total = sum(
        inst.setup_costs[c - 1]
        for items in sol.bins
        for c in active_classes(inst, items)
    )
    return CostBreakdown(inst.bin_cost * sol.bin_count, setup_total)


def require_valid(inst: Instance) -> None:
    """The last step of building an :class:`Instance`: raise unless valid."""
    report = validate_instance(inst)
    if not report.ok:
        raise InvalidInstanceError(report)


def make_instance(
    weights: Sequence[int],
    capacity: int,
    class_of: Sequence[int],
    setup_weights: Sequence[int],
    setup_costs: Sequence[int],
    bin_cost: int,
) -> Instance:
    """Convenience constructor accepting any integer sequences."""
    return Instance(
        weights=tuple(weights),
        capacity=capacity,
        class_of=tuple(class_of),
        setup_weights=tuple(setup_weights),
        setup_costs=tuple(setup_costs),
        bin_cost=bin_cost,
    )
