from __future__ import annotations

import random
from dataclasses import replace

import pytest

from bpps.core import (
    MAX_ITEMS,
    MAX_VALUE,
    InfeasibleSolutionError,
    Instance,
    InvalidInstanceError,
    Solution,
    V_BIN_CAPACITY,
    V_BIN_COST,
    V_CAPACITY_VALUE,
    V_EMPTY_BIN,
    V_EMPTY_CLASS,
    V_ITEM_DUPLICATED,
    V_ITEM_MISSING,
    V_ITEM_SETUP_OVERFLOW,
    V_ITEM_WEIGHT,
    V_SETUP_COST,
    V_SETUP_WEIGHT,
    V_VALUE_TOO_LARGE,
    ValidationReport,
    Violation,
    active_classes,
    bin_load,
    check_feasible,
    check_item_count,
    solution_cost,
    store_integers,
    validate_instance,
)
from conftest import allocates_at_most, fig1_instance, random_instance


def kinds(report):
    return {v.kind for v in report.violations}


class TestValidateInstance:
    def test_fig1_is_valid(self, fig1):
        assert validate_instance(fig1).ok

    def test_item_setup_overflow(self, fig1):
        with pytest.raises(InvalidInstanceError) as caught:
            Instance(
                weights=fig1.weights,
                capacity=fig1.capacity,
                class_of=fig1.class_of,
                setup_weights=(4, 1),
                setup_costs=fig1.setup_costs,
                bin_cost=fig1.bin_cost,
            )
        report = caught.value.report
        overflow = [v for v in report.violations if v.kind == V_ITEM_SETUP_OVERFLOW]
        assert overflow and overflow[0].index == 1
        assert overflow[0].measured == 7

    def test_trivial_instance_is_valid(self):
        # Everything fits one bin; that bin is the optimum, not an error.
        inst = Instance(
            weights=(1, 1),
            capacity=3,
            class_of=(1, 1),
            setup_weights=(0,),
            setup_costs=(0,),
            bin_cost=1,
        )
        assert validate_instance(inst).ok

    def test_empty_class_flagged(self):
        with pytest.raises(InvalidInstanceError) as caught:
            Instance(
                weights=(3, 3),
                capacity=4,
                class_of=(1, 1),
                setup_weights=(0, 1),
                setup_costs=(0, 0),
                bin_cost=1,
            )
        assert V_EMPTY_CLASS in kinds(caught.value.report)

    def test_oversized_values_rejected(self):
        with pytest.raises(InvalidInstanceError) as caught:
            Instance(
                weights=(MAX_VALUE + 1, 5),
                capacity=MAX_VALUE + 2,
                class_of=(1, 1),
                setup_weights=(0,),
                setup_costs=(0,),
                bin_cost=1,
            )
        assert V_VALUE_TOO_LARGE in kinds(caught.value.report)

    def test_structural_errors_raise(self):
        with pytest.raises(ValueError):
            Instance((1, 2), 5, (1,), (0,), (0,), 1)
        with pytest.raises(ValueError):
            Instance((1, 2), 5, (1, 3), (0,), (0,), 1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("weights", (2.7, 3, 3, 3, 1, 1, 1, 1)),
            ("capacity", 6.5),
            ("class_of", (1, 1, 1, 1.5, 2, 2, 2, 2)),
            ("setup_weights", (1, 1.5)),
            ("setup_costs", (2, 2.5)),
            ("bin_cost", 2.5),
        ],
    )
    def test_value_that_is_not_an_integer_raises(self, fig1, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be integral$"):
            replace(fig1, **{field: value})

    @pytest.mark.parametrize("field", ["weights", "class_of", "setup_weights", "setup_costs"])
    def test_more_than_max_items_raises_before_building(self, fig1, field):
        # A range has a length without holding its values; a copy of it
        # would take 8 MB for the tuple alone.
        with allocates_at_most(2**20):
            with pytest.raises(
                ValueError,
                match=f"^{MAX_ITEMS + 1} {field} above the largest item count {MAX_ITEMS}$",
            ):
                replace(fig1, **{field: range(MAX_ITEMS + 1)})


class RefInstance:
    """The checks ``Instance`` ran as it was built, before the label check
    and the grouping became one loop, with the accessors
    ``ref_validate_instance`` reads."""

    def __init__(self, weights, capacity, class_of, setup_weights, setup_costs, bin_cost):
        self.weights = weights
        self.capacity = capacity
        self.class_of = class_of
        self.setup_weights = setup_weights
        self.setup_costs = setup_costs
        self.bin_cost = bin_cost
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
        for i, c in enumerate(self.class_of, start=1):
            if not 1 <= c <= m:
                raise ValueError(f"item {i} has class {c} outside 1..{m}")
        members: list[list[int]] = [[] for _ in range(m)]
        for i, c in enumerate(self.class_of, start=1):
            members[c - 1].append(i)
        object.__setattr__(
            self, "_class_items", tuple(tuple(v) for v in members)
        )
        ref_require_valid(self)

    @property
    def items(self) -> range:
        return range(1, len(self.weights) + 1)

    @property
    def classes(self) -> range:
        return range(1, len(self.setup_weights) + 1)

    def weight(self, item: int) -> int:
        return self.weights[item - 1]

    def item_class(self, item: int) -> int:
        return self.class_of[item - 1]

    def items_of_class(self, c: int) -> tuple[int, ...]:
        return self._class_items[c - 1]


def ref_validate_instance(inst: RefInstance) -> ValidationReport:
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
    for i in inst.items:
        combined = inst.weight(i) + inst.setup_weights[inst.item_class(i) - 1]
        if combined > inst.capacity:
            v.append(Violation(V_ITEM_SETUP_OVERFLOW, i, combined, inst.capacity))
    for c in inst.classes:
        if not inst.items_of_class(c):
            v.append(Violation(V_EMPTY_CLASS, c, 0, ">= 1"))
    return ValidationReport(tuple(v))


def ref_require_valid(inst: RefInstance) -> None:
    report = ref_validate_instance(inst)
    if not report.ok:
        raise InvalidInstanceError(report)


def inject_fault(rng: random.Random, fields: dict) -> str:
    """Break ``fields`` in one of the ways validation must catch; name the way."""
    weights, labels = fields["weights"], fields["class_of"]
    setups, costs = fields["setup_weights"], fields["setup_costs"]
    i = rng.randrange(len(weights))
    fault = rng.choice(
        ["label", "zero-weight", "huge-weight", "huge-capacity", "overflow", "empty-class",
         "negative-cost"]
    )
    if fault == "label":
        labels[i] = rng.choice((0, len(setups) + 1))
    elif fault == "zero-weight":
        weights[i] = 0
    elif fault == "huge-weight":
        weights[i] = MAX_VALUE + rng.randint(1, 5)
    elif fault == "huge-capacity":
        fields["capacity"] = MAX_VALUE + 1
    elif fault == "overflow":
        c = labels[i]
        weights[i] = fields["capacity"] - setups[c - 1] + 1 if 1 <= c <= len(setups) else 1
    elif fault == "empty-class":
        setups.append(rng.randint(0, 3))
        costs.append(rng.randint(0, 3))
    else:
        costs[rng.randrange(len(costs))] = -rng.randint(1, 5)
    return fault


def validation_outcome(build, validate, fields: dict):
    """The exception building raises, or the report of the built instance."""
    try:
        inst = build(**{k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()})
    except (ValueError, InvalidInstanceError) as exc:
        return type(exc), str(exc), getattr(exc, "report", None)
    return None, None, validate(inst)


def test_validation_matches_the_reference_with_injected_faults():
    rng = random.Random(2024)
    faults: set[str] = set()
    raised: list[type | None] = []
    for _ in range(600):
        inst = random_instance(rng, max_n=12, max_m=4)
        fields = {
            "weights": list(inst.weights),
            "capacity": inst.capacity,
            "class_of": list(inst.class_of),
            "setup_weights": list(inst.setup_weights),
            "setup_costs": list(inst.setup_costs),
            "bin_cost": inst.bin_cost,
        }
        for _ in range(rng.randint(0, 3)):
            faults.add(inject_fault(rng, fields))
        expected = validation_outcome(RefInstance, ref_validate_instance, fields)
        assert validation_outcome(Instance, validate_instance, fields) == expected
        raised.append(expected[0])
    assert len(faults) == 7
    assert {None, ValueError, InvalidInstanceError} <= set(raised)


class TestCheckFeasible:
    def test_fig1_bin_loads(self, fig1):
        # {1, 5} carries 3 + 1 item weight plus both setups: exactly 6.
        assert bin_load(fig1, {1, 5}) == 6
        assert active_classes(fig1, {1, 5}) == {1, 2}
        sol = Solution((frozenset({1, 5}), frozenset({2, 6}), frozenset({3, 7}), frozenset({4, 8})))
        assert check_feasible(fig1, sol).ok

    def test_capacity_violation_reported(self, fig1):
        # {1, 2} carries 3 + 3 + setup 1 = 7 > 6.
        sol = Solution(
            (frozenset({1, 2}), frozenset({3, 7}), frozenset({4, 8}), frozenset({5, 6}))
        )
        report = check_feasible(fig1, sol)
        broken = [v for v in report.violations if v.kind == V_BIN_CAPACITY]
        assert broken and broken[0].index == 1 and broken[0].measured == 7

    def test_duplicated_item(self, fig1):
        sol = Solution(
            (
                frozenset({1, 5}),
                frozenset({2, 6}),
                frozenset({3, 7}),
                frozenset({3, 4, 8}),
            )
        )
        report = check_feasible(fig1, sol)
        assert V_ITEM_DUPLICATED in kinds(report)

    def test_missing_item(self, fig1):
        sol = Solution((frozenset({1, 5}), frozenset({2, 6}), frozenset({3, 7})))
        report = check_feasible(fig1, sol)
        missing = {v.index for v in report.violations if v.kind == V_ITEM_MISSING}
        assert missing == {4, 8}

    def test_empty_bin(self, fig1):
        bins = ({1, 5}, set(), {2, 6}, {3, 7}, {4, 8})
        report = check_feasible(fig1, Solution(tuple(map(frozenset, bins))))
        assert [(v.kind, v.index) for v in report.violations] == [(V_EMPTY_BIN, 2)]


class TestSolutionCost:
    def test_fig1_high_bin_cost(self, fig1):
        sol = Solution((frozenset({1, 5}), frozenset({2, 6}), frozenset({3, 7}), frozenset({4, 8})))
        cost = solution_cost(fig1, sol)
        assert (cost.bin_cost_total, cost.setup_cost_total, cost.total) == (40, 20, 60)

    def test_fig1_low_bin_cost(self, fig1_r1):
        sol = Solution(
            (
                frozenset({1}),
                frozenset({2}),
                frozenset({3}),
                frozenset({4}),
                frozenset({5, 6, 7, 8}),
            )
        )
        assert solution_cost(fig1_r1, sol).total == 16

    def test_single_item_instance(self):
        inst = Instance((3,), 5, (1,), (2,), (7,), 3)
        assert solution_cost(inst, Solution((frozenset({1}),))).total == 3 + 7

    def test_infeasible_raises(self, fig1):
        sol = Solution((frozenset(fig1.items),))
        with pytest.raises(InfeasibleSolutionError):
            solution_cost(fig1, sol)

    def test_cost_at_least_bin_cost(self):
        rng = random.Random(7)
        for _ in range(30):
            inst = random_instance(rng)
            sol = Solution(tuple(frozenset({i}) for i in inst.items))
            assert solution_cost(inst, sol).total >= inst.bin_cost

    def test_merging_bins_never_increases_cost(self):
        rng = random.Random(11)
        merges = 0
        for _ in range(200):
            inst = random_instance(rng)
            bins = [frozenset({i}) for i in inst.items]
            base = solution_cost(inst, Solution(tuple(bins))).total
            merged = bins[0] | bins[1]
            if bin_load(inst, merged) <= inst.capacity:
                merges += 1
                sol = Solution(tuple([merged] + bins[2:]))
                assert solution_cost(inst, sol).total <= base
        assert merges > 20


def test_fig1_fixture_matches_expected_shape():
    inst = fig1_instance()
    assert (inst.n, inst.m, inst.capacity) == (8, 2, 6)
    assert inst.items_of_class(1) == (1, 2, 3, 4)
    assert inst.class_weight(1) == 12
    assert inst.total_weight == 16
    assert inst.total_setup_weight == 2
