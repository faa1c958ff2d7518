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
    V_EMPTY_BIN,
    V_EMPTY_CLASS,
    V_ITEM_DUPLICATED,
    V_ITEM_MISSING,
    V_ITEM_SETUP_OVERFLOW,
    V_VALUE_TOO_LARGE,
    active_classes,
    bin_load,
    check_feasible,
    solution_cost,
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
