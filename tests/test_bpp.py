from __future__ import annotations

import itertools
import random
import time

import pytest

from bpps import bpp
from bpps.bounds import ceil_div
from bpps.bpp import (
    FIT_RULES,
    PERM_COUNT,
    RULE_FIRST_FIT,
    BppInstance,
    NodeLimitExceeded,
    _fit,
    _min_slack_bins,
    decreasing_order,
    depth_first,
    exact_beta,
    exact_packing,
    fit_heuristic,
    heuristic_beta,
    heuristic_packing,
)
from bpps.cha import class_bpp
from bpps.core import MAX_VALUE
from bpps.gen import COST_WITH, GeneratorConfig, generate, generate_benchmark
from conftest import allocates_at_most


def packing_is_feasible(bi: BppInstance, packing) -> bool:
    items = sorted(i for b in packing.bins for i in b)
    if items != list(range(1, bi.n + 1)):
        return False
    return all(
        sum(bi.weights[i - 1] for i in b) <= bi.capacity for b in packing.bins
    )


def oracle_beta(bi: BppInstance) -> int:
    """Minimum bins by enumerating every partition of the items."""
    best = bi.n

    def walk(i: int, loads: list[int]) -> None:
        nonlocal best
        if i > bi.n:
            best = min(best, len(loads))
            return
        if len(loads) >= best:
            return
        w = bi.weights[i - 1]
        for b in range(len(loads)):
            if loads[b] + w <= bi.capacity:
                loads[b] += w
                walk(i + 1, loads)
                loads[b] -= w
        loads.append(w)
        walk(i + 1, loads)
        loads.pop()

    walk(1, [])
    return best


def eager_heuristic_search(bi: BppInstance, perm_count: int, seed: int):
    """Reference search: draw every order first, then run the fits."""
    rng = random.Random(seed)
    orders = [list(decreasing_order(bi))]
    base = list(range(1, bi.n + 1))
    for _ in range(perm_count - 1):
        perm = base[:]
        rng.shuffle(perm)
        orders.append(perm)
    best = None
    floor = bi.volume_bound()
    for order in orders:
        for rule in FIT_RULES:
            packing = fit_heuristic(bi, rule, order)
            if best is None or packing.bin_count < best[0]:
                best = (packing.bin_count, packing)
        if best[0] == floor:
            break
    return best


def tree(spec, resumed: list[int]):
    """A generator node for ``spec``: ``None`` is a counted-only child and a
    list is a child node with those children.  Each resume is logged."""
    for child in spec:
        yield None if child is None else tree(child, resumed)
        resumed.append(1)


class TestDepthFirst:
    # 1 root, 4 children, 4 grandchildren and 1 great-grandchild: 10 nodes.
    SPEC = [None, [None, None], None, [[None], None]]

    def test_counts_none_children_as_nodes(self):
        assert depth_first(tree(self.SPEC, []), 10) == (10, True)
        assert depth_first(tree([], []), 0) == (1, False)
        assert depth_first(tree([], []), 1) == (1, True)

    @pytest.mark.parametrize("node_limit", range(10))
    def test_stops_one_past_the_limit(self, node_limit):
        assert depth_first(tree(self.SPEC, []), node_limit) == (node_limit + 1, False)

    @pytest.mark.parametrize("node_limit", range(6))
    def test_a_limit_on_a_none_child_leaves_its_parent_unresumed(self, node_limit):
        # The root's children are nodes 2..6, all None.
        resumed: list[int] = []
        got = depth_first(tree([None] * 5, resumed), node_limit)
        assert got == (node_limit + 1, False)
        assert len(resumed) == max(node_limit - 1, 0)

    @pytest.mark.parametrize(
        "spec, resumes",
        # Nested: 700 resumes in the first child, 1 in the root, and 320
        # in the second child before its node 1024 stops the walk.
        [([None] * 2000, 1022), ([[None] * 700, [None] * 700], 1021)],
        ids=["flat", "nested"],
    )
    def test_deadline_checked_at_node_1024_of_none_children(self, spec, resumes):
        resumed: list[int] = []
        assert depth_first(tree(spec, resumed), 10**7, 0.0) == (1024, False)
        assert len(resumed) == resumes


class TestBppInstance:
    @pytest.mark.parametrize(
        "weights, capacity, field",
        [((2.5, 3.9), 6, "weights"), ((2, 3), 6.5, "capacity")],
        ids=["weights", "capacity"],
    )
    def test_value_that_is_not_an_integer_raises(self, weights, capacity, field):
        with pytest.raises(ValueError, match=f"^{field} must be integral$"):
            BppInstance(weights, capacity)


class TestFitHeuristic:
    def test_forced_one_per_bin(self):
        bi = BppInstance((3, 3, 3, 3), 5)
        packing = fit_heuristic(bi, "FF", (1, 2, 3, 4))
        assert packing.bin_count == 4

    def test_everything_fits_one_bin(self):
        bi = BppInstance((1, 1, 1, 1), 5)
        for rule in ("NF", "FF", "BF"):
            assert fit_heuristic(bi, rule, (1, 2, 3, 4)).bin_count == 1

    def test_first_fit_backfills(self):
        bi = BppInstance((5, 4, 3, 2, 1), 6)
        packing = fit_heuristic(bi, "FF", (1, 2, 3, 4, 5))
        assert packing.bins == ((1, 5), (2, 4), (3,))

    def test_next_fit_never_backfills(self):
        bi = BppInstance((5, 4, 3, 2, 1), 6)
        packing = fit_heuristic(bi, "NF", (1, 2, 3, 4, 5))
        assert packing.bins == ((1,), (2,), (3, 4, 5))

    def test_best_fit_prefers_tightest_bin(self):
        # Items 6 and 5 open two bins (cap 10); item 3 fits both and best
        # fit picks the fuller bin while first fit would do the same here,
        # so check a case where they differ: residuals 4 vs 5.
        bi = BppInstance((6, 5, 3), 10)
        packing = fit_heuristic(bi, "BF", (1, 2, 3))
        assert packing.bins == ((1, 3), (2,))
        bi2 = BppInstance((5, 6, 3), 10)
        assert fit_heuristic(bi2, "BF", (1, 2, 3)).bins == ((1,), (2, 3))
        assert fit_heuristic(bi2, "FF", (1, 2, 3)).bins == ((1, 3), (2,))

    def test_best_fit_tie_breaks_to_lowest_index(self):
        bi = BppInstance((6, 6, 3), 9)
        packing = fit_heuristic(bi, "BF", (1, 2, 3))
        assert packing.bins == ((1, 3), (2,))

    def test_bad_order_rejected(self):
        bi = BppInstance((1, 2), 3)
        with pytest.raises(ValueError):
            fit_heuristic(bi, "FF", (1, 1))

    def test_one_shot_order_is_read_once(self):
        # The permutation check must not use up an iterator or generator.
        bi = BppInstance((3, 3, 2), 5)
        want = fit_heuristic(bi, "FF", (1, 2, 3))
        assert want.bins == ((1, 3), (2,))
        assert fit_heuristic(bi, "FF", iter((1, 2, 3))) == want
        assert fit_heuristic(bi, "FF", (i for i in range(1, 4))) == want

    def test_order_entries_are_read_as_integers(self):
        # 1.0 == True == 1, so only reading each entry as an integer tells a
        # float, an error, from True, item 1.
        bi = BppInstance((3, 3, 2), 5)
        with pytest.raises(ValueError, match="^order must be a permutation of 1..n$"):
            fit_heuristic(bi, "FF", (1.0, 2.0, 3.0))
        packing = fit_heuristic(bi, "FF", (True, 2, 3))
        assert packing == fit_heuristic(bi, "FF", (1, 2, 3))
        assert type(packing.bins[0][0]) is int

    def test_output_always_feasible(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(1, 12)
            cap = rng.randint(3, 20)
            bi = BppInstance(tuple(rng.randint(1, cap) for _ in range(n)), cap)
            order = list(range(1, n + 1))
            rng.shuffle(order)
            for rule in ("NF", "FF", "BF"):
                packing = fit_heuristic(bi, rule, order)
                assert packing_is_feasible(bi, packing)
                assert packing.bin_count <= n


class TestFit:
    def test_stops_exactly_when_the_fit_needs_more_than_most_bins(self):
        rng = random.Random(43)
        stopped = 0
        for _ in range(300):
            n = rng.randint(1, 14)
            cap = rng.randint(3, 30)
            low = rng.choice((1, cap // 3 + 1, cap // 2 + 1))
            bi = BppInstance(tuple(rng.randint(low, cap) for _ in range(n)), cap)
            order = list(range(1, n + 1))
            rng.shuffle(order)
            for rule in FIT_RULES:
                full = fit_heuristic(bi, rule, order)
                for most in range(n + 1):
                    bins = _fit(bi, rule, order, most)
                    if full.bin_count > most:
                        assert bins is None, (bi, rule, order, most)
                        stopped += 1
                    else:
                        assert tuple(map(tuple, bins)) == full.bins
        assert stopped > 1000, stopped


class TestHeuristicBeta:
    def test_forced_one_per_bin(self):
        assert heuristic_beta(BppInstance((3, 3, 3, 3), 5)) == 4

    def test_single_bin(self):
        assert heuristic_beta(BppInstance((1, 1, 1, 1), 5)) == 1

    def test_fig1_classes(self):
        class1 = BppInstance((3, 3, 3, 3), 5)
        class2 = BppInstance((1, 1, 1, 1), 5)
        assert heuristic_beta(class1) == 4
        assert heuristic_beta(class2) == 1

    def test_deterministic_given_seed(self):
        bi = BppInstance((7, 5, 4, 4, 3, 2, 2, 1), 9)
        runs = {heuristic_beta(bi, seed=123) for _ in range(3)}
        assert len(runs) == 1
        assert heuristic_packing(bi, seed=123) == heuristic_packing(bi, seed=123)

    def test_decreasing_order_is_first_permutation(self):
        bi = BppInstance((6, 4, 4, 6), 10)
        assert decreasing_order(bi) == (1, 4, 2, 3)
        # First-fit-decreasing reaches the volume bound here, so the search
        # stops at the sorted order, before any random one is drawn.
        ffd = fit_heuristic(bi, RULE_FIRST_FIT, decreasing_order(bi))
        assert ffd.bin_count == bi.volume_bound() == 2
        for seed in (0, 1, 7):
            assert heuristic_packing(bi, seed) == ffd
            assert heuristic_beta(bi, seed) == 2

    def test_matches_eager_reference(self):
        rng = random.Random(41)
        instances = [
            # Never reaches the volume bound (3 < 4 bins): every order is drawn.
            BppInstance((3, 3, 3, 3), 5),
            # Decreasing order needs 4 bins; only a later random order
            # finds 3, so the packing depends on how the orders are drawn.
            BppInstance((5, 5, 4, 4, 3, 3, 3, 3), 10),
            BppInstance((7, 5, 4, 4, 3, 2, 2, 1), 9),
            BppInstance((6, 4, 4, 6), 10),
        ]
        for _ in range(30):
            n = rng.randint(1, 14)
            cap = rng.randint(3, 20)
            instances.append(
                BppInstance(tuple(rng.randint(1, cap) for _ in range(n)), cap)
            )
        # Many equal small items: the cardinality bound, above the volume
        # bound, stops the search.
        for _ in range(10):
            cap = rng.randint(5, 40)
            w = rng.randint(cap // 3 + 1, cap // 2)
            instances.append(BppInstance((w,) * rng.randint(5, 40), cap))
        # Items above a third of the bin: fits stop on lost room.
        for _ in range(20):
            cap = rng.randint(10, 60)
            n = rng.randint(4, 16)
            instances.append(
                BppInstance(tuple(rng.randint(cap // 3 + 1, cap) for _ in range(n)), cap)
            )
        for bi in instances:
            for seed in (0, 1, 7, 123):
                count, packing = eager_heuristic_search(bi, PERM_COUNT, seed)
                assert heuristic_beta(bi, seed) == count
                assert heuristic_packing(bi, seed) == packing

    def test_matches_eager_reference_on_the_grid_classes(self):
        # Every class subproblem of the base-seed-0 grid, class c seeded c.
        for _, inst in generate_benchmark(0):
            for c in range(1, inst.m + 1):
                bi = class_bpp(inst, c)
                count, packing = eager_heuristic_search(bi, PERM_COUNT, c)
                assert heuristic_beta(bi, c) == count
                assert heuristic_packing(bi, c) == packing

    def test_cardinality_bound_stops_the_search_at_the_first_order(self, monkeypatch):
        # Two of 1,200 items of weight 7 fit a bin of 20: first-fit
        # decreasing packs the 600 bins the cardinality bound asks, above
        # the volume bound of 420, so no random order is drawn.
        shuffles = []

        class Counting(random.Random):
            def shuffle(self, x):
                shuffles.append(1)
                super().shuffle(x)

        monkeypatch.setattr(bpp.random, "Random", Counting)
        bi = BppInstance((7,) * 1200, 20)
        assert heuristic_packing(bi).bin_count == 600
        assert shuffles == []

    def test_never_below_exact(self):
        rng = random.Random(5)
        for _ in range(80):
            n = rng.randint(1, 10)
            cap = rng.randint(3, 15)
            bi = BppInstance(tuple(rng.randint(1, cap) for _ in range(n)), cap)
            assert heuristic_beta(bi, seed=1) >= exact_beta(bi)


class TestExactBeta:
    def test_examples(self):
        assert exact_beta(BppInstance((3, 3, 3, 3), 5)) == 4
        assert exact_beta(BppInstance((2, 2, 2, 2), 4)) == 2
        assert exact_beta(BppInstance((5, 4, 3, 2, 1), 6)) == 3

    def test_matches_partition_enumeration(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 7)
            cap = rng.randint(3, 12)
            bi = BppInstance(tuple(rng.randint(1, cap) for _ in range(n)), cap)
            assert exact_beta(bi) == oracle_beta(bi)

    def test_matches_partition_enumeration_on_equal_weights_and_lost_room(self):
        # Few distinct weights, so most items share a weight with the one
        # before them, and a capacity that first-fit-decreasing (the
        # search's first dive) leaves a bin with room below the smallest
        # weight in: both the equal-weight rule and the waste charge act.
        # First-fit-decreasing misses the volume bound, so the search runs
        # past its root.
        rng = random.Random(29)
        checked = 0
        while checked < 80:
            cap = rng.randint(7, 40)
            sizes = rng.sample(range(2, cap // 2 + 2), 2)
            bi = BppInstance(
                tuple(rng.choice(sizes) for _ in range(rng.randint(5, 10))), cap
            )
            ffd = fit_heuristic(bi, RULE_FIRST_FIT, decreasing_order(bi))
            loads = [sum(bi.weights[i - 1] for i in b) for b in ffd.bins]
            if len(loads) == bi.volume_bound() or max(loads) <= cap - min(bi.weights):
                continue
            assert exact_beta(bi) == oracle_beta(bi), bi
            checked += 1

    def test_packing_attains_the_optimum(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(1, 9)
            cap = rng.randint(3, 12)
            bi = BppInstance(tuple(rng.randint(1, cap) for _ in range(n)), cap)
            packing = exact_packing(bi)
            assert packing_is_feasible(bi, packing)
            assert packing.bin_count == exact_beta(bi)

    def test_volume_bound_sandwich(self):
        rng = random.Random(19)
        for _ in range(80):
            n = rng.randint(1, 9)
            cap = rng.randint(3, 15)
            bi = BppInstance(tuple(rng.randint(1, cap) for _ in range(n)), cap)
            beta = exact_beta(bi)
            assert bi.volume_bound() <= beta
            # The volume bound never drops below half the optimum.
            assert 2 * bi.volume_bound() >= beta

    def test_multi_bin_optimum_exceeds_half_total_capacity(self):
        rng = random.Random(37)
        checked = 0
        for _ in range(120):
            n = rng.randint(2, 9)
            cap = rng.randint(3, 15)
            bi = BppInstance(tuple(rng.randint(1, cap) for _ in range(n)), cap)
            beta = exact_beta(bi)
            if beta > 1:
                checked += 1
                assert 2 * bi.total_weight > beta * bi.capacity
        assert checked > 60

    def test_node_limit(self):
        weights = tuple(itertools.islice(itertools.cycle((7, 5, 4, 3)), 16))
        bi = BppInstance(weights, 13)
        with pytest.raises(NodeLimitExceeded) as info:
            exact_beta(bi, node_limit=3)
        assert info.value.incumbent >= bi.volume_bound()
        assert info.value.lower_bound <= info.value.incumbent

    def test_grid_class_proved_within_the_benchmark_limit(self):
        # Class 4 of grid instance bpps_n50_m5_d10000_costs_large_large_s1:
        # 15 items at residual capacity 8,506.  Without the waste charge and
        # the equal-weight rule the search stopped at 5,000 nodes with the
        # bracket [4, 5] and proved 4 only after 9,540 nodes.
        cfg = GeneratorConfig(
            n=50, m=5, d=10000, cost_mode=COST_WITH, item_size="large",
            setup_size="large", seed=1,
        )
        bi = class_bpp(generate(cfg), 4)
        assert (bi.n, bi.capacity, bi.volume_bound()) == (15, 8506, 4)
        assert exact_beta(bi, node_limit=5_000) == 4

    def test_matches_partition_enumeration_from_the_minimum_slack_start(self):
        # Items of a seventh to a third of the bin (3 to 6 per bin), kept
        # where first-fit decreasing misses the floor, so the search starts
        # from the minimum-slack packing wherever that uses fewer bins.
        rng = random.Random(41)
        checked = started = 0
        while checked < 120:
            cap = rng.randint(14, 80)
            n = rng.randint(7, 14)
            bi = BppInstance(
                tuple(rng.randint(cap // 7 + 1, cap // 3) for _ in range(n)), cap
            )
            order = decreasing_order(bi)
            weights = [bi.weights[i - 1] for i in order]
            ffd = fit_heuristic(bi, RULE_FIRST_FIT, order).bin_count
            if ffd == max(bi.volume_bound(), ceil_div(n, cap // weights[-1])):
                continue
            bins = _min_slack_bins(weights, cap, 10**6, n + 1)
            assert sorted(j for b in bins for j in b) == list(range(n)), bi
            assert all(sum(weights[j] for j in b) <= cap for b in bins), bi
            started += len(bins) < ffd
            assert exact_beta(bi) == oracle_beta(bi), bi
            checked += 1
        assert started > 90, started

    def test_grid_class_proved_at_the_minimum_slack_start(self):
        # Class 2 of grid instance bpps_n100_m5_d1000_costs_large_large_s1.
        # From the first-fit-decreasing start the search stopped at 5,000
        # nodes with the bracket [6, 7]; the minimum-slack start packs it
        # in 6 bins, the volume bound, so the root proves it.
        cfg = GeneratorConfig(
            n=100, m=5, d=1000, cost_mode=COST_WITH, item_size="large",
            setup_size="large", seed=1,
        )
        bi = class_bpp(generate(cfg), 2)
        assert (bi.n, bi.capacity, bi.volume_bound()) == (22, 896, 6)
        assert exact_beta(bi, node_limit=5_000) == 6

    def test_minimum_slack_start_at_the_largest_capacity(self):
        # A bitset as wide as the room left beside a 3t item would take
        # over 150 MB; first-fit decreasing packs 3 bins, the optimum is 2,
        # and the search proves it from the first-fit start.
        t = MAX_VALUE // 7
        bi = BppInstance((3 * t, 3 * t, 2 * t, 2 * t, 2 * t, 2 * t), MAX_VALUE)
        assert fit_heuristic(bi, RULE_FIRST_FIT, decreasing_order(bi)).bin_count == 3
        start = time.perf_counter()
        assert exact_beta(bi) == 2
        assert time.perf_counter() - start < 1.0
        with allocates_at_most(4 << 20):
            assert exact_beta(bi) == 2

    def test_minimum_slack_start_on_thousands_of_items(self):
        # First-fit decreasing pairs the 3s and packs 817 bins; the
        # minimum-slack start packs every bin as 3 + 2 + 2, 700 bins, the
        # floor.  Within 5,000 nodes the start gives up and the search stops.
        bi = BppInstance((3,) * 700 + (2,) * 1400, 7)
        start = time.perf_counter()
        assert exact_beta(bi) == 700
        with pytest.raises(NodeLimitExceeded) as info:
            exact_beta(bi, node_limit=5_000)
        assert (info.value.lower_bound, info.value.incumbent) == (700, 817)
        assert time.perf_counter() - start < 1.0
        with allocates_at_most(4 << 20):
            assert exact_beta(bi) == 700

    def test_search_deeper_than_the_recursion_limit_hits_the_node_limit(self):
        # 1,200 items deep: the search keeps its own stack, not Python's.
        bi = BppInstance((7,) * 1000 + (5,) * 200, 20)
        with pytest.raises(NodeLimitExceeded) as info:
            exact_beta(bi, node_limit=5_000)
        assert info.value.nodes == 5_001
        assert (info.value.lower_bound, info.value.incumbent) == (400, 500)

    @pytest.mark.parametrize(
        "weights, capacity, beta",
        [((7,) * 1200, 20, 600), ((5,) * 300, 11, 150)],
        ids=["1200x7-cap20", "300x5-cap11"],
    )
    def test_cardinality_bound_proves_at_the_root(self, weights, capacity, beta):
        # Two items per bin at most, so the volume bound (420 and 137) is
        # not the answer; the cardinality bound is.
        bi = BppInstance(weights, capacity)
        assert beta > bi.volume_bound()
        assert exact_beta(bi, node_limit=1) == beta
        # Two items that fit no partner need beta + 2 bins; the root proves
        # beta + 1 when the limit stops the search.
        lonely = (capacity - weights[0] + 1,) * 2
        with pytest.raises(NodeLimitExceeded) as info:
            exact_beta(BppInstance(weights + lonely, capacity), node_limit=1)
        assert (info.value.lower_bound, info.value.incumbent) == (beta + 1, beta + 2)
