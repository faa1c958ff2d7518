from __future__ import annotations

import random

import pytest

from bpps.bounds import gamma, k_lower, zeta_lp_dag, zeta_lp_ddag, zeta_lp_n
from bpps.cha import BPP_EXACT, cha, k_upper
from bpps.core import Instance, active_classes, check_feasible, solution_cost
from bpps.exact import (
    BRUTE_FORCE_MAX_ITEMS,
    STATUS_LIMIT,
    STATUS_OPTIMAL,
    branch_and_bound,
    brute_force,
)
from bpps.gen import COST_WITH, GeneratorConfig, generate, worst_case
from conftest import completion_bound, random_instance, sweep_instance
from test_search_equivalence import NODE_LIMITS, proved, ref_branch_and_bound


class TestBruteForce:
    def test_fig1_values(self, fig1, fig1_r1):
        assert brute_force(fig1).psi == 60
        assert brute_force(fig1_r1).psi == 16

    def test_fig1_solution_is_feasible_and_costed(self, fig1):
        result = brute_force(fig1)
        assert result.status == STATUS_OPTIMAL
        assert check_feasible(fig1, result.solution).ok
        assert solution_cost(fig1, result.solution).total == 60

    def test_prop2_one_bin_per_item(self):
        inst = worst_case("prop2", n=4, r=1, f1=0)
        result = brute_force(inst)
        assert result.psi == 4
        assert result.solution.bin_count == 4

    def test_size_cap(self):
        inst = Instance((1,) * 13, 20, (1,) * 13, (1,), (0,), 1)
        assert inst.n == BRUTE_FORCE_MAX_ITEMS + 1
        with pytest.raises(ValueError):
            brute_force(inst)

    def test_lexicographic_tie_break(self):
        # Any two of the three items share a bin at equal cost; the
        # enumeration order keeps items 1 and 2 together.
        inst = Instance((2, 2, 2), 5, (1, 1, 1), (0,), (0,), 1)
        result = brute_force(inst)
        assert result.psi == 2
        assert result.solution.bins == (frozenset({1, 2}), frozenset({3}))


class TestBranchAndBound:
    def test_fig1_values(self, fig1, fig1_r1):
        assert branch_and_bound(fig1).psi == 60
        assert branch_and_bound(fig1_r1).psi == 16

    def test_prop5_spot_value(self):
        inst = worst_case("prop5", n=4, theta=2, r=1, f1=0)
        result = branch_and_bound(inst)
        assert result.psi == 4
        assert result.status == STATUS_OPTIMAL

    def test_matches_brute_force(self):
        rng = random.Random(53)
        for _ in range(60):
            inst = random_instance(rng)
            assert branch_and_bound(inst).psi == brute_force(inst).psi

    def test_limit_reached_keeps_valid_bracket(self, fig1):
        result = branch_and_bound(fig1, node_limit=1)
        assert result.status == STATUS_LIMIT
        assert result.lower_bound <= 60 <= result.psi
        assert result.lower_bound == min(int(zeta_lp_ddag(fig1)), result.psi)
        assert check_feasible(fig1, result.solution).ok

    def test_solution_feasible_randomized(self):
        rng = random.Random(59)
        for _ in range(40):
            inst = random_instance(rng)
            result = branch_and_bound(inst)
            assert check_feasible(inst, result.solution).ok
            assert solution_cost(inst, result.solution).total == result.psi


def sweep_regime() -> list[Instance]:
    """78 instances of the benchmark's sweep: m = 3, d = 200, n = 13..25."""
    return [sweep_instance(n, j) for n in range(13, 26) for j in range(6)]


class TestTargetedSearch:
    """Probes from the root bound up: a leaf costs its target; a stop reports one."""

    def test_proves_more_of_the_sweep_than_the_reference(self):
        ours = theirs = 0
        for inst in sweep_regime():
            ours += branch_and_bound(inst, 2_000).status == STATUS_OPTIMAL
            theirs += proved(ref_branch_and_bound(inst, 2_000))
        # 50 against 38.
        assert ours > theirs, (ours, theirs)

    def test_a_stop_reports_at_least_the_root_bound(self):
        stops = raised = 0
        for inst in sweep_regime():
            root = completion_bound(inst, ())
            assert root == zeta_lp_ddag(inst)
            for node_limit in NODE_LIMITS:
                result = branch_and_bound(inst, node_limit)
                if result.status == STATUS_LIMIT:
                    stops += 1
                    raised += result.lower_bound > root
                    assert root <= result.lower_bound < result.psi
        assert stops > 100 and raised > 0, (stops, raised)

    def test_brute_force_lies_in_every_bracket(self):
        rng = random.Random(71)
        instances = [random_instance(rng, max_n=12, max_m=4) for _ in range(150)]
        instances += [sweep_instance(n, j) for n, count in ((10, 6), (11, 3)) for j in range(count)]
        raised = 0
        for inst in instances:
            best = brute_force(inst).psi
            root = completion_bound(inst, ())
            for node_limit in NODE_LIMITS:
                result = branch_and_bound(inst, node_limit)
                assert result.lower_bound <= best <= result.psi
                assert result.status == STATUS_LIMIT or result.psi == best
                raised += result.status == STATUS_LIMIT and result.lower_bound > root
        assert raised > 0

    def test_clock_is_read_between_probes(self):
        # Its four probes walk 524, 568, 586 and 2,474 nodes and refute the
        # root bound 56 and the targets 57, 58 and 61; the smallest bound
        # the last one pruned reaches the heuristic's 66, which is optimal.
        cfg = GeneratorConfig(
            n=14, m=4, d=200, cost_mode=COST_WITH, item_size="large",
            setup_size="large", seed=14, free_form=True,
        )
        inst = generate(cfg)
        result = branch_and_bound(inst)
        assert (result.status, result.psi, result.nodes) == (STATUS_OPTIMAL, 66, 4_152)
        # With no time left the search stops after the second probe, the
        # first boundary past 1,024 nodes, holding the third target.
        result = branch_and_bound(inst, time_limit=0.0)
        assert (result.status, result.lower_bound, result.nodes) == (STATUS_LIMIT, 58, 1_092)


class TestOptimumProperties:
    def test_bound_sandwich_and_bin_bracket(self):
        rng = random.Random(61)
        for _ in range(80):
            inst = random_instance(rng)
            result = brute_force(inst)
            psi = result.psi
            assert zeta_lp_n(inst) <= zeta_lp_dag(inst) <= zeta_lp_ddag(inst) <= psi
            _, trace = cha(inst, BPP_EXACT)
            assert psi <= trace.psi_bar
            assert 2 * zeta_lp_dag(inst) > psi
            bins = result.solution.bin_count
            assert k_lower(inst) <= bins <= k_upper(inst, BPP_EXACT)

    def test_optimum_activates_each_class_enough(self):
        rng = random.Random(67)
        for _ in range(80):
            inst = random_instance(rng)
            result = brute_force(inst)
            g = gamma(inst)
            for c in inst.classes:
                active_bins = sum(
                    1 for b in result.solution.bins if c in active_classes(inst, b)
                )
                assert active_bins >= g[c - 1]
