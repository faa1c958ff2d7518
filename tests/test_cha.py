from __future__ import annotations

import random

from bpps.bounds import k_lower, zeta_lp_dag
from bpps.bpp import exact_beta, heuristic_beta
from bpps.cha import (
    BPP_EXACT,
    BPP_HEURISTIC,
    TERM_STEP1,
    TERM_STEP2,
    TERM_STEP3_MERGED,
    TERM_STEP3_UNMERGED,
    cha,
    class_bpp,
    k_upper,
)
from bpps.core import (
    Instance,
    check_feasible,
    solution_cost,
    validate_instance,
)
from bpps.exact import STATUS_OPTIMAL, branch_and_bound, brute_force
from bpps.gen import worst_case
from conftest import random_instance


class TestChaOnFig1:
    def test_trace_high_bin_cost(self, fig1):
        solution, trace = cha(fig1, BPP_EXACT)
        assert trace.beta == (4, 1)
        assert trace.single_bin_classes == {2}
        assert trace.delta == 1
        assert trace.termination == TERM_STEP3_UNMERGED
        assert trace.psi_bar == 11 + 10 * 5 == 61
        assert check_feasible(fig1, solution).ok
        assert solution_cost(fig1, solution).total == 61
        assert 2 * zeta_lp_dag(fig1) > 61

    def test_trace_low_bin_cost(self, fig1_r1):
        solution, trace = cha(fig1_r1, BPP_EXACT)
        assert trace.termination == TERM_STEP3_UNMERGED
        assert trace.psi_bar == 16
        assert solution_cost(fig1_r1, solution).total == 16


class TestTerminations:
    def test_step1_when_every_class_needs_two_bins(self):
        # Unit items with residual capacity 1 force one bin per item.
        inst = worst_case("prop2", n=3, r=5, f1=2)
        solution, trace = cha(inst, BPP_EXACT)
        assert trace.termination == TERM_STEP1
        assert trace.single_bin_classes == frozenset()
        assert trace.beta == (3,)
        assert trace.psi_bar == 3 * 2 + 3 * 5
        assert solution_cost(inst, solution).total == trace.psi_bar

    def test_step2_when_blocks_need_two_bins(self):
        # Three one-bin classes whose blocks (weight 3) pair up in cap-6 bins.
        inst = Instance(
            weights=(2, 2, 2),
            capacity=6,
            class_of=(1, 2, 3),
            setup_weights=(1, 1, 1),
            setup_costs=(1, 1, 1),
            bin_cost=2,
        )
        solution, trace = cha(inst, BPP_EXACT)
        assert trace.termination == TERM_STEP2
        assert trace.beta == (1, 1, 1)
        assert trace.delta == 2
        assert trace.psi_bar == 3 * 1 + 2 * 2
        assert solution_cost(inst, solution).total == trace.psi_bar

    def test_step3_merged_block_joins_a_bin(self):
        # Class 1 needs two bins with slack; class 2's block fits the slack.
        inst = Instance(
            weights=(4, 4, 4, 1),
            capacity=10,
            class_of=(1, 1, 1, 2),
            setup_weights=(0, 1),
            setup_costs=(3, 2),
            bin_cost=5,
        )
        solution, trace = cha(inst, BPP_EXACT)
        assert trace.termination == TERM_STEP3_MERGED
        assert trace.beta == (2, 1)
        assert trace.merge_class == 1
        assert trace.psi_bar == (2 * 3 + 1 * 2) + 5 * 2
        assert solution_cost(inst, solution).total == trace.psi_bar
        assert solution.bin_count == 2

    def test_trivial_instance_ends_in_one_optimal_bin(self):
        rng = random.Random(59)
        for _ in range(60):
            m = rng.randint(1, 3)
            n = rng.randint(m, 8)
            labels = list(range(1, m + 1)) + [rng.randint(1, m) for _ in range(n - m)]
            rng.shuffle(labels)
            weights = [rng.randint(1, 5) for _ in range(n)]
            setups = [rng.randint(0, 3) for _ in range(m)]
            inst = Instance(
                weights=tuple(weights),
                capacity=sum(weights) + sum(setups) + rng.randint(0, 4),
                class_of=tuple(labels),
                setup_weights=tuple(setups),
                setup_costs=tuple(rng.randint(0, 5) for _ in range(m)),
                bin_cost=rng.randint(1, 10),
            )
            assert validate_instance(inst).ok
            oracle = brute_force(inst)
            assert oracle.psi == inst.bin_cost + sum(inst.setup_costs)
            for mode in (BPP_EXACT, BPP_HEURISTIC):
                solution, trace = cha(inst, mode)
                assert trace.termination == TERM_STEP3_UNMERGED
                assert solution.bins == (frozenset(inst.items),)
                assert trace.psi_bar == oracle.psi
            result = branch_and_bound(inst)
            assert result.status == STATUS_OPTIMAL
            assert result.solution.bin_count == 1
            assert result.psi == oracle.psi


class TestProperties:
    def test_feasible_and_formula_cost_randomized(self):
        rng = random.Random(41)
        for _ in range(150):
            inst = random_instance(rng)
            for mode in (BPP_EXACT, BPP_HEURISTIC):
                solution, trace = cha(inst, mode)
                assert check_feasible(inst, solution).ok
                assert solution_cost(inst, solution).total == trace.psi_bar

    def test_half_guarantee_exact_mode(self):
        rng = random.Random(43)
        for _ in range(150):
            inst = random_instance(rng)
            _, trace = cha(inst, BPP_EXACT)
            assert 2 * zeta_lp_dag(inst) > trace.psi_bar

    def test_heuristic_mode_never_below_exact(self):
        rng = random.Random(47)
        for _ in range(100):
            inst = random_instance(rng)
            assert k_upper(inst, BPP_HEURISTIC) >= k_upper(inst, BPP_EXACT)
            assert k_upper(inst, BPP_EXACT) >= k_lower(inst)


class TestKUpper:
    def test_fig1(self, fig1):
        assert k_upper(fig1, BPP_EXACT) == 5
        assert k_upper(fig1, BPP_HEURISTIC) == 5

    def test_prop2_family_needs_one_bin_per_item(self):
        for n in (2, 5, 9):
            inst = worst_case("prop2", n=n)
            assert k_upper(inst, BPP_EXACT) == n

    def test_single_class_single_bin(self):
        inst = Instance((2, 2), 10, (1, 1), (3,), (0,), 1)
        assert k_upper(inst, BPP_EXACT) == 1

    def test_matches_per_class_reference_and_cha_beta(self):
        # k_upper is this per-class loop; cha's step 1 must count the same.
        def reference(inst, mode):
            total = 0
            for c in inst.classes:
                bi = class_bpp(inst, c)
                if mode == BPP_EXACT:
                    total += exact_beta(bi)
                else:
                    total += heuristic_beta(bi, c)
            return total

        # Two equal classes whose heuristic count depends on the seed: the
        # orders seeded 1 pack (7, 7, 6, 6, 5, 4, 4, 4, 3, 2) into 4 bins
        # of 12, those seeded 2 into no fewer than 5.
        weights = (7, 7, 6, 6, 5, 4, 4, 4, 3, 2)
        sensitive = Instance(weights * 2, 12, (1,) * 10 + (2,) * 10, (0, 0), (1, 1), 1)
        assert k_upper(sensitive, BPP_HEURISTIC) == 4 + 5
        cases = [sensitive]
        rng = random.Random(53)
        for _ in range(60):
            cases.append(random_instance(rng, max_n=10))
        for inst in cases:
            for mode in (BPP_EXACT, BPP_HEURISTIC):
                kbar = k_upper(inst, mode)
                assert kbar == reference(inst, mode)
                _, trace = cha(inst, mode)
                assert kbar == sum(trace.beta)
