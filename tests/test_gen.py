from __future__ import annotations

import random
from fractions import Fraction

import pytest

from bpps.bounds import zeta_lp_dag, zeta_lp_ddag, zeta_lp_n
from bpps.core import MAX_ITEMS, validate_instance
from bpps.exact import brute_force
from bpps.gen import (
    COST_WITH,
    COST_WITHOUT,
    GeneratorConfig,
    benchmark_configs,
    generate,
    generate_verbose,
    instance_name,
    parse_instance_name,
    worst_case,
)
from conftest import allocates_at_most


def small_cfg(**overrides) -> GeneratorConfig:
    base = dict(
        n=25,
        m=5,
        d=200,
        cost_mode=COST_WITH,
        item_size="small",
        setup_size="small",
        seed=0,
    )
    base.update(overrides)
    return GeneratorConfig(**base)


class TestGenerate:
    def test_deterministic(self):
        cfg = small_cfg(seed=7)
        assert generate(cfg) == generate(cfg)

    def test_seed_changes_output(self):
        assert generate(small_cfg(seed=0)) != generate(small_cfg(seed=1))

    def test_ranges_with_costs(self):
        inst = generate(small_cfg())
        assert all(10 <= w <= 30 for w in inst.weights)
        assert all(2 <= s <= 20 for s in inst.setup_weights)
        assert all(1 <= f <= 5 for f in inst.setup_costs)
        assert inst.bin_cost == 10

    def test_no_costs_mode(self):
        inst = generate(small_cfg(cost_mode=COST_WITHOUT))
        assert all(f == 0 for f in inst.setup_costs)
        assert inst.bin_cost == 1

    def test_large_ranges(self):
        inst = generate(small_cfg(item_size="large", setup_size="large", d=1000))
        assert all(150 <= w <= 300 for w in inst.weights)
        assert all(100 <= s <= 200 for s in inst.setup_weights)

    def test_every_class_nonempty(self):
        for seed in range(10):
            inst = generate(small_cfg(m=10, n=25, seed=seed))
            assert all(inst.items_of_class(c) for c in inst.classes)

    def test_feasible_by_construction(self):
        for seed in range(5):
            cfg = small_cfg(item_size="large", setup_size="large", seed=seed)
            inst = generate(cfg)
            for i in inst.items:
                assert inst.weight(i) + inst.setup_weights[inst.item_class(i) - 1] <= inst.capacity

    def test_verbose_reports_redraws(self):
        outcome = generate_verbose(small_cfg(m=10))
        assert outcome.class_redraws >= 0
        assert outcome.trivial_redraws == 0

    def test_grid_enforced_unless_free_form(self):
        with pytest.raises(ValueError):
            small_cfg(n=30)
        cfg = small_cfg(n=30, free_form=True)
        inst = generate(cfg)
        assert inst.n == 30

    def test_free_form_fractional_endpoints(self):
        cfg = small_cfg(d=33, free_form=True)
        lo, hi = cfg.weight_interval()
        # ceil(0.05 * 33), floor(0.15 * 33)
        assert (lo, hi) == (2, 4)
        inst = generate(cfg)
        assert all(lo <= w <= hi for w in inst.weights)


class TestBenchmark:
    def test_grid_is_480_unique_named_valid(self, benchmark_480):
        assert len(benchmark_480) == 480
        names = [instance_name(cfg) for cfg, _ in benchmark_480]
        assert len(set(names)) == 480
        for cfg, inst in benchmark_480:
            assert validate_instance(inst).ok
            assert inst.total_weight + inst.total_setup_weight > inst.capacity
            assert parse_instance_name(instance_name(cfg)) == cfg

    def test_name_pattern(self):
        cfg = small_cfg(seed=1)
        assert instance_name(cfg) == "bpps_n25_m5_d200_costs_small_small_s1"
        assert parse_instance_name("bpps_n25_m5_d200_costs_small_small_s1.txt") == cfg

    @pytest.mark.parametrize(
        "name",
        [
            "bpps_n25_m5_d200_xyz_small_small_s1",
            "bpps_n025_m5_d200_costs_small_small_s1",
            "bpps_n25_m5_d200_costs_small_small_s+1",
        ],
        ids=["cost-mode", "leading-zero", "plus-sign"],
    )
    def test_a_name_instance_name_does_not_write_is_refused(self, name):
        with pytest.raises(ValueError, match="^not a benchmark instance name: "):
            parse_instance_name(name)

    def test_base_seed_shifts_pairs(self):
        configs = list(benchmark_configs(base_seed=5))
        assert {c.seed for c in configs} == {5, 6}

    def test_negative_seed_is_refused(self):
        # Random seeds with abs(seed), so seed -1 would draw seed 1's labels.
        assert random.Random(-8).random() == random.Random(8).random()
        with pytest.raises(ValueError, match="^seed = -1 is negative$"):
            small_cfg(seed=-1)
        with pytest.raises(ValueError, match="^seed = -2 is negative$"):
            list(benchmark_configs(base_seed=-2))


class TestWorstCase:
    def test_prop2_fields(self):
        inst = worst_case("prop2", n=5, r=2, f1=3)
        assert inst.weights == (1,) * 5
        assert inst.capacity == 5
        assert inst.setup_weights == (4,)
        assert (inst.bin_cost, inst.setup_costs) == (2, (3,))

    def test_prop5_fields(self):
        inst = worst_case("prop5", n=10, theta=100)
        assert inst.weights == (100,) * 10
        assert inst.capacity == 200
        assert inst.setup_weights == (1,)

    def test_prop5_theta_one_still_one_item_per_bin(self):
        inst = worst_case("prop5", n=4, theta=1, r=1, f1=0)
        assert brute_force(inst).psi == 4

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            worst_case("prop2", n=1)
        with pytest.raises(ValueError):
            worst_case("prop5", n=4)
        with pytest.raises(ValueError):
            worst_case("nope", n=4)

    def test_more_than_max_items_raises_before_drawing(self):
        message = f"^{MAX_ITEMS + 1} items above the largest item count {MAX_ITEMS}$"
        with allocates_at_most(2**20):
            with pytest.raises(ValueError, match=message):
                small_cfg(n=MAX_ITEMS + 1, free_form=True)
            with pytest.raises(ValueError, match=message):
                worst_case("prop2", n=MAX_ITEMS + 1)
            with pytest.raises(ValueError, match=message):
                worst_case("prop5", n=MAX_ITEMS + 1, theta=3)
            assert small_cfg(n=MAX_ITEMS, free_form=True).n == MAX_ITEMS

    def test_plain_bound_ratio_strictly_decreasing(self):
        ratios = []
        for n in range(2, 51):
            inst = worst_case("prop2", n=n, r=1, f1=0)
            assert zeta_lp_n(inst) == 2 - Fraction(1, n)
            ratios.append(zeta_lp_n(inst) / (n * 1))
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_strengthened_ratios_above_half_and_non_increasing(self):
        n = 10
        dag_ratios = []
        ddag_ratios = []
        for theta in range(1, 201):
            inst = worst_case("prop5", n=n, theta=theta, r=1, f1=0)
            psi = n
            dag_ratios.append(zeta_lp_dag(inst) / psi)
            ddag_ratios.append(zeta_lp_ddag(inst) / psi)
        for ratios in (dag_ratios, ddag_ratios):
            assert all(value > Fraction(1, 2) for value in ratios)
            assert all(a >= b for a, b in zip(ratios, ratios[1:]))
        # The per-class-row bound approaches one half; the integer-bin
        # bound plateaus at 1/2 + 1/n for fixed n.
        assert dag_ratios[-1] <= Fraction(51, 100)
        assert ddag_ratios[-1] == Fraction(1, 2) + Fraction(1, n)


def test_random_seed_streams_are_field_independent():
    # Changing only the cost mode must not disturb weights or setups.
    a = generate(small_cfg(cost_mode=COST_WITH))
    b = generate(small_cfg(cost_mode=COST_WITHOUT))
    assert a.weights == b.weights
    assert a.setup_weights == b.setup_weights
    assert a.class_of == b.class_of


def test_generator_is_usable_with_stdlib_random_seeding():
    # The documented sub-stream layout: field index packed into the seed.
    rng = random.Random(7 * 8 + 1)
    cfg = small_cfg(seed=7)
    inst = generate(cfg)
    expected = [rng.randint(10, 30) for _ in range(25)]
    assert list(inst.weights) == expected
