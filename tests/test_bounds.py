from __future__ import annotations

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from bpps import bpp
from bpps.bounds import (
    FAMILY_CAPACITY,
    FAMILY_MBI,
    VARIANT_DAG,
    VARIANT_DDAG,
    VARIANT_N,
    BoundsReport,
    bounds_report,
    format_decimal,
    format_fraction,
    fractional_solution,
    gamma,
    k_lower,
    verify_fractional,
    zeta_lp_dag,
    zeta_lp_ddag,
    zeta_lp_n,
)
from bpps.cha import class_bpp
from bpps.core import Instance
from bpps.gen import worst_case
from conftest import random_instance


class TestGamma:
    def test_fig1(self, fig1):
        assert gamma(fig1) == (3, 1)

    def test_prop5_theta2(self):
        inst = worst_case("prop5", n=4, theta=2)
        assert gamma(inst) == (3,)

    def test_single_full_bin(self):
        inst = Instance((2, 3), 5, (1, 1), (0,), (0,), 1)
        assert gamma(inst) == (1,)

    def test_setup_equal_capacity_guard(self):
        inst = Instance((1,), 5, (1,), (5,), (0,), 1)
        with pytest.raises(ValueError):
            gamma(inst)


class TestClosedForms:
    def test_fig1_values(self, fig1):
        assert zeta_lp_n(fig1) == 35
        assert zeta_lp_dag(fig1) == Fraction(127, 3)
        assert k_lower(fig1) == 4
        assert zeta_lp_ddag(fig1) == 49

    def test_fig1_r1_ddag(self, fig1_r1):
        assert zeta_lp_ddag(fig1_r1) == 13

    def test_prop2_formula(self):
        inst = worst_case("prop2", n=5, r=1, f1=0)
        assert zeta_lp_n(inst) == Fraction(9, 5)

    def test_one_full_bin_ratio(self):
        inst = Instance((5,), 5, (1,), (0,), (0,), 1)
        assert zeta_lp_n(inst) == 1

    def test_prop5_theta2_values(self):
        inst = worst_case("prop5", n=4, theta=2)
        assert zeta_lp_dag(inst) == Fraction(11, 4)
        assert k_lower(inst) == 3

    def test_setup_free_degeneracy(self):
        inst = Instance((4, 4, 4, 4), 8, (1, 2, 1, 2), (0, 0), (0, 0), 3)
        assert zeta_lp_n(inst) == zeta_lp_dag(inst)
        assert k_lower(inst) == 2
        assert zeta_lp_ddag(inst) == 3 * 2

    def test_chain_and_k_lower_dominates_gamma(self):
        rng = random.Random(23)
        for _ in range(200):
            inst = random_instance(rng)
            zn, zd, zdd = zeta_lp_n(inst), zeta_lp_dag(inst), zeta_lp_ddag(inst)
            assert zn <= zd <= zdd
            assert k_lower(inst) >= max(gamma(inst))
            # The paper's formulas, written out from gamma alone.
            g = gamma(inst)
            load = inst.total_weight + sum(
                gc * s for gc, s in zip(g, inst.setup_weights)
            )
            setup_cost = sum(gc * f for gc, f in zip(g, inst.setup_costs))
            kl = math.ceil(Fraction(load, inst.capacity))
            assert k_lower(inst) == kl
            assert zd == Fraction(inst.bin_cost, inst.capacity) * load + setup_cost
            assert zdd == inst.bin_cost * kl + setup_cost
            assert bounds_report(inst) == BoundsReport(g, kl, zn, zd, zdd)

    def test_gamma_at_least_half_exact_class_optimum(self):
        # Volume bound vs the true per-class packing optimum.
        rng = random.Random(29)
        for _ in range(100):
            inst = random_instance(rng)
            g = gamma(inst)
            for c in inst.classes:
                beta_c = bpp.exact_beta(class_bpp(inst, c))
                assert g[c - 1] >= Fraction(beta_c, 2)
                assert g[c - 1] <= beta_c


class TestFractionalSolution:
    def test_fig1_variant_n(self, fig1):
        fs = fractional_solution(fig1, VARIANT_N, 8)
        assert fs.x(1, 1) == fs.y(2, 8) == Fraction(1, 8)
        assert fs.z(3) == Fraction(3, 8)
        assert fs.objective == 35

    def test_fig1_variant_ddag(self, fig1):
        fs = fractional_solution(fig1, VARIANT_DDAG, 8)
        assert fs.z(1) == Fraction(1, 2)
        assert fs.objective == 49

    def test_unit_gamma_collapses_to_variant_n(self):
        inst = Instance((2, 3), 6, (1, 2), (1, 1), (4, 5), 2)
        assert gamma(inst) == (1, 1)
        a = fractional_solution(inst, VARIANT_N, 4)
        b = fractional_solution(inst, VARIANT_DAG, 4)
        assert (a.x_value, a.y_values, a.z_value) == (b.x_value, b.y_values, b.z_value)

    def test_k_below_minimum_rejected(self, fig1):
        with pytest.raises(ValueError):
            fractional_solution(fig1, VARIANT_N, k_lower(fig1) - 1)

    def test_accessor_range_checks(self, fig1):
        fs = fractional_solution(fig1, VARIANT_N, 8)
        with pytest.raises(IndexError):
            fs.x(0, 1)
        with pytest.raises(IndexError):
            fs.z(9)


class TestVerifyFractional:
    def test_constructed_solutions_verify(self):
        rng = random.Random(31)
        for _ in range(50):
            inst = random_instance(rng)
            k = max(k_lower(inst), inst.n)
            for variant in (VARIANT_N, VARIANT_DAG, VARIANT_DDAG):
                fs = fractional_solution(inst, variant, k)
                report = verify_fractional(inst, fs)
                assert report.ok, f"{variant}: {report.violations[:3]}"

    def test_perturbed_z_breaks_capacity(self, fig1):
        fs = fractional_solution(fig1, VARIANT_DDAG, 8)
        bad = replace(fs, z_value=Fraction(3, 8))
        report = verify_fractional(fig1, bad)
        assert FAMILY_CAPACITY in {v.kind for v in report.violations}

    def test_variant_n_values_fail_min_bins_row(self, fig1):
        fs = fractional_solution(fig1, VARIANT_N, 8)
        masqueraded = replace(fs, variant=VARIANT_DDAG)
        report = verify_fractional(fig1, masqueraded)
        assert FAMILY_MBI in {v.kind for v in report.violations}
        mbi = [v for v in report.violations if v.kind == FAMILY_MBI][0]
        assert mbi.measured == 3 and mbi.allowed == 4

    def test_objective_matches_closed_forms(self, fig1):
        assert fractional_solution(fig1, VARIANT_N, 10).objective == zeta_lp_n(fig1)
        assert fractional_solution(fig1, VARIANT_DAG, 10).objective == zeta_lp_dag(fig1)
        assert fractional_solution(fig1, VARIANT_DDAG, 10).objective == zeta_lp_ddag(fig1)


def test_bounds_report_bundles_everything(fig1):
    report = bounds_report(fig1)
    assert report.gamma == (3, 1)
    assert report.k_lower == 4
    assert (report.zeta_n, report.zeta_dag, report.zeta_ddag) == (
        35,
        Fraction(127, 3),
        49,
    )


def test_formatting_helpers():
    assert format_fraction(Fraction(127, 3)) == "127/3"
    assert format_fraction(Fraction(35)) == "35"
    assert format_decimal(Fraction(127, 3)) == "42.33"
    assert format_decimal(Fraction(49)) == "49.00"
    assert format_decimal(Fraction(-1, 8)) == "-0.12"
    assert format_decimal(Fraction(55, 1000), 2) == "0.06"
