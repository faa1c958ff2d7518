from __future__ import annotations

from fractions import Fraction

import pytest

from bpps.core import InfeasibleSolutionError, Instance, Solution
from bpps.exact import brute_force
from bpps.files import write_instance, write_solution
from bpps.report import (
    REPORT_COLUMNS,
    collect_report,
    feature_report,
    gap,
    gap_record,
    render_csv,
    report_row,
)
from conftest import count_feasibility_checks, fig1_instance


def test_features_of_tight_optimum(fig1):
    sol = Solution((frozenset({1, 5}), frozenset({2, 6}), frozenset({3, 7}), frozenset({4, 8})))
    features = feature_report(fig1, sol)
    assert features.bins_used == 4
    assert features.items_per_bin == 2
    assert features.classes_per_bin == 2
    assert features.fill_percent == 100


def test_features_of_loose_optimum(fig1_r1):
    sol = Solution(
        (
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
            frozenset({4}),
            frozenset({5, 6, 7, 8}),
        )
    )
    features = feature_report(fig1_r1, sol)
    assert features.bins_used == 5
    assert features.items_per_bin == Fraction(8, 5)
    assert features.classes_per_bin == 1
    assert features.fill_percent == 70


def test_single_bin_fill():
    inst = Instance((3,), 5, (1,), (1,), (0,), 1)
    features = feature_report(inst, Solution((frozenset({1}),)))
    assert features.bins_used == 1
    assert features.fill_percent == Fraction(100 * 4, 5)


def test_items_per_bin_times_bins_is_n(fig1):
    sol = brute_force(fig1).solution
    features = feature_report(fig1, sol)
    assert features.items_per_bin * features.bins_used == fig1.n
    assert 0 < features.fill_percent <= 100


def test_gap_values():
    assert gap(60, 49) == Fraction(1100, 60)
    assert gap(60, 49) == Fraction(55, 3)
    assert gap(16, 16) == 0
    assert gap(16, 8) == 50
    with pytest.raises(ValueError):
        gap(0, 0)


def test_gap_record():
    record = gap_record("fig1", 60, 49)
    assert record.gap_percent == Fraction(55, 3)
    assert record.instance == "fig1"


def test_collect_report_over_directory(tmp_path):
    fig1 = fig1_instance()
    write_instance(fig1, tmp_path / "fig1_r10.txt")
    write_solution("fig1_r10", brute_force(fig1).solution, tmp_path / "fig1_r10.sol")
    other = fig1_instance(bin_cost=1)
    write_instance(other, tmp_path / "fig1_r1.txt")
    (tmp_path / "notes.txt").write_text("not an instance\n")

    rows = collect_report(tmp_path)
    assert [row["instance"] for row in rows] == ["fig1_r1", "fig1_r10"]
    solved = rows[1]
    assert solved["psi"] == "60"
    assert solved["zeta_ddag"] == "49"
    assert solved["gap_ddag"] == "55/3"
    assert solved["k_lower"] == "4" and solved["k_upper"] == "5"
    unsolved = rows[0]
    assert unsolved["psi"] == "" and unsolved["gap_n"] == ""

    text = render_csv(rows, REPORT_COLUMNS)
    assert text.splitlines()[0] == ",".join(REPORT_COLUMNS)
    assert render_csv(collect_report(tmp_path), REPORT_COLUMNS) == text


def test_report_row_checks_the_solution_once(fig1, monkeypatch):
    calls = count_feasibility_checks(monkeypatch)
    row = report_row("fig1", fig1, brute_force(fig1).solution)
    assert calls == [1]
    assert (row["psi"], row["bins"], row["fill_percent"]) == ("60", "4", "100")


def test_infeasible_solution_raises_in_features_and_report_row(fig1):
    bad = Solution((frozenset({1, 2}), frozenset({3, 4, 5, 6, 7, 8})))
    with pytest.raises(InfeasibleSolutionError):
        feature_report(fig1, bad)
    with pytest.raises(InfeasibleSolutionError):
        report_row("fig1", fig1, bad)
