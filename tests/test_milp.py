from __future__ import annotations

import random

import pytest

from bpps.bounds import gamma, k_lower
from bpps.core import Instance, Solution, active_classes, solution_cost
from bpps.exact import brute_force
from bpps.milp import (
    FAMILY_ASSIGNMENT,
    FAMILY_CAPACITY,
    FAMILY_LINKING,
    FAMILY_MBI,
    FAMILY_MCI,
    MODEL_VARIANTS,
    LpFormatError,
    MilpModel,
    Row,
    SolutionImportError,
    VARIANT_DAG,
    VARIANT_DDAG,
    VARIANT_N,
    VARIANT_STAR,
    build_model,
    emit_lp_file,
    import_solution,
    parse_lp,
    parse_lp_file,
    render_lp,
    var_x,
    var_y,
    var_z,
)
from conftest import random_instance


def solution_values(inst: Instance, model: MilpModel, sol: Solution) -> dict[str, int]:
    values = {name: 0 for name in model.variables}
    for b, items in enumerate(sol.bins, start=1):
        values[var_z(b)] = 1
        for i in items:
            values[var_x(i, b)] = 1
        for c in active_classes(inst, items):
            values[var_y(c, b)] = 1
    return values


def row_holds(row: Row, values: dict[str, int]) -> bool:
    lhs = sum(coeff * values[name] for name, coeff in row.terms)
    if row.sense == "<=":
        return lhs <= row.rhs
    if row.sense == ">=":
        return lhs >= row.rhs
    return lhs == row.rhs


def assignment_text(values: dict[str, int], include_zeros: bool = False) -> str:
    lines = ["# solver output"]
    for name, value in values.items():
        if value or include_zeros:
            lines.append(f"{name} {value}")
    return "\n".join(lines) + "\n"


class TestCounts:
    def test_fig1_counts(self, fig1):
        expected = {
            VARIANT_N: (8, 88, 80),
            VARIANT_DAG: (8, 88, 82),
            VARIANT_DDAG: (8, 88, 83),
            VARIANT_STAR: (5, 55, 56),
        }
        for variant, (k, n_vars, n_rows) in expected.items():
            model = build_model(fig1, variant)
            assert (model.k, model.variable_count, model.constraint_count) == (
                k,
                n_vars,
                n_rows,
            )

    def test_count_law_randomized(self):
        rng = random.Random(71)
        for _ in range(25):
            inst = random_instance(rng)
            for variant in MODEL_VARIANTS:
                model = build_model(inst, variant)
                n, m, k = inst.n, inst.m, model.k
                assert model.variable_count == (n + m + 1) * k
                expected_rows = (n + 1) * k + n
                if variant != VARIANT_N:
                    expected_rows += m
                if variant in (VARIANT_DDAG, VARIANT_STAR):
                    expected_rows += 1
                assert model.constraint_count == expected_rows

    def test_row_families_and_rhs(self, fig1):
        model = build_model(fig1, VARIANT_DDAG)
        counts = model.row_counts()
        assert counts[FAMILY_MCI] == fig1.m
        assert counts[FAMILY_MBI] == 1
        mci_rhs = [row.rhs for row in model.rows if row.family == FAMILY_MCI]
        assert tuple(mci_rhs) == gamma(fig1)
        mbi = [row for row in model.rows if row.family == FAMILY_MBI][0]
        assert mbi.rhs == k_lower(fig1)

    def test_row_counts_closed_forms(self, fig1):
        rng = random.Random(97)
        for inst in [fig1] + [random_instance(rng) for _ in range(10)]:
            for variant in MODEL_VARIANTS:
                model = build_model(inst, variant)
                n, k = inst.n, model.k
                expected = {FAMILY_ASSIGNMENT: n, FAMILY_CAPACITY: k, FAMILY_LINKING: n * k}
                if variant != VARIANT_N:
                    expected[FAMILY_MCI] = inst.m
                if variant in (VARIANT_DDAG, VARIANT_STAR):
                    expected[FAMILY_MBI] = 1
                assert model.row_counts() == expected, variant

    @pytest.mark.parametrize(
        "name, family",
        [
            ("assign_3", FAMILY_ASSIGNMENT),
            ("cap_2", FAMILY_CAPACITY),
            ("link_1_3_2", FAMILY_LINKING),
            ("mci_2", FAMILY_MCI),
            ("mbi", FAMILY_MBI),
        ],
    )
    def test_row_family_from_name(self, name, family):
        assert Row(name, (("z_1", 1),), ">=", 1).family == family

    def test_star_respects_exact_flag(self, fig1):
        assert build_model(fig1, VARIANT_STAR).k == 5
        assert build_model(fig1, VARIANT_STAR, exact_bin_bound=True).k == 5


class TestLpText:
    def test_emission_is_byte_stable(self, fig1, tmp_path):
        model = build_model(fig1, VARIANT_N)
        a = emit_lp_file(model, tmp_path / "a.lp")
        b = emit_lp_file(model, tmp_path / "b.lp")
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_all_variants(self, fig1, tmp_path):
        for variant in MODEL_VARIANTS:
            model = build_model(fig1, variant)
            path = emit_lp_file(model, tmp_path / f"{variant}.lp")
            assert parse_lp_file(path) == model

    def test_round_trip_randomized(self):
        rng = random.Random(73)
        for _ in range(10):
            inst = random_instance(rng)
            for variant in (VARIANT_N, VARIANT_STAR):
                model = build_model(inst, variant)
                assert parse_lp(render_lp(model)) == model

    def test_objective_coefficients(self, fig1):
        model = build_model(fig1, VARIANT_N)
        coeffs = dict(model.objective)
        for b in range(1, 9):
            assert coeffs[var_z(b)] == 10
            assert coeffs[var_y(1, b)] == 2
            assert coeffs[var_y(2, b)] == 3
        text = render_lp(model)
        assert "10 z_1" in text and "2 y_1_1" in text

    def test_zero_cost_objective_omits_terms(self):
        inst = Instance((3, 3), 4, (1, 2), (1, 0), (0, 0), 1)
        model = build_model(inst, VARIANT_N)
        names = {name for name, _ in model.objective}
        assert names == {var_z(1), var_z(2)}
        assert parse_lp(render_lp(model)) == model

    def test_long_rows_wrap_and_parse(self):
        inst = Instance(
            weights=(2,) * 30,
            capacity=5,
            class_of=(1,) * 30,
            setup_weights=(1,),
            setup_costs=(1,),
            bin_cost=7,
        )
        model = build_model(inst, VARIANT_DDAG)
        text = render_lp(model)
        assert all(len(line) <= 79 for line in text.splitlines())
        assert parse_lp(text) == model


@pytest.mark.parametrize(
    "old, new, message",
    [
        (" assign_1:", " foo_1:", "unrecognized row name 'foo_1'"),
        (" k=8", "", "missing 'k' in the header comment"),
        ("Subject To\n", "Subject To\n + x_1_1\n", "constraint tokens before a row name"),
        ("End\n", "End\nstray\n", "unexpected line outside sections: 'stray'"),
        (" = 1\n", " + 2 = 1\n", "dangling coefficient in row assign_1"),
        (" = 1\n", "\n", "row 'assign_1' lacks a trailing sense and rhs"),
        (" = 1\n", " = one\n", "rhs of row 'assign_1' is not an integer: 'one'"),
        (" k=8", " k=two", "header value k is not an integer: 'two'"),
        ("variant=DDAG", "variant=FOO", "unknown variant 'FOO' in the header comment"),
        (" k=8", " k=3", "Binaries lists 88 variables, not (n + m + 1) * k = 33"),
        (
            " assign_1: x_1_1 ",
            " assign_1: x_99_1 ",
            "row 'assign_1' names 'x_99_1', which Binaries does not list",
        ),
    ],
    ids=[
        "row-name",
        "missing-header-key",
        "tokens-before-row-name",
        "outside-sections",
        "dangling-coefficient",
        "no-sense-and-rhs",
        "non-integer-rhs",
        "non-integer-header",
        "unknown-variant",
        "bin-count",
        "unlisted-variable",
    ],
)
def test_parse_lp_rejects_malformed_text(fig1, old, new, message):
    text = render_lp(build_model(fig1, VARIANT_DDAG))
    assert old in text
    with pytest.raises(LpFormatError) as info:
        parse_lp(text.replace(old, new, 1))
    assert str(info.value) == message


class TestIntegerPoints:
    def test_optimum_satisfies_all_rows_of_all_variants(self):
        rng = random.Random(79)
        for _ in range(25):
            inst = random_instance(rng)
            optimum = brute_force(inst).solution
            for variant in MODEL_VARIANTS:
                model = build_model(inst, variant)
                # Any optimal solution fits the shrunken bin set.
                assert optimum.bin_count <= model.k
                values = solution_values(inst, model, optimum)
                for row in model.rows:
                    assert row_holds(row, values), (variant, row.name)


class TestImportSolution:
    def test_fig1_optimum_round_trip(self, fig1):
        model = build_model(fig1, VARIANT_N)
        optimum = brute_force(fig1).solution
        values = solution_values(fig1, model, optimum)
        imported = import_solution(fig1, model, assignment_text(values))
        assert solution_cost(fig1, imported).total == 60

    def test_hand_written_assignment(self, fig1):
        # Items 1..4 paired with 5..8 across four bins, both classes
        # active everywhere; zeros omitted as solvers usually do.
        model = build_model(fig1, VARIANT_N)
        lines = ["# pairing optimum"]
        for b in range(1, 5):
            lines.append(f"x_{b}_{b} 1")
            lines.append(f"x_{b + 4}_{b} 1")
            lines.append(f"y_1_{b} 1")
            lines.append(f"y_2_{b} 1")
            lines.append(f"z_{b} 1")
        imported = import_solution(fig1, model, "\n".join(lines))
        assert imported.bins == (
            frozenset({1, 5}),
            frozenset({2, 6}),
            frozenset({3, 7}),
            frozenset({4, 8}),
        )
        assert solution_cost(fig1, imported).total == 60

    def test_unknown_names_and_comments_ignored(self, fig1):
        model = build_model(fig1, VARIANT_N)
        values = solution_values(fig1, model, brute_force(fig1).solution)
        text = "# header\nfoo_1 1\n\n" + assignment_text(values, include_zeros=True)
        imported = import_solution(fig1, model, text)
        assert solution_cost(fig1, imported).total == 60

    def test_solver_rounding_tolerated(self, fig1):
        model = build_model(fig1, VARIANT_N)
        values = solution_values(fig1, model, brute_force(fig1).solution)
        lines = [
            f"{name} {value - 3e-7 if value else 2.4e-7}"
            for name, value in values.items()
        ]
        imported = import_solution(fig1, model, "\n".join(lines))
        assert solution_cost(fig1, imported).total == 60

    def test_unpacked_item_is_assignment_violation(self, fig1):
        model = build_model(fig1, VARIANT_N)
        values = solution_values(fig1, model, brute_force(fig1).solution)
        dropped = {k: v for k, v in values.items() if not (k.startswith("x_3_") and v)}
        with pytest.raises(SolutionImportError, match="assign_3"):
            import_solution(fig1, model, assignment_text(dropped))

    def test_inactive_class_is_linking_violation(self, fig1):
        model = build_model(fig1, VARIANT_N)
        values = solution_values(fig1, model, brute_force(fig1).solution)
        target = next(k for k, v in values.items() if k.startswith("y_1_") and v)
        values[target] = 0
        with pytest.raises(SolutionImportError, match="link_1_"):
            import_solution(fig1, model, assignment_text(values))

    def test_non_binary_value_rejected(self, fig1):
        model = build_model(fig1, VARIANT_N)
        with pytest.raises(SolutionImportError, match="not within"):
            import_solution(fig1, model, "x_1_1 0.5\n")
