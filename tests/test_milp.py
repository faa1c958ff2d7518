from __future__ import annotations

import random
import sys
import tracemalloc

import pytest

from bpps import milp
from bpps.bounds import VARIANT_DAG, VARIANT_N, gamma, k_lower
from bpps.core import Instance, Solution, active_classes, solution_cost
from bpps.exact import brute_force
from bpps.gen import COST_WITH, GRID_M, GRID_N, GeneratorConfig, generate
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
    VARIANT_DDAG,
    VARIANT_STAR,
    _BLOCK,
    MAX_MODEL_VARIABLES,
    ModelTooLargeError,
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

    @pytest.mark.parametrize("variant, count", [(VARIANT_N, 88), (VARIANT_STAR, 55)])
    def test_a_model_past_the_size_budget_is_refused(self, fig1, monkeypatch, variant, count):
        monkeypatch.setattr(milp, "MAX_MODEL_VARIABLES", count)
        assert build_model(fig1, variant).variable_count == count
        monkeypatch.setattr(milp, "MAX_MODEL_VARIABLES", count - 1)
        with pytest.raises(ModelTooLargeError) as info:
            build_model(fig1, variant)
        assert str(info.value) == (
            f"variant {variant} would have (n + m + 1) * k = {count} variables, more than {count - 1}"
        )

    def test_the_grid_models_are_well_inside_the_budget(self):
        n, m = max(GRID_N), max(GRID_M)  # the largest model has k = n
        assert 10 * (n + m + 1) * n <= MAX_MODEL_VARIABLES

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


#: One edit each of the rendered fig1 DDAG model, and the error it must raise.
MALFORMED_LP_EDITS = [
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
]
MALFORMED_LP_IDS = [
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
]


@pytest.mark.parametrize("old, new, message", MALFORMED_LP_EDITS, ids=MALFORMED_LP_IDS)
def test_parse_lp_rejects_malformed_text(fig1, old, new, message):
    text = render_lp(build_model(fig1, VARIANT_DDAG))
    assert old in text
    with pytest.raises(LpFormatError) as info:
        parse_lp(text.replace(old, new, 1))
    assert str(info.value) == message


def drop_row(text: str, name: str) -> str:
    """``text`` without the lines of row ``name``, continuation lines too."""
    kept, dropping = [], False
    for line in text.splitlines(keepends=True):
        if ":" in line or not line.startswith(" "):  # not a continuation
            dropping = line.startswith(f" {name}:")
        if not dropping:
            kept.append(line)
    return "".join(kept)


@pytest.mark.parametrize(
    "variant, edit, message",
    [
        (
            VARIANT_N,
            lambda text: drop_row(text, "assign_3"),
            "read 7 assignment rows; the header implies 8",
        ),
        (
            VARIANT_DDAG,
            lambda text: drop_row(text, "cap_8"),
            "read 7 capacity rows; the header implies 8",
        ),
        (
            VARIANT_N,
            lambda text: drop_row(text, "link_2_5_1"),
            "read 63 linking rows; the header implies 64",
        ),
        (
            VARIANT_DAG,
            lambda text: text.replace("variant=DAG", "variant=N", 1),
            "read 2 mci rows; the header implies 0",
        ),
        (
            VARIANT_DDAG,
            lambda text: drop_row(text, "mbi"),
            "read 0 mbi rows; the header implies 1",
        ),
    ],
    ids=["missing-assign", "missing-cap", "missing-link", "mci-in-n", "missing-mbi"],
)
def test_parse_lp_refuses_row_counts_the_header_does_not_imply(fig1, variant, edit, message):
    # Without the check, the model without assign_3 parsed, and
    # import_solution then returned a packing that left item 3 out.
    text = render_lp(build_model(fig1, variant))
    edited = edit(text)
    assert edited != text
    with pytest.raises(LpFormatError) as info:
        parse_lp(edited)
    assert str(info.value) == message


def test_non_ascii_lp_file_is_a_format_error(tmp_path):
    # At the end, the error comes from a later block than the first, after
    # rows have been read.
    inst = Instance((2,) * 60, 5, (1, 2) * 30, (1, 1), (1, 1), 7)
    text = render_lp(build_model(inst, VARIANT_N))
    assert len(text) > 2 * _BLOCK
    path = tmp_path / "model.lp"
    for edited in ("\\ café\n" + text, text + "\\ café\n"):
        path.write_bytes(edited.encode("utf-8"))
        with pytest.raises(LpFormatError, match="is not ASCII text"):
            parse_lp_file(path)


@pytest.mark.parametrize(
    "old, digits_at, message",
    [
        (" = 1\n", " = {}\n", "5000-digit rhs of row 'assign_1'"),
        (" obj: 10 z_1 ", " obj: {} z_1 ", "5000-digit coefficient in objective"),
        (" cap_1: 3 x_1_1 ", " cap_1: {} x_1_1 ", "5000-digit coefficient in row cap_1"),
        (" k=8 ", " k={} ", "5000-digit header value k"),
        (" = 1\n", " = -{}\n", "5000-digit rhs of row 'assign_1'"),
    ],
    ids=["rhs", "objective-coefficient", "row-coefficient", "header-value", "signed-rhs"],
)
def test_integer_past_the_conversion_limit_is_a_format_error(
    fig1, tmp_path, old, digits_at, message
):
    # int() refuses decimal strings longer than the interpreter's limit
    # (4,300 digits by default) with a ValueError.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        text = render_lp(build_model(fig1, VARIANT_N))
        assert old in text
        edited = text.replace(old, digits_at.format("9" * 5000), 1)
        path = tmp_path / "model.lp"
        path.write_text(edited, encoding="ascii")
        for read, source in ((parse_lp, edited), (parse_lp_file, path)):
            with pytest.raises(LpFormatError) as info:
                read(source)
            assert str(info.value) == message
    finally:
        sys.set_int_max_str_digits(limit)


class TestReaderMemory:
    """The reader keeps one model, with no copy of the text beside it."""

    @staticmethod
    def assert_shared(model: MilpModel) -> None:
        terms = [*model.objective, *(term for row in model.rows for term in row.terms)]
        assert len({id(term) for term in terms}) == len(set(terms))
        names = [*model.variables, *(name for name, _ in terms)]
        assert len({id(name) for name in names}) == len(set(names))
        senses = [row.sense for row in model.rows]
        assert len({id(sense) for sense in senses}) == len(set(senses)) <= 3

    def test_equal_terms_names_and_senses_are_one_object(self, tmp_path):
        rng = random.Random(83)
        for _ in range(6):
            inst = random_instance(rng)
            for variant in MODEL_VARIANTS:
                path = emit_lp_file(build_model(inst, variant), tmp_path / "model.lp")
                self.assert_shared(parse_lp_file(path))
                self.assert_shared(parse_lp(path.read_text()))

    def test_file_reader_peak_over_retained_size(self, tmp_path):
        # 40k linking rows.  Measured with Python 3.11: the peak is 1.37
        # times what the parsed model keeps.  It was 1.46 times with the
        # reader's term tables alive to the end, 1.40 with one term table,
        # and 1.59 when the reader held the whole text, its lines and every
        # row's tokens.
        cfg = GeneratorConfig(200, 10, 1000, COST_WITH, "small", "small", seed=0)
        built = build_model(generate(cfg), VARIANT_N)
        path = emit_lp_file(built, tmp_path / "n200.lp")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model = parse_lp_file(path)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= 1.4 * (after - before)
        assert model == built  # the 2.9 MB file is read in many blocks


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x_1_1\n", "line 1: expected '<name> <value>'"),
            ("# values\nx_1_1 abc\n", "line 2: bad value 'abc'"),
        ],
        ids=["no-value", "not-a-number"],
    )
    def test_malformed_line_names_its_number(self, fig1, text, message):
        model = build_model(fig1, VARIANT_N)
        with pytest.raises(SolutionImportError) as info:
            import_solution(fig1, model, text)
        assert str(info.value) == message

    def test_non_binary_value_rejected(self, fig1):
        model = build_model(fig1, VARIANT_N)
        with pytest.raises(SolutionImportError, match="not within"):
            import_solution(fig1, model, "x_1_1 0.5\n")

    @pytest.mark.parametrize(
        "inst",
        [
            Instance((3, 3, 3), 6, (1, 1, 2), (1, 1), (2, 3), 10),
            Instance((3,) * 9, 6, (1,) * 9, (1,), (2,), 10),
            Instance((3, 3, 3, 3, 1, 1, 1, 1), 6, (1, 1, 1, 1, 2, 2, 3, 3), (1, 1, 1), (2, 3, 3), 10),
        ],
        ids=["fewer-items", "more-items", "more-classes"],
    )
    def test_instance_of_another_size_is_refused(self, fig1, inst):
        model = build_model(fig1, VARIANT_N)
        text = assignment_text(solution_values(fig1, model, brute_force(fig1).solution))
        message = f"model has n = 8, m = 2; instance has n = {inst.n}, m = {inst.m}"
        with pytest.raises(SolutionImportError, match=f"^{message}$"):
            import_solution(inst, model, text)
