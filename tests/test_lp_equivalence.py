"""The LP writer and reader against the straightforward versions they replaced.

``ref_*`` below are verbatim copies of the token-by-token writer and reader
that ``bpps.milp`` used before its per-row fast paths (the reader before it
also checked the model).  ``two_phase_*`` are verbatim copies of the reader
that came next: it held the whole text, split it into rows, then parsed
them, and checked the model.  Every case compares bytes and parsed models:
the fast paths and the one-pass reader must change nothing but the time
and memory taken, and the one-pass reader must raise the same errors.
``ref_import_solution`` is a verbatim copy of the solution import that
restated the assignment, capacity and linking checks from the instance;
the import that evaluates the model's rows must return the same packing,
or raise the same error naming the same row, on points with one fault.
"""

from __future__ import annotations

import random
import re
from dataclasses import replace
from itertools import chain, permutations
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator

import pytest

from bpps.bounds import VARIANT_N
from bpps.core import Instance, Solution
from bpps.exact import brute_force
from bpps.milp import (
    MODEL_VARIANTS,
    LpFormatError,
    MilpModel,
    Row,
    SolutionImportError,
    VARIANT_DDAG,
    _ROW_PREFIXES,
    _family_of,
    _round_binary,
    _wrap,
    build_model,
    import_solution,
    parse_lp,
    parse_lp_file,
    render_lp,
    var_x,
    var_y,
    var_z,
)
from conftest import fig1_instance, random_instance
from test_milp import MALFORMED_LP_EDITS, MALFORMED_LP_IDS, solution_values

_LINE_WIDTH = 78


def ref_term_tokens(terms: Iterable[tuple[str, int]]) -> list[str]:
    tokens: list[str] = []
    for pos, (name, coeff) in enumerate(terms):
        if pos == 0:
            if coeff < 0:
                tokens.append("-")
        else:
            tokens.append("-" if coeff < 0 else "+")
        mag = abs(coeff)
        if mag == 1:
            tokens.append(name)
        else:
            tokens.append(f"{mag} {name}")
    return tokens


def ref_wrap(prefix: str, tokens: list[str], out: list[str]) -> None:
    line = prefix
    for tok in tokens:
        if line and len(line) + 1 + len(tok) > _LINE_WIDTH:
            out.append(line)
            line = " " + tok
        else:
            line = f"{line} {tok}" if line else " " + tok
    if line:
        out.append(line)


def ref_render_lp(model: MilpModel) -> str:
    out: list[str] = [
        f"\\ bpps variant={model.variant} k={model.k} n={model.n} m={model.m}",
        "Minimize",
    ]
    ref_wrap(" obj:", ref_term_tokens(model.objective), out)
    out.append("Subject To")
    for row in model.rows:
        tokens = ref_term_tokens(row.terms)
        tokens.append(row.sense)
        tokens.append(str(row.rhs))
        ref_wrap(f" {row.name}:", tokens, out)
    out.append("Binaries")
    ref_wrap("", list(model.variables), out)
    out.append("End")
    return "\n".join(out) + "\n"


_SENSES = ("<=", ">=", "=")


def ref_integer(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise LpFormatError(f"{what} is not an integer: {text!r}") from None


def ref_parse_terms(tokens: list[str], where: str) -> tuple[tuple[str, int], ...]:
    terms: list[tuple[str, int]] = []
    sign = 1
    coeff: int | None = None
    for tok in tokens:
        if tok == "+":
            sign = 1
        elif tok == "-":
            sign = -1
        elif tok.isdecimal():
            coeff = int(tok)
        else:
            value = sign * (1 if coeff is None else coeff)
            terms.append((tok, value))
            sign, coeff = 1, None
    if coeff is not None:
        raise LpFormatError(f"dangling coefficient in {where}")
    return tuple(terms)


def ref_parse_lp(text: str) -> MilpModel:
    meta: dict[str, str] = {}
    section = None
    objective_tokens: list[str] = []
    row_chunks: list[list[str]] = []
    binary_names: list[str] = []
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("\\"):
            for tok in stripped[1:].split():
                if "=" in tok:
                    key, value = tok.split("=", 1)
                    meta[key] = value
            continue
        lowered = stripped.lower()
        if lowered == "minimize":
            section = "objective"
            continue
        if lowered == "subject to":
            section = "rows"
            continue
        if lowered == "binaries":
            section = "binaries"
            continue
        if lowered == "end":
            section = None
            continue
        tokens = stripped.split()
        if section == "objective":
            objective_tokens.extend(tokens)
        elif section == "rows":
            for tok in tokens:
                if tok.endswith(":"):
                    row_chunks.append([tok])
                elif row_chunks:
                    row_chunks[-1].append(tok)
                else:
                    raise LpFormatError("constraint tokens before a row name")
        elif section == "binaries":
            binary_names.extend(tokens)
        else:
            raise LpFormatError(f"unexpected line outside sections: {stripped!r}")

    for key in ("variant", "k", "n", "m"):
        if key not in meta:
            raise LpFormatError(f"missing {key!r} in the header comment")

    if objective_tokens and objective_tokens[0].endswith(":"):
        objective_tokens = objective_tokens[1:]
    objective = ref_parse_terms(objective_tokens, "objective")

    rows: list[Row] = []
    for chunk in row_chunks:
        name = chunk[0][:-1]
        body = chunk[1:]
        sense_pos = next(
            (p for p, tok in enumerate(body) if tok in _SENSES), None
        )
        if sense_pos is None or sense_pos != len(body) - 2:
            raise LpFormatError(f"row {name!r} lacks a trailing sense and rhs")
        terms = ref_parse_terms(body[:sense_pos], f"row {name}")
        _family_of(name)  # rejects a row name outside the five families
        rhs = ref_integer(body[-1], f"rhs of row {name!r}")
        rows.append(Row(name, terms, body[sense_pos], rhs))
    return MilpModel(
        variant=meta["variant"],
        k=ref_integer(meta["k"], "header value k"),
        n=ref_integer(meta["n"], "header value n"),
        m=ref_integer(meta["m"], "header value m"),
        variables=tuple(binary_names),
        objective=objective,
        rows=tuple(rows),
    )


_SENSE_SET = frozenset(_SENSES)
_SECTIONS = {"minimize": "objective", "subject to": "rows", "binaries": "binaries", "end": None}


def two_phase_parse_terms(tokens: list[str], row: str | None = None) -> tuple[tuple[str, int], ...]:
    """Terms of the objective, or of the named row, from their tokens."""
    terms: list[tuple[str, int]] = []
    sign = 1
    coeff: int | None = None
    for tok in tokens:
        if tok == "+":
            sign = 1
        elif tok == "-":
            sign = -1
        elif tok.isdecimal():
            coeff = int(tok)
        else:
            value = sign * (1 if coeff is None else coeff)
            terms.append((tok, value))
            sign, coeff = 1, None
    if coeff is not None:
        where = "objective" if row is None else f"row {row}"
        raise LpFormatError(f"dangling coefficient in {where}")
    return tuple(terms)


def two_phase_parse_lp(text: str) -> MilpModel:
    meta: dict[str, str] = {}
    section = None
    objective_tokens: list[str] = []
    row_chunks: list[list[str]] = []
    binary_names: list[str] = []
    for raw in text.splitlines():
        tokens = raw.split()
        if not tokens:
            continue
        first = tokens[0]
        if first[0] == "\\":
            for tok in raw.strip()[1:].split():
                if "=" in tok:
                    key, value = tok.split("=", 1)
                    meta[key] = value
            continue
        if len(tokens) <= 2:  # a section keyword is one or two words
            lowered = raw.strip().lower()
            if lowered in _SECTIONS:
                section = _SECTIONS[lowered]
                continue
        if section == "rows":
            # A token ending in ":" starts a row.  Emitted lines either
            # start one (the only ":" ends their first token) or continue
            # one (no ":"); other lines take the token-by-token scan.
            if ":" not in raw and row_chunks:
                row_chunks[-1].extend(tokens)
            elif first[-1] == ":" and raw.count(":") == 1:
                row_chunks.append(tokens)
            else:
                for tok in tokens:
                    if tok.endswith(":"):
                        row_chunks.append([tok])
                    elif row_chunks:
                        row_chunks[-1].append(tok)
                    else:
                        raise LpFormatError("constraint tokens before a row name")
        elif section == "objective":
            objective_tokens.extend(tokens)
        elif section == "binaries":
            binary_names.extend(tokens)
        else:
            raise LpFormatError(f"unexpected line outside sections: {raw.strip()!r}")

    for key in ("variant", "k", "n", "m"):
        if key not in meta:
            raise LpFormatError(f"missing {key!r} in the header comment")

    if objective_tokens and objective_tokens[0].endswith(":"):
        objective_tokens = objective_tokens[1:]
    objective = two_phase_parse_terms(objective_tokens)

    rows: list[Row] = []
    for chunk in row_chunks:
        name = chunk[0][:-1]
        body = chunk[1:-2]
        # The sense is the last token but one and no earlier token is one.
        if len(chunk) < 3 or chunk[-2] not in _SENSE_SET or not _SENSE_SET.isdisjoint(body):
            raise LpFormatError(f"row {name!r} lacks a trailing sense and rhs")
        terms = two_phase_parse_terms(body, name)
        if not name.startswith(_ROW_PREFIXES):
            _family_of(name)  # raises: the name is outside the five families
        rhs = chunk[-1]
        # Plain digits skip _integer, whose message would be built per row.
        rhs = int(rhs) if rhs.isdecimal() else ref_integer(rhs, f"rhs of row {name!r}")
        rows.append(Row(name, terms, chunk[-2], rhs))

    variant = meta["variant"]
    k = ref_integer(meta["k"], "header value k")
    n = ref_integer(meta["n"], "header value n")
    m = ref_integer(meta["m"], "header value m")
    if variant not in MODEL_VARIANTS:
        raise LpFormatError(f"unknown variant {variant!r} in the header comment")
    if len(binary_names) != (n + m + 1) * k:
        raise LpFormatError(
            f"Binaries lists {len(binary_names)} variables, not (n + m + 1) * k = {(n + m + 1) * k}"
        )
    known = set(binary_names)
    named = chain(objective, chain.from_iterable(map(attrgetter("terms"), rows)))
    if not known.issuperset(map(itemgetter(0), named)):
        owners = [("objective", objective)] + [(f"row {row.name!r}", row.terms) for row in rows]
        for owner, terms in owners:
            for var, _ in terms:
                if var not in known:
                    raise LpFormatError(f"{owner} names {var!r}, which Binaries does not list")
    return MilpModel(
        variant=variant,
        k=k,
        n=n,
        m=m,
        variables=tuple(binary_names),
        objective=objective,
        rows=tuple(rows),
    )


def ref_import_solution(inst: Instance, model: MilpModel, assignment_text: str) -> Solution:
    """Rebuild a packing from solver variable values.

    The text holds ``<variable-name> <value>`` lines; blank lines, lines
    starting with ``#``, and names outside the model are ignored, and
    missing variables count as 0.  The assignment, bin-use, capacity, and
    linking relations are re-checked on the imported values; the first
    violated one is reported by row name.
    """
    known = set(model.variables)
    values: dict[str, int] = {}
    for lineno, raw in enumerate(assignment_text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SolutionImportError(f"line {lineno}: expected '<name> <value>'")
        name, text_value = parts
        if name not in known:
            continue
        try:
            value = float(text_value)
        except ValueError as exc:
            raise SolutionImportError(f"line {lineno}: bad value {text_value!r}") from exc
        values[name] = _round_binary(name, value)

    k = model.k
    bins: list[list[int]] = [[] for _ in range(k)]
    for i in inst.items:
        chosen = [b for b in range(1, k + 1) if values.get(var_x(i, b), 0) == 1]
        if len(chosen) != 1:
            raise SolutionImportError(
                f"assignment violated at assign_{i}: item packed {len(chosen)} times"
            )
        bins[chosen[0] - 1].append(i)

    for b in range(1, k + 1):
        items = bins[b - 1]
        z = values.get(var_z(b), 0)
        if items and z != 1:
            raise SolutionImportError(f"capacity violated at cap_{b}: used bin has z = 0")
        lhs = sum(inst.weight(i) for i in items)
        lhs += sum(
            inst.setup_weights[c - 1]
            for c in inst.classes
            if values.get(var_y(c, b), 0) == 1
        )
        if lhs > inst.capacity * z:
            raise SolutionImportError(
                f"capacity violated at cap_{b}: load {lhs} > {inst.capacity * z}"
            )

    for b in range(1, k + 1):
        for i in bins[b - 1]:
            c = inst.item_class(i)
            if values.get(var_y(c, b), 0) != 1:
                raise SolutionImportError(
                    f"linking violated at link_{c}_{i}_{b}: item packed, class inactive"
                )
    return Solution(tuple(frozenset(b) for b in bins if b))


# ---------------------------------------------------------------- helpers


def assert_same(model: MilpModel) -> str:
    """Both writers give the same bytes; both readers give back the model."""
    text = render_lp(model)
    assert text == ref_render_lp(model)
    assert parse_lp(text) == ref_parse_lp(text) == two_phase_parse_lp(text) == model
    return text


def reshape_lines(text: str, rng: random.Random, edits: int = 12) -> str:
    """The same model with lines split and joined by hand.

    Only lines inside the objective, rows and binaries sections change: a
    line is split between two tokens (the second part becomes an indented
    continuation line) or joined to the next line of its section.
    """
    lines = text.split("\n")
    markers = {"Minimize", "Subject To", "Binaries", "End"}
    for _ in range(edits):
        body = [
            pos for pos in range(len(lines) - 1)
            if lines[pos] not in markers and not lines[pos].startswith("\\") and lines[pos]
        ]
        pos = rng.choice(body)
        tokens = lines[pos].split()
        if rng.random() < 0.5 and len(tokens) > 1:
            cut = rng.randint(1, len(tokens) - 1)
            lines[pos:pos + 1] = [" " + " ".join(tokens[:cut]), " " + " ".join(tokens[cut:])]
        elif lines[pos + 1] not in markers:
            lines[pos:pos + 2] = [lines[pos] + lines[pos + 1]]
    return "\n".join(lines)


def read(parse, source) -> MilpModel | str:
    """What ``parse(source)`` gives: the model, or the message of its error."""
    try:
        return parse(source)
    except LpFormatError as exc:
        return str(exc)


def random_models(seed: int, count: int, **sizes) -> list[MilpModel]:
    rng = random.Random(seed)
    return [
        build_model(inst, variant)
        for inst in (random_instance(rng, **sizes) for _ in range(count))
        for variant in MODEL_VARIANTS
    ]


def imported(inst: Instance, model: MilpModel, text: str) -> Solution | str:
    """Both imports' outcome: the same solution, or a ``SolutionImportError``
    with the same message head (the family and row name, or the whole
    message of a value that is not 0/1)."""
    outcomes = []
    for import_ in (import_solution, ref_import_solution):
        try:
            outcomes.append(import_(inst, model, text))
        except SolutionImportError as exc:
            outcomes.append(str(exc).split(":", 1)[0])
    assert outcomes[0] == outcomes[1], text
    return outcomes[0]


def single_faults(inst: Instance, model: MilpModel, rng: random.Random) -> Iterator[dict[str, float]]:
    """The brute-force optimum's values, then copies that each hold one fault."""
    optimum = brute_force(inst).solution
    bin_of = {i: b for b, items in enumerate(optimum.bins, start=1) for i in items}
    values = solution_values(inst, model, optimum)
    yield values
    for i, b in bin_of.items():
        yield {**values, var_x(i, b): 0}
        other = rng.choice([a for a in range(1, model.k + 1) if a != b])
        yield {**values, var_x(i, other): 1}
    for b, items in enumerate(optimum.bins, start=1):
        for c in sorted({inst.item_class(i) for i in items}):
            yield {**values, var_y(c, b): 0}
        yield {**values, var_z(b): 0}
    yield {**values, rng.choice(model.variables): 0.5}


def values_text(values: dict[str, float]) -> str:
    return "".join(f"{name} {value}\n" for name, value in values.items() if value)


# ---------------------------------------------------------------- cases


@pytest.mark.parametrize("seed", [3, 5, 8])
def test_random_models_all_variants(seed):
    for model in random_models(seed, 8, max_n=14, max_m=4, max_d=60):
        assert_same(model)


def test_capacity_rows_longer_than_a_line():
    inst = Instance(
        weights=tuple(range(10, 40)),
        capacity=60,
        class_of=(1, 2, 3) * 10,
        setup_weights=(11, 12, 13),
        setup_costs=(4, 0, 6),
        bin_cost=9,
    )
    for variant in MODEL_VARIANTS:
        model = build_model(inst, variant)
        text = assert_same(model)
        cap_1 = text.split(" cap_1:", 1)[1].split(" cap_2:", 1)[0]
        assert cap_1.count("\n") > 1, "cap_1 spans several lines"


def test_wrap_around_the_line_width():
    rng = random.Random(19)
    pool = ["+", "-", "x_1_1", "12 y_3_10", "z_7", "<=", "0", "x_100_200"]
    widths = set()
    for prefix in ("", " obj:", " cap_12:"):
        for _ in range(400):
            tokens = [rng.choice(pool) for _ in range(rng.randint(0, 16))]
            widths.add(len(" ".join([prefix, *tokens])))
            new: list[str] = []
            ref: list[str] = []
            _wrap(prefix, tokens, new)
            ref_wrap(prefix, tokens, ref)
            assert new == ref, (prefix, tokens)
    assert {_LINE_WIDTH - 1, _LINE_WIDTH, _LINE_WIDTH + 1} <= widths


def test_first_term_with_a_negative_coefficient():
    for model in random_models(11, 4):
        reversed_rows = tuple(row._replace(terms=row.terms[::-1]) for row in model.rows)
        negated = tuple(
            row._replace(terms=tuple((name, -3 * coeff) for name, coeff in row.terms))
            for row in model.rows
        )
        for rows in (reversed_rows, negated):
            objective = tuple((name, -coeff) for name, coeff in model.objective)
            edited = replace(model, rows=rows, objective=objective)
            assert edited.objective[0][1] < 0
            assert any(row.terms[0][1] < 0 for row in edited.rows)
            assert_same(edited)


def test_zero_cost_and_empty_objectives():
    inst = Instance((3, 3, 2), 4, (1, 2, 2), (1, 0), (0, 0), 1)
    for variant in MODEL_VARIANTS:
        model = build_model(inst, variant)
        assert {coeff for _, coeff in model.objective} == {1}
        assert_same(model)
        assert_same(replace(model, objective=()))
        assert_same(replace(model, objective=(("z_1", 0),)))


@pytest.mark.parametrize("seed", [13, 17])
def test_hand_split_and_joined_lines(seed):
    rng = random.Random(seed)
    for model in random_models(seed, 6, max_n=12):
        edited = reshape_lines(render_lp(model), rng)
        assert parse_lp(edited) == ref_parse_lp(edited) == model


def test_row_split_over_two_lines_and_two_rows_on_one_line():
    model = build_model(fig1_instance(), VARIANT_DDAG)
    text = render_lp(model)
    split = text.replace(" - y_1_1 <= 0\n", " - y_1_1\n <= 0\n", 1)
    joined = text.replace(" = 1\n assign_2:", " = 1 assign_2:", 1)
    both = joined.replace(" <= 0\n link_1_1_2:", " <=\n 0 link_1_1_2:", 1)
    for edited in (split, joined, both):
        assert edited != text
        assert parse_lp(edited) == ref_parse_lp(edited) == model


def test_colon_inside_a_token():
    model = build_model(fig1_instance(), VARIANT_N)
    text = render_lp(model)
    # Renaming a variable everywhere keeps the model whole; its rows now
    # hold a ":" that does not end a row name.
    renamed = re.sub(r"\bx_2_3\b", "x:2_3", text)
    assert renamed.count("x:2_3") == 4
    expected = ref_parse_lp(renamed)
    assert parse_lp(renamed) == expected
    assert ("x:2_3", 1) in expected.rows[1].terms
    assert render_lp(expected) == ref_render_lp(expected) == renamed
    # A row name holding a ":" of its own.
    named = text.replace(" assign_1:", " assign_a:1:", 1)
    assert parse_lp(named) == ref_parse_lp(named)


@pytest.mark.parametrize(
    "old, new",
    [
        (" = 1\n", " = = 1\n"),
        (" = 1\n", " 1\n"),
        ("Subject To\n", "Subject To\n: x_1_1\n"),
        ("Subject To\n", "Subject To\n x_1_1 assign_0: - x_1_2 = 1\n"),
    ],
    ids=["two-senses", "no-sense", "empty-row-name", "tokens-then-row"],
)
def test_dialect_errors_match_the_reference(old, new):
    """Errors test_milp.py does not pin: the same message as the reference."""
    text = render_lp(build_model(fig1_instance(), VARIANT_N))
    assert old in text
    edited = text.replace(old, new, 1)
    with pytest.raises(LpFormatError) as ref:
        ref_parse_lp(edited)
    with pytest.raises(LpFormatError) as new_error:
        parse_lp(edited)
    assert str(new_error.value) == str(ref.value)


@pytest.mark.parametrize("seed", [23, 29])
def test_text_and_file_readers_match_the_two_phase_reader(seed, tmp_path):
    rng = random.Random(seed)
    path = tmp_path / "model.lp"
    for model in random_models(seed, 6, max_n=12):
        text = render_lp(model)
        for lines in (text, reshape_lines(text, rng)):
            path.write_text(lines, encoding="ascii")
            assert parse_lp(lines) == parse_lp_file(path) == two_phase_parse_lp(lines) == model


#: Edits whose fault is in a row: the reader raises it as it finishes the
#: row, where the two-phase reader raised it after the header and objective.
ROW_FAULTS = {"row-name", "dangling-coefficient", "no-sense-and-rhs", "non-integer-rhs"}


def test_two_edits_raise_what_the_two_phase_reader_raises(tmp_path):
    """Both readers raise the same error; without a row fault, the two-phase
    reader's error too.  With one, the fault read first: the non-integer
    rhs of assign_1 comes before a stray line after End, which the
    two-phase reader named."""
    text = render_lp(build_model(fig1_instance(), VARIANT_DDAG))
    path = tmp_path / "model.lp"
    pairs = 0
    edits = zip(MALFORMED_LP_IDS, MALFORMED_LP_EDITS)
    for (id1, (old1, new1, _)), (id2, (old2, new2, _)) in permutations(edits, 2):
        edited = text.replace(old1, new1, 1)
        if old2 not in edited:
            continue
        edited = edited.replace(old2, new2, 1)
        path.write_text(edited, encoding="ascii")
        message = read(parse_lp, edited)
        assert isinstance(message, str), (id1, id2)
        assert read(parse_lp_file, path) == message, (id1, id2)
        if ROW_FAULTS.isdisjoint((id1, id2)):
            assert message == read(two_phase_parse_lp, edited), (id1, id2)
        if (id1, id2) == ("non-integer-rhs", "outside-sections"):
            assert message == "rhs of row 'assign_1' is not an integer: 'one'"
        pairs += 1
    assert pairs == 103


@pytest.mark.parametrize("old, new, message", MALFORMED_LP_EDITS, ids=MALFORMED_LP_IDS)
def test_single_edits_through_the_file_reader(old, new, message, tmp_path):
    edited = render_lp(build_model(fig1_instance(), VARIANT_DDAG)).replace(old, new, 1)
    path = tmp_path / "model.lp"
    path.write_text(edited, encoding="ascii")
    assert read(parse_lp_file, path) == read(two_phase_parse_lp, edited) == message


def test_file_lines_break_where_splitlines_breaks(tmp_path):
    """Vertical tab, form feed and \\x1c-\\x1e end a line in a file too."""
    model = build_model(fig1_instance(), VARIANT_N)
    edited = render_lp(model).replace("\nSubject To\n", "\fSubject To\v", 1)
    for row, brk in enumerate("\x1c\x1d\x1e", start=2):
        edited = edited.replace(f" = 1\n assign_{row}:", f" = 1{brk}assign_{row}:", 1)
    assert all(brk in edited for brk in "\v\f\x1c\x1d\x1e")
    path = tmp_path / "model.lp"
    path.write_text(edited, encoding="ascii")
    assert parse_lp_file(path) == parse_lp(edited) == two_phase_parse_lp(edited) == model


# ------------------------------------------- rows of two terms, on one line
#
# The writer puts a row of two unit terms on one line when it fits, and
# the reader builds ``name: a +/- b sense 0`` without its term loop once it
# has read both unit terms.  These cases sit at the edges of both paths.

#: A linking row whose two terms were read before it: x_2_1 in assign_2 and
#: (y_1_1, -1) in link_1_1_1.
LINK = " link_1_2_1: x_2_1 - y_1_1 <= 0\n"


def read_everywhere(text: str, path) -> MilpModel | str:
    """What every reader gives for ``text``: one model, or one error message.

    ``ref_parse_lp`` checks no model, so it is compared where the text
    holds one.
    """
    path.write_text(text, encoding="ascii")
    outcome = read(parse_lp, text)
    assert read(parse_lp_file, path) == read(two_phase_parse_lp, text) == outcome
    if isinstance(outcome, MilpModel):
        assert ref_parse_lp(text) == outcome
    return outcome


def edit_links(model: MilpModel, edit) -> MilpModel:
    """The model with ``edit`` applied to each of its linking rows."""
    rows = tuple(edit(row) if row.name.startswith("link_") else row for row in model.rows)
    return replace(model, rows=rows)


@pytest.mark.parametrize("width", [_LINE_WIDTH - 1, _LINE_WIDTH, _LINE_WIDTH + 1])
def test_two_term_rows_at_the_line_width(width, tmp_path):
    def widen(row: Row) -> Row:
        (a, _), (b, _) = row.terms
        line = f" {row.name}: {a} - {b} {row.sense} {row.rhs}"
        return row._replace(name=row.name + "w" * (width - len(line)))

    model = edit_links(build_model(fig1_instance(), VARIANT_DDAG), widen)
    text = assert_same(model)
    assert read_everywhere(text, tmp_path / "model.lp") == model
    starts = [line for line in text.splitlines() if line.startswith(" link_")]
    assert len(starts) == model.n * model.k
    if width <= _LINE_WIDTH:
        assert {len(line) for line in starts} == {width}
    else:  # each row breaks before its rhs
        assert {len(line) for line in starts} == {width - 2}
        assert text.count("\n 0\n") == model.n * model.k


@pytest.mark.parametrize(
    "coeffs",
    [(1, 1), (2, -1), (1, -3), (1, 2), (-1, -1), (-1, 1), (-4, 5)],
    ids=["a-plus-b", "first-not-unit", "second-minus-3", "second-plus-2",
         "negative-first", "negative-first-plus", "neither-unit"],
)
@pytest.mark.parametrize("sense, rhs", [("<=", 0), (">=", 0), ("=", 1), ("<=", -1)])
def test_two_term_rows_of_other_coefficients(coeffs, sense, rhs, tmp_path):
    def recoefficient(row: Row) -> Row:
        (a, _), (b, _) = row.terms
        return row._replace(terms=((a, coeffs[0]), (b, coeffs[1])), sense=sense, rhs=rhs)

    model = edit_links(build_model(fig1_instance(), VARIANT_DDAG), recoefficient)
    assert read_everywhere(assert_same(model), tmp_path / "model.lp") == model


def test_two_term_first_line_continued_on_the_next(tmp_path):
    text = render_lp(build_model(fig1_instance(), VARIANT_DDAG))
    assert LINK in text
    continued = text.replace(LINK, " link_1_2_1: x_2_1 - y_1_1\n + z_1 <= 0\n", 1)
    model = read_everywhere(continued, tmp_path / "model.lp")
    assert (("x_2_1", 1), ("y_1_1", -1), ("z_1", 1)) in (row.terms for row in model.rows)
    # A whole first line continued by a third term puts the sense in the body.
    extended = text.replace(LINK, LINK + " + z_1\n", 1)
    message = "row 'link_1_2_1' lacks a trailing sense and rhs"
    assert read_everywhere(extended, tmp_path / "model.lp") == message


@pytest.mark.parametrize(
    "comment", ["\\ x: a note\n", "\\ x:\n", "\\x: y: z\n"], ids=["words", "bare", "two-colons"]
)
def test_comment_inside_subject_to(comment, tmp_path):
    model = build_model(fig1_instance(), VARIANT_DDAG)
    text = render_lp(model)
    commented = text.replace(LINK, comment + LINK + comment, 1)
    commented = commented.replace("Subject To\n", "Subject To\n" + comment, 1)
    assert commented.count(comment) == 3
    assert read_everywhere(commented, tmp_path / "model.lp") == model


#: Six-token linking rows the short path must not build as they stand, and
#: what the readers give: an error, or (None) the model as built.
TWO_TERM_FAULTS = {
    "row-name": (" lnk_1_2_1: x_2_1 - y_1_1 <= 0\n", "unrecognized row name 'lnk_1_2_1'"),
    "short-prefix": (" lin_1_2_1: x_2_1 - y_1_1 <= 0\n", "unrecognized row name 'lin_1_2_1'"),
    "empty-name": (" :: x_2_1 - y_1_1 <= 0\n", "unrecognized row name ':'"),
    "sense-in-body": (
        " link_1_2_1: x_2_1 <= y_1_1 <= 0\n", "row 'link_1_2_1' lacks a trailing sense and rhs"
    ),
    "sense-last": (
        " link_1_2_1: x_2_1 - y_1_1 0 <=\n", "row 'link_1_2_1' lacks a trailing sense and rhs"
    ),
    "no-sense": (
        " link_1_2_1: x_2_1 - y_1_1 =< 0\n", "row 'link_1_2_1' lacks a trailing sense and rhs"
    ),
    "no-sign": (
        " link_1_2_1: x_2_1 * y_1_1 <= 0\n",
        "row 'link_1_2_1' names '*', which Binaries does not list",
    ),
    "dangling": (" link_1_2_1: x_2_1 - 2 <= 0\n", "dangling coefficient in row link_1_2_1"),
    "unlisted": (
        " link_1_2_1: x_2_1 - y_9_9 <= 0\n",
        "row 'link_1_2_1' names 'y_9_9', which Binaries does not list",
    ),
    "decimal-rhs": (
        " link_1_2_1: x_2_1 - y_1_1 <= 0.0\n",
        "rhs of row 'link_1_2_1' is not an integer: '0.0'",
    ),
    "padded-rhs": (" link_1_2_1: x_2_1 - y_1_1 <= 00\n", None),
}


@pytest.mark.parametrize("new, expected", TWO_TERM_FAULTS.values(), ids=TWO_TERM_FAULTS)
def test_two_term_row_faults_match_the_two_phase_reader(new, expected, tmp_path):
    model = build_model(fig1_instance(), VARIANT_DDAG)
    outcome = read_everywhere(render_lp(model).replace(LINK, new, 1), tmp_path / "model.lp")
    assert outcome == (model if expected is None else expected)


@pytest.mark.parametrize("bin_cost", [1, 10])
@pytest.mark.parametrize("variant", MODEL_VARIANTS)
def test_import_matches_the_reference_on_fig1(bin_cost, variant):
    inst = fig1_instance(bin_cost)
    model = build_model(inst, variant)
    texts = list(map(values_text, single_faults(inst, model, random.Random(bin_cost))))
    assert imported(inst, model, texts[0]) == brute_force(inst).solution
    for text in texts[1:]:
        assert isinstance(imported(inst, model, text), str)


def test_import_matches_the_reference_on_random_instances():
    rng = random.Random(17)
    for _ in range(60):
        inst = random_instance(rng)
        for variant in MODEL_VARIANTS:
            model = build_model(inst, variant)
            texts = list(map(values_text, single_faults(inst, model, rng)))
            assert isinstance(imported(inst, model, texts[0]), Solution)
            for text in texts[1:]:
                assert isinstance(imported(inst, model, text), str)
