"""The LP writer and reader against the straightforward versions they replaced.

``ref_*`` below are verbatim copies of the token-by-token writer and reader
that ``bpps.milp`` used before its per-row fast paths (the reader before it
also checked the model).  Every case compares bytes and parsed models: the
fast paths must change nothing but the time taken.
"""

from __future__ import annotations

import random
import re
from dataclasses import replace
from typing import Iterable

import pytest

from bpps.core import Instance
from bpps.milp import (
    MODEL_VARIANTS,
    LpFormatError,
    MilpModel,
    Row,
    VARIANT_DDAG,
    VARIANT_N,
    _family_of,
    _wrap,
    build_model,
    parse_lp,
    render_lp,
)
from conftest import fig1_instance, random_instance

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


# ---------------------------------------------------------------- helpers


def assert_same(model: MilpModel) -> str:
    """Both writers give the same bytes; both readers give back the model."""
    text = render_lp(model)
    assert text == ref_render_lp(model)
    assert parse_lp(text) == ref_parse_lp(text) == model
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


def random_models(seed: int, count: int, **sizes) -> list[MilpModel]:
    rng = random.Random(seed)
    return [
        build_model(inst, variant)
        for inst in (random_instance(rng, **sizes) for _ in range(count))
        for variant in MODEL_VARIANTS
    ]


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
