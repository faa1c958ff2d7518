"""Compact model builder, LP-format text emission, and solution import.

Four model variants share the same binary variables (item-to-bin ``x``,
class-active-in-bin ``y``, bin-used ``z``); ``VARIANT_FAMILIES`` lists the
row families each has.  ``N``, ``DAG`` and ``DDAG`` use ``k = n``
candidate bins; ``STAR`` has DDAG's rows with ``k`` shrunk to the
per-class packing upper bound.

Models are emitted as plain LP-format text with fixed names: each row
name starts with its family's ``ROW_PREFIX`` (``assign_i``, ``cap_b``,
``link_c_i_b``, ``mci_c``, ``mbi``), and the variables are ``x_i_b``,
``y_c_b`` and ``z_b``, all 1-based.  So the same input always produces
byte-identical files, and the bundled reader parses them back losslessly.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, TextIO

from .bounds import (
    FAMILY_ASSIGNMENT,
    FAMILY_CAPACITY,
    FAMILY_LINKING,
    FAMILY_MBI,
    FAMILY_MCI,
    VARIANT_DDAG,
    VARIANT_FAMILIES,
    bounds_report,
)
from .bpp import DEFAULT_NODE_LIMIT
from .cha import BPP_EXACT, BPP_HEURISTIC, k_upper
from .core import BppsError, Instance, Solution
from .files import write_ascii

VARIANT_STAR = "STAR"
#: ``bounds.VARIANT_FAMILIES`` and ``STAR``, which has DDAG's rows.
VARIANT_FAMILIES = {**VARIANT_FAMILIES, VARIANT_STAR: VARIANT_FAMILIES[VARIANT_DDAG]}
MODEL_VARIANTS = tuple(VARIANT_FAMILIES)
#: Each family's row-name prefix; the five differ in their first two letters.
ROW_PREFIX = {
    FAMILY_ASSIGNMENT: "assign_",
    FAMILY_CAPACITY: "cap_",
    FAMILY_LINKING: "link_",
    FAMILY_MCI: "mci_",
    FAMILY_MBI: "mbi",
}
#: The five prefixes, which the reference readers in the tests match.
_ROW_PREFIXES = tuple(ROW_PREFIX.values())
#: Each family by the first two letters of its prefix.
_FAMILY_OF_LEAD = {prefix[:2]: family for family, prefix in ROW_PREFIX.items()}

#: The most variables, ``(n + m + 1) * k``, a model may have.  Building and
#: rendering take about 0.7 KB per variable, so the largest model allowed
#: takes about 350 MB; the benchmark grid's largest, ``n = 200`` in ``N``,
#: has 42,200.
MAX_MODEL_VARIABLES = 500_000

#: Solver output values within this distance of 0 or 1 are rounded.
BINARY_TOLERANCE = 1e-6

_LINE_WIDTH = 78
#: Characters the LP file reader decodes and splits at a time.
_BLOCK = 1 << 16


class LpFormatError(BppsError):
    """The LP text does not follow the emitted dialect."""


class SolutionImportError(BppsError):
    """An imported assignment fails a model row, or the model has another size."""


class ModelTooLargeError(BppsError):
    """The model would have more than ``MAX_MODEL_VARIABLES`` variables."""


def _family_of(name: str) -> str:
    """The family of the row ``name``, which starts with the family's prefix."""
    family = _FAMILY_OF_LEAD.get(name[:2])
    if family is None or not name.startswith(ROW_PREFIX[family]):
        raise LpFormatError(f"unrecognized row name {name!r}")
    return family


class Row(NamedTuple):
    """One linear constraint: terms sense rhs, e.g. ``x + y <= 1``."""

    name: str
    terms: tuple[tuple[str, int], ...]
    sense: str
    rhs: int

    @property
    def family(self) -> str:
        """The row family, read from the name prefix."""
        return _family_of(self.name)


#: Builds a ``Row`` from one 4-tuple without ``Row.__new__``'s Python frame.
_new_tuple = tuple.__new__


@dataclass(frozen=True)
class MilpModel:
    """Solver-agnostic binary model; all coefficients are integers."""

    variant: str
    k: int
    n: int
    m: int
    variables: tuple[str, ...]
    objective: tuple[tuple[str, int], ...]
    rows: tuple[Row, ...]

    @property
    def variable_count(self) -> int:
        return len(self.variables)

    @property
    def constraint_count(self) -> int:
        return len(self.rows)

    def row_counts(self) -> dict[str, int]:
        return dict(Counter(_family_of(row.name) for row in self.rows))


def var_x(i: int, b: int) -> str:
    return f"x_{i}_{b}"


def var_y(c: int, b: int) -> str:
    return f"y_{c}_{b}"


def var_z(b: int) -> str:
    return f"z_{b}"


def build_model(
    inst: Instance,
    variant: str,
    *,
    exact_bin_bound: bool = False,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> MilpModel:
    """Build one model variant for the instance.

    Variants ``N``/``DAG``/``DDAG`` use ``k = n`` candidate bins; ``STAR``
    uses the per-class packing bound, heuristically computed by default
    (``exact_bin_bound`` switches to exact per-class packing of at most
    ``node_limit`` nodes per class, and raises
    :class:`~bpps.bpp.NodeLimitExceeded` when a class's search stops
    unproved, as :func:`~bpps.cha.k_upper` does).  A model of more than
    ``MAX_MODEL_VARIABLES`` variables raises :class:`ModelTooLargeError`
    once ``k`` is known, before any of it is built.  ``inst`` is valid by
    construction, so no variant checks its data.
    """
    if variant not in VARIANT_FAMILIES:
        raise ValueError(f"unknown variant {variant!r}")
    families = VARIANT_FAMILIES[variant]
    n, m = inst.n, inst.m
    if variant == VARIANT_STAR:
        mode = BPP_EXACT if exact_bin_bound else BPP_HEURISTIC
        k = k_upper(inst, mode, node_limit=node_limit)
    else:
        k = n
    if (n + m + 1) * k > MAX_MODEL_VARIABLES:
        raise ModelTooLargeError(
            f"variant {variant} would have (n + m + 1) * k = {(n + m + 1) * k:,} variables,"
            f" more than {MAX_MODEL_VARIABLES:,}"
        )
    bins = range(1, k + 1)
    # Name tables up front: the builders below reference each name several
    # times and f-string formatting dominates construction otherwise.
    x_names = [[var_x(i, b) for b in bins] for i in inst.items]
    y_names = [[var_y(c, b) for b in bins] for c in inst.classes]
    z_names = [var_z(b) for b in bins]

    variables = (
        [name for per_item in x_names for name in per_item]
        + [name for per_class in y_names for name in per_class]
        + list(z_names)
    )

    objective = [(name, inst.bin_cost) for name in z_names]
    for c in inst.classes:
        fc = inst.setup_costs[c - 1]
        if fc:
            objective.extend((name, fc) for name in y_names[c - 1])

    # Unit terms are shared: x_i_b appears with coefficient 1 in assign_i
    # and in link_c_i_b, y_c_b with -1 in every link_c_*_b.
    x_units = [[(name, 1) for name in per_item] for per_item in x_names]
    rows: list[Row] = [
        Row(f"{ROW_PREFIX[FAMILY_ASSIGNMENT]}{i}", tuple(x_units[i - 1]), "=", 1)
        for i in inst.items
    ]
    setups = [(per_class, s) for per_class, s in zip(y_names, inst.setup_weights) if s]
    for b in bins:
        terms = [(per_item[b - 1], w) for per_item, w in zip(x_names, inst.weights)]
        terms.extend((per_class[b - 1], s) for per_class, s in setups)
        terms.append((z_names[b - 1], -inst.capacity))
        rows.append(Row(f"{ROW_PREFIX[FAMILY_CAPACITY]}{b}", tuple(terms), "<=", 0))
    # The n * k linking rows are made by map and zip, without a Python
    # frame per row.
    bin_labels = list(map(str, bins))
    for c in inst.classes:
        y_negs = [(name, -1) for name in y_names[c - 1]]
        for i in inst.items_of_class(c):
            prefix = f"{ROW_PREFIX[FAMILY_LINKING]}{c}_{i}_"
            fields = zip(
                map(prefix.__add__, bin_labels), zip(x_units[i - 1], y_negs), repeat("<="), repeat(0)
            )
            rows.extend(map(_new_tuple, repeat(Row), fields))
    if FAMILY_MCI in families or FAMILY_MBI in families:
        report = bounds_report(inst)
    if FAMILY_MCI in families:
        rows.extend(
            Row(f"{ROW_PREFIX[FAMILY_MCI]}{c}", tuple((name, 1) for name in per_class), ">=", g)
            for c, per_class, g in zip(inst.classes, y_names, report.gamma)
        )
    if FAMILY_MBI in families:
        z_units = tuple((name, 1) for name in z_names)
        rows.append(Row(ROW_PREFIX[FAMILY_MBI], z_units, ">=", report.k_lower))
    return MilpModel(
        variant=variant,
        k=k,
        n=n,
        m=m,
        variables=tuple(variables),
        objective=tuple(objective),
        rows=tuple(rows),
    )


def _term_tokens(terms: Iterable[tuple[str, int]]) -> list[str]:
    tokens: list[str] = []
    for name, coeff in terms:
        if coeff < 0:
            tokens.append("-")
            coeff = -coeff
        elif tokens:
            tokens.append("+")
        tokens.append(name if coeff == 1 else f"{coeff} {name}")
    return tokens


def _wrap(prefix: str, tokens: list[str], out: list[str]) -> None:
    """Append ``prefix`` and the tokens as lines of at most ``_LINE_WIDTH``.

    A line breaks before a token that would overrun the width, and the
    next line starts with a space.  Most rows fit one line, so the whole
    line is joined first: a row that fits never breaks.
    """
    line = f"{prefix} {' '.join(tokens)}" if tokens else prefix
    if len(line) <= _LINE_WIDTH:
        if line:
            out.append(line)
        return
    parts = [prefix]
    width = len(prefix)
    for tok in tokens:
        if width and width + 1 + len(tok) > _LINE_WIDTH:
            out.append(" ".join(parts))
            parts = ["", tok]
            width = 1 + len(tok)
        else:
            parts.append(tok)
            width += 1 + len(tok)
    out.append(" ".join(parts))


def render_lp(model: MilpModel) -> str:
    """LP-format text for the model; identical input gives identical bytes."""
    out: list[str] = [
        f"\\ bpps variant={model.variant} k={model.k} n={model.n} m={model.m}",
        "Minimize",
    ]
    _wrap(" obj:", _term_tokens(model.objective), out)
    out.append("Subject To")
    for name, terms, sense, rhs in model.rows:
        # A row of terms (a, 1), (b, +/-1), such as a linking row, is
        # written as _term_tokens and _wrap would write it when it fits
        # one line.
        if len(terms) == 2:
            (a, ca), (b, cb) = terms
            if ca == 1 and (cb == 1 or cb == -1):
                line = f" {name}: {a} {'+' if cb == 1 else '-'} {b} {sense} {rhs}"
                if len(line) <= _LINE_WIDTH:
                    out.append(line)
                    continue
        tokens = _term_tokens(terms)
        tokens.append(sense)
        tokens.append(str(rhs))
        _wrap(f" {name}:", tokens, out)
    out.append("Binaries")
    _wrap("", list(model.variables), out)
    out.append("End")
    out.append("")  # the final newline, without copying the joined text
    return "\n".join(out)


def emit_lp_file(model: MilpModel, destination: str | Path) -> Path:
    """Write the LP text to ``destination`` and return the path."""
    return write_ascii(render_lp(model), destination)


#: Each sense token maps to one shared string, so parsed rows hold three.
_SENSES = {"<=": "<=", ">=": ">=", "=": "="}
#: The comparison each sense makes between a row's left side and its rhs.
_HOLDS = {"<=": operator.le, ">=": operator.ge, "=": operator.eq}
_SECTIONS = {"minimize": "objective", "subject to": "rows", "binaries": "binaries", "end": None}

_Term = tuple[str, int]


def _integer(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        digits = text[1:] if text[:1] in ("+", "-") else text
        if digits.isdecimal():  # more digits than int() converts
            raise LpFormatError(f"{len(digits)}-digit {what}") from None
        raise LpFormatError(f"{what} is not an integer: {text!r}") from None


#: The one object kept for each variable name and each term read so far,
#: as ``(names, plus, minus, shared)``: ``names`` maps each name to itself,
#: ``plus`` and ``minus`` map a name to its term of coefficient 1 and -1,
#: and ``shared`` maps every other term to itself.  So equal names and
#: equal terms of a model are one object, and a unit term is found by its
#: name alone.
_Pool = tuple[dict[str, str], dict[str, _Term], dict[str, _Term], dict[_Term, _Term]]


def _parse_terms(tokens: list[str], pool: _Pool, row: str | None = None) -> tuple[_Term, ...]:
    """Terms of the objective, or of the named row, from their tokens."""
    names, plus, minus, shared = pool
    terms: list[_Term] = []
    sign = 1
    coeff: int | None = None
    for tok in tokens:
        if tok == "+":
            sign = 1
        elif tok == "-":
            sign = -1
        elif tok.isdecimal():
            try:
                coeff = int(tok)
            except ValueError:  # more digits than int() converts
                raise LpFormatError(f"{len(tok)}-digit coefficient in {_where(row)}") from None
        else:
            value = sign if coeff is None else sign * coeff
            units = plus if value == 1 else minus if value == -1 else None
            if units is None:
                term = (names.setdefault(tok, tok), value)
                term = shared.setdefault(term, term)
            elif (term := units.get(tok)) is None:
                name = names.setdefault(tok, tok)
                term = units[name] = (name, value)
            terms.append(term)
            sign, coeff = 1, None
    if coeff is not None:
        raise LpFormatError(f"dangling coefficient in {_where(row)}")
    return tuple(terms)


def _where(row: str | None) -> str:
    return "objective" if row is None else f"row {row}"


def _parse_row(chunk: list[str], pool: _Pool, counts: dict[str, int]) -> Row:
    """The row whose tokens, from its ``name:`` on, are ``chunk``; ``counts``
    counts it in its family."""
    name = chunk[0][:-1]
    body = chunk[1:-2]
    # The sense is the last token but one and no earlier token is one.
    if len(chunk) < 3 or chunk[-2] not in _SENSES or not _SENSES.keys().isdisjoint(body):
        raise LpFormatError(f"row {name!r} lacks a trailing sense and rhs")
    terms = _parse_terms(body, pool, name)
    family = _family_of(name)
    try:
        rhs = int(chunk[-1])
    except ValueError:  # _integer says why; its message is built only here
        rhs = _integer(chunk[-1], f"rhs of row {name!r}")
    counts[family] += 1
    return _new_tuple(Row, (name, terms, _SENSES[chunk[-2]], rhs))


def _check_row_counts(variant: str, k: int, n: int, m: int, counts: dict[str, int]) -> None:
    """Refuse a family whose row count differs from what the header implies."""
    families = VARIANT_FAMILIES[variant]
    size = {
        FAMILY_ASSIGNMENT: n,
        FAMILY_CAPACITY: k,
        FAMILY_LINKING: n * k,
        FAMILY_MCI: m,
        FAMILY_MBI: 1,
    }
    for family in ROW_PREFIX:
        got = counts[family]
        want = size[family] if family in families else 0
        if got != want:
            raise LpFormatError(f"read {got} {family} rows; the header implies {want}")


def _read_lp(lines: Iterable[str]) -> MilpModel:
    """The model in LP ``lines``, read in one pass that keeps one row's tokens.

    A row is parsed, and its error raised, when the next row starts or
    the input ends.
    """
    meta: dict[str, str] = {}
    section = None
    objective_tokens: list[str] = []
    binary_names: list[str] = []
    rows: list[Row] = []
    counts = dict.fromkeys(ROW_PREFIX, 0)
    pool: _Pool = ({}, {}, {}, {})
    names, plus, minus, shared = pool
    units_after = {"+": plus, "-": minus}  # a sign token's unit terms
    no_terms: dict[str, _Term] = {}
    chunk: list[str] | None = None  # the tokens of the row being read

    for raw in lines:
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
            if ":" not in raw and chunk is not None:
                chunk.extend(tokens)
            elif first[-1] == ":" and raw.count(":") == 1:
                if chunk is not None:
                    # Most rows are ``name: a +/- b sense 0`` whose unit
                    # terms were read before: every linking row but the
                    # first of each y_c_b.  Such a row is built here as
                    # _parse_row would build it, since a name found in
                    # ``plus`` or ``minus`` was read as a name and is no
                    # sign, number or sense.  Any other row goes there.
                    row = None
                    if len(chunk) == 6 and chunk[5] == "0":
                        label, a, sign, b, sense, _ = chunk
                        name = label[:-1]
                        family = _FAMILY_OF_LEAD.get(name[:2])
                        left = plus.get(a)
                        right = units_after.get(sign, no_terms).get(b)
                        if (
                            left and right and sense in _SENSES
                            and family and name.startswith(ROW_PREFIX[family])
                        ):
                            counts[family] += 1
                            row = _new_tuple(Row, (name, (left, right), _SENSES[sense], 0))
                    rows.append(row or _parse_row(chunk, pool, counts))
                chunk = tokens
            else:
                for tok in tokens:
                    if tok.endswith(":"):
                        if chunk is not None:
                            rows.append(_parse_row(chunk, pool, counts))
                        chunk = [tok]
                    elif chunk is not None:
                        chunk.append(tok)
                    else:
                        raise LpFormatError("constraint tokens before a row name")
        elif section == "objective":
            objective_tokens.extend(tokens)
        elif section == "binaries":
            binary_names.extend(map(names.get, tokens, tokens))
        else:
            raise LpFormatError(f"unexpected line outside sections: {raw.strip()!r}")
    if chunk is not None:
        rows.append(_parse_row(chunk, pool, counts))

    for key in ("variant", "k", "n", "m"):
        if key not in meta:
            raise LpFormatError(f"missing {key!r} in the header comment")

    if objective_tokens and objective_tokens[0].endswith(":"):
        objective_tokens = objective_tokens[1:]
    objective = _parse_terms(objective_tokens, pool)
    # The model holds every term it needs.  Dropping the term tables here
    # keeps them out of the peak that the set of listed names sets below.
    for table in (plus, minus, shared):
        table.clear()

    variant = meta["variant"]
    k = _integer(meta["k"], "header value k")
    n = _integer(meta["n"], "header value n")
    m = _integer(meta["m"], "header value m")
    if variant not in MODEL_VARIANTS:
        raise LpFormatError(f"unknown variant {variant!r} in the header comment")
    if len(binary_names) != (n + m + 1) * k:
        raise LpFormatError(
            f"Binaries lists {len(binary_names)} variables, not (n + m + 1) * k = {(n + m + 1) * k}"
        )
    known = set(binary_names)
    # Every variable a term names is a key of ``names``.
    if not known.issuperset(names):
        owners = [("objective", objective)] + [(f"row {row.name!r}", row.terms) for row in rows]
        for owner, terms in owners:
            for var, _ in terms:
                if var not in known:
                    raise LpFormatError(f"{owner} names {var!r}, which Binaries does not list")
    _check_row_counts(variant, k, n, m, counts)
    return MilpModel(
        variant=variant,
        k=k,
        n=n,
        m=m,
        variables=tuple(binary_names),
        objective=objective,
        rows=tuple(rows),
    )


def parse_lp(text: str) -> MilpModel:
    """Parse LP text written by :func:`render_lp` back into a model.

    Besides text outside the dialect, :class:`LpFormatError` rejects a
    model that does not hold together: a variant outside
    ``MODEL_VARIANTS``, a ``Binaries`` section without ``(n + m + 1) * k``
    names, a term naming a variable that ``Binaries`` does not list, and a
    row family whose count differs from what the header implies: ``n``
    assignment, ``k`` capacity and ``n * k`` linking rows, ``m`` mci rows
    unless the variant is ``N``, and one mbi row for ``DDAG`` and ``STAR``.
    """
    return _read_lp(text.splitlines())


def _line_blocks(file: TextIO) -> Iterator[list[str]]:
    """The file's lines, ``_BLOCK`` characters and the rest of a line at a time.

    Each block is split as a whole, so lines break where ``parse_lp``
    breaks them: ``str.splitlines`` also ends a line at \\v, \\f and
    \\x1c-\\x1e, which file iteration does not.
    """
    while block := file.read(_BLOCK):
        yield (block + file.readline()).splitlines()


def parse_lp_file(source: str | Path) -> MilpModel:
    """:func:`parse_lp` on the file, read block by block as it is decoded.

    A byte outside ASCII is an :class:`LpFormatError`.
    """
    with open(source, encoding="ascii") as file:
        try:
            return _read_lp(chain.from_iterable(_line_blocks(file)))
        except UnicodeDecodeError:
            raise LpFormatError(f"{source} is not ASCII text") from None


def _round_binary(name: str, value: float) -> int:
    if abs(value) <= BINARY_TOLERANCE:
        return 0
    if abs(value - 1) <= BINARY_TOLERANCE:
        return 1
    raise SolutionImportError(f"{name} = {value} is not within {BINARY_TOLERANCE} of 0/1")


def import_solution(inst: Instance, model: MilpModel, assignment_text: str) -> Solution:
    """Rebuild a packing from solver variable values.

    The text holds ``<variable-name> <value>`` lines; blank lines, lines
    starting with ``#``, and names outside the model are ignored, and
    missing variables count as 0.  Every row of the model is evaluated on
    the imported values, and the first that fails is reported by name and
    family.  ``inst`` must have the model's ``n`` and ``m``.
    """
    if (inst.n, inst.m) != (model.n, model.m):
        raise SolutionImportError(
            f"model has n = {model.n}, m = {model.m}; instance has n = {inst.n}, m = {inst.m}"
        )
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

    for row in model.rows:
        lhs = sum(coeff * values.get(name, 0) for name, coeff in row.terms)
        if not _HOLDS[row.sense](lhs, row.rhs):
            raise SolutionImportError(
                f"{row.family} violated at {row.name}: left side {lhs}, not {row.sense} {row.rhs}"
            )
    bins: list[list[int]] = [[] for _ in range(model.k)]
    for i in inst.items:
        for b, items in enumerate(bins, start=1):
            if values.get(var_x(i, b)):
                items.append(i)
    return Solution(tuple(frozenset(b) for b in bins if b))
