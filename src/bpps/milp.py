"""Compact model builder, LP-format text emission, and solution import.

Four model variants share the same binary variables (item-to-bin ``x``,
class-active-in-bin ``y``, bin-used ``z``) and base rows (assignment,
capacity, linking):

* ``N``     - base rows only, ``k = n`` candidate bins;
* ``DAG``   - adds one minimum-activation row per class;
* ``DDAG``  - additionally adds the minimum-bins row;
* ``STAR``  - same rows as ``DDAG`` with ``k`` shrunk to the per-class
  packing upper bound.

Models are emitted as plain LP-format text with fixed row and variable
names (``assign_i``, ``cap_b``, ``link_c_i_b``, ``mci_c``, ``mbi``;
``x_i_b``, ``y_c_b``, ``z_b``, all 1-based) so the same input always
produces byte-identical files, and the bundled reader parses them back
losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple

from .bounds import (
    FAMILY_ASSIGNMENT,
    FAMILY_CAPACITY,
    FAMILY_LINKING,
    FAMILY_MBI,
    FAMILY_MCI,
    VARIANT_DAG,
    VARIANT_DDAG,
    VARIANT_N,
    bounds_report,
)
from .cha import BPP_EXACT, BPP_HEURISTIC, k_upper
from .core import (
    BppsError,
    Instance,
    Solution,
    require_valid,
)

VARIANT_STAR = "STAR"
MODEL_VARIANTS = (VARIANT_N, VARIANT_DAG, VARIANT_DDAG, VARIANT_STAR)

#: Solver output values within this distance of 0 or 1 are rounded.
BINARY_TOLERANCE = 1e-6

_LINE_WIDTH = 78


class LpFormatError(BppsError):
    """The LP text does not follow the emitted dialect."""


class SolutionImportError(BppsError):
    """An imported assignment violates a model relation."""


_FAMILY_BY_PREFIX = (
    ("assign_", FAMILY_ASSIGNMENT),
    ("cap_", FAMILY_CAPACITY),
    ("link_", FAMILY_LINKING),
    ("mci_", FAMILY_MCI),
    ("mbi", FAMILY_MBI),
)
_ROW_PREFIXES = tuple(prefix for prefix, _ in _FAMILY_BY_PREFIX)


def _family_of(name: str) -> str:
    for prefix, family in _FAMILY_BY_PREFIX:
        if name.startswith(prefix):
            return family
    raise LpFormatError(f"unrecognized row name {name!r}")


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
        counts: dict[str, int] = {}
        for row in self.rows:
            counts[row.family] = counts.get(row.family, 0) + 1
        return counts


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
    override_validation: bool = False,
    exact_bin_bound: bool = False,
) -> MilpModel:
    """Build one model variant for the instance.

    Variants ``N``/``DAG``/``DDAG`` use ``k = n`` candidate bins; ``STAR``
    uses the per-class packing bound, heuristically computed by default
    (``exact_bin_bound`` switches to exact per-class packing).
    """
    if variant not in MODEL_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    require_valid(inst, override=override_validation)
    n, m = inst.n, inst.m
    if variant == VARIANT_STAR:
        mode = BPP_EXACT if exact_bin_bound else BPP_HEURISTIC
        k = k_upper(inst, mode, override_validation=override_validation)
    else:
        k = n
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
        Row(f"assign_{i}", tuple(x_units[i - 1]), "=", 1) for i in inst.items
    ]
    setups = [(per_class, s) for per_class, s in zip(y_names, inst.setup_weights) if s]
    for b in bins:
        terms = [(per_item[b - 1], w) for per_item, w in zip(x_names, inst.weights)]
        terms.extend((per_class[b - 1], s) for per_class, s in setups)
        terms.append((z_names[b - 1], -inst.capacity))
        rows.append(Row(f"cap_{b}", tuple(terms), "<=", 0))
    for c in inst.classes:
        y_negs = [(name, -1) for name in y_names[c - 1]]
        for i in inst.items_of_class(c):
            prefix = f"link_{c}_{i}_"
            rows.extend(
                Row(f"{prefix}{b}", pair, "<=", 0)
                for b, pair in zip(bins, zip(x_units[i - 1], y_negs))
            )
    if variant in (VARIANT_DAG, VARIANT_DDAG, VARIANT_STAR):
        report = bounds_report(inst)
        for c in inst.classes:
            rows.append(
                Row(
                    name=f"mci_{c}",
                    terms=tuple((name, 1) for name in y_names[c - 1]),
                    sense=">=",
                    rhs=report.gamma[c - 1],
                )
            )
        if variant in (VARIANT_DDAG, VARIANT_STAR):
            rows.append(
                Row(
                    name="mbi",
                    terms=tuple((name, 1) for name in z_names),
                    sense=">=",
                    rhs=report.k_lower,
                )
            )
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
    for row in model.rows:
        tokens = _term_tokens(row.terms)
        tokens.append(row.sense)
        tokens.append(str(row.rhs))
        _wrap(f" {row.name}:", tokens, out)
    out.append("Binaries")
    _wrap("", list(model.variables), out)
    out.append("End")
    return "\n".join(out) + "\n"


def emit_lp_file(model: MilpModel, destination: str | Path) -> Path:
    """Write the LP text to ``destination`` and return the path."""
    path = Path(destination)
    path.write_text(render_lp(model), encoding="ascii")
    return path


_SENSES = frozenset(("<=", ">=", "="))
_SECTIONS = {"minimize": "objective", "subject to": "rows", "binaries": "binaries", "end": None}


def _integer(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise LpFormatError(f"{what} is not an integer: {text!r}") from None


def _parse_terms(tokens: list[str], row: str | None = None) -> tuple[tuple[str, int], ...]:
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


def parse_lp(text: str) -> MilpModel:
    """Parse LP text written by :func:`render_lp` back into a model.

    Besides text outside the dialect, :class:`LpFormatError` rejects a
    model that does not hold together: a variant outside
    ``MODEL_VARIANTS``, a ``Binaries`` section without ``(n + m + 1) * k``
    names, and a term naming a variable that ``Binaries`` does not list.
    """
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
    objective = _parse_terms(objective_tokens)

    rows: list[Row] = []
    for chunk in row_chunks:
        name = chunk[0][:-1]
        body = chunk[1:-2]
        # The sense is the last token but one and no earlier token is one.
        if len(chunk) < 3 or chunk[-2] not in _SENSES or not _SENSES.isdisjoint(body):
            raise LpFormatError(f"row {name!r} lacks a trailing sense and rhs")
        terms = _parse_terms(body, name)
        if not name.startswith(_ROW_PREFIXES):
            _family_of(name)  # raises: the name is outside the five families
        rhs = chunk[-1]
        # Plain digits skip _integer, whose message would be built per row.
        rhs = int(rhs) if rhs.isdecimal() else _integer(rhs, f"rhs of row {name!r}")
        rows.append(Row(name, terms, chunk[-2], rhs))

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


def parse_lp_file(source: str | Path) -> MilpModel:
    return parse_lp(Path(source).read_text(encoding="ascii"))


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
