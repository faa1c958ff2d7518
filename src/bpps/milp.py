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
from pathlib import Path
from typing import Iterable

from .bounds import VARIANT_DAG, VARIANT_DDAG, VARIANT_N, bounds_report
from .cha import BPP_EXACT, BPP_HEURISTIC, k_upper
from .core import (
    BppsError,
    Instance,
    Solution,
    require_valid,
)

VARIANT_STAR = "STAR"
MODEL_VARIANTS = (VARIANT_N, VARIANT_DAG, VARIANT_DDAG, VARIANT_STAR)

FAMILY_ASSIGNMENT = "assignment"
FAMILY_CAPACITY = "capacity"
FAMILY_LINKING = "linking"
FAMILY_MCI = "mci"
FAMILY_MBI = "mbi"

#: Solver output values within this distance of 0 or 1 are rounded.
BINARY_TOLERANCE = 1e-6

_LINE_WIDTH = 78


class LpFormatError(BppsError):
    """The LP text does not follow the emitted dialect."""


class SolutionImportError(BppsError):
    """An imported assignment violates a model relation."""


@dataclass(frozen=True)
class Row:
    """One linear constraint: terms sense rhs, e.g. ``x + y <= 1``."""

    name: str
    family: str
    terms: tuple[tuple[str, int], ...]
    sense: str
    rhs: int


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
    perm_count: int = 50,
    seed: int = 0,
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
        k = k_upper(
            inst,
            mode,
            override_validation=override_validation,
            perm_count=perm_count,
            seed=seed,
        )
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

    rows: list[Row] = []
    for i in inst.items:
        rows.append(
            Row(
                name=f"assign_{i}",
                family=FAMILY_ASSIGNMENT,
                terms=tuple((name, 1) for name in x_names[i - 1]),
                sense="=",
                rhs=1,
            )
        )
    for b in bins:
        terms = [(x_names[i - 1][b - 1], inst.weight(i)) for i in inst.items]
        terms.extend(
            (y_names[c - 1][b - 1], inst.setup_weights[c - 1])
            for c in inst.classes
            if inst.setup_weights[c - 1]
        )
        terms.append((z_names[b - 1], -inst.capacity))
        rows.append(
            Row(
                name=f"cap_{b}",
                family=FAMILY_CAPACITY,
                terms=tuple(terms),
                sense="<=",
                rhs=0,
            )
        )
    for c in inst.classes:
        for i in inst.items_of_class(c):
            x_row = x_names[i - 1]
            y_row = y_names[c - 1]
            for b in bins:
                rows.append(
                    Row(
                        name=f"link_{c}_{i}_{b}",
                        family=FAMILY_LINKING,
                        terms=((x_row[b - 1], 1), (y_row[b - 1], -1)),
                        sense="<=",
                        rhs=0,
                    )
                )
    if variant in (VARIANT_DAG, VARIANT_DDAG, VARIANT_STAR):
        report = bounds_report(inst)
        for c in inst.classes:
            rows.append(
                Row(
                    name=f"mci_{c}",
                    family=FAMILY_MCI,
                    terms=tuple((name, 1) for name in y_names[c - 1]),
                    sense=">=",
                    rhs=report.gamma[c - 1],
                )
            )
        if variant in (VARIANT_DDAG, VARIANT_STAR):
            rows.append(
                Row(
                    name="mbi",
                    family=FAMILY_MBI,
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


def _wrap(prefix: str, tokens: list[str], out: list[str]) -> None:
    line = prefix
    for tok in tokens:
        if line and len(line) + 1 + len(tok) > _LINE_WIDTH:
            out.append(line)
            line = " " + tok
        else:
            line = f"{line} {tok}" if line else " " + tok
    if line:
        out.append(line)


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


_FAMILY_BY_PREFIX = (
    ("assign_", FAMILY_ASSIGNMENT),
    ("cap_", FAMILY_CAPACITY),
    ("link_", FAMILY_LINKING),
    ("mci_", FAMILY_MCI),
    ("mbi", FAMILY_MBI),
)

_SENSES = ("<=", ">=", "=")


def _family_of(name: str) -> str:
    for prefix, family in _FAMILY_BY_PREFIX:
        if name.startswith(prefix):
            return family
    raise LpFormatError(f"unrecognized row name {name!r}")


def _parse_terms(tokens: list[str], where: str) -> tuple[tuple[str, int], ...]:
    terms: list[tuple[str, int]] = []
    sign = 1
    coeff: int | None = None
    for tok in tokens:
        if tok == "+":
            sign = 1
        elif tok == "-":
            sign = -1
        else:
            try:
                coeff = int(tok)
                continue
            except ValueError:
                pass
            value = sign * (1 if coeff is None else coeff)
            terms.append((tok, value))
            sign, coeff = 1, None
    if coeff is not None:
        raise LpFormatError(f"dangling coefficient in {where}")
    return tuple(terms)


def parse_lp(text: str) -> MilpModel:
    """Parse LP text written by :func:`render_lp` back into a model."""
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
    objective = _parse_terms(objective_tokens, "objective")

    rows: list[Row] = []
    for chunk in row_chunks:
        name = chunk[0][:-1]
        body = chunk[1:]
        sense_pos = next(
            (p for p, tok in enumerate(body) if tok in _SENSES), None
        )
        if sense_pos is None or sense_pos != len(body) - 2:
            raise LpFormatError(f"row {name!r} lacks a trailing sense and rhs")
        terms = _parse_terms(body[:sense_pos], f"row {name}")
        rows.append(
            Row(
                name=name,
                family=_family_of(name),
                terms=terms,
                sense=body[sense_pos],
                rhs=int(body[-1]),
            )
        )
    return MilpModel(
        variant=meta["variant"],
        k=int(meta["k"]),
        n=int(meta["n"]),
        m=int(meta["m"]),
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
