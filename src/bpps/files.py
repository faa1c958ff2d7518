"""Plain-text instance and solution files.

Instance file (ASCII, ``#`` starts a comment, whitespace-separated):

    BPPS 1
    n m d r
    f_1 ... f_m
    s_1 ... s_m
    w_i c_i        (n lines, 1-based class indices)

Solution file:

    BPPS-SOL 1
    <instance-name> <bin_count>
    <items of bin 1>
    ...

Writers emit a canonical layout so identical data produces identical
bytes; readers ignore comments and blank lines.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Iterable

from .core import BppsError, Instance, Solution

INSTANCE_MAGIC = "BPPS"
SOLUTION_MAGIC = "BPPS-SOL"
FORMAT_VERSION = 1


class FileFormatError(BppsError):
    """The file does not follow the documented layout."""


def _read_text(source: str | Path) -> str:
    try:
        return Path(source).read_text(encoding="ascii")
    except UnicodeDecodeError:
        raise FileFormatError(f"{source} is not ASCII text") from None


def write_ascii(text: str, destination: str | Path) -> Path:
    """Write ``text`` as ASCII, encoded before the file is opened."""
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise FileFormatError(
            f"cannot write {destination}: character {exc.start + 1} is not ASCII"
        ) from None
    path = Path(destination)
    path.write_bytes(data)
    return path


def _data_lines(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def render_instance(inst: Instance, comments: Iterable[str] = ()) -> str:
    out = [f"# {c}" for c in comments]
    out.append(f"{INSTANCE_MAGIC} {FORMAT_VERSION}")
    out.append(f"{inst.n} {inst.m} {inst.capacity} {inst.bin_cost}")
    out.append(" ".join(str(f) for f in inst.setup_costs))
    out.append(" ".join(str(s) for s in inst.setup_weights))
    for i in inst.items:
        out.append(f"{inst.weight(i)} {inst.item_class(i)}")
    return "\n".join(out) + "\n"


def write_instance(
    inst: Instance, destination: str | Path, comments: Iterable[str] = ()
) -> Path:
    return write_ascii(render_instance(inst, comments), destination)


def parse_instance(text: str) -> Instance:
    lines = _data_lines(text)
    if not lines:
        raise FileFormatError("empty instance file")
    header = lines[0].split()
    if header[:1] != [INSTANCE_MAGIC]:
        raise FileFormatError(f"expected '{INSTANCE_MAGIC} 1' header")
    if header[1:] != [str(FORMAT_VERSION)]:
        raise FileFormatError(f"unsupported format version {header[1:]}")
    try:
        n, m, d, r = map(int, lines[1].split())
        setup_costs = tuple(map(int, lines[2].split()))
        setup_weights = tuple(map(int, lines[3].split()))
        item_lines = lines[4 : 4 + n]
        if len(setup_costs) != m or len(setup_weights) != m:
            raise FileFormatError(f"expected {m} setup costs and weights")
        if len(item_lines) != n or len(lines) != 4 + n:
            raise FileFormatError(f"expected exactly {n} item lines")
        weights = []
        class_of = []
        for line in item_lines:
            w, c = map(int, line.split())
            weights.append(w)
            class_of.append(c)
    except (ValueError, IndexError) as exc:
        raise FileFormatError(f"malformed instance file: {exc}") from exc
    try:
        return Instance(
            weights=tuple(weights),
            capacity=d,
            class_of=tuple(class_of),
            setup_weights=setup_weights,
            setup_costs=setup_costs,
            bin_cost=r,
        )
    except ValueError as exc:
        raise FileFormatError(f"inconsistent instance data: {exc}") from exc


def read_instance(source: str | Path) -> Instance:
    return parse_instance(_read_text(source))


def check_solution_name(name: str) -> str:
    """``name``, if it reads back from a solution file as the one word it is.

    An empty name, or one holding whitespace, ``#`` or a non-ASCII
    character, raises :class:`FileFormatError`.
    """
    if name.split() != [name] or "#" in name or not name.isascii():
        raise FileFormatError(f"solution name {name!r} is not one ASCII word without '#'")
    return name


def render_solution(name: str, sol: Solution) -> str:
    """Solution file text; ``name`` passes :func:`check_solution_name`."""
    out = [
        f"{SOLUTION_MAGIC} {FORMAT_VERSION}",
        f"{check_solution_name(name)} {sol.bin_count}",
    ]
    for items in sol.bins:
        out.append(" ".join(str(i) for i in sorted(items)))
    return "\n".join(out) + "\n"


def write_solution(name: str, sol: Solution, destination: str | Path) -> Path:
    return write_ascii(render_solution(name, sol), destination)


def parse_solution(text: str) -> tuple[str, Solution]:
    lines = _data_lines(text)
    if not lines:
        raise FileFormatError("empty solution file")
    header = lines[0].split()
    if header != [SOLUTION_MAGIC, str(FORMAT_VERSION)]:
        raise FileFormatError(f"expected '{SOLUTION_MAGIC} {FORMAT_VERSION}' header")
    try:
        name, count_text = lines[1].split()
        count = int(count_text)
        bin_lines = lines[2:]
        if len(bin_lines) != count:
            raise FileFormatError(f"expected {count} bin lines, got {len(bin_lines)}")
        bins = []
        for b, line in enumerate(bin_lines, start=1):
            items = [int(v) for v in line.split()]
            block = frozenset(items)
            if len(block) < len(items):
                counts = Counter(items)
                twice = next(i for i in items if counts[i] > 1)
                raise FileFormatError(f"bin {b} lists item {twice} more than once")
            bins.append(block)
    except (ValueError, IndexError) as exc:
        raise FileFormatError(f"malformed solution file: {exc}") from exc
    return name, Solution(tuple(bins))


def read_solution(source: str | Path) -> tuple[str, Solution]:
    return parse_solution(_read_text(source))
