from __future__ import annotations

import time

import pytest

from bpps.core import Solution
from bpps.files import (
    FileFormatError,
    parse_instance,
    parse_solution,
    read_instance,
    read_solution,
    render_instance,
    render_solution,
    write_instance,
    write_solution,
)
from bpps.gen import instance_name
from conftest import fig1_instance


def test_instance_round_trip(fig1):
    assert parse_instance(render_instance(fig1)) == fig1


def test_instance_file_round_trip(tmp_path, fig1):
    path = write_instance(fig1, tmp_path / "fig1.txt", comments=["fig1", "r=10"])
    assert read_instance(path) == fig1
    text = path.read_text()
    assert text.startswith("# fig1\n# r=10\nBPPS 1\n")


def test_grid_subsample_round_trip(tmp_path, benchmark_480):
    for cfg, inst in benchmark_480[::37]:
        path = write_instance(inst, tmp_path / f"{instance_name(cfg)}.txt")
        assert read_instance(path) == inst


def test_comments_and_blank_lines_ignored(fig1):
    text = render_instance(fig1)
    noisy = "# leading comment\n\n" + text.replace("BPPS 1", "BPPS 1  # inline")
    assert parse_instance(noisy) == fig1


def test_instance_format_errors():
    with pytest.raises(FileFormatError):
        parse_instance("")
    with pytest.raises(FileFormatError):
        parse_instance("NOPE 1\n1 1 5 1\n0\n0\n1 1\n")
    with pytest.raises(FileFormatError):
        parse_instance("BPPS 2\n1 1 5 1\n0\n0\n1 1\n")
    # Wrong item count.
    with pytest.raises(FileFormatError):
        parse_instance("BPPS 1\n2 1 5 1\n0\n0\n1 1\n")
    # Class index out of range surfaces as a format error.
    with pytest.raises(FileFormatError):
        parse_instance("BPPS 1\n1 1 5 1\n0\n0\n1 7\n")


def test_solution_round_trip(fig1):
    sol = Solution((frozenset({1, 5}), frozenset({2, 6}), frozenset({3, 7}), frozenset({4, 8})))
    name, parsed = parse_solution(render_solution("fig1_r10", sol))
    assert name == "fig1_r10"
    assert parsed == sol


def test_solution_file_round_trip(tmp_path):
    inst = fig1_instance()
    sol = Solution(tuple(frozenset({i}) for i in inst.items))
    path = write_solution("fig1", sol, tmp_path / "fig1.sol")
    assert read_solution(path) == ("fig1", sol)


def test_solution_format_errors():
    with pytest.raises(FileFormatError):
        parse_solution("BPPS-SOL 1\nname 2\n1 2\n")
    with pytest.raises(FileFormatError):
        parse_solution("BPPS 1\nname 0\n")


def test_empty_solution_file():
    with pytest.raises(FileFormatError, match="^empty solution file$"):
        parse_solution("")


def test_solution_item_listed_twice_in_a_bin():
    with pytest.raises(FileFormatError, match="^bin 2 lists item 3 more than once$"):
        parse_solution("BPPS-SOL 1\nname 2\n1 2\n3 4 3\n")


def test_solution_item_listed_twice_names_the_first_repeated_item():
    # Item 5 repeats first, but item 3 comes first in listing order.
    with pytest.raises(FileFormatError, match="^bin 1 lists item 3 more than once$"):
        parse_solution("BPPS-SOL 1\nname 1\n3 5 5 3\n")


def test_solution_repeat_at_the_end_of_a_long_bin_is_found_in_one_pass():
    # Counting the bin once per item took minutes on a bin this long.
    items = " ".join(map(str, [*range(1, 100_001), 100_000]))
    start = time.perf_counter()
    with pytest.raises(
        FileFormatError, match="^bin 1 lists item 100000 more than once$"
    ):
        parse_solution(f"BPPS-SOL 1\nname 1\n{items}\n")
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize(
    "name", ["fig1", "bpps_n25_m5_d200_costs_small_small_s0", "a.b-c", "x"]
)
def test_solution_name_round_trip(name):
    sol = Solution((frozenset({1, 2}), frozenset({3})))
    assert parse_solution(render_solution(name, sol)) == (name, sol)


@pytest.mark.parametrize(
    "name",
    ["we ird", "a#b", " lead", "café", "", "tab\there", "new\nline", "sep\x1cx"],
    ids=["space", "hash", "leading-space", "non-ascii", "empty", "tab", "newline", "file-sep"],
)
def test_solution_name_that_would_not_read_back_raises(tmp_path, name):
    sol = Solution((frozenset({1}),))
    with pytest.raises(FileFormatError, match="^solution name "):
        render_solution(name, sol)
    with pytest.raises(FileFormatError):
        write_solution(name, sol, tmp_path / "out.sol")
    assert not (tmp_path / "out.sol").exists()


def test_non_ascii_text_leaves_an_existing_file_as_it_was(tmp_path, fig1):
    path = write_instance(fig1, tmp_path / "c.txt", ["drawn at noon"])
    before = path.read_bytes()
    # "# café": the sixth character is the first that is not ASCII.
    with pytest.raises(FileFormatError) as caught:
        write_instance(fig1, path, ["café"])
    assert str(caught.value) == f"cannot write {path}: character 6 is not ASCII"
    assert path.read_bytes() == before


def generator_unpack_message(line: str, width: int) -> str:
    """The reader's message for ``line`` when it unpacked a generator of ints."""
    try:
        if width == 2:
            _, _ = (int(v) for v in line.split())
        else:
            _, _, _, _ = (int(v) for v in line.split())
    except ValueError as exc:
        return f"malformed instance file: {exc}"
    raise AssertionError(f"{line!r} unpacks into {width} ints")


@pytest.mark.parametrize("line", ["1", "1 2 3", "x 1", "1 x"])
def test_malformed_item_line_keeps_its_message(line):
    with pytest.raises(FileFormatError) as err:
        parse_instance(f"BPPS 1\n1 1 5 1\n0\n0\n{line}\n")
    assert str(err.value) == generator_unpack_message(line, 2)


@pytest.mark.parametrize("line", ["1", "1 2 3", "1 1 5 1 9", "x 1 5 1", "1 1 5 x"])
def test_malformed_header_line_keeps_its_message(line):
    with pytest.raises(FileFormatError) as err:
        parse_instance(f"BPPS 1\n{line}\n0\n0\n1 1\n")
    assert str(err.value) == generator_unpack_message(line, 4)
