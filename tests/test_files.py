from __future__ import annotations

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


def test_solution_item_listed_twice_in_a_bin():
    with pytest.raises(FileFormatError, match="^bin 2 lists item 3 more than once$"):
        parse_solution("BPPS-SOL 1\nname 2\n1 2\n3 4 3\n")
