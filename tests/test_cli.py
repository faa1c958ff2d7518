from __future__ import annotations

import pytest

from bpps.cli import (
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_LIMIT,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from bpps.cha import BPP_MODES, k_upper
from bpps.core import Instance, Solution
from bpps.files import read_instance, write_instance, write_solution
from conftest import count_feasibility_checks, fig1_instance


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1_r10.txt"
    write_instance(fig1_instance(), path)
    return path


def test_usage_error_exit_code(capsys):
    assert main(["solve"]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["bounds", "--instance", str(tmp_path / "nope.txt")]) == EXIT_IO


def test_bounds_output(fig1_file, capsys):
    assert main(["bounds", "--instance", str(fig1_file)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "gamma = 3 1" in out
    assert "k_lower = 4" in out
    assert "zeta_n = 35 (35.00)" in out
    assert "zeta_dag = 127/3 (42.33)" in out
    assert "zeta_ddag = 49 (49.00)" in out


def test_solve_prints_optimum(fig1_file, capsys):
    assert main(["solve", "--instance", str(fig1_file)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "psi = 60" in out
    assert "status = optimal" in out


def test_solve_limit_exit_code(fig1_file, capsys):
    code = main(
        ["solve", "--instance", str(fig1_file), "--method", "bnb", "--node-limit", "1"]
    )
    assert code == EXIT_LIMIT


def test_solve_writes_solution_then_verify(fig1_file, tmp_path, capsys):
    sol_path = tmp_path / "fig1_r10.sol"
    assert main(
        ["solve", "--instance", str(fig1_file), "--out", str(sol_path)]
    ) == EXIT_OK
    capsys.readouterr()
    assert main(
        ["verify", "--instance", str(fig1_file), "--solution", str(sol_path)]
    ) == EXIT_OK
    out = capsys.readouterr().out
    assert "feasible" in out and "psi = 60" in out
    assert "fill_percent = 100 (100.00)" in out


def test_verify_checks_the_solution_once(fig1_file, tmp_path, capsys, monkeypatch):
    sol_path = tmp_path / "fig1_r10.sol"
    assert main(["solve", "--instance", str(fig1_file), "--out", str(sol_path)]) == EXIT_OK
    calls = count_feasibility_checks(monkeypatch)
    argv = ["verify", "--instance", str(fig1_file), "--solution", str(sol_path)]
    assert main(argv) == EXIT_OK
    assert calls == [1]
    assert "psi = 60 (bins 40 + setups 20)" in capsys.readouterr().out


def test_verify_rejects_infeasible(fig1_file, tmp_path, capsys):
    bad = Solution((frozenset({1, 2}), frozenset({3, 4, 5, 6, 7, 8})))
    sol_path = tmp_path / "bad.sol"
    write_solution("fig1_r10", bad, sol_path)
    code = main(["verify", "--instance", str(fig1_file), "--solution", str(sol_path)])
    assert code == EXIT_INFEASIBLE
    assert "violation" in capsys.readouterr().out


def test_verify_rejects_an_item_listed_twice_in_a_bin(fig1_file, tmp_path, capsys):
    # Read as a set, bin 1 would be {1, 5} and the packing feasible.
    sol_path = tmp_path / "twice.sol"
    sol_path.write_text("BPPS-SOL 1\nfig1_r10 4\n1 5 5\n2 6\n3 7\n4 8\n", encoding="ascii")
    code = main(["verify", "--instance", str(fig1_file), "--solution", str(sol_path)])
    assert code == EXIT_IO
    captured = capsys.readouterr()
    assert captured.err == "file error: bin 1 lists item 5 more than once\n"


def test_cha_output(fig1_file, capsys):
    assert main(["cha", "--instance", str(fig1_file)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "termination = step3-unmerged" in out
    assert "psi_bar = 61" in out
    assert "k_upper = 5" in out
    assert "guarantee: 2 * zeta_dag = 254/3 > psi_bar = 61" in out


@pytest.mark.parametrize("mode", BPP_MODES)
def test_cha_k_upper_matches_k_upper(tmp_path, capsys, mode):
    inst_path = tmp_path / "inst.txt"
    assert main(
        ["gen", "--n", "25", "--m", "5", "--d", "200", "--seed", "3", "--out", str(inst_path)]
    ) == EXIT_OK
    capsys.readouterr()
    assert main(["cha", "--instance", str(inst_path), "--bpp-mode", mode]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    expected = k_upper(read_instance(inst_path), mode)
    assert f"k_upper = {expected}" in lines


def test_emit_model_star(fig1_file, tmp_path, capsys):
    out_path = tmp_path / "fig1.lp"
    assert main(
        [
            "emit-model",
            "--instance",
            str(fig1_file),
            "--variant",
            "star",
            "--out",
            str(out_path),
        ]
    ) == EXIT_OK
    assert "55 variables" in capsys.readouterr().out
    assert out_path.read_text().startswith("\\ bpps variant=STAR k=5")


def test_gen_single_instance_to_file(tmp_path, capsys):
    out_path = tmp_path / "inst.txt"
    code = main(
        ["gen", "--n", "25", "--m", "5", "--d", "200", "--seed", "3", "--out", str(out_path)]
    )
    assert code == EXIT_OK
    inst = read_instance(out_path)
    assert inst.n == 25 and inst.m == 5


def test_gen_rejects_off_grid_without_free_form(tmp_path, capsys):
    code = main(["gen", "--n", "30", "--out", str(tmp_path / "x.txt")])
    assert code == EXIT_USAGE
    assert "outside the grid" in capsys.readouterr().err


def test_report_csv(fig1_file, tmp_path, capsys):
    assert main(["report", "--dir", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("instance,n,m,d,r,")
    assert "fig1_r10,8,2,6,10,4,5,35,127/3,49" in out


def test_worstcase_sweep(tmp_path, capsys):
    code = main(["worstcase", "--family", "prop2", "--sweep", "2:6"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 5
    assert lines[0].startswith("family,n,theta,r,f1,psi")
    assert lines[1].split(",")[:2] == ["prop2", "2"]


def test_worstcase_prop5(capsys):
    code = main(["worstcase", "--family", "prop5", "--sweep", "100:100", "--n", "10"])
    assert code == EXIT_OK
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[5] == "10"  # psi
    assert row[7] == "503/100"  # strengthened bound at theta=100


def test_gen_benchmark_smoke(tmp_path, capsys):
    code = main(["gen", "--benchmark", "--out-dir", str(tmp_path / "bench")])
    assert code == EXIT_OK
    files = list((tmp_path / "bench").glob("*.txt"))
    assert len(files) == 480


@pytest.fixture
def deep_file(tmp_path):
    # 1,200 items of weight 7 at residual capacity 20: a search that nested
    # a Python frame per item would pass the recursion limit.
    path = tmp_path / "deep.txt"
    write_instance(Instance((7,) * 1200, 21, (1,) * 1200, (1,), (1,), 10), path)
    return path


def test_bnb_past_recursion_depth_exits_limit_with_an_answer(deep_file, capsys):
    code = main(
        ["solve", "--method", "bnb", "--node-limit", "3000", "--instance", str(deep_file)]
    )
    assert code == EXIT_LIMIT
    captured = capsys.readouterr()
    assert "status = limit-reached\n" in captured.out
    assert "psi = 6600\n" in captured.out
    assert "nodes = 3001\n" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_exact_cha_proves_the_deep_class_by_cardinality(deep_file, capsys):
    # At most two items of weight 7 fit in 20, so 600 bins are needed and
    # first fit already uses 600: the search stops at its root.
    assert main(["cha", "--bpp-mode", "exact", "--instance", str(deep_file)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "k_upper = 600\n" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize(
    "args",
    [
        ["worstcase", "--family", "prop2", "--sweep", "1:3"],
        ["worstcase", "--family", "prop5", "--sweep", "0:1"],
        ["worstcase", "--family", "prop2", "--sweep", "2:3", "--r", "0"],
        ["solve", "--method", "brute", "--instance", "inst.txt"],
    ],
    ids=["prop2-n-below-2", "prop5-theta-below-1", "r-zero", "brute-25-items"],
)
def test_out_of_range_input_is_usage_error(tmp_path, capsys, args):
    inst_path = tmp_path / "inst.txt"
    assert main(
        ["gen", "--n", "25", "--m", "5", "--d", "200", "--seed", "3", "--out", str(inst_path)]
    ) == EXIT_OK
    capsys.readouterr()
    args = [str(inst_path) if a == "inst.txt" else a for a in args]
    assert main(args) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
