from __future__ import annotations

import argparse
import hashlib
import re
import shutil
import sys
from pathlib import Path

import pytest

from bpps.cli import (
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_LIMIT,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from bpps.cha import BPP_MODES, k_upper
from bpps.core import Instance, InvalidInstanceError, Solution
from bpps.files import (
    parse_instance,
    read_instance,
    render_instance,
    write_instance,
    write_solution,
)
from bpps.gen import COST_WITH, GeneratorConfig, generate, worst_case
from bpps.milp import parse_lp_file
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


@pytest.mark.parametrize(
    "args",
    [
        ["bounds", "--instance", "{dir}/cafe.txt"],
        ["verify", "--instance", "{dir}/fig1_r10.txt", "--solution", "{dir}/cafe.sol"],
        ["report", "--dir", "{dir}/missing"],
        ["report", "--dir", "{dir}/fig1_r10.txt"],
    ],
    ids=["non-ascii-instance", "non-ascii-solution", "missing-report-dir", "report-dir-is-a-file"],
)
def test_file_error_is_one_line_and_exit_2(fig1_file, tmp_path, capsys, args):
    text = render_instance(fig1_instance(), ["drawn at the café"])
    (tmp_path / "cafe.txt").write_text(text, encoding="utf-8")
    (tmp_path / "cafe.sol").write_text("BPPS-SOL 1\ncafé 1\n1 2\n", encoding="utf-8")
    assert main([a.format(dir=tmp_path) for a in args]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("file error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_build_parser_reads_the_terminal_size_once(monkeypatch):
    calls = []
    size = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: calls.append(a) or size(*a))
    build_parser()
    assert len(calls) == 1


#: sha256 of ``bpps --help`` ("-") and of each subcommand's ``--help``, by
#: terminal width, as argparse lays them out when every formatter asks the
#: terminal itself (Python 3.11).
HELP_SHA256 = {
    "60": {
        "-": "f09558565506b5dba033829864922cebbac02329c640814815bf0f519342b309",
        "gen": "42a75840a63d9c62a39cc8a8720c9948e33605d5f6b2945807aef9d258d25b98",
        "bounds": "1f6dfbf2c59627e07802d157a3275845047e7b09de9f6f2369bd7e1ed8697906",
        "cha": "bf40cdb699722ba6133e81174de922fa8d1702c1ee6927cb805fc15292bea250",
        "solve": "fac12896f0f7673230c2b35e4a128af84a1689775c50c79a4e951b3f6ec47f56",
        "emit-model": "98ca47cf7e5b9bd5fbf45c812f6838c0c353a1688b05c2f1cf0c2fc73d0a5ca7",
        "verify": "9b05288166adb64126db6c2c1d30686f320146d26fff7dabd8d679caef124c2e",
        "report": "533e9b7f089231648e01a69aa7a8fb54e3aeb208234930b3fb6009b7d379b425",
        "worstcase": "b2326d95e615fa28c8e6f6302c7f916f6c5e04dbf88c2bbf84dd92cf2f60f264",
    },
    "120": {
        "-": "30f94b9e2fbf05f8d4a1c241a3a9e84c52c46f94d0b9464ad735ba61f902e57e",
        "gen": "5b78f3c512047a544bee9f5a9978660ed26d7954028f6f0b1cbb6abc2ada8286",
        "bounds": "1f6dfbf2c59627e07802d157a3275845047e7b09de9f6f2369bd7e1ed8697906",
        "cha": "dea54b6b46f020a5e82265c4b2e6ace6344e57c4ac088eec60b2ff28068fce9d",
        "solve": "e31fb143c08539645ea63dbd593d54fa63a87b9eb894ad37cc1f3d09c9639577",
        "emit-model": "50664be21ffb52d17318cfa459b5e3dae097883db589dbd5d72beec6b1eea12e",
        "verify": "0ace8db84fc860a5c289252d1dd4b1597b42a58413226a848a869c35ebb99da8",
        "report": "533e9b7f089231648e01a69aa7a8fb54e3aeb208234930b3fb6009b7d379b425",
        "worstcase": "17bf74223ca966dfcdce8bf3eae1447d314c79ff0e852dcf42fc7c21cdf4bad9",
    },
}


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="argparse lays help out differently elsewhere"
)
@pytest.mark.parametrize("columns", tuple(HELP_SHA256))
@pytest.mark.parametrize("command", tuple(HELP_SHA256["60"]))
def test_help_keeps_its_bytes(monkeypatch, capsys, columns, command):
    monkeypatch.setenv("COLUMNS", columns)
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"] if command != "-" else ["--help"])
    assert stop.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[columns][command]


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


def test_cha_packs_a_trivial_instance_in_one_bin(tmp_path, capsys):
    path = tmp_path / "trivial.txt"
    write_instance(Instance((1, 2, 3), 20, (1, 2, 2), (2, 1), (3, 4), 10), path)
    assert main(["cha", "--instance", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "termination = step3-unmerged\n" in out
    assert "psi_bar = 17\n" in out
    assert "bins:\n  1: 1 2 3\n" in out


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


@pytest.mark.parametrize(
    "family, sweep, message",
    [
        ("prop2", "2:1000001", "1000001 items above the largest item count"),
        ("prop5", "1:1073741824", "value-too-large (measured 2147483648"),
    ],
    ids=["prop2-n-above-max-items", "prop5-capacity-above-max-value"],
)
def test_worstcase_refuses_a_bad_sweep_end_before_the_sweep(
    monkeypatch, capsys, family, sweep, message
):
    # Without the check up front, the sweep builds every instance below HI.
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        assert len(calls) <= 2, "the sweep was built before its end was checked"
        return worst_case(*args, **kwargs)

    monkeypatch.setattr("bpps.gen.worst_case", counted)
    assert main(["worstcase", "--family", family, "--sweep", sweep]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert len(calls) == 2


@pytest.mark.parametrize(
    "args", [["--seed", "-1"], ["--benchmark", "--base-seed", "-1"]], ids=["seed", "base-seed"]
)
def test_gen_refuses_a_negative_seed(tmp_path, capsys, args):
    out_dir = tmp_path / "bench"
    assert main(["gen", *args, "--out-dir", str(out_dir)]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "usage error: seed = -1 is negative\n")
    assert not out_dir.exists()


def test_gen_benchmark_smoke(tmp_path, capsys):
    code = main(["gen", "--benchmark", "--out-dir", str(tmp_path / "bench")])
    assert code == EXIT_OK
    files = list((tmp_path / "bench").glob("*.txt"))
    assert len(files) == 480


#: sha256 of the seed-0 ``bpps gen --benchmark`` grid (each file's name,
#: a NUL byte and its bytes, in name order) and of ``bpps gen`` on the
#: free-form sweep configs below; unchanged by the covering fallback.
GRID_SHA256 = "6bf9b805bc3b41c38d098d07f8b375db58842b66c15d92156378ef00e0ec4409"
SWEEP_SHA256 = "ee01e2e691abc00a486e0cf6b06856c92c733f8ccb2472104418bf0721939d4d"
#: (n, configs) of the free-form sweep: m = 3, d = 200, large items, seed 100 n + j.
GEN_SWEEP = ((10, 6), (11, 3), (12, 1)) + tuple((n, 40) for n in range(13, 26))


def test_gen_keeps_the_bytes_of_every_config_that_draws(tmp_path, capsys):
    assert main(["gen", "--benchmark", "--out-dir", str(tmp_path)]) == EXIT_OK
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == GRID_SHA256
    capsys.readouterr()
    digest = hashlib.sha256()
    for n, count in GEN_SWEEP:
        for j in range(count):
            argv = ["gen", "--free-form", "--n", str(n), "--m", "3", "--d", "200",
                    "--item-size", "large", "--seed", str(n * 100 + j)]
            assert main(argv) == EXIT_OK
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == SWEEP_SHA256


@pytest.mark.parametrize(
    ("n", "m", "seed"),
    [(20, 20, 0), (20, 20, 1), (20, 20, 2), (10, 10, 2)],
    ids=["n20-m20-seed0", "n20-m20-seed1", "n20-m20-seed2", "n10-m10-seed2"],
)
def test_gen_covers_every_class_when_labels_keep_missing_one(capsys, n, m, seed):
    argv = ["gen", "--free-form", "--n", str(n), "--m", str(m), "--seed", str(seed)]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert f"seed={seed} class-redraws=10000 " in out
    inst = parse_instance(out)
    assert all(inst.items_of_class(c) for c in inst.classes)


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


def test_cha_proves_a_grid_instance_at_a_low_node_limit(tmp_path, capsys):
    # Grid instance bpps_n50_m5_d10000_costs_large_large_s1.  Without the
    # waste charge and the equal-weight rule, its class 4 stopped at 5,000
    # nodes and this run exited 4; the default limit gives the same answer.
    cfg = GeneratorConfig(
        n=50, m=5, d=10000, cost_mode=COST_WITH, item_size="large",
        setup_size="large", seed=1,
    )
    path = tmp_path / "grid.txt"
    write_instance(generate(cfg), path)
    assert main(["cha", "--node-limit", "5000", "--instance", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "beta = 4 3 2 4 3\n" in out
    assert "psi_bar = 230\n" in out


def test_cha_proves_a_class_at_the_minimum_slack_start(tmp_path, capsys):
    # Grid instance bpps_n100_m5_d1000_costs_large_large_s1.  Its class 2
    # (22 items at capacity 896, volume bound 6) stopped at 5,000 nodes
    # with incumbent 7 when the search started from first-fit decreasing,
    # and this run exited 4; the minimum-slack start packs it in 6 bins.
    cfg = GeneratorConfig(
        n=100, m=5, d=1000, cost_mode=COST_WITH, item_size="large",
        setup_size="large", seed=1,
    )
    path = tmp_path / "grid.txt"
    write_instance(generate(cfg), path)
    assert main(["cha", "--node-limit", "5000", "--instance", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "beta = 5 6 5 7 5\n" in out
    assert "psi_bar = 403\n" in out


def test_zero_limits_are_valid(fig1_file, capsys):
    solve = ["solve", "--method", "bnb", "--instance", str(fig1_file)]
    assert main(solve + ["--node-limit", "0"]) == EXIT_LIMIT
    assert "nodes = 1\n" in capsys.readouterr().out
    # The clock is read every 1,024 nodes; fig1 is solved in fewer.
    assert main(solve + ["--time-limit", "0"]) == EXIT_OK
    assert "status = optimal\n" in capsys.readouterr().out


@pytest.mark.parametrize("limit", ["0", "1"])
def test_cha_counts_a_closed_bracket_as_proved(fig1_file, capsys, limit):
    # At limit 0 the per-class search of class 1 stops at its root with
    # incumbent 4 and lower bound 4: a proof, as at limit 1.
    cmd = ["cha", "--node-limit", limit, "--instance", str(fig1_file)]
    assert main(cmd) == EXIT_OK
    captured = capsys.readouterr()
    assert "beta = 4 1\n" in captured.out
    assert "psi_bar = 61\n" in captured.out
    assert "unproved" not in captured.out
    assert captured.err == ""


@pytest.fixture
def stopping_file(tmp_path):
    # Class 1: 16 items of weights 7, 5, 4, 3 at residual capacity 13.  At 3
    # nodes its search stops with incumbent 7 against lower bound 6; at 50
    # it proves 6.
    weights = (7, 5, 4, 3) * 4 + (2, 2)
    path = tmp_path / "stops.txt"
    write_instance(Instance(weights, 14, (1,) * 16 + (2, 2), (1, 1), (1, 2), 10), path)
    return path


def test_cha_answers_with_the_incumbent_when_a_class_stops(stopping_file, tmp_path, capsys):
    sol_path = tmp_path / "stops.sol"
    cmd = ["cha", "--node-limit", "3", "--instance", str(stopping_file), "--out", str(sol_path)]
    assert main(cmd) == EXIT_LIMIT
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    assert out[:6] == [
        "termination = step3-merged",
        "beta = 7 1",
        "single_bin_classes = 2",
        "delta = 1",
        "merge_class = 1",
        "psi_bar = 79",
    ]
    assert out[7].endswith("psi_bar = 79 (informational: not every count is proved)")
    assert out[-2:] == ["unproved = 1", f"wrote solution to {sol_path}"]
    assert captured.err == "search limit reached; unproved counts are upper bounds\n"
    cmd = ["verify", "--instance", str(stopping_file), "--solution", str(sol_path)]
    assert main(cmd) == EXIT_OK
    assert "psi = 79 " in capsys.readouterr().out


def test_cha_proves_the_stopping_class_at_a_higher_limit(stopping_file, capsys):
    assert main(["cha", "--node-limit", "50", "--instance", str(stopping_file)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "termination = step3-unmerged\nbeta = 6 1\n" in out
    assert "psi_bar = 78\n" in out
    assert "unproved" not in out


@pytest.mark.parametrize(
    ("limit", "code", "line"),
    [
        ("3", EXIT_LIMIT, ""),
        ("50", EXIT_OK, "wrote variant STAR (k=7, 147 variables, 154 constraints)"),
    ],
    ids=["stop", "proved"],
)
def test_exact_kbar_takes_the_node_limit(stopping_file, tmp_path, capsys, limit, code, line):
    # k_upper sums the exact class counts: 6 bins for class 1 (proved only
    # past 3 nodes) and 1 for class 2.  The heuristic count is 8.
    lp_path = tmp_path / "stops.lp"
    cmd = ["emit-model", "--instance", str(stopping_file), "--variant", "star",
           "--exact-kbar", "--node-limit", limit, "--out", str(lp_path)]
    assert main(cmd) == code
    captured = capsys.readouterr()
    assert captured.out.startswith(line)
    assert lp_path.exists() == (code == EXIT_OK)
    if code == EXIT_LIMIT:
        assert captured.err.startswith("limit reached: ")


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
        ["worstcase", "--family", "prop2", "--sweep", "2:3", "--r", "3000000000"],
        ["worstcase", "--family", "prop5", "--sweep", "1073741823:1073741824"],
        ["solve", "--method", "brute", "--instance", "inst.txt"],
        ["gen", "--free-form", "--n", "5", "--m", "1", "--d", "5"],
        ["gen", "--free-form", "--n", "2", "--m", "1", "--d", "10000"],
        ["solve", "--time-limit", "nan", "--instance", "inst.txt"],
        ["solve", "--time-limit", "-1", "--instance", "inst.txt"],
        ["solve", "--node-limit", "-1", "--instance", "inst.txt"],
        ["cha", "--node-limit", "abc", "--instance", "inst.txt"],
        ["worstcase", "--family", "prop2", "--sweep", "3"],
        ["gen", "--free-form", "--d", "3000000000"],
        ["gen", "--free-form", "--n", "2147483647"],
        ["worstcase", "--family", "prop5", "--sweep", "3:4", "--n", "2147483647"],
        ["cha", "--allow-trivial", "--instance", "inst.txt"],
        ["solve", "--allow-trivial", "--instance", "inst.txt"],
        ["emit-model", "--allow-trivial", "--instance", "inst.txt", "--variant", "n",
         "--out", "model.lp"],
    ],
    ids=[
        "prop2-n-below-2",
        "prop5-theta-below-1",
        "r-zero",
        "r-above-max-value",
        "prop5-capacity-above-max-value",
        "brute-25-items",
        "gen-empty-weight-range",
        "gen-always-trivial",
        "time-limit-nan",
        "time-limit-negative",
        "node-limit-negative",
        "node-limit-not-a-number",
        "sweep-without-colon",
        "gen-capacity-above-max-value",
        "gen-n-above-max-items",
        "prop5-n-above-max-items",
        "cha-allow-trivial",
        "solve-allow-trivial",
        "emit-model-allow-trivial",
    ],
)
def test_out_of_range_input_is_usage_error(tmp_path, capsys, args):
    inst_path = tmp_path / "inst.txt"
    assert main(
        ["gen", "--n", "25", "--m", "5", "--d", "200", "--seed", "3", "--out", str(inst_path)]
    ) == EXIT_OK
    capsys.readouterr()
    paths = {"inst.txt": str(inst_path), "model.lp": str(tmp_path / "model.lp")}
    args = [paths.get(a, a) for a in args]
    assert main(args) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


# Instance files that are well formed but fail validation, and two files
# that do not parse.  Each body follows the "BPPS 1" header line.
BAD_INSTANCES = {
    "setup-at-capacity": "2 1 10 1\n0\n10\n3 1\n4 1\n",
    "zero-capacity": "2 1 0 1\n0\n0\n1 1\n1 1\n",
    "zero-bin-cost": "3 1 10 0\n0\n1\n5 1\n5 1\n5 1\n",
    "negative-setup": "3 1 10 1\n0\n-1\n5 1\n5 1\n5 1\n",
    "empty-class": "3 2 10 1\n0 0\n1 1\n5 1\n5 1\n5 1\n",
    "item-plus-setup-above-capacity": "3 1 10 1\n0\n3\n8 1\n5 1\n5 1\n",
    "zero-capacity-zero-weights": "2 1 0 1\n0\n0\n0 1\n0 1\n",
    "negative-weight": "2 1 10 1\n0\n1\n-3 1\n3 1\n",
    "non-ascii": "2 1 10 1\n0\n1\n6 1\n6 1\n# café\n",
    "truncated": "3 1 10 1\n0\n1\n6 1\n",
}
UNPARSED = {"non-ascii", "truncated"}
# A trivial instance (everything fits one bin) is no bad instance; it
# rides along to show that every command answers it.
EXIT_CODE_CASES = {**BAD_INSTANCES, "trivial": "2 1 10 1\n0\n1\n2 1\n3 1\n"}


@pytest.mark.parametrize("name", EXIT_CODE_CASES)
@pytest.mark.parametrize(
    "command", ["bounds", "cha", "solve", "emit-model", "report", "verify"]
)
def test_bad_instance_ends_in_an_exit_code(tmp_path, capsys, name, command):
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    path = inst_dir / f"{name}.txt"
    path.write_text("BPPS 1\n" + EXIT_CODE_CASES[name], encoding="utf-8")
    # One bin holding items 1..n, n from the first line of the body.
    n = int(EXIT_CODE_CASES[name].split()[0])
    sol_path = write_solution(
        "one-bin", Solution((frozenset(range(1, n + 1)),)), tmp_path / "one-bin.sol"
    )
    argv = {
        "bounds": ["bounds", "--instance", str(path)],
        "cha": ["cha", "--instance", str(path)],
        "solve": ["solve", "--instance", str(path)],
        "emit-model": [
            "emit-model", "--instance", str(path), "--variant", "star",
            "--out", str(tmp_path / "model.lp"),
        ],
        "report": ["report", "--dir", str(inst_dir)],
        "verify": ["verify", "--instance", str(path), "--solution", str(sol_path)],
    }[command]
    code = main(argv)
    assert code in range(5)
    # Files that do not parse are a file error, and report skips them.
    if name in UNPARSED:
        expected = EXIT_OK if command == "report" else EXIT_IO
    elif name == "trivial":
        expected = EXIT_OK
    else:
        expected = EXIT_INFEASIBLE
    assert code == expected
    assert "Traceback" not in capsys.readouterr().err


# (kind, index) of every violation, in report order, for each data-error body.
BAD_INSTANCE_VIOLATIONS = {
    "setup-at-capacity": [("item-setup-overflow", 1), ("item-setup-overflow", 2)],
    "zero-capacity": [
        ("capacity-value", None),
        ("item-setup-overflow", 1),
        ("item-setup-overflow", 2),
    ],
    "zero-bin-cost": [("bin-cost", None)],
    "negative-setup": [("setup-weight", 1)],
    "empty-class": [("empty-class", 2)],
    "item-plus-setup-above-capacity": [("item-setup-overflow", 1)],
    "zero-capacity-zero-weights": [
        ("capacity-value", None),
        ("item-weight", 1),
        ("item-weight", 2),
    ],
    "negative-weight": [("item-weight", 1)],
}


@pytest.mark.parametrize("name", [n for n in BAD_INSTANCES if n not in UNPARSED])
def test_bad_instance_data_is_rejected_when_parsed(name):
    with pytest.raises(InvalidInstanceError) as caught:
        parse_instance("BPPS 1\n" + BAD_INSTANCES[name])
    found = [(v.kind, v.index) for v in caught.value.report.violations]
    assert found == BAD_INSTANCE_VIOLATIONS[name]


# Each command reads the instance first, so invalid data is reported
# before a bad solution file or a too-large brute-force request.
@pytest.mark.parametrize(
    "case", ["verify-unparsed-solution", "report-unparsed-solution", "solve-brute-13-items"]
)
def test_invalid_instance_is_reported_before_other_faults(tmp_path, capsys, case):
    n = 13 if case == "solve-brute-13-items" else 2
    # Item 1 weighs -3; the others weigh 1.
    body = f"{n} 1 10 1\n0\n1\n-3 1\n" + "1 1\n" * (n - 1)
    path = tmp_path / "bad.txt"
    path.write_text("BPPS 1\n" + body, encoding="ascii")
    path.with_suffix(".sol").write_text("BPPS-SOL 1\nbad 2\n1 2\n", encoding="ascii")
    argv = {
        "verify-unparsed-solution": [
            "verify", "--instance", str(path), "--solution", str(path.with_suffix(".sol")),
        ],
        "report-unparsed-solution": ["report", "--dir", str(tmp_path)],
        "solve-brute-13-items": ["solve", "--instance", str(path), "--method", "brute"],
    }[case]
    assert main(argv) == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("validation error: invalid instance: item-weight at 1 ")
    assert captured.err.count("\n") == 1


# r = 10 and f = 3 4: the one-bin optimum costs r + sum f_c = 17.
TRIVIAL = Instance((1, 2, 3), 20, (1, 2, 2), (2, 1), (3, 4), 10)
ONE_BIN = "bins:\n  1: 1 2 3\n"
TRIVIAL_ANSWERS = {
    "bounds": (["bounds"], ["k_lower = 1\n", "zeta_ddag = 17 (17.00)\n"]),
    "cha-exact": (
        ["cha", "--bpp-mode", "exact"],
        ["termination = step3-unmerged\n", "psi_bar = 17\n", ONE_BIN],
    ),
    "cha-heuristic": (
        ["cha", "--bpp-mode", "heuristic"],
        ["termination = step3-unmerged\n", "psi_bar = 17\n", ONE_BIN],
    ),
    "solve-auto": (["solve"], ["status = optimal\n", "psi = 17\n", ONE_BIN]),
    "solve-bnb": (
        ["solve", "--method", "bnb"],
        ["status = optimal\n", "psi = 17\n", "nodes = 1\n", ONE_BIN],
    ),
    "solve-brute": (["solve", "--method", "brute"], ["status = optimal\n", "psi = 17\n", ONE_BIN]),
    # The search stops at once, with its incumbent already at the root
    # bound: a closed bracket, which is a proof.
    "solve-bnb-limit-0": (
        ["solve", "--method", "bnb", "--node-limit", "0"],
        ["status = optimal\n", "psi = 17\n", "lower_bound = 17\n", "nodes = 1\n", ONE_BIN],
    ),
    "emit-model-n": (["emit-model", "--variant", "n"], ["variant N (k=3, "]),
    "emit-model-dag": (["emit-model", "--variant", "dag"], ["variant DAG (k=3, "]),
    "emit-model-ddag": (["emit-model", "--variant", "ddag"], ["variant DDAG (k=3, "]),
    "emit-model-star": (["emit-model", "--variant", "star"], ["variant STAR (k=2, "]),
    "verify": (
        ["verify"],
        ["trivial: feasible\n", "psi = 17 (bins 10 + setups 7)\n", "bins = 1\n"],
    ),
    "report": (["report"], ["trivial,3,2,20,10,1,2,23/2,23/2,17,17,1,3,2,45,550/17,550/17,0\n"]),
}


@pytest.mark.parametrize("case", TRIVIAL_ANSWERS)
def test_trivial_instance_is_answered_by_every_command(tmp_path, capsys, case):
    argv, answers = TRIVIAL_ANSWERS[case]
    path = write_instance(TRIVIAL, tmp_path / "trivial.txt")
    sol_path = write_solution(
        "trivial", Solution((frozenset(TRIVIAL.items),)), tmp_path / "trivial.sol"
    )
    lp_path = tmp_path / "model.lp"
    argv = argv + {
        "report": ["--dir", str(tmp_path)],
        "verify": ["--instance", str(path), "--solution", str(sol_path)],
        "emit-model": ["--instance", str(path), "--out", str(lp_path)],
    }.get(argv[0], ["--instance", str(path)])
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    for answer in answers:
        assert answer in out
    if argv[0] == "emit-model":
        # The one-bin packing meets every row of the model and costs 17.
        model = parse_lp_file(lp_path)
        ones = {"x_1_1", "x_2_1", "x_3_1", "y_1_1", "y_2_1", "z_1"}

        def value(terms):
            return sum(a for name, a in terms if name in ones)

        assert value(model.objective) == 17
        for row in model.rows:
            lhs = value(row.terms)
            met = {"<=": lhs <= row.rhs, ">=": lhs >= row.rhs, "=": lhs == row.rhs}
            assert met[row.sense], row.name


@pytest.mark.parametrize(
    "stem", ["we ird", "a#b", " lead", "café"], ids=["space", "hash", "leading-space", "non-ascii"]
)
@pytest.mark.parametrize("command", ["cha", "solve"])
def test_out_name_that_would_not_read_back_is_a_file_error(tmp_path, capsys, command, stem):
    path = write_instance(fig1_instance(), tmp_path / f"{stem}.txt")
    sol_path = tmp_path / "out.sol"
    assert main([command, "--instance", str(path), "--out", str(sol_path)]) == EXIT_IO
    captured = capsys.readouterr()
    # The name is checked before the search, so no answer is printed.
    assert captured.out == ""
    assert captured.err.startswith("file error: solution name ")
    assert captured.err.count("\n") == 1
    assert not sol_path.exists()


def test_report_out_of_non_ascii_text_is_a_file_error(fig1_file, tmp_path, capsys):
    write_instance(fig1_instance(), tmp_path / "café.txt")
    out_path = tmp_path / "results.csv"
    assert main(["report", "--dir", str(tmp_path), "--out", str(out_path)]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"file error: cannot write {out_path}: ")
    assert captured.err.count("\n") == 1
    assert not out_path.exists()


@pytest.mark.parametrize(
    "text, code",
    [
        ("BPPS-SOL 1\nfig1_r10 2\n1 2 3 4 5 6 7 8\n", EXIT_IO),
        ("BPPS-SOL 1\nfig1_r10 1\n1 2 3 4 5 6 7 8\n", EXIT_INFEASIBLE),
    ],
    ids=["unparsed", "infeasible"],
)
def test_report_sibling_solution_must_parse_and_be_feasible(fig1_file, capsys, text, code):
    fig1_file.with_suffix(".sol").write_text(text, encoding="ascii")
    assert main(["report", "--dir", str(fig1_file.parent)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_every_flag_in_the_readme_cli_section_is_accepted():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    assert flags
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {flag for parser in sub.choices.values() for flag in parser._option_string_actions}
    assert sorted(flags - accepted) == []
