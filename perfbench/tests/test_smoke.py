"""Smoke-sized runs of the benchmark: every workload, untraced and traced.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
RUN = BENCH / "run.py"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.fixture(scope="module")
def summary() -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--seed", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert units("end_to_end") == run.END_TO_END
    outcome_names = {
        f"{w}.{k}" for w in workloads.WORKLOADS for k in run.OUTCOMES
    } - {"model-emit.gap_pct"}
    assert units("per_layer").keys() == layers.METRICS.keys() | outcome_names


def test_every_end_to_end_metric_with_its_unit(summary):
    assert summary["correct"]
    for name, entry in summary["workloads"].items():
        assert set(entry) == {"correct", "attempted", "failed", "metrics", "info"}
        assert entry["failed"] == 0 and entry["attempted"] >= 1, name
        info = entry["info"]
        assert entry["attempted"] == info["passes"] * info["ops_per_pass"] + info["ops_once"], name
        got = {k: m["unit"] for k, m in entry["metrics"].items()}
        assert got == units("end_to_end"), name
        assert all(m["value"] > 0 for m in entry["metrics"].values()), name


def test_every_per_layer_metric_and_matching_digests(summary):
    entry = summary["layers"]
    assert entry["correct"] and entry["failed"] == 0
    got = {k: m["unit"] for k, m in entry["metrics"].items()}
    assert got == units("per_layer")
    assert entry["metrics"]["exact.oracle_mismatches"]["value"] == 0
    digests = entry["info"]["digests"]
    assert digests.keys() == summary["workloads"].keys()
    for name, pair in digests.items():
        assert pair["traced"] == pair["untraced"] == summary["workloads"][name]["info"]["digest"]


def test_limits_and_the_crash_are_counted_not_dropped(summary, tmp_path):
    workload = workloads.SMOKE["exact-search"]
    sys.path.insert(0, str(run.SRC))
    bpps = run.import_bpps()
    names = [op.name for op in workload.run_pass(bpps, workload.setup(bpps, 1, tmp_path)).ops]
    assert {"defect_300x5_cap11", "defect_1200x7_d21"} <= set(names)
    assert sum(name.startswith("sweep_") for name in names) == sum(c for _, c in workload.sweep)
    entry = summary["workloads"]["exact-search"]
    info, layered = entry["info"], summary["layers"]["metrics"]
    assert info["ops_per_pass"] == len(names)
    for key in ("fail_frac", "crash_frac", "gap_pct"):
        assert info[key] == layered[f"exact-search.{key}"]["value"], key


def test_tracer_restores_every_binding():
    sys.path.insert(0, str(run.SRC))
    run.import_bpps()
    modules = run.bpps_modules()
    before = {name: dict(vars(m)) for name, m in modules.items()}
    tracer = layers.Tracer()
    tracer.install(modules)
    assert modules["bpps.report"].k_upper is not before["bpps.report"]["k_upper"]
    assert modules["bpps"].cha is not before["bpps"]["cha"]
    tracer.uninstall()
    assert {name: dict(vars(m)) for name, m in modules.items()} == before


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "grid-analyze",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
