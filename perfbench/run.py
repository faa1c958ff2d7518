"""Layered benchmark for bpps: grid-analyze, model-emit and exact-search.

Run from the repository root::

    python3 perfbench/run.py                    # every workload, then the traced run
    python3 perfbench/run.py --workload grid-analyze --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 3 --trace 1        # the layered run alone

With ``--workload`` the run measures one workload in this process and prints
its metrics, one per line with unit and sample count, then one JSON object
as the last line: ``{"correct", "attempted", "failed", "metrics"}``.

* ``--trace 0`` reports the end-to-end metrics.  The run alternates set-ups
  (import plus input generation) with whole passes over the inputs just
  made: at least ``MIN_PASSES`` passes, and more while the next one would
  end within ``--seconds``.  All of them use one work directory, so that
  later set-ups and passes rewrite the files of the first rather than create
  new ones.  After the first pass come the ops the workload runs once
  (``run_once``) and its oracle check.  Every pass must give the same
  outcome digest.  ``setup_s`` is the median set-up time.  Each op's time is
  the median of its timings over the passes; the latency percentiles are
  taken over these per-op times, and throughput is the op count over their
  sum plus the median time of the timed steps that are not ops.  The ops run
  once are checked and counted in ``attempted`` but stay out of the time
  figures.

  On a shared host the processor's speed changes by up to 2x for seconds to
  minutes at a time, as other tenants' load comes and goes, and the host
  also stops it for about 4 ms at a time.  So after every op the pass runs
  a fixed pure-Python loop, which does not use ``bpps``, for a tenth of the
  op's time (``workloads.speed_sample``), and every time of a pass (its
  set-up's too) is scaled to the speed at which one round of that loop
  takes ``ROUND_S`` (``pass_speed``, ``scaled``): times are reported at a
  fixed processor speed, and a faster ``bpps`` still lowers them in
  proportion.  The info line gives each pass's two factors (``speed``) and
  the figures without them (``unscaled``).  The passes take the processors
  in turn, so that a run's figures rest on all of them.
* ``--trace 1`` is the layered run.  It covers every workload, whether or not
  one is named, so that every layer is measured: per workload one traced
  set-up, one untraced pass and one traced pass of the same inputs, whose
  digests must match.  It reports the per-layer metrics of ``layers.py``,
  the outcome counts of each workload and ``trace.overhead_frac``: the
  traced over the untraced time, both scaled like the end-to-end times
  (``scaled_s``), minus 1.

Without ``--workload`` every workload is measured in its own process with
tracing off, then the layered run is made, and everything is printed.

``failed`` in the JSON line counts operations whose output check failed
(wrong, unstable or crashing results).  Searches that stop at their node
limit and the documented defect input that raises are outcomes the
exact-search workload measures; they are counted in ``fail_frac`` and
``crash_frac``.  The process exits non-zero when any check fails or when
the package sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MODULES = ("bounds", "bpp", "cha", "cli", "core", "exact", "files", "gen", "milp", "report")
MIN_PASSES = 3
#: The time of one reference round (``workloads.speed_sample``) at which a
#: pass's times are reported unscaled; about its median on a 2-core x86-64
#: host.
ROUND_S = 30e-6
#: How long the host stops this process's processor at a time: on a 2-core
#: x86-64 host, the reference rounds that such a stop hits are 4.1 ms long.
PAUSE_S = 4e-3

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
}
#: Outcome metrics reported by the layered run, per workload.
OUTCOMES = {"fail_frac": "fraction", "crash_frac": "fraction", "gap_pct": "%"}

clock = time.perf_counter


def import_bpps() -> SimpleNamespace:
    """Import the package afresh from ``src/`` and return its modules.

    ``bpps.cha`` is resolved with ``importlib`` because the package rebinds
    that name to the ``cha`` function.
    """
    for name in [n for n in sys.modules if n == "bpps" or n.startswith("bpps.")]:
        del sys.modules[name]
    package = importlib.import_module("bpps")
    if Path(package.__file__).resolve().parent != SRC / "bpps":
        raise ImportError(f"bpps imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"bpps.{m}") for m in MODULES})


def bpps_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "bpps" or n.startswith("bpps.")}


def commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def round_us() -> float:
    """Mean time of one reference round over 50 ms, in microseconds.

    The load average does not show the processor's speed drifting with
    other tenants' load; recorded at the start and end of every run so
    that the drift is visible.
    """
    rounds, seconds = workloads.speed_sample(0.05 / workloads.REFERENCE_SHARE)
    return seconds / rounds * 1e6


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "commit": commit(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "round_us_start": round_us(),
    }


def environment_end() -> dict:
    return {"loadavg_end": os.getloadavg(), "round_us_end": round_us()}


@contextlib.contextmanager
def on_cpu(turn: int):
    """Run on one of the processors this process may use, taking them in turn."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[turn % len(allowed)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def percentile_ms(seconds: list[float], pct: int) -> float:
    return statistics.quantiles([s * 1000 for s in seconds], n=100, method="inclusive")[pct - 1]


def pass_speed(p) -> tuple[float, float]:
    """The processor's speed over a pass relative to ``ROUND_S``: alone
    (median round time) and with the host's pauses (mean round time)."""
    return ROUND_S / statistics.median(s / n for n, s in p.reference), ROUND_S / p.round_s


def scaled(seconds: float, speed: tuple[float, float]) -> float:
    """A time at ``ROUND_S`` speed.  An op longer than a host pause takes
    its share of the pauses, a shorter one mostly none; between the two the
    factor moves from the speed alone to the speed with pauses."""
    alone, paused = speed
    share = min(1.0, seconds / PAUSE_S)
    return seconds * alone ** (1 - share) * paused**share


def scaled_s(p) -> float:
    """A pass's timed seconds at ``ROUND_S`` speed."""
    speed = pass_speed(p)
    return sum(scaled(op.seconds, speed) for op in p.ops) + scaled(p.other_s, speed)


def timings(passes: list, setups: list[float], speed: list[tuple[float, float]]) -> dict:
    """The time metrics of a run, each pass's times scaled by its speed."""
    op_s = [
        statistics.median(scaled(s, f) for s, f in zip(times, speed))
        for times in zip(*([op.seconds for op in p.ops] for p in passes))
    ]
    other_s = statistics.median(scaled(p.other_s, f) for p, f in zip(passes, speed))
    return {
        "setup_s": statistics.median(scaled(s, f) for s, f in zip(setups, speed)),
        "throughput_ops_s": len(op_s) / (sum(op_s) + other_s),
        "op_p50_ms": percentile_ms(op_s, 50),
        "op_p95_ms": percentile_ms(op_s, 95),
    }


def measure(workload, seed: int, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics of one workload: (result line, info)."""
    env = environment()
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        setups, passes = [], []
        start = clock()
        while len(passes) < MIN_PASSES or clock() - start + pass_s <= seconds:
            begin = clock()
            bpps = import_bpps()
            inputs = workload.setup(bpps, seed, work)
            setups.append(clock() - begin)
            with on_cpu(len(passes)):
                passes.append(workload.run_pass(bpps, inputs))
            pass_s = clock() - begin
            if len(passes) == 1:
                once = workload.run_once(bpps, inputs)
                mismatches = workload.oracle(bpps, inputs, passes[0])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first = passes[0]
    stable = all(p.digest == first.digest for p in passes)
    ops = [op for p in passes + [once] for op in p.ops]
    bad = sum(op.bad is not None for op in ops)
    speed = [pass_speed(p) for p in passes]
    values = timings(passes, setups, speed)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = {
        "setup_s": len(setups),
        "throughput_ops_s": len(first.ops),
        "op_p50_ms": len(first.ops),
        "op_p95_ms": len(first.ops),
        "peak_rss_mb": 1,
    }
    result = {
        "correct": stable and bad == 0 and mismatches == 0,
        "attempted": len(ops),
        "failed": bad + mismatches,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
    }
    info = {
        "workload": workload.name,
        "seed": seed,
        "definition": dataclasses.asdict(workload),
        "passes": len(passes),
        "ops_per_pass": len(first.ops),
        "ops_once": len(once.ops),
        "pass_s": [round(p.timed_s, 3) for p in passes],
        "speed": [[round(f, 4) for f in pair] for pair in speed],
        "unscaled": timings(passes, setups, [(1.0, 1.0)] * len(passes)),
        "samples": samples,
        "digest": (first + once).digest,
        "passes_repeat": stable,
        "oracle_mismatches": mismatches,
        "bad_ops": sorted({f"{op.name}: {op.bad}" for op in ops if op.bad})[:10],
        **(first + once).quality(),
        **env,
        **environment_end(),
    }
    return result, info


def measure_layers(chosen: dict, seed: int) -> tuple[dict, dict]:
    """The layered run over every workload: (result line, info)."""
    env = environment()
    tracers, per_workload, digests, outcomes = [], {}, {}, {}
    untraced_s = traced_s = 0.0
    attempted = bad = mismatches = 0
    stable = True
    for workload in chosen.values():
        tracer = layers.Tracer()
        tracers.append(tracer)
        work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
        try:
            bpps = import_bpps()
            tracer.install(bpps_modules())
            with tracer.recording():
                inputs = workload.setup(bpps, seed, work)
            tracer.uninstall()
            plain = workload.run_pass(bpps, inputs) + workload.run_once(bpps, inputs)
            tracer.install(bpps_modules())
            with tracer.recording():
                traced = workload.run_pass(bpps, inputs, tracer) + workload.run_once(bpps, inputs, tracer)
                wrong = workload.oracle(bpps, inputs, traced)
        finally:
            tracer.uninstall()
            shutil.rmtree(work, ignore_errors=True)
        plain_s, traced_pass_s = scaled_s(plain), scaled_s(traced)
        untraced_s += plain_s
        traced_s += traced_pass_s
        mismatches += wrong
        attempted += len(plain.ops) + len(traced.ops)
        bad += sum(op.bad is not None for op in plain.ops + traced.ops)
        stable &= plain.digest == traced.digest
        digests[workload.name] = {"untraced": plain.digest, "traced": traced.digest}
        per_workload[workload.name] = tracer.metrics(wrong, traced_pass_s / plain_s - 1)
        for key, value in traced.quality().items():
            if value is not None:
                outcomes[f"{workload.name}.{key}"] = value

    values = layers.Tracer.combined(tracers).metrics(mismatches, traced_s / untraced_s - 1)
    values.update(outcomes)
    units = {**layers.METRICS, **{k: OUTCOMES[k.rsplit(".", 1)[1]] for k in outcomes}}
    result = {
        "correct": stable and bad == 0 and mismatches == 0,
        "attempted": attempted,
        "failed": bad + mismatches,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    info = {
        "workload": "layers",
        "seed": seed,
        "definitions": {name: dataclasses.asdict(w) for name, w in chosen.items()},
        "digests": digests,
        "per_workload": per_workload,
        **env,
        **environment_end(),
    }
    return result, info


def print_result(result: dict, info: dict) -> None:
    samples = info.get("samples", {})
    lines = [(k, m["value"], m["unit"], samples.get(k)) for k, m in result["metrics"].items()]
    # Outcome counts of one pass; the layered run reports them as metrics.
    lines += [(k, info[k], OUTCOMES[k], info["ops_per_pass"]) for k in OUTCOMES if info.get(k) is not None]
    for name, value, unit, count in lines:
        suffix = f"  (n={count})" if count else ""
        print(f"{info['workload']:>12}  {name:<28} {value:>16.6f} {unit}{suffix}")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result), flush=True)


def run_children(args: argparse.Namespace) -> int:
    """Every workload untraced in its own process, then the layered run."""
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.smoke:
        common.append("--smoke")
    jobs = [(w, "0") for w in workloads.WORKLOADS] + [(None, "1")]
    summary = {"correct": True, "workloads": {}, "layers": None}
    for workload, trace in jobs:
        chosen = ["--workload", workload] if workload else []
        argv = [sys.executable, str(Path(__file__).resolve()), *chosen, "--trace", trace, *common]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines if not line.startswith("{")))
        if proc.returncode not in (0, 3) or not lines:
            print(f"{workload or 'layers'} (trace {trace}) exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        info = json.loads(next(line[5:] for line in lines if line.startswith("info ")))
        entry = {**result, "info": info}
        if trace == "1":
            summary["layers"] = entry
        else:
            summary["workloads"][workload] = entry
        summary["correct"] &= result["correct"]
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS),
                        help="measure one workload; --trace 1 always covers all of them")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)

    if not (SRC / "bpps" / "__init__.py").is_file():
        print(f"bpps sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None and not args.trace:
        return run_children(args)

    sys.path.insert(0, str(SRC))
    chosen = workloads.SMOKE if args.smoke else workloads.WORKLOADS
    WORK.mkdir(exist_ok=True)
    try:
        if args.trace:
            result, info = measure_layers(chosen, args.seed)
        else:
            result, info = measure(chosen[args.workload], args.seed, args.seconds)
    finally:
        with contextlib.suppress(OSError):  # left in place while not empty
            WORK.rmdir()
    print_result(result, info)
    return 0 if result["correct"] else 3


if __name__ == "__main__":
    sys.exit(main())
