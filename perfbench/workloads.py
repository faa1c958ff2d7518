"""The three workloads: inputs from a seed, one timed pass, output checks.

Every workload drives ``bpps`` only through its public functions and the
in-process CLI (``bpps.cli.main`` with stdout captured).  A pass runs a
fixed list of operations; only the calls into the package are timed, and
each operation's output is checked right after its span closes.  Search
efforts are node limits stored in the workload definitions below; no
operation has a wall-clock limit, so a pass's outcomes (and with them its
digest, failure counts and gaps) are a function of the seed alone.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import random
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

clock = time.perf_counter

#: Iterations in one round of the reference loop.
REFERENCE_ROUND = 500
#: Time spent in the reference loop after an op, as a share of the op's time.
REFERENCE_SHARE = 0.1


def speed_sample(op_seconds: float) -> tuple[int, float]:
    """Rounds of a fixed pure-Python loop, independent of ``bpps``, run
    after an op for ``REFERENCE_SHARE`` of its time (one round at least):
    (rounds, seconds).

    A pass's rounds thus sample the processor's speed over the same
    seconds as its ops, in proportion to them.
    """
    rounds = 0
    start = clock()
    while True:
        total = 0
        for i in range(REFERENCE_ROUND):
            total += i * i
        rounds += 1
        elapsed = clock() - start
        if elapsed >= REFERENCE_SHARE * op_seconds:
            return rounds, elapsed


@dataclass
class Op:
    """One timed operation and what its checks made of it."""

    name: str
    seconds: float
    outcome: str  # canonical text covered by the pass digest
    failed: bool = False  # stopped at a limit, raised, or failed a check
    crashed: bool = False  # raised an exception that is not a BppsError
    bad: str | None = None  # why the output check failed
    gap: Fraction | None = None  # 100 * (upper - lower) / upper
    value: tuple | None = None  # (status, psi, lower bound) of a search


@dataclass
class Pass:
    ops: list[Op]
    other_s: float = 0.0  # timed steps that are not ops (grid-analyze's report)
    extra: str = ""  # further output covered by the digest
    reference: list[tuple[int, float]] = field(default_factory=list)  # speed_sample() after each op

    def __add__(self, other: Pass) -> Pass:
        return Pass(self.ops + other.ops, self.other_s + other.other_s, self.extra + other.extra,
                    self.reference + other.reference)

    @property
    def round_s(self) -> float:
        """Mean time of one reference round over the pass."""
        return sum(s for _, s in self.reference) / sum(n for n, _ in self.reference)

    @property
    def timed_s(self) -> float:
        return sum(op.seconds for op in self.ops) + self.other_s

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for op in self.ops:
            h.update(f"{op.name}\t{op.outcome}\t{op.failed}{op.crashed}\n".encode())
        h.update(self.extra.encode())
        return h.hexdigest()

    def quality(self) -> dict[str, float | None]:
        n = len(self.ops)
        gaps = [op.gap for op in self.ops]
        return {
            "fail_frac": sum(op.failed for op in self.ops) / n,
            "crash_frac": sum(op.crashed for op in self.ops) / n,
            "gap_pct": None if None in gaps else float(sum(gaps) / n),
        }


class Workload:
    """What every workload offers besides ``setup`` and ``run_pass``."""

    def run_once(self, bpps, inputs, tracer=None) -> Pass:
        """Ops run once per run, after the timed passes: checked and
        counted, but left out of the latency and throughput figures."""
        return Pass([])

    def oracle(self, bpps, inputs, first: Pass) -> int:
        """Check the first pass against an independent solver; mismatches."""
        return 0


def unrecorded(tracer):
    """Context for the benchmark's own checks: never traced."""
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def run_cli(bpps: SimpleNamespace, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = bpps.cli.main(argv)
    return code, out.getvalue()


def grid_base_seed(seed: int) -> int:
    """Grid base seed for a workload seed.

    A grid uses config seeds ``base`` and ``base + 1``, so even bases keep
    the grids of different workload seeds disjoint.
    """
    return 2 * seed


def canonical_bins(solution) -> str:
    return "|".join(sorted(" ".join(map(str, sorted(b))) for b in solution.bins))


# ---------------------------------------------------------------- grid-analyze


@dataclass(frozen=True)
class GridAnalyze(Workload):
    """``bpps cha --bpp-mode heuristic`` then ``bpps verify`` per grid
    instance, then one ``bpps report`` over the directory.

    The everyday batch path; fit heuristics take most of it.  Set-up writes
    the 480-instance grid with ``bpps gen --benchmark``.
    """

    name = "grid-analyze"
    #: Keep every k-th grid instance in name order (1 = the whole grid).
    #: The slowest ops are a few large-item n = 200 instances, and which of
    #: them are slow changes with the seed; over ten seeds (two passes each)
    #: op_p95_ms spread (IQR/median) 0.15 on the whole grid and 0.22 on one
    #: instance of each of its 240 points, so the whole grid it is.  A pass
    #: takes 5 to 8 s.
    keep_every: int = 1

    def setup(self, bpps, seed: int, work: Path):
        grid = work / "grid"
        argv = ["gen", "--benchmark", "--out-dir", str(grid),
                "--base-seed", str(grid_base_seed(seed))]
        code, out = run_cli(bpps, argv)
        if code != 0:
            raise RuntimeError(f"bpps gen --benchmark exited {code}: {out}")
        paths = sorted(grid.glob("*.txt"))
        for idx, path in enumerate(paths):
            if idx % self.keep_every:
                path.unlink()
        names = [p.stem for p in paths[:: self.keep_every]]
        return SimpleNamespace(dir=grid, names=names, csv=work / "report.csv")

    def run_pass(self, bpps, inputs, tracer=None) -> Pass:
        raw, reference = [], []
        for name in inputs.names:
            inst = str(inputs.dir / f"{name}.txt")
            sol = str(inputs.dir / f"{name}.sol")
            start = clock()
            try:
                cha = run_cli(bpps, ["cha", "--instance", inst, "--bpp-mode", "heuristic", "--out", sol])
                verify = run_cli(bpps, ["verify", "--instance", inst, "--solution", sol])
            except Exception as exc:  # recorded as a crash
                cha = verify = (None, type(exc).__name__)
            raw.append((name, clock() - start, cha, verify))
            reference.append(speed_sample(raw[-1][1]))
        start = clock()
        try:
            report = run_cli(bpps, ["report", "--dir", str(inputs.dir), "--out", str(inputs.csv)])
        except Exception as exc:  # every op then lacks its report row
            report = (None, type(exc).__name__)
        report_s = clock() - start

        with unrecorded(tracer):
            text = inputs.csv.read_text() if report[0] == 0 else ""
            rows = {row["instance"]: row for row in csv.DictReader(io.StringIO(text))}
            prefix = str(inputs.dir)
            ops = [
                self._check(name, seconds, cha, verify, rows.get(name), prefix)
                for name, seconds, cha, verify in raw
            ]
        return Pass(ops, report_s, extra=text, reference=reference)

    @staticmethod
    def _check(name, seconds, cha, verify, row, prefix) -> Op:
        (cha_code, cha_out), (verify_code, verify_out) = cha, verify
        op = Op(name, seconds, (cha_out + verify_out).replace(prefix, "<grid>"))
        psi_bar = re.search(r"^psi_bar = (\d+)$", cha_out, re.M)
        psi = re.search(r"^psi = (\d+) ", verify_out, re.M)
        op.crashed = cha_code is None
        if cha_code != 0 or verify_code != 0:
            op.bad = f"exit codes cha={cha_code} verify={verify_code}"
        elif row is None:
            op.bad = "no report row"
        elif not (psi_bar and psi and psi.group(1) == psi_bar.group(1) == row["psi"]):
            op.bad = "psi_bar, verified psi and report psi disagree"
        else:
            upper = Fraction(psi_bar.group(1))
            chain = [Fraction(row[k]) for k in ("zeta_n", "zeta_dag", "zeta_ddag")]
            if not chain[0] <= chain[1] <= chain[2] <= upper:
                op.bad = "bound chain zeta_n <= zeta_dag <= zeta_ddag <= psi_bar broken"
            op.gap = 100 * (upper - chain[2]) / upper
        op.failed = op.bad is not None
        return op


# ------------------------------------------------------------------ model-emit

EMIT_VARIANTS = (("n", "N"), ("dag", "DAG"), ("ddag", "DDAG"), ("star", "STAR"))


@dataclass(frozen=True)
class ModelEmit(Workload):
    """``bpps emit-model`` then ``milp.parse_lp_file`` per (instance, variant).

    Model build, LP render and LP parse do almost all the work, so writes
    sit beside reads.  Small grid instances make the timed passes; one
    n = 200 instance (about 40k rows in N) runs once per run, after them,
    and sets the peak memory.  At about 1.3 s per op it would take 40% of a
    pass, so the per-op medians would rest on too few passes.
    """

    name = "model-emit"
    #: Grid instances per size: n -> how many parameter points to take.
    #: An n = 50 op costs about four times an n = 25 op, so 40 and 10 give
    #: the two sizes about the same share of a pass's time (3.0 s and 2.8 s
    #: on a 2-core x86-64 host) while keeping 200 ops.
    per_size: tuple[tuple[int, int], ...] = ((25, 40), (50, 10))
    #: The parameter point of the large instance (n, m, d, costs, items,
    #: setups), or None for none.
    large_point: tuple | None = (200, 10, 1000, "with-costs", "small", "small")

    def setup(self, bpps, seed: int, work: Path):
        rng = random.Random(seed)
        points: dict[tuple, list] = {}
        for cfg in bpps.gen.benchmark_configs(grid_base_seed(seed)):
            key = (cfg.n, cfg.m, cfg.d, cfg.cost_mode, cfg.item_size, cfg.setup_size)
            points.setdefault(key, []).append(cfg)
        chosen = []
        for n, count in self.per_size:
            keys = [k for k in points if k[0] == n]
            for key in sorted(rng.sample(keys, count)):
                chosen.append(rng.choice(points[key]))
        large = [rng.choice(points[self.large_point])] if self.large_point else []

        def write(configs):
            items = []
            for cfg in configs:
                inst = bpps.gen.generate(cfg)
                path = work / f"{bpps.gen.instance_name(cfg)}.txt"
                bpps.files.write_instance(inst, path)
                items.append((path, inst))
            return items

        return SimpleNamespace(items=write(chosen), large=write(large), lp=work / "model.lp")

    def run_pass(self, bpps, inputs, tracer=None) -> Pass:
        return self._emit(bpps, inputs.items, inputs.lp, tracer)

    def run_once(self, bpps, inputs, tracer=None) -> Pass:
        return self._emit(bpps, inputs.large, inputs.lp, tracer)

    def _emit(self, bpps, items, lp, tracer) -> Pass:
        ops, reference = [], []
        for path, inst in items:
            for flag, variant in EMIT_VARIANTS:
                argv = ["emit-model", "--instance", str(path), "--variant", flag, "--out", str(lp)]
                name = f"{path.stem}:{variant}"
                start = clock()
                model = error = None
                try:
                    code, _ = run_cli(bpps, argv)
                    if code == 0:
                        model = bpps.milp.parse_lp_file(lp)
                except Exception as exc:  # recorded as a crash or failure
                    error = exc
                seconds = clock() - start
                reference.append(speed_sample(seconds))
                with unrecorded(tracer):
                    ops.append(self._check(bpps, name, seconds, inst, variant, lp, model, error))
        return Pass(ops, reference=reference)

    @staticmethod
    def _check(bpps, name, seconds, inst, variant, lp, model, error) -> Op:
        if model is None:
            failure = type(error).__name__ if error else "non-zero exit"
            op = Op(name, seconds, f"error {failure}", failed=True)
            op.crashed = error is not None and not isinstance(error, bpps.core.BppsError)
            op.bad = "emit-model or parse failed"
            return op
        text = lp.read_text(encoding="ascii")
        n, m, k = inst.n, inst.m, model.k
        rows = (n + 1) * k + n + (m if variant != "N" else 0) + (variant in ("DDAG", "STAR"))
        op = Op(name, seconds, f"k={k} rows={len(model.rows)} vars={len(model.variables)} "
                               f"sha={hashlib.sha256(text.encode()).hexdigest()}")
        if bpps.milp.render_lp(model) != text:
            op.bad = "parsed model does not re-render to the same bytes"
        elif (model.variant, model.n, model.m) != (variant, n, m):
            op.bad = "header does not match the instance"
        elif not (k == n if variant != "STAR" else bpps.bounds.k_lower(inst) <= k <= n):
            op.bad = f"k = {k} out of range"
        elif len(model.variables) != (n + m + 1) * k or len(model.rows) != rows:
            op.bad = "row or variable count differs from the closed form"
        op.failed = op.bad is not None
        return op


# ---------------------------------------------------------------- exact-search


@dataclass(frozen=True)
class ExactSearch(Workload):
    """The two exact searches under fixed node limits.

    (a) exact-mode CHA on every grid instance; (b) branch-and-bound on a
    seeded free-form sweep (m = 3, d = 200, large items, small setups),
    with brute force as the oracle wherever n <= 12; (c) two documented
    per-class packing defects: 300 items of weight 5 at residual capacity
    11 (stops at the limit) and 1,200 items of weight 7 at d = 21, s = 1
    (raises RecursionError).  Ops that stop at a limit or raise are failed
    ops and stay in the counts.
    """

    name = "exact-search"
    #: Nearly every grid instance that stops at 5,000 nodes also stops at
    #: 20,000 (78, 82 and 80 per grid on seeds 1-3, against 78, 82 and
    #: 78), and the smaller limit takes a third of the time.
    cha_node_limit: int = 5_000
    bnb_node_limit: int = 2_000
    #: Sweep instances per n.  The instances that stop at the limit take
    #: most of the time and their number varies with the seed, so n >= 13
    #: gets many cheap instances (about half stop at 2,000 nodes) rather
    #: than a few dear ones; n <= 12 gets fewer because brute force checks
    #: each of them, and its cost grows about fivefold per extra item.
    sweep: tuple[tuple[int, int], ...] = (
        ((10, 6), (11, 3), (12, 1)) + tuple((n, 40) for n in range(13, 26))
    )
    oracle_max_n: int = 12
    keep_every: int = 1

    def setup(self, bpps, seed: int, work: Path):
        gen = bpps.gen
        grid = gen.generate_benchmark(grid_base_seed(seed))[:: self.keep_every]
        sweep = []
        for n, count in self.sweep:
            for j in range(count):
                cfg = gen.GeneratorConfig(
                    n=n, m=3, d=200, cost_mode=gen.COST_WITH, item_size="large",
                    setup_size="small", seed=(seed * 100 + n) * 100 + j, free_form=True,
                )
                sweep.append((f"sweep_n{n}_{j}", gen.generate(cfg)))
        make = bpps.core.make_instance
        defects = [
            ("defect_300x5_cap11", make([5] * 300, 12, [1] * 300, [1], [1], 10)),
            ("defect_1200x7_d21", make([7] * 1200, 21, [1] * 1200, [1], [1], 10)),
        ]
        return SimpleNamespace(
            cha=[(gen.instance_name(cfg), inst, False) for cfg, inst in grid]
            + [(name, inst, True) for name, inst in defects],
            sweep=sweep,
        )

    def run_pass(self, bpps, inputs, tracer=None) -> Pass:
        ops, reference = [], []
        for name, inst, known_defect in inputs.cha:
            start = clock()
            try:
                result, error = bpps.cha.cha(inst, "exact", node_limit=self.cha_node_limit), None
            except Exception as exc:  # recorded as a limit, failure or crash
                result, error = None, exc
            seconds = clock() - start
            reference.append(speed_sample(seconds))
            with unrecorded(tracer):
                ops.append(self._check_cha(bpps, name, seconds, inst, result, error, known_defect))
        for name, inst in inputs.sweep:
            start = clock()
            try:
                result, error = bpps.exact.branch_and_bound(
                    inst, node_limit=self.bnb_node_limit, time_limit=math.inf
                ), None
            except Exception as exc:  # recorded as a failure or crash
                result, error = None, exc
            seconds = clock() - start
            reference.append(speed_sample(seconds))
            with unrecorded(tracer):
                ops.append(self._check_bnb(bpps, name, seconds, inst, result, error))
        return Pass(ops, reference=reference)

    @staticmethod
    def _failure(bpps, name, seconds, error, known_defect) -> Op:
        op = Op(name, seconds, "", failed=True, gap=Fraction(100))
        if isinstance(error, bpps.core.BppsError):
            op.outcome = f"{type(error).__name__}: {error}"
            if getattr(error, "lower_bound", 0) > getattr(error, "incumbent", math.inf):
                op.bad = "limit bounds crossed"
        else:
            # The message depends on the stack depth, which tracing changes.
            op.outcome = type(error).__name__
            op.crashed = True
            if not known_defect:
                op.bad = f"raised {type(error).__name__}"
        return op

    def _check_cha(self, bpps, name, seconds, inst, result, error, known_defect) -> Op:
        if result is None:
            return self._failure(bpps, name, seconds, error, known_defect)
        solution, trace = result
        psi = trace.psi_bar
        op = Op(name, seconds, f"{trace.termination} psi_bar={psi} beta={trace.beta} "
                               f"{canonical_bins(solution)}")
        lower = bpps.bounds.zeta_lp_ddag(inst)
        if not bpps.core.check_feasible(inst, solution).ok:
            op.bad = "infeasible solution"
        elif bpps.core.solution_cost(inst, solution).total != psi:
            op.bad = "solution cost differs from psi_bar"
        elif lower > psi:
            op.bad = "zeta_ddag above psi_bar"
        op.gap = 100 * (psi - lower) / psi
        op.failed = op.bad is not None
        return op

    def _check_bnb(self, bpps, name, seconds, inst, result, error) -> Op:
        if result is None:
            return self._failure(bpps, name, seconds, error, False)
        op = Op(name, seconds, f"{result.status} psi={result.psi} lb={result.lower_bound} "
                               f"nodes={result.nodes} {canonical_bins(result.solution)}",
                value=(result.status, result.psi, result.lower_bound))
        if not bpps.core.check_feasible(inst, result.solution).ok:
            op.bad = "infeasible solution"
        elif bpps.core.solution_cost(inst, result.solution).total != result.psi:
            op.bad = "solution cost differs from psi"
        elif result.lower_bound > result.psi:
            op.bad = "lower bound above psi"
        limited = result.status != "optimal"
        op.gap = Fraction(100) if limited else 100 * Fraction(result.psi - result.lower_bound, result.psi)
        op.failed = limited or op.bad is not None
        return op

    def oracle(self, bpps, inputs, first: Pass) -> int:
        """Brute force every sweep instance with n <= 12; count mismatches."""
        values = {op.name: op.value for op in first.ops}
        mismatches = 0
        for name, inst in inputs.sweep:
            if inst.n > self.oracle_max_n or values.get(name) is None:
                continue
            best = bpps.exact.brute_force(inst).psi
            status, psi, lower = values[name]
            if best != psi if status == "optimal" else not lower <= best <= psi:
                mismatches += 1
        return mismatches


WORKLOADS = {w.name: w for w in (GridAnalyze(), ModelEmit(), ExactSearch())}

#: Smoke-sized definitions for the benchmark's own tests.
SMOKE = {
    w.name: w
    for w in (
        GridAnalyze(keep_every=40),
        ModelEmit(per_size=((25, 2), (50, 1)), large_point=(25, 5, 200, "with-costs", "small", "small")),
        ExactSearch(sweep=((10, 1), (14, 1), (18, 1)), keep_every=40),
    )
}
