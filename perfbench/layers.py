"""Per-layer tracing from outside the package.

The traced run wraps the public functions of each ``bpps`` layer wherever
the function is bound: in its own module, in every other ``bpps`` module
that imported it by name (``bpps.report.k_upper``, ``bpps.exact.gamma``,
``bpps.cli.cha``, ...) and in the package namespace.  ``bpps/__init__.py``
rebinds the name ``bpps.cha`` to the ``cha`` function, so modules are
resolved with :func:`importlib.import_module`, never by attribute access.

Each wrapper records one span: calls and busy time per layer, and self time
(busy time minus the part covered by nested spans of other wrapped calls).
Spans are folded into per-layer aggregates as they close rather than kept:
the heuristic layer alone opens over a million spans per grid pass.
Counters that need the arguments or the result (nodes, rows, bytes, stop
reasons) are taken by an observer that runs after the span closes and whose
cost is charged to no layer.

Small helpers that run inside inner loops (``bounds.ceil_div``,
``bounds.format_*``, ``bpp.decreasing_order``, ``milp.var_*``) are left
unwrapped: their cost stays in the caller's self time, and wrapping them
would mostly measure the wrapper.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter
from types import ModuleType

#: Layer -> (module, public functions that make up the layer).
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "cli": ("bpps.cli", ("main",)),
    "files": (
        "bpps.files",
        (
            "read_instance",
            "write_instance",
            "parse_instance",
            "render_instance",
            "read_solution",
            "write_solution",
            "parse_solution",
            "render_solution",
        ),
    ),
    "core": (
        "bpps.core",
        (
            "validate_instance",
            "require_valid",
            "check_feasible",
            "solution_cost",
            "active_classes",
            "bin_load",
            "make_instance",
        ),
    ),
    "bounds": (
        "bpps.bounds",
        ("gamma", "k_lower", "zeta_lp_n", "zeta_lp_dag", "zeta_lp_ddag", "bounds_report"),
    ),
    "bpp.heur": ("bpps.bpp", ("heuristic_beta", "heuristic_packing", "fit_heuristic")),
    "bpp.exact": ("bpps.bpp", ("exact_beta", "exact_packing")),
    "cha": ("bpps.cha", ("cha", "k_upper", "class_bpp")),
    "exact.bnb": ("bpps.exact", ("branch_and_bound",)),
    "exact.brute": ("bpps.exact", ("brute_force",)),
    "milp.build": ("bpps.milp", ("build_model",)),
    "milp.render": ("bpps.milp", ("render_lp", "emit_lp_file")),
    "milp.parse": ("bpps.milp", ("parse_lp", "parse_lp_file")),
    "report": (
        "bpps.report",
        ("collect_report", "report_row", "feature_report", "render_csv", "gap", "gap_record"),
    ),
    "gen": ("bpps.gen", ("generate", "generate_verbose", "generate_benchmark", "instance_name")),
}

TERMINATIONS = ("step1", "step2", "step3-merged", "step3-unmerged")
VARIANTS = ("N", "DAG", "DDAG", "STAR")

#: Per-layer metrics in report order: name -> unit.
METRICS: dict[str, str] = {
    "cli.calls": "count",
    "cli.self_s": "s",
    "files.calls": "count",
    "files.self_s": "s",
    "files.bytes_read": "bytes",
    "files.bytes_written": "bytes",
    "core.calls": "count",
    "core.self_s": "s",
    "bounds.calls": "count",
    "bounds.self_s": "s",
    "bounds.gamma_per_instance": "calls/instance",
    "bpp.heur_calls": "count",
    "bpp.heur_self_s": "s",
    "bpp.fit_calls": "count",
    "bpp.heur_at_floor_frac": "fraction",
    "bpp.exact_calls": "count",
    "bpp.exact_self_s": "s",
    "bpp.exact_limit_frac": "fraction",
    "bpp.exact_limit_nodes": "count",
    "bpp.exact_limit_gap_bins": "bins",
    "cha.calls": "count",
    "cha.self_s": "s",
    "cha.k_upper_calls": "count",
    "cha.solves_per_class": "solves/class",
    **{f"cha.term.{t}": "count" for t in TERMINATIONS},
    "exact.bnb_calls": "count",
    "exact.bnb_self_s": "s",
    "exact.bnb_nodes": "count",
    "exact.bnb_nodes_per_s": "1/s",
    "exact.bnb_limit_frac": "fraction",
    "exact.brute_calls": "count",
    "exact.brute_self_s": "s",
    "exact.brute_nodes": "count",
    "exact.oracle_mismatches": "count",
    "milp.build_calls": "count",
    "milp.build_self_s": "s",
    **{f"milp.build_self_s.{v}": "s" for v in VARIANTS},
    "milp.rows_built": "count",
    "milp.render_self_s": "s",
    "milp.lp_bytes_written": "bytes",
    "milp.parse_self_s": "s",
    "milp.lp_bytes_read": "bytes",
    "report.rows": "count",
    "report.self_s": "s",
    "report.csv_bytes": "bytes",
    "gen.instances": "count",
    "gen.self_s": "s",
    "trace.overhead_frac": "fraction",
}


class Tracer:
    """Span aggregates for one traced run; see the module docstring."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.active = False
        self._stack: list[float] = []
        self._patched: list[tuple[ModuleType, str, object]] = []
        # Distinct inputs seen by gamma() and class_bpp(), for the
        # per-instance and per-class repeat ratios.
        self._gamma_inputs: set[object] = set()
        self._class_inputs: set[tuple[object, int]] = set()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        observe = getattr(self, f"_observe_{name}", None)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as raised:
                exc = raised
                raise
            finally:
                busy = clock() - start
                own = busy - stack.pop()
                self.calls[layer] += 1
                self.self_s[layer] += own
                if observe is not None:
                    observe(args, kwargs, result, exc, own)
                if stack:
                    stack[-1] += clock() - start

        return traced

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Wrap every layer function at every binding in ``modules``."""
        wrappers: dict[int, object] = {}
        for layer, (module_name, names) in LAYERS.items():
            home = importlib.import_module(module_name)
            for name in names:
                fn = getattr(home, name)
                wrappers[id(fn)] = self._wrap(layer, name, fn)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original binding back."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def recording(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False

    @contextlib.contextmanager
    def paused(self):
        """Let the benchmark's own checks call the package unrecorded."""
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    # -- observers: (args, kwargs, result, exception, self seconds) --------

    def _observe_parse_instance(self, args, kwargs, result, exc, own):
        self.counts["files.bytes_read"] += len(args[0])

    _observe_parse_solution = _observe_parse_instance

    def _observe_render_instance(self, args, kwargs, result, exc, own):
        if result is not None:
            self.counts["files.bytes_written"] += len(result)

    _observe_render_solution = _observe_render_instance

    def _observe_gamma(self, args, kwargs, result, exc, own):
        self.counts["bounds.gamma_calls"] += 1
        self._gamma_inputs.add(args[0])

    def _heuristic_done(self, bi, bins: int | None) -> None:
        self.counts["bpp.heur_calls"] += 1
        if bins is not None and bins == bi.volume_bound():
            self.counts["bpp.heur_at_floor"] += 1

    def _observe_heuristic_beta(self, args, kwargs, result, exc, own):
        self._heuristic_done(args[0], result)

    def _observe_heuristic_packing(self, args, kwargs, result, exc, own):
        self._heuristic_done(args[0], None if result is None else result.bin_count)

    def _observe_fit_heuristic(self, args, kwargs, result, exc, own):
        self.counts["bpp.fit_calls"] += 1

    def _observe_exact_beta(self, args, kwargs, result, exc, own):
        self.counts["bpp.exact_calls"] += 1
        nodes = getattr(exc, "nodes", None)
        if nodes is not None:  # NodeLimitExceeded carries the search state
            self.counts["bpp.exact_limits"] += 1
            self.counts["bpp.exact_limit_nodes"] += nodes
            self.counts["bpp.exact_limit_gap_bins"] += exc.incumbent - exc.lower_bound

    _observe_exact_packing = _observe_exact_beta

    def _observe_cha(self, args, kwargs, result, exc, own):
        self.counts["cha.calls"] += 1
        if result is not None:
            self.counts[f"cha.term.{result[1].termination}"] += 1

    def _observe_k_upper(self, args, kwargs, result, exc, own):
        self.counts["cha.k_upper_calls"] += 1

    def _observe_class_bpp(self, args, kwargs, result, exc, own):
        self.counts["cha.class_solves"] += 1
        self._class_inputs.add((args[0], args[1]))

    def _observe_branch_and_bound(self, args, kwargs, result, exc, own):
        if result is not None:
            self.counts["exact.bnb_nodes"] += result.nodes
            self.counts["exact.bnb_limits"] += result.status != "optimal"

    def _observe_brute_force(self, args, kwargs, result, exc, own):
        if result is not None:
            self.counts["exact.brute_nodes"] += result.nodes

    def _observe_build_model(self, args, kwargs, result, exc, own):
        variant = kwargs.get("variant", args[1] if len(args) > 1 else None)
        self.self_s[f"milp.build.{variant}"] += own
        if result is not None:
            self.counts["milp.rows_built"] += len(result.rows)

    def _observe_render_lp(self, args, kwargs, result, exc, own):
        if result is not None:
            self.counts["milp.lp_bytes_written"] += len(result)

    def _observe_parse_lp(self, args, kwargs, result, exc, own):
        self.counts["milp.lp_bytes_read"] += len(args[0])

    def _observe_collect_report(self, args, kwargs, result, exc, own):
        if result is not None:
            self.counts["report.rows"] += len(result)

    def _observe_render_csv(self, args, kwargs, result, exc, own):
        if result is not None:
            self.counts["report.csv_bytes"] += len(result)

    def _observe_generate_verbose(self, args, kwargs, result, exc, own):
        self.counts["gen.instances"] += 1

    def _fold_distinct(self) -> None:
        """Move the distinct inputs seen so far into the counts."""
        self.counts["bounds.instances"] += len(self._gamma_inputs)
        self.counts["cha.classes"] += len(self._class_inputs)
        self._gamma_inputs.clear()
        self._class_inputs.clear()

    # -- report -----------------------------------------------------------

    @classmethod
    def combined(cls, tracers: list[Tracer]) -> Tracer:
        """A tracer holding the summed aggregates of finished tracers."""
        total = cls()
        for tracer in tracers:
            tracer._fold_distinct()
            total.calls.update(tracer.calls)
            total.self_s.update(tracer.self_s)
            total.counts.update(tracer.counts)
        return total

    def metrics(self, oracle_mismatches: int, overhead_frac: float) -> dict[str, float]:
        """Every name in :data:`METRICS`, from the spans recorded so far."""
        self._fold_distinct()
        c, calls, own = self.counts, self.calls, self.self_s

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "cli.calls": calls["cli"],
            "cli.self_s": own["cli"],
            "files.calls": calls["files"],
            "files.self_s": own["files"],
            "files.bytes_read": c["files.bytes_read"],
            "files.bytes_written": c["files.bytes_written"],
            "core.calls": calls["core"],
            "core.self_s": own["core"],
            "bounds.calls": calls["bounds"],
            "bounds.self_s": own["bounds"],
            "bounds.gamma_per_instance": ratio(c["bounds.gamma_calls"], c["bounds.instances"]),
            "bpp.heur_calls": c["bpp.heur_calls"],
            "bpp.heur_self_s": own["bpp.heur"],
            "bpp.fit_calls": c["bpp.fit_calls"],
            "bpp.heur_at_floor_frac": ratio(c["bpp.heur_at_floor"], c["bpp.heur_calls"]),
            "bpp.exact_calls": c["bpp.exact_calls"],
            "bpp.exact_self_s": own["bpp.exact"],
            "bpp.exact_limit_frac": ratio(c["bpp.exact_limits"], c["bpp.exact_calls"]),
            "bpp.exact_limit_nodes": c["bpp.exact_limit_nodes"],
            "bpp.exact_limit_gap_bins": c["bpp.exact_limit_gap_bins"],
            "cha.calls": c["cha.calls"],
            "cha.self_s": own["cha"],
            "cha.k_upper_calls": c["cha.k_upper_calls"],
            "cha.solves_per_class": ratio(c["cha.class_solves"], c["cha.classes"]),
            **{f"cha.term.{t}": c[f"cha.term.{t}"] for t in TERMINATIONS},
            "exact.bnb_calls": calls["exact.bnb"],
            "exact.bnb_self_s": own["exact.bnb"],
            "exact.bnb_nodes": c["exact.bnb_nodes"],
            "exact.bnb_nodes_per_s": ratio(c["exact.bnb_nodes"], own["exact.bnb"]),
            "exact.bnb_limit_frac": ratio(c["exact.bnb_limits"], calls["exact.bnb"]),
            "exact.brute_calls": calls["exact.brute"],
            "exact.brute_self_s": own["exact.brute"],
            "exact.brute_nodes": c["exact.brute_nodes"],
            "exact.oracle_mismatches": oracle_mismatches,
            "milp.build_calls": calls["milp.build"],
            "milp.build_self_s": own["milp.build"],
            **{f"milp.build_self_s.{v}": own[f"milp.build.{v}"] for v in VARIANTS},
            "milp.rows_built": c["milp.rows_built"],
            "milp.render_self_s": own["milp.render"],
            "milp.lp_bytes_written": c["milp.lp_bytes_written"],
            "milp.parse_self_s": own["milp.parse"],
            "milp.lp_bytes_read": c["milp.lp_bytes_read"],
            "report.rows": c["report.rows"],
            "report.self_s": own["report"],
            "report.csv_bytes": c["report.csv_bytes"],
            "gen.instances": c["gen.instances"],
            "gen.self_s": own["gen"],
            "trace.overhead_frac": overhead_frac,
        }
