"""The one-exit constructive heuristic against the version it replaced.

``ref_solve``, ``ref_class_packings`` and ``ref_cha`` below are verbatim
copies (renamed) of ``bpps.cha._solve``, ``bpps.cha._class_packings`` and
``bpps.cha.cha`` from before the heuristic built its trace and value in
one place.  The only edit is in ``ref_solve``'s call into ``bpps``: the
fit heuristics now always try ``bpp.PERM_COUNT`` orders, so the copies
still take ``perm_count`` but no longer pass it on.  Where the reference
answers, the solution and the trace must be equal, with nothing unproved.
Where an exact-mode search stops at its node limit the reference raises,
and ``cha`` must answer with the stopped search's incumbent: a feasible
solution that costs ``psi_bar``, with the stopped class (or step 2's
blocks) named unproved.  The reference raised its own error on a trivial
instance, so trivial instances are not compared here.
"""

from __future__ import annotations

import random

import pytest

from bpps import bpp
from bpps.bpp import NodeLimitExceeded
from bpps.cha import (
    BPP_EXACT,
    BPP_HEURISTIC,
    BPP_MODES,
    TERM_STEP1,
    TERM_STEP2,
    TERM_STEP3_MERGED,
    TERM_STEP3_UNMERGED,
    STEP2_BLOCKS,
    ChaTrace,
    class_bpp,
    cha,
)
from bpps.core import (
    BppsError,
    Instance,
    Solution,
    check_feasible,
    require_valid,
    solution_cost,
)
from conftest import random_instance


ALL_TERMINATIONS = {TERM_STEP1, TERM_STEP2, TERM_STEP3_MERGED, TERM_STEP3_UNMERGED}


class TrivialInstanceError(BppsError):
    """All items (plus all setups) fit into a single bin."""


def ref_solve(
    bi: bpp.BppInstance,
    mode: str,
    node_limit: int,
    perm_count: int,
    seed: int,
) -> bpp.BppPacking:
    if mode == BPP_EXACT:
        return bpp.exact_packing(bi, node_limit)
    return bpp.heuristic_packing(bi, seed)


def ref_class_packings(
    inst: Instance,
    mode: str,
    node_limit: int,
    perm_count: int,
    seed: int,
) -> list[bpp.BppPacking]:
    """Step 1, shared by :func:`cha` and :func:`k_upper`.

    Each class is packed alone at capacity ``d - s_c``, class ``c`` with
    seed ``seed + c``.
    """
    return [
        ref_solve(class_bpp(inst, c), mode, node_limit, perm_count, seed + c)
        for c in inst.classes
    ]



def ref_cha(
    inst: Instance,
    bpp_mode: str = BPP_EXACT,
    *,
    override_validation: bool = False,
    node_limit: int = bpp.DEFAULT_NODE_LIMIT,
    perm_count: int = 50,
    seed: int = 0,
) -> tuple[Solution, ChaTrace]:
    """Run the constructive heuristic and return (solution, trace).

    ``bpp_mode`` picks how the inner packing subproblems are solved; in
    exact mode a node-limit overrun propagates as
    :class:`~bpps.bpp.NodeLimitExceeded`.  Step 3 scans candidate classes
    in increasing index order and takes the first bin with room, so the
    outcome is deterministic.
    """
    if bpp_mode not in BPP_MODES:
        raise ValueError(f"unknown bpp mode {bpp_mode!r}")
    require_valid(inst)

    r = inst.bin_cost
    f = inst.setup_costs

    # Step 1: pack every class alone at capacity d - s_c.
    packings = ref_class_packings(inst, bpp_mode, node_limit, perm_count, seed)
    beta = [p.bin_count for p in packings]
    class_bins: list[list[frozenset[int]]] = []
    for c, packing in zip(inst.classes, packings):
        items = inst.items_of_class(c)
        class_bins.append(
            [frozenset(items[local - 1] for local in b) for b in packing.bins]
        )
    setup_term = sum(b * fc for b, fc in zip(beta, f))
    single = frozenset(c for c in inst.classes if beta[c - 1] == 1)
    outside = [c for c in inst.classes if c not in single]
    outside_term = sum(beta[c - 1] for c in outside)

    def trace(termination: str, delta: int | None, merge: int | None, psi: int):
        return ChaTrace(
            termination=termination,
            beta=tuple(beta),
            single_bin_classes=single,
            delta=delta,
            merge_class=merge,
            psi_bar=psi,
        )

    if not single:
        bins = [b for per_class in class_bins for b in per_class]
        psi = setup_term + r * sum(beta)
        return Solution(tuple(bins)), trace(TERM_STEP1, None, None, psi)

    # Step 2: pack the one-bin classes as indivisible blocks of weight
    # (class weight + setup weight) at full capacity.
    single_sorted = sorted(single)
    block_weights = tuple(
        inst.class_weight(c) + inst.setup_weights[c - 1] for c in single_sorted
    )
    agg = bpp.BppInstance(weights=block_weights, capacity=inst.capacity)
    agg_packing = ref_solve(agg, bpp_mode, node_limit, perm_count, seed)
    delta = agg_packing.bin_count
    merged_bins = [
        frozenset(
            i
            for local in b
            for i in inst.items_of_class(single_sorted[local - 1])
        )
        for b in agg_packing.bins
    ]
    outside_bins = [b for c in outside for b in class_bins[c - 1]]

    if delta >= 2:
        psi = setup_term + r * (outside_term + delta)
        return (
            Solution(tuple(outside_bins + merged_bins)),
            trace(TERM_STEP2, delta, None, psi),
        )

    # Step 3: all one-bin classes share a single bin; try to fit that
    # combined block into the spare room of some other class's bin.
    if not outside:
        raise TrivialInstanceError(
            "all items fit a single bin; nothing to merge into"
        )
    block = merged_bins[0]
    block_weight = sum(block_weights)
    for cbar in outside:
        residual_cap = inst.capacity - inst.setup_weights[cbar - 1]
        for b_idx, items in enumerate(class_bins[cbar - 1]):
            load = sum(inst.weight(i) for i in items)
            if load + block_weight <= residual_cap:
                bins = []
                for c in outside:
                    for j, bset in enumerate(class_bins[c - 1]):
                        if c == cbar and j == b_idx:
                            bins.append(bset | block)
                        else:
                            bins.append(bset)
                psi = setup_term + r * outside_term
                return (
                    Solution(tuple(bins)),
                    trace(TERM_STEP3_MERGED, delta, cbar, psi),
                )
    psi = setup_term + r * (outside_term + 1)
    return (
        Solution(tuple(outside_bins + merged_bins)),
        trace(TERM_STEP3_UNMERGED, delta, None, psi),
    )



def first_stop(inst, node_limit):
    """Where the reference stopped: its first class that stops, else the blocks."""
    for c in inst.classes:
        try:
            bpp.exact_packing(class_bpp(inst, c), node_limit)
        except NodeLimitExceeded:
            return c
    return STEP2_BLOCKS


def check_against_reference(inst, mode, **kwargs):
    """Compare ``cha`` with ``ref_cha``; return ``cha``'s trace and the stop."""
    solution, trace = cha(inst, mode, **kwargs)
    try:
        want = ref_cha(inst, mode, **kwargs)
    except NodeLimitExceeded as stop:
        assert check_feasible(inst, solution).ok
        assert solution_cost(inst, solution).total == trace.psi_bar
        where = first_stop(inst, kwargs["node_limit"])
        count = trace.delta if where == STEP2_BLOCKS else trace.beta[where - 1]
        assert count == stop.incumbent
        # A search stops only short of a proof: its bracket is open.
        assert stop.incumbent > stop.lower_bound
        assert where in trace.unproved
        return trace, stop
    assert (solution, trace) == want
    return trace, None


def test_grid_heuristic_mode_matches_the_reference(benchmark_480):
    terminations = set()
    for _, inst in benchmark_480:
        want = ref_cha(inst, BPP_HEURISTIC)
        assert cha(inst, BPP_HEURISTIC) == want
        terminations.add(want[1].termination)
    assert terminations == ALL_TERMINATIONS


@pytest.mark.parametrize("mode", BPP_MODES)
def test_random_instances_match_the_reference(mode):
    rng = random.Random(61)
    seen = set()
    unproved = 0
    for _ in range(300):
        inst = random_instance(
            rng, max_n=rng.choice((8, 14, 20)), max_m=rng.choice((2, 3, 5))
        )
        kwargs = {"node_limit": rng.choice((0, 2, 50, 5_000))}
        trace, _ = check_against_reference(inst, mode, **kwargs)
        seen.add(trace.termination)
        unproved += bool(trace.unproved)
    assert ALL_TERMINATIONS <= seen
    if mode == BPP_EXACT:
        assert unproved


def test_grid_exact_mode_answers_where_the_reference_stops(benchmark_480):
    # The exact-search benchmark's limit: 12 grid instances stop there.
    stops = 0
    for _, inst in benchmark_480:
        _, stop = check_against_reference(inst, BPP_EXACT, node_limit=5_000)
        stops += stop is not None
    assert stops == 12
