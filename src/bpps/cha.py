"""Three-step constructive heuristic and the bin-count upper bound.

Step 1 packs each class on its own with the class setup weight taken out
of the capacity, giving ``beta_c`` single-class bins per class.  Classes
that fit in one bin are then treated as indivisible blocks: step 2 packs
those blocks (item weight plus setup weight) into full-capacity bins, and
when they all land in a single bin, step 3 tries to push that combined
block into the spare room of some multi-bin class's bin.  The result is
always a feasible solution; with exact per-class packing counts its value
is guaranteed below twice the strongest fractional bound.

Summing the per-class bin counts also upper-bounds the number of bins any
optimal solution can use, which is what shrinks the compact model.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bpp
from .core import (
    Instance,
    Solution,
    TrivialInstanceError,
    require_valid,
)

BPP_EXACT = "exact"
BPP_HEURISTIC = "heuristic"
BPP_MODES = (BPP_EXACT, BPP_HEURISTIC)

TERM_STEP1 = "step1"
TERM_STEP2 = "step2"
TERM_STEP3_MERGED = "step3-merged"
TERM_STEP3_UNMERGED = "step3-unmerged"


@dataclass(frozen=True)
class ChaTrace:
    """Which step the heuristic stopped at and the data behind its value.

    ``psi_bar`` always equals the step-specific cost formula:

    * ``step1``: ``sum(beta_c f_c) + r * sum(beta_c)``
    * ``step2``: ``sum(beta_c f_c) + r * (sum outside beta_c + delta)``
    * ``step3-merged``: ``sum(beta_c f_c) + r * sum outside beta_c``
    * ``step3-unmerged``: ``sum(beta_c f_c) + r * (sum outside beta_c + 1)``

    where "outside" ranges over classes needing more than one bin.
    """

    termination: str
    beta: tuple[int, ...]
    single_bin_classes: frozenset[int]
    delta: int | None
    merge_class: int | None
    psi_bar: int


def class_bpp(inst: Instance, c: int) -> bpp.BppInstance:
    """The packing subproblem of class ``c`` at its residual capacity."""
    items = inst.items_of_class(c)
    return bpp.BppInstance(
        weights=tuple(inst.weight(i) for i in items),
        capacity=inst.capacity - inst.setup_weights[c - 1],
    )


def _solve(
    bi: bpp.BppInstance,
    mode: str,
    node_limit: int,
    perm_count: int,
    seed: int,
) -> bpp.BppPacking:
    if mode == BPP_EXACT:
        return bpp.exact_packing(bi, node_limit)
    return bpp.heuristic_packing(bi, perm_count, seed)


def _class_packings(
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
        _solve(class_bpp(inst, c), mode, node_limit, perm_count, seed + c)
        for c in inst.classes
    ]


def cha(
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
    require_valid(inst, override=override_validation)

    r = inst.bin_cost
    f = inst.setup_costs

    # Step 1: pack every class alone at capacity d - s_c.
    packings = _class_packings(inst, bpp_mode, node_limit, perm_count, seed)
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
    agg_packing = _solve(agg, bpp_mode, node_limit, perm_count, seed)
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


def k_upper(
    inst: Instance,
    bpp_mode: str = BPP_EXACT,
    *,
    override_validation: bool = False,
    node_limit: int = bpp.DEFAULT_NODE_LIMIT,
    perm_count: int = 50,
    seed: int = 0,
) -> int:
    """Upper bound on the bins used by any optimal solution.

    Sum over classes of the per-class bin count at residual capacity
    ``d - s_c``, computed exactly or heuristically.
    """
    if bpp_mode not in BPP_MODES:
        raise ValueError(f"unknown bpp mode {bpp_mode!r}")
    require_valid(inst, override=override_validation)
    packings = _class_packings(inst, bpp_mode, node_limit, perm_count, seed)
    return sum(p.bin_count for p in packings)
