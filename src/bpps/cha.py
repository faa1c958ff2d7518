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
from .core import Instance, Solution, bin_load

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

    Packs each class alone at capacity ``d - s_c``, class ``c`` with seed
    ``seed + c``.
    """
    if mode not in BPP_MODES:
        raise ValueError(f"unknown bpp mode {mode!r}")
    return [
        _solve(class_bpp(inst, c), mode, node_limit, perm_count, seed + c)
        for c in inst.classes
    ]


def cha(
    inst: Instance,
    bpp_mode: str = BPP_EXACT,
    *,
    node_limit: int = bpp.DEFAULT_NODE_LIMIT,
    perm_count: int = 50,
    seed: int = 0,
) -> tuple[Solution, ChaTrace]:
    """Run the constructive heuristic and return (solution, trace).

    ``bpp_mode`` picks how the inner packing subproblems are solved; in
    exact mode a node-limit overrun propagates as
    :class:`~bpps.bpp.NodeLimitExceeded`.  Step 3 scans the bins of the
    multi-bin classes in class order and takes the first with room, so
    the outcome is deterministic.  A trivial instance (everything fits
    one bin) ends ``step3-unmerged`` with every item in one bin, which is
    optimal.  ``inst`` is valid by construction (``d - s_c >= w_i >= 1``
    for every item), so every step-1 subproblem has room for its items.
    """
    packings = _class_packings(inst, bpp_mode, node_limit, perm_count, seed)
    beta = tuple(p.bin_count for p in packings)
    single = frozenset(c for c in inst.classes if beta[c - 1] == 1)
    outside = [c for c in inst.classes if c not in single]

    # Step 1 packed every class alone; the multi-bin classes keep those bins.
    bins = [
        frozenset(inst.items_of_class(c)[local - 1] for local in b)
        for c in outside
        for b in packings[c - 1].bins
    ]
    termination, delta, merge_class = TERM_STEP1, None, None
    blocks: list[frozenset[int]] = []

    # Step 2: pack the one-bin classes as indivisible blocks of weight
    # (class weight + setup weight) at full capacity.
    if single:
        single_sorted = sorted(single)
        agg = bpp.BppInstance(
            weights=tuple(
                inst.class_weight(c) + inst.setup_weights[c - 1]
                for c in single_sorted
            ),
            capacity=inst.capacity,
        )
        agg_packing = _solve(agg, bpp_mode, node_limit, perm_count, seed)
        termination, delta = TERM_STEP2, agg_packing.bin_count
        blocks = [
            frozenset(
                i
                for local in b
                for i in inst.items_of_class(single_sorted[local - 1])
            )
            for b in agg_packing.bins
        ]

    # Step 3: all one-bin classes share a single block; put it into the
    # first bin of a multi-bin class with room for it.  That class is not
    # in the block, so the merged bin's load is the host's load plus the
    # block's weight and setups.
    if delta == 1:
        termination = TERM_STEP3_UNMERGED
        for j, b in enumerate(bins):
            if bin_load(inst, b | blocks[0]) <= inst.capacity:
                bins[j] = b | blocks.pop()
                termination = TERM_STEP3_MERGED
                merge_class = inst.item_class(min(b))
                break

    # Each class is active in beta_c bins.  Besides the multi-bin classes'
    # bins, the block bins still standing cost r each: delta after step 2,
    # one if unmerged, none if merged or in step 1.
    setup_cost = sum(b * fc for b, fc in zip(beta, inst.setup_costs))
    outside_bins = sum(beta[c - 1] for c in outside)
    psi_bar = setup_cost + inst.bin_cost * (outside_bins + len(blocks))
    trace = ChaTrace(termination, beta, single, delta, merge_class, psi_bar)
    return Solution(tuple(bins + blocks)), trace


def k_upper(
    inst: Instance,
    bpp_mode: str = BPP_EXACT,
    *,
    node_limit: int = bpp.DEFAULT_NODE_LIMIT,
    perm_count: int = 50,
    seed: int = 0,
) -> int:
    """Upper bound on the bins used by any optimal solution.

    Sum over classes of the per-class bin count at residual capacity
    ``d - s_c``, computed exactly or heuristically.
    """
    packings = _class_packings(inst, bpp_mode, node_limit, perm_count, seed)
    return sum(p.bin_count for p in packings)
