"""Three-step constructive heuristic and the bin-count upper bound.

Step 1 packs each class on its own with the class setup weight taken out
of the capacity, giving ``beta_c`` single-class bins per class.  Classes
that fit in one bin are then treated as indivisible blocks: step 2 packs
those blocks (item weight plus setup weight) into full-capacity bins, and
when they all land in a single bin, step 3 tries to push that combined
block into the spare room of some multi-bin class's bin.  The result is
always a feasible solution; with exact per-class packing counts its value
is guaranteed below twice the strongest fractional bound.  A search that
stops at its node limit still hands over a feasible packing, so the
heuristic always answers; the trace names the counts left unproved.

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

#: How ``ChaTrace.unproved`` names step 2's block packing (classes are 1..m).
STEP2_BLOCKS = 0


@dataclass(frozen=True)
class ChaTrace:
    """Which step the heuristic stopped at and the data behind its value.

    ``psi_bar`` always equals the step-specific cost formula:

    * ``step1``: ``sum(beta_c f_c) + r * sum(beta_c)``
    * ``step2``: ``sum(beta_c f_c) + r * (sum outside beta_c + delta)``
    * ``step3-merged``: ``sum(beta_c f_c) + r * sum outside beta_c``
    * ``step3-unmerged``: ``sum(beta_c f_c) + r * (sum outside beta_c + 1)``

    where "outside" ranges over classes needing more than one bin.

    ``unproved`` names the packings an exact search left at its node
    limit: the step-1 classes in class order, then :data:`STEP2_BLOCKS`
    if step 2's block packing stopped.  Each of those counts (``beta_c``
    or ``delta``) is the bin count of the search's incumbent, an upper
    bound, and the formulas above hold with it.  Empty means every count
    is proved, as it always is in heuristic mode, where none is exact.
    """

    termination: str
    beta: tuple[int, ...]
    single_bin_classes: frozenset[int]
    delta: int | None
    merge_class: int | None
    psi_bar: int
    unproved: tuple[int, ...] = ()


def class_bpp(inst: Instance, c: int) -> bpp.BppInstance:
    """The packing subproblem of class ``c`` at its residual capacity."""
    items = inst.items_of_class(c)
    return bpp.BppInstance(
        weights=tuple(inst.weight(i) for i in items),
        capacity=inst.capacity - inst.setup_weights[c - 1],
    )


def _check_mode(mode: str) -> None:
    if mode not in BPP_MODES:
        raise ValueError(f"unknown bpp mode {mode!r}")


def _pack(
    bi: bpp.BppInstance, mode: str, node_limit: int, seed: int
) -> tuple[bpp.BppPacking, bool]:
    """``(packing, proved)``: the packing of ``bi`` in ``mode``.

    ``proved`` is false when the exact search stopped at ``node_limit``
    short of a proof, and its incumbent packing stands in.  ``seed`` seeds
    the heuristic's random orders.
    """
    if mode == BPP_HEURISTIC:
        return bpp.heuristic_packing(bi, seed), True
    try:
        return bpp.exact_packing(bi, node_limit), True
    except bpp.NodeLimitExceeded as stop:
        return stop.packing, False


def cha(
    inst: Instance,
    bpp_mode: str = BPP_EXACT,
    *,
    node_limit: int = bpp.DEFAULT_NODE_LIMIT,
) -> tuple[Solution, ChaTrace]:
    """Run the constructive heuristic and return (solution, trace).

    ``bpp_mode`` picks how the inner packing subproblems are solved.  In
    heuristic mode class ``c`` draws its random orders from seed ``c``
    and step 2's blocks from seed 0, so the outcome is a function of
    ``inst`` alone.  In exact mode a search that reaches ``node_limit`` without a proof hands
    over its incumbent packing: the heuristic finishes all three steps
    with it and lists that class, or step 2's blocks, in
    ``trace.unproved``.  The solution is feasible and costs ``psi_bar``
    either way; only the 1/2 guarantee needs ``unproved`` empty.  Step 3
    scans the bins of the multi-bin classes in class order and takes the
    first with room, so the outcome is deterministic.  A trivial instance
    (everything fits one bin) ends ``step3-unmerged`` with every item in
    one bin, which is optimal.  ``inst`` is valid by construction
    (``d - s_c >= w_i >= 1`` for every item), so every step-1 subproblem
    has room for its items.
    """
    _check_mode(bpp_mode)
    # Step 1: pack each class alone at capacity d - s_c, class c with seed c.
    packings, unproved = [], []
    for c in inst.classes:
        packing, proved = _pack(class_bpp(inst, c), bpp_mode, node_limit, c)
        packings.append(packing)
        if not proved:
            unproved.append(c)
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
        agg_packing, proved = _pack(agg, bpp_mode, node_limit, 0)
        if not proved:
            unproved.append(STEP2_BLOCKS)
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
    trace = ChaTrace(
        termination, beta, single, delta, merge_class, psi_bar, tuple(unproved)
    )
    return Solution(tuple(bins + blocks)), trace


def k_upper(
    inst: Instance,
    bpp_mode: str = BPP_EXACT,
    *,
    node_limit: int = bpp.DEFAULT_NODE_LIMIT,
) -> int:
    """Upper bound on the bins used by any optimal solution.

    Sum over classes of the per-class bin count at residual capacity
    ``d - s_c``, computed exactly or heuristically (class ``c`` with seed
    ``c``), as step 1 of :func:`cha` counts it.  In exact mode the first
    class whose search stops at ``node_limit`` without a proof raises
    :class:`~bpps.bpp.NodeLimitExceeded` from :func:`~bpps.bpp.exact_beta`,
    and no later class is solved: the count is returned only when every
    class is proved.
    """
    _check_mode(bpp_mode)
    if bpp_mode == BPP_HEURISTIC:
        return sum(bpp.heuristic_beta(class_bpp(inst, c), c) for c in inst.classes)
    return sum(bpp.exact_beta(class_bpp(inst, c), node_limit) for c in inst.classes)
