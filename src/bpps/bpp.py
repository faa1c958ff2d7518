"""Classical bin packing sub-solvers.

Used to bound, per class, how many bins the class needs once its setup
weight is subtracted from the capacity: fit heuristics (next/first/best
fit) run under many item orders give an upper bound quickly, and a small
branch-and-bound gives the exact optimum at desk scale.  Both share one
floor, the larger of the volume and cardinality bounds, and one fit
kernel that stops a fit once it cannot end within a given bin count: the
heuristic search gives each fit one bin fewer than its best packing, so
a fit that cannot win stops early, and the search ends at the floor.
Neither stop changes a result.  Besides the floor, the exact search
charges the room an open bin loses below the smallest item weight (the
wasted-space bound of bin completion, Korf 2003), and places an item of
the same weight as the one before it only in that item's bin or a later
one.  Where first-fit decreasing misses those bounds, the search starts
from a minimum-slack packing instead when that uses fewer bins (each bin
filled as full as a subset-sum over the items left allows; Gupta & Ho
1999), so a class that packing brings down to the bound is proved at the
root.  It and the BPPS branch-and-bound in :mod:`bpps.exact` both run on
:func:`depth_first`, an explicit-stack walk that owns the node count and
the limits.  Each search tests a child's bound in the parent, just before
yielding it, and yields a pruned child or a leaf as ``None``: a node that
is counted but never built, so it costs no generator.

Randomized orders come from Python's ``random.Random`` (Mersenne Twister)
seeded explicitly, with permutations drawn by ``random.shuffle`` (a
Fisher-Yates pass); results are therefore reproducible from the seed alone.
"""

from __future__ import annotations

import math
import operator
import random
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .bounds import ceil_div
from .core import BppsError, store_integers

RULE_NEXT_FIT = "NF"
RULE_FIRST_FIT = "FF"
RULE_BEST_FIT = "BF"
FIT_RULES = (RULE_NEXT_FIT, RULE_FIRST_FIT, RULE_BEST_FIT)

#: Search effort allowed before the exact solver gives up.  Desk-scale
#: per-class instances (tens of items) resolve far below this.
DEFAULT_NODE_LIMIT = 10**7

#: Item orders the fit heuristics try per packing: non-increasing weight,
#: then ``PERM_COUNT - 1`` seeded random permutations.
PERM_COUNT = 50


class NodeLimitExceeded(BppsError):
    """The exact solver exhausted its node budget before it proved a count.

    Carries the search state at the stop: the incumbent bin count, the
    root lower bound, the nodes walked and the incumbent ``packing``, a
    feasible packing in ``incumbent`` bins.  Callers that need only a
    feasible packing, as :func:`bpps.cha.cha` does, can go on with it.
    """

    def __init__(
        self,
        incumbent: int,
        lower_bound: int,
        nodes: int,
        packing: BppPacking | None = None,
    ) -> None:
        self.incumbent = incumbent
        self.lower_bound = lower_bound
        self.nodes = nodes
        self.packing = packing
        super().__init__(
            f"node limit hit after {nodes} nodes "
            f"(incumbent {incumbent}, lower bound {lower_bound})"
        )


def depth_first(
    root: Iterator, node_limit: int, deadline: float = math.inf
) -> tuple[int, bool]:
    """Walk generator nodes depth-first; return ``(nodes, finished)``.

    A node makes each child's move, yields the child's node and undoes the
    move when resumed.  A child yielded as ``None`` is a node that ends
    where it starts (a child its parent has pruned, or a leaf): it is
    counted but not pushed, and the walk goes straight on with the same
    parent.  Every node counts, the root included.  The walk stops once the
    count passes ``node_limit`` or, checked every 1,024 nodes, once
    ``time.monotonic()`` passes ``deadline``; a parent is not resumed after
    the child that stops it.
    """
    if node_limit < 1:  # the root alone passes the limit
        return 1, False
    # The next count at which a limit may stop the walk.
    check = min(1024, node_limit + 1)
    nodes, stack = 1, [root]
    while stack:
        for child in stack[-1]:
            nodes += 1
            if nodes >= check:
                if nodes > node_limit or time.monotonic() > deadline:
                    return nodes, False
                check = min(nodes + 1024, node_limit + 1)
            if child is not None:
                stack.append(child)
                break
        else:
            stack.pop()
    return nodes, True


@dataclass(frozen=True)
class BppInstance:
    """Items with positive integer weights and a single integer bin capacity."""

    weights: tuple[int, ...]
    capacity: int

    def __post_init__(self) -> None:
        store_integers(self, ("weights",), ("capacity",))
        if not self.weights:
            raise ValueError("need at least one item")
        if self.capacity < 1:
            raise ValueError("capacity must be positive")
        for i, w in enumerate(self.weights, start=1):
            if w < 1:
                raise ValueError(f"item {i} weight must be positive")
            if w > self.capacity:
                raise ValueError(
                    f"item {i} weight {w} exceeds capacity {self.capacity}"
                )

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def total_weight(self) -> int:
        return sum(self.weights)

    def volume_bound(self) -> int:
        """Ceiling of total weight over capacity: bins needed at least."""
        return ceil_div(self.total_weight, self.capacity)


@dataclass(frozen=True)
class BppPacking:
    """A feasible packing: one tuple of 1-based item indices per bin."""

    bins: tuple[tuple[int, ...], ...]

    @property
    def bin_count(self) -> int:
        return len(self.bins)


def decreasing_order(bi: BppInstance) -> tuple[int, ...]:
    """Item indices by non-increasing weight, ties by index."""
    return tuple(
        sorted(range(1, bi.n + 1), key=lambda i: (-bi.weights[i - 1], i))
    )


def fit_heuristic(
    bi: BppInstance, rule: str, order: Iterable[int]
) -> BppPacking:
    """Pack items in the given order under one of the three fit rules.

    NF keeps only the most recent bin open; FF uses the lowest-indexed bin
    the item fits; BF uses the feasible bin with the least residual
    capacity, breaking ties by lowest bin index.
    """
    if rule not in FIT_RULES:
        raise ValueError(f"unknown rule {rule!r}")
    try:  # read once: the check must not use it up
        order = tuple(map(operator.index, order))
    except TypeError:
        raise ValueError("order must be a permutation of 1..n") from None
    if sorted(order) != list(range(1, bi.n + 1)):
        raise ValueError("order must be a permutation of 1..n")
    return _packed(_fit(bi, rule, order, bi.n))


def _packed(bins: Sequence[Sequence[int]]) -> BppPacking:
    return BppPacking(tuple(map(tuple, bins)))


def _floor(bi: BppInstance) -> int:
    """Bins every packing needs: the volume bound or, when larger, the
    cardinality bound ``ceil(n / (capacity // smallest weight))``."""
    return max(bi.volume_bound(), ceil_div(bi.n, bi.capacity // min(bi.weights)))


def _fit(
    bi: BppInstance, rule: str, order: Sequence[int], most: int
) -> list[list[int]] | None:
    """The bins of ``rule`` on ``order``, or ``None`` if it needs more than
    ``most`` bins.

    The fit stops as soon as it cannot end within ``most`` bins: when it
    would open bin ``most + 1``, or when the room it has lost passes
    ``most * capacity - total weight``.  Room is lost in a bin too full for
    the smallest item, and under NF in every bin it leaves behind; no item
    fills it later, so a packing in ``most`` bins can lose no more.  A bound
    of ``n`` bins never stops a fit.  FF and BF scan from ``live``, the
    first bin that can still take the smallest item.
    """
    cap, weights = bi.capacity, bi.weights
    dead = cap - min(weights)  # a bin loaded past this takes no more items
    slack = most * cap - bi.total_weight  # the most room the fit may lose
    next_fit, first_fit = rule == RULE_NEXT_FIT, rule == RULE_FIRST_FIT
    lost = live = 0
    loads: list[int] = []
    bins: list[list[int]] = []
    for i in order:
        w = weights[i - 1]
        room = cap - w  # the most load a bin may hold to take the item
        target = -1
        if next_fit:
            if loads:
                if loads[-1] <= room:
                    target = len(loads) - 1
                elif loads[-1] <= dead:  # left behind while still live
                    lost += cap - loads[-1]
                    if lost > slack:
                        return None
        elif first_fit:
            for b in range(live, len(loads)):
                if loads[b] <= room:
                    target = b
                    break
        else:
            fullest = -1
            for b in range(live, len(loads)):
                load = loads[b]
                if fullest < load <= room:
                    fullest, target = load, b
        if target < 0:
            if len(loads) == most:
                return None
            target = len(loads)
            loads.append(w)
            bins.append([i])
        else:
            loads[target] += w
            bins[target].append(i)
        if loads[target] > dead:
            lost += cap - loads[target]
            if lost > slack:
                return None
            if target == live:
                while live < len(loads) and loads[live] > dead:
                    live += 1
    return bins


def _heuristic_search(bi: BppInstance, seed: int) -> tuple[int, BppPacking]:
    """Best (bin count, packing) over the fit rules and ``PERM_COUNT`` orders.

    Random orders are drawn one at a time, only when the loop reaches them,
    from a single seeded stream, so order k is the same however early the
    search stops.  Only a packing with fewer bins than the best replaces
    it, so each fit gets the best count less one as its bound and stops
    once it cannot end within it (:func:`_fit`).  No packing can beat
    :func:`_floor`, so the first one that reaches it is returned.  Neither
    stop changes the result.
    """
    floor = _floor(bi)
    rng = random.Random(seed)
    base = list(range(1, bi.n + 1))
    order: Sequence[int] = decreasing_order(bi)
    best: list[list[int]] = []
    most = bi.n
    for k in range(PERM_COUNT):
        if k:
            order = base[:]
            rng.shuffle(order)
        for rule in FIT_RULES:
            bins = _fit(bi, rule, order, most)
            if bins is not None:
                best, most = bins, len(bins) - 1
                if most < floor:
                    return len(best), _packed(best)
    return len(best), _packed(best)


def heuristic_beta(bi: BppInstance, seed: int = 0) -> int:
    """Best bin count over all three fit rules and ``PERM_COUNT`` orders.

    The first order is always non-increasing weight; the remaining
    ``PERM_COUNT - 1`` are random permutations from the generator seeded
    ``seed``.  The search stops at the first packing that reaches the
    floor ``max(ceil(total weight / capacity), ceil(n / (capacity //
    smallest weight)))``, and each fit stops once it cannot beat the best
    packing so far; neither stop changes the result.
    """
    return _heuristic_search(bi, seed)[0]


def heuristic_packing(bi: BppInstance, seed: int = 0) -> BppPacking:
    """The packing behind :func:`heuristic_beta`."""
    return _heuristic_search(bi, seed)[1]


#: The most bits the minimum-slack start may keep for one bin: an int as
#: wide as the room beside the bin's heaviest item for each other item left
#: (2 MiB in all).  A wider bin keeps the first-fit start.
_MIN_SLACK_BITS = 1 << 24


def _min_slack_bins(
    weights: Sequence[int], cap: int, budget: int, target: int
) -> list[list[int]] | None:
    """A minimum-slack packing in fewer than ``target`` bins, or ``None``.

    ``weights`` is non-increasing; bins hold positions in it.  Each bin
    takes the heaviest item left and the subset of the other items that
    fills the rest of the bin most (Gupta & Ho 1999; Fleszar & Hindi
    2002).  The subset comes from a subset-sum over the bits of one int:
    bit ``t`` of ``reach`` is set when some of the items seen so far weigh
    ``t`` together.  The ``reach`` from before each item that grew it
    reads the chosen items back; an item that does not grow it, and the
    equal items after it, are passed over.  Gives up once the packing
    cannot beat ``target``, once the items its bins look at, counted once
    per bin, pass ``budget``, or when a bin's ints could pass
    ``_MIN_SLACK_BITS``.
    """
    rest = list(range(len(weights)))
    left = sum(weights)
    bins: list[list[int]] = []
    looked = 0
    while rest:
        looked += len(rest)
        if looked > budget or len(bins) + ceil_div(left, cap) >= target:
            return None
        first, others = rest[0], rest[1:]
        room = cap - weights[first]
        if len(others) * (room + 1) > _MIN_SLACK_BITS:
            return None
        mask = (2 << room) - 1
        reach, trail, stale = 1, [], 0
        for j in others:
            w = weights[j]
            if w == stale:  # an equal item before it added nothing
                continue
            grown = reach | (reach << w) & mask
            if grown == reach:
                stale = w
                continue
            trail.append((j, reach))
            reach = grown
            if reach >> room:  # the bin is full
                break
        t = reach.bit_length() - 1
        chosen = [first]
        for j, before in reversed(trail):
            if not before >> t & 1:  # no subset without j weighs t
                chosen.append(j)
                t -= weights[j]
        bins.append(chosen)
        left -= sum(weights[j] for j in chosen)
        taken = set(chosen)
        rest = [j for j in others if j not in taken]
    return bins


def _exact_search(bi: BppInstance, node_limit: int) -> tuple[int, BppPacking]:
    """Depth-first branch-and-bound over bin assignments.

    Items are placed in non-increasing weight order into every open bin
    they fit (skipping bins with duplicate loads, which lead to symmetric
    subtrees) or into a single fresh bin.  An item of the same weight as
    the one before it goes only to that item's bin or a later one: equal
    items are interchangeable, so every packing has a twin that places
    them in bin order.  Every packing needs at least ``floor`` bins
    (:func:`_floor`).  Room below the smallest weight in an open bin can
    never be filled, so it is charged as waste:
    ``k`` bins can hold the items only if ``k * capacity`` covers the total
    weight plus the waste.  A node is pruned when ``max(open bins, floor)``
    reaches the incumbent or when the waste rules out a packing with fewer
    bins than the incumbent.  The parent makes both tests for each child
    just before yielding it, from the one bin the child changes, and yields
    a pruned child and a leaf as ``None``, a node :func:`depth_first`
    counts but never builds; the root is tested once before the walk.  A
    trail records each item's bin, and the bins are built only when a leaf
    improves the incumbent, as the parent resumes after it.  Each other
    node is an ``expand`` generator.

    The incumbent starts as the first-fit-decreasing packing.  Where that
    is above ``floor``, the packing of :func:`_min_slack_bins` replaces it
    if it uses fewer bins, and one that reaches ``floor`` proves the count
    at the root.  Its subset-sums may look at up to ``node_limit`` items,
    a budget apart from the nodes, so node limits 0 and 1 never build it.
    Returns the count and its packing.  A walk the limit stops raises
    :class:`NodeLimitExceeded`, which carries the nodes walked, only while
    the incumbent is above ``floor``: one at ``floor`` closes the bracket,
    a proof, and comes back as a finished walk does.
    """
    order = decreasing_order(bi)
    weights = [bi.weights[i - 1] for i in order]
    n, cap = bi.n, bi.capacity
    w_min = weights[-1]  # the smallest weight not yet placed, at every depth
    floor = _floor(bi)

    best_bins: Sequence[Sequence[int]] = _fit(bi, RULE_FIRST_FIT, order, n)
    best_count = len(best_bins)
    if floor < best_count:
        slack_bins = _min_slack_bins(weights, cap, node_limit, best_count)
        if slack_bins is not None:
            best_count = len(slack_bins)
            best_bins = [[order[j] for j in b] for b in slack_bins]

    def waste_limit() -> int:
        # The most waste a packing with fewer bins than the incumbent can
        # have; -1 once the incumbent reaches floor and nothing can beat it.
        if best_count <= floor:
            return -1
        return (best_count - 1) * cap - bi.total_weight

    slack = waste_limit()
    loads = [0] * n  # bins k and beyond are empty
    where = [0] * n  # where[idx]: the bin of the item placed at depth idx

    def expand(idx: int, k: int, low: int, waste: int) -> Iterator:
        # The node after depth idx - 1 with k open bins, of which bins below
        # low are closed to item idx, and waste lost room; it passed its test.
        nonlocal best_count, best_bins, slack
        w = weights[idx]
        room = cap - w
        leaves = idx + 1 == n  # the children are full packings
        tie = not leaves and weights[idx + 1] == w  # the next item is equal
        seen: set[int] = set()
        for b in range(low, k + 1):  # bin k is the fresh one
            load = loads[b]
            if load > room or load in seen:
                continue
            seen.add(load)
            count = k + (b == k)
            left = room - load  # the bin's room after the move
            spent = waste + left if left < w_min else waste
            if count >= best_count or spent > slack:
                yield None
                continue
            where[idx] = b
            if leaves:
                # Improves the incumbent; recorded only if the walk resumes.
                yield None
                best_count = count
                slack = waste_limit()
                best_bins = [[] for _ in range(count)]
                for item, bin_ in zip(order, where):
                    best_bins[bin_].append(item)
                continue
            loads[b] = load + w
            yield expand(idx + 1, count, b if tie else 0, spent)
            loads[b] = load

    root = expand(0, 0, 0, 0) if floor < best_count else iter(())
    nodes, finished = depth_first(root, node_limit)
    packing = BppPacking(tuple(tuple(sorted(b)) for b in best_bins))
    if not finished and best_count > floor:
        # The root bound is the only lower bound still valid for the
        # abandoned part of the tree; an incumbent at it is proved.
        raise NodeLimitExceeded(best_count, floor, nodes, packing)
    return best_count, packing


def exact_beta(bi: BppInstance, node_limit: int = DEFAULT_NODE_LIMIT) -> int:
    """Exact minimum bin count; raises :class:`NodeLimitExceeded` on budget."""
    return _exact_search(bi, node_limit)[0]


def exact_packing(
    bi: BppInstance, node_limit: int = DEFAULT_NODE_LIMIT
) -> BppPacking:
    """An optimal packing attaining :func:`exact_beta`."""
    return _exact_search(bi, node_limit)[1]
