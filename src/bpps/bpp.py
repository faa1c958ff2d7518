"""Classical bin packing sub-solvers.

Used to bound, per class, how many bins the class needs once its setup
weight is subtracted from the capacity: fit heuristics (next/first/best
fit) run under many item orders give an upper bound quickly, and a small
branch-and-bound gives the exact optimum at desk scale.  That search and
the BPPS branch-and-bound in :mod:`bpps.exact` both run on
:func:`depth_first`, an explicit-stack walk that owns the node count and
the limits.

Randomized orders come from Python's ``random.Random`` (Mersenne Twister)
seeded explicitly, with permutations drawn by ``random.shuffle`` (a
Fisher-Yates pass); results are therefore reproducible from the seed alone.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Iterator, Sequence

from .bounds import ceil_div
from .core import BppsError

RULE_NEXT_FIT = "NF"
RULE_FIRST_FIT = "FF"
RULE_BEST_FIT = "BF"
FIT_RULES = (RULE_NEXT_FIT, RULE_FIRST_FIT, RULE_BEST_FIT)

#: Search effort allowed before the exact solver gives up.  Desk-scale
#: per-class instances (tens of items) resolve far below this.
DEFAULT_NODE_LIMIT = 10**7


class NodeLimitExceeded(BppsError):
    """The exact solver exhausted its node budget; carries the incumbent."""

    def __init__(self, incumbent: int, lower_bound: int, nodes: int) -> None:
        self.incumbent = incumbent
        self.lower_bound = lower_bound
        self.nodes = nodes
        super().__init__(
            f"node limit hit after {nodes} nodes "
            f"(incumbent {incumbent}, lower bound {lower_bound})"
        )


def depth_first(
    root: Iterator, node_limit: int, deadline: float = math.inf
) -> tuple[int, bool]:
    """Walk generator nodes depth-first; return ``(nodes, finished)``.

    A node makes each child's move, yields the child's node and undoes the
    move when resumed.  Every node entered counts, the root included.  The
    walk stops once the count passes ``node_limit`` or, checked every 1,024
    nodes, once ``time.monotonic()`` passes ``deadline``.
    """
    nodes, stack = 1, [root]
    while stack and nodes <= node_limit:
        for child in stack[-1]:
            nodes += 1
            if nodes % 1024 == 0 and time.monotonic() > deadline:
                return nodes, False
            stack.append(child)
            break
        else:
            stack.pop()
    return nodes, nodes <= node_limit


@dataclass(frozen=True)
class BppInstance:
    """Items with positive integer weights and a single bin capacity."""

    weights: tuple[int, ...]
    capacity: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
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
    bi: BppInstance, rule: str, order: Sequence[int]
) -> BppPacking:
    """Pack items in the given order under one of the three fit rules.

    NF keeps only the most recent bin open; FF uses the lowest-indexed bin
    the item fits; BF uses the feasible bin with the least residual
    capacity, breaking ties by lowest bin index.
    """
    if rule not in FIT_RULES:
        raise ValueError(f"unknown rule {rule!r}")
    if sorted(order) != list(range(1, bi.n + 1)):
        raise ValueError("order must be a permutation of 1..n")
    cap = bi.capacity
    loads: list[int] = []
    bins: list[list[int]] = []
    for i in order:
        w = bi.weights[i - 1]
        target = -1
        if rule == RULE_NEXT_FIT:
            if loads and loads[-1] + w <= cap:
                target = len(loads) - 1
        elif rule == RULE_FIRST_FIT:
            for b, load in enumerate(loads):
                if load + w <= cap:
                    target = b
                    break
        else:
            best_residual = cap + 1
            for b, load in enumerate(loads):
                residual = cap - load
                if w <= residual < best_residual:
                    best_residual = residual
                    target = b
        if target < 0:
            loads.append(w)
            bins.append([i])
        else:
            loads[target] += w
            bins[target].append(i)
    return BppPacking(tuple(tuple(b) for b in bins))


def _heuristic_search(
    bi: BppInstance, perm_count: int, seed: int
) -> tuple[int, BppPacking]:
    """Best (bin count, packing) over the fit rules and ``perm_count`` orders.

    Random orders are drawn one at a time, only when the loop reaches them,
    from a single seeded stream, so order k is the same however early the
    search stops.  No packing can beat the volume bound, so the first one
    that reaches it is returned.
    """
    if perm_count < 1:
        raise ValueError("perm_count must be at least 1")
    floor = bi.volume_bound()
    rng = random.Random(seed)
    base = list(range(1, bi.n + 1))
    order: Sequence[int] = decreasing_order(bi)
    best: tuple[int, BppPacking] | None = None
    for k in range(perm_count):
        if k:
            order = base[:]
            rng.shuffle(order)
        for rule in FIT_RULES:
            packing = fit_heuristic(bi, rule, order)
            if best is None or packing.bin_count < best[0]:
                best = (packing.bin_count, packing)
                if best[0] == floor:
                    return best
    return best


def heuristic_beta(bi: BppInstance, perm_count: int = 50, seed: int = 0) -> int:
    """Best bin count over all three fit rules and ``perm_count`` orders.

    The first order is always non-increasing weight; the remaining
    ``perm_count - 1`` are random permutations from the seeded generator.
    The search stops at the first packing that reaches the volume bound.
    """
    return _heuristic_search(bi, perm_count, seed)[0]


def heuristic_packing(
    bi: BppInstance, perm_count: int = 50, seed: int = 0
) -> BppPacking:
    """The packing behind :func:`heuristic_beta`."""
    return _heuristic_search(bi, perm_count, seed)[1]


def _exact_search(
    bi: BppInstance, node_limit: int
) -> tuple[int, BppPacking, int]:
    """Depth-first branch-and-bound over bin assignments.

    Items are placed in non-increasing weight order into every open bin
    they fit (skipping bins with duplicate loads, which lead to symmetric
    subtrees) or into a single fresh bin.  Every packing needs at least
    ``floor`` bins, the larger of the volume bound and the cardinality
    bound ``ceil(n / (capacity // smallest weight))``.  A node is pruned
    when ``max(open bins, floor)`` reaches the incumbent.  Each node is an
    ``expand`` generator driven by :func:`depth_first`.
    """
    order = decreasing_order(bi)
    weights = [bi.weights[i - 1] for i in order]
    n, cap = bi.n, bi.capacity
    floor = max(ceil_div(n, cap // weights[-1]), bi.volume_bound())

    start = fit_heuristic(bi, RULE_FIRST_FIT, order)
    best_count = start.bin_count
    best_bins: list[list[int]] = [list(b) for b in start.bins]

    loads: list[int] = []
    content: list[list[int]] = []

    def expand(idx: int) -> Iterator:
        nonlocal best_count, best_bins
        if idx == n:
            if len(loads) < best_count:
                best_count = len(loads)
                best_bins = [list(b) for b in content]
            return
        if max(len(loads), floor) >= best_count:
            return
        item = order[idx]
        w = weights[idx]
        seen: set[int] = set()
        for b in range(len(loads)):
            load = loads[b]
            if load + w > cap or load in seen:
                continue
            seen.add(load)
            loads[b] = load + w
            content[b].append(item)
            yield expand(idx + 1)
            content[b].pop()
            loads[b] = load
        loads.append(w)
        content.append([item])
        yield expand(idx + 1)
        content.pop()
        loads.pop()

    nodes, finished = depth_first(expand(0), node_limit)
    if not finished:
        # The root bound is the only lower bound still valid for the
        # abandoned part of the tree.
        raise NodeLimitExceeded(best_count, floor, nodes)
    packing = BppPacking(tuple(tuple(sorted(b)) for b in best_bins))
    return best_count, packing, nodes


def exact_beta(bi: BppInstance, node_limit: int = DEFAULT_NODE_LIMIT) -> int:
    """Exact minimum bin count; raises :class:`NodeLimitExceeded` on budget."""
    return _exact_search(bi, node_limit)[0]


def exact_packing(
    bi: BppInstance, node_limit: int = DEFAULT_NODE_LIMIT
) -> BppPacking:
    """An optimal packing attaining :func:`exact_beta`."""
    return _exact_search(bi, node_limit)[1]
