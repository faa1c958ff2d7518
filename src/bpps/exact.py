"""Ground-truth solvers at desk scale.

``brute_force`` enumerates every partition of the items (encoded as
restricted-growth strings) and keeps the cheapest feasible one, making it
an oracle that is independent of any bounding machinery.
``branch_and_bound`` searches the same space with the closed-form
relaxation value as node bound, probing costs from the root bound up to a
constructive-heuristic incumbent, and reaches some way past brute-force
sizes.  It runs on :func:`bpps.bpp.depth_first`, which keeps its own
stack, so no instance is too deep for it.  ``brute_force`` stays a plain
recursion that shares no code with the search it checks; its item cap
keeps it shallow.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from .bounds import bounds_report
from .bpp import DEFAULT_NODE_LIMIT, decreasing_order, depth_first
from .cha import BPP_HEURISTIC, cha
from .core import BppsError, Instance, Solution

STATUS_OPTIMAL = "optimal"
STATUS_LIMIT = "limit-reached"

DEFAULT_TIME_LIMIT = 60.0
BRUTE_FORCE_MAX_ITEMS = 12


@dataclass(frozen=True)
class ExactResult:
    """Outcome of an exact solve.

    With status ``optimal`` no feasible solution costs less than ``psi``;
    with ``limit-reached`` the incumbent ``psi`` is still a valid upper
    bound and ``lower_bound`` a valid lower bound.
    """

    psi: int
    solution: Solution
    status: str
    lower_bound: int
    nodes: int


def brute_force(inst: Instance) -> ExactResult:
    """Enumerate all set partitions and return the cheapest feasible one.

    Items are assigned in index order; item ``i`` may join any existing
    block or open the next fresh block, which enumerates partitions in
    lexicographic restricted-growth order.  Blocks that would burst the
    capacity are discarded immediately.  Among equal-cost optima the
    lexicographically smallest assignment string wins.  An instance of
    more than :data:`BRUTE_FORCE_MAX_ITEMS` items raises ``ValueError``.
    """
    if inst.n > BRUTE_FORCE_MAX_ITEMS:
        raise ValueError(
            f"brute force limited to {BRUTE_FORCE_MAX_ITEMS} items, "
            f"instance has {inst.n}"
        )
    d = inst.capacity
    r = inst.bin_cost
    weights, class_of = inst.weights, inst.class_of
    setup_w, setup_f = inst.setup_weights, inst.setup_costs

    loads: list[int] = []
    actives: list[set[int]] = []
    blocks: list[list[int]] = []
    best_cost: int | None = None
    best_blocks: list[list[int]] | None = None
    nodes = 0

    def walk(i: int, cost: int) -> None:
        nonlocal best_cost, best_blocks, nodes
        nodes += 1
        if i > inst.n:
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_blocks = [list(b) for b in blocks]
            return
        w = weights[i - 1]
        c = class_of[i - 1]
        s = setup_w[c - 1]
        for b in range(len(blocks)):
            fresh = c not in actives[b]
            extra = s if fresh else 0
            if loads[b] + w + extra > d:
                continue
            loads[b] += w + extra
            blocks[b].append(i)
            if fresh:
                actives[b].add(c)
            walk(i + 1, cost + (setup_f[c - 1] if fresh else 0))
            if fresh:
                actives[b].discard(c)
            blocks[b].pop()
            loads[b] -= w + extra
        if w + s <= d:
            loads.append(w + s)
            actives.append({c})
            blocks.append([i])
            walk(i + 1, cost + r + setup_f[c - 1])
            blocks.pop()
            actives.pop()
            loads.pop()

    walk(1, 0)
    if best_cost is None or best_blocks is None:
        raise BppsError("no feasible packing exists (some item cannot fit a bin)")
    solution = Solution(tuple(best_blocks))
    return ExactResult(best_cost, solution, STATUS_OPTIMAL, best_cost, nodes)


def branch_and_bound(
    inst: Instance,
    node_limit: int = DEFAULT_NODE_LIMIT,
    time_limit: float = DEFAULT_TIME_LIMIT,
) -> ExactResult:
    """Depth-first exact search that probes costs from the root bound up.

    Items are assigned in non-increasing weight order to every open bin
    with room (skipping bins whose load and active-class set duplicate an
    earlier bin, which lead to symmetric subtrees) or to one fresh bin.
    Each bin is one int, ``state = (load << (m + 1)) | mask``, where bit
    ``c`` of ``mask`` is set when class ``c`` is active in the bin; equal
    states are the symmetric bins, a fresh bin is state 0, and placing an
    item adds one of two per-depth increments to the state.  A trail
    records each item's bin; the bins themselves are built only at a
    leaf.  The incumbent starts from the constructive heuristic; on a
    trivial instance (everything fits one bin) that is the optimal one-bin
    packing.  Costs are integers, so the search is a series of probes
    with a target ``T`` (iterative deepening on the objective), the first
    ``T`` being the root bound ``zeta_ddag``, an integer.  A probe prunes
    each node whose partial packing's bound exceeds ``T``.  A full
    packing's bound is its cost, and every cost below ``T`` is refuted, so
    a leaf the probe reaches costs ``T``, is optimal and ends the search.
    A probe that ends without one proves the optimum above ``T``, and the
    next ``T`` is the smallest bound it pruned, since every packing lies
    below a pruned node.  Once ``T`` reaches the incumbent, the heuristic's
    packing is optimal.  The parent tests each child just before yielding
    it, from the child's own increments, and yields a pruned child and a
    leaf as ``None``; a leaf is recorded as the parent resumes after it.
    Each other node is an ``expand`` generator.
    :func:`bpps.bpp.depth_first` drives each probe, counts every node,
    built or not, its root included, and applies both limits; the probes
    share one node limit and one deadline, and once 1,024 nodes are walked
    the clock is also read between probes.  The deadline starts before
    the heuristic, whose time counts against ``time_limit``.  When a limit
    is hit the incumbent is returned with status ``limit-reached`` and, as
    lower bound, the target of the probe it stopped, the last one not
    refuted.
    A root bound at the incumbent proves it in one node.  ``inst`` is
    valid by construction: no data check.
    """
    deadline = time.monotonic() + time_limit  # the heuristic's time counts too
    best_solution, trace = cha(inst, BPP_HEURISTIC)
    best_cost = trace.psi_bar
    d = inst.capacity
    r = inst.bin_cost
    n, m = inst.n, inst.m
    setup_w, setup_f = inst.setup_weights, inst.setup_costs
    report = bounds_report(inst)
    g = report.gamma
    total_weight = inst.total_weight

    shift = m + 1
    full = (d + 1) << shift  # a state at or past this overfills its bin
    order = decreasing_order(inst)
    # One row per depth for the item placed there: the state increments
    # into a bin where its class is active and into one where it is not,
    # then its class, class bit, gamma_c, setup weight and setup cost.
    rows = []
    for i in order:
        w, c = inst.weight(i), inst.item_class(i)
        s, bit = setup_w[c - 1], 1 << c
        rows.append((w << shift, (w + s) << shift | bit, c, bit, g[c - 1], s, setup_f[c - 1]))

    states = [0] * n  # bins k and beyond are empty: state 0
    where = [0] * n  # where[idx]: the bin of the item placed at depth idx
    act_count = [0] * (m + 1)
    # Running sums of max(act_count_c, gamma_c) * s_c and * f_c.
    sum_s = sum(gc * s for gc, s in zip(g, setup_w))
    sum_f = sum(gc * fc for gc, fc in zip(g, setup_f))

    def expand(idx: int, k: int) -> Iterator:
        # The node after depth idx - 1 with k open bins; it passed its test.
        nonlocal best_cost, best_solution, sum_s, sum_f, above
        add_active, add_fresh, c, bit, gc, s, fc = rows[idx]
        leaves = idx + 1 == n  # the children are full packings
        # Valid lower bound on any completion of a partial packing: a class
        # already active in a bins stays active there and must end active
        # in at least max(a, gamma_c) bins, so setup cost is at least sum_f
        # and, summing the capacity constraint over all used bins, total
        # bins K satisfy K * d >= total_weight + sum_s; K also cannot drop
        # below the bins already open.  On a full packing, where every
        # class is active in at least gamma_c bins, it is the packing's
        # cost r * K + sum_f.  Each child's bound is computed here: into a
        # bin where class c is active, into an open bin where it is not,
        # and into the fresh bin k.  A fresh placement adds s and f_c to
        # the sums once class c is active in gamma_c bins.
        k_min = -(-(total_weight + sum_s) // d)  # ceil_div, inlined
        lb_active = r * (k if k > k_min else k_min) + sum_f
        if act_count[c] >= gc:
            k_min = -(-(total_weight + sum_s + s) // d)
            f = sum_f + fc
            lb_fresh = r * (k if k > k_min else k_min) + f
        else:
            f = sum_f
            lb_fresh = lb_active
        lb_new = r * (k + 1 if k >= k_min else k_min) + f
        seen: set[int] = set()
        for b in range(k + 1):  # bin k is the fresh one
            state = states[b]
            fresh = not state & bit
            new = state + add_fresh if fresh else state + add_active
            if new >= full or state in seen:
                continue
            seen.add(state)
            lb = (lb_new if b == k else lb_fresh) if fresh else lb_active
            if lb > target:
                if lb < above:
                    above = lb
                yield None
                continue
            where[idx] = b
            if leaves:
                # Costs the target, so it is optimal; recorded only if the
                # walk resumes, and then the probe ends.
                yield None
                best_cost = lb
                bins: list[list[int]] = [[] for _ in range(k + (b == k))]
                for i, bin_ in zip(order, where):
                    bins[bin_].append(i)
                best_solution = Solution(tuple(bins))
                return
            states[b] = new
            if fresh:
                act_count[c] += 1
                if act_count[c] > gc:
                    sum_s += s
                    sum_f += fc
            yield expand(idx + 1, k + (b == k))
            if fresh:
                if act_count[c] > gc:
                    sum_s -= s
                    sum_f -= fc
                act_count[c] -= 1
            states[b] = state
            if best_cost == target:  # a leaf below costs the target
                return

    # The same bound at the root, zeta_ddag, an integer, is the first target;
    # above is the smallest bound past the target that a probe has pruned.
    target = int(report.zeta_ddag)
    nodes = 0
    while target < best_cost:
        if nodes >= 1024 and time.monotonic() > deadline:
            return ExactResult(best_cost, best_solution, STATUS_LIMIT, target, nodes)
        above = best_cost
        walked, finished = depth_first(expand(0, 0), node_limit - nodes, deadline)
        nodes += walked
        if not finished:
            return ExactResult(best_cost, best_solution, STATUS_LIMIT, target, nodes)
        target = above  # past best_cost once a leaf has cost the target
    return ExactResult(best_cost, best_solution, STATUS_OPTIMAL, best_cost, nodes or 1)
