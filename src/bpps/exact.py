"""Ground-truth solvers at desk scale.

``brute_force`` enumerates every partition of the items (encoded as
restricted-growth strings) and keeps the cheapest feasible one, making it
an oracle that is independent of any bounding machinery.
``branch_and_bound`` searches the same space with the closed-form
relaxation value as node bound and a constructive-heuristic incumbent,
reaching some way past brute-force sizes.  It runs on
:func:`bpps.bpp.depth_first`, which keeps its own stack, so no instance is
too deep for it.  ``brute_force`` stays a plain recursion that shares no
code with the search it checks; its item cap keeps it shallow.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from .bounds import ceil_div, gamma
from .bpp import depth_first
from .cha import BPP_HEURISTIC, cha
from .core import (
    BppsError,
    Instance,
    Solution,
    TrivialInstanceError,
    check_feasible,
    require_valid,
    solution_cost,
)

STATUS_OPTIMAL = "optimal"
STATUS_LIMIT = "limit-reached"

DEFAULT_NODE_LIMIT = 10**7
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


def brute_force(
    inst: Instance,
    max_items: int = BRUTE_FORCE_MAX_ITEMS,
    *,
    override_validation: bool = False,
) -> ExactResult:
    """Enumerate all set partitions and return the cheapest feasible one.

    Items are assigned in index order; item ``i`` may join any existing
    block or open the next fresh block, which enumerates partitions in
    lexicographic restricted-growth order.  Blocks that would burst the
    capacity are discarded immediately.  Among equal-cost optima the
    lexicographically smallest assignment string wins.
    """
    if inst.n > max_items:
        raise ValueError(
            f"brute force limited to {max_items} items, instance has {inst.n}"
        )
    require_valid(inst, override=override_validation)
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
    solution = Solution(tuple(frozenset(b) for b in best_blocks))
    return ExactResult(best_cost, solution, STATUS_OPTIMAL, best_cost, nodes)


def _initial_incumbent(inst: Instance, override: bool) -> tuple[int, Solution]:
    try:
        solution, trace = cha(inst, BPP_HEURISTIC, override_validation=override)
        return trace.psi_bar, solution
    except TrivialInstanceError:
        single = Solution((frozenset(inst.items),))
        if check_feasible(inst, single).ok:
            return solution_cost(inst, single).total, single
        raise


def branch_and_bound(
    inst: Instance,
    node_limit: int = DEFAULT_NODE_LIMIT,
    time_limit: float = DEFAULT_TIME_LIMIT,
    *,
    override_validation: bool = False,
) -> ExactResult:
    """Depth-first exact search with the closed-form relaxation as bound.

    Items are assigned in non-increasing weight order to every open bin
    with room (skipping bins whose load and active-class set duplicate an
    earlier bin, which lead to symmetric subtrees) or to one fresh bin.
    The incumbent starts from the constructive heuristic.  Each node is an
    ``expand`` generator driven by :func:`bpps.bpp.depth_first`, which
    counts the nodes and applies both limits.  When a limit is hit the
    incumbent and the root bound are returned with status
    ``limit-reached``.
    """
    require_valid(inst, override=override_validation)
    d = inst.capacity
    r = inst.bin_cost
    n, m = inst.n, inst.m
    setup_w, setup_f = inst.setup_weights, inst.setup_costs
    g = gamma(inst)
    total_weight = inst.total_weight

    best_cost, best_solution = _initial_incumbent(inst, override_validation)
    order = sorted(inst.items, key=lambda i: (-inst.weight(i), i))

    loads: list[int] = []
    actives: list[set[int]] = []
    content: list[list[int]] = []
    act_count = [0] * (m + 1)
    # Running sums of max(act_count_c, gamma_c) * s_c and * f_c.
    sum_s = sum(gc * s for gc, s in zip(g, setup_w))
    sum_f = sum(gc * fc for gc, fc in zip(g, setup_f))
    committed_setup = 0
    deadline = time.monotonic() + time_limit

    def bound() -> int:
        # Valid lower bound on any completion of the current partial
        # packing: a class already active in a bins stays active there and
        # must end active in at least max(a, gamma_c) bins, so setup cost
        # is at least sum_f and, summing the capacity constraint over all
        # used bins, total bins K satisfy K * d >= total_weight + sum_s;
        # K also cannot drop below the bins already open.  With no items
        # assigned this is exactly r * k_lower + sum gamma_c f_c = zeta_ddag,
        # the lower bound returned when a limit stops the search.
        k_min = ceil_div(total_weight + sum_s, d)
        return r * max(len(loads), k_min) + sum_f

    def expand(idx: int) -> Iterator:
        nonlocal best_cost, best_solution, sum_s, sum_f, committed_setup
        if idx == n:
            cost = r * len(loads) + committed_setup
            if cost < best_cost:
                best_cost = cost
                best_solution = Solution(tuple(frozenset(b) for b in content))
            return
        if bound() >= best_cost:
            return
        i = order[idx]
        w = inst.weight(i)
        c = inst.item_class(i)
        s, fc = setup_w[c - 1], setup_f[c - 1]
        seen: set[tuple[int, frozenset[int]]] = set()
        # Every open bin with room, then one fresh bin.
        for b in range(len(loads) + 1):
            if b < len(loads):
                fresh = c not in actives[b]
                extra = s if fresh else 0
                if loads[b] + w + extra > d:
                    continue
                sig = (loads[b], frozenset(actives[b]))
                if sig in seen:
                    continue
                seen.add(sig)
            else:
                fresh, extra = True, s
                loads.append(0)
                actives.append(set())
                content.append([])
            loads[b] += w + extra
            content[b].append(i)
            if fresh:
                actives[b].add(c)
                act_count[c] += 1
                committed_setup += fc
                if act_count[c] > g[c - 1]:
                    sum_s += s
                    sum_f += fc
            yield expand(idx + 1)
            if fresh:
                if act_count[c] > g[c - 1]:
                    sum_s -= s
                    sum_f -= fc
                act_count[c] -= 1
                committed_setup -= fc
                actives[b].discard(c)
            content[b].pop()
            loads[b] -= w + extra
        content.pop()
        actives.pop()
        loads.pop()

    root_lb = bound()
    nodes, finished = depth_first(expand(0), node_limit, deadline)
    if not finished:
        return ExactResult(
            best_cost, best_solution, STATUS_LIMIT, min(root_lb, best_cost), nodes
        )
    return ExactResult(best_cost, best_solution, STATUS_OPTIMAL, best_cost, nodes)
