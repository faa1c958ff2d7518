"""The explicit-stack searches against the recursive versions they replaced.

``ref_branch_and_bound`` and ``ref_exact_search`` below are verbatim copies
(renamed) of the recursive ``bpps.exact.branch_and_bound`` and
``bpps.bpp._exact_search`` that came before :func:`bpps.bpp.depth_first`.
Branch-and-bound must match them exactly, node counts included.  The
per-class search also prunes on the cardinality bound, so it matches
exactly wherever that bound does not exceed the volume bound; elsewhere it
must find the same optimum in no more nodes.
"""

from __future__ import annotations

import math
import random
import time

import pytest

from bpps.bounds import ceil_div, gamma
from bpps.bpp import (
    RULE_FIRST_FIT,
    BppInstance,
    BppPacking,
    NodeLimitExceeded,
    _exact_search,
    decreasing_order,
    fit_heuristic,
)
from bpps.core import Instance, Solution, require_valid
from bpps.exact import (
    DEFAULT_NODE_LIMIT,
    DEFAULT_TIME_LIMIT,
    STATUS_LIMIT,
    STATUS_OPTIMAL,
    ExactResult,
    _initial_incumbent,
    branch_and_bound,
)
from bpps.gen import COST_WITH, GeneratorConfig, generate
from conftest import random_instance

NODE_LIMITS = (0, 1, 50, 2_000)


def ref_exact_search(
    bi: BppInstance, node_limit: int
) -> tuple[int, BppPacking, int]:
    """Depth-first branch-and-bound over bin assignments.

    Items are placed in non-increasing weight order into every open bin
    they fit (skipping bins with duplicate loads, which lead to symmetric
    subtrees) or into a single fresh bin.  A node is pruned when
    ``open bins + ceil((remaining weight - free space) / capacity)``
    reaches the incumbent.
    """
    order = decreasing_order(bi)
    weights = [bi.weights[i - 1] for i in order]
    n, cap = bi.n, bi.capacity
    suffix = [0] * (n + 1)
    for idx in range(n - 1, -1, -1):
        suffix[idx] = suffix[idx + 1] + weights[idx]

    start = fit_heuristic(bi, RULE_FIRST_FIT, order)
    best_count = start.bin_count
    best_bins: list[list[int]] = [list(b) for b in start.bins]

    loads: list[int] = []
    content: list[list[int]] = []
    nodes = 0
    aborted = False

    def lower_bound(idx: int) -> int:
        free = len(loads) * cap - sum(loads)
        overflow = suffix[idx] - free
        extra = -(-overflow // cap) if overflow > 0 else 0
        return len(loads) + extra

    def walk(idx: int) -> None:
        nonlocal best_count, best_bins, nodes, aborted
        if aborted:
            return
        nodes += 1
        if nodes > node_limit:
            aborted = True
            return
        if idx == n:
            if len(loads) < best_count:
                best_count = len(loads)
                best_bins = [list(b) for b in content]
            return
        if lower_bound(idx) >= best_count:
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
            walk(idx + 1)
            content[b].pop()
            loads[b] = load
        loads.append(w)
        content.append([item])
        walk(idx + 1)
        content.pop()
        loads.pop()

    walk(0)
    if aborted:
        # The volume bound is the only lower bound still valid for the
        # abandoned part of the tree.
        raise NodeLimitExceeded(best_count, bi.volume_bound(), nodes)
    packing = BppPacking(tuple(tuple(sorted(b)) for b in best_bins))
    return best_count, packing, nodes


def ref_branch_and_bound(
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
    The incumbent starts from the constructive heuristic.  When a limit is
    hit the incumbent and the root bound are returned with status
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
    nodes = 0
    aborted = False
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

    def walk(idx: int) -> None:
        nonlocal best_cost, best_solution, nodes, aborted
        nonlocal sum_s, sum_f, committed_setup
        if aborted:
            return
        nodes += 1
        if nodes > node_limit or (nodes % 1024 == 0 and time.monotonic() > deadline):
            aborted = True
            return
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

        def place(b: int, fresh: bool) -> None:
            nonlocal sum_s, sum_f, committed_setup
            extra = s if fresh else 0
            loads[b] += w + extra
            content[b].append(i)
            if fresh:
                actives[b].add(c)
                act_count[c] += 1
                committed_setup += fc
                if act_count[c] > g[c - 1]:
                    sum_s += s
                    sum_f += fc
            walk(idx + 1)
            if fresh:
                if act_count[c] > g[c - 1]:
                    sum_s -= s
                    sum_f -= fc
                act_count[c] -= 1
                committed_setup -= fc
                actives[b].discard(c)
            content[b].pop()
            loads[b] -= w + extra

        seen: set[tuple[int, frozenset[int]]] = set()
        for b in range(len(loads)):
            fresh = c not in actives[b]
            extra = s if fresh else 0
            if loads[b] + w + extra > d:
                continue
            sig = (loads[b], frozenset(actives[b]))
            if sig in seen:
                continue
            seen.add(sig)
            place(b, fresh)
        loads.append(0)
        actives.append(set())
        content.append([])
        place(len(loads) - 1, True)
        content.pop()
        actives.pop()
        loads.pop()

    root_lb = bound()
    walk(0)
    if aborted:
        return ExactResult(
            best_cost, best_solution, STATUS_LIMIT, min(root_lb, best_cost), nodes
        )
    return ExactResult(best_cost, best_solution, STATUS_OPTIMAL, best_cost, nodes)


def sweep_instance(n: int, j: int) -> Instance:
    """Large items, small setups, three classes: B&B trees of 1 to 10^5 nodes."""
    cfg = GeneratorConfig(
        n=n, m=3, d=200, cost_mode=COST_WITH, item_size="large",
        setup_size="small", seed=n * 100 + j, free_form=True,
    )
    return generate(cfg)


def bnb_instances() -> list[Instance]:
    rng = random.Random(11)
    small = [random_instance(rng, max_n=12, max_m=4) for _ in range(60)]
    return small + [sweep_instance(n, j) for n in range(13, 18) for j in range(5)]


def class_instances() -> list[BppInstance]:
    rng = random.Random(23)
    out = []
    for k in range(300):
        cap = rng.randint(4, 60)
        n = rng.randint(1, 22)
        if k % 3 == 0:
            weights = [rng.randint(1, cap) for _ in range(n)]
        else:
            # At most two of these fit a bin, so the cardinality bound
            # exceeds the volume bound.
            low = cap // 3 + 1
            weights = [rng.randint(low, max(cap // 2, low)) for _ in range(n)]
            if k % 3 == 2:
                # Two items that fit no partner keep the root from closing.
                weights += [cap - low + 1] * 2
        out.append(BppInstance(tuple(weights), cap))
    return out


def outcome(search, *args):
    try:
        return search(*args)
    except NodeLimitExceeded as exc:
        return (str(exc), exc.incumbent, exc.lower_bound, exc.nodes)


@pytest.mark.parametrize("node_limit", NODE_LIMITS)
def test_branch_and_bound_matches_the_recursive_search(node_limit):
    for inst in bnb_instances():
        want = ref_branch_and_bound(inst, node_limit, math.inf)
        assert branch_and_bound(inst, node_limit, math.inf) == want


def test_branch_and_bound_time_limit_checked_every_1024_nodes():
    inst = sweep_instance(15, 1)  # 2,015 nodes to optimality
    want = ref_branch_and_bound(inst, DEFAULT_NODE_LIMIT, 0.0)
    got = branch_and_bound(inst, time_limit=0.0)
    assert (got.status, got.nodes) == (STATUS_LIMIT, 1024)
    assert got == want


@pytest.mark.parametrize("node_limit", NODE_LIMITS)
def test_class_search_matches_the_recursive_search(node_limit):
    seen = {"exact": 0, "finished": 0, "new-finished": 0, "stopped": 0}
    for bi in class_instances():
        want = outcome(ref_exact_search, bi, node_limit)
        got = outcome(_exact_search, bi, node_limit)
        card = ceil_div(bi.n, bi.capacity // min(bi.weights))
        if card <= bi.volume_bound():
            assert got == want
            seen["exact"] += 1
        elif isinstance(want[1], BppPacking):
            assert got[:2] == want[:2]
            assert got[2] <= want[2]
            seen["finished"] += 1
        elif isinstance(got[1], BppPacking):
            # Only the new search finished: its optimum lies in the bracket
            # the reference stopped with.
            assert want[2] <= got[0] <= want[1]
            seen["new-finished"] += 1
        else:
            # Both stopped: the stronger bound explores the same tree minus
            # pruned subtrees, so it has seen at least the same incumbents.
            assert got[1] <= want[1]
            assert got[2] == max(card, bi.volume_bound())
            assert got[3] == want[3] == node_limit + 1
            seen["stopped"] += 1
    assert seen["exact"] and seen["stopped"], seen
    assert node_limit < 50 or all(seen.values()), seen
