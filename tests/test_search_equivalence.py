"""The explicit-stack searches against the recursive versions they replaced.

``ref_branch_and_bound`` and ``ref_exact_search`` below are verbatim copies
(renamed) of the recursive ``bpps.exact.branch_and_bound`` and
``bpps.bpp._exact_search`` that came before :func:`bpps.bpp.depth_first`.
Branch-and-bound now probes targets from the root bound up, so its nodes
and its stops differ from the reference's by design: it must prove the
same value wherever both prove, and a bracket either search stops with
must hold the other's proved value.  The per-class search also prunes on
the cardinality bound and on bin room lost below the smallest weight, and
places equal items in bin order, so it must find the same optimum in no
more nodes, and a search that stops must hold an incumbent no worse than
the reference's at the same limit.  Where a reference stops with its
incumbent at its lower bound, its bracket is closed, which is a proof:
the per-class search must return that result as proved, in the
reference's nodes, and branch-and-bound must prove the same value.
"""

from __future__ import annotations

import math
import random
import time
from unittest import mock

import pytest

from bpps import bpp, exact
from bpps.bounds import ceil_div, gamma
from bpps.bpp import (
    RULE_FIRST_FIT,
    BppInstance,
    BppPacking,
    NodeLimitExceeded,
    _exact_search,
    decreasing_order,
    depth_first,
    fit_heuristic,
)
from bpps.cha import BPP_HEURISTIC, cha
from bpps.core import (
    MAX_VALUE,
    Instance,
    Solution,
    bin_load,
    check_feasible,
    require_valid,
    solution_cost,
)
from bpps.exact import (
    DEFAULT_NODE_LIMIT,
    DEFAULT_TIME_LIMIT,
    STATUS_LIMIT,
    STATUS_OPTIMAL,
    ExactResult,
    branch_and_bound,
)
from conftest import random_instance, root_bound, sweep_instance

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
    require_valid(inst)
    d = inst.capacity
    r = inst.bin_cost
    n, m = inst.n, inst.m
    setup_w, setup_f = inst.setup_weights, inst.setup_costs
    g = gamma(inst)
    total_weight = inst.total_weight

    best_solution, trace = cha(inst, BPP_HEURISTIC)
    best_cost = trace.psi_bar
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


def counted_exact_search(bi: BppInstance, node_limit: int) -> tuple[int, BppPacking, int]:
    """``_exact_search``'s count and packing, and the nodes of its one walk."""
    walks = []

    def walk(root, limit):
        walks.append(depth_first(root, limit))
        return walks[-1]

    with mock.patch.object(bpp, "depth_first", walk):
        count, packing = _exact_search(bi, node_limit)
    return count, packing, walks[0][0]


def outcome(search, *args):
    try:
        return search(*args)
    except NodeLimitExceeded as exc:
        return (str(exc), exc.incumbent, exc.lower_bound, exc.nodes)


def closed(result: ExactResult) -> bool:
    """A stop whose incumbent is at its lower bound: a closed bracket."""
    return result.status == STATUS_LIMIT and result.lower_bound == result.psi


def proved(result: ExactResult) -> bool:
    return result.status == STATUS_OPTIMAL or closed(result)


def check_branch_and_bound(
    inst: Instance, node_limit: int, time_limit: float = math.inf
) -> ExactResult:
    """Check branch-and-bound against the reference; return the reference's.

    The search probes targets from the root bound up, so its nodes and its
    stops differ from the reference's by design.  Where both prove (a
    reference stop with a closed bracket is a proof), the values must be
    equal; where one stops, its bracket must contain the other's proved
    value, and two stopped brackets must overlap.  A stop never reports a
    lower bound below the reference's root bound.  The solution must be
    feasible and cost ``psi``, and a stop falls no further than one node
    past the limit.
    """
    want = ref_branch_and_bound(inst, node_limit, time_limit)
    got = branch_and_bound(inst, node_limit, time_limit)
    assert check_feasible(inst, got.solution).ok
    assert solution_cost(inst, got.solution).total == got.psi
    assert got.nodes <= node_limit + 1
    if got.status == STATUS_OPTIMAL:
        assert got.lower_bound == got.psi
    else:
        assert got.status == STATUS_LIMIT
        assert root_bound(inst) <= got.lower_bound < got.psi
    if proved(got) and proved(want):
        assert got.psi == want.psi
    elif proved(want):
        assert got.lower_bound <= want.psi <= got.psi
    elif proved(got):
        assert want.lower_bound <= got.psi <= want.psi
    else:
        assert max(got.lower_bound, want.lower_bound) <= min(got.psi, want.psi)
    return want


@pytest.mark.parametrize("node_limit", NODE_LIMITS)
def test_branch_and_bound_matches_the_recursive_search(node_limit):
    for inst in bnb_instances():
        check_branch_and_bound(inst, node_limit)


def test_branch_and_bound_matches_at_the_benchmark_limit():
    # The benchmark's sweep regime: n = 18..25 at 2,000 nodes, where most
    # searches stop at the limit.
    stopped = 0
    for n in range(18, 26):
        for j in range(8):
            want = check_branch_and_bound(sweep_instance(n, j), 2_000)
            stopped += want.status == STATUS_LIMIT
    assert stopped > 32


def wide_class_instance() -> Instance:
    """66 classes: bins of the heavy classes 63..66 have class bits past 64."""
    rng = random.Random(3)
    labels = list(range(1, 63)) + [c for c in range(63, 67) for _ in range(8)]
    weights = [rng.randint(1, 5) for _ in range(62)]
    weights += [rng.choice((40, 60)) for _ in range(32)]
    costs = tuple(rng.randint(0, 4) for _ in range(66))
    return Instance(tuple(weights), 200, tuple(labels), (5,) * 66, costs, 30)


@pytest.mark.parametrize("node_limit", NODE_LIMITS + (20_000,))
def test_branch_and_bound_matches_past_64_classes(node_limit):
    check_branch_and_bound(wide_class_instance(), node_limit)


def top_value_instance() -> Instance:
    """Capacity MAX_VALUE; items 1 and 2 with their setup fill a bin exactly.

    Item 3 with item 1 and the setup overfills a bin by one.  The search
    needs 2,532 nodes, so the 2,000-node run stops at its limit.
    """
    rng = random.Random(8)
    weights = [2**30, 2**30 - 2, 2**30 - 1]
    labels = [1, 1, 1]
    for _ in range(11):
        weights.append(rng.randint(MAX_VALUE // 7, MAX_VALUE // 3))
        labels.append(rng.randint(1, 3))
    return Instance(tuple(weights), MAX_VALUE, tuple(labels), (1, 5, 9), (3, 2, 1), 10)


@pytest.mark.parametrize("node_limit", NODE_LIMITS + (20_000,))
def test_branch_and_bound_matches_at_the_top_of_the_value_range(node_limit):
    inst = top_value_instance()
    assert inst.capacity == 2**31 - 1
    want = check_branch_and_bound(inst, node_limit)
    if want.status == STATUS_OPTIMAL:
        assert frozenset({1, 2}) in want.solution.bins
        assert bin_load(inst, {1, 2}) == inst.capacity


def test_branch_and_bound_time_limit_checked_every_1024_nodes():
    inst = sweep_instance(15, 1)  # 2,015 nodes to optimality
    want = check_branch_and_bound(inst, DEFAULT_NODE_LIMIT, 0.0)
    assert (want.status, want.nodes) == (STATUS_LIMIT, 1024)
    assert not closed(want)
    # Each bound in its tree is the root's 54 or at least the heuristic's
    # 64, so its one probe walks the reference's tree and stops with it.
    got = branch_and_bound(inst, DEFAULT_NODE_LIMIT, 0.0)
    assert (got.status, got.nodes) == (STATUS_LIMIT, 1024)


def test_branch_and_bound_time_limit_counts_the_heuristic(monkeypatch):
    # The heuristic takes 10 s of a fake clock, past the 5 s limit, so the
    # search stops at its first clock check instead of proving the optimum
    # in 2,015 nodes, as it did while the deadline started after it.
    inst = sweep_instance(15, 1)
    skew = 0.0
    clock = time.monotonic
    monkeypatch.setattr(time, "monotonic", lambda: clock() + skew)

    def slow_cha(*args, **kwargs):
        nonlocal skew
        answer = cha(*args, **kwargs)
        skew += 10.0
        return answer

    monkeypatch.setattr(exact, "cha", slow_cha)
    got = branch_and_bound(inst, DEFAULT_NODE_LIMIT, 5.0)
    assert (got.status, got.nodes) == (STATUS_LIMIT, 1024)
    assert got.psi == branch_and_bound(inst, DEFAULT_NODE_LIMIT, 0.0).psi


def check_class_search(bi: BppInstance, node_limit: int) -> str:
    """Check the per-class search against the reference; name the case.

    Where the cardinality bound does not exceed the volume bound, node
    limits 0 and 1 stop both searches at the root's one child, before
    either new rule is tested, so everything must match.  Elsewhere the
    search must find the reference's optimum in no more nodes, as a
    feasible packing (the equal-weight rule may return a twin of the
    reference's); if only it finishes, inside the reference's bracket.
    A search that stops alongside the reference must hold an incumbent no
    worse than the reference's, with the root bound.  A reference that
    stops with its incumbent at the volume bound has closed its bracket:
    the search must return that count, as a feasible packing, in the
    reference's nodes.
    """
    want = outcome(ref_exact_search, bi, node_limit)
    got = outcome(counted_exact_search, bi, node_limit)
    card = ceil_div(bi.n, bi.capacity // min(bi.weights))
    stopped = not isinstance(want[1], BppPacking)
    closed_bracket = stopped and want[1] == want[2]
    if card <= bi.volume_bound() and node_limit <= 1 and not closed_bracket:
        assert got == want
        return "exact"
    if isinstance(got[1], BppPacking):
        count, packing, nodes = got
        assert packing.bin_count == count
        assert sorted(i for b in packing.bins for i in b) == list(range(1, bi.n + 1))
        assert all(sum(bi.weights[i - 1] for i in b) <= bi.capacity for b in packing.bins)
        if closed_bracket:
            assert (count, nodes) == (want[1], want[3])
            return "closed"
        if isinstance(want[1], BppPacking):
            assert count == want[0]
            assert nodes <= want[2]
            return "finished"
        # Only the new search finished: its optimum lies in the bracket
        # the reference stopped with.
        assert want[2] <= count <= want[1]
        return "new-finished"
    # Both stopped (a reference that finishes within the limit is matched
    # in no more nodes).  The new search walks the reference's tree in
    # the same order, minus pruned subtrees and minus twins of subtrees it
    # has already walked, so it has seen at least the same incumbents.
    assert stopped and want[1] > want[2], (want, got)
    assert got[1] <= want[1]
    assert got[2] == max(card, bi.volume_bound())
    assert got[3] == want[3] == node_limit + 1
    return "stopped"


CLASS_CASES = ("exact", "closed", "finished", "new-finished", "stopped")


@pytest.mark.parametrize("node_limit", NODE_LIMITS)
def test_class_search_matches_the_recursive_search(node_limit):
    seen = dict.fromkeys(CLASS_CASES, 0)
    for bi in class_instances():
        seen[check_class_search(bi, node_limit)] += 1
    assert seen["stopped"], seen
    assert node_limit > 1 or seen["exact"], seen
    assert node_limit > 0 or seen["closed"], seen
    assert node_limit < 50 or (seen["finished"] and seen["new-finished"]), seen


#: The largest node limit the every-limit tests try on one instance.
EVERY_LIMIT_CAP = 400


def every_limit(nodes: int) -> range:
    """Node limits 0, 1, ... up to a search's tree size or the cap."""
    return range(min(nodes, EVERY_LIMIT_CAP) + 1)


def test_branch_and_bound_matches_at_every_node_limit():
    # A limit can fall on a child its parent has pruned, or on a leaf that
    # improves the incumbent: neither may change what comes back.
    cases = stopped = closed_stops = 0
    for inst in bnb_instances():
        for node_limit in every_limit(
            ref_branch_and_bound(inst, EVERY_LIMIT_CAP, math.inf).nodes
        ):
            want = check_branch_and_bound(inst, node_limit)
            cases += 1
            stopped += want.status == STATUS_LIMIT
            closed_stops += closed(want)
    # The reference stops on 4,901 of the 4,977 cases, 127 of them with a
    # closed bracket.
    assert cases > 4_500 and stopped > 4_500, (cases, stopped)
    assert closed_stops > 0


def test_class_search_matches_at_every_node_limit():
    # A limit can fall on a child its parent has pruned, or on a leaf that
    # improves the incumbent: neither may lose the reference's incumbent.
    seen = dict.fromkeys(CLASS_CASES, 0)
    for bi in class_instances():
        if ceil_div(bi.n, bi.capacity // min(bi.weights)) > bi.volume_bound():
            continue
        for node_limit in every_limit(outcome(ref_exact_search, bi, EVERY_LIMIT_CAP)[-1]):
            seen[check_class_search(bi, node_limit)] += 1
    # Of the 12,106 cases, 287 at limits 0 and 1 match exactly.  The
    # reference stops on 11,927, 134 of them with a closed bracket, which
    # the new search returns as proved; of the other stops past limit 1
    # it proves the optimum in 5,920.
    assert sum(seen.values()) > 11_500, seen
    assert seen["closed"] > 0, seen
    assert seen["new-finished"] + seen["stopped"] > 11_500, seen
    assert seen["new-finished"] > 5_000 and seen["stopped"] > 5_000, seen
