from __future__ import annotations

import random

import pytest

import bpps.cli
import bpps.core
import bpps.report
from bpps.core import Instance, validate_instance
from bpps.gen import generate_benchmark


def fig1_instance(bin_cost: int = 10) -> Instance:
    """Eight items in two classes on capacity-6 bins; optima 60 (r=10) and 16 (r=1)."""
    return Instance(
        weights=(3, 3, 3, 3, 1, 1, 1, 1),
        capacity=6,
        class_of=(1, 1, 1, 1, 2, 2, 2, 2),
        setup_weights=(1, 1),
        setup_costs=(2, 3),
        bin_cost=bin_cost,
    )


def random_instance(
    rng: random.Random,
    max_n: int = 8,
    max_m: int = 3,
    max_d: int = 30,
) -> Instance:
    """A valid, non-trivial instance small enough for the brute-force oracle."""
    while True:
        m = rng.randint(1, max_m)
        n = rng.randint(max(m, 2), max_n)
        d = rng.randint(5, max_d)
        setups = [rng.randint(0, d // 3) for _ in range(m)]
        labels = list(range(1, m + 1)) + [rng.randint(1, m) for _ in range(n - m)]
        rng.shuffle(labels)
        weights = [rng.randint(1, d - setups[c - 1]) for c in labels]
        costs = [rng.randint(0, 5) for _ in range(m)]
        inst = Instance(
            weights=tuple(weights),
            capacity=d,
            class_of=tuple(labels),
            setup_weights=tuple(setups),
            setup_costs=tuple(costs),
            bin_cost=rng.randint(1, 10),
        )
        if validate_instance(inst).ok:
            return inst


def count_feasibility_checks(monkeypatch) -> list[int]:
    """Count ``check_feasible`` calls in every module that calls it by name."""
    calls = [0]
    original = bpps.core.check_feasible

    def counted(inst, sol):
        calls[0] += 1
        return original(inst, sol)

    for module in (bpps.cli, bpps.core, bpps.report):
        monkeypatch.setattr(module, "check_feasible", counted)
    return calls


@pytest.fixture
def fig1() -> Instance:
    return fig1_instance()


@pytest.fixture
def fig1_r1() -> Instance:
    return fig1_instance(bin_cost=1)


@pytest.fixture(scope="session")
def benchmark_480():
    """The full generated grid, shared across the session."""
    return generate_benchmark(base_seed=0)
