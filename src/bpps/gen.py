"""Deterministic benchmark generation and adversarial instance families.

Benchmark instances follow a fixed parameter grid: item weights drawn
uniformly from ``[v1*d, v2*d]``, setup weights from ``[s1*d, s2*d]`` with
``v2 + s2 <= 1`` guaranteeing feasibility, classes assigned uniformly,
and either real costs (``r = 10``, setup costs in ``[1, 5]``) or pure
bin-minimization (``r = 1``, zero setup costs).

Randomness: Python's Mersenne Twister, one sub-stream per field derived
from the config seed as ``Random(seed * 8 + field)`` with fields
0 = class labels, 1 = item weights, 2 = setup weights, 3 = setup costs.
The same config therefore always yields the same instance, independently
of which other instances are generated around it.  Each integer is drawn
by rejection on its stream's ``getrandbits``, exactly as ``Random.randint``
draws, so the streams give the integers ``randint`` would.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator

from .bounds import ceil_div
from .core import MAX_VALUE, Instance, check_item_count

GRID_N = (25, 50, 75, 100, 200)
GRID_M = (5, 10)
GRID_D = (200, 1000, 10000)

COST_WITH = "with-costs"
COST_WITHOUT = "no-costs"
COST_MODES = (COST_WITH, COST_WITHOUT)

#: Sampling ranges as fractions of the capacity, exact rationals so that
#: interval endpoints never suffer float rounding.
ITEM_RANGES = {
    "small": (Fraction(5, 100), Fraction(15, 100)),
    "large": (Fraction(15, 100), Fraction(30, 100)),
}
SETUP_RANGES = {
    "small": (Fraction(1, 100), Fraction(10, 100)),
    "large": (Fraction(10, 100), Fraction(20, 100)),
}

WITH_COSTS_BIN_COST = 10
NO_COSTS_BIN_COST = 1

_FIELD_LABELS = 0
_FIELD_WEIGHTS = 1
_FIELD_SETUPS = 2
_FIELD_COSTS = 3

_MAX_REDRAWS = 10_000

FAMILY_PROP2 = "prop2"
FAMILY_PROP5 = "prop5"
WORST_CASE_FAMILIES = (FAMILY_PROP2, FAMILY_PROP5)


@dataclass(frozen=True)
class GeneratorConfig:
    """Everything that determines one generated instance.

    Grid membership of ``n``/``m``/``d`` is enforced unless ``free_form``
    is set; the named item/setup size categories apply either way, so the
    feasibility condition (item fraction + setup fraction <= 1) always
    holds.  ``n`` must be at most ``MAX_ITEMS``.  ``d`` must be at most
    ``MAX_VALUE`` and leave a positive integer item weight and an integer
    setup weight in the scaled ranges.  ``seed`` must be non-negative:
    ``random.Random`` seeds with ``abs(seed)``, so ``seed * 8`` for a
    negative seed would repeat the class labels of its positive twin.
    """

    n: int
    m: int
    d: int
    cost_mode: str
    item_size: str
    setup_size: str
    seed: int
    free_form: bool = False

    def __post_init__(self) -> None:
        if self.cost_mode not in COST_MODES:
            raise ValueError(f"unknown cost mode {self.cost_mode!r}")
        if self.item_size not in ITEM_RANGES:
            raise ValueError(f"unknown item size {self.item_size!r}")
        if self.setup_size not in SETUP_RANGES:
            raise ValueError(f"unknown setup size {self.setup_size!r}")
        if self.seed < 0:
            raise ValueError(f"seed = {self.seed} is negative")
        if self.m < 1 or self.n < self.m:
            raise ValueError("need n >= m >= 1 so every class can be nonempty")
        check_item_count("items", self.n)
        if not self.free_form:
            if self.n not in GRID_N:
                raise ValueError(f"n = {self.n} outside the grid {GRID_N}")
            if self.m not in GRID_M:
                raise ValueError(f"m = {self.m} outside the grid {GRID_M}")
            if self.d not in GRID_D:
                raise ValueError(f"d = {self.d} outside the grid {GRID_D}")
        if self.d > MAX_VALUE:
            raise ValueError(f"d = {self.d} above the largest value {MAX_VALUE}")
        w_lo, w_hi = self.weight_interval()
        if not 1 <= w_lo <= w_hi:
            raise ValueError(f"d = {self.d} leaves no item weight in [{w_lo}, {w_hi}]")
        s_lo, s_hi = self.setup_interval()
        if s_lo > s_hi:
            raise ValueError(f"d = {self.d} leaves no setup weight in [{s_lo}, {s_hi}]")

    def weight_interval(self) -> tuple[int, int]:
        return _integers_in(ITEM_RANGES[self.item_size], self.d)

    def setup_interval(self) -> tuple[int, int]:
        return _integers_in(SETUP_RANGES[self.setup_size], self.d)


def _integers_in(span: tuple[Fraction, Fraction], d: int) -> tuple[int, int]:
    """First and last integer of ``[lo * d, hi * d]``.

    Integer arithmetic on the numerators keeps the config check cheap
    enough to run for every grid config.
    """
    lo, hi = span
    return ceil_div(lo.numerator * d, lo.denominator), hi.numerator * d // hi.denominator


@dataclass(frozen=True)
class GenOutcome:
    """A generated instance plus how many redraws it took."""

    instance: Instance
    class_redraws: int
    trivial_redraws: int


def _stream(seed: int, field: int) -> random.Random:
    return random.Random(seed * 8 + field)


def _draws(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers drawn uniformly from ``[lo, hi]``.

    Each is drawn by rejection on ``rng.getrandbits(width.bit_length())``,
    exactly as ``rng.randint(lo, hi)`` draws on CPython 3.2 and later, so the
    list equals ``[rng.randint(lo, hi) for _ in range(count)]`` and leaves
    ``rng`` in the same state.  A rejected draw only delays the next value,
    so the draws are made in batches of the count still missing: no batch
    draws past the last value kept.
    """
    width = hi - lo + 1
    bits = width.bit_length()
    getrandbits = rng.getrandbits
    values: list[int] = []
    while len(values) < count:
        batch = [getrandbits(bits) for _ in range(count - len(values))]
        values += [lo + r for r in batch if r < width]
    return values


def generate_verbose(cfg: GeneratorConfig) -> GenOutcome:
    """Generate one instance; pure function of the config.

    Class labels are redrawn as a whole sequence until every class is hit,
    which keeps the assignment uniform conditioned on all classes being
    nonempty.  When ``_MAX_REDRAWS`` draws in a row miss a class (likely
    only with ``n`` close to ``m``), the labels fall back to one item of
    every class plus ``n - m`` uniform labels, shuffled from the same
    stream.  That draw always hits every class, but it is not uniform over
    the sequences that do: it favours sequences whose classes are evenly
    sized.  In the unlikely event the drawn instance is trivial (it would
    fit one bin entirely), everything is redrawn from the continuing
    streams.  A config whose draws always fit one bin raises
    ``ValueError`` once its redraws run out.
    """
    rng_labels = _stream(cfg.seed, _FIELD_LABELS)
    rng_weights = _stream(cfg.seed, _FIELD_WEIGHTS)
    rng_setups = _stream(cfg.seed, _FIELD_SETUPS)
    rng_costs = _stream(cfg.seed, _FIELD_COSTS)
    w_lo, w_hi = cfg.weight_interval()
    s_lo, s_hi = cfg.setup_interval()
    class_redraws = 0
    trivial_redraws = 0
    for _ in range(_MAX_REDRAWS):
        for _ in range(_MAX_REDRAWS):
            labels = _draws(rng_labels, 1, cfg.m, cfg.n)
            if len(set(labels)) == cfg.m:
                break
            class_redraws += 1
        else:  # every draw missed a class: cover them all first
            labels = list(range(1, cfg.m + 1))
            labels += _draws(rng_labels, 1, cfg.m, cfg.n - cfg.m)
            rng_labels.shuffle(labels)
        weights = _draws(rng_weights, w_lo, w_hi, cfg.n)
        setups = _draws(rng_setups, s_lo, s_hi, cfg.m)
        if cfg.cost_mode == COST_WITH:
            bin_cost = WITH_COSTS_BIN_COST
            costs = _draws(rng_costs, 1, bin_cost // 2, cfg.m)
        else:
            bin_cost = NO_COSTS_BIN_COST
            costs = [0] * cfg.m
        if sum(weights) + sum(setups) > cfg.d:
            inst = Instance(
                weights=tuple(weights),
                capacity=cfg.d,
                class_of=tuple(labels),
                setup_weights=tuple(setups),
                setup_costs=tuple(costs),
                bin_cost=bin_cost,
            )
            return GenOutcome(inst, class_redraws, trivial_redraws)
        trivial_redraws += 1
    raise ValueError(
        f"every draw fits one bin of capacity {cfg.d} ({_MAX_REDRAWS} draws)"
    )


def generate(cfg: GeneratorConfig) -> Instance:
    """Generate one instance (see :func:`generate_verbose`)."""
    return generate_verbose(cfg).instance


def instance_name(cfg: GeneratorConfig) -> str:
    cost = "costs" if cfg.cost_mode == COST_WITH else "nocosts"
    return (
        f"bpps_n{cfg.n}_m{cfg.m}_d{cfg.d}_{cost}"
        f"_{cfg.item_size}_{cfg.setup_size}_s{cfg.seed}"
    )


def parse_instance_name(name: str) -> GeneratorConfig:
    """Inverse of :func:`instance_name` (a trailing ``.txt`` is allowed).

    A name :func:`instance_name` does not write is a :class:`ValueError`.
    """
    stem = name[:-4] if name.endswith(".txt") else name
    parts = stem.split("_")
    error = f"not a benchmark instance name: {name!r}"
    if len(parts) != 8:
        raise ValueError(error)
    try:
        cfg = GeneratorConfig(
            n=int(parts[1].removeprefix("n")),
            m=int(parts[2].removeprefix("m")),
            d=int(parts[3].removeprefix("d")),
            cost_mode=COST_WITH if parts[4] == "costs" else COST_WITHOUT,
            item_size=parts[5],
            setup_size=parts[6],
            seed=int(parts[7].removeprefix("s")),
        )
    except ValueError as exc:
        raise ValueError(error) from exc
    if instance_name(cfg) != stem:
        raise ValueError(error)
    return cfg


def benchmark_configs(base_seed: int = 0) -> Iterator[GeneratorConfig]:
    """The full grid in canonical order: two seeds per parameter point."""
    for n, m, d, cost, item, setup, offset in product(
        GRID_N, GRID_M, GRID_D, COST_MODES, ("small", "large"), ("small", "large"), (0, 1)
    ):
        yield GeneratorConfig(
            n=n,
            m=m,
            d=d,
            cost_mode=cost,
            item_size=item,
            setup_size=setup,
            seed=base_seed + offset,
        )


def generate_benchmark(
    base_seed: int = 0,
) -> list[tuple[GeneratorConfig, Instance]]:
    """All 480 grid instances with their configs, in canonical order."""
    return [(cfg, generate(cfg)) for cfg in benchmark_configs(base_seed)]


def worst_case(
    family: str,
    n: int,
    theta: int | None = None,
    r: int = 1,
    f1: int = 0,
) -> Instance:
    """Single-class families where only one item fits per bin.

    ``prop2``: unit weights with setup weight ``n - 1`` at capacity ``n``;
    the plain relaxation value stays below ``2r + f1`` while the optimum
    grows linearly, so the plain bound can be made arbitrarily weak.
    ``prop5``: weight ``theta`` items with unit setup weight at capacity
    ``2 * theta``; the strengthened relaxations stay just above half the
    optimum.  ``n`` above ``MAX_ITEMS`` raises ``ValueError`` before any
    item is built.
    """
    if family not in WORST_CASE_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n < 2:
        raise ValueError("need n >= 2")
    check_item_count("items", n)
    if r < 1 or f1 < 0:
        raise ValueError("need r >= 1 and f1 >= 0")
    if family == FAMILY_PROP2:
        weights = (1,) * n
        capacity = n
        setup = n - 1
    else:
        if theta is None or theta < 1:
            raise ValueError("prop5 needs theta >= 1")
        weights = (theta,) * n
        capacity = 2 * theta
        setup = 1
    return Instance(
        weights=weights,
        capacity=capacity,
        class_of=(1,) * n,
        setup_weights=(setup,),
        setup_costs=(f1,),
        bin_cost=r,
    )
