"""Deterministic random menu corpora for axiom checking.

A corpus is a pure function of its spec (space, menu count, action
count range, per-space sampler parameters, seed), so generated files
are byte-reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .menus import Menu
from .spaces import (
    DISTRIBUTION,
    MEAN_STDDEV,
    PRIZE_STREAM,
    SCALAR,
    VECTOR,
    Outcome,
    Space,
    json_int,
)

# with this probability the last action of a menu duplicates an earlier
# outcome, so neutrality checks are not vacuous on random corpora
DEFAULT_DUPLICATE_PROB = 0.25


@dataclass(frozen=True)
class CorpusSpec:
    space: Space
    menu_count: int
    actions_min: int = 2
    actions_max: int = 5
    sampler: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.menu_count < 1:
            raise ValueError("menu_count must be positive")
        if not 1 <= self.actions_min <= self.actions_max:
            raise ValueError("actions_per_menu range is empty")

    @staticmethod
    def from_json(data: dict) -> "CorpusSpec":
        lo, hi = data.get("actions_per_menu", [2, 5])
        return CorpusSpec(
            space=Space.from_json(data["space"]),
            menu_count=json_int(data["menu_count"], "menu_count"),
            actions_min=json_int(lo, "actions_per_menu"),
            actions_max=json_int(hi, "actions_per_menu"),
            sampler=dict(data.get("outcome_sampler", {})),
            seed=json_int(data.get("seed", 0), "seed"),
        )


def _sample_outcome(space: Space, params: dict, rng: random.Random) -> Outcome:
    kind = space.kind
    low = params.get("low", -3.0)
    high = params.get("high", 3.0)
    if kind == SCALAR:
        if params.get("integer"):
            if not (math.isfinite(low) and math.isfinite(high)):
                raise ValueError("integer sampler bounds must be finite")
            lo, hi = math.ceil(low), math.floor(high)
            if lo > hi:
                raise ValueError(f"no integer lies in [{low}, {high}]")
            return Outcome(space, float(rng.randint(lo, hi)))
        return Outcome(space, rng.uniform(low, high))
    if kind == VECTOR:
        return Outcome(space, tuple(rng.uniform(low, high) for _ in range(space.d)))
    if kind == MEAN_STDDEV:
        sigma_low = params.get("sigma_low", 0.0)
        sigma_high = params.get("sigma_high", 2.0)
        return Outcome(space, (rng.uniform(low, high), rng.uniform(sigma_low, sigma_high)))
    if kind == DISTRIBUTION:
        size_lo, size_hi = params.get("support_size", [1, 4])
        k = rng.randint(size_lo, size_hi)
        points: list[float] = []
        for _ in range(1000):
            if len(points) == k:
                break
            p = rng.uniform(low, high)
            if all(abs(p - q) > 1e-6 * max(1.0, abs(p)) for q in points):
                points.append(p)
        else:
            raise RuntimeError("sampler range too narrow for distinct support")
        weights = [rng.uniform(0.1, 1.0) for _ in range(k)]
        total = sum(weights)
        return Outcome(space, tuple((p, w / total) for p, w in zip(points, weights)))
    if kind == PRIZE_STREAM:
        length = rng.randint(params.get("min_len", 0), params.get("max_len", 4))
        return Outcome(space, tuple(rng.choice(space.alphabet) for _ in range(length)))
    min_det = params.get("min_abs_det", 1e-3)
    for _ in range(100):
        rows = [
            [rng.uniform(low, high) for _ in range(space.d)] for _ in range(space.d)
        ]
        if abs(np.linalg.det(np.array(rows))) >= min_det:
            return Outcome(space, rows)
    raise RuntimeError("failed to sample an invertible matrix")


def generate_corpus(spec: CorpusSpec) -> list[Menu]:
    rng = random.Random(spec.seed)
    dup = spec.sampler.get("duplicate_prob", DEFAULT_DUPLICATE_PROB)
    menus = []
    for _ in range(spec.menu_count):
        k = rng.randint(spec.actions_min, spec.actions_max)
        outcomes = [_sample_outcome(spec.space, spec.sampler, rng) for _ in range(k)]
        if k >= 2 and rng.random() < dup:
            outcomes[-1] = outcomes[rng.randrange(k - 1)]
        entries = tuple((f"a{i}", o) for i, o in enumerate(outcomes))
        menus.append(Menu(spec.space, entries))
    return menus


def sample_pairs(
    menus: list[Menu], count: int, seed: int
) -> list[tuple[Menu, Menu]]:
    """Deterministic menu pairs for decomposability checks, sampled with
    replacement."""
    rng = random.Random(seed ^ 0x9E3779B9)
    n = len(menus)
    return [
        (menus[rng.randrange(n)], menus[rng.randrange(n)]) for _ in range(count)
    ]
