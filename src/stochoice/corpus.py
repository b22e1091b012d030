"""Deterministic random menu corpora for axiom checking.

A corpus is a pure function of its spec (space, menu count, action
count range, per-space sampler parameters, seed), so generated files
are byte-reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

import numpy as np

from .menus import Menu, _new_menu, id_digests
from .spaces import (
    DISTRIBUTION,
    MEAN_STDDEV,
    PRIZE_STREAM,
    SCALAR,
    VECTOR,
    Space,
    _outcomes,
    feature_rows,
    json_int,
)

# with this probability the last action of a menu duplicates an earlier
# outcome, so neutrality checks are not vacuous on random corpora
DEFAULT_DUPLICATE_PROB = 0.25

_SPEC_KEYS = {"space", "menu_count", "actions_per_menu", "outcome_sampler", "seed"}
_SAMPLER_KEYS = {
    "low", "high", "integer", "sigma_low", "sigma_high", "support_size",
    "min_len", "max_len", "min_abs_det", "duplicate_prob",
}


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
        sampler = self.sampler
        unknown = sorted(set(sampler) - _SAMPLER_KEYS)
        if unknown:
            raise ValueError(f"unknown outcome_sampler keys: {unknown}")
        # the count ranges are checked once here, not on every draw
        size_lo, size_hi = sampler.get("support_size", (1, 4))
        sizes = _count_range("support_size", size_lo, size_hi, least=1)
        min_len, max_len = _count_range(
            "min_len, max_len", sampler.get("min_len", 0), sampler.get("max_len", 4), least=0
        )
        counts = {"support_size": sizes, "min_len": min_len, "max_len": max_len}
        object.__setattr__(self, "sampler", {**sampler, **counts})

    @staticmethod
    def from_json(data: dict) -> "CorpusSpec":
        lo, hi = data.get("actions_per_menu", [2, 5])
        unknown = sorted(set(data) - _SPEC_KEYS)
        if unknown:
            raise ValueError(f"unknown corpus spec keys: {unknown}")
        return CorpusSpec(
            space=Space.from_json(data["space"]),
            menu_count=json_int(data["menu_count"], "menu_count"),
            actions_min=json_int(lo, "actions_per_menu"),
            actions_max=json_int(hi, "actions_per_menu"),
            sampler=dict(data.get("outcome_sampler", {})),
            seed=json_int(data.get("seed", 0), "seed"),
        )


def _count_range(name: str, lo, hi, least: int) -> tuple[int, int]:
    """The integer range [lo, hi] of JSON counts; lo must be at least
    least, and hi at least lo."""
    lo, hi = json_int(lo, name), json_int(hi, name)
    if lo < least:
        raise ValueError(f"{name} must be >= {least}, got [{lo}, {hi}]")
    if lo > hi:
        raise ValueError(f"{name} range [{lo}, {hi}] is reversed")
    return lo, hi


def _sampler(space: Space, params: dict, rng: random.Random) -> Callable[[], object]:
    """A function that draws one outcome payload from rng, unchecked.

    Scalar and lottery payloads come in the form Outcome stores (floats;
    pairs sorted by point).  ``rng.uniform(a, b)`` is inlined as
    ``a + (b - a) * rng.random()``, which is its definition, so the
    draws are the same calls in the same order."""
    kind = space.kind
    unit, randint = rng.random, rng.randint
    low = params.get("low", -3.0)
    high = params.get("high", 3.0)
    span = high - low
    if kind == SCALAR:
        if params.get("integer"):
            if not (math.isfinite(low) and math.isfinite(high)):
                raise ValueError("integer sampler bounds must be finite")
            lo, hi = math.ceil(low), math.floor(high)
            if lo > hi:
                raise ValueError(f"no integer lies in [{low}, {high}]")
            return lambda: float(randint(lo, hi))
        return lambda: low + span * unit()
    if kind == VECTOR:
        return lambda: tuple([low + span * unit() for _ in range(space.d)])
    if kind == MEAN_STDDEV:
        sigma_low = params.get("sigma_low", 0.0)
        sigma_span = params.get("sigma_high", 2.0) - sigma_low
        return lambda: (low + span * unit(), sigma_low + sigma_span * unit())
    if kind == DISTRIBUTION:
        sizes = params["support_size"]
        weight_span = 1.0 - 0.1  # each weight is rng.uniform(0.1, 1.0)

        def lottery():
            k = randint(*sizes)
            points: list[float] = []
            for _ in range(1000):
                if len(points) == k:
                    break
                p = low + span * unit()
                tol = 1e-6 * max(1.0, abs(p))
                for q in points:
                    if not abs(p - q) > tol:
                        break
                else:
                    points.append(p)
            else:
                raise RuntimeError("sampler range too narrow for distinct support")
            weights = [0.1 + weight_span * unit() for _ in range(k)]
            total = sum(weights)
            return tuple(sorted(zip(points, [w / total for w in weights])))

        return lottery
    if kind == PRIZE_STREAM:
        alphabet = space.alphabet
        return lambda: tuple(
            [rng.choice(alphabet) for _ in range(randint(params["min_len"], params["max_len"]))]
        )
    min_det = params.get("min_abs_det", 1e-3)

    def matrix():
        for _ in range(100):
            rows = [[low + span * unit() for _ in range(space.d)] for _ in range(space.d)]
            if abs(np.linalg.det(np.array(rows))) >= min_det:
                return rows
        raise RuntimeError("failed to sample an invertible matrix")

    return matrix


def generate_corpus(spec: CorpusSpec) -> list[Menu]:
    """The corpus of a spec: menus ``a0, a1, ...`` of random outcomes.

    Every payload is drawn first, then all of them are checked at once
    (``spaces._outcomes``), so the first invalid draw raises its error,
    also ahead of a later sampler that gives up.  The menus' feature
    rows are slices of one ``feature_rows`` array over the corpus, and
    their id digests slices of one array over the ids ``a0, a1, ...``."""
    rng = random.Random(spec.seed)
    dup = spec.sampler.get("duplicate_prob", DEFAULT_DUPLICATE_PROB)
    draw = _sampler(spec.space, spec.sampler, rng)
    # every draw, also one a duplicate replaces, and the draw each
    # action takes
    payloads: list = []
    picks: list[int] = []
    sizes: list[int] = []
    failure = None
    try:
        for _ in range(spec.menu_count):
            k = rng.randint(spec.actions_min, spec.actions_max)
            start = len(payloads)
            for _ in range(k):
                payloads.append(draw())
            picks += range(start, start + k)
            if k >= 2 and rng.random() < dup:
                picks[-1] = start + rng.randrange(k - 1)
            sizes.append(k)
    except RuntimeError as exc:
        failure = exc
    drawn = _outcomes(spec.space, payloads)
    if failure is not None:
        raise failure
    outcomes = [drawn[i] for i in picks]
    del payloads, drawn
    phi = feature_rows(spec.space, outcomes)
    phi.flags.writeable = False
    ids = tuple(f"a{i}" for i in range(spec.actions_max))
    digests = id_digests(ids)
    bounds = list(accumulate(sizes, initial=0))
    # the ids a0, a1, ... are valid by construction
    return [
        _new_menu(spec.space, None, entries=tuple(zip(ids, outcomes[a:b])), ids=ids[: b - a],
                  phi=phi[a:b], id_digests=digests[: b - a])
        for a, b in zip(bounds, bounds[1:])
    ]


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
