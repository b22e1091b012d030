"""Equal outcomes are decided by ``outcomes_equal`` and found by
``equal_outcome_blocks``.  The block-based neutrality scan and
relabeling match are compared with the quadratic references they
replaced, on tie-heavy pools of every space kind with tolerance chains:
neighbours in a chain are equal at the default 1e-9, the next but one
are not."""

import hashlib
import math
import random

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from stochoice import (
    ChoiceDistribution,
    Outcome,
    Perturbed,
    Rule,
    Space,
    Uniform,
    action_str,
    equivalent,
    menu_hash,
    menu_of,
    outcomes_equal,
    power,
    scalar_menu,
)
import stochoice.axioms
from stochoice.axioms import neutrality_epsilon, ratio_excess
from stochoice.spaces import equal_outcome_blocks, sort_and_cut

E = 6e-10

POOLS = {
    "scalar": (Space.scalar(), [0.0, E, 2 * E, 3 * E, 1.0, 1.0 + E, -2.5]),
    "vector": (
        Space.vector(2),
        [(0.0, 1.0), (E, 1.0), (2 * E, 1.0 + E), (0.0, 0.0), (E, 0.0), (1.0, 2.0)],
    ),
    "mean_stddev": (
        Space.mean_stddev(),
        [(0.0, 1.0), (E, 1.0), (0.0, 1.0 + E), (2 * E, 1.0 + 2 * E), (0.0, 2.0), (1.0, 1.0)],
    ),
    "distribution": (
        Space.distribution(2),
        [
            ((0.0, 1.0),),
            ((E, 1.0),),
            ((0.0, 0.5), (1.0, 0.5)),
            ((E, 0.5), (1.0, 0.5)),
            ((0.0, 0.5 + E), (1.0, 0.5 - E)),
            ((0.0, 0.5), (2.0, 0.5)),
        ],
    ),
    "prize_stream": (
        Space.prizes(("g", "s", "h")),
        [(), ("g",), ("g", "s"), ("g", "h"), ("s",), ("h", "g")],
    ),
    "matrix": (
        Space.matrix(2),
        [
            ((1.0, 0.0), (0.0, 1.0)),
            ((1.0 + E, 0.0), (0.0, 1.0)),
            ((1.0 + 2 * E, 0.0), (0.0, 1.0 + E)),
            ((1.0, E), (0.0, 1.0)),
            ((1.0, 0.0), (1.0, 1.0)),
            ((2.0, 0.0), (0.0, 1.0)),
        ],
    ),
}


class TieTable(Rule):
    """Probabilities proportional to weights in {0, 1, 2, 3} picked by a
    hash of the menu and the action, so zero probabilities and exact
    ratio ties are common."""

    def __init__(self, seed):
        self.seed = seed

    def choose(self, menu):
        h = menu_hash(menu)
        weights = []
        for a in menu.actions:
            key = f"{self.seed}/{h}/{action_str(a)}".encode()
            weights.append(float(hashlib.blake2b(key, digest_size=1).digest()[0] % 4))
        total = math.fsum(weights)
        if total == 0.0:
            return Uniform().choose(menu)
        return ChoiceDistribution(menu, [w / total for w in weights])


def reference_neutrality(rule, menu, outcome_tol):
    """The all-pairs scan: the largest ratio and the first pair in entry
    order that reaches it."""
    dist = rule.choose(menu)
    eps, pair = 0.0, None
    entries = menu.entries
    for i, (a, oa) in enumerate(entries):
        for b, ob in entries[i + 1 :]:
            if outcomes_equal(oa, ob, outcome_tol):
                r = ratio_excess(dist[a], dist[b])
                if r > eps:
                    eps, pair = r, [action_str(a), action_str(b)]
    return eps, pair


def reference_match_exists(m1, m2, tol):
    """A maximum matching over the dense matrix of equal pairs."""
    dense = np.array(
        [[outcomes_equal(oa, ob, tol) for _, ob in m2.entries] for _, oa in m1.entries]
    )
    return bool(np.all(maximum_bipartite_matching(csr_matrix(dense), perm_type="column") >= 0))


def random_menus(kind, count):
    space, pool = POOLS[kind]
    rng = random.Random(kind)
    for _ in range(count):
        values = [rng.choice(pool) for _ in range(rng.randint(2, 10))]
        yield rng, menu_of(space, {f"a{i}": v for i, v in enumerate(values)})


@pytest.mark.parametrize("kind", sorted(POOLS))
def test_neutrality_matches_all_pairs_scan(kind):
    for t, (_, menu) in enumerate(random_menus(kind, 150)):
        rule = TieTable(t) if t % 2 else Perturbed(Uniform(), 0.3, t)
        for outcome_tol in (None, 2e-9):
            report = neutrality_epsilon(rule, menu, tol=0.0, outcome_tol=outcome_tol)
            eps, pair = reference_neutrality(rule, menu, outcome_tol)
            assert report.min_epsilon == eps
            assert (report.witness and report.witness["pair"]) == pair


@pytest.mark.parametrize("kind", sorted(POOLS))
def test_equivalent_matches_whenever_a_matching_exists(kind):
    pool = POOLS[kind][1]
    for rng, m1 in random_menus(kind, 150):
        entries = list(m1.entries)
        rng.shuffle(entries)
        values = [o.value for _, o in entries]
        if rng.random() < 0.5:
            values[0] = rng.choice(pool)
        m2 = menu_of(m1.space, {f"b{i}": v for i, v in enumerate(values)})
        for tol in (None, 2e-9):
            bijection = equivalent(m1, m2, tol)
            assert (bijection is not None) == reference_match_exists(m1, m2, tol)
            if bijection is None:
                continue
            assert list(bijection) == list(m1.actions)
            assert sorted(bijection.values()) == sorted(m2.actions)
            for a, b in bijection.items():
                assert outcomes_equal(m1.outcomes[m1.index(a)], m2.outcomes[m2.index(b)], tol)


def test_sort_and_cut_labels_runs_in_ascending_order():
    # 1.0 and 1.0 + 2E differ by more than tol but share a run via 1.0 + E
    values = [3.0, 1.0 + 2 * E, 1.0, 2.0, 1.0 + E]
    assert sort_and_cut(values, 1e-9) == [2, 0, 0, 1, 0]
    assert sort_and_cut(values, 0.0) == [4, 2, 0, 3, 1]


def test_blocks_flag_all_equal_by_coordinate_spread():
    space = Space.vector(2)
    outcomes = [Outcome(space, v) for v in [(0.0, 0.0), (5.0, 0.0), (E, 0.0), (0.0, 1.0)]]
    assert equal_outcome_blocks(outcomes) == [([0, 2, 3], False), ([1], True)]
    assert equal_outcome_blocks(outcomes[:3]) == [([0, 2], True), ([1], True)]


def test_streams_compare_exactly_at_any_tol():
    space = Space.prizes(("g", "s"))
    outcomes = [Outcome(space, v) for v in [("g",), ("g", "s"), ("g",), ()]]
    assert equal_outcome_blocks(outcomes, tol=0.5) == [([3], True), ([0, 2], True), ([1], True)]


def test_all_equal_blocks_compare_no_pairs(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return outcomes_equal(*args, **kwargs)

    monkeypatch.setattr(stochoice.axioms, "outcomes_equal", counted)
    menu = power(scalar_menu({"a": 0.0, "b": 1.0}), 10)
    report = neutrality_epsilon(Perturbed(Uniform(), 0.1, 5), menu, tol=0.0)
    assert report.min_epsilon > 0.0
    assert calls == []
