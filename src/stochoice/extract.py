"""Constructive procedures over choice rules: utility extraction from
binary probes, utility-representation fitting per outcome space (on the
scalar space its one coefficient is the logit beta), the nth-root limit
rule, delta-closeness certificates against a logit, and the stability
bound calculator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .axioms import effective_neutrality_epsilon, power_diagonal_log
from .menus import Menu
from .rules import ChoiceDistribution, Rule, _bounds, choose_corpus
from .spaces import (
    Outcome,
    Space,
    SpaceMismatchError,
    Utility,
    basis_probes,
    feature_rows,
    identity,
)

PROBE_CONDITION_LIMIT = 1e10
RECONSTRUCTION_TOL = 1e-10
# a subnormal probe probability below 2^-1030 keeps fewer than 44
# significant bits, and the log odds taken from it would lose them
PROBE_PROBABILITY_FLOOR = 2.0**-1030


class NotPositiveError(ValueError):
    def __init__(self) -> None:
        super().__init__("rule not positive at probe")


def extract_utility(rule: Rule, x: Outcome) -> float:
    """The canonical utility of x: the log odds of the x-outcome action
    against the identity outcome in a binary probe menu.

    The odds are the ratio of the two probabilities, not p / (1 - p),
    in which 1 - p cancels once p nears 1.  Where the ratio overflows,
    the log odds are the difference of the two logs.  A probability
    below PROBE_PROBABILITY_FLOOR raises ValueError rather than give
    log odds that have lost precision."""
    probe = Menu(x.space, (("a_e", identity(x.space)), ("a_x", x)))
    dist = rule.choose(probe)
    p_e, p_x = dist["a_e"], dist["a_x"]
    if p_e == 0.0 or p_x == 0.0:
        raise NotPositiveError()
    if min(p_e, p_x) < PROBE_PROBABILITY_FLOOR:
        raise ValueError(
            f"probe probability {min(p_e, p_x)!r} is below 2^-1030 and keeps fewer "
            "than 44 significant bits: its log odds would lose precision"
        )
    odds = p_x / p_e
    if math.isinf(odds):
        return math.log(p_x) - math.log(p_e)
    return math.log(odds)


@dataclass(frozen=True)
class FitResult:
    utility: Utility
    probe_condition: float


def fit_utility_representation(rule: Rule, space: Space) -> FitResult:
    """Recover the rule's utility coefficients from binary probes.

    Each basis probe's log odds against the identity outcome is its
    utility, so the coefficients solve one linear system in the probes'
    feature vectors.  Its condition number is checked and reported; it
    is exactly 1 wherever the probes are the unit feature basis.
    """
    probes = basis_probes(space)
    if not probes:
        return FitResult(Utility(space, ()), 1.0)
    matrix = feature_rows(space, probes)
    observed = np.array([extract_utility(rule, p) for p in probes])
    condition = float(np.linalg.cond(matrix))
    if condition > PROBE_CONDITION_LIMIT:
        raise ValueError(f"singular probe system (condition number {condition:.3g})")
    coeffs = np.linalg.solve(matrix, observed)
    return FitResult(Utility(space, tuple(coeffs.tolist())), condition)


@dataclass(frozen=True)
class UpsilonEstimate:
    """nth-root estimate of the limit rule, with the subadditivity
    envelope bound when a decomposability epsilon is supplied."""

    distribution: ChoiceDistribution
    n_used: int
    bound: float | None


def upsilon(
    rule: Rule, menu: Menu, n_max: int, eps_decomp: float | None = None
) -> UpsilonEstimate:
    """Evaluate the limit rule at n_max: the nth root of each diagonal
    probability on the n_max-fold power menu, renormalized.

    The diagonal log probabilities come from ``power_diagonal_log``: a
    rule with ``log_diagonal`` (IARU) supplies them from the multiset of
    outcomes without building the power menu, and the size guard then
    counts outcome groups, C(n_max + k - 1, n_max) for k actions; any
    other rule is evaluated on the power menu, guarded at k^n_max
    actions.  A single evaluation at n_max is used rather than
    extrapolation: the subadditivity envelope bounds the gap to the
    limit by (1 + eps_decomp)^(1/n_max) - 1, which is reported
    alongside; a negative or NaN eps_decomp raises ValueError.  Zero
    diagonal probability propagates to a zero estimate.
    """
    if eps_decomp is not None and not eps_decomp >= 0.0:
        raise ValueError("eps_decomp must be nonnegative")
    logs = power_diagonal_log(rule, menu, n_max)
    raw = [math.exp(logs[a] / n_max) for a in menu.actions]
    total = math.fsum(raw)
    if total <= 0.0:
        raise ValueError("all diagonal probabilities are zero")
    estimate = ChoiceDistribution(menu, [v / total for v in raw])
    bound = None
    if eps_decomp is not None:
        bound = (1.0 + eps_decomp) ** (1.0 / n_max) - 1.0
    return UpsilonEstimate(estimate, n_max, bound)


@dataclass(frozen=True, eq=False)
class ClosenessCertificate:
    """Witness that a rule is delta-close to logit over a corpus: per-menu
    shocks s with |s| <= delta reproducing the rule as softmax(u + s).

    The shocks of every action are kept as one array, ``values``, in the
    order of ``action_ids``, the ids of each menu named in ``menu_ids``;
    ``shocks`` pairs each menu id with its {action id: shock}."""

    utility: Utility
    delta: float
    menu_ids: tuple[str, ...]
    action_ids: tuple[tuple[str, ...], ...]
    values: np.ndarray

    @property
    def corpus_size(self) -> int:
        return len(self.menu_ids)

    @property
    def shocks(self) -> tuple[tuple[str, dict], ...]:
        values = self.values.tolist()
        bounds = _bounds(self.action_ids)
        return tuple(
            (mid, dict(zip(ids, values[a:b])))
            for mid, ids, a, b in zip(self.menu_ids, self.action_ids, bounds, bounds[1:])
        )

    def to_json(self) -> dict:
        return {
            "utility": self.utility.to_json(),
            "delta": self.delta,
            "menus": [{"menu_id": mid, "shocks": sh} for mid, sh in self.shocks],
            "corpus_size": self.corpus_size,
        }


def _corpus_arrays(rule: Rule, corpus: Sequence[Menu], space: Space):
    """The probability, feature row and menu index of every action of a
    nonempty corpus, in order, choosing from each menu once
    (``rules.choose_corpus``).  The first menu off ``space``, with a
    probability that is not positive, or failing to choose, raises as a
    loop over the menus would."""
    on_space = next((i for i, m in enumerate(corpus) if m.space != space), len(corpus))
    dists, error = choose_corpus(rule, corpus[:on_space])
    probs = np.array(list(chain.from_iterable(d.aligned(m) for d, m in zip(dists, corpus))))
    if (probs <= 0.0).any():
        raise ValueError("non-positive probability in corpus")
    if error is not None:
        raise error
    if on_space < len(corpus):
        raise SpaceMismatchError()
    menu_of = np.repeat(np.arange(len(corpus)), [len(m) for m in corpus])
    return probs, np.concatenate([m.phi for m in corpus]), menu_of


def _extremes(r: np.ndarray, menu_of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of each menu's largest and of its smallest residual, in
    one pass per menu, as a stable sort by residual within each menu
    would pick them: the last index holding the largest, where NaN counts
    as largest, and the first holding the smallest."""
    first = np.flatnonzero(np.diff(menu_of, prepend=-1))
    at = np.arange(len(r))
    top_hit = (r == np.maximum.reduceat(r, first)[menu_of]) | np.isnan(r)
    low = np.fmin.reduceat(r, first)[menu_of]
    # a menu of NaNs only has its first index as its smallest
    bottom_hit = (r == low) | np.isnan(low)
    top = np.maximum.reduceat(np.where(top_hit, at, -1), first)
    bottom = np.minimum.reduceat(np.where(bottom_hit, at, len(r)), first)
    return top, bottom


def _min_delta_coeffs(phi: np.ndarray, log_p: np.ndarray, menu_of: np.ndarray) -> np.ndarray:
    """The coefficients c minimizing the largest per-menu half-spread of
    r = ln p - phi c.  Menu offsets drop out: |r(a) - mu| <= t on a menu
    exactly when |r(a) - r(b)| <= 2t for all its pairs a, b.

    Cutting planes keep that pair program small: from c = 0, each round
    adds each menu's pair of largest and smallest residual at c, in both
    orientations, and re-solves over (c, t) with HiGHS.  The model's t
    bounds the optimum from below, so the loop stops once the largest
    half-spread at c is within 1e-12 of it (relative above 1), or when
    no pair is new.
    """
    # imported here: scipy.optimize is slow and large to import, and only
    # certify needs it
    from scipy.optimize import linprog

    n, k = phi.shape
    c, t, known = np.zeros(k), -math.inf, np.empty(0, dtype=np.int64)
    while True:
        r = log_p - phi @ c
        top, bottom = _extremes(r, menu_of)
        if np.max(r[top] - r[bottom]) / 2.0 - t <= 1e-12 * max(t, 1.0):
            return c
        keys = np.minimum(top, bottom) * n + np.maximum(top, bottom)
        new = np.setdiff1d(keys[top != bottom], known)
        if not new.size:
            return c
        known = np.union1d(known, new)
        i, j = np.divmod(known, n)
        d, e, two = phi[i] - phi[j], log_p[i] - log_p[j], np.full((len(known), 1), -2.0)
        # over (c, t): e - d.c <= 2t and d.c - e <= 2t
        a_ub, b_ub = np.block([[-d, two], [d, two]]), np.concatenate([-e, e])
        res = linprog(np.eye(k + 1)[k], a_ub, b_ub, bounds=(None, None), method="highs")
        if not res.success:
            raise RuntimeError(f"min-delta fit failed: {res.message}")
        c, t = res.x[:k], res.x[k]


def certify_closeness(
    rule: Rule,
    corpus: Sequence[Menu],
    u: Utility | None = None,
    menu_ids: Sequence[str] | None = None,
) -> ClosenessCertificate:
    """Certify how close the rule is to logit with utility u, by default
    the utility ``coeffs . features`` of smallest delta on the corpus.

    One pass chooses from every menu, in array passes for the logit
    family and ``Perturbed``.  Per menu, the residuals
    r(a) = ln p(a) - u(o(a)) are centered at the midpoint of their range
    (which minimizes the sup norm), giving shocks s(a) and a per-menu
    delta of half the residual spread.  The corpus delta is the maximum.
    The reconstruction invariant is re-verified before returning.  A
    feature that overflows, such as a cumulant of a lottery with huge
    support, raises ValueError naming its menu.
    """
    if menu_ids is None:
        menu_ids = [f"menu_{i:04d}" for i in range(len(corpus))]
    if len(menu_ids) != len(corpus):
        raise ValueError("menu_ids must match the corpus length")
    if not corpus:
        raise ValueError("empty corpus")
    space = corpus[0].space if u is None else u.space
    probs, phi, menu_of = _corpus_arrays(rule, corpus, space)
    bad = np.flatnonzero(~np.isfinite(phi).all(axis=1))
    if bad.size:
        raise ValueError(f"outcome features are not finite on menu {menu_ids[menu_of[bad[0]]]}")
    log_p = np.log(probs)
    if u is None:
        u = Utility(space, _min_delta_coeffs(phi, log_p, menu_of))
    with np.errstate(over="ignore", invalid="ignore"):
        utilities = phi @ np.array(u.coeffs)
    bad = np.flatnonzero(~np.isfinite(utilities))
    if bad.size:
        raise ValueError(f"utility {u._named()} is not finite on menu {menu_ids[menu_of[bad[0]]]}")
    r = log_p - utilities
    top, bottom = _extremes(r, menu_of)
    # halving is exact, and the halves' sum cannot overflow
    s = r - (r[top] / 2.0 + r[bottom] / 2.0)[menu_of]
    first = np.flatnonzero(np.diff(menu_of, prepend=-1))
    logits = utilities + s
    weights = np.exp(logits - np.maximum.reduceat(logits, first)[menu_of])
    rebuilt = weights / np.add.reduceat(weights, first)[menu_of]
    # a NaN residual fails too
    if not np.max(np.abs(rebuilt - probs)) <= RECONSTRUCTION_TOL:
        raise RuntimeError("certificate reconstruction check failed")
    delta = float(np.max(r[top] - r[bottom]) / 2.0)
    return ClosenessCertificate(u, delta, tuple(menu_ids), tuple(m.ids for m in corpus), s)


def fit_beta_min_delta(rule: Rule, corpus: Sequence[Menu]) -> float:
    """The scalar logit parameter minimizing the certificate delta over
    the corpus: the scalar view of ``certify_closeness``'s exact fit,
    which, unlike the single-probe extraction, no probe shock biases."""
    if not corpus:
        raise ValueError("empty corpus")
    probs, phi, menu_of = _corpus_arrays(rule, corpus, Space.scalar())
    return float(_min_delta_coeffs(phi, np.log(probs), menu_of)[0])


@dataclass(frozen=True)
class UlamBounds:
    general: float
    banach: float


def ulam_bound(
    eps_neut: float,
    eps_decomp: float,
    stability: Callable[[float], float] | None = None,
) -> UlamBounds:
    """Closeness-to-logit bounds from the approximate-axiom parameters.

    With the reduced neutrality parameter e' = min{eps_neut,
    2 eps_d + eps_d^2}, the general bound is 2 eps_d + e' + d(4 eps_d + e')
    for a stability function d of the outcome space.  The Banach-space
    specialization uses d(x) = x, which collapses to 10 eps_d + 2 eps_d^2
    whenever eps_neut >= 2 eps_d + eps_d^2.
    """
    if eps_neut < 0 or eps_decomp < 0:
        raise ValueError("epsilons must be nonnegative")
    if stability is None:
        stability = lambda x: x
    if stability(0.0) != 0.0:
        raise ValueError("stability function must satisfy d(0) = 0")
    eff = effective_neutrality_epsilon(eps_neut, eps_decomp)
    arg = 4.0 * eps_decomp + eff
    general = 2.0 * eps_decomp + eff + stability(arg)
    banach = 2.0 * eps_decomp + eff + arg
    return UlamBounds(general, banach)
