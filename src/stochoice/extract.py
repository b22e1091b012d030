"""Constructive procedures over choice rules: parameter and utility
extraction from binary probes, utility-representation fitting per
outcome space, the nth-root limit rule, delta-closeness certificates
against a logit, and the stability bound calculator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import csr_matrix, hstack, vstack

from .axioms import effective_neutrality_epsilon
from .menus import (
    MENU_SIZE_GUARD,
    Menu,
    action_str,
    diagonal_action,
    power,
    unit_binary_menu,
)
from .rules import ChoiceDistribution, Rule
from .spaces import (
    Outcome,
    Space,
    Utility,
    basis_probes,
    evaluate,
    features,
    identity,
)

PROBE_CONDITION_LIMIT = 1e10
RECONSTRUCTION_TOL = 1e-10


class NotPositiveError(ValueError):
    def __init__(self) -> None:
        super().__init__("rule not positive at probe")


def extract_beta(rule: Rule) -> float:
    """ln(p1/p0) from the rule's distribution on the unit binary menu
    {b0: 0, b1: 1}; +inf when p0 = 0 and -inf when p1 = 0."""
    dist = rule.choose(unit_binary_menu())
    p0, p1 = dist["b0"], dist["b1"]
    if p0 == 0.0:
        return math.inf
    if p1 == 0.0:
        return -math.inf
    return math.log(p1 / p0)


def extract_utility(rule: Rule, x: Outcome) -> float:
    """The canonical utility of x: the log odds of the x-outcome action
    against the identity outcome in a binary probe menu."""
    probe = Menu(x.space, (("a_e", identity(x.space)), ("a_x", x)))
    p = rule.choose(probe)["a_x"]
    if p <= 0.0 or p >= 1.0:
        raise NotPositiveError()
    return math.log(p / (1.0 - p))


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
    matrix = np.array([features(p) for p in probes])
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

    A single evaluation at n_max is used rather than extrapolation: the
    subadditivity envelope bounds the gap to the limit by
    (1 + eps_decomp)^(1/n_max) - 1, which is reported alongside.  Zero
    diagonal probability propagates to a zero estimate.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if len(menu) ** n_max > MENU_SIZE_GUARD:
        raise ValueError(f"power menu would exceed {MENU_SIZE_GUARD} actions")
    dist = rule.choose(power(menu, n_max))
    raw = {}
    for a in menu.actions:
        p = dist[diagonal_action(a, n_max)]
        raw[a] = p ** (1.0 / n_max) if p > 0.0 else 0.0
    total = math.fsum(raw.values())
    if total <= 0.0:
        raise ValueError("all diagonal probabilities are zero")
    estimate = ChoiceDistribution({a: v / total for a, v in raw.items()})
    bound = None
    if eps_decomp is not None:
        bound = (1.0 + eps_decomp) ** (1.0 / n_max) - 1.0
    return UpsilonEstimate(estimate, n_max, bound)


@dataclass(frozen=True)
class ClosenessCertificate:
    """Witness that a rule is delta-close to logit over a corpus: per-menu
    shocks s with |s| <= delta reproducing the rule as softmax(u + s)."""

    utility: Utility
    delta: float
    shocks: tuple[tuple[str, dict], ...]
    corpus_size: int

    def to_json(self) -> dict:
        return {
            "utility": self.utility.to_json(),
            "delta": self.delta,
            "menus": [
                {"menu_id": mid, "shocks": dict(sh)} for mid, sh in self.shocks
            ],
            "corpus_size": self.corpus_size,
        }


def certify_closeness(
    rule: Rule,
    corpus: Sequence[Menu],
    u: Utility,
    menu_ids: Sequence[str] | None = None,
) -> ClosenessCertificate:
    """Certify how close the rule is to logit with utility u.

    Per menu, the residuals r(a) = ln p(a) - u(o(a)) are centered at the
    midpoint of their range (which minimizes the sup norm), giving shocks
    s(a) and a per-menu delta of half the residual spread.  The corpus
    delta is the maximum.  The reconstruction invariant is re-verified
    before returning.
    """
    if menu_ids is None:
        menu_ids = [f"menu_{i:04d}" for i in range(len(corpus))]
    if len(menu_ids) != len(corpus):
        raise ValueError("menu_ids must match the corpus length")
    delta = 0.0
    shocks: list[tuple[str, dict]] = []
    for mid, menu in zip(menu_ids, corpus):
        dist = rule.choose(menu)
        probs = np.array([dist[a] for a in menu.actions])
        if np.any(probs <= 0.0):
            raise ValueError("non-positive probability in corpus")
        utilities = np.array([evaluate(u, o) for _, o in menu.entries])
        residuals = np.log(probs) - utilities
        mid_r = (residuals.max() + residuals.min()) / 2.0
        s = residuals - mid_r
        delta = max(delta, float((residuals.max() - residuals.min()) / 2.0))
        weights = np.exp(utilities + s - (utilities + s).max())
        rebuilt = weights / weights.sum()
        if np.max(np.abs(rebuilt - probs)) > RECONSTRUCTION_TOL:
            raise RuntimeError("certificate reconstruction check failed")
        shocks.append(
            (mid, {action_str(a): float(v) for a, v in zip(menu.actions, s)})
        )
    return ClosenessCertificate(u, delta, tuple(shocks), len(corpus))


def fit_beta_min_delta(rule: Rule, corpus: Sequence[Menu]) -> float:
    """The scalar logit parameter minimizing the certificate delta over
    the corpus: the exact Chebyshev fit of the log probabilities.

    One linear program over (beta, an offset mu_m per menu, t) minimizes
    t subject to |ln p(a) - beta o(a) - mu_m| <= t.  Within a menu only
    the largest and the smallest ln p at each distinct outcome can bind,
    so each distinct outcome gives one row per side.  Unlike the
    single-probe extraction, this estimate is not biased by the probe
    menu's shocks.
    """
    # imported here: scipy.optimize is slow and large to import, and only
    # certify needs it
    from scipy.optimize import linprog

    if not corpus:
        raise ValueError("empty corpus")
    values, tops, bottoms = [], [], []
    for menu in corpus:
        dist = rule.choose(menu)
        probs = np.array([dist[a] for a in menu.actions])
        if np.any(probs <= 0.0):
            raise ValueError("non-positive probability in corpus")
        distinct, group = np.unique(
            [o.value for _, o in menu.entries], return_inverse=True
        )
        top = np.full(len(distinct), -np.inf)
        bottom = np.full(len(distinct), np.inf)
        np.maximum.at(top, group, np.log(probs))
        np.minimum.at(bottom, group, np.log(probs))
        values.append(distinct)
        tops.append(top)
        bottoms.append(bottom)
    # one row pair per (menu m, distinct outcome v) over the columns
    # (beta, mu_1 .. mu_M, t): ln p_top - beta v - mu_m <= t and
    # beta v + mu_m - ln p_bottom <= t
    v = np.concatenate(values)
    menu_of_row = np.repeat(np.arange(len(corpus)), [len(x) for x in values])
    fitted = hstack(
        [v[:, None], csr_matrix((np.ones(len(v)), (np.arange(len(v)), menu_of_row)))]
    )
    t = np.ones((len(v), 1))
    a_ub = vstack([hstack([-fitted, -t]), hstack([fitted, -t])])
    rhs = np.concatenate(tops + bottoms) * np.repeat([-1.0, 1.0], len(v))
    cost = np.zeros(a_ub.shape[1])
    cost[-1] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=rhs, bounds=(None, None), method="highs")
    if not res.success:
        raise RuntimeError(f"min-delta fit failed: {res.message}")
    return float(res.x[0])


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
