"""Exact and approximate axiom checkers for stochastic choice rules.

Each checker measures the smallest epsilon at which a rule satisfies
the approximate form of an axiom on the given instance(s) and reports
a witness when the requested tolerance is exceeded.  Ratio conventions
for zero probabilities are fixed globally: 0/0 contributes 0 and
x/0 with x > 0 contributes +inf.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations

from .menus import (
    MENU_SIZE_GUARD,
    ActionId,
    Menu,
    action_str,
    diagonal_action,
    equivalent,
    power,
    product,
    scalar_menu,
    unit_binary_menu,
)
from .rules import Rule
from .spaces import (
    SCALAR,
    VECTOR,
    Outcome,
    SpaceMismatchError,
    equal_outcome_blocks,
    outcomes_equal,
)

NEUTRALITY = "neutrality"
DECOMPOSABILITY = "decomposability"
POSITIVITY = "positivity"
CONTINUITY = "continuity"
STRONG_NEUTRALITY = "strong_neutrality"
CROSS_MENU_IDENTITY = "cross_menu_identity"

DEFAULT_TOL = 1e-9
CONTINUITY_STEPS = (1e-2, 1e-4, 1e-6)
# the space kinds whose outcomes the continuity probe can perturb
CONTINUITY_KINDS = (SCALAR, VECTOR)


@dataclass(frozen=True)
class AxiomReport:
    """Result of one axiom check: the minimal epsilon achieved and, when
    the tolerance was exceeded, a witness describing where."""

    axiom: str
    satisfied_at_tol: bool
    min_epsilon: float
    witness: dict | None
    instances_checked: int = 1

    def to_json(self) -> dict:
        eps = "inf" if math.isinf(self.min_epsilon) else self.min_epsilon
        return {
            "axiom": self.axiom,
            "min_epsilon": eps,
            "satisfied_at_tol": self.satisfied_at_tol,
            "witness": self.witness,
            "instances_checked": self.instances_checked,
        }


def ratio_excess(p: float, q: float) -> float:
    """max(p/q, q/p) - 1 with the global zero conventions."""
    if p == 0.0 and q == 0.0:
        return 0.0
    if p == 0.0 or q == 0.0:
        return math.inf
    return max(p / q, q / p) - 1.0


def _report(axiom, tol, eps, witness, instances=1) -> AxiomReport:
    ok = eps <= tol
    return AxiomReport(axiom, ok, eps, None if ok else witness, instances)


def _ratio_witness(menu_id, a: ActionId, b: ActionId, r: float) -> dict:
    return {
        "menu_id": menu_id,
        "pair": [action_str(a), action_str(b)],
        "ratio_excess": None if math.isinf(r) else r,
    }


def _worst_ratio(rows, menu_id) -> tuple[float, dict | None]:
    """The largest ratio_excess(p, q) over rows (a, b, p, q) and a
    witness naming the first pair (a, b) that reaches it."""
    eps, witness = 0.0, None
    for a, b, p, q in rows:
        r = ratio_excess(p, q)
        if r > eps:
            eps, witness = r, _ratio_witness(menu_id, a, b, r)
    return eps, witness


def neutrality_epsilon(
    rule: Rule,
    menu: Menu,
    tol: float = DEFAULT_TOL,
    outcome_tol: float | None = None,
    menu_id: str | None = None,
) -> AxiomReport:
    """Worst probability ratio among equal-outcome action pairs.

    Equal outcomes are those ``outcomes_equal`` accepts at outcome_tol
    (exact for prize streams).  Only pairs inside one of
    ``equal_outcome_blocks`` can be equal.  Every pair of an all-equal
    block is, and one sweep finds its worst; in any other block each pair
    is tested.  The witness is the first worst pair in entry order.
    min_epsilon 0 means the exact neutrality axiom holds on this menu.
    """
    p = rule.choose(menu).aligned(menu)
    outcomes = menu.outcomes
    eps, first = 0.0, None
    for idx, all_equal in equal_outcome_blocks(outcomes, outcome_tol):
        if all_equal:
            candidates = _first_worst_pair(idx, p)
        else:
            candidates = (
                (ratio_excess(p[i], p[j]), (i, j))
                for i, j in combinations(idx, 2)
                if outcomes_equal(outcomes[i], outcomes[j], outcome_tol)
            )
        for r, pair in candidates:
            if r > eps or (r == eps and first is not None and pair < first):
                eps, first = r, pair
    witness = None
    if first is not None:
        actions = menu.actions
        witness = _ratio_witness(menu_id, actions[first[0]], actions[first[1]], eps)
    return _report(NEUTRALITY, tol, eps, witness)


def _first_worst_pair(idx: list[int], p: list[float]) -> list[tuple[float, tuple[int, int]]]:
    """The largest nonzero ratio_excess over pairs i < j of the ascending
    indices idx, with the first pair in entry order that reaches it.
    Rounded division is monotone, so row i is worst against the smallest
    or the largest p after it, found by one backward sweep."""
    q = [p[i] for i in idx]
    lows = list(accumulate(reversed(q), min))[::-1]
    highs = list(accumulate(reversed(q), max))[::-1]
    rows = [
        max(ratio_excess(v, lo), ratio_excess(v, hi))
        for v, lo, hi in zip(q, lows[1:], highs[1:])
    ]
    best = max(rows, default=0.0)
    if best == 0.0:
        return []
    i = idx[rows.index(best)]
    j = next(j for j in idx if j > i and ratio_excess(p[i], p[j]) == best)
    return [(best, (i, j))]


def decomposability_epsilon(
    rule: Rule,
    m1: Menu,
    m2: Menu,
    tol: float = DEFAULT_TOL,
    menu_id: str | None = None,
) -> AxiomReport:
    """Worst multiplicative gap between the product-menu distribution and
    the independent product of the component distributions."""
    if m1.space != m2.space:
        raise SpaceMismatchError()
    if len(m1) * len(m2) > MENU_SIZE_GUARD:
        raise ValueError(f"product menu would exceed {MENU_SIZE_GUARD} actions")
    p1 = rule.choose(m1).aligned(m1)
    p2 = rule.choose(m2).aligned(m2)
    joint_menu = product(m1, m2)
    joint = rule.choose(joint_menu).aligned(joint_menu)
    # the product's entries pair the factors' in row-major order
    pairs = itertools.product(zip(m1.actions, p1), zip(m2.actions, p2))
    rows = ((a1, a2, pj, q1 * q2) for ((a1, q1), (a2, q2)), pj in zip(pairs, joint))
    return _report(DECOMPOSABILITY, tol, *_worst_ratio(rows, menu_id))


def positivity_check(
    rule: Rule, menu: Menu, menu_id: str | None = None
) -> AxiomReport:
    """Satisfied iff every action has strictly positive probability."""
    for a, p in zip(menu.actions, rule.choose(menu).aligned(menu)):
        if p <= 0.0:
            witness = {"menu_id": menu_id, "action": action_str(a)}
            return AxiomReport(POSITIVITY, False, math.inf, witness)
    return AxiomReport(POSITIVITY, True, 0.0, None)


def continuity_probe(rule: Rule, menu: Menu, menu_id: str | None = None) -> AxiomReport:
    """Finite continuity probe: move the first action's outcome by each
    of CONTINUITY_STEPS and watch the choice-probability gap.

    A probe can only falsify continuity: it flags a discontinuity when
    the gap fails to shrink (ratio > 0.5) while the steps shrink 10^4
    times.  min_epsilon is the gap at the smallest step.
    """
    if menu.space.kind not in CONTINUITY_KINDS:
        raise ValueError("continuity probe unsupported for this space")
    action = menu.actions[0]
    base = rule.choose(menu)

    def gap(step: float) -> float:
        entries = []
        for a, o in menu.entries:
            if a == action:
                if menu.space.kind == SCALAR:
                    o = Outcome(menu.space, o.value + step)
                else:
                    o = Outcome(menu.space, tuple(t + step for t in o.value))
            entries.append((a, o))
        moved = rule.choose(Menu(menu.space, tuple(entries)))
        return max(abs(moved[a] - base[a]) for a in menu.actions)

    gaps = [gap(s) for s in CONTINUITY_STEPS]
    eps = gaps[-1]
    if gaps[0] > 0.0:
        shrink = gaps[-1] / gaps[0]
    else:
        shrink = math.inf if gaps[-1] > 0.0 else 0.0
    flagged = shrink > 0.5
    witness = {
        "menu_id": menu_id,
        "action": action_str(action),
        "steps": list(CONTINUITY_STEPS),
        "gaps": gaps,
    }
    return AxiomReport(CONTINUITY, not flagged, eps, witness if flagged else None)


def strong_neutrality_bound(eps_neut: float, eps_decomp: float) -> float:
    """1 + eps_sneut <= (1 + eps_neut)(1 + eps_decomp)^2."""
    return (1.0 + eps_neut) * (1.0 + eps_decomp) ** 2 - 1.0


def strong_neutrality_epsilon(
    rule: Rule,
    m1: Menu,
    m2: Menu,
    tol: float = DEFAULT_TOL,
    eps_neut: float | None = None,
    eps_decomp: float | None = None,
    menu_id: str | None = None,
) -> AxiomReport:
    """Worst probability ratio across two equivalent menus, matched by a
    relabeling bijection.

    When epsilon estimates for the rule are supplied, the report also
    fails if the measured value exceeds the derived bound
    (1 + eps_neut)(1 + eps_decomp)^2 - 1.
    """
    bijection = equivalent(m1, m2)
    if bijection is None:
        raise ValueError("menus are not equivalent up to relabeling")
    d1 = rule.choose(m1)
    d2 = rule.choose(m2)
    rows = ((a, b, d1[a], d2[b]) for a, b in bijection.items())
    eps, worst = _worst_ratio(rows, menu_id)
    limit = tol
    if eps_neut is not None and eps_decomp is not None:
        bound = strong_neutrality_bound(eps_neut, eps_decomp)
        limit = max(tol, bound + tol)
        if worst is not None:
            worst["ratio_bound"] = bound
    return _report(STRONG_NEUTRALITY, limit, eps, worst)


def cross_menu_identity_gap(
    rule: Rule, menu: Menu, a: ActionId, a2: ActionId
) -> float:
    """Deviation from the identity p(a) * p0^n = p(a2) * p1^n with
    n = o(a) - o(a2), where (p0, p1) is the rule's distribution on the
    unit binary menu {b0: 0, b1: 1}.

    Outcomes must be integers and o(a) > o(a2).  The deviation is the
    absolute log ratio of the two products: for large n the raw products
    underflow to magnitudes where an absolute gap is vacuous.  Returns 0
    when both products vanish, +inf when exactly one does.
    """
    if menu.space.kind != SCALAR:
        raise SpaceMismatchError()
    oa = menu.outcome_of(a).value
    oa2 = menu.outcome_of(a2).value
    for v in (oa, oa2):
        if abs(v - round(v)) > 1e-9:
            raise ValueError("cross-menu identity requires integer outcomes")
    n = round(oa) - round(oa2)
    if n <= 0:
        raise ValueError("requires o(a) > o(a2)")
    return _identity_gap(rule, menu, a, a2, n, unit_binary_menu())


def _identity_gap(
    rule: Rule, menu: Menu, a: ActionId, a2: ActionId, n: int, probe: Menu
) -> float:
    """|ln p(a) + n ln p0 - ln p(a2) - n ln p1| with (p0, p1) the rule's
    distribution on the binary probe menu {b0, b1}."""
    binary = rule.choose(probe)
    p0, p1 = binary["b0"], binary["b1"]
    dist = rule.choose(menu)
    pa, pa2 = dist[a], dist[a2]
    lhs_zero = pa == 0.0 or p0 == 0.0
    rhs_zero = pa2 == 0.0 or p1 == 0.0
    if lhs_zero or rhs_zero:
        return 0.0 if (lhs_zero and rhs_zero) else math.inf
    gap = (math.log(pa) + n * math.log(p0)) - (math.log(pa2) + n * math.log(p1))
    return abs(gap)


def cross_menu_identity_epsilon(
    rule: Rule,
    menu: Menu,
    tol: float = DEFAULT_TOL,
    menu_id: str | None = None,
) -> AxiomReport:
    """The cross-menu identity gap between the menu's highest- and
    lowest-outcome actions.

    Each outcome must be rational: the float of its nearest fraction
    with denominator at most 10^6 must be the outcome itself.  With k
    the lcm of those denominators, the identity is checked on the menu
    as given against the probe {b0: 0, b1: 1/k}, with the integer
    n = k * (o(a) - o(a2)).  The witness records k.  A constant menu has
    no such pair and checks no instance.
    """
    if menu.space.kind != SCALAR:
        raise ValueError("identity check requires scalar menus")
    best = max(menu.entries, key=lambda e: e[1].value)
    worst = min(menu.entries, key=lambda e: e[1].value)
    if best[1].value == worst[1].value:
        return AxiomReport(CROSS_MENU_IDENTITY, True, 0.0, None, 0)
    fractions = {}
    k = 1
    for a, o in menu.entries:
        f = fractions[a] = Fraction(o.value).limit_denominator(10**6)
        if float(f) != o.value:
            raise ValueError("identity check requires integer or rational outcomes")
        k = k * f.denominator // math.gcd(k, f.denominator)
        if k > 10**9:
            raise ValueError("outcome denominators too heterogeneous to clear")
    n = int((fractions[best[0]] - fractions[worst[0]]) * k)
    probe = scalar_menu({"b0": 0.0, "b1": 1.0 / k})
    gap = _identity_gap(rule, menu, best[0], worst[0], n, probe)
    witness = {
        "menu_id": menu_id,
        "pair": [action_str(best[0]), action_str(worst[0])],
        "k": k,
        "log_gap": None if math.isinf(gap) else gap,
    }
    return _report(CROSS_MENU_IDENTITY, tol, gap, witness)


def power_diagonal_log(rule: Rule, menu: Menu, n: int) -> dict[ActionId, float]:
    """ln P[a^n] on power(menu, n) for each base action a, -inf where
    the probability is zero.

    A rule that defines ``log_diagonal`` supplies these from the
    multiset of outcomes, so the size guard counts its outcome groups,
    C(n + k - 1, n) for a k-action menu, and no power menu is built.
    Otherwise the guard counts the k^n actions before power(menu, n) is
    built and chosen from.
    """
    if n < 1:
        raise ValueError("menu power requires n >= 1")
    log_diagonal = getattr(rule, "log_diagonal", None)
    if log_diagonal is not None:
        size, unit = math.comb(n + len(menu) - 1, n), "outcome groups"
    else:
        size, unit = len(menu) ** n, "actions"
    if size > MENU_SIZE_GUARD:
        raise ValueError(f"power menu would exceed {MENU_SIZE_GUARD} {unit}")
    if log_diagonal is not None:
        return log_diagonal(menu, n)
    dist = rule.choose(power(menu, n))
    probs = {a: dist[diagonal_action(a, n)] for a in menu.actions}
    return {a: math.log(p) if p > 0.0 else -math.inf for a, p in probs.items()}


def power_diagonal_neutrality_epsilon(
    rule: Rule, menu: Menu, a: ActionId, a2: ActionId, n: int
) -> float:
    """Per-coordinate neutrality epsilon implied by the n-fold power:
    the diagonal probability ratio to the power 1/n, minus 1, with
    ratio_excess's conventions for zero probabilities.

    For a decomposable rule whose power menus stay approximately
    neutral with parameter eps, this is at most (1+eps)^(1/n) - 1.
    """
    logs = power_diagonal_log(rule, menu, n)
    la, lb = logs[a], logs[a2]
    if la == lb == -math.inf:
        return 0.0
    if -math.inf in (la, lb):
        return math.inf
    return math.expm1(abs(la - lb) / n)


def effective_neutrality_epsilon(eps_neut: float, eps_decomp: float) -> float:
    """Reduced neutrality parameter min{eps_neut, 2 eps_d + eps_d^2}
    available to any approximately decomposable rule."""
    if eps_neut < 0 or eps_decomp < 0:
        raise ValueError("epsilons must be nonnegative")
    return min(eps_neut, 2.0 * eps_decomp + eps_decomp**2)


def merge_reports(reports: list[AxiomReport]) -> AxiomReport:
    """Corpus aggregation: epsilons merge by maximum (the axioms
    quantify over all menus), witnesses by lexicographic order."""
    if not reports:
        raise ValueError("no reports to merge")
    axiom = reports[0].axiom
    if any(r.axiom != axiom for r in reports):
        raise ValueError("cannot merge reports for different axioms")
    eps = max(r.min_epsilon for r in reports)
    ok = all(r.satisfied_at_tol for r in reports)
    witness = None
    if not ok:
        candidates = [r.witness for r in reports if r.witness is not None]
        witness = min(candidates, key=lambda w: sorted(map(str, w.items())))
    return AxiomReport(
        axiom, ok, eps, witness, sum(r.instances_checked for r in reports)
    )
