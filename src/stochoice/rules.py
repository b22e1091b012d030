"""Evaluable stochastic choice rules.

The multinomial logit family (finite beta plus the argmax/argmin
limits), logit over a general additive utility, independent additive
random utility (IARU) rules evaluated by quadrature, the uniform rule,
and deterministically perturbed rules, the approximately decomposable
test subjects.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, log_ndtr

from .menus import ActionId, Menu, action_str, menu_hash
from .quadrature import QuadratureError, adaptive_simpson
from .spaces import SpaceMismatchError, Utility, json_int, sort_and_cut

# renormalization guard: a larger residual signals quadrature failure
NORMALIZATION_GUARD = 1e-8
ARGMAX_TIE_TOL = 1e-12
# relative tolerance of each diagonal integral in IARU.log_diagonal
DIAGONAL_RTOL = 1e-10
# IARU's absolute tolerance on its summed group masses
QUAD_TOL = 1e-10


class ChoiceDistribution:
    """Probabilities over a menu's actions; nonnegative, summing to 1.

    ``p`` is a list aligned with the menu's entries, and ``dist[a]``
    reads it at ``menu.index(a)``.  ``probs``, ``items()`` and
    ``to_json()`` build a mapping only when called.
    """

    __slots__ = ("menu", "p")

    def __init__(self, menu: Menu, p: list[float]) -> None:
        """The distribution with p[i] the probability of entry i."""
        if len(p) != len(menu):
            raise ValueError(f"{len(p)} probabilities for {len(menu)} actions")
        if any(not q >= 0 for q in p):
            raise ValueError("negative or NaN choice probability")
        total = math.fsum(p)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"choice probabilities sum to {total!r}, not 1")
        self.menu, self.p = menu, p

    @property
    def probs(self) -> dict[ActionId, float]:
        return dict(zip(self.menu.actions, self.p))

    def __getitem__(self, a: ActionId) -> float:
        return self.p[self.menu.index(a)]

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.probs == other.probs

    def __repr__(self) -> str:
        return f"ChoiceDistribution({self.probs!r})"

    def aligned(self, menu: Menu) -> list[float]:
        """The probabilities of the menu's actions in entry order: the list
        itself when this is a distribution on that menu."""
        if menu is self.menu:
            return self.p
        return [self[a] for a in menu.actions]

    def items(self):
        return self.probs.items()

    def to_json(self) -> dict:
        return dict(zip(self.menu.ids, self.p))


def _softmax(utilities: np.ndarray) -> np.ndarray:
    shifted = utilities - np.max(utilities)
    e = np.exp(shifted)
    return e / np.sum(e)


def _logit(menu: Menu, utilities, named) -> ChoiceDistribution:
    """Logit on ``utilities()``, computed without numpy's overflow
    warnings; a utility that is not finite is named by ``named()`` and
    its action."""
    with np.errstate(over="ignore", invalid="ignore"):
        us = utilities()
    if not np.isfinite(us).all():
        bad = menu.ids[np.flatnonzero(~np.isfinite(us))[0]]
        raise ValueError(f"utility {named()} is not finite at action {bad}")
    return ChoiceDistribution(menu, _softmax(us).tolist())


class Rule:
    """Base class; a rule maps menus to choice distributions."""

    def choose(self, menu: Menu) -> ChoiceDistribution:
        raise NotImplementedError


@dataclass(frozen=True)
class MNL(Rule):
    """Multinomial logit with parameter beta on scalar outcomes.

    Probabilities are proportional to exp(beta * outcome), computed with
    max subtraction.  beta = +/-inf yields the uniform distribution over
    the highest/lowest-outcome actions.
    """

    beta: float

    def __post_init__(self) -> None:
        if math.isnan(self.beta):
            raise ValueError("MNL beta must not be NaN")

    def choose(self, menu: Menu) -> ChoiceDistribution:
        vals = menu.values
        if math.isinf(self.beta):
            target = vals.max() if self.beta > 0 else vals.min()
            if all(float(v).is_integer() for v in vals):
                hit = vals == target
            else:
                hit = np.abs(vals - target) <= ARGMAX_TIE_TOL * max(1.0, abs(target))
            return ChoiceDistribution(menu, (hit / hit.sum()).tolist())
        return _logit(menu, lambda: self.beta * vals, lambda: {"beta": self.beta})


@dataclass(frozen=True)
class GeneralMNL(Rule):
    """Logit with respect to an additive utility on any outcome space."""

    utility: Utility

    def choose(self, menu: Menu) -> ChoiceDistribution:
        if menu.space != self.utility.space:
            raise SpaceMismatchError()
        coeffs = np.array(self.utility.coeffs)
        return _logit(menu, lambda: menu.phi @ coeffs, self.utility._named)


@dataclass(frozen=True)
class Uniform(Rule):
    def choose(self, menu: Menu) -> ChoiceDistribution:
        n = len(menu)
        return ChoiceDistribution(menu, [1.0 / n] * n)


@dataclass(frozen=True)
class GaussianShock:
    """Centered Gaussian shock with standard deviation sigma."""

    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"shock sigma must be finite and positive, got {self.sigma!r}")

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        z = x / self.sigma
        return -0.5 * z * z - math.log(self.sigma * math.sqrt(2.0 * math.pi))

    def log_cdf(self, x: np.ndarray) -> np.ndarray:
        return log_ndtr(x / self.sigma)

    def log_neg_log_cdf(self, x: np.ndarray) -> np.ndarray:
        """ln(-ln F(x)), which keeps its digits where F(x) rounds to 1."""
        z = x / self.sigma
        # past 37 sigma, -ln F(x) = F(-x) falls below the smallest normal
        # double, so its log is taken as ln F(-x) directly
        far = z > 37.0
        w = log_ndtr(np.where(far, -z, z))
        return np.where(far, w, np.log(-w))

    def window(self) -> tuple[float, float]:
        # Gaussian tail mass beyond 12 sigma is far below 1e-30
        return (-12.0 * self.sigma, 12.0 * self.sigma)


@dataclass(frozen=True)
class GumbelShock:
    """Gumbel shock with cdf F(x) = exp(-exp(-beta * x))."""

    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"shock beta must be finite and positive, got {self.beta!r}")

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        bx = self.beta * x
        return math.log(self.beta) - bx - np.exp(-bx)

    def log_cdf(self, x: np.ndarray) -> np.ndarray:
        return -np.exp(-self.beta * x)

    def log_neg_log_cdf(self, x: np.ndarray) -> np.ndarray:
        """ln(-ln F(x))."""
        return -self.beta * x

    def window(self) -> tuple[float, float]:
        # analytic 1e-30 quantiles: the right tail decays only like
        # exp(-beta x), so a fixed multiple of the scale would truncate
        # too much mass for the normalization guard
        tail = 1e-30
        lo = -math.log(math.log(1.0 / tail)) / self.beta
        hi = -math.log(tail) / self.beta
        return (lo, hi)


ShockSpec = GaussianShock | GumbelShock


@dataclass(frozen=True)
class IARU(Rule):
    """Independent additive random utility rule on scalar outcomes.

    P[a] = P[o(a) + eps_a = max_b o(b) + eps_b] with iid shocks.  With
    H(y) = prod_b cdf(y - o(b)) the cdf of the best utility, a wins with
    the integral of pdf(y - o(a)) * H(y) / cdf(y - o(a)) over y.  One
    adaptive G7-K15 run takes every outcome group's integral at once,
    with |K15 - G7| summed over the groups as each panel's error and a
    depth cap of 40, and the results are renormalized.
    ``log_diagonal`` gives the diagonal probabilities of a power menu in
    log space from its outcome groups.
    """

    shock: ShockSpec

    def choose(self, menu: Menu) -> ChoiceDistribution:
        vals = menu.values
        # equal-outcome actions share one row, which keeps IARU
        # exactly neutral and makes large power menus tractable
        group_of = sort_and_cut(vals.tolist(), 1e-12 * max(1.0, float(np.abs(vals).max())))
        counts = np.bincount(group_of).astype(float)
        reps = np.full(len(counts), np.inf)
        np.minimum.at(reps, group_of, vals)

        def masses(y: np.ndarray) -> np.ndarray:
            # row g is c_g f(y - o_g) H(y) / F(y - o_g), group g's share
            # of the density of H
            x = y - reps[:, None]
            log_cdf = self.shock.log_cdf(x)
            return counts[:, None] * np.exp(self.shock.log_pdf(x) - log_cdf + counts @ log_cdf)

        lo, hi = self.shock.window()
        top = reps.max()
        # the rows' errors together stay within QUAD_TOL, so their sum
        # meets the guard however many actions share an outcome
        group_mass = adaptive_simpson(masses, top + lo, top + hi, tol=QUAD_TOL)
        total = float(np.sum(group_mass))
        if abs(total - 1.0) > NORMALIZATION_GUARD:
            raise QuadratureError(
                f"IARU probabilities sum to {total!r} before renormalization"
            )
        group_p = group_mass / counts / total
        return ChoiceDistribution(menu, group_p[group_of].tolist())

    def log_diagonal(self, menu: Menu, n: int) -> dict[ActionId, float]:
        """ln P[a^n] on power(menu, n) for each base action a, without
        building the power menu.

        The actions of power(menu, n) fall into one group per composition
        c of n over the menu's actions: outcome c . o and multiplicity
        n! / prod c_i!.  Only the k diagonal integrals are taken, each
        to relative tolerance DIAGONAL_RTOL; nothing is renormalized.
        """
        vals = menu.values
        outcome, log_mult, owner = _compositions(vals, n)
        result = {}
        for i, a in enumerate(menu.actions):
            rest = owner != i
            result[a] = _log_integral(self.shock, n * vals[i] - outcome[rest], log_mult[rest])
        return result


def _compositions(vals: np.ndarray, n: int):
    """Outcome, log multiplicity and diagonal owner (the index i with
    c_i = n, else -1) of every composition c of n over len(vals) parts."""
    used = np.zeros(1, dtype=np.int64)
    outcome = np.zeros(1)
    log_mult = np.full(1, math.lgamma(n + 1))
    owner = np.full(1, -1)
    for i, v in enumerate(vals):
        if i < len(vals) - 1:
            # each partial composition branches into c_i = 0 .. n - used
            reps = n - used + 1
            parent = np.repeat(np.arange(len(used)), reps)
            c = np.arange(len(parent)) - np.repeat(np.cumsum(reps) - reps, reps)
        else:
            parent = np.arange(len(used))
            c = n - used
        used = used[parent] + c
        outcome = outcome[parent] + c * v
        log_mult = log_mult[parent] - gammaln(c + 1)
        owner = np.where(c == n, i, owner[parent])
    return outcome, log_mult, owner


# the peak search stops once g varies by at most _FLAT over its bracket
_FLAT = 1e-4
# the window ends where g has fallen _TAIL below its peak; for concave g
# the mass beyond is then below exp(-_TAIL) relative
_TAIL = 40.0
# terms whose sum stays below _DROP on the whole window are left out
_DROP = 1e-15
# log-integrand terms evaluated per block, which bounds working memory
_BLOCK = 1 << 20


def _log_integrand(shock: ShockSpec, shifts: np.ndarray, log_mult: np.ndarray):
    """g(x) = ln f(x) - sum_h exp(log_mult_h) (-ln F(x + shifts_h)),
    concave because f and F are log-concave."""

    def g(x: np.ndarray) -> np.ndarray:
        acc = shock.log_pdf(x)
        step = max(1, _BLOCK // x.size)
        for s in range(0, len(shifts), step):
            t = log_mult[s : s + step] + shock.log_neg_log_cdf(x[:, None] + shifts[s : s + step])
            acc = acc - np.exp(t).sum(axis=1)
        return acc

    return g


def _peak(g, x0: float) -> tuple[float, float, float]:
    """Bracketing solve for the peak of a concave g: a grid of geometric
    offsets on both sides of x0 brackets it at any scale, then grids of
    33 points shrink the bracket until g varies by at most _FLAT over it.
    Returns the peak, g there and the final bracket's width."""
    offsets = 2.0 ** np.arange(-30, 61)
    xs = np.concatenate([x0 - offsets[::-1], [x0], x0 + offsets])
    gs = g(xs)
    i = int(np.argmax(gs))
    if not np.isfinite(gs[i]) or i in (0, len(xs) - 1):
        raise QuadratureError("diagonal log-integrand has no interior peak")
    while True:
        left, right = max(i - 1, 0), min(i + 1, len(xs) - 1)
        width = xs[right] - xs[left]
        if gs[i] - min(gs[left], gs[right]) <= _FLAT or width <= 1e-15 * max(1.0, abs(xs[i])):
            return float(xs[i]), float(gs[i]), float(width)
        xs = np.linspace(xs[left], xs[right], 33)
        gs = g(xs)
        i = int(np.argmax(gs))


def _log_integral(shock: ShockSpec, shifts: np.ndarray, log_mult: np.ndarray) -> float:
    """ln of the integral of exp(g) for g from _log_integrand.

    The curvature at the peak sets the window, and exp(g - g_max) is
    integrated by adaptive G7-K15 to relative tolerance DIAGONAL_RTOL,
    taken against the Gaussian of the peak's curvature."""
    g = _log_integrand(shock, shifts, log_mult)
    # start where the own outcome ties the best competitor
    x0 = -float(shifts.min()) if len(shifts) else 0.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        peak, g_max, h = _peak(g, x0)
        h *= 4.0
        curvature = (2.0 * g_max - g(np.array([peak - h, peak + h])).sum()) / (h * h)
        if not (curvature > 0.0 and math.isfinite(curvature)):
            raise QuadratureError("diagonal log-integrand has no curvature at its peak")
        scale = 1.0 / math.sqrt(curvature)
        reach = np.array([8.0 * scale, 8.0 * scale])
        for _ in range(200):
            short = g(peak + np.array([-1.0, 1.0]) * reach) > g_max - _TAIL
            if not short.any():
                break
            reach[short] *= 2.0
        else:
            raise QuadratureError("diagonal log-integrand has no finite window")
        lo, hi = peak - reach[0], peak + reach[1]
        # each term falls as x grows, so its value at lo bounds it on the
        # window; the smallest terms, summing to at most _DROP, are dropped
        at_lo = np.exp(log_mult + shock.log_neg_log_cdf(lo + shifts))
        order = np.argsort(at_lo)
        keep = order[np.cumsum(at_lo[order]) > _DROP]
        shifts, log_mult = shifts[keep], log_mult[keep]
        # rounding in g is about eps times the magnitudes summed into it;
        # no tolerance below that noise can be met, so it sets a floor
        log_terms = shock.log_neg_log_cdf(peak + shifts)
        magnitude = abs(float(shock.log_pdf(np.array([peak]))[0])) + float(
            np.exp(log_mult + log_terms) @ (np.abs(log_mult) + np.abs(log_terms) + 1.0)
        )
        tol = max(DIAGONAL_RTOL * math.sqrt(2.0 * math.pi) * scale,
                  4.0 * np.finfo(float).eps * magnitude * (hi - lo))
        g = _log_integrand(shock, shifts, log_mult)
        value = adaptive_simpson(lambda x: np.exp(g(x) - g_max), lo, hi, tol=tol)
    return g_max + math.log(value)


def probit(sigma: float = 1.0) -> IARU:
    return IARU(GaussianShock(sigma))


_M64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return (z ^ (z >> 31)) & _M64


def _action_hash(s: str) -> int:
    digest = hashlib.blake2b(s.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class Perturbed(Rule):
    """The base rule with a deterministic per-(menu, action) utility
    shock s(a) in [-delta, delta] applied inside the softmax.

    Shocks are a pure function of (seed, canonical menu hash, action id),
    so perturbed rules are reproducible approximately-decomposable test
    subjects without stored state.
    """

    base: Rule
    delta: float
    seed: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ValueError(f"delta must be finite and >= 0, got {self.delta!r}")

    def shock(self, menu: Menu, a: ActionId) -> float:
        return self._shocks(menu, (action_str(a),))[0]

    def _shocks(self, menu: Menu, ids: tuple[str, ...]) -> list[float]:
        """The shocks of the actions with these id strings in the menu:
        one splitmix64 of the seed and menu hash for the menu, then one
        blake2b of the id and one splitmix64 per action."""
        key = _splitmix64((self.seed & _M64) ^ menu_hash(menu))
        delta = self.delta
        return [delta * (2.0 * (_splitmix64(key ^ _action_hash(s)) / 2.0**64) - 1.0) for s in ids]

    def choose(self, menu: Menu) -> ChoiceDistribution:
        base = self.base.choose(menu).aligned(menu)
        shocks = self._shocks(menu, menu.ids)
        try:
            weighted = [p * math.exp(s) if p > 0 else 0.0 for p, s in zip(base, shocks)]
            total = math.fsum(weighted)
        except OverflowError:
            total = 0.0
        if total == 0.0:
            # every weight overflows or underflows: shift the shocks by the
            # largest one that carries weight
            top = max(s for p, s in zip(base, shocks) if p > 0)
            weighted = [p * math.exp(s - top) if p > 0 else 0.0 for p, s in zip(base, shocks)]
            total = math.fsum(weighted)
        return ChoiceDistribution(menu, [w / total for w in weighted])


def rule_to_json(rule: Rule) -> dict:
    if isinstance(rule, MNL):
        beta = rule.beta
        if math.isinf(beta):
            return {"type": "mnl", "beta": "+inf" if beta > 0 else "-inf"}
        return {"type": "mnl", "beta": beta}
    if isinstance(rule, GeneralMNL):
        return {"type": "general_mnl", "utility": rule.utility.to_json()}
    if isinstance(rule, IARU):
        if isinstance(rule.shock, GaussianShock):
            shock = {"kind": "gaussian", "param": rule.shock.sigma}
        else:
            shock = {"kind": "gumbel", "param": rule.shock.beta}
        return {"type": "iaru", "shock": shock}
    if isinstance(rule, Uniform):
        return {"type": "uniform"}
    if isinstance(rule, Perturbed):
        return {
            "type": "perturbed",
            "base": rule_to_json(rule.base),
            "delta": rule.delta,
            "seed": rule.seed,
        }
    raise ValueError(f"rule has no JSON encoding: {type(rule).__name__}")


def rule_from_json(data: dict) -> Rule:
    kind = data["type"]
    if kind == "mnl":
        beta = data["beta"]
        if beta == "+inf":
            return MNL(math.inf)
        if beta == "-inf":
            return MNL(-math.inf)
        return MNL(float(beta))
    if kind == "general_mnl":
        return GeneralMNL(Utility.from_json(data["utility"]))
    if kind == "iaru":
        shock = data["shock"]
        if shock["kind"] == "gaussian":
            return IARU(GaussianShock(float(shock["param"])))
        if shock["kind"] == "gumbel":
            return IARU(GumbelShock(float(shock["param"])))
        raise ValueError(f"unknown shock kind: {shock['kind']!r}")
    if kind == "uniform":
        return Uniform()
    if kind == "perturbed":
        seed = json_int(data["seed"], "seed")
        return Perturbed(rule_from_json(data["base"]), float(data["delta"]), seed)
    raise ValueError(f"unknown rule type: {kind!r}")
