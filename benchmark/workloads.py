"""The benchmark's three workloads.

Each workload makes its inputs from the seed, writes them as the CLI's
rule, menu and corpus-spec files, names the commands one round runs,
and checks each command's output against ``oracle`` or against a
property the paper's constructions must have.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    """One CLI invocation: the end-to-end metric its time adds to, its
    arguments, the exit code a correct run returns, and its check."""

    metric: str
    argv: list
    expect_rc: int
    verify: Callable[[str], None]
    artifact: Path | None = None


SCALAR = {"kind": "real_scalar"}
LOTTERY = {"kind": "discrete_distribution", "moment_order": 3}


def write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data), encoding="utf-8")


def power_entries(base, n):
    """Left-associated n-fold power of [(id, value)] with ids serialized
    as the CLI's menu files spell pairs: "(left,right)"."""
    entries = base
    for _ in range(n - 1):
        entries = [(f"({a},{b})", va + vb) for a, va in entries for b, vb in base]
    return entries


def scalar_menu(entries) -> dict:
    return {"space": SCALAR, "actions": [{"id": a, "outcome": v} for a, v in entries]}


def reports_of(stdout: str) -> dict:
    return {r["axiom"]: r for r in json.loads(stdout)["reports"]}


def expand_corpus(spec: dict):
    """The corpus the CLI builds from ``spec``, as (menu id, action ids,
    outcome payloads).  The program's own generator expands the spec, so
    the checks see the very inputs the commands saw."""
    corpus = sys.modules["stochoice.corpus"]
    menus = corpus.generate_corpus(corpus.CorpusSpec.from_json(spec))
    return [
        (f"menu_{i + 1:04d}", [a for a, _ in m.entries], [o.value for _, o in m.entries])
        for i, m in enumerate(menus)
    ]


def check_upsilon_log_odds(stdout: str, menus: dict, delta: float) -> None:
    """For a perturbed logit, the diagonal action of a^n has utility
    n u(a) plus one shock in [-delta, delta], so the estimate's log-odds
    between two base actions is u(a) - u(b) within 2 delta / n."""
    rows = json.loads(stdout)
    require(len(rows) == 1, "upsilon: one row per menu file")
    row = rows[0]
    n, utility = menus[row["menu_id"]]
    require(row["n_used"] == n, f"upsilon: n_used {row['n_used']} != {n}")
    dist = row["distribution"]
    require(set(dist) == set(utility), "upsilon: wrong actions")
    require(abs(math.fsum(dist.values()) - 1.0) <= 1e-12, "upsilon: not normalized")
    ids = sorted(utility)
    for a in ids[1:]:
        log_odds = math.log(dist[a] / dist[ids[0]])
        gap = abs(log_odds - (utility[a] - utility[ids[0]]))
        require(gap <= 2.0 * delta / n + 1e-9, f"upsilon: log-odds {a} off by {gap:.3g}")


def certificate_log_probs(cert: dict, coeffs, menus, features) -> dict:
    """log softmax(u + s) per menu, rebuilt from the certificate's shocks
    with the benchmark's own features; also checks |s| <= delta."""
    delta = cert["delta"]
    shocks = {m["menu_id"]: m["shocks"] for m in cert["menus"]}
    require(cert["corpus_size"] == len(menus), "certify: corpus size")
    require(set(shocks) == {mid for mid, _, _ in menus}, "certify: menu ids")
    out = {}
    for mid, ids, outcomes in menus:
        require(set(shocks[mid]) == set(ids), f"certify: actions of {mid}")
        s = np.array([shocks[mid][a] for a in ids])
        require(bool(np.all(np.abs(s) <= delta + 1e-12)), f"certify: |s| > delta in {mid}")
        out[mid] = oracle.log_softmax(features(outcomes) @ coeffs + s)
    return out


def check_logit_envelope(rebuilt: dict, menus, features, true_coeffs, delta) -> None:
    """A logit perturbed by shocks in [-delta, delta] stays within
    e^(+-2 delta) of the plain logit, menu by menu."""
    for mid, _, outcomes in menus:
        plain = oracle.log_softmax(features(outcomes) @ true_coeffs)
        gap = float(np.max(np.abs(rebuilt[mid] - plain)))
        require(gap <= 2.0 * delta + 1e-9, f"certify: {mid} leaves the e^2delta envelope ({gap:.3g})")


def scalar_features(outcomes) -> np.ndarray:
    return np.asarray(outcomes, dtype=float)[:, None]


def lottery_features(outcomes) -> np.ndarray:
    return np.array([oracle.cumulants3([p for p, _ in o], [w for _, w in o]) for o in outcomes])


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.dir = workdir

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def write_inputs(self) -> None:
        """Make the inputs from the seed and write them; timed as set-up."""
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError


class PowerMenus(Workload):
    """Scalar power menus of 729 to 19683 actions under a perturbed logit:
    per-action Python work in menus, rules, axioms and extract."""

    name = "power_menus"
    BETA = 1.5
    DELTA = 0.05
    UNIT_N = 14  # 16384 actions
    TRI_N = 9  # 19683 actions
    # (base actions, power) of the menu files
    CERTIFY = ((2, 11), (3, 7))
    CHECK = ((2, 10), (3, 6))

    def write_inputs(self) -> None:
        rng = random.Random(self.seed)
        rule = {
            "type": "perturbed",
            "base": {"type": "mnl", "beta": self.BETA},
            "delta": self.DELTA,
            "seed": rng.randrange(2**31),
        }
        write_json(self.dir / "rule.json", rule)
        unit = [("b0", 0.0), ("b1", 1.0)]
        tri = [("c0", 0.0), ("c1", rng.uniform(-1, 1)), ("c2", rng.uniform(-1, 1))]
        self.upsilon_menus = {}
        for fname, base, n in (("unit.json", unit, self.UNIT_N), ("tri.json", tri, self.TRI_N)):
            write_json(self.dir / fname, scalar_menu(base))
            self.upsilon_menus[fname] = (n, {a: self.BETA * v for a, v in base})
        self.certify_menus = self._power_files(rng, "certify", self.CERTIFY)
        self.check_menus = self._power_files(rng, "check", self.CHECK)

    def _power_files(self, rng, sub, shapes):
        menus = []
        for i, (k, n) in enumerate(shapes):
            base = [(f"x{j}", rng.uniform(-1, 1)) for j in range(k)]
            entries = power_entries(base, n)
            fname = f"menu_{i + 1}.json"
            write_json(self.dir / sub / fname, scalar_menu(entries))
            menus.append((fname, [a for a, _ in entries], [v for _, v in entries]))
        return menus

    def ops(self) -> list:
        rule = self.path("rule.json")
        cert = self.dir / "certificate.json"
        upsilon = [
            Op(
                "upsilon_s",
                ["upsilon", "--rule", rule, "--menus", self.path(f), "--n-max", str(n), "--json"],
                0,
                self.verify_upsilon,
            )
            for f, (n, _) in self.upsilon_menus.items()
        ]
        return [
            Op(
                "check_s",
                ["check", "--rule", rule, "--menus", self.path("check/*.json"),
                 "--axioms", "neutrality,positivity", "--json"],
                1,
                self.verify_check,
            ),
            Op(
                "certify_s",
                ["certify", "--rule", rule, "--menus", self.path("certify/*.json"),
                 "--utility", "auto", "--out", str(cert)],
                0,
                self.verify_certify,
                cert,
            ),
            *upsilon,
        ]

    def verify_check(self, stdout: str) -> None:
        reports = reports_of(stdout)
        require(set(reports) == {"neutrality", "positivity"}, "check: axioms reported")
        neutral = reports["neutrality"]
        eps = neutral["min_epsilon"]
        require(neutral["instances_checked"] == len(self.check_menus), "check: menus counted")
        require(0.0 < eps <= math.expm1(2 * self.DELTA) + 1e-12, f"check: neutrality epsilon {eps}")
        outcome = {
            (mid, a): v for mid, ids, vals in self.check_menus for a, v in zip(ids, vals)
        }
        for w in neutral["witnesses"]:
            a, b = w["pair"]
            gap = abs(outcome[w["menu_id"], a] - outcome[w["menu_id"], b])
            require(gap <= 1e-9, "check: neutrality witness pairs unequal outcomes")
        positive = reports["positivity"]
        require(positive["satisfied_at_tol"] and positive["min_epsilon"] == 0.0, "check: positivity")

    def verify_certify(self, stdout: str) -> None:
        require(stdout.startswith("delta = "), "certify: summary line")
        cert = json.loads((self.dir / "certificate.json").read_text(encoding="utf-8"))
        require(cert["delta"] <= self.DELTA + 1e-12, f"certify: delta {cert['delta']} > {self.DELTA}")
        coeffs = np.array([cert["utility"]["beta"]])
        rebuilt = certificate_log_probs(cert, coeffs, self.certify_menus, scalar_features)
        check_logit_envelope(
            rebuilt, self.certify_menus, scalar_features, np.array([self.BETA]), self.DELTA
        )

    def verify_upsilon(self, stdout: str) -> None:
        check_upsilon_log_odds(stdout, self.upsilon_menus, self.DELTA)


class LotteryCorpus(Workload):
    """1500 tiny menus of finite lotteries under a perturbed cumulant
    logit: the cost per menu and the spaces layer."""

    name = "lottery_corpus"
    GAMMAS = (1.0, -0.5, 0.2)
    DELTA = 0.05
    MENUS = 1500
    PAIRS = 200
    UPSILON_N = 8  # 6561 actions
    # one shared support keeps the n-fold convolutions small and the same
    # size on every seed
    GRID = (0.0, 0.5, 1.0)

    def write_inputs(self) -> None:
        rng = random.Random(self.seed)
        utility = {"space": LOTTERY, "gammas": list(self.GAMMAS)}
        rule = {
            "type": "perturbed",
            "base": {"type": "general_mnl", "utility": utility},
            "delta": self.DELTA,
            "seed": rng.randrange(2**31),
        }
        write_json(self.dir / "rule.json", rule)
        self.spec = {
            "space": LOTTERY,
            "menu_count": self.MENUS,
            "actions_per_menu": [2, 6],
            "outcome_sampler": {"low": -1, "high": 1, "support_size": [1, 4], "duplicate_prob": 0.25},
            "seed": rng.randrange(2**31),
        }
        write_json(self.dir / "corpus.json", self.spec)
        self.pair_seed = rng.randrange(2**31)
        lotteries = []
        for i in range(3):
            weights = [rng.uniform(0.2, 1.0) for _ in self.GRID]
            total = sum(weights)
            lotteries.append((f"l{i}", list(self.GRID), [w / total for w in weights]))
        menu = {
            "space": LOTTERY,
            "actions": [
                {"id": a, "outcome": {"support": s, "probs": p}} for a, s, p in lotteries
            ],
        }
        write_json(self.dir / "lotteries.json", menu)
        gammas = np.array(self.GAMMAS)
        self.upsilon_menus = {
            "lotteries.json": (
                self.UPSILON_N,
                {a: float(oracle.cumulants3(s, p) @ gammas) for a, s, p in lotteries},
            )
        }
        self.corpus = expand_corpus(self.spec)

    def ops(self) -> list:
        rule = self.path("rule.json")
        corpus = self.path("corpus.json")
        cert = self.dir / "certificate.json"
        return [
            Op(
                "check_s",
                ["check", "--rule", rule, "--corpus", corpus,
                 "--axioms", "neutrality,positivity,decomposability",
                 "--pairs", str(self.PAIRS), "--seed", str(self.pair_seed), "--json"],
                1,
                self.verify_check,
            ),
            Op(
                "certify_s",
                ["certify", "--rule", rule, "--corpus", corpus, "--utility", "auto",
                 "--out", str(cert)],
                0,
                self.verify_certify,
                cert,
            ),
            Op(
                "upsilon_s",
                ["upsilon", "--rule", rule, "--menus", self.path("lotteries.json"),
                 "--n-max", str(self.UPSILON_N), "--json"],
                0,
                self.verify_upsilon,
            ),
        ]

    def verify_check(self, stdout: str) -> None:
        reports = reports_of(stdout)
        require(
            set(reports) == {"neutrality", "positivity", "decomposability"},
            "check: axioms reported",
        )
        neutral, decomp = reports["neutrality"], reports["decomposability"]
        require(neutral["instances_checked"] == self.MENUS, "check: menus counted")
        require(decomp["instances_checked"] == self.PAIRS, "check: pairs counted")
        eps = neutral["min_epsilon"]
        require(0.0 < eps <= math.expm1(2 * self.DELTA) + 1e-12, f"check: neutrality epsilon {eps}")
        # product and factors each carry shocks in [-delta, delta]
        eps = decomp["min_epsilon"]
        require(0.0 < eps <= math.expm1(6 * self.DELTA) + 1e-12, f"check: decomposability epsilon {eps}")
        positive = reports["positivity"]
        require(positive["satisfied_at_tol"] and positive["min_epsilon"] == 0.0, "check: positivity")

    def verify_certify(self, stdout: str) -> None:
        require(stdout.startswith("delta = "), "certify: summary line")
        cert = json.loads((self.dir / "certificate.json").read_text(encoding="utf-8"))
        coeffs = np.array(cert["utility"]["gammas"])
        rebuilt = certificate_log_probs(cert, coeffs, self.corpus, lottery_features)
        check_logit_envelope(
            rebuilt, self.corpus, lottery_features, np.array(self.GAMMAS), self.DELTA
        )
        # ln p up to a constant per menu, fitted by the best cumulant logit
        best = oracle.chebyshev_fit(
            [(lottery_features(o), rebuilt[mid]) for mid, _, o in self.corpus]
        )
        require(best <= self.DELTA + 1e-6, f"certify: Chebyshev optimum {best} > delta")
        require(cert["delta"] >= best - 1e-6, f"certify: delta {cert['delta']} below optimum {best}")

    def verify_upsilon(self, stdout: str) -> None:
        check_upsilon_log_odds(stdout, self.upsilon_menus, self.DELTA)


class ProbitQuadrature(Workload):
    """Scalar menus under IARU with N(0, 1) shocks: every probability is
    an adaptive Simpson integral."""

    name = "probit_quadrature"
    MENUS = 60
    PAIRS = 40
    UPSILON_NS = (12, 13, 14, 15)  # n = 15 raises QuadratureError today
    PROB_TOL = 1e-8

    def write_inputs(self) -> None:
        rng = random.Random(self.seed)
        write_json(self.dir / "rule.json", {"type": "iaru", "shock": {"kind": "gaussian", "param": 1.0}})
        self.spec = {
            "space": SCALAR,
            "menu_count": self.MENUS,
            # binary menus: IARU's cost grows with the square of the menu
            # size, so mixed sizes would make the work depend on the seed;
            # every menu also gets the closed-form check
            "actions_per_menu": [2, 2],
            "outcome_sampler": {"low": -3, "high": 3, "duplicate_prob": 0.25},
            "seed": rng.randrange(2**31),
        }
        write_json(self.dir / "corpus.json", self.spec)
        self.pair_seed = rng.randrange(2**31)
        write_json(self.dir / "unit.json", scalar_menu([("b0", 0.0), ("b1", 1.0)]))
        self.corpus = expand_corpus(self.spec)

    def ops(self) -> list:
        rule = self.path("rule.json")
        corpus = self.path("corpus.json")
        cert = self.dir / "certificate.json"
        upsilon = [
            Op(
                "upsilon_s",
                ["upsilon", "--rule", rule, "--menus", self.path("unit.json"),
                 "--n-max", str(n), "--json"],
                0,
                lambda out, n=n: self.verify_upsilon(out, n),
            )
            for n in self.UPSILON_NS
        ]
        return [
            Op(
                "check_s",
                ["check", "--rule", rule, "--corpus", corpus, "--pairs", str(self.PAIRS),
                 "--seed", str(self.pair_seed), "--json"],
                1,
                self.verify_check,
            ),
            Op(
                "certify_s",
                ["certify", "--rule", rule, "--corpus", corpus, "--utility", "auto",
                 "--out", str(cert)],
                0,
                self.verify_certify,
                cert,
            ),
            *upsilon,
        ]

    def verify_check(self, stdout: str) -> None:
        reports = reports_of(stdout)
        require(
            set(reports) == {"neutrality", "positivity", "continuity", "decomposability"},
            "check: axioms reported",
        )
        neutral = reports["neutrality"]
        require(neutral["min_epsilon"] == 0.0 and neutral["satisfied_at_tol"], "check: probit is neutral")
        require(reports["positivity"]["satisfied_at_tol"], "check: positivity")
        require(reports["continuity"]["satisfied_at_tol"], "check: continuity")
        decomp = reports["decomposability"]
        require(decomp["instances_checked"] == self.PAIRS, "check: pairs counted")
        require(
            decomp["min_epsilon"] > 0.0 and not decomp["satisfied_at_tol"],
            "check: probit must violate decomposability",
        )

    def verify_certify(self, stdout: str) -> None:
        require(stdout.startswith("delta = "), "certify: summary line")
        cert = json.loads((self.dir / "certificate.json").read_text(encoding="utf-8"))
        coeffs = np.array([cert["utility"]["beta"]])
        rebuilt = certificate_log_probs(cert, coeffs, self.corpus, scalar_features)
        for mid, _, values in self.corpus:
            probs = np.exp(rebuilt[mid])
            gap = float(np.max(np.abs(probs - oracle.probit_probabilities(values))))
            require(gap <= self.PROB_TOL, f"certify: {mid} off quad by {gap:.3g}")
            if len(values) == 2:
                closed = oracle.binary_probit(values[0] - values[1])
                require(abs(probs[0] - closed) <= self.PROB_TOL, f"certify: {mid} off Phi")

    def verify_upsilon(self, stdout: str, n: int) -> None:
        """The estimate's ratio fixes p(b0^n) / p(b1^n); it must lie within
        what the quadrature contract allows around the quad reference."""
        rows = json.loads(stdout)
        require(len(rows) == 1 and rows[0]["n_used"] == n, f"upsilon n={n}: rows")
        dist = rows[0]["distribution"]
        log_top, log_bottom = oracle.probit_unit_diagonal_log(n)
        lo_top, hi_top = oracle.contract_interval(log_top)
        lo_bottom, hi_bottom = oracle.contract_interval(log_bottom)
        if dist["b0"] == 0.0:
            require(lo_bottom == -math.inf, f"upsilon n={n}: b0 vanished")
            return
        log_ratio = n * math.log(dist["b0"] / dist["b1"])
        require(log_ratio <= hi_bottom - lo_top + 1e-12, f"upsilon n={n}: b0 too large")
        require(log_ratio >= lo_bottom - hi_top - 1e-12, f"upsilon n={n}: b0 too small")


WORKLOADS = {w.name: w for w in (PowerMenus, LotteryCorpus, ProbitQuadrature)}
