"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Tolerances are pinned here and nowhere else."""

import json
import math
import random
import time

import numpy as np

from stochoice import (
    MNL,
    CorpusSpec,
    GeneralMNL,
    Outcome,
    Perturbed,
    Space,
    Tabular,
    Utility,
    certify_closeness,
    compose,
    cumulants,
    diagonal_action,
    extract_beta,
    fit_beta_min_delta,
    fit_utility_representation,
    generate_corpus,
    power,
    probit,
    product,
    sample_pairs,
    scalar_menu,
    ulam_bound,
    unit_binary_menu,
    upsilon,
)
from stochoice.axioms import (
    continuity_probe,
    cross_menu_identity_gap,
    decomposability_epsilon,
    neutrality_epsilon,
    positivity_check,
    power_diagonal_neutrality_epsilon,
)
from stochoice.cli import main

from conftest import iaru_equals_mnl_probe

UNIT = unit_binary_menu()


def report(num: int, label: str, ok: bool) -> bool:
    print(f"criterion {num:>2}: {label:<60} {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_01_probit_counterexample(capsys):
    start = time.perf_counter()
    code = main(["demo-probit", "--json"])
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    ok = (
        code == 0
        and abs(payload["binary_top"] - 0.760) <= 0.002
        and abs(payload["square_diagonal"] - 0.617) <= 0.002
        and abs(payload["violation_margin"] - 0.039) <= 0.004
        and elapsed < 1.0
    )
    with capsys.disabled():
        assert report(1, f"probit counterexample ({elapsed:.2f}s)", ok)


def test_criterion_02_mnl_satisfies_axioms(capsys):
    spec = CorpusSpec(
        Space.scalar(),
        200,
        actions_min=2,
        actions_max=5,
        sampler={"low": -3.0, "high": 3.0, "duplicate_prob": 0.4},
        seed=2024,
    )
    menus = generate_corpus(spec)
    pairs = sample_pairs(menus, 500, seed=2024)
    start = time.perf_counter()
    worst = 0.0
    probes_ok = True
    for beta in (-3.0, -1.0, 0.0, 0.5, 2.0):
        rule = MNL(beta)
        for m in menus:
            worst = max(worst, neutrality_epsilon(rule, m).min_epsilon)
            if not positivity_check(rule, m).satisfied_at_tol:
                probes_ok = False
            if not continuity_probe(rule, m).satisfied_at_tol:
                probes_ok = False
        for m1, m2 in pairs:
            worst = max(worst, decomposability_epsilon(rule, m1, m2).min_epsilon)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and probes_ok and elapsed < 10.0
    with capsys.disabled():
        assert report(
            2, f"MNL axioms (eps={worst:.1e}, {elapsed:.1f}s)", ok
        )


def test_criterion_03_gumbel_mnl_equivalence(capsys):
    spec = CorpusSpec(
        Space.scalar(),
        50,
        actions_min=2,
        actions_max=6,
        sampler={"low": -2.0, "high": 2.0},
        seed=99,
    )
    menus = generate_corpus(spec)
    devs = []
    ok = True
    for beta in (0.5, 1.0, 2.0):
        passed, dev = iaru_equals_mnl_probe(beta, menus, tol=1e-6)
        devs.append(dev)
        ok = ok and passed
    with capsys.disabled():
        assert report(3, f"Gumbel-MNL equivalence (max dev={max(devs):.1e})", ok)


def test_criterion_04_cross_menu_identity(capsys):
    worked = scalar_menu({"a1": -17.0, "a2": -17.0, "a3": 42.0})
    mnl_holds = cross_menu_identity_gap(MNL(1.0), worked, "a3", "a2") <= 1e-9
    gap = cross_menu_identity_gap(probit(), scalar_menu({"a": 0.0, "b": 2.0}), "b", "a")
    ok = mnl_holds and gap > 1e-3
    with capsys.disabled():
        assert report(4, f"cross-menu identity (probit gap={gap:.3f})", ok)


def test_criterion_05_extraction_round_trips(capsys):
    betas_ok = all(
        abs(extract_beta(MNL(b)) - b) <= 1e-10
        for b in (-10.0, -3.0, -1.0, 0.0, 0.5, 2.0, 10.0)
    )
    spaces = [
        Space.scalar(),
        Space.vector(5),
        Space.mean_stddev(),
        Space.distribution(4),
        Space.prizes(("p1", "p2", "p3", "p4", "p5", "p6")),
        Space.matrix(3),
    ]
    worst = 0.0
    rng = random.Random(505)
    for space in spaces:
        sizes = {
            "real_scalar": 1,
            "real_vector": space.d,
            "mean_stddev": 2,
            "discrete_distribution": space.moment_order,
            "prize_stream": len(space.alphabet),
            "matrix": 1,
        }
        for _ in range(3):
            coeffs = tuple(rng.uniform(-2, 2) for _ in range(sizes[space.kind]))
            u = Utility(space, coeffs)
            fit = fit_utility_representation(GeneralMNL(u), space)
            worst = max(
                worst,
                max(abs(a - b) for a, b in zip(fit.utility.coeffs, coeffs)),
            )
    ok = betas_ok and worst <= 1e-8
    with capsys.disabled():
        assert report(5, f"extraction round trips (worst={worst:.1e})", ok)


def test_criterion_06_upsilon_construction(capsys):
    menus = [UNIT, scalar_menu({"a": 0.0, "b": 1.0, "c": -0.5})]
    worst_mnl = 0.0
    for beta in (-1.0, 0.5, 2.0):
        for menu in menus:
            est = upsilon(MNL(beta), menu, 8)
            base = MNL(beta).choose(menu)
            worst_mnl = max(
                worst_mnl,
                max(abs(est.distribution[a] - base[a]) for a in menu.actions),
            )
    n_max = 8
    perturbed_ok = True
    for delta, seed in ((0.01, 1), (0.05, 3), (0.2, 5)):
        rule = Perturbed(MNL(1.0), delta, seed)
        fekete_pairs = [
            (power(UNIT, k), power(UNIT, n_max - k)) for k in range(1, n_max)
        ] + [(UNIT, UNIT)]
        eps_d = max(
            decomposability_epsilon(rule, m1, m2).min_epsilon
            for m1, m2 in fekete_pairs
        )
        est = upsilon(rule, UNIT, n_max, eps_decomp=eps_d)
        base = MNL(1.0).choose(UNIT)
        dev = max(abs(est.distribution[a] - base[a]) for a in UNIT.actions)
        perturbed_ok = perturbed_ok and dev <= est.bound
    ok = worst_mnl <= 1e-10 and perturbed_ok
    with capsys.disabled():
        assert report(
            6, f"upsilon construction (MNL dev={worst_mnl:.1e})", ok
        )


def test_criterion_07_closeness_certificates(capsys):
    small_corpus = [
        UNIT,
        product(UNIT, UNIT),
        scalar_menu({"a": -1.0, "b": 0.5, "c": 2.0}),
    ]
    beta_true = 1.5
    certs_ok = True
    recon_ok = True
    for delta0 in (0.01, 0.05, 0.2):
        for seed in range(1, 6):
            rule = Perturbed(MNL(beta_true), delta0, seed)
            beta_fit = fit_beta_min_delta(rule, small_corpus)
            cert = certify_closeness(
                rule, small_corpus, Utility.scalar_beta(beta_fit)
            )
            certs_ok = certs_ok and cert.delta <= delta0 + 1e-8
            # reconstruction re-check at 1e-10 (certify_closeness verifies
            # internally; re-verify one menu explicitly here)
            dist = rule.choose(UNIT)
            shocks = dict(cert.shocks)[
                "menu_0000"
            ]
            weights = {
                a: math.exp(beta_fit * o.value + shocks[a])
                for a, o in UNIT.entries
            }
            total = sum(weights.values())
            recon_ok = recon_ok and all(
                abs(weights[a] / total - dist[a]) <= 1e-10 for a in UNIT.actions
            )
    big_corpus = [UNIT, power(UNIT, 20)]
    rule = Perturbed(MNL(beta_true), 0.05, 1)
    beta_fit = fit_beta_min_delta(rule, big_corpus)
    d_fit = certify_closeness(rule, big_corpus, Utility.scalar_beta(beta_fit)).delta
    d_wrong = certify_closeness(
        rule, big_corpus, Utility.scalar_beta(beta_true + 0.1)
    ).delta
    unique_ok = d_wrong > d_fit
    ok = certs_ok and recon_ok and unique_ok
    with capsys.disabled():
        assert report(
            7,
            f"certificates (fit delta<=delta0; wrong-beta {d_wrong:.2f}>{d_fit:.3f})",
            ok,
        )


def test_criterion_08_bound_arithmetic(capsys):
    worst = 0.0
    for i in range(51):
        eps_d = i / 100.0
        eps_n = 2.0  # >= 2 eps_d + eps_d^2 on the whole grid
        bounds = ulam_bound(eps_n, eps_d)
        closed = 10.0 * eps_d + 2.0 * eps_d * eps_d
        worst = max(worst, abs(bounds.general - closed), abs(bounds.banach - closed))
    ok = worst <= 1e-15
    with capsys.disabled():
        assert report(8, f"stability bound arithmetic (gap={worst:.1e})", ok)


def test_criterion_09_power_diagonal_decay(capsys):
    base = scalar_menu({"a": 1.0, "b": 1.0})
    entries = []
    for n in range(1, 11):
        pw = power(base, n)
        hi, lo = diagonal_action("a", n), diagonal_action("b", n)
        q = 1.0 / 2**n
        if len(pw) == 2:
            probs = {hi: 0.6, lo: 0.4}
        else:
            rest = (1.0 - 2.5 * q) / (len(pw) - 2)
            probs = {
                act: 1.5 * q if act == hi else q if act == lo else rest
                for act in pw.actions
            }
        entries.append((pw, probs))
    rule = Tabular.from_entries(entries)
    ok = True
    previous = math.inf
    for n in range(1, 11):
        eps = power_diagonal_neutrality_epsilon(rule, base, "a", "b", n)
        ok = ok and eps <= 1.5 ** (1.0 / n) - 1.0 + 1e-12 and eps < previous
        previous = eps
    with capsys.disabled():
        assert report(9, f"power-diagonal neutrality decay (eps@10={previous:.4f})", ok)


def test_criterion_10_cumulant_additivity(capsys):
    rng = random.Random(1010)
    space = Space.distribution(4)

    def draw():
        k = rng.randint(1, 4)
        points: list[float] = []
        while len(points) < k:
            p = rng.uniform(-3.0, 3.0)
            if all(abs(p - q) > 1e-6 for q in points):
                points.append(p)
        weights = [rng.uniform(0.1, 1.0) for _ in range(k)]
        total = sum(weights)
        return Outcome(space, tuple((p, w / total) for p, w in zip(points, weights)))

    worst = 0.0
    for _ in range(100):
        x, y = draw(), draw()
        joint = np.array(cumulants(compose(x, y), 4))
        split = np.array(cumulants(x, 4)) + np.array(cumulants(y, 4))
        worst = max(worst, float(np.max(np.abs(joint - split))))
    ok = worst <= 1e-9
    with capsys.disabled():
        assert report(10, f"cumulant additivity (worst={worst:.1e})", ok)
