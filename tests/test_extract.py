import math
import random

import numpy as np
import pytest

from stochoice import (
    MNL,
    CorpusSpec,
    GeneralMNL,
    Menu,
    NotPositiveError,
    Outcome,
    Perturbed,
    Rule,
    Space,
    Uniform,
    Utility,
    certify_closeness,
    extract_utility,
    features,
    fit_beta_min_delta,
    fit_utility_representation,
    generate_corpus,
    identity,
    power,
    probit,
    product,
    scalar,
    scalar_menu,
    ulam_bound,
    unit_binary_menu,
    upsilon,
)
import stochoice.extract
from stochoice.axioms import decomposability_epsilon
from stochoice.extract import _extremes
from stochoice.spaces import SpaceMismatchError

from conftest import Tabular

UNIT = unit_binary_menu()


def fitted_beta(rule):
    return fit_utility_representation(rule, Space.scalar()).utility.coeffs[0]


class TestExtractBeta:
    @pytest.mark.parametrize("beta", [-10.0, -3.0, -0.5, 0.0, 0.5, 2.0, 10.0])
    def test_recovers_mnl_parameter(self, beta):
        assert fitted_beta(MNL(beta)) == pytest.approx(beta, abs=1e-12)

    @pytest.mark.parametrize("beta", [-40.0, -30.0, -10.0, 10.0, 30.0, 40.0])
    def test_exact_where_one_minus_p_cancels(self, beta):
        # p / (1 - p) was off by 1e-3 at beta = 30 and raised at 40
        assert fitted_beta(MNL(beta)) == beta

    def test_log_odds_where_the_odds_overflow(self):
        # at beta = 710 the odds e^710 pass the largest float; past
        # beta ~ 745 the identity's probability underflows to 0
        assert fitted_beta(MNL(710.0)) == pytest.approx(710.0, rel=1e-12)
        with pytest.raises(NotPositiveError):
            fitted_beta(MNL(746.0))

    @pytest.mark.parametrize("beta", [720.0, 730.0, 740.0, -730.0])
    def test_subnormal_probe_probability_is_refused(self, beta):
        # past |beta| ~ 714 a probe probability e^-|beta| falls below
        # 2^-1030, where fewer than 44 of its bits are left: the fit read
        # 729.99999982 at 730 and 739.9974 at 740
        with pytest.raises(ValueError, match="below 2\\^-1030 .* lose precision"):
            fitted_beta(MNL(beta))

    def test_uniform_is_zero(self):
        assert fitted_beta(Uniform()) == 0.0

    def test_argmax_limits(self):
        for beta in (math.inf, -math.inf):
            with pytest.raises(NotPositiveError):
                fitted_beta(MNL(beta))

    def test_probit_value(self):
        # ln(0.760.../0.239...) from the quadrature probabilities
        beta = fitted_beta(probit())
        p = probit().choose(UNIT)["b1"]
        assert beta == pytest.approx(math.log(p / (1 - p)))


class TestExtractUtility:
    def test_mean_variance_probe(self):
        rule = GeneralMNL(Utility.mean_variance(1.0, -0.5))
        x = Outcome(Space.mean_stddev(), (2.0, 1.0))
        assert extract_utility(rule, x) == pytest.approx(1.5, abs=1e-10)

    def test_identity_outcome_is_zero(self):
        rule = GeneralMNL(Utility.mean_variance(0.7, 0.3))
        assert extract_utility(rule, identity(Space.mean_stddev())) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_scalar_probe(self):
        assert extract_utility(MNL(1.0), scalar(3.0)) == pytest.approx(3.0, abs=1e-10)

    def test_not_positive(self):
        with pytest.raises(NotPositiveError):
            extract_utility(MNL(math.inf), scalar(3.0))


def _random_utility(space: Space, rng: random.Random) -> Utility:
    sizes = {
        "real_scalar": 1,
        "real_vector": space.d,
        "mean_stddev": 2,
        "discrete_distribution": space.moment_order,
        "prize_stream": len(space.alphabet),
        "matrix": 1,
    }
    coeffs = tuple(rng.uniform(-2.0, 2.0) for _ in range(sizes[space.kind]))
    return Utility(space, coeffs)


class TestFitRoundTrip:
    SPACES = [
        Space.scalar(),
        Space.vector(5),
        Space.mean_stddev(),
        Space.distribution(4),
        Space.prizes(("p1", "p2", "p3", "p4", "p5", "p6")),
        Space.matrix(3),
    ]

    @pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
    def test_randomized_parameters(self, space):
        rng = random.Random(f"fit-{space.kind}")
        for _ in range(5):
            u = _random_utility(space, rng)
            fit = fit_utility_representation(GeneralMNL(u), space)
            assert np.allclose(fit.utility.coeffs, u.coeffs, atol=1e-9)

    def test_uniform_fits_to_zero(self):
        fit = fit_utility_representation(Uniform(), Space.mean_stddev())
        assert fit.utility.coeffs == (0.0, 0.0)

    @pytest.mark.parametrize(
        "space", [s for s in SPACES if s.kind != "discrete_distribution"], ids=lambda s: s.kind
    )
    def test_unit_basis_is_perfectly_conditioned(self, space):
        fit = fit_utility_representation(Uniform(), space)
        assert fit.probe_condition == 1.0

    def test_condition_number_reported(self):
        u = Utility(Space.distribution(4), (0.5, -0.25, 0.1, 0.02))
        fit = fit_utility_representation(GeneralMNL(u), u.space)
        assert fit.probe_condition > 1.0

    def test_moment_order_zero(self):
        fit = fit_utility_representation(Uniform(), Space.distribution(0))
        assert fit.utility.coeffs == ()

    def test_not_positive_rule_rejected(self):
        with pytest.raises(NotPositiveError):
            fit_utility_representation(MNL(math.inf), Space.scalar())


class TestUpsilon:
    @pytest.mark.parametrize("beta", [-1.0, 0.0, 1.0, 2.5])
    def test_mnl_is_fixed_point(self, beta):
        menu = scalar_menu({"a": 0.0, "b": 1.0, "c": -0.5})
        est = upsilon(MNL(beta), menu, 8)
        base = MNL(beta).choose(menu)
        for a in menu.actions:
            assert est.distribution[a] == pytest.approx(base[a], abs=1e-10)

    def test_zero_propagates(self):
        est = upsilon(MNL(math.inf), UNIT, 6)
        assert est.distribution["b0"] == 0.0
        assert est.distribution["b1"] == 1.0

    def test_size_guard(self):
        with pytest.raises(ValueError):
            upsilon(MNL(1.0), UNIT, 21)

    def test_envelope_reported(self):
        est = upsilon(MNL(1.0), UNIT, 8, eps_decomp=0.5)
        assert est.bound == pytest.approx(1.5 ** (1 / 8) - 1)
        assert upsilon(MNL(1.0), UNIT, 8).bound is None

    @pytest.mark.parametrize("eps", [-2.0, -1e-12, math.nan])
    def test_envelope_rejects_negative(self, eps):
        # (1 + eps)^(1/n) - 1 is complex for eps < -1
        with pytest.raises(ValueError, match="eps_decomp"):
            upsilon(MNL(1.0), UNIT, 8, eps_decomp=eps)

    def test_probit_drifts_toward_argmax(self):
        # probit is not uniformly approximately decomposable: its nth-root
        # estimates escalate toward the argmax rule instead of converging
        # to the binary distribution
        values = [upsilon(probit(), UNIT, n).distribution["b1"] for n in (1, 4, 8)]
        assert values[0] == pytest.approx(0.760, abs=2e-3)
        assert values[0] < values[1] < values[2]

    def test_probit_power_diagonal_against_quadrature_oracle(self):
        # oracle: scipy quadrature of the Hamming-weight-grouped integrand
        # pdf(x) * prod_k cdf(n - k + x)^C(n,k), independent of the
        # adaptive-Simpson path used by IARU.choose
        from math import comb

        from scipy import integrate
        from scipy.stats import norm

        n = 12

        def integrand(x):
            acc = norm.logpdf(x)
            for k in range(n):
                acc += comb(n, k) * norm.logcdf(n - k + x)
            return np.exp(acc)

        oracle, _ = integrate.quad(integrand, -14.0, 14.0, epsabs=1e-13, limit=300)
        from stochoice import diagonal_action

        dist = probit().choose(power(UNIT, n))
        assert dist[diagonal_action("b1", n)] == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_estimate_is_neutral_decomposable_and_normalized(self, seed):
        # the limit-rule properties, asserted on the finite-n estimate at
        # the Fekete envelope tolerance
        n = 8
        rule = Perturbed(MNL(1.0), 0.05, seed)
        menu = scalar_menu({"a": 1.0, "b": 1.0, "c": 0.0})
        envelope_pairs = [
            (menu, menu),
            (power(menu, 4), power(menu, 4)),
            (power(menu, 7), menu),
        ]
        eps = max(
            decomposability_epsilon(rule, m1, m2).min_epsilon
            for m1, m2 in envelope_pairs
        )
        env = (1.0 + eps) ** (1.0 / n) - 1.0
        # raw nth roots sum to one within the envelope
        dist = rule.choose(power(menu, n))
        from stochoice import diagonal_action

        raw = {a: dist[diagonal_action(a, n)] ** (1.0 / n) for a in menu.actions}
        assert abs(sum(raw.values()) - 1.0) <= env
        # equal-outcome actions get equal estimates within the envelope
        assert max(raw["a"] / raw["b"], raw["b"] / raw["a"]) - 1.0 <= env
        # the estimate factorizes over products within the envelope
        m2 = scalar_menu({"p": 0.5, "q": -0.5})
        eps2 = max(
            decomposability_epsilon(rule, m1, m2_).min_epsilon
            for m1, m2_ in [(UNIT, m2), (power(UNIT, 4), power(m2, 4))]
        )
        env2 = (1.0 + eps2) ** (1.0 / n) - 1.0
        up1 = upsilon(rule, UNIT, n).distribution
        up2 = upsilon(rule, m2, n).distribution
        up12 = upsilon(rule, product(UNIT, m2), n).distribution
        gap = max(
            abs(up12[(a, b)] - up1[a] * up2[b])
            for a in UNIT.actions
            for b in m2.actions
        )
        assert gap <= env2

    def test_perturbed_within_fekete_envelope(self):
        n_max = 8
        rule = Perturbed(MNL(1.0), 0.05, 3)
        pairs = [(power(UNIT, k), power(UNIT, n_max - k)) for k in range(1, n_max)]
        pairs.append((UNIT, UNIT))
        eps_d = max(
            decomposability_epsilon(rule, m1, m2).min_epsilon for m1, m2 in pairs
        )
        est = upsilon(rule, UNIT, n_max, eps_decomp=eps_d)
        base = MNL(1.0).choose(UNIT)
        dev = max(abs(est.distribution[a] - base[a]) for a in UNIT.actions)
        assert dev <= est.bound


def _probit_unit_diagonal_log(n):
    """Natural logs of the diagonal integrals (all b1, all b0) on the
    n-fold power of the unit binary menu under probit, from the
    Hamming-weight groups, integrated by scipy quad in log space around
    the peak of a dense grid."""
    from scipy import integrate, special

    vals = np.arange(n + 1, dtype=float)
    counts = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    grid = np.linspace(-40.0, n + 40.0, 40001)
    out = []
    for v in (float(n), 0.0):
        c = counts.copy()
        c[int(v)] -= 1.0

        def log_f(x, v=v, c=c):
            x = np.atleast_1d(x)
            acc = -0.5 * x * x - 0.5 * math.log(2.0 * math.pi)
            return acc + special.log_ndtr(v - vals[None, :] + x[:, None]) @ c

        lg = log_f(grid)
        peak = float(grid[np.argmax(lg)])
        shift = float(lg.max())
        val = integrate.quad(
            lambda x: math.exp(float(log_f(x)[0]) - shift),
            peak - 40.0,
            peak + 40.0,
            points=[peak],
            epsabs=0.0,
            epsrel=1e-12,
            limit=400,
        )[0]
        out.append(math.log(val) + shift)
    return out[0], out[1]


class TestUpsilonMultisetPath:
    """IARU's Υ from grouped outcomes, without the power menu."""

    @pytest.mark.parametrize("n", range(8, 16))
    def test_probit_roots_match_log_space_reference(self, n):
        top, bottom = _probit_unit_diagonal_log(n)
        logs = probit().log_diagonal(UNIT, n)
        assert math.exp(logs["b1"] / n) == pytest.approx(math.exp(top / n), rel=1e-8)
        assert math.exp(logs["b0"] / n) == pytest.approx(math.exp(bottom / n), rel=1e-8)
        share = 1.0 / (1.0 + math.exp((top - bottom) / n))
        est = upsilon(probit(), UNIT, n).distribution
        assert est["b0"] == pytest.approx(share, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_gumbel_iaru_is_mnl_at_n_200(self, beta):
        from stochoice.rules import IARU, GumbelShock

        menu = scalar_menu({"a": 0.0, "b": 1.0, "c": -0.5})
        est = upsilon(IARU(GumbelShock(beta)), menu, 200).distribution
        base = MNL(beta).choose(menu)
        for a in menu.actions:
            assert est[a] == pytest.approx(base[a], abs=1e-9)

    def test_gumbel_log_diagonal_past_float_multiplicities(self):
        # C(2000, 1000) = 2e600 overflows a float; Gumbel IARU is logit,
        # so ln P[a^n] = n beta o(a) - n ln(sum_b exp(beta o(b)))
        from stochoice.rules import IARU, GumbelShock

        beta, n = 1.5, 2000
        logs = IARU(GumbelShock(beta)).log_diagonal(UNIT, n)
        norm = n * math.log1p(math.exp(beta))
        assert logs["b1"] == pytest.approx(n * beta - norm, rel=1e-10)
        assert logs["b0"] == pytest.approx(-norm, rel=1e-10)

    def test_three_action_probit_diagonal_against_quad(self):
        from scipy import integrate, special

        from stochoice import diagonal_action

        menu = scalar_menu({"a": 0.0, "b": 1.0, "c": -0.5})
        n = 6
        pw = power(menu, n)
        outcomes = {act: o.value for act, o in pw.entries}
        logs = probit().log_diagonal(menu, n)
        for a in menu.actions:
            own = diagonal_action(a, n)
            rest = np.array([v for act, v in outcomes.items() if act != own])

            def log_f(x, v=outcomes[own], rest=rest):
                x = np.atleast_1d(x)
                acc = -0.5 * x * x - 0.5 * math.log(2.0 * math.pi)
                return acc + special.log_ndtr(v - rest[None, :] + x[:, None]).sum(axis=1)

            grid = np.linspace(-40.0, 40.0, 8001)
            lg = log_f(grid)
            peak, shift = float(grid[np.argmax(lg)]), float(lg.max())
            val = integrate.quad(
                lambda x: math.exp(float(log_f(x)[0]) - shift),
                peak - 40.0,
                peak + 40.0,
                points=[peak],
                epsabs=0.0,
                epsrel=1e-12,
                limit=400,
            )[0]
            assert math.exp(logs[a] - shift) == pytest.approx(val, rel=1e-8)

    def test_never_builds_the_power_menu(self, monkeypatch):
        import sys

        import stochoice.menus

        def refuse(menu, n):
            raise AssertionError("the multiset path builds no power menu")

        original = stochoice.menus.power
        for name, mod in list(sys.modules.items()):
            if name.startswith("stochoice") and getattr(mod, "power", None) is original:
                monkeypatch.setattr(mod, "power", refuse)
        est = upsilon(probit(), UNIT, 15).distribution
        assert est["b0"] == pytest.approx(3.62e-4, rel=1e-3)

    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0])
    def test_binary_probit_tail_is_relative(self, delta):
        from scipy.special import ndtr

        menu = scalar_menu({"b0": 0.0, "b1": delta})
        p0 = upsilon(probit(), menu, 1).distribution["b0"]
        assert p0 == pytest.approx(float(ndtr(-delta / math.sqrt(2.0))), rel=1e-9, abs=0.0)

    def test_unit_menu_at_n_1000(self):
        # multiplicities up to C(1000, 500) = 2.7e299; Υ(probit) on the
        # unit menu approaches the argmax rule
        top, bottom = _probit_unit_diagonal_log(1000)
        logs = probit().log_diagonal(UNIT, 1000)
        assert math.exp((logs["b0"] - bottom) / 1000) == pytest.approx(1.0, rel=1e-8)
        assert math.exp((logs["b1"] - top) / 1000) == pytest.approx(1.0, rel=1e-8)
        est = upsilon(probit(), UNIT, 1000).distribution
        assert 0.0 < est["b0"] < 1e-200

    def test_guard_counts_outcome_groups(self):
        three = scalar_menu({"a": 0.0, "b": 1.0, "c": 2.0})
        # C(1002, 2) = 501,501 groups pass, C(1502, 2) = 1,127,251 do not
        with pytest.raises(ValueError, match="outcome groups"):
            upsilon(probit(), three, 1500)


class TestCertify:
    def test_mnl_against_own_beta(self):
        corpus = [UNIT, scalar_menu({"a": -1.0, "b": 2.0, "c": 0.5})]
        cert = certify_closeness(MNL(1.5), corpus, Utility.scalar_beta(1.5))
        assert cert.delta <= 1e-10
        assert cert.corpus_size == 2

    def test_perturbed_delta_bounded_by_construction(self):
        corpus = [UNIT, product(UNIT, UNIT), scalar_menu({"a": -1.0, "b": 0.7})]
        rule = Perturbed(MNL(2.0), 0.05, 11)
        beta = fit_beta_min_delta(rule, corpus)
        cert = certify_closeness(rule, corpus, Utility.scalar_beta(beta))
        assert cert.delta <= 0.05 + 1e-8

    def test_shocks_bounded_by_delta(self):
        corpus = [UNIT, product(UNIT, UNIT)]
        rule = Perturbed(MNL(1.0), 0.1, 5)
        beta = fit_beta_min_delta(rule, corpus)
        cert = certify_closeness(rule, corpus, Utility.scalar_beta(beta))
        for _, shocks in cert.shocks:
            assert all(abs(s) <= cert.delta + 1e-12 for s in shocks.values())

    def test_probit_residual_spread(self):
        corpus = [UNIT, product(UNIT, UNIT)]
        beta = fitted_beta(probit())
        cert = certify_closeness(probit(), corpus, Utility.scalar_beta(beta))
        assert cert.delta > 0.01

    def test_wrong_beta_strictly_larger(self):
        corpus = [UNIT, power(UNIT, 12)]
        rule = Perturbed(MNL(1.0), 0.05, 2)
        good = fit_beta_min_delta(rule, corpus)
        d_good = certify_closeness(rule, corpus, Utility.scalar_beta(good)).delta
        d_bad = certify_closeness(rule, corpus, Utility.scalar_beta(1.1)).delta
        assert d_bad > d_good

    def test_non_positive_corpus_rejected(self):
        with pytest.raises(ValueError, match="non-positive"):
            certify_closeness(MNL(math.inf), [UNIT], Utility.scalar_beta(1.0))

    def test_huge_residuals_fail_the_reconstruction_check(self):
        # the utilities 1.5e308 and 1.6e308 are finite, and so are their
        # residuals and the midpoint r[top] / 2 + r[bottom] / 2, but at
        # that magnitude u + s keeps no digit of ln p, so the rebuilt
        # probabilities miss p and the check must reject them
        menu = scalar_menu({"a": 1.5, "b": 1.6})
        with pytest.raises(RuntimeError, match="reconstruction"):
            certify_closeness(MNL(1.0), [menu], Utility.scalar_beta(1e308))

    def test_overflowing_utility_is_named(self):
        # beta * 10 overflows to inf
        menu = scalar_menu({"a": 0.0, "b": 10.0})
        with pytest.raises(ValueError, match=r"utility \{'beta': 1e\+308\} is not finite on menu m1"):
            certify_closeness(MNL(1.0), [UNIT, menu], Utility.scalar_beta(1e308), ["m0", "m1"])

    def test_certificate_json_schema(self):
        cert = certify_closeness(MNL(1.0), [UNIT], Utility.scalar_beta(1.0))
        data = cert.to_json()
        assert set(data) == {"utility", "delta", "menus", "corpus_size"}
        assert data["menus"][0]["menu_id"] == "menu_0000"
        assert set(data["menus"][0]["shocks"]) == {"b0", "b1"}


def _lexsort_extremes(r, menu_of):
    """Reference: a stable sort by residual within each menu, read at
    each menu's last and first position."""
    order = np.lexsort((r, menu_of))
    last = np.flatnonzero(np.diff(menu_of, append=-1))
    return order[last], order[np.append(0, last[:-1] + 1)]


class TestExtremes:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("largest", [1, 8])
    def test_ties_break_as_in_a_stable_sort(self, seed, largest):
        # integer residuals tie often, and 0.0 ties -0.0; menus of one
        # action each when largest is 1
        rng = np.random.default_rng(seed)
        menu_of = np.repeat(np.arange(50), rng.integers(1, largest + 1, size=50))
        r = rng.integers(-2, 3, size=len(menu_of)).astype(float)
        r[r == 0.0] = rng.choice([0.0, -0.0], size=int((r == 0.0).sum()))
        top, bottom = _extremes(r, menu_of)
        expected_top, expected_bottom = _lexsort_extremes(r, menu_of)
        assert top.tolist() == expected_top.tolist()
        assert bottom.tolist() == expected_bottom.tolist()

    def test_nan_residuals_break_as_in_a_stable_sort(self):
        # a stable sort puts NaNs last: the last NaN is a menu's top
        nan = math.nan
        r = np.array([1.0, nan, 2.0, nan, nan, nan, 3.0, -1.0, -1.0, nan, 5.0])
        menu_of = np.array([0, 0, 0, 0, 1, 1, 2, 2, 2, 3, 4])
        top, bottom = _extremes(r, menu_of)
        expected_top, expected_bottom = _lexsort_extremes(r, menu_of)
        assert top.tolist() == expected_top.tolist() == [3, 5, 6, 9, 10]
        assert bottom.tolist() == expected_bottom.tolist() == [0, 4, 7, 9, 10]

    def test_nan_residual_fails_the_reconstruction_check(self):
        class LastIsNaN(Rule):
            def choose(self, menu):
                dist = Uniform().choose(menu)
                dist.p[-1] = math.nan
                return dist

        menu = scalar_menu({"a": 0.0, "b": 1.0, "c": 2.0})
        with pytest.raises(RuntimeError, match="reconstruction"):
            certify_closeness(LastIsNaN(), [UNIT, menu], Utility.scalar_beta(1.0))

    def test_fit_is_bit_identical_to_the_sorting_fit(self, monkeypatch):
        corpus = [UNIT, power(UNIT, 12)]
        rule = Perturbed(MNL(1.0), 0.05, 2)
        beta = fit_beta_min_delta(rule, corpus)
        monkeypatch.setattr(stochoice.extract, "_extremes", _lexsort_extremes)
        assert fit_beta_min_delta(rule, corpus).hex() == beta.hex()


class TestCertifyAutoUtility:
    @pytest.mark.parametrize(
        "space",
        [
            Space.scalar(),
            Space.vector(2),
            Space.mean_stddev(),
            Space.distribution(3),
            Space.prizes(("a", "b", "c")),
            Space.matrix(2),
        ],
        ids=lambda s: s.kind,
    )
    def test_delta_is_the_chebyshev_optimum(self, space):
        k = len(features(identity(space)))
        coeffs = np.linspace(1.0, -0.5, k)
        rule = Perturbed(GeneralMNL(Utility(space, tuple(coeffs))), 0.05, 11)
        corpus = generate_corpus(CorpusSpec(space, 40, 2, 5, seed=3))
        cert = certify_closeness(rule, corpus)
        assert cert.utility.space == space
        assert cert.delta == pytest.approx(_per_action_chebyshev_delta(rule, corpus), abs=1e-9)
        assert cert.delta <= 0.05 + 1e-9
        again = certify_closeness(rule, corpus, cert.utility)
        assert again.delta == cert.delta

    def test_scalar_fit_is_fit_beta_min_delta(self):
        corpus = [UNIT, power(UNIT, 6), scalar_menu({"x": -1.0, "y": 0.5, "z": 2.0})]
        rule = Perturbed(MNL(1.5), 0.1, 4)
        cert = certify_closeness(rule, corpus)
        assert cert.utility.coeffs == (fit_beta_min_delta(rule, corpus),)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            certify_closeness(MNL(1.0), [])

    def test_mixed_spaces_rejected(self):
        vector = Space.vector(2)
        corpus = [UNIT, Menu(vector, (("a", Outcome(vector, (0.0, 1.0))),))]
        with pytest.raises(SpaceMismatchError):
            certify_closeness(Uniform(), corpus)


def _per_action_chebyshev_delta(rule, corpus):
    """Reference fit over features: a dense LP over (c, mu_m per menu, t)
    with the rows |ln p(a) - c . phi(o(a)) - mu_m| <= t for every action;
    returns the optimal t."""
    from scipy.optimize import linprog

    k = len(features(identity(corpus[0].space)))
    width = k + len(corpus) + 1
    rows, rhs = [], []
    for m, menu in enumerate(corpus):
        dist = rule.choose(menu)
        for a, o in menu.entries:
            for side in (-1.0, 1.0):
                row = np.zeros(width)
                row[:k] = side * np.array(features(o))
                row[k + m], row[-1] = side, -1.0
                rows.append(row)
                rhs.append(side * math.log(dist[a]))
    cost = np.zeros(width)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=np.array(rows), b_ub=rhs, bounds=(None, None), method="highs")
    assert res.success
    return float(res.fun)


class TestUlamBound:
    def test_zero_case(self):
        bounds = ulam_bound(0.0, 0.0)
        assert bounds.general == 0.0 and bounds.banach == 0.0

    def test_reduction_binds(self):
        # eps'_neut = min{1, 0.21} = 0.21, then 0.2 + 0.21 + 0.61 = 1.02
        bounds = ulam_bound(1.0, 0.1)
        assert bounds.general == pytest.approx(1.02)
        assert bounds.banach == pytest.approx(10 * 0.1 + 2 * 0.01)

    def test_small_neutrality_binds(self):
        bounds = ulam_bound(0.05, 0.1)
        assert bounds.general == pytest.approx(0.70)

    def test_banach_closed_form_on_grid(self):
        for i in range(51):
            eps_d = i / 100.0
            bounds = ulam_bound(2.0, eps_d)
            closed = 10.0 * eps_d + 2.0 * eps_d**2
            assert abs(bounds.general - closed) <= 1e-15
            assert abs(bounds.banach - closed) <= 1e-15

    def test_custom_stability_function(self):
        bounds = ulam_bound(1.0, 0.1, stability=lambda x: 2 * x)
        assert bounds.general == pytest.approx(0.2 + 0.21 + 2 * 0.61)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ulam_bound(-0.1, 0.0)

    def test_rejects_bad_stability(self):
        with pytest.raises(ValueError):
            ulam_bound(0.1, 0.1, stability=lambda x: x + 1.0)


class TestFitBetaMinDelta:
    def test_exact_for_pure_mnl(self):
        corpus = [UNIT, scalar_menu({"a": -2.0, "b": 1.0, "c": 3.0})]
        assert fit_beta_min_delta(MNL(0.8), corpus) == pytest.approx(0.8, abs=1e-9)

    def test_requires_positive_rule(self):
        with pytest.raises(ValueError, match="non-positive"):
            fit_beta_min_delta(MNL(math.inf), [UNIT])

    def test_finds_beta_far_from_the_unit_probe(self):
        # the unit probe reads beta = 0, the corpus is exact logit at 8
        rule = Tabular.from_entries([(UNIT, {"b0": 0.5, "b1": 0.5})], MNL(8.0))
        corpus = [scalar_menu({"a": 0.0, "b": 2.0})]
        beta = fit_beta_min_delta(rule, corpus)
        assert beta == pytest.approx(8.0, abs=1e-9)
        assert certify_closeness(rule, corpus, Utility.scalar_beta(beta)).delta <= 1e-9

    def test_non_scalar_corpus_rejected(self):
        vector = Space.vector(2)
        menu = Menu(vector, (("a", Outcome(vector, (0.0, 1.0))), ("b", Outcome(vector, (1.0, 0.0)))))
        with pytest.raises(SpaceMismatchError):
            fit_beta_min_delta(Uniform(), [menu])

    def test_matches_one_row_pair_per_action(self):
        corpus = [
            UNIT,
            power(UNIT, 6),
            power(scalar_menu({"x": 0.0, "y": 1.0, "z": 3.0}), 3),
        ]
        rule = Perturbed(MNL(1.5), 0.05, 3)
        assert fit_beta_min_delta(rule, corpus) == pytest.approx(
            _per_action_chebyshev_beta(rule, corpus), abs=1e-9
        )


def _per_action_chebyshev_beta(rule, corpus):
    """Reference fit: a dense LP over (beta, mu_m per menu, t) with the
    rows |ln p(a) - beta o(a) - mu_m| <= t for every action."""
    from scipy.optimize import linprog

    width = len(corpus) + 2
    rows, rhs = [], []
    for m, menu in enumerate(corpus):
        dist = rule.choose(menu)
        for a, o in menu.entries:
            for side in (-1.0, 1.0):
                row = np.zeros(width)
                row[0], row[m + 1], row[-1] = side * o.value, side, -1.0
                rows.append(row)
                rhs.append(side * math.log(dist[a]))
    cost = np.zeros(width)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=np.array(rows), b_ub=rhs, bounds=(None, None), method="highs")
    assert res.success
    return res.x[0]
