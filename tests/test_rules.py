import hashlib
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
import numpy as np
from scipy import integrate
from scipy.special import log_ndtr
from scipy.stats import norm

from stochoice import (
    IARU,
    MNL,
    ChoiceDistribution,
    GaussianShock,
    GeneralMNL,
    GumbelShock,
    Menu,
    Perturbed,
    QuadratureError,
    Space,
    SpaceMismatchError,
    Uniform,
    Utility,
    diagonal_action,
    menu_hash,
    menu_of,
    power,
    probit,
    product,
    rule_from_json,
    rule_to_json,
    scalar_menu,
    unit_binary_menu,
)
from stochoice.quadrature import adaptive_simpson

from conftest import Tabular, iaru_equals_mnl_probe
from test_menus import _golden_menus

UNIT = unit_binary_menu()
SQUARE = product(UNIT, UNIT)

# oracle: b1 wins iff eps0 - eps1 <= 1, a N(0, 2) event
PROBIT_BINARY = float(norm.cdf(1.0 / math.sqrt(2.0)))


def probit_square_oracle() -> float:
    # oracle: independent scipy quadrature of pdf(x) G(1+x)^2 G(2+x)
    f = lambda x: norm.pdf(x) * norm.cdf(1 + x) ** 2 * norm.cdf(2 + x)
    value, _ = integrate.quad(f, -12, 12, epsabs=1e-13, epsrel=1e-13)
    return value


class TestQuadrature:
    def test_gaussian_mass(self):
        total = adaptive_simpson(norm.pdf, -12, 12, tol=1e-12)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_cubic_exact(self):
        val = adaptive_simpson(lambda x: x**3 - x + 2, 0.0, 2.0, tol=1e-12)
        assert val == pytest.approx(4.0 - 2.0 + 4.0, abs=1e-12)

    def test_empty_interval(self):
        with pytest.raises(ValueError):
            adaptive_simpson(norm.pdf, 1.0, 1.0)

    def test_depth_cap_raises(self):
        # the panel holding the jump keeps an error near its width
        step = lambda x: (x < 0.7).astype(float)
        with pytest.raises(QuadratureError, match="depth 40"):
            adaptive_simpson(step, 0.0, 1.0, tol=1e-14)

    def test_rows_share_one_error_budget(self):
        rows = lambda x: np.stack([norm.pdf(x), 2.0 * norm.pdf(x - 1.0)])
        tol = 1e-10
        value = adaptive_simpson(rows, -12.0, 13.0, tol=tol)
        assert value.shape == (2,)
        assert float(np.abs(value - [1.0, 2.0]).sum()) <= tol

    def test_row_depth_cap_raises(self):
        rows = lambda x: np.stack([norm.pdf(x), (x < 0.7).astype(float)])
        with pytest.raises(QuadratureError, match="depth 40"):
            adaptive_simpson(rows, 0.0, 1.0, tol=1e-14)

    def test_one_quadrature_error(self):
        import stochoice.quadrature
        import stochoice.rules

        assert QuadratureError is stochoice.quadrature.QuadratureError
        assert QuadratureError is stochoice.rules.QuadratureError

    @pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.0, 3.0), (-7.5, -2.0)])
    def test_degree_23_is_exact_in_one_call(self, lo, hi):
        # K15 is exact to degree 23 and G7 to degree 13, so on every seed
        # panel the Kronrod sum is the integral and |K15 - G7| is small
        rng = np.random.default_rng(23)
        for degree in range(24):
            poly = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, degree + 1), domain=[lo, hi])
            calls = []

            def f(x):
                calls.append(x.size)
                return poly(x)

            value = adaptive_simpson(f, lo, hi)
            exact = poly.integ()(hi) - poly.integ()(lo)
            assert len(calls) == 1, degree
            assert abs(value - exact) <= 1e-13, degree

    def test_probit_menus_against_quad(self):
        # oracle: P[a] = integral of pdf(x) prod_{b != a} cdf(o(a) - o(b) + x)
        # over a's own shock x; Gumbel IARU is MNL on the same menus
        rng = np.random.default_rng(19)
        for size in range(2, 7):
            for _ in range(6):
                values = rng.uniform(-2.0, 2.0, size)
                menu = scalar_menu({f"a{i}": float(v) for i, v in enumerate(values)})
                dist = probit().choose(menu)
                for i, v in enumerate(values):
                    others = np.delete(values, i)
                    f = lambda x: math.exp(-0.5 * x * x + log_ndtr(v - others + x).sum())
                    ref, _ = integrate.quad(f, -12.0, 12.0, epsabs=1e-14, epsrel=1e-13, limit=200)
                    assert abs(dist[f"a{i}"] - ref / math.sqrt(2.0 * math.pi)) <= 1e-13
                ok, dev = iaru_equals_mnl_probe(1.3, [menu], 1e-14)
                assert ok, dev

    def test_non_finite_row_raises(self):
        rows = lambda x: np.stack([norm.pdf(x), np.where(x < 0.7, 1.0, np.nan)])
        with pytest.raises(QuadratureError, match="non-finite"):
            adaptive_simpson(rows, 0.0, 1.0)


class TestMNL:
    def test_symmetric_at_zero(self):
        dist = MNL(0.0).choose(UNIT)
        assert dist["b0"] == pytest.approx(0.5)
        assert dist["b1"] == pytest.approx(0.5)

    @pytest.mark.parametrize("beta", [-2.0, 0.5, 1.0, 3.0])
    def test_binary_closed_form(self, beta):
        dist = MNL(beta).choose(UNIT)
        assert dist["b1"] == pytest.approx(
            math.exp(beta) / (1 + math.exp(beta)), abs=1e-14
        )

    def test_translation_invariance(self):
        m1 = scalar_menu({"a": 1.0, "b": 2.0, "c": -0.5})
        m2 = scalar_menu({"a": 101.0, "b": 102.0, "c": 99.5})
        d1 = MNL(1.3).choose(m1)
        d2 = MNL(1.3).choose(m2)
        for a in m1.actions:
            assert abs(d1[a] - d2[a]) <= 1e-12

    def test_iia(self):
        big = scalar_menu({"a": 0.0, "b": 1.0, "c": 2.0, "d": -1.0})
        small = scalar_menu({"a": 0.0, "b": 1.0})
        db, ds = MNL(0.7).choose(big), MNL(0.7).choose(small)
        assert db["a"] / db["b"] == pytest.approx(ds["a"] / ds["b"], abs=1e-10)

    def test_power_factorizes(self):
        menu = scalar_menu({"a": 0.0, "b": 1.0, "c": -2.0})
        base = MNL(0.9).choose(menu)
        cube = MNL(0.9).choose(power(menu, 3))
        for a in menu.actions:
            assert cube[((a, a), a)] == pytest.approx(base[a] ** 3, abs=1e-10)

    def test_argmax_limits(self):
        menu = scalar_menu({"a": 1.0, "b": 1.0, "c": 0.0})
        top = MNL(math.inf).choose(menu)
        assert (top["a"], top["b"], top["c"]) == (0.5, 0.5, 0.0)
        bottom = MNL(-math.inf).choose(menu)
        assert bottom["c"] == 1.0

    def test_requires_scalar_space(self):
        with pytest.raises(SpaceMismatchError):
            MNL(1.0).choose(menu_of(Space.vector(2), {"a": (0.0, 1.0)}))

    def test_nan_beta_rejected(self):
        # +-inf are the argmax and argmin limits; NaN is no limit
        with pytest.raises(ValueError, match="NaN"):
            MNL(math.nan)
        with pytest.raises(ValueError, match="NaN"):
            rule_from_json({"type": "mnl", "beta": math.nan})


class TestMNLProperties:
    @given(
        st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
        st.lists(
            st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
            min_size=2,
            max_size=6,
        ),
    )
    def test_translation_invariance_property(self, beta, shift, values):
        m1 = scalar_menu({f"a{i}": v for i, v in enumerate(values)})
        m2 = scalar_menu({f"a{i}": v + shift for i, v in enumerate(values)})
        d1, d2 = MNL(beta).choose(m1), MNL(beta).choose(m2)
        assert all(abs(d1[a] - d2[a]) <= 1e-12 for a in m1.actions)

    @given(
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        st.lists(
            st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
            min_size=3,
            max_size=6,
        ),
    )
    def test_iia_property(self, beta, values):
        big = scalar_menu({f"a{i}": v for i, v in enumerate(values)})
        small = scalar_menu({"a0": values[0], "a1": values[1]})
        db, ds = MNL(beta).choose(big), MNL(beta).choose(small)
        lhs = db["a0"] * ds["a1"]
        rhs = db["a1"] * ds["a0"]
        assert abs(lhs - rhs) <= 1e-10


class TestGeneralMNL:
    def test_log_det_menu(self):
        space = Space.matrix(2)
        menu = menu_of(
            space,
            {"a": ((1.0, 0.0), (0.0, 1.0)), "b": ((2.0, 0.0), (0.0, 3.0))},
        )
        dist = GeneralMNL(Utility.log_det(2, 1.0)).choose(menu)
        assert dist["b"] == pytest.approx(6.0 / 7.0, abs=1e-12)

    def test_matches_mnl_on_scalars(self):
        menu = scalar_menu({"a": -1.0, "b": 0.5, "c": 2.0})
        dg = GeneralMNL(Utility.scalar_beta(1.7)).choose(menu)
        dm = MNL(1.7).choose(menu)
        for a in menu.actions:
            assert dg[a] == pytest.approx(dm[a], abs=1e-14)

    @pytest.mark.parametrize(
        "utility,m1,m2",
        [
            (
                Utility(Space.vector(2), (1.0, -0.5)),
                {"a": (1.0, 0.0), "b": (0.0, 2.0)},
                {"p": (-1.0, 1.0), "q": (0.5, 0.5)},
            ),
            (
                Utility.mean_variance(1.0, -0.25),
                {"a": (5.0, 2.0), "b": (20.0, 10.0)},
                {"p": (-0.01, 0.05), "q": (1.0, 0.0)},
            ),
            (
                Utility(Space.distribution(2), (0.8, -0.3)),
                {"a": ((0.0, 0.5), (1.0, 0.5)), "b": ((2.0, 1.0),)},
                {"p": ((-1.0, 0.25), (1.0, 0.75)), "q": ((0.0, 1.0),)},
            ),
            (
                Utility.prize_values(Space.prizes(("g", "h")), {"g": 1.0, "h": -0.5}),
                {"a": ("g",), "b": ("h", "h")},
                {"p": (), "q": ("g", "h")},
            ),
            (
                Utility.log_det(2, 0.7),
                {"a": ((1.0, 0.0), (0.0, 1.0)), "b": ((2.0, 1.0), (0.0, 3.0))},
                {"p": ((0.5, 0.0), (0.2, 2.0)), "q": ((1.0, 1.0), (-1.0, 1.0))},
            ),
        ],
        ids=["vector", "mean_stddev", "distribution", "prize_stream", "matrix"],
    )
    def test_factorizes_on_products_in_every_space(self, utility, m1, m2):
        # additive utility makes the general logit exactly decomposable,
        # whatever the outcome space
        from stochoice.axioms import decomposability_epsilon

        rule = GeneralMNL(utility)
        menu1 = menu_of(utility.space, m1)
        menu2 = menu_of(utility.space, m2)
        report = decomposability_epsilon(rule, menu1, menu2)
        assert report.min_epsilon <= 1e-10


class TestIARU:
    def test_probit_binary_paper_value(self):
        p = probit().choose(UNIT)["b1"]
        assert p == pytest.approx(PROBIT_BINARY, abs=1e-9)
        assert p == pytest.approx(0.760, abs=2e-3)

    def test_probit_square_paper_value(self):
        p = probit().choose(SQUARE)[("b1", "b1")]
        assert p == pytest.approx(probit_square_oracle(), abs=1e-9)
        assert p == pytest.approx(0.617, abs=2e-3)

    @pytest.mark.parametrize("gap", [0.5 * i for i in range(1, 25)])
    def test_probit_binary_tail(self, gap):
        # P(b0) = Phi(-gap / sqrt 2) falls to 1.0e-17 at gap 12; the
        # contract is the quadrature's absolute tolerance
        p = probit().choose(scalar_menu({"b0": 0.0, "b1": gap}))["b0"]
        assert p == pytest.approx(float(norm.cdf(-gap / math.sqrt(2.0))), rel=0, abs=1e-10)

    def test_probit_violates_decomposability(self):
        p1 = probit().choose(UNIT)["b1"]
        p11 = probit().choose(SQUARE)[("b1", "b1")]
        assert p11 > p1**2 + 0.03

    def test_equal_outcomes_share_probability_exactly(self):
        menu = scalar_menu({"a": 1.0, "b": 1.0, "c": 0.0})
        dist = probit().choose(menu)
        assert dist["a"] == dist["b"]

    def test_gumbel_closed_form(self):
        ok, dev = iaru_equals_mnl_probe(1.0, [UNIT], 1e-6)
        assert ok and dev < 1e-8

    def test_gumbel_matches_mnl_on_wider_menu(self):
        menu = scalar_menu({"a": -1.5, "b": 0.0, "c": 0.25, "d": 2.0, "e": 1.0})
        ok, dev = iaru_equals_mnl_probe(2.0, [menu], 1e-6)
        assert ok, dev

    def test_power_menu_meets_normalization_guard(self):
        # 2^15 actions in 16 outcome groups of up to C(15, 7) = 6435
        n = 15
        dist = probit().choose(power(UNIT, n))
        for a, log_p in probit().log_diagonal(UNIT, n).items():
            assert abs(dist[diagonal_action(a, n)] - math.exp(log_p)) <= 1e-10

    @pytest.mark.parametrize("beta", [0.5, 2.0])
    def test_gumbel_equals_mnl_on_many_outcomes(self, beta):
        values = np.linspace(-4.0, 4.0, 1000)
        menu = scalar_menu({f"a{i}": float(v) for i, v in enumerate(values)})
        iaru, mnl = IARU(GumbelShock(beta)).choose(menu), MNL(beta).choose(menu)
        assert max(abs(iaru[a] - mnl[a]) for a in menu.actions) <= 1e-12

    def test_probit_many_outcomes_against_quad(self):
        # oracle: P[a] = integral of pdf(x) prod_{b != a} cdf(o(a) - o(b) + x)
        # over a's own shock x, one scipy quad per action
        values = np.random.default_rng(7).uniform(-3.0, 3.0, 200)
        menu = scalar_menu({f"a{i}": float(v) for i, v in enumerate(values)})
        dist = probit().choose(menu)
        for i, v in enumerate(values):
            others = np.delete(values, i)
            f = lambda x: math.exp(norm.logpdf(x) + log_ndtr(v - others + x).sum())
            ref, _ = integrate.quad(f, -12.0, 20.0, epsabs=1e-13, epsrel=1e-12, limit=200)
            assert abs(dist[f"a{i}"] - ref) <= 1e-10

    def test_mismatched_beta_detected(self):
        dist = IARU(GumbelShock(1.0)).choose(UNIT)
        wrong = MNL(2.0).choose(UNIT)
        assert abs(dist["b1"] - wrong["b1"]) > 1e-3

    def test_rejects_vector_menus(self):
        with pytest.raises(SpaceMismatchError):
            probit().choose(menu_of(Space.vector(2), {"a": (0.0, 1.0)}))

    def test_shock_validation(self):
        with pytest.raises(ValueError):
            GaussianShock(0.0)
        with pytest.raises(ValueError):
            GumbelShock(-1.0)


class TestUniformAndTabular:
    def test_uniform(self):
        menu = scalar_menu({"a": 0.0, "b": 5.0, "c": -2.0})
        dist = Uniform().choose(menu)
        assert all(p == pytest.approx(1 / 3) for _, p in dist.items())

    def test_tabular_lookup_is_order_insensitive(self):
        menu = scalar_menu({"a": 1.0, "b": 1.0})
        rule = Tabular.from_entries([(menu, {"a": 0.6, "b": 0.4})])
        shuffled = Menu(menu.space, tuple(reversed(menu.entries)))
        assert rule.choose(shuffled)["a"] == 0.6

    def test_tabular_fallback(self):
        menu = scalar_menu({"a": 1.0, "b": 1.0})
        other = scalar_menu({"x": 0.0, "y": 2.0})
        rule = Tabular.from_entries([(menu, {"a": 0.6, "b": 0.4})], fallback=MNL(1.0))
        assert rule.choose(other)["y"] == MNL(1.0).choose(other)["y"]

    def test_tabular_requires_full_cover(self):
        menu = scalar_menu({"a": 1.0, "b": 1.0})
        with pytest.raises(ValueError):
            Tabular.from_entries([(menu, {"a": 1.0})])


class TestPerturbed:
    def test_deterministic(self):
        menu = scalar_menu({"a": 0.0, "b": 1.0, "c": 2.0})
        r1 = Perturbed(MNL(1.0), 0.1, 42)
        r2 = Perturbed(MNL(1.0), 0.1, 42)
        assert r1.choose(menu).probs == r2.choose(menu).probs

    def test_seed_changes_outcome(self):
        menu = scalar_menu({"a": 0.0, "b": 1.0})
        d1 = Perturbed(MNL(1.0), 0.1, 1).choose(menu)
        d2 = Perturbed(MNL(1.0), 0.1, 2).choose(menu)
        assert d1["a"] != d2["a"]

    def test_shock_bounds(self):
        menu = scalar_menu({"a": 0.0, "b": 1.0, "c": 2.0})
        rule = Perturbed(MNL(1.0), 0.25, 9)
        assert all(abs(rule.shock(menu, a)) <= 0.25 for a in menu.actions)

    def test_zero_delta_is_base(self):
        menu = scalar_menu({"a": 0.0, "b": 1.0})
        dist = Perturbed(MNL(1.0), 0.0, 5).choose(menu)
        base = MNL(1.0).choose(menu)
        for a in menu.actions:
            assert dist[a] == pytest.approx(base[a], abs=1e-15)

    @pytest.mark.parametrize("seed", [1.5, True, "3"])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            Perturbed(MNL(1.0), 0.1, seed)

    def test_integral_float_seed_is_an_int(self):
        rule = Perturbed(MNL(1.0), 0.1, 3.0)
        assert type(rule.seed) is int and rule == Perturbed(MNL(1.0), 0.1, 3)
        data = rule_to_json(rule)
        assert type(data["seed"]) is int and data["seed"] == 3
        assert rule_from_json(data) == rule

    def test_zero_probabilities_preserved(self):
        menu = scalar_menu({"a": 0.0, "b": 1.0})
        dist = Perturbed(MNL(math.inf), 0.1, 3).choose(menu)
        assert dist["a"] == 0.0 and dist["b"] == 1.0

    def test_choice_retains_nothing(self):
        # id strings live with their menu; no process-wide cache keeps
        # the ids or hashes of a menu that is gone
        import gc
        import tracemalloc

        rule = Perturbed(MNL(1.0), 0.05, 7)
        rule.choose(power(UNIT, 3))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            menu = power(unit_binary_menu(), 14)
            dist = rule.choose(menu)
            del menu, dist
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after - before < 1 << 20


M64 = (1 << 64) - 1


def _splitmix64_oracle(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def _shock_oracles(seed, menu, deltas):
    """The scalar definition of the Perturbed shocks, one Python-int
    splitmix64 per step: the menu key, then per action its id's 8-byte
    blake2b digest read big-endian, XORed with the key and mixed."""
    key = _splitmix64_oracle((seed & M64) ^ menu_hash(menu))
    zs = [
        _splitmix64_oracle(key ^ int.from_bytes(hashlib.blake2b(s.encode(), digest_size=8).digest(), "big"))
        for s in menu.ids
    ]
    return {delta: [delta * (2.0 * (z / 2.0**64) - 1.0) for z in zs] for delta in deltas}


class TestShockKernel:
    DELTAS = (1e-300, 0.05, 1.0, 1e300)

    def test_splitmix64_matches_the_scalar_definition(self):
        from stochoice.rules import _splitmix64

        rng = np.random.default_rng(5)
        zs = [0, 1, 2**31 - 1, 2**63 - 1, 2**63, 2**63 + 1, M64 - 1, M64]
        zs += [int(z) for z in rng.integers(0, M64, size=1000, dtype=np.uint64, endpoint=True)]
        mixed = _splitmix64(np.array(zs, dtype=np.uint64))
        assert mixed.tolist() == [_splitmix64_oracle(z) for z in zs]

    @pytest.mark.parametrize("name", ["lottery", "power", "scalar", "streams"])
    def test_shocks_are_bit_identical_to_the_scalar_definition(self, name):
        menu = power(UNIT, 14) if name == "power" else _golden_menus()[name]
        h = menu_hash(menu)
        # the last three seeds make the key's input seed ^ hash read
        # 2^63, 2^63 + 1 and 2^64 - 1
        seeds = (0, 2**31 - 1, 2**64 - 1, -1, h ^ 2**63, h ^ (2**63 + 1), h ^ M64)
        for seed in seeds:
            expected = _shock_oracles(seed, menu, self.DELTAS)
            for delta in self.DELTAS:
                shocks = Perturbed(MNL(1.0), delta, seed)._shocks(menu, menu.ids)
                assert [s.hex() for s in shocks] == [s.hex() for s in expected[delta]]


class TestChoiceDistribution:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ChoiceDistribution(unit_binary_menu(), [-0.1, 1.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            ChoiceDistribution(unit_binary_menu(), [0.6, 0.6])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ChoiceDistribution(unit_binary_menu(), [math.nan, 1.0])

    @pytest.mark.parametrize(
        "p",
        [
            [math.nan, 0.5, 0.5],
            [0.5, math.nan, 0.5],
            [0.5, 0.5, math.nan],
            [-0.5, 0.75, 0.75],
            [0.75, -0.5, 0.75],
            [0.75, 0.75, -0.5],
            [1.0, -math.inf, math.inf],
            [math.nan, -1.0, 2.0],
        ],
    )
    def test_rejects_negative_or_nan_anywhere(self, p):
        menu = scalar_menu({"a": 0.0, "b": 1.0, "c": 2.0})
        with pytest.raises(ValueError, match="^negative or NaN choice probability$"):
            ChoiceDistribution(menu, p)

    def test_accepts_negative_zero(self):
        dist = ChoiceDistribution(unit_binary_menu(), [1.0, -0.0])
        assert dist["b1"] == 0.0


class TestRuleJson:
    @pytest.mark.parametrize(
        "rule",
        [
            MNL(1.5),
            MNL(math.inf),
            MNL(-math.inf),
            GeneralMNL(Utility.mean_variance(1.0, -0.5)),
            IARU(GaussianShock(1.0)),
            IARU(GumbelShock(2.0)),
            Uniform(),
            Perturbed(MNL(2.0), 0.05, 7),
            Perturbed(probit(), 0.05, 7),
        ],
    )
    def test_round_trip(self, rule):
        clone = rule_from_json(rule_to_json(rule))
        menu = scalar_menu({"a": 0.0, "b": 1.0})
        if isinstance(rule, GeneralMNL):
            menu = menu_of(Space.mean_stddev(), {"a": (0.0, 0.0), "b": (1.0, 1.0)})
        da, db = rule.choose(menu), clone.choose(menu)
        for a in menu.actions:
            assert da[a] == db[a]

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            rule_from_json({"type": "nested_logit"})

