import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stochoice import (
    Outcome,
    Space,
    SpaceMismatchError,
    Utility,
    basis_probes,
    compose,
    cumulants,
    evaluate,
    features,
    identity,
    outcomes_equal,
    point_mass,
    scalar,
)

from conftest import (
    PRIZES,
    distribution_outcomes,
    matrix_outcomes,
    mean_stddev_outcomes,
    scalar_outcomes,
    stream_outcomes,
    utility_for,
    vector_outcomes,
)

SPACE_STRATEGIES = [
    (Space.scalar(), scalar_outcomes()),
    (Space.vector(3), vector_outcomes(3)),
    (Space.mean_stddev(), mean_stddev_outcomes()),
    (Space.distribution(4), distribution_outcomes(4)),
    (Space.prizes(PRIZES), stream_outcomes()),
    (Space.matrix(2), matrix_outcomes(2)),
]


class TestCompose:
    def test_scalar_sum(self):
        assert compose(scalar(3.14), scalar(-17.0)).value == pytest.approx(-13.86)

    def test_mean_stddev_independent_sum(self):
        space = Space.mean_stddev()
        bond = Outcome(space, (5.0, 2.0))
        ticket = Outcome(space, (-0.01, 0.05))
        m, s = compose(bond, ticket).value
        assert m == pytest.approx(4.99)
        assert s == pytest.approx(math.sqrt(4.0025), abs=1e-12)

    def test_stream_concatenation_keeps_order(self):
        space = Space.prizes(("a", "b"))
        xy = compose(Outcome(space, ("a", "b")), Outcome(space, ()))
        assert xy.value == ("a", "b")
        ab = compose(Outcome(space, ("a",)), Outcome(space, ("b",)))
        ba = compose(Outcome(space, ("b",)), Outcome(space, ("a",)))
        assert ab.value != ba.value

    def test_point_mass_convolution(self):
        space = Space.distribution(2)
        out = compose(point_mass(space, 1.0), point_mass(space, 2.0))
        assert out.value == ((3.0, 1.0),)

    def test_convolution_merges_collisions(self):
        space = Space.distribution(2)
        half = Outcome(space, ((0.0, 0.5), (1.0, 0.5)))
        out = compose(half, half)
        assert [p for p, _ in out.value] == [0.0, 1.0, 2.0]
        assert [w for _, w in out.value] == pytest.approx([0.25, 0.5, 0.25])

    def test_matrix_product_order(self):
        space = Space.matrix(2)
        x = Outcome(space, ((1.0, 1.0), (0.0, 1.0)))
        y = Outcome(space, ((1.0, 0.0), (1.0, 1.0)))
        assert compose(x, y).value != compose(y, x).value

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            compose(scalar(1.0), Outcome(Space.vector(2), (1.0, 2.0)))


class TestIdentity:
    @pytest.mark.parametrize("space,_", SPACE_STRATEGIES)
    def test_identity_utility_is_zero(self, space, _):
        u = Utility(space, tuple(0.7 for _ in _zero_coeffs(space)))
        assert evaluate(u, identity(space)) == pytest.approx(0.0, abs=1e-12)

    def test_examples(self):
        assert identity(Space.scalar()).value == 0.0
        assert identity(Space.matrix(2)).value == ((1.0, 0.0), (0.0, 1.0))
        assert identity(Space.prizes(("a",))).value == ()


def _zero_coeffs(space):
    sizes = {
        "real_scalar": 1,
        "real_vector": space.d,
        "mean_stddev": 2,
        "discrete_distribution": space.moment_order,
        "prize_stream": len(space.alphabet),
        "matrix": 1,
    }
    return (0.0,) * sizes[space.kind]


@pytest.mark.parametrize("space,strategy", SPACE_STRATEGIES)
def test_identity_neutral_under_composition(space, strategy):
    @given(strategy)
    def run(x):
        e = identity(space)
        assert outcomes_equal(compose(e, x), x, 1e-12)
        assert outcomes_equal(compose(x, e), x, 1e-12)

    run()


@pytest.mark.parametrize("space,strategy", SPACE_STRATEGIES)
def test_utility_additive_over_composition(space, strategy):
    @given(strategy, strategy, utility_for(space))
    def run(x, y, u):
        lhs = evaluate(u, compose(x, y))
        rhs = evaluate(u, x) + evaluate(u, y)
        assert abs(lhs - rhs) <= 1e-9

    run()


class TestEvaluate:
    def test_scalar(self):
        assert evaluate(Utility.scalar_beta(2.0), scalar(3.0)) == 6.0

    def test_log_det(self):
        space = Space.matrix(2)
        u = Utility.log_det(2, 1.0)
        x = Outcome(space, ((2.0, 0.0), (0.0, 3.0)))
        assert evaluate(u, x) == pytest.approx(math.log(6.0), abs=1e-12)

    def test_mean_variance(self):
        u = Utility.mean_variance(1.0, -0.5)
        x = Outcome(Space.mean_stddev(), (2.0, 1.0))
        assert evaluate(u, x) == pytest.approx(1.5)

    def test_prize_stream_counts(self):
        space = Space.prizes(("g", "h"))
        u = Utility.prize_values(space, {"g": 1.5, "h": -0.5})
        x = Outcome(space, ("g", "h", "g"))
        assert evaluate(u, x) == pytest.approx(2.5)

    def test_non_commutative_orders_agree(self):
        space = Space.prizes(PRIZES)
        u = Utility(space, (1.0, -2.0, 0.25))
        x = Outcome(space, ("gold", "silk"))
        y = Outcome(space, ("herb",))
        assert compose(x, y).value != compose(y, x).value
        assert evaluate(u, compose(x, y)) == pytest.approx(
            evaluate(u, compose(y, x)), abs=1e-12
        )


@pytest.mark.parametrize("space,strategy", SPACE_STRATEGIES)
def test_features_additive_over_composition(space, strategy):
    @given(strategy, strategy)
    def run(x, y):
        joint = np.array(features(compose(x, y)))
        split = np.add(features(x), features(y))
        assert joint.shape == np.shape(features(identity(space)))
        assert np.max(np.abs(joint - split)) <= 1e-9

    run()


def _closed_form(u, x):
    """Each space's utility written out by hand: beta x, w.x,
    gamma1 m + gamma2 sigma^2, sum gamma kappa, the sum of the prize
    values along the stream, beta ln|det|."""
    c = u.coeffs
    kind = x.space.kind
    if kind == "real_scalar":
        return c[0] * x.value
    if kind == "real_vector":
        return math.fsum(w * t for w, t in zip(c, x.value))
    if kind == "mean_stddev":
        m, s = x.value
        return c[0] * m + c[1] * s * s
    if kind == "discrete_distribution":
        return math.fsum(g * k for g, k in zip(c, cumulants(x, len(c))))
    if kind == "prize_stream":
        values = dict(zip(x.space.alphabet, c))
        return math.fsum(values[p] for p in x.value)
    return c[0] * float(np.linalg.slogdet(np.array(x.value))[1])


@pytest.mark.parametrize("space,strategy", SPACE_STRATEGIES)
def test_evaluate_matches_closed_forms(space, strategy):
    @given(strategy, utility_for(space))
    def run(x, u):
        # the absolute floor covers results that cancel to near zero
        assert evaluate(u, x) == pytest.approx(_closed_form(u, x), rel=1e-12, abs=1e-12)

    run()


@pytest.mark.parametrize("space,_", SPACE_STRATEGIES)
def test_basis_probes_span_the_features(space, _):
    matrix = np.array([features(p) for p in basis_probes(space)])
    k = len(features(identity(space)))
    assert matrix.shape == (k, k)
    if space.kind == "discrete_distribution":
        assert np.linalg.cond(matrix) < 1e10
    else:
        assert np.array_equal(matrix, np.eye(k))


class TestCumulants:
    def test_point_mass(self):
        space = Space.distribution(3)
        assert cumulants(point_mass(space, 2.5), 3) == pytest.approx((2.5, 0.0, 0.0))

    def test_bernoulli_half(self):
        # brute-force oracle: m1 = m2 = 1/2, kappa2 = m2 - m1^2
        space = Space.distribution(2)
        x = Outcome(space, ((0.0, 0.5), (1.0, 0.5)))
        m1 = 0.5 * 0.0 + 0.5 * 1.0
        m2 = 0.5 * 0.0 + 0.5 * 1.0
        assert cumulants(x, 2) == pytest.approx((m1, m2 - m1 * m1))

    def test_symmetric_mean_zero(self):
        space = Space.distribution(1)
        x = Outcome(space, ((-1.0, 0.5), (1.0, 0.5)))
        assert cumulants(x, 1) == pytest.approx((0.0,))

    def test_against_central_moment_formulas(self):
        # independent oracle: order-4 cumulants from central moments
        space = Space.distribution(4)
        x = Outcome(space, ((-1.0, 0.2), (0.5, 0.3), (2.0, 0.5)))
        pts = np.array([p for p, _ in x.value])
        ws = np.array([w for _, w in x.value])
        mean = float(ws @ pts)
        mu = [float(ws @ (pts - mean) ** k) for k in range(5)]
        expected = (mean, mu[2], mu[3], mu[4] - 3 * mu[2] ** 2)
        assert cumulants(x, 4) == pytest.approx(expected, abs=1e-12)

    @given(distribution_outcomes(4), distribution_outcomes(4))
    def test_additive_under_convolution(self, x, y):
        joint = cumulants(compose(x, y), 4)
        split = np.add(cumulants(x, 4), cumulants(y, 4))
        assert np.max(np.abs(np.array(joint) - split)) <= 1e-9


class TestValidation:
    def test_negative_sigma(self):
        with pytest.raises(ValueError):
            Outcome(Space.mean_stddev(), (0.0, -1.0))

    def test_probabilities_must_sum(self):
        with pytest.raises(ValueError):
            Outcome(Space.distribution(2), ((0.0, 0.5), (1.0, 0.6)))

    def test_probabilities_positive(self):
        with pytest.raises(ValueError):
            Outcome(Space.distribution(2), ((0.0, 0.0), (1.0, 1.0)))

    def test_singular_matrix(self):
        with pytest.raises(ValueError):
            Outcome(Space.matrix(2), ((1.0, 1.0), (1.0, 1.0)))

    @pytest.mark.parametrize(
        "space, payload",
        [
            (Space.scalar(), math.nan),
            (Space.scalar(), -math.inf),
            (Space.vector(2), (0.0, math.inf)),
            (Space.mean_stddev(), (math.nan, 1.0)),
            (Space.mean_stddev(), (0.0, math.inf)),
            (Space.distribution(2), ((0.0, 0.5), (math.inf, 0.5))),
            (Space.distribution(2), ((0.0, math.nan), (1.0, 1.0))),
            (Space.matrix(2), ((1.0, 0.0), (0.0, math.inf))),
            (Space.matrix(2), ((math.nan, 0.0), (0.0, 1.0))),
        ],
    )
    def test_non_finite_components(self, space, payload):
        with pytest.raises(ValueError):
            Outcome(space, payload)

    def test_prizes_outside_alphabet(self):
        with pytest.raises(ValueError):
            Outcome(Space.prizes(("a",)), ("b",))

    def test_utility_coeff_count(self):
        with pytest.raises(ValueError):
            Utility(Space.vector(3), (1.0, 2.0))
