import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from stochoice import (
    Menu,
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
    power,
    product,
    scalar,
    spaces,
)
from stochoice import menus
from stochoice.spaces import MERGE_RTOL

from conftest import (
    PRIZES,
    distribution_outcomes,
    grid_lottery_menu,
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

    def test_overflowing_sum_raises(self):
        # 1e308 + 1e308 is inf, which must not merge into the run at 1e308
        space = Space.distribution(2)
        huge = Outcome(space, ((0.0, 0.5), (1e308, 0.5)))
        with pytest.raises(ValueError, match="outcome components must be finite"):
            compose(huge, huge)
        menu = Menu(space, (("a", huge),))
        with pytest.raises(ValueError, match="outcome components must be finite"):
            product(menu, menu)

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


EPS = np.finfo(float).eps


def _fsum_cumulants(x, n):
    """The per-outcome oracle: each raw moment one exact ``math.fsum``
    over the support, then the moment-to-cumulant recursion."""
    moments = [math.fsum(w * p**k for p, w in x.value) for k in range(n + 1)]
    kappas = []
    for order in range(1, n + 1):
        acc = moments[order]
        for k in range(1, order):
            acc -= math.comb(order - 1, k - 1) * kappas[k - 1] * moments[order - k]
        kappas.append(acc)
    return kappas


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

    @given(
        st.integers(min_value=0, max_value=8),
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8, unique=True),
        st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8),
    )
    @example(8, [-1e3], [1.0] * 8)
    @example(8, [-1e3, -999.5, 0.0, 0.25, 3.0, 500.0, 999.0, 1e3], [0.3] * 8)
    def test_rows_against_the_fsum_oracle(self, n, points, weights):
        # the stated bound: |kappa_j - oracle_j| <= 4 j! eps max(1, |p|)^j
        space = Space.distribution(n)
        total = sum(weights[: len(points)])
        try:
            x = Outcome(space, tuple((p, w / total) for p, w in zip(points, weights)))
        except ValueError:  # colliding points
            reject()
        row = spaces.feature_rows(space, [x])[0]
        scale = max(1.0, *(abs(p) for p in points))
        bound = [4 * math.factorial(j) * EPS * scale**j for j in range(1, n + 1)]
        assert np.all(np.abs(row - _fsum_cumulants(x, n)) <= bound)
        assert features(x) == cumulants(x, n) == tuple(row.tolist())

    @given(st.lists(distribution_outcomes(4), min_size=1, max_size=12))
    def test_rows_of_many_lotteries_are_their_one_row_views(self, xs):
        rows = spaces.feature_rows(Space.distribution(4), xs)
        assert rows.shape == (len(xs), 4)
        assert [tuple(r) for r in rows.tolist()] == [cumulants(x, 4) for x in xs]

    @given(distribution_outcomes(4), distribution_outcomes(4))
    def test_additive_under_convolution(self, x, y):
        joint = cumulants(compose(x, y), 4)
        split = np.add(cumulants(x, 4), cumulants(y, 4))
        assert np.max(np.abs(np.array(joint) - split)) <= 1e-9


class TestValidation:
    @pytest.mark.parametrize(
        "space, coeffs, named",
        [
            (Space.scalar(), (math.nan,), "{'beta': nan}"),
            (Space.mean_stddev(), (1.0, -math.inf), "{'gamma1': 1.0, 'gamma2': -inf}"),
            (Space.prizes(PRIZES), (0.0, math.inf, 1.0), "{'weights': {'gold': 0.0, 'silk': inf"),
        ],
    )
    def test_utility_coefficients_must_be_finite(self, space, coeffs, named):
        with pytest.raises(ValueError, match="coefficients must be finite") as err:
            Utility(space, coeffs)
        assert named in str(err.value)

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

    @pytest.mark.parametrize("pairs", [((0.0, 0.5), (math.inf, 0.5)),
                                       ((-math.inf, 0.5), (0.0, 0.5))])
    def test_infinite_support_point_is_named(self, pairs):
        with pytest.raises(ValueError, match="outcome components must be finite"):
            Outcome(Space.distribution(2), pairs)

    def test_prizes_outside_alphabet(self):
        with pytest.raises(ValueError):
            Outcome(Space.prizes(("a",)), ("b",))

    def test_utility_coeff_count(self):
        with pytest.raises(ValueError):
            Utility(Space.vector(3), (1.0, 2.0))


# ---- lottery composition against the pairwise loop ------------------------

LOTTERY_SPACE = Space.distribution(2)


def _sequential_collide(p, q):
    d = abs(p - q)
    return d < math.inf and d <= MERGE_RTOL * max(1.0, abs(p), abs(q))


def _sequential_convolve(xs, ys):
    """Pairwise convolution over Python tuples, term by term: all sums
    with multiplied probabilities, sorted, each term merged into the open
    run when it collides with the run's first point.  Lottery composition
    must reproduce it bit for bit."""
    sums = sorted((p + q, wp * wq) for p, wp in xs for q, wq in ys)
    merged: list[list[float]] = []
    for point, w in sums:
        if merged and _sequential_collide(merged[-1][0], point):
            merged[-1][1] += w
        else:
            merged.append([point, w])
    return tuple((p, w) for p, w in merged)


def _sequential_compose(x, y):
    return Outcome(x.space, _sequential_convolve(x.value, y.value))


def _exact(compute):
    """Each outcome's exact repr (which tells -0.0 from 0.0), or the
    message of the ValueError raised."""
    try:
        return [repr(o.value) for o in compute()]
    except ValueError as exc:
        return str(exc)


def _lottery(points, weights):
    return Outcome(LOTTERY_SPACE, tuple(zip(points, weights)))


# supports where sums collide exactly, chains of points spaced just over
# the merge tolerance (whose sums chain past it), signed zeros, and points
# whose sums overflow
_grid = st.lists(st.integers(-6, 6), min_size=1, max_size=5, unique=True).map(
    lambda ks: [k / 2 for k in ks]
)
_chain = st.builds(
    lambda start, gaps: [
        start + s * MERGE_RTOL * max(1.0, abs(start)) / 10 for s in itertools.accumulate(gaps)
    ],
    st.sampled_from([0.0, -1.5e-12, 3e-13, 1000.0]),
    st.lists(st.integers(11, 25), min_size=1, max_size=5),
)
_signed_zero = st.lists(st.sampled_from([-0.0, 0.0, -1.0, 1.0]), min_size=1, max_size=3)
_huge = st.lists(st.sampled_from([1e308, -1e308, 1.5e308, 1.0]), min_size=1, max_size=2)
# equal weights, weights whose products underflow to 0, and sums that a
# product pushes past PROB_SUM_TOL
_weight = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 1e-200]), st.floats(0.1, 1.0))


@st.composite
def _lotteries(draw):
    points = draw(st.one_of(_grid, _chain, _signed_zero, _huge))
    raw = draw(st.lists(_weight, min_size=len(points), max_size=len(points)))
    weights = [w / sum(raw) for w in raw]
    weights[0] += draw(st.sampled_from([0.0, 0.0, 9e-13, -9e-13]))
    try:
        return _lottery(points, weights)
    except ValueError:
        reject()


def _lottery_menu(prefix, lotteries):
    return Menu(LOTTERY_SPACE, tuple((f"{prefix}{i}", x) for i, x in enumerate(lotteries)))


class TestLotteryComposition:
    @settings(max_examples=250, deadline=None)
    @given(
        st.lists(_lotteries(), min_size=1, max_size=5),
        st.lists(_lotteries(), min_size=1, max_size=5),
        st.sampled_from([1, 7, 64, spaces._BLOCK]),
    )
    # sums -1.5, -0.4, 0, 0.7, 1.1 (e-12): adjacent points collide, but
    # 0.7 is past the tolerance from its run's first point -0.4
    @example([_lottery([0.0, 1.1e-12, 2.2e-12], [0.3, 0.3, 0.4])],
             [_lottery([0.0, -1.5e-12], [0.5, 0.5])], 1)
    # -0.0 and 0.0 tie: the smaller weight sorts first and names the point
    @example([_lottery([-0.0, 1.0], [0.5, 0.5])],
             [_lottery([-0.0, -1.0], [0.25, 0.75]), _lottery([0.0, -1.0], [0.75, 0.25])], 1)
    def test_product_matches_pairwise_convolution(self, xs, ys, block):
        # small blocks split the product between rows of the left menu
        with mock.patch.object(spaces, "_BLOCK", block):
            got = _exact(lambda: [o for _, o in product(_lottery_menu("x", xs),
                                                        _lottery_menu("y", ys)).entries])
            pair = _exact(lambda: [compose(xs[-1], ys[0])])
        assert got == _exact(lambda: [_sequential_compose(x, y) for x in xs for y in ys])
        assert pair == _exact(lambda: [_sequential_compose(xs[-1], ys[0])])

    def test_power_over_many_blocks(self):
        base = grid_lottery_menu()
        left = power(base, 5)
        big = product(left, base)
        terms = sum(len(x.value) * len(y.value) for _, x in left.entries for _, y in base.entries)
        assert terms > 4 * spaces._BLOCK
        assert [repr(o.value) for _, o in big.entries] == [
            repr(_sequential_compose(x, y).value) for _, x in left.entries for _, y in base.entries
        ]

    def test_blocks_stay_bounded_on_either_side(self):
        # a row too large for one block takes the right menu in slices
        sizes = []
        convolve_rows = spaces._convolve_rows

        def spy(space, x_rows, x_sizes, y_rows, y_sizes):
            sizes.append(x_rows[..., 0].size * y_rows[..., 0].size)
            return convolve_rows(space, x_rows, x_sizes, y_rows, y_sizes)

        big = power(grid_lottery_menu(), 6)
        one = Menu(big.space, (("s", Outcome(big.space, ((0.0, 0.5), (0.25, 0.5)))),))
        for left, right in ((one, big), (big, one)):
            with mock.patch.object(spaces, "_convolve_rows", spy):
                menu = product(left, right)
            assert [repr(o.value) for _, o in menu.entries] == [
                repr(_sequential_compose(x, y).value)
                for _, x in left.entries
                for _, y in right.entries
            ]
        assert len(sizes) > 2
        assert max(sizes) <= spaces._BLOCK


    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(_lotteries(), min_size=1, max_size=3),
        st.integers(2, 3),
        st.sampled_from([1, 64, spaces._BLOCK]),
    )
    # signed zeros keep their sign through -0.0 + -0.0
    @example([_lottery([-0.0, 1.0], [0.5, 0.5]), _lottery([0.0, -1.0], [0.75, 0.25])], 3, 1)
    # a chain of sums each within the tolerance of the next
    @example([_lottery([0.0, 1.1e-12, 2.2e-12], [0.3, 0.3, 0.4])], 3, 1)
    # 1e-200 * 1e-200 underflows to a zero weight
    @example([_lottery([0.0, 1.0], [1e-200, 1.0])], 2, 64)
    # 1e308 + 1e308 overflows to an infinite point
    @example([_lottery([1e308, -1.0], [0.5, 0.5])], 2, 64)
    def test_power_matches_pairwise_convolution(self, xs, n, block):
        # every step convolves the last step's rows with the base menu's;
        # the pairwise loop composes outcomes, and both give the first error
        def pairwise():
            acc = xs
            for _ in range(n - 1):
                acc = [_sequential_compose(a, x) for a in acc for x in xs]
            return acc

        with mock.patch.object(spaces, "_BLOCK", block):
            got = _exact(lambda: power(_lottery_menu("x", xs), n).outcomes)
        assert got == _exact(pairwise)

    def test_weight_sum_is_checked_exactly_near_the_tolerance(self):
        # times 1 - 2^-51 these weights sum in order to 1 - 0.99998e-12,
        # within the tolerance, but exactly (fsum) to 1 - 1.00009e-12
        x = _lottery([0.0, 1.0, 2.0, 3.0], [0.12802905250849722, 0.4014652729555932,
                                            0.08948427004310511, 0.3810214044918048])
        y = _lottery([0.0], [0.9999999999999996])
        for compute in (
            lambda: _sequential_compose(x, y),
            lambda: compose(x, y),
            lambda: product(_lottery_menu("x", [x]), _lottery_menu("y", [y])),
        ):
            with pytest.raises(ValueError, match="distribution probabilities must sum to 1"):
                compute()

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(_lotteries(), min_size=1, max_size=4),
        st.lists(_lotteries(), min_size=1, max_size=4),
        st.booleans(),
    )
    # rows equal in value but not in bits: "-0" and "0" stay apart
    @example([_lottery([-0.0, 1.0], [0.5, 0.5]), _lottery([0.0, 1.0], [0.5, 0.5])] * 2,
             [_lottery([-0.0], [1.0])], True)
    def test_product_text_from_rows_is_the_outcome_text(self, xs, ys, shared):
        # either side of _SHARED_TEXTS_MIN, a lottery product's canonical
        # text is formatted from its rows without building its outcomes
        try:
            menu = product(_lottery_menu("x", xs), _lottery_menu("y", ys))
        except ValueError:
            reject()
        with mock.patch.object(menus, "_SHARED_TEXTS_MIN", 0 if shared else len(menu) + 1):
            body = menus._canonical_parts(menu)[1]
        assert "outcomes" not in vars(menu)
        assert body == sorted(
            f"{s}={spaces._canonical_text(o, spaces._number_text)}"
            for s, o in zip(menu.ids, menu.outcomes)
        )

    @pytest.mark.parametrize("n", [4, 5])
    def test_power_text_from_rows_on_either_side_of_the_threshold(self, n):
        menu = power(grid_lottery_menu(), n)
        assert (len(menu) >= menus._SHARED_TEXTS_MIN) == (n == 5)
        body = menus._canonical_parts(menu)[1]
        assert body == sorted(
            f"{s}={spaces._canonical_text(o, spaces._number_text)}"
            for s, o in zip(menu.ids, menu.outcomes)
        )
