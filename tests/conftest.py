import hypothesis
from hypothesis import strategies as st

import numpy as np

from stochoice import IARU, MNL, GumbelShock, Menu, Outcome, Space, Utility

hypothesis.settings.register_profile(
    "ci", max_examples=60, derandomize=True, deadline=None
)
hypothesis.settings.load_profile("ci")

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
positive = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)

PRIZES = ("gold", "silk", "herb")


def scalar_outcomes():
    return finite.map(lambda v: Outcome(Space.scalar(), v))


def vector_outcomes(d=3):
    return st.tuples(*[finite] * d).map(lambda v: Outcome(Space.vector(d), v))


def mean_stddev_outcomes():
    return st.tuples(finite, positive).map(
        lambda v: Outcome(Space.mean_stddev(), v)
    )


def distribution_outcomes(moment_order=4):
    space = Space.distribution(moment_order)

    def build(points, raw_weights):
        total = sum(raw_weights)
        return Outcome(
            space,
            tuple((p, w / total) for p, w in zip(points, raw_weights)),
        )

    # supports drawn on a coarse grid so points are exactly distinct
    points = st.lists(
        st.integers(min_value=-8, max_value=8).map(lambda k: k / 2.0),
        min_size=1,
        max_size=4,
        unique=True,
    )
    weights = st.lists(
        st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
        min_size=4,
        max_size=4,
    )
    return st.builds(
        lambda ps, ws: build(ps, ws[: len(ps)]), points, weights
    )


def stream_outcomes():
    space = Space.prizes(PRIZES)
    return st.lists(st.sampled_from(PRIZES), max_size=5).map(
        lambda seq: Outcome(space, tuple(seq))
    )


def matrix_outcomes(d=2):
    space = Space.matrix(d)
    entry = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)

    def build(flat):
        rows = [flat[i * d : (i + 1) * d] for i in range(d)]
        return rows

    return (
        st.lists(entry, min_size=d * d, max_size=d * d)
        .map(build)
        .filter(lambda rows: abs(np.linalg.det(np.array(rows))) > 1e-2)
        .map(lambda rows: Outcome(space, rows))
    )


def utility_for(space: Space):
    n = {
        "real_scalar": 1,
        "real_vector": space.d,
        "mean_stddev": 2,
        "discrete_distribution": space.moment_order,
        "prize_stream": len(space.alphabet),
        "matrix": 1,
    }[space.kind]
    return st.tuples(*[finite] * n).map(lambda cs: Utility(space, cs))


def iaru_equals_mnl_probe(beta, menus, tol):
    """Max probability deviation between IARU(Gumbel(beta)) and MNL(beta)."""
    iaru = IARU(GumbelShock(beta))
    mnl = MNL(beta)
    worst = 0.0
    for menu in menus:
        di = iaru.choose(menu)
        dm = mnl.choose(menu)
        for a in menu.actions:
            worst = max(worst, abs(di[a] - dm[a]))
    return worst <= tol, worst


def grid_lottery_menu():
    """Three lotteries on the support {0, 0.5, 1}, with weights that are
    not dyadic, so sums of products round."""
    space = Space.distribution(3)
    weights = [(0.2, 0.3, 0.5), (0.6, 0.1, 0.3), (0.25, 0.5, 0.25)]
    return Menu(space, tuple(
        (f"l{i}", Outcome(space, tuple(zip((0.0, 0.5, 1.0), w)))) for i, w in enumerate(weights)
    ))
