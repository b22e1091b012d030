"""Product menus and choice distributions held as arrays.

A product menu keeps its factors and sums their feature rows ``phi``; a
scalar one holds its outcomes as the column ``values`` and builds
``entries`` only when asked.  A rule's distribution holds a list
aligned with its menu's entries.  Each is checked against the plain
menu ``Menu(space, entries)`` built from outcomes composed pair by pair
with ``compose``.
"""

import copy
import gc
import json
import math
import pickle
import sys
import tracemalloc
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import stochoice.menus
import stochoice.spaces
from stochoice import (
    IARU,
    MNL,
    ChoiceDistribution,
    GeneralMNL,
    GumbelShock,
    Menu,
    Outcome,
    Perturbed,
    Space,
    SpaceMismatchError,
    Uniform,
    Utility,
    action_str,
    certify_closeness,
    compose,
    diagonal_action,
    features,
    menu_hash,
    menu_of,
    power,
    probit,
    product,
    scalar_menu,
    unit_binary_menu,
    upsilon,
)

from conftest import Tabular, grid_lottery_menu

SCALAR = Space.scalar()

# a recipe is ("leaf", {label: value}), ("product", left, right) or
# ("power", recipe, n); labels come from a few letters, the empty one
# included, and values are awkward to add exactly
_labels = st.text("abxy", max_size=2)
_values = st.sampled_from([0.0, -0.0, 0.1, 0.2, 1.0 / 3.0, -2.5, 1e-13, 7e5])
_leaves = st.dictionaries(_labels, _values, min_size=1, max_size=3).map(lambda d: ("leaf", d))


def size(recipe) -> int:
    if recipe[0] == "leaf":
        return len(recipe[1])
    if recipe[0] == "product":
        return size(recipe[1]) * size(recipe[2])
    return size(recipe[1]) ** recipe[2]


# nested powers could grow without bound; a thousand actions is plenty
recipes = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.tuples(st.just("product"), inner, inner),
        st.tuples(st.just("power"), inner, st.integers(1, 3)),
    ),
    max_leaves=3,
).filter(lambda r: size(r) <= 1000)


def build(recipe) -> Menu:
    if recipe[0] == "leaf":
        return scalar_menu(recipe[1])
    if recipe[0] == "product":
        return product(build(recipe[1]), build(recipe[2]))
    return power(build(recipe[1]), recipe[2])


def composed_entries(m1_entries, m2_entries):
    return [((a1, a2), compose(x, y)) for a1, x in m1_entries for a2, y in m2_entries]


def oracle(recipe) -> Menu:
    """The same menu, its outcomes composed pair by pair and validated
    by ``Menu(space, entries)``."""
    if recipe[0] == "leaf":
        return scalar_menu(recipe[1])
    if recipe[0] == "product":
        entries = composed_entries(oracle(recipe[1]).entries, oracle(recipe[2]).entries)
    else:
        base = oracle(recipe[1]).entries
        entries = base
        for _ in range(recipe[2] - 1):
            entries = composed_entries(entries, base)
    return Menu(SCALAR, entries)


def assert_same_menu(built: Menu, plain: Menu, scalar: bool) -> None:
    """What needs no entries is compared first, then the entries."""
    if scalar:
        assert built.values.tolist() == plain.values.tolist()
        assert not built.values.flags.writeable
    assert built.ids == plain.ids == tuple(map(action_str, plain.actions))
    assert len(built) == len(plain)
    for i, a in enumerate(plain.actions):
        assert built.index(a) == plain.index(a) == i
    assert menu_hash(built) == menu_hash(plain)
    assert built.entries == plain.entries
    assert built.actions == plain.actions
    assert built.outcomes == plain.outcomes
    assert built == plain and plain == built
    assert hash(built) == hash(plain)
    assert repr(built) == repr(plain)
    assert built.to_json() == plain.to_json()


class TestProductMenus:
    @given(recipes)
    def test_product_is_the_plain_menu(self, recipe):
        assert_same_menu(build(recipe), oracle(recipe), scalar=True)

    def test_lottery_product_is_the_plain_menu(self):
        lotteries = grid_lottery_menu()
        space = lotteries.space
        square = Menu(space, composed_entries(lotteries.entries, lotteries.entries))
        cube = Menu(space, composed_entries(square.entries, lotteries.entries))
        assert_same_menu(power(lotteries, 3), cube, scalar=False)
        assert_same_menu(product(lotteries, lotteries), square, scalar=False)
        with pytest.raises(SpaceMismatchError):
            power(lotteries, 2).values

    @pytest.mark.parametrize("k, n", [(1, 5), (2, 10), (3, 6)])
    def test_diagonal_sits_at_the_repunit_index(self, k, n):
        base = scalar_menu({f"c{i}": float(i) for i in range(k)})
        menu = power(base, n)
        step = sum(k**j for j in range(n))  # (k^n - 1) / (k - 1)
        for i, a in enumerate(base.actions):
            assert menu.index(diagonal_action(a, n)) == i * step
            assert menu.values[i * step] == n * float(i)

    def test_absent_actions_raise_key_error(self):
        square = product(unit_binary_menu(), unit_binary_menu())
        for a in ("b0", ("b0", "b2"), ("b0", "b1", "b1"), (("b0", "b1"), "b1")):
            with pytest.raises(KeyError):
                square.index(a)

    def test_non_finite_sum_raises(self):
        big = scalar_menu({"a": 1e308, "b": 0.0})
        with pytest.raises(ValueError, match="outcome components must be finite"):
            product(big, big)

    def test_pickle_and_copy_rebuild_the_menu(self):
        square = product(unit_binary_menu(), unit_binary_menu())
        dist = Perturbed(MNL(1.0), 0.05, 7).choose(square)
        for menu in (square, pickle.loads(pickle.dumps(square)), copy.deepcopy(square)):
            assert menu == square and menu.ids == square.ids
        assert pickle.loads(pickle.dumps(dist)) == dist == copy.deepcopy(dist)

    def test_menus_are_immutable(self):
        square = product(unit_binary_menu(), unit_binary_menu())
        with pytest.raises(AttributeError):
            square.space = Space.vector(1)
        with pytest.raises(AttributeError):
            del unit_binary_menu().space


# a few outcomes of each space; matrices are well conditioned, so ln|det|
# of their products keeps its digits
FEATURE_POOLS = {
    "scalar": (Space.scalar(), [0.0, 0.1, -2.5, 1.0 / 3.0]),
    "vector": (Space.vector(2), [(0.1, 0.2), (-2.5, 1.0 / 3.0), (7e5, -0.0)]),
    "mean_stddev": (Space.mean_stddev(), [(0.1, 0.2), (-2.5, 1.0 / 3.0), (1.0, 0.0)]),
    "lottery": (
        Space.distribution(3),
        [((0.0, 0.2), (0.5, 0.3), (1.0, 0.5)), ((0.25, 1.0),), ((-0.5, 0.6), (1.5, 0.4))],
    ),
    "lottery_k0": (Space.distribution(0), [((0.0, 0.2), (0.5, 0.8)), ((0.25, 1.0),)]),
    "prizes": (Space.prizes(("g", "s")), [(), ("g",), ("s", "g", "g")]),
    "matrix": (
        Space.matrix(2),
        [((2.0, 0.0), (0.0, 1.0)), ((1.0, 1.0), (0.0, 1.0)), ((0.0, -1.0), (1.0, 0.0))],
    ),
}
# where phi's sums of factor rows agree with features of the composed
# outcome bit for bit; elsewhere they round differently
EXACT_FEATURES = ("scalar", "vector", "prizes")

_feature_recipes = st.recursive(
    st.dictionaries(_labels, st.integers(0, 2), min_size=1, max_size=3).map(
        lambda d: ("leaf", d)
    ),
    lambda inner: st.one_of(
        st.tuples(st.just("product"), inner, inner),
        st.tuples(st.just("power"), inner, st.integers(1, 3)),
    ),
    max_leaves=3,
).filter(lambda r: size(r) <= 64)


def build_in(kind, recipe) -> Menu:
    if recipe[0] == "leaf":
        space, pool = FEATURE_POOLS[kind]
        return menu_of(space, {a: pool[i % len(pool)] for a, i in recipe[1].items()})
    if recipe[0] == "product":
        return product(build_in(kind, recipe[1]), build_in(kind, recipe[2]))
    return power(build_in(kind, recipe[1]), recipe[2])


class TestFeatureRows:
    @pytest.mark.parametrize("kind", sorted(FEATURE_POOLS))
    @given(recipe=_feature_recipes)
    def test_rows_are_the_features_of_the_composed_outcomes(self, kind, recipe):
        built = build_in(kind, recipe)
        plain = Menu(built.space, built.entries)
        k = len(features(plain.outcomes[0]))
        expected = np.array([features(o) for o in plain.outcomes]).reshape(len(plain), k)
        assert built.phi.shape == plain.phi.shape == (len(plain), k)
        assert plain.phi.tolist() == expected.tolist()
        if kind in EXACT_FEATURES:
            assert built.phi.tolist() == expected.tolist()
        else:
            np.testing.assert_allclose(built.phi, expected, rtol=1e-12, atol=1e-12)
        for menu in (built, plain):
            assert not menu.phi.flags.writeable
            with pytest.raises(ValueError):
                menu.phi[0] = 1.0

    @pytest.mark.parametrize("kind", sorted(FEATURE_POOLS))
    @given(recipe=_feature_recipes)
    def test_general_mnl_agrees_with_the_plain_menu(self, kind, recipe):
        built = build_in(kind, recipe)
        plain = Menu(built.space, built.entries)
        k = plain.phi.shape[1]
        rule = GeneralMNL(Utility(built.space, [0.7, -0.4, 0.2][:k] + [0.3] * (k - 3)))
        np.testing.assert_allclose(
            rule.choose(built).p, rule.choose(plain).p, rtol=1e-12, atol=1e-12
        )


def _rules():
    table = Tabular.from_entries(
        [(scalar_menu({"a": 0.0}), {"a": 1.0})], fallback=Perturbed(Uniform(), 0.1, 3)
    )
    return [
        MNL(0.7),
        MNL(math.inf),
        MNL(-math.inf),
        GeneralMNL(Utility.scalar_beta(-1.3)),
        IARU(GumbelShock(1.0)),
        Uniform(),
        table,
        Perturbed(MNL(1.5), 0.05, 7),
        Perturbed(probit(), 0.05, 7),
    ]


RULES = _rules()


def assert_views_agree(dist: ChoiceDistribution, menu: Menu) -> None:
    p = dist.aligned(menu)
    assert len(p) == len(menu)
    assert [dist[a] for a in menu.actions] == p
    assert list(dist.items()) == list(zip(menu.actions, p))
    assert dist.probs == dict(zip(menu.actions, p))
    assert dist.to_json() == dict(zip(menu.ids, p))
    assert json.loads(json.dumps(dist.to_json())) == dist.to_json()


class TestDistributions:
    @pytest.mark.parametrize("rule", RULES, ids=lambda r: type(r).__name__)
    @given(recipe=recipes)
    def test_views_agree_on_product_and_plain_menus(self, rule, recipe):
        built, plain = build(recipe), oracle(recipe)
        dist = rule.choose(built)
        assert_views_agree(dist, built)
        twin = rule.choose(plain)
        assert_views_agree(twin, plain)
        assert dist.aligned(built) == twin.aligned(plain)
        # a distribution read through an equal menu that is not its own
        assert dist.aligned(plain) == twin.aligned(built)

    def test_mapping_and_array_forms_are_equal(self):
        menu = scalar_menu({"a": 0.0, "b": 1.0})
        dist = MNL(1.0).choose(menu)
        twin = Menu(menu.space, menu.entries)
        assert twin is not menu
        assert dist == ChoiceDistribution(twin, list(dist.p))
        assert repr(dist) == repr(ChoiceDistribution(twin, list(dist.p)))

    @pytest.mark.parametrize(
        "p, message",
        [
            ([-0.1, 1.1], "negative or NaN"),
            ([math.nan, 1.0], "negative or NaN"),
            ([0.6, 0.6], "sum to 1.2"),
            ([1.0], "1 probabilities for 2 actions"),
        ],
    )
    def test_array_form_validates(self, p, message):
        with pytest.raises(ValueError, match=message):
            ChoiceDistribution(unit_binary_menu(), p)


def test_product_paths_build_no_outcomes(monkeypatch):
    # the scalar product paths that power menus take read values, ids
    # and indices only: no menu larger than the base has its entries or
    # outcomes built, and nothing is composed outcome by outcome
    unit = unit_binary_menu()
    rule = Perturbed(MNL(1.0), 0.05, 7)
    sizes, calls = [], {"compose": 0, "_trusted_outcome": 0}
    for name in ("entries", "outcomes"):
        getter = Menu.__dict__[name].func
        spy = cached_property(lambda self, get=getter: (sizes.append(len(self)), get(self))[1])
        spy.__set_name__(Menu, name)
        monkeypatch.setattr(Menu, name, spy)
    for module, name in ((stochoice.spaces, "compose"), (stochoice.menus, "_trusted_outcome")):
        original = getattr(module, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    dist = rule.choose(power(unit, 14))
    assert len(dist.aligned(power(unit, 14))) == 2**14
    est = upsilon(rule, unit, 14)
    cert = certify_closeness(rule, [unit, power(unit, 12)])

    assert max(sizes) <= len(unit)
    assert calls == {"compose": 0, "_trusted_outcome": 0}
    assert set(est.distribution.to_json()) == {"b0", "b1"}
    assert len(cert.shocks[1][1]) == 2**12


def test_power_retains_only_the_final_menu():
    # each inner power lives on only as a factor, with its derived values
    # dropped: what stays is the final menu's ids and values
    unit = unit_binary_menu()
    unit.ids, unit.phi
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        menu = power(unit, 16)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    own = sys.getsizeof(menu.ids) + sum(map(sys.getsizeof, menu.ids)) + menu.values.nbytes
    assert retained < 1.3 * own


def test_json_menu_checks_duplicates_on_id_strings():
    # ids read from a file are valid by construction; a duplicate is
    # still named
    data = {"space": {"kind": "real_scalar"},
            "actions": [{"id": "(a,b)", "outcome": 0}, {"id": "c", "outcome": 1},
                        {"id": "(a,b)", "outcome": 2}]}
    with pytest.raises(ValueError, match=r"duplicate action id: \(a,b\)"):
        Menu.from_json(data)
    with pytest.raises(ValueError, match="at least one action"):
        Menu.from_json({"space": {"kind": "real_scalar"}, "actions": []})
    menu = Menu.from_json({**data, "actions": data["actions"][:2]})
    assert menu.ids == ("(a,b)", "c")
    assert menu.actions == (("a", "b"), "c")
    assert menu == Menu(menu.space, menu.entries)
    assert all(isinstance(o, Outcome) for o in menu.outcomes)
