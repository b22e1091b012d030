import gc
import hashlib
import itertools
import json
import tracemalloc
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stochoice import (
    Menu,
    Outcome,
    Space,
    SpaceMismatchError,
    action_from_str,
    action_str,
    diagonal_action,
    equivalent,
    menu_hash,
    menu_of,
    power,
    product,
    scalar_menu,
    unit_binary_menu,
)

from stochoice import menus
from stochoice.menus import _parse_id, _read_ids

from conftest import PRIZES, canonical_key, grid_lottery_menu


def outcomes_of(menu):
    return [o.value for _, o in menu.entries]


class TestProduct:
    def test_scalar_example(self):
        m1 = scalar_menu({"a": 0.0, "b": 1.0})
        m2 = scalar_menu({"p": 0.0, "q": 1.0})
        joint = product(m1, m2)
        assert joint.actions == (("a", "p"), ("a", "q"), ("b", "p"), ("b", "q"))
        assert outcomes_of(joint) == [0.0, 1.0, 1.0, 2.0]

    def test_unit_binary_square(self):
        unit = scalar_menu({"b0": 0.0, "b1": 1.0})
        square = product(unit, unit)
        assert sorted(outcomes_of(square)) == [0.0, 1.0, 1.0, 2.0]

    def test_identity_outcome_action(self):
        m = scalar_menu({"a": 2.0, "b": -1.0})
        e = scalar_menu({"noop": 0.0})
        assert outcomes_of(product(m, e)) == outcomes_of(m)

    def test_space_mismatch(self):
        m = scalar_menu({"a": 1.0})
        v = menu_of(Space.vector(2), {"a": (1.0, 2.0)})
        with pytest.raises(SpaceMismatchError):
            product(m, v)

    @given(st.integers(1, 4), st.integers(1, 4))
    def test_size_multiplies(self, n1, n2):
        m1 = scalar_menu({f"a{i}": float(i) for i in range(n1)})
        m2 = scalar_menu({f"b{i}": float(i) for i in range(n2)})
        assert len(product(m1, m2)) == n1 * n2


class TestPower:
    def test_one_is_identity(self):
        m = scalar_menu({"a": 1.0, "b": 2.0})
        assert power(m, 1) is m

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            power(scalar_menu({"a": 1.0}), 0)

    def test_cube_hamming_weights(self):
        unit = scalar_menu({"b0": 0.0, "b1": 1.0})
        cube = power(unit, 3)
        # oracle: exhaustive enumeration of coordinate sums
        expected = sorted(
            float(sum(bits)) for bits in itertools.product((0, 1), repeat=3)
        )
        assert sorted(outcomes_of(cube)) == expected

    def test_size_is_exponential(self):
        m = scalar_menu({"a": 0.0, "b": 1.0, "c": 2.0})
        assert len(power(m, 4)) == 81

    def test_diagonal_action_matches_nesting(self):
        m = scalar_menu({"a": 0.0, "b": 1.0})
        cube = power(m, 3)
        assert diagonal_action("b", 3) in cube.actions
        assert cube.outcomes[cube.index(diagonal_action("b", 3))].value == 3.0


class TestEquivalent:
    def test_relabeling(self):
        m1 = scalar_menu({"a": 1.0, "b": 2.0})
        m2 = scalar_menu({"x": 2.0, "y": 1.0})
        assert equivalent(m1, m2) == {"a": "y", "b": "x"}

    def test_mismatch(self):
        m1 = scalar_menu({"a": 1.0, "b": 2.0})
        m2 = scalar_menu({"x": 1.0, "y": 3.0})
        assert equivalent(m1, m2) is None

    def test_product_permutation(self):
        m1 = scalar_menu({"a": 0.5, "b": 1.5})
        m2 = scalar_menu({"p": -1.0, "q": 2.0})
        joint = product(m1, m2)
        shuffled = Menu(joint.space, tuple(reversed(joint.entries)))
        mapping = equivalent(joint, shuffled)
        assert mapping is not None
        for a, b in mapping.items():
            assert joint.outcomes[joint.index(a)].value == shuffled.outcomes[shuffled.index(b)].value

    def test_streams_compare_exactly(self):
        space = Space.prizes(PRIZES)
        m1 = menu_of(space, {"a": ("gold",), "b": ("silk",)})
        m2 = menu_of(space, {"x": ("silk",), "y": ("gold",)})
        assert equivalent(m1, m2) == {"a": "y", "b": "x"}

    def test_matching_within_tolerance_is_not_greedy(self):
        # sorting pairs p with s and fails; only p-r, q-s match within 1e-9
        space = Space.vector(2)
        m1 = menu_of(space, {"p": (0.0, 1.0), "q": (1e-10, 0.0)})
        m2 = menu_of(space, {"r": (1e-10, 1.0), "s": (0.0, 0.0)})
        assert equivalent(m1, m2) == {"p": "r", "q": "s"}

    def test_associativity_up_to_relabeling(self):
        m = scalar_menu({"a": 0.0, "b": 1.0})
        left = product(product(m, m), m)
        right = product(m, product(m, m))
        assert equivalent(left, right) is not None


class TestActionIds:
    def test_round_trip(self):
        a = (("x", "y"), ("z", ("w", "v")))
        assert action_from_str(action_str(a)) == a

    def test_serialization_shape(self):
        assert action_str(("a", "b")) == "(a,b)"

    def test_round_trip_20_deep(self):
        left = diagonal_action("x", 21)
        right = "y"
        for i in range(20):
            right = (f"r{i}", right)
        mixed = ("m", "")
        for i in range(20):
            mixed = (mixed, f"m{i}") if i % 2 else (f"m{i}", mixed)
        for a in (left, right, mixed, (left, right)):
            s = action_str(a)
            assert action_from_str(s) == a
            assert action_str(action_from_str(s)) == s

    @pytest.mark.parametrize(
        "s",
        ["(a,bc", "(a,b", "((a,b),c", "(a,b)c", "(a)", "()", "(a,b,c)", "a,b", "a)", "(a,b))",
         # near misses of "(L,atom)"
         "a,b)", ",a)", "((a,b,c),d)", "((a,b),c,)", "(a,b),c)", "((a,b)c,d)"],
    )
    def test_malformed_ids_rejected(self, s):
        with pytest.raises(ValueError, match="malformed action id"):
            action_from_str(s)

    def test_reserved_characters_rejected(self):
        with pytest.raises(ValueError):
            scalar_menu({"a,b": 1.0})

    def test_duplicate_ids_rejected(self):
        space = Space.scalar()
        with pytest.raises(ValueError):
            Menu(space, (("a", Outcome(space, 1.0)), ("a", Outcome(space, 2.0))))


# small scalar menus with labels drawn from a few letters (the empty
# label included), nested by product and power up to about 10^3 actions
_labels = st.text("abxy", max_size=2)
_leaves = st.dictionaries(_labels, st.integers(-3, 3).map(float), min_size=1, max_size=3).map(
    scalar_menu
)


def _nest(children):
    return st.one_of(
        st.tuples(children, children).map(lambda p: product(*p)),
        st.tuples(children, st.integers(1, 3)).map(lambda p: power(*p)),
    )


nested_menus = st.recursive(_leaves, _nest, max_leaves=3)


class TestIds:
    @given(nested_menus)
    def test_ids_serialize_the_actions(self, menu):
        expected = tuple(map(action_str, menu.actions))
        assert menu.ids == expected
        back = Menu.from_json(json.loads(json.dumps(menu.to_json())))
        assert back.ids == expected
        assert Menu(menu.space, menu.entries).ids == expected

    @given(nested_menus, nested_menus)
    def test_three_constructions_are_one_menu(self, m1, m2):
        built = product(m1, m2)
        read = Menu.from_json(built.to_json())
        constructed = Menu(built.space, built.entries)
        assert built == read == constructed
        assert hash(built) == hash(read) == hash(constructed)
        assert {built: "x"}[read] == {read: "x"}[constructed] == "x"
        assert menu_hash(built) == menu_hash(read) == menu_hash(constructed)
        assert repr(built) == repr(constructed)

    def test_ids_are_not_a_field(self):
        m = product(scalar_menu({"a": 0.0}), scalar_menu({"b": 1.0}))
        assert m.ids == ("(a,b)",)
        assert "(a,b)" not in repr(m)
        with pytest.raises(TypeError):
            Menu(m.space, m.entries, ("(a,b)",))


def _read_one(s):
    """(True, id) or (False, message) for one id read alone."""
    try:
        return True, action_from_str(s)
    except ValueError as exc:
        return False, str(exc)


class TestIdReader:
    """A batch of ids is read through one memo of left parts; each id
    reads as the stack parser reads it alone, or raises its error."""

    @given(nested_menus, st.lists(st.text("(),ab", max_size=12), max_size=30), st.data())
    def test_batch_reads_as_one_id_at_a_time(self, menu, texts, data):
        # one-character edits of the menu's ids: near misses that share
        # left parts with the ids themselves
        for s in data.draw(st.lists(st.sampled_from(menu.ids), max_size=20)):
            j = data.draw(st.integers(0, len(s)))
            edit = data.draw(st.sampled_from(["", *"(),ab"]))
            texts.append(s[:j] + edit + s[j + data.draw(st.integers(0, 1)) :])
        texts = [*menu.ids, *texts]
        data.draw(st.randoms()).shuffle(texts)
        alone = [_read_one(s) for s in texts]
        for s, (ok, read) in zip(texts, alone):
            if ok:
                assert read == _parse_id(s, s)
            else:
                assert read == f"malformed action id: {s!r}"
                with pytest.raises(ValueError, match="malformed action id"):
                    _parse_id(s, s)
        good = [s for s, (ok, _) in zip(texts, alone) if ok]
        assert list(_read_ids(good)) == [read for ok, read in alone if ok]
        assert set(menu.ids) <= set(good)
        for s, (ok, message) in zip(texts, alone):
            if not ok:
                # after every good id, so the memo holds their left parts
                with pytest.raises(ValueError) as exc:
                    list(_read_ids([*good, s]))
                assert str(exc.value) == message

    def test_memo_lives_only_for_one_read(self, monkeypatch):
        readers = []
        read_ids = menus._read_ids

        def recording(texts):
            reader = read_ids(texts)
            readers.append(weakref.ref(reader))
            return reader

        monkeypatch.setattr(menus, "_read_ids", recording)
        data = power(scalar_menu({"x0": 0.0, "x1": 1.0}), 3).to_json()
        m1 = Menu.from_json(data)
        m2 = Menu.from_json(data)
        assert len(readers) == 2
        assert all(ref() is None for ref in readers)
        # left parts are shared within one read, never across reads
        assert m1.actions[0][0] == ("x0", "x0")
        assert m1.actions[0][0] is m1.actions[1][0]
        assert m2.actions[0][0] is not m1.actions[0][0]


class TestJson:
    @pytest.mark.parametrize(
        "menu",
        [
            scalar_menu({"a": 1.5, "b": -2.0}),
            menu_of(Space.vector(2), {"a": (1.0, 2.0), "b": (0.0, -1.0)}),
            menu_of(Space.mean_stddev(), {"a": (5.0, 2.0), "b": (20.0, 100.0)}),
            menu_of(
                Space.distribution(2),
                {"a": ((0.0, 0.5), (1.0, 0.5)), "b": ((2.0, 1.0),)},
            ),
            menu_of(Space.prizes(PRIZES), {"a": ("gold", "silk"), "b": ()}),
            menu_of(
                Space.matrix(2),
                {"a": ((1.0, 0.0), (0.0, 1.0)), "b": ((2.0, 0.0), (0.0, 3.0))},
            ),
        ],
    )
    def test_round_trip(self, menu):
        data = json.loads(json.dumps(menu.to_json()))
        assert Menu.from_json(data) == menu

    def test_pair_ids_round_trip(self):
        m = product(scalar_menu({"a": 0.0, "b": 1.0}), scalar_menu({"p": 2.0}))
        assert Menu.from_json(m.to_json()) == Menu(m.space, m.entries)


class TestCanonical:
    def test_key_ignores_entry_order(self):
        m1 = scalar_menu({"a": 1.0, "b": 2.0})
        m2 = Menu(m1.space, tuple(reversed(m1.entries)))
        assert canonical_key(m1) == canonical_key(m2)
        assert menu_hash(m1) == menu_hash(m2)

    def test_key_depends_on_outcomes(self):
        m1 = scalar_menu({"a": 1.0, "b": 2.0})
        m2 = scalar_menu({"a": 1.0, "b": 2.5})
        assert menu_hash(m1) != menu_hash(m2)

    def test_empty_menu_rejected(self):
        with pytest.raises(ValueError):
            Menu(Space.scalar(), ())


def _golden_menus():
    lottery = Space.distribution(3)
    streams = Space.prizes(PRIZES)
    return {
        "scalar": scalar_menu({"a": 0.5, "b": -1.25, "c": 2.0}),
        "lottery": Menu(
            lottery,
            (
                ("x", Outcome(lottery, ((0.0, 0.5), (1.0, 0.5)))),
                ("y", Outcome(lottery, ((-0.5, 0.25), (0.5, 0.75)))),
                ("z", Outcome(lottery, ((0.25, 1.0),))),
            ),
        ),
        "streams": Menu(
            streams,
            (
                ("s1", Outcome(streams, ("gold", "silk"))),
                ("s2", Outcome(streams, ())),
                ("s3", Outcome(streams, ("herb", "herb", "gold"))),
            ),
        ),
    }


# canonical keys, digests and Perturbed(MNL(1), 0.05, seed 7) shocks as
# released in 0.1.0; perturbed test subjects must stay reproducible
GOLDEN = {
    "scalar": (
        "real_scalar/0/0/#a=0.5;b=-1.25;c=2",
        1125324225986066118,
        (-0.03572218781883485, 0.0068535824959577996, -0.03875801139000961),
    ),
    "lottery": (
        "discrete_distribution/0/3/#x=0:0.5|1:0.5;y=-0.5:0.25|0.5:0.75;z=0.25:1",
        4579776721889978676,
        (0.004897224964900937, 0.008543968954256066, 0.027025354558075157),
    ),
    "streams": (
        "prize_stream/0/0/gold,silk,herb#s1=gold|silk;s2=;s3=herb|herb|gold",
        3462508383459330571,
        (-0.037150462455851095, 0.006831401281879601, 0.023345415961706306),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_canonical_encoding_is_pinned(name):
    from stochoice import MNL, Perturbed

    menu = _golden_menus()[name]
    key, digest, shocks = GOLDEN[name]
    assert canonical_key(menu) == key
    assert menu_hash(menu) == digest
    rule = Perturbed(MNL(1.0), 0.05, 7)
    assert tuple(rule.shock(menu, a) for a in menu.actions) == shocks


@pytest.mark.parametrize("name", sorted(GOLDEN) + ["power"])
def test_choose_applies_the_pinned_shocks(name):
    # choose and shock share one shock path: each probability is the base
    # probability times exp(shock), over the exact sum of those terms
    import math

    from stochoice import MNL, Perturbed, Uniform

    menu = power(unit_binary_menu(), 6) if name == "power" else _golden_menus()[name]
    base_rule = MNL(1.0) if menu.space == Space.scalar() else Uniform()
    rule = Perturbed(base_rule, 0.05, 7)
    base = base_rule.choose(menu)
    terms = {a: base[a] * math.exp(rule.shock(menu, a)) for a in menu.actions}
    total = math.fsum(terms.values())
    dist = rule.choose(menu)
    assert [dist[a] for a in menu.actions] == [terms[a] / total for a in menu.actions]


@pytest.mark.parametrize(
    "menu, seed",
    [(scalar_menu({"a": 0.0, "b": 1.0, "c": 2.0}), 1), (unit_binary_menu(), 324)],
    ids=["overflow", "underflow"],
)
def test_choose_shifts_shocks_past_the_float_range(menu, seed):
    # at seed 1 a shock of 844 overflows exp; at seed 324 the shocks are
    # -946 and -945, whose exps both underflow to 0.  Shifted by the
    # largest shock, each probability is its exp(shock) over their sum.
    import math

    from stochoice import Perturbed, Uniform

    rule = Perturbed(Uniform(), 1000, seed)
    shocks = [rule.shock(menu, a) for a in menu.actions]
    assert max(shocks) > 709.8 or max(shocks) < -745.2
    dist = rule.choose(menu)
    terms = [math.exp(s - max(shocks)) for s in shocks]
    expected = [t / math.fsum(terms) for t in terms]
    assert dist.aligned(menu) == pytest.approx(expected, rel=1e-12, abs=1e-300)
    assert math.fsum(dist.aligned(menu)) == pytest.approx(1.0, abs=1e-12)


def test_menu_hash_is_kept_on_the_menu(monkeypatch):
    # three choices from one power menu encode it once
    import stochoice.menus
    from stochoice import MNL, Perturbed

    sizes = []
    encode = stochoice.menus._canonical_parts
    monkeypatch.setattr(
        stochoice.menus, "_canonical_parts", lambda m: (sizes.append(len(m)), encode(m))[1]
    )
    menu = power(unit_binary_menu(), 12)
    rule = Perturbed(MNL(1.0), 0.05, 7)
    first, second, third = (rule.choose(menu) for _ in range(3))
    assert sizes == [4096]
    assert first.p == second.p == third.p
    assert menu_hash(menu) == menu_hash(Menu(menu.space, menu.entries))
    assert sizes == [4096, 4096]


@pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 5)])
def test_block_fed_digest_is_the_digest_of_the_whole_key(blocks, extra):
    # the digest is fed blocks of parts; read at once, each part followed
    # by ";", the whole key gives the same digest
    import stochoice.menus

    size = blocks * stochoice.menus._DIGEST_BLOCK + extra
    menu = scalar_menu({f"a{i}": i / 7 for i in range(size)})
    whole = hashlib.blake2b((canonical_key(menu) + ";").encode(), digest_size=8).digest()
    assert menu_hash(menu) == int.from_bytes(whole, "big")


SIGNED_ZERO_PAYLOADS = {
    "real_scalar": (Space.scalar(), [0.0, -0.0, 1.5, -1.5, 0.1]),
    "real_vector": (Space.vector(2), [(-0.0, 1.0), (0.0, 1.0), (0.1, -0.0), (2.5, -2.5)]),
    "mean_stddev": (Space.mean_stddev(), [(-0.0, 1.0), (0.0, 1.0), (2.5, 0.0), (-2.5, 0.5)]),
    "discrete_distribution": (
        Space.distribution(2),
        [((-0.0, 0.5), (1.0, 0.5)), ((0.0, 0.25), (2.0, 0.75)), ((1.0, 1.0),)],
    ),
    "matrix": (Space.matrix(2), [((1.0, -0.0), (0.0, 1.0)), ((2.0, 0.0), (-0.0, 0.5))]),
    # labels hold no numbers: the stream encoding must not depend on the side
    "prize_stream": (Space.prizes(PRIZES), [("gold", "silk"), (), ("herb", "herb", "gold")]),
}


@pytest.mark.parametrize("kind", sorted(SIGNED_ZERO_PAYLOADS))
def test_shared_number_texts_keep_the_digest(kind, monkeypatch):
    # a big menu formats each distinct number once, a small one every
    # number; -0.0 and 0.0 share a dict key but print as "-0" and "0"
    import stochoice.menus

    space, payloads = SIGNED_ZERO_PAYLOADS[kind]
    entries = [(f"a{i}", Outcome(space, payloads[i % len(payloads)])) for i in range(200)]
    assert len(entries) >= stochoice.menus._SHARED_TEXTS_MIN
    shared = canonical_key(Menu(space, entries)), menu_hash(Menu(space, entries))
    monkeypatch.setattr(stochoice.menus, "_SHARED_TEXTS_MIN", len(entries) + 1)
    assert (canonical_key(Menu(space, entries)), menu_hash(Menu(space, entries))) == shared
    assert kind == "prize_stream" or "-0" in shared[0]


def _exact_digest(menu):
    # menu_hash reads 12 significant digits; this reads every bit
    return hashlib.sha256(repr([o.value for _, o in menu.entries]).encode()).hexdigest()


# as computed by the pairwise convolution over Python tuples that
# composition replaced: menu_hash, Perturbed(Uniform(), 0.05, 7) shocks of
# the diagonal actions, and the exact digest
COMPOSED_GOLDEN = {
    "lottery": (
        4,
        5169581247309885749,
        (-0.03910342475560994, -0.01638853891316047, -0.03615162064257208),
        "f9a92eb461c38eec992ee58f00a5eb393403f3856e58a4b94a5026ce63e83245",
    ),
    "grid": (
        5,
        18342422014021587631,
        None,
        "e0c47915f95641660c241fbdcae612a5166a1bc945d685e600d12eb473910ed3",
    ),
}


@pytest.mark.parametrize("name", sorted(COMPOSED_GOLDEN))
def test_composed_lottery_digest_is_pinned(name):
    from stochoice import Perturbed, Uniform

    base = grid_lottery_menu() if name == "grid" else _golden_menus()[name]
    n, digest, shocks, exact = COMPOSED_GOLDEN[name]
    menu = power(base, n)
    assert menu_hash(menu) == digest
    assert _exact_digest(menu) == exact
    if shocks is not None:
        rule = Perturbed(Uniform(), 0.05, 7)
        assert tuple(rule.shock(menu, diagonal_action(a, n)) for a in base.actions) == shocks


def test_lottery_power_builds_in_bounded_memory():
    # the largest step composes 6561 x 3 lotteries, about 10^6 terms: held
    # at once they would add about 90 MB over the result; in blocks the
    # excess is the freed n = 8 menu, about 14 MB
    base = grid_lottery_menu()
    gc.collect()
    tracemalloc.start()
    try:
        menu = power(base, 9)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(menu) == 19683
    assert peak - retained < 30e6
