"""The corpus pass of the logit family (``choose_corpus``): each segment
equals the one-menu ``choose`` bit for bit, the probabilities stay
within the stated bound of the per-menu softmax released in 0.1.0, and
errors arrive as a loop over the menus raised them."""

import json
import math
import weakref

import numpy as np
import pytest

import stochoice.axioms
import stochoice.cli
import stochoice.rules
from stochoice import (
    IARU,
    MNL,
    ClosenessCertificate,
    GeneralMNL,
    GumbelShock,
    Menu,
    Outcome,
    Perturbed,
    Rule,
    Space,
    Uniform,
    Utility,
    certify_closeness,
    choose_corpus,
    features,
    identity,
    power,
    probit,
    product,
    sample_pairs,
    scalar_menu,
    unit_binary_menu,
)
from stochoice.cli import _dumps, main
from stochoice.corpus import CorpusSpec, generate_corpus
from stochoice.spaces import SpaceMismatchError

SPACES = [
    Space.scalar(),
    Space.vector(2),
    Space.mean_stddev(),
    Space.distribution(3),
    Space.prizes(("a", "b", "c")),
    Space.matrix(2),
]


def utility_on(space: Space) -> Utility:
    k = len(features(identity(space)))
    return Utility(space, tuple(np.linspace(1.0, -0.5, k).tolist()))


def mixed_corpus(space: Space, seed: int = 3):
    # sizes 1 to 12: from 8 actions on, numpy's sums change their order
    return generate_corpus(CorpusSpec(space, 60, 1, 12, seed=seed))


def released_softmax(utilities: np.ndarray) -> np.ndarray:
    """0.1.0's per-menu logit normalizer, the oracle for the drift bound."""
    shifted = utilities - np.max(utilities)
    e = np.exp(shifted)
    return e / np.sum(e)


def released_argmax(vals: np.ndarray, beta: float) -> list[float]:
    """0.1.0's MNL(+-inf) on one menu."""
    target = vals.max() if beta > 0 else vals.min()
    if all(float(v).is_integer() for v in vals):
        hit = vals == target
    else:
        hit = np.abs(vals - target) <= 1e-12 * max(1.0, abs(target))
    return (hit / hit.sum()).tolist()


def released_perturbed(rule: Perturbed, menu: Menu, base: list[float]) -> list[float]:
    terms = [p * math.exp(rule.shock(menu, a)) for p, a in zip(base, menu.actions)]
    total = math.fsum(terms)
    return [t / total for t in terms]


def within(new, old, units):
    """|new - old| <= units * 2^-53 * old, entry by entry."""
    return all(abs(a - b) <= units * 2.0**-53 * b for a, b in zip(new, old))


def hexes(dists):
    return [[x.hex() for x in d.p] for d in dists]


def assert_segments_are_choose(rule, menus):
    dists, error = choose_corpus(rule, menus)
    assert error is None
    assert [d.menu for d in dists] == list(menus)
    assert hexes(dists) == hexes([rule.choose(m) for m in menus])
    return dists


class TestSegmentsAreChoose:
    @pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
    def test_general_mnl_and_perturbed(self, space):
        corpus = mixed_corpus(space)
        assert {len(m) for m in corpus} >= {1, 8, 12}
        base = GeneralMNL(utility_on(space))
        assert_segments_are_choose(base, corpus)
        assert_segments_are_choose(Perturbed(base, 0.05, 11), corpus)

    @pytest.mark.parametrize("beta", [1.3, -0.7, 0.0, math.inf, -math.inf])
    def test_scalar_logit_and_its_limits(self, beta):
        corpus = mixed_corpus(Space.scalar()) + [power(unit_binary_menu(), 5)]
        assert_segments_are_choose(MNL(beta), corpus)
        assert_segments_are_choose(Perturbed(MNL(beta), 0.05, 7), corpus)

    def test_argmax_ties_match_the_released_rule(self):
        # integer menus tie exactly; others within 1e-12 of the best
        near = 1.0 + 5e-13
        menus = [
            scalar_menu({f"a{i}": float(v) for i, v in enumerate(vals)})
            for vals in (
                [3, 1, 3, 2], [0.5, 0.5 + 4e-13, 0.1], [1.0, near, 0.0, near - 2e-12],
                [7], [-2, -2, -2], [2.5, 1.0, 2.5, 2.5 - 1e-9], list(range(12)) + [11],
            )
        ]
        for beta in (math.inf, -math.inf):
            dists = assert_segments_are_choose(MNL(beta), menus)
            assert [d.p for d in dists] == [released_argmax(m.values, beta) for m in menus]
        assert dists[1].p[:2] == [0.0, 0.0] and dists[4].p == [1 / 3] * 3

    @pytest.mark.parametrize(
        "menu, seed",
        [(scalar_menu({"a": 0.0, "b": 1.0, "c": 2.0}), 1), (unit_binary_menu(), 324)],
        ids=["overflow", "underflow"],
    )
    def test_shifted_shocks_inside_a_corpus(self, menu, seed):
        # test_choose_shifts_shocks_past_the_float_range's menus, each
        # between two other menus of one corpus
        rule = Perturbed(Uniform(), 1000, seed)
        shocks = [rule.shock(menu, a) for a in menu.actions]
        assert max(shocks) > 709.8 or max(shocks) < -745.2
        others = [scalar_menu({"x": 0.5, "y": -1.0}), scalar_menu({"z": 3.0})]
        corpus = [others[0], menu, others[1]]
        assert_segments_are_choose(rule, corpus)
        assert_segments_are_choose(Perturbed(MNL(0.0), 1000, seed), corpus)

    def test_products_and_plain_menus_in_one_corpus(self):
        space = Space.distribution(3)
        corpus = mixed_corpus(space, seed=5)[:20]
        pairs = sample_pairs(corpus, 10, 4)
        menus = corpus + [product(m1, m2) for m1, m2 in pairs]
        assert_segments_are_choose(Perturbed(GeneralMNL(utility_on(space)), 0.05, 2), menus)


class TestDriftFromTheReleasedNormalizer:
    """Each menu is now divided by ``np.add.reduceat`` of its exps, whose
    additions round differently from 0.1.0's ``np.sum``: each sum is
    within (n - 1) 2^-53 of the exact one, relative, so a probability p of
    an n-action menu moves by at most 2n 2^-53 p, to first order, and a
    Perturbed one, which multiplies those, by at most (4n + 6) 2^-53 p.
    The tests allow two units more."""

    @pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
    def test_general_mnl(self, space):
        u = utility_on(space)
        coeffs = np.array(u.coeffs)
        corpus = mixed_corpus(space)
        dists, _ = choose_corpus(GeneralMNL(u), corpus)
        for menu, dist in zip(corpus, dists):
            old = released_softmax(menu.phi @ coeffs).tolist()
            assert within(dist.p, old, 2 * len(menu) + 2)

    def test_scalar_logit_on_menus_of_1_to_4096_actions(self):
        rng = np.random.default_rng(8)
        menus = [
            scalar_menu({f"a{i}": float(v) for i, v in enumerate(rng.normal(0.0, scale, n))})
            for n in (1, 2, 3, 5, 8, 9, 12, 16, 33, 100, 4096)
            for scale in (0.1, 1.0, 30.0)
        ]
        for beta in (1.0, -2.5):
            dists, _ = choose_corpus(MNL(beta), menus)
            for menu, dist in zip(menus, dists):
                assert within(dist.p, released_softmax(beta * menu.values).tolist(), 2 * len(menu) + 2)

    def test_perturbed(self):
        space = Space.distribution(3)
        u = utility_on(space)
        rule = Perturbed(GeneralMNL(u), 0.05, 11)
        corpus = mixed_corpus(space)
        dists, _ = choose_corpus(rule, corpus)
        for menu, dist in zip(corpus, dists):
            base = released_softmax(menu.phi @ np.array(u.coeffs)).tolist()
            assert within(dist.p, released_perturbed(rule, menu, base), 4 * len(menu) + 8)


class TestErrorsArriveInMenuOrder:
    def corpus(self, *outcomes):
        return [
            scalar_menu({f"a{i}": v for i, v in enumerate(vals)}) for vals in outcomes
        ]

    @pytest.mark.parametrize(
        "rule",
        [MNL(1e306), GeneralMNL(Utility(Space.scalar(), (1e306,))), Perturbed(MNL(1e306), 0.05, 1)],
        ids=["mnl", "general_mnl", "perturbed"],
    )
    def test_utility_overflow_mid_corpus(self, rule):
        corpus = self.corpus([0.0, 1e-306], [5e-307, 2.5e-307], [0.0, 200.0, 20.0], [0.0, 1e-306])
        dists, error = choose_corpus(rule, corpus)
        assert len(dists) == 2
        with pytest.raises(ValueError) as alone:
            rule.choose(corpus[2])
        assert "is not finite at action a1" in str(alone.value)
        assert type(error) is ValueError and str(error) == str(alone.value)
        with pytest.raises(ValueError, match="^utility .* is not finite at action a1$"):
            certify_closeness(rule, corpus)

    @pytest.mark.parametrize("at", [0, 3], ids=["first", "last"])
    @pytest.mark.parametrize(
        "rule",
        [
            MNL(1e306),
            GeneralMNL(Utility(Space.scalar(), (1e306,))),
            Perturbed(MNL(1e306), 0.05, 1),
        ],
        ids=["mnl", "general_mnl", "perturbed"],
    )
    def test_utility_overflow_at_either_end(self, rule, at):
        corpus = self.corpus([0.0, 1e-306], [5e-307, 2.5e-307], [1e-306, 0.0], [0.0, 1e-306])
        corpus[at] = self.corpus([0.0, 200.0, 20.0])[0]
        dists, error = choose_corpus(rule, corpus)
        assert hexes(dists) == hexes([rule.choose(m) for m in corpus[:at]])
        with pytest.raises(ValueError) as alone:
            rule.choose(corpus[at])
        assert type(error) is ValueError and str(error) == str(alone.value)
        assert str(error).endswith(" is not finite at action a1")

    @pytest.mark.parametrize("at", [0, 2], ids=["first", "last"])
    def test_off_space_menu_at_either_end(self, at):
        vector = Space.vector(2)
        corpus = self.corpus([0.0, 1.0], [2.0, 0.5, 1.0], [1.0, 0.0])
        corpus[at] = Menu(vector, (("v0", Outcome(vector, (0.0, 1.0))),))
        scalar = Utility(Space.scalar(), (1.0,))
        for rule in (MNL(1.0), GeneralMNL(scalar), Perturbed(MNL(1.0), 0.1, 3)):
            dists, error = choose_corpus(rule, corpus)
            assert hexes(dists) == hexes([rule.choose(m) for m in corpus[:at]])
            assert isinstance(error, SpaceMismatchError)

    def test_mixed_space_corpus(self):
        vector = Space.vector(2)
        plain = self.corpus([0.0, 1.0], [2.0, 0.5, 1.0])
        off = Menu(vector, (("v0", Outcome(vector, (0.0, 1.0))),))
        corpus = plain + [off] + self.corpus([0.0, 1.0])
        for rule in (MNL(1.0), GeneralMNL(Utility(Space.scalar(), (1.0,))), Perturbed(MNL(1.0), 0.1, 3)):
            dists, error = choose_corpus(rule, corpus)
            assert hexes(dists) == hexes([rule.choose(m) for m in plain])
            assert isinstance(error, SpaceMismatchError)
            with pytest.raises(SpaceMismatchError):
                certify_closeness(rule, corpus)

    def test_the_earlier_menu_fails_first(self):
        vector = Space.vector(2)
        off = Menu(vector, (("v0", Outcome(vector, (0.0, 1.0))),))
        overflow, fine = self.corpus([0.0, 1e10], [0.0, 1.0])
        rule = MNL(1e300)
        _, error = choose_corpus(rule, [fine, overflow, fine, off])
        assert str(error) == "utility {'beta': 1e+300} is not finite at action a1"
        _, error = choose_corpus(rule, [fine, off, overflow])
        assert isinstance(error, SpaceMismatchError)
        # a probability that underflows to 0 in menu 0 fails certify
        # before the overflow in menu 2
        with pytest.raises(ValueError, match="^non-positive probability in corpus$"):
            certify_closeness(MNL(800.0), self.corpus([0.0, 1.0], [0.0, 0.5], [0.0, 1e306]))

    def test_a_failing_base_rule_fails_the_perturbed_pass_at_its_menu(self):
        class FailsOnThree(Rule):
            def choose(self, menu):
                if len(menu) == 3:
                    raise RuntimeError("three actions")
                return MNL(1.0).choose(menu)

        corpus = self.corpus([0.0, 1.0], [1.0, 2.0], [0.0, 1.0, 2.0], [0.0])
        rule = Perturbed(FailsOnThree(), 0.05, 1)
        dists, error = choose_corpus(rule, corpus)
        assert str(error) == "three actions" and len(dists) == 2
        assert hexes(dists) == hexes([rule.choose(m) for m in corpus[:2]])


@pytest.mark.parametrize(
    "rule", [probit(), IARU(GumbelShock(1.5)), Uniform()], ids=["probit", "gumbel", "uniform"]
)
def test_other_rules_choose_menu_by_menu(rule, monkeypatch):
    corpus = mixed_corpus(Space.scalar())[:15]
    expected = [rule.choose(m) for m in corpus]
    calls = []
    choose = type(rule).choose
    monkeypatch.setattr(type(rule), "choose", lambda self, m: (calls.append(m), choose(self, m))[1])
    dists, error = choose_corpus(rule, corpus)
    assert error is None and calls == corpus
    assert hexes(dists) == hexes(expected)
    # Perturbed over such a rule takes its base menu by menu, then the
    # shocks of the whole corpus in one pass
    calls.clear()
    perturbed = Perturbed(rule, 0.05, 9)
    dists, _ = choose_corpus(perturbed, corpus)
    assert calls == corpus
    assert hexes(dists) == hexes([perturbed.choose(m) for m in corpus])


def lottery_check(tmp_path):
    """The argv of a lottery-corpus ``check`` of 9 sampled pairs, and its
    corpus."""
    space = {"kind": "discrete_distribution", "moment_order": 3}
    spec = {"space": space, "menu_count": 25, "seed": 6}
    rule = {
        "type": "perturbed",
        "base": {"type": "general_mnl", "utility": {"space": space, "gammas": [1.0, -0.5, 0.2]}},
        "delta": 0.05,
        "seed": 4,
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    (tmp_path / "rule.json").write_text(json.dumps(rule), encoding="utf-8")
    argv = ["check", "--rule", str(tmp_path / "rule.json"), "--corpus", str(tmp_path / "spec.json"),
            "--axioms", "neutrality,positivity,decomposability", "--pairs", "9", "--seed", "2",
            "--json"]
    return argv, generate_corpus(CorpusSpec.from_json(spec))


def test_check_chooses_the_corpus_in_one_pass_and_then_each_product_alone(tmp_path, monkeypatch):
    argv, corpus = lottery_check(tmp_path)
    passes = []
    corpus_pass = stochoice.rules.Perturbed._pass

    def recorded(self, menus):
        passes.append(list(menus))
        return corpus_pass(self, menus)

    monkeypatch.setattr(stochoice.rules.Perturbed, "_pass", recorded)
    assert main(argv) == 1
    products = [product(m1, m2) for m1, m2 in sample_pairs(corpus, 9, 2)]
    assert passes == [corpus, *[[p] for p in products]]


def test_check_frees_each_product_before_it_builds_the_next(tmp_path, monkeypatch):
    argv, _ = lottery_check(tmp_path)
    built, alive = [], []

    def tracked(m1, m2):
        alive.append(sum(ref() is not None for ref in built))
        joint = product(m1, m2)
        built.append(weakref.ref(joint))
        return joint

    monkeypatch.setattr(stochoice.cli, "product", tracked)
    monkeypatch.setattr(stochoice.axioms, "product", tracked)
    assert main(argv) == 1
    assert alive == [0] * 9


def test_corpus_menus_share_their_id_digests(monkeypatch):
    corpus = generate_corpus(CorpusSpec(Space.scalar(), 20, 2, 6, seed=1))
    shared = corpus[0].id_digests.base
    assert shared is not None and all(m.id_digests.base is shared for m in corpus)
    # a power menu hashes its ids once, however often it is chosen
    hashed = []
    digests = stochoice.menus.id_digests
    monkeypatch.setattr(stochoice.menus, "id_digests", lambda ids: (hashed.append(len(ids)), digests(ids))[1])
    menu = power(unit_binary_menu(), 10)
    rule = Perturbed(MNL(1.0), 0.05, 7)
    first, second = rule.choose(menu), rule.choose(menu)
    assert hashed == [1024] and first.p == second.p


class TestCertificateText:
    """``cli._dumps`` writes json.dumps(payload, indent=2, sort_keys=True)
    byte for byte."""

    @staticmethod
    def reference(payload):
        return json.dumps(payload, indent=2, sort_keys=True)

    @pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
    def test_seeded_certificates(self, space):
        rule = Perturbed(GeneralMNL(utility_on(space)), 0.05, 11)
        cert = certify_closeness(rule, mixed_corpus(space))
        payload = cert.to_json()
        assert _dumps(payload) == self.reference(payload)

    def test_quoted_and_non_ascii_ids_and_extreme_shocks(self):
        ids = ('q"uote', "café", "back\\slash", "tab\tand ", "plain")
        menus = (("m\"0", ids[:3]), ("mé1", ids[3:]), ("empty", ()))
        values = np.array([-0.0, 1e-300, 1e16, -1e-320, 0.1])
        cert = ClosenessCertificate(
            Utility(Space.scalar(), (1.5,)), 1e16, tuple(m for m, _ in menus),
            tuple(a for _, a in menus), values,
        )
        payload = cert.to_json()
        assert dict(cert.shocks)['m"0'] == {'q"uote': -0.0, "café": 1e-300, "back\\slash": 1e16}
        text = _dumps(payload)
        assert text == self.reference(payload)
        assert '"q\\"uote": -0.0' in text and '"caf\\u00e9": 1e-300' in text and "1e+16" in text

    @pytest.mark.parametrize(
        "payload",
        [
            {}, [], [[]], [{}], {"a": {}}, {"a": []}, 1.5, "x", None,
            {"pass": False, "tol": 1e-9, "reports": [{"axiom": "n", "witness": None,
                                                      "witnesses": [{"pair": ["a", "b"]}]}]},
            [{"menu_id": "m", "distribution": {"b": 0.5, "a": 0.5}, "bound": None}],
            {"t": (1.5, math.inf, -math.inf), "n": [1, [2, [3, {"z": True, "a": (None,)}]]]},
        ],
    )
    def test_other_payloads(self, payload):
        assert _dumps(payload) == self.reference(payload)
