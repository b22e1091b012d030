import json
import math

import pytest

from stochoice import (
    IARU,
    MNL,
    GaussianShock,
    GeneralMNL,
    Perturbed,
    Rule,
    Space,
    Uniform,
    Utility,
    effective_neutrality_epsilon,
    menu_of,
    power,
    scalar_menu,
    unit_binary_menu,
)
from stochoice.axioms import (
    continuity_probe,
    cross_menu_identity_epsilon,
    decomposability_epsilon,
    merge_reports,
    neutrality_epsilon,
    positivity_check,
    power_diagonal_neutrality_epsilon,
    ratio_excess,
    strong_neutrality_bound,
    strong_neutrality_epsilon,
)

from conftest import Tabular

UNIT = unit_binary_menu()
WORKED = scalar_menu({"a1": -17.0, "a2": -17.0, "a3": 42.0})


class TestRatioConventions:
    def test_zero_over_zero(self):
        assert ratio_excess(0.0, 0.0) == 0.0

    def test_positive_over_zero(self):
        assert math.isinf(ratio_excess(0.3, 0.0))
        assert math.isinf(ratio_excess(0.0, 0.3))

    def test_symmetric(self):
        assert ratio_excess(0.6, 0.4) == pytest.approx(0.5)
        assert ratio_excess(0.4, 0.6) == pytest.approx(0.5)


class TestNeutrality:
    def test_mnl_exact(self):
        report = neutrality_epsilon(MNL(1.0), WORKED)
        assert report.min_epsilon == 0.0
        assert report.satisfied_at_tol
        assert report.witness is None

    def test_perturbed_bounded_by_shock_ratio(self):
        rule = Perturbed(MNL(1.0), 0.1, 23)
        report = neutrality_epsilon(rule, WORKED, tol=1e-9)
        assert report.min_epsilon <= math.exp(0.2) - 1.0

    def test_explicit_violation(self):
        menu = scalar_menu({"a": 1.0, "b": 1.0})
        rule = Tabular.from_entries([(menu, {"a": 0.6, "b": 0.4})])
        report = neutrality_epsilon(rule, menu)
        assert report.min_epsilon == pytest.approx(0.5)
        assert not report.satisfied_at_tol
        assert report.witness["pair"] == ["a", "b"]

    def test_no_equal_outcomes_vacuous(self):
        report = neutrality_epsilon(MNL(1.0), UNIT)
        assert report.min_epsilon == 0.0

    def test_all_equal_blocks_are_linear_in_ratio_evaluations(self, monkeypatch):
        import stochoice.axioms

        calls = []

        def counted(p, q):
            calls.append(None)
            return ratio_excess(p, q)

        monkeypatch.setattr(stochoice.axioms, "ratio_excess", counted)
        menu = power(UNIT, 10)
        report = neutrality_epsilon(Perturbed(Uniform(), 0.05, 3), menu)
        assert report.min_epsilon > 0.0
        # every tie class of a power menu is all-equal; the largest holds
        # C(10, 5) = 252 actions, whose pairs alone number 31,626
        assert len(calls) <= 3 * len(menu)


class TestDecomposability:
    @pytest.mark.parametrize("beta", [-2.0, 0.0, 1.3])
    def test_mnl_factorizes(self, beta):
        m1 = scalar_menu({"a": 0.3, "b": -1.2})
        m2 = scalar_menu({"p": 2.0, "q": 0.0, "r": 1.0})
        report = decomposability_epsilon(MNL(beta), m1, m2)
        assert report.min_epsilon <= 1e-10

    def test_probit_violation(self):
        report = decomposability_epsilon(probit_rule(), UNIT, UNIT)
        # the diagonal pair alone shows at least 0.617/0.76^2 - 1
        assert report.min_epsilon >= 0.068
        assert not report.satisfied_at_tol

    def test_uniform_with_singleton(self):
        m1 = scalar_menu({"a": 0.0})
        m2 = scalar_menu({"p": 0.0, "q": 1.0})
        report = decomposability_epsilon(Uniform(), m1, m2)
        assert report.min_epsilon == 0.0

    def test_size_guard_fires_before_any_choice(self):
        class Refuses(Rule):
            def choose(self, menu):
                raise AssertionError("the product size is known before choosing")

        m1 = scalar_menu({f"a{i}": float(i) for i in range(1001)})
        m2 = scalar_menu({f"b{i}": float(i) for i in range(1000)})
        with pytest.raises(ValueError, match="exceed"):
            decomposability_epsilon(Refuses(), m1, m2)


def probit_rule():
    return IARU(GaussianShock(1.0))


class TestPositivity:
    def test_mnl_positive(self):
        assert positivity_check(MNL(5.0), WORKED).satisfied_at_tol

    def test_argmax_violates(self):
        report = positivity_check(MNL(math.inf), UNIT)
        assert not report.satisfied_at_tol
        assert report.witness["action"] == "b0"
        assert math.isinf(report.min_epsilon)

    def test_uniform_positive(self):
        assert positivity_check(Uniform(), WORKED).satisfied_at_tol


class TestContinuity:
    def test_mnl_continuous(self):
        menu = scalar_menu({"a": 0.0, "b": 0.0})
        report = continuity_probe(MNL(1.0), menu)
        assert report.satisfied_at_tol
        # softmax has bounded derivative, so the gap shrinks linearly
        assert report.min_epsilon < 1e-5

    def test_argmax_flagged(self):
        menu = scalar_menu({"a": 0.0, "b": 0.0})
        report = continuity_probe(MNL(math.inf), menu)
        assert not report.satisfied_at_tol
        assert report.min_epsilon == pytest.approx(0.5)

    def test_uniform_gap_zero(self):
        menu = scalar_menu({"a": 0.0, "b": 1.0})
        report = continuity_probe(Uniform(), menu)
        assert report.satisfied_at_tol
        assert report.min_epsilon == 0.0

    def test_vector_space_probe(self):
        from stochoice import GeneralMNL, Space, Utility, menu_of

        space = Space.vector(2)
        menu = menu_of(space, {"a": (0.0, 0.0), "b": (0.0, 0.0)})
        rule = GeneralMNL(Utility(space, (1.0, -2.0)))
        report = continuity_probe(rule, menu)
        assert report.satisfied_at_tol
        assert report.min_epsilon < 1e-5

    def test_unsupported_space_rejected(self):
        from stochoice import Space, Uniform, menu_of

        menu = menu_of(Space.prizes(("g",)), {"a": ("g",)})
        with pytest.raises(Exception):
            continuity_probe(Uniform(), menu)


class TestStrongNeutrality:
    def test_mnl_on_relabeled_copies(self):
        m2 = scalar_menu({"x": -17.0, "y": -17.0, "z": 42.0})
        report = strong_neutrality_epsilon(MNL(1.0), WORKED, m2)
        assert report.min_epsilon <= 1e-12

    def test_perturbed_bounded(self):
        rule = Perturbed(MNL(1.0), 0.05, 31)
        m2 = scalar_menu({"x": -17.0, "y": -17.0, "z": 42.0})
        report = strong_neutrality_epsilon(rule, WORKED, m2)
        assert report.min_epsilon <= math.exp(2 * 0.05) - 1.0

    def test_tabular_violation_measured(self):
        # both matched pairs sit at ratio 6/5 exactly, so the measured
        # epsilon is 0.2
        m1 = scalar_menu({"a": 1.0, "b": 0.0})
        m2 = scalar_menu({"x": 1.0, "y": 0.0})
        rule = Tabular.from_entries(
            [
                (m1, {"a": 6 / 11, "b": 5 / 11}),
                (m2, {"x": 5 / 11, "y": 6 / 11}),
            ]
        )
        report = strong_neutrality_epsilon(rule, m1, m2)
        assert report.min_epsilon == pytest.approx(0.2)

    def test_bound_formula(self):
        assert strong_neutrality_bound(0.1, 0.2) == pytest.approx(1.1 * 1.44 - 1)

    def test_bound_accepted_when_supplied(self):
        rule = Perturbed(MNL(1.0), 0.05, 31)
        m2 = scalar_menu({"x": -17.0, "y": -17.0, "z": 42.0})
        report = strong_neutrality_epsilon(
            rule, WORKED, m2, eps_neut=math.exp(0.1) - 1, eps_decomp=0.3
        )
        assert report.satisfied_at_tol

    def test_requires_equivalent_menus(self):
        with pytest.raises(ValueError):
            strong_neutrality_epsilon(MNL(1.0), WORKED, UNIT)

    def test_menus_equal_only_within_tolerance(self):
        space = Space.vector(2)
        m1 = menu_of(space, {"p": (0.0, 1.0), "q": (1e-10, 0.0)})
        m2 = menu_of(space, {"r": (1e-10, 1.0), "s": (0.0, 0.0)})
        rule = GeneralMNL(Utility(space, (1.0, -0.5)))
        report = strong_neutrality_epsilon(rule, m1, m2)
        assert report.satisfied_at_tol


class TestCrossMenuIdentity:
    def test_mnl_worked_menu(self):
        assert cross_menu_identity_epsilon(MNL(1.0), WORKED).min_epsilon <= 1e-9

    def test_binary_menu_pins_down_other_menus(self):
        # reconstruct the 3-action distribution from the unit-binary
        # probabilities alone: the identity gives the a3/a2 ratio
        # (p1/p0)^59, equal outcomes tie a1 to a2, normalization does the
        # rest; a decomposable neutral rule has no further freedom
        rule = MNL(1.0)
        binary = rule.choose(unit_binary_menu())
        ratio = (binary["b1"] / binary["b0"]) ** 59
        p_a2 = 1.0 / (2.0 + ratio)
        direct = rule.choose(WORKED)
        assert direct["a1"] == pytest.approx(p_a2, rel=1e-12)
        assert direct["a2"] == pytest.approx(p_a2, rel=1e-12)
        assert direct["a3"] == pytest.approx(ratio * p_a2, rel=1e-12)

    def test_uniform_parameter(self):
        assert cross_menu_identity_epsilon(MNL(0.0), WORKED).min_epsilon <= 1e-9

    def test_probit_fails(self):
        menu = scalar_menu({"a": 0.0, "b": 2.0})
        gap = cross_menu_identity_epsilon(probit_rule(), menu).min_epsilon
        assert gap > 1e-3
        assert not cross_menu_identity_epsilon(probit_rule(), menu).min_epsilon <= 1e-3

    def test_report_clears_denominators(self):
        menu = scalar_menu({"a": 0.5, "b": 1.25})
        report = cross_menu_identity_epsilon(probit_rule(), menu, menu_id="q")
        assert not report.satisfied_at_tol
        assert report.instances_checked == 1
        assert report.witness["k"] == 4
        assert report.witness["pair"] == ["b", "a"]
        assert cross_menu_identity_epsilon(MNL(1.0), menu).satisfied_at_tol

    def test_report_rejects_irrational_outcomes(self):
        # pi lies within 1.1e-12 of 3126535/995207 but is not that fraction
        with pytest.raises(ValueError, match="rational"):
            cross_menu_identity_epsilon(MNL(1.0), scalar_menu({"a": 0.0, "b": math.pi}))

    def test_report_skips_constant_menu(self):
        report = cross_menu_identity_epsilon(MNL(1.0), scalar_menu({"a": 2.0, "b": 2.0}))
        assert report.satisfied_at_tol and report.instances_checked == 0


class TestPowerDiagonalMechanism:
    def test_capped_tabular_rule_decays(self):
        base = scalar_menu({"a": 1.0, "b": 1.0})
        entries = []
        for n in range(1, 7):
            pw = power(base, n)
            probs = _capped_distribution(pw, base, n)
            entries.append((pw, probs))
        rule = Tabular.from_entries(entries)
        previous = math.inf
        for n in range(1, 7):
            eps = power_diagonal_neutrality_epsilon(rule, base, "a", "b", n)
            assert eps <= (1.5) ** (1.0 / n) - 1.0 + 1e-12
            assert eps < previous
            previous = eps

    def test_decomposable_rule_measures_zero(self):
        menu = scalar_menu({"a": 1.0, "b": 1.0, "c": 0.0})
        assert power_diagonal_neutrality_epsilon(MNL(1.0), menu, "a", "b", 4) == 0.0

    def test_zero_probability_conventions(self):
        argmax = MNL(math.inf)
        assert power_diagonal_neutrality_epsilon(argmax, UNIT, "b0", "b1", 3) == math.inf
        menu = scalar_menu({"a": 0.0, "b": 0.0, "c": 1.0})
        assert power_diagonal_neutrality_epsilon(argmax, menu, "a", "b", 3) == 0.0

    def test_probit_keeps_digits_below_underflow(self):
        # P[b0^40] = exp(-832.47) underflows; the logs of both diagonal
        # probabilities, from a log-space scipy quad of the Hamming-weight
        # groups, are -2.417840634811367 and -832.473732944873
        eps = power_diagonal_neutrality_epsilon(IARU(GaussianShock(1.0)), UNIT, "b1", "b0", 40)
        expected = math.expm1((-2.417840634811367 + 832.473732944873) / 40)
        assert eps == pytest.approx(expected, rel=1e-12)

    def test_size_guard_fires_before_building(self, monkeypatch):
        import stochoice.axioms

        def refuse(menu, n):
            raise AssertionError("the power size is known before building it")

        monkeypatch.setattr(stochoice.axioms, "power", refuse)
        menu = scalar_menu({"a": 1.0, "b": 1.0, "c": 0.0})
        # 3^13 = 1,594,323 actions
        with pytest.raises(ValueError, match="exceed"):
            power_diagonal_neutrality_epsilon(MNL(1.0), menu, "a", "b", 13)


def _capped_distribution(pw, base, n):
    """Diagonal actions at ratio exactly 1.5, everything else uniform."""
    from stochoice import diagonal_action

    hi = diagonal_action("a", n)
    lo = diagonal_action("b", n)
    size = len(pw)
    q = 1.0 / 2**n
    if size == 2:
        return {hi: 0.6, lo: 0.4}
    rest = (1.0 - 2.5 * q) / (size - 2)
    return {a: 1.5 * q if a == hi else q if a == lo else rest for a in pw.actions}


class TestEpsilonReduction:
    def test_formula(self):
        assert effective_neutrality_epsilon(1.0, 0.1) == pytest.approx(0.21)
        assert effective_neutrality_epsilon(0.05, 0.1) == pytest.approx(0.05)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            effective_neutrality_epsilon(-0.1, 0.0)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_perturbed_mechanism(self, seed):
        # measured neutrality never exceeds the reduction of the declared
        # bound by the measured decomposability epsilon
        menu = scalar_menu({"a": 2.0, "b": 2.0, "c": 0.0})
        rule = Perturbed(MNL(1.0), 0.1, seed)
        eps_n = neutrality_epsilon(rule, menu).min_epsilon
        eps_d = max(
            decomposability_epsilon(rule, m1, m2).min_epsilon
            for m1, m2 in [(menu, menu), (power(menu, 2), menu)]
        )
        declared = math.exp(2 * 0.1) - 1.0
        assert eps_n <= effective_neutrality_epsilon(declared, eps_d) + 1e-12


class TestReports:
    def test_merge_takes_max_and_counts(self):
        menus = [WORKED, scalar_menu({"a": 1.0, "b": 1.0, "c": 0.0})]
        reports = [neutrality_epsilon(MNL(1.0), m) for m in menus]
        merged = merge_reports(reports)
        assert merged.instances_checked == 2
        assert merged.min_epsilon == 0.0

    def test_merge_rejects_mixed_axioms(self):
        with pytest.raises(ValueError):
            merge_reports(
                [neutrality_epsilon(MNL(1.0), WORKED), positivity_check(MNL(1.0), WORKED)]
            )

    def test_json_shape(self):
        report = positivity_check(MNL(math.inf), UNIT)
        data = json.loads(json.dumps(report.to_json()))
        assert data["axiom"] == "positivity"
        assert data["min_epsilon"] == "inf"
        assert data["satisfied_at_tol"] is False
        assert set(data) == {
            "axiom",
            "min_epsilon",
            "satisfied_at_tol",
            "witness",
            "instances_checked",
        }

    def test_witness_only_when_failing(self):
        good = neutrality_epsilon(MNL(1.0), WORKED)
        assert good.witness is None
