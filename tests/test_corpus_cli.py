import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import pytest

import stochoice
from stochoice import (
    CorpusSpec,
    Rule,
    Space,
    axioms,
    generate_corpus,
    power,
    rule_from_json,
    sample_pairs,
    scalar_menu,
    unit_binary_menu,
)
from stochoice.cli import main


def run_capped(argv):
    """The CLI run in a child process with 2 GiB of address space, one
    BLAS thread and a 60 s timeout."""
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from stochoice.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(stochoice.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60
    )


def write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def scalar_corpus_spec(tmp_path):
    return write(
        tmp_path / "spec.json",
        {
            "space": {"kind": "real_scalar"},
            "menu_count": 20,
            "actions_per_menu": [2, 5],
            "outcome_sampler": {"low": -3, "high": 3},
            "seed": 11,
        },
    )


@pytest.fixture
def mnl_rule_file(tmp_path):
    return write(tmp_path / "mnl.json", {"type": "mnl", "beta": 1.0})


class TestCorpusGeneration:
    def test_deterministic(self):
        spec = CorpusSpec(Space.scalar(), 10, seed=3)
        a = generate_corpus(spec)
        b = generate_corpus(spec)
        assert [m.to_json() for m in a] == [m.to_json() for m in b]

    def test_counts_and_sizes(self):
        spec = CorpusSpec(Space.scalar(), 50, actions_min=2, actions_max=5, seed=1)
        menus = generate_corpus(spec)
        assert len(menus) == 50
        assert all(2 <= len(m) <= 5 for m in menus)

    @pytest.mark.parametrize(
        "space",
        [
            Space.scalar(),
            Space.vector(3),
            Space.mean_stddev(),
            Space.distribution(3),
            Space.prizes(("a", "b")),
            Space.matrix(2),
        ],
        ids=lambda s: s.kind,
    )
    def test_all_spaces_sampleable(self, space):
        menus = generate_corpus(CorpusSpec(space, 5, seed=2))
        assert all(m.space == space for m in menus)

    def test_duplicates_appear(self):
        spec = CorpusSpec(
            Space.scalar(), 40, sampler={"duplicate_prob": 1.0}, seed=5
        )
        menus = generate_corpus(spec)
        with_dup = sum(
            1
            for m in menus
            if len({o.value for _, o in m.entries}) < len(m)
        )
        assert with_dup == sum(1 for m in menus if len(m) >= 2)

    def test_integer_sampler(self):
        spec = CorpusSpec(
            Space.scalar(), 10, sampler={"integer": True, "low": -5, "high": 5}, seed=9
        )
        for m in generate_corpus(spec):
            assert all(o.value.is_integer() for _, o in m.entries)

    @pytest.mark.parametrize(
        "low, high, drawn", [(0.5, 2.5, {1.0, 2.0}), (-2.5, -0.5, {-2.0, -1.0}), (1, 1, {1.0})]
    )
    def test_integer_sampler_stays_within_bounds(self, low, high, drawn):
        sampler = {"integer": True, "low": low, "high": high}
        spec = CorpusSpec(Space.scalar(), 100, sampler=sampler, seed=4)
        assert {o.value for m in generate_corpus(spec) for _, o in m.entries} == drawn

    @pytest.mark.parametrize(
        "low, high, message",
        [(0.2, 0.8, "no integer"), (-math.inf, 2, "finite"), (0, math.nan, "finite")],
    )
    def test_integer_sampler_needs_an_integer_in_range(self, low, high, message):
        sampler = {"integer": True, "low": low, "high": high}
        with pytest.raises(ValueError, match=message):
            generate_corpus(CorpusSpec(Space.scalar(), 3, sampler=sampler))

    def test_integral_floats_load_as_integers(self):
        spec = CorpusSpec.from_json(
            {
                "space": {"kind": "real_vector", "d": 2.0},
                "menu_count": 3.0,
                "actions_per_menu": [2.0, 4],
                "seed": 5.0,
            }
        )
        assert spec == CorpusSpec(Space.vector(2), 3, 2, 4, seed=5)
        assert all(type(v) is int for v in (spec.space.d, spec.menu_count, spec.seed))
        assert Space.from_json({"kind": "discrete_distribution", "moment_order": 3.0}) == (
            Space.distribution(3)
        )
        rule = {"type": "perturbed", "base": {"type": "uniform"}, "delta": 0.1, "seed": 3.0}
        assert type(rule_from_json(rule).seed) is int

    def test_integral_float_sampler_counts_load_as_integers(self):
        # 2.0 reaches randint as 2, without the deprecated float randrange
        lottery = CorpusSpec.from_json(
            {
                "space": {"kind": "discrete_distribution", "moment_order": 2},
                "menu_count": 20,
                "outcome_sampler": {"support_size": [2, 2.0]},
            }
        )
        streams = CorpusSpec.from_json(
            {
                "space": {"kind": "prize_stream", "alphabet": ["g", "s"]},
                "menu_count": 20,
                "outcome_sampler": {"min_len": 2.0, "max_len": 2.0},
            }
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lotteries = generate_corpus(lottery)
            stream_menus = generate_corpus(streams)
        assert {len(o.value) for m in lotteries for _, o in m.entries} == {2}
        assert {len(o.value) for m in stream_menus for _, o in m.entries} == {2}

    # sha256 of the JSON text of seeded corpora, as the generator that
    # built and checked one Outcome per draw wrote them
    PINNED = {
        "scalar": (
            {"space": {"kind": "real_scalar"}, "menu_count": 40, "seed": 7},
            "85e40e91d279f2360e3c0ce8141b13c4efa84949807695a05c9675858aeedbbc",
        ),
        "scalar_integer": (
            {"space": {"kind": "real_scalar"}, "menu_count": 40, "seed": 8,
             "outcome_sampler": {"integer": True, "low": -2.5, "high": 3, "duplicate_prob": 1}},
            "4df2823562926a3220dc590fdbe0de46eb951cdbac80877d6bf10cc54c67856a",
        ),
        "vector": (
            {"space": {"kind": "real_vector", "d": 3}, "menu_count": 30, "seed": 9},
            "42addb1239fb54aea5bb806bf2ca2d650814656d6a2e36091c46fd5a24a16b5b",
        ),
        "mean_stddev": (
            {"space": {"kind": "mean_stddev"}, "menu_count": 30, "seed": 10,
             "outcome_sampler": {"sigma_low": 0.5, "sigma_high": 1.5}},
            "1c592c69fd1a7e1be6a9989a37c8480a707bd5198b07945b909192254f774a1a",
        ),
        "lottery": (
            {"space": {"kind": "discrete_distribution", "moment_order": 3}, "menu_count": 60,
             "actions_per_menu": [1, 6], "seed": 11,
             "outcome_sampler": {"support_size": [1, 5], "duplicate_prob": 1}},
            "4c01da45c79c83332471896aa2ebc1f44b854e3c9b2c00aae194c0c2f3da60cd",
        ),
        "streams": (
            {"space": {"kind": "prize_stream", "alphabet": ["g", "s", "h"]}, "menu_count": 30,
             "seed": 12},
            "1137e37357ccca9905bb07fac9b1c8de62a4c95deca7e602fce36fb78196268f",
        ),
        "matrix": (
            {"space": {"kind": "matrix", "d": 2}, "menu_count": 30, "seed": 13},
            "332487079e1489c345a2fa50de81730232ab9ab225dec8e6388a6c742a407556",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_corpus_is_pinned(self, name):
        spec, digest = self.PINNED[name]
        text = json.dumps([m.to_json() for m in generate_corpus(CorpusSpec.from_json(spec))])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("sizes", [[1, 1], [1, 3]])
    def test_first_failure_in_draw_order_is_raised(self, sizes):
        # every point drawn on [-1e308, 1e308] is inf or NaN, so a lottery
        # of one point fails Outcome, and one of two or more points finds
        # no distinct second point; whichever comes first is raised
        finite_first = set(range(1, 21)) if sizes == [1, 1] else {2, 7, 15, 18}
        for seed in range(1, 21):
            spec = {"space": {"kind": "discrete_distribution", "moment_order": 2},
                    "menu_count": 5, "seed": seed,
                    "outcome_sampler": {"low": -1e308, "high": 1e308, "support_size": sizes}}
            if seed in finite_first:
                error, message = ValueError, "outcome components must be finite"
            else:
                error, message = RuntimeError, "sampler range too narrow for distinct support"
            with pytest.raises(error, match=f"^{message}$"):
                generate_corpus(CorpusSpec.from_json(spec))

    def test_lottery_corpus_is_checked_and_featurized_in_arrays(self, monkeypatch):
        calls = Counter()
        post_init = stochoice.Outcome.__post_init__
        features = stochoice.spaces.features

        def counted(name, fn):
            return lambda *args: (calls.update([name]), fn(*args))[1]

        monkeypatch.setattr(stochoice.Outcome, "__post_init__", counted("Outcome", post_init))
        monkeypatch.setattr(stochoice.spaces, "features", counted("features", features))
        spec = CorpusSpec(Space.distribution(3), 1500, 2, 6, sampler={"low": -1, "high": 1}, seed=5)
        menus = generate_corpus(spec)
        assert sum(m.phi.shape[0] for m in menus) == sum(map(len, menus))
        assert calls == {}

    def test_pair_sampling_deterministic(self):
        menus = generate_corpus(CorpusSpec(Space.scalar(), 10, seed=1))
        p1 = sample_pairs(menus, 7, 4)
        p2 = sample_pairs(menus, 7, 4)
        assert [(id(a), id(b)) for a, b in p1] == [(id(a), id(b)) for a, b in p2]


class TestGenCommand:
    def test_byte_identical_runs(self, tmp_path, scalar_corpus_spec):
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        assert main(["gen", "--spec", scalar_corpus_spec, "--out", str(out1)]) == 0
        assert main(["gen", "--spec", scalar_corpus_spec, "--out", str(out2)]) == 0
        files1 = sorted(out1.iterdir())
        files2 = sorted(out2.iterdir())
        assert [f.name for f in files1] == [f.name for f in files2]
        assert [f.read_bytes() for f in files1] == [f.read_bytes() for f in files2]
        assert files1[0].name == "menu_0001.json"
        assert len(files1) == 20


class TestCheckCommand:
    def test_mnl_passes_all(self, mnl_rule_file, scalar_corpus_spec, capsys):
        code = main(
            [
                "check",
                "--rule",
                mnl_rule_file,
                "--corpus",
                scalar_corpus_spec,
                "--tol",
                "1e-9",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert {r["axiom"] for r in payload["reports"]} == {
            "neutrality",
            "decomposability",
            "positivity",
            "continuity",
        }

    @pytest.mark.parametrize(
        "space",
        [{"kind": "discrete_distribution", "moment_order": 2}, {"kind": "mean_stddev"}],
        ids=lambda s: s["kind"],
    )
    def test_default_axioms_skip_continuity_off_its_spaces(self, tmp_path, space, capsys):
        spec = write(tmp_path / "spec.json", {"space": space, "menu_count": 4, "seed": 5})
        rule = write(tmp_path / "uniform.json", {"type": "uniform"})
        assert main(["check", "--rule", rule, "--corpus", spec, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["axiom"] for r in payload["reports"]] == [
            "neutrality",
            "positivity",
            "decomposability",
        ]

    def test_probit_fails_decomposability(self, tmp_path, capsys):
        rule = write(
            tmp_path / "probit.json",
            {"type": "iaru", "shock": {"kind": "gaussian", "param": 1.0}},
        )
        menu = write(
            tmp_path / "menu_b.json",
            {
                "space": {"kind": "real_scalar"},
                "actions": [
                    {"id": "b0", "outcome": 0},
                    {"id": "b1", "outcome": 1},
                ],
            },
        )
        code = main(
            [
                "check",
                "--rule",
                rule,
                "--menus",
                menu,
                "--axioms",
                "decomposability",
                "--tol",
                "1e-9",
                "--json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        report = payload["reports"][0]
        assert report["min_epsilon"] > 0.06
        assert report["witness"]["pair"] == ["b0", "b0"]

    def test_probit_on_power_menu_file(self, tmp_path, capsys):
        # 2^15 actions whose outcome groups hold up to C(15, 7) = 6435
        # actions; the normalization guard holds at that multiplicity
        rule = write(
            tmp_path / "probit.json",
            {"type": "iaru", "shock": {"kind": "gaussian", "param": 1.0}},
        )
        menu = write(tmp_path / "power.json", power(unit_binary_menu(), 15).to_json())
        argv = ["check", "--rule", rule, "--menus", menu,
                "--axioms", "neutrality,positivity", "--json"]
        assert main(argv) == 0
        reports = {r["axiom"]: r for r in json.loads(capsys.readouterr().out)["reports"]}
        assert reports["neutrality"]["min_epsilon"] == 0.0
        assert reports["positivity"]["satisfied_at_tol"]

    def test_identity_check_with_rational_scaling(self, tmp_path, capsys):
        rule = write(tmp_path / "r.json", {"type": "mnl", "beta": 1.0})
        menu = write(
            tmp_path / "menu_q.json",
            {
                "space": {"kind": "real_scalar"},
                "actions": [
                    {"id": "a", "outcome": 0.5},
                    {"id": "b", "outcome": 1.25},
                ],
            },
        )
        code = main(
            ["check", "--rule", rule, "--menus", menu, "--axioms", "identity", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reports"][0]["axiom"] == "cross_menu_identity"

    def test_malformed_menu_is_usage_error(self, tmp_path, mnl_rule_file):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["check", "--rule", mnl_rule_file, "--menus", str(bad)]) == 2

    def test_missing_outcome_key_is_usage_error(self, tmp_path, mnl_rule_file):
        bad = write(
            tmp_path / "bad2.json",
            {"space": {"kind": "real_scalar"}, "actions": [{"id": "a"}]},
        )
        assert main(["check", "--rule", mnl_rule_file, "--menus", bad]) == 2

    def test_unknown_axiom_is_usage_error(self, mnl_rule_file, scalar_corpus_spec):
        code = main(
            [
                "check",
                "--rule",
                mnl_rule_file,
                "--corpus",
                scalar_corpus_spec,
                "--axioms",
                "transitivity",
            ]
        )
        assert code == 2


class TestFitCommand:
    def test_mean_variance_fit(self, tmp_path, capsys):
        rule = write(
            tmp_path / "gm.json",
            {
                "type": "general_mnl",
                "utility": {
                    "space": {"kind": "mean_stddev"},
                    "gamma1": 1.0,
                    "gamma2": -0.5,
                },
            },
        )
        code = main(
            ["fit", "--rule", rule, "--space", '{"kind": "mean_stddev"}', "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["utility"]["gamma1"] == pytest.approx(1.0, abs=1e-9)
        assert payload["utility"]["gamma2"] == pytest.approx(-0.5, abs=1e-9)

    def test_uniform_fits_zero(self, tmp_path, capsys):
        rule = write(tmp_path / "u.json", {"type": "uniform"})
        code = main(
            ["fit", "--rule", rule, "--space", '{"kind": "real_scalar"}', "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["utility"]["beta"] == 0.0

    def test_subnormal_probe_probability_is_error(self, tmp_path, capsys):
        rule = write(tmp_path / "mnl.json", {"type": "mnl", "beta": 730.0})
        code = main(["fit", "--rule", rule, "--space", '{"kind": "real_scalar"}'])
        assert code == 2
        assert "lose precision" in capsys.readouterr().err

    def test_argmax_rule_is_error(self, tmp_path):
        rule = write(tmp_path / "inf.json", {"type": "mnl", "beta": "+inf"})
        code = main(
            ["fit", "--rule", rule, "--space", '{"kind": "real_scalar"}']
        )
        assert code == 2


class TestCertifyCommand:
    def test_perturbed_auto(self, tmp_path, scalar_corpus_spec, capsys):
        rule = write(
            tmp_path / "p.json",
            {
                "type": "perturbed",
                "base": {"type": "mnl", "beta": 2.0},
                "delta": 0.05,
                "seed": 7,
            },
        )
        out = tmp_path / "cert.json"
        code = main(
            [
                "certify",
                "--rule",
                rule,
                "--corpus",
                scalar_corpus_spec,
                "--utility",
                "auto",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        cert = json.loads(out.read_text())
        assert cert["delta"] <= 0.05 + 1e-8
        assert cert["corpus_size"] == 20
        assert all(
            abs(s) <= cert["delta"] + 1e-12
            for m in cert["menus"]
            for s in m["shocks"].values()
        )

    def test_probit_auto_has_residual_spread(self, tmp_path, capsys):
        rule = write(
            tmp_path / "pr.json",
            {"type": "iaru", "shock": {"kind": "gaussian", "param": 1.0}},
        )
        binary = write(
            tmp_path / "m1.json",
            {
                "space": {"kind": "real_scalar"},
                "actions": [
                    {"id": "b0", "outcome": 0},
                    {"id": "b1", "outcome": 1},
                ],
            },
        )
        write(
            tmp_path / "m2.json",
            {
                "space": {"kind": "real_scalar"},
                "actions": [
                    {"id": "c0", "outcome": 0},
                    {"id": "c1", "outcome": 1},
                    {"id": "c2", "outcome": 1},
                    {"id": "c3", "outcome": 2},
                ],
            },
        )
        code = main(
            [
                "certify",
                "--rule",
                rule,
                "--menus",
                str(tmp_path / "m*.json"),
                "--utility",
                "auto",
            ]
        )
        assert code == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["delta"] > 0.01

    def test_mnl_against_given_beta(self, tmp_path, scalar_corpus_spec, capsys):
        rule = write(tmp_path / "m2.json", {"type": "mnl", "beta": 2.0})
        utility = write(
            tmp_path / "u.json", {"space": {"kind": "real_scalar"}, "beta": 2.0}
        )
        code = main(
            [
                "certify",
                "--rule",
                rule,
                "--corpus",
                scalar_corpus_spec,
                "--utility",
                utility,
            ]
        )
        assert code == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["delta"] <= 1e-10

    @pytest.mark.parametrize(
        "utility",
        [
            {"space": {"kind": "real_scalar"}, "beta": 1.5},
            {
                "space": {"kind": "discrete_distribution", "moment_order": 3},
                "gammas": [1.0, -0.5, 0.2],
            },
        ],
        ids=lambda u: u["space"]["kind"],
    )
    def test_auto_chooses_once_per_menu(self, tmp_path, monkeypatch, utility, capsys):
        import stochoice.rules

        # the corpus pass is the entry point: one call evaluates each
        # corpus menu exactly once, in corpus order
        calls = []
        corpus_pass = stochoice.rules.Perturbed._pass

        def counted(self, menus):
            calls.append(list(menus))
            return corpus_pass(self, menus)

        monkeypatch.setattr(stochoice.rules.Perturbed, "_pass", counted)
        base = {"type": "general_mnl", "utility": utility}
        rule = write(
            tmp_path / "r.json", {"type": "perturbed", "base": base, "delta": 0.05, "seed": 3}
        )
        spec = {"space": utility["space"], "menu_count": 30, "seed": 5}
        corpus = write(tmp_path / "spec.json", spec)
        argv = ["certify", "--rule", rule, "--corpus", corpus, "--utility", "auto"]
        assert main(argv) == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["delta"] <= 0.05 + 1e-9
        assert calls == [generate_corpus(CorpusSpec.from_json(spec))]


class TestDemoProbit:
    def test_paper_numbers(self, capsys):
        start = time.perf_counter()
        code = main(["demo-probit", "--json"])
        elapsed = time.perf_counter() - start
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["binary_top"] == pytest.approx(0.760, abs=2e-3)
        assert payload["square_diagonal"] == pytest.approx(0.617, abs=2e-3)
        assert payload["violation_margin"] == pytest.approx(0.039, abs=4e-3)
        assert elapsed < 1.0

    def test_gumbel_has_no_margin(self, capsys):
        code = main(["demo-probit", "--shock", "gumbel:1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["violation_margin"]) <= 1e-8

    def test_wide_gaussian_margin_shrinks(self, capsys):
        main(["demo-probit", "--json"])
        narrow = json.loads(capsys.readouterr().out)
        main(["demo-probit", "--shock", "gaussian:10", "--json"])
        wide = json.loads(capsys.readouterr().out)
        assert wide["violation_margin"] < narrow["violation_margin"]


class TestUpsilonCommand:
    def test_mnl_fixed_point(self, tmp_path, mnl_rule_file, capsys):
        menu = write(
            tmp_path / "menu.json",
            {
                "space": {"kind": "real_scalar"},
                "actions": [
                    {"id": "b0", "outcome": 0},
                    {"id": "b1", "outcome": 1},
                ],
            },
        )
        code = main(
            [
                "upsilon",
                "--rule",
                mnl_rule_file,
                "--menus",
                menu,
                "--n-max",
                "8",
                "--json",
            ]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        expected = math.exp(1.0) / (1 + math.exp(1.0))
        assert rows[0]["distribution"]["b1"] == pytest.approx(expected, abs=1e-10)


class TestExitCodes:
    """Every failure, numerical ones included, exits 2 with an error line;
    exit 1 is reserved for axiom violations."""

    @pytest.fixture
    def inputs(self, tmp_path):
        narrow = {
            "space": {"kind": "discrete_distribution", "moment_order": 2},
            "menu_count": 3,
            "outcome_sampler": {"low": 0, "high": 0, "support_size": [2, 2]},
        }
        wide = {
            "space": {"kind": "real_scalar"},
            "actions": [{"id": f"a{i}", "outcome": i} for i in range(1001)],
        }
        unit = {
            "space": {"kind": "real_scalar"},
            "actions": [{"id": "b0", "outcome": 0}, {"id": "b1", "outcome": 1}],
        }
        lottery = {
            "space": {"kind": "discrete_distribution", "moment_order": 2},
            "menu_count": 3,
        }
        streams = {
            "space": {"kind": "prize_stream", "alphabet": ["g", "s"]},
            "menu_count": 3,
        }
        probit = {"type": "iaru", "shock": {"kind": "gaussian", "param": 1.0}}
        scalar_space = {"kind": "real_scalar"}
        lottery_space = {"kind": "discrete_distribution", "moment_order": 2}

        def scalars(*values):
            actions = [{"id": f"a{i}", "outcome": v} for i, v in enumerate(values)]
            return {"space": {"kind": "real_scalar"}, "actions": actions}

        return {
            "uniform": write(tmp_path / "uniform.json", {"type": "uniform"}),
            "mnl": write(tmp_path / "mnl.json", {"type": "mnl", "beta": 1.0}),
            "probit": write(tmp_path / "probit.json", probit),
            "narrow": write(tmp_path / "narrow.json", narrow),
            "lottery": write(tmp_path / "lottery.json", lottery),
            "wide": write(tmp_path / "wide.json", wide),
            "unit": write(tmp_path / "unit.json", unit),
            "nan": write(tmp_path / "nan.json", scalars(0.0, math.nan)),
            "infinite": write(tmp_path / "infinite.json", scalars(0.0, math.inf)),
            "pi": write(tmp_path / "pi.json", scalars(0.0, math.pi)),
            "three": write(tmp_path / "three.json", scalars(0.0, 1.0, 2.0)),
            "int_range": write(
                tmp_path / "int_range.json",
                {"space": scalar_space, "menu_count": 3, "actions_per_menu": 5},
            ),
            "list_spec": write(tmp_path / "list_spec.json", [scalar_space, 3]),
            "list_sampler": write(
                tmp_path / "list_sampler.json",
                {"space": scalar_space, "menu_count": 3, "outcome_sampler": [1]},
            ),
            "beta_list": write(
                tmp_path / "beta_list.json", {"space": scalar_space, "beta": [1, 2]}
            ),
            "gammas_int": write(
                tmp_path / "gammas_int.json", {"space": lottery_space, "gammas": 5}
            ),
            "unbalanced_id": write(
                tmp_path / "unbalanced_id.json",
                {
                    "space": scalar_space,
                    "actions": [{"id": "(a,bc", "outcome": 0}, {"id": "b", "outcome": 1}],
                },
            ),
            "count_float": write(
                tmp_path / "count_float.json", {"space": scalar_space, "menu_count": 2.7}
            ),
            "count_bool": write(
                tmp_path / "count_bool.json", {"space": scalar_space, "menu_count": True}
            ),
            "range_float": write(
                tmp_path / "range_float.json",
                {"space": scalar_space, "menu_count": 2, "actions_per_menu": [2.9, 5.5]},
            ),
            "seed_float": write(
                tmp_path / "seed_float.json",
                {"space": scalar_space, "menu_count": 2, "seed": 3.9},
            ),
            "int_range_empty": write(
                tmp_path / "int_range_empty.json",
                {"space": scalar_space, "menu_count": 2,
                 "outcome_sampler": {"integer": True, "low": 0.2, "high": 0.8}},
            ),
            "support_size_bool": write(
                tmp_path / "support_size_bool.json",
                {**lottery, "outcome_sampler": {"support_size": [True, 2]}},
            ),
            "support_size_float": write(
                tmp_path / "support_size_float.json",
                {**lottery, "outcome_sampler": {"support_size": [1, 2.5]}},
            ),
            "support_size_string": write(
                tmp_path / "support_size_string.json",
                {**lottery, "outcome_sampler": {"support_size": ["2", 2]}},
            ),
            "max_len_bool": write(
                tmp_path / "max_len_bool.json",
                {**streams, "outcome_sampler": {"max_len": True}},
            ),
            "min_len_float": write(
                tmp_path / "min_len_float.json",
                {**streams, "outcome_sampler": {"min_len": 0.5}},
            ),
            "max_len_string": write(
                tmp_path / "max_len_string.json",
                {**streams, "outcome_sampler": {"max_len": "2"}},
            ),
            "perturbed_seed_float": write(
                tmp_path / "perturbed_seed_float.json",
                {"type": "perturbed", "base": {"type": "uniform"}, "delta": 0.1, "seed": 3.7},
            ),
            "lengths_negative": write(
                tmp_path / "lengths_negative.json",
                {**streams, "outcome_sampler": {"min_len": -5, "max_len": -2}},
            ),
            "support_size_reversed": write(
                tmp_path / "support_size_reversed.json",
                {**lottery, "outcome_sampler": {"support_size": [3, 1]}},
            ),
            "support_size_negative": write(
                tmp_path / "support_size_negative.json",
                {**lottery, "outcome_sampler": {"support_size": [-3, -1]}},
            ),
            "sampler_key_unknown": write(
                tmp_path / "sampler_key_unknown.json",
                {"space": scalar_space, "menu_count": 2, "outcome_sampler": {"lo": -1}},
            ),
            "spec_key_unknown": write(
                tmp_path / "spec_key_unknown.json",
                {"space": scalar_space, "menu_count": 2, "actions": [2, 3]},
            ),
            "gaussian_infinite": write(
                tmp_path / "gaussian_infinite.json",
                {"type": "iaru", "shock": {"kind": "gaussian", "param": math.inf}},
            ),
            "gaussian_huge": write(
                tmp_path / "gaussian_huge.json",
                {"type": "iaru", "shock": {"kind": "gaussian", "param": 1e308}},
            ),
            "gumbel_nan": write(
                tmp_path / "gumbel_nan.json",
                {"type": "iaru", "shock": {"kind": "gumbel", "param": math.nan}},
            ),
            "delta_huge": write(
                tmp_path / "delta_huge.json",
                {"type": "perturbed", "base": {"type": "uniform"}, "delta": 10000, "seed": 1},
            ),
            "delta_infinite": write(
                tmp_path / "delta_infinite.json",
                {"type": "perturbed", "base": {"type": "uniform"}, "delta": math.inf, "seed": 1},
            ),
            "lottery_huge": write(
                tmp_path / "lottery_huge.json",
                {
                    "space": lottery_space,
                    "actions": [{"id": "a", "outcome": {"support": [0, 1e308],
                                                        "probs": [0.5, 0.5]}}],
                },
            ),
            "lottery_moments_overflow": write(
                tmp_path / "lottery_moments_overflow.json",
                {
                    "space": lottery_space,
                    "actions": [
                        {"id": "a", "outcome": {"support": [0, 1e200], "probs": [0.5, 0.5]}},
                        {"id": "b", "outcome": {"support": [0], "probs": [1]}},
                    ],
                },
            ),
            "utility_nan": write(
                tmp_path / "utility_nan.json", {"space": scalar_space, "beta": math.nan}
            ),
            "utility_huge": write(
                tmp_path / "utility_huge.json", {"space": scalar_space, "beta": 1e308}
            ),
            "ten": write(tmp_path / "ten.json", scalars(0.0, 10.0)),
            "mnl_nan": write(tmp_path / "mnl_nan.json", {"type": "mnl", "beta": math.nan}),
            "mnl_beta_bool": write(tmp_path / "mnl_beta_bool.json", {"type": "mnl", "beta": True}),
            "mnl_beta_string": write(
                tmp_path / "mnl_beta_string.json", {"type": "mnl", "beta": "1.5"}
            ),
            "perturbed_delta_string": write(
                tmp_path / "perturbed_delta_string.json",
                {"type": "perturbed", "base": {"type": "uniform"}, "delta": "0.1", "seed": 1},
            ),
            "gumbel_param_bool": write(
                tmp_path / "gumbel_param_bool.json",
                {"type": "iaru", "shock": {"kind": "gumbel", "param": True}},
            ),
            "utility_beta_string": write(
                tmp_path / "utility_beta_string.json", {"space": scalar_space, "beta": "1.5"}
            ),
            "utility_gammas_bool": write(
                tmp_path / "utility_gammas_bool.json",
                {"space": lottery_space, "gammas": [1.0, False]},
            ),
            "out": str(tmp_path / "out"),
        }

    CASES = {
        "check_sampler_too_narrow": ["check", "--rule", "uniform", "--corpus", "narrow"],
        "certify_sampler_too_narrow": ["certify", "--rule", "uniform", "--corpus", "narrow"],
        "gen_sampler_too_narrow": ["gen", "--spec", "narrow", "--out", "out"],
        "check_continuity_on_lotteries": [
            "check", "--rule", "uniform", "--corpus", "lottery", "--axioms", "continuity",
        ],
        "check_product_over_size_guard": [
            "check", "--rule", "mnl", "--menus", "wide",
            "--axioms", "decomposability", "--pairs", "1",
        ],
        "upsilon_probit_groups_over_size_guard": [
            # C(1502, 2) = 1,127,251 outcome groups
            "upsilon", "--rule", "probit", "--menus", "three", "--n-max", "1500",
        ],
        "upsilon_power_over_size_guard": [
            "upsilon", "--rule", "mnl", "--menus", "unit", "--n-max", "21",
        ],
        "check_nan_outcome": ["check", "--rule", "mnl", "--menus", "nan"],
        "check_infinite_outcome": ["check", "--rule", "mnl", "--menus", "infinite"],
        "check_identity_on_irrational_outcome": [
            "check", "--rule", "mnl", "--menus", "pi", "--axioms", "identity",
        ],
        "fit_unknown_space": ["fit", "--rule", "mnl", "--space", '{"kind": "simplex"}'],
        "fit_inline_space_malformed": [
            "fit", "--rule", "mnl", "--space", '{"kind": "real_vector", "d": [1]}',
        ],
        "fit_rule_on_wrong_space": [
            "fit", "--rule", "probit", "--space", '{"kind": "matrix", "d": 2}',
        ],
        "demo_probit_unknown_shock": ["demo-probit", "--shock", "cauchy:1"],
        "check_actions_per_menu_not_a_pair": [
            "check", "--rule", "uniform", "--corpus", "int_range",
        ],
        "gen_actions_per_menu_not_a_pair": ["gen", "--spec", "int_range", "--out", "out"],
        "check_spec_is_a_list": ["check", "--rule", "uniform", "--corpus", "list_spec"],
        "check_sampler_is_a_list": ["check", "--rule", "uniform", "--corpus", "list_sampler"],
        "certify_utility_beta_is_a_list": [
            "certify", "--rule", "mnl", "--menus", "three", "--utility", "beta_list",
        ],
        "certify_utility_gammas_not_a_list": [
            "certify", "--rule", "uniform", "--corpus", "lottery", "--utility", "gammas_int",
        ],
        "upsilon_negative_eps_decomp": [
            "upsilon", "--rule", "mnl", "--menus", "unit", "--eps-decomp", "-2", "--json",
        ],
        "check_nan_tol": ["check", "--rule", "mnl", "--menus", "three", "--tol", "NaN"],
        "check_negative_tol": ["check", "--rule", "mnl", "--menus", "three", "--tol", "-0.001"],
        "check_unbalanced_action_id": ["check", "--rule", "mnl", "--menus", "unbalanced_id"],
        "check_menu_count_not_integral": ["check", "--rule", "uniform", "--corpus", "count_float"],
        "check_menu_count_is_a_bool": ["check", "--rule", "uniform", "--corpus", "count_bool"],
        "check_actions_per_menu_not_integral": [
            "check", "--rule", "uniform", "--corpus", "range_float",
        ],
        "check_spec_seed_not_integral": ["check", "--rule", "uniform", "--corpus", "seed_float"],
        "fit_vector_dimension_not_integral": [
            "fit", "--rule", "uniform", "--space", '{"kind": "real_vector", "d": 2.5}',
        ],
        "fit_moment_order_not_integral": [
            "fit", "--rule", "uniform", "--space",
            '{"kind": "discrete_distribution", "moment_order": 2.5}',
        ],
        "fit_alphabet_is_a_string": [
            "fit", "--rule", "uniform", "--space", '{"kind": "prize_stream", "alphabet": "gold"}',
        ],
        "fit_alphabet_has_a_number": [
            "fit", "--rule", "uniform", "--space", '{"kind": "prize_stream", "alphabet": ["g", 1]}',
        ],
        "check_integer_sampler_range_empty": [
            "check", "--rule", "uniform", "--corpus", "int_range_empty",
        ],
        "check_perturbed_seed_not_integral": [
            "check", "--rule", "perturbed_seed_float", "--menus", "three",
        ],
        "check_support_size_is_a_bool": [
            "check", "--rule", "uniform", "--corpus", "support_size_bool",
        ],
        "check_support_size_not_integral": [
            "check", "--rule", "uniform", "--corpus", "support_size_float",
        ],
        "check_support_size_is_a_string": [
            "check", "--rule", "uniform", "--corpus", "support_size_string",
        ],
        "gen_max_len_is_a_bool": ["gen", "--spec", "max_len_bool", "--out", "out"],
        "gen_min_len_not_integral": ["gen", "--spec", "min_len_float", "--out", "out"],
        "gen_max_len_is_a_string": ["gen", "--spec", "max_len_string", "--out", "out"],
        "gen_lengths_negative": ["gen", "--spec", "lengths_negative", "--out", "out"],
        "check_support_size_reversed": [
            "check", "--rule", "uniform", "--corpus", "support_size_reversed",
        ],
        "check_support_size_negative": [
            "check", "--rule", "uniform", "--corpus", "support_size_negative",
        ],
        "check_sampler_key_unknown": [
            "check", "--rule", "uniform", "--corpus", "sampler_key_unknown",
        ],
        "check_spec_key_unknown": ["check", "--rule", "uniform", "--corpus", "spec_key_unknown"],
        "certify_utility_beta_nan": [
            "certify", "--rule", "mnl", "--menus", "three", "--utility", "utility_nan",
        ],
        "check_mnl_beta_nan": ["check", "--rule", "mnl_nan", "--menus", "three"],
        "check_mnl_beta_is_a_bool": ["check", "--rule", "mnl_beta_bool", "--menus", "three"],
        "certify_utility_beta_is_a_string": [
            "certify", "--rule", "mnl", "--menus", "three", "--utility", "utility_beta_string",
        ],
        "check_axioms_empty": ["check", "--rule", "mnl", "--menus", "three", "--axioms", ""],
        "check_axioms_only_commas": [
            "check", "--rule", "mnl", "--menus", "three", "--axioms", ",",
        ],
    }

    # each spec error names what is wrong
    SPEC_MESSAGES = {
        "lengths_negative": "min_len, max_len must be >= 0, got [-5, -2]",
        "support_size_reversed": "support_size range [3, 1] is reversed",
        "support_size_negative": "support_size must be >= 1, got [-3, -1]",
        "sampler_key_unknown": "unknown outcome_sampler keys: ['lo']",
        "spec_key_unknown": "unknown corpus spec keys: ['actions']",
    }

    # numerical failures that could end in a traceback or exhaust memory;
    # they run in a capped child process, so a regression fails one test
    CAPPED_CASES = {
        "check_gaussian_scale_infinite": ["check", "--rule", "gaussian_infinite", "--menus", "unit"],
        "check_gaussian_scale_overflows": ["check", "--rule", "gaussian_huge", "--menus", "unit"],
        "check_gumbel_scale_nan": ["check", "--rule", "gumbel_nan", "--menus", "unit"],
        "check_delta_infinite": ["check", "--rule", "delta_infinite", "--menus", "unit"],
        "check_lottery_sum_overflows": [
            "check", "--rule", "uniform", "--menus", "lottery_huge",
            "--axioms", "decomposability", "--pairs", "1",
        ],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_failure_exits_2(self, case, inputs, capsys):
        argv = [inputs.get(arg, arg) for arg in self.CASES[case]]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("spec", sorted(SPEC_MESSAGES))
    def test_spec_error_is_named(self, spec, inputs, capsys):
        assert main(["check", "--rule", inputs["uniform"], "--corpus", inputs[spec]]) == 2
        message = f"invalid corpus spec file {inputs[spec]}: {self.SPEC_MESSAGES[spec]}"
        assert capsys.readouterr().err == f"error: {message}\n"

    # a rule or utility number is a JSON number, never a bool or a string
    NUMBER_MESSAGES = {
        "mnl_beta_bool": ("rule", "beta must be a JSON number, got True"),
        "mnl_beta_string": ("rule", "beta must be a JSON number, got '1.5'"),
        "perturbed_delta_string": ("rule", "delta must be a JSON number, got '0.1'"),
        "gumbel_param_bool": ("rule", "shock param must be a JSON number, got True"),
        "utility_beta_string": (
            "utility", "a utility coefficient must be a JSON number, got '1.5'",
        ),
        "utility_gammas_bool": (
            "utility", "a utility coefficient must be a JSON number, got False",
        ),
    }

    @pytest.mark.parametrize("name", sorted(NUMBER_MESSAGES))
    def test_number_error_is_named(self, name, inputs, capsys):
        what, message = self.NUMBER_MESSAGES[name]
        if what == "rule":
            argv = ["check", "--rule", inputs[name]]
        else:
            argv = ["certify", "--rule", inputs["uniform"], "--utility", inputs[name]]
        assert main([*argv, "--menus", inputs["three"]]) == 2
        assert capsys.readouterr().err == f"error: invalid {what} file {inputs[name]}: {message}\n"

    @pytest.mark.parametrize("case", sorted(CAPPED_CASES))
    def test_numerical_failure_exits_2_within_the_cap(self, case, inputs):
        done = run_capped([inputs.get(arg, arg) for arg in self.CAPPED_CASES[case]])
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr

    def test_shifted_shocks_exit_0_or_1(self, inputs):
        # shocks of +-10000 overflow exp unless shifted; the distribution
        # is well defined, so check reports on it
        done = run_capped(["check", "--rule", inputs["delta_huge"], "--menus", inputs["unit"]])
        assert done.returncode in (0, 1), done.stderr

    def test_overflowing_utility_is_named(self, inputs):
        # in a child process, so that numpy's warnings would reach stderr
        done = run_capped(["certify", "--rule", inputs["mnl"], "--menus", inputs["ten"],
                           "--utility", inputs["utility_huge"]])
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: utility {'beta': 1e+308} is not finite")
        assert "RuntimeWarning" not in done.stderr and "reconstruction" not in done.stderr

    def test_non_finite_features_are_named(self, inputs):
        # the second cumulant of a lottery on {0, 1e200} overflows; the
        # auto fit would pass it to linprog
        done = run_capped(["certify", "--rule", inputs["uniform"],
                           "--menus", inputs["lottery_moments_overflow"]])
        assert done.returncode == 2, done.stderr
        assert done.stderr == (
            "error: outcome features are not finite on menu lottery_moments_overflow.json\n"
        )
        assert "linprog" not in done.stderr

    def test_overflowing_general_utility_is_named(self, inputs, tmp_path):
        # in a child process, so that numpy's warnings would reach stderr;
        # MNL and the general logit share one overflow check
        utility = {"space": {"kind": "real_scalar"}, "beta": 1e308}
        rules = {"general_huge": {"type": "general_mnl", "utility": utility},
                 "mnl_huge": {"type": "mnl", "beta": 1e308}}
        for name, spec in rules.items():
            rule = write(tmp_path / f"{name}.json", spec)
            done = run_capped(["check", "--rule", rule, "--menus", inputs["ten"]])
            assert done.returncode == 2, done.stderr
            assert done.stderr == "error: utility {'beta': 1e+308} is not finite at action a1\n"

    @pytest.mark.parametrize(
        "argv",
        [["check", "--rule", "mnl", "--menus", "three"],
         ["certify", "--rule", "probit", "--menus", "three"]],
        ids=["check", "certify_probit"],
    )
    def test_normal_run_fits_the_cap(self, argv, inputs):
        done = run_capped([inputs.get(arg, arg) for arg in argv])
        assert done.returncode == 0, done.stderr

    def test_certificate_reconstruction_failure_exits_2(
        self, inputs, monkeypatch, capsys
    ):
        import stochoice.extract

        monkeypatch.setattr(stochoice.extract, "RECONSTRUCTION_TOL", -1.0)
        argv = ["certify", "--rule", inputs["mnl"], "--menus", inputs["unit"]]
        assert main(argv) == 2
        assert "reconstruction" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["NaN", "-0.001", "inf"])
    def test_bad_tol_is_named(self, tol, inputs, capsys):
        argv = ["check", "--rule", inputs["mnl"], "--menus", inputs["three"], "--tol", tol]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --tol must be finite and >= 0\n"


class TestInputFlags:
    """Each menu command reads exactly one of --menus and --corpus; any
    other use is an argparse usage error, which exits 2."""

    @pytest.mark.parametrize("command", ["check", "certify", "upsilon"])
    def test_both_flags_exit_2(self, command, tmp_path, mnl_rule_file, capsys):
        write(tmp_path / "m0.json", {"space": {"kind": "real_scalar"},
                                     "actions": [{"id": "a", "outcome": 0.0}]})
        argv = [command, "--rule", mnl_rule_file, "--menus", str(tmp_path / "m*.json"),
                "--corpus", str(tmp_path / "nonexistent.json")]
        with pytest.raises(SystemExit) as done:
            main(argv)
        assert done.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --corpus: not allowed with argument --menus" in err

    @pytest.mark.parametrize("command", ["check", "certify", "upsilon"])
    def test_neither_flag_exits_2(self, command, mnl_rule_file, capsys):
        with pytest.raises(SystemExit) as done:
            main([command, "--rule", mnl_rule_file])
        assert done.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "one of the arguments --menus --corpus is required" in err


class TestMenuFileOutcomes:
    """A menu file's outcomes are read exactly or refused with exit 2: a
    lottery's support and probs have equal lengths, and an outcome number
    is a JSON number, never a bool or a numeric string."""

    LOTTERY = {"kind": "discrete_distribution", "moment_order": 2}
    CASES = {
        "support_longer": (
            LOTTERY, {"support": [0, 1, 2], "probs": [0.5, 0.5]},
            "lottery has 3 support points but 2 probs",
        ),
        "probs_longer": (
            LOTTERY, {"support": [0], "probs": [0.5, 0.5]},
            "lottery has 1 support points but 2 probs",
        ),
        "support_string": (
            LOTTERY, {"support": ["1.5", 0], "probs": [0.5, 0.5]},
            "an outcome number must be a JSON number, got '1.5'",
        ),
        "probs_bool": (
            LOTTERY, {"support": [0], "probs": [True]},
            "an outcome number must be a JSON number, got True",
        ),
        "scalar_bool": (
            {"kind": "real_scalar"}, False, "an outcome number must be a JSON number, got False",
        ),
        "scalar_string": (
            {"kind": "real_scalar"}, "1.5", "an outcome number must be a JSON number, got '1.5'",
        ),
        "vector_string": (
            {"kind": "real_vector", "d": 2}, [0.5, "2"],
            "an outcome number must be a JSON number, got '2'",
        ),
        "sigma_bool": (
            {"kind": "mean_stddev"}, {"m": 0.0, "sigma": True},
            "an outcome number must be a JSON number, got True",
        ),
        "matrix_string": (
            {"kind": "matrix", "d": 2}, [[1, 0], [0, "1e0"]],
            "an outcome number must be a JSON number, got '1e0'",
        ),
        "stream_string": (
            {"kind": "prize_stream", "alphabet": ["a", "b"]}, "ab",
            "a prize stream must be a JSON list of prize labels, got 'ab'",
        ),
        "stream_number_label": (
            {"kind": "prize_stream", "alphabet": ["a", "1"]}, ["a", 1],
            "a prize stream must be a JSON list of prize labels, got ['a', 1]",
        ),
    }

    @pytest.mark.parametrize("command", ["check", "certify", "upsilon"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_refused_with_exit_2(self, case, command, tmp_path, capsys):
        space, outcome, message = self.CASES[case]
        menu = write(tmp_path / "menu.json",
                     {"space": space, "actions": [{"id": "a", "outcome": outcome}]})
        rule = write(tmp_path / "rule.json", {"type": "uniform"})
        assert main([command, "--rule", rule, "--menus", menu]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: invalid menu file {menu}: {message}\n"

    def test_numbers_and_prize_labels_are_read(self, tmp_path, capsys):
        menus = {
            "lottery": (self.LOTTERY, [{"support": [2, 0.5], "probs": [0.25, 0.75]},
                                       {"support": [1], "probs": [1]}]),
            "vector": ({"kind": "real_vector", "d": 2}, [[1, -0.5], [0, 2]]),
            "prizes": ({"kind": "prize_stream", "alphabet": ["1", "true"]}, [["1"], ["true", "1"]]),
        }
        rule = write(tmp_path / "rule.json", {"type": "uniform"})
        for name, (space, outcomes) in menus.items():
            actions = [{"id": f"a{i}", "outcome": o} for i, o in enumerate(outcomes)]
            menu = write(tmp_path / f"{name}.json", {"space": space, "actions": actions})
            assert main(["upsilon", "--rule", rule, "--menus", menu, "--json"]) == 0
            rows = json.loads(capsys.readouterr().out)
            assert rows[0]["distribution"] == {"a0": 0.5, "a1": 0.5}


class TestMenuFileIds:
    """A malformed id anywhere in a power-menu file exits 2 and names the
    whole id, also where it breaks a left part that other ids share."""

    @staticmethod
    def _break_last(s):
        return s[:-1]

    @staticmethod
    def _break_inner_pair(s):
        # "((x0,x1),x0)" -> "((x0,x1,x0),x0)"
        j = s.index(")")
        return f"{s[:j]},x0{s[j:]}"

    @pytest.mark.parametrize(
        "position, breaking",
        [(0, "_break_last"), (1024, "_break_inner_pair"), (2047, "_break_last"),
         (2047, "_break_inner_pair")],
    )
    def test_malformed_id_is_named(self, position, breaking, tmp_path, capsys):
        data = power(scalar_menu({"x0": 0.0, "x1": 0.5}), 11).to_json()
        assert len(data["actions"]) == 2048
        item = data["actions"][position]
        item["id"] = broken = getattr(self, breaking)(item["id"])
        menu = write(tmp_path / "menu.json", data)
        rule = write(tmp_path / "rule.json", {"type": "mnl", "beta": 1.0})
        assert main(["check", "--rule", rule, "--menus", menu]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: invalid menu file {menu}: malformed action id: {broken!r}\n"


class TestEpsDecomp:
    """``upsilon --eps-decomp`` is finite and >= 0, so ``--json`` never
    writes a bound that is not JSON."""

    @staticmethod
    def upsilon(tmp_path, eps):
        menu = write(tmp_path / "menu.json", {"space": {"kind": "real_scalar"},
                                              "actions": [{"id": "a", "outcome": 0.0}]})
        rule = write(tmp_path / "rule.json", {"type": "mnl", "beta": 1.0})
        return main(["upsilon", "--rule", rule, "--menus", menu, f"--eps-decomp={eps}", "--json"])

    @pytest.mark.parametrize("eps", ["inf", "-inf", "nan", "-2"])
    def test_refused_with_exit_2(self, eps, tmp_path, capsys):
        assert self.upsilon(tmp_path, eps) == 2
        assert capsys.readouterr() == ("", "error: --eps-decomp must be finite and >= 0\n")

    def test_zero_gives_a_json_bound(self, tmp_path, capsys):
        assert self.upsilon(tmp_path, "0") == 0
        out = capsys.readouterr().out
        assert json.loads(out, parse_constant=pytest.fail)[0]["bound"] == 0.0


class TestFailingPass:
    """A corpus or product pass that fails partway exits 2 with the error
    of the first menu that fails, as choosing menu by menu raised it, and
    prints no report."""

    @staticmethod
    def rules(tmp_path, beta):
        mnl = {"type": "mnl", "beta": beta}
        return {
            "mnl": write(tmp_path / "mnl.json", mnl),
            "perturbed": write(tmp_path / "perturbed.json",
                               {"type": "perturbed", "base": mnl, "delta": 0.05, "seed": 1}),
        }

    @staticmethod
    def menus(tmp_path, *outcomes):
        (tmp_path / "menus").mkdir()
        for i, values in enumerate(outcomes):
            actions = [{"id": f"a{j}", "outcome": v} for j, v in enumerate(values)]
            write(tmp_path / "menus" / f"m{i}.json",
                  {"space": {"kind": "real_scalar"}, "actions": actions})
        return str(tmp_path / "menus" / "*.json")

    @pytest.mark.parametrize("rule", ["mnl", "perturbed"])
    def test_overflow_mid_corpus(self, rule, tmp_path, capsys):
        menus = self.menus(tmp_path, [0.0, 1e-306], [0.0, 200.0, 20.0], [0.0, 1e-306])
        argv = ["check", "--rule", self.rules(tmp_path, 1e306)[rule], "--menus", menus, "--json"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: utility {'beta': 1e+306} is not finite at action a1\n"

    @pytest.mark.parametrize("rule", ["mnl", "perturbed"])
    def test_overflow_mid_products(self, rule, tmp_path, capsys):
        # each corpus menu is chosen without error; of the 4 sampled
        # pairs only the third, m1 x m1, holds an outcome 2 whose utility
        # 2e308 overflows
        outcomes = ([0.0, 0.1], [0.0, 1.0], [0.0, 0.2])
        menus = self.menus(tmp_path, *outcomes)
        corpus = [scalar_menu({"a0": 0.0, "a1": v}) for _, v in outcomes]
        assert [(corpus.index(m1), corpus.index(m2)) for m1, m2 in sample_pairs(corpus, 4, 5)] == [
            (0, 1), (2, 2), (1, 1), (0, 2)
        ]
        argv = ["check", "--rule", self.rules(tmp_path, 1e308)[rule], "--menus", menus,
                "--axioms", "neutrality,positivity,decomposability", "--pairs", "4", "--seed", "5",
                "--json"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: utility {'beta': 1e+308} is not finite at action (a1,a1)\n"


PROBIT_RULE = {"type": "iaru", "shock": {"kind": "gaussian", "param": 1.0}}
LOTTERY_RULE = {
    "type": "perturbed",
    "base": {
        "type": "general_mnl",
        "utility": {
            "space": {"kind": "discrete_distribution", "moment_order": 2},
            "gammas": [1.0, -0.5],
        },
    },
    "delta": 0.05,
    "seed": 3,
}
# integer outcomes keep the identity check defined and make equal
# outcomes, so neutrality compares pairs
PROBIT_SPEC = {
    "space": {"kind": "real_scalar"},
    "menu_count": 6,
    "actions_per_menu": [2, 3],
    "outcome_sampler": {"low": -4, "high": 4, "integer": True},
    "seed": 7,
}
LOTTERY_SPEC = {
    "space": {"kind": "discrete_distribution", "moment_order": 2},
    "menu_count": 12,
    "seed": 5,
}
SHARED_CASES = {
    "probit": (
        PROBIT_RULE,
        PROBIT_SPEC,
        ["neutrality", "positivity", "continuity", "decomposability", "identity"],
    ),
    "lottery": (LOTTERY_RULE, LOTTERY_SPEC, ["neutrality", "positivity", "decomposability"]),
}


class TestCheckSharesChoices:
    """``check`` chooses from each corpus menu once and hands that
    distribution to every checker; the reports are those of the checkers
    called one by one with the rule itself."""

    PAIRS, SEED, TOL = 9, 4, 1e-9

    def run_check(self, tmp_path, case, capsys):
        rule, spec, which = SHARED_CASES[case]
        argv = [
            "check", "--rule", write(tmp_path / "rule.json", rule),
            "--corpus", write(tmp_path / "spec.json", spec),
            "--axioms", ",".join(which), "--pairs", str(self.PAIRS),
            "--seed", str(self.SEED), "--json",
        ]
        code = main(argv)
        return code, json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("case", sorted(SHARED_CASES))
    def test_reports_match_direct_checks(self, tmp_path, case, capsys):
        rule_json, spec, which = SHARED_CASES[case]
        rule = rule_from_json(rule_json)
        menus = generate_corpus(CorpusSpec.from_json(spec))
        ids = [f"menu_{i + 1:04d}" for i in range(len(menus))]
        per_menu = {
            "neutrality": lambda m, mid: axioms.neutrality_epsilon(
                rule, m, tol=self.TOL, menu_id=mid
            ),
            "positivity": lambda m, mid: axioms.positivity_check(rule, m, menu_id=mid),
            "continuity": lambda m, mid: axioms.continuity_probe(rule, m, menu_id=mid),
            "identity": lambda m, mid: axioms.cross_menu_identity_epsilon(
                rule, m, tol=self.TOL, menu_id=mid
            ),
        }
        rows = []
        for name in which:
            if name == "decomposability":
                labeled = list(zip(ids, menus))
                reports = [
                    axioms.decomposability_epsilon(
                        rule, m1, m2, tol=self.TOL, menu_id=f"({id1},{id2})"
                    )
                    for (id1, m1), (id2, m2) in sample_pairs(labeled, self.PAIRS, self.SEED)
                ]
            else:
                reports = [per_menu[name](m, mid) for m, mid in zip(menus, ids)]
            row = axioms.merge_reports(reports).to_json()
            row["witnesses"] = [r.witness for r in reports if r.witness is not None]
            rows.append(row)
        expected = json.loads(json.dumps(rows))

        code, payload = self.run_check(tmp_path, case, capsys)
        assert payload["reports"] == expected
        assert [r["instances_checked"] for r in payload["reports"]][-1] == (
            self.PAIRS if which[-1] == "decomposability" else len(menus)
        )
        assert code == (0 if payload["pass"] else 1)
        assert payload["pass"] == all(r["satisfied_at_tol"] for r in expected)

    @pytest.mark.parametrize("case", sorted(SHARED_CASES))
    def test_each_corpus_menu_chosen_once(self, tmp_path, case, monkeypatch, capsys):
        import stochoice.cli

        chosen = Counter()

        class Counted(Rule):
            def __init__(self, rule):
                self.rule = rule

            def choose(self, menu):
                chosen[menu] += 1
                return self.rule.choose(menu)

        load = stochoice.cli._load_rule
        monkeypatch.setattr(stochoice.cli, "_load_rule", lambda path: Counted(load(path)))
        self.run_check(tmp_path, case, capsys)
        corpus = generate_corpus(CorpusSpec.from_json(SHARED_CASES[case][1]))
        # menus equal in value are counted together
        assert {m: chosen[m] for m in corpus} == dict(Counter(corpus))
        # products, continuity's moved menus and identity probes come on top
        assert sum(chosen.values()) > len(corpus)

    def test_identity_probe_chosen_once(self, tmp_path, monkeypatch, capsys):
        import stochoice.cli

        chosen = Counter()

        class Counted(Rule):
            def __init__(self, rule):
                self.rule = rule

            def choose(self, menu):
                chosen[menu] += 1
                return self.rule.choose(menu)

        load = stochoice.cli._load_rule
        monkeypatch.setattr(stochoice.cli, "_load_rule", lambda path: Counted(load(path)))
        self.run_check(tmp_path, "probit", capsys)
        # every menu of the integer corpus has k = 1
        assert chosen[unit_binary_menu()] == 1
