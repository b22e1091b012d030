"""The benchmark's tracer (``benchmark/tracing.py``) wraps stochoice's
public functions by rebinding their names after a fresh import.  This
runs it in a new interpreter on one ``check`` so that renaming or
unbinding a wrapped name fails the test suite, not only the benchmark.
The README's library tour runs here as well, for the same reason."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# bytecode writing is off so that the run leaves nothing under benchmark/
SCRIPT = """
import json, sys
sys.dont_write_bytecode = True
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import stochoice.cli
from tracing import Tracer
tracer = Tracer()
tracer.install()
main = tracer.span("cli", stochoice.cli.main)
argv = ["check", "--rule", sys.argv[3], "--menus", sys.argv[4], "--json",
        "--axioms", "neutrality,positivity,continuity,decomposability"]
code = main(argv)
print(json.dumps({"code": code, "metrics": tracer.metrics()}))
"""


def test_tracer_wraps_a_check(tmp_path):
    rule = tmp_path / "rule.json"
    rule.write_text(
        json.dumps({"type": "perturbed", "base": {"type": "mnl", "beta": 1.0},
                    "delta": 0.05, "seed": 3}),
        encoding="utf-8",
    )
    # a, b and c form a tolerance chain: one block, not all-equal
    menu = tmp_path / "menu.json"
    outcomes = {"a": 0.0, "b": 6e-10, "c": 1.2e-9, "d": 1.0}
    menu.write_text(
        json.dumps({"space": {"kind": "real_scalar"},
                    "actions": [{"id": k, "outcome": v} for k, v in outcomes.items()]}),
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "benchmark"),
         str(rule), str(menu)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 1
    metrics = result["metrics"]
    assert metrics["axioms.pairs_compared"] == 3
    assert metrics["rules.choose.calls"] == 10
    assert metrics["menus.menu_hash.calls"] == 5
    # the scalar product menu is one array sum: no per-outcome compose
    assert metrics["spaces.compose.calls"] == 0
    assert metrics["menus.product.s"] > 0.0
    for name in ("cli", "rules.Perturbed.choose", "rules.MNL.choose",
                 "axioms.neutrality_epsilon", "axioms.positivity_check",
                 "axioms.continuity_probe", "axioms.decomposability_epsilon"):
        assert metrics[f"{name}.self_s"] > 0.0, name


# the same traced run for any CLI argv, given as JSON
TRACED_ARGV = """
import json, sys
sys.dont_write_bytecode = True
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import stochoice.cli
from tracing import Tracer
tracer = Tracer()
tracer.install()
code = tracer.span("cli", stochoice.cli.main)(json.loads(sys.argv[3]))
print(json.dumps({"code": code, "metrics": tracer.metrics()}))
"""


def test_upsilon_hashes_the_power_menu_once(tmp_path):
    # Perturbed's shocks need the power menu's hash and each action's id
    # string; both come from one pass over the menu
    rule = tmp_path / "rule.json"
    rule.write_text(
        json.dumps({"type": "perturbed", "base": {"type": "mnl", "beta": 1.0},
                    "delta": 0.05, "seed": 7}),
        encoding="utf-8",
    )
    menu = tmp_path / "unit.json"
    menu.write_text(
        json.dumps({"space": {"kind": "real_scalar"},
                    "actions": [{"id": "b0", "outcome": 0}, {"id": "b1", "outcome": 1}]}),
        encoding="utf-8",
    )
    argv = ["upsilon", "--rule", str(rule), "--menus", str(menu), "--n-max", "10", "--json"]
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_ARGV, str(ROOT / "src"), str(ROOT / "benchmark"),
         json.dumps(argv)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    metrics = result["metrics"]
    assert metrics["menus.menu_hash.calls"] == 1
    assert metrics["menus.actions_hashed"] == 1024
    assert metrics["rules.choose.calls"] == 2


def test_general_mnl_reads_feature_rows(tmp_path):
    # GeneralMNL on a lottery power menu reads its phi, the sums of its
    # factors' rows: no utility is evaluated outcome by outcome
    rule = tmp_path / "rule.json"
    utility = {"space": {"kind": "discrete_distribution", "moment_order": 3},
               "gammas": [1.0, -0.5, 0.1]}
    rule.write_text(
        json.dumps({"type": "perturbed", "base": {"type": "general_mnl", "utility": utility},
                    "delta": 0.05, "seed": 7}),
        encoding="utf-8",
    )
    supports = [[0.0, 1.0], [-0.5, 0.5, 1.5], [0.25]]
    menu = tmp_path / "lotteries.json"
    menu.write_text(
        json.dumps({"space": utility["space"],
                    "actions": [{"id": f"l{i}", "outcome": {"support": s,
                                                            "probs": [1.0 / len(s)] * len(s)}}
                                for i, s in enumerate(supports)]}),
        encoding="utf-8",
    )
    argv = ["upsilon", "--rule", str(rule), "--menus", str(menu), "--n-max", "6", "--json"]
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_ARGV, str(ROOT / "src"), str(ROOT / "benchmark"),
         json.dumps(argv)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    metrics = result["metrics"]
    assert metrics["spaces.evaluate.calls"] == 0
    assert metrics["rules.choose.calls"] == 2
    assert metrics["rules.actions_chosen"] == 2 * 3**6


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize takes about 0.2 s to import; only the fits that
    # solve a linear program load it, inside the function that needs it.
    # scipy.sparse is loaded only by equivalent's bipartite matching.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import stochoice.cli; "
         "print('scipy.optimize' in sys.modules, 'scipy.sparse' in sys.modules)",
         str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


def test_no_process_wide_caches():
    # a menu keeps its derived values in its own dict (cached_property);
    # a function cache would keep menus, and their arrays, for the
    # process's life
    pattern = re.compile(r"\blru_cache\b|\bfunctools\.cache\b|@cache\b|\bimport\b.*\bcache\b")
    for path in sorted((ROOT / "src" / "stochoice").glob("*.py")):
        found = pattern.search(path.read_text(encoding="utf-8"))
        assert found is None, f"{path.name}: {found and found.group()}"


def test_readme_library_tour_runs():
    # the tour is the README's one python block; a name it uses that the
    # library no longer has fails here
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_check_spends_a_bounded_point_budget_per_integral(tmp_path):
    # each IARU choice is one quadrature; the bound of 600 points per
    # integral sits between adaptive G7-K15's ~300 and adaptive
    # Simpson's ~2,000
    rule = tmp_path / "rule.json"
    rule.write_text(
        json.dumps({"type": "iaru", "shock": {"kind": "gaussian", "param": 1.0}}),
        encoding="utf-8",
    )
    corpus = tmp_path / "corpus.json"
    corpus.write_text(
        json.dumps({"space": {"kind": "real_scalar"}, "menu_count": 6,
                    "actions_per_menu": [2, 2],
                    "outcome_sampler": {"low": -3, "high": 3}, "seed": 5}),
        encoding="utf-8",
    )
    argv = ["check", "--rule", str(rule), "--corpus", str(corpus), "--pairs", "4",
            "--seed", "3", "--json"]
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_ARGV, str(ROOT / "src"), str(ROOT / "benchmark"),
         json.dumps(argv)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    # probit violates decomposability
    assert result["code"] == 1
    metrics = result["metrics"]
    assert metrics["quadrature.calls"] == 28
    assert metrics["quadrature.points"] / metrics["quadrature.calls"] <= 600
