"""The benchmark's tracer (``benchmark/tracing.py``) wraps stochoice's
public functions by rebinding their names after a fresh import.  This
runs it in a new interpreter on one ``check`` so that renaming or
unbinding a wrapped name fails the test suite, not only the benchmark."""

import json
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
    assert metrics["spaces.compose.calls"] == 16
    assert metrics["menus.product.s"] > 0.0
    for name in ("cli", "rules.Perturbed.choose", "rules.MNL.choose",
                 "axioms.neutrality_epsilon", "axioms.positivity_check",
                 "axioms.continuity_probe", "axioms.decomposability_epsilon"):
        assert metrics[f"{name}.self_s"] > 0.0, name


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
