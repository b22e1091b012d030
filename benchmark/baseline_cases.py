"""The eight single-call baseline cases of ROADMAP item 1, timed once.

    python3 benchmark/baseline_cases.py

Run from the root of a source checkout.  Each case is timed once with
time.perf_counter; the 2^20-action menu needs about 1.5 GB of memory.
Prints one JSON object mapping case to seconds, plus the peak resident
set in MB.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import stochoice as sc  # noqa: E402


def timed(results: dict, name: str, fn):
    gc.collect()
    t0 = perf_counter()
    value = fn()
    results[name] = perf_counter() - t0
    print(f"{name}: {results[name]:.3f} s", file=sys.stderr)
    return value


def main() -> None:
    results: dict[str, float] = {}
    unit = sc.unit_binary_menu()
    rule = sc.Perturbed(sc.MNL(1.5), 0.05, seed=7)
    big = timed(results, "power(unit, 20)", lambda: sc.power(unit, 20))
    timed(results, "menu_hash(power(unit, 20))", lambda: sc.menu_hash(big))
    timed(results, "MNL.choose(power(unit, 20))", lambda: sc.MNL(1.5).choose(big))
    timed(results, "Perturbed.choose(power(unit, 20))", lambda: rule.choose(big))
    beta = timed(
        results, "fit_beta_min_delta([unit, 2^20])", lambda: sc.fit_beta_min_delta(rule, [unit, big])
    )
    timed(
        results,
        "certify_closeness([unit, 2^20])",
        lambda: sc.certify_closeness(rule, [unit, big], sc.Utility.scalar_beta(beta)),
    )
    del big
    tri = sc.scalar_menu({"c0": 0.0, "c1": 0.37, "c2": -0.61})
    timed(results, "power(3-action menu, 12)", lambda: sc.power(tri, 12))
    wide = sc.scalar_menu({f"a{i}": -3.0 + 0.1 * i for i in range(60)})
    timed(results, "probit choose, 60 distinct outcomes", lambda: sc.probit().choose(wide))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"seconds": results, "peak_rss_mb": peak_mb}, indent=2))


if __name__ == "__main__":
    main()
