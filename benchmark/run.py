"""Benchmark of the stochoice CLI: check, certify and upsilon runs.

    python3 benchmark/run.py --workload power_menus --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The command re-executes itself
in one child process with a fixed hash seed and one BLAS/OpenMP thread,
imports stochoice from ``src/``, and drives the CLI in-process through
``stochoice.cli.main(argv)``.  Set-up is repeated and its median is
reported; then whole rounds of the workload's commands run until
``--seconds`` have passed, each command after a fresh import of
stochoice (so every command pays what a new CLI process pays for the
program's own caches) and a ``gc.collect()``.  Command times are the
medians over rounds.

With ``--trace 1`` untraced and traced rounds alternate; the traced
rounds give the per-layer metrics and the difference between the two
gives the tracing overhead.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("power_menus", "lottery_corpus", "probit_quadrature")
COMMAND_METRICS = ("check_s", "certify_s", "upsilon_s")
SETUP_REPEATS = 9
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BENCHMARK_CHILD": "1",
}
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def spawn(argv) -> int:
    """Run the measurement in a child with a fixed interpreter set-up,
    then wait for it to end."""
    if not (ROOT / "src" / "stochoice" / "__init__.py").is_file():
        print(f"error: no stochoice sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, **CHILD_ENV)
    try:
        return subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *argv],
            env=env,
            timeout=CHILD_TIMEOUT_S,
        ).returncode
    except subprocess.TimeoutExpired:
        print(f"error: benchmark child exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1


def fresh_cli():
    """Drop every stochoice module and import the CLI anew."""
    for name in [m for m in sys.modules if m == "stochoice" or m.startswith("stochoice.")]:
        del sys.modules[name]
    return importlib.import_module("stochoice.cli")


def run_round(ops, tracer=None):
    """Run each op once; returns per-metric times, outputs, failures."""
    times = dict.fromkeys(COMMAND_METRICS, 0.0)
    outputs = []
    failed = 0
    for op in ops:
        cli = fresh_cli()
        main = cli.main
        if tracer is not None:
            tracer.install()
            main = tracer.span("cli", main)
        gc.collect()
        buf = io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(buf):
                rc = main(op.argv)
            error = None
        except Exception as exc:  # an error escaping the CLI is a failed operation
            rc, error = None, f"{type(exc).__name__}: {exc}"
        times[op.metric] += perf_counter() - t0
        artifact = None
        if error is None and op.artifact is not None:
            artifact = op.artifact.read_text(encoding="utf-8")
        # exit status 2 is the CLI's documented input/usage error
        if error is not None or rc == 2:
            failed += 1
        outputs.append((rc, error, buf.getvalue(), artifact))
    return times, outputs, failed


def verify(ops, outputs) -> str | None:
    """Check one round's outputs; returns the first problem found."""
    from workloads import CheckFailed

    for op, (rc, error, stdout, _) in zip(ops, outputs):
        if error is not None or rc == 2:
            continue
        if rc != op.expect_rc:
            return f"{op.argv[0]}: exit code {rc}, expected {op.expect_rc}"
        try:
            op.verify(stdout)
        except CheckFailed as exc:
            return str(exc)
        except Exception as exc:  # malformed output is a failed check, not a crash
            return f"{op.argv[0]}: unreadable output ({type(exc).__name__}: {exc})"
    return None


def worker(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  the checks' own dependencies load before set-up is timed
    import scipy.integrate  # noqa: F401
    import scipy.optimize  # noqa: F401

    from tracing import Tracer, metric_names
    from workloads import WORKLOADS

    workdir = HERE / "_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = perf_counter()
        fresh_cli()
        workload.write_inputs()
        setups.append(perf_counter() - t0)
    ops = workload.ops()

    rounds = []  # (traced, times, tracer)
    attempted = failed = 0
    first = None
    problem = None
    start = perf_counter()
    while len(rounds) < 1 + args.trace or perf_counter() - start < args.seconds:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        tracer = Tracer() if traced else None
        times, outputs, n_failed = run_round(ops, tracer)
        attempted += len(ops)
        failed += n_failed
        if first is None:
            first = outputs
            problem = verify(ops, outputs)
        elif outputs != first and problem is None:
            problem = f"round {len(rounds) + 1} output differs from round 1"
        rounds.append((traced, times, tracer))
        print(
            f"[{args.workload}] round {len(rounds)}{' traced' if traced else ''}: "
            + " ".join(f"{k}={v:.4f}" for k, v in times.items()),
            file=sys.stderr,
        )

    untraced = [t for tr, t, _ in rounds if not tr]
    if args.trace:
        tracers = [tc for tr, _, tc in rounds if tr]
        per_round = [tc.metrics() for tc in tracers]
        metrics = {
            name: {
                "value": statistics.median(m[name] for m in per_round),
                "unit": "s" if name.endswith(("_s", ".s")) else "count",
            }
            for name in metric_names()
        }
        traced_total = statistics.median(sum(t.values()) for tr, t, _ in rounds if tr)
        untraced_total = statistics.median(sum(t.values()) for t in untraced)
        metrics["trace.overhead_s"] = {"value": traced_total - untraced_total, "unit": "s"}
        spans_path = workdir / "spans.json"
        spans_path.write_text(
            json.dumps([tc.spans for tc in tracers]), encoding="utf-8"
        )
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
        for key in COMMAND_METRICS:
            metrics[key] = {"value": statistics.median(t[key] for t in untraced), "unit": "s"}
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}

    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": problem is None,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if problem is None else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if os.environ.get("BENCHMARK_CHILD") != "1":
        return spawn(argv)
    return worker(args)


if __name__ == "__main__":
    sys.exit(main())
