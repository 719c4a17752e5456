"""wigsim benchmark: one workload per process, closed loop, one client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload distill-bound --seed 1 --seconds 20 --trace 0

The package is imported from ./src, so nothing needs installing. With
``--trace 0`` the run measures the end-to-end metrics untraced; with
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones (see tracer.py) together with the
tracing overhead. ``--smoke`` shrinks every grid so a run takes seconds.

Every task is checked for correctness. Human-readable lines (provenance, a
full-precision digest per task, each metric with its unit and sample
count) come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 11
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import wigsim; "
    "print(time.perf_counter() - t)"
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    # must run before numpy is imported; child processes inherit it
    for var in THREAD_VARS:
        os.environ[var] = str(nproc())


def git_commit(root) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def provenance(root, args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def import_seconds(src) -> float:
    """Time `import wigsim` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip())


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run(workload_name, seed, seconds, trace, smoke, root, emit=print):
    """Run one workload and return the result object (see module docstring)."""
    import numpy as np

    from tracer import (
        Tracer,
        function_table,
        layer_metrics,
        outcome_intervals,
        tail_value,
    )
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    rng = np.random.default_rng(seed)

    with tempfile.TemporaryDirectory(prefix="perfbench-", dir=root) as workdir:
        ctx = workload.setup(smoke, workdir)
        attempted = failed = 0

        def attempt(prm):
            nonlocal attempted, failed
            attempted += 1
            c0, t0 = cpu_seconds(), time.perf_counter()
            try:
                res = workload.task(ctx, prm)
            except Exception:
                failed += 1
                emit(f"# task {attempted} raised:")
                for line in traceback.format_exc().splitlines():
                    emit("#   " + line)
                return None
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
            if res.failures:
                failed += 1
                emit(f"# task {attempted} failed checks: {'; '.join(res.failures)}")
            emit(f"# task {attempted} wall {wall!r} s digest "
                 f"{json.dumps(res.digest, default=repr)}")
            return res, wall, cpu

        # warm-up: lazy set-up and BLAS threads start outside the timing
        attempt(workload.round(ctx, rng)[0])

        # set-up is timed after the warm-up: a fresh interpreter started
        # right after another large process exits imports markedly slower
        src = os.path.join(root, "src")
        imports, builds = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(import_seconds(src))
            t0 = time.perf_counter()
            ctx = workload.setup(smoke, workdir)
            builds.append(time.perf_counter() - t0)
        setup_s = statistics.median(imports) + statistics.median(builds)

        plain, traced = [], []  # (result, wall, cpu) per completed task
        tracer = Tracer()
        # counts come from the first traced round alone: its parameters
        # depend only on the seed, so counts compare exactly across commits
        first_round = None
        rounds = 0
        start = time.perf_counter()
        # whole rounds only; at least one, and one traced when tracing
        while time.perf_counter() - start < seconds or rounds < 1 + trace:
            use_trace = trace and rounds % 2 == 1
            for prm in workload.round(ctx, rng):
                if use_trace:
                    with tracer:
                        done = attempt(prm)
                else:
                    done = attempt(prm)
                if done is not None:
                    (traced if use_trace else plain).append(done)
            if use_trace and first_round is None and traced:
                first_round = (list(tracer.spans), Counter(tracer.counts), len(traced))
            rounds += 1

    walls = [w for _, w, _ in plain]
    if not trace:
        nodes = sum(r.nodes for r, _, _ in plain)
        outcomes = sum(r.outcomes for r, _, _ in plain)
        metrics = {
            "setup_s": (setup_s, "s"),
            "task_s_p50": (statistics.median(walls) if walls else float("nan"), "s"),
            "mnodes_per_s": (nodes / sum(walls) / 1e6 if walls else 0.0, "Mnode/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB",
            ),
        }
        emit(f"# setup_s: median import {statistics.median(imports):.4f} s "
             f"+ median build {statistics.median(builds):.4f} s (n={SETUP_REPEATS})")
        emit(f"# tasks timed: {len(walls)}")
        if outcomes:
            emit(f"# outcomes_per_s {outcomes / sum(walls):.4f} 1/s "
                 f"(n={len(walls)} tasks, {outcomes} outcomes)")
    else:
        n_traced = max(len(traced), 1)
        metrics = layer_metrics(tracer.spans, n_traced, *(first_round or ([], Counter(), 1)))
        cpu = statistics.median(c for _, _, c in plain) if plain else 0.0
        traced_walls = [w for _, w, _ in traced]
        overhead = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0
            if walls and traced_walls
            else 0.0
        )
        metrics["process.cpu_s"] = (cpu, "s")
        metrics["trace.overhead_frac"] = (overhead, "1")
        emit(f"# traced tasks: {len(traced)}, untraced tasks: {len(plain)}")
        _, pct = tail_value(outcome_intervals(tracer.spans))
        emit(f"# distill.outcome_s_tail is the p{pct:.1f} order statistic")
        emit("# per traced task: function, calls, inclusive s, self s")
        for name, calls, inc, own in function_table(tracer.spans, n_traced):
            emit(f"#   {name:40s} {calls:10.1f} {inc:10.4f} {own:10.4f}")

    fail_frac = failed / attempted
    samples = len(traced) if trace else len(walls)
    for name, (value, unit) in metrics.items():
        emit(f"metric {name} = {value!r} {unit} (n={samples})")
    emit(f"metric fail_frac = {fail_frac!r} 1 ({failed}/{attempted} tasks)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids; every check still runs")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "wigsim", "__init__.py")):
        print(f"error: no wigsim sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"# provenance {json.dumps(provenance(root, args))}", flush=True)
    result = run(args.workload, args.seed, args.seconds, args.trace, args.smoke, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
