"""Benchmark of the opaa package, run from the root of a source checkout.

    python3 perfbench/run.py --workload gmm-evidence --seed 0 --seconds 20 --trace 0

Imports opaa from ``src/`` of the checkout and uses only its public API.
One process runs one workload in a closed loop, one op at a time, for
``--seconds`` seconds after an untimed warm-up op, with ``run_opaa`` given as
many workers as the process has usable cores. Every op's output is checked;
an op that raises or fails a check counts as failed. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``. Lines before it give
the environment and each metric with its unit and sample count.

``--write-spec`` rewrites BENCHMARK.json at the checkout root from the
declarations below.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
SETUP_PROBES = 7
TAIL_BEYOND = 10

WORKLOAD_WHY = {
    "gmm-evidence": "the four acceptance GMM cases: the paper's use case, with the "
    "order-128 rule build, the logsumexp target and both stop reasons",
    "dim4-transform": "cheap dim-4 Gaussian through a mismatched map to degree 12: "
    "the projection engine is nearly all of the op",
    "density-grid": "load coefficients, mass() and the density-grid CLI on 201x201 "
    "points: reconstruction and file I/O, no projection engine",
}

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_s", "s", "lower", 0.25),
    ("op_s.tail", "s", "lower", 0.25),
    ("evidence_rel_err", "ratio", "lower", 0.2),
    ("density_l1_err", "ratio", "lower", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# (name, unit); all taken from the traced ops of a --trace 1 run
PER_LAYER = (
    ("models.eval_s", "s"),
    ("models.eval_calls", "count"),
    ("models.eval_points", "count"),
    ("core.solve_self_s", "s"),
    ("core.reconstruct_self_s", "s"),
    ("core.reconstruct_points", "count"),
    ("core.mass_self_s", "s"),
    ("core.coefficients", "count"),
    ("core.shells", "count"),
    ("quadrature.rule_s", "s"),
    ("quadrature.rule_calls", "count"),
    ("hermite.table_s", "s"),
    ("hermite.psi_s", "s"),
    ("multiindex.enumerate_s", "s"),
    ("cli.load_s", "s"),
    ("cli.write_s", "s"),
    ("cli.bytes_written", "B"),
    ("cli.grid_self_s", "s"),
    ("floor_ratio", "ratio"),
    ("trace.op_s", "s"),
    ("trace_overhead_s", "s"),
)

RUN_SECONDS = 35


def spec():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOAD_WHY.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER
        ],
    }


def bootstrap():
    """Put the checkout's ``src`` first on sys.path, or exit if it is missing."""
    src = ROOT / "src"
    if not (src / "opaa" / "__init__.py").is_file():
        raise SystemExit(f"error: no opaa source tree at {src}")
    sys.path.insert(0, str(src))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOAD_WHY))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-only", action="store_true", help="set the workload up, then exit"
    )
    p.add_argument(
        "--write-spec", action="store_true", help="rewrite BENCHMARK.json and exit"
    )
    args = p.parse_args(argv)
    if not args.write_spec and args.workload is None:
        p.error("--workload is required")
    return args


def tail(samples):
    """Highest whole percentile with at least TAIL_BEYOND samples above it.

    Nearest-rank percentiles; with too few samples for any, the maximum.
    Returns (percentile, value).
    """
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, -1, -1):
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1]
    return 100, xs[-1]


def environment(workers):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "workers": workers,
        "max_workers_env": os.environ.get("OPAA_MAX_WORKERS"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup(args):
    """Median time from spawning a fresh process until its setup is ready.

    Each probe imports opaa and sets the workload up, then prints the
    monotonic clock (shared by all processes) before it exits.
    """
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-only",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(
            cmd, cwd=ROOT, check=True, timeout=120, capture_output=True, text=True
        )
        times.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(times), times


class Runner:
    """Runs and checks ops of one workload, counting attempts and failures."""

    def __init__(self, workload, inputs, workers):
        import tracing
        import workloads

        self._tracing = tracing
        self._require = workloads.require
        self.workload = workload
        self.inputs = inputs
        self.workers = workers
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.traced_reference = None
        self.last = None

    def attempt(self, traced=False):
        """One checked op; returns (seconds, layer metrics or None), or None."""
        self.attempted += 1
        try:
            tracer = self._tracing.Tracer() if traced else None
            if tracer is None:
                start = perf_counter()
                produced = self.workload.op(self.inputs, self.workers)
                elapsed = perf_counter() - start
            else:
                with tracer.patched():
                    start = perf_counter()
                    produced = self.workload.op(
                        self.inputs,
                        self.workers,
                        wrap=lambda t, i: self._tracing.TracedTarget(t, tracer, i),
                    )
                    elapsed = perf_counter() - start
            outcome = self.workload.check(self.inputs, produced)
            layers = None
            if tracer is not None:
                layers = self.layer_metrics(tracer, outcome)
                outcome.counts["models.eval_by_case"] = tracer.counts_by_tag("models.eval")
                outcome.counts["models.eval_calls"] = layers["models.eval_calls"]
            self.check_counts(outcome.counts, traced)
        except Exception:
            self.failed += 1
            print(f"op {self.attempted} failed:", file=sys.stderr)
            traceback.print_exc()
            return None
        self.last = outcome
        return elapsed, layers

    def check_counts(self, counts, traced):
        if traced:
            expected = dict(enumerate(self.workload.grid_points(self.inputs)))
            self._require(
                counts["models.eval_by_case"] == expected,
                f"target evaluations per case {counts['models.eval_by_case']} "
                f"!= order^dim {expected}",
            )
        untraced = {k: v for k, v in counts.items() if not k.startswith("models.")}
        if self.reference is None:
            self.reference = untraced
        self._require(
            untraced == self.reference,
            f"counts changed between ops: {untraced} != {self.reference}",
        )
        if traced:
            if self.traced_reference is None:
                self.traced_reference = counts
            self._require(
                counts == self.traced_reference,
                f"traced counts changed: {counts} != {self.traced_reference}",
            )

    def layer_metrics(self, tracer, outcome):
        busy, calls, counts, self_time = tracer.layer_stats()
        return {
            "models.eval_s": busy["models.eval"],
            "models.eval_calls": calls["models.eval"],
            "models.eval_points": counts["models.eval"],
            "core.solve_self_s": self_time["core.solve"],
            "core.reconstruct_self_s": self_time["core.reconstruct"],
            "core.reconstruct_points": counts["core.reconstruct"],
            "core.mass_self_s": self_time["core.mass"],
            "core.coefficients": outcome.counts["core.coefficients"],
            "core.shells": outcome.counts["core.shells"],
            "quadrature.rule_s": busy["quadrature.rule"],
            "quadrature.rule_calls": calls["quadrature.rule"],
            "hermite.table_s": busy["hermite.table"],
            "hermite.psi_s": busy["hermite.psi"],
            "multiindex.enumerate_s": busy["multiindex.enumerate"],
            "cli.load_s": busy["cli.load"],
            "cli.write_s": busy["cli.write"],
            "cli.bytes_written": outcome.counts.get("cli.bytes_written", 0),
            "cli.grid_self_s": self_time["cli.main"],
        }


def run_loop(runner, seconds, trace):
    """Timed closed loop; with trace, untraced and traced ops alternate."""
    untraced, traced = [], []
    deadline = perf_counter() + seconds
    i = 0
    while True:
        tracing_now = trace and i % 2 == 1
        got = runner.attempt(traced=tracing_now)
        if got is not None:
            (traced if tracing_now else untraced).append(got)
        i += 1
        if perf_counter() >= deadline and (not trace or i >= 2):
            return untraced, traced


def end_to_end_metrics(runner, samples, setup_s, peak_rss_mb, notes):
    times = [elapsed for elapsed, _ in samples]
    p, tail_value = tail(times)
    notes.append(f"op_s.tail is p{p} of {len(times)} timed ops")
    return {
        "setup_s": setup_s,
        "op_s": statistics.median(times),
        "op_s.tail": tail_value,
        "evidence_rel_err": runner.last.evidence_rel_err,
        "density_l1_err": runner.workload.density_l1_err(runner.inputs, runner.last),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer_metrics(untraced, traced, notes):
    layers = [m for _, m in traced]
    out = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    traced_op = statistics.median(elapsed for elapsed, _ in traced)
    untraced_op = statistics.median(elapsed for elapsed, _ in untraced)
    eval_s = out["models.eval_s"]
    # undefined where an op evaluates no target (density-grid); reported as 0
    out["floor_ratio"] = traced_op / eval_s if eval_s > 0 else 0.0
    out["trace.op_s"] = traced_op
    out["trace_overhead_s"] = traced_op - untraced_op
    notes.append(
        f"per-layer medians of {len(traced)} traced ops; untraced op median "
        f"{untraced_op:.6f} s over {len(untraced)} ops"
    )
    return out


def main(argv=None):
    args = parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    process_start = perf_counter()
    bootstrap()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workers = len(os.sched_getaffinity(0))
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        start = perf_counter()
        inputs = workload.setup(args.seed, workdir, workloads.FULL, workers)
        if args.setup_only:
            print(f"ready {time.monotonic()!r}")
            return 0
        notes = [
            f"in-process import and setup took {perf_counter() - process_start:.6f} s "
            f"(setup alone {perf_counter() - start:.6f} s)"
        ]
        setup_s = None
        if not args.trace:
            setup_s, probes = measure_setup(args)
            notes.append(
                f"setup_s is the median of {len(probes)} fresh-process setups: "
                + ", ".join(f"{t:.4f}" for t in probes)
            )
        runner = Runner(workload, inputs, workers)
        runner.attempt()  # warm-up: untimed, but checked and counted
        untraced, traced = run_loop(runner, args.seconds, args.trace)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        correct = runner.failed == 0 and bool(untraced) and bool(traced or not args.trace)
        metrics = {}
        if correct and args.trace:
            values = per_layer_metrics(untraced, traced, notes)
            metrics = {
                n: {"value": round(values[n]) if u in ("count", "B") else values[n], "unit": u}
                for n, u in PER_LAYER
            }
        elif correct:
            values = end_to_end_metrics(runner, untraced, setup_s, peak_rss_mb, notes)
            metrics = {n: {"value": values[n], "unit": u} for n, u, _, _ in END_TO_END}
        correct = correct and all(math.isfinite(m["value"]) for m in metrics.values())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it
    print("environment " + json.dumps(environment(workers)))
    for note in notes:
        print(note)
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(
        f"failed_frac = {runner.failed / runner.attempted!r} "
        f"({runner.failed} of {runner.attempted} ops)"
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
