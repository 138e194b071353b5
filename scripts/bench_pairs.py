"""Alternating parent/change pairs of the benchmark, written as one record.

    python3 scripts/bench_pairs.py --parent HEAD --first-seed 20 --pairs 10 \
        --output BENCH_4.json

Run from anywhere inside a git checkout. The parent side is the committed
files of ``--parent``, exported with ``git archive`` into a temporary
directory (a fresh copy, so nothing is registered in the repository); the
change side is the working tree of the checkout. Each side runs its own
``perfbench/run.py`` on every workload of ``BENCHMARK.json`` with its
``run_seconds`` and ``--trace 0``. The script refuses to start when
the two copies of ``perfbench/`` or ``BENCHMARK.json`` differ, so both
sides are measured by identical benchmark code.

Pair i uses seed ``first_seed + i``; the parent runs first in even pairs
and second in odd ones. The record has the layout of ``BENCH_3.json``
(``what``, ``command``, ``machine`` and every run's final JSON line under
``runs``) plus ``summary``: per workload and end-to-end metric, each side's
median and quartiles over the pairs in which both runs were correct, the
number of those pairs in which each side reads better (ties count for
neither), the relative change of the medians, the parent's relative spread
(q3 - q1) / median, and a verdict with the metric's ``bound`` read as a
relative bound:

- ``better``: the change wins at least nine tenths of the pairs and its
  median is better by more than the parent's q3 - q1;
- ``unresolved``: the parent's spread is wider than the bound and the
  change's median reads worse (so not every change run reads better than
  every parent run), and the pairs cannot tell a regression from noise;
- ``worse``: the change's median reads worse by more than the bound;
- ``within bound``: anything else.

The verdicts are also printed, one line per workload and metric.

Every run also records ``minor_faults``: the minor page faults of its
benchmark process and of the processes it waited for (its setup probes),
read as the change in ``getrusage(RUSAGE_CHILDREN).ru_minflt`` around it.
``summary`` gives per workload each side's median of minor faults per
attempted op, over the same pairs (``minor_faults_per_op``). It counts
the setup probes too, so it compares the sides and is no absolute figure.

After the pairs, each side runs every workload three more times with
``--trace 1``, at seeds ``first_seed + pairs`` to ``first_seed + pairs + 2``
and the same ``run_seconds``, the parent first at the first and third seed.
One traced run's per-layer split moves by tens of percent on unchanged code,
so the record keeps each layer's median and quartiles per side under
``trace_summary`` (over the correct traced runs) next to the raw runs under
``traces`` (laid out as the entries of ``runs``), and prints them side by
side. Traced runs do not enter ``summary``. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_args(argv):
    p = argparse.ArgumentParser(description="alternating parent/change benchmark pairs")
    p.add_argument("--parent", required=True, help="git revision of the parent side")
    p.add_argument("--first-seed", type=int, required=True, help="seed of the first pair")
    p.add_argument("--pairs", type=int, default=10, help="pairs per workload")
    p.add_argument("--output", required=True, help="path of the JSON record")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    return args


def export_revision(rev, dest):
    """Extract the committed files of rev under dest; returns (hash, tree)."""

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout

    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    archive = Path(dest) / "tree.tar"
    archive.write_bytes(git("archive", "--format=tar", commit))
    tree = Path(dest) / "parent"
    # the archive comes from this repository; the filter only exists on
    # Pythons that warn without it
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(archive) as tar:
        tar.extractall(tree, **safe)
    archive.unlink()
    return commit, tree


def same_benchmark(a, b):
    """True when both trees hold byte-identical perfbench/ and BENCHMARK.json."""
    if not filecmp.cmp(a / "BENCHMARK.json", b / "BENCHMARK.json", shallow=False):
        return False
    names = sorted(p.name for p in (a / "perfbench").glob("*.py"))
    if names != sorted(p.name for p in (b / "perfbench").glob("*.py")):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a / "perfbench", b / "perfbench", names, shallow=False)
    return not mismatch and not errors


def run_once(tree, workload, seed, seconds, trace=0):
    """One benchmark process: its final JSON line and its environment line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    lines = done.stdout.splitlines()
    env = next(
        (json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("environment ")),
        None,
    )
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    if done.returncode != 0:
        result["correct"] = False
        result["stderr_tail"] = done.stderr[-2000:]
    result["minor_faults"] = faults
    return result, env


def alternating(trees, workloads, seeds, seconds, trace):
    """Every workload at every seed on both sides, the parent first at even offsets.

    Returns the entries, in run order, and the first environment line seen.
    """
    entries, env = [], None
    for workload in workloads:
        for i, seed in enumerate(seeds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                result, run_env = run_once(trees[side], workload, seed, seconds, trace)
                env = env or run_env
                entries.append({"workload": workload, "seed": seed, "side": side, **result})
                op_s = result["metrics"].get("op_s", {}).get("value")
                kind = "traced " if trace else ""
                print(f"{workload} seed {seed} {side} {kind}correct={result['correct']} op_s={op_s}")
    return entries, env


def relative(delta, base):
    """delta / |base|, infinite for a nonzero delta on a zero base."""
    if base:
        return delta / abs(base)
    return 0.0 if delta == 0 else math.copysign(math.inf, delta)


def verdict(parent, change, sign, bound):
    """better / unresolved / worse / within bound, as the module docstring says.

    ``sign`` is 1 when lower values read better and -1 when higher do;
    ``parent`` and ``change`` are the two sides' values, pair by pair.
    """
    p = quartiles(parent)
    gain = sign * (p["median"] - statistics.median(change))
    wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    if wins >= 0.9 * len(parent) and gain > p["q3"] - p["q1"]:
        return "better"
    if relative(p["q3"] - p["q1"], p["median"]) > bound and gain < 0:
        return "unresolved"
    if relative(-gain, p["median"]) > bound:
        return "worse"
    return "within bound"


def quartiles(values):
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs, spec):
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_seed = {}
        for r in runs:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r
        pairs = [
            p for p in by_seed.values() if all(p.get(s, {}).get("correct") for s in SIDES)
        ]
        rows = {"pairs": len(by_seed), "pairs_correct": len(pairs)}
        if pairs and all("minor_faults" in p[s] for p in pairs for s in SIDES):
            rows["minor_faults_per_op"] = {
                s: statistics.median(p[s]["minor_faults"] / p[s]["attempted"] for p in pairs)
                for s in SIDES
            }
        for metric in spec["end_to_end"] if pairs else ():
            name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
            values = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
            gains = [sign * (a - b) for a, b in zip(values["parent"], values["change"])]
            parent, change = quartiles(values["parent"]), quartiles(values["change"])
            rows[name] = {
                "better": metric["better"],
                "parent": parent,
                "change": change,
                "change_wins": sum(g > 0 for g in gains),
                "parent_wins": sum(g < 0 for g in gains),
                "median_change": relative(change["median"] - parent["median"], parent["median"]),
                "parent_spread": relative(parent["q3"] - parent["q1"], parent["median"]),
                "verdict": verdict(values["parent"], values["change"], sign, metric["bound"]),
            }
        out[workload] = rows
    return out


def trace_summary(traces):
    """workload -> per-layer metric -> side -> quartiles over the correct traced runs."""
    values = {}
    for t in traces:
        for name, metric in t["metrics"].items() if t["correct"] else ():
            layer = values.setdefault(t["workload"], {}).setdefault(name, {})
            layer.setdefault(t["side"], []).append(metric["value"])
    return {
        workload: {
            name: {side: quartiles(v) for side, v in sides.items()}
            for name, sides in layers.items()
        }
        for workload, layers in values.items()
    }


def trace_lines(summary):
    """One line per workload and per-layer metric: each side's median [q1-q3]."""
    lines = []
    for workload, layers in summary.items():
        for name, sides in layers.items():
            shown = [
                f"{q['median']:.4g} [{q['q1']:.4g}-{q['q3']:.4g}]" if q else "-"
                for q in (sides.get(side) for side in SIDES)
            ]
            lines.append(f"{workload} {name}: parent {shown[0]}, change {shown[1]}")
    return lines


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    traced_seed = args.first_seed + args.pairs
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        commit, parent_tree = export_revision(args.parent, scratch)
        if not same_benchmark(parent_tree, ROOT):
            print("error: perfbench/ or BENCHMARK.json differ between the sides", file=sys.stderr)
            return 1
        trees = {"parent": parent_tree, "change": ROOT}
        runs, env = alternating(trees, workloads, range(args.first_seed, traced_seed), seconds, 0)
        traces, _ = alternating(trees, workloads, range(traced_seed, traced_seed + 3), seconds, 1)
    machine = None
    if env is not None:
        machine = (
            f"{env['usable_cores']} usable cores, workers {env['workers']}, "
            f"Python {env['python']}, numpy {env['numpy']}, {env['blas']}"
        )
    record = {
        "what": (
            "alternating parent/change pairs of perfbench/run.py, one seed per pair "
            f"({args.first_seed}..{args.first_seed + args.pairs - 1}), run order flipped "
            f"every pair; parent = {commit[:7]}, change = the working tree; traces: three "
            f"runs per workload and side with --trace 1 at seeds {traced_seed}.."
            f"{traced_seed + 2}, run order flipped every seed"
        ),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "machine": machine,
        "summary": summarize(runs, spec),
        "runs": runs,
        "traces": traces,
        "trace_summary": trace_summary(traces),
    }
    Path(args.output).write_text(json.dumps(record, indent=1) + "\n")
    for workload, rows in record["summary"].items():
        if "minor_faults_per_op" in rows:
            faults = rows["minor_faults_per_op"]
            print(
                f"{workload} minor faults per op: {faults['parent']:.4g} -> "
                f"{faults['change']:.4g} (setup probes included)"
            )
        for name, row in rows.items():
            if isinstance(row, dict) and "verdict" in row:
                print(
                    f"{workload} {name}: {row['parent']['median']:.4g} -> "
                    f"{row['change']['median']:.4g} ({row['median_change']:+.1%}), parent "
                    f"spread {row['parent_spread']:.1%}, change wins "
                    f"{row['change_wins']}/{rows['pairs_correct']}: {row['verdict']}"
                )
    for line in trace_lines(record["trace_summary"]):
        print(line)
    return 0 if all(r["correct"] for r in runs + traces) else 1


if __name__ == "__main__":
    sys.exit(main())
