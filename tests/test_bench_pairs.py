import importlib.util
import json
import resource
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = {
    "end_to_end": [
        {"name": "fast", "better": "lower", "bound": 0.25},
        {"name": "slow", "better": "lower", "bound": 0.25},
        {"name": "noisy", "better": "lower", "bound": 0.25},
        {"name": "same", "better": "lower", "bound": 0.2},
        {"name": "rate", "better": "higher", "bound": 0.1},
    ]
}

# per metric: ten parent values and ten change values, pair by pair
SERIES = {
    "fast": ([10.0, 11.0, 10.5, 9.8, 10.2, 10.1, 9.9, 10.4, 10.3, 10.0], [5.0] * 10),
    "slow": ([1.0] * 10, [1.4] * 10),
    "noisy": ([1.0, 5.0, 2.0, 9.0, 1.5, 6.0, 3.0, 8.0, 1.2, 7.0], [4.5] * 10),
    "same": ([0.5] * 10, [0.5] * 10),
    "rate": ([100.0 + i for i in range(10)], [150.0 + i for i in range(10)]),
}


def synthetic_runs():
    runs = []
    for i in range(10):
        for side, k in (("parent", 0), ("change", 1)):
            metrics = {name: {"value": pair[k][i]} for name, pair in SERIES.items()}
            runs.append(
                {"workload": "w", "seed": i, "side": side, "correct": True, "metrics": metrics}
            )
    # an eleventh pair whose change run failed is counted but not summarized
    outlier = {name: {"value": 1e9} for name in SERIES}
    runs.append({"workload": "w", "seed": 10, "side": "parent", "correct": True, "metrics": outlier})
    runs.append({"workload": "w", "seed": 10, "side": "change", "correct": False, "metrics": {}})
    return runs


def test_summarize_verdicts_on_synthetic_runs():
    rows = bench_pairs.summarize(synthetic_runs(), SPEC)["w"]
    assert (rows["pairs"], rows["pairs_correct"]) == (11, 10)
    assert {name: rows[name]["verdict"] for name in SERIES} == {
        "fast": "better",
        "slow": "worse",
        "noisy": "unresolved",
        "same": "within bound",
        "rate": "better",
    }
    fast = rows["fast"]
    assert (fast["change_wins"], fast["parent_wins"]) == (10, 0)
    assert fast["median_change"] == pytest.approx(5.0 / 10.15 - 1.0)
    assert rows["slow"]["median_change"] == pytest.approx(0.4)
    assert rows["slow"]["parent_spread"] == 0.0
    # the parent's own quartiles span 1.625-6.75 around a median of 4.0
    assert rows["noisy"]["parent_spread"] == pytest.approx((6.75 - 1.625) / 4.0)
    assert rows["noisy"]["median_change"] == pytest.approx(0.125)
    assert rows["same"]["median_change"] == 0.0


def test_run_once_records_the_processs_minor_faults(monkeypatch, tmp_path):
    # a faked benchmark process whose run took the children's minor faults
    # from 1000 to 1250
    readings = iter([1000, 1250])

    def getrusage(who):
        assert who == resource.RUSAGE_CHILDREN
        return SimpleNamespace(ru_minflt=next(readings))

    line = json.dumps({"correct": True, "attempted": 50, "failed": 0, "metrics": {}})

    def run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0, f'environment {{"workers": 2}}\n{line}\n', "")

    monkeypatch.setattr(bench_pairs.resource, "getrusage", getrusage)
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    result, env = bench_pairs.run_once(tmp_path, "w", 3, 1.0)
    assert result == {"correct": True, "attempted": 50, "failed": 0, "metrics": {}, "minor_faults": 250}
    assert env == {"workers": 2}


def test_summary_gives_each_sides_median_faults_per_op():
    # over the ten correct pairs only: the parent 100 faults per op in every
    # run, the change 1 to 10, whose median is 5.5
    runs = synthetic_runs()
    for i, run in enumerate(runs):
        run["attempted"] = 10
        run["minor_faults"] = 1000 if run["side"] == "parent" else 10 * (i // 2 + 1)
    rows = bench_pairs.summarize(runs, SPEC)["w"]
    assert rows["minor_faults_per_op"] == {"parent": 100.0, "change": 5.5}
    # runs without the count, as in records written before it, give no row
    assert "minor_faults_per_op" not in bench_pairs.summarize(synthetic_runs(), SPEC)["w"]


def test_verdict_rule_edges():
    verdict = bench_pairs.verdict
    # worse by less than the bound on a tight parent is within bound
    assert verdict([1.0] * 10, [1.2] * 10, 1, 0.25) == "within bound"
    # a wide parent spread with the change's median better is not unresolved
    wide = [1.0, 5.0, 2.0, 9.0, 1.5, 6.0, 3.0, 8.0, 1.2, 7.0]
    assert verdict(wide, [3.5] * 10, 1, 0.25) == "within bound"
    # eight wins in ten are too few to call a gain
    assert verdict([2.0] * 10, [1.0] * 8 + [3.0] * 2, 1, 0.25) == "within bound"


def test_record_holds_three_traced_runs_per_workload_and_side(tmp_path, monkeypatch, capsys):
    spec = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    first, last = workloads[0], workloads[-1]
    calls = []

    def fake_run_once(tree, workload, seed, seconds, trace=0):
        # the parent side runs in the exported tree, here tmp_path
        calls.append((workload, seed, trace))
        value = (1.0 if tree == tmp_path else 0.5) * (seed - 8 if trace else 1)
        names = ["cli.load_s"] if trace else [m["name"] for m in spec["end_to_end"]]
        env = {"usable_cores": 2, "workers": 2, "python": "3", "numpy": "2", "blas": "b"}
        metrics = {name: {"value": value, "unit": "s"} for name in names}
        if trace and (workload, seed) == (last, 11) and tree != tmp_path:
            return {"correct": False, "metrics": {}}, env
        faults = 8 if tree == tmp_path else 2
        return {"correct": True, "attempted": 4, "minor_faults": faults, "metrics": metrics}, env

    monkeypatch.setattr(bench_pairs, "export_revision", lambda rev, dest: ("0" * 40, tmp_path))
    monkeypatch.setattr(bench_pairs, "same_benchmark", lambda a, b: True)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    output = tmp_path / "record.json"
    args = ["--parent", "HEAD", "--first-seed", "7", "--pairs", "2", "--output", str(output)]
    # one traced run failed
    assert bench_pairs.main(args) == 1
    record = json.loads(output.read_text())
    keys = ["what", "command", "machine", "summary", "runs", "traces", "trace_summary"]
    assert list(record) == keys
    assert [(r["workload"], r["seed"]) for r in record["runs"]] == [
        (w, s) for w in workloads for s in (7, 7, 8, 8)
    ]
    # the traced runs come after every pair, three seeds per workload with
    # the run order flipped every seed, and stay out of the summary
    traced = [(w, s, 1) for w in workloads for s in (9, 9, 10, 10, 11, 11)]
    assert calls[len(record["runs"]) :] == traced
    order = {9: ("parent", "change"), 10: ("change", "parent"), 11: ("parent", "change")}
    assert [(t["workload"], t["seed"], t["side"]) for t in record["traces"]] == [
        (w, s, side) for w in workloads for s in (9, 10, 11) for side in order[s]
    ]
    assert record["traces"][0]["metrics"] == {"cli.load_s": {"value": 1.0, "unit": "s"}}
    assert all("cli.load_s" not in rows for rows in record["summary"].values())
    # each side's median and quartiles over its correct traced runs
    assert record["trace_summary"][first]["cli.load_s"] == {
        "parent": {"median": 2.0, "q1": 1.5, "q3": 2.5},
        "change": {"median": 1.0, "q1": 0.75, "q3": 1.25},
    }
    assert record["trace_summary"][last]["cli.load_s"]["change"] == {
        "median": 0.75,
        "q1": 0.625,
        "q3": 0.875,
    }
    out = capsys.readouterr().out
    assert f"{first} cli.load_s: parent 2 [1.5-2.5], change 1 [0.75-1.25]" in out.splitlines()
    assert record["summary"][first]["minor_faults_per_op"] == {"parent": 2.0, "change": 0.5}
    assert f"{first} minor faults per op: 2 -> 0.5 (setup probes included)" in out.splitlines()
