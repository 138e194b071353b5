import importlib.util
from pathlib import Path

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


def test_verdict_rule_edges():
    verdict = bench_pairs.verdict
    # worse by less than the bound on a tight parent is within bound
    assert verdict([1.0] * 10, [1.2] * 10, 1, 0.25) == "within bound"
    # a wide parent spread with the change's median better is not unresolved
    wide = [1.0, 5.0, 2.0, 9.0, 1.5, 6.0, 3.0, 8.0, 1.2, 7.0]
    assert verdict(wide, [3.5] * 10, 1, 0.25) == "within bound"
    # eight wins in ten are too few to call a gain
    assert verdict([2.0] * 10, [1.0] * 8 + [3.0] * 2, 1, 0.25) == "within bound"
