"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Runs each workload's op once, traced and untraced, checks that the exact
evidence reference agrees with the closed form and, once, with the Simpson
oracle, and that the checks reject a perturbed evidence and a density with
the wrong mass.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

run.bootstrap()

import numpy as np  # noqa: E402

import opaa  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

WORKERS = 2
# acceptance-08 Simpson points per axis, in case order
ORACLE_POINTS = (1201, 1201, 1201, 2401)


def _expect_rejected(check, *args):
    try:
        check(*args)
    except W.CheckFailed:
        return
    raise AssertionError("check accepted a wrong output")


def _run_once(name, workdir, traced=False):
    workload = W.WORKLOADS[name]
    inputs = workload.setup(0, workdir, W.TINY, WORKERS)
    runner = run.Runner(workload, inputs, WORKERS)
    got = runner.attempt(traced=traced)
    assert got is not None and runner.failed == 0, f"{name} op failed"
    return workload, inputs, runner, got


def test_spec_file_matches_declarations():
    on_disk = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert on_disk == run.spec()


def test_tail_percentile():
    assert run.tail(list(range(1, 101))) == (90, 90)
    assert run.tail([3.0, 1.0, 2.0]) == (100, 3.0)
    p, value = run.tail([float(i) for i in range(25)])
    assert (p, value) == (60, 14.0)


def test_exact_reference():
    for case, points in zip(W.gmm_cases(0, W.FULL), ORACLE_POINTS):
        exact = W.exact_gmm_evidence(case.clusters, case.observations)
        if case.clusters == 1:
            assert W.rel_err(exact, W.conjugate_evidence(case.observations)) <= 1e-12
        box = opaa.BoxSpec(
            intervals=((-85.0, 85.0),) * case.clusters, points_per_axis=points
        )
        direct = opaa.gmm_evidence_direct(case.model, box)
        assert W.rel_err(exact, direct) <= 1e-8, (case, exact, direct)


def test_seed_zero_is_acceptance_and_work_is_seed_free():
    zero, other = W.gmm_cases(0, W.FULL), W.gmm_cases(7, W.FULL)
    assert [c.observations for c in zero] == [a[1] for a in W.ACCEPTANCE_CASES]
    assert [c.observations for c in other] != [c.observations for c in zero]
    strip = [dataclasses.replace(c, observations=()) for c in other]
    assert strip == [dataclasses.replace(c, observations=()) for c in zero]
    assert np.all(W.dim4_map(0).scale == 0.8) and np.all(W.dim4_map(0).shift == 0.3)
    assert W.gmm_cases(7, W.FULL) == other


def test_each_workload_once():
    with tempfile.TemporaryDirectory() as workdir:
        for name in W.WORKLOADS:
            workload, inputs, runner, (elapsed, layers) = _run_once(name, workdir)
            assert elapsed > 0 and layers is None
            assert math.isfinite(workload.density_l1_err(inputs, runner.last))
            got = runner.attempt(traced=True)
            assert got is not None and runner.failed == 0, f"{name} traced op failed"
            layers = got[1]
            points = sum(workload.grid_points(inputs))
            assert layers["models.eval_points"] == points
            assert layers["core.coefficients"] == runner.last.counts["core.coefficients"]
            if name == "density-grid":
                assert layers["cli.bytes_written"] > 0 and layers["cli.write_s"] > 0
                assert layers["core.reconstruct_points"] == W.TINY.grid_points**2
            else:
                assert layers["core.solve_self_s"] > 0


def test_tracing_restores_the_package():
    originals = (opaa.run_opaa, opaa.cli.main, opaa.ApproxDensity.__call__)
    with tracing.Tracer().patched():
        assert opaa.run_opaa is not originals[0]
    assert (opaa.run_opaa, opaa.cli.main, opaa.ApproxDensity.__call__) == originals
    assert "open" not in vars(opaa.cli)


def test_checks_reject_perturbed_evidence():
    with tempfile.TemporaryDirectory() as workdir:
        for name in ("gmm-evidence", "dim4-transform"):
            workload = W.WORKLOADS[name]
            inputs = workload.setup(0, workdir, W.TINY, WORKERS)
            results = workload.op(inputs, WORKERS)
            workload.check(inputs, results)
            for i, result in enumerate(results):
                bad = list(results)
                bad[i] = dataclasses.replace(result, evidence=result.evidence * 1.02)
                _expect_rejected(workload.check, inputs, bad)


def test_checks_reject_wrong_mass_and_bad_grid():
    with tempfile.TemporaryDirectory() as workdir:
        workload = W.WORKLOADS["density-grid"]
        inputs = workload.setup(0, workdir, W.TINY, WORKERS)
        coeffs, mass, code = workload.op(inputs, WORKERS)
        workload.check(inputs, (coeffs, mass, code))
        _expect_rejected(workload.check, inputs, (coeffs, mass * (1 + 1e-6), code))
        _expect_rejected(workload.check, inputs, (coeffs, mass, 1))
        output = Path(inputs["output"])
        lines = output.read_text().splitlines()
        row = next(i for i, line in enumerate(lines[1:], 1) if float(line.rsplit(",", 1)[1]) > 0)
        head, rest = lines[row].rsplit(",", 1)
        lines[row] = f"{head},-{rest}"
        output.write_text("\n".join(lines) + "\n")
        _expect_rejected(workload.check, inputs, (coeffs, mass, code))


def test_refuses_to_run_without_the_source_tree():
    with tempfile.TemporaryDirectory() as bare:
        shutil.copytree(run.ROOT / "perfbench", Path(bare) / "perfbench")
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        cmd = [sys.executable, "perfbench/run.py", "--workload", "gmm-evidence"]
        done = subprocess.run(
            cmd + ["--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode != 0
        assert "correct" not in done.stdout


def main():
    tests = [(n, f) for n, f in globals().items() if n.startswith("test_")]
    for name, test in tests:
        test()
        print(f"{name}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
