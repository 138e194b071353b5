import json
import math
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from opaa.cli import _g17, load_coefficients, main, save_coefficients
from opaa.core import CoefficientSet, build_density, run_opaa
from opaa.hermite import eval_psi

IDENTITY_1D = {"type": "gaussian_identity", "dim": 1}
IDENTITY_2D = {"type": "gaussian_identity", "dim": 2}
PLANTED_1D = {
    "type": "planted",
    "dim": 1,
    "coeffs": [{"tau": [0], "c": 1.0}, {"tau": [2], "c": 0.1}],
}
PLANTED_2D = {
    "type": "planted",
    "dim": 2,
    "coeffs": [{"tau": [0, 0], "c": 1.0}, {"tau": [1, 1], "c": 0.2}],
}
GMM_CONJUGATE = {
    "type": "gmm",
    "clusters": 1,
    "prior_sigma": 1.0,
    "obs_sigma": 1.0,
    "observations": [0.0],
}
NOT_INTEGERS = "multi-index is not a non-empty list of integers: "
NOT_A_NUMBER = "coefficient is not a JSON number: "


def write_config(tmp_path, payload, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_summary(out_dir):
    with open(out_dir / "summary.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_approximate_identity(tmp_path, capsys):
    model = write_config(tmp_path, IDENTITY_2D)
    out = tmp_path / "run"
    code = main(
        ["approximate", "--model", model, "--order", "4", "--output-dir", str(out)]
    )
    assert code == 0
    summary = read_summary(out)
    assert summary["dim"] == 2
    assert summary["quad_order"] == 4
    assert summary["converged"] is True
    assert summary["evidence"] == pytest.approx(1.0, abs=1e-10)
    stdout = capsys.readouterr().out
    assert "converged=true" in stdout
    assert "stop_reason=shell_tolerance" in stdout


def test_approximate_planted_coefficient_file(tmp_path):
    model = write_config(tmp_path, PLANTED_1D)
    out = tmp_path / "run"
    code = main(
        ["approximate", "--model", model, "--order", "6", "--output-dir", str(out)]
    )
    assert code == 0
    summary = read_summary(out)
    assert summary["evidence"] == pytest.approx(1.01, abs=1e-10)
    coeffs = load_coefficients(out / "coefficients.jsonl")
    large = {tau for tau, a in coeffs.items() if abs(a) > 1e-12}
    assert large == {(0,), (2,)}
    assert coeffs.coefficient((0,)) == pytest.approx(1.0, abs=1e-12)
    assert coeffs.coefficient((2,)) == pytest.approx(0.1, abs=1e-12)


def test_approximate_degree_budget_exit_code(tmp_path):
    model = write_config(tmp_path, IDENTITY_1D)
    out = tmp_path / "run"
    code = main(
        [
            "approximate",
            "--model",
            model,
            "--order",
            "4",
            "--max-degree",
            "0",
            "--output-dir",
            str(out),
        ]
    )
    assert code == 2
    summary = read_summary(out)
    assert summary["converged"] is False
    assert summary["evidence"] == pytest.approx(1.0, abs=1e-12)


def test_approximate_degenerate_precondition(tmp_path, capsys):
    model = write_config(tmp_path, IDENTITY_1D)
    code = main(
        [
            "approximate",
            "--model",
            model,
            "--order",
            "8",
            "--shift",
            "50",
            "--output-dir",
            str(tmp_path / "run"),
        ]
    )
    assert code == 1
    assert "precondition" in capsys.readouterr().err


def test_approximate_missing_and_malformed_config(tmp_path, capsys):
    code = main(
        [
            "approximate",
            "--model",
            str(tmp_path / "absent.json"),
            "--order",
            "4",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(
        [
            "approximate",
            "--model",
            str(bad),
            "--order",
            "4",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 2


@pytest.mark.parametrize(
    "config",
    [
        {"type": "gaussian_identity", "dim": None},
        {**GMM_CONJUGATE, "prior_sigma": None},
        {**GMM_CONJUGATE, "obs_sigma": "1.0"},
        {**PLANTED_1D, "coeffs": [{"tau": [0], "c": None}]},
        {**PLANTED_1D, "coeffs": [{"tau": 5, "c": 1.0}]},
        {**GMM_CONJUGATE, "observations": ["1.5"]},
        {**GMM_CONJUGATE, "observations": {"a": 1}},
        {**PLANTED_1D, "coeffs": [{"tau": [[1]], "c": 1.0}]},
        {**PLANTED_1D, "coeffs": [{"tau": [{"a": 1}], "c": 1.0}]},
        {**PLANTED_1D, "coeffs": [{"tau": [0], "c": 1.0}, {"tau": [0], "c": 5.0}]},
        {**PLANTED_1D, "coeffs": [{"tau": [0], "c": 10**400}]},
        {**GMM_CONJUGATE, "prior_sigma": 10**400},
    ],
    ids=[
        "dim-null",
        "prior_sigma-null",
        "obs_sigma-string",
        "c-null",
        "tau-int",
        "observations-string",
        "observations-mapping",
        "tau-list-entry",
        "tau-mapping-entry",
        "tau-repeated",
        "c-huge-integer",
        "prior_sigma-huge-integer",
    ],
)
def test_malformed_config_fails_with_one_line(tmp_path, capsys, config):
    # each used to escape main as a TypeError traceback, except the string
    # sigma and the string observation, which float() accepted, the
    # repeated tau, whose last c was kept (evidence 25), and the huge
    # integers, which escaped as an OverflowError
    model = write_config(tmp_path, config)
    args = ["approximate", "--model", model, "--order", "4", "--output-dir", str(tmp_path)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("c, text", [("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf")])
def test_non_finite_planted_coefficient_fails_with_one_line(tmp_path, capsys, c, text):
    # JSON's NaN and Infinity read as floats; the run used to fail later
    # with a non-finite integrand at some node
    model = tmp_path / "model.json"
    config = {**PLANTED_1D, "coeffs": [{"tau": [0], "c": 1.0}, {"tau": [2], "c": "x"}]}
    model.write_text(json.dumps(config).replace('"x"', c))
    args = ["approximate", "--model", str(model), "--order", "4", "--output-dir", str(tmp_path)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == f"error: coefficient of multi-index (2,) must be finite, got {text}\n"


@pytest.mark.parametrize("key", ["prior_sigma", "obs_sigma"])
def test_infinite_sigma_fails_with_one_line(tmp_path, capsys, key):
    # JSON's 1e999 reads as inf; the run used to fail later with a
    # DegenerateTargetError that advised preconditioning
    model = tmp_path / "model.json"
    model.write_text(json.dumps({**GMM_CONJUGATE, key: "inf"}).replace('"inf"', "1e999"))
    args = ["approximate", "--model", str(model), "--order", "4", "--output-dir", str(tmp_path)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == f"error: {key} must be finite and > 0, got inf\n"


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--scale=", "--shift=2.0"], "--scale"),
        (["--scale", "1.4,,"], "--scale"),
        (["--scale=1.4,"], "--scale"),
        (["--shift="], "--shift"),
        (["--scale=1.4", "--shift= "], "--shift"),
    ],
)
def test_empty_scale_or_shift_fails_with_one_line(tmp_path, capsys, flags, named):
    # an empty value used to run with the default and an empty field was
    # dropped, so "--scale 1.4,," ran as "--scale 1.4"
    model = write_config(tmp_path, IDENTITY_2D)
    out = tmp_path / "run"
    args = ["approximate", "--model", model, "--order", "4", "--output-dir", str(out), *flags]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named} ") and err.count("\n") == 1
    assert not out.exists()


def run_planted(tmp_path):
    model = write_config(tmp_path, PLANTED_1D)
    out = tmp_path / "run"
    assert (
        main(["approximate", "--model", model, "--order", "6", "--output-dir", str(out)])
        == 0
    )
    return out


def test_density_grid_matches_closed_form(tmp_path):
    out = run_planted(tmp_path)
    csv = tmp_path / "grid.csv"
    code = main(
        [
            "density-grid",
            "--coefficients",
            str(out / "coefficients.jsonl"),
            "--range=-5:5",
            "--points",
            "41",
            "--output",
            str(csv),
        ]
    )
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "theta1,density"
    assert len(lines) == 42
    for line in lines[1:]:
        theta, value = (float(v) for v in line.split(","))
        expected = (eval_psi(0, theta) + 0.1 * eval_psi(2, theta)) ** 2 / 1.01
        assert value == pytest.approx(expected, abs=1e-9)


def test_density_grid_two_dims(tmp_path):
    model = write_config(tmp_path, PLANTED_2D)
    out = tmp_path / "run"
    assert (
        main(["approximate", "--model", model, "--order", "3", "--output-dir", str(out)])
        == 0
    )
    csv = tmp_path / "grid.csv"
    code = main(
        [
            "density-grid",
            "--coefficients",
            str(out / "coefficients.jsonl"),
            "--range=-2:2",
            "--points",
            "11",
            "--output",
            str(csv),
        ]
    )
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "theta1,theta2,density"
    assert len(lines) == 11 * 11 + 1


def reference_grid_csv(coefficients, lo, hi, n):
    """The density-grid CSV as the per-row _g17 loop used to write it.

    The values are ApproxDensity.grid's, theta1-major; how close they are to
    pointwise density calls is test_core's business. Returns the bytes and
    the points and values behind them.
    """
    coeffs = load_coefficients(coefficients)
    axis = np.linspace(lo, hi, n)
    if coeffs.dim == 1:
        pts = axis[:, None]
    else:
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([g1.ravel(), g2.ravel()])
    vals = build_density(coeffs).grid([axis] * coeffs.dim).ravel()
    lines = ["theta1,density" if coeffs.dim == 1 else "theta1,theta2,density"]
    for row, v in zip(pts, vals):
        lines.append(",".join(_g17(c) for c in row) + "," + _g17(v))
    return ("\n".join(lines) + "\n").encode(), pts, vals


# first-line coefficients; the grids below reach |theta| = 40, where the
# density underflows to exact zeros, through values around 1e-300
GRID_COEFFICIENTS = {
    1: [([0], 1.0), ([1], -0.3), ([3], 0.2)],
    2: [([0, 0], 1.0), ([1, 0], 0.3), ([0, 2], -0.2), ([1, 1], 0.05)],
}


@pytest.mark.parametrize("dim, points", [(1, 141), (2, 36)])
def test_density_grid_bytes_match_the_per_row_writer(tmp_path, capsys, dim, points):
    coefficients = tmp_path / "coefficients.jsonl"
    coefficients.write_text(
        "".join('{"tau": %s, "a": %r}\n' % (tau, a) for tau, a in GRID_COEFFICIENTS[dim])
    )
    expected, pts, vals = reference_grid_csv(coefficients, -40.0, 30.0, points)
    assert np.any(pts < 0) and np.any(vals == 0.0)
    assert np.any((vals > 0.0) & (vals < 1e-290))
    csv = tmp_path / "grid.csv"
    args = ["density-grid", "--coefficients", str(coefficients), "--range=-40:30"]
    args += ["--points", str(points)]
    assert main(args + ["--output", str(csv)]) == 0
    assert csv.read_bytes() == expected
    capsys.readouterr()
    assert main(args) == 0
    assert capsys.readouterr().out.encode() == expected
    table = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(table[:, :dim], pts)
    assert np.array_equal(table[:, dim], vals)


def test_density_grid_rejects_three_dims(tmp_path, capsys):
    path = tmp_path / "coefficients.jsonl"
    path.write_text('{"tau": [0, 0, 0], "a": 1.0}\n')
    code = main(
        [
            "density-grid",
            "--coefficients",
            str(path),
            "--range=-2:2",
            "--points",
            "5",
        ]
    )
    assert code == 1
    assert "dimensions" in capsys.readouterr().err


def test_density_grid_argument_validation(tmp_path, capsys):
    out = run_planted(tmp_path)
    coeff_path = str(out / "coefficients.jsonl")
    assert (
        main(["density-grid", "--coefficients", coeff_path, "--range", "5", "--points", "5"])
        == 1
    )
    assert (
        main(["density-grid", "--coefficients", coeff_path, "--range=3:-3", "--points", "5"])
        == 1
    )
    assert (
        main(["density-grid", "--coefficients", coeff_path, "--range=-3:3", "--points", "1"])
        == 1
    )
    capsys.readouterr()


@pytest.mark.parametrize(
    "line, points",
    [('{"tau": [0], "a": 1.0}', 10**12), ('{"tau": [0, 0], "a": 1.0}', 10**6)],
    ids=["1d", "2d"],
)
def test_density_grid_refuses_too_many_points_before_building_the_axis(
    tmp_path, capsys, line, points
):
    # the 10^12-point axis alone would need 8 TB: it used to raise a
    # MemoryError traceback (and 2 * 10^8 points built a 1.6 GB axis)
    path = tmp_path / "coefficients.jsonl"
    path.write_text(line + "\n")
    args = ["density-grid", "--coefficients", str(path), "--range=-2:2"]
    assert main([*args, "--points", str(points)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: density grid needs an array of 1000000000000 entries, above the "
        "100000000 cap\n"
    )


@pytest.mark.parametrize("bound", ["-inf:4", "-4:inf", "nan:4", "a:1", "1:", ":"])
def test_density_grid_range_needs_finite_numbers(tmp_path, capsys, bound):
    # an infinite bound used to print nan rows and exit 0, and "a:1" failed
    # with a float() message that did not name the flag
    out = run_planted(tmp_path)
    capsys.readouterr()
    args = ["density-grid", "--coefficients", str(out / "coefficients.jsonl")]
    assert main([*args, f"--range={bound}", "--points", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --range must be LO:HI with finite numbers, got {bound!r}\n"


@pytest.mark.parametrize("bound", ["-1e308:1e308", "-1.7976931348623157e308:1e300"])
def test_density_grid_range_width_must_be_finite(tmp_path, capsys, bound):
    # refused before np.linspace, which would overflow with RuntimeWarnings
    out = run_planted(tmp_path)
    capsys.readouterr()
    args = ["density-grid", "--coefficients", str(out / "coefficients.jsonl")]
    assert main([*args, f"--range={bound}", "--points", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --range width must be a finite number, got {bound!r}\n"


def test_coefficient_file_round_trip_is_exact(tmp_path, planted_1d):
    out = run_planted(tmp_path)
    loaded = load_coefficients(out / "coefficients.jsonl")
    direct = run_opaa(planted_1d, 6).coefficients
    assert loaded.dim == direct.dim
    assert loaded.max_degree == direct.max_degree
    for tau, a in direct.items():
        # %.17g round-trips doubles, so the file loses nothing
        assert loaded.coefficient(tau) == a


def test_coefficient_file_save_load_save_is_byte_identical(tmp_path, planted_2d):
    coeffs = run_opaa(planted_2d, 7, tol=1e-30, max_degree=9, workers=1).coefficients
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    save_coefficients(coeffs, first)
    loaded = load_coefficients(first)
    save_coefficients(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded.taus.dtype == coeffs.taus.dtype
    assert np.array_equal(loaded.taus, coeffs.taus)
    assert np.array_equal(loaded.values, coeffs.values)
    assert loaded.shell_energy == coeffs.shell_energy


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_coefficient_file_bytes_match_the_json_dumps_writer(tmp_path, dim):
    taus = [(0,) * dim, (10,) + (0,) * (dim - 1), (0,) * (dim - 1) + (255,), (12,) * dim]
    values = [-0.0, 5e-324, 0.1, 1.7976931348623157e308]
    with np.errstate(over="ignore"):
        # the largest double's square, a shell energy, overflows to inf
        coeffs = CoefficientSet.from_pairs(dim, None, zip(taus, values))
    path = tmp_path / "coefficients.jsonl"
    save_coefficients(coeffs, path)
    expected = "".join(
        '{"tau": %s, "a": %s}\n' % (json.dumps(tau), _g17(a))
        for tau, a in zip(coeffs.taus.tolist(), coeffs.values.tolist())
    )
    assert path.read_bytes() == expected.encode()
    assert len(expected.splitlines()) == 4


def test_coefficient_file_lines_load_into_shell_order(tmp_path):
    path = tmp_path / "coefficients.jsonl"
    lines = [
        '{"tau": [0, 3], "a": 0.25}',
        '{"tau": [0, 0], "a": 1.0}',
        '{"tau": [1, 2], "a": -0.5}',
        '{"tau": [3, 0], "a": 0.75}',
        '{"tau": [1, 0], "a": 0.5}',
    ]
    path.write_text("\n".join(lines) + "\n")
    coeffs = load_coefficients(path)
    # degree order first, file order within a shell; degree 2 is missing
    assert list(coeffs.items()) == [
        ((0, 0), 1.0),
        ((1, 0), 0.5),
        ((0, 3), 0.25),
        ((1, 2), -0.5),
        ((3, 0), 0.75),
    ]
    assert coeffs.max_degree == 3
    assert list(coeffs.shell_energy) == [1.0, 0.25, 0.0, 0.0625 + 0.25 + 0.5625]
    assert [dict(s) for s in coeffs.shells] == [
        {(0, 0): 1.0},
        {(1, 0): 0.5},
        {},
        {(0, 3): 0.25, (1, 2): -0.5, (3, 0): 0.75},
    ]


@pytest.mark.parametrize(
    "lines, message",
    [
        (['{"tau": [0, 0], "a": 1.0}', '{"tau": [2, -1], "a": 0.5}'], "negative multi-index"),
        # a 1-D degree -1 line used to be dropped without a word
        (['{"tau": [0], "a": 1.0}', '{"tau": [-1], "a": 0.5}'], "negative multi-index"),
        (['{"tau": [0, 0], "a": 1.0}', '{"tau": [1, 0], "a": NaN}'], "non-finite coefficient"),
        (['{"tau": [0], "a": 1.0}', '{"tau": [1], "a": -Infinity}'], "non-finite coefficient"),
        (['{"tau": [0, 0], "a": 1.0}', '{"tau": [0, 0], "a": 0.5}'], "duplicate multi-index"),
        # int() used to turn these into (2,), (1,) and (2,)
        (['{"tau": [0], "a": 1.0}', '{"tau": [2.7], "a": 0.5}'], NOT_INTEGERS + "[2.7]"),
        (['{"tau": [0], "a": 1.0}', '{"tau": [true], "a": 0.5}'], NOT_INTEGERS + "[True]"),
        (['{"tau": [0], "a": 1.0}', '{"tau": ["2"], "a": 0.5}'], NOT_INTEGERS + "['2']"),
        (['{"tau": [0], "a": 1.0}', '{"tau": [], "a": 0.5}'], NOT_INTEGERS + "[]"),
        # no rule resolves per-axis degree 256; at 10**9 the shells alone
        # would fill memory
        (['{"tau": [0, 0], "a": 1.0}', '{"tau": [1, 256], "a": 0.5}'], "multi-index entry above 255"),
        # float() used to turn these into 1.5 and 1.0
        (['{"tau": [0], "a": 1.0}', '{"tau": [1], "a": "1.5"}'], NOT_A_NUMBER + "'1.5'"),
        (['{"tau": [0], "a": 1.0}', '{"tau": [1], "a": true}'], NOT_A_NUMBER + "True"),
        # float() of a 400-digit integer raised an uncaught OverflowError
        (['{"tau": [0], "a": 1.0}', '{"tau": [1], "a": 1%s}' % ("0" * 400)], "bad coefficient line"),
        # each line holds exactly one JSON value: no trailing data, no value
        # cut short, and none split across lines (a whole-file parse of the
        # lines joined by commas would read [1, 2] here)
        (['{"tau": [0], "a": 1.0}', '{"tau": [1], "a": 0.5} {}'], "bad coefficient line"),
        (['{"tau": [0], "a": 1.0}', '{"tau": [1], "a": 0.5'], "bad coefficient line"),
        (['{"tau": [0], "a": 1.0}', '{"tau": [1', '2], "a": 0.5}'], "bad coefficient line"),
        # valid JSON, but not an object
        (['{"tau": [0], "a": 1.0}', "[]"], "bad coefficient line"),
        (['{"tau": [0], "a": 1.0}', '"x"'], "bad coefficient line"),
        (['{"tau": [0], "a": 1.0}', "1"], "bad coefficient line"),
        (['{"tau": [0], "a": 1.0}', "null"], "bad coefficient line"),
    ],
    ids=[
        "negative",
        "negative-1d",
        "nan",
        "infinity",
        "duplicate",
        "fraction",
        "bool",
        "string",
        "empty",
        "above-max-order",
        "string-value",
        "bool-value",
        "huge-integer-value",
        "trailing-data",
        "truncated",
        "split-value",
        "array-line",
        "string-line",
        "number-line",
        "null-line",
    ],
)
def test_bad_coefficient_files_are_rejected(tmp_path, capsys, lines, message):
    path = tmp_path / "coefficients.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
        load_coefficients(path)
    args = ["density-grid", "--coefficients", str(path), "--range=-2:2", "--points", "5"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"{path}:2: {message}" in captured.err


def test_bad_coefficient_line_keeps_its_cause(tmp_path):
    path = tmp_path / "coefficients.jsonl"
    path.write_text('{"tau": [0]}\n')
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: bad coefficient line")) as info:
        load_coefficients(path)
    assert isinstance(info.value.__cause__, KeyError)


def test_padded_coefficient_lines_load_like_clean_ones(tmp_path):
    lines = ['{"tau": [0, 0], "a": 1.0}', '{"tau": [1, 0], "a": -0.5}', '{"tau": [0, 2], "a": 0.25}']
    clean, padded = tmp_path / "clean.jsonl", tmp_path / "padded.jsonl"
    clean.write_text("\n".join(lines) + "\n")
    padded.write_bytes(
        (
            f"  {lines[0]}\t\r\n"
            " \t\r\n"
            '\t{ "tau" : [ 1 , 0 ] , "a" : -0.5 } \r\n'
            f"\t \t{lines[2]}  "
        ).encode()
    )
    assert list(load_coefficients(padded).items()) == list(load_coefficients(clean).items())


@pytest.mark.parametrize(
    "line",
    [
        '\ufeff{"tau": [0], "a": 1.0}',
        '{"tau": [0], "a": 1.0} {}',
        '{"tau": [0], "a": 1.0} \t x',
        '{"tau": [0], "a": 1.0}}',
        '{"tau": [0], "a": 1.0',
        "tau",
    ],
    ids=["bom", "trailing-object", "trailing-word", "trailing-brace", "truncated", "bare-word"],
)
def test_undecodable_coefficient_lines_keep_the_json_message(tmp_path, line):
    # each line is decoded as json.loads would decode it on its own, message
    # and all; a leading BOM is named as such, not as a missing value
    with pytest.raises(json.JSONDecodeError) as parsed:
        json.loads(line)
    path = tmp_path / "coefficients.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_coefficients(path)
    assert str(info.value) == f"{path}:1: bad coefficient line: {parsed.value}"
    assert ("Unexpected UTF-8 BOM" in str(info.value)) == line.startswith("\ufeff")


def test_workers_do_not_change_output_bytes(tmp_path):
    model = write_config(tmp_path, {"type": "gaussian_identity", "dim": 3})
    files = {}
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        code = main(
            [
                "approximate",
                "--model",
                model,
                "--order",
                "32",
                "--workers",
                str(workers),
                "--output-dir",
                str(out),
            ]
        )
        assert code == 0
        files[workers] = (out / "coefficients.jsonl").read_bytes()
    assert files[1] == files[8]


def test_quadrature_table(tmp_path):
    csv = tmp_path / "rule.csv"
    assert main(["quadrature-table", "--order", "5", "--output", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "node,weight,scaled_node,scaled_weight"
    assert len(lines) == 6
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(rows[:, 0], -rows[::-1, 0])
    assert rows[:, 1].sum() == pytest.approx(math.sqrt(math.pi), abs=1e-14)
    assert rows[:, 2] == pytest.approx(rows[:, 0] * math.sqrt(2.0))


def test_quadrature_table_stdout(capsys):
    assert main(["quadrature-table", "--order", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "node,weight,scaled_node,scaled_weight"
    assert len(out) == 3


def test_weights_stats(tmp_path):
    path = tmp_path / "stats.json"
    assert main(["weights-stats", "--order", "3", "--dim", "2", "--output", str(path)]) == 0
    payload = json.loads(path.read_text())
    assert payload["order"] == 3
    assert payload["dim"] == 2
    assert payload["total_count"] == 9
    assert payload["distinct_count"] == len(payload["histogram"])
    assert sum(m for _, m in payload["histogram"]) == 9


def test_weights_stats_refuses_huge_histograms(capsys):
    # C(265, 10) ~ 4e17 multisets: enumerating them never finished
    start = time.perf_counter()
    assert main(["weights-stats", "--order", "256", "--dim", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "distinct weights" in captured.err
    assert time.perf_counter() - start < 1.0


def test_oracle_evidence(tmp_path, capsys):
    model = write_config(tmp_path, GMM_CONJUGATE)
    path = tmp_path / "evidence.json"
    code = main(
        [
            "oracle-evidence",
            "--model",
            model,
            "--box=-9:9",
            "--points-per-axis",
            "801",
            "--output",
            str(path),
        ]
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["evidence"] == pytest.approx(1.0 / math.sqrt(4 * math.pi), rel=1e-9)
    assert payload["refinement_delta"] < 1e-8

    code = main(
        [
            "oracle-evidence",
            "--model",
            model,
            "--box=-2:9",
            "--points-per-axis",
            "801",
        ]
    )
    assert code == 1
    assert "cover" in capsys.readouterr().err


@pytest.mark.parametrize("box", ["a:1", "-9:9,b:2", "-inf:9", "-9"])
def test_oracle_evidence_box_needs_finite_numbers(tmp_path, capsys, box):
    # "a:1" used to fail with a float() message that did not name the flag
    model = write_config(tmp_path, GMM_CONJUGATE)
    args = ["oracle-evidence", "--model", model, f"--box={box}", "--points-per-axis", "11"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --box must be LO:HI with finite numbers, got ")
    assert err.count("\n") == 1


def test_no_arguments_fails_and_help_succeeds(capsys):
    assert main([]) == 1
    assert main(["--help"]) == 0
    assert main(["approximate", "--help"]) == 0
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "opaa", "quadrature-table", "--order", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("node,weight")


@pytest.mark.skipif(shutil.which("opaa") is None, reason="console script not on PATH")
def test_console_script():
    proc = subprocess.run(
        ["opaa", "weights-stats", "--order", "2", "--dim", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total_count"] == 4
