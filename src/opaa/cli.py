"""Command-line front end.

Subcommands
-----------
approximate      run the transform on a model config, write coefficient and
                 summary files (exit 2 when the degree budget ran out before
                 the shell tolerance was met)
density-grid     tabulate a reconstructed density on a regular grid (CSV)
quadrature-table dump a 1-D rule's nodes and weights (CSV)
weights-stats    distinct tensor-grid weights, counted combinatorially (JSON)
oracle-evidence  Simpson-box evidence with the refinement self-check (JSON)

All floating-point file output uses the round-trippable %.17g form. Errors
print one line to stderr and exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from .core import AffineMap, CoefficientSet, build_density, check_capacity, run_opaa
from .errors import JSON_NUMBER_TYPES
from .models import GmmJointDensity, from_config, load_config
from .oracle import BoxSpec, check_gmm_box, integrate_box_refined
from .quadrature import MAX_ORDER, gauss_hermite, weight_multiset_stats

__all__ = [
    "load_coefficients",
    "main",
    "save_coefficients",
    "save_summary",
]

COEFFICIENTS_NAME = "coefficients.jsonl"
SUMMARY_NAME = "summary.json"


def _g17(value):
    # the density-grid value template repeats this format inline
    return "%.17g" % float(value)


def save_coefficients(coeffs, path):
    """Write one JSON line {"tau": [...], "a": value} per coefficient.

    Lines are ordered by total degree, then by the shell enumeration order,
    so files produced from the same run are byte-identical.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for tau, a in zip(coeffs.taus.tolist(), coeffs.values.tolist()):
            fh.write('{"tau": %s, "a": %s}\n' % (json.dumps(tau), _g17(a)))


def load_coefficients(path):
    """Rebuild a CoefficientSet from a coefficients.jsonl file.

    The producing quadrature order is not recorded in the file, so
    ``quad_order`` is None; shell energies are recomputed from the values.
    Lines may come in any degree order; each shell keeps its lines' order.
    """
    coefficients = {}
    dim = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                tau = tuple(entry["tau"])
                a = float(entry["a"])
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{path}:{lineno}: bad coefficient line: {exc}") from exc
            # type checks in C, once per line: a JSON integer parses to
            # exactly int
            if type(entry["a"]) not in JSON_NUMBER_TYPES:
                raise ValueError(
                    f"{path}:{lineno}: coefficient is not a JSON number: {entry['a']!r}"
                )
            if not tau or not {int}.issuperset(map(type, tau)):
                raise ValueError(
                    f"{path}:{lineno}: multi-index is not a non-empty list of "
                    f"integers: {entry['tau']!r}"
                )
            if dim is None:
                dim = len(tau)
            elif len(tau) != dim:
                raise ValueError(
                    f"{path}:{lineno}: multi-index length {len(tau)} != {dim}"
                )
            if min(tau) < 0:
                raise ValueError(f"{path}:{lineno}: negative multi-index entry in {tau}")
            if max(tau) >= MAX_ORDER:
                # no rule resolves that degree, and every degree below the
                # total would become a shell
                raise ValueError(
                    f"{path}:{lineno}: multi-index entry above {MAX_ORDER - 1} in {tau}"
                )
            if not math.isfinite(a):
                raise ValueError(f"{path}:{lineno}: non-finite coefficient {a!r}")
            if tau in coefficients:
                raise ValueError(f"{path}:{lineno}: duplicate multi-index {tau}")
            coefficients[tau] = a
    if dim is None:
        raise ValueError(f"{path}: no coefficients found")
    return CoefficientSet.from_pairs(dim, None, coefficients.items())


def save_summary(result, path):
    cs = result.coefficients
    payload = {
        "dim": cs.dim,
        "quad_order": cs.quad_order,
        "max_degree_reached": result.max_degree_reached,
        "converged": result.converged,
        "evidence": result.evidence,
        "shell_energy": list(cs.shell_energy),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _parse_axis_values(text, dim, what):
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"{what} must be comma-separated numbers, got {text!r}")
    if len(values) == 1:
        values = values * dim
    if len(values) != dim:
        raise ValueError(f"{what} needs 1 or {dim} values, got {len(values)}")
    return values


def _parse_interval(text, what):
    lo, sep, hi = text.partition(":")
    try:
        pair = (float(lo), float(hi)) if sep else None
    except ValueError:
        pair = None
    if pair is None or not all(map(math.isfinite, pair)):
        raise ValueError(f"{what} must be LO:HI with finite numbers, got {text!r}")
    return pair


def _parse_intervals(text, dim):
    pairs = [_parse_interval(part, "--box") for part in text.split(",")]
    if len(pairs) == 1:
        pairs = pairs * dim
    if len(pairs) != dim:
        raise ValueError(f"--box needs 1 or {dim} LO:HI pairs, got {len(pairs)}")
    return tuple(pairs)


def _cmd_approximate(args):
    target = from_config(load_config(args.model))
    precondition = AffineMap(
        scale=_parse_axis_values(args.scale, target.dim, "--scale"),
        shift=_parse_axis_values(args.shift, target.dim, "--shift"),
    )
    result = run_opaa(
        target,
        args.order,
        tol=args.tol,
        max_degree=args.max_degree,
        precondition=precondition,
        workers=args.workers,
    )
    os.makedirs(args.output_dir, exist_ok=True)
    save_coefficients(result.coefficients, os.path.join(args.output_dir, COEFFICIENTS_NAME))
    save_summary(result, os.path.join(args.output_dir, SUMMARY_NAME))
    print(
        f"evidence={_g17(result.evidence)} converged={str(result.converged).lower()} "
        f"max_degree_reached={result.max_degree_reached} stop_reason={result.stop_reason}"
    )
    return 0 if result.converged else 2


def _cmd_density_grid(args):
    coeffs = load_coefficients(args.coefficients)
    if coeffs.dim > 2:
        raise ValueError(
            f"density grids support 1 or 2 dimensions, coefficients have {coeffs.dim}"
        )
    density = build_density(coeffs)
    lo, hi = _parse_interval(args.range, "--range")
    if not lo < hi:
        raise ValueError(f"--range needs LO < HI, got {args.range!r}")
    if args.points < 2:
        raise ValueError(f"--points must be >= 2, got {args.points}")
    # the output's cap, checked before the axis is built
    check_capacity(args.points**coeffs.dim, "density grid needs an array of")
    axis = np.linspace(lo, hi, args.points)
    vals = density.grid([axis] * coeffs.dim)
    # each coordinate is formatted once: as the theta1 prefix of its row of
    # lines and as a theta2 label; each value once, as its line is built,
    # with _g17's format
    labels = [_g17(c) + "," for c in axis.tolist()]
    if coeffs.dim == 1:
        header, rows = "theta1,density", [("", vals)]
    else:
        header, rows = "theta1,theta2,density", zip(labels, vals)
    with _output(args.output) as out:
        out.write(header + "\n")
        for prefix, row in rows:
            lines = ["%s%s%.17g\n" % (prefix, c, v) for c, v in zip(labels, row.tolist())]
            out.write("".join(lines))
    return 0


def _cmd_quadrature_table(args):
    rule = gauss_hermite(args.order)
    lines = ["node,weight,scaled_node,scaled_weight"]
    for row in zip(rule.nodes, rule.weights, rule.scaled_nodes, rule.scaled_weights):
        lines.append(",".join(_g17(v) for v in row))
    with _output(args.output) as out:
        out.write("\n".join(lines) + "\n")
    return 0


def _cmd_weights_stats(args):
    distinct_count, total_count, histogram = weight_multiset_stats(args.order, args.dim)
    payload = {
        "order": args.order,
        "dim": args.dim,
        "distinct_count": distinct_count,
        "total_count": total_count,
        "histogram": [[w, m] for w, m in histogram],
    }
    with _output(args.output) as out:
        out.write(json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_oracle_evidence(args):
    target = from_config(load_config(args.model))
    box = BoxSpec(
        intervals=_parse_intervals(args.box, target.dim),
        points_per_axis=args.points_per_axis,
    )
    if box.dim != target.dim:
        raise ValueError(f"box dimension {box.dim} != model dimension {target.dim}")
    if isinstance(target, GmmJointDensity):
        check_gmm_box(target.model, box)

    def integrand(pts):
        return np.exp(np.asarray(target.log_density_batch(pts), dtype=float))

    value, delta = integrate_box_refined(integrand, box)
    payload = {"evidence": value, "refinement_delta": delta}
    with _output(args.output) as out:
        out.write(json.dumps(payload, indent=2) + "\n")
    return 0


@contextlib.contextmanager
def _output(path):
    """The text stream a subcommand writes to: the file at path, or stdout."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="opaa",
        description="Hermite-transform density approximation tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("approximate", help="transform a model's density")
    p.add_argument("--model", required=True, help="model config JSON path")
    p.add_argument("--order", type=int, required=True, help="1-D quadrature order")
    p.add_argument("--tol", type=float, default=1e-8, help="relative shell-energy tolerance")
    p.add_argument("--max-degree", type=int, default=20, help="largest total degree")
    p.add_argument("--scale", default="1", help="precondition scale: one value or one per axis")
    p.add_argument("--shift", default="0", help="precondition shift: one value or one per axis")
    p.add_argument("--workers", type=int, default=None, help="reduction worker threads")
    p.add_argument("--output-dir", default=".", help="directory for output files")
    p.set_defaults(func=_cmd_approximate)

    p = sub.add_parser("density-grid", help="tabulate a reconstructed density")
    p.add_argument("--coefficients", required=True, help="coefficients.jsonl path")
    p.add_argument("--range", required=True, help="per-axis range LO:HI")
    p.add_argument("--points", type=int, required=True, help="points per axis")
    p.add_argument("--output", help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_density_grid)

    p = sub.add_parser("quadrature-table", help="dump a 1-D rule as CSV")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--output", help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_quadrature_table)

    p = sub.add_parser("weights-stats", help="tensor-grid weight statistics")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--output", help="JSON path (default stdout)")
    p.set_defaults(func=_cmd_weights_stats)

    p = sub.add_parser("oracle-evidence", help="Simpson-box evidence estimate")
    p.add_argument("--model", required=True, help="model config JSON path")
    p.add_argument("--box", required=True, help="LO:HI per axis, comma-separated")
    p.add_argument(
        "--points-per-axis", type=int, required=True, help="Simpson points per axis"
    )
    p.add_argument("--output", help="JSON path (default stdout)")
    p.set_defaults(func=_cmd_oracle_evidence)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help; fold its usage-error code into 1 so
        # exit 2 always means "approximate did not converge"
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
