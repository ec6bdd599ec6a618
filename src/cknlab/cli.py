"""Command-line front end: single-point queries, sweeps, plot-data emission.

Every subcommand prints one JSON document to stdout; sweeps emit CSV rows (or
a JSON array) with a fixed, documented column order.  Exit codes: 0 success,
2 invalid parameters or options, or an unreadable or malformed sweep config
(the violated condition, option, missing or malformed key, or reason is
named), 3 numerical failure.
A sweep writes every row even when some fail: a failed task leaves its cells
empty, each failed row is reported as one JSON line on stderr, and the exit
code is then 3.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from enum import Enum
from typing import Any

from . import energy, spectrum
from .params import (
    CknParams,
    DegenerateBoundary,
    InvalidParameters,
    NoDescent,
    NumericalFailure,
    OnManifold,
    ParameterError,
    RegionReport,
    SearchFailure,
    classify,
    felli_schneider,
    make_params,
)

__all__ = ["main", "run_command"]

WORKERS_ENV = "CKNLAB_WORKERS"

SWEEP_COLUMNS = {
    "region": ["b_fs", "b_fs_star", "a_c_star"],
    "spectrum": ["lambda_00", "lambda_01", "lambda_02", "lambda_10", "lambda_11"],
    "gap": ["lambda_star", "gap_winner", "lambda_star_variant"],
    "bounds": ["bound_two_bubble", "bound_two_bubble_variant", "bound_gap", "effective_bound"],
    "zhat": ["zhat", "zhat_variational", "q_star"],
    "minimize": ["q_best", "q_iterations", "q_start"],
}

# failures of a computation at a valid parameter point: exit code 3, and an
# empty task in a sweep row
NUMERICAL_ERRORS = (NumericalFailure, NoDescent, OnManifold, SearchFailure, ArithmeticError)


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    np = sys.modules.get("numpy")  # no numpy value exists before numpy is loaded
    if np is not None and isinstance(obj, np.ndarray):
        return [float(x) for x in obj]
    if np is not None and isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def _emit(document: dict) -> None:
    print(json.dumps(_jsonable(document)))


def _params_payload(params: CknParams, report: RegionReport) -> dict:
    return {
        "N": params.N,
        "a": params.a,
        "b": params.b,
        "a_c": params.a_c,
        "p": params.p,
        "gamma": params.gamma,
        "beta": params.beta,
        "region": report.region,
        "b_fs": report.b_fs,
        "b_fs_star": report.b_fs_star,
        "a_c_star": report.a_c_star,
        "boundary_note": report.boundary_note,
    }


def _spectrum_fields(params: CknParams, report: RegionReport, args) -> dict:
    points = [
        spectrum.eigenvalue_closed(params, i, j)
        for i in range(args.imax + 1)
        for j in range(args.jmax + 1)
    ]
    return {
        "eigenvalues": [
            {"i": pt.i, "j": pt.j, "tau": pt.tau, "lambda": pt.lam, "multiplicity": pt.multiplicity}
            for pt in points
        ]
    }


def _gap_fields(params: CknParams, report: RegionReport, args) -> dict:
    gap = spectrum.spectral_gap(params)
    return {
        "lambda_star": gap.lambda_star,
        "winner": list(gap.winner),
        "winner_multiplicity": gap.winner_multiplicity,
        "lambda_02": gap.lambda_02,
        "lambda_10": gap.lambda_10,
        "lambda_11": gap.lambda_11,
        "lambda_star_variant": gap.lambda_star_variant,
    }


def _energy_fields(params: CknParams, report: RegionReport, args) -> dict:
    return {
        "a0": energy.a0_coefficient(params),
        "two_bubble": energy.two_bubble_quotient(params, args.s / params.gamma),
        "third_order": energy.third_order_coefficient(params),
        "gap_perturbation": energy.gap_perturbation_quotient(params, args.eps),
        "gap_perturbation_is_gap_bound": report.region.value in ("CaseI", "CaseII"),
    }


def _minimize_fields(params: CknParams, report: RegionReport, args) -> dict:
    from . import minimizer

    best = minimizer.estimate_cbe(params, starts=args.starts, seed=args.seed)
    return {
        "q_best": best.value,
        "distance_sq": best.distance_sq,
        "shift": best.shift,
        "iterations": best.iterations,
        "gradient_norm": best.gradient_norm,
        "start": best.start,
        "bounds": best.bounds,
        "trace": [[k, v] for k, v in best.trace],
    }


# the fields each point command adds to the common payload, as
# fields(params, report, args) at a validated and classified point
_COMMANDS = {
    "region": lambda params, report, args: {},
    "spectrum": _spectrum_fields,
    "gap": _gap_fields,
    "bounds": lambda params, report, args: {"bounds": energy.bounds_report(params)},
    "energy": _energy_fields,
    "zhat": lambda params, report, args: {"appendix": energy.appendix_report(params)},
    "minimize": _minimize_fields,
}


def _gap_cells(params: CknParams, report: RegionReport, seed: int) -> tuple:
    gap = spectrum.spectral_gap(params)
    return gap.lambda_star, f"{gap.winner[0]}{gap.winner[1]}", gap.lambda_star_variant


def _bounds_cells(params: CknParams, report: RegionReport, seed: int) -> tuple:
    b = energy.bounds_report(params)
    return b.bound_two_bubble, b.bound_two_bubble_variant, b.bound_gap, b.effective_bound


def _zhat_cells(params: CknParams, report: RegionReport, seed: int) -> tuple:
    z = energy.zhat(params)
    return z.value, z.value_variational, z.q_star


def _minimize_cells(params: CknParams, report: RegionReport, seed: int) -> tuple:
    from . import minimizer

    best = minimizer.estimate_cbe(params, starts=1, seed=seed)
    return best.value, best.iterations, best.start


# one cells function per sweep task, in the order of SWEEP_COLUMNS; each is
# called as cells(params, report, seed) and returns the values of
# SWEEP_COLUMNS[task] in that order
_SWEEP_TASKS = {
    "region": lambda params, report, seed: (report.b_fs, report.b_fs_star, report.a_c_star),
    "spectrum": lambda params, report, seed: tuple(
        spectrum.eigenvalue_closed(params, i, j).lam
        for i, j in ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1))
    ),
    "gap": _gap_cells,
    "bounds": _bounds_cells,
    "zhat": _zhat_cells,
    "minimize": _minimize_cells,
}


def _sweep_point_row(task_args) -> dict:
    """One sweep row; a task that fails numerically leaves its cells empty and
    is named in the row's ``error`` entry."""
    n_dim, a, b, tasks, seed = task_args
    row: dict[str, Any] = {"N": n_dim, "a": a, "b": b}
    try:
        params = make_params(n_dim, a, b)
    except ParameterError as exc:
        row["region"] = "DegenerateBoundary" if isinstance(exc, DegenerateBoundary) else "Invalid"
        return row
    report = classify(params)
    row["region"] = report.region.value
    errors = []
    for task, cells in _SWEEP_TASKS.items():
        if task not in tasks:
            continue
        try:
            row.update(zip(SWEEP_COLUMNS[task], cells(params, report, seed)))
        except NUMERICAL_ERRORS as exc:
            errors.append(f"{task}: {type(exc).__name__}")
    if errors:
        row["error"] = "; ".join(errors)
    return row


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _require(spec: dict, name: str, *keys: str) -> None:
    missing = [key for key in keys if key not in spec]
    if missing:
        raise InvalidParameters(f"{name} lacks {', '.join(missing)}")


def _number(value: Any, key: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise InvalidParameters(f"{key} is not a number: {value!r}") from None


def _integer(value: Any, key: str) -> int:
    # int() would truncate 3.7 and read true as 1; "4" and 3.0 stay integers
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, bool) or not _number(value, key).is_integer():
        raise InvalidParameters(f"{key} is not an integer: {value!r}")
    return int(float(value))


def _object(config: dict, key: str) -> dict:
    spec = config.get(key, {})
    if not isinstance(spec, dict):
        raise InvalidParameters(f"{key} is not a JSON object")
    return spec


def _axis(spec: dict, name: str):
    import numpy as np

    steps = _integer(spec.get("steps", 0), f"{name}.steps")
    if steps < 1:
        raise InvalidParameters(f"{name}.steps >= 1 violated")
    _require(spec, name, "min", "max")
    lo, hi = (_number(spec[key], f"{name}.{key}") for key in ("min", "max"))
    if lo > hi:
        raise InvalidParameters(f"{name} ordering violated")
    return np.linspace(lo, hi, steps)


def _sweep_plan(config: Any) -> tuple[list, tuple, str, Any]:
    """The points, tasks, format and output path of a sweep config; every
    value is converted and checked here, and a bad one is named."""
    if not isinstance(config, dict):
        raise InvalidParameters("sweep config is not a JSON object")
    _require(config, "sweep config", "N")
    n_dim = _integer(config["N"], "N")
    a_values = _axis(_object(config, "a_range"), "a_range")
    b_rule = _object(config, "b_rule")
    kind = b_rule.get("type", "absolute")
    if kind == "absolute":
        b_values = _axis(b_rule, "b_rule")
    elif kind == "offset_fs":
        raw = b_rule.get("offsets")
        if not raw or not isinstance(raw, list):
            raise InvalidParameters("b_rule.offsets must be a nonempty list")
        offsets = [_number(off, "b_rule.offsets") for off in raw]
    else:
        raise InvalidParameters(f"unknown b_rule type {kind!r}")
    tasks = config.get("tasks", ["region"])
    if not isinstance(tasks, list) or not all(isinstance(task, str) for task in tasks):
        raise InvalidParameters("tasks is not a list of task names")
    unknown = set(tasks) - set(SWEEP_COLUMNS)
    if unknown:
        raise InvalidParameters(f"unknown sweep tasks: {sorted(unknown)}")
    tasks = tuple(tasks)
    seed = _integer(config.get("seed", 0), "seed")
    out_format = config.get("format", "csv")
    if not isinstance(out_format, str) or out_format.lower() not in ("csv", "json"):
        raise InvalidParameters(f"unknown format {out_format!r}")
    output = config.get("output")
    if output and not isinstance(output, str):
        raise InvalidParameters("output is not a path")
    if output and not os.access(os.path.dirname(os.path.abspath(output)), os.W_OK):
        raise InvalidParameters("output path not writable")

    points = []
    for a in a_values:
        if kind == "offset_fs":  # offsets relative to the Felli-Schneider curve
            try:
                base = felli_schneider(n_dim, float(a))
            except ParameterError:
                base = math.nan
            b_values = [base + off for off in offsets]
        for b in b_values:
            points.append((n_dim, float(a), float(b), tasks, seed + len(points)))
    return points, tasks, out_format.lower(), output


def _cmd_sweep(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:  # a missing file, or not JSON
        raise InvalidParameters(f"unreadable sweep config: {exc}") from None
    points, tasks, out_format, output_path = _sweep_plan(config)

    workers = int(os.environ.get(WORKERS_ENV, "0")) or (os.cpu_count() or 1)
    if workers > 1 and len(points) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point_row, points, chunksize=8))
    else:
        rows = [_sweep_point_row(pt) for pt in points]

    columns = ["N", "a", "b", "region"] + [col for task in tasks for col in SWEEP_COLUMNS[task]]
    if out_format == "json":
        text = json.dumps(_jsonable({"columns": columns, "rows": rows})) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(row.get(col)) for col in columns] for row in rows)
        text = buffer.getvalue()
    if not output_path:
        sys.stdout.write(text)
    else:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if out_format != "json":
            print(json.dumps({"command": "sweep", "rows": len(rows), "output": output_path}))

    failed = [row for row in rows if "error" in row]
    for row in failed:
        sys.stderr.write(json.dumps({key: row[key] for key in ("N", "a", "b", "error")}) + "\n")
    return 3 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cknlab",
        description="Stability laboratory for the weighted Sobolev inequality on the cylinder",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def point_args(sp):
        sp.add_argument("N", type=int)
        sp.add_argument("a", type=float)
        sp.add_argument("b", type=float)

    point_args(sub.add_parser("region", help="validate a point and classify its region"))
    sp = sub.add_parser("spectrum", help="closed-form eigenvalues lambda_{i,j}")
    point_args(sp)
    sp.add_argument("--imax", type=int, default=2)
    sp.add_argument("--jmax", type=int, default=2)
    point_args(sub.add_parser("gap", help="spectral gap constant and candidates"))
    point_args(sub.add_parser("bounds", help="upper bounds on the quotient"))
    sp = sub.add_parser("energy", help="two-bubble and gap-perturbation quotients")
    point_args(sp)
    sp.add_argument("--s", type=float, default=10.0, help="bubble separation in 1/gamma units")
    sp.add_argument("--eps", type=float, default=0.01)
    point_args(sub.add_parser("zhat", help="quartic coefficient and sign analysis"))
    sp = sub.add_parser("minimize", help="multi-start quotient minimization")
    point_args(sp)
    sp.add_argument("--starts", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp = sub.add_parser("sweep", help="batch evaluation over an (a, b) grid")
    sp.add_argument("--config", required=True, help="JSON file mirroring the sweep schema")
    return parser


def run_command(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "sweep":
            return _cmd_sweep(args)
        params = make_params(args.N, args.a, args.b)
        report = classify(params)
        fields = _COMMANDS[args.subcommand](params, report, args)
    except (ParameterError, *NUMERICAL_ERRORS) as exc:
        _emit({"error": str(exc), "kind": type(exc).__name__})
        return 2 if isinstance(exc, ParameterError) else 3
    doc = {"command": args.subcommand}
    if args.subcommand == "minimize":  # the run's seed and starts lead the payload
        doc.update(seed=args.seed, starts=args.starts)
    doc.update(_params_payload(params, report))
    doc.update(fields)
    _emit(doc)
    return 0


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
