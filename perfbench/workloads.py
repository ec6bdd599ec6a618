"""The four workloads: how one op runs, how its output is checked, and what
the traced run replays in-process.

An op that raises, exits non-zero or fails its check is counted as failed;
nothing is retried or dropped.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import enum
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

from cknlab import cli, eig_oracle, energy, minimizer, spectrum
from cknlab.params import DegenerateBoundary, ParameterError, classify, make_params

from summary import Invocation, sweep_row_tally

# the body of the ``cknlab`` console script
ENTRY = "import sys; from cknlab.cli import main; sys.exit(main())"
OP_TIMEOUT_S = 170.0

EIG_REL_TOL = 1e-6  # criterion 3
GAP_ABS_TOL = 1e-3  # criterion 4
BOUND_SLACK = 1e-3  # estimate_cbe's own exit guarantee
API_REL_TOL = 1e-9  # CLI output against the in-process API


@dataclass
class Context:
    root: str
    out_dir: str
    env: dict
    nproc: int


@dataclass
class Outcome:
    """Check result of one op: ``units`` attempted and ``failed`` of them.

    ``wrong`` counts units whose output contradicts the program's own
    reference path (a CLI document against the API, a sweep row's region
    against ``classify``); they make the run incorrect.  A unit that raises,
    exits non-zero or misses a numerical tolerance (oracle against closed
    form, Q above its bound) is failed but not wrong.
    """

    units: int
    failed: int
    wrong: int = 0
    detail: str = ""
    extra: dict = field(default_factory=dict)


def _fail(units: int, detail: str, wrong: bool = False) -> Outcome:
    return Outcome(units, units, units if wrong else 0, detail)


# ---------------------------------------------------------------------------
# structural comparison of a JSON document with an API result


def _close(x: float, y: float) -> bool:
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= API_REL_TOL * max(abs(x), abs(y)) + 1e-300


def same(expected, got) -> bool:
    """Does a JSON value match the API object it was printed from?"""
    if isinstance(expected, enum.Enum):
        expected = expected.value
    if dataclasses.is_dataclass(expected) and not isinstance(expected, type):
        expected = {f.name: getattr(expected, f.name) for f in dataclasses.fields(expected)}
    if isinstance(expected, dict):
        return (
            isinstance(got, dict)
            and set(expected) == set(got)
            and all(same(v, got[k]) for k, v in expected.items())
        )
    if isinstance(expected, (list, tuple)):
        return (
            isinstance(got, list)
            and len(got) == len(expected)
            and all(same(e, g) for e, g in zip(expected, got))
        )
    if isinstance(expected, bool) or expected is None or isinstance(expected, str):
        return expected == got
    if isinstance(expected, (int, float)) or hasattr(expected, "__float__"):
        if got is None:
            return math.isnan(float(expected))
        return isinstance(got, (int, float)) and _close(float(expected), float(got))
    return expected == got


# ---------------------------------------------------------------------------
# cli_points


def run_cli(ctx: Context, op):
    command, n_dim, a, b = op
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY, command, str(n_dim), a, b],
        env=ctx.env,
        capture_output=True,
        text=True,
        timeout=OP_TIMEOUT_S,
        cwd=ctx.root,
    )
    error = None if proc.returncode == 0 else f"exit {proc.returncode}"
    return (proc.returncode, proc.stdout), error


def expected_cli(command: str, params) -> dict:
    """The fields of each command's document, from the public API."""
    region = classify(params).region
    want = {"command": command, "region": region, "p": params.p, "gamma": params.gamma}
    if command == "spectrum":
        want["eigenvalues"] = [
            {"i": i, "j": j, "lambda": spectrum.eigenvalue_closed(params, i, j).lam}
            for i in range(3)
            for j in range(3)
        ]
    elif command == "gap":
        gap = spectrum.spectral_gap(params)
        want.update(lambda_star=gap.lambda_star, winner=list(gap.winner))
    elif command == "bounds":
        want["bounds"] = energy.bounds_report(params)
    elif command == "energy":
        want["a0"] = energy.a0_coefficient(params)
        want["two_bubble"] = energy.two_bubble_quotient(params, 10.0 / params.gamma)
        want["gap_perturbation"] = energy.gap_perturbation_quotient(params, 0.01)
    elif command == "zhat":
        want["appendix"] = energy.appendix_report(params)
    return want


def check_cli(op, payload) -> Outcome:
    command, n_dim, a, b = op
    returncode, stdout = payload
    if returncode != 0:
        return _fail(1, f"{command} {n_dim} {a} {b}: exit {returncode}")
    try:
        doc = json.loads(stdout)
        want = expected_cli(command, make_params(n_dim, float(a), float(b)))
    except (ValueError, ArithmeticError) as exc:
        return _fail(1, f"{command} {n_dim} {a} {b}: {type(exc).__name__}")
    for key, value in want.items():
        if key == "eigenvalues":
            got = [{k: e.get(k) for k in ("i", "j", "lambda")} for e in doc.get(key, [])]
        else:
            got = doc.get(key)
        if not same(value, got):
            return _fail(1, f"{command} {n_dim} {a} {b}: {key} differs from the API", wrong=True)
    return Outcome(1, 0)


# ---------------------------------------------------------------------------
# sweep


def sweep_rows_of(config: dict) -> int:
    return int(config["a_range"]["steps"]) * int(config["b_rule"]["steps"])


def run_sweep(ctx: Context, config: dict):
    path = os.path.join(ctx.out_dir, f"sweep-N{config['N']}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    env = dict(ctx.env, **{cli.WORKERS_ENV: str(ctx.nproc)})
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY, "sweep", "--config", path],
        env=env,
        capture_output=True,
        text=True,
        timeout=OP_TIMEOUT_S,
        cwd=ctx.root,
    )
    error = None if proc.returncode == 0 else f"exit {proc.returncode}"
    return (proc.returncode, proc.stdout, proc.stderr), error


def expected_region(n_dim: int, a: float, b: float) -> str:
    try:
        params = make_params(n_dim, a, b)
    except DegenerateBoundary:
        return "DegenerateBoundary"
    except ParameterError:
        return "Invalid"
    return classify(params).region.value


def check_sweep(config: dict, payload) -> Outcome:
    """Every row's region against ``params.classify``; a crashed invocation
    fails all of its rows."""
    returncode, stdout, stderr = payload
    rows = sweep_rows_of(config)
    bad = 0
    detail = ""
    regions: dict[str, int] = {}
    if returncode != 0:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        detail = f"sweep N={config['N']}: exit {returncode}: {last}"
    else:
        reader = csv.reader(io.StringIO(stdout))
        columns = ["N", "a", "b", "region"]
        for task in config["tasks"]:
            columns += cli.SWEEP_COLUMNS[task]
        if next(reader, []) != columns:
            bad = rows
            detail = f"sweep N={config['N']}: unexpected header"
        else:
            seen = 0
            for row in reader:
                seen += 1
                regions[row[3]] = regions.get(row[3], 0) + 1
                if row[3] != expected_region(int(row[0]), float(row[1]), float(row[2])):
                    bad += 1
            bad += max(0, rows - seen)
            if bad:
                detail = f"sweep N={config['N']}: {bad} of {rows} rows disagree with classify"
    attempted, failed = sweep_row_tally([Invocation(returncode, rows, bad)])
    wrong = failed if returncode == 0 else 0
    return Outcome(attempted, failed, wrong, detail, {"regions": regions})


# ---------------------------------------------------------------------------
# oracle_check


def run_oracle(ctx: Context, params):
    try:
        eigen = [eig_oracle.generalized_eigenvalues(params, i, 3) for i in range(3)]
        gap = eig_oracle.rayleigh_gap_check(params).value
    except Exception as exc:  # any failure of the op is counted, never retried
        return None, type(exc).__name__
    return (eigen, gap), None


def check_oracle(params, payload) -> Outcome:
    if payload is None:
        return _fail(1, f"oracle at N={params.N} a={params.a} b={params.b} raised")
    eigen, gap = payload
    worst = 0.0
    ok = True
    for i, values in enumerate(eigen):
        for j, lam in enumerate(values):
            closed = spectrum.eigenvalue_closed(params, i, j).lam
            rel = abs(lam - closed) / abs(closed)
            worst = max(worst, rel)
            ok = ok and rel <= EIG_REL_TOL
    lambda_star = spectrum.spectral_gap(params).lambda_star
    ok = ok and abs(gap - lambda_star) <= GAP_ABS_TOL
    extra = {"max_rel_err": worst}
    if ok:
        return Outcome(1, 0, extra=extra)
    detail = (
        f"oracle at N={params.N} a={params.a} b={params.b} (p={params.p:.4g}): "
        f"eigen rel err {worst:.3g}, gap {gap} vs {lambda_star}"
    )
    return Outcome(1, 1, 0, detail, extra)


# ---------------------------------------------------------------------------
# minimize


def run_minimize(ctx: Context, op):
    params, seed = op
    try:
        report = minimizer.estimate_cbe(params, starts=1, seed=seed)
    except Exception as exc:  # any failure of the op is counted, never retried
        return None, type(exc).__name__
    return report.value, None


def check_minimize(op, payload) -> Outcome:
    params, seed = op
    if payload is None:
        return _fail(1, f"estimate_cbe at N={params.N} a={params.a} b={params.b} raised")
    bounds = energy.bounds_report(params)
    ceiling = min(bounds.bound_gap, bounds.bound_two_bubble) + BOUND_SLACK
    extra = {"q": payload, "effective_bound": bounds.effective_bound}
    if 0.0 < payload <= ceiling:
        return Outcome(1, 0, extra=extra)
    detail = f"estimate_cbe at N={params.N} a={params.a} b={params.b}: Q={payload} > {ceiling}"
    return Outcome(1, 1, 0, detail, extra)


RUNNERS = {
    "cli_points": (run_cli, check_cli),
    "sweep": (run_sweep, check_sweep),
    "oracle_check": (run_oracle, check_oracle),
    "minimize": (run_minimize, check_minimize),
}


# ---------------------------------------------------------------------------
# in-process units replayed by the traced run

CLI_REPLAY_ROUNDS = 3
# every k-th row of the first round's interior grids and of its edge band
INTERIOR_STRIDE = 24
EDGE_STRIDE = 10


def run_command_quietly(argv) -> int:
    """``cli.run_command`` in-process, its document discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run_command(argv)


def sweep_points(config: dict):
    """The (N, a, b, tasks, seed) tuples ``cknlab sweep`` builds from a config."""
    a_spec, b_rule = config["a_range"], config["b_rule"]
    a_values = np.linspace(float(a_spec["min"]), float(a_spec["max"]), int(a_spec["steps"]))
    b_values = np.linspace(float(b_rule["min"]), float(b_rule["max"]), int(b_rule["steps"]))
    tasks = tuple(config["tasks"])
    seed = int(config["seed"])
    points = []
    for a in a_values:
        for b in b_values:
            points.append((int(config["N"]), float(a), float(b), tasks, seed + len(points)))
    return points


def replay_units(workload: str, rounds) -> list:
    """Zero-argument callables: one per op (cli, oracle, minimize) or per
    sweep row, run in-process."""
    if workload == "cli_points":
        ops = [op for ops in rounds[:CLI_REPLAY_ROUNDS] for op in ops]
        return [
            (lambda argv=[c, str(n), a, b]: run_command_quietly(argv)) for c, n, a, b in ops
        ]
    if workload == "sweep":
        units = []
        for config in rounds[0]:
            stride = EDGE_STRIDE if config is rounds[0][-1] else INTERIOR_STRIDE
            for point in sweep_points(config)[::stride]:
                units.append(lambda point=point: cli._sweep_point_row(point))
        return units
    if workload == "oracle_check":
        return [lambda params=params: run_oracle(None, params) for params in rounds[0]]
    return [lambda op=op: run_minimize(None, op) for op in rounds[0]]
