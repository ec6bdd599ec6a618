"""cknlab benchmark: one workload per run, end-to-end or traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cli_points --seed 1 --seconds 20 --trace 0

Workloads: cli_points, sweep, oracle_check, minimize (see README.md).  With
``--trace 0`` the run times whole rounds of ops for about ``--seconds`` and
reports the end-to-end metrics; with ``--trace 1`` it replays one round
in-process, untraced and then traced, and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("cli_points", "sweep", "oracle_check", "minimize")
SETUP_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("op_s_mean", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
    ("q_ratio", "ratio"),
)

SHARE_LAYERS = ("bench", "cli", "params", "spectrum", "energy", "specfun", "eig_oracle", "cylinder", "minimizer")

# layers a workload must not call into: it would no longer isolate the layers
# it claims to measure
ISOLATION = {
    "oracle_check": ("cylinder", "minimizer"),
    "minimize": ("eig_oracle",),
    "sweep": ("eig_oracle",),
}

# spans reported per replayed unit as <span>.calls (count), <span>.s
# (inclusive seconds) and <span>.self_s
SPAN_STATS = (
    ("energy.two_bubble_quotient", ("s",)),
    ("energy.gap_perturbation_quotient", ("s",)),
    ("energy.a0_coefficient", ("s",)),
    ("specfun.integrate_line", ("calls", "s")),
    ("eig_oracle.generalized_eigenvalues", ("calls", "s")),
    ("eig_oracle.mode_eigenpairs", ("calls", "s")),
    ("eig_oracle.rayleigh_gap_check", ("calls", "s")),
    ("cylinder.CylinderModel", ("calls", "s")),
    ("cylinder.distance_to_manifold", ("calls", "s")),
    ("cylinder.overlap", ("calls", "s")),
    ("cylinder.lp1_pow_1d", ("calls", "s")),
    ("cylinder.lp1_pow_2d", ("calls", "s")),
    ("cylinder.h1_inner", ("calls", "s")),
    ("minimizer.estimate_cbe", ("s",)),
    ("minimizer.minimize_quotient", ("calls", "s", "self_s")),
)
SPAN_METRICS = tuple(
    (f"{span}.{stat}", "count" if stat == "calls" else "s", span, stat)
    for span, stats in SPAN_STATS
    for stat in stats
)

PER_LAYER = (
    tuple(
        (f"import.{module}_s", "s")
        for module in ("cknlab", "numpy", "scipy.signal", "scipy.integrate", "scipy.special", "scipy.linalg")
    )
    + tuple((f"cli.run_command.{c}.s", "s") for c in ("region", "spectrum", "gap", "bounds", "energy", "zhat"))
    + (
        ("cli.sweep.row_us", "us"),
        ("cli.sweep.pool_efficiency", "ratio"),
        ("params.make_params.us", "us"),
        ("params.classify.us", "us"),
        ("spectrum.spectral_gap.us", "us"),
        ("spectrum.eigenvalue_closed.us", "us"),
        ("energy.bounds_report.us", "us"),
        ("energy.zhat.us", "us"),
        ("extremals.psi.us", "us"),
        ("eig_oracle.inertia_count.ms", "ms"),
        ("eig_oracle.max_rel_err", "ratio"),
        ("cylinder.overlaps_per_distance", "ratio"),
        ("cylinder.edge_hits", "count"),
        ("minimizer.iterations", "count"),
        ("minimizer.starts_dropped", "count"),
        ("minimizer.useful_start_ratio", "ratio"),
        ("trace.overhead_ratio", "ratio"),
        ("layer.import.share", "ratio"),
    )
    + tuple((metric, unit) for metric, unit, _, _ in SPAN_METRICS)
    + tuple((f"layer.{layer}.self_share", "ratio") for layer in SHARE_LAYERS)
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("CKNLAB_WORKERS", None)
    return env


def environment(seed: int, workload: str, trace: int) -> dict:
    import numpy
    import scipy

    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "blas_threads": {
            key: os.environ.get(key, "unset")
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_sha": sha,
        "machine": platform.machine(),
    }


def setup_seconds(workload: str, seed: int, env: dict) -> float:
    """Median wall time of fresh interpreters importing cknlab and building inputs."""
    from summary import median

    walls = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            cwd=str(ROOT),
        )
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError("set-up failed:\n" + proc.stderr[-2000:])
    return median(walls)


def timed_rounds(rounds, run_op, ctx, seconds: float):
    """Closed loop over whole rounds; a new round starts only if the last
    one's duration still fits in ``seconds`` (the first always runs)."""
    records = []
    start = time.perf_counter()
    last_round = 0.0
    for r, ops in enumerate(rounds):
        if r > 0 and time.perf_counter() - start + last_round > seconds:
            break
        round_start = time.perf_counter()
        for spec in ops:
            t0 = time.perf_counter()
            payload, error = run_op(ctx, spec)
            records.append((spec, time.perf_counter() - t0, payload, error))
        last_round = time.perf_counter() - round_start
    return records, time.perf_counter() - start


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_end_to_end(workload: str, seed: int, seconds: float, env: dict, notes: list):
    setup_s = setup_seconds(workload, seed, env)

    import inputs
    import summary
    import workloads

    ctx = workloads.Context(str(ROOT), str(OUT), env, os.cpu_count() or 1)
    rounds = inputs.build(workload, seed)
    run_op, check = workloads.RUNNERS[workload]
    records, wall = timed_rounds(rounds, run_op, ctx, seconds)

    outcomes = [check(spec, payload) for spec, _, payload, _ in records]
    attempted = sum(o.units for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    wrong = sum(o.wrong for o in outcomes)
    for (_, _, _, error), outcome in zip(records, outcomes):
        if outcome.detail:
            notes.append(outcome.detail + (f" ({error})" if error else ""))
    regions: dict[str, int] = {}
    for outcome in outcomes:
        for region, count in outcome.extra.get("regions", {}).items():
            regions[region] = regions.get(region, 0) + count
    if regions:
        notes.append(f"sweep rows by region: {regions}")
    op_walls = [w for _, w, _, _ in records]
    tail = summary.tail_percentile(op_walls)
    notes.append("op walls (s): " + " ".join(f"{w:.3f}" for w in op_walls))
    notes.append(
        f"{len(records)} ops in {wall:.2f} s; over {len(op_walls)} samples op_s_p50 = "
        f"{summary.median(op_walls):.6g} s"
        + (f", p{tail[0]:g} = {tail[1]:.6g} s" if tail else "; too few samples for a tail percentile")
    )
    if workload == "minimize":
        pairs = [(o.extra["q"], o.extra["effective_bound"]) for o in outcomes if "q" in o.extra]
        q_ratio = summary.q_ratio(pairs) if pairs else 1e6
        if not pairs:
            notes.append("q_ratio: no op produced a quotient; reported as 1e6")
    else:
        q_ratio = 1.0
        notes.append("q_ratio: no minimization on this workload; reported as the neutral 1.0")
    error_rate = failed / attempted
    notes.append(f"error_rate = {error_rate:.6g} ({failed} of {attempted} failed)")
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": (attempted - failed) / wall,
        # the mean, not the median: the median of a run jumps between the
        # machine's fast and slow phases, the mean moves with their mix
        "op_s_mean": sum(op_walls) / len(op_walls),
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": 1.0 - error_rate,
        "q_ratio": q_ratio,
    }
    return metrics, dict(END_TO_END), wrong == 0, attempted, failed


def _clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name.startswith("cknlab") and module is not None:
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _replay(units, tracer=None):
    """Run the units in order from empty program caches, so that the untraced
    and the traced pass do the same work; returns (wall, results)."""
    results = []
    _clear_caches()
    start = time.perf_counter()
    for op, unit in enumerate(units):
        if tracer is None:
            try:
                results.append(unit())
            except Exception as exc:
                results.append(exc)
            continue
        tracer.op = op
        try:
            results.append(tracer.wrap(unit, "bench.op")())
        except Exception as exc:
            results.append(exc)
    return time.perf_counter() - start, results


def run_traced(workload: str, seed: int, env: dict, notes: list):
    import inputs
    import probes
    import workloads
    from tracing import Tracer, aggregate, layer_of

    nproc = os.cpu_count() or 1
    metrics = {}
    metrics.update(probes.import_times(env, str(ROOT)))
    metrics.update(probes.closed_form_us(seed))
    metrics["extremals.psi.us"] = probes.psi_us(seed)
    metrics["eig_oracle.inertia_count.ms"] = probes.inertia_count_ms(seed)
    metrics.update(probes.run_command_s(seed, notes))
    metrics.update(probes.sweep_pool(str(OUT), nproc, seed))

    rounds = inputs.build(workload, seed)
    units = workloads.replay_units(workload, rounds)
    wall_plain, _ = _replay(units)
    tracer = Tracer()
    tracer.install()
    try:
        wall_traced, results = _replay(units, tracer)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    table = aggregate(spans)
    n_units = len(units)

    def stat(name, key):
        return table.get(name, {}).get(key, 0.0)

    for metric, _, name, key in SPAN_METRICS:
        metrics[metric] = stat(name, key) / n_units

    distance = [s for s in spans if s.name == "cylinder.distance_to_manifold"]
    starts = [s for s in spans if s.name == "minimizer.minimize_quotient"]
    dropped = [s for s in starts if (s.info or {}).get("error") in ("NoDescent", "OnManifold")]
    completed = [s for s in starts if s.info and "iterations" in s.info]
    metrics["cylinder.overlaps_per_distance"] = (
        stat("cylinder.overlap", "calls") / len(distance) if distance else 0.0
    )
    metrics["cylinder.edge_hits"] = sum(1 for s in distance if (s.info or {}).get("edge")) / n_units
    metrics["minimizer.iterations"] = sum(s.info["iterations"] for s in completed) / n_units
    metrics["minimizer.starts_dropped"] = len(dropped) / n_units
    metrics["minimizer.useful_start_ratio"] = len(completed) / len(starts) if starts else 0.0
    if not distance:
        notes.append("cylinder.overlaps_per_distance: no distance_to_manifold call; reported as 0")
    if not starts:
        notes.append("minimizer.useful_start_ratio: no minimizer start; reported as 0")

    max_rel = 0.0
    if workload == "oracle_check":
        for params, (payload, _) in zip(rounds[0], results):
            outcome = workloads.check_oracle(params, payload)
            max_rel = max(max_rel, outcome.extra.get("max_rel_err", 0.0))
    else:
        notes.append("eig_oracle.max_rel_err: no oracle solve on this workload; reported as 0")
    metrics["eig_oracle.max_rel_err"] = max_rel
    metrics["trace.overhead_ratio"] = wall_traced / wall_plain

    shares = {layer: 0.0 for layer in SHARE_LAYERS}
    for name, row in table.items():
        shares[layer_of(name)] = shares.get(layer_of(name), 0.0) + row["self_s"]
    for layer in SHARE_LAYERS:
        metrics[f"layer.{layer}.self_share"] = shares[layer] / wall_traced

    # in-process cost of one op; a sweep invocation's rows run on the pool
    per_op = wall_plain / n_units
    if workload == "sweep":
        rows = workloads.sweep_rows_of(rounds[0][0])
        per_op *= rows / (nproc * metrics["cli.sweep.pool_efficiency"])
    metrics["layer.import.share"] = metrics["import.cknlab_s"] / (metrics["import.cknlab_s"] + per_op)

    forbidden = ISOLATION.get(workload, ())
    leaks = {name: row["calls"] for name, row in table.items() if layer_of(name) in forbidden}
    if leaks:
        notes.append(f"layer isolation broken on {workload}: {leaks}")
    else:
        notes.append(f"layer isolation holds on {workload}: no calls into {forbidden or 'n/a'}")

    split = sorted(((v, k) for k, v in shares.items() if v > 0), reverse=True)
    notes.append(
        "self-time split of the traced pass: "
        + ", ".join(f"{k} {v / wall_traced:.1%}" for v, k in split)
        + f"; import share per op {metrics['layer.import.share']:.1%}"
    )
    trace_path = OUT / f"trace-{workload}-seed{seed}.jsonl"
    tracer.write(trace_path)
    notes.append(f"{len(spans)} spans over {n_units} units written to {trace_path.relative_to(ROOT)}")
    errors = sum(1 for r in results if isinstance(r, Exception))
    return metrics, dict(PER_LAYER), not leaks, n_units, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cknlab" / "__init__.py").is_file():
        print(f"perfbench: no cknlab sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    # the modules below import cknlab, so they load only once src/ is on the path
    sys.path.insert(0, str(SRC))
    env = child_env()
    OUT.mkdir(exist_ok=True)

    notes: list[str] = []
    env_record = environment(args.seed, args.workload, args.trace)
    if args.trace:
        metrics, units, correct, attempted, failed = run_traced(args.workload, args.seed, env, notes)
    else:
        metrics, units, correct, attempted, failed = run_end_to_end(
            args.workload, args.seed, args.seconds, env, notes
        )

    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    record_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({"environment": env_record, "notes": notes, "result": result}, fh, indent=1)

    print("environment: " + json.dumps(env_record))
    for note in notes:
        print("note: " + note)
    for name, entry in result["metrics"].items():
        print(f"{name:44s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
