"""Direct probes of per-layer unit costs, run untraced by the traced run."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

from cknlab import cli, eig_oracle, energy, extremals, spectrum
from cknlab.params import classify, make_params

import inputs
from summary import median
from workloads import run_command_quietly

IMPORTED_MODULES = ("cknlab", "numpy", "scipy.signal", "scipy.integrate", "scipy.special", "scipy.linalg")
IMPORT_REPEATS = 3
PROBE_REPEATS = 5


def parse_importtime(stderr: str, modules) -> dict[str, float]:
    """Cumulative seconds of each of ``modules`` from ``-X importtime`` output.

    Each module is listed once, under its first importer, which therefore
    pays.  A package loaded through ``importlib.import_module`` (scipy's lazy
    submodules) gets no line of its own; its cost is then the sum over its
    outermost submodule lines.
    """
    nodes = []  # (name, cumulative seconds, parent index)
    pending: list[tuple[int, int]] = []  # (node index, depth) awaiting a parent
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, label = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        name = label.strip()
        depth = (len(label) - len(label.lstrip(" "))) // 2
        idx = len(nodes)
        nodes.append([name, int(cumulative) * 1e-6, -1])
        while pending and pending[-1][1] > depth:
            nodes[pending.pop()[0]][2] = idx
        pending.append((idx, depth))
    out = {}
    for module in modules:
        own = [cum for name, cum, _ in nodes if name == module]
        if own:
            out[module] = own[0]
            continue
        prefix = module + "."
        out[module] = sum(
            cum
            for name, cum, parent in nodes
            if name.startswith(prefix) and (parent < 0 or not nodes[parent][0].startswith(prefix))
        )
    return out


def import_times(env: dict, cwd: str) -> dict[str, float]:
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cknlab"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            cwd=cwd,
        )
        if proc.returncode != 0:
            raise RuntimeError("importing cknlab failed:\n" + proc.stderr[-2000:])
        runs.append(parse_importtime(proc.stderr, IMPORTED_MODULES))
    return {
        f"import.{module}_s": median([run[module] for run in runs]) for module in IMPORTED_MODULES
    }


def _per_call_us(fn, args_list) -> float:
    """Median over repeats of the mean time per call, in microseconds."""
    samples = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        for args in args_list:
            fn(*args)
        samples.append((time.perf_counter() - start) / len(args_list) * 1e6)
    return median(samples)


def closed_form_us(seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed + 7)
    points = [inputs.sample_point(rng, inputs.REGIONS[k % 3]) for k in range(60)]
    triples = [(p.N, p.a, p.b) for p in points]
    ij = [(p, i, j) for p in points for i in range(3) for j in range(3)]
    return {
        "params.make_params.us": _per_call_us(make_params, triples),
        "params.classify.us": _per_call_us(classify, [(p,) for p in points]),
        "spectrum.spectral_gap.us": _per_call_us(spectrum.spectral_gap, [(p,) for p in points]),
        "spectrum.eigenvalue_closed.us": _per_call_us(spectrum.eigenvalue_closed, ij),
        "energy.bounds_report.us": _per_call_us(energy.bounds_report, [(p,) for p in points]),
        "energy.zhat.us": _per_call_us(energy.zhat, [(p,) for p in points]),
    }


def psi_us(seed: int) -> float:
    """psi on the default 4096-node cylinder grid."""
    rng = np.random.default_rng(seed + 11)
    points = [inputs.sample_point(rng, region) for region in inputs.REGIONS]
    args = [(p, eig_oracle.default_grid(p).t()) for p in points] * 10
    return _per_call_us(extremals.psi, args)


def inertia_count_ms(seed: int) -> float:
    """One Sturm count of the mode-0 pencil on the 8000-node solver grid."""
    rng = np.random.default_rng(seed + 13)
    points = [inputs.sample_point(rng, region, p_cap=inputs.ORACLE_P_CAP) for region in inputs.REGIONS]
    args = [(p, 0, 1.0, eig_oracle.solver_grid(p)) for p in points]
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        for a in args:
            eig_oracle.inertia_count(*a)
        samples.append((time.perf_counter() - start) / len(args) * 1e3)
    return median(samples)


def run_command_s(seed: int, notes: list) -> dict[str, float]:
    """Each command replayed in-process (imports already paid), per call;
    samples that fail are reported in ``notes`` and left out."""
    rng = np.random.default_rng(seed + 17)
    points = [inputs.sample_point(rng, inputs.REGIONS[k % 3]) for k in range(6)]
    out = {}
    for command in inputs.CLI_COMMANDS:
        samples = []
        for p in points:
            argv = [command, str(p.N), f"{p.a:.15f}", f"{p.b:.15f}"]
            start = time.perf_counter()
            try:
                code = run_command_quietly(argv)
            except Exception as exc:  # a crash is not a timing sample
                notes.append(f"run_command probe: {' '.join(argv)} raised {type(exc).__name__}")
                continue
            if code == 0:
                samples.append(time.perf_counter() - start)
        out[f"cli.run_command.{command}.s"] = median(samples) if samples else 0.0
    return out


POOL_PROBE = (4, 0.01, 0.60, 60, 100)


def sweep_pool(out_dir: str, nproc: int, seed: int) -> dict[str, float]:
    """``cknlab sweep`` run in-process, serially and on ``nproc`` workers.

    The CLI's own pool is used; efficiency is serial time over
    (workers x parallel wall).  The serial run also gives the row cost.
    """
    n_dim, a0, a1, a_steps, b_steps = POOL_PROBE
    config = inputs.sweep_config(n_dim, a0, a1, a_steps, a1, a0 + 0.98, b_steps, seed)
    path = os.path.join(out_dir, f"pool-probe-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    rows = a_steps * b_steps
    saved = os.environ.get(cli.WORKERS_ENV)
    walls = {}
    try:
        for workers in (1, nproc):
            os.environ[cli.WORKERS_ENV] = str(workers)
            start = time.perf_counter()
            code = run_command_quietly(["sweep", "--config", path])
            walls[workers] = time.perf_counter() - start
            if code != 0:
                raise RuntimeError(f"pool probe sweep exited {code}")
    finally:
        if saved is None:
            os.environ.pop(cli.WORKERS_ENV, None)
        else:
            os.environ[cli.WORKERS_ENV] = saved
        os.remove(path)
    return {
        "cli.sweep.row_us": walls[1] / rows * 1e6,
        "cli.sweep.pool_efficiency": walls[1] / (nproc * walls[nproc]),
    }
