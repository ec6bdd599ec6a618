"""Seeded inputs of the four workloads.

Points come from the domain the test suite samples: dimensions 2..7, an
exponent cap, and a 2% margin inside each region's b-interval.  Each round
of a workload visits every region once, so two seeds do the same mix of
work.  Nothing trims the domain away from the p -> 1 edge; the sweep adds an
explicit band there.
"""

from __future__ import annotations

import math

import numpy as np

from cknlab.params import (
    ParameterError,
    classify,
    curve_constants,
    felli_schneider,
    make_params,
)
from cknlab.spectrum import eigenvalue_closed

REGIONS = ("CaseI", "CaseII", "Remaining")
N_CHOICES = (2, 3, 4, 5, 6, 7)
P_CAP = 8.0  # exponent cap of the test-suite sampler
ORACLE_P_CAP = 6.0  # criterion 3: p <= 6 ...
ORACLE_LAMBDA22_CAP = 900.0  # ... and lambda_22 inside the solver's bracket window
MARGIN = 0.02

CLI_COMMANDS = ("region", "spectrum", "gap", "bounds", "energy", "zhat")
SWEEP_TASKS = ("region", "spectrum", "gap", "bounds", "zhat")

# rounds generated per seed; a run stops at a round boundary long before
MAX_ROUNDS = {"cli_points": 20, "sweep": 8, "oracle_check": 20, "minimize": 6}

# interior sweep rectangles [a0, a1] x [a1, a0 + 0.98] in the a >= 0 quadrant,
# with (a steps, b steps); every row is admissible with b - a <= 0.98.  The
# first two reach past a_c* (CaseI), the last two dip below b_FS* (Remaining).
SWEEP_INTERIOR = (
    (3, 0.01, 0.45, 100, 160),
    (4, 0.01, 0.60, 100, 160),
    (5, 0.01, 0.30, 100, 160),
    (6, 0.01, 0.35, 100, 160),
)
# the band within 0.01 of b = a + 1, where p -> 1
SWEEP_EDGE = (4, 0.2, 10, 200)

# criterion 10's points, one per region
MINIMIZE_ANCHORS = {
    "CaseI": (4, 0.5, 0.6),
    "CaseII": (4, 0.0, 0.5),
    "Remaining": (4, 0.0, 0.3),
}
MINIMIZE_JITTER = 0.03


def sample_point(rng: np.random.Generator, region: str, p_cap: float = P_CAP):
    """Admissible (N, a, b) in ``region``, drawn like the test suite does."""
    for _ in range(10_000):
        n_dim = int(rng.choice(N_CHOICES))
        curves = curve_constants(n_dim)
        if region == "CaseI":
            if n_dim < 3:
                continue
            a = float(rng.uniform(curves.a_c_star + 1e-3, curves.a_c - 1e-3))
            lo, hi = a, a + 1.0
        else:
            a = float(rng.uniform(-2.0, curves.a_c_star - 1e-3))
            floor = a if a >= 0.0 else -math.inf
            if region == "CaseII":
                lo, hi = max(curves.b_fs_star(a), floor), a + 1.0
            else:
                lo, hi = max(felli_schneider(n_dim, a), floor), curves.b_fs_star(a)
                if a == 0.0:
                    lo = max(lo, 1e-6)
        if not hi > lo:
            continue
        width = hi - lo
        b = float(rng.uniform(lo + MARGIN * width, hi - MARGIN * width))
        try:
            params = make_params(n_dim, a, b)
        except ParameterError:
            continue
        if params.p > p_cap or classify(params).region.value != region:
            continue
        return params
    raise RuntimeError(f"no admissible {region} point found")


def _cli_number(x: float) -> str:
    # fixed-point text: argparse would read "-1e-05" as an option
    return f"{x:.15f}"


def cli_rounds(seed: int) -> list[list[tuple[str, int, str, str]]]:
    """Each round runs every command four times: once per region and once
    more in a region that rotates from round to round."""
    rng = np.random.default_rng(seed)
    rounds = []
    for r in range(MAX_ROUNDS["cli_points"]):
        ops = []
        for region in REGIONS + (REGIONS[r % 3],):
            for command in CLI_COMMANDS:
                params = sample_point(rng, region)
                ops.append((command, params.N, _cli_number(params.a), _cli_number(params.b)))
        rounds.append(ops)
    return rounds


def sweep_config(n_dim, a_lo, a_hi, a_steps, b_lo, b_hi, b_steps, seed) -> dict:
    return {
        "N": n_dim,
        "a_range": {"min": a_lo, "max": a_hi, "steps": a_steps},
        "b_rule": {"type": "absolute", "min": b_lo, "max": b_hi, "steps": b_steps},
        "tasks": list(SWEEP_TASKS),
        "format": "csv",
        "seed": seed,
    }


def sweep_rounds(seed: int) -> list[list[dict]]:
    """Each round: one interior grid per dimension, then the edge band."""
    rng = np.random.default_rng(seed)
    rounds = []
    for _ in range(MAX_ROUNDS["sweep"]):
        ops = []
        for n_dim, a0, a1, a_steps, b_steps in SWEEP_INTERIOR:
            lo = a0 + float(rng.uniform(0.0, 0.005))
            hi = a1 - float(rng.uniform(0.0, 0.005))
            ops.append(sweep_config(n_dim, lo, hi, a_steps, hi, lo + 0.98, b_steps, seed))
        n_dim, a0, a_steps, b_steps = SWEEP_EDGE
        a0 += float(rng.uniform(0.0, 0.05))
        a1 = a0 + 0.004
        ops.append(sweep_config(n_dim, a0, a1, a_steps, a1 + 0.99, a0 + 0.9999, b_steps, seed))
        rounds.append(ops)
    return rounds


def oracle_rounds(seed: int):
    """Criterion 3's domain (p <= 6, lambda_22 <= 900): four points per
    round, every region at least once, the fourth region rotating."""
    rng = np.random.default_rng(seed)
    rounds = []
    for r in range(MAX_ROUNDS["oracle_check"]):
        ops = []
        for region in REGIONS + (REGIONS[r % 3],):
            while True:
                params = sample_point(rng, region, p_cap=ORACLE_P_CAP)
                if eigenvalue_closed(params, 2, 2).lam <= ORACLE_LAMBDA22_CAP:
                    break
            ops.append(params)
        rounds.append(ops)
    return rounds


def minimize_rounds(seed: int):
    """Four points per round near the acceptance suite's minimizer points:
    one per region, and a second CaseI or CaseII point in turn.

    Over the whole test-suite domain one ``estimate_cbe`` costs 6 to 14 s
    depending on the point, which a round of four cannot average out; a
    seeded jitter around fixed anchors keeps the mix of work the same from
    seed to seed.  The random-start seed of each op derives from ``seed``.
    """
    rng = np.random.default_rng(seed)
    rounds = []
    for r in range(MAX_ROUNDS["minimize"]):
        ops = []
        for k, region in enumerate(REGIONS + (REGIONS[r % 2],)):
            n_dim, a, b = MINIMIZE_ANCHORS[region]
            while True:
                params = make_params(
                    n_dim,
                    a + float(rng.uniform(0.0, MINIMIZE_JITTER)),
                    b + float(rng.uniform(-MINIMIZE_JITTER, MINIMIZE_JITTER)),
                )
                if classify(params).region.value == region:
                    break
            ops.append((params, seed * 1000 + 4 * r + k))
        rounds.append(ops)
    return rounds


BUILDERS = {
    "cli_points": cli_rounds,
    "sweep": sweep_rounds,
    "oracle_check": oracle_rounds,
    "minimize": minimize_rounds,
}


def build(workload: str, seed: int):
    return BUILDERS[workload](seed)
