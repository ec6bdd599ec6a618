"""Spans around the public functions of each ``cknlab`` module.

The benchmark measures the program from outside: ``Tracer.install`` replaces
each traced function or method with a wrapper that records a span (name,
start, end, parent, op id) in memory, in every ``cknlab`` module that holds a
reference to it, and ``uninstall`` puts the originals back.  Nothing under
``src/`` changes.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from summary import Span, self_times


def _lp1_name(args) -> str:
    # args = (model, v); the 1-D path is taken for radial functions only
    return "cylinder.lp1_pow_1d" if args[1].degrees == (0,) else "cylinder.lp1_pow_2d"


def _edge_info(result):
    return {"edge": bool(result.edge_attained)}


def _iterations_info(result):
    return {"iterations": int(result.iterations)}


# (module, attribute, class or None, span name or namer, result annotator)
TARGETS = (
    ("cknlab.cli", "run_command", None, "cli.run_command", None),
    ("cknlab.cli", "_sweep_point_row", None, "cli.sweep_row", None),
    ("cknlab.params", "make_params", None, "params.make_params", None),
    ("cknlab.params", "classify", None, "params.classify", None),
    ("cknlab.spectrum", "eigenvalue_closed", None, "spectrum.eigenvalue_closed", None),
    ("cknlab.spectrum", "spectral_gap", None, "spectrum.spectral_gap", None),
    ("cknlab.energy", "bounds_report", None, "energy.bounds_report", None),
    ("cknlab.energy", "zhat", None, "energy.zhat", None),
    ("cknlab.energy", "appendix_report", None, "energy.appendix_report", None),
    ("cknlab.energy", "two_bubble_quotient", None, "energy.two_bubble_quotient", None),
    ("cknlab.energy", "gap_perturbation_quotient", None, "energy.gap_perturbation_quotient", None),
    ("cknlab.energy", "a0_coefficient", None, "energy.a0_coefficient", None),
    ("cknlab.specfun", "integrate_line", None, "specfun.integrate_line", None),
    ("cknlab.eig_oracle", "generalized_eigenvalues", None, "eig_oracle.generalized_eigenvalues", None),
    ("cknlab.eig_oracle", "mode_eigenpairs", None, "eig_oracle.mode_eigenpairs", None),
    ("cknlab.eig_oracle", "rayleigh_gap_check", None, "eig_oracle.rayleigh_gap_check", None),
    ("cknlab.eig_oracle", "inertia_count", None, "eig_oracle.inertia_count", None),
    ("cknlab.cylinder", "__init__", "CylinderModel", "cylinder.CylinderModel", None),
    ("cknlab.cylinder", "distance_to_manifold", "CylinderModel", "cylinder.distance_to_manifold", _edge_info),
    ("cknlab.cylinder", "overlap", "CylinderModel", "cylinder.overlap", None),
    ("cknlab.cylinder", "lp1_pow", "CylinderModel", _lp1_name, None),
    ("cknlab.cylinder", "h1_inner", "CylinderModel", "cylinder.h1_inner", None),
    ("cknlab.minimizer", "estimate_cbe", None, "minimizer.estimate_cbe", None),
    ("cknlab.minimizer", "minimize_quotient", None, "minimizer.minimize_quotient", _iterations_info),
)


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self) -> None:
        self.records: list[list] = []  # [name, start, end, parent, op, info]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op = -1

    def wrap(self, fn, name, annotate=None):
        """``fn`` recording one span per call; ``name`` may be a function of the
        call's arguments, ``annotate`` one of its result."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            record = [span_name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op, None]
            tracer._stack.append(len(tracer.records))
            tracer.records.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[5] = {"error": type(exc).__name__}
                raise
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            if annotate is not None:
                record[5] = annotate(result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key.startswith("cknlab") and m]
        for module_name, attr, cls_name, name, annotate in TARGETS:
            home = sys.modules[module_name]
            if cls_name is not None:
                owner = getattr(home, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self.wrap(original, name, annotate))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(original, name, annotate)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spans(self) -> list[Span]:
        return [Span(*record) for record in self.records]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(json.dumps(record) + "\n")


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    own = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for span, self_s in zip(spans, own):
        row = table.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += span.duration
        row["self_s"] += self_s
    return table


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
