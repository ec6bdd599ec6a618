"""Parameter points of the weighted inequality and their classification.

A point (N, a, b) is admissible when either

    (1)  a < 0          and  b_FS(a) < b < a + 1, or
    (2)  0 <= a < a_c   and  a <= b < a + 1  with  a + b > 0,

where a_c = (N-2)/2 and b_FS is the Felli-Schneider curve.  Points sitting on
the curve b = b_FS(a) are rejected separately: the radial extremal is
degenerate there and every gap constant downstream vanishes.

Admissible points split into three regions according to which linearization
eigenvalue sits directly above 1; the thresholds a_c* and b_FS*(a) draw the
boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "CknParams",
    "CurveConstants",
    "DegenerateBoundary",
    "InvalidParameters",
    "NoDescent",
    "NumericalFailure",
    "OnManifold",
    "ParameterError",
    "RegionClass",
    "RegionReport",
    "SearchFailure",
    "classify",
    "curve_constants",
    "felli_schneider",
    "make_params",
]

DEGENERACY_TOL = 1e-12
BOUNDARY_TOL = 1e-12


class ParameterError(ValueError):
    """Base class for rejected parameter points; the message names the cause."""


class InvalidParameters(ParameterError):
    """The point violates the admissibility conditions."""


class DegenerateBoundary(ParameterError):
    """The point sits on the symmetry-breaking curve b = b_FS(a)."""


# failures of a computation at a valid point, raised by the cylinder and
# minimizer modules; defined here so that naming them loads neither
class SearchFailure(RuntimeError):
    """The shift search for the manifold projection did not converge."""


class OnManifold(RuntimeError):
    """The function is (numerically) a scaled shifted bubble; Q is undefined."""


class NoDescent(RuntimeError):
    """Line search failed on the very first iterate."""


class NumericalFailure(RuntimeError):
    """A result violated its guaranteed bound."""


class RegionClass(str, Enum):
    CASE_I = "CaseI"
    CASE_II = "CaseII"
    REMAINING = "Remaining"
    DEGENERATE_BOUNDARY = "DegenerateBoundary"
    INVALID = "Invalid"


@dataclass(frozen=True)
class CknParams:
    """Validated parameter point with all derived constants.

    p is the critical exponent, gamma the cylinder decay rate of the bubble
    profile, beta the strength of the sech^2 interaction potential.
    """

    N: int
    a: float
    b: float
    a_c: float
    p: float
    gamma: float
    beta: float

    @property
    def ac_minus_a(self) -> float:
        return self.a_c - self.a

    def tau(self, i: int) -> float:
        """Mode-i separation constant: (a_c-a)^2 + i(N-2+i)."""
        if i < 0:
            raise ValueError("mode degree must be nonnegative")
        return self.ac_minus_a**2 + i * (self.N - 2 + i)

    @property
    def q(self) -> float:
        """(N-1)/(a_c-a)^2."""
        return (self.N - 1) / self.ac_minus_a**2

    @property
    def q_star(self) -> float:
        """sqrt(1 + (N-1)/(a_c-a)^2); equals p on the b_FS* curve."""
        return math.sqrt(1.0 + self.q)


def felli_schneider(n_dim: int, a: float) -> float:
    """The Felli-Schneider curve b_FS(a).

    b_FS(a) = N(a_c-a) / (2 sqrt((a_c-a)^2 + N-1)) + a - a_c, defined for
    a < a_c.  Radial extremals lose minimality below it (for a < 0).
    """
    a_c = (n_dim - 2) / 2.0
    if a >= a_c:
        raise InvalidParameters("a < a_c violated")
    d = a_c - a
    return n_dim * d / (2.0 * math.sqrt(d * d + n_dim - 1)) + a - a_c


@dataclass(frozen=True)
class CurveConstants:
    """Thresholds in a and the curves in (a, b) separating the regions."""

    N: int
    a_c: float
    a_c_star: float
    a_c_double_star: float
    a_c_triple_star: float

    def b_fs(self, a: float) -> float:
        return felli_schneider(self.N, a)

    def b_fs_star(self, a: float) -> float:
        """Curve above which the radial mode-0 eigenvalue is the smallest > 1."""
        d = self.a_c - a
        if d <= 0.0:
            raise InvalidParameters("a < a_c violated")
        return d * self.N / (d + math.sqrt(d * d + self.N - 1)) + a - self.a_c

    def b_fs_double_star(self, a: float) -> float:
        """Curve below which the critical exponent exceeds 2."""
        return a - self.a_c + self.N / 3.0


def curve_constants(n_dim: int) -> CurveConstants:
    """All closed-form thresholds for dimension N."""
    if n_dim < 2:
        raise InvalidParameters("N >= 2 violated")
    a_c = (n_dim - 2) / 2.0
    root = math.sqrt(n_dim - 1)
    return CurveConstants(
        N=n_dim,
        a_c=a_c,
        a_c_star=(1.0 - math.sqrt((n_dim - 1) / (2.0 * n_dim))) * a_c,
        a_c_double_star=a_c - 2.0 / math.sqrt(5.0) * root,
        a_c_triple_star=a_c - root / math.sqrt(3.0),
    )


def make_params(n_dim: int, a: float, b: float) -> CknParams:
    """Validate (N, a, b) and compute all derived constants.

    Raises InvalidParameters naming the violated condition, or
    DegenerateBoundary when b equals b_FS(a) within 1e-12.
    """
    if n_dim != int(n_dim):
        raise InvalidParameters("N must be an integer")
    n_dim = int(n_dim)
    if n_dim < 2:
        raise InvalidParameters("N >= 2 violated")
    a = float(a)
    b = float(b)
    for name, value in (("a", a), ("b", b)):
        if not math.isfinite(value):
            raise InvalidParameters(f"{name} must be finite")
    a_c = (n_dim - 2) / 2.0
    if not a < a_c:
        raise InvalidParameters("a < a_c violated")
    if not b < a + 1.0:
        raise InvalidParameters("b < a+1 violated")
    if a >= 0.0:
        if not a <= b:
            raise InvalidParameters("a <= b violated")
        if not a + b > 0.0:
            raise InvalidParameters("a + b > 0 violated")
    else:
        b_fs = felli_schneider(n_dim, a)
        if abs(b - b_fs) < DEGENERACY_TOL:
            raise DegenerateBoundary("b = b_FS(a): degenerate extremal")
        if b < b_fs:
            raise InvalidParameters("b > b_FS(a) violated")
    u = 1.0 + a - b
    p = (n_dim + 2.0 * u) / (n_dim - 2.0 * u)
    d = a_c - a
    return CknParams(
        N=n_dim,
        a=a,
        b=b,
        a_c=a_c,
        p=p,
        gamma=(p - 1.0) * d / 2.0,
        beta=p * (p + 1.0) * d * d / 2.0,
    )


@dataclass(frozen=True)
class RegionReport:
    """Region decision together with the curve values that produced it."""

    region: RegionClass
    a_c_star: float
    b_fs: float
    b_fs_star: float
    boundary_note: str | None = None


def classify(params: CknParams) -> RegionReport:
    """Assign a validated point to its region.

    Boundary ties (within 1e-12) go to CaseII: on b = b_FS*(a) both candidate
    eigenvalues coincide, and at a = a_c* the gap constant is the same on
    either branch; the note records that a tie fired.
    """
    curves = curve_constants(params.N)
    b_fs = felli_schneider(params.N, params.a)
    b_fs_star = curves.b_fs_star(params.a)
    note = None
    if params.a > curves.a_c_star + BOUNDARY_TOL:
        region = RegionClass.CASE_I
    elif abs(params.a - curves.a_c_star) <= BOUNDARY_TOL:
        region = RegionClass.CASE_II
        note = "a = a_c* within tolerance; CaseII branch used"
    elif params.b >= b_fs_star - BOUNDARY_TOL:
        region = RegionClass.CASE_II
        if abs(params.b - b_fs_star) <= BOUNDARY_TOL:
            note = "b = b_FS*(a) within tolerance; both gap candidates coincide"
    else:
        region = RegionClass.REMAINING
    return RegionReport(
        region=region,
        a_c_star=curves.a_c_star,
        b_fs=b_fs,
        b_fs_star=b_fs_star,
        boundary_note=note,
    )
