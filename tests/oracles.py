"""Reference implementations used only by the tests, as independent oracles
for identities the package evaluates in closed form."""

from typing import Callable

import numpy as np

from cknlab.params import CknParams
from cknlab.specfun import beta


def emden_fowler_image(params: CknParams, radial: Callable[[np.ndarray], np.ndarray], t):
    """Cylinder image e^(-(a_c-a) t) f(e^(-t)) of a radial function f(r)."""
    t = np.asarray(t, dtype=float)
    return np.exp(-params.ac_minus_a * t) * radial(np.exp(-t))


def beta_reduction(m: float, n: float) -> float:
    """B(m, n) through the downward recursion B(m,n) = (m-1)/(m-1+n) B(m-1,n).

    The recursion bottoms out in a direct Gamma evaluation once m <= 2.
    Requires m > 1 and n > 0.
    """
    if m <= 1.0:
        raise ValueError("beta_reduction requires m > 1")
    if n <= 0.0:
        raise ValueError("beta_reduction requires n > 0")
    factor = 1.0
    while m > 2.0:
        factor *= (m - 1.0) / (m - 1.0 + n)
        m -= 1.0
    return factor * beta(m, n)
