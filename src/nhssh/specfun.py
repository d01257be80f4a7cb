"""The dilogarithm on the closed unit disk, and the Lerch transcendent it gives.

:func:`dilog` costs the same for every argument: the Bernoulli series in
``u = -log(1-z)`` through B_26 where Re z <= 1/2 (there |u| <= pi/3 and the
next term is below 1e-22), elsewhere the reflection ``Li2(z) = pi^2/6 -
log(z) log(1-z) - Li2(1-z)`` ('t Hooft & Veltman, Nucl. Phys. B153 (1979) 365).
Legendre's ``chi2(x) = (Li2(x) - Li2(-x))/2`` gives ``Phi(z, 2, 1/2) = 4 chi2(sqrt z)/sqrt z``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# B_0, B_2, ..., B_26 (B_1 = -1/2 gives the -u^2/4 term), then Li2 = u P(u^2) - u^2/4
_BERNOULLI = (1, 1/6, -1/30, 1/42, -1/30, 5/66, -691/2730, 7/6, -3617/510, 43867/798, -174611/330,
              854513/138, -236364091/2730, 8553103/6)
_SERIES = [b / math.factorial(2 * k + 1) for k, b in enumerate(_BERNOULLI)][::-1]  # P, for np.polyval
ERROR_BOUND = 1e-14  # absolute, on Phi(z, 2, 1/2) anywhere on the closed disk (|Phi| <= pi^2/2)


@dataclass(frozen=True)
class SpecialValue:
    """A special-function value (complex, or an array of them) with its error estimate."""

    value: complex | np.ndarray
    terms_used: int
    est_error: float


def dilog(z) -> complex | np.ndarray:
    """Dilogarithm ``sum_{k>=1} z^k / k^2`` for complex z (or an array) with |z| <= 1."""
    z = np.asarray(z, dtype=complex)
    if not np.all(np.abs(z) <= 1.0 + 1e-12):
        raise ValueError("dilog arguments must lie on the closed unit disk")
    reflect = z.real > 0.5
    w = np.where(reflect, 1.0 - z, z)
    x, y = w.real, w.imag
    u = 1j * np.arctan2(y, 1.0 - x) - 0.5 * np.log1p(x * (x - 2.0) + y * y)  # -log(1-w), exact to rounding near 0
    li = u * np.polyval(_SERIES, u * u) - 0.25 * u * u
    with np.errstate(divide="ignore", invalid="ignore"):  # z = 1, replaced below
        log_w = np.log(np.abs(w)) + 1j * np.angle(w)  # in real arithmetic: half the time of the complex log
        li = np.where(reflect, np.pi**2 / 6.0 + u * log_w - li, li)  # there u = -log z
    return np.select([z == 1.0, z == -1.0], [np.pi**2 / 6.0, -np.pi**2 / 12.0], li)[()]


def _chi2(x) -> complex | np.ndarray:
    """Legendre's chi ``sum_{k odd} x^k / k^2 = (Li2(x) - Li2(-x))/2``."""
    li = dilog(np.stack([x, -x]))
    return 0.5 * (li[0] - li[1])


def lerch_phi(z, s: float = 2.0, alpha: float = 0.5, tol: float = 1e-12) -> SpecialValue:
    """Lerch transcendent ``Phi(z, 2, 1/2) = sum_{n>=0} z^n / (n+1/2)^2`` for z (or an array) with |z| <= 1.

    Other (s, alpha), or a ``tol`` below :data:`ERROR_BOUND`, raise ``ValueError``.
    """
    if (s, alpha) != (2.0, 0.5):
        raise ValueError(f"only s = 2, alpha = 1/2 is supported, got s = {s}, alpha = {alpha}")
    if tol < ERROR_BOUND:
        raise ValueError(f"tol = {tol:.3g} is below the fixed error bound {ERROR_BOUND:.0e}")
    w = np.sqrt(np.asarray(z, dtype=complex))
    value = 4.0 * np.divide(_chi2(w), w, out=np.ones_like(w), where=w != 0)
    return SpecialValue(value[()], len(_SERIES), ERROR_BOUND)
