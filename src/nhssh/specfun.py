"""Series evaluation of the Lerch transcendent and the dilogarithm.

Both functions enter the closed-form Dirac norm of the evolved packet,
which places the Lerch argument on or inside the unit circle with
exponent s = 2.  Evaluation strategy:

* strictly inside the disk: a term count read off the geometric tail
  bound, then blocked matrix-vector sums over an array of z;
* on the circle at z = 1: direct summation plus an Euler-Maclaurin
  tail, which converges far faster than the raw 1/(n+alpha)^s majorant
  allows;
* elsewhere on the circle: direct summation plus a two-step Abel
  (summation by parts) tail estimate with remainder bound
  ``|f(M)-f(M+1)| / |1-z|^2``.

Everything is plain float64 partial summation, capped at 10^7 terms; a
request the cap cannot satisfy raises :class:`ConvergenceError` carrying
the error estimate at the cap (inside the disk, before any term is summed).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

TERM_CAP = 10_000_000
_BLOCK = 1 << 15
_CIRCLE_EPS = 1e-13


class ConvergenceError(RuntimeError):
    """Requested tolerance is unreachable within the term cap."""

    def __init__(self, message: str, est_error: float, terms_used: int):
        super().__init__(message)
        self.est_error = est_error
        self.terms_used = terms_used


@dataclass(frozen=True)
class SpecialValue:
    """A special-function value (complex, or an array of them) with its error estimate."""

    value: complex | np.ndarray
    terms_used: int
    est_error: float


def _partial_sum(z: complex, s: float, alpha: float, n0: int, n1: int) -> complex:
    n = np.arange(n0, n1, dtype=float)
    return complex(np.sum(np.power(z, n) / np.power(n + alpha, s)))


def lerch_phi(z: complex, s: float, alpha: float, tol: float = 1e-12) -> SpecialValue:
    """Lerch transcendent ``sum_{n>=0} z^n / (n+alpha)^s`` for |z| <= 1.

    Requires ``s >= 2`` and ``alpha > 0`` (absolute convergence on the
    closed disk).  ``tol`` is an absolute bound on the truncation error.
    """
    z = complex(z)
    if s < 2.0:
        raise ValueError(f"s must be >= 2 for closed-disk evaluation, got {s}")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    r = abs(z)
    if r > 1.0 + 1e-12:
        raise ValueError(f"|z| must be <= 1, got |z| = {r}")
    if 1.0 - r < _CIRCLE_EPS:
        if r > 1.0:
            z /= r  # clamp rounding above the circle
        if abs(z - 1.0) < 1e-12:
            return _lerch_at_one(s, alpha, tol)
        return _lerch_on_circle(z, s, alpha, tol)
    inside = lerch_phi_inside(z, s, alpha, tol)
    return SpecialValue(complex(inside.value[0]), inside.terms_used, inside.est_error)


def lerch_phi_inside(z, s: float, alpha: float, tol: float = 1e-12) -> SpecialValue:
    """Lerch transcendent for an array of z strictly inside the unit disk.

    Sums ``z^n / (n+alpha)^s`` for n < M, the least M with ``r^M / ((M+alpha)^s
    (1-r)) <= tol`` at r = max|z|; M above ``TERM_CAP`` raises before any
    summing.  ``.value`` is a 1-D array over ``z.ravel()``.
    """
    z = np.asarray(z, dtype=complex).ravel()
    r = float(np.abs(z).max(initial=0.0))
    if alpha <= 0.0 or not r < 1.0:
        raise ValueError(f"need alpha > 0 and max|z| < 1, got alpha = {alpha}, max|z| = {r}")

    def tail(m: int) -> float:
        return r**m * (m + alpha) ** -s / (1.0 - r)  # underflows to 0 where a power of m would overflow

    M = bisect.bisect_left(range(TERM_CAP + 1), True, key=lambda m: tail(m) <= tol)
    if M > TERM_CAP:
        message = f"interior Lerch sum needs more than {TERM_CAP} terms for tol={tol} at |z|={r}"
        raise ConvergenceError(message, est_error=tail(TERM_CAP), terms_used=TERM_CAP)
    value = np.zeros(z.size, dtype=complex)
    for n0 in range(0, M, _BLOCK):  # blocks of about _BLOCK entries keep memory flat
        n = np.arange(n0, min(n0 + _BLOCK, M), dtype=float)
        rows = _BLOCK // n.size
        for i in range(0, z.size, rows):
            powers = np.repeat(z[i : i + rows, None], n.size, axis=1)
            powers[:, 0] **= n0  # z^n as a running product along n, seeded with z^n0
            value[i : i + rows] += np.cumprod(powers, axis=1) @ (n + alpha) ** -s
    return SpecialValue(value, M, tail(M))


def _lerch_at_one(s: float, alpha: float, tol: float) -> SpecialValue:
    # Euler-Maclaurin tail after M direct terms; the correction terms decay
    # so fast that the floor is set by float rounding, not truncation.
    M = 1 << 14
    total = _partial_sum(1.0, s, alpha, 0, M)
    x = M + alpha
    tail = (
        x ** (1.0 - s) / (s - 1.0)
        + 0.5 * x ** (-s)
        + (s / 12.0) * x ** (-s - 1.0)
        - (s * (s + 1.0) * (s + 2.0) / 720.0) * x ** (-s - 3.0)
    )
    est = s * (s + 1) * (s + 2) * (s + 3) * (s + 4) / 30240.0 * x ** (-s - 5.0)
    est = max(est, 1e-15 * abs(total + tail))
    if est > tol:
        raise ConvergenceError(
            f"Lerch at z=1 limited to est_error={est:.3g} > tol={tol}",
            est_error=est,
            terms_used=M,
        )
    return SpecialValue(complex(total + tail), M, est)


def _lerch_on_circle(z: complex, s: float, alpha: float, tol: float) -> SpecialValue:
    one_minus = abs(1.0 - z)
    total = 0.0 + 0.0j
    n = 0
    while True:
        n1 = min(max(n * 2, _BLOCK), TERM_CAP)
        total += _partial_sum(z, s, alpha, n, n1)
        n = n1
        f_m = (n + alpha) ** (-s)
        f_m1 = (n + 1 + alpha) ** (-s)
        rem = (f_m - f_m1) / one_minus**2
        if rem <= tol or n >= TERM_CAP:
            break
    zn = z**n
    tail = zn * f_m / (1.0 - z) + zn * z * (f_m1 - f_m) / (1.0 - z) ** 2
    value = total + tail
    est = max(rem, 1e-15 * abs(value))
    if est > tol:
        raise ConvergenceError(
            f"Lerch on |z|=1 stuck at est_error={est:.3g} > tol={tol} "
            f"(|1-z|={one_minus:.3g}, {n} terms)",
            est_error=est,
            terms_used=n,
        )
    return SpecialValue(complex(value), n, est)


def dilog(x: float, tol: float = 1e-12) -> SpecialValue:
    """Dilogarithm ``sum_{k>=1} x^k / k^2`` for real x in [-1, 1]."""
    x = float(x)
    if abs(x) > 1.0 + 1e-12:
        raise ValueError(f"dilog argument must lie in [-1, 1], got {x}")
    if x == 0.0:
        return SpecialValue(0.0, 0, 0.0)
    inner = lerch_phi(x, 2.0, 1.0, tol=tol)
    return SpecialValue(x * inner.value, inner.terms_used, abs(x) * inner.est_error)
