"""Time evolution through the chiral square ``H^2 = T^2 - gamma^2``.

``expm(-iHt) = c(H^2) - i*H*s(H^2)`` with ``c(x) = cos(t*sqrt(x))`` and
``s(x) = sin(t*sqrt(x))/sqrt(x)``, both entire in x and real for real x:
exact where H is defective (the ring at its exceptional point, s -> t),
and cosh, sinh where x < 0.  One eigendecomposition of the real hopping
T (``eigh_tridiagonal`` for an open chain, dense ``eigh`` for a ring)
gives every sample directly, so no error builds up from step to step.
With gain, each pair +/-lam of T is one 2x2 block on the gain and loss
amplitudes, and a block of samples costs two half-size real products.
:func:`expm` is the dense reference for tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .lattice import chiral_split

BLOCK = 128  # samples per eigenbasis product


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by Pade scaling-and-squaring.

    Thin validation wrapper over the scipy implementation (order-13
    diagonal Pade with norm-based squaring), which is reliable for the
    non-normal matrices this package produces.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expm needs a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("expm input contains non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        out = scipy.linalg.expm(A)
    if not np.isfinite(out).all():
        raise OverflowError("matrix exponential overflowed; norm of the generator is pathological")
    return out


@dataclass
class Trajectory:
    """Time-ordered record of one evolution run.

    ``profiles[k]`` holds the site probabilities |psi_l(t_k)|^2 (2N
    entries, 1-based site l maps to column l-1) and ``norms[k]`` the
    Dirac norm P(t_k).  Full states are kept only when requested.
    """

    times: np.ndarray
    profiles: np.ndarray
    norms: np.ndarray
    states: np.ndarray | None = None

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def index_at(self, t: float) -> int:
        """Index of the sample nearest t; t must lie inside the span."""
        if t < self.times[0] - 0.5 * self.dt or t > self.times[-1] + 0.5 * self.dt:
            raise ValueError(f"t={t} outside the recorded span [{self.times[0]}, {self.times[-1]}]")
        return int(np.argmin(np.abs(self.times - t)))

    def profile_at(self, t: float) -> np.ndarray:
        return self.profiles[self.index_at(t)]


def evolve(
    state0: np.ndarray,
    H: np.ndarray,
    dt: float,
    steps: int,
    record_states: bool = False,
) -> Trajectory:
    """Sample ``psi(t) = expm(-iHt) state0`` at t = 0, dt, ..., steps*dt.

    Profiles and Dirac norms always, amplitudes only with ``record_states``.
    Raises OverflowError naming the first sample that leaves float range.
    """
    T, g = chiral_split(H)
    psi0 = np.ascontiguousarray(state0, dtype=complex)
    if psi0.shape != (T.shape[0],):
        raise ValueError(f"state length {psi0.shape} does not match H dimension {T.shape[0]}")
    if steps < 1 or not 0.0 < dt < np.inf:
        raise ValueError(f"need steps >= 1 and a finite dt > 0, got steps={steps}, dt={dt}")

    gamma = float(np.abs(g).max())
    if max(scipy.linalg.bandwidth(T)) <= 1:  # every open chain; no site order makes a ring tridiagonal
        lam, W = scipy.linalg.eigh_tridiagonal(np.diag(T).copy(), np.diag(T, 1).copy())
    else:
        lam, W = scipy.linalg.eigh(T)
    if gamma:
        # C = g/gamma anticommutes with T: w(lam) = (u, v) on gain and loss sites pairs with (u, -v)
        # for -lam, H acts on (u, 0), (0, v) as [[i*gamma, lam], [lam, -i*gamma]]: keep lam > 0 alone
        if np.abs(lam).min() <= lam.size * np.finfo(float).eps * np.abs(lam).max():
            raise ValueError("T is singular: with gain, its zero modes have no -lam partner")
        half = lam.size // 2
        lam = 0.5 * (lam[half:] - lam[half - 1 :: -1])  # |lam| averaged over each pair
        sites = (g > 0, g < 0)
        bases = [np.sqrt(2.0) * W[rows, half:] for rows in sites]  # orthonormal columns
    else:  # gain-free T need not be bipartite: one block over all sites, its own partner
        sites, bases = (slice(None),), [np.ascontiguousarray(W)]
    del W  # the bases hold all that is needed of it
    amps = [_product(B.T, psi0[rows, None]) for rows, B in zip(sites, bases)]
    k, grow = np.sqrt(np.abs((lam - gamma) * (lam + gamma)))[:, None], np.abs(lam) < gamma
    times = np.arange(steps + 1) * dt
    profiles = np.empty((times.size, psi0.size))
    states = np.empty((times.size, psi0.size), dtype=complex) if record_states else None
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, times.size, BLOCK):
            t = times[start : start + BLOCK]
            c, s = np.cos(k * t), t * np.sinc(k * t / np.pi)
            c[grow], s[grow] = np.cosh(k[grow] * t), np.sinh(k[grow] * t) / k[grow]
            psi = np.empty((psi0.size, t.size), dtype=complex)
            for rows, basis, own, other, sign in zip(sites, bases, amps, amps[::-1], (1.0, -1.0)):
                coef = (c + sign * gamma * s) * own - 1j * lam[:, None] * s * other
                psi[rows] = _product(basis, coef)
            profiles[start : start + t.size] = (np.abs(psi) ** 2).T
            if states is not None:
                states[start : start + t.size] = psi.T
        norms = profiles.sum(axis=1)
    bad = ~np.isfinite(norms)
    if bad.any():
        raise OverflowError(f"state left float range at t = {times[np.argmax(bad)]:.6g}")
    return Trajectory(times=times, profiles=profiles, norms=norms, states=states)


def _product(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    # basis @ x (real by complex) as one real GEMM in scipy's BLAS: numpy may bundle a BLAS of its
    # own, whose threads would then compete for the cores with those the eigensolver just woke
    return scipy.linalg.blas.dgemm(1.0, x.view(float).T, basis.T).T.view(complex)
