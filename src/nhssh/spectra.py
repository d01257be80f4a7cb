"""Exact diagonalization and the analytic level structure.

The open chain tuned to ``gamma = gamma_c`` carries equally spaced
levels ``E_n = +/- n*omega`` near zero energy, with
``omega = sqrt(2*delta*(1-delta))*pi/(N+1)``.  This module computes the
full complex spectrum from the real hopping alone and checks it against
that analytic structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import Chain, LatticeParams, chiral_split


def full_spectrum(H: Chain | np.ndarray) -> np.ndarray:
    """All eigenvalues of ``H = T + i*diag(g)``, in closed form.

    ``H`` is a :class:`~nhssh.lattice.Chain` or a dense Hamiltonian, which
    :func:`~nhssh.lattice.chiral_split` reads as one.  ``H^2 = T^2 - gamma^2``
    maps each mode of the chain (:meth:`~nhssh.lattice.Chain.mode_tables`) to
    ``+/-sqrt(x)``, exact also at the exceptional point.  Sorted by |Re|,
    then Re, then Im.
    """
    chain = H if isinstance(H, Chain) else chiral_split(H)
    root = np.sqrt(chain.x(chain.mode_tables(vectors=False)[0]) + 0j)
    ev = np.concatenate([-root, root])
    order = np.lexsort((ev.imag, ev.real, np.abs(ev.real)))
    return ev[order]


def esm_spacing(params: LatticeParams) -> float:
    """Analytic near-zero level spacing omega at the tuned gain."""
    return np.sqrt(2.0 * params.delta * (1.0 - params.delta)) * np.pi / (params.cells + 1)


def revival_period(params: LatticeParams) -> float:
    """tau = 2*pi/omega, the full revival period of low-lying packets."""
    return 2.0 * np.pi / esm_spacing(params)


def analytic_dispersion(n, params: LatticeParams):
    """Analytic level ``eps_k`` and mixing angle ``phi_k`` for mode n, at the tuned gain.

    ``k = n*pi/(N+1)`` and ``eps_k^2 = band^2 - gamma_c^2`` with
    ``band = (1+delta) - (1-delta)cos k`` and ``gamma_c = 2*delta``, formed
    as ``(band - gamma_c)(band + gamma_c)`` with ``band - gamma_c =
    2(1-delta) sin^2(k/2)``: no difference of squares, so the lowest levels
    keep their relative precision as delta -> 1.  ``phi_k`` solves
    ``tan(phi_k) = gamma_c/eps_k`` on the principal branch (0, pi/2].

    Returns
    -------
    (eps, phi) : floats for a scalar n, arrays for an array of levels
    """
    N = params.cells
    levels = np.asarray(n)
    outside = ~((levels >= 1) & (levels <= N))
    if outside.any():
        raise ValueError(f"level index n must lie in 1..{N}, got {levels[outside].flat[0]}")
    g = params.gamma_c
    k = levels * np.pi / (N + 1)
    low = 2.0 * (1.0 - params.delta) * np.sin(0.5 * k) ** 2  # band - gamma_c = (1-delta)(1 - cos k)
    eps = np.sqrt(low * (low + 2.0 * g))
    phi = np.arctan2(g, eps)
    return (float(eps), float(phi)) if levels.ndim == 0 else (eps, phi)


@dataclass
class SpectrumReport:
    """Near-zero level pairing against the equal-spacing prediction, empty where the levels do not pair."""

    spacing_deviations: list = field(default_factory=list)
    levels: list = field(default_factory=list)


def verify_equal_spacing(eigenvalues: np.ndarray, n_max: int, params: LatticeParams) -> SpectrumReport:
    """Pair the 2*n_max eigenvalues nearest zero into +/-E_n and grade them.

    ``spacing_deviations[n-1] = |E_n - n*omega| / (n*omega)`` where E_n is
    the pair-averaged magnitude.  Levels count as near-real when
    ``|Im E|`` is below ``1e-6`` times the spectral radius; unless n_max
    near-real levels lie on each side of zero, the report comes back empty
    instead of raising.
    """
    ev = np.asarray(eigenvalues, dtype=complex)
    omega = esm_spacing(params)
    im_tol = 1e-6 * (np.abs(ev).max() if ev.size else 1.0)
    nearest = ev[np.argsort(np.abs(ev))][: 2 * n_max]
    real_enough = nearest[np.abs(nearest.imag) < im_tol].real
    pos = np.sort(real_enough[real_enough > 0])
    neg = np.sort(-real_enough[real_enough < 0])
    if len(pos) != n_max or len(neg) != n_max:
        return SpectrumReport()
    levels = 0.5 * (pos + neg)
    deviations = [float(abs(levels[n - 1] - n * omega) / (n * omega)) for n in range(1, n_max + 1)]
    return SpectrumReport(deviations, [float(e) for e in levels])
