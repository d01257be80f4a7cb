"""Explicit forms that only the tests use: P and C as dense matrices, and the q = 0 norm.

``triangle_wave_norm`` is the explicit q = 0 reduction that
``dirac_norm_closed_form`` is checked against.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from nhssh import LatticeParams, PacketSpec, revival_period
from nhssh.oracle import _central


def symmetry_operator(kind: str, cells: int) -> np.ndarray:
    """Parity P or sublattice-sign C as a dense 2N x 2N matrix.

    P exchanges the A site of cell j with the B site of cell N+1-j, which
    is the site reversal; C is diagonal with +1 on A sites and -1 on B
    sites.  Both square to the identity.
    """
    if cells < 1:
        raise ValueError("cells must be >= 1")
    n = 2 * cells
    if kind == "C":
        return np.diag(np.resize([1.0, -1.0], n))
    if kind == "P":
        return np.eye(n)[::-1]
    raise ValueError(f"unknown symmetry operator kind {kind!r}; expected 'P' or 'C'")


def triangle_wave_norm(t, spec: PacketSpec, params: LatticeParams):
    """The explicit q = 0 norm: a triangle wave of slope ``2 lam^2 pi^2/tau`` and period tau/2."""
    spec = _central(replace(spec, q=0.0), params)
    tau = revival_period(params)
    phase = np.mod(t, tau / 2.0)
    out = (2.0 * spec.lam**2 * np.pi**2 / tau) * np.minimum(phase, tau / 2.0 - phase)
    return float(out) if np.ndim(t) == 0 else out
