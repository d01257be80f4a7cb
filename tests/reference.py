"""Explicit forms that only the tests use: P and C as dense matrices, the q = 0 norm, expm's Taylor series and
three mode solvers.

``triangle_wave_norm`` is the explicit q = 0 reduction that
``dirac_norm_closed_form`` is checked against, and ``taylor_expm`` the
40-term series that ``expm`` is graded against.  ``open_roots_64`` is the
direct form that ``Chain.mode_tables`` must reproduce bit for bit: a full
64-step bisection of the open chain's roots.  ``open_root_mpmath`` finds
one open-chain root at mpmath's working precision, for the 40-digit
references.  ``stacked_profiles`` stacks a trajectory's profile blocks
into the (samples, 2N) array that no experiment forms, and
``profiles_by_sublattice`` forms the same array as the block kernel's
predecessor did, two products per block with the sign on the rows.
``loss_amplitudes`` is B^T u by the chain's bonds, and
``two_basis_modes`` stores the loss-site vectors B^T U / lam of a chain
as a dense product: the modes only apply them as U's parity image.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import mpmath
import numpy as np

from nhssh import LatticeParams, PacketSpec, revival_period
from nhssh.propagate import BLOCK, Modes, decompose


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
    """The explicit q = 0 norm at kappa0 = pi/2: a triangle wave of slope ``2 lam^2 pi^2/tau`` and period tau/2."""
    spec = replace(spec, q=0.0).normalized(params.cells)
    tau = revival_period(params)
    phase = np.mod(t, tau / 2.0)
    out = (2.0 * spec.lam**2 * np.pi**2 / tau) * np.minimum(phase, tau / 2.0 - phase)
    return float(out) if np.ndim(t) == 0 else out


def taylor_expm(A: np.ndarray, order: int = 40) -> np.ndarray:
    """Independent oracle: plain truncated Taylor series (small norms only)."""
    out = np.eye(A.shape[0], dtype=complex)
    term = np.eye(A.shape[0], dtype=complex)
    for k in range(1, order + 1):
        term = term @ A / k
        out = out + term
    return out


def open_roots_64(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The open chain's roots as ``q + r``, with the bisection run for all of 64 steps before rounding q."""
    j = np.arange(1, n + 1)
    lo, hi = (j - 1) * np.pi / n, j * np.pi / (n + 1)
    sign = np.where(j % 2, 1.0, -1.0)  # f's sign at lo
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        left = sign * (a * np.sin((n + 1) * mid) - b * np.sin(n * mid)) > 0.0
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    bits = 50 - (n + 1).bit_length()  # q < 4, so (N+1) * q * 2^bits < 2^52
    q = np.ldexp(np.round(np.ldexp(0.5 * (lo + hi), bits)), -bits)
    f = a * np.sin((n + 1) * q) - b * np.sin(n * q)
    slope = a * (n + 1) * np.cos((n + 1) * q) - b * n * np.cos(n * q)
    return q, -f / slope


def open_root_mpmath(a, b, n: int, j: int):
    """Root j (from 1) in (0, pi) of ``a sin((N+1)q) - b sin(Nq)``, by findroot inside [(j-1)pi/N, j pi/(N+1)]."""
    tiny = mpmath.mpf(10) ** -35  # keeps the first bracket off the spurious root q = 0
    return mpmath.findroot(lambda q: a * mpmath.sin((n + 1) * q) - b * mpmath.sin(n * q),
                           ((j - 1) * mpmath.pi / n + tiny, j * mpmath.pi / (n + 1)), solver="anderson")


def stacked_profiles(traj) -> np.ndarray:
    """Every profile of a trajectory as one (samples, 2N) array, copied out of its reused block buffer."""
    return np.concatenate([block.copy() for _, block in traj.profile_blocks()])


def profiles_by_sublattice(traj) -> np.ndarray:
    """Every profile of a trajectory, formed one block and one sublattice at a time with the sign on the rows.

    Each block's coefficient rows ``c(tau)*alpha + s(tau)*beta`` for one
    sublattice and every component, the loss rows times each mode's parity
    sign, go through their own product by U.T, and the squares, summed over
    the components, fill that sublattice's columns (the loss sites reversed).
    The trajectory's loss amplitudes are on U upside down, which carries the
    sign; it is taken off them first, so that it enters on the rows.
    """
    modes, U = traj._modes, traj._modes.tables.basis()
    amplitudes = [u.copy() for u in traj._amplitudes]  # (basis, component, mode)
    for u in amplitudes:
        u[1] *= modes._parity
    out = np.empty((traj.times.size, modes.n_sites))
    for start in range(0, traj.times.size, BLOCK):
        rows = min(BLOCK, traj.times.size - start)
        c1, s1 = (table[:rows] for table in traj._offsets)
        alpha, beta = traj._block_starts(start // BLOCK, *amplitudes)
        for columns, sign, al, be in zip((slice(0, None, 2), slice(None, None, -2)), (1.0, modes._parity), alpha, beta):
            coef = (c1 * al[:, None] + s1 * be[:, None]).reshape(-1, c1.shape[1])
            parts = ((coef * sign) @ U.T).reshape(len(al), rows, -1)  # (component, sample, site)
            out[start : start + rows, columns] = (parts * parts).sum(axis=0)
    return out


def loss_amplitudes(chain, u: np.ndarray) -> np.ndarray:
    """B^T u: what T carries from gain amplitudes u (one column each) to the loss sites."""
    v = chain.strong * u
    v[:-1] += chain.weak * u[1:]
    if chain.ring:
        v[-1] += chain.weak * u[0]
    return v


@dataclass(frozen=True)
class TwoBasisModes(Modes):
    """Modes that store the loss-site vectors V and apply V itself to the loss sites, not U's parity image.

    Their profile blocks and states go through V, beside the pass's U on the gain rows; :meth:`Modes.profiles`,
    which keeps the loss amplitudes on U upside down, does not apply to their amplitudes.
    """

    V: np.ndarray

    def amplitudes(self, state0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        psi0 = np.asarray(state0, dtype=complex)
        gain, loss = psi0[0::2] @ self.tables.basis(), psi0[1::2] @ self.V
        # -iH on a mode's gain and loss amplitudes: [[gamma, -i*lam], [-i*lam, -gamma]]
        g, lam = self.chain.gamma, self.lam
        return np.stack((gain, loss)), np.stack((g * gain - 1j * lam * loss, -1j * lam * gain - g * loss))

    def _sites(self, U: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        # the gain rows are on the pass's U, the loss rows on V: its rows reversed, as the caller writes the loss sites
        half = len(rows) // 2
        np.matmul(rows[:half], U.T, out=out[:half])
        np.matmul(rows[half:], self.V[::-1].T, out=out[half:])
        return out


def two_basis_modes(chain) -> TwoBasisModes:
    """The chain's modes with V = B^T U / lam stored, from B as a dense N x N matrix."""
    modes = decompose(chain)
    n = chain.cells
    B = np.diag(np.full(n, chain.strong)) + np.diag(np.full(n - 1, chain.weak), -1)
    if chain.ring:
        B[0, -1] = chain.weak
    return TwoBasisModes(modes.chain, modes.w, modes.lam, modes.tables, B.T @ modes.tables.basis() / modes.lam)
