"""Non-Hermitian SSH chain: Hamiltonian and symmetry operators.

Conventions used throughout the package:

* A lattice of ``N`` unit cells has ``2N`` sites.  Site numbering is
  1-based in every interface: site ``2j-1`` is the A site of cell ``j``
  (gain, ``+i*gamma``), site ``2j`` is the B site (loss, ``-i*gamma``).
* Hopping amplitudes are ``1+delta`` inside a cell and ``1-delta``
  between cells, with ``delta`` in (0, 1).  The hopping scale sets the
  unit of time (J = 1).
* The ring (periodic boundary) reaches its exceptional point at
  ``gamma = gamma_c = 2*delta``; the open chain is obtained by removing
  one weak bond, keeping N strong and N-1 weak bonds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class Boundary(enum.Enum):
    OPEN = "open"
    PERIODIC = "periodic"

    @classmethod
    def parse(cls, text: str) -> "Boundary":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown boundary {text!r}; expected 'open' or 'periodic'") from None


@dataclass(frozen=True)
class LatticeParams:
    """Model definition for one gain/loss SSH lattice."""

    cells: int
    delta: float
    gamma: float
    boundary: Boundary = Boundary.OPEN

    def __post_init__(self):
        if not isinstance(self.cells, int) or self.cells < 2:
            raise ValueError(f"cells must be an integer >= 2, got {self.cells}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not 0.0 <= self.gamma < np.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if self.boundary is Boundary.PERIODIC and self.cells % 2:
            raise ValueError("periodic boundary requires an even number of cells")

    @property
    def gamma_c(self) -> float:
        """Exceptional-point gain of the corresponding ring, 2*delta."""
        return 2.0 * self.delta

    @property
    def n_sites(self) -> int:
        return 2 * self.cells

    def at_gamma(self, gamma: float) -> "LatticeParams":
        """Same lattice with a different gain value."""
        return LatticeParams(self.cells, self.delta, gamma, self.boundary)


def build_hamiltonian(params: LatticeParams) -> np.ndarray:
    """Dense 2N x 2N single-particle Hamiltonian.

    Real symmetric hoppings plus the staggered imaginary potential
    ``+i*gamma`` on A sites and ``-i*gamma`` on B sites.  The matrix is
    complex symmetric (H == H.T) for every parameter choice.
    """
    n = params.n_sites
    H = np.diag(np.resize([1j, -1j], n) * params.gamma)
    bond = np.arange(n - 1)  # bond l joins sites l and l+1, strong inside a cell
    H[bond, bond + 1] = H[bond + 1, bond] = np.resize([1.0 + params.delta, 1.0 - params.delta], n - 1)
    if params.boundary is Boundary.PERIODIC:
        H[n - 1, 0] = H[0, n - 1] = 1.0 - params.delta
    return H


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


def apply_antilinear(kind: str, state: np.ndarray) -> np.ndarray:
    """Apply T, PT or CT to a state vector.

    T is plain complex conjugation; PT and CT compose it with the real
    involutions P and C (the order does not matter).
    """
    state = np.asarray(state, dtype=complex)
    if state.ndim != 1 or state.size % 2:
        raise ValueError("state must be a flat vector of even length")
    if kind == "T":
        return state.conj()
    if kind == "PT":
        return state.conj()[::-1]  # P is the site reversal
    if kind == "CT":
        return state.conj() * np.resize([1.0, -1.0], state.size)
    raise ValueError(f"unknown antilinear kind {kind!r}; expected 'T', 'PT' or 'CT'")


def symmetry_residuals(H: np.ndarray, cells: int) -> dict:
    """Max-entry residuals of the PT commutation and CT anticommutation.

    ``pt_residual = max |P conj(H) P - H|`` and
    ``ct_residual = max |C conj(H) C + H|``; both vanish to machine
    precision for Hamiltonians from :func:`build_hamiltonian`.
    """
    H = np.asarray(H)
    n = 2 * cells
    if H.shape != (n, n):
        raise ValueError(f"H has shape {H.shape}, expected ({n}, {n})")
    sign = np.resize([1.0, -1.0], n)
    pt = np.abs(H.conj()[::-1, ::-1] - H).max()
    ct = np.abs(sign[:, None] * H.conj() * sign + H).max()
    return {"pt_residual": float(pt), "ct_residual": float(ct)}


def chiral_split(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split ``H = T + i*diag(g)`` into real symmetric hopping T and gain g.

    Requires ``|g_i| = gamma`` on every site and ``T_ij (g_i + g_j) = 0``
    (hopping joins gain to loss only), so that ``H^2 = T^2 - gamma^2``.
    """
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"H must be square, got shape {H.shape}")
    T, g = H.real, np.diag(H).imag
    i, j = np.nonzero(T)
    if (
        np.count_nonzero(H.imag) != np.count_nonzero(g)  # imaginary part off the diagonal
        or not np.all(np.abs(g) == np.abs(g[:1]))
        or not np.array_equal(T[i, j], T[j, i])
        or np.any(g[i] + g[j])
    ):
        raise ValueError("H is not real symmetric hopping between sites of opposite gain +/-i*gamma")
    return T, g
