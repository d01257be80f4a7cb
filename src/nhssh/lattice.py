"""Non-Hermitian SSH chain: its hopping block, Hamiltonian and symmetry operators.

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
import scipy.linalg


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


@dataclass(frozen=True)
class Chain:
    """A gain/loss chain by its N x N gain-to-loss hopping block B and its gain.

    Site 2j (0-based) is gain site j, at ``+i*gamma``; site 2j+1 is loss
    site j, at ``-i*gamma``.  The hopping T joins gain sites to loss sites
    only, through ``B[j, j] = inner[j]`` and ``B[j+1 mod N, j] = outer[j]``;
    ``outer[-1]`` closes a ring and is 0 on an open chain.  So T's positive
    spectrum is B's singular spectrum, and ``H^2 = T^2 - gamma^2``.
    """

    inner: np.ndarray
    outer: np.ndarray
    gamma: float

    def gram(self) -> tuple[np.ndarray, np.ndarray | None]:
        """B B^T, the gain-site block of T^2, as a lower band, and the order of gain sites it takes.

        The band's row k holds the k-th subdiagonal.  An open chain's block
        is tridiagonal in site order (None).  A ring's also joins gain sites
        N-1 and 0, so its gain sites go in the order 0, N-1, 1, N-2, ...,
        which puts every entry within two places of the diagonal.
        """
        n = self.inner.size
        d = self.inner**2 + np.roll(self.outer, 1) ** 2
        e = self.inner * self.outer  # joins gain sites j and j+1 mod N; 0 at N-1 on an open chain
        if not self.outer[-1]:
            return np.array([d, e]), None
        fold = np.c_[np.arange(n), np.arange(n)[::-1]].ravel()[:n]
        band = np.zeros((3, n))
        band[0] = d[fold]
        for k in (1, 2):
            i, j = fold[k:], fold[: n - k]
            band[k, : n - k] = np.where(i == (j + 1) % n, e[j], 0.0) + np.where(j == (i + 1) % n, e[i], 0.0)
        return band, fold

    def gram_eigh(self, eigvals_only: bool = False):
        """Eigenvalues of B B^T, ascending, and unless ``eigvals_only`` its eigenvectors U.

        U is row-major with its rows in site order (gain site j is row j):
        :func:`~nhssh.propagate.decompose` passes BLAS its transpose, which
        it then takes without a copy.  The open chain's block goes to
        ``sterf`` or ``eigh_tridiagonal``, the ring's to ``eigvals_banded``
        or ``eig_banded``; a solver that does not converge raises
        ``LinAlgError``.
        """
        band, order = self.gram()
        if order is None:
            if eigvals_only:
                return scipy.linalg.eigvalsh_tridiagonal(band[0], band[1, :-1], lapack_driver="sterf")
            lam2, U = scipy.linalg.eigh_tridiagonal(band[0], band[1, :-1])
            return lam2, np.ascontiguousarray(U)
        if eigvals_only:
            return scipy.linalg.eigvals_banded(band, lower=True)
        lam2, folded = scipy.linalg.eig_banded(band, lower=True)
        U = np.empty(folded.shape)
        U[order] = folded
        return lam2, U

    def loss_amplitudes(self, u: np.ndarray) -> np.ndarray:
        """B^T u: what T carries from gain amplitudes u (one column each) to the loss sites."""
        v = self.inner[:, None] * u
        v[:-1] += self.outer[:-1, None] * u[1:]
        v[-1] += self.outer[-1] * u[0]
        return v


def build_chain(params: LatticeParams) -> Chain:
    """The lattice as a :class:`Chain`: O(N) numbers, the same model as :func:`build_hamiltonian`."""
    outer = np.full(params.cells, 1.0 - params.delta)
    if params.boundary is Boundary.OPEN:
        outer[-1] = 0.0
    return Chain(np.full(params.cells, 1.0 + params.delta), outer, float(params.gamma))


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


def chiral_split(H: np.ndarray) -> Chain:
    """Read a dense ``H = T + i*diag(g)`` as a :class:`Chain`.

    g must alternate ``+gamma, -gamma`` from the first site (``gamma < 0``
    puts the loss first; ``gamma = 0`` is a gain-free chain), the number of
    sites must be even and T must hold only the chain's bonds.
    """
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1] or not H.size:
        raise ValueError(f"H must be square and not empty, got shape {H.shape}")
    T, g = H.real, np.diag(H).imag
    if np.count_nonzero(H.imag) != np.count_nonzero(g) or not np.array_equal(T, T.T):
        raise ValueError("H is not real symmetric hopping plus an imaginary potential")
    n = len(g)
    if not np.array_equal(g, g[0] * np.resize([1.0, -1.0], n)):
        raise ValueError("H's gain does not alternate +/-i*gamma from site to site")
    if n % 2:
        raise ValueError("T is singular: the zero mode of an odd chain has no -lam partner")
    bonds = np.diagonal(T, 1)
    inner, outer = bonds[::2].copy(), np.append(bonds[1::2], T[0, -1] if n > 2 else 0.0)
    if np.count_nonzero(T) != 2 * (np.count_nonzero(inner) + np.count_nonzero(outer)):
        raise ValueError("H's hopping is not a chain: gain site j must join loss sites j and j-1 alone")
    return Chain(inner, outer, float(g[0]))
