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
import math
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
        if float(self.gamma) * float(self.gamma) == math.inf:  # every solver reads H^2 = T^2 - gamma^2
            raise ValueError(f"gamma^2 must be finite, got gamma={self.gamma}")
        if self.boundary is Boundary.PERIODIC and self.cells % 2:
            raise ValueError("periodic boundary requires an even number of cells")

    @property
    def gamma_c(self) -> float:
        """Exceptional-point gain of the corresponding ring, 2*delta."""
        return 2.0 * self.delta


@dataclass(frozen=True)
class Chain:
    """A gain/loss chain of N cells with one strong bond a and one weak bond b <= a, and its gain.

    Site 2j (0-based) is gain site j, at ``+i*gamma``; site 2j+1 is loss
    site j, at ``-i*gamma``.  The hopping T joins gain sites to loss sites
    only, through its N x N block B: ``B[j, j] = a`` and ``B[j+1, j] = b``,
    with ``B[0, N-1] = b`` closing a ring.  So T's positive spectrum is B's
    singular spectrum, ``sigma^2 = 4ab*w + (a - b)^2`` with each mode's
    weight w in [0, 1], and ``H^2 = T^2 - gamma^2``.
    """

    cells: int
    strong: float
    weak: float
    gamma: float
    ring: bool

    def x(self, w: np.ndarray) -> np.ndarray:
        """``sigma^2 - gamma^2 = 4ab*w + (a - b - gamma)(a - b + gamma)``, with no difference of squares."""
        a, b, g = self.strong, self.weak, abs(self.gamma)
        d = a - b
        low = (d - g) + ((a - d) - b)  # (a - d) - b is exactly what d rounded off, as a >= b
        return 4.0 * a * b * w + low * (d + g)

    def modes(self, vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
        """Every mode's weight w, ascending, and unless not ``vectors`` U: orthonormal columns, a row per gain site.

        Parity, gain site j to loss site N-1-j, takes column m (from 0) to
        ``(-1)^(N+m+1)`` times itself: the loss vectors B^T U / lam are U upside down.
        Open chain: ``u_j = sin(k(N - j))`` and ``w = sin^2(q/2)``, where
        ``k = pi - q`` solves ``a sin((N+1)k) + b sin(Nk) = 0``.  Ring: B is
        circulant, with ``w = cos^2(theta/2)`` at ``theta = 2 pi m/N`` (a pair for
        every m but 0 and N/2): ``u_j = cos(theta j + phi)``, ``phi = (theta - arg(a + b e^(i theta)))/2``
        less pi/2 for parity's -1.  On both boundaries a column is one sinusoid in j: with j = J + t, J a row
        block's first row and t < L = isqrt(N), angle addition forms U from a table row per J and one per t,
        so about 4N^1.5 sines and cosines and one product.
        """
        n = self.cells
        size = math.isqrt(n)  # rows j = J + t, with J = 0, L, 2L, ... and 0 <= t < L
        starts, offsets = np.arange(0, n, size), np.arange(size)
        if self.ring:
            top = np.arange(n // 2, -1, -1)
            members = np.where((top == 0) | (2 * top == n), 1, 2)
            m = np.repeat(top, members)
            w = np.sin(np.pi * (n - 2 * m) / (2 * n)) ** 2  # from the exact N - 2m: 0 at m = N/2
            if not vectors:
                return w, None
            theta = m * (2 * np.pi / n)
            beta = np.arctan2(self.weak * np.sin(theta), self.strong + self.weak * np.cos(theta))
            phi = 0.5 * (theta - beta) - 0.5 * np.pi * ((n + np.arange(n)) % 2 == 0)  # where the sign is -1
            # cos(theta(J + t) + phi) = cos(theta J + phi)cos(-theta t) + sin(theta J + phi)sin(-theta t)
            first, step = _cos_sin(starts, m, n, phi), _cos_sin(-offsets, m, n)
            first *= np.sqrt(np.repeat(members, members) / n)  # sum_j cos^2(theta j + phi): N/2 in a pair, N alone
        else:
            q, r = _open_roots(self.strong, self.weak, n)
            w = np.sin(0.5 * (q + r)) ** 2
            if not vectors:
                return w, None
            # N - j = M - t, with M = N - J: sin(k(M - t)) = sin(kM)cos(-kt) + cos(kM)sin(-kt)
            first, step = _sin_cos((n - starts)[:, None], q, r), _sin_cos(-offsets[:, None], q, r)[:, ::-1]
        U = np.einsum("bkn,tkn->btn", first, step).reshape(-1, n)[:n]  # the last block runs past row N - 1
        if not self.ring:
            U /= np.sqrt(np.einsum("ij,ij->j", U, U))  # np.linalg.norm's sums, without its N x N of squares
        return w, U


def _open_roots(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The N roots in (0, pi) of ``f(q) = a sin((N+1)q) - b sin(Nq)``, ascending, each as a sum q + r.

    For a >= b >= 0, f has the sign (-1)^j at j*pi/N and j*pi/(N+1), and is
    positive just above its spurious root 0: root j lies between them.
    Bisecting in q keeps the lowest roots to their own relative precision.
    q keeps the bits whose products with 0, ..., N+1 are exact, so bisection
    stops once every bracket is below a quarter of q's last bit (38 passes
    at N = 250, 34 at N = 1000, set by the widest bracket, [0, pi/(N+1)]),
    and one Newton step gives the rest, r, to well below that bit: q + r is
    a 64-step bisection's root, bit for bit, on the tested grid.
    """
    j = np.arange(1, n + 1)
    lo, hi = (j - 1) * np.pi / n, j * np.pi / (n + 1)
    sign = np.where(j % 2, 1.0, -1.0)  # f's sign at lo
    bits = 50 - (n + 1).bit_length()  # q < 4, so (N+1) * q * 2^bits < 2^52
    while (hi - lo).max() >= np.ldexp(1.0, -bits - 2):
        mid = 0.5 * (lo + hi)
        left = sign * (a * np.sin((n + 1) * mid) - b * np.sin(n * mid)) > 0.0
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    q = np.ldexp(np.round(np.ldexp(0.5 * (lo + hi), bits)), -bits)
    f = a * np.sin((n + 1) * q) - b * np.sin(n * q)
    slope = a * (n + 1) * np.cos((n + 1) * q) - b * n * np.cos(n * q)
    return q, -f / slope


def _sin_cos(m: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sin(km) and cos(km) at ``k = pi - (q + r)``, a row per integer m, stacked on axis 1.

    They are ``(-1)^m`` times ``-sin(m(q + r))`` and ``cos(m(q + r))``,
    each from the exact m*q and to first order in the small m*r.
    """
    s, c = np.sin(m * q), np.cos(m * q)
    mr = m * r
    return np.stack((-(s + mr * c), c - mr * s), axis=1) * (1.0 - 2.0 * (m % 2))[:, None]


def _cos_sin(i: np.ndarray, m: np.ndarray, n: int, phi: np.ndarray | float = 0.0) -> np.ndarray:
    """cos and sin of ``theta*i + phi`` at ``theta = 2 pi m/N``, a row per integer i, stacked on axis 1."""
    im = (np.outer(i, m) + n // 2) % n - n // 2  # i*m mod N, exact, in [-N/2, N/2): the smaller, the less it rounds
    x = im * (2 * np.pi / n) + phi
    return np.stack((np.cos(x), np.sin(x)), axis=1)


def build_chain(params: LatticeParams) -> Chain:
    """The lattice as a :class:`Chain`: the same model as :func:`build_hamiltonian`, in five numbers."""
    ring = params.boundary is Boundary.PERIODIC
    return Chain(params.cells, 1.0 + params.delta, 1.0 - params.delta, float(params.gamma), ring)


def build_hamiltonian(params: LatticeParams) -> np.ndarray:
    """Dense 2N x 2N single-particle Hamiltonian.

    Real symmetric hoppings plus the staggered imaginary potential
    ``+i*gamma`` on A sites and ``-i*gamma`` on B sites.  The matrix is
    complex symmetric (H == H.T) for every parameter choice.
    """
    n = 2 * params.cells
    H = np.diag(np.resize([1j, -1j], n) * params.gamma)
    bond = np.arange(n - 1)  # bond l joins sites l and l+1, strong inside a cell
    H[bond, bond + 1] = H[bond + 1, bond] = np.resize([1.0 + params.delta, 1.0 - params.delta], n - 1)
    if params.boundary is Boundary.PERIODIC:
        H[n - 1, 0] = H[0, n - 1] = 1.0 - params.delta
    return H


def apply_antilinear(kind: str, state: np.ndarray) -> np.ndarray:
    """Apply T, PT or CT to a state vector.

    T is plain complex conjugation; PT and CT compose it with the real
    involutions P, the site reversal, and C, the sublattice sign (the
    order does not matter).
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
    sites must be even and T must hold only the chain's bonds: one value a
    inside every cell and one value b, with ``a >= b >= 0``, between them.
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
    closing = T[0, -1] if n > 2 else 0.0
    if np.count_nonzero(T) != 2 * (np.count_nonzero(bonds) + np.count_nonzero(closing)):
        raise ValueError("H's hopping is not a chain: gain site j must join loss sites j and j-1 alone")
    a, b = bonds[0], bonds[1] if n > 2 else 0.0
    if np.any(bonds[::2] != a) or np.any(bonds[1::2] != b) or closing not in (0.0, b):
        raise ValueError("H's bonds are uneven: the chain takes one value inside its cells and one between them")
    if not (a > 0.0 and a >= b >= 0.0):
        raise ValueError(f"H's bonds need a > 0 and a >= b >= 0 (a inside a cell), got a = {a:g}, b = {b:g}")
    return Chain(n // 2, float(a), float(b), float(g[0]), bool(closing))
