"""Time evolution through the chiral square ``H^2 = T^2 - gamma^2``.

``expm(-iHt) = c(H^2) - i*H*s(H^2)`` with ``c(x) = cos(t*sqrt(x))`` and
``s(x) = sin(t*sqrt(x))/sqrt(x)``, both entire in x and real for real x:
exact where H is defective (the ring at its exceptional point, s -> t),
and cosh, sinh where x < 0.  One eigendecomposition, :func:`decompose`,
serves every state and every gain on one chain and gives every sample
directly, so no error builds up from step to step.  It is that of the
N x N gain-site block ``B B^T`` of T^2 of a :class:`~nhssh.lattice.Chain`
(:meth:`~nhssh.lattice.Chain.gram_eigh`): each singular value lam of B is
one pair +/-lam of T, one 2x2 block on the gain and loss amplitudes.

A :class:`Trajectory` lives in that mode basis.  Its Dirac norms follow
from the mode amplitudes alone by Parseval's identity (the bases have
orthonormal columns): each mode adds a quadratic form in (c, s), summed
as two squares, so no 2N-wide state is formed.  Profiles and states are
formed from the amplitudes and the bases only when read, a block of
samples at a time in two half-size real products.  :func:`expm` is the
dense reference for tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .lattice import Chain, chiral_split

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


@dataclass(frozen=True)
class Modes:
    """Eigenpairs of the real hopping T of one :class:`~nhssh.lattice.Chain`, at gain ``gamma``.

    ``lam`` holds the singular values of the chain's block B, ascending (the
    positive half of T's spectrum), and ``bases`` the gain-site vectors U
    (eigenvectors of B B^T) and the loss-site vectors B^T U / lam, each
    with orthonormal columns, one row per gain (even) or loss (odd) site.
    Neither depends on gamma, so :meth:`at_gamma` retunes the chain to any
    other gain, 0 included, at no cost.
    """

    lam: np.ndarray
    bases: tuple
    gamma: float

    @property
    def n_sites(self) -> int:
        return 2 * self.lam.size

    @property
    def x(self) -> np.ndarray:
        """Eigenvalues of H^2, one per mode."""
        return (self.lam - self.gamma) * (self.lam + self.gamma)

    def at_gamma(self, gamma: float) -> Modes:
        """The same chain at another gain: only each mode's growth rate changes."""
        return replace(self, gamma=float(gamma))

    def amplitudes(self, state0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mode amplitudes (a, b) of state0 and of -iH state0, a row each for the gain and loss sites.

        The state at time t has the amplitudes ``c*a + s*b``.
        """
        psi0 = np.ascontiguousarray(state0, dtype=complex)
        if psi0.shape != (self.n_sites,):
            raise ValueError(f"state length {psi0.shape} does not match H dimension {self.n_sites}")
        if not np.isfinite(psi0).all():
            raise ValueError("state0 has non-finite entries")
        a = np.array([_product(basis.T, psi0[k::2, None])[:, 0] for k, basis in enumerate(self.bases)])
        # H acts on a mode's gain and loss amplitudes as [[i*gamma, lam], [lam, -i*gamma]]
        sign = np.array([[1.0], [-1.0]])
        return a, sign * self.gamma * a - 1j * self.lam * a[::-1]

    def cs(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """c and s of every mode (rows) at the times t (columns)."""
        x = self.x
        k = np.sqrt(np.abs(x))[:, None]
        grow = np.count_nonzero(x < 0)  # a leading run, as lam ascends
        kt = k * t
        c, s = np.cos(kt), np.sin(kt)
        with np.errstate(over="ignore"):
            c[:grow], s[:grow] = np.cosh(kt[:grow]), np.sinh(kt[:grow])
        s /= np.where(k > 0, k, 1.0)
        s[k[:, 0] == 0] = t  # lam == gamma: the exceptional point, where s = t
        return c, s


class _Run:
    """One state's evolution in the mode basis, sampled at t = n*dt.

    At t = t0 + tau, with t0 the first sample of a block and tau an
    offset inside it, c and s follow by angle addition,
    ``c(t0+tau) = c(t0)c(tau) - x s(t0)s(tau)`` and
    ``s(t0+tau) = s(t0)c(tau) + c(t0)s(tau)`` with x the mode's
    eigenvalue of H^2.  So cos and sin run on one table of offsets and on
    one sample per block, not on every sample.
    """

    def __init__(self, modes: Modes, amplitudes: tuple[np.ndarray, np.ndarray], dt: float, samples: int):
        self.modes, self.amplitudes, self.dt = modes, amplitudes, dt
        self.offsets = modes.cs(np.arange(min(BLOCK, samples)) * dt)

    def cs(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """c and s at samples start, ..., stop - 1, all in one block."""
        j = start % BLOCK
        c0, s0 = self.modes.cs(np.array([(start - j) * self.dt]))
        c1, s1 = (table[:, j : j + stop - start] for table in self.offsets)
        with np.errstate(over="ignore", invalid="ignore"):
            return c0 * c1 - self.modes.x[:, None] * s0 * s1, s0 * c1 + c0 * s1

    def norms(self, samples: int) -> np.ndarray:
        """Dirac norms sum |c*a + s*b|^2 over the modes, with no 2N-wide state.

        Each mode's quadratic form in (c, s) is summed as the two squares
        of its Cholesky factor: neither exceeds the norm, so the sum leaves
        float range exactly where the state does.
        """
        a, b = self.amplitudes
        aa, ab, bb = ((u.conj() * v).real.sum(axis=0)[:, None] for u, v in ((a, a), (a, b), (b, b)))
        l11 = np.sqrt(aa)
        l21 = np.divide(ab, l11, out=np.zeros_like(ab), where=l11 > 0)
        l22 = np.sqrt(np.maximum(bb - l21 * l21, 0.0))
        norms = np.empty(samples)
        for start in range(0, samples, BLOCK):
            c, s = self.cs(start, min(start + BLOCK, samples))
            with np.errstate(over="ignore", invalid="ignore"):
                u, v = c * l11 + s * l21, s * l22
                norms[start : start + c.shape[1]] = (u * u + v * v).sum(axis=0)
        return norms

    def states(self, start: int, stop: int) -> np.ndarray:
        """The states at samples start, ..., stop - 1 (in one block), one per row."""
        c, s = self.cs(start, stop)
        a, b = self.amplitudes
        psi = np.empty((self.modes.n_sites, stop - start), dtype=complex)
        for k, basis in enumerate(self.modes.bases):  # gain sites are the even rows, loss sites the odd
            psi[k::2] = _product(basis, c * a[k, :, None] + s * b[k, :, None])
        return psi.T


class Trajectory:
    """Time-ordered record of one evolution run.

    ``norms[k]`` is the Dirac norm P(t_k), ``profiles[k]`` holds the site
    probabilities |psi_l(t_k)|^2 (2N entries, 1-based site l maps to
    column l-1) and ``states[k]`` the amplitudes, which are kept only when
    requested (else None).  A trajectory from :func:`evolve` keeps the
    mode amplitudes and forms profiles (all of them once, on first
    access; one with :meth:`profile_at`) and states only when read.
    """

    def __init__(self, times: np.ndarray, profiles: np.ndarray | None, norms: np.ndarray, states=None):
        self.times, self.norms = times, norms
        self._profiles, self._states = profiles, states
        self._run: _Run | None = None  # the run in the mode basis that evolve sampled
        self._keep_states = False

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def profiles(self) -> np.ndarray | None:
        if self._profiles is None and self._run is not None:
            self._profiles = np.vstack([psi.real**2 + psi.imag**2 for psi in self._blocks()])
        return self._profiles

    @property
    def states(self) -> np.ndarray | None:
        if self._states is None and self._keep_states:
            self._states = np.vstack(list(self._blocks()))
        return self._states

    def index_at(self, t: float) -> int:
        """Index of the sample nearest t; t must lie inside the span."""
        if t < self.times[0] - 0.5 * self.dt or t > self.times[-1] + 0.5 * self.dt:
            raise ValueError(f"t={t} outside the recorded span [{self.times[0]}, {self.times[-1]}]")
        return int(np.argmin(np.abs(self.times - t)))

    def profile_at(self, t: float) -> np.ndarray:
        k = self.index_at(t)
        if self._profiles is not None or self._run is None:
            return self.profiles[k]
        psi = self._run.states(k, k + 1)[0]
        return psi.real**2 + psi.imag**2

    def _blocks(self):
        for start in range(0, self.times.size, BLOCK):
            yield self._run.states(start, min(start + BLOCK, self.times.size))


def decompose(H: Chain | np.ndarray) -> Modes:
    """One eigendecomposition of a chain's hopping, for every state and gain on the chain.

    ``H`` is a :class:`~nhssh.lattice.Chain` or a dense Hamiltonian, which
    :func:`~nhssh.lattice.chiral_split` reads as one.  Raises ValueError
    where B is singular, and LinAlgError where the eigensolver fails.
    """
    chain = H if isinstance(H, Chain) else chiral_split(H)
    lam2, U = chain.gram_eigh()
    if lam2[0] <= lam2.size * np.finfo(float).eps * lam2[-1]:
        raise ValueError("T is singular: a zero mode has no -lam partner to pair its gain and loss sites")
    lam = np.sqrt(lam2)
    V = chain.loss_amplitudes(U)
    V /= lam
    return Modes(lam, (U, V), chain.gamma)


def evolve(
    state0: np.ndarray,
    H: Chain | np.ndarray | Modes,
    dt: float,
    steps: int,
    record_states: bool = False,
) -> Trajectory:
    """Sample ``psi(t) = expm(-iHt) state0`` at t = 0, dt, ..., steps*dt.

    ``H`` is the :class:`~nhssh.lattice.Chain`, the dense Hamiltonian or
    their :func:`decompose`, which lets many runs on one chain share one
    eigensolve.  Dirac norms are computed at once; profiles, and states
    with ``record_states``, when read.
    Raises OverflowError naming the first sample that leaves float range.
    """
    modes = H if isinstance(H, Modes) else decompose(H)
    amplitudes = modes.amplitudes(state0)
    if steps < 1 or not 0.0 < dt < np.inf:
        raise ValueError(f"need steps >= 1 and a finite dt > 0, got steps={steps}, dt={dt}")
    run = _Run(modes, amplitudes, dt, steps + 1)
    times = np.arange(steps + 1) * dt
    norms = run.norms(times.size)
    bad = ~np.isfinite(norms)
    if bad.any():
        raise OverflowError(f"state left float range at t = {times[np.argmax(bad)]:.6g}")
    traj = Trajectory(times, None, norms)
    traj._run, traj._keep_states = run, record_states
    return traj


def _product(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    # basis @ x (real by complex) as one real GEMM in scipy's BLAS: numpy may bundle a BLAS of its
    # own, whose threads would then compete for the cores with those the eigensolver just woke
    return scipy.linalg.blas.dgemm(1.0, x.view(float).T, basis.T).T.view(complex)
