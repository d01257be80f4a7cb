"""Time evolution through the chiral square ``H^2 = T^2 - gamma^2``.

``expm(-iHt) = c(H^2) - i*H*s(H^2)`` with ``c(x) = cos(t*sqrt(x))`` and
``s(x) = sin(t*sqrt(x))/sqrt(x)``, both entire in x and real for real x:
exact where H is defective (the ring at its exceptional point, s -> t),
and cosh, sinh where x < 0.  One decomposition, :func:`decompose`, serves
every state and every gain on one chain and gives every sample directly,
so no error builds up from step to step.  It takes the closed-form modes
of the N x N gain-site block ``B B^T`` of T^2 of a
:class:`~nhssh.lattice.Chain` (:meth:`~nhssh.lattice.Chain.modes`): each
singular value lam of B is one pair +/-lam of T, one 2x2 block on the
gain and loss amplitudes.  On the open chain the loss-site vectors are
the gain-site ones reversed (parity), a sign per mode, so no product forms them.

A :class:`Trajectory`, which only :func:`evolve` builds, lives in that
mode basis, sampled in blocks of BLOCK samples that share one table of c
and s at the offsets inside a block: by angle addition a mode's amplitude
there is ``alpha*c + beta*s``, with alpha and beta its amplitudes carried
to the block's first sample.  The Dirac norms follow by Parseval's
identity (the bases have orthonormal columns) as one real matrix product
of per-block rows ``[sum alpha^2, 2 sum alpha*beta, sum beta^2]`` by the
table's squares; no 2N-wide state is formed.  Profiles and states are
formed when read, one real matrix product per block and basis, written
straight into their gain (even) or loss (odd) site columns: profiles one
block at a time into one reused buffer (:meth:`Trajectory.profile_blocks`),
which the reader reduces before the next, or one sample alone; states all
at once.  The chiral-time symmetry keeps every packet real up to one
phase, which halves those products (see :class:`Trajectory`).
:func:`expm` is the dense reference for tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .lattice import Chain, chiral_split

BLOCK = 64  # samples per block; longer blocks lose norm accuracy to cancellation (see Trajectory)


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by Pade scaling-and-squaring.

    Thin validation wrapper over the scipy implementation (order-13
    diagonal Pade with norm-based squaring), which is reliable for the
    non-normal matrices this package produces.  It is the tests' dense
    reference: no experiment calls it, and this is the only import of
    scipy in the package, so scipy is a test dependency and no CLI run
    loads it.
    """
    import scipy.linalg

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
    """Eigenpairs of the real hopping T of one :class:`~nhssh.lattice.Chain`, at the chain's gain.

    ``w`` holds the modes' weights (:meth:`~nhssh.lattice.Chain.modes`) and
    ``lam`` the singular values of B, both ascending, and ``bases`` the
    gain-site vectors U (eigenvectors of B B^T) and the loss-site vectors
    B^T U / lam (on the open chain ``(-1)^(N+m+1)`` times U's column m
    upside down), each with orthonormal columns, one row per gain (even) or
    loss (odd) site.  None of them depends on gamma, so :meth:`at_gamma`
    retunes the chain to any other gain, 0 included, at no cost.
    """

    chain: Chain
    w: np.ndarray
    lam: np.ndarray
    bases: tuple

    @property
    def n_sites(self) -> int:
        return 2 * self.w.size

    @property
    def x(self) -> np.ndarray:
        """Eigenvalues of H^2, one per mode, ascending."""
        return self.chain.x(self.w)

    def at_gamma(self, gamma: float) -> Modes:
        """The same chain at another gain: only each mode's growth rate changes."""
        return replace(self, chain=replace(self.chain, gamma=float(gamma)))

    def amplitudes(self, state0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mode amplitudes (a, b) of state0 and of -iH state0, a row each for the gain and loss sites.

        The state at time t has the amplitudes ``c*a + s*b``.
        """
        psi0 = np.ascontiguousarray(state0, dtype=complex)
        if psi0.shape != (self.n_sites,):
            raise ValueError(f"state length {psi0.shape} does not match H dimension {self.n_sites}")
        if not np.isfinite(psi0).all():
            raise ValueError("state0 has non-finite entries")
        parts = np.stack((psi0.real, psi0.imag))  # (part, site)
        re, im = np.stack([parts[:, k::2] @ basis for k, basis in enumerate(self.bases)], axis=1)
        a = re + 1j * im
        # H acts on a mode's gain and loss amplitudes as [[i*gamma, lam], [lam, -i*gamma]]
        sign = np.array([[1.0], [-1.0]])
        return a, sign * self.chain.gamma * a - 1j * self.lam * a[::-1]

    def cs(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """c and s at the times t (rows) of every mode (columns)."""
        x = self.x
        k = np.sqrt(np.abs(x))
        grow = np.count_nonzero(x < 0)  # a leading run, as x ascends
        kt = t[:, None] * k
        c, s = np.cos(kt), np.sin(kt)
        with np.errstate(over="ignore"):
            c[:, :grow], s[:, :grow] = np.cosh(kt[:, :grow]), np.sinh(kt[:, :grow])
        s /= np.where(k > 0, k, 1.0)
        s[:, k == 0] = t[:, None]  # lam == gamma: the exceptional point, where s = t
        return c, s


class Trajectory:
    """Time-ordered record of one state's evolution, sampled at t = n*dt; built only by :func:`evolve`.

    ``norms[k]`` is the Dirac norm P(t_k) and ``states[k]`` the amplitudes,
    kept only when requested (else None) and formed on first read.  The run
    keeps the mode amplitudes.  Profiles, the site probabilities
    |psi_l(t_k)|^2 (1-based site l in column l-1), are formed when read:
    :meth:`profile_blocks` yields BLOCK samples at a time in one buffer,
    refilled for the next block, so a reader reduces each block before
    taking the next; :meth:`profile_at` forms one sample alone.

    Chiral-time symmetry (C the sublattice sign, ``C H* C = -H`` at every
    real gain) keeps a state with real gain and imaginary loss amplitudes
    so for all time, and every packet and pair is one up to a global
    phase.  The run turns the amplitudes by ``-phi``, with
    ``phi = arg(sum a_gain^2 - sum a_loss^2)/2``, half the phase of
    ``<C psi*, psi>`` (the bases have orthonormal columns), and keeps the
    state as ``chi_1 + i*chi_2`` with ``chi_1 = (Re gain, Im loss)`` and
    ``chi_2 = (Im gain, -Re loss)``: each evolves in real arithmetic, and
    ``|psi_l|^2 = chi_1,l^2 + chi_2,l^2``.  chi_2 is dropped when its
    share of every sample's norm is below eps, which halves the profile
    products; a general state keeps both.

    Samples come in blocks of BLOCK.  At t = t0 + tau, with t0 the first
    sample of a block and tau an offset inside it, c and s follow by angle
    addition, ``c(t0+tau) = c(t0)c(tau) - x s(t0)s(tau)`` and
    ``s(t0+tau) = s(t0)c(tau) + c(t0)s(tau)`` with x the mode's
    eigenvalue of H^2.  So a mode's amplitude ``c*a + s*b`` in the block
    is ``c(tau)*alpha + s(tau)*beta`` with ``alpha = c(t0)a + s(t0)b`` and
    ``beta = c(t0)b - x s(t0)a``, which :meth:`_block_starts` forms for the
    norms, profiles and states alike: cos and sin run on one table of
    offsets and on one sample per block.  The norms' expanded form cancels
    inside a block, more the longer the block: on fig4's run at 2N = 500
    the worst norm is 1.37e-13 off a long-double evaluation with 64 samples
    a block, 1.22e-12 with 128.
    """

    def __init__(self, modes: Modes, amplitudes: tuple, dt: float, samples: int, record_states: bool):
        self.times, self.dt = np.arange(samples) * dt, float(dt)
        self._modes, self._record_states = modes, record_states
        # -i on the loss amplitudes and the CT phase on both turn a CT-real state's amplitudes real
        signed = np.array([[1.0], [-1.0j]])
        self._turn = signed * np.exp(-0.5j * np.angle(np.sum((signed * amplitudes[0]) ** 2)))
        turned = [self._turn * u for u in amplitudes]
        self._amplitudes = tuple(np.stack((u.real, u.imag), axis=1) for u in turned)  # (basis, component, mode)
        self._offsets = modes.cs(np.arange(min(BLOCK, samples)) * dt)  # (offset, mode)
        self._starts = modes.cs(np.arange(0, samples, BLOCK) * dt)  # (block, mode)
        norms = self._norms()
        self.norms = norms.sum(axis=0)
        if (norms[1] <= np.finfo(float).eps * self.norms).all():  # chi_2 is below rounding at every sample
            self._amplitudes = tuple(u[:, :1] for u in self._amplitudes)

    @property
    def components(self) -> int:
        """1 where the run keeps chi_1 alone (a CT-real state up to a phase), else 2."""
        return self._amplitudes[0].shape[1]

    @cached_property
    def states(self) -> np.ndarray | None:
        if not self._record_states:
            return None
        out = np.empty((self.times.size, self._modes.n_sites), dtype=complex)
        for start in range(0, self.times.size, BLOCK):
            self._form(out[start : start + BLOCK], start)
        return out

    def profile_blocks(self):
        """Yield ``(start, profiles)``: the profiles of samples start, ..., start + BLOCK - 1 (fewer at the end).

        ``profiles`` is one (rows, 2N) buffer, refilled for each block: reduce it before taking the next.
        """
        buffer = np.empty((min(BLOCK, self.times.size), self._modes.n_sites))
        for start in range(0, self.times.size, BLOCK):
            yield start, self._form(buffer[: self.times.size - start], start)

    def index_at(self, t: float) -> int:
        """Index of the sample nearest t; t must lie inside the span."""
        if t < self.times[0] - 0.5 * self.dt or t > self.times[-1] + 0.5 * self.dt:
            raise ValueError(f"t={t} outside the recorded span [{self.times[0]}, {self.times[-1]}]")
        return int(np.argmin(np.abs(self.times - t)))

    def profile_at(self, t: float) -> np.ndarray:
        """The profile at the sample nearest t, formed alone."""
        return self._form(np.empty((1, self._modes.n_sites)), self.index_at(t))[0]

    def _norms(self) -> np.ndarray:
        """Dirac norms of each component, sum |c*a + s*b|^2 over the modes and bases, as one GEMM for every block.

        A block's norms are its row ``[sum alpha^2, 2 sum alpha*beta,
        sum beta^2]`` (over the bases) times the table of
        ``[c^2, c*s, s^2](tau)``.  Each block's alpha and beta are scaled by
        a power of two (exact) so that no row leaves float range before the
        norm itself does.  The components go one at a time, so that the rows
        of only one are alive.  Returns (component, sample).
        """
        c1, s1 = self._offsets
        norms = []
        with np.errstate(over="ignore", invalid="ignore"):
            table = np.hstack([c1 * c1, c1 * s1, s1 * s1])
            for a, b in zip(*(u.swapaxes(0, 1)[:, :, None] for u in self._amplitudes)):  # (basis, 1, mode) each
                alpha, beta = self._block_starts(slice(None), a, b)  # (basis, block, mode) each
                exponent = np.frexp(np.maximum(*(np.abs(u).max(axis=(0, 2)) for u in (alpha, beta))))[1]
                alpha, beta = (np.ldexp(u, -exponent[:, None], out=u) for u in (alpha, beta))
                rows = np.hstack(
                    [(alpha * alpha).sum(axis=0), 2.0 * (alpha * beta).sum(axis=0), (beta * beta).sum(axis=0)]
                )
                norms.append(np.ldexp(rows @ table.T, 2 * exponent[:, None]).ravel()[: self.times.size])
        return np.array(norms)

    def _form(self, out: np.ndarray, start: int) -> np.ndarray:
        """out's rows, samples start, start + 1, ... of one block: the states if out is complex, else the profiles."""
        for k, (parts, turn) in enumerate(zip(self._components(start, start + len(out)), self._turn)):
            sites = out[:, k::2]  # gain sites are the even columns, loss the odd
            if np.iscomplexobj(out):  # psi = (chi_1 + i*chi_2) / turn on either basis
                sites.real, sites.imag = parts[0], parts[1] if len(parts) == 2 else 0.0
                sites /= turn
            else:
                np.square(parts[0], out=sites)
                for part in parts[1:]:
                    sites += part * part
        return out

    def _components(self, start: int, stop: int):
        """Per basis, the components of the states at samples start, ..., stop - 1 (in one block)."""
        i, j = divmod(start, BLOCK)
        c1, s1 = (table[j : j + stop - start] for table in self._offsets)
        with np.errstate(over="ignore", invalid="ignore"):
            alpha, beta = self._block_starts(i, *self._amplitudes)
            for basis, al, be in zip(self._modes.bases, alpha, beta):
                coef = (c1 * al[:, None] + s1 * be[:, None]).reshape(-1, basis.shape[1])  # rows (component, sample)
                yield (coef @ basis.T).reshape(len(al), stop - start, -1)

    def _block_starts(self, blocks, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """alpha and beta at the first samples of the blocks (an index of the start tables), modes last."""
        c0, s0 = (table[blocks] for table in self._starts)
        return c0 * a + s0 * b, c0 * b - self._modes.x * s0 * a


def decompose(H: Chain | np.ndarray) -> Modes:
    """The closed-form modes of a chain's hopping, for every state and gain on the chain.

    ``H`` is a :class:`~nhssh.lattice.Chain` or a dense Hamiltonian, which
    :func:`~nhssh.lattice.chiral_split` reads as one.  Raises ValueError
    where B is singular.
    """
    chain = H if isinstance(H, Chain) else chiral_split(H)
    w, U = chain.modes()
    lam2 = replace(chain, gamma=0.0).x(w)
    if lam2[0] <= lam2.size * np.finfo(float).eps * lam2[-1]:
        raise ValueError("T is singular: a zero mode has no -lam partner to pair its gain and loss sites")
    lam = np.sqrt(lam2)
    if chain.ring:
        V = chain.loss_amplitudes(U)
        V /= lam
    else:  # parity takes gain site j to loss site N-1-j, and open mode m (from 0) to (-1)^(N+m+1) times itself
        V = U[::-1] * (-1.0) ** (lam.size + 1 + np.arange(lam.size))
    return Modes(chain, w, lam, (U, V))


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
    decomposition.  Dirac norms are computed at once; profiles, and states
    with ``record_states``, when read.
    Raises OverflowError naming the first sample that leaves float range.
    """
    modes = H if isinstance(H, Modes) else decompose(H)
    amplitudes = modes.amplitudes(state0)
    if steps < 1 or not 0.0 < dt < np.inf:
        raise ValueError(f"need steps >= 1 and a finite dt > 0, got steps={steps}, dt={dt}")
    traj = Trajectory(modes, amplitudes, dt, steps + 1, record_states)
    bad = ~np.isfinite(traj.norms)
    if bad.any():
        raise OverflowError(f"state left float range at t = {traj.times[np.argmax(bad)]:.6g}")
    return traj
