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
gain and loss amplitudes.  The loss-site vectors are the gain-site ones
reversed (parity), a sign per mode, so they are never stored:
:class:`Modes` applies U to the loss sites in reverse order.  So a
decomposition holds one N x N array, and no 2N x 2N matrix is formed.

A :class:`Trajectory`, which only :func:`evolve` builds, keeps a run's
mode amplitudes and forms its norms, profiles and states from them, as
its docstring derives.  :func:`expm` is the dense reference for tests.
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
    ``lam`` the singular values of B, both ascending, and ``U`` the gain-site
    vectors (eigenvectors of B B^T, orthonormal columns, a row per even site).
    The loss-site vectors B^T U / lam are U's columns upside down, each times
    its parity sign (:attr:`_parity`), so a loss amplitude is kept on U
    upside down, without the sign: U is applied to the loss (odd) sites in
    reverse order both ways (:meth:`amplitudes`, :meth:`_sites`), and the
    sign rides on the mode's coupling lam of its gain and loss amplitudes.
    None of them depends on gamma, so :meth:`at_gamma` retunes the chain to
    any other gain, 0 included, at no cost.
    """

    chain: Chain
    w: np.ndarray
    lam: np.ndarray
    U: np.ndarray

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

        The state at time t has the amplitudes ``c*a + s*b``.  A loss amplitude
        is on U upside down: the mode's own, times its :attr:`_parity`.
        """
        psi0 = np.ascontiguousarray(state0, dtype=complex)
        if psi0.shape != (self.n_sites,):
            raise ValueError(f"state length {psi0.shape} does not match H dimension {self.n_sites}")
        if not np.isfinite(psi0).all():
            raise ValueError("state0 has non-finite entries")
        parts = np.stack((psi0.real, psi0.imag))  # (part, site); loss site N-1-j is column 2N-1-2j
        re, im = np.stack([parts[:, 0::2] @ self.U, parts[:, ::-2] @ self.U], axis=1)
        a = re + 1j * im
        # H acts on a mode's gain and loss amplitudes as [[i*gamma, lam], [lam, -i*gamma]]; on U upside down
        # the loss amplitude is the mode's times its parity sign, and so is lam
        sign = np.array([[1.0], [-1.0]])
        return a, sign * self.chain.gamma * a - 1j * (self.lam * self._parity) * a[::-1]

    @property
    def _parity(self) -> np.ndarray:
        """(-1)^(N+m+1) for mode m (from 0): parity takes the mode to itself times this sign (see Chain.modes)."""
        return (-1.0) ** (self.w.size + 1 + np.arange(self.w.size))

    def _sites(self, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The site amplitudes of coefficient rows (one per row and mode), gain rows then loss rows, into out.

        One GEMM by U.T for both sublattices; the loss rows are on U upside
        down (:meth:`amplitudes`), so their sites come out in reverse order.
        """
        return np.matmul(rows, self.U.T, out=out)

    def cs(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """c and s at the times t (rows) of every mode (columns)."""
        x = self.x
        k = np.sqrt(np.abs(x))
        grow = np.count_nonzero(x < 0)  # a leading run, as x ascends
        with np.errstate(over="ignore", invalid="ignore"):  # a k*t past float range: evolve names its sample
            kt = t[:, None] * k
            c, s = np.cos(kt), np.sin(kt)
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
    offsets and on one sample per block.  The Dirac norms follow by
    Parseval's identity (the bases have orthonormal columns), one real
    matrix product for every block (:meth:`_norms`), with no 2N-wide state.
    The loss amplitudes are on U upside down (:meth:`Modes.amplitudes`), so
    every block's alpha and beta carry each mode's parity sign.  A block's
    coefficient rows, for both sublattices and every component, go through
    one GEMM in room that a read allocates once (:meth:`_workspace`), and
    the squares or the states go straight to the output.  The norms'
    expanded form cancels inside a block, more the longer the block: on
    fig4's run at 2N = 500 the worst norm is 1.37e-13 off a long-double
    evaluation with 64 samples a block, 1.22e-12 with 128.
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
        work = self._workspace(out[:BLOCK])
        for start in range(0, self.times.size, BLOCK):
            self._form(out[start : start + BLOCK], start, work)
        return out

    def profile_blocks(self):
        """Yield ``(start, profiles)``: the profiles of samples start, ..., start + BLOCK - 1 (fewer at the end).

        ``profiles`` is one (rows, 2N) buffer, refilled for each block: reduce it before taking the next.
        """
        buffer = np.empty((min(BLOCK, self.times.size), self._modes.n_sites))
        work = self._workspace(buffer)
        for start in range(0, self.times.size, BLOCK):
            yield start, self._form(buffer[: self.times.size - start], start, work)

    def index_at(self, t: float) -> int:
        """Index of the sample nearest t; t must lie inside the span."""
        if t < self.times[0] - 0.5 * self.dt or t > self.times[-1] + 0.5 * self.dt:
            raise ValueError(f"t={t} outside the recorded span [{self.times[0]}, {self.times[-1]}]")
        return int(np.argmin(np.abs(self.times - t)))

    def profile_at(self, t: float) -> np.ndarray:
        """The profile at the sample nearest t, formed alone."""
        out = np.empty((1, self._modes.n_sites))
        return self._form(out, self.index_at(t), self._workspace(out))[0]

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
            for a, b in zip(*(u.swapaxes(0, 1)[:, :, None] for u in self._amplitudes)):  # (sublattice, 1, mode) each
                alpha, beta = self._block_starts(slice(None), a, b)  # (sublattice, block, mode) each
                exponent = np.frexp(np.maximum(*(np.abs(u).max(axis=(0, 2)) for u in (alpha, beta))))[1]
                alpha, beta = (np.ldexp(u, -exponent[:, None], out=u) for u in (alpha, beta))
                rows = np.hstack(
                    [(alpha * alpha).sum(axis=0), 2.0 * (alpha * beta).sum(axis=0), (beta * beta).sum(axis=0)]
                )
                norms.append(np.ldexp(rows @ table.T, 2 * exponent[:, None]).ravel()[: self.times.size])
                del alpha, beta, rows  # before the next component's are formed
        return np.array(norms)

    def _workspace(self, out: np.ndarray) -> np.ndarray:
        """Flat room for the site amplitudes of blocks of up to len(out) rows, and their coefficients if out lacks it.

        Where out holds the coefficient rows (one component's profiles, or
        states), they go there: the GEMM reads them before out is written.
        """
        size = 2 * self.components * len(out) * self._modes.w.size
        return np.empty(size if out.view(float).size >= size else 2 * size)

    def _form(self, out: np.ndarray, start: int, work: np.ndarray) -> np.ndarray:
        """out's rows, samples start, start + 1, ... of one block: the states if out is complex, else the profiles."""
        i, j = divmod(start, BLOCK)
        c1, s1 = (table[j : j + len(out)] for table in self._offsets)  # (sample, mode)
        shape = (2, self.components) + c1.shape  # (sublattice, component, sample, mode)
        size, room = np.prod(shape), out.reshape(-1).view(float)  # out's own memory: its rows are contiguous
        sites, coefs = (u[:size].reshape(shape) for u in (work, room if room.size >= size else work[size:]))
        with np.errstate(over="ignore", invalid="ignore"):
            alpha, beta = self._block_starts(i, *self._amplitudes)  # (sublattice, component, mode) each
            np.multiply(c1, alpha[:, :, None], out=coefs)
            coefs += np.multiply(s1, beta[:, :, None], out=sites)
            self._modes._sites(coefs.reshape(-1, c1.shape[1]), sites.reshape(-1, c1.shape[1]))
            for columns, parts, turn in zip((slice(0, None, 2), slice(None, None, -2)), sites, self._turn):
                view = out[:, columns]  # the even columns (gain) or the odd (loss), reversed
                if np.iscomplexobj(out):  # psi = (chi_1 + i*chi_2) / turn on either sublattice
                    view.real, view.imag = parts[0], parts[1] if len(parts) == 2 else 0.0
                    view /= turn
                else:  # |psi|^2 = chi_1^2 + chi_2^2
                    np.square(parts[0], out=view)
                    for part in parts[1:]:
                        view += np.square(part, out=part)
        return out

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
    return Modes(chain, w, np.sqrt(lam2), U)


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
    Raises ValueError for a non-finite state0, and OverflowError naming the
    first sample that leaves float range.
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
