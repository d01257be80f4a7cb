"""Initial-state builders and profile measurements.

Packets live in the analytic eigenbasis of the tuned chain; the builders
therefore depend only on ``cells`` and ``delta`` (through
``gamma_c = 2*delta``), never on the gain actually used for evolution.
That separation is what lets the same packet be propagated below, at and
above threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .lattice import LatticeParams
from .oracle import PacketSpec, normalizing_scale, packet_coefficients, superpose_eigenstates

SMOOTH_WINDOW = 4  # suppresses A/B sublattice alternation in profiles


@dataclass(frozen=True)
class PacketPairSpec:
    """Two packets at kappa01 and kappa02 superposed with a relative sign."""

    kappa01: float
    kappa02: float
    q: float = 0.0
    relative_sign: int = +1
    lam: float | None = None

    def __post_init__(self):
        self._specs(self.lam)  # PacketSpec checks both kappas, q and lam
        if self.kappa01 == self.kappa02:
            raise ValueError("kappa01 and kappa02 must differ for a genuine two-packet state")
        if self.relative_sign not in (+1, -1):
            raise ValueError("relative_sign must be +1 or -1")

    def _specs(self, lam: float | None) -> tuple[PacketSpec, PacketSpec]:
        return PacketSpec(self.kappa01, self.q, lam), PacketSpec(self.kappa02, self.q, lam)

    def normalized(self, cells: int) -> "PacketPairSpec":
        """Copy with lam fixed by coefficient normalization of the pair for this size."""
        if self.lam is not None:
            return self
        c1, c2 = (packet_coefficients(spec, cells) for spec in self._specs(1.0))
        return replace(self, lam=normalizing_scale(np.sum((c1 + self.relative_sign * c2) ** 2)))

    def single_specs(self, cells: int) -> tuple[PacketSpec, PacketSpec]:
        """The two constituent packets carrying the pair's shared scale."""
        return self._specs(self.normalized(cells).lam / math.sqrt(2.0))


def build_initial_state(spec: PacketSpec, params: LatticeParams) -> np.ndarray:
    """Localized packet ``sum_{n,sigma} sigma lam sin(n kappa0) e^{-qn}/n |n,sigma>``.

    Centered near site ``2N kappa0/pi``; coefficient-normalized unless
    the spec carries an explicit scale.
    """
    c = packet_coefficients(spec, params.cells)
    return superpose_eigenstates(c, params)


def build_pair_state(pair: PacketPairSpec, params: LatticeParams) -> np.ndarray:
    """Two-packet state with coefficients ``(lam/sqrt2) sigma [sin(n k1) +/- sin(n k2)] e^{-qn}/n``."""
    c1, c2 = (packet_coefficients(spec, params.cells) for spec in pair.single_specs(params.cells))
    return superpose_eigenstates(c1 + pair.relative_sign * c2, params)


def coalescing_state(cells: int) -> np.ndarray:
    """Zero mode of the conjugate ring Hamiltonian at gamma = 2*delta.

    ``(1/sqrt(2N)) sum_j (-1)^j (|2j-1> + i |2j>)``; unit Dirac norm.
    Requires even N so the alternating sign closes around the ring.
    """
    if cells % 2:
        raise ValueError("coalescing state needs an even cell count")
    j = np.arange(1, cells + 1, dtype=float)
    state = np.empty(2 * cells, dtype=complex)
    state[0::2] = (-1.0) ** j
    state[1::2] = 1j * (-1.0) ** j
    return state / math.sqrt(2 * cells)


def direct_coalescing_overlap(spec: PacketSpec, params: LatticeParams) -> complex:
    """Numerical ``<phi_c | psi(0)>``, the companion check of the overlap formula."""
    return complex(np.vdot(coalescing_state(params.cells), build_initial_state(spec, params)))


def smoothed_profile(profile: np.ndarray) -> np.ndarray:
    """SMOOTH_WINDOW-site moving average over the last axis (sites), centered as np.convolve's "same".

    Site i sums p[i-2] + p[i-1] + p[i] + p[i+1], left to right as np.convolve
    does, leaving out the sites past either end, and then scales by 1/4.
    The sums run over the rows laid end to end, where a ufunc is several
    times faster than over row slices; the windows of each row's sites 0, 1
    and n-1 cross a row boundary there, so those three are summed again.
    """
    p = np.ascontiguousarray(profile, dtype=float)
    sm = np.empty_like(p)
    flat, out = p.reshape(-1), sm.reshape(-1)
    np.add(flat[:-3], flat[1:-2], out=out[2:-1])
    out[2:-1] += flat[2:-1]
    out[2:-1] += flat[3:]
    n = p.shape[-1]
    rows, sums = p.reshape(-1, n), sm.reshape(-1, n)
    sums[:, :2] = rows[:, :1]  # the sums of sites 0 and 1 both start at p[0]
    if n > 1:
        sums[:, :2] += rows[:, 1:2]
    if n > 2:
        sums[:, 1] += rows[:, 2]
        np.add(rows[:, -3], rows[:, -2], out=sums[:, -1])
        sums[:, -1] += rows[:, -1]
    sm *= 1.0 / SMOOTH_WINDOW
    return sm


def fwhm_interval(profile: np.ndarray) -> np.ndarray:
    """First and last 1-based site where the smoothed profile reaches half max.

    The two endpoints lie on the last axis: shape (2,) for one profile,
    (m, 2) for a stack of m profiles (sites on the last axis).
    """
    sm = smoothed_profile(profile)
    above = sm >= 0.5 * sm.max(axis=-1, keepdims=True)
    return np.stack([above.argmax(axis=-1), sm.shape[-1] - 1 - above[..., ::-1].argmax(axis=-1)], axis=-1) + 1


def shape_distance(profile_a: np.ndarray, profile_b: np.ndarray, shift: int) -> float:
    """L1 distance between two packet shapes after translating b by ~shift.

    Shapes are mass-normalized, smoothed profiles (the same envelope the
    width measurement uses), and the integer shift is optimized within
    5 sites: packet centers sit on the site grid only up to a
    fraction of a site, which a pure integer roll cannot absorb.
    """
    a = smoothed_profile(profile_a)
    b = smoothed_profile(profile_b)
    a = a / a.sum()
    b = b / b.sum()
    return min(float(np.abs(a - np.roll(b, shift + d)).sum()) for d in range(-5, 6))


@dataclass(frozen=True)
class Measurement:
    dirac_norm: float
    center: float
    width: float


def measure(profile: np.ndarray) -> Measurement:
    """Dirac norm, probability-weighted mean site and FWHM width of a probability profile.

    The width is read off the SMOOTH_WINDOW-site moving average so that
    the A/B alternation does not fake narrow features.
    """
    if np.iscomplexobj(profile):
        raise ValueError("measure takes a probability profile |psi|^2")
    profile = np.asarray(profile, dtype=float)
    total = profile.sum()
    if total <= 0.0:
        raise ValueError("cannot measure a zero state")
    sites = np.arange(1, profile.size + 1)
    center = float((sites * profile).sum() / total)
    lo, hi = fwhm_interval(profile)
    return Measurement(dirac_norm=float(total), center=center, width=float(hi - lo + 1))
