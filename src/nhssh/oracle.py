"""Closed-form oracles for the tuned chain (gamma = gamma_c).

Everything here is an independent analytic prediction, meant to be
compared against the numerically exact evolution:

* the analytic eigenstate family and its symmetry phases,
* the compact form of the evolved wave packet,
* the Dirac-norm formula for every kappa0, one dilogarithm expression
  (Legendre's chi at kappa0 = pi/2, and a triangle wave there at q = 0),
* the coalescing-mode overlap estimate.

Normalization policy: packets are coefficient-normalized,
``sum_{n,sigma} |c_n^sigma|^2 = 1``.  Dirac-normalizing the initial
state is ill conditioned at the tuned gain (the two eigenstate branches
nearly coalesce, so P(0) is tiny) and would contradict the norm growth
curves this package reproduces; the coefficient convention is the one
consistent with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .lattice import LatticeParams
from .spectra import analytic_dispersion, esm_spacing
from .specfun import dilog

# exp(-q n)/n weights below exp(-40) never reach float relevance
COEFF_CUTOFF = 40.0


@dataclass(frozen=True)
class PacketSpec:
    """Shape of one localized packet: position kappa0, decay q, scale lam.

    ``lam`` is usually left unset and filled in by the normalization
    policy for a given lattice size via :meth:`normalized`.
    """

    kappa0: float
    q: float = 0.0
    lam: float | None = None

    def __post_init__(self):
        if not 0.0 < self.kappa0 < math.pi:
            raise ValueError(f"kappa0 must lie strictly inside (0, pi), got {self.kappa0}")
        if not 0.0 <= self.q < math.inf:
            raise ValueError(f"q must be finite and >= 0, got {self.q}")
        if self.lam is not None and not 0.0 < self.lam < math.inf:
            raise ValueError(f"lam must be finite and positive, got {self.lam}")

    def normalized(self, cells: int) -> "PacketSpec":
        """Copy with lam fixed by coefficient normalization for this size."""
        if self.lam is not None:
            return self
        return replace(self, lam=coefficient_lambda(self.kappa0, self.q, cells))


def coefficient_lambda(kappa0: float, q: float, cells: int) -> float:
    """Scale constant from ``2 lam^2 sum_n sin^2(n kappa0) e^{-2qn}/n^2 = 1``, over the kept terms."""
    n = np.arange(1, cells + 1, dtype=float)
    terms = np.sin(n * kappa0) ** 2 * np.exp(-2.0 * q * n) / n**2
    terms[n * q > COEFF_CUTOFF] = 0.0
    return normalizing_scale(2.0 * np.sum(terms))


def normalizing_scale(total: float) -> float:
    """lam = 1/sqrt(total) for coefficients whose squares sum to total at lam = 1.

    Every packet scale is set here, so here a packet with no weight is
    refused: a sum below the smallest normal double, where the squared
    terms have lost their digits to underflow and lam would be wrong.
    """
    if not total >= np.finfo(float).tiny:
        raise ValueError(
            f"packet has no weight: its squared terms sum to {total:.3g}, below the smallest normal double "
            f"(they lie past n*q > {COEFF_CUTOFF:g}, underflow or cancel)"
        )
    return 1.0 / math.sqrt(total)


def packet_coefficients(spec: PacketSpec, cells: int) -> np.ndarray:
    """Eigenbasis coefficients c_n for the + branch; the - branch is -c_n.

    Terms with ``n*q > 40`` are dropped (below machine relevance).
    """
    spec = spec.normalized(cells)
    n = np.arange(1, cells + 1, dtype=float)
    c = spec.lam * np.sin(n * spec.kappa0) * np.exp(-spec.q * n) / n
    c[n * spec.q > COEFF_CUTOFF] = 0.0
    return c


def _branch_constants(cells: int) -> tuple[complex, complex]:
    # principal square roots of +/- (-1)^N / (N+1); this phase choice makes
    # the PT and CT eigenstate identities exact
    sgn = (-1.0) ** cells
    c_plus = complex(np.sqrt(complex(sgn / (cells + 1))))
    c_minus = complex(np.sqrt(complex(-sgn / (cells + 1))))
    return c_plus, c_minus


def analytic_eigenstate(n: int, sign: int, params: LatticeParams) -> np.ndarray:
    """Analytic eigenstate of the tuned open chain, Dirac-normalized.

    A-site amplitude ``C (-1)^j sin(kj) e^{+i s phi_k/2}`` and B-site
    amplitude ``s C (-1)^j sin(kj) e^{-i s phi_k/2}`` with s = +/-1 and
    ``C = sqrt(s (-1)^N/(N+1))``.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    N = params.cells
    _, phi = analytic_dispersion(n, params)
    c_plus, c_minus = _branch_constants(N)
    C = c_plus if sign > 0 else c_minus
    j = np.arange(1, N + 1, dtype=float)
    envelope = C * (-1.0) ** j * np.sin(n * np.pi * j / (N + 1))
    state = np.empty(2 * N, dtype=complex)
    state[0::2] = envelope * np.exp(1j * sign * phi / 2.0)
    state[1::2] = sign * envelope * np.exp(-1j * sign * phi / 2.0)
    return state


def superpose_eigenstates(c_plus_coeffs: np.ndarray, params: LatticeParams, t: float = 0.0) -> np.ndarray:
    """State ``sum_n c_n (e^{-i eps_n t} |n,+> - e^{+i eps_n t} |n,->)``.

    Assembled through per-mode sublattice weights and one type-I sine
    transform (an FFT of the odd extension): exactly the eigenstate sum,
    but O(N log N) instead of O(N^3).  All packet builders funnel through here.
    """
    N = params.cells
    c = np.asarray(c_plus_coeffs, dtype=complex)
    if c.shape != (N,):
        raise ValueError(f"expected {N} coefficients, got {c.shape}")
    n = np.arange(1, N + 1)
    eps, phi = analytic_dispersion(n, params)
    cp, cm = _branch_constants(N)
    fp = c * np.exp(-1j * eps * t)
    fm = -c * np.exp(+1j * eps * t)
    weights = np.zeros((2, 2 * N + 2), dtype=complex)  # A and B weights, odd-extended
    weights[0, 1 : N + 1] = fp * cp * np.exp(1j * phi / 2) + fm * cm * np.exp(-1j * phi / 2)
    weights[1, 1 : N + 1] = fp * cp * np.exp(-1j * phi / 2) - fm * cm * np.exp(1j * phi / 2)
    weights[:, N + 2 :] = -weights[:, N:0:-1]
    sine = 0.5j * (-1.0) ** n * np.fft.fft(weights)[:, 1 : N + 1]
    return sine.T.ravel()  # interleaved: A then B site of each cell


def _sawtooth(theta: np.ndarray, q: float) -> np.ndarray:
    """Abel-summed sawtooth ``sum_n e^{-qn} sin(n theta)/n``, for every q >= 0.

    This is ``arctan(sin theta / (e^q - cos theta))``, with the denominator
    written ``expm1(q) + 2 sin^2(theta/2)`` so that nothing cancels as
    q -> 0; at q = 0 arctan2 gives the periodic triangular ramp
    ``(pi - theta mod 2pi)/2``, and the series' 0 at theta = 0 mod 2pi.
    """
    return np.arctan2(np.sin(theta), np.expm1(q) + 2.0 * np.sin(0.5 * theta) ** 2)


def evolved_state_closed_form(t: float, spec: PacketSpec, params: LatticeParams) -> np.ndarray:
    """Compact analytic form of the evolved packet at time t.

    Amplitudes are ``Lam_N sum_{rho,ups,eta} w(theta) (-1)^j rho ups eta
    e^{i eta pi/4}`` distributed on the B site (eta = +1) and A site
    (eta = -1) of cell j, with ``w`` the sawtooth above and
    ``theta = rho kappa0 + ups pi j/(N+1) + omega (t - eta/(4 delta))``.

    The ``eta/(4 delta)`` term is a per-sublattice time offset carrying
    the first-order deviation of the mixing angle from pi/2 (the phases
    ``e^{+/- i phi_k/2}`` expand to ``e^{+/- i pi/4}`` times a shift of
    the time argument by ``1/(4 delta)``, opposite on the two
    sublattices).  Without it the two branches would cancel exactly at
    t = 0.
    """
    N = params.cells
    spec = spec.normalized(N)
    omega = esm_spacing(params)
    lam_n = (spec.lam / 2.0) * _branch_constants(N)[0]
    j = np.arange(1, N + 1, dtype=float)
    cell_phase = np.pi * j / (N + 1)
    alternating = (-1.0) ** j
    state = np.zeros(2 * N, dtype=complex)
    for rho in (1.0, -1.0):
        for ups in (1.0, -1.0):
            for eta in (1, -1):
                theta = rho * spec.kappa0 + ups * cell_phase + omega * (t - eta / (4.0 * params.delta))
                w = _sawtooth(theta, spec.q)
                prefactor = lam_n * rho * ups * eta * np.exp(1j * eta * np.pi / 4.0)
                # eta = +1 lands on B sites (2j), eta = -1 on A sites (2j-1)
                offset = 1 if eta > 0 else 0
                state[offset::2] += prefactor * alternating * w
    return state


def dirac_norm_closed_form(t, spec: PacketSpec, params: LatticeParams):
    """Closed-form Dirac norm P(t) of the evolved packet, for every kappa0 in (0, pi).

    ``P(t) = 2 sum_n c_n^2 (1 - cos 2 n omega t)``, over the coefficients c_n of
    :func:`packet_coefficients` with n unbounded, sums in closed form: with
    ``z = e^{-2q}``, ``a = e^{2 i kappa0}``, ``b = conj(a)`` and ``e = e^{2 i omega t}``,
    ``P = lam^2 Re{[Li2(z) - Li2(ze)] - [Li2(za) - (Li2(zae) + Li2(zbe))/2]}``,
    grouped so that at t = 0 each bracket, and so P(0), is exactly 0.  At kappa0 = pi/2
    (a = -1) it is ``2 lam^2 [chi2(z) - Re chi2(ze)]``, Legendre's ``chi2(x)
    = (Li2(x) - Li2(-x))/2``, and at q = 0 there a triangle wave of slope
    ``2 lam^2 pi^2/tau`` (8/tau, as lam^2 = 4/pi^2 up to the finite-size
    tail) and period tau/2.  Toward kappa0 = 0 or pi the brackets cancel and
    the error grows like eps q/kappa0^2: at q = 0.02 and 2N = 500, against an
    80-digit polylog, 1.9e-14 of the peak at kappa0 = pi/100, 1.4e-10 at
    1e-4 pi, 2.1e-6 at 1e-6 pi and 8.9e-3 at 1e-8 pi.

    Accepts scalar or array t.
    """
    spec = spec.normalized(params.cells)
    t = np.asarray(t, dtype=float)
    e = np.exp(2j * esm_spacing(params) * t)
    a = np.exp(2j * spec.kappa0)
    z = math.exp(-2.0 * spec.q)
    ze = z * np.stack([e, a * e, a.conjugate() * e])
    li = dilog(np.append([z, z * a], ze)).real  # one call; Li2(z) and Li2(za) do not depend on t
    li_z, li_za, (li_ze, li_zae, li_zbe) = li[0], li[1], li[2:].reshape(ze.shape)
    out = spec.lam**2 * ((li_z - li_ze) - (li_za - 0.5 * (li_zae + li_zbe)))
    return float(out) if out.ndim == 0 else out


def overlap_formula(spec: PacketSpec, params: LatticeParams) -> float:
    """Estimated overlap magnitude of the packet with the coalescing mode.

    ``sqrt(delta (1-delta)) lam / (N delta) * arctan(sin kappa0 / sinh q)``;
    taken as atan2, which saturates at pi/2 at q = 0, where sinh q = 0.
    """
    spec = spec.normalized(params.cells)
    angle = math.atan2(math.sin(spec.kappa0), math.sinh(spec.q))
    return (
        math.sqrt(params.delta * (1.0 - params.delta))
        * spec.lam
        / (params.cells * params.delta)
        * angle
    )
