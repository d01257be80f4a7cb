"""Accuracy gates: each layer the workloads time, against an independent reference.

The gates run after the timed window, on the tuned open chain at 2N = 500
(delta = 0.9), the lattice of ``lasing-norm`` and ``threshold-dynamics``.
They are the same on every workload, so a run's accuracy figures can be
read next to any of its timings.  Each returns ``(value, bound)``; a value
above its bound is a failed operation.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import scipy.linalg

from nhssh import (
    Boundary,
    LatticeParams,
    PacketSpec,
    build_hamiltonian,
    build_initial_state,
    dirac_norm_closed_form,
    evolve,
    lerch_phi,
    revival_period,
)

CELLS = 250
DELTA = 0.9
SAMPLES = 2000  # the CLI's default, used by every timed experiment
# few enough that the oracle and Lerch gates add about a second to a run
ORACLE_SAMPLES = 51
LERCH_PICKS = 4


def _tuned_chain() -> LatticeParams:
    return LatticeParams(CELLS, DELTA, 2.0 * DELTA, Boundary.OPEN)


def propagate_err_vs_expm() -> tuple[float, float]:
    """fig3's run: the stepped state at t_max against one dense expm(-iH t_max).

    Relative 2-norm error.  The bound, 1e-8, is about ten times what the
    1999 dense-propagator steps build up at the exceptional point, and far
    below anything visible in the figures.
    """
    params = _tuned_chain()
    H = build_hamiltonian(params)
    psi0 = build_initial_state(PacketSpec(math.pi / 2.0, 0.02), params)
    steps = SAMPLES - 1
    dt = 0.5 * revival_period(params) / steps
    stepped = evolve(psi0, H, dt, steps, record_states=True).states[-1]
    reference = scipy.linalg.expm(-1j * H * (dt * steps)) @ psi0
    return float(np.linalg.norm(stepped - reference) / np.linalg.norm(reference)), 1e-8


def oracle_norm_rms() -> tuple[float, float]:
    """fig4's packet (q = 0.05): closed-form against numeric Dirac norm.

    RMS over one waveform period (tau/2) divided by the numeric peak, with
    the bound fig4's own check applies.
    """
    params = _tuned_chain()
    spec = PacketSpec(math.pi / 2.0, 0.05).normalized(CELLS)
    steps = ORACLE_SAMPLES - 1
    dt = 0.5 * revival_period(params) / steps
    traj = evolve(build_initial_state(spec, params), build_hamiltonian(params), dt, steps)
    closed = dirac_norm_closed_form(traj.times, spec, params)
    rms = math.sqrt(float(np.mean((traj.norms - closed) ** 2)))
    return rms / float(traj.norms.max()), 0.15


def lerch_err_vs_mpmath() -> tuple[float, float]:
    """Largest |lerch_phi - mpmath.lerchphi| (30 digits) at lasing-norm's arguments.

    The arguments are ``z = exp(-4(q + i omega t))`` at ``LERCH_PICKS`` evenly
    spread sample times of fig3 (q = 0.02 over tau/2) and fig4 (q = 0.05
    over tau), with s = 2 and alpha = 1/2 as in the closed-form norm.
    The bound is ten times lerch_phi's default truncation tolerance.
    """
    params = _tuned_chain()
    tau = revival_period(params)
    omega = 2.0 * math.pi / tau
    worst = 0.0
    with mpmath.workdps(30):
        for q, t_max in ((0.02, 0.5 * tau), (0.05, tau)):
            for k in np.linspace(0, SAMPLES - 1, LERCH_PICKS).round().astype(int):
                t = t_max * k / (SAMPLES - 1)
                z = complex(np.exp(-4.0 * (q + 1j * omega * t)))
                reference = complex(mpmath.lerchphi(mpmath.mpc(z), 2, mpmath.mpf(1) / 2))
                worst = max(worst, abs(lerch_phi(z, 2.0, 0.5).value - reference))
    return worst, 1e-11


GATES = {
    "propagate.err_vs_expm": propagate_err_vs_expm,
    "oracle.norm_rms": oracle_norm_rms,
    "specfun.lerch_err_vs_mpmath": lerch_err_vs_mpmath,
}
