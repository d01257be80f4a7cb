import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhssh import (
    LatticeParams,
    PacketPairSpec,
    PacketSpec,
    analytic_dispersion,
    analytic_eigenstate,
    apply_antilinear,
    build_initial_state,
    dirac_norm_closed_form,
    direct_coalescing_overlap,
    evolve,
    evolved_state_closed_form,
    overlap_formula,
    packet_coefficients,
    revival_period,
)
from nhssh.oracle import _sawtooth, coefficient_lambda, normalizing_scale, superpose_eigenstates
from reference import stacked_profiles, triangle_wave_norm


def test_eigenstates_dirac_normalized(params250):
    for n in (1, 5, 20):
        for sign in (+1, -1):
            psi = analytic_eigenstate(n, sign, params250)
            assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("sign", [+1, -1])
def test_eigenstates_orthonormal_within_branch(params250, sign):
    basis = np.array([analytic_eigenstate(n, sign, params250) for n in range(1, 11)])
    gram = basis.conj() @ basis.T
    assert np.abs(gram - np.eye(10)).max() < 1e-12


def test_pt_eigenstate_identity(params250):
    # PT |n, s> = (-1)^n |n, s> with the principal-root constants
    for n in range(1, 11):
        for sign in (+1, -1):
            psi = analytic_eigenstate(n, sign, params250)
            assert np.abs(apply_antilinear("PT", psi) - (-1.0) ** n * psi).max() < 1e-12


def test_ct_eigenstate_identity(params250):
    # CT |n, s> = -i |n, -s>
    for n in range(1, 11):
        plus = analytic_eigenstate(n, +1, params250)
        minus = analytic_eigenstate(n, -1, params250)
        assert np.abs(apply_antilinear("CT", plus) - (-1j) * minus).max() < 1e-12
        assert np.abs(apply_antilinear("CT", minus) - (-1j) * plus).max() < 1e-12


def test_branches_nearly_coalesce(params250):
    # at the tuned gain the two branches overlap close to unity for small n;
    # this is the exceptional-point proximity that makes P(0) tiny
    plus = analytic_eigenstate(1, +1, params250)
    minus = analytic_eigenstate(1, -1, params250)
    assert abs(np.vdot(plus, minus)) > 0.999


def test_coefficients_vanish_for_even_n():
    spec = PacketSpec(np.pi / 2, 0.0)
    c = packet_coefficients(spec, 50)
    # sin(n pi/2) = 0 for even n, up to float pi rounding
    assert np.abs(c[1::2]).max() < 1e-14 * np.abs(c[0::2]).max()
    assert np.abs(c[0::2]).min() > 0.0


def test_coefficient_cutoff():
    spec = PacketSpec(np.pi / 2, 1.0)
    c = packet_coefficients(spec, 100)
    assert np.abs(c[41:]).max() == 0.0  # n*q > 40 dropped


def test_packet_without_weight_is_refused():
    # past q = 40 the e^-40 cutoff drops every term, and at kappa0 = 1e-300 every squared term underflows:
    # no scale exists, so none is made up; the specs themselves stay valid (a given scale needs no sum)
    for spec in (PacketSpec(np.pi / 2, 100.0), PacketSpec(1e-300, 0.02)):
        with pytest.raises(ValueError, match="no weight"):
            spec.normalized(250)


def test_subnormal_weight_is_refused():
    # a sum below the smallest normal double has lost its digits to underflow: refused, not inverted
    tiny = np.finfo(float).tiny
    assert normalizing_scale(tiny) == 1.0 / np.sqrt(tiny)
    for total in (tiny / 2, 5e-324, 0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="no weight"):
            normalizing_scale(total)
    with pytest.raises(ValueError, match="no weight"):
        PacketSpec(1e-160 * np.pi, 0.02).normalized(40)
    assert PacketSpec(1e-150 * np.pi, 0.02).normalized(40).lam < np.inf


def test_coefficient_normalization_q0():
    # 2 lam^2 sum_{odd n<=N} 1/n^2 = 1; the infinite sum gives 4/pi^2
    lam = coefficient_lambda(np.pi / 2, 0.0, 250)
    n = np.arange(1, 251)
    total = 2 * lam**2 * np.sum(np.sin(n * np.pi / 2) ** 2 / n**2)
    assert total == pytest.approx(1.0, rel=1e-14)
    assert lam**2 == pytest.approx(4 / np.pi**2, rel=3e-3)


def test_packet_spec_validation():
    with pytest.raises(ValueError):
        PacketSpec(0.0, 0.1)
    with pytest.raises(ValueError):
        PacketSpec(np.pi / 2, -0.1)
    for lam in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            PacketSpec(np.pi / 2, 0.1, lam=lam)
        with pytest.raises(ValueError):
            PacketPairSpec(np.pi / 6, 5 * np.pi / 6, 0.1, lam=lam)
    for q in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            PacketSpec(np.pi / 2, q)
        with pytest.raises(ValueError):
            PacketPairSpec(np.pi / 6, 5 * np.pi / 6, q)


def test_closed_form_matches_built_state_at_t0(params250):
    spec = PacketSpec(np.pi / 2, 0.02)
    numeric = np.abs(build_initial_state(spec, params250)) ** 2
    predicted = np.abs(evolved_state_closed_form(0.0, spec, params250)) ** 2
    assert np.abs(predicted - numeric).sum() / numeric.sum() < 0.10


@pytest.mark.parametrize("q", [0.0, 1e-9, 1e-3, 0.02, 0.05, 1.0])
def test_sawtooth_against_40_digit_log(q):
    # sum_n e^{-qn} sin(n theta)/n = Im(-log(1 - e^{-q + i theta})); theta = 0 is left out, where the
    # q = 0 series jumps.  arctan(sin/(e^q - cos)) was 4e-8 off at q = 1e-9 and 1.8e-14 at q = 1e-3
    theta = np.concatenate([np.linspace(-7.0, 7.0, 100), [1e-9, -1e-6, 1e-3, np.pi, 2 * np.pi - 1e-7]])
    with mpmath.workdps(40):
        reference = [float(mpmath.im(-mpmath.log(1 - mpmath.exp(mpmath.mpc(-q, th))))) for th in theta]
    assert np.abs(_sawtooth(theta, q) - reference).max() <= 4.5e-16


@pytest.mark.parametrize("m", [1, 4, 7])
def test_closed_form_center_position(params250, m):
    spec = PacketSpec(m * np.pi / 8, 0.02)
    profile = np.abs(evolved_state_closed_form(0.0, spec, params250)) ** 2
    sites = np.arange(1, 501)
    center = (sites * profile).sum() / profile.sum()
    assert abs(center - 500 * m / 8) <= 5.0


def test_triangle_wave_slope_and_peak(params250, tau250):
    spec = PacketSpec(np.pi / 2, 0.0).normalized(250)
    slope = 2 * spec.lam**2 * np.pi**2 / tau250
    t = np.linspace(0, tau250 / 4, 50)
    assert np.allclose(dirac_norm_closed_form(t, spec, params250), slope * t, atol=1e-12)
    peak = dirac_norm_closed_form(tau250 / 4, spec, params250)
    assert peak == pytest.approx(slope * tau250 / 4, rel=1e-12)
    assert peak == pytest.approx(2.0, rel=4e-3)  # lam^2 = 4/pi^2 gives slope 8/tau
    # descending flank and periodicity tau/2
    assert dirac_norm_closed_form(0.3 * tau250, spec, params250) == pytest.approx(
        slope * (tau250 / 2 - 0.3 * tau250), rel=1e-12
    )


def test_norm_formula_periodicity(params250, tau250):
    spec = PacketSpec(np.pi / 2, 0.05).normalized(250)
    for t in (0.1 * tau250, 0.2 * tau250):
        a = dirac_norm_closed_form(t, spec, params250)
        b = dirac_norm_closed_form(t + tau250, spec, params250)
        assert abs(a - b) < 1e-3


@pytest.mark.parametrize("q", [0.02, 0.05])
def test_norm_formula_array_and_scalar_t_agree(params250, tau250, q):
    # the batched Lerch sum over all samples must reproduce each sample's own call
    spec = PacketSpec(np.pi / 2, q).normalized(250)
    t = np.linspace(0.0, tau250, 41)
    batch = dirac_norm_closed_form(t, spec, params250)
    single = [dirac_norm_closed_form(tk, spec, params250) for tk in t]
    assert all(isinstance(value, float) for value in single)
    assert np.abs(batch - single).max() <= 1e-14 * np.abs(batch).max()


# id -> (kappa0 / pi, q, periods, bound on the error over the peak); the first two are fig3 and fig4.  Toward
# kappa0 = 0 the closed form's brackets cancel: measured 2.2e-16, 3.3e-16, 4.2e-16, 7.1e-16, 9.6e-16 and 1.7e-10
NORM_CASES = {
    "0.02-0.5": (0.5, 0.02, 0.5, 1e-15),
    "0.05-1.0": (0.5, 0.05, 1.0, 1e-15),
    "kappa0=pi/3": (1 / 3, 0.05, 1.0, 2e-15),
    "kappa0=pi/6": (1 / 6, 0.05, 1.0, 4e-15),
    "kappa0=9pi/10": (0.9, 0.05, 1.0, 4e-15),
    "kappa0=1e-4pi": (1e-4, 0.02, 0.5, 5e-10),
}


@pytest.mark.parametrize("kappa0_over_pi, q, periods, bound", NORM_CASES.values(), ids=NORM_CASES)
def test_norm_formula_against_30_digit_chi2(params250, tau250, kappa0_over_pi, q, periods, bound):
    # every 100th of 2000 samples, against P = sum_n 4 lam^2 e^{-2qn} sin^2(n kappa0) sin^2(n omega t)/n^2 summed
    # term by term in 30-digit arithmetic, up to e^{-2qn} = e^{-40}: no dilogarithm identity, nothing cancels
    spec = PacketSpec(kappa0_over_pi * np.pi, q).normalized(250)
    t = np.linspace(0.0, periods * tau250, 2000)[::100]
    omega = 2 * np.pi / tau250
    with mpmath.workdps(30):
        weights = [4 * mpmath.mpf(spec.lam) ** 2 * mpmath.exp(-2 * q * n) * mpmath.sin(n * mpmath.mpf(spec.kappa0)) ** 2
                   / n**2 for n in range(1, int(20 / q) + 1)]
        reference = np.array([
            float(mpmath.fsum(w * mpmath.sin(n * omega * mpmath.mpf(tk)) ** 2 for n, w in enumerate(weights, 1)))
            for tk in t
        ])
    assert np.abs(dirac_norm_closed_form(t, spec, params250) - reference).max() <= bound * reference.max()


@settings(max_examples=100, deadline=None)
@given(
    kappa0_over_pi=st.floats(0.01, 0.99),
    q=st.just(0.0) | st.floats(0.0, 2.0),
    cells=st.integers(2, 1000),
    delta=st.floats(0.05, 0.99),
    phases=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
)
def test_norm_formula_symmetries(kappa0_over_pi, q, cells, delta, phases):
    # P(0) = 0 exactly; P >= 0, P(t + tau/2) = P(t), P(tau/2 - t) = P(t) and kappa0 -> pi - kappa0 leaves P as it is,
    # each to 1e-12 of the peak: where P vanishes (t = tau/2) it reads a rounding of either sign, and toward the
    # domain's edges the brackets cancel as eps q/kappa0^2.  Measured at most 2.5e-13 over 9000 random cases
    params = LatticeParams(cells, delta, 2 * delta)
    half = revival_period(params) / 2
    t = half * np.array(phases)
    spec, mirrored = (PacketSpec(kappa0, q) for kappa0 in (kappa0_over_pi * np.pi, np.pi - kappa0_over_pi * np.pi))
    values = dirac_norm_closed_form(t, spec, params)
    assert dirac_norm_closed_form(0.0, spec, params) == 0.0
    bound = 1e-12 * max(values.max(), dirac_norm_closed_form(half / 2, spec, params))
    assert values.min() >= -bound
    for other in (dirac_norm_closed_form(t + half, spec, params), dirac_norm_closed_form(half - t, spec, params),
                  dirac_norm_closed_form(t, mirrored, params)):
        assert np.abs(other - values).max() <= bound


def test_q0_norm_agrees_with_triangle(params250, tau250):
    # the dilog expression on the unit circle must reproduce the explicit
    # triangle wave pointwise, its kinks included
    spec = PacketSpec(np.pi / 2, 0.0).normalized(250)
    t = np.concatenate([np.linspace(0.013 * tau250, tau250, 23), [0.0, tau250 / 4, tau250 / 2]])
    tri = triangle_wave_norm(t, spec, params250)
    assert np.abs(dirac_norm_closed_form(t, spec, params250) - tri).max() < 1e-12


def test_overlap_formula_limits(params250):
    # at fixed packet scale: q -> infinity drives the arctan (and the
    # overlap) to zero, and so does sin(kappa0) -> 0
    assert overlap_formula(PacketSpec(np.pi / 2, 50.0, lam=1.0), params250) < 1e-20
    assert overlap_formula(PacketSpec(1e-6, 0.05, lam=1.0), params250) < 1e-7
    # q = 0 saturates the arctan at pi/2
    spec0 = PacketSpec(np.pi / 2, 0.0).normalized(250)
    expected = np.sqrt(0.09) * spec0.lam / (250 * 0.9) * np.pi / 2
    assert overlap_formula(spec0, params250) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("q", [0.02, 0.05, 0.1])
def test_overlap_formula_against_direct(params250, q):
    spec = PacketSpec(np.pi / 2, q)
    formula = overlap_formula(spec, params250)
    direct = abs(direct_coalescing_overlap(spec, params250))
    assert abs(formula - direct) / direct < 0.20


def test_closed_form_norm_consistency_at_q0(params250, tau250):
    # the q = 0 compact form (triangular-ramp reduction) carries the same
    # normalization as the arctan form: its own Dirac norm must land on the
    # explicit triangle wave
    spec = PacketSpec(np.pi / 2, 0.0).normalized(250)
    for t in np.linspace(0.02 * tau250, 0.23 * tau250, 7):
        state_norm = (np.abs(evolved_state_closed_form(t, spec, params250)) ** 2).sum()
        assert state_norm == pytest.approx(triangle_wave_norm(t, spec, params250), abs=0.01)


def test_q0_profile_against_numerics(params250, h250, tau250):
    # sharp-edged q = 0 packet: the compact form tracks the numerics a bit
    # less tightly than at q > 0 (measured 0.14 L1 at tau/8)
    spec = PacketSpec(np.pi / 2, 0.0).normalized(250)
    psi0 = build_initial_state(spec, params250)
    traj = evolve(psi0, h250, tau250 / 8 / 50, 50)
    numeric = stacked_profiles(traj)[-1]
    predicted = np.abs(evolved_state_closed_form(tau250 / 8, spec, params250)) ** 2
    assert np.abs(predicted - numeric).sum() / numeric.sum() < 0.20


def test_evolved_profile_oracle(traj_central, params250, tau250):
    # numeric evolution vs compact form at t = 0, tau/8, tau/4
    spec = PacketSpec(np.pi / 2, 0.02).normalized(250)
    for t in (0.0, tau250 / 8, tau250 / 4):
        numeric = traj_central.profile_at(t)
        predicted = np.abs(evolved_state_closed_form(t, spec, params250)) ** 2
        l1 = np.abs(predicted - numeric).sum() / numeric.sum()
        assert l1 < 0.10, f"t={t}: L1/P = {l1}"


@pytest.mark.parametrize("traj, kappa0, q", [("traj_central", np.pi / 2, 0.02), ("traj_pi6", np.pi / 6, 0.05)],
                         ids=["traj_central", "traj_pi6"])
def test_norm_formula_tracks_numeric_curve(request, params250, traj, kappa0, q):
    # fig3's packet over tau, and fig6's over tau/2: measured RMS 0.075 and 0.082 of the peak
    traj = request.getfixturevalue(traj)
    spec = PacketSpec(kappa0, q).normalized(250)
    predicted = dirac_norm_closed_form(traj.times[::40], spec, params250)
    numeric = traj.norms[::40]
    rms = np.sqrt(np.mean((predicted - numeric) ** 2)) / numeric.max()
    assert rms < 0.15


@pytest.mark.parametrize("cells", [7, 30])
@pytest.mark.parametrize("t", [0.0, 3.7])
def test_superpose_matches_eigenstate_sum(cells, t):
    # the sine transform against the plain sum over analytic eigenstates
    params = LatticeParams(cells, 0.9, 1.8)
    c = packet_coefficients(PacketSpec(np.pi / 3, 0.02), cells)
    reference = np.zeros(2 * cells, dtype=complex)
    for n in range(1, cells + 1):
        eps = analytic_dispersion(n, params)[0]
        reference += c[n - 1] * np.exp(-1j * eps * t) * analytic_eigenstate(n, +1, params)
        reference -= c[n - 1] * np.exp(+1j * eps * t) * analytic_eigenstate(n, -1, params)
    got = superpose_eigenstates(c, params, t)
    assert np.abs(got - reference).max() < 1e-14 * np.abs(reference).max()
