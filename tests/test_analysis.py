import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhssh import (
    AnalysisError,
    LatticeParams,
    PacketPairSpec,
    PacketSpec,
    build_hamiltonian,
    build_initial_state,
    build_pair_state,
    classify_growth,
    evolve,
    fwhm_interval,
    interference_report,
    measure,
    reflection_symmetry,
    translation_window,
)
from nhssh.analysis import norm_period
from reference import stacked_profiles


def test_classify_synthetic_linear():
    t = np.linspace(10, 100, 200)
    report = classify_growth(t, 0.3 * t + 2.0, (10, 100))
    assert report.label == "Linear"
    assert report.r_squared > 0.999
    assert report.fit_params["linear"]["slope"] == pytest.approx(0.3, rel=1e-6)


def test_classify_synthetic_exponential():
    t = np.linspace(10, 100, 200)
    report = classify_growth(t, 0.01 * np.exp(0.12 * t), (10, 100))
    assert report.label == "Exponential"
    assert report.fit_params["exponential"]["rate"] == pytest.approx(0.12, rel=1e-6)


def test_classify_synthetic_oscillatory():
    t = np.linspace(10, 100, 400)
    report = classify_growth(t, 1.0 - 0.9 * np.cos(0.8 * t), (10, 100))
    assert report.label == "Oscillatory"
    assert report.fit_params["drawdown"] <= 0.8


def test_classify_constant_is_indeterminate():
    t = np.linspace(0, 10, 100)
    with pytest.raises(AnalysisError, match="indeterminate"):
        classify_growth(t, np.ones(100), (0, 10))


def test_classify_needs_samples():
    t = np.linspace(0, 10, 30)
    with pytest.raises(AnalysisError, match="samples"):
        classify_growth(t, t, (0, 10))


def test_norm_period_reads_the_whole_curve():
    # a trapezoid of period 120 samples whose flat top carries a 6-sample ripple, as an off-center packet's norm
    # does: local maxima sit a ripple apart, while the lag that best matches the curve with itself is the period
    n = np.arange(500)
    t = 0.1 * n
    phase = n % 120
    wave = np.minimum(np.minimum(phase, 120 - phase) / 30.0, 1.0) + 0.01 * np.cos(2 * np.pi * n / 6)
    assert norm_period(t, wave, (3.0, 18.0)) == t[120]
    assert norm_period(t, 1e300 * wave, (3.0, 18.0)) == t[120]  # no square overflows


@pytest.mark.parametrize("seed", range(4))
def test_norm_period_matches_a_lag_by_lag_mean(seed):
    # the FFT form against the mean of (P(t + L) - P(t))^2 taken lag by lag, on a noisy wave of period 25.3
    rng = np.random.default_rng(seed)
    t = 0.5 * np.arange(300)
    norms = 2.0 + np.sin(2 * np.pi * t / 25.3) + 0.3 * rng.standard_normal(t.size)
    lags = np.arange(20, 71)
    msd = [np.mean((norms[L:] - norms[:-L]) ** 2) for L in lags]
    assert norm_period(t, norms, (10.0, 35.0)) == t[lags[np.argmin(msd)]]


def test_norm_period_refuses_what_has_none():
    t = np.linspace(0, 10, 101)
    for flat in (np.zeros(101), 7e-4 * (1.0 + 1e-16 * np.sin(t))):  # fig4's norm at gamma = 0 varies by 4e-19
        with pytest.raises(AnalysisError, match="indeterminate"):
            norm_period(t, flat, (2.0, 6.0))
    with pytest.raises(AnalysisError, match="no sample lag"):
        norm_period(t, np.sin(t), (0.01, 0.09))


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(-250.0, 250.0).map(lambda e: 10.0**e))
def test_classification_scale_invariant(scale):
    # past 1e154 and below 1e-154 the series' squares leave float range: R^2 is formed in the window's own units
    t = np.linspace(5, 50, 120)
    for series, label in (
        (t, "Linear"),
        (np.exp(0.2 * t), "Exponential"),
        (2.0 + np.sin(t), "Oscillatory"),
    ):
        report = classify_growth(t, scale * series, (5, 50))
        assert report.label == label


def test_growth_at_threshold_is_linear(traj_central, tau250):
    report = classify_growth(
        traj_central.times, traj_central.norms, (0.05 * tau250, 0.2 * tau250)
    )
    assert report.label == "Linear"
    assert report.r_squared > 0.99


def test_reflection_symmetry_about_quarter_period(traj_central, tau250):
    mismatch = reflection_symmetry(traj_central, tau250 / 4, tau250 / 8)
    assert mismatch < 0.10


def test_reflection_symmetry_stationary_state():
    # an exact eigenvector has a strictly constant profile, so the mirror
    # mismatch vanishes about any instant
    H = build_hamiltonian(LatticeParams(40, 0.9, 1.8))
    _, vecs = np.linalg.eig(H)
    traj = evolve(vecs[:, 7], H, 1.0, 40)
    assert reflection_symmetry(traj, 20.0, 15.0) < 1e-8


def test_reflection_symmetry_hermitian_wall_bounce():
    # control run: a narrow-band packet at the dispersionless quasimomentum
    # bouncing off the hard wall of a uniform Hermitian chain
    n = 240
    H = np.zeros((n, n), dtype=complex)
    for i in range(n - 1):
        H[i, i + 1] = H[i + 1, i] = 1.0
    sites = np.arange(n)
    # group velocity -2 sin(k) = -2: leftward, wall arrival near t = 30
    psi0 = np.exp(-((sites - 60.0) ** 2) / (2 * 20.0**2)) * np.exp(1j * (np.pi / 2) * sites)
    psi0 /= np.linalg.norm(psi0)
    traj = evolve(psi0, H, 0.5, 120)
    assert reflection_symmetry(traj, 30.0, 15.0) < 0.2


def test_reflection_symmetry_span_check(traj_central, tau250):
    with pytest.raises(AnalysisError):
        reflection_symmetry(traj_central, tau250 / 2, 3 * tau250 / 4)


def test_translation_window_preserves_norm(traj_pi6, tau250):
    report = translation_window(traj_pi6)
    assert report.norm_drift < 0.05
    # reflections near tau/12 and 5 tau/12, edge speed 2N/(tau/2)
    assert report.reflection_times[0] == pytest.approx(tau250 / 12, rel=0.15)
    assert report.reflection_times[1] == pytest.approx(5 * tau250 / 12, rel=0.15)
    assert abs(report.center_velocity) == pytest.approx(500 / (tau250 / 2), rel=0.10)


def test_central_packet_center_stays_put(traj_central):
    # the symmetric packet expands in place: its center never drifts even
    # though both edges reflect; there is no usable translation window
    centers = [measure(p).center for p in stacked_profiles(traj_central)[:: len(traj_central.times) // 16]]
    assert np.abs(np.asarray(centers) - 250.5).max() < 2.0


def test_translation_window_needs_reflections(params250, h250, tau250):
    spec = PacketSpec(np.pi / 6, 0.05)
    psi0 = build_initial_state(spec, params250)
    short = evolve(psi0, h250, tau250 / 1600, 40)  # ends before any bounce
    with pytest.raises(AnalysisError):
        translation_window(short)


def _intervals(singles):
    return [fwhm_interval(stacked_profiles(single)) for single in singles]


def test_interference_doubling_and_annihilation(pair_runs):
    plus_report = interference_report(pair_runs[+1][0], _intervals(pair_runs[+1][1:]))
    minus_report = interference_report(pair_runs[-1][0], _intervals(pair_runs[-1][1:]))
    assert plus_report.ratio_max == pytest.approx(2.0, rel=0.20)
    assert minus_report.ratio_min < 0.25


def test_interference_norm_additivity_when_separated(pair_runs):
    for sign in (+1, -1):
        pair_traj, traj1, traj2 = pair_runs[sign]
        report = interference_report(pair_traj, _intervals((traj1, traj2)))
        total = traj1.norms + traj2.norms
        usable = report.separated & (pair_traj.norms > 0.05 * pair_traj.norms.max())
        rel = np.abs(pair_traj.norms[usable] - total[usable]) / total[usable]
        assert rel.max() < 0.05


def test_interference_requires_a_meeting(params250, h250, tau250):
    # pair_runs' grid, stopped after 120 samples: before the packets meet
    pair = PacketPairSpec(np.pi / 6, 5 * np.pi / 6, 0.05, +1).normalized(250)
    psis = [build_pair_state(pair, params250), *(build_initial_state(s, params250) for s in pair.single_specs(250))]
    pair_traj, *singles = (evolve(psi, h250, tau250 / 1600, 119) for psi in psis)
    with pytest.raises(AnalysisError, match="never meet"):
        interference_report(pair_traj, _intervals(singles))
