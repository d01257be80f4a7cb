import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhssh import (
    Boundary,
    LatticeParams,
    PacketPairSpec,
    PacketSpec,
    apply_antilinear,
    build_hamiltonian,
    build_initial_state,
    build_pair_state,
    coalescing_state,
    fwhm_interval,
    measure,
    shape_distance,
)
from nhssh.states import smoothed_profile
from reference import stacked_profiles


def test_coalescing_state_small():
    phi = coalescing_state(2)
    assert np.allclose(phi, 0.5 * np.array([-1.0, -1j, 1.0, 1j]))
    assert np.vdot(phi, phi).real == pytest.approx(1.0, abs=1e-15)


def test_coalescing_state_rejects_odd():
    with pytest.raises(ValueError):
        coalescing_state(5)


@pytest.mark.parametrize("delta", [0.5, 0.8, 0.9])
def test_coalescing_state_annihilated_by_conjugate_ring(delta):
    params = LatticeParams(250, delta, 2 * delta, Boundary.PERIODIC)
    H = build_hamiltonian(params)
    phi = coalescing_state(250)
    assert np.abs(H.conj().T @ phi).max() < 1e-13


def test_packet_center(params250):
    psi = build_initial_state(PacketSpec(np.pi / 2, 0.02), params250)
    m = measure(np.abs(psi) ** 2)
    assert abs(m.center - 250) <= 5.0
    assert m.dirac_norm == pytest.approx(np.vdot(psi, psi).real, rel=1e-12)


def test_packet_center_off_center():
    params = LatticeParams(1000, 0.9, 1.8)
    psi = build_initial_state(PacketSpec(np.pi / 8, 0.02), params)
    assert abs(measure(np.abs(psi) ** 2).center - 250) <= 5.0


def test_packet_translation_covariance():
    # kappa0 -> kappa0' translates the shape by 2N (kappa0-kappa0')/pi sites;
    # holds at the 2N = 2000 scale where one eighth-step is an even shift
    params = LatticeParams(1000, 0.9, 1.8)
    a = np.abs(build_initial_state(PacketSpec(np.pi / 2, 0.02), params)) ** 2
    b = np.abs(build_initial_state(PacketSpec(np.pi / 4, 0.02), params)) ** 2
    assert shape_distance(b, a, -500) < 0.05


def test_packet_symmetry_phases(params250):
    # central packet: PT flips the sign (odd-n support), CT multiplies by i;
    # both leave the probability profile symmetric
    psi = build_initial_state(PacketSpec(np.pi / 2, 0.02), params250)
    assert np.abs(apply_antilinear("PT", psi) + psi).max() < 1e-10
    assert np.abs(apply_antilinear("CT", psi) - 1j * psi).max() < 1e-10
    profile = np.abs(psi) ** 2
    assert np.abs(profile - profile[::-1]).sum() / profile.sum() < 1e-10


def test_pair_state_two_lobes(params250):
    pair = PacketPairSpec(np.pi / 6, 5 * np.pi / 6, 0.05, +1)
    profile = np.abs(build_pair_state(pair, params250)) ** 2
    left, right = profile[:250], profile[250:]
    assert (np.arange(1, 251) * left).sum() / left.sum() == pytest.approx(83.3, abs=5)
    assert 250 + (np.arange(1, 251) * right).sum() / right.sum() == pytest.approx(416.7, abs=5)


def test_pair_requires_distinct_positions():
    with pytest.raises(ValueError):
        PacketPairSpec(np.pi / 6, np.pi / 6, 0.05, -1)


def test_pair_linearity(params250):
    # Psi_+ + Psi_- = sqrt(2) * single packet at kappa01 (shared scale)
    lam = 0.3
    plus = build_pair_state(PacketPairSpec(np.pi / 6, 5 * np.pi / 6, 0.05, +1, lam=lam), params250)
    minus = build_pair_state(PacketPairSpec(np.pi / 6, 5 * np.pi / 6, 0.05, -1, lam=lam), params250)
    single = build_initial_state(PacketSpec(np.pi / 6, 0.05, lam=lam), params250)
    assert np.abs(plus + minus - np.sqrt(2) * single).max() < 1e-12


def test_cancelling_pair_is_refused():
    # at q = 30 only n = 1 survives the cutoff, where sin(pi/6) and sin(5pi/6) are the same double
    with pytest.raises(ValueError, match="no weight"):
        PacketPairSpec(np.pi / 6, 5 * np.pi / 6, 30.0, -1).normalized(250)
    assert PacketPairSpec(np.pi / 6, 5 * np.pi / 6, 30.0, +1).normalized(250).lam > 0.0


def test_pair_single_specs_share_scale(params250):
    pair = PacketPairSpec(np.pi / 6, 5 * np.pi / 6, 0.05, +1).normalized(250)
    s1, s2 = pair.single_specs(250)
    assert s1.lam == s2.lam == pytest.approx(pair.lam / np.sqrt(2), rel=1e-15)
    # when separated in space the pair norm is the sum of the single norms
    norm = lambda psi: measure(np.abs(psi) ** 2).dirac_norm
    p_pair = norm(build_pair_state(pair, params250))
    p_sum = norm(build_initial_state(s1, params250)) + norm(build_initial_state(s2, params250))
    assert p_pair == pytest.approx(p_sum, rel=0.05)


def test_measure_uniform_block():
    profile = np.zeros(400)
    profile[100:200] = 1.0  # sites 101..200
    m = measure(profile)
    assert m.center == pytest.approx(150.5, abs=1e-9)
    assert abs(m.width - 100) <= 4


def test_measure_coalescing_state():
    m = measure(np.abs(coalescing_state(250)) ** 2)
    assert m.center == pytest.approx(250.5, abs=1e-9)
    assert abs(m.width - 500) <= 4


def test_measure_rejects_zero_state():
    with pytest.raises(ValueError):
        measure(np.zeros(10))


def test_measure_rejects_amplitudes(params250):
    # a complex array is an amplitude vector, not a profile: casting it would keep its real part alone
    psi = build_initial_state(PacketSpec(np.pi / 2, 0.02), params250)
    with pytest.raises(ValueError, match=r"probability profile \|psi\|\^2"):
        measure(psi)


def test_fwhm_interval_plateau():
    profile = np.zeros(200)
    profile[40:80] = 2.0
    lo, hi = fwhm_interval(profile)
    assert 37 <= lo <= 43
    assert 77 <= hi <= 83


def test_width_grows_linearly(traj_central, tau250):
    # flat-top expansion: the width halfway to the turning point is about
    # half the full-chain width reached at tau/4
    w8 = measure(traj_central.profile_at(tau250 / 8)).width
    w4 = measure(traj_central.profile_at(tau250 / 4)).width
    assert 0.4 <= w8 / w4 <= 0.6


def test_revival_and_mirror(traj_central, tau250):
    # profile scale is set by the peak norm of the lasing cycle: the norm
    # at t = 0 is nearly zero at the tuned gain and cannot normalize
    peak = traj_central.norms.max()
    p0 = stacked_profiles(traj_central)[0]
    revival = np.abs(traj_central.profile_at(tau250) - p0).sum() / peak
    mirror = np.abs(traj_central.profile_at(tau250 / 2) - p0[::-1]).sum() / peak
    assert revival < 0.10
    assert mirror < 0.10


def _convolved(profile):
    # np.convolve's "same" 4-site average; below 4 sites "same" keeps the window's length, so the centered
    # slice of "full" stands in for it (the two agree from 4 sites on)
    return np.convolve(profile, np.ones(4) / 4, mode="full")[1 : 1 + len(profile)]


def _fwhm_one_by_one(profile):
    # the per-profile reference: np.convolve's 4-site moving average, then the half-maximum sites
    sm = _convolved(profile)
    idx = np.nonzero(sm >= 0.5 * sm.max())[0]
    return int(idx[0]) + 1, int(idx[-1]) + 1


def test_fwhm_interval_stack_matches_loop(traj_pi6):
    profiles = stacked_profiles(traj_pi6)
    ends = fwhm_interval(profiles)
    assert ends.shape == (len(profiles), 2)
    assert np.array_equal(ends, [_fwhm_one_by_one(p) for p in profiles])
    assert np.array_equal(fwhm_interval(profiles[5]), _fwhm_one_by_one(profiles[5]))  # one profile: shape (2,)
    assert np.array_equal(smoothed_profile(profiles), [np.convolve(p, np.ones(4) / 4, mode="same") for p in profiles])



_PROFILES = {
    # 2 to 4 sites, where windows run past both ends; below 4 sites np.convolve swaps its arguments and sums
    # right to left, so those profiles are integers, whose sums are exact in any order
    "2-sites": np.array([3.0, 7.0]),
    "3-sites": np.array([5.0, 1.0, 9.0]),
    "4-sites": np.random.default_rng(4).random(4),
    "leading-axes": np.random.default_rng(5).random((3, 2, 40)) ** 8,
    # a 4-site plateau smooths to 1/4, 1/2, 3/4, 1, 3/4, 1/2, 1/4: exactly half the maximum at sites 5 and 9
    "half-maximum-tie": np.repeat([0.0, 1.0, 0.0], 4),
    "near-1e-300": np.ldexp(np.random.default_rng(6).random(50), -1000),  # the 1/4 scaling has to stay exact
}


@pytest.mark.parametrize("case", list(_PROFILES))
def test_smoothing_and_fwhm_match_convolve(case):
    profile = _PROFILES[case]
    rows = profile.reshape(-1, profile.shape[-1])
    assert np.array_equal(smoothed_profile(profile), np.reshape([_convolved(p) for p in rows], profile.shape))
    ends = np.reshape([_fwhm_one_by_one(p) for p in rows], profile.shape[:-1] + (2,))
    assert np.array_equal(fwhm_interval(profile), ends)
    if case == "half-maximum-tie":
        assert np.array_equal(smoothed_profile(profile)[3:10], [0.25, 0.5, 0.75, 1.0, 0.75, 0.5, 0.25])
        assert np.array_equal(ends, [5, 9])


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(1, 70),
    sites=st.integers(1, 600),
    values=st.sampled_from(["uniform", "near-2^-1000", "plateaus", "edge-maximum"]),
    layout=st.sampled_from(["contiguous", "every-other-row", "transposed"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_whole_buffer_smoothing_matches_convolve_row_by_row(rows, sites, values, layout, seed):
    # smoothed_profile sums the rows laid end to end, across row boundaries, and then sums each row's sites 0, 1
    # and n-1 again: every row must still match np.convolve on that row alone, bit for bit
    rng = np.random.default_rng(seed)
    profile = rng.random((rows, sites))
    if sites < 4:  # np.convolve sums right to left there (see _PROFILES): integers, whose sums are exact
        profile = np.floor(8.0 * profile)
    if values == "near-2^-1000":
        profile = np.ldexp(profile, -1000)
    elif values == "plateaus":  # runs of equal levels: ties at the maximum and at half of it
        run = int(rng.integers(1, 9))
        profile = np.repeat(rng.integers(0, 3, (rows, sites // run + 1)), run, axis=1)[:, :sites].astype(float)
    elif values == "edge-maximum":
        profile[np.arange(rows), rng.choice([0, sites - 1], rows)] = 8.0
    if layout == "every-other-row":
        spaced = rng.random((2 * rows, sites))
        spaced[::2] = profile
        profile = spaced[::2]
    elif layout == "transposed":
        profile = np.ascontiguousarray(profile.T).T
    assert smoothed_profile(profile).tobytes() == np.array([_convolved(row) for row in profile]).tobytes()
    assert np.array_equal(fwhm_interval(profile), [_fwhm_one_by_one(row) for row in profile])
