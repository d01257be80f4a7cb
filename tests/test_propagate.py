import functools
from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest

from nhssh import (
    Boundary,
    LatticeParams,
    PacketSpec,
    analytic_eigenstate,
    build_hamiltonian,
    build_initial_state,
    coalescing_state,
    evolve,
    expm,
    fwhm_interval,
    revival_period,
)
from nhssh.lattice import build_chain
from nhssh.propagate import BLOCK, decompose
from reference import (
    loss_amplitudes,
    open_root_mpmath,
    profiles_by_sublattice,
    stacked_profiles,
    taylor_expm,
    two_basis_modes,
)


def test_expm_of_zero_is_identity():
    assert np.array_equal(expm(np.zeros((5, 5))), np.eye(5))


def test_expm_group_inverse():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    A /= np.linalg.norm(A, 2)
    prod = expm(A) @ expm(-A)
    assert np.abs(prod - np.eye(8)).max() < 1e-10


def test_expm_nilpotent_block_exact():
    # the series terminates: expm(t*J) = [[1, t], [0, 1]]; below the
    # squaring threshold the Pade evaluation is bit-exact, above it the
    # repeated squaring leaves only rounding
    for t in (0.5, 2.0):
        J = np.array([[0.0, t], [0.0, 0.0]])
        assert np.array_equal(expm(J), np.array([[1.0, t], [0.0, 1.0]]))
    big = expm(np.array([[0.0, 37.0], [0.0, 0.0]]))
    assert np.abs(big - np.array([[1.0, 37.0], [0.0, 1.0]])).max() < 1e-13


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_expm_matches_taylor_oracle(seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    A *= 0.8 / np.linalg.norm(A, 2)
    diff = np.abs(expm(A) - taylor_expm(A)).max()
    assert diff < 1e-10


def test_expm_input_validation():
    with pytest.raises(ValueError):
        expm(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        expm(np.array([[np.inf, 0.0], [0.0, 0.0]]))


def test_propagator_unitary_for_hermitian():
    H = build_hamiltonian(LatticeParams(20, 0.9, 0.0))
    U = expm(-1j * H * 0.37)
    assert np.abs(U.conj().T @ U - np.eye(40)).max() < 1e-12


def test_propagator_generator_limit():
    H = build_hamiltonian(LatticeParams(6, 0.7, 1.1))
    dt = 1e-6
    U = expm(-1j * H * dt)
    assert np.abs((U - np.eye(12)) / dt - (-1j * H)).max() < 1e-4


def test_jordan_block_linear_growth():
    # ring at the exceptional point: the coalescing chain gives
    # e^{-iHt} phi_c = phi_c + 4*delta*t*conj(phi_c), exactly linear
    delta, cells = 0.9, 12
    params = LatticeParams(cells, delta, 2 * delta, Boundary.PERIODIC)
    H = build_hamiltonian(params)
    phi = coalescing_state(cells)
    traj = evolve(phi, H, 0.25, 40, record_states=True)
    overlaps = []
    for t, psi in zip(traj.times[1:], traj.states[1:]):
        assert np.abs(psi - (phi + 4 * delta * t * phi.conj())).max() < 1e-10 * (1 + t)
        overlaps.append(abs(phi @ psi))  # bilinear overlap extracts the growth
    slope = np.polyfit(traj.times[1:], overlaps, 1)[0]
    assert slope == pytest.approx(4 * delta, rel=1e-8)
    # Dirac norm grows with the square, the Jordan power law
    assert traj.norms[-1] == pytest.approx(1 + (4 * delta * 10.0) ** 2, rel=1e-9)


@functools.lru_cache(maxsize=None)
def _mpmath_evolved(params: LatticeParams) -> tuple[float, np.ndarray, np.ndarray]:
    """The packet and its state half a period in, by a 30-digit expm of the dense H."""
    H = build_hamiltonian(params)
    psi0 = build_initial_state(PacketSpec(np.pi / 2, 0.02), params)
    t = 0.5 * revival_period(params)
    with mpmath.workdps(30):
        U = mpmath.expm(mpmath.matrix(H.tolist()) * mpmath.mpc(0, -t))
        return t, psi0, np.array([complex(x) for x in U * mpmath.matrix(psi0.tolist())])


# (gamma, delta, structured): the dense H and the chain itself, at delta = 0.9 and at the smallest
# delta fig5 takes (where every gain but 0 lies far above gamma_c = 0.1); the first cases keep
# their plain "gamma-boundary" ids
_EXPM_CASES = [
    (gamma, delta, structured)
    for delta in (0.9, 0.05)
    for structured in (False, True)
    for gamma in (0.0, 1.7, 1.8, 1.9)
]


@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
@pytest.mark.parametrize(
    "gamma,delta,structured",
    _EXPM_CASES,
    ids=[f"{g}" + (f"-delta{d}" if d != 0.9 else "") + ("-chain" if c else "") for g, d, c in _EXPM_CASES],
)
def test_evolve_matches_mpmath_expm(gamma, delta, structured, boundary):
    # 30-digit reference without gain, below, at and above the exceptional point
    # gamma_c = 1.8 (where the ring is defective), half a period in, for the dense H
    # and for its chain
    params = LatticeParams(12, delta, gamma, boundary)
    H = build_hamiltonian(params)
    t, psi0, reference = _mpmath_evolved(params)
    traj = evolve(psi0, build_chain(params) if structured else H, t / 4, 4, record_states=True)
    err = np.linalg.norm(traj.states[-1] - reference) / np.linalg.norm(reference)
    assert err < 1e-10


def test_evolve_composition_consistency():
    params = LatticeParams(30, 0.9, 1.8)
    H = build_hamiltonian(params)
    rng = np.random.default_rng(11)
    psi0 = rng.normal(size=60) + 1j * rng.normal(size=60)
    psi0 /= np.linalg.norm(psi0)
    fine = evolve(psi0, H, 0.05, 200, record_states=True)
    coarse = evolve(psi0, H, 0.10, 100, record_states=True)
    dist = np.linalg.norm(fine.states[-1] - coarse.states[-1]) / np.linalg.norm(coarse.states[-1])
    assert dist < 1e-9


@pytest.mark.parametrize("steps,components", [(50, 1), (3 * BLOCK + 5, 2)], ids=["one-block", "four-blocks-complex"])
def test_evolve_norms_match_profiles(steps, components):
    # norms and profiles read one block recurrence: within one block of a CT-real state, and across block
    # edges for a random complex state, which keeps both CT components
    params = LatticeParams(30, 0.9, 1.8)
    H = build_hamiltonian(params)
    if components == 1:
        psi0 = coalescing_state(30)
    else:
        rng = np.random.default_rng(17)
        psi0 = rng.normal(size=60) + 1j * rng.normal(size=60)
    traj = evolve(psi0, H, 0.1, steps)
    assert traj.components == components
    assert np.abs(traj.norms - stacked_profiles(traj).sum(axis=1)).max() < 1e-12 * traj.norms.max()
    assert np.all(np.diff(traj.times) > 0)
    assert np.allclose(np.diff(traj.times), traj.dt)


def test_evolve_unitary_norm_conservation():
    params = LatticeParams(40, 0.9, 0.0)
    H = build_hamiltonian(params)
    rng = np.random.default_rng(5)
    psi0 = rng.normal(size=80) + 1j * rng.normal(size=80)
    psi0 /= np.linalg.norm(psi0)
    traj = evolve(psi0, H, 1.0, 400)
    assert np.abs(traj.norms - 1.0).max() < 1e-8


def test_eigenstate_profile_is_stationary(params250, h250, tau250):
    # the analytic mode stays put: no transport, only a bounded wobble from
    # the strong-dimerization approximation (measured 0.12 max L1 over half
    # a period at 2N = 500, delta = 0.9; a generic packet moves by O(1))
    psi = analytic_eigenstate(1, +1, params250)
    profiles = stacked_profiles(evolve(psi, h250, tau250 / 32, 16))
    p0 = profiles[0]
    for k in range(1, 17):
        assert np.abs(profiles[k] - p0).sum() / p0.sum() < 0.15
    center0 = np.sum(np.arange(1, 501) * p0) / p0.sum()
    for k in (8, 16):
        profile = profiles[k]
        center = np.sum(np.arange(1, 501) * profile) / profile.sum()
        assert abs(center - center0) < 10.0  # mode spans all 500 sites


def test_quasi_symmetric_profiles(traj_central):
    # the central packet keeps a mirror-symmetric profile at every instant
    # where the norm is appreciable; near the revival instants the norm
    # drops to the dephasing floor and the ratio loses meaning
    peak = traj_central.norms.max()
    profiles = stacked_profiles(traj_central)
    for k in range(0, len(traj_central.times), 24):
        profile = profiles[k]
        mismatch = np.abs(profile - profile[::-1]).sum() / traj_central.norms[k]
        if traj_central.norms[k] > 0.05 * peak:
            assert mismatch < 0.05
        else:
            assert mismatch < 0.25


def test_expm_overflow_reported():
    with pytest.raises(OverflowError):
        expm(np.diag([5000.0, 0.0]))


def test_evolve_validation():
    H = build_chain(LatticeParams(2, 0.5, 0.0))
    assert evolve(np.ones(4, dtype=complex), H, 0.1, 5).norms[0] == pytest.approx(4.0)  # a valid run
    with pytest.raises(ValueError):
        evolve(np.zeros(3, dtype=complex), H, 0.1, 5)
    with pytest.raises(ValueError):
        evolve(np.zeros(4, dtype=complex), H, 0.1, 0)
    for dt in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            evolve(np.zeros(4, dtype=complex), H, dt, 5)
    # a non-finite entry is a bad input, not an overflow of the run
    chain = build_chain(LatticeParams(10, 0.9, 1.8))
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        state0 = np.zeros(20, dtype=complex)
        state0[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            evolve(state0, chain, 0.1, 5)


def test_evolve_rejects_gain_with_zero_mode():
    # gain/loss/gain: the odd chain has a zero mode with no -lam partner
    H = np.array([[1.8j, 1.0, 0.0], [1.0, -1.8j, 1.0], [0.0, 1.0, 1.8j]])
    with pytest.raises(ValueError, match="singular"):
        evolve(np.array([1.0, 0.0, 0.0], dtype=complex), H, 0.1, 5)


def test_trajectory_index_lookup():
    H = build_chain(LatticeParams(2, 0.5, 0.0))
    traj = evolve(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex), H, 0.5, 10)
    assert traj.index_at(2.49) == 5
    with pytest.raises(ValueError):
        traj.index_at(5.5)


@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
@pytest.mark.parametrize("gamma", [0.0, 1.7, 1.8, 1.9])
def test_parseval_norms_match_states(gamma, boundary):
    # the norms come from the mode amplitudes alone, the states from the bases: the two must agree
    # at every sample, below, at and above the exceptional point and without gain
    params = LatticeParams(30, 0.9, gamma, boundary)
    psi0 = build_initial_state(PacketSpec(np.pi / 6, 0.05), params)
    t = 0.5 * revival_period(params)
    traj = evolve(psi0, build_hamiltonian(params), t / 300, 300, record_states=True)
    direct = (np.abs(traj.states) ** 2).sum(axis=1)
    assert np.abs(traj.norms / direct - 1.0).max() <= 1e-13


@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
def test_general_state_keeps_both_components(boundary):
    # a random complex state is CT-real up to no phase: it keeps chi_2, and its profiles, norms and
    # states still match the dense propagator, across block edges and at the exceptional point
    params = LatticeParams(20, 0.9, 1.8, boundary)
    H = build_hamiltonian(params)
    rng = np.random.default_rng(7)
    psi0 = rng.normal(size=40) + 1j * rng.normal(size=40)
    traj = evolve(psi0, H, 0.2, 2 * BLOCK + 5, record_states=True)
    assert traj.components == 2
    profiles = stacked_profiles(traj)
    for k in (1, BLOCK - 1, BLOCK, 2 * BLOCK + 5):
        reference = expm(-1j * H * traj.times[k]) @ psi0
        scale = np.linalg.norm(reference)
        assert np.linalg.norm(traj.states[k] - reference) <= 1e-12 * scale
        assert np.abs(profiles[k] - np.abs(reference) ** 2).max() <= 1e-12 * scale**2
        assert traj.norms[k] == pytest.approx(scale**2, rel=1e-12)


def test_ct_real_state_keeps_one_component():
    # C psi* = psi: real gain, imaginary loss amplitudes; any global phase is turned away, and the state comes back
    params = LatticeParams(20, 0.9, 1.9)
    H = build_hamiltonian(params)
    rng = np.random.default_rng(8)
    ct_real = rng.normal(size=40) * np.resize([1.0, 1j], 40)
    for phase in (1.0, np.exp(0.7j), -1j):
        traj = evolve(phase * ct_real, H, 0.2, BLOCK + 3, record_states=True)
        assert traj.components == 1
        reference = expm(-1j * H * traj.times[-1]) @ (phase * ct_real)
        assert np.linalg.norm(traj.states[-1] - reference) <= 1e-12 * np.linalg.norm(reference)


def test_profiles_on_demand_agree():
    params = LatticeParams(30, 0.9, 1.8)
    psi0 = build_initial_state(PacketSpec(np.pi / 6, 0.05), params)
    H = build_hamiltonian(params)
    steps = 4 * BLOCK + BLOCK // 2  # the last block holds only BLOCK // 2 + 1 samples
    fresh = evolve(psi0, H, 0.7, steps)
    assert fresh.states is None  # not requested
    traj = evolve(psi0, H, 0.7, steps, record_states=True)
    profiles = stacked_profiles(traj)
    edges = [0, 1, BLOCK - 1, BLOCK, 2 * BLOCK + 3, 4 * BLOCK - 1, 4 * BLOCK, steps]  # across block edges
    # the samples read together go through c and s at each time and U's tables: equal to the blocks up to rounding
    for k, single in zip(edges, fresh.profiles(edges), strict=True):
        peak = profiles[k].max()
        assert np.abs(single - profiles[k]).max() <= 1e-13 * peak
        assert np.abs(fresh.profile_at(traj.times[k]) - single).max() <= 1e-13 * peak  # alone, as read together
        assert np.abs(profiles[k] - np.abs(traj.states[k]) ** 2).max() <= 1e-13 * peak
    assert traj.states is traj.states  # formed once
    assert np.array_equal(stacked_profiles(fresh), profiles)
    # the blocks are BLOCK samples of one buffer, refilled in place; the last holds the rest
    blocks = [(start, block) for start, block in fresh.profile_blocks()]
    assert [start for start, _ in blocks] == list(range(0, steps + 1, BLOCK))
    assert [len(block) for _, block in blocks] == [BLOCK] * 4 + [BLOCK // 2 + 1]
    assert all(np.shares_memory(block, blocks[0][1]) for _, block in blocks)


@pytest.mark.parametrize("state", ["packet", "complex"])
@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC], ids=["open", "ring"])
@pytest.mark.parametrize("cells,bound", [(20, 1e-15), (250, 1e-14)])
def test_block_kernel_matches_two_products_per_sublattice(cells, bound, boundary, state):
    # one GEMM per block for both sublattices and every component, into workspace reused across blocks, against
    # two products per block with the parity sign on the coefficient rows: profile blocks, single profiles and
    # states, for one component (packet) and two (complex), up to a partial last block. At 2N = 40 they agree
    # to the rounding of |psi|^2 from the states (at most 6.8e-16 of a sample's peak measured); at 2N = 500
    # OpenBLAS sums in an order that depends on the number of rows, and stacking both sublattices moves
    # the profiles by up to 5.3e-15 of the peak. Every block's half-maximum intervals stay the same.
    # A single profile takes c and s directly, in long double (Modes.profiles), where the blocks take them by
    # angle addition in double, whose k*t rounding grows with t: by tau/2 the two-product rows are 2.9e-15
    # (2N = 40) and 9.1e-15 (2N = 500) of the peak off long-double products, and profile_at 7.6e-16 and
    # 1.5e-15. profile_at is held to the rows at 6e-15 and 2e-14, twice the most measured between them
    # (3.0e-15 and 9.1e-15), rounded up
    params = LatticeParams(cells, 0.9, 1.8, boundary)
    if state == "packet":
        psi0 = build_initial_state(PacketSpec(np.pi / 6, 0.05), params)
    else:
        rng = np.random.default_rng(cells)
        psi0 = rng.normal(size=2 * cells) + 1j * rng.normal(size=2 * cells)
    steps = 4 * BLOCK + BLOCK // 2  # the last block holds only BLOCK // 2 + 1 samples
    traj = evolve(psi0, build_chain(params), 0.5 * revival_period(params) / steps, steps, record_states=True)
    assert traj.components == (1 if state == "packet" else 2)
    reference = profiles_by_sublattice(traj)
    peak = reference.max(axis=1, keepdims=True)
    for start, block in traj.profile_blocks():
        rows = slice(start, start + len(block))
        assert (np.abs(block - reference[rows]) <= bound * peak[rows]).all(), start
        assert np.array_equal(fwhm_interval(block), fwhm_interval(reference[rows])), start
    single = {20: 6e-15, 250: 2e-14}[cells]
    for k in (0, BLOCK - 1, BLOCK, 2 * BLOCK + 3, steps):
        assert np.abs(traj.profile_at(traj.times[k]) - reference[k]).max() <= single * peak[k, 0], k
    assert (np.abs(np.abs(traj.states) ** 2 - reference) <= bound * peak).all()


def _longdouble_cs(modes, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c and s at the long-double times t (rows) of every mode (columns), each taken directly, in long double."""
    x = modes.x.astype(np.longdouble)
    k = np.sqrt(np.abs(x))
    kt = t[:, None] * k
    grow = x < 0
    c = np.where(grow, np.cosh(np.where(grow, kt, 0)), np.cos(kt))
    s = np.where(grow, np.sinh(np.where(grow, kt, 0)), np.sin(kt))
    return c, np.where(k > 0, s / np.where(k > 0, k, 1), t[:, None])


def _longdouble_norms(modes, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """sum |c*a + s*b|^2 over the modes with c and s of every sample taken directly, in long double."""
    ld = np.longdouble
    a, b = (np.stack((u.real, u.imag)).astype(ld) for u in modes.amplitudes(psi0))
    aa, ab, bb = ((u * v).sum(axis=(0, 1)) for u, v in ((a, a), (a, b), (b, b)))
    c, s = _longdouble_cs(modes, np.arange(times.size, dtype=ld) * ld(times[1] - times[0]))
    return (c * c * aa + 2 * c * s * ab + s * s * bb).sum(axis=1)


_LONG_DOUBLE = pytest.mark.skipif(np.finfo(np.longdouble).precision < 18, reason="long double is double here")


@_LONG_DOUBLE
@pytest.mark.parametrize(
    "delta,q,tmax_over_tau,gain_offset,relative_to",
    [
        (0.9, 0.02, 0.5, 0.0, "sample"),
        (0.9, 0.05, 1.0, 0.0, "sample"),
        (0.9, 0.02, 0.25, -0.1, "sample"),
        (0.9, 0.02, 0.25, 0.0, "sample"),
        (0.9, 0.02, 0.25, 0.1, "sample"),
        (0.8, 0.05, 1.0, 0.0, "peak"),
        (0.98, 0.05, 1.0, 0.0, "peak"),
    ],
    ids=["fig3", "fig4", "fig5-below", "fig5-at", "fig5-above", "fig4-delta0.8", "fig4-delta0.98"],
)
def test_norms_match_long_double(delta, q, tmax_over_tau, gain_offset, relative_to):
    # each block's norms are an expanded quadratic form in the offset table, which cancels more the
    # longer the block; the figures' runs at 2 000 samples stay within 2e-13 of a long-double
    # evaluation of the same modes (1.37e-13 measured with 64-sample blocks, 1.22e-12 with 128).
    # fig4 at delta = 0.8 and 0.98 is 3.7e-13 and 1.9e-13 off where its norm dips, and within
    # 2.6e-15 of its peak norm, which bounds it here (ROADMAP item 6)
    params = LatticeParams(250, delta, 2 * delta)
    modes = decompose(build_chain(params)).at_gamma(params.gamma_c + gain_offset)
    psi0 = build_initial_state(PacketSpec(np.pi / 2, q), params)
    traj = evolve(psi0, modes, tmax_over_tau * revival_period(params) / 1999, 1999)
    reference = _longdouble_norms(modes, psi0, traj.times)
    error = np.abs(traj.norms - reference)
    if relative_to == "sample":
        assert float((error / reference).max()) <= 2e-13
    else:
        assert float(error.max()) <= 1e-14 * float(reference.max())


@_LONG_DOUBLE
@pytest.mark.parametrize("gamma,tmax", [(1.9, None), (5.0, 80.0), (9.0, 44.4)])
def test_overflow_names_the_first_sample_out_of_range(gamma, tmax):
    # fig5's run above threshold (cells 20, gamma_c + 0.1, 4 000 samples over 8 periods) leaves float
    # range at t = 591.346; at larger gains a block's coefficients outgrow its norms (by up to the
    # squared growth rate), and must not name a sample before the state itself leaves float range
    params = LatticeParams(20, 0.9, gamma)
    modes = decompose(build_chain(params))
    psi0 = build_initial_state(PacketSpec(np.pi / 2, 0.02), params)
    dt = (8 * revival_period(params) if tmax is None else tmax) / 3999
    times = np.arange(4000) * dt
    first = int(np.argmax(_longdouble_norms(modes, psi0, times) > np.finfo(float).max))
    assert first > 0
    with pytest.raises(OverflowError, match=f"at t = {times[first]:.6g}$"):
        evolve(psi0, modes, dt, 3999)
    if tmax is None:
        assert f"{times[first]:.6g}" == "591.346"


def test_shared_decomposition_gain_sweep():
    # one eigensolve of the chain serves every gain, from the tuned gain and from none alike:
    # its eigenvectors do not depend on gamma
    tuned = LatticeParams(30, 0.9, 1.8)
    psi0 = build_initial_state(PacketSpec(np.pi / 2, 0.02), tuned)
    dt = 0.25 * revival_period(tuned) / 200
    for gamma0 in (1.8, 0.0):
        modes = decompose(build_hamiltonian(replace(tuned, gamma=gamma0)))
        for gamma in (0.0, 1.7, 1.8, 1.9):
            own = evolve(psi0, build_hamiltonian(replace(tuned, gamma=gamma)), dt, 200, record_states=True)
            shared = evolve(psi0, modes.at_gamma(gamma), dt, 200, record_states=True)
            assert np.abs(shared.norms / own.norms - 1.0).max() < 1e-12
            err = np.linalg.norm(shared.states - own.states, axis=1) / np.linalg.norm(own.states, axis=1)
            assert err.max() < 1e-12


def test_decomposition_stays_a_value():
    # runs share one decomposition, so no read may cache on it: amplitudes, Modes.profiles, a whole pass of
    # profile blocks and the states each form what they need (the N x N U for a pass) and keep none of it there
    params = LatticeParams(20, 0.9, 1.8)
    modes = decompose(build_chain(params))
    psi0 = build_initial_state(PacketSpec(np.pi / 6, 0.05), params)
    modes.profiles(modes.amplitudes(psi0), np.array([0.0, 1.0]))
    traj = evolve(psi0, modes, 0.1, 2 * BLOCK + 5, record_states=True)
    assert sum(1 for _ in traj.profile_blocks()) == 3 and traj.states is not None
    assert set(vars(modes)) == {field.name for field in fields(modes)}


def _loss_basis(modes) -> np.ndarray:
    """The loss-site vectors as the modes apply them: the identity's coefficients carried to the sites.

    The loss rows are on U upside down, where mode m is its parity sign times the unit row m (Modes.amplitudes).
    """
    n = modes.w.size
    rows = np.vstack((np.eye(n), np.diag(modes._parity)))
    sites = modes._sites(modes.tables.basis(), rows, np.empty((2 * n, n)))
    return sites[n:, ::-1].T  # the loss sites come out reversed: a row per loss site, a column per mode


def _vectors_mpmath(chain, column: int) -> tuple[np.ndarray, np.ndarray]:
    """Mode ``column`` (from 0) at 40 digits: U's column and B^T U's over sigma.

    Open chain: root q number column + 1 of a sin((N+1)q) - b sin(Nq), then
    ``u_i = sin(k(N - i))`` at k = pi - q.  Ring of even N: angle
    ``theta = 2 pi m/N`` with m = N/2, N/2 - 1, N/2 - 1, ..., then
    ``u_i = cos(theta i + phi)``, ``phi = (theta - arg(a + b e^(i theta)))/2``,
    less pi/2 where (-1)^(N+column+1) is -1.  Each normalised, and
    ``v_i = (a u_i + b u_(i+1))/sigma`` (u_N = u_0 on the ring, else 0) with
    ``sigma^2 = a^2 + b^2 + 2ab cos k``, k = pi - q or theta.
    """
    n = chain.cells
    with mpmath.workdps(40):
        a, b = mpmath.mpf(chain.strong), mpmath.mpf(chain.weak)
        if chain.ring:
            k = 2 * mpmath.pi * (n // 2 - (column + 1) // 2) / n
            beta = mpmath.atan2(b * mpmath.sin(k), a + b * mpmath.cos(k))
            phi = (k - beta) / 2 - mpmath.pi / 2 * ((n + column) % 2 == 0)
            u = [mpmath.cos(k * i + phi) for i in range(n)]
        else:
            k = mpmath.pi - open_root_mpmath(a, b, n, column + 1)
            u = [mpmath.sin(k * (n - i)) for i in range(n)]
        norm = mpmath.sqrt(mpmath.fsum(x * x for x in u))
        u = [x / norm for x in u] + [u[0] / norm if chain.ring else 0]
        sigma = mpmath.sqrt(a * a + b * b + 2 * a * b * mpmath.cos(k))
        v = [(a * u[i] + b * u[i + 1]) / sigma for i in range(n)]
        return np.array([float(x) for x in u[:n]]), np.array([float(x) for x in v])


@pytest.mark.parametrize("cells", [250, 1000])
@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC], ids=["open", "ring"])
def test_bases_match_40_digit_vectors(boundary, cells):
    # U by angle addition in row blocks on both boundaries, the open chain's column norms in closed form, and
    # the loss vectors as U's parity image, each within 5e-16 absolute of the 40-digit mode at the lowest,
    # middle and highest columns (at most 2.8e-17 measured open, 4.2e-17 while the open chain's norms were
    # sums of U's squares; 4.2e-17 ring)
    chain = build_chain(LatticeParams(cells, 0.9, 1.8, boundary))
    modes = decompose(chain)
    U, V = modes.tables.basis(), _loss_basis(modes)
    for column in (0, 1, 2, cells // 2 - 1, cells - 3, cells - 2, cells - 1):
        u, v = _vectors_mpmath(chain, column)
        assert np.abs(U[:, column] - u).max() <= 5e-16, column
        assert np.abs(V[:, column] - v).max() <= 5e-16, column


@pytest.mark.parametrize("cells", [2, 3, 5, 40, 41, 250, 251, 1000])
@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC], ids=["open", "ring"])
def test_loss_vectors_are_the_parity_image(boundary, cells):
    # parity maps gain site j to loss site N-1-j: on either boundary V = B^T U/lam is U reversed, up to
    # each mode's sign, so it is never stored; a ring of odd N, which LatticeParams refuses, is built as
    # its Chain (at most 2.2e-16 apart measured open, 3.9e-16 ring)
    if boundary is Boundary.PERIODIC and cells % 2:
        chain = replace(build_chain(LatticeParams(cells, 0.9, 1.8)), ring=True)
    else:
        chain = build_chain(LatticeParams(cells, 0.9, 1.8, boundary))
    modes = decompose(chain)
    assert np.abs(_loss_basis(modes) - loss_amplitudes(chain, modes.tables.basis()) / modes.lam).max() <= 1e-15


@pytest.mark.parametrize("state", ["packet", "complex"])
@pytest.mark.parametrize(
    "cells,boundary",
    [(cells, boundary) for boundary in (Boundary.OPEN, Boundary.PERIODIC) for cells in (2, 20, 250)],
    ids=["2", "20", "250", "ring-2", "ring-20", "ring-250"],
)
def test_parity_image_evolves_as_the_stored_loss_basis(cells, boundary, state):
    # the modes apply U to the loss sites in reverse order; a stored dense V = B^T U/lam must give the
    # same norms, profile blocks, single profiles and states, for a CT-real packet (one component, real
    # products) and a random complex state (two components, complex states), across block edges, on
    # either boundary (at most 3.4e-15 apart measured open, 4.1e-15 ring)
    params = LatticeParams(cells, 0.9, 1.8, boundary)
    chain = build_chain(params)
    if state == "packet":
        psi0 = build_initial_state(PacketSpec(np.pi / 6, 0.05), params)
    else:
        rng = np.random.default_rng(cells)
        psi0 = rng.normal(size=2 * cells) + 1j * rng.normal(size=2 * cells)
    steps = 2 * BLOCK + 5
    dt = 0.5 * revival_period(params) / steps
    one, two = (evolve(psi0, m, dt, steps, record_states=True) for m in (decompose(chain), two_basis_modes(chain)))
    assert one.components == two.components == (1 if state == "packet" else 2)
    assert np.abs(one.norms / two.norms - 1.0).max() <= 1e-14
    for (start, block), (_, reference) in zip(one.profile_blocks(), two.profile_blocks(), strict=True):
        assert (np.abs(block - reference) <= 1e-14 * reference.max(axis=1, keepdims=True)).all(), start
    reference = stacked_profiles(two)
    for k in (0, BLOCK - 1, BLOCK, steps):  # a single profile, from U's tables, against V's block rows
        assert np.abs(one.profile_at(one.times[k]) - reference[k]).max() <= 1e-14 * reference[k].max(), k
    assert (np.abs(one.states - two.states) <= 1e-14 * np.abs(two.states).max(axis=1, keepdims=True)).all()


@_LONG_DOUBLE
@pytest.mark.parametrize("state", ["packet", "complex"])
@pytest.mark.parametrize("cells", [20, 250, 1000])
@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC], ids=["open", "ring"])
def test_table_products_match_the_formed_basis(boundary, cells, state):
    # amplitudes and Modes.profiles apply U's two angle-addition tables and never form U. Against long-double
    # products by the formed U, the amplitudes stay within 1e-15 of their largest, 2.7 times the most measured
    # (3.6e-16). One reader call's profiles, on fig3's grid from t = 0 across block edges, both samples of the
    # tie at tau/4, and on to tau/2 and tau (the latest times profile_at is read), are held against long-double
    # products of the same amplitudes with c and s taken in long double at each time the reader is given. Each
    # stays within 1e-14 of its sample's peak: at most 1.0e-15 measured at 2N = 40, 1.7e-15 at 2N = 500 and
    # 8.6e-15 at 2N = 2000, with no growth in t, as the reader takes k*t in long double too
    params = LatticeParams(cells, 0.9, 1.8, boundary)
    modes = decompose(build_chain(params))
    if state == "packet":
        psi0 = build_initial_state(PacketSpec(np.pi / 6, 0.05), params)
    else:
        rng = np.random.default_rng(cells)
        psi0 = rng.normal(size=2 * cells) + 1j * rng.normal(size=2 * cells)
    U = modes.tables.basis().astype(np.longdouble)
    parts = np.stack((psi0.real, psi0.imag)).astype(np.longdouble)
    gain, loss = parts[:, 0::2] @ U, parts[:, ::-2] @ U  # the loss sites in reverse order, as Modes keeps them
    reference = np.stack((gain[0] + 1j * gain[1], loss[0] + 1j * loss[1]))
    a, b = modes.amplitudes(psi0)
    assert np.abs(a - reference).max() <= 1e-15 * np.abs(reference).max()
    samples = np.array([0, 1, BLOCK - 1, BLOCK, 499, 500, 999, 1000, 1999, 3998])
    dt = 0.5 * revival_period(params) / 1999
    c, s = _longdouble_cs(modes, (samples * dt).astype(np.longdouble))  # at the times the reader is given
    parts = [np.stack((u.real, u.imag)).astype(np.longdouble) for u in (a, b)]  # (part, sublattice, mode) each
    sites = (c[:, None, None] * parts[0] + s[:, None, None] * parts[1]) @ U.T  # (time, part, sublattice, site)
    reference = np.empty((samples.size, 2 * cells), np.longdouble)
    reference[:, 0::2], reference[:, ::-2] = (sites * sites).sum(axis=1).swapaxes(0, 1)
    peak = reference.max(axis=1, keepdims=True)
    error = np.abs(modes.profiles((a, b), samples * dt) - reference) / peak
    assert (error <= 1e-14).all(), error.max(axis=1)
