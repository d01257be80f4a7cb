from dataclasses import replace

import mpmath
import numpy as np
import pytest

from nhssh import (
    Boundary,
    LatticeParams,
    analytic_dispersion,
    build_hamiltonian,
    esm_spacing,
    full_spectrum,
    revival_period,
    verify_equal_spacing,
)
from nhssh.lattice import build_chain
from nhssh.propagate import decompose


def test_two_site_hermitian():
    ev = full_spectrum(np.array([[0.0, 1.9], [1.9, 0.0]]))
    assert np.allclose(ev, [-1.9, 1.9])


def test_two_site_gain_loss():
    ev = full_spectrum(np.array([[1.8j, 1.9], [1.9, -1.8j]]))
    expected = np.sqrt(1.9**2 - 1.8**2)  # 0.60827625...
    assert np.allclose(sorted(ev.real), [-expected, expected], atol=1e-12)
    assert np.abs(ev.imag).max() < 1e-12


def test_ring_at_ep_has_zero_pair(params250):
    ring = LatticeParams(250, 0.9, 1.8, Boundary.PERIODIC)
    ev = full_spectrum(build_hamiltonian(ring))
    assert np.sort(np.abs(ev))[1] < 1e-6  # two coalescing zero levels


def test_full_spectrum_rejects_nonsquare():
    with pytest.raises(ValueError):
        full_spectrum(np.zeros((3, 4)))


def test_small_k_slope():
    # eps ~ sqrt(2 delta (1-delta)) * k at the band bottom
    params = LatticeParams(250, 0.9, 1.8)
    eps1, _ = analytic_dispersion(1, params)
    k1 = np.pi / 251
    assert eps1 / k1 == pytest.approx(np.sqrt(0.18), rel=1e-4)


def test_first_level_is_omega():
    params = LatticeParams(250, 0.9, 1.8)
    eps1, _ = analytic_dispersion(1, params)
    assert eps1 == pytest.approx(esm_spacing(params), rel=1e-4)


def test_band_top_value():
    # k -> pi: band factor (1+delta)+(1-delta) = 2, eps -> sqrt(4 - 3.24);
    # the n = N mode sits at k = N pi/(N+1), within 1e-4 of the limit
    params = LatticeParams(250, 0.9, 1.8)
    eps, phi = analytic_dispersion(250, params)
    assert eps == pytest.approx(np.sqrt(0.76), rel=1e-4)
    assert 0.0 < phi < np.pi / 2


@pytest.mark.parametrize("delta", [0.9, 1 - 1e-9, 1 - 1e-12])
def test_lowest_levels_against_40_digit_band(delta):
    # eps_k^2 = band^2 - gamma_c^2 at 2N = 2000, in 40-digit arithmetic from the float delta; band^2 - gamma_c^2
    # in floats cancels here: eps_1 comes out 1.5e-10 off at delta = 0.9, 4e-3 at 1 - 1e-9 and 0 at 1 - 1e-12
    params = LatticeParams(1000, delta, 2 * delta)
    eps, _ = analytic_dispersion(np.arange(1, 4), params)
    with mpmath.workdps(40):
        d = mpmath.mpf(delta)
        bands = [(1 + d) - (1 - d) * mpmath.cos(n * mpmath.pi / 1001) for n in (1, 2, 3)]
        reference = np.array([float(mpmath.sqrt(band**2 - (2 * d) ** 2)) for band in bands])
    assert np.abs(eps / reference - 1).max() <= 1e-15


def test_dispersion_index_range():
    params = LatticeParams(10, 0.9, 1.8)
    with pytest.raises(ValueError):
        analytic_dispersion(11, params)


def test_esm_spacing_values():
    params = LatticeParams(250, 0.9, 1.8)
    assert esm_spacing(params) == pytest.approx(np.sqrt(0.18) * np.pi / 251, rel=1e-14)
    assert revival_period(params) == pytest.approx(502 / np.sqrt(0.18), rel=1e-14)
    # delta = 0.5 maximizes delta*(1-delta)
    assert esm_spacing(LatticeParams(250, 0.5, 1.0)) == pytest.approx(
        np.sqrt(0.5) * np.pi / 251, rel=1e-14
    )
    assert revival_period(LatticeParams(250, 0.98, 1.96)) == pytest.approx(
        502 / np.sqrt(2 * 0.98 * 0.02), rel=1e-14
    )


def test_dispersion_tracks_numeric_levels(params250, h250):
    # the closed-form band sits a uniform ~2.7% below the true levels at
    # delta = 0.9 (strong-dimerization approximation); assert the envelope
    ev = full_spectrum(h250)
    positive = np.sort(ev.real[(np.abs(ev.imag) < 1e-8) & (ev.real > 0)])
    for n in range(1, 26):
        eps, _ = analytic_dispersion(n, params250)
        assert abs(positive[n - 1] - eps) / eps < 0.05


def test_equal_spacing_at_tuned_gain(params250, h250):
    ev = full_spectrum(h250)
    report = verify_equal_spacing(ev, 5, params250)
    assert len(report.levels) == 5
    assert max(report.spacing_deviations) < 0.10
    assert np.abs(ev[np.argsort(np.abs(ev))][:10].imag).max() < 1e-6 * 2.0


def test_equal_spacing_single_level(params250, h250):
    report = verify_equal_spacing(full_spectrum(h250), 1, params250)
    assert len(report.levels) == len(report.spacing_deviations) == 1
    assert report.spacing_deviations[0] < 0.10


def test_hermitian_chain_is_not_equally_spaced():
    # gamma = 0 keeps a gap of order 2*delta near zero, nothing like n*omega
    params = LatticeParams(250, 0.9, 0.0)
    report = verify_equal_spacing(full_spectrum(build_hamiltonian(params)), 5, params)
    assert len(report.levels) == 5  # levels are real, pairing works
    assert max(report.spacing_deviations) > 0.5


def _matches_as_multiset(left: np.ndarray, right: np.ndarray, tol: float) -> bool:
    # every value of `left` has a partner in `right` within tol
    dist = np.abs(left[:, None] - right[None, :])
    return bool(dist.min(axis=1).max() < tol)


def test_spectrum_minus_symmetry(params250, h250):
    ev = full_spectrum(h250)
    scale = np.abs(ev).max()
    assert _matches_as_multiset(-ev, ev, 1e-9 * scale)


@pytest.mark.parametrize("gamma", [0.9, 1.8, 2.2])
def test_spectrum_conjugation_pairing(gamma):
    # [PT, H] = 0 forces eigenvalues into (E, E*) pairs
    H = build_hamiltonian(LatticeParams(40, 0.9, gamma))
    ev = full_spectrum(H)
    scale = np.abs(ev).max()
    assert _matches_as_multiset(ev.conj(), ev, 1e-9 * scale)


def test_hermitian_spectrum_real():
    ev = full_spectrum(build_hamiltonian(LatticeParams(100, 0.9, 0.0)))
    assert np.abs(ev.imag).max() < 1e-10 * np.abs(ev).max()


@pytest.mark.parametrize("cells,delta,gamma", [(2, 0.5, 0.3), (3, 0.7, 0.9), (4, 0.9, 1.8)])
def test_characteristic_polynomial_residual(cells, delta, gamma):
    # brute force: each returned eigenvalue should nearly kill det(H - E I)
    H = build_hamiltonian(LatticeParams(cells, delta, gamma))
    ev = full_spectrum(H)
    scale = np.abs(ev).max()
    for k, e in enumerate(ev):
        det = np.linalg.det(H - e * np.eye(2 * cells))
        others = np.prod([np.abs(ej - e) for j, ej in enumerate(ev) if j != k])
        if others > 1e-12:
            assert abs(det) / others < 1e-9 * scale


def test_spectrum_sorted_by_abs_real():
    ev = full_spectrum(build_hamiltonian(LatticeParams(20, 0.6, 1.2)))
    key = np.abs(ev.real)
    assert np.all(np.diff(key) >= -1e-12)


def test_failure_report_when_levels_complex():
    # far above threshold the near-zero levels are complex; the report
    # comes back empty instead of raising
    params = LatticeParams(60, 0.9, 1.8)
    H = build_hamiltonian(replace(params, gamma=2.6))
    report = verify_equal_spacing(full_spectrum(H), 5, params)
    assert report.levels == report.spacing_deviations == []


def _dense_reference(H: np.ndarray) -> np.ndarray:
    # independent route: dense eigvalsh of the real hopping, each lam > 0
    # mapped to +/-sqrt(lam^2 - gamma^2); gain-free T is its own spectrum
    lam = np.linalg.eigvalsh(H.real)
    gamma = np.abs(np.diag(H).imag).max()
    if not gamma:
        return lam.astype(complex)
    root = np.sqrt(lam[lam > 0] ** 2 - gamma**2 + 0j)
    return np.concatenate([root, -root])


@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
@pytest.mark.parametrize("gamma", [0.0, 1.8])
def test_closed_form_spectrum_matches_dense_reference(boundary, gamma):
    H = build_hamiltonian(LatticeParams(100, 0.9, gamma, boundary))
    ev, ref = np.sort_complex(full_spectrum(H)), np.sort_complex(_dense_reference(H))
    if gamma and boundary is Boundary.PERIODIC:
        # the EP zero pair is sqrt(rounding of lam - gamma): compare its square
        assert np.abs(ev[np.abs(ev) < 1e-6] ** 2).max() < 1e-12
        ev, ref = ev[np.abs(ev) > 1e-6], ref[np.abs(ref) > 1e-6]
    assert ev.shape == ref.shape
    assert np.abs(ev - ref).max() < 1e-12


@pytest.mark.parametrize("cells", [100, 1000])
@pytest.mark.parametrize("gamma", [0.0, 1.8])
def test_ring_spectrum_matches_bloch_closed_form(cells, gamma):
    # independent reference: the ring's Bloch waves, one 2x2 block per k = 2*pi*m/N, give
    # E = +/-sqrt(|1 + delta + (1 - delta) e^{ik}|^2 - gamma^2)
    delta = 0.9
    ev = np.sort_complex(full_spectrum(build_chain(LatticeParams(cells, delta, gamma, Boundary.PERIODIC))))
    k = 2 * np.pi * np.arange(cells) / cells
    root = np.sqrt(np.abs(1 + delta + (1 - delta) * np.exp(1j * k)) ** 2 - gamma**2 + 0j)
    ref = np.sort_complex(np.concatenate([root, -root]))
    if gamma:
        # at gamma_c the k = pi pair is sqrt(rounding): compare its square
        assert np.abs(ev[np.abs(ev) < 1e-6] ** 2).max() < 1e-12
        ev, ref = ev[np.abs(ev) > 1e-6], ref[np.abs(ref) > 1e-6]
    assert ev.shape == ref.shape
    assert np.abs(ev - ref).max() < 1e-12


@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
def test_uneven_bonds_are_rejected(boundary):
    # only the model's chain, one bond value inside the cells and a weaker one between them, has
    # closed-form modes: a dense H with other bonds gets a one-line ValueError from every solver
    rng = np.random.default_rng(7)
    H = build_hamiltonian(LatticeParams(30, 0.5, 0.4, boundary))
    scale = rng.uniform(0.5, 1.5, H.shape)
    uneven = H.real * (scale + scale.T) / 2 + 1j * H.imag
    corner = H.copy()
    corner[0, -1] = corner[-1, 0] = 0.3  # a ring closed by a bond of its own, or an open chain's ends joined
    # and the weak bond inside the cells: the chain that ends in edge modes
    flipped = H.copy()
    flipped[H == 1.5], flipped[H == 0.5] = 0.5, 1.5
    # each is refused at its first entry off the chain read from H[0, 1], H[1, 2], H[0, 0] and H[0, -1]: the
    # first scaled bond, or the ring's scaled corner, which comes before it
    first = "2, 3" if boundary is Boundary.OPEN else "0, 59"
    for solver in (full_spectrum, decompose):
        for bad, entry in ((uneven, first), (corner, "0, 59")):
            with pytest.raises(ValueError, match=rf"not a chain: H\[{entry}\] = "):
                solver(bad)
        with pytest.raises(ValueError, match=r"a >= b >= 0 .*, got a = 0\.5, b = 1\.5$"):
            solver(flipped)


def test_dispersion_over_an_array_of_levels():
    params = LatticeParams(40, 0.9, 1.8)
    levels = np.arange(1, 41)
    eps, phi = analytic_dispersion(levels, params)
    one_by_one = np.array([analytic_dispersion(int(n), params) for n in levels])
    assert np.allclose(eps, one_by_one[:, 0], rtol=1e-15, atol=0.0)
    assert np.allclose(phi, one_by_one[:, 1], rtol=1e-15, atol=0.0)
    assert isinstance(analytic_dispersion(3, params)[0], float)
    with pytest.raises(ValueError, match="got 41"):
        analytic_dispersion(np.array([1, 41, 0]), params)
