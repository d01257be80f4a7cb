import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhssh import LatticeParams, dilog, lerch_phi
from nhssh.specfun import ERROR_BOUND
from nhssh.spectra import esm_spacing, revival_period


def brute_lerch(z: complex, s: float, alpha: float, terms: int = 1_000_000) -> complex:
    """Independent oracle: plain partial sum, vectorized."""
    n = np.arange(terms, dtype=float)
    return complex(np.sum(np.power(complex(z), n) / (n + alpha) ** s))


def mp_lerch(z: complex, s: float, alpha: float) -> complex:
    """Independent oracle: mpmath's Lerch transcendent at 30 digits."""
    with mpmath.workdps(30):
        return complex(mpmath.lerchphi(mpmath.mpc(complex(z)), mpmath.mpf(s), mpmath.mpf(alpha)))


def mp_dilog(z: complex) -> complex:
    """Independent oracle: mpmath's polylogarithm of order 2 at 30 digits."""
    with mpmath.workdps(30):
        return complex(mpmath.polylog(2, mpmath.mpc(complex(z))))


def richardson_lerch_at_one(s: float, alpha: float, m: int = 200_000) -> float:
    """Oracle at z = 1: Richardson extrapolation of partial sums in 1/M."""
    s1 = brute_lerch(1.0, s, alpha, m).real
    s2 = brute_lerch(1.0, s, alpha, 2 * m).real
    s4 = brute_lerch(1.0, s, alpha, 4 * m).real
    r1, r2 = 2 * s2 - s1, 2 * s4 - s2  # kills the 1/M tail
    return 2 * r2 - r1  # and the 1/M^2 remainder


def test_lerch_at_zero():
    assert lerch_phi(0.0, 2, 0.5).value == pytest.approx(4.0, abs=1e-14)
    # Phi = 4 chi2(w)/w keeps its accuracy only while -log(1-w) keeps its relative accuracy
    assert lerch_phi(1e-20, 2, 0.5).value == pytest.approx(4.0, abs=1e-14)


def test_lerch_at_one_against_extrapolated_oracle():
    got = lerch_phi(1.0, 2, 0.5)
    assert got.value.real == pytest.approx(richardson_lerch_at_one(2, 0.5), abs=1e-9)
    assert got.value.real == pytest.approx(np.pi**2 / 2, abs=1e-10)
    assert got.est_error <= 1e-12


def test_lerch_interior_against_brute_force():
    got = lerch_phi(np.exp(-0.2), 2, 0.5)
    assert abs(got.value - brute_lerch(np.exp(-0.2), 2, 0.5)) < 1e-10


def test_lerch_on_circle_against_mpmath():
    for angle in (0.7, 2.0, np.pi):
        z = np.exp(1j * angle)
        got = lerch_phi(z, 2, 0.5, tol=1e-12)
        ref = mp_lerch(z, 2, 0.5)
        assert abs(got.value - ref) < 1e-10
        assert got.est_error <= 1e-12


def test_lerch_validation():
    with pytest.raises(ValueError):
        lerch_phi(1.5, 2, 0.5)
    with pytest.raises(ValueError):
        lerch_phi(0.5, 1.5, 0.5)
    with pytest.raises(ValueError):
        lerch_phi(0.5, 2, 0.0)


def test_lerch_unreachable_tolerance_reports_estimate():
    with pytest.raises(ValueError, match="below the fixed error bound 1e-14"):
        lerch_phi(1.0, 2, 0.5, tol=1e-30)
    assert lerch_phi(1.0, 2, 0.5, tol=ERROR_BOUND).est_error == ERROR_BOUND


def test_dilog_basel_values():
    assert dilog(1.0) == pytest.approx(np.pi**2 / 6, abs=1e-10)
    assert dilog(-1.0) == pytest.approx(-np.pi**2 / 12, abs=1e-10)


def test_dilog_half_identity():
    # Li2(1/2) = pi^2/12 - ln(2)^2/2, cross-checked against the raw sum
    expected = np.pi**2 / 12 - np.log(2.0) ** 2 / 2
    got = dilog(0.5)
    assert got == pytest.approx(expected, abs=1e-12)
    k = np.arange(1, 200)
    assert got == pytest.approx(np.sum(0.5**k / k**2), abs=1e-12)


def test_dilog_domain():
    with pytest.raises(ValueError):
        dilog(1.2)
    for z in ([0.5, 1.5], [np.exp(0.1 + 1j)], [0.5, np.nan]):
        with pytest.raises(ValueError):
            dilog(np.array(z))
    assert dilog(0.0) == 0.0


def test_inside_rejects_arguments_off_the_open_disk():
    # lerch_phi now takes the closed disk, so |z| = 1 is accepted; beyond it, and NaN, raise
    for z in ([0.5, 1.5], [np.exp(0.1 + 0.1j)], [np.nan]):
        with pytest.raises(ValueError):
            lerch_phi(np.array(z), 2.0, 0.5)
    with pytest.raises(ValueError):
        lerch_phi(np.array([0.5]), 2.0, 0.0)
    assert np.isfinite(lerch_phi(np.array([1.0, np.exp(0.1j)]), 2.0, 0.5).value).all()


def test_twenty_point_grid_against_mpmath():
    # the disk, its boundary, z = +/-1 and the radius e^{-2e-9} of fig3 at q = 1e-9
    rng = np.random.default_rng(42)
    points = [r * np.exp(1j * a) for r, a in zip(rng.uniform(0.05, 0.95, 10), rng.uniform(0, 2 * np.pi, 10))]
    points += list(np.exp(1j * rng.uniform(0, 2 * np.pi, 4)))
    near_one = np.exp(-2e-9)
    points += [near_one, near_one * np.exp(0.3j), 0.5j, np.exp(-0.2), -1.0, 1.0]
    assert len(points) == 20
    for z in points:
        assert abs(dilog(z) - mp_dilog(z)) < 1e-10, f"z={z}"
        assert abs(lerch_phi(z, 2, 0.5).value - mp_lerch(z, 2, 0.5)) < 1e-10, f"z={z}"


@settings(max_examples=25, deadline=None)
@given(
    r=st.floats(min_value=0.0, max_value=0.9),
    angle=st.floats(min_value=0.0, max_value=2 * np.pi),
)
def test_interior_matches_brute_property(r, angle):
    z = r * np.exp(1j * angle)
    k = np.arange(1, 400_001, dtype=float)
    assert abs(dilog(z) - np.sum(np.power(complex(z), k) / k**2)) < 1e-10
    got = lerch_phi(z, 2, 0.5)
    assert abs(got.value - brute_lerch(z, 2, 0.5, terms=400_000)) < 1e-10
    assert got.est_error <= 1e-12


def _lasing_arguments(q: float, periods: float) -> np.ndarray:
    """z = exp(-4(q + i omega t)) at 2000 times over the span, as the closed-form norm uses."""
    params = LatticeParams(250, 0.9, 1.8)
    t = np.linspace(0.0, periods * revival_period(params), 2000)
    return np.exp(-4.0 * (q + 1j * esm_spacing(params) * t))


@pytest.mark.parametrize("q, periods", [(0.02, 0.5), (0.05, 1.0)])  # fig3, fig4
@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_inside_batch_against_mpmath_at_lasing_arguments(q, periods, tol):
    z = _lasing_arguments(q, periods)
    got = lerch_phi(z, 2.0, 0.5, tol=tol)
    assert got.value.shape == z.shape
    assert got.est_error <= tol
    for k in range(0, z.size, 199):
        assert abs(got.value[k] - mp_lerch(z[k], 2.0, 0.5)) <= tol, k


def test_lerch_values_follow_the_shape_of_z():
    z = np.array([[0.0, 0.5], [-0.25j, 0.8]])
    got = lerch_phi(z, 2.0, 0.5)
    assert got.value.shape == z.shape
    assert dilog(z).shape == z.shape
    for zk, value in zip(z.ravel(), got.value.ravel()):
        assert value == pytest.approx(lerch_phi(zk, 2.0, 0.5).value, abs=1e-15)
