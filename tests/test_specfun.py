import tracemalloc
from itertools import count

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhssh import ConvergenceError, LatticeParams, dilog, lerch_phi
from nhssh.specfun import TERM_CAP, lerch_phi_inside
from nhssh.spectra import esm_spacing, revival_period


def brute_lerch(z: complex, s: float, alpha: float, terms: int = 1_000_000) -> complex:
    """Independent oracle: plain partial sum, vectorized."""
    n = np.arange(terms, dtype=float)
    return complex(np.sum(np.power(complex(z), n) / (n + alpha) ** s))


def mp_lerch(z: complex, s: float, alpha: float) -> complex:
    """Independent oracle: mpmath's Lerch transcendent at 30 digits."""
    with mpmath.workdps(30):
        return complex(mpmath.lerchphi(mpmath.mpc(complex(z)), mpmath.mpf(s), mpmath.mpf(alpha)))


def tail_bound_terms(r: float, s: float, alpha: float, tol: float) -> int:
    """Least M with r^M / ((M+alpha)^s (1-r)) <= tol, by a plain scan."""
    return next(m for m in count() if r**m / ((m + alpha) ** s * (1.0 - r)) <= tol)


def richardson_lerch_at_one(s: float, alpha: float, m: int = 200_000) -> float:
    """Oracle at z = 1: Richardson extrapolation of partial sums in 1/M."""
    s1 = brute_lerch(1.0, s, alpha, m).real
    s2 = brute_lerch(1.0, s, alpha, 2 * m).real
    s4 = brute_lerch(1.0, s, alpha, 4 * m).real
    r1, r2 = 2 * s2 - s1, 2 * s4 - s2  # kills the 1/M tail
    return 2 * r2 - r1  # and the 1/M^2 remainder


def test_lerch_at_zero():
    assert lerch_phi(0.0, 2, 0.5).value == pytest.approx(4.0, abs=1e-14)


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
    with pytest.raises(ConvergenceError) as err:
        lerch_phi(1.0, 2, 0.5, tol=1e-30)
    assert err.value.est_error > 1e-30
    assert err.value.terms_used > 0


def test_dilog_basel_values():
    assert dilog(1.0).value == pytest.approx(np.pi**2 / 6, abs=1e-10)
    assert dilog(-1.0).value == pytest.approx(-np.pi**2 / 12, abs=1e-10)


def test_dilog_half_identity():
    # Li2(1/2) = pi^2/12 - ln(2)^2/2, cross-checked against the raw sum
    expected = np.pi**2 / 12 - np.log(2.0) ** 2 / 2
    got = dilog(0.5)
    assert got.value == pytest.approx(expected, abs=1e-12)
    k = np.arange(1, 200)
    assert got.value == pytest.approx(np.sum(0.5**k / k**2), abs=1e-12)


def test_dilog_domain():
    with pytest.raises(ValueError):
        dilog(1.2)
    assert dilog(0.0).value == 0.0


def test_twenty_point_grid_against_mpmath():
    rng = np.random.default_rng(42)
    points = []
    for _ in range(14):
        r = rng.uniform(0.05, 0.95)
        ang = rng.uniform(0, 2 * np.pi)
        points.append(r * np.exp(1j * ang))
    points += [0.99, -0.99, 0.5j, np.exp(-0.2), -1.0, 1.0]
    assert len(points) == 20
    for z in points:
        s = 2.0 if abs(z) > 0.9 else rng.choice([2.0, 2.5, 3.0])
        alpha = rng.uniform(0.3, 1.5)
        ref = mp_lerch(z, s, alpha)
        got = lerch_phi(z, s, alpha)
        assert abs(got.value - ref) < 1e-10, f"z={z}, s={s}, alpha={alpha}"


@settings(max_examples=25, deadline=None)
@given(
    r=st.floats(min_value=0.0, max_value=0.9),
    angle=st.floats(min_value=0.0, max_value=2 * np.pi),
    s=st.floats(min_value=2.0, max_value=4.0),
    alpha=st.floats(min_value=0.2, max_value=2.0),
)
def test_interior_matches_brute_property(r, angle, s, alpha):
    z = r * np.exp(1j * angle)
    got = lerch_phi(z, s, alpha)
    ref = brute_lerch(z, s, alpha, terms=400_000)
    assert abs(got.value - ref) < 1e-10
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
    got = lerch_phi_inside(z, 2.0, 0.5, tol=tol)
    assert got.value.shape == z.shape
    assert got.est_error <= tol
    for k in range(0, z.size, 199):
        assert abs(got.value[k] - mp_lerch(z[k], 2.0, 0.5)) <= tol, k


def test_inside_terms_are_the_tail_bound_minimum():
    cases = [
        (np.exp(-0.08), 2.0, 0.5, 1e-9),  # fig3's depth
        (np.exp(-0.2), 2.0, 0.5, 1e-12),  # fig4's depth
        (0.99, 2.5, 1.3, 1e-12),
        (0.5, 50.0, 0.5, 1e-12),  # (m + alpha)^s overflows for the m near TERM_CAP a search probes
    ]
    for r, s, alpha, tol in cases:
        expected = tail_bound_terms(r, s, alpha, tol)
        assert lerch_phi_inside(r * np.exp(1j * np.arange(5)), s, alpha, tol).terms_used == expected
        assert lerch_phi(-r, s, alpha, tol).terms_used == expected
    assert tail_bound_terms(np.exp(-0.08), 2.0, 0.5, 1e-9) < 400


def test_inside_values_follow_the_flattened_z():
    z = np.array([[0.0, 0.5], [-0.25j, 0.8]])
    got = lerch_phi_inside(z, 2.0, 0.5, tol=1e-12)
    assert got.value.shape == (4,)
    for zk, value in zip(z.ravel(), got.value.ravel()):
        # each side lies within tol of the true value, with its own term count
        assert value == pytest.approx(lerch_phi(zk, 2.0, 0.5, tol=1e-12).value, abs=2e-12)


def test_inside_beyond_term_cap_raises_before_summing():
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError) as err:
            lerch_phi_inside(np.array([1.0 - 1e-9, 0.5]), 2.0, 0.5, tol=1e-12)
        with pytest.raises(ConvergenceError):
            lerch_phi(1.0 - 1e-9, 2.0, 0.5, tol=1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a TERM_CAP-long float array alone would take 80 MB
    assert peak < 1_000_000
    assert err.value.terms_used == TERM_CAP
    assert err.value.est_error > 1e-12


def test_inside_rejects_arguments_off_the_open_disk():
    for z in ([0.5, 1.0], [np.exp(0.1j)], [np.nan]):
        with pytest.raises(ValueError):
            lerch_phi_inside(np.array(z), 2.0, 0.5)
    with pytest.raises(ValueError):
        lerch_phi_inside(np.array([0.5]), 2.0, 0.0)
