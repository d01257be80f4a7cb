from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nhssh import (
    Boundary,
    LatticeParams,
    apply_antilinear,
    build_hamiltonian,
    coalescing_state,
    full_spectrum,
    symmetry_residuals,
)
from nhssh.lattice import Chain, _open_roots, build_chain, chiral_split
from nhssh.propagate import decompose
from reference import loss_amplitudes, open_root_mpmath, open_roots_64, symmetry_operator


def test_hermitian_limit_matrix():
    H = build_hamiltonian(LatticeParams(2, 0.9, 0.0))
    strong, weak = 1 + 0.9, 1 - 0.9
    expected = np.array(
        [
            [0, strong, 0, 0],
            [strong, 0, weak, 0],
            [0, weak, 0, strong],
            [0, 0, strong, 0],
        ]
    )
    assert np.abs(H - expected).max() == 0.0
    assert np.abs(H - H.conj().T).max() == 0.0


def test_gain_loss_diagonal():
    H = build_hamiltonian(LatticeParams(2, 0.9, 1.8))
    assert np.array_equal(np.diag(H), [1.8j, -1.8j, 1.8j, -1.8j])
    # hoppings unchanged by the imaginary potential
    assert H[0, 1] == 1.9 and H[1, 2] == 1 - 0.9 and H[2, 3] == 1.9


def test_periodic_wraps_weak_bond():
    H = build_hamiltonian(LatticeParams(2, 0.9, 1.8, Boundary.PERIODIC))
    assert H[3, 0] == 1 - 0.9 and H[0, 3] == 1 - 0.9
    H_open = build_hamiltonian(LatticeParams(2, 0.9, 1.8))
    assert H_open[3, 0] == 0.0


@pytest.mark.parametrize(
    "bad",
    [
        dict(cells=1, delta=0.5, gamma=0.0),
        dict(cells=4, delta=0.0, gamma=0.0),
        dict(cells=4, delta=1.0, gamma=0.0),
        dict(cells=4, delta=0.5, gamma=-0.1),
        dict(cells=3, delta=0.5, gamma=0.1, boundary=Boundary.PERIODIC),
        dict(cells=4, delta=0.5, gamma=float("nan")),
        dict(cells=4, delta=0.5, gamma=float("inf")),
        dict(cells=4, delta=float("nan"), gamma=0.0),
    ],
)
def test_invalid_params_rejected(bad):
    with pytest.raises(ValueError):
        LatticeParams(**bad)


def test_gamma_c_is_twice_delta():
    assert LatticeParams(4, 0.37, 0.0).gamma_c == pytest.approx(0.74, rel=1e-15)


def test_sublattice_sign_operator():
    C = symmetry_operator("C", 2)
    assert np.array_equal(np.diag(C), [1, -1, 1, -1])


def test_parity_operator_small():
    P = symmetry_operator("P", 2)
    expected = np.zeros((4, 4))
    expected[3, 0] = expected[0, 3] = 1.0  # site 1 <-> site 4
    expected[2, 1] = expected[1, 2] = 1.0  # site 2 <-> site 3
    assert np.array_equal(P, expected)


@pytest.mark.parametrize("kind", ["P", "C"])
def test_operators_are_involutions(kind):
    M = symmetry_operator(kind, 5)
    assert np.array_equal(M @ M, np.eye(10))


def test_time_reversal_conjugates():
    out = apply_antilinear("T", np.array([1j, 1.0]))
    assert np.array_equal(out, np.array([-1j, 1.0]))


def test_pt_is_an_involution():
    rng = np.random.default_rng(7)
    state = rng.normal(size=12) + 1j * rng.normal(size=12)
    twice = apply_antilinear("PT", apply_antilinear("PT", state))
    assert np.abs(twice - state).max() < 1e-15


def test_ct_fixes_coalescing_state():
    # direct evaluation: conjugation leaves the A components, flips the
    # B components twice; the state is CT-invariant with unit phase in
    # this global phase convention
    phi = coalescing_state(2)
    assert np.allclose(phi, 0.5 * np.array([-1, -1j, 1, 1j]))
    assert np.abs(apply_antilinear("CT", phi) - phi).max() < 1e-15


@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
@pytest.mark.parametrize("delta,gamma", [(0.9, 1.8), (0.5, 0.3), (0.2, 0.0), (0.8, 2.5)])
def test_symmetry_residuals_vanish(delta, gamma, boundary):
    cells = 250 if boundary is Boundary.OPEN else 250
    H = build_hamiltonian(LatticeParams(cells, delta, gamma, boundary))
    res = symmetry_residuals(H, cells)
    assert res["pt_residual"] < 1e-13
    assert res["ct_residual"] < 1e-13


def test_uniform_imaginary_potential_breaks_pt_only():
    # replacing the staggered potential by +i*gamma on both sublattices
    # breaks the PT relation by exactly 2*gamma while the CT
    # anticommutation survives (conjugation still flips the uniform
    # potential, the sign flip on hoppings is untouched)
    cells, gamma = 6, 0.7
    H = build_hamiltonian(LatticeParams(cells, 0.9, 0.0)) + 1j * gamma * np.eye(2 * cells)
    res = symmetry_residuals(H, cells)
    assert res["pt_residual"] == pytest.approx(2 * gamma, rel=1e-14)
    assert res["ct_residual"] == 0.0


def test_real_onsite_shift_breaks_ct_only():
    cells, mu = 6, 0.3
    H = build_hamiltonian(LatticeParams(cells, 0.9, 1.1)) + mu * np.eye(2 * cells)
    res = symmetry_residuals(H, cells)
    assert res["ct_residual"] == pytest.approx(2 * mu, rel=1e-14)
    assert res["pt_residual"] == 0.0


def test_hamiltonian_is_complex_symmetric():
    H = build_hamiltonian(LatticeParams(9, 0.7, 1.2))
    assert np.abs(H - H.T).max() == 0.0


@settings(max_examples=40, deadline=None)
@given(
    cells=st.integers(min_value=2, max_value=12),
    delta=st.floats(min_value=0.05, max_value=0.95),
    gamma=st.floats(min_value=0.0, max_value=3.0),
    periodic=st.booleans(),
)
def test_symmetry_algebra_property(cells, delta, gamma, periodic):
    if periodic and cells % 2:
        cells += 1
    boundary = Boundary.PERIODIC if periodic else Boundary.OPEN
    H = build_hamiltonian(LatticeParams(cells, delta, gamma, boundary))
    res = symmetry_residuals(H, cells)
    assert res["pt_residual"] < 1e-13
    assert res["ct_residual"] < 1e-13
    assert np.abs(H - H.T).max() == 0.0
    if gamma == 0.0:
        assert np.abs(H - H.conj().T).max() == 0.0


def test_residual_dimension_check():
    H = build_hamiltonian(LatticeParams(4, 0.5, 0.2))
    with pytest.raises(ValueError):
        symmetry_residuals(H, 5)


@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
@pytest.mark.parametrize("cells", [2, 6])
def test_chiral_split_reads_the_chain(cells, boundary):
    params = LatticeParams(cells, 0.7, 1.2, boundary)
    H = build_hamiltonian(params)
    chain = chiral_split(H)
    assert chain == build_chain(params)
    # B is T's block from gain sites (even) to loss sites (odd): a on its diagonal, b below it, and
    # the bond that closes a ring in the top right corner
    B = np.diag(np.full(cells, chain.strong)) + np.diag(np.full(cells - 1, chain.weak), -1)
    B[0, -1] += chain.weak * chain.ring
    assert chain.ring == (boundary is Boundary.PERIODIC)
    assert np.array_equal(B, H.real[0::2, 1::2])
    assert np.array_equal(loss_amplitudes(chain, np.eye(cells)), B.T)
    assert chiral_split(H.conj()) == replace(chain, gamma=-1.2)  # loss first: the gain on the odd sites
    assert chiral_split(build_hamiltonian(replace(params, gamma=0.0))) == replace(chain, gamma=0.0)  # no gain


@settings(max_examples=200, deadline=None)
@given(
    cells=st.integers(1, 8),
    a=st.floats(0.0, 1e300, exclude_min=True),
    fraction=st.floats(0.0, 1.0),
    gamma=st.floats(-1e300, 1e300),
    ring=st.booleans(),
    data=st.data(),
)
def test_chiral_split_reads_back_every_dense_chain(cells, a, fraction, gamma, ring, data):
    # chiral_split reads Chain.dense back over a > 0, 0 <= b <= a and gain of either sign; a single cell holds a
    # alone, and a ring's corner holds b, so at b = 0 it is the open chain
    b = a * fraction if cells > 1 else 0.0
    chain = Chain(cells, a, b, gamma, ring and b > 0.0)
    H = chain.dense()
    assert chiral_split(H) == chain
    # and a change to any one entry is refused, naming the first entry off the chain read from H
    i, j = data.draw(st.tuples(*2 * [st.integers(0, 2 * cells - 1)]))
    value = data.draw(st.complex_numbers() | st.floats())
    assume(value != H[i, j])
    H[i, j] = value
    with pytest.raises(ValueError, match=r"^H is not a chain: H\[\d+, \d+\] = "):
        chiral_split(H)


@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
@pytest.mark.parametrize("gamma", [0.0, 1.8])
def test_dense_hamiltonian_solves_as_its_chain(gamma, boundary):
    # the dense H is only read as its chain: both inputs take the same solver, bit for bit
    params = LatticeParams(20, 0.9, gamma, boundary)
    dense, chain = decompose(build_hamiltonian(params)), decompose(build_chain(params))
    assert dense.chain == chain.chain == build_chain(params)
    assert np.array_equal(dense.lam, chain.lam) and np.array_equal(dense.tables.basis(), chain.tables.basis())
    assert np.array_equal(full_spectrum(build_hamiltonian(params)), full_spectrum(build_chain(params)))


def _lowest_x_mpmath(chain, count: int = 3) -> list:
    """The lowest x = sigma^2 - gamma^2 at 40 digits, from the chain's exact float a, b and gamma.

    Open chain: sigma^2 = a^2 + b^2 - 2ab cos q at the roots q in (0, pi) of
    a sin((N+1)q) - b sin(Nq), root j found by findroot inside [(j-1)pi/N, j pi/(N+1)].
    Ring: sigma^2 = a^2 + b^2 + 2ab cos(2 pi m/N) at m = N/2, N/2 - 1, N/2 - 1, ...
    """
    n = chain.cells
    with mpmath.workdps(40):
        a, b, g = (mpmath.mpf(v) for v in (chain.strong, chain.weak, chain.gamma))
        if chain.ring:
            angles = [2 * mpmath.pi * (n // 2 - (k + 1) // 2) / n for k in range(count)]
        else:
            angles = [mpmath.pi - open_root_mpmath(a, b, n, j) for j in range(1, count + 1)]
        return [a * a + b * b + 2 * a * b * mpmath.cos(k) - g * g for k in angles]


@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
@pytest.mark.parametrize("cells", [250, 1000])
def test_closed_form_modes_match_mpmath_and_lapack(cells, boundary):
    # the tuned chain at its exceptional point, where the lowest x are small and the ring's lowest is
    # (a - b - gamma)(a - b + gamma), a rounding error of 2*delta - gamma: each of the lowest three x
    # within 1e-14 relative of the 40-digit secular equation (2-4e-16 measured)
    chain = build_chain(LatticeParams(cells, 0.9, 1.8, boundary))
    w, tables = chain.mode_tables()
    x = chain.x(w)
    for got, ref in zip(x[:3], _lowest_x_mpmath(chain), strict=True):
        assert abs(mpmath.mpf(float(got)) - ref) <= 1e-14 * abs(ref)
    if cells != 1000:
        return
    # and at 2N = 2000, LAPACK's eigenpairs of the dense B B^T, built from the dense H
    B = build_hamiltonian(LatticeParams(cells, 0.9, 1.8, boundary)).real[0::2, 1::2]
    lam2, reference = np.linalg.eigh(B @ B.T)
    assert np.abs(x + chain.gamma**2 - lam2).max() <= 1e-14 * lam2[-1]
    # each closed-form vector lies in its eigenvalue's reference subspace (a cos and a sin mode share
    # one on the ring): its weight outside it is LAPACK's own error, at most eps*|B B^T|/gap
    _, group = np.unique(w, return_inverse=True)
    outside = np.where(group[:, None] == group, 0.0, reference.T @ tables.basis())
    gap = np.abs(np.subtract.outer(lam2, lam2) + np.where(group[:, None] == group, np.inf, 0.0)).min(axis=0)
    assert np.all(np.linalg.norm(outside, axis=0) <= 10 * np.finfo(float).eps * lam2[-1] / gap)


def test_open_roots_match_a_64_step_bisection():
    # bisection stops once q's grid is resolved, and the Newton remainder r carries the rest: the
    # sum q + r is the full 64-step bisection's, bit for bit, so w, x and every spectrum are too
    for cells in (2, 3, 5, 40, 250, 999, 1000, 2000):
        for delta in (0.05, 0.3, 0.5, 0.8, 0.9, 0.98, 0.999999):
            q, r = _open_roots(1.0 + delta, 1.0 - delta, cells)
            q64, r64 = open_roots_64(1.0 + delta, 1.0 - delta, cells)
            assert np.array_equal(q + r, q64 + r64), (cells, delta)


def test_chiral_split_rejects_what_is_not_a_chain():
    H = build_hamiltonian(LatticeParams(4, 0.7, 1.2))
    stray = H.copy()
    stray[0, 5] = stray[5, 0] = 0.3  # gain site 0 to loss site 2
    with pytest.raises(ValueError, match="not a chain"):
        chiral_split(stray)
    swapped = H.copy()
    swapped[[6, 7], [6, 7]] *= -1  # loss before gain in the last cell only
    with pytest.raises(ValueError, match=r"not a chain: H\[6, 6\] = "):
        chiral_split(swapped)
    with pytest.raises(ValueError, match=r"not a chain: H\[1, 0\] = "):
        chiral_split(H + np.triu(H.real, 1))  # a and b read from the doubled upper triangle
    with pytest.raises(ValueError, match="square"):
        chiral_split(H[:, :-1])
    with pytest.raises(ValueError, match="square"):
        chiral_split(np.zeros((0, 0)))
    # without gain too: a dense symmetric T (band width n - 1 in any order), a hopping inside one
    # sublattice, an on-site energy, and an odd chain
    A = np.random.default_rng(3).normal(size=(40, 40))
    free = H.real.copy()
    free[0, 2] = free[2, 0] = 0.3  # gain site 0 to gain site 1
    for T in (A + A.T, free, H.real + np.eye(8)):
        with pytest.raises(ValueError, match="not a chain"):
            chiral_split(T)
    with pytest.raises(ValueError, match="odd chain"):
        chiral_split(H.real[:7, :7])
