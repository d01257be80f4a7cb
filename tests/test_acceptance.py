"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Desk scale is 2N = 500 sites unless a criterion states otherwise.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

from dataclasses import replace

import mpmath
import numpy as np

from nhssh import (
    Boundary,
    LatticeParams,
    PacketSpec,
    analytic_eigenstate,
    apply_antilinear,
    build_hamiltonian,
    build_initial_state,
    classify_growth,
    coalescing_state,
    dilog,
    dirac_norm_closed_form,
    direct_coalescing_overlap,
    evolve,
    evolved_state_closed_form,
    expm,
    full_spectrum,
    fwhm_interval,
    interference_report,
    lerch_phi,
    measure,
    overlap_formula,
    reflection_symmetry,
    revival_period,
    shape_distance,
    symmetry_residuals,
    translation_window,
    verify_equal_spacing,
)
from nhssh.lattice import build_chain
from nhssh.propagate import decompose
from reference import stacked_profiles, taylor_expm

DELTA = 0.9
CELLS = 250


def _report(cid: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {cid}: {detail}")
    assert passed, f"{cid}: {detail}"


def test_c01_symmetry_algebra():
    worst = 0.0
    for delta in (0.5, 0.8, 0.9):
        for gamma in (0.0, 0.9, 1.8, 2.2):
            for boundary in (Boundary.OPEN, Boundary.PERIODIC):
                H = build_hamiltonian(LatticeParams(CELLS, delta, gamma, boundary))
                res = symmetry_residuals(H, CELLS)
                worst = max(worst, res["pt_residual"], res["ct_residual"])
    _report("C1 symmetry algebra", worst < 1e-13, f"max residual = {worst:.3e}")


def test_c02_coalescing_mode():
    worst = 0.0
    for delta in (0.5, 0.8, 0.9):
        params = LatticeParams(CELLS, delta, 2 * delta, Boundary.PERIODIC)
        H = build_hamiltonian(params)
        worst = max(worst, float(np.abs(H.conj().T @ coalescing_state(CELLS)).max()))
    _report("C2 coalescing mode", worst < 1e-13, f"max |Hdag phi_c| = {worst:.3e}")


def test_c03_spectrum_structure():
    params = LatticeParams(CELLS, DELTA, 1.8, Boundary.OPEN)
    ev = full_spectrum(build_hamiltonian(params))
    scale = float(np.abs(ev).max())
    ten = ev[np.argsort(np.abs(ev))][:10]
    max_im = float(np.abs(ten.imag).max())
    report = verify_equal_spacing(ev, 5, params)
    worst_dev = max(report.spacing_deviations) if report.levels else float("inf")

    ring = LatticeParams(CELLS, DELTA, 1.8, Boundary.PERIODIC)
    ring_pair = float(np.sort(np.abs(full_spectrum(build_hamiltonian(ring))))[1])

    ok = max_im < 1e-6 * scale and bool(report.levels) and worst_dev < 0.10 and ring_pair < 1e-6
    _report(
        "C3 spectrum structure",
        ok,
        f"max|Im| = {max_im:.2e} ({1e-6 * scale:.2e} allowed), worst spacing dev = "
        f"{worst_dev:.4f}, ring zero pair |E| <= {ring_pair:.2e}",
    )


def test_c04_eigenstate_identities():
    params = LatticeParams(CELLS, DELTA, 1.8)
    worst = 0.0
    for n in range(1, 11):
        plus = analytic_eigenstate(n, +1, params)
        minus = analytic_eigenstate(n, -1, params)
        worst = max(worst, float(np.abs(apply_antilinear("PT", plus) - (-1.0) ** n * plus).max()))
        worst = max(worst, float(np.abs(apply_antilinear("PT", minus) - (-1.0) ** n * minus).max()))
        worst = max(worst, float(np.abs(apply_antilinear("CT", plus) - (-1j) * minus).max()))
        worst = max(worst, float(np.abs(apply_antilinear("CT", minus) - (-1j) * plus).max()))
    _report("C4 eigenstate identities", worst < 1e-12, f"max deviation = {worst:.3e}")


def test_c05_lasing_linearity(params250, h250, tau250):
    spec = PacketSpec(np.pi / 2, 0.0)
    psi0 = build_initial_state(spec, params250)
    traj = evolve(psi0, h250, 0.25 * tau250 / 400, 400)
    report = classify_growth(traj.times, traj.norms, (0.05 * tau250, 0.2 * tau250))
    slope = report.fit_params["linear"]["slope"]
    target = 8.0 / tau250
    ok = report.r_squared > 0.99 and abs(slope - target) / target < 0.10
    _report(
        "C5 lasing linearity",
        ok,
        f"R^2 = {report.r_squared:.6f}, slope = {slope:.6g} vs 8/tau = {target:.6g} "
        f"({abs(slope - target) / target:.2%} off)",
    )


def test_c05_lasing_fires_anywhere():
    # at q = 0 and gamma = gamma_c the closed form grows as dP/dt = lam^2 pi omega while omega t < min(k0, pi - k0),
    # at every position kappa0 (C5's 8/tau at pi/2). Fitted over 0.1 to 0.8 of that window, 2001 samples over
    # tau/2, the slope over lam^2 pi omega read 0.973272-0.973358: a spread of 8.6e-5, the 2.7% offset being the
    # chain's dispersion, shared by every position. The spread's bound is 2e-4, 2.3 times that
    params = LatticeParams(CELLS, DELTA, 2 * DELTA)
    tau = revival_period(params)
    omega = 2.0 * np.pi / tau
    modes = decompose(build_chain(params))
    ratios = {}
    for kappa0_over_pi in (1 / 2, 1 / 3, 1 / 6, 0.1, 0.9):
        spec = PacketSpec(kappa0_over_pi * np.pi, 0.0).normalized(CELLS)
        traj = evolve(build_initial_state(spec, params), modes, 0.5 * tau / 2000, 2000)
        linear_until = min(kappa0_over_pi, 1.0 - kappa0_over_pi) * np.pi / omega
        report = classify_growth(traj.times, traj.norms, (0.1 * linear_until, 0.8 * linear_until))
        assert report.label == "Linear" and report.r_squared > 0.99, kappa0_over_pi
        ratios[kappa0_over_pi] = report.fit_params["linear"]["slope"] / (spec.lam**2 * np.pi * omega)
    spread = max(ratios.values()) - min(ratios.values())
    ok = all(abs(r - 1.0) < 0.10 for r in ratios.values()) and spread < 2e-4
    _report(
        "C5 lasing fires anywhere",
        ok,
        "slope / (lam^2 pi omega) = " + ", ".join(f"{k:.4g}pi: {r:.6f}" for k, r in ratios.items())
        + f"; spread {spread:.2e}",
    )


def test_c06_closed_form_norm():
    rms_by_delta = {}
    for delta in (0.8, 0.9, 0.98):
        params = LatticeParams(CELLS, delta, 2 * delta)
        tau = revival_period(params)
        spec = PacketSpec(np.pi / 2, 0.05).normalized(CELLS)
        psi0 = build_initial_state(spec, params)
        # one period of the closed-form norm waveform is tau/2
        traj = evolve(psi0, build_hamiltonian(params), (tau / 2) / 400, 400)
        predicted = dirac_norm_closed_form(traj.times, spec, params)
        rms_by_delta[delta] = float(
            np.sqrt(np.mean((traj.norms - predicted) ** 2)) / traj.norms.max()
        )
    values = [rms_by_delta[d] for d in (0.8, 0.9, 0.98)]
    ok = max(values) < 0.15 and values[0] > values[1] > values[2]
    _report(
        "C6 closed-form norm",
        ok,
        "RMS/peak = " + ", ".join(f"delta={d}: {rms_by_delta[d]:.4f}" for d in (0.8, 0.9, 0.98)),
    )


def test_c07_threshold_trichotomy(params250, tau250):
    labels = []
    spec = PacketSpec(np.pi / 2, 0.02)
    psi0 = build_initial_state(spec, params250)
    for gamma in (1.7, 1.8, 1.9):
        H = build_hamiltonian(replace(params250, gamma=gamma))
        traj = evolve(psi0, H, 0.22 * tau250 / 300, 300)
        labels.append(classify_growth(traj.times, traj.norms, (0.05 * tau250, 0.2 * tau250)).label)
    expected = ["Oscillatory", "Linear", "Exponential"]
    _report("C7 threshold trichotomy", labels == expected, f"labels = {labels}")


def test_c08_profile_oracle(traj_central, params250, tau250):
    spec = PacketSpec(np.pi / 2, 0.02).normalized(CELLS)
    worst = 0.0
    detail = []
    for t in (0.0, tau250 / 8, tau250 / 4):
        numeric = traj_central.profile_at(t)
        predicted = np.abs(evolved_state_closed_form(t, spec, params250)) ** 2
        l1 = float(np.abs(predicted - numeric).sum() / numeric.sum())
        worst = max(worst, l1)
        detail.append(f"t={t:.0f}: {l1:.4f}")
    _report("C8 profile oracle", worst < 0.10, "L1/P " + ", ".join(detail))


def test_c09_packet_geometry():
    params = LatticeParams(1000, DELTA, 1.8)
    profiles = {}
    center_ok = True
    detail = []
    for m in range(1, 8):
        profile = np.abs(build_initial_state(PacketSpec(m * np.pi / 8, 0.02), params)) ** 2
        profiles[m] = profile
        center = measure(profile).center
        expected = 2000 * m / 8
        center_ok &= abs(center - expected) <= 5.0
        detail.append(f"m={m}: {center:.1f}")
    # shape = mass-normalized smoothed envelope; the packets carry
    # kappa0-dependent Dirac mass at the tuned gain, and their centers sit
    # on the site grid only up to a fraction of a site
    worst_shape = max(
        shape_distance(profiles[m], profiles[4], int(round(2000 * (m - 4) / 8)))
        for m in range(1, 8)
    )
    _report(
        "C9 packet geometry",
        center_ok and worst_shape <= 0.05,
        f"centers ({', '.join(detail)}), worst shape L1 after translation = {worst_shape:.4f}",
    )


def test_c10_revivals(traj_central, tau250):
    peak = traj_central.norms.max()
    p0 = stacked_profiles(traj_central)[0]
    revival = float(np.abs(traj_central.profile_at(tau250) - p0).sum() / peak)
    mirror = float(np.abs(traj_central.profile_at(tau250 / 2) - p0[::-1]).sum() / peak)
    _report(
        "C10 revivals",
        revival < 0.10 and mirror < 0.10,
        f"L1(tau)/peak = {revival:.4f}, mirrored L1(tau/2)/peak = {mirror:.4f}",
    )


def test_c11_elastic_reflection(traj_central, tau250):
    mismatch = reflection_symmetry(traj_central, tau250 / 4, tau250 / 8)
    _report("C11 elastic reflection", mismatch < 0.10, f"max L1 mismatch / P = {mismatch:.4f}")


def test_c12_translation_window(traj_pi6):
    report = translation_window(traj_pi6)
    _report(
        "C12 translation window",
        report.norm_drift < 0.05,
        f"norm drift = {report.norm_drift:.4f} on window ({report.window[0]:.0f}, "
        f"{report.window[1]:.0f}), velocity = {report.center_velocity:.3f}",
    )


def test_c13_interference(pair_runs):
    intervals = {
        sign: [fwhm_interval(stacked_profiles(single)) for single in runs[1:]] for sign, runs in pair_runs.items()
    }
    plus = interference_report(pair_runs[+1][0], intervals[+1])
    minus = interference_report(pair_runs[-1][0], intervals[-1])
    sums_ok = True
    worst_sum = 0.0
    for sign in (+1, -1):
        pair_traj, traj1, traj2 = pair_runs[sign]
        rep = interference_report(pair_traj, intervals[sign])
        total = traj1.norms + traj2.norms
        usable = rep.separated & (pair_traj.norms > 0.05 * pair_traj.norms.max())
        rel = float((np.abs(pair_traj.norms[usable] - total[usable]) / total[usable]).max())
        worst_sum = max(worst_sum, rel)
        sums_ok &= rel <= 0.05
    ok = minus.ratio_min < 0.25 and abs(plus.ratio_max - 2.0) <= 0.4 and sums_ok
    _report(
        "C13 interference",
        ok,
        f"minus ratio = {minus.ratio_min:.3f}, plus ratio = {plus.ratio_max:.3f}, "
        f"separated-sum dev = {worst_sum:.4f}",
    )


def test_c14_special_functions():
    # the functions the closed-form norm calls: Li2 on the disk, its
    # boundary, z = +/-1 and the radius e^{-2e-9}, and Phi(z, 2, 1/2)
    li_ok = dilog(1.0) == np.pi**2 / 6 and dilog(-1.0) == -np.pi**2 / 12
    rng = np.random.default_rng(20240917)
    points = [r * np.exp(1j * a) for r, a in zip(rng.uniform(0.05, 0.95, 20), rng.uniform(0, 2 * np.pi, 20))]
    points += list(np.exp(1j * rng.uniform(0, 2 * np.pi, 4))) + [np.exp(-2e-9), -1.0, 1.0]
    worst = 0.0
    with mpmath.workdps(30):
        for z in points:
            li2 = complex(mpmath.polylog(2, mpmath.mpc(z)))
            phi = complex(mpmath.lerchphi(mpmath.mpc(z), 2, mpmath.mpf(1) / 2))
            worst = max(worst, abs(dilog(z) - li2), abs(lerch_phi(z, 2.0, 0.5).value - phi))
    _report(
        "C14 special functions",
        li_ok and worst < 1e-10,
        f"dilog identities {'ok' if li_ok else 'failed'}, worst grid error = {worst:.3e}",
    )


def test_c15_propagator(params250, tau250):
    rng = np.random.default_rng(7)
    worst_expm = 0.0
    for _ in range(5):
        A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        A *= 0.9 / np.linalg.norm(A, 2)
        worst_expm = max(worst_expm, float(np.abs(expm(A) - taylor_expm(A)).max()))

    H0 = build_hamiltonian(replace(params250, gamma=0.0))
    psi0 = build_initial_state(PacketSpec(np.pi / 2, 0.02), params250)
    psi0 /= np.linalg.norm(psi0)
    traj = evolve(psi0, H0, tau250 / 2000, 2000)
    norm_dev = float(np.abs(traj.norms - 1.0).max())

    H = build_hamiltonian(params250)
    fine = evolve(psi0, H, tau250 / 800, 100, record_states=True)
    coarse = evolve(psi0, H, tau250 / 400, 50, record_states=True)
    comp = float(
        np.linalg.norm(fine.states[-1] - coarse.states[-1]) / np.linalg.norm(coarse.states[-1])
    )
    ok = worst_expm < 1e-10 and norm_dev < 1e-8 and comp < 1e-9
    _report(
        "C15 propagator",
        ok,
        f"expm vs Taylor = {worst_expm:.2e}, |P-1| = {norm_dev:.2e}, composition = {comp:.2e}",
    )


def test_c16_overlap_formula(params250):
    detail = []
    ok = True
    for q in (0.02, 0.05, 0.1):
        spec = PacketSpec(np.pi / 2, q)
        formula = overlap_formula(spec, params250)
        direct = abs(direct_coalescing_overlap(spec, params250))
        rel = abs(formula - direct) / direct
        ok &= rel < 0.20
        detail.append(f"q={q}: {rel:.2%}")
    _report("C16 overlap formula", ok, "formula vs direct " + ", ".join(detail))
