"""Command-line front end: named experiments with CSV artifacts.

Each experiment id reproduces one published-figure-style data set from
the packet dynamics (initial profiles, evolved profiles, norm curves,
threshold classification, spectra, oracle comparisons).  Outputs are
plain CSV with '.' decimals, bit-identical across repeated runs; plot
rendering is left to external tools.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 check
failure (with --check).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import analysis, oracle, spectra, states
from .lattice import Boundary, LatticeParams, build_hamiltonian
from .propagate import Trajectory, evolve
from .specfun import ConvergenceError

EXPERIMENTS = (
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "spectrum",
    "oracle-compare",
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CHECK = 4


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


@dataclass
class ExperimentConfig:
    experiment: str
    cells: int = 250
    delta: float = 0.9
    gamma: float = 1.8
    q: float = 0.02
    kappa0_over_pi: float = 0.5
    kappa02_over_pi: float = 5.0 / 6.0
    boundary: Boundary = Boundary.OPEN
    tmax_over_tau: float = 0.5
    samples: int = 2000
    out: str = "out"
    check: bool = False

    def lattice(self, gamma: float | None = None) -> LatticeParams:
        return LatticeParams(
            self.cells, self.delta, self.gamma if gamma is None else gamma, self.boundary
        )

    def packet(self) -> oracle.PacketSpec:
        return oracle.PacketSpec(self.kappa0_over_pi * np.pi, self.q)


def _parse_fraction(text: str) -> float:
    """Accept 'a/b' exactly or a plain decimal."""
    text = text.strip()
    if "/" in text:
        return float(Fraction(text))
    return float(text)


_KEY_PARSERS = {
    "experiment": str,
    "cells": int,
    "delta": float,
    "gamma": float,
    "q": float,
    "kappa0_over_pi": _parse_fraction,
    "kappa02_over_pi": _parse_fraction,
    "boundary": Boundary.parse,
    "tmax_over_tau": float,
    "samples": int,
    "out": str,
}

# canonical per-experiment parameters, applied to keys the user left unset
_EXPERIMENT_DEFAULTS = {
    "fig2": {"cells": 1000},
    "fig4": {"q": 0.05, "tmax_over_tau": 1.0},
    "fig5": {"tmax_over_tau": 0.25},
    "fig6": {"kappa0_over_pi": 1.0 / 6.0, "q": 0.05},
    "fig7": {"kappa0_over_pi": 1.0 / 6.0, "kappa02_over_pi": 5.0 / 6.0, "q": 0.05},
    "oracle-compare": {"tmax_over_tau": 0.3},
}


def parse_config(text: str) -> dict:
    """key=value lines into a validated dict of explicitly set keys."""
    explicit: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {raw!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        try:
            explicit[key] = _KEY_PARSERS[key](value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot parse {key}={value!r}: {exc}", lineno) from exc
    _validate(explicit)
    return explicit


def _validate(values: dict, line: int | None = None) -> None:
    if "experiment" in values and values["experiment"] not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {values['experiment']!r}; expected one of {', '.join(EXPERIMENTS)}",
            line,
        )
    if "cells" in values and values["cells"] < 2:
        raise ConfigError("cells must be >= 2", line)
    if "delta" in values and not 0.0 < values["delta"] < 1.0:
        raise ConfigError(f"delta must lie in (0, 1), got {values['delta']}", line)
    if "gamma" in values and not 0.0 <= values["gamma"] < np.inf:
        raise ConfigError(f"gamma must be finite and >= 0, got {values['gamma']}", line)
    if "q" in values and not 0.0 <= values["q"] < np.inf:
        raise ConfigError(f"q must be finite and >= 0, got {values['q']}", line)
    for key in ("kappa0_over_pi", "kappa02_over_pi"):
        if key in values and not 0.0 < values[key] < 1.0:
            raise ConfigError(f"{key} must lie in (0, 1), got {values[key]}", line)
    if "samples" in values and values["samples"] < 2:
        raise ConfigError("samples must be >= 2", line)
    if "tmax_over_tau" in values and not 0.0 < values["tmax_over_tau"] < np.inf:
        raise ConfigError(f"tmax_over_tau must be finite and positive, got {values['tmax_over_tau']}", line)


def build_config(explicit: dict) -> ExperimentConfig:
    """Resolve defaults: global, then per-experiment, then gamma = 2*delta."""
    if "experiment" not in explicit:
        raise ConfigError("no experiment selected (pass one on the command line or set experiment=)")
    merged = dict(explicit)
    for key, value in _EXPERIMENT_DEFAULTS.get(merged["experiment"], {}).items():
        merged.setdefault(key, value)
    if "gamma" not in merged and "delta" in merged:
        merged["gamma"] = 2.0 * merged["delta"]  # stay tuned to the EP by default
    known = {f.name for f in fields(ExperimentConfig)}
    return ExperimentConfig(**{k: v for k, v in merged.items() if k in known})


# ---------------------------------------------------------------- output


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_norms(path: Path, traj: Trajectory, closed_form=None) -> None:
    closed = closed_form if closed_form is not None else [""] * len(traj.times)
    rows = zip(traj.times, traj.norms, closed)
    _write_csv(path, ["t", "P_numeric", "P_closed_form"], rows)


def _write_profile(path: Path, profile: np.ndarray, extra: dict | None = None) -> None:
    sites = np.arange(1, profile.size + 1)
    if extra:
        (name, column), = extra.items()
        _write_csv(path, ["site", "probability", name], zip(sites, profile, column))
    else:
        _write_csv(path, ["site", "probability"], zip(sites, profile))


# ------------------------------------------------------------ experiments


def _evolve_packet(config: ExperimentConfig, spec=None, gamma=None, state=None) -> Trajectory:
    params = config.lattice(gamma=gamma)
    if state is None:
        state = states.build_initial_state(spec or config.packet(), params)
    tuned = config.lattice()  # tau is a property of the tuned chain
    tmax = config.tmax_over_tau * spectra.revival_period(tuned)
    dt = tmax / (config.samples - 1)
    return evolve(state, build_hamiltonian(params), dt, config.samples - 1)


def _check(outcomes: list[tuple[str, bool, str]]) -> int:
    status = EXIT_OK
    for name, passed, detail in outcomes:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
        if not passed:
            status = EXIT_CHECK
    return status


def _run_fig2(config: ExperimentConfig, outdir: Path) -> int:
    params = config.lattice()
    rows = []
    outcomes = []
    profiles = {}
    for m in range(1, 8):
        spec = oracle.PacketSpec(m * np.pi / 8.0, config.q)
        profile = np.abs(states.build_initial_state(spec, params)) ** 2
        profiles[m] = profile
        meas = states.measure(profile)
        expected = 2 * params.cells * (m / 8.0)
        rows.append((f"{m}/8", meas.center, meas.width, expected))
        _write_profile(outdir / f"profile_t{m}.csv", profile)
        outcomes.append(
            (
                f"center kappa0={m}pi/8",
                abs(meas.center - expected) <= 5.0,
                f"center={meas.center:.2f} expected={expected:.1f}",
            )
        )
    _write_csv(outdir / "centers.csv", ["kappa0_over_pi", "center", "width", "expected_center"], rows)
    base = profiles[4]
    for m in range(1, 8):
        shift = int(round(2 * params.cells * (m - 4) / 8.0))
        l1 = states.shape_distance(profiles[m], base, shift)
        outcomes.append(
            (f"translation m={m}", l1 <= 0.05, f"shape L1 after shift = {l1:.4f}")
        )
    return _check(outcomes) if config.check else EXIT_OK


def _closed_form_profiles(config: ExperimentConfig, traj: Trajectory, outdir: Path, prefix: str):
    params = config.lattice()
    tau = spectra.revival_period(params)
    spec = config.packet().normalized(params.cells)
    outcomes = []
    compare_rows = []
    for index, t in enumerate((0.0, tau / 8.0, tau / 4.0)):
        numeric = traj.profile_at(t)
        predicted = np.abs(oracle.evolved_state_closed_form(t, spec, params)) ** 2
        l1 = np.abs(numeric - predicted).sum() / numeric.sum()
        compare_rows.append((t, l1))
        _write_profile(
            outdir / f"{prefix}{index}.csv", numeric, {"probability_closed_form": predicted}
        )
        outcomes.append((f"profile oracle t={t:.1f}", l1 <= 0.10, f"L1/P = {l1:.4f}"))
    _write_csv(outdir / "compare.csv", ["t", "l1_over_norm"], compare_rows)
    return outcomes


def _run_fig3(config: ExperimentConfig, outdir: Path) -> int:
    params = config.lattice()
    traj = _evolve_packet(config)
    spec = config.packet().normalized(params.cells)
    closed = None
    if abs(spec.kappa0 - np.pi / 2) < 1e-9:
        closed = oracle.dirac_norm_closed_form(traj.times, spec, params)
    _write_norms(outdir / "norms.csv", traj, closed)
    outcomes = _closed_form_profiles(config, traj, outdir, "profile_t")
    return _check(outcomes) if config.check else EXIT_OK


def _run_fig4(config: ExperimentConfig, outdir: Path) -> int:
    params = config.lattice()
    spec = config.packet().normalized(params.cells)
    traj = _evolve_packet(config)
    closed = oracle.dirac_norm_closed_form(traj.times, spec, params)
    _write_norms(outdir / "norms.csv", traj, closed)

    tau = spectra.revival_period(params)
    # report the waveform period two ways rather than asserting a wording:
    # the closed-form norm repeats every tau/2, packets revive every tau
    peaks, _ = _local_maxima(traj.times, traj.norms)
    measured = float(peaks[1] - peaks[0]) if len(peaks) >= 2 else float("nan")
    _write_csv(
        outdir / "period_report.csv",
        ["formula_period", "measured_period", "revival_period"],
        [(tau / 2.0, measured, tau)],
    )
    if not config.check:
        return EXIT_OK
    half = traj.times <= tau / 2.0 + 1e-9
    rms = float(np.sqrt(np.mean((traj.norms[half] - closed[half]) ** 2)) / traj.norms[half].max())
    return _check([("closed-form norm RMS", rms <= 0.15, f"RMS/peak = {rms:.4f} over one waveform period")])


def _local_maxima(t: np.ndarray, p: np.ndarray):
    idx = [i for i in range(1, len(p) - 1) if p[i] >= p[i - 1] and p[i] >= p[i + 1] and p[i] > 0.5 * p.max()]
    return [t[i] for i in idx], idx


def _run_fig5(config: ExperimentConfig, outdir: Path) -> int:
    params = config.lattice()
    tau = spectra.revival_period(params)
    gammas = [params.gamma_c - 0.1, params.gamma_c, params.gamma_c + 0.1]
    rows = []
    labels = []
    for i, g in enumerate(gammas, start=1):
        traj = _evolve_packet(config, gamma=g)
        report = analysis.classify_growth(traj.times, traj.norms, (0.05 * tau, 0.2 * tau))
        rows.append((g, report.label, report.r_squared, report.fit_params["linear"]["slope"]))
        labels.append(report.label)
        _write_norms(outdir / f"norms_gamma{i}.csv", traj)
    _write_csv(outdir / "classification.csv", ["gamma", "label", "r_squared", "slope"], rows)
    if not config.check:
        return EXIT_OK
    expected = ["Oscillatory", "Linear", "Exponential"]
    return _check(
        [
            (
                "threshold trichotomy",
                labels == expected,
                f"labels={labels} expected={expected}",
            )
        ]
    )


def _run_fig6(config: ExperimentConfig, outdir: Path) -> int:
    traj = _evolve_packet(config)
    _write_norms(outdir / "norms.csv", traj)
    report = analysis.translation_window(traj)
    _write_csv(
        outdir / "translation.csv",
        ["window_start", "window_end", "norm_drift", "center_velocity", "first_reflection", "second_reflection"],
        [report.window + (report.norm_drift, report.center_velocity) + report.reflection_times],
    )
    if not config.check:
        return EXIT_OK
    return _check(
        [
            (
                "probability-preserving translation",
                report.norm_drift <= 0.05,
                f"norm drift = {report.norm_drift:.4f} on window {report.window}",
            )
        ]
    )


def _run_fig7(config: ExperimentConfig, outdir: Path) -> int:
    params = config.lattice()
    outcomes = []
    for sign, name in ((+1, "plus"), (-1, "minus")):
        pair = states.PacketPairSpec(
            config.kappa0_over_pi * np.pi, config.kappa02_over_pi * np.pi, config.q, sign
        ).normalized(params.cells)
        pair_traj = _evolve_packet(config, state=states.build_pair_state(pair, params))
        spec1, spec2 = pair.single_specs(params.cells)
        traj1 = _evolve_packet(config, spec=spec1)
        traj2 = _evolve_packet(config, spec=spec2)
        report = analysis.interference_report(pair_traj, (traj1, traj2))
        _write_csv(
            outdir / f"norms_{name}.csv",
            ["t", "P_pair", "P_sum_singles"],
            zip(pair_traj.times, pair_traj.norms, traj1.norms + traj2.norms),
        )
        _write_csv(
            outdir / f"interference_{name}.csv",
            ["window_start", "window_end", "ratio_max", "ratio_min", "p_before"],
            [report.overlap_window + (report.ratio_max, report.ratio_min, report.p_before)],
        )
        if config.check:
            if sign > 0:
                outcomes.append(
                    (
                        "constructive pair doubles",
                        1.6 <= report.ratio_max <= 2.4,
                        f"max ratio = {report.ratio_max:.3f}",
                    )
                )
            else:
                outcomes.append(
                    (
                        "destructive pair annihilates",
                        report.ratio_min < 0.25,
                        f"min ratio = {report.ratio_min:.3f}",
                    )
                )
            usable = report.separated & (pair_traj.norms > 0.05 * pair_traj.norms.max())
            total = traj1.norms + traj2.norms
            rel = np.abs(pair_traj.norms[usable] - total[usable]) / total[usable]
            outcomes.append(
                (
                    f"separated sum ({name})",
                    float(rel.max()) <= 0.05 if rel.size else False,
                    f"max rel deviation = {float(rel.max()) if rel.size else float('nan'):.4f}",
                )
            )
    return _check(outcomes) if config.check else EXIT_OK


def _run_spectrum(config: ExperimentConfig, outdir: Path) -> int:
    params = config.lattice()
    H = build_hamiltonian(params)
    ev = spectra.full_spectrum(H)
    _write_csv(outdir / "eigenvalues.csv", ["re", "im"], zip(ev.real, ev.imag))
    outcomes = []
    if params.boundary is Boundary.OPEN:
        report = spectra.verify_equal_spacing(ev, 5, params)
        if report.ok:
            _write_csv(
                outdir / "spacings.csv",
                ["n", "level", "deviation"],
                [(n, report.levels[n - 1], report.spacing_deviations[n - 1]) for n in range(1, 6)],
            )
        if config.check:
            worst = max(report.spacing_deviations) if report.ok else float("inf")
            outcomes.append(
                ("equal spacing", report.ok and worst <= 0.10, f"worst deviation = {worst:.4f}")
            )
    elif config.check:
        pair = float(np.sort(np.abs(ev))[1])
        outcomes.append(
            ("coalescing zero pair", pair < 1e-6, f"two smallest |E| <= {pair:.3e}")
        )
    return _check(outcomes) if config.check else EXIT_OK


def _run_oracle_compare(config: ExperimentConfig, outdir: Path) -> int:
    traj = _evolve_packet(config)
    outcomes = _closed_form_profiles(config, traj, outdir, "profile_t")
    return _check(outcomes) if config.check else EXIT_OK


_RUNNERS = {
    "fig2": _run_fig2,
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "spectrum": _run_spectrum,
    "oracle-compare": _run_oracle_compare,
}


def run_experiment(config: ExperimentConfig) -> int:
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[config.experiment](config, outdir)


# ------------------------------------------------------------------ main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhssh",
        description="Gain/loss SSH lattice experiments (CSV artifacts per figure id).",
    )
    parser.add_argument("experiment", nargs="?", choices=EXPERIMENTS, help="experiment id")
    parser.add_argument("--config", type=Path, help="key=value config file ('#' comments)")
    parser.add_argument("--cells", type=int)
    parser.add_argument("--delta", type=float)
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--q", type=float)
    parser.add_argument("--kappa0-over-pi", dest="kappa0_over_pi", type=_parse_fraction)
    parser.add_argument("--kappa02-over-pi", dest="kappa02_over_pi", type=_parse_fraction)
    parser.add_argument("--boundary", type=Boundary.parse)
    parser.add_argument("--tmax-over-tau", dest="tmax_over_tau", type=float)
    parser.add_argument("--samples", type=int)
    parser.add_argument("--out", type=str)
    parser.add_argument("--check", action="store_true", help="grade outputs; exit 4 on failure")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        explicit: dict = {}
        if args.config is not None:
            explicit.update(parse_config(args.config.read_text(encoding="utf-8")))
        for key in _KEY_PARSERS:
            value = getattr(args, key, None)
            if value is not None:
                explicit[key] = value
        if args.experiment is not None:
            explicit["experiment"] = args.experiment
        _validate(explicit)
        config = build_config(explicit)
        config.check = bool(args.check)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return run_experiment(config)
    except (ConvergenceError, analysis.AnalysisError, spectra.EigensolverError) as exc:
        print(f"numerical failure [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (np.linalg.LinAlgError, OverflowError, FloatingPointError) as exc:
        print(f"numerical failure [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"config error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        # domain-level rejections (odd periodic cell count, off-center
        # packet fed to the central-packet norm formula, ...)
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
