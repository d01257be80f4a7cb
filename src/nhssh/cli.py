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
import math
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import analysis, oracle, spectra, states
from .lattice import Boundary, LatticeParams, build_chain
from .propagate import Trajectory, decompose, evolve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CHECK = 4

_PROFILE_TIMES_OVER_TAU = (0.0, 0.125, 0.25)  # where fig3 and oracle-compare grade the profile oracle


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


@dataclass
class ExperimentConfig:
    """One resolved run; physics ranges are checked by the domain classes."""

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

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; expected one of {', '.join(EXPERIMENTS)}")
        if self.samples < 2:
            raise ValueError("samples must be >= 2")
        if not 0.0 < self.tmax_over_tau < math.inf:
            raise ValueError(f"tmax_over_tau must be finite and positive, got {self.tmax_over_tau}")
        self.lattice()
        if self.boundary is Boundary.PERIODIC and self.experiment in ("fig3", "fig4", "fig7", "oracle-compare"):
            raise ValueError(f"{self.experiment} grades packets built for the open chain; it takes boundary=open only")
        for kappa_over_pi in (self.kappa0_over_pi, self.kappa02_over_pi):
            oracle.PacketSpec(kappa_over_pi * np.pi, self.q).normalized(self.cells)  # refuses one with no weight
        if self.experiment in ("fig3", "oracle-compare") and self.tmax_over_tau < _PROFILE_TIMES_OVER_TAU[-1]:
            raise ValueError(
                f"{self.experiment} grades profiles up to t = tau/4, so it needs tmax_over_tau >= 1/4,"
                f" got {self.tmax_over_tau}"
            )
        if self.experiment == "fig4" and not oracle.is_central(self.packet().kappa0):
            raise ValueError(f"fig4 grades the kappa0 = pi/2 norm formula, got kappa0_over_pi={self.kappa0_over_pi}")
        if self.experiment == "fig5":
            self.gain_sweep()
        if self.experiment == "fig7":
            for sign in (+1, -1):
                self.pair(sign).normalized(self.cells)

    def lattice(self) -> LatticeParams:
        return LatticeParams(self.cells, self.delta, self.gamma, self.boundary)

    def gain_sweep(self) -> list[float]:
        """fig5's gains gamma_c - 0.1, gamma_c, gamma_c + 0.1: the lowest must still be a gain."""
        gamma_c = self.lattice().gamma_c
        if gamma_c - 0.1 <= 0.0:
            raise ValueError(f"fig5 sweeps gamma from 2*delta - 0.1, which needs delta > 0.05, got {self.delta}")
        return [gamma_c + d for d in (-0.1, 0.0, 0.1)]

    def packet(self) -> oracle.PacketSpec:
        return oracle.PacketSpec(self.kappa0_over_pi * np.pi, self.q)

    def pair(self, sign: int) -> states.PacketPairSpec:
        return states.PacketPairSpec(self.kappa0_over_pi * np.pi, self.kappa02_over_pi * np.pi, self.q, sign)


def _parse_fraction(text: str) -> float:
    """Accept 'a/b' exactly or a plain decimal."""
    text = text.strip()
    if "/" in text:
        return float(Fraction(text))
    return float(text)


_TYPE_PARSERS = {"str": str, "int": int, "float": float, "Boundary": Boundary.parse}

# every config key, with the parser of its text; each one is also a --flag
_KEYS = {
    f.name: _parse_fraction if f.name.startswith("kappa") else _TYPE_PARSERS[f.type]
    for f in fields(ExperimentConfig)
    if f.name != "check"
}


def _parse(key: str, text: str, line: int | None = None):
    """One value from its text, checked on its own against the global defaults."""
    if key not in _KEYS:
        raise ConfigError(f"unknown key {key!r}", line)
    try:
        value = _KEYS[key](text)
        ExperimentConfig(**{"experiment": next(iter(EXPERIMENTS)), key: value})
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{key}={text!r}: {exc}", line) from exc
    return value


def parse_config(text: str) -> dict:
    """key=value lines into a dict of explicitly set, checked keys."""
    explicit: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"expected key=value, got {raw!r}", lineno)
        explicit[key.strip()] = _parse(key.strip(), value.strip(), lineno)
    return explicit


def build_config(explicit: dict) -> ExperimentConfig:
    """Resolve defaults: global, then per-experiment, then gamma = 2*delta.

    Values that are valid alone but not together (an odd cell count on a
    ring) raise ``ValueError``.
    """
    if "experiment" not in explicit:
        raise ConfigError("no experiment selected (pass one on the command line or set experiment=)")
    _parse("experiment", explicit["experiment"])
    merged = {**EXPERIMENTS[explicit["experiment"]][1], **explicit}
    if "gamma" not in merged and "delta" in merged:
        merged["gamma"] = 2.0 * merged["delta"]  # stay tuned to the EP by default
    return ExperimentConfig(**merged)


# ---------------------------------------------------------------- output


_CELL = {"f": "%.17g", "i": "%d", "U": "%s"}  # by a column's dtype kind


def _write_csv(path: Path, header: list[str], columns) -> None:
    columns = [np.asarray(column) for column in columns]
    row = ",".join(_CELL[column.dtype.kind] for column in columns)
    lines = [",".join(header), *(row % cells for cells in zip(*(column.tolist() for column in columns)))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_norms(path: Path, traj: Trajectory, closed_form=None) -> None:
    closed = closed_form if closed_form is not None else [""] * len(traj.times)
    _write_csv(path, ["t", "P_numeric", "P_closed_form"], [traj.times, traj.norms, closed])


def _write_profile(path: Path, profile: np.ndarray, closed_form: np.ndarray | None = None) -> None:
    sites = np.arange(1, profile.size + 1)
    if closed_form is None:
        _write_csv(path, ["site", "probability"], [sites, profile])
    else:
        _write_csv(path, ["site", "probability", "probability_closed_form"], [sites, profile, closed_form])


# ------------------------------------------------------------ experiments
#
# Each runner writes its CSVs and returns its checks as (name, value, bound)
# tuples; under --check, run_experiment passes each one whose value <= bound.


def _evolve_packet(config: ExperimentConfig, state=None, H=None) -> Trajectory:
    """The packet (or state) over tmax_over_tau revival periods, on H (a decomposition) or config's chain."""
    params = config.lattice()
    if state is None:
        state = states.build_initial_state(config.packet(), params)
    tmax = config.tmax_over_tau * spectra.revival_period(params)
    dt = tmax / (config.samples - 1)
    return evolve(state, build_chain(params) if H is None else H, dt, config.samples - 1)


def _run_fig2(config: ExperimentConfig, outdir: Path) -> list:
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
        outcomes.append((f"center kappa0={m}pi/8", abs(meas.center - expected), 5.0))
    _write_csv(outdir / "centers.csv", ["kappa0_over_pi", "center", "width", "expected_center"], zip(*rows))
    base = profiles[4]
    for m in range(1, 8):
        shift = int(round(2 * params.cells * (m - 4) / 8.0))
        outcomes.append((f"translation m={m}", states.shape_distance(profiles[m], base, shift), 0.05))
    return outcomes


def _closed_form_profiles(config: ExperimentConfig, traj: Trajectory, outdir: Path) -> list:
    params = config.lattice()
    tau = spectra.revival_period(params)
    spec = config.packet().normalized(params.cells)
    outcomes = []
    compare_rows = []
    for index, t in enumerate(tau * f for f in _PROFILE_TIMES_OVER_TAU):
        numeric = traj.profile_at(t)
        predicted = np.abs(oracle.evolved_state_closed_form(t, spec, params)) ** 2
        l1 = np.abs(numeric - predicted).sum() / numeric.sum()
        compare_rows.append((t, l1))
        _write_profile(outdir / f"profile_t{index}.csv", numeric, predicted)
        outcomes.append((f"profile oracle t={t:.1f}", l1, 0.10))
    _write_csv(outdir / "compare.csv", ["t", "l1_over_norm"], zip(*compare_rows))
    return outcomes


def _run_fig3(config: ExperimentConfig, outdir: Path) -> list:
    params = config.lattice()
    traj = _evolve_packet(config)
    spec = config.packet().normalized(params.cells)
    closed = None
    if oracle.is_central(spec.kappa0):
        closed = oracle.dirac_norm_closed_form(traj.times, spec, params)
    _write_norms(outdir / "norms.csv", traj, closed)
    return _closed_form_profiles(config, traj, outdir)


def _run_fig4(config: ExperimentConfig, outdir: Path) -> list:
    params = config.lattice()
    spec = config.packet().normalized(params.cells)
    traj = _evolve_packet(config)
    closed = oracle.dirac_norm_closed_form(traj.times, spec, params)
    _write_norms(outdir / "norms.csv", traj, closed)

    tau = spectra.revival_period(params)
    # report the waveform period two ways rather than asserting a wording:
    # the closed-form norm repeats every tau/2, packets revive every tau
    peaks = _local_maxima(traj.times, traj.norms)
    if len(peaks) < 2:
        raise analysis.AnalysisError(f"fewer than two norm peaks in t = [0, {traj.times[-1]:.6g}]: no period")
    measured = float(peaks[1] - peaks[0])
    _write_csv(
        outdir / "period_report.csv",
        ["formula_period", "measured_period", "revival_period"],
        zip(*[(tau / 2.0, measured, tau)]),
    )
    half = traj.times <= tau / 2.0 + 1e-9
    rms = float(np.sqrt(np.mean((traj.norms[half] - closed[half]) ** 2)) / traj.norms[half].max())
    return [("closed-form norm RMS", rms, 0.15)]


def _local_maxima(t: np.ndarray, p: np.ndarray) -> list:
    return [t[i] for i in range(1, len(p) - 1) if p[i] >= p[i - 1] and p[i] >= p[i + 1] and p[i] > 0.5 * p.max()]


def _run_fig5(config: ExperimentConfig, outdir: Path) -> list:
    params = config.lattice()
    tau = spectra.revival_period(params)
    # one decomposition for the sweep: B B^T does not depend on the gain, which moves only each mode's growth rate
    modes = decompose(build_chain(params))
    rows = []
    for i, g in enumerate(config.gain_sweep(), start=1):
        traj = _evolve_packet(config, H=modes.at_gamma(g))
        report = analysis.classify_growth(traj.times, traj.norms, (0.05 * tau, 0.2 * tau))
        rows.append((g, report.label, report.r_squared, report.fit_params["linear"]["slope"]))
        _write_norms(outdir / f"norms_gamma{i}.csv", traj)
    _write_csv(outdir / "classification.csv", ["gamma", "label", "r_squared", "slope"], zip(*rows))
    wrong = sum(row[1] != label for row, label in zip(rows, ("Oscillatory", "Linear", "Exponential")))
    return [("threshold trichotomy", wrong, 0)]


def _run_fig6(config: ExperimentConfig, outdir: Path) -> list:
    traj = _evolve_packet(config)
    _write_norms(outdir / "norms.csv", traj)
    report = analysis.translation_window(traj)
    _write_csv(
        outdir / "translation.csv",
        ["window_start", "window_end", "norm_drift", "center_velocity", "first_reflection", "second_reflection"],
        zip(*[report.window + (report.norm_drift, report.center_velocity) + report.reflection_times]),
    )
    return [("probability-preserving translation", report.norm_drift, 0.05)]


def _run_fig7(config: ExperimentConfig, outdir: Path) -> list:
    params = config.lattice()
    modes = decompose(build_chain(params))  # one decomposition for all four runs
    plus = config.pair(+1).normalized(params.cells)
    psi1, psi2 = (states.build_initial_state(spec, params) for spec in plus.single_specs(params.cells))
    singles = [_evolve_packet(config, psi, modes) for psi in (psi1, psi2)]
    # half-maximum intervals ignore scale; each single's come from one pass over its profile blocks
    intervals = [np.concatenate([states.fwhm_interval(p) for _, p in single.profile_blocks()]) for single in singles]
    outcomes = []
    for sign, name in ((+1, "plus"), (-1, "minus")):
        # each pair is single1 +/- single2, the singles at the pair's own scale lam/sqrt2: the minus
        # pair's singles are the plus pair's times lam_minus/lam_plus, so two single runs serve both
        scale = config.pair(sign).normalized(params.cells).lam / plus.lam
        pair_traj = _evolve_packet(config, scale * (psi1 + sign * psi2), modes)
        total = scale**2 * (singles[0].norms + singles[1].norms)
        report = analysis.interference_report(pair_traj, intervals)
        _write_csv(
            outdir / f"norms_{name}.csv", ["t", "P_pair", "P_sum_singles"], [pair_traj.times, pair_traj.norms, total]
        )
        _write_csv(
            outdir / f"interference_{name}.csv",
            ["window_start", "window_end", "ratio_max", "ratio_min", "p_before"],
            zip(*[report.overlap_window + (report.ratio_max, report.ratio_min, report.p_before)]),
        )
        if sign > 0:
            outcomes.append(("constructive pair doubles", abs(report.ratio_max - 2.0), 0.4))
        else:
            outcomes.append(("destructive pair annihilates", report.ratio_min, 0.25))
        usable = report.separated & (pair_traj.norms > 0.05 * pair_traj.norms.max())
        rel = np.abs(pair_traj.norms[usable] - total[usable]) / total[usable]
        outcomes.append((f"separated sum ({name})", float(rel.max()) if rel.size else math.inf, 0.05))
    return outcomes


def _run_spectrum(config: ExperimentConfig, outdir: Path) -> list:
    params = config.lattice()
    ev = spectra.full_spectrum(build_chain(params))
    _write_csv(outdir / "eigenvalues.csv", ["re", "im"], [ev.real, ev.imag])
    if params.boundary is Boundary.PERIODIC:
        return [("coalescing zero pair", float(np.sort(np.abs(ev))[1]), 1e-6)]
    report = spectra.verify_equal_spacing(ev, 5, params)
    if report.ok:
        _write_csv(
            outdir / "spacings.csv",
            ["n", "level", "deviation"],
            [range(1, 6), report.levels[:5], report.spacing_deviations[:5]],
        )
    return [("equal spacing", max(report.spacing_deviations) if report.ok else math.inf, 0.10)]


def _run_oracle_compare(config: ExperimentConfig, outdir: Path) -> list:
    return _closed_form_profiles(config, _evolve_packet(config), outdir)


# experiment id -> (runner, canonical figure parameters for keys left unset)
EXPERIMENTS = {
    "fig2": (_run_fig2, {"cells": 1000}),
    "fig3": (_run_fig3, {}),
    "fig4": (_run_fig4, {"q": 0.05, "tmax_over_tau": 1.0}),
    "fig5": (_run_fig5, {"tmax_over_tau": 0.25}),
    "fig6": (_run_fig6, {"kappa0_over_pi": 1.0 / 6.0, "q": 0.05}),
    "fig7": (_run_fig7, {"kappa0_over_pi": 1.0 / 6.0, "kappa02_over_pi": 5.0 / 6.0, "q": 0.05}),
    "spectrum": (_run_spectrum, {}),
    "oracle-compare": (_run_oracle_compare, {"tmax_over_tau": 0.3}),
}


def run_experiment(config: ExperimentConfig) -> int:
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    outcomes = EXPERIMENTS[config.experiment][0](config, outdir)
    if not config.check:
        return EXIT_OK
    code = EXIT_OK
    for name, value, bound in outcomes:
        passed = value <= bound  # a NaN value fails
        code = code if passed else EXIT_CHECK
        print(f"[{'PASS' if passed else 'FAIL'}] {name} = {value:.4g} (bound {bound:g})")
    return code


# ------------------------------------------------------------------ main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhssh",
        description="Gain/loss SSH lattice experiments (CSV artifacts per figure id).",
    )
    parser.add_argument("experiment", nargs="?", help=f"experiment id: {', '.join(EXPERIMENTS)}")
    parser.add_argument("--config", type=Path, help="key=value config file ('#' comments)")
    for key in _KEYS:
        if key != "experiment":
            parser.add_argument("--" + key.replace("_", "-"), dest=key)
    parser.add_argument("--check", action="store_true", help="grade outputs; exit 4 on failure")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        explicit = {} if args.config is None else parse_config(args.config.read_text(encoding="utf-8"))
        for key in _KEYS:
            if getattr(args, key) is not None:
                explicit[key] = _parse(key, getattr(args, key))
        config = build_config(explicit)
        config.check = args.check
    except (ValueError, OSError) as exc:
        # ConfigError, a value that clashes with another, an unreadable file
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return run_experiment(config)
    except (
        analysis.AnalysisError,
        np.linalg.LinAlgError,  # a growth fit's least squares
        OverflowError,
        FloatingPointError,
    ) as exc:
        print(f"numerical failure [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError:
        print(f"numerical failure [MemoryError]: no memory for 2N = {2 * config.cells}; lower --cells", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"config error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        # domain-level rejections (two packets at one position, off-center
        # packet fed to the central-packet norm formula, ...)
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
