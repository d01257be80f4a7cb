"""Command-line front end: named experiments with CSV artifacts.

Each experiment id reproduces one published-figure-style data set from
the packet dynamics (initial profiles, evolved profiles, norm curves,
threshold classification, spectra, oracle comparisons).  Outputs are
plain CSV with '.' decimals, bit-identical across repeated runs; plot
rendering is left to external tools.  ``build_config`` resolves a run
once, and a config it cannot resolve is refused (exit 2) before any
output; ``run_experiment(config, check)`` runs it, writes its CSVs once
it has finished (a run that fails writes nothing) and, with check, grades it.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 check
failure (with --check).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from . import analysis, oracle, spectra, states
from .lattice import Boundary, Chain, LatticeParams, build_chain
from .propagate import Trajectory, decompose, evolve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CHECK = 4

_PROFILE_TIMES_OVER_TAU = (0.0, 0.125, 0.25)  # where fig3 and oracle-compare grade the profile oracle
_GROWTH_WINDOW_OVER_TAU = (0.05, 0.2)  # where fig5 classifies the norm's growth


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


@dataclass(frozen=True)
class ExperimentConfig:
    """One run; its derived quantities are cached properties, each worked out once. Building it refuses bad input."""

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

    def __post_init__(self):
        if not 2 <= self.samples <= 2**53:  # sample n sits at n*dt: past 2^53 a float no longer holds every n
            raise ValueError("samples must lie in [2, 2^53]")
        if not 0.0 < self.tmax_over_tau < math.inf:
            raise ValueError(f"tmax_over_tau must be finite and positive, got {self.tmax_over_tau}")
        if self.params.boundary is Boundary.PERIODIC and self.experiment in ("fig3", "fig4", "fig7", "oracle-compare"):
            raise ValueError(f"{self.experiment} grades packets built for the open chain; it takes boundary=open only")
        self.packet  # refuses one with no weight, as is kappa02's for every experiment: each value is checked alone too
        oracle.PacketSpec(self.kappa02_over_pi * np.pi, self.q).normalized(self.cells)
        if self.experiment in ("fig3", "oracle-compare") and self.tmax_over_tau < _PROFILE_TIMES_OVER_TAU[-1]:
            raise ValueError(
                f"{self.experiment} grades profiles up to t = tau/4, so it needs tmax_over_tau >= 1/4,"
                f" got {self.tmax_over_tau}"
            )
        if self.experiment == "fig4" and not oracle.is_central(self.packet.kappa0):
            raise ValueError(f"fig4 grades the kappa0 = pi/2 norm formula, got kappa0_over_pi={self.kappa0_over_pi}")
        if self.experiment == "fig5":
            self.gains, self.window
        if self.experiment == "fig7":
            self.pairs
        if self.experiment not in ("fig2", "spectrum"):
            self.dt  # every other experiment evolves

    @cached_property
    def params(self) -> LatticeParams:
        return LatticeParams(self.cells, self.delta, self.gamma, self.boundary)

    @cached_property
    def chain(self) -> Chain:
        return build_chain(self.params)

    @cached_property
    def tau(self) -> float:
        return spectra.revival_period(self.params)

    @cached_property
    def dt(self) -> float:
        """The run's samples are at t = n*dt, n < samples, up to tmax_over_tau revival periods."""
        with np.errstate(over="ignore"):  # a span so long that dt overflows is refused below
            dt = self.tmax_over_tau * self.tau / (self.samples - 1)
        if not 0.0 < dt < math.inf:
            raise ValueError(f"the time step tmax_over_tau * tau / (samples - 1) must be finite and > 0, got dt={dt}")
        return dt

    @cached_property
    def packet(self) -> oracle.PacketSpec:
        return oracle.PacketSpec(self.kappa0_over_pi * np.pi, self.q).normalized(self.cells)

    @cached_property
    def pairs(self) -> tuple[states.PacketPairSpec, states.PacketPairSpec]:
        """fig7's pairs at kappa0 and kappa02, plus then minus."""
        k1, k2 = self.kappa0_over_pi * np.pi, self.kappa02_over_pi * np.pi
        return tuple(states.PacketPairSpec(k1, k2, self.q, sign).normalized(self.cells) for sign in (+1, -1))

    @cached_property
    def gains(self) -> tuple[float, float, float]:
        """fig5's gains gamma_c - 0.1, gamma_c, gamma_c + 0.1: the lowest must still be a gain."""
        gamma_c = self.params.gamma_c
        if gamma_c - 0.1 <= 0.0:
            raise ValueError(f"fig5 sweeps gamma from 2*delta - 0.1, which needs delta > 0.05, got {self.delta}")
        return tuple(gamma_c + d for d in (-0.1, 0.0, 0.1))

    @cached_property
    def window(self) -> tuple[float, float]:
        """fig5's growth window, which must hold enough of the run's samples n*dt to fit."""
        lo, hi = (f * self.tau for f in _GROWTH_WINDOW_OVER_TAU)
        dt, need = self.dt, analysis.MIN_WINDOW_SAMPLES
        held = _first_sample(lambda n: n * dt > hi, self.samples) - _first_sample(lambda n: n * dt >= lo, self.samples)
        if held < need:
            raise ValueError(f"fig5's growth window, t in [{lo:.4g}, {hi:.4g}], holds {held} samples; need >= {need}")
        return lo, hi


def _first_sample(reached, samples: int) -> int:
    """The first n < samples where ``reached(n)``, which never turns false again as n grows, holds; else samples."""
    lo, hi = 0, samples
    while lo < hi:  # about log2(samples) steps, as no table of the samples is formed
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if reached(mid) else (mid + 1, hi)
    return lo


def _parse_fraction(text: str) -> float:
    """Accept 'a/b' exactly or a plain decimal."""
    text = text.strip()
    if "/" in text:
        return float(Fraction(text))
    return float(text)


_TYPE_PARSERS = {"str": str, "int": int, "float": _parse_fraction, "Boundary": Boundary.parse}

# every config key, with the parser of its text; each one is also a --flag
_KEYS = {f.name: _TYPE_PARSERS[f.type] for f in fields(ExperimentConfig)}


def _parse(key: str, text: str, line: int | None = None):
    """One value from its text, checked on its own: an experiment by name, any other key against the global defaults."""
    if key not in _KEYS:
        raise ConfigError(f"unknown key {key!r}", line)
    try:
        value = _KEYS[key](text)
        if key != "experiment":
            ExperimentConfig(**{"experiment": next(iter(EXPERIMENTS)), key: value})
        elif value not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {value!r}; expected one of {', '.join(EXPERIMENTS)}")
    except (ValueError, ZeroDivisionError, MemoryError) as exc:  # MemoryError: a --cells too large to resolve
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
    """Resolve a run once: defaults global, then per-experiment, then gamma = 2*delta; then what the runner reads.

    Values that are valid alone but not together (an odd cell count on a
    ring, a growth window too short for its samples) raise ``ValueError``.
    """
    if "experiment" not in explicit:
        raise ConfigError("no experiment selected (pass one on the command line or set experiment=)")
    _parse("experiment", explicit["experiment"])  # a dict's name is checked as a file's is
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


def _norms_table(traj: Trajectory, closed_form=None) -> tuple:
    closed = closed_form if closed_form is not None else [""] * len(traj.times)
    return ["t", "P_numeric", "P_closed_form"], [traj.times, traj.norms, closed]


def _profile_table(profile: np.ndarray, closed_form: np.ndarray | None = None) -> tuple:
    sites = np.arange(1, profile.size + 1)
    if closed_form is None:
        return ["site", "probability"], [sites, profile]
    return ["site", "probability", "probability_closed_form"], [sites, profile, closed_form]


# ------------------------------------------------------------ experiments
#
# Each runner fills ``files`` with its CSVs, file name -> (header, columns), and
# returns its checks as (name, value, bound) tuples; run_experiment writes the
# files once the runner returns and, under --check, passes each value <= bound.


def _evolve_packet(config: ExperimentConfig, H) -> Trajectory:
    """The config's packet over tmax_over_tau revival periods, on H: its chain or a decomposition."""
    return evolve(states.build_initial_state(config.packet, config.params), H, config.dt, config.samples - 1)


def _run_fig2(config: ExperimentConfig, files: dict) -> list:
    params = config.params
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
        files[f"profile_t{m}.csv"] = _profile_table(profile)
        outcomes.append((f"center kappa0={m}pi/8", abs(meas.center - expected), 5.0))
    files["centers.csv"] = ["kappa0_over_pi", "center", "width", "expected_center"], zip(*rows)
    base = profiles[4]
    for m in range(1, 8):
        shift = int(round(2 * params.cells * (m - 4) / 8.0))
        outcomes.append((f"translation m={m}", states.shape_distance(profiles[m], base, shift), 0.05))
    return outcomes


def _closed_form_profiles(config: ExperimentConfig, traj: Trajectory, files: dict) -> list:
    outcomes = []
    compare_rows = []
    for index, t in enumerate(config.tau * f for f in _PROFILE_TIMES_OVER_TAU):
        numeric = traj.profile_at(t)
        predicted = np.abs(oracle.evolved_state_closed_form(t, config.packet, config.params)) ** 2
        l1 = np.abs(numeric - predicted).sum() / numeric.sum()
        compare_rows.append((t, l1))
        files[f"profile_t{index}.csv"] = _profile_table(numeric, predicted)
        outcomes.append((f"profile oracle t={t:.1f}", l1, 0.10))
    files["compare.csv"] = ["t", "l1_over_norm"], zip(*compare_rows)
    return outcomes


def _run_fig3(config: ExperimentConfig, files: dict) -> list:
    traj = _evolve_packet(config, config.chain)
    closed = None
    if oracle.is_central(config.packet.kappa0):
        closed = oracle.dirac_norm_closed_form(traj.times, config.packet, config.params)
    files["norms.csv"] = _norms_table(traj, closed)
    return _closed_form_profiles(config, traj, files)


def _run_fig4(config: ExperimentConfig, files: dict) -> list:
    traj = _evolve_packet(config, config.chain)
    closed = oracle.dirac_norm_closed_form(traj.times, config.packet, config.params)
    files["norms.csv"] = _norms_table(traj, closed)

    # report the waveform period two ways rather than asserting a wording:
    # the closed-form norm repeats every tau/2, packets revive every tau
    p = traj.norms
    peaks = traj.times[1:-1][(p[1:-1] >= p[:-2]) & (p[1:-1] >= p[2:]) & (p[1:-1] > 0.5 * p.max())]
    if len(peaks) < 2:
        raise analysis.AnalysisError(f"fewer than two norm peaks in t = [0, {traj.times[-1]:.6g}]: no period")
    measured = float(peaks[1] - peaks[0])
    files["period_report.csv"] = (
        ["formula_period", "measured_period", "revival_period"],
        zip(*[(config.tau / 2.0, measured, config.tau)]),
    )
    half = traj.times <= config.tau / 2.0 + 1e-9
    rms = float(np.sqrt(np.mean((traj.norms[half] - closed[half]) ** 2)) / traj.norms[half].max())
    return [("closed-form norm RMS", rms, 0.15)]


def _run_fig5(config: ExperimentConfig, files: dict) -> list:
    # one decomposition for the sweep: B B^T does not depend on the gain, which moves only each mode's growth rate
    modes = decompose(config.chain)
    rows = []
    for i, g in enumerate(config.gains, start=1):
        traj = _evolve_packet(config, modes.at_gamma(g))
        report = analysis.classify_growth(traj.times, traj.norms, config.window)
        rows.append((g, report.label, report.r_squared, report.fit_params["linear"]["slope"]))
        files[f"norms_gamma{i}.csv"] = _norms_table(traj)
    files["classification.csv"] = ["gamma", "label", "r_squared", "slope"], zip(*rows)
    wrong = sum(row[1] != label for row, label in zip(rows, ("Oscillatory", "Linear", "Exponential")))
    return [("threshold trichotomy", wrong, 0)]


def _run_fig6(config: ExperimentConfig, files: dict) -> list:
    traj = _evolve_packet(config, config.chain)
    files["norms.csv"] = _norms_table(traj)
    report = analysis.translation_window(traj)
    files["translation.csv"] = (
        ["window_start", "window_end", "norm_drift", "center_velocity", "first_reflection", "second_reflection"],
        zip(*[report.window + (report.norm_drift, report.center_velocity) + report.reflection_times]),
    )
    return [("probability-preserving translation", report.norm_drift, 0.05)]


def _run_fig7(config: ExperimentConfig, files: dict) -> list:
    modes = decompose(config.chain)  # one decomposition for all four runs
    plus = config.pairs[0]
    psi1, psi2 = (states.build_initial_state(spec, config.params) for spec in plus.single_specs(config.cells))
    singles = [evolve(psi, modes, config.dt, config.samples - 1) for psi in (psi1, psi2)]
    # half-maximum intervals ignore scale; each single's come from one pass over its profile blocks
    intervals = [np.concatenate([states.fwhm_interval(p) for _, p in single.profile_blocks()]) for single in singles]
    outcomes = []
    for pair, name in zip(config.pairs, ("plus", "minus")):
        # each pair is single1 +/- single2, the singles at the pair's own scale lam/sqrt2: the minus
        # pair's singles are the plus pair's times lam_minus/lam_plus, so two single runs serve both
        scale = pair.lam / plus.lam
        pair_traj = evolve(scale * (psi1 + pair.relative_sign * psi2), modes, config.dt, config.samples - 1)
        total = scale**2 * (singles[0].norms + singles[1].norms)
        report = analysis.interference_report(pair_traj, intervals)
        files[f"norms_{name}.csv"] = ["t", "P_pair", "P_sum_singles"], [pair_traj.times, pair_traj.norms, total]
        files[f"interference_{name}.csv"] = (
            ["window_start", "window_end", "ratio_max", "ratio_min", "p_before"],
            zip(*[report.overlap_window + (report.ratio_max, report.ratio_min, report.p_before)]),
        )
        if pair.relative_sign > 0:
            outcomes.append(("constructive pair doubles", abs(report.ratio_max - 2.0), 0.4))
        else:
            outcomes.append(("destructive pair annihilates", report.ratio_min, 0.25))
        usable = report.separated & (pair_traj.norms > 0.05 * pair_traj.norms.max())
        rel = np.abs(pair_traj.norms[usable] - total[usable]) / total[usable]
        outcomes.append((f"separated sum ({name})", float(rel.max()) if rel.size else math.inf, 0.05))
    return outcomes


def _run_spectrum(config: ExperimentConfig, files: dict) -> list:
    ev = spectra.full_spectrum(config.chain)
    files["eigenvalues.csv"] = ["re", "im"], [ev.real, ev.imag]
    if config.boundary is Boundary.PERIODIC:
        return [("coalescing zero pair", float(np.sort(np.abs(ev))[1]), 1e-6)]
    report = spectra.verify_equal_spacing(ev, 5, config.params)
    n = np.arange(1, len(report.levels) + 1)  # no levels, so a header alone, where the near-zero levels do not pair
    files["spacings.csv"] = ["n", "level", "deviation"], [n, report.levels, report.spacing_deviations]
    return [("equal spacing", max(report.spacing_deviations, default=math.inf), 0.10)]


def _run_oracle_compare(config: ExperimentConfig, files: dict) -> list:
    return _closed_form_profiles(config, _evolve_packet(config, config.chain), files)


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


def run_experiment(config: ExperimentConfig, check: bool = False) -> int:
    files = {}
    outcomes = EXPERIMENTS[config.experiment][0](config, files)
    outdir = Path(config.out)  # made only once the run has finished: a run that fails writes nothing
    outdir.mkdir(parents=True, exist_ok=True)
    for name, (header, columns) in files.items():
        _write_csv(outdir / name, header, columns)
    if not check:
        return EXIT_OK
    code = EXIT_OK
    for name, value, bound in outcomes:
        passed = value <= bound  # a NaN value fails
        code = code if passed else EXIT_CHECK
        print(f"[{'PASS' if passed else 'FAIL'}] {name} = {value:.4g} (bound {bound:g})")
    return code


# ------------------------------------------------------------------ main


@cache  # one parser per process: each one is cyclic garbage, held on the heap until a collection
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
    except (ValueError, OSError, MemoryError) as exc:
        # ConfigError, a value that clashes with another, an unreadable file, a derived array numpy cannot allocate
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return run_experiment(config, args.check)
    except (analysis.AnalysisError, np.linalg.LinAlgError, OverflowError, FloatingPointError) as exc:
        # LinAlgError: a growth fit's least squares
        print(f"numerical failure [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError:
        reason = f"no memory for 2N = {2 * config.cells} and {config.samples} samples; lower --cells or --samples"
        print(f"numerical failure [MemoryError]: {reason}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"config error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        # a domain-level rejection that only the run meets (a chain whose hopping is singular)
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
