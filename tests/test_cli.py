import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nhssh
from nhssh import Trajectory, build_hamiltonian, build_initial_state, build_pair_state, evolve, revival_period
from nhssh.cli import (
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    build_config,
    main,
    _write_csv,
    parse_config,
)
from nhssh.lattice import Boundary, Chain

from golden_summary import GOLDEN, mismatches


def test_parse_config_basic():
    explicit = parse_config("delta=0.9\ngamma=1.8\ncells=250\n")
    assert explicit == {"delta": 0.9, "gamma": 1.8, "cells": 250}


def test_parse_config_comments_and_blanks():
    explicit = parse_config("# full defaults\n\n   \nq=0.05  # wider packet\n")
    assert explicit == {"q": 0.05}


def test_parse_config_empty_gives_defaults():
    config = build_config({"experiment": "fig3", **parse_config("")})
    assert config.cells == 250
    assert config.delta == 0.9
    assert config.gamma == 1.8
    assert config.q == 0.02
    assert config.kappa0_over_pi == 0.5
    assert config.boundary is Boundary.OPEN
    assert config.tmax_over_tau == 0.5
    assert config.samples == 2000


def test_parse_config_range_error_has_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config("cells=250\ndelta=1.2\n")
    assert "delta" in str(err.value)
    assert err.value.line == 2


def test_parse_config_unknown_key_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config("cells=250\nwidth=3\n")
    assert err.value.line == 2


def test_parse_config_bad_value_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config("cells=many\n")
    assert err.value.line == 1


def test_parse_config_fractions():
    assert parse_config("kappa0_over_pi=1/6\n")["kappa0_over_pi"] == pytest.approx(1 / 6)
    assert parse_config("kappa0_over_pi=0.25\n")["kappa0_over_pi"] == 0.25


def test_experiment_defaults_applied():
    config = build_config({"experiment": "fig6"})
    assert config.kappa0_over_pi == pytest.approx(1 / 6)
    assert config.q == 0.05
    config = build_config({"experiment": "fig6", "q": 0.02})
    assert config.q == 0.02  # explicit wins


def test_gamma_tracks_delta_by_default():
    config = build_config({"experiment": "fig4", "delta": 0.8})
    assert config.gamma == pytest.approx(1.6)
    config = build_config({"experiment": "fig4", "delta": 0.8, "gamma": 1.8})
    assert config.gamma == 1.8


def test_build_config_requires_experiment():
    with pytest.raises(ConfigError):
        build_config({"delta": 0.9})


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        parse_config("experiment=fig9\n")


SMALL = ["--cells", "40", "--samples", "160", "--tmax-over-tau", "0.3"]


def test_main_fig3_outputs(tmp_path):
    out = tmp_path / "fig3"
    assert main(["fig3", *SMALL, "--out", str(out)]) == EXIT_OK
    norms = (out / "norms.csv").read_text().splitlines()
    assert norms[0] == "t,P_numeric,P_closed_form"
    assert len(norms) == 1 + 160  # header + one row per sample
    for idx in range(3):
        prof = (out / f"profile_t{idx}.csv").read_text().splitlines()
        assert len(prof) == 1 + 80  # 2N rows


@pytest.mark.parametrize("q", ["1e-9", "0"])
def test_main_fig3_closed_form_as_q_goes_to_zero(tmp_path, q):
    # the closed-form norm's argument e^{-2q - 2i omega t} reaches the unit circle at q = 0
    out = tmp_path / "fig3"
    assert main(["fig3", "--cells", "40", "--q", q, "--out", str(out)]) == EXIT_OK
    closed = np.loadtxt(out / "norms.csv", delimiter=",", skiprows=1)[:, 2]
    assert np.isfinite(closed).all() and closed[0] == 0.0 and 1.5 < closed.max() < 2.5


def test_cli_import_needs_neither_scipy_special_nor_mpmath(tmp_path):
    # nor scipy at all: its linear algebra alone was most of the start-up of every run; checked after
    # a small fig3 run, in a fresh interpreter
    code = (
        "import sys, nhssh.cli\n"
        "assert nhssh.cli.main(['fig3', '--cells', '20', '--samples', '50', '--out', sys.argv[1]]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))"
    )
    src = str(Path(nhssh.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert result.stdout.strip() == "[]"
    assert (tmp_path / "norms.csv").exists()


@pytest.fixture(scope="module")
def reproduce_all(tmp_path_factory):
    """The whole published-scale sweep, in a fresh interpreter, writing out/ under a temporary directory."""
    cwd = tmp_path_factory.mktemp("reproduce_all")
    src = Path(nhssh.__file__).resolve().parents[1]
    script = src.parent / "scripts" / "reproduce_all.py"
    result = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, cwd=cwd,
                            env={**os.environ, "PYTHONPATH": str(src)}, timeout=300)
    return result, cwd / "out"


def test_reproduce_all_passes_every_check(reproduce_all):
    result, out = reproduce_all
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert sum(line.startswith("[PASS]") for line in lines) == 31
    assert not any(line.startswith("[FAIL]") for line in lines)
    assert (out / "spectrum_1" / "eigenvalues.csv").exists()


def test_reproduce_all_matches_golden_summary(reproduce_all):
    # centers, spacings, labels, translation, interference, period report and oracle L1, each within
    # its own tolerance of the golden file (see golden_summary.py)
    result, out = reproduce_all
    assert result.returncode == 0, result.stderr
    assert mismatches(out, json.loads(GOLDEN.read_text(encoding="utf-8"))) == []


def test_main_outputs_bit_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["fig3", *SMALL, "--out", str(out1)]) == EXIT_OK
    assert main(["fig3", *SMALL, "--out", str(out2)]) == EXIT_OK
    for name in ("norms.csv", "profile_t0.csv", "compare.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_main_spectrum_rows(tmp_path):
    out = tmp_path / "spec"
    assert main(["spectrum", "--cells", "40", "--out", str(out), "--check"]) == EXIT_OK
    rows = (out / "eigenvalues.csv").read_text().splitlines()
    assert len(rows) == 1 + 80
    assert (out / "spacings.csv").exists()


def test_main_spectrum_periodic_zero_pair(tmp_path):
    out = tmp_path / "ring"
    code = main(["spectrum", "--cells", "40", "--boundary", "periodic", "--out", str(out), "--check"])
    assert code == EXIT_OK


@pytest.mark.parametrize("experiment", ["fig3", "fig4", "fig7", "oracle-compare"])
def test_open_chain_experiments_reject_the_ring(tmp_path, capsys, experiment):
    # their packets and oracles belong to the tuned open chain: on the ring at 2N = 500 fig3 and
    # oracle-compare failed their profile oracle, fig7 its interference checks, and fig4 found no
    # second norm peak, so the config is refused before any output directory exists
    out = tmp_path / experiment
    assert main([experiment, "--boundary", "periodic", "--out", str(out), "--check"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "boundary=open only" in err
    cfg = tmp_path / "ring.cfg"
    cfg.write_text(f"experiment={experiment}\nboundary=periodic\n")
    assert main(["--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["fig2", "fig5", "fig6", "spectrum"])
def test_other_experiments_accept_the_ring(experiment):
    config = build_config({"experiment": experiment, "boundary": Boundary.PERIODIC})
    assert config.lattice().boundary is Boundary.PERIODIC


def test_main_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment=spectrum\ncells=30\nboundary=open\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--cells", "36", "--out", str(out)]) == EXIT_OK
    rows = (out / "eigenvalues.csv").read_text().splitlines()
    assert len(rows) == 1 + 72  # flag overrides the file value


def test_main_config_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("delta=1.2\n")
    assert main(["fig3", "--config", str(cfg)]) == EXIT_CONFIG
    assert main(["fig3", "--delta", "-3"]) == EXIT_CONFIG
    for flag in ("--gamma", "--q", "--tmax-over-tau"):
        for value in ("nan", "inf", "-inf"):
            assert main(["fig3", f"{flag}={value}"]) == EXIT_CONFIG
    cfg.write_text("q=nan\n")
    assert main(["fig3", "--config", str(cfg)]) == EXIT_CONFIG
    assert main(["--config", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG


def test_main_unwritable_outdir_exit_code(tmp_path):
    blocker = tmp_path / "occupied"
    blocker.write_text("not a directory")
    assert main(["spectrum", "--cells", "10", "--out", str(blocker)]) == EXIT_CONFIG


def test_main_domain_rejection_exit_code(tmp_path):
    # odd cell count is only invalid together with the periodic boundary,
    # which the lattice itself rejects
    out = tmp_path / "odd"
    assert main(["spectrum", "--cells", "11", "--boundary", "periodic", "--out", str(out)]) == EXIT_CONFIG


def test_main_numerical_failure_exit_code(tmp_path):
    # a span that ends before the packet ever reaches a wall leaves fig6
    # without an inter-reflection window
    out = tmp_path / "short"
    code = main(["fig6", "--cells", "60", "--samples", "80", "--tmax-over-tau", "0.02", "--out", str(out)])
    assert code == EXIT_NUMERICAL


def test_main_fig4_too_short_for_a_period_exit_code(tmp_path, capsys):
    # 0.3 tau holds a single norm peak: the measured period does not exist
    out = tmp_path / "fig4"
    code = main(["fig4", "--cells", "40", "--samples", "160", "--tmax-over-tau", "0.3", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert re.search(r"\[AnalysisError\]: fewer than two norm peaks in t = \[0, 57\.98\d*\]", err)
    assert len(err.strip().splitlines()) == 1
    assert not (out / "period_report.csv").exists()


def test_main_fig7_equal_positions_rejected_before_output(tmp_path, capsys):
    # fig7's default kappa0 is pi/6, so this puts both packets at one position
    out = tmp_path / "fig7"
    assert main(["fig7", "--kappa02-over-pi", "1/6", "--out", str(out)]) == EXIT_CONFIG
    assert "kappa01 and kappa02 must differ" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("delta", ["0.05", "0.04"])
def test_main_fig5_needs_a_gain_below_threshold(tmp_path, capsys, delta):
    # fig5 sweeps gamma from 2*delta - 0.1: at delta = 0.05 that gain is 0 (a Hermitian chain whose
    # norm is constant), below it negative; both are config errors found before any output
    out = tmp_path / "fig5"
    assert main(["fig5", "--cells", "60", "--samples", "500", "--delta", delta, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "delta > 0.05" in err
    assert not out.exists()


def test_main_overflow_exit_code(tmp_path, capsys):
    # above threshold the norm leaves float range within a few periods; the
    # run must fail instead of writing inf/NaN and exiting 0
    out = tmp_path / "long"
    code = main(["fig5", "--cells", "20", "--samples", "4000", "--tmax-over-tau", "8", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    # the first non-finite sample, about 6 periods in, is named
    assert re.search(r"\[OverflowError\]: .* at t = 59\d\.\d", capsys.readouterr().err)


def test_main_memory_error_exit_code(tmp_path, capsys, monkeypatch):
    def out_of_memory(params):
        raise MemoryError

    monkeypatch.setattr("nhssh.spectra.full_spectrum", out_of_memory)
    code = main(["spectrum", "--cells", "40", "--out", str(tmp_path / "oom")])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "MemoryError" in err and "--cells" in err


def test_main_fig2_small(tmp_path):
    out = tmp_path / "fig2"
    assert main(["fig2", "--cells", "100", "--out", str(out)]) == EXIT_OK
    centers = (out / "centers.csv").read_text().splitlines()
    assert len(centers) == 1 + 7
    for m in range(1, 8):
        assert (out / f"profile_t{m}.csv").exists()


def test_check_failure_exit_code(tmp_path, capsys):
    # at a tiny scale with a far-off-tuned gamma the spectrum check fails
    out = tmp_path / "bad"
    code = main(["spectrum", "--cells", "40", "--gamma", "2.6", "--out", str(out), "--check"])
    assert code == EXIT_CHECK
    assert "[FAIL]" in capsys.readouterr().out
    # without --check the same run is not graded
    assert main(["spectrum", "--cells", "40", "--gamma", "2.6", "--out", str(out)]) == EXIT_OK
    assert "[FAIL]" not in capsys.readouterr().out


CHECK_LINE = re.compile(r"^\[(PASS|FAIL)\] .+ = \S+ \(bound \S+\)$")


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_every_check_line_names_its_value_and_bound(tmp_path, capsys, experiment):
    # at 2N = 80 some checks fail (the profile oracle is graded at large N only), but every line has one form
    argv = [experiment, "--cells", "40", "--samples", "160", "--out", str(tmp_path / experiment), "--check"]
    code = main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(CHECK_LINE.match(line) for line in lines), lines
    assert code == (EXIT_CHECK if any(line.startswith("[FAIL]") for line in lines) else EXIT_OK)


def test_checks_are_graded_value_at_most_bound(tmp_path, capsys, monkeypatch):
    # run_experiment grades every runner's (name, value, bound): a value at its bound passes, a NaN fails
    checks = [("at the bound", 0.25, 0.25), ("no value", math.nan, 1.0)]
    monkeypatch.setitem(EXPERIMENTS, "spectrum", (lambda config, outdir: checks, {}))
    assert main(["spectrum", "--out", str(tmp_path / "spectrum"), "--check"]) == EXIT_CHECK
    assert capsys.readouterr().out.splitlines() == [
        "[PASS] at the bound = 0.25 (bound 0.25)",
        "[FAIL] no value = nan (bound 1)",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["fig2", "--q", "100"],
        ["fig3", "--q", "100"],
        ["fig7", "--q", "100"],
        ["oracle-compare", "--q", "100"],
        ["fig3", "--kappa0-over-pi", "1e-300"],
        ["fig3", "--kappa0-over-pi", "1e-160", "--cells", "40", "--samples", "160"],
        ["fig7", "--q", "30"],
    ],
    ids=["fig2-q100", "fig3-q100", "fig7-q100", "oracle-compare-q100", "fig3-kappa0-1e-300", "fig3-kappa0-1e-160",
         "fig7-q30"],
)
def test_packet_without_weight_is_refused_before_output(tmp_path, capsys, argv):
    # past q = 40 no coefficient survives the e^-40 cutoff, at kappa0 = 1e-300 pi every squared term underflows,
    # at 1e-160 pi their sum is subnormal (4.8e-318, so lam came out 1e159 and the run exited 4 with
    # L1/P = 4e286), and at q = 30 fig7's minus pair keeps only n = 1, where its two packets cancel; these runs
    # used to write inf, raise ZeroDivisionError, fail their check or leave an output directory behind
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out), "--check"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "packet has no weight" in err
    assert not out.exists()


def test_small_kappa0_with_a_normal_weight_runs(tmp_path):
    # at kappa0 = 1e-150 pi the squared terms sum to 3.9e-298, a normal double: the packet keeps its scale
    out = tmp_path / "fig3"
    argv = ["fig3", "--kappa0-over-pi", "1e-150", "--cells", "40", "--samples", "160", "--out", str(out)]
    assert main(argv) == EXIT_OK
    norms = np.loadtxt(out / "norms.csv", delimiter=",", skiprows=1, usecols=(0, 1))
    assert np.isfinite(norms).all() and norms[:, 1].min() > 0.0


def test_fig4_needs_the_central_packet_before_output(tmp_path, capsys):
    # the norm formula fig4 grades is derived for kappa0 = pi/2: any other is refused before the evolve
    out = tmp_path / "fig4"
    assert main(["fig4", "--kappa0-over-pi", "1/3", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "kappa0 = pi/2" in err
    assert not out.exists()
    # fig3 takes any kappa0, and leaves the closed-form norm column empty off center
    assert main(["fig3", "--kappa0-over-pi", "1/3", *SMALL, "--out", str(out)]) == EXIT_OK
    assert (out / "norms.csv").read_text().splitlines()[1].endswith(",")


@pytest.mark.parametrize("experiment", ["fig3", "oracle-compare"])
def test_profile_oracle_span_is_refused_before_output(tmp_path, capsys, experiment):
    # both grade profiles at t = 0, tau/8 and tau/4: a span short of tau/4 used to run the whole evolution,
    # write its CSVs and only then exit 2 (tmax_over_tau = 0.2), or run and grade at the nearest sample
    # (0.2499, inside half a step of tau/4)
    for tmax_over_tau in ("0.2", "0.2499"):
        out = tmp_path / f"{experiment}-{tmax_over_tau}"
        assert main([experiment, *SMALL, "--tmax-over-tau", tmax_over_tau, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "tmax_over_tau >= 1/4" in err
        assert not out.exists()
    out = tmp_path / f"{experiment}-quarter"
    assert main([experiment, *SMALL, "--tmax-over-tau", "0.25", "--out", str(out)]) == EXIT_OK
    assert (out / "profile_t2.csv").exists()


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_every_experiment_runs_silently(tmp_path, capsys, experiment):
    out = tmp_path / experiment
    assert main([experiment, "--cells", "40", "--samples", "160", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    csvs = sorted(out.glob("*.csv"))
    assert csvs
    for path in csvs:
        cells = set(re.split(r"[,\n]", path.read_text()))
        assert not cells & {"nan", "inf", "-inf"}, path.name


def test_config_dataclass_lattice_helpers():
    config = ExperimentConfig(experiment="fig3", cells=30, delta=0.8, gamma=1.6)
    assert config.lattice().gamma == 1.6
    assert config.packet().kappa0 == pytest.approx(np.pi / 2)


def _read_columns(path):
    header, *rows = path.read_text().splitlines()
    return dict(zip(header.split(","), np.array([row.split(",") for row in rows], dtype=float).T))


def test_fig7_pairs_from_singles_match_pair_evolution(tmp_path):
    # fig7 forms each pair from its two singles on one decomposition; evolving the pair state
    # itself, and each single at the pair's own scale, must give the same norm curves
    out = tmp_path / "fig7"
    assert main(["fig7", "--cells", "60", "--samples", "600", "--out", str(out)]) == EXIT_OK
    config = build_config({"experiment": "fig7", "cells": 60, "samples": 600})
    params = config.lattice()
    H = build_hamiltonian(params)
    dt = config.tmax_over_tau * revival_period(params) / (config.samples - 1)
    for sign, name in ((+1, "plus"), (-1, "minus")):
        written = _read_columns(out / f"norms_{name}.csv")
        pair = config.pair(sign).normalized(params.cells)
        reference = evolve(build_pair_state(pair, params), H, dt, config.samples - 1).norms
        assert np.abs(written["P_pair"] - reference).max() <= 1e-12 * reference.max()
        singles = sum(
            evolve(build_initial_state(spec, params), H, dt, config.samples - 1).norms
            for spec in pair.single_specs(params.cells)
        )
        assert np.abs(written["P_sum_singles"] - singles).max() <= 1e-12 * singles.max()


@pytest.mark.parametrize("experiment", ["fig5", "fig7"])
def test_one_eigensolve_per_experiment(tmp_path, monkeypatch, experiment):
    # fig5's three gains and fig7's four runs share one closed-form solve of the chain's modes
    calls = []
    solve = Chain.modes
    monkeypatch.setattr(Chain, "modes", lambda *a, **k: calls.append(1) or solve(*a, **k))
    argv = [experiment, "--cells", "40", "--samples", "400", "--out", str(tmp_path / experiment)]
    assert main(argv) == EXIT_OK
    assert len(calls) == 1


def test_fig7_smooths_each_single_once(tmp_path, monkeypatch):
    # both pairs are formed from the same two singles, so their half-maximum intervals are found in one
    # pass over each single's profiles, and no pair's profile is formed
    passes = []
    profile_blocks = Trajectory.profile_blocks

    def counted(traj):
        passes.append(traj)
        return profile_blocks(traj)

    monkeypatch.setattr(Trajectory, "profile_blocks", counted)
    assert main(["fig7", "--cells", "40", "--samples", "400", "--out", str(tmp_path / "fig7")]) == EXIT_OK
    assert len(passes) == 2 and passes[0] is not passes[1]


@pytest.mark.parametrize("cells", [40, 250, 251])
def test_every_evolved_state_takes_one_component(tmp_path, monkeypatch, cells):
    # C H* C = -H at every real gain, and every packet and pair is CT-real up to one phase: each run keeps
    # chi_1 alone (chi_2's largest share of a norm measured 9.6e-25, at 2N = 502), above threshold too
    runs = []
    monkeypatch.setattr(nhssh.cli, "evolve", lambda *args: runs.append(evolve(*args)) or runs[-1])
    for experiment in ("fig3", "fig4", "fig5", "fig6", "fig7", "oracle-compare"):
        assert main([experiment, "--cells", str(cells), "--out", str(tmp_path / experiment)]) == EXIT_OK
    assert [traj.components for traj in runs] == [1] * 11  # fig5's three gains, fig7's two singles and two pairs


@pytest.mark.parametrize("experiment", ["fig6", "fig7"])
def test_profile_readers_peak_below_8_mib(tmp_path, experiment):
    # at 2N = 500 and 2000 samples the profile stack alone is 7.6 MiB; fig6 and fig7 reduce one 64-sample
    # block at a time (2.7 and 4.1 MiB measured, 18.6 and 26.7 MiB when they read the whole stack)
    argv = [experiment, "--cells", "250", "--samples", "2000", "--out", str(tmp_path / experiment)]
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak / 2**20


def _cell(value) -> str:
    # the cell-by-cell reference: ints in full, strings as they are, every float as a double to 17 digits
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return value if isinstance(value, str) else format(float(value), ".17g")


def test_csv_columns_format_like_cells(tmp_path):
    # a row template is built from the columns' dtypes; the bytes must be those of the cell-by-cell formatting
    floats = np.array([0.1, -0.0, 1e-300, 2.5e300, 1 / 3, 12345678901234567.0, -7.0])
    halves = np.linspace(-1, 1, 7, dtype=np.float32)
    names = [f"{m}/8" for m in range(7)]
    names[3] = "100%"  # a value is never read as a format
    columns = [np.arange(1, 8), floats, names, [""] * 7, list(floats), halves, range(7), tuple(floats)]
    header = ["a%s", "b", "c", "d", "e", "f", "g", "h"]  # nor is the header
    _write_csv(tmp_path / "x.csv", header, columns)
    expected = [",".join(header)] + [",".join(_cell(v) for v in row) for row in zip(*columns)]
    text = (tmp_path / "x.csv").read_text(encoding="utf-8")
    assert text == "\n".join(expected) + "\n"
    assert text.splitlines()[1] == "1,0.10000000000000001,0/8,,0.10000000000000001,-1,0,0.10000000000000001"


PUBLIC_API = [
    "AnalysisError", "Boundary", "LatticeParams", "PacketPairSpec", "PacketSpec", "Trajectory",
    "analytic_dispersion", "analytic_eigenstate", "apply_antilinear", "build_hamiltonian", "build_initial_state",
    "build_pair_state", "classify_growth", "coalescing_state", "dilog", "dirac_norm_closed_form",
    "direct_coalescing_overlap", "esm_spacing", "evolve", "evolved_state_closed_form", "expm", "full_spectrum",
    "fwhm_interval", "interference_report", "lerch_phi", "measure", "overlap_formula", "packet_coefficients",
    "reflection_symmetry", "revival_period", "shape_distance", "symmetry_residuals", "translation_window",
    "verify_equal_spacing",
]


def test_public_api_is_pinned():
    # what the experiments, the tests and the benchmark call by the package name; report types and
    # helpers stay importable from their modules
    assert sorted(nhssh.__all__) == PUBLIC_API
    assert all(hasattr(nhssh, name) for name in PUBLIC_API)


def test_benchmark_traced_names_exist(tmp_path, monkeypatch):
    # the benchmark traces nhssh functions by name: each must still be a public function of its module
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import gates  # noqa: F401  (the accuracy gates import the package's public names)
    import tracing
    import worker

    tracer = tracing.Tracer()
    restore = tracing.install(tracer, worker.SAMPLERS)
    try:
        argv = ["fig3", "--cells", "10", "--samples", "20", "--out", str(tmp_path / "fig3")]
        assert nhssh.cli.main(argv) == EXIT_OK  # the traced main
    finally:
        restore()
    assert set(worker.SPAN_SELF_S + worker.SPAN_CALLS) <= set(tracer.stats)
    assert tracer.stats["cli.main"].calls == 1
    assert nhssh.cli.main is main  # restored
