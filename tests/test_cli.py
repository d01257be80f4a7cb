import contextlib
import dataclasses
import functools
import io
import json
import math
import os
import re
import struct
from collections import Counter
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nhssh
from nhssh import Trajectory, analysis, build_hamiltonian, build_initial_state, build_pair_state, evolve, revival_period
from nhssh.cli import (
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXPERIMENTS,
    _GROWTH_WINDOW_OVER_TAU,
    ConfigError,
    ExperimentConfig,
    build_config,
    main,
    _parse,
    _write_csv,
    parse_config,
    run_experiment,
)
from nhssh.csvtext import _E, _POW10
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
    assert parse_config("delta=9/10\n")["delta"] == 0.9  # every float key takes a/b


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


RUN = ["--cells", "40", "--samples", "160"]
SMALL = [*RUN, "--tmax-over-tau", "0.3"]


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
    result = subprocess.run([sys.executable, "-W", "error", str(script)], capture_output=True, text=True, cwd=cwd,
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


OPEN_ONLY = ("fig2", "fig3", "fig4", "fig7", "oracle-compare")
HUGE = str(10**17)

# The exit contract, one row per input: argv, exit code, and a pattern that the run's one stderr line must hold.
# An argument that holds a newline is the text of a config file, passed as its path. No row's run creates --out,
# and an --out that exists keeps every byte it held.
EXIT_CONTRACT = {
    # the open chain's packets and oracles fail their own checks on the ring
    **{f"{e}-ring": ([e, "--boundary", "periodic", "--check"], EXIT_CONFIG, "boundary=open only") for e in OPEN_ONLY},
    **{f"{e}-ring-file": (["--config", f"experiment={e}\nboundary=periodic\n"], EXIT_CONFIG, "boundary=open only")
       for e in OPEN_ONLY},
    "delta-file": (["fig3", "--config", "delta=1.2\n"], EXIT_CONFIG, r"line 1: delta='1\.2': delta must lie in"),
    "delta-negative": (["fig3", "--delta", "-3"], EXIT_CONFIG, "delta='-3': delta must lie in"),
    # the closed forms take 1/(4*delta), which overflows below about 1.4e-309: a NaN profile and a numpy warning
    "delta-subnormal": (["oracle-compare", "--cells", "11", "--samples", "695", "--delta", "6.539197086e-315",
                         "--check"], EXIT_CONFIG, r"delta='6\.539197086e-315': .* and be a normal double"),
    **{f"{key}-{text}": (["fig3", f"--{key.replace('_', '-')}={text}"], EXIT_CONFIG, f"{key}='{text}': {key} must be")
       for key in ("gamma", "q", "tmax_over_tau") for text in ("nan", "inf", "-inf")},
    "q-nan-file": (["fig3", "--config", "q=nan\n"], EXIT_CONFIG, "line 1: q='nan': q must be finite"),
    "missing-file": (["--config", "missing.cfg"], EXIT_CONFIG, "No such file"),
    "odd-ring": (["spectrum", "--cells", "11", "--boundary", "periodic"], EXIT_CONFIG,
                 "periodic boundary requires an even number of cells"),
    # a span that ends before the packet reaches a wall leaves fig6 no inter-reflection window
    "fig6-short": (["fig6", "--cells", "60", "--samples", "80", "--tmax-over-tau", "0.02"], EXIT_NUMERICAL,
                   r"\[AnalysisError\]: inter-reflection window too short"),
    # samples about 1e170 apart: the center-velocity fit's sums of t^2 overflow
    "fig6-fit-overflow": (["fig6", "--cells", "17", "--samples", "163", "--q", "0", "--tmax-over-tau", "7.48e171"],
                          EXIT_NUMERICAL, r"\[FloatingPointError\]: overflow encountered in multiply$"),
    # fig4 matches its norm against itself at lags tau/4 to 3 tau/4, each over at least tau/4: 0.3 tau is too short
    "fig4-one-peak": (["fig4", *SMALL], EXIT_CONFIG, r"needs tmax_over_tau >= 1, got 0\.3$"),
    "fig7-one-position": (["fig7", "--kappa02-over-pi", "1/6"], EXIT_CONFIG, "kappa01 and kappa02 must differ"),
    # fig5's lowest gain, 2*delta - 0.1, is 0 or negative; its growth window [0.05, 0.2] tau holds too few samples
    **{f"fig5-delta-{d}": (["fig5", "--cells", "60", "--samples", "500", "--delta", d], EXIT_CONFIG, r"delta > 0\.05")
       for d in ("0.05", "0.04")},
    "fig5-window": (["fig5", "--cells", "20", "--samples", "60"], EXIT_CONFIG, "holds 36 samples; need >= 50"),
    # above threshold the norm leaves float range about 6 periods in, and the first non-finite sample is named
    "fig5-overflow": (["fig5", "--cells", "20", "--samples", "4000", "--tmax-over-tau", "8"], EXIT_NUMERICAL,
                      r"\[OverflowError\]: .* at t = 59\d\.\d"),
    # oracle-compare grades only its three samples: far above threshold the tau/8 sample leaves float range
    "oracle-compare-overflow": (["oracle-compare", "--cells", "20", "--samples", "400", "--gamma", "50"],
                                EXIT_NUMERICAL, r"\[OverflowError\]: state left float range at t = 12\.3558$"),
    # a span so long that a mode's k*t leaves float range, in the cosines as in the growth
    "fig4-kt-overflow": (["fig4", "--cells", "40", "--samples", "144", "--delta", "1.68e-54", "--q", "0",
                          "--tmax-over-tau", "2.88e279", "--check"], EXIT_NUMERICAL,
                         r"\[OverflowError\]: .* at t = 1\.15322e\+308"),
    "fig7-kt-overflow": (["fig7", "--cells", "9", "--samples", "241", "--tmax-over-tau", "4.029e264",
                          "--gamma", "4.346e122"], EXIT_NUMERICAL, r"\[OverflowError\]: .* at t = 7\.9137e\+263"),
    # sinh(k*t) is finite but sinh(k*t)/k is not: the whole construction runs under one guard, so no numpy warning
    "fig5-cs-overflow": (["fig5", "--cells", "60", "--samples", "1869", "--tmax-over-tau", "5.391126825267719",
                          "--q", "0.00043104501836205733"], EXIT_NUMERICAL, r"\[OverflowError\]: .* at t = 590\.06$"),
    "fig7-cs-overflow": (["fig7", "--cells", "51", "--samples", "1359", "--tmax-over-tau", "19.362418922909097",
                          "--delta", "0.02439464074510145", "--gamma", "1.4903182120940368", "--q", "0",
                          "--kappa02-over-pi", "0.3977836652744285"], EXIT_NUMERICAL,
                         r"\[OverflowError\]: .* at t = 244\.679$"),
    # an array over N = 1e17 modes asks numpy for 711 PiB, which it refuses without allocating
    **{f"{e}-huge-cells": ([e, "--cells", HUGE], EXIT_CONFIG, f"^config error: cells='{HUGE}': Unable to allocate")
       for e in EXPERIMENTS},
    **{f"{e}-huge-cells-file": (["--config", f"experiment={e}\ncells={HUGE}\n"], EXIT_CONFIG,
                                f"^config error: line 2: cells='{HUGE}': Unable to allocate") for e in EXPERIMENTS},
    # fig5's growth window is counted with no table of the samples, so both resolve and the run meets the limit
    **{f"{e}-huge-samples": ([e, "--cells", "40", "--samples", str(10**15)], EXIT_NUMERICAL,
                             f"no memory for 2N = 80 and {10**15} samples; lower --cells or --samples")
       for e in ("fig5", "fig3")},
    # past 2^53 a float no longer holds every sample index n of t = n*dt
    **{f"{e}-samples-{label}": ([e, "--cells", "40", "--samples", str(n)], EXIT_CONFIG,
                                f"^config error: samples='{n}': samples must lie in \\[2, 2\\^53\\]$")
       for e in ("fig2", "fig3", "fig5", "fig6")
       for label, n in (("10^17", 10**17), ("2^60", 2**60), ("10^300", 10**300))},
    # the time step overflows, underflows to 0, or divides by a sample count beyond float range
    "samples-beyond-float": (["fig3", "--samples", str(10**400)], EXIT_CONFIG,
                             f"samples='{10**400}': samples must lie in"),
    "fig3-dt-inf": (["fig3", "--cells", "23", "--samples", "6", "--delta", "9.4e-48", "--gamma", "0", "--q", "0",
                     "--tmax-over-tau", "1.531e294"], EXIT_CONFIG, r"time step .* must be finite and > 0, got dt=inf"),
    "fig6-dt-zero": (["fig6", "--cells", "4", "--samples", "1000001", "--tmax-over-tau", "5e-324"], EXIT_CONFIG,
                     r"time step .* must be finite and > 0, got dt=0\.0"),
    "gamma-square-inf": (["spectrum", "--cells", "23", "--gamma", "1.102e247"], EXIT_CONFIG,
                         r"gamma='1\.102e247': gamma\^2 must be finite"),
    "fig7-two-samples": (["fig7", "--samples", "2"], EXIT_NUMERICAL, "packets never meet inside the trajectory span"),
    # the ring's gap 2*delta is below the modes' rounding: build_config refuses it as it decomposes the chain
    "fig6-singular-ring": (["fig6", "--delta", "1e-9", "--boundary", "periodic", "--cells", "4"], EXIT_CONFIG,
                           "T is singular"),
    # past q = 40 no coefficient survives the e^-40 cutoff, every squared term underflows at kappa0 = 1e-300 pi
    # and sums to a subnormal at 1e-160 pi, and at q = 30 fig7's minus pair keeps only n = 1, where it cancels
    **{f"{e}-q100": ([e, "--q", "100", "--check"], EXIT_CONFIG, "packet has no weight")
       for e in ("fig2", "fig3", "fig7", "oracle-compare")},
    "fig3-kappa0-1e-300": (["fig3", "--kappa0-over-pi", "1e-300", "--check"], EXIT_CONFIG, "packet has no weight"),
    "fig3-kappa0-1e-160": (["fig3", "--kappa0-over-pi", "1e-160", *SMALL, "--check"], EXIT_CONFIG,
                           "packet has no weight"),
    "fig7-q30": (["fig7", "--q", "30", "--check"], EXIT_CONFIG, "packet has no weight"),
    # fig7 reads kappa02's packet, alone and in its pairs; fig6 does not (an OUTPUT_CONTRACT row)
    "fig7-kappa02-1e-300": (["fig7", "--kappa02-over-pi", "1e-300", *RUN], EXIT_CONFIG, "packet has no weight"),
    # the weight is the run's own, at q = 0 and 2N = 80, and a clash of values names no key
    "fig3-kappa0-4e-156-q0": (["fig3", "--q", "0", "--kappa0-over-pi", "4e-156", *RUN], EXIT_CONFIG,
                              r"^config error: packet has no weight: its squared terms sum to 1\.26e-308,"),
    # both grade profiles at t = 0, tau/8 and tau/4
    **{f"{e}-span-{span}": ([e, *SMALL, "--tmax-over-tau", span], EXIT_CONFIG, "tmax_over_tau >= 1/4")
       for e in ("fig3", "oracle-compare") for span in ("0.2", "0.2499")},
    # where two refusals apply, the property named first in the run's EXPERIMENTS row refuses
    "fig3-ring-q100": (["fig3", "--boundary", "periodic", "--q", "100"], EXIT_CONFIG, "boundary=open only"),
    "fig7-ring-one-position": (["fig7", "--boundary", "periodic", "--kappa02-over-pi", "1/6"], EXIT_CONFIG,
                               "boundary=open only"),
    "fig3-q100-span": (["fig3", "--q", "100", "--tmax-over-tau", "0.2"], EXIT_CONFIG, "packet has no weight"),
    "fig4-off-center-q100": (["fig4", "--kappa0-over-pi", "1/3", "--q", "100"], EXIT_CONFIG, "packet has no weight"),
    "fig4-off-center-dt-inf": (["fig4", "--kappa0-over-pi", "1/3", "--cells", "23", "--samples", "6", "--delta",
                                "9.4e-48", "--gamma", "0", "--q", "0", "--tmax-over-tau", "1.531e294"], EXIT_CONFIG,
                               "got dt=inf"),
    "fig5-delta-window": (["fig5", "--delta", "0.04", "--cells", "20", "--samples", "60"], EXIT_CONFIG,
                          r"delta > 0\.05"),
    "fig7-q100-one-position": (["fig7", "--q", "100", "--kappa02-over-pi", "1/6"], EXIT_CONFIG,
                               "packet has no weight"),
}


def _with_config_file(argv: list[str]) -> list[str]:
    """argv with its newline-holding argument, a config file's text, written to run.cfg and passed as that path."""
    Path("run.cfg").write_text("".join(arg for arg in argv if "\n" in arg))
    return ["run.cfg" if "\n" in arg else arg for arg in argv]


@pytest.mark.parametrize("argv, code, reason", EXIT_CONTRACT.values(), ids=EXIT_CONTRACT)
def test_exit_contract(tmp_path, capsys, monkeypatch, argv, code, reason):
    monkeypatch.chdir(tmp_path)
    argv = _with_config_file(argv)
    Path("kept").mkdir()
    Path("kept", "norms.csv").write_bytes(b"t\n0\n")
    for out in ("fresh", "kept"):
        assert main([*argv, "--out", out]) == code
        err = capsys.readouterr().err
        assert err.endswith("\n") and err.count("\n") == 1 and re.search(reason, err), err
    assert not Path("fresh").exists()
    assert [(path.name, path.read_bytes()) for path in Path("kept").iterdir()] == [("norms.csv", b"t\n0\n")]


NORMS = ("t,P_numeric,P_closed_form", 160)
GRADED = {**{f"profile_t{i}.csv": ("site,probability,probability_closed_form", 80) for i in range(3)},
          "compare.csv": ("t,l1_over_norm", 3)}  # fig3's and oracle-compare's profile oracle at t = 0, tau/8, tau/4
SPECTRUM = {"eigenvalues.csv": ("re,im", 80), "spacings.csv": ("n,level,deviation", 5)}
FIG5 = {"classification.csv": ("gamma,label,r_squared,slope", 3), **{f"norms_gamma{i}.csv": NORMS for i in (1, 2, 3)}}
# The files each experiment writes, file -> (header, data rows), at 2N = 80 and 160 samples
FILES = {
    "fig2": {"centers.csv": ("kappa0_over_pi,center,width,expected_center", 7),
             **{f"profile_t{m}.csv": ("site,probability", 80) for m in range(1, 8)}},
    "fig3": {"norms.csv": NORMS, **GRADED},
    "fig4": {"norms.csv": NORMS, "period_report.csv": ("formula_period,measured_period,revival_period", 1)},
    "fig5": FIG5,
    "fig6": {"norms.csv": NORMS, "translation.csv": (
        "window_start,window_end,norm_drift,center_velocity,first_reflection,second_reflection", 1)},
    "fig7": {**{f"norms_{name}.csv": ("t,P_pair,P_sum_singles", 160) for name in ("plus", "minus")},
             **{f"interference_{name}.csv": ("window_start,window_end,ratio_max,ratio_min,p_before", 1)
                for name in ("plus", "minus")}},
    "spectrum": SPECTRUM,
    "oracle-compare": GRADED,
}

# The CSV contract, one row per run: argv, exit code under --check, and the files it writes. A plain run exits 0
# silently; a --check run writes the same bytes and prints one CHECK_LINE per check.
OUTPUT_CONTRACT = {
    # at 2N = 80 fig2's translations and the profile oracle miss bounds that are set for 2N >= 500
    **{e: ([e, *RUN], EXIT_CHECK if e in ("fig2", "fig3", "oracle-compare") else EXIT_OK, FILES[e])
       for e in EXPERIMENTS},
    "spectrum-ring": (["spectrum", *RUN, "--boundary", "periodic"], EXIT_OK, {"eigenvalues.csv": ("re,im", 80)}),
    # far from the EP the near-zero levels do not pair: spacings.csv is written all the same, a header alone
    "spectrum-unpaired": (["spectrum", *RUN, "--gamma", "2.6"], EXIT_CHECK,
                          {**SPECTRUM, "spacings.csv": (SPECTRUM["spacings.csv"][0], 0)}),
    # next to a refusal: a span of exactly tau/4, and 54 samples in fig5's growth window
    **{f"{e}-quarter": ([e, *SMALL, "--tmax-over-tau", "0.25"], EXIT_CHECK, FILES[e])
       for e in ("fig3", "oracle-compare")},
    "fig5-90-samples": (["fig5", "--cells", "20", "--samples", "90"], EXIT_OK,
                        {**FIG5, **{f"norms_gamma{i}.csv": (NORMS[0], 90) for i in (1, 2, 3)}}),
    "fig3-off-center": (["fig3", "--kappa0-over-pi", "1/3", *SMALL], EXIT_CHECK, FILES["fig3"]),
    "fig4-off-center": (["fig4", "--kappa0-over-pi", "1/3", *RUN], EXIT_OK, FILES["fig4"]),
    "fig3-kappa0-1e-150": (["fig3", "--kappa0-over-pi", "1e-150", *RUN], EXIT_CHECK, FILES["fig3"]),
    # at q = 0 and 2N = 80 this packet has a normal weight, though at the global defaults it would have none
    "fig3-kappa0-6e-156-q0": (["fig3", "--q", "0", "--kappa0-over-pi", "6e-156", *RUN], EXIT_CHECK, FILES["fig3"]),
    # a packet the run never builds is not refused, however little weight it would have
    "fig2-kappa0-1e-300": (["fig2", *RUN, "--kappa0-over-pi", "1e-300"], EXIT_CHECK, FILES["fig2"]),
    "spectrum-kappa0-1e-300": (["spectrum", *RUN, "--kappa0-over-pi", "1e-300"], EXIT_OK, SPECTRUM),
    "fig6-kappa02-1e-300": (["fig6", *RUN, "--kappa02-over-pi", "1e-300"], EXIT_OK, FILES["fig6"]),
    # a span of about 1e154: each check names its time in at most 4 digits
    "oracle-compare-delta-tiny": (["oracle-compare", "--cells", "11", "--samples", "695", "--delta",
                                   "2.2250738585072014e-308"], EXIT_CHECK,
                                  {**{f"profile_t{i}.csv": (GRADED["profile_t0.csv"][0], 22) for i in range(3)},
                                   "compare.csv": GRADED["compare.csv"]}),
    # oracle-compare holds nothing per sample, so a sample count that fig3 has no memory for runs (fig3-huge-samples)
    "oracle-compare-huge-samples": (["oracle-compare", "--cells", "40", "--samples", str(10**15)], EXIT_CHECK,
                                    FILES["oracle-compare"]),
    # above threshold the norm passes 1e154, where its squares would overflow: R^2 is formed in the window's units
    "fig5-delta-0.999": (["fig5", "--cells", "40", "--samples", "300", "--delta", "0.999"], EXIT_OK,
                         {**FIG5, **{f"norms_gamma{i}.csv": (NORMS[0], 300) for i in (1, 2, 3)}}),
    "file-and-flag": (["--config", "experiment=spectrum\ncells=30\nboundary=open\n", "--cells", "36"], EXIT_OK,
                      {**SPECTRUM, "eigenvalues.csv": ("re,im", 72)}),  # the flag overrides the file's cells
}
CHECK_LINE = re.compile(r"^\[(PASS|FAIL)\] .+ = \S+ \(bound \S+\)$")


def _written(argv: list[str], out: str, code: int = EXIT_OK) -> dict[str, bytes]:
    """The files a run of argv writes to --out, name -> bytes, once the run has exited with code."""
    assert main([*_with_config_file(argv), "--out", out]) == code
    return {path.name: path.read_bytes() for path in Path(out).iterdir()}


@pytest.mark.parametrize("argv, code, files", OUTPUT_CONTRACT.values(), ids=OUTPUT_CONTRACT)
def test_every_experiment_runs_silently(tmp_path, capsys, monkeypatch, argv, code, files):
    monkeypatch.chdir(tmp_path)
    plain = _written(argv, "plain")
    assert capsys.readouterr().out == ""
    assert {name: (data.split(b"\n", 1)[0].decode(), data.count(b"\n") - 1) for name, data in plain.items()} == files
    assert not {cell for data in plain.values() for cell in re.split(rb"[,\n]", data)} & {b"nan", b"inf", b"-inf"}


@pytest.mark.parametrize("argv, code, files", OUTPUT_CONTRACT.values(), ids=OUTPUT_CONTRACT)
def test_every_check_line_names_its_value_and_bound(tmp_path, capsys, monkeypatch, argv, code, files):
    monkeypatch.chdir(tmp_path)
    plain = _written(argv, "plain")
    capsys.readouterr()
    assert _written([*argv, "--check"], "checked", code) == plain
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(CHECK_LINE.match(line) and len(line) < 80 for line in lines), lines
    assert any(line.startswith("[FAIL]") for line in lines) == (code == EXIT_CHECK)


def _exponent(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@settings(max_examples=200, deadline=None)
@given(
    experiment=st.sampled_from(list(EXPERIMENTS)),
    cells=st.integers(2, 12),
    samples=st.integers(2, 400),
    flags=st.fixed_dictionaries({}, optional={
        "tmax-over-tau": _exponent(-6.0, 6.0),
        "delta": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        "gamma": _exponent(-6.0, 4.0),
        "q": st.just(0.0) | _exponent(-8.0, math.log10(300.0)),
        "kappa0-over-pi": st.floats(0.0, 2.0),
        "kappa02-over-pi": st.floats(0.0, 2.0),
        "boundary": st.sampled_from(["open", "periodic"]),
    }),
    check=st.booleans(),
)
def test_cli_fuzz_keeps_the_contracts(experiment, cells, samples, flags, check):
    # any input in a small domain exits 0, 2, 3 or 4; a refusal prints one stderr line and writes nothing, a run
    # prints nothing but its check lines and writes no non-finite cell; a numpy warning is an error here too
    argv = [experiment, "--cells", str(cells), "--samples", str(samples), *(["--check"] if check else [])]
    argv += [text for key, value in flags.items() for text in (f"--{key}", str(value))]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main([*argv, "--out", str(Path(tmp, "out"))])
        written = [path.read_bytes() for path in Path(tmp).glob("out/*")]
    lines, err = out.getvalue().splitlines(), err.getvalue()
    assert code in ((EXIT_OK, EXIT_CHECK) if check else (EXIT_OK,)) + (EXIT_CONFIG, EXIT_NUMERICAL), argv
    if code in (EXIT_CONFIG, EXIT_NUMERICAL):
        assert err.endswith("\n") and err.count("\n") == 1 and not lines and not written, (argv, err)
        return
    assert not err and all(CHECK_LINE.match(line) for line in lines) and bool(lines) == check, (argv, err, lines)
    assert any(line.startswith("[FAIL]") for line in lines) == (code == EXIT_CHECK)
    assert not {cell for data in written for cell in re.split(rb"[,\n]", data)} & {b"nan", b"inf", b"-inf"}, argv


def test_main_fig3_outputs(tmp_path):
    out = tmp_path / "fig3"
    assert main(["fig3", *SMALL, "--out", str(out)]) == EXIT_OK
    norms = (out / "norms.csv").read_text().splitlines()
    assert norms[0] == "t,P_numeric,P_closed_form"
    assert len(norms) == 1 + 160  # header + one row per sample
    for idx in range(3):
        prof = (out / f"profile_t{idx}.csv").read_text().splitlines()
        assert len(prof) == 1 + 80  # 2N rows


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


def test_main_fig2_small(tmp_path):
    out = tmp_path / "fig2"
    assert main(["fig2", "--cells", "100", "--out", str(out)]) == EXIT_OK
    centers = (out / "centers.csv").read_text().splitlines()
    assert len(centers) == 1 + 7
    for m in range(1, 8):
        assert (out / f"profile_t{m}.csv").exists()


def test_fig3_runs_off_center(tmp_path):
    # the norm formula holds for every kappa0: off pi/2 fig3 fills the closed-form norm column, from P(0) = 0
    assert main(["fig3", "--kappa0-over-pi", "1/3", *SMALL, "--out", str(tmp_path)]) == EXIT_OK
    rows = [row.split(",") for row in (tmp_path / "norms.csv").read_text().splitlines()[1:]]
    assert rows[0][2] == "0" and all(row[2] for row in rows)


def test_main_unwritable_outdir_exit_code(tmp_path):
    blocker = tmp_path / "occupied"
    blocker.write_text("not a directory")
    assert main(["spectrum", "--cells", "10", "--out", str(blocker)]) == EXIT_CONFIG


def test_main_memory_error_exit_code(tmp_path, capsys, monkeypatch):
    def out_of_memory(params):
        raise MemoryError

    monkeypatch.setattr("nhssh.spectra.full_spectrum", out_of_memory)
    out = tmp_path / "oom"
    code = main(["spectrum", "--cells", "40", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "MemoryError" in err and "--cells" in err
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["fig5", "fig6", "spectrum"])
def test_other_experiments_accept_the_ring(experiment):
    config = build_config({"experiment": experiment, "boundary": Boundary.PERIODIC})
    assert config.params.boundary is Boundary.PERIODIC and config.chain.ring


def test_check_failure_exit_code(tmp_path, capsys):
    # at a tiny scale with a far-off-tuned gamma the spectrum check fails
    out = tmp_path / "bad"
    code = main(["spectrum", "--cells", "40", "--gamma", "2.6", "--out", str(out), "--check"])
    assert code == EXIT_CHECK
    assert "[FAIL]" in capsys.readouterr().out
    # without --check the same run is not graded
    assert main(["spectrum", "--cells", "40", "--gamma", "2.6", "--out", str(out)]) == EXIT_OK
    assert "[FAIL]" not in capsys.readouterr().out


def test_checks_are_graded_value_at_most_bound(tmp_path, capsys, monkeypatch):
    # run_experiment grades every runner's (name, value, bound): a value at its bound passes, a NaN fails
    checks = [("at the bound", 0.25, 0.25), ("no value", math.nan, 1.0)]
    monkeypatch.setitem(EXPERIMENTS, "spectrum", (lambda config, files: checks, {}, ()))
    assert main(["spectrum", "--out", str(tmp_path / "spectrum"), "--check"]) == EXIT_CHECK
    assert capsys.readouterr().out.splitlines() == [
        "[PASS] at the bound = 0.25 (bound 0.25)",
        "[FAIL] no value = nan (bound 1)",
    ]


def test_small_kappa0_with_a_normal_weight_runs(tmp_path):
    # at kappa0 = 1e-150 pi the squared terms sum to 3.9e-298, a normal double: the packet keeps its scale
    assert main(["fig3", "--kappa0-over-pi", "1e-150", *RUN, "--out", str(tmp_path)]) == EXIT_OK
    assert np.loadtxt(tmp_path / "norms.csv", delimiter=",", skiprows=1, usecols=1).min() > 0.0


def test_config_resolves_its_derived_fields():
    config = ExperimentConfig(experiment="fig3", cells=30, delta=0.8, gamma=1.6, tmax_over_tau=0.3, samples=101)
    assert config.params.gamma == 1.6 and config.chain.gamma == 1.6
    omega = np.sqrt(2.0 * 0.8 * (1.0 - 0.8)) * np.pi / 31
    assert config.tau == 2.0 * np.pi / omega
    assert config.dt * 100 == pytest.approx(0.3 * config.tau, rel=1e-15)
    assert config.packet.kappa0 == 0.5 * np.pi
    assert config.packet.lam == nhssh.oracle.coefficient_lambda(0.5 * np.pi, 0.02, 30)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.cells = 40

    fig7 = build_config({"experiment": "fig7", "cells": 60})
    n = np.arange(1, 61)
    c1, c2 = (np.sin(n * k) * np.exp(-0.05 * n) / n for k in (np.pi / 6, 5 * np.pi / 6))
    for pair, sign in zip(fig7.pairs, (+1, -1)):
        assert pair.relative_sign == sign
        assert pair.lam == pytest.approx(1.0 / np.sqrt(np.sum((c1 + sign * c2) ** 2)), rel=1e-13)

    fig5 = build_config({"experiment": "fig5", "delta": 0.8})
    assert fig5.gains == pytest.approx((1.5, 1.6, 1.7), rel=1e-15)
    assert fig5.window == (0.05 * fig5.tau, 0.2 * fig5.tau)


def _counting(calls: Counter, name: str, func):
    def counted(*args, **kwargs):
        calls[name] += 1
        return func(*args, **kwargs)

    return counted


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_runners_read_the_resolved_config(tmp_path, monkeypatch, experiment):
    # build_config resolves tau, dt and every packet and pair a run reads, so its runner derives none of them
    # again; fig2 alone builds packets of its own, at m pi/8 for m = 1..7. Nor does a runner resolve any property
    # beyond the chain, which refuses nothing: so every property it reads that can refuse is named in its row
    config = build_config({"experiment": experiment, "cells": 40, "samples": 160, "out": str(tmp_path / "out")})
    resolved = set(vars(config))
    calls = Counter()
    for module, name in (
        (nhssh.spectra, "revival_period"),
        (nhssh.oracle, "coefficient_lambda"),
        (nhssh.states, "normalizing_scale"),  # a pair's scale
    ):
        monkeypatch.setattr(module, name, _counting(calls, name, getattr(module, name)))
    assert run_experiment(config) == EXIT_OK
    assert calls == ({"coefficient_lambda": 7} if experiment == "fig2" else {})
    assert set(vars(config)) - resolved <= {"chain"}


def test_fig5_resolves_its_growth_window_once(tmp_path, monkeypatch):
    # one main parses each flag alone and builds one fig5 config: tau and the window are each worked out once
    calls = Counter()
    window = ExperimentConfig.window
    counted = functools.cached_property(_counting(calls, "window", window.func))
    counted.__set_name__(ExperimentConfig, "window")
    monkeypatch.setattr(ExperimentConfig, "window", counted)
    monkeypatch.setattr(nhssh.spectra, "revival_period", _counting(calls, "tau", nhssh.spectra.revival_period))
    assert main(["fig5", "--cells", "40", "--samples", "400", "--out", str(tmp_path / "fig5")]) == EXIT_OK
    assert calls == {"window": 1, "tau": 1}


@settings(max_examples=80, deadline=None)
@given(
    cells=st.integers(2, 60),
    samples=st.integers(2, 10**4),
    tmax_over_tau=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
)
@example(cells=3, samples=31, tmax_over_tau=1.0)  # sample 6, t = 6*dt, lands on the window's end 0.2*tau
def test_fig5_window_agrees_with_a_brute_count(cells, samples, tmax_over_tau):
    # fig5 counts its growth window's samples n*dt from the window's two edges, with no table of the samples;
    # it must refuse exactly where a count over every sample holds too few, and name that count
    explicit = {"experiment": "fig5", "cells": cells, "samples": samples, "tmax_over_tau": tmax_over_tau}
    config = build_config({**explicit, "experiment": "spectrum"})  # resolves no window
    lo, hi = (f * config.tau for f in _GROWTH_WINDOW_OVER_TAU)
    t = np.arange(samples) * config.dt
    held = np.count_nonzero((t >= lo) & (t <= hi))
    if held < analysis.MIN_WINDOW_SAMPLES:
        with pytest.raises(ValueError, match=f"holds {held} samples; need >= {analysis.MIN_WINDOW_SAMPLES}$"):
            build_config(explicit)
    else:
        assert build_config(explicit).window == (lo, hi)


def _read_columns(path):
    header, *rows = path.read_text().splitlines()
    return dict(zip(header.split(","), np.array([row.split(",") for row in rows], dtype=float).T))


def test_fig7_pairs_from_singles_match_pair_evolution(tmp_path):
    # fig7 forms each pair from its two singles on one decomposition; evolving the pair state
    # itself, and each single at the pair's own scale, must give the same norm curves
    out = tmp_path / "fig7"
    assert main(["fig7", "--cells", "60", "--samples", "600", "--out", str(out)]) == EXIT_OK
    config = build_config({"experiment": "fig7", "cells": 60, "samples": 600})
    params = config.params
    H = build_hamiltonian(params)
    dt = config.tmax_over_tau * revival_period(params) / (config.samples - 1)
    for pair, name in zip(config.pairs, ("plus", "minus")):
        written = _read_columns(out / f"norms_{name}.csv")
        reference = evolve(build_pair_state(pair, params), H, dt, config.samples - 1).norms
        assert np.abs(written["P_pair"] - reference).max() <= 1e-12 * reference.max()
        singles = sum(
            evolve(build_initial_state(spec, params), H, dt, config.samples - 1).norms
            for spec in pair.single_specs(params.cells)
        )
        assert np.abs(written["P_sum_singles"] - singles).max() <= 1e-12 * singles.max()


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_one_eigensolve_per_experiment(tmp_path, monkeypatch, experiment):
    # every packet, pair and gain of a run (fig5's three gains, fig7's four runs) shares one closed-form solve of
    # the chain's modes, which build_config makes, so the runner makes none; the spectrum reads the weights alone
    # and fig2's packets need no modes. Each call records whether it formed the vectors' tables
    calls = []
    solve = Chain.mode_tables
    monkeypatch.setattr(Chain, "mode_tables", lambda self, vectors=True: calls.append(vectors) or solve(self, vectors))
    config = build_config({"experiment": experiment, "cells": 40, "samples": 400, "out": str(tmp_path / "out")})
    resolved = calls.copy()
    assert run_experiment(config) == EXIT_OK
    expected = {"fig2": ([], []), "spectrum": ([], [False])}.get(experiment, ([True], []))
    assert (resolved, calls[len(resolved):]) == expected


def test_a_singular_chain_is_refused_with_its_config():
    # the fig6-singular-ring row's argv: build_config, not the run, refuses it
    experiment, *flags = EXIT_CONTRACT["fig6-singular-ring"][0]
    explicit = {flag[2:]: _parse(flag[2:], text) for flag, text in zip(flags[::2], flags[1::2])}
    with pytest.raises(ValueError, match="^T is singular"):
        build_config({"experiment": experiment, **explicit})


@pytest.mark.parametrize("cells, samples", [(40, 160), (250, 2000)])
def test_fig4_reads_one_period_at_every_position(tmp_path, cells, samples):
    # off kappa0 = pi/2 the norm has a flat top with sample-level ripples, which local maxima took for the period
    # (2.43-4.86 against tau/2 = 96.6 at 2N = 80); matched against itself over the whole curve, the norm reads the
    # same period at every position, within 3% of tau/2: the chain's dispersion puts it 1.9% short at 2N = 80 and
    # 2.7% short at 2N = 500, as it does the slope of the lasing norm
    periods = set()
    for kappa0_over_pi in ("1/2", "1/3", "1/6", "0.1", "0.9"):
        out = tmp_path / kappa0_over_pi.replace("/", "_")
        argv = ["fig4", "--cells", str(cells), "--samples", str(samples), "--kappa0-over-pi", kappa0_over_pi]
        assert main([*argv, "--out", str(out), "--check"]) == EXIT_OK
        report = _read_columns(out / "period_report.csv")
        assert abs(report["measured_period"][0] / report["formula_period"][0] - 1.0) < 0.03, kappa0_over_pi
        periods.add(float(report["measured_period"][0]))
    assert len(periods) == 1, periods


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
    # chi_1 alone (chi_2's largest share of a norm measured 9.6e-25, at 2N = 502), above threshold too.
    # oracle-compare reads its three profiles from the modes and builds no trajectory
    runs, built = [], Counter()
    init = Trajectory.__init__
    monkeypatch.setattr(Trajectory, "__init__", lambda self, *args: runs.append(self) or init(self, *args))
    for experiment in ("fig3", "fig4", "fig5", "fig6", "fig7", "oracle-compare"):
        before = len(runs)
        assert main([experiment, "--cells", str(cells), "--out", str(tmp_path / experiment)]) == EXIT_OK
        built[experiment] = len(runs) - before
    assert built == {"fig3": 1, "fig4": 1, "fig5": 3, "fig6": 1, "fig7": 4, "oracle-compare": 0}
    assert [traj.components for traj in runs] == [1] * 10  # fig5's three gains, fig7's two singles and two pairs


@pytest.mark.parametrize("experiment", ["fig3", "oracle-compare"])
def test_profile_oracle_reads_the_sample_a_trajectory_picks(tmp_path, experiment):
    # the profile oracle reads the sample nearest t = 0, tau/8 and tau/4 with no table of the samples; on the
    # canonical grid it must be the one Trajectory.index_at picks, the lower on a tie. fig3's tau/4 falls at
    # 999.5*dt, where the next sample's profile is 2.2e-2 of the peak away; each read profile stays within 1e-13
    # of its sample's row of the trajectory's profile blocks, as test_profiles_on_demand_agree bounds them
    out = tmp_path / experiment
    assert main([experiment, "--out", str(out)]) == EXIT_OK
    config = build_config({"experiment": experiment})
    psi0 = build_initial_state(config.packet, config.params)
    traj = evolve(psi0, config.open_chain, config.dt, config.samples - 1)
    profiles = np.concatenate([block.copy() for _, block in traj.profile_blocks()])
    times = _read_columns(out / "compare.csv")["t"]
    assert np.array_equal(times, config.profile_times)  # the closed form is graded at t itself
    for index, t in enumerate(times):
        k = int(np.argmin(np.abs(traj.times - t)))
        assert k == traj.index_at(t), t
        written = _read_columns(out / f"profile_t{index}.csv")["probability"]
        assert np.abs(written - profiles[k]).max() <= 1e-13 * profiles[k].max(), t
        if experiment == "fig3" and index == 2:
            assert traj.times[k + 1] - t == t - traj.times[k]  # a tie, taken low
            assert np.abs(profiles[k + 1] - profiles[k]).max() > 1e-2 * profiles[k].max()


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


def _double(bits: int) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


def _single(bits: int) -> np.float32:
    return np.float32(struct.unpack("<f", bits.to_bytes(4, "little"))[0])


@st.composite
def _ties(draw):
    # x = m / 2^j with m odd and m 5^j of 18 digits: x's 18 significant digits end in 5, so "%.17g" rounds it half
    # to even; and its neighbours a unit in the last place away
    j = draw(st.integers(2, 25))
    m = draw(st.integers(-(-10**17 // 5**j), min(2**53, 10**18 // 5**j) - 1).filter(lambda m: m % 2))
    x = float(Fraction(m, 2**j))
    assert Fraction(x) == Fraction(m, 2**j) and str(m * 5**j)[17:] == "5"
    return float(np.nextafter(x, draw(st.sampled_from([-math.inf, x, math.inf]))))


# doubles whose y = |x| 10^(16 - e) lies within 1/200 of a half integer, off it: in x87 long double, the first
# eight's y = x * 10^(16 - e) rounds to the far side of the half, which a tie band of 0 would take as certain, and
# the last four's to the half itself (rechecked below)
NEAR_TIES = [float.fromhex(h) for h in (
    "0x1.56e2bafa05b87p+159", "0x1.551cc41df6100p+933", "0x1.56b4d5fb75d54p-914", "0x1.4594b6a7f35acp+179",
    "0x1.497d598eb6256p-791", "0x1.48f54337ae050p-223", "0x1.5370214c5aba2p+840", "0x1.4737f573e6d07p-688",
    "0x1.5df1a961637f3p-996", "0x1.fe4c29476b208p-498", "0x1.71820fff1c738p+80", "0x1.af6021ef36306p+997",
)]
# either side of where %g switches notation (e = -5 | -4 and 16 | 17), at and away from a power of ten; no double
# below 10^17 reaches 1e+17 at 17 digits, but 1e98 lies below 10^98 and rounds up to 1e+98
LAYOUT_EDGES = [1e-4 * (1 - 2**-52), np.nextafter(1e-4, 0), 1e-4, 1.5e-4, 1.5e-5, 1e-5, np.nextafter(1e16, 0),
                1e16, 1.5e16, np.nextafter(1e17, 0), 1e17, 1.5e17, 1e98, 0.0, -0.0, math.inf, -math.inf, math.nan,
                5e-324, 1.7976931348623157e308]
FLOAT_CELLS = st.one_of(
    st.integers(0, 2**64 - 1).map(_double),  # subnormals, zeros, infinities and NaNs among them
    _ties(),
    st.sampled_from(NEAR_TIES),
    st.integers(-323, 308).flatmap(lambda k: st.sampled_from(
        [float(np.nextafter(float(Fraction(10)**k), to)) for to in (0.0, float(Fraction(10)**k), math.inf)])),
    st.sampled_from(LAYOUT_EDGES),
)


@st.composite
def _columns(draw):
    # a few cells of each column's kind, tiled to a length that may cross the writer's chunks of rows
    rows = draw(st.integers(0, 2100))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["float", "float32", "int", "range", "str"]), min_size=1, max_size=4)):
        length = rows + draw(st.integers(0, 2))  # the table is as long as its shortest column
        if kind == "range":
            start, step = draw(st.integers(-2**40, 2**40)), draw(st.integers(-2**20, 2**20).filter(bool))
            columns.append(range(start, start + step * length, step))
            continue
        cells = draw(st.lists({
            "float": FLOAT_CELLS,
            "float32": st.integers(0, 2**32 - 1).map(_single),
            "int": st.integers(-2**63, 2**63 - 1),
            # a str array drops trailing NULs, as the writer's np.asarray always has
            "str": st.text(st.characters(blacklist_categories=("Cs",)), max_size=12).map(lambda s: s.rstrip("\0")),
        }[kind], min_size=1, max_size=30))
        cells = [cells[i % len(cells)] for i in range(length)]
        if kind == "float32":
            columns.append(np.array(cells, np.float32))
        else:
            columns.append(draw(st.sampled_from([list, tuple]))(cells))
    return columns


@settings(max_examples=150, deadline=None)
@given(columns=_columns())
@example(columns=[NEAR_TIES, list(range(len(NEAR_TIES)))])
@example(columns=[LAYOUT_EDGES])
def test_csv_bytes_match_cell_by_cell_formatting(tmp_path_factory, columns):
    # every cell the writer formats a column at a time reads as _cell's "%.17g", "%d" or string, byte for byte
    path = tmp_path_factory.mktemp("csv") / "x.csv"
    header = [f"c{i}" for i in range(len(columns))]
    _write_csv(path, header, columns)
    expected = [",".join(header)] + [",".join(_cell(v) for v in row) for row in zip(*columns)]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")


def test_near_ties_and_powers_of_ten_are_what_the_writer_assumes():
    # each near tie's y lies within 1/200 of a half integer, off it; each long-double power of ten the writer
    # scales by lies within half a unit in the last place of 10^k
    for x in NEAR_TIES:
        e = math.floor(math.log10(x))
        y = Fraction(x) * Fraction(10) ** (16 - e)
        assert 10**16 <= y < 10**17 and 0 < abs(y - math.floor(y) - Fraction(1, 2)) < Fraction(1, 200)
    for e, power in zip(_E.tolist(), _POW10):
        error = Fraction(*power.as_integer_ratio()) - Fraction(10) ** (16 - e)
        assert abs(error) <= Fraction(*np.spacing(power).as_integer_ratio()) / 2, e


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


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_table(header: str) -> list[list[str]]:
    """The rows of README's table under the header line, each a list of its cells' text."""
    rows = README.read_text(encoding="utf-8").split(f"\n{header}\n", 1)[1].split("\n\n", 1)[0].splitlines()
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows[1:]]  # below the |---| line


def _ticked(cell: str) -> list[str]:
    return re.findall(r"`([^`]+)`", cell)


def _placeholder(name: str) -> str:
    """A file or check name with each number, and each <m> that README writes for one, read as one placeholder."""
    return re.sub(r"\d+(\.\d+)?", "#", re.sub(r"<\w+>", "0", name))


def test_readme_matches_the_experiments_table_and_tree():
    # README's canonical-parameters table and its defaults, read with the CLI's own parsers, hold EXPERIMENTS' and
    # ExperimentConfig's defaults; its line count of src/nhssh and its size of the public API are the tree's
    text = README.read_text(encoding="utf-8")
    canonical = {}
    for name, values in _readme_table("| Experiment | Canonical parameters |"):
        pairs = [] if values == "none" else [pair.split("=") for pair in values.strip("`").split(", ")]
        canonical[name.strip("`")] = {key: _parse(key, value) for key, value in pairs}
    assert canonical == {experiment: defaults for experiment, (_, defaults, _) in EXPERIMENTS.items()}
    stated = re.split(r",\s+", re.search(r"Defaults: `([^`]+)`", text)[1])
    defaults = {key: _parse(key, value) for key, value in (pair.split("=") for pair in stated)}
    assert defaults == {f.name: f.default for f in dataclasses.fields(ExperimentConfig) if f.name != "experiment"}
    lines = sum(path.read_bytes().count(b"\n") for path in Path(nhssh.__file__).parent.glob("*.py"))
    stated = re.search(r"`src/nhssh` is\s+(\d+) lines, and `len\(nhssh\.__all__\)` is (\d+)\.", text)
    assert stated and stated.groups() == (str(lines), str(len(nhssh.__all__)))


def test_readme_tables_match_the_cli_contracts(tmp_path, capsys, monkeypatch):
    # README's outputs table holds FILES' names, headers and rows (2N = 80, 160 samples); its checks table the names
    # and bounds that OUTPUT_CONTRACT's run of each experiment, and of the ring's spectrum, prints under --check;
    # its exit-code table the CLI's codes
    size = {"2N": "80", "samples": "160"}
    outputs = {(e, _placeholder(name), header.strip("`"), int(size.get(rows, rows)))
               for es, names, header, rows in _readme_table("| Experiment | File | Header | Rows |")
               for e in _ticked(es) for name in _ticked(names)}
    assert outputs == {(e, _placeholder(name), header, rows)
                       for e, files in FILES.items() for name, (header, rows) in files.items()}

    monkeypatch.chdir(tmp_path)
    printed = set()
    for row in (*EXPERIMENTS, "spectrum-ring"):
        argv, code, _ = OUTPUT_CONTRACT[row]
        _written([*argv, "--check"], row, code)
        for line in capsys.readouterr().out.splitlines():
            name, bound = re.fullmatch(r"\[(?:PASS|FAIL)\] (.+) = \S+ \(bound (\S+)\)", line).groups()
            printed.add((argv[0], _placeholder(name), bound))
    assert printed == {(e, _placeholder(name), bound)
                       for es, names, _, bound in _readme_table("| Experiment | Check | Value | Bound |")
                       for e in _ticked(es) for name in _ticked(names)}

    codes = {name.strip("`"): int(code) for code, name, _ in _readme_table("| Code | Constant | Meaning |")}
    assert codes == {name: getattr(nhssh.cli, name)
                     for name in ("EXIT_OK", "EXIT_CONFIG", "EXIT_NUMERICAL", "EXIT_CHECK")}


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
