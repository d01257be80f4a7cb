"""Tests of the benchmark's own parts.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

import run
import worker
from checks import nonfinite_cells, useful_ratio, useful_terms
from tracing import Tracer, install

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = ManualClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 2.0

    def mid():
        clock.now += 1.0
        traced_leaf()
        clock.now += 0.5

    def top():
        clock.now += 3.0
        traced_mid()
        traced_leaf()

    traced_leaf = tracer.wrap("specfun.leaf", leaf)
    traced_mid = tracer.wrap("oracle.mid", mid)
    tracer.wrap("cli.top", top)()

    assert clock.now == 8.5
    assert tracer.stats["cli.top"].self_s == 3.0
    assert tracer.stats["oracle.mid"].self_s == 1.5
    assert tracer.stats["specfun.leaf"].self_s == 4.0
    assert tracer.stats["specfun.leaf"].calls == 2
    totals = tracer.layer_totals()
    assert sum(t.self_s for t in totals.values()) == clock.now
    assert (totals["cli"].calls, totals["oracle"].calls, totals["specfun"].calls) == (1, 1, 2)


def test_span_closes_and_counts_an_exception():
    clock = ManualClock()
    tracer = Tracer(clock)

    def failing():
        clock.now += 1.0
        raise ValueError("bad input")

    traced_failing = tracer.wrap("specfun.failing", failing)

    def top():
        clock.now += 2.0
        with pytest.raises(ValueError):
            traced_failing()

    tracer.wrap("cli.top", top)()
    assert tracer.stats["specfun.failing"].errors == 1
    assert tracer.stats["cli.top"].errors == 0
    assert tracer.stats["cli.top"].self_s == 2.0
    assert tracer.stats["specfun.failing"].self_s == 1.0


def test_useful_terms_matches_brute_force():
    for r, s, alpha, tol in ((0.5, 2.0, 0.5, 1e-12), (math.exp(-0.08), 2.0, 0.5, 1e-9),
                             (math.exp(-0.2), 2.0, 0.5, 1e-12), (0.99, 3.0, 1.0, 1e-6)):
        m = 0
        while r**m / ((m + alpha) ** s * (1.0 - r)) > tol:
            m += 1
        assert useful_terms(r, s, alpha, tol) == m


def test_useful_ratio_of_a_full_block_at_lasing_depth():
    # |z| = e^{-4q} at q = 0.02, the closed-form norm's tolerance, and the
    # 32768-term block the interior sum always completes
    r = math.exp(-0.08)
    m = useful_terms(r, 2.0, 0.5, 1e-9)
    assert useful_ratio([(r, 2.0, 0.5, 1e-9, 32768)]) == m / 32768
    assert 0.003 < m / 32768 < 0.008
    # a call on the unit circle counts as fully useful; no calls waste nothing
    assert useful_ratio([(1.0, 2.0, 0.5, 1e-9, 100), (r, 2.0, 0.5, 1e-9, m)]) == 1.0
    assert useful_ratio([]) == 1.0


def test_nan_scan_on_doctored_csv(tmp_path):
    path = tmp_path / "0-fig5" / "norms_gamma3.csv"
    path.parent.mkdir()
    rows = ["t,P_numeric,P_closed_form", "0,0.5,", "1.5,2.25,", "3,1e300,"]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    (tmp_path / "0-fig5" / "classification.csv").write_text(
        "gamma,label,r_squared,slope\n1.7,Oscillatory,0.2,0.01\n", encoding="utf-8"
    )
    healthy = worker.Run(["fig5"], path.parent, code=0, output="[PASS] threshold trichotomy")
    assert nonfinite_cells(path) == 0
    assert healthy.failures() == []

    rows[2] = "1.5,nan,"
    rows[3] = "3,inf,-inf"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert nonfinite_cells(path) == 3
    # the run exited 0 and printed no [FAIL], yet it failed
    assert healthy.failures() == ["3 NaN/inf cells in norms_gamma3.csv"]


def test_failed_exit_and_check_lines_count(tmp_path):
    assert worker.Run(["fig5"], tmp_path, code=4, output="[FAIL] x: y").failures() == [
        "exit code 4", "a check printed [FAIL]"
    ]
    assert worker.Run(["fig5"], tmp_path, error="OverflowError: boom").failures() == [
        "raised OverflowError: boom"
    ]


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)


def test_workload_inputs_depend_only_on_the_seed():
    for make in worker.WORKLOADS.values():
        assert make(7) == make(7)
    deltas = {worker.WORKLOADS["lasing-norm"](seed)[1][-1] for seed in range(30)}
    assert deltas == set(worker.LASING_DELTAS)


def test_install_traces_a_small_experiment_and_restores(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import nhssh.cli
    import nhssh.oracle

    original = nhssh.oracle.lerch_phi
    tracer = Tracer()
    restore = install(tracer, worker.SAMPLERS)
    try:
        reps = worker.closed_loop(nhssh.cli, [["fig3", "--cells", "10", "--samples", "20"]], 0.0, tmp_path)
    finally:
        restore()
    assert nhssh.oracle.lerch_phi is original
    assert len(reps) == 1
    totals = tracer.layer_totals()
    assert sum(t.self_s for t in totals.values()) == pytest.approx(reps[0].wall_s, rel=0.1)
    assert tracer.stats["cli.main"].calls == 1
    assert tracer.stats["oracle.dirac_norm_closed_form"].calls == 1
    assert tracer.samples["oracle.dirac_norm_closed_form"] == [20]
    # 20 samples plus the two dilog evaluations of the constant term
    assert tracer.stats["specfun.lerch_phi"].calls == 22
    assert tracer.stats["specfun.dilog"].calls == 2
    assert tracer.samples["propagate.evolve"] == [(20, 19)]
    metrics = worker.layer_metrics(tracer, reps, reps)
    assert 0.0 < metrics["specfun.lerch_phi.useful_ratio"] < 1.0
