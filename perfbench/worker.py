"""One workload in a fresh process: set-up, closed loop, optional trace, gates.

    PYTHONPATH=src python3 perfbench/worker.py --workload NAME --seed N \
        --seconds T --trace 0|1 --out DIR

writes ``DIR/result.json``.  ``run.py`` starts it; it prints nothing else
of use.  The experiments of a workload run one after another through
``nhssh.cli.main(argv + ["--out", dir, "--check"])``, each starting when
the previous one returns, and the whole sequence repeats until ``T``
seconds have passed (at least once).  Only the standard library is
imported before ``nhssh.cli``, so the import time measured here includes
numpy and scipy.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from checks import nonfinite_cells, useful_ratio
from tracing import LAYERS, Tracer, install

# Pinned rather than left to the CLI defaults, so a changed default cannot
# change the workload.
DESK = ["--cells", "250", "--samples", "2000"]
LARGE = ["--cells", "1000", "--samples", "2000"]
LASING_DELTAS = ("0.8", "0.9", "0.98")  # the fig4 deltas reproduce_all.py runs

# Why each workload: lasing-norm spends ~95% in specfun/oracle (one Lerch
# sum per sample, at two depths |z| = e^-0.08 and e^-0.2); threshold-
# dynamics is almost all propagate stepping (eleven trajectories, a gamma
# sweep across threshold) plus all of analysis, with no specfun call;
# large-lattice is the only user of full_spectrum and runs propagate at
# 2N = 2000, where expm rivals stepping and memory peaks.
WORKLOADS = {
    "lasing-norm": lambda seed: [
        ["fig3", *DESK],
        ["fig4", *DESK, "--delta", random.Random(seed).choice(LASING_DELTAS)],
    ],
    "threshold-dynamics": lambda seed: [
        [experiment, *DESK] for experiment in ("fig5", "fig6", "fig7", "oracle-compare")
    ],
    "large-lattice": lambda seed: [
        ["spectrum", *LARGE, "--boundary", "open"],
        ["spectrum", *LARGE, "--boundary", "periodic"],
        ["fig2", *LARGE],
        ["oracle-compare", *LARGE],
    ],
}

# Per-layer metrics and their units.  Every layer (module) reports self_s,
# calls and errors; the functions below add their own span figures.
SPAN_SELF_S = (
    "lattice.build_hamiltonian",
    "spectra.full_spectrum",
    "spectra.verify_equal_spacing",
    "propagate.evolve",
    "propagate.expm",
    "oracle.dirac_norm_closed_form",
    "oracle.evolved_state_closed_form",
    "specfun.lerch_phi",
    "states.fwhm_interval",
    "analysis.classify_growth",
    "analysis.translation_window",
    "analysis.interference_report",
)
SPAN_CALLS = (
    "lattice.build_hamiltonian",
    "spectra.full_spectrum",
    "spectra.analytic_dispersion",
    "propagate.evolve",
    "oracle.superpose_eigenstates",
    "specfun.lerch_phi",
    "specfun.dilog",
    "states.build_initial_state",
    "states.build_pair_state",
    "states.fwhm_interval",
    "states.measure",
)
COUNTERS = {
    "cli.bytes_written": "bytes",
    "propagate.steps": "count",
    "propagate.flops_computed": "flop",
    "propagate.bytes_computed": "bytes",
    "oracle.dirac_norm_closed_form.samples": "count",
    "specfun.lerch_phi.terms": "count",
    "specfun.lerch_phi.useful_ratio": "ratio",
    "specfun.lerch_phi.max_est_error": "abs",
    "propagate.err_vs_expm": "rel",
    "oracle.norm_rms": "rel",
    "specfun.lerch_err_vs_mpmath": "abs",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
PER_LAYER_UNITS = {
    **{f"{layer}.{kind}": unit for layer in LAYERS for kind, unit in
       (("self_s", "s"), ("calls", "count"), ("errors", "count"))},
    **{f"{name}.self_s": "s" for name in SPAN_SELF_S},
    **{f"{name}.calls": "count" for name in SPAN_CALLS},
    **COUNTERS,
}

# Per-call samples taken at the span boundary, from the bound arguments
# and the return value.
SAMPLERS = {
    "specfun.lerch_phi": lambda a, value: (
        abs(complex(a["z"])), a["s"], a["alpha"], a["tol"], value.terms_used, value.est_error
    ),
    "propagate.evolve": lambda a, value: (len(a["state0"]), a["steps"]),
    "oracle.dirac_norm_closed_form": lambda a, value: getattr(a["t"], "size", 1),
}


@dataclass
class Run:
    argv: list[str]
    outdir: Path
    code: int | None = None
    output: str = ""
    error: str = ""

    def failures(self) -> list[str]:
        """Reasons this experiment run counts as failed; empty if it passed."""
        reasons = []
        if self.error:
            reasons.append(f"raised {self.error.strip().splitlines()[-1]}")
        elif self.code != 0:
            reasons.append(f"exit code {self.code}")
        if "[FAIL]" in self.output:
            reasons.append("a check printed [FAIL]")
        for path in sorted(self.outdir.glob("*.csv")):
            bad = nonfinite_cells(path)
            if bad:
                reasons.append(f"{bad} NaN/inf cells in {path.name}")
        return reasons


@dataclass
class Rep:
    wall_s: float
    runs: list[Run]

    def bytes_written(self) -> int:
        return sum(p.stat().st_size for run in self.runs for p in run.outdir.glob("*") if p.is_file())


def closed_loop(cli, steps: list[list[str]], seconds: float, outroot: Path) -> list[Rep]:
    """Repeat the experiment sequence until ``seconds`` have passed."""
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        runs = [Run(argv, outroot / f"rep{len(reps)}" / f"{i}-{argv[0]}") for i, argv in enumerate(steps)]
        rep_start = time.perf_counter()
        for run in runs:
            captured = io.StringIO()
            try:
                with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                    run.code = cli.main([*run.argv, "--out", str(run.outdir), "--check"])
            except Exception:  # a crashing experiment is a failed run, not a crashed benchmark
                run.error = traceback.format_exc()
                print(run.error, file=sys.stderr)
            run.output = captured.getvalue()
        reps.append(Rep(time.perf_counter() - rep_start, runs))
    return reps


def layer_metrics(tracer, reps: list[Rep], plain: list[Rep]) -> dict[str, float]:
    """Per-layer figures per repetition of the traced loop."""
    n = len(reps)
    values = {}
    for layer, total in tracer.layer_totals().items():
        values[f"{layer}.self_s"] = total.self_s / n
        values[f"{layer}.calls"] = total.calls / n
        values[f"{layer}.errors"] = total.errors / n
    for name in SPAN_SELF_S:
        values[f"{name}.self_s"] = tracer.stats[name].self_s / n
    for name in SPAN_CALLS:
        values[f"{name}.calls"] = tracer.stats[name].calls / n

    evolves = tracer.samples["propagate.evolve"]
    lerch = tracer.samples["specfun.lerch_phi"]
    traced_wall = sum(rep.wall_s for rep in reps) / n
    values.update({
        "cli.bytes_written": sum(rep.bytes_written() for rep in reps) / n,
        "propagate.steps": sum(steps for _, steps in evolves) / n,
        # one complex matrix-vector product per step: 8 flops and 16 bytes of U per entry
        "propagate.flops_computed": sum(8 * size**2 * steps for size, steps in evolves) / n,
        "propagate.bytes_computed": sum(16 * size**2 * steps for size, steps in evolves) / n,
        "oracle.dirac_norm_closed_form.samples": sum(tracer.samples["oracle.dirac_norm_closed_form"]) / n,
        "specfun.lerch_phi.terms": sum(call[4] for call in lerch) / n,
        "specfun.lerch_phi.useful_ratio": useful_ratio(call[:5] for call in lerch),
        "specfun.lerch_phi.max_est_error": max((call[5] for call in lerch), default=0.0),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - sum(rep.wall_s for rep in plain) / len(plain),
    })
    return values


def context(root: Path) -> dict:
    """Machine, library and source-size facts recorded beside the figures."""
    import mpmath
    import numpy as np
    import scipy

    import nhssh

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        l3 = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or 0)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        l3 = None
    src = root / "src" / "nhssh"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "l3_bytes": l3,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py")),
        "api_size": len(nhssh.__all__),
    }


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, asked of the library numpy loaded."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent

    start = time.perf_counter()
    import nhssh.cli as cli  # the set-up a user of the CLI pays

    setup_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"nhssh imported from {cli.__file__}, not from {root / 'src'}")

    steps = WORKLOADS[args.workload](args.seed)
    plain = closed_loop(cli, steps, args.seconds, args.out / "plain")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reps = list(plain)
    per_layer = None
    if args.trace:
        tracer = Tracer()
        restore = install(tracer, SAMPLERS)
        try:
            traced = closed_loop(cli, steps, args.seconds, args.out / "traced")
        finally:
            restore()
        reps += traced
        per_layer = layer_metrics(tracer, traced, plain)

    import gates

    failures = []
    for run in (run for rep in reps for run in rep.runs):
        reasons = run.failures()
        if reasons:
            failures.append(f"{' '.join(run.argv)}: {'; '.join(reasons)}")
    attempted = sum(len(rep.runs) for rep in reps) + len(gates.GATES)
    for name, gate in gates.GATES.items():
        value, bound = gate()
        if per_layer is not None:
            per_layer[name] = value
        if not value <= bound:
            failures.append(f"gate {name}: {value:.3g} > {bound:.3g}")
    if per_layer is not None:
        if per_layer.keys() != PER_LAYER_UNITS.keys():
            raise RuntimeError(f"per-layer metrics differ from the declared set: "
                               f"{sorted(per_layer.keys() ^ PER_LAYER_UNITS.keys())}")
        per_layer = {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
                     for name, value in per_layer.items()}

    result = {
        "setup_s": setup_s,
        "wall_s": [rep.wall_s for rep in plain],
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failures": failures,
        "per_layer": per_layer,
        "context": context(root),
    }
    (args.out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
