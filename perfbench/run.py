"""nhssh benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload lasing-norm --seed 1 --seconds 10 --trace 0

from the repository root.  Workloads (see ``worker.WORKLOADS``):

* ``lasing-norm``: fig3 then fig4 at 2N = 500; fig4's delta is picked
  from {0.8, 0.9, 0.98} by the seed.  Time goes to specfun and oracle.
* ``threshold-dynamics``: fig5, fig6, fig7, oracle-compare at 2N = 500.
  Time goes to propagate's stepping loop.
* ``large-lattice``: both spectra, fig2 and oracle-compare at 2N = 2000.
  Time goes to the dense spectrum and to propagate; memory peaks here.

The workload runs in a fresh Python process as a closed loop of CLI calls
with ``--check`` (see ``worker.py``).  ``--trace 0`` reports the
end-to-end metrics:

* ``wall_s``: median over the loop's repetitions of the time from the
  first experiment's start to the last one's return;
* ``setup_s``: median time to ``import nhssh.cli`` (numpy and scipy
  included) over several fresh processes;
* ``peak_rss_mb``: peak resident memory of the workload process, read
  before the accuracy gates run;
* ``pass_frac``: passed operations over attempted ones.  An operation is
  an experiment run or an accuracy gate (``gates.py``).  A run fails if it
  raises, exits non-zero, prints ``[FAIL]`` or writes a NaN or inf into a
  CSV; a gate fails if its value exceeds its bound.

``--trace 1`` runs the same loop untraced and then traced
(``tracing.py``), and reports per-layer figures per repetition, the
gates' values and the tracing overhead.  Either way the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the run's context
(machine, libraries, seed, source size).  All files go to a temporary
directory inside the repository, removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from worker import WORKLOADS

SETUP_PROBES = 2  # fresh processes timing the import, besides the worker's own
TIME_LIMIT_S = 175  # a run must end within 180 s; the worker is killed past this
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "fraction"}
PROBE = "import time; t = time.perf_counter(); import nhssh.cli; print(time.perf_counter() - t)"


def git_commit(root: Path) -> str | None:
    """HEAD of ``root`` if ``root`` itself is a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one nhssh benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "nhssh" / "__init__.py").is_file():
        print(f"error: no nhssh sources in {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    deadline = time.monotonic() + TIME_LIMIT_S

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        try:
            setup = [float(subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                                          capture_output=True, text=True, timeout=60).stdout)
                     for _ in range(SETUP_PROBES)]
            subprocess.run(
                [sys.executable, str(Path(__file__).with_name("worker.py")),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", tmp],
                env=env, check=True, stdout=sys.stderr, timeout=deadline - time.monotonic(),
            )
        except subprocess.CalledProcessError as exc:
            print(f"error: {exc}\n{exc.stderr or ''}", file=sys.stderr)
            return 3
        except subprocess.TimeoutExpired as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        result = json.loads(Path(tmp, "result.json").read_text(encoding="utf-8"))

    setup.append(result["setup_s"])
    failed = len(result["failures"])
    attempted = result["attempted"]
    if args.trace:
        metrics = result["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(result["wall_s"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
            "pass_frac": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(f"# {args.workload} seed={args.seed}: {len(result['wall_s'])} untraced repetitions, "
          f"{len(setup)} set-up samples, {failed} of {attempted} operations failed")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "commit": git_commit(root), **result["context"]}
    print("context " + json.dumps(context))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
