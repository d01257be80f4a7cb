#!/usr/bin/env python3
"""Reproduce every figure-style data set at the published scale.

Runs each experiment id into out/<id>/ with --check, printing the
per-check PASS/FAIL lines, and exits nonzero if any check fails.
The full sweep takes about a second on a laptop.
"""

import sys

from nhssh.cli import EXPERIMENTS, main

EXTRA = {
    "fig4": [["--delta", "0.8"], ["--delta", "0.9"], ["--delta", "0.98"]],
    "spectrum": [["--boundary", "open"], ["--boundary", "periodic"]],
}


def run() -> int:
    status = 0
    for experiment in EXPERIMENTS:
        for i, extra in enumerate(EXTRA.get(experiment, [[]])):
            out = f"out/{experiment}" + (f"_{i}" if len(EXTRA.get(experiment, [[]])) > 1 else "")
            argv = [experiment, "--out", out, "--check", *extra]
            print(f"== nhssh {' '.join(argv)}")
            code = main(argv)
            if code != 0:
                status = code
    return status


if __name__ == "__main__":
    sys.exit(run())
