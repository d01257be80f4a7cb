"""Summary values of a ``scripts/reproduce_all.py`` run, checked against ``tests/data/golden_summary.json``.

Each entry of the golden file is one column of one CSV under ``out/``, with
its own tolerance, set by what is known to move between correct solvers:

* ``CSV``: absolute 2.5e-10, the most two correct eigensolvers differed by
  in any CSV column at 2N = 2000 (spectra, packet geometry);
* ``NORM``: relative 8.6e-8, the most the Dirac norms at N = 1000 moved
  between the closed-form modes and an eigensolver; every value read off a
  trajectory (classification fits, windows, ratios, periods, oracle L1);
* ``None``: text, compared exactly (growth labels).

Regenerate the file from a fresh sweep, in an empty directory::

    python scripts/reproduce_all.py
    python tests/golden_summary.py out > tests/data/golden_summary.json
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "data" / "golden_summary.json"

CSV = {"tol": 2.5e-10, "relative": False}
NORM = {"tol": 8.6e-8, "relative": True}
TEXT = {"tol": None, "relative": False}

# (file under out/, columns, tolerance)
SPEC = [
    ("fig2/centers.csv", ["center", "width"], CSV),
    ("spectrum_0/spacings.csv", ["level", "deviation"], CSV),
    ("fig5/classification.csv", ["label"], TEXT),
    ("fig5/classification.csv", ["r_squared", "slope"], NORM),
    ("fig6/translation.csv", ["window_start", "window_end", "norm_drift", "center_velocity",
                              "first_reflection", "second_reflection"], NORM),
    *(
        (f"fig7/interference_{name}.csv", ["window_start", "window_end", "ratio_max", "ratio_min", "p_before"], NORM)
        for name in ("plus", "minus")
    ),
    *(
        (f"fig4_{i}/period_report.csv", ["formula_period", "measured_period", "revival_period"], NORM)
        for i in range(3)
    ),
    ("oracle-compare/compare.csv", ["l1_over_norm"], NORM),
]


def read_column(out: Path, file: str, column: str) -> list:
    """One CSV column, as text."""
    with open(out / file, newline="", encoding="utf-8") as handle:
        return [row[column] for row in csv.DictReader(handle)]


def summarize(out: Path) -> list[dict]:
    """Every golden entry, read from the sweep written under ``out``."""
    entries = []
    for file, columns, tolerance in SPEC:
        for column in columns:
            values = read_column(out, file, column)
            if tolerance["tol"] is not None:
                values = [float(v) for v in values]
            entries.append({"file": file, "column": column, "values": values, **tolerance})
    return entries


def mismatches(out: Path, golden: list[dict]) -> list[str]:
    """One line per golden value that the sweep under ``out`` misses by more than its tolerance."""
    found = []
    for entry in golden:
        written = read_column(out, entry["file"], entry["column"])
        where = f"{entry['file']}:{entry['column']}"
        if len(written) != len(entry["values"]):
            found.append(f"{where}: {len(written)} rows, golden has {len(entry['values'])}")
            continue
        for row, (value, expected) in enumerate(zip(written, entry["values"])):
            if entry["tol"] is None:
                ok = value == expected
            else:
                scale = abs(expected) if entry["relative"] else 1.0
                ok = abs(float(value) - expected) <= entry["tol"] * scale
            if not ok:
                found.append(f"{where}[{row}] = {value}, golden {expected} (tol {entry['tol']})")
    return found


if __name__ == "__main__":
    json.dump(summarize(Path(sys.argv[1])), sys.stdout, indent=1)
    print()
