"""Output scan and the Lerch wasted-work measure; stdlib only."""

from __future__ import annotations

import csv
import math
from pathlib import Path


def nonfinite_cells(path: Path) -> int:
    """Number of cells in a CSV file that parse as a NaN or an infinity.

    Cells that are not numbers at all (headers, labels, blanks) are skipped.
    """
    count = 0
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.reader(handle):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                count += not math.isfinite(value)
    return count


def useful_terms(r: float, s: float, alpha: float, tol: float) -> int:
    """Smallest M >= 0 with ``r^M / ((M+alpha)^s (1-r)) <= tol``, for 0 < r < 1.

    This is the number of terms after which the interior Lerch tail bound
    meets ``tol``; the bound decreases in M, so it is found by doubling
    and bisection.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"the geometric tail bound needs 0 < r < 1, got {r}")
    log_r = math.log(r)
    limit = math.log(tol) + math.log(1.0 - r)

    def met(m: int) -> bool:
        return m * log_r - s * math.log(m + alpha) <= limit

    if met(0):
        return 0
    hi = 1
    while not met(hi):
        hi *= 2
        if hi > 1 << 40:
            raise ValueError(f"tail bound needs more than 2^40 terms at r={r}")
    lo = hi // 2  # not met at lo (or lo == 0, checked above)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if met(mid):
            hi = mid
        else:
            lo = mid
    return hi


def useful_ratio(calls) -> float:
    """Terms the tail bound needs over terms summed, across Lerch calls.

    ``calls`` holds ``(r, s, alpha, tol, terms_used)`` per call.  Calls on
    the unit circle (r = 1 up to rounding) have no geometric bound and
    count as fully useful; with no terms summed at all the ratio is 1.
    """
    useful = used = 0
    for r, s, alpha, tol, terms in calls:
        used += terms
        useful += useful_terms(r, s, alpha, tol) if 0.0 < r < 1.0 - 1e-13 else terms
    return useful / used if used else 1.0
