"""Growth classification, the norm's period and packet kinematics on recorded trajectories.

The classifier implements the threshold trichotomy: below the tuned gain
the Dirac norm oscillates, at it the norm grows linearly, above it
exponentially.  The decision rule is documented and scale-invariant;
nothing is decided by eye.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .propagate import Trajectory
from .states import fwhm_interval

# a local maximum followed by a >= 20% drop marks oscillation
OSCILLATION_DROP = 0.20
MIN_WINDOW_SAMPLES = 50  # the fewest samples a growth window may hold
# trimmed from each side of the inter-reflection window (bounce clearance)
WINDOW_MARGIN_FRAC = 0.08
# packets count as separated only when their FWHM intervals clear this gap;
# the 1/n coefficient tails reach well beyond the half-maximum interval
SEPARATION_PAD_SITES = 40


class AnalysisError(RuntimeError):
    """Trajectory does not support the requested analysis."""


@dataclass
class GrowthReport:
    label: str  # "Exponential" | "Linear" | "Oscillatory"
    fit_params: dict
    r_squared: float


def _r_squared(values: np.ndarray, predicted: np.ndarray) -> float:
    values, predicted = np.array([values, predicted]) / np.abs(values).max()  # in the window's units: no square overflows
    ss_tot = np.sum((values - values.mean()) ** 2)
    if ss_tot == 0.0:
        return 0.0
    return float(1.0 - np.sum((values - predicted) ** 2) / ss_tot)


def classify_growth(times: np.ndarray, norms: np.ndarray, window: tuple) -> GrowthReport:
    """Label a norm series Exponential, Linear or Oscillatory on a window.

    Rule: if the series drops by at least 20% from a running maximum the
    label is Oscillatory; otherwise a linear and a log-linear model are
    fitted and the better R^2 in norm space wins.  Multiplying the series
    by any constant leaves the outcome unchanged.
    """
    times = np.asarray(times, dtype=float)
    norms = np.asarray(norms, dtype=float)
    lo, hi = window
    sel = (times >= lo) & (times <= hi)
    if sel.sum() < MIN_WINDOW_SAMPLES:
        raise AnalysisError(f"window [{lo}, {hi}] holds {sel.sum()} samples; need >= {MIN_WINDOW_SAMPLES}")
    t = times[sel]
    p = norms[sel]
    spread = p.max() - p.min()
    if spread <= 1e-12 * max(abs(p).max(), 1e-300):
        raise AnalysisError("indeterminate: norm series is constant on the window")

    drawdown = float((p / np.maximum.accumulate(p)).min())

    lin = np.polyfit(t, p, 1)
    r2_lin = _r_squared(p, np.polyval(lin, t))
    log_p = np.log(np.maximum(p, 1e-300))
    exp_fit = np.polyfit(t, log_p, 1)
    r2_exp = _r_squared(p, np.exp(np.polyval(exp_fit, t)))

    fits = {
        "linear": {"slope": float(lin[0]), "intercept": float(lin[1]), "r_squared": r2_lin},
        "exponential": {
            "rate": float(exp_fit[0]),
            "log_intercept": float(exp_fit[1]),
            "r_squared": r2_exp,
        },
        "drawdown": drawdown,
    }
    if drawdown <= 1.0 - OSCILLATION_DROP:
        label, r2 = "Oscillatory", max(r2_lin, r2_exp)
    elif r2_exp > r2_lin:
        label, r2 = "Exponential", r2_exp
    else:
        label, r2 = "Linear", r2_lin
    return GrowthReport(label=label, fit_params=fits, r_squared=max(0.0, min(1.0, r2)))


def norm_period(times: np.ndarray, norms: np.ndarray, lags: tuple) -> float:
    """The lag in ``lags = (lo, hi)`` at which the norm curve best matches itself: its waveform's period, to a sample.

    For every sample lag L in the window it takes the mean of (P(t + L) - P(t))^2 over the samples L apart, all
    at once from one FFT autocorrelation and a running sum of squares: O(n log n).  The curve is read whole, so
    the sample-level ripples on the flat top of an off-center packet's norm, whose local maxima a peak search
    takes for the period, do not count; and a mean, unlike a raw autocorrelation, does not favour the longer
    overlap of a shorter lag.
    """
    dt, n = times[1] - times[0], len(norms)
    first, last = math.ceil(lags[0] / dt), min(math.floor(lags[1] / dt), n - 1)
    if first > last:
        raise AnalysisError(f"no sample lag in [{lags[0]:.6g}, {lags[1]:.6g}] at dt = {dt:.6g}: no period")
    p = norms / (np.abs(norms).max() or 1.0)  # no square overflows
    if not p.max() - p.min() > 1e-12:  # as classify_growth: at gamma = 0 the norm is conserved, and varies by rounding
        raise AnalysisError("indeterminate: the norm is constant, so it has no period")
    size = 1 << (2 * n - 1).bit_length()  # zero-padded past 2n - 1: a linear, not circular, correlation
    spectrum = np.fft.rfft(p, size)
    cross = np.fft.irfft(spectrum * spectrum.conj(), size)[first : last + 1]  # sum_t P(t) P(t + L)
    squares = np.concatenate(([0.0], np.cumsum(p * p)))  # squares[k] = sum_{t < k} P(t)^2
    L = np.arange(first, last + 1)
    msd = (squares[n] - squares[L] + squares[n - L] - 2.0 * cross) / (n - L)
    return float(times[first + np.argmin(msd)])


def reflection_symmetry(traj: Trajectory, t_reflect: float, delta_t: float) -> float:
    """Worst L1 mirror mismatch of profiles about t_reflect, lags up to delta_t.

    Normalized by the Dirac norm at the reflection instant (the norm at
    the packet's turning point sets the natural scale; the norm at t = 0
    is nearly zero at the tuned gain and would be meaningless here).  The
    2*lags profiles are formed together, in one :meth:`Trajectory.profiles`.
    """
    k0 = traj.index_at(t_reflect)
    lags = int(round(delta_t / traj.dt))
    if k0 - lags < 0 or k0 + lags >= len(traj.times):
        raise AnalysisError(
            f"trajectory span does not cover t_reflect +/- delta_t = {t_reflect} +/- {delta_t}"
        )
    d = np.arange(1, lags + 1)
    later, earlier = np.split(traj.profiles(np.concatenate((k0 + d, k0 - d))), 2)
    return float(np.abs(later - earlier).sum(axis=1).max(initial=0.0) / traj.norms[k0])


@dataclass
class TranslationReport:
    window: tuple
    norm_drift: float
    center_velocity: float
    reflection_times: tuple


def translation_window(traj: Trajectory) -> TranslationReport:
    """Inter-reflection window of a single off-center packet.

    Boundary reflections show up as the turning points of the half-maximum
    interval endpoints: the lower endpoint bottoms out at the left wall,
    the upper tops out at the right wall.  Between the two events the
    packet translates; reported are the max relative norm spread and the
    fitted center velocity on that window (margins trimmed to clear the
    bounces).  Intervals and first moments come from one pass over the
    profile blocks.
    """
    n = len(traj.times)
    ends, moments = np.empty((n, 2), dtype=int), np.empty(n)
    for start, block in traj.profile_blocks():
        ends[start : start + len(block)] = fwhm_interval(block)
        moments[start : start + len(block)] = block @ np.arange(1, block.shape[1] + 1)
    lo, hi = ends.T
    i_left = int(np.argmin(lo))
    i_right = int(np.argmax(hi))
    i1, i2 = sorted((i_left, i_right))
    if i1 == i2 or i1 == 0 or i2 >= n - 1:
        raise AnalysisError("no pair of boundary reflections found inside the trajectory span")
    margin = int(round(WINDOW_MARGIN_FRAC * (i2 - i1)))
    w0, w1 = i1 + margin, i2 - margin
    if w1 - w0 < 10:
        raise AnalysisError("inter-reflection window too short to analyze")

    norms = traj.norms[w0 : w1 + 1]
    drift = float((norms.max() - norms.min()) / norms.mean())
    centers = moments[w0 : w1 + 1] / norms
    with np.errstate(over="raise"):  # a span so long that the fit's sums of t^2 overflow fails here, not as a warning
        velocity = float(np.polyfit(traj.times[w0 : w1 + 1], centers, 1)[0])
    return TranslationReport(
        window=(float(traj.times[w0]), float(traj.times[w1])),
        norm_drift=drift,
        center_velocity=velocity,
        reflection_times=(float(traj.times[i1]), float(traj.times[i2])),
    )


@dataclass
class InterferenceReport:
    overlap_window: tuple
    ratio_max: float
    ratio_min: float
    p_before: float
    separated: np.ndarray = field(repr=False, default=None)


def interference_report(pair_traj: Trajectory, intervals) -> InterferenceReport:
    """Norm ratios of a two-packet state across its first collision.

    The collision window is where the constituent packets' half-maximum
    intervals intersect; the constituents evolve independently (the model
    is linear), so their own trajectories define the intervals.
    ``intervals`` are the two singles' :func:`fwhm_interval` of their
    profiles, (samples, 2) each, which lets several pairs share the
    singles.  Ratios compare the pair norm inside the window to the mean
    norm just before it.  ``separated`` marks samples where the intervals
    clear a 40-site pad, the regime where the pair norm should equal the
    sum of the single norms.
    """
    (a0, a1), (b0, b1) = (ends.T for ends in intervals)
    n = len(pair_traj.times)
    if len(a0) != n or len(b0) != n:
        raise AnalysisError("pair and single trajectories must share the sampling grid")
    overlap = (a0 <= b1) & (b0 <= a1)
    separated = ~((a0 <= b1 + SEPARATION_PAD_SITES) & (b0 <= a1 + SEPARATION_PAD_SITES))
    if not overlap.any():
        raise AnalysisError("packets never meet inside the trajectory span")
    i0 = int(np.argmax(overlap))
    after = ~overlap[i0:]
    i1 = i0 + (int(np.argmax(after)) - 1 if after.any() else len(after) - 1)
    if i0 < 3:
        raise AnalysisError("packets overlap from the start; no pre-collision baseline")
    p_before = float(pair_traj.norms[max(0, i0 - 6) : i0].mean())
    inside = pair_traj.norms[i0 : i1 + 1]
    ratio_max = float(inside.max() / p_before)
    ratio_min = float(inside.min() / p_before)
    return InterferenceReport(
        overlap_window=(float(pair_traj.times[i0]), float(pair_traj.times[i1])),
        ratio_max=ratio_max,
        ratio_min=ratio_min,
        p_before=p_before,
        separated=separated,
    )
