"""Gait signal preprocessing and biomechanical feature extraction.

Covers the preprocessing chain (zero-phase Butterworth smoothing, linear
gap imputation, per-subject normalization with temporal alignment onto a
T-point cycle grid) and the downstream features of one periodic cycle:
heel-strike/toe-off times and stance/swing phase durations, each as a
plain list of floats, the values the segment report writes.

Conventions
-----------
- Signals are plain arrays with time along axis 0. A raw cycle is an
  (L, 6, 3) array: L frames at 30 FPS, the six channels in CHANNELS
  order, and (x, y, z) joint displacements, with NaN marking a gap. Only
  the y (vertical) axis is preprocessed and modeled, as an (L, 6) array
  of channel heights; x/z are kept only so the corpus round-trips.
- The normalized cycle grid is ``cycle_grid(T)``, t_k = k / T for
  k = 0..T-1: a gait cycle is periodic, so the grid excludes the
  duplicate endpoint t = 1, and resampling interpolates cyclically from
  the L samples of a cycle at ``cycle_grid(L)``. A cycle needs
  MIN_CYCLE_SAMPLES samples to be aligned (``check_cycle``).

Importing this module imports no part of scipy. ``scipy.signal``
(0.69-0.94 s of start-up after ``import gaitmogp.cli``, two batches of
five fresh interpreters on a shared 2-vCPU VM with a warm file cache,
scipy 1.17) is imported by the first
``lowpass_filter`` call, so a process that never filters, such as a
``--filter-cutoff none`` run, never pays for it; ``detect_events`` finds
peaks with numpy alone.

All operations are pure and safe for concurrent use.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

FRAME_RATE = 30.0
DEFAULT_GRID_POINTS = 400

JOINTS = ("hip", "knee", "ankle")
SIDES = ("right", "left")
# Canonical output ordering of the six modeled channels.
CHANNELS = ("hip_right", "hip_left", "knee_right", "knee_left",
            "ankle_right", "ankle_left")

DEFAULT_FILTER_CUTOFF_HZ = 6.0
FILTER_ORDER = 4

# Fewest samples a cycle may have to be resampled onto the grid.
MIN_CYCLE_SAMPLES = 10

# Fewest samples a signal may have for event detection.
MIN_EVENT_SAMPLES = 5
PROMINENCE_FRACTION = 0.2
MIN_EVENT_SPACING = 0.15
FLAT_SIGNAL_PTP = 1e-9


def lowpass_filter(samples, cutoff_hz: float = DEFAULT_FILTER_CUTOFF_HZ,
                   frame_rate: float = FRAME_RATE) -> np.ndarray:
    """Zero-phase Butterworth low-pass of order FILTER_ORDER along axis 0
    (DC gain 1).

    Every other axis is filtered independently, so one call filters all
    six channel heights of an (L, 6) cycle. The signal needs more than
    3 * (FILTER_ORDER + 1) samples, the padding filtfilt adds each side,
    and only finite values.

    ``scipy.signal`` is imported here, after the input checks, so the
    first call in a process pays its import and a process that never
    filters does not.
    """
    samples = np.atleast_1d(np.asarray(samples, dtype=float))
    nyquist = frame_rate / 2.0
    if not 0.0 < cutoff_hz < nyquist:
        raise ValidationError(
            f"cutoff must lie in (0, {nyquist}) Hz, got {cutoff_hz}")
    min_len = 3 * (FILTER_ORDER + 1) + 1
    if samples.shape[0] < min_len:
        raise ValidationError(
            f"signal too short to filter: {samples.shape[0]} < {min_len} "
            f"samples")
    if not np.all(np.isfinite(samples)):
        raise ValidationError("signal to filter must be finite")
    from scipy.signal import butter, filtfilt
    b, a = butter(FILTER_ORDER, cutoff_hz, btype="low", fs=frame_rate)
    return filtfilt(b, a, samples, axis=0)


def impute_missing(samples) -> np.ndarray:
    """Fill NaN gaps along axis 0 by linear interpolation, holding edge
    values; every other index is a separate signal.

    Gap runs must be shorter than one third of the sequence; longer runs
    raise, recommending the cycle be excluded. The error names the
    channel when ``samples`` is an (L, 6) cycle of channel heights.
    """
    filled = np.array(samples, dtype=float)
    n = filled.shape[0]
    columns = filled.reshape(n, -1)  # a view: writes land in ``filled``
    gaps = ~np.isfinite(columns)
    idx = np.arange(n, dtype=float)
    for col in np.nonzero(gaps.any(axis=0))[0]:
        gap = gaps[:, col]
        run = _longest_run(gap)
        if 3 * run >= n:
            label = (CHANNELS[col] if filled.shape[1:] == (len(CHANNELS),)
                     else f"column {col}")
            raise ValidationError(
                f"{label}: gap run of {run} samples is >= 1/3 of the "
                f"sequence ({n}); exclude this cycle")
        # np.interp holds the first/last known value at the edges.
        columns[gap, col] = np.interp(idx[gap], idx[~gap],
                                      columns[~gap, col])
    return filled


def _longest_run(flags: np.ndarray) -> int:
    longest = current = 0
    for value in flags:
        current = current + 1 if value else 0
        longest = max(longest, current)
    return longest


def cycle_grid(num_points: int) -> np.ndarray:
    """The normalized cycle times t_k = k / num_points, k = 0..num_points-1."""
    return np.arange(num_points, dtype=float) / num_points


def check_cycle(cycle: np.ndarray) -> np.ndarray:
    """Return a (6, L) y-signal cycle unchanged if it has the six
    channels, at least MIN_CYCLE_SAMPLES samples and only finite values."""
    if cycle.shape[0] != len(CHANNELS):
        raise ValidationError(
            f"expected {len(CHANNELS)} channels, got {cycle.shape[0]}")
    if cycle.shape[1] < MIN_CYCLE_SAMPLES:
        raise ValidationError(
            f"length {cycle.shape[1]} < {MIN_CYCLE_SAMPLES} samples")
    if not np.all(np.isfinite(cycle)):
        raise ValidationError("non-finite values")
    return cycle


def normalize_and_align(cycles, num_points: int = DEFAULT_GRID_POINTS):
    """Align cycles onto the T-point grid and z-score per subject.

    Parameters
    ----------
    cycles : list of (6, L_c) arrays
        Variable-length y-signals per cycle, channels in CHANNELS order.

    Returns
    -------
    (grid, normalized, means, stds): the (T,) grid t_k = k / T; the
    (C, 6, T) cycles resampled onto it and z-scored against the
    subject's pooled cycles, so each channel has mean 0 and variance 1
    across all C cycles; and the (6,) per-channel constants that map
    normalized values back to raw units.
    """
    if num_points < 2:
        raise ValidationError("num_points must be >= 2")
    cycles = [np.atleast_2d(np.asarray(c, dtype=float)) for c in cycles]
    if not cycles:
        raise ValidationError("at least one cycle is required")
    for i, cycle in enumerate(cycles):
        try:
            check_cycle(cycle)
        except ValidationError as exc:
            raise ValidationError(f"cycle {i}: {exc}") from None

    grid = cycle_grid(num_points)
    resampled = np.array([[np.interp(grid, cycle_grid(cycle.shape[1]), row,
                                     period=1.0) for row in cycle]
                          for cycle in cycles])
    # Pool as (6, C*T): numpy's pairwise sums, and so the last bits of
    # the constants, depend on the layout.
    pooled = np.concatenate(resampled, axis=1)
    means = pooled.mean(axis=1)
    stds = pooled.std(axis=1)
    flat = np.nonzero(stds < 1e-12)[0]
    if flat.size:
        raise ValidationError(
            f"zero-variance channel(s): {[CHANNELS[i] for i in flat]}")
    return grid, (resampled - means[:, None]) / stds[:, None], means, stds


def detect_events(values, grid=None) -> tuple[list[float], list[float]]:
    """(heel_strikes, toe_offs): the grid times of the local minima and
    of the local maxima of an ankle height signal over one normalized
    cycle, each list in increasing order.

    The signal needs MIN_EVENT_SAMPLES samples, and a given grid must be
    finite, strictly increasing, uniformly spaced (to a relative 1e-9)
    and in normalized cycle time [0, 1] (not frame indices):
    MIN_EVENT_SPACING is in that unit and becomes a sample count through
    the grid step. The cycle is treated as periodic: extrema sitting near
    the grid boundary get their prominence from the wrapped-around
    signal, not from the truncated window. Peaks must reach a prominence
    of PROMINENCE_FRACTION times the signal's peak-to-peak range and be
    at least MIN_EVENT_SPACING normalized-time apart. When the merged
    event sequence fails to alternate, the more extreme event of each
    same-type run is kept. A flat signal yields two empty lists.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.shape[0] < MIN_EVENT_SAMPLES:
        raise ValidationError(
            f"signal must have at least {MIN_EVENT_SAMPLES} samples")
    if not np.all(np.isfinite(values)):
        raise ValidationError("signal must be finite")
    if grid is None:
        grid = cycle_grid(values.shape[0])
    else:
        grid = np.asarray(grid, dtype=float).ravel()
        if grid.shape != values.shape:
            raise ValidationError("grid length must match signal length")
        steps = np.diff(grid)
        if not (np.all(np.isfinite(grid)) and np.all(steps > 0.0)
                and np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)
                and grid[0] >= 0.0 and grid[-1] <= 1.0):
            raise ValidationError(
                "grid must be finite, strictly increasing, uniformly "
                "spaced and within [0, 1] (normalized cycle time)")

    ptp = float(np.max(values) - np.min(values))
    if ptp < FLAT_SIGNAL_PTP:
        return [], []

    n = values.shape[0]
    step = float(grid[1] - grid[0])
    distance = max(1.0, MIN_EVENT_SPACING / step)
    prominence = PROMINENCE_FRACTION * ptp

    def periodic_peaks(signal: np.ndarray) -> np.ndarray:
        tiled = np.concatenate([signal, signal, signal])
        peaks = _find_peaks(tiled, prominence, distance)
        middle = peaks[(peaks >= n) & (peaks < 2 * n)]
        return middle - n

    maxima = periodic_peaks(values)
    minima = periodic_peaks(-values)

    # Enforce alternation: within a same-type run keep the extreme event.
    merged = sorted([(i, 1) for i in maxima] + [(i, 0) for i in minima])
    kept: list[tuple[int, int]] = []
    for idx, kind in merged:
        if kept and kept[-1][1] == kind:
            prev_idx = kept[-1][0]
            better = (values[idx] > values[prev_idx]) if kind == 1 \
                else (values[idx] < values[prev_idx])
            if better:
                kept[-1] = (idx, kind)
        else:
            kept.append((idx, kind))

    heel = [i for i, kind in kept if kind == 0]
    toe = [i for i, kind in kept if kind == 1]
    return grid[heel].tolist(), grid[toe].tolist()


def _find_peaks(signal: np.ndarray, prominence: float,
                distance: float) -> np.ndarray:
    """Indices of the peaks of a finite 1-D float signal, the same as
    ``scipy.signal.find_peaks(signal, prominence=prominence,
    distance=distance)[0]``.

    A peak is the midpoint (rounded down) of a run of equal samples whose
    neighbours on both sides are lower, so the first and last samples
    never count. Peaks are then visited from the highest value down, in
    reverse ``np.argsort`` order of their values as scipy does, and each
    one still kept drops every peak closer than ceil(distance) samples.
    Last, a peak is kept if its prominence is at least ``prominence``:
    its value minus the larger of the minima on each side, where each
    side runs up to the first strictly higher sample or the edge.
    """
    # Runs of equal samples start after each change of value. A run where
    # the signal turns is a local extremum, and a maximum if a rise enters
    # it. Between turning points (the extrema and the two ends) the signal
    # is monotone, so the prominence walks need only their values: a
    # side's minimum is a turning value, and the first higher sample lies
    # just past the first higher turning point.
    changes = np.flatnonzero(signal[1:] != signal[:-1])
    rises = signal[changes + 1] > signal[changes]
    turns = np.flatnonzero(rises[:-1] != rises[1:])
    turn_values = [float(signal[0]), *signal[changes[turns] + 1].tolist(),
                   float(signal[-1])]
    is_peak = rises[turns]
    peaks = (changes[turns[is_peak]] + 1 + changes[turns[is_peak] + 1]) // 2
    peak_turns = (np.flatnonzero(is_peak) + 1).tolist()

    # For a whole number of samples, gap < ceil(distance) iff
    # gap < distance.
    positions = peaks.tolist()
    count = len(positions)
    keep = [True] * count
    for j in np.argsort(signal[peaks])[::-1].tolist():
        if keep[j]:
            k = j - 1
            while k >= 0 and positions[j] - positions[k] < distance:
                keep[k] = False
                k -= 1
            k = j + 1
            while k < count and positions[k] - positions[j] < distance:
                keep[k] = False
                k += 1

    for j, turn in enumerate(peak_turns):
        if not keep[j]:
            continue
        height = turn_values[turn]
        left_min = right_min = height
        k = turn - 1
        while k >= 0 and turn_values[k] <= height:
            left_min = min(left_min, turn_values[k])
            k -= 1
        k = turn + 1
        while k < len(turn_values) and turn_values[k] <= height:
            right_min = min(right_min, turn_values[k])
            k += 1
        keep[j] = height - max(left_min, right_min) >= prominence
    return peaks[np.array(keep, dtype=bool)]


def phase_durations(heel_strikes, toe_offs) -> tuple[list[float], list[float]]:
    """(stance, swing): the stance (heel strike -> next toe-off) and swing
    (toe-off -> next heel strike) durations, in time order, from the event
    times of one side, such as ``detect_events`` returns.

    Each list of times must be finite, strictly increasing and within
    [0, 1]. The cycle is periodic: when the last event and the first
    differ in kind, the phase after the last event ends at the first
    event + 1, so one heel strike and one toe-off give one stance and one
    swing that sum to one cycle. Otherwise only consecutive events pair
    up. No stance (a lone event, or none) raises, and so do events that
    do not alternate or a zero duration (a heel strike at the time of a
    toe-off).
    """
    merged = []
    for kind, name, times in ((0, "heel_strikes", heel_strikes),
                              (1, "toe_offs", toe_offs)):
        times = np.asarray(times, dtype=float).ravel()
        if not np.all(np.isfinite(times)):
            raise ValidationError(f"{name} must be finite")
        if times.size and np.any(np.diff(times) <= 0.0):
            raise ValidationError(f"{name} must be strictly increasing")
        if times.size and (np.min(times) < 0.0 or np.max(times) > 1.0):
            raise ValidationError(f"{name} must lie within [0, 1]")
        merged += [(t, kind) for t in times.tolist()]
    merged.sort()
    offending = [i for i in range(1, len(merged))
                 if merged[i][1] == merged[i - 1][1]]
    if offending:
        raise ValidationError(
            f"events do not alternate at merged indices {offending}")
    if merged and merged[-1][1] != merged[0][1]:
        merged.append((merged[0][0] + 1.0, merged[0][1]))

    stance, swing = [], []
    for (t0, kind), (t1, _) in zip(merged, merged[1:]):
        (stance if kind == 0 else swing).append(t1 - t0)
    if not stance:
        raise ValidationError(
            "no heel-strike -> toe-off pair found; cannot compute phases")
    if min(stance + swing) <= 0.0:
        raise ValidationError("durations must be positive")
    return stance, swing
