"""Prediction-quality metrics: MAE, R² and DTW.

DTW is the classical Sakoe & Chiba (1978) dynamic program with
absolute-difference local cost, no band, and boundary-anchored monotone
warping paths. It is evaluated by anti-diagonals at the width of the
shorter sequence, with the local costs of each block of diagonals taken
from an ``inf``-padded copy of the longer one, in O(n + m) memory plus a
fixed 128 KiB cost block; results are bit-identical to the row-by-row
recurrence. A report's aDTW is the mean DTW over its output channels.

``compute_report``'s pooled MAE and R² are ``mae`` and ``r_squared``
themselves, of the flattened (M, Q) arrays. It takes every row's MAE,
SS_res and SS_tot with one ``axis=1`` reduction each over the C-ordered
arrays. Each row is then summed by numpy's same pairwise sum as a 1-D
``np.mean``/``np.sum`` of that row, so the report equals, bit for bit,
what ``mae`` and ``r_squared`` give row by row.

All functions are pure and concurrent-safe.
"""

from __future__ import annotations

import itertools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ValidationError


def _as_sequence(name: str, values, min_length: int = 1) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim > 1:
        raise ValidationError(
            f"{name} must be one-dimensional, got shape {arr.shape}")
    arr = arr.ravel()
    if arr.size < min_length:
        raise ValidationError(f"{name} needs at least {min_length} values")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite")
    return arr


# Cells per block of DTW local costs: 128 KiB of float64, which keeps
# dtw's memory within a small fixed amount above O(n + m).
_DTW_BLOCK_CELLS = 1 << 14


def _as_pair(pred, truth, min_length: int = 1):
    """The checked pred and truth sequences, which must be equally long."""
    pred = _as_sequence("pred", pred, min_length)
    truth = _as_sequence("truth", truth, min_length)
    if pred.size != truth.size:
        raise ValidationError(
            f"length mismatch: pred has {pred.size}, truth has {truth.size}")
    return pred, truth


def mae(pred, truth) -> float:
    """Mean absolute error between two equal-length sequences."""
    pred, truth = _as_pair(pred, truth)
    return float(np.mean(np.abs(pred - truth)))


def r_squared(pred, truth) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot.

    SS_tot is centered on the truth mean; constant truth leaves R²
    undefined and raises.
    """
    pred, truth = _as_pair(pred, truth, min_length=2)
    ss_tot = float(np.sum((truth - np.mean(truth)) ** 2))
    if ss_tot == 0.0:
        raise ValidationError("truth is constant; R² is undefined")
    ss_res = float(np.sum((pred - truth) ** 2))
    return 1.0 - ss_res / ss_tot


def dtw(a, b) -> float:
    """Dynamic Time Warping distance with |a_i - b_j| local cost.

    A Python loop over the n + m - 1 anti-diagonals i + j = d, where each
    cell takes the same subtraction, minimum and addition as in the
    row-by-row recurrence, so the result is bit-identical to it. The
    sequences are first swapped so that ``a`` is the shorter one, which
    changes no bit: |x - y| == |y - x| and a minimum is exact.

    Every diagonal is computed at the full width n of ``a``. Diagonal d
    reads only diagonals d - 1 and d - 2, kept in three rotating buffers
    indexed by i + 1. ``b`` is reversed and padded with n - 1 ``inf`` on
    each side, so the local costs of diagonal d are one length-n window
    of it, ``inf`` where j = d - i falls outside the table. As the inputs
    are finite, every cell outside the table comes out ``inf`` and no
    index bounds are worked out. One subtraction and one absolute value
    form the costs of a block of about ``_DTW_BLOCK_CELLS`` cells; then
    each diagonal is two ``np.minimum`` and one ``np.add`` into fixed
    views of the buffers. Memory is O(n + m) for the buffers and the
    padded ``b``, plus the fixed cost block.
    """
    a = _as_sequence("a", a)
    b = _as_sequence("b", b)
    if a.size > b.size:
        a, b = b, a
    n, m = a.size, b.size
    padded = np.full(m + 2 * (n - 1), np.inf)
    padded[n - 1:n - 1 + m] = b[::-1]
    # Row d holds b[d - i] at column i.
    windows = sliding_window_view(padded, n)[::-1]
    buffers = np.full((3, n + 2), np.inf)
    buffers[0, 1] = abs(a[0] - b[0])
    # Diagonal d writes buffers[d % 3] from buffers[(d - 1) % 3] and
    # buffers[(d - 2) % 3]; the views start at d = 1.
    rotation = itertools.cycle([
        (buffers[r - 1, :n], buffers[r - 1, 1:n + 1], buffers[r - 2, :n],
         buffers[r, 1:n + 1]) for r in (1, 2, 0)])
    num_diagonals = n + m - 1
    rows = max(1, min(_DTW_BLOCK_CELLS // n, num_diagonals - 1))
    block = np.empty((rows, n))
    # Bound once: the loop below runs three ufuncs per diagonal.
    minimum, add = np.minimum, np.add
    for start in range(1, num_diagonals, rows):
        cost = block[:num_diagonals - start]
        np.subtract(a, windows[start:start + rows], out=cost)
        np.abs(cost, out=cost)
        # zip draws from ``cost`` first, so it takes no view set past it.
        for row, (left, up, diagonal, out) in zip(cost, rotation):
            minimum(left, up, out=out)
            minimum(out, diagonal, out=out)
            add(row, out, out=out)
    return float(buffers[(num_diagonals - 1) % 3, n])


def compute_report(pred_set, truth_set, output_names,
                   per_output_dtw) -> dict[str, float]:
    """MAE, R² and DTW of (M, Q) prediction/truth arrays, one name per
    row, given the (M,) per-row DTWs, which the caller computes
    (evaluate derives raw-unit DTWs from the normalized ones).

    The keys are ``mae``, ``r_squared`` and ``adtw``, then ``mae.<name>``,
    ``r_squared.<name>`` and ``dtw.<name>`` per row in row order. The
    aggregate MAE and R² are taken over the pooled (flattened) rows, and
    aDTW is the mean of the per-row DTWs.

    The pooled values are ``mae`` and ``r_squared`` of the raveled
    arrays, which check them with their own texts. Each row's MAE,
    SS_res and SS_tot come from one ``axis=1`` reduction over the
    C-ordered (M, Q) arrays. A reduction along the contiguous last axis
    hands each row whole to numpy's pairwise sum, the sum a 1-D reduction
    of that row takes, and the row means divide by the same count, so
    every value equals the per-row ``mae``/``r_squared`` bit for bit.
    """
    pred = np.atleast_2d(np.asarray(pred_set, dtype=float))
    truth = np.atleast_2d(np.asarray(truth_set, dtype=float))
    if pred.shape != truth.shape:
        raise ValidationError(
            f"shape mismatch: pred {pred.shape}, truth {truth.shape}")
    if pred.ndim != 2:
        raise ValidationError(
            f"pred and truth must be (M, Q) arrays, got shape {pred.shape}")
    if len(output_names) != pred.shape[0]:
        raise ValidationError("output_names must match the number of rows")
    per_dtw = np.asarray(per_output_dtw, dtype=float)
    if per_dtw.shape != (pred.shape[0],) or not np.all(per_dtw >= 0.0):
        raise ValidationError(
            "per_output_dtw must hold one value >= 0 per row")
    # C order keeps each row contiguous, whatever the caller's layout.
    pred = np.ascontiguousarray(pred)
    truth = np.ascontiguousarray(truth)
    report = {"mae": mae(pred.ravel(), truth.ravel())}
    if pred.shape[1] < 2:
        raise ValidationError("pred needs at least 2 values")
    report["r_squared"] = r_squared(pred.ravel(), truth.ravel())
    report["adtw"] = float(np.mean(per_dtw))

    error = pred - truth
    ss_tot = np.sum((truth - np.mean(truth, axis=1, keepdims=True)) ** 2,
                    axis=1)
    if np.any(ss_tot == 0.0):
        raise ValidationError("truth is constant; R² is undefined")
    # Float division, as in r_squared: inf / inf is nan with no warning.
    row_r_squared = [1.0 - res / tot for res, tot in zip(
        np.sum(error ** 2, axis=1).tolist(), ss_tot.tolist())]
    for name, m, r, d in zip(output_names,
                             np.mean(np.abs(error), axis=1).tolist(),
                             row_r_squared, per_dtw.tolist()):
        report[f"mae.{name}"] = m
        report[f"r_squared.{name}"] = r
        report[f"dtw.{name}"] = d
    return report
