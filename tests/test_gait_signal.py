from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from gaitmogp.dataio import CSV_HEADER, load_corpus
from gaitmogp.errors import ValidationError
from gaitmogp.gait_signal import (
    CHANNELS,
    GaitEvents,
    PhaseDurations,
    _find_peaks,
    detect_events,
    impute_missing,
    lowpass_filter,
    normalize_and_align,
    phase_durations,
)

# Stationary points of -cos(2 pi t) + 0.3 cos(4 pi t + pi/2), solved to
# 50 digits: one minimum (heel strike) and one maximum (toe off).
TEMPLATE_MIN = 0.066202651660851708
TEMPLATE_MAX = 0.433797348339148292


def _template(t: np.ndarray) -> np.ndarray:
    return -np.cos(2.0 * np.pi * t) \
        + 0.3 * np.cos(4.0 * np.pi * t + np.pi / 2.0)


def _trajectory(y: np.ndarray) -> np.ndarray:
    """An (L, 3) joint trajectory whose y column is ``y``."""
    return np.column_stack([np.zeros_like(y), y, np.ones_like(y)])


class TestLowpassFilter:
    def test_preserves_constant_signal(self):
        traj = _trajectory(np.full(80, 3.25))
        filtered = lowpass_filter(traj, cutoff_hz=6.0)
        np.testing.assert_allclose(filtered[:, 1], 3.25, atol=1e-9)

    def test_separates_pass_band_from_stop_band(self):
        t = np.arange(300) / 30.0
        slow = np.sin(2.0 * np.pi * 1.0 * t)
        fast = 0.5 * np.sin(2.0 * np.pi * 12.0 * t)
        filtered = lowpass_filter(_trajectory(slow + fast), cutoff_hz=6.0)
        interior = slice(30, -30)
        residual = filtered[interior, 1] - slow[interior]
        assert float(np.max(np.abs(residual))) < 0.02

    def test_rejects_cutoff_outside_nyquist(self):
        traj = _trajectory(np.zeros(40))
        with pytest.raises(ValidationError, match="cutoff"):
            lowpass_filter(traj, cutoff_hz=15.0)
        with pytest.raises(ValidationError, match="cutoff"):
            lowpass_filter(traj, cutoff_hz=0.0)

    def test_rejects_short_signals(self):
        traj = _trajectory(np.zeros(10))
        with pytest.raises(ValidationError, match="too short"):
            lowpass_filter(traj)
        with pytest.raises(ValidationError, match="too short"):
            lowpass_filter(5.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_samples(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            lowpass_filter(np.full((40, 6), bad))
        samples = np.zeros((40, 6))
        samples[17, 4] = bad
        with pytest.raises(ValidationError, match="finite"):
            lowpass_filter(samples)


class TestImputeMissing:
    def test_interior_gap_is_linearly_interpolated(self):
        y = np.arange(10, dtype=float)
        y[4:6] = np.nan
        result = impute_missing(_trajectory(y))
        np.testing.assert_allclose(result[:, 1], np.arange(10, dtype=float))

    def test_edge_gap_holds_nearest_value(self):
        y = np.array([np.nan, np.nan, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
        result = impute_missing(_trajectory(y))
        np.testing.assert_allclose(
            result[:, 1], [5.0, 5.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])

    def test_gap_of_a_third_or_more_is_rejected(self):
        y = np.arange(9, dtype=float)
        y[2:5] = np.nan
        with pytest.raises(ValidationError, match="exclude this cycle"):
            impute_missing(_trajectory(y))

    @given(arrays(np.float64, (12,), elements=st.floats(-100, 100)))
    @settings(max_examples=40, deadline=None)
    def test_finite_input_passes_through(self, y):
        result = impute_missing(_trajectory(y))
        np.testing.assert_array_equal(result[:, 1], y)


class TestNormalizeAndAlign:
    def test_grid_is_endpoint_free(self):
        cycles = [np.tile(np.sin(2 * np.pi * np.arange(40) / 40.0), (6, 1))]
        grid, normalized, _, _ = normalize_and_align(cycles, num_points=16)
        np.testing.assert_allclose(grid, np.arange(16) / 16.0)
        assert normalized.shape == (1, 6, 16)

    def test_pooled_channels_are_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        cycles = [rng.normal(size=(6, 50)) + 3.0,
                  rng.normal(size=(6, 58)) - 1.0]
        _, normalized, _, _ = normalize_and_align(cycles, num_points=32)
        pooled = np.concatenate(normalized, axis=1)
        np.testing.assert_allclose(pooled.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(pooled.std(axis=1), 1.0, atol=1e-12)

    def test_resampling_tracks_cyclic_signal(self):
        length = 60
        t_in = np.arange(length) / length
        cycles = [np.stack([np.sin(2 * np.pi * (t_in + k / 6.0))
                            for k in range(6)])]
        t_out, normalized, _, _ = normalize_and_align(cycles, num_points=400)
        for k in range(6):
            expected = np.sqrt(2.0) * np.sin(2 * np.pi * (t_out + k / 6.0))
            assert float(np.max(np.abs(normalized[0, k] - expected))) < 0.01

    def test_zero_variance_channel_is_named(self):
        cycles = [np.vstack([np.ones((1, 20)),
                             np.sin(np.arange(20))[None, :].repeat(5, axis=0)])]
        with pytest.raises(ValidationError, match="hip_right"):
            normalize_and_align(cycles)

    def test_short_cycles_are_rejected(self):
        with pytest.raises(ValidationError, match="< 10 samples"):
            normalize_and_align([np.zeros((6, 5))])

    def test_channel_count_is_enforced(self):
        with pytest.raises(ValidationError, match="expected 6 channels"):
            normalize_and_align([np.zeros((4, 20))])


class TestDetectEvents:
    def test_clean_template_extrema_within_one_grid_step(self):
        t = np.arange(400) / 400.0
        events = detect_events(_template(t), t)
        assert events.heel_strikes.shape == (1,)
        assert events.toe_offs.shape == (1,)
        assert abs(events.heel_strikes[0] - TEMPLATE_MIN) <= 1 / 400 + 1e-12
        assert abs(events.toe_offs[0] - TEMPLATE_MAX) <= 1 / 400 + 1e-12

    def test_events_follow_phase_shift(self):
        t = np.arange(400) / 400.0
        shift = 0.37
        events = detect_events(_template(t - shift), t)
        hs = (TEMPLATE_MIN + shift) % 1.0
        to = (TEMPLATE_MAX + shift) % 1.0
        assert abs(events.heel_strikes[0] - hs) <= 1 / 400 + 1e-12
        assert abs(events.toe_offs[0] - to) <= 1 / 400 + 1e-12

    def test_extremum_at_grid_boundary_is_found(self):
        t = np.arange(400) / 400.0
        events = detect_events(_template(t + TEMPLATE_MIN), t)
        assert events.heel_strikes.shape == (1,)
        boundary_distance = min(events.heel_strikes[0],
                                1.0 - events.heel_strikes[0])
        assert boundary_distance <= 1 / 400 + 1e-12

    def test_flat_signal_yields_no_events(self):
        events = detect_events(np.full(50, 1.0))
        assert events.heel_strikes.size == 0
        assert events.toe_offs.size == 0

    def test_distance_pruning_keeps_alternation(self):
        # Two maxima 0.14 apart: the shorter is pruned by the spacing
        # rule, leaving two adjacent minima; the deeper one is kept.
        grid = np.arange(200) / 200.0
        anchor_t = np.array([0.10, 0.30, 0.38, 0.44, 0.70, 0.90])
        anchor_v = np.array([-1.0, 0.8, -0.9, 1.0, -1.0, 0.9])
        y = np.interp(grid,
                      np.concatenate([anchor_t - 1, anchor_t, anchor_t + 1]),
                      np.tile(anchor_v, 3))
        events = detect_events(y, grid)
        np.testing.assert_allclose(events.heel_strikes, [0.10, 0.70])
        np.testing.assert_allclose(events.toe_offs, [0.44, 0.90])

    def test_default_grid_is_cycle_normalized(self):
        t = np.arange(400) / 400.0
        events = detect_events(_template(t))
        assert abs(events.heel_strikes[0] - TEMPLATE_MIN) <= 1 / 400 + 1e-12

    def test_input_validation(self):
        with pytest.raises(ValidationError, match="at least 5"):
            detect_events([1.0, 2.0])
        with pytest.raises(ValidationError, match="finite"):
            detect_events([1.0, np.nan, 2.0, 1.0, 0.0])
        with pytest.raises(ValidationError, match="grid length"):
            detect_events(np.zeros(10), np.zeros(4))

    @pytest.mark.parametrize("grid", [
        np.zeros(50),
        np.full(50, np.nan),
        np.concatenate([np.arange(49) / 50.0, [np.inf]]),
        np.repeat(np.arange(25) / 25.0, 2),
        np.arange(50)[::-1] / 50.0,
        np.arange(50, dtype=float),
    ], ids=["zeros", "nan", "inf", "repeated", "decreasing", "frames"])
    def test_rejects_grid_not_finite_and_increasing(self, grid):
        y = _template(np.arange(50) / 50.0)
        with pytest.raises(ValidationError,
                           match=r"grid must be .*strictly increasing"):
            detect_events(y, grid)

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_events_live_on_the_grid(self, seed):
        rng = np.random.default_rng(seed)
        t = np.arange(100) / 100.0
        coef = rng.normal(0.0, 1.0, 3)
        phase = rng.uniform(0.0, 2 * np.pi, 3)
        y = sum(c * np.sin(2 * np.pi * (k + 1) * t + p)
                for k, (c, p) in enumerate(zip(coef, phase)))
        events = detect_events(y, t)
        for value in np.concatenate([events.heel_strikes, events.toe_offs]):
            assert value in t


@st.composite
def _peak_signals(draw):
    """Length 3-200; small integers give plateaus and ties."""
    if draw(st.booleans()):
        elements = st.integers(-3, 3).map(float)
    else:
        elements = st.floats(-1e6, 1e6, allow_nan=False)
    return draw(arrays(np.float64, st.integers(3, 200), elements=elements))


class TestFindPeaks:
    # scipy casts ceil(distance) to a C integer, so from 2**63 on its
    # distance wraps; below that any distance >= 1 is fair.
    @given(_peak_signals(),
           st.one_of(st.floats(0.0, 8.0),
                     st.floats(min_value=0.0, allow_nan=False)),
           st.one_of(st.floats(1.0, 250.0),
                     st.floats(1.0, 2.0 ** 63, exclude_max=True)))
    @settings(max_examples=400, deadline=None)
    def test_matches_scipy_find_peaks(self, signal, prominence, distance):
        got = _find_peaks(signal, prominence, distance)
        expected = oracles.find_peaks(signal, prominence, distance)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


class TestPhaseDurations:
    def test_stance_and_swing_from_alternating_events(self):
        events = GaitEvents(heel_strikes=[0.10, 0.60],
                            toe_offs=[0.35, 0.90])
        phases = phase_durations(events)
        np.testing.assert_allclose(phases.stance, [0.25, 0.30])
        np.testing.assert_allclose(phases.swing, [0.25])

    def test_leading_toe_off_contributes_swing_only(self):
        events = GaitEvents(heel_strikes=[0.50], toe_offs=[0.20, 0.80])
        phases = phase_durations(events)
        np.testing.assert_allclose(phases.stance, [0.30])
        np.testing.assert_allclose(phases.swing, [0.30])

    def test_non_alternating_events_are_rejected(self):
        events = GaitEvents(heel_strikes=[0.1, 0.2], toe_offs=[0.9])
        with pytest.raises(ValidationError, match="alternate"):
            phase_durations(events)

    def test_missing_stance_pair_is_rejected(self):
        events = GaitEvents(heel_strikes=[0.9], toe_offs=[0.1])
        with pytest.raises(ValidationError, match="heel-strike"):
            phase_durations(events)

    def test_event_ordering_is_validated(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            GaitEvents(heel_strikes=[0.5, 0.2], toe_offs=[])
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            GaitEvents(heel_strikes=[1.5], toe_offs=[])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_event_times_must_be_finite(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            GaitEvents(heel_strikes=[bad], toe_offs=[])
        with pytest.raises(ValidationError, match="finite"):
            GaitEvents(heel_strikes=[0.2], toe_offs=[0.5, bad])

    def test_durations_must_be_positive(self):
        with pytest.raises(ValidationError, match="positive"):
            PhaseDurations(stance=[0.0], swing=[0.2])


class TestJointTrajectoryValidation:
    def test_unknown_labels(self, tmp_path):
        # Joint and side labels come from corpus rows, checked on load.
        path = tmp_path / "corpus.csv"
        row = "S1,control,0,0,{joint},{side},0.1,0.2,0.3"
        path.write_text(CSV_HEADER + "\n"
                        + row.format(joint="elbow", side="right") + "\n")
        with pytest.raises(ValidationError, match="joint"):
            load_corpus(path)
        path.write_text(CSV_HEADER + "\n"
                        + row.format(joint="hip", side="center") + "\n")
        with pytest.raises(ValidationError, match="side"):
            load_corpus(path)

    def test_channel_constant_order(self):
        assert CHANNELS == ("hip_right", "hip_left", "knee_right",
                            "knee_left", "ankle_right", "ankle_left")
