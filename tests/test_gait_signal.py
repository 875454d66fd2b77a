from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from gaitmogp.dataio import (CSV_HEADER, AnomalySpec, SynthConfig,
                             generate_synthetic, load_corpus)
from gaitmogp.errors import ValidationError
from gaitmogp.gait_signal import (
    CHANNELS,
    _find_peaks,
    cycle_grid,
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

    def test_scalar_is_a_one_sample_signal(self):
        np.testing.assert_array_equal(impute_missing(5.0), [5.0])

    def test_lone_missing_sample_is_a_gap_too_long(self):
        with pytest.raises(ValidationError, match=r"column 0: gap run of 1 "
                           r"samples is >= 1/3 of the sequence \(1\)"):
            impute_missing(np.nan)

    @given(arrays(np.float64, (12,), elements=st.floats(-100, 100)))
    @settings(max_examples=40, deadline=None)
    def test_finite_input_passes_through(self, y):
        result = impute_missing(_trajectory(y))
        np.testing.assert_array_equal(result[:, 1], y)


class TestNormalizeAndAlign:
    def test_grid_is_endpoint_free(self):
        cycles = [np.tile(np.sin(2 * np.pi * np.arange(40) / 40.0), (6, 1))]
        normalized, _, _ = normalize_and_align(cycles, num_points=16)
        np.testing.assert_array_equal(cycle_grid(16), np.arange(16) / 16)
        assert normalized.shape == (1, 6, 16)

    def test_pooled_channels_are_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        cycles = [rng.normal(size=(6, 50)) + 3.0,
                  rng.normal(size=(6, 58)) - 1.0]
        normalized, _, _ = normalize_and_align(cycles, num_points=32)
        pooled = np.concatenate(normalized, axis=1)
        np.testing.assert_allclose(pooled.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(pooled.std(axis=1), 1.0, atol=1e-12)

    def test_resampling_tracks_cyclic_signal(self):
        length = 60
        t_in = np.arange(length) / length
        cycles = [np.stack([np.sin(2 * np.pi * (t_in + k / 6.0))
                            for k in range(6)])]
        normalized, _, _ = normalize_and_align(cycles, num_points=400)
        t_out = np.arange(400) / 400.0
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
        heel_strikes, toe_offs = detect_events(_template(t))
        assert len(heel_strikes) == 1
        assert len(toe_offs) == 1
        assert abs(heel_strikes[0] - TEMPLATE_MIN) <= 1 / 400 + 1e-12
        assert abs(toe_offs[0] - TEMPLATE_MAX) <= 1 / 400 + 1e-12

    def test_events_follow_phase_shift(self):
        t = np.arange(400) / 400.0
        shift = 0.37
        heel_strikes, toe_offs = detect_events(_template(t - shift))
        hs = (TEMPLATE_MIN + shift) % 1.0
        to = (TEMPLATE_MAX + shift) % 1.0
        assert abs(heel_strikes[0] - hs) <= 1 / 400 + 1e-12
        assert abs(toe_offs[0] - to) <= 1 / 400 + 1e-12

    def test_extremum_at_grid_boundary_is_found(self):
        t = np.arange(400) / 400.0
        heel_strikes, _ = detect_events(_template(t + TEMPLATE_MIN))
        assert len(heel_strikes) == 1
        boundary_distance = min(heel_strikes[0], 1.0 - heel_strikes[0])
        assert boundary_distance <= 1 / 400 + 1e-12

    def test_flat_signal_yields_no_events(self):
        assert detect_events(np.full(50, 1.0)) == ([], [])

    def test_distance_pruning_keeps_alternation(self):
        # Two maxima 0.14 apart: the shorter is pruned by the spacing
        # rule, leaving two adjacent minima; the deeper one is kept.
        grid = np.arange(200) / 200.0
        anchor_t = np.array([0.10, 0.30, 0.38, 0.44, 0.70, 0.90])
        anchor_v = np.array([-1.0, 0.8, -0.9, 1.0, -1.0, 0.9])
        y = np.interp(grid,
                      np.concatenate([anchor_t - 1, anchor_t, anchor_t + 1]),
                      np.tile(anchor_v, 3))
        heel_strikes, toe_offs = detect_events(y)
        np.testing.assert_allclose(heel_strikes, [0.10, 0.70])
        np.testing.assert_allclose(toe_offs, [0.44, 0.90])

    def test_default_grid_is_cycle_normalized(self):
        y = _template(np.arange(400) / 400.0)
        heel_strikes, _ = detect_events(y)
        assert abs(heel_strikes[0] - TEMPLATE_MIN) <= 1 / 400 + 1e-12
        assert heel_strikes[0] in cycle_grid(len(y))

    def test_input_validation(self):
        with pytest.raises(ValidationError, match="at least 5"):
            detect_events([1.0, 2.0])
        with pytest.raises(ValidationError, match="finite"):
            detect_events([1.0, np.nan, 2.0, 1.0, 0.0])

    def test_rejects_two_dimensional_signal(self):
        # Raveled, six stacked cycles would read as one 2400-sample cycle.
        y = np.tile(_template(np.arange(400) / 400.0), (6, 1))
        with pytest.raises(ValidationError, match=r"signal must be "
                           r"one-dimensional, got shape \(6, 400\)"):
            detect_events(y)

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_events_live_on_the_grid(self, seed):
        rng = np.random.default_rng(seed)
        t = np.arange(100) / 100.0
        coef = rng.normal(0.0, 1.0, 3)
        phase = rng.uniform(0.0, 2 * np.pi, 3)
        y = sum(c * np.sin(2 * np.pi * (k + 1) * t + p)
                for k, (c, p) in enumerate(zip(coef, phase)))
        heel_strikes, toe_offs = detect_events(y)
        for value in heel_strikes + toe_offs:
            assert type(value) is float and value in cycle_grid(len(y))


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
        # The last toe-off's swing ends at the first heel strike + 1.
        stance, swing = phase_durations([0.10, 0.60], [0.35, 0.90])
        np.testing.assert_allclose(stance, [0.25, 0.30])
        np.testing.assert_allclose(swing, [0.25, 0.20])

    @pytest.mark.parametrize("heel_strikes, toe_offs, stance", [
        ([0.5375], [0.925], 0.3875),
        ([0.9], [0.1], 0.2),
    ], ids=["heel-strike-first", "toe-off-first"])
    def test_one_event_pair_closes_the_cycle(self, heel_strikes, toe_offs,
                                             stance):
        got_stance, got_swing = phase_durations(heel_strikes, toe_offs)
        assert len(got_stance) == 1 and len(got_swing) == 1
        assert got_stance[0] == pytest.approx(stance, abs=1e-12)
        assert abs(got_stance[0] + got_swing[0] - 1.0) <= 1e-12

    def test_control_mean_cycles_give_one_stance_and_one_swing(self):
        # Criterion 9's corpus recipe, fewer subjects.
        anomaly = AnomalySpec(affected_side="left", phase=0.55,
                              amplitude_shift=0.15, duration_fraction=0.20)
        records = generate_synthetic(SynthConfig(
            seed=11, subjects_per_cohort=3, cycles_per_subject=3,
            noise_level=0.002, anomaly=anomaly))
        controls = [r for r in records if r.cohort == "control"]
        assert len(controls) == 3
        for record in controls:
            for channel in ("ankle_right", "ankle_left"):
                curve = record.cycles.mean(axis=0)[CHANNELS.index(channel)]
                stance, swing = phase_durations(
                    *detect_events(curve))
                assert len(stance) == 1 and len(swing) == 1, \
                    (record.subject_id, channel, stance, swing)
                assert abs(stance[0] + swing[0] - 1.0) <= 1e-12

    def test_leading_toe_off_contributes_swing_only(self):
        stance, swing = phase_durations([0.50], [0.20, 0.80])
        np.testing.assert_allclose(stance, [0.30])
        np.testing.assert_allclose(swing, [0.30])

    def test_non_alternating_events_are_rejected(self):
        with pytest.raises(ValidationError, match="alternate"):
            phase_durations([0.1, 0.2], [0.9])

    def test_missing_stance_pair_is_rejected(self):
        with pytest.raises(ValidationError, match="heel-strike"):
            phase_durations([0.9], [])
        with pytest.raises(ValidationError, match="heel-strike"):
            phase_durations([], [0.1])

    def test_event_ordering_is_validated(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            phase_durations([0.5, 0.2], [])
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            phase_durations([1.5], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_event_times_must_be_finite(self, bad):
        with pytest.raises(ValidationError, match="heel_strikes must be finite"):
            phase_durations([bad], [])
        with pytest.raises(ValidationError, match="toe_offs must be finite"):
            phase_durations([0.2], [0.5, bad])

    def test_durations_must_be_positive(self):
        # A heel strike at the time of a toe-off is a zero stance.
        with pytest.raises(ValidationError, match="positive"):
            phase_durations([0.2], [0.2])

    def test_rejects_two_dimensional_heel_strikes(self):
        # Raveled, these would pair up as the flat lists [0.1, 0.6] and
        # [0.35, 0.9]: two stances and two swings.
        with pytest.raises(ValidationError, match=re.escape(
                "heel_strikes must be one-dimensional, got shape (2, 1)")):
            phase_durations([[0.10], [0.60]], [0.35, 0.90])

    def test_rejects_two_dimensional_toe_offs(self):
        with pytest.raises(ValidationError, match=re.escape(
                "toe_offs must be one-dimensional, got shape (1, 2)")):
            phase_durations([0.10, 0.60], [[0.35, 0.90]])


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
