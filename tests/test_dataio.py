from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from gaitmogp.dataio import (
    CSV_HEADER,
    AnomalySpec,
    SynthConfig,
    generate_synthetic,
    load_corpus,
    loso_splits,
    save_corpus,
)
from gaitmogp.errors import ValidationError
from gaitmogp.gait_signal import CHANNELS

import oracles


def _small_config(**overrides) -> SynthConfig:
    kwargs = dict(seed=3, subjects_per_cohort=1, cycles_per_subject=2,
                  noise_level=0.0,
                  anomaly=AnomalySpec(affected_side="left", phase=0.55,
                                      amplitude_shift=0.05,
                                      duration_fraction=0.25))
    kwargs.update(overrides)
    return SynthConfig(**kwargs)


def _write_minimal_corpus(path, mutate=None):
    """One subject, one 12-frame cycle; optionally rewrite one line."""
    config = SynthConfig(seed=1, subjects_per_cohort=1, cycles_per_subject=1,
                         noise_level=0.0)
    records = generate_synthetic(config)
    save_corpus(records, path)
    if mutate is not None:
        lines = path.read_text().splitlines()
        lines = mutate(lines)
        path.write_text("\n".join(lines) + "\n")


class TestRoundTrip:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        records = generate_synthetic(_small_config(subjects_per_cohort=2,
                                                   noise_level=0.002))
        first = tmp_path / "corpus.csv"
        save_corpus(records, first)
        reloaded = load_corpus(first, filter_cutoff_hz=None)
        second = tmp_path / "again.csv"
        save_corpus(reloaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_gap_fields_round_trip_as_empty(self, tmp_path):
        records = generate_synthetic(_small_config())
        ankle_right = CHANNELS.index("ankle_right")
        records[0].raw_cycles[0][5, ankle_right, 1] = np.nan
        path = tmp_path / "corpus.csv"
        save_corpus(records, path)
        gap_lines = [line for line in path.read_text().splitlines()
                     if line.split(",")[:6] == ["C01", "control", "0", "5",
                                                "ankle", "right"]]
        assert len(gap_lines) == 1
        assert gap_lines[0].split(",")[7] == ""
        reloaded = load_corpus(path, filter_cutoff_hz=None)
        raw = reloaded[0].raw_cycles[0][:, ankle_right]
        assert np.isnan(raw[5, 1])
        finite = np.isfinite(raw)
        assert np.sum(~finite) == 1

    def test_cycle_ids_are_not_renumbered(self, tmp_path):
        records = generate_synthetic(_small_config(noise_level=0.002))
        for record in records:
            record.raw_cycles = {0: record.raw_cycles[0],
                                 7: record.raw_cycles[1]}
        records[1].raw_cycles[7][3, CHANNELS.index("knee_left"), 0] = np.nan
        first = tmp_path / "corpus.csv"
        save_corpus(records, first)
        assert sum(line.split(",")[6] == "" for line in
                   first.read_text().splitlines()) == 1
        reloaded = load_corpus(first)
        assert [list(r.raw_cycles) for r in reloaded] == [[0, 7], [0, 7]]
        second = tmp_path / "again.csv"
        save_corpus(reloaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_generation_is_deterministic(self, tmp_path):
        config = _small_config(noise_level=0.002)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        save_corpus(generate_synthetic(config), first)
        save_corpus(generate_synthetic(config), second)
        assert first.read_bytes() == second.read_bytes()


class TestLoaderValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_corpus(tmp_path / "absent.csv")

    def test_header_must_match_exactly(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("subject,cohort\n")
        with pytest.raises(ValidationError, match="line 1: header"):
            load_corpus(path)

    def test_empty_corpus(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text(CSV_HEADER + "\n")
        with pytest.raises(ValidationError, match="no subjects"):
            load_corpus(path)

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "corpus.csv"
        _write_minimal_corpus(path, mutate=lambda lines: lines[:3]
                              + [lines[3] + ",extra"] + lines[4:])
        with pytest.raises(ValidationError, match="line 4: expected 9"):
            load_corpus(path)

    def test_bad_cohort_reports_line_and_column(self, tmp_path):
        path = tmp_path / "corpus.csv"
        _write_minimal_corpus(
            path, mutate=lambda lines: lines[:2]
            + [lines[2].replace("control", "patient")] + lines[3:])
        with pytest.raises(ValidationError,
                           match="line 3, column cohort"):
            load_corpus(path)

    def test_literal_nan_is_rejected(self, tmp_path):
        path = tmp_path / "corpus.csv"

        def mutate(lines):
            fields = lines[2].split(",")
            fields[7] = "nan"
            return lines[:2] + [",".join(fields)] + lines[3:]

        _write_minimal_corpus(path, mutate=mutate)
        with pytest.raises(ValidationError, match="non-finite value outside"):
            load_corpus(path)

    def test_non_numeric_coordinate_reports_column(self, tmp_path):
        path = tmp_path / "corpus.csv"

        def mutate(lines):
            fields = lines[2].split(",")
            fields[8] = "abc"
            return lines[:2] + [",".join(fields)] + lines[3:]

        _write_minimal_corpus(path, mutate=mutate)
        with pytest.raises(ValidationError, match="column z: not a number"):
            load_corpus(path)

    def test_duplicate_row_is_rejected(self, tmp_path):
        path = tmp_path / "corpus.csv"
        _write_minimal_corpus(path,
                              mutate=lambda lines: lines + [lines[2]])
        with pytest.raises(ValidationError, match="duplicate row"):
            load_corpus(path)

    def test_inconsistent_cohort_is_rejected(self, tmp_path):
        path = tmp_path / "corpus.csv"

        def mutate(lines):
            relabeled = lines[1].replace(",control,", ",disorder,", 1)
            return lines + [relabeled]

        _write_minimal_corpus(path, mutate=mutate)
        with pytest.raises(ValidationError, match="already labeled"):
            load_corpus(path)

    def test_non_consecutive_frames_are_rejected(self, tmp_path):
        path = tmp_path / "corpus.csv"

        def mutate(lines):
            # Drop all six channel rows of frame 0 of the first cycle.
            return [line for line in lines
                    if line == CSV_HEADER or line.split(",")[2:4] != ["0", "0"]]

        _write_minimal_corpus(path, mutate=mutate)
        with pytest.raises(ValidationError, match="consecutive from 0"):
            load_corpus(path)

    def test_missing_channel_is_rejected(self, tmp_path):
        path = tmp_path / "corpus.csv"

        def mutate(lines):
            keep = []
            dropped = False
            for line in lines:
                fields = line.split(",")
                if not dropped and line != CSV_HEADER \
                        and fields[2:6] == ["0", "3", "knee", "left"]:
                    dropped = True
                    continue
                keep.append(line)
            assert dropped
            return keep

        _write_minimal_corpus(path, mutate=mutate)
        with pytest.raises(ValidationError, match="missing knee_left row"):
            load_corpus(path)

    def test_negative_cycle_or_frame(self, tmp_path):
        path = tmp_path / "corpus.csv"

        def mutate(lines):
            fields = lines[2].split(",")
            fields[3] = "-1"
            return lines[:2] + [",".join(fields)] + lines[3:]

        _write_minimal_corpus(path, mutate=mutate)
        with pytest.raises(ValidationError, match=">= 0"):
            load_corpus(path)


class TestPreprocessingErrors:
    """A cycle that cannot be preprocessed is named by subject and id."""

    @staticmethod
    def _load_with_cycle(tmp_path, change):
        records = generate_synthetic(_small_config())
        records[0].raw_cycles[1] = change(records[0].raw_cycles[1])
        path = tmp_path / "corpus.csv"
        save_corpus(records, path)
        return load_corpus(path)

    def test_short_cycle_names_subject_and_cycle(self, tmp_path):
        with pytest.raises(ValidationError, match=r"^subject C01, cycle 1: "
                           r"signal too short to filter: 12 < 16 samples"):
            self._load_with_cycle(tmp_path, lambda raw: raw[:12])

    def test_long_gap_names_subject_and_cycle(self, tmp_path):
        def punch(raw):
            raw[10:40, CHANNELS.index("ankle_right"), 1] = np.nan
            return raw

        with pytest.raises(ValidationError, match=r"^subject C01, cycle 1: "
                           r"ankle_right: gap run of 30 samples .* "
                           r"exclude this cycle"):
            self._load_with_cycle(tmp_path, punch)


class TestPreprocessingChain:
    def test_matches_per_channel_reference(self, tmp_path):
        records = generate_synthetic(_small_config(noise_level=0.002,
                                                   cycles_per_subject=3))
        raw = records[1].raw_cycles
        raw[0][20:24, CHANNELS.index("hip_left"), 1] = np.nan
        raw[2][:3, CHANNELS.index("ankle_left"), 1] = np.nan
        raw[2][-2:, CHANNELS.index("knee_right"), :] = np.nan
        path = tmp_path / "corpus.csv"
        save_corpus(records, path)
        loaded = load_corpus(path)
        for record, source in zip(loaded, records):
            cycles, means, stds = oracles.preprocess_subject(
                list(source.raw_cycles.values()), cutoff_hz=6.0, order=4,
                frame_rate=30.0, num_points=400)
            np.testing.assert_array_equal(record.grid,
                                          np.arange(400) / 400.0)
            np.testing.assert_array_equal(record.cycles, cycles)
            np.testing.assert_array_equal(record.channel_means, means)
            np.testing.assert_array_equal(record.channel_stds, stds)


class TestSyntheticGeometry:
    def test_left_channel_is_half_cycle_shift_of_right(self):
        records = generate_synthetic(_small_config())
        control = next(r for r in records if r.cohort == "control")
        cycle = control.cycles[0]
        half = control.grid.shape[0] // 2
        for joint in ("hip", "knee", "ankle"):
            right = cycle[CHANNELS.index(f"{joint}_right")]
            left = cycle[CHANNELS.index(f"{joint}_left")]
            np.testing.assert_allclose(left, np.roll(right, half), atol=1e-9)

    def test_zero_amplitude_anomaly_makes_cohorts_identical(self):
        config = _small_config(
            noise_level=0.002,
            anomaly=AnomalySpec(amplitude_shift=0.0))
        records = generate_synthetic(config)
        control = next(r for r in records if r.cohort == "control")
        disorder = next(r for r in records if r.cohort == "disorder")
        for c_cycle, d_cycle in zip(control.cycles, disorder.cycles):
            np.testing.assert_array_equal(c_cycle, d_cycle)

    def test_anomaly_shifts_only_the_affected_window(self):
        base = generate_synthetic(_small_config())
        shifted = generate_synthetic(_small_config(
            anomaly=AnomalySpec(affected_side="left", phase=0.55,
                                amplitude_shift=0.2,
                                duration_fraction=0.25)))
        raw_base = base[1].raw_cycles[0]
        raw_shift = shifted[1].raw_cycles[0]
        assert base[1].cohort == "disorder"
        length = raw_base.shape[0]
        t = np.arange(length) / length
        mask = AnomalySpec(phase=0.55, duration_fraction=0.25).window_mask(t)
        for j, channel in enumerate(CHANNELS):
            delta = raw_shift[:, j] - raw_base[:, j]
            if channel == "ankle_left":
                np.testing.assert_allclose(
                    delta[mask, 1], 0.2 - 0.05, atol=1e-12)
                np.testing.assert_allclose(delta[~mask, 1], 0.0, atol=1e-12)
            else:
                np.testing.assert_allclose(delta, 0.0, atol=1e-12)

    def test_window_mask_wraps_around_cycle_end(self):
        spec = AnomalySpec(phase=0.9, duration_fraction=0.2)
        t = np.array([0.85, 0.95, 0.05, 0.15])
        np.testing.assert_array_equal(spec.window_mask(t),
                                      [False, True, True, False])

    def test_subject_ids(self):
        records = generate_synthetic(_small_config(subjects_per_cohort=3))
        ids = [r.subject_id for r in records]
        assert ids == ["C01", "C02", "C03", "D01", "D02", "D03"]

    def test_validation_of_config(self):
        with pytest.raises(ValidationError, match="subjects_per_cohort"):
            generate_synthetic(_small_config(subjects_per_cohort=0))
        with pytest.raises(ValidationError, match="affected_side"):
            AnomalySpec(affected_side="both").validate()
        with pytest.raises(ValidationError, match="duration_fraction"):
            AnomalySpec(duration_fraction=1.0).validate()
        with pytest.raises(ValidationError, match=r"phase must lie"):
            AnomalySpec(phase=1.0).validate()

    def test_negative_seed_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            generate_synthetic(_small_config(seed=-1))


class TestLosoSplits:
    def test_each_subject_held_out_once(self):
        records = generate_synthetic(_small_config(subjects_per_cohort=3))
        splits = loso_splits(records)
        held_ids = [held.subject_id for _, held in splits]
        assert held_ids == sorted(r.subject_id for r in records)
        for train, held in splits:
            train_ids = {r.subject_id for r in train}
            assert held.subject_id not in train_ids
            assert len(train) == len(records) - 1

    def test_requires_two_subjects(self):
        records = generate_synthetic(_small_config())
        with pytest.raises(ValidationError, match="at least 2"):
            loso_splits(records[:1])

    def test_duplicate_ids_rejected(self):
        records = generate_synthetic(_small_config())
        with pytest.raises(ValidationError, match="duplicate"):
            loso_splits([records[0], records[0]])


class TestRecordValidation:
    def test_cohort_label_is_checked(self):
        records = generate_synthetic(_small_config())
        with pytest.raises(ValidationError, match="cohort"):
            replace(records[0], subject_id="X", cohort="unknown")

    def test_needs_at_least_one_cycle(self):
        records = generate_synthetic(_small_config())
        with pytest.raises(ValidationError, match="cycle"):
            replace(records[0], subject_id="X", cohort="control",
                    cycles=records[0].cycles[:0])
