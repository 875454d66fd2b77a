from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitmogp import dataio
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
    """One subject, one cycle; optionally rewrite its lines."""
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

    @given(seed=st.integers(0, 2**32 - 1),
           gap_fraction=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
           big_ids=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_writer_matches_the_row_by_row_writer(self, tmp_path_factory,
                                                  seed, gap_fraction,
                                                  big_ids):
        rng = np.random.default_rng(seed)
        records = generate_synthetic(_small_config(seed=seed % 1000,
                                                   noise_level=0.002))
        for record in records:
            if big_ids:
                record.raw_cycles = dict(zip(
                    [2**64 + 1, 3], record.raw_cycles.values()))
            for raw in record.raw_cycles.values():
                raw[rng.random(raw.shape) < gap_fraction] = np.nan
                # An inf is written as a gap too; signed zeros and
                # extreme magnitudes keep their repr.
                raw.flat[rng.integers(0, raw.size, size=4)] = [
                    np.inf, -0.0, 1e-300, -1.7976931348623157e308]
        path = tmp_path_factory.mktemp("writer") / "corpus.csv"
        save_corpus(records, path)
        assert path.read_text() == oracles.reference_corpus_text(records)

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


def _set_field(line: str, column: int, value: str) -> str:
    fields = line.split(",")
    fields[column] = value
    return ",".join(fields)


def _outcome(loader, path, **kwargs):
    """The records, or the message of the ValidationError raised."""
    try:
        return loader(path, **kwargs)
    except ValidationError as exc:
        return str(exc)


def _assert_same_outcome(got, expected):
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
        return
    assert [(r.subject_id, r.cohort) for r in got] == [
        (r.subject_id, r.cohort) for r in expected]
    for record, reference in zip(got, expected):
        assert list(record.raw_cycles) == list(reference.raw_cycles)
        for raw, raw_ref in zip(record.raw_cycles.values(),
                                reference.raw_cycles.values()):
            np.testing.assert_array_equal(raw, raw_ref)
        for name in ("grid", "cycles", "channel_means", "channel_stds"):
            np.testing.assert_array_equal(getattr(record, name),
                                          getattr(reference, name))


@pytest.fixture(params=[4, 512], ids=["chunk4", "chunk512"])
def chunk_lines(request, monkeypatch):
    """Run a test with rows read 4 at a time and with the default chunk."""
    monkeypatch.setattr(dataio, "_CHUNK_LINES", request.param)


@pytest.mark.usefixtures("chunk_lines")
class TestErrorPrecedence:
    """The first faulty line in file order is reported, and on it the
    leftmost faulty field, whatever chunk the lines fall in."""

    def test_earlier_of_two_bad_lines_is_reported(self, tmp_path):
        path = tmp_path / "corpus.csv"

        def mutate(lines):
            lines[4] = _set_field(lines[4], 8, "abc")    # line 5, last field
            lines[9] = _set_field(lines[9], 0, "a/b")    # line 10, first
            return lines

        _write_minimal_corpus(path, mutate=mutate)
        with pytest.raises(ValidationError,
                           match=r"^line 5, column z: not a number: 'abc'$"):
            load_corpus(path)

    def test_leftmost_of_two_bad_fields_is_reported(self, tmp_path):
        path = tmp_path / "corpus.csv"
        _write_minimal_corpus(path, mutate=lambda lines: lines[:6] + [
            _set_field(_set_field(lines[6], 4, "elbow"), 1, "patient")]
            + lines[7:])
        with pytest.raises(ValidationError, match=r"^line 7, column cohort"):
            load_corpus(path)
        _write_minimal_corpus(path, mutate=lambda lines: lines[:6] + [
            _set_field(_set_field(lines[6], 7, "abc"), 6, "nan")]
            + lines[7:])
        with pytest.raises(ValidationError,
                           match=r"^line 7, column x: non-finite"):
            load_corpus(path)

    def test_earlier_duplicate_beats_later_line_fault(self, tmp_path):
        path = tmp_path / "corpus.csv"

        def mutate(lines):
            return (lines[:9] + [lines[3]]                       # line 10
                    + [_set_field(lines[9], 5, "center")] + lines[10:])

        _write_minimal_corpus(path, mutate=mutate)
        with pytest.raises(ValidationError,
                           match=r"^line 10: duplicate row for subject C01, "
                                 r"cycle 0, frame 0, knee/right$"):
            load_corpus(path)

    def test_line_fault_beats_later_duplicate(self, tmp_path):
        path = tmp_path / "corpus.csv"
        _write_minimal_corpus(path, mutate=lambda lines: (
            lines[:9] + [_set_field(lines[9], 5, "center"), lines[3]]
            + lines[10:]))
        with pytest.raises(ValidationError, match=r"^line 10, column side"):
            load_corpus(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "corpus.csv"
        _write_minimal_corpus(path, mutate=lambda lines: (
            lines[:3] + ["", ""] + lines[3:5] + [""]
            + [_set_field(lines[5], 3, "x")] + lines[6:]))
        with pytest.raises(ValidationError,
                           match=r"^line 9: cycle and frame must be integers$"):
            load_corpus(path)

    def test_row_shuffled_file_loads_the_same_records(self, tmp_path):
        canonical = tmp_path / "corpus.csv"
        save_corpus(generate_synthetic(_small_config(noise_level=0.002)),
                    canonical)
        lines = canonical.read_text().splitlines()
        body = lines[1:]
        random.Random(0).shuffle(body)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join([lines[0], *body]) + "\n")
        _assert_same_outcome(load_corpus(shuffled), load_corpus(canonical))

    def test_cycle_ids_beyond_int64_load_exactly(self, tmp_path):
        big = [2**64, 2**64 + 1]
        records = generate_synthetic(_small_config())
        for record in records:
            record.raw_cycles = dict(zip(big, record.raw_cycles.values()))
        path = tmp_path / "corpus.csv"
        save_corpus(records, path)
        loaded = load_corpus(path)
        assert [list(r.raw_cycles) for r in loaded] == [big, big]
        assert all(type(k) is int for r in loaded for k in r.raw_cycles)
        _assert_same_outcome(loaded, oracles.reference_load_corpus(path))


_FIELD_VALUES = ["", "nan", "abc", "-1", " 3", "+3", "1_0", "1e400", "elbow",
                 "center", "a/b", "99999999999999999999"]


@st.composite
def _mutated_rows(draw, rows):
    """``rows`` after one to three row mutations."""
    rows = list(rows)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["shuffle", "blank", "duplicate",
                                     "delete", "relabel", "field"]))
        where = draw(st.integers(0, len(rows) - 1))
        if kind == "shuffle":
            random.Random(draw(st.integers(0, 2**32 - 1))).shuffle(rows)
        elif kind == "blank":
            rows.insert(where, "")
        elif kind == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), rows[where])
        elif kind == "delete":
            del rows[where]
        elif rows[where]:
            fields = rows[where].split(",")
            if kind == "relabel":
                fields[1] = {"control": "disorder"}.get(fields[1], "control")
            else:
                fields[draw(st.integers(0, len(fields) - 1))] = draw(
                    st.sampled_from(_FIELD_VALUES))
            rows[where] = ",".join(fields)
    return rows


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """A directory to write into, and the header and rows of a small
    canonical corpus."""
    root = tmp_path_factory.mktemp("mutated")
    save_corpus(generate_synthetic(_small_config(noise_level=0.002)),
                root / "canonical.csv")
    header, *rows = (root / "canonical.csv").read_text().splitlines()
    return root, header, rows


class TestAgainstReferenceReader:
    """The column-wise reader returns what the row-by-row reference
    returns, or raises the same message."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_mutated_corpus_matches_reference(self, small_corpus, data):
        root, header, rows = small_corpus
        path = root / "corpus.csv"
        path.write_text("\n".join([header, *data.draw(_mutated_rows(rows))])
                        + "\n")
        cutoff = data.draw(st.sampled_from([None, 6.0]))
        chunk = data.draw(st.sampled_from([3, 64, 512]))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataio, "_CHUNK_LINES", chunk)
            got = _outcome(load_corpus, path, filter_cutoff_hz=cutoff)
        _assert_same_outcome(got, _outcome(oracles.reference_load_corpus,
                                           path, filter_cutoff_hz=cutoff))


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
