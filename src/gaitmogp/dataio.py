"""Corpus I/O, leave-one-subject-out splitting, and synthetic gait data.

The on-disk corpus format is long-form CSV (UTF-8, header row):

    subject_id,cohort,cycle,frame,joint,side,x,y,z

with joint in {hip,knee,ankle}, side in {right,left}, frame an integer
at 30 FPS and coordinates in meters. Empty x/y/z fields mark gaps
(missing samples); literal non-finite values are rejected. Canonical
files are sorted by (subject_id, cycle, frame) with the six joint/side
rows of a frame in CHANNELS order; ``save_corpus`` always writes the
canonical form, so save(load(f)) round-trips canonical files
byte-for-byte.

Each subject becomes one ``SubjectRecord`` of plain arrays and nothing
else: its raw cycles as (L, 6, 3) arrays keyed by corpus cycle id (NaN
marks a gap), and the preprocessed cycles as one (C, 6, T) array on the
T-point grid. Preprocessing reads only the y (height) axis, so a gap in
x or z is carried through and never rejected. A cycle that cannot be
preprocessed (too short to filter or to align, a gap run too long to
impute) is reported with its subject id and corpus cycle id.

Synthetic subjects are built from a shared two-harmonic template

    y(t) = offset + A_joint * (-cos(2*pi*t) + 0.3 * cos(4*pi*t + phi_joint))

with per-subject amplitude/phase jitter, bilateral symmetry via a
half-cycle left/right phase shift, optional additive Gaussian noise,
and a configurable single-side anomaly (level shift over a phase
window) for the disorder cohort. Control and disorder subjects with
the same within-cohort index share one random stream, so a
zero-amplitude anomaly makes the cohorts coincide bit-for-bit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .gait_signal import (CHANNELS, JOINTS, SIDES, check_cycle,
                          impute_missing, lowpass_filter, normalize_and_align,
                          DEFAULT_GRID_POINTS, DEFAULT_FILTER_CUTOFF_HZ)
from .serialize import atomic_write_text, format_float, read_text

CSV_HEADER = "subject_id,cohort,cycle,frame,joint,side,x,y,z"
COHORTS = ("control", "disorder")

# Synthetic template constants (meters); ankle moves most, hip least.
BASE_AMPLITUDES = {"hip": 0.010, "knee": 0.025, "ankle": 0.050}
BASE_PHASES = {"hip": math.pi / 6, "knee": math.pi / 3, "ankle": math.pi / 2}
VERTICAL_OFFSETS = {"hip": 0.45, "knee": 0.25, "ankle": 0.08}
FORWARD_OFFSETS = {"hip": 0.0, "knee": 0.06, "ankle": 0.02}
LATERAL_OFFSETS = {"right": 0.10, "left": -0.10}
BASE_CYCLE_FRAMES = 60
SECOND_HARMONIC_WEIGHT = 0.3


@dataclass
class SubjectRecord:
    """One subject: its normalized cycles plus the raw data they came from.

    ``raw_cycles`` maps each corpus cycle id, in increasing order, to an
    (L, 6, 3) array of (x, y, z) samples per frame and channel (CHANNELS
    order), NaN marking a gap. ``cycles[c]`` is the y axis of the c-th of
    them imputed, filtered, resampled onto ``grid`` (T points) and
    z-scored per channel with ``channel_means``/``channel_stds``, giving a
    (C, 6, T) array.
    """

    subject_id: str
    cohort: str
    grid: np.ndarray
    cycles: np.ndarray
    channel_means: np.ndarray
    channel_stds: np.ndarray
    raw_cycles: dict[int, np.ndarray]

    def __post_init__(self):
        if not self.subject_id:
            raise ValidationError("subject_id must be non-empty")
        if self.cohort not in COHORTS:
            raise ValidationError(
                f"cohort must be one of {COHORTS}, got {self.cohort!r}")
        if len(self.cycles) == 0:
            raise ValidationError(f"{self.subject_id}: needs >= 1 cycle")


@dataclass
class AnomalySpec:
    """Single-side level shift over a phase window of the gait cycle."""

    affected_side: str = "left"
    phase: float = 0.55
    amplitude_shift: float = 0.05
    duration_fraction: float = 0.25

    def validate(self):
        if self.affected_side not in SIDES:
            raise ValidationError(
                f"affected_side must be one of {SIDES}, "
                f"got {self.affected_side!r}")
        if not 0.0 <= self.phase < 1.0:
            raise ValidationError("phase must lie in [0, 1)")
        if not 0.0 < self.duration_fraction < 1.0:
            raise ValidationError("duration_fraction must lie in (0, 1)")
        if not math.isfinite(self.amplitude_shift):
            raise ValidationError("amplitude_shift must be finite")

    def window_mask(self, t: np.ndarray) -> np.ndarray:
        """True where cycle phase t (mod 1) falls inside the window."""
        u = np.mod(np.asarray(t, dtype=float) - self.phase, 1.0)
        return u < self.duration_fraction


@dataclass
class SynthConfig:
    """Deterministic recipe for a synthetic two-cohort corpus."""

    seed: int = 0
    subjects_per_cohort: int = 2
    cycles_per_subject: int = 3
    noise_level: float = 0.002
    anomaly: AnomalySpec = field(default_factory=AnomalySpec)

    def validate(self):
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if self.subjects_per_cohort < 1:
            raise ValidationError("subjects_per_cohort must be >= 1")
        if self.cycles_per_subject < 1:
            raise ValidationError("cycles_per_subject must be >= 1")
        if not (math.isfinite(self.noise_level) and self.noise_level >= 0.0):
            raise ValidationError("noise_level must be finite and >= 0")
        self.anomaly.validate()


def _build_record(subject_id: str, cohort: str,
                  raw_cycles: dict[int, np.ndarray],
                  filter_cutoff_hz: float | None,
                  num_points: int) -> SubjectRecord:
    """Run the preprocessing chain (impute -> filter -> normalize/align)
    on the y axis of each raw cycle; an error names the subject and the
    corpus cycle id."""
    heights = []
    for cycle_id, raw in raw_cycles.items():
        try:
            samples = impute_missing(raw[:, :, 1])
            if filter_cutoff_hz is not None:
                samples = lowpass_filter(samples, filter_cutoff_hz)
            heights.append(check_cycle(samples.T))
        except ValidationError as exc:
            raise ValidationError(
                f"subject {subject_id}, cycle {cycle_id}: {exc}") from None
    grid, cycles, means, stds = normalize_and_align(heights, num_points)
    return SubjectRecord(subject_id=subject_id, cohort=cohort, grid=grid,
                         cycles=cycles, channel_means=means,
                         channel_stds=stds, raw_cycles=raw_cycles)


def _parse_coordinate(text: str, line_no: int, column: str) -> float:
    if text == "":
        return math.nan
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(
            f"line {line_no}, column {column}: not a number: {text!r}")
    if not math.isfinite(value):
        raise ValidationError(
            f"line {line_no}, column {column}: non-finite value outside "
            f"marked gaps (use an empty field for gaps)")
    return value


def load_corpus(path, *, filter_cutoff_hz: float | None = DEFAULT_FILTER_CUTOFF_HZ,
                num_points: int = DEFAULT_GRID_POINTS) -> list[SubjectRecord]:
    """Load, validate and preprocess a corpus CSV.

    Preprocessing applies gap imputation, the zero-phase Butterworth
    filter of order ``gait_signal.FILTER_ORDER`` (skipped when
    ``filter_cutoff_hz`` is None) and per-subject
    normalization onto the ``num_points`` cycle grid, to the y axis only.
    Subject ids name output files, so they may not contain a path
    separator (``/`` or ``\\``) or NUL.
    """
    if not os.path.exists(path):
        raise ValidationError(f"corpus file not found: {path}")
    lines = read_text(path).splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValidationError(
            f"line 1: header must be exactly {CSV_HEADER!r}")

    # subject -> cohort; subject -> cycle -> frame -> channel -> (x, y, z)
    cohorts: dict[str, str] = {}
    data: dict[str, dict[int, dict[int, dict[str, tuple]]]] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        if line == "":
            continue
        fields = line.split(",")
        if len(fields) != 9:
            raise ValidationError(
                f"line {line_no}: expected 9 fields, got {len(fields)}")
        subject, cohort, cycle_s, frame_s, joint, side, xs, ys, zs = fields
        if not subject or any(c in subject for c in ",\r\n/\\\0"):
            raise ValidationError(
                f"line {line_no}, column subject_id: invalid id {subject!r}")
        if cohort not in COHORTS:
            raise ValidationError(
                f"line {line_no}, column cohort: must be one of {COHORTS}")
        if subject in cohorts and cohorts[subject] != cohort:
            raise ValidationError(
                f"line {line_no}, column cohort: subject {subject} already "
                f"labeled {cohorts[subject]}")
        try:
            cycle = int(cycle_s)
            frame = int(frame_s)
        except ValueError:
            raise ValidationError(
                f"line {line_no}: cycle and frame must be integers")
        if cycle < 0 or frame < 0:
            raise ValidationError(
                f"line {line_no}: cycle and frame must be >= 0")
        if joint not in JOINTS:
            raise ValidationError(
                f"line {line_no}, column joint: must be one of {JOINTS}")
        if side not in SIDES:
            raise ValidationError(
                f"line {line_no}, column side: must be one of {SIDES}")
        channel = f"{joint}_{side}"
        coords = (_parse_coordinate(xs, line_no, "x"),
                  _parse_coordinate(ys, line_no, "y"),
                  _parse_coordinate(zs, line_no, "z"))
        cohorts[subject] = cohort
        frames = data.setdefault(subject, {}).setdefault(cycle, {})
        slot = frames.setdefault(frame, {})
        if channel in slot:
            raise ValidationError(
                f"line {line_no}: duplicate row for subject {subject}, "
                f"cycle {cycle}, frame {frame}, {joint}/{side}")
        slot[channel] = coords

    if not data:
        raise ValidationError("no subjects in corpus")

    records = []
    for subject in sorted(data):
        raw_cycles = {}
        for cycle_id in sorted(data[subject]):
            frames = data[subject][cycle_id]
            length = len(frames)
            if sorted(frames) != list(range(length)):
                raise ValidationError(
                    f"subject {subject}, cycle {cycle_id}: frames must be "
                    f"consecutive from 0")
            raw = np.empty((length, len(CHANNELS), 3))
            for j, channel in enumerate(CHANNELS):
                for frame in range(length):
                    if channel not in frames[frame]:
                        raise ValidationError(
                            f"subject {subject}, cycle {cycle_id}, frame "
                            f"{frame}: missing {channel} row")
                    raw[frame, j] = frames[frame][channel]
            raw_cycles[cycle_id] = raw
        records.append(_build_record(
            subject, cohorts[subject], raw_cycles,
            filter_cutoff_hz=filter_cutoff_hz, num_points=num_points))
    return records


def save_corpus(records: list[SubjectRecord], path) -> None:
    """Write the canonical corpus CSV (atomic replace)."""
    ids = [r.subject_id for r in records]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate subject ids in corpus")
    lines = [CSV_HEADER]
    for record in sorted(records, key=lambda r: r.subject_id):
        for cycle_id, raw in sorted(record.raw_cycles.items()):
            for frame, row in enumerate(raw):
                for channel, sample in zip(CHANNELS, row):
                    joint, side = channel.rsplit("_", 1)
                    coords = ",".join(
                        "" if not math.isfinite(v) else format_float(float(v))
                        for v in sample)
                    lines.append(
                        f"{record.subject_id},{record.cohort},{cycle_id},"
                        f"{frame},{joint},{side},{coords}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def loso_splits(records: list[SubjectRecord]):
    """Leave-one-subject-out splits, ordered by held-out subject id."""
    ids = [r.subject_id for r in records]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate subject ids in corpus")
    if len(records) < 2:
        raise ValidationError("LOSO needs at least 2 subjects")
    ordered = sorted(records, key=lambda r: r.subject_id)
    return [([r for r in ordered if r.subject_id != held.subject_id], held)
            for held in ordered]


def _template_y(t: np.ndarray, amplitude: float, phase: float,
                offset: float) -> np.ndarray:
    return offset + amplitude * (
        -np.cos(2.0 * np.pi * t)
        + SECOND_HARMONIC_WEIGHT * np.cos(4.0 * np.pi * t + phase))


def _template_x(t: np.ndarray, amplitude: float, offset: float) -> np.ndarray:
    return offset + SECOND_HARMONIC_WEIGHT * amplitude * np.sin(2.0 * np.pi * t)


def generate_synthetic(config: SynthConfig, *,
                       num_points: int = DEFAULT_GRID_POINTS
                       ) -> list[SubjectRecord]:
    """Generate a deterministic two-cohort corpus from ``config``.

    The synthetic signals are band-limited by construction, so the
    returned records are not Butterworth filtered.
    """
    config.validate()
    width = max(2, len(str(config.subjects_per_cohort)))
    records = []
    for cohort in COHORTS:
        for index in range(config.subjects_per_cohort):
            prefix = "C" if cohort == "control" else "D"
            subject_id = f"{prefix}{index + 1:0{width}d}"
            # Paired streams: same index -> same draws in both cohorts.
            rng = np.random.default_rng([config.seed, index])
            amp_jitter = rng.standard_normal(3)
            phase_jitter = rng.standard_normal(3)
            length_steps = rng.integers(-3, 4, size=config.cycles_per_subject)

            amplitudes = {
                joint: BASE_AMPLITUDES[joint]
                * float(np.clip(1.0 + 0.1 * amp_jitter[j], 0.5, 1.5))
                for j, joint in enumerate(JOINTS)}
            phases = {joint: BASE_PHASES[joint] + 0.1 * float(phase_jitter[j])
                      for j, joint in enumerate(JOINTS)}
            lengths = BASE_CYCLE_FRAMES + 2 * length_steps

            raw_cycles = {}
            for cycle_id, length in enumerate(int(n) for n in lengths):
                t = np.arange(length, dtype=float) / length
                raw = np.empty((length, len(CHANNELS), 3))
                for j, channel in enumerate(CHANNELS):
                    joint, side = channel.rsplit("_", 1)
                    t_side = t if side == "right" else t - 0.5
                    samples = np.column_stack([
                        _template_x(t_side, amplitudes[joint],
                                    FORWARD_OFFSETS[joint]),
                        _template_y(t_side, amplitudes[joint], phases[joint],
                                    VERTICAL_OFFSETS[joint]),
                        np.full(length, LATERAL_OFFSETS[side]),
                    ])
                    samples = samples + rng.normal(
                        0.0, config.noise_level, samples.shape)
                    if (cohort == "disorder" and joint == "ankle"
                            and side == config.anomaly.affected_side):
                        mask = config.anomaly.window_mask(t)
                        samples[:, 1] += config.anomaly.amplitude_shift * mask
                    raw[:, j] = samples
                raw_cycles[cycle_id] = raw

            records.append(_build_record(
                subject_id, cohort, raw_cycles,
                filter_cutoff_hz=None, num_points=num_points))
    return records
