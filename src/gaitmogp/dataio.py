"""Corpus I/O, leave-one-subject-out splitting, and synthetic gait data.

The on-disk corpus format is long-form CSV (UTF-8, header row):

    subject_id,cohort,cycle,frame,joint,side,x,y,z

with joint in {hip,knee,ankle}, side in {right,left}, frame an integer
at 30 FPS and coordinates in meters. Empty x/y/z fields mark gaps
(missing samples); literal non-finite values are rejected. Rows may come
in any order and blank lines are skipped. Canonical files are sorted by
(subject_id, cycle, frame) with the six joint/side rows of a frame in
CHANNELS order; ``save_corpus`` always writes the canonical form, so
save(load(f)) round-trips canonical files byte-for-byte.

``load_corpus`` reads the rows in chunks of ``_CHUNK_LINES`` lines,
splitting a chunk's lines in one call and transposing them into its nine
columns. The coordinates of a column are converted by one ``map(float)``
and cycles and frames by ``int`` on their distinct values; ids, cohorts,
joints and sides are checked on their distinct values too, and the rules
across rows (one cohort per subject, no duplicate rows) run with numpy on
integer codes. A faulty file raises one
error: the first faulty line in file order (numbered from the header,
blank lines counted), and on it the leftmost faulty field. A duplicate
row is faulty at its later line, so it wins over a fault on any line
after it. A file with no faulty line is then checked subject by subject
and cycle by cycle in sorted order (frames consecutive from 0, no
missing channel row, the cycle preprocessable), and each (L, 6, 3) raw
cycle is gathered from one (N, 3) array of all rows by their
``np.lexsort`` order on (subject, cycle, frame, channel).

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
from .gait_signal import (CHANNELS, JOINTS, SIDES, check_cycle, cycle_grid,
                          impute_missing, lowpass_filter, normalize_and_align,
                          DEFAULT_GRID_POINTS, DEFAULT_FILTER_CUTOFF_HZ)
from .serialize import atomic_write_text, read_text

CSV_HEADER = "subject_id,cohort,cycle,frame,joint,side,x,y,z"
COHORTS = ("control", "disorder")
# The joint and side fields of each channel's rows, in CHANNELS order.
_CHANNEL_FIELDS = tuple(",".join(channel.rsplit("_", 1)) for channel in CHANNELS)

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
    on the y axis of each raw cycle; an error names the subject and, for
    a per-cycle one, the corpus cycle id."""
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
    try:
        grid, cycles, means, stds = normalize_and_align(heights, num_points)
    except ValidationError as exc:
        raise ValidationError(f"subject {subject_id}: {exc}") from None
    return SubjectRecord(subject_id=subject_id, cohort=cohort, grid=grid,
                         cycles=cycles, channel_means=means,
                         channel_stds=stds, raw_cycles=raw_cycles)


# Lines parsed per batch; it bounds the token strings alive at once.
_CHUNK_LINES = 512
# A field holds no comma or line break; these are the rest of the
# characters a subject id (a file name) may not contain.
_BAD_ID_CHARS = "/\\\0"
# CHANNELS index of each (joint, side) code pair.
_CHANNEL_OF = np.array([[CHANNELS.index(f"{joint}_{side}") for side in SIDES]
                        for joint in JOINTS])


def _codes(tokens: tuple[str, ...], code_of: dict) -> np.ndarray:
    return np.fromiter(map(code_of.__getitem__, tokens), np.intp, len(tokens))


def _member_codes(tokens: tuple[str, ...], allowed: tuple) -> np.ndarray:
    """Index of each token in ``allowed``, -1 where it is not one."""
    return _codes(tokens, {t: allowed.index(t) if t in allowed else -1
                           for t in dict.fromkeys(tokens)})


def _integer_codes(tokens: tuple[str, ...], seen: dict[int, int]) -> np.ndarray:
    """Code of each token's int() value in ``seen`` (new values are added
    in first-seen order); -1 where int() rejects the token, -2 where the
    value is negative."""
    code_of = {}
    for token in dict.fromkeys(tokens):
        try:
            value = int(token)
        except ValueError:
            code_of[token] = -1
            continue
        code_of[token] = -2 if value < 0 else seen.setdefault(value, len(seen))
    return _codes(tokens, code_of)


def _coordinate_faults(tokens: tuple[str, ...], column: str,
                       out: np.ndarray):
    """Fill ``out`` with float() of the tokens, an empty token read as a
    NaN gap, up to the first token that is not a number; return that
    token's fault and the first non-finite value's, as (row, message)."""
    values = [t or "nan" for t in tokens] if "" in tokens else tokens
    try:
        out[:] = np.fromiter(map(float, values), float, len(values))
        stop, faults = len(values), []
    except ValueError:
        stop = 0
        for stop, token in enumerate(values):
            try:
                out[stop] = float(token)
            except ValueError:
                break
        faults = [(stop, f", column {column}: not a number: {tokens[stop]!r}")]
    for row in np.flatnonzero(~np.isfinite(out[:stop])):
        if tokens[row]:
            faults.append((int(row), f", column {column}: non-finite value "
                           f"outside marked gaps (use an empty field for "
                           f"gaps)"))
            break
    return faults


def _first(mask: np.ndarray, message: str) -> list:
    return [(int(np.argmax(mask)), message)] if mask.any() else []


def _read_chunk(lines: list[str], subjects: dict[str, int],
                cohort_of: list[int], cycles: dict[int, int],
                frames: dict[int, int]):
    """Parse nonblank corpus rows column by column.

    ``subjects``, ``cycles`` and ``frames`` map each value seen so far to
    its code and grow here; ``cohort_of`` holds the cohort index of each
    subject code's first row. Returns the (4, n) codes (subject, cycle,
    frame, channel) and (n, 3) coordinates of the rows before the first
    faulty row, and that row's first fault as (row, message after
    ``line N``), or None. Faults are collected in the order of the fields,
    so on one row the leftmost wins.
    """
    faults = []
    rows = list(map(str.split, lines, [","] * len(lines)))
    widths = list(map(len, rows))
    if widths.count(9) != len(rows):
        row = next(i for i, width in enumerate(widths) if width != 9)
        faults.append((row, f": expected 9 fields, got {widths[row]}"))
        del rows[row:]
    n = len(rows)
    if n == 0:
        return np.empty((4, 0), np.intp), np.empty((0, 3)), (
            faults[0] if faults else None)
    subject, cohort, cycle, frame, joint, side, x, y, z = zip(*rows)

    ids = dict.fromkeys(subject)
    bad = [s for s in ids if not s or any(c in s for c in _BAD_ID_CHARS)]
    if bad:
        row = min(map(subject.index, bad))
        faults.append(
            (row, f", column subject_id: invalid id {subject[row]!r}"))
    cohort_code = _member_codes(cohort, COHORTS)
    faults += _first(cohort_code < 0,
                     f", column cohort: must be one of {COHORTS}")
    for s in ids:
        if s not in subjects:
            subjects[s] = len(subjects)
            cohort_of.append(int(cohort_code[subject.index(s)]))
    subject_code = _codes(subject, subjects)
    first_cohort = np.array(cohort_of)[subject_code]
    relabeled = (cohort_code >= 0) & (first_cohort >= 0) & (
        cohort_code != first_cohort)
    if relabeled.any():
        row = int(np.argmax(relabeled))
        faults.append((row, f", column cohort: subject {subject[row]} already "
                       f"labeled {COHORTS[first_cohort[row]]}"))
    cycle_code = _integer_codes(cycle, cycles)
    frame_code = _integer_codes(frame, frames)
    faults += _first((cycle_code == -1) | (frame_code == -1),
                     ": cycle and frame must be integers")
    faults += _first((cycle_code == -2) | (frame_code == -2),
                     ": cycle and frame must be >= 0")
    joint_code = _member_codes(joint, JOINTS)
    faults += _first(joint_code < 0,
                     f", column joint: must be one of {JOINTS}")
    side_code = _member_codes(side, SIDES)
    faults += _first(side_code < 0, f", column side: must be one of {SIDES}")
    coords = np.empty((n, 3))
    for axis, (name, tokens) in enumerate(zip("xyz", (x, y, z))):
        faults += _coordinate_faults(tokens, name, coords[:, axis])

    fault = min(faults, key=lambda f: f[0]) if faults else None
    stop = n if fault is None else fault[0]
    channel = _CHANNEL_OF[joint_code[:stop], side_code[:stop]]
    codes = np.stack([subject_code[:stop], cycle_code[:stop],
                      frame_code[:stop], channel])
    return codes, coords[:stop], fault


def _ranks(seen: dict) -> tuple[list, np.ndarray]:
    """The values of a value -> code dict in sorted order, and the rank of
    each code's value."""
    ordered = sorted(seen.items())
    ranks = np.empty(len(ordered), np.intp)
    ranks[[code for _, code in ordered]] = np.arange(len(ordered))
    return [value for value, _ in ordered], ranks


def load_corpus(path, *, filter_cutoff_hz: float | None = DEFAULT_FILTER_CUTOFF_HZ,
                num_points: int = DEFAULT_GRID_POINTS) -> list[SubjectRecord]:
    """Load, validate and preprocess a corpus CSV.

    Preprocessing applies gap imputation, the zero-phase Butterworth
    filter of order ``gait_signal.FILTER_ORDER`` (skipped when
    ``filter_cutoff_hz`` is None) and per-subject
    normalization onto the ``num_points`` cycle grid, to the y axis only.
    Records come in subject-id order, whatever the order of the rows.
    Subject ids name output files, so they may not contain a path
    separator (``/`` or ``\\``) or NUL.
    """
    if not os.path.exists(path):
        raise ValidationError(f"corpus file not found: {path}")
    lines = read_text(path).splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValidationError(
            f"line 1: header must be exactly {CSV_HEADER!r}")

    subjects: dict[str, int] = {}
    cohort_of: list[int] = []
    cycles: dict[int, int] = {}
    frames: dict[int, int] = {}
    codes = [np.empty((4, 0), np.intp)]
    coords = [np.empty((0, 3))]
    line_nos = [np.empty(0, np.intp)]
    fault = None
    for start in range(1, len(lines), _CHUNK_LINES):
        chunk = lines[start:start + _CHUNK_LINES]
        # Let go of the lines taken, so that their memory is reused for
        # the next chunk's tokens.
        lines[start:start + _CHUNK_LINES] = [None] * len(chunk)
        numbers = np.arange(start + 1, start + 1 + len(chunk))
        if "" in chunk:
            numbers = numbers[np.fromiter(map(bool, chunk), bool, len(chunk))]
            chunk = list(filter(None, chunk))
        chunk_codes, chunk_coords, fault = _read_chunk(
            chunk, subjects, cohort_of, cycles, frames)
        codes.append(chunk_codes)
        coords.append(chunk_coords)
        line_nos.append(numbers)
        if fault is not None:
            break
    subject_code, cycle_code, frame_code, channel = np.concatenate(codes,
                                                                   axis=1)

    # Sort by (subject, cycle, frame, channel); the sort is stable, so a
    # repeated key's later rows follow its first in file order.
    subject_names, subject_rank = _ranks(subjects)
    cycle_ids, cycle_rank = _ranks(cycles)
    frame_values, frame_rank = _ranks(frames)
    ranked = np.stack([subject_rank[subject_code], cycle_rank[cycle_code],
                       frame_rank[frame_code], channel])
    order = np.lexsort(ranked[::-1])
    keys = ranked[:, order]
    repeated = np.all(keys[:, 1:] == keys[:, :-1], axis=0)
    if repeated.any():
        row = int(order[1:][repeated].min())
        s, c, f, j = ranked[:, row]
        joint, side = CHANNELS[j].rsplit("_", 1)
        raise ValidationError(
            f"line {np.concatenate(line_nos)[row]}: duplicate row for "
            f"subject {subject_names[s]}, cycle {cycle_ids[c]}, "
            f"frame {frame_values[f]}, {joint}/{side}")
    if fault is not None:
        raise ValidationError(f"line {numbers[fault[0]]}{fault[1]}")
    if not order.size:
        raise ValidationError("no subjects in corpus")

    # Each (subject, cycle) is a run of sorted rows; a complete one is
    # its frames x CHANNELS x (x, y, z) in order. Each cycle is gathered
    # into an array of its own, so a record does not keep the whole
    # corpus alive.
    subject_key, cycle_key, frame_key, channel_key = keys
    xyz = np.concatenate(coords)
    starts = np.flatnonzero(np.diff(subject_key) | np.diff(cycle_key)) + 1
    bounds = [0, *starts.tolist(), order.size]
    cohorts = {name: COHORTS[cohort_of[code]]
               for name, code in subjects.items()}
    records, raw_cycles = [], {}
    for a, b in zip(bounds[:-1], bounds[1:]):
        subject = subject_names[subject_key[a]]
        cycle_id = cycle_ids[cycle_key[a]]
        frame_index = np.concatenate(
            [[0], np.cumsum(np.diff(frame_key[a:b]) != 0)])
        length = int(frame_index[-1]) + 1
        if frame_values[frame_key[b - 1]] != length - 1:
            raise ValidationError(
                f"subject {subject}, cycle {cycle_id}: frames must be "
                f"consecutive from 0")
        if b - a != length * len(CHANNELS):
            present = np.zeros((len(CHANNELS), length), bool)
            present[channel_key[a:b], frame_index] = True
            j, missing = np.argwhere(~present)[0]
            raise ValidationError(
                f"subject {subject}, cycle {cycle_id}, frame {missing}: "
                f"missing {CHANNELS[j]} row")
        raw_cycles[cycle_id] = xyz[order[a:b]].reshape(
            length, len(CHANNELS), 3)
        if b == order.size or subject_key[b] != subject_key[a]:
            records.append(_build_record(
                subject, cohorts[subject], raw_cycles,
                filter_cutoff_hz=filter_cutoff_hz, num_points=num_points))
            raw_cycles = {}
    return records


def save_corpus(records: list[SubjectRecord], path) -> None:
    """Write the canonical corpus CSV (atomic replace).

    The coordinates are rendered by columns: one repr pass over the
    ``tolist()`` of all of them, a non-finite one as an empty field."""
    ids = [r.subject_id for r in records]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate subject ids in corpus")
    heads, coordinates = [], []
    for record in sorted(records, key=lambda r: r.subject_id):
        for cycle_id, raw in sorted(record.raw_cycles.items()):
            prefix = f"{record.subject_id},{record.cohort},{cycle_id},"
            heads.extend(f"{prefix}{frame},{channel}"
                         for frame in range(raw.shape[0])
                         for channel in _CHANNEL_FIELDS)
            coordinates.append(raw.reshape(-1))
    values = np.concatenate(coordinates or [np.empty(0)])
    text = list(map(repr, values.tolist()))
    for index in np.flatnonzero(~np.isfinite(values)).tolist():
        text[index] = ""
    lines = [CSV_HEADER]
    lines.extend(map(",".join, zip(heads, text[0::3], text[1::3], text[2::3])))
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
                t = cycle_grid(length)
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
