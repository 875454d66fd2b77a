"""Command-line front end for the gait-analysis pipeline.

Subcommands: ``synth``, ``preprocess``, ``fit``, ``predict``,
``segment``, ``evaluate``, ``export-plots``. Settings come from flat
key=value config files (``--config``) overridden by CLI flags; unknown
config keys are rejected. File paths are given as flags.

Each setting is declared once, as a ``RunConfig`` field: its config key
is the field name and its flag is ``--`` plus that name with dashes (a
few paths and ``--filter-cutoff`` are shorter). The parser is generated
from the table of the flags each subcommand takes, keeps every flag value
as text, and both flag and config text go through one conversion to the
field's type; numbers must be finite. Ranges and choices are checked by
``RunConfig.validate`` through the library configs (optimizer, EM and
synthetic corpus alike, whatever the subcommand), so a bad flag value
gets the same JSON error as a bad config value, before any work starts.

Every run is deterministic given (config, seed): outputs carry schema
versions, are written atomically, and contain no timestamps. Exit
status is 0 on success, 2 on validation errors, 3 on numeric failures;
errors also emit a machine-readable JSON document on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import dataio, gait_signal, hmm, metrics, mogp
from .errors import NumericError, ValidationError
from .gait_signal import CHANNELS, detect_events, phase_durations
from .serialize import (atomic_write_text, field_kinds, format_float,
                        parse_number, read_document, write_document)

SEGMENT_SCHEMA_ID = "segment-report-v1"
# Where segment takes an observation sequence's ankle curves from.
OBSERVATION_SOURCES = ("raw", "mogp-predicted")

_EVENTS_SCHEMA = {
    "type": "object",
    "required": ["heel_strikes", "toe_offs"],
    "additionalProperties": False,
    "properties": {
        "heel_strikes": {"type": "array", "items": {"type": "number"}},
        "toe_offs": {"type": "array", "items": {"type": "number"}},
    },
}

_PHASES_SCHEMA = {
    "type": "object",
    "required": ["stance", "swing"],
    "additionalProperties": False,
    "properties": {
        "stance": {"type": "array", "items": {"type": "number"}},
        "swing": {"type": "array", "items": {"type": "number"}},
    },
}

# JSON Schema (draft-07) of the segment report document.
SEGMENT_REPORT_JSONSCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["schema", "grid_points", "observation_source",
                 "segment_threshold", "subjects"],
    "additionalProperties": False,
    "properties": {
        "schema": {"const": SEGMENT_SCHEMA_ID},
        "grid_points": {"type": "integer", "minimum": 2},
        "observation_source": {"enum": list(OBSERVATION_SOURCES)},
        "segment_threshold": {"type": "number", "minimum": 0},
        "subjects": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["subject_id", "cohort", "states", "log_joint",
                             "events", "phases", "anomalous_segments",
                             "notes"],
                "additionalProperties": False,
                "properties": {
                    "subject_id": {"type": "string"},
                    "cohort": {"enum": list(dataio.COHORTS)},
                    "states": {
                        "type": "array",
                        "items": {"type": "integer", "minimum": 1,
                                  "maximum": hmm.NUM_STATES},
                    },
                    "log_joint": {"type": "number"},
                    "events": {
                        "type": "object",
                        "required": ["right", "left"],
                        "additionalProperties": False,
                        "properties": {"right": _EVENTS_SCHEMA,
                                       "left": _EVENTS_SCHEMA},
                    },
                    "phases": {
                        "type": "object",
                        "required": ["right", "left"],
                        "additionalProperties": False,
                        "properties": {"right": _PHASES_SCHEMA,
                                       "left": _PHASES_SCHEMA},
                    },
                    "anomalous_segments": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["start_time", "end_time",
                                         "state_label"],
                            "additionalProperties": False,
                            "properties": {
                                "start_time": {"type": "number"},
                                "end_time": {"type": "number"},
                                "state_label": {"enum": [
                                    f"s{s}" for s in hmm.ABNORMAL_STATES]},
                            },
                        },
                    },
                    "notes": {"type": "array", "items": {"type": "string"}},
                },
            },
        },
    },
}


@dataclass
class RunConfig:
    """Merged settings of one CLI run (defaults < config file < flags).

    A default that a library config or ``gait_signal`` declares is taken
    from there by reference; the rest belong to the CLI.
    """

    input_path: str | None = None
    output_path: str | None = None
    model_path: str | None = None
    # optimizer
    iterations: int = mogp.OptimizerConfig.iterations
    learning_rate: float = mogp.OptimizerConfig.learning_rate
    weight_decay: float = mogp.OptimizerConfig.weight_decay
    seed: int = mogp.OptimizerConfig.seed
    rank: int = mogp.OptimizerConfig.rank
    # preprocessing / data
    grid_points: int = gait_signal.DEFAULT_GRID_POINTS
    filter_cutoff_hz: float | None = gait_signal.DEFAULT_FILTER_CUTOFF_HZ
    points_per_channel: int = 50
    scope: str = "subject"
    # synthetic corpus
    subjects_per_cohort: int = dataio.SynthConfig.subjects_per_cohort
    cycles_per_subject: int = dataio.SynthConfig.cycles_per_subject
    noise_level: float = dataio.SynthConfig.noise_level
    anomaly_side: str = dataio.AnomalySpec.affected_side
    anomaly_phase: float = dataio.AnomalySpec.phase
    anomaly_shift: float = dataio.AnomalySpec.amplitude_shift
    anomaly_duration: float = dataio.AnomalySpec.duration_fraction
    # HMM
    em_iterations: int = hmm.BaumWelchConfig.max_iterations
    em_tol: float = hmm.BaumWelchConfig.tol
    observation_source: str = "mogp-predicted"
    segment_threshold: float = 1.5

    def validate(self) -> None:
        _optimizer_config(self).validate()
        # B = W W^T + diag(kappa) is 6 x 6, so a wider W adds no freedom.
        if self.rank > len(CHANNELS):
            raise ValidationError(f"rank must be <= {len(CHANNELS)}")
        if self.grid_points < 2:
            raise ValidationError("grid_points must be >= 2")
        if self.points_per_channel < 2:
            raise ValidationError("points_per_channel must be >= 2")
        if self.scope not in ("subject", "pooled"):
            raise ValidationError("scope must be 'subject' or 'pooled'")
        nyquist = gait_signal.FRAME_RATE / 2.0
        if (self.filter_cutoff_hz is not None
                and not 0.0 < self.filter_cutoff_hz < nyquist):
            raise ValidationError(
                f"filter_cutoff_hz must lie in (0, {nyquist}) Hz or be none")
        _em_config(self).validate()
        if self.observation_source not in OBSERVATION_SOURCES:
            raise ValidationError("observation_source must be one of "
                                  f"{OBSERVATION_SOURCES}")
        if self.segment_threshold < 0.0:
            raise ValidationError("segment_threshold must be >= 0")
        _synth_config(self).validate()


_KINDS = field_kinds(RunConfig)
# Paths are given as flags only, and a subcommand that takes one requires
# it; every other setting is also a config key.
_PATH_KEYS = ("input_path", "output_path", "model_path")
# A setting's flag is "--" plus its name with dashes, except for these.
_FLAG_ALIASES = {"input_path": "--input", "output_path": "--output",
                 "model_path": "--model",
                 "filter_cutoff_hz": "--filter-cutoff"}


def _flag(key: str) -> str:
    return _FLAG_ALIASES.get(key, "--" + key.replace("_", "-"))


def _config_value_from_text(key: str, text: str, what: str):
    """The value of setting ``key`` from its text in a flag or config file."""
    kind = _KINDS[key]
    if key == "filter_cutoff_hz" and text.lower() in ("none", "off"):
        return None
    if kind in (int, float):
        return parse_number(text, what, kind)
    return text


def _apply_config_file(cfg: RunConfig, path: str) -> None:
    for key, text in read_document(path).items():
        if key not in _KINDS or key in _PATH_KEYS:
            raise ValidationError(f"{path}: unknown config key {key!r}")
        setattr(cfg, key, _config_value_from_text(
            key, text, f"config key {key}"))


def _apply_flags(cfg: RunConfig, args: argparse.Namespace) -> None:
    for key, text in vars(args).items():
        if key in _KINDS and text is not None:
            setattr(cfg, key, _config_value_from_text(
                key, text, f"flag {_flag(key)}"))


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        _apply_config_file(cfg, args.config)
    _apply_flags(cfg, args)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Shared helpers.


def _load_corpus(cfg: RunConfig) -> list[dataio.SubjectRecord]:
    return dataio.load_corpus(
        cfg.input_path, filter_cutoff_hz=cfg.filter_cutoff_hz,
        num_points=cfg.grid_points)


# Every optimizer setting is also a RunConfig field.
_OPTIMIZER_KEYS = tuple(field_kinds(mogp.OptimizerConfig))


def _optimizer_config(cfg: RunConfig) -> mogp.OptimizerConfig:
    return mogp.OptimizerConfig(
        **{key: getattr(cfg, key) for key in _OPTIMIZER_KEYS})


def _em_config(cfg: RunConfig) -> hmm.BaumWelchConfig:
    return hmm.BaumWelchConfig(
        max_iterations=cfg.em_iterations, tol=cfg.em_tol)


def _synth_config(cfg: RunConfig) -> dataio.SynthConfig:
    return dataio.SynthConfig(
        seed=cfg.seed, subjects_per_cohort=cfg.subjects_per_cohort,
        cycles_per_subject=cfg.cycles_per_subject,
        noise_level=cfg.noise_level,
        anomaly=dataio.AnomalySpec(
            affected_side=cfg.anomaly_side, phase=cfg.anomaly_phase,
            amplitude_shift=cfg.anomaly_shift,
            duration_fraction=cfg.anomaly_duration))


def _fit_records(cfg: RunConfig, records, index: int) -> mogp.MoGPModel:
    """A MoGP fitted to a subsample of the frames of every cycle of
    ``records``.

    One draw of ``points_per_channel`` (cycle, ``cycle_grid(T)`` time)
    frames, from the seed stream ``(seed, index)``, serves all six
    channels, so each job of a run (subject, pooled fit or LOSO split)
    has its own reproducible draw. Every channel then has the same times,
    which puts the fit on the MoGP's Kronecker path. Frames of different
    cycles can share a grid time; the fit collapses them onto their
    distinct times and a within-group scatter term (Binois, Gramacy &
    Ludkovski 2018), so it costs O(U^3 + M^3 + M U^2) in the U distinct
    times of the draw.
    """
    rng = np.random.default_rng([cfg.seed, index])
    cycles = np.concatenate([record.cycles for record in records])
    times = np.tile(gait_signal.cycle_grid(cycles.shape[-1]), len(cycles))
    # (6, C * T): each channel's pooled values in the order of ``times``.
    values = cycles.transpose(1, 0, 2).reshape(len(CHANNELS), -1)
    if cfg.points_per_channel < times.shape[0]:
        idx = np.sort(rng.choice(times.shape[0], cfg.points_per_channel,
                                 replace=False))
        times, values = times[idx], values[:, idx]
    training = mogp.TrainingSet(
        times=np.tile(times, len(CHANNELS)),
        outputs=np.repeat(np.arange(len(CHANNELS)), times.shape[0]),
        values=values, num_outputs=len(CHANNELS))
    return mogp.fit(training, _optimizer_config(cfg))


def _write_table(path, schema: str, header, columns) -> None:
    """A CSV under a ``# schema=`` line, given one column per header
    name: a float column in repr form, any other column by str. Each
    column is rendered in one pass over its ``tolist()``."""
    cells = []
    for column in columns:
        column = np.asarray(column)
        render = repr if column.dtype.kind == "f" else str
        cells.append(map(render, column.tolist()))
    lines = [f"# schema={schema}", ",".join(header)]
    lines.extend(map(",".join, zip(*cells)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _predict_on_grid(cfg: RunConfig):
    """The --model file, its output names, the grid and the posterior on it."""
    model = mogp.load_model(cfg.model_path)
    names = (CHANNELS if model.num_outputs == len(CHANNELS)
             else tuple(f"output_{m}" for m in range(model.num_outputs)))
    grid = gait_signal.cycle_grid(cfg.grid_points)
    return model, names, grid, mogp.predict(model, grid)


def _write_json(path, document: dict) -> None:
    atomic_write_text(path, json.dumps(document, sort_keys=True,
                                       indent=2) + "\n")


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_synth(cfg: RunConfig) -> int:
    records = dataio.generate_synthetic(_synth_config(cfg),
                                        num_points=cfg.grid_points)
    dataio.save_corpus(records, cfg.output_path)
    print(f"wrote {len(records)} subjects "
          f"({cfg.cycles_per_subject} cycles each) to {cfg.output_path}")
    return 0


def cmd_preprocess(cfg: RunConfig) -> int:
    records = _load_corpus(cfg)
    # One row per (cycle, channel, position), in that order; cycle ids
    # go in as text, as they may lie beyond int64.
    cycles = [(record.subject_id, record.cohort, str(c))
              for record in records for c in record.raw_cycles]
    width = len(CHANNELS) * cfg.grid_points
    _write_table(cfg.output_path, "processed-v1", (
        "subject_id", "cohort", "cycle", "position", "channel", "value"), (
        *(np.repeat(column, width) for column in zip(*cycles)),
        np.tile(np.arange(cfg.grid_points), len(CHANNELS) * len(cycles)),
        np.tile(np.repeat(CHANNELS, cfg.grid_points), len(cycles)),
        np.concatenate([record.cycles.ravel() for record in records])))
    print(f"wrote {sum(len(r.cycles) for r in records)} normalized cycles "
          f"from {len(records)} subjects to {cfg.output_path}")
    return 0


def cmd_fit(cfg: RunConfig) -> int:
    out_dir = cfg.output_path
    records = _load_corpus(cfg)
    os.makedirs(out_dir, exist_ok=True)

    jobs = ([(r.subject_id, [r]) for r in records] if cfg.scope == "subject"
            else [("pooled", records)])
    for index, (name, group) in enumerate(jobs):
        model = _fit_records(cfg, group, index)
        mogp.save_model(model, os.path.join(out_dir, f"{name}.mogp"))
        _write_table(os.path.join(out_dir, f"{name}.fitlog.csv"),
                     "fitlog-v1", ("iteration", "lml"),
                     (range(len(model.lml_trace)), model.lml_trace))
        print(f"{name}: n={model.training.size} "
              f"lml={format_float(max(model.lml_trace))}")
    return 0


def cmd_predict(cfg: RunConfig) -> int:
    _, names, grid, pred = _predict_on_grid(cfg)
    header = ["time"] + [f"{n}_{s}" for n in names for s in ("mean", "std")]
    columns = [c for pair in zip(pred.mean, pred.std) for c in pair]
    _write_table(cfg.output_path, "predict-v1", header, (grid, *columns))
    print(f"wrote predictions on {cfg.grid_points} grid points "
          f"to {cfg.output_path}")
    return 0


def _bilateral_deviation(obs: np.ndarray) -> np.ndarray:
    """Per-step bilateral-symmetry deviation, in robust per-subject units.

    In symmetric gait the left signal is the right signal shifted by
    half a cycle, so the first harmonics of right(t) + left(t) cancel
    and the sum stays within a narrow band; a single-side level shift
    breaks the cancellation. The deviation is |sum - median(sum)|
    scaled by 1.4826 * MAD(sum).
    """
    total = obs[:, 0] + obs[:, 1]
    center = float(np.median(total))
    scale = 1.4826 * float(np.median(np.abs(total - center)))
    return np.abs(total - center) / max(scale, 1e-12)


def _apply_decision_rule(states: np.ndarray, deviation: np.ndarray,
                         threshold: float):
    """Reported segments under the default decision rule.

    A decoded-abnormal step is reported only when its bilateral
    deviation exceeds ``threshold``; reported segments are the maximal
    runs of surviving steps. Threshold 0 reports every decoded
    abnormal run unchanged.
    """
    if threshold > 0.0:
        # Suppressed steps are masked to normal state 1.
        states = np.where(deviation > threshold, states, 1)
    return hmm.anomalous_segments(states)


def _segment_subject(cfg: RunConfig, record: dataio.SubjectRecord,
                     index: int) -> dict:
    notes: list[str] = []

    if cfg.observation_source == "raw":
        curves = record.cycles.mean(axis=0)
    else:
        curves = mogp.predict(_fit_records(cfg, [record], index),
                              gait_signal.cycle_grid(cfg.grid_points)).mean
    right = curves[CHANNELS.index("ankle_right")]
    left = curves[CHANNELS.index("ankle_left")]

    obs = hmm.ObservationSequence(steps=np.column_stack([right, left]))
    init = hmm.init_emissions_from_data(hmm.default_model(), [obs])
    hmm_model = hmm.baum_welch_fit(init, [obs], _em_config(cfg))
    decoded = hmm.viterbi_decode(hmm_model, obs)
    segments = _apply_decision_rule(
        decoded.states, _bilateral_deviation(obs.steps),
        cfg.segment_threshold)

    events_doc, phases_doc = {}, {}
    for side, curve in (("right", right), ("left", left)):
        heel_strikes, toe_offs = detect_events(curve)
        events_doc[side] = {"heel_strikes": heel_strikes,
                            "toe_offs": toe_offs}
        try:
            stance, swing = phase_durations(heel_strikes, toe_offs)
        except ValidationError as exc:
            notes.append(f"{side}: phase durations unavailable ({exc})")
            stance, swing = [], []
        phases_doc[side] = {"stance": stance, "swing": swing}

    return {
        "subject_id": record.subject_id,
        "cohort": record.cohort,
        "states": decoded.states.tolist(),
        "log_joint": decoded.log_joint,
        "events": events_doc,
        "phases": phases_doc,
        "anomalous_segments": segments,
        "notes": notes,
    }


def cmd_segment(cfg: RunConfig) -> int:
    if cfg.grid_points < gait_signal.MIN_EVENT_SAMPLES:
        raise ValidationError(f"grid_points must be >= "
                              f"{gait_signal.MIN_EVENT_SAMPLES} for segment")
    records = _load_corpus(cfg)

    subjects = []
    for index, record in enumerate(records):
        payload = _segment_subject(cfg, record, index)
        subjects.append(payload)
        print(f"{record.subject_id} {record.cohort} "
              f"segments={len(payload['anomalous_segments'])}")

    document = {
        "schema": SEGMENT_SCHEMA_ID,
        "grid_points": cfg.grid_points,
        "observation_source": cfg.observation_source,
        "segment_threshold": cfg.segment_threshold,
        "subjects": subjects,
    }
    _write_json(cfg.output_path, document)
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    out_dir = cfg.output_path
    records = _load_corpus(cfg)
    os.makedirs(out_dir, exist_ok=True)
    splits = dataio.loso_splits(records)
    grid = gait_signal.cycle_grid(cfg.grid_points)

    per_split: list[dict[str, float]] = []
    for split_index, (train, held) in enumerate(splits):
        model = _fit_records(cfg, train, split_index)
        pred = mogp.predict(model, grid)
        truth = held.cycles.mean(axis=0)

        # The raw local cost |s a - s b| is s |a - b|, so each raw DTW is
        # the channel std times the normalized one.
        normalized_dtw = np.array([metrics.dtw(p, t)
                                   for p, t in zip(pred.mean, truth)])
        stds = held.channel_stds[:, None]
        means = held.channel_means[:, None]
        values = {}
        for unit, report in (
                ("normalized", metrics.compute_report(
                    pred.mean, truth, CHANNELS,
                    per_output_dtw=normalized_dtw)),
                ("raw", metrics.compute_report(
                    pred.mean * stds + means, truth * stds + means, CHANNELS,
                    per_output_dtw=held.channel_stds * normalized_dtw))):
            values.update({f"{unit}.{key}": value
                           for key, value in report.items()})
        per_split.append(values)
        write_document(
            os.path.join(out_dir, f"split_{held.subject_id}.metrics"),
            [("schema", "evaluate-v1"), ("subject_id", held.subject_id),
             *((key, format_float(v)) for key, v in values.items())])
        print(f"split {held.subject_id}: "
              f"normalized.mae={values['normalized.mae']:.6f} "
              f"raw.mae={values['raw.mae']:.6f}")

    keys = list(per_split[0])
    # Rows are keys and the splits run along the contiguous last axis, so
    # each key's mean is the pairwise sum a 1-D np.mean of its splits takes.
    table = np.array([[values[key] for values in per_split] for key in keys])
    aggregate = dict(zip(keys, np.mean(table, axis=1).tolist()))
    write_document(os.path.join(out_dir, "aggregate.metrics"), [
        ("schema", "evaluate-aggregate-v1"), ("splits", str(len(splits))),
        *((key, format_float(v)) for key, v in aggregate.items())])
    print(f"wrote {len(splits)} split reports and aggregate to {out_dir}")
    return 0


def cmd_export_plots(cfg: RunConfig) -> int:
    out_dir = cfg.output_path
    model, names, grid, pred = _predict_on_grid(cfg)
    for name, mu, std in zip(names, pred.mean, pred.std):
        _write_table(os.path.join(out_dir, f"band_{name}.csv"), "plotband-v1",
                     ("time", "mean", "lower", "upper"),
                     (grid, mu, mu - 2.0 * std, mu + 2.0 * std))

    matrix, normalized = mogp.export_coregionalization(model)
    for filename, payload in (("coregionalization.csv", matrix),
                              ("coregionalization_normalized.csv",
                               normalized)):
        _write_table(os.path.join(out_dir, filename), "coreg-v1",
                     ("output", *names), (names, *payload.T))
    print(f"wrote {len(names)} band files and coregionalization exports "
          f"to {out_dir}")
    return 0


_CORPUS_KEYS = ("input_path", "filter_cutoff_hz", "grid_points")

# Subcommand -> (handler, help, the settings it takes as flags besides
# --config and --seed).
_SUBCOMMANDS = {
    "synth": (cmd_synth, "generate a synthetic corpus", (
        "output_path", "subjects_per_cohort", "cycles_per_subject",
        "noise_level", "anomaly_side", "anomaly_phase", "anomaly_shift",
        "anomaly_duration", "grid_points")),
    "preprocess": (cmd_preprocess, "normalize a corpus onto the cycle grid",
                   (*_CORPUS_KEYS, "output_path")),
    "fit": (cmd_fit, "fit MoGP models", (
        *_CORPUS_KEYS, "output_path", "scope", "iterations", "learning_rate",
        "weight_decay", "rank", "points_per_channel")),
    "predict": (cmd_predict, "evaluate a fitted model on a grid",
                ("model_path", "output_path", "grid_points")),
    "segment": (cmd_segment, "decode gait phases and anomalous segments", (
        *_CORPUS_KEYS, "output_path", "observation_source", "iterations",
        "points_per_channel", "em_iterations", "segment_threshold")),
    "evaluate": (cmd_evaluate, "leave-one-subject-out evaluation", (
        *_CORPUS_KEYS, "output_path", "iterations", "points_per_channel")),
    "export-plots": (cmd_export_plots, "export prediction bands and B matrix",
                     ("model_path", "output_path", "grid_points")),
}

_FLAG_HELP = {
    "seed": "master RNG seed",
    "input_path": "corpus CSV path",
    "output_path": "output file, or directory for several files",
    "filter_cutoff_hz": "Butterworth cutoff in Hz, or 'none'",
    "segment_threshold": "bilateral-deviation threshold for reporting "
                         "decoded abnormal runs (0 reports all)",
}


def build_parser(subcommand: str | None = None) -> argparse.ArgumentParser:
    """Every flag's value is kept as text; build_config parses it.

    Every subcommand gets a subparser, so the top-level help and the
    error for an unknown subcommand stay the same; given ``subcommand``,
    only its subparser gets flags. None gives every subparser its flags.
    """
    parser = argparse.ArgumentParser(
        prog="gaitmogp",
        description="Multi-output GP gait modeling and HMM segmentation.")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, keys) in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        if subcommand not in (None, name):
            continue
        # Take "-1e-2" for a value, not an option, as argparse does from
        # Python 3.13 on; before, it took only "-5" and "-.01" for numbers.
        sub._negative_number_matcher = re.compile(r"-\.?\d")
        sub.add_argument("--config", help="flat key=value settings file")
        for key in ("seed", *keys):
            sub.add_argument(_flag(key), dest=key, help=_FLAG_HELP.get(key),
                             required=key in _PATH_KEYS)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse hands everything after a leading subcommand name to that
    # subcommand's subparser, so it is the only one that needs flags.
    invoked = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    args = build_parser(invoked).parse_args(argv)
    try:
        cfg = build_config(args)
        # Explicit checks report an overflow as the JSON error; numpy's
        # warnings about it would only add unparsed lines to stderr.
        with np.errstate(all="ignore"):
            return _SUBCOMMANDS[args.subcommand][0](cfg)
    except (ValidationError, OSError, MemoryError) as exc:
        # An unreadable input, an unwritable output path or a size too
        # large to allocate is bad input too.
        _emit_error("validation", 2, exc)
        return 2
    except NumericError as exc:
        _emit_error("numeric", 3, exc)
        return 3


def _emit_error(kind: str, code: int, exc: Exception) -> None:
    document = {"error": str(exc), "type": kind, "exit_code": code}
    print(json.dumps(document, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
