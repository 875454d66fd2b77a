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
field's type; ranges and choices are checked by ``RunConfig.validate``
and the library configs, so a bad flag value gets the same JSON error as
a bad config value.

Every run is deterministic given (config, seed): outputs carry schema
versions, are written atomically, and contain no timestamps. Exit
status is 0 on success, 2 on validation errors, 3 on numeric failures;
errors also emit a machine-readable JSON document on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import dataio, gait_signal, hmm, metrics, mogp
from .errors import NumericError, ValidationError
from .gait_signal import (CHANNELS, GaitEvents, detect_events,
                          phase_durations)
from .serialize import (atomic_write_text, field_kinds, format_float,
                        parse_number, read_document, write_document)

SEGMENT_REPORT_SCHEMA_ID = "segment-report-v1"

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
        "schema": {"const": SEGMENT_REPORT_SCHEMA_ID},
        "grid_points": {"type": "integer", "minimum": 2},
        "observation_source": {"enum": ["raw", "mogp-predicted"]},
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
                    "cohort": {"enum": ["control", "disorder"]},
                    "states": {
                        "type": "array",
                        "items": {"type": "integer",
                                  "minimum": 1, "maximum": 4},
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
                                "state_label": {"enum": ["s3", "s4"]},
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
    mogp_dir: str | None = None
    hmm_path: str | None = None
    # optimizer
    iterations: int = mogp.OptimizerConfig.iterations
    learning_rate: float = mogp.OptimizerConfig.learning_rate
    weight_decay: float = mogp.OptimizerConfig.weight_decay
    seed: int = mogp.OptimizerConfig.seed
    # kernel / initialization
    rank: int = mogp.OptimizerConfig.rank
    init_variance: float = mogp.OptimizerConfig.init_variance
    init_lengthscale: float = mogp.OptimizerConfig.init_lengthscale
    init_period: float = mogp.OptimizerConfig.init_period
    init_w_std: float = mogp.OptimizerConfig.init_w_std
    init_kappa: float = mogp.OptimizerConfig.init_kappa
    init_noise_variance: float = mogp.OptimizerConfig.init_noise_variance
    # preprocessing / data
    grid_points: int = gait_signal.DEFAULT_GRID_POINTS
    filter_cutoff_hz: float | None = gait_signal.DEFAULT_FILTER_CUTOFF_HZ
    filter_order: int = gait_signal.DEFAULT_FILTER_ORDER
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
    update_initial_probs: bool = hmm.BaumWelchConfig.update_initial_probs
    update_transitions: bool = hmm.BaumWelchConfig.update_transitions
    observation_source: str = "mogp-predicted"
    segment_threshold: float = 1.5
    # metric toggles
    metrics_normalized: bool = True
    metrics_raw: bool = True
    verbose: bool = False

    def validate(self) -> None:
        _optimizer_config(self).validate()
        if self.grid_points < 2:
            raise ValidationError("grid_points must be >= 2")
        if self.points_per_channel < 2:
            raise ValidationError("points_per_channel must be >= 2")
        if self.scope not in ("subject", "pooled"):
            raise ValidationError("scope must be 'subject' or 'pooled'")
        if self.filter_cutoff_hz is not None and not self.filter_cutoff_hz > 0:
            raise ValidationError("filter_cutoff_hz must be positive or none")
        if self.filter_order not in gait_signal.ALLOWED_FILTER_ORDERS:
            raise ValidationError("filter_order must be one of "
                                  f"{gait_signal.ALLOWED_FILTER_ORDERS}")
        _em_config(self).validate()
        if self.observation_source not in ("raw", "mogp-predicted"):
            raise ValidationError(
                "observation_source must be 'raw' or 'mogp-predicted'")
        if self.segment_threshold < 0.0:
            raise ValidationError("segment_threshold must be >= 0")
        if not (self.metrics_normalized or self.metrics_raw):
            raise ValidationError("at least one metric unit system required")
        # Synthetic settings validated by SynthConfig when used.


_KINDS = field_kinds(RunConfig)
# Paths are given as flags only; every other setting is also a config key.
_PATH_KEYS = ("input_path", "output_path", "model_path", "mogp_dir",
              "hmm_path")
_REQUIRED_KEYS = ("input_path", "output_path", "model_path")
# A setting's flag is "--" plus its name with dashes, except for these.
_FLAG_ALIASES = {"input_path": "--input", "output_path": "--output",
                 "model_path": "--model", "hmm_path": "--hmm",
                 "filter_cutoff_hz": "--filter-cutoff"}


def _flag(key: str) -> str:
    return _FLAG_ALIASES.get(key, "--" + key.replace("_", "-"))


def _config_value_from_text(key: str, text: str, what: str):
    """The value of setting ``key`` from its text in a flag or config file."""
    kind = _KINDS[key]
    if key == "filter_cutoff_hz" and text.lower() in ("none", "off"):
        return None
    if kind is bool:
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ValidationError(f"{what}: not a boolean: {text!r}")
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


def _output_names(num_outputs: int) -> tuple[str, ...]:
    if num_outputs == len(CHANNELS):
        return CHANNELS
    return tuple(f"output_{m}" for m in range(num_outputs))


def _require(value, flag: str):
    if value is None:
        raise ValidationError(f"missing required flag {flag}")
    return value


def _load_corpus(cfg: RunConfig) -> list[dataio.SubjectRecord]:
    return dataio.load_corpus(
        _require(cfg.input_path, "--input"),
        filter_cutoff_hz=cfg.filter_cutoff_hz,
        filter_order=cfg.filter_order,
        num_points=cfg.grid_points)


# The optimizer settings a run can set: the fields the two configs share.
_OPTIMIZER_KEYS = tuple(
    key for key in field_kinds(mogp.OptimizerConfig) if key in _KINDS)


def _optimizer_config(cfg: RunConfig) -> mogp.OptimizerConfig:
    return mogp.OptimizerConfig(
        **{key: getattr(cfg, key) for key in _OPTIMIZER_KEYS})


def _em_config(cfg: RunConfig) -> hmm.BaumWelchConfig:
    return hmm.BaumWelchConfig(
        max_iterations=cfg.em_iterations, tol=cfg.em_tol,
        update_initial_probs=cfg.update_initial_probs,
        update_transitions=cfg.update_transitions)


def _fit_records(cfg: RunConfig, records, index: int) -> mogp.MoGPModel:
    """A MoGP fitted to a subsample of every cycle of ``records``.

    Each channel keeps ``points_per_channel`` of its pooled points, drawn
    from the seed stream ``(seed, index)`` so that each job of a run
    (subject, pooled fit or LOSO split) has its own reproducible draw.
    """
    rng = np.random.default_rng([cfg.seed, index])
    cycles = [cycle for record in records for cycle in record.cycles]
    times, outputs, values = [], [], []
    for m in range(len(CHANNELS)):
        pool_t = np.concatenate([cycle.grid for cycle in cycles])
        pool_v = np.concatenate([cycle.channels[m] for cycle in cycles])
        if cfg.points_per_channel < pool_t.shape[0]:
            idx = np.sort(rng.choice(pool_t.shape[0], cfg.points_per_channel,
                                     replace=False))
            pool_t, pool_v = pool_t[idx], pool_v[idx]
        times.append(pool_t)
        outputs.append(np.full(pool_t.shape[0], m, dtype=int))
        values.append(pool_v)
    training = mogp.TrainingSet(times=np.concatenate(times),
                                outputs=np.concatenate(outputs),
                                values=np.concatenate(values),
                                num_outputs=len(CHANNELS))
    return mogp.fit(training, _optimizer_config(cfg))


def _write_fit_log(path, trace: list[float]) -> None:
    lines = ["# schema=fitlog-v1", "iteration,lml"]
    lines.extend(f"{i},{format_float(v)}" for i, v in enumerate(trace))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _write_json(path, document: dict) -> None:
    atomic_write_text(path, json.dumps(document, sort_keys=True,
                                       indent=2) + "\n")


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_synth(cfg: RunConfig) -> int:
    out = _require(cfg.output_path, "--output")
    synth = dataio.SynthConfig(
        seed=cfg.seed, subjects_per_cohort=cfg.subjects_per_cohort,
        cycles_per_subject=cfg.cycles_per_subject,
        noise_level=cfg.noise_level,
        anomaly=dataio.AnomalySpec(
            affected_side=cfg.anomaly_side, phase=cfg.anomaly_phase,
            amplitude_shift=cfg.anomaly_shift,
            duration_fraction=cfg.anomaly_duration))
    records = dataio.generate_synthetic(synth, num_points=cfg.grid_points)
    dataio.save_corpus(records, out)
    print(f"wrote {len(records)} subjects "
          f"({cfg.cycles_per_subject} cycles each) to {out}")
    return 0


def cmd_preprocess(cfg: RunConfig) -> int:
    out = _require(cfg.output_path, "--output")
    records = _load_corpus(cfg)
    lines = ["# schema=processed-v1",
             "subject_id,cohort,cycle,position,channel,value"]
    for record in records:
        for cycle in record.cycles:
            for m, name in enumerate(CHANNELS):
                for k in range(cycle.num_points):
                    lines.append(
                        f"{record.subject_id},{record.cohort},"
                        f"{cycle.cycle_index},{k},{name},"
                        f"{format_float(float(cycle.channels[m, k]))}")
    atomic_write_text(out, "\n".join(lines) + "\n")
    print(f"wrote {sum(len(r.cycles) for r in records)} normalized cycles "
          f"from {len(records)} subjects to {out}")
    return 0


def cmd_fit(cfg: RunConfig) -> int:
    out_dir = _require(cfg.output_path, "--output")
    records = _load_corpus(cfg)
    os.makedirs(out_dir, exist_ok=True)

    jobs = ([(r.subject_id, [r]) for r in records] if cfg.scope == "subject"
            else [("pooled", records)])
    for index, (name, group) in enumerate(jobs):
        model = _fit_records(cfg, group, index)
        mogp.save_model(model, os.path.join(out_dir, f"{name}.mogp"))
        _write_fit_log(os.path.join(out_dir, f"{name}.fitlog.csv"),
                       model.lml_trace)
        print(f"{name}: n={model.training.size} "
              f"lml={format_float(max(model.lml_trace))}")
    return 0


def cmd_predict(cfg: RunConfig) -> int:
    out = _require(cfg.output_path, "--output")
    model = mogp.load_model(_require(cfg.model_path, "--model"))
    grid = np.arange(cfg.grid_points, dtype=float) / cfg.grid_points
    pred = mogp.predict(model, grid)
    names = _output_names(model.num_outputs)
    header = "time," + ",".join(f"{n}_mean,{n}_std" for n in names)
    lines = ["# schema=predict-v1", header]
    for k in range(grid.shape[0]):
        cells = [format_float(float(grid[k]))]
        for m in range(len(names)):
            cells.append(format_float(float(pred.mean[m, k])))
            cells.append(format_float(float(pred.std[m, k])))
        lines.append(",".join(cells))
    atomic_write_text(out, "\n".join(lines) + "\n")
    print(f"wrote predictions on {cfg.grid_points} grid points to {out}")
    return 0


def _events_payload(events: GaitEvents) -> dict:
    return {"heel_strikes": [float(t) for t in events.heel_strikes],
            "toe_offs": [float(t) for t in events.toe_offs]}


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


def _apply_decision_rule(decoded: hmm.DecodedStates, grid: np.ndarray,
                         deviation: np.ndarray, threshold: float):
    """Reported segments under the default decision rule.

    A decoded-abnormal step is reported only when its bilateral
    deviation exceeds ``threshold``; reported segments are the maximal
    runs of surviving steps. Threshold 0 reports every decoded
    abnormal run unchanged.
    """
    if threshold == 0.0:
        return hmm.anomalous_segments(decoded, grid)
    keep = np.isin(decoded.states, hmm.ABNORMAL_STATES) \
        & (deviation > threshold)
    # Re-use the run extraction by masking suppressed steps to state 1.
    masked = np.where(keep, decoded.states, 1)
    gated = hmm.DecodedStates(states=masked, log_joint=decoded.log_joint)
    return hmm.anomalous_segments(gated, grid)


def _segment_subject(cfg: RunConfig, record: dataio.SubjectRecord,
                     index: int, shared_hmm: hmm.HmmModel | None) -> dict:
    grid = record.cycles[0].grid
    notes: list[str] = []

    if cfg.observation_source == "mogp-predicted":
        model = None
        if cfg.mogp_dir is not None:
            path = os.path.join(cfg.mogp_dir, f"{record.subject_id}.mogp")
            if not os.path.exists(path):
                raise ValidationError(f"missing model file: {path}")
            model = mogp.load_model(path)
        else:
            model = _fit_records(cfg, [record], index)
        pred = mogp.predict(model, grid)
        right = pred.mean[CHANNELS.index("ankle_right")]
        left = pred.mean[CHANNELS.index("ankle_left")]
    else:
        stacked = np.mean([c.channels for c in record.cycles], axis=0)
        right = stacked[CHANNELS.index("ankle_right")]
        left = stacked[CHANNELS.index("ankle_left")]

    obs = hmm.ObservationSequence(
        steps=np.column_stack([right, left]),
        source=cfg.observation_source)
    if shared_hmm is not None:
        hmm_model = shared_hmm
    else:
        init = hmm.init_emissions_from_data(hmm.default_model(), [obs])
        hmm_model = hmm.baum_welch_fit(init, [obs], _em_config(cfg))
    decoded = hmm.viterbi_decode(hmm_model, obs)
    segments = _apply_decision_rule(
        decoded, grid, _bilateral_deviation(obs.steps),
        cfg.segment_threshold)

    events_doc, phases_doc = {}, {}
    for side, curve in (("right", right), ("left", left)):
        events = detect_events(curve, grid, side=side)
        events_doc[side] = _events_payload(events)
        try:
            phases = phase_durations(events)
            phases_doc[side] = {
                "stance": [float(d) for d in phases.stance],
                "swing": [float(d) for d in phases.swing]}
        except ValidationError as exc:
            notes.append(f"{side}: phase durations unavailable ({exc})")
            phases_doc[side] = {"stance": [], "swing": []}

    return {
        "subject_id": record.subject_id,
        "cohort": record.cohort,
        "states": [int(s) for s in decoded.states],
        "log_joint": float(decoded.log_joint),
        "events": events_doc,
        "phases": phases_doc,
        "anomalous_segments": [
            {"start_time": float(seg.start_time),
             "end_time": float(seg.end_time),
             "state_label": seg.state_label}
            for seg in segments],
        "notes": notes,
    }


def cmd_segment(cfg: RunConfig) -> int:
    out = _require(cfg.output_path, "--output")
    records = _load_corpus(cfg)
    shared_hmm = None
    if cfg.hmm_path is not None:
        shared_hmm = hmm.load_model(cfg.hmm_path)

    subjects = []
    for index, record in enumerate(
            sorted(records, key=lambda r: r.subject_id)):
        payload = _segment_subject(cfg, record, index, shared_hmm)
        subjects.append(payload)
        print(f"{record.subject_id} {record.cohort} "
              f"segments={len(payload['anomalous_segments'])}")

    document = {
        "schema": SEGMENT_REPORT_SCHEMA_ID,
        "grid_points": cfg.grid_points,
        "observation_source": cfg.observation_source,
        "segment_threshold": cfg.segment_threshold,
        "subjects": subjects,
    }
    _write_json(out, document)
    return 0


def _report_items(prefix: str, report: metrics.MetricReport):
    return [(f"{prefix}.{key}", value)
            for key, value in report.as_document().items()
            if key != "schema"]


def cmd_evaluate(cfg: RunConfig) -> int:
    out_dir = _require(cfg.output_path, "--output")
    records = _load_corpus(cfg)
    os.makedirs(out_dir, exist_ok=True)
    splits = dataio.loso_splits(records)

    numeric_keys: list[str] = []
    per_split_values: list[dict[str, float]] = []
    for split_index, (train, held) in enumerate(splits):
        model = _fit_records(cfg, train, split_index)
        grid = held.cycles[0].grid
        pred = mogp.predict(model, grid)
        truth = np.mean([c.channels for c in held.cycles], axis=0)

        items: list[tuple[str, str]] = [
            ("schema", "evaluate-v1"), ("subject_id", held.subject_id)]
        values: dict[str, float] = {}
        # The raw local cost |s a - s b| is s |a - b|, so each raw DTW is
        # the channel std times the normalized one.
        normalized_dtw = np.array([metrics.dtw(p, t)
                                   for p, t in zip(pred.mean, truth)])
        reports = []
        if cfg.metrics_normalized:
            reports.append(("normalized", metrics.compute_report(
                pred.mean, truth, CHANNELS, per_output_dtw=normalized_dtw)))
        if cfg.metrics_raw:
            stds = held.channel_stds[:, None]
            means = held.channel_means[:, None]
            reports.append(("raw", metrics.compute_report(
                pred.mean * stds + means, truth * stds + means, CHANNELS,
                per_output_dtw=held.channel_stds * normalized_dtw)))
        for unit, report in reports:
            if cfg.verbose:
                print(f"== {held.subject_id} ({unit})")
                print(report.as_table(), end="")
            for key, text in _report_items(unit, report):
                items.append((key, text))
                values[key] = float(text)

        per_split_values.append(values)
        if not numeric_keys:
            numeric_keys = [k for k, _ in items if k in values]
        write_document(
            os.path.join(out_dir, f"split_{held.subject_id}.metrics"), items)
        print(f"split {held.subject_id}: "
              + " ".join(f"{k}={values[k]:.6f}" for k in
                         ("normalized.mae", "raw.mae") if k in values))

    aggregate_items: list[tuple[str, str]] = [
        ("schema", "evaluate-aggregate-v1"),
        ("splits", str(len(splits)))]
    for key in numeric_keys:
        mean_value = float(np.mean([v[key] for v in per_split_values]))
        aggregate_items.append((key, format_float(mean_value)))
    write_document(os.path.join(out_dir, "aggregate.metrics"),
                   aggregate_items)
    print(f"wrote {len(splits)} split reports and aggregate to {out_dir}")
    return 0


def cmd_export_plots(cfg: RunConfig) -> int:
    out_dir = _require(cfg.output_path, "--output")
    model = mogp.load_model(_require(cfg.model_path, "--model"))
    os.makedirs(out_dir, exist_ok=True)
    grid = np.arange(cfg.grid_points, dtype=float) / cfg.grid_points
    pred = mogp.predict(model, grid)
    names = _output_names(model.num_outputs)

    for m, name in enumerate(names):
        lines = ["# schema=plotband-v1", "time,mean,lower,upper"]
        for k in range(grid.shape[0]):
            mu = float(pred.mean[m, k])
            half = 2.0 * float(pred.std[m, k])
            lines.append(",".join(format_float(v) for v in
                                  (float(grid[k]), mu, mu - half, mu + half)))
        atomic_write_text(os.path.join(out_dir, f"band_{name}.csv"),
                          "\n".join(lines) + "\n")

    matrix, normalized = mogp.export_coregionalization(model)
    for filename, payload in (("coregionalization.csv", matrix),
                              ("coregionalization_normalized.csv",
                               normalized)):
        lines = ["# schema=coreg-v1", "output," + ",".join(names)]
        for m, name in enumerate(names):
            lines.append(name + "," + ",".join(
                format_float(float(v)) for v in payload[m]))
        atomic_write_text(os.path.join(out_dir, filename),
                          "\n".join(lines) + "\n")
    print(f"wrote {len(names)} band files and coregionalization exports "
          f"to {out_dir}")
    return 0


_CORPUS_KEYS = ("input_path", "filter_cutoff_hz", "filter_order",
                "grid_points")

# Subcommand -> (handler, help, the settings it takes as flags besides
# --config, --seed and --verbose).
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
        *_CORPUS_KEYS, "output_path", "mogp_dir", "hmm_path",
        "observation_source", "iterations", "points_per_channel",
        "em_iterations", "segment_threshold")),
    "evaluate": (cmd_evaluate, "leave-one-subject-out evaluation", (
        *_CORPUS_KEYS, "output_path", "iterations", "points_per_channel")),
    "export-plots": (cmd_export_plots, "export prediction bands and B matrix",
                     ("model_path", "output_path", "grid_points")),
}

_FLAG_HELP = {
    "seed": "master RNG seed",
    "verbose": "chatty output",
    "input_path": "corpus CSV path",
    "output_path": "output file, or directory for several files",
    "filter_cutoff_hz": "Butterworth cutoff in Hz, or 'none'",
    "mogp_dir": "directory of fitted per-subject models",
    "hmm_path": "fitted HMM model file (skips in-run EM)",
    "segment_threshold": "bilateral-deviation threshold for reporting "
                         "decoded abnormal runs (0 reports all)",
}


def build_parser() -> argparse.ArgumentParser:
    """Every flag's value is kept as text; build_config parses it."""
    parser = argparse.ArgumentParser(
        prog="gaitmogp",
        description="Multi-output GP gait modeling and HMM segmentation.")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, keys) in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        # Take "-1e-2" for a value, not an option, as argparse does from
        # Python 3.13 on; before, it took only "-5" and "-.01" for numbers.
        sub._negative_number_matcher = re.compile(r"-\.?\d")
        sub.add_argument("--config", help="flat key=value settings file")
        for key in ("seed", "verbose", *keys):
            # A boolean setting is a switch that sets it true.
            switch = ({"action": "store_const", "const": "true"}
                      if _KINDS[key] is bool else {})
            sub.add_argument(_flag(key), dest=key, help=_FLAG_HELP.get(key),
                             required=key in _REQUIRED_KEYS, **switch)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        # Explicit checks report an overflow as the JSON error; numpy's
        # warnings about it would only add unparsed lines to stderr.
        with np.errstate(all="ignore"):
            return _SUBCOMMANDS[args.subcommand][0](cfg)
    except (ValidationError, OSError) as exc:
        # An unreadable input or unwritable output path is bad input too.
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
