"""The benchmark's workloads: inputs, one round of CLI commands, checks.

Every workload builds its corpus with ``gaitmogp synth`` from the
benchmark seed, using the criterion 9 recipe (a 0.15 level shift of the
left ankle over the phase window [0.55, 0.75) in the disorder cohort).
A round runs the same CLI commands on the same inputs, so every round
of a run does the same work and the figures of a run are medians over
rounds. Sizes fix the amount of work independently of the seed:
iteration counts are set, and EM runs a fixed number of steps.
"""

from __future__ import annotations

import json
import os

import checks

WINDOW = (0.55, 0.75)
CORPUS_RECIPE = ("--cycles-per-subject", "3", "--noise-level", "0.002",
                 "--anomaly-side", "left", "--anomaly-phase", "0.55",
                 "--anomaly-shift", "0.15", "--anomaly-duration", "0.20")
# An EM tolerance no real step meets, so Baum-Welch runs exactly
# --em-iterations steps and its cost does not depend on how fast a
# particular corpus converges.
FIXED_EM_CONFIG = "em_tol = 1e-300\n"


class Workload:
    """One workload; ``size`` holds the settings of the full or quick run."""

    name = ""
    full: dict = {}
    quick: dict = {}

    def __init__(self, work: str, seed: int, quick: bool):
        self.work = work
        self.seed = seed
        self.size = self.quick if quick else self.full

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def input_commands(self) -> list[list[str]]:
        """Write the inputs the CLI cannot make; return the commands for
        the rest."""
        return [["synth", "--output", self.path("corpus.csv"),
                 "--seed", str(self.seed),
                 "--subjects-per-cohort", str(self.size["subjects"]),
                 *CORPUS_RECIPE]]

    def corpus_flags(self) -> list[str]:
        return ["--input", self.path("corpus.csv"), "--filter-cutoff", "none",
                "--grid-points", str(self.size["grid"]),
                "--seed", str(self.seed)]

    def round_commands(self) -> list[list[str]]:
        raise NotImplementedError

    def check(self, tracer) -> None:
        """Check the outputs of the last round (and its trace, if any)."""
        raise NotImplementedError

    def quality(self) -> dict[str, float]:
        return {}


class SegmentCohort(Workload):
    name = "segment-cohort"
    full = {"subjects": 1, "grid": 400, "iterations": 40, "points": 40,
            "em_iterations": 10}
    # Below this size the criterion 9 bars stop holding, so the quick
    # run keeps it and only runs fewer rounds.
    quick = full

    def input_commands(self):
        with open(self.path("fixed-em.cfg"), "w", encoding="utf-8") as handle:
            handle.write(FIXED_EM_CONFIG)
        return super().input_commands()

    def round_commands(self):
        return [["segment", *self.corpus_flags(),
                 "--output", self.path("report.json"),
                 "--config", self.path("fixed-em.cfg"),
                 "--iterations", str(self.size["iterations"]),
                 "--points-per-channel", str(self.size["points"]),
                 "--em-iterations", str(self.size["em_iterations"])]]

    def check(self, tracer):
        from gaitmogp.cli import SEGMENT_REPORT_JSONSCHEMA

        with open(self.path("report.json"), encoding="utf-8") as handle:
            report = json.load(handle)
        checks.check_segment_report(report, SEGMENT_REPORT_JSONSCHEMA, WINDOW)
        if tracer is not None:
            checks.check_em_traces(tracer.em_traces)
            checks.check_viterbi(tracer.viterbi_calls)


class EvaluateLoso(Workload):
    name = "evaluate-loso"
    full = {"subjects": 1, "grid": 400, "iterations": 20, "points": 50}
    quick = {"subjects": 1, "grid": 60, "iterations": 3, "points": 10}

    def round_commands(self):
        return [["evaluate", *self.corpus_flags(),
                 "--output", self.path("evaluate"),
                 "--iterations", str(self.size["iterations"]),
                 "--points-per-channel", str(self.size["points"])]]

    def _documents(self):
        out = self.path("evaluate")
        splits = {
            name[len("split_"):-len(".metrics")]:
                checks.read_metrics_document(os.path.join(out, name))
            for name in sorted(os.listdir(out))
            if name.startswith("split_") and name.endswith(".metrics")}
        aggregate = checks.read_metrics_document(
            os.path.join(out, "aggregate.metrics"))
        return splits, aggregate

    def check(self, tracer):
        from gaitmogp.gait_signal import CHANNELS

        splits, aggregate = self._documents()
        expected = 2 * self.size["subjects"]
        if len(splits) != expected:
            raise checks.CheckFailed(
                f"{len(splits)} split reports for {expected} subjects")
        checks.check_evaluate(splits, aggregate, CHANNELS, self.size["grid"])
        if tracer is not None:
            checks.check_dtw_calls(tracer.dtw_calls)

    def quality(self):
        _, aggregate = self._documents()
        return {"eval.normalized_mae": float(aggregate["normalized.mae"]),
                "eval.normalized_r2": float(aggregate["normalized.r_squared"]),
                "eval.normalized_adtw": float(aggregate["normalized.adtw"])}


class FitPooled(Workload):
    name = "fit-pooled"
    full = {"subjects": 2, "grid": 400, "iterations": 12, "points": 120}
    quick = {"subjects": 1, "grid": 60, "iterations": 3, "points": 20}

    def round_commands(self):
        return [["fit", *self.corpus_flags(), "--scope", "pooled",
                 "--output", self.path("models"),
                 "--iterations", str(self.size["iterations"]),
                 "--points-per-channel", str(self.size["points"])],
                ["predict", "--model", self.path("models", "pooled.mogp"),
                 "--output", self.path("predictions.csv"),
                 "--grid-points", str(self.size["grid"])]]

    def check(self, tracer):
        checks.check_fit_pooled(self.path("models", "pooled.mogp"),
                                self.path("models", "pooled.fitlog.csv"),
                                self.path("predictions.csv"))


WORKLOADS = {cls.name: cls for cls in (SegmentCohort, EvaluateLoso, FitPooled)}
