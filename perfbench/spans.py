"""Spans around the public functions of each ``gaitmogp`` module.

The tracer wraps functions from the benchmark's own side: it replaces
every reference to a target function in the loaded ``gaitmogp`` modules
(``mogp`` holds its own ``gram_matrix`` binding, ``cli`` its own
``detect_events``) with a wrapper that records a span, and puts the
originals back on ``uninstall``. A layer's self time is its spans'
durations minus the parts covered by spans it caused. A target that a
later version of the package removes or renames drops out with a note;
its times and counts then read 0.

Hooks read facts off arguments and results (Adam steps from
``lml_trace``, E-steps from ``log_likelihood_trace``, DTW cells) and
capture what the traced-run checks compare against the reference code.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import defaultdict

import numpy as np

TARGETS = (
    ("dataio", "load_corpus"),
    ("gait_signal", "detect_events"),
    ("kernels", "gram_matrix"),
    ("kernels", "kernel_gradients"),
    ("mogp", "fit"),
    ("mogp", "log_marginal_likelihood"),
    ("mogp", "lml_gradient"),
    ("mogp", "predict"),
    ("mogp", "save_model"),
    ("mogp", "load_model"),
    ("serialize", "atomic_write_text"),
    ("hmm", "baum_welch_fit"),
    ("hmm", "viterbi_decode"),
    ("metrics", "dtw"),
    ("metrics", "compute_report"),
)

PACKAGE = "gaitmogp"


class Tracer:
    """Aggregated self times, call counts and hook counters of one round."""

    def __init__(self):
        self.notes: list[str] = []
        self._originals: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.top_level_s = 0.0
        self.em_traces: list[list[float]] = []
        self.viterbi_calls: list[dict] = []
        self.dtw_calls: list[tuple[np.ndarray, np.ndarray, float]] = []
        self._jittered = weakref.WeakSet()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == PACKAGE or name.startswith(PACKAGE + "."))
                   and m is not None]
        for module_name, func_name in TARGETS:
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, func_name, None)
            if not callable(original):
                self._note_once(f"{module_name}.{func_name} not found; "
                                f"dropped from the trace")
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._originals.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    # -- spans ------------------------------------------------------------

    def _wrap(self, name: str, func):
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                self.self_s[name] += duration - frame[0]
                self.inclusive_s[name] += duration
                self.calls[name] += 1
                if stack:
                    stack[-1][0] += duration
                else:
                    self.top_level_s += duration
            if hook is not None:
                try:
                    hook(args, kwargs, result)
                except Exception as exc:  # a refactor changed the shapes
                    self._note_once(f"{name}: hook failed ({exc!r})")
            return result

        return traced

    # -- hooks --------------------------------------------------------------

    def _note_once(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    def _count_jitter(self, model) -> None:
        if getattr(model, "jitter_used", 0.0) > 0.0 \
                and model not in self._jittered:
            self._jittered.add(model)
            self.counters["jitter_fallbacks"] += 1

    def _on_mogp_fit(self, args, kwargs, result):
        training = args[0] if args else kwargs.get("training")
        size = getattr(training, "size", 0)
        self.counters["train_points"] = max(self.counters["train_points"],
                                            int(size))
        trace = getattr(result, "lml_trace", None)
        if trace is None:
            self._note_once("mogp.fit result has no lml_trace; "
                            "mogp.fit.adam_iters reads 0")
            return
        # The trace holds one LML per Adam step plus the final iterate.
        self.counters["adam_iters"] += max(len(trace) - 1, 0)

    def _on_model_call(self, args, kwargs, result):
        if args:
            self._count_jitter(args[0])

    _on_mogp_log_marginal_likelihood = _on_model_call
    _on_mogp_lml_gradient = _on_model_call
    _on_mogp_predict = _on_model_call

    def _on_serialize_atomic_write_text(self, args, kwargs, result):
        text = args[1] if len(args) > 1 else kwargs.get("text", "")
        self.counters["bytes_written"] += len(text.encode("utf-8"))

    def _on_hmm_baum_welch_fit(self, args, kwargs, result):
        trace = getattr(result, "log_likelihood_trace", None)
        if trace is None:
            self._note_once("hmm.baum_welch_fit result has no "
                            "log_likelihood_trace; hmm.em_iters reads 0")
            return
        self.counters["em_iters"] += len(trace)
        self.em_traces.append([float(v) for v in trace])

    def _on_hmm_viterbi_decode(self, args, kwargs, result):
        model, seq = args[0], args[1]
        self.viterbi_calls.append({
            "initial": np.array(model.initial_probs, dtype=float),
            "transitions": np.array(model.transitions, dtype=float),
            "means": np.array(model.state_means, dtype=float),
            "covariance": np.array(model.shared_covariance, dtype=float),
            "steps": np.array(seq.steps, dtype=float),
            "states": np.array(result.states, dtype=int),
            "log_joint": float(result.log_joint),
        })

    def _on_metrics_dtw(self, args, kwargs, result):
        a = np.asarray(args[0], dtype=float).ravel()
        b = np.asarray(args[1], dtype=float).ravel()
        self.counters["dtw_cells"] += a.size * b.size
        self.dtw_calls.append((a, b, float(result)))
