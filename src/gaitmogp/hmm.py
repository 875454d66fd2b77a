"""Four-state Gaussian-emission HMM over bilateral ankle signals.

States 1 and 2 model normal stance/swing, states 3 and 4 their abnormal
counterparts. Emissions are bivariate Gaussians N(mu_i, Sigma) with one
covariance shared across states. Initial and transition probabilities
are expert values favoring the normal states; EM refines the emissions
only.

Likelihoods and EM statistics come from one scaled forward-backward
with a per-step emission shift (Rabiner 1989, section V.A), which stays
finite for observations far from every state mean; log-space Viterbi.
An observation sequence is only its (T, 2) steps; where its curves come
from is the caller's setting. Models are immutable after fitting;
decoding is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import serialize
from .errors import NumericError, ValidationError

NUM_STATES = 4
OBS_DIM = 2
# 1-based indices of the abnormal stance/swing states.
ABNORMAL_STATES = (3, 4)

LOG_2PI = math.log(2.0 * math.pi)

# Expert initial distribution and transition matrix. Transitions out of
# normal states into the "wrong" abnormal phase are structurally zero.
DEFAULT_INITIAL_PROBS = (0.6, 0.3, 0.05, 0.05)
DEFAULT_TRANSITIONS = (
    (0.70, 0.25, 0.05, 0.00),
    (0.30, 0.60, 0.00, 0.10),
    (0.25, 0.20, 0.50, 0.05),
    (0.25, 0.20, 0.05, 0.50),
)

MODEL_SCHEMA = "hmm-v1"

# EM constants: a state below this total posterior mass keeps its mean,
# and the shared covariance gets a relative trace jitter every M-step.
EMPTY_STATE_MASS = 1e-12
COVARIANCE_JITTER = 1e-6
MIN_COVARIANCE_EIGENVALUE = 1e-8


@dataclass
class HmmModel:
    """Parameters theta = (pi, A, mu_1..mu_4, Sigma)."""

    initial_probs: np.ndarray
    transitions: np.ndarray
    state_means: np.ndarray
    shared_covariance: np.ndarray
    # Total log-likelihood per E-step, filled by baum_welch_fit.
    log_likelihood_trace: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        self.initial_probs = np.asarray(self.initial_probs, dtype=float).ravel()
        self.transitions = np.asarray(self.transitions, dtype=float)
        self.state_means = np.asarray(self.state_means, dtype=float)
        self.shared_covariance = np.asarray(self.shared_covariance, dtype=float)

    def validate(self) -> None:
        if self.initial_probs.shape != (NUM_STATES,):
            raise ValidationError("initial_probs must have length 4")
        if self.transitions.shape != (NUM_STATES, NUM_STATES):
            raise ValidationError("transitions must be 4x4")
        if self.state_means.shape != (NUM_STATES, OBS_DIM):
            raise ValidationError("state_means must be 4x2")
        if self.shared_covariance.shape != (OBS_DIM, OBS_DIM):
            raise ValidationError("shared_covariance must be 2x2")
        for name, arr in (("initial_probs", self.initial_probs),
                          ("transitions", self.transitions),
                          ("state_means", self.state_means),
                          ("shared_covariance", self.shared_covariance)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} must be finite")
        if np.any(self.initial_probs < 0.0) or np.any(self.transitions < 0.0):
            raise ValidationError("probabilities must be non-negative")
        if abs(float(np.sum(self.initial_probs)) - 1.0) > 1e-9:
            raise ValidationError("initial_probs must sum to 1 within 1e-9")
        row_sums = np.sum(self.transitions, axis=1)
        if np.any(np.abs(row_sums - 1.0) > 1e-9):
            raise ValidationError("every transition row must sum to 1 within 1e-9")
        if np.max(np.abs(self.shared_covariance - self.shared_covariance.T)) > 1e-12:
            raise ValidationError("shared_covariance must be symmetric")
        min_eig = float(np.min(np.linalg.eigvalsh(self.shared_covariance)))
        if min_eig < MIN_COVARIANCE_EIGENVALUE:
            raise ValidationError(
                f"shared_covariance minimum eigenvalue {min_eig:.3e} < "
                f"{MIN_COVARIANCE_EIGENVALUE}")

    def copy(self) -> "HmmModel":
        return HmmModel(self.initial_probs.copy(), self.transitions.copy(),
                        self.state_means.copy(), self.shared_covariance.copy())


@dataclass
class ObservationSequence:
    """Bilateral ankle observations o(t) = [right y, left y] on a uniform grid."""

    steps: np.ndarray

    def __post_init__(self):
        self.steps = np.atleast_2d(np.asarray(self.steps, dtype=float))
        if self.steps.ndim != 2 or self.steps.shape[1] != OBS_DIM:
            raise ValidationError("steps must have shape (T, 2)")
        if self.steps.shape[0] < 1:
            raise ValidationError("observation sequence must have length >= 1")
        if not np.all(np.isfinite(self.steps)):
            raise ValidationError("observations must be finite")

    def __len__(self) -> int:
        return self.steps.shape[0]


@dataclass
class DecodedStates:
    """Most probable state path (1-based indices) and its joint log score."""

    states: np.ndarray
    log_joint: float

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=int).ravel()
        if np.any(self.states < 1) or np.any(self.states > NUM_STATES):
            raise ValidationError("state indices must lie in {1, 2, 3, 4}")
        if not math.isfinite(self.log_joint):
            raise ValidationError("log_joint must be finite")


@dataclass
class BaumWelchConfig:
    max_iterations: int = 100
    tol: float = 1e-6          # relative change of total log-likelihood

    def validate(self) -> None:
        if self.max_iterations < 0:
            raise ValidationError("max_iterations must be >= 0")
        if not self.tol > 0.0:
            raise ValidationError("tol must be positive")


class AnomalousSegment(NamedTuple):
    start_time: float
    end_time: float
    state_label: str


def default_model() -> HmmModel:
    """Expert pi and A; placeholder emissions (zero means, identity Sigma).

    State means are meant to be initialized from data quantiles at fit
    time, see init_emissions_from_data.
    """
    return HmmModel(
        initial_probs=np.array(DEFAULT_INITIAL_PROBS),
        transitions=np.array(DEFAULT_TRANSITIONS),
        state_means=np.zeros((NUM_STATES, OBS_DIM)),
        shared_covariance=np.eye(OBS_DIM),
    )


def init_emissions_from_data(model: HmmModel, sequences) -> HmmModel:
    """Quantile-based emission initialization for Baum-Welch.

    mu_1/mu_2 are the per-channel 25th/75th percentile pairs of the
    pooled observations (stance low, swing high); mu_3/mu_4 sit one
    pooled standard deviation above them. Sigma starts as the diagonal
    of the pooled per-channel variances.
    """
    sequences = _validated_sequences(sequences)
    pooled = np.concatenate([seq.steps for seq in sequences], axis=0)
    q25 = np.percentile(pooled, 25.0, axis=0)
    q75 = np.percentile(pooled, 75.0, axis=0)
    std = np.std(pooled, axis=0)
    means = np.stack([q25, q75, q25 + std, q75 + std])
    var = np.maximum(np.var(pooled, axis=0), 1e-6)
    out = model.copy()
    out.state_means = means
    out.shared_covariance = np.diag(var)
    out.validate()
    return out


def _emission_log_matrix(model: HmmModel, steps: np.ndarray) -> np.ndarray:
    """(T, 4) matrix of log N(o_t; mu_i, Sigma)."""
    cov = model.shared_covariance
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValidationError("shared covariance is not positive definite")
    log_det_half = float(np.sum(np.log(np.diag(chol))))
    out = np.empty((steps.shape[0], NUM_STATES))
    for i in range(NUM_STATES):
        diff = steps - model.state_means[i]
        solved = np.linalg.solve(chol, diff.T)
        # Overflow to inf is fine: it surfaces as -inf log-density, which
        # the decoders detect and report.
        with np.errstate(over="ignore"):
            maha = np.sum(solved * solved, axis=0)
        out[:, i] = -0.5 * maha - log_det_half - 0.5 * OBS_DIM * LOG_2PI
    return out


def emission_logpdf(model: HmmModel, obs, state: int) -> float:
    """Log-density of a single observation under state's Gaussian (1-based)."""
    if not 1 <= int(state) <= NUM_STATES:
        raise ValidationError(f"state index must be in 1..4, got {state}")
    obs = np.asarray(obs, dtype=float).ravel()
    if obs.shape != (OBS_DIM,):
        raise ValidationError("observation must be a 2-vector")
    if not np.all(np.isfinite(obs)):
        raise ValidationError("observation must be finite")
    return float(_emission_log_matrix(model, obs[None, :])[0, int(state) - 1])


def _forward_backward(model: HmmModel, steps: np.ndarray):
    """Rabiner-scaled forward-backward: (gamma, log p(O | theta)).

    Each step's emission densities are divided by their largest one, so
    an observation far from every state mean does not underflow; that
    shift and the per-step scale factors c_t give log p(O | theta). An
    impossible sequence (some c_t = 0) gives -inf and zero statistics.
    """
    log_b = _emission_log_matrix(model, steps)
    t_len = steps.shape[0]
    shift = log_b.max(axis=1)
    shift[np.isinf(shift)] = 0.0     # impossible under every state: b = 0
    b = np.exp(log_b - shift[:, None])
    a = model.transitions

    alpha = np.empty((t_len, NUM_STATES))
    scale = np.empty(t_len)
    prior = model.initial_probs
    for t in range(t_len):
        alpha[t] = prior * b[t]
        scale[t] = alpha[t].sum()
        if scale[t] == 0.0:
            return np.zeros((t_len, NUM_STATES)), -math.inf
        alpha[t] /= scale[t]
        prior = alpha[t] @ a

    beta = np.ones((t_len, NUM_STATES))
    for t in range(t_len - 2, -1, -1):
        beta[t] = a @ (b[t + 1] * beta[t + 1] / scale[t + 1])
    log_likelihood = float(np.sum(np.log(scale)) + np.sum(shift))
    return alpha * beta, log_likelihood


def forward_log_likelihood(model: HmmModel, seq: ObservationSequence) -> float:
    """log p(O | theta) via the scaled forward recursion."""
    model.validate()
    return _forward_backward(model, seq.steps)[1]


def viterbi_decode(model: HmmModel, seq: ObservationSequence) -> DecodedStates:
    """Most probable state path, log-space DP, ties to the lowest index."""
    model.validate()
    emissions = _emission_log_matrix(model, seq.steps)
    if np.any(np.all(np.isinf(emissions) & (emissions < 0), axis=1)):
        raise NumericError(
            "emission underflow: an observation is impossible under every state")
    with np.errstate(divide="ignore"):
        log_pi, log_a = np.log(model.initial_probs), np.log(model.transitions)
    t_len = len(seq)

    delta = log_pi + emissions[0]
    backptr = np.zeros((t_len, NUM_STATES), dtype=int)
    for t in range(1, t_len):
        scores = delta[:, None] + log_a          # predecessor i -> state j
        # argmax returns the first maximal index, i.e. the lowest state.
        backptr[t] = np.argmax(scores, axis=0)
        delta = scores[backptr[t], np.arange(NUM_STATES)] + emissions[t]

    last = int(np.argmax(delta))
    log_joint = float(delta[last])
    path = np.empty(t_len, dtype=int)
    path[-1] = last
    for t in range(t_len - 1, 0, -1):
        path[t - 1] = backptr[t, path[t]]
    return DecodedStates(states=path + 1, log_joint=log_joint)


def _validated_sequences(sequences) -> list[ObservationSequence]:
    sequences = list(sequences)
    if not sequences:
        raise ValidationError("at least one observation sequence is required")
    for seq in sequences:
        if not isinstance(seq, ObservationSequence):
            raise ValidationError("sequences must be ObservationSequence instances")
    return sequences


def _e_step(model: HmmModel, sequences):
    """Accumulated emission statistics and the total log-likelihood."""
    passes = [_forward_backward(model, seq.steps) for seq in sequences]
    gamma = np.concatenate([gamma for gamma, _ in passes])
    steps = np.concatenate([seq.steps for seq in sequences])
    stats = {
        "gamma_sum": gamma.sum(axis=0),
        "gamma_obs": gamma.T @ steps,
        "gamma_sq": np.einsum("ti,td,te->ide", gamma, steps, steps),
        "total_points": steps.shape[0],
    }
    return stats, sum(ll for _, ll in passes)


def _m_step(model: HmmModel, stats) -> HmmModel:
    """New state means and shared covariance; pi and A are copied."""
    gamma_sum = stats["gamma_sum"]
    gamma_obs = stats["gamma_obs"]
    # Empty-state rule: keep the previous mean below the mass floor.
    filled = gamma_sum >= EMPTY_STATE_MASS
    new_means = model.state_means.copy()
    new_means[filled] = gamma_obs[filled] / gamma_sum[filled, None]

    # Shared covariance pooled over all states around the new means:
    # sum_i S2_i - mu_i s1_i^T - s1_i mu_i^T + g_i mu_i mu_i^T.
    cross = new_means.T @ gamma_obs
    cov = (stats["gamma_sq"].sum(axis=0) - cross - cross.T
           + (new_means.T * gamma_sum) @ new_means)
    cov /= float(stats["total_points"])
    cov = 0.5 * (cov + cov.T)
    cov += COVARIANCE_JITTER * (np.trace(cov) / 2.0) * np.eye(OBS_DIM)
    min_eig = float(np.min(np.linalg.eigvalsh(cov)))
    if min_eig < MIN_COVARIANCE_EIGENVALUE:
        cov += (MIN_COVARIANCE_EIGENVALUE - min_eig) * np.eye(OBS_DIM)

    return HmmModel(initial_probs=model.initial_probs.copy(),
                    transitions=model.transitions.copy(),
                    state_means=new_means, shared_covariance=cov)


def baum_welch_fit(init: HmmModel, sequences,
                   config: BaumWelchConfig | None = None) -> HmmModel:
    """EM for the emission parameters (state means and shared covariance);
    the expert pi and A of ``init`` are kept unchanged.

    Returns the refined model with the total log-likelihood of every
    E-step in ``log_likelihood_trace``: the initial model's first, then
    one per M-step; the trace is non-decreasing up to 1e-9 slack.
    """
    config = config or BaumWelchConfig()
    config.validate()
    init.validate()
    sequences = _validated_sequences(sequences)

    model = init.copy()
    trace: list[float] = []
    for iteration in range(config.max_iterations + 1):
        stats, ll = _e_step(model, sequences)
        if not math.isfinite(ll):
            raise NumericError(
                f"non-finite log-likelihood in EM iteration {iteration}")
        trace.append(ll)
        if iteration == config.max_iterations or (
                iteration > 0 and abs(trace[-1] - trace[-2])
                <= config.tol * max(1.0, abs(trace[-2]))):
            break
        model = _m_step(model, stats)
        model.validate()
    model.log_likelihood_trace = trace
    return model


def anomalous_segments(states, time_grid) -> list[AnomalousSegment]:
    """Maximal runs of abnormal states as (start, end, dominant label).

    ``states`` is a (T,) path of 1-based state indices, such as
    ``DecodedStates.states``. Contiguous steps in state 3 or 4 merge into
    one segment; start/end are the grid times of the first and last step
    of the run and the label is the majority state within it ("s3" on
    ties).
    """
    grid = np.asarray(time_grid, dtype=float).ravel()
    states = np.asarray(states).ravel()
    if grid.shape[0] != states.shape[0]:
        raise ValidationError(
            f"time grid length {grid.shape[0]} does not match decoded "
            f"length {states.shape[0]}")

    segments: list[AnomalousSegment] = []
    run_start = None
    for idx in range(states.shape[0] + 1):
        abnormal = idx < states.shape[0] and states[idx] in ABNORMAL_STATES
        if abnormal and run_start is None:
            run_start = idx
        elif not abnormal and run_start is not None:
            run = states[run_start:idx]
            count3 = int(np.sum(run == 3))
            count4 = int(np.sum(run == 4))
            label = "s3" if count3 >= count4 else "s4"
            segments.append(AnomalousSegment(
                start_time=float(grid[run_start]),
                end_time=float(grid[idx - 1]),
                state_label=label))
            run_start = None
    return segments


# ---------------------------------------------------------------------------
# Serialization (schema hmm-v1).

# The hmm-v1 array entries, in file order, with their shapes.
_ARRAY_SHAPES = {
    "initial_probs": (NUM_STATES,),
    "transitions": (NUM_STATES, NUM_STATES),
    "state_means": (NUM_STATES, OBS_DIM),
    "shared_covariance": (OBS_DIM, OBS_DIM),
}


def save_model(model: HmmModel, path) -> None:
    model.validate()
    serialize.write_document(path, [("schema", MODEL_SCHEMA)] + [
        (key, serialize.format_float_list(getattr(model, key).ravel()))
        for key in _ARRAY_SHAPES])


def load_model(path) -> HmmModel:
    doc = serialize.read_document(path)
    schema = serialize.require_key(doc, "schema", str(path))
    if schema != MODEL_SCHEMA:
        raise ValidationError(f"{path}: schema {schema!r} is not {MODEL_SCHEMA!r}")
    arrays = {}
    for key, shape in _ARRAY_SHAPES.items():
        values = serialize.parse_float_list(
            serialize.require_key(doc, key, str(path)), f"{path}: {key}")
        count = math.prod(shape)
        if len(values) != count:
            raise ValidationError(
                f"{path}: {key} must have {count} entries, got {len(values)}")
        arrays[key] = np.array(values).reshape(shape)
    model = HmmModel(**arrays)
    model.validate()
    return model
