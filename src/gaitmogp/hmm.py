"""Four-state Gaussian-emission HMM over bilateral ankle signals.

States 1 and 2 model normal stance/swing, states 3 and 4 their abnormal
counterparts. Emissions are bivariate Gaussians N(mu_i, Sigma) with one
covariance shared across states. Initial and transition probabilities
are expert values favoring the normal states; EM refines the emissions
only.

Likelihoods and EM statistics come from one forward-backward kernel:
Rabiner's (1989) scaled recursion, one forward and one backward pass
over time, each step's forward message divided by its sum. Where the
scaled messages still lose mass, which shows as a zero or subnormal
normaliser or as a row sum sum_i alpha_t(i) beta_t(i) away from 1, the
same two passes rerun in log space. Viterbi is a log-space recursion.
Both run on Python floats: over four states, plain float arithmetic per
step costs less than numpy calls on 4-vectors.
An observation sequence is only its (T, 2) steps; where its curves come
from is the caller's setting. Models are immutable after fitting;
decoding is pure and returns plain values: ``viterbi_decode`` the
(states, log_joint) tuple ``DecodedStates``, ``anomalous_segments`` the
segment report's {"start_time", "end_time", "state_label"} dicts.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

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

# EM constants: a state below this total posterior mass keeps its mean,
# and the shared covariance gets a relative trace jitter every M-step.
EMPTY_STATE_MASS = 1e-12
COVARIANCE_JITTER = 1e-6
MIN_COVARIANCE_EIGENVALUE = 1e-8

# Largest |log| of a row sum sum_i alpha_t(i) beta_t(i) of the scaled
# forward-backward that is taken as rounding; the sum is 1 in exact
# arithmetic, so a larger one means the messages lost mass to underflow
# (rounding measured below 3e-14 at T = 4000 with |log p| up to 4e7).
SPLIT_TOLERANCE = 1e-8


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


class DecodedStates(NamedTuple):
    """Most probable state path, a (T,) int array of 1-based indices, and
    its joint log score."""

    states: np.ndarray
    log_joint: float


@dataclass
class BaumWelchConfig:
    max_iterations: int = 100
    tol: float = 1e-6          # relative change of total log-likelihood

    def validate(self) -> None:
        if self.max_iterations < 0:
            raise ValidationError("max_iterations must be >= 0")
        if not self.tol > 0.0:
            raise ValidationError("tol must be positive")


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
    # One solve for every (state, step) difference, state-major columns.
    diff = steps[None, :, :] - model.state_means[:, None, :]
    solved = np.linalg.solve(chol, diff.reshape(-1, OBS_DIM).T)
    # Overflow to inf is fine: it surfaces as -inf log-density, which
    # the decoders detect and report.
    with np.errstate(over="ignore"):
        maha = np.sum(solved * solved, axis=0).reshape(NUM_STATES, -1).T
    return -0.5 * maha - log_det_half - 0.5 * OBS_DIM * LOG_2PI


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
    """(gamma, log p(O | theta)) by Rabiner's (1989) scaled recursion.

    With b_t the emission densities of step t divided by their largest
    one (the emission shift), the forward pass divides
    alpha_t = (alpha_{t-1} A) o b_t, from alpha_0 = pi o b_0, by its sum
    c_t; the backward pass takes beta_t = A (b_{t+1} o beta_{t+1}) / c_{t+1}
    from beta_{T-1} = 1. Then log p(O | theta) = sum_t log c_t + sum_t
    shift_t, every row sum sum_i alpha_t(i) beta_t(i) is 1 (the Rabiner
    identity), and gamma_t is alpha_t o beta_t over its row sum.

    The scaled messages can still lose mass: the shift may leave only
    states that A cannot reach with a nonzero b, a state that matters
    later may sit more than the float range below another in alpha_t, or
    a possible state's b may itself fall below the normal floats, which
    no c_t or row sum shows. Then some b_t with a finite log is zero or
    subnormal, some c_t is zero, subnormal or not finite, or some row
    sum's log is further than ``SPLIT_TOLERANCE`` from 0, and the same
    two passes run in log space (``_log_forward_backward``), which cannot
    underflow and is slower. An impossible sequence gives -inf and zero
    statistics.
    """
    log_b = _emission_log_matrix(model, steps)
    shift = log_b.max(axis=1)
    shift[np.isinf(shift)] = 0.0     # impossible under every state: b = 0
    smallest, largest = sys.float_info.min, math.inf
    emissions = np.exp(log_b - shift[:, None])
    # A finite log-emission more than ~708 nats below its step's best
    # leaves a b below the normal floats, and with it a state that no
    # scale or row sum shows lost.
    if np.any((emissions < smallest) & np.isfinite(log_b)):
        return _log_forward_backward(model, log_b)
    emissions = emissions.tolist()
    # Four states, unrolled: named floats cost less per step than a loop
    # or a comprehension over states.
    (a00, a01, a02, a03), (a10, a11, a12, a13), \
        (a20, a21, a22, a23), (a30, a31, a32, a33) = model.transitions.tolist()

    alphas, scales = [], []
    p0, p1, p2, p3 = model.initial_probs.tolist()
    for b0, b1, b2, b3 in emissions:
        x0, x1, x2, x3 = p0 * b0, p1 * b1, p2 * b2, p3 * b3
        scale = x0 + x1 + x2 + x3
        if not smallest <= scale < largest:
            return _log_forward_backward(model, log_b)
        x0, x1, x2, x3 = x0 / scale, x1 / scale, x2 / scale, x3 / scale
        alphas.extend((x0, x1, x2, x3))
        scales.append(scale)
        p0 = x0 * a00 + x1 * a10 + x2 * a20 + x3 * a30
        p1 = x0 * a01 + x1 * a11 + x2 * a21 + x3 * a31
        p2 = x0 * a02 + x1 * a12 + x2 * a22 + x3 * a32
        p3 = x0 * a03 + x1 * a13 + x2 * a23 + x3 * a33

    y0 = y1 = y2 = y3 = 1.0
    betas = [y0, y1, y2, y3]
    for (b0, b1, b2, b3), scale in zip(emissions[:0:-1], scales[:0:-1]):
        w0, w1, w2, w3 = b0 * y0, b1 * y1, b2 * y2, b3 * y3
        y0 = (a00 * w0 + a01 * w1 + a02 * w2 + a03 * w3) / scale
        y1 = (a10 * w0 + a11 * w1 + a12 * w2 + a13 * w3) / scale
        y2 = (a20 * w0 + a21 * w1 + a22 * w2 + a23 * w3) / scale
        y3 = (a30 * w0 + a31 * w1 + a32 * w2 + a33 * w3) / scale
        betas.extend((y0, y1, y2, y3))

    # An overflowed beta on a zero alpha gives nan, which fails the check.
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = (np.fromiter(alphas, float).reshape(-1, NUM_STATES)
                 * np.fromiter(betas, float).reshape(-1, NUM_STATES)[::-1])
        norm = gamma.sum(axis=1)
        if np.all(np.abs(np.log(norm)) <= SPLIT_TOLERANCE):
            return gamma / norm[:, None], float(np.log(scales).sum() + shift.sum())
    return _log_forward_backward(model, log_b)


def _log_forward_backward(model: HmmModel, log_b: np.ndarray):
    """``_forward_backward``'s two passes in log space: exact where the
    scaled messages lose mass, and slower."""
    with np.errstate(divide="ignore"):
        log_pi, log_a = np.log(model.initial_probs), np.log(model.transitions)
    log_alpha, log_beta = np.empty(log_b.shape), np.zeros(log_b.shape)
    log_alpha[0] = log_pi + log_b[0]
    for t in range(1, len(log_b)):
        log_alpha[t] = (np.logaddexp.reduce(log_alpha[t - 1, :, None] + log_a)
                        + log_b[t])
    for t in range(len(log_b) - 2, -1, -1):
        log_beta[t] = np.logaddexp.reduce(
            log_a + (log_b[t + 1] + log_beta[t + 1]), axis=1)
    log_likelihood = float(np.logaddexp.reduce(log_alpha[-1]))
    if not math.isfinite(log_likelihood):
        return np.zeros(log_b.shape), -math.inf
    return np.exp(log_alpha + log_beta - log_likelihood), log_likelihood


def forward_log_likelihood(model: HmmModel, seq: ObservationSequence) -> float:
    """log p(O | theta) from the scaled forward-backward recursion."""
    model.validate()
    return _forward_backward(model, seq.steps)[1]


def viterbi_decode(model: HmmModel, seq: ObservationSequence) -> DecodedStates:
    """Most probable state path, log-space DP, ties to the lowest index.

    delta_t(j) = (delta_{t-1}(i*) + log a_{i* j}) + log b_t(j), where i*
    is the predecessor whose score beats every lower-indexed one
    strictly, so ties keep the lowest.
    """
    model.validate()
    emissions = _emission_log_matrix(model, seq.steps)
    if np.any(np.all(np.isinf(emissions) & (emissions < 0), axis=1)):
        raise NumericError(
            "emission underflow: an observation is impossible under every state")
    with np.errstate(divide="ignore"):
        log_pi, log_a = np.log(model.initial_probs), np.log(model.transitions)
    columns = log_a.T.tolist()
    later = range(1, NUM_STATES)

    delta = (log_pi + emissions[0]).tolist()
    backptr = []
    for emission in emissions[1:].tolist():
        pointers, scores = [], []
        for column, log_b in zip(columns, emission):
            best, arg = delta[0] + column[0], 0
            for i in later:
                score = delta[i] + column[i]
                if score > best:
                    best, arg = score, i
            pointers.append(arg)
            scores.append(best + log_b)
        backptr.append(pointers)
        delta = scores

    best = max(delta)
    if best == -math.inf:
        raise NumericError("every state path of the sequence is impossible")
    state = delta.index(best)
    path = [state]
    for pointers in reversed(backptr):
        state = pointers[state]
        path.append(state)
    return DecodedStates(np.array(path[::-1]) + 1, best)


def _validated_sequences(sequences) -> list[ObservationSequence]:
    sequences = list(sequences)
    if not sequences:
        raise ValidationError("at least one observation sequence is required")
    if not all(isinstance(seq, ObservationSequence) for seq in sequences):
        raise ValidationError("sequences must be ObservationSequence instances")
    return sequences


def _m_step(model: HmmModel, gamma: np.ndarray, steps: np.ndarray,
            scatter: np.ndarray) -> HmmModel:
    """Rabiner's (1989) re-estimation of the state means and the shared
    covariance from the masses sum_t gamma_t, the sums gamma^T O of the
    pooled steps O and their scatter O^T O (each row of gamma sums to 1);
    pi and A are copied. The result passes ``HmmModel.validate``."""
    gamma_sum, gamma_obs = gamma.sum(axis=0), gamma.T @ steps
    # Empty-state rule: keep the previous mean below the mass floor.
    filled = gamma_sum >= EMPTY_STATE_MASS
    new_means = model.state_means.copy()
    new_means[filled] = gamma_obs[filled] / gamma_sum[filled, None]

    # Shared covariance pooled over all states around the new means:
    # O^T O - sum_i (mu_i s1_i^T + s1_i mu_i^T - g_i mu_i mu_i^T).
    cross = new_means.T @ gamma_obs
    cov = scatter - cross - cross.T + (new_means.T * gamma_sum) @ new_means
    cov /= float(steps.shape[0])
    cov = 0.5 * (cov + cov.T)
    cov += COVARIANCE_JITTER * (np.trace(cov) / 2.0) * np.eye(OBS_DIM)
    min_eig = float(np.min(np.linalg.eigvalsh(cov)))
    if min_eig < MIN_COVARIANCE_EIGENVALUE:
        # An exact shift can round below the floor; the margin covers
        # its rounding and that of validate's eigvalsh, ~eps * tr(cov).
        cov += ((MIN_COVARIANCE_EIGENVALUE - min_eig) * (1.0 + 1e-6)
                + 8.0 * sys.float_info.epsilon * np.trace(cov)) * np.eye(OBS_DIM)

    return HmmModel(initial_probs=model.initial_probs.copy(),
                    transitions=model.transitions.copy(),
                    state_means=new_means, shared_covariance=cov)


def baum_welch_fit(init: HmmModel, sequences,
                   config: BaumWelchConfig | None = None) -> HmmModel:
    """EM for the emission parameters (state means and shared covariance);
    the expert pi and A of ``init`` are kept unchanged, and every M-step
    reads the one scatter O^T O of the pooled steps O.

    Returns the refined model with the total log-likelihood of every
    E-step in ``log_likelihood_trace``: the initial model's first, then
    one per M-step; the trace is non-decreasing up to 1e-9 slack.
    """
    config = config or BaumWelchConfig()
    config.validate()
    init.validate()
    sequences = _validated_sequences(sequences)

    model = init.copy()
    steps = np.concatenate([seq.steps for seq in sequences])
    scatter = None
    trace: list[float] = []
    for iteration in range(config.max_iterations + 1):
        passes = [_forward_backward(model, seq.steps) for seq in sequences]
        ll = sum(ll for _, ll in passes)
        if not math.isfinite(ll):
            raise NumericError(
                f"non-finite log-likelihood in EM iteration {iteration}")
        trace.append(ll)
        if iteration == config.max_iterations or (
                iteration > 0 and abs(trace[-1] - trace[-2])
                <= config.tol * max(1.0, abs(trace[-2]))):
            break
        # Formed after a finite likelihood: an overflowing step is impossible.
        scatter = steps.T @ steps if scatter is None else scatter
        model = _m_step(model, np.concatenate([g for g, _ in passes]),
                        steps, scatter)
    model.log_likelihood_trace = trace
    return model


def anomalous_segments(states, time_grid) -> list[dict]:
    """Maximal runs of abnormal states as the segment report's
    ``{"start_time", "end_time", "state_label"}`` entries, in time order.

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

    # The abnormal mask flips at the start of each run and one past its
    # end; a run holds only states 3 and 4, so "s3" wins on 2 * n3 >= length.
    edges = np.flatnonzero(np.diff(np.isin(states, ABNORMAL_STATES),
                                   prepend=False, append=False))
    starts, stops = edges[0::2], edges[1::2]
    threes = np.concatenate(([0], np.cumsum(states == 3)))
    labels = np.where(2 * (threes[stops] - threes[starts]) >= stops - starts,
                      "s3", "s4")
    return [{"start_time": start, "end_time": end, "state_label": label}
            for start, end, label in zip(grid[starts].tolist(),
                                         grid[stops - 1].tolist(),
                                         labels.tolist())]
