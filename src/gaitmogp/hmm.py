"""Four-state Gaussian-emission HMM over bilateral ankle signals.

States 1 and 2 model normal stance/swing, states 3 and 4 their abnormal
counterparts. Emissions are bivariate Gaussians N(mu_i, Sigma) with one
covariance shared across states. Initial and transition probabilities
are expert values favoring the normal states; EM refines the emissions
only.

Likelihoods and EM statistics come from one forward-backward kernel:
Rabiner's (1989) scaled messages, computed as a blocked prefix product
(Blelloch 1990). The T - 1 transitions fall into about sqrt(T) blocks
of about sqrt(T) steps. One stacked numpy matmul per in-block step
advances the unscaled forward and backward products of every block, and
one matmul per block advances the two boundary messages, each divided
by its sum, across it. Where the messages still lose mass, which shows
as a zero, subnormal or non-finite boundary sum or as a row sum
sum_i alpha_t(i) beta_t(i) whose log, with the boundary scales, strays
from log p, the same two passes rerun in log space. Viterbi is a
log-space recursion on Python floats, unrolled over the four states.
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
from .gait_signal import cycle_grid

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

# Largest gap between log p and the log of a row sum
# sum_i alpha_t(i) beta_t(i) of the blocked forward-backward, with both
# messages' boundary log scales, that is taken as rounding; the two are
# equal in exact arithmetic, so a larger gap means a block product or a
# message lost mass to underflow (rounding measured below 4.2e-11 over
# 229 sequences at T = 4000 with |log p| up to 7.8e5).
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
    """Bilateral ankle observations o(t) = [right y, left y] on cycle_grid(T)."""

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
    if (isinstance(state, bool) or not isinstance(state, (int, np.integer))
            or not 1 <= state <= NUM_STATES):
        raise ValidationError(f"state index must be in 1..4, got {state!r}")
    obs = np.asarray(obs, dtype=float).ravel()
    if obs.shape != (OBS_DIM,):
        raise ValidationError("observation must be a 2-vector")
    if not np.all(np.isfinite(obs)):
        raise ValidationError("observation must be finite")
    return float(_emission_log_matrix(model, obs[None, :])[0, state - 1])


def _forward_backward(model: HmmModel, steps: np.ndarray):
    """(gamma, log p(O | theta)) by Rabiner's (1989) scaled messages,
    computed as a blocked prefix product (Blelloch 1990).

    With b_t the emission densities of step t divided by their largest
    one (the emission shift) and M_t = A diag(b_t), the forward message
    is alpha_t = alpha_0 M_1 ... M_t from alpha_0 = pi o b_0, and the
    backward one is beta_t = M_{t+1} ... M_{T-1} 1. The T - 1 transitions
    fall into K blocks of L = floor(sqrt(T - 1)) steps, the last one
    padded with identities. One stacked matmul per in-block step advances
    every block's prefix product of the M_t (forward) and its suffix
    product of the M_t^T (backward), unscaled. A backward product is the
    transpose of a forward one, and the rows of every M_t sum to at most
    1, so every entry lies in [0, 1]: a product can underflow, never
    overflow.
    The boundary messages, alpha at t = 0, L, ..., KL and beta at
    t = KL, ..., L, 0, advance as one stack: each is divided by its sum
    s_k, then one matmul per block multiplies it by its side's block
    product. One batched product of the boundary messages with the
    in-block products gives alpha_t and beta_t at every t, each with its
    boundary's log scale log s_0 + ... + log s_k. log p(O | theta) is
    then the forward side's last log scale plus the emission shifts;
    log sum_i alpha_t(i) beta_t(i) with both messages' log scales equals
    it at every t (the Rabiner identity), and gamma_t is alpha_t o beta_t
    over its row sum.

    The messages can still lose mass: the shift may leave only states
    that A cannot reach with a nonzero b, a state that matters later may
    sit more than the float range below another in a block's product or
    in a boundary message, a whole block product may underflow, or a
    possible state's b may itself fall below the normal floats, which no
    scale or row sum shows. Then some b_t with a finite log is zero or
    subnormal, some boundary sum s_k is zero, subnormal or not finite, or
    some row sum's log with the boundary scales is further than
    ``SPLIT_TOLERANCE`` from log p, and the same two passes run in log
    space (``_log_forward_backward``), which cannot underflow and is
    slower. An impossible sequence gives -inf and zero statistics.
    """
    log_b = _emission_log_matrix(model, steps)
    shift = log_b.max(axis=1)
    shift[np.isinf(shift)] = 0.0     # impossible under every state: b = 0
    emissions = np.exp(log_b - shift[:, None])
    # A finite log-emission more than ~708 nats below its step's best
    # leaves a b below the normal floats, and with it a state that no
    # scale or row sum shows lost.
    if np.any((emissions < sys.float_info.min) & np.isfinite(log_b)):
        return _log_forward_backward(model, log_b)

    count = len(emissions) - 1
    length = max(math.isqrt(count), 1)
    blocks = -(-count // length)
    padded = np.empty((blocks * length, NUM_STATES, NUM_STATES))
    np.multiply(model.transitions, emissions[1:, None, :], out=padded[:count])
    padded[count:] = np.eye(NUM_STATES)
    padded = padded.reshape(blocks, length, NUM_STATES, NUM_STATES)
    # Step j of forward chain k is M_{kL+j+1}; step j of backward chain
    # k is M_{(K-k)L-j}^T, so chain k of either side ends at boundary k+1.
    factors = np.empty((length, 2, blocks, NUM_STATES, NUM_STATES))
    factors[:, 0] = padded.transpose(1, 0, 2, 3)
    factors[:, 1] = padded[::-1, ::-1].transpose(1, 0, 3, 2)
    products = np.empty_like(factors)
    # Boundary messages: alpha at t = kL and beta at t = (K - k)L, each
    # divided by its sum s_k before its side's block product advances it.
    messages = np.empty((blocks + 1, 2, 1, NUM_STATES))
    messages[0, 0] = model.initial_probs * emissions[0]
    messages[0, 1] = 1.0
    scales = np.empty((blocks + 1, 2, 1, 1))
    previous = np.eye(NUM_STATES)
    with np.errstate(divide="ignore", invalid="ignore"):
        for factor, product in zip(factors, products):
            previous = np.matmul(previous, factor, out=product)
        for k in range(blocks + 1):
            np.add.reduce(messages[k], axis=2, keepdims=True, out=scales[k])
            messages[k] /= scales[k]
            if k < blocks:
                np.matmul(messages[k], products[-1, :, k],
                          out=messages[k + 1])
    if not np.all((scales >= sys.float_info.min) & (scales < math.inf)):
        return _log_forward_backward(model, log_b)
    # Each chain's message after in-block step j is its boundary message
    # times its product j: (2, K, L, 4), in one batched product. Its log
    # scale is the boundary's, log s_0 + ... + log s_k.
    paths = products.transpose(1, 2, 3, 0, 4).reshape(
        2, blocks, NUM_STATES, length * NUM_STATES)
    inner = (messages[:-1].transpose(1, 0, 2, 3) @ paths).reshape(
        2, blocks, length, NUM_STATES)
    logs = np.cumsum(np.log(scales[:, :, 0, 0]), axis=0)
    size = len(emissions)
    alpha = np.concatenate(
        (messages[:1, 0, 0], inner[0].reshape(-1, NUM_STATES)))[:size]
    beta = np.concatenate((inner[1, ::-1, ::-1].reshape(-1, NUM_STATES),
                           messages[:1, 1, 0]))[:size]
    log_scales = (
        np.concatenate((logs[:1, 0], np.repeat(logs[:-1, 0], length)))[:size]
        + np.concatenate((np.repeat(logs[-2::-1, 1], length),
                          logs[:1, 1]))[:size])
    log_likelihood = float(logs[-1, 0])
    with np.errstate(divide="ignore"):
        gamma = alpha * beta
        norm = gamma.sum(axis=1)
        if np.all(np.abs(np.log(norm) + log_scales - log_likelihood)
                  <= SPLIT_TOLERANCE):
            return gamma / norm[:, None], log_likelihood + float(shift.sum())
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
    """log p(O | theta) from ``_forward_backward``, the kernel that EM
    runs too."""
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
    # Four states, unrolled: named floats cost less per step than a loop
    # or numpy calls on 4-vectors. Each score is (delta_i + log a_ij)
    # + log b_j, and a later i must beat it strictly.
    (a00, a01, a02, a03), (a10, a11, a12, a13), \
        (a20, a21, a22, a23), (a30, a31, a32, a33) = log_a.tolist()
    d0, d1, d2, d3 = (log_pi + emissions[0]).tolist()
    backptr = []
    for b0, b1, b2, b3 in emissions[1:].tolist():
        s0, i0 = d0 + a00, 0
        if (score := d1 + a10) > s0:
            s0, i0 = score, 1
        if (score := d2 + a20) > s0:
            s0, i0 = score, 2
        if (score := d3 + a30) > s0:
            s0, i0 = score, 3
        s1, i1 = d0 + a01, 0
        if (score := d1 + a11) > s1:
            s1, i1 = score, 1
        if (score := d2 + a21) > s1:
            s1, i1 = score, 2
        if (score := d3 + a31) > s1:
            s1, i1 = score, 3
        s2, i2 = d0 + a02, 0
        if (score := d1 + a12) > s2:
            s2, i2 = score, 1
        if (score := d2 + a22) > s2:
            s2, i2 = score, 2
        if (score := d3 + a32) > s2:
            s2, i2 = score, 3
        s3, i3 = d0 + a03, 0
        if (score := d1 + a13) > s3:
            s3, i3 = score, 1
        if (score := d2 + a23) > s3:
            s3, i3 = score, 2
        if (score := d3 + a33) > s3:
            s3, i3 = score, 3
        backptr.append((i0, i1, i2, i3))
        d0, d1, d2, d3 = s0 + b0, s1 + b1, s2 + b2, s3 + b3

    delta = [d0, d1, d2, d3]
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


def anomalous_segments(states) -> list[dict]:
    """Maximal runs of abnormal states as the segment report's
    ``{"start_time", "end_time", "state_label"}`` entries, in time order.

    ``states`` is a (T,) path of 1-based state indices over one cycle,
    such as ``DecodedStates.states``. Contiguous steps in state 3 or 4
    merge into one segment; start/end are the ``cycle_grid(T)`` times of
    the first and last step of the run and the label is the majority
    state within it ("s3" on ties).
    """
    states = np.asarray(states)
    if states.ndim != 1:
        raise ValidationError(
            f"states must be one-dimensional, got shape {states.shape}")
    grid = cycle_grid(states.shape[0])

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
