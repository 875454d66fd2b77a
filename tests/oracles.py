"""Independent reference implementations used by the test suite.

Everything here is written the slow, obvious way on purpose: arbitrary
precision arithmetic for kernel values, one dense dK/dtheta matrix per
kernel parameter, dense matrix inversion for GP posteriors, exhaustive
path enumeration for HMM likelihoods and DTW, the step-by-step
log-space HMM forward-backward recursion, a step-by-step run finder
for the anomalous segments, the row-by-row DTW
recurrence, one channel at a time for the preprocessing chain, one
line at a time with nested dicts for the corpus reader and one row at a
time for the corpus writer; peak finding is checked against
``scipy.signal.find_peaks`` itself. None of it shares code with the
package beyond reading plain parameter values off a model's ``theta``
by their ``mogp.parameter_names`` and off the other public dataclasses,
so agreement is meaningful. The exceptions are these. The corpus reader
hands the raw cycles it parsed to the package's own preprocessing
(``dataio._build_record``): only the parsing and its errors are checked
by it. ``per_step_fit`` starts from ``mogp.initialize_model`` and builds
a ``mogp.MoGPModel`` per Adam step, the fit as it ran with a model per
step, and ``viterbi_numpy`` takes the package's emission matrix: only
the evaluation and the Adam loop, and only the Viterbi recursion, are
checked by them, exactly.
"""

from __future__ import annotations

import math
import os

import mpmath as mp
import numpy as np
from scipy.signal import butter, filtfilt
from scipy.signal import find_peaks as scipy_find_peaks
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from gaitmogp.dataio import COHORTS, CSV_HEADER, _build_record
from gaitmogp.errors import ValidationError
from gaitmogp.gait_signal import (CHANNELS, DEFAULT_FILTER_CUTOFF_HZ,
                                  DEFAULT_GRID_POINTS, JOINTS, SIDES)
from gaitmogp.serialize import read_text

mp.mp.dps = 50

PARAM_FLOOR = 1e-10


# ---------------------------------------------------------------------------
# Kernel closed forms (arbitrary precision).

def se_value(variance, lengthscale, t, t_prime) -> mp.mpf:
    d = mp.mpf(t) - mp.mpf(t_prime)
    ell = mp.mpf(lengthscale)
    return mp.mpf(variance) * mp.e ** (-d * d / (2 * ell * ell))


def matern32_value(variance, lengthscale, t, t_prime) -> mp.mpf:
    r = abs(mp.mpf(t) - mp.mpf(t_prime))
    a = mp.sqrt(3) * r / mp.mpf(lengthscale)
    return mp.mpf(variance) * (1 + a) * mp.e ** (-a)


def periodic_value(variance, lengthscale, period, t, t_prime) -> mp.mpf:
    r = abs(mp.mpf(t) - mp.mpf(t_prime))
    s = mp.sin(mp.pi * r / mp.mpf(period))
    ell = mp.mpf(lengthscale)
    return mp.mpf(variance) * mp.e ** (-2 * s * s / (ell * ell))


def composite_value(periodic, se, matern32, t, t_prime) -> mp.mpf:
    """Composite kernel from natural-space triples.

    ``periodic`` is (variance, lengthscale, period); ``se`` and
    ``matern32`` are (variance, lengthscale).
    """
    return (periodic_value(periodic[0], periodic[1], periodic[2], t, t_prime)
            + se_value(se[0], se[1], t, t_prime)
            + matern32_value(matern32[0], matern32[1], t, t_prime))


# ---------------------------------------------------------------------------
# Float covariance construction shared by the GP oracles.

def parameter_values(theta, num_outputs: int, rank: int) -> dict:
    """The entries of a packed parameter vector by their
    ``mogp.parameter_names``, plus "w" (num_outputs, rank), "log_kappa"
    and, when theta reaches them, "means", gathered by name. Entries
    past the end of theta are left out."""
    from gaitmogp.mogp import parameter_names

    values = dict(zip(parameter_names(num_outputs, rank),
                      np.asarray(theta, dtype=float).tolist()))
    outputs = range(num_outputs)
    values["w"] = np.array([[values[f"coreg.w[{i},{j}]"] for j in range(rank)]
                            for i in outputs])
    values["log_kappa"] = np.array([values[f"coreg.log_kappa[{i}]"]
                                    for i in outputs])
    if "mean[0]" in values:
        values["means"] = np.array([values[f"mean[{i}]"] for i in outputs])
    return values


def model_values(model) -> dict:
    """parameter_values of a MoGPModel's theta."""
    return parameter_values(model.theta, model.num_outputs, model.config.rank)


def _natural_kernel(model):
    """Natural-space kernel constants of a MoGPModel, with the floor."""
    p = model_values(model)

    def positive(name: str) -> float:
        return max(math.exp(p[name]), PARAM_FLOOR)

    return {
        "per": (positive("periodic.log_variance"),
                positive("periodic.log_lengthscale"),
                positive("periodic.log_period")),
        "se": (positive("se.log_variance"), positive("se.log_lengthscale")),
        "mat": (positive("matern32.log_variance"),
                positive("matern32.log_lengthscale")),
        "b": p["w"] @ p["w"].T
             + np.diag(np.maximum(np.exp(p["log_kappa"]), PARAM_FLOOR)),
        "noise": positive("log_noise_variance"),
        "means": p["means"],
    }


def _temporal_value(constants, t: float, t_prime: float) -> float:
    pv, pl, pp = constants["per"]
    sv, sl = constants["se"]
    mv, ml = constants["mat"]
    r = abs(t - t_prime)
    sin_term = math.sin(math.pi * r / pp)
    per = pv * math.exp(-2.0 * sin_term * sin_term / (pl * pl))
    se = sv * math.exp(-r * r / (2.0 * sl * sl))
    a = math.sqrt(3.0) * r / ml
    mat = mv * (1.0 + a) * math.exp(-a)
    return per + se + mat


def dense_covariance(model, times, outputs) -> np.ndarray:
    """ICM covariance built entry by entry from the closed forms."""
    constants = _natural_kernel(model)
    times = np.asarray(times, dtype=float)
    outputs = np.asarray(outputs, dtype=int)
    n = times.shape[0]
    cov = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            cov[i, j] = constants["b"][outputs[i], outputs[j]] \
                * _temporal_value(constants, times[i], times[j])
    return cov


def dense_lml(model) -> float:
    """Log marginal likelihood via explicit inversion and slogdet."""
    constants = _natural_kernel(model)
    training = model.training
    cov = dense_covariance(model, training.times, training.outputs)
    cov = cov + constants["noise"] * np.eye(training.size)
    centered = training.values - constants["means"][training.outputs]
    inv = np.linalg.inv(cov)
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    n = training.size
    return float(-0.5 * centered @ inv @ centered - 0.5 * logdet
                 - 0.5 * n * math.log(2.0 * math.pi))


def dense_posterior(model, query_times, output: int):
    """Posterior mean and variance (noise included) for one output."""
    constants = _natural_kernel(model)
    training = model.training
    cov = dense_covariance(model, training.times, training.outputs)
    cov = cov + constants["noise"] * np.eye(training.size)
    inv = np.linalg.inv(cov)
    centered = training.values - constants["means"][training.outputs]

    b = constants["b"]
    query = np.asarray(query_times, dtype=float).ravel()
    mean = np.empty(query.shape[0])
    var = np.empty(query.shape[0])
    for qi, tq in enumerate(query):
        k_star = np.array([
            b[output, training.outputs[i]]
            * _temporal_value(constants, tq, training.times[i])
            for i in range(training.size)])
        prior = b[output, output] * _temporal_value(constants, tq, tq)
        mean[qi] = constants["means"][output] + k_star @ inv @ centered
        var[qi] = prior + constants["noise"] - k_star @ inv @ k_star
    return mean, var


def _floored_exp_with_grad(log_value):
    raw = np.exp(log_value)
    return np.maximum(raw, PARAM_FLOOR), np.where(raw > PARAM_FLOOR, raw, 0.0)


def kernel_gradients(theta, num_outputs: int, rank: int, times,
                     outputs) -> dict[str, np.ndarray]:
    """Dense dK/dtheta, one (n, n) matrix per unconstrained parameter of
    the kernel and B, read by name off the packed ``theta`` (at least its
    7 + num_outputs * (rank + 1) kernel, W and log kappa entries).

    Keyed and ordered like those entries of ``mogp.parameter_names``:
    log-space derivatives for the positive parameters (zero where the
    floor is active), natural space for W. The per-parameter reference
    for the contracted gradient in the package.
    """
    p = parameter_values(theta, num_outputs, rank)
    times = np.asarray(times, dtype=float).ravel()
    outputs = np.asarray(outputs, dtype=int).ravel()
    d = times[:, None] - times[None, :]
    r = np.abs(d)

    per_var, dper_var = _floored_exp_with_grad(p["periodic.log_variance"])
    per_len, dper_len = _floored_exp_with_grad(p["periodic.log_lengthscale"])
    per_p, dper_p = _floored_exp_with_grad(p["periodic.log_period"])
    se_var, dse_var = _floored_exp_with_grad(p["se.log_variance"])
    se_len, dse_len = _floored_exp_with_grad(p["se.log_lengthscale"])
    mat_var, dmat_var = _floored_exp_with_grad(p["matern32.log_variance"])
    mat_len, dmat_len = _floored_exp_with_grad(p["matern32.log_lengthscale"])

    # Periodic: d/d log l = k 4 sin^2(u) / l^2, d/d log p = k 2 u sin(2u) / l^2.
    u = np.pi * r / per_p
    sin_u = np.sin(u)
    k_per = per_var * np.exp(-2.0 * sin_u * sin_u / (per_len * per_len))
    g_per_len = k_per * (4.0 * sin_u * sin_u / (per_len * per_len))
    g_per_len *= dper_len / per_len
    g_per_p = k_per * (2.0 * u * np.sin(2.0 * u) / (per_len * per_len))
    g_per_p *= dper_p / per_p

    sq = d * d
    k_se = se_var * np.exp(-0.5 * sq / (se_len * se_len))
    g_se_len = k_se * (sq / (se_len * se_len))
    g_se_len *= dse_len / se_len

    # Matern 3/2: d/da [(1+a) e^-a] = -a e^-a and da/d log l = -a.
    a = math.sqrt(3.0) * r / mat_len
    exp_a = np.exp(-a)
    k_mat = mat_var * (1.0 + a) * exp_a
    g_mat_len = mat_var * a * a * exp_a
    g_mat_len *= dmat_len / mat_len

    temporal = k_per + k_se + k_mat
    w = p["w"]
    kappa, dkappa = _floored_exp_with_grad(p["log_kappa"])
    b_oo = (w @ w.T + np.diag(kappa))[np.ix_(outputs, outputs)]

    grads: dict[str, np.ndarray] = {
        "periodic.log_variance": b_oo * k_per * (dper_var / per_var),
        "periodic.log_lengthscale": b_oo * g_per_len,
        "periodic.log_period": b_oo * g_per_p,
        "se.log_variance": b_oo * k_se * (dse_var / se_var),
        "se.log_lengthscale": b_oo * g_se_len,
        "matern32.log_variance": b_oo * k_mat * (dmat_var / mat_var),
        "matern32.log_lengthscale": b_oo * g_mat_len,
    }

    # dB[a,b]/dW[m,r] = 1[a=m] W[b,r] + 1[b=m] W[a,r].
    num_outputs, rank = w.shape
    w_at_points = w[outputs, :]
    for m in range(num_outputs):
        sel = (outputs == m).astype(float)
        for j in range(rank):
            v = w_at_points[:, j]
            db = np.outer(sel, v) + np.outer(v, sel)
            grads[f"coreg.w[{m},{j}]"] = db * temporal
    for m in range(num_outputs):
        sel = (outputs == m).astype(float)
        grads[f"coreg.log_kappa[{m}]"] = np.outer(sel, sel) * temporal * dkappa[m]
    return grads


class PerStepEvaluation:
    """The LML of one MoGPModel and its gradient, computed as ``mogp``
    did when its fit built a model per Adam step: every positive
    parameter floored by its own scalar call on its named entry, the
    kernel components on the distinct training lags (from ``np.unique``),
    then either eigh of the (n, n) B_oo o K_t, or, when every output has
    the same times, eigh of B and of K_t. It repeats the package's
    arithmetic operation for operation, so the package must agree with
    it exactly."""

    def __init__(self, model):
        training = model.training
        m, times = training.num_outputs, training.times
        outputs = np.asarray(training.outputs, dtype=int)
        blocks = times.reshape(m, -1) if times.size % m == 0 else None
        self.kronecker = bool(
            blocks is not None
            and np.array_equal(outputs, np.repeat(np.arange(m), blocks.shape[1]))
            and (blocks == blocks[0]).all())
        if self.kronecker:
            times = blocks[0]
        lags, inverse = np.unique(
            np.abs(times[:, None] - times[None, :]).ravel(),
            return_inverse=True)
        self.model, self.outputs, self.lags = model, outputs, lags
        self.lag_index = inverse.reshape(times.size, times.size)

        p = self.p = model_values(model)
        per_len = _floored_value(p["periodic.log_lengthscale"])
        self.u = np.pi * lags / _floored_value(p["periodic.log_period"])
        self.sin_u = np.sin(self.u)
        self.k_per = _floored_value(p["periodic.log_variance"]) * np.exp(
            -2.0 * self.sin_u * self.sin_u / (per_len * per_len))
        se_len = _floored_value(p["se.log_lengthscale"])
        self.k_se = _floored_value(p["se.log_variance"]) * np.exp(
            -0.5 * (lags * lags) / (se_len * se_len))
        self.a = math.sqrt(3.0) * lags / _floored_value(
            p["matern32.log_lengthscale"])
        self.exp_a = np.exp(-self.a)
        self.k_mat = (_floored_value(p["matern32.log_variance"])
                      * (1.0 + self.a) * self.exp_a)
        self.k_t = (self.k_per + self.k_se + self.k_mat)[self.lag_index]

        self.b = p["w"] @ p["w"].T + np.diag(_floored_value(p["log_kappa"]))
        noise = float(_floored_value(p["log_noise_variance"]))
        y_c = training.values - p["means"][outputs]
        log_2pi = math.log(2.0 * math.pi)
        if self.kronecker:
            self.lam_b, self.u_b = _clamped_eigh(self.b)
            self.lam_t, self.u_t = _clamped_eigh(self.k_t)
            self.d = np.outer(self.lam_b, self.lam_t) + noise
            y_c = y_c.reshape(m, -1)
            rotated = self.u_b.T @ y_c @ self.u_t
            scaled = rotated / self.d
            self.alpha = self.u_b @ scaled @ self.u_t.T
            self.lml = float(-0.5 * np.vdot(rotated, scaled)
                             - 0.5 * np.sum(np.log(self.d))
                             - 0.5 * y_c.size * log_2pi)
        else:
            self.b_oo = self.b[np.ix_(outputs, outputs)]
            lam, self.u_k = _clamped_eigh(self.b_oo * self.k_t)
            self.d = lam + noise
            rotated = self.u_k.T @ y_c
            scaled = rotated / self.d
            self.alpha = self.u_k @ scaled
            self.lml = float(-0.5 * np.vdot(rotated, scaled)
                             - 0.5 * np.sum(np.log(self.d))
                             - 0.5 * y_c.size * log_2pi)

    def gradient(self) -> np.ndarray:
        model, alpha = self.model, self.alpha
        if self.kronecker:
            inv_d = 1.0 / self.d
            weight = alpha.T @ self.b @ alpha
            weight -= (self.u_t * (self.lam_b @ inv_d)) @ self.u_t.T
            s = alpha @ self.k_t @ alpha.T
            s -= (self.u_b * (inv_d @ self.lam_t)) @ self.u_b.T
            alpha_sums = alpha.sum(axis=1)
            noise_term = np.vdot(alpha, alpha) - inv_d.sum()
        else:
            weight = np.outer(alpha, alpha)
            weight -= (self.u_k / self.d) @ self.u_k.T
            e = np.eye(model.num_outputs)[self.outputs]
            s = e.T @ ((weight * self.k_t) @ e)
            weight *= self.b_oo
            alpha_sums = np.bincount(self.outputs, weights=alpha,
                                     minlength=model.num_outputs)
            noise_term = np.vdot(alpha, alpha) - (1.0 / self.d).sum()
        w = np.bincount(self.lag_index.ravel(), weights=weight.ravel(),
                        minlength=self.lags.size)

        p = self.p
        weighted_per = w * self.k_per
        per_len2 = _floored_value(p["periodic.log_lengthscale"]) ** 2
        se_len2 = _floored_value(p["se.log_lengthscale"]) ** 2
        u, sin_u, a = self.u, self.sin_u, self.a

        def rel(name: str):
            return _relative_derivative(p[name])

        kernel = np.array([
            np.vdot(w, self.k_per) * rel("periodic.log_variance"),
            np.vdot(weighted_per, sin_u * sin_u) * 4.0 / per_len2
            * rel("periodic.log_lengthscale"),
            np.vdot(weighted_per, u * np.sin(2.0 * u)) * 2.0 / per_len2
            * rel("periodic.log_period"),
            np.vdot(w, self.k_se) * rel("se.log_variance"),
            np.vdot(w, self.k_se * (self.lags * self.lags)) / se_len2
            * rel("se.log_lengthscale"),
            np.vdot(w, self.k_mat) * rel("matern32.log_variance"),
            np.vdot(w, a * a * self.exp_a)
            * float(_floored_value(p["matern32.log_variance"]))
            * rel("matern32.log_lengthscale"),
        ])
        half_s = 0.5 * s
        _, dkappa = _floored_exp_with_grad(p["log_kappa"])
        _, dnoise = _floored_exp_with_grad(p["log_noise_variance"])
        return np.concatenate([
            0.5 * kernel,
            np.concatenate([((half_s + half_s.T) @ p["w"]).ravel(),
                            np.diag(half_s) * dkappa]),
            alpha_sums,
            [0.5 * dnoise * noise_term],
        ])


def _floored_value(log_value):
    return np.maximum(np.exp(log_value), PARAM_FLOOR)


def _relative_derivative(log_value):
    value, grad = _floored_exp_with_grad(log_value)
    return grad / value


def _clamped_eigh(matrix: np.ndarray):
    assert np.isfinite(matrix).all()
    values, vectors = np.linalg.eigh(matrix)
    return np.maximum(values, 0.0), vectors


def per_step_fit(training, config):
    """(LML trace, packed parameters of the best iterate) of
    ``mogp.fit`` as it ran with one MoGPModel and one PerStepEvaluation
    per Adam step; Adam's constants are read from ``mogp``."""
    from gaitmogp import mogp

    theta = mogp.initialize_model(training, config).theta
    decay_mask = np.array(
        [not name.startswith("mean[") for name in mogp.parameter_names(
            training.num_outputs, config.rank)], dtype=float)
    m_state = np.zeros_like(theta)
    v_state = np.zeros_like(theta)
    trace, stall, last = [], 0, config.iterations
    for iteration in range(config.iterations + 1):
        step = PerStepEvaluation(
            mogp.MoGPModel(theta=theta, training=training, config=config))
        trace.append(step.lml)
        if iteration == 0 or step.lml > best_lml:
            best_lml, best_theta = step.lml, theta
        if iteration == last:
            break
        grad = step.gradient()
        grad = grad - config.weight_decay * decay_mask * theta
        m_state = mogp.ADAM_BETA1 * m_state + (1.0 - mogp.ADAM_BETA1) * grad
        v_state = (mogp.ADAM_BETA2 * v_state
                   + (1.0 - mogp.ADAM_BETA2) * grad * grad)
        m_hat = m_state / (1.0 - mogp.ADAM_BETA1 ** (iteration + 1))
        v_hat = v_state / (1.0 - mogp.ADAM_BETA2 ** (iteration + 1))
        theta = theta + config.learning_rate * m_hat / (
            np.sqrt(v_hat) + mogp.ADAM_EPSILON)
        if iteration > 0 and abs(step.lml - trace[-2]) < mogp.EARLY_STOP_TOL:
            stall += 1
        else:
            stall = 0
        if stall >= mogp.EARLY_STOP_PATIENCE:
            last = iteration + 1
    return trace, best_theta


def central_difference(func, theta: np.ndarray, step: float) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for i in range(theta.shape[0]):
        high = theta.copy()
        low = theta.copy()
        high[i] += step
        low[i] -= step
        grad[i] = (func(high) - func(low)) / (2.0 * step)
    return grad


def sample_mogp(constants_model, times, outputs, rng: np.random.Generator):
    """Draw latent f and noisy y from the model's prior (mean included)."""
    cov = dense_covariance(constants_model, times, outputs)
    jitter = 1e-10 * float(np.mean(np.diag(cov)))
    chol = np.linalg.cholesky(cov + jitter * np.eye(cov.shape[0]))
    latent = chol @ rng.standard_normal(cov.shape[0])
    constants = _natural_kernel(constants_model)
    latent = latent + constants["means"][np.asarray(outputs, dtype=int)]
    noise_std = math.sqrt(constants["noise"])
    observed = latent + noise_std * rng.standard_normal(latent.shape[0])
    return latent, observed


# ---------------------------------------------------------------------------
# HMM references.

def hmm_log_emissions(means, covariance, steps) -> np.ndarray:
    """(T, S) log emission densities via scipy's multivariate normal."""
    steps = np.asarray(steps, dtype=float)
    return np.column_stack([
        multivariate_normal(mean=means[i], cov=covariance).logpdf(steps)
        for i in range(means.shape[0])])


def _hmm_path_scores(initial, transitions, means, covariance, steps):
    """Every state path (T, S**T) and its joint log score."""
    initial = np.asarray(initial, dtype=float)
    transitions = np.asarray(transitions, dtype=float)
    steps = np.atleast_2d(np.asarray(steps, dtype=float))
    t_len = steps.shape[0]
    num_states = initial.shape[0]

    log_b = hmm_log_emissions(np.asarray(means, dtype=float),
                              np.asarray(covariance, dtype=float), steps)
    if log_b.ndim == 1:
        log_b = log_b[None, :]
    with np.errstate(divide="ignore"):
        log_pi = np.log(initial)
        log_a = np.log(transitions)

    paths = np.indices((num_states,) * t_len).reshape(t_len, -1)
    scores = log_pi[paths[0]] + log_b[0, paths[0]]
    for t in range(1, t_len):
        scores = scores + log_a[paths[t - 1], paths[t]] + log_b[t, paths[t]]

    finite = scores[np.isfinite(scores)]
    if finite.size == 0:
        raise ValueError("every path has zero probability")
    peak = float(np.max(finite))
    log_likelihood = peak + math.log(float(np.sum(np.exp(scores - peak))))
    return paths, scores, log_likelihood


def hmm_enumerate(initial, transitions, means, covariance, steps):
    """Exact log-likelihood and best path by summing over every path."""
    paths, scores, log_likelihood = _hmm_path_scores(
        initial, transitions, means, covariance, steps)
    best = int(np.argmax(scores))
    return log_likelihood, paths[:, best] + 1


def hmm_enumerate_posteriors(initial, transitions, means, covariance, steps):
    """Posterior state marginals gamma (T, S), each path weighted by
    p(path | O)."""
    paths, scores, log_likelihood = _hmm_path_scores(
        initial, transitions, means, covariance, steps)
    num_states = np.asarray(initial).shape[0]
    weights = np.exp(scores - log_likelihood)
    gamma = np.zeros((paths.shape[0], num_states))
    for t in range(paths.shape[0]):
        gamma[t] = np.bincount(paths[t], weights=weights,
                               minlength=num_states)
    return gamma


def hmm_log_forward_backward(initial, transitions, means, covariance, steps):
    """log p(O) and the posterior marginals gamma (T, S) by the sequential
    forward and backward recursions in log space, one step at a time.

    gamma_t is exp(log alpha_t + log beta_t) over its own row sum, which
    is p(O) in exact arithmetic; the rounding of the log messages grows
    with t (their rows summed to 1 only within ~9e-10 at T = 4000), and
    most of it is common to a row, so the row sum takes it out."""
    initial = np.asarray(initial, dtype=float)
    transitions = np.asarray(transitions, dtype=float)
    steps = np.atleast_2d(np.asarray(steps, dtype=float))
    log_b = hmm_log_emissions(np.asarray(means, dtype=float),
                              np.asarray(covariance, dtype=float), steps)
    t_len = steps.shape[0]
    with np.errstate(divide="ignore"):
        log_pi = np.log(initial)
        log_a = np.log(transitions)
    log_alpha = np.empty(log_b.shape)
    log_beta = np.zeros(log_b.shape)
    log_alpha[0] = log_pi + log_b[0]
    for t in range(1, t_len):
        log_alpha[t] = logsumexp(log_alpha[t - 1][:, None] + log_a,
                                 axis=0) + log_b[t]
    for t in range(t_len - 2, -1, -1):
        log_beta[t] = logsumexp(log_a + log_b[t + 1] + log_beta[t + 1],
                                axis=1)
    log_likelihood = float(logsumexp(log_alpha[-1]))
    if log_likelihood == -math.inf:
        return log_likelihood, np.zeros(log_b.shape)
    log_gamma = log_alpha + log_beta
    return log_likelihood, np.exp(
        log_gamma - logsumexp(log_gamma, axis=1, keepdims=True))


def sample_hmm(initial, transitions, means, covariance, length: int,
               rng: np.random.Generator):
    """Draw one (states, observations) pair from the generative model."""
    initial = np.asarray(initial, dtype=float)
    transitions = np.asarray(transitions, dtype=float)
    means = np.asarray(means, dtype=float)
    num_states = initial.shape[0]
    states = np.empty(length, dtype=int)
    states[0] = rng.choice(num_states, p=initial)
    for t in range(1, length):
        states[t] = rng.choice(num_states, p=transitions[states[t - 1]])
    observations = np.array([
        rng.multivariate_normal(means[s], covariance) for s in states])
    return states + 1, observations


def anomalous_runs(states) -> list[dict]:
    """The maximal runs of states 3 and 4 in a 1-based path of T states,
    found one step at a time: each run's start and end are k / T of its
    first and last step, its label "s3" or "s4", whichever state more of
    its steps take, "s3" on a tie."""
    states = [int(s) for s in states]
    runs = []
    start = None
    for k, state in enumerate(states + [1]):
        if state in (3, 4) and start is None:
            start = k
        elif state not in (3, 4) and start is not None:
            run = states[start:k]
            label = "s3" if run.count(3) >= run.count(4) else "s4"
            runs.append({"start_time": start / len(states),
                         "end_time": (k - 1) / len(states),
                         "state_label": label})
            start = None
    return runs


# ---------------------------------------------------------------------------
# DTW by path enumeration and by the row-by-row recurrence.

def dtw_enumerate(a, b) -> float:
    """Minimum warping cost over every monotone alignment path."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    n, m = a.shape[0], b.shape[0]
    best = [math.inf]

    def walk(i: int, j: int, acc: float) -> None:
        acc = acc + abs(a[i] - b[j])
        if acc >= best[0]:
            return
        if i == n - 1 and j == m - 1:
            best[0] = acc
            return
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def dtw_recurrence(a, b) -> float:
    """DTW by the Sakoe & Chiba recurrence, one cell at a time, row by row.

    ``metrics.dtw`` evaluates the same recurrence by anti-diagonals, with
    the same operations per cell, so the two must agree exactly.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    n, m = a.size, b.size
    cost = np.abs(a[:, None] - b[None, :])
    acc = np.empty((n, m))
    acc[0, :] = np.cumsum(cost[0, :])
    acc[:, 0] = np.cumsum(cost[:, 0])
    for i in range(1, n):
        row = acc[i]
        prev = acc[i - 1]
        for j in range(1, m):
            row[j] = cost[i, j] + min(prev[j], row[j - 1], prev[j - 1])
    return float(acc[-1, -1])


# ---------------------------------------------------------------------------
# Peak finding.

def find_peaks(signal, prominence: float, distance: float) -> np.ndarray:
    """Peak indices as ``scipy.signal.find_peaks`` returns them."""
    return scipy_find_peaks(signal, prominence=prominence,
                            distance=distance)[0]


# ---------------------------------------------------------------------------
# Preprocessing chain, one channel of one cycle at a time.

def preprocess_subject(raw_cycles, cutoff_hz: float, order: int,
                       frame_rate: float, num_points: int):
    """Normalized (C, 6, T) cycles, channel means and stds of one subject.

    ``raw_cycles`` is a list of (L, 6, 3) arrays with NaN at gaps. Each
    channel's y signal is gap-filled with ``np.interp`` over the frame
    index, low-passed with a Butterworth ``filtfilt``, resampled onto
    k / T with a cyclic ``np.interp``, and z-scored with the mean and
    std of that channel over all of the subject's resampled cycles.
    """
    b, a = butter(order, cutoff_hz, btype="low", fs=frame_rate)
    grid = np.arange(num_points, dtype=float) / num_points
    resampled = []
    for raw in raw_cycles:
        length = raw.shape[0]
        frames = np.arange(length, dtype=float)
        rows = []
        for channel in range(raw.shape[1]):
            y = raw[:, channel, 1].copy()
            gap = np.isnan(y)
            y[gap] = np.interp(frames[gap], frames[~gap], y[~gap])
            y = filtfilt(b, a, y)
            rows.append(np.interp(grid, frames / length, y, period=1.0))
        resampled.append(np.array(rows))
    # Rows are channels, columns every grid point of every cycle.
    pooled = np.concatenate(resampled, axis=1)
    means = pooled.mean(axis=1)
    stds = pooled.std(axis=1)
    normalized = np.array([(cycle - means[:, None]) / stds[:, None]
                           for cycle in resampled])
    return normalized, means, stds


# ---------------------------------------------------------------------------
# Corpus reader, one line at a time into nested dicts.

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


def reference_load_corpus(path, *,
                          filter_cutoff_hz=DEFAULT_FILTER_CUTOFF_HZ,
                          num_points: int = DEFAULT_GRID_POINTS):
    """``dataio.load_corpus`` the row-by-row way: every line is split,
    checked field by field and stored in subject -> cycle -> frame ->
    channel dicts, so the first faulty line in file order raises, and on
    it the leftmost faulty field; each cycle is then filled frame by
    frame, channel by channel."""
    if not os.path.exists(path):
        raise ValidationError(f"corpus file not found: {path}")
    lines = read_text(path).splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValidationError(
            f"line 1: header must be exactly {CSV_HEADER!r}")

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


def viterbi_numpy(initial, transitions, emissions):
    """Viterbi as one numpy step per time step: (0-based states,
    log_joint) from the (T, S) log emission matrix, ties to the lowest
    state by ``np.argmax``; ``hmm.viterbi_decode`` must agree exactly."""
    with np.errstate(divide="ignore"):
        log_pi = np.log(np.asarray(initial, dtype=float))
        log_a = np.log(np.asarray(transitions, dtype=float))
    t_len, num_states = emissions.shape
    delta = log_pi + emissions[0]
    backptr = np.zeros((t_len, num_states), dtype=int)
    for t in range(1, t_len):
        scores = delta[:, None] + log_a          # predecessor i -> state j
        backptr[t] = np.argmax(scores, axis=0)
        delta = scores[backptr[t], np.arange(num_states)] + emissions[t]
    last = int(np.argmax(delta))
    path = np.empty(t_len, dtype=int)
    path[-1] = last
    for t in range(t_len - 1, 0, -1):
        path[t - 1] = backptr[t, path[t]]
    return path, float(delta[last])


# ---------------------------------------------------------------------------
# Corpus writer, one row and one coordinate at a time.

def reference_corpus_text(records) -> str:
    """The canonical corpus CSV of ``dataio.save_corpus``, written row by
    row with one ``repr`` and one finiteness check per coordinate."""
    lines = [CSV_HEADER]
    for record in sorted(records, key=lambda r: r.subject_id):
        for cycle_id, raw in sorted(record.raw_cycles.items()):
            for frame, row in enumerate(raw):
                for channel, sample in zip(CHANNELS, row):
                    joint, side = channel.rsplit("_", 1)
                    coords = ",".join(
                        "" if not math.isfinite(v) else repr(float(v))
                        for v in sample)
                    lines.append(
                        f"{record.subject_id},{record.cohort},{cycle_id},"
                        f"{frame},{joint},{side},{coords}")
    return "\n".join(lines) + "\n"
