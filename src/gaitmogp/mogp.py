"""Exact multi-output Gaussian process regression on gait cycles.

A single GP over stacked (time, output-index) points with the composite
ICM kernel from :mod:`gaitmogp.kernels`, constant per-output means and
one shared Gaussian noise variance. Fitting maximizes the exact log
marginal likelihood with Adam plus weight decay; predictions are the
standard closed-form posterior mean and variance (observation noise
included; nothing here measures their calibration).

Fitting is one loop over up to ``iterations + 1`` iterates, each with
one LML trace entry (one at ``iterations = 0``) and each raising
NumericError on a non-finite LML; an iterate evaluates the kernel
components once per distinct training lag, for both the LML and its
contracted gradient (see lml_gradient). fit is the only code that
writes a model's Cholesky cache, from its best iterate;
log_marginal_likelihood, lml_gradient and predict leave the model
untouched. Fitting owns a private parameter state.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.lapack import dpotri

from . import serialize
from .errors import NumericError, ValidationError
from .kernels import (
    PARAM_FLOOR,
    CompositeKernelSpec,
    CoregionalizationFactor,
    TemporalKernel,
    _floored_exp,
    _floored_exp_with_grad,
    _validate_points,
    kernel_parameter_names,
    lag_table,
)

logger = logging.getLogger(__name__)

LOG_2PI = math.log(2.0 * math.pi)

# Jitter escalation policy for Cholesky of (K + noise I), relative to the
# mean diagonal: start small, scale by 10, then give up.
JITTER_START = 1e-8
JITTER_CAP = 1e-2


@dataclass
class TrainingSet:
    """Stacked observations: output `outputs[i]` at time `times[i]` has
    value `values[i]`. Times live on the normalized cycle axis [0, 1]."""

    times: np.ndarray
    outputs: np.ndarray
    values: np.ndarray
    num_outputs: int = 6

    def __post_init__(self):
        # Output indices keep their dtype until validate checks them.
        self.times = np.asarray(self.times, dtype=float).ravel()
        self.outputs = np.asarray(self.outputs).ravel()
        self.values = np.asarray(self.values, dtype=float).ravel()

    @property
    def size(self) -> int:
        return self.times.shape[0]

    def validate(self, for_fitting: bool = False) -> None:
        """Check the points (the check gram_matrix makes) and the values;
        output indices are stored as ints from then on."""
        if self.num_outputs < 1:
            raise ValidationError("num_outputs must be >= 1")
        if self.values.shape[0] != self.size:
            raise ValidationError(
                f"times ({self.size}) and values ({self.values.shape[0]}) "
                "must have equal length")
        self.times, self.outputs = _validate_points(
            self.num_outputs, self.times, self.outputs)
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("values must be finite")
        if np.any(self.times < 0.0) or np.any(self.times > 1.0):
            raise ValidationError("training times must lie in [0, 1]")
        if for_fitting:
            counts = np.bincount(self.outputs, minlength=self.num_outputs)
            lacking = np.nonzero(counts < 2)[0]
            if lacking.size:
                raise ValidationError(
                    "fitting requires at least 2 points per output; "
                    f"outputs {lacking.tolist()} have {counts[lacking].tolist()}")

    def data_hash(self) -> str:
        """sha256 over a canonical text rendering of the arrays."""
        blob = ";".join([
            f"M={self.num_outputs}",
            "times=" + serialize.format_float_list(self.times),
            "outputs=" + serialize.format_int_list(self.outputs),
            "values=" + serialize.format_float_list(self.values),
        ])
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class OptimizerConfig:
    """Adam settings and initialization constants for :func:`fit`."""

    iterations: int = 2000
    learning_rate: float = 7.5e-3
    weight_decay: float = 1e-4
    seed: int = 0
    rank: int = 2
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    early_stop_tol: float = 1e-6
    early_stop_patience: int = 50
    init_variance: float = 1.0
    init_lengthscale: float = 0.2
    init_period: float = 1.0
    init_w_std: float = 0.5
    init_kappa: float = 0.5
    init_noise_variance: float = 0.1

    def validate(self) -> None:
        for name, kind in _CONFIG_KINDS.items():
            if kind is float and not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.iterations < 0:
            raise ValidationError("iterations must be >= 0")
        if self.rank < 1:
            raise ValidationError("rank must be >= 1")
        if not self.learning_rate > 0.0:
            raise ValidationError("learning_rate must be positive")
        if self.weight_decay < 0.0:
            raise ValidationError("weight_decay must be >= 0")
        if self.early_stop_patience < 1:
            raise ValidationError("early_stop_patience must be >= 1")
        for name in ("init_variance", "init_lengthscale", "init_period",
                     "init_kappa", "init_noise_variance", "early_stop_tol"):
            if not getattr(self, name) > 0.0:
                raise ValidationError(f"{name} must be positive")
        if self.init_w_std < 0.0:
            raise ValidationError("init_w_std must be >= 0")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")


@dataclass(eq=False)
class MoGPModel:
    """Kernel spec, coregionalization, means and noise plus training data.

    The Cholesky cache (factor of K + noise I, the solve against
    centered targets and the jitter the factor took) is written only by
    fit, from its best iterate, and is never serialized. A model without
    it (loaded, or built by model_from_parameters or initialize_model) is
    factored afresh by every predict, which gives identical predictions
    and leaves the model unchanged.
    """

    kernel: CompositeKernelSpec
    coreg: CoregionalizationFactor
    means: np.ndarray
    log_noise_variance: float
    training: TrainingSet
    config: OptimizerConfig = field(default_factory=OptimizerConfig)
    lml_trace: list = field(default_factory=list, repr=False)
    _chol: np.ndarray | None = field(default=None, repr=False)
    _alpha: np.ndarray | None = field(default=None, repr=False)
    jitter_used: float = 0.0

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=float).ravel()
        if self.means.shape[0] != self.coreg.num_outputs:
            raise ValidationError(
                f"means has length {self.means.shape[0]} but the model "
                f"has {self.coreg.num_outputs} outputs")
        if not np.all(np.isfinite(self.means)):
            raise ValidationError("means must be finite")
        if self.training.num_outputs != self.coreg.num_outputs:
            raise ValidationError(
                "training set and coregionalization disagree on the "
                "number of outputs")

    @property
    def num_outputs(self) -> int:
        return self.coreg.num_outputs

    @property
    def noise_variance(self) -> float:
        # Floor keeps the observation model valid (>= 1e-10).
        return float(_floored_exp(self.log_noise_variance))

    def centered_values(self) -> np.ndarray:
        return self.training.values - self.means[self.training.outputs]


@dataclass
class PosteriorPrediction:
    """Posterior mean/std curves, one row per output and one column per
    query time; a non-finite value raises NumericError."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_2d(np.asarray(self.mean, dtype=float))
        self.std = np.atleast_2d(np.asarray(self.std, dtype=float))
        if self.mean.shape != self.std.shape:
            raise ValidationError("mean and std grids must match")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.std).all()):
            raise NumericError("posterior mean or std is not finite")
        if np.any(self.std < 0.0):
            raise ValidationError("standard deviations must be >= 0")


def _chol_with_jitter(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor with escalating diagonal jitter; a matrix
    with an inf or NaN entry raises NumericError (the only scan for them)."""
    if not np.isfinite(matrix).all():
        raise NumericError("kernel matrix has non-finite entries: a "
                           "parameter is NaN or overflows")
    mean_diag = max(float(np.mean(np.diag(matrix))), PARAM_FLOOR)
    try:
        return cholesky(matrix, lower=True, check_finite=False), 0.0
    except np.linalg.LinAlgError:
        pass
    jitter = JITTER_START * mean_diag
    cap = JITTER_CAP * mean_diag
    eye = np.eye(matrix.shape[0])
    while jitter <= cap * (1.0 + 1e-12):
        try:
            return cholesky(matrix + jitter * eye, lower=True,
                            check_finite=False), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NumericError(
        "Cholesky failed after jitter escalation to "
        f"{cap:.3e}: kernel matrix is ill-conditioned")


class _Geometry:
    """What a training set fixes for every parameter setting: the
    distinct pairwise lags |t_i - t_j| (``lags``), the (n, n) integer
    ``lag_index`` into them (kernels.lag_table) and the (n, M) one-hot
    output indicator E. Grid times repeat, so ``lags`` is far shorter
    than n^2."""

    def __init__(self, training: TrainingSet):
        training.validate()
        times, self.outputs = training.times, training.outputs
        self.lags, self.lag_index = lag_table(times, times)
        self.indicator = np.eye(training.num_outputs)[self.outputs]


class _Evaluation:
    """LML of one parameter setting; the Gram matrix, its Cholesky factor
    and the gradient all read one evaluation of the kernel components on
    the distinct lags, gathered to (n, n) ``k_t`` by the lag index."""

    def __init__(self, model: MoGPModel, geometry: _Geometry):
        self.model, self.geometry = model, geometry
        self.temporal = TemporalKernel(model.kernel, geometry.lags)
        self.k_t = self.temporal.k_t[geometry.lag_index]
        self.b_oo = model.coreg.matrix()[np.ix_(geometry.outputs,
                                                geometry.outputs)]
        k = self.b_oo * self.k_t
        k[np.diag_indices_from(k)] += model.noise_variance
        self.chol, self.jitter = _chol_with_jitter(k)
        y_c = model.centered_values()
        self.alpha = cho_solve((self.chol, True), y_c)
        half_logdet = float(np.sum(np.log(np.diag(self.chol))))
        self.lml = float(-0.5 * y_c @ self.alpha - half_logdet
                         - 0.5 * y_c.shape[0] * LOG_2PI)

    def gradient(self) -> np.ndarray:
        """d LML / d theta in parameter_names order (see lml_gradient);
        A o B_oo is summed per distinct lag before the kernel partials."""
        model, geometry, alpha = self.model, self.geometry, self.alpha
        kinv, info = dpotri(self.chol, lower=1)
        if info != 0:
            raise NumericError(f"LAPACK potri failed (info {info}): "
                               "kernel matrix is singular")
        kinv = np.tril(kinv)
        kinv += np.tril(kinv, -1).T
        a_mat = np.outer(alpha, alpha)
        a_mat -= kinv
        e = geometry.indicator
        s = e.T @ ((a_mat * self.k_t) @ e)
        a_mat *= self.b_oo
        per_lag = np.bincount(geometry.lag_index.ravel(),
                              weights=a_mat.ravel(),
                              minlength=geometry.lags.size)
        _, dnoise = _floored_exp_with_grad(model.log_noise_variance)
        return np.concatenate([
            0.5 * self.temporal.gradient(per_lag),
            model.coreg.gradient(0.5 * s),
            np.bincount(geometry.outputs, weights=alpha,
                        minlength=model.num_outputs),
            [0.5 * dnoise * (alpha @ alpha - np.trace(kinv))],
        ])


def log_marginal_likelihood(model: MoGPModel) -> float:
    """Exact LML: -1/2 y_c^T (K+s I)^-1 y_c - 1/2 log det(K+s I) - n/2 log 2pi.
    The model is not modified."""
    return _Evaluation(model, _Geometry(model.training)).lml


def parameter_names(num_outputs: int, rank: int) -> list[str]:
    """Order of the unconstrained parameter vector used by fit/gradients."""
    names = kernel_parameter_names(num_outputs, rank)
    names += [f"mean[{m}]" for m in range(num_outputs)]
    names.append("log_noise_variance")
    return names


def pack_parameters(model: MoGPModel) -> np.ndarray:
    """Flatten the unconstrained parameters in parameter_names order."""
    return np.concatenate([
        model.kernel.log_values(),
        model.coreg.w.ravel(),
        model.coreg.log_kappa,
        model.means,
        [model.log_noise_variance],
    ])


def model_from_parameters(theta: np.ndarray, training: TrainingSet,
                          config: OptimizerConfig) -> MoGPModel:
    """Inverse of pack_parameters (cache left unbuilt)."""
    theta = np.asarray(theta, dtype=float).ravel()
    m = training.num_outputs
    r = config.rank
    expected = 7 + m * r + m + m + 1
    if theta.shape[0] != expected:
        raise ValidationError(
            f"parameter vector has length {theta.shape[0]}, expected {expected}")
    w, log_kappa, means, log_noise = np.split(
        theta[7:], np.cumsum([m * r, m, m]))
    return MoGPModel(kernel=CompositeKernelSpec.from_log_values(theta[:7]),
                     coreg=CoregionalizationFactor(w=w.reshape(m, r),
                                                   log_kappa=log_kappa),
                     means=means, log_noise_variance=float(log_noise[0]),
                     training=training, config=config)


def _weight_decay_mask(num_outputs: int, rank: int) -> np.ndarray:
    """Decay applies to W and all log-parameters, never to the means."""
    return np.array([not name.startswith("mean[")
                     for name in parameter_names(num_outputs, rank)],
                    dtype=float)


def lml_gradient(model: MoGPModel) -> np.ndarray:
    """Gradient of the LML w.r.t. the packed unconstrained parameters.

    Each entry is 1/2 tr(A dK/dtheta) with A = alpha alpha^T - K^-1
    (Rasmussen & Williams 2006, eq. 5.9), contracted without forming
    dK/dtheta: kernel entries are 1/2 sum_l w_l dk_t(r_l)/dtheta over the
    distinct lags r_l, where w_l sums A o B_oo over the pairs at lag r_l;
    with S = E^T (A o k_t) E, W gets S W and log kappa 1/2 diag(S) kappa'.
    K^-1 comes from LAPACK potri on the Cholesky factor. The model is
    not modified.
    """
    return _Evaluation(model, _Geometry(model.training)).gradient()


def initialize_model(training: TrainingSet, config: OptimizerConfig) -> MoGPModel:
    """Starting point for the optimizer.

    The config's init_* variance, length-scale and period for all three
    kernel components, W ~ N(0, init_w_std^2) from the config seed,
    kappa init_kappa, per-output empirical means.
    """
    training.validate()
    config.validate()
    m = training.num_outputs
    rng = np.random.default_rng(config.seed)
    w = rng.normal(0.0, config.init_w_std, size=(m, config.rank))
    kernel = CompositeKernelSpec.from_values(
        config.init_variance, config.init_lengthscale, config.init_period)
    means = np.zeros(m)
    for idx in range(m):
        sel = training.outputs == idx
        if np.any(sel):
            means[idx] = float(np.mean(training.values[sel]))
    coreg = CoregionalizationFactor(
        w=w, log_kappa=np.full(m, math.log(config.init_kappa)))
    return MoGPModel(kernel=kernel, coreg=coreg, means=means,
                     log_noise_variance=math.log(config.init_noise_variance),
                     training=training, config=config)


def fit(training: TrainingSet, config: OptimizerConfig | None = None) -> MoGPModel:
    """Maximize the LML with Adam ascent plus weight decay.

    Deterministic given the config seed. One loop evaluates up to
    ``iterations + 1`` iterates, each adding its LML to ``lml_trace`` (one
    entry at ``iterations = 0``); a non-finite LML raises NumericError.
    It stops early after the iterate that follows |delta LML| staying
    below early_stop_tol for early_stop_patience consecutive iterations.
    The best-scoring iterate is returned, so the final LML never falls
    below the initial one, together with the Cholesky cache its
    evaluation already built.
    """
    config = config or OptimizerConfig()
    config.validate()
    training.validate(for_fitting=True)

    theta = pack_parameters(initialize_model(training, config))
    decay_mask = _weight_decay_mask(training.num_outputs, config.rank)
    m_state = np.zeros_like(theta)
    v_state = np.zeros_like(theta)
    geometry = _Geometry(training)

    trace: list[float] = []
    stall = 0
    last = config.iterations
    for iteration in range(config.iterations + 1):
        step = _Evaluation(model_from_parameters(theta, training, config),
                           geometry)
        lml = step.lml
        if not math.isfinite(lml):
            raise NumericError(
                f"non-finite log marginal likelihood at iteration {iteration}; "
                f"parameter snapshot: {theta.tolist()}")
        trace.append(lml)
        # Keep the best iterate's factor, solve and jitter for predict,
        # not its kernel intermediates; theta is rebound, never mutated.
        if iteration == 0 or lml > best[0]:
            best = lml, theta, step.chol, step.alpha, step.jitter
        if iteration == last:
            break

        grad = step.gradient()
        grad = grad - config.weight_decay * decay_mask * theta
        m_state = config.beta1 * m_state + (1.0 - config.beta1) * grad
        v_state = config.beta2 * v_state + (1.0 - config.beta2) * grad * grad
        m_hat = m_state / (1.0 - config.beta1 ** (iteration + 1))
        v_hat = v_state / (1.0 - config.beta2 ** (iteration + 1))
        theta = theta + config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)

        if iteration > 0 and abs(lml - trace[-2]) < config.early_stop_tol:
            stall += 1
        else:
            stall = 0
        if stall >= config.early_stop_patience:
            logger.debug("early stop after %d iterations (LML %.6f)",
                         iteration + 1, lml)
            last = iteration + 1

    _, theta, chol, alpha, jitter = best
    result = model_from_parameters(theta, training, config)
    result.lml_trace = trace
    result._chol, result._alpha, result.jitter_used = chol, alpha, jitter
    return result


def predict(model: MoGPModel, query_times) -> PosteriorPrediction:
    """Posterior mean and standard deviation for every output.

    Predictive variance includes the observation noise. A variance that
    the numerical subtraction leaves negative is clamped at zero before
    the square root. Query times outside [0, 1] are allowed. A model
    without fit's Cholesky cache is factored into local variables; the
    model is not modified.
    """
    query = np.asarray(query_times, dtype=float).ravel()
    if query.shape[0] == 0:
        raise ValidationError("query grid is empty")
    if not np.all(np.isfinite(query)):
        raise ValidationError("query times must be finite")
    if model._chol is None:
        evaluation = _Evaluation(model, _Geometry(model.training))
        chol, alpha = evaluation.chol, evaluation.alpha
    else:
        chol, alpha = model._chol, model._alpha

    lags, lag_index = lag_table(query, model.training.times)
    temporal = TemporalKernel(model.kernel, lags).k_t[lag_index]
    b = model.coreg.matrix()
    prior_var = model.kernel.prior_variance()
    noise = model.noise_variance

    num_m = model.num_outputs
    mean = np.empty((num_m, query.shape[0]))
    var = np.empty((num_m, query.shape[0]))
    for m in range(num_m):
        k_star = b[m, model.training.outputs][None, :] * temporal
        mean[m] = model.means[m] + k_star @ alpha
        v = solve_triangular(chol, k_star.T, lower=True)
        var[m] = b[m, m] * prior_var + noise - np.sum(v * v, axis=0)

    return PosteriorPrediction(mean=mean, std=np.sqrt(np.maximum(var, 0.0)))


def export_coregionalization(model: MoGPModel) -> tuple[np.ndarray, np.ndarray]:
    """B = W W^T + diag(kappa) and its correlation-normalized form."""
    b = model.coreg.matrix()
    diag = np.diag(b)
    if np.any(diag <= 0.0):
        raise ValidationError("coregionalization matrix has a zero diagonal entry")
    scale = np.sqrt(diag)
    normalized = b / np.outer(scale, scale)
    return b, normalized


# ---------------------------------------------------------------------------
# Serialization (schema mogp-v1).

MODEL_SCHEMA = "mogp-v1"

_CONFIG_KINDS = serialize.field_kinds(OptimizerConfig)
_KERNEL_NAMES = kernel_parameter_names(0, 0)


def _model_document(model: MoGPModel) -> list[tuple[str, str]]:
    items: list[tuple[str, str]] = [
        ("schema", MODEL_SCHEMA),
        ("num_outputs", str(model.num_outputs)),
        ("rank", str(model.coreg.rank)),
        *((f"kernel.{name}", serialize.format_float(value))
          for name, value in zip(_KERNEL_NAMES, model.kernel.log_values())),
        ("coreg.w", serialize.format_float_list(model.coreg.w.ravel())),
        ("coreg.log_kappa", serialize.format_float_list(model.coreg.log_kappa)),
        ("means", serialize.format_float_list(model.means)),
        ("log_noise_variance", serialize.format_float(model.log_noise_variance)),
        ("training.hash", model.training.data_hash()),
        ("training.num_points", str(model.training.size)),
        ("training.num_outputs", str(model.training.num_outputs)),
        ("training.times", serialize.format_float_list(model.training.times)),
        ("training.outputs", serialize.format_int_list(model.training.outputs)),
        ("training.values", serialize.format_float_list(model.training.values)),
    ]
    for name, kind in _CONFIG_KINDS.items():
        value = getattr(model.config, name)
        items.append((f"config.{name}", str(int(value)) if kind is int
                      else serialize.format_float(value)))
    return items


def save_model(model: MoGPModel, path) -> None:
    serialize.write_document(path, _model_document(model))


def load_model(path) -> MoGPModel:
    doc = serialize.read_document(path)

    def grab(key: str) -> str:
        return serialize.require_key(doc, key, str(path))

    def number(key: str, kind=float):
        return serialize.parse_number(grab(key), f"{path}: {key}", kind)

    def integer(key: str) -> int:
        return number(key, int)

    def floats(key: str) -> np.ndarray:
        return np.array(serialize.parse_float_list(grab(key), f"{path}: {key}"))

    schema = grab("schema")
    if schema != MODEL_SCHEMA:
        raise ValidationError(
            f"{path}: schema {schema!r} is not {MODEL_SCHEMA!r}")
    num_outputs = integer("num_outputs")
    rank = integer("rank")

    config = OptimizerConfig(**{name: number(f"config.{name}", kind)
                                for name, kind in _CONFIG_KINDS.items()})
    if config.rank != rank:
        raise ValidationError(f"{path}: rank and config.rank disagree")

    training = TrainingSet(
        times=floats("training.times"),
        outputs=serialize.parse_int_list(grab("training.outputs"),
                                         f"{path}: training.outputs"),
        values=floats("training.values"),
        num_outputs=(integer("training.num_outputs")
                     if "training.num_outputs" in doc else num_outputs),
    )
    training.validate()
    if training.size != integer("training.num_points"):
        raise ValidationError(f"{path}: training.num_points mismatch")
    if training.data_hash() != grab("training.hash"):
        raise ValidationError(f"{path}: training data hash mismatch")

    kernel = CompositeKernelSpec.from_log_values(
        [number(f"kernel.{name}") for name in _KERNEL_NAMES])

    w = floats("coreg.w")
    if num_outputs < 1 or rank < 1 or w.size != num_outputs * rank:
        raise ValidationError(
            f"{path}: coreg.w has {w.size} entries, expected "
            f"num_outputs x rank = {num_outputs} x {rank}")
    coreg = CoregionalizationFactor(w=w.reshape(num_outputs, rank),
                                    log_kappa=floats("coreg.log_kappa"))
    return MoGPModel(kernel=kernel, coreg=coreg, means=floats("means"),
                     log_noise_variance=number("log_noise_variance"),
                     training=training, config=config)
