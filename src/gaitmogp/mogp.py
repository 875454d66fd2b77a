"""Exact multi-output Gaussian process regression on gait cycles.

A single GP over stacked (time, output-index) points with the composite
ICM kernel from :mod:`gaitmogp.kernels`, constant per-output means and
one shared Gaussian noise variance. Fitting maximizes the exact log
marginal likelihood with Adam plus weight decay; predictions are the
standard closed-form posterior mean and variance (observation noise
included; nothing here measures their calibration).

Two exact evaluations serve the LML, its gradient and the posterior, and
the training data choose between them (_Geometry). Both factor the
covariance by ``eigh`` (_clamped_eigh), whose eigenvalues that rounding
leaves negative are clamped to 0, their only numerical fallback; every
eigenvalue of the covariance stays >= s >= PARAM_FLOOR.

- **Kronecker.** When the points are one block per output, in output
  order, and every block has the same P times, the covariance is
  exactly ``B (x) K_t + s I``. ``eigh`` of the P x P K_t and of the
  M x M B then give the LML, its gradient and the posterior in
  O(P^3 + M^3 + M P^2) (Bonilla, Chai & Williams 2008; Stegle et al.
  2011).
- **Dense.** Any other set (each output at its own times) takes
  ``eigh`` of the (n, n) ``B_oo o k_t``, in O(n^3).

Importing or running this module imports no part of scipy.

A model's parameters are one log-space vector theta (Rasmussen &
Williams 2006, ch. 5): the seven kernel entries, W row-major, log kappa,
the per-output means and the log noise variance, each block at its
parameter_blocks slice, the only source of a block's position, and each
entry named by parameter_names. Both evaluations and
export_coregionalization unpack theta once (_Parameters), floor its
positive entries with one vector call, and evaluate the kernel
components once per distinct training lag. fit evaluates up to
``iterations + 1`` iterates of theta, one evaluation each, and caches
the best one's on the MoGPModel it returns, the only cache there is.
log_marginal_likelihood, lml_gradient and predict (without a cache) run
the same evaluation on the model's theta, leaving the model untouched.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .errors import NumericError, ValidationError
from . import kernels
from .kernels import TemporalKernel, _floored_exp_with_grad, lag_table

LOG_2PI = math.log(2.0 * math.pi)

# Adam's moment rates and epsilon (Kingma & Ba 2015), its early stop
# (see fit) and its starting point (see initialize_model).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
EARLY_STOP_TOL = 1e-6
EARLY_STOP_PATIENCE = 50
INIT_VARIANCE = 1.0
INIT_LENGTHSCALE = 0.2
INIT_PERIOD = 1.0
INIT_W_STD = 0.5
INIT_KAPPA = 0.5
INIT_NOISE_VARIANCE = 0.1


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
        """Check the points and the values; output indices are stored as
        ints from then on. Each message starts with the field it judges."""
        outputs = self.outputs
        if self.num_outputs < 1:
            raise ValidationError("num_outputs must be >= 1")
        for name, array in (("values", self.values), ("outputs", outputs)):
            if array.shape[0] != self.size:
                raise ValidationError(
                    f"times ({self.size}) and {name} ({array.shape[0]}) "
                    "must have equal length")
        if self.size == 0:
            raise ValidationError("times is empty: at least one "
                                  "(time, output) point is required")
        if not np.all(np.isfinite(self.times)):
            raise ValidationError("times must be finite")
        if not (np.issubdtype(outputs.dtype, np.integer)
                or np.all(np.isfinite(outputs)
                          & (outputs == np.round(outputs)))):
            raise ValidationError("outputs must be integers")
        if np.any(outputs < 0) or np.any(outputs >= self.num_outputs):
            raise ValidationError(
                f"outputs must lie in [0, {self.num_outputs})")
        self.outputs = outputs.astype(int)
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("values must be finite")
        if np.any(self.times < 0.0) or np.any(self.times > 1.0):
            raise ValidationError("times must lie in [0, 1]")
        if for_fitting:
            counts = np.bincount(self.outputs, minlength=self.num_outputs)
            lacking = np.nonzero(counts < 2)[0]
            if lacking.size:
                raise ValidationError(
                    "fitting requires at least 2 points per output; "
                    f"outputs {lacking.tolist()} have {counts[lacking].tolist()}")

    def rendered(self) -> tuple[str, str, str]:
        """The times, outputs and values as model-file text lists."""
        return (serialize.format_float_list(self.times),
                serialize.format_int_list(self.outputs),
                serialize.format_float_list(self.values))

    def data_hash(self, rendered: tuple[str, str, str] | None = None) -> str:
        """sha256 over a canonical text rendering of the arrays;
        ``rendered`` is that rendering when the caller already has it."""
        times, outputs, values = rendered or self.rendered()
        blob = ";".join([f"M={self.num_outputs}", "times=" + times,
                         "outputs=" + outputs, "values=" + values])
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class OptimizerConfig:
    """The settings of :func:`fit` a run chooses: Adam's iteration count,
    step size and weight decay, the seed of W's starting draw and the
    rank of W. Adam's moment rates, the early stop and the starting
    point are the module constants above."""

    iterations: int = 2000
    learning_rate: float = 7.5e-3
    weight_decay: float = 1e-4
    seed: int = 0
    rank: int = 2

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
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")


@dataclass(eq=False)
class MoGPModel:
    """The packed parameters theta plus training data and settings.

    ``theta`` holds every parameter, unconstrained, in parameter_names
    order (7 + M r + 2 M + 1 entries for M = training.num_outputs and
    r = config.rank); the constructor checks its length and that every
    entry is finite. The cache is one evaluation of theta on the
    training data: the Kronecker one (eigenvectors and eigenvalues of
    K_t and B) when every output shares its times, the dense one
    (those of the (n, n) Gram matrix) otherwise; see the module docstring.
    Only fit writes it, from its best iterate, and it is never
    serialized. predict reads the posterior from it; a model without it
    (loaded, or built from a theta or by initialize_model) gets a local
    evaluation, chosen and built the same way, on every predict. That
    gives identical predictions and leaves the model unchanged.
    """

    theta: np.ndarray
    training: TrainingSet
    config: OptimizerConfig = field(default_factory=OptimizerConfig)
    lml_trace: list = field(default_factory=list, repr=False)
    _evaluation: _Evaluation | _KroneckerEvaluation | None = field(
        default=None, repr=False)

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float).ravel()
        blocks = parameter_blocks(self.num_outputs, self.config.rank)
        expected = blocks["log_noise_variance"].stop
        if self.theta.shape[0] != expected:
            raise ValidationError(
                f"parameter vector has length {self.theta.shape[0]}, "
                f"expected {expected}")
        bad = _non_finite_names(self.theta, self.num_outputs,
                                self.config.rank)
        if bad:
            raise ValidationError("non-finite parameter: " + bad)

    @property
    def num_outputs(self) -> int:
        return self.training.num_outputs


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


def _shared_times(training: TrainingSet) -> np.ndarray | None:
    """The P times every output shares when the points are num_outputs
    blocks of P in output order, each block at the same times; else None."""
    m, n = training.num_outputs, training.size
    if n % m:
        return None
    blocks = training.times.reshape(m, n // m)
    if not (np.array_equal(training.outputs, np.repeat(np.arange(m), n // m))
            and (blocks == blocks[0]).all()):
        return None
    return blocks[0]


class _Geometry:
    """What a training set and a rank fix for every parameter setting,
    and which evaluation it takes. ``times`` are the shared block times
    (Kronecker) or all n times (dense); ``lags`` are their distinct
    pairwise lags |t_i - t_j| and ``lag_index`` the square integer index
    into them (kernels.lag_table). Grid times repeat, so ``lags`` is far
    shorter than the index. ``blocks`` are theta's parameter_blocks and
    ``positive`` indexes its log-space entries (kernel, log kappa, log
    noise), the ones a floored exponential maps to their values;
    ``kernel_part``, ``kappa_part`` and ``noise_part`` are where those
    three blocks sit among them. The dense path also keeps the (n, M)
    one-hot output indicator E."""

    def __init__(self, training: TrainingSet, rank: int):
        training.validate()
        m = self.num_outputs = training.num_outputs
        self.rank = rank
        self.values, self.outputs = training.values, training.outputs
        self.times = _shared_times(training)
        if self.times is None:
            self.evaluation_type = _Evaluation
            self.times = training.times
            self.indicator = np.eye(m)[self.outputs]
        else:
            self.evaluation_type = _KroneckerEvaluation
        self.lags, self.lag_index = lag_table(self.times, self.times)
        self.blocks = parameter_blocks(m, rank)
        positive = {key: self.blocks[key] for key in (
            "kernel", "coreg.log_kappa", "log_noise_variance")}
        self.positive = np.r_[tuple(positive.values())]
        self.kernel_part, self.kappa_part, self.noise_part = _consecutive(
            {key: part.stop - part.start
             for key, part in positive.items()}).values()

    def evaluate(self, theta: np.ndarray):
        """The evaluation of the packed parameters ``theta`` on this data."""
        return self.evaluation_type(theta, self)


def _evaluate(model: MoGPModel):
    """A fresh evaluation of ``model``'s parameters on its training data."""
    return _Geometry(model.training, model.config.rank).evaluate(model.theta)


class _Parameters:
    """One packed theta, unpacked once: its floored positive values and
    their derivatives (one _floored_exp_with_grad call) cut by the
    geometry's parts, W, the means, B and the kernel components on the
    geometry's distinct lags. Both evaluations build on it; it holds what
    the LML, the gradient and the posterior share."""

    def __init__(self, theta: np.ndarray, geometry: _Geometry):
        self.theta, self.geometry = theta, geometry
        blocks = geometry.blocks
        floored, d_floored = _floored_exp_with_grad(theta[geometry.positive])
        self.kernel = (floored[geometry.kernel_part],
                       d_floored[geometry.kernel_part])
        self.d_kappa = d_floored[geometry.kappa_part]
        self.noise = floored[geometry.noise_part]
        self.d_noise = d_floored[geometry.noise_part]
        self.w = theta[blocks["coreg.w"]].reshape(geometry.num_outputs,
                                                  geometry.rank)
        self.means = theta[blocks["means"]]
        self.b = self.w @ self.w.T + np.diag(floored[geometry.kappa_part])
        self.temporal = TemporalKernel(*self.kernel, geometry.lags)
        self.k_t = self.temporal.k_t[geometry.lag_index]

    def centered_values(self) -> np.ndarray:
        return self.geometry.values - self.means[self.geometry.outputs]

    def packed_gradient(self, per_lag: np.ndarray, s: np.ndarray,
                        alpha_sums: np.ndarray,
                        noise_term: float) -> np.ndarray:
        """The LML gradient in parameter_names order from its
        contractions: per-lag sums of A o B_oo, S = E^T (A o k_t) E,
        per-output sums of alpha and alpha^T alpha - tr K^-1 (see
        lml_gradient). With d f / d B = S / 2, W gets (S + S^T) W / 2
        and log kappa diag(S) kappa' / 2."""
        half_s = 0.5 * s
        return np.concatenate([
            0.5 * self.temporal.gradient(per_lag),
            ((half_s + half_s.T) @ self.w).ravel(),
            np.diag(half_s) * self.d_kappa,
            alpha_sums,
            0.5 * self.d_noise * noise_term,
        ])

    def cross_kernel(self, query: np.ndarray) -> np.ndarray:
        """k_t between the query times and the geometry's times,
        (len(query), len(times))."""
        lags, lag_index = lag_table(query, self.geometry.times)
        return TemporalKernel(*self.kernel, lags).k_t[lag_index]

    def prior_variance(self) -> np.ndarray:
        """(M, 1) prior variance of an observation of each output:
        B_mm k_t(t, t) plus the noise. k_t(t, t) is the kernel at lag 0,
        the first of the sorted training lags."""
        return np.diag(self.b)[:, None] * self.temporal.k_t[0] + self.noise

    def log_likelihood(self, rotated, scaled) -> float:
        """-1/2 r^T D^-1 r - 1/2 sum log D - n/2 log 2pi of the centered
        targets r in the eigenbasis of K + s I, given ``scaled`` = D^-1 r."""
        return float(-0.5 * np.vdot(rotated, scaled)
                     - 0.5 * np.sum(np.log(self.d))
                     - 0.5 * rotated.size * LOG_2PI)


class _Evaluation(_Parameters):
    """Dense LML of one parameter setting: B_oo o k_t = U diag(lambda) U^T
    from _clamped_eigh, so K + s I = U diag(D) U^T with D = lambda + s.
    The Gram matrix, its factor and the gradient all read one evaluation
    of the kernel components on the distinct lags, gathered to (n, n)
    ``k_t`` by the lag index."""

    def __init__(self, theta: np.ndarray, geometry: _Geometry):
        super().__init__(theta, geometry)
        self.b_oo = self.b[np.ix_(geometry.outputs, geometry.outputs)]
        lam, self.u = _clamped_eigh(self.b_oo * self.k_t)
        self.d = lam + self.noise
        y_c = self.centered_values()
        rotated = self.u.T @ y_c
        scaled = rotated / self.d
        self.alpha = self.u @ scaled
        self.lml = self.log_likelihood(rotated, scaled)

    def gradient(self) -> np.ndarray:
        """d LML / d theta in parameter_names order (see lml_gradient);
        A o B_oo is summed per distinct lag before the kernel partials."""
        geometry, alpha = self.geometry, self.alpha
        a_mat = np.outer(alpha, alpha)
        a_mat -= (self.u / self.d) @ self.u.T
        e = geometry.indicator
        s = e.T @ ((a_mat * self.k_t) @ e)
        a_mat *= self.b_oo
        per_lag = np.bincount(geometry.lag_index.ravel(),
                              weights=a_mat.ravel(),
                              minlength=geometry.lags.size)
        return self.packed_gradient(
            per_lag, s,
            np.bincount(geometry.outputs, weights=alpha,
                        minlength=geometry.num_outputs),
            np.vdot(alpha, alpha) - (1.0 / self.d).sum())

    def posterior(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(M, Q) k_*^T alpha and the explained variance
        D^-1 (U^T k_*)^2 at the query times, with k_* the (M, n, Q)
        B_mo o k_t of every output m."""
        k_star = (self.b[:, self.geometry.outputs, None]
                  * self.cross_kernel(query).T)
        projected = self.u.T @ k_star
        return self.alpha @ k_star, (1.0 / self.d) @ (projected * projected)


def _clamped_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, negative rounding clamped to 0, and eigenvectors of a
    symmetric PSD kernel matrix; a matrix with an inf or NaN entry, or
    one LAPACK cannot decompose, raises NumericError."""
    if not np.isfinite(matrix).all():
        raise NumericError("kernel matrix has non-finite entries: a "
                           "parameter is NaN or overflows")
    try:
        values, vectors = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    return np.maximum(values, 0.0), vectors


class _KroneckerEvaluation(_Parameters):
    """LML of one parameter setting when every output shares its P times:
    K + s I = B (x) K_t + s I = (U_B (x) U_t) diag(D) (U_B (x) U_t)^T with
    D = lambda_B lambda_t^T + s, from eigh of the M x M B and of the
    P x P K_t. Targets and alpha are (M, P) arrays, one row per output."""

    def __init__(self, theta: np.ndarray, geometry: _Geometry):
        super().__init__(theta, geometry)
        self.lam_b, self.u_b = _clamped_eigh(self.b)
        self.lam_t, self.u_t = _clamped_eigh(self.k_t)
        self.d = np.outer(self.lam_b, self.lam_t) + self.noise
        y_c = self.centered_values().reshape(geometry.num_outputs, -1)
        rotated = self.u_b.T @ y_c @ self.u_t
        scaled = rotated / self.d
        self.alpha = self.u_b @ scaled @ self.u_t.T
        self.lml = self.log_likelihood(rotated, scaled)

    def gradient(self) -> np.ndarray:
        """d LML / d theta in parameter_names order (see lml_gradient).
        With A = alpha alpha^T - (K + s I)^-1, the weight on K_t is
        alpha^T B alpha - U_t diag(g) U_t^T, g_j = sum_i lambda_B,i / D_ij,
        and S = alpha K_t alpha^T - U_B diag(h) U_B^T, h_i = sum_j
        lambda_t,j / D_ij."""
        alpha, inv_d = self.alpha, 1.0 / self.d
        weight_t = alpha.T @ self.b @ alpha
        weight_t -= (self.u_t * (self.lam_b @ inv_d)) @ self.u_t.T
        s = alpha @ self.k_t @ alpha.T
        s -= (self.u_b * (inv_d @ self.lam_t)) @ self.u_b.T
        per_lag = np.bincount(self.geometry.lag_index.ravel(),
                              weights=weight_t.ravel(),
                              minlength=self.geometry.lags.size)
        return self.packed_gradient(per_lag, s, alpha.sum(axis=1),
                                    np.vdot(alpha, alpha) - inv_d.sum())

    def posterior(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(M, Q) B alpha K_*^T and the explained variance
        ((U_B o lambda_B)^2) D^-1 (U_t^T K_*^T)^2 at the query times."""
        k_star = self.cross_kernel(query)
        projected = self.u_t.T @ k_star.T
        explained = ((self.u_b * self.lam_b) ** 2) @ (
            (1.0 / self.d) @ (projected * projected))
        return self.b @ self.alpha @ k_star.T, explained


def log_marginal_likelihood(model: MoGPModel) -> float:
    """Exact LML: -1/2 y_c^T (K+s I)^-1 y_c - 1/2 log det(K+s I) - n/2 log 2pi.
    The model is not modified."""
    return _evaluate(model).lml


def parameter_blocks(num_outputs: int, rank: int) -> dict[str, slice]:
    """The slice of theta each block takes, keyed like the model file's
    lines: the seven "kernel" entries, "coreg.w" row-major (M r),
    "coreg.log_kappa" (M), the per-output "means" (M) and
    "log_noise_variance" (1), in that order."""
    return _consecutive({
        "kernel": len(kernels.PARAMETER_NAMES), "coreg.w": num_outputs * rank,
        "coreg.log_kappa": num_outputs, "means": num_outputs,
        "log_noise_variance": 1})


def _consecutive(sizes: dict[str, int]) -> dict[str, slice]:
    """Back-to-back slices of the given sizes, in key order from 0."""
    slices, start = {}, 0
    for key, size in sizes.items():
        slices[key] = slice(start, start + size)
        start += size
    return slices


def parameter_names(num_outputs: int, rank: int) -> list[str]:
    """The name of each entry of theta, block by block (parameter_blocks)."""
    outputs = range(num_outputs)
    return [*kernels.PARAMETER_NAMES,
            *(f"coreg.w[{i},{j}]" for i in outputs for j in range(rank)),
            *(f"coreg.log_kappa[{i}]" for i in outputs),
            *(f"mean[{i}]" for i in outputs),
            "log_noise_variance"]


def _non_finite_names(theta: np.ndarray, num_outputs: int, rank: int) -> str:
    """The parameter_names of theta's non-finite entries, comma-separated;
    empty when every entry is finite."""
    finite = np.isfinite(theta)
    if finite.all():
        return ""
    return ", ".join(name for name, ok in zip(
        parameter_names(num_outputs, rank), finite) if not ok)


def lml_gradient(model: MoGPModel) -> np.ndarray:
    """Gradient of the LML w.r.t. the packed unconstrained parameters.

    Each entry is 1/2 tr(A dK/dtheta) with A = alpha alpha^T - K^-1
    (Rasmussen & Williams 2006, eq. 5.9), contracted without forming
    dK/dtheta: kernel entries are 1/2 sum_l w_l dk_t(r_l)/dtheta over the
    distinct lags r_l, where w_l sums A o B_oo over the pairs at lag r_l;
    with S = E^T (A o k_t) E, W gets S W and log kappa 1/2 diag(S) kappa'.
    On the dense path K^-1 = U diag(1/D) U^T comes from the one
    eigendecomposition; on the Kronecker path A is contracted through the
    two eigendecompositions without forming any n x n matrix. The model
    is not modified.
    """
    return _evaluate(model).gradient()


def initialize_model(training: TrainingSet, config: OptimizerConfig) -> MoGPModel:
    """Starting point for the optimizer.

    INIT_VARIANCE, INIT_LENGTHSCALE and INIT_PERIOD for all three kernel
    components, W ~ N(0, INIT_W_STD^2) from the config seed, kappa
    INIT_KAPPA, noise variance INIT_NOISE_VARIANCE and per-output
    empirical means.
    """
    training.validate()
    config.validate()
    m = training.num_outputs
    rng = np.random.default_rng(config.seed)
    w = rng.normal(0.0, INIT_W_STD, size=(m, config.rank))
    kernel = [INIT_VARIANCE, INIT_LENGTHSCALE, INIT_PERIOD,
              INIT_VARIANCE, INIT_LENGTHSCALE, INIT_VARIANCE, INIT_LENGTHSCALE]
    means = np.zeros(m)
    for idx in range(m):
        sel = training.outputs == idx
        if np.any(sel):
            means[idx] = float(np.mean(training.values[sel]))
    theta = np.concatenate([
        [math.log(value) for value in kernel], w.ravel(),
        np.full(m, math.log(INIT_KAPPA)), means,
        [math.log(INIT_NOISE_VARIANCE)]])
    return MoGPModel(theta=theta, training=training, config=config)


def fit(training: TrainingSet, config: OptimizerConfig | None = None) -> MoGPModel:
    """Maximize the LML with Adam ascent plus weight decay.

    Deterministic given the config seed. One loop evaluates up to
    ``iterations + 1`` iterates straight from the packed parameter
    vector, each adding its LML to ``lml_trace`` (one entry at
    ``iterations = 0``); an iterate with a non-finite parameter or a
    non-finite LML raises NumericError naming its iteration. It stops
    early after the iterate that follows |delta LML| staying below
    EARLY_STOP_TOL for EARLY_STOP_PATIENCE consecutive iterations, which
    shows as ``len(model.lml_trace) < iterations + 1``. Only
    the best-scoring iterate becomes a model, so the final LML never
    falls below the initial one, with its evaluation cached for predict.
    """
    config = config or OptimizerConfig()
    config.validate()
    training.validate(for_fitting=True)

    theta = initialize_model(training, config).theta
    m_state = np.zeros_like(theta)
    v_state = np.zeros_like(theta)
    geometry = _Geometry(training, config.rank)
    # Decay applies to W and all log-parameters, never to the means.
    decay_mask = np.ones_like(theta)
    decay_mask[geometry.blocks["means"]] = 0.0

    trace: list[float] = []
    stall = 0
    last = config.iterations
    for iteration in range(config.iterations + 1):
        bad = _non_finite_names(theta, training.num_outputs, config.rank)
        if bad:
            raise NumericError(
                f"non-finite parameter at iteration {iteration}: {bad}")
        step = geometry.evaluate(theta)
        lml = step.lml
        if not math.isfinite(lml):
            raise NumericError(
                f"non-finite log marginal likelihood at iteration {iteration}; "
                f"parameter snapshot: {theta.tolist()}")
        trace.append(lml)
        # theta is rebound at each step, never mutated, so best.theta
        # stays the best iterate's.
        if iteration == 0 or lml > best.lml:
            best = step
        if iteration == last:
            break

        grad = step.gradient()
        grad = grad - config.weight_decay * decay_mask * theta
        m_state = ADAM_BETA1 * m_state + (1.0 - ADAM_BETA1) * grad
        v_state = ADAM_BETA2 * v_state + (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m_state / (1.0 - ADAM_BETA1 ** (iteration + 1))
        v_hat = v_state / (1.0 - ADAM_BETA2 ** (iteration + 1))
        theta = theta + config.learning_rate * m_hat / (
            np.sqrt(v_hat) + ADAM_EPSILON)

        if iteration > 0 and abs(lml - trace[-2]) < EARLY_STOP_TOL:
            stall += 1
        else:
            stall = 0
        if stall >= EARLY_STOP_PATIENCE:
            last = iteration + 1

    return MoGPModel(theta=best.theta, training=training, config=config,
                     lml_trace=trace, _evaluation=best)


def predict(model: MoGPModel, query_times) -> PosteriorPrediction:
    """Posterior mean and standard deviation for every output.

    Predictive variance includes the observation noise. A variance that
    the numerical subtraction leaves negative is clamped at zero before
    the square root. Query times outside [0, 1] are allowed. The
    posterior comes from the model's cached evaluation, or from a local
    one when it has none; the model is not modified.
    """
    query = np.asarray(query_times, dtype=float).ravel()
    if query.shape[0] == 0:
        raise ValidationError("query grid is empty")
    if not np.all(np.isfinite(query)):
        raise ValidationError("query times must be finite")
    evaluation = model._evaluation or _evaluate(model)
    mean, explained = evaluation.posterior(query)
    return PosteriorPrediction(
        mean=evaluation.means[:, None] + mean,
        std=np.sqrt(np.maximum(evaluation.prior_variance() - explained, 0.0)))


def export_coregionalization(model: MoGPModel) -> tuple[np.ndarray, np.ndarray]:
    """B = W W^T + diag(kappa), as the evaluations unpack it, and its
    correlation-normalized form."""
    b = _Parameters(model.theta,
                    _Geometry(model.training, model.config.rank)).b
    diag = np.diag(b)
    if np.any(diag <= 0.0):
        raise ValidationError("coregionalization matrix has a zero diagonal entry")
    scale = np.sqrt(diag)
    normalized = b / np.outer(scale, scale)
    return b, normalized


# ---------------------------------------------------------------------------
# Serialization (schema mogp-v1).

MODEL_SCHEMA = "mogp-v1"

# One config.<name> line per OptimizerConfig field; load_model ignores
# the lines older files have for values that are now constants.
_CONFIG_KINDS = serialize.field_kinds(OptimizerConfig)


def _model_document(model: MoGPModel) -> list[tuple[str, str]]:
    rendered = model.training.rendered()
    theta = model.theta
    blocks = parameter_blocks(model.num_outputs, model.config.rank)
    kernel = theta[blocks.pop("kernel")]
    items: list[tuple[str, str]] = [
        ("schema", MODEL_SCHEMA),
        ("num_outputs", str(model.num_outputs)),
        ("rank", str(model.config.rank)),
        *((f"kernel.{name}", serialize.format_float(value))
          for name, value in zip(kernels.PARAMETER_NAMES, kernel)),
        # One float is its own one-entry list: log_noise_variance too.
        *((key, serialize.format_float_list(theta[part]))
          for key, part in blocks.items()),
        ("training.hash", model.training.data_hash(rendered)),
        ("training.num_points", str(model.training.size)),
        ("training.num_outputs", str(model.training.num_outputs)),
        *zip(("training.times", "training.outputs", "training.values"),
             rendered),
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
    try:
        config.validate()
    except ValidationError as exc:
        # Each message starts with the setting's name.
        raise ValidationError(f"{path}: config.{exc}") from None
    if config.rank != rank:
        raise ValidationError(f"{path}: rank and config.rank disagree")

    training = TrainingSet(
        times=floats("training.times"),
        outputs=serialize.parse_int_list(grab("training.outputs"),
                                         f"{path}: training.outputs"),
        values=floats("training.values"),
        num_outputs=integer("training.num_outputs"),
    )
    try:
        training.validate()
    except ValidationError as exc:
        raise ValidationError(f"{path}: training.{exc}") from None
    if training.size != integer("training.num_points"):
        raise ValidationError(f"{path}: training.num_points mismatch")
    if training.data_hash() != grab("training.hash"):
        raise ValidationError(f"{path}: training data hash mismatch")

    if training.num_outputs != num_outputs:
        raise ValidationError(
            f"{path}: num_outputs and training.num_outputs disagree")

    blocks = parameter_blocks(num_outputs, rank)
    del blocks["kernel"]
    theta = [[number(f"kernel.{name}") for name in kernels.PARAMETER_NAMES]]
    for key, part in blocks.items():
        values = floats(key)
        size = part.stop - part.start
        if len(values) != size:
            raise ValidationError(
                f"{path}: {key} has {len(values)} entries, expected {size}")
        theta.append(values)
    return MoGPModel(theta=np.concatenate(theta), training=training,
                     config=config)
