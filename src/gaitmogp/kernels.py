"""Composite covariance functions for gait-cycle regression.

The temporal kernel is a sum of three stationary parts evaluated on
normalized cycle time: a periodic exponential-sine-squared term for the
repeating gait pattern, a squared-exponential term for smooth drift, and
a Matern-3/2 term for rougher local structure,

    k_t(t, t') = k_per(t, t') + k_se(t, t') + k_mat(t, t').

Each part depends on the lag r = |t - t'| alone (stationarity), so
TemporalKernel takes one lag array of any shape and holds the only copy
of the closed forms. lag_table reduces a pair of time sets to their
distinct lags and an integer index into them; gram_matrix, the MoGP's
Gram matrix and gradient and its posterior evaluate TemporalKernel once
per distinct lag and gather the full matrix from that index.

Cross-output structure follows the intrinsic coregionalization model:
for outputs m, m' the covariance is B[m, m'] * k_t(t, t') with
B = W W^T + diag(kappa) positive semi-definite by construction.

All positive hyperparameters (variances, length-scales, period, kappa)
are stored in log-space so optimization is unconstrained; values are
floored at PARAM_FLOOR after exponentiation to avoid degenerate kernels.
Gradients are contracted (TemporalKernel.gradient takes one weight per
lag; the MoGP contracts B's entries itself), never one n x n matrix per
parameter.
Functions here are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Floor applied to every positive hyperparameter after exponentiation.
PARAM_FLOOR = 1e-10

_SQRT3 = math.sqrt(3.0)


def _floored_exp(log_value):
    """exp(log_value) clipped below at PARAM_FLOOR (elementwise)."""
    return np.maximum(np.exp(log_value), PARAM_FLOOR)


def _floored_exp_with_grad(log_value):
    """Value and d(value)/d(log_value) of the floored exponential.

    The derivative is zero where the floor is active, matching what a
    finite-difference check sees.
    """
    raw = np.exp(log_value)
    value = np.maximum(raw, PARAM_FLOOR)
    grad = np.where(raw > PARAM_FLOOR, raw, 0.0)
    return value, grad


@dataclass
class SubKernelParams:
    """Log-space parameters of one kernel component.

    Parameters
    ----------
    log_variance : float
        Log of the signal variance sigma^2.
    log_lengthscale : float
        Log of the length-scale.
    log_period : float or None
        Log of the period; only the periodic component uses it.
    """

    log_variance: float
    log_lengthscale: float
    log_period: float | None = None

    @classmethod
    def from_values(cls, variance: float, lengthscale: float,
                    period: float | None = None) -> "SubKernelParams":
        """Build from natural-space values (must be positive)."""
        for name, value in (("variance", variance), ("lengthscale", lengthscale)):
            if not value > 0.0:
                raise ValidationError(f"{name} must be positive, got {value}")
        if period is not None and not period > 0.0:
            raise ValidationError(f"period must be positive, got {period}")
        return cls(
            log_variance=math.log(variance),
            log_lengthscale=math.log(lengthscale),
            log_period=None if period is None else math.log(period),
        )

    @property
    def variance(self) -> float:
        return float(_floored_exp(self.log_variance))

    @property
    def lengthscale(self) -> float:
        return float(_floored_exp(self.log_lengthscale))

    @property
    def period(self) -> float:
        if self.log_period is None:
            raise ValidationError("component has no period parameter")
        return float(_floored_exp(self.log_period))


@dataclass
class CompositeKernelSpec:
    """The three components of the temporal kernel."""

    periodic: SubKernelParams
    se: SubKernelParams
    matern32: SubKernelParams

    def __post_init__(self):
        if self.periodic.log_period is None:
            raise ValidationError("periodic component requires a period")

    @classmethod
    def from_values(cls, variance: float, lengthscale: float,
                    period: float) -> "CompositeKernelSpec":
        """All three components at one natural-space variance and
        length-scale; the periodic one also gets the period."""
        return cls(
            periodic=SubKernelParams.from_values(variance, lengthscale,
                                                 period=period),
            se=SubKernelParams.from_values(variance, lengthscale),
            matern32=SubKernelParams.from_values(variance, lengthscale),
        )

    @classmethod
    def from_log_values(cls, v) -> "CompositeKernelSpec":
        """Inverse of log_values."""
        return cls(periodic=SubKernelParams(v[0], v[1], v[2]),
                   se=SubKernelParams(v[3], v[4]),
                   matern32=SubKernelParams(v[5], v[6]))

    def log_values(self) -> list[float]:
        """The seven log-space parameters in kernel_parameter_names order."""
        p, s, m = self.periodic, self.se, self.matern32
        return [p.log_variance, p.log_lengthscale, p.log_period,
                s.log_variance, s.log_lengthscale,
                m.log_variance, m.log_lengthscale]

    def prior_variance(self) -> float:
        """k_t(t, t): sum of the three signal variances."""
        return (self.periodic.variance + self.se.variance
                + self.matern32.variance)


@dataclass
class CoregionalizationFactor:
    """Low-rank-plus-diagonal cross-output factor B = W W^T + diag(kappa).

    W is (num_outputs, rank) and unconstrained; kappa is stored in
    log-space and floored like the other positive parameters, keeping B
    positive definite.
    """

    w: np.ndarray
    log_kappa: np.ndarray

    def __post_init__(self):
        self.w = np.atleast_2d(np.asarray(self.w, dtype=float))
        self.log_kappa = np.asarray(self.log_kappa, dtype=float).ravel()
        if self.w.ndim != 2:
            raise ValidationError("W must be a 2-d array")
        if self.w.shape[0] != self.log_kappa.shape[0]:
            raise ValidationError(
                f"W has {self.w.shape[0]} rows but kappa has "
                f"{self.log_kappa.shape[0]} entries")
        if not (np.all(np.isfinite(self.w))
                and np.all(np.isfinite(self.log_kappa))):
            raise ValidationError("coregionalization parameters must be finite")

    @property
    def num_outputs(self) -> int:
        return self.w.shape[0]

    @property
    def rank(self) -> int:
        return self.w.shape[1]

    @property
    def kappa(self) -> np.ndarray:
        return _floored_exp(self.log_kappa)

    def matrix(self) -> np.ndarray:
        """Dense B, symmetric PSD with strictly positive diagonal."""
        return self.w @ self.w.T + np.diag(self.kappa)


class TemporalKernel:
    """k_t = k_per + k_se + k_mat on an array of lags r = |t - t'| of any
    shape; the only place the closed forms are written:

        k_per = s_p^2 exp(-2 sin^2(pi r / p) / l_p^2)
        k_se  = s_s^2 exp(-r^2 / (2 l_s^2))
        k_mat = s_m^2 (1 + sqrt(3) r / l_m) exp(-sqrt(3) r / l_m)

    The seven parameters are the floored values of the spec's log-space
    ones, taken by one vector call of _floored_exp_with_grad, or given
    with their derivatives by :meth:`from_floored`. The components and
    their intermediates are kept, and the lag array is referenced (not
    copied), so the same evaluation serves :meth:`gradient`. Callers
    pass the distinct lags of a lag_table and gather k_t by its index;
    :meth:`gradient` then takes weights binned by lag.
    """

    def __init__(self, spec: CompositeKernelSpec, lag):
        self._evaluate(*_floored_exp_with_grad(np.array(spec.log_values())),
                       lag)

    @classmethod
    def from_floored(cls, values: np.ndarray, grads: np.ndarray,
                     lag) -> "TemporalKernel":
        """The kernel at floored parameter values and their derivatives
        d value / d log value, in kernel_parameter_names order; entries
        past the seventh are ignored."""
        kernel = cls.__new__(cls)
        kernel._evaluate(values, grads, lag)
        return kernel

    def _evaluate(self, values: np.ndarray, grads: np.ndarray, lag) -> None:
        self.lag, self._values, self._grads = lag, values[:7], grads[:7]
        per_var, per_len, period, se_var, se_len, mat_var, mat_len = \
            self._values

        self._u = np.pi * lag / period
        self._sin_u = np.sin(self._u)
        self.k_per = per_var * np.exp(
            -2.0 * self._sin_u * self._sin_u / (per_len * per_len))

        self.k_se = se_var * np.exp(-0.5 * (lag * lag) / (se_len * se_len))

        self._a = _SQRT3 * lag / mat_len
        self._exp_a = np.exp(-self._a)
        self.k_mat = mat_var * (1.0 + self._a) * self._exp_a

        self.k_t = self.k_per + self.k_se + self.k_mat

    def gradient(self, weights) -> np.ndarray:
        """sum_l weights[l] * d k_t[l] / d theta for the seven log-space
        parameters, in kernel_parameter_names order; weights has the lag
        array's shape (one weight per lag, e.g. summed over the pairs
        that share it).

        A partial is zero where its parameter's floor is active.
        """
        # (d value / d log value) / value: 1, or 0 on the floor.
        rel = self._grads / self._values
        u, sin_u, a = self._u, self._sin_u, self._a
        weighted_per = weights * self.k_per
        # numpy scalars: a huge lengthscale squares to inf, not an error.
        per_len2 = self._values[1] ** 2
        se_len2 = self._values[4] ** 2
        return np.array([
            np.vdot(weights, self.k_per) * rel[0],
            # d k_per / d log l = k_per * 4 sin^2(u) / l^2.
            np.vdot(weighted_per, sin_u * sin_u) * 4.0 / per_len2 * rel[1],
            # d k_per / d log p = k_per * 2 u sin(2u) / l^2.
            np.vdot(weighted_per, u * np.sin(2.0 * u)) * 2.0 / per_len2
            * rel[2],
            np.vdot(weights, self.k_se) * rel[3],
            # d k_se / d log l = k_se * r^2 / l^2.
            np.vdot(weights, self.k_se * (self.lag * self.lag)) / se_len2
            * rel[4],
            np.vdot(weights, self.k_mat) * rel[5],
            # d/da [(1+a) e^-a] = -a e^-a and da/d log l = -a.
            np.vdot(weights, a * a * self._exp_a) * self._values[5] * rel[6],
        ])


def _validate_points(num_outputs: int, times, outputs):
    """Checked float times and int output indices of stacked points."""
    times = np.asarray(times, dtype=float).ravel()
    outputs = np.asarray(outputs).ravel()
    if times.shape[0] != outputs.shape[0]:
        raise ValidationError(
            f"times ({times.shape[0]}) and outputs ({outputs.shape[0]}) "
            "must have equal length")
    if times.shape[0] == 0:
        raise ValidationError("point set is empty: at least one "
                              "(time, output) point is required")
    if not np.all(np.isfinite(times)):
        raise ValidationError("times must be finite")
    if not (np.issubdtype(outputs.dtype, np.integer)
            or np.all(np.isfinite(outputs) & (outputs == np.round(outputs)))):
        raise ValidationError("output indices must be integers")
    if np.any(outputs < 0) or np.any(outputs >= num_outputs):
        raise ValidationError(
            f"output indices must lie in [0, {num_outputs})")
    return times, outputs.astype(int)


def lag_table(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of |a_i - b_j| for 1-d time arrays a and b and the
    (len(a), len(b)) index into them, so that
    ``lags[index] == abs(a[:, None] - b[None, :])``.

    Each lag is taken between distinct values of a and b, which is the
    same float subtraction as the full difference, so the gathered
    matrix is bit-identical to it.
    """
    a_values, a_index = np.unique(a, return_inverse=True)
    b_values, b_index = np.unique(b, return_inverse=True)
    lags, inverse = np.unique(
        np.abs(a_values[:, None] - b_values[None, :]).ravel(),
        return_inverse=True)
    index = inverse.reshape(a_values.size, b_values.size)
    return lags, index[np.ix_(a_index, b_index)]


def gram_matrix(spec: CompositeKernelSpec, coreg: CoregionalizationFactor,
                times, outputs) -> np.ndarray:
    """Dense Gram matrix of the ICM kernel at stacked (time, output) points.

    Parameters
    ----------
    times : array of shape (n,)
        Normalized cycle times.
    outputs : int array of shape (n,)
        Output index of each point, in [0, num_outputs).

    Returns
    -------
    (n, n) symmetric PSD matrix.
    """
    times, outputs = _validate_points(coreg.num_outputs, times, outputs)
    lags, index = lag_table(times, times)
    b_oo = coreg.matrix()[np.ix_(outputs, outputs)]
    return b_oo * TemporalKernel(spec, lags).k_t[index]


def kernel_parameter_names(num_outputs: int, rank: int) -> list[str]:
    """Canonical ordering of the unconstrained kernel + coreg parameters.

    The first seven are TemporalKernel.gradient's entries, then W
    row-major, then log kappa.
    """
    names = [
        "periodic.log_variance",
        "periodic.log_lengthscale",
        "periodic.log_period",
        "se.log_variance",
        "se.log_lengthscale",
        "matern32.log_variance",
        "matern32.log_lengthscale",
    ]
    names += [f"coreg.w[{i},{j}]" for i in range(num_outputs) for j in range(rank)]
    names += [f"coreg.log_kappa[{i}]" for i in range(num_outputs)]
    return names
