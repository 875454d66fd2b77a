"""Composite covariance functions for gait-cycle regression.

The temporal kernel is a sum of three stationary parts evaluated on
normalized cycle time: a periodic exponential-sine-squared term for the
repeating gait pattern, a squared-exponential term for smooth drift, and
a Matern-3/2 term for rougher local structure,

    k_t(t, t') = k_per(t, t') + k_se(t, t') + k_mat(t, t').

Each part depends on the lag r = |t - t'| alone (stationarity), so
TemporalKernel takes one lag array of any shape and holds the only copy
of the closed forms. lag_table reduces a time set's pairwise lags to
the distinct ones and an integer index into them; the MoGP's Gram matrix
and its gradient evaluate TemporalKernel once per distinct lag and
gather the full matrix from that index, and its posterior evaluates the
query-to-training lags directly.

Cross-output structure follows the intrinsic coregionalization model:
for outputs m, m' the covariance is B[m, m'] * k_t(t, t') with
B = W W^T + diag(kappa) positive semi-definite by construction; the
MoGP (gaitmogp.mogp) builds B from its packed parameter vector.

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

import numpy as np

# Floor applied to every positive hyperparameter after exponentiation.
PARAM_FLOOR = 1e-10

# TemporalKernel's seven log-space parameters, in the order its values
# and its gradient take them.
PARAMETER_NAMES = (
    "periodic.log_variance",
    "periodic.log_lengthscale",
    "periodic.log_period",
    "se.log_variance",
    "se.log_lengthscale",
    "matern32.log_variance",
    "matern32.log_lengthscale",
)

_SQRT3 = math.sqrt(3.0)


def _floored_exp_with_grad(log_value):
    """Value and d(value)/d(log_value) of the floored exponential.

    The derivative is zero where the floor is active, matching what a
    finite-difference check sees.
    """
    raw = np.exp(log_value)
    value = np.maximum(raw, PARAM_FLOOR)
    grad = np.where(raw > PARAM_FLOOR, raw, 0.0)
    return value, grad


class TemporalKernel:
    """k_t = k_per + k_se + k_mat on an array of lags r = |t - t'| of any
    shape; the only place the closed forms are written:

        k_per = s_p^2 exp(-2 sin^2(pi r / p) / l_p^2)
        k_se  = s_s^2 exp(-r^2 / (2 l_s^2))
        k_mat = s_m^2 (1 + sqrt(3) r / l_m) exp(-sqrt(3) r / l_m)

    It takes the floored values of the seven parameters and their
    derivatives d value / d log value (_floored_exp_with_grad), in
    PARAMETER_NAMES order.
    The components and their intermediates are kept, and the lag array
    is referenced (not copied), so the same evaluation serves
    :meth:`gradient`. The Gram matrix passes the distinct lags of a
    lag_table and gathers k_t by its index, and :meth:`gradient` then
    takes weights binned by lag; the posterior passes its whole matrix
    of query-to-training lags.
    """

    def __init__(self, values: np.ndarray, grads: np.ndarray, lag):
        self.lag, self._values, self._grads = lag, values, grads
        per_var, per_len, period, se_var, se_len, mat_var, mat_len = values

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
        parameters, in PARAMETER_NAMES order; weights has the lag
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


def lag_table(times) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of |t_i - t_j| for a 1-d time array t and the
    square (len(t), len(t)) index into them, so that
    ``lags[index] == abs(t[:, None] - t[None, :])``.

    Each lag is taken between distinct values of t, which is the same
    float subtraction as the full difference, so the gathered matrix is
    bit-identical to it.
    """
    values, value_index = np.unique(times, return_inverse=True)
    lags, inverse = np.unique(
        np.abs(values[:, None] - values[None, :]).ravel(),
        return_inverse=True)
    index = inverse.reshape(values.size, values.size)
    return lags, index[np.ix_(value_index, value_index)]
