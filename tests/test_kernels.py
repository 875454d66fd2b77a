from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitmogp import mogp
from gaitmogp.errors import ValidationError
from gaitmogp.kernels import (
    PARAM_FLOOR,
    PARAMETER_NAMES,
    TemporalKernel,
    _floored_exp_with_grad,
    lag_table,
)

import oracles

# Reference values computed with 50-digit closed forms.
SE_SPOT = 0.37820094915999260848       # v=1.3, l=0.35, t=0.2, t'=0.75
MATERN_SPOT = 4.1356342859527333418e-4  # v=0.7, l=0.15, t=0.9, t'=0.05
PERIODIC_SPOT = 0.013799680188033495935  # v=2.1, l=0.6, p=1.25, t=0.1, t'=0.85
COMPOSITE_SPOT = 0.51405075067619723233  # all v=1, l=0.2, p=1, t=0.3, t'=0.62

finite_times = st.floats(min_value=0.0, max_value=1.0)
log_params = st.floats(min_value=-2.5, max_value=2.5)


def _log_values(periodic=(1.0, 0.2, 1.0), se=(1.0, 0.2),
                matern32=(1.0, 0.2)) -> list[float]:
    """The seven log-space kernel entries (PARAMETER_NAMES order)
    from natural-space (variance, lengthscale[, period]) tuples."""
    return [math.log(value) for value in (*periodic, *se, *matern32)]


# Unit variances and period, length-scales 0.2.
BASE = _log_values()


def _kernel(log_values, lag) -> TemporalKernel:
    return TemporalKernel(
        *_floored_exp_with_grad(np.array(log_values, dtype=float)), lag)


def _lag(t, t_prime):
    return np.abs(np.subtract(t, t_prime, dtype=float))


def _random_log_values(rng: np.random.Generator) -> list[float]:
    def params(with_period: bool) -> tuple:
        variance = float(rng.uniform(0.1, 3.0))
        lengthscale = float(rng.uniform(0.05, 2.0))
        if with_period:
            return variance, lengthscale, float(rng.uniform(0.3, 2.0))
        return variance, lengthscale
    return _log_values(params(True), params(False), params(False))


def _random_coreg(rng: np.random.Generator, num_outputs: int,
                  rank: int) -> np.ndarray:
    """W row-major, then log kappa."""
    w = rng.normal(0.0, 0.7, size=(num_outputs, rank))
    return np.concatenate([
        w.ravel(), np.log(rng.uniform(0.05, 1.0, size=num_outputs))])


def _evaluation(theta, num_outputs: int, rank: int, times, outputs):
    """mogp's evaluation for the kernel, W and log kappa entries of theta
    (zero means and values, unit noise) and the Gram matrix of its
    points: B_oo o k_t on the dense path, B (x) K_t on the Kronecker
    one, with K_t gathered from k_t on the distinct times by each
    frame's group."""
    training = mogp.TrainingSet(times=times, outputs=outputs,
                                values=np.zeros(len(times)),
                                num_outputs=num_outputs)
    model = mogp.MoGPModel(
        theta=np.concatenate([theta, np.zeros(num_outputs + 1)]),
        training=training, config=mogp.OptimizerConfig(rank=rank))
    evaluation = mogp._evaluate(model)
    if type(evaluation) is mogp._KroneckerEvaluation:
        group = evaluation.geometry.group
        return evaluation, np.kron(evaluation.b,
                                   evaluation.k_t[np.ix_(group, group)])
    return evaluation, evaluation.b_oo * evaluation.k_t


class TestClosedFormValues:
    def test_se_spot_value(self):
        log_values = _log_values(se=(1.3, 0.35))
        assert _kernel(log_values, _lag(0.2, 0.75)).k_se == pytest.approx(
            SE_SPOT, rel=1e-13)

    def test_matern32_spot_value(self):
        log_values = _log_values(matern32=(0.7, 0.15))
        assert _kernel(log_values, _lag(0.9, 0.05)).k_mat == pytest.approx(
            MATERN_SPOT, rel=1e-13)

    def test_periodic_spot_value(self):
        log_values = _log_values(periodic=(2.1, 0.6, 1.25))
        assert _kernel(log_values, _lag(0.1, 0.85)).k_per == pytest.approx(
            PERIODIC_SPOT, rel=1e-13)

    def test_composite_spot_value(self):
        assert _kernel(BASE, _lag(0.3, 0.62)).k_t == pytest.approx(
            COMPOSITE_SPOT, rel=1e-13)

    def test_random_params_match_high_precision_forms(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            log_values = _random_log_values(rng)
            t, t_prime = rng.uniform(0.0, 1.0, size=2)
            kernel = _kernel(log_values, _lag(t, t_prime))
            values, _ = _floored_exp_with_grad(np.array(log_values))
            per, se, mat = values[0:3], values[3:5], values[5:7]
            checks = [
                (kernel.k_per, oracles.periodic_value(*per, t, t_prime)),
                (kernel.k_se, oracles.se_value(*se, t, t_prime)),
                (kernel.k_mat, oracles.matern32_value(*mat, t, t_prime)),
                (kernel.k_t,
                 oracles.composite_value(per, se, mat, t, t_prime)),
            ]
            for got, expected in checks:
                assert float(got) == pytest.approx(float(expected), rel=1e-12)

    def test_vectorized_evaluation_matches_scalars(self):
        t = np.linspace(0.0, 1.0, 9)
        grid = _kernel(BASE, _lag(t[:, None], t[None, :])).k_t
        for i in range(9):
            for j in range(9):
                assert grid[i, j] == float(_kernel(BASE, _lag(t[i], t[j])).k_t)


class TestKernelProperties:
    @given(log_v=log_params, log_l=log_params, t=finite_times,
           t_prime=finite_times)
    @settings(max_examples=60, deadline=None)
    def test_se_symmetric_and_bounded(self, log_v, log_l, t, t_prime):
        log_values = [*BASE[:3], log_v, log_l, *BASE[5:]]
        value = float(_kernel(log_values, _lag(t, t_prime)).k_se)
        assert value == float(_kernel(log_values, _lag(t_prime, t)).k_se)
        variance = max(math.exp(log_v), PARAM_FLOOR)
        assert 0.0 <= value <= variance * (1.0 + 1e-12)

    @given(log_v=log_params, log_l=log_params, log_p=log_params,
           t=finite_times, t_prime=finite_times)
    @settings(max_examples=60, deadline=None)
    def test_periodic_repeats_with_period(self, log_v, log_l, log_p, t,
                                          t_prime):
        log_values = [log_v, log_l, log_p, *BASE[3:]]
        period = max(math.exp(log_p), PARAM_FLOOR)
        base = float(_kernel(log_values, _lag(t, t_prime)).k_per)
        shifted = float(_kernel(log_values, _lag(t + period, t_prime)).k_per)
        assert base == pytest.approx(shifted, rel=1e-9, abs=1e-12)

    def test_composite_at_zero_lag_is_prior_variance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            log_values = _random_log_values(rng)
            t = float(rng.uniform(0.0, 1.0))
            values, _ = _floored_exp_with_grad(np.array(log_values))
            assert float(_kernel(log_values, _lag(t, t)).k_t) == pytest.approx(
                values[0] + values[3] + values[5], rel=1e-12)

    def test_gram_matrix_matches_pairwise_icm(self):
        rng = np.random.default_rng(11)
        log_values = _random_log_values(rng)
        coreg = _random_coreg(rng, num_outputs=3, rank=2)
        w, kappa = coreg[:6].reshape(3, 2), np.exp(coreg[6:])
        times = rng.uniform(0.0, 1.0, size=8)
        outputs = rng.integers(0, 3, size=8)
        _, gram = _evaluation(np.concatenate([log_values, coreg]), 3, 2,
                              times, outputs)
        b = w @ w.T + np.diag(kappa)
        for i in range(8):
            for j in range(8):
                expected = b[outputs[i], outputs[j]] * _kernel(
                    log_values, _lag(times[i], times[j])).k_t
                assert gram[i, j] == pytest.approx(float(expected), rel=1e-12)

    def test_gram_matrix_symmetric_positive_semidefinite(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            m = int(rng.integers(1, 7))
            log_values = _random_log_values(rng)
            rank = int(rng.integers(1, 4))
            coreg = _random_coreg(rng, num_outputs=m, rank=rank)
            n = int(rng.integers(2, 30))
            times = rng.uniform(0.0, 1.0, size=n)
            outputs = rng.integers(0, m, size=n)
            _, gram = _evaluation(np.concatenate([log_values, coreg]), m,
                                  rank, times, outputs)
            assert np.max(np.abs(gram - gram.T)) < 1e-12
            min_eig = float(np.min(np.linalg.eigvalsh(gram)))
            assert min_eig >= -1e-8 * float(np.trace(gram))


class TestLagTable:
    # Grid times k / T repeat; uniform ones make every lag distinct.
    time_sets = st.one_of(
        st.integers(2, 50).flatmap(lambda size: st.lists(
            st.integers(0, size - 1).map(lambda k: k / size),
            min_size=1, max_size=40)),
        st.lists(finite_times, min_size=1, max_size=40))

    @given(times=time_sets, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_table_gathers_the_full_lag_evaluation(self, times, seed):
        times = np.array(times)
        full = _lag(times[:, None], times[None, :])
        lags, index = lag_table(times)
        assert lags.size == np.unique(full).size
        np.testing.assert_array_equal(lags[index], full)
        log_values = _random_log_values(np.random.default_rng(seed))
        np.testing.assert_array_equal(_kernel(log_values, lags).k_t[index],
                                      _kernel(log_values, full).k_t)

    # Any finite times whose differences stay finite, repeated or not,
    # in any order, and single ones.
    @given(times=st.one_of(time_sets, st.lists(
        st.floats(min_value=-1e300, max_value=1e300), min_size=1,
        max_size=40)))
    @settings(max_examples=80, deadline=None)
    def test_zero_lag_comes_first_and_indexes_the_diagonal(self, times):
        # The MoGP's prior variance reads k_t(0) as k_t of the first lag.
        times = np.array(times)
        lags, index = lag_table(times)
        assert lags[0] == 0.0
        np.testing.assert_array_equal(np.diag(index), 0)

    @given(times=time_sets, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_gram_matrix_equals_the_full_lag_evaluation(self, times, seed):
        rng = np.random.default_rng(seed)
        times = np.array(times)
        outputs = rng.integers(0, 3, size=times.size)
        log_values = _random_log_values(rng)
        coreg = _random_coreg(rng, num_outputs=3, rank=2)
        evaluation, gram = _evaluation(np.concatenate([log_values, coreg]),
                                       3, 2, times, outputs)
        full = _kernel(log_values, _lag(times[:, None], times[None, :])).k_t
        np.testing.assert_array_equal(
            gram, evaluation.b[np.ix_(outputs, outputs)] * full)


class TestKernelGradients:
    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(5)
        num_outputs, rank, n = 3, 2, 7
        log_values = _random_log_values(rng)
        coreg = _random_coreg(rng, num_outputs, rank)
        times = rng.uniform(0.0, 1.0, size=n)
        outputs = rng.integers(0, num_outputs, size=n)

        theta = np.concatenate([log_values, coreg])
        grads = oracles.kernel_gradients(theta, num_outputs, rank, times,
                                         outputs)
        names = mogp.parameter_names(num_outputs, rank)[:theta.size]
        assert list(grads) == names

        def gram(vector):
            return _evaluation(vector, num_outputs, rank, times, outputs)[1]

        step = 1e-6
        for index, name in enumerate(names):
            high = theta.copy()
            low = theta.copy()
            high[index] += step
            low[index] -= step
            fd = (gram(high) - gram(low)) / (2.0 * step)
            scale = max(1.0, float(np.max(np.abs(fd))))
            assert np.max(np.abs(grads[name] - fd)) / scale < 1e-6, name

    def test_gradient_is_zero_where_floor_active(self):
        theta = np.array([0.0, 0.0, 0.0, -60.0, 0.0, 0.0, 0.0,
                          1.0, 1.0, 0.0, 0.0])
        grads = oracles.kernel_gradients(theta, 2, 1, [0.1, 0.6], [0, 1])
        assert np.all(grads["se.log_variance"] == 0.0)

    def test_huge_lengthscale_gradient_is_finite(self):
        # exp(709) squares past the float range; the lengthscale partials
        # are then 0 instead of an OverflowError.
        lag = np.array([[0.0, 0.3], [0.3, 0.0]])
        with np.errstate(over="ignore"):
            kernel = _kernel([0.0, 709.0, 0.0, 0.0, 709.0, 0.0, 0.0], lag)
            grad = kernel.gradient(np.ones((2, 2)))
        assert np.all(np.isfinite(grad))
        assert grad[1] == 0.0 and grad[4] == 0.0

    def test_parameter_names_cover_w_then_kappa(self):
        names = mogp.parameter_names(num_outputs=2, rank=2)
        assert names[:7] == list(PARAMETER_NAMES) == [
            "periodic.log_variance", "periodic.log_lengthscale",
            "periodic.log_period", "se.log_variance", "se.log_lengthscale",
            "matern32.log_variance", "matern32.log_lengthscale"]
        assert names[7:13] == [
            "coreg.w[0,0]", "coreg.w[0,1]", "coreg.w[1,0]", "coreg.w[1,1]",
            "coreg.log_kappa[0]", "coreg.log_kappa[1]"]


class TestParameterHandling:
    def test_floor_applies_after_exponentiation(self):
        values, grads = _floored_exp_with_grad(np.array([-60.0, -60.0]))
        assert np.all(values == PARAM_FLOOR)
        assert np.all(grads == 0.0)

    def test_coregionalization_matrix_form(self):
        rng = np.random.default_rng(13)
        w = rng.normal(size=(4, 2))
        kappa = rng.uniform(0.1, 1.0, size=4)
        theta = np.concatenate([BASE, w.ravel(), np.log(kappa)])
        evaluation, _ = _evaluation(theta, 4, 2, np.linspace(0.0, 1.0, 4),
                                    np.arange(4))
        expected = w @ w.T + np.diag(kappa)
        assert np.allclose(evaluation.b, expected, rtol=1e-12)
        assert float(np.min(np.linalg.eigvalsh(evaluation.b))) >= 0.0

    def test_coregionalization_rejects_non_finite_parameters(self):
        training = mogp.TrainingSet(times=[0.1, 0.2], outputs=[0, 1],
                                    values=[0.0, 0.0], num_outputs=2)
        theta = np.concatenate([BASE, np.ones(2), [0.5, np.nan],
                                np.zeros(3)])
        with pytest.raises(ValidationError, match=re.escape(
                "non-finite parameter: coreg.log_kappa[1]")):
            mogp.MoGPModel(theta=theta, training=training,
                           config=mogp.OptimizerConfig(rank=1))
