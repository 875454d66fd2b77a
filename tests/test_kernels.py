from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitmogp.errors import ValidationError
from gaitmogp.kernels import (
    PARAM_FLOOR,
    CompositeKernelSpec,
    CoregionalizationFactor,
    SubKernelParams,
    TemporalKernel,
    gram_matrix,
    kernel_parameter_names,
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

# Unit variances and period, length-scales 0.2.
BASE_SPEC = CompositeKernelSpec.from_values(1.0, 0.2, 1.0)


def _lag(t, t_prime):
    return np.abs(np.subtract(t, t_prime, dtype=float))


def _random_spec(rng: np.random.Generator) -> CompositeKernelSpec:
    def params(with_period: bool) -> SubKernelParams:
        return SubKernelParams.from_values(
            variance=float(rng.uniform(0.1, 3.0)),
            lengthscale=float(rng.uniform(0.05, 2.0)),
            period=float(rng.uniform(0.3, 2.0)) if with_period else None)
    return CompositeKernelSpec(periodic=params(True), se=params(False),
                               matern32=params(False))


def _random_coreg(rng: np.random.Generator, num_outputs: int,
                  rank: int) -> CoregionalizationFactor:
    return CoregionalizationFactor(
        w=rng.normal(0.0, 0.7, size=(num_outputs, rank)),
        log_kappa=np.log(rng.uniform(0.05, 1.0, size=num_outputs)))


class TestClosedFormValues:
    def test_se_spot_value(self):
        spec = replace(BASE_SPEC, se=SubKernelParams.from_values(1.3, 0.35))
        assert TemporalKernel(spec, _lag(0.2, 0.75)).k_se == pytest.approx(
            SE_SPOT, rel=1e-13)

    def test_matern32_spot_value(self):
        spec = replace(BASE_SPEC,
                       matern32=SubKernelParams.from_values(0.7, 0.15))
        assert TemporalKernel(spec, _lag(0.9, 0.05)).k_mat == pytest.approx(
            MATERN_SPOT, rel=1e-13)

    def test_periodic_spot_value(self):
        spec = replace(BASE_SPEC, periodic=SubKernelParams.from_values(
            2.1, 0.6, period=1.25))
        assert TemporalKernel(spec, _lag(0.1, 0.85)).k_per == pytest.approx(
            PERIODIC_SPOT, rel=1e-13)

    def test_composite_spot_value(self):
        assert TemporalKernel(BASE_SPEC, _lag(0.3, 0.62)).k_t == pytest.approx(
            COMPOSITE_SPOT, rel=1e-13)

    def test_random_params_match_high_precision_forms(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            spec = _random_spec(rng)
            t, t_prime = rng.uniform(0.0, 1.0, size=2)
            kernel = TemporalKernel(spec, _lag(t, t_prime))
            per = spec.periodic
            se = spec.se
            mat = spec.matern32
            checks = [
                (kernel.k_per,
                 oracles.periodic_value(per.variance, per.lengthscale,
                                        per.period, t, t_prime)),
                (kernel.k_se,
                 oracles.se_value(se.variance, se.lengthscale, t, t_prime)),
                (kernel.k_mat,
                 oracles.matern32_value(mat.variance, mat.lengthscale,
                                        t, t_prime)),
                (kernel.k_t,
                 oracles.composite_value(
                     (per.variance, per.lengthscale, per.period),
                     (se.variance, se.lengthscale),
                     (mat.variance, mat.lengthscale), t, t_prime)),
            ]
            for got, expected in checks:
                assert float(got) == pytest.approx(float(expected), rel=1e-12)

    def test_vectorized_evaluation_matches_scalars(self):
        t = np.linspace(0.0, 1.0, 9)
        grid = TemporalKernel(BASE_SPEC, _lag(t[:, None], t[None, :])).k_t
        for i in range(9):
            for j in range(9):
                assert grid[i, j] == float(
                    TemporalKernel(BASE_SPEC, _lag(t[i], t[j])).k_t)


class TestKernelProperties:
    @given(log_v=log_params, log_l=log_params, t=finite_times,
           t_prime=finite_times)
    @settings(max_examples=60, deadline=None)
    def test_se_symmetric_and_bounded(self, log_v, log_l, t, t_prime):
        params = SubKernelParams(log_v, log_l)
        spec = replace(BASE_SPEC, se=params)
        value = float(TemporalKernel(spec, _lag(t, t_prime)).k_se)
        assert value == float(TemporalKernel(spec, _lag(t_prime, t)).k_se)
        assert 0.0 <= value <= params.variance * (1.0 + 1e-12)

    @given(log_v=log_params, log_l=log_params, log_p=log_params,
           t=finite_times, t_prime=finite_times)
    @settings(max_examples=60, deadline=None)
    def test_periodic_repeats_with_period(self, log_v, log_l, log_p, t,
                                          t_prime):
        params = SubKernelParams(log_v, log_l, log_p)
        spec = replace(BASE_SPEC, periodic=params)
        base = float(TemporalKernel(spec, _lag(t, t_prime)).k_per)
        shifted = float(
            TemporalKernel(spec, _lag(t + params.period, t_prime)).k_per)
        assert base == pytest.approx(shifted, rel=1e-9, abs=1e-12)

    def test_composite_at_zero_lag_is_prior_variance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            spec = _random_spec(rng)
            t = float(rng.uniform(0.0, 1.0))
            assert float(TemporalKernel(spec, _lag(t, t)).k_t) == pytest.approx(
                spec.prior_variance(), rel=1e-12)

    def test_gram_matrix_matches_pairwise_icm(self):
        rng = np.random.default_rng(11)
        spec = _random_spec(rng)
        coreg = _random_coreg(rng, num_outputs=3, rank=2)
        times = rng.uniform(0.0, 1.0, size=8)
        outputs = rng.integers(0, 3, size=8)
        gram = gram_matrix(spec, coreg, times, outputs)
        b = coreg.matrix()
        for i in range(8):
            for j in range(8):
                expected = b[outputs[i], outputs[j]] * TemporalKernel(
                    spec, _lag(times[i], times[j])).k_t
                assert gram[i, j] == pytest.approx(float(expected), rel=1e-12)

    def test_gram_matrix_symmetric_positive_semidefinite(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            m = int(rng.integers(1, 7))
            spec = _random_spec(rng)
            coreg = _random_coreg(rng, num_outputs=m,
                                  rank=int(rng.integers(1, 4)))
            n = int(rng.integers(2, 30))
            times = rng.uniform(0.0, 1.0, size=n)
            outputs = rng.integers(0, m, size=n)
            gram = gram_matrix(spec, coreg, times, outputs)
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

    @given(a=time_sets, b=time_sets, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_table_gathers_the_full_lag_evaluation(self, a, b, seed):
        a, b = np.array(a), np.array(b)
        full = _lag(a[:, None], b[None, :])
        lags, index = lag_table(a, b)
        assert lags.size == np.unique(full).size
        np.testing.assert_array_equal(lags[index], full)
        spec = _random_spec(np.random.default_rng(seed))
        np.testing.assert_array_equal(TemporalKernel(spec, lags).k_t[index],
                                      TemporalKernel(spec, full).k_t)

    @given(times=time_sets, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_gram_matrix_equals_the_full_lag_evaluation(self, times, seed):
        rng = np.random.default_rng(seed)
        times = np.array(times)
        outputs = rng.integers(0, 3, size=times.size)
        spec = _random_spec(rng)
        coreg = _random_coreg(rng, num_outputs=3, rank=2)
        full = TemporalKernel(spec, _lag(times[:, None], times[None, :])).k_t
        np.testing.assert_array_equal(
            gram_matrix(spec, coreg, times, outputs),
            coreg.matrix()[np.ix_(outputs, outputs)] * full)


class TestKernelGradients:
    @staticmethod
    def _gram_from_vector(theta, times, outputs, num_outputs, rank):
        spec = CompositeKernelSpec(
            periodic=SubKernelParams(theta[0], theta[1], theta[2]),
            se=SubKernelParams(theta[3], theta[4]),
            matern32=SubKernelParams(theta[5], theta[6]))
        pos = 7
        w = np.asarray(theta[pos:pos + num_outputs * rank]).reshape(
            num_outputs, rank)
        pos += num_outputs * rank
        coreg = CoregionalizationFactor(
            w=w, log_kappa=np.asarray(theta[pos:pos + num_outputs]))
        return gram_matrix(spec, coreg, times, outputs)

    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(5)
        num_outputs, rank, n = 3, 2, 7
        spec = _random_spec(rng)
        coreg = _random_coreg(rng, num_outputs, rank)
        times = rng.uniform(0.0, 1.0, size=n)
        outputs = rng.integers(0, num_outputs, size=n)

        theta = np.concatenate([
            [spec.periodic.log_variance, spec.periodic.log_lengthscale,
             spec.periodic.log_period, spec.se.log_variance,
             spec.se.log_lengthscale, spec.matern32.log_variance,
             spec.matern32.log_lengthscale],
            coreg.w.ravel(), coreg.log_kappa])
        grads = oracles.kernel_gradients(spec, coreg, times, outputs)
        names = kernel_parameter_names(num_outputs, rank)
        assert list(grads) == names

        step = 1e-6
        for index, name in enumerate(names):
            high = theta.copy()
            low = theta.copy()
            high[index] += step
            low[index] -= step
            fd = (self._gram_from_vector(high, times, outputs, num_outputs, rank)
                  - self._gram_from_vector(low, times, outputs, num_outputs,
                                           rank)) / (2.0 * step)
            scale = max(1.0, float(np.max(np.abs(fd))))
            assert np.max(np.abs(grads[name] - fd)) / scale < 1e-6, name

    def test_gradient_is_zero_where_floor_active(self):
        spec = CompositeKernelSpec(
            periodic=SubKernelParams(0.0, 0.0, 0.0),
            se=SubKernelParams(-60.0, 0.0),
            matern32=SubKernelParams(0.0, 0.0))
        coreg = CoregionalizationFactor(w=np.ones((2, 1)),
                                        log_kappa=np.zeros(2))
        grads = oracles.kernel_gradients(spec, coreg, [0.1, 0.6], [0, 1])
        assert np.all(grads["se.log_variance"] == 0.0)

    def test_huge_lengthscale_gradient_is_finite(self):
        # exp(709) squares past the float range; the lengthscale partials
        # are then 0 instead of an OverflowError.
        spec = CompositeKernelSpec(
            periodic=SubKernelParams(0.0, 709.0, 0.0),
            se=SubKernelParams(0.0, 709.0),
            matern32=SubKernelParams(0.0, 0.0))
        lag = np.array([[0.0, 0.3], [0.3, 0.0]])
        with np.errstate(over="ignore"):
            kernel = TemporalKernel(spec, lag)
            grad = kernel.gradient(np.ones((2, 2)))
        assert np.all(np.isfinite(grad))
        assert grad[1] == 0.0 and grad[4] == 0.0

    def test_parameter_names_cover_w_then_kappa(self):
        names = kernel_parameter_names(num_outputs=2, rank=2)
        assert names[:7] == [
            "periodic.log_variance", "periodic.log_lengthscale",
            "periodic.log_period", "se.log_variance", "se.log_lengthscale",
            "matern32.log_variance", "matern32.log_lengthscale"]
        assert names[7:] == [
            "coreg.w[0,0]", "coreg.w[0,1]", "coreg.w[1,0]", "coreg.w[1,1]",
            "coreg.log_kappa[0]", "coreg.log_kappa[1]"]


class TestParameterHandling:
    def test_floor_applies_after_exponentiation(self):
        params = SubKernelParams(log_variance=-60.0, log_lengthscale=-60.0)
        assert params.variance == PARAM_FLOOR
        assert params.lengthscale == PARAM_FLOOR

    def test_from_values_rejects_non_positive(self):
        with pytest.raises(ValidationError, match="variance must be positive"):
            SubKernelParams.from_values(0.0, 0.2)
        with pytest.raises(ValidationError, match="lengthscale"):
            SubKernelParams.from_values(1.0, -0.2)
        with pytest.raises(ValidationError, match="period"):
            SubKernelParams.from_values(1.0, 0.2, period=0.0)

    def test_period_property_requires_periodic_component(self):
        with pytest.raises(ValidationError, match="no period"):
            _ = SubKernelParams.from_values(1.0, 0.2).period

    def test_composite_spec_requires_period(self):
        with pytest.raises(ValidationError, match="requires a period"):
            CompositeKernelSpec(
                periodic=SubKernelParams.from_values(1.0, 0.2),
                se=SubKernelParams.from_values(1.0, 0.2),
                matern32=SubKernelParams.from_values(1.0, 0.2))

    def test_coregionalization_matrix_form(self):
        rng = np.random.default_rng(13)
        w = rng.normal(size=(4, 2))
        kappa = rng.uniform(0.1, 1.0, size=4)
        coreg = CoregionalizationFactor(w=w, log_kappa=np.log(kappa))
        expected = w @ w.T + np.diag(kappa)
        assert np.allclose(coreg.matrix(), expected, rtol=1e-12)
        assert float(np.min(np.linalg.eigvalsh(coreg.matrix()))) >= 0.0

    def test_coregionalization_rejects_non_finite_parameters(self):
        with pytest.raises(ValidationError, match="finite"):
            CoregionalizationFactor(w=np.ones((2, 1)),
                                    log_kappa=np.array([0.5, np.nan]))

    def test_coregionalization_shape_mismatch(self):
        with pytest.raises(ValidationError, match="rows"):
            CoregionalizationFactor(w=np.ones((3, 1)), log_kappa=np.zeros(2))


class TestPointValidation:
    def test_output_index_out_of_range(self):
        coreg = CoregionalizationFactor(w=np.ones((2, 1)),
                                        log_kappa=np.zeros(2))
        with pytest.raises(ValidationError, match=r"\[0, 2\)"):
            gram_matrix(BASE_SPEC, coreg, [0.1, 0.2], [0, 2])

    def test_empty_points_rejected(self):
        coreg = CoregionalizationFactor(w=np.ones((2, 1)),
                                        log_kappa=np.zeros(2))
        with pytest.raises(ValidationError, match="at least one"):
            gram_matrix(BASE_SPEC, coreg, [], [])

    def test_fractional_output_indices_rejected(self):
        coreg = CoregionalizationFactor(w=np.ones((2, 1)),
                                        log_kappa=np.zeros(2))
        with pytest.raises(ValidationError, match="integers"):
            gram_matrix(BASE_SPEC, coreg, [0.1, 0.2], [0.0, 0.5])
