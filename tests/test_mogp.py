from __future__ import annotations

import dataclasses
import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaitmogp import mogp
from gaitmogp.errors import NumericError, ValidationError
from gaitmogp.kernels import TemporalKernel, _floored_exp_with_grad
from gaitmogp.mogp import (
    MoGPModel,
    OptimizerConfig,
    TrainingSet,
    export_coregionalization,
    fit,
    initialize_model,
    lml_gradient,
    load_model,
    log_marginal_likelihood,
    parameter_blocks,
    parameter_names,
    predict,
    save_model,
)

import oracles


def _random_training(rng: np.random.Generator, num_outputs: int,
                     points_per_output: int,
                     grid_points: int | None = None,
                     shared_times: bool = False) -> TrainingSet:
    """Uniform times, or with ``grid_points`` times drawn with repeats
    from the grid k / grid_points (as the CLI draws cycle-grid times).
    Each output draws its own times, or with ``shared_times`` every
    output takes the first output's draw (as the CLI draws frames)."""
    times = []
    outputs = []
    for m in range(num_outputs):
        if shared_times and m > 0:
            draw = times[0]
        elif grid_points is None:
            draw = rng.uniform(0.0, 1.0, size=points_per_output)
        else:
            draw = rng.integers(0, grid_points, size=points_per_output) \
                / grid_points
        times.append(np.sort(draw))
        outputs.append(np.full(points_per_output, m))
    times = np.concatenate(times)
    outputs = np.concatenate(outputs)
    values = np.sin(2.0 * np.pi * times) + 0.3 * outputs \
        + 0.1 * rng.standard_normal(times.shape[0])
    return TrainingSet(times=times, outputs=outputs, values=values,
                       num_outputs=num_outputs)


def _random_model(rng: np.random.Generator, num_outputs: int = 3,
                  points_per_output: int = 3, rank: int = 2,
                  grid_points: int | None = None,
                  shared_times: bool = False) -> MoGPModel:
    training = _random_training(rng, num_outputs, points_per_output,
                                grid_points, shared_times)
    return _model_on(rng, training, rank)


def _model_on(rng: np.random.Generator, training: TrainingSet,
              rank: int = 2) -> MoGPModel:
    """A model with random parameters on ``training``."""
    num_outputs = training.num_outputs
    config = OptimizerConfig(rank=rank, seed=int(rng.integers(0, 1000)))
    theta = np.concatenate([
        rng.uniform(-1.5, 0.5, size=7),
        rng.normal(0.0, 0.7, size=num_outputs * rank),
        rng.uniform(-2.0, 0.0, size=num_outputs),
        rng.normal(0.0, 0.5, size=num_outputs),
        [math.log(rng.uniform(0.05, 0.4))],
    ])
    return MoGPModel(theta=theta, training=training, config=config)


def _repeated_times_training(rng: np.random.Generator, num_outputs: int,
                             counts, shuffled: bool) -> TrainingSet:
    """Every output at the same frames: len(counts) distinct times on a
    40-point grid, the u-th taken by counts[u] frames. The frames come
    in time order, or with ``shuffled`` in a random order (as
    _fit_records' cycle-major draw puts them)."""
    distinct = rng.choice(40, size=len(counts), replace=False) / 40
    frames = np.repeat(distinct, counts)
    if shuffled:
        frames = rng.permutation(frames)
    values = (np.sin(2.0 * np.pi * frames)
              + 0.3 * np.arange(num_outputs)[:, None]
              + 0.1 * rng.standard_normal((num_outputs, frames.size)))
    return TrainingSet(times=np.tile(frames, num_outputs),
                       outputs=np.repeat(np.arange(num_outputs), frames.size),
                       values=values, num_outputs=num_outputs)


def _dense_reference_gradient(model: MoGPModel) -> np.ndarray:
    """The LML gradient from the explicit inverse of the (n, n)
    covariance: 1/2 sum A o dK/dtheta for every entry (dK = s' I for the
    noise) except the means, which are per-output sums of alpha."""
    training, m = model.training, model.num_outputs
    names = parameter_names(m, model.config.rank)
    constants = oracles._natural_kernel(model)
    cov = oracles.dense_covariance(model, training.times, training.outputs)
    cov += constants["noise"] * np.eye(training.size)
    inv = np.linalg.inv(cov)
    alpha = inv @ (training.values - constants["means"][training.outputs])
    a_mat = np.outer(alpha, alpha) - inv
    dense = oracles.kernel_gradients(model.theta, m, model.config.rank,
                                     training.times, training.outputs)
    dnoise = math.exp(model.theta[names.index("log_noise_variance")])
    return np.concatenate([
        [0.5 * np.sum(a_mat * dk) for dk in dense.values()],
        [np.sum(alpha[training.outputs == k]) for k in range(m)],
        [0.5 * dnoise * np.trace(a_mat)],
    ])


def _relative_gradient_error(model: MoGPModel) -> float:
    """|analytic - central difference| / |central difference| of the
    LML gradient."""

    def lml_at(vector: np.ndarray) -> float:
        return log_marginal_likelihood(MoGPModel(
            theta=vector, training=model.training, config=model.config))

    analytic = lml_gradient(model)
    numeric = oracles.central_difference(lml_at, model.theta, step=1e-5)
    return np.linalg.norm(analytic - numeric) \
        / max(np.linalg.norm(numeric), 1e-12)


def _fresh_evaluation(model: MoGPModel):
    return mogp._evaluate(model)


class TestExactness:
    # Uniform times: every off-diagonal lag is distinct.
    GRID_POINTS = None
    # Each output at its own times: the dense path.
    SHARED_TIMES = False
    EVALUATION = mogp._Evaluation

    def _model(self, rng: np.random.Generator, **kwargs) -> MoGPModel:
        return _random_model(rng, grid_points=self.GRID_POINTS,
                             shared_times=self.SHARED_TIMES, **kwargs)

    def test_lml_matches_dense_inversion(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            model = self._model(rng)
            got = log_marginal_likelihood(model)
            evaluation = _fresh_evaluation(model)
            assert type(evaluation) is self.EVALUATION
            expected = oracles.dense_lml(model)
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-8)

    def test_posterior_matches_dense_inversion(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            model = self._model(rng)
            query = rng.uniform(0.0, 1.0, size=6)
            prediction = predict(model, query)
            for m in range(model.num_outputs):
                mean, var = oracles.dense_posterior(model, query, m)
                np.testing.assert_allclose(prediction.mean[m], mean,
                                           rtol=1e-8, atol=1e-8)
                np.testing.assert_allclose(prediction.std[m] ** 2, var,
                                           rtol=1e-8, atol=1e-8)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(44)
        for _ in range(3):
            assert _relative_gradient_error(self._model(rng)) < 1e-6

    @pytest.mark.parametrize("floored", [False, True])
    def test_gradient_matches_dense_reference(self, floored):
        # Every entry is 1/2 sum A o dK/dtheta (dK = s' I for the noise)
        # except the means, which are per-output sums of alpha.
        rng = np.random.default_rng(46)
        model = self._model(rng, num_outputs=6, points_per_output=10)
        names = parameter_names(6, model.config.rank)
        if floored:
            model.theta[names.index("se.log_variance")] = -60.0
            model.theta[names.index("coreg.log_kappa[2]")] = -60.0
        expected = _dense_reference_gradient(model)
        got = lml_gradient(model)
        assert np.linalg.norm(got - expected) \
            <= 1e-12 * np.linalg.norm(expected)
        if floored:
            assert got[names.index("se.log_variance")] == 0.0
            assert got[names.index("coreg.log_kappa[2]")] == 0.0

    def test_mean_gradient_entries_are_analytic(self):
        rng = np.random.default_rng(45)
        model = self._model(rng, num_outputs=2)
        names = parameter_names(2, model.config.rank)
        grad = lml_gradient(model)
        assert grad.shape[0] == len(names)
        assert names[-1] == "log_noise_variance"
        assert names[-3:-1] == ["mean[0]", "mean[1]"]


class TestExactnessOnGridTimes(TestExactness):
    # Times repeat within and across outputs, so many pairs share a lag
    # and the gradient's per-lag sums bin more than one pair.
    GRID_POINTS = 7


class TestExactnessOnSharedTimes(TestExactnessOnGridTimes):
    # Every output at the same times, repeats included (K_t is then
    # singular): the Kronecker path, against the same dense oracles.
    SHARED_TIMES = True
    EVALUATION = mogp._KroneckerEvaluation


class TestRepeatedTimes:
    """Kronecker sets whose frames share times, collapsed to their
    distinct times, against the dense oracles on the uncollapsed points
    at TestExactness' tolerances."""

    @given(seed=st.integers(0, 2**32 - 1), num_outputs=st.integers(1, 3),
           counts=st.lists(st.integers(1, 6), min_size=1, max_size=5),
           shuffled=st.booleans())
    # Every frame at one time (U = 1), and all times distinct and
    # unsorted.
    @example(seed=0, num_outputs=2, counts=[6], shuffled=False)
    @example(seed=1, num_outputs=3, counts=[1] * 6, shuffled=True)
    @settings(max_examples=25, deadline=None)
    def test_matches_the_dense_oracles(self, seed, num_outputs, counts,
                                       shuffled):
        rng = np.random.default_rng(seed)
        model = _model_on(rng, _repeated_times_training(
            rng, num_outputs, counts, shuffled))
        evaluation = _fresh_evaluation(model)
        assert type(evaluation) is mogp._KroneckerEvaluation
        assert evaluation.geometry.times.size == len(counts)

        assert log_marginal_likelihood(model) == pytest.approx(
            oracles.dense_lml(model), rel=1e-10, abs=1e-8)

        expected = _dense_reference_gradient(model)
        assert np.linalg.norm(lml_gradient(model) - expected) \
            <= 1e-12 * np.linalg.norm(expected)
        assert _relative_gradient_error(model) < 1e-6

        query = rng.uniform(0.0, 1.0, size=6)
        prediction = predict(model, query)
        for m in range(num_outputs):
            mean, var = oracles.dense_posterior(model, query, m)
            np.testing.assert_allclose(prediction.mean[m], mean,
                                       rtol=1e-8, atol=1e-8)
            np.testing.assert_allclose(prediction.std[m] ** 2, var,
                                       rtol=1e-8, atol=1e-8)


class TestDistinctLags:
    @given(seed=st.integers(0, 2**32 - 1),
           grid_points=st.sampled_from([None, 3, 10, 100]),
           num_outputs=st.integers(1, 4), points=st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_k_t_equals_the_full_lag_evaluation(self, seed, grid_points,
                                                num_outputs, points):
        rng = np.random.default_rng(seed)
        model = _random_model(rng, num_outputs, points, rank=1,
                              grid_points=grid_points)
        evaluation = _fresh_evaluation(model)
        times = evaluation.geometry.times
        kernel = model.theta[parameter_blocks(num_outputs, 1)["kernel"]]
        full = TemporalKernel(*_floored_exp_with_grad(kernel),
                              np.abs(times[:, None] - times[None, :])).k_t
        np.testing.assert_array_equal(evaluation.k_t, full)

    def test_memory_stays_below_ten_gram_matrices(self):
        # n = 720 on a 100-point cycle grid, the size of a pooled fit.
        rng = np.random.default_rng(47)
        model = _random_model(rng, num_outputs=6, points_per_output=120,
                              grid_points=100)
        n = model.training.size
        tracemalloc.start()
        try:
            _fresh_evaluation(model).gradient()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * n * n * 8


class TestFit:
    def test_zero_iterations_returns_initialization(self):
        rng = np.random.default_rng(1)
        training = _random_training(rng, num_outputs=2, points_per_output=4)
        config = OptimizerConfig(iterations=0, seed=5)
        model = fit(training, config)
        initial = initialize_model(training, config)
        np.testing.assert_array_equal(model.theta, initial.theta)
        assert model.lml_trace == [log_marginal_likelihood(initial)]

    def test_trace_has_one_entry_per_iteration_plus_final(self):
        rng = np.random.default_rng(2)
        training = _random_training(rng, num_outputs=2, points_per_output=4)
        model = fit(training, OptimizerConfig(iterations=5, seed=0))
        assert len(model.lml_trace) == 6

    def test_returns_best_scoring_iterate(self):
        rng = np.random.default_rng(3)
        training = _random_training(rng, num_outputs=2, points_per_output=5)
        model = fit(training, OptimizerConfig(iterations=40, seed=0))
        # fit keeps the factor of the best iterate; evaluating afresh
        # rebuilds the same one.
        fresh = _fresh_evaluation(model)
        assert log_marginal_likelihood(model) == max(model.lml_trace)
        assert log_marginal_likelihood(model) >= model.lml_trace[0]
        assert fresh.lml == max(model.lml_trace)
        assert type(model._evaluation) is type(fresh)
        assert model._evaluation.lml == fresh.lml
        np.testing.assert_array_equal(model._evaluation.u, fresh.u)
        np.testing.assert_array_equal(model._evaluation.d, fresh.d)
        np.testing.assert_array_equal(model._evaluation.alpha, fresh.alpha)

    def test_shared_times_cache_the_kronecker_evaluation(self, tmp_path):
        rng = np.random.default_rng(17)
        training = _random_training(rng, num_outputs=3, points_per_output=6,
                                    grid_points=7, shared_times=True)
        model = fit(training, OptimizerConfig(iterations=10, seed=0))
        assert type(model._evaluation) is mogp._KroneckerEvaluation
        assert model._evaluation.lml == max(model.lml_trace)
        path = tmp_path / "model.mogp"
        save_model(model, path)
        query = np.linspace(0.0, 1.0, 9)
        cached, loaded = predict(model, query), predict(load_model(path), query)
        np.testing.assert_array_equal(cached.mean, loaded.mean)
        np.testing.assert_array_equal(cached.std, loaded.std)

    def test_early_stop_evaluates_one_iterate_past_the_trigger(
            self, monkeypatch):
        rng = np.random.default_rng(7)
        training = _random_training(rng, num_outputs=2, points_per_output=5)
        # Every change is below the tolerance, so iterate 1 triggers the
        # stop and iterate 2 is the last one evaluated.
        monkeypatch.setattr(mogp, "EARLY_STOP_TOL", 1e300)
        monkeypatch.setattr(mogp, "EARLY_STOP_PATIENCE", 1)
        model = fit(training, OptimizerConfig(iterations=50, seed=0))
        assert len(model.lml_trace) == 3
        assert log_marginal_likelihood(model) == max(model.lml_trace)

    def test_overflowing_adam_step_is_a_numeric_error(self, monkeypatch):
        rng = np.random.default_rng(8)
        training = _random_training(rng, num_outputs=2, points_per_output=4)
        # From a tiny signal variance the LML pushes the variances up;
        # one step of size ~1e6 makes them overflow at the last iterate.
        monkeypatch.setattr(mogp, "INIT_VARIANCE", 1e-4)
        with pytest.warns(RuntimeWarning), \
                pytest.raises(NumericError, match="non-finite"):
            fit(training, OptimizerConfig(iterations=1, learning_rate=1e6,
                                          seed=0))

    def test_fit_improves_lml(self):
        rng = np.random.default_rng(4)
        training = _random_training(rng, num_outputs=2, points_per_output=8)
        model = fit(training, OptimizerConfig(iterations=60, seed=0))
        assert model.lml_trace[-1] > model.lml_trace[0]

    def test_fit_is_deterministic(self):
        rng = np.random.default_rng(5)
        training = _random_training(rng, num_outputs=2, points_per_output=4)
        config = OptimizerConfig(iterations=15, seed=9)
        first = fit(training, config)
        second = fit(training, config)
        np.testing.assert_array_equal(first.theta, second.theta)
        assert first.lml_trace == second.lml_trace

    def test_fit_requires_two_points_per_output(self):
        training = TrainingSet(times=[0.1, 0.2, 0.3], outputs=[0, 0, 1],
                               values=[1.0, 2.0, 3.0], num_outputs=2)
        with pytest.raises(ValidationError, match="at least 2 points"):
            fit(training, OptimizerConfig(iterations=1))

    def test_negative_seed_is_a_validation_error(self):
        rng = np.random.default_rng(6)
        training = _random_training(rng, num_outputs=2, points_per_output=4)
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            fit(training, OptimizerConfig(iterations=1, seed=-1))

    @pytest.mark.parametrize("name", ["learning_rate", "weight_decay"])
    def test_non_finite_setting_is_a_validation_error(self, name):
        for value in (math.inf, math.nan):
            config = OptimizerConfig(**{name: value})
            with pytest.raises(ValidationError, match=f"{name} must be fin"):
                config.validate()


    @pytest.mark.parametrize("name", [
        "coreg.w[1,0]", "mean[1]", "se.log_lengthscale"])
    def test_non_finite_iterate_is_a_numeric_error(self, monkeypatch, name):
        rng = np.random.default_rng(8)
        training = _random_training(rng, num_outputs=2, points_per_output=4,
                                    grid_points=7, shared_times=True)
        index = parameter_names(2, 2).index(name)
        gradient = mogp._KroneckerEvaluation.gradient

        def infinite_entry(evaluation):
            grad = gradient(evaluation)
            grad[index] = math.inf
            return grad

        # Adam turns an infinite gradient entry into a NaN parameter.
        monkeypatch.setattr(mogp._KroneckerEvaluation, "gradient",
                            infinite_entry)
        with np.errstate(invalid="ignore"), pytest.raises(
                NumericError, match=re.escape(
                    f"non-finite parameter at iteration 1: {name}")):
            fit(training, OptimizerConfig(iterations=3, seed=0))


class TestAgainstThePerStepFit:
    """fit evaluates every iterate straight from the packed parameters;
    oracles.per_step_fit builds a model per Adam step and evaluates it
    the way mogp did before. The two must agree to the last bit."""

    @pytest.mark.parametrize("shared_times", [True, False])
    @given(seed=st.integers(0, 2**32 - 1), num_outputs=st.integers(1, 3),
           points=st.integers(2, 6), rank=st.integers(1, 2),
           iterations=st.integers(0, 6),
           learning_rate=st.sampled_from([1e-3, 7.5e-3, 0.05]))
    @settings(max_examples=25, deadline=None)
    def test_trace_and_parameters_are_equal(self, shared_times, seed,
                                            num_outputs, points, rank,
                                            iterations, learning_rate):
        rng = np.random.default_rng(seed)
        # Shared times on a grid (repeats included) take the Kronecker
        # path; uniform times, one draw per output, the dense one.
        training = _random_training(
            rng, num_outputs + (not shared_times), points,
            grid_points=7 if shared_times else None,
            shared_times=shared_times)
        config = OptimizerConfig(iterations=iterations, rank=rank,
                                 learning_rate=learning_rate,
                                 seed=seed % 1000)
        model = fit(training, config)
        trace, theta = oracles.per_step_fit(training, config)
        assert type(model._evaluation) is (
            mogp._KroneckerEvaluation if shared_times else mogp._Evaluation)
        assert model.lml_trace == trace
        np.testing.assert_array_equal(model.theta, theta)

    def test_fit_on_repeated_times_is_equal(self):
        # 16 of the 40 frames of two 20-sample cycles, cycle-major as
        # _fit_records draws them: 12 distinct times, each output's
        # frames unsorted.
        rng = np.random.default_rng(12)
        frames = np.sort(rng.choice(40, size=16, replace=False))
        times = np.tile(np.arange(20) / 20, 2)[frames]
        training = TrainingSet(
            times=np.tile(times, 3), outputs=np.repeat(np.arange(3), 16),
            values=np.sin(2.0 * np.pi * np.tile(times, 3))
            + 0.1 * rng.standard_normal(48), num_outputs=3)
        config = OptimizerConfig(iterations=8, seed=3)
        model = fit(training, config)
        assert model._evaluation.geometry.times.size == 12
        trace, theta = oracles.per_step_fit(training, config)
        assert model.lml_trace == trace
        np.testing.assert_array_equal(model.theta, theta)

    @given(seed=st.integers(0, 2**32 - 1), shared_times=st.booleans(),
           floored=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_lml_and_gradient_are_equal(self, seed, shared_times, floored):
        rng = np.random.default_rng(seed)
        model = _random_model(rng, num_outputs=3, points_per_output=4,
                              grid_points=7, shared_times=shared_times)
        if floored:
            names = parameter_names(3, model.config.rank)
            model.theta[names.index("matern32.log_lengthscale")] = -60.0
            model.theta[names.index("coreg.log_kappa[1]")] = -60.0
        reference = oracles.PerStepEvaluation(model)
        assert log_marginal_likelihood(model) == reference.lml
        np.testing.assert_array_equal(lml_gradient(model),
                                      reference.gradient())


class TestFactorization:
    @pytest.mark.parametrize("shared_times", [False, True])
    def test_eigh_failure_is_numeric_error(self, monkeypatch, shared_times):
        model = _random_model(np.random.default_rng(18), grid_points=7,
                              shared_times=shared_times)

        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericError, match="^eigendecomposition failed: "
                           "Eigenvalues did not converge$"):
            log_marginal_likelihood(model)


class TestPredict:
    def test_interpolates_training_data_at_low_noise(self):
        rng = np.random.default_rng(6)
        times = np.linspace(0.05, 0.95, 8)
        values = np.sin(2.0 * np.pi * times)
        training = TrainingSet(times=times, outputs=np.zeros(8),
                               values=values, num_outputs=1)
        config = OptimizerConfig(rank=1, seed=0)
        model = initialize_model(training, config)
        model.theta[parameter_names(1, 1).index("log_noise_variance")] = \
            math.log(1e-8)
        prediction = predict(model, times)
        np.testing.assert_allclose(prediction.mean[0], values, atol=1e-3)

    def test_reverts_to_prior_far_from_data(self):
        training = TrainingSet(times=[0.0, 0.01], outputs=[0, 0],
                               values=[0.5, 0.6], num_outputs=1)
        model = initialize_model(training, OptimizerConfig(rank=1, seed=0))
        prediction = predict(model, [0.5])
        b = export_coregionalization(model)[0][0, 0]
        values, _ = _floored_exp_with_grad(model.theta)
        names = parameter_names(1, 1)
        prior_std = math.sqrt(
            b * sum(values[names.index(f"{part}.log_variance")]
                    for part in ("periodic", "se", "matern32"))
            + values[names.index("log_noise_variance")])
        assert prediction.std[0, 0] <= prior_std + 1e-9
        assert prediction.std[0, 0] > 0.5 * prior_std

    def test_allows_extrapolation_queries(self):
        rng = np.random.default_rng(7)
        model = _random_model(rng, num_outputs=1, points_per_output=4, rank=1)
        prediction = predict(model, [-0.2, 0.5, 1.3])
        assert prediction.mean.shape == (1, 3)
        assert np.all(np.isfinite(prediction.mean))
        assert np.all(np.isfinite(prediction.std))

    def test_rejects_a_two_dimensional_query(self):
        # Raveled, a (2, 2) query would read as four query times.
        model = _random_model(np.random.default_rng(8), num_outputs=1,
                              points_per_output=4, rank=1)
        with pytest.raises(ValidationError, match=r"query times must be "
                           r"one-dimensional, got shape \(2, 2\)"):
            predict(model, [[0.1, 0.2], [0.3, 0.4]])
        # A scalar is one query time.
        assert predict(model, 0.25).mean.shape == (1, 1)

    def test_negative_variance_is_clamped_to_zero(self):
        # At a training time the exact predictive variance is about twice
        # the floored noise (1e-10), while the subtraction that computes it
        # cancels terms of ~1e9 and so errs by ~1e-7 either way. The
        # variance is at least the noise, so a std of exactly 0 can only
        # come from the clamp; without it the std would be NaN.
        times = np.arange(20) / 20.0
        training = TrainingSet(times=times, outputs=np.zeros(20, dtype=int),
                               values=np.sin(2.0 * np.pi * times),
                               num_outputs=1)
        config = OptimizerConfig(rank=1, seed=0)
        names = parameter_names(1, 1)
        model = initialize_model(training, config)
        for name in names:
            if name.endswith("log_variance"):
                model.theta[names.index(name)] = 20.0
        model.theta[names.index("log_noise_variance")] = -60.0
        prediction = predict(model, times)
        assert np.all(np.isfinite(prediction.std))
        assert np.all(prediction.std >= 0.0)
        assert np.any(prediction.std == 0.0)

    def test_overflowing_kernel_variance_is_a_numeric_error(self):
        rng = np.random.default_rng(24)
        for shared_times in (False, True):
            model = _random_model(rng, shared_times=shared_times)
            names = parameter_names(3, 2)
            model.theta[names.index("se.log_variance")] = 1000.0
            with pytest.warns(RuntimeWarning), \
                    pytest.raises(NumericError, match="non-finite"):
                predict(model, np.linspace(0.0, 1.0, 5))

    @pytest.mark.parametrize("mean, std", [
        ([[math.nan, 1.0]], [[0.1, 0.0]]), ([[0.0, 1.0]], [[math.inf, 0.0]]),
        ([[-math.inf, 1.0]], [[0.1, math.nan]])])
    def test_posterior_rejects_non_finite_values(self, mean, std):
        with pytest.raises(NumericError, match="not finite"):
            mogp.PosteriorPrediction(mean=mean, std=std)

    def test_rejects_empty_or_nonfinite_queries(self):
        rng = np.random.default_rng(8)
        model = _random_model(rng, num_outputs=1, points_per_output=4, rank=1)
        with pytest.raises(ValidationError, match="empty"):
            predict(model, [])
        with pytest.raises(ValidationError, match="finite"):
            predict(model, [0.2, float("nan")])


class TestParameterVector:
    def test_vector_length_is_validated(self):
        rng = np.random.default_rng(10)
        model = _random_model(rng)
        with pytest.raises(ValidationError, match="expected 20"):
            MoGPModel(theta=model.theta[:-1], training=model.training,
                      config=model.config)

    def test_parameter_names_align_with_vector(self):
        rng = np.random.default_rng(11)
        model = _random_model(rng, num_outputs=2, rank=1)
        names = parameter_names(2, 1)
        assert len(names) == model.theta.shape[0]
        blocks = parameter_blocks(2, 1)
        assert [names[part] for part in blocks.values()] == [
            names[:7], ["coreg.w[0,0]", "coreg.w[1,0]"],
            ["coreg.log_kappa[0]", "coreg.log_kappa[1]"],
            ["mean[0]", "mean[1]"], ["log_noise_variance"]]

    @pytest.mark.parametrize("name", [
        "periodic.log_period", "coreg.w[2,1]", "mean[0]",
        "log_noise_variance"])
    def test_non_finite_entry_is_named(self, name):
        rng = np.random.default_rng(18)
        model = _random_model(rng)
        theta = model.theta.copy()
        theta[parameter_names(3, 2).index(name)] = math.inf
        with pytest.raises(ValidationError, match=re.escape(
                f"non-finite parameter: {name}")):
            MoGPModel(theta=theta, training=model.training,
                      config=model.config)


class TestTrainingSetValidation:
    def test_times_outside_unit_interval(self):
        training = TrainingSet(times=[0.5, 1.2], outputs=[0, 0],
                               values=[1.0, 2.0], num_outputs=1)
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            training.validate()

    def test_empty_training_set(self):
        training = TrainingSet(times=[], outputs=[], values=[], num_outputs=1)
        with pytest.raises(ValidationError, match="empty"):
            training.validate()

    def test_length_mismatch(self):
        training = TrainingSet(times=[0.1, 0.2], outputs=[0],
                               values=[1.0, 2.0], num_outputs=1)
        with pytest.raises(ValidationError, match="equal length"):
            training.validate()

    @pytest.mark.parametrize("outputs, match", [
        ([0, 0.5, 1, 1.7, 0, 1], "integers"),
        ([0, 1, 0, 1, 0, float("nan")], "integers"),
        ([0, 1, 0, 1, 0, 2], r"\[0, 2\)"),
        ([0, 2], r"\[0, 2\)"),
        ([], "empty"),
        ([0.0, 0.5], "integers"),
    ])
    def test_output_indices_checked_like_gram_matrix(self, outputs, match):
        size = len(outputs)
        training = TrainingSet(times=np.linspace(0.0, 1.0, size),
                               outputs=outputs, values=np.zeros(size),
                               num_outputs=2)
        with pytest.raises(ValidationError, match=match):
            training.validate(for_fitting=True)

    def test_data_hash_is_stable_and_sensitive(self):
        training = TrainingSet(times=[0.1, 0.2], outputs=[0, 0],
                               values=[1.0, 2.0], num_outputs=1)
        other = TrainingSet(times=[0.1, 0.2], outputs=[0, 0],
                            values=[1.0, 2.0 + 1e-12], num_outputs=1)
        assert training.data_hash() == training.data_hash()
        assert training.data_hash() != other.data_hash()


class TestSerialization:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        model = _random_model(rng)
        path = tmp_path / "model.mogp"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.theta, model.theta)
        second = tmp_path / "again.mogp"
        save_model(loaded, second)
        assert path.read_bytes() == second.read_bytes()

    def test_round_trip_preserves_predictions(self, tmp_path):
        rng = np.random.default_rng(13)
        model = _random_model(rng)
        path = tmp_path / "model.mogp"
        save_model(model, path)
        loaded = load_model(path)
        query = np.linspace(0.0, 1.0, 7)
        first = predict(model, query)
        second = predict(loaded, query)
        np.testing.assert_array_equal(first.mean, second.mean)
        np.testing.assert_array_equal(first.std, second.std)

    def test_predict_leaves_a_loaded_model_unfactored(self, tmp_path):
        rng = np.random.default_rng(14)
        training = _random_training(rng, num_outputs=2, points_per_output=5)
        model = fit(training, OptimizerConfig(iterations=10, seed=0))
        path = tmp_path / "model.mogp"
        save_model(model, path)
        loaded = load_model(path)
        query = np.linspace(0.0, 1.0, 7)
        first = predict(loaded, query)
        second = predict(loaded, query)
        assert loaded._evaluation is None
        for got in (second, predict(model, query)):
            np.testing.assert_array_equal(first.mean, got.mean)
            np.testing.assert_array_equal(first.std, got.std)

    def test_older_file_loads_and_resaves_without_its_constant_lines(
            self, tmp_path):
        # per_channel.mogp was written when OptimizerConfig also held the
        # Adam, early-stop and init values that are now constants.
        old = pathlib.Path(__file__).parent / "data" / "per_channel.mogp"
        constants = {"beta1", "beta2", "epsilon", "early_stop_tol",
                     "early_stop_patience", "init_variance",
                     "init_lengthscale", "init_period", "init_w_std",
                     "init_kappa", "init_noise_variance"}
        old_lines = old.read_text().splitlines()
        assert sum(line.startswith("config.") for line in old_lines) == 16
        path = tmp_path / "resaved.mogp"
        save_model(load_model(old), path)
        assert path.read_text().splitlines() == [
            line for line in old_lines
            if line.partition(" = ")[0].removeprefix("config.")
            not in constants]

    def test_fit_writes_one_config_line_per_setting(self, tmp_path):
        rng = np.random.default_rng(17)
        training = _random_training(rng, num_outputs=2, points_per_output=4)
        path = tmp_path / "model.mogp"
        save_model(fit(training, OptimizerConfig(iterations=2)), path)
        keys = [line.partition(" = ")[0]
                for line in path.read_text().splitlines()
                if line.startswith("config.")]
        assert keys == [f"config.{f.name}"
                        for f in dataclasses.fields(OptimizerConfig)]

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "model.mogp"
        path.write_text("schema = hmm-v1\n")
        with pytest.raises(ValidationError, match="mogp-v1"):
            load_model(path)

    def test_rejects_tampered_training_data(self, tmp_path):
        rng = np.random.default_rng(14)
        model = _random_model(rng)
        path = tmp_path / "model.mogp"
        save_model(model, path)
        text = path.read_text()
        target = f"training.num_points = {model.training.size}"
        lines = []
        for line in text.splitlines():
            if line.startswith("training.values = "):
                key, _, payload = line.partition(" = ")
                parts = payload.split(",")
                parts[0] = repr(float(parts[0]) + 1.0)
                line = key + " = " + ",".join(parts)
            lines.append(line)
        assert target in text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="hash mismatch"):
            load_model(path)

    @pytest.mark.parametrize("key", ["coreg.w", "training.num_outputs"])
    def test_missing_key_is_reported(self, tmp_path, key):
        rng = np.random.default_rng(15)
        model = _random_model(rng)
        path = tmp_path / "model.mogp"
        save_model(model, path)
        text = "".join(line for line in path.read_text().splitlines(True)
                       if not line.startswith(f"{key} "))
        path.write_text(text)
        with pytest.raises(ValidationError, match="missing required key"):
            load_model(path)

    def test_huge_rank_is_rejected_before_sizing_its_blocks(self, tmp_path):
        # The claimed rank sets how many coreg.w entries are expected;
        # checking the 12 on file against it must not build 6 * rank names.
        golden = pathlib.Path(__file__).parent / "data" / "golden"
        path = tmp_path / "model.mogp"
        path.write_text(re.sub(r"^((config\.)?rank) = 2$", r"\1 = 100000",
                               (golden / "pooled.mogp").read_text(),
                               flags=re.M))
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError,
                               match="coreg.w has 12 entries, expected 600000"):
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestCoregionalizationExport:
    def test_normalized_matrix_has_unit_diagonal(self):
        rng = np.random.default_rng(16)
        model = _random_model(rng)
        b, normalized = export_coregionalization(model)
        blocks = parameter_blocks(3, 2)
        w = model.theta[blocks["coreg.w"]].reshape(3, 2)
        kappa = np.exp(model.theta[blocks["coreg.log_kappa"]])
        np.testing.assert_allclose(b, w @ w.T + np.diag(kappa), rtol=1e-12)
        assert float(np.min(np.linalg.eigvalsh(b))) >= 0.0
        np.testing.assert_allclose(np.diag(normalized), 1.0, rtol=1e-12)
        assert np.max(np.abs(normalized)) <= 1.0 + 1e-9
