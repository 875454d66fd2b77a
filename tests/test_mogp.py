from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitmogp import mogp
from gaitmogp.errors import NumericError, ValidationError
from gaitmogp.kernels import TemporalKernel
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
    model_from_parameters,
    pack_parameters,
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
    config = OptimizerConfig(rank=rank, seed=int(rng.integers(0, 1000)))
    theta = np.concatenate([
        rng.uniform(-1.5, 0.5, size=7),
        rng.normal(0.0, 0.7, size=num_outputs * rank),
        rng.uniform(-2.0, 0.0, size=num_outputs),
        rng.normal(0.0, 0.5, size=num_outputs),
        [math.log(rng.uniform(0.05, 0.4))],
    ])
    return model_from_parameters(theta, training, config)


def _fresh_evaluation(model: MoGPModel):
    return mogp._Geometry(model.training).evaluate(model)


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
            assert evaluation.jitter == 0.0
            expected = oracles.dense_lml(model)
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-8)

    def test_posterior_matches_dense_inversion(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            model = self._model(rng)
            query = rng.uniform(0.0, 1.0, size=6)
            prediction = predict(model, query)
            assert _fresh_evaluation(model).jitter == 0.0
            for m in range(model.num_outputs):
                mean, var = oracles.dense_posterior(model, query, m)
                np.testing.assert_allclose(prediction.mean[m], mean,
                                           rtol=1e-8, atol=1e-8)
                np.testing.assert_allclose(prediction.std[m] ** 2, var,
                                           rtol=1e-8, atol=1e-8)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(44)
        for _ in range(3):
            model = self._model(rng)
            theta = pack_parameters(model)

            def lml_at(vector: np.ndarray) -> float:
                candidate = model_from_parameters(
                    vector, model.training, model.config)
                return log_marginal_likelihood(candidate)

            analytic = lml_gradient(model)
            numeric = oracles.central_difference(lml_at, theta, step=1e-5)
            rel_err = np.linalg.norm(analytic - numeric) \
                / max(np.linalg.norm(numeric), 1e-12)
            assert rel_err < 1e-6

    @pytest.mark.parametrize("floored", [False, True])
    def test_gradient_matches_dense_reference(self, floored):
        # Every entry is 1/2 sum A o dK/dtheta (dK = s' I for the noise)
        # except the means, which are per-output sums of alpha.
        rng = np.random.default_rng(46)
        model = self._model(rng, num_outputs=6, points_per_output=10)
        if floored:
            model.kernel.se.log_variance = -60.0
            model.coreg.log_kappa[2] = -60.0
        training = model.training
        constants = oracles._natural_kernel(model)
        cov = oracles.dense_covariance(model, training.times, training.outputs)
        cov += constants["noise"] * np.eye(training.size)
        inv = np.linalg.inv(cov)
        alpha = inv @ (training.values - model.means[training.outputs])
        a_mat = np.outer(alpha, alpha) - inv
        dense = oracles.kernel_gradients(model.kernel, model.coreg,
                                         training.times, training.outputs)
        dnoise = math.exp(model.log_noise_variance)
        expected = np.concatenate([
            [0.5 * np.sum(a_mat * dk) for dk in dense.values()],
            [np.sum(alpha[training.outputs == m]) for m in range(6)],
            [0.5 * dnoise * np.trace(a_mat)],
        ])

        got = lml_gradient(model)
        assert np.linalg.norm(got - expected) \
            <= 1e-12 * np.linalg.norm(expected)
        if floored:
            names = parameter_names(6, model.config.rank)
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
        geometry = mogp._Geometry(model.training)
        times = geometry.times
        full = TemporalKernel(model.kernel,
                              np.abs(times[:, None] - times[None, :])).k_t
        np.testing.assert_array_equal(geometry.evaluate(model).k_t, full)

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
        np.testing.assert_array_equal(pack_parameters(model),
                                      pack_parameters(initial))
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
        np.testing.assert_array_equal(model._evaluation.chol, fresh.chol)
        np.testing.assert_array_equal(model._evaluation.alpha, fresh.alpha)
        assert model.jitter_used == fresh.jitter

    def test_shared_times_cache_the_kronecker_evaluation(self, tmp_path):
        rng = np.random.default_rng(17)
        training = _random_training(rng, num_outputs=3, points_per_output=6,
                                    grid_points=7, shared_times=True)
        model = fit(training, OptimizerConfig(iterations=10, seed=0))
        assert type(model._evaluation) is mogp._KroneckerEvaluation
        assert model._evaluation.lml == max(model.lml_trace)
        assert model.jitter_used == 0.0
        path = tmp_path / "model.mogp"
        save_model(model, path)
        query = np.linspace(0.0, 1.0, 9)
        cached, loaded = predict(model, query), predict(load_model(path), query)
        np.testing.assert_array_equal(cached.mean, loaded.mean)
        np.testing.assert_array_equal(cached.std, loaded.std)

    def test_early_stop_evaluates_one_iterate_past_the_trigger(self):
        rng = np.random.default_rng(7)
        training = _random_training(rng, num_outputs=2, points_per_output=5)
        # Every change is below the tolerance, so iterate 1 triggers the
        # stop and iterate 2 is the last one evaluated.
        model = fit(training, OptimizerConfig(
            iterations=50, seed=0, early_stop_tol=1e300,
            early_stop_patience=1))
        assert len(model.lml_trace) == 3
        assert log_marginal_likelihood(model) == max(model.lml_trace)

    def test_overflowing_adam_step_is_a_numeric_error(self):
        rng = np.random.default_rng(8)
        training = _random_training(rng, num_outputs=2, points_per_output=4)
        # From a tiny signal variance the LML pushes the variances up;
        # one step of size ~1e6 makes them overflow at the last iterate.
        with pytest.raises(NumericError, match="non-finite"):
            fit(training, OptimizerConfig(iterations=1, learning_rate=1e6,
                                          init_variance=1e-4, seed=0))

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
        np.testing.assert_array_equal(pack_parameters(first),
                                      pack_parameters(second))
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

    @pytest.mark.parametrize("name", ["learning_rate", "weight_decay",
                                      "init_period", "early_stop_tol"])
    def test_non_finite_setting_is_a_validation_error(self, name):
        for value in (math.inf, math.nan):
            config = OptimizerConfig(**{name: value})
            with pytest.raises(ValidationError, match=f"{name} must be fin"):
                config.validate()


class TestPredict:
    def test_interpolates_training_data_at_low_noise(self):
        rng = np.random.default_rng(6)
        times = np.linspace(0.05, 0.95, 8)
        values = np.sin(2.0 * np.pi * times)
        training = TrainingSet(times=times, outputs=np.zeros(8),
                               values=values, num_outputs=1)
        config = OptimizerConfig(rank=1, seed=0)
        model = initialize_model(training, config)
        model.log_noise_variance = math.log(1e-8)
        prediction = predict(model, times)
        np.testing.assert_allclose(prediction.mean[0], values, atol=1e-3)

    def test_reverts_to_prior_far_from_data(self):
        training = TrainingSet(times=[0.0, 0.01], outputs=[0, 0],
                               values=[0.5, 0.6], num_outputs=1)
        model = initialize_model(training, OptimizerConfig(rank=1, seed=0))
        prediction = predict(model, [0.5])
        b = model.coreg.matrix()[0, 0]
        prior_std = math.sqrt(b * model.kernel.prior_variance()
                              + model.noise_variance)
        assert prediction.std[0, 0] <= prior_std + 1e-9
        assert prediction.std[0, 0] > 0.5 * prior_std

    def test_allows_extrapolation_queries(self):
        rng = np.random.default_rng(7)
        model = _random_model(rng, num_outputs=1, points_per_output=4, rank=1)
        prediction = predict(model, [-0.2, 0.5, 1.3])
        assert prediction.mean.shape == (1, 3)
        assert np.all(np.isfinite(prediction.mean))
        assert np.all(np.isfinite(prediction.std))

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
        theta = pack_parameters(initialize_model(training, config))
        for name in names:
            if name.endswith("log_variance"):
                theta[names.index(name)] = 20.0
        theta[names.index("log_noise_variance")] = -60.0
        model = model_from_parameters(theta, training, config)
        prediction = predict(model, times)
        assert np.all(np.isfinite(prediction.std))
        assert np.all(prediction.std >= 0.0)
        assert np.any(prediction.std == 0.0)

    def test_overflowing_kernel_variance_is_a_numeric_error(self):
        rng = np.random.default_rng(24)
        for shared_times in (False, True):
            model = _random_model(rng, shared_times=shared_times)
            theta = pack_parameters(model)
            theta[parameter_names(3, 2).index("se.log_variance")] = 1000.0
            overflowing = model_from_parameters(theta, model.training,
                                                model.config)
            with pytest.raises(NumericError, match="non-finite"):
                predict(overflowing, np.linspace(0.0, 1.0, 5))

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
    def test_pack_unpack_round_trip(self):
        rng = np.random.default_rng(9)
        model = _random_model(rng)
        theta = pack_parameters(model)
        rebuilt = model_from_parameters(theta, model.training, model.config)
        np.testing.assert_array_equal(pack_parameters(rebuilt), theta)

    def test_vector_length_is_validated(self):
        rng = np.random.default_rng(10)
        model = _random_model(rng)
        theta = pack_parameters(model)
        with pytest.raises(ValidationError, match="expected"):
            model_from_parameters(theta[:-1], model.training, model.config)

    def test_parameter_names_align_with_vector(self):
        rng = np.random.default_rng(11)
        model = _random_model(rng, num_outputs=2, rank=1)
        names = parameter_names(2, 1)
        assert len(names) == pack_parameters(model).shape[0]


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
    ])
    def test_output_indices_checked_like_gram_matrix(self, outputs, match):
        training = TrainingSet(times=np.linspace(0.0, 1.0, 6), outputs=outputs,
                               values=np.zeros(6), num_outputs=2)
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
        np.testing.assert_array_equal(pack_parameters(loaded),
                                      pack_parameters(model))
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
        assert loaded.jitter_used == 0.0
        for got in (second, predict(model, query)):
            np.testing.assert_array_equal(first.mean, got.mean)
            np.testing.assert_array_equal(first.std, got.std)

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

    def test_missing_key_is_reported(self, tmp_path):
        rng = np.random.default_rng(15)
        model = _random_model(rng)
        path = tmp_path / "model.mogp"
        save_model(model, path)
        text = "".join(line for line in path.read_text().splitlines(True)
                       if not line.startswith("coreg.w "))
        path.write_text(text)
        with pytest.raises(ValidationError, match="missing required key"):
            load_model(path)


class TestCoregionalizationExport:
    def test_normalized_matrix_has_unit_diagonal(self):
        rng = np.random.default_rng(16)
        model = _random_model(rng)
        b, normalized = export_coregionalization(model)
        expected = model.coreg.matrix()
        np.testing.assert_allclose(b, expected, rtol=1e-12)
        np.testing.assert_allclose(np.diag(normalized), 1.0, rtol=1e-12)
        assert np.max(np.abs(normalized)) <= 1.0 + 1e-9
