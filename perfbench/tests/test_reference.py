"""The reference code agrees with gaitmogp on small instances."""

import numpy as np
import pytest

import reference
from gaitmogp import hmm, metrics, mogp


@pytest.mark.parametrize("seed", range(5))
def test_dtw_matches_program_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=int(rng.integers(1, 40)))
    b = rng.normal(size=int(rng.integers(1, 40)))
    assert reference.dtw(a, b) == metrics.dtw(a, b)


def test_dtw_small_cases():
    assert reference.dtw([1.0], [3.0]) == 2.0
    assert reference.dtw([0.0, 1.0, 2.0], [0.0, 2.0]) == 1.0
    assert reference.dtw([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def _hmm_case(seed: int, length: int = 40):
    rng = np.random.default_rng(seed)
    steps = np.cumsum(rng.normal(size=(length, 2)), axis=0) * 0.3
    seq = hmm.ObservationSequence(steps=steps)
    model = hmm.init_emissions_from_data(hmm.default_model(), [seq])
    return model, seq


@pytest.mark.parametrize("seed", range(4))
def test_viterbi_and_path_score_match_program(seed):
    model, seq = _hmm_case(seed)
    decoded = hmm.viterbi_decode(model, seq)
    emissions = reference.gaussian_log_emissions(
        model.state_means, model.shared_covariance, seq.steps)
    best, path = reference.viterbi(model.initial_probs, model.transitions,
                                   emissions)
    score = reference.path_score(model.initial_probs, model.transitions,
                                 emissions, decoded.states - 1)
    assert score == pytest.approx(decoded.log_joint, rel=1e-12)
    assert best == pytest.approx(decoded.log_joint, rel=1e-12)
    assert reference.path_score(model.initial_probs, model.transitions,
                                emissions, path) == pytest.approx(best,
                                                                  rel=1e-12)


def test_emissions_match_program():
    model, seq = _hmm_case(7, length=5)
    emissions = reference.gaussian_log_emissions(
        model.state_means, model.shared_covariance, seq.steps)
    for t in range(5):
        for state in range(4):
            assert emissions[t, state] == pytest.approx(
                hmm.emission_logpdf(model, seq.steps[t], state + 1),
                rel=1e-12)


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    rng = np.random.default_rng(3)
    outputs = np.repeat(np.arange(6), 15)
    times = rng.uniform(0.0, 1.0, outputs.size)
    values = np.sin(2 * np.pi * times + outputs) + 0.05 * rng.normal(
        size=outputs.size)
    training = mogp.TrainingSet(times, outputs, values, num_outputs=6)
    model = mogp.fit(training, mogp.OptimizerConfig(iterations=8, seed=3))
    path = tmp_path_factory.mktemp("model") / "small.mogp"
    mogp.save_model(model, path)
    return model, reference.read_mogp(path)


def test_dense_lml_matches_program(saved_model):
    model, ref = saved_model
    assert reference.dense_lml(ref) == pytest.approx(
        mogp.log_marginal_likelihood(model), rel=1e-10)


def test_dense_posterior_matches_program(saved_model):
    model, ref = saved_model
    query = np.linspace(0.0, 1.0, 23)
    pred = mogp.predict(model, query)
    mean, std = reference.dense_posterior(ref, query)
    np.testing.assert_allclose(mean, pred.mean, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(std, pred.std, rtol=1e-10, atol=1e-10)
