from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitmogp import hmm
from gaitmogp.errors import NumericError, ValidationError
from gaitmogp.hmm import (
    ABNORMAL_STATES,
    BaumWelchConfig,
    HmmModel,
    ObservationSequence,
    anomalous_segments,
    baum_welch_fit,
    default_model,
    emission_logpdf,
    forward_log_likelihood,
    init_emissions_from_data,
    viterbi_decode,
)

import oracles


def _random_model(rng: np.random.Generator) -> HmmModel:
    initial = rng.uniform(0.1, 1.0, size=4)
    initial /= initial.sum()
    transitions = rng.uniform(0.1, 1.0, size=(4, 4))
    transitions /= transitions.sum(axis=1, keepdims=True)
    means = rng.normal(0.0, 2.0, size=(4, 2))
    root = rng.normal(0.0, 0.5, size=(2, 2))
    covariance = root @ root.T + 0.3 * np.eye(2)
    return HmmModel(initial_probs=initial, transitions=transitions,
                    state_means=means, shared_covariance=covariance)


def _random_sequence(rng: np.random.Generator, length: int) -> ObservationSequence:
    return ObservationSequence(steps=rng.normal(0.0, 1.5, size=(length, 2)))


# Lengths for the forward-backward: short ones, powers of two and one
# past them, the CLI's 400 grid points and a long one. In blocks of
# L = floor(sqrt(T - 1)) transitions, T = 1 has none, T = 2 is a single
# block, 8 and 1000 pad the last block and the others fill every block.
SCAN_LENGTHS = (1, 2, 3, 4, 5, 8, 9, 17, 64, 65, 400, 1000)


def _scaled_model(rng: np.random.Generator, max_scale: float,
                  expert: bool) -> tuple[HmmModel, float]:
    """State means drawn from N(0, s^2) with s ~ U(1, max_scale) and
    covariance c I with c ~ U(0.05, 2); the expert pi and A or random
    ones. Returns the model and s."""
    scale = rng.uniform(1.0, max_scale)
    model = default_model()
    if not expert:
        model.initial_probs = rng.dirichlet(np.ones(4))
        model.transitions = rng.dirichlet(np.ones(4), size=4)
    model.state_means = rng.normal(0.0, scale, size=(4, 2))
    model.shared_covariance = rng.uniform(0.05, 2.0) * np.eye(2)
    return model, scale


def _log_space_oracle(model: HmmModel, steps: np.ndarray):
    return oracles.hmm_log_forward_backward(
        model.initial_probs, model.transitions, model.state_means,
        model.shared_covariance, steps)


class TestExactness:
    def test_forward_matches_path_enumeration(self):
        rng = np.random.default_rng(100)
        for _ in range(20):
            model = _random_model(rng)
            seq = _random_sequence(rng, int(rng.integers(1, 7)))
            got = forward_log_likelihood(model, seq)
            expected, _ = oracles.hmm_enumerate(
                model.initial_probs, model.transitions, model.state_means,
                model.shared_covariance, seq.steps)
            assert got == pytest.approx(expected, abs=1e-10)

    def test_posterior_statistics_match_path_enumeration(self):
        rng = np.random.default_rng(113)
        models = [_random_model(rng) for _ in range(10)]
        # The expert transitions have structural zeros.
        for model in models[:3]:
            model.initial_probs = np.array(hmm.DEFAULT_INITIAL_PROBS)
            model.transitions = np.array(hmm.DEFAULT_TRANSITIONS)
        for model in models:
            seq = _random_sequence(rng, int(rng.integers(1, 7)))
            gamma = oracles.hmm_enumerate_posteriors(
                model.initial_probs, model.transitions, model.state_means,
                model.shared_covariance, seq.steps)
            got, _ = hmm._forward_backward(model, seq.steps)
            np.testing.assert_allclose(got, gamma, rtol=1e-10, atol=1e-10)

    def test_forward_survives_an_observation_far_from_every_mean(self):
        rng = np.random.default_rng(114)
        model = _random_model(rng)
        steps = _random_sequence(rng, 400).steps
        steps[137] = [2000.0, -2000.0]
        log_b = oracles.hmm_log_emissions(model.state_means,
                                          model.shared_covariance, steps)
        assert log_b[137].max() < -1e5
        expected, _ = _log_space_oracle(model, steps)
        got = forward_log_likelihood(model, ObservationSequence(steps=steps))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_scan_matches_log_space_recursion_on_ordinary_sequences(self):
        rng = np.random.default_rng(115)
        # T = 4000 runs 64 blocks of 63 transitions, the last one padded.
        for length in SCAN_LENGTHS + (4000,):
            for expert in (True, False):
                model, _ = _scaled_model(rng, 8.0, expert)
                _, steps = oracles.sample_hmm(
                    model.initial_probs, model.transitions,
                    model.state_means, model.shared_covariance, length, rng)
                gamma, log_likelihood = hmm._forward_backward(model, steps)
                expected, expected_gamma = _log_space_oracle(model, steps)
                assert log_likelihood == pytest.approx(expected, rel=1e-10)
                np.testing.assert_allclose(gamma, expected_gamma, rtol=0.0,
                                           atol=1e-10)

    def test_scan_matches_log_space_recursion_on_extreme_sequences(
            self, monkeypatch):
        # Observations drawn around the origin at the means' own scale lie
        # hundreds of standard deviations from most states, so the scaled
        # recursion underflows on some cases and the log-space passes take
        # over. The oracle's own rounding grows with |log p|, up to ~4e-7
        # in gamma at T = 1000, hence the looser bounds.
        fallbacks = []
        log_scan = hmm._log_forward_backward
        monkeypatch.setattr(hmm, "_log_forward_backward",
                            lambda *args: fallbacks.append(1) or log_scan(*args))
        rng = np.random.default_rng(116)
        for case in range(48):
            model, scale = _scaled_model(rng, 60.0, expert=case % 2 == 0)
            length = SCAN_LENGTHS[case % len(SCAN_LENGTHS)]
            steps = rng.normal(0.0, scale, size=(length, 2))
            gamma, log_likelihood = hmm._forward_backward(model, steps)
            expected, expected_gamma = _log_space_oracle(model, steps)
            if expected == -math.inf:
                assert log_likelihood == -math.inf
                continue
            assert log_likelihood == pytest.approx(expected, rel=1e-6)
            assert np.all(np.isfinite(gamma))
            np.testing.assert_allclose(gamma, expected_gamma, rtol=0.0,
                                       atol=1e-5)
        assert len(fallbacks) >= 3, len(fallbacks)

    def test_likelihood_reachable_only_through_an_underflowed_emission(self):
        # The per-step shift leaves b = (1, 0, 0, 0) at step 0 and
        # (0, 0, 0, 1) at step 1, and the expert A has no 1 -> 4 move, so
        # the scaled products are 0 although every path has finite log
        # probability (-1604.485..., the sequential log-space recursion).
        model = default_model()
        model.state_means = np.array([[0.0, 0.0], [100.0, 0.0],
                                      [0.0, 100.0], [40.0, 40.0]])
        seq = ObservationSequence(steps=np.array([[0.0, 0.0], [40.0, 40.0]]))
        expected, expected_gamma = _log_space_oracle(model, seq.steps)
        assert expected == pytest.approx(-1604.4854351296347, rel=1e-14)
        assert forward_log_likelihood(model, seq) == pytest.approx(
            expected, rel=1e-14)
        gamma, _ = hmm._forward_backward(model, seq.steps)
        np.testing.assert_allclose(gamma, expected_gamma, rtol=0.0,
                                   atol=1e-12)
        fitted = baum_welch_fit(model, [seq], BaumWelchConfig(max_iterations=3))
        assert fitted.log_likelihood_trace[0] == pytest.approx(expected,
                                                               rel=1e-14)
        assert np.all(np.diff(fitted.log_likelihood_trace) >= -1e-9)

    def test_posterior_survives_mass_lost_inside_a_product(self):
        # Inside the product of a few steps' matrices A diag(b_t), a state
        # that dominates gamma at step 1 sits more than the float range
        # below another, so a forward-backward that multiplies steps
        # before it normalizes gets (0, 1, 0, 0) at step 1 against the true
        # ~(1, 0, 0, 0). The blocked kernel normalizes every product at
        # every step.
        model = default_model()
        model.state_means = np.array([[-6.55, 23.4], [1.2, -21.88],
                                      [-14.35, -28.96], [-7.3, -0.82]])
        model.shared_covariance = 0.65 * np.eye(2)
        steps = np.array([[27.07, 28.25], [-0.29, 7.66], [-2.53, 1.17],
                          [1.94, 3.55], [23.18, 6.28], [24.14, 27.31],
                          [-27.87, 6.92], [8.91, 2.52], [7.43, 21.24]])
        gamma, log_likelihood = hmm._forward_backward(model, steps)
        expected, expected_gamma = _log_space_oracle(model, steps)
        assert log_likelihood == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(gamma, expected_gamma, rtol=0.0,
                                   atol=1e-10)

    def test_row_sum_check_catches_a_state_dropped_from_alpha(
            self, monkeypatch):
        # Two closed groups of states, {1, 2} and {3, 4}. Steps 0 and 1
        # favor the first group by e^400 each, and steps 2-4 favor the
        # second group by e^400 each, so it carries the whole posterior.
        # At step 1 the second group's alpha (~e^-800 of the first's)
        # underflows to 0 while every normaliser stays normal, and so does
        # the first group's beta: the row sum at step 1 is 0, and without
        # the row-sum check gamma_1 is nan. The check selects the
        # log-space passes.
        fallbacks = []
        log_passes = hmm._log_forward_backward
        monkeypatch.setattr(hmm, "_log_forward_backward",
                            lambda *args: fallbacks.append(1) or log_passes(*args))
        far = math.sqrt(800.0)
        model = HmmModel(
            initial_probs=np.full(4, 0.25),
            transitions=[[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0],
                         [0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.5, 0.5]],
            state_means=[[0.0, 0.0], [0.0, 0.5], [far, 0.0], [far, 0.5]],
            shared_covariance=np.eye(2))
        steps = np.array([[0.0, 0.0]] * 2 + [[far, 0.0]] * 3)
        gamma, log_likelihood = hmm._forward_backward(model, steps)
        expected, expected_gamma = _log_space_oracle(model, steps)
        assert log_likelihood == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(gamma, expected_gamma, rtol=0.0,
                                   atol=1e-10)
        assert np.all(gamma[:, 2:].sum(axis=1) > 0.999)
        assert len(fallbacks) == 1

    def test_row_sum_check_catches_mass_lost_inside_a_block_product(
            self, monkeypatch):
        # T = 10: three blocks of three transitions. Only state 1 can
        # start, state 2 cannot go back to 1, and {3, 4} is closed. At
        # steps 1 and 2, where states 3 and 4 fit best, the path that stays
        # in state 1 falls e^-800 below them, and the one that moves to
        # state 2 e^-480. The first block's prefix product is divided by
        # its largest entries, those of rows 3 and 4, so its state-1 path
        # underflows to 0 at step 2; the per-step scaled messages keep it
        # (~e^-320 of state 2's). From step 3 on, state 1 fits e^200 a
        # step better than state 2, so that path carries the posterior.
        # Every normaliser stays normal and the carried forward scale
        # gives a log p ~1074 nats too low, but the backward products keep
        # the path, so the row sum at step 0 gives the true one, and the
        # check selects the log-space passes.
        fallbacks = []
        log_passes = hmm._log_forward_backward
        monkeypatch.setattr(hmm, "_log_forward_backward",
                            lambda *args: fallbacks.append(1) or log_passes(*args))
        model = HmmModel(
            initial_probs=[1.0, 0.0, 0.0, 0.0],
            transitions=[[0.5, 0.5, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                         [0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.5, 0.5]],
            state_means=[[20.0, 0.0], [20.0, 20.0], [0.0, 0.0], [0.0, 0.0]],
            shared_covariance=np.eye(2))
        steps = np.array([[20.0, 0.0], [-10.0, 11.0], [-10.0, 25.0]]
                         + [[20.0, 0.0]] * 7)
        log_b = oracles.hmm_log_emissions(model.state_means,
                                          model.shared_covariance, steps)
        np.testing.assert_allclose(
            (log_b - log_b.max(axis=1, keepdims=True))[1:3],
            [[-400.0, -380.0, 0.0, 0.0], [-400.0, -100.0, 0.0, 0.0]])
        gamma, log_likelihood = hmm._forward_backward(model, steps)
        expected, expected_gamma = _log_space_oracle(model, steps)
        assert log_likelihood == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(gamma, expected_gamma, rtol=0.0,
                                   atol=1e-10)
        assert np.all(gamma[:, 0] > 0.999)
        assert len(fallbacks) == 1

    def test_forward_log_likelihood_equals_the_kernel(self):
        rng = np.random.default_rng(118)
        for case, length in enumerate(SCAN_LENGTHS):
            model, scale = _scaled_model(rng, 30.0, expert=case % 2 == 0)
            seq = ObservationSequence(
                steps=rng.normal(0.0, scale, size=(length, 2)))
            assert (forward_log_likelihood(model, seq)
                    == hmm._forward_backward(model, seq.steps)[1])

    def test_emission_underflow_check_catches_a_state_dropped_from_b(self):
        # Two closed blocks of states, {1, 2} and {3, 4}, with d^2 = 700.
        # At step 2 the second block's log-emissions lie 760 nats below
        # the first block's, so their shifted b is exactly 0 while their
        # logs are finite. The scaled passes then lose the second block
        # without a trace: every c_t stays normal, every row sum is 1, and
        # log p comes out 40 too low with gamma on the first block at
        # every step. Steps 0, 1 and 3 favor the second block by 350, 350
        # and 100 nats, so the true posterior lies on it.
        d = math.sqrt(700.0)
        model = HmmModel(
            initial_probs=np.full(4, 0.25),
            transitions=[[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0],
                         [0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.5, 0.5]],
            state_means=[[0.0, 0.0], [0.0, 0.5], [d, 0.0], [d, 0.5]],
            shared_covariance=np.eye(2))
        steps = np.array([[d, 0.0], [d, 0.0], [-410.0 / d, 0.0],
                          [450.0 / d, 0.0]])
        gamma, log_likelihood = hmm._forward_backward(model, steps)
        expected, expected_gamma = _log_space_oracle(model, steps)
        assert expected == pytest.approx(-933.001, abs=1e-3)
        assert log_likelihood == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(gamma, expected_gamma, rtol=0.0,
                                   atol=1e-10)
        assert np.all(gamma[:, 2:].sum(axis=1) > 0.999)

    def test_emission_matrix_equals_one_solve_per_state(self):
        rng = np.random.default_rng(117)
        model = _random_model(rng)
        steps = _random_sequence(rng, 400).steps
        chol = np.linalg.cholesky(model.shared_covariance)
        log_det_half = float(np.sum(np.log(np.diag(chol))))
        expected = np.empty((400, 4))
        for i in range(4):
            solved = np.linalg.solve(chol, (steps - model.state_means[i]).T)
            maha = np.sum(solved * solved, axis=0)
            expected[:, i] = -0.5 * maha - log_det_half - np.log(2.0 * np.pi)
        assert np.array_equal(hmm._emission_log_matrix(model, steps), expected)

    def test_viterbi_matches_path_enumeration(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            model = _random_model(rng)
            seq = _random_sequence(rng, int(rng.integers(1, 7)))
            decoded = viterbi_decode(model, seq)
            _, best_path = oracles.hmm_enumerate(
                model.initial_probs, model.transitions, model.state_means,
                model.shared_covariance, seq.steps)
            np.testing.assert_array_equal(decoded.states, best_path)

    def test_emission_logpdf_matches_scipy(self):
        rng = np.random.default_rng(102)
        model = _random_model(rng)
        obs = rng.normal(size=2)
        log_b = oracles.hmm_log_emissions(model.state_means,
                                          model.shared_covariance,
                                          obs[None, :])
        for state in range(1, 5):
            assert emission_logpdf(model, obs, state) == pytest.approx(
                float(log_b[0, state - 1]), rel=1e-12)

    def test_viterbi_log_joint_scores_its_own_path(self):
        rng = np.random.default_rng(103)
        model = _random_model(rng)
        seq = _random_sequence(rng, 6)
        decoded = viterbi_decode(model, seq)
        with np.errstate(divide="ignore"):
            log_pi = np.log(model.initial_probs)
            log_a = np.log(model.transitions)
        path = decoded.states - 1
        score = log_pi[path[0]] + emission_logpdf(model, seq.steps[0],
                                                  int(path[0]) + 1)
        for t in range(1, len(seq)):
            score += log_a[path[t - 1], path[t]]
            score += emission_logpdf(model, seq.steps[t], int(path[t]) + 1)
        assert decoded.log_joint == pytest.approx(score, abs=1e-10)

    def test_viterbi_ties_resolve_to_lowest_state(self):
        model = HmmModel(
            initial_probs=np.full(4, 0.25),
            transitions=np.full((4, 4), 0.25),
            state_means=np.zeros((4, 2)),
            shared_covariance=np.eye(2),
        )
        seq = ObservationSequence(steps=np.zeros((5, 2)))
        decoded = viterbi_decode(model, seq)
        np.testing.assert_array_equal(decoded.states, np.ones(5, dtype=int))


class TestViterbiAgainstTheNumpyRecursion:
    """viterbi_decode runs on Python floats; the recursion as one numpy
    step per time step must give the same path and the same log_joint."""

    @given(seed=st.integers(0, 2**32 - 1), length=st.integers(1, 120),
           zeros=st.booleans(), tied_means=st.booleans(),
           uniform=st.booleans(), rounded=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_states_and_log_joint_are_equal(self, seed, length, zeros,
                                            tied_means, uniform, rounded):
        rng = np.random.default_rng(seed)
        model = _random_model(rng)
        if uniform:
            model.initial_probs = np.full(4, 0.25)
            model.transitions = np.full((4, 4), 0.25)
        if zeros:
            # Structural zeros: each row keeps one state it can reach.
            keep = rng.integers(0, 4, size=4)
            mask = rng.random((4, 4)) < 0.5
            mask[np.arange(4), keep] = False
            transitions = np.where(mask, 0.0, model.transitions)
            model.transitions = transitions / transitions.sum(
                axis=1, keepdims=True)
        if tied_means:
            # Equal emissions for some states: exact ties in the scores.
            model.state_means[1:3] = model.state_means[0]
        steps = rng.normal(0.0, 1.5, size=(length, 2))
        if rounded:
            steps = np.round(steps)
        decoded = viterbi_decode(model, ObservationSequence(steps=steps))
        path, log_joint = oracles.viterbi_numpy(
            model.initial_probs, model.transitions,
            hmm._emission_log_matrix(model, steps))
        np.testing.assert_array_equal(decoded.states, path + 1)
        assert decoded.log_joint == log_joint


class TestBaumWelch:
    def test_log_likelihood_never_decreases(self):
        rng = np.random.default_rng(104)
        truth = _random_model(rng)
        sequences = [
            ObservationSequence(steps=oracles.sample_hmm(
                truth.initial_probs, truth.transitions, truth.state_means,
                truth.shared_covariance, 40, rng)[1])
            for _ in range(4)]
        init = init_emissions_from_data(default_model(), sequences)
        fitted = baum_welch_fit(init, sequences,
                                BaumWelchConfig(max_iterations=30, tol=1e-15))
        trace = np.asarray(fitted.log_likelihood_trace)
        assert trace.shape[0] >= 2
        assert np.all(np.diff(trace) >= -1e-9)

    def test_zero_iterations_keeps_model_and_reports_initial_ll(self):
        rng = np.random.default_rng(105)
        sequences = [_random_sequence(rng, 20)]
        init = init_emissions_from_data(default_model(), sequences)
        fitted = baum_welch_fit(init, sequences,
                                BaumWelchConfig(max_iterations=0))
        np.testing.assert_array_equal(fitted.state_means, init.state_means)
        np.testing.assert_array_equal(fitted.shared_covariance,
                                      init.shared_covariance)
        expected = sum(forward_log_likelihood(init, s) for s in sequences)
        assert fitted.log_likelihood_trace == [pytest.approx(expected)]

    def test_trace_starts_at_initial_likelihood(self):
        rng = np.random.default_rng(106)
        sequences = [_random_sequence(rng, 25)]
        init = init_emissions_from_data(default_model(), sequences)
        fitted = baum_welch_fit(init, sequences,
                                BaumWelchConfig(max_iterations=10, tol=1e-15))
        expected = sum(forward_log_likelihood(init, s) for s in sequences)
        assert fitted.log_likelihood_trace[0] == pytest.approx(expected)

    def test_transitions_and_initial_probs_frozen(self):
        rng = np.random.default_rng(107)
        sequences = [_random_sequence(rng, 30)]
        init = init_emissions_from_data(default_model(), sequences)
        fitted = baum_welch_fit(init, sequences,
                                BaumWelchConfig(max_iterations=5, tol=1e-15))
        np.testing.assert_array_equal(fitted.transitions, init.transitions)
        np.testing.assert_array_equal(fitted.initial_probs,
                                      init.initial_probs)

    def test_recovers_separated_state_means(self):
        rng = np.random.default_rng(109)
        truth = default_model()
        truth.state_means = np.array([[-2.0, -2.0], [2.0, 2.0],
                                      [4.0, -1.0], [-1.0, 4.0]])
        truth.shared_covariance = 0.1 * np.eye(2)
        sequences = [
            ObservationSequence(steps=oracles.sample_hmm(
                truth.initial_probs, truth.transitions, truth.state_means,
                truth.shared_covariance, 150, rng)[1])
            for _ in range(6)]
        init = init_emissions_from_data(default_model(), sequences)
        fitted = baum_welch_fit(init, sequences,
                                BaumWelchConfig(max_iterations=60))
        cost = np.linalg.norm(
            truth.state_means[:, None, :] - fitted.state_means[None, :, :],
            axis=2)
        matched = cost.argmin(axis=1)
        assert sorted(matched.tolist()) == [0, 1, 2, 3]
        assert float(cost[np.arange(4), matched].max()) < 0.1

    def test_requires_at_least_one_sequence(self):
        with pytest.raises(ValidationError, match="at least one"):
            baum_welch_fit(default_model(), [])

    @pytest.mark.parametrize("ratio", [1.0, 1.7])
    @pytest.mark.parametrize("sigma", [1e-7, 1e-5, 1e-3, 1e-2, 1e-1])
    def test_covariance_floor_passes_validation(self, sigma, ratio):
        # Proportional channels leave the M-step covariance singular but
        # for its relative jitter, so small ones are raised to the floor.
        x = np.random.default_rng(0).normal(0.0, sigma, 300)
        seq = ObservationSequence(steps=np.column_stack([x, ratio * x]))
        fitted = baum_welch_fit(
            init_emissions_from_data(default_model(), [seq]), [seq])
        assert (np.linalg.eigvalsh(fitted.shared_covariance).min()
                >= hmm.MIN_COVARIANCE_EIGENVALUE)
        assert len(viterbi_decode(fitted, seq).states) == 300
        fitted.validate()


class TestInitialization:
    def test_quantile_geometry(self):
        rng = np.random.default_rng(110)
        sequences = [_random_sequence(rng, 50) for _ in range(2)]
        model = init_emissions_from_data(default_model(), sequences)
        pooled = np.concatenate([s.steps for s in sequences], axis=0)
        q25 = np.percentile(pooled, 25.0, axis=0)
        q75 = np.percentile(pooled, 75.0, axis=0)
        std = np.std(pooled, axis=0)
        np.testing.assert_allclose(model.state_means[0], q25, rtol=1e-12)
        np.testing.assert_allclose(model.state_means[1], q75, rtol=1e-12)
        np.testing.assert_allclose(model.state_means[2], q25 + std,
                                   rtol=1e-12)
        np.testing.assert_allclose(model.state_means[3], q75 + std,
                                   rtol=1e-12)
        np.testing.assert_allclose(
            model.shared_covariance,
            np.diag(np.maximum(np.var(pooled, axis=0), 1e-6)), rtol=1e-12)

    def test_default_model_uses_expert_tables(self):
        model = default_model()
        np.testing.assert_array_equal(model.initial_probs,
                                      hmm.DEFAULT_INITIAL_PROBS)
        np.testing.assert_array_equal(model.transitions,
                                      hmm.DEFAULT_TRANSITIONS)
        model.validate()


class TestSegments:
    def test_runs_merge_into_segments(self):
        grid = np.arange(8) / 8.0
        segments = anomalous_segments(np.array([1, 3, 3, 2, 4, 4, 4, 1]),
                                      grid)
        assert segments == [
            {"start_time": 1 / 8, "end_time": 2 / 8, "state_label": "s3"},
            {"start_time": 4 / 8, "end_time": 6 / 8, "state_label": "s4"}]

    def test_majority_label_with_tie_prefers_s3(self):
        grid = np.arange(4) / 4.0
        segments = anomalous_segments(np.array([3, 4, 1, 1]), grid)
        assert [s["state_label"] for s in segments] == ["s3"]

    def test_trailing_run_is_closed(self):
        grid = np.arange(5) / 5.0
        segments = anomalous_segments(np.array([1, 1, 1, 4, 4]), grid)
        assert segments == [{"start_time": 3 / 5, "end_time": 4 / 5,
                             "state_label": "s4"}]

    def test_all_normal_path_yields_no_segments(self):
        grid = np.arange(6) / 6.0
        assert anomalous_segments(np.array([1, 2, 1, 2, 1, 2]), grid) == []

    def test_grid_length_mismatch(self):
        with pytest.raises(ValidationError, match="does not match"):
            anomalous_segments(np.array([1, 2]), np.zeros(3))

    def test_abnormal_state_labels(self):
        assert ABNORMAL_STATES == (3, 4)


class TestValidation:
    def test_initial_probs_must_sum_to_one(self):
        model = default_model()
        model.initial_probs = np.array([0.5, 0.5, 0.5, 0.5])
        with pytest.raises(ValidationError, match="sum to 1"):
            model.validate()

    def test_transition_rows_must_sum_to_one(self):
        model = default_model()
        model.transitions = np.full((4, 4), 0.3)
        with pytest.raises(ValidationError, match="row must sum"):
            model.validate()

    def test_covariance_must_be_symmetric(self):
        model = default_model()
        model.shared_covariance = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(ValidationError, match="symmetric"):
            model.validate()

    def test_covariance_eigenvalue_floor(self):
        model = default_model()
        model.shared_covariance = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValidationError, match="eigenvalue"):
            model.validate()

    def test_observation_shape_is_enforced(self):
        with pytest.raises(ValidationError, match=r"\(T, 2\)"):
            ObservationSequence(steps=np.zeros((4, 3)))
        with pytest.raises(ValidationError, match="finite"):
            ObservationSequence(steps=np.array([[0.0, np.nan]]))

    def test_emission_underflow_raises_numeric_error(self):
        model = default_model()
        seq = ObservationSequence(steps=np.array([[1e200, 1e200]]))
        with pytest.raises(NumericError, match="underflow"):
            viterbi_decode(model, seq)

    def test_impossible_sequence_has_minus_infinite_likelihood(self):
        model = default_model()
        seq = ObservationSequence(steps=np.array([[0.0, 0.0], [1e200, 1e200]]))
        assert forward_log_likelihood(model, seq) == -np.inf
        with pytest.raises(NumericError, match="non-finite"):
            baum_welch_fit(model, [seq])

    def test_viterbi_of_an_impossible_sequence_is_numeric_error(self):
        # Each step is possible in state 2 alone, which the chain cannot
        # start in, so every path has probability 0.
        big = 1e160
        model = HmmModel(
            initial_probs=np.array([1.0, 0.0, 0.0, 0.0]),
            transitions=np.array(hmm.DEFAULT_TRANSITIONS),
            state_means=np.array([[0.0, 0.0], [big, 0.0], [0.0, big],
                                  [big, big]]),
            shared_covariance=np.eye(2))
        seq = ObservationSequence(steps=np.array([[big, 0.0], [big, 0.0]]))
        assert forward_log_likelihood(model, seq) == -np.inf
        with pytest.raises(NumericError, match="impossible"):
            viterbi_decode(model, seq)
