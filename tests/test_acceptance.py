"""Acceptance suite: one test per release criterion.

Every test prints a single ``[criterion NN] PASS/FAIL`` line with the
measured margins (run with ``-s`` to see the lines for passing tests)
and asserts both the numeric bar and the wall-clock budget.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

import oracles
from gaitmogp import cli, hmm, metrics, mogp
from gaitmogp.gait_signal import CHANNELS, detect_events, lowpass_filter
from gaitmogp.kernels import TemporalKernel, _floored_exp_with_grad


def _criterion(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)


def _mixed_err(value, reference) -> float:
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return float(np.max(np.abs(value - reference)
                        / np.maximum(1.0, np.abs(reference))))


# ---------------------------------------------------------------------------
# Criterion 1: kernel closed forms and Gram positive semi-definiteness.


def test_criterion_01_kernel_closed_forms():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        t, u = rng.uniform(0.0, 2.0, size=2)
        v_p, v_s, v_m = np.exp(rng.uniform(-1.5, 1.0, size=3))
        l_p, l_s, l_m = np.exp(rng.uniform(-1.5, 0.7, size=3))
        period = float(np.exp(rng.uniform(-0.7, 0.7)))

        log_values = np.array([math.log(value) for value in
                               (v_p, l_p, period, v_s, l_s, v_m, l_m)])
        kernel = TemporalKernel(*_floored_exp_with_grad(log_values),
                                abs(t - u))

        worst = max(
            worst,
            _rel_err(kernel.k_se, float(oracles.se_value(v_s, l_s, t, u))),
            _rel_err(kernel.k_mat,
                     float(oracles.matern32_value(v_m, l_m, t, u))),
            _rel_err(kernel.k_per,
                     float(oracles.periodic_value(v_p, l_p, period, t, u))),
            _rel_err(kernel.k_t,
                     float(oracles.composite_value(
                         (v_p, l_p, period), (v_s, l_s), (v_m, l_m), t, u))),
        )

    worst_eig_ratio = 0.0
    for _ in range(20):
        n = int(rng.integers(8, 40))
        m = int(rng.integers(2, 7))
        rank = int(rng.integers(1, 4))
        theta = np.concatenate([
            rng.uniform(-1.5, 0.5, 2), [rng.uniform(-0.7, 0.7)],
            rng.uniform(-1.5, 0.5, 2), rng.uniform(-1.5, 0.5, 2),
            0.7 * rng.standard_normal(m * rank), rng.uniform(-2.0, 0.0, m),
            np.zeros(m + 1)])
        times = rng.uniform(0.0, 1.0, n)
        outputs = rng.integers(0, m, n)
        # The Gram matrix the package factors, on the dense path.
        evaluation = mogp._evaluate(mogp.MoGPModel(
            theta=theta, training=mogp.TrainingSet(
                times=times, outputs=outputs, values=np.zeros(n),
                num_outputs=m),
            config=mogp.OptimizerConfig(rank=rank)))
        gram = evaluation.b_oo * evaluation.k_t
        eigs = np.linalg.eigvalsh(gram)
        worst_eig_ratio = max(worst_eig_ratio,
                              -float(eigs[0]) / float(np.trace(gram)))

    elapsed = time.monotonic() - start
    ok = worst < 1e-12 and worst_eig_ratio <= 1e-8 and elapsed < 5.0
    _criterion(1, "kernel-closed-forms", ok,
               f"worst rel err {worst:.3e} <= 1e-12, "
               f"min-eig/trace >= -{worst_eig_ratio:.3e} (bar 1e-8), "
               f"{elapsed:.1f}s < 5s")


# ---------------------------------------------------------------------------
# Criteria 2-3 share the same random small-instance builder.


def _random_gp_instance(rng: np.random.Generator, max_n: int = 8,
                        max_m: int = 3):
    n = int(rng.integers(2, max_n + 1))
    m = int(rng.integers(1, max_m + 1))
    rank = 2
    training = mogp.TrainingSet(
        times=rng.uniform(0.0, 1.0, n),
        outputs=rng.integers(0, m, n),
        values=rng.normal(0.0, 1.0, n),
        num_outputs=m)
    theta = np.concatenate([
        rng.uniform(-1.5, 0.5, 7),
        0.7 * rng.standard_normal(m * rank),
        rng.uniform(-2.0, 0.0, m),
        0.5 * rng.standard_normal(m),
        [float(np.log(rng.uniform(0.05, 0.4)))],
    ])
    config = mogp.OptimizerConfig(rank=rank)
    return mogp.MoGPModel(theta=theta, training=training, config=config), theta


def test_criterion_02_gp_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        model, _ = _random_gp_instance(rng)
        worst = max(worst, _mixed_err(mogp.log_marginal_likelihood(model),
                                      oracles.dense_lml(model)))
        query = rng.uniform(0.0, 1.0, 6)
        pred = mogp.predict(model, query)
        for output in range(model.num_outputs):
            mean, var = oracles.dense_posterior(model, query, output)
            worst = max(worst, _mixed_err(pred.mean[output], mean),
                        _mixed_err(pred.std[output] ** 2, var))
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and elapsed < 10.0
    _criterion(2, "gp-exactness", ok,
               f"50 instances, worst LML/mean/var err {worst:.3e} <= 1e-8, "
               f"{elapsed:.1f}s < 10s")


def test_criterion_03_gradient_check():
    start = time.monotonic()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(20):
        model, theta = _random_gp_instance(rng, max_n=10)
        training, config = model.training, model.config

        def lml_of(vec: np.ndarray) -> float:
            return mogp.log_marginal_likelihood(
                mogp.MoGPModel(theta=vec, training=training, config=config))

        analytic = mogp.lml_gradient(model)
        fd = oracles.central_difference(lml_of, theta, step=1e-5)
        rel = float(np.linalg.norm(analytic - fd)
                    / max(np.linalg.norm(fd), 1e-12))
        worst = max(worst, rel)
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 30.0
    _criterion(3, "gradient-check", ok,
               f"20 instances, worst rel err {worst:.3e} <= 1e-4 "
               f"(central FD step 1e-5), {elapsed:.1f}s < 30s")


# ---------------------------------------------------------------------------
# Criterion 4: generate from a known MoGP, refit, check fit quality.


def test_criterion_04_gp_generate_and_refit():
    start = time.monotonic()
    rng = np.random.default_rng(404)
    m, train_n, held_n = 6, 60, 30

    kernel = [1.0, 0.45, 1.0, 0.6, 0.3, 0.2, 0.25]
    w = 0.5 * rng.standard_normal((m, 2))
    theta = np.concatenate([
        [math.log(value) for value in kernel], w.ravel(),
        np.log(np.full(m, 0.3)), rng.normal(0.0, 0.5, m),
        [float(np.log(0.01))]])

    train_times = np.concatenate(
        [np.sort(rng.uniform(0.0, 1.0, train_n)) for _ in range(m)])
    train_outputs = np.repeat(np.arange(m), train_n)
    held_grid = np.sort(rng.uniform(0.0, 1.0, held_n))
    all_times = np.concatenate([train_times, np.tile(held_grid, m)])
    all_outputs = np.concatenate([train_outputs,
                                  np.repeat(np.arange(m), held_n)])

    known = mogp.MoGPModel(
        theta=theta,
        training=mogp.TrainingSet(times=train_times, outputs=train_outputs,
                                  values=np.zeros(train_times.shape[0]),
                                  num_outputs=m))
    _, observed = oracles.sample_mogp(known, all_times, all_outputs, rng)
    y_train = observed[:train_times.shape[0]]
    y_held = observed[train_times.shape[0]:]

    fitted = mogp.fit(
        mogp.TrainingSet(times=train_times, outputs=train_outputs,
                         values=y_train, num_outputs=m),
        mogp.OptimizerConfig(iterations=500, seed=0, rank=2))
    pred = mogp.predict(fitted, held_grid)
    pred_flat = np.concatenate([pred.mean[j] for j in range(m)])
    std_flat = np.concatenate([pred.std[j] for j in range(m)])

    r2 = metrics.r_squared(pred_flat, y_held)
    coverage = float(np.mean(np.abs(y_held - pred_flat) <= 2.0 * std_flat))
    elapsed = time.monotonic() - start
    ok = r2 >= 0.95 and 0.90 <= coverage <= 0.99 and elapsed < 300.0
    _criterion(4, "gp-generate-refit", ok,
               f"M=6, 60 points/output: R2 {r2:.4f} >= 0.95, "
               f"2-sigma coverage {coverage:.3f} in [0.90, 0.99], "
               f"{elapsed:.1f}s < 300s")


# ---------------------------------------------------------------------------
# Criterion 5: HMM forward/Viterbi versus exhaustive path enumeration.


def test_criterion_05_hmm_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(505)
    worst_ll = 0.0
    path_matches = 0
    for _ in range(100):
        initial = rng.uniform(0.2, 1.0, 4)
        initial /= initial.sum()
        transitions = rng.uniform(0.1, 1.0, (4, 4))
        transitions /= transitions.sum(axis=1, keepdims=True)
        state_means = rng.normal(0.0, 2.0, (4, 2))
        root = rng.normal(0.0, 0.5, (2, 2))
        covariance = root.T @ root + 0.3 * np.eye(2)
        model = hmm.HmmModel(initial_probs=initial, transitions=transitions,
                             state_means=state_means,
                             shared_covariance=covariance)

        length = int(rng.integers(1, 9))
        _, obs = oracles.sample_hmm(initial, transitions, state_means,
                                    covariance, length, rng)
        seq = hmm.ObservationSequence(steps=obs)

        ll_ref, path_ref = oracles.hmm_enumerate(
            initial, transitions, state_means, covariance, obs)
        worst_ll = max(worst_ll,
                       abs(hmm.forward_log_likelihood(model, seq) - ll_ref))
        decoded = hmm.viterbi_decode(model, seq)
        path_matches += int(np.array_equal(decoded.states, path_ref))
    elapsed = time.monotonic() - start
    ok = worst_ll < 1e-10 and path_matches == 100 and elapsed < 10.0
    _criterion(5, "hmm-exactness", ok,
               f"100 instances T<=8: paths {path_matches}/100 exact, "
               f"worst |LL err| {worst_ll:.3e} <= 1e-10, {elapsed:.1f}s < 10s")


# ---------------------------------------------------------------------------
# Criterion 6: EM log-likelihood is monotone over 100 full iterations.


def test_criterion_06_em_monotonicity():
    start = time.monotonic()
    initial = np.array([0.25, 0.25, 0.25, 0.25])
    transitions = np.full((4, 4), 0.1) + 0.6 * np.eye(4)
    state_means = np.array([[0.0, 0.0], [1.2, 0.0], [0.0, 1.2], [1.2, 1.2]])
    covariance = np.array([[0.8, 0.2], [0.2, 0.8]])
    sequences = []
    for k in range(5):
        _, obs = oracles.sample_hmm(initial, transitions, state_means,
                                    covariance, 150,
                                    np.random.default_rng([606, k]))
        sequences.append(hmm.ObservationSequence(steps=obs))

    init = hmm.init_emissions_from_data(hmm.default_model(), sequences)
    fitted = hmm.baum_welch_fit(init, sequences, hmm.BaumWelchConfig(
        max_iterations=100, tol=1e-300))
    trace = np.asarray(fitted.log_likelihood_trace)
    min_diff = float(np.min(np.diff(trace)))
    elapsed = time.monotonic() - start
    ok = trace.shape[0] == 101 and min_diff >= -1e-9 and elapsed < 60.0
    _criterion(6, "em-monotonicity", ok,
               f"100 iterations on 750 points: min LL step {min_diff:.3e} "
               f">= -1e-9, trace length {trace.shape[0]}, "
               f"{elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# Criterion 7: generate from a known 4-state model, refit, recover means.


def test_criterion_07_hmm_generate_and_refit():
    start = time.monotonic()
    initial = np.array(hmm.DEFAULT_INITIAL_PROBS)
    transitions = np.array(hmm.DEFAULT_TRANSITIONS)
    true_means = np.array([[0.0, 0.0], [1.6, 1.2], [1.0, 0.8], [2.6, 2.0]])
    true_cov = 0.04 * np.eye(2)

    sequences = []
    for k in range(20):
        _, obs = oracles.sample_hmm(initial, transitions, true_means,
                                    true_cov, 200,
                                    np.random.default_rng([707, k]))
        sequences.append(hmm.ObservationSequence(steps=obs))

    init = hmm.init_emissions_from_data(hmm.default_model(), sequences)
    fitted = hmm.baum_welch_fit(init, sequences, hmm.BaumWelchConfig(
        max_iterations=50, tol=1e-12))

    matched = set()
    worst = 0.0
    for mu in true_means:
        distances = np.linalg.norm(fitted.state_means - mu, axis=1)
        worst = max(worst, float(np.min(distances)))
        matched.add(int(np.argmin(distances)))
    elapsed = time.monotonic() - start
    ok = worst < 0.1 and len(matched) == 4 and elapsed < 60.0
    _criterion(7, "hmm-generate-refit", ok,
               f"20 seqs x T=200: worst nearest-mean distance {worst:.4f} "
               f"< 0.1, {len(matched)}/4 states matched, {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# Criterion 8: event detection on the analytic two-extrema template.


TEMPLATE_MIN = 0.066202651660851708
TEMPLATE_MAX = 0.433797348339148292


def _template(t: np.ndarray) -> np.ndarray:
    return -np.cos(2.0 * np.pi * t) + 0.3 * np.cos(4.0 * np.pi * t
                                                   + np.pi / 2.0)


def _circular_distance(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def test_criterion_08_event_detection():
    start = time.monotonic()
    n = 400
    grid = np.arange(n, dtype=float) / n
    rng = np.random.default_rng(808)

    clean_hits = 0
    for _ in range(100):
        phase = float(rng.uniform())
        heel_strikes, toe_offs = detect_events(
            _template((grid - phase) % 1.0), grid)
        clean_hits += int(
            len(heel_strikes) == 1 and len(toe_offs) == 1
            and _circular_distance(heel_strikes[0],
                                   (TEMPLATE_MIN + phase) % 1.0)
            <= 1.0 / n + 1e-12
            and _circular_distance(toe_offs[0],
                                   (TEMPLATE_MAX + phase) % 1.0)
            <= 1.0 / n + 1e-12)

    noisy_hits = 0
    rng = np.random.default_rng(809)
    for _ in range(100):
        phase = float(rng.uniform())
        noisy = _template((grid - phase) % 1.0) + rng.normal(0.0, 0.05, n)
        tiled = np.tile(noisy, 3)
        traj = np.column_stack([np.zeros(3 * n), tiled, np.ones(3 * n)])
        smoothed = lowpass_filter(traj, cutoff_hz=4.0,
                                  frame_rate=float(n))[n:2 * n, 1]
        heel_strikes, toe_offs = detect_events(smoothed, grid)
        noisy_hits += int(
            len(heel_strikes) == 1 and len(toe_offs) == 1
            and _circular_distance(heel_strikes[0],
                                   (TEMPLATE_MIN + phase) % 1.0)
            <= 2.0 / n + 1e-12
            and _circular_distance(toe_offs[0],
                                   (TEMPLATE_MAX + phase) % 1.0)
            <= 2.0 / n + 1e-12)

    elapsed = time.monotonic() - start
    ok = clean_hits == 100 and noisy_hits >= 95 and elapsed < 10.0
    _criterion(8, "event-detection", ok,
               f"clean {clean_hits}/100 within 1 step, "
               f"sigma=0.05 {noisy_hits}/100 within 2 steps (bar 95), "
               f"{elapsed:.1f}s < 10s")


# ---------------------------------------------------------------------------
# Criterion 9: end-to-end localization of injected amplitude anomalies.


def test_criterion_09_anomaly_localization(tmp_path):
    start = time.monotonic()
    corpus = tmp_path / "corpus.csv"
    report_path = tmp_path / "report.json"
    window_start, window_end = 0.55, 0.75

    assert cli.main([
        "synth", "--output", str(corpus), "--seed", "11",
        "--subjects-per-cohort", "10", "--cycles-per-subject", "3",
        "--noise-level", "0.002", "--anomaly-side", "left",
        "--anomaly-phase", "0.55", "--anomaly-shift", "0.15",
        "--anomaly-duration", "0.20"]) == 0
    assert cli.main([
        "segment", "--input", str(corpus), "--output", str(report_path),
        "--filter-cutoff", "none", "--iterations", "150",
        "--points-per-channel", "40", "--seed", "2"]) == 0

    report = json.loads(report_path.read_text())
    controls_clean = 0
    controls = 0
    disorders_localized = 0
    disorders = 0
    for subject in report["subjects"]:
        segments = subject["anomalous_segments"]
        if subject["cohort"] == "control":
            controls += 1
            controls_clean += int(len(segments) == 0)
        else:
            disorders += 1
            best = 0.0
            for segment in segments:
                overlap = (min(segment["end_time"], window_end)
                           - max(segment["start_time"], window_start))
                best = max(best, overlap)
            disorders_localized += int(
                best >= 0.5 * (window_end - window_start))

    elapsed = time.monotonic() - start
    ok = (controls == 10 and disorders == 10
          and disorders_localized >= 0.9 * disorders
          and controls_clean >= 0.9 * controls
          and elapsed < 300.0)
    _criterion(9, "anomaly-localization", ok,
               f"disorders localized {disorders_localized}/{disorders} "
               f"(bar 90%), controls clean {controls_clean}/{controls} "
               f"(bar 90%), {elapsed:.1f}s < 300s")


# ---------------------------------------------------------------------------
# Criterion 10: DTW against exhaustive alignment enumeration.


def test_criterion_10_dtw_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(200):
        a = rng.normal(0.0, 2.0, int(rng.integers(1, 7)))
        b = rng.normal(0.0, 2.0, int(rng.integers(1, 7)))
        reference = oracles.dtw_enumerate(a, b)
        worst = max(worst, abs(metrics.dtw(a, b) - reference)
                    / max(reference, 1e-12))

    self_zero = all(
        metrics.dtw(seq, seq) == 0.0
        for seq in (rng.normal(0.0, 2.0, int(rng.integers(1, 30)))
                    for _ in range(100)))
    elapsed = time.monotonic() - start
    ok = worst < 1e-12 and self_zero and elapsed < 10.0
    _criterion(10, "dtw-exactness", ok,
               f"200 pairs vs enumeration, worst rel err {worst:.3e} "
               f"<= 1e-12, dtw(a,a)==0 on 100 seqs: {self_zero}, "
               f"{elapsed:.1f}s < 10s")


# ---------------------------------------------------------------------------
# Criterion 11: determinism of the whole pipeline and file round-trips.


def _run_small_pipeline(root) -> list:
    corpus = root / "corpus.csv"
    models = root / "models"
    report = root / "report.json"
    evaldir = root / "eval"
    common = ("--grid-points", "40", "--seed", "5")
    assert cli.main(["synth", "--output", str(corpus),
                     "--subjects-per-cohort", "1",
                     "--cycles-per-subject", "2", "--seed", "5"]) == 0
    assert cli.main(["fit", "--input", str(corpus), "--output", str(models),
                     "--scope", "subject", "--iterations", "5",
                     "--points-per-channel", "12", *common]) == 0
    assert cli.main(["segment", "--input", str(corpus), "--output",
                     str(report), "--iterations", "5",
                     "--points-per-channel", "12", "--em-iterations", "5",
                     *common]) == 0
    assert cli.main(["evaluate", "--input", str(corpus), "--output",
                     str(evaldir), "--iterations", "5",
                     "--points-per-channel", "12", *common]) == 0
    return [corpus, models / "C01.mogp", models / "D01.mogp",
            models / "C01.fitlog.csv", report,
            evaldir / "split_C01.metrics", evaldir / "split_D01.metrics",
            evaldir / "aggregate.metrics"]


def test_criterion_11_determinism_and_round_trip(tmp_path):
    start = time.monotonic()
    first = tmp_path / "first"
    second = tmp_path / "second"
    first.mkdir()
    second.mkdir()
    artifacts_first = _run_small_pipeline(first)
    artifacts_second = _run_small_pipeline(second)
    identical = sum(a.read_bytes() == b.read_bytes()
                    for a, b in zip(artifacts_first, artifacts_second))

    model_path = first / "models" / "C01.mogp"
    resaved = tmp_path / "resaved.mogp"
    mogp.save_model(mogp.load_model(model_path), resaved)
    mogp_round_trip = resaved.read_bytes() == model_path.read_bytes()

    rng = np.random.default_rng(1111)
    sequences = [hmm.ObservationSequence(steps=rng.normal(0.0, 1.0, (50, 2)))
                 for _ in range(3)]
    init = hmm.init_emissions_from_data(hmm.default_model(), sequences)
    em = hmm.BaumWelchConfig(max_iterations=3, tol=1e-12)
    fitted, refitted = (hmm.baum_welch_fit(init, sequences, em)
                        for _ in range(2))
    hmm_refit = (np.array_equal(fitted.state_means, refitted.state_means)
                 and np.array_equal(fitted.shared_covariance,
                                    refitted.shared_covariance))

    elapsed = time.monotonic() - start
    ok = (identical == len(artifacts_first) and mogp_round_trip
          and hmm_refit and elapsed < 120.0)
    _criterion(11, "determinism-roundtrip", ok,
               f"{identical}/{len(artifacts_first)} artifacts byte-identical "
               f"across reruns, mogp round-trip {mogp_round_trip}, "
               f"hmm refit identical {hmm_refit}, {elapsed:.1f}s < 120s")
