"""Reference code for the benchmark's output checks.

Written independently of ``gaitmogp`` with numpy and scipy only, and
never importing it, so agreement with the program's outputs means
something:

- the composite ICM kernel read from a saved ``mogp-v1`` file, with the
  dense log marginal likelihood (``slogdet`` and a dense solve, no
  Cholesky) and the dense posterior;
- a log-space Viterbi decoder and the score of a given state path;
- DTW by an anti-diagonal wavefront over a padded cost table. Each cell
  takes ``cost + min(up, left, diagonal)`` exactly as the textbook
  recurrence does, so on the same inputs it agrees to the last bit with
  any implementation that performs the same additions.
"""

from __future__ import annotations

import math

import numpy as np

# Floor on every positive hyperparameter after exponentiation.
PARAM_FLOOR = 1e-10
LOG_2PI = math.log(2.0 * math.pi)


def _positive(log_value):
    return np.maximum(np.exp(np.asarray(log_value, dtype=float)), PARAM_FLOOR)


def read_mogp(path) -> dict:
    """Parameters and training data of a ``mogp-v1`` document."""
    doc = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip() and not line.startswith("#"):
                key, _, value = line.partition("=")
                doc[key.strip()] = value.strip()
    if doc.get("schema") != "mogp-v1":
        raise ValueError(f"{path}: not a mogp-v1 document")

    def floats(key):
        return np.array([float(x) for x in doc[key].split(",")])

    num_outputs, rank = int(doc["num_outputs"]), int(doc["rank"])
    return {
        "periodic": (float(doc["kernel.periodic.log_variance"]),
                     float(doc["kernel.periodic.log_lengthscale"]),
                     float(doc["kernel.periodic.log_period"])),
        "se": (float(doc["kernel.se.log_variance"]),
               float(doc["kernel.se.log_lengthscale"])),
        "matern32": (float(doc["kernel.matern32.log_variance"]),
                     float(doc["kernel.matern32.log_lengthscale"])),
        "w": floats("coreg.w").reshape(num_outputs, rank),
        "log_kappa": floats("coreg.log_kappa"),
        "means": floats("means"),
        "log_noise_variance": float(doc["log_noise_variance"]),
        "times": floats("training.times"),
        "outputs": floats("training.outputs").astype(int),
        "values": floats("training.values"),
    }


def temporal_kernel(model: dict, t1, t2) -> np.ndarray:
    """Periodic + squared-exponential + Matern-3/2 over all pairs."""
    lag = np.abs(np.asarray(t1, dtype=float)[:, None]
                 - np.asarray(t2, dtype=float)[None, :])
    p_var, p_len, p_period = _positive(model["periodic"])
    s_var, s_len = _positive(model["se"])
    m_var, m_len = _positive(model["matern32"])
    periodic = p_var * np.exp(
        -2.0 * np.sin(np.pi * lag / p_period) ** 2 / p_len ** 2)
    squared_exp = s_var * np.exp(-0.5 * (lag / s_len) ** 2)
    scaled = math.sqrt(3.0) * lag / m_len
    matern = m_var * (1.0 + scaled) * np.exp(-scaled)
    return periodic + squared_exp + matern


def coregionalization(model: dict) -> np.ndarray:
    """B = W W^T + diag(kappa)."""
    return model["w"] @ model["w"].T + np.diag(_positive(model["log_kappa"]))


def _training_covariance(model: dict) -> np.ndarray:
    times, outputs = model["times"], model["outputs"]
    b = coregionalization(model)
    cov = b[np.ix_(outputs, outputs)] * temporal_kernel(model, times, times)
    return cov + _positive(model["log_noise_variance"]) * np.eye(times.size)


def dense_lml(model: dict) -> float:
    """Exact log marginal likelihood of the training data."""
    cov = _training_covariance(model)
    centered = model["values"] - model["means"][model["outputs"]]
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise ValueError("training covariance is not positive definite")
    alpha = np.linalg.solve(cov, centered)
    return float(-0.5 * centered @ alpha - 0.5 * logdet
                 - 0.5 * centered.size * LOG_2PI)


def dense_posterior(model: dict, query) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and std (noise included), one row per output."""
    query = np.asarray(query, dtype=float)
    cov = _training_covariance(model)
    centered = model["values"] - model["means"][model["outputs"]]
    b = coregionalization(model)
    cross = temporal_kernel(model, query, model["times"])
    prior = float(np.sum(_positive(
        [model["periodic"][0], model["se"][0], model["matern32"][0]])))
    noise = float(_positive(model["log_noise_variance"]))
    num_outputs = b.shape[0]
    mean = np.empty((num_outputs, query.size))
    std = np.empty((num_outputs, query.size))
    for m in range(num_outputs):
        k_star = b[m, model["outputs"]][None, :] * cross
        solved = np.linalg.solve(cov, k_star.T)
        mean[m] = model["means"][m] + k_star @ np.linalg.solve(cov, centered)
        var = b[m, m] * prior + noise - np.sum(k_star.T * solved, axis=0)
        std[m] = np.sqrt(np.maximum(var, 0.0))
    return mean, std


def gaussian_log_emissions(means, covariance, steps) -> np.ndarray:
    """(T, S) log N(o_t; mu_s, Sigma) with one shared covariance."""
    means = np.asarray(means, dtype=float)
    steps = np.asarray(steps, dtype=float)
    precision = np.linalg.inv(covariance)
    _, logdet = np.linalg.slogdet(covariance)
    diff = steps[:, None, :] - means[None, :, :]
    maha = np.einsum("tsi,ij,tsj->ts", diff, precision, diff)
    return -0.5 * (maha + logdet + steps.shape[1] * LOG_2PI)


def _logs(initial, transitions):
    with np.errstate(divide="ignore"):
        return (np.log(np.asarray(initial, dtype=float)),
                np.log(np.asarray(transitions, dtype=float)))


def path_score(initial, transitions, log_emissions, path) -> float:
    """log p(path, observations) for a 0-based state path."""
    log_pi, log_a = _logs(initial, transitions)
    path = np.asarray(path, dtype=int)
    steps = np.arange(path.size)
    return float(log_pi[path[0]] + np.sum(log_a[path[:-1], path[1:]])
                 + np.sum(log_emissions[steps, path]))


def viterbi(initial, transitions, log_emissions) -> tuple[float, np.ndarray]:
    """Best log joint score and one 0-based path that attains it."""
    log_pi, log_a = _logs(initial, transitions)
    length, num_states = log_emissions.shape
    score = log_pi + log_emissions[0]
    back = np.zeros((length, num_states), dtype=int)
    for t in range(1, length):
        candidates = score[:, None] + log_a
        back[t] = np.argmax(candidates, axis=0)
        score = candidates.max(axis=0) + log_emissions[t]
    path = np.empty(length, dtype=int)
    path[-1] = int(np.argmax(score))
    for t in range(length - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return float(score.max()), path


def dtw(a, b) -> float:
    """DTW distance with |a_i - b_j| local cost, no band."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    n, m = a.size, b.size
    table = np.full((n + 1, m + 1), np.inf)
    table[0, 0] = 0.0
    for diagonal in range(2, n + m + 1):
        i = np.arange(max(1, diagonal - m), min(n, diagonal - 1) + 1)
        j = diagonal - i
        best = np.minimum(np.minimum(table[i - 1, j], table[i, j - 1]),
                          table[i - 1, j - 1])
        table[i, j] = np.abs(a[i - 1] - b[j - 1]) + best
    return float(table[n, m])
