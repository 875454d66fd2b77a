from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gaitmogp import metrics
from gaitmogp.errors import ValidationError
from gaitmogp.metrics import (
    compute_report,
    dtw,
    mae,
    r_squared,
)

import oracles

short_series = arrays(np.float64, st.integers(min_value=1, max_value=6),
                      elements=st.floats(-50, 50))
# Few distinct values, so that the three predecessors of a cell often tie.
tied_series = arrays(np.float64, st.integers(min_value=1, max_value=60),
                     elements=st.sampled_from([-1.5, 0.0, 0.25, 1.0, 2.0]))


class TestMae:
    def test_hand_value(self):
        assert mae([1.0, 2.0, 3.0], [2.0, 2.0, 5.0]) == pytest.approx(1.0)

    def test_zero_for_identical_inputs(self):
        values = np.linspace(-3.0, 3.0, 11)
        assert mae(values, values) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="length mismatch"):
            mae([1.0], [1.0, 2.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="finite"):
            mae([np.nan], [1.0])


class TestRSquared:
    def test_perfect_prediction_scores_one(self):
        truth = np.array([1.0, 2.0, 4.0, 8.0])
        assert r_squared(truth, truth) == 1.0

    def test_hand_value(self):
        truth = np.array([1.0, 2.0, 3.0])
        pred = np.array([1.0, 2.0, 4.0])
        # SS_res = 1, SS_tot = 2.
        assert r_squared(pred, truth) == pytest.approx(0.5)

    def test_mean_prediction_scores_zero(self):
        truth = np.array([1.0, 2.0, 3.0, 4.0])
        pred = np.full(4, truth.mean())
        assert r_squared(pred, truth) == pytest.approx(0.0)

    def test_constant_truth_is_undefined(self):
        with pytest.raises(ValidationError, match="constant"):
            r_squared([1.0, 2.0], [3.0, 3.0])

    def test_requires_two_points(self):
        with pytest.raises(ValidationError, match="at least 2"):
            r_squared([1.0], [1.0])


class TestDtw:
    def test_hand_values(self):
        assert dtw([1.0, 3.0, 4.0, 2.0], [1.0, 2.0, 4.0]) == pytest.approx(3.0)
        assert dtw([0.0, 1.0, 2.0], [0.0, 2.0]) == pytest.approx(1.0)

    def test_matches_path_enumeration(self):
        rng = np.random.default_rng(50)
        for _ in range(40):
            a = rng.normal(0.0, 2.0, size=int(rng.integers(1, 7)))
            b = rng.normal(0.0, 2.0, size=int(rng.integers(1, 7)))
            assert dtw(a, b) == pytest.approx(oracles.dtw_enumerate(a, b),
                                              rel=1e-12, abs=1e-12)

    @given(short_series)
    @settings(max_examples=50, deadline=None)
    def test_self_distance_is_zero(self, a):
        assert dtw(a, a) == 0.0

    @given(short_series, short_series)
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_non_negative(self, a, b):
        forward = dtw(a, b)
        assert forward >= 0.0
        assert forward == dtw(b, a)

    def test_handles_unequal_lengths(self):
        assert dtw([0.0], [5.0, 5.0, 5.0]) == pytest.approx(15.0)

    @given(tied_series, tied_series)
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_recurrence(self, a, b):
        assert dtw(a, b) == oracles.dtw_recurrence(a, b)
        assert dtw(b, a) == oracles.dtw_recurrence(b, a)

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 60), (60, 1), (400, 400),
                                      (1, 2000), (2000, 1)])
    def test_bit_identical_to_recurrence_on_edge_shapes(self, n, m):
        rng = np.random.default_rng(n * 1000 + m)
        a = rng.normal(0.0, 2.0, n)
        b = rng.normal(0.0, 2.0, m)
        assert dtw(a, b) == oracles.dtw_recurrence(a, b)
        assert dtw(b, a) == oracles.dtw_recurrence(b, a)

    @pytest.mark.parametrize("offset", [-1, 0, 1, 2])
    @pytest.mark.parametrize("n", [1, 3, 100, 400])
    def test_bit_identical_to_recurrence_across_block_boundaries(self, n,
                                                                 offset):
        # n + m - 1 diagonals around a multiple of the diagonals in a cost
        # block. Diagonal 0 comes before the first block, so offset 1 is
        # the one that fills the last block exactly.
        rows = metrics._DTW_BLOCK_CELLS // n
        blocks = max(2, -(-2 * n // rows))
        m = rows * blocks + offset - n + 1
        rng = np.random.default_rng(n * 10 + offset + 1)
        a, b = rng.normal(0.0, 2.0, n), rng.normal(0.0, 2.0, m)
        assert dtw(a, b) == oracles.dtw_recurrence(a, b)
        assert dtw(b, a) == oracles.dtw_recurrence(b, a)
        tied_a = rng.choice([-1.5, 0.0, 0.25, 1.0, 2.0], n)
        tied_b = rng.choice([-1.5, 0.0, 0.25, 1.0, 2.0], m)
        assert dtw(tied_a, tied_b) == oracles.dtw_recurrence(tied_a, tied_b)
        assert dtw(tied_b, tied_a) == oracles.dtw_recurrence(tied_b, tied_a)

    @pytest.mark.parametrize("cells", [1, 7, 64])
    @given(tied_series, tied_series)
    @settings(max_examples=30, deadline=None)
    def test_bit_identical_to_recurrence_with_small_blocks(self, cells, a,
                                                           b):
        # One diagonal per block, even where it holds more cells than the
        # block size, and a few diagonals per block.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "_DTW_BLOCK_CELLS", cells)
            assert dtw(a, b) == oracles.dtw_recurrence(a, b)
            assert dtw(b, a) == oracles.dtw_recurrence(b, a)

    def test_memory_is_linear_in_the_lengths(self):
        rng = np.random.default_rng(52)
        a, b = rng.normal(size=2000), rng.normal(size=1500)
        tracemalloc.start()
        try:
            dtw(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A full n x m table of floats would be 23 MiB.
        assert peak < 1 << 20


@pytest.mark.parametrize("function, first, second", [
    (dtw, "a", "b"), (mae, "pred", "truth"), (r_squared, "pred", "truth")])
def test_two_dimensional_input_is_rejected(function, first, second):
    with pytest.raises(ValidationError,
                       match=f"{first} must be one-dimensional"):
        function([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValidationError,
                       match=f"{second} must be one-dimensional"):
        function([1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0, 4.0]])


def _row_dtws(pred, truth) -> np.ndarray:
    return np.array([dtw(p, t) for p, t in zip(pred, truth)])


class TestReport:
    NAMES = ("a", "b", "c")

    @staticmethod
    def _example():
        rng = np.random.default_rng(51)
        truth = rng.normal(size=(3, 20))
        pred = truth + 0.1 * rng.normal(size=(3, 20))
        return pred, truth

    def _report(self, pred, truth):
        return compute_report(pred, truth, self.NAMES,
                              _row_dtws(pred, truth))

    def test_compute_report_aggregates(self):
        pred, truth = self._example()
        report = self._report(pred, truth)
        assert report["mae"] == pytest.approx(mae(pred.ravel(), truth.ravel()))
        assert report["r_squared"] == pytest.approx(
            r_squared(pred.ravel(), truth.ravel()))
        assert report["adtw"] == pytest.approx(
            float(np.mean([report[f"dtw.{n}"] for n in self.NAMES])))
        for i, name in enumerate(self.NAMES):
            assert report[f"mae.{name}"] == pytest.approx(
                mae(pred[i], truth[i]))
            assert report[f"r_squared.{name}"] == pytest.approx(
                r_squared(pred[i], truth[i]))

    def test_rescaled_dtw_matches_dtw_in_raw_units(self):
        # evaluate reports raw DTWs as channel std x normalized DTW.
        pred, truth = self._example()
        stds = np.array([0.3, 2.5, 17.0])[:, None]
        means = np.array([-1.0, 0.2, 40.0])[:, None]
        normalized = self._report(pred, truth)
        raw = self._report(pred * stds + means, truth * stds + means)
        rescaled = compute_report(
            pred * stds + means, truth * stds + means, self.NAMES,
            per_output_dtw=stds[:, 0] * [normalized[f"dtw.{n}"]
                                         for n in self.NAMES])
        for name in self.NAMES:
            assert rescaled[f"dtw.{name}"] == pytest.approx(
                raw[f"dtw.{name}"], rel=1e-12)
        assert rescaled["mae"] == raw["mae"]
        assert rescaled["r_squared"] == raw["r_squared"]

    def test_keys_follow_the_evaluate_document_order(self):
        pred, truth = self._example()
        report = self._report(pred, truth)
        assert list(report) == [
            "mae", "r_squared", "adtw",
            *(f"{metric}.{name}" for name in self.NAMES
              for metric in ("mae", "r_squared", "dtw"))]
        assert all(type(value) is float for value in report.values())
        assert report["dtw.c"] == dtw(pred[2], truth[2])

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="shape mismatch"):
            compute_report(np.zeros((2, 5)), np.zeros((3, 5)), ("a", "b"),
                           np.zeros(2))
        with pytest.raises(ValidationError, match=r"\(M, Q\) arrays"):
            compute_report(np.zeros((2, 5, 1)), np.ones((2, 5, 1)),
                           ("a", "b"), np.zeros(2))

    def test_output_names_must_match(self):
        with pytest.raises(ValidationError, match="output_names"):
            compute_report(np.zeros((2, 5)), np.ones((2, 5)),
                           output_names=("only_one",),
                           per_output_dtw=np.ones(2))

    def test_invariants_are_enforced(self):
        # One DTW >= 0 per row.
        for per_output_dtw in ([0.0, -1.0], [0.0, np.nan], [0.0],
                               [[0.0, 0.0]]):
            with pytest.raises(ValidationError, match="per_output_dtw"):
                compute_report(np.zeros((2, 5)), np.ones((2, 5)),
                               ("a", "b"), per_output_dtw)

    @given(data=st.data(), rows=st.integers(1, 6), length=st.integers(2, 60))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_per_row_functions(self, data, rows, length):
        # Rows at scales 1e-6..1e6 with offsets up to 1e4; the seeded
        # draws keep every truth row non-constant.
        seed = data.draw(st.integers(0, 2**32 - 1))
        scales = 10.0 ** np.array(data.draw(st.lists(
            st.integers(-6, 6), min_size=rows, max_size=rows)))[:, None]
        offsets = np.array(data.draw(st.lists(
            st.floats(-1e4, 1e4), min_size=rows, max_size=rows)))[:, None]
        fortran = data.draw(st.booleans())
        rng = np.random.default_rng(seed)
        truth = scales * rng.normal(size=(rows, length)) + offsets
        pred = truth + scales * rng.normal(size=(rows, length))
        if fortran:
            pred, truth = np.asfortranarray(pred), np.asfortranarray(truth)
        per_dtw = rng.uniform(0.0, 10.0, size=rows)
        names = [f"out{i}" for i in range(rows)]
        report = compute_report(pred, truth, names, per_dtw)
        assert report["mae"] == mae(pred.ravel(), truth.ravel())
        assert report["r_squared"] == r_squared(pred.ravel(), truth.ravel())
        assert report["adtw"] == float(np.mean(per_dtw))
        for i, name in enumerate(names):
            assert report[f"mae.{name}"] == mae(pred[i], truth[i])
            assert report[f"r_squared.{name}"] == r_squared(pred[i], truth[i])
            assert report[f"dtw.{name}"] == per_dtw[i]

    @pytest.mark.parametrize("case", [
        "one_column", "one_value", "constant_row", "nan_pred", "inf_truth"])
    def test_raises_the_per_row_texts(self, case):
        pred = np.arange(10.0).reshape(2, 5)
        truth = pred + np.array([0.5, -0.25, 0.0, 1.0, 2.0])
        if case == "one_column":
            pred, truth = pred[:, :1], truth[:, :1]
        elif case == "one_value":
            pred, truth = pred[:1, :1], truth[:1, :1]
        elif case == "constant_row":
            truth[1] = 3.0
        elif case == "nan_pred":
            pred[1, 2] = np.nan
        else:
            truth[0, 3] = np.inf
        row = 0 if case in ("one_value", "inf_truth") else 1
        with pytest.raises(ValidationError) as expected:
            r_squared(pred[row], truth[row])
        with pytest.raises(ValidationError) as raised:
            compute_report(pred, truth, ("a", "b")[:len(pred)],
                           np.zeros(len(pred)))
        assert str(raised.value) == str(expected.value)
