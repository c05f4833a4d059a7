"""Loss and metric tests with hand-computed oracles."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import loss_weighted
from hystkit.autodiff import Graph, Tensor, finite_diff_check
from hystkit.metrics import (
    MetricError,
    MetricReport,
    batch_mean,
    loss_rmse,
    mae,
    mse,
    nere,
    percentile_95,
    sre,
    wce,
    weighted_loss_rows,
)


class TestLossRmse:
    def test_perfect_prediction(self):
        h = np.array([0.2, -0.1, 0.4])
        b = np.array([0.0, 0.1, 0.2, 0.3])
        assert float(loss_rmse(h, h, b).data) == 0.0

    def test_constant_flux_zeroes_loss(self):
        h_true = np.array([0.2, -0.1, 0.4])
        h_pred = np.array([1.2, 0.9, -0.6])
        b = np.full(4, 0.37)
        assert float(loss_rmse(h_true, h_pred, b).data) == 0.0

    def test_three_point_hand_case(self):
        # errors (1,1,1), |dB| = (0.5,0.5,0.5): sqrt(3*0.5/3) = sqrt(0.5)
        h_true = np.array([1.0, 1.0, 1.0])
        h_pred = np.array([0.0, 0.0, 0.0])
        b = np.array([0.0, 0.5, 1.0, 1.5])
        value = float(loss_rmse(h_true, h_pred, b).data)
        assert value == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert value == pytest.approx(0.7071, abs=5e-5)

    def test_length_mismatch(self):
        with pytest.raises(MetricError):
            loss_rmse(np.zeros(3), np.zeros(4), np.zeros(5))

    def test_pairing_not_ordering(self):
        rng = np.random.default_rng(0)
        h_true = rng.standard_normal(6)
        h_pred = rng.standard_normal(6)
        b = rng.standard_normal(7)
        base = float(loss_rmse(h_true, h_pred, b).data)
        perm = rng.permutation(6)
        w = np.abs(np.diff(b))
        # identical multiset of (error, weight) pairs gives the same loss
        manual = np.sqrt(np.sum(((h_true - h_pred) ** 2 * w)[perm]) / 6)
        assert base == pytest.approx(manual, rel=1e-12)

    def test_differentiable(self):
        rng = np.random.default_rng(1)
        h_true = rng.standard_normal(5)
        b = rng.standard_normal(6)
        graph = Graph(lambda p: loss_rmse(h_true, p, b), 1)
        assert finite_diff_check(graph, [rng.standard_normal(5)]) < 1e-6


class TestLossWeighted:
    def test_full_scale_sequence_is_identity(self):
        h_full = np.full(10, 100.0)
        out = loss_weighted(0.37, 100.0, h_full)
        assert float(out.data) == pytest.approx(0.37, rel=1e-12)

    def test_halving_h_doubles_loss(self):
        h_full = np.array([10.0, -20.0, 15.0])
        a = float(loss_weighted(1.0, 100.0, h_full).data)
        b = float(loss_weighted(1.0, 100.0, h_full / 2).data)
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_hand_factor_two(self):
        assert float(loss_weighted(0.25, 100.0, np.full(4, 50.0)).data) == pytest.approx(0.5, rel=1e-12)

    def test_zero_sequence(self):
        with pytest.raises(MetricError):
            loss_weighted(1.0, 100.0, np.zeros(5))


class TestSre:
    def test_exact(self):
        h = np.array([3.0, -4.0, 5.0])
        assert sre(h, h) == 0.0
        assert sre(2 * h, h) == pytest.approx(1.0, abs=1e-15)
        assert sre(np.zeros(3), h) == pytest.approx(1.0, abs=1e-15)

    def test_all_zero_reference(self):
        with pytest.raises(MetricError):
            sre(np.ones(3), np.zeros(3))

    @given(st.floats(0.01, 100.0), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, lam, seed):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal(16) + 2.0
        p = h + rng.standard_normal(16)
        assert sre(lam * p, lam * h) == pytest.approx(sre(p, h), rel=1e-9)


class TestNere:
    def test_perfect(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal(8)
        b = rng.standard_normal(9)
        h_full = np.concatenate([rng.standard_normal(4), h])
        b_full = np.concatenate([rng.standard_normal(4), b[1:]])
        assert nere(h, h, b, h_full, b_full) == 0.0

    def test_constant_offset_closed_window_telescopes(self):
        # closed flux window: B_{k1-1} == B_{k2}
        n = 12
        t = np.linspace(0, 2 * np.pi, n + 1)
        b_win = 0.3 * np.sin(t)  # b_win[0] == b_win[-1] (both 0 up to fp)
        rng = np.random.default_rng(3)
        h_true = rng.standard_normal(n)
        h_pred = h_true + 7.3
        h_full = np.concatenate([np.ones(3), h_true])
        b_full = np.concatenate([0.1 * np.ones(3), b_win[1:]])
        value = nere(h_pred, h_true, b_win, h_full, b_full)
        assert abs(value) < 1e-10

    def test_sign_overprediction_on_rising_flux(self):
        h_true = np.array([1.0, 2.0])
        h_pred = h_true + 0.5
        b_win = np.array([0.0, 0.1, 0.2])  # rising
        h_full = np.array([0.5, 1.0, 2.0])
        b_full = np.array([0.0, 0.1, 0.2])
        assert nere(h_pred, h_true, b_win, h_full, b_full) > 0

    def test_linear_in_error(self):
        rng = np.random.default_rng(4)
        h_true = rng.standard_normal(8)
        err = rng.standard_normal(8)
        b_win = rng.standard_normal(9)
        h_full, b_full = h_true, b_win[1:]
        v1 = nere(h_true + err, h_true, b_win, h_full, b_full)
        v2 = nere(h_true + 2 * err, h_true, b_win, h_full, b_full)
        assert v2 == pytest.approx(2 * v1, rel=1e-9)

    def test_zero_loop_energy(self):
        with pytest.raises(MetricError):
            nere(np.ones(2), np.ones(2), np.array([0.0, 0.1, 0.2]),
                 np.zeros(3), np.array([1.0, 1.0, 1.0]))


class TestPointwise:
    def test_perfect(self):
        h = np.array([0.1, 0.2])
        assert mse(h, h) == 0.0
        assert mae(h, h) == 0.0
        assert wce(h, h) == 0.0

    def test_hand_case(self):
        h_true = np.zeros(2)
        h_pred = np.array([0.1, -0.3])
        assert mse(h_pred, h_true) == pytest.approx(0.05, abs=1e-15)
        assert mae(h_pred, h_true) == pytest.approx(0.2, abs=1e-15)
        assert wce(h_pred, h_true) == pytest.approx(0.3, abs=1e-15)

    @given(st.integers(0, 500), st.integers(2, 40))
    @settings(max_examples=40, deadline=None)
    def test_wce_ge_mae(self, seed, n):
        rng = np.random.default_rng(seed)
        p, t = rng.standard_normal(n), rng.standard_normal(n)
        assert wce(p, t) >= mae(p, t)

    def test_empty(self):
        with pytest.raises(MetricError):
            mse(np.array([]), np.array([]))


class TestAggregate:
    def test_mean_and_p95_match_sort_oracle(self):
        rng = np.random.default_rng(5)
        report = MetricReport()
        values = rng.uniform(0, 1, 40)
        for i, v in enumerate(values):
            report.add(i, sre=v, nere=v - 0.5, mse=v, mae=v, wce=v + 1)
        agg = report.aggregate()
        assert agg["avg_sre"] == pytest.approx(values.mean(), rel=1e-12)
        ordered = np.sort(values)
        assert agg["p95_sre"] == ordered[int(np.ceil(0.95 * 40)) - 1]
        # nere aggregates percentile of magnitudes
        assert agg["p95_nere"] == np.sort(np.abs(values - 0.5))[int(np.ceil(0.95 * 40)) - 1]

    def test_nearest_rank_small(self):
        assert percentile_95([3.0, 1.0, 2.0]) == 3.0
        assert percentile_95([1.0]) == 1.0

    def test_report_serialization(self, tmp_path):
        report = MetricReport()
        report.add(0, sre=0.1, nere=0.01, mse=0.001, mae=0.01, wce=0.05)
        report.write_csv(tmp_path / "r.csv")
        report.write_json(tmp_path / "r.json")
        text = (tmp_path / "r.csv").read_text().splitlines()
        assert text[0] == "index,sre,nere,mse,mae,wce"
        assert "aggregate" in (tmp_path / "r.json").read_text()


class TestBatchObjective:
    def test_rows_then_mean(self):
        rng = np.random.default_rng(6)
        h_true = rng.standard_normal((3, 5))
        h_pred = rng.standard_normal((3, 5))
        b_prev = rng.standard_normal((3, 6))
        rows = weighted_loss_rows(h_true, Tensor(h_pred), b_prev, 100.0, np.full(3, 50.0))
        assert rows.data.shape == (3,)
        for i in range(3):
            single = loss_weighted(loss_rmse(h_true[i], h_pred[i], b_prev[i]), 100.0,
                                   np.full(4, 50.0))
            assert rows.data[i] == pytest.approx(float(single.data), rel=1e-12)
        mean = batch_mean(rows)
        assert float(mean.data) == pytest.approx(rows.data.mean(), rel=1e-12)
