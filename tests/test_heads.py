"""Head tests: injection warmup, per-archetype readouts, rollout oracles."""
import tracemalloc

import numpy as np
import pytest

from conftest import digest
from hystkit.autodiff import Tensor, concat
from hystkit.cells import GruParams, LstmParams, gru_step, lstm_step
from hystkit.dataset import DataError, MeasuredSequence, NormConstants
from hystkit.heads import (
    ARCHETYPES,
    GRID_FIRST,
    HeadError,
    RolloutInputs,
    WarmupError,
    _inject,
    _inject_values,
    gru_v_readout,
    init_head_params,
    predict_window,
    rollout,
    warmup,
    wrap_params,
)
from hystkit.training import TrainConfig


def make_inputs(d_x=4, length=8, w=3, rows=1, seed=0, target=None, drive=None):
    rng = np.random.default_rng(seed)
    drive = rng.uniform(-0.8, 0.8, (rows, length)) if drive is None else np.atleast_2d(drive)
    target = rng.uniform(-0.8, 0.8, (rows, w)) if target is None else np.atleast_2d(target)
    x = rng.uniform(-0.5, 0.5, (rows, length, d_x))
    return RolloutInputs(
        x=x, drive_norm=drive, target_warm_norm=target,
        drive_raw=0.3 * drive, target_warm_raw=100.0 * target, target_max=100.0)


def zero_params(config, seed=0):
    arrays = init_head_params(config, seed)
    return {k: np.zeros_like(v) for k, v in arrays.items()}


def wrapped(arrays):
    return wrap_params(arrays, requires_grad=False)


class TestWarmupDirect:
    def test_degenerate_single_step(self):
        config = TrainConfig("gru-p", d_g=5, warmup_length=1)
        inputs = make_inputs(w=1, target=[[0.37]])
        g, c = warmup(config, wrapped(init_head_params(config, 3)), inputs)
        np.testing.assert_array_equal(g.data, [[0.37, 0, 0, 0, 0]])
        assert c is None

    def test_zero_weights_two_step(self):
        config = TrainConfig("gru-p", d_g=4, warmup_length=2)
        inputs = make_inputs(w=2, target=[[0.8, -0.5]])
        g, _ = warmup(config, wrapped(zero_params(config)), inputs)
        np.testing.assert_array_equal(g.data, [[-0.5, 0, 0, 0]])

    def test_three_step_matches_manual_composition(self):
        config = TrainConfig("gru-p", d_g=4, warmup_length=3)
        arrays = init_head_params(config, 7)
        inputs = make_inputs(w=3, seed=5)
        g, _ = warmup(config, wrapped(arrays), inputs)

        p = GruParams(**{k: Tensor(v) for k, v in arrays.items()})
        target = inputs.target_warm_norm
        state = Tensor(np.concatenate([target[:, 0:1], np.zeros((1, 3))], axis=1))
        for t in (1, 2):
            state = gru_step(Tensor(inputs.x[:, t, :]), state, p)
            state = Tensor(np.concatenate([target[:, t:t + 1], state.data[:, 1:]], axis=1))
        np.testing.assert_array_equal(g.data, state.data)

    def test_injection_preserves_other_elements(self):
        rng = np.random.default_rng(11)
        state = Tensor(rng.standard_normal((2, 6)))
        out = _inject(state, np.array([[9.0], [8.0]]))
        assert out.data[:, 1:].tobytes() == state.data[:, 1:].tobytes()
        np.testing.assert_array_equal(out.data[:, 0], [9.0, 8.0])

    def test_empty_warmup_rejected(self):
        for archetype in ARCHETYPES:
            config = TrainConfig(archetype, d_g=8)
            with pytest.raises(WarmupError, match="^empty warmup window$"):
                rollout(config, wrapped(zero_params(config)), make_inputs(w=0))


class TestGruP:
    def test_zero_weight_decay(self):
        config = TrainConfig("gru-p", d_g=5, warmup_length=1)
        inputs = make_inputs(w=1, length=3, target=[[0.4]])
        pred = rollout(config, wrapped(zero_params(config)), inputs)
        assert pred.data[0, 0] == pytest.approx(0.2, abs=1e-15)
        assert pred.data[0, 1] == pytest.approx(0.1, abs=1e-15)

    def test_denormalization(self):
        config = TrainConfig("gru-p", d_g=5, warmup_length=1)
        inputs = make_inputs(w=1, length=2, target=[[0.4]])
        pred = rollout(config, wrapped(zero_params(config)), inputs)
        assert pred.data[0, 0] * inputs.target_max == pytest.approx(20.0, abs=1e-12)

    def test_five_step_rollout_matches_hand_unrolled(self):
        config = TrainConfig("gru-p", d_g=4, warmup_length=3)
        arrays = init_head_params(config, 9)
        inputs = make_inputs(w=3, length=8, seed=13)
        pred = rollout(config, wrapped(arrays), inputs)

        p = GruParams(**{k: Tensor(v) for k, v in arrays.items()})
        g, _ = warmup(config, wrapped(arrays), inputs)
        outs = []
        for t in range(3, 8):
            g = gru_step(Tensor(inputs.x[:, t, :]), g, p)
            outs.append(g.data[:, 0:1])
        np.testing.assert_array_equal(pred.data, np.concatenate(outs, axis=1))

    def test_bit_reproducible(self):
        config = TrainConfig("gru-p", d_g=6, warmup_length=4)
        arrays = init_head_params(config, 1)
        inputs = make_inputs(w=4, length=12, seed=3)
        a = rollout(config, wrapped(arrays), inputs)
        b = rollout(config, wrapped(arrays), inputs)
        assert a.data.tobytes() == b.data.tobytes()


class TestGruM:
    def test_state_equal_drive_zeroes_prediction(self):
        config = TrainConfig("gru-m", d_g=4, warmup_length=1)
        # zero params, zero injected state: prediction tanh(drive - 0.5*0) ...
        # instead check the readout identity directly via a frozen state
        drive = np.full((1, 3), 0.31)
        inputs = make_inputs(w=1, length=3, target=[[0.0]], drive=drive)
        arrays = zero_params(config)
        pred = rollout(config, wrapped(arrays), inputs)
        # injected g0 = drive - atanh(0) = 0.31; zero weights halve it each step
        expect_first = np.tanh(0.31 - 0.5 * 0.31)
        assert pred.data[0, 0] == pytest.approx(expect_first, abs=1e-15)

    def test_warmup_roundtrip_with_frozen_state(self):
        config = TrainConfig("gru-m", d_g=4, warmup_length=2)
        arrays = init_head_params(config, 21)
        arrays["b_z"] = np.full(4, 50.0)  # saturated update gate freezes the state
        drive = np.array([[0.3, 0.3, 0.3]])
        target = np.array([[0.21, 0.21]])
        inputs = make_inputs(w=2, length=3, target=target, drive=drive)
        pred = rollout(config, wrapped(arrays), inputs)
        assert pred.data[0, 0] == pytest.approx(0.21, abs=1e-10)

    def test_atanh_domain_edge(self):
        config = TrainConfig("gru-m", d_g=4, warmup_length=2)
        ok = make_inputs(w=2, length=4, target=[[0.999999, 0.5]])
        vals = _inject_values(config, ok)
        assert np.all(np.isfinite(vals))
        bad = make_inputs(w=2, length=4, target=[[1.0, 0.5]])
        with pytest.raises(WarmupError, match="step 0"):
            _inject_values(config, bad)


class TestGruL:
    def test_zero_coefficient_zero_prediction(self):
        config = TrainConfig("gru-l", d_g=4, warmup_length=1)
        inputs = make_inputs(w=1, length=3, target=[[0.0]])
        pred = rollout(config, wrapped(zero_params(config)), inputs)
        np.testing.assert_array_equal(pred.data, np.zeros((1, 2)))

    def test_warmup_roundtrip_with_frozen_state(self):
        config = TrainConfig("gru-l", d_g=4, warmup_length=2)
        arrays = init_head_params(config, 22)
        arrays["b_z"] = np.full(4, 50.0)
        drive = np.array([[0.4, 0.4, 0.4]])
        target = np.array([[0.3, 0.3]])
        inputs = make_inputs(w=2, length=3, target=target, drive=drive)
        pred = rollout(config, wrapped(arrays), inputs)
        assert pred.data[0, 0] == pytest.approx(0.3, abs=1e-10)

    def test_division_guard_reports_index(self):
        config = TrainConfig("gru-l", d_g=4, warmup_length=3)
        drive = np.array([[0.4, 0.0, 0.4, 0.4]])
        inputs = make_inputs(w=3, length=4, target=[[0.1, 0.1, 0.1]], drive=drive)
        with pytest.raises(WarmupError, match="step 1"):
            _inject_values(config, inputs)


class TestLstmP:
    def test_zero_weights_first_prediction_zero(self):
        config = TrainConfig("lstm-p", d_g=4, warmup_length=1)
        inputs = make_inputs(w=1, length=3, target=[[0.4]])
        pred = rollout(config, wrapped(zero_params(config)), inputs)
        # o=0.5, c=0: prediction = 0.5*tanh(0) = 0
        np.testing.assert_array_equal(pred.data, np.zeros((1, 2)))

    def test_five_step_rollout_matches_hand_unrolled(self):
        config = TrainConfig("lstm-p", d_g=4, warmup_length=2)
        arrays = init_head_params(config, 31)
        inputs = make_inputs(w=2, length=7, seed=17)
        pred = rollout(config, wrapped(arrays), inputs)

        p = LstmParams(**{k: Tensor(v) for k, v in arrays.items()})
        target = inputs.target_warm_norm
        g = Tensor(np.concatenate([target[:, 0:1], np.zeros((1, 3))], axis=1))
        c = Tensor(np.zeros((1, 4)))
        g, c = lstm_step(Tensor(inputs.x[:, 1, :]), g, c, p)
        g = Tensor(np.concatenate([target[:, 1:2], g.data[:, 1:]], axis=1))
        outs = []
        for t in range(2, 7):
            g, c = lstm_step(Tensor(inputs.x[:, t, :]), g, c, p)
            outs.append(g.data[:, 0:1])
        np.testing.assert_array_equal(pred.data, np.concatenate(outs, axis=1))

    def test_cell_state_evolves_freely_through_warmup(self):
        config = TrainConfig("lstm-p", d_g=4, warmup_length=3)
        arrays = init_head_params(config, 32)
        inputs = make_inputs(w=3, length=5, seed=19)
        _, c = warmup(config, wrapped(arrays), inputs)
        assert not np.allclose(c.data, 0.0)


class TestGruV:
    def test_config_constraints(self):
        init_head_params(TrainConfig("gru-v", d_g=8), 0)
        init_head_params(TrainConfig("gru-v", d_g=32), 0)
        with pytest.raises(HeadError):
            init_head_params(TrainConfig("gru-v", d_g=12), 0)
        with pytest.raises(HeadError):
            init_head_params(TrainConfig("gru-v", d_g=2), 0)  # N_g would be 0

    def test_zero_grid_predicts_drive(self):
        config = TrainConfig("gru-v", d_g=8, warmup_length=2)
        inputs = make_inputs(w=2, length=5, seed=23)
        pred = rollout(config, wrapped(zero_params(config)), inputs)
        np.testing.assert_array_equal(pred.data, inputs.drive_norm[:, 2:])

    def test_single_site_readout(self):
        g = np.zeros((1, 8))
        g[0, 4] = 0.1  # one grid site's first component
        g[0, 5] = -7.0  # second component never enters the sum
        out = gru_v_readout(Tensor(g[:, GRID_FIRST]), np.array([[0.62]]))
        assert out.data[0, 0] == pytest.approx(0.52, abs=1e-15)

    def test_no_injection_during_warmup(self):
        config = TrainConfig("gru-v", d_g=8, warmup_length=3)
        arrays = init_head_params(config, 41)
        inputs_a = make_inputs(w=3, length=6, seed=29)
        inputs_b = make_inputs(w=3, length=6, seed=29)
        inputs_b.target_warm_norm = inputs_b.target_warm_norm + 0.1  # must be ignored
        a = rollout(config, wrapped(arrays), inputs_a)
        b = rollout(config, wrapped(arrays), inputs_b)
        np.testing.assert_array_equal(a.data, b.data)


class TestJaHeads:
    def test_ja_requires_raw_context(self):
        config = TrainConfig("ja", d_g=1, warmup_length=2)
        inputs = make_inputs(w=2, length=5)
        inputs.drive_raw = None
        with pytest.raises(HeadError):
            rollout(config, wrapped(init_head_params(config, 0)), inputs)

    def test_ja_rollout_starts_from_last_known(self):
        config = TrainConfig("ja", d_g=1, warmup_length=2)
        inputs = make_inputs(w=2, length=5, seed=31)
        inputs.drive_raw = np.full((1, 5), 0.2)  # constant flux: field never moves
        params = wrapped(init_head_params(config, 1))
        pred = rollout(config, params, inputs)
        h_known = inputs.target_warm_raw[0, -1]
        np.testing.assert_allclose(pred.data * inputs.target_max, h_known, rtol=1e-12)

    def test_jadp_rollout_runs_and_is_reproducible(self):
        config = TrainConfig("gru-jadp", d_g=6, warmup_length=2)
        arrays = init_head_params(config, 2)
        inputs = make_inputs(w=2, length=6, seed=37)
        a = rollout(config, wrapped(arrays), inputs)
        b = rollout(config, wrapped(arrays), inputs)
        assert a.data.tobytes() == b.data.tobytes()
        assert a.data.shape == (1, 4)

    @pytest.mark.parametrize("archetype, d_g", [("ja", 1), ("gru-jadp", 6)])
    def test_one_readout_over_the_field_columns(self, archetype, d_g):
        config = TrainConfig(archetype, d_g=d_g, warmup_length=2)
        pred = rollout(config, wrap_params(init_head_params(config, 3)),
                       make_inputs(w=2, length=7, seed=41))
        columns = pred._parents[0]
        assert columns._backward.__qualname__.startswith("concat.")
        assert len(columns._parents) == 5
        assert all(h._backward.__qualname__.startswith("ja_step_euler.")
                   for h in columns._parents)

    def test_single_precision_rejected(self):
        config = TrainConfig("gru-jadp", d_g=6, warmup_length=2)
        arrays = {k: v.astype(np.float32) for k, v in init_head_params(config, 2).items()}
        inputs = make_inputs(w=2, length=6)
        with pytest.raises(HeadError, match="double"):
            rollout(config, wrapped(arrays), inputs)


class TestRolloutLossGradient:
    def test_ten_step_rollout_loss_fd(self):
        # ten open-loop steps through warmup, rollout, and the weighted
        # objective: the whole-graph gradient stays within 1e-5 of central
        # differences
        from hystkit.metrics import batch_mean, weighted_loss_rows

        config = TrainConfig("gru-p", d_g=4, warmup_length=3)
        rng = np.random.default_rng(61)
        inputs = make_inputs(w=3, length=13, seed=61)
        target_full = rng.uniform(-0.8, 0.8, (1, 13))
        names = sorted(init_head_params(config, 0))

        def fn(*tensors):
            params = dict(zip(names, tensors))
            pred = rollout(config, params, inputs)
            rows = weighted_loss_rows(target_full[:, 3:], pred, inputs.drive_norm[:, 2:],
                                      100.0, np.full(1, 40.0))
            return batch_mean(rows)

        from hystkit.autodiff import Graph, finite_diff_check
        graph = Graph(fn, len(names))
        arrays = init_head_params(config, 62)
        assert finite_diff_check(graph, [arrays[n] for n in names]) < 1e-5


@pytest.mark.parametrize("archetype", ["gru-p", "lstm-p", "gru-v"])
def test_frozen_rollout_keeps_only_what_its_readout_reads(archetype):
    """A frozen cell rollout never holds a whole hidden trajectory, and its predictions
    are those of chained step calls."""
    rows, steps, d_g, w = 16, 400, 8, 4
    config = TrainConfig(archetype, d_g=d_g, warmup_length=w)
    params = wrapped(init_head_params(config, 5))
    inputs = make_inputs(length=w + steps, w=w, rows=rows, seed=7)
    tracemalloc.start()
    try:
        pred = rollout(config, params, inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows * steps * d_g * 8, "the rollout held a (rows, T, d_g) trajectory"

    lstm = archetype == "lstm-p"
    p = (LstmParams if lstm else GruParams)(**params)
    g, c = warmup(config, params, inputs)
    read = []
    for t in range(w, w + steps):
        if lstm:
            g, c = lstm_step(Tensor(inputs.x[:, t]), g, c, p)
        else:
            g = gru_step(Tensor(inputs.x[:, t]), g, p)
        read.append(g.data[:, GRID_FIRST] if archetype == "gru-v" else g.data[:, 0])
    read = np.stack(read, axis=1)
    want = inputs.drive_norm[:, w:] - read.sum(axis=-1) if archetype == "gru-v" else read
    assert pred.data.tobytes() == want.tobytes()


class TestPredictWindow:
    def test_full_pipeline_shapes_and_units(self):
        rng = np.random.default_rng(43)
        n = 40
        seq = MeasuredSequence(b=0.2 * np.sin(np.linspace(0, 7, n)),
                              h=30 * np.sin(np.linspace(0, 7, n) - 0.4),
                              temperature_c=25.0)
        norm = NormConstants(h_max=30.0, b_max=0.2, theta_max=70.0)
        config = TrainConfig("gru-p", d_g=6, warmup_length=5)
        arrays = init_head_params(config, 3)
        [result] = predict_window(config, arrays, [seq], norm)
        assert result.pred_norm.shape == (n - 5,)
        np.testing.assert_allclose(result.pred, result.pred_norm * 30.0, rtol=1e-12)

    def test_single_step_warmup_runs(self):
        # shortest allowed conditioning window: one known sample
        rng = np.random.default_rng(44)
        n = 24
        seq = MeasuredSequence(b=0.1 * np.sin(np.linspace(0, 5, n)),
                              h=20 * np.sin(np.linspace(0, 5, n)),
                              temperature_c=25.0)
        norm = NormConstants(h_max=20.0, b_max=0.1, theta_max=70.0)
        config = TrainConfig("gru-p", d_g=4, warmup_length=1)
        [result] = predict_window(config, init_head_params(config, 5), [seq], norm)
        assert result.pred.shape == (n - 1,)

    def test_sequence_shorter_than_warmup_plus_two_refused(self):
        # w + 2 samples leave two to predict; one fewer is refused, naming the sequence
        seqs = [MeasuredSequence(b=0.1 * np.sin(np.arange(n)), h=20 * np.sin(np.arange(n)),
                                 temperature_c=25.0) for n in (7, 6)]
        norm = NormConstants(h_max=20.0, b_max=0.1, theta_max=70.0)
        config = TrainConfig("gru-p", d_g=4, warmup_length=5)
        arrays = init_head_params(config, 5)
        [result] = predict_window(config, arrays, seqs[:1], norm)
        assert result.pred.shape == (2,)
        with pytest.raises(DataError, match=r"^sequence 1 has 6 samples; warmup 5 needs >= 7$"):
            predict_window(config, arrays, seqs, norm)


def _mixed_length_batch(lengths, seed=0):
    """Synthetic sequences of the given lengths and a norm that keeps every warmup
    inside the gru-m and gru-l injection domains."""
    from hystkit.synth import generate_ja_dataset

    seqs = generate_ja_dataset(n_sequences=len(lengths), length=max(lengths), seed=seed)
    for seq, n in zip(seqs, lengths):
        seq.b, seq.h = seq.b[:n] + 0.0123, seq.h[:n]
    norm = NormConstants(h_max=2.0 * max(np.max(np.abs(s.h)) for s in seqs),
                         b_max=max(np.max(np.abs(s.b)) for s in seqs), theta_max=70.0)
    return seqs, norm


class TestBatchedPredictWindow:
    CASES = [(a, p) for a in ("gru-p", "gru-m", "gru-l", "lstm-p", "gru-v")
             for p in ("double", "single")] + [("gru-jadp", "double"), ("ja", "double")]

    @pytest.mark.parametrize("archetype,precision", CASES)
    def test_batched_matches_one_at_a_time(self, archetype, precision):
        lengths = list(np.random.default_rng(7).permutation([40, 40, 40, 56, 56, 56, 72, 72, 72]))
        seqs, norm = _mixed_length_batch(lengths)
        config = TrainConfig(archetype, d_g=1 if archetype == "ja" else 8, warmup_length=4)
        arrays = init_head_params(config, 3, precision)
        batched = predict_window(config, arrays, seqs, norm)
        assert len(batched) == len(seqs)
        rtol = 1e-12 if precision == "double" else 1e-5
        for seq, got in zip(seqs, batched):
            [alone] = predict_window(config, arrays, [seq], norm)
            assert got.pred.shape == (len(seq) - 4,)
            scale = np.max(np.abs(alone.pred))
            assert np.isfinite(scale) and scale > 0
            assert np.max(np.abs(got.pred - alone.pred)) <= rtol * scale
            np.testing.assert_array_equal(got.pred, got.pred_norm * norm.h_max)

    def test_empty_input(self):
        config = TrainConfig("gru-p", d_g=4, warmup_length=2)
        norm = NormConstants(h_max=1.0, b_max=1.0, theta_max=1.0)
        assert predict_window(config, init_head_params(config, 0), [], norm) == []

    def test_warmup_error_names_sequence_and_step(self):
        seqs, norm = _mixed_length_batch([40, 56, 40, 40, 56])
        seqs[3].b[2] = 0.0
        config = TrainConfig("gru-l", d_g=4, warmup_length=4)
        with pytest.raises(WarmupError, match=r"sequence 3: .*warmup step 2"):
            predict_window(config, init_head_params(config, 0), seqs, norm)


# sha256 of init_head_params(TrainConfig(archetype, 8), [3, 0], precision), recorded
# before the two cell records shared one initializer: the draw order, shapes,
# names and dtypes of every archetype's parameters are fixed.
INIT_DIGESTS = {
    ("gru-p", "single"): "5e8003ed7011d3e62775f7a0bb94098d3af62363261587a2c4bc7514be26a40e",
    ("gru-p", "double"): "1d1f55867e9db21d329a0a2265b026a71e9704a5021641482470a932abfaf8a1",
    ("gru-m", "single"): "5e8003ed7011d3e62775f7a0bb94098d3af62363261587a2c4bc7514be26a40e",
    ("gru-m", "double"): "1d1f55867e9db21d329a0a2265b026a71e9704a5021641482470a932abfaf8a1",
    ("gru-l", "single"): "5e8003ed7011d3e62775f7a0bb94098d3af62363261587a2c4bc7514be26a40e",
    ("gru-l", "double"): "1d1f55867e9db21d329a0a2265b026a71e9704a5021641482470a932abfaf8a1",
    ("lstm-p", "single"): "140da51dd25ede6475067168476414a490e82f3e591f9da4c9402f525128dae8",
    ("lstm-p", "double"): "5277c9c337c736c1152b03dbb416ab135b79bcef5054a647163ad884034df643",
    ("gru-v", "single"): "5e8003ed7011d3e62775f7a0bb94098d3af62363261587a2c4bc7514be26a40e",
    ("gru-v", "double"): "1d1f55867e9db21d329a0a2265b026a71e9704a5021641482470a932abfaf8a1",
    ("gru-jadp", "single"): "5e8003ed7011d3e62775f7a0bb94098d3af62363261587a2c4bc7514be26a40e",
    ("gru-jadp", "double"): "1d1f55867e9db21d329a0a2265b026a71e9704a5021641482470a932abfaf8a1",
    ("ja", "single"): "680d9e73d70ae198051f318eb6cb81dd304b19148d63a3ed18cae7a504632a6b",
    ("ja", "double"): "1a830dff72232836f6086740becd2c9629912ee350a33fa45859dbba61ed75f5",
}


@pytest.mark.parametrize("archetype,precision", sorted(INIT_DIGESTS))
def test_init_head_params_bytes_pinned(archetype, precision):
    arrays = init_head_params(TrainConfig(archetype, 8), [3, 0], precision)
    assert digest(arrays) == INIT_DIGESTS[archetype, precision]
