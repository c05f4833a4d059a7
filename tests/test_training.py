"""Training-loop tests: optimizer algebra, determinism, checkpoints, sweeps."""
import gc
import hashlib
import json
import weakref
from collections import Counter

import numpy as np
import pytest

from conftest import digest
from hystkit.autodiff import _toposort
from hystkit.dataset import (DataError, MeasuredSequence, NormConstants,
                             compute_norm_constants, make_minibatches)
from hystkit.heads import inputs_from_batch, rollout, wrap_params
from hystkit.metrics import MetricReport
from hystkit.physics import init_preisach_params
from hystkit.synth import generate_ja_dataset
from hystkit.training import (
    ADAM_BETAS,
    ADAM_EPS,
    AdamState,
    ConfigError,
    TrainConfig,
    TrainingError,
    batch_loss,
    clip_global_norm,
    config_param_count,
    decode_setting,
    evaluate_sequences,
    init_params,
    load_checkpoint,
    optimizer_step,
    pareto_sweep,
    save_checkpoint,
    train,
    train_preisach,
    write_sweep_csv,
)

TAU = 62.5e-9


def tiny_dataset(n=6, length=96, seed=0):
    return generate_ja_dataset(n_sequences=n, length=length, seed=seed)


def small_config(**overrides):
    base = dict(archetype="gru-p", d_g=4, subseq_len=32, batch_size=4, epochs=2,
                lr=1e-3, seed=0, warmup_length=4, precision="double", eval_every=1)
    base.update(overrides)
    return TrainConfig(**base)


class TestOptimizerStep:
    def test_zero_gradient_keeps_params_and_decays_moments(self):
        params = {"w": np.array([1.0, -2.0])}
        new_params, state = optimizer_step(params, {"w": np.zeros(2)}, AdamState(),
                                           lr=0.1, clip_norm=1.0)
        np.testing.assert_array_equal(new_params["w"], params["w"])
        # with prior moments, zero gradients decay them geometrically
        state = AdamState(m={"w": np.array([0.4, 0.4])}, v={"w": np.array([0.2, 0.2])}, t=3)
        _, state = optimizer_step(params, {"w": np.zeros(2)}, state, lr=0.1, clip_norm=1.0)
        np.testing.assert_allclose(state.m["w"], 0.9 * 0.4)
        np.testing.assert_allclose(state.v["w"], 0.999 * 0.2)

    def test_global_norm_clip_scales(self):
        grads = {"a": np.array([6.0]), "b": np.array([8.0])}  # norm 10
        clipped, total = clip_global_norm(grads, 1.0)
        assert total == pytest.approx(10.0)
        np.testing.assert_allclose(clipped["a"], 0.6)
        np.testing.assert_allclose(clipped["b"], 0.8)

    def test_no_clip_below_threshold(self):
        grads = {"a": np.array([0.3])}
        clipped, total = clip_global_norm(grads, 1.0)
        np.testing.assert_array_equal(clipped["a"], grads["a"])

    def test_two_steps_match_hand_recurrence(self):
        lr, (b1, b2), eps = 0.05, ADAM_BETAS, ADAM_EPS
        theta = 1.0
        m = v = 0.0
        params = {"w": np.array([theta])}
        state = AdamState()
        for t, g in enumerate([0.2, -0.1], start=1):
            params, state = optimizer_step(params, {"w": np.array([g])}, state,
                                           lr=lr, clip_norm=1e9)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        assert params["w"][0] == pytest.approx(theta, rel=1e-12)

    def test_nonfinite_gradient_rejected(self):
        with pytest.raises(TrainingError):
            optimizer_step({"w": np.zeros(1)}, {"w": np.array([np.nan])}, AdamState(),
                           lr=0.1, clip_norm=1.0)


class TestTrainConfig:
    def test_precision_resolution(self):
        assert TrainConfig(archetype="gru-p").precision == "single"
        assert TrainConfig(archetype="ja").precision == "double"
        assert TrainConfig(archetype="gru-jadp").precision == "double"
        assert TrainConfig(archetype="gru-p", lambda_w=0.5).precision == "double"

    def test_unknown_archetype_refused(self):
        with pytest.raises(ConfigError, match="^unknown archetype 'nope'$"):
            TrainConfig(archetype="nope")

    def test_ja_single_precision_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(archetype="ja", precision="single")
        with pytest.raises(ConfigError):
            TrainConfig(archetype="gru-p", lambda_w=0.1, precision="single")

    def test_regularized_init_bytes_pinned(self):
        # recorded before the cell records shared one initializer
        arrays = init_params(TrainConfig(archetype="gru-p", d_g=8, lambda_w=0.1, seed=2))
        assert digest(arrays) == "f4d7d217ec99340a03929677785faa582e1ffa8fbdedd6dc3165217a4e7c92b4"

    def test_param_count_includes_pinn_theta(self):
        assert config_param_count(TrainConfig(archetype="gru-p", d_g=8)) == 320
        assert config_param_count(TrainConfig(archetype="gru-p", d_g=8, lambda_w=0.1)) == 325

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(lambda_w=-1.0)

    @pytest.mark.parametrize("name, value", [
        ("lr", np.inf), ("lr", np.nan), ("clip_norm", np.nan), ("clip_norm", np.inf),
        ("lambda_w", np.nan), ("lambda_w", np.inf), ("patience", 0), ("patience", -1),
    ])
    def test_unusable_value_named(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("kind, value, decoded", [
        (int, 2, 2), (int, 2.0, 2), (float, 1, 1.0), (float, 0.5, 0.5), (str, "x", "x"),
    ])
    def test_setting_decoded(self, kind, value, decoded):
        result = decode_setting("key", value, kind)
        assert (result, type(result)) == (decoded, kind)

    @pytest.mark.parametrize("kind, value, shown", [
        (int, 2.5, "2.5"), (int, True, "true"), (float, False, "false"), (float, "1", '"1"'),
        (str, None, "null"), (int, [1], "[1]"),
        pytest.param(float, 10 ** 309, str(10 ** 309), id="int-past-the-float-range"),
    ])
    def test_setting_of_another_type_named(self, kind, value, shown):
        with pytest.raises(ConfigError) as exc:
            decode_setting("key", value, kind)
        assert str(exc.value) == f"key must be {kind.__name__}, got {shown}"


class TestTrainLoop:
    def test_zero_learning_rate_keeps_params(self):
        seqs = tiny_dataset()
        config = small_config(lr=0.0, epochs=2)
        result = train(config, seqs)
        init = init_params(config)
        for k, v in result.params.items():
            np.testing.assert_array_equal(v, init[k])

    def test_loss_decreases_on_constant_target(self):
        rng = np.random.default_rng(3)
        seqs = []
        for i in range(4):
            b = 0.2 * np.sin(np.linspace(0, 12, 128) + i)
            h = np.full(128, 40.0)  # constant target is easy to overfit
            seqs.append(MeasuredSequence(b=b, h=h, temperature_c=25.0, tau_s=TAU))
        config = small_config(d_g=2, epochs=15, lr=3e-2, subseq_len=32, batch_size=4)
        result = train(config, seqs)
        assert result.train_losses[-1] < result.train_losses[0]

    def test_fixed_seed_bit_identical(self):
        seqs = tiny_dataset()
        config = small_config(epochs=3)
        a = train(config, seqs)
        b = train(config, seqs)
        assert a.train_losses == b.train_losses
        for k in a.params:
            assert a.params[k].tobytes() == b.params[k].tobytes()

    def test_best_eval_params_kept(self):
        seqs = tiny_dataset(n=8)
        config = small_config(epochs=4, lr=5e-3)
        result = train(config, seqs[:6], seqs[6:])
        assert len(result.eval_sre) >= 1
        assert result.best_epoch <= config.epochs - 1

    def test_record_is_what_was_evaluated(self):
        seqs = tiny_dataset(n=8)
        config = small_config(epochs=4, eval_every=2, lr=5e-3)
        result = train(config, seqs[:6], seqs[6:])
        assert sorted(result.eval_sre) == [1, 3]
        report = evaluate_sequences(config.head_config(), result.params, seqs[6:],
                                    result.norm)
        assert result.report.rows == report.rows
        assert result.eval_sre[result.best_epoch] == report.aggregate()["avg_sre"]

    def test_last_epoch_off_schedule_is_evaluated(self):
        # no epoch of 3 is on a 5-epoch schedule; the last one is evaluated anyway
        seqs = tiny_dataset(n=8)
        config = small_config(epochs=3, eval_every=5)
        result = train(config, seqs[:6], seqs[6:])
        assert list(result.eval_sre) == [2] and result.best_epoch == 2
        init = init_params(config)
        assert any(not np.array_equal(result.params[k], init[k]) for k in init)

    def test_non_finite_evaluation_ranks_last(self, monkeypatch):
        import hystkit.training as training

        sre_of_call = iter([np.nan, 0.5, 0.7])

        def scripted(*args, **kwargs):
            report = MetricReport()
            report.add(0, sre=next(sre_of_call), nere=0.0, mse=0.0, mae=0.0, wce=0.0)
            return report

        monkeypatch.setattr(training, "evaluate_sequences", scripted)
        seqs = tiny_dataset(n=8)
        result = train(small_config(epochs=3, patience=5), seqs[:6], seqs[6:])
        assert result.best_epoch == 1 and result.report.rows[0]["sre"] == 0.5

    def test_no_eval_set_leaves_record_empty(self):
        result = train(small_config(epochs=2), tiny_dataset(n=4))
        assert (result.eval_sre, result.report, result.best_epoch) == ({}, None, 1)

    def test_mixed_sampling_periods_train(self):
        from hystkit.dataset import make_minibatches

        seqs = (generate_ja_dataset(n_sequences=2, length=64, seed=3, tau=62.5e-9)
                + generate_ja_dataset(n_sequences=2, length=64, seed=4, tau=125e-9))
        batches = make_minibatches(seqs, 32, 8, 0, 4, compute_norm_constants(seqs))
        assert {seqs[si].tau_s for si in batches[0].sources[:, 0]} == {62.5e-9, 125e-9}
        result = train(small_config(archetype="gru-jadp", d_g=6, batch_size=8, epochs=1), seqs)
        assert len(result.train_losses) == 1 and np.isfinite(result.train_losses[0])

    def test_empty_training_set(self):
        with pytest.raises(ConfigError):
            train(small_config(), [])

    def test_pinn_archetype_trains(self):
        seqs = tiny_dataset(n=4)
        config = small_config(epochs=1, lambda_w=0.1, lr=1e-3)
        result = train(config, seqs)
        assert "theta_ja" in result.params
        assert np.isfinite(result.train_losses[0])

    @pytest.mark.parametrize("archetype,d_g", [("ja", 1), ("gru-jadp", 6)])
    def test_ja_family_trains_and_evaluates(self, archetype, d_g):
        seqs = tiny_dataset(n=6)
        config = small_config(archetype=archetype, d_g=d_g, epochs=2)
        result = train(config, seqs[:5], seqs[5:])
        assert all(np.isfinite(v) for v in result.train_losses)
        report = evaluate_sequences(config.head_config(), result.params, seqs[5:],
                                    result.norm)
        assert np.isfinite(report.aggregate()["avg_sre"])

    def test_zero_regularization_weight_equals_plain_objective(self):
        from hystkit.dataset import compute_norm_constants, make_minibatches
        from hystkit.heads import inputs_from_batch, rollout, wrap_params
        from hystkit.training import batch_loss, init_params

        seqs = tiny_dataset(n=4)
        norm = compute_norm_constants(seqs)
        plain = small_config(epochs=1)
        pinn = small_config(epochs=1, lambda_w=0.0)
        batch = make_minibatches(seqs, 32, 4, 0, 4, norm)[0]
        arrays = init_params(plain)
        a = batch_loss(plain, wrap_params(arrays), batch, norm)
        b = batch_loss(pinn, wrap_params(arrays), batch, norm)
        assert float(a.data) == float(b.data)


class TestGraphLifetime:
    """A batch's tape must be freed by reference counting alone.

    A reference cycle anywhere in the graph (a backward closure that refers
    to a node downstream of its own) keeps every batch's graph alive until
    the cyclic collector runs, which shows up as peak-memory growth in
    training and sweeps.
    """

    @staticmethod
    def _loss_graph_refs(config):
        """Weak references to the loss graph's nodes, and how many nodes each function
        that records a backward (``gru_step``, ``gru_sequence``, ...) put in it."""
        seqs = tiny_dataset()
        norm = compute_norm_constants(seqs)
        batch = make_minibatches(seqs, config.subseq_len, config.batch_size, [0, 1],
                                 config.warmup_length, norm)[0]
        loss = batch_loss(config, wrap_params(init_params(config)), batch, norm)
        loss.backward()
        nodes = _toposort(loss)
        recorders = Counter(node._backward.__qualname__.split(".")[0]
                            for node in nodes if node._backward is not None)
        return [weakref.ref(node) for node in nodes], recorders

    @pytest.mark.parametrize("archetype", ["gru-p", "lstm-p", "gru-jadp", "ja"])
    def test_loss_graph_freed_without_gc(self, archetype):
        config = small_config(archetype=archetype, d_g=6)
        warm, open_loop = config.warmup_length - 1, config.subseq_len - config.warmup_length
        # the walk reached every recurrent node: each warmup step (two nodes per LSTM
        # step), the cell heads' sequence node and each JA-family open-loop step
        expected = {"gru-p": {"gru_step": warm, "gru_sequence": 1},
                    "lstm-p": {"lstm_step": 2 * warm, "lstm_sequence": 1},
                    "gru-jadp": {"gru_step": warm + open_loop, "ja_step_euler": open_loop},
                    "ja": {"ja_step_euler": open_loop}}[archetype]
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            refs, recorders = self._loss_graph_refs(config)
            alive = sum(ref() is not None for ref in refs)
        finally:
            if was_enabled:
                gc.enable()
        assert {name: recorders[name] for name in expected} == expected
        assert refs[-1]() is None, "the loss node outlived its last reference"
        assert alive == 0, f"{alive} of {len(refs)} tape nodes outlived the loss"


class TestLossGradientsPinned:
    # recorded before the JA parameter map moved inside the Euler step's node
    @pytest.mark.parametrize("overrides, sha", [
        (dict(archetype="gru-jadp", d_g=6),
         "a217f86a44a19fa95f68eef5740d4a663d759fc225b01ee9c52d6dba34ef0123"),
        (dict(archetype="ja", d_g=1),
         "b6a72a3b12583baca5f4e3cf4af57505a8c37d1649842abdddaac64c64f85920"),
        (dict(archetype="gru-p", d_g=4, lambda_w=0.1),
         "64377532ae9704da072c676198da6737eceb45dc02aa59886662e9cd8cc7d141"),
    ])
    def test_batch_loss_gradients(self, overrides, sha):
        config = small_config(**overrides)
        seqs = tiny_dataset()
        norm = compute_norm_constants(seqs)
        batch = make_minibatches(seqs, config.subseq_len, config.batch_size, [0, 1],
                                 config.warmup_length, norm)[0]
        params = wrap_params(init_params(config))
        batch_loss(config, params, batch, norm).backward()
        assert digest({name: t.grad for name, t in params.items()}) == sha


# sha256 of the predictions, final state and batch_loss parameter gradients of a
# cell head's first batch, recorded while every open-loop step was its own cell
# call: the whole-sequence kernels must reproduce them byte for byte. The data
# keep the gru-m and gru-l warmups inside their invertible domains.
CELL_HEAD_DIGESTS = {
    ("gru-p", 1, 1, "single"): "777aa744b1efd68eee962ed05ab2f7195f3f6d0954a467577624d4085ba37a92",
    ("gru-p", 1, 1, "double"): "63272c4e43f879edd5dab90f5613e16a7b57ef80d499d687f29094945c7948ef",
    ("gru-p", 1, 16, "single"): "5211bf09d7d1440137a644d219ada63caefa096afe3048f5f4520a0befd6d727",
    ("gru-p", 1, 16, "double"): "10adc80bd241efe9e83aa107521fc5afa1f58194bbe1354976eeb8b84d6babd5",
    ("gru-p", 16, 1, "single"): "cce646f6e14bb9802924371c58b700f52f8b4753cd7355205e198eb0f02a8c94",
    ("gru-p", 16, 1, "double"): "e670038d6cfd0c5f23102ccbb012ee07917eaff31ea3b50f1714d457480bdc2b",
    ("gru-p", 16, 16, "single"): "0a85ad39b3e1b4cd47d40b0f9252bb10b771c907591aa07e383c50083ea9a50b",
    ("gru-p", 16, 16, "double"): "0d328dd390aa17def9e695c162097394403e5a14e1994458d4ee437f76ad8662",
    ("gru-m", 1, 1, "single"): "131e472660532cdad83f6203c080d74a90d4229b027b0f743ec04235d8161430",
    ("gru-m", 1, 1, "double"): "f8830715a93c33a61e4b80ec80825389f8ef78cbaa2a7e1d6c2a4be1133680b5",
    ("gru-m", 1, 16, "single"): "fba643dce5c9e37375d25bf81a98cdeb2a22a9dee502dfbccb26dbb948fe11f8",
    ("gru-m", 1, 16, "double"): "d949ae5a723c01c906a2ecaf5f1d629ee61b159ebc8a58928350043ede9f17a2",
    ("gru-m", 16, 1, "single"): "f908b952ac13a1ec0a87e80f7249e6574a6f6706c91511fa225484363459664f",
    ("gru-m", 16, 1, "double"): "3ff73bdb4da5619328f584825c9e237400c98067df3037b13243f8d888835497",
    ("gru-m", 16, 16, "single"): "de31dae21b161dcddc178ba2ece2cc573653f10700e16a0f6215aeff6b688452",
    ("gru-m", 16, 16, "double"): "3dac0c799734d299002bd671f3a3a362e90eb256e1c8fc6fd208397f1aa40d7d",
    ("gru-l", 1, 1, "single"): "ebec7c567348d033b9aa115858c1753fe140f2a238a7277d9d9ec56cbe342ef9",
    ("gru-l", 1, 1, "double"): "de376f426219943a8921cabda2bb8a444375d2a9a90437fc7fbedfefebb9972e",
    ("gru-l", 1, 16, "single"): "cf065cfe1644de85a0a65c3b3469dc6bd82b41c9acaba9835072f7bf3a7bc3f9",
    ("gru-l", 1, 16, "double"): "754e95dbcee102f18a3b6ee9bcc0b66278d4bb5cfb4e338f1a45799b2e00944b",
    ("gru-l", 16, 1, "single"): "9c7dc49d409ab1e5709641b6a36383c0ed0c36fc66839b26d13fc4057106f342",
    ("gru-l", 16, 1, "double"): "bf9da4b683aa14db2e84ee81d997028fcb926c08060a4894b27615dd170cb0d3",
    ("gru-l", 16, 16, "single"): "86c767eb947eb7afc6adf5b3bc77221e435e6210ec140b21eafa63fd80f80540",
    ("gru-l", 16, 16, "double"): "76e8db5c6490b9afb5ec089fb5da76868c4a0e17fbb2dfd44471a7cf484ec713",
    ("gru-v", 1, 1, "single"): "8254c3da0846c9715a569a705e1a0974f8653078e66ce5af62e57e737199253b",
    ("gru-v", 1, 1, "double"): "66e4fc99af5acfda90312423fd673d98e6433523f0953ca67e8801462356ef83",
    ("gru-v", 1, 16, "single"): "6e5d84d8c29036b955899c35eb4b17fe379a3f525cbcf001f42b6ed1dde6294f",
    ("gru-v", 1, 16, "double"): "1e663a1a5862c31c5d387db783b7c7c25d0d39da257898f63fb4cd6e1c1eb9f5",
    ("gru-v", 16, 1, "single"): "ca42a5a26a4cdc0b19ad1ddb1a48035d861a7b2c6530c2f327eb85dface339c6",
    ("gru-v", 16, 1, "double"): "a34b890f111d9b4031b2d812bc8f1da335525d33a94e62a78beb38f5e610a578",
    ("gru-v", 16, 16, "single"): "bfe031daf190f024bc2820860a525aae6769d5f6fbdaa3a63b14f66f53cbab19",
    ("gru-v", 16, 16, "double"): "bb40ae0126bd8e6da7b4d69f6dd9eac3d74d3607f55b40d769a6b15be0e78d2f",
    ("lstm-p", 1, 1, "single"): "6704481bd4761fa9b4d11518756ac4766d67d0cb212177ab473c69f1fad6b333",
    ("lstm-p", 1, 1, "double"): "78487e71a91ebb8e27ccb40c6fdf0ca2d39a6730e7995c378fe0890cc12b2c9b",
    ("lstm-p", 1, 16, "single"): "475053d3a2abc862cfe61e1afe38771718ae5ffb56a8afed89aa06f261eaeda3",
    ("lstm-p", 1, 16, "double"): "f1b697f403a2208278c44b93920c286e827c8b5fa7ba8e82a499fa3c7790f3a4",
    ("lstm-p", 16, 1, "single"): "25324cecee2de233543de5ad5f558b7cd33a8c52892f7d47349e0f8142ef216b",
    ("lstm-p", 16, 1, "double"): "2b074e41688a2ebef7cdf42d0d43e1deeae87257d04da515c3ec9f4e1983b0a6",
    ("lstm-p", 16, 16, "single"): "f501cde3575a3bc139b7268cca3a44e13701b668ca80e1dc2b65384a778f631e",
    ("lstm-p", 16, 16, "double"): "7c79a6c63f7a0002c5278eb98fab6684a41ab5b5b6e9e4f0a0fa388de740afc9",
}


@pytest.mark.parametrize("archetype, w, rows, precision", sorted(CELL_HEAD_DIGESTS))
def test_cell_head_rollout_and_gradients_pinned(archetype, w, rows, precision):
    seqs = generate_ja_dataset(n_sequences=8, length=96, seed=0)
    for s in seqs:
        s.b = s.b + 0.0123
    norm = NormConstants(h_max=2.0 * max(np.max(np.abs(s.h)) for s in seqs),
                         b_max=max(np.max(np.abs(s.b)) for s in seqs), theta_max=70.0)
    config = TrainConfig(archetype=archetype, d_g=8, subseq_len=40, batch_size=rows,
                         warmup_length=w, precision=precision)
    batch = make_minibatches(seqs, 40, rows, [0, 1], w, norm)[0]
    params = wrap_params(init_params(config))
    inputs = inputs_from_batch(batch, norm)
    pred, state = rollout(config.head_config(), params, inputs)
    states = state if isinstance(state, tuple) else (state,)
    frozen, _ = rollout(config.head_config(), wrap_params(init_params(config), False), inputs)
    assert frozen.data.tobytes() == pred.data.tobytes()
    batch_loss(config, params, batch, norm).backward()
    assert digest({"pred": pred.data, **{f"state{i}": s.data for i, s in enumerate(states)},
                   **{k: t.grad for k, t in params.items()}}) == CELL_HEAD_DIGESTS[
        archetype, w, rows, precision]


# sha256 of the predictions, final state (H, M and, for gru-jadp, the hidden
# state) and batch_loss parameter gradients of a JA-family head's first batch in
# double precision, on the data of the cell-head pins, recorded while every
# open-loop step read its prediction out through a node of its own: the single
# readout over the concatenated H columns must reproduce them byte for byte.
JA_HEAD_DIGESTS = {
    ("gru-jadp", 1, 1): "7a2f136076456605a092a35b43a4a8808f2122a2a01b1ec2991ec138fa481619",
    ("gru-jadp", 1, 16): "4b2e27c55d58d28d1ba05101121b26393c89038b155b6a07ae8391974a658633",
    ("gru-jadp", 16, 1): "a8447d2acbe9d83deb7eeec3ab6480cc6a7bbc23a4c6947e11cb52d82ebf5269",
    ("gru-jadp", 16, 16): "03dd763810e5c7b5afdebf6d5c43685f73a920fc24028e5b057a787cc288647f",
    ("ja", 1, 1): "df2ff7febc3120397dd6e74ec1df8457276ba450a3bc562aceeb35180de24334",
    ("ja", 1, 16): "de68c891ab417db5cc63820497b1edaf85bdfc10da166f15b1068b540cef2494",
    ("ja", 16, 1): "21494f9249e90358282f7367e4cf8dd01e0592f2f1ff7bc79cc2141713f280fe",
    ("ja", 16, 16): "6c90b38794daeb7e2c1cdf1458c4d28b55a609bc946964e9808e450f16c10e9b",
}


@pytest.mark.parametrize("archetype, w, rows", sorted(JA_HEAD_DIGESTS))
def test_ja_head_rollout_and_gradients_pinned(archetype, w, rows):
    seqs = generate_ja_dataset(n_sequences=8, length=96, seed=0)
    for s in seqs:
        s.b = s.b + 0.0123
    norm = NormConstants(h_max=2.0 * max(np.max(np.abs(s.h)) for s in seqs),
                         b_max=max(np.max(np.abs(s.b)) for s in seqs), theta_max=70.0)
    config = TrainConfig(archetype=archetype, d_g=8, subseq_len=40, batch_size=rows,
                         warmup_length=w, precision="double")
    batch = make_minibatches(seqs, 40, rows, [0, 1], w, norm)[0]
    params = wrap_params(init_params(config))
    inputs = inputs_from_batch(batch, norm)
    pred, state = rollout(config.head_config(), params, inputs)
    ja, hidden = state if archetype == "gru-jadp" else (state, None)
    states = {"h": ja.h.data, "m": ja.m.data, **({} if hidden is None else {"g": hidden.data})}
    frozen, _ = rollout(config.head_config(), wrap_params(init_params(config), False), inputs)
    assert frozen.data.tobytes() == pred.data.tobytes()
    batch_loss(config, params, batch, norm).backward()
    assert digest({"pred": pred.data, **states,
                   **{k: t.grad for k, t in params.items()}}) == JA_HEAD_DIGESTS[
        archetype, w, rows]


class TestCheckpoint:
    def test_roundtrip_bit_identical_metrics(self, tmp_path):
        seqs = tiny_dataset(n=5)
        config = small_config(epochs=1)
        result = train(config, seqs[:4], seqs[4:])
        ckpt = result.checkpoint()
        json_path, bin_path = save_checkpoint(tmp_path / "model", ckpt)
        loaded = load_checkpoint(json_path)
        for k in ckpt.params:
            assert loaded.params[k].tobytes() == ckpt.params[k].tobytes()
        assert loaded.config == ckpt.config
        r1 = evaluate_sequences(ckpt.config.head_config(), ckpt.params, seqs[4:], ckpt.norm)
        r2 = evaluate_sequences(loaded.config.head_config(), loaded.params, seqs[4:],
                                loaded.norm)
        assert r1.to_json() == r2.to_json()

    def test_size_on_disk_reported(self, tmp_path):
        seqs = tiny_dataset(n=4)
        config = small_config(epochs=1, d_g=8)
        result = train(config, seqs)
        json_path, bin_path = save_checkpoint(tmp_path / "model", result.checkpoint())
        import json as json_mod
        header = json_mod.loads(json_path.read_text())
        assert header["param_count"] == 320
        assert header["blob_bytes"] == bin_path.stat().st_size == 320 * 8

    def test_single_precision_blob(self, tmp_path):
        seqs = tiny_dataset(n=4)
        config = small_config(epochs=1, d_g=4, precision="single")
        result = train(config, seqs)
        json_path, bin_path = save_checkpoint(tmp_path / "m", result.checkpoint())
        loaded = load_checkpoint(json_path)
        assert loaded.params["w_z"].dtype == np.float32
        assert bin_path.stat().st_size == sum(v.size for v in result.params.values()) * 4

    @pytest.mark.parametrize("precision, wire, dtype", [("double", "<f4", np.float64),
                                                        ("single", "<f8", np.float32)])
    def test_arrays_take_the_header_precision(self, tmp_path, precision, wire, dtype):
        # entries re-encoded in the other wire dtype still load in the header's precision
        result = train(small_config(epochs=1, precision=precision), tiny_dataset(n=4))
        json_path, bin_path = save_checkpoint(tmp_path / "model", result.checkpoint())
        header = json.loads(json_path.read_text())
        blob = bytearray()
        for entry in header["layout"]:
            entry.update(dtype=wire, offset=len(blob))
            blob.extend(result.params[entry["name"]].astype(wire).tobytes())
        bin_path.write_bytes(bytes(blob))
        header["blob_sha256"] = hashlib.sha256(bytes(blob)).hexdigest()
        json_path.write_text(json.dumps(header))
        loaded = load_checkpoint(json_path)
        for name, arr in loaded.params.items():
            assert arr.dtype == dtype
            assert arr.tobytes() == result.params[name].astype(wire).astype(dtype).tobytes()

    def test_corrupt_blob_detected(self, tmp_path):
        seqs = tiny_dataset(n=4)
        result = train(small_config(epochs=1), seqs)
        json_path, bin_path = save_checkpoint(tmp_path / "model", result.checkpoint())
        blob = bytearray(bin_path.read_bytes())
        blob[3] ^= 0xFF
        bin_path.write_bytes(bytes(blob))
        with pytest.raises(ConfigError, match="hash"):
            load_checkpoint(json_path)


class TestEvaluate:
    def test_report_rows_per_sequence(self):
        seqs = tiny_dataset(n=5)
        config = small_config(epochs=1)
        result = train(config, seqs)
        report = evaluate_sequences(config.head_config(), result.params, seqs,
                                    result.norm)
        assert len(report.rows) == 5
        agg = report.aggregate()
        assert set(agg) == {f"{s}_{m}" for s in ("avg", "p95")
                            for m in MetricReport.METRICS}


class TestParetoSweep:
    def test_grid_cardinality_and_params_column(self):
        seqs = tiny_dataset(n=6)
        rows, medians = pareto_sweep([small_config(epochs=1)], [2, 4], 3, seqs[:4], seqs[4:])
        assert len(rows) == 6
        from hystkit.cells import param_count
        for row in rows:
            assert row["params"] == param_count("gru-p", row["d_g"], 4)
            assert row["status"] == "ok"

    def test_median_aggregation(self):
        values = [0.1, 0.2, 0.4]
        assert float(np.median(values)) == 0.2

    def test_trial_evaluates_once_per_evaluated_epoch(self, monkeypatch):
        import hystkit.training as training

        calls = []

        def counting(*args, **kwargs):
            calls.append(len(args[2]))
            return evaluate_sequences(*args, **kwargs)

        monkeypatch.setattr(training, "evaluate_sequences", counting)
        seqs = tiny_dataset(n=6)
        rows, _ = pareto_sweep([small_config(epochs=4, eval_every=2)], [2], 1, seqs[:4],
                               seqs[4:])
        assert rows[0]["status"] == "ok"
        assert calls == [2, 2]  # epochs 1 and 3, on the 2 eval sequences

    def test_empty_eval_set_refused(self):
        seqs = tiny_dataset(n=4)
        with pytest.raises(ConfigError, match="empty eval set"):
            pareto_sweep([small_config(epochs=1)], [2], 1, seqs, [])

    def test_failures_recorded_not_dropped(self):
        seqs = tiny_dataset(n=6)
        # gru-v rejects d_g=4 (not a valid grid size): the trial must fail loudly
        rows, medians = pareto_sweep([small_config(archetype="gru-v", epochs=1)], [4], 1,
                                     seqs[:4], seqs[4:])
        assert len(rows) == 1
        assert rows[0]["status"].startswith("failed:")
        assert np.isnan(rows[0]["sre"])
        assert rows[0]["params"] == 112
        assert ("gru-v", 4) not in medians

    def test_failed_regularized_trial_counts_ja_parameters(self):
        seqs = tiny_dataset(n=6)
        # windows longer than every sequence: no batch, so the trial fails
        config = small_config(epochs=1, lambda_w=0.1, subseq_len=500)
        rows, _ = pareto_sweep([config], [8], 1, seqs[:4], seqs[4:])
        assert rows[0]["status"] == "failed:DataError"
        assert rows[0]["params"] == 325

    def test_trials_keep_base_precision(self, monkeypatch):
        import hystkit.training as training

        ran = []

        def record(job):
            config = job[0]
            ran.append(config)
            return {"archetype": config.archetype, "d_g": config.d_g, "seed": config.seed,
                    "status": "not run"}

        monkeypatch.setattr(training, "_run_trial", record)
        seqs = tiny_dataset(n=2)
        pareto_sweep([small_config(archetype=a) for a in ("gru-p", "lstm-p", "ja")], [2], 1,
                     seqs, seqs)
        pareto_sweep([TrainConfig(archetype=a) for a in ("gru-p", "ja")], [2], 1, seqs, seqs)
        assert [(c.archetype, c.precision) for c in ran] == [
            ("gru-p", "double"), ("lstm-p", "double"), ("ja", "double"),
            ("gru-p", "single"), ("ja", "double")]
        assert all(c.d_g == 2 and c.subseq_len == 32 for c in ran[:3])

    def test_concurrent_workers_match_sequential(self):
        seqs = tiny_dataset(n=6)
        configs = [small_config(epochs=1)]
        seq_rows, _ = pareto_sweep(configs, [2], 2, seqs[:4], seqs[4:], workers=1)
        par_rows, _ = pareto_sweep(configs, [2], 2, seqs[:4], seqs[4:], workers=2)
        assert seq_rows == par_rows

    def test_csv_format(self, tmp_path):
        rows = [{"archetype": "gru-p", "d_g": 4, "params": 116, "seed": 0,
                 "sre": 0.1234567891, "nere": -0.01, "status": "ok"}]
        write_sweep_csv(tmp_path / "sweep.csv", rows)
        text = (tmp_path / "sweep.csv").read_text().splitlines()
        assert text[0] == "archetype,d_g,params,seed,sre,nere,status"
        assert text[1].startswith("gru-p,4,116,0,0.123456789,")


class TestPreisachTrainer:
    def test_loss_decreases(self):
        seqs = tiny_dataset(n=4, length=96)
        norm = compute_norm_constants(seqs)
        params = init_preisach_params(n_levels=5)
        _, losses = train_preisach(params, seqs, norm, subseq_len=32, batch_size=4,
                                   epochs=8, lr=1e-2, warmup_length=4)
        assert losses[-1] < losses[0]

    def test_no_full_batch_raises(self):
        seqs = tiny_dataset(n=3, length=64)
        with pytest.raises(DataError, match="no full batches: 3 sequences, l=32, b=16"):
            train_preisach(init_preisach_params(n_levels=5), seqs, compute_norm_constants(seqs),
                           subseq_len=32, batch_size=16, epochs=2, warmup_length=4)

    def test_bytes_pinned(self):
        # recorded before train_preisach shared train's epoch loop
        seqs = tiny_dataset(n=4, length=96)
        norm = compute_norm_constants(seqs)
        fitted, losses = train_preisach(init_preisach_params(n_levels=5), seqs, norm,
                                        subseq_len=32, batch_size=4, epochs=3, lr=1e-2,
                                        warmup_length=4)
        assert digest({"mu": fitted.mu, "omega": fitted.omega,
                       "losses": np.array(losses)}) == (
            "d7ffde42d2ca25af582b8b6e4728f313c20cc19cfc28481da5f04dfcc0aa2bef")
