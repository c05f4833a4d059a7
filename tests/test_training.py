"""Training-loop tests: optimizer algebra, determinism, checkpoints, sweeps."""
import gc
import hashlib
import json
import weakref
from collections import Counter

import numpy as np
import pytest

import hystkit.heads as heads
import hystkit.training as training
from conftest import digest
from hystkit.autodiff import _toposort
from hystkit.cells import CellParams
from hystkit.dataset import (DataError, MeasuredSequence, NormConstants,
                             compute_norm_constants, make_minibatches)
from hystkit.heads import HeadError, inputs_from_batch, param_count, rollout, wrap_params
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

    @pytest.mark.parametrize("lambda_w", [0.0, 0.1])
    def test_param_count_matches_init_params(self, lambda_w):
        for archetype, d_g in [("gru-p", 8), ("gru-m", 3), ("gru-l", 5), ("lstm-p", 6),
                               ("gru-v", 18), ("gru-jadp", 7), ("ja", 4)]:
            config = TrainConfig(archetype=archetype, d_g=d_g, lambda_w=lambda_w)
            total = sum(a.size for a in init_params(config).values())
            assert config_param_count(config) == total, archetype

    @pytest.mark.parametrize("archetype, d_g, count", [("gru-v", 12, 624), ("gru-jadp", 4, 112)])
    def test_param_count_at_sizes_the_head_refuses(self, archetype, d_g, count):
        # a failed sweep row still reports the size of the model it would have drawn
        with pytest.raises(HeadError):
            init_params(TrainConfig(archetype=archetype, d_g=d_g))
        assert param_count(archetype, d_g, 4) == count
        assert config_param_count(TrainConfig(archetype=archetype, d_g=d_g)) == count
        regularized = TrainConfig(archetype=archetype, d_g=d_g, lambda_w=0.1)
        assert config_param_count(regularized) == count + 5

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

    def test_lr_the_precision_cannot_hold_refused(self):
        largest = float(np.finfo(np.float32).max)
        assert TrainConfig(lr=largest, precision="single").lr == largest
        assert TrainConfig(lr=1e300, precision="double").lr == 1e300
        with pytest.raises(ConfigError, match="^lr 1e\\+300 exceeds the largest "
                                              "single-precision value 3.40282e\\+38$"):
            TrainConfig(lr=1e300, precision="single")

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
        report = evaluate_sequences(config, result.params, seqs[6:],
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
        report = evaluate_sequences(config, result.params, seqs[5:],
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


# sha256 of the predictions and batch_loss parameter gradients of a cell head's
# first batch, recorded at the commit before rollouts stopped returning their final
# state (that commit's predictions and gradients matched the pins recorded while
# every open-loop step was its own cell call): the whole-sequence kernels must
# reproduce them byte for byte. The data keep the gru-m and gru-l warmups inside
# their invertible domains.
CELL_HEAD_DIGESTS = {
    ("gru-p", 1, 1, "single"): "3b9e1015e2f2c6836757378031144957f0ba2603987f7c9e34d78ddfd7976f45",
    ("gru-p", 1, 1, "double"): "31a8bb6e3a3bf97ccd1ff76f54f876c6f9768429dd6d4eb941dc80f21b6a8e21",
    ("gru-p", 1, 16, "single"): "61e0d72af0edf840407a5befa0366ccd36cd2c982c25161cf8d50e862384d2f6",
    ("gru-p", 1, 16, "double"): "cb54e7a77bb1e61af0d7566c3124a8016bf5e58abc6bbbf84d00f5462117d33e",
    ("gru-p", 16, 1, "single"): "9415e966c323b11f85cbc69ee5fec043560fed9269f04ec5760da8b64df713a1",
    ("gru-p", 16, 1, "double"): "3b8218fe29e0f25bc61eb991d51e8edb34fcded722603f7e74e6a84bc7ad7a1f",
    ("gru-p", 16, 16, "single"): "232c604c3fa69f85aa452cee25e88c2cd5710aeca864796051741b18fe72d514",
    ("gru-p", 16, 16, "double"): "5ed119d48aac1c71effea2f04f1086dbf483742967256ae1137727de895d163b",
    ("gru-m", 1, 1, "single"): "784ff7880d8812b10623411fb404472b734befc69e750b174cb8c6cca27d6b5e",
    ("gru-m", 1, 1, "double"): "92f167ff727e73cd2843f1e0fba0e4be5344519277c26c4b6df79b90941dd333",
    ("gru-m", 1, 16, "single"): "d89629ba0eba8bed7884925c86ef19c4fcb2df647fa52e0fc050444c083e128f",
    ("gru-m", 1, 16, "double"): "d49e72ab857f7629652ae33105668ee561aa51883a2afd92f94fae96943562a5",
    ("gru-m", 16, 1, "single"): "7599c1961c0a79334a59f2b5d0c3d991c3a6d6150ee42bd055756c6c6fbe4184",
    ("gru-m", 16, 1, "double"): "fb11e6cc9198b412bfc1a11de800cb1bccab5013467ba079e38ea04397cb7886",
    ("gru-m", 16, 16, "single"): "9f637458cb0776a75e22c71b9853dd51e57e072adc7d11081b4a1feb284da75e",
    ("gru-m", 16, 16, "double"): "9530df8a02d4a30229cceb6335e07fcf0a89dc03636e40ba5c4a659a2b413f4f",
    ("gru-l", 1, 1, "single"): "51c9227cf8f8b548fb994e3fdfb6ddc20889a6bb49e2eac23386b8190f4ee80d",
    ("gru-l", 1, 1, "double"): "7029fad6363994cf74e09b71c210aa2b7ef0fe76df95889be5a368d842aa45c8",
    ("gru-l", 1, 16, "single"): "0c2b5acf6f65afc497da815657dbb8090cd6e4d2b549a5eb72b45f75b79de958",
    ("gru-l", 1, 16, "double"): "caea11b5bbc044d6c95c78820ba490a91e1567cec9b60716acad7fc96ab04a34",
    ("gru-l", 16, 1, "single"): "30738726c646c09e2c53a6be0f8718028b7c78c8e0e5b2e20c515bacac834970",
    ("gru-l", 16, 1, "double"): "3b6790827ac88b8affc1263f5b56584ddecb42d7e81d580970dcb3a6fe0a6ef5",
    ("gru-l", 16, 16, "single"): "6f1a46327d1b9aee55b04fb6d6676e00b416309a3bf538e747a492805d9ad296",
    ("gru-l", 16, 16, "double"): "ea93347adac1c9ec8796ed1a6e66cbc8f49cae43c83e5942e4faa105d0ba24cc",
    ("gru-v", 1, 1, "single"): "20979964db6f0cef448c52f506f56372c4dbd685bb0cd7d11078ecad0b3b43e9",
    ("gru-v", 1, 1, "double"): "0568b0b30cdce543327763c6c9572c54696c4cdd02c255cb524f2515f093d827",
    ("gru-v", 1, 16, "single"): "3ccd561fb34f6240cc516b5884fb66f148f41284df6e4f8e5d3a57808c4a911d",
    ("gru-v", 1, 16, "double"): "707845e9268f3d19e088c1e1b5f6d745360239f17ab8ff59183beb9014480f65",
    ("gru-v", 16, 1, "single"): "af72e7defd230249b5da7f5d76b03fee74939ac8499faa51cbef862a48f74a6e",
    ("gru-v", 16, 1, "double"): "73f5bec7a8286c8d9531558d62790a04b8c70fc6a9f8e16ebbae1198a2f29bc3",
    ("gru-v", 16, 16, "single"): "41665aad8c89043ec1b3aebeed5d201e6dcfa0572bcce410230b9df918d127dd",
    ("gru-v", 16, 16, "double"): "9f68e39e36b466657fb96672f4d0d8f433eb410335a615303d65305c418a7cd6",
    ("lstm-p", 1, 1, "single"): "588d6d3aa7ae818463df419b05463e32f28e5d0ff5cc8265624da47d593dfec4",
    ("lstm-p", 1, 1, "double"): "c758bc7fbcdd68dbdca6f2a037948fb5e9327436357bc32a569943a466a1295c",
    ("lstm-p", 1, 16, "single"): "9e6766ae61fff4602f9a7cadfc794efda0293a4201892711e06d57eee0face96",
    ("lstm-p", 1, 16, "double"): "0e095f8f180bf993d7360c78f7142d51fe5246ed64b2a1e86a04bf8bb09de1ab",
    ("lstm-p", 16, 1, "single"): "a546fa18683d203642225a9e254fed570354182376db7794a27e1b147e8f04c7",
    ("lstm-p", 16, 1, "double"): "d765d66895e3b70a049e552c92ec0152035f71aae3bdbe9b93b537d232c836ee",
    ("lstm-p", 16, 16, "single"): "1d8b2af20b13d44af4d2251f3f919c5f5bdaae712109a6c13ba599d21443412c",
    ("lstm-p", 16, 16, "double"): "47b81329642ddf913fa2f122b491fb3ba81b57f0de40c3485f1f60278e47375b",
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
    pred = rollout(config, params, inputs)
    frozen = rollout(config, wrap_params(init_params(config), False), inputs)
    assert frozen.data.tobytes() == pred.data.tobytes()
    batch_loss(config, params, batch, norm).backward()
    got = digest({"pred": pred.data, **{k: t.grad for k, t in params.items()}})
    assert got == CELL_HEAD_DIGESTS[archetype, w, rows, precision]


# sha256 of the predictions and batch_loss parameter gradients of a JA-family
# head's first batch in double precision, on the data of the cell-head pins,
# recorded at the commit before rollouts stopped returning their final state (that
# commit matched the pins recorded while every open-loop step read its prediction
# out through a node of its own): the single readout over the concatenated H
# columns must reproduce them byte for byte.
JA_HEAD_DIGESTS = {
    ("gru-jadp", 1, 1): "ab016aacf18e757b739d2aa2c8b46dcb374e6e72568b8087fb839cee05bbeffb",
    ("gru-jadp", 1, 16): "86738bde03bc5cb4df0248ae0d8c87ece6ca47478c223fae558513ca8c8e3cff",
    ("gru-jadp", 16, 1): "1c3f5da090e2d3bac7c8e2177ab5e9cbb33193f82ab95dafe5565ae05b18825a",
    ("gru-jadp", 16, 16): "9669a88cf10cc2f4003ab3fb940f2f4641ebbd98580c5306586a6bab07d603d0",
    ("ja", 1, 1): "b76b82fb4aeab45d9546f0a17099f287d457c0a0f127d9aa149d53c3ab388802",
    ("ja", 1, 16): "eae700698d89919bde1546669e14461b05601395476725459e67295daadfbf40",
    ("ja", 16, 1): "3af9132591538da23afd1e364a54c707c866f68efd76d5ac06c92f5f06188e43",
    ("ja", 16, 16): "0429e7747cd8c369d0c52aa818a11c99d6342aa11dcb6112246329e714d89138",
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
    pred = rollout(config, params, inputs)
    frozen = rollout(config, wrap_params(init_params(config), False), inputs)
    assert frozen.data.tobytes() == pred.data.tobytes()
    batch_loss(config, params, batch, norm).backward()
    got = digest({"pred": pred.data, **{k: t.grad for k, t in params.items()}})
    assert got == JA_HEAD_DIGESTS[archetype, w, rows]


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
        r1 = evaluate_sequences(ckpt.config, ckpt.params, seqs[4:], ckpt.norm)
        r2 = evaluate_sequences(loaded.config, loaded.params, seqs[4:],
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

    def test_load_draws_no_model(self, tmp_path, monkeypatch):
        result = train(small_config(epochs=1, lambda_w=0.1), tiny_dataset(n=4))
        json_path, _ = save_checkpoint(tmp_path / "model", result.checkpoint())

        def refuse(*args, **kwargs):
            raise AssertionError("a checkpoint load drew a model")

        for module, name in [(training, "init_params"), (training, "init_head_params"),
                             (training, "init_ja_theta"), (heads, "init_head_params"),
                             (heads, "init_ja_theta"), (np.random, "default_rng")]:
            monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(CellParams, "init", classmethod(refuse))
        loaded = load_checkpoint(json_path)
        assert set(loaded.params) == set(result.params) and "theta_ja" in loaded.params
        for name, arr in loaded.params.items():
            assert arr.tobytes() == result.params[name].tobytes(), name

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
        report = evaluate_sequences(config, result.params, seqs,
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
