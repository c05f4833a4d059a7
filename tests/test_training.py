"""Training-loop tests: optimizer algebra, determinism, checkpoints, sweeps."""
import gc
import weakref

import numpy as np
import pytest

from conftest import digest
from hystkit.autodiff import _toposort
from hystkit.dataset import MeasuredSequence, compute_norm_constants, make_minibatches
from hystkit.heads import wrap_params
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
        ("eta", (np.nan,) * 5), ("eta", (1.0, 2.0)), ("eta", "abcde"), ("eta", (1, 2, 3, 4, 0)),
        ("eta", (1, 2, 3, 4, np.inf)), ("eta", (True,) * 5), ("eta", 3.0),
    ])
    def test_unusable_value_named(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be"):
            TrainConfig(**{name: value})


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
                                    result.norm, config.precision)
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
                                    result.norm, config.precision)
        assert np.isfinite(report.aggregate()["avg_sre"])

    def test_zero_regularization_weight_equals_plain_objective(self):
        from hystkit.dataset import compute_norm_constants, make_minibatches
        from hystkit.heads import wrap_params
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
        seqs = tiny_dataset()
        norm = compute_norm_constants(seqs)
        batch = make_minibatches(seqs, config.subseq_len, config.batch_size, [0, 1],
                                 config.warmup_length, norm)[0]
        loss = batch_loss(config, wrap_params(init_params(config)), batch, norm)
        loss.backward()
        return [weakref.ref(node) for node in _toposort(loss)]

    @pytest.mark.parametrize("archetype", ["gru-p", "lstm-p", "gru-jadp", "ja"])
    def test_loss_graph_freed_without_gc(self, archetype):
        config = small_config(archetype=archetype, d_g=6)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            refs = self._loss_graph_refs(config)
            alive = sum(ref() is not None for ref in refs)
        finally:
            if was_enabled:
                gc.enable()
        assert len(refs) > 100
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
        r1 = evaluate_sequences(ckpt.head_config(), ckpt.params, seqs[4:], ckpt.norm,
                                ckpt.precision)
        r2 = evaluate_sequences(loaded.head_config(), loaded.params, seqs[4:], loaded.norm,
                                loaded.precision)
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
                                    result.norm, config.precision)
        assert len(report.rows) == 5
        agg = report.aggregate()
        assert set(agg) == {f"{s}_{m}" for s in ("avg", "p95")
                            for m in MetricReport.METRICS}


class TestParetoSweep:
    def test_grid_cardinality_and_params_column(self):
        seqs = tiny_dataset(n=6)
        base = small_config(epochs=1)
        rows, medians = pareto_sweep(["gru-p"], [2, 4], [0, 1, 2], seqs[:4], seqs[4:],
                                     base_config=base)
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
        rows, _ = pareto_sweep(["gru-p"], [2], [0], seqs[:4], seqs[4:],
                               base_config=small_config(epochs=4, eval_every=2))
        assert rows[0]["status"] == "ok"
        assert calls == [2, 2]  # epochs 1 and 3, on the 2 eval sequences

    def test_empty_eval_set_refused(self):
        seqs = tiny_dataset(n=4)
        with pytest.raises(ConfigError, match="empty eval set"):
            pareto_sweep(["gru-p"], [2], [0], seqs, [], base_config=small_config(epochs=1))

    def test_failures_recorded_not_dropped(self):
        seqs = tiny_dataset(n=6)
        base = small_config(epochs=1)
        # gru-v rejects d_g=4 (not a valid grid size): the trial must fail loudly
        rows, medians = pareto_sweep(["gru-v"], [4], [0], seqs[:4], seqs[4:],
                                     base_config=base)
        assert len(rows) == 1
        assert rows[0]["status"].startswith("failed:")
        assert np.isnan(rows[0]["sre"])
        assert rows[0]["params"] == 112
        assert ("gru-v", 4) not in medians

    def test_failed_regularized_trial_counts_ja_parameters(self):
        seqs = tiny_dataset(n=6)
        # windows longer than every sequence: no batch, so the trial fails
        base = small_config(epochs=1, lambda_w=0.1, subseq_len=500)
        rows, _ = pareto_sweep(["gru-p"], [8], [0], seqs[:4], seqs[4:], base_config=base)
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
        pareto_sweep(["gru-p", "lstm-p", "ja"], [2], [0], seqs, seqs,
                     base_config=small_config(precision="double"))
        pareto_sweep(["gru-p", "ja"], [2], [0], seqs, seqs, base_config=TrainConfig())
        assert [(c.archetype, c.precision) for c in ran] == [
            ("gru-p", "double"), ("lstm-p", "double"), ("ja", "double"),
            ("gru-p", "single"), ("ja", "double")]
        assert all(c.d_g == 2 and c.subseq_len == 32 for c in ran[:3])

    def test_concurrent_workers_match_sequential(self):
        seqs = tiny_dataset(n=6)
        base = small_config(epochs=1)
        seq_rows, _ = pareto_sweep(["gru-p"], [2], [0, 1], seqs[:4], seqs[4:],
                                   base_config=base, workers=1)
        par_rows, _ = pareto_sweep(["gru-p"], [2], [0, 1], seqs[:4], seqs[4:],
                                   base_config=base, workers=2)
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
        with pytest.raises(TrainingError, match="no full batches: 3 sequences, l=32, b=16"):
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
