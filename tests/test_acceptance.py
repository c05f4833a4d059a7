"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines live. The
dataset-dependent reproduction (criterion 8) only runs when HSK_DATA_DIR
points at an ingested measurement dataset; everything else is self-contained
and synthetic. Budgets: the whole module stays well inside its per-criterion
runtime limits on a single desktop core.
"""
import contextlib
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import nested, scalar_gru_step, scalar_lstm_step
from hystkit.autodiff import Graph, Tensor, finite_diff_check
from hystkit.cells import (
    GruParams,
    LstmParams,
    gru_step,
    lstm_step,
)
from hystkit.dataset import compute_norm_constants, reversed_minibatches, list_materials, load_material, split_dataset
from hystkit.heads import (
    RolloutInputs,
    _inject,
    init_head_params,
    param_count,
    rollout,
    wrap_params,
)
from hystkit.metrics import batch_mean, mae, mse, nere, sre, wce, weighted_loss_rows
from hystkit.physics import (
    hysteron_states,
    init_preisach_params,
    preisach_predict,
)
from hystkit.synth import generate_ja_dataset, ja_generate_field
from hystkit.training import (
    AdamState,
    TrainConfig,
    batch_loss,
    evaluate_sequences,
    init_params,
    load_checkpoint,
    make_minibatches,
    optimizer_step,
    save_checkpoint,
    train,
    train_preisach,
)

TAU = 62.5e-9


@contextlib.contextmanager
def criterion(num: int, name: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:2d} {name}: PASS ({time.monotonic() - started:.1f}s)")


def test_c01_metric_exactness():
    with criterion(1, "metric exactness"):
        h = np.array([3.0, -4.0, 5.0, 1.0])
        assert abs(sre(h, h)) <= 1e-12
        assert abs(sre(2 * h, h) - 1.0) <= 1e-12
        assert abs(sre(np.zeros(4), h) - 1.0) <= 1e-12

        rng = np.random.default_rng(0)
        n = 24
        t = np.linspace(0.0, 2.0 * np.pi, n + 1)
        b_win = 0.3 * np.sin(t)          # closed: b_win[0] == b_win[-1]
        h_true = rng.standard_normal(n)
        h_full = np.concatenate([np.ones(5), h_true])
        b_full = np.concatenate([0.2 * np.ones(5), b_win[1:]])
        assert nere(h_true, h_true, b_win, h_full, b_full) == 0.0
        offset = nere(h_true + 3.7, h_true, b_win, h_full, b_full)
        assert abs(offset) <= 1e-10      # telescoping over the closed window


# -- criterion 2: gradients of the training objective through full rollouts --

def _window(rows=1, length=13, w=3, seed=0):
    """Shared non-degenerate window: a rising-then-falling flux fragment."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.7, 4.5, length)
    drive_norm = 0.62 * np.sin(t)[None, :].repeat(rows, axis=0)
    target_norm = 0.7 * np.sin(t - 0.4)[None, :].repeat(rows, axis=0)
    drive_norm += 0.02 * rng.standard_normal((rows, length))
    target_norm += 0.02 * rng.standard_normal((rows, length))
    target_norm = np.clip(target_norm, -0.95, 0.95)
    x = np.stack([drive_norm,
                  np.gradient(drive_norm, axis=1),
                  np.gradient(np.gradient(drive_norm, axis=1), axis=1),
                  np.full_like(drive_norm, 25.0 / 70.0)], axis=2)
    return RolloutInputs(
        x=x, drive_norm=drive_norm, target_warm_norm=target_norm[:, :w],
        drive_raw=0.25 * drive_norm, target_warm_raw=80.0 * target_norm[:, :w],
        target_max=80.0), target_norm


def _loss_fn_for(config: TrainConfig, inputs: RolloutInputs, target_norm):
    w = inputs.warmup_length
    names = sorted(init_head_params(config, 0))

    def fn(*tensors):
        params = dict(zip(names, tensors))
        pred = rollout(config, params, inputs)
        rows = weighted_loss_rows(target_norm[:, w:], pred, inputs.drive_norm[:, w - 1:],
                                  inputs.target_max, np.full(inputs.x.shape[0], 40.0))
        return batch_mean(rows)

    return fn, names


ARCHETYPE_GRADS = [
    ("gru-p", dict(d_g=4), 1e-5),
    ("gru-m", dict(d_g=4), 1e-5),
    ("gru-l", dict(d_g=4), 1e-5),
    ("lstm-p", dict(d_g=4), 1e-5),
    ("gru-v", dict(d_g=8), 1e-5),
    ("gru-jadp", dict(d_g=6), 1e-4),  # relaxed: flux-direction switch in the window
    ("ja", dict(d_g=1), 1e-4),
]

#: Central differences carry coordinate-dependent noise: truncation favors
#: small steps, rounding of near-zero directional derivatives favors large
#: ones. A coordinate counts as verified once any step size certifies it
#: within tolerance; a wrong analytic gradient fails at every step size.
FD_EPSILONS = (1e-5, 1e-4, 1e-6, 1e-3)


def _fd_certify(graph: Graph, leaves, tol: float, epsilons=FD_EPSILONS) -> float:
    """Max over coordinates of the best relative FD mismatch (short-circuited)."""
    arrays = [np.asarray(x, dtype=np.float64) for x in leaves]
    graph.forward([a.copy() for a in arrays])
    analytic = graph.backward()

    def value(xs):
        return float(graph.forward(xs)[0])

    worst = 0.0
    for j, base in enumerate(arrays):
        flat = base.reshape(-1)
        a_flat = analytic[j].reshape(-1)
        for idx in range(flat.size):
            best = np.inf
            for eps in epsilons:
                orig = flat[idx]
                flat[idx] = orig + eps
                f_plus = value(arrays)
                flat[idx] = orig - eps
                f_minus = value(arrays)
                flat[idx] = orig
                numeric = (f_plus - f_minus) / (2.0 * eps)
                a = float(a_flat[idx])
                best = min(best, abs(a - numeric) / max(abs(a), abs(numeric), 1e-12))
                if best < tol:
                    break
            worst = max(worst, best)
    return worst


def test_c02_gradient_correctness():
    with criterion(2, "gradient correctness (all archetypes + preisach)"):
        inputs, target_norm = _window()
        for archetype, extra, tol in ARCHETYPE_GRADS:
            config = TrainConfig(archetype, warmup_length=inputs.warmup_length, **extra)
            fn, names = _loss_fn_for(config, inputs, target_norm)
            graph = Graph(fn, len(names))
            worst = 0.0
            for point in range(5):
                arrays = init_head_params(config, [100, point])
                worst = max(worst, _fd_certify(graph, [arrays[n] for n in names], tol))
            assert worst < tol, f"{archetype}: gradient mismatch {worst:.2e} >= {tol}"

        # preisach trains in the flux-from-field direction; same objective shape
        params = init_preisach_params(n_levels=5)
        drive = target_norm  # field drive
        target = inputs.drive_norm  # flux target
        w = inputs.warmup_length

        def preisach_fn(mu, omega):
            pred = preisach_predict(drive, params, mu, omega)
            rows = weighted_loss_rows(target[:, w:], pred[:, w:], drive[:, w - 1:],
                                      0.25, np.full(drive.shape[0], 0.1))
            return batch_mean(rows)

        graph = Graph(preisach_fn, 2)
        rng = np.random.default_rng(200)
        worst = 0.0
        for _ in range(5):
            mu = rng.uniform(0.0, 0.1, params.n_hysterons)
            omega = rng.uniform(-0.5, 0.5, 3)
            worst = max(worst, finite_diff_check(graph, [mu, omega], epsilon=1e-5))
        assert worst < 1e-5, f"preisach: gradient mismatch {worst:.2e}"


def test_c03_cell_oracle_equivalence():
    with criterion(3, "cell oracle equivalence (100 random cases)"):
        rng = np.random.default_rng(300)
        for case in range(100):
            d_g = int(rng.integers(1, 7))
            d_x = int(rng.integers(1, 6))
            x = rng.uniform(-2, 2, (1, d_x))
            g_prev = rng.uniform(-1, 1, (1, d_g))
            if case % 2 == 0:
                p = GruParams.init(d_g, d_x, rng)
                out = gru_step(Tensor(x), Tensor(g_prev), p.map(Tensor))
                ref = scalar_gru_step(nested(x[0]), nested(g_prev[0]),
                                      {k: nested(v) for k, v in p.as_dict().items()})
                np.testing.assert_allclose(out.data[0], ref, atol=1e-12, rtol=0)
            else:
                c_prev = rng.uniform(-1, 1, (1, d_g))
                p = LstmParams.init(d_g, d_x, rng)
                g, c = lstm_step(Tensor(x), Tensor(g_prev), Tensor(c_prev), p.map(Tensor))
                g_ref, c_ref = scalar_lstm_step(nested(x[0]), nested(g_prev[0]), nested(c_prev[0]),
                                                {k: nested(v) for k, v in p.as_dict().items()})
                np.testing.assert_allclose(g.data[0], g_ref, atol=1e-12, rtol=0)
                np.testing.assert_allclose(c.data[0], c_ref, atol=1e-12, rtol=0)


def test_c04_warmup_contract():
    with criterion(4, "warmup contract (slice identity + roundtrips)"):
        # injection touches element 0 only, at every warmup step
        rng = np.random.default_rng(400)
        config = TrainConfig("gru-p", d_g=6, warmup_length=5)
        arrays = init_head_params(config, 4)
        inputs, target_norm = _window(length=12, w=5, seed=4)
        p = GruParams(**wrap_params(arrays))
        g = Tensor(np.concatenate([inputs.target_warm_norm[:, 0:1], np.zeros((1, 5))], axis=1))
        for t in range(1, 5):
            stepped = gru_step(Tensor(inputs.x[:, t, :]), g, p)
            injected = _inject(stepped, inputs.target_warm_norm[:, t:t + 1])
            assert injected.data[:, 1:].tobytes() == stepped.data[:, 1:].tobytes()
            assert injected.data[0, 0] == inputs.target_warm_norm[0, t]
            g = injected

        # magnetization / permeability warmups invert their readouts
        for archetype, drive_level, target_level in [("gru-m", 0.3, 0.21), ("gru-l", 0.4, 0.3)]:
            config = TrainConfig(archetype, d_g=4, warmup_length=2)
            arrays = init_head_params(config, 5)
            arrays["b_z"] = np.full(4, 50.0)  # freeze the state across the step
            inputs = RolloutInputs(
                x=np.zeros((1, 3, 4)),
                drive_norm=np.full((1, 3), drive_level),
                target_warm_norm=np.full((1, 2), target_level))
            pred = rollout(config, wrap_params(arrays), inputs)
            assert abs(pred.data[0, 0] - target_level) <= 1e-10, archetype


def test_c05_ja_physical_sanity():
    with criterion(5, "JA loop closure, positive area, flux-hold invariance"):
        f = 100e3
        n = int(round(1.0 / (f * TAU)))
        t = np.arange(4 * n + 1) * TAU  # 3 settling periods + 1 measured
        b = 0.25 * np.sin(2 * np.pi * f * t)
        h = ja_generate_field(b[None, :])[0]
        b_loop, h_loop = b[-n - 1:], h[-n - 1:]
        gap = abs(h_loop[-1] - h_loop[0])
        assert gap < 0.01 * np.max(np.abs(h_loop))
        assert np.trapezoid(h_loop, b_loop) > 0.0

        # constant-flux segment: the field must hold exactly
        b_hold = np.concatenate([b[:n // 2], np.full(40, b[n // 2 - 1]), b[n // 2:n]])
        h_hold = ja_generate_field(b_hold[None, :])[0]
        seg = h_hold[n // 2 - 1:n // 2 + 40]
        assert np.all(seg == seg[0])


def test_c06_preisach_sanity():
    with criterion(6, "preisach bounds, wiping-out, loop opening"):
        params = init_preisach_params(n_levels=5)
        rng = np.random.default_rng(600)
        total = 0
        for _ in range(20):  # 20 chunks x 5000 sequences of length 12
            h = rng.uniform(-2.0, 2.0, size=(5000, 12))
            states = hysteron_states(h, params)
            assert states.min() >= -1.0 and states.max() <= 1.0
            total += h.shape[0]
        assert total == 100_000

        sweep = np.concatenate([np.linspace(-1.5, 1.5, 30), np.linspace(1.5, -1.5, 30)])
        final = hysteron_states(sweep[None, :], params)[0, -1]
        assert np.all(np.abs(final + 1.0) < 1e-6)

        loop_params = init_preisach_params(n_levels=9)
        loop_params.mu = np.abs(loop_params.mu) + 0.01
        loop_params.omega = np.array([0.0, 0.2, 0.6])
        up = np.linspace(-1, 1, 41)
        h = np.concatenate([up, up[::-1][1:]])
        pred = preisach_predict(h, loop_params).data
        mid_up = pred[20]
        mid_down = pred[len(up) - 1 + (len(up) - 1 - 20)]
        assert abs(mid_up - mid_down) > 1e-3


def test_c07_synthetic_overfit():
    with criterion(7, "synthetic overfit: 8-cell model reaches SRE < 5%"):
        seqs = generate_ja_dataset(n_sequences=20, length=640, seed=7)
        config = TrainConfig(archetype="gru-p", d_g=8, subseq_len=128, batch_size=16,
                             epochs=500, lr=2e-2, seed=0, warmup_length=16,
                             precision="double")
        assert param_count("gru-p", 8, 4) == 320  # formula-exact count
        norm = compute_norm_constants(seqs)
        params = init_params(config)
        adam = AdamState()
        deadline = time.monotonic() + 600.0  # 10 min budget
        reached = None
        for epoch in range(config.epochs):
            for batch in make_minibatches(seqs, config.subseq_len, config.batch_size,
                                          [config.seed, 1, epoch], config.warmup_length, norm):
                params_t = wrap_params(params)
                loss = batch_loss(config, params_t, batch, norm)
                loss.backward()
                params, adam = optimizer_step(params, {k: t.grad for k, t in params_t.items()},
                                              adam, config.lr, config.clip_norm)
            if (epoch + 1) % 25 == 0:
                report = evaluate_sequences(config, params, seqs, norm)
                current = report.aggregate()["avg_sre"]
                if current < 0.05:
                    reached = (epoch + 1, current)
                    break
                assert time.monotonic() < deadline, "10-minute budget exceeded"
        assert reached is not None, "training SRE never dropped below 5% in 500 epochs"
        print(f"  overfit check: SRE {reached[1]:.4f} at epoch {reached[0]}", end=" ")


def _dataset_materials():
    root = os.environ.get("HSK_DATA_DIR")
    if not root or not Path(root).is_dir():
        return None, []
    try:
        return Path(root), list_materials(root)
    except Exception:
        return None, []


@pytest.mark.skipif(_dataset_materials()[0] is None,
                    reason="HSK_DATA_DIR with an ingested measurement dataset not present")
def test_c08_measured_dataset_reproduction():
    with criterion(8, "measured-data reproduction (per-material thresholds)"):
        root, materials = _dataset_materials()
        results = {}
        for material in materials:
            sequences = load_material(root, material)
            train_seqs, eval_seqs, test_seqs = split_dataset(sequences, seed=0)
            config = TrainConfig(archetype="gru-p", d_g=8, subseq_len=256, batch_size=32,
                                 epochs=200, lr=2e-2, seed=0, warmup_length=16,
                                 precision="double", eval_every=5, patience=8)
            result = train(config, train_seqs, eval_seqs)
            report = evaluate_sequences(config, result.params,
                                        test_seqs or eval_seqs, result.norm)
            agg = report.aggregate()
            results[material] = (agg["avg_sre"], agg["avg_nere"])
        print("\n  material        avg SRE   avg NERE")
        for material, (s, n) in results.items():
            print(f"  {material:<14s} {s:8.4f} {n:10.5f}")
        for material, (s, n) in results.items():
            assert s <= 0.15, f"{material}: avg SRE {s:.4f} > 15%"
            assert abs(n) <= 0.04, f"{material}: avg |NERE| {abs(n):.4f} > 4%"


def test_c09_preliminary_comparison():
    with criterion(9, "flux-prediction comparison: small recurrent vs preisach"):
        seqs = generate_ja_dataset(n_sequences=30, length=640, seed=11)
        train_seqs, test_seqs = seqs[:24], seqs[24:]
        norm = compute_norm_constants(train_seqs)
        w = 16

        config = TrainConfig("gru-p", d_g=8, warmup_length=w)
        assert param_count("gru-p", 8, 1) == 248
        params = GruParams.init(8, 1, np.random.default_rng([0, 0])).as_dict()
        adam = AdamState()
        for epoch in range(200):
            for batch in reversed_minibatches(train_seqs, 128, 16, [0, 1, epoch], w, norm):
                params_t = wrap_params(params)
                inputs = RolloutInputs(x=batch.x, drive_norm=batch.b_norm,
                                       target_warm_norm=batch.h_norm[:, :w])
                pred = rollout(config, params_t, inputs)
                rows = weighted_loss_rows(batch.h_norm[:, w:], pred, batch.b_norm[:, w - 1:],
                                          norm.b_max, batch.h_rms)
                loss = batch_mean(rows)
                loss.backward()
                params, adam = optimizer_step(params, {k: t.grad for k, t in params_t.items()},
                                              adam, 1e-2, 1.0)

        def recurrent_metrics():
            scores = {"mse": [], "mae": [], "wce": []}
            frozen = wrap_params(params, requires_grad=False)
            for seq in test_seqs:
                h_norm = (seq.h / norm.h_max)[None, :]
                b_norm = (seq.b / norm.b_max)[None, :]
                inputs = RolloutInputs(x=h_norm[:, :, None], drive_norm=h_norm,
                                       target_warm_norm=b_norm[:, :w])
                pred = rollout(config, frozen, inputs)
                scores["mse"].append(mse(pred.data[0], b_norm[0, w:]))
                scores["mae"].append(mae(pred.data[0], b_norm[0, w:]))
                scores["wce"].append(wce(pred.data[0], b_norm[0, w:]))
            return {k: float(np.mean(v)) for k, v in scores.items()}

        preisach = init_preisach_params(n_levels=25, rng=np.random.default_rng(0))
        assert preisach.count() == 328
        preisach, _ = train_preisach(preisach, train_seqs, norm, subseq_len=128,
                                     batch_size=16, epochs=100, lr=1e-2, seed=0,
                                     warmup_length=w)

        def preisach_metrics():
            scores = {"mse": [], "mae": [], "wce": []}
            for seq in test_seqs:
                pred = preisach_predict(seq.h / norm.h_max, preisach).data
                b_norm = seq.b / norm.b_max
                scores["mse"].append(mse(pred[w:], b_norm[w:]))
                scores["mae"].append(mae(pred[w:], b_norm[w:]))
                scores["wce"].append(wce(pred[w:], b_norm[w:]))
            return {k: float(np.mean(v)) for k, v in scores.items()}

        r = recurrent_metrics()
        p = preisach_metrics()
        print(f"\n  gru-p(248p):    MSE {r['mse']:.5f} MAE {r['mae']:.5f} WCE {r['wce']:.5f}")
        print(f"  preisach(328p): MSE {p['mse']:.5f} MAE {p['mae']:.5f} WCE {p['wce']:.5f}", end=" ")
        for key in ("mse", "mae", "wce"):
            assert r[key] < p[key], f"recurrent model not strictly better on {key}"


def test_c10_end_to_end_determinism(tmp_path):
    with criterion(10, "end-to-end determinism: bit-identical artifacts"):
        seqs = generate_ja_dataset(n_sequences=8, length=128, seed=13)
        for s in seqs:
            s.f_sw_hz = 100e3
            s.temperature_c = 25.0
        config_kwargs = dict(archetype="gru-p", d_g=4, subseq_len=32, batch_size=4,
                             epochs=3, lr=3e-3, seed=9, warmup_length=4,
                             precision="double")
        artifacts = []
        for run in ("a", "b"):
            config = TrainConfig(**config_kwargs)
            train_seqs, eval_seqs, test_seqs = split_dataset(seqs, seed=0)
            result = train(config, train_seqs, eval_seqs)
            json_path, bin_path = save_checkpoint(tmp_path / f"model_{run}", result.checkpoint())
            report = evaluate_sequences(config, result.params, test_seqs,
                                        result.norm)
            artifacts.append((bin_path.read_bytes(), json_path.read_text(), report.to_json()))
        blobs_a, header_a, report_a = artifacts[0]
        blobs_b, header_b, report_b = artifacts[1]
        assert blobs_a == blobs_b
        assert header_a.replace("model_a", "model_x") == header_b.replace("model_b", "model_x")
        assert report_a == report_b
        loaded = load_checkpoint(tmp_path / "model_a.json")
        assert loaded.count_params() == param_count("gru-p", 4, 4)
