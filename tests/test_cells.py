"""Cell tests: gate algebra, scalar-loop oracle equivalence, sequence kernels, parameter counts."""
import tracemalloc

import numpy as np
import pytest

from conftest import nested, scalar_gru_step, scalar_lstm_step, tape_gru_step, tape_lstm_step
from hystkit.autodiff import Graph, ShapeError, Tensor, finite_diff_check, mul, tsum
from hystkit.cells import (
    FROZEN_CHUNK,
    GruParams,
    LstmParams,
    gru_sequence,
    gru_step,
    lstm_sequence,
    lstm_step,
)
from hystkit.dataset import FEATURE_WIDTH
from hystkit.heads import init_head_params, param_count
from hystkit.training import TrainConfig


def wrap(container):
    return container.map(lambda a: Tensor(a))


def zero_gru(d_g, d_x):
    return GruParams.init(d_g, d_x, np.random.default_rng(0)).map(np.zeros_like)


def zero_lstm(d_g, d_x):
    return LstmParams.init(d_g, d_x, np.random.default_rng(0)).map(np.zeros_like)


class TestGruStep:
    def test_zero_params_halve_state(self):
        g_prev = np.array([[0.4, -0.8, 0.2]])
        out = gru_step(Tensor(np.array([[0.3, 0.1]])), Tensor(g_prev), wrap(zero_gru(3, 2)))
        np.testing.assert_allclose(out.data, 0.5 * g_prev, atol=1e-15)

    def test_saturated_update_gate_keeps_state(self):
        p = zero_gru(3, 2)
        p.b_z = np.full(3, 50.0)
        g_prev = np.array([[0.4, -0.8, 0.2]])
        out = gru_step(Tensor(np.array([[0.3, 0.1]])), Tensor(g_prev), wrap(p))
        np.testing.assert_array_equal(out.data, g_prev)  # z == 1 exactly at 50

    def test_closed_update_gate_returns_candidate(self):
        rng = np.random.default_rng(4)
        p = GruParams.init(3, 2, rng)
        p.b_z = np.full(3, -50.0)
        x = rng.standard_normal((1, 2))
        g_prev = rng.standard_normal((1, 3))
        out = gru_step(Tensor(x), Tensor(g_prev), wrap(p))
        # with z == 0 the output equals the candidate, recomputed here directly
        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        r = sig(x @ p.w_r.T + p.b_r + g_prev @ p.u_r.T)
        cand = np.tanh(x @ p.w.T + p.b + r * (g_prev @ p.u.T + p.b_n))
        np.testing.assert_allclose(out.data, cand, atol=1e-12)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(11)
        p = GruParams.init(3, 2, rng)
        x = rng.standard_normal((1, 2))
        g_prev = rng.uniform(-1, 1, (1, 3))
        out = gru_step(Tensor(x), Tensor(g_prev), wrap(p))
        ref = scalar_gru_step(nested(x[0]), nested(g_prev[0]),
                              {k: nested(v) for k, v in p.as_dict().items()})
        np.testing.assert_allclose(out.data[0], ref, atol=1e-12, rtol=0)

    def test_gates_bounded(self):
        rng = np.random.default_rng(12)
        p = GruParams.init(4, 4, rng)
        for _ in range(20):
            x = Tensor(rng.uniform(-3, 3, (2, 4)))
            g_prev = Tensor(rng.uniform(-1, 1, (2, 4)))
            out = gru_step(x, g_prev, wrap(p))
            # the new state is a convex combination of g_prev and a tanh value
            bound = np.maximum(np.abs(g_prev.data), 1.0)
            assert np.all(np.abs(out.data) <= bound + 1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            gru_step(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 3))), wrap(zero_gru(3, 2)))

    def test_gradients_all_param_families(self):
        rng = np.random.default_rng(13)
        base = GruParams.init(3, 2, rng)
        names = GruParams.names()
        x = rng.standard_normal((1, 2))
        g_prev = rng.uniform(-0.8, 0.8, (1, 3))

        def fn(*tensors):
            p = GruParams(**dict(zip(names, tensors)))
            out = gru_step(Tensor(x), Tensor(g_prev), p)
            return (out * out).sum()

        graph = Graph(fn, len(names))
        err = finite_diff_check(graph, [base.as_dict()[n] for n in names])
        assert err < 1e-6


class TestLstmStep:
    def test_zero_params(self):
        c_prev = np.array([[0.6, -0.4]])
        g, c = lstm_step(Tensor(np.array([[0.2]])), Tensor(np.zeros((1, 2))),
                         Tensor(c_prev), wrap(zero_lstm(2, 1)))
        np.testing.assert_allclose(c.data, 0.5 * c_prev, atol=1e-15)
        np.testing.assert_allclose(g.data, 0.5 * np.tanh(0.5 * c_prev), atol=1e-15)

    def test_perfect_memory_gates(self):
        p = zero_lstm(2, 1)
        p.b_f = np.full(2, 50.0)
        p.b_i = np.full(2, -50.0)
        c_prev = np.array([[0.6, -0.4]])
        _, c = lstm_step(Tensor(np.array([[0.9]])), Tensor(np.zeros((1, 2))),
                         Tensor(c_prev), wrap(p))
        np.testing.assert_array_equal(c.data, c_prev)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(21)
        p = LstmParams.init(3, 2, rng)
        x = rng.standard_normal((1, 2))
        g_prev = rng.uniform(-1, 1, (1, 3))
        c_prev = rng.uniform(-1, 1, (1, 3))
        g, c = lstm_step(Tensor(x), Tensor(g_prev), Tensor(c_prev), wrap(p))
        g_ref, c_ref = scalar_lstm_step(nested(x[0]), nested(g_prev[0]), nested(c_prev[0]),
                                        {k: nested(v) for k, v in p.as_dict().items()})
        np.testing.assert_allclose(g.data[0], g_ref, atol=1e-12, rtol=0)
        np.testing.assert_allclose(c.data[0], c_ref, atol=1e-12, rtol=0)

    def test_missing_cell_state(self):
        with pytest.raises(ShapeError):
            lstm_step(Tensor(np.zeros((1, 1))), Tensor(np.zeros((1, 2))), None, wrap(zero_lstm(2, 1)))

    def test_gradients_all_param_families(self):
        rng = np.random.default_rng(22)
        base = LstmParams.init(2, 2, rng)
        names = LstmParams.names()
        x = rng.standard_normal((1, 2))
        g_prev = rng.uniform(-0.8, 0.8, (1, 2))
        c_prev = rng.uniform(-0.8, 0.8, (1, 2))

        def fn(*tensors):
            p = LstmParams(**dict(zip(names, tensors)))
            g, c = lstm_step(Tensor(x), Tensor(g_prev), Tensor(c_prev), p)
            return (g * g).sum() + (c * c).sum()

        graph = Graph(fn, len(names))
        err = finite_diff_check(graph, [base.as_dict()[n] for n in names])
        assert err < 1e-6


def _case(lstm, rows, d_g, d_x, dtype, seed):
    """Random step operands as arrays: ([x, g_prev] or [x, g_prev, c_prev], params container)."""
    rng = np.random.default_rng(seed)
    init = (LstmParams if lstm else GruParams).init
    p = init(d_g, d_x, rng, dtype)
    p = p.map(lambda a: (a + rng.uniform(-0.3, 0.3, a.shape)).astype(dtype))  # nonzero biases
    states = [rng.uniform(-2, 2, (rows, d_x)), rng.uniform(-1, 1, (rows, d_g))]
    if lstm:
        states.append(rng.uniform(-1.5, 1.5, (rows, d_g)))
    return [a.astype(dtype) for a in states], p


def _run(step, states, p, requires_grad=True):
    """Apply ``step`` to fresh leaves; returns (state leaves, param container of leaves, outputs)."""
    leaves = [Tensor(a, requires_grad=requires_grad) for a in states]
    params = p.map(lambda a: Tensor(a, requires_grad=requires_grad))
    out = step(*leaves, params)
    return leaves, params, out if isinstance(out, tuple) else (out,)


SHAPES = [(1, 1), (3, 2), (8, 4), (5, 1)]


def _assert_gradients_match(got: dict, want: dict) -> None:
    """Double-precision gradients against a tape reference's: each within 1e-12 of the
    reference's largest magnitude, and None where the reference's is None (the output
    gate's arrays when only an LSTM cell state is consumed)."""
    assert got.keys() == want.keys()
    for name in want:
        if want[name] is None:
            assert got[name] is None, name
            continue
        scale = np.max(np.abs(want[name]))
        assert got[name].shape == want[name].shape, name
        assert np.max(np.abs(got[name] - want[name])) <= 1e-12 * scale, name


class TestFusedStepOracle:
    """The one-node cell steps against their primitive-by-primitive tape references."""

    @pytest.mark.parametrize("lstm", [False, True], ids=["gru", "lstm"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["single", "double"])
    @pytest.mark.parametrize("rows", [1, 16])
    @pytest.mark.parametrize("d_g, d_x", SHAPES)
    def test_forward_bit_identical(self, lstm, dtype, rows, d_g, d_x):
        states, p = _case(lstm, rows, d_g, d_x, dtype, seed=d_g * 10 + d_x)
        fused, ref = (lstm_step, tape_lstm_step) if lstm else (gru_step, tape_gru_step)
        _, _, out = _run(fused, states, p)
        _, _, out_ref = _run(ref, states, p)
        for a, b in zip(out, out_ref):
            assert a.data.dtype == b.data.dtype == dtype
            assert a.data.tobytes() == b.data.tobytes()

    @staticmethod
    def _gradients(step, states, p, consume, probes):
        leaves, params, out = _run(step, states, p)
        total = None
        for keep, o, probe in zip(consume, out, probes):
            if keep:
                term = tsum(mul(o, Tensor(probe)))
                total = term if total is None else total + term
        total.backward()
        named = dict(zip(["x", "g_prev", "c_prev"], leaves), **params.as_dict())
        return {k: t.grad for k, t in named.items()}

    @pytest.mark.parametrize("lstm, consume", [(False, (True,)), (True, (True, False)),
                                               (True, (False, True)), (True, (True, True))],
                             ids=["gru", "lstm-hidden", "lstm-cell", "lstm-both"])
    @pytest.mark.parametrize("rows", [1, 16])
    @pytest.mark.parametrize("d_g, d_x", SHAPES)
    def test_gradients_match_tape(self, lstm, consume, rows, d_g, d_x):
        states, p = _case(lstm, rows, d_g, d_x, np.float64, seed=d_g * 10 + d_x + 1)
        rng = np.random.default_rng(rows)
        probes = [rng.standard_normal((rows, d_g)) for _ in consume]
        fused, ref = (lstm_step, tape_lstm_step) if lstm else (gru_step, tape_gru_step)
        _assert_gradients_match(self._gradients(fused, states, p, consume, probes),
                                self._gradients(ref, states, p, consume, probes))

    @pytest.mark.parametrize("lstm", [False, True], ids=["gru", "lstm"])
    @pytest.mark.parametrize("bad", ["rows", "dtype", "ndim"])
    def test_bad_operands_rejected(self, lstm, bad):
        states, p = _case(lstm, 4, 3, 2, np.float64, seed=5)
        states[1] = {"rows": states[1][:3], "dtype": states[1].astype(np.float32),
                     "ndim": states[1][0]}[bad]
        with pytest.raises(ShapeError):
            _run(lstm_step if lstm else gru_step, states, p)

    @pytest.mark.parametrize("lstm", [False, True], ids=["gru", "lstm"])
    def test_frozen_step_records_no_parents(self, lstm):
        states, p = _case(lstm, 4, 3, 2, np.float64, seed=3)
        _, _, out = _run(lstm_step if lstm else gru_step, states, p, requires_grad=False)
        for o in out:
            assert not o.requires_grad
            assert o._parents == () and o._backward is None


class TestSequenceOracle:
    """The whole-sequence kernels against T chained step calls, byte for byte, and
    against T chained tape references, which share no code with the step bodies.

    The loss reads the kept hidden elements of every step through a fixed
    random probe, so every per-step gradient path is exercised.
    """

    @staticmethod
    def _case(lstm, rows, d_x, d_g, steps, dtype):
        rng = np.random.default_rng([rows, d_x, d_g, steps, int(lstm)])
        p = (LstmParams if lstm else GruParams).init(d_g, d_x, rng, dtype)
        p = p.map(lambda a: (a + rng.uniform(-0.3, 0.3, a.shape)).astype(dtype))
        x = rng.uniform(-2, 2, (rows, steps, d_x))  # cast to dtype per step by both sides
        states = [rng.uniform(-1, 1, (rows, d_g)).astype(dtype) for _ in range(1 + lstm)]
        probe = rng.standard_normal((rows, steps, d_g)).astype(dtype)
        return p, x, states, probe

    @staticmethod
    def _run(chain, lstm, p, x, states, probe, trainable_state, keep=slice(None)):
        """The kept trajectory and the gradients of the initial states and the
        parameters, from the kernel (``chain`` None) or from T calls of the step
        function ``chain``."""
        params = p.map(lambda a: Tensor(a, requires_grad=True))
        leaves = [Tensor(a, requires_grad=trainable_state) for a in states]
        probe_kept = probe[:, :, keep]
        if chain is None:
            kept = (lstm_sequence(x, *leaves, params, keep) if lstm
                    else gru_sequence(x, leaves[0], params, keep))
            hidden = kept.data
            loss = tsum(mul(kept, Tensor(probe_kept)))
        else:
            g = leaves[0]
            cell = leaves[1] if lstm else None
            loss, hidden = None, []
            for t in range(x.shape[1]):
                x_t = Tensor(x[:, t].astype(p.as_dict()["b_" + ("i" if lstm else "z")].dtype))
                if lstm:
                    g, cell = chain(x_t, g, cell, params)
                else:
                    g = chain(x_t, g, params)
                term = tsum(mul(g[:, keep], Tensor(probe_kept[:, t])))
                loss = term if loss is None else loss + term
                hidden.append(g.data[:, keep])
            hidden = np.stack(hidden, axis=1)
        loss.backward()
        grads = dict(zip(["g0", "c0"], (leaf.grad for leaf in leaves)),
                     **{k: t.grad for k, t in params.as_dict().items()})
        return hidden, grads

    @staticmethod
    def _assert_byte_equal(got, want, dtype):
        assert got[0].dtype == want[0].dtype == dtype and got[0].shape == want[0].shape
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].keys() == want[1].keys()
        for name, g in want[1].items():
            if g is None:
                assert got[1][name] is None, name
                continue
            assert got[1][name].dtype == g.dtype and got[1][name].shape == g.shape, name
            assert got[1][name].tobytes() == g.tobytes(), name

    @pytest.mark.parametrize("trainable_state", [False, True], ids=["frozen-state", "state"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["single", "double"])
    @pytest.mark.parametrize("steps", [1, 2, FROZEN_CHUNK - 1, FROZEN_CHUNK, FROZEN_CHUNK + 1,
                                       37])
    @pytest.mark.parametrize("d_g", [1, 5, 8, 16])
    @pytest.mark.parametrize("d_x", [1, 4])
    @pytest.mark.parametrize("rows", [1, 16])
    @pytest.mark.parametrize("lstm", [False, True], ids=["gru", "lstm"])
    def test_byte_equal_to_chained_steps(self, lstm, rows, d_x, d_g, steps, dtype,
                                         trainable_state):
        case = self._case(lstm, rows, d_x, d_g, steps, dtype)
        got = self._run(None, lstm, *case, trainable_state)
        self._assert_byte_equal(got, self._run(lstm_step if lstm else gru_step, lstm, *case,
                                               trainable_state), dtype)
        tape = self._run(tape_lstm_step if lstm else tape_gru_step, lstm, *case, trainable_state)
        assert got[0].tobytes() == tape[0].tobytes()
        if dtype == np.float64:
            _assert_gradients_match(got[1], tape[1])

    @pytest.mark.parametrize("trainable_state", [False, True], ids=["frozen-state", "state"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["single", "double"])
    @pytest.mark.parametrize("keep", [0, 3, slice(0, None, 2), slice(1, 4)],
                             ids=["first", "fourth", "even", "block"])
    @pytest.mark.parametrize("rows", [1, 16])
    @pytest.mark.parametrize("lstm", [False, True], ids=["gru", "lstm"])
    def test_kept_elements_byte_equal_to_chained_steps(self, lstm, rows, keep, dtype,
                                                       trainable_state):
        """A kernel that records only the elements ``keep`` gives the chained steps'
        values there and their gradients."""
        case = self._case(lstm, rows, 4, 8, 37, dtype)
        got = self._run(None, lstm, *case, trainable_state, keep)
        assert got[0].shape == (rows, 37) + np.empty((1, 8))[:, keep].shape[1:]
        self._assert_byte_equal(got, self._run(lstm_step if lstm else gru_step, lstm, *case,
                                               trainable_state, keep), dtype)

    @pytest.mark.parametrize("lstm", [False, True], ids=["gru", "lstm"])
    def test_frozen_call_records_nothing_and_stores_no_steps(self, lstm):
        p, x, states, _ = self._case(lstm, 16, 4, 8, 400, np.float64)
        rows, steps, d_g = 16, 400, 8
        per_step = rows * d_g * 8

        def peak(requires_grad):
            params = p.map(lambda a: Tensor(a, requires_grad=requires_grad))
            leaves = [Tensor(a) for a in states]
            tracemalloc.start()
            try:
                out = (lstm_sequence(x, *leaves, params) if lstm
                       else gru_sequence(x, leaves[0], params))
                return tracemalloc.get_traced_memory()[1], out
            finally:
                tracemalloc.stop()

        frozen_peak, out = peak(False)
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
        # the trajectory plus a few steps' temporaries, not one set of arrays per step
        assert frozen_peak < steps * per_step + 64 * per_step
        trained_peak, _ = peak(True)
        assert trained_peak > 4 * steps * per_step

    @pytest.mark.parametrize("rows, steps, dtype", [
        (16, FROZEN_CHUNK - 1, np.float64), (16, FROZEN_CHUNK, np.float64),
        (16, FROZEN_CHUNK + 1, np.float64), (1, 3 * FROZEN_CHUNK + 2, np.float32),
        (60, 1008, np.float32)])
    @pytest.mark.parametrize("lstm", [False, True], ids=["gru", "lstm"])
    def test_frozen_call_byte_equal_to_chained_frozen_steps(self, lstm, rows, steps, dtype):
        """A call without gradients projects its inputs a few steps at a time; every
        chunk's steps give the chained steps' bytes, and those of a trained call, whose
        one block is every step."""
        p, x, states, _ = self._case(lstm, rows, 4, 8, steps, dtype)
        leaves = [Tensor(a) for a in states]

        def kept(params):
            return (lstm_sequence(x, *leaves, params) if lstm
                    else gru_sequence(x, leaves[0], params)).data

        params = wrap(p)
        got = kept(params)
        assert got.tobytes() == kept(p.map(lambda a: Tensor(a, requires_grad=True))).tobytes()
        g, cell = leaves[0], leaves[-1]
        want = []
        for t in range(steps):
            x_t = Tensor(x[:, t].astype(dtype))
            if lstm:
                g, cell = lstm_step(x_t, g, cell, params)
            else:
                g = gru_step(x_t, g, params)
            want.append(g.data)
        assert got.dtype == dtype
        assert got.tobytes() == np.stack(want, axis=1).tobytes()

    @pytest.mark.parametrize("lstm, ceiling", [(False, 17), (True, 20)], ids=["gru", "lstm"])
    def test_trained_call_memory_ceiling(self, lstm, ceiling):
        """The traced peak of a trained call's forward and backward, in units of one
        step's hidden state. Recording one set of arrays per step and forming the
        parameter gradients step by step peaked at 11.7 units (gru) and 13.6 (lstm); the
        time-batched blocks may add at most half of that."""
        p, x, states, probe = self._case(lstm, 16, 4, 8, 400, np.float64)
        unit = 400 * 16 * 8 * 8
        params = p.map(lambda a: Tensor(a, requires_grad=True))
        leaves = [Tensor(a) for a in states]
        probe_kept = Tensor(probe[:, :, 0])
        tracemalloc.start()
        try:
            kept = (lstm_sequence(x, *leaves, params, 0) if lstm
                    else gru_sequence(x, leaves[0], params, 0))
            tsum(mul(kept, probe_kept)).backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert params.as_dict()["u_" + ("i" if lstm else "z")].grad is not None
        assert peak < ceiling * unit

    @pytest.mark.parametrize("lstm", [False, True], ids=["gru", "lstm"])
    @pytest.mark.parametrize("bad", ["ndim", "no-steps", "rows", "width", "dtype"])
    def test_bad_operands_rejected(self, lstm, bad):
        p, x, states, _ = self._case(lstm, 4, 2, 3, 5, np.float64)
        if bad == "ndim":
            x = x[:, 0]
        elif bad == "no-steps":
            x = x[:, :0]
        elif bad == "rows":
            x = x[:3]
        elif bad == "width":
            x = x[:, :, :1]
        else:
            states = [a.astype(np.float32) for a in states]
        leaves = [Tensor(a) for a in states]
        with pytest.raises(ShapeError):
            if lstm:
                lstm_sequence(x, *leaves, wrap(p))
            else:
                gru_sequence(x, leaves[0], wrap(p))

    def test_lstm_needs_a_cell_state(self):
        p, x, states, _ = self._case(True, 2, 1, 2, 3, np.float64)
        with pytest.raises(ShapeError):
            lstm_sequence(x, Tensor(states[0]), None, wrap(p))


class TestParamCount:
    def test_gru_8_1(self):
        assert param_count("gru-p", 8, 1) == 248

    def test_gru_8_4(self):
        assert param_count("gru-p", 8, 4) == 320

    def test_lstm_8_4(self):
        assert param_count("lstm-p", 8, 4) == 416

    def test_ja(self):
        assert param_count("ja", 1, 1) == 5

    def test_matches_actual_arrays(self):
        for d_g, d_x in [(4, 4), (8, 4), (5, 1)]:
            p = GruParams.init(d_g, d_x, np.random.default_rng(0))
            total = sum(v.size for v in p.as_dict().values())
            assert total == param_count("gru-p", d_g, d_x)
            p = LstmParams.init(d_g, d_x, np.random.default_rng(0))
            total = sum(v.size for v in p.as_dict().values())
            assert total == param_count("lstm-p", d_g, d_x)
        # every archetype at a hidden size its head accepts
        for archetype, d_g in [("gru-p", 8), ("gru-m", 3), ("gru-l", 5), ("lstm-p", 6),
                               ("gru-v", 18), ("gru-jadp", 7), ("ja", 4)]:
            arrays = init_head_params(TrainConfig(archetype=archetype, d_g=d_g), seed=0)
            total = sum(v.size for v in arrays.values())
            assert total == param_count(archetype, d_g, FEATURE_WIDTH), archetype

    def test_documented_formulas(self):
        for d_g, d_x in [(1, 1), (2, 4), (8, 4), (18, 3)]:
            gru = 3 * d_g * d_x + 3 * d_g * d_g + 4 * d_g
            for archetype in ("gru-p", "gru-m", "gru-l", "gru-v", "gru-jadp"):
                assert param_count(archetype, d_g, d_x) == gru
            assert param_count("lstm-p", d_g, d_x) == 4 * (d_g * d_x + d_g * d_g + d_g)
            assert param_count("ja", d_g, d_x) == 5

    def test_invalid(self):
        with pytest.raises(ValueError):
            param_count("gru-p", 0, 4)
        with pytest.raises(ValueError):
            param_count("transformer", 8, 4)
