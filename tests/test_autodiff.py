"""Tape-engine tests: primitive gradients, graph contract, determinism."""
import numpy as np
import pytest

from conftest import tape_langevin, tape_langevin_deriv, tape_where_mask
from hystkit import autodiff as ad
from hystkit.autodiff import (
    Graph,
    GraphStateError,
    NonFiniteError,
    ShapeError,
    Tensor,
    finite_diff_check,
)


def check_op(fn, input_shapes, n_points=20, tol=1e-6, low=-2.0, high=2.0, seed=0):
    """Gradient-check one op at random points against central differences."""
    rng = np.random.default_rng(seed)
    graph = Graph(lambda *ts: fn(*ts).sum(), len(input_shapes))
    worst = 0.0
    for _ in range(n_points):
        inputs = [rng.uniform(low, high, size=s) for s in input_shapes]
        worst = max(worst, finite_diff_check(graph, inputs))
    assert worst < tol, f"gradient mismatch {worst:.3e}"


class TestPrimitiveGradients:
    def test_add(self):
        check_op(lambda a, b: a + b, [(3, 4), (3, 4)])

    def test_add_broadcast_bias(self):
        check_op(lambda a, b: a + b, [(3, 4), (4,)])

    def test_sub(self):
        check_op(lambda a, b: a - b, [(3, 4), (3, 4)])

    def test_mul(self):
        check_op(lambda a, b: a * b, [(3, 4), (3, 4)])

    def test_div(self):
        check_op(lambda a, b: a / b, [(2, 3), (2, 3)], low=0.5, high=2.0)

    def test_matmul(self):
        check_op(lambda a, b: ad.matmul(a, b), [(3, 4), (4, 2)])

    def test_matmul_transposed(self):
        check_op(lambda a, b: ad.matmul(a, b, transpose_b=True), [(3, 4), (2, 4)])

    def test_tanh(self):
        check_op(ad.tanh, [(3, 3)])

    def test_sigmoid(self):
        check_op(ad.sigmoid, [(3, 3)])

    def test_sqrt(self):
        check_op(ad.sqrt, [(3, 3)], low=0.2, high=3.0)

    def test_langevin(self):
        check_op(tape_langevin, [(3, 3)], low=-3.0, high=3.0)

    def test_langevin_near_zero(self):
        check_op(tape_langevin, [(3, 3)], low=-0.09, high=0.09)

    def test_langevin_deriv(self):
        check_op(tape_langevin_deriv, [(3, 3)], low=-3.0, high=3.0)

    def test_langevin_deriv_near_zero(self):
        # keep |x| above the odd-function zero where the relative FD metric degenerates
        check_op(tape_langevin_deriv, [(3, 3)], low=0.03, high=0.09)
        check_op(tape_langevin_deriv, [(3, 3)], low=-0.09, high=-0.03)

    def test_where_mask(self):
        mask = np.array([[True, False, True]])
        check_op(lambda a, b: tape_where_mask(mask, a, b), [(1, 3), (1, 3)])

    def test_sum_axis(self):
        check_op(lambda a: ad.tsum(a, axis=1), [(3, 4)])

    def test_concat(self):
        check_op(lambda a, b: ad.concat([a, b], axis=1), [(2, 3), (2, 2)])

    def test_slice(self):
        check_op(lambda a: a[:, 1:3], [(2, 5)])

    def test_strided_slice(self):
        check_op(lambda a: a[:, 0::2], [(2, 6)])

    def test_reshape(self):
        check_op(lambda a: ad.reshape(a, (6,)), [(2, 3)])


class TestForwardValues:
    def test_sigmoid_zero(self):
        assert ad.sigmoid(Tensor(0.0)).item() == 0.5

    def test_tanh_zero(self):
        assert ad.tanh(Tensor(0.0)).item() == 0.0

    def test_matmul_identity(self):
        v = np.array([[1.7], [-2.3], [0.4]])
        out = ad.matmul(Tensor(np.eye(3)), Tensor(v))
        np.testing.assert_array_equal(out.data, v)

    def test_square_derivative_at_3(self):
        x = Tensor(3.0, requires_grad=True)
        (x * x).backward()
        assert x.grad == pytest.approx(6.0, abs=1e-12)

    def test_sigmoid_derivative_at_0(self):
        x = Tensor(0.0, requires_grad=True)
        ad.sigmoid(x).backward()
        assert x.grad == pytest.approx(0.25, abs=1e-12)

    def test_langevin_limits(self):
        x = np.array([1e-300, 50.0, -50.0])
        vals = tape_langevin(Tensor(x)).data
        assert vals[0] == pytest.approx(0.0, abs=1e-200)
        assert vals[1] == pytest.approx(1.0 - 1.0 / 50.0, rel=1e-12)
        assert vals[2] == pytest.approx(-1.0 + 1.0 / 50.0, rel=1e-12)

    def test_langevin_series_matches_direct_at_cut(self):
        # continuity across the series/direct switch
        for x in (0.0999999, 0.1000001, -0.0999999, -0.1000001):
            v = tape_langevin(Tensor(np.array(x))).data
            direct = 1.0 / np.tanh(x) - 1.0 / x
            assert v == pytest.approx(direct, rel=1e-10)


class TestBackwardSemantics:
    def test_sum_distributes_seed(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        x.sum().backward(np.asarray(2.5))
        np.testing.assert_array_equal(x.grad, np.full((3, 4), 2.5))

    def test_fanout_accumulates(self):
        x = Tensor(np.array([1.5, -0.5]), requires_grad=True)
        (x * x + x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * x.data + 1, atol=1e-15)

    def test_repeated_backward_no_double_count(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = (x * x).sum()
        y.backward()
        first = x.grad.copy()
        y.backward()
        np.testing.assert_array_equal(x.grad, first)

    def test_deep_graph_no_recursion_limit(self):
        x = Tensor(np.array([0.5]), requires_grad=True)
        y = x
        for _ in range(5000):
            y = y * 1.0001
        y.sum().backward()
        assert np.isfinite(x.grad[0])


class TestDeterminism:
    def _run(self, precision):
        dt = ad.dtype_of(precision)
        rng = np.random.default_rng(7)
        w = Tensor(rng.standard_normal((4, 4)).astype(dt), dtype=dt, requires_grad=True)
        x = Tensor(rng.standard_normal((2, 4)).astype(dt), dtype=dt)
        out = ad.tanh(ad.matmul(x, w, transpose_b=True))
        loss = (out * out).sum()
        loss.backward()
        return loss.data.tobytes(), w.grad.tobytes()

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_bit_identical_runs(self, precision):
        assert self._run(precision) == self._run(precision)

    def test_precision_dtypes(self):
        assert Tensor(1.0, dtype=ad.dtype_of("single")).data.dtype == np.float32
        assert Tensor(1.0, dtype=ad.dtype_of("double")).data.dtype == np.float64


class TestErrors:
    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_dtype_mismatch(self):
        a = Tensor(np.zeros(3), dtype=np.float32)
        b = Tensor(np.zeros(3), dtype=np.float64)
        with pytest.raises(ShapeError):
            a + b

    def test_nonfinite_forward(self):
        graph = Graph(lambda a: (a / Tensor(np.zeros(2))).sum(), 1)
        with np.errstate(divide="ignore"), pytest.raises(NonFiniteError):
            graph.forward([np.ones(2)])

    def test_backward_before_forward(self):
        graph = Graph(lambda a: a.sum(), 1)
        with pytest.raises(GraphStateError):
            graph.backward()

    def test_unknown_precision(self):
        with pytest.raises(ad.EngineError):
            ad.dtype_of("half")


class TestGraphContract:
    def test_forward_returns_arrays(self):
        graph = Graph(lambda a, b: a + b, 2)
        (out,) = graph.forward([np.ones(3), 2 * np.ones(3)])
        np.testing.assert_array_equal(out, 3 * np.ones(3))

    def test_forward_deterministic_bits(self):
        graph = Graph(lambda a: ad.tanh(a * 3.7), 1)
        x = np.linspace(-1, 1, 64)
        (o1,) = graph.forward([x])
        (o2,) = graph.forward([x])
        assert o1.tobytes() == o2.tobytes()

    def test_backward_gradients_per_leaf(self):
        graph = Graph(lambda a, b: (a * b).sum(), 2)
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 4.0])
        graph.forward([a, b])
        ga, gb = graph.backward()
        np.testing.assert_array_equal(ga, b)
        np.testing.assert_array_equal(gb, a)

    def test_linear_map_fd(self):
        w = np.random.default_rng(0).standard_normal((3, 3))
        graph = Graph(lambda x: ad.matmul(Tensor(w), x).sum(), 1)
        assert finite_diff_check(graph, [np.ones((3, 1))]) < 1e-10

    def test_tanh_matmul_fd(self):
        graph = Graph(lambda w, x: ad.tanh(ad.matmul(x, w, transpose_b=True)).sum(), 2)
        rng = np.random.default_rng(5)
        err = finite_diff_check(graph, [rng.standard_normal((3, 2)), rng.standard_normal((4, 2))])
        assert err < 1e-7
