"""Reverse-mode automatic differentiation over dense numpy arrays.

A small eager tape: every operation on :class:`Tensor` executes immediately
through numpy and records its parents plus a backward closure. Calling
``backward`` on a result walks the recorded graph once in reverse topological
order, accumulating gradients additively at fan-out points.

Design constraints honored here:

* CPU determinism: identical inputs in the same precision give bit-identical
  outputs and gradients (numpy kernels are deterministic, traversal order is
  fixed by construction order).
* Two precisions, ``single`` (float32) and ``double`` (float64). Operands of
  one op must agree; Python scalars adopt the tensor's dtype.
"""
from __future__ import annotations

import numpy as np

DTYPES = {"single": np.float32, "double": np.float64}


class EngineError(ValueError):
    """Base class for tape-engine failures."""


class ShapeError(EngineError):
    """Operand shapes or dtypes are incompatible."""


class NonFiniteError(EngineError):
    """A forward pass produced NaN or Inf."""


class GraphStateError(EngineError):
    """Graph used out of order (e.g. backward before forward)."""


def dtype_of(precision: str):
    try:
        return DTYPES[precision]
    except KeyError:
        raise EngineError(f"unknown precision {precision!r}; expected 'single' or 'double'")


class Tensor:
    """Dense real tensor tracked by the tape.

    ``data`` is a numpy array and is treated as immutable once the tensor
    participates in a graph. Leaves created with ``requires_grad=True``
    receive their gradient in ``grad`` after a backward pass.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    # keep numpy from absorbing `ndarray <op> Tensor`; the reflected Tensor
    # operator must run so the operation is recorded on the tape
    __array_ufunc__ = None
    __array_priority__ = 1000

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        # dtype=None keeps an existing float32/float64 dtype; anything else
        # (ints, Python lists) lands in float64
        arr = np.asarray(data) if dtype is None else np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    # -- introspection -------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- graph construction --------------------------------------------
    def backward(self, seed=None) -> None:
        """Reverse pass from this tensor; seeds with ones if not given.

        Gradients in this graph are reset first, so repeated calls do not
        double-accumulate.
        """
        order = _toposort(self)
        for node in order:
            node.grad = None
        if seed is None:
            seed = np.ones_like(self.data)
        self.grad = np.asarray(seed, dtype=self.data.dtype)
        if self.grad.shape != self.data.shape:
            raise ShapeError(f"seed shape {self.grad.shape} != output shape {self.data.shape}")
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operators -------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_const_like(other, self), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_const_like(other, self), self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)

    def sum(self, axis=None):
        return tsum(self, axis=axis)


def _node(data, parents, backward_fn) -> Tensor:
    t = Tensor.__new__(Tensor)
    t.data = data
    t.grad = None
    t.requires_grad = any(p.requires_grad for p in parents)
    if t.requires_grad:
        t._parents = tuple(parents)
        t._backward = backward_fn
    else:
        t._parents = ()
        t._backward = None
    return t


def _toposort(root: Tensor):
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _accum(t: Tensor, g) -> None:
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(grad, shape):
    """Sum ``grad`` back down to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _const_like(value, ref: Tensor) -> Tensor:
    return Tensor(value, dtype=ref.data.dtype)


def _coerce(a, b):
    """Return (a, b) as Tensors of one dtype; scalars adopt the other's dtype."""
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        if a.data.dtype != b.data.dtype:
            raise ShapeError(f"dtype mismatch: {a.data.dtype} vs {b.data.dtype}")
        return a, b
    if isinstance(a, Tensor):
        return a, _const_like(b, a)
    if isinstance(b, Tensor):
        return _const_like(a, b), b
    raise EngineError("at least one operand must be a Tensor")


# -- primitives ------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _coerce(a, b)
    out_data = a.data + b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _coerce(a, b)
    out_data = a.data - b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _node(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _coerce(a, b)
    out_data = a.data * b.data

    def backward(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(out_data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _coerce(a, b)
    out_data = a.data / b.data

    def backward(g):
        _accum(a, _unbroadcast(g / b.data, a.data.shape))
        _accum(b, _unbroadcast(-g * out_data / b.data, b.data.shape))

    return _node(out_data, (a, b), backward)


def matmul(a: Tensor, b: Tensor, transpose_b: bool = False) -> Tensor:
    """2-D matrix product ``a @ b`` (or ``a @ b.T`` with ``transpose_b``)."""
    a, b = _coerce(a, b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.data.shape} and {b.data.shape}")
    k_a = a.data.shape[1]
    k_b = b.data.shape[1] if transpose_b else b.data.shape[0]
    if k_a != k_b:
        raise ShapeError(f"matmul inner dims differ: {a.data.shape} vs {b.data.shape} (transpose_b={transpose_b})")
    out_data = a.data @ (b.data.T if transpose_b else b.data)

    def backward(g):
        if transpose_b:
            _accum(a, g @ b.data)
            _accum(b, g.T @ a.data)
        else:
            _accum(a, g @ b.data.T)
            _accum(b, a.data.T @ g)

    return _node(out_data, (a, b), backward)


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)

    def backward(g):
        _accum(a, g * (1.0 - t * t))

    return _node(t, (a,), backward)


def _sigmoid(v):
    # 0.5*(tanh(x/2)+1): stable for large |x| and exact at 0.
    return 0.5 * (np.tanh(0.5 * v) + 1.0)


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid(a.data)

    def backward(g):
        _accum(a, g * s * (1.0 - s))

    return _node(s, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    r = np.sqrt(a.data)

    def backward(g):
        _accum(a, g * 0.5 / r)

    return _node(r, (a,), backward)


def tsum(a: Tensor, axis=None) -> Tensor:
    out_data = a.data.sum(axis=axis)

    def backward(g):
        gk = g if axis is None else np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(gk, a.data.shape).copy())

    return _node(out_data, (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat of zero tensors")
    dt = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dt:
            raise ShapeError("concat dtype mismatch")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            _accum(t, g[tuple(index)])

    return _node(out_data, tuple(tensors), backward)


def take(a: Tensor, key) -> Tensor:
    """Basic slicing; backward scatters the gradient into a zero array.

    The result owns a copy, not a view, so keeping a small slice (a
    rollout's readout or final state) does not keep the whole source array
    alive.
    """
    out_data = a.data[key].copy()

    def backward(g):
        full = np.zeros_like(a.data)
        full[key] = g
        _accum(a, full)

    return _node(out_data, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    out_data = a.data.reshape(shape)

    def backward(g):
        _accum(a, g.reshape(a.data.shape))

    return _node(out_data, (a,), backward)


# -- graph wrapper -----------------------------------------------------------

class Graph:
    """A differentiable computation traced from leaf tensors.

    Wraps a Python callable ``fn(*leaves) -> Tensor | tuple[Tensor]``. Each
    :meth:`forward` call re-traces the function on fresh leaves (the recorded
    operation DAG), after which :meth:`backward` replays it in reverse
    topological order.
    """

    def __init__(self, fn, n_inputs: int):
        self.fn = fn
        self.n_inputs = n_inputs
        self._leaves = None
        self._outputs = None

    def forward(self, inputs, precision: str = "double"):
        """Run the traced function; returns the output arrays.

        Raises :class:`NonFiniteError` if any recorded intermediate is NaN/Inf.
        """
        if len(inputs) != self.n_inputs:
            raise ShapeError(f"expected {self.n_inputs} inputs, got {len(inputs)}")
        dt = dtype_of(precision)
        leaves = [x if isinstance(x, Tensor) else Tensor(x, dtype=dt, requires_grad=True)
                  for x in inputs]
        out = self.fn(*leaves)
        outputs = out if isinstance(out, tuple) else (out,)
        for o in outputs:
            for node in _toposort(o):
                if not np.isfinite(node.data).all():
                    raise NonFiniteError("non-finite intermediate in forward pass")
        self._leaves = leaves
        self._outputs = outputs
        return [o.data for o in outputs]

    def backward(self, seeds=None):
        """Gradient of the (seeded) outputs with respect to every leaf.

        ``seeds`` may be a single array for one output or a list matching
        the outputs; defaults to ones.
        """
        if self._outputs is None:
            raise GraphStateError("backward called before forward")
        outputs = self._outputs
        if seeds is None:
            seeds = [np.ones_like(o.data) for o in outputs]
        elif not isinstance(seeds, (list, tuple)):
            seeds = [seeds]
        if len(seeds) != len(outputs):
            raise ShapeError(f"{len(seeds)} seeds for {len(outputs)} outputs")
        # Combine outputs into one scalar so a single reverse sweep covers all.
        total = None
        for o, s in zip(outputs, seeds):
            term = tsum(mul(o, Tensor(s, dtype=o.data.dtype)))
            total = term if total is None else add(total, term)
        total.backward()
        grads = []
        for leaf in self._leaves:
            grads.append(leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data))
        return grads


def finite_diff_check(graph: Graph, inputs, epsilon: float = 1e-5) -> float:
    """Max relative mismatch between the tape gradient and central differences.

    Runs in double precision. Non-scalar outputs are reduced with a fixed
    seeded random probe vector so the directional derivative is well defined;
    scalar outputs use seed 1. The relative error of each leaf element is
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-12)``.
    """
    arrays = [np.asarray(x, dtype=np.float64) for x in inputs]
    outs = graph.forward(arrays, precision="double")
    probe_rng = np.random.default_rng(0)
    seeds = [np.ones_like(o) if o.size == 1 else probe_rng.standard_normal(o.shape)
             for o in outs]
    analytic = graph.backward(seeds)

    def probe_value(xs):
        vals = graph.forward(xs, precision="double")
        return sum(float(np.sum(v * s)) for v, s in zip(vals, seeds))

    worst = 0.0
    for j, base in enumerate(arrays):
        flat = base.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + epsilon
            f_plus = probe_value(arrays)
            flat[idx] = orig - epsilon
            f_minus = probe_value(arrays)
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            a = float(analytic[j].reshape(-1)[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
            worst = max(worst, rel)
    return worst
