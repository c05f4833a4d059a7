"""GRU and LSTM cell primitives and their parameter records.

Both cells operate on batched rows: inputs are ``(batch, d_x)``, hidden
states ``(batch, d_g)``. Weight matrices follow the ``(d_g, d_x)`` /
``(d_g, d_g)`` layout, so a step computes ``x @ W.T`` internally.

The GRU update uses the convex-combination form
``g_k = g~_k + z_k * (g_{k-1} - g~_k)`` and keeps the candidate branch's
second bias ``b_n`` inside the reset product: ``r_k * (U g_{k-1} + b_n)``.
Folding ``b_n`` into ``b`` changes the function; do not.

Each cell's step is written once, as a forward and a backward on arrays
(``_gru_forward``/``_gru_backward``, ``_lstm_forward``/``_lstm_backward``),
which the step functions and the sequence kernels both call. The forward
takes the step's input projections ``x @ W.T + b`` (``_gru_inputs``,
``_lstm_inputs``) and runs the numpy operations of the
primitive-by-primitive composition (matmul, add, sigmoid, tanh, mul) in the
same order, so its values match that composition bit for bit (the sigmoid
gates share one stacked block, which gives the same bits). The backward is
the analytic gradient with respect to the previous state(s); it also returns
the gates' pre-activation gradients (a sequence kernel has them written into
its stacks), from which ``_param_grads`` forms every parameter gradient.

The rule for which GEMM shapes keep these bits: a 3-D ``np.matmul`` over a
``(T, rows, .)`` block runs the 2-D step's GEMM (or gemv, for one row) on
each step's slice, so it gives the step's bits; one flat 2-D GEMM over
``(T*rows, d_x)``, or the gate matrices stacked into one GEMM, does not.

:func:`gru_step` is one tape node and :func:`lstm_step` two (the cell node,
which owns the backward, and the hidden node on top of it); they also pass
the gradient on to the input, and are the per-step interface (a rollout's
warmup injects a value between steps). :func:`gru_sequence` and
:func:`lstm_sequence` run every step of a ``(rows, T, d_x)`` feature block
as one tape node whose value records, per step, only the hidden elements
the caller keeps (a rollout keeps those its readout reads: element 0, or
gru-v's even elements). They project every step's inputs with 3-D matmuls
before the time loop, which then runs only the recurrence. Their backward
is one reverse loop that carries the state gradient and writes each step's
pre-activation gradients into ``(T, rows, d_g)`` stacks; after it, one 3-D
call per parameter forms the per-step parameter gradients, which are summed
in reverse time order. So values and gradients are byte-equal to chained
step calls. Without a parameter or initial state that requires a gradient,
the kernels store no per-step arrays and project :data:`FROZEN_CHUNK` steps
at a time, so a frozen rollout holds no ``(T, rows, d_g)`` block.

Each cell's parameters are one record, a dataclass over :class:`CellParams`
whose fields list the arrays in draw order. The base supplies everything
else (names, shapes, dict conversion, ``map``, construction from a name ->
array mapping, and seeded initialization), and a field's name prefix fixes
its shape: ``w*`` is ``(d_g, d_x)``, ``u*`` is ``(d_g, d_g)`` and ``b*`` is
``(d_g,)``. A new cell array needs only a field: :meth:`CellParams.shapes`
states the layout without allocating, and the initializer, the heads'
parameter counts (``heads.param_count``) and the checkpoint loader all read it.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .autodiff import ShapeError, Tensor, _accum, _node, _sigmoid

class CellParams:
    """Base of the per-cell parameter records; subclasses list only their fields."""

    @classmethod
    def names(cls):
        return [f.name for f in fields(cls)]

    @classmethod
    def from_dict(cls, arrays):
        """The record of the arrays named by its fields; other keys are ignored."""
        return cls(**{k: arrays[k] for k in cls.names()})

    @classmethod
    def shapes(cls, d_g: int, d_x: int) -> dict:
        """Each array's shape by name, in field order, from its name's prefix."""
        by_prefix = {"w": (d_g, d_x), "u": (d_g, d_g), "b": (d_g,)}
        return {k: by_prefix[k[0]] for k in cls.names()}

    @classmethod
    def init(cls, d_g: int, d_x: int, rng: np.random.Generator, dtype=np.float64):
        """Uniform +-sqrt(1/columns) for W and U, zero biases, drawn in field order."""

        def draw(shape):
            if len(shape) == 1:
                return np.zeros(shape, dtype=dtype)
            scale = np.sqrt(1.0 / shape[1])
            return rng.uniform(-scale, scale, size=shape).astype(dtype)

        return cls(**{k: draw(shape) for k, shape in cls.shapes(d_g, d_x).items()})

    def as_dict(self):
        # the instance's attributes are the fields, set by ``__init__`` in field order
        return dict(vars(self))

    def map(self, fn):
        return type(self)(**{k: fn(v) for k, v in self.as_dict().items()})


@dataclass
class GruParams(CellParams):
    """The ten parameter arrays of one GRU cell (update, reset, candidate)."""

    w_z: object
    u_z: object
    b_z: object
    w_r: object
    u_r: object
    b_r: object
    w: object
    u: object
    b: object
    b_n: object


@dataclass
class LstmParams(CellParams):
    """The twelve parameter arrays of one LSTM cell (input, forget, squash, output)."""

    w_i: object
    u_i: object
    b_i: object
    w_f: object
    u_f: object
    b_f: object
    w_m: object
    u_m: object
    b_m: object
    w_o: object
    u_o: object
    b_o: object


#: Steps a frozen sequence call (no gradient anywhere) projects at once: it keeps
#: this many steps' input projections, never a ``(T, rows, d_g)`` block.
FROZEN_CHUNK = 4


def _check_operands(xd: np.ndarray, w: Tensor, u: Tensor, *states: Tensor) -> None:
    """Raise ShapeError unless x and the states are 2-D rows that fit W and U in one dtype."""
    shape = states[0].data.shape
    if (xd.ndim != 2 or len(shape) != 2 or xd.shape[0] != shape[0]
            or any(s.data.shape != shape for s in states)
            or xd.shape[1] != w.data.shape[1] or shape[1] != u.data.shape[1]):
        raise ShapeError(f"cell step: x {xd.shape} and states {[s.data.shape for s in states]} "
                         f"do not fit W {w.data.shape} and U {u.data.shape}")
    if xd.dtype != w.data.dtype or any(s.data.dtype != w.data.dtype for s in states):
        raise ShapeError(f"dtype mismatch: inputs {xd.dtype} vs parameters {w.data.dtype}")


def _param_grads(pairs):
    """Each parameter's gradient in field order: ``da.T @ operand``, or for a bias
    (operand None) ``da`` summed over rows. At any rank: on ``(T, rows, .)`` stacks each
    step's slice gets the same GEMM or reduction as the 2-D step call."""
    return [np.add.reduce(da, axis=-2) if operand is None else da.mT @ operand
            for da, operand in pairs]


def _store_sums(leaves, stacks) -> None:
    """Set each leaf's gradient to the sum of its ``(T, ...)`` stack of per-step
    gradients, taken in reverse time order.

    ``np.add.accumulate`` is a sequential scan, so the sum's bits equal those
    of one ``_accum`` per step of chained step backwards; a gradient the leaf
    already holds enters first, as it would there.
    """
    for leaf, stack in zip(leaves, stacks):
        if leaf.requires_grad:
            stack = stack[::-1]
            if leaf.grad is not None:
                stack[0] += leaf.grad
            leaf.grad = np.add.accumulate(stack, axis=0, out=stack)[-1].copy()


def _gru_inputs(xb, arrays):
    """The update, reset and candidate input projections ``x @ W.T + b``, at any rank."""
    w_z, _, b_z, w_r, _, b_r, w, _, b, _ = arrays
    return xb @ w_z.T + b_z, xb @ w_r.T + b_r, xb @ w.T + b


def _gru_forward(a, states, arrays, out=None):
    """One GRU step from its input projections ``a`` (see :func:`_gru_inputs`): the new
    state (written to ``out`` if given) and the terms its backward reads."""
    (gd,) = states
    a_z, a_r, a_n = a
    _, u_z, _, _, u_r, _, _, u, _, b_n = arrays
    pre = np.empty((2,) + gd.shape, dtype=gd.dtype)
    np.add(a_z, gd @ u_z.T, out=pre[0])
    np.add(a_r, gd @ u_r.T, out=pre[1])
    z, r = _sigmoid(pre)
    uh = gd @ u.T + b_n
    cand = np.tanh(a_n + r * uh)
    diff = gd - cand
    return (np.add(cand, z * diff, out=out),), (z, r, uh, cand, diff)


def _gru_backward(dh, terms, arrays, da=(None,) * 4):
    """One GRU step's backward from its output's gradient ``dh``: the previous state's
    gradient, and the update, reset and candidate pre-activation gradients and the
    candidate's recurrent-term gradient, written into the arrays ``da`` if given."""
    z, r, uh, cand, diff = terms
    _, u_z, _, _, u_r, _, _, u, _, _ = arrays
    dh_z = dh * z
    da_z = np.multiply(dh * diff * z, 1.0 - z, out=da[0])
    da_n = np.multiply(dh - dh_z, 1.0 - cand * cand, out=da[2])
    da_u = np.multiply(da_n, r, out=da[3])
    da_r = np.multiply(da_n * uh * r, 1.0 - r, out=da[1])
    return dh_z + da_z @ u_z + da_r @ u_r + da_u @ u, (da_z, da_r, da_n, da_u)


def _gru_grad_pairs(da, xb, gb):
    """The (pre-activation gradient, operand) of each GRU parameter, in field order."""
    da_z, da_r, da_n, da_u = da
    return ((da_z, xb), (da_z, gb), (da_z, None), (da_r, xb), (da_r, gb), (da_r, None),
            (da_n, xb), (da_u, gb), (da_n, None), (da_u, None))


def _lstm_inputs(xb, arrays):
    """The input, forget, squash and output input projections ``x @ W.T + b``, at any rank."""
    w_i, _, b_i, w_f, _, b_f, w_m, _, b_m, w_o, _, b_o = arrays
    return xb @ w_i.T + b_i, xb @ w_f.T + b_f, xb @ w_m.T + b_m, xb @ w_o.T + b_o


def _lstm_forward(a, states, arrays, out=None):
    """One LSTM step from its input projections ``a`` (see :func:`_lstm_inputs`): the new
    hidden state (written to ``out`` if given) and cell state, and the terms its backward
    reads."""
    gd, cd = states
    a_i, a_f, a_m, a_o = a
    _, u_i, _, _, u_f, _, _, u_m, _, _, u_o, _ = arrays
    pre = np.empty((3,) + gd.shape, dtype=gd.dtype)
    np.add(a_i, gd @ u_i.T, out=pre[0])
    np.add(a_f, gd @ u_f.T, out=pre[1])
    np.add(a_o, gd @ u_o.T, out=pre[2])
    i, f, o = _sigmoid(pre)
    m = np.tanh(a_m + gd @ u_m.T)
    c = f * cd + i * m
    tc = np.tanh(c)
    return (np.multiply(o, tc, out=out), c), (cd, i, f, m, o, tc)


def _lstm_hidden_backward(dh, terms):
    """The cell state's gradient through the hidden output ``o * tanh(c)``."""
    o, tc = terms[4:6]
    return dh * o * (1.0 - tc * tc)


def _lstm_backward(dh, dc, terms, arrays, da=(None,) * 4):
    """One LSTM step's backward from the gradients of its hidden output ``dh`` and its
    cell state ``dc`` (the hidden path included): the previous hidden and cell states'
    gradients, and the gates' pre-activation gradients, written into the arrays ``da``
    if given. ``dh`` is None when the hidden output got no gradient; the output gate
    then gets none, and three gates are returned."""
    cd, i, f, m, o, tc = terms
    _, u_i, _, _, u_f, _, _, u_m, _, _, u_o, _ = arrays
    gates = [np.multiply(dc * m * i, 1.0 - i, out=da[0]),
             np.multiply(dc * cd * f, 1.0 - f, out=da[1]),
             np.multiply(dc * i, 1.0 - m * m, out=da[2])]
    if dh is not None:
        gates.append(np.multiply(dh * tc * o, 1.0 - o, out=da[3]))
    return sum(d @ uk for d, uk in zip(gates, (u_i, u_f, u_m, u_o))), dc * f, gates


def _lstm_grad_pairs(da, xb, gb):
    """The (pre-activation gradient, operand) of each LSTM parameter of the gates in
    ``da``, in field order."""
    return [(d, operand) for d in da for operand in (xb, gb, None)]


def gru_step(x: Tensor, g_prev: Tensor, p: GruParams) -> Tensor:
    """One GRU step: gates from (x, g_prev), then the convex update; one tape node."""
    _check_operands(x.data, p.w_z, p.u_z, g_prev)
    leaves = tuple(p.as_dict().values())
    arrays = [leaf.data for leaf in leaves]
    (out,), terms = _gru_forward(_gru_inputs(x.data, arrays), (g_prev.data,), arrays)

    def backward(dh):
        d_prev, da = _gru_backward(dh, terms, arrays)
        for leaf, grad in zip(leaves, _param_grads(_gru_grad_pairs(da, x.data, g_prev.data))):
            _accum(leaf, grad)
        if x.requires_grad:
            _accum(x, da[0] @ p.w_z.data + da[1] @ p.w_r.data + da[2] @ p.w.data)
        _accum(g_prev, d_prev)

    return _node(out, (x, g_prev) + leaves, backward)


def lstm_step(x: Tensor, g_prev: Tensor, c_prev: Tensor, p: LstmParams):
    """One LSTM step; returns (hidden, cell).

    The cell node owns the whole step's backward. The hidden node's only
    parent is the cell node: its backward adds the hidden path to the cell
    gradient and leaves its own gradient in a holder shared with the cell
    node, which the output gate reads. The cell node never refers to the
    hidden node, so a step's graph holds no reference cycle and is freed as
    soon as the last reference to the loss goes.
    """
    if c_prev is None:
        raise ShapeError("lstm_step requires a cell state")
    _check_operands(x.data, p.w_i, p.u_i, g_prev, c_prev)
    leaves = tuple(p.as_dict().values())
    arrays = [leaf.data for leaf in leaves]
    (g, c), terms = _lstm_forward(_lstm_inputs(x.data, arrays), (g_prev.data, c_prev.data),
                                  arrays)
    hidden_grad = []

    def cell_backward(dc):
        dh = hidden_grad.pop() if hidden_grad else None
        d_prev, dc_prev, da = _lstm_backward(dh, dc, terms, arrays)
        for leaf, grad in zip(leaves, _param_grads(_lstm_grad_pairs(da, x.data, g_prev.data))):
            _accum(leaf, grad)
        if x.requires_grad:
            _accum(x, sum(d @ w.data for d, w in zip(da, (p.w_i, p.w_f, p.w_m, p.w_o))))
        _accum(g_prev, d_prev)
        _accum(c_prev, dc_prev)

    cell = _node(c, (x, g_prev, c_prev) + leaves, cell_backward)

    def hidden_backward(dg):
        hidden_grad.append(dg)
        _accum(cell, _lstm_hidden_backward(dg, terms))

    return _node(g, (cell,), hidden_backward), cell


def _step_block(x: np.ndarray, start: int, stop: int, dtype) -> np.ndarray:
    """Steps ``start..stop-1`` of the feature block ``x`` ``(rows, T, d_x)`` as one
    contiguous ``(steps, rows, d_x)`` block in ``dtype``: each step's rows are the cast
    copy a step caller makes, so a 3-D matmul over the block runs the step's GEMM on
    each of them."""
    return x[:, start:stop].swapaxes(0, 1).astype(dtype, order="C")


def _run_sequence(x, states, leaves, keep, inputs, forward):
    """The forward of a sequence kernel: the cell's ``forward`` over every step of the
    feature block ``x`` ``(rows, T, d_x)`` from the state tensors ``states`` (hidden
    first), with the input projections ``inputs`` of whole blocks of steps.

    Returns the kept trajectory and, when anything requires a gradient, what
    the backward reads: the ``(T, rows, d_x)`` feature block, the ``(T + 1,
    rows, d_g)`` block of hidden states (``g0`` first) and each step's terms.
    A frozen call returns None for these and projects :data:`FROZEN_CHUNK`
    steps at a time.
    """
    x = np.asarray(x)
    if x.ndim != 3 or x.shape[1] < 1:
        raise ShapeError(f"cell sequence: features {x.shape} are not (rows, T >= 1, d_x)")
    train = any(t.requires_grad for t in states + leaves)
    arrays = [leaf.data for leaf in leaves]
    steps, dtype = x.shape[1], arrays[0].dtype
    xb = _step_block(x, 0, steps if train else FROZEN_CHUNK, dtype)
    _check_operands(xb[0], leaves[0], leaves[1], *states)
    data = tuple(s.data for s in states)
    if train:
        hidden = np.empty((steps + 1,) + data[0].shape, dtype=dtype)
        hidden[0] = data[0]
        saved = []
        for t, a in enumerate(zip(*inputs(xb, arrays))):
            data, terms = forward(a, data, arrays, hidden[t + 1])
            saved.append(terms)
        return np.moveaxis(hidden[1:, :, keep], 0, 1).copy(), (xb, hidden, saved)
    out = np.empty((xb.shape[1], steps) + data[0][:, keep].shape[1:], dtype=dtype)
    for start in range(0, steps, FROZEN_CHUNK):
        if start:
            xb = _step_block(x, start, start + FROZEN_CHUNK, dtype)
        for t, a in enumerate(zip(*inputs(xb, arrays)), start):
            data, _ = forward(a, data, arrays)
            out[:, t] = data[0][:, keep]
    return out, None


def _full_grad(d_kept: np.ndarray, keep, d_g: int) -> np.ndarray:
    """The gradient of the whole hidden trajectory ``(rows, T, d_g)`` from that of its
    kept elements."""
    d_out = np.zeros(d_kept.shape[:2] + (d_g,), dtype=d_kept.dtype)
    d_out[:, :, keep] = d_kept
    return d_out


def gru_sequence(x: np.ndarray, g0: Tensor, p: GruParams, keep=slice(None)):
    """``gru_step`` over every step of the feature block ``x`` ``(rows, T, d_x)`` from ``g0``.

    Returns the kept trajectory: one tape node holding the hidden elements
    ``keep`` (an index or a slice of the last axis) after each step, ``(rows, T)``
    for an index, ``(rows, T, width)`` for a slice. The features are cast to the
    parameters' dtype. Values and gradients are byte-equal to T chained
    ``gru_step`` calls read out at ``keep``.
    """
    leaves = tuple(p.as_dict().values())
    out, saved = _run_sequence(x, (g0,), leaves, keep, _gru_inputs, _gru_forward)

    def backward(d_kept):
        xb, hidden, terms = saved
        arrays = [leaf.data for leaf in leaves]
        d_out = _full_grad(d_kept, keep, hidden.shape[2])
        da = np.empty((4,) + hidden[1:].shape, dtype=hidden.dtype)
        carry = None
        for t in reversed(range(len(terms))):
            dh = d_out[:, t] if carry is None else d_out[:, t] + carry
            carry, _ = _gru_backward(dh, terms[t], arrays, da[:, t])
        _store_sums(leaves, _param_grads(_gru_grad_pairs(da, xb, hidden[:-1])))
        _accum(g0, carry)

    return _node(out, (g0,) + leaves, backward)


def lstm_sequence(x: np.ndarray, g0: Tensor, c0: Tensor, p: LstmParams, keep=slice(None)):
    """``lstm_step`` over every step of the feature block ``x`` ``(rows, T, d_x)`` from (g0, c0).

    Returns the kept trajectory, the hidden elements ``keep`` after each step as
    in :func:`gru_sequence`. Values and gradients are byte-equal to T chained
    ``lstm_step`` calls read out at ``keep``.
    """
    if c0 is None:
        raise ShapeError("lstm_sequence requires a cell state")
    leaves = tuple(p.as_dict().values())
    out, saved = _run_sequence(x, (g0, c0), leaves, keep, _lstm_inputs, _lstm_forward)

    def backward(d_kept):
        xb, hidden, terms = saved
        arrays = [leaf.data for leaf in leaves]
        d_out = _full_grad(d_kept, keep, hidden.shape[2])
        da = np.empty((4,) + hidden[1:].shape, dtype=hidden.dtype)
        carry_h = carry_c = None
        for t in reversed(range(len(terms))):
            dh = d_out[:, t] if carry_h is None else d_out[:, t] + carry_h
            dc = _lstm_hidden_backward(dh, terms[t])
            dc = dc if carry_c is None else dc + carry_c
            carry_h, carry_c, _ = _lstm_backward(dh, dc, terms[t], arrays, da[:, t])
        _store_sums(leaves, _param_grads(_lstm_grad_pairs(da, xb, hidden[:-1])))
        _accum(g0, carry_h)
        _accum(c0, carry_c)

    return _node(out, (g0, c0) + leaves, backward)
