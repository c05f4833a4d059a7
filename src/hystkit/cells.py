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
runs the numpy operations of the primitive-by-primitive composition
(matmul, add, sigmoid, tanh, mul) in the same order, so its values match
that composition bit for bit (the sigmoid gates share one stacked block,
which gives the same bits); the backward is the analytic gradient with
respect to the previous state(s) and every parameter array. Every GEMM
keeps its per-step shape: stacking gate matrices or steps into one GEMM
changes the last bits.

:func:`gru_step` is one tape node and :func:`lstm_step` two (the cell node,
which owns the backward, and the hidden node on top of it); they also pass
the gradient on to the input, and are the per-step interface (a rollout's
warmup injects a value between steps). :func:`gru_sequence` and
:func:`lstm_sequence` run every step of a ``(rows, T, d_x)`` feature block
as one tape node whose value records, per step, only the hidden elements
the caller keeps (a rollout keeps those its readout reads: element 0, or
gru-v's even elements), so a frozen rollout holds no ``(rows, T, d_g)``
trajectory. Their backward is one reverse loop over the step backward that
sums each parameter's per-step gradients in reverse time order, so values
and gradients are byte-equal to chained step calls. Without a parameter or
initial state that requires a gradient, the kernels store no per-step
arrays.

Each cell's parameters are one record, a dataclass over :class:`CellParams`
whose fields list the arrays in draw order. The base supplies everything
else (names, dict conversion, ``map``, construction from a name -> array
mapping, and seeded initialization), and a field's name prefix fixes its
shape: ``w*`` is ``(d_g, d_x)``, ``u*`` is ``(d_g, d_g)`` and ``b*`` is
``(d_g,)``. A new cell array needs only a field: the heads' parameter counts
(``heads.param_count``) are the sizes of the arrays a record draws.
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
    def init(cls, d_g: int, d_x: int, rng: np.random.Generator, dtype=np.float64):
        """Uniform +-sqrt(1/columns) for W and U, zero biases, drawn in field order."""
        columns = {"w": d_x, "u": d_g}

        def draw(name):
            if name[0] == "b":
                return np.zeros(d_g, dtype=dtype)
            scale = np.sqrt(1.0 / columns[name[0]])
            return rng.uniform(-scale, scale, size=(d_g, columns[name[0]])).astype(dtype)

        return cls(**{k: draw(k) for k in cls.names()})

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


def _steps(x: np.ndarray, w: Tensor):
    """The feature rows of each step of the block ``x`` ``(rows, T, d_x)``, each a
    contiguous copy in the parameters' dtype, as a per-step caller builds them."""
    x = np.asarray(x)
    if x.ndim != 3 or x.shape[1] < 1:
        raise ShapeError(f"cell sequence: features {x.shape} are not (rows, T >= 1, d_x)")
    return (x[:, t].astype(w.data.dtype) for t in range(x.shape[1]))


def _grad_stacks(leaves, steps: int) -> list:
    """One ``(steps, *shape)`` array per parameter for its per-step gradients, which a
    sequence backward writes in reverse time order."""
    return [np.empty((steps,) + leaf.data.shape, dtype=leaf.data.dtype) for leaf in leaves]


def _store_sums(leaves, stacks) -> None:
    """Set each leaf's gradient to the sum of its stack, taken in stack order.

    ``np.add.accumulate`` is a sequential scan, so the sum's bits equal those
    of one ``_accum`` per step in that order; a gradient the leaf already
    holds enters first, as it would there.
    """
    for leaf, stack in zip(leaves, stacks):
        if leaf.requires_grad:
            if leaf.grad is not None:
                stack[0] += leaf.grad
            leaf.grad = np.add.accumulate(stack, axis=0, out=stack)[-1].copy()


def _param_grads(out, pairs) -> None:
    """Write each parameter's gradient, ``da.T @ operand`` or for a bias (operand None)
    ``da`` summed over rows, into the list ``out`` in field order; None entries are allocated."""
    for k, (da, operand) in enumerate(pairs):
        out[k] = (np.add.reduce(da, axis=0, out=out[k]) if operand is None
                  else np.matmul(da.T, operand, out=out[k]))


def _gru_forward(xd, gd, w_z, u_z, b_z, w_r, u_r, b_r, w, u, b, b_n):
    """One GRU step on arrays: the new state and the terms its backward reads."""
    pre = np.empty((2,) + gd.shape, dtype=gd.dtype)
    np.add(xd @ w_z.T + b_z, gd @ u_z.T, out=pre[0])
    np.add(xd @ w_r.T + b_r, gd @ u_r.T, out=pre[1])
    z, r = _sigmoid(pre)
    uh = gd @ u.T + b_n
    cand = np.tanh(xd @ w.T + b + r * uh)
    diff = gd - cand
    return cand + z * diff, (xd, gd, z, r, uh, cand, diff, u_z, u_r, u)


def _gru_backward(dh, terms, out):
    """One GRU step's backward from its output's gradient ``dh``: writes the parameter
    gradients into ``out`` (see :func:`_param_grads`) and returns the previous state's
    gradient and the update, reset and candidate pre-activation gradients."""
    xd, gd, z, r, uh, cand, diff, u_z, u_r, u = terms
    dh_z = dh * z
    da_z = dh * diff * z * (1.0 - z)
    da_n = (dh - dh_z) * (1.0 - cand * cand)
    da_u = da_n * r
    da_r = da_n * uh * r * (1.0 - r)
    _param_grads(out, ((da_z, xd), (da_z, gd), (da_z, None), (da_r, xd), (da_r, gd),
                       (da_r, None), (da_n, xd), (da_u, gd), (da_n, None), (da_u, None)))
    return dh_z + da_z @ u_z + da_r @ u_r + da_u @ u, (da_z, da_r, da_n)


def _lstm_forward(xd, gd, cd, w_i, u_i, b_i, w_f, u_f, b_f, w_m, u_m, b_m, w_o, u_o, b_o):
    """One LSTM step on arrays: new hidden and cell states, and the terms its backward reads."""
    pre = np.empty((3,) + gd.shape, dtype=gd.dtype)
    np.add(xd @ w_i.T + b_i, gd @ u_i.T, out=pre[0])
    np.add(xd @ w_f.T + b_f, gd @ u_f.T, out=pre[1])
    np.add(xd @ w_o.T + b_o, gd @ u_o.T, out=pre[2])
    i, f, o = _sigmoid(pre)
    m = np.tanh(xd @ w_m.T + b_m + gd @ u_m.T)
    c = f * cd + i * m
    tc = np.tanh(c)
    return o * tc, c, (xd, gd, cd, i, f, m, o, tc, u_i, u_f, u_m, u_o)


def _lstm_hidden_backward(dh, terms):
    """The cell state's gradient through the hidden output ``o * tanh(c)``."""
    o, tc = terms[6:8]
    return dh * o * (1.0 - tc * tc)


def _lstm_backward(dh, dc, terms, out):
    """One LSTM step's backward from the gradients of its hidden output ``dh`` and its
    cell state ``dc`` (the hidden path included): writes the parameter gradients into
    ``out`` (see :func:`_param_grads`) and returns the previous hidden and cell states'
    gradients and the gates' pre-activation gradients. ``dh`` is None when the hidden
    output got no gradient; the output gate's arrays then get none either."""
    xd, gd, cd, i, f, m, o, tc, u_i, u_f, u_m, u_o = terms
    gates = [dc * m * i * (1.0 - i), dc * cd * f * (1.0 - f), dc * i * (1.0 - m * m)]
    if dh is not None:
        gates.append(dh * tc * o * (1.0 - o))
    _param_grads(out, [(da, operand) for da in gates for operand in (xd, gd, None)])
    return sum(da @ uk for da, uk in zip(gates, (u_i, u_f, u_m, u_o))), dc * f, gates


def gru_step(x: Tensor, g_prev: Tensor, p: GruParams) -> Tensor:
    """One GRU step: gates from (x, g_prev), then the convex update; one tape node."""
    _check_operands(x.data, p.w_z, p.u_z, g_prev)
    leaves = tuple(p.as_dict().values())
    out, terms = _gru_forward(x.data, g_prev.data, *[leaf.data for leaf in leaves])

    def backward(dh):
        grads = [None] * len(leaves)
        d_prev, (da_z, da_r, da_n) = _gru_backward(dh, terms, grads)
        for leaf, grad in zip(leaves, grads):
            _accum(leaf, grad)
        if x.requires_grad:
            _accum(x, da_z @ p.w_z.data + da_r @ p.w_r.data + da_n @ p.w.data)
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
    g, c, terms = _lstm_forward(x.data, g_prev.data, c_prev.data, *[leaf.data for leaf in leaves])
    hidden_grad = []

    def cell_backward(dc):
        grads = [None] * len(leaves)
        dh = hidden_grad.pop() if hidden_grad else None
        d_prev, dc_prev, gates = _lstm_backward(dh, dc, terms, grads)
        for leaf, grad in zip(leaves, grads[:3 * len(gates)]):
            _accum(leaf, grad)
        if x.requires_grad:
            _accum(x, sum(da @ w.data for da, w in zip(gates, (p.w_i, p.w_f, p.w_m, p.w_o))))
        _accum(g_prev, d_prev)
        _accum(c_prev, dc_prev)

    cell = _node(c, (x, g_prev, c_prev) + leaves, cell_backward)

    def hidden_backward(dg):
        hidden_grad.append(dg)
        _accum(cell, _lstm_hidden_backward(dg, terms))

    return _node(g, (cell,), hidden_backward), cell


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
    for an index, ``(rows, T, width)`` for a slice. The features are cast step
    by step to the parameters' dtype. Values and gradients are byte-equal to T
    chained ``gru_step`` calls read out at ``keep``.
    """
    leaves = tuple(p.as_dict().values())
    train = g0.requires_grad or any(leaf.requires_grad for leaf in leaves)
    arrays = [leaf.data for leaf in leaves]
    saved = []
    gd = g0.data
    out = None
    for t, xd in enumerate(_steps(x, p.w_z)):
        if out is None:
            _check_operands(xd, p.w_z, p.u_z, g0)
            out = np.empty((xd.shape[0], x.shape[1]) + gd[:, keep].shape[1:], dtype=gd.dtype)
        gd, terms = _gru_forward(xd, gd, *arrays)
        if train:
            saved.append(terms)
        out[:, t] = gd[:, keep]

    def backward(d_kept):
        d_out = _full_grad(d_kept, keep, g0.data.shape[1])
        stacks = _grad_stacks(leaves, len(saved))
        carry = None
        for k, t in enumerate(reversed(range(len(saved)))):
            dh = d_out[:, t] if carry is None else d_out[:, t] + carry
            carry, _ = _gru_backward(dh, saved[t], [stack[k] for stack in stacks])
        _store_sums(leaves, stacks)
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
    train = g0.requires_grad or c0.requires_grad or any(leaf.requires_grad for leaf in leaves)
    arrays = [leaf.data for leaf in leaves]
    saved = []
    gd, cd = g0.data, c0.data
    out = None
    for t, xd in enumerate(_steps(x, p.w_i)):
        if out is None:
            _check_operands(xd, p.w_i, p.u_i, g0, c0)
            out = np.empty((xd.shape[0], x.shape[1]) + gd[:, keep].shape[1:], dtype=gd.dtype)
        gd, cd, terms = _lstm_forward(xd, gd, cd, *arrays)
        if train:
            saved.append(terms)
        out[:, t] = gd[:, keep]

    def backward(d_kept):
        d_out = _full_grad(d_kept, keep, g0.data.shape[1])
        stacks = _grad_stacks(leaves, len(saved))
        carry_h = carry_c = None
        for k, t in enumerate(reversed(range(len(saved)))):
            dh = d_out[:, t] if carry_h is None else d_out[:, t] + carry_h
            dc = _lstm_hidden_backward(dh, saved[t])
            dc = dc if carry_c is None else dc + carry_c
            carry_h, carry_c, _ = _lstm_backward(dh, dc, saved[t], [stack[k] for stack in stacks])
        _store_sums(leaves, stacks)
        _accum(g0, carry_h)
        _accum(c0, carry_c)

    return _node(out, (g0, c0) + leaves, backward)
