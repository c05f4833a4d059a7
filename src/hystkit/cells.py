"""GRU and LSTM cell primitives with exact parameter accounting.

Both cells operate on batched rows: inputs are ``(batch, d_x)``, hidden
states ``(batch, d_g)``. Weight matrices follow the ``(d_g, d_x)`` /
``(d_g, d_g)`` layout, so a step computes ``x @ W.T`` internally.

The GRU update uses the convex-combination form
``g_k = g~_k + z_k * (g_{k-1} - g~_k)`` and keeps the candidate branch's
second bias ``b_n`` inside the reset product: ``r_k * (U g_{k-1} + b_n)``.
Folding ``b_n`` into ``b`` changes the function; do not.

Each step is one tape node with a hand-written backward (an LSTM step is
two: the cell node, which owns the backward, and the hidden node on top of
it). The forward runs the numpy operations of the primitive-by-primitive
composition (matmul, add, sigmoid, tanh, mul) in the same order, so its
values match that composition bit for bit; the backward is the analytic
gradient with respect to the input, the previous state(s) and every
parameter array. Callers make one call per time step.

Each cell's parameters are one record, a dataclass over :class:`CellParams`
whose fields list the arrays in draw order. The base supplies everything
else (names, dict conversion, ``map``, construction from a name -> array
mapping, and seeded initialization), and a field's name prefix fixes its
shape: ``w*`` is ``(d_g, d_x)``, ``u*`` is ``(d_g, d_g)`` and ``b*`` is
``(d_g,)``. A new cell array needs only a field.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .autodiff import ShapeError, Tensor, _accum, _node, _sigmoid

GRU_ARCHETYPES = ("gru-p", "gru-m", "gru-l", "gru-v", "gru-jadp")
LSTM_ARCHETYPES = ("lstm-p",)


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
        return {k: getattr(self, k) for k in self.names()}

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


def _check_operands(x: Tensor, w: Tensor, u: Tensor, *states: Tensor) -> None:
    """Raise ShapeError unless x and the states are 2-D rows that fit W and U in one dtype."""
    shape = states[0].data.shape
    if (x.data.ndim != 2 or len(shape) != 2 or x.data.shape[0] != shape[0]
            or any(s.data.shape != shape for s in states)
            or x.data.shape[1] != w.data.shape[1] or shape[1] != u.data.shape[1]):
        raise ShapeError(f"cell step: x {x.data.shape} and states {[s.data.shape for s in states]} "
                         f"do not fit W {w.data.shape} and U {u.data.shape}")
    if any(t.data.dtype != w.data.dtype for t in (x, *states)):
        raise ShapeError(f"dtype mismatch: inputs {x.data.dtype} vs parameters {w.data.dtype}")


def _gate_backward(da, x: Tensor, g_prev: Tensor, w: Tensor, u: Tensor, b: Tensor) -> None:
    """Accumulate W, U and bias gradients of one gate from its pre-activation gradient ``da``."""
    _accum(w, da.T @ x.data)
    _accum(u, da.T @ g_prev.data)
    _accum(b, da.sum(axis=0))


def gru_step(x: Tensor, g_prev: Tensor, p: GruParams) -> Tensor:
    """One GRU step: gates from (x, g_prev), then the convex update; one tape node."""
    _check_operands(x, p.w_z, p.u_z, g_prev)
    xd, gd = x.data, g_prev.data
    z = _sigmoid(xd @ p.w_z.data.T + p.b_z.data + gd @ p.u_z.data.T)
    r = _sigmoid(xd @ p.w_r.data.T + p.b_r.data + gd @ p.u_r.data.T)
    uh = gd @ p.u.data.T + p.b_n.data
    cand = np.tanh(xd @ p.w.data.T + p.b.data + r * uh)
    diff = gd - cand
    out = cand + z * diff

    def backward(dh):
        da_z = dh * diff * z * (1.0 - z)
        da_n = (dh - dh * z) * (1.0 - cand * cand)
        da_u = da_n * r
        da_r = da_n * uh * r * (1.0 - r)
        _gate_backward(da_z, x, g_prev, p.w_z, p.u_z, p.b_z)
        _gate_backward(da_r, x, g_prev, p.w_r, p.u_r, p.b_r)
        _accum(p.w, da_n.T @ xd)
        _accum(p.b, da_n.sum(axis=0))
        _accum(p.u, da_u.T @ gd)
        _accum(p.b_n, da_u.sum(axis=0))
        if x.requires_grad:
            _accum(x, da_z @ p.w_z.data + da_r @ p.w_r.data + da_n @ p.w.data)
        if g_prev.requires_grad:
            _accum(g_prev, dh * z + da_z @ p.u_z.data + da_r @ p.u_r.data + da_u @ p.u.data)

    return _node(out, (x, g_prev, p.w_z, p.u_z, p.b_z, p.w_r, p.u_r, p.b_r,
                       p.w, p.u, p.b, p.b_n), backward)


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
    _check_operands(x, p.w_i, p.u_i, g_prev, c_prev)
    xd, gd, cd = x.data, g_prev.data, c_prev.data
    i = _sigmoid(xd @ p.w_i.data.T + p.b_i.data + gd @ p.u_i.data.T)
    f = _sigmoid(xd @ p.w_f.data.T + p.b_f.data + gd @ p.u_f.data.T)
    m = np.tanh(xd @ p.w_m.data.T + p.b_m.data + gd @ p.u_m.data.T)
    o = _sigmoid(xd @ p.w_o.data.T + p.b_o.data + gd @ p.u_o.data.T)
    c = f * cd + i * m
    tc = np.tanh(c)
    g = o * tc
    hidden_grad = []

    def cell_backward(dc):
        gates = [(dc * m * i * (1.0 - i), p.w_i, p.u_i, p.b_i),
                 (dc * cd * f * (1.0 - f), p.w_f, p.u_f, p.b_f),
                 (dc * i * (1.0 - m * m), p.w_m, p.u_m, p.b_m)]
        if hidden_grad:
            gates.append((hidden_grad.pop() * tc * o * (1.0 - o), p.w_o, p.u_o, p.b_o))
        for da, w, u, b in gates:
            _gate_backward(da, x, g_prev, w, u, b)
        if x.requires_grad:
            _accum(x, sum(da @ w.data for da, w, _, _ in gates))
        if g_prev.requires_grad:
            _accum(g_prev, sum(da @ u.data for da, _, u, _ in gates))
        _accum(c_prev, dc * f)

    cell = _node(c, (x, g_prev, c_prev, p.w_i, p.u_i, p.b_i, p.w_f, p.u_f, p.b_f,
                     p.w_m, p.u_m, p.b_m, p.w_o, p.u_o, p.b_o), cell_backward)

    def hidden_backward(dg):
        hidden_grad.append(dg)
        _accum(cell, dg * o * (1.0 - tc * tc))

    return _node(g, (cell,), hidden_backward), cell


def param_count(archetype: str, d_g: int, d_x: int) -> int:
    """Exact trainable-parameter count for one cell of the given archetype.

    GRU family: 3*d_g*d_x + 3*d_g^2 + 4*d_g (three W, three U, three b plus b_n).
    LSTM: 4*(d_g*d_x + d_g^2 + d_g).
    ``ja`` has five scalar parameters and ignores the dimensions. Counts are
    formula-exact; tallies from frameworks with other bias layouts can differ.
    """
    if d_g < 1 or d_x < 1:
        raise ValueError("d_g and d_x must be >= 1")
    if archetype in GRU_ARCHETYPES:
        return 3 * d_g * d_x + 3 * d_g * d_g + 4 * d_g
    if archetype in LSTM_ARCHETYPES:
        return 4 * (d_g * d_x + d_g * d_g + d_g)
    if archetype == "ja":
        return 5
    raise ValueError(f"unknown archetype {archetype!r}")


init_gru_params = GruParams.init
init_lstm_params = LstmParams.init
