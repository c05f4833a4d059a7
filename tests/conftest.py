"""Shared independent reference implementations for oracle tests.

The scalar cell steps are deliberately written as pure-Python loops (math
module, no numpy vectorization) so they share nothing with the library's
compute path beyond the formulas themselves; the scalar hysteron update
is the reference for the vectorized Preisach states. The tape references
below them compose engine primitives: the cell steps, the Jiles-Atherton
Euler step and its parameter map as the fused nodes' oracles, and two
formulas (the per-sequence loss weighting and the anhysteretic curve) that
the library computes only inside larger expressions. The Langevin and
masked-select operations those references use are tape nodes defined here
over the library's numpy Langevin helpers. Last, the ``csv`` module composition that wrote every
numeric table before tables were formatted whole is the writer oracle.
"""
import csv
import hashlib
import io
import math

import numpy as np

from hystkit.autodiff import Tensor, _accum, _coerce, _node, _unbroadcast, matmul, sigmoid, tanh
from hystkit.metrics import MetricError
from hystkit.physics import (
    ETA,
    HYSTERON_SHARPNESS,
    MU0,
    _DENOM_FLOOR,
    SingularityError,
    _langevin_d1,
    _langevin_d2,
    _langevin_val,
)


def scalar_sigmoid(v: float) -> float:
    return 1.0 / (1.0 + math.exp(-v))


def _mat_vec(mat, vec):
    return [sum(row[j] * vec[j] for j in range(len(vec))) for row in mat]


def scalar_gru_step(x, g_prev, p):
    """Scalar-loop GRU step; p maps names to nested Python lists."""
    d_g = len(g_prev)
    wz_x = _mat_vec(p["w_z"], x)
    uz_g = _mat_vec(p["u_z"], g_prev)
    wr_x = _mat_vec(p["w_r"], x)
    ur_g = _mat_vec(p["u_r"], g_prev)
    w_x = _mat_vec(p["w"], x)
    u_g = _mat_vec(p["u"], g_prev)
    out = []
    for i in range(d_g):
        z = scalar_sigmoid(wz_x[i] + p["b_z"][i] + uz_g[i])
        r = scalar_sigmoid(wr_x[i] + p["b_r"][i] + ur_g[i])
        cand = math.tanh(w_x[i] + p["b"][i] + r * (u_g[i] + p["b_n"][i]))
        out.append(cand + z * (g_prev[i] - cand))
    return out


def scalar_lstm_step(x, g_prev, c_prev, p):
    """Scalar-loop LSTM step; returns (hidden, cell) lists."""
    d_g = len(g_prev)
    pre = {k: _mat_vec(p["w_" + k], x) for k in ("i", "f", "m", "o")}
    rec = {k: _mat_vec(p["u_" + k], g_prev) for k in ("i", "f", "m", "o")}
    g_out, c_out = [], []
    for i in range(d_g):
        gate_i = scalar_sigmoid(pre["i"][i] + p["b_i"][i] + rec["i"][i])
        gate_f = scalar_sigmoid(pre["f"][i] + p["b_f"][i] + rec["f"][i])
        squash = math.tanh(pre["m"][i] + p["b_m"][i] + rec["m"][i])
        gate_o = scalar_sigmoid(pre["o"][i] + p["b_o"][i] + rec["o"][i])
        c = gate_f * c_prev[i] + gate_i * squash
        c_out.append(c)
        g_out.append(gate_o * math.tanh(c))
    return g_out, c_out


def preisach_hysteron(h_k, h_prev, gamma_prev, alpha_i, beta_i, sharpness=HYSTERON_SHARPNESS):
    """One smooth hysteron update, kept inside [-1, 1].

    Rising input pushes the state up through tanh((H - beta)/|T|), falling or
    equal input pushes it down through tanh((alpha - H)/|T|); each branch is
    clamped so the state never leaves [-1, 1]. Plain numbers only: the
    scalar reference for ``hysteron_states``.
    """
    t_mag = abs(float(sharpness))
    h_k = np.asarray(h_k, dtype=np.float64)
    if np.all(h_k > np.asarray(h_prev)):
        return np.clip(gamma_prev + np.tanh((h_k - beta_i) / t_mag), -1.0, 1.0)
    return np.clip(gamma_prev - np.tanh((alpha_i - h_k) / t_mag), -1.0, 1.0)


def digest(arrays) -> str:
    """sha256 over the names, dtypes, shapes and bytes of a name -> array mapping, in its order."""
    h = hashlib.sha256()
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def nested(arr):
    """numpy array -> nested Python lists of floats."""
    return arr.tolist()


# -- tape references -------------------------------------------------------
# The cell steps as compositions of engine primitives, one tape node per
# operation. The library's steps are single fused nodes whose forward must
# match these bit for bit and whose backward must match their gradients.

def tape_gru_step(x, g_prev, p):
    z = sigmoid(matmul(x, p.w_z, transpose_b=True) + p.b_z + matmul(g_prev, p.u_z, transpose_b=True))
    r = sigmoid(matmul(x, p.w_r, transpose_b=True) + p.b_r + matmul(g_prev, p.u_r, transpose_b=True))
    g_cand = tanh(matmul(x, p.w, transpose_b=True) + p.b
                  + r * (matmul(g_prev, p.u, transpose_b=True) + p.b_n))
    return g_cand + z * (g_prev - g_cand)


def tape_lstm_step(x, g_prev, c_prev, p):
    i = sigmoid(matmul(x, p.w_i, transpose_b=True) + p.b_i + matmul(g_prev, p.u_i, transpose_b=True))
    f = sigmoid(matmul(x, p.w_f, transpose_b=True) + p.b_f + matmul(g_prev, p.u_f, transpose_b=True))
    m = tanh(matmul(x, p.w_m, transpose_b=True) + p.b_m + matmul(g_prev, p.u_m, transpose_b=True))
    o = sigmoid(matmul(x, p.w_o, transpose_b=True) + p.b_o + matmul(g_prev, p.u_o, transpose_b=True))
    c = f * c_prev + i * m
    g = o * tanh(c)
    return g, c


def loss_weighted(l_rmse, h_max, h_full):
    """Rescale a loss by H_max over the RMS of the full raw H sequence."""
    rms = float(np.sqrt(np.mean(np.asarray(h_full, dtype=np.float64) ** 2)))
    if rms == 0.0:
        raise MetricError("full H sequence is identically zero")
    base = l_rmse if isinstance(l_rmse, Tensor) else Tensor(l_rmse)
    return base * (h_max / rms)


def tape_langevin(a):
    """coth(x) - 1/x as one tape node, with the series guard near 0."""
    d1 = _langevin_d1(a.data)

    def backward(g):
        _accum(a, g * d1)

    return _node(_langevin_val(a.data), (a,), backward)


def tape_langevin_deriv(a):
    """d/dx [coth(x) - 1/x] as one tape node, guarded like :func:`tape_langevin`."""
    d2 = _langevin_d2(a.data)

    def backward(g):
        _accum(a, g * d2)

    return _node(_langevin_d1(a.data), (a,), backward)


def tape_where_mask(mask, a, b):
    """Select ``a`` where the constant boolean ``mask`` holds, else ``b``."""
    a, b = _coerce(a, b)
    mask = np.asarray(mask, dtype=bool)

    def backward(g):
        _accum(a, _unbroadcast(g * mask, a.data.shape))
        _accum(b, _unbroadcast(g * ~mask, b.data.shape))

    return _node(np.where(mask, a.data, b.data), (a, b), backward)


def ja_m_an(h_e, m_s, a):
    """Anhysteretic magnetization M_s * (coth(H_e/a) - a/H_e) on the tape."""
    x = h_e / a if isinstance(h_e, Tensor) else Tensor(np.asarray(h_e, dtype=np.float64)) / a
    return m_s * tape_langevin(x)


def tape_ja_params_from_theta(theta):
    """z = ETA * sigmoid(theta) as a sigmoid node and a multiply by a constant (1, 5)
    scale row."""
    return sigmoid(theta) * Tensor(np.asarray(ETA, dtype=np.float64).reshape(1, 5),
                                   dtype=theta.data.dtype)


def tape_ja_step_euler(h, b_k, b_k1, z):
    """The explicit-Euler JA step composed node by node (about 40 nodes), with one
    column take per parameter of the (rows|1, 5) ``z``.

    M = B_k / mu0 - H is a constant and a subtraction on the tape. dM/dH is
    exactly 0 where the flux is constant; the irreversibility gate zeroes
    the wall term when M overshoots the anhysteretic curve against the drive
    direction.
    """
    m_s, a, alpha_w, k_p, c = (z[:, i:i + 1] for i in range(5))
    b_k = np.asarray(b_k, dtype=np.float64)
    b_k1 = np.asarray(b_k1, dtype=np.float64)
    db = b_k1 - b_k
    m = Tensor(b_k / MU0, dtype=h.data.dtype) - h
    delta = np.broadcast_to(np.sign(db), m.data.shape).copy()
    x = (h + alpha_w * m) / a
    m_an = m_s * tape_langevin(x)
    dman_dhe = (m_s / a) * tape_langevin_deriv(x)
    gate = np.ones_like(delta)
    gate[(delta < 0) & (m_an.data > m.data)] = 0.0
    gate[(delta > 0) & (m_an.data < m.data)] = 0.0
    delta_t = Tensor(delta, dtype=h.data.dtype)
    num = Tensor(gate, dtype=h.data.dtype) * (m_an - m) + c * k_p * delta_t * dman_dhe
    den = k_p * delta_t - alpha_w * num
    active = delta != 0.0
    if np.any(active):
        smallest = np.min(np.abs(den.data[active]))
        if smallest < _DENOM_FLOOR:
            raise SingularityError(f"JA denominator magnitude {smallest:.3e} below {_DENOM_FLOOR}")
    r = tape_where_mask(active, num / tape_where_mask(active, den, 1.0), 0.0)
    one_plus = 1.0 + r
    if np.min(np.abs(one_plus.data)) < 1e-12:
        raise SingularityError("dM/dH = -1 pole in the Euler bracket")
    bracket = 1.0 - r / one_plus
    return h + Tensor(db / MU0, dtype=h.data.dtype) * bracket


# -- writer oracle -----------------------------------------------------------

def csv_module_table(header, start, columns) -> bytes:
    """The bytes of an index column from ``start`` and float columns as ``csv.writer``
    writes them with each float as ``f"{float(x):.9g}"``: the reference for
    ``dataset.write_columns``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([k] + [f"{float(v):.9g}" for v in row]
                     for k, row in enumerate(zip(*columns), start=start))
    return buf.getvalue().encode()
