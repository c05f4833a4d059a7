"""Hysteresis physics: an inverse Jiles-Atherton integrator and a
differentiable Preisach operator.

The Jiles-Atherton (JA) model advances the magnetic field H along a given
flux trajectory B by explicit Euler over

    dH/dt = (dB/dt) / mu0 * [1 - (dM/dH) / (1 + dM/dH)],

where dM/dH combines the anhysteretic magnetization (Langevin curve) with
irreversible and reversible wall-motion terms gated by the flux direction.
The state is H alone: each step closes the magnetization through
B = mu0 * (H + M), as M = B_k / mu0 - H, before it uses it. The five
physical parameters are produced from unconstrained values through a scaled
sigmoid so they stay strictly inside (0, ETA) during optimization.

The Preisach model superposes smooth bistable hysterons on a fixed
triangular threshold grid; only the density vector and an affine output map
are trainable, which keeps the whole prediction differentiable.

Everything here runs on the tape engine, so gradients flow through entire
rollouts. A JA Euler step is one tape node with an analytic backward, built
on a pure-numpy kernel that ``synth`` also calls directly. The step takes
the five parameters as one (rows, 5) tensor ``z`` of (M_s, a, alpha_w, k_p,
c), or (1, 5) shared by all rows. The sigmoid map from unconstrained values
to ``z`` is one more node, shared by every step that uses the parameters:
the Euler node hands it the five parameter gradients as one array.
JA-hybrid training requires double precision.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .autodiff import (
    ShapeError,
    Tensor,
    _accum,
    _node,
    _sigmoid,
    _unbroadcast,
    matmul,
    reshape,
    sqrt,
    tsum,
)
from .cells import GruParams, gru_step

MU0 = 4e-7 * np.pi

#: Positive scale caps for (M_s, a, alpha_w, k_p, c).
ETA = (5e5, 1e3, 1e-2, 1e3, 1.0)
_ETA_ROW = np.asarray(ETA, dtype=np.float64).reshape(1, 5)

_DENOM_FLOOR = 1e-30

#: Cutoff below which the Langevin family switches to its Taylor series.
_LANGEVIN_CUT = 0.1

#: Transition width |T| of every smooth hysteron, in normalized field units.
HYSTERON_SHARPNESS = 1e-3


class PhysicsError(ValueError):
    pass


class SingularityError(PhysicsError):
    """A JA denominator or the Euler bracket hit its pole."""


def ja_params_from_theta(theta: Tensor) -> Tensor:
    """Map unconstrained values to physical parameters: z_i = ETA_i * sigmoid(theta_i).

    ``theta`` is (rows, >= 5) and only its first five columns are read, so
    gru-jadp passes its whole hidden state. Returns ``z``, the (rows, 5) tape
    node of (M_s, a, alpha_w, k_p, c), whose backward scatters into those
    five columns as a slice node would.
    """
    if theta.data.ndim != 2 or theta.data.shape[1] < 5:
        raise PhysicsError(f"theta must be (rows, >= 5), got {theta.data.shape}")
    eta_row = _ETA_ROW.astype(theta.data.dtype, copy=False)
    sig = _sigmoid(theta.data[:, :5])

    def backward(g):
        # scale, then sigmoid derivative, left to right: the bytes of the map
        # composed as a multiply node over a sigmoid node
        g_theta = ((g * eta_row) * sig) * (1.0 - sig)
        if theta.data.shape[1] != 5:
            full = np.zeros_like(theta.data)
            full[:, :5] = g_theta
            g_theta = full
        _accum(theta, g_theta)

    return _node(sig * eta_row, (theta,), backward)


#: The shape of the JA block of the ``ja`` head and the physics regularizer: one
#: unconstrained value per parameter of :func:`ja_params_from_theta`.
JA_SHAPES = {"theta_ja": (5,)}


def init_ja_theta(rng: np.random.Generator, dtype) -> dict:
    """The JA block (:data:`JA_SHAPES`), drawn from N(0, 0.5)."""
    return {k: rng.normal(0.0, 0.5, size=shape).astype(dtype) for k, shape in JA_SHAPES.items()}


# -- Jiles-Atherton Euler step ------------------------------------------------
# The Langevin function L(x) = coth(x) - 1/x and its first two derivatives.
# Below |x| < _LANGEVIN_CUT each switches to its Taylor series, so values and
# gradients stay exact near 0. The three share one coth, and each computes
# its series only when some element is below the cutoff.

def _langevin_parts(x):
    """(mask of the series elements or None, argument with those set to 1, its coth)."""
    small = np.abs(x) < _LANGEVIN_CUT
    if not small.any():
        return None, x, 1.0 / np.tanh(x)
    safe = np.where(small, 1.0, x)
    return small, safe, 1.0 / np.tanh(safe)


def _langevin_val(x, parts=None):
    small, safe, c = _langevin_parts(x) if parts is None else parts
    direct = c - 1.0 / safe
    if small is None:
        return direct
    x2 = x * x
    series = x * (1.0 / 3.0 + x2 * (-1.0 / 45.0 + x2 * (2.0 / 945.0 - x2 / 4725.0)))
    return np.where(small, series, direct)


def _langevin_d1(x, parts=None):
    small, safe, c = _langevin_parts(x) if parts is None else parts
    direct = 1.0 - c * c + 1.0 / (safe * safe)
    if small is None:
        return direct
    x2 = x * x
    series = 1.0 / 3.0 + x2 * (-1.0 / 15.0 + x2 * (2.0 / 189.0 - x2 / 675.0))
    return np.where(small, series, direct)


def _langevin_d2(x, parts=None):
    small, safe, c = _langevin_parts(x) if parts is None else parts
    direct = 2.0 * c * (c * c - 1.0) - 2.0 / (safe * safe * safe)
    if small is None:
        return direct
    x2 = x * x
    series = x * (-2.0 / 15.0 + x2 * (8.0 / 189.0 - x2 * (2.0 / 225.0)))
    return np.where(small, series, direct)


class JaStepTerms(NamedTuple):
    """One Euler step's intermediates, kept for the hand-written backward."""

    m: np.ndarray        # magnetization B_k / mu0 - H
    x: np.ndarray        # effective field over the form factor, (H + alpha_w M) / a
    parts: tuple         # _langevin_parts(x), shared by L, L' and L''
    lv: np.ndarray       # Langevin L(x)
    ld: np.ndarray       # L'(x)
    dman: np.ndarray     # dM_an/dH_e = (M_s / a) L'(x)
    delta: np.ndarray    # sign of the flux increment, broadcast to M's shape
    gate: np.ndarray     # irreversibility gate, 0 or 1
    den_safe: np.ndarray  # denominator with rows of delta == 0 set to 1
    r: np.ndarray        # dM/dH, exactly 0 where delta == 0
    one_plus: np.ndarray
    bracket: np.ndarray  # 1 - r / (1 + r)
    step: np.ndarray     # (B_{k+1} - B_k) / mu0


def ja_euler_kernel(h, b_k, b_k1, m_s, a, alpha_w, k_p, c):
    """One explicit-Euler JA step on plain arrays; returns (H_{k+1}, terms).

    ``h`` is an array, the five parameters are arrays (or floats) in its
    dtype that broadcast against it. The magnetization is closed through
    the flux, M = B_k / mu0 - H, in H's dtype. dM/dH uses the
    constant sign ``delta`` of the flux increment per element: elements with
    delta == 0 get exactly 0, and the irreversibility gate zeroes the wall
    term when the magnetization overshoots the anhysteretic curve against
    the drive direction.
    """
    dt = h.dtype
    b_k = np.asarray(b_k, dtype=np.float64)
    db = np.asarray(b_k1, dtype=np.float64) - b_k
    m = (b_k / MU0).astype(dt, copy=False) - h
    delta = np.empty(m.shape, dtype=dt)
    delta[...] = np.sign(db)
    x = (h + alpha_w * m) / a
    parts = _langevin_parts(x)
    lv = _langevin_val(x, parts)
    ld = _langevin_d1(x, parts)
    m_an = m_s * lv
    dman = (m_s / a) * ld
    diff = m_an - m
    # closed where M lies beyond M_an in the drive direction: delta and
    # M_an - M of opposite signs (a NaN difference leaves the gate open)
    gate = (~(delta * diff < 0)).astype(dt)
    num = gate * diff + c * k_p * delta * dman
    den = k_p * delta - alpha_w * num
    active = delta != 0.0
    den_safe = np.where(active, den, 1.0)
    smallest = np.abs(den_safe).min()  # inactive elements read 1, above the floor
    if smallest < _DENOM_FLOOR:
        raise SingularityError(f"JA denominator magnitude {smallest:.3e} below {_DENOM_FLOOR}")
    r = np.where(active, num / den_safe, 0.0)
    one_plus = r + 1.0
    if np.abs(one_plus).min() < 1e-12:
        raise SingularityError("dM/dH = -1 pole in the Euler bracket")
    bracket = 1.0 - r / one_plus
    step = (db / MU0).astype(dt)
    h_new = h + step * bracket
    return h_new, JaStepTerms(m, x, parts, lv, ld, dman, delta, gate, den_safe, r, one_plus,
                              bracket, step)


def ja_step_euler(h: Tensor, b_k, b_k1, z: Tensor) -> Tensor:
    """One explicit-Euler step of the inverse JA model across [B_k, B_{k+1}].

    ``h`` is the (rows, n) field H_k. ``z`` is the (rows, 5) Tensor of (M_s,
    a, alpha_w, k_p, c) that :func:`ja_params_from_theta` builds, or (1, 5)
    shared by all rows, in H's dtype; any other shape or dtype raises
    :class:`ShapeError`. The model is rate-independent: the sampling period
    multiplies dB/dt and cancels, so the step depends only on the flux
    increment. A constant-flux step leaves H exactly unchanged.

    H_{k+1} is one tape node with parents ``(h, z)`` whose backward is the
    analytic derivative; the gate and the delta == 0 mask are piecewise
    constant, and the path through M = B_k / mu0 - H is folded into H's
    gradient.
    """
    dt = h.data.dtype
    rows = h.data.shape[0]
    if z.data.ndim != 2 or z.data.shape[1] != 5 or z.data.shape[0] not in (1, rows):
        raise ShapeError(f"JA parameters z must be (1, 5) or ({rows}, 5) for a state of "
                         f"shape {h.data.shape}, got {z.data.shape}")
    if z.data.dtype != dt:
        raise ShapeError(f"JA step operands must all be {dt}: z is {z.data.dtype}")
    # contiguous (rows|1, 1) columns: strided views of z slow the elementwise work
    m_s, a, alpha_w, k_p, c = z.data.T.copy()[:, :, None]
    h_new, t = ja_euler_kernel(h.data, b_k, b_k1, m_s, a, alpha_w, k_p, c)

    def backward(g):
        # h_new = h + step * (1 - r / (1 + r)); d(bracket)/dr = -bracket / (1 + r).
        # step is 0 wherever delta is, so g_r needs no mask.
        g_r = -(g * t.step) * t.bracket / t.one_plus
        g_num = g_r * (1.0 + alpha_w * t.r) / t.den_safe
        g_gated = g_num * t.gate
        g_dman = g_num * (c * k_p * t.delta)
        # g_e: gradient of the effective field H + alpha_w * M
        g_e = (g_gated * m_s * t.ld + g_dman * (m_s / a) * _langevin_d2(t.x, t.parts)) / a
        if h.requires_grad:
            _accum(h, _unbroadcast(g + g_e, h.data.shape))
            # M = B_k / mu0 - H: M's gradient reaches H negated, as a second sum
            # after the direct one (the pinned head gradients depend on this order)
            _accum(h, _unbroadcast(-(g_e * alpha_w - g_gated), h.data.shape))
        if not z.requires_grad:
            return
        partials = (
            g_gated * t.lv + g_dman * t.ld / a,
            -(g_e * t.x + g_dman * t.dman / a),
            g_r * t.r * t.r + g_e * t.m,
            (g_num * c * t.dman - g_r * t.r / t.den_safe) * t.delta,
            g_num * k_p * t.delta * t.dman,
        )
        col = (z.data.shape[0], 1)
        # + 0.0 turns -0 into +0, as a zero-filled scatter per column would
        _accum(z, np.concatenate([_unbroadcast(p, col) for p in partials], axis=1) + 0.0)

    return _node(h_new, (h, z), backward)


def gru_jadp_step(x: Tensor, g_prev: Tensor, gru_params: GruParams, h: Tensor, b_k, b_k1):
    """Coupled step: the GRU's first five hidden elements parameterize the JA substep.

    Returns (new field H, new hidden state). A hidden size below five raises
    the :class:`PhysicsError` of :func:`ja_params_from_theta`.
    """
    g = gru_step(x, g_prev, gru_params)
    return ja_step_euler(h, b_k, b_k1, ja_params_from_theta(g)), g


def pinn_ja_residual(h_traj: Tensor, b_traj, z: Tensor):
    """Physics-regularization residuals of a predicted field trajectory.

    ``h_traj`` is (rows, n+1) in raw units, starting at the last known
    sample; ``b_traj`` matches, and ``z`` holds the JA parameters as in
    :func:`ja_step_euler`. Step k compares the JA-predicted increment
    from (H_{k-1}, B_{k-1}, B_k) with the actual increment. Every step starts
    from the known H_{k-1}, so all n steps run as one elementwise Euler step
    on (rows, n) arrays. Returns the per-step residuals (rows, n) and the
    per-row RMS penalty (rows,).
    """
    b_traj = np.asarray(b_traj, dtype=np.float64)
    n_plus = h_traj.data.shape[1]
    if n_plus < 2 or b_traj.shape != h_traj.data.shape:
        raise PhysicsError("trajectories must be (rows, n+1) with n >= 1 and matching shapes")
    h_prev = h_traj[:, :-1]
    stepped = ja_step_euler(h_prev, b_traj[:, :-1], b_traj[:, 1:], z)
    e = (stepped - h_prev) - (h_traj[:, 1:] - h_prev)
    l_ja_rows = sqrt(tsum(e * e, axis=1) * (1.0 / (n_plus - 1)))
    return e, l_ja_rows


# -- Preisach ---------------------------------------------------------------

@dataclass
class PreisachParams:
    """Hysteron density, affine output map, and the static threshold grid."""

    mu: np.ndarray      # (N,) density (trainable)
    omega: np.ndarray   # (3,) output map: offset, linear bypass, hysteron gain (trainable)
    alpha: np.ndarray   # (N,) falling-branch thresholds (static, alpha >= beta)
    beta: np.ndarray    # (N,) rising-branch thresholds (static)

    @property
    def n_hysterons(self) -> int:
        return len(self.mu)

    def count(self) -> int:
        return self.mu.size + self.omega.size


def preisach_grid(n_levels: int = 17):
    """Equally spaced half-plane grid on [-1, 1] (alpha_i >= beta_i); n(n+1)/2 nodes."""
    levels = np.linspace(-1.0, 1.0, n_levels)
    ii, jj = np.tril_indices(n_levels)
    return levels[ii].copy(), levels[jj].copy()


def init_preisach_params(n_levels: int = 17, rng: np.random.Generator | None = None) -> PreisachParams:
    alpha, beta = preisach_grid(n_levels)
    n = len(alpha)
    rng = rng or np.random.default_rng(0)
    mu = rng.uniform(0.0, 2.0 / n, size=n)
    omega = np.array([0.0, 0.3, 0.7])
    return PreisachParams(mu=mu, omega=omega, alpha=alpha, beta=beta)


def hysteron_states(h: np.ndarray, params: PreisachParams) -> np.ndarray:
    """Hysteron trajectories for input rows.

    ``h`` is (rows, n); returns (rows, n, N). States start at -1 (negative
    saturation history) and the first step counts as rising. Rising input
    pushes a state up through tanh((H - beta)/|T|), falling or equal input
    pushes it down through tanh((alpha - H)/|T|); each branch is clamped to
    [-1, 1]. The states depend only on the input, never on the trainable
    parameters, so this runs outside the tape.
    """
    h = np.atleast_2d(np.asarray(h, dtype=np.float64))
    rows, n = h.shape
    gamma = np.full((rows, params.n_hysterons), -1.0, dtype=np.float64)
    out = np.empty((rows, n, params.n_hysterons), dtype=np.float64)
    h_prev = np.full((rows, 1), -np.inf)
    for k in range(n):
        h_k = h[:, k:k + 1]
        rising = h_k > h_prev
        # one tanh per element, of the branch its row takes; gamma + (-1) * t has the
        # bits of gamma - t
        push = np.tanh(np.where(rising, h_k - params.beta[None, :],
                                params.alpha[None, :] - h_k) / HYSTERON_SHARPNESS)
        gamma = np.clip(gamma + np.where(rising, 1.0, -1.0) * push, -1.0, 1.0)
        out[:, k, :] = gamma
        h_prev = h_k
    return out


def preisach_predict(h_norm, params: PreisachParams, mu: Tensor | None = None,
                     omega: Tensor | None = None) -> Tensor:
    """Predicted normalized flux for a normalized field sequence.

    ``omega[2] * sum_i(mu_i * gamma_ki) + omega[1] * H~_k + omega[0]``, with
    the hysteron trajectories precomputed as constants. Pass ``mu``/``omega``
    as tape leaves to differentiate; they default to the stored arrays.
    Accepts (n,) or (rows, n) input and matches that shape.
    """
    if mu is None:
        mu = Tensor(params.mu)
    if omega is None:
        omega = Tensor(params.omega, dtype=mu.data.dtype)
    h_arr = np.asarray(h_norm, dtype=np.float64)
    squeeze = h_arr.ndim == 1
    h2 = np.atleast_2d(h_arr)
    states = hysteron_states(h2, params)
    rows, n = h2.shape
    flat = Tensor(states.reshape(rows * n, params.n_hysterons), dtype=mu.data.dtype)
    s = reshape(matmul(flat, reshape(mu, (params.n_hysterons, 1))), (rows, n))
    out = omega[2:3] * s + omega[1:2] * Tensor(h2, dtype=mu.data.dtype) + omega[0:1]
    return reshape(out, (n,)) if squeeze else out
