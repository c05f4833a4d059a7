"""Hysteresis physics: an inverse Jiles-Atherton integrator and a
differentiable Preisach operator.

The Jiles-Atherton (JA) model advances the magnetic field H along a given
flux trajectory B by explicit Euler over

    dH/dt = (dB/dt) / mu0 * [1 - (dM/dH) / (1 + dM/dH)],

where dM/dH combines the anhysteretic magnetization (Langevin curve) with
irreversible and reversible wall-motion terms gated by the flux direction.
The magnetization state is closed through B = mu0 * (H + M). The five
physical parameters are produced from unconstrained values through a scaled
sigmoid so they stay strictly inside (0, eta) during optimization.

The Preisach model superposes smooth bistable hysterons on a fixed
triangular threshold grid; only the density vector and an affine output map
are trainable, which keeps the whole prediction differentiable.

Everything here runs on the tape engine, so gradients flow through entire
rollouts. JA-hybrid training requires double precision.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    langevin,
    langevin_deriv,
    matmul,
    reshape,
    sigmoid,
    sqrt,
    tsum,
    where_mask,
)
from .cells import GruParams, gru_step

MU0 = 4e-7 * np.pi

#: Positive scale caps for (M_s, a, alpha_w, k_p, c); config-overridable.
DEFAULT_ETA = (5e5, 1e3, 1e-2, 1e3, 1.0)

_DENOM_FLOOR = 1e-30

#: Transition width |T| of every smooth hysteron, in normalized field units.
HYSTERON_SHARPNESS = 1e-3


class PhysicsError(ValueError):
    pass


class SingularityError(PhysicsError):
    """A JA denominator or the Euler bracket hit its pole."""


@dataclass
class JaPhysical:
    """The five physical JA parameters, each a Tensor (rows, 1) or scalar."""

    m_s: object
    a: object
    alpha_w: object
    k_p: object
    c: object


@dataclass
class JaState:
    """Current field and magnetization estimate along a rollout."""

    h: Tensor
    m: Tensor


def ja_params_from_theta(theta: Tensor, eta=DEFAULT_ETA) -> JaPhysical:
    """Map unconstrained values to physical parameters: z_i = eta_i * sigmoid(theta_i).

    ``theta`` is (rows, 5); each returned component is (rows, 1).
    """
    eta = np.asarray(eta, dtype=np.float64)
    if np.any(eta <= 0):
        raise PhysicsError("eta scaling factors must be positive")
    if theta.data.ndim != 2 or theta.data.shape[1] != 5:
        raise PhysicsError(f"theta must be (rows, 5), got {theta.data.shape}")
    z = sigmoid(theta) * Tensor(eta.reshape(1, 5), dtype=theta.data.dtype)
    return JaPhysical(*(z[:, i:i + 1] for i in range(5)))


def ja_dmdh(h: Tensor, m: Tensor, delta: np.ndarray, phys: JaPhysical) -> Tensor:
    """Differential susceptibility dM/dH for the current state and flux direction.

    ``delta`` is the constant sign of dB/dt per row (-1, 0, +1). Rows with
    delta == 0 return exactly 0. The irreversibility gate zeroes the wall
    term when the magnetization overshoots the anhysteretic curve against
    the drive direction.
    """
    delta = np.broadcast_to(np.asarray(delta, dtype=np.float64), m.data.shape).copy()
    x = (h + phys.alpha_w * m) / phys.a
    m_an = phys.m_s * langevin(x)
    dman_dhe = (phys.m_s / phys.a) * langevin_deriv(x)
    gate = np.ones_like(delta)
    gate[(delta < 0) & (m_an.data > m.data)] = 0.0
    gate[(delta > 0) & (m_an.data < m.data)] = 0.0
    delta_t = Tensor(delta, dtype=h.data.dtype)
    num = Tensor(gate, dtype=h.data.dtype) * (m_an - m) + phys.c * phys.k_p * delta_t * dman_dhe
    den = phys.k_p * delta_t - phys.alpha_w * num
    active = delta != 0.0
    if np.any(active):
        smallest = np.min(np.abs(den.data[active]))
        if smallest < _DENOM_FLOOR:
            raise SingularityError(f"JA denominator magnitude {smallest:.3e} below {_DENOM_FLOOR}")
    den_safe = where_mask(active, den, 1.0)
    return where_mask(active, num / den_safe, 0.0)


def ja_step_euler(state: JaState, b_k, b_k1, phys: JaPhysical) -> JaState:
    """One explicit-Euler step of the inverse JA model across [B_k, B_{k+1}].

    The model is rate-independent: the sampling period multiplies dB/dt and
    cancels, so the step depends only on the flux increment. A constant-flux
    step leaves H exactly unchanged. The magnetization is re-closed through
    B = mu0 * (H + M) after the update.
    """
    b_k = np.asarray(b_k, dtype=np.float64)
    b_k1 = np.asarray(b_k1, dtype=np.float64)
    db = b_k1 - b_k
    delta = np.sign(db)
    r = ja_dmdh(state.h, state.m, delta, phys)
    one_plus = 1.0 + r
    if np.min(np.abs(one_plus.data)) < 1e-12:
        raise SingularityError("dM/dH = -1 pole in the Euler bracket")
    bracket = 1.0 - r / one_plus
    h_new = state.h + Tensor(db / MU0, dtype=state.h.data.dtype) * bracket
    m_new = Tensor(b_k1 / MU0, dtype=state.h.data.dtype) - h_new
    return JaState(h=h_new, m=m_new)


def ja_initial_state(h_known, b_known) -> JaState:
    """Start integration at the last known sample: H = H_known, M = B/mu0 - H (float64)."""
    h0 = np.asarray(h_known, dtype=np.float64)
    b0 = np.asarray(b_known, dtype=np.float64)
    return JaState(h=Tensor(h0), m=Tensor(b0 / MU0 - h0))


def gru_jadp_step(x: Tensor, g_prev: Tensor, gru_params: GruParams, eta,
                  ja_state: JaState, b_k, b_k1):
    """Coupled step: the GRU's first five hidden elements parameterize the JA substep.

    Returns (new JaState, new hidden state).
    """
    if g_prev.data.shape[1] < 5:
        raise PhysicsError("gru-jadp needs a hidden size of at least 5")
    g = gru_step(x, g_prev, gru_params)
    phys = ja_params_from_theta(g[:, 0:5], eta)
    return ja_step_euler(ja_state, b_k, b_k1, phys), g


def pinn_ja_residual(h_traj: Tensor, b_traj, phys: JaPhysical):
    """Physics-regularization residuals of a predicted field trajectory.

    ``h_traj`` is (rows, n+1) in raw units, starting at the last known
    sample; ``b_traj`` matches. Step k compares the JA-predicted increment
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
    state = JaState(h=h_prev, m=Tensor(b_traj[:, :-1] / MU0, dtype=h_traj.data.dtype) - h_prev)
    stepped = ja_step_euler(state, b_traj[:, :-1], b_traj[:, 1:], phys)
    e = (stepped.h - h_prev) - (h_traj[:, 1:] - h_prev)
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
        return len(self.mu) + 3


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
        up = np.clip(gamma + np.tanh((h_k - params.beta[None, :]) / HYSTERON_SHARPNESS), -1.0, 1.0)
        down = np.clip(gamma - np.tanh((params.alpha[None, :] - h_k) / HYSTERON_SHARPNESS), -1.0, 1.0)
        gamma = np.where(rising, up, down)
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
