"""Synthetic measurement generation from a fixed-parameter hysteresis model.

Drives the inverse Jiles-Atherton integrator with mixed sine/triangle flux
waveforms to produce (B, H) sequence pairs with realistic soft-ferrite
scales. Useful for capability checks and demos when no measured data is
mounted. Parameters vary mildly with the synthetic core temperature so the
temperature feature carries signal.
"""
from __future__ import annotations

import numpy as np

from .dataset import DEFAULT_TAU_S, MeasuredSequence
from .physics import ja_euler_kernel

#: (M_s, a, alpha_w, k_p, c) for a plausible soft ferrite.
DEFAULT_JA_PHYSICAL = (3.5e5, 30.0, 5e-5, 20.0, 0.25)

_FREQS_HZ = (50e3, 80e3, 125e3)
_TEMPS_C = (25.0, 50.0, 70.0)


def ja_generate_field(b_rows: np.ndarray, temperatures=None) -> np.ndarray:
    """Integrate H along each flux row with :data:`DEFAULT_JA_PHYSICAL`.

    H starts at 0, and each step closes M through B. With ``temperatures`` given,
    saturation and pinning shrink mildly as the core heats up.
    """
    b_rows = np.atleast_2d(np.asarray(b_rows, dtype=np.float64))
    rows, n = b_rows.shape
    m_s, a, alpha_w, k_p, c = (np.asarray(p, dtype=np.float64) for p in DEFAULT_JA_PHYSICAL)
    if temperatures is not None:
        t = np.asarray(temperatures, dtype=np.float64).reshape(rows, 1)
        m_s = m_s * (1.0 - 1.5e-3 * (t - 25.0))
        k_p = k_p * (1.0 - 4.0e-3 * (t - 25.0))
    h = np.zeros((rows, n), dtype=np.float64)
    h_col = np.zeros((rows, 1))
    for k in range(1, n):
        h_col, _ = ja_euler_kernel(h_col, b_rows[:, k - 1:k], b_rows[:, k:k + 1],
                                   m_s, a, alpha_w, k_p, c)
        h[:, k] = h_col[:, 0]
    return h


def flux_waveforms(n_sequences: int, length: int, rng: np.random.Generator,
                   tau: float = DEFAULT_TAU_S):
    """Random flux rows (tesla) plus their excitation frequency labels."""
    t = np.arange(length) * tau
    waves = np.empty((n_sequences, length))
    freqs = np.empty(n_sequences)
    for i in range(n_sequences):
        f = _FREQS_HZ[int(rng.integers(len(_FREQS_HZ)))]
        amp = rng.uniform(0.1, 0.3)
        kind = int(rng.integers(3))
        phase = 2.0 * np.pi * f * t
        if kind == 0:
            w = np.sin(phase)
        elif kind == 1:
            w = 0.85 * np.sin(phase) + 0.15 * np.sin(3.0 * phase)
        else:
            duty = rng.uniform(0.35, 0.65)
            frac = (f * t) % 1.0
            w = np.where(frac < duty, 2.0 * frac / duty - 1.0, 1.0 - 2.0 * (frac - duty) / (1.0 - duty))
            w = w - w.mean()
        waves[i] = amp * w
        freqs[i] = f
    return waves, freqs


def generate_ja_dataset(n_sequences: int = 20, length: int = 640, seed: int = 0,
                        tau: float = DEFAULT_TAU_S,
                        material_id: str = "synthetic") -> list[MeasuredSequence]:
    """Measurement sequences from the fixed-parameter forward model.

    One settling period (the slowest waveform's) is integrated and dropped
    so every recorded window starts on a stable loop.
    """
    rng = np.random.default_rng(seed)
    settle = int(round(1.0 / (min(_FREQS_HZ) * tau)))
    waves, freqs = flux_waveforms(n_sequences, length + settle, rng, tau)
    temps = np.array([_TEMPS_C[i % len(_TEMPS_C)] for i in range(n_sequences)])
    h = ja_generate_field(waves, temperatures=temps)
    sequences = []
    for i in range(n_sequences):
        sequences.append(MeasuredSequence(
            b=waves[i, settle:].copy(),
            h=h[i, settle:].copy(),
            temperature_c=float(temps[i]),
            tau_s=tau,
            material_id=material_id,
            f_sw_hz=float(freqs[i]),
        ))
    return sequences
