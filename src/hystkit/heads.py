"""Prediction heads: recurrent rollouts that turn feature windows into field estimates.

Rollout protocol shared by all archetypes: a window of L samples splits at
the warmup length w into a conditioning part (target values known) and an
open-loop part. Warmup consumes feature steps 1..w-1, prediction consumes
steps w..L-1; each prediction step emits one normalized target estimate.

Archetypes:

* ``gru-p``   — hidden element 0 is the normalized field estimate; warmup
  overwrites element 0 with the true value after every step (state
  injection), so the remaining elements adapt without accumulating error.
* ``gru-m``   — element 0 is a magnetization surrogate; the estimate is
  tanh(B~ - g0) and warmup injects the inverse, B~ - atanh(H~).
* ``gru-l``   — element 0 is a normalized inverse permeability; estimate
  g0 * B~, warmup injects H~/B~ (guarded against tiny B~).
* ``lstm-p``  — like gru-p; only the hidden state receives injections, the
  cell state evolves freely.
* ``gru-v``   — hidden state read as a (N+1)x(N+1) grid of 2-vectors whose
  first components sum to a magnetization estimate: H~ = B~ - sum. No
  state interpretation supports injection, so warmup runs without it from a
  zero state.
* ``gru-jadp`` — the first five hidden elements parameterize a
  Jiles-Atherton substep each sample; no injection, integration starts from
  the last known field sample.
* ``ja``      — the five-parameter Jiles-Atherton integrator alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, concat, dtype_of, reshape, tanh, tsum
from .cells import LSTM_ARCHETYPES, GruParams, LstmParams, gru_step, lstm_step
from .dataset import DataError, MiniBatch, NormConstants
from .physics import (
    DEFAULT_ETA,
    ja_initial_state,
    ja_params_from_theta,
    ja_step_euler,
    gru_jadp_step,
)

ARCHETYPES = ("gru-p", "gru-m", "gru-l", "lstm-p", "gru-v", "gru-jadp", "ja")
#: Heads whose warmup overwrites hidden element 0 with a known value.
INJECTING = ("gru-p", "gru-m", "gru-l", "lstm-p")
#: Heads that integrate the Jiles-Atherton model in raw units.
JA_FAMILY = ("ja", "gru-jadp")

#: Division guard for the inverse-permeability warmup.
EPS_B = 1e-6


class HeadError(ValueError):
    pass


class WarmupError(HeadError):
    """A warmup sample lies outside the head's invertible domain.

    ``row`` is the batch row of the offending window, when one is known.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


@dataclass
class HeadConfig:
    archetype: str
    d_g: int
    d_x: int = 4
    warmup_length: int = 16
    eta: tuple = DEFAULT_ETA

    def __post_init__(self):
        if self.archetype not in ARCHETYPES:
            raise HeadError(f"unknown archetype {self.archetype!r}")
        if self.warmup_length < 1:
            raise HeadError("warmup_length must be >= 1")
        if self.archetype == "gru-v":
            side = np.sqrt(self.d_g / 2.0)
            if side != int(side) or int(side) < 2:
                raise HeadError(f"gru-v needs d_g = 2*(N+1)^2 with N >= 1, got d_g={self.d_g}")
        if self.archetype == "gru-jadp" and self.d_g < 5:
            raise HeadError("gru-jadp needs d_g >= 5")

    @property
    def grid_side(self) -> int:
        return int(np.sqrt(self.d_g / 2.0))


@dataclass
class RolloutInputs:
    """One batch of aligned windows, direction-agnostic.

    ``drive`` is the signal the model reads every step (normalized flux in
    the standard field-prediction direction) and ``target_warm`` holds the
    known normalized target values over the warmup part. The raw-unit
    context is only required by the JA-family heads.
    """

    x: np.ndarray               # (rows, L, d_x)
    drive_norm: np.ndarray      # (rows, L)
    target_warm_norm: np.ndarray  # (rows, w)
    warmup_length: int
    drive_raw: np.ndarray | None = None
    target_warm_raw: np.ndarray | None = None
    target_max: float | None = None

    @property
    def rows(self) -> int:
        return self.x.shape[0]

    @property
    def length(self) -> int:
        return self.x.shape[1]


@dataclass
class RolloutResult:
    """Open-loop predictions over one window, normalized and in raw units."""

    pred_norm: np.ndarray
    pred: np.ndarray


def inputs_from_batch(batch: MiniBatch, norm: NormConstants) -> RolloutInputs:
    w = batch.warmup_length
    return RolloutInputs(
        x=batch.x,
        drive_norm=batch.b_norm,
        target_warm_norm=batch.h_norm[:, :w],
        warmup_length=w,
        drive_raw=batch.b_raw,
        target_warm_raw=batch.h_raw[:, :w],
        target_max=norm.h_max,
    )


def _cell(config: HeadConfig):
    """The parameter record of the archetype's recurrent cell."""
    return LstmParams if config.archetype in LSTM_ARCHETYPES else GruParams


def init_head_params(config: HeadConfig, seed, precision: str = "double") -> dict:
    """Named parameter arrays for one archetype, deterministically seeded."""
    dt = dtype_of(precision)
    rng = np.random.default_rng(seed)
    if config.archetype == "ja":
        return {"theta_ja": rng.normal(0.0, 0.5, size=5).astype(dt)}
    return _cell(config).init(config.d_g, config.d_x, rng, dt).as_dict()


def wrap_params(arrays: dict, requires_grad: bool = True) -> dict:
    return {k: Tensor(v, dtype=v.dtype, requires_grad=requires_grad) for k, v in arrays.items()}


def _check_warmup(bad: np.ndarray, what: str) -> None:
    """Raise a WarmupError naming the first (row, step) where ``bad`` holds."""
    if np.any(bad):
        row, step = (int(i) for i in np.argwhere(bad)[0])
        raise WarmupError(f"{what} at warmup step {step} of row {row}", row=row)


def _inject_values(config: HeadConfig, inputs: RolloutInputs) -> np.ndarray:
    """Per-step warmup injection values for element 0 of the hidden state."""
    w = inputs.warmup_length
    target = np.asarray(inputs.target_warm_norm, dtype=np.float64)
    if config.archetype in ("gru-p", "lstm-p"):
        return target
    drive = np.asarray(inputs.drive_norm[:, :w], dtype=np.float64)
    if config.archetype == "gru-m":
        _check_warmup(np.abs(target) >= 1.0, "|H~| >= 1 (magnetization inverse undefined)")
        return drive - np.arctanh(target)
    if config.archetype == "gru-l":
        _check_warmup(np.abs(drive) <= EPS_B, f"|B~| <= {EPS_B} (permeability inverse undefined)")
        return target / drive
    raise HeadError(f"{config.archetype} does not use state injection")


def _inject(state: Tensor, column: np.ndarray) -> Tensor:
    """Overwrite element 0 of every row, leaving elements 1.. untouched."""
    col = Tensor(column.astype(state.data.dtype))
    return concat([col, state[:, 1:]], axis=1)


def _dtype(params: dict):
    return params[next(iter(params))].data.dtype


def warmup(config: HeadConfig, params: dict, inputs: RolloutInputs):
    """Recurrent state (hidden, cell) after warmup step w-1; the cell is None for GRU heads.

    Injecting heads start from the zero state with element 0 injected and
    overwrite element 0 with the true value after each recurrent step;
    gru-v and gru-jadp run the same steps from a zero state without
    injection. With warmup length 1 no recurrent step executes.
    """
    dt = _dtype(params)
    rows, w = inputs.rows, inputs.warmup_length
    lstm = config.archetype in LSTM_ARCHETYPES
    p = _cell(config).from_dict(params)
    g = Tensor(np.zeros((rows, config.d_g), dtype=dt))
    c = Tensor(np.zeros((rows, config.d_g), dtype=dt)) if lstm else None
    inject = None
    if config.archetype in INJECTING:
        if w < 1 or inputs.target_warm_norm.shape[1] != w:
            raise WarmupError("empty or mismatched warmup window")
        inject = _inject_values(config, inputs)
        _check_warmup(~np.isfinite(inject), "non-finite injection value")
        g = _inject(g, inject[:, 0:1])
    for t in range(1, w):
        x_t = Tensor(inputs.x[:, t, :].astype(dt))
        # Looked up in this module at call time, where bench/tracing.py patches them.
        if lstm:
            g, c = lstm_step(x_t, g, c, p)
        else:
            g = gru_step(x_t, g, p)
        if inject is not None:
            g = _inject(g, inject[:, t:t + 1])
    return g, c


def gru_v_readout(g: Tensor, drive_col) -> Tensor:
    """Grid readout: drive minus the summed first components of the grid's 2-vectors.

    The flat hidden state stores the (N+1)x(N+1) grid of 2-vectors
    contiguously, so the first components sit at even indices.
    """
    grid_sum = tsum(g[:, 0::2], axis=1, keepdims=True)
    return Tensor(np.asarray(drive_col, dtype=g.data.dtype)) - grid_sum


def _open_loop(config: HeadConfig, params: dict, inputs: RolloutInputs, dt):
    """(state after warmup, step(state, t), readout(state, t)) of one archetype."""
    w = inputs.warmup_length
    b_raw = inputs.drive_raw

    def x(t):
        return Tensor(inputs.x[:, t, :].astype(dt))

    def drive(t):
        return Tensor(inputs.drive_norm[:, t:t + 1].astype(dt))

    # Each step lambda looks up its step function in this module at call
    # time, where the benchmark's tracer (bench/tracing.py) patches it.
    if config.archetype in JA_FAMILY:
        ja = ja_initial_state(inputs.target_warm_raw[:, w - 1:w], b_raw[:, w - 1:w])
        inv_max = 1.0 / inputs.target_max
    if config.archetype == "ja":
        phys = ja_params_from_theta(reshape(params["theta_ja"], (1, 5)), config.eta)
        return (ja,
                lambda s, t: ja_step_euler(s, b_raw[:, t - 1:t], b_raw[:, t:t + 1], phys),
                lambda s, t: s.h * inv_max)
    g, c = warmup(config, params, inputs)
    p = _cell(config).from_dict(params)
    if config.archetype in LSTM_ARCHETYPES:
        return (g, c), lambda s, t: lstm_step(x(t), *s, p), lambda s, t: s[0][:, 0:1]
    if config.archetype == "gru-jadp":
        return ((ja, g),
                lambda s, t: gru_jadp_step(x(t), s[1], p, config.eta, s[0],
                                           b_raw[:, t - 1:t], b_raw[:, t:t + 1]),
                lambda s, t: s[0].h * inv_max)
    readouts = {
        "gru-p": lambda g, t: g[:, 0:1],
        "gru-m": lambda g, t: tanh(drive(t) - g[:, 0:1]),
        "gru-l": lambda g, t: g[:, 0:1] * drive(t),
        "gru-v": lambda g, t: gru_v_readout(g, inputs.drive_norm[:, t:t + 1]),
    }
    return g, lambda g, t: gru_step(x(t), g, p), readouts[config.archetype]


def rollout(config: HeadConfig, params: dict, inputs: RolloutInputs):
    """Full warmup + open-loop prediction for one batch of windows.

    ``params`` maps names to tape Tensors. Returns the normalized
    predictions as a tape Tensor of shape (rows, L - w) plus the final
    state: the hidden Tensor (GRU heads), a (hidden, cell) pair (lstm-p),
    a (JaState, hidden) pair (gru-jadp) or a JaState (ja).
    """
    if inputs.x.shape[2] != config.d_x and config.archetype != "ja":
        raise HeadError(f"feature width {inputs.x.shape[2]} != d_x {config.d_x}")
    dt = _dtype(params)
    if config.archetype in JA_FAMILY:
        if inputs.drive_raw is None or inputs.target_warm_raw is None or inputs.target_max is None:
            raise HeadError("JA-family rollouts need raw-unit drive/target context")
        if dt != np.float64:
            raise HeadError(f"{config.archetype} rollouts require double precision")
    state, step, readout = _open_loop(config, params, inputs, dt)
    preds = []
    for t in range(inputs.warmup_length, inputs.length):
        state = step(state, t)
        preds.append(readout(state, t))
    return concat(preds, axis=1), state


def _predict_group(config: HeadConfig, params: dict, seqs, norm: NormConstants,
                   dt) -> np.ndarray:
    """Normalized float64 predictions ``(rows, L - w)`` of sequences of one length L.

    The feature block is filled in place in the run precision, one
    ``featurize`` call per sequence. The group's input blocks die on
    return, before the caller allocates the per-row results.
    """
    # Imported at call time, so a tracer that patches hystkit.dataset.featurize sees it.
    from .dataset import featurize

    rows, length, w = len(seqs), len(seqs[0]), config.warmup_length
    x = None
    drive_raw = np.empty((rows, length))
    target_warm_raw = np.empty((rows, w))
    for row, seq in enumerate(seqs):
        features = featurize(seq, norm)
        if x is None:
            x = np.empty((rows,) + features.shape, dtype=dt)
        x[row] = features
        drive_raw[row] = seq.b
        target_warm_raw[row] = seq.h[:w]
    inputs = RolloutInputs(
        x=x,
        drive_norm=drive_raw / norm.b_max,
        target_warm_norm=target_warm_raw / norm.h_max,
        warmup_length=w,
        drive_raw=drive_raw,
        target_warm_raw=target_warm_raw,
        target_max=norm.h_max,
    )
    pred_t, _ = rollout(config, params, inputs)
    return pred_t.data.astype(np.float64)


def predict_window(config: HeadConfig, params_arrays: dict, seqs, norm: NormConstants,
                   precision: str = "double") -> list[RolloutResult]:
    """Open-loop predictions of samples w..L-1 of each sequence, w = ``config.warmup_length``,
    one result per sequence in input order.

    The known H over samples 0..w-1 conditions the state. Sequences of the
    same length run as one batched rollout with frozen parameters. A
    batch's rows do not depend on each other, but a one-row batch takes a
    different BLAS kernel (gemv instead of gemm), so a sequence predicted
    alone can differ from the same sequence in a batch in the last bits.
    A sequence shorter than w + 2 samples raises :class:`DataError`, and a
    :class:`WarmupError` names the input index of the offending sequence.
    """
    w = config.warmup_length
    groups: dict = {}
    for i, seq in enumerate(seqs):
        if len(seq) < w + 2:
            raise DataError(f"sequence {i} has {len(seq)} samples; warmup {w} needs >= {w + 2}")
        groups.setdefault(len(seq), []).append(i)
    dt = dtype_of(precision)
    params = wrap_params({k: np.asarray(v, dtype=dt) for k, v in params_arrays.items()},
                         requires_grad=False)
    results: list = [None] * len(seqs)
    for members in groups.values():
        try:
            pred_norm = _predict_group(config, params, [seqs[i] for i in members], norm, dt)
        except WarmupError as exc:
            if exc.row is None:
                raise
            raise WarmupError(f"sequence {members[exc.row]}: {exc}") from exc
        pred = pred_norm * norm.h_max
        for row, i in enumerate(members):
            results[i] = RolloutResult(pred_norm=pred_norm[row], pred=pred[row])
    return results
