"""Prediction heads: recurrent rollouts that turn feature windows into field estimates.

Rollout protocol shared by all archetypes: a window of L samples splits at
the warmup length w into a conditioning part (target values known) and an
open-loop part. Warmup consumes feature steps 1..w-1, prediction consumes
steps w..L-1; each prediction step emits one normalized target estimate.
Warmup makes one cell call per step, so a value can be injected between
steps. Every head's open loop returns its predictions alone and reads all
estimates out at once: the cell heads run it as one sequence node
(``cells.gru_sequence``/``lstm_sequence``) that records per step only the
hidden elements the readout reads (element 0, or gru-v's even elements);
the JA-family heads step it one sample at a time and scale the
concatenated field columns by 1/H_max.

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

The functions here that take a config take the run's
:class:`~hystkit.training.TrainConfig` and read three of its fields:
``archetype``, ``d_g`` (the hidden size) and ``warmup_length``. A cell head's
arrays are drawn by its cell record (``cells.LstmParams`` for ``lstm-p``,
``cells.GruParams`` for the others), its input weights for
:data:`~hystkit.dataset.FEATURE_WIDTH` features; ``ja``'s block is drawn by
``physics.init_ja_theta``. :func:`param_shapes` states the shapes they draw
without drawing, and :func:`param_count` sums them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .autodiff import Tensor, _accum, _node, concat, dtype_of, reshape, tanh, tsum
from .cells import GruParams, LstmParams, gru_sequence, gru_step, lstm_sequence, lstm_step
from .dataset import FEATURE_WIDTH, DataError, MiniBatch, NormConstants
from .physics import JA_SHAPES, init_ja_theta, ja_params_from_theta, ja_step_euler, gru_jadp_step

if TYPE_CHECKING:
    from .training import TrainConfig

ARCHETYPES = ("gru-p", "gru-m", "gru-l", "lstm-p", "gru-v", "gru-jadp", "ja")
#: Heads whose warmup overwrites hidden element 0 with a known value.
INJECTING = ("gru-p", "gru-m", "gru-l", "lstm-p")
#: Heads that integrate the Jiles-Atherton model in raw units.
JA_FAMILY = ("ja", "gru-jadp")
#: Heads whose recurrent cell is an LSTM; the other cell heads run a GRU.
LSTM_ARCHETYPES = ("lstm-p",)

#: Division guard for the inverse-permeability warmup.
EPS_B = 1e-6


class HeadError(ValueError):
    pass


class WarmupError(HeadError):
    """A warmup sample lies outside the head's invertible domain.

    ``row`` is the batch row of the offending window, when one is known; the
    message names the warmup step, and callers name the row in their terms.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


@dataclass
class RolloutInputs:
    """One batch of aligned windows, direction-agnostic.

    ``drive`` is the signal the model reads every step (normalized flux in the
    standard field-prediction direction) and ``target_warm`` holds the known
    normalized target values over the warmup part, whose width is the warmup
    length. The raw-unit context is only required by the JA-family heads.
    """

    x: np.ndarray               # (rows, L, FEATURE_WIDTH)
    drive_norm: np.ndarray      # (rows, L)
    target_warm_norm: np.ndarray  # (rows, w)
    drive_raw: np.ndarray | None = None
    target_warm_raw: np.ndarray | None = None
    target_max: float | None = None

    @property
    def warmup_length(self) -> int:
        return self.target_warm_norm.shape[1]

    @classmethod
    def from_raw(cls, x, drive_raw, target_warm_raw, norm: NormConstants) -> RolloutInputs:
        """The inputs of raw-unit drive and warm-target rows, normalized by ``norm``."""
        return cls(x=x, drive_norm=drive_raw / norm.b_max,
                   target_warm_norm=target_warm_raw / norm.h_max, drive_raw=drive_raw,
                   target_warm_raw=target_warm_raw, target_max=norm.h_max)


@dataclass
class RolloutResult:
    """Open-loop predictions over one window, normalized and in raw units."""

    pred_norm: np.ndarray
    pred: np.ndarray


def inputs_from_batch(batch: MiniBatch, norm: NormConstants) -> RolloutInputs:
    return RolloutInputs.from_raw(batch.x, batch.b_raw, batch.h_raw[:, :batch.warmup_length], norm)


def _cell(archetype: str):
    """The parameter record of the archetype's recurrent cell."""
    return LstmParams if archetype in LSTM_ARCHETYPES else GruParams


def param_shapes(archetype: str, d_g: int, d_x: int) -> dict:
    """The shape of each array of one head over ``d_x`` features, by name in draw order:
    its cell record's, or ``ja``'s JA block. Nothing is allocated, and hidden sizes
    :func:`check_hidden_size` refuses are described too (``ja`` ignores both sizes)."""
    if d_g < 1 or d_x < 1:
        raise ValueError("d_g and d_x must be >= 1")
    if archetype not in ARCHETYPES:
        raise ValueError(f"unknown archetype {archetype!r}")
    return dict(JA_SHAPES) if archetype == "ja" else _cell(archetype).shapes(d_g, d_x)


def param_count(archetype: str, d_g: int, d_x: int) -> int:
    """Trainable values of one head over ``d_x`` features: the sizes of its
    :func:`param_shapes`."""
    return sum(math.prod(shape) for shape in param_shapes(archetype, d_g, d_x).values())


def check_hidden_size(config: TrainConfig) -> None:
    """Raise :class:`HeadError` for a hidden size the archetype cannot read: gru-v reads
    ``d_g`` as an (N+1)x(N+1) grid of 2-vectors, and gru-jadp reads five JA parameters
    from it."""
    if config.archetype == "gru-v":
        side = np.sqrt(config.d_g / 2.0)
        if side != int(side) or int(side) < 2:
            raise HeadError(f"gru-v needs d_g = 2*(N+1)^2 with N >= 1, got d_g={config.d_g}")
    if config.archetype == "gru-jadp" and config.d_g < 5:
        raise HeadError("gru-jadp needs d_g >= 5")


def init_head_params(config: TrainConfig, seed, precision: str = "double") -> dict:
    """Named parameter arrays for one archetype, deterministically seeded; a hidden size
    it cannot read raises :class:`HeadError` (see :func:`check_hidden_size`)."""
    check_hidden_size(config)
    rng, dt = np.random.default_rng(seed), dtype_of(precision)
    if config.archetype == "ja":
        return init_ja_theta(rng, dt)
    return _cell(config.archetype).init(config.d_g, FEATURE_WIDTH, rng, dt).as_dict()


def wrap_params(arrays: dict, requires_grad: bool = True) -> dict:
    return {k: Tensor(v, dtype=v.dtype, requires_grad=requires_grad) for k, v in arrays.items()}


def _check_warmup(bad: np.ndarray, what: str) -> None:
    """Raise a WarmupError for the first (row, step) where ``bad`` holds."""
    if np.any(bad):
        row, step = (int(i) for i in np.argwhere(bad)[0])
        raise WarmupError(f"{what} at warmup step {step}", row=row)


def _inject_values(config: TrainConfig, inputs: RolloutInputs) -> np.ndarray:
    """Per-step warmup injection values for element 0 of the hidden state, from the
    drive and warm target of ``inputs`` alone; a warmup sample outside the head's
    invertible domain, or a non-finite value, raises a WarmupError."""
    w = inputs.warmup_length
    target = np.asarray(inputs.target_warm_norm, dtype=np.float64)
    drive = np.asarray(inputs.drive_norm[:, :w], dtype=np.float64)
    if config.archetype in ("gru-p", "lstm-p"):
        values = target
    elif config.archetype == "gru-m":
        _check_warmup(np.abs(target) >= 1.0, "|H~| >= 1 (magnetization inverse undefined)")
        values = drive - np.arctanh(target)
    elif config.archetype == "gru-l":
        _check_warmup(np.abs(drive) <= EPS_B, f"|B~| <= {EPS_B} (permeability inverse undefined)")
        values = target / drive
    else:
        raise HeadError(f"{config.archetype} does not use state injection")
    _check_warmup(~np.isfinite(values), "non-finite injection value")
    return values


def check_warmup_domain(config: TrainConfig, seqs, norm: NormConstants) -> None:
    """Raise the WarmupError a rollout of ``seqs`` would raise in its warmup, its ``row``
    the index in ``seqs`` of the offending sequence: the samples 0..w-1 are normalized
    as :func:`predict_window` normalizes them and checked by :func:`_inject_values`."""
    if config.archetype in INJECTING and seqs:
        w = config.warmup_length
        _inject_values(config, RolloutInputs.from_raw(None, np.stack([seq.b[:w] for seq in seqs]),
                                                      np.stack([seq.h[:w] for seq in seqs]), norm))


def _inject(state: Tensor, column: np.ndarray) -> Tensor:
    """Overwrite element 0 of every row, leaving elements 1.. untouched; one tape node
    whose backward hands the gradient of elements 1.. to ``state``."""
    data = state.data.copy()
    data[:, 0:1] = column

    def backward(g):
        d_state = g.copy()
        d_state[:, 0] = 0.0
        _accum(state, d_state)

    return _node(data, (state,), backward)


def _dtype(params: dict):
    return params[next(iter(params))].data.dtype


def warmup(config: TrainConfig, params: dict, inputs: RolloutInputs):
    """Recurrent state (hidden, cell) after warmup step w-1; the cell is None for GRU heads.

    Injecting heads start from the zero state with element 0 injected and
    overwrite element 0 with the true value after each recurrent step;
    gru-v and gru-jadp run the same steps from a zero state without
    injection. With warmup length 1 no recurrent step executes.
    """
    dt = _dtype(params)
    rows, w = inputs.x.shape[0], inputs.warmup_length
    lstm = config.archetype in LSTM_ARCHETYPES
    p = _cell(config.archetype).from_dict(params)
    g = Tensor(np.zeros((rows, config.d_g), dtype=dt))
    c = Tensor(np.zeros((rows, config.d_g), dtype=dt)) if lstm else None
    inject = None
    if config.archetype in INJECTING:
        inject = _inject_values(config, inputs)
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


#: The hidden elements gru-v's readout reads: the flat hidden state stores the
#: (N+1)x(N+1) grid of 2-vectors contiguously, so their first components sit at
#: the even indices.
GRID_FIRST = slice(0, None, 2)


def gru_v_readout(grid_first: Tensor, drive) -> Tensor:
    """Grid readout: drive minus the summed first components of the grid's 2-vectors.

    ``grid_first`` holds those components (the hidden elements
    :data:`GRID_FIRST`) of a state ``(rows, (N+1)^2)`` or a trajectory
    ``(rows, T, (N+1)^2)``, and ``drive`` has its shape without the last axis.
    """
    grid_sum = tsum(grid_first, axis=-1)
    return Tensor(np.asarray(drive, dtype=grid_first.data.dtype)) - grid_sum


def _cell_open_loop(config: TrainConfig, params: dict, inputs: RolloutInputs) -> Tensor:
    """Predictions of a cell head: one sequence node over steps w..L-1 that keeps
    only the hidden elements the readout reads, then one readout over them."""
    w = inputs.warmup_length
    g, c = warmup(config, params, inputs)
    p = _cell(config.archetype).from_dict(params)
    x = inputs.x[:, w:]
    keep = GRID_FIRST if config.archetype == "gru-v" else 0
    if config.archetype in LSTM_ARCHETYPES:
        return lstm_sequence(x, g, c, p, keep)
    kept = gru_sequence(x, g, p, keep)
    drive = np.asarray(inputs.drive_norm[:, w:], dtype=kept.data.dtype)
    if config.archetype == "gru-v":
        return gru_v_readout(kept, drive)
    if config.archetype == "gru-m":
        return tanh(Tensor(drive) - kept)
    if config.archetype == "gru-l":
        return kept * Tensor(drive)
    return kept


def _ja_open_loop(config: TrainConfig, params: dict, inputs: RolloutInputs) -> Tensor:
    """Predictions of a JA-family head: one Euler step per sample w..L-1, then one
    readout over the concatenated field columns."""
    w = inputs.warmup_length
    b_raw = inputs.drive_raw
    h = Tensor(inputs.target_warm_raw[:, w - 1:w], dtype=np.float64)
    if config.archetype == "ja":
        phys = ja_params_from_theta(reshape(params["theta_ja"], (1, 5)))
    else:
        g, _ = warmup(config, params, inputs)
        p = _cell(config.archetype).from_dict(params)
        dt = _dtype(params)
    columns = []
    for t in range(w, inputs.x.shape[1]):
        b_k, b_k1 = b_raw[:, t - 1:t], b_raw[:, t:t + 1]
        # Looked up in this module at call time, where bench/tracing.py patches them.
        if config.archetype == "ja":
            h = ja_step_euler(h, b_k, b_k1, phys)
        else:
            h, g = gru_jadp_step(Tensor(inputs.x[:, t, :].astype(dt)), g, p, h, b_k, b_k1)
        columns.append(h)
    return concat(columns, axis=1) * (1.0 / inputs.target_max)


def rollout(config: TrainConfig, params: dict, inputs: RolloutInputs) -> Tensor:
    """Full warmup + open-loop prediction for one batch of windows.

    ``params`` maps names to tape Tensors. Returns the normalized predictions as a tape
    Tensor of shape (rows, L - w). A warm block of width 0 raises :class:`WarmupError`.
    """
    if inputs.warmup_length < 1:
        raise WarmupError("empty warmup window")
    if config.archetype not in JA_FAMILY:
        return _cell_open_loop(config, params, inputs)
    if inputs.drive_raw is None or inputs.target_warm_raw is None or inputs.target_max is None:
        raise HeadError("JA-family rollouts need raw-unit drive/target context")
    if _dtype(params) != np.float64:
        raise HeadError(f"{config.archetype} rollouts require double precision")
    return _ja_open_loop(config, params, inputs)


def _predict_group(config: TrainConfig, params: dict, seqs, norm: NormConstants) -> np.ndarray:
    """Normalized float64 predictions ``(rows, L - w)`` of sequences of one length L.

    The feature block is filled in place in the parameters' dtype, one
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
            x = np.empty((rows,) + features.shape, dtype=_dtype(params))
        x[row] = features
        drive_raw[row] = seq.b
        target_warm_raw[row] = seq.h[:w]
    inputs = RolloutInputs.from_raw(x, drive_raw, target_warm_raw, norm)
    return rollout(config, params, inputs).data.astype(np.float64)


def predict_window(config: TrainConfig, params_arrays: dict, seqs,
                   norm: NormConstants) -> list[RolloutResult]:
    """Open-loop predictions of samples w..L-1 of each sequence, w = ``config.warmup_length``,
    one result per sequence in input order.

    The known H over samples 0..w-1 conditions the state. Sequences of the
    same length run as one batched rollout with frozen parameters, in their
    dtype. A batch's rows do not depend on each other, but a one-row batch
    takes a different BLAS kernel (gemv instead of gemm), so a sequence
    predicted alone can differ from the same sequence in a batch in the last
    bits. A sequence shorter than w + 2 samples raises :class:`DataError`,
    and a :class:`WarmupError` (see :func:`check_warmup_domain`), raised before any
    rollout runs, names the input index of the offending sequence.
    """
    w = config.warmup_length
    groups: dict = {}
    for i, seq in enumerate(seqs):
        if len(seq) < w + 2:
            raise DataError(f"sequence {i} has {len(seq)} samples; warmup {w} needs >= {w + 2}")
        groups.setdefault(len(seq), []).append(i)
    try:
        check_warmup_domain(config, seqs, norm)
    except WarmupError as exc:
        raise WarmupError(f"sequence {exc.row}: {exc}") from exc
    params = wrap_params(params_arrays, requires_grad=False)
    results: list = [None] * len(seqs)
    for members in groups.values():
        pred_norm = _predict_group(config, params, [seqs[i] for i in members], norm)
        pred = pred_norm * norm.h_max
        for row, i in enumerate(members):
            results[i] = RolloutResult(pred_norm=pred_norm[row], pred=pred[row])
    return results
