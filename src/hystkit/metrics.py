"""Training losses and evaluation metrics.

The training objective is a flux-weighted RMS error on normalized signals:
each squared pointwise error is weighted by the magnitude of the local
normalized flux change, then the per-sequence value is rescaled by
``H_max / RMS(H over the full source sequence)`` so slow, heavily saturated
sequences do not dominate.

Evaluation metrics:

* SRE  — relative L2 error of the predicted H trajectory.
* NERE — loop-energy error: difference of sum(dB * H) over the prediction
  window, normalized by the full-sequence loop energy (backward differences,
  dB_0 = 0).
* MSE / MAE / WCE — pointwise stats of the normalized error; WCE is the
  worst-case (max absolute) error.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tensor, sqrt, tsum
from .dataset import fmt, json_text, write_file, write_rows


class MetricError(ValueError):
    pass


def _as_tensor(x, ref: Tensor) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, dtype=ref.data.dtype)


def flux_weights(b_window: np.ndarray) -> np.ndarray:
    """|dB~| weights for the prediction window.

    With predictions of samples w..L-1, ``b_window`` covers w-1..L-1: the
    extra left sample is the last warmup sample.
    """
    return np.abs(np.diff(np.asarray(b_window, dtype=np.float64), axis=-1))


def loss_rmse(h_true, h_pred, b_window) -> Tensor:
    """Flux-weighted RMS error over the prediction window (per row for 2-D input).

    ``h_pred`` may be a tape Tensor (training) or an array. Output shape is
    scalar for 1-D inputs, ``(rows,)`` for 2-D.
    """
    pred = h_pred if isinstance(h_pred, Tensor) else Tensor(h_pred)
    true = _as_tensor(np.asarray(h_true), pred)
    if true.data.shape != pred.data.shape:
        raise MetricError(f"length mismatch: {true.data.shape} vs {pred.data.shape}")
    w = flux_weights(b_window).astype(pred.data.dtype)
    if w.shape[-1] != pred.data.shape[-1]:
        raise MetricError("flux window does not match the prediction window")
    err = true - pred
    n = pred.data.shape[-1]
    axis = pred.data.ndim - 1
    return sqrt(tsum(err * err * Tensor(w, dtype=pred.data.dtype), axis=axis) * (1.0 / n))


def weighted_loss_rows(h_true, h_pred, b_window_prev, h_max: float, h_rms_rows) -> Tensor:
    """Per-row flux-weighted RMSE scaled by H_max / full-sequence RMS; shape (rows,)."""
    rows = loss_rmse(h_true, h_pred, b_window_prev)
    scale = (h_max / np.asarray(h_rms_rows, dtype=np.float64)).astype(rows.data.dtype)
    return rows * Tensor(scale, dtype=rows.data.dtype)


def batch_mean(rows: Tensor) -> Tensor:
    """Mini-batch reduction: mean of the per-row objective values."""
    return tsum(rows) * (1.0 / rows.data.shape[0])


def sre(h_pred: np.ndarray, h_true: np.ndarray) -> float:
    """Relative L2 error sqrt(sum((pred-true)^2) / sum(true^2))."""
    h_pred = np.asarray(h_pred, dtype=np.float64)
    h_true = np.asarray(h_true, dtype=np.float64)
    if h_pred.shape != h_true.shape:
        raise MetricError("length mismatch")
    denom = float(np.sum(h_true ** 2))
    if denom == 0.0:
        raise MetricError("reference H is all zero")
    return float(np.sqrt(np.sum((h_pred - h_true) ** 2) / denom))


def nere(h_pred: np.ndarray, h_true: np.ndarray, b_window_prev: np.ndarray,
         h_full: np.ndarray, b_full: np.ndarray) -> float:
    """Loop-energy error of the prediction window.

    With predictions of samples w..L-1, ``b_window_prev`` covers w-1..L-1 so
    backward differences exist for every predicted sample; the denominator
    uses the full sequence with dB_0 = 0.
    """
    h_pred = np.asarray(h_pred, dtype=np.float64)
    h_true = np.asarray(h_true, dtype=np.float64)
    db = np.diff(np.asarray(b_window_prev, dtype=np.float64))
    if db.shape != h_pred.shape:
        raise MetricError("flux window does not match the prediction window")
    b_full = np.asarray(b_full, dtype=np.float64)
    h_full = np.asarray(h_full, dtype=np.float64)
    db_full = np.diff(b_full, prepend=b_full[0])
    denom = float(np.sum(db_full * h_full))
    if denom == 0.0:
        raise MetricError("zero total loop energy")
    return float((np.sum(db * h_pred) - np.sum(db * h_true)) / denom)


def mse(h_pred, h_true) -> float:
    e = _norm_err(h_pred, h_true)
    return float(np.mean(e ** 2))


def mae(h_pred, h_true) -> float:
    e = _norm_err(h_pred, h_true)
    return float(np.mean(np.abs(e)))


def wce(h_pred, h_true) -> float:
    e = _norm_err(h_pred, h_true)
    return float(np.max(np.abs(e)))


def _norm_err(h_pred, h_true) -> np.ndarray:
    h_pred = np.asarray(h_pred, dtype=np.float64)
    h_true = np.asarray(h_true, dtype=np.float64)
    if h_pred.shape != h_true.shape or h_pred.size == 0:
        raise MetricError("prediction and reference must be equal-length and nonempty")
    return h_pred - h_true


def percentile_95(values) -> float:
    """Nearest-rank 95th percentile of per-sequence values."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise MetricError("no values to aggregate")
    rank = int(np.ceil(0.95 * len(ordered)))
    return ordered[max(rank - 1, 0)]


@dataclass
class MetricReport:
    """Per-sequence metric rows plus mean / 95th-percentile aggregates."""

    rows: list = field(default_factory=list)  # dicts: index, sre, nere, mse, mae, wce

    METRICS = ("sre", "nere", "mse", "mae", "wce")

    def add(self, index: int, **values) -> None:
        row = {"index": index}
        row.update({m: float(values[m]) for m in self.METRICS})
        self.rows.append(row)

    def aggregate(self) -> dict:
        if not self.rows:
            raise MetricError("empty report")
        agg = {}
        for m in self.METRICS:
            vals = [r[m] for r in self.rows]
            agg[f"avg_{m}"] = float(np.mean(vals))
            agg[f"p95_{m}"] = percentile_95(np.abs(vals) if m == "nere" else vals)
        return agg

    def to_json(self) -> str:
        return json_text({"sequences": self.rows, "aggregate": self.aggregate()})

    def write_csv(self, path: Path) -> None:
        write_rows(path, ["index", *self.METRICS],
                   ([r["index"]] + [fmt(r[m]) for m in self.METRICS] for r in self.rows))

    def write_json(self, path: Path) -> None:
        write_file(path, self.to_json())
