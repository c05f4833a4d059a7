"""Training loop, Adam optimizer, checkpoint I/O, and model-size sweeps.

A run is fully determined by (seed, config, data, precision): parameter
initialization, per-epoch batch regeneration, and the update sequence all
draw from seeded generators, and every numpy kernel involved is
deterministic on CPU. Two runs with identical inputs produce bit-identical
checkpoints.

Checkpoints are a versioned JSON header (metadata + named parameter layout)
next to a little-endian binary blob of the flattened parameters.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, fields, asdict, replace
from pathlib import Path

import numpy as np

from .autodiff import Tensor, concat, dtype_of, reshape
from .dataset import (FEATURE_WIDTH, MiniBatch, NormConstants, compute_norm_constants, fmt,
                      json_text, make_minibatches, read_json_object, reversed_minibatches,
                      write_file, write_rows)
from .heads import (ARCHETYPES, JA_FAMILY, WarmupError, check_hidden_size, init_head_params,
                    param_shapes, predict_window, rollout, wrap_params)
from .metrics import MetricReport, batch_mean, mae, mse, sre, nere, wce, weighted_loss_rows
from .physics import (ETA, JA_SHAPES, init_ja_theta, ja_params_from_theta, pinn_ja_residual,
                      preisach_predict)

CHECKPOINT_FORMAT_VERSION = 1
#: Adam's moment decay rates and denominator guard.
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
#: Header keys :func:`load_checkpoint` reads.
CHECKPOINT_HEADER_KEYS = ("format_version", "archetype", "seed", "norm", "train_config",
                          "layout", "blob", "blob_sha256")
#: Keys read inside the ``norm`` and ``train_config`` header sections.
CHECKPOINT_SECTION_KEYS = {"norm": ("h_max", "b_max", "theta_max"),
                           "train_config": ("d_g", "warmup_length", "precision", "lambda_w")}

#: The ``train_config`` key of the JA scale caps in headers written before the caps
#: became the constant ``physics.ETA``; such a header loads only when it holds ``ETA``.
LEGACY_CAPS_KEY = "eta"


class ConfigError(ValueError):
    pass


class TrainingError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    archetype: str = "gru-p"
    d_g: int = 8
    subseq_len: int = 256
    batch_size: int = 32
    epochs: int = 100
    lr: float = 1e-3
    clip_norm: float = 1.0
    seed: int = 0
    precision: str | None = None  # resolved by archetype when unset
    lambda_w: float = 0.0
    warmup_length: int = 16
    patience: int = 20
    eval_every: int = 1

    def __post_init__(self):
        if self.archetype not in ARCHETYPES:
            raise ConfigError(f"unknown archetype {self.archetype!r}")
        for name in ("lr", "clip_norm", "lambda_w"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lambda_w < 0:
            raise ConfigError("lambda_w must be >= 0")
        for name in ("d_g", "subseq_len", "batch_size", "epochs", "warmup_length", "patience",
                     "eval_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.lr < 0 or self.clip_norm <= 0:
            raise ConfigError("lr must be >= 0 and clip_norm > 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.precision is None:
            self.precision = "double" if self._uses_ja() else "single"
        largest = float(np.finfo(dtype_of(self.precision)).max)
        if self.lr > largest:
            # Adam multiplies the arrays by lr in their dtype, where this lr is inf
            raise ConfigError(f"lr {self.lr} exceeds the largest {self.precision}-precision "
                              f"value {largest:g}")
        if self._uses_ja() and self.precision != "double":
            raise ConfigError(f"{self.archetype!r}/lambda_w>0 requires double precision")

    def _uses_ja(self) -> bool:
        return self.archetype in JA_FAMILY or self.lambda_w > 0


#: The type each TrainConfig field takes: its default's (``precision``: str).
SETTING_TYPES = {f.name: str if f.default is None else type(f.default)
                 for f in fields(TrainConfig)}


def decode_setting(key: str, value, kind: type):
    """The decoded JSON ``value`` as a ``kind`` setting. An integral number stands for an
    int and an int for a float; any other value of another type, bools included, raises
    a ConfigError naming ``key``."""
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    if kind is int and type(value) is float and value.is_integer():
        return int(value)
    if type(value) is not kind:
        raise ConfigError(f"{key} must be {kind.__name__}, got {json.dumps(value)}")
    return value


def _regularizer_block(config: TrainConfig) -> bool:
    """Whether the physics regularizer adds a JA block, ``theta_ja``, to the head's arrays."""
    return config.lambda_w > 0 and config.archetype != "ja"


def config_shapes(config: TrainConfig) -> dict:
    """The shape of each array :func:`init_params` draws, by name, without drawing; also
    at sizes the head refuses."""
    shapes = param_shapes(config.archetype, config.d_g, FEATURE_WIDTH)
    return {**shapes, **JA_SHAPES} if _regularizer_block(config) else shapes


def config_param_count(config: TrainConfig) -> int:
    """Trainable values :func:`init_params` draws, also at sizes the head refuses."""
    return sum(math.prod(shape) for shape in config_shapes(config).values())


def check_allocatable(config: TrainConfig) -> None:
    """Refuse (ConfigError naming ``d_g``) a model whose arrays cannot be allocated."""
    count = config_param_count(config)
    try:  # an empty block, freed unwritten; ValueError: more than an array can index
        np.empty(count, dtype=dtype_of(config.precision))
    except (MemoryError, ValueError):
        raise ConfigError(f"d_g={config.d_g}: the {count} {config.precision}-precision "
                          f"values of a {config.archetype} model cannot be allocated") from None


# -- optimizer ---------------------------------------------------------------

@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def clip_global_norm(grads: dict, max_norm: float):
    """Scale all gradients by max_norm/|g| when the global L2 norm exceeds it."""
    total = float(np.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads.values())))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        grads = {k: g * np.asarray(scale, dtype=g.dtype) for k, g in grads.items()}
    return grads, total


def optimizer_step(params: dict, grads: dict, state: AdamState, lr: float, clip_norm: float):
    """Adam with bias correction; global-norm clipping runs before the update."""
    for k, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter {k!r}")
    grads, _ = clip_global_norm(grads, clip_norm)
    b1, b2 = ADAM_BETAS
    state.t += 1
    t = state.t
    new_params = {}
    for k in sorted(params):
        g = grads[k]
        m = state.m.get(k)
        v = state.v.get(k)
        if m is None:
            m = np.zeros_like(params[k])
            v = np.zeros_like(params[k])
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        state.m[k] = m
        state.v[k] = v
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        new_params[k] = (params[k] - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(params[k].dtype)
    return new_params, state


# -- loss assembly -----------------------------------------------------------

def batch_loss(config: TrainConfig, params_t: dict, batch: MiniBatch, norm: NormConstants) -> Tensor:
    """Mini-batch objective: flux-weighted RMSE rows (+ physics penalty), meaned. A window
    whose warmup the head cannot invert raises :class:`WarmupError` naming its train-split
    sequence (``batch.sources``) and first sample."""
    try:
        pred = rollout(config, params_t, batch)
    except WarmupError as exc:
        seq, start = (int(v) for v in batch.sources[exc.row])
        raise WarmupError(f"train split: sequence {seq}, window starting at sample {start}: "
                          f"{exc}") from None
    w = batch.warmup_length
    rows = weighted_loss_rows(batch.target_norm[:, w:], pred,
                              batch.drive_norm[:, w - 1:], norm.h_max, batch.h_rms)
    if config.lambda_w > 0:
        phys = ja_params_from_theta(reshape(params_t["theta_ja"], (1, 5)))
        anchor = Tensor(batch.target_warm_raw[:, w - 1:].astype(pred.data.dtype))
        h_traj = concat([anchor, pred * norm.h_max], axis=1)
        _, l_ja_rows = pinn_ja_residual(h_traj, batch.drive_raw[:, w - 1:], phys)
        rows = rows + config.lambda_w * l_ja_rows
    return batch_mean(rows)


def init_params(config: TrainConfig) -> dict:
    arrays = init_head_params(config, [config.seed, 0], config.precision)
    if _regularizer_block(config):
        arrays.update(init_ja_theta(np.random.default_rng([config.seed, 5]),
                                    dtype_of(config.precision)))
    return arrays


# -- evaluation ----------------------------------------------------------------

def evaluate_sequences(config: TrainConfig, params: dict, sequences,
                       norm: NormConstants) -> MetricReport:
    """Open-loop metrics per sequence, over samples w..L-1 with w = ``config.warmup_length``,
    plus aggregates, in the dtype of the parameter arrays."""
    sequences = list(sequences)
    w = config.warmup_length
    results = predict_window(config, params, sequences, norm)
    report = MetricReport()
    for i, (seq, result) in enumerate(zip(sequences, results)):
        h_true = seq.h[w:]
        b_prev = seq.b[w - 1:]
        report.add(
            i,
            sre=sre(result.pred, h_true),
            nere=nere(result.pred, h_true, b_prev, seq.h, seq.b),
            mse=mse(result.pred_norm, h_true / norm.h_max),
            mae=mae(result.pred_norm, h_true / norm.h_max),
            wce=wce(result.pred_norm, h_true / norm.h_max),
        )
    return report


# -- training loop -------------------------------------------------------------

@dataclass
class TrainResult:
    """What :func:`train` returns: the kept parameters and what it measured on the way.

    ``eval_sre`` maps each evaluated epoch to its average eval SRE, and ``report``
    holds the eval metrics of ``params``; without an eval set they are ``{}`` and ``None``.
    """
    params: dict
    norm: NormConstants
    config: TrainConfig
    train_losses: list
    eval_sre: dict
    best_epoch: int
    report: MetricReport | None

    def checkpoint(self) -> "ModelCheckpoint":
        return ModelCheckpoint(self.config, {k: v.copy() for k, v in self.params.items()},
                               self.norm)


def _descend(params: dict, adam: AdamState, batches, epoch: int, lr: float,
             clip_norm: float, loss_of) -> tuple[dict, float]:
    """One Adam step per batch on ``loss_of(params_t, batch)``; returns (params, mean loss).

    A non-finite loss raises TrainingError.
    """
    losses = []
    for bi, batch in enumerate(batches):
        params_t = wrap_params(params)
        loss = loss_of(params_t, batch)
        value = float(loss.data)
        if not np.isfinite(value):
            raise TrainingError(f"non-finite loss at epoch {epoch}, batch {bi}")
        loss.backward()
        grads = {k: (t.grad if t.grad is not None else np.zeros_like(t.data))
                 for k, t in params_t.items()}
        params, adam = optimizer_step(params, grads, adam, lr, clip_norm)
        losses.append(value)
    return params, float(np.mean(losses))


def train(config: TrainConfig, train_seqs, eval_seqs=None) -> TrainResult:
    """Epoch loop: regenerate batches, roll out, backprop, Adam-update.

    With an eval set, evaluates every ``eval_every``-th epoch and the last
    epoch run, keeps the parameters with the best evaluation SRE (the first
    evaluation is kept whatever its SRE), and stops early after ``patience``
    evaluations without improvement.
    """
    train_seqs = list(train_seqs)
    if not train_seqs:
        raise ConfigError("empty training set")
    norm = compute_norm_constants(train_seqs)
    params = init_params(config)
    adam = AdamState()

    train_losses: list[float] = []
    eval_sre: dict[int, float] = {}
    best_sre, best_report, stale = np.inf, None, 0

    for epoch in range(config.epochs):
        batches = make_minibatches(train_seqs, config.subseq_len, config.batch_size,
                                   [config.seed, 1, epoch], config.warmup_length, norm)
        params, loss = _descend(params, adam, batches, epoch, config.lr, config.clip_norm,
                                lambda params_t, batch: batch_loss(config, params_t, batch, norm))
        train_losses.append(loss)
        if not eval_seqs or ((epoch + 1) % config.eval_every and epoch < config.epochs - 1):
            continue
        report = evaluate_sequences(config, params, eval_seqs, norm)
        eval_sre[epoch] = report.aggregate()["avg_sre"]
        if eval_sre[epoch] < best_sre or best_report is None:
            best, best_report, best_epoch, stale = params, report, epoch, 0
            best_sre = np.fmin(eval_sre[epoch], np.inf)  # a NaN SRE ranks last
        else:
            stale += 1
            if stale >= config.patience:
                break

    if best_report is None:  # no eval set: the last parameters
        best, best_epoch = params, config.epochs - 1
    return TrainResult(params=best, norm=norm, config=config, train_losses=train_losses,
                       eval_sre=eval_sre, best_epoch=best_epoch, report=best_report)


# -- checkpoint I/O ------------------------------------------------------------

@dataclass
class ModelCheckpoint:
    """A trained model; a ``train`` run also records the split seed and the material."""
    config: TrainConfig
    params: dict
    norm: NormConstants
    split_seed: int | None = None
    material: str | None = None

    def count_params(self) -> int:
        return int(sum(v.size for v in self.params.values()))


def save_checkpoint(path: Path, ckpt: ModelCheckpoint) -> tuple[Path, Path]:
    """Write ``<path>.json`` + ``<path>.bin``; returns both paths."""
    path = Path(path)
    json_path = path.with_suffix(".json")
    bin_path = path.with_suffix(".bin")
    wire = "<f8" if ckpt.config.precision == "double" else "<f4"
    layout = []
    blob = bytearray()
    for name in sorted(ckpt.params):
        arr = np.ascontiguousarray(ckpt.params[name])
        layout.append({"name": name, "shape": list(arr.shape), "dtype": wire, "offset": len(blob)})
        blob.extend(arr.astype(wire).tobytes())
    train_config = asdict(ckpt.config)
    train_config.update((key, value) for key, value in
                        (("split_seed", ckpt.split_seed), ("material", ckpt.material))
                        if value is not None)
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "archetype": ckpt.config.archetype,
        "seed": ckpt.config.seed,
        "norm": ckpt.norm.as_dict(),
        "train_config": train_config,
        "config_hash": hashlib.sha256(
            json.dumps(train_config, sort_keys=True).encode()).hexdigest()[:16],
        "param_count": ckpt.count_params(),
        "layout": layout,
        "blob": bin_path.name,
        "blob_bytes": len(blob),
        "blob_sha256": hashlib.sha256(bytes(blob)).hexdigest(),
    }
    write_file(bin_path, bytes(blob))  # first, so a model.json on disk names a complete blob
    write_file(json_path, json_text(header))
    return json_path, bin_path


def load_checkpoint(json_path: Path) -> ModelCheckpoint:
    """Read ``<path>.json`` and the blob it names.

    Each ``train_config`` setting is read by :func:`decode_setting`, and the
    top-level ``archetype`` and ``seed`` override its own. The layout must list
    the names and shapes :func:`config_shapes` gives for that config, so no
    model is drawn; each array comes from the blob alone, in the config's
    precision, whatever its wire dtype. A header that
    does not describe its blob, or an array holding a non-finite value, raises
    :class:`ConfigError` naming the file and the field or layout entry.
    """
    json_path = Path(json_path)
    header = read_json_object(json_path)

    def bad(what: str) -> ConfigError:
        return ConfigError(f"{json_path}: checkpoint {what}")

    for key in CHECKPOINT_HEADER_KEYS:
        if key not in header:
            raise bad(f"header lacks {key!r}")
    for section, keys in CHECKPOINT_SECTION_KEYS.items():
        for key in keys:
            if not isinstance(header[section], dict) or key not in header[section]:
                raise bad(f"header lacks '{section}.{key}'")
    if header["format_version"] != CHECKPOINT_FORMAT_VERSION:
        raise bad(f"format {header['format_version']!r} is unsupported")
    for key in CHECKPOINT_SECTION_KEYS["norm"]:
        value = header["norm"][key]
        if not (type(value) in (int, float) and np.isfinite(value) and value > 0):
            raise bad(f"field 'norm.{key}' is not a positive number: {value!r}")
    tc = header["train_config"]
    if header["archetype"] not in ARCHETYPES:
        raise bad(f"field 'archetype' names no archetype: {header['archetype']!r}")
    if type(header["seed"]) is not int:
        raise bad(f"field 'seed' is not an integer: {header['seed']!r}")
    if header["seed"] < 0:
        raise bad(f"field 'seed' is negative: {header['seed']}")
    caps = tc.get(LEGACY_CAPS_KEY, list(ETA))
    if caps != list(ETA):
        raise bad(f"field 'train_config.{LEGACY_CAPS_KEY}' is {caps!r}, not the JA scale "
                  f"caps {list(ETA)}")
    try:
        settings = {key: decode_setting(key, tc[key], kind)
                    for key, kind in SETTING_TYPES.items() if key in tc}
        split_seed, material = (decode_setting(key, tc[key], kind) if key in tc else None
                                for key, kind in (("split_seed", int), ("material", str)))
        if split_seed is not None and split_seed < 0:
            raise ConfigError(f"split_seed must be >= 0, got {split_seed}")
        config = TrainConfig(**{**settings, "archetype": header["archetype"],
                                "seed": header["seed"]})
        check_hidden_size(config)
        expected = config_shapes(config)
    except (TypeError, ValueError) as exc:
        raise bad(f"field 'train_config' describes no model: {exc}") from None
    layout = header["layout"]
    if not isinstance(layout, list) or not all(isinstance(entry, dict) for entry in layout):
        raise bad("field 'layout' is not a list of objects")
    names = [entry.get("name") for entry in layout]
    if len(names) != len(expected) or any(name not in names for name in expected):
        raise bad(f"field 'layout' lists {names}; train_config expects {sorted(expected)}")
    blob_name = header["blob"]
    if not (isinstance(blob_name, str) and Path(blob_name).name == blob_name
            and (json_path.parent / blob_name).is_file()):
        raise bad(f"field 'blob' names no file beside it: {blob_name!r}")
    blob = (json_path.parent / blob_name).read_bytes()
    if hashlib.sha256(blob).hexdigest() != header["blob_sha256"]:
        raise bad("blob hash mismatch")
    params = {}
    dtype = dtype_of(config.precision)
    for entry in layout:
        shape = expected[entry["name"]]
        wire, offset, size = entry.get("dtype"), entry.get("offset"), math.prod(shape)
        nbytes = size * (8 if wire == "<f8" else 4)
        if (entry.get("shape") != list(shape) or wire not in ("<f4", "<f8")
                or type(offset) is not int or not 0 <= offset <= len(blob) - nbytes):
            raise bad(f"layout entry {entry} does not fit: train_config expects shape "
                      f"{list(shape)}, dtype '<f4' or '<f8', and {nbytes} bytes "
                      f"inside the {len(blob)}-byte blob")
        flat = np.frombuffer(blob, dtype=wire, count=size, offset=offset)
        params[entry["name"]] = flat.reshape(shape).astype(dtype)
        if not np.all(np.isfinite(params[entry["name"]])):
            raise bad(f"layout entry {entry['name']!r} holds a non-finite value")
    return ModelCheckpoint(config, params, NormConstants.from_dict(header["norm"]), split_seed,
                           material)


# -- Preisach trainer ------------------------------------------------------------

def train_preisach(preisach, train_seqs, norm: NormConstants, subseq_len: int = 256,
                   batch_size: int = 16, epochs: int = 60, lr: float = 3e-3,
                   seed: int = 0, warmup_length: int = 16):
    """Fit the hysteron density and output map in the flux-from-field direction.

    Uses the same flux-weighted objective as the recurrent heads with the
    signal roles transposed: weights follow the drive (H) increments and the
    normalization uses B_max over the full-sequence RMS of B. The first
    ``warmup_length`` samples of each window are excluded from the loss so
    the hysteron states settle, mirroring the recurrent warmup.
    """
    params = {"mu": preisach.mu.astype(np.float64), "omega": preisach.omega.astype(np.float64)}
    adam = AdamState()

    def loss_of(params_t, batch):
        pred = preisach_predict(batch.drive_norm, preisach, params_t["mu"], params_t["omega"])
        w = batch.warmup_length
        return batch_mean(weighted_loss_rows(batch.target_norm[:, w:], pred[:, w:],
                                             batch.drive_norm[:, w - 1:], norm.b_max, batch.h_rms))

    losses = []
    for epoch in range(epochs):
        batches = reversed_minibatches(train_seqs, subseq_len, batch_size,
                                       [seed, 1, epoch], warmup_length, norm)
        params, loss = _descend(params, adam, batches, epoch, lr, 1.0, loss_of)
        losses.append(loss)
    preisach.mu = params["mu"]
    preisach.omega = params["omega"]
    return preisach, losses


# -- Pareto sweep ---------------------------------------------------------------

SWEEP_COLUMNS = ("archetype", "d_g", "params", "seed", "sre", "nere", "status")


def _run_trial(args):
    """One sweep row: the eval errors of the parameters ``train`` keeps (NaN if it fails)."""
    config, train_seqs, eval_seqs = args
    row = {"archetype": config.archetype, "d_g": config.d_g,
           "params": config_param_count(config), "seed": config.seed,
           "sre": float("nan"), "nere": float("nan"), "status": "ok"}
    try:
        agg = train(config, train_seqs, eval_seqs).report.aggregate()
        row.update(sre=agg["avg_sre"], nere=agg["avg_nere"])
    except Exception as exc:  # failures are recorded, never dropped
        row["status"] = f"failed:{type(exc).__name__}"
    return row


def check_sweep_eval(eval_seqs) -> None:
    """Refuse an empty eval set, on which every sweep trial is scored (ConfigError)."""
    if not eval_seqs:
        raise ConfigError("empty eval set: every sweep trial is scored on it")


def pareto_sweep(configs, d_g_values, n_seeds: int, train_seqs, eval_seqs, workers: int = 1):
    """Trial grid over (config, d_g, seed); returns (rows, medians).

    Each config runs at every size in ``d_g_values`` and with the ``n_seeds`` seeds
    from its own ``seed`` on; all else it sets, precision included, is kept.
    Each trial is scored on the eval set, which must not be empty. Medians
    aggregate successful trials per (archetype, d_g); rows are ordered by
    that key so merged concurrent results stay deterministic.
    """
    check_sweep_eval(eval_seqs)
    jobs = [(replace(config, d_g=d_g, seed=config.seed + i), train_seqs, eval_seqs)
            for config in configs for d_g in d_g_values for i in range(n_seeds)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            rows = list(pool.map(_run_trial, jobs))
    else:
        rows = [_run_trial(j) for j in jobs]
    rows.sort(key=lambda r: (r["archetype"], r["d_g"], r["seed"]))
    return rows, sweep_medians(rows, lambda r: (r["archetype"], r["d_g"]))


def sweep_medians(rows, key) -> dict:
    """Median SRE and NERE of the ``ok`` trials, grouped by ``key(row)``.

    Values may be numbers or CSV strings; each group keeps the ``params``
    of its first trial.
    """
    groups = {}
    for row in rows:
        if row["status"] == "ok":
            groups.setdefault(key(row), []).append(row)
    return {k: {"params": trials[0]["params"],
                "median_sre": float(np.median([float(t["sre"]) for t in trials])),
                "median_nere": float(np.median([float(t["nere"]) for t in trials]))}
            for k, trials in groups.items()}


def write_sweep_csv(path: Path, rows) -> None:
    write_rows(path, SWEEP_COLUMNS,
               ([r["archetype"], r["d_g"], r["params"], r["seed"], fmt(r["sre"]), fmt(r["nere"]),
                 r["status"]] for r in rows))
