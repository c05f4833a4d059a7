"""Command-line surface: ingest, train, eval, predict, sweep, plotdata.

Every artifact is staged by one writer, ``dataset.write_file`` (temp file +
rename). Each command drops a ``.partial`` sentinel while running so
interrupted runs are flagged, and writes a ``run_manifest.json`` capturing
the command, the fully resolved configuration, input hashes, toolkit
version, the environment (Python, numpy, BLAS and its thread settings), and
output paths.
All nondeterministic values (timestamps, wall time) live in the manifest's
single ``timing`` field, so identical inputs and ``--seed`` reproduce
identical bytes everywhere else.

Configuration precedence: command-line flags > ``--config`` JSON file >
built-in defaults. ``HSK_DATA_DIR`` supplies the dataset root when ``--data``
is omitted.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .autodiff import DTYPES
from .dataset import (ADAPTERS, DataError, NormConstants, check_windows, compute_norm_constants,
                      fmt, ingest_material, json_text, load_material, read_csv_dicts,
                      read_json_object, read_raw_material, resolve_adapter, split_dataset,
                      write_columns, write_file, write_rows)
from .training import (SETTING_TYPES, SWEEP_COLUMNS, ConfigError, TrainConfig, TrainingError,
                       check_allocatable, check_sweep_eval, config_param_count, decode_setting,
                       evaluate_sequences, load_checkpoint, pareto_sweep, save_checkpoint,
                       sweep_medians, train, write_sweep_csv)
from .heads import ARCHETYPES, WarmupError, check_hidden_size, check_warmup_domain, predict_window
from .metrics import MetricError, check_scorable

_SENTINEL = ".partial"
#: Columns of the prediction CSVs that ``predict`` writes and ``plotdata`` reads.
_PREDICTION_COLUMNS = ("k", "B", "H_true", "H_pred")
#: Environment variables that set the BLAS thread count.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class CliError(RuntimeError):
    pass


def _hash_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _hash_path(path: Path) -> str:
    path = Path(path)
    if path.is_file():
        return _hash_file(path)
    pairs = [(str(p.relative_to(path)), _hash_file(p))
             for p in sorted(path.rglob("*")) if p.is_file()]
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


def _environment() -> dict:
    """The interpreter, numpy and BLAS a run used, and the BLAS thread settings."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_threads": {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}}


class OutputStage:
    """Out-directory lifecycle: sentinel while running, manifest on success."""

    def __init__(self, out_dir: Path, command: str, config: dict, inputs: dict):
        self.out_dir = Path(out_dir)
        self.command = command
        self.config = config
        self.inputs = inputs
        self.outputs = []
        self.started = time.monotonic()
        self.started_utc = datetime.now(timezone.utc).isoformat()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        (self.out_dir / _SENTINEL).write_text("")

    def path(self, name: str) -> Path:
        p = self.out_dir / name
        p.parent.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return p

    def finish(self) -> None:
        manifest = {
            "command": self.command,
            "config": self.config,
            "environment": _environment(),
            "input_hashes": {k: _hash_path(Path(v)) for k, v in sorted(self.inputs.items())},
            "outputs": sorted(self.outputs),
            "toolkit_version": __version__,
            "timing": {
                "started_utc": self.started_utc,
                "wall_s": round(time.monotonic() - self.started, 3),
            },
        }
        write_file(self.out_dir / "run_manifest.json", json_text(manifest))
        (self.out_dir / _SENTINEL).unlink(missing_ok=True)


def _data_root(args) -> Path:
    root = args.data or os.environ.get("HSK_DATA_DIR")
    if not root:
        raise CliError("no dataset root: pass --data or set HSK_DATA_DIR")
    return Path(root)


#: The settings of ``train`` and ``sweep``: flag and config-file key -> the TrainConfig
#: field whose type (:data:`SETTING_TYPES`) the value takes. ``split_seed`` is no field:
#: it takes ``seed``'s type and, when unset, its value.
_CONFIG_FIELDS = {
    "archetype": "archetype", "hidden_size": "d_g", "seed": "seed", "split_seed": "seed",
    "epochs": "epochs", "lr": "lr", "batch_size": "batch_size", "subseq_len": "subseq_len",
    "warmup_len": "warmup_length", "precision": "precision", "lambda_w": "lambda_w",
    "patience": "patience", "eval_every": "eval_every", "clip_norm": "clip_norm",
}
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
_HELP = {"archetype": f"model archetype ({', '.join(ARCHETYPES)})",
         "hidden_size": "hidden state size d_g", "seed": "training seed",
         "split_seed": "seed of the train/eval/test split (default: --seed)",
         "lambda_w": "physics regularization weight"}
#: The splits ``--split`` names: those of :func:`split_dataset`, then every sequence.
_SPLITS = ("train", "eval", "test", "all")


def _file_settings(path: str) -> dict:
    """The settings of a ``--config`` file, each read by :func:`decode_setting`; an
    unknown key or a value it refuses is a CliError naming the file."""
    settings = read_json_object(path)
    for key, value in settings.items():
        if key not in _CONFIG_FIELDS:
            raise CliError(f"{path}: unknown setting {key!r}")
        try:
            settings[key] = decode_setting(key, value, SETTING_TYPES[_CONFIG_FIELDS[key]])
        except ConfigError as exc:
            raise CliError(f"{path}: {exc}") from None
    return settings


def _resolve_config(args) -> dict:
    """Flags > ``--config`` file > TrainConfig defaults; the fully resolved settings."""
    given = _file_settings(args.config) if args.config else {}
    given.update((key, getattr(args, key)) for key in _CONFIG_FIELDS
                 if getattr(args, key) is not None)
    resolved = {key: given.get(key, _DEFAULTS[name]) for key, name in _CONFIG_FIELDS.items()}
    resolved["split_seed"] = given.get("split_seed", resolved["seed"])
    return resolved


def _train_config(resolved: dict) -> TrainConfig:
    return TrainConfig(**{name: resolved[key] for key, name in _CONFIG_FIELDS.items()
                          if key != "split_seed"})


def _load_splits(args, material: str, split_seed: int) -> tuple[dict, dict]:
    """``material``'s sequences under the dataset root by split (:data:`_SPLITS`), and
    the manifest input that names the material's directory."""
    if split_seed < 0:
        raise CliError(f"split_seed must be >= 0, got {split_seed}")
    root = _data_root(args)
    sequences = load_material(root, material)
    if not sequences:
        raise CliError(f"material {material} holds no sequences")
    splits = (*split_dataset(sequences, seed=split_seed), sequences)
    return dict(zip(_SPLITS, splits)), {"dataset": root / material}


def _open_run(args, config: TrainConfig,
              split_seed: int) -> tuple[dict, dict, NormConstants]:
    """Opening of train and sweep: ``--material``'s splits, manifest input and the train
    split's normalization, refused unless the train split batches into ``config``'s
    windows, every eval sequence fits its warmup and can be scored, and the train split
    can be normalized."""
    splits, inputs = _load_splits(args, args.material, split_seed)
    check_windows(splits["train"], config.subseq_len, config.batch_size, config.warmup_length)
    _require_warmup_fits(enumerate(splits["eval"]), config.warmup_length, "eval split: warmup")
    _require_scorable(enumerate(splits["eval"]), config.warmup_length, "eval")
    try:
        norm = compute_norm_constants(splits["train"])
    except DataError as exc:
        raise CliError(f"train split: {exc}") from None
    return splits, inputs, norm


# -- commands ---------------------------------------------------------------

def cmd_ingest(args) -> int:
    raw = Path(args.raw)
    if not raw.is_dir():
        raise DataError(f"raw directory {raw} does not exist")
    subdirs = sorted(p for p in raw.iterdir() if p.is_dir()) or [raw]
    if args.material and len(subdirs) > 1:
        raise CliError(f"--material {args.material} names one material, but {raw} holds "
                       f"{len(subdirs)}: {', '.join(p.name for p in subdirs)}")
    # every layout is resolved, then every material read and checked, before staging
    adapters = [resolve_adapter(sub, args.adapter) for sub in subdirs]
    materials = [read_raw_material(sub, args.material or sub.name, adapter)
                 for sub, adapter in zip(subdirs, adapters)]
    stage = OutputStage(args.out, "ingest", {"raw": str(raw), "material": args.material,
                                             "adapter": args.adapter}, {"raw": raw})
    counts = {}
    for material, sequences in materials:
        counts[material] = ingest_material(stage.out_dir, material, sequences)
        stage.outputs.append(f"{material}/manifest.json")
    write_file(stage.path("ingest_summary.json"),
               json_text({"materials": counts, "total_sequences": sum(counts.values())}))
    stage.finish()
    for material, count in counts.items():
        print(f"ingested {material}: {count} sequences")
    return 0


def cmd_train(args) -> int:
    resolved = _resolve_config(args)
    config = _train_config(resolved)
    check_hidden_size(config)  # an unusable model is refused before anything is staged
    check_allocatable(config)
    splits, inputs, norm = _open_run(args, config, resolved["split_seed"])
    _require_warmup_domain(list(enumerate(splits["eval"])), config, norm, "eval")
    stage = OutputStage(args.out, "train", {**resolved, "material": args.material}, inputs)
    result = train(config, splits["train"], splits["eval"])
    json_path, bin_path = save_checkpoint(stage.out_dir / "model", dataclasses.replace(
        result.checkpoint(), split_seed=resolved["split_seed"], material=args.material))
    stage.outputs.extend([json_path.name, bin_path.name])
    rows = [[epoch, fmt(loss), fmt(result.eval_sre[epoch]) if epoch in result.eval_sre else ""]
            for epoch, loss in enumerate(result.train_losses)]
    write_rows(stage.path("train_log.csv"), ["epoch", "loss", "eval_sre"], rows)
    stage.finish()
    if result.report is not None:
        print(f"trained {config.archetype} d_g={config.d_g} "
              f"({config_param_count(config)} params), best epoch {result.best_epoch}, "
              f"best eval SRE {result.eval_sre[result.best_epoch]:.4f}")
    else:
        print(f"trained {config.archetype} d_g={config.d_g} (no eval set)")
    print(f"checkpoint: {json_path}")
    return 0


def _require_warmup_fits(chosen, w: int, source: str) -> None:
    """Refuse, before train, sweep, eval or predict stages anything, an (index, sequence)
    pair too short for warmup ``w`` (taken from ``source``) plus two predicted samples."""
    for i, seq in chosen:
        if len(seq) < w + 2:
            raise CliError(f"{source} {w} needs sequences of at least {w + 2} samples: "
                           f"sequence {i} has {len(seq)}")


def _require_scorable(chosen, w: int, split: str) -> None:
    """Refuse, before train, sweep or eval stages anything, an (index, sequence) pair of
    ``split`` on which SRE or NERE over samples w..L-1 is undefined."""
    for i, seq in chosen:
        try:
            check_scorable(seq.h, seq.b, w)
        except MetricError as exc:
            raise CliError(f"{split} split: sequence {i} cannot be scored over samples "
                           f"{w}..{len(seq) - 1}: {exc}") from None


def _require_warmup_domain(chosen: list, config: TrainConfig, norm: NormConstants,
                           split: str) -> None:
    """Refuse, before train, eval or predict stages anything, an (index, sequence) pair
    of ``split`` whose warmup samples the head of ``config`` cannot invert."""
    try:
        check_warmup_domain(config, [seq for _, seq in chosen], norm)
    except WarmupError as exc:
        raise CliError(f"{split} split: sequence {chosen[exc.row][0]}: {exc}") from None


def _checkpoint_split(args):
    """Opening of eval and predict: the checkpoint, its ``--split`` (an empty one is an
    error), and the config and inputs their manifests record."""
    ckpt = load_checkpoint(Path(args.checkpoint))
    material = args.material or ckpt.material
    if not material:
        raise CliError("material unknown: pass --material")
    split_seed = ckpt.config.seed if ckpt.split_seed is None else ckpt.split_seed
    splits, inputs = _load_splits(args, material, split_seed)
    if not splits[args.split]:
        raise CliError(f"split {args.split!r} of {material} is empty")
    config = {"checkpoint": str(args.checkpoint), "material": material, "split": args.split,
              "split_seed": split_seed}
    return ckpt, splits[args.split], config, {**inputs, "checkpoint": args.checkpoint}


def cmd_eval(args) -> int:
    ckpt, sequences, config, inputs = _checkpoint_split(args)
    _require_warmup_fits(enumerate(sequences), ckpt.config.warmup_length, "checkpoint warmup")
    _require_scorable(enumerate(sequences), ckpt.config.warmup_length, args.split)
    _require_warmup_domain(list(enumerate(sequences)), ckpt.config, ckpt.norm, args.split)
    stage = OutputStage(args.out, "eval", config, inputs)
    report = evaluate_sequences(ckpt.config, ckpt.params, sequences, ckpt.norm)
    report.write_json(stage.path("report.json"))
    report.write_csv(stage.path("report.csv"))
    stage.finish()
    agg = report.aggregate()
    print(f"eval {config['material']}/{args.split}: avg SRE {agg['avg_sre']:.4f} "
          f"(p95 {agg['p95_sre']:.4f}), avg NERE {agg['avg_nere']:.5f} "
          f"(p95 |NERE| {agg['p95_nere']:.5f}) over {len(report.rows)} sequences")
    return 0


def cmd_predict(args) -> int:
    ckpt, sequences, config, inputs = _checkpoint_split(args)
    if args.index is not None:
        if not 0 <= args.index < len(sequences):
            raise CliError(f"sequence index {args.index} out of range (0..{len(sequences) - 1})")
        chosen = [(args.index, sequences[args.index])]
    else:
        chosen = list(enumerate(sequences))
    model = ckpt.config
    if args.warmup_len is not None:
        if args.warmup_len < 1:
            raise CliError(f"--warmup-len must be >= 1, got {args.warmup_len}")
        model = dataclasses.replace(model, warmup_length=args.warmup_len)
    w = model.warmup_length
    _require_warmup_fits(chosen, w, "checkpoint warmup" if args.warmup_len is None
                         else "--warmup-len")
    _require_warmup_domain(chosen, model, ckpt.norm, args.split)
    stage = OutputStage(args.out, "predict",
                        {**config, "index": args.index, "warmup_len": w}, inputs)
    results = predict_window(model, ckpt.params, [seq for _, seq in chosen], ckpt.norm)
    meta = {}
    for (i, seq), result in zip(chosen, results):
        name = f"predictions/seq_{i:05d}.csv"
        write_columns(stage.path(name), _PREDICTION_COLUMNS, w,
                      [seq.b[w:], seq.h[w:], result.pred])
        meta[name] = {"tau_s": seq.tau_s, "k1": w, "k2": len(seq) - 1}
    write_file(stage.path("predictions_meta.json"), json_text(meta))
    stage.finish()
    print(f"wrote {len(chosen)} prediction file(s) under {stage.out_dir}")
    return 0


def _positive_int(flag: str, text: str) -> int:
    """``int(text)`` if that is at least 1; anything else is a CliError naming ``flag``."""
    value = int(text) if text.strip().isdecimal() else 0
    if value < 1:
        raise CliError(f"{flag} takes positive integers, got {text!r}")
    return value


def _distinct(source: str, values: list) -> list:
    """``values`` if no two are equal; a repeated one is a CliError naming ``source``."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise CliError(f"{source} lists {value!r} twice")
    return values


def cmd_sweep(args) -> int:
    resolved = _resolve_config(args)
    sizes = _distinct("--sizes", [_positive_int("--sizes", s) for s in args.sizes.split(",")])
    n_seeds = _positive_int("--seeds", args.seeds)
    workers = _positive_int("--workers", args.workers)
    archetypes = _distinct("--archetype" if args.archetype is not None
                           else f"{args.config}: archetype",
                           [a.strip() for a in resolved["archetype"].split(",")])
    # one config per listed archetype, each refused as `train` would refuse it
    configs = [_train_config({**resolved, "archetype": a}) for a in archetypes]
    for config in configs:  # a size the head cannot read is a failed trial, not a refusal
        for d_g in sizes:
            check_allocatable(dataclasses.replace(config, d_g=d_g))
    # every trial shares the windows, so one check covers them all
    splits, inputs, _ = _open_run(args, configs[0], resolved["split_seed"])
    check_sweep_eval(splits["eval"])
    stage = OutputStage(args.out, "sweep",
                        {**resolved, "material": args.material,
                         "archetypes": [c.archetype for c in configs], "sizes": sizes,
                         "n_seeds": n_seeds, "workers": workers}, inputs)
    rows, medians = pareto_sweep(configs, sizes, n_seeds, splits["train"], splits["eval"],
                                 workers=workers)
    write_sweep_csv(stage.path("sweep.csv"), rows)
    median_rows = [[a, d, m["params"], fmt(m["median_sre"]), fmt(m["median_nere"])]
                   for (a, d), m in sorted(medians.items())]
    write_rows(stage.path("sweep_medians.csv"),
                       ["archetype", "d_g", "params", "median_sre", "median_nere"], median_rows)
    stage.finish()
    failed = sum(1 for r in rows if r["status"] != "ok")
    print(f"sweep: {len(rows)} trials ({failed} failed) -> {stage.out_dir / 'sweep.csv'}")
    return 0


def _number(source: Path, lineno: int, record: dict, field: str, cast):
    """``cast(record[field])``; a value it rejects raises :class:`CliError` naming the row."""
    try:
        return cast(record[field])
    except ValueError:
        raise CliError(f"{source}: row {lineno}: {field} is not a number: "
                       f"{record[field]!r}") from None


def cmd_plotdata(args) -> int:
    source = Path(args.source)
    if not source.exists():
        raise CliError(f"source {source} does not exist")
    records = read_csv_dicts(source)
    tables = {}  # every output table, built and checked before anything is staged
    if args.kind in ("bh_loop", "timeseries"):
        if not records or not set(_PREDICTION_COLUMNS) <= set(records[0][1]):
            raise CliError(f"{source} is not a prediction CSV (kind mismatch)")
        if args.kind == "bh_loop":
            tables["bh_loop.csv"] = (["B", "H_true", "H_pred"],
                                     [[r["B"], r["H_true"], r["H_pred"]] for _, r in records])
        else:
            meta_path = source.parent.parent / "predictions_meta.json"
            if not meta_path.exists():
                raise CliError(f"missing {meta_path} (needed for the time axis)")
            name = f"predictions/{source.name}"
            entry = read_json_object(meta_path).get(name)
            tau = entry.get("tau_s") if isinstance(entry, dict) else None
            if type(tau) not in (int, float) or not 0 < tau < math.inf:
                raise CliError(f"{meta_path}: no positive tau_s for {name!r}")
            tables["timeseries.csv"] = (["t_us", "B", "H_true", "H_pred"], [
                [fmt(_number(source, i, r, "k", int) * tau * 1e6), r["B"], r["H_true"],
                 r["H_pred"]] for i, r in records])
    elif args.kind == "pareto":
        if not records or not set(SWEEP_COLUMNS) <= set(records[0][1]):
            raise CliError(f"{source} is not a sweep CSV (kind mismatch)")
        for i, r in records:
            if r["status"] == "ok":
                for field, cast in (("params", int), ("sre", float), ("nere", float)):
                    _number(source, i, r, field, cast)
        medians = sweep_medians([r for _, r in records],
                                lambda r: (r["archetype"], int(r["params"])))
        per_arch = {}
        for (arch, params), m in sorted(medians.items()):
            per_arch.setdefault(arch, []).append(
                [params, fmt(m["median_sre"]), fmt(m["median_nere"])])
        for arch, out_rows in per_arch.items():
            tables[f"pareto_{arch}.csv"] = (["params", "median_sre", "median_nere"], out_rows)
    else:
        raise CliError(f"unknown plot kind {args.kind!r}")
    stage = OutputStage(args.out, "plotdata",
                        {"source": str(source), "kind": args.kind}, {"source": source})
    for name, (header, rows) in tables.items():
        write_rows(stage.path(name), header, rows)
    stage.finish()
    print(f"plot data written under {stage.out_dir}")
    return 0


# -- argument parsing ---------------------------------------------------------

def _add_model_flags(p: argparse.ArgumentParser) -> None:
    for key, name in _CONFIG_FIELDS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=SETTING_TYPES[name],
                       choices=tuple(DTYPES) if key == "precision" else None,
                       help=_HELP.get(key))
    p.add_argument("--config", help="JSON config file of the same settings (flags override it)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hystkit",
                                     description="Magnetic-field trajectory models: train, evaluate, sweep.")
    parser.add_argument("--version", action="version", version=f"hystkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert raw measurement layouts to the canonical dataset")
    p.add_argument("--raw", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--material")
    p.add_argument("--adapter", choices=tuple(ADAPTERS))
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("train", help="train one model on one material")
    p.add_argument("--data", help="dataset root (default: HSK_DATA_DIR)")
    p.add_argument("--material", required=True)
    p.add_argument("--out", required=True)
    _add_model_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="metric report for a checkpoint on a dataset split")
    p.add_argument("--data")
    p.add_argument("--material")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=_SPLITS)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="open-loop trajectory predictions as CSV")
    p.add_argument("--data")
    p.add_argument("--material")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=_SPLITS)
    p.add_argument("--index", type=int, help="single sequence index (default: all)")
    p.add_argument("--warmup-len", dest="warmup_len", type=int,
                   help="override the warmup length (e.g. 1 for single-step warmup data)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("sweep", help="size/seed grid with per-cell median errors")
    p.add_argument("--data")
    p.add_argument("--material", required=True)
    p.add_argument("--sizes", required=True,
                   help="comma-separated hidden sizes (a sweep does not read --hidden-size)")
    p.add_argument("--seeds", default="1", help="number of seeds per cell, counting from --seed")
    p.add_argument("--workers", default="1", help="number of worker processes")
    p.add_argument("--out", required=True)
    _add_model_flags(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("plotdata", help="plot-ready CSV from run artifacts")
    p.add_argument("--source", required=True)
    p.add_argument("--kind", required=True, choices=["bh_loop", "timeseries", "pareto"])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, DataError, ConfigError, TrainingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
