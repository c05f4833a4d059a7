"""Command-line surface: ingest, train, eval, predict, sweep, plotdata.

Every artifact is staged by one writer, ``dataset.write_file`` (temp file +
rename). Each command drops a ``.partial`` sentinel while running so
interrupted runs are flagged, and writes a ``run_manifest.json`` capturing
the command, the fully resolved configuration, input hashes, toolkit
version, and output paths.
All nondeterministic values (timestamps, wall time) live in the manifest's
single ``timing`` field, so identical inputs and ``--seed`` reproduce
identical bytes everywhere else.

Configuration precedence: command-line flags > ``--config`` JSON file >
built-in defaults. ``HSK_DATA_DIR`` supplies the dataset root when ``--data``
is omitted.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .dataset import (DataError, fmt, ingest_material, json_text, load_material, read_json,
                      split_dataset, write_file, write_rows)
from .training import (ConfigError, TrainConfig, TrainingError, config_param_count,
                       evaluate_sequences, full_sequence_task, load_checkpoint, pareto_sweep,
                       save_checkpoint, sweep_medians, train, write_sweep_csv)
from .heads import predict_window

_SENTINEL = ".partial"


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


#: Flag and config-file names of the TrainConfig fields the CLI exposes.
_CONFIG_FIELDS = {
    "archetype": "archetype", "hidden_size": "d_g", "seed": "seed", "epochs": "epochs",
    "lr": "lr", "batch_size": "batch_size", "subseq_len": "subseq_len",
    "warmup_len": "warmup_length", "precision": "precision", "lambda_w": "lambda_w",
    "patience": "patience", "eval_every": "eval_every", "clip_norm": "clip_norm",
}
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(TrainConfig)}


def _resolve_config(args) -> dict:
    """Flags > config file > TrainConfig defaults; returns the fully resolved mapping."""
    resolved = {key: _DEFAULTS[name] for key, name in _CONFIG_FIELDS.items()}
    resolved["split_seed"] = None
    if getattr(args, "config", None):
        file_cfg = read_json(args.config)
        unknown = set(file_cfg) - set(resolved)
        if unknown:
            raise CliError(f"unknown config file keys: {sorted(unknown)}")
        resolved.update(file_cfg)
    for key in resolved:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    if resolved["split_seed"] is None:
        resolved["split_seed"] = resolved["seed"]
    return resolved


def _train_config(resolved: dict) -> TrainConfig:
    """Cast each resolved value to the type of its field's default (``None`` casts nothing)."""
    values = {}
    for key, name in _CONFIG_FIELDS.items():
        value, default = resolved[key], _DEFAULTS[name]
        values[name] = value if default is None else type(default)(value)
    return TrainConfig(**values)


def _load_split(root: Path, material: str, split: str, split_seed: int):
    """The sequences of one split; an empty split is an error."""
    sequences = load_material(root, material)
    if split != "all":
        index = {"train": 0, "eval": 1, "test": 2}
        if split not in index:
            raise CliError(f"unknown split {split!r}")
        sequences = split_dataset(sequences, seed=split_seed)[index[split]]
    if not sequences:
        raise CliError(f"split {split!r} of {material} is empty")
    return sequences


def _load_train_eval(root: Path, material: str, split_seed: int):
    sequences = load_material(root, material)
    train_seqs, eval_seqs, _ = split_dataset(sequences, seed=split_seed)
    return train_seqs, eval_seqs


# -- commands ---------------------------------------------------------------

def cmd_ingest(args) -> int:
    raw = Path(args.raw)
    if not raw.is_dir():
        raise DataError(f"raw directory {raw} does not exist")
    subdirs = sorted(p for p in raw.iterdir() if p.is_dir()) or [raw]
    stage = OutputStage(args.out, "ingest", {"raw": str(raw), "material": args.material,
                                             "adapter": args.adapter}, {"raw": raw})
    counts = {}
    for sub in subdirs:
        material, count = ingest_material(sub, stage.out_dir, args.material or sub.name,
                                          adapter=args.adapter)
        counts[material] = count
        stage.outputs.append(f"{material}/manifest.json")
    if not counts:
        raise DataError(f"no sequences found under {raw}")
    write_file(stage.path("ingest_summary.json"),
               json_text({"materials": counts, "total_sequences": sum(counts.values())}))
    stage.finish()
    for material, count in counts.items():
        print(f"ingested {material}: {count} sequences")
    return 0


def cmd_train(args) -> int:
    resolved = _resolve_config(args)
    root = _data_root(args)
    config = _train_config(resolved)
    train_seqs, eval_seqs = _load_train_eval(root, args.material, resolved["split_seed"])
    stage = OutputStage(args.out, "train",
                        {**resolved, "material": args.material},
                        {"dataset": root / args.material})
    result = train(config, train_seqs, eval_seqs)
    ckpt = result.checkpoint()
    ckpt.train_config["split_seed"] = resolved["split_seed"]
    ckpt.train_config["material"] = args.material
    json_path, bin_path = save_checkpoint(stage.out_dir / "model", ckpt)
    stage.outputs.extend([json_path.name, bin_path.name])
    rows = []
    for i, loss in enumerate(result.train_losses):
        eval_i = (i + 1) // config.eval_every - 1
        has_eval = (i + 1) % config.eval_every == 0 and 0 <= eval_i < len(result.eval_sre)
        rows.append([i, fmt(loss), fmt(result.eval_sre[eval_i]) if has_eval else ""])
    write_rows(stage.path("train_log.csv"), ["epoch", "loss", "eval_sre"], rows)
    stage.finish()
    if result.eval_sre:
        print(f"trained {config.archetype} d_g={config.d_g} "
              f"({config_param_count(config)} params), best epoch {result.best_epoch}, "
              f"best eval SRE {min(result.eval_sre):.4f}")
    else:
        print(f"trained {config.archetype} d_g={config.d_g} (no eval set)")
    print(f"checkpoint: {json_path}")
    return 0


def _open_checkpoint(args):
    ckpt = load_checkpoint(Path(args.checkpoint))
    material = args.material or ckpt.train_config.get("material")
    if not material:
        raise CliError("material unknown: pass --material")
    split_seed = ckpt.train_config.get("split_seed", ckpt.seed)
    return ckpt, material, split_seed


def cmd_eval(args) -> int:
    ckpt, material, split_seed = _open_checkpoint(args)
    root = _data_root(args)
    sequences = _load_split(root, material, args.split, split_seed)
    stage = OutputStage(args.out, "eval",
                        {"checkpoint": str(args.checkpoint), "material": material,
                         "split": args.split, "split_seed": split_seed},
                        {"checkpoint": args.checkpoint, "dataset": Path(root) / material})
    report = evaluate_sequences(ckpt.head_config(), ckpt.params, sequences, ckpt.norm,
                                ckpt.precision)
    report.write_json(stage.path("report.json"))
    report.write_csv(stage.path("report.csv"))
    stage.finish()
    agg = report.aggregate()
    print(f"eval {material}/{args.split}: avg SRE {agg['avg_sre']:.4f} "
          f"(p95 {agg['p95_sre']:.4f}), avg NERE {agg['avg_nere']:.5f} "
          f"(p95 |NERE| {agg['p95_nere']:.5f}) over {len(report.rows)} sequences")
    return 0


def cmd_predict(args) -> int:
    ckpt, material, split_seed = _open_checkpoint(args)
    root = _data_root(args)
    sequences = _load_split(root, material, args.split, split_seed)
    if args.index is not None:
        if not 0 <= args.index < len(sequences):
            raise CliError(f"sequence index {args.index} out of range (0..{len(sequences) - 1})")
        chosen = [(args.index, sequences[args.index])]
    else:
        chosen = list(enumerate(sequences))
    head_cfg = ckpt.head_config()
    warmup = args.warmup_len if args.warmup_len is not None else head_cfg.warmup_length
    stage = OutputStage(args.out, "predict",
                        {"checkpoint": str(args.checkpoint), "material": material,
                         "split": args.split, "split_seed": split_seed,
                         "index": args.index, "warmup_len": warmup},
                        {"checkpoint": args.checkpoint, "dataset": Path(root) / material})
    head_cfg = dataclasses.replace(head_cfg, warmup_length=warmup)
    tasks = [full_sequence_task(seq, warmup) for _, seq in chosen]
    results = predict_window(head_cfg, ckpt.params, [seq for _, seq in chosen], tasks,
                             ckpt.norm, ckpt.precision)
    meta = {}
    for (i, seq), task, result in zip(chosen, tasks, results):
        rows = [[k, fmt(seq.b[k]), fmt(seq.h[k]), fmt(result.pred[j])]
                for j, k in enumerate(range(task.k1, task.k2 + 1))]
        name = f"predictions/seq_{i:05d}.csv"
        write_rows(stage.path(name), ["k", "B", "H_true", "H_pred"], rows)
        meta[name] = {"tau_s": seq.tau_s, "k1": task.k1, "k2": task.k2}
    write_file(stage.path("predictions_meta.json"), json_text(meta))
    stage.finish()
    print(f"wrote {len(chosen)} prediction file(s) under {stage.out_dir}")
    return 0


def cmd_sweep(args) -> int:
    resolved = _resolve_config(args)
    root = _data_root(args)
    archetypes = [a.strip() for a in args.archetype.split(",")] if args.archetype else ["gru-p"]
    sizes = [int(s) for s in args.sizes.split(",")]
    seeds = list(range(int(args.seeds)))
    train_seqs, eval_seqs = _load_train_eval(root, args.material, resolved["split_seed"])
    stage = OutputStage(args.out, "sweep",
                        {**resolved, "material": args.material, "archetypes": archetypes,
                         "sizes": sizes, "n_seeds": len(seeds), "workers": args.workers},
                        {"dataset": root / args.material})
    base = _train_config(resolved)
    rows, medians = pareto_sweep(archetypes, sizes, seeds, train_seqs, eval_seqs,
                                 base_config=base, workers=args.workers)
    write_sweep_csv(stage.path("sweep.csv"), rows)
    median_rows = [[a, d, m["params"], fmt(m["median_sre"]), fmt(m["median_nere"])]
                   for (a, d), m in sorted(medians.items())]
    write_rows(stage.path("sweep_medians.csv"),
                       ["archetype", "d_g", "params", "median_sre", "median_nere"], median_rows)
    stage.finish()
    failed = sum(1 for r in rows if r["status"] != "ok")
    print(f"sweep: {len(rows)} trials ({failed} failed) -> {stage.out_dir / 'sweep.csv'}")
    return 0


def _read_csv_dicts(path: Path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def cmd_plotdata(args) -> int:
    source = Path(args.source)
    if not source.exists():
        raise CliError(f"source {source} does not exist")
    stage = OutputStage(args.out, "plotdata",
                        {"source": str(source), "kind": args.kind}, {"source": source})
    if args.kind in ("bh_loop", "timeseries"):
        rows = _read_csv_dicts(source)
        if not rows or "H_pred" not in rows[0]:
            raise CliError(f"{source} is not a prediction CSV (kind mismatch)")
        if args.kind == "bh_loop":
            out_rows = [[r["B"], r["H_true"], r["H_pred"]] for r in rows]
            write_rows(stage.path("bh_loop.csv"), ["B", "H_true", "H_pred"], out_rows)
        else:
            meta_path = source.parent.parent / "predictions_meta.json"
            if not meta_path.exists():
                raise CliError(f"missing {meta_path} (needed for the time axis)")
            meta = read_json(meta_path)
            tau = meta[f"predictions/{source.name}"]["tau_s"]
            out_rows = [[fmt(int(r["k"]) * tau * 1e6), r["B"], r["H_true"], r["H_pred"]]
                        for r in rows]
            write_rows(stage.path("timeseries.csv"),
                               ["t_us", "B", "H_true", "H_pred"], out_rows)
    elif args.kind == "pareto":
        rows = _read_csv_dicts(source)
        if not rows or "archetype" not in rows[0] or "sre" not in rows[0]:
            raise CliError(f"{source} is not a sweep CSV (kind mismatch)")
        medians = sweep_medians(rows, lambda r: (r["archetype"], int(r["params"])))
        per_arch = {}
        for (arch, params), m in sorted(medians.items()):
            per_arch.setdefault(arch, []).append(
                [params, fmt(m["median_sre"]), fmt(m["median_nere"])])
        for arch, out_rows in per_arch.items():
            write_rows(stage.path(f"pareto_{arch}.csv"),
                               ["params", "median_sre", "median_nere"], out_rows)
    else:
        raise CliError(f"unknown plot kind {args.kind!r}")
    stage.finish()
    print(f"plot data written under {stage.out_dir}")
    return 0


# -- argument parsing ---------------------------------------------------------

def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--archetype", help="model archetype (gru-p, gru-m, gru-l, lstm-p, gru-v, gru-jadp, ja)")
    p.add_argument("--hidden-size", dest="hidden_size", type=int, help="hidden state size d_g")
    p.add_argument("--seed", type=int, help="training seed")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--subseq-len", dest="subseq_len", type=int)
    p.add_argument("--warmup-len", dest="warmup_len", type=int)
    p.add_argument("--precision", choices=["single", "double"])
    p.add_argument("--lambda-w", dest="lambda_w", type=float, help="physics regularization weight")
    p.add_argument("--clip-norm", dest="clip_norm", type=float)
    p.add_argument("--patience", type=int)
    p.add_argument("--eval-every", dest="eval_every", type=int)
    p.add_argument("--split-seed", dest="split_seed", type=int)
    p.add_argument("--config", help="JSON config file (flags override it)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hystkit",
                                     description="Magnetic-field trajectory models: train, evaluate, sweep.")
    parser.add_argument("--version", action="version", version=f"hystkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert raw measurement layouts to the canonical dataset")
    p.add_argument("--raw", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--material")
    p.add_argument("--adapter", choices=["magnetx", "canonical"])
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
    p.add_argument("--split", default="test", choices=["train", "eval", "test", "all"])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="open-loop trajectory predictions as CSV")
    p.add_argument("--data")
    p.add_argument("--material")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=["train", "eval", "test", "all"])
    p.add_argument("--index", type=int, help="single sequence index (default: all)")
    p.add_argument("--warmup-len", dest="warmup_len", type=int,
                   help="override the warmup length (e.g. 1 for single-step warmup data)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("sweep", help="size/seed grid with per-cell median errors")
    p.add_argument("--data")
    p.add_argument("--material", required=True)
    p.add_argument("--sizes", required=True, help="comma-separated hidden sizes")
    p.add_argument("--seeds", default="1", help="number of seeds per cell")
    p.add_argument("--workers", type=int, default=1)
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
