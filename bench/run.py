#!/usr/bin/env python3
"""hystkit benchmark: the real CLI paths on synthetic data built from a seed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. NAME is one of ``train-gru``, ``train-jadp``,
``eval-predict``, ``sweep``, or ``all``, which runs every workload in its own
process, interleaved over three rounds with seeds N, N+1 and N+2, and
summarizes the per-run values.

Set-up draws the data from ``generate_ja_dataset(seed=N)`` and writes it to
disk. Each timed repeat runs the workload's ``hystkit`` commands, called
in-process through ``hystkit.cli.main``, on the data of a fresh set-up. Set-ups
and repeats alternate for about ``S`` seconds (at least two repeats and three
set-ups), and ``setup_s`` and the other metrics are medians over them. With
``--trace 1`` every other repeat is traced (see ``tracing.py``) and the
per-layer metrics plus the tracing overhead are reported instead of the
end-to-end metrics.

Every repeat is checked: commands exit 0 and leave no ``.partial``
sentinel, losses and errors are finite, sweep trials succeed, the SRE
recomputed from ``predict``'s CSVs matches ``eval``'s report, and every
repeat reproduces the first one's checkpoint and report bytes. The last
stdout line is the result JSON; the exit code is 1 when any check failed.
Per-repeat values go to ``.bench_out/`` (and the spans, when tracing).
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import gzip
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# One BLAS thread per process, so the two sweep workers stay within nproc = 2.
# This has to happen before numpy is first imported.
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import numpy as np  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402

WORKLOADS = ("train-gru", "train-jadp", "eval-predict", "sweep")
#: The gated end-to-end metrics; every workload reports each of them.
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb", "eval_sre", "success_rate")
#: Units of every end-to-end value, gated or only on the ``detail`` line.
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "eval_sre": "ratio",
         "success_rate": "ratio", "error_rate": "ratio", "final_loss": "ratio",
         "train_samples_per_s": "1/s", "ingest_samples_per_s": "1/s",
         "eval_samples_per_s": "1/s", "predict_samples_per_s": "1/s",
         "sweep_worker_busy_frac": "ratio", "repeats": "count"}

# Workload shape: windows of 128 samples, 16 of them warmup, 16 rows per
# step. The canonical material holds 48 x 1024 samples as 96 sequences of 512,
# so its eval split has 9 sequences instead of 6 and the eval SRE varies less
# from seed to seed. The magnetx material is 60 x 1024.
TRAIN_SEQS, TRAIN_LEN, EVAL_SEQS, EVAL_LEN = 96, 512, 60, 1024
SUBSEQ, WARMUP, BATCH = 128, 16, 16
WINDOW_FLAGS = ["--hidden-size", "8", "--subseq-len", str(SUBSEQ), "--batch-size", str(BATCH),
                "--warmup-len", str(WARMUP), "--seed", "0"]
GRU_EPOCHS, JADP_EPOCHS, SWEEP_EPOCHS, SETUP_EPOCHS = 1, 2, 1, 1
SWEEP_ARCHETYPES, SWEEP_SIZES, SWEEP_WORKERS = "gru-p,lstm-p", "4,8,16", 2
# A run sets up at least MIN_SETUPS times, spends about SETUP_SHARE of the
# repeats' time on set-ups, and makes at least MIN_REPEATS timed repeats.
# ``--workload all`` runs ROUNDS rounds.
MIN_SETUPS, SETUP_SHARE, MIN_REPEATS, ROUNDS = 3, 0.25, 2, 3
SRE_RTOL = 1e-6  # predictions CSVs carry 9 significant digits


def _sha(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree_digest(root: Path) -> str:
    """Digest of every file under ``root`` except run manifests (they hold wall times)."""
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file() and p.name != "run_manifest.json":
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "seed": seed,
    }


class Bench:
    """State of one invocation: checks, the optional tracer, and the hystkit entry point."""

    def __init__(self, workload: str, seed: int, tracer):
        from hystkit.cli import main

        self.workload, self.seed, self.tracer = workload, seed, tracer
        self.cli_main = main
        self.attempted = self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed [{self.workload}]: {what}", file=sys.stderr)
        return ok

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def cli(self, argv: list, out: Path) -> float:
        """Run one hystkit command in-process; returns its wall time in seconds."""
        rc = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if self.tracer is not None and self.tracer.installed:
                    with self.tracer.span(f"cli.{argv[0]}"):
                        rc = self.cli_main(argv)
                else:
                    rc = self.cli_main(argv)
        except Exception:  # a crash is a failed operation, not a benchmark crash
            traceback.print_exc()
        wall = time.perf_counter() - start
        self.check(rc == 0, f"hystkit {argv[0]} exited {rc}")
        self.check(not (Path(out) / ".partial").exists(), f"hystkit {argv[0]} left .partial")
        return wall


# -- set-up -------------------------------------------------------------------

def _generate(b: Bench, n: int, length: int, material: str):
    from hystkit.synth import generate_ja_dataset

    with b.span("synth.generate"):
        return generate_ja_dataset(n, length, seed=b.seed, material_id=material)


def _steps_per_epoch(sequences) -> int:
    from hystkit.dataset import split_dataset

    train_seqs = split_dataset(sequences, seed=0)[0]
    return sum(len(s) // SUBSEQ for s in train_seqs) // BATCH


def setup_canonical(b: Bench, d: Path) -> dict:
    from hystkit.dataset import write_material

    seqs = _generate(b, TRAIN_SEQS, TRAIN_LEN, "synth")
    # Without the optional frequency label the split stratifies by temperature
    # alone (3 x 32 sequences), so every seed gives the same 78/9/9 split and
    # the same work per epoch.
    for s in seqs:
        s.f_sw_hz = None
    write_material(d / "data", "synth", seqs)
    return {"data": d / "data", "steps_per_epoch": _steps_per_epoch(seqs),
            "fingerprint": lambda: tree_digest(d / "data")}


def write_magnetx(raw: Path, seqs) -> None:
    """Row-per-sequence CSV matrices, the layout ``hystkit ingest --adapter magnetx`` reads."""
    raw.mkdir(parents=True, exist_ok=True)
    columns = {
        "B_waveform[T].csv": np.stack([s.b for s in seqs]),
        "H_waveform[Am-1].csv": np.stack([s.h for s in seqs]),
        "Temperature[C].csv": np.array([[s.temperature_c] for s in seqs]),
        "Frequency[Hz].csv": np.array([[s.f_sw_hz] for s in seqs]),
        "Sampling_Time[s].csv": np.array([[s.tau_s] for s in seqs]),
    }
    for name, matrix in columns.items():
        np.savetxt(raw / name, matrix, delimiter=",", fmt="%.9g")


def setup_magnetx(b: Bench, d: Path) -> dict:
    seqs = _generate(b, EVAL_SEQS, EVAL_LEN, "synthx")
    write_magnetx(d / "raw" / "synthx", seqs)
    b.cli(["ingest", "--raw", str(d / "raw"), "--out", str(d / "data"), "--adapter", "magnetx"],
          d / "data")
    b.cli(["train", "--data", str(d / "data"), "--material", "synthx", "--out", str(d / "ckpt"),
           "--archetype", "gru-p", "--precision", "single", "--epochs", str(SETUP_EPOCHS),
           "--patience", str(SETUP_EPOCHS)] + WINDOW_FLAGS, d / "ckpt")
    losses, _ = read_train_log(d / "ckpt" / "train_log.csv")
    model = json.loads((d / "ckpt" / "model.json").read_text())
    return {"raw": d / "raw", "ckpt": d / "ckpt" / "model.json",
            "samples": sum(len(s) for s in seqs),
            "predicted": sum(len(s) - WARMUP for s in seqs),
            "final_loss": losses[-1],
            "fingerprint": lambda: tree_digest(d / "raw") + model["blob_sha256"]}


# -- timed repeats --------------------------------------------------------------

def read_train_log(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    losses = [float(r["loss"]) for r in rows]
    evals = [float(r["eval_sre"]) for r in rows if r["eval_sre"]]
    return losses, evals


def _train_repeat(flags: list):
    def repeat(b: Bench, ctx: dict, d: Path) -> dict:
        out = d / "train"
        wall = b.cli(["train", "--data", str(ctx["data"]), "--material", "synth",
                      "--out", str(out)] + flags + WINDOW_FLAGS, out)
        losses, evals = read_train_log(out / "train_log.csv")
        b.check(bool(losses) and all(map(math.isfinite, losses)), "train losses finite")
        b.check(bool(evals) and all(map(math.isfinite, evals)), "eval SRE present and finite")
        header = json.loads((out / "model.json").read_text())
        samples = BATCH * (SUBSEQ - WARMUP) * ctx["steps_per_epoch"] * len(losses)
        return {"wall_s": wall, "train_samples_per_s": samples / wall, "eval_sre": min(evals),
                "final_loss": losses[-1],
                "fingerprint": header["blob_sha256"] + _sha(out / "train_log.csv")}
    return repeat


def sre_from_csv(path: Path) -> float:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    true = [float(r["H_true"]) for r in rows]
    err = sum((float(r["H_pred"]) - t) ** 2 for r, t in zip(rows, true))
    return math.sqrt(err / sum(t * t for t in true))


def eval_predict_repeat(b: Bench, ctx: dict, d: Path) -> dict:
    data = d / "data"
    common = ["--data", str(data), "--material", "synthx", "--checkpoint", str(ctx["ckpt"]),
              "--split", "all"]
    t_ingest = b.cli(["ingest", "--raw", str(ctx["raw"]), "--out", str(data),
                      "--adapter", "magnetx"], data)
    t_eval = b.cli(["eval"] + common + ["--out", str(d / "eval")], d / "eval")
    t_pred = b.cli(["predict"] + common + ["--out", str(d / "pred")], d / "pred")
    report = json.loads((d / "eval" / "report.json").read_text())
    rows = report["sequences"]
    b.check(len(rows) == EVAL_SEQS, f"report has {len(rows)} of {EVAL_SEQS} sequences")
    for row in rows:
        path = d / "pred" / "predictions" / f"seq_{row['index']:05d}.csv"
        got = sre_from_csv(path) if path.exists() else float("nan")
        b.check(abs(got - row["sre"]) <= SRE_RTOL * abs(row["sre"]),
                f"sequence {row['index']}: SRE from predictions {got!r} != report {row['sre']!r}")
    wall = t_ingest + t_eval + t_pred
    return {"wall_s": wall,
            "ingest_samples_per_s": ctx["samples"] / t_ingest,
            "eval_samples_per_s": ctx["predicted"] / t_eval,
            "predict_samples_per_s": ctx["predicted"] / t_pred,
            "eval_sre": report["aggregate"]["avg_sre"], "final_loss": ctx["final_loss"],
            "fingerprint": tree_digest(data) + _sha(d / "eval" / "report.json")
            + tree_digest(d / "pred")}


def sweep_repeat(b: Bench, ctx: dict, d: Path) -> dict:
    out = d / "sweep"
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    wall = b.cli(["sweep", "--data", str(ctx["data"]), "--material", "synth", "--out", str(out),
                  "--archetype", SWEEP_ARCHETYPES, "--sizes", SWEEP_SIZES, "--seeds", "1",
                  "--workers", str(SWEEP_WORKERS), "--epochs", str(SWEEP_EPOCHS),
                  "--patience", str(SWEEP_EPOCHS)] + WINDOW_FLAGS, out)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    trials = len(SWEEP_ARCHETYPES.split(",")) * len(SWEEP_SIZES.split(","))
    b.check(len(rows) == trials, f"sweep wrote {len(rows)} of {trials} trials")
    for r in rows:
        b.check(r["status"] == "ok" and math.isfinite(float(r["sre"])),
                f"sweep trial {r['archetype']} d_g={r['d_g']}: {r['status']} sre={r['sre']}")
    samples = BATCH * (SUBSEQ - WARMUP) * ctx["steps_per_epoch"] * SWEEP_EPOCHS * len(rows)
    busy = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return {"wall_s": wall, "train_samples_per_s": samples / wall,
            "eval_sre": statistics.median(float(r["sre"]) for r in rows),
            "sweep_worker_busy_frac": busy / (wall * SWEEP_WORKERS),
            "fingerprint": _sha(out / "sweep.csv") + _sha(out / "sweep_medians.csv")}


#: name -> (set-up, timed repeat, span that counts as one step)
SPECS = {
    "train-gru": (setup_canonical, _train_repeat(
        ["--archetype", "gru-p", "--precision", "single", "--epochs", str(GRU_EPOCHS),
         "--patience", str(GRU_EPOCHS)]), "training.batch_loss"),
    "train-jadp": (setup_canonical, _train_repeat(
        ["--archetype", "gru-jadp", "--epochs", str(JADP_EPOCHS), "--patience", str(JADP_EPOCHS),
         "--eval-every", str(JADP_EPOCHS)]), "training.batch_loss"),
    "eval-predict": (setup_magnetx, eval_predict_repeat, "heads.predict_window"),
    "sweep": (setup_canonical, sweep_repeat, "training.batch_loss"),
}


# -- one workload -----------------------------------------------------------------

def _median(records, key):
    return statistics.median(r[key] for r in records)


class Phases:
    """Set-ups and timed repeats of one run, alternated.

    Each repeat runs on the data of the set-up just before it, so set-up
    times are spread over the run as repeat times are, and one slow episode
    of the host does not land on all of them. With a tracer every other
    repeat is traced.
    """

    def __init__(self, b: Bench, work: Path, step_span: str):
        self.b, self.work, self.step_span = b, work, step_span
        self.setup_times, self.setup_spans = [], []
        self.records, self.traced_spans = [], []
        self.ctx = None

    def set_up(self, setup_fn) -> None:
        b, i = self.b, len(self.setup_times)
        start = time.perf_counter()
        ctx = setup_fn(b, self.work / f"setup{i}")
        self.setup_times.append(time.perf_counter() - start)
        ctx["fingerprint"] = ctx["fingerprint"]()  # hashing is not part of set-up time
        if b.tracer is not None:
            self.setup_spans += b.tracer.take()[0]
        if i:
            b.check(ctx["fingerprint"] == self.ctx["fingerprint"], f"set-up {i} reproduces set-up 0")
            shutil.rmtree(self.work / f"setup{i - 1}", ignore_errors=True)
        self.ctx = ctx

    def repeat(self, repeat_fn) -> None:
        b, r = self.b, len(self.records)
        traced = b.tracer is not None and r % 2 == 1
        if traced:
            b.tracer.run_id = r
            b.tracer.install()
        try:
            rec = repeat_fn(b, self.ctx, self.work / f"repeat{r}")
        finally:
            if traced:
                b.tracer.uninstall()
        rec["traced"] = traced
        if traced:
            b.tracer.collect_workers()
            spans, nodes = b.tracer.take()
            rec["layers"] = layer_metrics(spans, nodes, self.step_span)
            self.traced_spans.append(spans)
        if r:
            b.check(rec["fingerprint"] == self.records[0]["fingerprint"],
                    f"repeat {r} reproduces repeat 0 (checkpoint and report bytes)")
        self.records.append(rec)
        shutil.rmtree(self.work / f"repeat{r}", ignore_errors=True)

    def run(self, setup_fn, repeat_fn, seconds: float) -> None:
        """Set up and repeat for about ``seconds``.

        Before each repeat, and after the last one, set-ups run until they
        have taken SETUP_SHARE of the time the repeats took so far, and at
        least once. The run ends with at least MIN_SETUPS set-ups.
        """
        durations, repeat_time = [], 0.0

        def set_up_share():
            self.set_up(setup_fn)
            while sum(self.setup_times) < SETUP_SHARE * repeat_time:
                self.set_up(setup_fn)

        start = time.perf_counter()
        while (len(self.records) < MIN_REPEATS
               or time.perf_counter() - start + statistics.median(durations) <= seconds):
            begun = time.perf_counter()
            set_up_share()
            self.repeat(repeat_fn)
            repeat_time += self.records[-1]["wall_s"]
            durations.append(time.perf_counter() - begun)
        set_up_share()
        while len(self.setup_times) < MIN_SETUPS:
            self.set_up(setup_fn)


def _summary(b: Bench, setup_times, setup_spans, records):
    """(detail, metrics): every end-to-end value, and the gated metrics for this mode."""
    plain = [r for r in records if not r["traced"]]
    if not plain:
        return {}, {}
    # Sweep workers are forked from this process and share its pages, so the
    # peak is the larger of the two, not their sum.
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    detail = {k: _median(plain, k) for k in plain[0] if k not in ("fingerprint", "traced")}
    detail.update(setup_s=statistics.median(setup_times), peak_rss_mb=rss_kb / 1024.0,
                  success_rate=1.0 - b.failed / b.attempted, error_rate=b.failed / b.attempted,
                  repeats=len(plain))
    if b.tracer is None:
        return detail, {k: {"value": detail[k], "unit": UNITS[k]} for k in END_TO_END}
    traced = [r for r in records if r["traced"]]
    if not traced:
        return detail, {}
    layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    layers["training.sweep_worker_busy_frac"] = detail.get("sweep_worker_busy_frac", 0.0)
    layers["synth.generate_ms"] = statistics.median(
        (s[2] - s[1]) / 1e6 for s in setup_spans if s[0] == "synth.generate")
    overhead = _median(traced, "wall_s") - detail["wall_s"]
    layers["trace.overhead_s"] = overhead
    layers["trace.overhead_share"] = overhead / detail["wall_s"]
    return detail, {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    setup_fn, repeat_fn, step_span = SPECS[name]
    tag = f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    work = ROOT / ".bench_work" / tag
    out_dir = ROOT / ".bench_out"
    (work / "workers").mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    b = Bench(name, seed, Tracer(work / "workers") if trace else None)
    phases = Phases(b, work, step_span)
    try:
        phases.run(setup_fn, repeat_fn, seconds)
    except Exception as exc:  # a crash or missing output fails the run
        traceback.print_exc()
        b.check(False, f"{type(exc).__name__}: {exc}")
    finally:
        if trace:
            b.tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    setup_times, setup_spans = phases.setup_times, phases.setup_spans
    records, traced_spans = phases.records, phases.traced_spans
    detail, metrics = _summary(b, setup_times, setup_spans, records)

    env = environment(seed)
    result = {"workload": name, "seed": seed, "trace": int(trace), "env": env,
              "setup_s_each": setup_times, "checks": {"attempted": b.attempted, "failed": b.failed},
              "repeats": [{k: v for k, v in r.items() if k != "fingerprint"} for r in records],
              "detail": detail, "metrics": metrics}
    (out_dir / f"{tag}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    if traced_spans:
        with gzip.open(out_dir / f"{tag}-spans.jsonl.gz", "wt") as fh:
            for spans in [setup_spans] + traced_spans:
                for s in spans:
                    fh.write(json.dumps(s) + "\n")
    print("env " + json.dumps(env, sort_keys=True))
    print("detail " + json.dumps({"workload": name, "metrics": {
        k: {"value": v, "unit": UNITS[k]} for k, v in detail.items()}}, sort_keys=True))
    correct = b.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(b.attempted, 1),
                      "failed": b.failed if b.attempted else 1, "metrics": metrics}))
    return 0 if correct else 1


def layer_unit(name: str) -> str:
    if "_ms" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_frac")):
        return "ratio"
    return "count"


# -- all workloads, interleaved -------------------------------------------------------

def run_all(args) -> int:
    """Each workload in its own process, ROUNDS rounds with seeds seed, seed+1, ...

    The workload order rotates every round.
    """
    runs = {w: [] for w in WORKLOADS}
    correct, attempted, failed = True, 0, 0
    for rnd in range(ROUNDS):
        order = WORKLOADS[rnd % len(WORKLOADS):] + WORKLOADS[:rnd % len(WORKLOADS)]
        for w in order:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
                   "--seed", str(args.seed + rnd), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 1,
                                                          "failed": 1, "metrics": {}}
            correct &= proc.returncode == 0 and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            values = {}
            for line in lines:
                if line.startswith("detail "):
                    values.update(json.loads(line[len("detail "):])["metrics"])
            values.update(result["metrics"])
            runs[w].append({k: m["value"] for k, m in values.items()})
            print(f"round {rnd} {w}: exit {proc.returncode} "
                  + json.dumps(runs[w][-1], sort_keys=True), file=sys.stderr)
    summary, metrics = {}, {}
    for w, values in runs.items():
        for key in sorted({k for v in values for k in v}):
            series = [v[key] for v in values if key in v]
            med = statistics.median(series)
            q = statistics.quantiles(series, n=4) if len(series) > 1 else [med, med, med]
            summary[f"{w}.{key}"] = {"runs": series, "median": med,
                                     "iqr_share": (q[2] - q[0]) / med if med else 0.0}
            metrics[f"{w}.{key}"] = {"value": med, "unit": UNITS.get(key) or layer_unit(key)}
            print(f"{w:13s} {key:34s} median {med:12.6g}  iqr/median "
                  f"{summary[f'{w}.{key}']['iqr_share']:.3f}  runs {series}", file=sys.stderr)
    out = ROOT / ".bench_out" / f"all-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = ROOT / "src"
    if not (src / "hystkit" / "__init__.py").is_file():
        print(f"error: {src}/hystkit not found; run from a hystkit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
