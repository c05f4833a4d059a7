"""In-memory span tracer for the hystkit benchmark.

Spans are recorded from the benchmark's side: :meth:`Tracer.install` replaces
public hystkit functions with timing wrappers *where their callers look them
up* (``hystkit.heads.gru_step`` and ``hystkit.physics.gru_step`` are separate
names for the same function), and :meth:`Tracer.uninstall` puts the originals
back. Nothing in ``src/`` changes.

A span is ``[name, start_ns, end_ns, parent_index, run_id]``. Spans stay in
memory; the caller writes them out when the run ends. Sweep trials run in
forked pool workers: there the wrapper around ``training._run_trial`` dumps
the worker's spans to a file per trial, and :meth:`Tracer.collect_workers`
adds them to the parent's list as separate roots.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
from pathlib import Path
from time import perf_counter_ns

import numpy as np

#: (owner, attribute, span name). The owner is a module, or ``module:Class``
#: for methods. Each entry is one lookup site, so one function may appear
#: under several owners.
HOOKS = (
    ("hystkit.cli", "train", "training.train"),
    ("hystkit.cli", "evaluate_sequences", "training.evaluate_sequences"),
    ("hystkit.cli", "load_checkpoint", "training.checkpoint_load"),
    ("hystkit.cli", "save_checkpoint", "training.checkpoint_save"),
    ("hystkit.cli", "pareto_sweep", "training.pareto_sweep"),
    ("hystkit.cli", "predict_window", "heads.predict_window"),
    ("hystkit.cli", "load_material", "dataset.load_material"),
    ("hystkit.cli", "ingest_material", "dataset.ingest_material"),
    ("hystkit.cli:OutputStage", "finish", "cli.stage_finish"),
    ("hystkit.training", "train", "training.train"),
    ("hystkit.training", "_run_trial", "training.trial"),
    ("hystkit.training", "evaluate_sequences", "training.evaluate_sequences"),
    ("hystkit.training", "batch_loss", "training.batch_loss"),
    ("hystkit.training", "optimizer_step", "training.optimizer_step"),
    ("hystkit.training", "make_minibatches", "dataset.make_minibatches"),
    ("hystkit.training", "rollout", "heads.rollout"),
    ("hystkit.training", "predict_window", "heads.predict_window"),
    ("hystkit.training", "weighted_loss_rows", "metrics.loss"),
    ("hystkit.training", "batch_mean", "metrics.loss"),
    ("hystkit.training", "sre", "metrics.report"),
    ("hystkit.training", "nere", "metrics.report"),
    ("hystkit.training", "mse", "metrics.report"),
    ("hystkit.training", "mae", "metrics.report"),
    ("hystkit.training", "wce", "metrics.report"),
    ("hystkit.metrics:MetricReport", "aggregate", "metrics.report"),
    ("hystkit.metrics:MetricReport", "write_json", "metrics.report"),
    ("hystkit.metrics:MetricReport", "write_csv", "metrics.report"),
    ("hystkit.heads", "rollout", "heads.rollout"),
    ("hystkit.heads", "gru_step", "cells.gru_step"),
    ("hystkit.heads", "lstm_step", "cells.lstm_step"),
    ("hystkit.heads", "ja_step_euler", "physics.ja_step_euler"),
    ("hystkit.heads", "gru_jadp_step", "physics.gru_jadp_step"),
    ("hystkit.physics", "gru_step", "cells.gru_step"),
    ("hystkit.physics", "ja_step_euler", "physics.ja_step_euler"),
    ("hystkit.dataset", "featurize", "dataset.featurize"),
    ("hystkit.autodiff:Tensor", "backward", "autodiff.backward"),
)

NAME, START, END, PARENT, RUN = range(5)


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def tape_size(root) -> int:
    """Distinct tape nodes reachable from ``root`` through recorded parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    def __init__(self, dump_dir: Path):
        self.spans: list = []
        self.nodes_per_step: list = []
        self.run_id = 0
        self.dump_dir = Path(dump_dir)
        self._stack: list = []
        self._saved: list = []
        self._pid = os.getpid()

    # -- recording ---------------------------------------------------------
    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _SpanContext(self, name)

    def _open(self, name: str):
        rec = [name, perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec) -> None:
        rec[END] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)

        if name == "training.batch_loss":
            @functools.wraps(fn)
            def counting(*args, **kwargs):
                loss = wrapper(*args, **kwargs)
                tracer.nodes_per_step.append(tape_size(loss))
                return loss
            return counting
        if name == "training.trial":
            @functools.wraps(fn)
            def trial(job):
                if os.getpid() == tracer._pid:
                    return wrapper(job)
                tracer.spans, tracer._stack, tracer.nodes_per_step = [], [], []
                row = wrapper(job)
                tracer._dump_worker()
                return row
            return trial
        return wrapper

    def take(self):
        """Return (spans, nodes-per-step counts) recorded so far and start afresh."""
        taken = self.spans, self.nodes_per_step
        self.spans, self.nodes_per_step, self._stack = [], [], []
        return taken

    # -- patching ----------------------------------------------------------
    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self._saved:
            return
        for owner_path, attr, name in HOOKS:
            owner = _owner(owner_path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- forked sweep workers ----------------------------------------------
    def _dump_worker(self) -> None:
        path = self.dump_dir / f"worker-{os.getpid()}-{perf_counter_ns()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"spans": self.spans, "nodes": self.nodes_per_step}))
        os.replace(tmp, path)

    def collect_workers(self) -> None:
        """Append the spans that forked workers dumped, as separate roots."""
        for path in sorted(self.dump_dir.glob("worker-*.json")):
            dump = json.loads(path.read_text())
            base = len(self.spans)
            for name, start, end, parent, _ in dump["spans"]:
                self.spans.append([name, start, end, parent + base if parent >= 0 else -1,
                                   self.run_id])
            self.nodes_per_step.extend(dump["nodes"])
            path.unlink()


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.rec = self.tracer._open(self.name)
        return self.rec

    def __exit__(self, *exc):
        self.tracer._close(self.rec)
        return False


# -- per-layer metrics --------------------------------------------------------

def _p(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans, nodes_per_step, step_span: str) -> dict:
    """Per-layer metrics of one traced repeat (all spans share its run id).

    Times are in ms. ``*_calls`` are calls per unit of ``step_span``
    (a training step, or one predicted sequence) and ``nodes_per_step`` is
    the mean tape size per training step; ``*_self_ms`` and the
    other totals are summed over the repeat; ``*_ms`` of a per-call layer is
    its p50 per call. A layer that does not run reports 0.
    """
    n = len(spans)
    dur = [(s[END] - s[START]) / 1e6 for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def durations(name):
        return [dur[i] for i in by_name.get(name, ())]

    def self_total(name):
        return sum((dur[i] - child[i] for i in by_name.get(name, ())), 0.0)

    def outer_total(name):
        """Inclusive time of ``name`` spans not nested in another ``name`` span."""
        total = 0.0
        for i in by_name.get(name, ()):
            p = spans[i][PARENT]
            while p >= 0 and spans[p][NAME] != name:
                p = spans[p][PARENT]
            if p < 0:
                total += dur[i]
        return total

    under_step = [False] * n
    for i, s in enumerate(spans):
        p = s[PARENT]
        under_step[i] = p >= 0 and (spans[p][NAME] == step_span or under_step[p])
    steps = len(by_name.get(step_span, ()))

    def per_step(name):
        return sum(under_step[i] for i in by_name.get(name, ())) / steps if steps else 0.0

    step_ms = []
    last_forward: dict = {}
    for i, s in enumerate(spans):
        if s[NAME] == "training.batch_loss":
            last_forward[s[PARENT]] = s[START]
        elif s[NAME] == "training.optimizer_step" and s[PARENT] in last_forward:
            step_ms.append((s[END] - last_forward.pop(s[PARENT])) / 1e6)

    evaluate_in_train = sum(dur[i] for i in by_name.get("training.evaluate_sequences", ())
                            if spans[i][PARENT] >= 0
                            and spans[spans[i][PARENT]][NAME] == "training.train")
    train_total = sum(durations("training.train"))
    cli_self = sum(self_total(name) for name in by_name if name.startswith("cli.")
                   and name != "cli.stage_finish")
    return {
        "autodiff.backward_ms": _p(durations("autodiff.backward"), 50),
        "autodiff.nodes_per_step": float(np.mean(nodes_per_step)) if nodes_per_step else 0.0,
        "cells.gru_step_calls": per_step("cells.gru_step"),
        "cells.gru_step_self_ms": self_total("cells.gru_step"),
        "cells.lstm_step_calls": per_step("cells.lstm_step"),
        "cells.lstm_step_self_ms": self_total("cells.lstm_step"),
        "physics.ja_step_euler_calls": per_step("physics.ja_step_euler"),
        "physics.ja_step_euler_self_ms": self_total("physics.ja_step_euler"),
        "physics.gru_jadp_step_self_ms": self_total("physics.gru_jadp_step"),
        "heads.rollout_self_ms": self_total("heads.rollout"),
        "heads.predict_window_ms": _p(durations("heads.predict_window"), 50),
        "heads.predict_window_count": float(len(by_name.get("heads.predict_window", ()))),
        "training.step_ms_p50": _p(step_ms, 50),
        "training.step_ms_p90": _p(step_ms, 90),
        "training.optimizer_step_ms": _p(durations("training.optimizer_step"), 50),
        "training.evaluate_sequences_ms": _p(durations("training.evaluate_sequences"), 50),
        "training.eval_share": evaluate_in_train / train_total if train_total else 0.0,
        "training.checkpoint_save_ms": _p(durations("training.checkpoint_save"), 50),
        "training.checkpoint_load_ms": _p(durations("training.checkpoint_load"), 50),
        "dataset.make_minibatches_ms": _p(durations("dataset.make_minibatches"), 50),
        "dataset.load_material_ms": _p(durations("dataset.load_material"), 50),
        "dataset.ingest_material_ms": _p(durations("dataset.ingest_material"), 50),
        "dataset.featurize_ms": sum(durations("dataset.featurize"), 0.0),
        "metrics.loss_ms": outer_total("metrics.loss"),
        "metrics.report_ms": outer_total("metrics.report"),
        "cli.stage_finish_ms": sum(durations("cli.stage_finish"), 0.0),
        "cli.self_ms": cli_self,
    }
