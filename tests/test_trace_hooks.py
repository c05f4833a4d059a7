"""The benchmark tracer's hook table checked against the package it patches.

``bench/tracing.py`` wraps hystkit functions at the module attribute their
callers look up. Renaming such a name, or calling the function through a
different lookup, would break ``bench/run.py --trace 1`` or silently zero a
per-layer count; these tests catch both.
"""
import importlib.util
from collections import Counter
from pathlib import Path

from hystkit.cli import main
from hystkit.dataset import write_material
from hystkit.synth import generate_ja_dataset

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def _lookup(owner_path, attr):
    """(owner, function) as the tracer resolves them; a class must define the method itself."""
    owner = tracing._owner(owner_path)
    found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return owner, found


def test_every_hook_resolves():
    for owner_path, attr, _ in tracing.HOOKS:
        _, found = _lookup(owner_path, attr)
        assert callable(found), f"{owner_path}.{attr} does not resolve"


def test_every_hook_is_called(tmp_path, monkeypatch):
    calls = Counter()
    for owner_path, attr, _ in tracing.HOOKS:
        owner, original = _lookup(owner_path, attr)

        def counting(*args, _key=(owner_path, attr), _fn=original, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)

    data = tmp_path / "data"
    seqs = generate_ja_dataset(n_sequences=8, length=96, seed=1)
    for s in seqs:  # one stratum, so the split has an eval member
        s.f_sw_hz, s.temperature_c = 100e3, 25.0
    write_material(data, "m", seqs)
    raw = tmp_path / "raw" / "mx"
    raw.mkdir(parents=True)
    (raw / "B_waveform[T].csv").write_text("0.1,0.2,0.3\n0.2,0.3,0.4\n")
    (raw / "H_waveform[Am-1].csv").write_text("1,2,3\n2,3,4\n")
    (raw / "Temperature[C].csv").write_text("25\n50\n")
    flags = ["--data", str(data), "--material", "m", "--epochs", "1", "--subseq-len", "32",
             "--batch-size", "4", "--warmup-len", "4"]

    assert main(["ingest", "--raw", str(tmp_path / "raw"), "--out", str(tmp_path / "ingested")]) == 0
    for archetype, size in (("ja", "1"), ("gru-jadp", "5")):
        assert main(["train", *flags, "--archetype", archetype, "--hidden-size", size,
                     "--out", str(tmp_path / archetype)]) == 0
    ckpt = str(tmp_path / "ja" / "model.json")
    assert main(["eval", "--data", str(data), "--checkpoint", ckpt, "--out", str(tmp_path / "e")]) == 0
    assert main(["predict", "--data", str(data), "--checkpoint", ckpt, "--out", str(tmp_path / "p")]) == 0
    assert main(["sweep", *flags, "--archetype", "lstm-p", "--sizes", "2",
                 "--out", str(tmp_path / "s")]) == 0

    missing = [f"{owner}.{attr}" for owner, attr, _ in tracing.HOOKS if not calls[(owner, attr)]]
    assert not missing, f"never called at the traced lookup site: {missing}"
