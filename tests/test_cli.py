"""CLI tests: command flows, manifests, idempotence, error contracts."""
import argparse
import csv
import dataclasses
import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import hystkit.cli as cli
import hystkit.training as training
from hystkit.autodiff import Tensor
from hystkit.cli import _CONFIG_FIELDS, build_parser, main
from hystkit.dataset import MeasuredSequence, NormConstants, split_dataset, write_material
from hystkit.synth import generate_ja_dataset


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    seqs = generate_ja_dataset(n_sequences=8, length=96, seed=1, material_id="synthA")
    for s in seqs:  # one stratum, so the tiny split has eval/test members
        s.f_sw_hz = 100e3
        s.temperature_c = 25.0
    write_material(root, "synthA", seqs)
    return root


TRAIN_FLAGS = ["--archetype", "gru-p", "--hidden-size", "2", "--epochs", "2",
               "--subseq-len", "32", "--batch-size", "4", "--warmup-len", "4",
               "--lr", "0.003", "--seed", "0", "--precision", "double"]


@pytest.fixture(scope="module")
def trained(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("train_out")
    rc = main(["train", "--data", str(dataset_dir), "--material", "synthA",
               "--out", str(out)] + TRAIN_FLAGS)
    assert rc == 0
    return out


class TestIngest:
    def test_empty_dir_errors(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        rc = main(["ingest", "--raw", str(raw), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "no sequences found" in capsys.readouterr().err

    def test_three_sequences_manifest(self, tmp_path, capsys):
        raw = tmp_path / "raw" / "matZ"
        raw.mkdir(parents=True)
        (raw / "B_waveform[T].csv").write_text("0.1,0.2,0.3\n0.2,0.3,0.4\n0.0,0.1,0.0\n")
        (raw / "H_waveform[Am-1].csv").write_text("1,2,3\n2,3,4\n0,1,0\n")
        (raw / "Temperature[C].csv").write_text("25\n50\n70\n")
        out = tmp_path / "out"
        rc = main(["ingest", "--raw", str(tmp_path / "raw"), "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "matZ" / "manifest.json").read_text())
        assert manifest["count"] == 3
        summary = json.loads((out / "ingest_summary.json").read_text())
        assert summary["materials"] == {"matZ": 3}
        assert (out / "run_manifest.json").exists()

    def test_unknown_layout_refused_before_staging(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        (raw / "empty").mkdir(parents=True)
        (raw / "good").mkdir()
        (raw / "good" / "B_waveform[T].csv").write_text("0.1,0.2,0.3\n0.2,0.3,0.4\n")
        (raw / "good" / "H_waveform[Am-1].csv").write_text("1,2,3\n2,3,4\n")
        (raw / "good" / "Temperature[C].csv").write_text("25\n50\n")
        out = tmp_path / "out"
        rc = main(["ingest", "--raw", str(raw), "--out", str(out)])
        assert rc == 1
        assert f"unknown raw layout under {raw / 'empty'}" in capsys.readouterr().err
        assert not out.exists()

    def test_named_adapter_layout_refused_before_staging(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        (raw / "b_empty").mkdir(parents=True)
        (raw / "a_good").mkdir()
        (raw / "a_good" / "B_waveform[T].csv").write_text("0.1,0.2,0.3\n0.2,0.3,0.4\n")
        (raw / "a_good" / "H_waveform[Am-1].csv").write_text("1,2,3\n2,3,4\n")
        (raw / "a_good" / "Temperature[C].csv").write_text("25\n50\n")
        out = tmp_path / "out"
        rc = main(["ingest", "--raw", str(raw), "--out", str(out), "--adapter", "magnetx"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: no magnetx layout under {raw / 'b_empty'}\n"
        assert not out.exists()

    def test_material_name_refused_for_several_materials(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        for name, count in (("matA", 5), ("matB", 3)):
            write_material(raw, name, generate_ja_dataset(n_sequences=count, length=16, seed=2))
        out = tmp_path / "out"
        rc = main(["ingest", "--raw", str(raw), "--out", str(out), "--material", "X"])
        assert rc == 1
        assert "matA, matB" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupt_row_named(self, tmp_path, capsys):
        raw = tmp_path / "raw" / "matBad"
        raw.mkdir(parents=True)
        rows = [f"{0.1 * k},{0.1 * k}" for k in range(20)]
        (raw / "H_waveform[Am-1].csv").write_text("\n".join("1,2" for _ in range(20)) + "\n")
        (raw / "Temperature[C].csv").write_text("\n".join("25" for _ in range(20)) + "\n")
        for bad in ("oops", "nan", "inf", "-inf"):
            rows[16] = f"0.5,{bad}"  # file row 17
            (raw / "B_waveform[T].csv").write_text("\n".join(rows) + "\n")
            rc = main(["ingest", "--raw", str(tmp_path / "raw"), "--out", str(tmp_path / "out")])
            assert rc == 1
            assert "row 17" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_corrupt_second_material_writes_nothing(self, tmp_path, capsys):
        # the first material is good; the second is read and refused before staging
        raw = tmp_path / "raw"
        for name, b_rows in (("a_good", "0.1,0.2,0.3\n0.2,0.3,0.4\n"),
                             ("b_bad", "0.1,0.2,0.3\n0.2,x,0.4\n")):
            (raw / name).mkdir(parents=True)
            (raw / name / "B_waveform[T].csv").write_text(b_rows)
            (raw / name / "H_waveform[Am-1].csv").write_text("1,2,3\n2,3,4\n")
            (raw / name / "Temperature[C].csv").write_text("25\n50\n")
        out = tmp_path / "out"
        rc = main(["ingest", "--raw", str(raw), "--out", str(out), "--adapter", "magnetx"])
        assert rc == 1
        bad_file = raw / "b_bad" / "B_waveform[T].csv"
        assert capsys.readouterr().err == f"error: {bad_file}: corrupt row 2\n"
        assert not out.exists()


class TestTrain:
    def test_outputs_and_manifest(self, trained):
        assert (trained / "model.json").exists()
        assert (trained / "model.bin").exists()
        log = (trained / "train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,loss,eval_sre"
        assert len(log) == 3  # header + 2 epochs
        manifest = json.loads((trained / "run_manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["hidden_size"] == 2
        assert set(manifest["timing"]) == {"started_utc", "wall_s"}
        assert not (trained / ".partial").exists()

    def test_physics_regularized_run_counts_ja_and_repeats(self, dataset_dir, tmp_path, capsys):
        flags = ["--archetype", "gru-p", "--hidden-size", "8", "--lambda-w", "0.1",
                 "--epochs", "1", "--subseq-len", "32", "--batch-size", "4",
                 "--warmup-len", "4", "--seed", "0"]
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            rc = main(["train", "--data", str(dataset_dir), "--material", "synthA",
                       "--out", str(out)] + flags)
            assert rc == 0
            assert "(325 params)" in capsys.readouterr().out
        header = json.loads((outs[0] / "model.json").read_text())
        assert header["param_count"] == 325
        for name in ("model.bin", "train_log.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_missing_data_root(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("HSK_DATA_DIR", raising=False)
        rc = main(["train", "--material", "synthA", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "HSK_DATA_DIR" in capsys.readouterr().err

    def test_env_var_data_root(self, dataset_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("HSK_DATA_DIR", str(dataset_dir))
        out = tmp_path / "envout"
        rc = main(["train", "--material", "synthA", "--out", str(out)] + TRAIN_FLAGS)
        assert rc == 0

    @pytest.mark.parametrize("case", ["no_full_batch", "nonfinite_loss"])
    def test_training_error_reported(self, dataset_dir, tmp_path, capsys, monkeypatch, case):
        if case == "no_full_batch":
            flags, expected = ["--batch-size", "1000"], "no full batches: 6 sequences, l=32, b=1000"
        else:
            monkeypatch.setattr(training, "batch_loss", lambda *args: Tensor(np.array(np.nan)))
            flags, expected = [], "non-finite loss at epoch 0, batch 0"
        rc = main(["train", "--data", str(dataset_dir), "--material", "synthA",
                   "--out", str(tmp_path / "o")] + TRAIN_FLAGS + flags)
        assert rc == 1
        assert f"error: {expected}" in capsys.readouterr().err

    def test_config_file_precedence(self, dataset_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "hidden_size": 4, "lr": 1}))
        out = tmp_path / "cfgout"
        rc = main(["train", "--data", str(dataset_dir), "--material", "synthA",
                   "--out", str(out), "--config", str(cfg),
                   "--hidden-size", "2", "--subseq-len", "32", "--batch-size", "4",
                   "--warmup-len", "4", "--precision", "double"])
        assert rc == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["epochs"] == 1       # from file
        assert manifest["config"]["hidden_size"] == 2  # flag overrides file
        stored = json.loads((out / "model.json").read_text())["train_config"]
        assert stored["lr"] == 1.0 and isinstance(stored["lr"], float)
        assert (stored["epochs"], stored["d_g"], stored["patience"]) == (1, 2, 20)


    def test_off_schedule_last_epoch_logged(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["train", "--data", str(dataset_dir), "--material", "synthA",
                   "--out", str(out)] + TRAIN_FLAGS + ["--epochs", "3", "--eval-every", "5"])
        assert rc == 0
        assert "best epoch 2" in capsys.readouterr().out
        log = (out / "train_log.csv").read_text().splitlines()
        assert [row.split(",")[2] != "" for row in log[1:]] == [False, False, True]

    def test_config_file_integral_number(self, dataset_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1.0, "split_seed": 3}))
        out = tmp_path / "o"
        assert main(["train", "--data", str(dataset_dir), "--material", "synthA",
                     "--out", str(out), "--config", str(cfg), "--hidden-size", "2",
                     "--subseq-len", "32", "--batch-size", "4", "--warmup-len", "4"]) == 0
        stored = json.loads((out / "model.json").read_text())["train_config"]
        assert (stored["epochs"], stored["split_seed"]) == (1, 3)
        assert isinstance(stored["epochs"], int)

    @pytest.mark.parametrize("text, message", [
        ("5", "expected a JSON object, got int"),
        ('["epochs"]', "expected a JSON object, got list"),
        ("{\"epochs\": \"abc\"}", 'epochs must be int, got "abc"'),
        ("{\"split_seed\": \"x\"}", 'split_seed must be int, got "x"'),
        ("{\"epochs\": null}", "epochs must be int, got null"),
        ("{\"epochs\": 1.7}", "epochs must be int, got 1.7"),
        ("{\"lambda_w\": true}", "lambda_w must be float, got true"),
        ("{\"archetype\": 3}", "archetype must be str, got 3"),
        ("{\"eta\": [1, 2]}", "unknown setting 'eta'"),
    ])
    def test_bad_config_file_names_file_and_key(self, dataset_dir, tmp_path, capsys,
                                                 text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "o"
        rc = main(["train", "--data", str(dataset_dir), "--material", "synthA",
                   "--out", str(out), "--config", str(cfg)] + TRAIN_FLAGS)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and message in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("lr", "inf", "lr must be finite, got inf"),
        ("lr", "nan", "lr must be finite, got nan"),
        ("clip_norm", "nan", "clip_norm must be finite, got nan"),
        ("lambda_w", "nan", "lambda_w must be finite, got nan"),
        ("patience", "-1", "patience must be >= 1"),
        ("patience", "0", "patience must be >= 1"),
    ])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_unusable_setting_refused(self, dataset_dir, tmp_path, capsys, key, value, message,
                                      via):
        flag = "--" + key.replace("_", "-")
        base = [x for pair in zip(TRAIN_FLAGS[::2], TRAIN_FLAGS[1::2]) if pair[0] != flag
                for x in pair]
        if via == "flag":
            given = [flag, value]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: int(value) if key == "patience" else float(value)}))
            given = ["--config", str(cfg)]
        out = tmp_path / "o"
        rc = main(["train", "--data", str(dataset_dir), "--material", "synthA",
                   "--out", str(out)] + base + given)
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_lr_the_precision_cannot_hold_refused_before_staging(self, dataset_dir, tmp_path,
                                                                 capsys, via):
        # in single precision Adam's lr * m_hat would cast 1e300 to inf and diverge
        base = [x for pair in zip(TRAIN_FLAGS[::2], TRAIN_FLAGS[1::2])
                if pair[0] not in ("--lr", "--precision") for x in pair]
        if via == "flag":
            given = ["--lr", "1e300"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"lr": 1e300}))
            given = ["--config", str(cfg)]
        out = tmp_path / "o"
        rc = main(["train", "--data", str(dataset_dir), "--material", "synthA",
                   "--out", str(out), "--precision", "single"] + base + given)
        assert rc == 1
        assert capsys.readouterr().err == ("error: lr 1e+300 exceeds the largest "
                                           "single-precision value 3.40282e+38\n")
        assert not out.exists()


@pytest.fixture(scope="module")
def train_only_dir(tmp_path_factory):
    """Material m: twelve 96-sample sequences whose split leaves every one in the train
    split. Material short: eighteen 96-sample and two 12-sample sequences in one stratum,
    whose split with seed 29 puts a 12-sample sequence in the eval split. Material cold:
    eight 96-sample sequences measured at 0 degrees C. Materials flat and quiet: twenty
    96-sample sequences in one stratum that no split can score, with a constant B (zero
    loop energy) or with H zero from sample 4 on. Material nullb: the same twenty
    sequences with B zero at sample 2, which a gru-l warmup cannot invert."""
    root = tmp_path_factory.mktemp("train_only")
    write_material(root, "m", generate_ja_dataset(12, 96, seed=1))
    short = generate_ja_dataset(18, 96, seed=1) + generate_ja_dataset(2, 12, seed=2)
    for s in short:
        s.f_sw_hz = 100e3
        s.temperature_c = 25.0
    write_material(root, "short", short)
    cold = generate_ja_dataset(8, 96, seed=1)
    for s in cold:
        s.temperature_c = 0.0
    write_material(root, "cold", cold)
    for material in ("flat", "quiet", "nullb"):
        seqs = generate_ja_dataset(20, 96, seed=3)
        for s in seqs:
            s.f_sw_hz = 100e3
            s.temperature_c = 25.0
            if material == "flat":
                s.b.fill(0.1)
            elif material == "quiet":
                s.h[4:] = 0.0
            else:
                s.b[2] = 0.0
        write_material(root, material, seqs)
    return root


SHORT_EVAL = ["--material", "short", "--split-seed", "29", "--subseq-len", "32",
              "--batch-size", "4", "--warmup-len", "16"]
COLD = ["--material", "cold", "--subseq-len", "32", "--batch-size", "4", "--warmup-len", "4"]
ZERO_TEMPERATURE = "train split: temperature_C is 0 in every sequence, so it cannot be normalized"
WINDOWS_16 = ["--subseq-len", "32", "--batch-size", "4", "--warmup-len", "16"]
WINDOWS_4 = ["--subseq-len", "32", "--batch-size", "4", "--warmup-len", "4"]
UNSCORED = "eval split: sequence 0 cannot be scored over samples 16..95: "


@pytest.mark.parametrize("argv, message", [
    (["train", "--archetype", "gru-v", "--hidden-size", "4"],
     "gru-v needs d_g = 2*(N+1)^2 with N >= 1, got d_g=4"),
    (["train", "--subseq-len", "17", "--warmup-len", "16"],
     "subsequence length 17 too short for warmup 16"),
    (["train", "--subseq-len", "200"], "sequence 0 shorter than subsequence length 200"),
    (["train", "--batch-size", "100", "--subseq-len", "32", "--warmup-len", "4"],
     "no full batches: 12 sequences, l=32, b=100"),
    (["sweep", "--sizes", "2", "--subseq-len", "32", "--warmup-len", "4"],
     "empty eval set: every sweep trial is scored on it"),
    (["sweep", "--sizes", "2", "--lr", "nan"], "lr must be finite, got nan"),
    (["sweep", "--sizes", "2", "--archetype", "ja", "--precision", "single"],
     "'ja'/lambda_w>0 requires double precision"),
    (["sweep", "--sizes", "2", "--archetype", "gru-p,ja", "--precision", "single"],
     "'ja'/lambda_w>0 requires double precision"),
    (["sweep", "--sizes", "2", "--subseq-len", "200"],
     "sequence 0 shorter than subsequence length 200"),
    (["sweep", "--sizes", "2", "--batch-size", "100", "--subseq-len", "32", "--warmup-len", "4"],
     "no full batches: 12 sequences, l=32, b=100"),
    (["train", "--seed", "-1", "--split-seed", "0"], "seed must be >= 0, got -1"),
    (["train", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["train", "--split-seed", "-1"], "split_seed must be >= 0, got -1"),
    (["train", "--archetype", "nope"], "unknown archetype 'nope'"),
    (["sweep", "--sizes", "2", "--archetype", "gru-p,nope"], "unknown archetype 'nope'"),
    (["sweep", "--sizes", "2", "--archetype", "gru-p,"], "unknown archetype ''"),
    (["sweep", "--sizes", "2,4,2"], "--sizes lists 2 twice"),
    (["sweep", "--sizes", "2,02"], "--sizes lists 2 twice"),
    (["sweep", "--sizes", "2", "--archetype", "gru-p,lstm-p, gru-p"],
     "--archetype lists 'gru-p' twice"),
    (["train"] + SHORT_EVAL,
     "eval split: warmup 16 needs sequences of at least 18 samples: sequence 1 has 12"),
    (["sweep", "--sizes", "2"] + SHORT_EVAL,
     "eval split: warmup 16 needs sequences of at least 18 samples: sequence 1 has 12"),
    (["train"] + COLD, ZERO_TEMPERATURE),
    (["sweep", "--sizes", "2"] + COLD, ZERO_TEMPERATURE),
    (["train", "--material", "flat"] + WINDOWS_16, UNSCORED + "zero total loop energy"),
    (["sweep", "--sizes", "2", "--material", "flat"] + WINDOWS_16,
     UNSCORED + "zero total loop energy"),
    (["train", "--material", "quiet"] + WINDOWS_16, UNSCORED + "reference H is all zero"),
    (["sweep", "--sizes", "2", "--material", "quiet"] + WINDOWS_16,
     UNSCORED + "reference H is all zero"),
    (["train", "--material", "nullb", "--archetype", "gru-l"] + WINDOWS_4,
     "eval split: sequence 0: |B~| <= 1e-06 (permeability inverse undefined) at warmup step 2"),
], ids=["gru-v-size", "window-too-short", "window-too-long", "no-full-batch", "empty-eval",
        "sweep-nan-lr", "sweep-ja-single", "sweep-listed-ja-single", "sweep-window-too-long",
        "sweep-no-full-batch", "negative-seed", "negative-seed-and-split", "negative-split-seed",
        "unknown-archetype", "sweep-unknown-archetype", "sweep-empty-archetype",
        "sweep-repeated-size", "sweep-repeated-size-spelling", "sweep-repeated-archetype",
        "eval-too-short", "sweep-eval-too-short", "zero-temperature",
        "sweep-zero-temperature", "eval-flat", "sweep-eval-flat", "eval-quiet",
        "sweep-eval-quiet", "eval-warmup-outside-domain"])
def test_unusable_run_refused_before_staging(train_only_dir, tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    rc = main(argv[:1] + ["--data", str(train_only_dir), "--material", "m", "--epochs", "1",
                          "--out", str(out)] + argv[1:])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_repeated_config_archetype_refused_before_staging(train_only_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"archetype": "gru-p,gru-p"}))
    out = tmp_path / "o"
    rc = main(["sweep", "--data", str(train_only_dir), "--material", "m", "--sizes", "2",
               "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {cfg}: archetype lists 'gru-p' twice\n"
    assert not out.exists()


def test_training_window_outside_domain_named(tmp_path, capsys):
    seqs = generate_ja_dataset(24, 259, seed=501)
    write_material(tmp_path, "m", seqs)
    out = tmp_path / "o"
    rc = main(["train", "--data", str(tmp_path), "--material", "m", "--out", str(out),
               "--archetype", "gru-m", "--subseq-len", "60", "--warmup-len", "16",
               "--batch-size", "4", "--epochs", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    found = re.fullmatch(r"error: train split: sequence (\d+), window starting at sample (\d+): "
                         r"\|H~\| >= 1 \(magnetization inverse undefined\) at warmup step (\d+)\n",
                         err)
    assert found, err
    seq, start, step = (int(v) for v in found.groups())
    train_split = split_dataset(seqs, seed=0)[0]
    h_max = max(np.max(np.abs(s.h)) for s in train_split)
    assert abs(train_split[seq].h[start + step]) / h_max >= 1.0
    assert step < 16 and start + 60 <= len(train_split[seq])


@pytest.fixture(scope="module")
def outside_domain(tmp_path_factory):
    """Material outside: eight 96-sample sequences, where sequence 0's B is 0 at sample 0
    and sequence 5's H is 1.5 H_max at sample 2; and init_params checkpoints of gru-l and
    gru-m (d_g 4, warmup 4), keyed by archetype, whose norm holds that H_max."""
    root = tmp_path_factory.mktemp("outside")
    seqs = generate_ja_dataset(8, 96, seed=1)
    norm = NormConstants(h_max=2.0 * max(np.max(np.abs(s.h)) for s in seqs),
                         b_max=max(np.max(np.abs(s.b)) for s in seqs), theta_max=70.0)
    seqs[0].b = seqs[0].b - seqs[0].b[0]
    seqs[5].h[2] = 1.5 * norm.h_max
    write_material(root / "data", "outside", seqs)
    checkpoints = {}
    for archetype in ("gru-l", "gru-m"):
        config = training.TrainConfig(archetype, d_g=4, warmup_length=4, precision="double")
        (root / archetype).mkdir()
        checkpoints[archetype], _ = training.save_checkpoint(
            root / archetype / "model",
            training.ModelCheckpoint(config, training.init_params(config), norm))
    return root / "data", checkpoints


B_ZERO = "|B~| <= 1e-06 (permeability inverse undefined) at warmup step 0"
H_ONE = "|H~| >= 1 (magnetization inverse undefined) at warmup step 2"


class TestEvalPredict:
    def test_eval_on_training_split_matches_log(self, dataset_dir, trained, tmp_path, capsys):
        out = tmp_path / "evalout"
        rc = main(["eval", "--data", str(dataset_dir), "--checkpoint",
                   str(trained / "model.json"), "--split", "eval", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        log_rows = (trained / "train_log.csv").read_text().splitlines()[1:]
        eval_curve = [float(r.split(",")[2]) for r in log_rows if r.split(",")[2]]
        # the retained checkpoint is the best-eval one
        assert report["aggregate"]["avg_sre"] == pytest.approx(min(eval_curve), rel=1e-6)

    def test_eval_writes_csv_and_json(self, dataset_dir, trained, tmp_path):
        out = tmp_path / "e2"
        assert main(["eval", "--data", str(dataset_dir), "--checkpoint",
                     str(trained / "model.json"), "--split", "test", "--out", str(out)]) == 0
        rows = (out / "report.csv").read_text().splitlines()
        assert rows[0] == "index,sre,nere,mse,mae,wce"
        assert len(rows) >= 2

    def test_predict_files_and_columns(self, dataset_dir, trained, tmp_path):
        out = tmp_path / "pred"
        rc = main(["predict", "--data", str(dataset_dir), "--checkpoint",
                   str(trained / "model.json"), "--split", "test", "--index", "0",
                   "--out", str(out)])
        assert rc == 0
        files = sorted((out / "predictions").glob("*.csv"))
        assert len(files) == 1
        rows = files[0].read_text().splitlines()
        assert rows[0] == "k,B,H_true,H_pred"
        meta = json.loads((out / "predictions_meta.json").read_text())
        entry = meta[f"predictions/{files[0].name}"]
        assert len(rows) - 1 == entry["k2"] - entry["k1"] + 1

    def test_predict_single_step_warmup(self, dataset_dir, trained, tmp_path):
        out = tmp_path / "pred1"
        rc = main(["predict", "--data", str(dataset_dir), "--checkpoint",
                   str(trained / "model.json"), "--split", "test", "--index", "0",
                   "--warmup-len", "1", "--out", str(out)])
        assert rc == 0
        meta = json.loads((out / "predictions_meta.json").read_text())
        assert next(iter(meta.values()))["k1"] == 1

    @pytest.mark.parametrize("material, reason", [
        ("flat", "zero total loop energy"), ("quiet", "reference H is all zero")])
    def test_unscorable_split_refused_before_staging(self, train_only_dir, trained, tmp_path,
                                                     capsys, material, reason):
        out = tmp_path / "e"
        rc = main(["eval", "--data", str(train_only_dir), "--material", material,
                   "--checkpoint", str(trained / "model.json"), "--split", "eval",
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: eval split: sequence 0 cannot be scored over samples 4..95: {reason}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, archetype, index, message", [
        ("eval", "gru-l", [], "sequence 0: " + B_ZERO),
        ("predict", "gru-l", [], "sequence 0: " + B_ZERO),
        ("eval", "gru-m", [], "sequence 5: " + H_ONE),
        ("predict", "gru-m", [], "sequence 5: " + H_ONE),
        ("predict", "gru-m", ["--index", "5"], "sequence 5: " + H_ONE),
    ], ids=["eval-gru-l", "predict-gru-l", "eval-gru-m", "predict-gru-m", "predict-index"])
    def test_warmup_outside_domain_refused_before_staging(self, outside_domain, tmp_path,
                                                          capsys, command, archetype, index,
                                                          message):
        # a warmup sample the head cannot invert names the split, the sequence's index
        # in it and the warmup step
        data, checkpoints = outside_domain
        out = tmp_path / "o"
        rc = main([command, "--data", str(data), "--material", "outside", "--checkpoint",
                   str(checkpoints[archetype]), "--split", "all", "--out", str(out)] + index)
        assert rc == 1
        assert capsys.readouterr().err == f"error: all split: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("warmup, message", [
        ("0", "--warmup-len must be >= 1, got 0"),
        ("-2", "--warmup-len must be >= 1, got -2"),
        ("95", "--warmup-len 95 needs sequences of at least 97 samples: sequence 0 has 96"),
    ])
    def test_unusable_warmup_len_refused(self, dataset_dir, trained, tmp_path, capsys,
                                         warmup, message):
        out = tmp_path / "pred"
        rc = main(["predict", "--data", str(dataset_dir), "--checkpoint",
                   str(trained / "model.json"), "--split", "all", "--warmup-len", warmup,
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_longest_usable_warmup_len(self, dataset_dir, trained, tmp_path):
        out = tmp_path / "pred"
        assert main(["predict", "--data", str(dataset_dir), "--checkpoint",
                     str(trained / "model.json"), "--split", "all", "--index", "3",
                     "--warmup-len", "94", "--out", str(out)]) == 0
        assert (out / "predictions/seq_00003.csv").read_text().splitlines()[1].startswith("94,")
        meta = json.loads((out / "predictions_meta.json").read_text())
        entry = meta["predictions/seq_00003.csv"]
        assert (entry["k1"], entry["k2"]) == (94, 95)

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_empty_split_errors(self, trained, tmp_path, capsys, command):
        # 9 frequency/temperature strata of 2-3 sequences each: the
        # 0.8/0.1/0.1 split leaves the test split empty
        write_material(tmp_path / "data", "sparse", generate_ja_dataset(24, 384, seed=7))
        out = tmp_path / "out"
        rc = main([command, "--data", str(tmp_path / "data"), "--material", "sparse",
                   "--checkpoint", str(trained / "model.json"), "--split", "test",
                   "--out", str(out)])
        assert rc == 1
        assert "split 'test' of sparse is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_idempotent_bytes(self, dataset_dir, trained, tmp_path):
        outs = []
        for name in ("i1", "i2"):
            out = tmp_path / name
            assert main(["eval", "--data", str(dataset_dir), "--checkpoint",
                         str(trained / "model.json"), "--split", "test",
                         "--out", str(out)]) == 0
            outs.append(out)
        assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
        assert (outs[0] / "report.csv").read_bytes() == (outs[1] / "report.csv").read_bytes()
        # the manifests differ only in their timing entry, byte for byte
        texts = [re.sub(r'"timing": \{[^}]*\}', '"timing": {}',
                        (out / "run_manifest.json").read_text()) for out in outs]
        assert texts[0] == texts[1]
        env = json.loads(texts[0])["environment"]
        assert (env["python"], env["numpy"]) == (platform.python_version(), np.__version__)
        assert isinstance(env["blas"]["name"], str) and isinstance(env["blas"]["version"], str)
        assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == os.environ.get("OPENBLAS_NUM_THREADS")

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_sequence_shorter_than_warmup_refused(self, trained, tmp_path, capsys, command):
        write_material(tmp_path / "data", "short", generate_ja_dataset(3, 5, seed=2))
        out = tmp_path / "out"
        rc = main([command, "--data", str(tmp_path / "data"), "--material", "short",
                   "--checkpoint", str(trained / "model.json"), "--split", "all",
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == ("error: checkpoint warmup 4 needs sequences of at "
                                           "least 6 samples: sequence 0 has 5\n")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["format_version", "archetype", "seed", "norm",
                                     "train_config", "layout", "blob", "blob_sha256"])
    def test_checkpoint_header_missing_key_named(self, trained, tmp_path, capsys, key):
        header = json.loads((trained / "model.json").read_text())
        del header[key]
        ckpt = tmp_path / "model.json"
        ckpt.write_text(json.dumps(header))
        rc = main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["model.json", "manifest.json", "seq_00000.json"])
    def test_truncated_json_names_file(self, dataset_dir, trained, tmp_path, capsys, name):
        data, run = tmp_path / "data", tmp_path / "run"
        shutil.copytree(dataset_dir, data)
        shutil.copytree(trained, run)
        target = run / name if name == "model.json" else data / "synthA" / name
        text = target.read_text()
        target.write_text(text[:len(text) // 2])
        rc = main(["eval", "--data", str(data), "--checkpoint", str(run / "model.json"),
                   "--split", "all", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"error: {target}: malformed JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["config", "model.json", "manifest.json"])
    def test_deeply_nested_json_names_file(self, dataset_dir, trained, tmp_path, capsys, name):
        """JSON nested past the decoder's recursion limit is refused like other malformed
        JSON, before the out dir is made."""
        data, run, out = tmp_path / "data", tmp_path / "run", tmp_path / "out"
        shutil.copytree(dataset_dir, data)
        shutil.copytree(trained, run)
        target = {"config": tmp_path / "deep.json", "model.json": run / "model.json",
                  "manifest.json": data / "synthA" / "manifest.json"}[name]
        target.write_text("[" * 100000)
        if name == "config":
            argv = ["train", "--material", "synthA", "--config", str(target)] + TRAIN_FLAGS
        else:
            argv = ["eval", "--checkpoint", str(run / "model.json"), "--split", "all"]
        rc = main(argv + ["--data", str(data), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {target}: malformed JSON: maximum recursion depth exceeded")
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("name, content, field", [
        ("manifest.json", {"material": "synthA"}, "'sequences'"),
        ("manifest.json", {"sequences": "seq_00000.csv"}, "'sequences'"),
        ("manifest.json", {"sequences": ["seq_00000.csv", 3]}, "'sequences'"),
        ("manifest.json", ["seq_00000.csv"], "JSON object"),
        ("seq_00000.json", [1, 2], "JSON object"),
    ])
    def test_wrong_json_shape_names_file(self, dataset_dir, tmp_path, capsys, name, content, field):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        target = data / "synthA" / name
        target.write_text(json.dumps(content))
        rc = main(["train", "--data", str(data), "--material", "synthA",
                   "--out", str(tmp_path / "out")] + TRAIN_FLAGS)
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {target}: " in err and field in err

    @pytest.mark.parametrize("entry", ["../other/seq_00001.csv", "ABSOLUTE", "", ".", "..",
                                       "seq_00003.csv"],
                             ids=["sibling", "absolute", "empty", "dot", "dotdot", "repeated"])
    def test_manifest_entry_outside_or_repeated_refused(self, dataset_dir, tmp_path, capsys,
                                                        entry):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        shutil.copytree(data / "synthA", data / "other")
        if entry == "ABSOLUTE":
            entry = str(data / "other" / "seq_00001.csv")
        manifest = data / "synthA" / "manifest.json"
        content = json.loads(manifest.read_text())
        content["sequences"][1] = entry
        manifest.write_text(json.dumps(content))
        out = tmp_path / "out"
        rc = main(["train", "--data", str(data), "--material", "synthA",
                   "--out", str(out)] + TRAIN_FLAGS)
        assert rc == 1
        reason = ("is listed twice" if entry == "seq_00003.csv"
                  else f"is not a file name inside {data / 'synthA'}")
        assert capsys.readouterr().err == (f"error: {manifest}: entry {entry!r} of "
                                           f"'sequences' {reason}\n")
        assert not out.exists()

    @pytest.mark.parametrize("key",["norm.h_max", "norm.b_max", "norm.theta_max",
                                     "train_config.d_g",
                                     "train_config.warmup_length", "train_config.precision"])
    def test_checkpoint_section_missing_key_named(self, trained, tmp_path, capsys, key):
        header = json.loads((trained / "model.json").read_text())
        section, name = key.split(".")
        del header[section][name]
        ckpt = tmp_path / "model.json"
        ckpt.write_text(json.dumps(header))
        rc = main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("eta", [[float("nan")] * 5, [1, 2], "abc", 3, None,
                                     [1, 2, 3, 4, -5], ["1", "2", "3", "4", "5"]])
    def test_unusable_eta_named(self, dataset_dir, trained, tmp_path, capsys, eta):
        run = tmp_path / "run"
        shutil.copytree(trained, run)
        header = json.loads((run / "model.json").read_text())
        header["train_config"]["eta"] = eta
        (run / "model.json").write_text(json.dumps(header))
        out = tmp_path / "out"
        rc = main(["eval", "--data", str(dataset_dir), "--checkpoint", str(run / "model.json"),
                   "--split", "all", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: {run / 'model.json'}: checkpoint field 'train_config.eta' ")
        assert not out.exists()

    def test_header_recording_the_caps_evaluates_as_without(self, two_length_runs, tmp_path):
        # headers written while the JA scale caps were a setting record them as
        # train_config.eta; holding the caps, such a header decodes theta the same way
        data, checkpoints = two_length_runs
        reports = []
        for caps in (None, [500000.0, 1000.0, 0.01, 1000.0, 1.0]):
            run = tmp_path / f"run{len(reports)}"
            shutil.copytree(checkpoints["ja"].parent, run)
            header = json.loads((run / "model.json").read_text())
            assert "eta" not in header["train_config"]
            if caps is not None:
                header["train_config"]["eta"] = caps
                (run / "model.json").write_text(json.dumps(header))
            out = tmp_path / f"out{len(reports)}"
            assert main(["eval", "--data", str(data), "--checkpoint", str(run / "model.json"),
                         "--split", "all", "--out", str(out)]) == 0
            reports.append([(out / name).read_bytes() for name in ("report.json", "report.csv")])
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("field, value, message", [
        ("seed", "x", "field 'seed' is not an integer: 'x'"),
        ("seed", 1.0, "field 'seed' is not an integer: 1.0"),
        ("seed", True, "field 'seed' is not an integer: True"),
        ("seed", -1, "field 'seed' is negative: -1"),
        ("archetype", 3, "field 'archetype' names no archetype: 3"),
        ("train_config.d_g", 4.7, "d_g must be int, got 4.7"),
        ("train_config.d_g", "4", 'd_g must be int, got "4"'),
        ("train_config.warmup_length", 4.9, "warmup_length must be int, got 4.9"),
        ("train_config.warmup_length", "4", 'warmup_length must be int, got "4"'),
        ("train_config.lambda_w", "0", 'lambda_w must be float, got "0"'),
        ("train_config.lambda_w", float("inf"), "lambda_w must be finite, got inf"),
        ("train_config.split_seed", "x", 'split_seed must be int, got "x"'),
        ("train_config.split_seed", -1, "split_seed must be >= 0, got -1"),
        ("train_config.material", 3, "material must be str, got 3"),
        ("train_config.lr", "x", 'lr must be float, got "x"'),
        ("train_config.epochs", "many", 'epochs must be int, got "many"'),
        ("train_config.patience", 0, "patience must be >= 1"),
    ])
    def test_unusable_number_named(self, dataset_dir, trained, tmp_path, capsys, field, value,
                                   message):
        run = tmp_path / "run"
        shutil.copytree(trained, run)
        header = json.loads((run / "model.json").read_text())
        *section, key = field.split(".")
        (header[section[0]] if section else header)[key] = value
        (run / "model.json").write_text(json.dumps(header))
        out = tmp_path / "out"
        rc = main(["eval", "--data", str(dataset_dir), "--checkpoint", str(run / "model.json"),
                   "--split", "all", "--out", str(out)])
        assert rc == 1
        if section:
            message = "field 'train_config' describes no model: " + message
        assert capsys.readouterr().err == f"error: {run / 'model.json'}: checkpoint {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_refused_at_load(self, dataset_dir, trained, tmp_path, capsys,
                                                  value):
        # the blob's hash matches: only the values say the model is unusable
        ckpt = training.load_checkpoint(trained / "model.json")
        ckpt.params["w_z"][0, 0] = value
        json_path, _ = training.save_checkpoint(tmp_path / "model", ckpt)
        out = tmp_path / "out"
        rc = main(["eval", "--data", str(dataset_dir), "--checkpoint", str(json_path),
                   "--split", "all", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {json_path}: checkpoint layout entry 'w_z' holds a non-finite value\n")
        assert not out.exists()

    def test_gru_v_size_refused_at_load(self, dataset_dir, trained, tmp_path, capsys):
        # a header whose archetype cannot read its hidden size describes no model
        run = tmp_path / "run"
        shutil.copytree(trained, run)
        header = json.loads((run / "model.json").read_text())
        header["archetype"] = "gru-v"
        header["train_config"]["d_g"] = 12
        (run / "model.json").write_text(json.dumps(header))
        out = tmp_path / "out"
        rc = main(["eval", "--data", str(dataset_dir), "--checkpoint", str(run / "model.json"),
                   "--split", "all", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {run / 'model.json'}: checkpoint field 'train_config' describes no model: "
            "gru-v needs d_g = 2*(N+1)^2 with N >= 1, got d_g=12\n")
        assert not out.exists()

    def test_unallocatable_size_refused_at_load(self, dataset_dir, trained, tmp_path, capsys):
        # the layout is checked against shapes alone: a model of this size is never drawn
        run = tmp_path / "run"
        shutil.copytree(trained, run)
        header = json.loads((run / "model.json").read_text())
        header["train_config"]["d_g"] = 10 ** 6
        (run / "model.json").write_text(json.dumps(header))
        out = tmp_path / "out"
        rc = main(["eval", "--data", str(dataset_dir), "--checkpoint", str(run / "model.json"),
                   "--split", "all", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run / 'model.json'}: checkpoint layout entry ")
        assert "'name': 'b'" in err and "train_config expects shape [1000000]," in err
        assert not out.exists()

    def test_integral_number_header_evaluates_as_int(self, dataset_dir, trained, tmp_path):
        # an integral number stands for an int, as it does in a --config file
        reports = []
        for numbers in ({}, {"d_g": 2.0, "warmup_length": 4.0}):
            run = tmp_path / f"run{len(reports)}"
            shutil.copytree(trained, run)
            header = json.loads((run / "model.json").read_text())
            tc = header["train_config"]
            assert (tc["d_g"], tc["warmup_length"]) == (2, 4)
            tc.update(numbers)
            (run / "model.json").write_text(json.dumps(header))
            out = tmp_path / f"out{len(reports)}"
            assert main(["eval", "--data", str(dataset_dir), "--checkpoint",
                         str(run / "model.json"), "--split", "all", "--out", str(out)]) == 0
            reports.append([(out / name).read_bytes() for name in ("report.json", "report.csv")])
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("blob", [3, None, "", ".", "..", "missing.bin", "../model.bin",
                                      "sub/model.bin", "absolute"])
    def test_blob_outside_checkpoint_dir_refused(self, dataset_dir, trained, tmp_path, capsys,
                                                 blob):
        run = tmp_path / "run"
        shutil.copytree(trained, run)
        for where in (tmp_path, run / "sub"):  # the right bytes, in the wrong place
            where.mkdir(exist_ok=True)
            shutil.copy(trained / "model.bin", where / "model.bin")
        if blob == "absolute":
            blob = str(tmp_path / "model.bin")
        header = json.loads((run / "model.json").read_text())
        header["blob"] = blob
        (run / "model.json").write_text(json.dumps(header))
        out = tmp_path / "out"
        rc = main(["eval", "--data", str(dataset_dir), "--checkpoint", str(run / "model.json"),
                   "--split", "all", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: {run / 'model.json'}: checkpoint field "
                                           f"'blob' names no file beside it: {blob!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("mutate, field", [
        (lambda h: h["layout"][0].pop("offset"), "layout entry"),
        (lambda h: h.update(layout=[e for e in h["layout"] if e["name"] != "b"]), "'layout'"),
        (lambda h: h.update(layout={e["name"]: e for e in h["layout"]}), "'layout'"),
        (lambda h: h["norm"].update(h_max="abc"), "'norm.h_max'"),
        (lambda h: h["layout"][-1].update(offset=h["blob_bytes"] - 8), "layout entry"),
        (lambda h: h["layout"][0].update(shape=[64]), "layout entry"),
        (lambda h: h["train_config"].update(d_g=3), "layout entry"),
        (lambda h: h["train_config"].update(d_g="abc"), "'train_config'"),
    ], ids=["no-offset", "no-b", "not-a-list", "h_max-text", "offset-past-blob",
            "shape-past-blob", "d_g-vs-layout", "d_g-text"])
    def test_malformed_checkpoint_layout_named(self, trained, tmp_path, capsys, mutate, field):
        run = tmp_path / "run"
        shutil.copytree(trained, run)
        header = json.loads((run / "model.json").read_text())
        mutate(header)
        (run / "model.json").write_text(json.dumps(header))
        rc = main(["eval", "--checkpoint", str(run / "model.json"), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {run / 'model.json'}: checkpoint " in err and field in err


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_every_config_field_has_a_flag(command):
    # _resolve_config reads each key from the parsed flags; a key with no flag
    # would only ever take its default or config-file value
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(_CONFIG_FIELDS) <= {a.dest for a in sub.choices[command]._actions}


def test_every_train_config_field_is_a_setting():
    # every field is reachable from the flags and from --config
    fields = {f.name for f in dataclasses.fields(training.TrainConfig)}
    assert fields == set(_CONFIG_FIELDS.values())


@pytest.fixture(scope="module")
def sweep_out(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    rc = main(["sweep", "--data", str(dataset_dir), "--material", "synthA",
               "--sizes", "2,4", "--seeds", "2", "--out", str(out),
               "--archetype", "gru-p", "--epochs", "1", "--subseq-len", "32",
               "--batch-size", "4", "--warmup-len", "4", "--precision", "double"])
    assert rc == 0
    return out


class TestSweepPlotdata:
    @pytest.mark.parametrize("flag, value, bad", [
        ("--seeds", "0", "0"), ("--seeds", "x", "x"), ("--sizes", "4,x", "x"),
        ("--sizes", "0", "0"), ("--sizes", "4,-8", "-8"), ("--sizes", "4,", ""),
        ("--workers", "0", "0"), ("--workers", "-3", "-3"),
    ])
    def test_bad_grid_flag_named(self, dataset_dir, tmp_path, capsys, flag, value, bad):
        grid = {"--sizes": "2", "--seeds": "1", "--workers": "1", flag: value}
        out = tmp_path / "sweep"
        rc = main(["sweep", "--data", str(dataset_dir), "--material", "synthA",
                   "--out", str(out), *(x for pair in grid.items() for x in pair)] + TRAIN_FLAGS)
        assert rc == 1
        assert f"error: {flag} takes positive integers, got {bad!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_four_row_csv(self, sweep_out):
        with open(sweep_out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert [r["d_g"] for r in rows] == ["2", "2", "4", "4"]
        assert all(r["status"] == "ok" for r in rows)

    def test_trial_seeds_start_at_seed(self, dataset_dir, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--data", str(dataset_dir), "--material", "synthA",
                     "--sizes", "2", "--out", str(out), *TRAIN_FLAGS, "--epochs", "1",
                     "--seed", "3", "--seeds", "2", "--split-seed", "0"]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            assert [r["seed"] for r in csv.DictReader(fh)] == ["3", "4"]

    def test_pareto_plotdata_matches_recomputation(self, sweep_out, tmp_path):
        out = tmp_path / "plot"
        rc = main(["plotdata", "--source", str(sweep_out / "sweep.csv"),
                   "--kind", "pareto", "--out", str(out)])
        assert rc == 0
        with open(sweep_out / "sweep.csv", newline="") as fh:
            trials = list(csv.DictReader(fh))
        with open(out / "pareto_gru-p.csv", newline="") as fh:
            med = list(csv.DictReader(fh))
        for row in med:
            vals = [float(t["sre"]) for t in trials if t["params"] == row["params"]]
            assert float(row["median_sre"]) == pytest.approx(np.median(vals), rel=1e-8)

    def test_bh_loop_and_timeseries(self, dataset_dir, trained, tmp_path):
        pred_out = tmp_path / "p"
        main(["predict", "--data", str(dataset_dir), "--checkpoint",
              str(trained / "model.json"), "--split", "test", "--index", "0",
              "--out", str(pred_out)])
        source = next((pred_out / "predictions").glob("*.csv"))
        loop_out = tmp_path / "loop"
        assert main(["plotdata", "--source", str(source), "--kind", "bh_loop",
                     "--out", str(loop_out)]) == 0
        loop_rows = (loop_out / "bh_loop.csv").read_text().splitlines()
        assert loop_rows[0] == "B,H_true,H_pred"
        assert len(loop_rows) == len(source.read_text().splitlines())

        ts_out = tmp_path / "ts"
        assert main(["plotdata", "--source", str(source), "--kind", "timeseries",
                     "--out", str(ts_out)]) == 0
        with open(ts_out / "timeseries.csv", newline="") as fh:
            ts_rows = list(csv.DictReader(fh))
        with open(source, newline="") as fh:
            src_rows = list(csv.DictReader(fh))
        tau = 62.5e-9
        assert float(ts_rows[0]["t_us"]) == pytest.approx(int(src_rows[0]["k"]) * tau * 1e6, rel=1e-8)

    def test_kind_mismatch(self, sweep_out, tmp_path, capsys):
        rc = main(["plotdata", "--source", str(sweep_out / "sweep.csv"),
                   "--kind", "bh_loop", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "kind mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("row,message", [
        (b"\xff\xfe,4\r\n", "unreadable CSV"),
        (b"gru-p,8,112,0,abc,0.1,ok\r\n", "row 2: sre is not a number: 'abc'"),
        (b"gru-p,8\r\n", "row 2 has 2 fields, the header has 7"),
    ])
    def test_bad_sweep_csv_names_file(self, tmp_path, capsys, row, message):
        source = tmp_path / "sweep.csv"
        source.write_bytes(b"archetype,d_g,params,seed,sre,nere,status\r\n" + row)
        rc = main(["plotdata", "--source", str(source), "--kind", "pareto",
                   "--out", str(tmp_path / "plot")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {source}: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("meta,message", [
        ({}, "no positive tau_s for 'predictions/seq_00000.csv'"),
        ([], "expected a JSON object, got list"),
    ])
    def test_bad_predictions_meta_names_file(self, dataset_dir, trained, tmp_path, capsys,
                                             meta, message):
        pred_out = tmp_path / "p"
        assert main(["predict", "--data", str(dataset_dir), "--checkpoint",
                     str(trained / "model.json"), "--split", "test", "--index", "0",
                     "--out", str(pred_out)]) == 0
        meta_path = pred_out / "predictions_meta.json"
        meta_path.write_text(json.dumps(meta))
        rc = main(["plotdata", "--source", str(pred_out / "predictions" / "seq_00000.csv"),
                   "--kind", "timeseries", "--out", str(tmp_path / "ts")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {meta_path}: ") and message in err

    @pytest.mark.parametrize("kind, text, message", [
        ("pareto", b"a,b\r\n1,2\r\n", "is not a sweep CSV (kind mismatch)"),
        ("pareto", b"archetype,d_g,params,seed,sre,nere,status\r\ngru-p,8,x,0,0.1,0.1,ok\r\n",
         "row 2: params is not a number: 'x'"),
        ("timeseries", b"k,B,H_true,H_pred\r\n4,0.1,1.0,1.0\r\n",
         "predictions_meta.json (needed for the time axis)"),
    ], ids=["kind-mismatch", "bad-number", "no-meta"])
    def test_unusable_source_refused_before_staging(self, tmp_path, capsys, kind, text,
                                                    message):
        source = tmp_path / "predictions" / "seq_00000.csv"
        source.parent.mkdir()
        source.write_bytes(text)
        out = tmp_path / "plot"
        rc = main(["plotdata", "--source", str(source), "--kind", kind, "--out", str(out)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_failure_leaves_partial_flag(self, sweep_out, tmp_path, monkeypatch):
        def failing_write(*args):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_rows", failing_write)
        out = tmp_path / "flagged"
        rc = main(["plotdata", "--source", str(sweep_out / "sweep.csv"),
                   "--kind", "pareto", "--out", str(out)])
        assert rc == 1
        assert (out / ".partial").exists()


class TestEntryPoint:
    def test_version_via_subprocess(self):
        proc = subprocess.run([sys.executable, "-m", "hystkit.cli", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "hystkit" in proc.stdout

    def test_train_bytes_independent_of_blas_threads(self, dataset_dir, tmp_path):
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "hystkit.cli", "train", "--data", str(dataset_dir),
                 "--material", "synthA", "--out", str(out), "--archetype", "gru-jadp",
                 "--hidden-size", "5", "--epochs", "2", "--subseq-len", "32",
                 "--batch-size", "4", "--warmup-len", "4", "--seed", "0"],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads), capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            env = json.loads((out / "run_manifest.json").read_text())["environment"]
            assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == threads
            outs.append(out)
        for name in ("model.bin", "train_log.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tree_sha(root) -> tuple[int, str]:
    """The file count under ``root`` and one sha256 over (file, sha256) of every file but
    the run manifest."""
    files = {p.relative_to(root).as_posix(): _sha(p) for p in sorted(root.rglob("*"))
             if p.is_file() and p.name != "run_manifest.json"}
    return len(files), hashlib.sha256(json.dumps(files).encode()).hexdigest()


class TestArtifactBytesPinned:
    # recorded before train kept the record of the epochs it evaluated and the
    # sweep read its trial scores from that record; every run below ends on the
    # eval schedule, so the bytes must not move
    @pytest.mark.parametrize("eval_every, log_sha, bin_sha, json_sha", [
        ("1", "339ed3ceebcbe65a03caa1cf5e3470044039226d6a635ede11eeeee0185a0e57",
         "761072a3fde0c68da165d01b53c81c6b829b408e206dd23aefea0615bcbc7ec9",
         "0bd5d26f846f5f2075919c244f25664e500ec71c45865c6c05c129189c0fcb31"),
        ("2", "3fc1130b6d3e2b71dd59fa824c187e94f431d265b8d8c461713c9c65ee8e1aea",
         "8b1fb15bca934b878ad8dd78345251cf413f1e035bef9539cca4d38aa617ac64",
         "2da2ce54f25b4988e6fa3123073778492372b434a496088c81b442496e6a3b86"),
    ])
    def test_patience_stopped_train(self, dataset_dir, tmp_path, eval_every, log_sha, bin_sha,
                                    json_sha):
        out = tmp_path / "run"
        rc = main(["train", "--data", str(dataset_dir), "--material", "synthA",
                   "--out", str(out), "--archetype", "gru-p", "--hidden-size", "2",
                   "--subseq-len", "32", "--batch-size", "4", "--warmup-len", "4",
                   "--seed", "0", "--precision", "double", "--epochs", "10", "--lr", "0.1",
                   "--patience", "1", "--eval-every", eval_every])
        assert rc == 0
        assert len((out / "train_log.csv").read_text().splitlines()) == 1 + 6  # patience stop
        assert _sha(out / "train_log.csv") == log_sha
        assert _sha(out / "model.bin") == bin_sha
        assert _sha(out / "model.json") == json_sha

    # recorded before the JA parameter map moved inside the Euler step's node:
    # gru-jadp, and gru-p through the physics regularizer
    @pytest.mark.parametrize("flags, log_sha, bin_sha, json_sha", [
        (["--archetype", "gru-jadp", "--hidden-size", "5"],
         "8a5ffbc2ec1d433fd4e8cc9710aec804751943530a20be23c4d857f3d9afa641",
         "4ae326bf05630a138bc7e4431b9471e59b7ccf7338546e6524f15fe18ae5b3c0",
         "bcb2503d7b805b6c8b62db012a79275ce87180218090944fdf7e15091c6343ca"),
        (["--archetype", "gru-p", "--hidden-size", "2", "--lambda-w", "0.1",
          "--precision", "double"],
         "365c521ebb8577362bf3827d485763aa9d2d5b11720b36d3942530eba1ead702",
         "243f0aff380fa866d4f747679ebdbd4554c944f2c60730aed67d2d7be90d4483",
         "2504cde36a370ab3fd8a5e663d23d0bb317414fe7fb83823a10b389ccb2c0dc5"),
    ])
    def test_ja_family_train(self, dataset_dir, tmp_path, flags, log_sha, bin_sha, json_sha):
        out = tmp_path / "run"
        rc = main(["train", "--data", str(dataset_dir), "--material", "synthA",
                   "--out", str(out), *flags, "--subseq-len", "32", "--batch-size", "4",
                   "--warmup-len", "4", "--seed", "0", "--epochs", "2", "--lr", "0.01"])
        assert rc == 0
        assert (_sha(out / "train_log.csv"), _sha(out / "model.bin"),
                _sha(out / "model.json")) == (log_sha, bin_sha, json_sha)

    def test_sweep_with_failed_trials(self, dataset_dir, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--data", str(dataset_dir), "--material", "synthA",
                   "--archetype", "gru-p,gru-v", "--sizes", "4,8", "--seeds", "1",
                   "--out", str(out), "--epochs", "2", "--subseq-len", "32",
                   "--batch-size", "4", "--warmup-len", "4", "--precision", "double"])
        assert rc == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = {(r["archetype"], r["d_g"]): r for r in csv.DictReader(fh)}
        assert (rows["gru-v", "4"]["status"], rows["gru-v", "4"]["params"]) == (
            "failed:HeadError", "112")
        assert rows["gru-v", "8"]["status"] == "ok"
        # re-pinned when an unknown archetype became a refusal: the earlier run's file,
        # which also listed `nope`, less its two `nope` rows
        assert _sha(out / "sweep.csv") == (
            "23afd2197a1f064aefd812cc8c737ff9962bf43b365470e37acaa05b9bec2f81")
        assert _sha(out / "sweep_medians.csv") == (
            "54a6680aa9f576d2db6bc363404c382fbd190ad2a867e6db7a7c850eeaf0ae2f")

    # recorded before prediction lost its per-sequence index quadruple: one
    # sha256 over (file, sha256) of every eval/predict output but the manifest
    @pytest.mark.parametrize("archetype, command, flags, n_files, sha", [
        ("gru-p", "eval", ["--split", "all"], 2,
         "8bb521eda7a4222545edbc1b8d9edd7cc647bfde10b2bc951e1f679671a8d949"),
        ("gru-p", "predict", ["--split", "all"], 11,
         "0b1272207afb3ca068a1bb49caf20006be33404cdac51ad2ed331715b81cdb35"),
        ("gru-p", "predict", ["--split", "all", "--index", "7", "--warmup-len", "1"], 2,
         "7ad2087fa176de91432c4587153dbdb1b521061f0d4e7cc41931ad2166d852a7"),
        ("ja", "eval", ["--split", "all"], 2,
         "8f28b50d059a521d0e4338f8938852cb6cd21174afe48b5c52dc20fb034da83b"),
        ("ja", "predict", ["--split", "all"], 11,
         "fe5ae4947903f99d20589e518f910c94a03730b6e0da4ce251a237360a91994c"),
        ("ja", "predict", ["--split", "all", "--index", "7", "--warmup-len", "1"], 2,
         "4e32ddc08a985af6a78f048c55ce916d194c3e2061c1c8bcb2992371eda641be"),
    ])
    def test_eval_and_predict(self, two_length_runs, tmp_path, archetype, command, flags,
                              n_files, sha):
        data, checkpoints = two_length_runs
        out = tmp_path / "out"
        assert main([command, "--data", str(data), "--checkpoint", str(checkpoints[archetype]),
                     "--out", str(out), *flags]) == 0
        files = {p.relative_to(out).as_posix(): _sha(p) for p in sorted(out.rglob("*"))
                 if p.is_file() and p.name != "run_manifest.json"}
        assert len(files) == n_files
        assert hashlib.sha256(json.dumps(files).encode()).hexdigest() == sha

    # recorded before sequence and prediction tables were formatted and parsed whole;
    # the last sequence holds signed zero, the smallest subnormal, +-max and a value
    # whose 9-digit text rounds
    def test_write_material(self, tmp_path):
        edges = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 123456789.5]
        seqs = generate_ja_dataset(4, 64, seed=3) + [
            MeasuredSequence(b=edges, h=edges[::-1], temperature_c=-40.0, f_sw_hz=5e4)]
        write_material(tmp_path, "synthC", seqs)
        assert _tree_sha(tmp_path) == (
            11, "696f145b15b00cdadb52c084c956fdf06a79343ec0b6f2756b9568a3fb32ebf2")

    def test_ingest_magnetx(self, tmp_path):
        raw = tmp_path / "raw" / "synthX"
        raw.mkdir(parents=True)
        seqs = generate_ja_dataset(5, 64, seed=4)
        for name, matrix in {"B_waveform[T].csv": [s.b for s in seqs],
                             "H_waveform[Am-1].csv": [s.h for s in seqs],
                             "Temperature[C].csv": [[s.temperature_c] for s in seqs],
                             "Frequency[Hz].csv": [[s.f_sw_hz] for s in seqs],
                             "Sampling_Time[s].csv": [[s.tau_s] for s in seqs]}.items():
            np.savetxt(raw / name, np.array(matrix), delimiter=",", fmt="%.9g")
        out = tmp_path / "data"
        assert main(["ingest", "--raw", str(tmp_path / "raw"), "--out", str(out),
                     "--adapter", "magnetx"]) == 0
        assert _tree_sha(out) == (
            12, "1ba709956e417fde3d735034b3e4cbecdce2ca87f489fd732163a973fd7705a9")


@pytest.fixture(scope="module")
def two_length_runs(tmp_path_factory):
    """A material of six 96-sample and four 64-sample sequences, and the checkpoints of
    a single-precision gru-p and a double-precision ja trained on it."""
    root = tmp_path_factory.mktemp("two_lengths")
    seqs = generate_ja_dataset(6, 96, seed=11) + generate_ja_dataset(4, 64, seed=12)
    for s in seqs:
        s.f_sw_hz = 100e3
        s.temperature_c = 25.0
    write_material(root / "data", "synthB", seqs)
    checkpoints = {}
    for archetype, size, precision in (("gru-p", "2", "single"), ("ja", "1", "double")):
        out = root / archetype
        assert main(["train", "--data", str(root / "data"), "--material", "synthB",
                     "--out", str(out), "--archetype", archetype, "--hidden-size", size,
                     "--precision", precision, "--epochs", "2", "--subseq-len", "32",
                     "--batch-size", "4", "--warmup-len", "4", "--lr", "0.01",
                     "--seed", "0"]) == 0
        checkpoints[archetype] = out / "model.json"
    return root / "data", checkpoints
