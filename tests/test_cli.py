"""CLI tests: command flows, manifests, idempotence, error contracts."""
import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import hystkit.training as training
from hystkit.autodiff import Tensor
from hystkit.cli import _CONFIG_FIELDS, main
from hystkit.dataset import write_material
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
        m1 = json.loads((outs[0] / "run_manifest.json").read_text())
        m2 = json.loads((outs[1] / "run_manifest.json").read_text())
        m1.pop("timing")
        m2.pop("timing")
        assert m1 == m2

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

    @pytest.mark.parametrize("key",["norm.h_max", "norm.b_max", "norm.theta_max",
                                     "train_config.d_g",
                                     "train_config.warmup_length", "train_config.eta",
                                     "train_config.precision"])
    def test_checkpoint_section_missing_key_named(self, trained, tmp_path, capsys, key):
        header = json.loads((trained / "model.json").read_text())
        section, name = key.split(".")
        del header[section][name]
        ckpt = tmp_path / "model.json"
        ckpt.write_text(json.dumps(header))
        rc = main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert repr(key) in capsys.readouterr().err

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


def test_only_eta_is_beyond_the_cli():
    # eta stays fixed: every checkpoint records it, and it fixes how a stored
    # theta maps to the Jiles-Atherton parameters
    fields = {f.name for f in dataclasses.fields(training.TrainConfig)}
    assert fields - set(_CONFIG_FIELDS.values()) == {"eta"}


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
    def test_four_row_csv(self, sweep_out):
        with open(sweep_out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert [r["d_g"] for r in rows] == ["2", "2", "4", "4"]
        assert all(r["status"] == "ok" for r in rows)

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

    def test_failure_leaves_partial_flag(self, sweep_out, tmp_path):
        out = tmp_path / "flagged"
        rc = main(["plotdata", "--source", str(sweep_out / "sweep.csv"),
                   "--kind", "bh_loop", "--out", str(out)])
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
            outs.append(out)
        for name in ("model.bin", "train_log.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
