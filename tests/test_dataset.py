"""Data pipeline tests: normalization, features, batching, splits, file I/O."""
import contextlib
import csv
import io
import json
import os
import re
import shutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hystkit.dataset as dataset
from conftest import csv_module_table
from hystkit.dataset import (
    DataError,
    MeasuredSequence,
    NormConstants,
    compute_norm_constants,
    detect_adapter,
    feature_rows,
    featurize,
    fmt,
    ingest_material,
    list_materials,
    load_material,
    make_minibatches,
    read_raw_material,
    read_sequence,
    resolve_adapter,
    reversed_minibatches,
    split_dataset,
    write_columns,
    write_material,
    write_sequence,
    _matrix_rows,
    _read_csv_matrix,
    _sequence_columns,
    _sequence_rows,
)
from hystkit.cli import build_parser, main
from hystkit.metrics import MetricReport
from hystkit.training import ModelCheckpoint, TrainConfig, save_checkpoint, write_sweep_csv


def seq_of(b, h, theta=25.0, f_sw=None, tau=62.5e-9):
    return MeasuredSequence(b=np.asarray(b, float), h=np.asarray(h, float),
                            temperature_c=theta, tau_s=tau, f_sw_hz=f_sw)


def ramp_sequence(n=64, theta=25.0, f_sw=1e5, seed=0):
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 4 * np.pi, n)
    b = 0.2 * np.sin(t) + 0.01 * rng.standard_normal(n)
    h = 50 * np.sin(t - 0.3) + rng.standard_normal(n)
    return seq_of(b, h, theta, f_sw)


class TestNormConstants:
    def test_max_abs(self):
        norm = compute_norm_constants([seq_of([0.1, -0.2], [-500.0, 250.0])])
        assert norm.h_max == 500.0
        assert (-500.0) / norm.h_max == -1.0

    def test_value_at_max_is_one(self):
        norm = compute_norm_constants([seq_of([0.3, 0.1], [10.0, 20.0])])
        assert 0.3 / norm.b_max == 1.0

    def test_theta_max(self):
        seqs = [seq_of([0.1, 0.2], [1.0, 2.0], theta=t) for t in (25.0, 50.0, 70.0)]
        norm = compute_norm_constants(seqs)
        assert norm.theta_max == 70.0
        assert 25.0 / norm.theta_max == pytest.approx(0.3571, abs=5e-5)

    def test_all_zero_signal(self):
        with pytest.raises(DataError):
            compute_norm_constants([seq_of([0.0, 0.0], [1.0, 2.0])])

    def test_empty(self):
        with pytest.raises(DataError):
            compute_norm_constants([])

    @given(st.lists(st.floats(-1e3, 1e3, allow_subnormal=False), min_size=2, max_size=32),
           st.floats(0.01, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_normalize_denormalize_roundtrip(self, h_vals, b_peak):
        h = np.asarray(h_vals)
        if np.max(np.abs(h)) == 0:
            h[0] = 1.0
        norm = compute_norm_constants([seq_of(np.linspace(-b_peak, b_peak, len(h)), h)])
        np.testing.assert_allclose(h / norm.h_max * norm.h_max, h, rtol=1e-12)


class TestFeaturize:
    def norm(self):
        return NormConstants(h_max=100.0, b_max=1.0, theta_max=70.0)

    def test_constant_b_zero_differences(self):
        seq = seq_of(np.full(10, 0.4), np.zeros(10), theta=35.0)
        fm = featurize(seq, self.norm())
        np.testing.assert_array_equal(fm[:, 1], np.zeros(10))
        np.testing.assert_array_equal(fm[:, 2], np.zeros(10))

    def test_linear_ramp(self):
        seq = seq_of([0.0, 0.1, 0.2], np.zeros(3), theta=35.0)
        fm = featurize(seq, self.norm())
        np.testing.assert_allclose(fm[:, 1], [0.1, 0.1, 0.1], atol=1e-15)
        np.testing.assert_allclose(fm[:, 2], np.zeros(3), atol=1e-15)

    def test_theta_row_all_ones_at_max(self):
        seq = seq_of(np.linspace(0, 0.1, 8), np.zeros(8), theta=70.0)
        fm = featurize(seq, self.norm())
        np.testing.assert_array_equal(fm[:, 3], np.ones(8))

    def test_boundary_replicates_first_interior(self):
        b = np.array([0.0, 0.3, 0.35, 0.5])
        fm = feature_rows(b[None, :], [0.5])[0].T
        assert fm[1][0] == fm[1][1] == pytest.approx(0.3)
        assert fm[2][0] == fm[2][1]

    def test_too_short(self):
        with pytest.raises(DataError):
            feature_rows(np.zeros((1, 2)), [0.5])

    def test_translation_consistency(self):
        seq = ramp_sequence(64)
        norm = compute_norm_constants([seq])
        theta = [seq.temperature_c / norm.theta_max]
        a = feature_rows(seq.b[None, 4:41] / norm.b_max, theta)[0]
        b = feature_rows(seq.b[None, 5:42] / norm.b_max, theta)[0]
        # interior rows shift by one window sample
        np.testing.assert_allclose(a[3:, 1], b[2:-1, 1], atol=1e-15)
        np.testing.assert_allclose(a[3:, 2], b[2:-1, 2], atol=1e-15)


class TestMiniBatches:
    def setup_method(self):
        self.seqs = [ramp_sequence(n=64, seed=i) for i in range(4)]
        self.norm = compute_norm_constants(self.seqs)

    def test_length_2l_gives_two_subsequences(self):
        seqs = [ramp_sequence(n=64)]
        batches = make_minibatches(seqs, 32, 1, 0, 4, self.norm)
        assert len(batches) == 2

    def test_seed_determinism(self):
        b1 = make_minibatches(self.seqs, 16, 2, 123, 4, self.norm)
        b2 = make_minibatches(self.seqs, 16, 2, 123, 4, self.norm)
        assert len(b1) == len(b2)
        for x, y in zip(b1, b2):
            np.testing.assert_array_equal(x.sources, y.sources)
            assert x.b_norm.tobytes() == y.b_norm.tobytes()

    def test_drop_last_partial_batch(self):
        # 4 sequences of 64 at l=36 -> 1 subsequence each = 4 rows; b=3 -> 1 batch
        batches = make_minibatches(self.seqs, 36, 3, 0, 4, self.norm)
        assert len(batches) == 1
        # 7 rows, b=2 -> 3 batches
        seqs = [ramp_sequence(n=64, seed=9)] * 3 + [ramp_sequence(n=40, seed=10)]
        counts = sum(len(s) // 32 for s in seqs)
        assert counts == 7
        batches = make_minibatches(seqs, 32, 2, 0, 4, self.norm)
        assert len(batches) == 3

    def test_sequence_too_short(self):
        with pytest.raises(DataError):
            make_minibatches([ramp_sequence(n=8)], 16, 1, 0, 4, self.norm)

    def test_rms_matches_independent_computation(self):
        batches = make_minibatches(self.seqs, 16, 2, 7, 4, self.norm)
        for batch in batches:
            for row in range(len(batch.sources)):
                si = batch.sources[row, 0]
                h = self.seqs[si].h
                expect = np.sqrt(np.sum(h ** 2) / len(h))
                assert batch.h_rms[row] == pytest.approx(expect, rel=1e-12)

    def test_row_content_matches_source(self):
        batches = make_minibatches(self.seqs, 16, 2, 7, 4, self.norm)
        batch = batches[0]
        si, off = batch.sources[0]
        np.testing.assert_array_equal(batch.b_raw[0], self.seqs[si].b[off:off + 16])
        np.testing.assert_allclose(batch.h_norm[0] * self.norm.h_max,
                                   self.seqs[si].h[off:off + 16], rtol=1e-12)

    def test_epochs_differ(self):
        b1 = make_minibatches(self.seqs, 16, 2, [0, 1, 0], 4, self.norm)
        b2 = make_minibatches(self.seqs, 16, 2, [0, 1, 1], 4, self.norm)
        assert any(not np.array_equal(x.sources, y.sources) for x, y in zip(b1, b2))

    def test_reversed_direction(self):
        batches = reversed_minibatches(self.seqs, 16, 2, 7, 4, self.norm)
        batch = batches[0]
        assert batch.x.shape[2] == 1
        si, off = batch.sources[0]
        np.testing.assert_array_equal(batch.b_raw[0], self.seqs[si].h[off:off + 16])
        np.testing.assert_array_equal(batch.h_raw[0], self.seqs[si].b[off:off + 16])
        b = self.seqs[si].b
        assert batch.h_rms[0] == pytest.approx(np.sqrt(np.mean(b ** 2)), rel=1e-12)


class TestSplit:
    def test_sizes_8_1_1(self):
        seqs = [ramp_sequence(seed=i) for i in range(10)]
        train, ev, test = split_dataset(seqs, seed=0)
        assert (len(train), len(ev), len(test)) == (8, 1, 1)

    def test_same_seed_same_split(self):
        seqs = [ramp_sequence(seed=i) for i in range(10)]
        a = split_dataset(seqs, seed=5)
        b = split_dataset(seqs, seed=5)
        for x, y in zip(a, b):
            assert [id(s) for s in x] == [id(s) for s in y]

    def test_partition_disjoint_exhaustive(self):
        seqs = [ramp_sequence(seed=i, f_sw=f, theta=t)
                for i, (f, t) in enumerate((f, t) for f in (5e4, 1e5) for t in (25.0, 50.0))
                for _ in range(3)]
        parts = split_dataset(seqs, seed=1)
        ids = [id(s) for part in parts for s in part]
        assert len(ids) == len(seqs)
        assert set(ids) == {id(s) for s in seqs}

    def test_every_stratum_reaches_train(self):
        seqs = []
        for f in (5e4, 1e5, 2e5):
            for t in (25.0, 50.0, 70.0):
                seqs.append(ramp_sequence(seed=len(seqs), f_sw=f, theta=t))
        train, _, _ = split_dataset(seqs, seed=3)
        train_strata = {(s.f_sw_hz, s.temperature_c) for s in train}
        assert train_strata == {(s.f_sw_hz, s.temperature_c) for s in seqs}

    def test_empty(self):
        with pytest.raises(DataError):
            split_dataset([])


class TestSequenceIO:
    def test_roundtrip(self, tmp_path):
        seq = ramp_sequence(n=32, theta=50.0, f_sw=2e5)
        seq.material_id = "mat-x"
        write_sequence(tmp_path / "seq_00000.csv", seq)
        back = read_sequence(tmp_path / "seq_00000.csv")
        np.testing.assert_allclose(back.b, seq.b, rtol=1e-8)  # 9 significant digits
        np.testing.assert_allclose(back.h, seq.h, rtol=1e-8)
        assert back.temperature_c == 50.0
        assert back.f_sw_hz == 2e5
        assert back.material_id == "mat-x"

    def test_corrupt_row_names_row(self, tmp_path):
        seq = ramp_sequence(n=20)
        write_sequence(tmp_path / "s.csv", seq)
        lines = (tmp_path / "s.csv").read_text().splitlines()
        for bad in ("16,not-a-number,3.0", "16,nan,3.0", "16,0.1,inf", "16,-inf,3.0"):
            lines[17] = bad
            (tmp_path / "s.csv").write_text("\n".join(lines) + "\n")
            with pytest.raises(DataError, match=r"s\.csv: .*row 18"):
                read_sequence(tmp_path / "s.csv")

    @pytest.mark.parametrize("field,value", [("temperature_C", float("nan")),
                                             ("temperature_C", float("inf")),
                                             ("tau_s", float("inf")), ("tau_s", float("nan"))])
    def test_nonfinite_sidecar_field_named(self, tmp_path, field, value):
        write_sequence(tmp_path / "s.csv", ramp_sequence(n=20))
        sidecar = tmp_path / "s.json"
        meta = json.loads(sidecar.read_text())
        meta[field] = value
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(DataError, match=rf"s\.json: non-finite {field}"):
            read_sequence(tmp_path / "s.csv")

    @pytest.mark.parametrize("value, message", [(0, "non-positive tau_s: 0"),
                                                (0.0, "non-positive tau_s: 0.0"),
                                                (False, "tau_s is not a number: False"),
                                                (-1e-9, "non-positive tau_s: -1e-09"),
                                                ("", "tau_s is not a number: ''")])
    def test_unusable_sidecar_tau_named(self, tmp_path, value, message):
        write_sequence(tmp_path / "s.csv", ramp_sequence(n=20))
        sidecar = tmp_path / "s.json"
        meta = json.loads(sidecar.read_text())
        meta["tau_s"] = value
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(DataError, match=rf"s\.json: {re.escape(message)}$"):
            read_sequence(tmp_path / "s.csv")

    @pytest.mark.parametrize("drop", [True, False])
    def test_absent_sidecar_tau_takes_default(self, tmp_path, drop):
        write_sequence(tmp_path / "s.csv", ramp_sequence(n=20))
        sidecar = tmp_path / "s.json"
        meta = json.loads(sidecar.read_text())
        if drop:
            del meta["tau_s"]
        else:
            meta["tau_s"] = None
        sidecar.write_text(json.dumps(meta))
        assert read_sequence(tmp_path / "s.csv").tau_s == dataset.DEFAULT_TAU_S

    def test_bad_sidecar_frequency_named(self, tmp_path):
        write_sequence(tmp_path / "s.csv", ramp_sequence(n=20))
        sidecar = tmp_path / "s.json"
        meta = json.loads(sidecar.read_text())
        for value, message in (("fast", "f_sw_Hz is not a number"), (float("inf"), "non-finite f_sw_Hz"),
                               (10 ** 400, "non-finite f_sw_Hz")):
            meta["f_sw_Hz"] = value
            sidecar.write_text(json.dumps(meta))
            with pytest.raises(DataError, match=rf"s\.json: {message}"):
                read_sequence(tmp_path / "s.csv")

    def test_too_short_sequence_named(self, tmp_path):
        write_sequence(tmp_path / "t.csv", ramp_sequence(n=20))
        (tmp_path / "t.json").rename(tmp_path / "s.json")
        # the length is checked before the content, so a header-only table is
        # too short too, not all-zero H
        for table in ("k,B_T,H_Am\n0,0.1,5.0\n", "k,B_T,H_Am\n"):
            (tmp_path / "s.csv").write_text(table)
            with pytest.raises(DataError, match=r"s\.csv: sequence needs at least 2 samples$"):
                read_sequence(tmp_path / "s.csv")

    def test_all_zero_h_named_at_load(self, tmp_path):
        write_sequence(tmp_path / "s.csv", seq_of(np.linspace(-0.1, 0.1, 20), np.zeros(20)))
        with pytest.raises(DataError, match=r"s\.csv: H is all zero"):
            read_sequence(tmp_path / "s.csv")
        raw = tmp_path / "matZ"
        raw.mkdir()
        (raw / "B_waveform[T].csv").write_text("0.1,0.2,0.3\n0.2,0.3,0.4\n")
        (raw / "H_waveform[Am-1].csv").write_text("1,2,3\n0,0,-0\n")
        (raw / "Temperature[C].csv").write_text("25\n50\n")
        with pytest.raises(DataError, match=r"matZ: sequence 1: H is all zero"):
            read_raw_material(raw)

    def test_bad_header(self, tmp_path):
        (tmp_path / "s.csv").write_text("a,b,c\n1,2,3\n")
        (tmp_path / "s.json").write_text("{}")
        with pytest.raises(DataError, match="header"):
            read_sequence(tmp_path / "s.csv")

    def test_material_roundtrip(self, tmp_path):
        seqs = [ramp_sequence(n=24, seed=i) for i in range(3)]
        write_material(tmp_path, "demo", seqs)
        assert list_materials(tmp_path) == ["demo"]
        back = load_material(tmp_path, "demo")
        assert len(back) == 3
        np.testing.assert_allclose(back[1].h, seqs[1].h, rtol=1e-8)


def _corrupt_bytes(data: bytes, edits) -> bytes:
    """Apply (position, action, byte) edits: replace, insert or delete one byte."""
    buf = bytearray(data)
    for pos, action, byte in edits:
        i = pos % (len(buf) + 1)
        if action == "insert" or i == len(buf):
            buf.insert(i, byte)
        elif action == "replace":
            buf[i] = byte
        else:
            del buf[i]
    return bytes(buf)


_BYTE_EDITS = st.lists(st.tuples(st.integers(0, 10_000), st.sampled_from(["replace", "insert", "delete"]),
                                 st.integers(0, 255)), min_size=1, max_size=6)
_ROW_TEXT = st.text(st.sampled_from(list("0123456789.,-+eE \t\"\x00nanif_x\u00e9\r\n")), max_size=24)
_FUZZ = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestReaderFuzz:
    """Corrupt input fails as a DataError that names the file, never as another exception."""

    @staticmethod
    def _read(reader, path):
        try:
            reader(path)
        except DataError as exc:
            assert str(path) in str(exc)

    @_FUZZ
    @given(edits=_BYTE_EDITS)
    def test_sequence_bytes(self, tmp_path, edits):
        path = tmp_path / "s.csv"
        write_sequence(path, ramp_sequence(n=6))
        path.write_bytes(_corrupt_bytes(path.read_bytes(), edits))
        self._read(read_sequence, path)

    @_FUZZ
    @given(row=st.integers(0, 6), text=_ROW_TEXT)
    def test_sequence_rows(self, tmp_path, row, text):
        path = tmp_path / "s.csv"
        write_sequence(path, ramp_sequence(n=6))
        lines = path.read_text().splitlines()
        lines[row] = text
        path.write_text("\n".join(lines) + "\n")
        self._read(read_sequence, path)

    @_FUZZ
    @given(edits=_BYTE_EDITS)
    def test_matrix_bytes(self, tmp_path, edits):
        path = tmp_path / "B_waveform[T].csv"
        path.write_bytes(_corrupt_bytes(b"0.1,0.2,0.3\n-0.1,-0.2,-0.3\n", edits))
        self._read(_read_csv_matrix, path)

    @_FUZZ
    @given(row=st.integers(0, 2), text=_ROW_TEXT)
    def test_matrix_rows(self, tmp_path, row, text):
        path = tmp_path / "B_waveform[T].csv"
        lines = ["0.1,0.2,0.3", "-0.1,-0.2,-0.3", ""]
        lines[row] = text
        path.write_text("\n".join(lines))
        self._read(_read_csv_matrix, path)


#: A JSON value of each type: text, bool, null, a list, a float with a fraction, or a
#: negative int. Whole numbers of 0 and up are left out: as a d_g or warmup_length they
#: load, and may ask for a model of any size or a warmup longer than the data.
_JSON_VALUE = st.one_of(st.text(max_size=8), st.booleans(), st.none(),
                        st.lists(st.integers(), max_size=2),
                        st.floats().filter(lambda x: not x.is_integer()),
                        st.integers(max_value=-1))


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A dataset root and a ``train`` run directory on it."""
    root = tmp_path_factory.mktemp("trained_run")
    write_material(root / "data", "m", [ramp_sequence(n=48, seed=i) for i in range(6)])
    assert main(["train", "--data", str(root / "data"), "--material", "m", "--out",
                 str(root / "run"), "--hidden-size", "2", "--epochs", "1", "--subseq-len", "16",
                 "--batch-size", "2", "--warmup-len", "4"]) == 0
    return root


class TestCheckpointHeaderFuzz:
    """A ``train_config`` value of another type is loaded or refused naming the header."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), value=_JSON_VALUE)
    def test_train_config_value(self, trained_run, tmp_path, data, value):
        header = json.loads((trained_run / "run" / "model.json").read_text())
        key = data.draw(st.sampled_from(sorted(header["train_config"])))
        header["train_config"][key] = value
        model = tmp_path / "model.json"
        model.write_text(json.dumps(header))
        shutil.copy(trained_run / "run" / "model.bin", tmp_path / "model.bin")
        out = tmp_path / "out"
        shutil.rmtree(out, ignore_errors=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["eval", "--data", str(trained_run / "data"), "--material", "m",
                       "--checkpoint", str(model), "--split", "all", "--out", str(out)])
        if rc != 0:
            assert rc == 1 and err.getvalue().startswith(f"error: {model}: checkpoint ")
            assert not out.exists()


class TestSidecarNumberFuzz:
    """A sidecar number of another JSON type loads as that number or is refused naming
    the sidecar; a bool or a string never loads."""

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(["temperature_C", "tau_s", "f_sw_Hz"]), value=_JSON_VALUE)
    def test_sidecar_value(self, tmp_path, key, value):
        write_sequence(tmp_path / "s.csv", ramp_sequence(n=20))
        sidecar = tmp_path / "s.json"
        meta = json.loads(sidecar.read_text())
        meta[key] = value
        sidecar.write_text(json.dumps(meta))
        try:
            seq = read_sequence(tmp_path / "s.csv")
        except DataError as exc:
            assert str(exc).startswith(f"{sidecar}: ")
            return
        # null stands for an absent tau_s or f_sw_Hz
        assert type(value) in (int, float) or (value is None and key != "temperature_C")
        loaded = {"temperature_C": seq.temperature_c, "tau_s": seq.tau_s, "f_sw_Hz": seq.f_sw_hz}
        absent = {"tau_s": dataset.DEFAULT_TAU_S, "f_sw_Hz": None}
        assert loaded[key] == (absent[key] if value is None else float(value))


def _outcome(parse, path):
    """(dtype, shape, bytes) of each array a parser returns, or its DataError text."""
    try:
        arrays = parse(path)
    except DataError as exc:
        return str(exc)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


class TestOnePassMatchesRowLoop:
    """The one-pass parsers and the row loops behind them accept the same files with
    bit-identical arrays, and raise the same DataError text for the rest."""

    @staticmethod
    def _agree(path):
        if path.name == "s.csv":
            assert _outcome(_sequence_columns, path) == _outcome(_sequence_rows, path)
        else:
            assert _outcome(_read_csv_matrix, path) == _outcome(_matrix_rows, path)

    @_FUZZ
    @given(edits=_BYTE_EDITS)
    def test_sequence_bytes(self, tmp_path, edits):
        path = tmp_path / "s.csv"
        write_sequence(path, ramp_sequence(n=6))
        path.write_bytes(_corrupt_bytes(path.read_bytes(), edits))
        self._agree(path)

    @_FUZZ
    @given(row=st.integers(0, 6), text=_ROW_TEXT)
    def test_sequence_rows(self, tmp_path, row, text):
        path = tmp_path / "s.csv"
        write_sequence(path, ramp_sequence(n=6))
        lines = path.read_text().splitlines()
        lines[row] = text
        path.write_text("\n".join(lines) + "\n")
        self._agree(path)

    @_FUZZ
    @given(edits=_BYTE_EDITS)
    def test_matrix_bytes(self, tmp_path, edits):
        path = tmp_path / "B_waveform[T].csv"
        path.write_bytes(_corrupt_bytes(b"0.1,0.2,0.3\n-0.1,-0.2,-0.3\n", edits))
        self._agree(path)

    @_FUZZ
    @given(row=st.integers(0, 2), text=_ROW_TEXT)
    def test_matrix_rows(self, tmp_path, row, text):
        path = tmp_path / "B_waveform[T].csv"
        lines = ["0.1,0.2,0.3", "-0.1,-0.2,-0.3", ""]
        lines[row] = text
        path.write_text("\n".join(lines))
        self._agree(path)

    @pytest.mark.parametrize("text", [
        "k,B_T,H_Am\n0,1,2,3\n1,2\n",  # six fields, but not three per row
        "k,B_T,H_Am\r\n0, 1_0 ,2\r\n1,3,\x0c4\n",  # float() strips and takes digit groups
        "k,B_T,H_Am\n0,1,2\x0b3\n1,2\u20283,4\n",  # line ends of str.splitlines only
        "k,B_T,H_Am\n0,1,2\r1,3,4\n",  # a lone carriage return ends a csv row
        "k,B_T,H_Am\n0,1,2\r\r\n1,3,4\n",  # ... and one before \r\n starts a blank row
        'k,B_T,H_Am\n0,"1",2\n1,3,4\n',  # quoting
        'k,B_T,H_Am\n"0,1,2\n",3,4\n',  # a quoted line end inside the unread k field
        "k,B_T,H_Am\n0,1,2\n\n1,3,4\n",  # blank row
        " k ,B_T,H_Am\nx,1,2\ny,3,4",  # padded header, no final line end
        "k,B_T,H_Am\n",
    ])
    def test_sequence_edge_cases(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_text(text, newline="")
        self._agree(path)

    @pytest.mark.parametrize("text", [
        "0,1,2,3\n1,2\n1,2\n", "0.1,0.2\n\n0.3,0.4\n", "0.1\n \n0.2\n", "\n", "",
        "0.1,0.2,0.3\n0.4,0.5\n", "1_0,2\r\n3,4", "1,2\r3,4\n", "1,nan\n", "1,\u2028\n",
    ])
    def test_matrix_edge_cases(self, tmp_path, text):
        path = tmp_path / "B_waveform[T].csv"
        path.write_text(text, newline="")
        self._agree(path)

    def test_field_over_csv_limit(self, tmp_path):
        pad = " " * csv.field_size_limit()  # float() strips it; the csv module refuses it
        (tmp_path / "s.csv").write_text(f"k,B_T,H_Am\n{pad}0,1,2\n1,3,4\n")
        (tmp_path / "B_waveform[T].csv").write_text(f"{pad}1,2\n3,4\n")
        for path in tmp_path.iterdir():
            self._agree(path)
            with pytest.raises(DataError, match="field larger than field limit"):
                (read_sequence if path.name == "s.csv" else _read_csv_matrix)(path)

    def test_written_files_take_one_pass(self, tmp_path, monkeypatch):
        write_sequence(tmp_path / "s.csv", ramp_sequence(n=20))
        (tmp_path / "m.csv").write_text("0.1,0.2,0.3\r\n-0.1,-0.2,-0.3\r\n")
        for name in ("_sequence_rows", "_matrix_rows"):
            monkeypatch.setattr(dataset, name, None)
        assert len(read_sequence(tmp_path / "s.csv")) == 20
        assert [row.tolist() for row in _read_csv_matrix(tmp_path / "m.csv")] == [
            [0.1, 0.2, 0.3], [-0.1, -0.2, -0.3]]


def test_matrix_parse_peak_below_four_file_sizes(tmp_path):
    """The one-pass matrix parser holds one line's fields as strings at a time: on a
    60 x 1024 MagNetX matrix its tracemalloc peak stays below four times the file's
    size, and its rows are byte-equal to the row loop's."""
    path = tmp_path / "B_waveform[T].csv"
    np.savetxt(path, np.random.default_rng(27).uniform(-0.3, 0.3, (60, 1024)), delimiter=",",
               fmt="%.9g")
    tracemalloc.start()
    try:
        rows = _read_csv_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * path.stat().st_size
    assert [(a.dtype.str, a.shape, a.tobytes()) for a in rows] == _outcome(_matrix_rows, path)


class TestTableWriter:
    EDGES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 123456789.5,
             float("nan"), float("inf"), -float("inf"), 1e16, 1e-5]

    def test_fmt_edges(self):
        assert [fmt(v) for v in self.EDGES] == [f"{v:.9g}" for v in self.EDGES]

    @pytest.mark.parametrize("start", [0, 16])
    def test_matches_csv_module(self, tmp_path, start):
        rng = np.random.default_rng(start)
        columns = [np.array(self.EDGES), rng.standard_normal(len(self.EDGES)) * 1e3,
                   rng.standard_normal(len(self.EDGES)).astype(np.float32)]
        header = ["k", "B", "H_true", "H_pred"]
        write_columns(tmp_path / "t.csv", header, start, columns)
        assert (tmp_path / "t.csv").read_bytes() == csv_module_table(header, start, columns)

    def test_sequence_matches_csv_module(self, tmp_path):
        seq = ramp_sequence(n=64)
        write_sequence(tmp_path / "s.csv", seq)
        assert (tmp_path / "s.csv").read_bytes() == csv_module_table(
            ["k", "B_T", "H_Am"], 0, [seq.b, seq.h])

    def test_unequal_columns_refused(self, tmp_path):
        with pytest.raises(ValueError):
            write_columns(tmp_path / "t.csv", ["k", "a", "b"], 0, [np.ones(3), np.ones(2)])
        assert not list(tmp_path.iterdir())


class TestAdapters:
    def test_magnetx_layout(self, tmp_path):
        raw = tmp_path / "matA"
        raw.mkdir()
        rows_b = "0.1,0.2,0.3\n-0.1,-0.2,-0.3\n"
        rows_h = "10,20,30\n-10,-20,-30\n"
        (raw / "B_waveform[T].csv").write_text(rows_b)
        (raw / "H_waveform[Am-1].csv").write_text(rows_h)
        (raw / "Temperature[C].csv").write_text("25\n70\n")
        (raw / "Frequency[Hz].csv").write_text("50000\n125000\n")
        assert detect_adapter(raw) == "magnetx"
        material, sequences = read_raw_material(raw)
        assert (material, ingest_material(tmp_path / "out", material, sequences)) == ("matA", 2)
        seqs = load_material(tmp_path / "out", "matA")
        assert seqs[1].temperature_c == 70.0
        assert seqs[1].f_sw_hz == 125000.0
        np.testing.assert_allclose(seqs[0].b, [0.1, 0.2, 0.3])

    @pytest.mark.parametrize("tau", ["0", "-1e-09"])
    def test_magnetx_sampling_time_named(self, tmp_path, tau):
        raw = tmp_path / "matE"
        raw.mkdir()
        (raw / "B_waveform[T].csv").write_text("0.1,0.2\n0.2,0.3\n")
        (raw / "H_waveform[Am-1].csv").write_text("1,2\n3,4\n")
        (raw / "Temperature[C].csv").write_text("25\n50\n")
        (raw / "Sampling_Time[s].csv").write_text(f"1e-06\n{tau}\n")
        with pytest.raises(DataError, match=rf"^{re.escape(str(raw))}: sequence 1: "
                                            r"sampling period must be positive$"):
            read_raw_material(raw)

    def test_unknown_layout(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        with pytest.raises(DataError, match="no sequences found"):
            detect_adapter(empty)

    def test_named_layout_checked(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        with pytest.raises(DataError, match=f"^no magnetx layout under {re.escape(str(empty))}$"):
            resolve_adapter(empty, "magnetx")
        with pytest.raises(DataError, match="^unknown adapter 'raw'$"):
            resolve_adapter(empty, "raw")
        write_sequence(empty / "seq_00000.csv", ramp_sequence(n=16))
        assert resolve_adapter(empty, "canonical") == "canonical"
        assert resolve_adapter(empty, None) == "canonical"

    def test_corrupt_matrix_row(self, tmp_path):
        raw = tmp_path / "matB"
        raw.mkdir()
        (raw / "H_waveform[Am-1].csv").write_text("1,2\n3,4\n")
        (raw / "Temperature[C].csv").write_text("25\n25\n")
        for bad in ("bad", "nan", "inf", "-inf"):
            (raw / "B_waveform[T].csv").write_text(f"0.1,0.2\n{bad},0.3\n")
            with pytest.raises(DataError, match=r"B_waveform\[T\]\.csv: .*row 2"):
                read_raw_material(raw)

    @pytest.mark.parametrize("name", ["Frequency[Hz].csv", "Sampling_Time[s].csv"])
    def test_optional_matrix_row_count_named(self, tmp_path, name):
        raw = tmp_path / "matD"
        raw.mkdir()
        (raw / "B_waveform[T].csv").write_text("0.1,0.2\n0.2,0.3\n")
        (raw / "H_waveform[Am-1].csv").write_text("1,2\n3,4\n")
        (raw / "Temperature[C].csv").write_text("25\n50\n")
        (raw / name).write_text("50000\n")
        with pytest.raises(DataError, match=r"\]\.csv: 1 rows for 2 sequences"):
            read_raw_material(raw)

    def test_canonical_passthrough(self, tmp_path):
        raw = tmp_path / "matC"
        raw.mkdir()
        for i in range(2):
            write_sequence(raw / f"seq_{i:05d}.csv", ramp_sequence(n=16, seed=i))
        assert detect_adapter(raw) == "canonical"
        material, sequences = read_raw_material(raw)
        assert ingest_material(tmp_path / "out", material, sequences) == 2
        assert len(load_material(tmp_path / "out", "matC")) == 2


# Each writer: (write version v under a directory, the files it writes there).
def _write_checkpoint(d, v):
    ckpt = ModelCheckpoint(TrainConfig(seed=v), params={"w": np.full(3, v, np.float32)},
                           norm=NormConstants(1.0, 1.0, 1.0))
    save_checkpoint(d / "model", ckpt)


def _report(v):
    report = MetricReport()
    report.add(0, sre=v, nere=v, mse=v, mae=v, wce=v)
    return report


def _write_plotdata(d, v):
    source = d / f"pred_{v}.csv"
    source.write_text(f"k,B,H_true,H_pred\n0,0.{v},{v},{v}\n")
    args = build_parser().parse_args(["plotdata", "--source", str(source), "--kind", "bh_loop",
                                      "--out", str(d / "plot")])
    args.fn(args)


ARTIFACT_WRITERS = {
    "save_checkpoint": (_write_checkpoint, ["model.json", "model.bin"]),
    "report_json": (lambda d, v: _report(v).write_json(d / "report.json"), ["report.json"]),
    "report_csv": (lambda d, v: _report(v).write_csv(d / "report.csv"), ["report.csv"]),
    "sweep_csv": (lambda d, v: write_sweep_csv(d / "sweep.csv", [
        {"archetype": "gru-p", "d_g": 2, "params": 46, "seed": 0, "sre": v, "nere": v,
         "status": "ok"}]), ["sweep.csv"]),
    "write_sequence": (lambda d, v: write_sequence(d / "s.csv", ramp_sequence(n=8, seed=v)),
                       ["s.csv", "s.json"]),
    "write_material": (lambda d, v: write_material(d, "m", [ramp_sequence(n=8, seed=v)] * v),
                       ["m/manifest.json", "m/seq_00000.csv", "m/seq_00000.json"]),
    "cli_rows": (_write_plotdata, ["plot/bh_loop.csv", "plot/run_manifest.json"]),
}


@pytest.mark.parametrize("name", sorted(ARTIFACT_WRITERS))
def test_failed_replace_keeps_previous_artifact(tmp_path, monkeypatch, name):
    write, files = ARTIFACT_WRITERS[name]
    write(tmp_path, 1)
    before = {f: (tmp_path / f).read_bytes() for f in files}

    def failing_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="replace failed"):
        write(tmp_path, 2)
    assert {f: (tmp_path / f).read_bytes() for f in files} == before
    assert not list(tmp_path.rglob("*.tmp"))
    monkeypatch.undo()
    write(tmp_path, 2)  # version 2 differs, so the check above was not vacuous
    assert any((tmp_path / f).read_bytes() != before[f] for f in files)
