"""Measurement ingestion, normalization, featurization, batching, and splits.

A measurement couples a magnetic-flux-density trajectory B (tesla) with the
magnetic-field trajectory H (ampere/meter) at a fixed core temperature and
sampling period. Signals are normalized per material by their training-set
maximum absolute value. Model inputs are four feature rows per time step:
normalized B, its first and second backward differences (unit time step),
and the constant normalized temperature.

On-disk layout (one directory per material):

* ``manifest.json`` — ``{"material": ..., "sequences": [...], "count": n}``; each
  sequence entry is a bare file name in the material directory, listed once
* ``seq_XXXXX.csv`` — header ``k,B_T,H_Am``, one row per sample
* ``seq_XXXXX.json`` — ``{"material", "temperature_C", "f_sw_Hz", "tau_s"}``

Numeric tables are written a whole file at a time. A sequence or
prediction CSV is formatted by one ``%`` operation (:func:`write_columns`);
its bytes are those of the ``csv`` module writing each value with
:func:`fmt`. The readers parse a file in one pass: a sequence CSV with one
split and one ``float`` conversion per column, a MagNetX matrix one line at
a time, so only one row's fields exist as strings at once. A file that pass
does not take cleanly (quotes, lone carriage returns, ragged or unparsable
rows, non-finite values, undecodable bytes) goes to the ``csv`` module's
row-by-row parser, which accepts the same files with the same values and is
the only path that raises, naming the file and the row.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

DEFAULT_TAU_S = 62.5e-9  # 1/16 MHz sampling
#: Shares of the (train, eval, test) split.
SPLIT_FRACTIONS = (0.8, 0.1, 0.1)


class DataError(ValueError):
    """Malformed measurement data or an invalid data request."""


@dataclass
class MeasuredSequence:
    """One raw measurement sequence.

    ``f_sw_hz`` is optional acquisition metadata used only for stratified
    splitting; it is never fed to a model.
    """

    b: np.ndarray
    h: np.ndarray
    temperature_c: float
    tau_s: float = DEFAULT_TAU_S
    material_id: str = ""
    f_sw_hz: float | None = None

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=np.float64)
        self.h = np.asarray(self.h, dtype=np.float64)
        if self.b.ndim != 1 or self.h.ndim != 1 or len(self.b) != len(self.h):
            raise DataError("B and H must be 1-D arrays of equal length")
        if len(self.b) < 2:
            raise DataError("sequence needs at least 2 samples")
        if not self.tau_s > 0:
            raise DataError("sampling period must be positive")

    def __len__(self):
        return len(self.b)

    def h_rms(self) -> float:
        """RMS of H over the whole sequence."""
        return float(np.sqrt(np.mean(self.h ** 2)))


@dataclass
class NormConstants:
    """Per-material max-abs normalizers; z~ = z / z_max maps training data into [-1, 1]."""

    h_max: float
    b_max: float
    theta_max: float

    def __post_init__(self):
        for name in ("h_max", "b_max", "theta_max"):
            if not getattr(self, name) > 0:
                raise DataError(f"{name} must be positive (all-zero signal?)")

    def as_dict(self):
        return {"h_max": self.h_max, "b_max": self.b_max, "theta_max": self.theta_max}

    @classmethod
    def from_dict(cls, d):
        return cls(h_max=d["h_max"], b_max=d["b_max"], theta_max=d["theta_max"])


@dataclass
class MiniBatch:
    """One training batch of aligned subsequences.

    All blocks are ``(b, l)``; ``x`` is ``(b, l, FEATURE_WIDTH)``. ``h_rms``
    is the RMS of raw H over each row's *full* source sequence. Rows may come
    from sequences with different sampling periods: features use a unit time
    step and the Jiles-Atherton step is rate-independent.
    """

    x: np.ndarray
    b_norm: np.ndarray
    b_raw: np.ndarray
    h_norm: np.ndarray
    h_raw: np.ndarray
    h_rms: np.ndarray  # (b,)
    sources: np.ndarray  # (b, 2) int: (sequence index, window offset)
    warmup_length: int


def compute_norm_constants(sequences) -> NormConstants:
    """Max absolute value of each raw signal over the given (training) sequences.

    A signal that is zero in every sequence has no scale to normalize by and
    raises a DataError naming its field.
    """
    sequences = list(sequences)
    if not sequences:
        raise DataError("need at least one sequence to compute normalization")
    h_max = max(float(np.max(np.abs(s.h))) for s in sequences)
    b_max = max(float(np.max(np.abs(s.b))) for s in sequences)
    theta_max = max(abs(float(s.temperature_c)) for s in sequences)
    for field, value in (("B", b_max), ("H", h_max), ("temperature_C", theta_max)):
        if value == 0.0:
            raise DataError(f"{field} is 0 in every sequence, so it cannot be normalized")
    return NormConstants(h_max=h_max, b_max=b_max, theta_max=theta_max)


#: Features per time step: normalized B, its two differences and the temperature.
FEATURE_WIDTH = 4


def feature_rows(b_norm: np.ndarray, theta_norm) -> np.ndarray:
    """Feature block for row-wise windows of normalized B.

    ``b_norm`` is ``(rows, L)``; returns ``(rows, L, FEATURE_WIDTH)``.
    Differences use a unit time step (no division by the physical sampling
    period). The first column of each difference row replicates the first
    interior value, so a window start never injects a spurious jump.
    """
    b_norm = np.atleast_2d(np.asarray(b_norm, dtype=np.float64))
    rows, length = b_norm.shape
    if length < 3:
        raise DataError(f"feature window needs >= 3 samples, got {length}")
    d1 = np.empty_like(b_norm)
    d1[:, 1:] = b_norm[:, 1:] - b_norm[:, :-1]
    d1[:, 0] = d1[:, 1]
    d2 = np.empty_like(b_norm)
    d2[:, 1:] = d1[:, 1:] - d1[:, :-1]
    d2[:, 0] = d2[:, 1]
    theta = np.broadcast_to(np.asarray(theta_norm, dtype=np.float64).reshape(-1, 1), (rows, length))
    return np.stack([b_norm, d1, d2, theta], axis=2)


def featurize(seq: MeasuredSequence, norm: NormConstants) -> np.ndarray:
    """Features ``(len(seq), FEATURE_WIDTH)`` of the whole sequence; the columns are
    those of :func:`feature_rows`."""
    theta = seq.temperature_c / norm.theta_max
    return feature_rows(seq.b[None, :] / norm.b_max, [theta])[0]


def split_dataset(sequences, seed: int = 0):
    """Disjoint, exhaustive (train, eval, test) partition in the shares :data:`SPLIT_FRACTIONS`.

    Stratified by (f_sw, temperature) when that metadata is present: within
    each stratum the split is shuffled deterministically and every stratum
    with at least one member contributes to the training set first.
    """
    sequences = list(sequences)
    if not sequences:
        raise DataError("cannot split an empty dataset")
    strata: dict = {}
    for i, s in enumerate(sequences):
        key = (s.f_sw_hz, s.temperature_c)
        strata.setdefault(key, []).append(i)
    rng = np.random.default_rng(seed)
    buckets = ([], [], [])
    for key in sorted(strata, key=lambda k: (repr(k[0]), repr(k[1]))):
        idx = np.array(strata[key])
        rng.shuffle(idx)
        n = len(idx)
        ideal = [f * n for f in SPLIT_FRACTIONS]
        counts = [int(np.floor(v)) for v in ideal]
        order = sorted(range(3), key=lambda j: ideal[j] - counts[j], reverse=True)
        for j in order[: n - sum(counts)]:
            counts[j] += 1
        if counts[0] == 0:  # every nonempty stratum trains
            donor = max(range(1, 3), key=lambda j: counts[j])
            counts[donor] -= 1
            counts[0] += 1
        lo = 0
        for bucket, c in zip(buckets, counts):
            bucket.extend(int(i) for i in idx[lo:lo + c])
            lo += c
    return tuple([sequences[i] for i in sorted(b)] for b in buckets)


def check_windows(sequences, subseq_len: int, batch_size: int, warmup_length: int) -> None:
    """Refuse window and batch settings that :func:`make_minibatches` cannot batch.

    A window must hold the warmup plus two predicted samples, every sequence
    must hold a window, and the windows must fill at least one batch. The
    window count depends only on the sequence lengths, so a setting that
    passes here fills a batch in every epoch. Raises :class:`DataError`.
    """
    if batch_size < 1:
        raise DataError("batch size must be >= 1")
    if subseq_len < warmup_length + 2:
        raise DataError(f"subsequence length {subseq_len} too short for warmup {warmup_length}")
    windows = 0
    for si, seq in enumerate(sequences):
        if len(seq) < subseq_len:
            raise DataError(f"sequence {si} shorter than subsequence length {subseq_len}")
        windows += len(seq) // subseq_len
    if windows < batch_size:
        raise DataError(f"no full batches: {len(sequences)} sequences, l={subseq_len}, "
                        f"b={batch_size}")


def make_minibatches(sequences, subseq_len: int, batch_size: int, rng_seed,
                     warmup_length: int, norm: NormConstants) -> list[MiniBatch]:
    """Chop sequences into length-l subsequences and group them into batches.

    Each call draws a fresh random window offset per sequence and a fresh
    row ordering (pass a per-epoch seed to regenerate), so successive epochs
    see a new set of subsequences. Rows that do not fill a final batch are
    dropped to keep shapes fixed. Settings :func:`check_windows` refuses
    raise its :class:`DataError`.
    """
    sequences = list(sequences)
    check_windows(sequences, subseq_len, batch_size, warmup_length)
    rng = np.random.default_rng(rng_seed)
    rows = []  # (seq_idx, offset)
    for si, seq in enumerate(sequences):
        n_sub = len(seq) // subseq_len
        slack = len(seq) - n_sub * subseq_len
        offset = int(rng.integers(0, slack + 1))
        rows.extend((si, offset + j * subseq_len) for j in range(n_sub))
    order = rng.permutation(len(rows))

    batches = []
    for start in range(0, len(rows) - batch_size + 1, batch_size):
        chosen = [rows[i] for i in order[start:start + batch_size]]
        b_raw = np.stack([sequences[si].b[off:off + subseq_len] for si, off in chosen])
        h_raw = np.stack([sequences[si].h[off:off + subseq_len] for si, off in chosen])
        theta = np.array([sequences[si].temperature_c for si, _ in chosen]) / norm.theta_max
        b_norm = b_raw / norm.b_max
        h_norm = h_raw / norm.h_max
        batches.append(MiniBatch(
            x=feature_rows(b_norm, theta),
            b_norm=b_norm, b_raw=b_raw, h_norm=h_norm, h_raw=h_raw,
            h_rms=np.array([sequences[si].h_rms() for si, _ in chosen]),
            sources=np.array(chosen, dtype=np.int64),
            warmup_length=warmup_length,
        ))
    return batches


def reversed_minibatches(sequences, subseq_len: int, batch_size: int, rng_seed,
                         warmup_length: int, norm: NormConstants) -> list[MiniBatch]:
    """Batches for the flux-from-field direction (drive H~, predict B~).

    Mirrors :func:`make_minibatches` with the signal roles swapped: the
    ``b_*`` blocks hold the drive (H) and the ``h_*`` blocks the prediction
    target (B), ``h_rms`` is the full-sequence RMS of raw B, and ``x`` is the
    single-feature drive row (d_x = 1).
    """
    swapped = [MeasuredSequence(b=s.h, h=s.b, temperature_c=s.temperature_c, tau_s=s.tau_s,
                                material_id=s.material_id, f_sw_hz=s.f_sw_hz)
               for s in sequences]
    swapped_norm = NormConstants(h_max=norm.b_max, b_max=norm.h_max, theta_max=norm.theta_max)
    batches = make_minibatches(swapped, subseq_len, batch_size, rng_seed,
                               warmup_length, swapped_norm)
    for batch in batches:
        batch.x = batch.b_norm[:, :, None].copy()
    return batches


# -- artifact writing ---------------------------------------------------------

#: The text of a float in every artifact.
FLOAT_FORMAT = "%.9g"


def fmt(x) -> str:
    """The text of one float in an artifact (:data:`FLOAT_FORMAT`)."""
    return FLOAT_FORMAT % float(x)


def json_text(obj) -> str:
    """The text of a JSON artifact: indent 2, sorted keys, final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_file(path: Path, data: str | bytes) -> None:
    """Replace ``path`` by a temp file beside it and ``os.replace``; text is written as UTF-8.

    Every file hystkit writes goes through here, so a failed or interrupted
    write leaves the previous file, or none, in place.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_rows(path: Path, header, rows) -> None:
    """Write a CSV artifact (csv module dialect, ``\\r\\n`` line ends) with :func:`write_file`."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    write_file(path, buf.getvalue())


def write_columns(path: Path, header, start: int, columns) -> None:
    """Write a numeric CSV artifact with :func:`write_file`: the integer index start,
    start + 1, ... and one float column per array of ``columns`` (equal lengths).

    For a header that needs no quoting, the bytes are those of :func:`write_rows`
    with each float given by :func:`fmt`; one ``%`` operation builds the table.
    """
    width = len(columns) + 1
    n = len(columns[0])
    values = [0] * (n * width)
    values[0::width] = range(start, start + n)
    for j, column in enumerate(columns, start=1):
        values[j::width] = np.asarray(column, dtype=np.float64).tolist()
    row = "%d" + ("," + FLOAT_FORMAT) * len(columns) + "\r\n"
    write_file(path, ",".join(header) + "\r\n" + row * n % tuple(values))


def read_json(path: Path):
    """Parse a JSON file; malformed text raises :class:`DataError` naming the file."""
    try:
        return json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # bad text or encoding; deep nesting
        raise DataError(f"{path}: malformed JSON: {exc}") from None


def read_json_object(path: Path) -> dict:
    """:func:`read_json` for files whose top level must be a JSON object."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise DataError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


# -- sequence file I/O -------------------------------------------------------

SEQUENCE_HEADER = ("k", "B_T", "H_Am")


def write_sequence(path: Path, seq: MeasuredSequence) -> None:
    """Write one sequence as CSV (k,B_T,H_Am) plus a JSON sidecar."""
    path = Path(path)
    write_columns(path, SEQUENCE_HEADER, 0, [seq.b, seq.h])
    sidecar = {
        "material": seq.material_id,
        "temperature_C": seq.temperature_c,
        "f_sw_Hz": seq.f_sw_hz,
        "tau_s": seq.tau_s,
    }
    write_file(path.with_suffix(".json"), json.dumps(sidecar, sort_keys=True) + "\n")


def _csv_rows(path: Path):
    """(line number, fields) of each CSV row, read as UTF-8.

    Undecodable bytes and malformed quoting raise :class:`DataError` naming
    the file.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield from enumerate(csv.reader(fh), start=1)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: unreadable CSV: {exc}") from None


def _plain_lines(path: Path) -> list[str] | None:
    """The rows of a CSV file as lines, when splitting each at its commas gives the
    fields the ``csv`` module reads; None for a file it must parse row by row.

    A plain file is nonempty UTF-8 text without quotes, lone carriage returns or lines
    over the ``csv`` field size limit. Its lines are split at ``\\n`` and ``\\r\\n``
    only (not at the other line ends of ``str.splitlines``), and a final line end
    starts no row.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        return None
    text = text.replace("\r\n", "\n")
    if not text or '"' in text or "\r" in text:
        return None
    lines = text.split("\n")
    if lines[-1] == "":  # a final line end starts no row; popping it copies no text
        lines.pop()
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    return lines


def _floats(fields, count: int) -> np.ndarray | None:
    """``float`` of each field, when every one converts to a finite number."""
    try:
        values = np.fromiter(map(float, fields), dtype=np.float64, count=count)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def read_csv_dicts(path: Path) -> list[tuple[int, dict]]:
    """(line number, header -> field) of each non-blank data row of a headed CSV.

    Besides the errors of :func:`_csv_rows`, a row whose field count differs
    from the header's raises :class:`DataError` naming the file and row.
    """
    rows = _csv_rows(path)
    _, header = next(rows, (1, []))
    records = []
    for lineno, row in rows:
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(f"{path}: row {lineno} has {len(row)} fields, "
                            f"the header has {len(header)}")
        records.append((lineno, dict(zip(header, row))))
    return records


def _sequence_columns(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The B and H columns of a sequence CSV, parsed in one pass when the file is
    plain, well formed and finite, else by :func:`_sequence_rows`."""
    lines = _plain_lines(path)
    if (lines is not None and lines[0] == ",".join(SEQUENCE_HEADER)
            and set(map(str.count, lines, repeat(","))) == {2}):
        fields = ",".join(lines[1:]).split(",")  # k, B, H per row; k is not read
        b = _floats(fields[1::3], len(lines) - 1)
        h = _floats(fields[2::3], len(lines) - 1)
        if b is not None and h is not None:
            return b, h
    return _sequence_rows(path)


def _sequence_rows(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The row-by-row parser behind :func:`_sequence_columns`; bad input raises
    :class:`DataError` naming the file and the row."""
    b_vals, h_vals = [], []
    rows = _csv_rows(path)
    _, header = next(rows, (1, None))
    if header is None or [c.strip() for c in header] != list(SEQUENCE_HEADER):
        raise DataError(f"{path}: expected header 'k,B_T,H_Am', got {header}")
    for lineno, row in rows:
        try:
            _, b_str, h_str = row
            b, h = float(b_str), float(h_str)
        except (ValueError, TypeError):
            raise DataError(f"{path}: corrupt row {lineno}: {row!r}")
        if not (math.isfinite(b) and math.isfinite(h)):
            raise DataError(f"{path}: non-finite value in row {lineno}: {row!r}")
        b_vals.append(b)
        h_vals.append(h)
    return np.array(b_vals, dtype=np.float64), np.array(h_vals, dtype=np.float64)


def read_sequence(path: Path) -> MeasuredSequence:
    """Read one canonical sequence CSV and its JSON sidecar."""
    path = Path(path)
    b, h = _sequence_columns(path)
    sidecar_path = path.with_suffix(".json")
    if not sidecar_path.exists():
        raise DataError(f"missing sidecar {sidecar_path}")
    meta = read_json_object(sidecar_path)
    tau = meta.get("tau_s")
    numbers = {"temperature_C": meta.get("temperature_C"),
               "tau_s": DEFAULT_TAU_S if tau is None else tau}
    if meta.get("f_sw_Hz") is not None:
        numbers["f_sw_Hz"] = meta["f_sw_Hz"]
    for name, value in numbers.items():
        if type(value) not in (int, float):  # JSON numbers only; bools and text are refused
            raise DataError(f"{sidecar_path}: {name} is not a number: {value!r}")
        numbers[name] = float(value) if abs(value) <= sys.float_info.max else math.inf
        if not math.isfinite(numbers[name]):
            raise DataError(f"{sidecar_path}: non-finite {name}: {value!r}")
    if not numbers["tau_s"] > 0:
        raise DataError(f"{sidecar_path}: non-positive tau_s: {tau!r}")
    try:
        seq = MeasuredSequence(
            b=b, h=h,
            temperature_c=numbers["temperature_C"],
            tau_s=numbers["tau_s"],
            material_id=str(meta.get("material", "")),
            f_sw_hz=numbers.get("f_sw_Hz"),
        )
    except DataError as exc:  # too few samples
        raise DataError(f"{path}: {exc}") from None
    if not h.any():  # after the length check, so an empty table fails as too short
        raise DataError(f"{path}: H is all zero")
    return seq


def write_material(out_dir: Path, material: str, sequences) -> Path:
    """Write sequences plus the per-material manifest; returns the material directory."""
    mat_dir = Path(out_dir) / material
    mat_dir.mkdir(parents=True, exist_ok=True)
    names = []
    for i, seq in enumerate(sequences):
        name = f"seq_{i:05d}.csv"
        write_sequence(mat_dir / name, seq)
        names.append(name)
    manifest = {"material": material, "sequences": names, "count": len(names)}
    write_file(mat_dir / "manifest.json", json_text(manifest))
    return mat_dir


def load_material(data_dir: Path, material: str) -> list[MeasuredSequence]:
    """Load every sequence listed in a material's manifest, whose entries must be bare
    file names in the material directory, each listed once (else :class:`DataError`)."""
    mat_dir = Path(data_dir) / material
    manifest_path = mat_dir / "manifest.json"
    if not manifest_path.exists():
        raise DataError(f"no manifest for material {material!r} under {data_dir}")
    names = read_json_object(manifest_path).get("sequences")
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise DataError(f"{manifest_path}: field 'sequences' must be a list of file names")
    seen = set()
    for name in names:
        if Path(name).name != name or name in ("", "..") or name in seen:
            raise DataError(f"{manifest_path}: entry {name!r} of 'sequences' is " + (
                "listed twice" if name in seen else f"not a file name inside {mat_dir}"))
        seen.add(name)
    return [read_sequence(mat_dir / name) for name in names]


def list_materials(data_dir: Path) -> list[str]:
    root = Path(data_dir)
    if not root.is_dir():
        raise DataError(f"dataset root {root} does not exist")
    return sorted(p.parent.name for p in root.glob("*/manifest.json"))


# -- raw-layout adapters -----------------------------------------------------

def _read_csv_matrix(path: Path) -> list[np.ndarray]:
    """The rows of a numeric CSV matrix, parsed one line at a time when the file is
    plain, rectangular and finite, else by :func:`_matrix_rows`.

    Each line is split and converted on its own, so only one row's fields exist as
    strings at any time.
    """
    lines = _plain_lines(path)
    if lines is not None:
        width = lines[0].count(",") + 1
        rows = []
        for line in lines:
            fields = line.split(",")
            values = _floats(fields, width) if len(fields) == width else None
            if values is None:
                break
            rows.append(values)
        else:
            return rows
    return _matrix_rows(path)


def _matrix_rows(path: Path) -> list[np.ndarray]:
    """The row-by-row parser behind :func:`_read_csv_matrix`: blank rows are skipped,
    and bad input raises :class:`DataError` naming the file and the row."""
    rows = []
    for lineno, row in _csv_rows(path):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        try:
            values = [float(v) for v in row]
        except ValueError:
            raise DataError(f"{path}: corrupt row {lineno}")
        if not all(map(math.isfinite, values)):
            raise DataError(f"{path}: non-finite value in row {lineno}")
        rows.append(np.array(values, dtype=np.float64))
    return rows


def _adapt_magnetx(raw_dir: Path, material: str) -> list[MeasuredSequence]:
    """Adapter for the public MagNetX-style layout.

    One directory per material with row-per-sequence CSV matrices:
    ``B_waveform[T].csv``, ``H_waveform[Am-1].csv``, ``Temperature[C].csv``,
    and optionally ``Frequency[Hz].csv`` and ``Sampling_Time[s].csv``.
    """
    b_rows = _read_csv_matrix(raw_dir / "B_waveform[T].csv")
    h_rows = _read_csv_matrix(raw_dir / "H_waveform[Am-1].csv")
    t_rows = _read_csv_matrix(raw_dir / "Temperature[C].csv")
    if not (len(b_rows) == len(h_rows) == len(t_rows)):
        raise DataError(f"{raw_dir}: B/H/Temperature row counts differ")
    f_path = raw_dir / "Frequency[Hz].csv"
    f_rows = _read_csv_matrix(f_path) if f_path.exists() else None
    tau_path = raw_dir / "Sampling_Time[s].csv"
    tau_rows = _read_csv_matrix(tau_path) if tau_path.exists() else None
    for path, rows in ((f_path, f_rows), (tau_path, tau_rows)):
        if rows is not None and len(rows) != len(b_rows):
            raise DataError(f"{path}: {len(rows)} rows for {len(b_rows)} sequences")
    sequences = []
    for i, (b_row, h_row, t_row) in enumerate(zip(b_rows, h_rows, t_rows)):
        if not h_row.any():
            raise DataError(f"{raw_dir}: sequence {i}: H is all zero")
        try:
            sequences.append(MeasuredSequence(
                b=b_row, h=h_row,
                temperature_c=float(t_row[0]),
                tau_s=float(tau_rows[i][0]) if tau_rows else DEFAULT_TAU_S,
                material_id=material,
                f_sw_hz=float(f_rows[i][0]) if f_rows else None,
            ))
        except DataError as exc:  # unequal B and H, too few samples or a sampling time <= 0
            raise DataError(f"{raw_dir}: sequence {i}: {exc}") from None
    return sequences


def _adapt_canonical(raw_dir: Path, material: str) -> list[MeasuredSequence]:
    paths = sorted(raw_dir.glob("*.csv"))
    seqs = [read_sequence(p) for p in paths]
    for s in seqs:
        s.material_id = s.material_id or material
    return seqs


ADAPTERS = {"magnetx": _adapt_magnetx, "canonical": _adapt_canonical}
#: Whether a raw directory holds each adapter's layout, in the order detection tries them.
LAYOUTS = {"magnetx": lambda raw_dir: (raw_dir / "B_waveform[T].csv").exists(),
           "canonical": lambda raw_dir: any(p.with_suffix(".json").exists()
                                            for p in raw_dir.glob("*.csv"))}


def detect_adapter(raw_dir: Path) -> str:
    """The first adapter whose layout ``raw_dir`` holds; none raises :class:`DataError`."""
    raw_dir = Path(raw_dir)
    for name, holds in LAYOUTS.items():
        if holds(raw_dir):
            return name
    raise DataError(f"unknown raw layout under {raw_dir}: no sequences found")


def resolve_adapter(raw_dir: Path, name: str | None) -> str:
    """``name`` when ``raw_dir`` holds its layout, or :func:`detect_adapter` when ``name``
    is None. A directory without the layout raises :class:`DataError` naming it."""
    if name is None:
        return detect_adapter(raw_dir)
    if name not in LAYOUTS:
        raise DataError(f"unknown adapter {name!r}")
    if not LAYOUTS[name](Path(raw_dir)):
        raise DataError(f"no {name} layout under {raw_dir}")
    return name


def read_raw_material(raw_dir: Path, material: str | None = None,
                      adapter: str | None = None) -> tuple[str, list[MeasuredSequence]]:
    """Read and check one raw material directory; writes nothing.

    Returns (material name, sequences) for :func:`ingest_material`.
    """
    raw_dir = Path(raw_dir)
    material = material or raw_dir.name
    sequences = ADAPTERS[resolve_adapter(raw_dir, adapter)](raw_dir, material)
    if not sequences:
        raise DataError(f"no sequences found under {raw_dir}")
    return material, sequences


def ingest_material(out_dir: Path, material: str, sequences) -> int:
    """Write what :func:`read_raw_material` read as a canonical material; returns the
    sequence count."""
    write_material(out_dir, material, sequences)
    return len(sequences)
