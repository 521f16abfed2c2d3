"""Decoding, homogenization and windowing of heart-sound recordings.

Every recording is brought to a common format: mono, 2 kHz, first and final
2 s discarded, then cut into 5 s windows with 50% overlap. Each window keeps
the original dataset label (when one exists) plus a binary normal/abnormal
label so models can be evaluated across datasets.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import struct
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._atomic import replace_dir_atomic, write_atomic
from ._dsp import highpass_taps, lowpass_taps
from .errors import (CardioclrError, FormatError, LabelError, ParameterError,
                     UnsupportedFormatError, parse_text_file)

TARGET_RATE = 2000
WINDOW_SAMPLES = 10000  # 5 s at TARGET_RATE
TRIM_SECONDS = 2.0

DATASET_TAGS = (
    "ephnogram",
    "fpcgdb",
    "pascal",
    "physionet2016",
    "physionet2022",
    "synthetic",
)
UNLABELED_TAGS = ("ephnogram", "fpcgdb")
LABELED_TAGS = ("pascal", "physionet2016", "physionet2022")
# train/val/test shares of a dataset's windows
SPLIT_RATIOS = (0.7, 0.2, 0.1)

NORMAL = "normal"
ABNORMAL = "abnormal"

# Declared label sets and which single class maps to `normal`. Recordings
# labeled "unknown" count as abnormal, and Pascal's "Artifact" does too:
# only explicitly normal recordings map to normal.
LABEL_SETS = {
    "pascal": ("Normal", "Murmur", "Extra Heart Sound", "Artifact", "Extrasystole"),
    "physionet2016": ("normal", "abnormal"),
    "physionet2022": ("present", "absent", "unknown"),
    "synthetic": ("normal", "abnormal"),
}
NORMAL_LABELS = {
    "pascal": "Normal",
    "physionet2016": "normal",
    "physionet2022": "absent",
    "synthetic": "normal",
}


@dataclass
class RawRecording:
    """A decoded mono signal plus provenance metadata."""

    samples: np.ndarray
    sample_rate: int
    record_id: str
    dataset_tag: str = "synthetic"
    original_label: Optional[str] = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ParameterError("recording samples must be 1-D")
        if int(self.sample_rate) <= 0:
            raise ParameterError(f"sample rate must be positive, got {self.sample_rate}")
        self.sample_rate = int(self.sample_rate)
        # min and max are NaN or infinite if any sample is, and allocate no mask
        if self.samples.size and not np.isfinite([self.samples.min(), self.samples.max()]).all():
            raise FormatError(f"recording {self.record_id!r} contains non-finite samples")
        if self.dataset_tag not in DATASET_TAGS:
            raise ParameterError(f"unknown dataset tag {self.dataset_tag!r}")


@dataclass
class WindowMeta:
    """Where a 5 s window comes from and its original and binary labels:
    what a window store keeps of each window next to its samples."""

    record_id: str
    dataset_tag: str
    window_index: int
    original_label: Optional[str] = None
    binary_label: Optional[str] = None

    def __post_init__(self):
        if self.original_label is not None and self.binary_label is None:
            raise ParameterError("binary_label must be set whenever original_label is set")
        if self.window_index < 0:
            raise ParameterError("window_index must be non-negative")


@dataclass
class LabeledWindow(WindowMeta):
    """A 5 s window at 2 kHz carrying original and binary labels."""

    samples: np.ndarray = field(kw_only=True)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float32)
        if self.samples.shape != (WINDOW_SAMPLES,):
            raise ParameterError(
                f"window must have exactly {WINDOW_SAMPLES} samples, got {self.samples.shape}"
            )
        if not np.all(np.isfinite(self.samples)):
            raise FormatError(f"window {self.record_id}/{self.window_index} is non-finite")
        super().__post_init__()


@dataclass
class ManifestEntry:
    path: str
    record_id: str
    dataset_tag: str
    original_label: Optional[str] = None
    line: Optional[int] = field(default=None, compare=False)  # set by read_manifest


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry] = field(default_factory=list)

    def __post_init__(self):
        ids = [e.record_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ParameterError("record_ids must be unique within a manifest")


# ---------------------------------------------------------------------------
# WAV decode / encode
# ---------------------------------------------------------------------------

_WAVE_FORMAT_PCM = 1
_WAVE_FORMAT_IEEE_FLOAT = 3


def decode_wav(
    data: bytes,
    record_id: str = "",
    dataset_tag: str = "synthetic",
    original_label: Optional[str] = None,
) -> RawRecording:
    """Decode a mono RIFF/WAVE byte string (PCM16 or float32).

    Amplitudes are normalized to [-1, 1]; the sample rate is read from the
    header. Raises FormatError for malformed containers and
    UnsupportedFormatError for multi-channel or unsupported encodings.
    """
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise FormatError("not a RIFF/WAVE container")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = memoryview(data)[pos + 8 : pos + 8 + chunk_size]  # a view, not a copy
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise FormatError("fmt chunk truncated")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise FormatError("data chunk truncated")
            payload = body
        pos += 8 + chunk_size + (chunk_size & 1)

    if fmt is None:
        raise FormatError("missing fmt chunk")
    if payload is None:
        raise FormatError("missing data chunk")

    audio_format, channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if channels != 1:
        raise UnsupportedFormatError(f"expected mono audio, got {channels} channels")
    if sample_rate > 192_000:  # the resampler's filter length and time grow with the rate
        raise UnsupportedFormatError(f"sample rate {sample_rate} Hz is above 192 kHz")
    if audio_format == _WAVE_FORMAT_PCM and bits == 16:
        samples = np.frombuffer(payload, dtype="<i2", count=len(payload) // 2).astype(np.float64)
        samples /= 32768.0
    elif audio_format == _WAVE_FORMAT_IEEE_FLOAT and bits == 32:
        samples = np.frombuffer(payload, dtype="<f4", count=len(payload) // 4).astype(np.float64)
        # RawRecording rejects what clipping would hide: an inf is not 1.0
        np.clip(samples, -1.0, 1.0, out=samples, where=np.isfinite(samples))
    else:
        raise UnsupportedFormatError(
            f"unsupported encoding: format={audio_format} bits={bits}"
        )
    if samples.size == 0:
        raise FormatError("empty data chunk")
    return RawRecording(
        samples=samples,
        sample_rate=sample_rate,
        record_id=record_id,
        dataset_tag=dataset_tag,
        original_label=original_label,
    )


def encode_wav_pcm16(samples: np.ndarray, sample_rate: int) -> bytes:
    """Encode samples in [-1, 1] as a mono 16-bit PCM WAV byte string."""
    x = np.asarray(samples, dtype=np.float64)
    quantized = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2")
    payload = quantized.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        _WAVE_FORMAT_PCM,
        1,
        sample_rate,
        sample_rate * 2,
        2,
        16,
        b"data",
        len(payload),
    )
    return header + payload


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------


def _polyphase_resample(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """Band-limited rational-rate resampling by `up/down`.

    Windowed-sinc anti-aliasing low-pass at the upsampled rate; each polyphase
    branch is normalized to unit DC gain so constants pass through exactly.
    Edges are replicated before filtering to avoid boundary droop.

    The padded input `xpz` is written straight into its `down` polyphase
    components (`comps[c] = xpz[c::down]`, each contiguous), and is held
    only that way. Outputs `up` apart share a branch and their inputs step
    by `down`, so each tap reads one contiguous slice of one component, with
    no gather. Each output sums the same float64 products in the same tap
    order as the per-sample definition: same bytes.
    """
    n_in = x.size
    n_out = _resampled_length(n_in, up, down)
    if n_in == 0 or n_out == 0:
        return np.zeros(n_out, dtype=np.float64)

    half = 10 * max(up, down)
    num_taps = 2 * half + 1
    cutoff = 0.5 / max(up, down)
    taps = lowpass_taps(num_taps, cutoff) * up

    # Edge padding by a whole number of `down` input samples keeps the
    # output grid aligned: P*up/down output samples are cropped per side.
    pad = down * math.ceil((half / up + 1) / down)
    shift = pad * up // down

    # xpz is margin zeros, pad copies of x[0], x, pad copies of x[-1], then
    # at least margin zeros. The zero margin keeps every q - i inside xpz;
    # margin, pad and the length of xpz are whole multiples of `down`.
    margin = down * -(-(num_taps // up + 2) // down)
    comps = np.zeros((down, (2 * (margin + pad) + n_in) // down + 1))
    # xpz[r * down + c] is rows[r, c]: xpz in rows of `down` samples
    rows = comps.T
    r0, whole = (margin + pad) // down, n_in // down
    rows[margin // down : r0] = x[0]
    end = r0 + whole  # the row where x ends and its x[-1] copies start
    rows[end : end + pad // down + 1] = x[-1]
    rows[r0:end] = x[: whole * down].reshape(whole, down)
    rows[end, : n_in - whole * down] = x[whole * down :]
    rows[end + pad // down, n_in - whole * down :] = 0.0

    out = np.empty(n_out, dtype=np.float64)
    # Per output sample n (group-delay compensated):
    #   out[n] = sum_i taps[r + i*up] * xp[q - i],  q, r = divmod(n*down + half, up)
    # Outputs n0, n0+up, ... share r and their q step by `down`, so at tap i
    # they read one slice of the component holding xpz[q0 + margin - i].
    for n0 in range(shift, shift + min(up, n_out)):
        q0, r = divmod(n0 * down + half, up)
        count = len(range(n0 - shift, n_out, up))
        branch = taps[r::up]
        # unit branch DC gain: constants pass through exactly at every phase
        branch = branch / branch.sum()
        acc = np.zeros(count, dtype=np.float64)
        term = np.empty(count, dtype=np.float64)
        for i, coeff in enumerate(branch):
            s, c = divmod(q0 + margin - i, down)
            np.multiply(comps[c, s : s + count], coeff, out=term)
            acc += term
        out[n0 - shift :: up] = acc
    return out


def _resampled_length(n_in: int, up: int, down: int) -> int:
    q, r = divmod(n_in * up, down)
    return q + (1 if 2 * r >= down else 0)


def resample(rec: RawRecording, target_hz: int = TARGET_RATE) -> RawRecording:
    """Resample a recording to `target_hz` with anti-aliasing when decimating."""
    if target_hz <= 0:
        raise ParameterError("target rate must be positive")
    if rec.sample_rate == target_hz:
        return replace(rec, samples=rec.samples.copy())
    g = math.gcd(rec.sample_rate, target_hz)
    up, down = target_hz // g, rec.sample_rate // g
    out = _polyphase_resample(rec.samples, up, down)
    return replace(rec, samples=out, sample_rate=target_hz)


# ---------------------------------------------------------------------------
# Trimming, windowing, labeling
# ---------------------------------------------------------------------------


def trim_edges(rec: RawRecording) -> RawRecording:
    """Drop TRIM_SECONDS from each end; an empty result is valid."""
    n = int(round(TRIM_SECONDS * rec.sample_rate))
    if rec.samples.size <= 2 * n:
        trimmed = rec.samples[:0]
    else:
        trimmed = rec.samples[n : rec.samples.size - n]
    return replace(rec, samples=trimmed.copy())


def assign_labels(dataset_tag: str, original_label: Optional[str]):
    """Map a dataset-specific label to (original, binary) labels.

    Unlabeled input stays unlabeled. A window is `normal` only when the
    original label is the dataset's explicitly-normal class; everything else
    (murmur present, artifacts, extrasystoles, unknown) maps to `abnormal`.
    """
    if original_label is None:
        return None, None
    labels = LABEL_SETS.get(dataset_tag)
    if labels is None:
        raise LabelError(f"dataset {dataset_tag!r} carries no labels")
    if original_label not in labels:
        raise LabelError(f"label {original_label!r} not in {dataset_tag} label set")
    binary = NORMAL if original_label == NORMAL_LABELS[dataset_tag] else ABNORMAL
    return original_label, binary


def extract_windows(rec: RawRecording) -> list[LabeledWindow]:
    """Cut a homogenized recording into `WINDOW_SAMPLES` windows with 50%
    overlap."""
    if rec.sample_rate != TARGET_RATE:
        raise ParameterError(
            f"windows are extracted at {TARGET_RATE} Hz; resample first "
            f"(got {rec.sample_rate} Hz)"
        )
    n = rec.samples.size
    if n < WINDOW_SAMPLES:
        return []
    original, binary = assign_labels(rec.dataset_tag, rec.original_label)
    windows = []
    for idx, start in enumerate(range(0, n - WINDOW_SAMPLES + 1, WINDOW_SAMPLES // 2)):
        windows.append(
            LabeledWindow(
                samples=rec.samples[start : start + WINDOW_SAMPLES].astype(np.float32),
                record_id=rec.record_id,
                dataset_tag=rec.dataset_tag,
                window_index=idx,
                original_label=original,
                binary_label=binary,
            )
        )
    return windows


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------


def split_indices(windows: Sequence, seed: int) -> tuple[list[int], ...]:
    """Deterministic train/val/test index split in `SPLIT_RATIOS` shares of
    the windows. All windows of one recording land in the same part (50%
    overlap would otherwise leak audio between train and test), and each
    part gets a recording while enough are left, so from 3 recordings on no
    part is empty."""
    groups: dict[str, list[int]] = {}
    for i, w in enumerate(windows):
        groups.setdefault(w.record_id, []).append(i)
    keys = list(groups)
    np.random.default_rng(seed).shuffle(keys)
    targets = np.cumsum(SPLIT_RATIOS) * len(windows)
    out = [[] for _ in SPLIT_RATIOS]
    last = len(out) - 1
    part, used = 0, 0
    for done, key in enumerate(keys, 1):
        out[part].extend(groups[key])
        used += len(groups[key])
        # one part per recording at most; move on early when the recordings
        # left are only enough for one each of the parts after this one
        if part < last and (used >= round(targets[part]) or len(keys) - done == last - part):
            part += 1
    return tuple(sorted(p) for p in out)


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthProfile:
    """Knobs for the synthetic heart-sound generator.

    Class A is a periodic dual-burst "lub-dub" pulse train; class B adds
    band-limited murmur noise between the bursts. Changing the murmur band
    and noise floor produces distinct synthetic "domains" for OOD studies.
    """

    sample_rate: int = TARGET_RATE
    beat_hz: float = 1.0
    murmur_band: tuple[float, float] = (150.0, 400.0)
    murmur_amp: float = 0.12
    noise_floor: float = 0.002
    min_seconds: float = 10.0
    max_seconds: float = 30.0

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ParameterError(f"sample rate must be positive, got {self.sample_rate}")
        if not 0 < self.min_seconds <= self.max_seconds:
            raise ParameterError(f"need 0 < min_seconds <= max_seconds, got "
                                 f"{self.min_seconds} and {self.max_seconds}")
        if not 0 <= self.murmur_band[0] < self.murmur_band[1] < self.sample_rate / 2:
            raise ParameterError(f"murmur band {self.murmur_band} Hz must satisfy 0 <= low < high "
                                 f"< rate/2 = {self.sample_rate / 2}")
        for name in ("murmur_amp", "noise_floor"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be non-negative, got {getattr(self, name)}")


def _bandpass(x: np.ndarray, lo_hz: float, hi_hz: float, fs: int) -> np.ndarray:
    lp = lowpass_taps(201, hi_hz / fs)
    hp = highpass_taps(201, lo_hz / fs)
    y = np.convolve(x, lp, mode="same")
    return np.convolve(y, hp, mode="same")


def _synth_recording(rng: np.random.Generator, abnormal: bool, prof: SynthProfile) -> np.ndarray:
    fs = prof.sample_rate
    seconds = float(rng.uniform(prof.min_seconds, prof.max_seconds))
    n = int(round(seconds * fs))
    t = np.arange(n) / fs
    period = 1.0 / prof.beat_hz
    phase = np.mod(t, period)

    def burst(center: float, freq: float, width: float) -> np.ndarray:
        envelope = np.exp(-0.5 * ((phase - center) / width) ** 2)
        return envelope * np.sin(2 * np.pi * freq * t)

    # "lub" at 40 Hz and amplitude 0.6, then "dub" at 60 Hz and 0.8 of that
    x = 0.6 * burst(0.10 * period, 40.0, 0.030)
    x += 0.6 * 0.8 * burst(0.40 * period, 60.0, 0.025)
    x += prof.noise_floor * rng.standard_normal(n)

    if abnormal:
        murmur = _bandpass(rng.standard_normal(n), *prof.murmur_band, fs)
        rms = float(np.sqrt(np.mean(murmur**2)))
        if rms > 0:
            murmur *= prof.murmur_amp / rms
        # confine the murmur to the systolic gap between the two bursts
        gate = ((phase > 0.16 * period) & (phase < 0.34 * period)).astype(np.float64)
        gate = np.convolve(gate, np.hanning(int(0.02 * fs) * 2 + 1), mode="same")
        gate /= max(gate.max(), 1e-12)
        x += murmur * gate

    peak = float(np.max(np.abs(x)))
    if peak > 0.99:
        x *= 0.99 / peak
    return x


def generate_synthetic_manifest(
    out_dir,
    seed: int,
    n_recordings: int,
    class_spec: Optional[tuple[int, int]] = None,
    profile: SynthProfile = SynthProfile(),
    prefix: str = "synth",
) -> DatasetManifest:
    """Write `n_recordings` synthetic WAV files plus a manifest; deterministic
    for a fixed seed (byte-identical on re-run)."""
    if n_recordings <= 0:
        raise ParameterError("n_recordings must be positive")
    if class_spec is None:
        n_abnormal = n_recordings // 2
        class_spec = (n_recordings - n_abnormal, n_abnormal)
    if sum(class_spec) != n_recordings:
        raise ParameterError("class_spec must sum to n_recordings")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(n_recordings):
        abnormal = i >= class_spec[0]
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        x = _synth_recording(rng, abnormal, profile)
        record_id = f"{prefix}_{i:04d}"
        fname = f"{record_id}.wav"
        (out_dir / fname).write_bytes(encode_wav_pcm16(x, profile.sample_rate))
        entries.append(
            ManifestEntry(
                path=fname,
                record_id=record_id,
                dataset_tag="synthetic",
                original_label=ABNORMAL if abnormal else NORMAL,
            )
        )
    manifest = DatasetManifest(entries=entries)
    write_manifest(manifest, out_dir / "manifest.tsv")
    return manifest


# ---------------------------------------------------------------------------
# Manifest and window-store formats
# ---------------------------------------------------------------------------


def write_manifest(manifest: DatasetManifest, path) -> None:
    lines = ["# cardioclr manifest v1"]
    for e in manifest.entries:
        label = e.original_label if e.original_label is not None else ""
        lines.append(f"{e.path}\t{e.record_id}\t{e.dataset_tag}\t{label}")
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_manifest(path) -> DatasetManifest:
    return parse_text_file(path, _parse_manifest, FormatError)


def _parse_manifest(text: str) -> DatasetManifest:
    entries = []
    for lineno, line in enumerate(text.splitlines(), 1):
        # Split the line unstripped: an unlabeled entry ends in a tab.
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise FormatError(f"manifest line {lineno}: expected 4 tab-separated fields")
        path_, record_id, tag, label = parts
        if tag not in DATASET_TAGS:
            raise FormatError(f"manifest line {lineno}: unknown dataset tag {tag!r}")
        entries.append(
            ManifestEntry(
                path=path_,
                record_id=record_id,
                dataset_tag=tag,
                original_label=label if label else None,
                line=lineno,
            )
        )
    return DatasetManifest(entries=entries)


# per-window metadata a window store keeps in windows.json
_STORE_ENTRY_FIELDS = tuple(f.name for f in fields(WindowMeta))
# windows `read_window_store` checks per read: about 1 MiB of samples
_CHECK_ROWS = (1 << 20) // (4 * WINDOW_SAMPLES)


class _StoreFile:
    """The windows.f32 of a store being written, filled in window order,
    and the windows.json entry of each window written."""

    def __init__(self, fh):
        self.fh, self.entries = fh, []

    def append(self, windows: Sequence[LabeledWindow]) -> None:
        for w in windows:
            self.fh.write(np.ascontiguousarray(w.samples, dtype="<f4"))
            self.entries.append({k: getattr(w, k) for k in _STORE_ENTRY_FIELDS})


@contextmanager
def _new_store(out_dir):
    """A `_StoreFile` to fill in the `with` block. When the block exits
    cleanly windows.json is written last and the store replaces any old one
    at `out_dir` whole (`replace_dir_atomic`); on error the old store stays."""
    with replace_dir_atomic(out_dir) as tmp:
        with open(tmp / "windows.f32", "wb") as fh:
            store = _StoreFile(fh)
            yield store
        meta = {
            "format_version": 1,
            "dtype": "<f4",
            "window_samples": WINDOW_SAMPLES,
            "count": len(store.entries),
            "entries": store.entries,
        }
        (tmp / "windows.json").write_text(
            json.dumps(meta, sort_keys=True, indent=1), encoding="utf-8"
        )


def write_window_store(out_dir, windows: Sequence[LabeledWindow]) -> None:
    """Persist windows as raw little-endian float32 plus a JSON label sidecar.
    The store directory is replaced whole (`replace_dir_atomic`)."""
    with _new_store(out_dir) as store:
        store.append(windows)


def read_window_store(store_dir) -> tuple[np.ndarray, list[WindowMeta]]:
    """The (count, WINDOW_SAMPLES) sample matrix of a store and the
    `WindowMeta` of each row.

    The matrix is a read-only `np.memmap` of windows.f32: no sample is read
    into memory until it is used, and processes forked after the read share
    the page cache. Every sample is first checked finite through a buffer of
    about 1 MiB, read from the same open file the map is made of. Stores are
    replaced by rename, so a map stays valid after its store is replaced;
    truncating a mapped windows.f32 in place would make its readers fault.
    """
    store_dir = Path(store_dir)
    try:
        meta = json.loads((store_dir / "windows.json").read_text(encoding="utf-8"))
        count, width, entries = meta["count"], meta["window_samples"], meta["entries"]
        labels = [{k: e[k] for k in _STORE_ENTRY_FIELDS} for e in entries]
    except (ValueError, KeyError, TypeError) as err:
        raise FormatError(f"{store_dir}: malformed windows.json ({err!r})") from err
    if meta.get("format_version") != 1 or meta.get("dtype") != "<f4" or width != WINDOW_SAMPLES:
        raise FormatError(f"unsupported window store at {store_dir}")
    if len(entries) != count:
        raise FormatError(f"{store_dir}: windows.json lists {len(entries)} entries, not {count}")
    count = len(entries)
    try:
        metas = [WindowMeta(**kw) for kw in labels]
    except (CardioclrError, TypeError, ValueError) as err:
        raise FormatError(f"{store_dir}: bad window ({err})") from err
    with open(store_dir / "windows.f32", "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size != count * WINDOW_SAMPLES * 4:
            raise FormatError(f"{store_dir}: windows.f32 holds {size} bytes, "
                              f"not {count} x {WINDOW_SAMPLES} float32 samples")
        buf = np.empty((min(count, _CHECK_ROWS), WINDOW_SAMPLES), dtype="<f4")
        for start in range(0, count, _CHECK_ROWS):
            rows = min(_CHECK_ROWS, count - start)
            if fh.readinto(buf[:rows]) != buf[:rows].nbytes:
                raise FormatError(f"{store_dir}: windows.f32 shrank while it was read")
            bad = ~np.isfinite(buf[:rows]).all(axis=1)
            if bad.any():
                m = metas[start + int(np.argmax(bad))]
                raise FormatError(f"{store_dir}: window {m.record_id}/{m.window_index} "
                                  f"is non-finite")
        if count == 0:
            matrix = np.zeros((0, WINDOW_SAMPLES), dtype="<f4")
            matrix.flags.writeable = False
            return matrix, metas
        try:
            matrix = np.memmap(fh, dtype="<f4", mode="r", shape=(count, WINDOW_SAMPLES))
        except (OSError, ValueError) as err:  # the file shrank after the check
            raise FormatError(f"{store_dir}: cannot map windows.f32 ({err})") from err
    return matrix, metas


def prepare_manifest(manifest_path, out_dir) -> dict[str, int]:
    """Run the homogenization pipeline over a manifest and emit one window
    store per dataset tag under `out_dir`. Returns window counts per tag.

    Each recording's windows are appended to its tag's new store as soon as
    they are cut, so no more than one recording's windows are held. The new
    stores replace the old ones only once every recording is done: a
    recording that fails leaves every store as it was, and no temp
    directory (nor `out_dir`, if this call made it)."""
    manifest_path = Path(manifest_path)
    out_dir = Path(out_dir)
    manifest = read_manifest(manifest_path)
    base = manifest_path.parent
    made_out_dir = not out_dir.exists()
    stores: dict[str, _StoreFile] = {}
    try:
        with ExitStack() as stack:
            for entry in manifest.entries:
                wav_path = Path(entry.path)
                if not wav_path.is_absolute():
                    wav_path = base / wav_path
                try:
                    rec = decode_wav(wav_path.read_bytes(), entry.record_id, entry.dataset_tag,
                                     entry.original_label)
                    rec = resample(rec, TARGET_RATE)
                    rec = trim_edges(rec)
                    windows = extract_windows(rec)
                except (CardioclrError, OSError) as err:
                    raise type(err)(f"{wav_path} ({manifest_path} line {entry.line}): {err}") from err
                tag = entry.dataset_tag
                if windows:
                    if tag not in stores:
                        stores[tag] = stack.enter_context(_new_store(out_dir / tag))
                    stores[tag].append(windows)
    except BaseException:
        if made_out_dir:
            shutil.rmtree(out_dir, ignore_errors=True)
        raise
    return {tag: len(store.entries) for tag, store in sorted(stores.items())}
