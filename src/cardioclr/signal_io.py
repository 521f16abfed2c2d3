"""Decoding, homogenization and windowing of heart-sound recordings.

Every recording is brought to a common format: mono, 2 kHz, first and final
2 s discarded, then cut into 5 s windows with 50% overlap. Each window keeps
the original dataset label (when one exists) plus a binary normal/abnormal
label so models can be evaluated across datasets.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._atomic import replace_dir_atomic
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
# per_recording keeps every window of a recording in one split
SPLIT_GRANULARITIES = ("per_recording", "per_window")

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
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise FormatError(f"recording {self.record_id!r} contains non-finite samples")
        if self.dataset_tag not in DATASET_TAGS:
            raise ParameterError(f"unknown dataset tag {self.dataset_tag!r}")


@dataclass
class LabeledWindow:
    """A 5 s window at 2 kHz carrying original and binary labels."""

    samples: np.ndarray
    record_id: str
    dataset_tag: str
    window_index: int
    original_label: Optional[str] = None
    binary_label: Optional[str] = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float32)
        if self.samples.shape != (WINDOW_SAMPLES,):
            raise ParameterError(
                f"window must have exactly {WINDOW_SAMPLES} samples, got {self.samples.shape}"
            )
        if not np.all(np.isfinite(self.samples)):
            raise FormatError(f"window {self.record_id}/{self.window_index} is non-finite")
        if self.original_label is not None and self.binary_label is None:
            raise ParameterError("binary_label must be set whenever original_label is set")
        if self.window_index < 0:
            raise ParameterError("window_index must be non-negative")


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
    format_version: int = 1

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
        body = data[pos + 8 : pos + 8 + chunk_size]
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
        raw = np.frombuffer(payload[: len(payload) - len(payload) % 2], dtype="<i2")
        samples = raw.astype(np.float64)
        samples /= 32768.0
    elif audio_format == _WAVE_FORMAT_IEEE_FLOAT and bits == 32:
        raw = np.frombuffer(payload[: len(payload) - len(payload) % 4], dtype="<f4")
        samples = np.clip(raw.astype(np.float64), -1.0, 1.0)
    else:
        raise UnsupportedFormatError(
            f"unsupported encoding: format={audio_format} bits={bits}"
        )
    if samples.size == 0:
        raise FormatError("empty data chunk")
    if not np.all(np.isfinite(samples)):
        raise FormatError("non-finite samples in data chunk")
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

    The padded input is split once into its `down` polyphase components
    (`xpz[c::down]`, each contiguous). Outputs `up` apart share a branch and
    their inputs step by `down`, so each tap reads one contiguous slice of
    one component, with no gather. Each output sums the same float64
    products in the same tap order as the per-sample definition: same bytes.
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

    # zero margin keeps every q - i inside xpz; its length is a multiple of `down`
    margin = num_taps // up + 2
    xpz = np.zeros(-(-(n_in + 2 * (pad + margin)) // down) * down)
    xpz[margin : margin + pad] = x[0]
    xpz[margin + pad : margin + pad + n_in] = x
    xpz[margin + pad + n_in : margin + 2 * pad + n_in] = x[-1]
    # comps[c] is xpz[c::down], copied contiguous
    comps = xpz.reshape(-1, down).T.copy()

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


def trim_edges(rec: RawRecording, seconds: float = TRIM_SECONDS) -> RawRecording:
    """Drop `seconds` from each end; an empty result is valid."""
    n = int(round(seconds * rec.sample_rate))
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


def split_indices(
    windows: Sequence,
    ratios: Sequence[float],
    seed: int,
    granularity: str = "per_recording",
) -> tuple[list[int], ...]:
    """Deterministic index split. With per_recording granularity all windows
    of one recording land in the same split (50% overlap would otherwise leak
    audio between train and test)."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ParameterError(f"split ratios must sum to 1, got {ratios}")
    if granularity not in SPLIT_GRANULARITIES:
        raise ParameterError(f"unknown granularity {granularity!r}")
    n = len(windows)
    if n == 0:
        return tuple([] for _ in ratios)
    rng = np.random.default_rng(seed)
    cum = np.cumsum(ratios)

    if granularity == "per_window":
        order = rng.permutation(n)
        bounds = [int(round(c * n)) for c in cum]
        out, start = [], 0
        for b in bounds:
            out.append(sorted(int(i) for i in order[start:b]))
            start = b
        return tuple(out)

    groups: dict[str, list[int]] = {}
    for i, w in enumerate(windows):
        groups.setdefault(w.record_id, []).append(i)
    keys = list(groups)
    rng.shuffle(keys)
    targets = [c * n for c in cum]
    out = [[] for _ in ratios]
    split, used = 0, 0
    for key in keys:
        out[split].extend(groups[key])
        used += len(groups[key])
        while split < len(ratios) - 1 and used >= round(targets[split]):
            split += 1
    return tuple(sorted(part) for part in out)


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
    lub_hz: float = 40.0
    dub_hz: float = 60.0
    burst_amp: float = 0.6
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
        for name in ("burst_amp", "murmur_amp", "noise_floor"):
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

    x = prof.burst_amp * burst(0.10 * period, prof.lub_hz, 0.030)
    x += prof.burst_amp * 0.8 * burst(0.40 * period, prof.dub_hz, 0.025)
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
    lines = [f"# cardioclr manifest v{manifest.format_version}"]
    for e in manifest.entries:
        label = e.original_label if e.original_label is not None else ""
        lines.append(f"{e.path}\t{e.record_id}\t{e.dataset_tag}\t{label}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
_STORE_ENTRY_FIELDS = ("record_id", "dataset_tag", "window_index", "original_label", "binary_label")


def write_window_store(out_dir, windows: Sequence[LabeledWindow]) -> None:
    """Persist windows as raw little-endian float32 plus a JSON label sidecar.
    The store directory is replaced whole (`replace_dir_atomic`)."""
    if windows:
        matrix = np.stack([w.samples for w in windows]).astype("<f4", copy=False)
    else:
        matrix = np.zeros((0, WINDOW_SAMPLES), dtype="<f4")
    meta = {
        "format_version": 1,
        "dtype": "<f4",
        "window_samples": WINDOW_SAMPLES,
        "count": len(windows),
        "entries": [{k: getattr(w, k) for k in _STORE_ENTRY_FIELDS} for w in windows],
    }

    def fill(tmp: Path) -> None:
        matrix.tofile(tmp / "windows.f32")
        (tmp / "windows.json").write_text(
            json.dumps(meta, sort_keys=True, indent=1), encoding="utf-8"
        )

    replace_dir_atomic(out_dir, fill)


def read_window_store(store_dir) -> tuple[np.ndarray, list[LabeledWindow]]:
    store_dir = Path(store_dir)
    try:
        meta = json.loads((store_dir / "windows.json").read_text(encoding="utf-8"))
        count, width, entries = meta["count"], meta["window_samples"], meta["entries"]
        labels = [{k: e[k] for k in _STORE_ENTRY_FIELDS} for e in entries]
    except (ValueError, KeyError, TypeError) as err:
        raise FormatError(f"{store_dir}: malformed windows.json ({err!r})") from err
    if meta.get("format_version") != 1 or meta.get("dtype") != "<f4":
        raise FormatError(f"unsupported window store at {store_dir}")
    if len(entries) != count:
        raise FormatError(f"{store_dir}: windows.json lists {len(entries)} entries, not {count}")
    matrix = np.fromfile(store_dir / "windows.f32", dtype="<f4")
    if matrix.size != count * width:
        raise FormatError(
            f"{store_dir}: windows.f32 holds {matrix.size} samples, not {count} x {width}"
        )
    matrix = matrix.reshape(count, width)
    try:
        windows = [LabeledWindow(samples=matrix[i], **kw) for i, kw in enumerate(labels)]
    except (CardioclrError, TypeError, ValueError) as err:
        raise FormatError(f"{store_dir}: bad window ({err})") from err
    return matrix, windows


def prepare_manifest(manifest_path, out_dir) -> dict[str, int]:
    """Run the homogenization pipeline over a manifest and emit one window
    store per dataset tag under `out_dir`. Returns window counts per tag."""
    manifest_path = Path(manifest_path)
    manifest = read_manifest(manifest_path)
    base = manifest_path.parent
    per_tag: dict[str, list[LabeledWindow]] = {}
    for entry in manifest.entries:
        wav_path = Path(entry.path)
        if not wav_path.is_absolute():
            wav_path = base / wav_path
        try:
            rec = decode_wav(wav_path.read_bytes(), entry.record_id, entry.dataset_tag,
                             entry.original_label)
            rec = resample(rec, TARGET_RATE)
            rec = trim_edges(rec, TRIM_SECONDS)
            windows = extract_windows(rec)
        except CardioclrError as err:
            raise type(err)(f"{wav_path} ({manifest_path} line {entry.line}): {err}") from err
        for w in windows:
            per_tag.setdefault(entry.dataset_tag, []).append(w)
    counts = {}
    for tag, windows in sorted(per_tag.items()):
        write_window_store(Path(out_dir) / tag, windows)
        counts[tag] = len(windows)
    return counts
