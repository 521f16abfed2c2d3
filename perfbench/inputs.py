"""Deterministic benchmark inputs, made from the workload seed.

Runs as a child process of `run.py`, so the memory that synthesis takes never
shows in the measured process's peak RSS:

    python3 perfbench/inputs.py <workload> <seed> <out_dir>

It writes synthetic WAVs with the package's own generator, manifests, and
(for `pretrain` and `sweep`) the window stores those workloads read in set-up,
plus `inputs.json`, which lists what was made.
"""

from __future__ import annotations

import json
import random
import struct
import sys
from pathlib import Path

from cardioclr import signal_io
from cardioclr.signal_io import DatasetManifest, ManifestEntry, SynthProfile

# One synthetic domain per dataset tag: distinct murmur bands, amplitudes and
# noise floors, so OOD evaluation crosses a real distribution shift.
DOMAINS = {
    "ephnogram": dict(murmur_band=(150.0, 400.0), murmur_amp=0.12, noise_floor=0.002),
    "fpcgdb": dict(murmur_band=(200.0, 450.0), murmur_amp=0.10, noise_floor=0.01),
    "pascal": dict(murmur_band=(150.0, 400.0), murmur_amp=0.12, noise_floor=0.005),
    "physionet2016": dict(murmur_band=(250.0, 500.0), murmur_amp=0.10, noise_floor=0.03),
    "physionet2022": dict(murmur_band=(100.0, 300.0), murmur_amp=0.14, noise_floor=0.015, beat_hz=1.3),
}
# (normal, abnormal) label of each labeled dataset's own label set
LABELS = {
    "pascal": ("Normal", "Murmur"),
    "physionet2016": ("normal", "abnormal"),
    "physionet2022": ("absent", "present"),
}
HZ = signal_io.TARGET_RATE
# Ingest recording pairs per labeled tag: (native rate, pairs, mean seconds).
# Most of the audio is at 4 and 8 kHz, as in the real corpora; 44.1 kHz is one
# shorter pair in `pascal` only. Its resampling gathers from a multi-MiB array
# that spills a core's private cache, so on a shared host its speed swings
# with other processes' load two to three times as much as the rest of the
# pipeline; were it most of the run, throughput would mostly measure them.
INGEST_MIX = {
    "pascal": [(HZ, 1, 20.0), (4000, 4, 20.0), (8000, 4, 20.0), (44100, 1, 12.0)],
    "physionet2016": [(HZ, 1, 20.0), (4000, 4, 20.0), (8000, 4, 20.0)],
    "physionet2022": [(HZ, 1, 20.0), (4000, 4, 20.0), (8000, 4, 20.0)],
}


def _tag_seed(seed: int, tag: str) -> int:
    return seed * 10 + sorted(DOMAINS).index(tag)


def write_recordings(wav_dir: Path, tag: str, seed: int,
                     recordings: list[tuple[float, int]]) -> list[ManifestEntry]:
    """One WAV per (seconds, sample rate) pair, alternately without and with a
    murmur, plus the tag's manifest (`wav_dir/manifest.tsv`)."""
    wav_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (seconds, rate) in enumerate(recordings):
        profile = SynthProfile(sample_rate=rate, min_seconds=seconds, max_seconds=seconds,
                               **DOMAINS[tag])
        made = signal_io.generate_synthetic_manifest(
            wav_dir, _tag_seed(seed, tag) * 100 + i, 1, class_spec=(1 - i % 2, i % 2),
            profile=profile, prefix=f"{tag}_{rate}_{i}",
        )
        label = LABELS[tag][i % 2] if tag in LABELS else None
        entries.append(ManifestEntry(made.entries[0].path, made.entries[0].record_id, tag, label))
    signal_io.write_manifest(DatasetManifest(entries), wav_dir / "manifest.tsv")
    return entries


def build_store_per_recording(wav_dir: Path, entries, store_dir: Path) -> None:
    """Homogenize recordings one by one into a window store. Used for the
    unlabeled corpora, whose manifests `read_manifest` cannot read back."""
    windows = []
    for e in entries:
        rec = signal_io.decode_wav((wav_dir / e.path).read_bytes(), record_id=e.record_id,
                                   dataset_tag=e.dataset_tag, original_label=e.original_label)
        rec = signal_io.trim_edges(signal_io.resample(rec))
        windows.extend(signal_io.extract_windows(rec))
    signal_io.write_window_store(store_dir, windows)


def wav_shape(path: Path) -> tuple[int, int]:
    """(sample rate, sample count) of a mono PCM16 WAV as the generator writes it."""
    with path.open("rb") as fh:
        head = fh.read(44)
    rate = struct.unpack_from("<I", head, 24)[0]
    n_bytes = struct.unpack_from("<I", head, 40)[0]
    return rate, n_bytes // 2


def make_pretrain(out: Path, seed: int) -> dict:
    # 2 x 6 recordings of 17 s give 4 windows each: 48 windows, 38 train / 10
    # val, so two batches of 16 per epoch
    for tag in signal_io.UNLABELED_TAGS:
        entries = write_recordings(out / "wav" / tag, tag, seed, [(17.0, HZ)] * 6)
        build_store_per_recording(out / "wav" / tag, entries, out / "stores" / tag)
    return {}


def make_sweep(out: Path, seed: int) -> dict:
    # Fixed recording lengths keep the amount of work independent of the seed.
    for tag in signal_io.UNLABELED_TAGS:
        entries = write_recordings(out / "wav" / tag, tag, seed, [(19.0, HZ)] * 6)
        build_store_per_recording(out / "wav" / tag, entries, out / "stores" / tag)
    for tag in LABELS:
        write_recordings(out / "wav" / tag, tag, seed, [(14.0, HZ)] * 12)
        signal_io.prepare_manifest(out / "wav" / tag / "manifest.tsv", out / "stores")
    return {}


def make_ingest(out: Path, seed: int) -> dict:
    # Lengths vary with the seed (and cross window-count boundaries), but
    # each pair sums to twice its mean, so the resampling work does not.
    rng = random.Random(seed)
    manifests = []
    for tag in sorted(DOMAINS):
        wav_dir = out / "wav" / tag
        if tag in LABELS:
            lengths = []
            for rate, pairs, mean_s in INGEST_MIX[tag]:
                for _ in range(pairs):
                    delta = round(rng.uniform(0.0, 3.0), 3)
                    lengths += [(mean_s - delta, rate), (mean_s + delta, rate)]
        else:
            lengths = [(15.0, HZ)] * 4
        entries = write_recordings(wav_dir, tag, seed, lengths)
        recordings = {}
        for e in entries:
            rate, n = wav_shape(wav_dir / e.path)
            recordings[e.record_id] = {"rate": rate, "samples": n}
        manifests.append({"tag": tag, "path": f"wav/{tag}/manifest.tsv", "recordings": recordings})
    return {"manifests": manifests}


MAKERS = {"pretrain": make_pretrain, "sweep": make_sweep, "ingest": make_ingest}


def main(argv) -> None:
    workload, seed, out = argv[0], int(argv[1]), Path(argv[2])
    out.mkdir(parents=True, exist_ok=True)
    listing = MAKERS[workload](out, seed)
    (out / "inputs.json").write_text(json.dumps(listing, sort_keys=True), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
