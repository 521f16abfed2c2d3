"""Tests for decoding, resampling, trimming, windowing, labels and splits."""

import json
import math
import os
import re
import struct
import tracemalloc
import wave

import numpy as np
import pytest

from cardioclr import signal_io as sio
from cardioclr._dsp import lowpass_taps
from cardioclr.errors import (
    FormatError,
    LabelError,
    ParameterError,
    UnsupportedFormatError,
)


def make_pcm16_wav(samples_i16, rate, channels=1):
    """Independent WAV builder used as the decode oracle."""
    payload = b"".join(struct.pack("<h", s) for s in samples_i16)
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, 1, channels, rate, rate * 2 * channels, 2 * channels, 16,
        b"data", len(payload),
    )
    return header + payload


class TestDecodeWav:
    def test_pcm16_scaling(self):
        data = make_pcm16_wav([0, 16384, -16384], 2000)
        rec = sio.decode_wav(data, record_id="x")
        assert rec.sample_rate == 2000
        np.testing.assert_allclose(rec.samples, [0.0, 0.5, -0.5])

    def test_two_channels_rejected(self):
        payload = struct.pack("<hh", 1, 2)
        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(payload), b"WAVE",
            b"fmt ", 16, 1, 2, 2000, 8000, 4, 16,
            b"data", len(payload),
        )
        with pytest.raises(UnsupportedFormatError):
            sio.decode_wav(header + payload)

    def test_malformed_header(self):
        with pytest.raises(FormatError):
            sio.decode_wav(b"OGGSjunkjunkjunk")

    def test_unsupported_bits(self):
        payload = b"\x00" * 8
        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(payload), b"WAVE",
            b"fmt ", 16, 1, 1, 2000, 2000, 1, 8,
            b"data", len(payload),
        )
        with pytest.raises(UnsupportedFormatError):
            sio.decode_wav(header + payload)

    def test_float32_decode(self):
        samples = np.array([0.25, -0.75, 1.0], dtype="<f4")
        payload = samples.tobytes()
        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(payload), b"WAVE",
            b"fmt ", 16, 3, 1, 4000, 16000, 4, 32,
            b"data", len(payload),
        )
        rec = sio.decode_wav(header + payload)
        np.testing.assert_allclose(rec.samples, [0.25, -0.75, 1.0])

    def test_round_trip_within_half_lsb(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1.0, 1.0, 2000)
        rec = sio.decode_wav(sio.encode_wav_pcm16(x, 2000))
        assert np.max(np.abs(rec.samples - x)) <= 1.0 / 2**15

    def test_encode_readable_by_stdlib(self, tmp_path):
        x = np.array([0.0, 0.5, -0.5])
        path = tmp_path / "t.wav"
        path.write_bytes(sio.encode_wav_pcm16(x, 2000))
        with wave.open(str(path)) as wf:
            assert wf.getnchannels() == 1
            assert wf.getframerate() == 2000
            raw = np.frombuffer(wf.readframes(wf.getnframes()), dtype="<i2")
        np.testing.assert_allclose(raw / 32768.0, x)


def reference_polyphase_resample(x, up, down):
    """The resampler's arithmetic written per output sample: outputs are
    sorted by phase, and each tap gathers its inputs with an index array.
    Float64 throughout, taps applied in the same order as the library."""
    n_in = x.size
    n_out = sio._resampled_length(n_in, up, down)
    if n_in == 0 or n_out == 0:
        return np.zeros(n_out, dtype=np.float64)
    half = 10 * max(up, down)
    num_taps = 2 * half + 1
    taps = lowpass_taps(num_taps, 0.5 / max(up, down)) * up
    pad = down * math.ceil((half / up + 1) / down)
    shift = pad * up // down
    margin = num_taps // up + 2
    xpz = np.zeros(n_in + 2 * (pad + margin))
    xpz[margin : margin + pad] = x[0]
    xpz[margin + pad : margin + pad + n_in] = x
    xpz[margin + pad + n_in : margin + 2 * pad + n_in] = x[-1]

    out = np.empty(n_out, dtype=np.float64)
    # out[n] = sum_i taps[r + i*up] * xp[q - i],  q, r = divmod(n*down + half, up)
    t = np.arange(shift, shift + n_out) * down + half
    phases = t % up
    offsets = t // up + margin
    order = np.argsort(phases, kind="stable")
    bounds = np.searchsorted(phases[order], np.arange(up + 1))
    for r in range(up):
        lo, hi = bounds[r], bounds[r + 1]
        if lo == hi:
            continue
        branch = taps[r::up]
        branch = branch / branch.sum()
        sel = order[lo:hi]
        q = offsets[sel]
        acc = np.zeros(q.size, dtype=np.float64)
        for i, coeff in enumerate(branch):
            acc += coeff * xpz[q - i]
        out[sel] = acc
    return out


def _up_down(orig, target):
    g = math.gcd(orig, target)
    return target // g, orig // g


RESAMPLE_RATES = [(r, 2000) for r in (1000, 3000, 4000, 8000, 11025, 22050, 44100, 48000)]
RESAMPLE_RATES.append((2000, 4000))


class TestResampleMatchesReference:
    """The polyphase-component resampler gives the reference's exact bytes."""

    @pytest.mark.parametrize("orig,target", RESAMPLE_RATES)
    def test_random_input(self, orig, target):
        up, down = _up_down(orig, target)
        x = np.random.default_rng(orig).uniform(-1, 1, 3 * orig + 7)
        got = sio._polyphase_resample(x, up, down)
        assert got.tobytes() == reference_polyphase_resample(x, up, down).tobytes()

    @pytest.mark.parametrize("orig,target", RESAMPLE_RATES)
    def test_short_inputs(self, orig, target):
        up, down = _up_down(orig, target)
        half = 10 * max(up, down)
        rng = np.random.default_rng(orig + 1)
        for n in (1, 2, half - 1):
            x = rng.uniform(-1, 1, n)
            got = sio._polyphase_resample(x, up, down)
            want = reference_polyphase_resample(x, up, down)
            assert got.tobytes() == want.tobytes(), n

    def test_prepare_writes_the_same_store(self, tmp_path, monkeypatch):
        raw = tmp_path / "raw"
        entries = []
        for rate in (4000, 8000, 44100):
            profile = sio.SynthProfile(sample_rate=rate, min_seconds=9.5, max_seconds=11.0)
            made = sio.generate_synthetic_manifest(raw, seed=rate, n_recordings=2,
                                                   profile=profile, prefix=f"r{rate}")
            entries += made.entries
        sio.write_manifest(sio.DatasetManifest(entries=entries), raw / "manifest.tsv")

        counts = sio.prepare_manifest(raw / "manifest.tsv", tmp_path / "new")
        monkeypatch.setattr(sio, "_polyphase_resample", reference_polyphase_resample)
        assert sio.prepare_manifest(raw / "manifest.tsv", tmp_path / "ref") == counts
        assert counts["synthetic"] >= 6
        for name in ("windows.f32", "windows.json"):
            new = (tmp_path / "new" / "synthetic" / name).read_bytes()
            assert new == (tmp_path / "ref" / "synthetic" / name).read_bytes()


class TestResample:
    @pytest.mark.parametrize("orig,target", [(8000, 2000), (333, 2000), (195, 2000), (2000, 4000)])
    def test_dc_passthrough(self, orig, target):
        rec = sio.RawRecording(np.full(orig * 3, 0.3), orig, "dc")
        out = sio.resample(rec, target)
        assert np.max(np.abs(out.samples - 0.3)) < 1e-3

    def test_length_arithmetic(self):
        rec = sio.RawRecording(np.zeros(8000 * 30), 8000, "len")
        out = sio.resample(rec, 2000)
        assert out.samples.size == 60000
        assert out.sample_rate == 2000

    def test_sine_amplitude_preserved(self):
        fs = 8000
        t = np.arange(fs * 2) / fs
        amp = 0.5
        rec = sio.RawRecording(amp * np.sin(2 * np.pi * 100 * t), fs, "sine")
        out = sio.resample(rec, 2000)
        spectrum = np.abs(np.fft.rfft(out.samples)) / out.samples.size * 2
        freqs = np.fft.rfftfreq(out.samples.size, 1 / 2000)
        k = int(np.argmax(spectrum))
        assert abs(freqs[k] - 100.0) < 1.0
        assert abs(spectrum[k] - amp) / amp < 0.01

    def test_round_trip_keeps_dominant_bin(self):
        fs = 2000
        t = np.arange(fs * 4) / fs
        rec = sio.RawRecording(0.4 * np.sin(2 * np.pi * 100 * t), fs, "tone")
        back = sio.resample(sio.resample(rec, 8000), fs)
        assert back.samples.size == rec.samples.size
        b1 = int(np.argmax(np.abs(np.fft.rfft(rec.samples))))
        b2 = int(np.argmax(np.abs(np.fft.rfft(back.samples))))
        assert b1 == b2


class TestTrimAndWindows:
    def test_trim_30s(self):
        rec = sio.RawRecording(np.zeros(60000), 2000, "a")
        assert sio.trim_edges(rec).samples.size == 52000

    def test_trim_short_to_empty(self):
        rec = sio.RawRecording(np.zeros(6000), 2000, "b")
        assert sio.trim_edges(rec).samples.size == 0

    def test_trim_9s(self):
        rec = sio.RawRecording(np.zeros(18000), 2000, "c")
        assert sio.trim_edges(rec).samples.size == 10000

    @pytest.mark.parametrize("seconds,expected", [(26, 9), (5, 1), (4.9, 0)])
    def test_window_counts(self, seconds, expected):
        n = int(round(seconds * 2000))
        rec = sio.RawRecording(np.zeros(n), 2000, "w")
        assert len(sio.extract_windows(rec)) == expected

    def test_window_count_law_vs_enumeration(self):
        # brute-force oracle: enumerate 2.5 s start offsets over the signal
        for tenths in range(0, 1201):
            n = tenths * 200  # 0.1 s steps at 2 kHz
            starts = 0
            pos = 0
            while pos + 10000 <= n:
                starts += 1
                pos += 5000
            rec = sio.RawRecording(np.zeros(max(n, 1)), 2000, "law")
            if n == 0:
                rec = sio.RawRecording(np.zeros(0), 2000, "law")
            assert len(sio.extract_windows(rec)) == starts, f"{tenths / 10} s"

    def test_window_shape_and_indexing(self):
        rng = np.random.default_rng(0)
        rec = sio.RawRecording(
            rng.uniform(-1, 1, 52000), 2000, "r1", "physionet2016", "abnormal"
        )
        windows = sio.extract_windows(rec)
        assert [w.window_index for w in windows] == list(range(len(windows)))
        for w in windows:
            assert w.samples.shape == (10000,)
            assert np.all(np.isfinite(w.samples))
            assert w.binary_label == "abnormal"
        np.testing.assert_array_equal(windows[1].samples, rec.samples[5000:15000].astype(np.float32))

    def test_wrong_rate_rejected(self):
        rec = sio.RawRecording(np.zeros(30000), 3000, "bad")
        with pytest.raises(ParameterError):
            sio.extract_windows(rec)


class TestAssignLabels:
    def test_unknown_is_abnormal(self):
        assert sio.assign_labels("physionet2022", "unknown") == ("unknown", "abnormal")

    def test_absent_is_normal(self):
        assert sio.assign_labels("physionet2022", "absent") == ("absent", "normal")

    def test_extrasystole_is_abnormal(self):
        assert sio.assign_labels("pascal", "Extrasystole") == ("Extrasystole", "abnormal")

    def test_bad_label_raises(self):
        with pytest.raises(LabelError):
            sio.assign_labels("pascal", "normal")

    def test_total_and_single_normal_class(self):
        for tag in ("pascal", "physionet2016", "physionet2022"):
            mapped = [sio.assign_labels(tag, lab)[1] for lab in sio.LABEL_SETS[tag]]
            assert all(m in ("normal", "abnormal") for m in mapped)
            assert mapped.count("normal") == 1

    def test_unlabeled_passthrough(self):
        assert sio.assign_labels("ephnogram", None) == (None, None)


def _dummy_windows(record_counts):
    windows = []
    for rid, count in record_counts.items():
        for idx in range(count):
            windows.append(
                sio.LabeledWindow(
                    samples=np.zeros(10000, dtype=np.float32),
                    record_id=rid,
                    dataset_tag="synthetic",
                    window_index=idx,
                    original_label="normal",
                    binary_label="normal",
                )
            )
    return windows


def _greedy_split(windows, seed):
    """The per-recording split before parts got a recording each while
    enough were left: fill each part up to its share, then move on."""
    groups = {}
    for i, w in enumerate(windows):
        groups.setdefault(w.record_id, []).append(i)
    keys = list(groups)
    np.random.default_rng(seed).shuffle(keys)
    targets = np.cumsum(sio.SPLIT_RATIOS) * len(windows)
    out, part, used = [[], [], []], 0, 0
    for key in keys:
        out[part].extend(groups[key])
        used += len(groups[key])
        while part < 2 and used >= round(targets[part]):
            part += 1
    return tuple(sorted(p) for p in out)


def _probe_windows(n_recordings, seed):
    """3-8 windows in each of `n_recordings` recordings."""
    sizes = np.random.default_rng(seed).integers(3, 9, n_recordings)
    return _dummy_windows({f"r{i}": int(k) for i, k in enumerate(sizes)})


class TestSplits:
    def test_equal_recordings_split_7_2_1(self):
        windows = _dummy_windows({f"r{i}": 4 for i in range(10)})
        parts = sio.split_indices(windows, seed=3)
        rec_counts = [len({windows[i].record_id for i in p}) for p in parts]
        assert rec_counts == [7, 2, 1]

    def test_determinism(self):
        windows = _dummy_windows({f"r{i}": i % 3 + 1 for i in range(12)})
        assert sio.split_indices(windows, seed=11) == sio.split_indices(windows, seed=11)

    def test_per_recording_disjoint_many_seeds(self):
        windows = _dummy_windows({f"r{i}": (i * 7) % 5 + 1 for i in range(23)})
        for seed in range(25):
            parts = sio.split_indices(windows, seed=seed)
            id_sets = [{windows[i].record_id for i in p} for p in parts]
            for i in range(len(id_sets)):
                for j in range(i + 1, len(id_sets)):
                    assert not id_sets[i] & id_sets[j]
            assert sum(len(p) for p in parts) == len(windows)

    @pytest.mark.parametrize("n_recordings", [3, 4, 5, 10, 16])
    def test_no_part_is_empty_from_three_recordings(self, n_recordings):
        # the greedy fill left the test part empty at 10 recordings for a
        # large share of seeds
        for seed in range(200):
            parts = sio.split_indices(_probe_windows(n_recordings, seed), seed=seed)
            assert all(parts), (n_recordings, seed, [len(p) for p in parts])

    def test_splits_the_greedy_fill_got_right_are_unchanged(self):
        same = 0
        for n_recordings in (3, 6, 10, 16, 24, 40):
            for seed in range(60):
                windows = _probe_windows(n_recordings, seed)
                greedy = _greedy_split(windows, seed)
                if all(greedy):
                    assert sio.split_indices(windows, seed=seed) == greedy
                    same += 1
        assert same > 200

    def test_fewer_recordings_than_parts_fill_train_first(self):
        windows = _dummy_windows({"a": 3, "b": 5})
        assert sio.split_indices(windows, seed=0) == (list(range(8)), [], [])

    def test_empty_input(self):
        assert sio.split_indices([], seed=0) == ([], [], [])


class TestSynthetic:
    def test_deterministic_bytes(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        sio.generate_synthetic_manifest(d1, seed=5, n_recordings=4)
        sio.generate_synthetic_manifest(d2, seed=5, n_recordings=4)
        for f1 in sorted(d1.iterdir()):
            assert f1.read_bytes() == (d2 / f1.name).read_bytes()

    def test_manifest_unique_ids(self, tmp_path):
        manifest = sio.generate_synthetic_manifest(tmp_path, seed=1, n_recordings=6)
        assert len({e.record_id for e in manifest.entries}) == 6

    def test_murmur_band_energy_separation(self, tmp_path):
        manifest = sio.generate_synthetic_manifest(tmp_path, seed=2, n_recordings=6)

        def band_db(entry):
            rec = sio.decode_wav((tmp_path / entry.path).read_bytes())
            spec = np.abs(np.fft.rfft(rec.samples)) ** 2
            freqs = np.fft.rfftfreq(rec.samples.size, 1 / rec.sample_rate)
            band = (freqs >= 150) & (freqs <= 400)
            return 10 * np.log10(np.sum(spec[band]) / rec.samples.size)

        normal_db = [band_db(e) for e in manifest.entries if e.original_label == "normal"]
        abnormal_db = [band_db(e) for e in manifest.entries if e.original_label == "abnormal"]
        assert max(normal_db) <= min(abnormal_db) - 10.0

    @pytest.mark.parametrize("knobs,message", [
        (dict(min_seconds=0.0), "need 0 < min_seconds <= max_seconds"),
        (dict(min_seconds=31.0), "need 0 < min_seconds <= max_seconds"),
        (dict(murmur_amp=-0.1), "murmur_amp must be non-negative"),
        (dict(murmur_band=(150.0, 150.0)), "murmur band (150.0, 150.0) Hz"),
    ])
    def test_profile_rejects_bad_knobs(self, knobs, message):
        with pytest.raises(ParameterError, match=re.escape(message)):
            sio.SynthProfile(**knobs)

    def test_manifest_round_trip(self, tmp_path):
        manifest = sio.generate_synthetic_manifest(tmp_path, seed=3, n_recordings=3)
        loaded = sio.read_manifest(tmp_path / "manifest.tsv")
        assert loaded.entries == manifest.entries

    def test_unlabeled_manifest_round_trip(self, tmp_path):
        manifest = sio.DatasetManifest(entries=[
            sio.ManifestEntry("a.wav", "e1", "ephnogram"),
            sio.ManifestEntry("b.wav", "f1", "fpcgdb"),
            sio.ManifestEntry("c.wav", "p1", "pascal", "normal"),
        ])
        sio.write_manifest(manifest, tmp_path / "m.tsv")
        assert sio.read_manifest(tmp_path / "m.tsv").entries == manifest.entries

    def test_failed_manifest_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "manifest.tsv"
        entries = [sio.ManifestEntry("a.wav", "p1", "pascal", "Normal"),
                   sio.ManifestEntry("b.wav", "p2", "pascal", "Murmur")]
        sio.write_manifest(sio.DatasetManifest(entries=entries[:1]), path)
        old = path.read_bytes()

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            sio.write_manifest(sio.DatasetManifest(entries=entries), path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.tsv"]


class TestWindowStore:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        windows = _dummy_windows({"a": 2, "b": 1})
        for w in windows:
            w.samples = rng.uniform(-1, 1, 10000).astype(np.float32)
        sio.write_window_store(tmp_path / "s", windows)
        matrix, loaded = sio.read_window_store(tmp_path / "s")
        assert matrix.shape == (3, 10000)
        for orig, row, back in zip(windows, matrix, loaded):
            np.testing.assert_array_equal(orig.samples, row)
            assert orig.record_id == back.record_id
            assert orig.binary_label == back.binary_label
        assert isinstance(matrix, np.memmap) and not matrix.flags.writeable
        assert all(type(m) is sio.WindowMeta and not hasattr(m, "samples") for m in loaded)

    def test_failed_rewrite_keeps_the_previous_store(self, tmp_path, monkeypatch):
        # same window count, so a half-replaced store would still read back
        old = _dummy_windows({"a": 2})
        new = _dummy_windows({"b": 2})
        for w in new:
            w.samples = np.ones(10000, dtype=np.float32)
            w.original_label = w.binary_label = "abnormal"
        sio.write_window_store(tmp_path / "s", old)

        def fail(*args, **kwargs):
            raise OSError("no space left")

        monkeypatch.setattr(sio.json, "dumps", fail)
        with pytest.raises(OSError, match="no space left"):
            sio.write_window_store(tmp_path / "s", new)
        monkeypatch.undo()
        matrix, loaded = sio.read_window_store(tmp_path / "s")
        assert not matrix.any()
        assert [(w.record_id, w.binary_label) for w in loaded] == [("a", "normal")] * 2
        assert [p.name for p in tmp_path.iterdir()] == ["s"]

    def test_rewrite_replaces_the_whole_directory(self, tmp_path):
        store = self._store(tmp_path)
        (store / "stray.txt").write_text("left from elsewhere")
        sio.write_window_store(store, _dummy_windows({"b": 3}))
        assert sorted(p.name for p in store.iterdir()) == ["windows.f32", "windows.json"]
        assert [p.name for p in tmp_path.iterdir()] == ["s"]
        assert len(sio.read_window_store(store)[1]) == 3

    def test_truncated_samples_raise_format_error(self, tmp_path):
        sio.write_window_store(tmp_path / "s", _dummy_windows({"a": 2}))
        data = (tmp_path / "s" / "windows.f32").read_bytes()
        (tmp_path / "s" / "windows.f32").write_bytes(data[:-4])
        with pytest.raises(FormatError, match="windows.f32"):
            sio.read_window_store(tmp_path / "s")

    def _store(self, tmp_path):
        sio.write_window_store(tmp_path / "s", _dummy_windows({"a": 2}))
        return tmp_path / "s"

    def test_truncated_json_raises_format_error(self, tmp_path):
        path = self._store(tmp_path) / "windows.json"
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FormatError, match="windows.json"):
            sio.read_window_store(tmp_path / "s")

    @pytest.mark.parametrize("drop,key", [
        (lambda meta: meta.pop("entries"), "entries"),
        (lambda meta: meta["entries"][1].pop("record_id"), "record_id"),
    ], ids=["entries", "entry_field"])
    def test_missing_key_raises_format_error(self, tmp_path, drop, key):
        path = self._store(tmp_path) / "windows.json"
        meta = json.loads(path.read_text())
        drop(meta)
        path.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match=rf"windows\.json.*{key}"):
            sio.read_window_store(tmp_path / "s")

    def _edit_entry(self, tmp_path, key, value):
        path = self._store(tmp_path) / "windows.json"
        meta = json.loads(path.read_text())
        meta["entries"][1][key] = value
        path.write_text(json.dumps(meta))

    def test_non_finite_sample_raises_format_error_naming_the_store(self, tmp_path):
        path = self._store(tmp_path) / "windows.f32"
        samples = np.fromfile(path, dtype="<f4")
        samples[10003] = np.nan
        samples.tofile(path)
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path.parent))}: .*non-finite"):
            sio.read_window_store(path.parent)

    def test_non_finite_sample_names_the_store_and_the_window(self, tmp_path):
        # window 28 is past the first buffer the samples are checked through
        sio.write_window_store(tmp_path / "s", _dummy_windows({"a": 30}))
        path = tmp_path / "s" / "windows.f32"
        samples = np.fromfile(path, dtype="<f4")
        samples[28 * 10000 + 17] = np.inf
        samples.tofile(path)
        with pytest.raises(FormatError,
                           match=rf"^{re.escape(str(path.parent))}: window a/28 is non-finite$"):
            sio.read_window_store(path.parent)

    def test_empty_store_reads_back_empty(self, tmp_path):
        sio.write_window_store(tmp_path / "s", [])
        matrix, loaded = sio.read_window_store(tmp_path / "s")
        assert matrix.shape == (0, 10000) and matrix.dtype == np.dtype("<f4")
        assert not matrix.flags.writeable and loaded == []

    def test_map_keeps_its_samples_when_the_store_is_replaced(self, tmp_path):
        old = _dummy_windows({"a": 3})
        for w in old:
            w.samples = np.full(10000, 0.25, dtype=np.float32)
        sio.write_window_store(tmp_path / "s", old)
        matrix, _ = sio.read_window_store(tmp_path / "s")
        sio.write_window_store(tmp_path / "s", _dummy_windows({"b": 4}))
        assert np.all(matrix == 0.25)
        new, loaded = sio.read_window_store(tmp_path / "s")
        assert new.shape == (4, 10000) and not new.any()
        assert {w.record_id for w in loaded} == {"b"}

    def test_negative_window_index_raises_format_error_naming_the_store(self, tmp_path):
        self._edit_entry(tmp_path, "window_index", -1)
        with pytest.raises(FormatError, match=rf"^{re.escape(str(tmp_path / 's'))}: .*window_index"):
            sio.read_window_store(tmp_path / "s")

    def test_string_window_index_raises_format_error_naming_the_store(self, tmp_path):
        self._edit_entry(tmp_path, "window_index", "0")
        with pytest.raises(FormatError, match=rf"^{re.escape(str(tmp_path / 's'))}: "):
            sio.read_window_store(tmp_path / "s")

    def test_entry_count_mismatch_raises_format_error(self, tmp_path):
        sio.write_window_store(tmp_path / "s", _dummy_windows({"a": 1}))
        path = tmp_path / "s" / "windows.json"
        meta = json.loads(path.read_text())
        meta["entries"] = []
        path.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match=str(tmp_path / "s")):
            sio.read_window_store(tmp_path / "s")

    @pytest.mark.parametrize("corrupt,error", [
        (lambda data: data[:60], FormatError),
        (lambda data: b"ID3" + data[3:], FormatError),
        (lambda data: data[:22] + struct.pack("<H", 2) + data[24:], UnsupportedFormatError),
        # one flipped bit of the rate: 2000 Hz becomes 16.8 MHz, whose
        # resampling filter alone would take some 800 MiB
        (lambda data: data[:27] + b"\x01" + data[28:], UnsupportedFormatError),
    ], ids=["truncated", "not_riff", "stereo", "rate_above_192_khz"])
    def test_prepare_names_the_bad_wav(self, tmp_path, corrupt, error):
        src = tmp_path / "raw"
        manifest = sio.generate_synthetic_manifest(src, seed=6, n_recordings=3)
        bad = src / manifest.entries[1].path
        bad.write_bytes(corrupt(bad.read_bytes()))
        # line 1 is the header comment, so the second entry sits on line 3
        with pytest.raises(error, match=rf"{bad.name} .*manifest\.tsv line 3\): ") as info:
            sio.prepare_manifest(src / "manifest.tsv", tmp_path / "stores")
        assert type(info.value) is error
        assert not (tmp_path / "stores").exists()

    def test_failed_prepare_keeps_every_store(self, tmp_path):
        """A bad WAV of one tag leaves the stores of every tag, those of
        recordings already cut included, as they were, and no temp
        directory."""
        src = tmp_path / "raw"
        made = sio.generate_synthetic_manifest(src, seed=6, n_recordings=4)
        entries = [sio.ManifestEntry(e.path, e.record_id, tag, label)
                   for e, (tag, label) in zip(made.entries, [("pascal", "Normal"),
                                                             ("synthetic", "normal"),
                                                             ("pascal", "Murmur"),
                                                             ("synthetic", "abnormal")])]
        sio.write_manifest(sio.DatasetManifest(entries=entries), src / "manifest.tsv")
        out = tmp_path / "stores"
        assert set(sio.prepare_manifest(src / "manifest.tsv", out)) == {"pascal", "synthetic"}
        before = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        bad = src / entries[3].path
        bad.write_bytes(bad.read_bytes()[:60])
        with pytest.raises(FormatError, match=rf"{bad.name} .*manifest\.tsv line 5\): "):
            sio.prepare_manifest(src / "manifest.tsv", out)
        after = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert after == before
        assert sorted(p.name for p in out.iterdir()) == ["pascal", "synthetic"]

    def test_prepare_peak_does_not_grow_with_the_manifest(self, tmp_path):
        """prepare's traced peak on a manifest of the 20 recordings of the
        benchmark's `pascal` mix (2 kHz, 4 kHz, 8 kHz and 44.1 kHz) and on
        the same recordings listed 4 times stays within 10%: windows go to
        the store file as they are cut, and only their labels are held."""
        src = tmp_path / "raw"
        src.mkdir()
        rng = np.random.default_rng(2)
        entries = []
        for i, (rate, seconds) in enumerate([(2000, 20.0)] * 2 + [(4000, 20.0)] * 8
                                            + [(8000, 20.0)] * 8 + [(44100, 12.0)] * 2):
            name = f"r{i}.wav"
            noise = 0.3 * rng.standard_normal(int(rate * seconds))
            (src / name).write_bytes(sio.encode_wav_pcm16(noise, rate))
            entries.append((name, ["Normal", "Murmur"][i % 2]))

        def peak(copies):
            manifest = src / f"manifest{copies}.tsv"
            sio.write_manifest(sio.DatasetManifest(entries=[
                sio.ManifestEntry(name, f"c{c}_{name}", "pascal", label)
                for c in range(copies) for name, label in entries]), manifest)
            tracemalloc.start()
            try:
                counts = sio.prepare_manifest(manifest, tmp_path / f"out{copies}")
                return tracemalloc.get_traced_memory()[1], counts["pascal"]
            finally:
                tracemalloc.stop()

        (one, n_one), (four, n_four) = peak(1), peak(4)
        assert n_four == 4 * n_one
        assert four <= 1.1 * one, (one / 2**20, four / 2**20)

    @pytest.mark.parametrize("line,message", [
        ("a.wav\trec\tsynthetic", "manifest line 2: expected 4 tab-separated fields"),
        ("a.wav\trec\tnope\t", "manifest line 2: unknown dataset tag 'nope'"),
    ])
    def test_bad_manifest_line_names_the_manifest(self, tmp_path, line, message):
        path = tmp_path / "manifest.tsv"
        path.write_text("# header\n" + line + "\n")
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: {message}"):
            sio.read_manifest(path)

    def test_non_utf8_manifest_is_a_format_error_naming_it(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_bytes(b"# header\na\xff.wav\trec\tsynthetic\t\n")
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: not UTF-8 text \(byte 10\)"):
            sio.read_manifest(path)

    def test_prepare_pipeline(self, tmp_path):
        src = tmp_path / "raw"
        sio.generate_synthetic_manifest(src, seed=6, n_recordings=4)
        counts = sio.prepare_manifest(src / "manifest.tsv", tmp_path / "stores")
        assert set(counts) == {"synthetic"}
        matrix, windows = sio.read_window_store(tmp_path / "stores" / "synthetic")
        assert counts["synthetic"] == len(windows) == matrix.shape[0]
        assert len(windows) > 0
        # 10-30 s recordings trimmed by 4 s leave 6-26 s -> 1..9 windows each
        per_record = {}
        for w in windows:
            per_record[w.record_id] = per_record.get(w.record_id, 0) + 1
        assert all(1 <= c <= 9 for c in per_record.values())
