"""A malformed-input corpus: every on-disk format, cut short and byte-flipped.

Each reader gets a valid desk instance of its format, then the same file
truncated at a stride of offsets and with single bytes flipped. Every case
must load or raise a `CardioclrError` whose message names the file (a
window store's errors name its directory); a raw exception fails the test.

A checkpoint records the SHA-256 of its parameter bytes, so a flipped
payload byte there must not load. A flipped payload byte of a store's
samples or a WAV's PCM data still loads: neither format records a digest
of its payload yet.
"""

import multiprocessing

import numpy as np
import pytest

from cardioclr import cli, protocol
from cardioclr import signal_io as sio
from cardioclr.config import parse_config
from cardioclr.errors import CardioclrError, FormatError
from cardioclr.nn import EncoderConfig, build_ssl_graph, load_checkpoint, save_checkpoint

DESK_CONFIG = """[pretrain]
batch_size = 16        # paper-scale default is 256
max_epochs = 4
patience = 2
warmup_epochs = 2
peak_lr = 0.02

[downstream]
adam_lr = 0.001
max_epochs = 10
patience = 5

[model]
channels = 4,8,8       # full-size default is 8,16,32,64,128
kernels = 16,8,8
pool_widths = 10,10,10
projection_dim = 32
"""

DESK_PLAN = """# the paper's grids over its leave-one-dataset-out SSL sets
[ssl_sets]
leave-one-out
ephnogram+fpcgdb
[policies]
grid 0vs1
lp(500,450)|flip(0.5)
[tasks]
pascal:binary
physionet2016:all
[seeds]
7
[options]
baseline_runs = 2
"""

DESK_MANIFEST = ("# cardioclr manifest v1\n"
                 "synth_0000.wav\tsynth_0000\tsynthetic\tnormal\n"
                 "e1.wav\te1\tephnogram\t\n"
                 "p1.wav\tp1\tpascal\tMurmur\n")


# past their first 64 bytes a WAV holds only PCM samples and windows.f32 only
# floats; every other format is damaged at each byte of its first KiB, which
# covers the text formats whole and a checkpoint's header and metadata
SAMPLE_FORMATS = ("wav", "windows.f32")


def _damaged(data: bytes, head: int):
    """(label, bytes) of each damaged copy: the file cut at every offset of
    its first `head` bytes and at about 48 more, and the byte at each of
    those offsets XORed with 0x01 and with 0xFF."""
    offsets = sorted({*range(min(len(data), head)),
                      *range(head, len(data), max(1, len(data) // 48))})
    for i in offsets:
        yield f"cut at {i}", data[:i]
        for mask in (0x01, 0xFF):
            yield f"byte {i} ^ {mask:#04x}", data[:i] + bytes([data[i] ^ mask]) + data[i + 1:]


def _store_windows(n):
    rng = np.random.default_rng(3)
    return [sio.LabeledWindow(samples=rng.uniform(-0.5, 0.5, sio.WINDOW_SAMPLES),
                              record_id=f"p{i}", dataset_tag="pascal", window_index=i,
                              original_label="Murmur", binary_label="abnormal")
            for i in range(n - 1)] + [
        sio.LabeledWindow(samples=np.zeros(sio.WINDOW_SAMPLES), record_id="e0",
                          dataset_tag="ephnogram", window_index=0)]


def _ledger_rows():
    common = dict(ssl_set="ephnogram+fpcgdb", policy="lp(500,450)|flip(0.5)",
                  downstream="pascal", task="binary", seed=7)
    return [
        protocol.LedgerRow(experiment_id="a1", eval_dataset="pascal",
                           eval_kind="in_distribution", accuracy=0.75, micro_f1=0.75,
                           macro_f1=0.5, checkpoint="models/a1.ckpt", **common),
        protocol.LedgerRow(experiment_id="a1", eval_dataset="physionet2016", eval_kind="ood",
                           accuracy=0.5, micro_f1=0.5, macro_f1=0.25,
                           checkpoint="models/a1.ckpt", **common),
        protocol.LedgerRow(experiment_id="b2", eval_dataset="pascal",
                           eval_kind="in_distribution", accuracy=None, micro_f1=None,
                           macro_f1=None, checkpoint="", status="failed", **common),
    ]


@pytest.fixture(scope="module")
def desk_files(tmp_path_factory):
    """format -> (file to damage, its loader, the path its errors must name)."""
    root = tmp_path_factory.mktemp("desk")
    raw = root / "raw"
    profile = sio.SynthProfile(sample_rate=4000, min_seconds=9.5, max_seconds=9.5)
    sio.generate_synthetic_manifest(raw, seed=1, n_recordings=1, profile=profile)
    wav = raw / "synth_0000.wav"

    manifest, config, plan = root / "manifest.tsv", root / "desk.cfg", root / "desk.plan"
    manifest.write_text(DESK_MANIFEST)
    config.write_text(DESK_CONFIG)
    plan.write_text(DESK_PLAN)

    store = root / "stores" / "pascal"
    sio.write_window_store(store, _store_windows(3))

    checkpoint = root / "model.ckpt"
    graph = build_ssl_graph(EncoderConfig(channels=(2,), kernels=(4,), pool_widths=(100,),
                                          projection_dim=4), seed=0)
    graph.freeze_encoder()
    graph.set_classifier_head(1, 0)
    save_checkpoint(checkpoint, graph, extra={"policy": "none|rev", "task": "pascal:binary",
                                              "seed": 7})
    ledger = root / "ledger.csv"
    protocol.write_ledger(ledger, _ledger_rows())

    return {
        "wav": (wav, lambda: sio.prepare_manifest(raw / "manifest.tsv", root / "prepared"), wav),
        "manifest": (manifest, lambda: sio.read_manifest(manifest), manifest),
        "ini": (config, lambda: parse_config(config), config),
        "plan": (plan, lambda: protocol.parse_plan(plan), plan),
        "windows.json": (store / "windows.json", lambda: sio.read_window_store(store), store),
        "windows.f32": (store / "windows.f32", lambda: sio.read_window_store(store), store),
        "checkpoint": (checkpoint, lambda: load_checkpoint(checkpoint), checkpoint),
        "ledger": (ledger, lambda: protocol.read_ledger(ledger), ledger),
    }


@pytest.mark.parametrize("fmt", ["wav", "manifest", "ini", "plan", "windows.json",
                                 "windows.f32", "checkpoint", "ledger"])
def test_damaged_file_loads_or_names_itself(desk_files, fmt):
    path, load, named = desk_files[fmt]
    intact = path.read_bytes()
    load()
    unnamed, raw = [], []
    try:
        for label, data in _damaged(intact, 64 if fmt in SAMPLE_FORMATS else 1024):
            path.write_bytes(data)
            try:
                load()
            except CardioclrError as exc:
                if str(named) not in str(exc):
                    unnamed.append(f"{label}: {type(exc).__name__}: {exc}")
            except Exception as exc:  # noqa: BLE001 - any other exception is the failure
                raw.append(f"{label}: {exc!r}")
    finally:
        path.write_bytes(intact)
    assert raw == [], f"{len(raw)} raw exceptions"
    assert unnamed == [], f"{len(unnamed)} errors that do not name {named}"


def test_a_flipped_checkpoint_payload_byte_does_not_load(desk_files):
    """Each flipped parameter byte, the first and the last among them, is a
    `FormatError` naming the checkpoint: its digest no longer matches."""
    path, load, _ = desk_files["checkpoint"]
    intact = path.read_bytes()
    payload = 4 * sum(arr.size for _, arr in load()[0].named_params())
    start = len(intact) - payload
    try:
        for i in [*range(start, len(intact) - 1, max(1, payload // 64)), len(intact) - 1]:
            path.write_bytes(intact[:i] + bytes([intact[i] ^ 0x01]) + intact[i + 1:])
            with pytest.raises(FormatError, match="do not match the checkpoint digest") as info:
                load()
            assert str(path) in str(info.value)
    finally:
        path.write_bytes(intact)


def _read_damaged_stores(conn, store, intact):
    """In a child: each damaged windows.f32 is read, then every sample of
    the map it returns; sends (raw exceptions, errors that do not name the
    store). A read past the end of a cut file would kill the child with
    SIGBUS instead."""
    path = store / "windows.f32"
    raw, unnamed = [], []
    for label, data in _damaged(intact, 64):
        path.write_bytes(data)  # no map of this file is alive here
        try:
            matrix, _ = sio.read_window_store(store)
            float(np.sum(matrix, dtype=np.float64))
            del matrix
        except CardioclrError as exc:
            if str(store) not in str(exc):
                unnamed.append(f"{label}: {type(exc).__name__}: {exc}")
        except Exception as exc:  # noqa: BLE001 - any other exception is the failure
            raw.append(f"{label}: {exc!r}")
    conn.send((raw, unnamed))


def test_damaged_samples_read_through_the_map_name_the_store(tmp_path):
    """A cut or bit-flipped windows.f32 either raises a `FormatError` that
    names the store or maps a matrix whose every sample reads: never a
    `ValueError` from the map, nor a SIGBUS from reading past the end of
    the file. The reads run in a forked child, so a SIGBUS shows as its
    exit code."""
    store = tmp_path / "pascal"
    sio.write_window_store(store, _store_windows(3))
    intact = (store / "windows.f32").read_bytes()
    ctx = multiprocessing.get_context("fork")
    parent_end, child_end = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_read_damaged_stores, args=(child_end, store, intact))
    child.start()
    child_end.close()
    try:
        result = parent_end.recv() if parent_end.poll(120) else None
    except EOFError:  # the child died before it sent
        result = None
    finally:
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0 and result is not None, f"the child exited with {child.exitcode}"
    raw, unnamed = result
    assert raw == [], f"{len(raw)} raw exceptions"
    assert unnamed == [], f"{len(unnamed)} errors that do not name {store}"


@pytest.mark.parametrize("policy", ["bogus|rev", "rev", "flip(1)|none", "rev+inv+rev|none",
                                    "noise(g,-0.01,0.01)|none"])
def test_unparsable_ledger_policy_names_the_ledger_and_line(tmp_path, capsys, policy):
    """`analyze` parses every policy it reads; one that does not parse is a
    `FormatError` of the ledger reader, not an error that names no file."""
    rows = _ledger_rows()
    rows[1].policy = policy
    ledger = tmp_path / "ledger.csv"
    protocol.write_ledger(ledger, rows)
    code = cli.main(["analyze", "--ledger", str(ledger), "--out", str(tmp_path / "report")])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"error: FormatError: {ledger}: line 3: bad policy {policy!r}: ")
    assert not (tmp_path / "report").exists()


def test_ledger_policy_in_any_spelling_loads(tmp_path):
    rows = _ledger_rows()
    rows[0].policy, rows[1].policy = "|flip(.5)", " lp(500,450) | flip(0.50) "
    ledger = tmp_path / "ledger.csv"
    protocol.write_ledger(ledger, rows)
    assert [r.policy for r in protocol.read_ledger(ledger)] == [r.policy for r in rows]


@pytest.mark.parametrize("index,column,value,message", [
    (0, "micro_f1", None, "status ok holds all of accuracy, micro_f1, macro_f1, "
                          "got ['0.750000', '', '0.500000']"),
    (1, "accuracy", None, "status ok holds all of accuracy, micro_f1, macro_f1, "
                          "got ['', '0.500000', '0.250000']"),
    (2, "macro_f1", 0.5, "status failed holds none of accuracy, micro_f1, macro_f1, "
                         "got ['', '', '0.500000']"),
    (2, "accuracy", 0.0, "status failed holds none of accuracy, micro_f1, macro_f1, "
                         "got ['0.000000', '', '']"),
], ids=["ok_without_micro_f1", "ood_ok_without_accuracy", "failed_with_macro_f1",
        "failed_with_zero_accuracy"])
def test_ledger_row_metrics_follow_its_status(tmp_path, capsys, index, column, value, message):
    """An `ok` row holds all three metrics and a `failed` row none; any other
    row is a `FormatError` of the ledger reader that names the ledger and the
    line, whichever metric `analyze` reads."""
    rows = _ledger_rows()
    setattr(rows[index], column, value)
    ledger = tmp_path / "ledger.csv"
    protocol.write_ledger(ledger, rows)
    code = cli.main(["analyze", "--ledger", str(ledger), "--out", str(tmp_path / "report")])
    assert code == 1
    assert capsys.readouterr().err == \
        f"error: FormatError: {ledger}: line {index + 2}: a row of {message}\n"
    assert not (tmp_path / "report").exists()


def test_prepare_of_a_wav_it_cannot_open_names_the_manifest_line(tmp_path, capsys):
    """A WAV that the manifest names but `prepare` cannot open keeps its
    `OSError` class and names the WAV, the manifest and its line, as a
    malformed WAV's `CardioclrError` does; no store is left behind."""
    raw = tmp_path / "raw"
    sio.generate_synthetic_manifest(raw, seed=1, n_recordings=1,
                                    profile=sio.SynthProfile(sample_rate=4000, min_seconds=9.5,
                                                             max_seconds=9.5))
    manifest = raw / "manifest.tsv"
    with manifest.open("a") as f:
        f.write("missing.wav\tm1\tpascal\tMurmur\n")
    lineno = len(manifest.read_text().splitlines())
    where = f"{raw / 'missing.wav'} ({manifest} line {lineno}): No such file or directory"
    with pytest.raises(FileNotFoundError) as info:
        sio.prepare_manifest(manifest, tmp_path / "out")
    assert str(info.value) == where
    assert cli.main(["prepare", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: IOError: {where}\n"
    # the WAV is named once: the OSError's own text would name it again
    assert err.count(str(raw / "missing.wav")) == 1
    assert not (tmp_path / "out").exists()
