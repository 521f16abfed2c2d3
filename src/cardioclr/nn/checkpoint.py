"""Checkpoint container: magic `PCGSSL01`, a u32 length-prefixed UTF-8 JSON
metadata block, then raw little-endian float32 parameter arrays in the
graph's declared parameter order, whose SHA-256 the metadata's `sha256`
holds. Older files (no `sha256`, and `dropout` and `arch.in_channels` keys) load."""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .._atomic import write_atomic
from ..errors import ConfigError, FormatError
from .model import CLASSIFIER, PROJECTION, EncoderConfig, ModelGraph, param_count

MAGIC = b"PCGSSL01"


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(path, graph: ModelGraph, extra: dict | None = None) -> str:
    import hashlib  # here, not at module level: `import cardioclr.nn` stays lean
    payload = b"".join(np.ascontiguousarray(arr, dtype="<f4").tobytes()
                       for _, arr in graph.named_params())
    meta = {
        "arch": asdict(graph.encoder_cfg),
        "head": graph.head_kind,
        "n_out": graph.n_out,
        "encoder_frozen": graph.encoder_frozen,
        "params": [
            {"name": name, "shape": list(arr.shape)} for name, arr in graph.named_params()
        ],
        "sha256": hashlib.sha256(payload).hexdigest(),
        "extra": extra or {},
    }
    blob = _canonical_json(meta)
    write_atomic(path, b"".join([MAGIC, struct.pack("<I", len(blob)), blob, payload]))
    return str(path)


def load_checkpoint(path) -> tuple[ModelGraph, dict]:
    import hashlib
    data = Path(path).read_bytes()
    if data[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic")
    start = len(MAGIC) + 4
    if len(data) < start:
        raise FormatError(f"{path}: checkpoint truncated in the metadata length")
    (meta_len,) = struct.unpack_from("<I", data, len(MAGIC))
    if len(data) < start + meta_len:
        raise FormatError(f"{path}: checkpoint truncated in the metadata")
    try:
        meta = json.loads(data[start : start + meta_len].decode("utf-8"))
        graph = _graph_from_meta(meta, len(data) - start - meta_len)
        declared = [(spec["name"], list(spec["shape"])) for spec in meta["params"]]
    except KeyError as exc:
        raise FormatError(f"{path}: checkpoint metadata lacks key {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, TypeError) as exc:
        raise FormatError(f"{path}: bad checkpoint metadata") from exc
    except ConfigError as exc:
        raise FormatError(f"{path}: bad checkpoint architecture: {exc}") from exc
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None

    # the payload holds exactly the graph's parameters (`_graph_from_meta`)
    offset = start + meta_len
    params = graph.named_params()
    if declared != [(name, list(arr.shape)) for name, arr in params]:
        raise FormatError(f"{path}: the parameter list does not match the architecture")
    for _, arr in params:
        flat = np.frombuffer(data, dtype="<f4", count=arr.size, offset=offset)
        arr[...] = flat.reshape(arr.shape)
        offset += arr.size * 4
    payload = memoryview(data)[start + meta_len :]
    if "sha256" in meta and hashlib.sha256(payload).hexdigest() != meta["sha256"]:
        raise FormatError(f"{path}: parameter bytes do not match the checkpoint digest")
    return graph, meta


def _graph_from_meta(meta: dict, payload_bytes: int) -> ModelGraph:
    """The graph a checkpoint's metadata declares, with placeholder values.
    Metadata whose parameters would not fill the `payload_bytes` exactly is
    a `FormatError`, raised before any array is allocated."""
    arch = {f.name: meta["arch"][f.name] for f in fields(EncoderConfig)}
    cfg = EncoderConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in arch.items()})
    head, n_out, frozen = meta["head"], meta["n_out"], meta["encoder_frozen"]
    if not isinstance(frozen, bool):
        raise FormatError(f"checkpoint encoder_frozen must be true or false, got {frozen!r}")
    if head not in (None, PROJECTION, CLASSIFIER):
        raise FormatError(f"unknown checkpoint head {head!r}")
    if head is not None and (type(n_out) is not int or n_out < 1):
        raise FormatError(f"checkpoint n_out must be a positive integer, got {n_out!r}")
    implied = 4 * param_count(cfg, head, n_out)
    if implied != payload_bytes:
        raise FormatError(f"the metadata declares {implied} parameter bytes, the payload "
                          f"holds {payload_bytes}")
    rng = np.random.default_rng(0)
    graph = ModelGraph(cfg, rng)
    if frozen:
        graph.freeze_encoder()
    if head == PROJECTION:
        graph.set_projection_head(rng)
    elif head == CLASSIFIER:
        graph.set_classifier_head(n_out, 0)
    return graph
