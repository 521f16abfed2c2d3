"""Checkpoint container: magic `PCGSSL01`, a u32 length-prefixed UTF-8 JSON
metadata block, then raw little-endian float32 parameter arrays in the
graph's declared parameter order."""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .._atomic import write_atomic
from ..errors import ConfigError, FormatError
from .model import CLASSIFIER, PROJECTION, EncoderConfig, ModelGraph

MAGIC = b"PCGSSL01"


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(path, graph: ModelGraph, extra: dict | None = None) -> str:
    meta = {
        "arch": asdict(graph.encoder_cfg),
        "head": graph.head_kind,
        "n_out": graph.n_out,
        "dropout": graph.dropout_rate,
        "encoder_frozen": graph.encoder_frozen,
        "params": [
            {"name": name, "shape": list(arr.shape)} for name, arr in graph.named_params()
        ],
        "extra": extra or {},
    }
    blob = _canonical_json(meta)
    chunks = [MAGIC, struct.pack("<I", len(blob)), blob]
    for _, arr in graph.named_params():
        chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    write_atomic(path, b"".join(chunks))
    return str(path)


def load_checkpoint(path) -> tuple[ModelGraph, dict]:
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
        graph = _graph_from_meta(meta)
        declared = [(spec["name"], list(spec["shape"])) for spec in meta["params"]]
    except KeyError as exc:
        raise FormatError(f"{path}: checkpoint metadata lacks key {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, TypeError) as exc:
        raise FormatError(f"{path}: bad checkpoint metadata") from exc
    except ConfigError as exc:
        raise FormatError(f"{path}: bad checkpoint architecture: {exc}") from exc

    offset = start + meta_len
    params = graph.named_params()
    if len(declared) != len(params):
        raise FormatError(f"{path}: parameter list mismatch")
    for (name, arr), spec in zip(params, declared):
        if spec != (name, list(arr.shape)):
            raise FormatError(f"{path}: parameter {name} does not match metadata")
        nbytes = arr.size * 4
        if offset + nbytes > len(data):
            raise FormatError(f"{path}: checkpoint truncated in parameter {name}")
        flat = np.frombuffer(data, dtype="<f4", count=arr.size, offset=offset)
        arr[...] = flat.reshape(arr.shape)
        offset += nbytes
    if offset != len(data):
        raise FormatError(f"{path}: trailing bytes in checkpoint")
    return graph, meta


def _graph_from_meta(meta: dict) -> ModelGraph:
    """The graph a checkpoint's metadata declares, with placeholder values."""
    arch = {f.name: meta["arch"][f.name] for f in fields(EncoderConfig)}
    rng = np.random.default_rng(0)
    graph = ModelGraph(EncoderConfig(**{k: tuple(v) if isinstance(v, list) else v
                                        for k, v in arch.items()}), rng)
    if meta["encoder_frozen"]:
        graph.freeze_encoder()
    if meta["head"] == PROJECTION:
        graph.set_projection_head(rng)
    elif meta["head"] == CLASSIFIER:
        graph.set_classifier_head(meta["n_out"], 0, meta["dropout"])
    return graph
