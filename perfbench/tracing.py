"""In-memory span tracing around the package's public functions.

`Tracer.install()` replaces each traced function under every name it is looked
up by (for example both `cardioclr.contrastive.pretrain` and
`cardioclr.protocol.pretrain`), and wraps the layer, graph and optimizer
methods on their classes. Spans (name, start, end, parent) stay in memory
until `write()`; `layer_metrics()` turns them into the per-layer metrics.
Tracing only records while `active` is set, so the benchmark's own checks
never show up as program time.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from cardioclr import analysis, augment, contrastive, downstream, protocol, signal_io
from cardioclr.nn import checkpoint
from cardioclr.nn.layers import Conv1d, MaxPool1d, ReLU
from cardioclr.nn.model import ModelGraph
from cardioclr.nn.optim import Adam, Lars

N_BLOCKS = 5


@dataclass(eq=False)
class Span:
    name: str
    start: float
    parent: "Span | None"
    phase: str
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _store_bytes(store_dir) -> int:
    return sum(f.stat().st_size for f in Path(store_dir).iterdir() if f.is_file())


# (module, function, span name, attrs from (args, kwargs, result))
FUNCTIONS = [
    (signal_io, "decode_wav", "signal_io.decode_wav", None),
    (signal_io, "resample", "signal_io.resample", lambda a, k, r: {"samples": a[0].samples.size}),
    (signal_io, "extract_windows", "signal_io.extract_windows", None),
    (signal_io, "write_window_store", "signal_io.write_window_store",
     lambda a, k, r: {"bytes": _store_bytes(a[0])}),
    (signal_io, "read_window_store", "signal_io.read_window_store",
     lambda a, k, r: {"bytes": _store_bytes(a[0])}),
    (signal_io, "prepare_manifest", "signal_io.prepare_manifest", None),
    (augment, "apply_policy", "augment.apply_policy", None),
    (contrastive, "nt_xent_grad", "contrastive.nt_xent", None),
    (contrastive, "pretrain", "contrastive.pretrain", None),
    (downstream, "train_head", "downstream.train_head", lambda a, k, r: {"epochs": len(r[1])}),
    (downstream, "train_baseline", "downstream.train_baseline", lambda a, k, r: {"epochs": len(r[1])}),
    (downstream, "evaluate", "downstream.evaluate", None),
    (checkpoint, "save_checkpoint", "nn.checkpoint.save", lambda a, k, r: {"bytes": os.path.getsize(r)}),
    (checkpoint, "load_checkpoint", "nn.checkpoint.load", None),
    (protocol, "run_experiment", "protocol.run_experiment", None),
    (protocol, "run_baseline", "protocol.run_baseline", None),
    (protocol, "run_plan", "protocol.run_plan", None),
    (analysis, "effect_size_report", "analysis.effect_size_report", None),
]


def _layer_name(layer, part: str) -> str | None:
    """Encoder layers are tagged `nn.<kind><block>` when their graph runs
    forward; head layers stay untagged and count under `nn.head`."""
    tag = getattr(layer, "_trace_tag", None)
    return None if tag is None else f"{tag}.{part}"


def _tag_encoder(graph) -> None:
    blocks = defaultdict(int)
    for layer in graph.encoder_layers:
        kind = _KIND[type(layer)]
        layer._trace_tag = f"nn.{kind}{blocks[kind]}"
        blocks[kind] += 1


def _graph_forward(args, kwargs) -> str:
    _tag_encoder(args[0])
    training = kwargs.get("training", args[2] if len(args) > 2 else False)
    return "nn.forward.train" if training else "nn.forward.eval"


def _graph_embed(args, kwargs) -> str:
    _tag_encoder(args[0])
    return "downstream.embed"


def _conv_flops(args, kwargs, result) -> dict:
    layer, (b, cin, length) = args[0], args[1].shape
    return {"flops": 2 * b * layer.out_channels * cin * layer.kernel * length}


_KIND = {Conv1d: "conv", ReLU: "relu", MaxPool1d: "pool"}

# (class, method, span name from (args, kwargs) with args[0] the instance,
# or None to leave the call untraced; attrs from (args, kwargs, result))
METHODS = [
    (ModelGraph, "forward", _graph_forward, None),
    (ModelGraph, "embed", _graph_embed, None),
    (ModelGraph, "head_forward", lambda a, k: "nn.head.fwd", None),
    (ModelGraph, "head_backward", lambda a, k: "nn.head.bwd", None),
    (Adam, "step", lambda a, k: "nn.optim.adam_step", None),
    (Lars, "step", lambda a, k: "nn.optim.lars_step", None),
    (Conv1d, "forward", lambda a, k: _layer_name(a[0], "fwd"), _conv_flops),
] + [
    (cls, meth, lambda a, k, part=part: _layer_name(a[0], part), None)
    for cls, meth, part in [(Conv1d, "backward", "bwd"), (ReLU, "forward", "fwd"),
                            (ReLU, "backward", "bwd"), (MaxPool1d, "forward", "fwd"),
                            (MaxPool1d, "backward", "bwd")]
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.phase = "op"
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a worker thread's outermost span belongs to whatever the main
            # thread is running (run_plan's thread pool)
            main = self._main_stack[-1:]
            parent = main[0] if main else None
        span = Span(name, perf_counter(), parent, self.phase)
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a call it makes."""
        if not self.active:
            yield
            return
        span = self.open(name)
        try:
            yield
        finally:
            self.close(span)

    # -- patching -----------------------------------------------------------

    def _traced(self, fn, name_of, attrs_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs) if tracer.active else None
            if name is None:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if attrs_of is not None:
                span.attrs.update(attrs_of(args, kwargs, result))
            return result

        return wrapper

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for module, fn_name, span_name, attrs_of in FUNCTIONS:
            original = getattr(module, fn_name)
            wrapper = self._traced(original, lambda a, k, n=span_name: n, attrs_of)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "cardioclr":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, wrapper)
        for cls, meth, name_of, attrs_of in METHODS:
            self._replace(cls, meth, self._traced(getattr(cls, meth), name_of, attrs_of))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        ids = {s: i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": ids.get(s.parent),
                    "phase": s.phase, **s.attrs,
                }) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _union_seconds(intervals, lo: float, hi: float) -> float:
    covered, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def _ancestors(span: Span):
    node = span.parent
    while node is not None:
        yield node
        node = node.parent


def _under(span: Span, name: str) -> bool:
    return any(a.name == name for a in _ancestors(span))


def _concurrency(entries, lo: float, hi: float) -> tuple[float, float]:
    """(summed busy seconds, seconds with at most one entry running) in [lo, hi]."""
    events = sorted([(max(s.start, lo), 1) for s in entries] + [(min(s.end, hi), -1) for s in entries])
    busy = sum(min(s.end, hi) - max(s.start, lo) for s in entries)
    serial, running, last = 0.0, 0, lo
    for t, step in events:
        if running <= 1:
            serial += t - last
        running += step
        last = t
    return busy, serial + (hi - last)


def layer_metrics(spans: list[Span], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics from the traced spans.

    Times and counts are per traced set-up plus per traced operation: a span's
    total in each phase is divided by that phase's count (`counts`). Rates are
    ratios of totals. Layers that did not run report 0.
    """
    per = defaultdict(float)  # name -> seconds per set-up + per op
    attr = defaultdict(float)  # (name, attr) -> amount per set-up + per op
    raw_s = defaultdict(float)  # name -> total seconds, for rates
    raw_attr = defaultdict(float)
    children = defaultdict(list)
    for s in spans:
        n = counts[s.phase]
        per[s.name] += s.seconds / n
        raw_s[s.name] += s.seconds
        for key, value in s.attrs.items():
            attr[s.name, key] += value / n
            raw_attr[s.name, key] += value
        if s.parent is not None:
            children[s.parent].append(s)

    def rate(num, den, scale=1.0):
        return num / den / scale if den > 0 else 0.0

    m = {}
    for i in range(N_BLOCKS):
        for kind in ("conv", "relu", "pool"):
            for part in ("fwd", "bwd"):
                m[f"nn.{kind}{i}.{part}_s"] = per[f"nn.{kind}{i}.{part}"]
        name = f"nn.conv{i}.fwd"
        m[f"nn.conv{i}.fwd_gflop_s"] = rate(raw_attr[name, "flops"], raw_s[name], 1e9)
    for name in ("nn.head.fwd", "nn.head.bwd", "nn.optim.adam_step", "nn.optim.lars_step",
                 "nn.checkpoint.save", "nn.checkpoint.load"):
        m[f"{name}_s"] = per[name]
    m["nn.checkpoint.bytes_written"] = attr["nn.checkpoint.save", "bytes"]

    for name in ("embed", "train_head", "train_baseline", "evaluate"):
        m[f"downstream.{name}_s"] = per[f"downstream.{name}"]
    m["downstream.head_epochs"] = attr["downstream.train_head", "epochs"]
    m["downstream.baseline_epochs"] = attr["downstream.train_baseline", "epochs"]

    m["contrastive.nt_xent_s"] = per["contrastive.nt_xent"]
    m["contrastive.val_forward_s"] = sum(
        s.seconds / counts[s.phase] for s in spans
        if s.name == "nn.forward.eval" and _under(s, "contrastive.pretrain")
    )
    m["contrastive.pretrain.self_s"] = sum(
        (s.seconds - _union_seconds([(c.start, c.end) for c in children[s]], s.start, s.end))
        / counts[s.phase]
        for s in spans if s.name == "contrastive.pretrain"
    )
    m["augment.apply_policy_s"] = per["augment.apply_policy"]
    policy_calls = sum(1 for s in spans if s.name == "augment.apply_policy")
    m["augment.us_per_view"] = rate(raw_s["augment.apply_policy"], 2 * policy_calls, 1e-6)

    plans = [s for s in spans if s.name == "protocol.run_plan"]
    first = [s for s in plans if not _under(s, "bench.resume")]
    m["protocol.run_plan_s"] = sum(s.seconds / counts[s.phase] for s in first)
    m["protocol.resume_s"] = sum(s.seconds / counts[s.phase] for s in plans if s not in first)
    m["protocol.run_experiment_s"] = per["protocol.run_experiment"]
    m["protocol.run_baseline_s"] = per["protocol.run_baseline"]
    busy = serial = wall = 0.0
    for plan in first:
        entries = [s for s in spans
                   if s.name in ("protocol.run_experiment", "protocol.run_baseline")
                   and plan in _ancestors(s)]
        b, sr = _concurrency(entries, plan.start, plan.end)
        busy, serial, wall = busy + b, serial + sr / counts[plan.phase], wall + plan.seconds
    m["protocol.parallelism"] = rate(busy, wall)
    m["protocol.serial_s"] = serial

    for name in ("decode_wav", "resample", "extract_windows", "write_window_store",
                 "prepare_manifest", "read_window_store"):
        m[f"signal_io.{name}_s"] = per[f"signal_io.{name}"]
    m["signal_io.resample_msamples_per_s"] = rate(
        raw_attr["signal_io.resample", "samples"], raw_s["signal_io.resample"], 1e6)
    m["signal_io.write_mb"] = attr["signal_io.write_window_store", "bytes"] / 2**20
    m["signal_io.read_mb_per_s"] = rate(
        raw_attr["signal_io.read_window_store", "bytes"], raw_s["signal_io.read_window_store"], 2**20)

    m["analysis.effect_size_report_s"] = per["analysis.effect_size_report"]
    return m
