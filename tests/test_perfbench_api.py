"""The benchmark's view of the package API, checked at tier 1.

`perfbench/` calls the package by module attribute and config field. An API
change that breaks it should fail here, not only when the benchmark runs.
The workloads are built on an empty directory: no inputs are made and
nothing is timed.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        yield {name: importlib.import_module(name) for name in ("workloads", "inputs", "tracing")}
    finally:
        sys.path.remove(str(BENCH))


def test_every_workload_builds_without_inputs(bench_modules, tmp_path):
    workloads = bench_modules["workloads"]
    assert sorted(workloads.WORKLOADS) == ["ingest", "pretrain", "sweep"]
    for name, workload in workloads.WORKLOADS.items():
        built = workload(tmp_path / name, seed=1)
        assert built.name == name
        for module in workload.imports.split(","):  # what the runner times the import of
            importlib.import_module(module.strip())


def test_pretrain_reads_the_config_fields_it_uses(bench_modules, tmp_path):
    config = bench_modules["workloads"].WORKLOADS["pretrain"](tmp_path, seed=3).config
    assert (config.batch_size, config.max_epochs, config.patience, config.seed) == (16, 2, 1, 3)
    assert 0.0 <= config.val_fraction < 1.0


def test_traced_names_exist(bench_modules):
    tracing = bench_modules["tracing"]
    for module, function, _, _ in tracing.FUNCTIONS:
        assert callable(getattr(module, function)), f"{module.__name__}.{function}"
    for cls, method, _, _ in tracing.METHODS:
        assert callable(getattr(cls, method)), f"{cls.__name__}.{method}"


def _frozen_ssl_graph():
    from cardioclr import nn

    graph = nn.build_ssl_graph(nn.EncoderConfig(channels=(2,), kernels=(3,), pool_widths=(2,),
                                                input_len=8, projection_dim=3), seed=1)
    graph.freeze_encoder()
    return graph


def test_encoder_checkpoints_keep_the_fields_the_sweep_reads(tmp_path):
    """`Sweep.run` digests `encoder_bytes()` of every loaded encoder, and
    `Sweep.check` reads `best_val_loss` and `encoder_id` from its metadata."""
    from cardioclr import nn

    graph = _frozen_ssl_graph()
    path = tmp_path / "e0.ckpt"
    nn.save_checkpoint(path, graph, extra={"best_val_loss": 4.25, "encoder_id": "e0"})
    loaded, meta = nn.load_checkpoint(path)
    assert (meta["extra"]["best_val_loss"], meta["extra"]["encoder_id"]) == (4.25, "e0")
    assert loaded.encoder_frozen and loaded.encoder_bytes() == graph.encoder_bytes()


def test_graph_forward_takes_the_training_argument_the_tracer_reads(bench_modules):
    """`tracing._graph_forward` reads `training` as a keyword or as the
    third positional argument of `ModelGraph.forward`."""
    from cardioclr.nn import ModelGraph

    assert list(inspect.signature(ModelGraph.forward).parameters)[:3] == ["self", "x", "training"]
    tag = bench_modules["tracing"]._graph_forward
    graph = _frozen_ssl_graph()
    assert tag((graph, None), {}) == "nn.forward.eval"
    assert tag((graph, None), {"training": True}) == "nn.forward.train"
    assert tag((graph, None, True), {}) == "nn.forward.train"
