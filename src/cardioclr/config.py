"""Run configuration: a small INI-style format with strict keys.

The `[pretrain]`, `[downstream]` and `[model]` sections are the fields of
`PretrainConfig`, `DownstreamConfig` and `EncoderConfig`: their defaults
(temperature 0.1, LARS warmup to 0.1, Adam 1e-4, early stopping with
patience 10/20...) and validity checks live in those classes. Unknown keys
are errors so typos cannot silently fall back to defaults. The resolved
config serializes canonically, which makes its hash independent of key order
in the source file.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import fields, make_dataclass

from .contrastive import PretrainConfig
from .downstream import DownstreamConfig
from .errors import ConfigError, parse_text_file
from .nn.model import EncoderConfig
from .signal_io import SPLIT_GRANULARITIES

_STAGES = {"pretrain": PretrainConfig, "downstream": DownstreamConfig, "model": EncoderConfig}
# Not settable per stage: each stage's seed derives from `[run] seed`, and
# the encoder's input shape is fixed by the window format.
_NOT_KEYS = {"seed", "input_len", "in_channels"}
# A key that both training stages have (batch_size, max_epochs, patience)
# carries the stage's prefix in RunConfig.
_SHARED = {f.name for f in fields(PretrainConfig)} & {f.name for f in fields(DownstreamConfig)}
_PREFIX = {"pretrain": "pretrain_", "downstream": "head_"}


def _parse_int_tuple(text: str) -> tuple:
    return tuple(int(tok.strip()) for tok in text.split(",") if tok.strip())


def _parse_finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


_PARSERS = {int: int, float: _parse_finite_float, str: str, tuple: _parse_int_tuple}


def _entries():
    """(section, key, RunConfig attribute, default) of every key, in file order."""
    yield "run", "seed", "seed", 0
    for section, stage in _STAGES.items():
        for f in fields(stage):
            if f.name not in _NOT_KEYS:
                attr = _PREFIX[section] + f.name if f.name in _SHARED else f.name
                yield section, f.name, attr, f.default
    yield "data", "split_granularity", "split_granularity", SPLIT_GRANULARITIES[0]


# section -> key -> (RunConfig attribute, parser)
SCHEMA: dict[str, dict[str, tuple]] = {}
for _section, _key, _attr, _default in _entries():
    SCHEMA.setdefault(_section, {})[_key] = (_attr, _PARSERS[type(_default)])


def _stage(cfg, section: str, **overrides):
    values = {key: getattr(cfg, attr) for key, (attr, _) in SCHEMA[section].items()}
    return _STAGES[section](**values, **overrides)


def _check(cfg) -> None:
    for section in _STAGES:
        try:
            _stage(cfg, section)
        except ConfigError as exc:
            raise ConfigError(f"[{section}] {exc}") from None
    if cfg.seed < 0:
        raise ConfigError(f"[run] seed must be non-negative, got {cfg.seed}")
    if cfg.split_granularity not in SPLIT_GRANULARITIES:
        raise ConfigError(f"unknown split granularity {cfg.split_granularity!r}")


RunConfig = make_dataclass(
    "RunConfig",
    [(attr, type(default), default) for _, _, attr, default in _entries()],
    namespace={
        "__doc__": "Every INI key as one flat field; the stage configs check the values.",
        "__module__": __name__,
        "__post_init__": _check,
    },
)


def parse_config_text(text: str) -> RunConfig:
    values: dict[str, object] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside of any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        entry = SCHEMA[section].get(key)
        if entry is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")
        attr, parser = entry
        try:
            values[attr] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from exc
    return RunConfig(**values)


def parse_config(path) -> RunConfig:
    return parse_text_file(path, parse_config_text, ConfigError)


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


def resolved_text(config: RunConfig) -> str:
    """Canonical serialization: fixed section and key order. Re-parsing the
    resolved text is a fixed point, and the hash ignores source formatting."""
    lines = []
    for section, entries in SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (attr, _) in entries.items():
            lines.append(f"{key} = {_format_value(getattr(config, attr))}")
        lines.append("")
    return "\n".join(lines)


def config_hash(config: RunConfig) -> str:
    return hashlib.sha256(resolved_text(config).encode("utf-8")).hexdigest()[:16]


# -- derived per-stage configs ----------------------------------------------


def pretrain_config(cfg: RunConfig, seed: int | None = None) -> PretrainConfig:
    return _stage(cfg, "pretrain", seed=cfg.seed if seed is None else seed)


def downstream_config(cfg: RunConfig, seed: int | None = None) -> DownstreamConfig:
    return _stage(cfg, "downstream", seed=cfg.seed if seed is None else seed)


def encoder_config(cfg: RunConfig) -> EncoderConfig:
    return _stage(cfg, "model")
