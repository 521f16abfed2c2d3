"""Run configuration: a small INI-style format with strict keys.

The `[pretrain]`, `[downstream]` and `[model]` sections are the fields of
`PretrainConfig`, `DownstreamConfig` and `EncoderConfig`: their defaults
(LARS warmup to 0.1, Adam 1e-4, early stopping with patience 10/20...) and
validity checks live in those classes. The rest of the SimCLR recipe is
fixed in code, not configured: NT-Xent temperature 0.1
(`contrastive.TEMPERATURE`), LARS trust 0.001 and momentum 0.9 without
weight decay (`Lars`), the cosine floor at 1% of the peak rate
(`LrSchedule.floor_fraction`), head dropout 0.5 (`nn.model.DROPOUT`) and
one input channel. Unknown keys, those constants' old keys among them, are
errors so typos cannot silently fall back to defaults. The resolved config
serializes canonically, which makes its hash independent of key order in
the source file. It holds no seed: that comes from the plan or `--seed`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import fields, make_dataclass

from .augment import fmt
from .contrastive import PretrainConfig
from .downstream import DownstreamConfig
from .errors import ConfigError, parse_text_file, read_sections
from .nn.model import EncoderConfig

_STAGES = {"pretrain": PretrainConfig, "downstream": DownstreamConfig, "model": EncoderConfig}
# Not settable in a config: each stage's seed derives from the experiment's
# seed, and the encoder's input length is fixed by the window format.
_NOT_KEYS = {"seed", "input_len"}
# A key that both training stages have (batch_size, max_epochs, patience)
# carries the stage's prefix in RunConfig.
_SHARED = {f.name for f in fields(PretrainConfig)} & {f.name for f in fields(DownstreamConfig)}
_PREFIX = {"pretrain": "pretrain_", "downstream": "head_"}


def _parse_int_tuple(text: str) -> tuple:
    """`8,16` -> (8, 16); an empty value is the empty tuple, and an empty
    entry (`8,,16`, `8,16,`) a `ValueError`."""
    return tuple(int(tok) for tok in text.split(",")) if text else ()


def _parse_finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


_PARSERS = {int: int, float: _parse_finite_float, tuple: _parse_int_tuple}


def _entries():
    """(section, key, RunConfig attribute, default) of every key, in file order."""
    for section, stage in _STAGES.items():
        for f in fields(stage):
            if f.name not in _NOT_KEYS:
                attr = _PREFIX[section] + f.name if f.name in _SHARED else f.name
                yield section, f.name, attr, f.default


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
    set_on: dict[str, int] = {}  # RunConfig attribute -> line that set it
    for section, lines in read_sections(text, SCHEMA, "line").items():
        for lineno, line in lines:
            key, eq, value = line.partition("=")
            if not eq:
                raise ConfigError(f"line {lineno}: expected `key = value`, got {line!r}")
            key, value = key.strip(), value.strip()
            entry = SCHEMA[section].get(key)
            if entry is None:
                raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")
            attr, parser = entry
            if attr in set_on:
                raise ConfigError(f"line {lineno}: key {key!r} already set in [{section}] "
                                  f"on line {set_on[attr]}")
            set_on[attr] = lineno
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
        return fmt(value)
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


def pretrain_config(cfg: RunConfig, seed: int) -> PretrainConfig:
    return _stage(cfg, "pretrain", seed=seed)


def downstream_config(cfg: RunConfig, seed: int) -> DownstreamConfig:
    return _stage(cfg, "downstream", seed=seed)


def encoder_config(cfg: RunConfig) -> EncoderConfig:
    return _stage(cfg, "model")
