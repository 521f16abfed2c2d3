"""Exception types shared across the package, the one way a text input file
is read so that its errors name it, and the one reader of `[section]` text."""

from pathlib import Path


class CardioclrError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(CardioclrError):
    """Malformed container or file contents."""


class UnsupportedFormatError(FormatError):
    """Well-formed but unsupported encoding (e.g. multi-channel WAV)."""


class LabelError(CardioclrError):
    """Label string outside the declared label set of a dataset."""


class ParameterError(CardioclrError):
    """Invalid argument value (out of range, empty grid, bad edges...)."""


class ShapeError(CardioclrError):
    """Incompatible array shapes."""


class NumericError(CardioclrError):
    """NaN/Inf encountered, or an operation that requires nonzero norm got zero."""


class StateError(CardioclrError):
    """Operation called in the wrong order (e.g. backward before forward)."""


class ConfigError(CardioclrError):
    """Bad configuration file or inconsistent run configuration."""


class DataError(CardioclrError):
    """Dataset-level problem: empty evaluation set, degenerate variance,
    too few records for the requested statistic."""


def parse_text_file(path, parse, error):
    """`parse(text)` of the UTF-8 file at `path`. Text that does not decode
    raises `error`, and every `CardioclrError` from `parse` is re-raised
    with the path in front, so each names the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise error(f"{path}: not UTF-8 text (byte {err.start})") from None
    try:
        return parse(text)
    except CardioclrError as err:
        raise type(err)(f"{path}: {err}") from err


def read_sections(text: str, names, where: str) -> dict[str, list[tuple[int, str]]]:
    """`{section: [(line number, line), ...]}` of `text`, without `#` comments
    and blank lines. A section not in `names`, or a line before the first
    section, is a `ConfigError` naming the line as `where` does (`line 3`)."""
    sections: dict[str, list[tuple[int, str]]] = {}
    lines = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in names:
                raise ConfigError(f"{where} {lineno}: unknown section [{name}]")
            lines = sections.setdefault(name, [])
        elif lines is None:
            raise ConfigError(f"{where} {lineno}: content outside any [section]")
        else:
            lines.append((lineno, line))
    return sections
