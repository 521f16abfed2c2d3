"""Exception types shared across the package, and the one way a text input
file is read so that its errors name it."""

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
