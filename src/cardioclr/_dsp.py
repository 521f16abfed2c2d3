"""Windowed-sinc FIR primitives shared by the resampler and the cutoff filters."""

import numpy as np

from .errors import ParameterError


def lowpass_taps(num_taps: int, cutoff: float) -> np.ndarray:
    """Hamming windowed-sinc low-pass taps.

    `cutoff` is in cycles/sample (0 < cutoff < 0.5). Taps are normalized to
    unit DC gain, so a constant signal passes through exactly.
    """
    if num_taps < 1 or num_taps % 2 == 0:
        raise ParameterError(f"tap count must be odd and positive, got {num_taps}")
    if not 0.0 < cutoff < 0.5:
        raise ParameterError(f"cutoff must lie in (0, 0.5) cycles/sample, got {cutoff}")
    m = np.arange(num_taps, dtype=np.float64) - (num_taps - 1) / 2.0
    h = 2.0 * cutoff * np.sinc(2.0 * cutoff * m)
    h *= np.hamming(num_taps)
    h /= h.sum()
    return h


def highpass_taps(num_taps: int, cutoff: float) -> np.ndarray:
    """Spectral inversion of `lowpass_taps`, normalized to unit Nyquist gain."""
    h = -lowpass_taps(num_taps, cutoff)
    h[(num_taps - 1) // 2] += 1.0
    m = np.arange(num_taps) - (num_taps - 1) // 2
    nyquist_gain = float(np.sum(h * np.where(m % 2 == 0, 1.0, -1.0)))
    h /= nyquist_gain
    return h


def convolve_same_reflect(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Zero-delay FIR filtering with reflection padding.

    Requires odd-length taps; the output has the same length as the input and
    the group delay of the linear-phase filter is compensated by construction.
    """
    taps = np.asarray(taps, dtype=np.float64)
    if taps.ndim != 1 or taps.size % 2 == 0:
        raise ParameterError("taps must be a 1-D odd-length vector")
    half = taps.size // 2
    x64 = np.asarray(x, dtype=np.float64)
    if x64.size == 0:
        return x64
    if half == 0:
        return x64 * taps[0]
    # np.pad reflect needs at least 2 samples; replicate a lone sample instead.
    mode = "reflect" if x64.size > 1 else "edge"
    padded = np.pad(x64, half, mode=mode)
    return np.convolve(padded, taps, mode="valid")
