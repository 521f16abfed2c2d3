"""The six window transforms, their composition policies, and the sweep grid.

A policy is an ordered pair of transform chains: the left chain produces one
view of a window and the right chain the other. Policies serialize to a
compact grammar used in configs and result ledgers, e.g.

    hp(250,300)+flip(0.7)|inv+noise(u,-0.1,0.1)

`|` separates the two chains, `+` composes transforms left-to-right, and a
chain with no transforms is written `none`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from ._dsp import convolve_same_reflect, highpass_taps, lowpass_taps
from .errors import ParameterError
from .signal_io import TARGET_RATE

_CHAIN_SHAPES = {(0, 1): "0vs1", (1, 1): "1vs1", (1, 2): "1vs2", (2, 2): "2vs2"}


def _fmt(v: float) -> str:
    return f"{float(v):g}"


@dataclass(frozen=True)
class Atom:
    """One parameterized transform. Atom identity includes its parameters,
    so noise(u,-0.01,0.01) and noise(u,-0.1,0.1) are distinct grid entries."""

    kind: str
    params: tuple = ()

    def __post_init__(self):
        validator = _VALIDATORS.get(self.kind)
        if validator is None:
            raise ParameterError(f"unknown augmentation kind {self.kind!r}")
        validator(self.params)

    def __str__(self) -> str:
        if not self.params:
            return self.kind
        if self.kind == "noise":
            dist, lo, hi = self.params
            return f"noise({dist},{_fmt(lo)},{_fmt(hi)})"
        return f"{self.kind}({','.join(_fmt(p) for p in self.params)})"


def _check_noise(params):
    if len(params) != 3 or params[0] not in ("u", "g"):
        raise ParameterError(f"noise expects (dist, lo, hi) with dist u|g, got {params}")
    _, lo, hi = params
    if not lo <= hi:
        raise ParameterError(f"noise range must have lo <= hi, got ({lo}, {hi})")


def _check_cutoff(params):
    if len(params) != 2:
        raise ParameterError(f"cutoff expects (edge_a, edge_b), got {params}")
    a, b = params
    nyquist = TARGET_RATE / 2
    if not (0 < a < nyquist and 0 < b < nyquist):
        raise ParameterError(f"cutoff edges must lie in (0, {nyquist}) Hz, got ({a}, {b})")
    if a == b:
        raise ParameterError("cutoff edges must be distinct")


def _check_scale(params):
    if len(params) != 2:
        raise ParameterError(f"scale expects (a_min, a_max), got {params}")
    a_min, a_max = params
    if not 0 < a_min <= a_max:
        raise ParameterError(f"scale requires 0 < a_min <= a_max, got ({a_min}, {a_max})")


def _check_flip(params):
    if len(params) != 1 or not 0 < params[0] < 1:
        raise ParameterError(f"flip expects probability in (0, 1), got {params}")


def _check_bare(params):
    if params:
        raise ParameterError(f"unexpected parameters {params}")


_VALIDATORS = {
    "noise": _check_noise,
    "lp": _check_cutoff,
    "hp": _check_cutoff,
    "scale": _check_scale,
    "flip": _check_flip,
    "rev": _check_bare,
    "inv": _check_bare,
    "none": _check_bare,
}


@dataclass(frozen=True)
class AugmentationPolicy:
    left: tuple[Atom, ...]
    right: tuple[Atom, ...]

    def __post_init__(self):
        shape = (len(self.left), len(self.right))
        if shape not in _CHAIN_SHAPES:
            raise ParameterError(
                f"chain lengths {shape} do not match any case (0vs1, 1vs1, 1vs2, 2vs2)"
            )

    @property
    def case_tag(self) -> str:
        return _CHAIN_SHAPES[(len(self.left), len(self.right))]

    def __str__(self) -> str:
        return f"{chain_to_string(self.left)}|{chain_to_string(self.right)}"

    def atoms(self) -> tuple[Atom, ...]:
        return self.left + self.right


def chain_to_string(chain: Sequence[Atom]) -> str:
    return "none" if not chain else "+".join(str(a) for a in chain)


_ATOM_RE = re.compile(r"^([a-z]+)(?:\(([^()]*)\))?$")


def parse_atom(text: str) -> Atom:
    m = _ATOM_RE.match(text.strip())
    if not m:
        raise ParameterError(f"cannot parse augmentation atom {text!r}")
    kind, arg_str = m.group(1), m.group(2)
    args: list = []
    if arg_str is not None:
        for tok in arg_str.split(","):
            tok = tok.strip()
            if kind == "noise" and tok in ("u", "g"):
                args.append(tok)
            else:
                try:
                    args.append(float(tok))
                except ValueError:
                    raise ParameterError(f"bad parameter {tok!r} in atom {text!r}") from None
    if kind == "noise" and args and args[0] not in ("u", "g"):
        args.insert(0, "u")
    return Atom(kind, tuple(args))


def parse_chain(text: str) -> tuple[Atom, ...]:
    text = text.strip()
    if text == "none" or not text:
        return ()
    return tuple(parse_atom(tok) for tok in text.split("+"))


def parse_policy(text: str) -> AugmentationPolicy:
    parts = text.split("|")
    if len(parts) != 2:
        raise ParameterError(f"policy must be 'left|right', got {text!r}")
    return AugmentationPolicy(left=parse_chain(parts[0]), right=parse_chain(parts[1]))


# ---------------------------------------------------------------------------
# Transform implementations
# ---------------------------------------------------------------------------


def add_noise(x: np.ndarray, lo: float, hi: float, distribution: str, rng) -> np.ndarray:
    """Additive noise: i.i.d. uniform (`u`) on [lo, hi], or zero-mean
    Gaussian (`g`) with sigma = hi. A collapsed range (lo == hi == 0) is an
    exact identity."""
    if distribution == "u":
        if lo == hi == 0.0:
            return x.copy()
        n = rng.uniform(lo, hi, size=x.shape)
    else:
        if hi == 0.0:
            return x.copy()
        n = rng.normal(0.0, hi, size=x.shape)
    return (x + n.astype(x.dtype, copy=False)).astype(x.dtype, copy=False)


@lru_cache(maxsize=64)
def design_fir(kind: str, edge_a: float, edge_b: float, fs: int = TARGET_RATE) -> np.ndarray:
    """Linear-phase windowed-sinc (Hamming) taps for one cutoff filter.

    The (edge_a, edge_b) pair spans the transition band; the -6 dB cutoff sits
    at its midpoint. Tap count follows the 3.3*fs/width heuristic, rounded up
    to odd so the group delay is an integer.
    """
    width = abs(edge_a - edge_b)
    num_taps = int(np.ceil(3.3 * fs / width))
    if num_taps % 2 == 0:
        num_taps += 1
    cutoff = (edge_a + edge_b) / 2.0 / fs
    if kind == "lp":
        taps = lowpass_taps(num_taps, cutoff)
    else:
        taps = highpass_taps(num_taps, cutoff)
    taps.flags.writeable = False
    return taps


def apply_cutoff_filter(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Zero-delay filtering with reflection padding; length is preserved."""
    return convolve_same_reflect(x, taps).astype(x.dtype, copy=False)


def scale(x: np.ndarray, a_min: float, a_max: float, rng) -> np.ndarray:
    a = a_min if a_min == a_max else float(rng.uniform(a_min, a_max))
    return (x * x.dtype.type(a)).astype(x.dtype, copy=False)


def reverse(x: np.ndarray) -> np.ndarray:
    return x[::-1].copy()


def invert(x: np.ndarray) -> np.ndarray:
    return -x


def random_flip(x: np.ndarray, p: float, rng) -> np.ndarray:
    """Two independent Bernoulli(p) draws: the first gates `reverse`, the
    second gates `invert`, applied in that order."""
    do_reverse = rng.random() < p
    do_invert = rng.random() < p
    out = x
    if do_reverse:
        out = reverse(out)
    if do_invert:
        out = invert(out)
    return out.copy() if out is x else out


def apply_atom(x: np.ndarray, atom: Atom, rng) -> np.ndarray:
    if atom.kind == "noise":
        dist, lo, hi = atom.params
        return add_noise(x, lo, hi, dist, rng)
    if atom.kind in ("lp", "hp"):
        return apply_cutoff_filter(x, design_fir(atom.kind, *atom.params))
    if atom.kind == "scale":
        return scale(x, *atom.params, rng)
    if atom.kind == "rev":
        return reverse(x)
    if atom.kind == "inv":
        return invert(x)
    if atom.kind == "flip":
        return random_flip(x, atom.params[0], rng)
    return x.copy()  # none


def apply_chain(x: np.ndarray, chain: Sequence[Atom], rng) -> np.ndarray:
    out = x
    for atom in chain:
        out = apply_atom(out, atom, rng)
    return out.copy() if out is x else out


def apply_policy(
    x: np.ndarray, policy: AugmentationPolicy, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Produce the two views of a window. Each side draws from its own
    child stream, so the chains cannot perturb each other's randomness."""
    left_rng, right_rng = rng.spawn(2)
    return apply_chain(x, policy.left, left_rng), apply_chain(x, policy.right, right_rng)


def window_rng(seed: int, *stream) -> np.random.Generator:
    """Deterministic per-window generator derived from (seed, stream ids)."""
    key = tuple(int(s) if isinstance(s, (int, np.integer)) else _stable_id(s) for s in stream)
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + key))


def _stable_id(token) -> int:
    acc = 2166136261
    for ch in str(token).encode("utf-8"):
        acc = ((acc ^ ch) * 16777619) & 0xFFFFFFFF
    return acc


# ---------------------------------------------------------------------------
# Sweep grid
# ---------------------------------------------------------------------------


def default_atom_grid() -> list[Atom]:
    """The 17 parameterized transform variants swept in the ablation."""
    return [parse_atom(text) for text in (
        "noise(u,-0.001,0.001)", "noise(u,-0.01,0.01)", "noise(u,-0.1,0.1)",
        "lp(250,200)", "lp(500,450)", "lp(750,700)",
        "hp(250,300)", "hp(500,550)", "hp(750,800)",
        "scale(1,1.5)", "scale(1.5,2)", "scale(0.5,2)",
        "rev", "inv", "flip(0.3)", "flip(0.5)", "flip(0.7)",
    )]


def enumerate_policies(case_tag: str) -> list[AugmentationPolicy]:
    """The policies of one case over `default_atom_grid()`: 0vs1 gives one
    policy per atom (17), 1vs1 every unordered pair of distinct atoms (136)."""
    grid = default_atom_grid()
    if case_tag == "0vs1":
        return [AugmentationPolicy((), (a,)) for a in grid]
    if case_tag == "1vs1":
        return [AugmentationPolicy((a,), (b,)) for a, b in combinations(grid, 2)]
    raise ParameterError(f"case tag must be 0vs1 or 1vs1, got {case_tag!r}")
