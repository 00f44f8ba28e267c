"""Deterministic, seedable random streams and sampling primitives.

All randomness in this package flows through RngStream.  Streams are built on
the Philox counter-based generator with key = (seed, stream_index), so any
substream is constructed algebraically in O(1) and distinct indices give
independent sequences by construction — no draws are burned, no spawning state
is carried around.  Replaying a (seed, stream_index) pair reproduces the draw
sequence bit-for-bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInputError, InvalidParameterError

__all__ = [
    "RngStream",
    "SampleSummary",
    "make_stream",
    "summarize",
]


@dataclass(frozen=True)
class RngStream:
    """A keyed random stream.  Equality of (seed, stream_index) implies equality
    of the generated sequence."""

    seed: int
    stream_index: int
    generator: np.random.Generator = field(repr=False, compare=False)


def _integer(name: str, value, uint64: bool = False) -> int:
    """value as a plain int (numpy integers included), else
    InvalidParameterError; with uint64, it must also fit in 64 unsigned bits,
    as a seed or a stream index must."""
    try:
        index = operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}") from None
    if uint64 and not 0 <= index < 2**64:
        raise InvalidParameterError(f"{name} must be a 64-bit unsigned integer, got {value!r}")
    return index


def make_stream(seed: int, stream_index: int = 0) -> RngStream:
    """Create the deterministic stream identified by (seed, stream_index)."""
    key = [_integer("seed", seed, uint64=True), _integer("stream_index", stream_index, uint64=True)]
    generator = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
    return RngStream(seed=key[0], stream_index=key[1], generator=generator)


@dataclass(frozen=True)
class SampleSummary:
    """Moments and empirical quantiles of a sample."""

    mean: float
    sd: float
    quantiles: dict[float, float]
    n: int


def summarize(values, probability_levels=(0.025, 0.5, 0.975)) -> SampleSummary:
    """Mean, sd (denominator n-1; sd of a singleton is 0 by convention), and
    empirical quantiles by linear interpolation between order statistics."""
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise EmptyInputError("summarize requires at least one value")
    levels = [float(p) for p in probability_levels]
    for p in levels:
        if not 0.0 <= p <= 1.0:
            raise InvalidParameterError(f"probability level must be in [0, 1], got {p}")
    if np.all(arr == arr[0]):
        # Summed means of a constant sample drift by an ulp; a degenerate
        # sample must summarize to its value bit-exactly (mean == quantiles).
        value = float(arr[0])
        return SampleSummary(
            mean=value, sd=0.0, quantiles={p: value for p in levels}, n=int(arr.size)
        )
    sd = float(np.std(arr, ddof=1))
    qs = np.quantile(arr, levels) if levels else np.array([])
    return SampleSummary(
        mean=float(np.mean(arr)),
        sd=sd,
        quantiles={p: float(q) for p, q in zip(levels, qs)},
        n=int(arr.size),
    )
