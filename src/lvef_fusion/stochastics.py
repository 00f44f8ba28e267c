"""Deterministic, seedable random streams and sampling primitives.

Every draw in this package comes from make_stream(seed, stream_index): a
numpy Generator on the Philox counter-based bit generator keyed by the pair,
so any stream is built in O(1) and distinct keys give independent sequences
by construction, with no draws burned and no spawning state carried around.
Replaying a (seed, stream_index) pair reproduces the draw sequence
bit-for-bit.  The stream-index plan and the summary levels are stated here.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, InvalidParameterError

__all__ = [
    "SampleSummary",
    "make_stream",
    "summarize",
]

# The stream-index plan under one seed: replicate r of a propagation uses
# index r; the visual and Simpson calibrations use 2**32 and 2**32 + 1; cohort
# simulation uses 2**33.  A new use takes an index no other use can reach.
VISUAL_STREAM_INDEX = 2**32
SIMPSON_STREAM_INDEX = 2**32 + 1
SIM_STREAM_INDEX = 2**33

# summarize's default levels: the median and the two-sided 95% interval.
SUMMARY_LEVELS = (0.025, 0.5, 0.975)


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


def _key(seed, stream_index) -> np.ndarray:
    """The Philox key of stream (seed, stream_index), each part checked."""
    return np.array([_integer("seed", seed, uint64=True),
                     _integer("stream_index", stream_index, uint64=True)], dtype=np.uint64)


def make_stream(seed: int, stream_index: int) -> np.random.Generator:
    """The deterministic Generator identified by (seed, stream_index)."""
    return np.random.Generator(np.random.Philox(key=_key(seed, stream_index)))


def _restart_stream(stream: np.random.Generator, seed: int, stream_index: int) -> None:
    """Put a make_stream Generator in the state make_stream(seed, stream_index)
    starts in: the Philox key set, its counter zeroed and its buffers emptied.
    The same draws follow, without building a Generator (whose bit generator
    would first read OS entropy it then discards)."""
    stream.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": _key(seed, stream_index)},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }


@dataclass(frozen=True)
class SampleSummary:
    """Moments and empirical quantiles of a sample."""

    mean: float
    sd: float
    quantiles: dict[float, float]
    n: int


def summarize(values, probability_levels=SUMMARY_LEVELS) -> SampleSummary:
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
    return SampleSummary(
        mean=float(np.mean(arr)),
        sd=sd,
        quantiles={p: float(q) for p, q in zip(levels, np.quantile(arr, levels))},
        n=int(arr.size),
    )
