"""Statistics helpers used by reports and experiment harnesses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values.

    The paper quotes geometric-mean speedups (``1.36x on average``); we use
    the same aggregation so measured numbers are comparable.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("geomean of empty sequence")
    if np.any(arr <= 0):
        raise ValueError("geomean requires strictly positive values")
    return float(np.exp(np.mean(np.log(arr))))


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean (raises on empty input)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("mean of empty sequence")
    return float(arr.mean())


def percentile(values: Sequence[float], q: float) -> float:
    """q-th percentile (q in [0, 100]) using linear interpolation."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("percentile of empty sequence")
    return float(np.percentile(arr, q))


@dataclass(frozen=True)
class Summary:
    """Five-number-style summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    p50: float
    p90: float
    p99: float
    maximum: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"n={self.count} mean={self.mean:.4g} std={self.std:.4g} "
            f"min={self.minimum:.4g} p50={self.p50:.4g} p90={self.p90:.4g} "
            f"p99={self.p99:.4g} max={self.maximum:.4g}"
        )


def summarize(values: Sequence[float]) -> Summary:
    """Compute a :class:`Summary` of a non-empty sample."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("summarize of empty sequence")
    # One partition for the three ranks; each equals its own
    # ``np.percentile`` call bit for bit.
    p50, p90, p99 = np.percentile(arr, (50, 90, 99)).tolist()
    return Summary(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std()),
        minimum=float(arr.min()),
        p50=p50,
        p90=p90,
        p99=p99,
        maximum=float(arr.max()),
    )
