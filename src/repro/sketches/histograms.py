"""Statistical summaries of columns (the profiler's numeric/categorical view).

Besides MinHash signatures, the metadata engine records per-column summary
statistics in each context snapshot: numeric columns get moments, range and
equi-width histograms; categorical columns get cardinality and heavy hitters.
These feed both discovery ranking and the intrinsic-property constraints in
WTP functions (e.g. "few missing values").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import nsmallest
from typing import Mapping, Sequence

import numpy as np


def _histogram(finite: np.ndarray, bins: int):
    """Equi-width histogram of finite values.  A range numpy cannot cut
    into ``bins`` finite-sized bins — a constant column beyond 2**53, a
    span wider than the float range — is one bin over ``[min, max]``."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return np.histogram(finite, bins=bins)
        except ValueError:
            return (np.array([finite.size]),
                    np.array([finite.min(), finite.max()]))


@dataclass(frozen=True)
class NumericSummary:
    """Moments, range and an equi-width histogram of a numeric column."""

    count: int
    nulls: int
    minimum: float
    maximum: float
    mean: float
    std: float
    bin_edges: tuple[float, ...]
    bin_counts: tuple[int, ...]

    @classmethod
    def of(cls, values: Sequence, bins: int = 10) -> "NumericSummary":
        nulls = sum(1 for v in values if v is None)
        data = np.array([float(v) for v in values if v is not None], dtype=float)
        return cls.of_array(data, nulls, bins=bins)

    @classmethod
    def of_array(
        cls, data: np.ndarray, nulls: int, bins: int = 10
    ) -> "NumericSummary":
        """Summary from an already-materialized float array of the non-null
        values (the columnar profiler's entry point); :meth:`of` delegates
        here, so both paths produce bit-identical summaries."""
        if data.size == 0:
            return cls(0, nulls, float("nan"), float("nan"), float("nan"),
                       float("nan"), (), ())
        finite_mask = np.isfinite(data)
        if finite_mask.all():
            counts, edges = _histogram(data, bins)
            valid = data
        else:
            # NaN/inf cells must not crash profiling (the packed
            # canonicalization admits them): histogram over the finite
            # values only, range/moments over everything but NaN
            finite = data[finite_mask]
            counts, edges = (
                _histogram(finite, bins) if finite.size else ((), ())
            )
            valid = data[~np.isnan(data)]
        if valid.size:
            minimum, maximum = float(valid.min()), float(valid.max())
            # inf - inf -> nan, huge**2 -> inf: degrade, don't warn
            with np.errstate(invalid="ignore", over="ignore"):
                mean, std = float(valid.mean()), float(valid.std())
        else:
            minimum = maximum = mean = std = float("nan")
        return cls(
            count=int(data.size),
            nulls=nulls,
            minimum=minimum,
            maximum=maximum,
            mean=mean,
            std=std,
            bin_edges=tuple(float(e) for e in edges),
            bin_counts=tuple(int(c) for c in counts),
        )

    def to_dict(self) -> dict:
        """JSON-ready payload (floats round-trip exactly, NaN included)."""
        return {
            "count": self.count,
            "nulls": self.nulls,
            "minimum": self.minimum,
            "maximum": self.maximum,
            "mean": self.mean,
            "std": self.std,
            "bin_edges": list(self.bin_edges),
            "bin_counts": list(self.bin_counts),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "NumericSummary":
        return cls(
            count=int(data["count"]),
            nulls=int(data["nulls"]),
            minimum=float(data["minimum"]),
            maximum=float(data["maximum"]),
            mean=float(data["mean"]),
            std=float(data["std"]),
            bin_edges=tuple(float(e) for e in data["bin_edges"]),
            bin_counts=tuple(int(c) for c in data["bin_counts"]),
        )

    def overlap(self, other: "NumericSummary") -> float:
        """Fraction of this column's range covered by the other's range."""
        if self.count == 0 or other.count == 0:
            return 0.0
        width = self.maximum - self.minimum
        if width == 0:
            inside = other.minimum <= self.minimum <= other.maximum
            return 1.0 if inside else 0.0
        lo = max(self.minimum, other.minimum)
        hi = min(self.maximum, other.maximum)
        if hi <= lo:
            return 0.0
        return (hi - lo) / width


@dataclass(frozen=True)
class CategoricalSummary:
    """Cardinality and heavy hitters of a categorical column."""

    count: int
    nulls: int
    distinct: int
    top: tuple[tuple[str, int], ...] = field(default=())

    @classmethod
    def of(cls, values: Sequence, top_k: int = 10) -> "CategoricalSummary":
        """Value-at-a-time reference implementation (the scalar profiling
        oracle); the columnar path counts a str column's ranks, and an
        ``any``-typed one goes through :meth:`of_counts`, both tested to
        produce identical summaries."""
        nulls = 0
        freq: dict[str, int] = {}
        for v in values:
            if v is None:
                nulls += 1
                continue
            key = str(v)
            freq[key] = freq.get(key, 0) + 1
        top = tuple(
            sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
        )
        return cls(
            count=len(values) - nulls,
            nulls=nulls,
            distinct=len(freq),
            top=top,
        )

    @classmethod
    def of_counts(
        cls, freq: Mapping[str, int], nulls: int, top_k: int = 10
    ) -> "CategoricalSummary":
        """Summary from precomputed value counts (the columnar profiler's
        entry point).  Identical output to :meth:`of` on the same counts;
        the heavy-hitter selection avoids sorting the full distinct set —
        a count threshold from ``np.partition`` narrows the sort to
        potential top-k members, and all-tied tails fall back to a
        key-order ``nsmallest``."""
        n = len(freq)
        count = sum(freq.values())
        if n <= max(32, 4 * top_k):
            top = tuple(
                sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
            )
            return cls(count=count, nulls=nulls, distinct=n, top=top)
        if count == n:
            # all values unique (e.g. a key column): ties everywhere, the
            # heavy hitters are simply the top_k smallest keys
            top = tuple((k, 1) for k in nsmallest(top_k, freq.keys()))
            return cls(count=count, nulls=nulls, distinct=n, top=top)
        counts = np.fromiter(freq.values(), dtype=np.int64, count=n)
        # the top_k-th largest count: anything below it cannot place
        thresh = int(np.partition(counts, n - top_k)[n - top_k])
        above = [kv for kv in freq.items() if kv[1] > thresh]
        above.sort(key=lambda kv: (-kv[1], kv[0]))
        remaining = top_k - len(above)
        at = nsmallest(
            remaining, (k for k, v in freq.items() if v == thresh)
        )
        top = tuple(above + [(k, thresh) for k in at])
        return cls(count=count, nulls=nulls, distinct=n, top=top)

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "nulls": self.nulls,
            "distinct": self.distinct,
            "top": [[k, v] for k, v in self.top],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "CategoricalSummary":
        return cls(
            count=int(data["count"]),
            nulls=int(data["nulls"]),
            distinct=int(data["distinct"]),
            top=tuple((str(k), int(v)) for k, v in data["top"]),
        )

    @property
    def null_fraction(self) -> float:
        total = self.count + self.nulls
        return self.nulls / total if total else 0.0
