"""Answers to counting queries over a fitted MaxEnt model (Sec 7).

The evaluation itself lives in :class:`~repro.core.arena.ShardArena`.
This module holds the answer type: under the model, a counting query's
answer is ``Binomial(n, p)`` with ``p = P[masked]/P`` (each of the
``n`` i.i.d. slotted rows lands in the query region with probability
``p``), giving closed-form variance and confidence intervals.
"""

from __future__ import annotations

import math

#: two-sided 95% normal quantile for confidence intervals.
_Z95 = 1.959963984540054


class QueryEstimate:
    """Approximate answer to one counting query."""

    __slots__ = ("expectation", "probability", "total")

    def __init__(self, expectation: float, probability: float, total: int):
        self.expectation = expectation
        self.probability = probability
        self.total = total

    @property
    def variance(self) -> float:
        """Binomial variance ``n·p·(1−p)`` under the model."""
        p = self.probability
        return self.total * p * (1.0 - p)

    @property
    def std(self) -> float:
        return math.sqrt(max(self.variance, 0.0))

    @property
    def ci95(self) -> tuple[float, float]:
        """Normal-approximation 95% interval, clipped to ``[0, n]``."""
        half = _Z95 * self.std
        return (
            max(self.expectation - half, 0.0),
            min(self.expectation + half, float(self.total)),
        )

    @property
    def rounded(self) -> int:
        """Paper-style rounding: values ≥ .5 round up (Sec 4.3's
        discussion of estimates near 0.5)."""
        return round_half_up(self.expectation)

    def __repr__(self):
        return (
            f"QueryEstimate({self.expectation:.3f} ± {self.std:.3f}, "
            f"n={self.total})"
        )


def round_half_up(value: float) -> int:
    """Round with halves going up (Python's ``round`` is banker's)."""
    return int(math.floor(value + 0.5))
