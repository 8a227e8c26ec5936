"""Synthetic productivity distributions drawn from a truncated power law.

The law is p(x) = c_T * x**(-n) on the integer support 1..x_max, with
c_T chosen so the probabilities sum to one. Two generators exist: an
exact one that rounds expected counts to integers, and a sampling one
that draws authors independently and is bit-reproducible from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import ProductivityDistribution
from .errors import DataError, NumericError, _require_int

__all__ = [
    "SynthSpec",
    "truncated_probabilities",
    "sample_distribution",
    "exact_distribution",
]


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic draw: law, size, support, seed."""

    n: float
    author_count: int
    x_max: int
    seed: int

    def __post_init__(self) -> None:
        _validate_law(self.n, self.x_max)
        _require_int("author_count", self.author_count, 1)
        _require_int("seed", self.seed)
        if not 0 <= self.seed < 2**64:
            raise DataError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


def _validate_law(n: float, x_max: int) -> None:
    _require_int("x_max", x_max, 2)
    if not n > 1.0:  # NaN fails too
        raise DataError(f"exponent must exceed 1, got {n}")


def _points(counts: np.ndarray) -> tuple[tuple[int, int], ...]:
    """(x, count) rows of the positive entries; ``counts[i]`` is level i + 1."""
    idx = np.flatnonzero(counts > 0)
    return tuple(zip((idx + 1).tolist(), counts[idx].tolist()))


def truncated_probabilities(n: float, x_max: int) -> np.ndarray:
    """Probability vector over 1..x_max, summing to 1.0 within one ulp.

    The last entry is 1.0 minus the sum of the others; ``np.cumsum(p)[-1]``
    can still be tens of ulp off 1.0, so a CDF is pinned by its caller.
    """
    _validate_law(n, x_max)
    p = np.arange(1, x_max + 1, dtype=np.float64) ** -n
    p /= p.sum()
    p[-1] = 1.0 - p[:-1].sum()
    return p


def sample_distribution(spec: SynthSpec) -> ProductivityDistribution:
    """Draw author productivities independently from the truncated law.

    Reproducibility contract: the stream is numpy's PCG64 generator
    seeded with ``spec.seed``, and ``author_count`` uniform float64
    values ``u`` are drawn in one call. With ``cdf = np.cumsum(p)`` and
    its last entry pinned to 1.0, level x gets the uniforms in
    ``[cdf[x-2], cdf[x-1])``, level 1 those in ``[0, cdf[0])``: the
    table that a right-side bisect of each ``u`` into ``cdf`` gives.
    The code sorts ``u`` and counts the uniforms below each CDF edge.
    PCG64's bit stream and the uniform-double conversion are stable
    across platforms and numpy releases, so one spec always yields one
    table.
    """
    p = truncated_probabilities(spec.n, spec.x_max)
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    u = rng.random(spec.author_count)
    u.sort()
    counts = np.diff(np.searchsorted(u, cdf, side="left"), prepend=0)
    return ProductivityDistribution(_points(counts), provenance=f"sampled:seed={spec.seed}")


def exact_distribution(n: float, author_count: int, x_max: int) -> ProductivityDistribution:
    """Noiseless table: expected counts rounded to nearest integers.

    Zero rows are dropped. If every row rounds to zero the requested
    corpus is too small to represent the law and NumericError is raised;
    an expected count that reaches 2^63 raises DataError.
    """
    _require_int("author_count", author_count, 1)
    p = truncated_probabilities(n, x_max)
    # the first test keeps a huge int out of the float product, which would overflow
    if author_count >= 2**63 or (expected := np.rint(author_count * p)).max() >= 2**63:
        raise DataError(f"author_count {author_count} is too large: an expected count "
                        "reaches 2^63, past 64 bits")
    points = _points(expected.astype(np.int64))
    if not points:
        raise NumericError(
            "all expected counts round to zero; increase author_count or the exponent"
        )
    return ProductivityDistribution(points, provenance="exact")
