"""Synthetic productivity distributions drawn from a truncated power law.

The law is p(x) = c_T * x**(-n) on the integer support 1..x_max, with
c_T chosen so the probabilities sum to one. Two generators exist: an
exact one that rounds expected counts to integers, and a sampling one
that draws authors independently and is bit-reproducible from its seed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .corpus import ProductivityDistribution, _cpus
from .errors import DataError, NumericError, _require_int

__all__ = [
    "SynthSpec",
    "truncated_probabilities",
    "sample_distribution",
    "exact_distribution",
]

# Uniforms drawn and counted at a time, so a sort stays in cache. A
# support wider than 2^12 levels takes 2^16 / 2^12 = 16 uniforms per
# level, so the search of its edges into a block costs little beside
# the sort, and a support as wide as the draw is one block.
_BLOCK_UNIFORMS = 1 << 16


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


def _points(counts: np.ndarray) -> np.ndarray:
    """The (x, count) rows of the positive entries, an (n, 2) array; ``counts[i]`` is level i + 1."""
    idx = np.flatnonzero(counts > 0)
    return np.column_stack((idx + 1, counts[idx]))


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

    Reproducibility contract: the uniforms ``u`` are the first
    ``author_count`` float64 values of numpy's PCG64 generator seeded
    with ``spec.seed``. With ``cdf = np.cumsum(p)`` and its last entry
    pinned to 1.0, level x gets the uniforms in ``[cdf[x-2], cdf[x-1])``,
    level 1 those in ``[0, cdf[0])``: the table that a right-side bisect
    of each ``u`` into ``cdf`` gives. The code draws ``u`` a block at a
    time, sorts each block and adds up the uniforms below each CDF edge;
    successive draws give the doubles that one draw gives, so the block
    size never changes the table. The blocks are counted in one
    contiguous run per CPU this process may run on, each run in its own
    thread from a generator jumped ahead to the run's first uniform, and
    the runs' integer counts are summed, so the table is the same for
    any CPU count. Every thread has ended when the call returns or
    raises. PCG64's bit stream and the uniform-double conversion are
    stable across platforms and numpy releases, so one spec always
    yields one table.
    """
    cdf = np.cumsum(truncated_probabilities(spec.n, spec.x_max))
    cdf[-1] = 1.0
    block = max(_BLOCK_UNIFORMS, _BLOCK_UNIFORMS * int(spec.x_max) >> 12)  # no int32 overflow
    author_count = int(spec.author_count)  # PCG64.advance overflows on any numpy integer
    blocks = -(-author_count // block)
    runs = min(_cpus(), blocks)
    starts = [blocks * k // runs * block for k in range(runs)] + [author_count]
    parts = [None] * runs  # each run's count below the edges, or what it raised

    def count(k: int) -> None:
        try:
            parts[k] = _count_below(spec.seed, cdf, block, starts[k], starts[k + 1])
        except BaseException as exc:  # raised once every run has ended
            parts[k] = exc

    threads = [threading.Thread(target=count, args=(k,)) for k in range(1, runs)]
    try:
        for thread in threads:
            thread.start()
        count(0)  # on the calling thread
    finally:
        for thread in threads:
            if thread.ident is not None:  # started
                thread.join()
    for part in parts:
        if isinstance(part, BaseException):
            raise part
    counts = parts[0]  # the count below each edge, then at each level
    for part in parts[1:]:
        counts += part
    del cdf, parts  # only the counts are held while the table is built
    counts[1:] = np.diff(counts)
    return ProductivityDistribution(_points(counts), provenance=f"sampled:seed={spec.seed}")


def _count_below(seed: int, cdf: np.ndarray, block: int, start: int, stop: int) -> np.ndarray:
    """How many of uniforms ``start`` to ``stop`` of the seed's stream lie below each CDF edge."""
    bit_generator = np.random.PCG64(seed)
    bit_generator.advance(start)  # a double takes one 64-bit output
    rng = np.random.Generator(bit_generator)
    for done in range(start, stop, block):
        u = rng.random(min(block, stop - done))
        u.sort()
        found = np.searchsorted(u, cdf, side="left")
        if done > start:
            below += found
        else:  # the count starts from the first block's search, with no zeroed array
            below = found
        del u  # before the next block is drawn
    return below


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
    if not len(points):
        raise NumericError(
            "all expected counts round to zero; increase author_count or the exponent"
        )
    return ProductivityDistribution(points, provenance="exact")
