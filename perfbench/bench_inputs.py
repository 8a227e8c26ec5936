"""Seeded benchmark inputs and their numpy-only oracles.

Every input is generated with numpy from the workload seed before any
timing starts; lotkalaw only ever sees the generated bytes. Each
generator also returns an oracle computed from the generator's own
arrays (author ids, record sizes, years) without calling lotkalaw, so
the benchmark can check the program's answers independently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Author pool: every author's paper count is drawn from a truncated
# Lotka law, so the counted corpus has a realistic long tail.
POOL_EXPONENT = 2.5
POOL_X_MAX = 1000

FIRST_YEAR = 1990
YEAR_SPAN = 30

# Share of pipe-format author slots written with extra whitespace
# (doubled or non-breaking spaces, tabs, padding) that
# normalize_author must collapse. One surname in four is non-ASCII.
WHITESPACE_SHARE = 0.10

_ASCII_SURNAMES = (
    "Naidoo", "Smith", "Botha", "Dlamini", "Nkosi", "Pillay", "Jacobs", "Williams",
    "Mokoena", "Khumalo", "Mahlangu", "Petersen", "Adams", "Fourie", "Venter", "Nel",
    "Pretorius", "Ndlovu", "Zulu", "Govender", "van der Merwe", "Moodley", "Sithole",
    "Abrahams", "Kruger", "Mthembu", "Hendricks", "du Plessis", "Maharaj", "Le Roux",
)
_NON_ASCII_SURNAMES = (
    "Müller", "Núñez", "Østergård", "Łukasiewicz", "Šimek", "Çelik", "Größ",
    "Dvořák", "Ólafsdóttir", "Hernández",
)
SURNAMES = _ASCII_SURNAMES + _NON_ASCII_SURNAMES

_WHITESPACE_VARIANTS = (
    lambda name: "  " + name,
    lambda name: name + "\t",
    lambda name: name.replace(" ", "  ", 1),
    lambda name: name.replace(" ", "\u00a0", 1),
    lambda name: name.replace(" ", " \t ", 1),
)


@dataclass(frozen=True)
class RecordScale:
    """Record count and authors per record.

    A record has one author with probability ``single_share``, otherwise
    ``base + geometric(1 / geometric_mean)`` authors.
    """

    records: int
    single_share: float
    base: int
    geometric_mean: float


# pipe_report: light collaboration, a geometric author count with mean
# 3. jsonl_collab: shaped like the CAD corpus, 7% single-author records
# and a mean near 25. Both fill about 9e5 author slots.
PIPE_SCALES = {
    "full": RecordScale(300_000, single_share=0.0, base=0, geometric_mean=3.0),
    "smoke": RecordScale(1_000, single_share=0.0, base=0, geometric_mean=3.0),
}
JSONL_SCALES = {
    "full": RecordScale(36_000, single_share=0.07, base=1, geometric_mean=25.0),
    "smoke": RecordScale(1_000, single_share=0.07, base=1, geometric_mean=25.0),
}


@dataclass(frozen=True)
class TableSpec:
    """One calibration table: law, size, support, PCG64 seed, K-S variant."""

    n: float
    authors: int
    x_max: int
    seed: int
    dense: bool


# Paper-sized tables: the four targets at 1e4 and 1e6 authors on
# x_max 100, each with and without dense expected cumulatives. Wide
# tables: 1e7 authors on x_max 1e4, giving about 1.5e3 and 3.8e3
# observed levels, where K-S cost per level dominates.
_NARROW = tuple(
    (n, authors, 100, dense)
    for n in (1.8, 2.0, 2.54, 3.0)
    for authors in (10**4, 10**6)
    for dense in (False, True)
)
CALIBRATION_GRIDS = {
    "full": _NARROW + ((2.3, 10**7, 10**4, True), (2.0, 10**7, 10**4, False)),
    "smoke": (
        (2.0, 10**4, 100, False),
        (2.54, 10**4, 100, True),
        (3.0, 10**4, 100, False),
        (2.0, 10**5, 10**3, True),
    ),
}


@dataclass
class RecordOracle:
    """What a correct parse and count of a record file must give."""

    records: int
    slots: int
    sizes: np.ndarray  # authors per record
    years: np.ndarray
    complete: tuple[np.ndarray, np.ndarray]  # (x levels, authors at x)
    straight: tuple[np.ndarray, np.ndarray]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


def _frequency_table(tally: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) rows of a per-author tally: y authors hold exactly x credits."""
    freq = np.bincount(tally[tally > 0])
    xs = np.flatnonzero(freq)
    return xs, freq[xs]


def _lotka_productivities(rng: np.random.Generator, slots: int) -> np.ndarray:
    """Papers per author for a pool that fills exactly ``slots`` slots."""
    p = np.arange(1, POOL_X_MAX + 1, dtype=np.float64) ** -POOL_EXPONENT
    cdf = np.cumsum(p / p.sum())
    cdf[-1] = 1.0
    mean = float((np.arange(1, POOL_X_MAX + 1) * p).sum() / p.sum())
    draws = np.empty(0, dtype=np.int64)
    while draws.sum() < slots:
        more = np.searchsorted(cdf, rng.random(int(slots / mean * 1.1) + 16), side="right") + 1
        draws = np.concatenate([draws, more])
    cum = np.cumsum(draws)
    count = int(np.searchsorted(cum, slots)) + 1
    x = draws[:count].copy()
    x[-1] -= int(cum[count - 1]) - slots  # the last author fills the remainder
    return x


def _b26(value: int) -> str:
    letters = ""
    while True:
        value, digit = divmod(value, 26)
        letters = chr(65 + digit) + letters
        if value == 0:
            return letters


def author_names(count: int) -> list[str]:
    """Distinct canonical names; normalize_author leaves each unchanged."""
    k = len(SURNAMES)
    return [f"{SURNAMES[i % k]} {_b26(i // k)}" for i in range(count)]


def _corpus(seed: int, stream: int, scale: RecordScale):
    rng = _rng(seed, stream)
    sizes = np.where(
        rng.random(scale.records) < scale.single_share,
        1,
        scale.base + rng.geometric(1.0 / scale.geometric_mean, scale.records),
    ).astype(np.int64)
    slots = int(sizes.sum())
    productivity = _lotka_productivities(rng, slots)
    owners = rng.permutation(np.repeat(np.arange(productivity.size), productivity))
    years = rng.integers(FIRST_YEAR, FIRST_YEAR + YEAR_SPAN, scale.records)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    oracle = RecordOracle(
        records=scale.records,
        slots=slots,
        sizes=sizes,
        years=years,
        complete=_frequency_table(np.bincount(owners)),
        straight=_frequency_table(np.bincount(owners[offsets[:-1]])),
    )
    return rng, owners, offsets, oracle


def pipe_records(seed: int, scale: str) -> tuple[bytes, RecordOracle]:
    """``id|year|a; b; c`` lines, a WHITESPACE_SHARE of names padded."""
    rng, owners, offsets, oracle = _corpus(seed, 1, PIPE_SCALES[scale])
    names = author_names(int(owners.max()) + 1)
    slot_names = [names[o] for o in owners.tolist()]
    padded = np.flatnonzero(rng.random(owners.size) < WHITESPACE_SHARE)
    variants = rng.integers(0, len(_WHITESPACE_VARIANTS), padded.size)
    for slot, variant in zip(padded.tolist(), variants.tolist()):
        slot_names[slot] = _WHITESPACE_VARIANTS[variant](slot_names[slot])
    bounds = offsets.tolist()
    lines = [
        f"R{r:07d}|{year}|{'; '.join(slot_names[bounds[r]:bounds[r + 1]])}\n"
        for r, year in enumerate(oracle.years.tolist())
    ]
    return "".join(lines).encode("utf-8"), oracle


def jsonl_records(seed: int, scale: str) -> tuple[bytes, RecordOracle]:
    """JSON lines in the canonical layout, so a round trip is byte-identical."""
    _, owners, offsets, oracle = _corpus(seed, 2, JSONL_SCALES[scale])
    names = author_names(int(owners.max()) + 1)
    slot_names = [names[o] for o in owners.tolist()]
    bounds = offsets.tolist()
    lines = [
        json.dumps(
            {"authors": slot_names[bounds[r]:bounds[r + 1]], "id": f"R{r:07d}", "year": year},
            sort_keys=True,
            ensure_ascii=False,
            separators=(",", ":"),
        )
        + "\n"
        for r, year in enumerate(oracle.years.tolist())
    ]
    return "".join(lines).encode("utf-8"), oracle


def calibration_grid(seed: int, scale: str) -> list[TableSpec]:
    grid = CALIBRATION_GRIDS[scale]
    seeds = np.random.SeedSequence([seed, 3]).generate_state(len(grid), dtype=np.uint64)
    return [
        TableSpec(n, authors, x_max, int(s), dense)
        for (n, authors, x_max, dense), s in zip(grid, seeds.tolist())
    ]


def sampled_table(spec: TableSpec) -> tuple[np.ndarray, np.ndarray]:
    """The documented sampling contract, recomputed with numpy alone.

    PCG64 seeded with the table seed, ``authors`` uniform doubles in one
    call, mapped by a right-side bisect on the cumulative probabilities
    of p(x) ~ x**-n over 1..x_max, the last entry absorbing rounding.
    """
    p = np.arange(1, spec.x_max + 1, dtype=np.float64) ** -spec.n
    p /= p.sum()
    p[-1] = 1.0 - p[:-1].sum()
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    u = np.random.Generator(np.random.PCG64(spec.seed)).random(spec.authors)
    counts = np.bincount(np.searchsorted(cdf, u, side="right") + 1, minlength=spec.x_max + 1)
    xs = np.flatnonzero(counts)
    return xs, counts[xs]


def distribution_csv(xs: np.ndarray, ys: np.ndarray) -> bytes:
    return ("x,y\n" + "".join(f"{x},{y}\n" for x, y in zip(xs.tolist(), ys.tolist()))).encode()
