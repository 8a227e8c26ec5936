"""Shared fixtures: bundled data paths and corpus builders."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from lotkalaw import PublicationRecord, load_distribution

DATA_DIR = Path(__file__).resolve().parents[1] / "data"

# Authorship pattern of the bundled CAD corpus: rows are author-count
# buckets 1..10 then ">10", columns are the five-year windows starting
# 1990, 1995, 2000, 2005, 2010, 2015.
PATTERN_MATRIX = (
    (17, 20, 17, 12, 18, 10),
    (21, 33, 13, 34, 30, 28),
    (24, 18, 22, 34, 34, 29),
    (27, 23, 22, 23, 43, 38),
    (14, 20, 10, 19, 30, 43),
    (10, 18, 15, 16, 28, 35),
    (5, 13, 4, 19, 14, 17),
    (2, 5, 5, 11, 14, 19),
    (3, 1, 4, 7, 4, 14),
    (1, 1, 3, 5, 10, 12),
    (1, 8, 7, 15, 62, 150),
)
PERIOD_STARTS = (1990, 1995, 2000, 2005, 2010, 2015)


def build_pattern_records() -> list[PublicationRecord]:
    """Corpus realizing PATTERN_MATRIX; ">10" rows get 11 authors."""
    records = []
    serial = 0
    for bucket, row in enumerate(PATTERN_MATRIX):
        author_count = bucket + 1 if bucket < 10 else 11
        for period, cell in enumerate(row):
            for _ in range(cell):
                serial += 1
                authors = tuple(f"w{serial}a{j}" for j in range(author_count))
                records.append(
                    PublicationRecord(f"rec{serial:04d}", PERIOD_STARTS[period], authors)
                )
    return records


def build_mixed_records() -> list[PublicationRecord]:
    """Small corpus whose complete counts are exactly log-linear.

    Complete counting yields counts (8, 2, 1) at x = (1, 2, 4), which sit
    on a log-log line of slope exactly -1.5, so the corpus exercises the
    whole records -> fit -> test pipeline without numeric surprises.
    """
    rows = [
        ("r01", 1990, ("u1", "u2")),
        ("r02", 1991, ("u3",)),
        ("r03", 1996, ("u4", "u5", "u6")),
        ("r04", 1997, ("u7",)),
        ("r05", 2001, ("u8",)),
        ("r06", 2002, ("v1",)),
        ("r07", 2003, ("v1",)),
        ("r08", 2006, ("v2",)),
        ("r09", 2007, ("v2",)),
        ("r10", 2008, ("w",)),
        ("r11", 2009, ("w",)),
        ("r12", 2010, ("w",)),
        ("r13", 2011, ("w",)),
    ]
    return [PublicationRecord(*row) for row in rows]


def random_corpus(rng: np.random.Generator, max_records: int = 50,
                  max_authors: int = 6) -> list[PublicationRecord]:
    """Small random corpus; author names repeat across and within records."""
    pool = [f"author-{i}" for i in range(int(rng.integers(2, 12)))]
    n_rec = int(rng.integers(1, max_records + 1))
    records = []
    for i in range(n_rec):
        k = int(rng.integers(1, max_authors + 1))
        names = tuple(str(pool[j]) for j in rng.integers(0, len(pool), size=k))
        records.append(PublicationRecord(f"r{i}", 1990 + int(rng.integers(0, 30)), names))
    return records


@pytest.fixture(autouse=True)
def no_leaked_worker():
    """Every process a test forks or starts has been reaped when the test ends."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="session")
def cad_distribution():
    return load_distribution((DATA_DIR / "cad_productivity.csv").read_bytes())


@pytest.fixture(scope="session")
def cad_reference():
    """Published comparison table: list of per-row dicts."""
    lines = (DATA_DIR / "cad_ks_reference.csv").read_text().strip().splitlines()
    headers = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        values = line.split(",")
        row = {"x": int(values[0]), "y": int(values[1])}
        for name, value in zip(headers[2:], values[2:]):
            row[name] = float(value)
        rows.append(row)
    return rows


@pytest.fixture(scope="session")
def pattern_records():
    return build_pattern_records()
