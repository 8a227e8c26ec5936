"""Synthetic draws: determinism, law fidelity, estimator calibration."""

import os
import re
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from lotkalaw import (
    DataError,
    NumericError,
    PublicationRecord,
    SynthSpec,
    authorship_pattern,
    compute_constant,
    exact_distribution,
    fit_exponent_lsq,
    run_ks,
    sample_distribution,
    truncated_probabilities,
)
from lotkalaw import corpus, synth
from lotkalaw.corpus import CountingMethod


# ---------------------------------------------------------------------------
# law plumbing

def test_truncated_constant_tiny_support():
    assert compute_constant(2.0, 2) == pytest.approx(0.8, rel=1e-12)


def test_truncated_probabilities_sum_to_exactly_one():
    for n, x_max in ((1.5, 10), (2.0, 100), (2.54, 1000), (4.0, 7)):
        p = truncated_probabilities(n, x_max)
        assert p.sum() == 1.0
        assert (p > 0).all()
        assert p[0] / p[1] == pytest.approx(2.0**n, rel=1e-9)


def test_truncated_probabilities_sum_to_one_within_an_ulp():
    for n in np.arange(1.05, 3.96, 0.05):
        for x_max in (2, 3, 10, 50, 100, 1000, 10_000):
            p = truncated_probabilities(float(n), x_max)
            assert abs(p.sum() - 1.0) <= np.spacing(1.0), (n, x_max)


def test_law_validation():
    with pytest.raises(DataError, match="x_max"):
        truncated_probabilities(2.0, 1)
    with pytest.raises(DataError, match="exponent"):
        truncated_probabilities(1.0, 10)
    with pytest.raises(DataError, match="exponent must exceed 1, got nan"):
        truncated_probabilities(float("nan"), 10)
    with pytest.raises(DataError, match="exponent must exceed 1, got nan"):
        SynthSpec(float("nan"), 10, 100, 1)


def test_spec_validation():
    with pytest.raises(DataError, match="author_count"):
        SynthSpec(2.0, 0, 10, 1)
    with pytest.raises(DataError, match="seed"):
        SynthSpec(2.0, 10, 10, -1)
    with pytest.raises(DataError, match="seed"):
        SynthSpec(2.0, 10, 10, 2**64)
    with pytest.raises(DataError, match="x_max"):
        SynthSpec(2.0, 10, 1, 1)


@pytest.mark.parametrize("value", [100.5, 10.0, True, "10"])
def test_synth_integers_must_be_integers(value):
    # a float x_max once drew a table over 1..101, and a float
    # author_count returned an exact table
    with pytest.raises(DataError, match=rf"x_max must be an integer, got {value!r}"):
        SynthSpec(2.0, 1000, value, 0)
    with pytest.raises(DataError, match=rf"x_max must be an integer, got {value!r}"):
        truncated_probabilities(2.0, value)
    with pytest.raises(DataError, match=rf"author_count must be an integer, got {value!r}"):
        SynthSpec(2.0, value, 10, 0)
    with pytest.raises(DataError, match=rf"author_count must be an integer, got {value!r}"):
        exact_distribution(2.0, value, 10)
    with pytest.raises(DataError, match=rf"seed must be an integer, got {value!r}"):
        SynthSpec(2.0, 10, 10, value)
    with pytest.raises(DataError, match=r"author_count must be an integer, got 1000\.7"):
        exact_distribution(2.0, 1000.7, 10)
    with pytest.raises(DataError, match=r"x_max must be an integer, got 3\.5"):
        truncated_probabilities(2.0, 3.5)


_ONE_RECORD = [PublicationRecord("p1", 2000, ("a",))]


@pytest.mark.parametrize("call, text", [
    (lambda: SynthSpec(2.0, 0, 10, 1), "author_count must be >= 1, got 0"),
    (lambda: SynthSpec(2.0, -3, 10, 1), "author_count must be >= 1, got -3"),
    (lambda: truncated_probabilities(2.0, 1), "x_max must be >= 2, got 1"),
    (lambda: SynthSpec(2.0, 10, 0, 1), "x_max must be >= 2, got 0"),
    (lambda: exact_distribution(2.0, 0, 10), "author_count must be >= 1, got 0"),
    (lambda: compute_constant(2.0, 0), "sum limit must be >= 1, got 0"),
    (lambda: compute_constant(2.0, np.int64(-1)), "sum limit must be >= 1, got -1"),
    (lambda: authorship_pattern(_ONE_RECORD, period_length=0), "period_length must be >= 1, got 0"),
])
def test_integer_below_its_minimum_names_the_bound(call, text):
    with pytest.raises(DataError, match=f"^{re.escape(text)}$"):
        call()


def test_synth_accepts_numpy_integers():
    spec = SynthSpec(2.0, np.int64(5), np.int64(3), np.uint64(42))
    assert sample_distribution(spec).points == ((1, 3), (2, 2))
    assert exact_distribution(2.0, np.int32(10), np.int64(2)).points == ((1, 8), (2, 2))
    # a block sized from an int32 support of 40,000 levels must not wrap
    assert (sample_distribution(SynthSpec(2.0, np.int32(1000), np.int32(40_000), 3))
            == sample_distribution(SynthSpec(2.0, 1000, 40_000, 3)))


# ---------------------------------------------------------------------------
# sampling

def test_sampling_is_deterministic():
    spec = SynthSpec(2.0, 5, 3, 42)
    first = sample_distribution(spec)
    second = sample_distribution(spec)
    assert first.points == second.points
    # pinned draw for this spec under the documented generator contract
    assert first.points == ((1, 3), (2, 2))
    assert first.provenance == "sampled:seed=42"


def test_different_seeds_differ():
    a = sample_distribution(SynthSpec(2.0, 2000, 50, 0))
    b = sample_distribution(SynthSpec(2.0, 2000, 50, 1))
    assert a.points != b.points


def test_sample_respects_support_and_size():
    dist = sample_distribution(SynthSpec(2.2, 5000, 7, 99))
    assert dist.total_authors == 5000
    assert dist.points[0][0] >= 1
    assert dist.points[-1][0] <= 7


def test_sample_frequencies_track_the_law():
    dist = sample_distribution(SynthSpec(2.0, 100_000, 2, 123))
    share = dict(dist.points)[1] / 100_000
    assert share == pytest.approx(0.8, abs=0.005)


def _bisect_table(spec):
    # the documented contract: a right-side bisect of each uniform into
    # the pinned CDF, then a count per level
    cdf = np.cumsum(truncated_probabilities(spec.n, spec.x_max))
    cdf[-1] = 1.0
    u = np.random.Generator(np.random.PCG64(spec.seed)).random(spec.author_count)
    counts = np.bincount(np.searchsorted(cdf, u, side="right") + 1, minlength=spec.x_max + 1)
    return tuple((x, int(counts[x])) for x in range(1, spec.x_max + 1) if counts[x])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    st.floats(1.01, 6.0),
    st.integers(1, 5000),
    st.integers(2, 3000),
    st.integers(0, 2**64 - 1),
)
def test_sample_matches_the_bisect_contract(n, author_count, x_max, seed):
    spec = SynthSpec(n, author_count, x_max, seed)
    assert sample_distribution(spec).points == _bisect_table(spec)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    st.floats(1.01, 6.0),
    st.integers(1, 2000),
    st.integers(2, 3000),
    st.integers(0, 2**64 - 1),
    st.integers(1, 64),
    st.sampled_from([1, 2, 3, 7]),
)
def test_a_draw_in_many_blocks_matches_the_bisect_contract(n, author_count, x_max, seed, block,
                                                            cpus):
    # each CPU counts one run of blocks, from a generator advanced to its start
    spec = SynthSpec(n, author_count, x_max, seed)
    with mock.patch.object(synth, "_BLOCK_UNIFORMS", block), \
            mock.patch.object(synth, "_cpus", lambda: cpus):
        assert sample_distribution(spec).points == _bisect_table(spec)


@pytest.mark.parametrize("cpus", [1, 2, 3, 7])
@pytest.mark.parametrize(
    "spec",
    [
        SynthSpec(2.0, 1, 2, 0),
        # three whole blocks and a partial one: fewer blocks than 7 CPUs
        SynthSpec(2.0, 3 * 2**16 + 5, 100, 5),
        SynthSpec(2.0, 2**16 + 1, 100, 6),  # one whole block and one uniform
        SynthSpec(3.0, 7, 3, 1),
        SynthSpec(1.05, 2000, 10**5, 2),  # wide, sparse support
        # cumsum reaches 1.0 at level 99,949: the pinned CDF is not
        # monotone and the last 52 levels cannot be drawn
        SynthSpec(3.0, 5000, 10**5, 3),
        SynthSpec(4.0, 3000, 10**6, 4),  # the last probability is 0.0
        SynthSpec(2.0, 1000, 50, 2**64 - 1),
    ],
    ids=["one-author", "three-blocks-and-5", "a-block-and-1", "x_max-3", "sparse-1e5",
         "cdf-not-monotone", "last-p-zero", "max-seed"],
)
def test_sample_matches_the_bisect_contract_on_edges(monkeypatch, spec, cpus):
    monkeypatch.setattr(synth, "_cpus", lambda: cpus)
    points = sample_distribution(spec).points
    assert points == _bisect_table(spec)
    assert sum(y for _, y in points) == spec.author_count


def _traced_peak(call) -> int:
    call()  # numpy's first-call set-up is not the draw's
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_narrow_draw_holds_a_few_blocks_of_uniforms_not_all_of_them(monkeypatch, cpus):
    # all 2e6 uniforms at once took 16.0 MB; each run holds one block at a time
    monkeypatch.setattr(synth, "_cpus", lambda: cpus)
    peak = _traced_peak(lambda: sample_distribution(SynthSpec(2.0, 2_000_000, 100, 0)))
    assert peak < 4 * 8 * synth._BLOCK_UNIFORMS


def test_a_draw_as_wide_as_its_support_holds_less_than_a_draw_in_one_call():
    # one block of 1e6 uniforms on 1e6 levels; the draw in one call took
    # 69.9 MB. This one peaks at 24.0 MB as the block is counted: three
    # 8.0 MB arrays, the CDF, the sorted uniforms and the count below each
    # edge. The table is built from the counts alone, at 16.6 MB; keeping
    # the CDF and the summed count alive through it, as before, took 32.6 MB
    peak = _traced_peak(lambda: sample_distribution(SynthSpec(1.05, 10**6, 10**6, 0)))
    assert peak < 28 * 10**6


def test_an_exact_table_of_a_million_levels_holds_columns_not_pairs():
    # 238.8 MB while the table was also a tuple of Python-int pairs
    peak = _traced_peak(lambda: exact_distribution(1.05, 10**9, 10**6))
    assert peak < 200 * 10**6


@pytest.mark.parametrize("cpus", [2, 3, 7])
def test_no_thread_outlives_a_draw_in_many_runs(monkeypatch, cpus):
    monkeypatch.setattr(synth, "_cpus", lambda: cpus)
    started = mock.Mock(wraps=threading.Thread)
    monkeypatch.setattr(threading, "Thread", started)
    before = threading.active_count()
    spec = SynthSpec(2.0, 5 * 2**16, 100, 7)
    assert sample_distribution(spec).points == _bisect_table(spec)
    # one run per CPU, at most one per block; the calling thread counts the first
    assert started.call_count == min(cpus, 5) - 1
    assert threading.active_count() == before


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_a_run_that_fails_raises_once_every_run_has_ended(monkeypatch, failing):
    monkeypatch.setattr(synth, "_cpus", lambda: 3)
    count_below = synth._count_below
    ended = []

    def count_or_fail(seed, cdf, block, start, stop):
        if start == failing * 2 * block:  # six blocks, two to a run
            raise MemoryError("no room for a block")
        below = count_below(seed, cdf, block, start, stop)
        ended.append(start)
        return below

    monkeypatch.setattr(synth, "_count_below", count_or_fail)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="no room for a block"):
        sample_distribution(SynthSpec(2.0, 6 * 2**16, 100, 8))
    assert len(ended) == 2
    assert threading.active_count() == before


def test_a_split_read_right_after_a_draw_in_many_runs_forks_its_workers(monkeypatch, tmp_path):
    # no sampler thread is left for the fork to find
    monkeypatch.setattr(synth, "_cpus", lambda: 3)
    before = threading.active_count()
    sample_distribution(SynthSpec(2.0, 6 * 2**16, 100, 9))
    assert threading.active_count() == before
    monkeypatch.setattr(corpus, "_SPLIT_BYTES", 1 << 10)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forked = mock.Mock(wraps=corpus._Worker)
    monkeypatch.setattr(corpus, "_Worker", forked)
    path = tmp_path / "records.psv"
    path.write_text("".join(f"P{i}|2000|Author {i}\n" for i in range(300)), encoding="utf-8")
    loaded, tally = corpus._read_file(path, "pipe", CountingMethod.COMPLETE)
    assert len(loaded) == len(tally) == 300
    assert forked.call_count == 2


def test_sample_gives_a_uniform_on_a_cdf_edge_to_the_level_above(monkeypatch):
    # PCG64 almost never lands on an edge, so feed uniforms that do
    cdf = np.cumsum(truncated_probabilities(2.0, 3))
    u = np.array([cdf[1], 0.0, cdf[0], cdf[0]])

    class FixedUniforms:
        def __init__(self, bit_generator):
            pass

        def random(self, size):
            return u[:size].copy()

    monkeypatch.setattr(np.random, "Generator", FixedUniforms)
    spec = SynthSpec(2.0, 4, 3, 0)
    assert sample_distribution(spec).points == _bisect_table(spec) == ((1, 1), (2, 2), (3, 1))


@pytest.mark.parametrize("n", [1.8, 2.0, 2.54, 3.0])
def test_pooled_sample_counts_match_the_law_over_the_whole_support(n):
    # the acceptance criterion's draws (10**4 authors, x_max 100, seeds
    # 0..19) pooled, against the law at every level 1..100; adjacent
    # levels merge until each expected count is at least 5
    observed = np.zeros(100)
    for seed in range(20):
        for x, y in sample_distribution(SynthSpec(n, 10_000, 100, seed)).points:
            observed[x - 1] += y
    expected = truncated_probabilities(n, 100) * observed.sum()
    obs_bins, exp_bins = [], []
    obs_acc = exp_acc = 0.0
    for o, e in zip(observed, expected):
        obs_acc += o
        exp_acc += e
        if exp_acc >= 5:
            obs_bins.append(obs_acc)
            exp_bins.append(exp_acc)
            obs_acc = exp_acc = 0.0
    obs_bins[-1] += obs_acc
    exp_bins[-1] += exp_acc
    assert chisquare(obs_bins, exp_bins).pvalue > 0.001


# ---------------------------------------------------------------------------
# exact tables

def test_exact_distribution_known_values():
    assert exact_distribution(2.0, 1000, 4).points == ((1, 702), (2, 176), (3, 78), (4, 44))
    assert exact_distribution(2.0, 4, 2).points == ((1, 3), (2, 1))
    assert exact_distribution(2.0, 10, 2).points == ((1, 8), (2, 2))


def test_exact_distribution_conserves_authors_approximately():
    dist = exact_distribution(2.54, 16006, 114)
    assert dist.total_authors == pytest.approx(16006, abs=114 / 2)
    assert dist.provenance == "exact"


def test_exact_distribution_all_zero_rows():
    with pytest.raises(NumericError, match="round to zero"):
        exact_distribution(1.2, 2, 10_000)


def test_exact_distribution_validation():
    with pytest.raises(DataError, match="author_count"):
        exact_distribution(2.0, 0, 10)


@pytest.mark.parametrize("n, author_count, x_max", [
    (2.0, 2 * 10**19, 2), (2.0, 10**20, 10), (2.0, 10**400, 10), (1000.0, 2**63 - 1, 10),
], ids=["level-1-dropped", "x3-blamed", "float-overflow", "count-rounds-to-2^63"])
def test_exact_distribution_counts_past_64_bits(n, author_count, x_max):
    # the int64 cast once turned level 1 of the first case into a dropped "zero" row
    with pytest.raises(DataError, match=f"author_count {author_count} is too large"):
        exact_distribution(n, author_count, x_max)
    assert exact_distribution(2.0, 2**62, 2).points == ((1, 3689348814741910528),
                                                        (2, 922337203685477376))


# ---------------------------------------------------------------------------
# calibration against the fitted pipeline

def test_exact_tables_conform_under_ks():
    for n in (2.0, 2.54, 3.0):
        dist = exact_distribution(n, 10_000, 100)
        result = run_ks(dist, n, compute_constant(n, 100), 1.63)
        assert result.d_max_cumulative <= 0.01
        assert result.conforms_cumulative
        assert result.conforms_pointwise


def test_fit_recovers_exponent_from_exact_tables():
    # rounding noise vanishes as the table grows
    for n in (1.8, 2.0, 2.54, 3.0):
        dist = exact_distribution(n, 1_000_000, 100)
        assert fit_exponent_lsq(dist).n == pytest.approx(n, abs=0.02)


def test_mean_sampled_fit_tracks_target_on_large_corpora():
    # author_count large enough that tail rows hold real mass; smaller
    # corpora leave rows of singleton counts that drag the slope down
    targets = (1.8, 2.0, 2.54, 3.0)
    for target in targets:
        fits = [
            fit_exponent_lsq(
                sample_distribution(SynthSpec(target, 1_000_000, 100, seed))
            ).n
            for seed in range(20)
        ]
        assert float(np.mean(fits)) == pytest.approx(target, abs=0.1)
