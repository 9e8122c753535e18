"""Sampling-method behavior: determinism, sample identity between random and
ordered-random, alternating partitions, and convergence to closed forms."""

import itertools
import math
import re
from dataclasses import replace
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import lexdiv.indices as indices_mod
import lexdiv.sampling as sampling_mod
from lexdiv.corpus import Corpus, Text
from lexdiv.indices import (
    INDEXES,
    MTLD_FACTOR_SWEEP,
    IndexError_,
    IndexKind,
    IndexSpec,
    _encode,
    evaluate,
    evaluate_specs,
    hdd,
    mattr,
)
from lexdiv.sampling import (
    SamplingConfig,
    SamplingError,
    ScoreMatrix,
    alternating_sampling,
    ordered_random_sampling,
    parallel_sampling,
    parameter_sweep,
    random_sampling,
    run_method,
    stream_seed,
)
from lexdiv.stats import icc_2_1

from .conftest import make_zipf_corpus

TTR_SPEC = IndexSpec(kind=IndexKind.TTR)
HDD_SPEC = IndexSpec(kind=IndexKind.HDD, n=42)
MATTR_SPEC = IndexSpec(kind=IndexKind.MATTR, n=25)
# Monte Carlo under random and ordered random, so its cells score drawn
# token samples
MSTTR_SPEC = IndexSpec(kind=IndexKind.MSTTR, n=25)
# Monte Carlo under every sampling method, so its cells score drawn samples
MTLD_SPEC = IndexSpec(kind=IndexKind.MTLD)


def capture_samples(monkeypatch):
    """Record every token sample handed to the scorer, `evaluate_specs`,
    one row of each block at a time."""
    seen = []
    original = sampling_mod.evaluate_specs

    def spy(samples, specs, rngs):
        seen.extend(np.array(sample) for sample in samples)
        return original(samples, specs, rngs)

    monkeypatch.setattr(sampling_mod, "evaluate_specs", spy)
    return seen


# ------------------------------------------------------------------ streams

def test_stream_seed_deterministic_and_keyed():
    a = stream_seed(1, "t", "random", 50)
    assert a == stream_seed(1, "t", "random", 50)
    assert 0 <= a < 2**128
    assert a != stream_seed(1, "t", "random", 51)
    assert a != stream_seed(2, "t", "random", 50)


def test_block_draw_is_the_sequential_stream():
    """The batched draw relies on numpy filling the rows of one `permuted`
    call with the draws of successive `permutation` calls (and, for
    alternating, of successive `permuted` calls of fewer rows), and the
    rows of one `integers` call with the values of successive smaller
    calls, leaving the generator in the same state.  A numpy release that
    changes this changes every score sampled from positions, and every
    MTTRRS and MTTRSS score, so it must fail here.  Each draw yields a
    block's rows as ``(j, rows)`` for the length ``sizes[j]``; on texts
    whose codes are their positions, the rows are the positions."""
    for size, blocks in ((300, (40,)), (300, (1024, 1024, 952)), (7, (1, 2, 3))):
        seq, blk = np.random.default_rng(5), np.random.default_rng(5)
        want = [seq.permutation(size)[:size - 1] for _ in range(sum(blocks))]
        drawn = [part for b in blocks for part in sampling_mod._shared_draw(
            False, [size - 1], blk, np.arange(size), b)]
        assert {j for j, _ in drawn} == {0}
        assert np.array_equal(np.concatenate([rows for _, rows in drawn]), want)
        assert blk.bit_generator.state == seq.bit_generator.state

    k, n_snippets, blocks = 3, 100, (5, 2)
    seq, blk = np.random.default_rng(7), np.random.default_rng(7)
    want = []
    for _ in range(sum(blocks)):
        perm = seq.permuted(np.tile(np.arange(k), (n_snippets, 1)), axis=1)
        positions = perm + np.arange(n_snippets)[:, None] * k
        want += [positions[:, j] for j in range(k)]
    drawn = [part for b in blocks for part in sampling_mod._dealt_draw(
        k, blk, np.arange(k * n_snippets), b)]
    assert {j for j, _ in drawn} == {0}
    assert np.array_equal(np.concatenate([rows for _, rows in drawn]), want)
    assert blk.bit_generator.state == seq.bit_generator.state

    # MTTRRS and MTTRSS draw a block's positions or starts in one
    # `integers((b, k))` call, which must equal b calls of k values each
    for seed in range(20):
        for size, k, b in ((7, 1, 5), (300, 3, 1024), (5800, 50, 17), (300, 5, 1)):
            seq, blk = np.random.default_rng(seed), np.random.default_rng(seed)
            want = [seq.integers(0, size, size=k) for _ in range(b)]
            assert np.array_equal(blk.integers(0, size, size=(b, k)), want)
            assert blk.bit_generator.state == seq.bit_generator.state

    # a packed count block gives every text as many count columns as the
    # text with the most types: trailing empty colors must draw nothing
    # and leave every other column and the stream as they were
    for seed in range(20):
        own = np.random.default_rng(100 + seed)
        population = own.integers(0, 9, size=int(own.integers(1, 40))) + 1
        m, b = int(own.integers(0, population.sum() + 1)), int(own.integers(1, 30))
        seq, blk = np.random.default_rng(seed), np.random.default_rng(seed)
        want = seq.multivariate_hypergeometric(population, m, size=b, method="count")
        padded = np.append(population, np.zeros(int(own.integers(1, 20)), np.int64))
        (j, got), = sampling_mod._count_draw(m, blk, padded, b)
        assert j == 0
        assert np.array_equal(got[:, :len(population)], want)
        assert not got[:, len(population):].any()
        assert blk.bit_generator.state == seq.bit_generator.state


# ----------------------------------------------------------------- parallel

def test_parallel_matches_manual_segments(reference):
    text = reference
    scores = parallel_sampling(text, 160, (1, 2, 4), TTR_SPEC)
    toks = text.tokens[:160]

    def seg_mean(d):
        seg = 160 // d
        parts = [toks[i * seg:(i + 1) * seg] for i in range(d)]
        return sum(len(set(p)) / seg for p in parts) / d

    assert scores == pytest.approx([seg_mean(1), seg_mean(2), seg_mean(4)])


def test_parallel_segment_lengths_floor():
    # 100 tokens, d=3 -> three 33-token segments, last token unused
    text = Text(id="t", tokens=tuple(f"x{i}" for i in range(100)))
    scores = parallel_sampling(text, 100, (3,), TTR_SPEC)
    assert scores == [1.0]


def test_parallel_rejects_short_text():
    text = Text(id="t", tokens=("a", "b", "c"))
    with pytest.raises(SamplingError, match="shorter than truncation"):
        parallel_sampling(text, 10, (1, 2), TTR_SPEC)


def test_truncation_below_one_is_refused_by_name(reference):
    for truncate in (0, -4):
        message = f"truncation length must be >= 1, got {truncate}"
        with pytest.raises(SamplingError, match=message):
            random_sampling(reference, truncate, (1, 2), 5, 0, TTR_SPEC)
        with pytest.raises(SamplingError, match=message):
            SamplingConfig("random", truncate)


def test_parallel_rejects_segment_below_minimum(reference):
    with pytest.raises(SamplingError, match="minimum"):
        parallel_sampling(reference, 160, (1, 4), HDD_SPEC)


# ---------------------------------------------- random vs ordered random

def test_sample_identity_global_index(reference):
    """Random and ordered-random must analyze the same token samples, so
    any permutation-invariant index scores them identically per iteration."""
    for spec in (TTR_SPEC, HDD_SPEC):
        r = random_sampling(reference, 160, (80, 50), 25, 5, spec)
        o = ordered_random_sampling(reference, 160, (80, 50), 25, 5, spec)
        assert r == pytest.approx(o, abs=0.0)


def test_sample_identity_sequence_index_differs(reference):
    r = random_sampling(reference, 160, (80,), 30, 5, MATTR_SPEC)
    o = ordered_random_sampling(reference, 160, (80,), 30, 5, MATTR_SPEC)
    assert r != pytest.approx(o, abs=1e-9)


def test_ordered_samples_restore_text_order(monkeypatch, numbers_text):
    """On the 1..303 pseudo-text, every ordered-random sample must be
    strictly increasing, and the unordered sample must be its permutation.
    (Order-free indices draw type counts instead, and ordered MATTR is
    exact, so MSTTR is the index that sees token samples.)"""
    seen = capture_samples(monkeypatch)
    ordered_random_sampling(numbers_text, 303, (151,), 5, 9, MSTTR_SPEC)
    ordered = [s for s in seen if len(s) == 151]
    assert len(ordered) == 5
    for s in ordered:
        assert np.all(np.diff(s) > 0)

    seen.clear()
    random_sampling(numbers_text, 303, (151,), 5, 9, MSTTR_SPEC)
    unordered = [s for s in seen if len(s) == 151]
    for r, o in zip(unordered, ordered):
        assert not np.all(np.diff(r) > 0)
        assert np.array_equal(np.sort(r), s_sorted := np.sort(o))
        assert np.array_equal(o, s_sorted)


def test_full_length_condition_scored_once(monkeypatch, reference):
    seen = capture_samples(monkeypatch)
    scores = random_sampling(reference, 160, (160,), 50, 5, TTR_SPEC)
    assert len(seen) == 1
    toks = reference.tokens[:160]
    assert scores[0] == pytest.approx(len(set(toks)) / 160)


def test_random_rejects_oversized_sample(reference):
    with pytest.raises(SamplingError, match="exceeds truncation"):
        random_sampling(reference, 160, (161,), 5, 5, TTR_SPEC)


@pytest.mark.parametrize("method", [random_sampling, ordered_random_sampling])
def test_order_free_cells_match_exact_expectations(method):
    """A random or ordered-random cell averages an order-free index over
    without-replacement m-samples of the truncation, so its expectation is
    exact: E[TTR_m] = HD-D(m), E[Guiraud_m] = sqrt(m)·HD-D(m) and
    E[HD-D(n)_m] = HD-D(n).  Each cell must lie within 5 standard errors of
    it, the SE estimated from this test's own permutation draws; this holds
    under any stream layout."""
    text = make_zipf_corpus(1, 300, 300, seed=23).texts[0]
    trunc, iterations, lengths = 240, 2000, (200, 120, 60)
    codes = _encode(text.tokens[:trunc])
    own = np.random.default_rng(29)
    kinds = (
        (TTR_SPEC, lambda m: hdd(codes, m)),
        (IndexSpec(IndexKind.GUIRAUD_R), lambda m: np.sqrt(m) * hdd(codes, m)),
        (HDD_SPEC, lambda m: hdd(codes, 42)),
    )
    for spec, exact in kinds:
        cells = method(text, trunc, lengths, iterations, 41, spec)
        for m, got in zip(lengths, cells):
            draws = [evaluate(codes[own.permutation(trunc)[:m]], spec)[0]
                     for _ in range(300)]
            se = np.std(draws, ddof=1) / np.sqrt(iterations)
            assert abs(got - exact(m)) <= 5 * se, (spec.kind, m, got, exact(m), se)


def mttrrs_expectation(codes, m, n):
    """E[MTTRRS(n)] of a uniform m-sample of `codes`: type t, with count F_t
    in the sample (hypergeometric), is present in n with-replacement draws
    from it with probability 1 - (1 - F_t/m)^n."""
    size = len(codes)
    total = 0.0
    for c in np.bincount(codes).tolist():
        for f in range(max(1, m - (size - c)), min(c, m) + 1):
            p = math.comb(c, f) * math.comb(size - c, m - f) / math.comb(size, m)
            total += p * (1.0 - (1.0 - f / m) ** n)
    return total / n


def test_segment_and_resample_cells_match_exact_expectations():
    """In a random cell every segment of a permuted sample is a uniform
    n-subset of the truncation, so E[MTTRSS(n)] = HD-D(n); MTTRRS draws
    with replacement from the sample, whose type counts are hypergeometric
    (`mttrrs_expectation`).  Each cell must lie within 5 standard errors of
    its exact value, the SE estimated from this test's own draws; this
    holds under any stream layout."""
    text = make_zipf_corpus(1, 300, 300, seed=31).texts[0]
    trunc, iterations, lengths, n = 240, 2000, (200, 120, 60), 20
    codes = _encode(text.tokens[:trunc])
    own = np.random.default_rng(37)
    kinds = (
        (IndexSpec(IndexKind.MTTRSS, n=n, s=5), lambda m: hdd(codes, n)),
        (IndexSpec(IndexKind.MTTRRS, n=n, s=5),
         lambda m: mttrrs_expectation(codes, m, n)),
    )
    for spec, exact in kinds:
        cells = random_sampling(text, trunc, lengths, iterations, 43, spec)
        for m, got in zip(lengths, cells):
            draws = [evaluate(codes[own.permutation(trunc)[:m]], spec, rng=own)[0]
                     for _ in range(300)]
            se = np.std(draws, ddof=1) / np.sqrt(iterations)
            assert abs(got - exact(m)) <= 5 * se, (spec.kind, m, got, exact(m), se)


def test_random_ttr_converges_to_hdd(reference):
    """The expected TTR of an m-token without-replacement sample is HD-D(m),
    which a random TTR cell holds."""
    m = 60
    est = random_sampling(reference, 160, (m,), 4000, 13, TTR_SPEC)[0]
    exact = hdd(reference.tokens[:160], m)
    assert est == pytest.approx(exact, rel=1e-12)


# -------------------------------------------------------------- alternating

def test_alternating_partition_property(monkeypatch, numbers_text):
    """Each iteration's k samples must partition the used tokens, with one
    token per snippet in snippet order (hence strictly increasing here)."""
    k = 3
    seen = capture_samples(monkeypatch)
    alternating_sampling(numbers_text, 303, (k,), 2, 9, MTLD_SPEC)
    assert len(seen) == 2 * k
    used = np.arange(303 // k * k)
    for it in range(2):
        group = seen[it * k:(it + 1) * k]
        assert sorted(len(g) for g in group) == [101, 101, 101]
        combined = np.sort(np.concatenate(group))
        assert np.array_equal(combined, used)
        for s in group:
            assert np.all(np.diff(s) > 0)  # order-preserving
            # one token per 3-token snippet
            assert np.array_equal(s // k, np.arange(101))


def test_alternating_per_k_flooring(monkeypatch, reference):
    # L=163, k=4 -> four 40-token samples from the first 160 tokens
    seen = capture_samples(monkeypatch)
    alternating_sampling(reference, 163, (4,), 1, 9, MTLD_SPEC)
    assert [len(s) for s in seen] == [40, 40, 40, 40]


def test_alternating_k1_is_full_text(reference):
    scores = alternating_sampling(reference, 160, (1, 2), 5, 9, TTR_SPEC)
    toks = reference.tokens[:160]
    assert scores[0] == pytest.approx(len(set(toks)) / 160)


def test_alternating_rejects_sample_below_minimum(reference):
    with pytest.raises(SamplingError, match="minimum"):
        alternating_sampling(reference, 160, (1, 4), 5, 9, HDD_SPEC)


# ------------------------------------------------------------- run_method

def small_config(method, **kw):
    base = dict(truncate_to=280, conditions=(280, 140, 70), iterations=10,
                master_seed=3)
    if method in ("parallel", "alternating"):
        base["conditions"] = (1, 2, 4)
    base.update(kw)
    return SamplingConfig(method=method, **base)


@pytest.mark.parametrize("method", ["parallel", "random", "ordered_random",
                                    "alternating"])
def test_run_method_deterministic(small_corpus, method):
    config = small_config(method)
    a = run_method(small_corpus, config, TTR_SPEC)
    b = run_method(small_corpus, config, TTR_SPEC)
    assert np.array_equal(a.values, b.values)
    assert a.row_ids == b.row_ids
    assert a.col_labels == b.col_labels


def test_run_method_thread_independent(small_corpus):
    """Each worker packs its own run of texts, so a drawing index, MTLD,
    ordered MSTTR and the exact cells (among them ordered MTTRSS, whose
    pair table and sums each worker builds for its own texts) score the
    same bytes whatever the split, here of 7 texts into runs of 3-4 and
    2-3.  At 20 ordered-random iterations one process steps MTLD's 140-row
    blocks in lockstep, and the workers walk theirs of 40-80 rows in
    Python."""
    corpus = Corpus(small_corpus.texts[:7])
    assert 2 * 4 * 20 < indices_mod._LOCKSTEP_LANES <= 2 * 7 * 20
    for method, spec, iterations in (
            ("random", HDD_SPEC, 10),
            ("ordered_random", IndexSpec(IndexKind.MTTRSS, n=25, s=3), 10),
            ("ordered_random", MSTTR_SPEC, 10),
            ("alternating", MTLD_SPEC, 10), ("random", TTR_SPEC, 10),
            ("ordered_random", MTLD_SPEC, 20)):
        config = small_config(method, iterations=iterations)
        one = run_method(corpus, config, spec)
        for threads in (2, 3):
            other = run_method(corpus, config, spec, threads=threads)
            assert other.values.tobytes() == one.values.tobytes(), (spec, threads)


def test_run_method_starts_no_more_workers_than_runs(small_corpus,
                                                    monkeypatch):
    """A pool starts all its workers at once, so ``threads`` above the text
    count asks for one worker per non-empty run of texts."""
    import concurrent.futures

    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, runs):
            return map(fn, runs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    corpus = Corpus(small_corpus.texts[:3])
    config = small_config("random", iterations=5)
    matrix = run_method(corpus, config, TTR_SPEC, threads=8)
    assert asked == [3]
    assert (matrix.values.tobytes()
            == run_method(corpus, config, TTR_SPEC).values.tobytes())


def test_run_method_rejects_threads_below_one(small_corpus):
    with pytest.raises(SamplingError, match="threads must be >= 1, got 0"):
        run_method(small_corpus, small_config("random"), TTR_SPEC, threads=0)


def test_run_method_labels_are_sample_lengths(small_corpus):
    matrix = run_method(small_corpus, small_config("alternating"), TTR_SPEC)
    assert matrix.col_labels == ["280", "140", "70"]
    matrix = run_method(small_corpus, small_config("parallel"), TTR_SPEC)
    assert matrix.col_labels == ["280", "140", "70"]
    matrix = run_method(small_corpus, small_config("random"), TTR_SPEC)
    assert matrix.col_labels == ["280", "140", "70"]


def test_run_method_error_names_text(small_corpus):
    config = small_config("random", truncate_to=10_000)
    with pytest.raises(SamplingError, match="text 'z000'"):
        run_method(small_corpus, config, TTR_SPEC)


def spy_on_kernels(monkeypatch) -> list:
    """The names of the kernels called: full extracts and drawn cells
    (``evaluate_specs``), exact random cells (``_expected_types``) and
    exact alternating cells (``_alternating_types``)."""
    calls = []
    for name in ("evaluate_specs", "_expected_types", "_alternating_types"):
        def spy(*args, _name=name, _original=getattr(sampling_mod, name),
                **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(sampling_mod, name, spy)
    return calls


@pytest.mark.parametrize("method, spec", [("ordered_random", MATTR_SPEC),
                                          ("random", TTR_SPEC),
                                          ("alternating", MATTR_SPEC)])
def test_run_method_refuses_short_last_text_before_scoring(
        small_corpus, monkeypatch, method, spec):
    """Every text is checked before any cell is scored, and a short one is
    named."""
    calls = spy_on_kernels(monkeypatch)
    short = Text("short", small_corpus.texts[0].tokens[:100])
    corpus = Corpus(small_corpus.texts + (short,))
    with pytest.raises(SamplingError, match=re.escape(
            "text 'short': text shorter than truncation length (100 < 280)")):
        run_method(corpus, small_config(method), spec)
    assert calls == []


@pytest.mark.parametrize("method, conditions, spec, error, message", [
    ("random", (280, -5), partial(IndexSpec, IndexKind.MATTR, n=25),
     SamplingError, "condition -5 must be >= 1"),
    ("alternating", (1, 0), partial(IndexSpec, IndexKind.MATTR, n=25),
     SamplingError, "condition 0 must be >= 1"),
    ("ordered_random", (280, 20), partial(IndexSpec, IndexKind.MATTR, n=25),
     SamplingError,
     "condition 20: sample length 20 below the mattr minimum of 25"),
    ("random", (280, 140), partial(IndexSpec, IndexKind.MATTR, n=0),
     IndexError_, "n must be >= 1, got 0"),
])
def test_run_method_refuses_bad_run_without_naming_a_text(
        small_corpus, monkeypatch, method, conditions, spec, error, message):
    """A bad condition or spec is the run's fault, not a text's: it is
    refused once, naming no text, before any kernel call.  ``spec``
    builds the run's spec, so a bad one raises the ``IndexError_`` of
    its own check when it is made, before the run can start."""
    calls = spy_on_kernels(monkeypatch)
    with pytest.raises(error) as excinfo:
        run_method(small_corpus, small_config(method, conditions=conditions),
                   spec())
    assert str(excinfo.value) == message
    assert calls == []


@pytest.mark.parametrize("method, spec", [
    ("ordered_random", MSTTR_SPEC),
    ("ordered_random", MTLD_SPEC),
    ("random", IndexSpec(IndexKind.MSTTR, n=25)),
    ("alternating", MTLD_SPEC)])
def test_condition_scores_every_text_in_one_kernel_call(
        small_corpus, monkeypatch, method, spec):
    """When every text's samples of a condition fit in one block (here 8
    texts x 10 iterations, times k for alternating), the kernel finds
    previous occurrences once per condition, not once per cell, and a
    full-extract condition scores every truncation in one call."""
    calls = []
    original = indices_mod._prev_occurrence

    def spy(codes):
        calls.append(codes.shape)
        return original(codes)

    monkeypatch.setattr(indices_mod, "_prev_occurrence", spy)
    config = small_config(method)
    run_method(small_corpus, config, spec)
    n_texts, want = len(small_corpus), []
    for c in config.conditions:
        if method == "alternating":
            rows = 1 if c == 1 else config.iterations * c
            want.append((n_texts * rows, config.truncate_to // c))
        else:
            rows = 1 if c == config.truncate_to else config.iterations
            want.append((n_texts * rows, c))
    assert calls == want


def test_no_kernel_call_takes_more_than_a_block(small_corpus, monkeypatch):
    """Packed calls, alternating blocks of k rows per iteration and
    parallel segments all reach the kernel at most ``_BLOCK`` rows at a
    time, whole blocks where they fit."""
    sizes = []
    original = sampling_mod.evaluate_specs

    def spy(codes, specs, rngs):
        sizes.append(len(codes))
        return original(codes, specs, rngs)

    herdan = INDEXES[IndexKind.HERDAN_C]

    def counts_spy(counts, length, specs):
        sizes.append(len(counts))
        return herdan.counts(counts, length, specs)

    monkeypatch.setattr(sampling_mod, "evaluate_specs", spy)
    monkeypatch.setitem(indices_mod.INDEXES, IndexKind.HERDAN_C,
                        replace(herdan, counts=counts_spy))
    monkeypatch.setattr(sampling_mod, "_BLOCK", 7)
    for method, spec in (("ordered_random", MSTTR_SPEC),
                         ("random", IndexSpec(IndexKind.HERDAN_C)),
                         ("alternating", MTLD_SPEC),
                         ("parallel", IndexSpec(IndexKind.MSTTR, n=10))):
        sizes.clear()
        config = small_config(method, iterations=9,
                              **({"conditions": (1, 3, 28)}
                                 if method == "parallel" else {}))
        run_method(small_corpus, config, spec)
        # 9 iterations are blocks of 7 and 2 (times k when alternating),
        # and 28 parallel segments four calls of 7
        assert sizes and max(sizes) == 7, (method, sizes)


def test_conditions_validated_once_for_every_method(numbers_text, reference):
    with pytest.raises(SamplingError, match=r"condition -5 must be >= 1"):
        random_sampling(numbers_text, 300, (300, 295, -5), 5, 1, TTR_SPEC)
    with pytest.raises(SamplingError, match=r"condition 0 must be >= 1"):
        parallel_sampling(numbers_text, 300, (1, 0), TTR_SPEC)
    with pytest.raises(SamplingError, match=r"condition -1 must be >= 1"):
        alternating_sampling(numbers_text, 300, (2, -1), 5, 1, TTR_SPEC)
    with pytest.raises(SamplingError, match="below the hdd minimum of 42"):
        ordered_random_sampling(reference, 160, (160, 30), 5, 1, HDD_SPEC)


@pytest.mark.parametrize("iterations", [0, -3])
@pytest.mark.parametrize("sampler", [random_sampling, ordered_random_sampling,
                                     alternating_sampling])
def test_wrappers_reject_iterations_below_one(reference, sampler, iterations):
    with pytest.raises(SamplingError,
                       match=f"iterations must be >= 1, got {iterations}"):
        sampler(reference, 160, (1, 2), iterations, 1, TTR_SPEC)


def test_config_default_conditions():
    assert SamplingConfig("random", 280).conditions == (280, 140, 93, 70)
    assert SamplingConfig("ordered_random", 280).conditions == (280, 140, 93, 70)
    assert SamplingConfig("parallel", 280).conditions == (1, 2, 3, 4)
    assert SamplingConfig("alternating", 280).conditions == (1, 2, 3, 4)


def test_config_validation():
    with pytest.raises(SamplingError, match="unknown method"):
        SamplingConfig(method="bogus", truncate_to=100)
    with pytest.raises(SamplingError, match="need at least one condition"):
        SamplingConfig(method="random", truncate_to=100, conditions=())
    with pytest.raises(SamplingError, match="iterations"):
        SamplingConfig(method="random", truncate_to=100, iterations=0)
    with pytest.raises(SamplingError, match="sample length 120 exceeds "
                                            "truncation 100"):
        SamplingConfig(method="random", truncate_to=100, conditions=(50, 120))


def test_one_condition_is_a_run(small_corpus):
    """A run of one condition scores one column, as the wrappers always
    could; the config keeps its conditions as a tuple."""
    config = SamplingConfig("random", 280, [140], iterations=5, master_seed=3)
    assert config.conditions == (140,)
    matrix = run_method(small_corpus, config, TTR_SPEC)
    assert matrix.col_labels == ["140"]
    assert matrix.values[:, 0].tolist() == [
        random_sampling(text, 280, (140,), 5, 3, TTR_SPEC)[0]
        for text in small_corpus]


WRAPPERS = {"parallel": parallel_sampling, "random": random_sampling,
            "ordered_random": ordered_random_sampling,
            "alternating": alternating_sampling}


@pytest.mark.parametrize("method", list(WRAPPERS))
@pytest.mark.parametrize("bad, message", [
    ({"iterations": 2.5}, "iterations must be an integer, got 2.5"),
    ({"iterations": True}, "iterations must be an integer, got True"),
    ({"truncate_to": 100.0}, "truncation length must be an integer, got 100.0"),
    ({"conditions": (2, 12.5)}, "condition must be an integer, got 12.5"),
])
def test_run_values_must_be_integers(small_corpus, monkeypatch, method, bad,
                                     message):
    """A run value that is not an integer is one ``SamplingError`` naming
    it, raised before any kernel call, whether the run is made as a
    ``SamplingConfig``, handed to ``run_method`` or made by the method's
    wrapper (parallel's takes no iterations)."""
    calls = spy_on_kernels(monkeypatch)
    run = {"truncate_to": 100, "conditions": (2, 4), "iterations": 3,
           "master_seed": 1, **bad}
    text = small_corpus.texts[0]
    doors = [lambda: SamplingConfig(method, **run),
             lambda: run_method(small_corpus, SamplingConfig(method, **run),
                                TTR_SPEC)]
    if method != "parallel":
        doors.append(lambda: WRAPPERS[method](
            text, run["truncate_to"], run["conditions"], run["iterations"],
            run["master_seed"], TTR_SPEC))
    elif "iterations" not in bad:
        doors.append(lambda: parallel_sampling(
            text, run["truncate_to"], run["conditions"], TTR_SPEC,
            run["master_seed"]))
    for door in doors:
        with pytest.raises(SamplingError) as excinfo:
            door()
        assert str(excinfo.value) == message
    assert calls == []


@pytest.mark.parametrize("threads", [2.5, True])
def test_run_method_refuses_threads_that_are_not_integers(
        small_corpus, monkeypatch, threads):
    calls = spy_on_kernels(monkeypatch)
    with pytest.raises(SamplingError) as excinfo:
        run_method(small_corpus, small_config("random"), TTR_SPEC,
                   threads=threads)
    assert str(excinfo.value) == f"threads must be an integer, got {threads!r}"
    assert calls == []


ALL_KIND_SPECS = (
    IndexSpec(IndexKind.TTR),
    IndexSpec(IndexKind.GUIRAUD_R),
    IndexSpec(IndexKind.HERDAN_C),
    IndexSpec(IndexKind.MAAS_A),
    IndexSpec(IndexKind.MAAS_A, maas_variant="base10_a_squared"),
    IndexSpec(IndexKind.HDD, n=3),
    IndexSpec(IndexKind.MATTR, n=3),
    IndexSpec(IndexKind.MSTTR, n=3),
    IndexSpec(IndexKind.MTLD),
    IndexSpec(IndexKind.MTTRRS, n=3, s=2),
    IndexSpec(IndexKind.MTTRSS, n=3, s=2),
)


def count_block_samples(rng, arr, m, iterations):
    """Stream layout 2 of an order-free random cell: one multivariate
    hypergeometric "count" draw per block of `_BLOCK` samples, each count
    row turned back into a token sample (types in code order)."""
    population = np.bincount(arr)
    for start in range(0, iterations, sampling_mod._BLOCK):
        b = min(sampling_mod._BLOCK, iterations - start)
        rows = rng.multivariate_hypergeometric(population, m, size=b,
                                               method="count")
        yield [np.repeat(np.arange(len(population)), row) for row in rows]


def dealt_block_samples(rng, arr, config, k):
    """Stream layout 3 of an alternating cell: the samples of each block of
    `_BLOCK` iterations, one dealing per iteration, all drawn before any is
    scored."""
    n_snippets = config.truncate_to // k
    grid = arr[: n_snippets * k].reshape(n_snippets, k)
    for start in range(0, config.iterations, sampling_mod._BLOCK):
        block = []
        for _ in range(min(sampling_mod._BLOCK, config.iterations - start)):
            perm = rng.permuted(np.tile(np.arange(k), (n_snippets, 1)), axis=1)
            shuffled = grid[np.arange(n_snippets)[:, None], perm]
            block += [shuffled[:, j] for j in range(k)]
        yield block


def shared_samples(text, arr, config):
    """Stream layout 9 of a position-drawn random or ordered-random cell:
    the m-samples of every length m, iteration i taking the first m
    positions of the i-th permutation of the text's stream ("random",),
    sorted under ordered random."""
    rng = np.random.default_rng(stream_seed(config.master_seed, text.id,
                                            "random"))
    perms = [rng.permutation(config.truncate_to)
             for _ in range(config.iterations)]
    ordered = config.method == "ordered_random"
    return lambda m: [arr[np.sort(p[:m]) if ordered else p[:m]] for p in perms]


# The (method, kind) pairs whose sampled cells hold their exact mean
# (stream layouts 5, 7 and 8).
EXACT_KINDS = {
    "parallel": set(),
    "random": {IndexKind.TTR, IndexKind.GUIRAUD_R},
    "ordered_random": {IndexKind.TTR, IndexKind.GUIRAUD_R, IndexKind.MATTR,
                       IndexKind.MTTRSS},
    "alternating": {IndexKind.TTR, IndexKind.GUIRAUD_R, IndexKind.MATTR,
                    IndexKind.MSTTR, IndexKind.MTTRSS},
}


def expected_types(arr, method, c, windows):
    """The expected type count of a sampled cell's sample, or of each of
    its windows of snippets (slices), in rationals.  A random m-sample
    misses type t (count c_t) with probability C(L - c_t, m) / C(L, m); an
    alternating sample takes one uniform token per k-snippet, so it misses
    t in a window with probability prod_s (1 - C[s, t]/k)."""
    types = np.unique(arr).tolist()
    if method != "alternating":
        big_l, total = len(arr), math.comb(len(arr), c)
        return [sum(1 - Fraction(math.comb(big_l - int(np.sum(arr == t)), c),
                                 total) for t in types)]
    snippets = arr[:len(arr) // c * c].reshape(-1, c)
    return [sum(1 - math.prod(Fraction(c - int(np.sum(row == t)), c)
                              for row in snippets[window]) for t in types)
            for window in windows]


def comb(a, b):
    """C(a, b), 0 outside 0 <= b <= a, and C(-1, -1) = 1: a one-token
    window has no inside to draw."""
    if a == b == -1:
        return 1
    return math.comb(a, b) if 0 <= b <= a else 0


def ordered_window_cell(arr, m, n):
    """The ordered-random MATTR(n) cell of an m-sample in rationals, in
    the pair form: each type's points are -1, its positions and L, and a
    pair of them with d tokens, k points of the type strictly between and
    G others adds sum over x < G of (G - x) C(x - 1, n - 2)
    C(L - d - 1 - k - x, m - d - n) / C(L, m) windows that miss the type.
    Ordered MTTRSS has the same mean."""
    big_l, windows = len(arr), m - n + 1
    missed = 0
    types = np.unique(arr).tolist()
    for t in types:
        points = [-1, *np.flatnonzero(arr == t).tolist(), big_l]
        for i, j in itertools.combinations(range(len(points)), 2):
            d = (i > 0) + (j < len(points) - 1)
            k = j - i - 1
            gap = points[j] - points[i] - 1 - k
            missed += sum((gap - x) * comb(x - 1, n - 2)
                          * comb(big_l - d - 1 - k - x, m - d - n)
                          for x in range(gap))
    total = math.comb(big_l, m)
    return Fraction(len(types) * windows * total - missed,
                    n * windows * total)


def exact_cell(arr, method, c, spec):
    """An exact pair's sampled cell from `expected_types`, or from
    `ordered_window_cell`.  MTTRSS draws its segment starts uniformly, so
    its cell is MATTR's, in the window form."""
    if method == "ordered_random" and spec.kind in (IndexKind.MATTR,
                                                    IndexKind.MTTRSS):
        return float(ordered_window_cell(arr, c, spec.n))
    length = len(arr) // c if method == "alternating" else c
    if spec.kind in (IndexKind.TTR, IndexKind.GUIRAUD_R):
        types = float(expected_types(arr, method, c, [slice(None)])[0])
        return types / (length if spec.kind is IndexKind.TTR
                        else math.sqrt(length))
    n = spec.n
    step = n if spec.kind is IndexKind.MSTTR else 1
    windows = [slice(a, a + n) for a in range(0, length - n + 1, step)]
    return float(sum(expected_types(arr, method, c, windows))
                 / (n * len(windows)))


def reference_row(text, config, spec):
    """The engine as a per-sample loop: an exact pair's sampled cell from
    its closed form, and every other sampled cell from samples drawn as in
    stream layout 10 (count blocks for an order-free random cell, one
    permutation per iteration shared by every length for the other random
    cells, dealing blocks for alternating), each sample then scored by
    `evaluate` in turn with the cell's segment stream (stream, c,
    "segments"), so MTTRRS and MTTRSS draw from it sample by sample, and
    the cell mean taken with `math.fsum`.  A full extract is one sample,
    and a parallel cell its d segments, scored with the same stream."""
    arr = _encode(text.tokens[:config.truncate_to])
    order_free = INDEXES[spec.kind].counts is not None
    alternating = config.method == "alternating"
    if config.method in ("random", "ordered_random") and not order_free:
        shared = shared_samples(text, arr, config)

    def stream(*key):
        name = {"ordered_random": "random"}.get(config.method, config.method)
        return np.random.default_rng(stream_seed(
            config.master_seed, text.id, name, *key))

    out = []
    for c in config.conditions:
        segments = stream(c, "segments")
        if config.method == "parallel":
            length = config.truncate_to // c
            scores = [evaluate(arr[i * length:(i + 1) * length], spec,
                               rng=segments)[0] for i in range(c)]
            out.append(math.fsum(scores) / c)
            continue
        if c == (1 if alternating else config.truncate_to):
            out.append(evaluate(arr, spec, rng=segments)[0])
            continue
        if spec.kind in EXACT_KINDS[config.method]:
            out.append(exact_cell(arr, config.method, c, spec))
            continue
        if alternating:
            blocks = dealt_block_samples(stream(c), arr, config, c)
        elif order_free:
            blocks = count_block_samples(stream(c), arr, c, config.iterations)
        else:
            blocks = [shared(c)]
        scores = [evaluate(sample, spec, rng=segments)[0]
                  for block in blocks for sample in block]
        out.append(math.fsum(scores) / len(scores))
    return out


ORDER_FREE_SPECS = [spec for spec in ALL_KIND_SPECS
                    if INDEXES[spec.kind].counts is not None]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_counts_kernel_matches_row_scoring(data):
    """An order-free index scores a count matrix, whose rows may hold types
    that do not occur, bit for bit as it scores each row's tokens, in any
    order, one row at a time."""
    n_types = data.draw(st.integers(1, 6), label="types")
    length = data.draw(st.integers(3, 20), label="length")
    rows = data.draw(st.lists(
        st.lists(st.integers(0, n_types - 1), min_size=length, max_size=length),
        min_size=1, max_size=4), label="rows")
    counts = np.array([np.bincount(row, minlength=n_types) for row in rows])
    for spec in ORDER_FREE_SPECS:
        got = INDEXES[spec.kind].counts(counts, length, [spec])[0]
        want = [evaluate(np.random.default_rng(i).permutation(row), spec)[0]
                for i, row in enumerate(np.array(rows))]
        assert np.array(got).tobytes() == np.array(want).tobytes(), spec


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_run_method_matches_per_sample_loop(data):
    """Every index under every sampling method scores as the per-sample
    loop, with blocks small enough that cells span several and a packed
    call holds rows of several texts and cells: bit for bit, or within
    1e-12 of the closed form for the exact pairs.  A run whose conditions
    are all full extracts (repeated ones, which only the library takes)
    samples nothing, so it is exact whatever the pair."""
    size = data.draw(st.integers(6, 30), label="truncate_to")
    token = st.sampled_from("abcdefg")
    corpus = Corpus(texts=tuple(
        Text(id=f"t{i}", tokens=tuple(data.draw(
            st.lists(token, min_size=size, max_size=size + 5))))
        for i in range(data.draw(st.integers(2, 4), label="texts"))))
    method = data.draw(st.sampled_from(["parallel", "random", "ordered_random",
                                        "alternating"]))
    if method in ("parallel", "alternating"):
        condition = st.integers(1, size // 3)
    else:
        condition = st.integers(3, size)
    config = SamplingConfig(
        method=method,
        truncate_to=size,
        conditions=tuple(data.draw(st.lists(condition, min_size=2, max_size=3))),
        iterations=data.draw(st.integers(1, 7)),
        master_seed=data.draw(st.integers(0, 2**32)),
    )
    sampled = method != "parallel" and any(
        sampling_mod.METHODS[method].sample_length(size, c) < size
        for c in config.conditions)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling_mod, "_BLOCK", 3)
        for spec in ALL_KIND_SPECS:
            matrix = run_method(corpus, config, spec)
            want = np.array([reference_row(text, config, spec) for text in corpus])
            if spec.kind in EXACT_KINDS[method]:
                assert matrix.meta["estimator"] == "exact"
                assert np.allclose(matrix.values, want, rtol=0, atol=1e-12), spec
            else:
                assert matrix.meta["estimator"] == ("monte_carlo" if sampled
                                                    else "exact")
                assert matrix.values.tobytes() == want.tobytes(), spec


def test_current_stream_layout_is_documented():
    """A layout bump lands with its entry in the ``sampling`` docstring and
    in the README."""
    layout = sampling_mod.STREAM_LAYOUT
    assert f"- Layout {layout}: as layout {layout - 1}" in sampling_mod.__doc__
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert re.search(rf"\blayout {layout}\b", readme)


# The pairs that draw token positions from one stream per text (layout 9).
SHARED_PAIRS = (
    ("random", IndexSpec(IndexKind.MATTR, n=10)),
    ("random", IndexSpec(IndexKind.MSTTR, n=10)),
    ("random", IndexSpec(IndexKind.MTTRSS, n=10, s=3)),
    ("random", IndexSpec(IndexKind.MTTRRS, n=10, s=3)),
    ("random", MTLD_SPEC),
    ("ordered_random", IndexSpec(IndexKind.MSTTR, n=10)),
    ("ordered_random", IndexSpec(IndexKind.MTTRRS, n=10, s=3)),
    ("ordered_random", MTLD_SPEC),
)


def test_shared_samples_are_prefixes_across_lengths(monkeypatch, numbers_text):
    """On the 1..303 pseudo-text, whose codes are its positions, iteration
    i of a shorter random sample is a prefix of iteration i of a longer
    one, and the ordered sample of each length is its random sample
    sorted: one permutation per (text, iteration) serves every length."""
    seen = capture_samples(monkeypatch)
    lengths, iterations = (200, 151, 40), 6
    samples = {}
    for method in ("random", "ordered_random"):
        seen.clear()
        run_method(Corpus((numbers_text,)), SamplingConfig(
            method, 303, (303, *lengths), iterations, master_seed=9),
            IndexSpec(IndexKind.MSTTR, n=10))
        for m in lengths:
            samples[method, m] = [x for x in seen if len(x) == m]
            assert len(samples[method, m]) == iterations
    for i in range(iterations):
        longest = samples["random", lengths[0]][i]
        for m in lengths:
            assert np.array_equal(samples["random", m][i], longest[:m])
            assert np.array_equal(samples["ordered_random", m][i],
                                  np.sort(longest[:m]))


# The pairs that draw type counts per (text, length) (layout 2), and the
# pairs that deal from a stream per (text, k) (layout 3): with
# SHARED_PAIRS, every pair that draws.
COUNT_PAIRS = tuple(
    (method, spec) for method in ("random", "ordered_random")
    for spec in (HDD_SPEC, IndexSpec(IndexKind.HERDAN_C),
                 IndexSpec(IndexKind.MAAS_A),
                 IndexSpec(IndexKind.MAAS_A, maas_variant="base10_a_squared")))
DEALT_PAIRS = tuple(("alternating", spec) for spec in (
    HDD_SPEC, IndexSpec(IndexKind.HERDAN_C), IndexSpec(IndexKind.MAAS_A),
    MTLD_SPEC, IndexSpec(IndexKind.MTTRRS, n=10, s=3)))


def test_shared_cells_ignore_budget_block_and_threads(small_corpus,
                                                      monkeypatch):
    """No drawn cell depends on the split of the texts across workers.  A
    text draws its permutations in runs that fit the position budget, and
    each length's rows reach the kernel in packed calls of at most
    ``_BLOCK``; neither changes a byte of a position-drawn or dealt cell
    (a count draw depends on the block by design).  11 iterations at a
    budget of 3 rows, or of less than one row, draw in runs of 3 or of 1,
    and blocks of 4 or 5 rows cut each length's packed calls across texts
    and runs."""
    wanted = {}
    for method, spec in SHARED_PAIRS + COUNT_PAIRS + DEALT_PAIRS:
        config = small_config(method, iterations=11)
        wanted[method, spec] = run_method(small_corpus, config, spec).values
        threaded = run_method(small_corpus, config, spec, threads=2).values
        assert threaded.tobytes() == wanted[method, spec].tobytes(), spec
    for budget, block in ((3 * 280, 4), (100, 1024), (3 * 280 + 5, 5)):
        monkeypatch.setattr(sampling_mod, "_POSITION_BUDGET", budget)
        monkeypatch.setattr(sampling_mod, "_BLOCK", block)
        for method, spec in SHARED_PAIRS + DEALT_PAIRS:
            got = run_method(small_corpus, small_config(method, iterations=11),
                             spec)
            assert got.values.tobytes() == wanted[method, spec].tobytes(), (
                method, spec, budget)


def test_shared_cells_ignore_the_other_lengths(small_corpus):
    """A drawn column depends only on its own condition, not on which
    other conditions the run samples: a length's column only on the
    text's permutations or its own count draws, a k's only on its own
    dealing."""
    for method, spec in SHARED_PAIRS + COUNT_PAIRS + DEALT_PAIRS:
        whole, part = (((1, 2, 3, 4), (4, 3)) if method == "alternating"
                       else ((280, 200, 140, 70), (70, 140)))
        full = run_method(small_corpus, small_config(method, conditions=whole),
                          spec)
        some = run_method(small_corpus, small_config(method, conditions=part),
                          spec)
        assert full.values[:, 3].tobytes() == some.values[:, 0].tobytes(), (
            method, spec)
        assert full.values[:, 2].tobytes() == some.values[:, 1].tobytes(), (
            method, spec)


# The kinds whose drawn cells score token samples: under random and
# ordered random the order-free kinds draw type counts instead.
SAMPLE_KINDS = {
    "random": {IndexKind.MATTR, IndexKind.MSTTR, IndexKind.MTTRSS,
               IndexKind.MTTRRS, IndexKind.MTLD},
    "ordered_random": {IndexKind.MSTTR, IndexKind.MTTRRS, IndexKind.MTLD},
    "alternating": {IndexKind.HDD, IndexKind.HERDAN_C, IndexKind.MAAS_A,
                    IndexKind.MTTRRS, IndexKind.MTLD},
}


@pytest.mark.parametrize("method", ["random", "ordered_random", "alternating"])
def test_every_drawing_kind_scores_the_same_samples(small_corpus, monkeypatch,
                                                    method):
    """Every kind that draws in a (text, condition) cell scores the same
    samples, in blocks of 3 that cut 7 iterations in three draws: a cell's
    samples come from its sample stream alone, and MTTRRS and MTTRSS draw
    their segments from a stream of their own."""
    monkeypatch.setattr(sampling_mod, "_BLOCK", 3)
    seen = capture_samples(monkeypatch)
    corpus = Corpus(small_corpus.texts[:3])
    config = small_config(method, iterations=7)
    samples = {}
    for spec in ALL_KIND_SPECS:
        seen.clear()
        run_method(corpus, config, spec)
        drawn = [x for x in seen if len(x) < config.truncate_to]
        if drawn:
            samples[spec] = drawn
    assert {spec.kind for spec in samples} == SAMPLE_KINDS[method]
    first = next(iter(samples.values()))
    for spec, drawn in samples.items():
        assert len(drawn) == len(first), spec
        assert all(np.array_equal(x, y) for x, y in zip(drawn, first)), spec


@pytest.mark.parametrize("method", ["parallel", "random", "ordered_random",
                                    "alternating"])
def test_segment_streams_are_seeded_only_where_a_kernel_draws(
        small_corpus, monkeypatch, method):
    """A cell's segment stream (stream, condition, "segments") is seeded at
    its kernel's first draw: once per text in each column of MTTRRS and
    MTTRSS that is not exact, and never for a kind that draws nothing."""
    keys = []
    original = sampling_mod.stream_seed

    def spy(master_seed, *key):
        keys.append(key[1:])
        return original(master_seed, *key)

    monkeypatch.setattr(sampling_mod, "stream_seed", spy)
    config = small_config(method, iterations=3)
    stream = sampling_mod.METHODS[method].stream
    for spec in ALL_KIND_SPECS:
        keys.clear()
        matrix = run_method(small_corpus, config, spec)
        seeded = [key for key in keys if key[-1] == "segments"]
        want = []
        if spec.kind in (IndexKind.MTTRRS, IndexKind.MTTRSS):
            want = [(stream, c, "segments")
                    for c, label in zip(config.conditions,
                                        matrix.meta["estimators"])
                    if label != "exact"] * len(small_corpus)
        assert sorted(seeded) == sorted(want), (spec, seeded)


def test_shared_cells_match_independent_draws():
    """Every cell that shares its text's permutations lies within 4
    standard errors of a mean over independently drawn samples of
    300-token Zipf texts: the sharing moves no expectation."""
    corpus = make_zipf_corpus(2, 300, 300, seed=5)
    iterations, lengths = 2000, (200, 100, 40)
    for method, spec in SHARED_PAIRS:
        matrix = run_method(corpus, SamplingConfig(
            method, 300, (300, *lengths), iterations, master_seed=2), spec)
        rng = np.random.default_rng(77)
        for t, text in enumerate(corpus):
            arr = _encode(text.tokens[:300])
            for j, m in enumerate(lengths, start=1):
                positions = np.argsort(rng.random((iterations, 300)),
                                       axis=1)[:, :m]
                if method == "ordered_random":
                    positions.sort(axis=1)
                scores = np.array(evaluate_specs(arr[positions], [spec],
                                                 [rng])[0])
                se = scores.std(ddof=1) / math.sqrt(iterations)
                # both the cell and the estimate carry Monte Carlo noise
                assert abs(matrix.values[t, j] - scores.mean()) <= (
                    4 * math.sqrt(2) * se + 1e-12), (method, spec, m)


EXACT_SPECS = (TTR_SPEC, IndexSpec(IndexKind.GUIRAUD_R),
               IndexSpec(IndexKind.MATTR, n=2), IndexSpec(IndexKind.MSTTR, n=2),
               IndexSpec(IndexKind.MTTRSS, n=2))


@pytest.mark.parametrize("tokens", ["aabacbbcab", "abcabcabc", "aaaaabbbbb",
                                    "abcdefghij", "aabbaacc", "abbbbbbbba"])
def test_exact_cells_match_enumeration(tokens):
    """Every exact cell equals the mean over every equally likely sample:
    every m-subset for random and ordered random, every dealing of the
    k-snippets for alternating.  Ordered MATTR and MTTRSS are checked at
    every m with windows of 1, 2 and m tokens; an MTTRSS segment starts
    uniformly at any window, so its mean over the subsets, and over the
    dealings, is MATTR's."""
    text = Text(id="t", tokens=tuple(tokens))
    size = len(tokens)
    codes = _encode(tokens)
    subsets = {m: codes[np.array(list(itertools.combinations(range(size), m)))]
               for m in range(1, size)}
    for m, samples in subsets.items():
        for n in sorted({1, 2, m} & set(range(1, m + 1))):
            rows, = evaluate_specs(samples, [IndexSpec(IndexKind.MATTR, n=n)],
                                   [None])
            want = math.fsum(rows) / len(rows)
            for kind in (IndexKind.MATTR, IndexKind.MTTRSS):
                assert kind in EXACT_KINDS["ordered_random"]
                got, = ordered_random_sampling(text, size, (m,), 1, 0,
                                               IndexSpec(kind, n=n))
                assert got == pytest.approx(want, rel=0, abs=1e-12), (kind, m, n)
    for spec in EXACT_SPECS:
        windows = (IndexSpec(IndexKind.MATTR, n=spec.n)
                   if spec.kind is IndexKind.MTTRSS else spec)

        def mean(samples):
            return (math.fsum(evaluate(x, windows)[0] for x in samples)
                    / len(samples))

        if spec.kind in EXACT_KINDS["random"]:
            lengths = tuple(range(1, size))
            for sampler in (random_sampling, ordered_random_sampling):
                cells = sampler(text, size, lengths, 1, 0, spec)
                for m, got in zip(lengths, cells):
                    want = mean(subsets[m])
                    assert got == pytest.approx(want, rel=0, abs=1e-12), (spec, m)
        ks = tuple(k for k in (2, 3, 4) if size // k >= 2)
        cells = alternating_sampling(text, size, ks, 1, 0, spec)
        for k, got in zip(ks, cells):
            n_snippets = size // k
            grid = codes[:n_snippets * k].reshape(n_snippets, k)
            samples = []
            for perms in itertools.product(itertools.permutations(range(k)),
                                           repeat=n_snippets):
                dealt = grid[np.arange(n_snippets)[:, None], np.array(perms)]
                samples += [dealt[:, j] for j in range(k)]
            assert got == pytest.approx(mean(samples), rel=0, abs=1e-12), (spec, k)


def test_alternating_window_types_match_direct_products():
    """The runs' segmented log1p sums give the expected type count summed
    over the windows as direct products over each window's snippets do,
    within 1e-12 per window."""
    for seed in range(12):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(10, 2001))
        arr = _encode(rng.zipf(1.5, size) % int(rng.integers(2, 600)))
        for k in (2, 3, 5):
            snippets = arr[:size // k * k].reshape(-1, k)
            share = np.array([np.bincount(row, minlength=arr.max() + 1)
                              for row in snippets]) / k
            for n in sorted({1, 2, min(50, len(snippets)), len(snippets)}):
                for step in (1, n):
                    absent = np.prod(sliding_window_view(1.0 - share, n, axis=0),
                                     axis=-1)[::step]
                    got, = sampling_mod._alternating_types([arr], k, n, step)
                    assert got == pytest.approx(
                        (1.0 - absent).sum(), rel=0,
                        abs=1e-12 * len(absent)), (seed, k, n, step)


def alternating_texts(count, seed):
    """Zipf code rows of one length, as `_alternating_types` takes them."""
    rng = np.random.default_rng(seed)
    return [_encode(rng.zipf(1.5, 301) % int(rng.integers(2, 300)))
            for _ in range(count)]


@pytest.mark.parametrize("k, n, step", [(2, 150, 1), (2, 50, 1), (3, 7, 7),
                                        (4, 1, 1), (5, 60, 1)])
def test_alternating_types_ignore_the_pass(monkeypatch, k, n, step):
    """A text's total is bit for bit the same alone, in a pass with other
    texts, and in passes of a few texts each (``_PAIR_BUDGET``)."""
    arrs = alternating_texts(12, k * n)
    together = sampling_mod._alternating_types(arrs, k, n, step)
    alone = [sampling_mod._alternating_types([arr], k, n, step)[0]
             for arr in arrs]
    assert np.array(together).tobytes() == np.array(alone).tobytes()
    for texts in (1, 3, 5):
        monkeypatch.setattr(sampling_mod, "_PAIR_BUDGET", texts * 301)
        got = sampling_mod._alternating_types(arrs, k, n, step)
        assert np.array(got).tobytes() == np.array(together).tobytes(), texts


def test_alternating_exact_cells_take_one_pass_per_condition(monkeypatch):
    """A run over 100 texts calls ``_alternating_types`` once for each
    sampled condition, whatever the index, and no other kernel but for
    the full extract."""
    corpus = make_zipf_corpus(100, 120, 120, seed=4)
    for spec in EXACT_SPECS:
        calls = spy_on_kernels(monkeypatch)
        run_method(corpus, SamplingConfig("alternating", 120, (1, 2, 3, 4), 5),
                   spec)
        assert calls == ["evaluate_specs"] + ["_alternating_types"] * 3, spec
        monkeypatch.undo()


@pytest.mark.parametrize("method", ["random", "ordered_random", "alternating"])
def test_exact_cells_ignore_seed_iterations_and_threads(small_corpus, method):
    """Every column labelled ``exact``: all but the full-extract MTTRSS
    column, one score drawn from its own stream (``single_draw``)."""
    for spec in EXACT_SPECS:
        if spec.kind not in EXACT_KINDS[method]:
            continue
        spec = IndexSpec(spec.kind, n=spec.n and 25)
        base = run_method(small_corpus, small_config(method), spec)
        assert base.meta["estimator"] == "exact"
        others = (
            run_method(small_corpus, small_config(method, master_seed=99,
                                                  iterations=3), spec),
            run_method(small_corpus, small_config(method), spec, threads=2),
        )
        cols = [j for j, label in enumerate(base.meta["estimators"])
                if label == "exact"]
        assert len(cols) == (2 if spec.kind is IndexKind.MTTRSS else 3)
        for other in others:
            assert (other.values[:, cols].tobytes()
                    == base.values[:, cols].tobytes()), spec


@pytest.mark.parametrize("method", ["parallel", "random", "ordered_random",
                                    "alternating"])
def test_estimators_say_how_each_column_was_made(small_corpus, monkeypatch,
                                                 method):
    """``monte_carlo`` labels exactly the columns that drew their samples
    (``_monte_carlo``, for each of its conditions), ``single_draw``
    exactly the columns of MTTRRS and MTTRSS scored once
    (``_fixed_column``), and ``exact`` every other: a fixed score of an
    index that draws nothing, or an exact cell.  The run-level word is
    ``monte_carlo`` where any column is."""
    made = {}

    def fixed_spy(rows, seeds, key, *args,
                  _original=sampling_mod._fixed_column):
        made.setdefault(key[1], []).append("_fixed_column")
        return _original(rows, seeds, key, *args)

    def drawn_spy(arrs, seeds, key, sizes, *args,
                  _original=sampling_mod._monte_carlo):
        for c in sizes:
            made.setdefault(c, []).append("_monte_carlo")
        return _original(arrs, seeds, key, sizes, *args)
    monkeypatch.setattr(sampling_mod, "_fixed_column", fixed_spy)
    monkeypatch.setattr(sampling_mod, "_monte_carlo", drawn_spy)
    config = small_config(method, iterations=2,
                          **({"conditions": (1, 2, 4, 8)}
                             if method in ("parallel", "alternating") else {}))
    for spec in ALL_KIND_SPECS:
        made.clear()
        matrix = run_method(small_corpus, config, spec)
        labels = matrix.meta["estimators"]
        assert len(labels) == len(config.conditions)
        for c, label in zip(config.conditions, labels):
            kernels = made.get(c, [])
            if kernels == ["_monte_carlo"]:
                want = "monte_carlo"
            elif kernels == ["_fixed_column"] and spec.kind in (
                    IndexKind.MTTRRS, IndexKind.MTTRSS):
                want = "single_draw"
            else:  # a fixed score, or an exact cell that used neither
                assert kernels in ([], ["_fixed_column"]), (spec, c)
                want = "exact"
            assert label == want, (spec, c, kernels)
        assert matrix.meta["estimator"] == (
            "monte_carlo" if "monte_carlo" in labels else "exact")


def test_ordered_window_cells_match_monte_carlo():
    """Exact ordered-random MATTR and MTTRSS cells of 300-token Zipf texts
    lie within 4 standard errors of a Monte Carlo estimate: sorted
    uniform m-subsets scored by `mattr`."""
    corpus = make_zipf_corpus(3, 300, 300, seed=11)
    config = SamplingConfig("ordered_random", 300, (300, 150, 75), 1)
    exact = run_method(corpus, config, MATTR_SPEC)
    mttrss = run_method(corpus, config, IndexSpec(IndexKind.MTTRSS, n=25, s=3))
    assert mttrss.values[:, 1:].tobytes() == exact.values[:, 1:].tobytes()
    rng = np.random.default_rng(5)
    for text, row in zip(corpus, exact.values):
        codes = _encode(text.tokens)
        for m, got in zip((150, 75), row[1:]):
            draws = [mattr(codes[np.sort(rng.choice(300, m, replace=False))], 25)
                     for _ in range(1000)]
            se = np.std(draws, ddof=1) / math.sqrt(len(draws))
            assert abs(got - np.mean(draws)) < 4 * se, (text.id, m)


def test_ordered_window_cells_ignore_the_budgets(small_corpus, monkeypatch):
    """Texts share a pass while their tokens fit ``_PAIR_BUDGET`` and
    their pairs a run while they fit it; a text's terms are summed alone
    all the same, so any budget gives the same bytes, down to one text
    per pass and per run.  A run holds only the tables that fit
    ``_TABLE_BUDGET`` at once (one where a single table does not fit),
    and the grouping of the sample lengths leaves the bytes as they were."""
    config = small_config("ordered_random", conditions=(280, 140, 70, 30))
    spec = IndexSpec(IndexKind.MATTR, n=30)
    want = run_method(small_corpus, config, spec).values.tobytes()
    for budget in (1, 1000, 3000, 20_000):
        monkeypatch.setattr(sampling_mod, "_PAIR_BUDGET", budget)
        got = run_method(small_corpus, config, spec).values.tobytes()
        assert got == want, budget
    held = []
    missed_sums = sampling_mod._missed_sums

    def spy(arrs, tables, n, most):
        held.append(len(tables))
        return missed_sums(arrs, tables, n, most)

    monkeypatch.setattr(sampling_mod, "_missed_sums", spy)
    one = 3 * (max(np.bincount(_encode(t.tokens[:280])).max()
                   for t in small_corpus) + 1) * 281
    for budget, groups in ((1, [1, 1, 1]), (2 * one, [2, 1]),
                           (3 * one, [3])):
        monkeypatch.setattr(sampling_mod, "_TABLE_BUDGET", budget)
        held.clear()
        got = run_method(small_corpus, config, spec).values.tobytes()
        assert (got, held) == (want, groups), budget


# -------------------------------------------------------------- ScoreMatrix

def test_score_matrix_csv_round_trip(tmp_path, small_corpus):
    matrix = run_method(small_corpus, small_config("random"), TTR_SPEC)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    matrix.to_long_csv(p1)
    matrix.to_long_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()  # byte-identical rewrites
    back = ScoreMatrix.from_long_csv(p1)
    assert back.row_ids == matrix.row_ids
    assert back.col_labels == matrix.col_labels
    assert np.array_equal(back.values, matrix.values)  # exact round trip


def test_score_matrix_csv_failed_write_leaves_nothing(tmp_path):
    """A write that fails partway (a lone surrogate in the last row id has
    no UTF-8) leaves neither the target nor a temporary file."""
    matrix = ScoreMatrix(["a", "b\udc80"], ["1", "2"], np.ones((2, 2)))
    with pytest.raises(UnicodeEncodeError):
        matrix.to_long_csv(tmp_path / "scores.csv")
    assert list(tmp_path.iterdir()) == []


def test_score_matrix_statistics_ignore_memory_layout():
    """A matrix built from a transposed array (as a condition-major score
    table is) gives the statistics bit for bit of one built from a C-ordered
    copy."""
    ids, labels = [f"t{i}" for i in range(100)], ["a", "b", "c", "d"]
    for seed in range(3):
        values = np.random.default_rng(seed).random((4, 100)).T
        got = icc_2_1(ScoreMatrix(ids, labels, values))
        want = icc_2_1(ScoreMatrix(ids, labels, values.copy()))
        assert (got.estimate, got.ci_low, got.ci_high) == (
            want.estimate, want.ci_low, want.ci_high), seed


def test_score_matrix_shape_checks():
    with pytest.raises(SamplingError, match="shape"):
        ScoreMatrix(["a"], ["1", "2"], np.zeros((2, 2)))
    with pytest.raises(SamplingError, match="non-finite"):
        ScoreMatrix(["a"], ["1", "2"], np.array([[1.0, np.nan]]))


def test_from_long_csv_rejects_missing_cells(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("text_id,condition,score\na,1,0.5\na,2,0.6\nb,1,0.4\n")
    with pytest.raises(SamplingError, match="missing cell"):
        ScoreMatrix.from_long_csv(p)


def test_from_long_csv_rejects_duplicate_cells(tmp_path):
    p = tmp_path / "dup.csv"
    p.write_text("text_id,condition,score\nt1,a,1.0\nt1,a,9.0\n")
    with pytest.raises(SamplingError, match="duplicate cell"):
        ScoreMatrix.from_long_csv(p)


@pytest.mark.parametrize("row_ids, col_labels, repeated", [
    (["t1", "t1"], ["a", "b"], "row ids ['t1']"),
    (["t1", "t2"], ["50", "50"], "column labels ['50']"),
])
def test_to_long_csv_rejects_repeated_labels(tmp_path, row_ids, col_labels,
                                             repeated):
    matrix = ScoreMatrix(row_ids, col_labels, np.ones((2, 2)))
    with pytest.raises(SamplingError, match=re.escape(f"repeated {repeated}")):
        matrix.to_long_csv(tmp_path / "dup.csv")
    assert not (tmp_path / "dup.csv").exists()


# ---------------------------------------------------------- parameter sweep

def test_parameter_sweep_window_lengths(small_corpus):
    matrix = parameter_sweep(small_corpus, IndexKind.MATTR, [10, 20, 40])
    assert matrix.col_labels == ["10", "20", "40"]
    assert matrix.values.shape == (len(small_corpus), 3)
    # larger windows can only lower or keep the mean TTR of these texts
    assert np.all(matrix.values[:, 0] >= matrix.values[:, 2])


def test_parameter_sweep_refuses_a_value_it_cannot_score(small_corpus,
                                                         monkeypatch):
    """Each value makes its ``IndexSpec`` uncast: a length of 2.5 is
    refused, not scored as 2 under the label 2.5."""
    calls = spy_on_kernels(monkeypatch)
    with pytest.raises(IndexError_) as excinfo:
        parameter_sweep(small_corpus, "hdd", [2.5, 10])
    assert str(excinfo.value) == "n must be an integer, got 2.5"
    assert calls == []


def test_parameter_sweep_takes_any_sequence(small_corpus):
    want = parameter_sweep(small_corpus, IndexKind.HDD, [10, 20, 30])
    got = parameter_sweep(small_corpus, IndexKind.HDD, np.arange(10, 31, 10))
    assert got.values.tobytes() == want.values.tobytes()
    assert (got.col_labels, got.meta) == (want.col_labels, want.meta)
    with pytest.raises(SamplingError, match="param_values required"):
        parameter_sweep(small_corpus, IndexKind.HDD, np.array([], dtype=int))


def test_parameter_sweep_mtld_default_factors(small_corpus):
    matrix = parameter_sweep(small_corpus, IndexKind.MTLD)
    assert matrix.col_labels == [str(f) for f in MTLD_FACTOR_SWEEP]
    assert MTLD_FACTOR_SWEEP[0] == 0.66 and MTLD_FACTOR_SWEEP[-1] == 0.75


def test_parameter_sweep_deterministic_for_stochastic_index(small_corpus):
    a = parameter_sweep(small_corpus, IndexKind.MTTRSS, [20, 40], master_seed=5)
    b = parameter_sweep(small_corpus, IndexKind.MTTRSS, [20, 40], master_seed=5)
    assert np.array_equal(a.values, b.values)
    c = parameter_sweep(small_corpus, IndexKind.MTTRSS, [20, 40], master_seed=6)
    assert not np.array_equal(a.values, c.values)


SWEEPABLE = sorted((kind for kind, index in INDEXES.items() if index.sweep),
                   key=lambda kind: kind.value)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SWEEPABLE),
       st.lists(st.lists(st.sampled_from("abcdefgh"), min_size=6, max_size=40),
                min_size=1, max_size=3),
       st.data())
def test_parameter_sweep_matches_per_value_scoring(kind, texts, data):
    """Each cell is the text's score under that value alone, with the
    (text, value) seed, bit for bit.  The all-distinct text is flagged
    ``undefined_factors`` by MTLD."""
    index = INDEXES[kind]
    texts = [tuple(t) for t in texts] + [tuple(f"d{i}" for i in range(40))]
    corpus = Corpus(tuple(Text(f"t{i}", t) for i, t in enumerate(texts)))
    if index.sweep == "factor":
        value = st.floats(0.05, 0.95)
    else:
        value = st.integers(1, min(map(len, texts)))
    values = data.draw(st.lists(value, min_size=1, max_size=4, unique=True))
    matrix = parameter_sweep(corpus, kind, values, master_seed=3, s=3)
    for i, text in enumerate(corpus):
        for j, p in enumerate(values):
            fixed = {"s": 3} if "s" in index.defaults else {}
            spec = IndexSpec(kind, **fixed, **{index.sweep: p})
            seed = stream_seed(3, text.id, "sweep", str(p))
            want = evaluate_specs(_encode(text.tokens)[None], [spec],
                                  [seed])[0][0]
            assert matrix.values[i, j] == want


@pytest.mark.parametrize("kind, values", [
    (IndexKind.MATTR, [10, 20, 40]), (IndexKind.MSTTR, [10, 20, 40]),
    (IndexKind.MTTRSS, [10, 20, 40]), (IndexKind.MTLD, [0.7, 0.72, 0.75])])
def test_parameter_sweep_finds_previous_occurrences_once_per_text(
        small_corpus, monkeypatch, kind, values):
    """A kind that needs a code matrix finds each text's previous
    occurrences in a call of its own; MTLD takes rows of any length, so
    its sweep finds every text's at once, from one matrix padded to the
    longest text."""
    calls = []
    original = indices_mod._prev_occurrence

    def spy(codes):
        calls.append(codes.shape)
        return original(codes)

    monkeypatch.setattr(indices_mod, "_prev_occurrence", spy)
    parameter_sweep(small_corpus, kind, values, master_seed=1)
    if kind is IndexKind.MTLD:
        assert calls == [(len(small_corpus), max(map(len, small_corpus)))]
    else:
        assert calls == [(1, len(text)) for text in small_corpus]


def test_mtld_path_follows_the_call_width(small_corpus, monkeypatch):
    """A packed 1,000-row ordered-random MTLD condition steps its lanes in
    lockstep and walks none.  A one-text sweep has fewer chunk lanes than
    ``_LOCKSTEP_LANES`` and walks each lane whole in Python.  A sweep of
    every text, here cut into chunks of 100 tokens (8 texts x 2 directions
    x 4 chunks x 10 factors = 640 chunk lanes), steps them in lockstep and
    walks only to join a chunk to the segment open at its start."""
    walks = []
    original = indices_mod._mtld_factors

    def spy(prev, factor, start=0, types=0, ends=None):
        walks.append((len(prev), start < 0))
        return original(prev, factor, start, types, ends)

    monkeypatch.setattr(indices_mod, "_mtld_factors", spy)
    config = small_config("ordered_random", conditions=(140, 70),
                          iterations=125)
    assert len(small_corpus) * config.iterations == 1000
    run_method(small_corpus, config, MTLD_SPEC)
    assert walks == []
    text = small_corpus.texts[0]
    parameter_sweep(Corpus((text,)), IndexKind.MTLD, list(MTLD_FACTOR_SWEEP))
    assert walks == [(len(text), False)] * (2 * len(MTLD_FACTOR_SWEEP))
    walks.clear()
    monkeypatch.setattr(indices_mod, "_CHUNK", 100)
    assert all(300 < len(text) <= 400 for text in small_corpus)
    parameter_sweep(small_corpus, IndexKind.MTLD, list(MTLD_FACTOR_SWEEP))
    assert walks and all(joining and size <= 100 for size, joining in walks)


@pytest.fixture(scope="module")
def long_corpus():
    """13 texts of 200-2,600 tokens: a sweep of all of them over the ten
    default factors has 600 chunk lanes of at most 1,024 tokens, so it
    steps them in lockstep and joins their chunks, where a sweep of one
    of them has at most 60 and walks."""
    corpus = make_zipf_corpus(13, 200, 2600, seed=11)
    chunks = sum(-(-len(text) // indices_mod._CHUNK) for text in corpus)
    assert 2 * chunks * len(MTLD_FACTOR_SWEEP) >= indices_mod._LOCKSTEP_LANES
    assert max(map(len, corpus)) > 2 * indices_mod._CHUNK
    return corpus


def test_mtld_sweep_does_not_depend_on_its_packing(long_corpus):
    """An MTLD sweep scores every text in one kernel call, yet each text
    scores the same bytes as in a sweep of its own, and in any order."""
    want = parameter_sweep(long_corpus, IndexKind.MTLD).values
    for i, text in enumerate(long_corpus):
        alone = parameter_sweep(Corpus((text,)), IndexKind.MTLD).values
        assert alone.tobytes() == want[i].tobytes(), text.id
    reversed_corpus = Corpus(long_corpus.texts[::-1])
    got = parameter_sweep(reversed_corpus, IndexKind.MTLD).values
    assert got.tobytes() == want[::-1].tobytes()


def test_mtld_sweep_ignores_the_pass_budget(long_corpus, monkeypatch):
    """A pass holds whole rows, as many as fit ``_PASS_POSITIONS`` chunk
    positions (both directions, padding included), one alone where a row
    does not fit; any budget gives the same bytes, down to one text per
    pass, and so does any chunk length."""
    want = parameter_sweep(long_corpus, IndexKind.MTLD).values.tobytes()
    passes = []
    original = indices_mod._prev_occurrence

    def spy(codes):
        passes.append(len(codes))
        return original(codes)

    monkeypatch.setattr(indices_mod, "_prev_occurrence", spy)
    chunk, default = indices_mod._CHUNK, indices_mod._PASS_POSITIONS
    cost = [2 * chunk * -(-len(text) // chunk) for text in long_corpus]
    counts = []
    for budget in (1, max(cost), sum(cost) // 3, sum(cost)):
        monkeypatch.setattr(indices_mod, "_PASS_POSITIONS", budget)
        passes.clear()
        got = parameter_sweep(long_corpus, IndexKind.MTLD).values.tobytes()
        assert got == want, budget
        rows, held = [], 0
        for c in cost:
            if rows and held + c <= budget:
                rows[-1] += 1
                held += c
            else:
                rows.append(1)
                held = c
        assert passes == rows, budget
        counts.append(len(rows))
    assert counts[0] == 13 and 1 < counts[2] < 13 and counts[3] == 1
    monkeypatch.setattr(indices_mod, "_PASS_POSITIONS", default)
    for chunk in (1, 7, 300, 4096):
        monkeypatch.setattr(indices_mod, "_CHUNK", chunk)
        got = parameter_sweep(long_corpus, IndexKind.MTLD).values.tobytes()
        assert got == want, chunk


def test_hdd_sweep_takes_presences_and_counts_of_counts_once_per_text(
        small_corpus, monkeypatch):
    """An HD-D sweep builds one presence matrix and one counts-of-counts per
    text, for all its sample sizes."""
    presence_calls, count_calls = [], []
    presences, count_matrix = indices_mod.presences, indices_mod._count_matrix

    def presences_spy(n_tokens, samples, freqs):
        presence_calls.append((n_tokens, np.atleast_1d(samples).tolist()))
        return presences(n_tokens, samples, freqs)

    def count_matrix_spy(codes):
        count_calls.append(codes.shape)
        return count_matrix(codes)

    corpus = Corpus(tuple(Text(text.id, text.tokens[:300 + i])
                          for i, text in enumerate(small_corpus)))
    monkeypatch.setattr(indices_mod, "presences", presences_spy)
    monkeypatch.setattr(indices_mod, "_count_matrix", count_matrix_spy)
    parameter_sweep(corpus, IndexKind.HDD, [10, 20, 40])
    assert presence_calls == [(len(text), [10, 20, 40]) for text in corpus]
    # the text's type counts, then their counts-of-counts
    assert count_calls == [shape for text in corpus
                           for shape in ((1, len(text)),
                                         (1, len(set(text.tokens))))]


def test_random_hdd_asks_presences_only_for_held_frequencies(small_corpus,
                                                             monkeypatch):
    """Each presence call of a random HD-D run is for the frequencies that
    the block's counts-of-counts hold, and for no other."""
    calls, last_matrix = [], []
    presences, count_matrix = indices_mod.presences, indices_mod._count_matrix

    def count_matrix_spy(codes):
        last_matrix[:] = [count_matrix(codes)]
        return last_matrix[0]

    def presences_spy(n_tokens, samples, freqs):
        # the counts-of-counts of the block come just before its presences
        held = np.flatnonzero(last_matrix[0][:, 1:].any(axis=0)) + 1
        calls.append(np.array_equal(freqs, held))
        return presences(n_tokens, samples, freqs)

    monkeypatch.setattr(indices_mod, "_count_matrix", count_matrix_spy)
    monkeypatch.setattr(indices_mod, "presences", presences_spy)
    # more rows per condition than one kernel call takes
    config = small_config("random", iterations=200)
    assert len(small_corpus) * config.iterations > sampling_mod._BLOCK
    run_method(small_corpus, config, HDD_SPEC)
    assert len(calls) > len(config.conditions)
    assert all(calls)


def test_parameter_sweep_checks_every_value_before_scoring(small_corpus,
                                                           monkeypatch):
    def fail(*args):
        raise AssertionError("scored before checking every value")

    monkeypatch.setattr(indices_mod, "_prev_occurrence", fail)
    with pytest.raises(IndexError_, match="factor must be in"):
        parameter_sweep(small_corpus, IndexKind.MTLD, [0.7, 1.5])
    with pytest.raises(IndexError_, match="n must be >= 1"):
        parameter_sweep(small_corpus, IndexKind.MATTR, [10, 0])
    with pytest.raises(SamplingError, match="param_values required"):
        parameter_sweep(small_corpus, IndexKind.MATTR, [])


def test_parameter_sweep_applies_s_only_where_the_kind_draws_segments(
        small_corpus):
    """``s`` is the segment count of an MTTRRS or MTTRSS sweep: it shapes
    their scores, and a kind that draws no segments scores as without it."""
    for kind, values in ((IndexKind.MATTR, [10, 20]), (IndexKind.HDD, [10, 20]),
                         (IndexKind.MTLD, None)):
        with_s = parameter_sweep(small_corpus, kind, values, master_seed=1, s=7)
        plain = parameter_sweep(small_corpus, kind, values, master_seed=1)
        assert with_s.values.tobytes() == plain.values.tobytes()
    a = parameter_sweep(small_corpus, IndexKind.MTTRSS, [20], master_seed=1, s=2)
    b = parameter_sweep(small_corpus, IndexKind.MTTRSS, [20], master_seed=1, s=7)
    assert a.values.tobytes() != b.values.tobytes()


def test_parameter_sweep_rejects_unparameterized(small_corpus):
    with pytest.raises(SamplingError, match="no parameter"):
        parameter_sweep(small_corpus, IndexKind.TTR, [10, 20])


def test_parameter_sweep_rejects_unknown_kind_listing_the_kinds(small_corpus):
    kinds = ", ".join(kind.value for kind in IndexKind)
    with pytest.raises(IndexError_) as excinfo:
        parameter_sweep(small_corpus, "nope")
    assert str(excinfo.value) == f"unknown index 'nope'; choose from {kinds}"


def test_parameter_sweep_rejects_oversized_window(small_corpus):
    too_big = small_corpus.min_text_length + 1
    with pytest.raises(SamplingError, match="exceed"):
        parameter_sweep(small_corpus, IndexKind.MATTR, [10, too_big])
