"""Index correctness: pinned reference values, brute-force oracles, and
permutation/weight properties."""

import itertools
import math
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lexdiv.indices as indices_mod
from lexdiv.indices import (
    INDEXES,
    IndexDef,
    IndexError_,
    IndexKind,
    IndexSpec,
    _encode,
    _prev_occurrence,
    evaluate,
    evaluate_specs,
    gini_simpson,
    guiraud_r,
    hdd,
    herdan_c,
    maas_a,
    mattr,
    min_tokens_required,
    msttr,
    mtld,
    mttrrs,
    mttrss,
    presences,
    token_weights,
    ttr,
)
from lexdiv.numerics import NumericsError, hypergeom_presence

tokens_strategy = st.lists(
    st.sampled_from("abcdefghij"), min_size=1, max_size=60
)


# ---------------------------------------------------------------- reference
# Pinned values for the bundled 165-token / 100-type fixture text.

def test_reference_shape(reference):
    counts = Counter(reference.tokens)
    assert sum(counts.values()) == 165
    assert len(counts) == 100


def test_reference_pinned_values(reference):
    assert ttr(reference) == pytest.approx(0.6061, abs=5e-5)
    assert guiraud_r(reference) == pytest.approx(7.7850, abs=5e-4)
    assert herdan_c(reference) == pytest.approx(0.9019, abs=5e-5)
    assert maas_a(reference) == pytest.approx(0.1386, abs=5e-4)
    assert maas_a(reference, "base10_a_squared") == pytest.approx(0.0442, abs=5e-4)
    assert hdd(reference, 42) == pytest.approx(0.8278, abs=5e-5)
    assert mattr(reference, 50) == pytest.approx(0.7993, abs=5e-5)
    assert msttr(reference, 50) == pytest.approx(0.8133, abs=5e-5)
    assert mtld(reference, 0.72) == pytest.approx(77.8337, abs=1e-3)


# ------------------------------------------------------------------- basics

def test_simple_counts():
    toks = ["a", "b", "a", "c"]
    assert ttr(toks) == 0.75
    assert guiraud_r(toks) == pytest.approx(3 / 2.0)
    assert herdan_c(toks) == pytest.approx(math.log(3) / math.log(4))


def test_herdan_single_type_is_zero():
    assert herdan_c(["a", "a", "a"]) == 0.0


def test_single_token_undefined():
    with pytest.raises(IndexError_):
        herdan_c(["a"])
    with pytest.raises(IndexError_):
        maas_a(["a"])


def test_empty_rejected():
    for fn in (ttr, guiraud_r):
        with pytest.raises(IndexError_):
            fn([])


@settings(max_examples=200, deadline=None)
@given(tokens_strategy)
def test_type_count_indices_match_set_formulas(toks):
    """The formulas over the type count V = len(set(tokens)), bit for bit."""
    n, v = len(toks), len(set(toks))
    assert ttr(toks) == v / n
    assert guiraud_r(toks) == v / math.sqrt(n)
    if n < 2:
        return
    assert herdan_c(toks) == (0.0 if v == 1 else math.log(v) / math.log(n))
    assert maas_a(toks) == math.sqrt((math.log(n) - math.log(v))
                                     / math.log(n) ** 2)
    assert maas_a(toks, "base10_a_squared") == (
        (math.log10(n) - math.log10(v)) / math.log10(n) ** 2)


@given(tokens_strategy)
def test_global_indices_permutation_invariant(toks):
    rng = np.random.default_rng(0)
    shuffled = list(toks)
    rng.shuffle(shuffled)
    assert ttr(shuffled) == ttr(toks)
    assert guiraud_r(shuffled) == guiraud_r(toks)
    if len(toks) >= 2:
        assert herdan_c(shuffled) == herdan_c(toks)
        assert maas_a(shuffled) == maas_a(toks)
        n = min(5, len(toks))
        assert hdd(shuffled, n) == pytest.approx(hdd(toks, n), abs=1e-12)


# --------------------------------------------------------------------- HD-D

def brute_force_hdd(toks, n):
    """Mean distinct-type count over all C(N, n) subsets, divided by n."""
    total = 0
    count = 0
    for combo in itertools.combinations(toks, n):
        total += len(set(combo))
        count += 1
    return total / (count * n)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=10), st.data())
def test_hdd_matches_subset_enumeration(toks, data):
    n = data.draw(st.integers(1, min(5, len(toks))))
    assert hdd(toks, n) == pytest.approx(brute_force_hdd(toks, n), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from("abcdefgh"), min_size=2, max_size=50))
def test_hdd2_equals_gini_simpson_identity(toks):
    assert hdd(toks, 2) == pytest.approx((1.0 + gini_simpson(toks)) / 2.0,
                                         abs=1e-12)


def test_hdd_domain():
    with pytest.raises(IndexError_):
        hdd(["a", "b"], 3)
    with pytest.raises(IndexError_):
        hdd(["a", "b"], 0)


def scalar_presences(big_n, n, freqs):
    return [hypergeom_presence(big_n, int(f), n) for f in freqs]


BRANCH_CASES = [
    (300, 42, [1, 2, 64, 65, 200, 258, 259, 300]),  # f = 1, f <= 64, f > 64
    (300, 120, [100, 120, 121, 180, 181]),          # f <= n, f > n, f > N - n
    (300, 300, [1, 5, 300]),                        # n = N
    (300, 0, [1, 7]),
    (1, 1, [1]),
    # a long text's sizes
    (5800, 420, [1, 2, 64, 65, 420, 421, 1853, 5380, 5381]),
    (5800, 42, [1, 2, 42, 43, 64, 65, 1853, 5758, 5759]),
]


@pytest.mark.parametrize("big_n, n, freqs", BRANCH_CASES)
def test_presences_match_scalar_reference_on_every_branch(big_n, n, freqs):
    """Bit for bit, with every size of the cases of this N in one call."""
    sizes = [n] + [m for other, m, _ in BRANCH_CASES
                   if other == big_n and m != n]
    assert (presences(big_n, sizes, freqs).tolist()
            == [scalar_presences(big_n, m, freqs) for m in sizes])


def test_presences_match_scalar_reference_exhaustively():
    """Every sample size of each N in one call, each row against the scalar
    reference."""
    for big_n in range(1, 131):
        freqs = np.arange(1, big_n + 1)
        sizes = range(big_n + 1)
        assert (presences(big_n, sizes, freqs).tolist()
                == [scalar_presences(big_n, n, freqs) for n in sizes])
    for big_n in (2000, 5800):
        freqs = np.arange(1, big_n + 1)
        sizes = (42, 64, 65, 420)
        assert (presences(big_n, sizes, freqs).tolist()
                == [scalar_presences(big_n, n, freqs) for n in sizes])


def test_presences_ignore_the_prefix_budget(monkeypatch):
    """A block of rows at a time is multiplied, as many as fit
    ``_PREFIX_CELLS`` prefix products: one row per block, a few rows, or
    the default give the same bits, on both branches (f <= max(64, n) and
    a larger f <= N - n)."""
    grids = [(300, [0, 1, 42, 64, 120, 299, 300]),
             (5800, [0, 1, 42, 64, 65, 420, 2900, 5757])]
    want = [presences(big_n, sizes, np.arange(1, big_n + 1)).tobytes()
            for big_n, sizes in grids]
    for budget in (1, 3 * 5800, indices_mod._PREFIX_CELLS):
        monkeypatch.setattr(indices_mod, "_PREFIX_CELLS", budget)
        got = [presences(big_n, sizes, np.arange(1, big_n + 1)).tobytes()
               for big_n, sizes in grids]
        assert got == want, budget


def test_presences_domain():
    with pytest.raises(NumericsError, match="freq=0"):
        presences(10, [3], [1, 0])
    with pytest.raises(NumericsError, match="freq=11"):
        presences(10, [3, 4], [11])
    with pytest.raises(NumericsError, match="sample=11"):
        presences(10, [3, 11], [1])
    with pytest.raises(NumericsError, match="sample=-1"):
        presences(10, [-1], [1])


@st.composite
def hdd_blocks(draw):
    """A count matrix of equal-length rows, with types absent from some rows
    and a spread of frequencies (the last column fills each row up to the
    length), and some HD-D sample sizes."""
    n_types = draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(st.integers(0, 15), min_size=n_types,
                                  max_size=n_types), min_size=1, max_size=5))
    length = max(sum(row) for row in rows) + draw(st.integers(1, 10))
    counts = [row + [length - sum(row)] for row in rows]
    return counts, draw(st.lists(st.integers(1, length), min_size=1,
                                 max_size=4))


def hdd_left_to_right(row, length, n):
    """HD-D of one row of counts: (types with frequency f) x presence(f),
    added one at a time in ascending f."""
    coc = Counter(c for c in row if c)
    types = 0.0
    for f in sorted(coc):
        types += coc[f] * hypergeom_presence(length, f, n)
    return types / n


# The first row's nine terms add up to a different float left to right,
# with fsum and with numpy's pairwise sum.
@example(([[4, 12, 12, 11, 2, 1, 14, 11, 9, 11, 10, 6],
           [50, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 53]], [2]))
@given(hdd_blocks())
@settings(max_examples=200, deadline=None)
def test_hdd_block_scores_each_row_alone_left_to_right(block):
    """Stream layout 6: every row of a block, under each of the sizes scored
    together, scores as it does alone under that size, and as the
    left-to-right sum of its terms in ascending frequency."""
    counts, sizes = block
    length = sum(counts[0])
    specs = [IndexSpec(IndexKind.HDD, n=n) for n in sizes]
    kernel = INDEXES[IndexKind.HDD].counts
    got = kernel(np.array(counts), length, specs)
    for n, spec, scores in zip(sizes, specs, got):
        for row, score in zip(counts, scores):
            assert score == kernel(np.array([row]), length, [spec])[0][0]
            assert score == hdd_left_to_right(row, length, n)


def test_gini_simpson_values():
    assert gini_simpson(["a", "b"]) == 1.0
    assert gini_simpson(["a", "a"]) == 0.0


# -------------------------------------------------------------------- MATTR
# A window length of 4 over ten tokens with a single hapax: the score
# depends on where the hapax sits, following the window-membership weights.

HAPAX_MATTR_4 = [0.286, 0.321, 0.357, 0.393, 0.393, 0.393, 0.393, 0.357,
                 0.321, 0.286]


def test_mattr_hapax_position_sequence():
    for pos, expected in enumerate(HAPAX_MATTR_4):
        toks = ["b"] * 10
        toks[pos] = "a"
        assert mattr(toks, 4) == pytest.approx(expected, abs=1e-3), pos


def test_mattr_window_membership_weights():
    assert token_weights(IndexKind.MATTR, 10, 4) == [
        1.0, 2.0, 3.0, 4.0, 4.0, 4.0, 4.0, 3.0, 2.0, 1.0
    ]


def brute_force_mattr(toks, n):
    windows = [toks[i:i + n] for i in range(len(toks) - n + 1)]
    return sum(len(set(w)) / n for w in windows) / len(windows)


@settings(max_examples=200, deadline=None)
@given(tokens_strategy, st.data())
def test_mattr_matches_window_enumeration(toks, data):
    n = data.draw(st.integers(1, len(toks)))
    assert mattr(toks, n) == pytest.approx(brute_force_mattr(toks, n),
                                           abs=1e-12)


def test_mattr_full_window_is_ttr():
    toks = ["a", "b", "a", "c", "b"]
    assert mattr(toks, 5) == ttr(toks)


def test_mattr_domain():
    with pytest.raises(IndexError_):
        mattr(["a", "b"], 3)


# -------------------------------------------------------------------- MSTTR

def brute_force_msttr(toks, n):
    segments = [toks[i * n:(i + 1) * n] for i in range(len(toks) // n)]
    return sum(len(set(s)) / n for s in segments) / len(segments)


@settings(max_examples=200, deadline=None)
@given(tokens_strategy, st.data())
def test_msttr_matches_segment_enumeration(toks, data):
    n = data.draw(st.integers(1, len(toks)))
    assert msttr(toks, n) == pytest.approx(brute_force_msttr(toks, n),
                                           abs=1e-12)


def test_msttr_drops_remainder():
    # segments (a b)(a b), trailing "c" ignored
    assert msttr(["a", "b", "a", "b", "c"], 2) == 1.0


def test_msttr_weights_mask():
    assert token_weights(IndexKind.MSTTR, 10, 4) == [
        1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0
    ]


def test_ttr_weights_uniform():
    assert token_weights(IndexKind.TTR, 5) == [0.2] * 5


def test_mttrss_weights_are_selection_probabilities():
    # N=10, n=4: starts are uniform over 7 positions, token i is covered by
    # min(i, n, N-n+1, N-i+1) of them
    w = token_weights(IndexKind.MTTRSS, 10, 4)
    assert w == pytest.approx([1 / 7, 2 / 7, 3 / 7, 4 / 7, 4 / 7, 4 / 7,
                               4 / 7, 3 / 7, 2 / 7, 1 / 7])


def test_weights_domain():
    kinds = ", ".join(kind.value for kind in IndexKind)
    with pytest.raises(IndexError_) as excinfo:
        token_weights("nope", 10, 3)
    assert str(excinfo.value) == f"unknown index 'nope'; choose from {kinds}"
    with pytest.raises(IndexError_):
        token_weights(IndexKind.MATTR, 5, None)
    with pytest.raises(IndexError_):
        token_weights(IndexKind.MATTR, 5, 6)
    with pytest.raises(IndexError_):
        token_weights(IndexKind.MTLD, 5, 2)


# --------------------------------------------------------- stochastic means

def test_mttrrs_deterministic_given_seed():
    toks = [f"w{i % 7}" for i in range(100)]
    assert mttrrs(toks, 20, 5, seed=3) == mttrrs(toks, 20, 5, seed=3)
    rng = np.random.default_rng(3)
    assert mttrrs(toks, 20, 5, seed=3) == mttrrs(toks, 20, 5, seed=rng)


def loop_mttrrs(toks, n, s, rng):
    """s with-replacement draws of n positions, one draw at a time."""
    total = 0
    for _ in range(s):
        total += len({toks[i] for i in rng.integers(0, len(toks), size=n)})
    return total / (s * n)


def loop_mttrss(toks, n, s, rng):
    """s segment starts in one draw, then the segments' type counts."""
    starts = rng.integers(0, len(toks) - n + 1, size=s)
    return sum(len(set(toks[a:a + n])) for a in starts) / (s * n)


@settings(max_examples=200, deadline=None)
@given(tokens_strategy, st.data())
def test_stochastic_indices_match_segment_loops(toks, data):
    """Same seed, same draws, same scores as a per-segment loop; rows of a
    matrix are scored in order from one stream."""
    n = data.draw(st.integers(1, len(toks)), label="n")
    s = data.draw(st.integers(1, 6), label="s")
    seed = data.draw(st.integers(0, 2**32), label="seed")
    loops = {IndexKind.MTTRRS: loop_mttrrs, IndexKind.MTTRSS: loop_mttrss}
    assert mttrrs(toks, n, s, seed=seed) == loop_mttrrs(
        toks, n, s, np.random.default_rng(seed))
    assert mttrss(toks, n, s, seed=seed) == loop_mttrss(
        toks, n, s, np.random.default_rng(seed))
    codes = _encode(toks)
    for kind, loop in loops.items():
        rng = np.random.default_rng(seed)
        want = [loop(list(row), n, s, rng) for row in (codes, codes[::-1])]
        got = evaluate_specs(np.stack([codes, codes[::-1]]),
                             [IndexSpec(kind, n=n, s=s)],
                             [np.random.default_rng(seed)])[0]
        assert got == want, kind


def test_mttrrs_constant_text():
    # every sample of a one-type text has exactly one type
    assert mttrrs(["a"] * 30, 10, 4, seed=0) == pytest.approx(0.1)


def test_mttrss_constant_text():
    assert mttrss(["a"] * 30, 10, 4, seed=0) == pytest.approx(0.1)


def test_mttrss_segments_are_contiguous():
    # alternating two-type text: every contiguous even-length segment has
    # exactly 2 types, so the score is exactly 2/n for any seed
    toks = ["a", "b"] * 50
    for seed in range(5):
        assert mttrss(toks, 10, 8, seed=seed) == pytest.approx(0.2)


def test_mttrss_domain():
    with pytest.raises(IndexError_):
        mttrss(["a", "b"], 3, 2, seed=0)
    with pytest.raises(IndexError_):
        mttrrs(["a", "b"], 0, 2, seed=0)


def test_stochastic_requires_seed():
    with pytest.raises(IndexError_):
        mttrrs(["a", "b", "c"], 2, 2)


# --------------------------------------------------------------------- MTLD

def naive_mtld_pass(toks, factor):
    factors = 0.0
    segment = []
    for tok in toks:
        segment.append(tok)
        running = len(set(segment)) / len(segment)
        if running < factor:
            factors += 1.0
            segment = []
            running = 1.0
    if segment:
        factors += (1.0 - len(set(segment)) / len(segment)) / (1.0 - factor)
    return factors


def naive_mtld(toks, factor):
    """``(score, flags)``, as ``evaluate`` reports them."""
    scores, flags = [], ()
    for seq in (list(toks), list(toks)[::-1]):
        f = naive_mtld_pass(seq, factor)
        if f == 0.0:
            flags = ("undefined_factors",)
        scores.append(len(seq) if f == 0.0 else len(seq) / f)
    return (scores[0] + scores[1]) / 2.0, flags


@settings(max_examples=300, deadline=None)
@given(tokens_strategy, st.floats(0.3, 0.9))
def test_mtld_matches_naive_implementation(toks, factor):
    # the kernel tests the running TTR only at repeats; the floats must
    # still be those of a test at every token
    assert evaluate(toks, IndexSpec(IndexKind.MTLD, factor=factor)) == naive_mtld(
        toks, factor)


# factors that some t / c equals exactly, so a segment's TTR meets them
EXACT_RATIO_FACTORS = (0.5, 0.75, 0.7, 2 / 3)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 40), st.integers(1, 6),
       st.one_of(st.floats(0.3, 0.9), st.sampled_from(EXACT_RATIO_FACTORS)),
       st.data())
def test_mtld_rows_match_per_row_evaluate(rows, cols, alphabet, factor, data):
    """A block scores as its rows do one by one (a one-row call walks in
    Python), and so does the block stepped in lockstep (lane constant 0)."""
    codes = np.array(data.draw(st.lists(
        st.lists(st.integers(0, alphabet - 1), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows)))
    spec = IndexSpec(IndexKind.MTLD, factor=factor)
    want = [evaluate(row, spec)[0] for row in codes]
    assert evaluate_specs(codes, [spec], [None]) == [want]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(indices_mod, "_LOCKSTEP_LANES", 0)
        assert evaluate_specs(codes, [spec], [None]) == [want]


@pytest.mark.parametrize("lanes", [indices_mod._LOCKSTEP_LANES, 0],
                         ids=["default", "lockstep"])
def test_mtld_exact_ratio_factors_and_one_token_rows(lanes):
    """Several factors in one call, each met exactly by some segment's
    TTR, on rows of 1 to 40 tokens, against the naive walk."""
    rng = np.random.default_rng(3)
    specs = [IndexSpec(IndexKind.MTLD, factor=f) for f in EXACT_RATIO_FACTORS]
    for cols, alphabet in ((1, 2), (2, 2), (3, 2), (4, 3), (10, 8), (40, 3),
                           (40, 12)):
        codes = rng.integers(0, alphabet, size=(12, cols))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(indices_mod, "_LOCKSTEP_LANES", lanes)
            got = evaluate_specs(codes, specs, [None] * len(specs))
        assert got == [[naive_mtld(row.tolist(), f)[0] for row in codes]
                       for f in EXACT_RATIO_FACTORS], cols


def walked_total(toks, factor):
    """One lane walked whole by ``_mtld_factors``, from previous occurrences
    found with a dict."""
    last, prev = {}, []
    for i, tok in enumerate(toks):
        prev.append(last.get(tok, -1))
        last[tok] = i
    full, start, types, _ = indices_mod._mtld_factors(prev, factor)
    return indices_mod._mtld_total(full, types, len(toks) - start, factor)


def segment_ends(toks, factor):
    """Where the naive pass ends each of its full segments."""
    ends, segment = [], []
    for i, tok in enumerate(toks):
        segment.append(tok)
        if len(set(segment)) / len(segment) < factor:
            ends.append(i)
            segment = []
    return ends


def assert_chunked_lanes(rows, chunk):
    """Every lane of one call that steps ``rows`` in lockstep, cut into
    chunks of ``chunk`` tokens, against the lane walked whole and the
    naive pass, and every row's score against the naive MTLD."""
    codes = [np.array(row) for row in rows]
    factors = list(EXACT_RATIO_FACTORS)
    specs = [IndexSpec(IndexKind.MTLD, factor=f) for f in factors]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(indices_mod, "_CHUNK", chunk)
        mp.setattr(indices_mod, "_LOCKSTEP_LANES", 0)
        lanes = indices_mod._mtld_lanes(codes, np.array(list(map(len, rows))),
                                        factors)
        scores = evaluate_specs(codes, specs, [None] * len(specs))
    for j, factor in enumerate(factors):
        for b, row in enumerate(rows):
            for got, seq in ((lanes[j][b], row),
                             (lanes[j][len(rows) + b], row[::-1])):
                want = naive_mtld_pass(seq, factor)
                assert got == walked_total(seq, factor) == want, (seq, factor)
            assert scores[j][b] == naive_mtld(row, factor)[0]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 17), st.integers(1, 6), st.data())
def test_mtld_chunked_lanes_match_the_walk(chunk, alphabet, data):
    """Lanes of 1-120 tokens and unequal lengths in one call, cut into
    chunks of 1-17 tokens, each chunk stepped from a fresh segment and
    joined by the walk, score as each lane walked whole."""
    rows = data.draw(st.lists(
        st.lists(st.integers(0, alphabet - 1), min_size=1, max_size=120),
        min_size=1, max_size=6))
    assert_chunked_lanes(rows, chunk)


def test_mtld_chunked_lanes_edge_cases():
    """The chunk boundaries that a join must get right, each shown to
    occur (on the forward lane, under factor 1/2 or 3/4)."""
    chunk = 4
    repeats = [0] * 12  # a whole number of chunks
    assert len(repeats) % chunk == 0
    # under 3/4 a segment ends at every second token, so on the last token
    # of chunks 0 and 1
    assert {3, 7} <= set(segment_ends(repeats, 0.75))
    spanning = list(range(9)) + [0] * 12  # one segment over chunks 0-4
    assert segment_ends(spanning, 0.5)[0] // chunk >= 2
    short = [0, 1, 0]  # shorter than one chunk
    assert_chunked_lanes([repeats, spanning, short, [5]], chunk)


def test_only_a_ragged_kind_takes_rows_of_any_length():
    """MTLD scores a list of rows of several lengths as it scores each
    row alone; a kind that needs a code matrix refuses the list, and the
    rows are checked as a matrix's are."""
    assert [kind for kind, index in INDEXES.items() if index.ragged] == [
        IndexKind.MTLD]
    rows = [np.array([0, 1, 0, 2]), np.array([3, 3]), np.array([1])]
    spec = IndexSpec(IndexKind.MTLD, factor=0.7)
    assert evaluate_specs(rows, [spec], [None]) == [
        [evaluate(row, spec)[0] for row in rows]]
    with pytest.raises(IndexError_, match="mattr needs a code matrix"):
        evaluate_specs(rows, [IndexSpec(IndexKind.MATTR, n=1)], [None])
    with pytest.raises(IndexError_, match="needs at least 1 tokens, got 0"):
        evaluate_specs(rows + [np.array([], dtype=int)], [spec], [None])
    with pytest.raises(IndexError_, match="non-negative"):
        evaluate_specs(rows + [np.array([0, -1])], [spec], [None])


def test_mtld_all_distinct_flags_undefined():
    toks = [f"w{i}" for i in range(30)]
    score, flags = evaluate(toks, IndexSpec(IndexKind.MTLD))
    assert score == 30.0
    assert flags == ("undefined_factors",)


def test_mtld_flags_exactly_the_texts_without_a_repeat():
    """The flag is a property of the text: a repeat-free text is flagged,
    and a text with a repeat is not, even where its running TTR never
    falls below the factor (the tail's partial factor is positive)."""
    spec = IndexSpec(IndexKind.MTLD)
    score, flags = evaluate("a b c d a".split(), spec)
    assert score == pytest.approx(7.0)
    assert flags == ()
    assert evaluate([f"w{i}" for i in range(12)], spec) == (
        12.0, ("undefined_factors",))


def test_mtld_factor_domain():
    with pytest.raises(IndexError_):
        mtld(["a", "b"], 1.0)
    with pytest.raises(IndexError_):
        mtld(["a", "b"], 0.0)


def test_mtld_reversal_invariant():
    toks = list("abacabadabacabae" * 4)
    assert mtld(toks, 0.72) == pytest.approx(mtld(toks[::-1], 0.72), abs=1e-12)


# ------------------------------------------------------ previous occurrence

def naive_prev_occurrence(codes):
    out = []
    for row in codes:
        last, prev = {}, []
        for i, code in enumerate(row):
            prev.append(last.get(code, -1))
            last[code] = i
        out.append(prev)
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 40), st.integers(1, 8), st.data())
def test_prev_occurrence_matches_dict_walk(rows, cols, alphabet, data):
    codes = np.array(data.draw(st.lists(
        st.lists(st.integers(0, alphabet - 1), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows)), dtype=np.int64)
    assert _prev_occurrence(codes).tolist() == naive_prev_occurrence(codes.tolist())


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (3, 20)])
def test_prev_occurrence_single_code_rows(shape):
    codes = np.full(shape, 3, dtype=np.int64)
    assert _prev_occurrence(codes).tolist() == naive_prev_occurrence(codes.tolist())


@pytest.mark.parametrize("spec", [
    IndexSpec(IndexKind.TTR), IndexSpec(IndexKind.HDD, n=3),
    IndexSpec(IndexKind.MATTR, n=3), IndexSpec(IndexKind.MTLD)])
@pytest.mark.parametrize("codes", [
    [2**40, 1, 1, 7, 2**40, -5, 1, 3], [-3, 4, 4, -3, -3, 9, 0, 4]])
def test_integer_array_scores_like_a_list(spec, codes):
    as_array = evaluate(np.array(codes), spec)
    assert as_array == evaluate(codes, spec)
    assert as_array == evaluate([str(c) for c in codes], spec)


@pytest.mark.parametrize("kind", list(IndexKind))
def test_evaluate_rows_rejects_negative_codes(kind):
    # [-1, 0] offset into the second row's code range would score as
    # another row's types
    codes = np.array([[0, 1, 2, 1], [-1, 0, 0, 1]])
    with pytest.raises(IndexError_, match="non-negative"):
        params = {name: value for name, value in (("n", 2), ("s", 1))
                  if name in INDEXES[kind].defaults}
        evaluate_specs(codes, [IndexSpec(kind, **params)], [0])


# ----------------------------------------------------------------- evaluate

def test_evaluate_dispatch_matches_functions(reference):
    cases = {
        IndexKind.TTR: ttr(reference),
        IndexKind.GUIRAUD_R: guiraud_r(reference),
        IndexKind.HERDAN_C: herdan_c(reference),
        IndexKind.MAAS_A: maas_a(reference),
        IndexKind.HDD: hdd(reference, 42),
        IndexKind.MATTR: mattr(reference, 50),
        IndexKind.MSTTR: msttr(reference, 50),
        IndexKind.MTLD: mtld(reference, 0.72),
    }
    for kind, expected in cases.items():
        score, _flags = evaluate(reference, IndexSpec(kind=kind))
        assert score == pytest.approx(expected, abs=1e-12), kind


def test_evaluate_stochastic_uses_seed(reference):
    spec = IndexSpec(kind=IndexKind.MTTRSS)
    a, _ = evaluate(reference, spec, rng=11)
    b, _ = evaluate(reference, spec, rng=11)
    assert a == b
    c, _ = evaluate(reference, spec, rng=np.random.default_rng(99))
    d, _ = evaluate(reference, spec, rng=np.random.default_rng(99))
    assert c == d


def test_spec_defaults_and_labels():
    """A spec is complete when made: a kind given by name becomes its
    IndexKind, and a parameter left out takes the kind's default."""
    for kind, index in INDEXES.items():
        assert IndexSpec(kind) == IndexSpec(kind, **index.defaults)
        assert IndexSpec(kind.value).kind is kind
    assert IndexSpec(kind=IndexKind.HDD).n == 42
    assert IndexSpec(kind=IndexKind.MATTR).n == 50
    assert IndexSpec(kind=IndexKind.MTLD).factor == 0.72
    spec = IndexSpec(kind=IndexKind.MTTRSS)
    assert (spec.n, spec.s) == (50, 10)
    assert spec.label() == "mttrss[n=50,s=10]"
    assert IndexSpec("hdd").label() == "hdd[n=42]"
    assert IndexSpec(kind=IndexKind.TTR).label() == "ttr"


def test_spec_validation():
    """A bad kind or parameter is refused when the spec is made, so no
    spec that exists is bad."""
    kinds = ", ".join(kind.value for kind in IndexKind)
    for params, message in (
            ({"kind": "nope"}, f"unknown index 'nope'; choose from {kinds}"),
            ({"kind": IndexKind.HDD, "n": 0}, "n must be >= 1, got 0"),
            ({"kind": IndexKind.MTTRSS, "s": -2}, "s must be >= 1, got -2"),
            ({"kind": IndexKind.HDD, "n": 2.5}, "n must be an integer, got 2.5"),
            ({"kind": IndexKind.MATTR, "n": 3.0},
             "n must be an integer, got 3.0"),
            ({"kind": IndexKind.MATTR, "n": True},
             "n must be an integer, got True"),
            ({"kind": IndexKind.MATTR, "n": "3"},
             "n must be an integer, got '3'"),
            ({"kind": IndexKind.MTTRSS, "s": 1.5}, "s must be an integer, got 1.5"),
            ({"kind": IndexKind.MTTRSS, "s": np.float64(2)},
             "s must be an integer, got np.float64(2.0)"),
            ({"kind": IndexKind.MTLD, "factor": 1.2},
             "factor must be in (0, 1), got 1.2"),
            ({"kind": IndexKind.MAAS_A, "maas_variant": "nope"},
             "unknown maas variant 'nope'")):
        with pytest.raises(IndexError_) as excinfo:
            IndexSpec(**params)
        assert str(excinfo.value) == message
    with pytest.raises(IndexError_, match="n must be >= 1, got 0"):
        replace(IndexSpec(IndexKind.MATTR), n=0)
    # Python and numpy integers are integers, stored as Python ints, as a
    # stream key or a sidecar needs them
    spec = IndexSpec(IndexKind.MTTRSS, n=np.int64(5), s=np.int32(2))
    assert spec.label() == IndexSpec(IndexKind.MTTRSS, n=5, s=2).label()
    assert (type(spec.n), type(spec.s)) == (int, int)


def test_spec_refuses_parameters_its_kind_does_not_use():
    """A parameter that no score of the kind reads is refused, so that a
    sidecar never records one: an n, s or factor outside the kind's
    defaults, and a non-default Maas variant on any kind but Maas."""
    for params, message in (
            ({"kind": "ttr", "n": 5}, "ttr does not take n=5"),
            ({"kind": "mattr", "s": 3}, "mattr does not take s=3"),
            ({"kind": "mtld", "n": 4}, "mtld does not take n=4"),
            ({"kind": "hdd", "factor": 0.5}, "hdd does not take factor=0.5"),
            ({"kind": "hdd", "maas_variant": "base10_a_squared"},
             "hdd does not take maas_variant='base10_a_squared'"),
            ({"kind": "mtld", "maas_variant": "natural_log_a"},
             "mtld does not take maas_variant='natural_log_a'"),
            ({"kind": "guiraud", "n": 2, "s": 3},
             "guiraud does not take n=2, s=3")):
        with pytest.raises(IndexError_) as excinfo:
            IndexSpec(**params)
        assert str(excinfo.value) == message
    with pytest.raises(IndexError_, match="ttr does not take n=3"):
        token_weights(IndexKind.TTR, 10, 3)
    for kind, index in INDEXES.items():
        # every parameter a kind defaults is its own
        assert IndexSpec(kind, **index.defaults).kind is kind
    assert IndexSpec("maas", maas_variant="base10_a_squared").label() \
        == "maas[base10_a_squared]"


SCALAR_FUNCTIONS = {
    IndexKind.TTR: lambda toks, spec: ttr(toks),
    IndexKind.GUIRAUD_R: lambda toks, spec: guiraud_r(toks),
    IndexKind.HERDAN_C: lambda toks, spec: herdan_c(toks),
    IndexKind.MAAS_A: lambda toks, spec: maas_a(toks, spec.maas_variant),
    IndexKind.MTTRRS: lambda toks, spec: mttrrs(toks, spec.n, spec.s, seed=0),
    IndexKind.HDD: lambda toks, spec: hdd(toks, spec.n),
    IndexKind.MATTR: lambda toks, spec: mattr(toks, spec.n),
    IndexKind.MSTTR: lambda toks, spec: msttr(toks, spec.n),
    IndexKind.MTTRSS: lambda toks, spec: mttrss(toks, spec.n, spec.s, seed=0),
    IndexKind.MTLD: lambda toks, spec: mtld(toks, spec.factor),
}


@pytest.mark.parametrize("kind", list(IndexKind))
def test_every_door_rejects_bad_input(kind):
    """A row shorter than the spec's minimum raises IndexError_ through the
    scalar function, evaluate and evaluate_specs (after a good spec)
    alike; each bad parameter the kind takes raises it where the spec is
    made, by the caller or by the scalar function."""
    spec = IndexSpec(kind)
    text = [f"w{i % 7}" for i in range(60)]
    routes = (
        SCALAR_FUNCTIONS[kind],
        lambda toks, spec: evaluate(toks, spec, rng=0),
        lambda toks, spec: evaluate_specs(_encode(toks)[None],
                                          [IndexSpec(kind), spec], [0, 0]),
    )
    for route in routes:
        with pytest.raises(IndexError_, match="needs at least"):
            route(text[:min_tokens_required(spec) - 1], spec)
    bad = {"n": (0, "n must"), "s": (0, "s must"),
           "factor": (1.0, "factor must"),
           "maas_variant": ("nope", "unknown maas variant")}
    cases = [({name: bad[name][0]}, bad[name][1])
             for name in INDEXES[kind].defaults]
    for params, message in cases:
        with pytest.raises(IndexError_, match=message):
            IndexSpec(kind, **params)
        with pytest.raises(IndexError_, match=message):
            SCALAR_FUNCTIONS[kind](text, SimpleNamespace(**{**vars(spec),
                                                            **params}))


def test_evaluate_specs_needs_one_kind_and_one_rng_per_spec():
    codes = _encode("abcabd")[None]
    mattr2 = IndexSpec(IndexKind.MATTR, n=2)
    for specs, rngs in (([mattr2, IndexSpec(IndexKind.MSTTR, n=2)], [0, 0]),
                        ([mattr2, mattr2], [0]), ([], [])):
        with pytest.raises(IndexError_, match="one kind"):
            evaluate_specs(codes, specs, rngs)


def test_min_tokens_required():
    assert min_tokens_required(IndexSpec(kind=IndexKind.HDD)) == 42
    assert min_tokens_required(IndexSpec(kind=IndexKind.MATTR, n=10)) == 10
    assert min_tokens_required(IndexSpec(kind=IndexKind.HERDAN_C)) == 2
    assert min_tokens_required(IndexSpec(kind=IndexKind.TTR)) == 1


def test_registry_defines_every_kind_once():
    assert len(INDEXES) == len(IndexKind)
    assert set(INDEXES) == set(IndexKind)
    assert all(isinstance(index, IndexDef) for index in INDEXES.values())
    K = IndexKind
    derived = {
        "order-free": {k for k, index in INDEXES.items()
                       if index.counts is not None},
        "length-bound": {k for k, index in INDEXES.items()
                         if index.min_tokens == "n"},
    }
    assert derived == {
        "order-free": {K.TTR, K.GUIRAUD_R, K.HERDAN_C, K.MAAS_A, K.HDD},
        "length-bound": {K.HDD, K.MATTR, K.MSTTR, K.MTTRSS},
    }


def test_global_kinds_are_global(reference):
    toks = list(reference.tokens)
    rng = np.random.default_rng(4)
    rng.shuffle(toks)
    for kind in [k for k, index in INDEXES.items() if index.counts is not None]:
        spec = IndexSpec(kind=kind)
        a, _ = evaluate(reference.tokens, spec)
        b, _ = evaluate(toks, spec)
        assert a == pytest.approx(b, abs=1e-12), kind

