"""The ten lexical-diversity indices, per-token weights, and the IndexSpec API.

Index functions accept either a ``corpus.Text`` or any sequence of hashable
tokens (an integer numpy array is taken as token codes, renumbered from 0).
Every index is one row kernel that scores each row of a matrix of token
codes under a list of specs of its kind, doing once the work that no
parameter value changes; the functions below score a one-row matrix under
one spec, and a parameter sweep scores a text under all its values.  The
order-free indices (TTR, Guiraud, Herdan, Maas, HD-D) are a kernel over
each row's type counts under a list of specs, so they can also score
count rows drawn without any token order; HD-D's takes the presences of
all its sample sizes from one matrix (``presences``).  All of them are
deterministic given their parameters; the two stochastic indices
(MTTRRS, MTTRSS) additionally take a seed or an explicit numpy Generator.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Union

import numpy as np

from .corpus import tokens_of
from .numerics import NumericsError


class IndexError_(Exception):
    pass


class IndexKind(str, enum.Enum):
    TTR = "ttr"
    GUIRAUD_R = "guiraud"
    HERDAN_C = "herdan"
    MAAS_A = "maas"
    MTTRRS = "mttrrs"
    HDD = "hdd"
    MATTR = "mattr"
    MSTTR = "msttr"
    MTTRSS = "mttrss"
    MTLD = "mtld"


MAAS_VARIANTS = ("natural_log_a", "base10_a_squared")


def index_kind(name) -> IndexKind:
    """The kind of a name; an unknown name is an ``IndexError_``."""
    try:
        return IndexKind(name)
    except ValueError:
        raise IndexError_(f"unknown index {name!r}; choose from "
                          f"{', '.join(k.value for k in IndexKind)}") from None


def check_count(name: str, value, error=IndexError_, below=None) -> None:
    """Refuse, as ``error``, a ``value`` that is not an integer >= 1, the
    message ``below`` for one below 1 where it is given."""
    # a bool is an int to Python, but no count
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise error(below or f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class IndexSpec:
    """An index kind (or its name) and its parameters, complete and checked
    when made: a parameter left out takes the kind's ``IndexDef.defaults``
    and a bad one is an ``IndexError_``.  The stochastic indices also take
    a seed or Generator where they are scored."""

    kind: IndexKind
    n: Optional[int] = None
    s: Optional[int] = None
    factor: Optional[float] = None
    maas_variant: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "kind", index_kind(self.kind))
        defaults = INDEXES[self.kind].defaults
        unused = []
        for name in ("n", "s", "factor", "maas_variant"):
            value = getattr(self, name)
            if value is None:
                object.__setattr__(self, name, defaults.get(name))
                continue
            if name in ("n", "s"):
                check_count(name, value)
            elif name == "factor" and not 0.0 < value < 1.0:
                raise IndexError_(f"factor must be in (0, 1), got {value}")
            elif name == "maas_variant" and value not in MAAS_VARIANTS:
                raise IndexError_(f"unknown maas variant {value!r}")
            # a parameter the kind does not use would shape no score, yet a
            # sidecar would record it
            if name not in defaults:
                unused.append(f"{name}={value!r}")
        if unused:
            raise IndexError_(f"{self.kind.value} does not take "
                              f"{', '.join(unused)}")

    def validate(self, n_tokens: int):
        """Reject a text too short for the spec (``min_tokens_required``).
        Every scoring door calls this; the kernels check nothing."""
        need = min_tokens_required(self)
        if n_tokens < need:
            raise IndexError_(f"{self.label()} needs at least {need} "
                              f"tokens, got {n_tokens}")

    def label(self) -> str:
        # the default Maas variant goes unnamed, so default labels stay short
        variant = ("" if self.maas_variant in (None, MAAS_VARIANTS[0])
                   else f"[{self.maas_variant}]")
        return INDEXES[self.kind].label.format(
            kind=self.kind.value, n=self.n, s=self.s, factor=self.factor,
            variant=variant)


@dataclass(frozen=True)
class FrequencySpectrum:
    counts: dict
    n_tokens: int
    n_types: int


def spectrum(text) -> FrequencySpectrum:
    toks = tokens_of(text)
    if len(toks) < 1:
        raise IndexError_("empty token sequence")
    counts = Counter(toks)
    return FrequencySpectrum(dict(counts), len(toks), len(counts))


def _ttr(v: int, n: int) -> float:
    return v / n


def _guiraud_r(v: int, n: int) -> float:
    return v / math.sqrt(n)


def _herdan_c(v: int, n: int) -> float:
    if v == 1:
        return 0.0
    return math.log(v) / math.log(n)


def _maas_a(v: int, n: int, variant: str = "natural_log_a") -> float:
    if variant == "base10_a_squared":
        return (math.log10(n) - math.log10(v)) / math.log10(n) ** 2
    return math.sqrt((math.log(n) - math.log(v)) / math.log(n) ** 2)


# Most prefix products ``_fill_presences`` holds at once: 2 MB of float64.
_PREFIX_CELLS = 1 << 18


def _fill_presences(out, n_tokens: int, shifts, lengths, take):
    """Set out[r, c] to 1 - the product of (N - shifts[r] - i) / (N - i)
    over i < lengths[c], multiplied left to right (1 for no factor),
    wherever take[r, c] holds: one row-wise ``multiply.accumulate`` up to
    the longest length taken, from the first row that takes any to the
    last, a block of rows at a time to bound its memory."""
    rows, cols = np.nonzero(take)
    if not rows.size:
        return
    i = np.arange(lengths[cols].max())
    step = max(1, _PREFIX_CELLS // (len(i) + 1))
    for start in range(rows[0], rows[-1] + 1, step):
        part = slice(*np.searchsorted(rows, [start, start + step]))
        block = shifts[start:start + step, None]
        prefix = np.ones((len(block), len(i) + 1))
        np.multiply.accumulate((n_tokens - block - i) / (n_tokens - i),
                               axis=1, out=prefix[:, 1:])
        out[rows[part], cols[part]] = 1.0 - prefix[rows[part] - start,
                                                   lengths[cols[part]]]


def presences(n_tokens: int, samples, freqs) -> np.ndarray:
    """``numerics.hypergeom_presence(n_tokens, f, n)`` for each sample size
    n of ``samples`` (a row each) and each f of ``freqs``, bit for bit: the
    same divisions, multiplied in the same order.  For f <= min(max(64,
    n), N - n) the absent probability is the f-th prefix product of
    (N-n-i)/(N-i), so one accumulate along each n's row gives all its f;
    for a larger f <= N - n it is the n-th prefix product of (N-f-i)/(N-i),
    so one accumulate along each f's row gives all its n (none for n = 0,
    which gives 0).  f = 1 gives n/N and f > N - n gives 1."""
    samples = np.asarray(samples, dtype=np.int64)
    if samples.size and (samples.min() < 0 or samples.max() > n_tokens):
        bad = samples[(samples < 0) | (samples > n_tokens)][0]
        raise NumericsError(
            f"need 0 <= sample <= n_tokens, got sample={bad}")
    freqs = np.asarray(freqs, dtype=np.int64)
    if freqs.size and (freqs.min() < 1 or freqs.max() > n_tokens):
        bad = freqs[(freqs < 1) | (freqs > n_tokens)][0]
        raise NumericsError(
            f"need 1 <= freq <= n_tokens, got freq={bad}, N={n_tokens}")
    rest = (n_tokens - samples)[:, None]
    out = np.ones((len(samples), len(freqs)))
    low = freqs <= np.minimum(np.maximum(64, samples)[:, None], rest)
    _fill_presences(out, n_tokens, samples, freqs, low)
    high = ~low & (freqs <= rest)
    _fill_presences(out.T, n_tokens, freqs, samples, high.T)
    out[:, freqs == 1] = samples[:, None] / n_tokens
    return out


def _as_generator(seed_or_rng) -> np.random.Generator:
    # a Generator, or anything that draws as one (the sampling engine's
    # per-cell streams of a packed block)
    if hasattr(seed_or_rng, "integers"):
        return seed_or_rng
    if seed_or_rng is None:
        raise IndexError_("stochastic index needs a seed or Generator")
    return np.random.default_rng(seed_or_rng)


def _encode(tokens) -> np.ndarray:
    """Map tokens to small ints; index values only depend on the pattern."""
    mapping: dict = {}
    return np.array([mapping.setdefault(tok, len(mapping)) for tok in tokens],
                    dtype=np.int64)


def _codes_row(text) -> np.ndarray:
    """A text as a one-row code matrix.  An integer array is taken as codes;
    one with a code outside [0, len) is renumbered densely from 0 first, so
    huge or negative codes score like any other tokens (a renumbering
    leaves every index value as it is)."""
    toks = tokens_of(text)
    if isinstance(toks, np.ndarray) and toks.dtype.kind in "iu":
        if toks.size and (toks.min() < 0 or toks.max() >= toks.size):
            toks = np.searchsorted(np.unique(toks), toks)
        return toks[None, :]
    return _encode(toks)[None, :]


def _count_matrix(codes: np.ndarray) -> np.ndarray:
    """counts[b, c]: occurrences of code c in row b."""
    rows, width = codes.shape[0], int(codes.max(initial=-1)) + 1
    offsets = np.arange(rows)[:, None] * width
    return np.bincount((codes + offsets).ravel(),
                       minlength=rows * width).reshape(rows, width)


def _prev_occurrence(codes: np.ndarray) -> np.ndarray:
    """For each row of a code matrix, the position of the previous
    occurrence of each position's code in that row, or -1.

    One flat sort of the keys (row * width + code) * m + position, one per
    cell: a key's left neighbour is its previous occurrence when the two
    share a (row, code) group.  The keys are int32 when they fit.  A
    position holds a type new to a segment exactly when its previous
    occurrence lies before the segment's start, so a kernel that grows
    segments (MTLD, ``_mtld_factors``) learns only here which positions
    can lower its running TTR: the repeats."""
    rows, m = codes.shape
    width = int(codes.max(initial=-1)) + 1
    dtype = np.int32 if rows * width * m < 2**31 else np.int64
    keys = codes.astype(dtype)
    keys += np.arange(0, rows * width, width, dtype=dtype)[:, None]
    keys *= m
    keys += np.arange(m, dtype=dtype)
    keys = keys.ravel()
    keys.sort()
    group = keys // m
    keys -= group * m  # each key's position
    prev = np.where(group[1:] == group[:-1], keys[:-1], -1)
    group //= width
    group *= m
    group += keys  # each key's flat cell
    out = np.empty_like(keys)
    out[group[:1]] = -1  # the first key has no left neighbour
    out[group[1:]] = prev
    return out.reshape(rows, m)


# ------------------------------------------------------------- row kernels
# Each scores every row of a matrix (codes, counts or previous occurrences)
# under one spec and returns a list of floats.  Every row is long enough
# for the spec (IndexSpec.validate).

def _type_count_scores(formula, counts: np.ndarray, length: int) -> list:
    """Score each row of a count matrix of length-token samples by its type
    count through the scalar formula, which runs once per distinct count."""
    n_types = np.count_nonzero(counts, axis=1)
    values, row_value = np.unique(n_types, return_inverse=True)
    scores = np.array([formula(int(v), length) for v in values])
    return scores[row_value].tolist()


def _expected_types(counts: np.ndarray, length: int, sizes) -> list:
    """The expected type count of an n-token without-replacement sample of
    each row of a count matrix of length-token texts, for each n of
    ``sizes``: ``out[j][b]`` for row b at ``sizes[j]``.  For each frequency
    f present in the block, (types with frequency f) x presence(f), summed
    left to right in ascending f.  The counts-of-counts make the result
    independent of token order.  A row gets an exact zero term for every f
    that only its block-mates hold, and a left-to-right sum passes zeros
    through unchanged, so each row scores as it would alone; a pairwise
    ``sum`` or a matrix product would group a row's terms by position.
    The counts-of-counts and the presences are found once for all sizes."""
    coc = _count_matrix(counts)
    freqs = np.flatnonzero(coc[:, 1:].any(axis=0)) + 1
    terms = coc[:, freqs] * presences(length, sizes, freqs)[:, None, :]
    return np.add.accumulate(terms, axis=2)[:, :, -1].tolist()


def _hdd_scores(counts: np.ndarray, length: int, specs) -> list:
    """HD-D of each row of a count matrix under each spec: its expected TTR
    at the spec's n tokens."""
    sizes = [spec.n for spec in specs]
    expected = _expected_types(counts, length, sizes)
    return [[types / n for types in row] for n, row in zip(sizes, expected)]


def _mattr_rows(prev: np.ndarray, n: int) -> list:
    """MATTR of each row of previous occurrences, counting types per window
    exactly: position i is the first occurrence of its type in the windows
    starting from max(i-n+1, prev[i]+1) to min(i, N-n) (Covington & McFall
    2010).  That is min(n, gap) windows, gap = i - prev[i], less min(gap,
    d) for the d-th of the last n-1 positions, whose later windows would
    run off the end."""
    big_n = prev.shape[1]
    gap = np.arange(big_n) - prev
    total = np.minimum(gap, n).sum(axis=1)
    total -= np.minimum(gap[:, big_n - n + 1:], np.arange(1, n)).sum(axis=1)
    return (total / (n * (big_n - n + 1))).tolist()


def _msttr_rows(prev: np.ndarray, n: int) -> list:
    """MSTTR of each row of previous occurrences: a position counts when no
    earlier position of its complete segment holds its type."""
    used = prev.shape[1] // n * n
    pos = np.arange(used)
    first = prev[:, :used] < pos - pos % n
    return (first.sum(axis=1) / used).tolist()


def _mttrrs_rows(codes: np.ndarray, n: int, s: int, rng) -> list:
    """MTTRRS of each row: s draws of n positions with replacement, all rows'
    drawn in one call, then the mean type count of the s draws.  A sorted
    draw holds 1 + (neighbouring pairs that differ) types."""
    picks = _as_generator(rng).integers(0, codes.shape[1], size=(len(codes), s * n))
    drawn = np.sort(np.take_along_axis(codes, picks, axis=1).reshape(-1, n), axis=1)
    types = 1 + np.count_nonzero(drawn[:, 1:] != drawn[:, :-1], axis=1)
    return (types.reshape(len(codes), s).sum(axis=1) / (s * n)).tolist()


def _mttrss_rows(prev: np.ndarray, n: int, s: int, rng) -> list:
    """MTTRSS of each row of previous occurrences: s segment starts per row,
    all rows' drawn in one call, then the mean type count of the s
    contiguous length-n segments.  A segment position holds a new type when
    the previous occurrence of its code lies before the segment's start."""
    starts = _as_generator(rng).integers(0, prev.shape[1] - n + 1,
                                         size=(len(prev), s, 1))
    picks = (starts + np.arange(n)).reshape(len(prev), s * n)
    first = (np.take_along_axis(prev, picks, axis=1).reshape(len(prev), s, n)
             < starts)
    return (first.sum(axis=(1, 2)) / (s * n)).tolist()


def _over_prev(kernel):
    """A block kernel that finds the rows' previous occurrences once and
    scores them under each spec with ``kernel(prev, spec, rng)``."""
    def rows(codes, specs, rngs):
        prev = _prev_occurrence(codes)
        return [kernel(prev, spec, rng) for spec, rng in zip(specs, rngs)]
    return rows


def _mtld_factors(prev: list, factor: float, start: int = 0, types: int = 0,
                  ends=None):
    """One MTLD walk over ``prev``, a lane's previous occurrences relative
    to the first position walked, from a segment that began at ``start``
    (<= 0) and holds ``types`` types: a full factor each time the running
    TTR of the growing segment drops below ``factor``.  A position whose
    previous occurrence lies before the segment's start adds a type, and
    (t + 1) / (c + 1) >= t / c also holds for correctly rounded division,
    so the TTR can first drop below ``factor`` only at a repeat: testing
    it there alone gives the same floats as testing it at every token.
    Returns ``(full factors, start, types, joined)``.  Given ``ends`` (a
    chunk lane's segment ends, stepped from a fresh segment at position
    0), the walk stops at its first segment end where the chunk lane ended
    one too (``joined``): from there on the two agree."""
    full = 0
    count = -start
    for p in prev:
        count += 1
        if p < start:
            types += 1
        elif types / count < factor:
            full += 1
            start += count
            types = count = 0
            if ends is not None and ends[start - 1]:
                return full, start, types, True
    return full, start, types, False


def _mtld_total(full: int, types: int, count: int, factor: float) -> float:
    """A lane's full factors plus its tail's partial (1 - TTR) / (1 -
    factor), for a tail of ``count`` tokens holding ``types`` types."""
    return full + ((1.0 - types / count) / (1.0 - factor) if count else 0.0)


# Fewest chunk lanes (factors x chunks of both directions of every row)
# that ``_mtld_rows`` steps in lockstep.  The lockstep's numpy calls per
# position cost about as much as walking 200 lanes in Python (rows of
# 75-300 tokens, one factor), and at 256 lanes it takes 0.77-0.88 of the
# walk's time.
_LOCKSTEP_LANES = 256

# Longest chunk of a lane that the lockstep steps: a longer lane is cut
# into chunks of this many positions.
_CHUNK = 1024

# Most chunk positions (both directions of every row, padding included)
# that ``_mtld_rows`` scores in one pass: a pass holds a few tens of bytes
# for each, plus a byte per factor for its segment ends.
_PASS_POSITIONS = 1 << 20


def _mtld_thresholds(factors: list, n: int) -> np.ndarray:
    """``thr[j, c]``, for c = 1..n, is the least type count t with ``not (t
    / c < factors[j])`` under the walk's own division, so a segment of c
    tokens ends at a repeat exactly when its type count is below ``thr[j,
    c]`` (t / c is monotone in t).  The search starts at int(factor * c),
    which is never above that t: it would take a rounding of factor * c by
    a whole unit, so c near 2**52.  ``thr[j, 0]`` is unused."""
    factor = np.array(factors)[:, None]
    c = np.arange(1, n + 1)
    thr = np.zeros((len(factors), n + 1), dtype=np.int64)
    thr[:, 1:] = factor * c
    low = thr[:, 1:] / c < factor
    while low.any():
        thr[:, 1:] += low
        low = thr[:, 1:] / c < factor
    return thr


def _mtld_lockstep(steps: np.ndarray, factors: list):
    """Step every (factor, column) lane of ``steps`` (n positions x columns
    of previous occurrences relative to the column's first position, where
    every lane begins a segment) one position at a time in numpy.  A lane
    keeps its segment start and type count; the factors share the columns
    by broadcasting.  A segment's first token is new and (t + 1) / (c + 1)
    >= t / c, so a lane's TTR can first drop below its factor only at a
    repeat, and the threshold test needs no repeat mask.  Returns
    ``ends[i, j, w]``, whether lane (j, w) ended a segment at position i,
    and each lane's last segment start and type count."""
    n, width = steps.shape
    dtype = steps.dtype
    # table[j, k] = thr[j, n - k]: a segment of c = i + 1 - start tokens at
    # position i reads flat index j * (n + 1) + n - 1 - i + start
    table = _mtld_thresholds(factors, n)[:, ::-1].astype(dtype).ravel()
    base = np.arange(len(factors), dtype=dtype)[:, None] * (n + 1) + (n - 1)
    start = np.zeros((len(factors), width), dtype=dtype)
    types = np.zeros_like(start)
    ends = np.empty((n, *start.shape), dtype=bool)
    for i, p in enumerate(steps):
        # an explicit cast: a bool operand's implicit one costs more here
        np.add(types, p < start, out=types, casting="unsafe")
        np.less(types, table.take(start + (base - i)), out=ends[i])
        np.copyto(start, i + 1, where=ends[i])
        np.copyto(types, 0, where=ends[i])
    return ends, start, types


def _mtld_chunked(walks: np.ndarray, first, lengths, factors: list,
                  chunk: int) -> np.ndarray:
    """``out[j, w]``: the factors of lane w (the ``lengths[w]`` positions of
    column w of ``walks`` from ``first[w]``) under ``factors[j]``.  Every
    lane is cut into chunks of ``chunk`` positions, the last padded, and
    all chunks are stepped together, each from a fresh segment
    (``_mtld_lockstep``); lanes that fill their column as one chunk are
    stepped in place.  A padded position counts as a new type, so it ends
    no segment and comes off the last one's type count.  A lane's first
    chunk starts where the lane does, so its state is the lane's; at each
    later chunk, ``_mtld_factors`` walks on from the lane's state until it
    ends a segment where the chunk's lane ended one too, and the lane then
    takes the chunk's remaining segment ends and its last segment."""
    n, lanes = walks.shape
    pieces = -(-lengths // chunk)
    head = np.cumsum(pieces) - pieces  # each lane's first chunk column
    if chunk == n and (lengths == n).all():
        steps, real = walks, lengths
    else:
        # each chunk's start within its lane, and its positions there
        offset = (np.arange(pieces.sum()) - np.repeat(head, pieces)) * chunk
        real = np.minimum(chunk, np.repeat(lengths, pieces) - offset)
        i = np.arange(chunk)[:, None]
        at = np.minimum(i, real - 1, dtype=walks.dtype)
        at += np.repeat(first, pieces) + offset
        steps = walks[at, np.repeat(np.arange(lanes), pieces)]
        del at
        steps -= offset
        steps[i >= real] = -1
    ends, start, types = _mtld_lockstep(steps, factors)
    types -= (chunk - real).astype(types.dtype)
    count = real - start
    # a lane whose last segment ended at its last token has no tail: its
    # TTR is left at 1, so its partial is 0
    ttr = np.divide(types, count, out=np.ones(count.shape), where=count > 0)
    totals = ends.sum(axis=0)
    out = (totals + (1.0 - ttr) / (1.0 - np.array(factors)[:, None]))[:, head]
    joins = np.flatnonzero(pieces > 1).tolist()
    if not joins:
        return out
    totals, start, types = totals.tolist(), start.tolist(), types.tolist()
    real, head, pieces = real.tolist(), head.tolist(), pieces.tolist()
    # ends[i, j, c] is flat[i * stride + j * width + c]
    width = ends.shape[2]
    stride = ends.shape[1] * width
    flat = memoryview(ends.view(np.uint8)).cast("B")
    for w in joins:
        lists = {}  # the walk lists of lane w's chunks, for every factor
        for j, factor in enumerate(factors):
            c = head[w]
            full, begin, held = totals[j][c], start[j][c], types[j][c]
            for c in range(c + 1, c + pieces[w]):
                begin -= chunk  # from here on relative to chunk c
                if begin < 0:
                    if c not in lists:
                        lists[c] = steps[:real[c], c].tolist()
                    chunk_ends = flat[j * width + c::stride]
                    walked, begin, held, joined = _mtld_factors(
                        lists[c], factor, begin, held, chunk_ends)
                    full += walked
                    if not joined:
                        continue
                    full += totals[j][c] - sum(chunk_ends[:begin])
                else:
                    full += totals[j][c]
                begin, held = start[j][c], types[j][c]
            out[j, w] = _mtld_total(full, held, real[c] - begin, factor)
    return out


def _mtld_lanes(codes, lengths, factors: list) -> list:
    """The factors of both passes over each row of a code matrix, or of a
    list of code rows of any lengths, under each factor: ``out[j]`` holds
    every row's forward total under ``factors[j]``, then every row's
    backward one.  A list is padded to a matrix with a code of its own.  One ``_prev_occurrence`` call serves both passes:
    a position's next occurrence is the position whose previous occurrence
    it is (n if none), and the next occurrences, mirrored, are the
    reversed row's previous occurrences.  Column w < rows of ``walks``
    holds row w's forward lane from position 0, column rows + w its
    backward lane, which ends at position n, each as previous occurrences
    relative to the lane's first position.  Lanes that make
    ``_LOCKSTEP_LANES`` or more chunk lanes are stepped together
    (``_mtld_chunked``); fewer are walked one by one in Python
    (``_mtld_factors``), which costs less than the lockstep's numpy calls
    per position.  Both give the same floats."""
    if not isinstance(codes, np.ndarray):
        matrix = np.full((len(codes), lengths.max()),
                         max(int(row.max()) for row in codes) + 1)
        matrix[np.arange(lengths.max()) < lengths[:, None]] = np.concatenate(codes)
        codes = matrix
    rows, n = codes.shape
    prev = _prev_occurrence(codes)
    # one flat scatter: a first occurrence's -1 lands in the spare column n
    # of the row before (or the last row's), which the reversed slice
    # never reads
    nxt = np.full((rows, n + 1), n, dtype=prev.dtype)
    flat = (prev + np.arange(rows)[:, None] * (n + 1)).ravel()
    nxt.ravel()[flat] = np.tile(np.arange(n), rows)
    walks = np.empty((n, 2 * rows), dtype=prev.dtype)
    walks[:, :rows] = prev.T
    walks[:, rows:] = (lengths - 1).astype(prev.dtype) - nxt[:, n - 1::-1].T
    del prev, nxt, flat
    first = np.concatenate([np.zeros_like(lengths), n - lengths])
    lengths = np.tile(lengths, 2)
    chunk = min(_CHUNK, n)
    if len(factors) * (-(-lengths // chunk)).sum() >= _LOCKSTEP_LANES:
        return _mtld_chunked(walks, first, lengths, factors, chunk).tolist()
    lanes = [w[a:a + m] for w, a, m in zip(
        walks.T.tolist(), first.tolist(), lengths.tolist())]
    out = []
    for factor in factors:
        totals = []
        for lane in lanes:
            full, start, types, _ = _mtld_factors(lane, factor)
            totals.append(_mtld_total(full, types, len(lane) - start, factor))
        out.append(totals)
    return out


def _mtld_rows(codes, factors: list) -> list:
    """Bidirectional MTLD of each row of a code matrix, or of a list of code
    rows of any lengths, under each factor: ``out[j][b]`` is row b's score
    under ``factors[j]``.  The rows are scored in passes of whole rows
    (``_mtld_lanes``), each of at most ``_PASS_POSITIONS`` chunk positions
    over both directions (one row alone where it does not fit), which
    bounds a pass's memory; a lane scores the same in any pass."""
    if isinstance(codes, np.ndarray):
        lengths = np.full(len(codes), codes.shape[1])
    else:
        lengths = np.array([len(row) for row in codes])
    chunk = min(_CHUNK, int(lengths.max(initial=1)))
    cost = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(2 * chunk * -(-lengths // chunk), out=cost[1:])
    ahead, back = [[] for _ in factors], [[] for _ in factors]
    lo = 0
    while lo < len(lengths):
        hi = max(lo + 1, int(np.searchsorted(
            cost, cost[lo] + _PASS_POSITIONS, side="right")) - 1)
        passes = _mtld_lanes(codes[lo:hi], lengths[lo:hi], factors)
        for j, lanes in enumerate(passes):
            ahead[j] += lanes[:hi - lo]
            back[j] += lanes[hi - lo:]
        lo = hi
    # a pass that counts no factor at all scores the text length
    return [[((m / a if a else float(m)) + (m / b if b else float(m))) / 2.0
             for a, b, m in zip(forward, backward, lengths.tolist())]
            for forward, backward in zip(ahead, back)]


# ------------------------------------------------------- scalar functions

def ttr(text) -> float:
    return evaluate(text, IndexSpec(IndexKind.TTR))[0]


def guiraud_r(text) -> float:
    return evaluate(text, IndexSpec(IndexKind.GUIRAUD_R))[0]


def herdan_c(text) -> float:
    return evaluate(text, IndexSpec(IndexKind.HERDAN_C))[0]


def maas_a(text, variant: str = "natural_log_a") -> float:
    return evaluate(text, IndexSpec(IndexKind.MAAS_A, maas_variant=variant))[0]


def hdd(text, n: int) -> float:
    """Expected TTR of a size-n sample under without-replacement sampling."""
    return evaluate(text, IndexSpec(IndexKind.HDD, n=n))[0]


def mattr(text, n: int) -> float:
    """Mean TTR over all length-n windows advancing one token at a time."""
    return evaluate(text, IndexSpec(IndexKind.MATTR, n=n))[0]


def msttr(text, n: int) -> float:
    """Mean TTR over disjoint consecutive length-n segments, remainder dropped."""
    return evaluate(text, IndexSpec(IndexKind.MSTTR, n=n))[0]


def mtld(text, factor: float = 0.72) -> float:
    return evaluate(text, IndexSpec(IndexKind.MTLD, factor=factor))[0]


def mtld_detailed(text, factor: float = 0.72):
    """Bidirectional MTLD.  Returns ``(score, flags)``.

    The forward pass grows a segment token by token and counts a full
    factor each time the running TTR drops below ``factor``; the tail
    contributes a partial factor of (1 - TTR) / (1 - factor).  The same is
    done on the reversed sequence and the two lengths are averaged.  A
    pass that counts no factor scores the text length, which happens
    exactly when no token repeats; the score is then flagged
    ``undefined_factors``.
    """
    return evaluate(text, IndexSpec(IndexKind.MTLD, factor=factor))


def mttrrs(text, n: int = 50, s: int = 10, seed=None) -> float:
    """Mean TTR over s with-replacement samples of n tokens."""
    return evaluate(text, IndexSpec(IndexKind.MTTRRS, n=n, s=s), seed)[0]


def mttrss(text, n: int = 50, s: int = 10, seed=None) -> float:
    """Mean TTR over s contiguous segments with uniformly drawn starts."""
    return evaluate(text, IndexSpec(IndexKind.MTTRSS, n=n, s=s), seed)[0]


def gini_simpson(text) -> float:
    """Probability that two tokens drawn without replacement differ in type."""
    codes = _codes_row(text)
    big_n = codes.shape[1]
    if big_n < 2:
        raise IndexError_("needs at least two tokens")
    counts = _count_matrix(codes)
    same = int((counts * (counts - 1)).sum())
    return 1.0 - same / (big_n * (big_n - 1))


@dataclass(frozen=True)
class IndexDef:
    """Everything the package knows about one index kind.

    ``rows(codes, specs, rngs)`` is the index: it scores each row of a
    matrix of small non-negative token codes under each of a list of
    specs of its kind that ``IndexSpec.validate`` passed for the row
    length, ``rngs[j]`` driving ``specs[j]``, and returns one list of
    row scores per spec.  Work that no parameter value changes (the
    previous occurrences, MTLD's walk lists, the count matrix) is done once
    for all the specs, so a parameter sweep hands it all of a text's
    values and the sampling engine one.  A ``ragged`` kind's ``rows`` also
    takes a list of 1-D code rows of any lengths and draws nothing, so a
    parameter sweep hands it every text at once (MTLD); every other kind
    is swept one text per call.  Every scoring path (``evaluate``,
    ``evaluate_specs``, the scalar functions) goes through it.  An
    order-free index is its ``counts(counts, length, specs)`` kernel,
    which scores each row of a count matrix (``counts[b, t]``:
    occurrences of type t in row b, a sample of ``length`` tokens) under
    each spec and returns one list of row scores per spec, as
    ``rows`` does (HD-D finds the counts-of-counts and the presences of
    all its sample sizes at once); its ``rows`` is derived here as that
    kernel applied to the count matrix of the code rows, so random
    sampling can hand it drawn type counts directly.  ``flags(codes)``,
    a property of a one-row code matrix and no scorer, gives the flags
    ``evaluate`` reports beside its score (MTLD's ``undefined_factors``).
    ``defaults`` holds each parameter the kind takes, as ``IndexSpec``
    fills it in.  ``label`` is formatted with the spec's kind, n, s,
    factor and variant (the non-default Maas variant); ``min_tokens`` is a
    count or "n"; ``weights(n_tokens, n)`` gives per-position weights.
    """

    rows: Optional[Callable] = None
    counts: Optional[Callable] = None
    flags: Callable = lambda codes: ()
    label: str = "{kind}"
    min_tokens: Union[int, str] = 1
    defaults: dict = field(default_factory=dict)
    sweep: Optional[str] = None
    sweep_values: tuple = ()
    weights: Optional[Callable] = None
    ragged: bool = False

    def __post_init__(self):
        if self.counts is not None:
            counts = self.counts

            def rows(codes, specs, rngs):
                return counts(_count_matrix(codes), codes.shape[1], specs)
            object.__setattr__(self, "rows", rows)

    @property
    def sweep_type(self) -> type:
        return float if self.sweep == "factor" else int


MTLD_FACTOR_SWEEP = tuple(round(0.66 + 0.01 * i, 2) for i in range(10))

INDEXES = {
    IndexKind.TTR: IndexDef(
        counts=lambda counts, length, specs: [
            _type_count_scores(_ttr, counts, length) for _ in specs],
        weights=lambda big_n, n: [1.0 / big_n] * big_n),
    IndexKind.GUIRAUD_R: IndexDef(
        counts=lambda counts, length, specs: [
            _type_count_scores(_guiraud_r, counts, length) for _ in specs]),
    IndexKind.HERDAN_C: IndexDef(
        counts=lambda counts, length, specs: [
            _type_count_scores(_herdan_c, counts, length) for _ in specs],
        min_tokens=2),
    IndexKind.MAAS_A: IndexDef(
        counts=lambda counts, length, specs: [
            _type_count_scores(partial(_maas_a, variant=spec.maas_variant),
                               counts, length) for spec in specs],
        label="{kind}{variant}", min_tokens=2,
        defaults={"maas_variant": MAAS_VARIANTS[0]}),
    IndexKind.MTTRRS: IndexDef(
        rows=lambda codes, specs, rngs: [
            _mttrrs_rows(codes, spec.n, spec.s, rng)
            for spec, rng in zip(specs, rngs)],
        label="{kind}[n={n},s={s}]", defaults={"n": 50, "s": 10}, sweep="n"),
    IndexKind.HDD: IndexDef(
        counts=_hdd_scores,
        label="{kind}[n={n}]", min_tokens="n",
        defaults={"n": 42}, sweep="n"),
    IndexKind.MATTR: IndexDef(
        rows=_over_prev(lambda prev, spec, rng: _mattr_rows(prev, spec.n)),
        label="{kind}[n={n}]", min_tokens="n", defaults={"n": 50}, sweep="n",
        weights=lambda big_n, n: [float(min(i, n, big_n - i + 1, big_n - n + 1))
                                  for i in range(1, big_n + 1)]),
    IndexKind.MSTTR: IndexDef(
        rows=_over_prev(lambda prev, spec, rng: _msttr_rows(prev, spec.n)),
        label="{kind}[n={n}]", min_tokens="n", defaults={"n": 50}, sweep="n",
        weights=lambda big_n, n: [1.0 if i <= big_n // n * n else 0.0
                                  for i in range(1, big_n + 1)]),
    IndexKind.MTTRSS: IndexDef(
        rows=_over_prev(lambda prev, spec, rng: _mttrss_rows(
            prev, spec.n, spec.s, rng)),
        label="{kind}[n={n},s={s}]", min_tokens="n",
        defaults={"n": 50, "s": 10}, sweep="n",
        weights=lambda big_n, n: [min(i, n, big_n - n + 1, big_n - i + 1)
                                  / (big_n - n + 1) for i in range(1, big_n + 1)]),
    IndexKind.MTLD: IndexDef(
        rows=lambda codes, specs, rngs: _mtld_rows(
            codes, [spec.factor for spec in specs]),
        # a pass counts no factor exactly when no token repeats: with a
        # repeat the text's TTR is below 1, so a factor ends or the tail's
        # partial factor is positive
        flags=lambda codes: (() if np.unique(codes).size < codes.size
                             else ("undefined_factors",)),
        label="{kind}[factor={factor}]", defaults={"factor": 0.72},
        sweep="factor", sweep_values=MTLD_FACTOR_SWEEP, ragged=True),
}

# Indices invariant under any permutation of the tokens: those with a
# count kernel.
GLOBAL_KINDS = frozenset(kind for kind, index in INDEXES.items()
                         if index.counts is not None)


def token_weights(kind: IndexKind, n_tokens: int, n: Optional[int] = None):
    """Per-position weight of each token in an index score.

    MATTR weights are window-membership counts; MTTRSS weights are segment
    selection probabilities; MSTTR is a 0/1 mask for the complete segments;
    TTR is uniform.
    """
    kind = index_kind(kind)
    index = INDEXES[kind]
    if index.weights is None:
        raise IndexError_(f"no weight definition for {kind.value}")
    if index.min_tokens == "n" and n is None:
        raise IndexError_(f"{kind.value} weights need a segment length n")
    IndexSpec(kind, n=n).validate(n_tokens)
    return index.weights(n_tokens, n)


def evaluate(text, spec: IndexSpec, rng=None):
    """Score a text, as a one-row code matrix, through ``evaluate_specs``.
    Returns ``(score, flags)``, the flags from ``IndexDef.flags``.

    ``rng``, a seed or a Generator, drives the stochastic indices, which
    lets a sampling harness hand each evaluation its own derived stream.
    """
    codes = _codes_row(text)
    score = evaluate_specs(codes, [spec], [rng])[0][0]
    return score, INDEXES[spec.kind].flags(codes)


def evaluate_specs(codes, specs, rngs) -> list:
    """Score every row of a matrix of small non-negative token codes, each
    row one text, under each of several specs of one kind: one list of row
    scores per spec, with the work that no parameter value changes done
    once (``IndexDef.rows``).  A ``ragged`` kind also takes a non-empty
    list of 1-D code rows of any lengths.  ``rngs[j]`` (a seed, a
    Generator or an object with a Generator's ``integers``) drives
    ``specs[j]``: a stochastic index draws all rows' positions from it in
    one call, rows in order, so a row scores as ``evaluate`` would with
    the stream in the state the rows before it left it
    (``tests/test_sampling.py::test_block_draw_is_the_sequential_stream``
    pins the numpy property this rests on).  A negative code would share
    a count column or sort key with another row's code, so it is
    rejected."""
    if len({spec.kind for spec in specs}) != 1 or len(rngs) != len(specs):
        raise IndexError_("need one or more specs of one kind, one rng each")
    index = INDEXES[specs[0].kind]
    if isinstance(codes, np.ndarray):
        shortest, lowest = codes.shape[1], codes.min(initial=0)
    elif index.ragged and codes:
        shortest = min(len(row) for row in codes)
        lowest = min(row.min(initial=0) for row in codes)
    else:
        raise IndexError_(f"{specs[0].kind.value} needs a code matrix")
    for spec in specs:
        spec.validate(shortest)
    if lowest < 0:
        raise IndexError_("token codes must be non-negative")
    return index.rows(codes, specs, rngs)


def min_tokens_required(spec: IndexSpec) -> int:
    """Smallest text length the index spec can score."""
    need = INDEXES[spec.kind].min_tokens
    return spec.n if need == "n" else need
