"""Length-sensitivity evaluation: parallel, random, ordered random, and
alternating token sampling, plus the parameter sweep.

Every text draws from its own RNG streams, keyed by the condition and
derived from the master seed, so results are independent of evaluation
order and thread count.  The random and ordered-random methods
deliberately share one position stream per text: they must analyze
identical token samples, differing only in whether the sample keeps the
permuted order or the original text order.

How a cell turns its stream into samples is the stream layout, recorded as
``STREAM_LAYOUT`` in the ``ScoreMatrix.meta`` of ``run_method`` and
``parameter_sweep``.  README's "Sampling methods" describes it and tells
how each layout differs from the one before; the current one is

- Layout 10: as layout 9, with MTTRRS and MTTRSS drawing the segments of
  every cell, scored once or sampled, from the cell's own stream (stream,
  condition, "segments"), never from the stream its samples come from.
  Every cell of the other eight kinds is as layout 9 has it: each random
  and ordered-random cell that draws token positions takes them from one
  stream per text, ("random",), whose i-th permutation gives iteration i
  of every sampled length its first m positions.

A ``Method`` scores each condition once, or takes its exact cells, or
draws it; every drawn column goes through ``_monte_carlo``, where each
text draws from its stream in blocks of at most ``_BLOCK`` iterations.
The rows of every text's cell at one condition go to the index's kernel
together, in corpus order, whole where they fit, at most ``_BLOCK`` rows
per call (``_Packer``).  Rows score independently, and each cell's
segments come from its own stream, so a packed call scores each cell as a
call of its rows alone would, and the bytes do not depend on how
``threads`` splits the corpus.

The exact cells are the table ``Method.exact``.  These stay Monte Carlo:

- HD-D under random and ordered random, and MATTR, MSTTR and MTTRSS under
  random: each exact cell is HD-D(n) of the truncation in every column, so
  the rows are constant and the ICC's error variance is 0.  HD-D's wait on
  the benchmark's ICC reference, which has no bounds for such a matrix;
  the others, which no workload runs, wait on ROADMAP item 2 alone.
- Herdan and Maas: the distribution of the type count needs a dynamic
  programme of about 5 ms per (text, m), slower than sampling below about
  1,600 iterations.
- MTLD under every sampling method, HD-D under alternating (a
  Poisson-binomial programme per type), MTTRRS under alternating and ordered
  random, and MSTTR under ordered random: no cheap closed form.  MTTRRS
  under random has one, but it sums a hypergeometric over every count of
  every type.  Ordered MSTTR's segments sit at fixed ranks, so a pair table
  like ordered MATTR's would also need the rank of each pair's first point.

``tests/test_sampling.py`` pins the layout against a per-sample loop.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .corpus import Corpus, Text, csv_text, read_rows, tokens_of, write_atomic
from .indices import (
    INDEXES,
    IndexKind,
    IndexSpec,
    _count_matrix,
    _encode,
    _expected_types,
    _guiraud_r,
    _ttr,
    check_count,
    evaluate_specs,
    index_kind,
    min_tokens_required,
)

DEFAULT_ITERATIONS = 10_000

# The layout of the sampling streams (see the module docstring).
STREAM_LAYOUT = 10

# Iterations per draw; bounds the draw's memory to about this many rows of
# L.  Part of the stream layout: layout 2's count draws depend on it.
_BLOCK = 1024

# Most token positions ``_shared_draw`` draws at once (8 MB of int64); a
# block with more draws them in runs.
_POSITION_BUDGET = 1 << 20


class SamplingError(Exception):
    pass


@dataclass(frozen=True)
class SamplingConfig:
    """A length run: a method, a truncation L, one or more conditions (left
    out, the method's ``Method.default_conditions``), the iterations and a
    seed, complete, checked and made Python ints (the stream keys) when
    made.  An unknown method, a seed that is not an integer, or a
    truncation, iteration count or condition that is not one >= 1 or gives
    samples longer than L is a ``SamplingError``."""

    method: str
    truncate_to: int
    conditions: Optional[tuple] = None
    iterations: int = DEFAULT_ITERATIONS
    master_seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise SamplingError(f"unknown method {self.method!r}")
        method = METHODS[self.method]
        # the truncation before default conditions are made of it
        for name, label, least in (("truncate_to", "truncation length", 1),
                                   ("iterations", "iterations", 1),
                                   ("master_seed", "master seed", None)):
            object.__setattr__(self, name, check_count(
                label, getattr(self, name), SamplingError, least=least))
        object.__setattr__(self, "conditions", tuple(
            check_count("condition", c, SamplingError,
                        below=f"condition {c} must be >= 1")
            for c in (method.default_conditions(self.truncate_to)
                      if self.conditions is None else self.conditions)))
        if not self.conditions:
            raise SamplingError("need at least one condition")
        for c in self.conditions:
            length = method.sample_length(self.truncate_to, c)
            if length > self.truncate_to:
                raise SamplingError(
                    f"sample length {length} exceeds truncation "
                    f"{self.truncate_to}")

    def col_labels(self) -> list:
        """The sample length of each condition: ``run_method``'s columns."""
        method = METHODS[self.method]
        return [str(method.sample_length(self.truncate_to, c))
                for c in self.conditions]


def check_unique_labels(name: str, labels) -> None:
    """Refuse repeated labels, as a long CSV needs one cell per (text,
    condition)."""
    labels = [str(label) for label in labels]
    if len(set(labels)) != len(labels):
        repeated = sorted({x for x in labels if labels.count(x) > 1})
        raise SamplingError(f"repeated {name} {repeated}: a long CSV "
                            f"needs one cell per (text, condition)")


@dataclass
class ScoreMatrix:
    """texts x conditions grid of scores plus run metadata."""

    row_ids: list
    col_labels: list
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        # C order whatever the source: numpy groups the terms of a sum
        # along an axis by memory layout, so the statistics of a
        # transposed array could differ in the last bits
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.values.shape != (len(self.row_ids), len(self.col_labels)):
            raise SamplingError(
                f"shape mismatch: {self.values.shape} vs "
                f"{len(self.row_ids)} rows x {len(self.col_labels)} cols"
            )
        if not np.all(np.isfinite(self.values)):
            raise SamplingError("score matrix contains non-finite cells")

    def to_long_csv(self, path):
        """Write one ``text_id,condition,score`` row per cell, whole or not
        at all.  Repeated row ids or column labels are refused, as
        ``from_long_csv`` refuses them."""
        check_unique_labels("row ids", self.row_ids)
        check_unique_labels("column labels", self.col_labels)
        write_atomic(path, csv_text(
            ["text_id", "condition", "score"],
            ([rid, col, repr(float(self.values[i, j]))]
             for i, rid in enumerate(self.row_ids)
             for j, col in enumerate(self.col_labels))))

    @classmethod
    def from_long_csv(cls, path):
        """The matrix of a long CSV.  An unreadable file, a wrong header or
        row width is a ``CorpusError``; a bad cell is a ``SamplingError``."""
        rows: dict = {}
        cols: list = []
        for lineno, (rid, col, score) in read_rows(
                path, ["text_id", "condition", "score"], "long-form score CSV"):
            if col not in cols:
                cols.append(col)
            cells = rows.setdefault(rid, {})
            if col in cells:
                raise SamplingError(f"{path}: duplicate cell ({rid}, {col})")
            try:
                cells[col] = float(score)
            except ValueError:
                raise SamplingError(
                    f"{path}:{lineno}: non-numeric score {score!r}") from None
        if not rows:
            raise SamplingError(f"{path}: no score rows")
        row_ids = list(rows)
        values = np.full((len(row_ids), len(cols)), np.nan)
        for i, rid in enumerate(row_ids):
            for j, col in enumerate(cols):
                if col not in rows[rid]:
                    raise SamplingError(f"{path}: missing cell ({rid}, {col})")
                values[i, j] = rows[rid][col]
        return cls(row_ids, cols, values, meta={"source": str(path)})


def stream_seed(master_seed: int, *key) -> int:
    """The 128-bit seed of the per-task stream keyed by (master_seed, *key).

    Uses SHA-256 of the repr so streams do not depend on Python's
    randomized string hashing.  Handed to a kernel as its ``rng``, it
    becomes a Generator only where the index draws.
    """
    digest = hashlib.sha256(repr((master_seed,) + key).encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "big")


class _Packer:
    """Rows of many cells scored in packed calls: ``score(rows, [spec],
    [self])``, in ``IndexDef.rows``'s form, at most ``_BLOCK`` rows per
    call, rows in the order they are added.  Rows score independently, so
    a cell's scores do not depend on the rows packed with it.  The packer
    is also the call's rng: MTTRRS and MTTRSS draw through ``integers``,
    which draws each cell's rows from that cell's segment stream,
    ``seeds[cell](*key)``, cells in row order, so every stream gives what a
    call of its rows alone would draw.  A stream is seeded at its cell's
    first draw, so a kind that draws nothing seeds none."""

    def __init__(self, seeds: list, key: tuple, spec: IndexSpec, score):
        self.seeds, self.key, self.spec, self.score = seeds, key, spec, score
        self.streams = {}  # cell -> its segment Generator
        self.scores = [[] for _ in seeds]
        self.queue = []  # (cell, rows) waiting to be scored
        self.queued = 0

    def integers(self, low, high, size):
        drawn = []
        for cell, rows in self.queue:
            if cell not in self.streams:
                self.streams[cell] = np.random.default_rng(
                    self.seeds[cell](*self.key))
            drawn.append(self.streams[cell].integers(
                low, high, size=(len(rows), *size[1:])))
        return np.concatenate(drawn)

    def add(self, cell: int, rows) -> None:
        for part in range(0, len(rows), _BLOCK):
            size = min(_BLOCK, len(rows) - part)
            if self.queued + size > _BLOCK:
                self.flush()
            self.queue.append((cell, rows[part:part + size]))
            self.queued += size

    def flush(self) -> None:
        # a lone block is scored as it is, not copied
        blocks = [rows for _, rows in self.queue]
        out = self.score(
            blocks[0] if len(blocks) == 1 else np.concatenate(blocks),
            [self.spec], [self])[0]
        first = 0
        for cell, rows in self.queue:
            self.scores[cell].extend(out[first:first + len(rows)])
            first += len(rows)
        self.queue.clear()
        self.queued = 0

    def means(self) -> list:
        """Each cell's mean score, once every row is added."""
        if self.queue:
            self.flush()
        return [math.fsum(s) / len(s) for s in self.scores]


def _fixed_column(rows, seeds, key, spec) -> list:
    """Each text's cell scored once: the mean score of its ``rows``, whose
    segments come from the stream under ``key``."""
    packer = _Packer(seeds, key, spec, evaluate_specs)
    for text, cell_rows in enumerate(rows):
        packer.add(text, cell_rows)
    return packer.means()


def _monte_carlo(arrs, seeds, key, sizes, iterations, spec, score,
                 draw) -> list:
    """The Monte Carlo cell of every text at each condition of ``sizes``,
    ``out[j][t]``.  Text t draws from its stream under ``key`` in blocks of
    at most ``_BLOCK`` iterations: ``draw(rng, arr, b)`` yields a block's
    rows as ``(j, rows)`` for the ``_Packer`` of ``sizes[j]``, which scores
    them with ``score`` and draws their segments from (``key[0]``,
    ``sizes[j]``, "segments")."""
    packers = [_Packer(seeds, (key[0], size, "segments"), spec, score)
               for size in sizes]
    for text, (arr, seed) in enumerate(zip(arrs, seeds)):
        rng = np.random.default_rng(seed(*key))
        for start in range(0, iterations, _BLOCK):
            for j, rows in draw(rng, arr, min(_BLOCK, iterations - start)):
                packers[j].add(text, rows)
    return [packer.means() for packer in packers]


def _shared_draw(ordered: bool, sizes, rng, arr, b):
    """Layout 9: b iterations of every sample length m of ``sizes``, each
    iteration's m-samples the first m positions of one fresh permutation,
    restored to text order when ``ordered``.  The permutations are drawn in
    runs of at most ``_POSITION_BUDGET`` positions: numpy fills the rows of
    one ``permuted`` call with the draws of successive ``permutation``
    calls, so they do not depend on the run."""
    per_draw = max(1, _POSITION_BUDGET // len(arr))
    for start in range(0, b, per_draw):
        positions = np.tile(np.arange(len(arr)), (min(per_draw, b - start), 1))
        rng.permuted(positions, axis=1, out=positions)
        for j, m in enumerate(sizes):
            rows = positions[:, :m]
            yield j, arr[np.sort(rows) if ordered else rows]


def _count_draw(m, rng, population, b):
    """Layout 2: the type counts of b m-samples of a text's ``population``."""
    yield 0, rng.multivariate_hypergeometric(population, m, size=b,
                                             method="count")


def _random_draw(ordered: bool, arrs, sizes, spec, seeds, iterations) -> list:
    """The Monte Carlo columns of random or ordered-random sample lengths
    ``sizes``: one call that shares each text's permutations across them
    all, or, for an order-free score, which reads only the sample's type
    counts, one call of count draws per length.  Every text then gets as
    many count columns as the one with the most types, so that its rows
    stack with theirs; no color is drawn from those empty columns."""
    counts = INDEXES[spec.kind].counts
    if counts is None:
        return _monte_carlo(arrs, seeds, ("random",), sizes, iterations, spec,
                            evaluate_specs, partial(_shared_draw, ordered,
                                                    sizes))
    width = max(arr.max() for arr in arrs) + 1
    populations = [np.bincount(arr, minlength=width) for arr in arrs]
    return [_monte_carlo(
        populations, seeds, ("random", m), [m], iterations, spec,
        lambda rows, specs, rngs, m=m: counts(rows, m, specs),
        partial(_count_draw, m))[0] for m in sizes]


def _missed_table(big_l: int, m: int, n: int, most: int) -> np.ndarray:
    """T[d, k, G]: what a pair of points of one type adds to the expected
    count of windows (n consecutive tokens) of an ordered m-sample of L
    tokens that miss the type, where d of the two points are tokens (the
    others the bounds -1 and L), k tokens of the type lie strictly between
    them and G others.  The pair adds the windows drawn among those G
    whenever its d tokens are drawn and its k are not: a window whose ends
    lie x apart among the G has G - x places and C(x - 1, n - 2) ways to
    draw its inside, and the rest of the sample is drawn from the L - d -
    k - x - 1 tokens left, so T[d, k, G] = sum over x < G of (G - x) *
    C(x - 1, n - 2) * C(L - d - 1 - k - x, m - d - n) / C(L, m).  The
    last factor depends on k + x alone, so one row per d gives it for
    every k; each (d, k) row of T is then a double cumulative sum over x.
    k runs to ``most``, and a row's bytes do not depend on ``most``."""
    log_fact = np.array([math.lgamma(i + 1) for i in range(big_l + 1)])

    def log_comb(a, b):
        # log C(a, b), and -inf where it is 0 (outside 0 <= b <= a)
        ok = (b >= 0) & (a >= b)
        a, b = np.where(ok, a, 0), np.where(ok, b, 0)
        return np.where(ok, log_fact[a] - log_fact[b] - log_fact[a - b],
                        -np.inf)

    gap = np.arange(big_l)  # x
    if n == 1:  # a one-token window: its ends are the same token
        inside = np.where(gap == 0, 0.0, -np.inf)
    else:
        inside = log_comb(gap - 1, n - 2)
    d = np.arange(3)[:, None]
    rest = log_comb(big_l - d - 1 - np.arange(most + big_l), m - d - n)
    rest -= log_comb(big_l, m)
    # built in place: the table is the only array of its size
    table = np.zeros((3, most + 1, big_l + 1))
    terms = table[..., 1:]
    np.add(inside, sliding_window_view(rest, big_l, axis=1), out=terms)
    np.exp(terms, out=terms)
    np.cumsum(terms, axis=2, out=terms)
    np.cumsum(terms, axis=2, out=terms)
    return table


# Most tokens whose type points ``_ordered_window_cells`` finds at once,
# and most same-type pairs it holds at once: 0.5 MB per int64 array.
_PAIR_BUDGET = 1 << 16
# Most ``_missed_table`` entries it holds at once (32 MB), though never
# fewer than one table's.
_TABLE_BUDGET = 1 << 22


def _type_points(codes: np.ndarray, n: int, most: int):
    """The points of every type of each row of a code matrix: -1, the
    type's positions and L, in (row, type, rank) order.  Returns, for
    each point i, the first and the end of the run of later points j of
    its type with G >= n others between i and j, and the flat indices
    P[i] and Q[i] that put the pair (i, j) at P[j] - Q[i] in a
    ``_missed_table`` raveled; and, for each row, its points and its
    types.  Within a type, u = position - rank never falls and G = u[j] -
    u[i], so i's partners are a suffix of its type's points."""
    rows, big_l = codes.shape
    width = int(codes.max()) + 1
    groups = (codes + np.arange(rows)[:, None] * width).ravel()
    counts = np.bincount(groups, minlength=rows * width)
    held = np.flatnonzero(counts)
    sizes = counts[held] + 2
    ends = np.cumsum(sizes)
    group = np.repeat(np.arange(len(held)), sizes)
    rank = np.arange(ends[-1]) - (ends - sizes)[group]
    real = (rank > 0) & (rank < sizes[group] - 1)
    position = np.full(ends[-1], -1)
    position[real] = np.argsort(groups, kind="stable") % big_l
    position[ends - 1] = big_l
    u = position - rank
    # keys ascend across types too (0 <= u + 1 <= L), and key + n stays
    # below the next type's keys (u + 1 + n <= 2L)
    key = group * (2 * big_l + 2) + u + 1
    first = np.searchsorted(key, key + n)
    row_len, plane = big_l + 1, (most + 1) * (big_l + 1)  # G, then k, then d
    p = rank * row_len + u + plane * real
    q = (rank + 1) * row_len + u - plane * real
    types = np.bincount(held // width, minlength=rows)
    points = np.bincount(held // width, weights=sizes, minlength=rows)
    return first, ends[group], p, q, points.astype(np.int64), types


def _missed_sums(arrs, tables, n: int, most: int):
    """For each raveled ``_missed_table`` of ``tables``, each text's sum
    of its terms over every pair of points of one type with G >= n (only
    those hold a window); and each text's type count.  Each text's terms
    are one ``reduceat`` segment in (type, rank, partner) order, so its
    sum does not depend on the texts around it: texts go to a pass
    together while their tokens fit ``_PAIR_BUDGET``, and their pairs go
    in runs of whole texts that fit it (a text alone where it does not)."""
    big_l = len(arrs[0])
    missed = [[] for _ in tables]
    types = []
    per_pass = max(1, _PAIR_BUDGET // big_l)
    for start in range(0, len(arrs), per_pass):
        first, stop, p, q, points, row_types = _type_points(
            np.stack(arrs[start:start + per_pass]), n, most)
        types.extend(row_types.tolist())
        partners = stop - first
        point_end = np.cumsum(points)
        pairs = np.add.reduceat(partners, point_end - points)
        pair_end = np.cumsum(pairs)
        text = 0
        while text < len(points):
            base = pair_end[text] - pairs[text]
            last = max(text + 1, int(np.searchsorted(
                pair_end, base + _PAIR_BUDGET, side="right")))
            lo, hi = point_end[text] - points[text], point_end[last - 1]
            counts = partners[lo:hi]
            j = np.repeat(first[lo:hi] - (np.cumsum(counts) - counts), counts)
            j += np.arange(len(j))
            flat = p[j] - np.repeat(q[lo:hi], counts)
            segments = pairs[text:last]
            # no pair holds a window where every type fills more than
            # L - n tokens, and ``reduceat`` takes no empty segment
            held_pairs = segments > 0
            heads = (np.cumsum(segments) - segments)[held_pairs]
            for table, out in zip(tables, missed):
                sums = np.zeros(len(segments))
                if heads.size:
                    sums[held_pairs] = np.add.reduceat(table[flat], heads)
                out.extend(sums.tolist())
            text = last
    return missed, types


def _ordered_window_cells(arrs, sizes, spec) -> list:
    """The exact ordered-random MATTR(n) cell (n = ``spec.n``) of each text
    at each sample length m of ``sizes``, ``out[j][t]``: (V * W - missed) /
    (n * W) with W = m - n + 1 windows, V types, and ``missed`` the
    expected count of (window, type) pairs where the window misses the
    type, from ``_missed_sums``.  The lengths go in groups whose tables fit
    ``_TABLE_BUDGET`` (one length alone where its table does not), and
    each group finds the pairs anew, so a run holds at most one group's
    tables."""
    n, big_l = spec.n, len(arrs[0])
    most = max(int(np.bincount(arr).max()) for arr in arrs)
    per_group = max(1, _TABLE_BUDGET // (3 * (most + 1) * (big_l + 1)))
    cells = []
    for at in range(0, len(sizes), per_group):
        group = sizes[at:at + per_group]
        missed, types = _missed_sums(
            arrs, [_missed_table(big_l, m, n, most).ravel() for m in group],
            n, most)
        for m, out in zip(group, missed):
            windows = m - n + 1
            cells.append([(v * windows - x) / (n * windows)
                          for v, x in zip(types, out)])
    return cells


def _expected_cells(formula, arrs, sizes, spec) -> list:
    """``formula`` of the expected type count of an m-sample and of m, for
    each m of ``sizes`` and every text at once.  HD-D(m) is its TTR."""
    big_l = len(arrs[0])
    expected = [[] for _ in sizes]
    for start in range(0, len(arrs), _BLOCK):
        counts = _count_matrix(np.stack(arrs[start:start + _BLOCK]))
        for out, types in zip(expected, _expected_types(counts, big_l, sizes)):
            out.extend(types)
    return [[formula(t, m) for t in col] for m, col in zip(sizes, expected)]


def _alternating_types(arrs, k: int, n: int, step: int) -> list:
    """The expected type count of each text's alternating sample, which
    takes one uniform token from each k-token snippet independently,
    summed over its windows of n consecutive snippets, one starting every
    ``step`` snippets.  A window misses type t with probability prod (1 -
    C[t, s]/k) over the snippets s of t in it, C[t, s] counting t in s.
    Snippet s lies in the contiguous range of windows from ceil((s - n +
    1)/step) to floor(s/step), so as the window slides, t's snippets in it
    change only where a window edge crosses one of them.  Each type's
    windows thus fall into runs, each holding a contiguous range of the
    type's (type, snippet) cells, and a text's total is the sum over its
    runs of (run length) x (1 - product), the product's log a segmented
    sum (``reduceat``) of log1p(-C/k) over the run's cells: -inf, and a
    term of exactly 1, where a snippet holds t alone.  Texts go to a pass
    together while their tokens fit ``_PAIR_BUDGET``.  A text's total is a
    segmented sum of its own runs' terms, in (type, window) order, so it
    does not depend on the texts around it."""
    n_snip = len(arrs[0]) // k
    windows = (n_snip - n) // step + 1
    used = ((windows - 1) * step + n) * k  # the tokens some window holds
    with np.errstate(divide="ignore"):
        log_share = np.log1p(-np.arange(k + 1) / k)
    totals = []
    per_pass = max(1, _PAIR_BUDGET // len(arrs[0]))
    for start in range(0, len(arrs), per_pass):
        codes = np.stack([arr[:used] for arr in arrs[start:start + per_pass]])
        rows, width = len(codes), int(codes.max()) + 1
        span = 2 * (windows + 1)  # the bound keys of one (row, type)
        # int32 keys where they fit, which halves the time of the sorts
        big = rows * width * max(span, n_snip) >= 2**31
        dtype = np.int64 if big else np.int32
        groups = codes.astype(dtype)  # (row, type)
        groups += np.arange(0, rows * width, width, dtype=dtype)[:, None]
        groups *= n_snip
        groups += np.arange(used, dtype=dtype) // k
        cells, counts = np.unique(groups, return_counts=True)
        group, snippet = np.divmod(cells, n_snip)
        # each cell enters its first window and leaves after its last; a
        # run starts at each bound and holds the cells entered and not yet
        # left, a flag bit putting leaves before enters at a tie
        group *= span
        first = np.maximum(-((n - 1 - snippet) // step), 0)
        last = np.minimum(snippet // step, windows - 1)
        bounds = np.concatenate([group + 2 * first + 1, group + 2 * last + 2])
        bounds.sort()
        entered = np.cumsum(bounds & 1)
        left = np.arange(1, len(bounds) + 1) - entered
        bounds >>= 1
        length = np.diff(bounds)
        run = np.flatnonzero((length > 0) & (entered[:-1] > left[:-1]))
        logs = np.append(log_share[counts], 0.0)
        edges = np.stack([left[run], entered[run]], axis=1).ravel()
        absent = np.add.reduceat(logs, edges)[::2]
        texts = bounds[run] // ((windows + 1) * width)
        totals.extend(np.add.reduceat(
            length[run] * -np.expm1(absent),
            np.searchsorted(texts, np.arange(rows))).tolist())
    return totals


def _dealt_draw(k, rng, arr, b):
    """The k samples of each of b iterations, iteration by iteration: the
    k-token snippets of ``arr`` are permuted within, and sample j takes the
    j-th token of every permuted snippet."""
    n_snippets = len(arr) // k
    positions = np.tile(np.arange(k), (b * n_snippets, 1))
    rng.permuted(positions, axis=1, out=positions)
    positions = (positions.reshape(b, n_snippets, k)
                 + np.arange(n_snippets)[:, None] * k)
    yield 0, arr[positions.transpose(0, 2, 1).reshape(b * k, n_snippets)]


def _dealt_columns(arrs, ks, spec, seeds, iterations) -> list:
    """The Monte Carlo columns of alternating conditions ``ks``, each
    dealing from its stream ("alternating", k)."""
    return [_monte_carlo(arrs, seeds, ("alternating", k), [k], iterations,
                         spec, evaluate_specs, partial(_dealt_draw, k))[0]
            for k in ks]


def _alternating_cells(formula, windows, arrs, ks, spec) -> list:
    """``formula`` of the expected type count summed over the windows of
    each text's alternating sample at each k of ``ks``, and of their total
    length.  ``windows``: "whole" (the sample), "sliding" (of n = spec.n
    snippets, one at each snippet) or "disjoint" (complete segments)."""
    columns = []
    for k in ks:
        length = len(arrs[0]) // k
        n = length if windows == "whole" else spec.n
        step = n if windows == "disjoint" else 1
        total = n * ((length - n) // step + 1)
        columns.append([formula(t, total)
                        for t in _alternating_types(arrs, k, n, step)])
    return columns


@dataclass(frozen=True)
class Method:
    """One length-reduction method, as data.  A condition c of a
    ``divides`` method names samples of floor(L/c) tokens; otherwise c is
    the sample length itself.  ``columns`` scores each condition in one of
    three ways:

    - once (``scored_once``), where the method has no ``draw`` or the
      sample is the whole truncation: the mean score of its c segments of
      floor(L/c) tokens under parallel, of the truncation otherwise
      (``_fixed_column``);
    - exactly, where ``exact`` maps the index kind to ``cells(arrs,
      conditions, spec)``;
    - by ``draw(arrs, conditions, spec, seeds, iterations)``, Monte Carlo
      means (``_monte_carlo``).

    The first two draw no samples.  MTTRRS and MTTRSS draw the segments of
    condition c from the stream (``stream``, c, "segments")."""

    stream: str
    divides: bool
    draw: Optional[Callable]
    exact: dict

    def sample_length(self, truncate_to: int, condition: int) -> int:
        return truncate_to // condition if self.divides else condition

    def default_conditions(self, truncate_to: int) -> tuple:
        """Samples of L, L/2, L/3 and L/4 tokens."""
        return tuple(d if self.divides else truncate_to // d for d in (1, 2, 3, 4))

    def scored_once(self, truncate_to: int, condition: int) -> bool:
        return (self.draw is None
                or self.sample_length(truncate_to, condition) == truncate_to)

    def columns(self, arrs, conditions, iterations, spec, seeds) -> list:
        """One list of scores per condition for the encoded L-truncations
        ``arrs``, where ``seeds[t](*key)`` seeds text t's stream under
        ``key``."""
        big_l = len(arrs[0])
        columns, sampled = {}, []
        for c in dict.fromkeys(conditions):
            if not self.scored_once(big_l, c):
                sampled.append(c)
                continue
            d = c if self.divides else 1
            columns[c] = _fixed_column(
                [arr[:big_l // d * d].reshape(d, -1) for arr in arrs], seeds,
                (self.stream, c, "segments"), spec)
        if sampled and spec.kind in self.exact:
            columns.update(zip(sampled,
                               self.exact[spec.kind](arrs, sampled, spec)))
        elif sampled:
            columns.update(zip(sampled, self.draw(arrs, sampled, spec, seeds,
                                                  iterations)))
        return [columns[c] for c in conditions]


# The table of exact cells (layouts 5, 7 and 8).  TTR and Guiraud are linear
# in the type count; MTTRSS draws its starts uniformly: its mean is MATTR's.
_EXPECTED_CELLS = {IndexKind.TTR: partial(_expected_cells, _ttr),
                   IndexKind.GUIRAUD_R: partial(_expected_cells, _guiraud_r)}
METHODS = {
    "parallel": Method("parallel", divides=True, draw=None, exact={}),
    "random": Method("random", divides=False,
                     draw=partial(_random_draw, False), exact=_EXPECTED_CELLS),
    "ordered_random": Method(
        "random", divides=False, draw=partial(_random_draw, True),
        exact={**_EXPECTED_CELLS, IndexKind.MATTR: _ordered_window_cells,
               IndexKind.MTTRSS: _ordered_window_cells}),
    "alternating": Method("alternating", divides=True, draw=_dealt_columns,
                          exact={
        IndexKind.TTR: partial(_alternating_cells, _ttr, "whole"),
        IndexKind.GUIRAUD_R: partial(_alternating_cells, _guiraud_r, "whole"),
        IndexKind.MATTR: partial(_alternating_cells, _ttr, "sliding"),
        IndexKind.MSTTR: partial(_alternating_cells, _ttr, "disjoint"),
        IndexKind.MTTRSS: partial(_alternating_cells, _ttr, "sliding")}),
}


def _once_estimator(kind: IndexKind) -> str:
    """A cell scored once is one draw of a kind that draws s segments."""
    return "single_draw" if "s" in INDEXES[kind].defaults else "exact"


def _check(texts, config: SamplingConfig, spec: IndexSpec) -> None:
    """Refuse a sample length below the index minimum, then a text shorter
    than the truncation, naming it; the config checked the rest."""
    needed = min_tokens_required(spec)
    for c in config.conditions:
        length = METHODS[config.method].sample_length(config.truncate_to, c)
        if length < needed:
            raise SamplingError(
                f"condition {c}: sample length {length} below the "
                f"{spec.kind.value} minimum of {needed}"
            )
    for text in texts:
        n_tokens = len(tokens_of(text))
        if config.truncate_to > n_tokens:
            name = f"text {text.id!r}: " if isinstance(text, Text) else ""
            raise SamplingError(f"{name}text shorter than truncation length "
                                f"({n_tokens} < {config.truncate_to})")


def _score_texts(texts, config: SamplingConfig, spec: IndexSpec) -> np.ndarray:
    """The scores of checked texts, a row per text and a column per
    condition."""
    arrs = [_encode(tokens_of(text)[:config.truncate_to]) for text in texts]
    seeds = [partial(stream_seed, config.master_seed,
                     text.id if isinstance(text, Text) else None)
             for text in texts]
    columns = METHODS[config.method].columns(
        arrs, config.conditions, config.iterations, spec, seeds)
    return np.array(columns, dtype=float).reshape(len(columns), len(arrs)).T


def _row(text, config: SamplingConfig, spec: IndexSpec) -> list:
    """``run_method``'s row of one text, checked as it checks a corpus."""
    _check([text], config, spec)
    return _score_texts([text], config, spec)[0].tolist()


def parallel_sampling(text, truncate_to: int, divisors, spec: IndexSpec,
                      master_seed: int = 0):
    """Score the L-token truncation against means over its d-way contiguous
    splits (segment length floor(L/d), trailing remainder dropped), as
    ``run_method`` checks and scores it."""
    return _row(text, SamplingConfig("parallel", truncate_to, divisors, 1,
                                     master_seed), spec)


def random_sampling(text, truncate_to, lengths, iterations, master_seed, spec):
    """Mean score of the first m tokens of fresh uniform permutations, as
    ``run_method`` checks and scores it."""
    return _row(text, SamplingConfig("random", truncate_to, lengths,
                                     iterations, master_seed), spec)


def ordered_random_sampling(text, truncate_to, lengths, iterations, master_seed, spec):
    """Same samples as random_sampling, restored to original text order, as
    ``run_method`` checks and scores it."""
    return _row(text, SamplingConfig("ordered_random", truncate_to, lengths,
                                     iterations, master_seed), spec)


def alternating_sampling(text, truncate_to, k_values, iterations, master_seed, spec):
    """Generalized split-half: distribute one token per k-snippet into k
    order-preserving samples; average over samples and iterations.

    Each condition k uses the first floor(L/k)*k tokens so that all its
    samples have exactly floor(L/k) tokens, as in ``run_method``.
    """
    return _row(text, SamplingConfig("alternating", truncate_to, k_values,
                                     iterations, master_seed), spec)


def run_method(
    corpus: Corpus, config: SamplingConfig, spec: IndexSpec, threads: int = 1
) -> ScoreMatrix:
    """Apply one evaluation method to every text: rows = texts, columns =
    conditions.  ``threads`` (an integer >= 1), every text and every sample
    length against the index minimum are checked before any is scored;
    ``threads > 1`` scores contiguous runs of texts in worker processes,
    each packed as one corpus would be."""
    check_count("threads", threads, SamplingError)
    _check(corpus, config, spec)
    score = partial(_score_texts, config=config, spec=spec)
    texts = list(corpus)
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        runs = [texts[len(texts) * i // threads:len(texts) * (i + 1) // threads]
                for i in range(threads)]
        runs = [r for r in runs if r]
        # one worker per run: a pool forks all its workers at once
        with ProcessPoolExecutor(max_workers=len(runs)) as pool:
            values = np.concatenate(list(pool.map(score, runs)))
    else:
        values = score(texts)
    method = METHODS[config.method]
    estimators = [
        _once_estimator(spec.kind)
        if method.scored_once(config.truncate_to, c)
        else "exact" if spec.kind in method.exact else "monte_carlo"
        for c in config.conditions]
    drawn = "monte_carlo" in estimators
    return ScoreMatrix(
        row_ids=[t.id for t in corpus],
        col_labels=config.col_labels(),
        values=values,
        meta={
            "method": config.method,
            "index": spec.label(),
            "truncate_to": config.truncate_to,
            "conditions": list(config.conditions),
            "iterations": config.iterations if drawn else None,
            "master_seed": config.master_seed,
            "stream_layout": STREAM_LAYOUT,
            "estimators": estimators,
            "estimator": "monte_carlo" if drawn else "exact",
        },
    )


def parameter_sweep(
    corpus: Corpus,
    kind: IndexKind,
    param_values: Optional[Sequence] = None,
    master_seed: int = 0,
    s: Optional[int] = None,
) -> ScoreMatrix:
    """Score untruncated texts for each parameter value (one column each).

    MTLD sweeps the TTR factor (default 0.66..0.75); the other indices
    sweep the sample/segment/window length.  ``s`` is the segment count of
    an MTTRRS or MTTRSS sweep, and a kind that draws no segments does not
    use it.  Each value of ``param_values``, any sequence, makes its
    ``IndexSpec`` uncast, so all are checked before any text is scored.  A text is
    scored under all the values in one call (``indices.evaluate_specs``),
    which does its value-independent work once; each (text, value) still
    has its own stream.  A ``ragged`` kind (MTLD), which draws nothing,
    scores every text in that one call.
    """
    kind = index_kind(kind)
    index = INDEXES[kind]
    master_seed = check_count("master seed", master_seed, SamplingError,
                              least=None)
    if index.sweep is None:
        raise SamplingError(f"{kind.value} has no parameter to sweep")
    if param_values is None:
        param_values = index.sweep_values
    if len(param_values) == 0:
        raise SamplingError("param_values required for this index")

    fixed = {"s": s} if "s" in index.defaults else {}
    specs = [IndexSpec(kind, **fixed, **{index.sweep: p}) for p in param_values]
    needed = [min_tokens_required(spec) for spec in specs]
    shortest = min(map(len, corpus))
    too_big = [p for p, need in zip(param_values, needed) if need > shortest]
    if too_big:
        bad = [t.id for t in corpus if len(t) < max(needed)]
        raise SamplingError(
            f"parameter values {too_big} exceed the length of texts {bad}"
        )

    rows = [_encode(text.tokens) for text in corpus]
    if index.ragged:
        values = np.array(evaluate_specs(rows, specs, [None] * len(specs))).T
    else:
        values = np.empty((len(corpus), len(param_values)))
        for i, (text, row) in enumerate(zip(corpus, rows)):
            seeds = [stream_seed(master_seed, text.id, "sweep", str(p))
                     for p in param_values]
            scores = evaluate_specs(row[None], specs, seeds)
            values[i] = [column[0] for column in scores]
    return ScoreMatrix(
        row_ids=[t.id for t in corpus],
        col_labels=[str(p) for p in param_values],
        values=values,
        meta={
            "method": "parameter_sweep",
            "index": kind.value,
            "param_values": [float(p) for p in param_values],
            "master_seed": master_seed,
            "stream_layout": STREAM_LAYOUT,
            "estimators": [_once_estimator(kind)] * len(param_values),
        },
    )
