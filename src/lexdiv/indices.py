"""The ten lexical-diversity indices, per-token weights, and the IndexSpec API.

Index functions accept either a ``corpus.Text`` or any sequence of hashable
tokens.  All of them are deterministic given their parameters; the two
stochastic indices (MTTRRS, MTTRSS) additionally take a seed or an explicit
numpy Generator.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from typing import Callable, Optional, Union

import numpy as np

from .corpus import tokens_of
from .numerics import hypergeom_presence


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


@dataclass(frozen=True)
class IndexSpec:
    """Everything needed to score a text deterministically (plus a seed for
    the stochastic indices)."""

    kind: IndexKind
    n: Optional[int] = None
    s: Optional[int] = None
    factor: Optional[float] = None
    maas_variant: str = "natural_log_a"
    seed: Optional[int] = None

    def with_defaults(self) -> "IndexSpec":
        missing = {name: value for name, value in INDEXES[self.kind].defaults.items()
                   if getattr(self, name) is None}
        return replace(self, **missing) if missing else self

    def validate(self):
        if self.n is not None and self.n < 1:
            raise IndexError_(f"n must be >= 1, got {self.n}")
        if self.s is not None and self.s < 1:
            raise IndexError_(f"s must be >= 1, got {self.s}")
        if self.factor is not None and not (0.0 < self.factor < 1.0):
            raise IndexError_(f"factor must be in (0, 1), got {self.factor}")
        if self.maas_variant not in MAAS_VARIANTS:
            raise IndexError_(f"unknown maas variant {self.maas_variant!r}")

    def label(self) -> str:
        spec = self.with_defaults()
        # the default Maas variant goes unnamed, so default labels stay short
        variant = ("" if spec.maas_variant == MAAS_VARIANTS[0]
                   else f"[{spec.maas_variant}]")
        return INDEXES[spec.kind].label.format(
            kind=spec.kind.value, n=spec.n, s=spec.s, factor=spec.factor,
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


def _counts(toks):
    if isinstance(toks, np.ndarray):
        return Counter(toks.tolist())
    return Counter(toks)


def _n_types(toks) -> int:
    if isinstance(toks, np.ndarray):
        return int(np.unique(toks).size)
    return len(set(toks))


def _ttr(v: int, n: int) -> float:
    if n < 1:
        raise IndexError_("empty token sequence")
    return v / n


def _guiraud_r(v: int, n: int) -> float:
    if n < 1:
        raise IndexError_("empty token sequence")
    return v / math.sqrt(n)


def _herdan_c(v: int, n: int) -> float:
    if n < 2:
        raise IndexError_("undefined for single token")
    if v == 1:
        return 0.0
    return math.log(v) / math.log(n)


def _maas_a(v: int, n: int, variant: str = "natural_log_a") -> float:
    if n < 2:
        raise IndexError_("undefined for single token")
    if variant == "natural_log_a":
        return math.sqrt((math.log(n) - math.log(v)) / math.log(n) ** 2)
    if variant == "base10_a_squared":
        return (math.log10(n) - math.log10(v)) / math.log10(n) ** 2
    raise IndexError_(f"unknown maas variant {variant!r}")


def ttr(text) -> float:
    toks = tokens_of(text)
    return _ttr(_n_types(toks), len(toks))


def guiraud_r(text) -> float:
    toks = tokens_of(text)
    return _guiraud_r(_n_types(toks), len(toks))


def herdan_c(text) -> float:
    toks = tokens_of(text)
    return _herdan_c(_n_types(toks), len(toks))


def maas_a(text, variant: str = "natural_log_a") -> float:
    toks = tokens_of(text)
    return _maas_a(_n_types(toks), len(toks), variant)


@lru_cache(maxsize=1 << 18)
def _presence(n_tokens: int, freq: int, sample: int) -> float:
    # hot path of hdd(); cached because sampling harnesses re-query the
    # same (N, f, n) triples millions of times
    return hypergeom_presence(n_tokens, freq, sample)


def hdd(text, n: int) -> float:
    """Expected TTR of a size-n sample under without-replacement sampling."""
    toks = tokens_of(text)
    big_n = len(toks)
    if n < 1:
        raise IndexError_(f"n must be >= 1, got {n}")
    if n > big_n:
        raise IndexError_(f"sample exceeds text length ({n} > {big_n})")
    # fsum keeps the result independent of token (hence summation) order
    total = math.fsum(
        n_with_freq * _presence(big_n, freq, n)
        for freq, n_with_freq in Counter(_counts(toks).values()).items()
    )
    return total / n


def gini_simpson(text) -> float:
    """Probability that two tokens drawn without replacement differ in type."""
    toks = tokens_of(text)
    big_n = len(toks)
    if big_n < 2:
        raise IndexError_("needs at least two tokens")
    same = sum(f * (f - 1) for f in _counts(toks).values())
    return 1.0 - same / (big_n * (big_n - 1))


def _as_generator(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    if seed_or_rng is None:
        raise IndexError_("stochastic index needs a seed or Generator")
    return np.random.default_rng(seed_or_rng)


def mttrrs(text, n: int = 50, s: int = 10, seed=None) -> float:
    """Mean TTR over s with-replacement samples of n tokens."""
    toks = tokens_of(text)
    if n < 1 or s < 1:
        raise IndexError_("n and s must be >= 1")
    rng = _as_generator(seed)
    arr = np.asarray(toks)
    total = 0
    for _ in range(s):
        draw = arr[rng.integers(0, len(arr), size=n)]
        total += np.unique(draw).size
    return total / (s * n)


def _encode(tokens) -> np.ndarray:
    """Map tokens to small ints; index values only depend on the pattern."""
    mapping: dict = {}
    return np.array([mapping.setdefault(tok, len(mapping)) for tok in tokens],
                    dtype=np.int64)


def _prev_occurrence(codes: np.ndarray) -> np.ndarray:
    """For each row of a code matrix, the position of the previous
    occurrence of each position's code in that row, or -1."""
    order = np.argsort(codes, axis=1, kind="stable")
    ranked = np.take_along_axis(codes, order, axis=1)
    repeat = ranked[:, 1:] == ranked[:, :-1]
    prev_ranked = np.full(codes.shape, -1, dtype=np.int64)
    prev_ranked[:, 1:][repeat] = order[:, :-1][repeat]
    prev = np.empty_like(prev_ranked)
    np.put_along_axis(prev, order, prev_ranked, axis=1)
    return prev


def _mattr_rows(codes: np.ndarray, n: int) -> np.ndarray:
    """MATTR of each row, counting types per window exactly: position i is
    the first occurrence of its type in the windows starting from
    max(i-n+1, prev[i]+1) to min(i, N-n) (Covington & McFall 2010)."""
    big_n = codes.shape[1]
    if n < 1:
        raise IndexError_(f"n must be >= 1, got {n}")
    if n > big_n:
        raise IndexError_(f"window exceeds text length ({n} > {big_n})")
    pos = np.arange(big_n)
    first = np.maximum(pos - n + 1, _prev_occurrence(codes) + 1)
    last = np.minimum(pos, big_n - n)
    total = np.maximum(last - first + 1, 0).sum(axis=1)
    return total / (n * (big_n - n + 1))


def _msttr_rows(codes: np.ndarray, n: int) -> np.ndarray:
    """MSTTR of each row: a position counts when no earlier position of its
    complete segment holds its type."""
    big_n = codes.shape[1]
    if n < 1:
        raise IndexError_(f"n must be >= 1, got {n}")
    if n > big_n:
        raise IndexError_(f"no complete segment ({n} > {big_n})")
    used = big_n // n * n
    pos = np.arange(used)
    first = _prev_occurrence(codes[:, :used]) < pos - pos % n
    return first.sum(axis=1) / used


def _codes_row(text) -> np.ndarray:
    toks = tokens_of(text)
    return (toks if isinstance(toks, np.ndarray) else _encode(toks))[None, :]


def mattr(text, n: int) -> float:
    """Mean TTR over all length-n windows advancing one token at a time."""
    return float(_mattr_rows(_codes_row(text), n)[0])


def msttr(text, n: int) -> float:
    """Mean TTR over disjoint consecutive length-n segments, remainder dropped."""
    return float(_msttr_rows(_codes_row(text), n)[0])


def mttrss(text, n: int = 50, s: int = 10, seed=None) -> float:
    """Mean TTR over s contiguous segments with uniformly drawn starts."""
    toks = tokens_of(text)
    big_n = len(toks)
    if n < 1 or s < 1:
        raise IndexError_("n and s must be >= 1")
    if n > big_n:
        raise IndexError_(f"segment exceeds text length ({n} > {big_n})")
    rng = _as_generator(seed)
    starts = rng.integers(0, big_n - n + 1, size=s)
    total = sum(_n_types(toks[start:start + n]) for start in starts)
    return total / (s * n)


def _mtld_pass(toks, factor: float, min_segment: int) -> float:
    factors = 0.0
    seen = set()
    count = 0
    running_ttr = 1.0
    for tok in toks:
        count += 1
        seen.add(tok)
        running_ttr = len(seen) / count
        if count >= min_segment and running_ttr < factor:
            factors += 1.0
            seen.clear()
            count = 0
            running_ttr = 1.0
    if count > 0:
        factors += (1.0 - running_ttr) / (1.0 - factor)
    return factors


def mtld(text, factor: float = 0.72, min_segment: int = 1) -> float:
    score, _ = mtld_detailed(text, factor, min_segment)
    return score


def mtld_detailed(text, factor: float = 0.72, min_segment: int = 1):
    """Bidirectional MTLD.  Returns ``(score, flags)``.

    The forward pass grows a segment token by token and counts a full
    factor each time the running TTR drops below ``factor``; the tail
    contributes a partial factor of (1 - TTR) / (1 - factor).  The same is
    done on the reversed sequence and the two lengths are averaged.  When
    the TTR never drops in either direction the score is the text length,
    flagged ``undefined_factors``.

    ``min_segment`` > 1 delays the threshold check until a segment holds
    that many tokens (block-start variant).
    """
    toks = tokens_of(text)
    if len(toks) < 1:
        raise IndexError_("empty token sequence")
    if not (0.0 < factor < 1.0):
        raise IndexError_(f"factor must be in (0, 1), got {factor}")
    if isinstance(toks, np.ndarray):
        toks = toks.tolist()
    fwd = _mtld_pass(toks, factor, min_segment)
    bwd = _mtld_pass(toks[::-1], factor, min_segment)
    flags = ()
    scores = []
    for factors in (fwd, bwd):
        if factors == 0.0:
            flags = ("undefined_factors",)
            scores.append(float(len(toks)))
        else:
            scores.append(len(toks) / factors)
    return (scores[0] + scores[1]) / 2.0, flags


def _count_matrix(codes: np.ndarray) -> np.ndarray:
    """counts[b, c]: occurrences of code c in row b."""
    rows, width = codes.shape[0], int(codes.max(initial=-1)) + 1
    offsets = np.arange(rows)[:, None] * width
    return np.bincount((codes + offsets).ravel(),
                       minlength=rows * width).reshape(rows, width)


def _type_count_rows(formula, codes: np.ndarray) -> list:
    """Score each row by its type count through the scalar formula, which
    runs once per distinct count."""
    n_types = np.count_nonzero(_count_matrix(codes), axis=1)
    values, row_value = np.unique(n_types, return_inverse=True)
    scores = np.array([formula(int(v), codes.shape[1]) for v in values])
    return scores[row_value].tolist()


def _hdd_rows(codes: np.ndarray, n: int) -> list:
    """HD-D of each row, summing the same terms as hdd(): for each
    frequency f present, (types with frequency f) x presence(f)."""
    big_n = codes.shape[1]
    if n > big_n:
        raise IndexError_(f"sample exceeds text length ({n} > {big_n})")
    coc = _count_matrix(_count_matrix(codes))
    freqs = np.flatnonzero(coc[:, 1:].any(axis=0)) + 1
    presence = np.array([_presence(big_n, int(f), n) for f in freqs])
    terms = coc[:, freqs] * presence
    return [math.fsum(row) / n for row in terms.tolist()]


@dataclass(frozen=True)
class IndexDef:
    """Everything the package knows about one index kind.

    ``score(text, spec, rng)`` gives ``(score, flags)`` for a resolved spec;
    ``rows(codes, spec)`` scores each row of a code matrix bit for bit as
    ``score`` would, and is None for the indices that draw from a stream
    while scoring.  ``label`` is formatted with the spec's kind, n, s,
    factor and variant (the non-default Maas variant); ``min_tokens`` is a
    count or "n"; ``weights(n_tokens, n)`` gives per-position weights.
    """

    score: Callable
    rows: Optional[Callable]
    label: str = "{kind}"
    min_tokens: Union[int, str] = 1
    order_free: bool = False
    defaults: dict = field(default_factory=dict)
    sweep: Optional[str] = None
    sweep_values: tuple = ()
    weights: Optional[Callable] = None

    @property
    def sweep_type(self) -> type:
        return float if self.sweep == "factor" else int


MTLD_FACTOR_SWEEP = tuple(round(0.66 + 0.01 * i, 2) for i in range(10))

INDEXES = {
    IndexKind.TTR: IndexDef(
        score=lambda text, spec, rng: (ttr(text), ()),
        rows=lambda codes, spec: _type_count_rows(_ttr, codes),
        order_free=True, weights=lambda big_n, n: [1.0 / big_n] * big_n),
    IndexKind.GUIRAUD_R: IndexDef(
        score=lambda text, spec, rng: (guiraud_r(text), ()),
        rows=lambda codes, spec: _type_count_rows(_guiraud_r, codes),
        order_free=True),
    IndexKind.HERDAN_C: IndexDef(
        score=lambda text, spec, rng: (herdan_c(text), ()),
        rows=lambda codes, spec: _type_count_rows(_herdan_c, codes),
        min_tokens=2, order_free=True),
    IndexKind.MAAS_A: IndexDef(
        score=lambda text, spec, rng: (maas_a(text, spec.maas_variant), ()),
        rows=lambda codes, spec: _type_count_rows(
            partial(_maas_a, variant=spec.maas_variant), codes),
        label="{kind}{variant}", min_tokens=2, order_free=True),
    IndexKind.MTTRRS: IndexDef(
        score=lambda text, spec, rng: (mttrrs(text, spec.n, spec.s, rng), ()),
        rows=None,
        label="{kind}[n={n},s={s}]", defaults={"n": 50, "s": 10}, sweep="n"),
    IndexKind.HDD: IndexDef(
        score=lambda text, spec, rng: (hdd(text, spec.n), ()),
        rows=lambda codes, spec: _hdd_rows(codes, spec.n),
        label="{kind}[n={n}]", min_tokens="n", order_free=True,
        defaults={"n": 42}, sweep="n"),
    IndexKind.MATTR: IndexDef(
        score=lambda text, spec, rng: (mattr(text, spec.n), ()),
        rows=lambda codes, spec: _mattr_rows(codes, spec.n).tolist(),
        label="{kind}[n={n}]", min_tokens="n", defaults={"n": 50}, sweep="n",
        weights=lambda big_n, n: [float(min(i, n, big_n - i + 1, big_n - n + 1))
                                  for i in range(1, big_n + 1)]),
    IndexKind.MSTTR: IndexDef(
        score=lambda text, spec, rng: (msttr(text, spec.n), ()),
        rows=lambda codes, spec: _msttr_rows(codes, spec.n).tolist(),
        label="{kind}[n={n}]", min_tokens="n", defaults={"n": 50}, sweep="n",
        weights=lambda big_n, n: [1.0 if i <= big_n // n * n else 0.0
                                  for i in range(1, big_n + 1)]),
    IndexKind.MTTRSS: IndexDef(
        score=lambda text, spec, rng: (mttrss(text, spec.n, spec.s, rng), ()),
        rows=None,
        label="{kind}[n={n},s={s}]", min_tokens="n",
        defaults={"n": 50, "s": 10}, sweep="n",
        weights=lambda big_n, n: [min(i, n, big_n - n + 1, big_n - i + 1)
                                  / (big_n - n + 1) for i in range(1, big_n + 1)]),
    IndexKind.MTLD: IndexDef(
        score=lambda text, spec, rng: mtld_detailed(text, spec.factor),
        rows=lambda codes, spec: [mtld_detailed(row, spec.factor)[0]
                                  for row in codes.tolist()],
        label="{kind}[factor={factor}]", defaults={"factor": 0.72},
        sweep="factor", sweep_values=MTLD_FACTOR_SWEEP),
}

# Indices invariant under any permutation of the tokens.
GLOBAL_KINDS = frozenset(kind for kind, index in INDEXES.items()
                         if index.order_free)


def token_weights(kind: IndexKind, n_tokens: int, n: Optional[int] = None):
    """Per-position weight of each token in an index score.

    MATTR weights are window-membership counts; MTTRSS weights are segment
    selection probabilities; MSTTR is a 0/1 mask for the complete segments;
    TTR is uniform.
    """
    kind = IndexKind(kind)
    index = INDEXES[kind]
    if index.weights is None:
        raise IndexError_(f"no weight definition for {kind.value}")
    if index.min_tokens == "n":
        if n is None:
            raise IndexError_(f"{kind.value} weights need a segment length n")
        if n > n_tokens:
            raise IndexError_(f"n exceeds text length ({n} > {n_tokens})")
    return index.weights(n_tokens, n)


def evaluate(text, spec: IndexSpec, rng=None):
    """Score a text under a spec.  Returns ``(score, flags)``.

    ``rng`` overrides ``spec.seed`` for the stochastic indices, which lets
    a sampling harness hand each evaluation its own derived stream.
    """
    spec = spec.with_defaults()
    spec.validate()
    return INDEXES[spec.kind].score(text, spec, spec.seed if rng is None else rng)


def evaluate_rows(codes: np.ndarray, spec: IndexSpec) -> list:
    """Score every row of a matrix of small non-negative token codes, each
    row one text; equal to ``evaluate`` row by row, bit for bit.

    Not for the stochastic indices, which draw from a stream per score.
    """
    spec = spec.with_defaults()
    spec.validate()
    rows = INDEXES[spec.kind].rows
    if rows is None:
        raise IndexError_(
            f"{spec.kind.value} draws from a stream; score it with evaluate")
    return rows(codes, spec)


def min_tokens_required(spec: IndexSpec) -> int:
    """Smallest text length the index spec can score."""
    spec = spec.with_defaults()
    need = INDEXES[spec.kind].min_tokens
    return spec.n if need == "n" else need
