"""Correctness checks of the CLI outputs, computed apart from `lexdiv`.

Nothing here imports `lexdiv` or compares against stored output.  The
references are:

* exact rationals with integer `math.comb` arithmetic: E[TTR of an
  m-sample] = (1/m) sum_types [1 - C(L-f, m)/C(L, m)], and the length
  invariance of HD-D (McCarthy & Jarvis 2010): E[HD-D(n) of an m-sample] =
  HD-D(n) of the L-truncation for m >= n;
* MATTR, MTLD and MTTRSS written from their definitions;
* Monte Carlo estimates drawn with the benchmark's own generator;
* a numpy two-way decomposition and `scipy.stats.f` for ICC(2,1) and the
  repeated-measures ANOVA.

A Monte Carlo cell passes when it lies within Z standard errors of its
reference, the standard error being estimated here from the benchmark's own
draws.  Every check returns a list of failure messages.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy import stats as sps

from workloads import HDD_N, MTLD_FACTOR, MTTRSS_S, WINDOW, Plan, Run

Z = 6.0              # tolerance in Monte Carlo standard errors
SD_DRAWS = 64        # own draws per cell to estimate a random-sampling SD
MC_DRAWS = 200       # own draws per cell for the sequence-index estimates
MC_TEXTS = 8         # texts (first by id) that get an own Monte Carlo estimate
EXACT_RTOL = 1e-12   # float results of an exact rational or integer definition
HDD_ATOL = 1e-10     # HD-D through log-gamma for frequencies above 64
STATS_RTOL = 1e-7    # ICC/ANOVA against scipy's F quantiles and tails
PROFILE_COUNT = 12


@dataclass
class Matrix:
    rows: list
    cols: list
    values: np.ndarray

    def copy(self) -> "Matrix":
        return Matrix(list(self.rows), list(self.cols), self.values.copy())


def read_matrix(path) -> Matrix:
    cells, rows, cols = {}, [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["text_id", "condition", "score"]:
            raise ValueError(f"{path}: not a long-form score CSV")
        for rid, col, score in reader:
            if rid not in cells:
                rows.append(rid)
                cells[rid] = {}
            if col not in cols:
                cols.append(col)
            cells[rid][col] = float(score)
    values = np.array([[cells[r][c] for c in cols] for r in rows])
    return Matrix(rows, cols, values)


def read_outputs(out_dir: Path, p: Plan) -> dict:
    out = {"matrix": {}, "icc": {}, "profiles": {}, "sidecar": {}}
    for r in p.runs:
        base = out_dir / r.stem
        out["matrix"][r.stem] = read_matrix(f"{base}.csv")
        out["icc"][r.stem] = json.loads(Path(f"{base}.icc.json").read_text())
        out["sidecar"][r.stem] = json.loads(Path(f"{base}.csv.meta.json").read_text())
        with open(f"{base}.profiles.csv", newline="", encoding="utf-8") as fh:
            out["profiles"][r.stem] = list(csv.reader(fh))
    out["anova"] = json.loads((out_dir / "anova.json").read_text())
    return out


def _close(a, b, rtol=0.0, atol=0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def encode(tokens) -> np.ndarray:
    ids: dict = {}
    return np.array([ids.setdefault(t, len(ids)) for t in tokens], dtype=np.int64)


# ---- index definitions ---------------------------------------------------


def expected_presence(freqs, big_n: int, n: int) -> float:
    """(1/n) sum_types [1 - C(N-f, n)/C(N, n)]: the exact expected TTR of an
    n-token sample drawn without replacement, correctly rounded."""
    total = math.comb(big_n, n)
    num = sum(nf * (total - math.comb(big_n - f, n))
              for f, nf in Counter(freqs).items())
    return num / (n * total)


def window_type_total(x: np.ndarray, n: int) -> int:
    """Sum over all n-token windows of the types each holds.

    Position i is a type's first occurrence in window s exactly when
    s <= i < s + n and the previous occurrence prev[i] < s."""
    big_n = len(x)
    order = np.argsort(x, kind="stable")
    same = x[order[1:]] == x[order[:-1]]
    prev = np.full(big_n, -1)
    prev[order[1:][same]] = order[:-1][same]
    i = np.arange(big_n)
    lo = np.maximum(np.maximum(i - n + 1, prev + 1), 0)
    hi = np.minimum(i, big_n - n)
    return int(np.clip(hi - lo + 1, 0, None).sum())


def mattr_exact(x: np.ndarray, n: int) -> float:
    return window_type_total(x, n) / (n * (len(x) - n + 1))


def window_types(x, n: int) -> list:
    """Types in each n-token window, by brute force."""
    seq = list(x)
    return [len(set(seq[s:s + n])) for s in range(len(seq) - n + 1)]


def mtld_definition(x, factor: float) -> float:
    """Bidirectional MTLD with partial factors, in exact arithmetic: a
    factor ends when the running TTR of the segment drops below `factor`;
    the tail adds (1 - TTR) / (1 - factor); a direction with no factor
    scores the text length."""
    fac = Fraction(str(factor))
    seq = list(x)

    def factors(tokens):
        done, seen, count = 0, set(), 0
        for tok in tokens:
            count += 1
            seen.add(tok)
            if len(seen) * fac.denominator < fac.numerator * count:
                done, seen, count = done + 1, set(), 0
        tail = (1 - Fraction(len(seen), count)) / (1 - fac) if count else 0
        return done + tail

    scores = [Fraction(len(seq)) / f if f else Fraction(len(seq))
              for f in (factors(seq), factors(seq[::-1]))]
    return float(sum(scores) / 2)


def mttrss_draw(x: np.ndarray, n: int, s: int, rng) -> float:
    starts = rng.integers(0, len(x) - n + 1, size=s)
    return sum(len(set(x[a:a + n].tolist())) for a in starts) / (s * n)


def _sequence_score(index: str, x: np.ndarray, rng) -> float:
    if index == "mattr":
        return mattr_exact(x, WINDOW)
    if index == "mtld":
        return mtld_definition(x, MTLD_FACTOR)
    if index == "mttrss":
        return mttrss_draw(x, WINDOW, MTTRSS_S, rng)
    raise ValueError(index)


# ---- score checks --------------------------------------------------------


@lru_cache(maxsize=None)
def _presence_table(m: int, n: int, f_max: int) -> np.ndarray:
    total = math.comb(m, n)
    return np.array([0.0] + [(total - math.comb(m - f, n)) / total
                             for f in range(1, f_max + 1)])


def _random_sds(trunc: np.ndarray, m: int, rng):
    """SD of one sample's TTR and HD-D(42) over own random m-samples."""
    big_l, n_types = len(trunc), int(trunc.max()) + 1
    samples = trunc[np.argsort(rng.random((SD_DRAWS, big_l)), axis=1)[:, :m]]
    flat = (np.arange(SD_DRAWS)[:, None] * n_types + samples).ravel()
    counts = np.bincount(flat, minlength=SD_DRAWS * n_types).reshape(
        SD_DRAWS, n_types)
    ttr = (counts > 0).sum(axis=1) / m
    hdd = _presence_table(m, HDD_N, m)[counts].sum(axis=1) / HDD_N
    return {"ttr": ttr.std(ddof=1), "hdd": hdd.std(ddof=1)}


def check_random(r: Run, p: Plan, texts: dict, mat: Matrix, seed: int) -> list:
    """Every cell against its exact expectation."""
    fails = []
    rng = np.random.default_rng([seed, 1])
    for i, rid in enumerate(mat.rows):
        trunc = encode(texts[rid][:p.truncate])
        freqs = list(Counter(trunc.tolist()).values())
        for j, m in enumerate(r.conditions):
            if r.index == "ttr":
                exact = expected_presence(freqs, p.truncate, m)
            else:
                exact = expected_presence(freqs, p.truncate, HDD_N)
            got = mat.values[i, j]
            if m == p.truncate:
                if not _close(got, exact, rtol=EXACT_RTOL):
                    fails.append(f"{r.stem} {rid} full: {got!r} != {exact!r}")
                continue
            se = _random_sds(trunc, m, rng)[r.index] / math.sqrt(r.iterations)
            if abs(got - exact) > Z * se + 1e-12:
                fails.append(f"{r.stem} {rid} m={m}: {got!r} is "
                             f"{abs(got - exact) / se:.1f} SE from {exact!r}")
    return fails


def _full_cell(r: Run, rid: str, x: np.ndarray, got: float) -> list:
    if r.index == "mttrss":
        # a mean of s window TTRs, so between the extreme windows, and an
        # unbiased estimate of MATTR with SD sd(window TTR) / sqrt(s)
        per_window = np.array(window_types(x, WINDOW)) / WINDOW
        sums = got * MTTRSS_S * WINDOW
        se = per_window.std() / math.sqrt(MTTRSS_S)
        if (abs(sums - round(sums)) > 1e-6
                or not per_window.min() <= got <= per_window.max()
                or abs(got - per_window.mean()) > Z * se + 1e-12):
            return [f"{r.stem} {rid} full: MTTRSS {got!r} impossible or "
                    f"far from MATTR {per_window.mean()!r}"]
        return []
    if r.index == "mattr":
        exact = sum(window_types(x, WINDOW)) / (WINDOW * (len(x) - WINDOW + 1))
    else:
        exact = mtld_definition(x, MTLD_FACTOR)
    if not _close(got, exact, rtol=EXACT_RTOL):
        return [f"{r.stem} {rid} full: {got!r} != {exact!r}"]
    return []


def _own_draws(r: Run, trunc: np.ndarray, cond: int, rng) -> np.ndarray:
    """One value per own iteration: an ordered-random sample's score, or the
    mean score of the k samples one alternating deal makes."""
    big_l = len(trunc)
    out = np.empty(MC_DRAWS)
    for b in range(MC_DRAWS):
        if r.method == "ordered_random":
            idx = np.sort(rng.permutation(big_l)[:cond])
            out[b] = _sequence_score(r.index, trunc[idx], rng)
        else:
            k, size = cond, big_l // cond
            grid = trunc[:size * k].reshape(size, k)
            dealt = np.take_along_axis(
                grid, np.argsort(rng.random((size, k)), axis=1), axis=1)
            out[b] = np.mean([_sequence_score(r.index, dealt[:, j], rng)
                              for j in range(k)])
    return out


def check_sequence(r: Run, p: Plan, texts: dict, mat: Matrix, seed: int) -> list:
    """Full cells against the definitions for every text; sampled cells
    against an own Monte Carlo estimate for the first MC_TEXTS texts."""
    fails = []
    rng = np.random.default_rng([seed, 2])
    for i, rid in enumerate(mat.rows):
        trunc = encode(texts[rid][:p.truncate])
        for j, cond in enumerate(r.conditions):
            got = mat.values[i, j]
            full = cond == (1 if r.method == "alternating" else p.truncate)
            if full:
                fails += _full_cell(r, rid, trunc, got)
            elif i < MC_TEXTS:
                draws = _own_draws(r, trunc, cond, rng)
                sd = draws.std(ddof=1)
                se = sd * math.sqrt(1 / r.iterations + 1 / MC_DRAWS)
                if abs(got - draws.mean()) > Z * se + 1e-12:
                    fails.append(
                        f"{r.stem} {rid} {r.method} {cond}: {got!r} vs own "
                        f"estimate {draws.mean()!r} ({Z:g} SE = {Z * se:.3g})")
    return fails


def check_sweep(r: Run, texts: dict, mat: Matrix) -> list:
    fails = []
    for i, rid in enumerate(mat.rows):
        x = encode(texts[rid])
        freqs = list(Counter(x.tolist()).values())
        for j, param in enumerate(r.conditions):
            got = mat.values[i, j]
            rtol, atol = EXACT_RTOL, 0.0
            if r.index == "mattr":
                exact = mattr_exact(x, param)
            elif r.index == "hdd":
                exact = expected_presence(freqs, len(x), param)
                rtol, atol = 0.0, HDD_ATOL
            else:
                exact = mtld_definition(x, param)
            if not _close(got, exact, rtol=rtol, atol=atol):
                fails.append(f"{r.stem} {rid} {param}: {got!r} != {exact!r}")
    return fails


def check_scores(r: Run, p: Plan, texts: dict, mat: Matrix, seed: int) -> list:
    if mat.rows != sorted(texts) or mat.cols != r.labels(p.truncate):
        return [f"{r.stem}: rows/columns {mat.rows[:3]}.../{mat.cols} "
                f"do not match the corpus and conditions"]
    if r.method == "sweep":
        return check_sweep(r, texts, mat)
    if r.method == "random":
        return check_random(r, p, texts, mat, seed)
    return check_sequence(r, p, texts, mat, seed)


# ---- statistics and profiles ---------------------------------------------


def mean_squares(v: np.ndarray):
    """Two-way decomposition with the interaction residuals summed directly."""
    n, k = v.shape
    grand = v.mean()
    rm, cm = v.mean(axis=1), v.mean(axis=0)
    resid = v - rm[:, None] - cm[None, :] + grand
    return (k * ((rm - grand) ** 2).sum() / (n - 1),
            n * ((cm - grand) ** 2).sum() / (k - 1),
            (resid ** 2).sum() / ((n - 1) * (k - 1)))


def icc_reference(v: np.ndarray, mode: str, alpha: float = 0.05) -> dict:
    """ICC(C,1) or ICC(A,1) with F-based CIs (McGraw & Wong 1996, table 7)."""
    n, k = v.shape
    msr, msc, mse = mean_squares(v)
    f_isf = sps.f.isf
    if mode == "consistency":
        est = (msr - mse) / (msr + (k - 1) * mse)
        fl = (msr / mse) / f_isf(alpha / 2, n - 1, (n - 1) * (k - 1))
        fu = (msr / mse) * f_isf(alpha / 2, (n - 1) * (k - 1), n - 1)
        low, high = (fl - 1) / (fl + k - 1), (fu - 1) / (fu + k - 1)
    else:
        est = (msr - mse) / (msr + (k - 1) * mse + k * (msc - mse) / n)
        a = k * est / (n * (1 - est))
        b = 1 + k * est * (n - 1) / (n * (1 - est))
        v_df = (a * msc + b * mse) ** 2 / (
            (a * msc) ** 2 / (k - 1) + (b * mse) ** 2 / ((n - 1) * (k - 1)))
        f1, f2 = f_isf(alpha / 2, n - 1, v_df), f_isf(alpha / 2, v_df, n - 1)
        low = n * (msr - f1 * mse) / (f1 * (k * msc + (k * n - k - n) * mse) + n * msr)
        high = n * (f2 * msr - mse) / (k * msc + (k * n - k - n) * mse + n * f2 * msr)
    return {"estimate": est, "ci_low": min(low, est), "ci_high": max(high, est),
            "ms_rows": msr, "ms_cols": msc, "ms_error": mse,
            "n_rows": n, "n_cols": k}


def check_icc(r: Run, mat: Matrix, got: dict) -> list:
    mode = "consistency" if r.method == "sweep" else "agreement"
    ref = icc_reference(mat.values, mode)
    bad = [key for key, want in ref.items()
           if not _close(got.get(key, math.nan), want, rtol=STATS_RTOL, atol=1e-12)]
    if got.get("mode") != mode or bad:
        return [f"{r.stem} ICC {mode}: {bad} differ from the reference"]
    return []


def check_anova(stem: str, mat: Matrix, got: dict) -> list:
    v = mat.values
    n, k = v.shape
    _msr, msc, mse = mean_squares(v)
    df1, df2 = k - 1, (k - 1) * (n - 1)
    f = msc / mse
    ref = {"F": f, "df1": df1, "df2": df2, "p": sps.f.sf(f, df1, df2),
           "partial_eta_sq": msc * df1 / (msc * df1 + mse * df2)}
    bad = [key for key, want in ref.items()
           if not _close(got.get(key, math.nan), want, rtol=STATS_RTOL, atol=1e-12)]
    for key, want in (("condition_means", v.mean(axis=0)),
                      ("condition_sds", v.std(axis=0, ddof=1))):
        if not np.allclose(got.get(key, []), want, rtol=1e-12, atol=0):
            bad.append(key)
    return [f"{stem} ANOVA: {bad} differ from the reference"] if bad else []


def select_profiles(mat: Matrix, count: int = PROFILE_COUNT, top: int = 4) -> list:
    """For every condition pair tally the `top` texts with the largest and
    the smallest differences; take count/3 texts by most largest tallies,
    count/3 by most smallest tallies, the rest by most of both; ties go
    to the lower id, differences tie by row order."""
    v, ids = mat.values, mat.rows
    n_rows = len(ids)
    if n_rows <= count:
        return list(ids)
    large, small = np.zeros(n_rows, int), np.zeros(n_rows, int)
    for a, b in combinations(range(v.shape[1]), 2):
        order = sorted(range(n_rows), key=lambda i: (v[i, b] - v[i, a], i))
        large[order[-top:]] += 1
        small[order[:top]] += 1
    remaining = set(range(n_rows))
    picked = []
    for scores, take in ((large, count // 3), (small, count // 3),
                         (large + small, count - 2 * (count // 3))):
        chosen = sorted(remaining, key=lambda i: (-scores[i], ids[i]))[:take]
        remaining.difference_update(chosen)
        picked += chosen
    return [ids[i] for i in picked]


def check_profiles(r: Run, mat: Matrix, rows: list) -> list:
    """The selected texts, in selection order, with their scores; centred
    on the selection's column means for a sweep."""
    chosen = select_profiles(mat)
    sub = mat.values[[mat.rows.index(rid) for rid in chosen]]
    if r.method == "sweep":
        sub = sub - sub.mean(axis=0, keepdims=True)
    want = [[rid, float(col), sub[i, j]]
            for i, rid in enumerate(chosen) for j, col in enumerate(mat.cols)]
    ok = rows[:1] == [["series", "x", "y"]] and len(rows) == len(want) + 1
    ok = ok and all(
        g[0] == w[0] and float(g[1]) == w[1] and _close(float(g[2]), w[2],
                                                        rtol=1e-12, atol=1e-15)
        for g, w in zip(rows[1:], want))
    return [] if ok else [f"{r.stem} profiles differ from the selection rule"]


def check_run(r: Run, p: Plan, texts: dict, out: dict, seed: int) -> list:
    mat = out["matrix"][r.stem]
    fails = check_scores(r, p, texts, mat, seed)
    fails += check_icc(r, mat, out["icc"][r.stem])
    fails += check_profiles(r, mat, out["profiles"][r.stem])
    if not isinstance(out["sidecar"][r.stem], dict):
        fails.append(f"{r.stem}: sidecar is not a JSON object")
    return fails


def check_all(p: Plan, texts: dict, out: dict, seed: int) -> list:
    fails = []
    for r in p.runs:
        fails += check_run(r, p, texts, out, seed)
    fails += check_anova(p.anova, out["matrix"][p.anova], out["anova"])
    return fails
