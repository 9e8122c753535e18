"""Agreement and inference machinery: ICC(2,1), repeated-measures ANOVA,
and dependent-correlation comparisons (Williams/Steiger t, Zou intervals)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import f_isf, f_sf, fisher_z, norm_isf, t_sf_two_sided


class StatsError(Exception):
    pass


ICC_MODES = ("agreement", "consistency")


@dataclass(frozen=True)
class IccResult:
    """An ICC(2,1) and its F-based bounds.  ``zero_error_variance`` is
    ``ms_error == 0``: rows and columns explain every cell, as when each
    row is constant.  Bounds of [1, 1] are then the limit of the F-based
    interval as the error variance goes to 0, not an interval computed
    from an F quantile."""

    mode: str
    estimate: float
    ci_low: float
    ci_high: float
    ms_rows: float
    ms_cols: float
    ms_error: float
    n_rows: int
    n_cols: int
    zero_error_variance: bool


@dataclass(frozen=True)
class AnovaResult:
    F: float
    df1: int
    df2: int
    p: float
    partial_eta_sq: float
    condition_means: tuple
    condition_sds: tuple


@dataclass(frozen=True)
class CorrComparison:
    r_large: float
    r_small: float
    r_between: float
    n: int
    t: float
    df: int
    p: float
    zou_low: float
    zou_high: float


def _mean_squares(values: np.ndarray):
    """Two-way decomposition for an n x k complete matrix."""
    n, k = values.shape
    grand = values.mean()
    row_means = values.mean(axis=1)
    col_means = values.mean(axis=0)
    ss_rows = k * np.sum((row_means - grand) ** 2)
    ss_cols = n * np.sum((col_means - grand) ** 2)
    ss_total = np.sum((values - grand) ** 2)
    ss_error = ss_total - ss_rows - ss_cols
    msr = ss_rows / (n - 1)
    msc = ss_cols / (k - 1)
    mse = max(ss_error / ((n - 1) * (k - 1)), 0.0)
    return msr, msc, mse


def check_shape(n_rows: int, n_cols: int):
    """An ICC or ANOVA needs at least 2 rows and 2 columns."""
    if n_rows < 2 or n_cols < 2:
        raise StatsError("need at least 2 rows and 2 columns")


def _as_values(matrix) -> np.ndarray:
    values = np.asarray(getattr(matrix, "values", matrix), dtype=float)
    if values.ndim != 2:
        raise StatsError("expected a 2-D matrix")
    check_shape(*values.shape)
    if not np.all(np.isfinite(values)):
        raise StatsError("matrix has non-finite cells")
    return values


def icc_2_1(matrix, mode: str = "agreement", alpha: float = 0.05) -> IccResult:
    """Two-way random-effects, single-measure ICC with F-based 95% CIs
    (McGraw & Wong, 1996)."""
    if mode not in ICC_MODES:
        raise StatsError(f"unknown ICC mode {mode!r}")
    values = _as_values(matrix)
    n, k = values.shape
    msr, msc, mse = _mean_squares(values)
    if msr <= 0.0:
        raise StatsError("no between-text variance")

    if mode == "consistency":
        estimate = (msr - mse) / (msr + (k - 1) * mse)
        if mse == 0.0:
            low = high = 1.0
        else:
            df2 = (n - 1) * (k - 1)
            fobs = msr / mse
            fl = fobs / f_isf(alpha / 2, n - 1, df2)
            fu = fobs * f_isf(alpha / 2, df2, n - 1)
            low = (fl - 1.0) / (fl + k - 1.0)
            high = (fu - 1.0) / (fu + k - 1.0)
    else:
        estimate = (msr - mse) / (msr + (k - 1) * mse + (k / n) * (msc - mse))
        if (mse == 0.0 and msc == 0.0) or estimate >= 1.0:
            low = high = 1.0
        else:
            a = (k * estimate) / (n * (1.0 - estimate))
            b = 1.0 + (k * estimate * (n - 1)) / (n * (1.0 - estimate))
            num = (a * msc + b * mse) ** 2
            den = (a * msc) ** 2 / (k - 1) + (b * mse) ** 2 / ((n - 1) * (k - 1))
            v = num / den
            f1 = f_isf(alpha / 2, n - 1, v)
            f2 = f_isf(alpha / 2, v, n - 1)
            low = (n * (msr - f1 * mse)
                   / (f1 * (k * msc + (k * n - k - n) * mse) + n * msr))
            high = (n * (f2 * msr - mse)
                    / (k * msc + (k * n - k - n) * mse + n * f2 * msr))
    return IccResult(
        mode=mode, estimate=float(estimate),
        ci_low=float(min(low, estimate)), ci_high=float(max(high, estimate)),
        ms_rows=float(msr), ms_cols=float(msc), ms_error=float(mse),
        n_rows=n, n_cols=k, zero_error_variance=bool(mse == 0.0),
    )


def rm_anova(matrix) -> AnovaResult:
    """One-way repeated-measures ANOVA over the matrix columns."""
    values = _as_values(matrix)
    n, k = values.shape
    _msr, msc, mse = _mean_squares(values)
    ss_cond = msc * (k - 1)
    ss_error = mse * (n - 1) * (k - 1)
    df1 = k - 1
    df2 = (k - 1) * (n - 1)
    if ss_error == 0.0:
        f = math.inf if ss_cond > 0 else 0.0
        p = 0.0 if ss_cond > 0 else 1.0
    else:
        f = msc / mse
        p = f_sf(f, df1, df2)
    eta = ss_cond / (ss_cond + ss_error) if (ss_cond + ss_error) > 0 else 0.0
    return AnovaResult(
        F=float(f), df1=df1, df2=df2, p=float(p), partial_eta_sq=float(eta),
        condition_means=tuple(values.mean(axis=0)),
        condition_sds=tuple(values.std(axis=0, ddof=1)),
    )


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise StatsError("x and y must be equal-length vectors")
    if len(x) < 3:
        raise StatsError("need at least 3 observations")
    xd = x - x.mean()
    yd = y - y.mean()
    denom = math.sqrt(float(xd @ xd)) * math.sqrt(float(yd @ yd))
    if denom == 0.0:
        raise StatsError("zero variance")
    return float(xd @ yd) / denom


def spearman_brown(r: float) -> float:
    """Step-up reliability of a two-rater composite, 2r / (1 + r)."""
    if r <= -1.0:
        raise StatsError("undefined at r = -1")
    return 2.0 * r / (1.0 + r)


def steiger_t(r_jk: float, r_jh: float, r_kh: float, n: int):
    """Williams' t for two dependent correlations sharing variable j.

    Returns ``(t, df, p)`` with df = n - 3 and a two-sided p.
    """
    if n < 4:
        raise StatsError("need n >= 4")
    for r in (r_jk, r_jh, r_kh):
        if not (-1.0 < r < 1.0):
            raise StatsError(f"correlations must be in (-1, 1), got {r}")
    det = 1.0 - r_jk**2 - r_jh**2 - r_kh**2 + 2.0 * r_jk * r_jh * r_kh
    rbar = 0.5 * (r_jk + r_jh)
    radicand = 2.0 * ((n - 1) / (n - 3)) * det + rbar**2 * (1.0 - r_kh) ** 3
    if radicand <= 0.0:
        raise StatsError("degenerate correlation matrix (nonpositive radicand)")
    t = (r_jk - r_jh) * math.sqrt((n - 1) * (1.0 + r_kh)) / math.sqrt(radicand)
    df = n - 3
    return t, df, t_sf_two_sided(t, df)


def _corr_of_correlations(r_jk, r_jh, r_kh):
    """Correlation between the two sample correlations (overlapping case)."""
    num = (r_kh - 0.5 * r_jk * r_jh) * (1.0 - r_jk**2 - r_jh**2 - r_kh**2) + r_kh**3
    return num / ((1.0 - r_jk**2) * (1.0 - r_jh**2))


def zou_ci(r_jk: float, r_jh: float, r_kh: float, n: int, alpha: float = 0.05):
    """Zou's (2007) confidence interval for r_jk - r_jh, overlapping case."""
    if n < 4:
        raise StatsError("need n >= 4")
    for r in (r_jk, r_jh, r_kh):
        if not (-1.0 < r < 1.0):
            raise StatsError(f"correlations must be in (-1, 1), got {r}")
    zc = norm_isf(alpha / 2.0)
    se = 1.0 / math.sqrt(n - 3)
    l1 = math.tanh(fisher_z(r_jk) - zc * se)
    u1 = math.tanh(fisher_z(r_jk) + zc * se)
    l2 = math.tanh(fisher_z(r_jh) - zc * se)
    u2 = math.tanh(fisher_z(r_jh) + zc * se)
    c = _corr_of_correlations(r_jk, r_jh, r_kh)
    diff = r_jk - r_jh
    low = diff - math.sqrt(
        (r_jk - l1) ** 2 + (u2 - r_jh) ** 2 - 2.0 * c * (r_jk - l1) * (u2 - r_jh)
    )
    high = diff + math.sqrt(
        (u1 - r_jk) ** 2 + (r_jh - l2) ** 2 - 2.0 * c * (u1 - r_jk) * (r_jh - l2)
    )
    return low, high


def compare_correlations(scores_a, scores_b, criterion) -> CorrComparison:
    """Compare two index score vectors against a shared criterion.

    ``r_large`` is the larger of the two criterion correlations, matching
    the largest-vs-smallest comparisons this harness reports.
    """
    a = np.asarray(scores_a, dtype=float)
    b = np.asarray(scores_b, dtype=float)
    y = np.asarray(criterion, dtype=float)
    n = len(y)
    r_large, r_small = pearson(a, y), pearson(b, y)
    if r_large < r_small:
        a, b, r_large, r_small = b, a, r_small, r_large
    r_between = pearson(a, b)
    t, df, p = steiger_t(r_large, r_small, r_between, n)
    low, high = zou_ci(r_large, r_small, r_between, n)
    return CorrComparison(
        r_large=r_large, r_small=r_small, r_between=r_between,
        n=n, t=t, df=df, p=p, zou_low=low, zou_high=high,
    )
