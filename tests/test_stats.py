"""Statistics oracles: frozen reference values computed with scipy /
statsmodels, reference comparison fixtures, and invariance properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexdiv.stats import (
    StatsError,
    compare_correlations,
    icc_2_1,
    pearson,
    rm_anova,
    spearman_brown,
    steiger_t,
    zou_ci,
)

# 10 texts x 4 conditions with a monotone condition bias; oracle values below
# were computed with an independent implementation backed by scipy.stats.f.ppf
# and statsmodels AnovaRM.
FIXTURE = np.array([
    [0.6095680936274179, 0.5757789661411487, 0.5285001252793843, 0.505115979825752],
    [0.7964287449171232, 0.7804913814629585, 0.7589867200955207, 0.698531595318932],
    [0.6361056361072324, 0.6243368509105103, 0.5935700415706009, 0.537350075810282],
    [0.6882953346194988, 0.6430503138634261, 0.6276842485984795, 0.593760980526315],
    [0.6805365247142943, 0.6731556595321899, 0.6612199347623215, 0.6301541297028367],
    [0.6485028412712589, 0.6290155597888246, 0.5811393447029711, 0.5386353449634081],
    [0.5764536637226233, 0.5759920521564149, 0.5480959778129413, 0.49398898066168995],
    [0.7396246743189904, 0.7344870018595718, 0.70504045335979, 0.6606033072732087],
    [0.7415844802490709, 0.7079550244670587, 0.6782231401543749, 0.6278025043734609],
    [0.54513052346453, 0.5372417326019974, 0.4943823951687848, 0.45448010096187186],
])

ICC_AGREEMENT = 0.7825280005714635
ICC_AGREEMENT_CI = (0.23398229657312872, 0.9464467189226817)
ICC_CONSISTENCY = 0.9806269850990668
ICC_CONSISTENCY_CI = (0.950212165150063, 0.9945380443464832)
ANOVA_F = 131.67278592594369
ANOVA_P = 3.144102519728156e-16
ANOVA_ETA = 0.9360217405181811


# ---------------------------------------------------------------- ICC(2,1)

def test_icc_agreement_matches_oracle():
    res = icc_2_1(FIXTURE, mode="agreement")
    assert res.estimate == pytest.approx(ICC_AGREEMENT, abs=1e-6)
    assert res.ci_low == pytest.approx(ICC_AGREEMENT_CI[0], abs=1e-6)
    assert res.ci_high == pytest.approx(ICC_AGREEMENT_CI[1], abs=1e-6)


def test_icc_consistency_matches_oracle():
    res = icc_2_1(FIXTURE, mode="consistency")
    assert res.estimate == pytest.approx(ICC_CONSISTENCY, abs=1e-6)
    assert res.ci_low == pytest.approx(ICC_CONSISTENCY_CI[0], abs=1e-6)
    assert res.ci_high == pytest.approx(ICC_CONSISTENCY_CI[1], abs=1e-6)


def test_icc_consistency_ignores_column_shifts():
    shifted = FIXTURE + np.array([[0.0, 0.1, 0.2, 0.3]])
    res = icc_2_1(shifted, mode="consistency")
    assert res.estimate == pytest.approx(ICC_CONSISTENCY, abs=1e-10)


def test_icc_consistency_without_error_variance_is_one():
    """Rows plus columns leave no error variance: consistency is exactly 1
    and so are both bounds, with no F quantile taken."""
    values = np.array([[0.0], [1.0], [2.0], [4.0]]) + np.array([[0.0, 0.5]])
    res = icc_2_1(values, mode="consistency")
    assert (res.estimate, res.ci_low, res.ci_high) == (1.0, 1.0, 1.0)


def test_icc_agreement_penalizes_column_shifts():
    shifted = FIXTURE + np.array([[0.0, 0.1, 0.2, 0.3]])
    res = icc_2_1(shifted, mode="agreement")
    assert res.estimate < ICC_AGREEMENT


def test_icc_perfect_agreement():
    perfect = np.tile(np.linspace(0.2, 0.9, 6)[:, None], (1, 3))
    res = icc_2_1(perfect, mode="agreement")
    assert res.estimate == 1.0
    assert res.ci_low == res.ci_high == 1.0


@pytest.mark.parametrize("mode", ["agreement", "consistency"])
def test_icc_says_when_error_variance_is_zero(mode):
    """Constant rows leave no error variance, and the result says so next
    to its [1, 1] bounds; a noisy matrix has error variance."""
    constant_rows = np.tile(np.linspace(0.2, 0.9, 6)[:, None], (1, 3))
    res = icc_2_1(constant_rows, mode=mode)
    assert res.zero_error_variance is True
    assert (res.ms_error, res.ci_low, res.ci_high) == (0.0, 1.0, 1.0)
    res = icc_2_1(FIXTURE, mode=mode)
    assert res.zero_error_variance is False and res.ms_error > 0.0
    assert res.ci_low < res.ci_high


def test_icc_errors():
    with pytest.raises(StatsError, match="mode"):
        icc_2_1(FIXTURE, mode="absolute")
    with pytest.raises(StatsError, match="2 rows"):
        icc_2_1(FIXTURE[:1])
    flat = np.tile(np.array([[0.5, 0.5, 0.5]]), (4, 1))
    with pytest.raises(StatsError, match="between-text"):
        icc_2_1(flat)


def test_icc_estimate_within_ci():
    res = icc_2_1(FIXTURE, mode="agreement")
    assert res.ci_low <= res.estimate <= res.ci_high


# ---------------------------------------------------------------- RM-ANOVA

def test_rm_anova_matches_oracle():
    res = rm_anova(FIXTURE)
    assert res.F == pytest.approx(ANOVA_F, abs=1e-6)
    assert res.p == pytest.approx(ANOVA_P, abs=1e-4)
    assert res.partial_eta_sq == pytest.approx(ANOVA_ETA, abs=1e-6)
    assert (res.df1, res.df2) == (3, 27)


def test_rm_anova_descriptives():
    res = rm_anova(FIXTURE)
    assert res.condition_means == pytest.approx(FIXTURE.mean(axis=0))
    assert res.condition_sds == pytest.approx(FIXTURE.std(axis=0, ddof=1))


def test_rm_anova_no_effect():
    rng = np.random.default_rng(3)
    rows = rng.normal(0.5, 0.1, size=(12, 1))
    res = rm_anova(np.tile(rows, (1, 4)))
    assert res.F == 0.0
    assert res.p == 1.0


# ------------------------------------------------------------- correlations

def test_pearson_matches_numpy():
    rng = np.random.default_rng(8)
    x = rng.normal(size=40)
    y = 0.6 * x + rng.normal(size=40)
    assert pearson(x, y) == pytest.approx(float(np.corrcoef(x, y)[0, 1]),
                                          abs=1e-12)


def test_pearson_errors():
    with pytest.raises(StatsError):
        pearson([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(StatsError, match="equal-length vectors"):
        pearson([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(StatsError, match="zero variance"):
        pearson([1.0, 1.0, 1.0], [0.1, 0.5, 0.9])


def test_spearman_brown_reference_value():
    # step-up of r = .69 between split halves
    assert spearman_brown(0.69) == pytest.approx(0.8166, abs=5e-4)
    assert spearman_brown(0.0) == 0.0
    assert spearman_brown(1.0) == 1.0
    with pytest.raises(StatsError, match="undefined at r = -1"):
        spearman_brown(-1.0)


# Reference largest-vs-smallest comparisons (criterion correlations with
# n = 188 essays): t(185) and the 95% interval for the difference.
# r_between below was recovered by inverting the Williams statistic.
def test_williams_t_reproduces_reference_p():
    # r = .320 vs .242, t(185) = 3.18 -> p = .0017
    r_between = _solve_r_between(0.320, 0.242, 188, target_t=3.18)
    t, df, p = steiger_t(0.320, 0.242, r_between, 188)
    assert df == 185
    assert t == pytest.approx(3.18, abs=5e-3)
    assert p == pytest.approx(0.0017, abs=1e-4)


def test_zou_ci_reproduces_reference_intervals():
    # same comparison: reference interval (.029, .127)
    r_between = _solve_r_between(0.320, 0.242, 188, target_t=3.18)
    low, high = zou_ci(0.320, 0.242, r_between, 188)
    # the reference t (3.18) carries 3 significant digits, which limits how
    # precisely the between-index correlation can be recovered
    assert low == pytest.approx(0.029, abs=3e-3)
    assert high == pytest.approx(0.127, abs=3e-3)


def test_zou_ci_reproduces_second_reference_interval():
    # r = .471 vs .294 with n = 223: t(220) = 3.35, interval (.072, .283)
    r_between = _solve_r_between(0.471, 0.294, 223, target_t=3.35)
    t, df, p = steiger_t(0.471, 0.294, r_between, 223)
    assert df == 220
    assert p == pytest.approx(0.0009, abs=1e-4)
    low, high = zou_ci(0.471, 0.294, r_between, 223)
    assert low == pytest.approx(0.072, abs=1e-3)
    assert high == pytest.approx(0.283, abs=1e-3)


def _solve_r_between(r_jk, r_jh, n, target_t):
    """Invert the Williams statistic in its r_between argument (bisection)."""
    lo, hi = -0.99, None
    # keep the correlation matrix positive definite
    disc = (r_jk * r_jh) ** 2 - (r_jk**2 + r_jh**2 - 1.0)
    hi = 0.9999 * (r_jk * r_jh + math.sqrt(disc))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        t, _, _ = steiger_t(r_jk, r_jh, mid, n)
        # t increases with r_between for a fixed positive difference
        if t < target_t:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_steiger_t_sign_antisymmetric():
    t1, _, p1 = steiger_t(0.5, 0.3, 0.4, 50)
    t2, _, p2 = steiger_t(0.3, 0.5, 0.4, 50)
    assert t1 == pytest.approx(-t2)
    assert p1 == pytest.approx(p2)


def test_steiger_t_zero_difference():
    t, df, p = steiger_t(0.4, 0.4, 0.5, 60)
    assert t == 0.0
    assert p == 1.0


def test_steiger_t_domain():
    with pytest.raises(StatsError):
        steiger_t(0.5, 0.3, 0.4, 3)
    with pytest.raises(StatsError):
        steiger_t(1.0, 0.3, 0.4, 50)
    with pytest.raises(StatsError, match="radicand"):
        # r_between incompatible with the other two correlations
        steiger_t(0.9, -0.9, 0.99, 50)


def test_zou_ci_domain():
    with pytest.raises(StatsError, match="need n >= 4"):
        zou_ci(0.5, 0.3, 0.4, 3)
    with pytest.raises(StatsError, match=r"must be in \(-1, 1\), got -1.0"):
        zou_ci(0.5, -1.0, 0.4, 50)


@given(
    st.floats(-0.9, 0.9), st.floats(-0.9, 0.9), st.floats(-0.5, 0.5),
    st.integers(10, 500),
)
@settings(max_examples=200)
def test_zou_ci_brackets_difference(r_jk, r_jh, r_kh, n):
    det = 1 - r_jk**2 - r_jh**2 - r_kh**2 + 2 * r_jk * r_jh * r_kh
    if det <= 1e-6:
        return
    low, high = zou_ci(r_jk, r_jh, r_kh, n)
    assert low <= r_jk - r_jh <= high


def test_compare_correlations_orients_largest_first():
    rng = np.random.default_rng(21)
    y = rng.normal(size=60)
    a = 0.8 * y + rng.normal(scale=0.6, size=60)   # strong correlate
    b = 0.3 * y + rng.normal(scale=1.0, size=60)   # weak correlate
    res = compare_correlations(b, a, y)  # order must not matter
    assert res.r_large >= res.r_small
    assert res.r_large == pytest.approx(pearson(a, y))
    assert res.n == 60
    assert res.df == 57
    assert res.zou_low <= res.r_large - res.r_small <= res.zou_high


def test_compare_correlations_matches_components():
    rng = np.random.default_rng(5)
    y = rng.normal(size=40)
    a = 0.7 * y + rng.normal(scale=0.5, size=40)
    b = 0.5 * y + rng.normal(scale=0.8, size=40)
    res = compare_correlations(a, b, y)
    t, df, p = steiger_t(res.r_large, res.r_small, res.r_between, 40)
    assert (res.t, res.df, res.p) == (t, df, p)
    assert (res.zou_low, res.zou_high) == zou_ci(
        res.r_large, res.r_small, res.r_between, 40
    )
