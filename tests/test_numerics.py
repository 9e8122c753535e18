"""Cross-checks of the dependency-free numerics against math.comb and scipy."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from lexdiv.numerics import (
    NumericsError,
    f_isf,
    f_sf,
    fisher_z,
    hypergeom_presence,
    norm_isf,
    reg_inc_beta,
    t_sf_two_sided,
)


@given(st.integers(1, 200), st.data())
def test_presence_matches_exact_rational(n_tokens, data):
    freq = data.draw(st.integers(1, n_tokens))
    sample = data.draw(st.integers(0, n_tokens))
    got = hypergeom_presence(n_tokens, freq, sample)
    if sample > n_tokens - freq:
        expected = 1.0
    else:
        expected = 1.0 - math.comb(n_tokens - freq, sample) / math.comb(
            n_tokens, sample
        )
    assert got == pytest.approx(expected, abs=1e-12)


# (N, f, n) with f > 64, past the cases the test above reaches
LARGE_FREQ_TRIPLES = st.integers(65, 20_000).flatmap(lambda n_tokens: st.tuples(
    st.just(n_tokens), st.integers(65, n_tokens), st.integers(0, n_tokens)))


@given(LARGE_FREQ_TRIPLES)
@settings(deadline=None)
@example((10**6, 70, 10))
@example((10**5, 100, 42))
@example((5800, 300, 42))
def test_presence_large_freq_matches_exact_rational(triple):
    # log-gamma differences were off by up to 1e-9 here (1.4e-6 relative
    # at the first example)
    n_tokens, freq, sample = triple
    if sample > n_tokens - freq:
        expected = 1.0
    else:
        expected = float(1 - Fraction(math.comb(n_tokens - freq, sample),
                                      math.comb(n_tokens, sample)))
    assert hypergeom_presence(n_tokens, freq, sample) == pytest.approx(
        expected, rel=0, abs=1e-13)


@given(st.integers(2, 100), st.data())
def test_presence_monotone_in_sample_and_freq(n_tokens, data):
    freq = data.draw(st.integers(1, n_tokens - 1))
    sample = data.draw(st.integers(1, n_tokens - 1))
    base = hypergeom_presence(n_tokens, freq, sample)
    assert hypergeom_presence(n_tokens, freq, sample + 1) >= base - 1e-15
    assert hypergeom_presence(n_tokens, freq + 1, sample) >= base - 1e-15


def test_presence_bounds_and_domain():
    assert hypergeom_presence(10, 3, 0) == 0.0
    assert hypergeom_presence(10, 3, 8) == 1.0
    with pytest.raises(NumericsError):
        hypergeom_presence(10, 0, 3)
    with pytest.raises(NumericsError):
        hypergeom_presence(10, 3, 11)


@given(
    st.floats(0.0, 1.0),
    st.floats(0.5, 60.0),
    st.floats(0.5, 60.0),
)
@settings(max_examples=300)
@example(x=0.9999999999999999, a=0.5, b=0.5)
def test_reg_inc_beta_matches_scipy(x, a, b):
    # scipy's betainc loses accuracy as x -> 1: at x = 1 - 2**-53, a = b = 0.5
    # it is off by 2.8e-9 from the exact 1 - (2/pi)*asin(sqrt(1 - x)). For
    # x > 0.5 the oracle uses I_x(a, b) = 1 - I_{1-x}(b, a), where 1 - x is
    # exact and scipy stays within 1e-14 of an mpmath reference.
    if x <= 0.5:
        expected = float(special.betainc(a, b, x))
    else:
        expected = 1.0 - float(special.betainc(b, a, 1.0 - x))
    assert reg_inc_beta(x, a, b) == pytest.approx(expected, abs=1e-10)


def test_reg_inc_beta_domain():
    with pytest.raises(NumericsError):
        reg_inc_beta(1.5, 1.0, 1.0)
    with pytest.raises(NumericsError):
        reg_inc_beta(0.5, 0.0, 1.0)


@given(st.floats(-30.0, 30.0), st.floats(1.0, 500.0))
@settings(max_examples=300)
@example(t=1.4e-7, df=256.0)
def test_t_tail_matches_scipy(t, df):
    assert t_sf_two_sided(t, df) == pytest.approx(
        float(2.0 * stats.t.sf(abs(t), df)), rel=1e-7, abs=1e-9
    )


@given(st.floats(0.0, 100.0), st.floats(1.0, 200.0), st.floats(1.0, 200.0))
@settings(max_examples=300)
@example(f=1e-12, df1=1.0, df2=5.0)
@example(f=5.1851568686000855e-18, df1=1.0, df2=1.0)
def test_f_tail_matches_scipy(f, df1, df2):
    # 1 - cdf, not scipy's sf: where df1 * f is far below df2, sf's
    # df2 / (df2 + df1 * f) rounds to 1 and it returns 1.0, while the tail
    # is 1 - 1.45e-9 at the second example (F(1, 1): 1 - 2/pi atan(sqrt f))
    assert f_sf(f, df1, df2) == pytest.approx(
        1.0 - float(stats.f.cdf(f, df1, df2)), abs=1e-10
    )


@given(st.floats(0.005, 0.995), st.floats(1.0, 100.0), st.floats(1.0, 100.0))
@settings(max_examples=150, deadline=None)
def test_f_quantile_matches_scipy(p, df1, df2):
    assert f_isf(p, df1, df2) == pytest.approx(
        float(stats.f.isf(p, df1, df2)), rel=1e-7, abs=1e-9
    )


@given(st.floats(1e-6, 1 - 1e-6))
@settings(max_examples=200)
def test_norm_quantile_matches_scipy(p):
    assert norm_isf(p) == pytest.approx(float(stats.norm.isf(p)), abs=1e-9)


def test_fisher_z():
    assert fisher_z(0.5) == pytest.approx(math.atanh(0.5))
    with pytest.raises(NumericsError):
        fisher_z(1.0)


@given(st.floats(0.01, 0.99), st.floats(1.0, 50.0), st.floats(1.0, 50.0))
@settings(max_examples=100, deadline=None)
def test_f_isf_round_trip(p, df1, df2):
    assert f_sf(f_isf(p, df1, df2), df1, df2) == pytest.approx(p, abs=1e-9)


def f_isf_200_steps(p, df1, df2):
    """f_isf as it was before its bisection stopped early."""
    lo, hi = 0.0, 1.0
    while f_sf(hi, df1, df2) > p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f_sf(mid, df1, df2) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("p", [0.001, 0.025, 0.5, 0.975])
@pytest.mark.parametrize("df1, df2", [(1, 1), (3, 47.5), (99, 250.3),
                                      (250.3, 99), (1000, 2)])
def test_f_isf_stops_where_the_200_step_loop_stands_still(p, df1, df2):
    assert f_isf(p, df1, df2) == f_isf_200_steps(p, df1, df2)
