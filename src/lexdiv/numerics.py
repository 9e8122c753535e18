"""Hypergeometric presence probabilities and distribution tails.

Everything here is dependency-free on purpose: binomial-coefficient ratios
are running products, and t/F tail probabilities go through a
continued-fraction regularized incomplete beta.
"""

from __future__ import annotations

import math

_BETA_TOL = 1e-12
_BETA_MAX_ITER = 500


class NumericsError(Exception):
    pass


def hypergeom_presence(n_tokens: int, freq: int, sample: int) -> float:
    """Probability that a type occurring ``freq`` times in ``n_tokens`` tokens
    appears at least once in a without-replacement sample of ``sample`` tokens.

    1 - C(N-f, n) / C(N, n), the ratio a running product of min(f, n)
    factors, which is more accurate than exponentiated log-gammas.
    """
    if freq < 1 or freq > n_tokens:
        raise NumericsError(f"need 1 <= freq <= n_tokens, got freq={freq}, N={n_tokens}")
    if sample < 0 or sample > n_tokens:
        raise NumericsError(f"need 0 <= sample <= n_tokens, got sample={sample}")
    if sample == 0:
        return 0.0
    if sample > n_tokens - freq:
        return 1.0
    if freq == 1:
        # C(N-1, n) / C(N, n) = (N - n) / N, so presence is exactly n / N
        return sample / n_tokens
    absent = 1.0
    if freq <= 64 or freq <= sample:
        for i in range(freq):
            absent *= (n_tokens - sample - i) / (n_tokens - i)
    else:
        for i in range(sample):
            absent *= (n_tokens - freq - i) / (n_tokens - i)
    return 1.0 - absent


def _betacf(x: float, a: float, b: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_TOL:
            return h
    raise NumericsError(f"incomplete beta did not converge for x={x}, a={a}, b={b}")


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    return _reg_inc_beta(x, 1.0 - x, a, b)


def _reg_inc_beta(x: float, y: float, a: float, b: float) -> float:
    """I_x(a, b) given y = 1 - x as well, so that a caller that can form
    1 - x without cancellation keeps its accuracy where x rounds to 1."""
    if not (0.0 <= x <= 1.0):
        raise NumericsError(f"x must be in [0, 1], got {x}")
    if a <= 0 or b <= 0:
        raise NumericsError(f"a, b must be positive, got a={a}, b={b}")
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(y)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(x, a, b) / a
    return 1.0 - front * _betacf(y, b, a) / b


def t_sf_two_sided(t: float, df: float) -> float:
    """Two-sided tail probability of Student's t."""
    if df <= 0:
        raise NumericsError(f"df must be positive, got {df}")
    if t == 0.0:
        return 1.0
    t2 = t * t
    return _reg_inc_beta(df / (df + t2), t2 / (df + t2), df / 2.0, 0.5)


def f_sf(f: float, df1: float, df2: float) -> float:
    """Upper-tail probability of the F distribution."""
    if df1 <= 0 or df2 <= 0:
        raise NumericsError(f"dfs must be positive, got df1={df1}, df2={df2}")
    if f < 0:
        raise NumericsError(f"F must be nonnegative, got {f}")
    if f == 0.0:
        return 1.0
    scaled = df1 * f
    return _reg_inc_beta(df2 / (df2 + scaled), scaled / (df2 + scaled),
                         df2 / 2.0, df1 / 2.0)


def f_isf(p: float, df1: float, df2: float) -> float:
    """Inverse of f_sf in its first argument (upper-tail F quantile).

    Bisection on the monotone tail, to the last bit: it stops once the
    midpoint rounds to an end, from where f_sf(lo) > p >= f_sf(hi) would
    leave both ends as they are.
    """
    if not (0.0 < p < 1.0):
        raise NumericsError(f"p must be in (0, 1), got {p}")
    lo, hi = 0.0, 1.0
    while f_sf(hi, df1, df2) > p:
        hi *= 2.0
        if hi > 1e12:
            raise NumericsError("f_isf: bracket expansion failed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f_sf(mid, df1, df2) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def norm_isf(p: float) -> float:
    """Upper-tail standard normal quantile."""
    if not (0.0 < p < 1.0):
        raise NumericsError(f"p must be in (0, 1), got {p}")
    # imported here: `statistics` costs every CLI start about 4 ms to import
    from statistics import NormalDist

    return -NormalDist().inv_cdf(p)


def fisher_z(r: float) -> float:
    """Fisher's z transform, atanh(r)."""
    if not (-1.0 < r < 1.0):
        raise NumericsError(f"|r| must be < 1, got {r}")
    return math.atanh(r)
