"""Closed-form distribution oracles used as ground truth for the simulators.

Central and noncentral chi-square tails are evaluated here from scratch
(regularized incomplete gamma by series / continued fraction, Poisson mixture
for the noncentral case) so that Monte-Carlo estimates are checked against an
implementation that shares no code with the sampling path.
"""

import math

_MAX_ITER = 10_000
_EPS = 1e-15
_TINY = 1e-300


def _lower_gamma_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by power series (0 < x < a + 1)."""
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    else:
        raise ValueError(f"P({a}, {x}) series did not converge in {_MAX_ITER} terms")
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_gamma_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) by Lentz continued fraction."""
    b = x + 1.0 - a
    if b == 0.0:  # no bit of x + 1 - a survives at this scale
        raise ValueError(f"Q({a}, {x}) continued fraction: x + 1 - a rounds to 0")
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    else:
        raise ValueError(
            f"Q({a}, {x}) continued fraction did not converge in {_MAX_ITER} steps"
        )
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _check_gamma_arguments(a: float, x: float) -> None:
    """Refuse a NaN or infinite a or x, which no series or fraction here converges on."""
    if not 0.0 < a < math.inf:
        raise ValueError(f"shape parameter must be positive and finite, got {a}")
    if not 0.0 <= x < math.inf:
        raise ValueError(f"argument must be nonnegative and finite, got {x}")


def reg_gamma_lower(a: float, x: float) -> float:
    """P(a, x), the regularized lower incomplete gamma function."""
    _check_gamma_arguments(a, x)
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _lower_gamma_series(a, x)
    return 1.0 - _upper_gamma_cf(a, x)


def reg_gamma_upper(a: float, x: float) -> float:
    """Q(a, x) = 1 - P(a, x)."""
    _check_gamma_arguments(a, x)
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _lower_gamma_series(a, x)
    return _upper_gamma_cf(a, x)


def _check_df(df: float) -> None:
    """Refuse degrees of freedom that are not positive or not finite, NaN included."""
    if not 0.0 < df < math.inf:
        raise ValueError(f"degrees of freedom must be positive and finite, got {df}")


def chi2_cdf(x: float, df: float) -> float:
    """Pr(chi2_df <= x)."""
    _check_df(df)
    if x <= 0.0:
        return 0.0
    return reg_gamma_lower(0.5 * df, 0.5 * x)


def chi2_sf(x: float, df: float) -> float:
    """Pr(chi2_df > x)."""
    _check_df(df)
    if x <= 0.0:
        return 1.0
    return reg_gamma_upper(0.5 * df, 0.5 * x)


def _log_poisson_pmf(j: int, mean: float) -> float:
    return -mean + j * math.log(mean) - math.lgamma(j + 1.0)


def noncentral_chi2_cdf(x: float, df: float, noncentrality: float) -> float:
    """Pr(X <= x) for X noncentral chi-square with given df and noncentrality.

    Poisson mixture over central chi-square terms, expanded outward from the
    mixture mode; the gamma terms are advanced by the stable recurrence
    P(a+1, y) = P(a, y) - y^a e^-y / Gamma(a+1).
    """
    _check_df(df)
    if not 0.0 <= noncentrality < math.inf:
        raise ValueError(f"noncentrality must be nonnegative and finite, got {noncentrality}")
    if x <= 0.0:
        return 0.0
    half_nc = 0.5 * noncentrality
    if half_nc == 0.0:  # also a subnormal noncentrality that halves to 0
        return chi2_cdf(x, df)
    y = 0.5 * x
    j0 = int(half_nc)

    def exp(log):
        # at a huge scale the terms of a log cancel to rounding noise, which can pass
        # the ~709.8 where math.exp overflows
        try:
            return math.exp(log)
        except OverflowError:
            raise ValueError(f"noncentral chi-square mixture ({x}, {df}, {noncentrality}): a "
                             f"term's log {log} leaves the float range") from None

    def gamma_term(j):
        # y^(df/2 + j - 1 + 1) e^-y / Gamma(df/2 + j + 1): the step between
        # consecutive regularized lower gammas.
        a = 0.5 * df + j
        return exp(a * math.log(y) - y - math.lgamma(a + 1.0))

    p_center = reg_gamma_lower(0.5 * df + j0, y)
    total = exp(_log_poisson_pmf(j0, half_nc)) * p_center

    # upward from the mode: P(a+1) = P(a) - t(a); past the mode neither the
    # Poisson weight nor P grows, so a zero contribution ends the sum
    p = p_center
    for j in range(j0, j0 + _MAX_ITER):
        t = gamma_term(j)
        p = max(p - t, 0.0)
        w = exp(_log_poisson_pmf(j + 1, half_nc))
        contrib = w * p
        total += contrib
        if (contrib < total * _EPS and j > j0 + 2) or contrib == 0.0:
            break
    else:
        raise ValueError(
            f"noncentral chi-square mixture ({x}, {df}, {noncentrality}) did not converge "
            f"in {_MAX_ITER} terms"
        )

    # downward from the mode: P(a) = P(a+1) + t(a); below the mode the Poisson
    # weight only shrinks and P <= 1, so once the weight underflows every later
    # contribution is exactly 0
    p = p_center
    for j in range(j0 - 1, -1, -1):
        p = min(p + gamma_term(j), 1.0)
        w = exp(_log_poisson_pmf(j, half_nc))
        if w == 0.0:
            break
        contrib = w * p
        total += contrib
        if contrib < total * _EPS and j < j0 - 2:
            break

    return min(total, 1.0)


def noncentral_chi2_sf(x: float, df: float, noncentrality: float) -> float:
    """Pr(X > x) for the noncentral chi-square law."""
    return max(1.0 - noncentral_chi2_cdf(x, df, noncentrality), 0.0)
