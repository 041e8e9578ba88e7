import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from difading import oracles


def test_chi2_cdf_closed_form_df2():
    # df = 2 is the exponential law: F(x) = 1 - exp(-x/2)
    for x in (0.1, 1.5, 4.0, 20.0):
        assert oracles.chi2_cdf(x, 2) == pytest.approx(1.0 - math.exp(-x / 2.0), rel=1e-13)


def test_chi2_cdf_closed_form_df4():
    for x in (0.5, 3.0, 9.0):
        expected = 1.0 - math.exp(-x / 2.0) * (1.0 + x / 2.0)
        assert oracles.chi2_cdf(x, 4) == pytest.approx(expected, rel=1e-13)


def test_chi2_cdf_closed_form_df1():
    for x in (0.2, 1.0, 6.25):
        assert oracles.chi2_cdf(x, 1) == pytest.approx(math.erf(math.sqrt(x / 2.0)), rel=1e-13)


def test_chi2_reference_point():
    # the worked type-I oracle value at n = 16, threshold 20
    assert oracles.chi2_sf(20.0, 16) == pytest.approx(0.22022064660169924, abs=1e-14)


@pytest.mark.parametrize("df", [1, 2, 3, 8, 16, 32, 100, 255])
def test_chi2_matches_scipy(df):
    for x in (0.01, 0.5 * df, float(df), 1.5 * df, 3.0 * df):
        assert oracles.chi2_cdf(x, df) == pytest.approx(stats.chi2.cdf(x, df), abs=1e-12)
        assert oracles.chi2_sf(x, df) == pytest.approx(stats.chi2.sf(x, df), abs=1e-12)


def test_chi2_sf_complements_cdf():
    for df in (3, 17):
        for x in (0.2, 5.0, 40.0):
            assert oracles.chi2_cdf(x, df) + oracles.chi2_sf(x, df) == pytest.approx(1.0, abs=1e-12)


def test_noncentral_reduces_to_central_at_zero():
    for df in (2, 9, 64):
        for x in (1.0, float(df), 2.5 * df):
            assert oracles.noncentral_chi2_cdf(x, df, 0.0) == pytest.approx(
                oracles.chi2_cdf(x, df), rel=1e-12
            )


@pytest.mark.parametrize(
    "df,nc",
    [(1, 0.5), (4, 2.0), (16, 16.0), (16, 1600.0), (64, 0.007), (256, 1.0), (100, 350.0)],
)
def test_noncentral_matches_scipy(df, nc):
    center = df + nc
    for x in (0.2 * center, 0.8 * center, center, 1.3 * center, 2.0 * center):
        assert oracles.noncentral_chi2_cdf(x, df, nc) == pytest.approx(
            stats.ncx2.cdf(x, df, nc), abs=1e-11
        )


def test_noncentral_cdf_monotone():
    xs = np.linspace(0.5, 80.0, 40)
    values = [oracles.noncentral_chi2_cdf(x, 10, 12.0) for x in xs]
    assert all(b >= a for a, b in zip(values, values[1:]))
    # raising the noncentrality shifts mass right, lowering the cdf
    lowered = [oracles.noncentral_chi2_cdf(x, 10, 20.0) for x in xs]
    assert all(lo <= hi + 1e-12 for lo, hi in zip(lowered, values))


def test_noncentral_sf_complement():
    assert oracles.noncentral_chi2_sf(12.0, 8, 3.0) == pytest.approx(
        1.0 - oracles.noncentral_chi2_cdf(12.0, 8, 3.0), abs=1e-13
    )


def test_reg_gamma_bounds_and_errors():
    assert oracles.reg_gamma_lower(2.5, 0.0) == 0.0
    assert oracles.reg_gamma_upper(2.5, 0.0) == 1.0
    with pytest.raises(ValueError):
        oracles.reg_gamma_lower(0.0, 1.0)
    with pytest.raises(ValueError):
        oracles.chi2_cdf(1.0, 0)
    with pytest.raises(ValueError):
        oracles.noncentral_chi2_cdf(1.0, 4, -0.1)


@pytest.mark.parametrize(
    "routine, args, outcome",
    [
        (oracles.reg_gamma_lower, (2.0, -1.0), "argument must be nonnegative"),
        (oracles.reg_gamma_upper, (0.0, 1.0), "shape parameter must be positive"),
        (oracles.reg_gamma_upper, (2.0, -1.0), "argument must be nonnegative"),
        (oracles.chi2_sf, (1.0, 0), "degrees of freedom"),
        (oracles.noncentral_chi2_cdf, (1.0, 0, 1.0), "degrees of freedom"),
        (oracles.chi2_cdf, (-1.0, 3), 0.0),
        (oracles.chi2_sf, (-1.0, 3), 1.0),
        (oracles.noncentral_chi2_cdf, (-1.0, 3, 2.0), 0.0),
        # non-finite arguments overflowed int(), or ran 10,000 steps to "did not converge"
        (oracles.noncentral_chi2_cdf, (10.0, 5, math.inf), "noncentrality must be .*finite"),
        (oracles.noncentral_chi2_cdf, (10.0, 5, math.nan), "noncentrality must be .*finite"),
        (oracles.noncentral_chi2_cdf, (math.nan, 5, 1.0), "argument must be .*finite"),
        (oracles.chi2_sf, (math.inf, 5), "argument must be .*finite"),
        (oracles.chi2_cdf, (math.inf, 5), "argument must be .*finite"),
        (oracles.reg_gamma_lower, (2.0, math.nan), "argument must be .*finite"),
        (oracles.reg_gamma_upper, (2.0, math.inf), "argument must be .*finite"),
        (oracles.reg_gamma_lower, (math.inf, 1.0), "shape parameter must be .*finite"),
        (oracles.reg_gamma_upper, (math.nan, 1.0), "shape parameter must be .*finite"),
    ],
    ids=["lower-x", "upper-a", "upper-x", "sf-df", "noncentral-df", "cdf-edge", "sf-edge",
         "noncentral-edge", "noncentral-inf-nc", "noncentral-nan-nc", "noncentral-nan-x",
         "sf-inf-x", "cdf-inf-x", "lower-nan-x", "upper-inf-x", "lower-inf-a", "upper-nan-a"],
)
def test_oracle_arguments_outside_the_domain(routine, args, outcome, monkeypatch):
    # a refusal names the argument and comes on entry, before any series runs;
    # below x = 0 a distribution function needs no series
    monkeypatch.setattr(oracles, "_MAX_ITER", 0)
    if isinstance(outcome, str):
        with pytest.raises(ValueError, match=outcome):
            routine(*args)
    else:
        assert routine(*args) == outcome


@pytest.mark.parametrize(
    "routine,args,max_iter,failing",
    [
        (oracles.reg_gamma_lower, (50.0, 40.0), 3, "series"),
        (oracles.reg_gamma_upper, (5.0, 40.0), 3, "continued fraction"),
        # the center gamma converges in 20 steps, the upward mixture sum does not
        (oracles.noncentral_chi2_cdf, (3000.0, 2, 2000.0), 20, "mixture"),
    ],
)
def test_unconverged_oracles_raise(monkeypatch, routine, args, max_iter, failing):
    converged = routine(*args)
    monkeypatch.setattr(oracles, "_MAX_ITER", max_iter)
    with pytest.raises(ValueError, match=f"{failing} .*did not converge"):
        routine(*args)
    monkeypatch.undo()
    assert routine(*args) == converged


def test_noncentral_far_tail_underflows_to_zero_without_iterating_out():
    # every mixture term underflows; the zero sum is exact, not a failure
    assert oracles.noncentral_chi2_cdf(12_000.0, 1024, 1.2e6) == 0.0
    assert stats.ncx2.cdf(12_000.0, 1024, 1.2e6) < 1e-300


@pytest.mark.parametrize("x,df,noncentrality", [(12_000.0, 1024, 1.2e6), (1e4, 100, 1e8)])
def test_noncentral_downward_sum_stops_once_the_weights_underflow(
    monkeypatch, x, df, noncentrality
):
    calls = 0
    log_pmf = oracles._log_poisson_pmf

    def counting(j, mean):
        nonlocal calls
        calls += 1
        return log_pmf(j, mean)

    monkeypatch.setattr(oracles, "_log_poisson_pmf", counting)
    assert oracles.noncentral_chi2_cdf(x, df, noncentrality) == 0.0
    # walking the mixture down to j = 0 would take noncentrality / 2 terms
    assert calls < 0.1 * noncentrality / 2


@pytest.mark.parametrize(
    "x,df,noncentrality,expected",
    [
        (150.0, 100, 30.0, 0.866631243970519),
        (1000.0, 200, 2000.0, 4.445155921525313e-56),
        (40.0, 16, 20.0, 0.6738097363118701),
        (3.0, 2, 0.5, 0.6959060300435138),
        (5000.0, 1000, 3000.0, 0.999999999999884),
    ],
)
def test_noncentral_converged_values_are_pinned_to_the_bit(x, df, noncentrality, expected):
    assert oracles.noncentral_chi2_cdf(x, df, noncentrality) == expected


@settings(max_examples=300, deadline=None)
@given(
    df=st.one_of(st.integers(1, 2000), st.floats(0.5, 2000.0)),
    noncentrality=st.floats(0.0, 2000.0),
    position=st.floats(1e-6, 1.0),
)
def test_oracles_match_scipy_over_random_arguments(df, noncentrality, position):
    # x runs up to 3 (df + lambda) + 10, well past the bulk of both laws; it
    # stays above 1e-6 of that because scipy.stats.ncx2 itself overflows near
    # x = 1e-38 (boost tgamma)
    x = position * (3.0 * (df + noncentrality) + 10.0)
    assert oracles.chi2_cdf(x, df) == pytest.approx(stats.chi2.cdf(x, df), abs=1e-11)
    assert oracles.chi2_sf(x, df) == pytest.approx(stats.chi2.sf(x, df), abs=1e-11)
    assert oracles.noncentral_chi2_cdf(x, df, noncentrality) == pytest.approx(
        stats.ncx2.cdf(x, df, noncentrality), abs=1e-11
    )
    assert oracles.noncentral_chi2_sf(x, df, noncentrality) == pytest.approx(
        stats.ncx2.sf(x, df, noncentrality), abs=1e-11
    )


def test_subnormal_noncentrality_is_the_central_law():
    # 5e-324 halves to 0.0: the Poisson mixture would take log(0)
    for x, df in ((3.0, 1), (20.0, 16)):
        assert oracles.noncentral_chi2_cdf(x, df, 5e-324) == oracles.chi2_cdf(x, df)
