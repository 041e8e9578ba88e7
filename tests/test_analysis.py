import dataclasses
import math

import numpy as np
import pytest

from difading import (
    Codebook,
    ScaleFn,
    achievable_rate_lower_bound,
    classify_regime,
    codebook_size_log2_bound,
    converse_rate_upper_bound,
    converse_spacing,
    dominates,
    empirical_rate,
    log2_scale,
    loglog2_scale,
    ri_capacity,
    scale_chain,
    two_codeword_codebook,
)


def test_log2_scale_values():
    assert log2_scale(ScaleFn("exp"), 10, 1.0) == pytest.approx(10.0, rel=1e-12)
    assert log2_scale(ScaleFn("superexp"), 256, 0.0731) == pytest.approx(
        256 * 8 * 0.0731, rel=1e-12
    )
    assert log2_scale(ScaleFn("linear"), 8, 2.0) == pytest.approx(4.0, rel=1e-12)
    assert log2_scale(ScaleFn("poly", k=3), 4, 1.0) == pytest.approx(6.0, rel=1e-12)
    assert log2_scale(ScaleFn("log"), 16, 1.0) == pytest.approx(2.0, rel=1e-12)
    assert log2_scale(ScaleFn("doubleexp"), 4, 1.0) == pytest.approx(16.0, rel=1e-12)


def test_loglog2_scale_values():
    assert loglog2_scale(ScaleFn("doubleexp"), 10, 1.0) == pytest.approx(10.0, rel=1e-12)
    assert loglog2_scale(ScaleFn("exp"), 16, 1.0) == pytest.approx(4.0, rel=1e-12)


def test_scale_domain_errors():
    with pytest.raises(ValueError):
        log2_scale(ScaleFn("exp"), 1, 1.0)
    with pytest.raises(ValueError):
        log2_scale(ScaleFn("exp"), 16, 0.0)
    with pytest.raises(ValueError):
        log2_scale(ScaleFn("log"), 2, 0.5)  # log2(1) = 0 has no log
    with pytest.raises(ValueError, match="overflow"):
        log2_scale(ScaleFn("doubleexp"), 2048, 1.0)
    with pytest.raises(ValueError):
        ScaleFn("poly", k=0.5)
    with pytest.raises(ValueError):
        ScaleFn("cubic")


@pytest.mark.parametrize("kind", ["superexp", "exp", "linear"])
def test_scales_raise_instead_of_returning_inf(kind):
    # 2^1020 log2(2^1020) overflows to inf; 2^1100 does not convert to a float
    scale = ScaleFn(kind)
    if kind == "superexp":
        with pytest.raises(ValueError, match="overflow"):
            log2_scale(scale, 2**1020, 1.0)
    for n, rate in ((2**1100, 1.0), (2**1020, 1e300)):
        with pytest.raises(ValueError, match="overflow"):
            log2_scale(scale, n, rate)
        with pytest.raises(ValueError, match="overflow"):
            loglog2_scale(scale, n, rate)
    with pytest.raises(ValueError, match="overflow"):
        loglog2_scale(ScaleFn("doubleexp"), 2**1100, 1.0)


def test_dominance_chain_adjacent_pairs():
    chain = scale_chain()
    for weak, strong in zip(chain, chain[1:]):
        assert dominates(strong, weak).dominates, (strong, weak)
        assert not dominates(weak, strong).dominates, (weak, strong)


def test_dominance_transitive_and_reversed():
    chain = scale_chain()
    for lo in range(len(chain)):
        for hi in range(lo + 1, len(chain)):
            assert dominates(chain[hi], chain[lo]).dominates
            assert not dominates(chain[lo], chain[hi]).dominates


def test_dominance_is_irreflexive():
    for scale in scale_chain():
        result = dominates(scale, scale)
        assert not result.dominates
        assert "same scale family" in result.reason


def test_dominance_nonunit_rates():
    assert dominates(ScaleFn("superexp"), ScaleFn("exp"), a=0.1, b=10.0).dominates
    assert dominates(ScaleFn("doubleexp"), ScaleFn("superexp"), a=0.01, b=100.0).dominates
    assert not dominates(ScaleFn("exp"), ScaleFn("superexp"), a=10.0, b=0.1).dominates


def test_dominance_poly_exponent_ordering():
    assert dominates(ScaleFn("poly", k=3), ScaleFn("poly", k=2)).dominates
    assert not dominates(ScaleFn("poly", k=2), ScaleFn("poly", k=3)).dominates
    assert not dominates(ScaleFn("poly", k=2), ScaleFn("poly", k=2)).dominates


def test_dominance_evidence_trail():
    result = dominates(ScaleFn("exp"), ScaleFn("linear"))
    assert result.domain == "log2"
    assert len(result.trail) >= 4
    ns = [n for n, _ in result.trail]
    assert ns == sorted(ns)
    result2 = dominates(ScaleFn("doubleexp"), ScaleFn("exp"))
    assert result2.domain == "loglog2"
    # the same-family verdict reports the domain its sizes were checked in
    same = dominates(ScaleFn("doubleexp"), ScaleFn("doubleexp"))
    assert (same.dominates, same.domain) == (False, "loglog2")


def test_dominance_validation():
    with pytest.raises(ValueError):
        dominates(ScaleFn("exp"), ScaleFn("linear"), a=0.0)
    with pytest.raises(ValueError):
        dominates(ScaleFn("exp"), ScaleFn("linear"), n_grid=[16, 8])
    with pytest.raises(ValueError):
        dominates(ScaleFn("exp"), ScaleFn("linear"), n_grid=[])


@pytest.mark.parametrize(
    "l1, l2, a, b, n_grid",
    [
        # the superexp size n log2(n) is inf at n = 2^1020
        (ScaleFn("superexp"), ScaleFn("exp"), 1.0, 1.0, [2**k for k in range(1004, 1021, 4)]),
        # 2^1100 does not convert to a float, so no size is finite there
        (ScaleFn("exp"), ScaleFn("linear"), 1.0, 1.0, [2**k for k in range(1084, 1101, 4)]),
        # log2(log2(nR)) is not positive at the largest n: no loglog2 size
        (ScaleFn("doubleexp"), ScaleFn("log"), 1.0, 2**-60, [2**k for k in range(4, 61, 4)]),
        # the same-family verdict does not bypass the check
        (ScaleFn("superexp"), ScaleFn("superexp"), 1.0, 1.0, [2**1016, 2**1020]),
        (ScaleFn("exp"), ScaleFn("exp"), 1.0, -1.0, None),
    ],
    ids=["superexp-overflow", "int-overflow", "loglog-undefined", "same-family-overflow",
         "same-family-negative-rate"],
)
def test_dominance_raises_when_a_size_is_undefined_at_the_largest_n(l1, l2, a, b, n_grid):
    # these returned an "insufficient evidence" or "same scale family" verdict
    with pytest.raises(ValueError):
        dominates(l1, l2, a=a, b=b, n_grid=n_grid)


# frozen by direct evaluation of the closed forms
_BOUND_POINTS = [
    (16, 0.1, -0.275, 1.1166914684757108),
    (16, 0.5, -0.375, 1.5055919532571136),
    (64, 0.25, -0.14583333333333331, 1.2513246510643667),
    (256, 0.0, 0.0, 1.0007030686492349),
    (1024, 0.1, 0.024999999999999994, 1.1000704269011248),
    (1024, 0.9, -0.17500000000000002, 1.900000275171979),
    (4096, 0.5, -0.04166666666666666, 1.5000004586195275),
    (65536, 0.0, 0.125, 1.00000137585071),
    (65536, 0.3, 0.04999999999999999, 1.3000000493890336),
    (1048576, 0.1, 0.125, 1.1000000171982631),
]


@pytest.mark.parametrize("n,b,lower,upper", _BOUND_POINTS)
def test_rate_bounds_match_frozen_values(n, b, lower, upper):
    assert achievable_rate_lower_bound(n, b) == pytest.approx(lower, abs=1e-12)
    assert converse_rate_upper_bound(n, b) == pytest.approx(upper, abs=1e-12)


def test_rate_bounds_tend_to_their_limits():
    for b in (0.0, 0.1, 0.5):
        lowers = [achievable_rate_lower_bound(2**k, b) for k in range(4, 21)]
        uppers = [converse_rate_upper_bound(2**k, b) for k in range(4, 21)]
        assert all(x < y for x, y in zip(lowers, lowers[1:]))  # increasing toward the limit
        assert all(x > y for x, y in zip(uppers, uppers[1:]))  # decreasing toward the limit
        assert abs(lowers[-1] - 0.25 * (1.0 - b)) <= 2.0 / 20.0 + 1e-12
        assert abs(uppers[-1] - (1.0 + b)) < 1e-5


def test_rate_bounds_and_spacing_check_refuse_out_of_domain_arguments():
    for n, b in ((1, 0.1), (16, 1.0), (16, -0.1)):
        with pytest.raises(ValueError, match="block length|slack exponent"):
            achievable_rate_lower_bound(n, b)
    for n, b in ((1, 0.1), (16, -0.1)):
        with pytest.raises(ValueError, match="block length|slack exponent"):
            converse_rate_upper_bound(n, b)
    with pytest.raises(ValueError, match="at least 2 codewords"):
        converse_spacing(Codebook(16, 1.0, 0.0, "achievability", 0.25, np.zeros((1, 16))), 0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        converse_spacing(two_codeword_codebook(16, 1.0, 0.0, distance=1.0), -0.1)


def test_rate_bounds_never_cross():
    for b in np.linspace(0.0, 0.95, 20):
        for k in range(2, 21):
            assert achievable_rate_lower_bound(2**k, b) < converse_rate_upper_bound(2**k, b)


def test_codebook_size_bound_reference_point():
    bound = codebook_size_log2_bound(256, 1.0, 0.0)
    assert bound == pytest.approx(256 * (math.log2(3.0) - 1.0), rel=1e-12)
    assert bound == pytest.approx(149.755, abs=0.01)
    # guaranteed rate from the bound meets the closed-form lower bound
    for k in (8, 10, 12, 16):
        n = 2**k
        rate = codebook_size_log2_bound(n, 1.0, 0.0) / (n * math.log2(n))
        assert rate >= achievable_rate_lower_bound(n, 0.0)


def test_empirical_rate_values():
    single = two_codeword_codebook(16, 1.0, 0.0, distance=0.5)
    assert empirical_rate(single) == pytest.approx(1.0 / (16.0 * 4.0), rel=1e-12)
    # L = 1 gives rate 0
    from difading import Codebook

    lone = Codebook(16, 1.0, 0.0, "achievability", 0.25, np.zeros((1, 16)))
    assert empirical_rate(lone) == 0.0
    # monotone in L at fixed n
    rng = np.random.default_rng(3)
    words4 = rng.standard_normal((4, 16))
    words4 /= np.linalg.norm(words4, axis=1, keepdims=True) * 2.0
    four = Codebook(16, 1.0, 0.0, "achievability", 0.25, words4)
    assert empirical_rate(four) > empirical_rate(single) > empirical_rate(lone)


def test_empirical_rate_reference_value():
    # log2 L = 149.755 at n = 256 corresponds to rate ~ 0.0731
    rate = codebook_size_log2_bound(256, 1.0, 0.0) / (256 * math.log2(256))
    assert rate == pytest.approx(0.0731, abs=2e-4)


def test_converse_spacing_pass_and_fail():
    n = 16
    passing = two_codeword_codebook(n, 1.0, 0.0, distance=1.0)  # 2 sqrt(eps) apart
    check = converse_spacing(passing, 0.0)
    assert check.required_normalized == pytest.approx(1.0 / 16.0, rel=1e-12)
    assert check.required_unnormalized == pytest.approx(0.25, rel=1e-12)
    assert check.achieved_normalized == pytest.approx(1.0, rel=1e-12)
    assert check.passes

    failing = two_codeword_codebook(n, 1.0, 0.5, distance=1.0 / n**2)
    check2 = converse_spacing(failing, 0.5)
    assert check2.required_normalized == pytest.approx(n**-1.5, rel=1e-12)
    assert not check2.passes


def test_converse_spacing_requirement_shrinks_with_n():
    required = []
    for n in (8, 16, 32, 64):
        cb = two_codeword_codebook(n, 1.0, 0.2, distance=0.5)
        required.append(converse_spacing(cb, 0.2).required_normalized)
    assert all(x > y for x, y in zip(required, required[1:]))


def test_converse_spacing_needs_two_codewords():
    from difading import Codebook

    lone = Codebook(16, 1.0, 0.0, "achievability", 0.25, np.zeros((1, 16)))
    with pytest.raises(ValueError):
        converse_spacing(lone, 0.1)


_REGIME_TABLE = [
    ("fast", "exp", False, "infinite"),
    ("fast", "superexp", False, "finite_band"),
    ("fast", "doubleexp", False, "zero"),
    ("fast", "exp", True, "infinite"),
    ("fast", "superexp", True, "finite_band"),
    ("fast", "doubleexp", True, "zero"),
    ("slow", "exp", False, "infinite"),
    ("slow", "superexp", False, "finite_band"),
    ("slow", "doubleexp", False, "zero"),
    ("slow", "exp", True, "zero"),
    ("slow", "superexp", True, "zero"),
    ("slow", "doubleexp", True, "zero"),
]


@pytest.mark.parametrize("flavor,scale,zero_flag,expected", _REGIME_TABLE)
def test_classify_regime_table(flavor, scale, zero_flag, expected):
    verdict = classify_regime(flavor, scale, zero_flag)
    assert verdict.verdict == expected
    if expected == "finite_band":
        assert verdict.band == (0.25, 1.0)
    else:
        assert verdict.band is None
    assert dataclasses.astuple(verdict) == (expected, verdict.band)


def test_classify_regime_validation():
    with pytest.raises(ValueError):
        classify_regime("fast", "linear", False)
    with pytest.raises(ValueError):
        classify_regime("medium", "exp", False)


def test_regime_is_consistent_with_dominance():
    # finite band at superexp forces infinite below and zero above it
    finite = classify_regime("fast", "superexp", False)
    assert finite.verdict == "finite_band"
    assert dominates(ScaleFn("superexp"), ScaleFn("exp")).dominates
    assert classify_regime("fast", "exp", False).verdict == "infinite"
    assert dominates(ScaleFn("doubleexp"), ScaleFn("superexp")).dominates
    assert classify_regime("fast", "doubleexp", False).verdict == "zero"


def test_ri_capacity_values():
    assert ri_capacity(1.0, 1.0, 1.0) == pytest.approx(0.5, rel=1e-12)
    assert ri_capacity(1.0, 3.0, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert ri_capacity(2.0, 1.0, 4.0) == pytest.approx(0.5, rel=1e-12)
    for bad in ((0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0)):
        with pytest.raises(ValueError):
            ri_capacity(*bad)

