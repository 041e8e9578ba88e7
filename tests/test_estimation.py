import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from difading import (
    ChannelModel,
    Codebook,
    DecoderRule,
    FadingSpec,
    TrialPlan,
    apply_channel,
    delta_n,
    epsilon_schedule,
    estimate_type1,
    estimate_type2,
    estimate_worst_case,
    identify,
    near_codeword_experiment,
    realize,
    substream,
    type1_chebyshev_bound,
    type2_chebyshev_bound,
    two_codeword_codebook,
)
from difading import estimation, oracles, seeding
from helpers import point_mass


def test_type1_noiseless_limit_never_rejects():
    cb = two_codeword_codebook(16, 1.0, 0.0, distance=1.0)
    model = ChannelModel("fast", 1e-12, FadingSpec.uniform(0.5, 1.5))
    report = estimate_type1(DecoderRule(cb, model, 0.25), 1, plan=TrialPlan(10_000, seed=1))
    assert report.estimate == 0.0


def test_type1_matches_chi_square_oracle():
    n = 16
    delta = 0.25
    cb = two_codeword_codebook(n, 1.0, 0.0, distance=1.0)
    model = ChannelModel("fast", 1.0, point_mass(1.0))
    report = estimate_type1(DecoderRule(cb, model, delta), 1, TrialPlan(50_000, seed=2))
    oracle = oracles.chi2_sf(n * (1.0 + delta), n)
    assert oracle == pytest.approx(0.2202, abs=5e-4)
    assert abs(report.estimate - oracle) <= 3.0 * report.stderr


def test_type2_matches_noncentral_oracle():
    n = 16
    sigma_z2 = 1.0
    eps = epsilon_schedule(n, 1.0, 0.0, "achievability")
    distance = 2.0 * math.sqrt(eps)
    delta = delta_n(1.0, eps)
    cb = two_codeword_codebook(n, 1.0, 0.0, distance=distance)
    model = ChannelModel("fast", sigma_z2, point_mass(1.0))
    report = estimate_type2(DecoderRule(cb, model, delta), 1, 2, TrialPlan(50_000, seed=3))
    lam = n * distance**2 / sigma_z2
    oracle = oracles.noncentral_chi2_cdf(n * (sigma_z2 + delta) / sigma_z2, n, lam)
    assert abs(report.estimate - oracle) <= 3.0 * max(report.stderr, 1e-6)


def test_type2_low_noise_spec_example_is_negligible():
    # sigma_z2 = 0.01 with unit distance: the oracle tail is ~1e-174, so the
    # simulated rate must be exactly zero at this trial count
    n = 16
    eps = epsilon_schedule(n, 1.0, 0.0, "achievability")
    cb = two_codeword_codebook(n, 1.0, 0.0, distance=2.0 * math.sqrt(eps))
    model = ChannelModel("fast", 0.01, point_mass(1.0))
    rule = DecoderRule(cb, model, delta_n(1.0, eps))
    report = estimate_type2(rule, 1, 2, TrialPlan(10_000, seed=4))
    lam = n * (2.0 * math.sqrt(eps)) ** 2 / 0.01
    oracle = oracles.noncentral_chi2_cdf(n * (0.01 + delta_n(1.0, eps)) / 0.01, n, lam)
    assert oracle < 1e-20
    assert report.estimate == 0.0


def test_identical_codewords_make_errors_complementary():
    n = 12
    eps = epsilon_schedule(n, 1.0, 0.0, "achievability")
    words = np.zeros((2, n))
    words[:, 0] = 0.4  # duplicated codeword
    cb = Codebook(n, 1.0, 0.0, "achievability", eps, words)
    model = ChannelModel("fast", 0.5, point_mass(1.0))
    plan = TrialPlan(20_000, seed=5)
    rule = DecoderRule(cb, model, 0.1)
    rep1 = estimate_type1(rule, 1, plan)
    rep2 = estimate_type2(rule, 1, 2, plan)
    joint = math.sqrt(rep1.stderr**2 + rep2.stderr**2)
    assert abs(rep1.estimate + rep2.estimate - 1.0) <= 3.0 * max(joint, 1e-9)


def test_type2_deterministic_rejection_when_far():
    n = 8
    cb = two_codeword_codebook(n, 4.0, 0.0, distance=3.0)
    model = ChannelModel("fast", 1e-10, point_mass(1.0))
    report = estimate_type2(DecoderRule(cb, model, 0.5), 1, 2, plan=TrialPlan(5_000, seed=6))
    assert report.estimate == 0.0


def test_type2_rejects_equal_messages():
    cb = two_codeword_codebook(8, 1.0, 0.0, distance=0.5)
    model = ChannelModel("fast", 1.0, point_mass(1.0))
    with pytest.raises(ValueError):
        estimate_type2(DecoderRule(cb, model, 0.1), 1, 1, TrialPlan(10, seed=0))


def test_gain_argument_policy():
    cb = two_codeword_codebook(8, 1.0, 0.0, distance=0.5)
    fast = ChannelModel("fast", 1.0, FadingSpec.uniform(0.5, 1.5))
    slow = ChannelModel("slow", 1.0, FadingSpec.uniform(0.5, 1.5))
    plan = TrialPlan(10, seed=0)
    slow_rule = DecoderRule(cb, slow, 0.1)
    with pytest.raises(ValueError):
        estimate_type1(DecoderRule(cb, fast, 0.1), 1, plan, gain=1.0)
    with pytest.raises(ValueError):
        estimate_type1(slow_rule, 1, plan)
    with pytest.raises(ValueError):
        estimate_type1(slow_rule, 1, plan, gain=0.1)  # outside support
    report = estimate_type1(slow_rule, 1, plan, gain=1.0)
    assert 0.0 <= report.estimate <= 1.0


def test_worst_case_singleton_equals_conditional():
    cb = two_codeword_codebook(8, 1.0, 0.0, distance=0.5)
    slow = ChannelModel("slow", 0.5, point_mass(1.2))
    plan = TrialPlan(5_000, seed=7)
    rule = DecoderRule(cb, slow, 0.1)
    single = estimate_type1(rule, 1, plan, gain=1.2)
    worst = estimate_worst_case(rule, 1, None, [1.2], plan)
    assert worst.estimate == single.estimate
    assert worst.gain == 1.2
    assert len(worst.per_gain) == 1


def test_worst_case_type1_is_gain_free_under_crn():
    cb = two_codeword_codebook(8, 1.0, 0.0, distance=0.5)
    slow = ChannelModel("slow", 0.5, FadingSpec.uniform(0.5, 1.5))
    plan = TrialPlan(4_000, seed=8)
    worst = estimate_worst_case(DecoderRule(cb, slow, 0.1), 1, None, [0.5, 1.0, 1.5], plan)
    estimates = {rep.estimate for rep in worst.per_gain}
    assert len(estimates) == 1  # the type-I statistic does not depend on the gain


def test_worst_case_degenerate_gain_sums_to_one():
    n = 16
    eps = epsilon_schedule(n, 1.0, 0.0, "achievability")
    cb = two_codeword_codebook(n, 1.0, 0.0, distance=2.0 * math.sqrt(eps))
    spec = FadingSpec.discrete([0.0, 1.0], [0.5, 0.5], allow_zero=True)
    slow = ChannelModel("slow", 1.0, spec)
    plan = TrialPlan(10_000, seed=9)
    delta = eps / 3.0
    rule = DecoderRule(cb, slow, delta)
    w1 = estimate_worst_case(rule, 1, None, spec.support_grid(), plan)
    w2 = estimate_worst_case(rule, 2, 1, spec.support_grid(), plan)
    p1_zero = next(r for r in w1.per_gain if r.gain == 0.0)
    p2_zero = next(r for r in w2.per_gain if r.gain == 0.0)
    joint = math.sqrt(p1_zero.stderr**2 + p2_zero.stderr**2)
    assert abs(p1_zero.estimate + p2_zero.estimate - 1.0) <= 3.0 * max(joint, 1e-9)


def test_worst_case_counts_equal_the_per_gain_reference():
    # the kernel decides every gain of a chunk as one block; the reference
    # decides one gain at a time, as g^2 ||d||^2 + 2 g (d . z) + ||z||^2
    n, sigma_z2, delta, trials = 8, 0.5, 0.1, 9_000
    cb = two_codeword_codebook(n, 1.0, 0.0, distance=0.5)
    spec = FadingSpec.discrete([-0.7, 0.4, 1.3])
    plan = TrialPlan(trials, seed=22)
    s2 = sigma_z2 / n
    d = cb.codeword(1) - cb.codeword(2)
    distance_sq = float(d @ d)
    energy, cross = [], []
    for k, size in enumerate((4096, 4096, 808)):
        rng = substream(plan.seed, "noise", k)
        xi = rng.standard_normal(size)
        energy.append(s2 * (xi * xi + rng.chisquare(n - 1, size)))
        cross.append(math.sqrt(s2 * distance_sq) * xi)
    energy, cross = np.concatenate(energy), np.concatenate(cross)
    rule = DecoderRule(cb, ChannelModel("slow", sigma_z2, spec), delta)
    worst = estimate_worst_case(rule, 1, 2, spec.support_grid(), plan)
    for rep in worst.per_gain:
        stat = rep.gain * rep.gain * distance_sq + 2.0 * rep.gain * cross + energy
        assert 0 < rep.estimate == np.count_nonzero(stat <= sigma_z2 + delta) / trials


def test_worst_case_validation():
    cb = two_codeword_codebook(8, 1.0, 0.0, distance=0.5)
    slow = ChannelModel("slow", 1.0, FadingSpec.uniform(0.5, 1.5))
    fast = ChannelModel("fast", 1.0, FadingSpec.uniform(0.5, 1.5))
    plan = TrialPlan(10, seed=0)
    with pytest.raises(ValueError):
        estimate_worst_case(DecoderRule(cb, fast, 0.1), 1, None, [1.0], plan)
    with pytest.raises(ValueError):
        estimate_worst_case(DecoderRule(cb, slow, 0.1), 1, None, [], plan)


def test_worst_case_refuses_bad_input_before_any_chunk_runs(monkeypatch):
    # a gain outside the support, or i = j, used to surface only after every
    # chunk of noise had been drawn
    def no_draws(*args):
        raise AssertionError("a chunk was drawn")

    cb = two_codeword_codebook(8, 1.0, 0.0, distance=0.5)
    rule = DecoderRule(cb, ChannelModel("slow", 1.0, FadingSpec.uniform(0.5, 1.5)), 0.1)
    plan = TrialPlan(10_000, seed=0)
    monkeypatch.setattr(estimation, "substream", no_draws)
    too_long = np.linspace(0.5, 1.5, estimation.MAX_GRID_POINTS + 1)
    for j, grid in ((None, [0.5, 1.7]), (2, [0.4, 1.0]), (1, [0.5, 1.0]), (2, too_long)):
        with pytest.raises(ValueError,
                           match="outside the fading support|distinct messages|MAX_GRID_POINTS"):
            estimate_worst_case(rule, 1, j, grid, plan)


def test_estimates_hold_no_per_trial_array():
    # each chunk is reduced to its counts: the peak must not grow with the
    # trial count (storing ||z||^2 and d . z for a million trials took 30 MB)
    cb = two_codeword_codebook(8, 1.0, 0.0, distance=0.5)
    spec = FadingSpec.uniform(0.5, 1.5)
    slow_rule = DecoderRule(cb, ChannelModel("slow", 1.0, spec), 0.1)
    fast_rule = DecoderRule(cb, ChannelModel("fast", 1.0, spec), 0.1)
    plan = TrialPlan(1_000_000, seed=21)
    for estimate in (
        lambda: estimate_worst_case(slow_rule, 1, None, [0.5, 1.0, 1.5], plan),
        lambda: estimate_worst_case(slow_rule, 1, 2, [0.5, 1.0, 1.5], plan),
        lambda: estimate_type1(fast_rule, 1, plan),
    ):
        tracemalloc.start()
        try:
            estimate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


@pytest.mark.parametrize("workers", [1, 2])
def test_estimate_memory_does_not_grow_with_the_chunk_count(monkeypatch, workers):
    # 250 and 2000 chunks of 4 trials: every chunk's result (and its future) was
    # kept until the last chunk ended, 0.3 to 1.7 KB a chunk
    monkeypatch.setattr(estimation, "_CHUNK", 4)
    monkeypatch.setattr(seeding, "_WORKERS", workers)
    model = ChannelModel("fast", 1.0, FadingSpec.uniform(0.5, 1.5))
    rule = DecoderRule(two_codeword_codebook(8, 1.0, 0.0, distance=0.5), model, 0.1)
    peaks = []
    for trials in (1000, 8000):
        tracemalloc.start()
        try:
            estimate_type1(rule, 1, TrialPlan(trials, seed=3))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 50_000


@pytest.mark.parametrize("workers", [1, 3])
def test_run_chunks_adds_the_chunk_results_in_chunk_order(monkeypatch, workers):
    # list addition concatenates, so the sum spells out the order of its terms;
    # 15 chunks are more than the 2 * workers that may be in flight
    monkeypatch.setattr(seeding, "_WORKERS", workers)
    expected = [(k, 7) for k in range(14)] + [(14, 2)]
    assert seeding.run_chunks(lambda item: [item], 100, 7) == expected
    assert seeding.run_chunks(lambda item: [item], 7, 7) == [(0, 7)]


def test_common_random_numbers_pair_noise_across_gains():
    # same plan seed: the noise chunk streams are identical for every gain
    a = substream(42, "noise", 0).standard_normal(16)
    b = substream(42, "noise", 0).standard_normal(16)
    assert np.array_equal(a, b)


# The estimators draw the decoder statistic from its chi-square law, the
# literal channel path draws the noise vector: the two must agree in
# distribution, and both with the scipy oracle.  200k trials give a binomial
# standard error of at most 0.0012 per acceptance rate.
_LAW_TRIALS = 200_000
_LAW_DELTAS = (0.05, 0.15, 0.4)


def _literal_statistics(model, cb, test, plan):
    """||y - g o u_test||^2 of the literal path (realize, apply_channel) with u_1 sent."""
    rule = DecoderRule(cb, model, 0.2)
    full, rem = divmod(plan.trials, 4096)
    chunks = []
    for k, size in enumerate([4096] * full + ([rem] if rem else [])):
        realization = realize(model, size, cb.dimension, plan.seed, k)
        y = apply_channel(model, cb.codeword(1), realization, cb.power_budget)
        stat = rule.statistic(y, test, realization.gains)
        if k == 0:  # identify is the rule's one-trial case
            decisions = [identify(rule, y[t], test, realization.gains[t]) for t in range(200)]
            assert decisions == list(rule.accepts(stat[:200]))
        chunks.append(stat)
    return np.concatenate(chunks)


def _assert_same_law(estimated, literal, oracle, trials):
    # each rate is binomial around the oracle; the two samplers transform the
    # same streams differently, so their draws are not shared
    se = math.sqrt(max(oracle * (1.0 - oracle), 1e-6) / trials)
    assert abs(estimated - oracle) <= 4.0 * se
    assert abs(literal - oracle) <= 4.0 * se
    assert abs(estimated - literal) <= 4.0 * math.sqrt(2.0) * se


@pytest.mark.parametrize("error_type", ["type1", "type2"])
def test_fast_estimator_matches_channel_path_and_chi2_law(error_type):
    n = 10
    sigma_z2 = 0.6
    s2 = sigma_z2 / n
    distance = 0.7
    cb = two_codeword_codebook(n, 1.0, 0.0, distance=distance)
    spec = FadingSpec.uniform(0.5, 1.5)
    model = ChannelModel("fast", sigma_z2, spec)
    plan = TrialPlan(_LAW_TRIALS, seed=10)
    test = 1 if error_type == "type1" else 2
    literal = _literal_statistics(model, cb, test, plan)
    for delta in _LAW_DELTAS:
        x = (sigma_z2 + delta) / s2
        if error_type == "type1":
            accept = 1.0 - estimate_type1(DecoderRule(cb, model, delta), 1, plan).estimate
            oracle = stats.chi2.cdf(x, n)
        else:
            accept = estimate_type2(DecoderRule(cb, model, delta), 1, 2, plan).estimate
            # the pair differs on one axis: average the law over that axis' gain
            oracle = integrate.quad(
                lambda g: stats.ncx2.cdf(x, n, (g * distance) ** 2 / s2), spec.gamma, spec.g_max
            )[0] / (spec.g_max - spec.gamma)
        assert 0.05 < oracle < 0.95  # each threshold cuts the body of the law
        _assert_same_law(accept, float(np.mean(literal <= sigma_z2 + delta)), oracle, plan.trials)


def test_type1_draws_no_gains(monkeypatch):
    # with CSI the gains cancel out of ||y - g o u_i||^2 = ||z||^2
    def no_gains(self, rng, size):
        raise AssertionError("a type I estimate drew fading gains")

    cb = two_codeword_codebook(8, 1.0, 0.0, distance=0.5)
    spec = FadingSpec.uniform(0.5, 1.5)
    plan = TrialPlan(5_000, seed=17)
    fast_rule = DecoderRule(cb, ChannelModel("fast", 1.0, spec), 0.1)
    slow_rule = DecoderRule(cb, ChannelModel("slow", 1.0, spec), 0.1)
    expected = estimate_type1(fast_rule, 1, plan).estimate
    monkeypatch.setattr(FadingSpec, "sample", no_gains)
    fast = estimate_type1(fast_rule, 1, plan)
    slow = estimate_worst_case(slow_rule, 1, None, [0.5, 1.5], plan)
    assert fast.estimate == slow.estimate == expected  # same noise, same ||z||^2
    with pytest.raises(AssertionError, match="drew fading gains"):
        estimate_type2(fast_rule, 1, 2, plan)


def test_worst_case_matches_channel_path_and_chi2_law():
    n = 10
    sigma_z2 = 0.6
    s2 = sigma_z2 / n
    distance = 0.7
    grid = [0.5, 1.0, 1.5]
    cb = two_codeword_codebook(n, 1.0, 0.0, distance=distance)
    model = ChannelModel("slow", sigma_z2, FadingSpec.uniform(0.5, 1.5))
    plan = TrialPlan(_LAW_TRIALS, seed=16)
    # the literal path at gain g: a slow channel whose gain is always g
    literal = {
        (g, test): _literal_statistics(
            ChannelModel("slow", sigma_z2, point_mass(g)), cb, test, plan
        )
        for g in grid
        for test in (1, 2)
    }
    for delta in _LAW_DELTAS:
        x = (sigma_z2 + delta) / s2
        rule = DecoderRule(cb, model, delta)
        worst1 = estimate_worst_case(rule, 1, None, grid, plan)
        worst2 = estimate_worst_case(rule, 1, 2, grid, plan)
        for g, rep1, rep2 in zip(grid, worst1.per_gain, worst2.per_gain):
            assert rep1.gain == rep2.gain == g
            for test, accept, oracle in (
                (1, 1.0 - rep1.estimate, stats.chi2.cdf(x, n)),
                (2, rep2.estimate, stats.ncx2.cdf(x, n, (g * distance) ** 2 / s2)),
            ):
                accepted = float(np.mean(literal[g, test] <= sigma_z2 + delta))
                _assert_same_law(accept, accepted, oracle, plan.trials)
    assert 0.0 < worst2.estimate < 1.0  # the pair is neither always nor never confused


def test_block_length_one_matches_the_chi2_law():
    # at n = 1 the slow sampler has no chi2_{n-1} term to draw (numpy refuses df = 0)
    sigma_z2, delta, d = 0.6, 0.3, 0.8
    cb = Codebook(1, 1.0, 0.0, "achievability", 0.1, np.array([[0.5 * d], [-0.5 * d]]))
    plan = TrialPlan(50_000, seed=18)
    x = (sigma_z2 + delta) / sigma_z2  # s^2 = sigma_z2 at n = 1
    fast = ChannelModel("fast", sigma_z2, point_mass(1.2))
    slow = ChannelModel("slow", sigma_z2, point_mass(1.2))
    missed = stats.chi2.sf(x, 1)
    confused = stats.ncx2.cdf(x, 1, (1.2 * d) ** 2 / sigma_z2)
    fast_rule, slow_rule = DecoderRule(cb, fast, delta), DecoderRule(cb, slow, delta)
    reports = (
        (estimate_type1(fast_rule, 1, plan), missed),
        (estimate_type2(fast_rule, 1, 2, plan), confused),
        (estimate_worst_case(slow_rule, 1, None, [1.2], plan), missed),
        (estimate_worst_case(slow_rule, 1, 2, [1.2], plan), confused),
    )
    for report, oracle in reports:
        assert abs(report.estimate - oracle) <= 4.0 * math.sqrt(oracle * (1 - oracle) / plan.trials)


def test_identical_codewords_draw_no_gains(monkeypatch):
    # d = 0: the noncentrality is 0 and no coordinate needs a gain
    def no_gains(self, rng, size):
        raise AssertionError("a pair with d = 0 drew fading gains")

    n = 12
    words = np.zeros((2, n))
    words[:, 0] = 0.4
    cb = Codebook(n, 1.0, 0.0, "achievability", 0.1, words)
    model = ChannelModel("fast", 0.5, FadingSpec.uniform(0.5, 1.5))
    plan = TrialPlan(5_000, seed=19)
    monkeypatch.setattr(FadingSpec, "sample", no_gains)
    rule = DecoderRule(cb, model, 0.1)
    rep1 = estimate_type1(rule, 1, plan)
    rep2 = estimate_type2(rule, 1, 2, plan)
    joint = math.sqrt(rep1.stderr**2 + rep2.stderr**2)
    assert abs(rep1.estimate + rep2.estimate - 1.0) <= 3.0 * joint


def test_fast_type2_draws_gains_only_where_the_pair_differs(monkeypatch):
    n, trials, m = 8, 5_000, 3
    words = np.zeros((2, n))
    words[0, :m] = [0.3, -0.2, 0.1]
    cb = Codebook(n, 1.0, 0.0, "achievability", 0.1, words)
    model = ChannelModel("fast", 0.5, FadingSpec.uniform(0.5, 1.5))
    drawn = []
    sample = FadingSpec.sample

    def counted(self, rng, size):
        drawn.append(size)
        return sample(self, rng, size)

    monkeypatch.setattr(FadingSpec, "sample", counted)
    estimate_type2(DecoderRule(cb, model, 0.1), 1, 2, TrialPlan(trials, seed=20))
    assert drawn == [m * 4096, m * (trials - 4096)]  # m gains per trial, one draw per chunk


def test_chebyshev_bound_formulas():
    assert type1_chebyshev_bound(16, 0.0, 1.0, 1.0, 1.0) == pytest.approx(27.0, rel=1e-12)
    assert type1_chebyshev_bound(16, 0.5, 1.0, 1.0, 1.0) == pytest.approx(27.0 / 4.0, rel=1e-12)
    spec = FadingSpec.uniform(0.5, 1.5)
    expected_eta1 = 144.0 * 2.0 * spec.second_moment / (0.5**4 * 1.0 * 16**0.5)
    total = type2_chebyshev_bound(16, 0.5, 1.0, 0.5, 2.0, spec.second_moment)
    assert total == pytest.approx(
        type1_chebyshev_bound(16, 0.5, 1.0, 0.5, 2.0) + expected_eta1, rel=1e-12
    )
    with pytest.raises(ValueError):
        type1_chebyshev_bound(16, 0.0, 1.0, 0.0, 1.0)


def test_chebyshev_bounds_saturate_outside_the_float_range():
    # gamma^4 underflows to 0.0: the direct form divides by zero
    assert type1_chebyshev_bound(16, 0.0, 1.0, 1e-90, 1.0) == math.inf
    assert type2_chebyshev_bound(16, 0.0, 1.0, 1e-90, 1.0, 0.75) == math.inf
    # E[G^2] of a gain of 1e-170 underflows to 0.0 as well
    assert type2_chebyshev_bound(16, 0.0, 1.0, 1e-170, 1.0, 0.0) == math.inf
    # A^2 overflows: the bound underflows to 0.0 and the cross term stays finite
    assert type1_chebyshev_bound(8, 0.0, 1e200, 0.5, 0.3) == 0.0
    eta1 = 144.0 * 0.3 * 1.0 / (0.5**4 * 1e200)
    assert type2_chebyshev_bound(8, 0.0, 1e200, 0.5, 0.3, 1.0) == eta1
    # a representable value behind an overflowing power is still found
    assert type1_chebyshev_bound(1, 0.0, 1e200, 1.0, 1e200) == pytest.approx(27.0, rel=1e-9)


def test_chebyshev_bounds_equal_the_former_direct_expressions_bit_for_bit():
    grid = itertools.product((2, 16, 100, 4096), (0.0, 0.1, 0.5, 0.9), (0.25, 1.0, 3.0),
                             (0.1, 0.5, 1.0, 1.7), (0.01, 0.3, 1.0, 4.0), (0.3, 1.0, 2.9))
    for n, b, power, gamma, sigma_z2, second_moment in grid:
        type1 = 27.0 * sigma_z2**2 / (n**b * power**2 * gamma**4)
        eta1 = 144.0 * sigma_z2 * second_moment / (gamma**4 * power * n**b)
        assert type1_chebyshev_bound(n, b, power, gamma, sigma_z2) == type1
        assert type2_chebyshev_bound(n, b, power, gamma, sigma_z2, second_moment) == type1 + eta1


def test_trial_plan_validation():
    with pytest.raises(ValueError):
        TrialPlan(0, seed=0)
    with pytest.raises(ValueError):
        TrialPlan(-5, seed=0)
    # 2.5 failed inside a worker with a numpy TypeError; True ran one trial
    for bad in (2.5, 100.0, True, "10"):
        with pytest.raises(ValueError, match="trials must be an integer"):
            TrialPlan(bad, seed=0)
    assert TrialPlan(np.int64(10), seed=0).trials == 10
    # seed 1.5 drew the stream of seed 1
    for bad in (1.5, 1.0, True, "1"):
        with pytest.raises(ValueError, match="seed must be an integer"):
            TrialPlan(10, seed=bad)
    assert TrialPlan(10, seed=np.int64(-3)).seed == -3


def test_accepts_keyword_is_a_count_of_the_trials():
    cb = two_codeword_codebook(8, 1.0, 0.0, distance=0.5)
    rule = DecoderRule(cb, ChannelModel("slow", 1.0, FadingSpec.uniform(0.5, 1.5)), 0.1)
    plan = TrialPlan(10, seed=0)
    assert estimate_type2(rule, 1, 2, plan, gain=1.0, accepts=3).estimate == 0.3
    assert estimate_type1(rule, 1, plan, gain=1.0, accepts=np.int64(10)).estimate == 0.0
    for bad in (11, -1, 2.5, True):
        with pytest.raises(ValueError, match="accepts"):
            estimate_type1(rule, 1, plan, gain=1.0, accepts=bad)


def test_near_codeword_mechanism_and_witness():
    plan = TrialPlan(10_000, seed=13)
    report = near_codeword_experiment(64, 1.0, 0.1, 1.0, point_mass(1.0), plan)
    assert report.error_sum >= 0.9
    assert report.oracle_sum is not None
    assert abs(report.error_sum - report.oracle_sum) <= 3.0 * report.joint_stderr
    assert report.alpha_n == pytest.approx(64.0 ** (-0.6), rel=1e-12)
    assert report.normalized_distance == pytest.approx(64.0 ** (-1.1), rel=1e-12)


def test_near_codeword_far_apart_variant_is_distinguishable():
    n, b, sigma_z2 = 1024, 0.01, 0.001
    eps = epsilon_schedule(n, 1.0, b, "achievability")
    distance = 10.0 * math.sqrt(sigma_z2 + delta_n(1.0, eps))
    plan = TrialPlan(3_000, seed=14)
    report = near_codeword_experiment(
        n, 1.0, b, sigma_z2, point_mass(1.0), plan, normalized_distance=distance
    )
    assert report.type2.estimate == 0.0
    assert report.error_sum == pytest.approx(report.type1.estimate, abs=1e-12)
    assert report.error_sum <= 0.05


def test_near_codeword_rejects_overweight_distance():
    with pytest.raises(ValueError):
        near_codeword_experiment(
            16, 1.0, 0.1, 1.0, point_mass(1.0), TrialPlan(10, seed=0), normalized_distance=3.0
        )
    for distance in (0.0, -1.0):
        with pytest.raises(ValueError, match="distance"):
            near_codeword_experiment(16, 1.0, 0.1, 1.0, point_mass(1.0), TrialPlan(10, seed=0),
                                     normalized_distance=distance)


@pytest.mark.parametrize("n", [estimation.NEAR_CODEWORD_MAX_N + 1, 10**12])
def test_near_codeword_refuses_an_n_above_its_cap(monkeypatch, n):
    # n = 10^12 raised numpy's 14.6 TiB MemoryError when the pair was allocated
    monkeypatch.setattr(estimation, "two_codeword_codebook", lambda *args: pytest.fail("built"))
    with pytest.raises(ValueError, match="NEAR_CODEWORD_MAX_N"):
        near_codeword_experiment(n, 1.0, 0.1, 1.0, point_mass(1.0), TrialPlan(10, seed=0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma_z2", [1e-320, 3e-310])
def test_fast_type2_refuses_a_noncentrality_past_the_float_range(sigma_z2):
    # 1e-320: d_k^2 / s^2 overflows; 3e-310: it is finite but g^2 d_k^2 / s^2 is not.
    # Both reported p2 = 0.0 or less, though the pair lies in each other's region.
    n = 16
    cb = two_codeword_codebook(n, 1.0, 0.1, 16.0 ** (-1.1), "converse_spacing")
    delta = delta_n(0.5, epsilon_schedule(n, 1.0, 0.1, "achievability"))
    spec = FadingSpec.uniform(0.5, 1.5)
    rule = DecoderRule(cb, ChannelModel("fast", sigma_z2, spec), delta)
    with pytest.raises(ValueError, match="noise variance"):
        estimate_type2(rule, 2, 1, TrialPlan(2000, seed=0))
    # type I and slow type II never form that noncentrality
    assert estimate_type1(rule, 1, TrialPlan(2000, seed=0)).estimate == 0.0
    slow = DecoderRule(cb, ChannelModel("slow", sigma_z2, spec), delta)
    worst = estimate_worst_case(slow, 2, 1, [0.5, 1.5], TrialPlan(2000, seed=0))
    assert worst.estimate == 1.0


@pytest.mark.parametrize("flavor", ["fast", "slow"])
def test_workers_do_not_change_the_estimate(flavor, monkeypatch):
    # 20000 trials span five chunks; the pool size must not change any estimate
    cb = two_codeword_codebook(8, 1.0, 0.0, distance=0.5)
    model = ChannelModel(flavor, 1.0, FadingSpec.uniform(0.5, 1.5))
    plan = TrialPlan(20_000, seed=15)

    rule = DecoderRule(cb, model, 0.1)

    def estimate(workers):
        monkeypatch.setattr(seeding, "_WORKERS", workers)
        if flavor == "fast":
            return estimate_type1(rule, 1, plan), estimate_type2(rule, 1, 2, plan)
        return estimate_worst_case(rule, 1, 2, [0.5, 1.0, 1.5], plan)

    reports = [estimate(workers) for workers in (1, 2, 4)]
    assert reports[0] == reports[1] == reports[2]
