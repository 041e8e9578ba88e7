import math

import numpy as np
import pytest

from difading import (
    ChannelModel,
    Codebook,
    ChannelRealization,
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
    substream,
    type1_chebyshev_bound,
    type2_chebyshev_bound,
)
from difading import oracles
from difading.estimation import CSV_HEADER
from helpers import point_mass, two_codeword_codebook


def test_type1_noiseless_limit_never_rejects():
    cb = two_codeword_codebook(16, 1.0, 0.0, distance=1.0)
    model = ChannelModel("fast", 1e-12, FadingSpec.uniform(0.5, 1.5))
    report = estimate_type1(cb, model, 1, delta=0.25, plan=TrialPlan(10_000, seed=1))
    assert report.estimate == 0.0


def test_type1_matches_chi_square_oracle():
    n = 16
    delta = 0.25
    cb = two_codeword_codebook(n, 1.0, 0.0, distance=1.0)
    model = ChannelModel("fast", 1.0, point_mass(1.0))
    report = estimate_type1(cb, model, 1, delta, TrialPlan(50_000, seed=2))
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
    report = estimate_type2(cb, model, 1, 2, delta, TrialPlan(50_000, seed=3))
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
    report = estimate_type2(cb, model, 1, 2, delta_n(1.0, eps), TrialPlan(10_000, seed=4))
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
    rep1 = estimate_type1(cb, model, 1, 0.1, plan)
    rep2 = estimate_type2(cb, model, 1, 2, 0.1, plan)
    joint = math.sqrt(rep1.stderr**2 + rep2.stderr**2)
    assert abs(rep1.estimate + rep2.estimate - 1.0) <= 3.0 * max(joint, 1e-9)


def test_type2_deterministic_rejection_when_far():
    n = 8
    cb = two_codeword_codebook(n, 4.0, 0.0, distance=3.0)
    model = ChannelModel("fast", 1e-10, point_mass(1.0))
    report = estimate_type2(cb, model, 1, 2, delta=0.5, plan=TrialPlan(5_000, seed=6))
    assert report.estimate == 0.0


def test_type2_rejects_equal_messages():
    cb = two_codeword_codebook(8, 1.0, 0.0, distance=0.5)
    model = ChannelModel("fast", 1.0, point_mass(1.0))
    with pytest.raises(ValueError):
        estimate_type2(cb, model, 1, 1, 0.1, TrialPlan(10, seed=0))


def test_gain_argument_policy():
    cb = two_codeword_codebook(8, 1.0, 0.0, distance=0.5)
    fast = ChannelModel("fast", 1.0, FadingSpec.uniform(0.5, 1.5))
    slow = ChannelModel("slow", 1.0, FadingSpec.uniform(0.5, 1.5))
    plan = TrialPlan(10, seed=0)
    with pytest.raises(ValueError):
        estimate_type1(cb, fast, 1, 0.1, plan, gain=1.0)
    with pytest.raises(ValueError):
        estimate_type1(cb, slow, 1, 0.1, plan)
    with pytest.raises(ValueError):
        estimate_type1(cb, slow, 1, 0.1, plan, gain=0.1)  # outside support
    report = estimate_type1(cb, slow, 1, 0.1, plan, gain=1.0)
    assert 0.0 <= report.estimate <= 1.0


def test_worst_case_singleton_equals_conditional():
    cb = two_codeword_codebook(8, 1.0, 0.0, distance=0.5)
    slow = ChannelModel("slow", 0.5, point_mass(1.2))
    plan = TrialPlan(5_000, seed=7)
    single = estimate_type1(cb, slow, 1, 0.1, plan, gain=1.2)
    worst = estimate_worst_case(cb, slow, 1, None, 0.1, [1.2], plan)
    assert worst.estimate == single.estimate
    assert worst.argmax_gain == 1.2
    assert len(worst.per_gain) == 1


def test_worst_case_type1_is_gain_free_under_crn():
    cb = two_codeword_codebook(8, 1.0, 0.0, distance=0.5)
    slow = ChannelModel("slow", 0.5, FadingSpec.uniform(0.5, 1.5))
    plan = TrialPlan(4_000, seed=8)
    worst = estimate_worst_case(cb, slow, 1, None, 0.1, [0.5, 1.0, 1.5], plan)
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
    w1 = estimate_worst_case(cb, slow, 1, None, delta, spec.support_grid(), plan)
    w2 = estimate_worst_case(cb, slow, 2, 1, delta, spec.support_grid(), plan)
    p1_zero = next(r for r in w1.per_gain if r.gain == 0.0)
    p2_zero = next(r for r in w2.per_gain if r.gain == 0.0)
    joint = math.sqrt(p1_zero.stderr**2 + p2_zero.stderr**2)
    assert abs(p1_zero.estimate + p2_zero.estimate - 1.0) <= 3.0 * max(joint, 1e-9)


def test_worst_case_validation():
    cb = two_codeword_codebook(8, 1.0, 0.0, distance=0.5)
    slow = ChannelModel("slow", 1.0, FadingSpec.uniform(0.5, 1.5))
    fast = ChannelModel("fast", 1.0, FadingSpec.uniform(0.5, 1.5))
    plan = TrialPlan(10, seed=0)
    with pytest.raises(ValueError):
        estimate_worst_case(cb, fast, 1, None, 0.1, [1.0], plan)
    with pytest.raises(ValueError):
        estimate_worst_case(cb, slow, 1, None, 0.1, [], plan)


def test_common_random_numbers_pair_noise_across_gains():
    # same plan seed: the noise chunk streams are identical for every gain
    a = substream(42, "noise", 0).standard_normal(16)
    b = substream(42, "noise", 0).standard_normal(16)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("error_type", ["type1", "type2"])
def test_vectorized_estimator_matches_per_trial_channel_path(error_type):
    # the chunked simulator must agree with apply_channel + identify trial by
    # trial; type I is counted from ||z||^2 alone, without drawing any gains.
    # 5000 trials span a full and a partial chunk.
    n = 10
    trials = 5_000
    sigma_z2 = 0.6
    delta = 0.2
    cb = two_codeword_codebook(n, 1.0, 0.0, distance=0.7)
    spec = FadingSpec.uniform(0.5, 1.5)
    model = ChannelModel("fast", sigma_z2, spec)
    plan = TrialPlan(trials, seed=10)
    if error_type == "type1":
        test = 1
        report = estimate_type1(cb, model, 1, delta, plan)
    else:
        test = 2
        report = estimate_type2(cb, model, 1, 2, delta, plan)

    sizes = (4096, trials - 4096)
    noise_scale = math.sqrt(sigma_z2 / n)
    z = np.concatenate([
        substream(plan.seed, "noise", k).standard_normal((size, n)) for k, size in enumerate(sizes)
    ]) * noise_scale
    gains = np.concatenate([
        spec.sample(substream(plan.seed, "gains", k), size * n).reshape(size, n)
        for k, size in enumerate(sizes)
    ])
    rule = DecoderRule(cb, sigma_z2, delta, flavor="fast")
    accepted = 0
    for t in range(trials):  # each trial is a chunk of one
        realization = ChannelRealization(gains[t : t + 1], z[t : t + 1])
        y = apply_channel(model, cb.codeword(1), realization, cb.power_budget)
        accepted += identify(rule, y[0], test, gains[t])
    expected = 1.0 - accepted / trials if error_type == "type1" else accepted / trials
    assert report.estimate == pytest.approx(expected, abs=1e-12)
    assert 0.0 < report.estimate < 1.0  # neither always nor never accepted


def test_type1_draws_no_gains(monkeypatch):
    # with CSI the gains cancel out of ||y - g o u_i||^2 = ||z||^2
    def no_gains(self, rng, size):
        raise AssertionError("a type I estimate drew fading gains")

    cb = two_codeword_codebook(8, 1.0, 0.0, distance=0.5)
    spec = FadingSpec.uniform(0.5, 1.5)
    plan = TrialPlan(5_000, seed=17)
    expected = estimate_type1(cb, ChannelModel("fast", 1.0, spec), 1, 0.1, plan).estimate
    monkeypatch.setattr(FadingSpec, "sample", no_gains)
    fast = estimate_type1(cb, ChannelModel("fast", 1.0, spec), 1, 0.1, plan, workers=2)
    slow = estimate_worst_case(cb, ChannelModel("slow", 1.0, spec), 1, None, 0.1, [0.5, 1.5], plan)
    assert fast.estimate == slow.estimate == expected  # same noise, same ||z||^2
    with pytest.raises(AssertionError, match="drew fading gains"):
        estimate_type2(cb, ChannelModel("fast", 1.0, spec), 1, 2, 0.1, plan)


def test_worst_case_matches_per_trial_channel_path():
    # one noise pass serving the grid must agree with apply_channel + identify
    # run trial by trial at each gain; 5000 trials span a full and a partial chunk
    n = 10
    trials = 5_000
    sigma_z2 = 0.6
    delta = 0.2
    grid = [0.5, 1.0, 1.5]
    cb = two_codeword_codebook(n, 1.0, 0.0, distance=0.7)
    model = ChannelModel("slow", sigma_z2, FadingSpec.uniform(0.5, 1.5))
    plan = TrialPlan(trials, seed=16)
    worst1 = estimate_worst_case(cb, model, 1, None, delta, grid, plan)
    worst2 = estimate_worst_case(cb, model, 1, 2, delta, grid, plan)

    noise_scale = math.sqrt(sigma_z2 / n)
    z = np.concatenate([
        substream(plan.seed, "noise", 0).standard_normal((4096, n)),
        substream(plan.seed, "noise", 1).standard_normal((trials - 4096, n)),
    ]) * noise_scale
    rule = DecoderRule(cb, sigma_z2, delta, flavor="slow")
    for g, rep1, rep2 in zip(grid, worst1.per_gain, worst2.per_gain):
        accepted = {1: 0, 2: 0}
        for t in range(trials):  # each trial is a chunk of one
            realization = ChannelRealization(np.array([g]), z[t : t + 1])
            y = apply_channel(model, cb.codeword(1), realization, cb.power_budget)
            for test in accepted:
                accepted[test] += identify(rule, y[0], test, g)
        assert rep1.gain == rep2.gain == g
        assert rep1.estimate == pytest.approx(1.0 - accepted[1] / trials, abs=1e-12)
        assert rep2.estimate == pytest.approx(accepted[2] / trials, abs=1e-12)
    assert 0.0 < worst2.estimate < 1.0  # the pair is neither always nor never confused


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


def test_report_fields_and_csv_shape():
    cb = two_codeword_codebook(8, 1.0, 0.0, distance=0.5)
    model = ChannelModel("fast", 1.0, FadingSpec.uniform(0.5, 1.5))
    report = estimate_type1(cb, model, 1, 0.1, TrialPlan(2_000, seed=11))
    assert 0.0 <= report.estimate <= 1.0
    assert report.stderr == pytest.approx(
        math.sqrt(report.estimate * (1 - report.estimate) / report.trials), rel=1e-12
    )
    rows = report.csv_rows()
    assert len(rows) == 1
    assert len(rows[0]) == len(CSV_HEADER)


def test_worst_case_csv_expands_per_gain():
    cb = two_codeword_codebook(8, 1.0, 0.0, distance=0.5)
    slow = ChannelModel("slow", 1.0, FadingSpec.uniform(0.5, 1.5))
    worst = estimate_worst_case(
        cb, slow, 1, 2, 0.1, [0.5, 1.0, 1.5], TrialPlan(1_000, seed=12)
    )
    rows = worst.csv_rows()
    assert len(rows) == 3
    assert [row[-1] for row in rows] == ["0.5", "1.0", "1.5"]


def test_trial_plan_validation():
    with pytest.raises(ValueError):
        TrialPlan(0, seed=0)
    with pytest.raises(ValueError):
        TrialPlan(-5, seed=0)


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


@pytest.mark.parametrize("flavor", ["fast", "slow"])
def test_workers_do_not_change_the_estimate(flavor):
    cb = two_codeword_codebook(8, 1.0, 0.0, distance=0.5)
    model = ChannelModel(flavor, 1.0, FadingSpec.uniform(0.5, 1.5))
    plan = TrialPlan(20_000, seed=15)

    def estimate(workers):
        if flavor == "fast":
            return estimate_type1(cb, model, 1, 0.1, plan, workers=workers)
        return estimate_worst_case(cb, model, 1, 2, 0.1, [0.5, 1.0, 1.5], plan, workers=workers)

    serial = estimate(1)
    parallel = estimate(4)
    assert serial.estimate == parallel.estimate
    assert [r.estimate for r in serial.per_gain] == [r.estimate for r in parallel.per_gain]
