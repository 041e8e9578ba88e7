import math
import time

import numpy as np
import pytest
from scipy import integrate

from difading import (
    ChannelModel,
    ChannelRealization,
    Codebook,
    FadingSpec,
    apply_channel,
    realize,
    substream,
)
from helpers import point_mass


def test_point_mass_fast_gains_are_constant():
    gains = realize(ChannelModel("fast", 1.0, point_mass(1.0)), 3, 4, seed=0, chunk=0).gains
    assert np.array_equal(gains, np.ones((3, 4)))


def test_uniform_slow_gain_mean_matches_oracle():
    model = ChannelModel("slow", 1.0, FadingSpec.uniform(0.5, 1.5))
    draws = realize(model, 100_000, 8, seed=123, chunk=0).gains
    assert draws.shape == (100_000,)
    assert draws.min() >= 0.5 and draws.max() <= 1.5
    stderr = (1.0 / math.sqrt(12.0)) / math.sqrt(draws.size)
    assert abs(draws.mean() - 1.0) <= 3.0 * stderr


def test_discrete_frequencies_match_binomial_oracle():
    model = ChannelModel("fast", 1.0, FadingSpec.discrete([0.5, 2.0], [0.3, 0.7]))
    gains = realize(model, 10, 10_000, seed=5, chunk=0).gains
    freq = float(np.mean(gains == 2.0))
    stderr = math.sqrt(0.7 * 0.3 / gains.size)
    assert abs(freq - 0.7) <= 3.0 * stderr


def test_truncated_rayleigh_moments_match_quadrature():
    scale, lo, hi = 0.8, 0.5, 2.0
    spec = FadingSpec.truncated_rayleigh(scale, lo, hi)

    def pdf(x):
        return (x / scale**2) * math.exp(-0.5 * (x / scale) ** 2)

    mass, _ = integrate.quad(pdf, lo, hi)
    mean, _ = integrate.quad(lambda x: x * pdf(x), lo, hi)
    second, _ = integrate.quad(lambda x: x * x * pdf(x), lo, hi)
    assert spec.mean == pytest.approx(mean / mass, rel=1e-10)
    assert spec.second_moment == pytest.approx(second / mass, rel=1e-10)


def test_truncated_rayleigh_sampling_matches_moments():
    spec = FadingSpec.truncated_rayleigh(1.0, 0.5, 2.0)
    gains = spec.sample(substream(7, "gains"), 200_000)
    assert gains.min() >= 0.5 and gains.max() <= 2.0
    mean_se = gains.std() / math.sqrt(gains.size)
    assert abs(gains.mean() - spec.mean) <= 4.0 * mean_se
    second = gains**2
    second_se = second.std() / math.sqrt(gains.size)
    assert abs(second.mean() - spec.second_moment) <= 4.0 * second_se


def test_gains_respect_support_infimum():
    for spec in (
        FadingSpec.uniform(0.5, 1.5),
        FadingSpec.truncated_rayleigh(1.0, 0.25, 3.0),
        FadingSpec.discrete([0.5, 2.0]),
    ):
        gains = spec.sample(substream(1, "gains"), 50_000)
        assert np.abs(gains).min() >= spec.gamma


def test_zero_support_needs_explicit_opt_in():
    with pytest.raises(ValueError):
        FadingSpec.uniform(0.0, 1.0)
    with pytest.raises(ValueError):
        FadingSpec.discrete([0.0, 1.0])
    spec = FadingSpec.discrete([0.0, 1.0], allow_zero=True)
    assert spec.gamma == 0.0


def test_zero_weight_atoms_are_not_in_the_support():
    # the point mass at 1 written with a zero-weight atom at 0.1 reported gamma = 0.1,
    # contained 0.1 and put 0.1 on the slow gain grid
    masked = FadingSpec.discrete([0.1, 1.0], [0.0, 1.0])
    point = FadingSpec.discrete([1.0])
    assert masked == point
    assert not masked.contains(0.1)
    assert masked.support_grid().tolist() == [1.0]
    draws = [spec.sample(substream(5, "gains"), 1000) for spec in (masked, point)]
    assert np.array_equal(*draws)
    # a zero-weight atom at 0 needed allow_zero
    assert FadingSpec.discrete([0.0, 1.0], [0.0, 1.0]) == point
    # numpy draws the same gains with or without the zero-probability atom
    spec = FadingSpec.discrete([0.5, 0.7, 2.0], [0.3, 0.0, 0.7])
    assert spec.values == (0.5, 2.0)
    with_atom = substream(6, "gains").choice(
        np.array([0.5, 0.7, 2.0]), size=1000, p=np.array([0.3, 0.0, 0.7])
    )
    assert np.array_equal(spec.sample(substream(6, "gains"), 1000), with_atom)
    with pytest.raises(ValueError, match="positive finite sum"):
        FadingSpec.discrete([1.0, 2.0], [1e308, 1e308])


def test_discrete_membership_does_not_scan_the_atoms():
    # a scan of the atom tuple per lookup took 0.34-0.44 s for this sweep, 2-4 ms as a set
    spec = FadingSpec.discrete(np.arange(1, 8193) / 8192.0)
    start = time.perf_counter()
    assert all(spec.contains(v) for v in spec.values)
    assert time.perf_counter() - start < 0.1
    assert not spec.contains(0.5 + 2.0**-14) and not spec.contains(math.nan)
    zero = FadingSpec.discrete([0.0, 1.0], allow_zero=True)
    assert zero.contains(-0.0) and zero.contains(np.float64(-0.0)) and zero.contains(1)


def test_fading_spec_validation():
    with pytest.raises(ValueError):
        FadingSpec.uniform(1.5, 0.5)
    with pytest.raises(ValueError):
        FadingSpec.discrete([])
    with pytest.raises(ValueError):
        FadingSpec.discrete([1.0, 2.0], [0.5])
    with pytest.raises(ValueError):
        FadingSpec.truncated_rayleigh(-1.0, 0.5, 1.0)
    # a NaN scale gave NaN moments; overflowing moments raised OverflowError
    for scale in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            FadingSpec.truncated_rayleigh(scale, 0.5, 1.5)
    with pytest.raises(ValueError, match="zero mass"):
        FadingSpec.truncated_rayleigh(1e-300, 0.5, 1.5)
    with pytest.raises(ValueError, match="float range"):
        FadingSpec.uniform(0.5, 1e200)
    with pytest.raises(ValueError, match="float range"):
        FadingSpec.discrete([1e200])
    with pytest.raises(ValueError, match="float range"):
        FadingSpec.truncated_rayleigh(1e190, 0.5, 1e200)
    # a tail that underflows to 0 adds nothing: the moments stay those of [0.5, 50]
    wide, capped = (FadingSpec.truncated_rayleigh(1.0, 0.5, hi) for hi in (1e200, 50.0))
    assert (wide.mean, wide.second_moment) == (capped.mean, capped.second_moment)
    # a NaN value or weight compares False against every bound, so needs its own check
    with pytest.raises(ValueError, match="finite"):
        FadingSpec.discrete([1.0, math.nan], [1.0, 0.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            FadingSpec.discrete([1.0, 2.0], [1.0, bad])
    with pytest.raises(ValueError, match="lo < hi"):
        FadingSpec.truncated_rayleigh(1.0, 0.5, 0.5)
    with pytest.raises(ValueError, match="resolution"):
        FadingSpec.uniform(0.5, 1.5).support_grid(1)
    # a law built field by field is held to what the family constructors guarantee
    good = dict(family="uniform", gamma=0.5, g_max=1.5, mean=1.0, second_moment=13.0 / 12.0)
    assert FadingSpec(**good).gamma == 0.5
    for change, message in [
        ({"family": "gaussian"}, "unknown fading family"),
        ({"g_max": math.inf}, "bounded"),
        ({"gamma": 0.0}, "allow_zero"),
        ({"gamma": 2.0}, "exceeds g_max"),
        ({"second_moment": 0.5}, "below squared mean"),
    ]:
        with pytest.raises(ValueError, match=message):
            FadingSpec(**{**good, **change})


def test_support_grid_contains_endpoints():
    spec = FadingSpec.uniform(0.5, 1.5)
    grid = spec.support_grid(9)
    assert grid[0] == 0.5 and grid[-1] == 1.5 and len(grid) == 9
    disc = FadingSpec.discrete([2.0, 0.5, 0.5])
    assert disc.support_grid().tolist() == [0.5, 2.0]


_UNIT_NOISE = ChannelModel("fast", 1.0, point_mass(1.0))


def test_noise_variance_matches_chi_square_oracle():
    n = 100_000
    noise = realize(_UNIT_NOISE, 1, n, seed=2, chunk=0).noise
    sample_var = n * float(np.mean(noise**2))  # each entry has variance sigma_z2 / n
    assert abs(sample_var - 1.0) <= 3.0 * math.sqrt(2.0 / n)


def test_normalized_noise_energy_is_one_on_average():
    n, trials = 16, 100_000
    z = realize(_UNIT_NOISE, trials, n, seed=3, chunk=0).noise
    energy = (z**2).sum(axis=1)
    stderr = energy.std() / math.sqrt(trials)
    assert abs(energy.mean() - 1.0) <= 3.0 * stderr


def test_single_draw_noise_variance():
    model = ChannelModel("slow", 4.0, point_mass(1.0))
    draws = np.array([realize(model, 1, 1, seed=4, chunk=t).noise[0, 0] for t in range(20_000)])
    sample_var = float(np.mean(draws**2))
    assert abs(sample_var - 4.0) <= 3.0 * 4.0 * math.sqrt(2.0 / draws.size)


def test_gain_and_noise_streams_are_disjoint():
    # drawing more or fewer gains never shifts the noise, and the noise law never the gains
    spec = FadingSpec.uniform(0.5, 1.5)
    fast = realize(ChannelModel("fast", 1.0, spec), 2, 32, seed=9, chunk=0)
    slow = realize(ChannelModel("slow", 1.0, spec), 2, 32, seed=9, chunk=0)
    louder = realize(ChannelModel("fast", 4.0, spec), 2, 32, seed=9, chunk=0)
    assert np.array_equal(fast.noise, slow.noise)
    assert np.array_equal(fast.gains, louder.gains)
    assert np.array_equal(2.0 * fast.noise, louder.noise)


@pytest.mark.parametrize("flavor", ["fast", "slow"])
def test_channel_model_validation(flavor):
    spec = FadingSpec.uniform(0.5, 1.5)
    for noise_variance in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            ChannelModel(flavor, noise_variance, spec)
    with pytest.raises(ValueError):
        ChannelModel("medium", 1.0, spec)


def test_apply_channel_zero_input_returns_noise():
    model = ChannelModel("fast", 1.0, FadingSpec.uniform(0.5, 1.5))
    realization = realize(model, 3, 8, seed=21, chunk=0)
    y = apply_channel(model, np.zeros(8), realization, 1.0)
    assert np.array_equal(y, realization.noise)


def test_apply_channel_identity():
    model = ChannelModel("fast", 1.0, point_mass(1.0))
    x = np.full(4, 0.4)
    realization = ChannelRealization(np.ones((1, 4)), np.zeros((1, 4)))
    assert np.array_equal(apply_channel(model, x, realization, 1.0), x[None, :])


def test_apply_channel_componentwise_example():
    model = ChannelModel("fast", 1.0, FadingSpec.uniform(0.5, 2.0))
    y = apply_channel(
        model,
        [1.0, 2.0],
        ChannelRealization(np.array([[2.0, 0.5]]), np.array([[0.1, -0.1]])),
        5.0,
    )
    assert y.shape == (1, 2)
    assert y[0] == pytest.approx([2.1, 0.9], rel=1e-12)


def test_apply_channel_slow_broadcasts_scalar_gain():
    model = ChannelModel("slow", 1.0, FadingSpec.uniform(0.5, 1.5))
    realization = ChannelRealization(np.array([2.0, 0.5]), np.zeros((2, 3)))
    y = apply_channel(model, [0.1, 0.2, 0.3], realization, 1.0)
    assert y[0] == pytest.approx([0.2, 0.4, 0.6], rel=1e-12)
    assert y[1] == pytest.approx([0.05, 0.1, 0.15], rel=1e-12)
    with pytest.raises(ValueError):
        apply_channel(
            model, [0.1, 0.2], ChannelRealization(np.ones((1, 2)), np.zeros((1, 2))), 1.0
        )


def test_apply_channel_rejects_power_violation_and_mismatch():
    model = ChannelModel("fast", 1.0, point_mass(1.0))
    realization = ChannelRealization(np.ones((1, 3)), np.zeros((1, 3)))
    with pytest.raises(ValueError, match="invalid codeword"):
        apply_channel(model, [2.0, 0.0, 0.0], realization, 1.0)
    with pytest.raises(ValueError):
        apply_channel(model, [0.1, 0.1], realization, 1.0)
    with pytest.raises(ValueError):
        apply_channel(model, [0.1, 0.1, 0.1], ChannelRealization(np.ones(3), np.zeros((1, 3))), 1.0)
    for power in (0.0, -1.0):
        with pytest.raises(ValueError, match="power budget must be positive"):
            apply_channel(model, [0.0, 0.0, 0.0], realization, power)
    with pytest.raises(ValueError, match="block length"):
        realize(model, 1, 0, seed=0, chunk=0)


@pytest.mark.parametrize("excess, valid", [(0.9e-12, True), (2e-12, False)])
def test_channel_accepts_exactly_the_codewords_a_codebook_accepts(excess, valid):
    # one power tolerance: on the norm, not on its square
    words = np.full((1, 4), 0.5 * (1.0 + excess))  # ||u|| = sqrt(A) (1 + excess), A = 1
    model = ChannelModel("fast", 1.0, point_mass(1.0))
    realization = ChannelRealization(np.ones((1, 4)), np.zeros((1, 4)))
    if valid:
        codebook = Codebook(4, 1.0, 0.0, "achievability", 0.5, words)
        apply_channel(model, codebook.codeword(1), realization, codebook.power_budget)
    else:
        with pytest.raises(ValueError, match="invalid codeword"):
            Codebook(4, 1.0, 0.0, "achievability", 0.5, words)
        with pytest.raises(ValueError, match="invalid codeword"):
            apply_channel(model, words[0], realization, 1.0)


def test_slow_realization_gain_is_scalar():
    model = ChannelModel("slow", 1.0, FadingSpec.uniform(0.5, 1.5))
    realization = realize(model, 5, 16, seed=5, chunk=0)
    assert realization.gains.shape == (5,)  # one gain per trial, held over the block
    assert realization.noise.shape == (5, 16)
    assert ((0.5 <= realization.gains) & (realization.gains <= 1.5)).all()


def test_realization_rejects_nonfinite_noise():
    with pytest.raises(ValueError):
        ChannelRealization(np.ones(1), np.array([[0.0, np.inf]]))
    with pytest.raises(ValueError):
        ChannelRealization(np.ones(2), np.zeros(2))  # noise needs one row per trial


def test_per_trial_substreams_replay_and_differ():
    model = ChannelModel("fast", 1.0, FadingSpec.uniform(0.5, 1.5))
    first = realize(model, 1, 8, seed=6, chunk=0)
    replay = realize(model, 1, 8, seed=6, chunk=0)
    other = realize(model, 1, 8, seed=6, chunk=1)
    assert np.array_equal(first.gains, replay.gains)
    assert np.array_equal(first.noise, replay.noise)
    assert not np.array_equal(first.noise, other.noise)
    # chunk k draws from the (seed, "gains", k) and (seed, "noise", k) substreams
    chunk = realize(model, 3, 8, seed=6, chunk=2)
    spec = model.fading
    assert np.array_equal(chunk.gains, spec.sample(substream(6, "gains", 2), 24).reshape(3, 8))
    assert np.array_equal(
        chunk.noise, substream(6, "noise", 2).standard_normal((3, 8)) * math.sqrt(1.0 / 8)
    )


def test_realize_refuses_a_seed_or_chunk_no_plan_would_pass():
    model = ChannelModel("fast", 1.0, FadingSpec.uniform(0.5, 1.5))
    # 1.5 drew the streams of seed 1
    for bad in (1.5, 1.0, True):
        with pytest.raises(ValueError, match="seed must be an integer"):
            realize(model, 2, 3, seed=bad, chunk=0)
    # 2^64 drew a stream no TrialPlan accepts; -1 failed inside numpy without naming the seed
    for bad in (2**64, -1):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
            realize(model, 2, 3, seed=bad, chunk=0)
    for bad in (0.5, 2.0, False):
        with pytest.raises(ValueError, match="chunk must be an integer"):
            realize(model, 2, 3, seed=1, chunk=bad)
    # -1 failed with numpy's "expected non-negative integer", which names neither argument
    with pytest.raises(ValueError, match="chunk must be >= 0, got -1"):
        realize(model, 2, 3, seed=1, chunk=-1)
    edge = realize(model, 2, 3, seed=np.uint64(2**64 - 1), chunk=np.int64(4))
    assert np.array_equal(edge.noise, realize(model, 2, 3, seed=2**64 - 1, chunk=4).noise)
