import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from difading import codec, geometry
from difading.config import ConfigError
from difading import (
    ChannelModel,
    Codebook,
    DecoderRule,
    FadingSpec,
    build_codebook,
    codebook_from_text,
    codebook_size_log2_bound,
    codebook_to_text,
    converse_spacing,
    delta_n,
    epsilon_schedule,
    identify,
    min_pairwise_distance,
    two_codeword_codebook,
)

_FADING = FadingSpec.uniform(0.5, 1.5)  # the decoder reads the realized gains, not their law


def test_epsilon_schedule_values():
    assert epsilon_schedule(16, 1.0, 0.0, "achievability") == pytest.approx(0.25, rel=1e-12)
    assert epsilon_schedule(4, 1.0, 0.0, "achievability") == pytest.approx(0.5, rel=1e-12)
    assert epsilon_schedule(16, 1.0, 0.1, "converse_spacing") == pytest.approx(
        16.0 ** (-2.2), rel=1e-12
    )


def test_epsilon_schedule_validation():
    with pytest.raises(ValueError):
        epsilon_schedule(1, 1.0, 0.0, "achievability")
    with pytest.raises(ValueError):
        epsilon_schedule(16, 0.0, 0.0, "achievability")
    with pytest.raises(ValueError):
        epsilon_schedule(16, 1.0, 1.0, "achievability")
    with pytest.raises(ValueError):
        epsilon_schedule(16, 1.0, 0.0, "nonsense")


def test_build_codebook_radii_and_invariants():
    cb = build_codebook(16, 1.0, 0.0, seed=5, patience=2000)
    assert cb.epsilon_n == pytest.approx(0.25, rel=1e-12)
    root_a = math.sqrt(cb.power_budget)
    assert math.sqrt(cb.epsilon_n) == pytest.approx(0.5, rel=1e-12)  # r0
    assert root_a - math.sqrt(cb.epsilon_n) == pytest.approx(0.5, rel=1e-12)  # r1
    assert np.linalg.norm(cb.codewords, axis=1).max() <= root_a * (1 + 1e-12)
    assert cb.size >= 1


@pytest.mark.parametrize("schedule", codec.SCHEDULES)
def test_packing_radii_are_the_former_derivations_bit_for_bit(schedule):
    for power, n, b in itertools.product((1e-6, 0.3, 1.0, 2.0, 7.5, 1e6), (2, 3, 16, 100, 21845),
                                         (0.0, 0.1, 0.5, 0.9)):
        eps = epsilon_schedule(n, power, b, schedule)
        r0, r1 = codec.packing_radii(power, eps)
        # as build_codebook and the pack/sweep facts derived them
        assert (r0, r1) == (math.sqrt(eps), math.sqrt(power) - math.sqrt(eps))
        # as codebook_size_log2_bound derived the ratio
        assert r1 / r0 == (math.sqrt(power) - math.sqrt(eps)) / math.sqrt(eps)


def test_packing_radii_refuse_a_degenerate_geometry():
    for eps in (1.0, 4.0):
        with pytest.raises(ValueError, match="degenerate geometry"):
            codec.packing_radii(1.0, eps)
    # at n = 2 and b just below 1, eps_n rounds to A itself: r1 = 0
    b = 0.9999999999999999
    with pytest.raises(ValueError, match="degenerate geometry"):
        build_codebook(2, 1.0, b)
    with pytest.raises(ValueError, match="degenerate geometry"):
        codebook_size_log2_bound(2, 1.0, b)
    # eps_n underflows to 0 at a tiny power and a large n: r0 = 0
    eps = epsilon_schedule(21845, 1e-308, 0.99, "converse_spacing")
    for bad in (eps, math.nan):
        with pytest.raises(ValueError, match="degenerate geometry: eps_n"):
            codec.packing_radii(1e-308, bad)


def test_build_codebook_small_n_still_valid():
    cb = build_codebook(4, 1.0, 0.0, seed=9, patience=500)
    assert cb.epsilon_n == pytest.approx(0.5, rel=1e-12)
    assert cb.size >= 1  # r1 = 1 - sqrt(0.5) > 0, first candidate accepted


def test_achievability_min_distance_property():
    cb = build_codebook(48, 1.0, 0.0, seed=12, patience=3000, max_codewords=50)
    assert cb.size >= 2
    spacing = min_pairwise_distance(cb.codewords)
    assert spacing >= 2.0 * math.sqrt(cb.epsilon_n) * (1 - 1e-12)
    assert spacing >= math.sqrt(cb.epsilon_n)  # the weaker bound the analysis uses


def test_codebook_rejects_overweight_codewords():
    words = np.zeros((1, 4))
    words[0, 0] = 1.5
    with pytest.raises(ValueError, match="norm"):
        Codebook(4, 1.0, 0.0, "achievability", 0.5, words)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("power_budget", math.nan),
        ("power_budget", math.inf),
        ("power_budget", 0.0),
        ("power_budget", -1.0),
        ("epsilon_n", math.nan),
        ("epsilon_n", math.inf),
        ("epsilon_n", 0.0),
        ("slack", math.nan),
        ("slack", -math.inf),
    ],
)
def test_codebook_rejects_bad_scalar_parameters(field, bad):
    # a NaN power budget makes every norm comparison False, so nothing else catches it
    params = dict(power_budget=1.0, slack=0.0, epsilon_n=0.5)
    params[field] = bad
    with pytest.raises(ValueError, match=field.split("_")[0]):
        Codebook(dimension=4, schedule="achievability", codewords=np.zeros((1, 4)), **params)


@pytest.mark.parametrize(
    "field, bad, message",
    [
        ("schedule", "bogus", "schedule"),
        ("codewords", np.zeros((2, 3)), "dimension"),
        ("codewords", np.zeros(4), "dimension"),
        ("codewords", np.zeros((0, 4)), "empty"),
    ],
    ids=["unknown-schedule", "wrong-dimension", "one-dimensional", "no-rows"],
)
def test_codebook_rejects_an_unknown_schedule_and_a_bad_shape(field, bad, message):
    params = dict(dimension=4, power_budget=1.0, slack=0.0, schedule="achievability",
                  epsilon_n=0.5, codewords=np.zeros((1, 4)))
    params[field] = bad
    with pytest.raises(ValueError, match=message):
        Codebook(**params)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_codebook_rejects_nonfinite_codewords(bad):
    # a NaN norm compares False against the power bound, so it needs its own check
    words = np.zeros((2, 4))
    words[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        Codebook(4, 1.0, 0.0, "achievability", 0.5, words)


def test_min_distance_is_scanned_once(monkeypatch):
    cb = two_codeword_codebook(8, 1.0, 0.0, distance=0.5)
    calls = []

    def counting(points):
        calls.append(len(points))
        return min_pairwise_distance(points)

    monkeypatch.setattr(codec, "min_pairwise_distance", counting)
    first = cb.min_distance
    codebook_to_text(cb)
    assert cb.min_distance == first == pytest.approx(0.5, rel=1e-12)
    assert calls == [2]


def test_built_codebook_reuses_the_packing_min_distance(monkeypatch):
    calls = []

    def counting(points):
        calls.append(len(points))
        return min_pairwise_distance(points)

    monkeypatch.setattr(geometry, "min_pairwise_distance", counting)
    monkeypatch.setattr(codec, "min_pairwise_distance", counting)
    cb = build_codebook(24, 1.0, 0.0, seed=8, patience=1500, max_codewords=40)
    codebook_to_text(cb)
    converse_spacing(cb, 0.0)
    assert calls == [cb.size]
    assert cb.min_distance == min_pairwise_distance(cb.codewords)


def test_codeword_returns_stored_codeword_one_based():
    cb = build_codebook(32, 1.0, 0.0, seed=3, patience=2000)
    assert np.array_equal(cb.codeword(1), cb.codewords[0])
    assert np.array_equal(cb.codeword(cb.size), cb.codewords[-1])
    with pytest.raises(IndexError):
        cb.codeword(cb.size + 1)
    with pytest.raises(IndexError):
        cb.codeword(0)


def test_noiseless_round_trip_accepts():
    cb = two_codeword_codebook(8, 1.0, 0.0, distance=0.8)
    rule = DecoderRule(cb, ChannelModel("fast", 0.5, _FADING), 0.1)
    gains = np.full(8, 1.3)
    y = gains * cb.codeword(1)
    assert identify(rule, y, 1, gains)


def test_decoder_rule_refuses_a_threshold_past_the_float_range():
    # sigma_z2 + delta rounded to inf, and a rule that accepts every statistic ran
    cb = two_codeword_codebook(8, 1.0, 0.0, distance=0.8)
    with pytest.raises(ValueError, match="threshold"):
        DecoderRule(cb, ChannelModel("fast", 1e308, _FADING), 1e308)
    assert DecoderRule(cb, ChannelModel("fast", 8e307, _FADING), 8e307).threshold < math.inf


def test_delta_n_values_and_identity():
    assert delta_n(1.0, 0.25) == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert delta_n(1.0, 3.0) == pytest.approx(1.0, rel=1e-12)
    for gamma in (0.3, 1.0, 2.5):
        for eps in (0.01, 0.25, 3.0, 7.5):
            d = delta_n(gamma, eps)
            assert 2.0 * d - gamma**2 * eps == pytest.approx(-d, rel=1e-14, abs=1e-18)
    with pytest.raises(ValueError):
        delta_n(0.0, 0.25)
    with pytest.raises(ValueError):
        delta_n(1.0, 0.0)
    # a slack that underflows was returned as 0.0 and refused later by DecoderRule
    with pytest.raises(ValueError, match="underflows"):
        delta_n(1e-200, 0.25)
    assert delta_n(1e-90, 0.25) > 0.0


@pytest.mark.parametrize("schedule", ["achievability", "converse_spacing"])
def test_two_codeword_codebook_is_the_antipodal_pair(schedule):
    n, power, b, distance = 6, 2.0, 0.3, 0.7
    cb = two_codeword_codebook(n, power, b, distance, schedule)
    expected = np.zeros((2, n))
    expected[0, 0], expected[1, 0] = distance / 2, -distance / 2
    assert np.array_equal(cb.codewords, expected)
    assert cb.epsilon_n == epsilon_schedule(n, power, b, schedule)
    assert (cb.dimension, cb.power_budget, cb.slack, cb.schedule) == (n, power, b, schedule)
    assert (cb.seed, cb.saturated) == (None, None)


@pytest.mark.parametrize("distance", [0.0, -1.0, math.nan])
def test_two_codeword_codebook_refuses_a_distance_that_is_not_positive(distance):
    with pytest.raises(ValueError, match="distance"):
        two_codeword_codebook(4, 1.0, 0.0, distance)


def test_two_codeword_codebook_leaves_the_power_ball_to_codebook():
    with pytest.raises(ValueError, match="norm"):
        two_codeword_codebook(4, 1.0, 0.0, 2.0 * (1.0 + 1e-9))
    # inside the 1e-12 tolerance of check_power
    assert two_codeword_codebook(4, 1.0, 0.0, 2.0 * (1.0 + 1e-13)).size == 2


def test_identify_threshold_and_tie():
    cb = two_codeword_codebook(4, 4.0, 0.0, distance=1.0)
    rule = DecoderRule(cb, ChannelModel("fast", 0.75, _FADING), 0.25)
    assert rule.threshold == pytest.approx(1.0, rel=1e-12)
    gains = np.ones(4)
    u = cb.codeword(1)
    bump = np.zeros(4)
    bump[1] = 1.0  # exactly at the threshold: ties accept
    assert identify(rule, gains * u + bump, 1, gains)
    over = math.sqrt(0.75 + 0.25 + 1.0)  # ||v||^2 = threshold^2 + 1
    assert not identify(rule, gains * u + over * bump, 1, gains)


def test_identify_wrong_codeword_rejection_condition():
    # two codewords at distance sqrt(eps), zero noise, unit gain: the wrong
    # message is rejected exactly when eps * (1 - gamma^2/3) > sigma_z2
    for eps, sigma_z2 in ((0.3, 0.1), (0.3, 0.25)):
        cb = two_codeword_codebook(16, 1.0, 0.0, distance=math.sqrt(eps))
        rule = DecoderRule(cb, ChannelModel("fast", sigma_z2, _FADING), delta_n(1.0, eps))
        gains = np.ones(16)
        y = gains * cb.codeword(1)
        rejected = not identify(rule, y, 2, gains)
        assert rejected == (eps * (1.0 - 1.0 / 3.0) > sigma_z2)


def test_decoding_sets_overlap_for_close_codewords():
    sigma_z2, delta = 0.5, 0.1
    cb = two_codeword_codebook(8, 1.0, 0.0, distance=1.0)  # 1.0 < 2 sqrt(0.6)
    rule = DecoderRule(cb, ChannelModel("fast", sigma_z2, _FADING), delta)
    gains = np.ones(8)
    midpoint = gains * 0.5 * (cb.codeword(1) + cb.codeword(2))
    assert identify(rule, midpoint, 1, gains)
    assert identify(rule, midpoint, 2, gains)


def test_identify_slow_flavor_broadcasts_and_validates():
    cb = two_codeword_codebook(6, 1.0, 0.0, distance=0.5)
    rule = DecoderRule(cb, ChannelModel("slow", 0.2, _FADING), 0.05)
    y = 1.5 * cb.codeword(1)
    assert identify(rule, y, 1, 1.5)
    with pytest.raises(ValueError):
        identify(rule, y, 1, np.ones(6))
    fast_rule = DecoderRule(cb, ChannelModel("fast", 0.2, _FADING), 0.05)
    with pytest.raises(ValueError):
        identify(fast_rule, y, 1, 1.5)


def test_identify_dimension_mismatch():
    cb = two_codeword_codebook(6, 1.0, 0.0, distance=0.5)
    rule = DecoderRule(cb, ChannelModel("fast", 0.2, _FADING), 0.05)
    with pytest.raises(ValueError):
        identify(rule, np.zeros(5), 1, np.ones(6))
    with pytest.raises(ValueError):
        identify(rule, np.zeros(6), 1, np.ones(5))


def test_identify_invariant_under_simultaneous_permutation():
    rng = np.random.default_rng(17)
    n = 12
    words = rng.standard_normal((3, n))
    words /= np.linalg.norm(words, axis=1, keepdims=True) * 2.0
    eps = epsilon_schedule(n, 1.0, 0.0, "achievability")
    cb = Codebook(n, 1.0, 0.0, "achievability", eps, words)
    rule = DecoderRule(cb, ChannelModel("fast", 0.3, _FADING), 0.1)
    for trial in range(20):
        perm = rng.permutation(n)
        y = rng.standard_normal(n)
        gains = rng.uniform(0.5, 1.5, n)
        permuted_cb = Codebook(n, 1.0, 0.0, "achievability", eps, words[:, perm])
        permuted_rule = DecoderRule(permuted_cb, rule.model, 0.1)
        for j in (1, 2, 3):
            assert identify(rule, y, j, gains) == identify(
                permuted_rule, y[perm], j, gains[perm]
            )


@pytest.mark.parametrize("flavor", ["fast", "slow"])
def test_batched_statistic_matches_identify_row_by_row(flavor):
    rng = np.random.default_rng(23)
    n, trials = 7, 200
    words = rng.standard_normal((3, n))
    words /= np.linalg.norm(words, axis=1, keepdims=True) * 2.0
    cb = Codebook(n, 1.0, 0.0, "achievability", 0.1, words)
    rule = DecoderRule(cb, ChannelModel(flavor, 0.3, _FADING), 0.1)
    gains = rng.uniform(0.5, 1.5, (trials, n) if flavor == "fast" else trials)
    sent = words[rng.integers(0, 3, trials)]  # each trial sends a random message
    y = (gains if flavor == "fast" else gains[:, None]) * sent
    y += rng.standard_normal((trials, n)) * math.sqrt(0.3 / n)
    for j in (1, 2, 3):
        stat = rule.statistic(y, j, gains)
        decisions = rule.accepts(stat)
        assert stat.shape == decisions.shape == (trials,)
        assert 0 < decisions.sum() < trials
        for t in range(trials):
            g = gains[t] if flavor == "fast" else float(gains[t])
            resid = y[t] - g * cb.codeword(j)
            assert stat[t] == pytest.approx(float(resid @ resid), rel=1e-12)
            assert decisions[t] == identify(rule, y[t], j, g)


@pytest.mark.parametrize("flavor", ["fast", "slow"])
def test_batched_statistic_refuses_shapes_the_channel_does_not_give(flavor):
    # each of these broadcast to a statistic without complaint
    cb = two_codeword_codebook(4, 1.0, 0.0, distance=0.5)
    rule = DecoderRule(cb, ChannelModel(flavor, 1.0, _FADING), 0.1)
    y = np.zeros((3, 4))
    other_flavor = (3,) if flavor == "fast" else (3, 4)
    for shape in (other_flavor, (3, 1)):
        with pytest.raises(ValueError, match="CSI of shape"):
            rule.statistic(y, 1, np.ones(shape))
    csi = np.ones(rule.model.gain_shape(3, 4))
    assert rule.statistic(y, 1, csi).shape == (3,)
    with pytest.raises(ValueError, match="outputs must have shape"):
        rule.statistic(np.zeros((3, 1)), 1, csi)  # block length 1, not 4


def test_decoder_rule_validation():
    cb = two_codeword_codebook(4, 1.0, 0.0, distance=0.5)
    model = ChannelModel("fast", 1.0, _FADING)
    with pytest.raises(ValueError):
        DecoderRule(cb, model, 0.0)
    with pytest.raises(ValueError):
        DecoderRule(cb, model, math.inf)


def test_codebook_serialization_round_trip():
    cb = build_codebook(24, 2.0, 0.3, seed=8, patience=1500, max_codewords=40)
    text = codebook_to_text(cb)
    loaded = codebook_from_text(text)
    assert loaded.dimension == cb.dimension
    assert loaded.power_budget == cb.power_budget
    assert loaded.slack == cb.slack
    assert loaded.schedule == cb.schedule
    assert loaded.epsilon_n == cb.epsilon_n
    assert loaded.seed == cb.seed
    assert loaded.saturated == cb.saturated
    assert np.array_equal(loaded.codewords, cb.codewords)
    assert codebook_to_text(loaded) == text


@settings(max_examples=60, deadline=None)
@given(
    words=st.integers(1, 5).flatmap(
        lambda n: arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.just(n)),
            elements=st.floats(-0.4, 0.4),  # ||u|| <= 0.4 sqrt(5) < sqrt(A)
        )
    ),
    power_budget=st.floats(1.0, 1e6),
    slack=st.floats(0.0, 1.0, exclude_max=True),
    schedule=st.sampled_from(codec.SCHEDULES),
    epsilon_n=st.floats(1e-300, 1e3),
    seed=st.none() | st.integers(0, 2**63 - 1),
    saturated=st.none() | st.booleans(),
)
def test_codebook_text_round_trips_bit_exactly(
    words, power_budget, slack, schedule, epsilon_n, seed, saturated
):
    cb = Codebook(words.shape[1], power_budget, slack, schedule, epsilon_n, words, seed, saturated)
    text = codebook_to_text(cb)
    loaded = codebook_from_text(text)
    assert loaded.codewords.tobytes() == cb.codewords.tobytes()  # -0.0 and subnormals too
    for field in ("dimension", "power_budget", "slack", "schedule", "epsilon_n", "seed",
                  "saturated"):
        assert getattr(loaded, field) == getattr(cb, field)
    assert codebook_to_text(loaded) == text


def test_codebook_body_writes_each_value_as_17_significant_digits():
    words = np.array([[-0.0, 5e-324, 1e-310, 1e150], [0.1, 1.0 / 3.0, -2.5e-7, 0.0]])
    cb = Codebook(4, 1e301, 0.0, "achievability", 1.0, words)
    body = codebook_to_text(cb).splitlines()[-2:]
    assert body == [" ".join(f"{v:.17g}" for v in row) for row in words.tolist()]
    assert body[0] == "-0 4.9406564584124654e-324 9.9999999999999694e-311 9.9999999999999998e+149"


def test_codebook_parser_rejects_malformed_documents():
    text = codebook_to_text(two_codeword_codebook(3, 1.0, 0.0, distance=0.5))
    lines = text.splitlines()
    body = lines.index("centers:") + 1

    def with_row(k, row):
        return "\n".join(lines[: body + k] + [row] + lines[body + k + 1 :]) + "\n"

    malformed = {
        "unknown format": text.replace(codec.CODEBOOK_FORMAT, "unknown-v9"),
        "count mismatch": text.replace("count = 2", "count = 4"),
        "missing centers": "just some text",
        "missing header key": text.replace("seed = none\n", ""),
        "ragged row": with_row(1, lines[body + 1] + " 0.0"),
        "short row": with_row(1, "-0.25 0"),
        "non-numeric row": with_row(0, "0.25 abc 0"),
        # the next three loaded (seed 7, the key ignored, saturated as False);
        # count = 0 reached np.loadtxt, which warned "input contained no data"
        "repeated key": text.replace("seed = none\n", "seed = 1\nseed = 7\n"),
        "unknown key": text.replace("count = 2\n", "count = 2\ncolour = blue\n"),
        "saturated outside none/true/false": text.replace("saturated = none", "saturated = maybe"),
        "count = 0": "\n".join(lines[:body]).replace("count = 2", "count = 0") + "\n",
        # np.loadtxt warned "input contained no data" on a body with no rows
        "blank body": "\n".join(lines[:body]).replace("count = 2", "count = 1") + "\n\n \t\n",
    }
    for case, doc in malformed.items():
        with pytest.raises(ValueError) as caught:
            codebook_from_text(doc)
        assert not isinstance(caught.value, ConfigError), case  # a malformed codebook exits 3
        assert doc != text, case


_HEADER_TEXT = codebook_to_text(two_codeword_codebook(3, 1.0, 0.0, distance=0.5))
_HEADER_LINES = _HEADER_TEXT[: _HEADER_TEXT.index("centers:")].splitlines()
_BODY = _HEADER_TEXT[_HEADER_TEXT.index("centers:"):]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    header=st.lists(
        st.sampled_from(_HEADER_LINES)
        | st.builds(
            "{} = {}".format,
            st.sampled_from([line.partition(" =")[0] for line in _HEADER_LINES] + ["colour"]),
            st.sampled_from(["none", "true", "maybe", "0", "-1", "2", "3", "1e400", "nan", "x",
                             codec.CODEBOOK_FORMAT, "achievability", ""]) | st.text(max_size=8),
        )
        | st.text(max_size=12),
        max_size=14,
    )
)
def test_codebook_header_errors_are_value_errors_never_config_errors(header):
    # a malformed codebook is a failed precondition (exit 3), not a config error (exit 2)
    try:
        codebook_from_text("\n".join(header) + "\n" + _BODY)
    except ValueError as exc:
        assert not isinstance(exc, ConfigError)


def test_codebook_determinism_in_seed():
    a = build_codebook(32, 1.0, 0.0, seed=4, patience=1000)
    b = build_codebook(32, 1.0, 0.0, seed=4, patience=1000)
    c = build_codebook(32, 1.0, 0.0, seed=5, patience=1000)
    assert np.array_equal(a.codewords, b.codewords)
    assert not np.array_equal(a.codewords, c.codewords)
