import hashlib
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from difading import codec, geometry, seeding
from difading import (
    DensityEstimate,
    Packing,
    PackingConfig,
    codebook_size_log2_bound,
    epsilon_schedule,
    estimate_packing_density,
    generate_saturated_packing,
    min_pairwise_distance,
    sample_in_ball,
)


def test_sample_in_ball_is_inside_and_covers_shell():
    rng = np.random.default_rng(0)
    pts = sample_in_ball(3, 2.0, rng, 20000)
    norms = np.linalg.norm(pts, axis=1)
    assert norms.max() <= 2.0
    # radial cdf is (r/R)^n: median radius should be near 2 * 0.5^(1/3)
    assert np.median(norms) == pytest.approx(2.0 * 0.5 ** (1.0 / 3.0), rel=0.02)


def _ball_volume(n, r):
    """Direct formula pi^(n/2) / Gamma(n/2 + 1) * r^n; finite for n <= 50 and these radii."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * r**n


@pytest.mark.parametrize("n", range(1, 51))
def test_log_volume_matches_direct_formula(n):
    # the share of sample_in_ball's points inside radius r is V_n(r) / V_n(r1)
    r1, samples = 2.5, 20000
    norms = np.linalg.norm(sample_in_ball(n, r1, np.random.default_rng(n), samples), axis=1)
    for q in (0.1, 0.5, 0.9):
        r = r1 * q ** (1.0 / n)
        share = _ball_volume(n, r) / _ball_volume(n, r1)
        assert share == pytest.approx(q, rel=1e-12)
        assert abs(np.mean(norms <= r) - share) <= 5.0 * math.sqrt(share * (1.0 - share) / samples)
    # the log-domain count n (log2(r1/r0) - 1) is log2 V_n(r1) / V_n(2 r0), the doubling bound
    if n == 1:  # no schedule is defined below block length 2
        with pytest.raises(ValueError, match="block length"):
            codebook_size_log2_bound(n, 1.0, 0.0)
        return
    for schedule in codec.SCHEDULES:
        r0, r1 = codec.packing_radii(1.0, epsilon_schedule(n, 1.0, 0.0, schedule))
        direct = math.log2(_ball_volume(n, r1) / _ball_volume(n, 2.0 * r0))
        assert codebook_size_log2_bound(n, 1.0, 0.0, schedule) == pytest.approx(direct, rel=1e-12)


def test_saturated_packing_2d_meets_doubling_bound():
    config = PackingConfig(2, 1.0, 10.0, seed=424242, saturation_patience=100_000)
    packing = generate_saturated_packing(config)
    assert packing.saturated
    assert packing.count >= 25  # 2^-n (r1/r0)^n = 25
    assert np.linalg.norm(packing.centers, axis=1).max() <= 10.0
    assert min_pairwise_distance(packing.centers) >= 2.0


# sha256 of centers.tobytes() for acceptance-criterion-1 packings, recorded
# before the one-GEMM rejection test: any faster test must accept the same
# centers in the same order
@pytest.mark.parametrize(
    "n,ratio,count,digest",
    [
        (1, 10.0, 9, "43002a97f8c01855a5c3c2c80ec23bdac1efed60b42de305b961ea3cff17101f"),
        (2, 10.0, 62, "a288e6d92f798b3c7e0a850b4fe2d0fc885ad5d91228d95282b8f8d9fa8920aa"),
        (3, 10.0, 428, "ab03cf8c036ade9624d52315584463397a67679b80984043a4e5b4fcd19a4574"),
    ],
    ids=("n1", "n2", "n3"),
)
def test_criterion_packings_are_pinned(n, ratio, count, digest):
    packing = generate_saturated_packing(
        PackingConfig(n, 1.0, ratio, seed=0, saturation_patience=100_000)
    )
    assert packing.saturated
    assert packing.count == count
    assert hashlib.sha256(packing.centers.tobytes()).hexdigest() == digest
    if n == 3:
        estimate = estimate_packing_density(packing, 200_000, seed=5)
        assert estimate.density == 0.37184


@st.composite
def _mask_geometry(draw):
    n = draw(st.integers(1, 3))
    r0 = draw(st.floats(0.2, 3.0).filter(lambda r: r != 1.0))
    cells_per_r1 = draw(st.floats(6.0, 40.0).filter(lambda c: c != int(c)))  # r1/h, non-integer
    r1 = cells_per_r1 * r0 / geometry._CELLS_PER_R0
    axis = draw(st.integers(0, n - 1))
    edge = draw(st.sampled_from((None, -1.0, 1.0)))
    if edge is None:  # a point in the ball
        direction = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
        norm = np.linalg.norm(direction)
        center = direction / norm * r1 * draw(st.floats(0.0, 1.0)) if norm > 0 else np.zeros(n)
    else:  # +-r1 on an axis, or an ulp beyond it, as sample_in_ball can return
        center = np.zeros(n)
        center[axis] = edge * r1
        if draw(st.booleans()):
            center[axis] = np.nextafter(center[axis], 2.0 * center[axis])
    return PackingConfig(n, r0, r1), center


@settings(max_examples=100, deadline=None)
@given(_mask_geometry())
def test_dead_cells_lie_within_two_r0_of_the_marking_center(data):
    config, center = data
    n, r0, r1 = config.dimension, config.r0, config.r1
    mask = geometry._DeadCells.for_config(config)
    assert mask is not None
    mask.mark(center)
    gap_sq = (2.0 * r0) ** 2
    # distance to a center is convex, so a cell's farthest point is a corner
    marked = np.stack(np.unravel_index(np.flatnonzero(mask.dead), (mask.side,) * n), axis=1)
    assert len(marked) >= 1
    corners = np.stack(np.meshgrid(*[(0, 1)] * n, indexing="ij"), axis=-1).reshape(-1, n)
    points = ((marked[:, None, :] + corners[None, :, :]) * mask.h - mask.origin).reshape(-1, n)
    assert (geometry._min_dist_sq(points, center[None]) < gap_sq).all()
    # points classified into a dead cell, the ball's axis extremes among them
    axis_ends = np.concatenate([np.eye(n) * r1, -np.eye(n) * r1])
    beyond = np.nextafter(axis_ends, 2.0 * axis_ends)
    rng = np.random.default_rng(0)
    near = center + sample_in_ball(n, 2.0 * r0, rng, 4000)
    probe = np.concatenate([axis_ends, beyond, near, points])
    dead = mask.dead[mask.cells(probe)]
    assert (geometry._min_dist_sq(probe[dead], center[None]) < gap_sq).all()


def _reference_packing(config: PackingConfig):
    """The textbook greedy packing, one candidate of the stream at a time: a candidate is
    accepted iff its difference-form ||x - c||^2 to every accepted center is at least (2 r0)^2.
    Returns the centers and the saturation flag."""
    rng = seeding.substream(config.seed, "packing")
    gap_sq = (2.0 * config.r0) ** 2
    centers = np.empty((0, config.dimension))
    rejects = 0
    while True:
        for point in geometry.sample_in_ball(config.dimension, config.r1, rng, geometry._BATCH):
            diff = point - centers
            if (np.einsum("ij,ij->i", diff, diff) >= gap_sq).all():
                centers = np.vstack([centers, point])
                rejects = 0
                if len(centers) == config.max_codewords:
                    return centers, False
            else:
                rejects += 1
                if rejects >= config.saturation_patience:
                    return centers, True


@pytest.mark.parametrize(
    "config",
    [
        *(PackingConfig(n, 0.37, 0.37 * 7.3, seed=seed, saturation_patience=20_000)
          for n in (2, 3) for seed in (7, 2024)),
        # almost every candidate accepted until the cap
        PackingConfig(100, 0.316, 0.684, seed=3, saturation_patience=2000, max_codewords=300),
        # 18 centers, saturated
        PackingConfig(20, 1.0, 1.6, seed=4, saturation_patience=3000),
        PackingConfig(20, 1.0, 2.5, seed=5, saturation_patience=3000, max_codewords=400),
    ],
    ids=["n2-seed7", "n2-seed2024", "n3-seed7", "n3-seed2024", "n100-capped", "n20-saturated",
         "n20-capped"],
)
def test_packing_equals_reference_greedy(config):
    # the n <= 3 packings run the dead-cell mask, the others the distance kernel alone
    assert (geometry._DeadCells.for_config(config) is not None) == (config.dimension <= 3)
    packing = generate_saturated_packing(config)
    centers, saturated = _reference_packing(config)
    assert packing.saturated == saturated
    np.testing.assert_array_equal(packing.centers, centers)


@pytest.mark.parametrize("patience, seed", [(2, 0), (4, 1), (7, 0)])
def test_rejection_streak_carries_across_batch_ends(monkeypatch, patience, seed):
    # with 3 candidates a batch most streaks span a batch end, where an
    # off-by-one in the streak count changes the packing
    monkeypatch.setattr(geometry, "_BATCH", 3)
    config = PackingConfig(2, 1.0, 6.0, seed=seed, saturation_patience=patience)
    packing = generate_saturated_packing(config)
    centers, saturated = _reference_packing(config)
    assert packing.saturated == saturated
    np.testing.assert_array_equal(packing.centers, centers)


def _feed(stream, padding):
    """A sample_in_ball that hands out the rows of stream in order, then padding copies of the
    first row: once that row is a center, every copy is rejected."""
    rows = iter(np.concatenate([stream, np.repeat(stream[:1], padding, axis=0)]))
    return lambda n, radius, rng, size: np.array([next(rows) for _ in range(size)])


def test_cross_batch_near_ties_are_decided_in_the_difference_form(monkeypatch):
    # collinear points near norm 1e6 whose neighbours lie exactly 2 r0 = 1 apart or 2^-30
    # closer, three to a batch: the difference form is exact, the Gram form rounds by about 1e-4
    steps = np.where(np.random.default_rng(0).random(40) < 0.3, 1.0 - 2.0**-30, 1.0)
    points = np.zeros((41, 3))
    points[:, 0] = 1e6 + 0.1 + np.concatenate([[0.0], np.cumsum(steps)])
    points[:, 1] = 3e5 + 0.7
    monkeypatch.setattr(geometry, "_BATCH", 3)
    diff = points[:, None] - points[None]
    far = np.einsum("ijk,ijk->ij", diff, diff) >= 1.0
    gram = np.stack([geometry._min_dist_sq(points, points[[i]]) for i in range(41)], axis=1)
    batch = np.arange(41) // 3
    cross = batch[:, None] > batch[None]  # (later candidate, earlier batch's center)
    assert ((gram >= 1.0) != far)[cross].any()  # the Gram form alone decides wrongly
    difference_sq = geometry._difference_sq
    redecided = []

    def spy(*args):
        if sys._getframe(1).f_code is geometry.generate_saturated_packing.__code__:
            redecided.append(args)
        return difference_sq(*args)

    monkeypatch.setattr(geometry, "_difference_sq", spy)
    config = PackingConfig(3, 0.5, 2e6, saturation_patience=6)
    monkeypatch.setattr(geometry, "sample_in_ball", _feed(points, 12))
    packing = generate_saturated_packing(config)
    monkeypatch.setattr(geometry, "sample_in_ball", _feed(points, 12))
    centers, saturated = _reference_packing(config)
    np.testing.assert_array_equal(packing.centers, centers)
    assert packing.saturated == saturated
    assert redecided  # the cross-batch re-decision ran


@st.composite
def _packing_case(draw):
    n = draw(st.integers(1, 4))
    blocks = [draw(st.integers(1, 5)) for _ in range(3)]  # _BATCH, _ROW_BLOCK, _CENTER_BLOCK
    patience, cap = draw(st.integers(1, 12)), draw(st.integers(1, 40))
    if draw(st.booleans()):  # real draws
        r0 = draw(st.floats(0.1, 2.0))
        config = PackingConfig(n, r0, r0 * draw(st.floats(1.5, 6.0)), draw(st.integers(0, 99)),
                               patience, cap)
        return config, None, blocks
    # grid points: exact ties at (2 r0)^2, near the origin or shifted to near 1e6 + 0.1, where
    # the differences stay exact and the Gram form rounds by about 1e-4
    stream = draw(arrays(np.float64, (draw(st.integers(1, 40)), n), elements=_GRID))
    stream += draw(st.sampled_from((0.0, 1e6 + 0.1)))
    r1 = max(float(np.linalg.norm(stream, axis=1).max()), 1.0)
    r0 = draw(st.sampled_from((0.25, 0.5, 1.0)))
    return PackingConfig(n, r0, r1, 0, patience, cap), stream, blocks


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_packing_case())
def test_packing_equals_the_one_at_a_time_greedy_on_any_blocks(case):
    config, stream, (batch, rows, centers) = case
    runs = []
    for build in (generate_saturated_packing, _reference_packing):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_BATCH", batch)
            mp.setattr(geometry, "_ROW_BLOCK", rows)
            mp.setattr(geometry, "_CENTER_BLOCK", centers)
            if stream is not None:
                padding = config.saturation_patience + batch
                mp.setattr(geometry, "sample_in_ball", _feed(stream, padding))
            runs.append(build(config))
    packing, (expected, saturated) = runs
    np.testing.assert_array_equal(packing.centers, expected)
    assert packing.saturated == saturated


def _difference_greedy(points, gap_sq):
    """Rows a greedy scan accepts, each tested against the accepted ones in the difference form."""
    accepted = []
    for idx, point in enumerate(points):
        diff = point - points[accepted]
        if (np.einsum("ij,ij->i", diff, diff) >= gap_sq).all():
            accepted.append(idx)
    return accepted


@pytest.mark.parametrize(
    "config",
    [
        PackingConfig(1, 1.0, 10.0, seed=1, saturation_patience=2000),
        PackingConfig(2, 0.37, 0.37 * 7.3, seed=7, saturation_patience=20_000),
        PackingConfig(4, 1.0, 3.0, seed=1, saturation_patience=3000),
    ],
    ids=["n1", "n2", "n4"],
)
def test_packing_across_resized_blocks_equals_reference_greedy(monkeypatch, config):
    # blocks of a few rows, so that one batch crosses many blocks
    centers, saturated = _reference_packing(config)
    for rows in (2, 3, 8):
        with monkeypatch.context() as mp:
            mp.setattr(geometry, "_ROW_BLOCK", rows)
            packing = generate_saturated_packing(config)
        assert packing.saturated == saturated
        np.testing.assert_array_equal(packing.centers, centers)


@pytest.mark.parametrize("rows", [2, 8, 256])
def test_guard_band_redecides_pairs_the_gram_form_rounds_across(monkeypatch, rows):
    # collinear points near norm 1e6 whose neighbours lie exactly 2 r0 = 1 apart or 2^-30
    # closer: the difference form is exact, the Gram form rounds by about 1e-4
    steps = np.where(np.random.default_rng(0).random(40) < 0.3, 1.0 - 2.0**-30, 1.0)
    points = np.zeros((41, 3))
    points[:, 0] = 1e6 + 0.1 + np.concatenate([[0.0], np.cumsum(steps)])
    points[:, 1] = 3e5 + 0.7
    gap_sq = 1.0
    diff = np.diff(points, axis=0)
    assert np.array_equal(np.einsum("ij,ij->i", diff, diff) >= gap_sq, steps == 1.0)
    norms = np.einsum("ij,ij->i", points, points)
    gram = norms[:-1] + norms[1:] - 2.0 * np.einsum("ij,ij->i", points[:-1], points[1:])
    assert ((gram >= gap_sq) != (steps == 1.0)).any()  # the Gram form alone decides wrongly
    redecided = []
    difference_far = geometry._difference_far

    def counting(batch, first_rows, second_rows, gap):
        redecided.append(len(first_rows))
        return difference_far(batch, first_rows, second_rows, gap)

    monkeypatch.setattr(geometry, "_difference_far", counting)
    monkeypatch.setattr(geometry, "_ROW_BLOCK", rows)
    accepted = list(geometry._greedy_accepts(points, np.arange(len(points)), gap_sq))
    assert accepted == _difference_greedy(points, gap_sq)
    assert sum(redecided) > 0


_GRID = st.integers(-8, 8).map(lambda k: k / 4.0)  # exact ties at the gaps below


@st.composite
def _scan_case(draw):
    n = draw(st.integers(1, 4))
    count = draw(st.integers(0, 40))
    coords = _GRID if draw(st.booleans()) else st.floats(-3.0, 3.0)
    points = draw(arrays(np.float64, (count, n), elements=coords))
    live = np.flatnonzero(draw(arrays(np.bool_, count)))
    gap_sq = draw(st.sampled_from((0.25, 1.0, 2.0, 4.0)))
    rows = draw(st.integers(1, 16))
    return points, live, gap_sq, rows


@settings(max_examples=300, deadline=None)
@given(_scan_case())
def test_greedy_scan_matches_one_at_a_time_difference_form(case):
    points, live, gap_sq, rows = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_ROW_BLOCK", rows)
        got = list(geometry._greedy_accepts(points, live, gap_sq))
    assert got == [live[k] for k in _difference_greedy(points[live], gap_sq)]


def test_high_dimensional_packings_build_no_mask():
    assert geometry._DeadCells.for_config(PackingConfig(100, 0.1, 1.0)) is None
    assert geometry._DeadCells.for_config(PackingConfig(4, 1.0, 10.0)) is None
    # one axis of more than 2^20 cells: r1/r0 above about 1.3e5 even at n = 1
    assert geometry._DeadCells.for_config(PackingConfig(1, 1.0, 2e5)) is None
    assert geometry._DeadCells.for_config(PackingConfig(1, 1.0, 1e5)) is not None


_COORDS = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def _points_and_centers(draw):
    n = draw(st.integers(1, 6))
    points = draw(arrays(np.float64, (draw(st.integers(1, 20)), n), elements=_COORDS))
    centers = draw(arrays(np.float64, (draw(st.integers(1, 20)), n), elements=_COORDS))
    return points, centers


@settings(max_examples=200, deadline=None)
@given(_points_and_centers())
def test_min_dist_sq_matches_difference_reference(data):
    points, centers = data
    reference = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).min(axis=1)
    # small blocks: several row tiles and several center blocks per call
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_ROW_BLOCK", 3)
        mp.setattr(geometry, "_CENTER_BLOCK", 4)
        got = geometry._min_dist_sq(points, centers)
    assert got.shape == reference.shape
    np.testing.assert_allclose(got, reference, rtol=0.0, atol=1e-9)


def test_packing_single_center_cases():
    tight = generate_saturated_packing(PackingConfig(1, 1.0, 1.0, seed=3, saturation_patience=1000))
    assert tight.count >= 1
    oversized = generate_saturated_packing(PackingConfig(3, 2.0, 1.0, seed=5, saturation_patience=10))
    assert oversized.count >= 1  # the first candidate is always accepted
    assert oversized.saturated


@pytest.mark.parametrize("n,ratio", [(1, 5.0), (2, 5.0), (3, 4.0), (4, 3.0)])
def test_saturated_count_bound_small_dimensions(n, ratio):
    bound = 2.0**-n * ratio**n
    packing = generate_saturated_packing(
        PackingConfig(n, 1.0, ratio, seed=n * 100 + 7, saturation_patience=20_000)
    )
    assert packing.saturated
    if bound >= 1.0:
        assert packing.count >= bound


def test_packing_determinism_and_seed_sensitivity():
    config = PackingConfig(2, 1.0, 6.0, seed=11, saturation_patience=5000)
    first = generate_saturated_packing(config)
    second = generate_saturated_packing(config)
    assert np.array_equal(first.centers, second.centers)
    assert first.saturated == second.saturated
    other = generate_saturated_packing(
        PackingConfig(2, 1.0, 6.0, seed=12, saturation_patience=5000)
    )
    assert not np.array_equal(first.centers, other.centers)


def test_max_codewords_cap_disables_saturation_flag():
    packing = generate_saturated_packing(
        PackingConfig(2, 1.0, 20.0, seed=1, saturation_patience=100_000, max_codewords=10)
    )
    assert packing.count == 10
    assert not packing.saturated


def test_center_storage_grows_past_its_first_block():
    # past one _min_dist_sq block of 4096 centers; the packer stores exactly the accepted ones
    def pack(cap):
        config = PackingConfig(1, 1.0, 8000.0, seed=0, saturation_patience=2000, max_codewords=cap)
        return generate_saturated_packing(config)

    grown, first_block = pack(5000), pack(4096)
    assert grown.count == 5000 and first_block.count == 4096
    assert np.array_equal(grown.centers[:4096], first_block.centers)


def test_packing_config_validation():
    with pytest.raises(ValueError):
        PackingConfig(2, 0.0, 1.0)
    with pytest.raises(ValueError, match="degenerate"):
        PackingConfig(2, 1.0, -0.5)
    with pytest.raises(ValueError):
        PackingConfig(2, 1.0, 1.0, saturation_patience=0)
    with pytest.raises(ValueError, match="max_codewords"):
        PackingConfig(2, 1.0, 1.0, max_codewords=0)
    # a float or bool count passed `int(x) != x`, and most then made numpy raise TypeError
    # seed 1.5 drew the stream of seed 1
    for field, value in [("dimension", 2.0), ("dimension", True), ("saturation_patience", 10.0),
                         ("max_codewords", 10.5), ("max_codewords", 2.0), ("seed", 1.5),
                         ("seed", True)]:
        with pytest.raises(ValueError, match=field):
            PackingConfig(**{"dimension": 2, "r0": 1.0, "r1": 3.0, field: value})
    assert PackingConfig(np.int64(2), 1.0, 3.0, max_codewords=np.int32(5)).dimension == 2
    assert PackingConfig(2, 1.0, 3.0, seed=np.uint64(7)).seed == 7
    # -1 packed the centers of seed 2^64 - 1, and 2^64 those of seed 0
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
            PackingConfig(2, 1.0, 3.0, seed=bad)
    assert PackingConfig(2, 1.0, 3.0, seed=np.uint64(2**64 - 1)).seed == 2**64 - 1
    assert PackingConfig(geometry.MAX_DIMENSION, 1.0, 2.0).dimension == 21845
    with pytest.raises(ValueError, match="dimension"):
        PackingConfig(geometry.MAX_DIMENSION + 1, 1.0, 2.0)
    with pytest.raises(ValueError, match="count, dimension"):
        Packing(PackingConfig(2, 1.0, 3.0), [0.0, 0.0], True)


@pytest.mark.parametrize("r0, r1", [(1.0, math.inf), (math.inf, 1.0)])
def test_packing_config_refuses_nonfinite_radii(r0, r1, monkeypatch):
    # an infinite r1 sampled a whole batch before Packing refused the centers; an
    # infinite r0 made numpy warn in the dead-cell grid and returned one "saturated" center
    monkeypatch.setattr(geometry, "sample_in_ball", lambda *args: pytest.fail("batch sampled"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            generate_saturated_packing(PackingConfig(2, r0, r1))


@pytest.mark.parametrize(
    "n, r0, r1",
    [
        (3, 9.9e153, 3.1e153),  # (2 r0)^2: pack n = 3, power = 1.7e308 raised OverflowError
        (100, 3.6e153, 8.9e153),  # (2 r1)^2: min_pairwise_distance overflowed
        (2, 6.5e153, 6.5e153),  # r1^2 + (2 r0)^2, the guard band, and the dead-cell stencil
        (5, 4e153, 1e150),  # the stencil alone: 5 (7 r0 / 4)^2 of the dead cells
    ],
)
def test_packing_config_refuses_radii_whose_squares_overflow(n, r0, r1):
    with pytest.raises(ValueError, match="float range"):
        PackingConfig(n, r0, r1)


def test_packing_config_keeps_radii_whose_squares_are_finite():
    # pack n = 100, power = 1e307 packs without a warning
    r0, r1 = codec.packing_radii(1e307, epsilon_schedule(100, 1e307, 0.0, "achievability"))
    assert PackingConfig(100, r0, r1).r1 == r1
    assert PackingConfig(7, 4e153, 1e150).r0 == 4e153  # no grid at n = 7, so no stencil


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_packing_rejects_nonfinite_centers(bad):
    # a NaN center used to pass check_invariants with min_distance = inf
    with pytest.raises(ValueError, match="finite"):
        Packing(PackingConfig(2, 0.5, 2.0), [[0.0, 0.0], [bad, 1.0]], True)


@pytest.mark.parametrize(
    "centers, message",
    [
        (np.zeros((0, 2)), "empty"),
        ([[0.0, 0.0], [2.5, 0.0]], "exceeds r1"),
        ([[0.0, 0.0], [0.5, 0.0]], "below 2\\*r0"),
    ],
    ids=["empty", "outside-the-ball", "too-close"],
)
def test_check_invariants_refuses_a_broken_packing(centers, message):
    packing = Packing(PackingConfig(2, 0.5, 2.0), centers, True)
    with pytest.raises(AssertionError, match=message):
        packing.check_invariants()


def _spacing_sq(first, second):
    diff = np.subtract(second, first)
    return float(diff @ diff)  # two coordinates: one sum, in any order


@pytest.mark.parametrize("r0", [0.5, 0.3, 1.0 / 3.0, 7e-150, 3e150])
def test_check_invariants_refuses_exactly_below_the_packers_threshold(r0):
    # the closest second center on the axis whose difference form reaches (2 r0)^2 passes, and
    # one ulp closer is refused: the former slack of 2 r0 * 1e-12 let it pass
    gap_sq = (2.0 * r0) ** 2
    first = np.array([0.7 * r0, -0.3 * r0])
    x = first[0] + 2.0 * r0
    while _spacing_sq(first, [np.nextafter(x, -math.inf), first[1]]) >= gap_sq:
        x = np.nextafter(x, -math.inf)
    while _spacing_sq(first, [x, first[1]]) < gap_sq:
        x = np.nextafter(x, math.inf)
    config = PackingConfig(2, r0, 4.0 * r0)
    Packing(config, [first, [x, first[1]]], True).check_invariants()
    closer = Packing(config, [first, [np.nextafter(x, -math.inf), first[1]]], True)
    with pytest.raises(AssertionError, match="below 2\\*r0"):
        closer.check_invariants()


def test_check_invariants_reads_a_subnormal_threshold_as_the_packer_does():
    # (2 r0)^2 = 5.3 * 2^-1074 rounds to 5 * 2^-1074, whose square root lies 3 % below 2 r0:
    # the former test against 2 r0 (1 - 1e-12) refused a pair the packer keeps
    r0 = math.sqrt(5.3) * 2.0**-538
    gap_sq = (2.0 * r0) ** 2
    assert gap_sq == 5 * 2.0**-1074 and math.sqrt(gap_sq) < 0.98 * 2.0 * r0
    config = PackingConfig(1, r0, 4.0 * r0)
    Packing(config, [[0.0], [2.0 * r0]], True).check_invariants()
    with pytest.raises(AssertionError, match="below"):  # 4 * 2^-1074, one step below
        Packing(config, [[0.0], [2.0**-536]], True).check_invariants()
    packing = generate_saturated_packing(PackingConfig(1, r0, 12.0 * r0, saturation_patience=200))
    assert packing.count >= 4 and packing.min_distance**2 >= gap_sq


def test_min_pairwise_distance_examples():
    assert min_pairwise_distance([[0.0, 0.0], [3.0, 4.0]]) == 5.0
    assert min_pairwise_distance([[0.0], [1.0], [10.0]]) == 1.0
    with pytest.raises(ValueError):
        min_pairwise_distance([[1.0, 2.0]])
    with pytest.raises(ValueError):
        min_pairwise_distance([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError, match="count, dimension"):
        min_pairwise_distance(np.array([1.0, 2.0, 3.0]))
    # a non-finite point made the scan return inf with two RuntimeWarnings
    for points in ([[0.0, 0.0], [1.0, math.nan], [3.0, 3.0]], [[0.0, 0.0], [math.inf, 0.0]]):
        with pytest.raises(ValueError, match="finite"):
            min_pairwise_distance(points)


def _brute_min_distance(points, rows=None):
    """sqrt of the least einsum("ij,ij->i", d, d), d = x_j - x_i, over the pairs i < j with
    i in rows (every row by default)."""
    pts = np.asarray(points, dtype=np.float64)
    rows = range(len(pts) - 1) if rows is None else rows
    diffs = (pts[i + 1 :] - pts[i] for i in rows)
    return math.sqrt(min(np.einsum("ij,ij->i", d, d).min() for d in diffs))


def test_min_pairwise_distance_peak_stays_small():
    # the former scan held two 1024 x L blocks: about 156 MiB at L = 10 000
    rng = np.random.default_rng(8)
    for count in (5000, 10_000):
        pts = rng.standard_normal((count, 100))
        tracemalloc.start()
        try:
            value = min_pairwise_distance(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        # brute force over each row whose nearest other row, by the Gram form, lies within
        # 1e-6 relative of the nearest pair: far beyond the rounding of either form
        norms = np.einsum("ij,ij->i", pts, pts)
        nearest = np.empty(count)
        for start in range(0, count, 256):
            d2 = norms[start : start + 256, None] + norms - 2.0 * (pts[start : start + 256] @ pts.T)
            d2[np.arange(len(d2)), np.arange(start, start + len(d2))] = np.inf
            nearest[start : start + 256] = d2.min(axis=1)
        rows = np.flatnonzero(nearest <= nearest.min() * (1.0 + 1e-6))
        assert value == _brute_min_distance(pts, rows)


@st.composite
def _distance_case(draw):
    n = draw(st.integers(1, 4))
    count = draw(st.integers(2, 40))
    coords = _GRID if draw(st.booleans()) else st.floats(-3.0, 3.0)
    points = draw(arrays(np.float64, (count, n), elements=coords))
    # far from the origin the Gram form rounds by more than the gaps between pairs
    points += draw(st.sampled_from((0.0, 1e6)))
    points *= draw(st.sampled_from((1.0, 2.0**-500, 2.0**-1040, 1e140)))
    for _ in range(draw(st.integers(0, 3))):  # pairs one to three ulps apart
        first, second = draw(st.lists(st.integers(0, count - 1), min_size=2, max_size=2,
                                      unique=True))
        points[second] = points[first] + draw(st.integers(1, 3)) * np.spacing(points[first])
    return points, draw(st.integers(1, 16)), draw(st.integers(1, 16))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_distance_case())
def test_min_pairwise_distance_equals_the_brute_force_scan(case):
    # small row and center blocks, so that pairs straddle both kinds of tile edge
    points, rows, centers = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_ROW_BLOCK", rows)
        mp.setattr(geometry, "_CENTER_BLOCK", centers)
        assert min_pairwise_distance(points) == _brute_min_distance(points)


@pytest.mark.parametrize("first, second", [(255, 256), (0, 4352), (4351, 4352)])
def test_min_pairwise_distance_is_exact_across_the_tile_edges(first, second):
    # 4360 rows: row blocks of 256 end at 256 and 4352, and from the first block the later
    # rows' second center block of 4096 starts at 4352.  The pair across an edge lies 2^-7
    # apart and a decoy pair 2^-7 + 2^-30; near norm 1e6 the Gram form cannot tell them apart
    assert (geometry._ROW_BLOCK, geometry._CENTER_BLOCK) == (256, 4096)
    points = np.random.default_rng(first).uniform(-50.0, 50.0, (4360, 3)) + [1e6, 3e5, 0.0]
    points[second] = points[first] + [2.0**-7, 0.0, 0.0]
    points[(first + 2000) % 4360] = points[(first + 100) % 4360] + [2.0**-7 + 2.0**-30, 0.0, 0.0]
    assert min_pairwise_distance(points) == _brute_min_distance(points) == 2.0**-7


def test_min_pairwise_distance_refuses_squares_past_the_float_range():
    # (+-1e154, 0) reported an infinite distance with three RuntimeWarnings; 2e154 is true
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="float range"):
            min_pairwise_distance([[1e154, 0.0], [-1e154, 0.0]])
        assert min_pairwise_distance([[5e153, 0.0], [-5e153, 0.0]]) == 1e154


def test_density_single_sphere_covers_everything():
    packing = Packing(PackingConfig(2, 1.0, 1.0, seed=0), np.zeros((1, 2)), True)
    est = estimate_packing_density(packing, samples=5000, seed=2)
    assert isinstance(est, DensityEstimate)
    assert est.density >= 1.0 - 3.0 * max(est.stderr, 1e-12)


def test_density_one_dimensional_tiling():
    r1 = 2.0
    centers = np.array([[-r1], [0.0], [r1]])
    packing = Packing(PackingConfig(1, r1 / 2.0, r1, seed=0), centers, True)
    est = estimate_packing_density(packing, samples=20000, seed=7)
    # intervals of half-width r1/2 around -r1, 0, r1 tile [-r1, r1] exactly
    assert est.density >= 1.0 - 3.0 * max(est.stderr, 1e-12)


def test_density_of_saturated_packing_meets_quarter_bound():
    packing = generate_saturated_packing(
        PackingConfig(2, 1.0, 10.0, seed=99, saturation_patience=100_000)
    )
    est = estimate_packing_density(packing, samples=40000, seed=5)
    assert est.density >= 0.25 - 3.0 * est.stderr


def test_density_rejects_zero_samples():
    packing = Packing(PackingConfig(2, 1.0, 1.0, seed=0), np.zeros((1, 2)), True)
    with pytest.raises(ValueError):
        estimate_packing_density(packing, samples=0)
    # 100.5 failed inside a worker with a numpy TypeError
    for bad in (100.5, 100.0, True):
        with pytest.raises(ValueError, match="samples must be an integer"):
            estimate_packing_density(packing, samples=bad)
    assert estimate_packing_density(packing, samples=np.int64(100)).samples == 100
    for bad in (1.5, 2.0, False):
        with pytest.raises(ValueError, match="seed must be an integer"):
            estimate_packing_density(packing, samples=100, seed=bad)
    assert estimate_packing_density(packing, samples=100, seed=np.int64(3)).samples == 100
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
            estimate_packing_density(packing, samples=100, seed=bad)
    assert estimate_packing_density(packing, samples=100, seed=2**64 - 1).samples == 100
    with pytest.raises(ValueError, match="empty"):
        estimate_packing_density(Packing(packing.config, np.zeros((0, 2)), True), samples=100)


def test_density_split_is_deterministic_in_seed():
    packing = generate_saturated_packing(
        PackingConfig(2, 1.0, 8.0, seed=21, saturation_patience=3000)
    )
    a = estimate_packing_density(packing, samples=30000, seed=13)
    b = estimate_packing_density(packing, samples=30000, seed=13)
    assert a == b


def test_density_is_the_same_for_any_pool_size(monkeypatch):
    # 40000 samples span three chunks (16384 + 16384 + 7232)
    packing = generate_saturated_packing(
        PackingConfig(2, 1.0, 8.0, seed=21, saturation_patience=3000)
    )
    assert geometry._center_slots(packing) is not None  # the slot-table path
    estimates = []
    for workers in (1, 2, 4):
        monkeypatch.setattr(seeding, "_WORKERS", workers)
        estimates.append(estimate_packing_density(packing, samples=40000, seed=13))
    assert estimates[0] == estimates[1] == estimates[2]


@st.composite
def _slot_geometry(draw):
    n = draw(st.integers(1, 3))
    r0 = draw(st.floats(0.2, 3.0))
    cells_per_r1 = draw(st.floats(4.0, 30.0).filter(lambda c: c != int(c)))  # r1/h, non-integer
    r1 = cells_per_r1 * r0 / geometry._SLOT_CELLS_PER_R0
    return PackingConfig(n, r0, r1), draw(st.integers(2, 20)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(_slot_geometry())
def test_slots_hold_every_center_within_r0_of_a_sample(data):
    config, count, seed = data
    n, r0, r1 = config.dimension, config.r0, config.r1
    rng = np.random.default_rng(seed)
    centers = sample_in_ball(n, r1, rng, count)  # overlapping centers are allowed here
    table = geometry._center_slots(Packing(config, centers, True))
    assume(table is not None)  # refused when some cell is reached by every center
    grid, slots = table
    assert ((0 <= slots) & (slots <= count)).all()
    # cell borders over the widened grid, the axis ends and an ulp beyond them, and
    # points within r0 of a center, on its axes at exactly r0 among them
    borders = rng.integers(0, grid.side + 1, (400, n)) * grid.h - grid.origin
    axis_ends = np.concatenate([np.eye(n) * r1, -np.eye(n) * r1])
    beyond = np.nextafter(axis_ends, 2.0 * axis_ends)
    near = centers[rng.integers(0, count, 400)] + sample_in_ball(n, r0, rng, 400)
    on_axes = (centers[:, None, :] + r0 * np.concatenate([np.eye(n), -np.eye(n)])).reshape(-1, n)
    points = np.concatenate([borders, axis_ends, beyond, near, on_axes])
    within = ((points[:, None, :] - centers[None]) ** 2).sum(axis=2) <= r0**2
    held = (slots[:, grid.cells(points)].T[:, :, None] == np.arange(count)).any(axis=1)
    assert within.any()
    assert (held | ~within).all()


def _dense_density(packing, samples, seed, monkeypatch):
    """estimate_packing_density with the slot table refused: the _min_dist_sq scan."""
    with monkeypatch.context() as patch:
        patch.setattr(geometry, "_center_slots", lambda packing: None)
        return estimate_packing_density(packing, samples, seed=seed)


def test_slot_density_equals_the_dense_scan_on_a_sweep(monkeypatch):
    rng = np.random.default_rng(2024)
    depths = set()
    for k in range(60):
        n, r0, ratio = int(rng.integers(1, 4)), rng.uniform(0.3, 2.0), rng.uniform(3.0, 14.0)
        packing = generate_saturated_packing(
            PackingConfig(n, r0, ratio * r0, seed=k, saturation_patience=2000)
        )
        depths.add(geometry._center_slots(packing)[1].shape[0])
        slotted = estimate_packing_density(packing, 20000, seed=k)
        assert slotted == _dense_density(packing, 20000, k, monkeypatch)
    assert min(depths) >= 2 and max(depths) >= 5  # slot planes per cell


def test_density_past_the_slot_caps_takes_the_dense_scan(monkeypatch):
    # densities recorded with the dense scan alone, before the slot table
    coincident = Packing(PackingConfig(3, 1.0, 10.0), np.full((1000, 3), 0.25), True)
    four = generate_saturated_packing(PackingConfig(4, 1.0, 10.0, seed=1, saturation_patience=300))
    assert four.count == 1804
    # fits the caps with one slot plane per center (1000 x 2304 slots), slower than the dense
    # scan; its density was recorded on that table
    stacked = Packing(PackingConfig(2, 1.0, 10.0), np.full((1000, 2), 0.25), True)
    cases = ((coincident, 3, 0.00105), (four, 4, 0.15745), (stacked, 3, 0.0102))
    for packing, seed, density in cases:
        assert geometry._center_slots(packing) is None
        assert estimate_packing_density(packing, 20000, seed=seed).density == density
    criterion = generate_saturated_packing(PackingConfig(3, 1.0, 10.0, seed=0))
    assert geometry._center_slots(criterion)[1].shape[0] == 5  # planes, against 428 centers
    # 2^20 coincident centers would fill 37 * 2^20 slots: refused before any is built
    crowd = Packing(PackingConfig(2, 1.0, 1.0), np.zeros((2**20, 2)), True)
    tracemalloc.start()
    try:
        assert geometry._center_slots(crowd) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
