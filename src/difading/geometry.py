"""Saturated sphere packings in a ball.

Codebooks are built from packings of non-overlapping radius-``r0`` spheres
whose centers lie in the ball of radius ``r1`` around the origin (the spheres
themselves may overhang the ball).  A greedy rejection sampler generates the
packing; a run is declared *saturated* once ``saturation_patience``
consecutive candidates have been rejected.  A truly saturated packing covers
at least the fraction ``2^-n`` of the big ball with small spheres (doubling
the small radius covers everything, and doubling multiplies volumes by
``2^n``), hence contains at least ``2^-n * (r1/r0)^n`` spheres.

Near saturation almost every candidate lands where an accepted center
already excludes it.  While a grid of cells of side ``r0/4`` over the cube
``[-r1, r1]^n`` (widened by 7 cells a side for the stencil) holds at most
``2^20`` cells, which is n <= 3 at r1/r0 = 10 and never n = 100, the sampler
keeps a dead-cell mask: on each acceptance it marks the cells that lie wholly
within ``2*r0`` of the new center, and a candidate in a marked cell is
rejected without a distance computation.  Every acceptance is still decided
by the distance kernel, so the mask changes no packing.

A candidate is first tested against the earlier batches' centers by _min_dist_sq, whose Gram
form ``||x||^2 - max_c (2 x.c - ||c||^2)`` is compared with ``(2*r0)^2`` without a guard band.
The survivors of one batch are then tested against each other in blocks of live survivors:
one GEMM per block gives the Gram form of its pairs with the later survivors, and a pair inside
a guard band around ``(2*r0)^2``, derived from the rounding bound of a length-n dot product, is
re-decided in the difference form.  So every same-batch pair is decided as the difference form
decides it, and every pair with an earlier center as _min_dist_sq decides it.
min_pairwise_distance screens every pair on the same kernels and measures each row that scores
within that band of the smallest score again in the difference form: the exact minimum.

estimate_packing_density measures the covered fraction by Monte Carlo.  While a
slot table over cells of side ``r0/2`` fits the same cap of 2^20 cells and 2^23
slots, a sample is tested, in the difference form ``||x - c||^2 <= r0^2``, only
against the few centers whose r0-ball can reach its cell; past the caps, or where
some cell is reached by every center, against every center through _min_dist_sq.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .seeding import require_integer, require_seed, run_chunks, substream

_BATCH = 2048
_ROW_BLOCK = 256
_CENTER_BLOCK = 4096
# Largest n whose rejection-test buffers, 2*blk.T of a center block and a batch, fit in 1 GiB.
MAX_DIMENSION = 2**30 // (8 * (_CENTER_BLOCK + _BATCH))
# Microscopic slack for re-verifying distances computed through BLAS reductions.
_FP_GUARD = 1e-12
# Dead-cell mask: cells of side r0 / _CELLS_PER_R0, built only while its grid
# holds at most _MAX_CELLS cells.  Finer cells were slower: the stencil grows
# as (r0/h)^n.  _REACH is the largest stencil offset on one axis, where
# (|k| + 1) h < 2 r0.
_CELLS_PER_R0 = 4
_MAX_CELLS = 2**20
_REACH = 2 * _CELLS_PER_R0 - 2
# Relative margin of the stencils, far above the rounding of the distance kernel.
_STENCIL_GUARD = 1e-9
# Density slot table: cells of side r0 / _SLOT_CELLS_PER_R0 (r0 and r0/3 were slower),
# built only while it holds at most _MAX_SLOTS slots.
_SLOT_CELLS_PER_R0 = 2
_MAX_SLOTS = 2**23


@dataclass(frozen=True)
class PackingConfig:
    """Parameters of a greedy saturated packing run."""

    dimension: int
    r0: float
    r1: float
    seed: int = 0
    saturation_patience: int = 100_000
    max_codewords: int = 1_000_000

    def __post_init__(self):
        for name in ("dimension", "saturation_patience", "max_codewords"):
            require_integer(name, getattr(self, name))
        require_seed(self.seed)
        if not 1 <= self.dimension <= MAX_DIMENSION:
            raise ValueError(f"dimension must be in [1, {MAX_DIMENSION}], got {self.dimension}")
        if not 0 < self.r0 < math.inf:
            raise ValueError(f"r0 must be positive and finite, got {self.r0}")
        if not 0 < self.r1 < math.inf:
            raise ValueError(f"degenerate geometry: r1 must be positive and finite, got {self.r1}")
        # The largest square a run forms must be finite.  The Gram forms of _min_dist_sq,
        # _greedy_accepts and min_pairwise_distance, and the difference form, reach
        # ||x - y||^2 <= (2 r1)^2; the guard band of _greedy_accepts adds (2 r0)^2 to a
        # squared norm, r1^2 + (2 r0)^2.  A grid is built only while its cells, at least 9
        # a side, number at most _MAX_CELLS, so n <= 6; a stencil width
        # sum(((|k_i| + gap)^+ h)^2) is then at most n w^2, w = (_REACH + 1) r0 / _CELLS_PER_R0
        # = 7 r0 / 4 on the dead cells, and n r0^2 on the slots.
        n, r0, r1 = int(self.dimension), float(self.r0), float(self.r1)  # no numpy warnings
        largest = max(4.0 * r1 * r1, r1 * r1 + 4.0 * r0 * r0)
        if 9**n <= _MAX_CELLS:
            width = (_REACH + 1) * r0 / _CELLS_PER_R0
            largest = max(largest, n * width * width)
        if not largest < math.inf:
            raise ValueError(f"radii r0 = {r0!r}, r1 = {r1!r}: the packing's squared "
                             f"distances leave the float range")
        if self.saturation_patience < 1:
            raise ValueError(f"saturation_patience must be >= 1, got {self.saturation_patience}")
        if self.max_codewords < 1:
            raise ValueError(f"max_codewords must be >= 1, got {self.max_codewords}")


@dataclass(frozen=True)
class Packing:
    """Accepted sphere centers plus the saturation verdict of the run."""

    config: PackingConfig
    centers: np.ndarray
    saturated: bool

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=np.float64)
        if centers.ndim != 2 or centers.shape[1] != self.config.dimension:
            raise ValueError("centers must be a (count, dimension) array")
        if not np.isfinite(centers).all():
            raise ValueError("centers must be finite")
        object.__setattr__(self, "centers", centers)

    @property
    def count(self) -> int:
        return self.centers.shape[0]

    @cached_property
    def min_distance(self) -> float:
        """Smallest pairwise center distance (nan for fewer than 2 centers), scanned once."""
        if self.count < 2:
            return math.nan
        return min_pairwise_distance(self.centers)

    def check_invariants(self):
        """Raise if any center leaves the r1-ball or any pair is closer than 2*r0."""
        cfg = self.config
        if self.count == 0:
            raise AssertionError("packing is empty")
        norms = np.linalg.norm(self.centers, axis=1)
        if norms.max() > cfg.r1 * (1.0 + _FP_GUARD):
            raise AssertionError(f"center norm {norms.max()} exceeds r1={cfg.r1}")
        if self.count >= 2:
            dmin = self.min_distance
            if dmin < 2.0 * cfg.r0 * (1.0 - _FP_GUARD):
                raise AssertionError(f"pairwise distance {dmin} below 2*r0={2 * cfg.r0}")


def sample_in_ball(n: int, radius: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """size points uniform in the n-ball of given radius (direction x U^(1/n) law)."""
    x = rng.standard_normal((size, n))
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    u = rng.random((size, 1))
    return radius * u ** (1.0 / n) * (x / norms)


def _min_dist_sq(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Per-point squared distance to the nearest center, clamped at 0.

    d2_min(x) = ||x||^2 - max_c (2 x.c - ||c||^2): one GEMM per tile of
    ``_ROW_BLOCK`` points by ``_CENTER_BLOCK`` centers, ||c||^2 subtracted in
    place on its output, and a running row max across center blocks, so the
    tile stays small whatever the number of points or centers.
    """
    rows = points.shape[0]
    score = np.full(rows, -np.inf)
    for start in range(0, centers.shape[0], _CENTER_BLOCK):
        blk = centers[start : start + _CENTER_BLOCK]
        twice = 2.0 * blk.T
        cn = np.einsum("ij,ij->i", blk, blk)
        tile = np.empty((min(rows, _ROW_BLOCK), blk.shape[0]))
        for row in range(0, rows, _ROW_BLOCK):
            out = tile[: min(_ROW_BLOCK, rows - row)]
            np.matmul(points[row : row + _ROW_BLOCK], twice, out=out)
            out -= cn
            part = score[row : row + _ROW_BLOCK]
            np.maximum(part, out.max(axis=1), out=part)
    best = np.einsum("ij,ij->i", points, points)
    best -= score
    return np.maximum(best, 0.0, out=best)


def _difference_sq(points: np.ndarray, first, second) -> np.ndarray:
    """Per pair, ||points[second] - points[first]||^2 in the difference form."""
    diff = points[second] - points[first]
    return np.einsum("ij,ij->i", diff, diff)


def _difference_far(batch: np.ndarray, first: np.ndarray, second: np.ndarray, gap_sq: float):
    """Per pair, whether ||batch[second] - batch[first]||^2 >= gap_sq in the difference form."""
    return _difference_sq(batch, first, second) >= gap_sq


def _guard_band(n: int, largest_sq: float, threshold: float) -> float:
    """Half-width of the band around threshold outside which both forms decide alike."""
    # A length-k dot product, summed in any order with or without FMA, is within gamma_k |x|.|y|
    # of its value, gamma_k = k u / (1 - k u), u = 2^-53 (Higham, Accuracy and Stability of
    # Numerical Algorithms, sec. 3.1).  For rows x, y with s = ||x||^2 + ||y||^2 <= 2 m,
    # m = largest_sq, D = ||x - y||^2 <= 2 s and T = threshold:
    # - the Gram form as _greedy_accepts compares it, ||x||^2 - T against 2 x.y - ||y||^2, is
    #   within 2 gamma_n s of D - T from its three dot products (2|x.y| <= s), u (3 s + T) from
    #   its two subtractions and u (s + T + guard) from the threshold's;
    # - the difference form is within gamma_{n+2} D <= 2 gamma_{n+2} s of D (the rounding of
    #   x - y twice through the square, one in the square, n - 1 in the sum).
    # The two sum to at most 12 gamma_{n+2} m + 2 u T + u guard, so outside a band of
    # 16 gamma_{n+2} (m + T), which leaves room for the rounding of m and of the band itself,
    # both forms decide a pair alike.  Below the normal range each product may also lose
    # 2^-1075, at most 4 n of them per pair (n in each dot product and in the square):
    # 4 n 2^-1074 covers two pairs.
    ku = (n + 2) * 2.0**-53
    return 16.0 * ku / (1.0 - ku) * (largest_sq + threshold) + 4 * n * 2.0**-1074


def _greedy_accepts(batch: np.ndarray, live: np.ndarray, gap_sq: float):
    """Yield, in order, the indices in ``live`` that the greedy same-batch scan accepts.

    A live row is accepted iff its squared distance in the difference form
    ||x - y||^2 to each live row accepted before it is at least gap_sq.  The
    live rows are walked in blocks of _ROW_BLOCK.  One GEMM gives the Gram form
    ||x||^2 + ||y||^2 - 2 x.y of a block against itself and every later live
    row; a pair whose Gram value lies within the guard band around gap_sq is
    re-decided in the difference form, and each acceptance ANDs its row of
    verdicts into the live set.  A block is built only when the caller asks
    for an index past the previous one, and a last live row needs none.
    """
    if live.size < 2:
        yield from live
        return
    n = batch.shape[1]
    points = batch[live]
    norms = np.einsum("ij,ij->i", points, points)
    guard = _guard_band(n, norms.max(), gap_sq)
    while live.size > 1:
        size = min(_ROW_BLOCK, live.size)
        gram = (2.0 * points[:size]) @ points.T
        gram -= norms  # 2 x.y - ||y||^2, which is ||x||^2 - T exactly where D = T
        reach = norms[:size] - gap_sq
        far = gram < (reach - guard)[:, None]
        near = gram > (reach + guard)[:, None]
        if np.count_nonzero(far) + np.count_nonzero(near) < gram.size:  # NaN lands here too
            first, second = np.nonzero(np.triu(~(far | near), 1))
            far[first, second] = _difference_far(batch, live[first], live[second], gap_sq)
        keep = np.ones(live.size, dtype=bool)
        for row in range(size):
            if keep[row]:
                yield live[row]
                keep &= far[row]
        keep = keep[size:]
        live, points, norms = live[size:][keep], points[size:][keep], norms[size:][keep]
    yield from live


class _Grid:
    """Cells of side h = r0/per_r0 over [-r1, r1]^n, widened by reach + 1 cells a side, so
    a stencil of offsets up to reach cells an axis around any point of the ball lies inside
    the grid and is kept as flat offsets."""

    def __init__(self, config: PackingConfig, per_r0: int, reach: int, side: int):
        self.h = config.r0 / per_r0
        self.reach = reach
        self.origin = config.r1 + (reach + 1) * self.h
        self.side = side
        self.strides = side ** np.arange(config.dimension - 1, -1, -1)

    @classmethod
    def for_config(cls, config: PackingConfig, per_r0=_CELLS_PER_R0, reach=_REACH):
        """The grid (by default the dead-cell mask's), or None past _MAX_CELLS cells."""
        per_axis = 2.0 * config.r1 * per_r0 / config.r0 + 2 * (reach + 1)
        side = math.ceil(min(per_axis, _MAX_CELLS + 1))  # capped: no huge side**n
        return cls(config, per_r0, reach, side) if side**config.dimension <= _MAX_CELLS else None

    def cells(self, points: np.ndarray) -> np.ndarray:
        """Flat cell index of each point (of a 1-D point, its scalar index).

        Per-axis indices are clipped to the cells whose whole stencil lies in
        the grid, so no flat offset wraps to another cell through the strides.
        The clip binds only a cell or more outside the ball; a coordinate of
        sample_in_ball exceeds r1 in magnitude by an ulp at most.
        """
        index = np.floor((points + self.origin) / self.h)
        np.clip(index, self.reach, self.side - 1 - self.reach, out=index)
        return index.astype(np.intp) @ self.strides

    def stencil_offsets(self, gap: int, limit: float) -> np.ndarray:
        """Flat offsets of the cells k in [-reach, reach]^n with
        sum(((|k_i| + gap)^+ h)^2) < limit."""
        n = self.strides.size
        # int8 offsets and one axis at a time keep the box at n bytes per offset.
        offsets = np.indices((2 * self.reach + 1,) * n, dtype=np.int8).reshape(n, -1) - self.reach
        width_sq = sum((np.maximum(np.abs(k) + gap, 0) * self.h) ** 2 for k in offsets)
        return offsets[:, width_sq < limit].T.astype(np.intp) @ self.strides


class _DeadCells(_Grid):
    """Boolean grid marking cells wholly within 2*r0 of an accepted center.

    Cells have side h = r0/_CELLS_PER_R0.  The stencil holds the cell offsets
    k with sum(((|k_i| + 1) h)^2) < (2 r0)^2 (1 - _STENCIL_GUARD): every point
    of such a cell lies closer than 2*r0 to any point of the home cell, so
    _min_dist_sq would reject a candidate in a marked cell as well.
    """

    def __init__(self, config: PackingConfig, *grid):
        super().__init__(config, *grid)
        self.dead = np.zeros(self.side**config.dimension, dtype=bool)
        self.stencil = self.stencil_offsets(1, (2.0 * config.r0) ** 2 * (1.0 - _STENCIL_GUARD))

    def mark(self, center: np.ndarray):
        """Mark the center's cell and every stencil cell around it."""
        self.dead[self.cells(center) + self.stencil] = True


def generate_saturated_packing(config: PackingConfig) -> Packing:
    """Greedy packing by rejection sampling, deterministic in config.seed.

    Candidates are drawn uniformly in the r1-ball; a candidate is accepted iff
    it keeps distance >= 2*r0 to every accepted center.  The run stops with
    saturated=True after ``saturation_patience`` consecutive rejections, or
    with saturated=False once ``max_codewords`` centers are accepted.  Each
    batch appends its acceptances at once, so only accepted centers are stored.

    Within a batch, _greedy_accepts walks the survivors of _min_dist_sq in
    blocks of _ROW_BLOCK live rows, one GEMM of a block against the later live
    rows each.  Pairs in the guard band around (2*r0)^2 are re-decided in the
    difference form, so no rounding of that GEMM changes a same-batch decision;
    a pair with an earlier batch's center is decided by _min_dist_sq alone.

    While its cell grid (side r0/4, over [-r1, r1]^n widened for the stencil)
    has at most 2^20 cells, a dead-cell mask rejects a candidate whose cell
    lies wholly within 2*r0 of an accepted center before any distance is
    computed.  The other candidates still go to _min_dist_sq, so the packing
    is the same with or without the mask.
    """
    n = config.dimension
    rng = substream(config.seed, "packing")
    centers = np.empty((0, n))
    rejects = 0
    saturated = None
    min_gap_sq = (2.0 * config.r0) ** 2
    mask = _DeadCells.for_config(config)
    while saturated is None:
        batch = sample_in_ball(n, config.r1, rng, _BATCH)
        alive = np.ones(_BATCH, dtype=bool) if mask is None else ~mask.dead[mask.cells(batch)]
        alive[alive] = _min_dist_sq(batch[alive], centers) >= min_gap_sq
        taken = []
        last = -1
        for idx in _greedy_accepts(batch, np.flatnonzero(alive), min_gap_sq):
            if rejects + idx - last - 1 >= config.saturation_patience:
                saturated = True
                break
            rejects = 0
            taken.append(idx)
            last = idx
            if mask is not None:
                mask.mark(batch[idx])
            if len(centers) + len(taken) >= config.max_codewords:
                saturated = False
                break
        else:
            rejects += _BATCH - 1 - last
            if rejects >= config.saturation_patience:
                saturated = True
        centers = np.concatenate([centers, batch[taken]])
    packing = Packing(config=config, centers=centers, saturated=saturated)
    packing.check_invariants()
    return packing


def min_pairwise_distance(points) -> float:
    """Minimum distance over distinct pairs: sqrt of the least difference-form ||x_j - x_i||^2."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a (count, dimension) array of equal-length vectors")
    if pts.shape[0] < 2:
        raise ValueError(f"need at least 2 points, got {pts.shape[0]}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    norms = np.einsum("ij,ij->i", pts, pts)
    largest = float(norms.max())
    if not 4.0 * largest < math.inf:  # ||x - y||^2 <= 4 max ||x||^2, the largest square formed
        raise ValueError(f"squared distances leave the float range: max ||x||^2 = {largest!r}")
    score = np.empty(pts.shape[0])  # each row's Gram-form minimum over the later rows
    for start in range(0, pts.shape[0], _ROW_BLOCK):
        stop = start + _ROW_BLOCK
        blk = pts[start:stop]
        gram = (2.0 * blk) @ blk.T - norms[start:stop]
        gram[np.tri(len(blk), dtype=bool)] = -np.inf  # the diagonal and the earlier rows
        part = norms[start:stop] - gram.max(axis=1)
        score[start:stop] = np.minimum(part, _min_dist_sq(blk, pts[stop:]))  # inf past the end
    # The row of the exact minimum F scores within the band of the smallest score G: both are
    # Gram values of a pair, each within 12 gamma_{n+2} m of its difference form (_guard_band
    # at T = 0, where u D <= 4 u m fits the last subtraction), and F is at most the difference
    # form of G's pair, so that row scores at most G + 24 gamma_{n+2} m, inside the band at T = m.
    rows = np.flatnonzero(score <= score.min() + _guard_band(pts.shape[1], largest, largest))
    return math.sqrt(min(_difference_sq(pts, row, slice(row + 1, None)).min() for row in rows))


@dataclass(frozen=True)
class DensityEstimate:
    """Monte-Carlo covered-volume fraction with its binomial standard error."""

    density: float
    stderr: float
    samples: int


def _center_slots(packing: Packing):
    """(grid, slots), or None past _MAX_CELLS cells or _MAX_SLOTS slots or where some cell holds
    a slot for every center, so the dense scan tests no more: slots[k, c] is the k-th center
    whose r0-ball can reach cell c, one whose cell lies at an offset k from c with
    sum(((|k_i| - 1)^+ h)^2) < r0^2 (1 + _STENCIL_GUARD); a free slot holds packing.count."""
    cfg = packing.config
    grid = _Grid.for_config(cfg, _SLOT_CELLS_PER_R0, _SLOT_CELLS_PER_R0 + 1)
    if grid is None:
        return None
    stencil = grid.stencil_offsets(-1, cfg.r0**2 * (1.0 + _STENCIL_GUARD))
    if packing.count * stencil.size > _MAX_SLOTS:  # each (center, offset) pair takes a slot
        return None
    reached = (grid.cells(packing.centers)[:, None] + stencil).ravel()
    order = np.argsort(reached, kind="stable")
    reached = reached[order]
    rank = np.arange(reached.size) - np.searchsorted(reached, reached)
    shape = (rank.max() + 1, grid.side**cfg.dimension)
    if shape[0] >= packing.count or math.prod(shape) > _MAX_SLOTS:
        return None
    slots = np.full(shape, packing.count)
    slots[rank, reached] = order // stencil.size
    return grid, slots


def estimate_packing_density(packing: Packing, samples: int, seed: int = 0) -> DensityEstimate:
    """Fraction of the r1-ball covered by the packing's r0-spheres.

    Uniform samples in the r1-ball are drawn in chunks of 16384 through
    seeding.run_chunks; each chunk draws from its own (seed, "density", chunk)
    substream, so the estimate is the same for any pool size.  A sample is
    covered when ||x - c||^2 <= r0^2 for one of the centers in its cell's
    slots (_center_slots), one coordinate gather per slot and axis; past the
    table's caps (n >= 4 at r1/r0 = 10) by the Gram form of _min_dist_sq.
    """
    require_integer("samples", samples)
    require_seed(seed)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if packing.count == 0:
        raise ValueError("packing is empty")
    cfg = packing.config
    r0_sq = cfg.r0**2
    table = _center_slots(packing)
    if table is not None:
        grid, slots = table
        # one contiguous row of coordinates per axis, the sentinel center last
        axes = np.vstack([packing.centers, np.full(cfg.dimension, np.inf)]).T.copy()

    def covered(item):
        index, size = item
        pts = sample_in_ball(cfg.dimension, cfg.r1, substream(seed, "density", index), size)
        if table is None:
            return int((_min_dist_sq(pts, packing.centers) <= r0_sq).sum())
        cell = grid.cells(pts)
        near = np.zeros(size, dtype=bool)
        for plane in slots:
            center = plane.take(cell)
            near |= sum((axis.take(center) - x) ** 2 for axis, x in zip(axes, pts.T)) <= r0_sq
        return int(np.count_nonzero(near))

    p = run_chunks(covered, samples, 16384) / samples
    return DensityEstimate(density=p, stderr=math.sqrt(p * (1.0 - p) / samples), samples=samples)
