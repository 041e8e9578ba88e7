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

A candidate is first tested against the earlier batches' centers by
_min_dist_sq, whose Gram form ``||x||^2 - max_c (2 x.c - ||c||^2)`` is
compared with ``(2*r0)^2`` without a guard band.  The survivors of one batch
are then tested against each other in blocks of live survivors: one GEMM per
block gives the Gram form of its pairs with the later survivors, and a pair
inside a guard band around ``(2*r0)^2``, derived from the rounding bound of a
length-n dot product, is re-decided in the difference form.  So every
same-batch pair is decided as the difference form decides it, and every pair
with an earlier center as _min_dist_sq decides it.

All volume computations run in the log domain to stay finite for large
dimensions.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .seeding import require_integer, run_chunks, substream

_BATCH = 2048
_ROW_BLOCK = 256
# Rows of the same-batch scan's first and smallest block (_next_rows).
_MIN_ROWS = 8
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
# Relative margin of the stencil, far above the rounding of the distance kernel.
_STENCIL_GUARD = 1e-9


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
        for name in ("dimension", "seed", "saturation_patience", "max_codewords"):
            require_integer(name, getattr(self, name))
        if not 1 <= self.dimension <= MAX_DIMENSION:
            raise ValueError(f"dimension must be in [1, {MAX_DIMENSION}], got {self.dimension}")
        if not 0 < self.r0 < math.inf:
            raise ValueError(f"r0 must be positive and finite, got {self.r0}")
        if not 0 < self.r1 < math.inf:
            raise ValueError(f"degenerate geometry: r1 must be positive and finite, got {self.r1}")
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


def _difference_far(batch: np.ndarray, first: np.ndarray, second: np.ndarray, gap_sq: float):
    """Per pair, whether ||batch[second] - batch[first]||^2 >= gap_sq in the difference form."""
    diff = batch[second] - batch[first]
    return np.einsum("ij,ij->i", diff, diff) >= gap_sq


def _next_rows(rows: int, taken: int) -> int:
    """Rows of the next block: twice up to _ROW_BLOCK if half were taken, else half to _MIN_ROWS."""
    if 2 * taken >= rows:
        return min(2 * rows, _ROW_BLOCK)
    return max(rows // 2, _MIN_ROWS)


def _greedy_accepts(batch: np.ndarray, live: np.ndarray, gap_sq: float):
    """Yield, in order, the indices in ``live`` that the greedy same-batch scan accepts.

    A live row is accepted iff its squared distance in the difference form
    ||x - y||^2 to each live row accepted before it is at least gap_sq.  The
    live rows are walked in blocks.  One GEMM gives the Gram form
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
    # Guard band.  A length-k dot product, summed in any order with or without
    # FMA, is within gamma_k |x|.|y| of its value, gamma_k = k u / (1 - k u),
    # u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms, sec.
    # 3.1).  For live rows x, y with s = ||x||^2 + ||y||^2 and D = ||x - y||^2
    # <= 2 s, and T = gap_sq:
    # - the Gram form as compared below, ||x||^2 - T against 2 x.y - ||y||^2,
    #   is within 2 gamma_n s of D - T from its three dot products (2|x.y| <= s),
    #   u (3 s + T) from its two subtractions and u (s + T + guard) from the
    #   threshold's;
    # - the difference form is within gamma_{n+2} D <= 2 gamma_{n+2} s of D (the
    #   rounding of x - y twice through the square, one in the square, n - 1 in
    #   the sum).
    # With m the largest ||x||^2 (s <= 2 m) the two sum to at most
    # 12 gamma_{n+2} m + 2 u T + u guard, so outside a band of 16 gamma_{n+2}
    # (m + T), which leaves room for the rounding of m and of the band itself,
    # both forms decide a pair alike.  Below the normal range each product may
    # also lose 2^-1075, at most 5 n of them per pair: 4 n 2^-1074 more.
    ku = (n + 2) * 2.0**-53
    guard = 16.0 * ku / (1.0 - ku) * (norms.max() + gap_sq) + 4 * n * 2.0**-1074
    rows = _MIN_ROWS
    while live.size > 1:
        size = min(rows, live.size)
        gram = (2.0 * points[:size]) @ points.T
        gram -= norms  # 2 x.y - ||y||^2, which is ||x||^2 - T exactly where D = T
        reach = norms[:size] - gap_sq
        far = gram < (reach - guard)[:, None]
        near = gram > (reach + guard)[:, None]
        if np.count_nonzero(far) + np.count_nonzero(near) < gram.size:  # NaN lands here too
            first, second = np.nonzero(np.triu(~(far | near), 1))
            far[first, second] = _difference_far(batch, live[first], live[second], gap_sq)
        keep = np.ones(live.size, dtype=bool)
        taken = 0
        for row in range(size):
            if keep[row]:
                taken += 1
                yield live[row]
                keep &= far[row]
        keep = keep[size:]
        live, points, norms = live[size:][keep], points[size:][keep], norms[size:][keep]
        rows = _next_rows(size, taken)
    yield from live


class _DeadCells:
    """Boolean grid over [-r1, r1]^n marking cells wholly within 2*r0 of an accepted center.

    Cells have side h = r0/_CELLS_PER_R0.  The stencil holds the cell offsets
    k with sum(((|k_i| + 1) h)^2) < (2 r0)^2 (1 - _STENCIL_GUARD): every point
    of such a cell lies closer than 2*r0 to any point of the home cell, so
    _min_dist_sq would reject a candidate in a marked cell as well.  The grid
    extends _REACH + 1 cells beyond the cube on every side, so the stencil
    around any point of the ball lies inside it and is kept as flat offsets.
    """

    def __init__(self, n: int, r0: float, r1: float, side: int):
        self.h = r0 / _CELLS_PER_R0
        self.origin = r1 + (_REACH + 1) * self.h
        self.side = side
        self.strides = side ** np.arange(n - 1, -1, -1)
        self.dead = np.zeros(side**n, dtype=bool)
        # int8 offsets and one axis at a time keep the box at n bytes per offset.
        offsets = np.indices((2 * _REACH + 1,) * n, dtype=np.int8).reshape(n, -1) - _REACH
        width_sq = sum(((np.abs(k) + 1) * self.h) ** 2 for k in offsets)
        keep = width_sq < (2.0 * r0) ** 2 * (1.0 - _STENCIL_GUARD)
        self.stencil = offsets[:, keep].T.astype(np.intp) @ self.strides

    @classmethod
    def for_config(cls, config: PackingConfig):
        """The mask for this packing, or None when its grid would exceed _MAX_CELLS cells."""
        per_axis = 2.0 * config.r1 * _CELLS_PER_R0 / config.r0 + 2 * (_REACH + 1)
        if per_axis > _MAX_CELLS:
            return None
        side = math.ceil(per_axis)
        if side**config.dimension > _MAX_CELLS:
            return None
        return cls(config.dimension, config.r0, config.r1, side)

    def cells(self, points: np.ndarray) -> np.ndarray:
        """Flat cell index of each point (of a 1-D point, its scalar index).

        Per-axis indices are clipped to the cells whose whole stencil lies in
        the grid, so no flat offset wraps to another cell through the strides.
        The clip binds only a cell or more outside the ball; a coordinate of
        sample_in_ball exceeds r1 in magnitude by an ulp at most.
        """
        index = np.floor((points + self.origin) / self.h).astype(np.intp)
        np.clip(index, _REACH, self.side - 1 - _REACH, out=index)
        return index @ self.strides

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
    blocks of live rows, one GEMM of a block against the later live rows each.
    A block starts at _MIN_ROWS rows and doubles up to _ROW_BLOCK while half
    its rows are accepted, else halves down to _MIN_ROWS again, so the work
    follows the rows the scan reaches.  Pairs in the guard band around (2*r0)^2 are
    re-decided in the difference form, so no rounding of that GEMM changes a
    same-batch decision; a pair with an earlier batch's center is decided by
    _min_dist_sq alone.

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
    """Minimum Euclidean distance over all distinct pairs (exact O(L^2) scan)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a (count, dimension) array of equal-length vectors")
    if pts.shape[0] < 2:
        raise ValueError(f"need at least 2 points, got {pts.shape[0]}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    norms = np.einsum("ij,ij->i", pts, pts)
    best = np.inf
    for start in range(0, pts.shape[0], 1024):
        blk = pts[start : start + 1024]
        d2 = norms[start : start + 1024, None] + norms[None, :] - 2.0 * (blk @ pts.T)
        rows = np.arange(start, start + blk.shape[0])
        d2[np.arange(blk.shape[0]), rows] = np.inf  # mask self-distances
        best = min(best, float(d2.min()))
    return math.sqrt(max(best, 0.0))


@dataclass(frozen=True)
class DensityEstimate:
    """Monte-Carlo covered-volume fraction with its binomial standard error."""

    density: float
    stderr: float
    samples: int


def estimate_packing_density(packing: Packing, samples: int, seed: int = 0) -> DensityEstimate:
    """Fraction of the r1-ball covered by the packing's r0-spheres.

    Uniform samples in the r1-ball are tested against all centers in chunks of
    16384 through seeding.run_chunks; each chunk draws from its own (seed,
    "density", chunk) substream, so the estimate is the same for any pool size.
    """
    require_integer("samples", samples)
    require_integer("seed", seed)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if packing.count == 0:
        raise ValueError("packing is empty")
    cfg = packing.config
    r0_sq = cfg.r0**2

    def covered(item):
        index, size = item
        pts = sample_in_ball(cfg.dimension, cfg.r1, substream(seed, "density", index), size)
        return int((_min_dist_sq(pts, packing.centers) <= r0_sq).sum())

    p = run_chunks(covered, samples, 16384) / samples
    return DensityEstimate(density=p, stderr=math.sqrt(p * (1.0 - p) / samples), samples=samples)
