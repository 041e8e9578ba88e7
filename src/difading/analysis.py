"""Code-size scale arithmetic, dominance checks, rate bounds and regime table.

Code sizes L(n, R) are handled in the log2 domain (loglog2 once the double
exponential is involved) so nothing overflows.  Scale dominance - L1 dominates
L2 when L2(n, b) / L1(n, a) -> 0 for all positive a, b - is certified
numerically: the log-size difference must be decreasing over the tail of the
evaluation grid and fall below a margin at its end.  This is a certificate,
not a proof.

The implemented ordering follows the standard asymptotics,

    log2(nR)  <  nR  <  (nR)^k  <  2^(nR)  <  2^(n log2(n) R)  <  2^(2^(nR)),

each scale dominated by every scale to its right.  Rates are measured in bits
(all logs base 2).  The super-exponential scale is the one where the
identification capacity of the fading channels is positive and finite,
between 1/4 and 1; dominated scales then carry infinite capacity and
dominating scales zero capacity.
"""

import math
from dataclasses import dataclass

from .codec import Codebook, epsilon_schedule, packing_radii

KINDS = ("log", "linear", "poly", "exp", "superexp", "doubleexp")

FINITE_BAND_LOWER = 0.25
FINITE_BAND_UPPER = 1.0

DEFAULT_GRID = tuple(2**k for k in range(4, 129, 4))
DEFAULT_MARGIN_BITS = -40.0
# Fewest grid points with a defined difference that a dominance certificate reads.
MIN_EVIDENCE_POINTS = 4


@dataclass(frozen=True)
class ScaleFn:
    """One code-size scale; k is the exponent for the polynomial kind."""

    kind: str
    k: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scale kind {self.kind!r}")
        if self.kind == "poly" and self.k < 1:
            raise ValueError(f"polynomial exponent must be >= 1, got {self.k}")

    def label(self) -> str:
        return f"poly(k={self.k:g})" if self.kind == "poly" else self.kind


def _finite(evaluate, scale: ScaleFn, n: float, rate: float) -> float:
    """evaluate(scale, n, rate) after the domain checks; a non-finite value raises."""
    if n < 2:
        raise ValueError(f"block length must be >= 2, got {n}")
    if not rate > 0:
        raise ValueError(f"rate must be positive, got {rate}")
    try:
        value = evaluate(scale, n, rate)
    except OverflowError:  # an integer n too large for a float
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"the {scale.label()} scale overflows at n = {n}, R = {rate}")
    return value


def log2_scale(scale: ScaleFn, n: float, rate: float) -> float:
    """log2 of L(n, R); rejected where the value would overflow or be undefined."""
    return _finite(_log2_size, scale, n, rate)


def _log2_size(scale: ScaleFn, n: float, rate: float) -> float:
    nr = n * rate
    if scale.kind == "linear":
        return math.log2(nr)
    if scale.kind == "log":
        inner = math.log2(nr)
        if inner <= 0:
            raise ValueError(f"log-scale size log2({nr}) is not positive")
        return math.log2(inner)
    if scale.kind == "poly":
        return scale.k * math.log2(nr)
    if scale.kind == "exp":
        return nr
    if scale.kind == "superexp":
        return n * math.log2(n) * rate
    return 2.0**nr  # doubleexp: overflows past n*R = 1024; loglog2_scale does not


def loglog2_scale(scale: ScaleFn, n: float, rate: float) -> float:
    """log2(log2(L(n, R))); exact for the double exponential (equals n*R)."""
    if scale.kind == "doubleexp":
        return _finite(lambda _, n, rate: n * rate, scale, n, rate)
    value = log2_scale(scale, n, rate)
    if value <= 0:
        raise ValueError(f"log2 of scale is {value}, loglog undefined")
    return math.log2(value)


@dataclass(frozen=True)
class DominanceResult:
    """Numeric dominance certificate with its evidence trail."""

    dominates: bool
    reason: str
    domain: str  # "log2" | "loglog2"
    trail: tuple  # of (n, log-size difference)


def dominates(
    l1: ScaleFn,
    l2: ScaleFn,
    a: float = 1.0,
    b: float = 1.0,
    n_grid=None,
    margin_bits: float = DEFAULT_MARGIN_BITS,
) -> DominanceResult:
    """Certify numerically that l1 dominates l2, i.e. L2(n,b)/L1(n,a) -> 0.

    Evaluates the log2-size difference log2 L2(n,b) - log2 L1(n,a) along the
    grid (loglog2 once the double exponential is involved) and requires a
    strictly decreasing tail ending below margin_bits.  Raises ValueError,
    before any verdict (the same-family one included), when either size is
    undefined at the largest n: a rate that is not positive, or a size that
    overflows there.
    """
    grid = DEFAULT_GRID if n_grid is None else tuple(n_grid)
    if not grid or any(grid[i] >= grid[i + 1] for i in range(len(grid) - 1)):
        raise ValueError("n_grid must be nonempty and strictly increasing")
    domain = "loglog2" if "doubleexp" in (l1.kind, l2.kind) else "log2"
    evaluate = loglog2_scale if domain == "loglog2" else log2_scale
    evaluate(l1, grid[-1], a)  # a certificate needs both sizes at the largest n
    evaluate(l2, grid[-1], b)
    if l1.kind == l2.kind and (l1.kind != "poly" or l1.k == l2.k):
        return DominanceResult(
            dominates=False,
            reason=(
                "same scale family: with equal rates the size ratio is constant in n, "
                "so the limit cannot vanish for every rate choice"
            ),
            domain=domain,
            trail=(),
        )
    trail = []
    for n in grid:
        try:
            diff = evaluate(l2, n, b) - evaluate(l1, n, a)
        except ValueError:
            continue  # undefined at small n (log of a nonpositive value)
        trail.append((n, diff))
    if len(trail) < MIN_EVIDENCE_POINTS:
        return DominanceResult(
            dominates=False,
            reason="insufficient evidence: grid leaves the difference undefined",
            domain=domain,
            trail=tuple(trail),
        )
    tail = [d for _, d in trail[-5:]]
    decreasing = all(tail[i + 1] < tail[i] for i in range(len(tail) - 1))
    final = trail[-1][1]
    below = final <= margin_bits
    if decreasing and below:
        reason = f"difference decreasing and {final:.3g} bits <= margin {margin_bits:g}"
        verdict = True
    elif not decreasing:
        reason = "difference is not decreasing over the grid tail"
        verdict = False
    else:
        reason = f"difference {final:.3g} bits has not passed margin {margin_bits:g}"
        verdict = False
    return DominanceResult(dominates=verdict, reason=reason, domain=domain, trail=tuple(trail))


def scale_chain(poly_k: float = 2.0):
    """The implemented ordering, weakest scale first."""
    return (
        ScaleFn("log"),
        ScaleFn("linear"),
        ScaleFn("poly", k=poly_k),
        ScaleFn("exp"),
        ScaleFn("superexp"),
        ScaleFn("doubleexp"),
    )


def achievable_rate_lower_bound(n: float, b: float) -> float:
    """Guaranteed rate of the packing construction: (1-b)/4 - 2/log2(n) bits."""
    if n < 2:
        raise ValueError(f"block length must be >= 2, got {n}")
    if not 0.0 <= b < 1.0:
        raise ValueError(f"slack exponent b must lie in [0, 1), got {b}")
    return 0.25 * (1.0 - b) - 2.0 / math.log2(n)


def converse_rate_upper_bound(n: float, b: float) -> float:
    """Sphere-counting rate ceiling 1 + b + log2(1 + n^-(1+b)) / log2(n) bits."""
    if n < 2:
        raise ValueError(f"block length must be >= 2, got {n}")
    if b < 0:
        raise ValueError(f"slack exponent b must be nonnegative, got {b}")
    return 1.0 + b + math.log2(1.0 + n ** -(1.0 + b)) / math.log2(n)


def codebook_size_log2_bound(
    n: int, power_budget: float, b: float, schedule: str = "achievability"
) -> float:
    """log2 of the saturated-packing count bound 2^-n * (r1/r0)^n.

    Evaluated for the radii (r0, r1) that codec.packing_radii gives the eps_n of
    the schedule, without materializing the codebook: n * (log2(n^((1-b)/4) - 1) - 1)
    for the achievability schedule, n * (log2(n^(1+b) - 1) - 1) for converse
    spacing.
    """
    r0, r1 = packing_radii(power_budget, epsilon_schedule(n, power_budget, b, schedule))
    return n * (math.log2(r1 / r0) - 1.0)


def empirical_rate(codebook: Codebook) -> float:
    """Realized rate log2(L) / (n log2 n) of a materialized codebook."""
    return math.log2(codebook.size) / (codebook.dimension * math.log2(codebook.dimension))


@dataclass(frozen=True)
class SpacingCheck:
    """Minimum-distance requirement from the converse schedule vs. the codebook.

    The fields, in order, are converse_report.csv's columns after n and b.
    """

    required_normalized: float
    required_unnormalized: float
    achieved_normalized: float
    achieved_unnormalized: float
    passes: bool


def converse_spacing(codebook: Codebook, b: float) -> SpacingCheck:
    """Compare codeword spacing against sqrt(n * eps_n) with eps_n = A/n^(2(1+b)).

    The requirement is sqrt(A) / n^((1+2b)/2) on the natural scale, i.e.
    sqrt(A) / n^(1+b) after normalization; the comparison runs on the
    normalized scale where codewords are stored.
    """
    if codebook.size < 2:
        raise ValueError("spacing check needs at least 2 codewords")
    if b < 0:
        raise ValueError(f"slack exponent b must be nonnegative, got {b}")
    n = codebook.dimension
    root_a = math.sqrt(codebook.power_budget)
    required_norm = root_a / n ** (1.0 + b)
    achieved_norm = codebook.min_distance
    return SpacingCheck(
        required_normalized=required_norm,
        required_unnormalized=required_norm * math.sqrt(n),
        achieved_normalized=achieved_norm,
        achieved_unnormalized=achieved_norm * math.sqrt(n),
        passes=achieved_norm >= required_norm,
    )


@dataclass(frozen=True)
class RegimeVerdict:
    """Capacity regime of one (flavor, scale, zero-in-closure) combination."""

    verdict: str  # "zero" | "finite_band" | "infinite"
    band: tuple | None = None


def classify_regime(flavor: str, scale_kind: str, zero_in_closure: bool) -> RegimeVerdict:
    """Capacity regime table for the exponential and larger scales.

    Fast fading (and slow fading with gains bounded away from zero): finite
    band [1/4, 1] at the super-exponential scale, infinite below it, zero
    above it.  Slow fading whose gain support closure contains zero: zero at
    every listed scale.
    """
    if flavor not in ("fast", "slow"):
        raise ValueError(f"unknown flavor {flavor!r}")
    if scale_kind not in ("exp", "superexp", "doubleexp"):
        raise ValueError(f"regime table covers exp/superexp/doubleexp, got {scale_kind!r}")
    if flavor == "slow" and zero_in_closure:
        verdict = "zero"
    elif scale_kind == "superexp":
        verdict = "finite_band"
    elif scale_kind == "exp":
        verdict = "infinite"
    else:
        verdict = "zero"
    band = (FINITE_BAND_LOWER, FINITE_BAND_UPPER) if verdict == "finite_band" else None
    return RegimeVerdict(verdict=verdict, band=band)


def ri_capacity(g: float, power_budget: float, noise_variance: float) -> float:
    """Randomized-encoder reference capacity 0.5 * log2(1 + g^2 A / sigma_z2)."""
    if not g > 0:
        raise ValueError(f"gain must be positive, got {g}")
    if not power_budget > 0:
        raise ValueError(f"power budget must be positive, got {power_budget}")
    if not noise_variance > 0:
        raise ValueError(f"noise variance must be positive, got {noise_variance}")
    return 0.5 * math.log2(1.0 + g * g * power_budget / noise_variance)
