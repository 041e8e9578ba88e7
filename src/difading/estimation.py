"""Monte-Carlo estimation of identification error probabilities.

Type I (missed identification) transmits codeword i and counts rejections of
the test "was i sent?"; type II (false identification) transmits i and counts
acceptances of a different message j.  Estimates come with binomial standard
errors and, where defined, the closed-form Chebyshev reference bounds

    type I:  27 sigma_z2^2 / (n^b A^2 gamma^4)
    type II: the same term + 144 sigma_z2 (sigma_G^2 + mu_G^2) / (gamma^4 A n^b)

(saturated at 0.0 or inf where a power in them leaves the float range).

The decoder knows the gains, so the residual y - g o u_j is g o d + z with
d = u_i - u_j and z ~ N(0, s^2 I), s^2 = sigma_z2 / n.  Given the gains its
squared norm is s^2 times a noncentral chi-square with n degrees of freedom and
noncentrality ||g o d||^2 / s^2, and the estimators draw it from that law
instead of drawing z:

* d = 0 (type I, either flavor, or two equal codewords): the gains cancel,
  the statistic is ||z||^2 = s^2 chi2_n, one chi-square draw per trial and no
  gains (the type I bound has no fading moment);
* slow type II at gain g: g^2 ||d||^2 + 2 g (d . z) + ||z||^2 with
  d . z = s ||d|| xi and ||z||^2 = s^2 (xi^2 + chi2_{n-1}), xi standard normal,
  decided at every grid gain on the same draws;
* fast type II: gains only on the coordinates where d_k != 0, drawn by
  FadingSpec.sample from the (seed, "gains", chunk) substream, then one
  noncentral chi-square draw with noncentrality sum_k g_k^2 d_k^2 / s^2.

Every estimator takes the rule under test as one DecoderRule (codebook, channel
model, delta) and decides every statistic by its accepts.  The literal channel
path (realize, apply_channel, then DecoderRule.statistic or identify) draws z
itself; it has the same law.

Slow-fading errors are worst cases over the gain support, approximated on a
finite grid with common random numbers (paired trials).  A worst case is the
report of its worst grid point, with every point's report in per_gain.  Reports
carry only what the estimators compute; cli lays them out as CSV rows.

Trials are simulated in chunks of 4096 through seeding.run_chunks, each from
its own (seed, label, chunk index) streams and reduced at once to its
acceptance counts at every gain.  The counts are summed in chunk order, so
estimates are the same for any pool size and no per-trial array outlives its chunk.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import oracles
from .channel import ChannelModel, FadingSpec
from .codec import DecoderRule, delta_n, epsilon_schedule, two_codeword_codebook
from .seeding import require_integer, run_chunks, substream

_CHUNK = 4096
# Largest slow gain grid.  A running slow chunk holds a float64 statistic and a
# bool decision per trial and grid point, 9 * _CHUNK bytes = 36 KiB a point
# (tracemalloc measures 36.1 KiB at 500 to 4000 points), so a budget of 288 MiB
# per running chunk allows 2^13 points.
MAX_GRID_POINTS = 288 * 2**20 // (9 * _CHUNK)


@dataclass(frozen=True)
class TrialPlan:
    """Trial count and master seed for one estimate."""

    trials: int
    seed: int = 0

    def __post_init__(self):
        require_integer("trials", self.trials)
        require_integer("seed", self.seed)
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


@dataclass(frozen=True)
class ErrorReport:
    """One error-probability estimate.

    A slow-fading worst case is the report of its worst grid point: gain is
    the argmax, and per_gain holds the report of every grid point.
    """

    error_type: str  # "type1" | "type2"
    estimate: float
    stderr: float
    chebyshev_bound: float | None
    trials: int
    i: int
    j: int | None = None
    gain: float | None = None
    per_gain: tuple = ()


def _saturating(numerator, denominator) -> float:
    """prod(x**p) over the numerator's factors (x, p) divided by that over the denominator's,
    each product taken left to right from 1; where a power leaves the float range, the same
    quotient taken through logs and saturated at 0.0 and inf."""
    try:
        return math.prod(x**p for x, p in numerator) / math.prod(x**p for x, p in denominator)
    except (OverflowError, ZeroDivisionError):
        up, down = (sum(p * (math.log(x) if x else -math.inf) for x, p in factors)
                    for factors in (numerator, denominator))
        return math.inf if up - down > 709.0 else math.exp(up - down)  # exp overflows at ~709.8


def type1_chebyshev_bound(
    n: int, b: float, power_budget: float, gamma: float, noise_variance: float
) -> float:
    """27 sigma_z2^2 / (n^b A^2 gamma^4), the type-I reference bound."""
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return _saturating([(27.0, 1), (noise_variance, 2)], [(n, b), (power_budget, 2), (gamma, 4)])


def type2_chebyshev_bound(
    n: int,
    b: float,
    power_budget: float,
    gamma: float,
    noise_variance: float,
    second_moment: float,
) -> float:
    """Type-I term plus the cross-term bound 144 sigma_z2 E[G^2] / (gamma^4 A n^b)."""
    eta1 = _saturating([(144.0, 1), (noise_variance, 1), (second_moment, 1)],
                       [(gamma, 4), (power_budget, 1), (n, b)])
    return type1_chebyshev_bound(n, b, power_budget, gamma, noise_variance) + eta1


def _accept_counts(rule: DecoderRule, i: int, j: int | None, plan: TrialPlan, gains) -> list:
    """Acceptances of message j (i when j is None) with u_i sent, one count per gain.

    Each chunk is drawn once from its law in the module docstring and reduced to
    its counts; d = 0 and fast type II (gains = [None]) decide once for all gains.
    A fast type II noncentrality past the float range raises ValueError: numpy
    would draw inf from it and reject every trial.
    """
    model, n = rule.model, rule.codebook.dimension
    s2 = model.noise_variance / n
    d = rule.codebook.codeword(i) - rule.codebook.codeword(i if j is None else j)
    distance_sq = float(d @ d)
    with np.errstate(over="ignore", divide="ignore"):  # refused below, not warned about
        weights = d[d != 0.0] ** 2 / s2
    overflow = (f"noise variance {model.noise_variance} is too small for fast type II: the "
                "noncentrality ||g o d||^2 / s^2 leaves the float range")
    if model.flavor == "fast" and not np.isfinite(weights).all():
        raise ValueError(overflow)

    def run_chunk(item):
        index, size = item
        rng = substream(plan.seed, "noise", index)
        if distance_sq == 0.0:  # type I or two equal codewords: the gain cancels
            stat = s2 * rng.chisquare(n, size)
        elif model.flavor == "fast":
            drawn = model.fading.sample(substream(plan.seed, "gains", index), size * weights.size)
            # squared in place: no second (chunk, m) temporary to fault in per chunk
            with np.errstate(over="ignore"):
                noncentrality = np.square(drawn, out=drawn).reshape(size, -1) @ weights
            if not np.isfinite(noncentrality).all():  # finite weights, large gains
                raise ValueError(overflow)
            stat = s2 * rng.noncentral_chisquare(n, noncentrality, size)
        else:  # slow type II: one row per gain, every row on the same draws
            xi = rng.standard_normal(size)
            rest = rng.chisquare(n - 1, size) if n > 1 else 0.0  # numpy refuses chi2_0
            g = np.asarray(gains)[:, None]
            stat = 2.0 * g * (math.sqrt(s2 * distance_sq) * xi)  # 2 g (d . z)
            stat += g * g * distance_sq
            stat += s2 * (xi * xi + rest)  # ||z||^2
        return np.broadcast_to(rule.accepts(stat).sum(axis=-1), len(gains))

    return run_chunks(run_chunk, plan.trials, _CHUNK).tolist()


def _estimate(rule, i, j, plan, gain, accepts) -> ErrorReport:
    """The one estimate body: type I when j is None, else type II (see the module docstring)."""
    codebook, model = rule.codebook, rule.model
    if model.flavor == "fast":
        if gain is not None:
            raise ValueError("fast fading draws per-symbol gains; pass no fixed gain")
    elif gain is None:
        raise ValueError("slow-fading errors are worst cases over the gain; pass gain=... "
                         "for a conditional estimate or use estimate_worst_case")
    elif not model.fading.contains(gain):
        raise ValueError(f"gain {gain} lies outside the fading support")
    if accepts is None:
        accepts = _accept_counts(rule, i, j, plan, [gain])[0]
    else:
        require_integer("accepts", accepts)
        if not 0 <= accepts <= plan.trials:
            raise ValueError(f"accepts must lie in [0, {plan.trials}], got {accepts}")
    estimate = 1.0 - accepts / plan.trials if j is None else accepts / plan.trials
    bound = None
    if model.fading.gamma > 0:
        args = (codebook.dimension, codebook.slack, codebook.power_budget, model.fading.gamma,
                model.noise_variance)
        bound = (type1_chebyshev_bound(*args) if j is None
                 else type2_chebyshev_bound(*args, model.fading.second_moment))
    return ErrorReport(
        error_type="type1" if j is None else "type2",
        estimate=estimate,
        stderr=math.sqrt(estimate * (1.0 - estimate) / plan.trials),
        chebyshev_bound=bound,
        trials=plan.trials,
        i=i,
        j=j,
        gain=gain,
    )


def estimate_type1(
    rule: DecoderRule,
    i: int,
    plan: TrialPlan,
    gain: float | None = None,
    *,
    accepts: int | None = None,
) -> ErrorReport:
    """Missed-identification rate: transmit u_i, count rejections of message i.

    accepts, set only by estimate_worst_case, is the acceptance count it has
    already drawn at this gain; without it an estimate draws its own.
    """
    return _estimate(rule, i, None, plan, gain, accepts)


def estimate_type2(
    rule: DecoderRule,
    i: int,
    j: int,
    plan: TrialPlan,
    gain: float | None = None,
    *,
    accepts: int | None = None,
) -> ErrorReport:
    """False-identification rate: transmit u_i, count acceptances of message j != i.

    accepts as for estimate_type1.
    """
    if i == j:
        raise ValueError(f"type II error needs distinct messages, got i = j = {i}")
    return _estimate(rule, i, j, plan, gain, accepts)


def estimate_worst_case(
    rule: DecoderRule, i: int, j: int | None, g_grid, plan: TrialPlan
) -> ErrorReport:
    """Sup over the gain grid of the per-gain error (slow fading).

    One pass decides every chunk at every grid point on the same draws, so the
    per-point estimates differ only through the gain; estimate_type1 or
    estimate_type2 then reports each point from its count.  Returns the report
    of the worst grid point (its gain is the argmax), every point's in per_gain.
    A grid of more than MAX_GRID_POINTS points is refused before any chunk runs.
    """
    if rule.model.flavor != "slow":
        raise ValueError("worst-case estimation applies to slow fading")
    grid = np.atleast_1d(np.asarray(g_grid, dtype=np.float64))
    if grid.size > MAX_GRID_POINTS:
        raise ValueError(f"gain grid of {grid.size} points exceeds MAX_GRID_POINTS = "
                         f"{MAX_GRID_POINTS}")
    grid = [float(g) for g in grid]
    if not grid:
        raise ValueError("gain grid is empty")
    if i == j:
        raise ValueError(f"type II error needs distinct messages, got i = j = {i}")
    for g in grid:
        if not rule.model.fading.contains(g):
            raise ValueError(f"gain {g} lies outside the fading support")
    counts = _accept_counts(rule, i, j, plan, grid)
    estimate = estimate_type1 if j is None else estimate_type2
    messages = (i,) if j is None else (i, j)
    reports = [estimate(rule, *messages, plan, gain=g, accepts=c) for g, c in zip(grid, counts)]
    return replace(max(reports, key=lambda rep: rep.estimate), per_gain=tuple(reports))


@dataclass(frozen=True)
class NearCodewordReport:
    """Outcome of the two-near-codewords experiment at one block length."""

    rule: DecoderRule
    alpha_n: float  # codeword separation on the natural scale
    normalized_distance: float
    type1: ErrorReport
    type2: ErrorReport
    error_sum: float
    joint_stderr: float
    oracle_sum: float | None


# Largest n whose near-codeword run fits in 1 GiB: tracemalloc measures a peak of
# 32 bytes per coordinate (at n = 2^18 and 2^20), most of it the pair of codewords.
NEAR_CODEWORD_MAX_N = 2**30 // 32


def near_codeword_experiment(
    n: int,
    power_budget: float,
    b: float,
    noise_variance: float,
    fading: FadingSpec,
    plan: TrialPlan,
    normalized_distance: float | None = None,
) -> NearCodewordReport:
    """Two codewords at the converse-schedule spacing, probed with the standard decoder.

    The pair is two_codeword_codebook's, at natural-scale distance alpha_n =
    sqrt(n * eps_n) with eps_n = A / n^(2(1+b)), or at normalized_distance; it
    refuses a distance that is not positive or a pair outside the power ball.
    Type I is estimated for the first codeword and type II for the pair (2 -> 1);
    as the spacing vanishes the two hypotheses merge and the error sum approaches 1.
    For constant-gain fading the exact sum is reported alongside as a
    noncentral chi-square witness.  An n above NEAR_CODEWORD_MAX_N is refused
    before anything is allocated.
    """
    if n > NEAR_CODEWORD_MAX_N:
        raise ValueError(f"block length n = {n} exceeds NEAR_CODEWORD_MAX_N = "
                         f"{NEAR_CODEWORD_MAX_N}")
    alpha_n = math.sqrt(n * epsilon_schedule(n, power_budget, b, "converse_spacing"))
    d_norm = alpha_n / math.sqrt(n) if normalized_distance is None else float(normalized_distance)
    codebook = two_codeword_codebook(n, power_budget, b, d_norm, "converse_spacing")
    delta = delta_n(fading.gamma, epsilon_schedule(n, power_budget, b, "achievability"))
    model = ChannelModel(flavor="fast", noise_variance=noise_variance, fading=fading)
    rule = DecoderRule(codebook, model, delta)
    rep1 = estimate_type1(rule, 1, plan)
    rep2 = estimate_type2(rule, 2, 1, plan)
    error_sum = rep1.estimate + rep2.estimate
    joint = math.sqrt(rep1.stderr**2 + rep2.stderr**2)

    oracle_sum = None
    if fading.variance <= 1e-15:  # constant gain: closed-form witness
        x = n * rule.threshold / noise_variance
        lam = n * (fading.mean * d_norm) ** 2 / noise_variance
        oracle_sum = oracles.chi2_sf(x, n) + oracles.noncentral_chi2_cdf(x, n, lam)

    return NearCodewordReport(
        rule=rule,
        alpha_n=alpha_n,
        normalized_distance=d_norm,
        type1=rep1,
        type2=rep2,
        error_sum=error_sum,
        joint_stderr=joint,
        oracle_sum=oracle_sum,
    )
