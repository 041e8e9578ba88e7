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

* type I (d = 0, either flavor): the gains cancel, the statistic is ||z||^2 =
  s^2 chi2_n, one chi-square draw per trial and no gains (its bound has no
  fading moment);
* slow type II at gain g: g^2 ||d||^2 + 2 g (d . z) + ||z||^2 with
  d . z = s ||d|| xi and ||z||^2 = s^2 (xi^2 + chi2_{n-1}), xi standard normal,
  so two scalars per trial serve every grid point;
* fast type II: gains only on the coordinates where d_k != 0, then one
  noncentral chi-square draw with noncentrality sum_k g_k^2 d_k^2 / s^2.

Every statistic is decided by DecoderRule.accepts.  The literal channel path
(realize, apply_channel, identify) draws z itself; it has the same law.

Slow-fading errors are worst cases over the gain support; the sup is
approximated on a finite grid with common random numbers, so per-gain
estimates differ only through the gain (paired trials).  A worst case is the
report of its worst grid point, with every point's report in per_gain.

Reports carry only what the estimators compute; cli lays them out as CSV rows.

Trials are simulated in chunks of 4096 through seeding.run_chunks, each from
its own (seed, label, chunk index) streams; reductions are plain sums of
acceptance counts, or per-trial statistics kept in chunk order, so estimates
are the same for any pool size.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import oracles
from .channel import ChannelModel, FadingSpec, sample_fading
from .codec import Codebook, DecoderRule, delta_n, epsilon_schedule
from .seeding import run_chunks, substream

_CHUNK = 4096


@dataclass(frozen=True)
class TrialPlan:
    """Trial count and master seed for one estimate."""

    trials: int
    seed: int = 0

    def __post_init__(self):
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


def _saturating(direct, *factors) -> float:
    """direct(), or where a power in it leaves the float range the product of
    x**p over factors (x, p), taken through logs and saturated at 0.0 and inf."""
    try:
        return direct()
    except (OverflowError, ZeroDivisionError):
        log_value = sum(p * (math.log(x) if x else -math.inf) for x, p in factors)
        return math.inf if log_value > 709.0 else math.exp(log_value)  # exp overflows at ~709.8


def type1_chebyshev_bound(
    n: int, b: float, power_budget: float, gamma: float, noise_variance: float
) -> float:
    """27 sigma_z2^2 / (n^b A^2 gamma^4), the type-I reference bound."""
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return _saturating(
        lambda: 27.0 * noise_variance**2 / (n**b * power_budget**2 * gamma**4),
        (27.0, 1), (noise_variance, 2), (n, -b), (power_budget, -2), (gamma, -4),
    )


def type2_chebyshev_bound(
    n: int,
    b: float,
    power_budget: float,
    gamma: float,
    noise_variance: float,
    second_moment: float,
) -> float:
    """Type-I term plus the cross-term bound 144 sigma_z2 E[G^2] / (gamma^4 A n^b)."""
    eta1 = _saturating(
        lambda: 144.0 * noise_variance * second_moment / (gamma**4 * power_budget * n**b),
        (144.0 * noise_variance, 1), (second_moment, 1), (gamma, -4), (power_budget, -1), (n, -b),
    )
    return type1_chebyshev_bound(n, b, power_budget, gamma, noise_variance) + eta1


@dataclass(frozen=True)
class NoiseStatistics:
    """Per-trial noise statistics of one (transmit, test) pair.

    noise_energy holds ||z||^2 and cross holds d . z for every trial, with
    d = u_transmit - u_test; together with ||d||^2 they give the decoder's
    statistic at any fixed gain without touching the noise again.
    """

    distance_sq: float
    noise_energy: np.ndarray
    cross: np.ndarray

    def accept_count(self, gain: float, rule: DecoderRule) -> int:
        """Trials in which the rule accepts ||g d + z||^2 at gain g."""
        stat = gain * gain * self.distance_sq + 2.0 * gain * self.cross + self.noise_energy
        return int(rule.accepts(stat).sum())


def _noise_statistics(
    codebook: Codebook,
    model: ChannelModel,
    transmit: int,
    test: int,
    plan: TrialPlan,
) -> NoiseStatistics:
    """||z||^2 and d . z of the pair (transmit, test), drawn from their exact law.

    d = 0 draws s^2 chi2_n per trial; otherwise xi and chi2_{n-1} give
    d . z = s ||d|| xi and ||z||^2 = s^2 (xi^2 + chi2_{n-1}).
    """
    d = codebook.codeword(transmit) - codebook.codeword(test)
    n = codebook.dimension
    s2 = model.noise_variance / n
    distance_sq = float(d @ d)
    cross_scale = math.sqrt(s2 * distance_sq)

    def run_chunk(item):
        index, size = item
        rng = substream(plan.seed, "noise", index)
        if distance_sq == 0.0:
            return s2 * rng.chisquare(n, size), np.zeros(size)
        xi = rng.standard_normal(size)
        rest = rng.chisquare(n - 1, size) if n > 1 else 0.0  # numpy refuses chi2_0
        return s2 * (xi * xi + rest), cross_scale * xi

    parts = run_chunks(run_chunk, plan.trials, _CHUNK)
    return NoiseStatistics(
        distance_sq=distance_sq,
        noise_energy=np.concatenate([energy for energy, _ in parts]),
        cross=np.concatenate([cross for _, cross in parts]),
    )


def _estimate(codebook, model, i, j, delta, plan, gain, statistics) -> ErrorReport:
    """The one estimate body: type I when j is None, else type II (see the module docstring)."""
    if model.flavor == "fast":
        if gain is not None or statistics is not None:
            raise ValueError(
                "fast fading draws per-symbol gains; pass neither a fixed gain nor statistics"
            )
    elif gain is None:
        raise ValueError(
            "slow-fading errors are worst cases over the gain; pass gain=... for a "
            "conditional estimate or use estimate_worst_case"
        )
    elif not model.fading.contains(gain):
        raise ValueError(f"gain {gain} lies outside the fading support")
    rule = DecoderRule(codebook, model.noise_variance, delta, model.flavor)
    if model.flavor == "fast" and j is not None:
        # gains only where d_k != 0 (none for d = 0); given them the statistic
        # is s^2 times a noncentral chi2_n with noncentrality sum_k g_k^2 d_k^2 / s^2
        n = codebook.dimension
        s2 = model.noise_variance / n
        d = codebook.codeword(i) - codebook.codeword(j)
        weights = d[d != 0.0] ** 2 / s2

        def run_chunk(item):
            index, size = item
            noncentrality = 0.0
            if weights.size:
                gains = sample_fading(
                    model.fading, "fast", size, weights.size, substream(plan.seed, "gains", index)
                )
                # squared in place: a second (chunk, m) temporary is given back
                # to the system on free and faulted in again by the next chunk
                noncentrality = np.square(gains, out=gains) @ weights
            rng = substream(plan.seed, "noise", index)
            return int(rule.accepts(s2 * rng.noncentral_chisquare(n, noncentrality, size)).sum())

        accepts = sum(run_chunks(run_chunk, plan.trials, _CHUNK))
    else:  # type I (d = 0, the gain drops out) or slow type II
        if statistics is None:
            statistics = _noise_statistics(codebook, model, i, i if j is None else j, plan)
        accepts = statistics.accept_count(0.0 if gain is None else float(gain), rule)
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
    codebook: Codebook,
    model: ChannelModel,
    i: int,
    delta: float,
    plan: TrialPlan,
    gain: float | None = None,
    *,
    statistics: NoiseStatistics | None = None,
) -> ErrorReport:
    """Missed-identification rate: transmit u_i, count rejections of message i.

    statistics, set only by estimate_worst_case, are the pair's precomputed
    slow-fading noise statistics; without them an estimate computes its own.
    """
    return _estimate(codebook, model, i, None, delta, plan, gain, statistics)


def estimate_type2(
    codebook: Codebook,
    model: ChannelModel,
    i: int,
    j: int,
    delta: float,
    plan: TrialPlan,
    gain: float | None = None,
    *,
    statistics: NoiseStatistics | None = None,
) -> ErrorReport:
    """False-identification rate: transmit u_i, count acceptances of message j != i.

    statistics as for estimate_type1.
    """
    if i == j:
        raise ValueError(f"type II error needs distinct messages, got i = j = {i}")
    return _estimate(codebook, model, i, j, delta, plan, gain, statistics)


def estimate_worst_case(
    codebook: Codebook,
    model: ChannelModel,
    i: int,
    j: int | None,
    delta: float,
    g_grid,
    plan: TrialPlan,
) -> ErrorReport:
    """Sup over the gain grid of the per-gain error (slow fading).

    All grid points share the same noise draws (common random numbers), so
    the per-point estimates differ only through the gain.  The noise
    statistics ||z||^2 and d . z are drawn once and serve every grid point.
    Returns the report of the worst grid point (its gain is the argmax) with
    every point's report in per_gain.
    """
    if model.flavor != "slow":
        raise ValueError("worst-case estimation applies to slow fading")
    grid = [float(g) for g in np.atleast_1d(np.asarray(g_grid, dtype=np.float64))]
    if not grid:
        raise ValueError("gain grid is empty")
    statistics = _noise_statistics(codebook, model, i, i if j is None else j, plan)
    reports = [
        estimate_type1(codebook, model, i, delta, plan, gain=g, statistics=statistics)
        if j is None
        else estimate_type2(codebook, model, i, j, delta, plan, gain=g, statistics=statistics)
        for g in grid
    ]
    worst_index = int(np.argmax([rep.estimate for rep in reports]))
    return replace(reports[worst_index], per_gain=tuple(reports))


@dataclass(frozen=True)
class NearCodewordReport:
    """Outcome of the two-near-codewords experiment at one block length."""

    delta: float
    alpha_n: float  # codeword separation on the natural scale
    normalized_distance: float
    type1: ErrorReport
    type2: ErrorReport
    error_sum: float
    joint_stderr: float
    oracle_sum: float | None


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

    The codewords sit at natural-scale distance alpha_n = sqrt(n * eps_n) with
    eps_n = A / n^(2(1+b)) (overridable via normalized_distance).  Type I is
    estimated for the first codeword and type II for the pair (2 -> 1); as the
    spacing vanishes the two hypotheses merge and the error sum approaches 1.
    For constant-gain fading the exact sum is reported alongside as a
    noncentral chi-square witness.
    """
    eps_converse = epsilon_schedule(n, power_budget, b, "converse_spacing")
    alpha_n = math.sqrt(n * eps_converse)
    d_norm = alpha_n / math.sqrt(n) if normalized_distance is None else float(normalized_distance)
    if not d_norm > 0:
        raise ValueError(f"codeword distance must be positive, got {d_norm}")
    half = 0.5 * d_norm
    if half > math.sqrt(power_budget):
        raise ValueError(
            f"distance {d_norm} places codewords outside the power ball "
            f"(half-distance {half} > sqrt(A) = {math.sqrt(power_budget)})"
        )
    words = np.zeros((2, n))
    words[0, 0] = half
    words[1, 0] = -half
    codebook = Codebook(
        dimension=n,
        power_budget=power_budget,
        slack=b,
        schedule="converse_spacing",
        epsilon_n=eps_converse,
        codewords=words,
    )
    delta = delta_n(fading.gamma, epsilon_schedule(n, power_budget, b, "achievability"))
    model = ChannelModel(flavor="fast", noise_variance=noise_variance, fading=fading)
    rule = DecoderRule(codebook, noise_variance, delta, model.flavor)
    rep1 = estimate_type1(codebook, model, 1, delta, plan)
    rep2 = estimate_type2(codebook, model, 2, 1, delta, plan)
    error_sum = rep1.estimate + rep2.estimate
    joint = math.sqrt(rep1.stderr**2 + rep2.stderr**2)

    oracle_sum = None
    if fading.variance <= 1e-15:  # constant gain: closed-form witness
        x = n * rule.threshold / noise_variance
        lam = n * (fading.mean * d_norm) ** 2 / noise_variance
        oracle_sum = oracles.chi2_sf(x, n) + oracles.noncentral_chi2_cdf(x, n, lam)

    return NearCodewordReport(
        delta=delta,
        alpha_n=alpha_n,
        normalized_distance=d_norm,
        type1=rep1,
        type2=rep2,
        error_sum=error_sum,
        joint_stderr=joint,
        oracle_sum=oracle_sum,
    )
