"""Fading and noise sampling plus the fading Gaussian channel law.

Fast fading draws a fresh i.i.d. gain per channel use; slow fading holds one
gain for the whole block.  Three bounded gain families are provided (uniform
interval, Rayleigh truncated to an interval, finite discrete support), each
carrying its infimum gamma, supremum g_max and closed-form first two moments
(a discrete law's support is its atoms of positive weight).
Supports touching zero are refused unless explicitly opted in, since every
constructive decoder bound divides by gamma.

The channel runs on the normalized scale: inputs satisfy ||x|| <= sqrt(A)
and the noise has variance sigma_z2 / n per symbol.  realize draws it a chunk
of trials at a time, the gains from the (seed, "gains", chunk) substream and
the noise from the (seed, "noise", chunk) substream; ChannelModel.gain_shape
alone says how many gains (the decoder's CSI) a chunk holds.  This literal
path is the channel model that the demos and tests run; the Monte-Carlo
estimators draw the decoder statistic from its exact chi-square law instead
(see difading.estimation), from the same substreams.
"""

import math
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .seeding import require_integer, require_seed, substream

FAMILIES = ("uniform", "truncated_rayleigh", "discrete")
FLAVORS = ("fast", "slow")

_NORM_SLACK = 1.0 + 1e-12


def _rayleigh_sf(x: float, scale: float) -> float:
    """P(R > x) for R ~ Rayleigh(scale); 0.0 where (x / scale)^2 leaves the float range."""
    try:
        return math.exp(-0.5 * (x / scale) ** 2)
    except OverflowError:
        return 0.0


def _truncated_rayleigh_moments(scale: float, lo: float, hi: float):
    """Mean and second moment of a Rayleigh(scale) conditioned on [lo, hi]."""
    s_lo = _rayleigh_sf(lo, scale)
    s_hi = _rayleigh_sf(hi, scale)
    z = s_lo - s_hi
    if z <= 0:
        raise ValueError(f"truncation interval [{lo}, {hi}] has zero mass")
    root_half_pi = math.sqrt(0.5 * math.pi)
    erf_term = math.erf(hi / (scale * math.sqrt(2.0))) - math.erf(lo / (scale * math.sqrt(2.0)))
    mean = (lo * s_lo - hi * s_hi + scale * root_half_pi * erf_term) / z
    # hi^2 may overflow where its tail has underflowed to 0
    tail_hi = (hi**2 + 2.0 * scale**2) * s_hi if s_hi else 0.0
    second = ((lo**2 + 2.0 * scale**2) * s_lo - tail_hi) / z
    return mean, second


@dataclass(frozen=True)
class FadingSpec:
    """Bounded fading-gain distribution with its support edges and moments."""

    family: str
    gamma: float  # essential infimum of |G|
    g_max: float
    mean: float
    second_moment: float
    allow_zero: InitVar[bool] = False  # admit gamma = 0, the degenerate experiment
    scale: float | None = None  # truncated_rayleigh only
    values: tuple | None = None  # discrete only
    weights: tuple | None = None

    def __post_init__(self, allow_zero):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown fading family {self.family!r}")
        if not math.isfinite(self.g_max):
            raise ValueError("fading support must be bounded")
        if not (self.gamma > 0.0 or (allow_zero and self.gamma == 0.0)):
            raise ValueError(
                "support infimum must be positive (pass allow_zero=True for the "
                "degenerate experiment)"
            )
        if self.gamma > self.g_max:
            raise ValueError(f"gamma={self.gamma} exceeds g_max={self.g_max}")
        if not (math.isfinite(self.mean) and math.isfinite(self.second_moment)):
            raise ValueError("fading moments leave the float range")
        if self.second_moment < self.mean**2 - 1e-15:
            raise ValueError("second moment below squared mean")

    @classmethod
    def uniform(cls, lo: float, hi: float, allow_zero: bool = False) -> "FadingSpec":
        """Uniform gains on [lo, hi], 0 <= lo <= hi."""
        if lo < 0 or hi < lo:
            raise ValueError(f"need 0 <= lo <= hi, got [{lo}, {hi}]")
        return cls(
            family="uniform",
            gamma=lo,
            g_max=hi,
            mean=0.5 * (lo + hi),
            second_moment=(lo * lo + lo * hi + hi * hi) / 3.0,
            allow_zero=allow_zero,
        )

    @classmethod
    def truncated_rayleigh(
        cls, scale: float, lo: float, hi: float, allow_zero: bool = False
    ) -> "FadingSpec":
        """Rayleigh(scale) amplitude conditioned on lo <= G <= hi."""
        if not 0 < scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {scale}")
        if lo < 0 or hi <= lo:
            raise ValueError(f"need 0 <= lo < hi, got [{lo}, {hi}]")
        try:
            mean, second = _truncated_rayleigh_moments(scale, lo, hi)
        except OverflowError as exc:  # lo^2 or scale^2
            raise ValueError("fading moments leave the float range") from exc
        return cls(
            family="truncated_rayleigh",
            gamma=lo,
            g_max=hi,
            mean=mean,
            second_moment=second,
            allow_zero=allow_zero,
            scale=scale,
        )

    @classmethod
    def discrete(cls, values, weights=None, allow_zero: bool = False) -> "FadingSpec":
        """Finite weighted support; weights default to uniform.

        The support is the atoms of positive normalized weight: an atom of
        weight 0 is dropped, so it sets neither gamma nor g_max.
        """
        vals = tuple(float(v) for v in values)
        if not vals:
            raise ValueError("discrete support is empty")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("discrete support values must be finite")
        if weights is None:
            wts = tuple(1.0 / len(vals) for _ in vals)
        else:
            wts = tuple(float(w) for w in weights)
            if len(wts) != len(vals):
                raise ValueError("values and weights differ in length")
            if not all(math.isfinite(w) and w >= 0 for w in wts):
                raise ValueError("weights must be finite and nonnegative")
            total = sum(wts)
            if not 0 < total < math.inf:
                raise ValueError(f"weights must have a positive finite sum, got {total}")
            wts = tuple(w / total for w in wts)
            vals, wts = zip(*((v, w) for v, w in zip(vals, wts) if w > 0.0))
        mean = sum(v * w for v, w in zip(vals, wts))
        second = sum(v * v * w for v, w in zip(vals, wts))
        gamma = min(abs(v) for v in vals)
        g_max = max(abs(v) for v in vals)
        return cls(
            family="discrete",
            gamma=gamma,
            g_max=g_max,
            mean=mean,
            second_moment=second,
            allow_zero=allow_zero,
            values=vals,
            weights=wts,
        )

    @cached_property
    def _atoms(self) -> frozenset:
        """The discrete support as a set, so a lookup does not scan the atoms."""
        return frozenset(self.values)

    def contains(self, g: float) -> bool:
        """Whether a gain value lies in the support."""
        if self.family == "discrete":
            return float(g) in self._atoms
        return self.gamma <= g <= self.g_max

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """size i.i.d. gains from the family."""
        if self.family == "uniform":
            return rng.uniform(self.gamma, self.g_max, size)
        if self.family == "truncated_rayleigh":
            s_lo = _rayleigh_sf(self.gamma, self.scale)
            s_hi = _rayleigh_sf(self.g_max, self.scale)
            u = rng.random(size)
            survival = s_lo - u * (s_lo - s_hi)
            return self.scale * np.sqrt(-2.0 * np.log(survival))
        return rng.choice(np.asarray(self.values), size=size, p=np.asarray(self.weights))

    def support_grid(self, resolution: int = 33) -> np.ndarray:
        """Finite grid over the support for sup-approximation (endpoints included)."""
        if resolution < 2:
            raise ValueError(f"resolution must be >= 2, got {resolution}")
        if self.family == "discrete":
            return np.array(sorted(self._atoms), dtype=np.float64)
        return np.linspace(self.gamma, self.g_max, resolution)


def check_power(words, power_budget: float) -> None:
    """Raise unless every row x of words has ||x|| <= sqrt(power_budget).

    The one power test for codebooks and channel inputs, with a relative
    tolerance of 1e-12 on the norm.
    """
    root_a = math.sqrt(power_budget)
    largest = np.linalg.norm(words, axis=-1).max()
    if largest > root_a * _NORM_SLACK:
        raise ValueError(
            f"invalid codeword: norm {largest} exceeds sqrt(power budget) = {root_a}"
        )


@dataclass(frozen=True)
class ChannelModel:
    """Fast or slow fading Gaussian channel on the normalized scale."""

    flavor: str
    noise_variance: float
    fading: FadingSpec

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if not 0 < self.noise_variance < math.inf:
            raise ValueError(f"noise variance must lie in (0, inf), got {self.noise_variance}")

    def gain_shape(self, trials: int, n: int) -> tuple:
        """Shape of the gains (the CSI) of trials blocks: one per symbol (fast) or block (slow)."""
        return (trials, n) if self.flavor == "fast" else (trials,)


@dataclass(frozen=True)
class ChannelRealization:
    """A chunk of realized channels, one row per trial.

    gains has the shape ChannelModel.gain_shape(trials, n); noise is (trials, n).
    """

    gains: np.ndarray
    noise: np.ndarray

    def __post_init__(self):
        noise = np.asarray(self.noise, dtype=np.float64)
        if noise.ndim != 2:
            raise ValueError("noise must be a (trials, n) array")
        if not np.isfinite(noise).all():
            raise ValueError("noise entries must be finite")
        object.__setattr__(self, "gains", np.asarray(self.gains, dtype=np.float64))
        object.__setattr__(self, "noise", noise)


def realize(model: ChannelModel, trials: int, n: int, seed: int, chunk: int) -> ChannelRealization:
    """Chunk `chunk` of trials, drawn from the disjoint gains and noise substreams of seed:
    gains of shape model.gain_shape(trials, n), (trials, n) noise of variance sigma_z2 / n."""
    require_seed(seed)
    require_integer("chunk", chunk)
    if chunk < 0:
        raise ValueError(f"chunk must be >= 0, got {chunk}")
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    shape = model.gain_shape(trials, n)
    gains = model.fading.sample(substream(seed, "gains", chunk), math.prod(shape)).reshape(shape)
    noise = substream(seed, "noise", chunk).standard_normal((trials, n))
    return ChannelRealization(gains=gains, noise=noise * math.sqrt(model.noise_variance / n))


def apply_channel(
    model: ChannelModel, x, realization: ChannelRealization, power_budget: float
) -> np.ndarray:
    """Channel outputs gains o x + noise, one row per trial of the realization.

    x is one input block, sent in every trial; it must satisfy the power
    constraint ||x|| <= sqrt(power_budget).
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    trials, n = realization.noise.shape
    if x.shape[0] != n:
        raise ValueError(f"noise length {n} does not match input length {x.shape[0]}")
    gains = realization.gains
    expected = model.gain_shape(trials, n)
    if gains.shape != expected:
        raise ValueError(
            f"{model.flavor} fading needs gains of shape {expected}, got {gains.shape}"
        )
    if not power_budget > 0:
        raise ValueError(f"power budget must be positive, got {power_budget}")
    check_power(x, power_budget)
    return gains.reshape(trials, -1) * x + realization.noise
