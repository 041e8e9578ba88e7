"""Identification codebooks from sphere packings, the CSI threshold decoder and the codebook file.

Codewords are the centers of a saturated packing of radius-sqrt(eps_n)
spheres with centers inside the ball of radius sqrt(A) - sqrt(eps_n), stored
on the normalized scale the channel runs on (||u_i|| <= sqrt(A)).  Two
shrinking-radius schedules are provided:

* ``achievability``:    eps_n = A / n^((1-b)/2), used to build codebooks;
* ``converse_spacing``: eps_n = A / n^(2(1+b)), used only for minimum-distance
  checks and the near-codeword experiment.

``two_codeword_codebook`` builds the one two-codeword pair (+-d/2 on the first
axis) that the near-codeword experiment, the demos and the tests run.

``DecoderRule`` is the one decision rule of the package and holds all of it:
the codebook, the channel model (noise variance sigma_z2, flavor) and the
slack delta, usually delta_n = gamma^2 * eps_n / 3.  "Was message j sent?"
is answered by comparing ||y - g o u_j||^2 against sigma_z2 + delta; ties at
the threshold accept (closed decision region).  It decides a whole chunk of
trials at once; ``identify`` is its one-trial case, and the Monte-Carlo
estimators take it as their rule argument.  Message indices are 1-based.

Codebooks are stored as self-describing text: ``key = value`` header lines,
a ``centers:`` line, then one codeword per line at 17 significant digits, so
a file round-trips bit for bit.  ``config`` reads the header against the
``_HEADER`` schema; a malformed file raises a plain ``ValueError``.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import ChannelModel, check_power
from .config import ConfigError, Field, parse_config_text, resolve
from .geometry import PackingConfig, generate_saturated_packing, min_pairwise_distance

SCHEDULES = ("achievability", "converse_spacing")


def epsilon_schedule(n: int, power_budget: float, b: float, schedule: str) -> float:
    """Codeword-sphere radius-squared parameter eps_n for the given schedule."""
    if n < 2:
        raise ValueError(f"block length must be >= 2, got {n}")
    if not power_budget > 0:
        raise ValueError(f"power budget must be positive, got {power_budget}")
    if not 0.0 <= b < 1.0:
        raise ValueError(f"slack exponent b must lie in [0, 1), got {b}")
    if schedule == "achievability":
        return power_budget / n ** (0.5 * (1.0 - b))
    if schedule == "converse_spacing":
        return power_budget / n ** (2.0 * (1.0 + b))
    raise ValueError(f"unknown schedule {schedule!r}")


def delta_n(gamma: float, epsilon_n: float) -> float:
    """Decoder threshold slack gamma^2 * eps_n / 3; a slack that underflows to 0 is refused."""
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not epsilon_n > 0:
        raise ValueError(f"epsilon_n must be positive, got {epsilon_n}")
    delta = gamma * gamma * epsilon_n / 3.0
    if not delta > 0:
        raise ValueError(f"slack gamma^2 eps_n / 3 underflows to 0 at gamma = {gamma}")
    return delta


@dataclass(frozen=True)
class Codebook:
    """Codeword list on the normalized scale plus its construction metadata."""

    dimension: int
    power_budget: float
    slack: float
    schedule: str
    epsilon_n: float
    codewords: np.ndarray
    seed: int | None = None
    saturated: bool | None = None

    def __post_init__(self):
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if not (math.isfinite(self.power_budget) and self.power_budget > 0):
            raise ValueError(f"power budget must be finite and positive, got {self.power_budget}")
        if not (math.isfinite(self.epsilon_n) and self.epsilon_n > 0):
            raise ValueError(f"epsilon_n must be finite and positive, got {self.epsilon_n}")
        if not math.isfinite(self.slack):
            raise ValueError(f"slack exponent must be finite, got {self.slack}")
        words = np.asarray(self.codewords, dtype=np.float64)
        if words.ndim != 2 or words.shape[1] != self.dimension:
            raise ValueError("codewords must be a (count, dimension) array")
        if words.shape[0] < 1:
            raise ValueError("codebook is empty")
        if not np.isfinite(words).all():
            raise ValueError("codewords must be finite")
        check_power(words, self.power_budget)
        object.__setattr__(self, "codewords", words)

    @property
    def size(self) -> int:
        return self.codewords.shape[0]

    @cached_property
    def min_distance(self) -> float:
        """Smallest pairwise codeword distance (nan for a single codeword), scanned once."""
        if self.size < 2:
            return math.nan
        return min_pairwise_distance(self.codewords)

    def codeword(self, i: int) -> np.ndarray:
        """Codeword of message i (messages are numbered 1..size)."""
        if not 1 <= i <= self.size:
            raise IndexError(f"message index {i} outside 1..{self.size}")
        return self.codewords[i - 1]


def two_codeword_codebook(
    n: int, power_budget: float, b: float, distance: float, schedule: str = "achievability"
) -> Codebook:
    """The pair +-distance/2 on the first axis, eps_n from the schedule; Codebook checks power."""
    if not distance > 0:
        raise ValueError(f"codeword distance must be positive, got {distance}")
    words = np.zeros((2, n))
    words[:, 0] = 0.5 * distance, -0.5 * distance
    eps = epsilon_schedule(n, power_budget, b, schedule)
    return Codebook(n, power_budget, b, schedule, eps, words)


def build_codebook(
    n: int,
    power_budget: float,
    b: float,
    schedule: str = "achievability",
    seed: int = 0,
    patience: int = 100_000,
    max_codewords: int = 100_000,
) -> Codebook:
    """Saturated-packing codebook: r0 = sqrt(eps_n), r1 = sqrt(A) - sqrt(eps_n)."""
    eps = epsilon_schedule(n, power_budget, b, schedule)
    root_a = math.sqrt(power_budget)
    r0 = math.sqrt(eps)
    r1 = root_a - r0
    if r1 <= 0:
        raise ValueError(
            f"degenerate geometry: sqrt(eps_n) = {r0} is not below sqrt(A) = {root_a}"
        )
    packing = generate_saturated_packing(
        PackingConfig(
            dimension=n,
            r0=r0,
            r1=r1,
            seed=seed,
            saturation_patience=patience,
            max_codewords=max_codewords,
        )
    )
    codebook = Codebook(
        dimension=n,
        power_budget=power_budget,
        slack=b,
        schedule=schedule,
        epsilon_n=eps,
        codewords=packing.centers,
        seed=seed,
        saturated=packing.saturated,
    )
    # the packing scanned these very centers to verify its spacing: fill the
    # cache of Codebook.min_distance instead of scanning them again
    codebook.__dict__["min_distance"] = packing.min_distance
    return codebook


@dataclass(frozen=True)
class DecoderRule:
    """Distance threshold test for one codebook over one channel model, with slack delta."""

    codebook: Codebook
    model: ChannelModel
    delta: float

    def __post_init__(self):
        if not 0 < self.delta < math.inf:
            raise ValueError(f"delta must lie in (0, inf), got {self.delta}")

    @property
    def threshold(self) -> float:
        """Bound sigma_z2 + delta on the squared distance (the squared acceptance radius)."""
        return self.model.noise_variance + self.delta

    def statistic(self, y, j: int, gains) -> np.ndarray:
        """||y - gains o u_j||^2 for every trial (row) of y.

        y is (trials, n); gains (the CSI) has the shape
        model.gain_shape(trials, n).  Any other shape raises ValueError.
        """
        y = np.asarray(y, dtype=np.float64)
        gains = np.asarray(gains, dtype=np.float64)
        n = self.codebook.dimension
        if y.ndim != 2 or y.shape[1] != n:
            raise ValueError(f"outputs must have shape (trials, {n}), got {y.shape}")
        expected = self.model.gain_shape(y.shape[0], n)
        if gains.shape != expected:
            raise ValueError(
                f"{self.model.flavor} fading needs CSI of shape {expected}, got {gains.shape}"
            )
        resid = y - gains.reshape(y.shape[0], -1) * self.codebook.codeword(j)
        return np.einsum("ij,ij->i", resid, resid)

    def accepts(self, stat):
        """Whether each statistic lies in the decision region; ties accept."""
        return stat <= self.threshold


def identify(rule: DecoderRule, y, j: int, csi) -> bool:
    """The rule's decision on one trial: is ||y - csi o u_j||^2 <= sigma_z2 + delta?

    csi is the realized gain vector (fast) or scalar (slow); y is the
    normalized channel output.
    """
    y = np.asarray(y, dtype=np.float64).reshape(1, -1)
    return bool(rule.accepts(rule.statistic(y, j, np.asarray(csi, dtype=np.float64)[None]))[0])


# ---------------------------------------------------------------------------
# Codebook files
# ---------------------------------------------------------------------------

CODEBOOK_FORMAT = "difading-codebook-v1"
# the lines above 'centers:'; Codebook judges what the values say about a codebook
_HEADER = {
    "format": Field("str", choices=(CODEBOOK_FORMAT,)),
    "dimension": Field("int", interval="[1, inf)"),
    "power_budget": Field("float"),
    "slack": Field("float"),
    "schedule": Field("str"),
    "epsilon_n": Field("float"),
    "seed": Field("str"),  # none or an int
    "saturated": Field("str", choices=("none", "true", "false")),
    "min_distance": Field("str", None),  # written for the reader, never read back
    "count": Field("int", interval="[1, inf)"),
}


def _format_float(x: float) -> str:
    return f"{x:.17g}"


def codebook_to_text(codebook: Codebook) -> str:
    lines = [
        f"format = {CODEBOOK_FORMAT}",
        f"dimension = {codebook.dimension}",
        f"power_budget = {_format_float(codebook.power_budget)}",
        f"slack = {_format_float(codebook.slack)}",
        f"schedule = {codebook.schedule}",
        f"epsilon_n = {_format_float(codebook.epsilon_n)}",
        f"seed = {'none' if codebook.seed is None else codebook.seed}",
        f"saturated = {'none' if codebook.saturated is None else str(codebook.saturated).lower()}",
        f"min_distance = {_format_float(codebook.min_distance)}",
        f"count = {codebook.size}",
        "centers:",
    ]
    # the text of _format_float; row by row, so the matrix never exists as Python floats
    row_format = " ".join(["%.17g"] * codebook.dimension)
    lines.extend(row_format % tuple(row.tolist()) for row in codebook.codewords)
    return "\n".join(lines) + "\n"


def codebook_from_text(text: str) -> Codebook:
    lines = text.splitlines()
    body_start = next((pos + 1 for pos, line in enumerate(lines) if line.strip() == "centers:"),
                      None)
    if body_start is None:
        raise ValueError("missing 'centers:' section")
    try:
        values = parse_config_text("\n".join(lines[: body_start - 1]), _HEADER, "header")
        header = resolve(_HEADER, values, {})
    except ConfigError as exc:  # a malformed codebook is a failed precondition, not a config error
        raise ValueError(f"malformed codebook: {exc}") from None
    count, dimension = header["count"], header["dimension"]
    if not any(line.strip() for line in lines[body_start:]):  # np.loadtxt would warn
        raise ValueError(f"malformed codebook: count = {count} but no rows after 'centers:'")
    words = np.loadtxt(lines[body_start:], dtype=np.float64, comments=None, ndmin=2)
    if words.shape != (count, dimension):
        raise ValueError(
            f"expected {count} codeword rows of {dimension} values, found shape {words.shape}"
        )
    return Codebook(
        dimension=dimension,
        power_budget=header["power_budget"],
        slack=header["slack"],
        schedule=header["schedule"],
        epsilon_n=header["epsilon_n"],
        codewords=words,
        seed=None if header["seed"] == "none" else int(header["seed"]),
        saturated=None if header["saturated"] == "none" else header["saturated"] == "true",
    )


def save_codebook(codebook: Codebook, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(codebook_to_text(codebook))


def load_codebook(path) -> Codebook:
    with open(path, "r", encoding="utf-8") as fh:
        return codebook_from_text(fh.read())
