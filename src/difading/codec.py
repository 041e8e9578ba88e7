"""Identification codebooks from sphere packings, the CSI threshold decoder and the codebook file.

Codewords are the centers of a saturated packing of radius-sqrt(eps_n)
spheres with centers inside the ball of radius sqrt(A) - sqrt(eps_n), stored
on the normalized scale the channel runs on (||u_i|| <= sqrt(A)).  Two
shrinking-radius schedules are provided:

* ``achievability``:    eps_n = A / n^((1-b)/2), used to build codebooks;
* ``converse_spacing``: eps_n = A / n^(2(1+b)), used only for minimum-distance
  checks and the near-codeword experiment.

``DecoderRule`` is the one decision rule of the package: "was message j
sent?" is answered by comparing ||y - g o u_j||^2, the squared distance
between the channel output and the gain-scaled codeword, against
sigma_z2 + delta_n, with slack delta_n = gamma^2 * eps_n / 3.  Ties at the
threshold accept (closed decision region).  It decides a whole chunk of
trials at once; ``identify`` is its one-trial case, and the Monte-Carlo
estimators call it too.  Message indices are 1-based.

Codebooks are stored as self-describing text: ``key = value`` header lines,
a ``centers:`` line, then one codeword per line at 17 significant digits, so
a file round-trips bit for bit.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import FLAVORS, check_power
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
    """Decoder threshold slack gamma^2 * eps_n / 3."""
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not epsilon_n > 0:
        raise ValueError(f"epsilon_n must be positive, got {epsilon_n}")
    return gamma * gamma * epsilon_n / 3.0


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
    if packing.count == 0:  # unreachable: the first candidate is always accepted
        raise ValueError("packing produced no codewords")
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
    """Distance threshold test for one codebook at one noise level."""

    codebook: Codebook
    noise_variance: float
    delta: float
    flavor: str

    def __post_init__(self):
        if not self.noise_variance > 0:
            raise ValueError(f"noise variance must be positive, got {self.noise_variance}")
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")

    @property
    def threshold(self) -> float:
        """Bound sigma_z2 + delta on the squared distance (the squared acceptance radius)."""
        return self.noise_variance + self.delta

    def statistic(self, y: np.ndarray, j: int, gains: np.ndarray) -> np.ndarray:
        """||y - gains o u_j||^2 for every trial (row) of y.

        y is (trials, n); gains (the CSI) is (trials, n) for fast fading and
        (trials,) for slow fading.
        """
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
    n = rule.codebook.dimension
    if y.shape[1] != n:
        raise ValueError(f"output length {y.shape[1]} does not match block length {n}")
    if rule.flavor == "fast":
        gains = np.asarray(csi, dtype=np.float64).reshape(1, -1)
        if gains.shape[1] != n:
            raise ValueError(f"CSI length {gains.shape[1]} does not match block length {n}")
    else:
        if np.ndim(csi) != 0:
            raise ValueError("slow fading expects scalar CSI")
        gains = np.array([float(csi)])
    return bool(rule.accepts(rule.statistic(y, j, gains))[0])


# ---------------------------------------------------------------------------
# Codebook files
# ---------------------------------------------------------------------------

CODEBOOK_FORMAT = "difading-codebook-v1"
_HEADER_KEYS = (
    "dimension", "power_budget", "slack", "schedule", "epsilon_n", "seed", "saturated", "count"
)


def _format_float(x: float) -> str:
    return f"{x:.17g}"


def parse_header_lines(lines):
    """Split 'key = value' lines (until a 'centers:' sentinel) into a dict."""
    header = {}
    body_start = None
    for pos, line in enumerate(lines):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped == "centers:":
            body_start = pos + 1
            break
        if "=" not in stripped:
            raise ValueError(f"malformed header line: {line!r}")
        key, _, value = stripped.partition("=")
        header[key.strip()] = value.strip()
    if body_start is None:
        raise ValueError("missing 'centers:' section")
    return header, body_start


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
    header, body_start = parse_header_lines(lines)
    if header.get("format") != CODEBOOK_FORMAT:
        raise ValueError(f"unsupported format {header.get('format')!r}")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise ValueError(f"codebook header lacks {', '.join(missing)}")
    count = int(header["count"])
    dimension = int(header["dimension"])
    words = np.loadtxt(lines[body_start:], dtype=np.float64, comments=None, ndmin=2)
    if words.shape != (count, dimension):
        raise ValueError(
            f"expected {count} codeword rows of {dimension} values, found shape {words.shape}"
        )
    seed = None if header["seed"] == "none" else int(header["seed"])
    saturated = None if header["saturated"] == "none" else header["saturated"] == "true"
    return Codebook(
        dimension=dimension,
        power_budget=float(header["power_budget"]),
        slack=float(header["slack"]),
        schedule=header["schedule"],
        epsilon_n=float(header["epsilon_n"]),
        codewords=words,
        seed=seed,
        saturated=saturated,
    )


def save_codebook(codebook: Codebook, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(codebook_to_text(codebook))


def load_codebook(path) -> Codebook:
    with open(path, "r", encoding="utf-8") as fh:
        return codebook_from_text(fh.read())
