"""Workload definitions shared by the driver, the child runs and the checks.

Each workload is a fixed list of operations whose inputs derive from the
benchmark seed and the constants below.  ``SIZES`` holds the measured sizes, ``SMOKE`` the same
workloads shrunk so that every one runs and is checked in a few seconds.
"""

import hashlib

WORKLOADS = ("pack-lowdim", "pack-highdim", "simulate-fast", "simulate-slow")

_CODEBOOK = {"n": 100, "power": 1.0, "b": 0.0, "max_codewords": 500}
_NEAR = {"n": 100, "power": 1.0, "b": 0.1, "sigma_z2": 1.0, "gain": 1.0, "trials": 100_000}

# pack-lowdim packs a fixed packing seed (the acceptance criterion's seed 0) and
# draws only its density samples from the benchmark seed: the cost of one
# saturated packing varies twofold between packing seeds, more than a run can
# average out.  pack-highdim stops at 2000 codewords: at 5000 a run took 3.4 s
# and built a 200 MB distance matrix, and its times spread too widely between
# runs on a shared host.
SIZES = {
    "pack-lowdim": {"n": 3, "r0": 1.0, "r1": 10.0, "patience": 100_000,
                    "packing_seeds": (0,), "density_samples": 200_000},
    "pack-highdim": {"n": 100, "power": 1.0, "b": 0.0, "max_codewords": 2000,
                     "patience": 100_000},
    "simulate-fast": {"codebook": _CODEBOOK, "flavor": "fast", "g_min": 0.5, "g_max": 1.5,
                      "sigma_z2": 4.0, "pairs": 3, "trials": 100_000, "near": _NEAR},
    "simulate-slow": {"codebook": _CODEBOOK, "flavor": "slow", "g_min": 0.5, "g_max": 1.5,
                      "sigma_z2": 1.0, "pairs": 1, "trials": 10_000, "grid": 33},
}

_SMOKE_CODEBOOK = {"n": 100, "power": 1.0, "b": 0.0, "max_codewords": 60}

SMOKE = {
    "pack-lowdim": {"n": 2, "r0": 1.0, "r1": 5.0, "patience": 2000, "packing_seeds": (0, 1),
                    "density_samples": 20_000},
    "pack-highdim": {"n": 100, "power": 1.0, "b": 0.0, "max_codewords": 200, "patience": 2000},
    "simulate-fast": {"codebook": _SMOKE_CODEBOOK, "flavor": "fast", "g_min": 0.5,
                      "g_max": 1.5, "sigma_z2": 4.0, "pairs": 2, "trials": 4000,
                      "near": {**_NEAR, "n": 20, "trials": 4000}},
    "simulate-slow": {"codebook": _SMOKE_CODEBOOK, "flavor": "slow", "g_min": 0.5,
                      "g_max": 1.5, "sigma_z2": 1.0, "pairs": 2, "trials": 2000, "grid": 5},
}


def sizes(workload: str, smoke: bool) -> dict:
    return (SMOKE if smoke else SIZES)[workload]


def derive(seed: int, *parts) -> int:
    """31-bit input seed for one component of a workload run."""
    text = "|".join(["perfbench", str(seed), *map(str, parts)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def operations(workload: str, size: dict) -> list:
    """Names of the operations one run performs, in order."""
    if workload == "pack-lowdim":
        return [f"{kind}-{k}" for k in range(len(size["packing_seeds"]))
                for kind in ("pack", "density")]
    if workload == "pack-highdim":
        return ["pack", "converse-check"]
    if workload == "simulate-fast":
        return ["simulate", "near-codeword"]
    return ["simulate"]


def work_units(workload: str, size: dict, accepted: int) -> int:
    """Work one run completes: accepted codewords (pack-*) or decoder decisions."""
    if workload.startswith("pack"):
        return accepted
    rows_per_pair = 2 * (size["grid"] if size["flavor"] == "slow" else 1)
    decisions = size["pairs"] * rows_per_pair * size["trials"]
    if "near" in size:
        decisions += 2 * size["near"]["trials"]
    return decisions
