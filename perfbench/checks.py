"""Independent checks of every artifact a workload run leaves behind.

The error-rate oracles come from scipy, and geometry is recomputed with plain
numpy; nothing here calls into difading.  Every check returns a list of
problems per operation, so a run counts an operation as failed when its list
is not empty.  A Monte-Carlo row passes when it lies within
5*sqrt(p(1-p)/N) + 1/N of its oracle value p.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy import stats

_FP_GUARD = 1e-12
_HEADER_REL = 1e-9


def tolerance(p: float, trials: int) -> float:
    return 5.0 * math.sqrt(max(p * (1.0 - p), 0.0) / trials) + 1.0 / trials


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def read_codebook(path: Path):
    """Header dict and codeword array of a codebook text file."""
    header = {}
    lines = Path(path).read_text().splitlines()
    for pos, line in enumerate(lines):
        if line.strip() == "centers:":
            body = [row.split() for row in lines[pos + 1:] if row.strip()]
            return header, np.array(body, dtype=np.float64)
        key, _, value = line.partition("=")
        header[key.strip()] = value.strip()
    raise ValueError(f"{path}: no 'centers:' line")


def exact_min_distance(points) -> float:
    """Smallest pairwise distance, the closest pairs re-measured by differences."""
    pts = np.asarray(points, dtype=np.float64)
    sq = np.einsum("ij,ij->i", pts, pts)
    best = np.inf
    closest = []
    for start in range(0, len(pts), 512):
        rows = np.arange(start, min(start + 512, len(pts)))
        d2 = sq[rows, None] + sq[None, :] - 2.0 * (pts[rows] @ pts.T)
        d2[rows[:, None] >= np.arange(len(pts))[None, :]] = np.inf
        best = min(best, float(d2.min()))
        r, c = np.nonzero(d2 <= best + 1e-9 * (1.0 + best))
        closest.extend(zip(rows[r], c))
    return min(math.sqrt(float(np.sum((pts[i] - pts[j]) ** 2))) for i, j in closest)


def packing_problems(words, r0: float, r1: float, saturated: bool, cap: int | None) -> list:
    """Saturated-packing guarantees: norms, spacing and the 2^-n (r1/r0)^n count."""
    problems = []
    count, n = words.shape
    if saturated:
        if math.log(count) < n * (math.log(r1 / r0) - math.log(2.0)):
            problems.append(f"saturated packing has only {count} centers")
    elif count != cap:
        problems.append(f"unsaturated packing stopped at {count} of {cap} centers")
    norm = float(np.sqrt(np.einsum("ij,ij->i", words, words)).max())
    if norm > r1 * (1.0 + _FP_GUARD):
        problems.append(f"center norm {norm} exceeds r1 = {r1}")
    return problems


def _spacing_problems(dmin: float, r0: float) -> list:
    if dmin < 2.0 * r0 * (1.0 - _FP_GUARD):
        return [f"min distance {dmin} below 2*r0 = {2.0 * r0}"]
    return []


def check_lowdim(work: Path, size: dict) -> tuple:
    problems, digests = {}, {}
    accepted = 0
    for k in range(len(size["packing_seeds"])):
        pack, dens = f"pack-{k}", f"density-{k}"
        try:
            words = np.load(work / f"centers-{k}.npy")
            meta = json.loads((work / f"packing-{k}.json").read_text())
        except (OSError, ValueError) as exc:
            problems[pack] = problems[dens] = [f"missing packing {k}: {exc}"]
            continue
        accepted += len(words)
        found = packing_problems(words, size["r0"], size["r1"], meta["saturated"], None)
        if len(words) >= 2:
            found += _spacing_problems(exact_min_distance(words), size["r0"])
        problems[pack] = found
        digests[pack] = hashlib.sha256(words.tobytes()).hexdigest()
        if "density" not in meta:
            problems[dens] = ["no density estimate"]
            continue
        found = []
        if meta["density"] < 2.0 ** -size["n"]:
            found.append(f"density {meta['density']} below 2^-n")
        if meta["samples"] != size["density_samples"]:
            found.append(f"density used {meta['samples']} samples")
        problems[dens] = found
        digests[dens] = repr(meta["density"])
    return problems, digests, accepted


def _schedule_eps(n: int, power: float, b: float) -> float:
    return power / n ** (0.5 * (1.0 - b))


def check_highdim(work: Path, size: dict) -> tuple:
    n, power, b = size["n"], size["power"], size["b"]
    book = work / "pack" / "codebook.txt"
    try:
        header, words = read_codebook(book)
        summary = _key_values(work / "pack" / "pack_summary.txt")
        (report,) = _csv_rows(work / "converse" / "converse_report.csv")
    except (OSError, ValueError, KeyError) as exc:
        return {"pack": [f"unreadable artifact: {exc}"],
                "converse-check": [f"unreadable artifact: {exc}"]}, {}, 0
    eps = _schedule_eps(n, power, b)
    r0 = math.sqrt(eps)
    r1 = math.sqrt(power) - r0
    found = []
    if words.shape != (int(header["count"]), n):
        return {"pack": ["codeword block does not match header count"],
                "converse-check": ["no codebook"]}, {}, 0
    if not _close(float(header["epsilon_n"]), eps, _FP_GUARD):
        found.append(f"epsilon_n {header['epsilon_n']} differs from {eps}")
    found += packing_problems(words, r0, r1, header["saturated"] == "true",
                              size["max_codewords"])
    dmin = exact_min_distance(words)
    found += _spacing_problems(dmin, r0)
    for source, value in (("header", header["min_distance"]),
                          ("summary", summary["min_distance"])):
        if not _close(float(value), dmin, _HEADER_REL):
            found.append(f"{source} min_distance {value} differs from {dmin!r}")
    if int(summary["count"]) != len(words):
        found.append(f"summary count {summary['count']} differs from {len(words)}")
    converse = []
    required = math.sqrt(power) / n ** (1.0 + b)
    if not _close(float(report["required_normalized"]), required, _FP_GUARD):
        converse.append(f"required spacing {report['required_normalized']} != {required}")
    if not _close(float(report["achieved_normalized"]), dmin, _HEADER_REL):
        converse.append(f"achieved spacing {report['achieved_normalized']} != {dmin!r}")
    if report["passes"] != str(dmin >= required):
        converse.append(f"passes = {report['passes']} for spacing {dmin} vs {required}")
    digests = {"pack": sha256(book),
               "converse-check": sha256(work / "converse" / "converse_report.csv")}
    return {"pack": found, "converse-check": converse}, digests, len(words)


def _key_values(path: Path) -> dict:
    out = {}
    for line in Path(path).read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _csv_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def row_problems(rows, n, sigma_z2, delta, trials, dist2, gamma, g_max) -> list:
    """Check each estimator row against the chi-square oracles.

    Type I rows match chi2_sf(x, n) with x = n(sigma^2 + delta)/sigma^2.  Type II
    rows with a gain g in argmax_g (slow fading) match the noncentral CDF at
    noncentrality n g^2 |u_i - u_j|^2 / sigma^2; fast rows lie between that CDF
    at g_max and at gamma.
    """
    problems = []
    x = n * (sigma_z2 + delta) / sigma_z2
    for row in rows:
        where = f"row i={row['i']} j={row['j'] or '-'} g={row['argmax_g'] or '-'}"
        if (int(row["n"]), int(row["trials"])) != (n, trials):
            problems.append(f"{where}: n={row['n']} trials={row['trials']}")
            continue
        if not _close(float(row["delta_n"]), delta, _FP_GUARD):
            problems.append(f"{where}: delta_n {row['delta_n']} != {delta!r}")
        p_hat = float(row["p_hat"])
        if not row["j"]:
            lo = hi = stats.chi2.sf(x, n)
        else:
            d2 = dist2(int(row["i"]), int(row["j"]))
            if row["argmax_g"]:
                lo = hi = stats.ncx2.cdf(x, n, n * float(row["argmax_g"]) ** 2 * d2 / sigma_z2)
            else:
                lo = stats.ncx2.cdf(x, n, n * g_max**2 * d2 / sigma_z2)
                hi = stats.ncx2.cdf(x, n, n * gamma**2 * d2 / sigma_z2)
        if not lo - tolerance(lo, trials) <= p_hat <= hi + tolerance(hi, trials):
            problems.append(f"{where}: p_hat={p_hat} outside oracle [{lo:.6g}, {hi:.6g}]")
    return problems


def check_simulate(work: Path, size: dict) -> tuple:
    book = size["codebook"]
    n = book["n"]
    problems, digests = {}, {}
    try:
        _, words = read_codebook(work / "codebook.txt")
        rows = _csv_rows(work / "simulate" / "simulate_report.csv")
    except (OSError, ValueError) as exc:
        problems["simulate"] = [f"unreadable artifact: {exc}"]
    else:
        def dist2(i, j):
            d = words[i - 1] - words[j - 1]
            return float(d @ d)

        delta = size["g_min"] ** 2 * _schedule_eps(n, book["power"], book["b"]) / 3.0
        grid = size["grid"] if size["flavor"] == "slow" else 1
        found = []
        if len(rows) != 2 * size["pairs"] * grid:
            found.append(f"{len(rows)} rows, expected {2 * size['pairs'] * grid}")
        if size["flavor"] == "slow":
            expected = np.tile(np.linspace(size["g_min"], size["g_max"], grid), 2 * size["pairs"])
            got = np.array([float(r["argmax_g"] or "nan") for r in rows])
            if got.shape != expected.shape or not np.allclose(got, expected, rtol=_FP_GUARD):
                found.append("slow rows do not follow the gain grid")
        elif any(r["argmax_g"] for r in rows):
            found.append("fast rows carry a gain")
        messages = [int(v) for r in rows for v in (r["i"], r["j"]) if v]
        if all(1 <= m <= len(words) for m in messages):
            found += row_problems(rows, n, size["sigma_z2"], delta, size["trials"], dist2,
                                  size["g_min"], size["g_max"])
        else:
            found.append("message index outside the codebook")
        problems["simulate"] = found
        digests["simulate"] = sha256(work / "codebook.txt") + sha256(
            work / "simulate" / "simulate_report.csv")
    if "near" in size:
        problems["near-codeword"], digest = _check_near(work / "near", size["near"])
        if digest:
            digests["near-codeword"] = digest
    return problems, digests, 0


def _check_near(out: Path, near: dict) -> tuple:
    n, power, b, sigma_z2, gain = (near[k] for k in ("n", "power", "b", "sigma_z2", "gain"))
    try:
        rows = _csv_rows(out / "near_codeword_report.csv")
        summary = _key_values(out / "near_codeword_summary.txt")
    except OSError as exc:
        return [f"unreadable artifact: {exc}"], None
    dist2 = power / n ** (2.0 * (1.0 + b))
    delta = gain**2 * _schedule_eps(n, power, b) / 3.0
    trials = near["trials"]
    found = row_problems(rows, n, sigma_z2, delta, trials, lambda i, j: dist2, gain, gain)
    if [(r["i"], r["j"]) for r in rows] != [("1", ""), ("2", "1")]:
        found.append("near-codeword rows are not (1, -) and (2, 1)")
    x = n * (sigma_z2 + delta) / sigma_z2
    oracle = stats.chi2.sf(x, n) + stats.ncx2.cdf(x, n, n * gain**2 * dist2 / sigma_z2)
    try:
        error_sum = float(summary["error_sum"])
        joint = float(summary["joint_stderr"])
        reported = float(summary["oracle_sum"])
    except (KeyError, ValueError) as exc:
        return found + [f"summary lacks a number: {exc}"], None
    if abs(error_sum - oracle) > 5.0 * joint + 1.0 / trials:
        found.append(f"error_sum {error_sum} is not within 5 stderr of oracle {oracle:.6g}")
    if not _close(reported, oracle, 1e-6):
        found.append(f"summary oracle_sum {reported} differs from {oracle!r}")
    return found, sha256(out / "near_codeword_report.csv")


def check_run(workload: str, size: dict, work: Path) -> tuple:
    """(problems per operation, artifact digest per operation, accepted codewords)."""
    if workload == "pack-lowdim":
        return check_lowdim(work, size)
    if workload == "pack-highdim":
        return check_highdim(work, size)
    return check_simulate(work, size)
