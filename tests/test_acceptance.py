"""Acceptance suite: the headline guarantees, each pinned at a fixed tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import math

import numpy as np
import pytest

from difading import (
    ChannelModel,
    DecoderRule,
    FadingSpec,
    PackingConfig,
    ScaleFn,
    TrialPlan,
    achievable_rate_lower_bound,
    classify_regime,
    converse_rate_upper_bound,
    delta_n,
    dominates,
    epsilon_schedule,
    estimate_type1,
    estimate_type2,
    estimate_worst_case,
    generate_saturated_packing,
    min_pairwise_distance,
    near_codeword_experiment,
    scale_chain,
    two_codeword_codebook,
    cli,
)
from difading import oracles
from helpers import point_mass


def _report(number: int, ok: bool, label: str) -> bool:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {label}")
    return ok


def test_criterion_1_packing_density_bound():
    failures = []
    for n in (1, 2, 3):
        for ratio in (5.0, 10.0):
            bound = 2.0**-n * ratio**n
            for seed in range(20):
                packing = generate_saturated_packing(
                    PackingConfig(
                        dimension=n,
                        r0=1.0,
                        r1=ratio,
                        seed=seed,
                        saturation_patience=100_000,
                    )
                )
                if not packing.saturated or packing.count < bound:
                    failures.append((n, ratio, seed, packing.count, bound))
                if packing.count >= 2 and min_pairwise_distance(packing.centers) < 2.0:
                    failures.append((n, ratio, seed, "min distance", 2.0))
    ok = not failures
    assert _report(
        1, ok, "saturated packings reach 2^-n (r1/r0)^n codewords in 20 runs per config"
    ), failures


_TYPE1_GRID = (8, 16, 32)


def test_criterion_2_type1_chi_square_oracle():
    trials = 100_000
    worst = []
    for n in _TYPE1_GRID:
        delta = epsilon_schedule(n, 1.0, 0.0, "achievability")  # A / sqrt(n)
        codebook = two_codeword_codebook(n, 1.0, 0.0, distance=2.0 * math.sqrt(delta))
        model = ChannelModel("fast", 1.0, point_mass(1.0))
        rule = DecoderRule(codebook, model, delta)
        report = estimate_type1(rule, 1, TrialPlan(trials, seed=202))
        oracle = oracles.chi2_sf(n * (1.0 + delta), n)
        worst.append((n, report.estimate, oracle, report.stderr))
        if n == 16:
            assert oracle == pytest.approx(0.2202, abs=5e-4)
    ok = all(abs(p - oracle) <= 3.0 * se for _, p, oracle, se in worst)
    assert _report(
        2, ok, "type-I Monte Carlo matches the chi-square survival oracle within 3 stderr"
    ), worst


def test_criterion_3_type2_noncentral_oracle():
    trials = 100_000
    worst = []
    for n in _TYPE1_GRID:
        eps = epsilon_schedule(n, 1.0, 0.0, "achievability")
        delta = eps
        distance = 2.0 * math.sqrt(eps)
        codebook = two_codeword_codebook(n, 1.0, 0.0, distance=distance)
        model = ChannelModel("fast", 1.0, point_mass(1.0))
        rule = DecoderRule(codebook, model, delta)
        report = estimate_type2(rule, 1, 2, TrialPlan(trials, seed=303))
        lam = n * distance**2
        oracle = oracles.noncentral_chi2_cdf(n * (1.0 + delta), n, lam)
        worst.append((n, report.estimate, oracle, report.stderr))
    ok = all(abs(p - oracle) <= 3.0 * max(se, 1e-9) for _, p, oracle, se in worst)
    assert _report(
        3, ok, "type-II Monte Carlo matches the noncentral chi-square oracle within 3 stderr"
    ), worst


def test_criterion_4_chebyshev_bound_soundness():
    trials = 10_000
    fading = FadingSpec.uniform(0.5, 1.5)
    violations = []
    active = 0
    for n in (8, 16, 32):
        for b in (0.1, 0.3, 0.5):
            eps = epsilon_schedule(n, 1.0, b, "achievability")
            delta = delta_n(fading.gamma, eps)
            codebook = two_codeword_codebook(n, 1.0, b, distance=2.0 * math.sqrt(eps))
            for sigma_z2 in (1.0, 0.05, 0.001):
                model = ChannelModel("fast", sigma_z2, fading)
                plan = TrialPlan(trials, seed=404)
                rule = DecoderRule(codebook, model, delta)
                rep1 = estimate_type1(rule, 1, plan)
                rep2 = estimate_type2(rule, 1, 2, plan)
                for rep in (rep1, rep2):
                    if rep.chebyshev_bound is None or rep.chebyshev_bound > 1.0:
                        continue
                    active += 1
                    if rep.estimate > rep.chebyshev_bound + 3.0 * rep.stderr:
                        violations.append(
                            (rep.error_type, n, b, sigma_z2, rep.estimate, rep.chebyshev_bound)
                        )
    ok = not violations and active > 0
    assert _report(
        4,
        ok,
        f"all {active} non-vacuous Chebyshev bounds dominate their empirical estimates",
    ), violations


def test_criterion_5_degenerate_gain_forces_error_sum_one():
    n = 16
    trials = 10_000
    eps = epsilon_schedule(n, 1.0, 0.0, "achievability")
    codebook = two_codeword_codebook(n, 1.0, 0.0, distance=2.0 * math.sqrt(eps))
    spec = FadingSpec.discrete([0.0, 1.0], [0.5, 0.5], allow_zero=True)
    model = ChannelModel("slow", 1.0, spec)
    delta = eps / 3.0
    plan = TrialPlan(trials, seed=505)
    grid = spec.support_grid()
    rule = DecoderRule(codebook, model, delta)
    w1 = estimate_worst_case(rule, 1, None, grid, plan)
    w2 = estimate_worst_case(rule, 2, 1, grid, plan)
    p1 = next(r for r in w1.per_gain if r.gain == 0.0)
    p2 = next(r for r in w2.per_gain if r.gain == 0.0)
    joint = math.sqrt(p1.stderr**2 + p2.stderr**2)
    gap = abs(p1.estimate + p2.estimate - 1.0)
    ok = gap <= 3.0 * max(joint, 1e-9)
    assert _report(
        5, ok, f"at gain 0 the type-I/type-II error sum is 1 (gap {gap:.2e})"
    ), (p1.estimate, p2.estimate)


def test_criterion_6_near_codeword_converse_mechanism():
    trials = 10_000
    sums = {}
    joints = {}
    for n in (16, 64, 256):
        report = near_codeword_experiment(
            n, 1.0, 0.1, 1.0, point_mass(1.0), TrialPlan(trials, seed=606)
        )
        sums[n] = report.error_sum
        joints[n] = report.joint_stderr
        assert report.oracle_sum is not None
    ok = sums[64] >= 0.9
    band_16_64 = sums[64] >= sums[16] - 3.0 * math.hypot(joints[16], joints[64])
    band_64_256 = sums[256] >= sums[64] - 3.0 * math.hypot(joints[64], joints[256])
    ok = ok and band_16_64 and band_64_256
    assert _report(
        6,
        ok,
        f"near-codeword error sums {sums[16]:.4f} -> {sums[64]:.4f} -> {sums[256]:.4f} "
        "are nondecreasing within bands and >= 0.9 at n=64",
    ), sums


_FROZEN_BOUNDS = [
    (16, 0.1, -0.275, 1.1166914684757108),
    (16, 0.5, -0.375, 1.5055919532571136),
    (64, 0.25, -0.14583333333333331, 1.2513246510643667),
    (256, 0.0, 0.0, 1.0007030686492349),
    (1024, 0.1, 0.024999999999999994, 1.1000704269011248),
    (1024, 0.9, -0.17500000000000002, 1.900000275171979),
    (4096, 0.5, -0.04166666666666666, 1.5000004586195275),
    (65536, 0.0, 0.125, 1.00000137585071),
    (65536, 0.3, 0.04999999999999999, 1.3000000493890336),
    (1048576, 0.1, 0.125, 1.1000000171982631),
]


def test_criterion_7_rate_bound_formulas():
    ok = True
    for n, b, lower, upper in _FROZEN_BOUNDS:
        ok = ok and abs(achievable_rate_lower_bound(n, b) - lower) <= 1e-12
        ok = ok and abs(converse_rate_upper_bound(n, b) - upper) <= 1e-12
    for b in (0.0, 0.25, 0.5, 0.75):
        lowers = [achievable_rate_lower_bound(2**k, b) for k in range(4, 21)]
        uppers = [converse_rate_upper_bound(2**k, b) for k in range(4, 21)]
        ok = ok and all(x < y for x, y in zip(lowers, lowers[1:]))
        ok = ok and all(x > y for x, y in zip(uppers, uppers[1:]))
        ok = ok and abs(lowers[-1] - (0.25 * (1.0 - b) - 0.1)) <= 1e-12
        ok = ok and abs(uppers[-1] - (1.0 + b)) <= 1e-4
        ok = ok and all(
            achievable_rate_lower_bound(2**k, b) < converse_rate_upper_bound(2**k, b)
            for k in range(2, 21)
        )
    assert _report(
        7, ok, "rate bound formulas match frozen values, approach (1-b)/4 and 1+b, never cross"
    )


def test_criterion_8_scale_and_regime_consistency():
    chain = scale_chain(poly_k=2.0)
    ok = True
    for lo in range(len(chain)):
        for hi in range(len(chain)):
            if lo == hi:
                continue
            verdict = dominates(chain[hi], chain[lo]).dominates
            ok = ok and (verdict == (hi > lo))
    table = {
        ("fast", "exp", False): "infinite",
        ("fast", "superexp", False): "finite_band",
        ("fast", "doubleexp", False): "zero",
        ("fast", "exp", True): "infinite",
        ("fast", "superexp", True): "finite_band",
        ("fast", "doubleexp", True): "zero",
        ("slow", "exp", False): "infinite",
        ("slow", "superexp", False): "finite_band",
        ("slow", "doubleexp", False): "zero",
        ("slow", "exp", True): "zero",
        ("slow", "superexp", True): "zero",
        ("slow", "doubleexp", True): "zero",
    }
    for (flavor, kind, flag), expected in table.items():
        verdict = classify_regime(flavor, kind, flag)
        ok = ok and verdict.verdict == expected
        if expected == "finite_band":
            ok = ok and verdict.band == (0.25, 1.0)
    # finite band implies infinite at dominated scales and zero at dominating ones
    for flavor, flag in (("fast", False), ("fast", True), ("slow", False)):
        if classify_regime(flavor, "superexp", flag).verdict == "finite_band":
            ok = ok and dominates(ScaleFn("superexp"), ScaleFn("exp")).dominates
            ok = ok and classify_regime(flavor, "exp", flag).verdict == "infinite"
            ok = ok and dominates(ScaleFn("doubleexp"), ScaleFn("superexp")).dominates
            ok = ok and classify_regime(flavor, "doubleexp", flag).verdict == "zero"
    assert _report(
        8, ok, "dominance chain, the 12 regime verdicts, and their consistency all hold"
    )


def test_criterion_9_pipeline_determinism(tmp_path):
    pack_cfg = tmp_path / "pack.cfg"
    pack_cfg.write_text("n = 100\nseed = 42\npatience = 4000\nmax_codewords = 48\n")
    for name in ("a", "b"):
        assert cli.main(["pack", "--config", str(pack_cfg), "--out", str(tmp_path / name)]) == 0
    assert (
        cli.main(["pack", "--config", str(pack_cfg), "--seed", "43", "--out", str(tmp_path / "c")])
        == 0
    )
    pack_same = (tmp_path / "a" / "codebook.txt").read_bytes() == (
        tmp_path / "b" / "codebook.txt"
    ).read_bytes()
    pack_diff = (tmp_path / "a" / "codebook.txt").read_bytes() != (
        tmp_path / "c" / "codebook.txt"
    ).read_bytes()

    sim_cfg = tmp_path / "sim.cfg"
    sim_cfg.write_text(
        f"""codebook = {tmp_path / 'a' / 'codebook.txt'}
flavor = fast
family = uniform
g_min = 0.5
g_max = 1.5
sigma_z2 = 0.05
trials = 2000
seed = 11
random_pairs = 2
"""
    )
    for name in ("s1", "s2"):
        assert cli.main(["simulate", "--config", str(sim_cfg), "--out", str(tmp_path / name)]) == 0
    assert (
        cli.main(
            ["simulate", "--config", str(sim_cfg), "--seed", "12", "--out", str(tmp_path / "s3")]
        )
        == 0
    )
    sim_same = (tmp_path / "s1" / "simulate_report.csv").read_bytes() == (
        tmp_path / "s2" / "simulate_report.csv"
    ).read_bytes()
    sim_diff = (tmp_path / "s1" / "simulate_report.csv").read_bytes() != (
        tmp_path / "s3" / "simulate_report.csv"
    ).read_bytes()

    ok = pack_same and pack_diff and sim_same and sim_diff
    assert _report(
        9, ok, "pack and simulate pipelines are byte-identical per seed and differ across seeds"
    )
