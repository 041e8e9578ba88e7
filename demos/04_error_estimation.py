#!/usr/bin/env python3
"""Monte-Carlo error estimation checked against closed-form oracles.

With a constant gain the decoder statistics are exactly chi-square laws:
the type-I statistic n ||Z||^2 / sigma_z2 is central chi-square with n
degrees of freedom, and the type-II statistic is noncentral with parameter
n g^2 d^2 / sigma_z2 for codewords d apart.  The estimates also come with
the Chebyshev reference bounds 27 sigma^4/(n^b A^2 gamma^4) (type I) and
the same plus 144 sigma^2 E[G^2]/(gamma^4 A n^b) (type II).
"""

import math

from difading import (
    ChannelModel,
    DecoderRule,
    FadingSpec,
    TrialPlan,
    delta_n,
    epsilon_schedule,
    estimate_type1,
    estimate_type2,
    two_codeword_codebook,
)
from difading import oracles


unit_gain = FadingSpec.uniform(1.0, 1.0)
plan = TrialPlan(trials=100_000, seed=42)

print("type I vs the chi-square survival oracle (g = 1, sigma_z2 = 1):")
for n in (8, 16, 32):
    delta = epsilon_schedule(n, 1.0, 0.0, "achievability")
    book = two_codeword_codebook(n, 1.0, 0.0, 2.0 * math.sqrt(delta))
    model = ChannelModel("fast", 1.0, unit_gain)
    report = estimate_type1(DecoderRule(book, model, delta), 1, plan)
    oracle = oracles.chi2_sf(n * (1.0 + delta), n)
    print(f"  n={n:3d}  p_hat={report.estimate:.4f}  oracle={oracle:.4f}  "
          f"|z| = {abs(report.estimate - oracle) / report.stderr:.2f}")

print("\ntype II vs the noncentral chi-square oracle (codewords 2 sqrt(eps) apart):")
for n in (8, 16, 32):
    eps = epsilon_schedule(n, 1.0, 0.0, "achievability")
    distance = 2.0 * math.sqrt(eps)
    book = two_codeword_codebook(n, 1.0, 0.0, distance)
    model = ChannelModel("fast", 1.0, unit_gain)
    report = estimate_type2(DecoderRule(book, model, eps), 1, 2, plan)
    oracle = oracles.noncentral_chi2_cdf(n * (1.0 + eps), n, n * distance**2)
    print(f"  n={n:3d}  p_hat={report.estimate:.4f}  oracle={oracle:.4f}  "
          f"|z| = {abs(report.estimate - oracle) / max(report.stderr, 1e-9):.2f}")

print("\nChebyshev reference bounds with random uniform fading on [0.5, 1.5]:")
fading = FadingSpec.uniform(0.5, 1.5)
for sigma_z2 in (0.05, 0.001):
    n, b = 32, 0.5
    eps = epsilon_schedule(n, 1.0, b, "achievability")
    book = two_codeword_codebook(n, 1.0, b, 2.0 * math.sqrt(eps))
    model = ChannelModel("fast", sigma_z2, fading)
    delta = delta_n(fading.gamma, eps)
    rule = DecoderRule(book, model, delta)
    r1 = estimate_type1(rule, 1, TrialPlan(20_000, seed=7))
    r2 = estimate_type2(rule, 1, 2, TrialPlan(20_000, seed=7))
    for rep in (r1, r2):
        status = "vacuous" if rep.chebyshev_bound > 1 else (
            "holds" if rep.estimate <= rep.chebyshev_bound + 3 * rep.stderr else "VIOLATED"
        )
        print(f"  sigma_z2={sigma_z2:6.3f}  {rep.error_type}:  p_hat={rep.estimate:.5f}  "
              f"bound={rep.chebyshev_bound:8.4f}  ({status})")
