#!/usr/bin/env python3
"""Code-size scales, capacity regimes, rate bounds, and the near-codeword effect.

Identification code sizes for these channels live on the super-exponential
scale L(n, R) = 2^(n log2(n) R): capacity there is finite (between 1/4 and 1
bits), which forces infinite capacity on every dominated scale (exponential
and below) and zero capacity on every dominating scale (double exponential).

The converse mechanism is visible at desk scale: squeeze two codewords to
the converse spacing sqrt(n eps_n), eps_n = A / n^(2(1+b)), and the type-I +
type-II error sum climbs to 1 as n grows because the hypotheses merge.
near_codeword_rule builds the pair and its decoder (and refuses a setup it
cannot run); near_codeword_experiment draws the trials.
"""

from difading import (
    ScaleFn,
    TrialPlan,
    achievable_rate_lower_bound,
    classify_regime,
    converse_rate_upper_bound,
    dominates,
    near_codeword_experiment,
    near_codeword_rule,
    scale_chain,
)
from difading import FadingSpec

print("dominance chain (numeric certificates on the default grid):")
chain = scale_chain(poly_k=2.0)
for weak, strong in zip(chain, chain[1:]):
    fwd = dominates(strong, weak)
    rev = dominates(weak, strong)
    print(f"  {weak.label():10s} < {strong.label():10s}   "
          f"forward: {str(fwd.dominates):5s}  reversed: {rev.dominates}")

print("\ncapacity regimes (flavor, scale, zero in gain-support closure):")
for flavor in ("fast", "slow"):
    for flag in (False, True):
        verdicts = [classify_regime(flavor, kind, flag).verdict
                    for kind in ("exp", "superexp", "doubleexp")]
        print(f"  {flavor:4s} zero={str(flag):5s}  exp={verdicts[0]:11s} "
              f"superexp={verdicts[1]:11s} doubleexp={verdicts[2]}")

print("\nrate bounds in bits (lower -> (1-b)/4, upper -> 1+b):")
for b in (0.0, 0.1):
    for k in (8, 12, 16, 20):
        n = 2**k
        lo = achievable_rate_lower_bound(n, b)
        hi = converse_rate_upper_bound(n, b)
        marker = " (vacuous)" if lo < 0 else ""
        print(f"  b={b}  n=2^{k:2d}   lower={lo:+.4f}{marker}   upper={hi:.4f}")

print("\nnear-codeword converse mechanism (b=0.1, sigma_z2=1, unit gain):")
unit = FadingSpec.uniform(1.0, 1.0)
for n in (16, 64, 256):
    rule = near_codeword_rule(n, 1.0, 0.1, 1.0, unit)
    rep = near_codeword_experiment(rule, TrialPlan(10_000, seed=6))
    print(f"  n={n:4d}  spacing={rep.normalized_distance:.5f}  "
          f"p1+p2 = {rep.error_sum:.4f}  (oracle {rep.oracle_sum:.4f})")
print("  -> the sum approaches 1: codewords this close cannot be told apart")
