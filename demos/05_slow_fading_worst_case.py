#!/usr/bin/env python3
"""Slow fading: worst-case errors over the gain support, and the zero-gain trap.

Under slow fading one gain rules the whole block, so error probabilities are
taken as the worst case over the support.  The sup is approximated on a
finite grid with common random numbers: every grid point replays the same
noise, so the estimates differ only through the gain.

If the support closure contains zero, identification collapses: at g = 0 the
output is pure noise, so any output the decoder accepts for message i it
also accepts when a different message was sent, and the two error
probabilities sum to one no matter the code.
"""

import math

from difading import (
    ChannelModel,
    DecoderRule,
    FadingSpec,
    TrialPlan,
    epsilon_schedule,
    estimate_worst_case,
    two_codeword_codebook,
)

n = 16
eps = epsilon_schedule(n, 1.0, 0.0, "achievability")
book = two_codeword_codebook(n, 1.0, 0.0, 2.0 * math.sqrt(eps))
delta = eps / 3.0
plan = TrialPlan(trials=20_000, seed=21)

print("healthy support [0.5, 1.5]: worst case over a 9-point grid")
spec = FadingSpec.uniform(0.5, 1.5)
rule = DecoderRule(book, ChannelModel("slow", 0.05, spec), delta)
w1 = estimate_worst_case(rule, 1, None, spec.support_grid(9), plan)
w2 = estimate_worst_case(rule, 1, 2, spec.support_grid(9), plan)
print("  type I per gain :", [f"{r.gain:.2f}:{r.estimate:.4f}" for r in w1.per_gain])
print("  (gain-free statistic, identical under common random numbers)")
print("  type II per gain:", [f"{r.gain:.2f}:{r.estimate:.4f}" for r in w2.per_gain])
print(f"  worst type II = {w2.estimate:.4f} at g = {w2.gain}")

print("\ndegenerate support {0, 1}: the decoder cannot win at g = 0")
zero_spec = FadingSpec.discrete([0.0, 1.0], [0.5, 0.5], allow_zero=True)
zero_rule = DecoderRule(book, ChannelModel("slow", 1.0, zero_spec), delta)
z1 = estimate_worst_case(zero_rule, 1, None, zero_spec.support_grid(), plan)
z2 = estimate_worst_case(zero_rule, 2, 1, zero_spec.support_grid(), plan)
p1 = next(r for r in z1.per_gain if r.gain == 0.0)
p2 = next(r for r in z2.per_gain if r.gain == 0.0)
print(f"  P(miss message 1 | g=0)        = {p1.estimate:.4f}")
print(f"  P(falsely accept 1, sent 2 | g=0) = {p2.estimate:.4f}")
print(f"  sum = {p1.estimate + p2.estimate:.4f}  (equals 1: no rate is achievable)")
