#!/usr/bin/env python3
"""Identification codebooks from packings and the threshold distance decoder.

The codebook at block length n packs spheres of radius sqrt(eps_n),
eps_n = A / n^((1-b)/2), with centers inside the ball of radius
sqrt(A) - sqrt(eps_n); codewords are the centers, so codeword norms never
exceed sqrt(A) and pairwise distances never fall below 2 sqrt(eps_n).

The decoder answers "was message j sent?" by testing whether the output lies
within sqrt(sigma_z2 + delta_n) of the gain-scaled codeword, where
delta_n = gamma^2 eps_n / 3.  Decoding regions of different messages may
overlap; that is allowed for identification, and only encoder overlap is
fatal.
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from difading import (
    ChannelModel,
    Codebook,
    DecoderRule,
    FadingSpec,
    apply_channel,
    build_codebook,
    delta_n,
    identify,
    load_codebook,
    min_pairwise_distance,
    realize,
    save_codebook,
)

n, power, b = 100, 1.0, 0.0
codebook = build_codebook(n, power, b, seed=11, patience=20_000, max_codewords=200)
print(f"block length n={n}, power budget A={power}, slack b={b}:")
print(f"  eps_n = {codebook.epsilon_n:.4f}  -> r0 = {math.sqrt(codebook.epsilon_n):.4f}, "
      f"r1 = {math.sqrt(power) - math.sqrt(codebook.epsilon_n):.4f}")
print(f"  codewords: {codebook.size}  saturated: {codebook.saturated}")
print(f"  max codeword norm: {np.linalg.norm(codebook.codewords, axis=1).max():.4f} "
      f"(budget {math.sqrt(power):.4f})")
print(f"  min pairwise distance: {min_pairwise_distance(codebook.codewords):.4f} "
      f"(construction floor {2 * math.sqrt(codebook.epsilon_n):.4f})")

gamma = 0.5
sigma_z2 = 0.05
delta = delta_n(gamma, codebook.epsilon_n)
model = ChannelModel("fast", sigma_z2, FadingSpec.uniform(gamma, 1.5))
rule = DecoderRule(codebook, model, delta)
radius = math.sqrt(rule.threshold)
print(f"\ndecoder: accept when ||y - g o u_j|| <= {radius:.4f} "
      f"(sigma_z2={sigma_z2}, delta_n={delta:.4f})")

trials = 1000
chunk = realize(model, trials, n, seed=5, chunk=0)
y = apply_channel(model, codebook.codeword(3), chunk, power)
print(f"  sent message 3 in {trials} trials; decoder CSI = realized gains")
for j in (3, 7):
    accepted = rule.accepts(rule.statistic(y, j, chunk.gains))
    print(f"  identify({j}) accepted in {accepted.sum()} of {trials} trials")
print("  trial 0 alone: identify(3)?", identify(rule, y[0], 3, chunk.gains[0]))

print("\noverlapping decoding regions (legal for identification):")
# any pair closer than 2x the acceptance radius is claimed by both messages at once
close = np.zeros((2, n))
close[0, 0], close[1, 0] = 0.9 * radius, -0.9 * radius
close_book = Codebook(n, power, b, "achievability", codebook.epsilon_n, close)
close_rule = DecoderRule(close_book, model, delta)
midpoint = np.zeros(n)  # halfway between the two codewords, unit gain
both = identify(close_rule, midpoint, 1, np.ones(n)) and identify(
    close_rule, midpoint, 2, np.ones(n)
)
print(f"  codewords at distance {1.8 * radius:.4f} < 2*radius = {2 * radius:.4f}")
print(f"  midpoint accepted by both messages: {both}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "codebook.txt"
    save_codebook(codebook, path)
    same = np.array_equal(load_codebook(path).codewords, codebook.codewords)
print(f"\ncodebook file (17 significant digits) reloads bit for bit: {same}")
