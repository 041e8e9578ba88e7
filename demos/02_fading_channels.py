#!/usr/bin/env python3
"""Fading-gain families and the two channel flavors.

Fast fading multiplies every symbol by a fresh i.i.d. gain; slow fading holds
a single gain for the whole block.  Gains live on a bounded support whose
infimum gamma powers all decoder thresholds, so supports touching zero are
refused unless explicitly requested.
"""

import math

import numpy as np

from difading import (
    ChannelModel,
    FadingSpec,
    apply_channel,
    realize,
    substream,
)

specs = {
    "uniform [0.5, 1.5]": FadingSpec.uniform(0.5, 1.5),
    "rayleigh(1.0) on [0.5, 2.0]": FadingSpec.truncated_rayleigh(1.0, 0.5, 2.0),
    "discrete {0.5: 0.3, 2.0: 0.7}": FadingSpec.discrete([0.5, 2.0], [0.3, 0.7]),
}
print("fading families (closed-form moments vs 10^5 samples):")
for label, spec in specs.items():
    draws = spec.sample(substream(1, "gains"), 100_000)
    print(
        f"  {label:30s} gamma={spec.gamma:.2f} g_max={spec.g_max:.2f}  "
        f"mean {spec.mean:.4f} vs {draws.mean():.4f}   "
        f"E[G^2] {spec.second_moment:.4f} vs {(draws**2).mean():.4f}"
    )

print()
print("fast vs slow gains (the decoder's CSI) for a chunk of 2 trials of one block each (n = 6):")
spec = FadingSpec.uniform(0.5, 1.5)
for flavor in ("fast", "slow"):
    gains = realize(ChannelModel(flavor, 1.0, spec), 2, 6, seed=2, chunk=0).gains
    print(f"  {flavor}:", np.round(gains, 3).tolist())

print()
print("normalized channel: ||x|| <= sqrt(A), noise variance sigma^2/n per symbol")
n, sigma_z2, trials = 64, 2.0, 20_000
model = ChannelModel("fast", sigma_z2, spec)
noise = realize(model, trials, n, seed=3, chunk=0).noise
print(f"  mean noise energy ||z||^2 over {trials} trials: {(noise**2).sum(axis=1).mean():.4f} "
      f"(sigma^2 = {sigma_z2})")
x = np.full(n, 0.9 / math.sqrt(n))
chunk = realize(model, 3, n, seed=9, chunk=0)
y = apply_channel(model, x, chunk, power_budget=1.0)
print(f"  one chunk of {y.shape[0]} trials -> outputs of shape {y.shape}")

print()
print("labeled substreams keep gains and noise independent and replayable:")
replay = realize(model, 3, n, seed=9, chunk=0)
other = realize(model, 3, n, seed=9, chunk=1)
print("  gains replay identically:", np.array_equal(chunk.gains, replay.gains))
print("  noise replay identically:", np.array_equal(chunk.noise, replay.noise))
print("  the next chunk draws fresh noise:", not np.array_equal(chunk.noise, other.noise))
