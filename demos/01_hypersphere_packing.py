#!/usr/bin/env python3
"""Saturated sphere packings in a ball and the 2^-n density guarantee.

Greedy rejection sampling drops radius-r0 spheres into the ball of radius r1
until `patience` consecutive candidates fail.  A saturated arrangement always
covers at least the fraction 2^-n of the ball: doubling the small radius
would cover everything, and doubling multiplies volumes by 2^n.  The same
argument lower-bounds the number of accepted spheres by 2^-n (r1/r0)^n.
"""

import numpy as np

from difading import (
    PackingConfig,
    estimate_packing_density,
    generate_saturated_packing,
    min_pairwise_distance,
)

print("saturated packings, r0 = 1, centers inside the r1-ball:")
for n, r1 in [(1, 10.0), (2, 10.0), (3, 5.0)]:
    packing = generate_saturated_packing(
        PackingConfig(dimension=n, r0=1.0, r1=r1, seed=7, saturation_patience=100_000)
    )
    bound = 2.0**-n * r1**n
    density = estimate_packing_density(packing, samples=50_000, seed=1)
    print(
        f"  n={n}  r1/r0={r1:4.1f}  accepted={packing.count:4d}  "
        f"count bound={bound:7.2f}  min distance={min_pairwise_distance(packing.centers):.3f}  "
        f"density={density.density:.3f} (+-{density.stderr:.3f}, guarantee {2.0**-n:.3f})"
    )

print()
print("same seed reproduces the packing bit for bit:")
cfg = PackingConfig(dimension=2, r0=1.0, r1=8.0, seed=123, saturation_patience=20_000)
again = generate_saturated_packing(cfg)
assert np.array_equal(again.centers, generate_saturated_packing(cfg).centers)
print(f"  {again.count} centers, first = {again.centers[0]}")
