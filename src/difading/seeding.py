"""Labeled, replayable random substreams.

Every source of randomness in the package (packing candidates, fading gains,
channel noise, density samples, ...) draws from its own named substream so
that experiments are modular yet bit-reproducible: the codebook stream is
untouched by how many noise samples a simulation consumes.  Monte-Carlo work
is split into fixed-size chunks that draw from their own (seed, label, chunk)
streams; ``run_chunks`` runs them on a thread pool of ``_WORKERS`` threads
(the CPUs this process may run on), at most twice that many in flight, and
returns the sum of their results added in chunk order, so it is the same for
any pool size.
"""

import hashlib
import numbers
import operator
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import reduce

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity query on this platform
    _WORKERS = os.cpu_count() or 1


def require_integer(name: str, value) -> None:
    """Raise ValueError naming the argument unless value is an integer (bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def substream(seed: int, label: str, *indices: int) -> np.random.Generator:
    """Generator for the (seed, label, *indices) substream.

    The same arguments always yield the same stream; distinct labels or
    indices yield statistically independent streams.  The label enters as the
    first 8 bytes of its sha256, not as Python's salted hash().
    """
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    entropy = [int(seed) & _MASK64, int.from_bytes(digest[:8], "big")]
    entropy.extend(int(i) for i in indices)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(seed: int, label: str, *indices: int) -> int:
    """64-bit sub-seed for handing to components that take a plain seed."""
    parts = [str(int(seed) & _MASK64), label]
    parts.extend(str(int(i)) for i in indices)
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def run_chunks(run_chunk, total: int, size: int):
    """Sum of run_chunk((index, length)) over the chunks of total items split by size.

    Chunks are full-size but the last, and their results are added in chunk
    order.  At most 2 * _WORKERS chunks are in flight, so memory does not grow
    with the chunk count; a single chunk runs on the calling thread.
    """
    chunks = ((k, min(size, total - start)) for k, start in enumerate(range(0, total, size)))
    if _WORKERS == 1 or total <= size:
        return reduce(operator.add, map(run_chunk, chunks))
    with ThreadPoolExecutor(max_workers=_WORKERS) as pool:
        return reduce(operator.add, _in_order(pool, run_chunk, chunks, 2 * _WORKERS))


def _in_order(pool, fn, items, depth: int):
    """fn(item) for each item, in order, with at most depth calls submitted and not yet read."""
    window = deque()
    for item in items:
        window.append(pool.submit(fn, item))
        if len(window) == depth:
            yield window.popleft().result()
    while window:
        yield window.popleft().result()
