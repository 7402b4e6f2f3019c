"""Counter-based random streams for reproducible Monte Carlo.

Every trial draws from its own Philox stream keyed by (seed, trial index),
so estimates do not depend on evaluation order, parallelism or how the
trials are grouped into chunks.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1

# Bytes of standard normal draws held per chunk of trials.  Small on
# purpose: the draws and the chunk's temporaries of the same size are the
# Monte Carlo's whole working set (a 32 MB budget lifted a p=20 sweep's
# peak RSS from 38 MB to 108 MB), while a few dozen trials per chunk
# already amortize the per-chunk Python work.
DRAW_BUDGET_BYTES = 64 * 1024


def derive_seed(master_seed: int, tag: str) -> int:
    """Derive an independent 64-bit seed for a named subexperiment."""
    digest = hashlib.blake2b(
        f"{master_seed & _MASK64}:{tag}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def _stream_key(seed: int, trial: int) -> np.ndarray:
    """Philox key of trial `trial`'s stream under `seed`."""
    if trial < 0:
        raise ValueError(f"trial index must be >= 0, got {trial}")
    return np.array([seed & _MASK64, trial], dtype=np.uint64)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Generator for one Monte Carlo trial, independent of all other trials."""
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, trial)))


def trials_per_chunk(shapes: tuple[tuple[int, ...], ...]) -> int:
    """Trials whose draws of the given shapes fit in DRAW_BUDGET_BYTES; at least one."""
    per_trial = 8 * sum(math.prod(shape) for shape in shapes)
    return max(1, DRAW_BUDGET_BYTES // per_trial)


def trial_chunks(
    seed: int, trials: int, shapes: tuple[tuple[int, ...], ...]
) -> Iterator[tuple[int, list[np.ndarray]]]:
    """Standard normal draws of trials 0..trials-1, in chunks of consecutive
    trials: yields (first trial, one stack per shape, trials on axis 0).

    Trial t's arrays are drawn in the order of `shapes` from the stream of
    trial_rng(seed, t), bit for bit: one Philox is re-keyed to (seed, t)
    with its counter at 0 before each trial, which skips the entropy read
    that building a Philox costs.
    """
    chunk = trials_per_chunk(shapes)
    bit_generator = np.random.Philox(key=_stream_key(seed, 0))
    generator = np.random.Generator(bit_generator)
    fresh = bit_generator.state
    for start in range(0, trials, chunk):
        count = min(chunk, trials - start)
        stacks = [np.empty((count,) + shape) for shape in shapes]
        for offset in range(count):
            fresh["state"]["key"] = _stream_key(seed, start + offset)
            bit_generator.state = fresh
            for stack in stacks:
                generator.standard_normal(out=stack[offset])
        yield start, stacks
