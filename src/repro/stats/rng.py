"""Random number generation helpers.

Every stochastic component in :mod:`repro` accepts a ``seed`` argument that
may be ``None`` (non-deterministic), an ``int``, or an already-constructed
:class:`random.Random` / :class:`numpy.random.Generator`.  This module
centralizes the coercion logic so generators, samplers and simulators all
interpret seeds identically, and so that derived streams can be split off a
parent stream without correlating results.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Optional, Union

import numpy as np

SeedLike = Union[None, int, random.Random]
NumpySeedLike = Union[None, int, np.random.Generator]

__all__ = [
    "SeedLike",
    "NumpySeedLike",
    "BufferedUniforms",
    "make_rng",
    "make_numpy_rng",
    "spawn_seed",
    "derive_seed",
]

# Large odd multiplier used to decorrelate derived seeds (SplitMix64 constant).
_SPLIT_MULTIPLIER = 0x9E3779B97F4A7C15
_SEED_MASK = (1 << 63) - 1


def make_rng(seed: SeedLike = None) -> random.Random:
    """Coerce *seed* into a :class:`random.Random` instance.

    Passing an existing :class:`random.Random` returns it unchanged, so a
    caller can thread one stream through many components.  Integers produce a
    fresh, reproducible stream; ``None`` produces an OS-seeded stream.
    """
    if isinstance(seed, random.Random):
        return seed
    if seed is None or isinstance(seed, int):
        return random.Random(seed)
    raise TypeError(f"cannot build a random.Random from {type(seed).__name__}")


def make_numpy_rng(seed: NumpySeedLike = None) -> np.random.Generator:
    """Coerce *seed* into a :class:`numpy.random.Generator`."""
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(f"cannot build a numpy Generator from {type(seed).__name__}")


class BufferedUniforms:
    """Scalar uniforms served from block refills of a numpy Generator.

    The growth kernels interleave O(1) data-structure draws with
    occasional branching; calling ``Generator.random()`` per draw costs
    ~1 µs of dispatch, while refilling an 8K block amortizes that to
    nanoseconds.  Consumes the underlying stream in one chunk per refill.
    """

    __slots__ = ("_rng", "_block", "_cursor", "_size")

    def __init__(self, rng: np.random.Generator, block: int = 8192):
        self._rng = rng
        self._size = block
        self._block = rng.random(block)
        self._cursor = 0

    def next(self) -> float:
        """One uniform draw on [0, 1)."""
        cursor = self._cursor
        if cursor >= self._size:
            self._block = self._rng.random(self._size)
            cursor = 0
        self._cursor = cursor + 1
        return self._block[cursor]


def derive_seed(*components) -> int:
    """Deterministic 62-bit seed from arbitrary key components.

    Unlike :func:`spawn_seed` (which advances a live stream), this is a pure
    function of its arguments: the same components give the same seed in any
    process, on any platform, in any run — the property the parallel battery
    runner relies on for bit-identical results at every ``jobs`` value.
    Components are canonicalized through JSON (dict keys sorted, floats via
    repr), so ``derive_seed("glp", {"m": 1.13}, 0)`` is stable across
    interpreter restarts where built-in ``hash()`` is not.
    """
    canon = json.dumps(list(components), sort_keys=True, default=repr)
    digest = hashlib.sha256(canon.encode("utf-8")).digest()
    return (int.from_bytes(digest[:8], "big") & ((1 << 62) - 1)) + 1


def spawn_seed(rng: random.Random) -> int:
    """Draw a 63-bit child seed from *rng*, decorrelated via SplitMix mixing.

    Used when one seeded component needs to hand independent reproducible
    streams to sub-components (e.g. a generator handing a stream to the
    geometry layer) without sharing state.
    """
    raw = rng.getrandbits(63)
    mixed = (raw * _SPLIT_MULTIPLIER) & _SEED_MASK
    # xor-shift finalization spreads low-entropy inputs across all bits.
    mixed ^= mixed >> 31
    return mixed & _SEED_MASK
