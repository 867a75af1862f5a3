"""Deterministic seed derivation for named random streams.

Every randomized component takes an explicit seed; sub-streams are derived
from a base seed plus string/int tags so that reruns are bit-identical and
independent streams never collide.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stream_key(*tags: object) -> int:
    """Map an arbitrary tag tuple to a stable 64-bit integer.

    Uses blake2b of the repr, so the result is identical across
    processes and platforms (unlike Python's salted ``hash``).
    """
    text = "|".join(repr(t) for t in tags)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def rng_for(seed_base: int, *tags: object) -> np.random.Generator:
    """A generator for the stream named by ``tags``, rooted at ``seed_base``.

    A seed base outside [0, 2^32) adds a word of its own key to the entropy,
    so seeds that agree in their low 32 bits draw different streams.
    """
    entropy = [seed_base & 0xFFFFFFFF, stream_key(*tags)]
    if not 0 <= seed_base < 1 << 32:
        entropy.append(stream_key(seed_base))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def seed_for(seed_base: int, *tags: object) -> int:
    """A plain integer seed for the stream named by ``tags``."""
    return stream_key(seed_base, *tags)
