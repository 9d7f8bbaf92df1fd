"""Deterministic named random streams."""

import hashlib

import numpy as np


def _key(part):
    if isinstance(part, (int, np.integer)):
        return int(part)
    digest = hashlib.blake2s(str(part).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _seeds(master_seed, *path):
    if _key(master_seed) < 0:
        raise ValueError(f"master seed must be a non-negative integer, got {master_seed}")
    # SeedSequence zero-pads its entropy, so [a] and [a, 0] would collide;
    # the explicit length keeps prefix addresses distinct from extensions
    entropy = [_key(master_seed), len(path)] + [_key(p) for p in path]
    return np.random.SeedSequence(entropy)


def stream(master_seed, *path):
    """Independent PCG64DXSM generator addressed by (master_seed, *path).

    The same address always yields the same draws; distinct addresses give
    statistically independent streams. Path parts may be ints or short
    strings (strings are hashed stably, not with the salted builtin hash).
    """
    return np.random.Generator(np.random.PCG64DXSM(_seeds(master_seed, *path)))


def instance_stream(master_seed, *path):
    """stream(master_seed, *path) on Philox: the generators' draws, which fix every generated instance."""
    return np.random.Generator(np.random.Philox(_seeds(master_seed, *path)))


def window_reader(address):
    """read(start, count): raw 64-bit words [start, start + count) of stream(*address).bit_generator.

    PCG64DXSM jumps ahead in O(log start) steps and gives one word per step,
    so a read restores the reader's one generator to its fresh state and
    advances it start words, whatever was read before.
    """
    bits = stream(*address).bit_generator
    state = bits.state

    def read(start, count):
        bits.state = state
        bits.advance(int(start))  # advance refuses NumPy integers
        return bits.random_raw(count)

    return read
