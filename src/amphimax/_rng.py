"""Deterministic named random streams."""

import hashlib

import numpy as np


def _key(part):
    if isinstance(part, (int, np.integer)):
        return int(part)
    digest = hashlib.blake2s(str(part).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _philox(master_seed, *path):
    # SeedSequence zero-pads its entropy, so [a] and [a, 0] would collide;
    # the explicit length keeps prefix addresses distinct from extensions
    entropy = [_key(master_seed), len(path)] + [_key(p) for p in path]
    return np.random.Philox(np.random.SeedSequence(entropy))


def stream(master_seed, *path):
    """Independent generator addressed by (master_seed, *path).

    The same address always yields the same draws; distinct addresses give
    statistically independent streams. Path parts may be ints or short
    strings (strings are hashed stably, not with the salted builtin hash).
    """
    return np.random.Generator(_philox(master_seed, *path))


def window_reader(address):
    """read(start, count): raw 64-bit words [start, start + count) of stream(*address).bit_generator.

    Philox is counter-based (Salmon et al., SC 2011): word w of its sequence
    is word w % 4 of the block at counter w // 4 + 1, so a read sets the
    reader's one Philox to its fresh state at counter start // 4 and skips
    start % 4 words, whatever was read before.
    """
    bits = _philox(*address)
    state = bits.state

    def read(start, count):
        state["state"]["counter"] = np.array([start // 4, 0, 0, 0], dtype=np.uint64)
        bits.state = state
        return bits.random_raw(start % 4 + count)[start % 4 :]

    return read
