"""Deterministic RNG derivation.

Every randomized component draws from a generator derived from the single
master seed plus a tuple of namespace keys. Parallel and serial execution
of independent work units therefore produce identical output, because each
unit owns its own stream regardless of scheduling order. Each key becomes
one non-negative int (negative ints and other keys are hashed), and the ints
seed a ``SeedSequence``.
"""

import hashlib
from concurrent.futures import ProcessPoolExecutor

import numpy as np


def _key_to_int(key) -> int:
    """Map an arbitrary key to a stable non-negative 64-bit integer."""
    if isinstance(key, (int, np.integer)) and int(key) >= 0:
        return int(key)
    digest = hashlib.sha256(repr(key).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _entropy_words(master_seed: int, keys) -> np.ndarray:
    """The uint32 words ``SeedSequence`` makes of the keys' ints: each int's
    little-endian 32-bit words, 0 as one word. Given the words, it skips its
    Python-level coercion of each int and fills the same pool."""
    words = []
    for key in (master_seed, *keys):
        value = _key_to_int(key)
        words.append(value & 0xFFFFFFFF)
        while value := value >> 32:
            words.append(value & 0xFFFFFFFF)
    return np.array(words, dtype=np.uint32)


def derive_seed(master_seed: int, *keys) -> int:
    """Derive a child seed integer from the master seed and namespace keys."""
    seq = np.random.SeedSequence(_entropy_words(master_seed, keys))
    return int(seq.generate_state(1, np.uint64)[0])


def derive_rng(master_seed: int, *keys) -> np.random.Generator:
    """Create a generator seeded from (master_seed, *keys)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        _entropy_words(master_seed, keys))))


def map_units(fn, args, jobs: int) -> list:
    """[fn(a) for a in args] on min(jobs, len(args)) worker processes, or in this
    process when that is one; a pool starts all its workers at once.

    Results come back in argument order, so output does not depend on jobs.
    """
    workers = min(jobs, len(args))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, args))
    return [fn(a) for a in args]
