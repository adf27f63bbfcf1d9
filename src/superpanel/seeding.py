"""Deterministic RNG derivation.

Every randomized component draws from a generator derived from the single
master seed plus a tuple of namespace keys. Parallel and serial execution
of independent work units therefore produce identical output, because each
unit owns its own stream regardless of scheduling order.
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


def derive_seed(master_seed: int, *keys) -> int:
    """Derive a child seed integer from the master seed and namespace keys."""
    entropy = [_key_to_int(master_seed)] + [_key_to_int(k) for k in keys]
    seq = np.random.SeedSequence(entropy)
    return int(seq.generate_state(1, np.uint64)[0])


def derive_rng(master_seed: int, *keys) -> np.random.Generator:
    """Create a generator seeded from (master_seed, *keys)."""
    entropy = [_key_to_int(master_seed)] + [_key_to_int(k) for k in keys]
    return np.random.default_rng(np.random.SeedSequence(entropy))


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
