"""Deterministic randomness helpers.

Every stochastic component in the library receives an explicit integer seed
and derives child seeds through :func:`derive_seed`, so that runs are fully
reproducible and independent components do not share RNG streams.

Hot loops that only need the first draw of many child streams use the batch
forms: :func:`derive_seeds` (the seeds, one hashed prefix) and
:func:`first_uniform` (``np.random.default_rng(seed).random()`` for every
seed, in array arithmetic, bit for bit).
"""

from __future__ import annotations

import functools
import hashlib
from typing import Iterable

import numpy as np


def derive_seed(base_seed: int, *labels: object) -> int:
    """Derive a child seed from ``base_seed`` and a sequence of labels.

    The derivation is a stable hash of the base seed and the string form of
    each label, so the same (seed, labels) pair always yields the same child
    seed, and different labels yield (with overwhelming probability) different
    child seeds.

    Parameters
    ----------
    base_seed:
        The parent seed.
    labels:
        Arbitrary hashable labels identifying the component (e.g. a module
        name and an index).

    Returns
    -------
    int
        A non-negative 32-bit seed suitable for :class:`numpy.random.Generator`.
    """
    digest = hashlib.sha256()
    digest.update(str(int(base_seed)).encode("utf-8"))
    for label in labels:
        digest.update(b"\x00")
        digest.update(str(label).encode("utf-8"))
    return int.from_bytes(digest.digest()[:4], "big")


def derive_seeds(base_seed: int, labels: Iterable[object]) -> np.ndarray:
    """``derive_seed(base_seed, label)`` for every label, as a uint64 array.

    The hash state after the base seed and the label separator is computed
    once and copied per label; the leading four digest bytes of every label
    are read as one big-endian uint32 array.
    """
    prefix = hashlib.sha256()
    prefix.update(str(int(base_seed)).encode("utf-8"))
    prefix.update(b"\x00")
    heads = []
    for label in labels:
        digest = prefix.copy()
        digest.update(str(label).encode("utf-8"))
        heads.append(digest.digest()[:4])
    return np.frombuffer(b"".join(heads), dtype=">u4").astype(np.uint64)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_LOW32 = np.uint64(_MASK32)
# PCG64's 128-bit LCG multiplier, as (high, low) 64-bit halves.
_PCG_MULT = (np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645))


def _hashmix(values: np.ndarray, hash_const: int) -> tuple[np.ndarray, int]:
    values = values ^ np.uint32(hash_const)
    hash_const = (hash_const * _MULT_A) & _MASK32
    values = values * np.uint32(hash_const)
    return values ^ (values >> _XSHIFT), hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _pcg_state(seeds: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for 32-bit seeds:
    the entropy is the one word ``seed``, mixed into a 4-word pool."""
    hash_const = _INIT_A
    pool = []
    for word in range(_POOL_SIZE):
        entropy = seeds if word == 0 else np.zeros_like(seeds)
        mixed, hash_const = _hashmix(entropy, hash_const)
        pool.append(mixed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], mixed)
    hash_const = _INIT_B
    words = []
    for index in range(8):  # 4 uint64 words drawn as 8 uint32 words
        value = pool[index % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        words.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    # little-endian pairs of 32-bit words make the 64-bit state words
    return [words[2 * i] | (words[2 * i + 1] << np.uint64(32)) for i in range(4)]


def _mulhi64(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit product ``a * b``."""
    a_lo, a_hi = a & _LOW32, a >> np.uint64(32)
    b_lo, b_hi = b & _LOW32, b >> np.uint64(32)
    low_low = a_lo * b_lo
    cross_a = a_hi * b_lo
    cross_b = a_lo * b_hi
    carry = (low_low >> np.uint64(32)) + (cross_a & _LOW32) + (cross_b & _LOW32)
    return (
        a_hi * b_hi
        + (cross_a >> np.uint64(32))
        + (cross_b >> np.uint64(32))
        + (carry >> np.uint64(32))
    )


def _add128(a_high, a_low, b_high, b_low):
    low = a_low + b_low
    return a_high + b_high + (low < a_low).astype(np.uint64), low


def _pcg_step(high, low, inc_high, inc_low):
    """One PCG64 LCG step, ``state * MULT + inc`` modulo 2**128."""
    mult_high, mult_low = _PCG_MULT
    product_high = _mulhi64(low, mult_low) + low * mult_high + high * mult_low
    return _add128(product_high, low * mult_low, inc_high, inc_low)


def first_uniform(seeds) -> np.ndarray:
    """``np.random.default_rng(seed).random()`` for every 32-bit seed, bit for bit.

    Reproduces numpy's path in uint64 array arithmetic: SeedSequence entropy
    mixing, ``generate_state(4, uint64)``, PCG64 seeding and one XSL-RR
    step, then the 53-bit double.
    """
    seeds = np.asarray(seeds)
    if seeds.size and (seeds.min() < 0 or seeds.max() > _MASK32):
        raise ValueError("first_uniform takes seeds in [0, 2**32)")
    with np.errstate(over="ignore"):
        state0, state1, seq0, seq1 = _pcg_state(seeds.astype(np.uint32))
        # pcg64_srandom_r: inc = (seq << 1) | 1; state = 0; step (state is
        # now inc); state += initstate; step
        inc_high = (seq0 << np.uint64(1)) | (seq1 >> np.uint64(63))
        inc_low = (seq1 << np.uint64(1)) | np.uint64(1)
        high, low = _add128(inc_high, inc_low, state0, state1)
        high, low = _pcg_step(high, low, inc_high, inc_low)
        # the first draw: one more step, then the XSL-RR output
        high, low = _pcg_step(high, low, inc_high, inc_low)
        value = high ^ low
        rotation = high >> np.uint64(58)
        output = (value >> rotation) | (value << ((np.uint64(64) - rotation) & np.uint64(63)))
    return (output >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


class RandomState:
    """A thin, seedable wrapper around :class:`numpy.random.Generator`.

    The wrapper exists so that library code never touches global numpy state
    and so that child RNGs can be spawned with meaningful labels.  The
    generator is built on the first draw: a state that only derives
    ``child`` seeds never builds one.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def child(self, *labels: object) -> "RandomState":
        """Return a new :class:`RandomState` derived from this one."""
        return RandomState(derive_seed(self.seed, *labels))

    @functools.cached_property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator."""
        return np.random.default_rng(self.seed)

    # -- convenience proxies -------------------------------------------------
    def random(self) -> float:
        return float(self.generator.random())

    def integers(self, low: int, high: int | None = None) -> int:
        return int(self.generator.integers(low, high))

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self.generator.uniform(low, high))

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self.generator.normal(loc, scale, size)

    def choice(self, seq, size=None, replace: bool = True, p=None):
        return self.generator.choice(seq, size=size, replace=replace, p=p)

    def sample(self, seq, k: int) -> list:
        """Sample ``k`` distinct items from ``seq`` (like :func:`random.sample`)."""
        seq = list(seq)
        if k > len(seq):
            raise ValueError(f"cannot sample {k} items from a sequence of {len(seq)}")
        idx = self.generator.choice(len(seq), size=k, replace=False)
        return [seq[int(i)] for i in idx]

    def shuffle(self, seq: list) -> list:
        """Return a shuffled copy of ``seq`` (the input is not modified)."""
        out = list(seq)
        self.generator.shuffle(out)
        return out
