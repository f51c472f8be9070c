"""Random-number-generator plumbing shared by the whole package.

Every stochastic routine in :mod:`repro` accepts a ``seed`` argument that
may be ``None`` (fresh entropy), an integer, or an already-constructed
:class:`numpy.random.Generator`.  :func:`resolve_rng` normalizes all three
into a ``Generator`` so call sites never have to care which form they got.

Keeping this in one module guarantees deterministic, reproducible runs:
passing the same integer seed to any public entry point replays the same
stream of random numbers.
"""

from __future__ import annotations

import functools

import numpy as np

#: Union of everything accepted where randomness is configurable.
SeedLike = "int | np.random.Generator | np.random.SeedSequence | None"


def resolve_rng(seed=None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` for OS entropy, an ``int`` or ``SeedSequence`` for a
        deterministic stream, or an existing ``Generator`` which is
        returned unchanged (so that callers can thread one generator
        through a pipeline of sub-computations).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def as_seed_sequence(seed=None) -> np.random.SeedSequence:
    """Normalize ``seed`` into a :class:`numpy.random.SeedSequence`.

    ``SeedSequence`` is the form parallel engines need: its
    ``(entropy, spawn_key)`` pair is cheap to ship to worker processes
    and spawning children is deterministic.  A ``Generator`` input is
    reduced to fresh entropy drawn from its stream (same convention as
    :func:`spawn_rngs`); anything else is passed to ``SeedSequence``
    directly.
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        return np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    return np.random.SeedSequence(seed)


def spawn_rngs(seed, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent generators from ``seed``.

    Useful when a computation fans out into parallel sub-tasks that must
    not share a random stream (e.g. per-index-point seed-set extraction).
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of rngs: {n}")
    if isinstance(seed, np.random.Generator):
        # Child streams are jumps of the parent's bit generator state.
        seq = np.random.SeedSequence(seed.integers(0, 2**63 - 1))
    elif isinstance(seed, np.random.SeedSequence):
        seq = seed
    else:
        seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


def _uint32_words(value) -> list[int]:
    """``value`` as ``SeedSequence`` reads entropy and spawn keys: an
    integer as its little-endian 32-bit words (``0`` is one word), a
    sequence as its items' words in order."""
    if isinstance(value, (int, np.integer)):
        value = int(value)
        if value < 0:
            raise ValueError(f"expected a non-negative integer, got {value}")
        words = [value & _MASK32]
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
        return words
    return [word for item in value for word in _uint32_words(item)]


def _hashmix(value, const: int) -> tuple:
    """SeedSequence's ``hashmix`` on 32-bit words (Python ints or
    ``uint32`` arrays); returns the mixed word and the advanced hash
    constant."""
    value = value ^ const
    const = (const * _MULT_A) & _MASK32
    value = (value * const) & _MASK32
    return value ^ (value >> _XSHIFT), const


def _mix(x, y):
    """SeedSequence's ``mix`` of two 32-bit words (Python ints or
    ``uint32`` arrays)."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


@functools.lru_cache(maxsize=16)
def _hash_steps(const: int, multiplier: int, count: int):
    """The XOR and multiply operands of ``count`` successive hash steps
    from ``const``, as read-only ``(count, 1)`` ``uint32`` columns, and
    the constant after them."""
    xors, mults = [], []
    for _ in range(count):
        xors.append(const)
        const = (const * multiplier) & _MASK32
        mults.append(const)
    xors = np.array(xors, dtype=np.uint32)[:, None]
    mults = np.array(mults, dtype=np.uint32)[:, None]
    xors.flags.writeable = mults.flags.writeable = False
    return xors, mults, const


@functools.lru_cache(maxsize=16)
def _prefix_pool(prefix: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """SeedSequence's ``mix_entropy`` over the words every key shares:
    seed the pool, mix it with itself, then mix in the words past the
    pool size.  Returns the pool and the hash constant after it."""
    const = _INIT_A
    pool = []
    for word in prefix[:_POOL_SIZE]:
        mixed, const = _hashmix(word, const)
        pool.append(mixed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], mixed)
    for word in prefix[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            mixed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], mixed)
    return tuple(pool), const


def keyed_states(entropy, base_key, keys) -> np.ndarray:
    """PCG64 seed words of ``SeedSequence(entropy, spawn_key=base_key +
    tuple(row))`` for every row of ``keys``, shape ``(N, 4)`` ``uint64``.

    Row ``i`` equals ``SeedSequence(...).generate_state(4, np.uint64)``
    for that row's key, bit for bit, but no ``SeedSequence`` is built
    per row.  The entropy and base-key words are mixed into the pool
    once; each key column then mixes into the four pool words as one
    ``(4, N)`` step of SeedSequence's own ``hashmix`` and ``mix`` (the
    four updates of one word are independent), and the state words are
    drawn from the pool the same way.  ``keys`` is an ``(N, k)``
    integer array, ``k >= 1``, whose entries must fit in 32 bits (a
    larger entry is more than one word to ``SeedSequence``, so the
    columns would not line up).
    """
    keys = np.asarray(keys)
    if keys.ndim != 2 or keys.shape[1] < 1 or keys.dtype.kind not in "iu":
        raise ValueError(
            f"keys must be an (N, k) integer array with k >= 1, got "
            f"shape {keys.shape}"
        )
    if keys.size and (keys.min() < 0 or keys.max() > _MASK32):
        raise ValueError("every key must fit in 32 bits")
    # A spawned sequence pads its run entropy to the pool size.
    prefix = _uint32_words(entropy)
    prefix += [0] * (_POOL_SIZE - len(prefix)) + _uint32_words(base_key)
    pool, const = _prefix_pool(tuple(prefix))
    pool = np.array(pool, dtype=np.uint32)[:, None]
    for column in keys.astype(np.uint32).T:
        xors, mults, const = _hash_steps(const, _MULT_A, _POOL_SIZE)
        mixed = (column ^ xors) * mults
        pool = _mix(pool, mixed ^ (mixed >> _XSHIFT))
    # generate_state(4, uint64): eight words cycled from the pool.
    xors, mults, _ = _hash_steps(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    words = (np.tile(pool, (2, 1)) ^ xors) * mults
    words ^= words >> _XSHIFT
    state = np.ascontiguousarray(words.T, dtype="<u4")
    return state.view("<u8").astype(np.uint64)


class _FixedState(np.random.bit_generator.ISeedSequence):
    """Hands a bit generator seed words already derived."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != self._words.size or np.dtype(dtype) != self._words.dtype:
            raise ValueError("a fixed state gives only the words it holds")
        return self._words


def keyed_generators(entropy, base_key, keys) -> list[np.random.Generator]:
    """One generator per row of ``keys``, each drawing exactly what
    ``np.random.default_rng(SeedSequence(entropy, spawn_key=base_key +
    tuple(row)))`` draws (see :func:`keyed_states`)."""
    return [
        np.random.Generator(np.random.PCG64(_FixedState(words)))
        for words in keyed_states(entropy, base_key, keys)
    ]
