"""Differential tests: bulk-seeded streams against ``SeedSequence``.

:func:`repro.rng.keyed_states` derives the PCG64 seed words of
``SeedSequence(entropy, spawn_key=base + key)`` for a whole array of
keys without building a ``SeedSequence`` per key.  Checked against the
installed numpy: the state words, and the first scalar ``integers``
and ``random(n)`` draws of :func:`repro.rng.keyed_generators`.

Covered: entropy 0, 2**32 - 1 and 2**32, integers over 128 bits, list
entropy; base keys ``()``, ``(0,)`` and ones holding an integer of
2**32 or more; key words at and near 2**32 - 1.  A key word that does
not fit in 32 bits must raise.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import keyed_generators, keyed_states

SETTINGS = settings(
    max_examples=max(5, settings.default.max_examples // 4), deadline=None
)

WORD = st.one_of(
    st.sampled_from([0, 1, 2**31, 2**32 - 2, 2**32 - 1]),
    st.integers(0, 2**32 - 1),
)
ENTROPY = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32]),
    st.integers(0, 2**64),
    st.integers(2**128, 2**200),
    st.lists(st.integers(0, 2**70), min_size=1, max_size=5),
)
BASE_KEY = st.one_of(
    st.sampled_from([(), (0,)]),
    st.lists(st.integers(0, 2**40), max_size=3).map(tuple),
    st.tuples(st.integers(0, 2**16), st.integers(2**32, 2**96)),
)
KEYS = st.integers(1, 2).flatmap(
    lambda width: st.lists(
        st.lists(WORD, min_size=width, max_size=width), min_size=1, max_size=6
    )
)


def _reference(entropy, base_key, key):
    return np.random.SeedSequence(
        entropy, spawn_key=tuple(base_key) + tuple(int(w) for w in key)
    )


@given(entropy=ENTROPY, base_key=BASE_KEY, keys=KEYS)
@SETTINGS
def test_state_words_match_seed_sequence(entropy, base_key, keys):
    states = keyed_states(entropy, base_key, np.asarray(keys, dtype=np.int64))
    assert states.dtype == np.uint64
    assert states.shape == (len(keys), 4)
    for row, key in zip(states, keys):
        want = _reference(entropy, base_key, key).generate_state(4, np.uint64)
        assert row.tobytes() == want.tobytes()


@given(
    entropy=ENTROPY,
    base_key=BASE_KEY,
    keys=KEYS,
    high=st.integers(1, 2**40),
    size=st.integers(0, 9),
)
@SETTINGS
def test_first_draws_match_default_rng(entropy, base_key, keys, high, size):
    ours = keyed_generators(entropy, base_key, np.asarray(keys, np.int64))
    for stream, key in zip(ours, keys):
        theirs = np.random.default_rng(_reference(entropy, base_key, key))
        assert stream.integers(0, high) == theirs.integers(0, high)
        assert stream.random(size).tobytes() == theirs.random(size).tobytes()
        assert stream.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("word", [2**32, 2**40, -1])
def test_key_words_past_32_bits_raise(word):
    with pytest.raises(ValueError, match="32 bits"):
        keyed_states(7, (0,), np.array([[0, 1], [3, word]], dtype=np.int64))


@pytest.mark.parametrize("keys", [np.array([0, 1]), np.zeros((2, 0), int)])
def test_keys_must_be_a_matrix_with_columns(keys):
    with pytest.raises(ValueError, match=r"\(N, k\)"):
        keyed_states(7, (), keys)
