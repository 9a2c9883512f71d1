"""Property tests: ``synth_env`` spends the Mersenne-Twister words
``rng.choices`` would, so every later draw of a workload is unchanged.

The reference draws one ``random()`` (two 32-bit words) per character;
the library draws ``getrandbits(64 * n)`` per value. Run on every
interpreter of the CI matrix, this pins that the two consume the same
words there."""

import random

from hypothesis import given, strategies as st

from repro.units import KB
from repro.workloads.base import _ENV_BASE, synth_env
from tests.oracles import reference_synth_env

ALPHABET = set("abcdefghijklmnop/:._-")
BASE_BYTES = sum(len(p) + 1 for p in _ENV_BASE)

# 0, below the base environment, around the 1 KB spill threshold, and
# up to the 6 KB the workloads draw.
targets = st.one_of(
    st.just(0),
    st.integers(1, BASE_BYTES),
    st.integers(KB - 128, KB + 128),
    st.integers(6 * KB - 256, 6 * KB + 256),
)


def entries(env: str) -> list[tuple[str, int]]:
    """(name, value length) of each ``NAME=value`` line."""
    pairs = (line.partition("=") for line in env.split("\n"))
    return [(name, len(value)) for name, _, value in pairs]


@given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(targets, min_size=1, max_size=4))
def test_same_words_same_shape(seed, sizes):
    fast, reference = random.Random(seed), random.Random(seed)
    for target in sizes:
        got, want = synth_env(fast, target), reference_synth_env(reference, target)
        assert fast.getstate() == reference.getstate()
        assert len(got) == len(want) == len(got.encode("utf-8"))
        assert entries(got) == entries(want)
        assert got.startswith("\n".join(_ENV_BASE))
        for line in got.split("\n")[len(_ENV_BASE):]:
            assert set(line.partition("=")[2]) <= ALPHABET
    # The next draw of the caller is the same on both streams.
    assert fast.random() == reference.random()
