"""The random-word layout that the lockstep search decodes in bulk.

brute_force_cross_check gives trial i the generator random.Random(seed *
1_000_003 + i), shuffles the slot targets with it, and then draws the
trial's coordinates as one getrandbits(32 * W) block, which numpy decodes
the way randint(-B, B) consumes words. These tests check that contract in
pure Python against shuffle and randint themselves. They need neither numpy
nor pytest, so they also run on an interpreter without either:

    PYTHONPATH=src python tests/test_search_stream.py
"""

import random

from ruledmin.existence import (
    SEARCH_COORD_BOUND,
    SEARCH_SAMPLES_PER_SLOT,
    _block_words,
    _trial_stream,
)

B = SEARCH_COORD_BOUND

# (positive slots, negative slots, n)
SHAPES = ((1, 0, 3), (2, 1, 4), (0, 3, 5), (3, 3, 8))


def _decode(block: bytes) -> list[int]:
    """randint(-B, B) values from little-endian 32-bit words, one word at a time."""
    span = 2 * B + 1
    shift = 32 - span.bit_length()
    values = []
    for i in range(0, len(block), 4):
        top = int.from_bytes(block[i : i + 4], "little") >> shift
        if top < span:
            values.append(top - B)
    return values


def test_block_decoding_reproduces_shuffle_then_randint():
    rng = random.Random()
    reseed = super(random.Random, rng).seed
    for npos, nneg, n in SHAPES:
        template = [1] * npos + [-1] * nneg
        nwords = _block_words((npos + nneg) * SEARCH_SAMPLES_PER_SLOT * n)
        for seed in (0, 11, -4):
            for trial in range(70):
                targets, block = _trial_stream(rng, reseed, template, seed, trial, nwords)
                coords = _decode(block)
                ref = random.Random(seed * 1_000_003 + trial)
                expected_targets = template.copy()
                ref.shuffle(expected_targets)
                assert targets == expected_targets, (seed, trial)
                assert coords == [ref.randint(-B, B) for _ in coords], (seed, trial)


def test_a_longer_block_extends_the_same_stream():
    # a trial that runs past its block redraws a longer one from its seed
    rng = random.Random()
    reseed = super(random.Random, rng).seed
    template = [1, -1, -1]
    for trial in range(50):
        _, short = _trial_stream(rng, reseed, template, 3, trial, 40)
        _, long = _trial_stream(rng, reseed, template, 3, trial, 80)
        assert long[: len(short)] == short


if __name__ == "__main__":
    import sys

    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
    print(sys.version.split()[0], "numpy loaded:", "numpy" in sys.modules)
