"""The counter hash that the lockstep search draws its words from.

brute_force_cross_check hashes every word of a chunk of trials at once in
numpy uint64 arithmetic (existence._words). Word j of trial i must depend on
(seed mod 2**64, i, j) alone and equal the pure-Python copy of the hash in
tests/_oracles.split_mix_words, which the per-trial reference loop reads.
"""

import itertools

import numpy as np

from _oracles import split_mix_words
from ruledmin.existence import _words

SEEDS = (0, 5, -4, 2**64 + 3)
TRIALS = (0, 1, 127, 10**6)


def test_words_equal_the_pure_python_hash():
    for seed in SEEDS:
        for trial in TRIALS:
            got = _words(np, seed, trial, trial + 1, 300)
            assert got.dtype == np.uint64 and got.shape == (1, 300)
            assert got[0].tolist() == list(itertools.islice(split_mix_words(seed, trial), 300)), (seed, trial)


def test_a_chunk_holds_each_trials_own_words():
    for seed in SEEDS:
        chunk = _words(np, seed, 120, 130, 40)
        for row, trial in enumerate(range(120, 130)):
            assert (chunk[row] == _words(np, seed, trial, trial + 1, 40)[0]).all(), (seed, trial)


def test_seeds_equal_mod_2_to_the_64_share_their_words():
    assert (_words(np, 3, 0, 4, 20) == _words(np, 2**64 + 3, 0, 4, 20)).all()
    assert (_words(np, -4, 0, 4, 20) == _words(np, 2**64 - 4, 0, 4, 20)).all()
