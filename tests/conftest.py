"""Shared helpers: point domains and the Theorem 1.5 generator words."""

import numpy as np

from tamexp import tame


def nonzero_codes(q, n):
    return np.arange(1, q**n, dtype=np.int64)


def thm15_words(variant):
    if variant == "i":
        return 3, [tame.Word.of(tame.CoordCycle()),
                   tame.Word.of(tame.Transvection(1, 2, 1, 1)),
                   tame.Word.of(tame.Transvection(1, 2, 2, 1))]
    return 7, [tame.Word.of(tame.CoordCycle()),
               tame.Word.of(tame.Transvection(1, 2, 1, 1),
                            tame.Transvection(4, 6, 2, 1))]


def all_points(q, n):
    from itertools import product
    return list(product(range(q), repeat=n))
