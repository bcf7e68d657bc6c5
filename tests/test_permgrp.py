import math
import random

import numpy as np
import pytest

from tamexp import ff, permgrp as pg, tame
from tamexp.errors import BudgetExceeded
from tamexp.orbits import word_code_perm

from conftest import nonzero_codes, thm15_words


def test_perm_basics():
    p = pg.perm_from_cycles(5, [[0, 1, 2]])
    q = pg.perm_from_cycles(5, [[3, 4]])
    assert pg.parity(pg.identity_perm(4)) == "even"
    assert pg.parity(q) == "odd"
    assert pg.parity(p) == "even"
    assert pg.perm_order(pg.compose(p, q)) == 6
    assert pg.is_identity(pg.compose(p, pg.inverse(p)))
    # compose applies left argument first
    r = pg.compose(p, q)
    assert r[0] == q[p[0]]


def test_schreier_sims_small():
    assert pg.schreier_sims([pg.identity_perm(6)]).order == 1
    g1 = pg.perm_from_cycles(4, [[0, 1, 2]])
    g2 = pg.perm_from_cycles(4, [[0, 1], [2, 3]])
    chain = pg.schreier_sims([g1, g2])
    assert chain.order == 12  # Alt(4)
    s5 = pg.schreier_sims([pg.perm_from_cycles(5, [[0, 1]]),
                           pg.perm_from_cycles(5, [[0, 1, 2, 3, 4]])])
    assert s5.order == 120


def test_sift_random_products():
    g1 = pg.perm_from_cycles(4, [[0, 1, 2]])
    g2 = pg.perm_from_cycles(4, [[0, 1], [2, 3]])
    chain = pg.schreier_sims([g1, g2])
    rng = random.Random(3)
    w = pg.identity_perm(4)
    for _ in range(50):
        w = pg.compose(w, rng.choice([g1, g2]))
    assert chain.contains(w)
    assert not chain.contains(pg.perm_from_cycles(4, [[0, 1]]))


def test_three_cycle_extraction():
    g = pg.perm_from_cycles(12, [[0, 1, 2], [3, 4], [5, 6, 7, 8, 9]])
    tri = pg._extract_three_cycle(g)
    assert tri is not None and sorted(tri) == [0, 1, 2]
    # two 3-cycles: rejected
    assert pg._extract_three_cycle(
        pg.perm_from_cycles(9, [[0, 1, 2], [3, 4, 5]])) is None
    # another cycle length divisible by 3: rejected
    assert pg._extract_three_cycle(
        pg.perm_from_cycles(10, [[0, 1, 2], [3, 4, 5, 6, 7, 8]])) is None


def test_ladder_commutator_identity():
    # [(u z v), (v w y)] = (u v w), the identity behind ladder extension
    rng = random.Random(0)
    for _ in range(20):
        u, z, v, w, y = rng.sample(range(30), 5)
        s = pg.perm_from_cycles(30, [[u, z, v]])
        sp = pg.perm_from_cycles(30, [[v, w, y]])
        comm = pg.compose(pg.compose(pg.inverse(s), pg.inverse(sp)),
                          pg.compose(s, sp))
        assert np.array_equal(comm, pg.perm_from_cycles(30, [[u, v, w]]))


def test_ladder_matches_dense_on_alt9():
    gens = [pg.perm_from_cycles(9, [[0, 1, 2]]),
            pg.perm_from_cycles(9, [list(range(9))])]
    dense = pg.schreier_sims(gens)
    ladder = pg.try_alt_ladder(gens, seed=2)
    assert ladder is not None
    assert ladder.order == dense.order == math.factorial(9) // 2
    assert all(ladder.contains(g) for g in gens)
    assert not ladder.contains(pg.perm_from_cycles(9, [[0, 1]]))


def test_certify_thm15i_p3():
    F3 = ff.make_field(3, 1)
    n, words = thm15_words("i")
    codes = nonzero_codes(3, 3)
    gens = [word_code_perm(w, codes, F3, 3) for w in words]
    chain = pg.build_chain(gens, seed=1)
    cert = pg.certify_alternating(chain)
    assert cert.verdict == "Alt"
    assert cert.order == math.factorial(26) // 2
    assert pg.transitivity_degree(chain) == 24  # Alt(d) is (d-2)-transitive


def test_certify_proper_sl3():
    F3 = ff.make_field(3, 1)
    params = tame.GroupParams(3, 3, (1, 1, 1))
    words = [tame.Word.of(tame.tau(params, i, 1)) for i in (1, 2, 3)]
    gens = [word_code_perm(w, nonzero_codes(3, 3), F3, 3) for w in words]
    chain = pg.build_chain(gens, seed=1)
    cert = pg.certify_alternating(chain)
    assert cert.verdict == "Proper"
    assert cert.order == 5616  # |SL_3(F_3)|
    assert pg.transitivity_degree(chain) == 1


def test_certify_sym_with_odd_generator():
    gens = [pg.perm_from_cycles(7, [[0, 1]]),
            pg.perm_from_cycles(7, [list(range(7))])]
    chain = pg.build_chain(gens, seed=4)
    cert = pg.certify_alternating(chain)
    assert cert.verdict == "Sym"
    assert cert.order == math.factorial(7)
    assert not cert.all_even


def test_even_parity_of_standard_generators():
    # any standard generator's point action for odd p is even
    for p in (3, 5):
        F = ff.make_field(p, 1)
        params = tame.GroupParams(p, 3, (1, 1, 2))
        words = [tame.Word.of(tame.tau(params, i, 1)) for i in (1, 2, 3)]
        for w in words:
            g = word_code_perm(w, nonzero_codes(p, 3), F, 3)
            assert pg.parity(g) == "even"


def test_chain_order_divides_factorial_and_gen_orders():
    gens = [pg.perm_from_cycles(8, [[0, 1, 2, 3, 4]]),
            pg.perm_from_cycles(8, [[4, 5, 6]])]
    chain = pg.schreier_sims(gens)
    assert math.factorial(8) % chain.order == 0
    for g in gens:
        assert chain.order % pg.perm_order(g) == 0


def test_schreier_sims_budget():
    gens = [pg.perm_from_cycles(40, [[0, 1, 2]]),
            pg.perm_from_cycles(40, [list(range(1, 40))])]
    with pytest.raises(BudgetExceeded):
        pg.schreier_sims(gens, max_sifts=10)


def test_ladder_strong_generators_sift():
    gens = [pg.perm_from_cycles(11, [[0, 1, 2]]),
            pg.perm_from_cycles(11, [list(range(11))])]
    chain = pg.try_alt_ladder(gens, seed=6)
    assert chain is not None and chain.strategy == "cycles"
    for a, b, c in chain.cycles[:5] + chain.cycles[-5:]:
        assert chain.contains(pg.perm_from_cycles(11, [[a, b, c]]))
