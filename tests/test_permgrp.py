import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from tamexp import ff, permgrp as pg, tame
from tamexp.errors import BudgetExceeded
from tamexp.orbits import word_code_perms

from conftest import nonzero_codes, str_unlimited, thm15_words


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


def _cycle_cases():
    rng = random.Random(11)
    cases = [list(range(1)), list(range(9)),  # identities: fixed points only
             list(range(1, 200)) + [0]]  # a single 200-cycle
    for _ in range(80):
        d = rng.randint(1, 200)
        perm = list(range(d))
        moved = rng.sample(range(d), rng.randint(0, d))  # the rest stay fixed
        for x, y in zip(moved, rng.sample(moved, len(moved))):
            perm[x] = y
        cases.append(perm)
    return cases


def test_cycle_pass_matches_sympy():
    for perm in _cycle_cases():
        g = np.array(perm, dtype=np.int64)
        sp = Permutation(perm)
        assert pg.cycle_lengths(g) == sorted(
            ((len(c), min(c)) for c in sp.cyclic_form), key=lambda lc: lc[1])
        assert pg.parity(g) == ("even" if sp.is_even else "odd")
        assert pg.perm_order(g) == sp.order()


def test_parity_memory_is_a_few_arrays():
    # 7-cycles on about 10^6 points, as the thm15 ii generators are: parity
    # counts the cycle minima, with no Python object per cycle
    d = 7 * 142857
    g = np.roll(np.arange(d, dtype=np.int32).reshape(-1, 7), -1, axis=1)
    g = g.ravel()
    pg.parity(g[:7])  # keeps first-call imports out of the trace
    tracemalloc.start()
    try:
        assert pg.parity(g) == "even"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # six int32 arrays of d points, counting the int64 indices of take
    assert peak <= 7 * 4 * d, peak


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
    tri, m = pg._extract_three_cycle(g)
    assert sorted(tri) == [0, 1, 2] and m == 10 == pg.perm_order(g) // 3
    # two 3-cycles: rejected
    assert pg._extract_three_cycle(
        pg.perm_from_cycles(9, [[0, 1, 2], [3, 4, 5]])) is None
    # another cycle length divisible by 3: rejected
    assert pg._extract_three_cycle(
        pg.perm_from_cycles(10, [[0, 1, 2], [3, 4, 5, 6, 7, 8]])) is None


def _one_three_cycle_by_cycles(g):
    return sum(length == 3 for length, _ in pg.cycle_lengths(g)) == 1


@pytest.mark.parametrize("cycles", [
    [], [[0, 1, 2]], [[0, 1, 2], [3, 4, 5]], [[0, 1, 2], [3, 4, 5, 6, 7, 8]],
    [[0, 1, 2], [3, 4], [5, 6, 7, 8, 9]], [[0, 1], [2, 3]], [[0, 1, 2, 3]]],
    ids=["identity", "3", "3+3", "3+6", "3+2+5", "2+2", "4"])
def test_three_cycle_filter_on_hand_built_perms(cycles):
    g = pg.perm_from_cycles(12, cycles)
    assert pg._one_three_cycle(g) == _one_three_cycle_by_cycles(g)
    if not pg._one_three_cycle(g):
        assert pg._extract_three_cycle(g) is None


def test_three_cycle_filter_on_random_perms():
    rng = random.Random(11)
    passed = found = 0
    for _ in range(400):
        g = np.array(rng.sample(range(30), 30), dtype=np.int64)
        ok = pg._one_three_cycle(g)
        assert ok == _one_three_cycle_by_cycles(g)
        hit = pg._extract_three_cycle(g)
        assert ok or hit is None
        if hit:
            triple, m = hit
            assert m == pg.perm_order(g) // 3
            assert np.array_equal(pg._power(g, m),
                                  pg.perm_from_cycles(30, [list(triple)]))
        passed += ok
        found += hit is not None
    assert 0 < found < passed < 400  # both rejection paths are exercised


def test_ladder_matches_dense_on_alt9():
    gens = [pg.perm_from_cycles(9, [[0, 1, 2]]),
            pg.perm_from_cycles(9, [list(range(9))])]
    dense = pg.schreier_sims(gens)
    ladder = pg.try_alt_ladder(gens, seed=2)
    assert ladder is not None
    assert ladder.order == dense.order == math.factorial(9) // 2
    assert all(ladder.contains(g) for g in gens)
    assert not ladder.contains(pg.perm_from_cycles(9, [[0, 1]]))


def test_ladder_matches_dense_on_sym9():
    # an odd generator makes the group Sym(9), and the ladder's chain says so
    gens = [pg.perm_from_cycles(9, [[0, 1, 2]]),
            pg.perm_from_cycles(9, [list(range(9))]),
            pg.perm_from_cycles(9, [[0, 1]])]
    dense = pg.schreier_sims(gens)
    ladder = pg.try_alt_ladder(gens, seed=2)
    assert ladder.strategy == "cycles"
    assert ladder.order == dense.order == math.prod(ladder.orbit_sizes) \
        == math.prod(dense.orbit_sizes) == math.factorial(9)
    assert pg.transitivity_degree(ladder) == pg.transitivity_degree(dense) == 8
    for chain in (ladder, dense):
        assert all(chain.contains(g) for g in gens)
        cert = pg.certify_alternating(chain)
        assert (cert.verdict, cert.order) == ("Sym", "362880")


def _decimal_product_cases():
    rng = random.Random(7)
    run = pg.PRODUCT_RUN
    cases = [[], [1], [7], [823542], list(range(9, 2, -1))]
    for length in (run - 1, run, run + 1, 2 * run, 2 * run + 1, 3 * run,
                   4 * run - 1, 4 * run):
        cases.append([rng.randint(2, 10**6) for _ in range(length)])
    for _ in range(40):
        cases.append([rng.randint(1, 2**rng.randint(1, 40))
                      for _ in range(rng.randint(0, 9 * run))])
    cases.append(list(range(4912, 2, -1)))
    return cases


def test_decimal_product_matches_str_of_prod():
    for factors in _decimal_product_cases():
        assert pg._decimal_product(factors) == str_unlimited(
            math.prod(factors)), len(factors)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str limit before Python 3.11")
def test_decimal_product_under_the_smallest_digit_limit():
    expected = [str_unlimited(math.prod(f)) for f in _decimal_product_cases()]
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the least nonzero limit allowed
    try:
        got = [pg._decimal_product(f) for f in _decimal_product_cases()]
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(before)
    assert got == expected
    assert max(map(len, got)) > 640


def _sift_cycles(base, g):
    """The level-by-level sift through the chain of Alt(d) on `base`: at
    level k, g <- g * (b_k, y, z)^-1 with y = g(b_k) and z the last base
    point other than y."""
    glist = g.tolist()
    ginv = [0] * len(glist)
    for x, y in enumerate(glist):
        ginv[y] = x
    for bk in base[:-2]:
        y = glist[bk]
        if y == bk:
            continue
        z = base[-1] if y != base[-1] else base[-2]
        xb, xy, xz = ginv[bk], ginv[y], ginv[z]
        glist[xy], glist[xz], glist[xb] = bk, y, z
        ginv[bk], ginv[y], ginv[z] = xy, xz, xb
    return np.array(glist, dtype=np.int32)


@pytest.mark.parametrize("odd", [False, True], ids=["alt", "sym"])
def test_cycles_residue_matches_the_level_sift(odd):
    d = 13
    gens = [pg.perm_from_cycles(d, [[0, 1, 2]]),
            pg.perm_from_cycles(d, [list(range(d))])]
    gens += [pg.perm_from_cycles(d, [[0, 1]])] * odd
    chain = pg.try_alt_ladder(gens, seed=3)
    assert chain.strategy == "cycles"
    assert chain.orbit_sizes[-1] == (2 if odd else 3)
    last_two = pg.perm_from_cycles(d, [chain.base[-2:]])
    rng = np.random.default_rng(5)
    parities = set()
    for _ in range(200):
        g = rng.permutation(d)
        parities.add(pg.parity(g))
        want = _sift_cycles(chain.base, g)
        got = chain.sift(g)
        if odd:
            # Sym(d)'s last level holds the transposition the Alt levels
            # leave over
            assert pg.is_identity(got)
            assert pg.is_identity(want) or np.array_equal(want, last_two)
        else:
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert chain.contains(g) == (odd or pg.parity(g) == "even")
    assert parities == {"even", "odd"}


def test_certify_thm15i_p3():
    F3 = ff.make_field(3, 1)
    n, words = thm15_words("i")
    codes = nonzero_codes(3, 3)
    gens = word_code_perms(words, codes, F3, 3)
    chain = pg.build_chain(gens, seed=1)
    cert = pg.certify_alternating(chain)
    assert cert.verdict == "Alt"
    assert cert.order == str(math.factorial(26) // 2)
    assert pg.transitivity_degree(chain) == 24  # Alt(d) is (d-2)-transitive


def test_certify_proper_sl3():
    F3 = ff.make_field(3, 1)
    params = tame.GroupParams(3, 3, (1, 1, 1))
    words = tame.standard_generators(params)
    gens = word_code_perms(words, nonzero_codes(3, 3), F3, 3)
    chain = pg.build_chain(gens, seed=1)
    cert = pg.certify_alternating(chain)
    assert cert.verdict == "Proper"
    assert cert.order == "5616"  # |SL_3(F_3)|
    assert pg.transitivity_degree(chain) == 1


def _sympy_order(gens):
    return PermutationGroup([Permutation([int(x) for x in g])
                             for g in gens]).order()


@pytest.mark.parametrize("p, order", [(3, 5616), (5, 372000)])
def test_schreier_sims_order_matches_sympy(p, order):
    # |SL_3(F_p)| on the nonzero points of F_p^3
    F = ff.make_field(p, 1)
    params = tame.GroupParams(p, 3, (1, 1, 1))
    words = tame.standard_generators(params)
    gens = word_code_perms(words, nonzero_codes(p, 3), F, 3)
    assert pg.schreier_sims(gens).order == order == _sympy_order(gens)


def test_ladder_order_matches_sympy():
    F3 = ff.make_field(3, 1)
    n, words = thm15_words("i")
    gens = word_code_perms(words, nonzero_codes(3, 3), F3, 3)
    chain = pg.try_alt_ladder(gens, seed=1)
    assert chain.strategy == "cycles"
    assert chain.order == math.factorial(26) // 2 == _sympy_order(gens)


@pytest.mark.parametrize("odd, verdict, order", [
    (False, "Alt", str(math.factorial(9) // 2)),
    (True, "Sym", str(math.factorial(9)))])
def test_cycles_certificate_takes_order_from_factorial(odd, verdict, order,
                                                        monkeypatch):
    # the certificate forms no integer d! or d!/2: it never reads the
    # chain's integer order, and ints multiply only short runs of orbit
    # sizes before the decimal product tree
    gens = [pg.perm_from_cycles(9, [[0, 1, 2]]),
            pg.perm_from_cycles(9, [list(range(9))])]
    gens += [pg.perm_from_cycles(9, [[0, 1]])] * odd
    chain = pg.try_alt_ladder(gens, seed=2)
    assert chain.strategy == "cycles" and not hasattr(pg, "factorial")
    monkeypatch.setattr(pg.StabChain, "order", property(
        lambda self: pytest.fail("the integer order was formed")))
    runs = []
    monkeypatch.setattr(pg, "prod",
                        lambda sizes: runs.append(len(sizes)) or math.prod(sizes))
    monkeypatch.setattr(pg, "PRODUCT_RUN", 3)
    cert = pg.certify_alternating(chain)
    assert runs == [3, 3, 1 + odd]
    assert (cert.verdict, cert.order) == (verdict, order)
    assert cert.all_even == (not odd)


def test_certify_sym_with_odd_generator():
    gens = [pg.perm_from_cycles(7, [[0, 1]]),
            pg.perm_from_cycles(7, [list(range(7))])]
    chain = pg.build_chain(gens, seed=4)
    cert = pg.certify_alternating(chain)
    assert cert.verdict == "Sym"
    assert cert.order == str(math.factorial(7))
    assert not cert.all_even


def test_even_parity_of_standard_generators():
    # any standard generator's point action for odd p is even
    for p in (3, 5):
        F = ff.make_field(p, 1)
        params = tame.GroupParams(p, 3, (1, 1, 2))
        words = tame.standard_generators(params)
        for g in word_code_perms(words, nonzero_codes(p, 3), F, 3):
            assert pg.parity(g) == "even"


def test_chain_order_divides_factorial_and_gen_orders():
    gens = [pg.perm_from_cycles(8, [[0, 1, 2, 3, 4]]),
            pg.perm_from_cycles(8, [[4, 5, 6]])]
    chain = pg.schreier_sims(gens)
    assert math.factorial(8) % chain.order == 0
    for g in gens:
        assert chain.order % pg.perm_order(g) == 0


def _reference_schreier_sims(gens):
    """The plain loop: sift every Schreier generator u_y g u_{g(y)}^-1 as
    a permutation, forming each u_y by inverting its stored row.  Returns
    (base, orbit sizes, strong generators per level, generators sifted)."""
    gens = [np.asarray(g, dtype=np.int32) for g in gens]
    levels, sifted = [], 0

    def gens_at(k):
        return [g for lv in levels[k:] for g in lv.gens]

    def add_gen(g):
        j = next((k for k, lv in enumerate(levels) if g[lv.point] != lv.point),
                 len(levels))
        if j == len(levels):
            moved = np.flatnonzero(g != np.arange(len(g)))
            levels.append(pg._DenseLevel(int(moved[0]), []))
        levels[j].gens.append(np.asarray(g, dtype=np.int32))
        for k, lv in enumerate(levels[:j + 1]):
            lv.index, lv.inv, _ = pg._inverse_transversal(lv.point, gens_at(k))
        return j

    def unsifted(k):
        nonlocal sifted
        lv = levels[k]
        for row in lv.inv:
            uy = pg.inverse(row)
            y = uy[lv.point]
            for g in gens_at(k):
                sifted += 1
                s = pg.compose(pg.compose(uy, g), lv.inv[lv.index[g[y]]])
                residue = pg._sift_dense(levels, s, k + 1)
                if not pg.is_identity(residue):
                    return residue
        return None

    for g in gens:
        if not pg.is_identity(g):
            add_gen(g)
    k = len(levels) - 1
    while k >= 0:
        residue = unsifted(k)
        k = k - 1 if residue is None else add_gen(residue)
    return ([lv.point for lv in levels], [len(lv.inv) for lv in levels],
            [lv.gens for lv in levels], sifted)


def _sl3_on_vectors(p):
    F = ff.make_field(p, 1)
    params = tame.GroupParams(p, 3, (1, 1, 1))
    return word_code_perms(tame.standard_generators(params),
                           nonzero_codes(p, 3), F, 3)


_IMPRIMITIVE = [pg.perm_from_cycles(6, [[0, 1, 2]]),
                pg.perm_from_cycles(6, [[3, 4, 5]]),
                pg.perm_from_cycles(6, [[0, 3], [1, 4], [2, 5]])]


def _assert_same_chain(gens):
    base, sizes, strong, sifted = _reference_schreier_sims(gens)
    chain = pg.schreier_sims(gens)
    assert chain.base.tolist() == base and chain.orbit_sizes.tolist() == sizes
    assert len(chain.levels) == len(strong)
    for lv, want in zip(chain.levels, strong):
        assert len(lv.gens) == len(want)
        for g, h in zip(lv.gens, want):
            assert g.dtype == h.dtype and np.array_equal(g, h)
    return sifted


@pytest.mark.parametrize("gens", [_sl3_on_vectors(5), _sl3_on_vectors(7),
                                  _IMPRIMITIVE], ids=["sl3-f5", "sl3-f7",
                                                      "imprimitive"])
def test_schreier_sims_matches_the_plain_loop(gens):
    _assert_same_chain(gens)


def test_schreier_sims_matches_the_plain_loop_on_random_groups():
    rng = random.Random(20)
    for _ in range(150):
        _assert_same_chain(_random_generators(rng))


@pytest.mark.parametrize("gens", [_sl3_on_vectors(5), _IMPRIMITIVE],
                         ids=["sl3-f5", "imprimitive"])
def test_schreier_sims_budget_counts_every_schreier_generator(gens):
    # tree edges are skipped unsifted but still count against the budget
    n = _reference_schreier_sims(gens)[3]
    assert pg.schreier_sims(gens, max_sifts=n).order == _sympy_order(gens)
    with pytest.raises(BudgetExceeded):
        pg.schreier_sims(gens, max_sifts=n - 1)


def test_schreier_sims_budget():
    gens = [pg.perm_from_cycles(40, [[0, 1, 2]]),
            pg.perm_from_cycles(40, [list(range(1, 40))])]
    with pytest.raises(BudgetExceeded):
        pg.schreier_sims(gens, max_sifts=10)


@pytest.mark.parametrize("degree, dtype", [(4, np.uint16),
                                           (65536, np.uint16),
                                           (65537, np.int32)])
def test_transversal_rows_widen_past_degree_65536(degree, dtype):
    # Alt(4) on points 0..3, the other points fixed: the same chain at
    # every degree, with rows as narrow as the degree allows
    gens = [pg.perm_from_cycles(degree, [[0, 1, 2]]),
            pg.perm_from_cycles(degree, [[1, 2, 3]])]
    small = pg.schreier_sims([g[:4] for g in gens])
    chain = pg.schreier_sims(gens)
    assert (chain.base.tolist(), chain.orbit_sizes.tolist(), chain.order) == (
        small.base.tolist(), small.orbit_sizes.tolist(), 12)
    for lv, want in zip(chain.levels, small.levels):
        assert lv.inv.dtype == dtype
        assert np.array_equal(lv.inv[:, :4], want.inv)
        assert (lv.inv[:, 4:] == np.arange(4, degree)).all()
    assert chain.contains(gens[0]) and not chain.contains(
        pg.perm_from_cycles(degree, [[0, 1]]))


def test_permutations_are_int32_in_both_chain_strategies():
    # SL_3(F_5) on vectors: a dense chain whose sifts add residues, which
    # leave the uint16 rows in the row dtype; Alt(13): the 3-cycle closure
    gens = [g.astype(np.int64) for g in _sl3_on_vectors(5)]
    dense = pg.schreier_sims(gens)
    level_gens = [g for lv in dense.levels for g in lv.gens]
    assert len(level_gens) > len(gens)  # residues among them
    assert dense.levels[0].inv.dtype == np.uint16
    d = 13
    cycles = pg.try_alt_ladder([pg.perm_from_cycles(d, [[0, 1, 2]]).astype(
        np.int64), np.roll(np.arange(d), -1)], seed=3)
    assert cycles.strategy == "cycles"
    odd = pg.perm_from_cycles(d, [[0, 1]])
    perms = level_gens + dense.gens + cycles.gens + [odd, cycles.sift(odd)]
    assert all(g.dtype == np.int32 for g in perms)


def test_rattle_and_ladder_work_in_int32():
    labels = pg._minimal_block(_IMPRIMITIVE, 0, 1)
    assert labels.dtype == np.int32 and labels.tolist() == [0, 0, 0, 3, 3, 3]
    gens = _sl3_on_vectors(5)
    rattle = pg.Rattle(gens, random.Random(0))
    assert rattle.sample().dtype == np.int32
    assert all(s.dtype == np.int32 for s in rattle.slots + [rattle.accu])


def test_rattle_memory_at_degree_one_million():
    # nine int32 slots (five identities, three generators, the accumulator)
    # plus the stirring temporaries stay below what the nine slots alone
    # would take in int64
    d = 10**6
    rng = np.random.default_rng(0)
    gens = [rng.permutation(d).astype(np.int32) for _ in range(3)]
    tracemalloc.start()
    try:
        sample = pg.Rattle(gens, random.Random(0)).sample()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample.dtype == np.int32
    assert peak < (pg.RATTLE_EXTRA + len(gens) + 1) * 8 * d


def test_schreier_sims_memory_and_rebuilds_on_sl3_f13(monkeypatch):
    # the rows take 2 bytes a point, a level is rebuilt only when its
    # verification starts, and no layer-sized temporary sits beside them
    gens = _sl3_on_vectors(13)
    builds = []
    transversal = pg._inverse_transversal
    monkeypatch.setattr(pg, "_inverse_transversal", lambda point, gens: (
        builds.append(point) or transversal(point, gens)))
    tracemalloc.start()
    try:
        chain = pg.schreier_sims(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chain.order == 13**3 * (13**2 - 1) * (13**3 - 1)
    assert peak <= 1.25 * sum(chain.orbit_sizes) * chain.degree * 2
    assert len(builds) <= 7


@pytest.mark.parametrize("group, verdict, all_even", [
    ("alt26", "Alt", True), ("sym7", "Sym", False), ("sl3-f3", "Proper", True)])
def test_certificate_reads_parity_only_for_proper(group, verdict, all_even,
                                                  monkeypatch):
    # the ladder reads each generator's parity to choose Alt(d) or Sym(d);
    # the certificate reads it again only when the verdict leaves it open
    if group == "alt26":
        n, words = thm15_words("i")
        gens = word_code_perms(words, nonzero_codes(3, n), ff.make_field(3, 1),
                               n)
    elif group == "sym7":
        gens = [pg.perm_from_cycles(7, [[0, 1]]),
                pg.perm_from_cycles(7, [list(range(7))])]
    else:
        gens = _sl3_on_vectors(3)
    parity = pg.parity
    calls = []
    monkeypatch.setattr(pg, "parity", lambda g: calls.append(g) or parity(g))
    chain = pg.build_chain(gens, seed=1)
    in_ladder = len(calls)
    cert = pg.certify_alternating(chain)
    assert (cert.verdict, cert.all_even) == (verdict, all_even)
    assert all_even == all(parity(g) == "even" for g in gens)
    assert len(calls) - in_ladder == (len(gens) if verdict == "Proper" else 0)
    assert len(calls) <= len(gens)


def _list_verdict(chain):
    """The verdict and transitivity degree as read from lists: two list
    comparisons and a Python loop over the orbit sizes."""
    d, sizes = chain.degree, chain.orbit_sizes.tolist()
    verdict = ("Sym" if sizes == list(range(d, 1, -1))
               else "Alt" if sizes == list(range(d, 2, -1)) else "Proper")
    t = 0
    while t < len(sizes) and sizes[t] == d - t:
        t += 1
    return verdict, t


@pytest.mark.parametrize("gens, verdict", [
    ([pg.perm_from_cycles(4, [[0, 1, 2]]),
      pg.perm_from_cycles(4, [[1, 2, 3]])], "Alt"),
    (_sl3_on_vectors(3), "Proper"),
    ([pg.perm_from_cycles(9, [[0, 1, 2]]),
      pg.perm_from_cycles(9, [list(range(9))]),
      pg.perm_from_cycles(9, [[0, 1]])], "Sym"),
    ([pg.identity_perm(1)], "Sym"),
    ([pg.identity_perm(2)], "Alt")],
    ids=["alt4", "sl3-f3", "sym9", "trivial-1", "trivial-2"])
def test_verdict_rule_agrees_with_the_list_comparison(gens, verdict):
    # Sym iff the transitivity degree is the chain length and d - 1, Alt
    # iff it is the length and d - 2; the trivial group on one point is
    # Sym(1), on two points Alt(2)
    chain = pg.schreier_sims(gens)
    assert chain.strategy == "dense"
    got = (pg.certify_alternating(chain).verdict, pg.transitivity_degree(chain))
    assert got == _list_verdict(chain) and got[0] == verdict


def test_verdict_memory_at_degree_one_million(monkeypatch):
    # a synthetic Alt(10^6) 'cycles' chain: the verdict and transitivity
    # degree take a few arrays of d entries, where two lists of d Python
    # ints (36 MB each) would exceed the bound.  The decimal product of
    # the orbit sizes is stubbed: it is the same either way, and takes
    # seconds at this degree
    d = 10**6
    chain = pg.StabChain(degree=d, gens=[pg.identity_perm(d)],
                         base=pg.identity_perm(d),
                         orbit_sizes=np.arange(d, 2, -1), strategy="cycles")
    monkeypatch.setattr(pg, "_decimal_product", lambda factors: "0")
    tracemalloc.start()
    try:
        cert = pg.certify_alternating(chain)
        t = pg.transitivity_degree(chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cert.verdict, t) == ("Alt", d - 2)
    assert peak < 20 * d


def test_ladder_strong_generators_sift():
    gens = [pg.perm_from_cycles(11, [[0, 1, 2]]),
            pg.perm_from_cycles(11, [list(range(11))])]
    chain = pg.try_alt_ladder(gens, seed=6)
    assert chain is not None and chain.strategy == "cycles"
    triples = list(zip(chain.base, chain.base[1:], chain.base[2:]))
    for a, b, c in triples[:5] + triples[-5:]:
        assert chain.contains(pg.perm_from_cycles(11, [[a, b, c]]))


def test_imprimitive_group_with_three_cycles_falls_back():
    # blocks {0, 1, 2} and {3, 4, 5}: every 3-cycle lies in a block, so
    # the block test on two points of the one found rules out a giant
    gens = [pg.perm_from_cycles(6, [[0, 1, 2]]),
            pg.perm_from_cycles(6, [[3, 4, 5]]),
            pg.perm_from_cycles(6, [[0, 3], [1, 4], [2, 5]])]
    assert pg.try_alt_ladder(gens, seed=0) is None
    chain = pg.build_chain(gens, seed=0)
    assert chain.strategy == "dense"
    assert chain.order == 18 == _sympy_order(gens)
    assert pg.certify_alternating(chain).verdict == "Proper"


def test_ladder_finds_several_components_when_0_and_1_lie_in_two_blocks(
        monkeypatch):
    # blocks {0, 2, 4} and {1, 3, 5}: the minimal block of 0 and 1 is the
    # whole domain, but the 3-cycle the ladder finds lies inside one block,
    # so the minimal block of two of its points is that block: the
    # supports of its conjugates form two components
    gens = [pg.perm_from_cycles(6, [[0, 2, 4]]),
            pg.perm_from_cycles(6, [[1, 3, 5]]),
            pg.perm_from_cycles(6, [[0, 1], [2, 3], [4, 5]])]
    assert not pg._minimal_block(gens, 0, 1).any()
    blocks = []
    block = pg._minimal_block
    monkeypatch.setattr(pg, "_minimal_block", lambda gens, a, b: (
        blocks.append(_partition(block(gens, a, b))) or block(gens, a, b)))
    assert pg.try_alt_ladder(gens, seed=0) is None
    assert blocks == [{frozenset({0, 2, 4}), frozenset({1, 3, 5})}]
    chain = pg.build_chain(gens, seed=0)
    assert chain.strategy == "dense"
    assert chain.order == 18 == _sympy_order(gens)
    assert pg.certify_alternating(chain).verdict == "Proper"


def test_sym3_wreath_c4_gets_no_ladder():
    # Sym(3) wr C_4 on 12 points, blocks {0, 1, 2}, ..., {9, 10, 11}: it
    # holds 3-cycles, all inside blocks, and is transitive but no giant
    gens = [pg.perm_from_cycles(12, [[0, 1, 2]]),
            pg.perm_from_cycles(12, [[0, 1]]),
            pg.perm_from_cycles(12, [[0, 3, 6, 9], [1, 4, 7, 10],
                                     [2, 5, 8, 11]])]
    for seed in range(4):
        assert pg.try_alt_ladder(gens, seed=seed) is None
    chain = pg.build_chain(gens, seed=0)
    assert chain.strategy == "dense"
    assert chain.order == 6**4 * 4 == _sympy_order(gens)


def _partition(labels):
    blocks = {}
    for x, root in enumerate(labels):
        blocks.setdefault(int(root), set()).add(x)
    return {frozenset(b) for b in blocks.values()}


def _assert_minimal_block_matches_sympy(gens, a, b):
    group = PermutationGroup([Permutation([int(x) for x in g]) for g in gens])
    want = _partition(group.minimal_block([a, b]))
    assert _partition(pg._minimal_block(gens, a, b)) == want
    return want


def test_minimal_block_matches_sympy():
    rng = random.Random(20)
    transitive = 0
    for _ in range(150):
        gens = _random_generators(rng)
        if pg.components(gens).any():
            continue  # sympy's minimal_block needs a transitive group
        transitive += 1
        d = len(gens[0])
        for a, b in [(0, 1), (0, d - 1), tuple(rng.sample(range(d), 2))]:
            _assert_minimal_block_matches_sympy(gens, a, b)
    assert transitive > 50
    # SL_3(F_3) on 26 points: points 0 and 1 are x and 2x, one line
    blocks = _assert_minimal_block_matches_sympy(_sl3_on_vectors(3), 0, 1)
    assert frozenset({0, 1}) in blocks and len(blocks) == 13


# Alt(5) on points 0-4, fixing 5, 6 and 7
_INTRANSITIVE = [pg.perm_from_cycles(8, [[0, 1, 2]]),
                 pg.perm_from_cycles(8, [[0, 1, 2, 3, 4]])]


def test_non_giants_draw_only_the_burst(monkeypatch):
    # SL_3 on vectors holds no 3-cycle and keeps lines as blocks, so the
    # block test on points 0 and 1 ends the search after the burst of
    # LADDER_BURST samples per cube root of the degree (26 and 124 points:
    # 3 and 5); an intransitive group draws none
    draws = []
    sample = pg.Rattle.sample
    monkeypatch.setattr(pg.Rattle, "sample", lambda self: (
        draws.append(1) or sample(self)))
    for gens, order, drawn in [(_sl3_on_vectors(3), 5616, 3 * pg.LADDER_BURST),
                               (_sl3_on_vectors(5), 372000, 5 * pg.LADDER_BURST),
                               (_INTRANSITIVE, 60, 0)]:
        draws.clear()
        chain = pg.build_chain(gens, seed=0)
        assert len(draws) == drawn
        assert chain.strategy == "dense" and chain.order == order
        assert chain.base.tolist() == pg.schreier_sims(gens).base.tolist()


def test_block_of_a_three_cycle_matches_is_alt_sym():
    # a transitive group holding the 3-cycle (a, b, c) contains Alt(d)
    # iff its minimal block system joining a and b is the single block
    rng = random.Random(33)
    verdicts = []
    for _ in range(120):
        if rng.randrange(2):
            gens = _random_generators(rng)
            d = len(gens[0])
        else:  # blocks {0, 1, 2}, {3, 4, 5}, ... kept by every generator
            d = rng.choice([6, 9, 12])
            gens = [np.roll(np.arange(d), 3)]
            for _ in range(rng.randint(0, 2)):
                blocks = rng.sample(range(d // 3), d // 3)
                gens.append(np.array([3 * blocks[x // 3] + w
                                      for x in range(0, d, 3)
                                      for w in rng.sample(range(3), 3)]))
        if d % 3 == 0 and rng.randrange(2):  # inside a block of size 3
            triple = [3 * rng.randrange(d // 3) + w
                      for w in rng.sample(range(3), 3)]
        else:
            triple = rng.sample(range(d), 3)
        gens.append(pg.perm_from_cycles(d, [triple]))
        if pg.components(gens).any():
            continue  # intransitive
        group = PermutationGroup([Permutation([int(x) for x in g])
                                  for g in gens])
        giant = not pg._minimal_block(gens, triple[0], triple[1]).any()
        assert giant == group.is_alt_sym(eps=1e-9)
        assert giant == (2 * group.order() >= math.factorial(d))
        verdicts.append(giant)
    assert verdicts.count(True) > 40 and verdicts.count(False) > 15


@pytest.mark.parametrize("variant, p, degree, base", [
    ("i", 17, 4912, [1925, 3172, 4384]), ("ii", 3, 2186, [796, 835, 1444])])
def test_giant_rattle_stream_is_pinned(variant, p, degree, base,
                                      monkeypatch):
    # the chains that `certify-alt --thm15 VARIANT --p P` builds at seed 0;
    # the 3-cycle comes within the burst, so the one block test is on two
    # of its points.  With no burst the block test on points 0 and 1 comes
    # first, and the chain is the same.
    n, words = thm15_words(variant)
    gens = word_code_perms(words, nonzero_codes(p, n), ff.make_field(p, 1), n)
    pairs = []
    block = pg._minimal_block
    monkeypatch.setattr(pg, "_minimal_block", lambda gens, a, b: (
        pairs.append([a, b]) or block(gens, a, b)))
    for burst, calls in [(pg.LADDER_BURST, [base[:2]]),
                         (0, [[0, 1], base[:2]])]:
        monkeypatch.setattr(pg, "LADDER_BURST", burst)
        pairs.clear()
        chain = pg.build_chain(gens, seed=0)
        assert pairs == calls
        assert chain.strategy == "cycles" and chain.base[:3].tolist() == base
        assert chain.base[3:].tolist() == sorted(set(range(degree))
                                                 - set(base))
    assert pg.certify_alternating(chain).order == str_unlimited(
        math.factorial(degree) // 2)


def _random_generators(rng):
    """One to three generators of degree 5-10: giant, intransitive (two
    invariant intervals) or imprimitive (blocks of size 2 or 3)."""
    d = rng.randint(5, 10)
    kind = rng.choice(["giant", "intransitive", "imprimitive"])
    if kind == "imprimitive" and d % 2 and d % 3:
        d -= 1
    cut = rng.randint(1, d - 1)
    size = 2 if d % 2 == 0 else 3
    gens = []
    for _ in range(rng.randint(1, 3)):
        if kind == "giant":
            g = rng.sample(range(d), d)
        elif kind == "intransitive":
            g = rng.sample(range(cut), cut) + rng.sample(range(cut, d), d - cut)
        else:
            blocks = rng.sample(range(d // size), d // size)
            g = [size * blocks[x // size] + w
                 for x in range(0, d, size)
                 for w in rng.sample(range(size), size)]
        gens.append(np.array(g, dtype=np.int64))
    return gens


def test_certified_orders_match_sympy_on_random_groups():
    rng = random.Random(20)
    strategies = set()
    for trial in range(150):
        gens = _random_generators(rng)
        chain = pg.build_chain(gens, seed=trial)
        strategies.add(chain.strategy)
        cert = pg.certify_alternating(chain)
        order, d = _sympy_order(gens), len(gens[0])
        assert cert.order == str(order)
        assert cert.verdict == {math.factorial(d): "Sym",
                                math.factorial(d) // 2: "Alt"}.get(order,
                                                                   "Proper")
    assert strategies == {"dense", "cycles"}


def test_certify_thm15ii_p5_alt78124():
    # the paper's headline family Alt(p^7 - 1) at p = 5
    F5 = ff.make_field(5, 1)
    n, words = thm15_words("ii")
    gens = word_code_perms(words, nonzero_codes(5, n), F5, n)
    chain = pg.build_chain(gens, seed=0)
    cert = pg.certify_alternating(chain)
    assert cert.degree == 78124
    assert cert.verdict == "Alt"
    assert chain.strategy == "cycles"
    assert cert.order == str_unlimited(math.factorial(78124) // 2)


# Each snippet breaks one soundness check of a certificate.  The check must
# raise BoundViolated, also under python -O, which strips assert statements.
BROKEN_CHECKS = {
    "self-sift": (
        "pg.StabChain.contains = lambda self, g: False\n"
        "pg.schreier_sims([pg.perm_from_cycles(4, [[0, 1, 2]]),\n"
        "                  pg.perm_from_cycles(4, [[0, 1], [2, 3]])])\n"),
    "ladder-witness": (
        "find = pg._extract_three_cycle\n"
        "pg._extract_three_cycle = lambda g: (hit := find(g)) and (tuple(\n"
        "    sorted(set(range(7)) - set(hit[0]))[:3]), hit[1])  # fixed by g^m\n"
        "pg.try_alt_ladder([pg.perm_from_cycles(7, [[0, 1, 2]]),\n"
        "                   pg.perm_from_cycles(7, [list(range(7))])])\n"),
}


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["python", "python-O"])
@pytest.mark.parametrize("check", list(BROKEN_CHECKS))
def test_broken_soundness_check_raises_bound_violated(check, flags):
    src = os.path.dirname(os.path.dirname(pg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    script = "from tamexp import permgrp as pg\n" + BROKEN_CHECKS[check]
    res = subprocess.run([sys.executable, *flags, "-c", script],
                         capture_output=True, text=True, env=env)
    assert res.returncode != 0
    assert res.stderr.splitlines()[-1].startswith("tamexp.errors.BoundViolated:")
