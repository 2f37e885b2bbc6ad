import random
from fractions import Fraction

import pytest

from beauville.groups import AbelianSquare, GroupError, parse_group
from beauville.perms import BSGS, AlternatingGroup, SymmetricGroup, parity
from beauville.psl2 import PSL2
from beauville.structures import (SearchInconclusive, Unrealizable,
                                  classify_triangle, find_generating_triple,
                                  is_hurwitz_psl2, pair_census, search_structure,
                                  sigma_prime_fingerprints, verify_quadruple)

from _oracles import sigma_full_fingerprints, sigma_prime_walk


# -- triangle types ------------------------------------------------------------

def test_triangle_classification():
    tri = classify_triangle(2, 3, 7)
    assert tri.kind == "hyperbolic" and tri.measure == Fraction(1, 42)
    assert classify_triangle(3, 3, 3).kind == "euclidean"
    assert classify_triangle(2, 4, 4).kind == "euclidean"
    assert classify_triangle(2, 3, 5).kind == "spherical"
    assert classify_triangle(2, 2, 9).kind == "spherical"
    assert classify_triangle(5, 5, 5).measure == Fraction(2, 5)
    with pytest.raises(GroupError):
        classify_triangle(1, 3, 3)


def test_measure_positive_iff_hyperbolic():
    for r in range(2, 9):
        for s in range(r, 9):
            for t in range(s, 9):
                tri = classify_triangle(r, s, t)
                assert (tri.measure > 0) == (tri.kind == "hyperbolic")


# -- hurwitz criterion -----------------------------------------------------------

def test_hurwitz_examples():
    assert is_hurwitz_psl2(7, 1)
    assert is_hurwitz_psl2(13, 1)       # 13 = -1 mod 7
    assert is_hurwitz_psl2(2, 3)        # 2 = 2 mod 7, e = 3
    assert not is_hurwitz_psl2(5, 1)    # 5 = -2 mod 7 but e != 3
    assert not is_hurwitz_psl2(7, 2)
    assert not is_hurwitz_psl2(7, 3)    # e = 3 needs p = +-2, +-3
    with pytest.raises(GroupError):
        is_hurwitz_psl2(6, 1)


def test_hurwitz_negative_cases_have_no_237_triple():
    # groups with order-7 elements that still fail the residue rule: the
    # deterministic trace sweep proves no (2,3,7) triple generates
    for (p, e) in [(7, 2), (2, 6), (13, 2), (7, 3)]:
        assert not is_hurwitz_psl2(p, e)
        with pytest.raises(Unrealizable):
            find_generating_triple(PSL2(p, e), 2, 3, 7)


# -- generating triples -----------------------------------------------------------

def test_psl2_7_hurwitz_triple():
    g = PSL2(7)
    tri = find_generating_triple(g, 2, 3, 7)
    assert g.multiply(g.multiply(tri.x, tri.y), tri.z) == g.identity()
    assert (g.order_of(tri.x), g.order_of(tri.y), g.order_of(tri.z)) == (2, 3, 7)
    assert g.generates(tri.x, tri.y)
    with pytest.raises(Unrealizable, match="order 5 not realizable in psl2:7"):
        find_generating_triple(g, 2, 3, 5)


def test_a5_has_no_order_7():
    with pytest.raises(Unrealizable):
        find_generating_triple(AlternatingGroup(5), 2, 3, 7)


def test_psl2_13_666_triple():
    g = PSL2(13)
    tri = find_generating_triple(g, 6, 6, 6)
    assert {g.order_of(tri.x), g.order_of(tri.y), g.order_of(tri.z)} == {6}


def test_perm_triple_and_unrealizable():
    g = AlternatingGroup(6)
    tri = find_generating_triple(g, 4, 4, 4, seed=3)
    assert g.generates(tri.x, tri.y)
    assert (g.order_of(tri.x), g.order_of(tri.y), g.order_of(tri.z)) == (4, 4, 4)
    with pytest.raises(Unrealizable):
        find_generating_triple(AlternatingGroup(5), 4, 5, 5)  # no order 4 in A5
    with pytest.raises(Unrealizable, match="no permutation of order 7"):
        find_generating_triple(SymmetricGroup(5), 2, 5, 7)


@pytest.mark.parametrize("n,orders", [
    (4, (2, 3, 4)), (5, (2, 4, 5)), (5, (2, 5, 4)), (6, (2, 5, 6)), (6, (3, 4, 6))])
def test_symmetric_triple_takes_an_odd_generator(n, orders):
    # each type occurs in S_n but only with x or y odd; even shapes for both
    # would leave every attempt inside A_n
    g = SymmetricGroup(n)
    tri = find_generating_triple(g, *orders)
    assert parity(tri.x) or parity(tri.y)
    assert tuple(g.order_of(m) for m in (tri.x, tri.y, tri.z)) == orders
    assert g.multiply(g.multiply(tri.x, tri.y), tri.z) == g.identity()
    assert BSGS([tri.x, tri.y], n).order == g.order


def test_symmetric_triple_without_odd_parities_is_unrealizable():
    # every element of order 3 in S5 is even, so no (3,3,3) pair generates S5
    with pytest.raises(Unrealizable, match="x or y must be odd"):
        find_generating_triple(SymmetricGroup(5), 3, 3, 3)


def test_abelian_triple():
    g = AbelianSquare(5)
    tri = find_generating_triple(g, 5, 5, 5)
    assert g.generates(tri.x, tri.y)
    with pytest.raises(Unrealizable):
        find_generating_triple(g, 3, 5, 5)


# -- sigma sets --------------------------------------------------------------------

def test_sigma_examples():
    g = AbelianSquare(5)
    s = sigma_prime_fingerprints(g, (1, 0), (0, 1))
    # lines through x, y and z = -(x+y): 4 nonzero points each
    assert len(s) == 12
    a5 = AlternatingGroup(5)
    x = a5.parse_element("(1 2 3 4 5)")
    s = sigma_prime_fingerprints(a5, x, x)
    # powers of x cover both split 5-classes; z = x^-2 adds nothing new
    assert len(s) == 2
    e = a5.identity()
    assert sigma_prime_fingerprints(a5, e, e) == frozenset()


@pytest.mark.parametrize("descriptor", ["alt:5", "alt:6", "psl2:7", "psl2:2^3", "ab:5"])
def test_prime_order_reduction_equals_full_sigma(descriptor):
    g = parse_group(descriptor)
    rng = random.Random(len(descriptor))
    for _ in range(400):
        x1, y1 = g.random_element(rng), g.random_element(rng)
        x2, y2 = g.random_element(rng), g.random_element(rng)
        prime_disjoint = not (sigma_prime_fingerprints(g, x1, y1)
                              & sigma_prime_fingerprints(g, x2, y2))
        full_disjoint = not (sigma_full_fingerprints(g, x1, y1)
                             & sigma_full_fingerprints(g, x2, y2))
        assert prime_disjoint == full_disjoint


@pytest.mark.parametrize("descriptor",
                         ["psl2:101", "psl2:2^7", "psl2:3^5", "alt:8", "sym:6", "ab:25"])
def test_sigma_memo_matches_uncached_walk(descriptor):
    # one warm handle: later pairs, and the conjugates of every pair, are
    # answered from classes memoized for other elements
    g = parse_group(descriptor)
    rng = random.Random(descriptor)
    for _ in range(200):
        x, y, c = g.random_element(rng), g.random_element(rng), g.random_element(rng)
        assert sigma_prime_fingerprints(g, x, y) == sigma_prime_walk(g, x, y)
        xc, yc = g.conjugate(c, x), g.conjugate(c, y)
        assert sigma_prime_fingerprints(g, xc, yc) == sigma_prime_walk(g, xc, yc)


# -- verification -------------------------------------------------------------------

def test_verify_beauville_original_construction():
    g = AbelianSquare(5)
    out = search_structure(g, "exhaustive")
    assert out.found
    report = verify_quadruple(g, *out.quadruple)
    assert report.ok and report.cond_i and all(report.cond_ii) and report.cond_iii


def test_verify_identity_pair_fails_cond_ii():
    g = AbelianSquare(5)
    e = g.identity()
    report = verify_quadruple(g, e, e, (1, 0), (0, 1))
    assert not report.cond_ii[0] and report.cond_ii[1]
    assert not report.ok
    assert "pair1_subgroup" in report.witnesses


def test_verify_invariant_under_conjugation_and_swap():
    for descriptor in ("alt:6", "psl2:11"):
        g = parse_group(descriptor)
        rng = random.Random(17)
        for _ in range(40):
            x1, y1, x2, y2, c1, c2 = (g.random_element(rng) for _ in range(6))
            base = verify_quadruple(g, x1, y1, x2, y2)
            conj = verify_quadruple(g, g.conjugate(c1, x1), g.conjugate(c1, y1),
                                    g.conjugate(c2, x2), g.conjugate(c2, y2))
            swap = verify_quadruple(g, x2, y2, x1, y1)
            assert base.ok == conj.ok == swap.ok
            assert base.cond_iii == conj.cond_iii == swap.cond_iii
            assert base.cond_ii == (conj.cond_ii[0], conj.cond_ii[1])
            assert swap.cond_ii == (base.cond_ii[1], base.cond_ii[0])


def test_gcd_fastpath_never_disagrees_with_sigma():
    for descriptor in ("alt:6", "psl2:13", "ab:5"):
        g = parse_group(descriptor)
        rng = random.Random(23)
        for _ in range(150):
            x1, y1, x2, y2 = (g.random_element(rng) for _ in range(4))
            fast = verify_quadruple(g, x1, y1, x2, y2, use_fastpath=True)
            slow = verify_quadruple(g, x1, y1, x2, y2, use_fastpath=False)
            assert fast.ok == slow.ok and fast.cond_iii == slow.cond_iii


def test_every_returned_structure_reverifies():
    cases = [
        (parse_group("psl2:13"), "macbeath"),
        (parse_group("psl2:11"), "random"),
        (parse_group("alt:6"), "random"),
        (parse_group("ab:5"), "exhaustive"),
    ]
    for g, strategy in cases:
        out = search_structure(g, strategy, seed=5)
        assert out.found
        assert verify_quadruple(g, *out.quadruple).ok


# -- search strategies ----------------------------------------------------------------

def test_a5_exhaustive_certificate():
    out = search_structure(AlternatingGroup(5), "exhaustive")
    assert not out.found
    cert = out.certificate
    assert cert["exhaustive"] and cert["generating_pairs"] > 0


def test_non_hyperbolic_targets_rejected_up_front():
    with pytest.raises(GroupError, match="euclidean"):
        search_structure(PSL2(7), "macbeath", target_types=((3, 3, 3), (7, 7, 7)))
    with pytest.raises(GroupError, match="spherical"):
        search_structure(PSL2(11), "random", target_types=((2, 3, 5), (11, 11, 11)))


def test_macbeath_displays_for_q_gt_7():
    # for q > 7 the split/nonsplit order displays themselves are realized
    for (p, e) in [(2, 3), (3, 2), (11, 1), (13, 1), (17, 1)]:
        g = PSL2(p, e)
        out = search_structure(g, "macbeath")
        assert out.found
        m, n = g.split_order, g.nonsplit_order
        assert out.report.type1 == (m, m, m)
        assert out.report.type2 in ((n, n, n), tuple(sorted((n, n, g.p))))


def test_exhaustive_with_targets_finds_typed_structure():
    g = PSL2(7)
    out = search_structure(g, "exhaustive", target_types=((3, 3, 4), (7, 7, 7)))
    assert out.found
    assert {out.report.type1, out.report.type2} == {(3, 3, 4), (7, 7, 7)}


def test_exhaustive_pair_cap():
    from beauville.groups import CapExceeded
    with pytest.raises(CapExceeded):
        search_structure(PSL2(13), "exhaustive", pair_cap=100)


def test_pair_census_refuses_before_enumerating_the_group():
    from beauville.groups import CapExceeded
    g = PSL2(101)
    calls = 0
    fingerprint = g.fingerprint

    def counted(m):
        nonlocal calls
        calls += 1
        return fingerprint(m)

    g.fingerprint = counted
    with pytest.raises(CapExceeded, match="at least"):
        pair_census(g)
    assert calls < 1000


def test_random_search_inconclusive_on_a5():
    with pytest.raises(SearchInconclusive):
        search_structure(AlternatingGroup(5), "random", max_attempts=500)


def test_psl2_q_even_structures():
    out = search_structure(PSL2(2, 3), "macbeath")
    assert out.found and out.report.type1 == (7, 7, 7)
