import itertools
import random
from fractions import Fraction

import pytest

from beauville.cli import _strip_timing
from beauville.groups import AbelianSquare, GroupError, parse_group
from beauville.numutil import is_prime, prime_factors
from beauville.perms import BSGS, AlternatingGroup, SymmetricGroup, parity
from beauville.psl2 import PSL2
from beauville.structures import (SearchInconclusive, Unrealizable,
                                  classify_triangle, find_generating_triple,
                                  is_hurwitz_psl2, pair_census, search_structure,
                                  shared_classes, sigma_prime_fingerprints,
                                  verify_quadruple)
from beauville.structures import _hyperbolic, _macbeath_search

from _oracles import (abelian_triple_sweep, pair_census_all_y, prime_power_walk,
                      sigma_full_fingerprints, sigma_prime_walk)


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
    # also: the integer test that filters the Macbeath type pairs agrees
    for tau in itertools.combinations_with_replacement(range(2, 31), 3):
        tri = classify_triangle(*tau)
        assert (tri.measure > 0) == (tri.kind == "hyperbolic") == _hyperbolic(tau)


def test_macbeath_search_finds_its_first_hyperbolic_type_pair_for_every_q_to_2100():
    # the untyped candidates are ((m,m,m),(n,n,n)), ((m,m,m),(n,n,p)) and
    # ((m,m,n),(p,p,p)), kept when hyperbolic: the first succeeds for q >= 8,
    # the third is the only one at q = 7, and q = 4 and 5 have none
    fields = [(p, e) for p in range(2, 2101) if is_prime(p)
              for e in range(1, 12) if 4 <= p ** e <= 2100]
    assert len(fields) == 346
    for p, e in fields:
        G = PSL2(p, e)
        if p ** e in (4, 5):
            with pytest.raises(SearchInconclusive, match="exhausted 0 type pairs"):
                _macbeath_search(G, None, 0.0)
            continue
        stats = _macbeath_search(G, None, 0.0).stats
        m, n = G.split_order, G.nonsplit_order
        expected = ([3, 3, 4], [7, 7, 7]) if p ** e == 7 else ([m] * 3, [n] * 3)
        assert (stats["type1"], stats["type2"]) == expected, (p, e)
        assert stats["types_tried"] == 1, (p, e)


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


def test_psl2_triple_refuses_an_unrealizable_order_before_any_torus_walk():
    # 3 divides 8193 = 2**13 + 1 and 5 divides neither 8191 nor 8193
    g = PSL2(2, 13)
    with pytest.raises(Unrealizable) as exc:
        find_generating_triple(g, 3, 5, 17)
    assert str(exc.value) == ("order 5 not realizable in psl2:2^13: orders are 1, p = 2, "
                              "divisors of 8191 and of 8193")
    assert g._traces_by_order_cache is None


def test_exhausted_psl2_sweep_solves_no_trace_triple(monkeypatch):
    # every candidate is classified from its traces; only a generating
    # triple, or a small-order one that needs a pair for its closure, is solved
    g = PSL2(3, 4)
    solve, calls = g.solve_trace_triple, []
    monkeypatch.setattr(g, "solve_trace_triple", lambda *t: calls.append(t) or solve(*t))
    with pytest.raises(Unrealizable, match="every candidate trace triple generates"):
        find_generating_triple(g, 5, 8, 8)
    assert calls == []


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


def test_abelian_triple_refuses_orders_and_skips_wrong_z_orders():
    g = AbelianSquare(6)
    with pytest.raises(Unrealizable, match="order 4 does not divide n = 6"):
        find_generating_triple(g, 4, 2, 2)
    # every order divides 6, but only (6,6,6) generates
    with pytest.raises(Unrealizable, match=r"no generating triple of type \(6,2,3\)"):
        find_generating_triple(g, 6, 2, 3)


@pytest.mark.parametrize("n", range(2, 16))
def test_abelian_triple_matches_the_sweep_on_every_divisor_triple(n):
    g = AbelianSquare(n)
    divisors = [k for k in range(2, n + 1) if n % k == 0]
    for r, s, t in itertools.product(divisors, repeat=3):
        found = abelian_triple_sweep(g, r, s, t)
        if found is None:
            with pytest.raises(Unrealizable, match=rf"type \({r},{s},{t}\)$"):
                find_generating_triple(g, r, s, t)
        else:
            tri = find_generating_triple(g, r, s, t)
            assert ((tri.x, tri.y, tri.z), tri.orders) == (found, (r, s, t))


def test_perm_triple_inconclusive_when_attempts_run_out():
    with pytest.raises(SearchInconclusive, match="in 1 random attempts"):
        find_generating_triple(AlternatingGroup(8), 2, 3, 7, max_attempts=1)


# -- sigma sets --------------------------------------------------------------------

def test_sigma_examples():
    g = AbelianSquare(5)
    s = g.sigma_classes(sigma_prime_fingerprints(g, (1, 0), (0, 1)))
    # lines through x, y and z = -(x+y): 4 nonzero points each
    assert len(s) == 12
    a5 = AlternatingGroup(5)
    x = a5.parse_element("(1 2 3 4 5)")
    s = a5.sigma_classes(sigma_prime_fingerprints(a5, x, x))
    # powers of x cover both split 5-classes; z = x^-2 adds nothing new
    assert len(s) == 2
    e = a5.identity()
    assert a5.sigma_classes(sigma_prime_fingerprints(a5, e, e)) == frozenset()


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


@pytest.mark.parametrize("descriptor", ["psl2:101", "psl2:2^7", "psl2:3^5", "alt:8", "sym:6",
                                        "ab:25", "alt:40", "sym:40"])
def test_sigma_memo_matches_uncached_walk(descriptor):
    # one warm handle: later pairs, and the conjugates of every pair, are
    # answered from classes memoized for other elements
    g = parse_group(descriptor)
    rng = random.Random(descriptor)
    for _ in range(200):
        x, y, c = g.random_element(rng), g.random_element(rng), g.random_element(rng)
        assert g.sigma_classes(sigma_prime_fingerprints(g, x, y)) == sigma_prime_walk(g, x, y)
        xc, yc = g.conjugate(c, x), g.conjugate(c, y)
        assert g.sigma_classes(sigma_prime_fingerprints(g, xc, yc)) == sigma_prime_walk(g, xc, yc)


@pytest.mark.parametrize("descriptor", [
    "psl2:7", "psl2:2^3", "psl2:3^2", "psl2:2^4", "psl2:5^2", "psl2:3^3", "psl2:7^2",
    "alt:5", "alt:6", "alt:7", "sym:5", "sym:6", *(f"ab:{n}" for n in range(2, 13))])
def test_sigma_key_fixes_prime_power_classes_of_every_element(descriptor):
    # the closed forms on one warm handle, each element against its own
    # walk: PSL2 answers a semisimple element from the memo under its order
    # (Fact B; sigma_classes expands each prime bit) and a unipotent in
    # closed form (both classes for p and e odd, its own class otherwise);
    # A_n / S_n answer from the memo under the cycle type, both halves of a
    # split A_n class included; Zn x Zn lists the multiples of a**(o/r)
    g = parse_group(descriptor)
    for x in g.iter_elements():
        assert g.sigma_classes(g.prime_power_classes(x)) == prime_power_walk(g, x)


@pytest.mark.parametrize("descriptor", ["psl2:7", "psl2:11", "psl2:2^3", "psl2:2^4",
                                        "psl2:3^2", "psl2:5^2", "psl2:7^2", "psl2:3^3"])
def test_sigma_from_pair_orders_equals_the_element_path(descriptor):
    # every generating pair up to simultaneous conjugation (x a class
    # representative, y one per C_G(x)-orbit), under which both paths and
    # the walk are invariant, its orders given as read_pair returns them,
    # sorted and reversed.  A cold handle is asked by orders first, so
    # misses, partly filled memos and hits all occur; a warm one after the
    # element path has run on every pair.  On 3^2, 5^2 and 7^2 (p odd, e
    # even) a unipotent's own class, which its order does not fix, is in Sigma
    g, cold = parse_group(descriptor), parse_group(descriptor)
    partition = g.classes()
    pairs = []
    for cls in partition.classes[1:]:
        x = cls.representative
        for y, _ in g.centralizer_orbits(x, partition.elements):
            gen, orders = g.read_pair(x, y)
            if gen:
                pairs.append((x, y, orders, (orders, tuple(sorted(orders)), orders[::-1])))
    walks = [sigma_prime_walk(g, x, y) for x, y, _, _ in pairs]
    for (x, y, _, variants), walk in zip(pairs, walks):
        for orders in variants:
            assert cold.sigma_classes(sigma_prime_fingerprints(cold, x, y, orders)) == walk
    masks = [sigma_prime_fingerprints(g, x, y) for x, y, _, _ in pairs]
    assert list(map(g.sigma_classes, masks)) == walks
    for (x, y, _, variants), mask in zip(pairs, masks):
        assert all(sigma_prime_fingerprints(g, x, y, orders) == mask for orders in variants)


@pytest.mark.parametrize("descriptor", ["alt:6", "psl2:13", "ab:7"])
def test_sigma_masks_of_two_handles_decode_alike(descriptor):
    # bits are numbered in the order each handle first sees a class, so two
    # handles asked in opposite orders hold different masks for one pair
    g, h = parse_group(descriptor), parse_group(descriptor)
    rng = random.Random(descriptor)
    pairs = [(g.random_element(rng), g.random_element(rng)) for _ in range(50)]
    masks_g = [sigma_prime_fingerprints(g, x, y) for x, y in pairs]
    masks_h = [sigma_prime_fingerprints(h, x, y) for x, y in reversed(pairs)][::-1]
    assert masks_g != masks_h
    assert list(map(g.sigma_classes, masks_g)) == list(map(h.sigma_classes, masks_h))


def test_unipotent_prime_power_classes_need_no_walk(monkeypatch):
    # the walk would take p - 1 = 1000002 products; Fact B reads the set off
    # p and e (both odd here: both unipotent classes)
    g = PSL2(1000003)
    calls = []
    product = g.multiply

    def counting(a, b):
        calls.append(None)
        if len(calls) > 100:
            raise AssertionError("the unipotent powers were walked")
        return product(a, b)

    monkeypatch.setattr(g, "multiply", counting)
    u = g.parse_element("[[1,1],[0,1]]")
    assert g.sigma_classes(g.prime_power_classes(u)) == {("u", 0), ("u", 1)}
    assert calls == []


@pytest.mark.parametrize("descriptor", ["psl2:1000003", "alt:40"])
def test_prime_power_classes_and_their_expansion_make_no_product(monkeypatch, descriptor):
    # on psl2:1000003, the semisimple elements of a quadruple found by search,
    # of orders 500001 = 3 * 166667 and 500002: the expansion lists 1 class
    # of order 3 and 83,333 of order 166667 for the first
    g = parse_group(descriptor)
    if g.kind == "psl2":
        xs = [g.parse_element(t) for t in ("[[0,1],[1000002,999994]]", "[[0,2610],[2682,9]]",
                                           "[[0,1],[1000002,1000000]]", "[[1,115770],[115773,2]]")]
    else:
        rng = random.Random(descriptor)
        xs = [g.random_element(rng) for _ in range(200)]

    def refuse(a, b):
        raise AssertionError("a group product was formed")

    monkeypatch.setattr(g, "multiply", refuse)
    sizes = [len(g.sigma_classes(g.prime_power_classes(x))) for x in xs]
    assert all(sizes) and (g.kind != "psl2" or sizes[0] == 1 + 83333)


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
    # psl2:3^2 reads its unipotent classes by the even-e rule
    for descriptor in ("alt:6", "sym:6", "psl2:13", "psl2:3^2", "psl2:2^4", "ab:5"):
        g = parse_group(descriptor)
        rng = random.Random(23)
        for _ in range(150):
            x1, y1, x2, y2 = (g.random_element(rng) for _ in range(4))
            fast = verify_quadruple(g, x1, y1, x2, y2, use_fastpath=True)
            slow = verify_quadruple(g, x1, y1, x2, y2, use_fastpath=False)
            assert fast.ok == slow.ok and fast.cond_iii == slow.cond_iii
            coprime, shared = shared_classes(g, (x1, y1, fast.type1), (x2, y2, fast.type2),
                                             fastpath=False)
            assert not coprime and (not shared) == fast.cond_iii


def test_every_returned_structure_reverifies():
    cases = [
        (parse_group("psl2:13"), "macbeath", None),
        (parse_group("psl2:11"), "random", None),
        (parse_group("alt:6"), "random", None),
        (parse_group("sym:6"), "random", ((5, 6, 6), (4, 6, 6))),
        (parse_group("ab:5"), "exhaustive", None),
    ]
    for g, strategy, targets in cases:
        out = search_structure(g, strategy, target_types=targets, seed=5)
        assert out.found
        assert verify_quadruple(g, *out.quadruple).ok


def test_typed_random_search_with_coprime_types_computes_no_sigma(monkeypatch):
    # every draw of the target types has coprime order products, so the
    # coprime shortcut decides condition (iii) for each of them
    def refuse(*args):
        raise AssertionError("Sigma computed for a coprime type pair")

    monkeypatch.setattr("beauville.structures.sigma_prime_fingerprints", refuse)
    out = search_structure(PSL2(13), "random", target_types=((6, 6, 6), (7, 7, 7)))
    assert out.found and out.report.coprime_fastpath


@pytest.mark.parametrize("group,strategy,targets,message", [
    (AlternatingGroup(7), "auto", ((3, 3, 4), (3, 3, 11)),
     "no even permutation of order 11 on 7 points"),
    (AbelianSquare(6), "random", ((3, 3, 4), (6, 6, 6)), "order 4 does not divide n = 6"),
    (PSL2(1000003), "random", ((2, 3, 7), (3, 3, 4)),
     "order 4 not realizable in psl2:1000003: orders are 1, p = 1000003, "
     "divisors of 500001 and of 500002"),
], ids=["alt:7", "ab:6", "psl2:1000003"])
def test_typed_random_search_certifies_an_order_the_group_lacks(group, strategy, targets,
                                                                message):
    # without the check every attempt draws in vain and the search ends
    # inconclusive; an absent element order is a certificate instead
    out = search_structure(group, strategy, target_types=targets, max_attempts=2000)
    assert not out.found and out.quadruple is None
    assert out.certificate == {"unrealizable": message}
    assert list(out.stats) == ["strategy", "elapsed"] and out.stats["strategy"] == "random"
    # the check is closed form: orders 2, 3 and 7 exist without a walk of
    # the PSL2 tori over a field of 10^6 elements
    assert getattr(group, "_traces_by_order_cache", None) is None


@pytest.mark.parametrize("descriptor,targets,r", [
    ("alt:7", ((4, 5, 7), (5, 7, 7)), 5),   # one class of 5-cycles; 7 splits
    ("alt:6", ((3, 4, 5), (4, 5, 5)), 2),   # one involution class; 5 splits
    ("psl2:7", ((3, 3, 4), (3, 3, 4)), 2),
    ("psl2:2^3", ((2, 7, 9), (2, 9, 9)), 2),  # the unipotent class
    ("sym:5", ((3, 4, 5), (5, 5, 6)), 3),   # 5 is shared too; the least prime answers
], ids=["alt:7", "alt:6", "psl2:7", "psl2:2^3", "sym:5"])
def test_typed_random_search_certifies_a_forced_shared_class(descriptor, targets, r):
    # r divides both type products and G has one class of order r: both Sigma
    # sets hold it whatever is drawn, so the search answers before any draw
    out = search_structure(parse_group(descriptor), "random", target_types=targets,
                           max_attempts=2000)
    assert not out.found and list(out.stats) == ["strategy", "elapsed"]
    assert out.certificate == {"unrealizable": (
        f"both type products are divisible by {r}, and {descriptor} has one class "
        f"of elements of order {r}, which both Sigma sets hold")}


@pytest.mark.parametrize("descriptor,targets,r", [
    ("psl2:7", ((7, 7, 7), (7, 7, 7)), 7),     # r = p, e odd: both unipotent classes
    ("psl2:13", ((2, 3, 7), (7, 7, 7)), 7),    # r != p: every class of order 7
    ("psl2:3^3", ((3, 7, 13), (3, 3, 14)), 3),  # 7 is shared too; the least prime answers
], ids=["psl2:7", "psl2:13", "psl2:3^3"])
def test_typed_random_search_certifies_a_share_fact_b_forces(descriptor, targets, r):
    out = search_structure(parse_group(descriptor), "random", target_types=targets,
                           max_attempts=2000)
    assert not out.found and list(out.stats) == ["strategy", "elapsed"]
    assert out.certificate == {"unrealizable": (
        f"both type products are divisible by {r}, and the powers of every element "
        f"of {descriptor} whose order {r} divides meet every class of order {r}, "
        f"which both Sigma sets hold")}


def test_typed_random_search_draws_when_p_divides_both_types_and_e_is_even():
    # a unipotent Sigma of psl2:5^2 holds its own class only, so 5 forces no
    # share; the exhaustive census realizes these types, and the draws find them
    G, targets = parse_group("psl2:5^2"), ((5, 13, 13), (5, 5, 6))
    assert G.forced_share(5) is None
    assert search_structure(G, "exhaustive", target_types=targets).found
    assert search_structure(G, "random", target_types=targets, max_attempts=20000).found


@pytest.mark.parametrize("descriptor,targets", [
    ("alt:6", ((2, 5, 5), (3, 5, 5))),
    ("alt:6", ((5, 5, 5), (3, 3, 5))),
    ("alt:6", ((4, 4, 5), (3, 5, 5))),
    ("alt:7", ((7, 7, 7), (2, 4, 7))),
], ids=["alt:6-255-355", "alt:6-555-335", "alt:6-445-355", "alt:7-777-247"])
def test_typed_random_search_certifies_a_share_of_a_split_class(descriptor, targets):
    # r <= n < 2r: every element whose order r divides has one r-cycle, whose
    # powers reach both A_n classes of r-cycles; the census agrees
    g = parse_group(descriptor)
    assert not search_structure(g, "exhaustive", target_types=targets).found
    out = search_structure(g, "random", target_types=targets, max_attempts=2000)
    assert not out.found and list(out.stats) == ["strategy", "elapsed"]
    r = 5 if descriptor == "alt:6" else 7
    assert out.certificate == {"unrealizable": (
        f"both type products are divisible by {r}, and the powers of every element "
        f"of {descriptor} whose order {r} divides meet every class of order {r}, "
        f"which both Sigma sets hold")}


@pytest.mark.parametrize("descriptor", ["psl2:5", "psl2:7", "psl2:2^3", "psl2:3^2",
                                        "psl2:13", "psl2:5^2", "psl2:3^3", "alt:6", "sym:5",
                                        "alt:3", "alt:4", "alt:5", "alt:7", "alt:8",
                                        "sym:3", "sym:4", "sym:6", "sym:7"])
def test_forced_share_matches_the_sigma_sets_of_the_class_representatives(descriptor):
    # a share is claimed exactly when every two elements whose orders r
    # divides share a class among their prime-order powers (A_6 has two
    # classes of 5-cycles, both in every such Sigma)
    g = parse_group(descriptor)
    reps = [c.representative for c in g.classes().classes]
    for r in {r for x in reps for r in prime_factors(g.order_of(x))}:
        masks = [g.prime_power_classes(x) for x in reps if g.order_of(x) % r == 0]
        forced = all(a & b for a in masks for b in masks)
        assert (g.forced_share(r) is not None) == forced, r


@pytest.mark.parametrize("descriptor", [
    "alt:3", "alt:4", "alt:5", "alt:6", "alt:7", "alt:8", "sym:3", "sym:4", "sym:5", "sym:6",
    "sym:7", "psl2:2^2", "psl2:7", "psl2:2^3", "psl2:3^2", "psl2:3^3", "psl2:13", "ab:6"])
def test_one_class_of_order_matches_the_class_partition(descriptor):
    # forced_share names one class of order r exactly when the partition has one
    g = parse_group(descriptor)
    counts = {}
    for cls in g.classes().classes:
        counts[cls.element_order] = counts.get(cls.element_order, 0) + 1
    for r in filter(is_prime, counts):
        one_class = f"{descriptor} has one class of elements of order {r}"
        assert (g.forced_share(r) == one_class) == (counts[r] == 1), r


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


def test_pair_census_enumerates_the_group_once():
    g = PSL2(7)
    calls = 0
    iter_elements = g.iter_elements

    def counted():
        nonlocal calls
        calls += 1
        return iter_elements()

    g.iter_elements = counted
    census = pair_census(g)
    assert calls == 1
    assert census.representatives == 5  # the non-identity classes of PSL2(7)


# the ids keep the "-None" of the no-targets case of the filtered census
@pytest.mark.parametrize("descriptor", ["alt:5", "sym:5", "alt:6", "sym:6", "psl2:7",
                                        "psl2:2^3", "psl2:11", "psl2:13", "ab:5", "ab:7",
                                        "ab:6", "ab:8", "ab:9", "ab:10", "ab:12"],
                         ids=lambda d: f"{d}-None")
def test_pair_census_equals_the_all_y_scan(descriptor):
    # the census keys Sigma by mask, decoded here; the scan walks each
    # pair's prime-order powers into fingerprint sets
    g = parse_group(descriptor)
    fast = pair_census(g)
    brute = pair_census_all_y(parse_group(descriptor))
    assert {g.sigma_classes(s): w for s, w in fast.weights.items()} == brute.weights
    assert ([((g.sigma_classes(s), tau), pair) for (s, tau), pair in fast.examples.items()]
            == list(brute.examples.items()))
    assert ((fast.generating_pairs, fast.pairs_checked, fast.representatives)
            == (brute.generating_pairs, brute.pairs_checked, brute.representatives))


@pytest.mark.parametrize("n", range(2, 17))
def test_abelian_census_counts_the_bases_of_zn_squared(n):
    # the generating pairs of Zn x Zn are its bases, |GL2(Z/n)| of them:
    # n**4 times (1 - 1/p)(1 - 1/p**2) for each prime p dividing n
    gl2 = Fraction(n ** 4)
    for p in prime_factors(n):
        gl2 *= (1 - Fraction(1, p)) * (1 - Fraction(1, p * p))
    assert pair_census(AbelianSquare(n)).generating_pairs == gl2


@pytest.mark.parametrize("n", range(2, 26))
def test_abelian_census_stop_matches_the_full_scan(n):
    # the census stops once it holds every (Sigma, type) key and takes its
    # counts from AbelianSquare.census_closed_form; without the hook it
    # scans every pair
    g, full = AbelianSquare(n), AbelianSquare(n)
    full.census_closed_form = lambda: None
    fast, slow = pair_census(g), pair_census(full)
    assert ([(g.sigma_classes(s), w) for s, w in fast.weights.items()]
            == [(full.sigma_classes(s), w) for s, w in slow.weights.items()])
    assert ([(g.sigma_classes(s), tau, pair) for (s, tau), pair in fast.examples.items()]
            == [(full.sigma_classes(s), tau, pair) for (s, tau), pair in slow.examples.items()])
    assert ((fast.pairs_checked, fast.generating_pairs, fast.representatives)
            == (slow.pairs_checked, slow.generating_pairs, slow.representatives))
    assert (len(fast.examples), fast.generating_pairs) == g.census_closed_form()
    assert fast.pairs_tested <= slow.pairs_tested == slow.pairs_checked


def test_abelian_census_stops_early():
    census = pair_census(AbelianSquare(13))
    assert census.pairs_tested < census.pairs_checked / 4


@pytest.mark.parametrize("targets", [((4, 4, 4), (3, 5, 5)), ((3, 4, 5), (3, 5, 5))])
def test_typed_search_on_a_kept_census_matches_a_fresh_handle(targets):
    # the type filter reads the untyped census kept on the handle
    def result(g):
        out = search_structure(g, "exhaustive", target_types=targets).to_dict(g)
        return _strip_timing(out)

    kept = AlternatingGroup(6)
    untyped = search_structure(kept, "exhaustive")
    assert untyped.found and pair_census(kept) is kept._census
    assert result(kept) == result(AlternatingGroup(6))


def test_pair_census_tests_one_pair_per_centralizer_orbit():
    g = AlternatingGroup(6)
    calls = 0
    generates = g.generates

    def counted(x, y):
        nonlocal calls
        calls += 1
        return generates(x, y)

    g.generates = counted
    census = pair_census(g)
    assert census.pairs_checked == 2160  # 6 non-identity classes x |A_6|
    assert calls == census.pairs_tested <= 2160 // 5


@pytest.mark.parametrize("descriptor",
                         ["sym:3", "alt:4", "sym:4", "alt:5", "psl2:5", "psl2:2^2"])
def test_auto_search_certifies_tiny_groups_by_census(descriptor):
    out = search_structure(parse_group(descriptor), "auto")
    assert not out.found
    assert out.certificate["exhaustive"]
    assert out.stats["strategy"] == "exhaustive"


def test_random_search_inconclusive_on_a5():
    with pytest.raises(SearchInconclusive):
        search_structure(AlternatingGroup(5), "random", max_attempts=500)


def test_auto_search_falls_back_to_random_after_macbeath():
    # macbeath's triples of these types share a class, so it verifies
    # nothing and the 20 random attempts that follow end inconclusive; only
    # p = 5 divides both type products, and e = 2 is even, so no share is
    # certified first
    with pytest.raises(SearchInconclusive, match="in 20 random attempts"):
        search_structure(PSL2(5, 2), "auto", target_types=((5, 5, 13), (5, 5, 6)),
                         max_attempts=20)


def test_auto_search_takes_the_census_for_small_abelian_squares():
    out = search_structure(AbelianSquare(8), "auto")  # |G| = 64 > 60
    assert not out.found and out.stats["strategy"] == "exhaustive"
    assert out.certificate["exhaustive"]
    assert out.certificate["pairs_checked"] == 4032  # 63 classes times 64


def test_macbeath_search_reports_its_last_error():
    # a target type without a generating triple is certified absent
    out = search_structure(PSL2(7), "macbeath", target_types=((2, 3, 8), (3, 3, 4)))
    assert not out.found and out.stats["strategy"] == "macbeath"
    assert out.certificate["unrealizable"].startswith("order 8 not realizable")


def test_auto_search_certifies_an_unrealizable_type_without_random_attempts():
    out = search_structure(PSL2(7), "auto", target_types=((3, 3, 4), (3, 3, 10 ** 11)),
                           max_attempts=20)
    assert not out.found and out.stats["strategy"] == "macbeath"
    assert out.certificate == {
        "unrealizable": "order 100000000000 not realizable in psl2:7: orders are 1, "
                        "p = 7, divisors of 3 and of 4"}


def test_psl2_q_even_structures():
    out = search_structure(PSL2(2, 3), "macbeath")
    assert out.found and out.report.type1 == (7, 7, 7)
