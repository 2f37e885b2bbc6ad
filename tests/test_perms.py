import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beauville.fields import gf
from beauville.groups import GroupError, closure, parse_group
from beauville.perms import (BSGS, AlternatingGroup, SymmetricGroup, _walk,
                             construct_almost_homogeneous, cycle_type,
                             cycles_of, format_cycles, format_shape,
                             order_partition, parse_cycles, parity, perm_inv,
                             perm_mul, perm_order, permutation_of_shape,
                             select_six_shapes)


# -- Schreier-Sims ----------------------------------------------------------

def test_generates_examples():
    a5 = AlternatingGroup(5)
    assert a5.generates(a5.parse_element("(1 2 3 4 5)"), a5.parse_element("(1 2 3)"))
    assert not a5.generates(a5.parse_element("(1 2)(3 4)"),
                            a5.parse_element("(1 3)(2 4)"))
    x = a5.parse_element("(1 2 3)")
    assert not a5.generates(x, x)


def test_bsgs_order_matches_brute_closure_on_200_random_pairs():
    # n <= 9; counts weighted toward small n to keep the full closures on
    # A8/S8/A9/S9 (up to 362880 elements) affordable
    rng = random.Random(2024)
    counts = {5: 60, 6: 60, 7: 50, 8: 20, 9: 10}
    assert sum(counts.values()) == 200
    for n, reps in counts.items():
        G = SymmetricGroup(n)
        for _ in range(reps):
            x, y = G.random_element(rng), G.random_element(rng)
            bs = BSGS([x, y], n)
            cl = closure(G, (x, y))
            assert bs.order == len(cl)


def test_bsgs_membership_via_sifting():
    n = 7
    G = AlternatingGroup(n)
    rng = random.Random(8)
    x, y = G.random_element(rng), G.random_element(rng)
    bs = BSGS([x, y], n)
    cl = closure(G, (x, y))
    inside = random.Random(1).sample(sorted(cl), min(len(cl), 40))
    for m in inside:
        assert bs.contains(m)
    sym = SymmetricGroup(n)
    outside = 0
    for _ in range(60):
        g = sym.random_element(rng)
        if g not in cl:
            outside += 1
            assert not bs.contains(g)
    assert outside > 0


# -- giant recognition: Jordan certificate against the BSGS oracle ----------

def _bsgs_generates(G, x, y):
    return BSGS([x, y], G.n).order == G.order


def _certified(G, x, y):
    # whether the Jordan walk meets an element with a cycle in the prime window
    return any(not G._jordan_primes.isdisjoint(map(len, cycles_of(g)))
               for g in _walk(x, y))


@pytest.mark.parametrize("desc,pairs", [
    ("alt:8", 100), ("alt:9", 100), ("alt:10", 100), ("alt:12", 100),
    ("sym:8", 100), ("sym:10", 100)])
def test_generates_agrees_with_bsgs_on_random_pairs(desc, pairs):
    G = parse_group(desc)
    rng = random.Random(f"giant:{desc}")
    generating = certified = 0
    for _ in range(pairs):
        x, y = G.random_element(rng), G.random_element(rng)
        truth = _bsgs_generates(G, x, y)
        assert G.generates(x, y) == truth, (format_cycles(x), format_cycles(y))
        generating += truth
        certified += truth and _certified(G, x, y)
    # the certificate, not the fallback, decides almost every generating pair
    assert generating > pairs // 2 and certified == generating


def _mobius(F, a, b, c, d):
    """z -> (a z + b) / (c z + d) on the projective line over F; infinity is
    the point F.q."""
    q = F.q

    def image(z):
        if z == q:
            return q if c == 0 else F.div(a, c)
        num, den = F.add(F.mul(a, z), b), F.add(F.mul(c, z), d)
        return q if den == 0 else F.div(num, den)
    return tuple(image(z) for z in range(q + 1))


def _psl2_pair(p, e=1, nu=1):
    # z -> nu z + 1 and z -> -1/z; nu = 1 gives PSL2(q) for prime q, a
    # non-square nu gives PGL2(q)
    F = gf(p, e)
    return F.q + 1, _mobius(F, nu, 1, 0, 1), _mobius(F, 0, F.neg(1), 1, 0)


def _agl1_pair(p, g):
    return p, tuple((z + 1) % p for z in range(p)), tuple(g * z % p for z in range(p))


def _wreath_pair(k):
    # (1 2) and the 2k-cycle interleaving the blocks {1..k} and {k+1..2k}
    n = 2 * k
    y = [0] * n
    for i in range(k):
        y[i], y[k + i] = k + i, (i + 1) % k
    return n, parse_cycles("(1 2)", n), tuple(y)


HARD_CASES = [  # (name, (n, x, y), order of <x, y>)
    ("PSL2(7) on 8 points", _psl2_pair(7), 168),
    ("PGL2(7) on 8 points", _psl2_pair(7, nu=3), 336),
    ("PSL2(8) on 9 points, 7-cycles at p = n - 2", _psl2_pair(2, 3, nu=2), 504),
    ("PSL2(11) on 12 points", _psl2_pair(11), 660),
    ("PGL2(11) on 12 points", _psl2_pair(11, nu=2), 1320),
    ("AGL1(11)", _agl1_pair(11, 2), 110),
    ("AGL1(13)", _agl1_pair(13, 2), 156),
    ("S4 wr S2 on 8 points", _wreath_pair(4), 24 ** 2 * 2),
    ("S5 wr S2 on 10 points, 5-cycles at p = n/2", _wreath_pair(5), 120 ** 2 * 2),
]


@pytest.mark.parametrize("name,case,order", HARD_CASES,
                         ids=[name for name, _, _ in HARD_CASES])
def test_certificate_never_fires_on_proper_subgroups(name, case, order):
    n, x, y = case
    assert BSGS([x, y], n).order == order
    handles = [SymmetricGroup(n)]
    if parity(x) == parity(y) == 0:
        handles.append(AlternatingGroup(n))
    for G in handles:
        assert not _certified(G, x, y)
        assert G.generates(x, y) is False
        assert _bsgs_generates(G, x, y) is False


# -- n <= 7: bounded closure against the BSGS oracle ---------------------------

@pytest.mark.parametrize("desc", ["alt:5", "sym:5"])
def test_closure_decider_agrees_with_bsgs_on_every_pair(desc):
    G = parse_group(desc)
    elements = list(G.iter_elements())
    generating = 0
    for i, x in enumerate(elements):
        for y in elements[i:]:  # <x, y> = <y, x>: one oracle run per pair
            truth = _bsgs_generates(G, x, y)
            assert G.generates(x, y) == G.generates(y, x) == truth, (
                format_cycles(x), format_cycles(y))
            generating += truth * (1 if x == y else 2)
    # P(A5) = 19/30 and P(S5) = 19/40 (P. Hall, 1936)
    assert generating == {"alt:5": 60 ** 2 * 19 // 30, "sym:5": 120 ** 2 * 19 // 40}[desc]


@pytest.mark.parametrize("desc", ["alt:6", "alt:7", "sym:6", "sym:7"])
def test_closure_decider_agrees_with_bsgs_on_random_pairs(desc):
    G = parse_group(desc)
    rng = random.Random(f"closure:{desc}")
    generating = 0
    for _ in range(150):
        x, y = G.random_element(rng), G.random_element(rng)
        truth = _bsgs_generates(G, x, y)
        assert G.generates(x, y) == truth, (format_cycles(x), format_cycles(y))
        generating += truth
    assert 0 < generating < 150


def _fano_pair():
    # a Singer 7-cycle v -> t v of F_8 = F_2[t]/(t^3 + t + 1) and the
    # transvection v -> v + v_0 t on the 7 nonzero vectors: PSL2(7) = GL3(2)
    def singer(v):
        v <<= 1
        return v ^ 0b1011 if v & 0b1000 else v
    x = tuple(singer(v) - 1 for v in range(1, 8))
    y = tuple((v ^ (0b10 if v & 1 else 0)) - 1 for v in range(1, 8))
    return 7, x, y


SMALL_PROPER = [  # (name, (n, x, y), order of <x, y>); the first two sit
    # exactly at the closure bound |G|/n, so an off-by-one bound accepts them
    ("PSL2(5) on 6 points, order |A6|/6", _psl2_pair(5), 60),
    ("PGL2(5) on 6 points, order |S6|/6", _psl2_pair(5, nu=2), 120),
    ("PSL2(7) on 7 points", _fano_pair(), 168),
    ("AGL1(5), z -> 2z odd", _agl1_pair(5, 2), 20),
    ("AGL1(7), z -> 3z odd", _agl1_pair(7, 3), 42),
]


@pytest.mark.parametrize("name,case,order", SMALL_PROPER,
                         ids=[name for name, _, _ in SMALL_PROPER])
def test_closure_decider_refuses_proper_subgroups(name, case, order):
    n, x, y = case
    assert BSGS([x, y], n).order == order
    handles = [SymmetricGroup(n)]
    if parity(x) == parity(y) == 0:
        handles.append(AlternatingGroup(n))
    for G in handles:
        assert G.generates(x, y) is False
        assert _bsgs_generates(G, x, y) is False


def test_intransitive_pair_refused_although_the_walk_meets_a_5_cycle():
    # the certificate proves A_n only for transitive groups: <x, y> = A7
    # fixing the point 8 holds 5-cycles, inside the window for n = 8
    x, y = parse_cycles("(1 2 3 4 5 6 7)", 8), parse_cycles("(1 2 3)", 8)
    assert BSGS([x, y], 8).order == 2520
    for G in (AlternatingGroup(8), SymmetricGroup(8)):
        assert G.generates(x, y) is False
    assert _certified(AlternatingGroup(8), x, y)


def test_even_generators_of_a10_do_not_generate_s10():
    x, y = parse_cycles("(1 2 3)", 10), parse_cycles("(2 3 4 5 6 7 8 9 10)", 10)
    a10, s10 = AlternatingGroup(10), SymmetricGroup(10)
    assert a10.generates(x, y) and _bsgs_generates(a10, x, y)
    assert _certified(s10, x, y)
    assert s10.generates(x, y) is False
    assert s10.generates(parse_cycles("(1 2)", 10), y)


def test_generates_leaves_the_global_rng_untouched():
    random.seed(99)
    state = random.getstate()
    rng = random.Random(3)
    for desc in ("alt:8", "alt:12", "sym:10"):
        G = parse_group(desc)
        for _ in range(10):
            G.generates(G.random_element(rng), G.random_element(rng))
    assert random.getstate() == state


def test_odd_generator_rejected_by_alternating_handle():
    a5 = AlternatingGroup(5)
    with pytest.raises(Exception):
        a5.parse_element("(1 2)")


# -- conjugacy fingerprints -------------------------------------------------

def test_split_five_cycle_classes_in_a5():
    a5 = AlternatingGroup(5)
    x1 = a5.parse_element("(1 2 3 4 5)")
    x2 = a5.parse_element("(1 3 5 2 4)")  # the square lies in the other class
    assert a5.fingerprint(x1) != a5.fingerprint(x2)
    assert a5.fingerprint(x1) == a5.fingerprint(a5.power(x1, 4))


def test_three_cycles_share_fingerprint():
    a5 = AlternatingGroup(5)
    assert a5.fingerprint(a5.parse_element("(1 2 3)")) == \
        a5.fingerprint(a5.parse_element("(2 3 4)"))


def test_different_cycle_types_differ():
    a6 = AlternatingGroup(6)
    assert a6.fingerprint(a6.parse_element("(1 2 3)(4 5 6)")) != \
        a6.fingerprint(a6.parse_element("(1 2 3)"))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_fingerprints_equal_brute_conjugacy_on_an(n):
    from _oracles import brute_partition, fingerprint_partition
    g = AlternatingGroup(n)
    els = list(g.elements())
    assert fingerprint_partition(g, els) == brute_partition(g, els)


def test_sn_classes_are_plain_cycle_types():
    s5 = SymmetricGroup(5)
    x1 = s5.parse_element("(1 2 3 4 5)")
    x2 = s5.parse_element("(1 3 5 2 4)")
    assert s5.fingerprint(x1) == s5.fingerprint(x2)


# -- almost homogeneous machinery -------------------------------------------

def test_construct_almost_homogeneous_examples():
    g = construct_almost_homogeneous(7, 3, 1)
    assert cycle_type(g) == (3, 3, 1) and parity(g) == 0 and perm_order(g) == 3
    g = construct_almost_homogeneous(8, 2, 0)
    assert cycle_type(g) == (2, 2, 2, 2) and parity(g) == 0
    with pytest.raises(GroupError, match="odd"):
        construct_almost_homogeneous(7, 2, 1)  # parity (2-1)*3 odd
    with pytest.raises(GroupError):
        construct_almost_homogeneous(7, 3, 2)  # 5 not a multiple of 3


def test_construct_almost_homogeneous_fuzzed_postconditions():
    rng = random.Random(31)
    checked = 0
    while checked < 1000:
        n = rng.randrange(4, 40)
        m = rng.randrange(2, 9)
        f = rng.randrange(0, n)
        k, rem = divmod(n - f, m)
        if rem or k < 1 or ((m - 1) * k) % 2:
            continue
        g = construct_almost_homogeneous(n, m, f)
        checked += 1
        assert perm_order(g) == m
        assert sum(1 for i, v in enumerate(g) if i == v) == f
        assert parity(g) == 0


def test_select_six_shapes_distinct_fixed_points():
    shapes = select_six_shapes(44, (2, 3, 7, 5, 5, 5))
    fs = [f for (_, _, f) in shapes]
    assert len(set(fs)) == 6
    for m, k, f in shapes:
        g = construct_almost_homogeneous(44, m, f)
        assert perm_order(g) == m


def test_select_six_shapes_duplicate_orders_bump_fixed_points():
    shapes = select_six_shapes(47, (5, 5, 5, 5, 5, 5))
    fs = [f for (_, _, f) in shapes]
    assert len(set(fs)) == 6
    assert all((f - fs[0]) % 5 == 0 for f in fs)


def test_select_six_shapes_infeasible_reports_smallest_feasible():
    with pytest.raises(GroupError, match="smallest feasible"):
        select_six_shapes(11, (2, 2, 2, 2, 2, 2))


def test_six_shapes_powers_never_conjugate_across_shapes():
    n = 44
    shapes = select_six_shapes(n, (2, 3, 7, 5, 5, 5))
    g = AlternatingGroup(n)
    elems = [construct_almost_homogeneous(n, m, f) for m, k, f in shapes]
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            if i == j:
                continue
            for pa in range(1, perm_order(a)):
                for pb in range(1, perm_order(b)):
                    fa = g.fingerprint(g.power(a, pa))
                    fb = g.fingerprint(g.power(b, pb))
                    assert fa != fb


def test_even_order_partition_exactness():
    assert order_partition(5, 7, 0) is None
    assert order_partition(7, 7, 0) == (7,)
    assert order_partition(6, 6, 0) is None       # A6 has no order 6
    assert order_partition(7, 6, 0) is not None   # (2,2,3) on 7 points
    assert order_partition(5, 4, 0) is None       # A5 has no order 4
    assert order_partition(6, 4, 0) is not None   # (4,2)
    assert order_partition(5, 1, 0) == () and order_partition(5, 1, 1) is None
    assert order_partition(5, 4, 1) == (4,)
    # cross-check against a brute scan of element orders
    for n in (5, 6, 7):
        g = AlternatingGroup(n)
        present = {g.order_of(m) for m in g.elements()}
        claimed = {k for k in range(1, math.lcm(*range(1, n + 1)) + 1)
                   if order_partition(n, k, 0) is not None} | {1}
        assert claimed == present


def test_symmetric_element_of_order_falls_back_to_odd():
    g = SymmetricGroup(5)
    assert parity(g.element_of_order(3)) == 0
    for k in (4, 6):  # only odd permutations of S5 have these orders
        m = g.element_of_order(k)
        assert perm_order(m) == k and parity(m) == 1
    with pytest.raises(GroupError, match="no permutation of order 7"):
        g.element_of_order(7)
    # odd shapes against a brute scan of odd element orders
    for n in (5, 6):
        present = {perm_order(m) for m in SymmetricGroup(n).elements() if parity(m)}
        claimed = {k for k in range(1, math.lcm(*range(1, n + 1)) + 1)
                   if order_partition(n, k, 1) is not None}
        assert claimed == present


def test_format_shape():
    assert format_shape(3, 2, 1) == "3^2,1^1"
    assert format_shape(2, 4, 0) == "2^4"


# -- permutation arithmetic --------------------------------------------------

perm_strategy = st.integers(min_value=3, max_value=9).flatmap(
    lambda n: st.permutations(range(n)))


@given(perm_strategy, st.data())
@settings(max_examples=80, deadline=None)
def test_composition_and_inverse_properties(a, data):
    n = len(a)
    a = tuple(a)
    b = tuple(data.draw(st.permutations(range(n))))
    e = tuple(range(n))
    assert perm_mul(a, perm_inv(a)) == e
    assert perm_inv(perm_inv(a)) == a
    assert perm_mul(perm_mul(a, b), perm_inv(b)) == a
    assert perm_order(a) == perm_order(perm_inv(a))
    assert sum(cycle_type(a)) == n


@given(perm_strategy)
@settings(max_examples=60, deadline=None)
def test_cycle_notation_round_trip(a):
    a = tuple(a)
    assert parse_cycles(format_cycles(a), len(a)) == a


def test_parse_cycles_errors():
    for bad in ("(1 2", "(0 1)", "(1 2)(2 3)", "(1 10)"):
        with pytest.raises(GroupError):
            parse_cycles(bad, 5)
    assert parse_cycles("()", 5) == tuple(range(5))


def test_permutation_of_shape_layout_is_deterministic():
    g = permutation_of_shape(7, [3, 2])
    assert format_cycles(g) == "(1 2 3)(4 5)"
