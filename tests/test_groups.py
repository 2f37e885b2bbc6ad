import math
import pickle
import random

import pytest

from beauville.counting import ClassPartition
from beauville.groups import (AbelianSquare, CapExceeded, Group, GroupError,
                              HandleMismatch, closure, parse_group)
from beauville.perms import AlternatingGroup, SymmetricGroup
from beauville.psl2 import PSL2

from _oracles import brute_partition, fingerprint_partition, order_of_brute


def test_parse_group_descriptors():
    assert isinstance(parse_group("ab:5"), AbelianSquare)
    assert isinstance(parse_group("alt:6"), AlternatingGroup)
    assert isinstance(parse_group("sym:5"), SymmetricGroup)
    g = parse_group("psl2:2^3")
    assert isinstance(g, PSL2) and g.q == 8
    assert parse_group("psl2:7").order == 168
    for bad in ("foo:3", "alt", "psl2:6"):
        with pytest.raises(GroupError):
            parse_group(bad)


def test_handle_invariants():
    with pytest.raises(GroupError):
        AbelianSquare(1)
    with pytest.raises(GroupError):
        AlternatingGroup(2)
    with pytest.raises(GroupError):
        PSL2(3)  # q = 3 < 4
    assert PSL2(2, 2).order == 60
    assert AlternatingGroup(5).order == 60
    assert SymmetricGroup(5).order == 120
    assert AbelianSquare(7).order == 49


def test_abelian_order_examples():
    g = AbelianSquare(5)
    assert g.order_of((1, 0)) == 5
    assert g.order_of((0, 0)) == 1
    g6 = AbelianSquare(6)
    assert g6.order_of((2, 3)) == 6
    assert g6.order_of((2, 0)) == 3


def _refusal_text(g, k):
    """The GroupError text each realization gives for an order it lacks."""
    if g.kind == "abelian":
        return f"order {k} does not divide n = {g.n}"
    if g.kind == "alternating":
        return f"no even permutation of order {k} on {g.n} points"
    if g.kind == "symmetric":
        return f"no permutation of order {k} on {g.n} points"
    return (f"order {k} not realizable in {g.descriptor()}: orders are 1, p = {g.p}, "
            f"divisors of {g.split_order} and of {g.nonsplit_order}")


@pytest.mark.parametrize("desc", [f"ab:{n}" for n in range(2, 13)]
                         + [f"{kind}:{n}" for kind in ("alt", "sym") for n in range(3, 8)]
                         # the PSL2 fields of test_psl2.WITNESS_SPECS
                         + ["psl2:7", "psl2:13", "psl2:2^3", "psl2:3^2", "psl2:5^2"])
def test_check_order_passes_exactly_for_the_element_orders(desc):
    g = parse_group(desc)
    present = {g.order_of(m) for m in g.elements()}
    for k in range(2, math.lcm(*present) + 3):
        if k in present:
            assert g.check_order(k) is None
        else:
            with pytest.raises(GroupError) as exc:
                g.check_order(k)
            assert str(exc.value) == _refusal_text(g, k)


@pytest.mark.parametrize("desc", ["ab:6", "alt:5", "sym:4", "psl2:7"])
def test_check_order_refuses_every_k_below_2_alike(desc):
    # order 1 is the identity's alone: no realization says it is realizable,
    # and none says it is not while listing 1 among its orders
    g = parse_group(desc)
    for k in (1, 0, -3):
        with pytest.raises(GroupError) as exc:
            g.check_order(k)
        assert str(exc.value) == f"order {k} asked of {desc}: only orders >= 2 are checked"


def test_abelian_generates_examples():
    g = AbelianSquare(5)
    assert g.generates((1, 0), (0, 1))
    assert not g.generates((1, 0), (2, 0))


@pytest.mark.parametrize("n", range(2, 11))
def test_abelian_generates_det_criterion_matches_bfs_closure(n):
    g = AbelianSquare(n)
    for x in g.iter_elements():
        for y in g.iter_elements():
            det_rule = math.gcd((x[0] * y[1] - x[1] * y[0]) % n, n) == 1
            bfs = len(closure(g, (x, y))) == g.order
            assert g.generates(x, y) == bfs == det_rule


def test_enumeration_counts():
    assert len(list(AlternatingGroup(5).elements())) == 60
    assert len(list(PSL2(7).elements())) == 168
    assert len(list(AbelianSquare(4).elements())) == 16
    assert len(list(SymmetricGroup(4).elements())) == 24


def test_enumeration_cap_refusal_reports_size():
    g = AlternatingGroup(9)
    with pytest.raises(CapExceeded) as exc:
        list(g.elements(limit=1000))
    assert exc.value.required == g.order and exc.value.cap == 1000


@pytest.mark.parametrize("descriptor", ["ab:7", "alt:7", "sym:6", "psl2:13", "psl2:2^3"])
def test_lagrange_order_divides_group_order(descriptor):
    g = parse_group(descriptor)
    rng = random.Random(99)
    for _ in range(10_000):
        m = g.random_element(rng)
        assert g.order % g.order_of(m) == 0


@pytest.mark.parametrize("descriptor", ["ab:6", "alt:6", "psl2:11", "psl2:3^2"])
def test_generates_symmetric_and_conjugation_invariant(descriptor):
    g = parse_group(descriptor)
    rng = random.Random(5)
    for _ in range(60):
        x, y, c = (g.random_element(rng) for _ in range(3))
        forward = g.generates(x, y)
        assert forward == g.generates(y, x)
        assert forward == g.generates(g.conjugate(c, x), g.conjugate(c, y))


@pytest.mark.parametrize("descriptor", ["ab:6", "sym:4", "alt:5", "psl2:7"])
def test_centralizer_orbits_partition_the_group_in_order(descriptor):
    g = parse_group(descriptor)
    els = list(g.elements())
    position = {m: i for i, m in enumerate(els)}
    for x in els[::7]:
        cent = [c for c in els if g.conjugate(c, x) == x]
        orbits = [(y, size, {g.conjugate(c, y) for c in cent})
                  for y, size in g.centralizer_orbits(x, els)]
        assert [position[y] for y, _, _ in orbits] == sorted(
            position[y] for y, _, _ in orbits)
        for y, size, orbit in orbits:
            assert size == len(orbit)
            assert min(position[m] for m in orbit) == position[y]
        assert sum(size for _, size, _ in orbits) == g.order


@pytest.mark.parametrize("descriptor", ["alt:5", "alt:6", "sym:5", "psl2:5",
                                        "psl2:7", "psl2:2^3", "psl2:3^2",
                                        "psl2:11", "psl2:13",
                                        "ab:4", "ab:7", "ab:10"])
def test_fingerprint_equality_is_exact_conjugacy(descriptor):
    g = parse_group(descriptor)
    els = list(g.elements())
    assert fingerprint_partition(g, els) == brute_partition(g, els)


def test_group_axioms_spot_checks():
    for descriptor in ("ab:6", "alt:6", "sym:4", "psl2:3^2", "psl2:2^2"):
        g = parse_group(descriptor)
        rng = random.Random(3)
        e = g.identity()
        for _ in range(200):
            a, b, c = (g.random_element(rng) for _ in range(3))
            assert g.multiply(g.multiply(a, b), c) == g.multiply(a, g.multiply(b, c))
            assert g.multiply(a, e) == a and g.multiply(e, a) == a
            assert g.multiply(a, g.inverse(a)) == e
            assert g.order_of(a) == order_of_brute(g, a)


@pytest.mark.parametrize("descriptor", ["ab:6", "alt:5", "psl2:3^2"])
def test_power_with_negative_exponent_is_power_of_inverse(descriptor):
    g = parse_group(descriptor)
    rng = random.Random(5)
    for _ in range(50):
        a = g.random_element(rng)
        assert g.power(a, -1) == g.inverse(a)
        assert g.multiply(g.power(a, -4), g.power(a, 4)) == g.identity()


def test_handle_mismatch_rejected():
    g = AbelianSquare(5)
    with pytest.raises(HandleMismatch):
        g.check_element((1, 7))
    a5 = AlternatingGroup(5)
    with pytest.raises(HandleMismatch):
        a5.check_element((1, 0, 2, 3))          # wrong length
    with pytest.raises(HandleMismatch):
        a5.check_element((1, 0, 2, 3, 4))       # odd permutation
    p7 = PSL2(7)
    with pytest.raises(HandleMismatch):
        p7.check_element((1, 1, 1, 1))          # det != 1


def test_element_text_encodings_round_trip():
    rng = random.Random(12)
    for descriptor in ("ab:9", "alt:7", "sym:6", "psl2:13", "psl2:3^2", "psl2:2^3"):
        g = parse_group(descriptor)
        for _ in range(100):
            m = g.random_element(rng)
            assert g.parse_element(g.format_element(m)) == m


def test_psl2_parse_accepts_either_lift():
    g = PSL2(7)
    m = g.parse_element("[[1,1],[0,1]]")
    m_neg = g.parse_element("[[6,6],[0,6]]")
    assert m == m_neg


def _read_pair_plain(g, x, y):
    """(generates, orders) from the plain contract: generates, multiply
    and order_of."""
    return g.generates(x, y), tuple(map(g.order_of, (x, y, g.multiply(x, y))))


@pytest.mark.parametrize("descriptor", ["psl2:5", "psl2:7", "psl2:2^2",
                                        "psl2:2^3", "psl2:3^2"])
def test_psl2_read_pair_matches_the_plain_contract(descriptor):
    # every pair of the three smallest groups; x over class representatives
    # (the identity included) and every y for the other two.  y = x**-1 and
    # the singular triples of x = +-I are among these pairs
    g = parse_group(descriptor)
    elements = list(g.elements())
    xs = elements if g.order <= 168 else [
        c.representative for c in ClassPartition(g).classes]
    for x in xs:
        for y in elements:
            assert g.read_pair(x, y) == _read_pair_plain(g, x, y), (
                g.format_element(x), g.format_element(y))


@pytest.mark.parametrize("descriptor", ["alt:6", "sym:5", "ab:6"])
def test_read_pair_orders_only_generating_pairs(descriptor):
    g = parse_group(descriptor)
    rng = random.Random(16)
    seen = set()
    for _ in range(400):
        x, y = g.random_element(rng), g.random_element(rng)
        gen, orders = g.read_pair(x, y)
        plain_gen, plain_orders = _read_pair_plain(g, x, y)
        assert gen == plain_gen
        assert orders == (plain_orders if gen else None)
        seen.add(gen)
    assert seen == {False, True}


@pytest.mark.parametrize("n", range(2, 10))
def test_abelian_read_pair_matches_the_base_read(n):
    # the closed form (n, n, n) against the base read's products and orders
    g = AbelianSquare(n)
    elements = list(g.elements())
    for x in elements:
        for y in elements:
            assert g.read_pair(x, y) == Group.read_pair(g, x, y), (x, y)


@pytest.mark.parametrize("descriptor", ["psl2:3^2", "alt:6", "sym:5", "ab:7"])
def test_pickled_handle_is_a_fresh_equal_handle(descriptor):
    # pool workers receive the caller's handle this way: rebuilt from its
    # descriptor, with none of the caller's memos
    g = parse_group(descriptor)
    x = g.random_element(random.Random(17))
    sigma = g.prime_power_classes(x)
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and copy is not g and type(copy) is type(g)
    assert "_sigma_memo" in vars(g) and "_sigma_memo" not in vars(copy)
    assert copy.sigma_classes(copy.prime_power_classes(x)) == g.sigma_classes(sigma)
