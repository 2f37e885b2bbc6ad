import hashlib
import math
import random
from collections import Counter

import pytest

from beauville.fields import GF
from beauville.groups import GroupError
from beauville.numutil import is_prime
from beauville.psl2 import PSL2, SubgroupClass

from _oracles import (classify_pair_brute, classify_pair_generic, classify_traces_generic,
                      crafted_psl2_pairs, element_of_order, order_of_brute,
                      random_element_generic, trace_identity, traces_by_order_brute)

MACBEATH_SPECS = [(5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
                  (5, 2), (7, 2), (101, 1)]
CLASSIFIER_SPECS = [(7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (17, 1),
                    (19, 1), (23, 1), (5, 2), (3, 3)]


# -- orders and split types ---------------------------------------------------

def split_type(g, m):
    """The split / non-split / unipotent / identity label of an element."""
    return g.order_type(g.order_of(m))


def test_unipotent_order_is_p():
    g = PSL2(7)
    u = g.parse_element("[[1,1],[0,1]]")
    assert g.order_of(u) == 7
    assert split_type(g, u) == "unipotent"
    g11 = PSL2(11)
    assert g11.order_of(element_of_order(g11, 11)) == 11
    assert split_type(g11, element_of_order(g11, 11)) == "unipotent"


@pytest.mark.parametrize("p,e", [(2, 4), (3, 3)])
def test_order_memo_filled_by_traces_by_order_matches_brute(p, e):
    g = PSL2(p, e)
    by_order = g.traces_by_order()
    # the scan memoized the order of every semisimple trace, beside the
    # seeded unipotent traces +-2 ...
    assert sorted(g._order_by_trace) == list(g.field.elements())
    assert g._order_by_trace[g.field.two] == g._order_by_trace[g.field.minus_two] == p
    assert all(g._order_by_trace[a] == k for k, traces in by_order.items() for a in traces)
    # ... and order_of answers every element of every class from it
    for m in g.elements():
        assert g.order_of(m) == order_of_brute(g, m)


def test_split_type_examples_psl2_7():
    g = PSL2(7)
    assert split_type(g, element_of_order(g, 3)) == "split"      # 3 = (q-1)/2
    assert split_type(g, element_of_order(g, 4)) == "nonsplit"   # 4 = (q+1)/2
    assert split_type(g, g.identity()) == "identity"


@pytest.mark.parametrize("p,e", [(7, 1), (2, 3), (3, 2), (11, 1), (13, 1)])
def test_split_type_consistent_with_order_divisibility(p, e):
    g = PSL2(p, e)
    for m in g.elements():
        st = split_type(g, m)
        k = g.order_of(m)
        assert k == order_of_brute(g, m)
        if st in ("split", "nonsplit"):
            # split_type reads the order, so also check it against the
            # independent eigenvalue test: x**2 - a*x + 1 has a root in GF(q)
            a = g.trace(m)
            assert (st == "split") == bool(g.field.solve_quadratic(1, g.field.neg(a), 1))
        if st == "split":
            assert k > 1 and g.split_order % k == 0
        elif st == "nonsplit":
            assert k > 1 and g.nonsplit_order % k == 0
        elif st == "unipotent":
            assert k == p
        else:
            assert k == 1


WITNESS_SPECS = [(7, 1), (13, 1), (2, 3), (3, 2), (5, 2)]


def test_find_element_of_order_witnesses():
    for (p, e) in WITNESS_SPECS:
        g = PSL2(p, e)
        for k in sorted({1, p} | set(traces_by_order_brute(g)[0])):
            assert g.order_of(element_of_order(g, k)) == k


def test_unrealizable_order_refused_before_any_torus_walk():
    # every k that is not an element order, refused on a fresh handle
    for (p, e) in WITNESS_SPECS:
        orders = {p} | set(traces_by_order_brute(PSL2(p, e))[0])
        for k in sorted(set(range(p**e + 2)) - orders):
            g = PSL2(p, e)
            text = "not realizable" if k >= 2 else "only orders >= 2"
            with pytest.raises(GroupError, match=text):
                g.traces_of_order(k)
            assert g._traces_by_order_cache is None
    g = PSL2(1000003)  # neither 500001 nor 500002 is a multiple of 1000
    with pytest.raises(GroupError, match="not realizable"):
        g.traces_of_order(1000)
    assert g._traces_by_order_cache is None


def test_unrealizable_order_rejected_with_divisor_analysis():
    g = PSL2(7)
    from beauville.groups import GroupError
    with pytest.raises(GroupError, match="divisors"):
        g.check_order(5)


# -- singular triples ---------------------------------------------------------

def test_singular_examples_gf7():
    g = PSL2(7)
    for triple, singular in (((2, 2, 2), True),      # 4+4+4-8-4 = 0
                             ((0, 0, 0), False),     # -4 != 0 mod 7
                             ((3, 3, 3), False)):    # 27-27-4 = 3 mod 7
        assert trace_identity(g, *triple) == singular
        assert (g.classify_traces(*triple).kind == "structural") == singular


# the classes every class-reduced pair reaches: the small closures give
# A4, S4 and A5 (PSL2(3), PGL2(3) and PSL2(4) inside PSL2(9)) and, for
# q = 4 and 5, the whole group
EXHAUSTIVE_KINDS = {
    (2, 2): {"structural", "dihedral", "full"},
    (5, 1): {"structural", "dihedral", "a4", "full"},
    (7, 1): {"structural", "dihedral", "a4", "s4", "full"},
    (2, 3): {"structural", "dihedral", "full"},
    (3, 2): {"structural", "dihedral", "a4", "s4", "a5", "full"},
    (11, 1): {"structural", "dihedral", "a4", "a5", "full"},
}


def _class_reduced_pairs(g):
    """Every pair up to simultaneous conjugation: x a class representative."""
    reps = {}
    for m in g.elements():
        reps.setdefault(g.fingerprint(m), m)
    return [(x, y) for x in reps.values() for y in g.elements()]


@pytest.mark.parametrize("p,e", sorted(EXHAUSTIVE_KINDS))
def test_singular_iff_structural_exhaustive(p, e):
    # Every pair, reduced by simultaneous conjugation (x ranges over class
    # representatives): the trace identity must match the BFS closure being
    # a structural subgroup (cyclic or inside a Borel) and classify_traces
    # answering 'structural', and classify_pair must match the closure's
    # structural class, which checks the size rule for small closures on
    # every pair of these fields
    g = PSL2(p, e)
    kinds = set()
    for x, y in _class_reduced_pairs(g):
        lift = g._mat_mul(x, y)
        traces = (g.trace(x), g.trace(y), g.field.add(lift[0], lift[3]))
        singular = trace_identity(g, *traces)
        brute = classify_pair_brute(g, x, y)
        assert singular == (brute.kind == "structural"), (p, e, x, y)
        assert singular == (g.classify_traces(*traces, (x, y)).kind == "structural")
        assert g.classify_pair(x, y) == brute, (p, e, x, y)
        kinds.add(str(brute))
    assert kinds == EXHAUSTIVE_KINDS[(p, e)]


@pytest.mark.parametrize("p,e", [(7, 1), (2, 3), (3, 2), (11, 1), (5, 2), (7, 2)])
def test_fact_a_the_traces_alone_fix_the_class_and_orders(p, e):
    # Macbeath's theorem, on which an exhausted triple sweep's nonexistence
    # certificate rests: classified without its pair, a trace triple gives
    # the class, subfield fields and orders of every pair with those traces
    # (every class-reduced pair of the small fields; random and crafted
    # pairs, with PSL and PGL subfield verdicts, of 5^2 and 7^2)
    g = PSL2(p, e)
    if e == 2 and p > 3:
        pairs = crafted_psl2_pairs(g, random.Random(31 * p), n_random=300, n_special=60)
    else:
        pairs = _class_reduced_pairs(g)
    kinds = Counter()
    for x, y in pairs:
        lift = g._mat_mul(x, y)
        got = g.classify_traces(g.trace(x), g.trace(y), g.field.add(lift[0], lift[3]))
        want = g.classify_pair(x, y)
        assert got == want, (x, y)  # kind and subfield fields; orders apart
        assert got.orders == (None if want.kind == "structural" else want.orders), (x, y)
        kinds[str(want)] += 1
    if e == 2 and p > 3:  # PSL2(5) = A5 takes that name
        assert kinds["subfield(:1, pgl)"] and (p == 5 or kinds["subfield(:1, psl)"])


# -- the trace-triple solver ----------------------------------------------------

@pytest.mark.parametrize("p,e", MACBEATH_SPECS)
def test_trace_solver_postcondition_10k_random_triples(p, e):
    g = PSL2(p, e)
    F = g.field
    rng = random.Random(p * 31 + e)
    for _ in range(10_000):
        a, b, c = F.random(rng), F.random(rng), F.random(rng)
        A, B, C = g.solve_trace_triple(a, b, c)
        # the solver self-checks, but assert the contract independently
        tr = lambda m: F.add(m[0], m[3])
        assert (tr(A), tr(B), tr(C)) == (a, b, c)
        assert g._mat_mul(g._mat_mul(A, B), C) == (1, 0, 0, 1)


def test_trace_solver_deterministic():
    g = PSL2(13)
    assert g.solve_trace_triple(3, 5, 7) == g.solve_trace_triple(3, 5, 7)


def test_trace_solver_gf5_matches_brute_force():
    g = PSL2(5)
    F = g.field
    sl2 = [(a, b, c, d) for a in range(5) for b in range(5) for c in range(5)
           for d in range(5) if (a * d - b * c) % 5 == 1]
    tr = lambda m: (m[0] + m[3]) % 5
    brute = []
    for A in sl2:
        if tr(A) != 0:
            continue
        for B in sl2:
            if tr(B) != 0:
                continue
            C = g._mat_inv(g._mat_mul(A, B))
            if tr(C) == 0:
                brute.append((A, B, C))
    assert brute, "brute search must find (0,0,0) triples"
    got = g.solve_trace_triple(0, 0, 0)
    assert got in brute


def test_trace_solver_identity_trace_case():
    # (2, b, b) with b^2 - 4 = 5 a non-square mod 7: no B completes
    # companion(2), so the solution comes from the rotation (b, g, a) and
    # its middle matrix is companion(3)
    g = PSL2(7)
    A, B, C = g.solve_trace_triple(2, 3, 3)
    F = g.field
    assert F.add(A[0], A[3]) == 2
    assert B == (0, F.minus_one, 1, 3)
    assert g._mat_mul(g._mat_mul(A, B), C) == (1, 0, 0, 1)


# sha256 over repr(solve_trace_triple(a, b, g)) for every triple in
# encoding order: pins which solution the deterministic sweep returns
PINNED_SOLVER_DIGESTS = {
    (7, 1): "0f810d760518c385adfdc4cb8f061a2af627a4bce429c95253791528805bfcf8",
    (2, 3): "6ea0b028bfe1e869c810963de75a28e152551a7eef55e4d58760f9f9b0c22a2c",
    (3, 2): "da522464af9093baeed66f6bb10248d7d255fdd5d22d6c9e623ddd83a64c86ba",
    (11, 1): "7a1c8523b9471aa55473bf1f00acc2a930d40e584f8deb735771bb007af1478e",
}


@pytest.mark.parametrize("p,e", sorted(PINNED_SOLVER_DIGESTS))
def test_trace_solver_pinned_digest(p, e):
    g = PSL2(p, e)
    F = g.field
    h = hashlib.sha256()
    for a in F.elements():
        for b in F.elements():
            for c in F.elements():
                h.update(repr(g.solve_trace_triple(a, b, c)).encode())
    assert h.hexdigest() == PINNED_SOLVER_DIGESTS[(p, e)]


@pytest.mark.parametrize("p,e", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
                                 (13, 1), (2, 4), (17, 1), (19, 1), (23, 1),
                                 (5, 2), (3, 3)])
def test_trace_solver_postcondition_every_triple(p, e):
    # every trace triple of every field with q <= 27 is solved (the
    # two-rotation companion sweep is complete)
    g = PSL2(p, e)
    F = g.field
    tr = lambda m: F.add(m[0], m[3])
    for a in F.elements():
        for b in F.elements():
            for c in F.elements():
                A, B, C = g.solve_trace_triple(a, b, c)
                assert (tr(A), tr(B), tr(C)) == (a, b, c)
                assert g._mat_mul(g._mat_mul(A, B), C) == (1, 0, 0, 1)
                assert all(g.determinant(m) == 1 for m in (A, B, C))


@pytest.mark.parametrize("p,e", [(7, 1), (2, 3), (3, 2), (11, 1)])
def test_non_singular_triples_solve_to_non_scalar_matrices(p, e):
    # B = +-I forces b = +-2 and g = +-a, so a**2 + b**2 + g**2 - abg = 4
    # (likewise A and C): no matrix of a non-singular triple is scalar, so
    # each has the projective order its trace has
    g = PSL2(p, e)
    F = g.field
    scalars = {(1, 0, 0, 1), (F.minus_one, 0, 0, F.minus_one)}
    solved = 0
    for a in F.elements():
        for b in F.elements():
            for c in F.elements():
                if trace_identity(g, a, b, c):
                    assert g.classify_traces(a, b, c).kind == "structural"
                    continue
                assert g.classify_traces(a, b, c).kind != "structural"
                assert not scalars & set(g.solve_trace_triple(a, b, c))
                solved += 1
    assert solved


# -- conjugacy fingerprints -----------------------------------------------------

def test_two_unipotent_classes_distinct_psl2_7():
    g = PSL2(7)
    fps = {g.fingerprint(m) for m in g.elements() if g.order_of(m) == 7}
    assert len(fps) == 2


def test_inverse_shares_fingerprint_matching_brute():
    g = PSL2(7)
    x = element_of_order(g, 3)
    assert g.fingerprint(x) == g.fingerprint(g.inverse(x))
    # brute confirmation: some h conjugates x to x^-1
    found = any(g.conjugate(h, x) == g.inverse(x) for h in g.elements())
    assert found


def test_identity_fingerprint_distinguished():
    g = PSL2(3, 2)
    fps = {g.fingerprint(m) for m in g.elements()}
    assert ("1",) in fps
    assert sum(1 for m in g.elements() if g.fingerprint(m) == ("1",)) == 1


# -- subgroup classification -----------------------------------------------------

def test_same_element_pair_is_structural():
    g = PSL2(7)
    rng = random.Random(0)
    for _ in range(50):
        x = g.random_element(rng)
        assert g.classify_pair(x, x).kind == "structural"


def test_full_order_pattern_example_q13():
    # |x| = |y| = |xy| = 6 = (q-1)/2 with non-singular traces generates G
    g = PSL2(13)
    from beauville.structures import find_generating_triple
    tri = find_generating_triple(g, 6, 6, 6)
    assert g.classify_pair(tri.x, tri.y) == SubgroupClass("full")


def test_subfield_pair_detected_in_psl2_49():
    from _oracles import random_subfield_sl2
    g = PSL2(7, 2)
    rng = random.Random(4)
    hits = 0
    for _ in range(60):
        x = random_subfield_sl2(g, 1, rng)
        y = random_subfield_sl2(g, 1, rng)
        cls = g.classify_pair(x, y)
        assert cls.kind != "full"
        if cls.kind == "subfield":
            assert cls.subfield_degree == 1
            hits += 1
            assert cls == classify_pair_brute(g, x, y)
    assert hits > 10


@pytest.mark.parametrize("p,e", CLASSIFIER_SPECS)
def test_classifier_agrees_with_bfs_oracle_1000_random_pairs(p, e):
    g = PSL2(p, e)
    rng = random.Random(10_000 * p + e)
    for _ in range(1000):
        x, y = g.random_element(rng), g.random_element(rng)
        assert g.classify_pair(x, y) == classify_pair_brute(g, x, y)


@pytest.mark.parametrize("p,e", [(7, 1), (2, 3), (3, 2), (13, 1), (5, 2), (3, 3)])
def test_classifier_agrees_with_bfs_oracle_crafted_pairs(p, e):
    g = PSL2(p, e)
    rng = random.Random(99 * p + e)
    for x, y in crafted_psl2_pairs(g, rng, n_random=80, n_special=40):
        assert g.classify_pair(x, y) == classify_pair_brute(g, x, y)


def test_classifier_on_deep_subfield_tower_q81():
    # e = 4 has proper subfields of degree 1 and 2, with the PGL twist
    # available at both depths; exercises the lcm-of-degrees invariant
    g = PSL2(3, 4)
    rng = random.Random(81)
    kinds = set()
    for x, y in crafted_psl2_pairs(g, rng, n_random=150, n_special=30):
        cls = g.classify_pair(x, y)
        assert cls == classify_pair_brute(g, x, y)
        kinds.add((cls.kind, cls.subfield_kind))
    assert ("subfield", "pgl") in kinds and ("subfield", "psl") in kinds


@pytest.mark.parametrize("p,e,any_subfield", [
    (3, 2, False), (5, 2, True), (7, 2, True), (3, 3, False), (2, 4, False),
    (3, 4, True), (2, 6, True)])
def test_subfield_verdicts_have_a_proved_twist_count(p, e, any_subfield):
    # the PSL / PGL verdict rests on this count: a subfield pair has 0 or 2
    # of the traces a, b, g outside F_{p^d0}, or 1 beside a zero trace.
    # Over 3^2, 3^3 and 2^4 every subfield group is dihedral, A4, S4 or A5
    # and takes that name
    g = PSL2(p, e)
    F = g.field
    rng = random.Random(7 * p + e)
    seen = 0
    for x, y in crafted_psl2_pairs(g, rng, n_random=60, n_special=20):
        cls = g.classify_pair(x, y)
        if cls.kind != "subfield":
            continue
        xy = g._mat_mul(x, y)
        traces = (g.trace(x), g.trace(y), F.add(xy[0], xy[3]))
        twisted = sum(cls.subfield_degree % F.subfield_degree(v) != 0 for v in traces)
        assert twisted in (0, 2) or (twisted == 1 and 0 in traces)
        assert cls.subfield_kind == ("pgl" if twisted else "psl")
        seen += 1
    assert bool(seen) == any_subfield


# -- sampling ----------------------------------------------------------------

def test_unipotent_fraction_at_most_2_over_q():
    # exact unipotent count is q^2 - 1 of q(q^2-1)/2 elements, i.e. 2/q
    for p in (101, 127):
        g = PSL2(p)
        rng = random.Random(p)
        n = 20_000
        hits = sum(1 for _ in range(n)
                   if split_type(g, g.random_element(rng)) == "unipotent")
        slack = 4 * math.sqrt((2 / p) / n)
        assert hits / n <= 2 / p + slack


def test_split_and_nonsplit_roughly_balanced_q101():
    g = PSL2(101)
    rng = random.Random(7)
    n = 20_000
    counts = Counter(split_type(g, g.random_element(rng)) for _ in range(n))
    assert 0.45 <= counts["split"] / n <= 0.55
    assert 0.45 <= counts["nonsplit"] / n <= 0.55


def test_random_element_chi_square_uniform_over_trace_buckets_q101():
    # exact bucket probabilities from full enumeration (515100 elements),
    # then a chi-square test at significance 0.01 on 1e5 samples
    from scipy.stats import chi2
    g = PSL2(101)
    exact = Counter(g.trace(m) for m in g.elements())
    total = sum(exact.values())
    assert total == g.order
    rng = random.Random(123)
    n = 100_000
    observed = Counter(g.trace(g.random_element(rng)) for _ in range(n))
    stat = 0.0
    for bucket, cnt in exact.items():
        expected = n * cnt / total
        stat += (observed.get(bucket, 0) - expected) ** 2 / expected
    dof = len(exact) - 1
    assert stat < chi2.ppf(0.99, dof), (stat, dof)


def test_enumeration_count_examples():
    assert len(list(PSL2(7).elements())) == 168      # 7*48/2
    assert len(list(PSL2(2, 2).elements())) == 60


def test_canonical_payloads_unique():
    g = PSL2(11)
    els = list(g.elements())
    assert len(els) == len(set(els)) == g.order
    for m in els[:200]:
        g.check_element(m)


# -- the fused product ---------------------------------------------------------

@pytest.mark.parametrize("p,e", [(5, 1), (2, 2), (7, 1)])
def test_product_matches_canon_of_mat_mul_on_every_pair(p, e):
    g = PSL2(p, e)
    els = list(g.elements())
    assert all(g.multiply(m, n) == g._canon(g._mat_mul(m, n)) for m in els for n in els)


@pytest.mark.parametrize("p,e", [(2, 3), (3, 2), (5, 2), (3, 3), (2, 6), (101, 1),
                                 (1000003, 1), (2, 7), (3, 5), (2, 13), (2, 8), (5, 4)])
def test_product_matches_canon_of_mat_mul_on_random_pairs(p, e):
    # table path up to q = 64, prime path with a large p, log path past 64
    # (the expression itself when an entry is 0)
    g, rng = PSL2(p, e), random.Random(p ** e)
    for _ in range(3000):
        m, n = g.random_element(rng), g.random_element(rng)
        assert g.multiply(m, n) == g._canon(g._mat_mul(m, n)), (m, n)
    assert ("_product_tables" in vars(g)) == (e > 1 and g.q <= 64)
    assert "multiply" not in vars(g)  # the class function, as tracers wrap it


TRACE_ORACLE_GROUPS = [(p, e) for p in range(2, 1025) if is_prime(p)
                       for e in range(1, 11) if 4 <= p ** e <= 1024]
TRACE_ORACLE_GROUPS += [(10007, 1), (2, 13), (3, 7)]


@pytest.mark.parametrize("p,e", TRACE_ORACLE_GROUPS)
def test_traces_by_order_matches_per_trace_ladder_scan(p, e):
    g = PSL2(p, e)
    table, orders = traces_by_order_brute(g)
    assert list(g.traces_by_order().items()) == list(table.items())
    assert g._order_by_trace == {**orders, g.field.two: p, g.field.minus_two: p}


# -- the table draw and classifier ---------------------------------------------------

# psl2:257 rejects about half of its getrandbits(9) draws, and the small
# fields draw a = 0 and zero entries often
@pytest.mark.parametrize("p,e", [(5, 1), (7, 1), (101, 1), (257, 1), (1009, 1), (2, 2),
                                 (2, 3), (3, 2), (2, 7), (3, 5), (5, 3), (2, 9)])
def test_draw_matches_the_field_generic_draw(p, e):
    # the same elements from the same random bits: a Monte Carlo stream drawn
    # by the inline getrandbits loop, through residues or log tables, is the
    # one drawn by randrange(q) and GF methods
    g = PSL2(p, e)
    for seed in range(1000):
        fused, generic = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert g.random_element(fused) == random_element_generic(g, generic)
        assert fused.getstate() == generic.getstate()


def _classify_against_bfs(g, pairs):
    for x, y in pairs:
        cls = g.classify_pair(x, y)
        assert cls == classify_pair_brute(g, x, y), (x, y)
        assert cls.orders == (order_of_brute(g, x), order_of_brute(g, y),
                              order_of_brute(g, g.multiply(x, y))), (x, y)


def test_prime_field_classifier_matches_the_bfs_oracle_on_every_pair_of_psl2_7():
    g = PSL2(7)
    els = list(g.elements())
    _classify_against_bfs(g, ((x, y) for x in els for y in els))


def test_prime_field_classifier_matches_the_bfs_oracle_on_random_pairs_of_psl2_101():
    g, rng = PSL2(101), random.Random(101)
    _classify_against_bfs(g, [(g.random_element(rng), g.random_element(rng)) for _ in range(2000)])


def _classify_against_generic(g, triples, pairs):
    for a, b, c in triples:
        cls, ref = g.classify_traces(a, b, c), classify_traces_generic(g, a, b, c)
        assert (cls, cls.orders) == (ref, ref.orders), (a, b, c)
    for x, y in pairs:
        cls, ref = g.classify_pair(x, y), classify_pair_generic(g, x, y)
        assert (cls, cls.orders) == (ref, ref.orders), (x, y)


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (5, 2), (2, 4), (3, 3)])
def test_extension_field_classifier_matches_the_generic_one_on_every_triple(p, e):
    g, rng = PSL2(p, e), random.Random(p ** e)
    els = range(g.q)
    _classify_against_generic(g, ((a, b, c) for a in els for b in els for c in els),
                              [(g.random_element(rng), g.random_element(rng)) for _ in range(2000)])


@pytest.mark.parametrize("p,e", [(2, 6), (3, 4), (2, 7), (3, 5), (2, 9), (5, 3)])
def test_extension_field_classifier_matches_the_generic_one_on_random_triples(p, e):
    g, rng = PSL2(p, e), random.Random(p ** e)
    q = g.q
    _classify_against_generic(g, [(rng.randrange(q), rng.randrange(q), rng.randrange(q))
                                  for _ in range(20000)],
                              [(g.random_element(rng), g.random_element(rng)) for _ in range(2000)])


@pytest.mark.parametrize("p,e", [(2, 7), (3, 5)])
def test_extension_field_draw_and_classifier_call_no_field_method(p, e, monkeypatch):
    # once the order memo is full, a draw and a classify_pair are table reads;
    # only the small-order closure, which multiplies, may reach GF
    g, rng, calls = PSL2(p, e), random.Random(e), Counter()
    g.traces_by_order()
    for name in ("mul", "add", "sub", "neg", "inv", "subfield_degree"):
        def counted(self, *args, _name=name, _method=getattr(GF, name)):
            calls[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(GF, name, counted)
    checked = 0
    for _ in range(1000):
        x, y = g.random_element(rng), g.random_element(rng)
        assert not calls, (x, y, calls)
        cls = g.classify_pair(x, y)
        if max(cls.orders) > 5:
            assert not calls, (x, y, cls, calls)
            checked += 1
        calls.clear()
    assert checked > 950


def test_full_classes_are_shared_and_compare_as_before():
    g, rng = PSL2(2, 7), random.Random(7)
    pairs = ((g.random_element(rng), g.random_element(rng)) for _ in range(200))
    full = [cls for cls in (g.classify_pair(x, y) for x, y in pairs) if cls.kind == "full"]
    by_orders = {}
    for cls in full:
        assert by_orders.setdefault(cls.orders, cls) is cls  # one instance per orders
        assert cls == SubgroupClass("full") and hash(cls) == hash(SubgroupClass("full"))
        assert repr(cls) == "SubgroupClass(kind='full', subfield_degree=None, subfield_kind=None)"
    assert len(full) > 2 * len(by_orders)
