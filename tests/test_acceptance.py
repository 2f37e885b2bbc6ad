"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and time budget is pinned here.
"""
import math
import time
from fractions import Fraction

from beauville.groups import AbelianSquare, parse_group
from beauville.perms import AlternatingGroup
from beauville.psl2 import PSL2
from beauville.counting import (character_table, conjugacy_classes,
                                frobenius_count_character, witten_zeta)
from beauville.probability import (estimate_beauville_probability,
                                   estimate_component_stats,
                                   exact_probability_exhaustive)
from beauville.structures import (find_generating_triple,
                                  is_hurwitz_psl2, search_structure,
                                  sigma_prime_fingerprints, verify_quadruple)

from _oracles import (brute_partition, classify_pair_brute, crafted_psl2_pairs,
                      fingerprint_partition, frobenius_table_brute,
                      sigma_full_fingerprints)


def _report(num, text):
    print(f"ACCEPTANCE {num}: {text} ... PASS")


def test_criterion_1_a5_nonexistence_certificate():
    t0 = time.monotonic()
    out = search_structure(AlternatingGroup(5), "exhaustive")
    elapsed = time.monotonic() - t0
    assert not out.found
    assert out.certificate["exhaustive"]
    assert out.certificate["generating_pairs"] > 0
    assert elapsed < 60, elapsed
    _report(1, f"A5 admits no structure (class-pruned exhaustive, "
               f"{out.certificate['pairs_checked']} pairs, {elapsed:.2f}s < 60s)")


def test_criterion_2_small_group_existence_sweep():
    groups = ["alt:6", "alt:7", "psl2:7", "psl2:2^3", "psl2:11", "psl2:13"]
    for descriptor in groups:
        g = parse_group(descriptor)
        t0 = time.monotonic()
        out = search_structure(g, "auto", seed=7)
        elapsed = time.monotonic() - t0
        assert out.found, descriptor
        assert verify_quadruple(g, *out.quadruple).ok, descriptor
        assert elapsed < 120, (descriptor, elapsed)
        _report(2, f"{descriptor} structure of type "
                   f"({out.report.type1},{out.report.type2}) in {elapsed:.2f}s < 120s")


def test_criterion_3_abelian_criterion_n_2_to_25():
    t0 = time.monotonic()
    for n in range(2, 26):
        out = search_structure(AbelianSquare(n), "exhaustive")
        expected = math.gcd(n, 6) == 1
        assert out.found == expected, (n, out.found, expected)
        if out.found:
            assert verify_quadruple(AbelianSquare(n), *out.quadruple).ok
    elapsed = time.monotonic() - t0
    assert elapsed < 600, elapsed
    _report(3, f"Zn x Zn admits a structure exactly for gcd(n,6)=1, "
               f"n=2..25 exhaustively ({elapsed:.1f}s < 600s)")


def test_criterion_4_named_type_pairs_realized():
    cases = [
        ("psl2:11", (5, 5, 5), (6, 6, 6)),
        ("psl2:11", (5, 5, 5), (6, 6, 11)),
        ("psl2:13", (6, 6, 6), (7, 7, 7)),
    ]
    for descriptor, t1, t2 in cases:
        g = parse_group(descriptor)
        t0 = time.monotonic()
        out = search_structure(g, "macbeath", target_types=(t1, t2))
        elapsed = time.monotonic() - t0
        assert out.found and out.report.ok
        assert out.report.type1 == t1 and out.report.type2 == t2
        assert elapsed < 60, (descriptor, elapsed)
        quad = [g.format_element(m) for m in out.quadruple]
        _report(4, f"{descriptor} type ({t1},{t2}) realized by {quad} "
                   f"({elapsed:.2f}s < 60s)")


def test_criterion_5_frobenius_equivalence():
    t0 = time.monotonic()
    for descriptor in ("alt:5", "alt:6", "psl2:7", "psl2:2^3", "ab:5"):
        g = parse_group(descriptor)
        part = conjugacy_classes(g)
        table = character_table(part)
        k = len(part)
        for i in range(k):
            brute = frobenius_table_brute(part, i)
            for j in range(k):
                for l in range(k):
                    # integer recovery within 1e-6 enforced inside
                    assert frobenius_count_character(table, i, j, l) == brute[j][l]
    elapsed = time.monotonic() - t0
    assert elapsed < 300, elapsed
    _report(5, f"character-sum counts match brute convolution on all class "
               f"triples of A5, A6, PSL2(7), PSL2(8), Z5xZ5 ({elapsed:.1f}s < 300s)")


def test_criterion_6_witten_zeta_trend():
    t0 = time.monotonic()
    values = []
    for (p, e) in [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]:
        table = character_table(PSL2(p, e))
        values.append((p**e, witten_zeta(table.degrees, 2)))
    elapsed = time.monotonic() - t0
    assert all(z > 1 for _, z in values)
    assert all(a[1] > b[1] for a, b in zip(values, values[1:])), values
    assert elapsed < 300, elapsed
    _report(6, "zeta(2) strictly decreasing and > 1 over PSL2(q), "
               f"q=5,7,9,11,13: {[round(z, 5) for _, z in values]} "
               f"({elapsed:.1f}s < 300s)")


def test_criterion_7_probability_bounds_desk_scale():
    # odd q: P in [1/32 - 0.02, 15/16 + 0.02]; even q: upper 35/36 + 0.02
    for descriptor, upper in (("psl2:101", 15 / 16), ("psl2:2^7", 35 / 36)):
        g = parse_group(descriptor)
        t0 = time.monotonic()
        res = estimate_beauville_probability(g, 20_000, seed=1729,
                                             component_stats=False)
        elapsed = time.monotonic() - t0
        lo, hi = 1 / 32 - 0.02, upper + 0.02
        assert lo <= res.estimate <= hi, (descriptor, res.estimate)
        assert elapsed < 120, (descriptor, elapsed)
        _report(7, f"{descriptor}: P^ = {res.estimate:.4f} in "
                   f"[{lo:.4f}, {hi:.4f}] with N=20000, default seed "
                   f"({elapsed:.1f}s < 120s)")


def test_criterion_8_component_limits_q101():
    g = PSL2(101)
    t0 = time.monotonic()
    stats = estimate_component_stats(g, 100_000, seed=1729)
    elapsed = time.monotonic() - t0
    split = stats["split"]["fraction"]
    triple_split = stats["triple_split"]["fraction"]
    generating = stats["generating"]["fraction"]
    assert 0.45 <= split <= 0.55, split
    assert 0.085 <= triple_split <= 0.165, triple_split
    assert generating >= 0.95, generating
    assert elapsed < 120, elapsed
    _report(8, f"psl2:101 with 1e5 samples: split {split:.4f} in [0.45,0.55], "
               f"triple-split {triple_split:.4f} in [0.085,0.165], "
               f"generating {generating:.4f} >= 0.95 ({elapsed:.1f}s < 120s)")


def test_criterion_9_hurwitz_criterion_and_witnesses():
    t0 = time.monotonic()
    primes = [p for p in range(2, 100)
              if all(p % d for d in range(2, p))]
    positives = []
    for p in primes:
        for e in (1, 2, 3):
            expected = (e == 1 and p % 7 in (0, 1, 6)) or \
                       (e == 3 and p % 7 in (2, 3, 4, 5))
            assert is_hurwitz_psl2(p, e) == expected, (p, e)
            if expected and p**e <= 1024:
                positives.append((p, e))
    for (p, e) in positives:
        tri = find_generating_triple(PSL2(p, e), 2, 3, 7)
        g = PSL2(p, e)
        assert g.generates(tri.x, tri.y)
        assert (g.order_of(tri.x), g.order_of(tri.y), g.order_of(tri.z)) == (2, 3, 7)
    elapsed = time.monotonic() - t0
    assert elapsed < 300, elapsed
    _report(9, f"residue rule verified for p < 100, e in 1..3; (2,3,7) "
               f"triples constructed for all {len(positives)} positive cases "
               f"with q <= 1024 ({elapsed:.1f}s < 300s)")


def test_criterion_10_oracle_suites():
    t0 = time.monotonic()
    import random

    # (a) classifier vs BFS closure, random + crafted pairs
    for (p, e) in [(7, 1), (3, 2), (13, 1), (5, 2), (3, 3)]:
        g = PSL2(p, e)
        rng = random.Random(p * 7 + e)
        for x, y in crafted_psl2_pairs(g, rng, n_random=120, n_special=25):
            assert g.classify_pair(x, y) == classify_pair_brute(g, x, y)

    # (b) fingerprints vs brute conjugacy, both realizations
    for descriptor in ("alt:5", "alt:6", "psl2:7", "psl2:11", "psl2:13", "ab:6"):
        g = parse_group(descriptor)
        els = list(g.elements())
        assert fingerprint_partition(g, els) == brute_partition(g, els)

    # (c) prime-order Sigma reduction vs full Sigma enumeration
    for descriptor in ("alt:5", "alt:6", "psl2:7", "psl2:2^3", "ab:5"):
        g = parse_group(descriptor)
        rng = random.Random(11)
        for _ in range(200):
            x1, y1, x2, y2 = (g.random_element(rng) for _ in range(4))
            assert (not (sigma_prime_fingerprints(g, x1, y1)
                         & sigma_prime_fingerprints(g, x2, y2))) == \
                   (not (sigma_full_fingerprints(g, x1, y1)
                         & sigma_full_fingerprints(g, x2, y2)))

    # (d) Monte Carlo vs the exact exhaustive value on Z5 x Z5
    exact = exact_probability_exhaustive(AbelianSquare(5))
    assert exact == Fraction(2304, 78125)
    for n in (1000, 10_000):
        res = estimate_beauville_probability(AbelianSquare(5), n, seed=42)
        lo, hi = res.interval
        assert lo <= float(exact) <= hi
    elapsed = time.monotonic() - t0
    _report(10, f"oracle suites: classifier=BFS, fingerprints=brute conjugacy, "
                f"Sigma reduction=full Sigma, Monte Carlo covers exact P(Z5xZ5) "
                f"({elapsed:.1f}s)")
