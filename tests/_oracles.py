"""Shared oracle helpers: independent brute-force constructions that the
fast paths are checked against."""
from __future__ import annotations

from fractions import Fraction

from beauville.groups import closure
from beauville.numutil import prime_factors
from beauville.psl2 import SubgroupClass
from beauville.structures import sigma_prime_fingerprints


def add_digitwise(F, a, b):
    """a + b in the odd extension field F, summed base-p digit by digit (the
    encoding's definition of addition); a and b may be ints or numpy integer
    arrays, which broadcast."""
    p, value, place = F.p, 0, 1
    for _ in range(F.e):
        value = value + ((a // place) % p + (b // place) % p) % p * place
        place *= p
    return value


def order_of_brute(G, a):
    """Element order by repeated multiplication."""
    k, cur = 1, a
    e = G.identity()
    while cur != e:
        cur = G.multiply(cur, a)
        k += 1
    return k


def classify_pair_brute(G, x, y):
    """PSL2 classification via BFS closure, independent of the trace
    machinery except for element orders.  The closure stops once it
    outgrows the largest proper subgroup, certifying full generation."""
    h = closure(G, (x, y), stop_above=G.proper_subgroup_bound)
    if len(h) > G.proper_subgroup_bound:
        return SubgroupClass("full")
    return G._classify_closure(h)


def frobenius_table_brute(partition, i):
    """All counts N_{X_i, Y_j, Z_k} for a fixed first class in one sweep."""
    G = partition.group
    k = len(partition)
    x = partition.classes[i].representative
    counts = [[0] * k for _ in range(k)]
    for j in range(k):
        for y in partition.members(j):
            kk = partition.class_of(G.inverse(G.multiply(x, y)))
            counts[j][kk] += 1
    size = partition.classes[i].size
    return [[size * c for c in row] for row in counts]


def brute_conjugacy_partition(G, elements=None):
    """Partition into conjugacy classes by orbiting under conjugation.

    Orbits are computed under conjugation by a generating set (any full
    enumeration works since conjugation by products composes), so the cost
    is O(|G| * #gens) group operations rather than O(|G|^2).
    """
    if elements is None:
        elements = list(G.elements())
    gens = _generating_set(G, elements)
    unseen = set(elements)
    classes = []
    for a in elements:
        if a not in unseen:
            continue
        orbit = {a}
        frontier = [a]
        while frontier:
            nxt = []
            for b in frontier:
                for g in gens:
                    c = G.conjugate(g, b)
                    if c not in orbit:
                        orbit.add(c)
                        nxt.append(c)
            frontier = nxt
        unseen -= orbit
        classes.append(orbit)
    return classes


def _generating_set(G, elements):
    """A small generating set found greedily from the enumeration."""
    gens = []
    have = {G.identity()}
    for a in elements:
        if a in have:
            continue
        gens.append(a)
        have = closure(G, gens)
        if len(have) == G.order:
            break
    return gens


def fingerprint_partition(G, elements=None):
    if elements is None:
        elements = list(G.elements())
    parts = {}
    for m in elements:
        parts.setdefault(G.fingerprint(m), set()).add(m)
    return {frozenset(v) for v in parts.values()}


def brute_partition(G, elements=None):
    return {frozenset(c) for c in brute_conjugacy_partition(G, elements)}


def sigma_prime_walk(G, x, y):
    """The prime-order power classes of x, y and z = (x*y)**-1 walked
    element by element, without the per-class memo of
    ``sigma_prime_fingerprints``."""
    z = G.inverse(G.multiply(x, y))
    out = set()
    for g in (x, y, z):
        n = G.order_of(g)
        for r in prime_factors(n) if n > 1 else ():
            h = G.power(g, n // r)
            cur = h
            for _ in range(r - 1):
                out.add(G.fingerprint(cur))
                cur = G.multiply(cur, h)
    return frozenset(out)


def sigma_full_fingerprints(G, x, y):
    """All nontrivial power classes of x, y and z = (x*y)**-1 (the full
    Sigma set as classes), against which the prime-order reduction is
    checked on small groups."""
    z = G.inverse(G.multiply(x, y))
    ident = G.identity()
    out = set()
    for g in (x, y, z):
        cur = g
        while cur != ident:
            out.add(G.fingerprint(cur))
            cur = G.multiply(cur, g)
    return frozenset(out)


def exact_probability_all_pairs(G):
    """P(G) from every ordered generating pair, without class reduction."""
    elements = list(G.elements())
    weights = {}
    for x in elements:
        for y in elements:
            if G.generates(x, y):
                sig = sigma_prime_fingerprints(G, x, y)
                weights[sig] = weights.get(sig, 0) + 1
    total = sum(w1 * w2 for s1, w1 in weights.items()
                for s2, w2 in weights.items() if not s1 & s2)
    return Fraction(total, G.order ** 4)


def subfield_elements(G, d):
    F = G.field
    return [a for a in F.elements() if F.frobenius(a, d) == a]


def random_subfield_sl2(G, d, rng):
    """Uniform-ish element of the standard PSL2(p^d) subgroup."""
    F = G.field
    sub = subfield_elements(G, d)
    while True:
        a, b, c = rng.choice(sub), rng.choice(sub), rng.choice(sub)
        if a == 0:
            continue
        dd = F.mul(F.inv(a), F.add(1, F.mul(b, c)))
        return G._canon((a, b, c, dd))


def random_twisted_pgl(G, d, rng):
    """Element of the PGL2(p^d) outer coset lifted into SL2(q): a subfield
    matrix with nonsquare-in-subfield determinant, scaled by 1/sqrt(det)."""
    F = G.field
    sub = subfield_elements(G, d)
    q1 = G.p**d
    while True:
        a, b, c, dd = (rng.choice(sub) for _ in range(4))
        det = F.sub(F.mul(a, dd), F.mul(b, c))
        if det == 0 or F.pow(det, (q1 - 1) // 2) == 1:
            continue
        s = F.sqrt(det)
        if s is None:
            continue
        si = F.inv(s)
        return G._canon((F.mul(a, si), F.mul(b, si), F.mul(c, si), F.mul(dd, si)))


def crafted_psl2_pairs(G, rng, n_random=300, n_special=40):
    """Random pairs plus directed coverage of every Dickson class."""
    F = G.field
    pairs = [(G.random_element(rng), G.random_element(rng))
             for _ in range(n_random)]
    for _ in range(n_special):
        x = G._canon((1, F.random(rng), 0, 1))
        t = 0
        while t == 0:
            t = F.random(rng)
        y = G._canon((t, F.random(rng), 0, F.inv(t)))
        pairs.append((x, y))
    invs = [m for m in G.elements() if G.order_of(m) == 2]
    for _ in range(n_special):
        pairs.append((rng.choice(invs), rng.choice(invs)))
    if G.e > 1:
        for d in (dd for dd in range(1, G.e) if G.e % dd == 0):
            for _ in range(n_special):
                pairs.append((random_subfield_sl2(G, d, rng),
                              random_subfield_sl2(G, d, rng)))
            if (G.e // d) % 2 == 0 and G.p != 2:
                for _ in range(n_special):
                    a = random_twisted_pgl(G, d, rng)
                    b = rng.choice([random_twisted_pgl(G, d, rng),
                                    random_subfield_sl2(G, d, rng)])
                    pairs.append((a, b))
    for k in (2, 3, 4, 5):
        try:
            mk = G.element_of_order(k)
        except Exception:
            continue
        for _ in range(n_special // 2):
            pairs.append((mk, G.conjugate(G.random_element(rng), mk)))
    return pairs
