"""Shared oracle helpers: independent brute-force constructions that the
fast paths are checked against."""
from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from beauville.fields import _is_irreducible, _poly_mulmod
from beauville.counting import ClassPartition
from beauville.groups import GroupError, closure
from beauville.numutil import prime_factors
from beauville.psl2 import SubgroupClass
from beauville.structures import PairCensus, sigma_prime_fingerprints


def add_digitwise(F, a, b):
    """a + b in the odd extension field F, summed base-p digit by digit (the
    encoding's definition of addition); a and b may be ints or numpy integer
    arrays, which broadcast."""
    p, value, place = F.p, 0, 1
    for _ in range(F.e):
        value = value + ((a // place) % p + (b // place) % p) % p * place
        place *= p
    return value


def field_tables_brute(p, e):
    """(modulus, generator, exp, log, zech, neg, digits) of GF(p**e), e > 1:
    the first monic candidate passing the Rabin test, and tables built with
    one polynomial product per power of the generator; zech and neg (None
    for p = 2) come from digit-wise arithmetic."""
    q = p**e
    digits = []
    for a in range(q):
        v, row = a, []
        for _ in range(e):
            row.append(v % p)
            v //= p
        digits.append(tuple(row))
    mod = next(list(row) + [1] for row in digits if _is_irreducible(list(row) + [1], p))

    def raw_mul(x, y):
        value = 0
        for c in reversed(_poly_mulmod(list(digits[x]), list(digits[y]), mod, p)):
            value = value * p + c
        return value

    def raw_pow(a, k):
        result = 1
        while k:
            if k & 1:
                result = raw_mul(result, a)
            a = raw_mul(a, a)
            k >>= 1
        return result

    gen = next(c for c in range(2, q)
               if all(raw_pow(c, (q - 1) // r) != 1 for r in prime_factors(q - 1)))
    exp, log = [1] * (2 * (q - 1)), [0] * q
    cur = 1
    for k in range(q - 1):
        exp[k] = exp[k + q - 1] = cur
        log[cur] = k
        cur = raw_mul(cur, gen)
    if p == 2:
        return tuple(mod), gen, exp, log, None, None, digits
    field = SimpleNamespace(p=p, e=e)
    sums = [add_digitwise(field, 1, v) for v in exp[:q - 1]]
    zech = [log[s] if s else -1 for s in sums]
    neg = [sum((-c % p) * p**i for i, c in enumerate(row)) for row in digits]
    return tuple(mod), gen, exp, log, zech, neg, digits


def traces_by_order_brute(G):
    """(traces by order, order by trace) of PSL2 ``G`` from a scan of every
    semisimple trace in encoding order, each order by a Lucas-ladder
    descent from the order of its torus; the torus is split when the
    eigenvalue equation x**2 - a*x + 1 = 0 has a root in GF(q)."""
    F = G.field
    pm2 = (F.two, F.minus_two)
    table, orders = {}, {}
    for a in F.elements():
        if a in pm2:
            continue
        m = G.split_order if F.solve_quadratic(1, F.neg(a), 1) else G.nonsplit_order
        order = m
        for r in prime_factors(m):
            while order % r == 0 and G.lucas_trace(order // r, a) in pm2:
                order //= r
        orders[a] = order
        table.setdefault(order, []).append(a)
    return table, orders


def element_of_order(G, k):
    """A witness of exact projective order k in PSL2 ``G``: the identity,
    the unipotent [[1,1],[0,1]] for k = p, else the companion matrix
    [[0,-1],[1,a]] of the first trace a of order k; GroupError from
    ``check_order`` when no element has order k."""
    if k == 1:
        return G.identity()
    if k == G.p:
        return G._canon((1, 1, 0, 1))
    a = G.traces_of_order(k)[0]
    return G._canon((0, G.field.minus_one, 1, a))


def random_element_generic(G, rng):
    """A uniform element of PSL2 ``G`` drawn through the field's methods,
    as ``PSL2.random_element`` draws on an extension field: (a, b) != 0,
    then c when a != 0 (d is forced), else d (c = -1/b)."""
    F = G.field
    while True:
        a, b = F.random(rng), F.random(rng)
        if a or b:
            break
    if a:
        c = F.random(rng)
        d = F.mul(F.inv(a), F.add(1, F.mul(b, c)))
    else:
        c = F.neg(F.inv(b))
        d = F.random(rng)
    return G._canon((a, b, c, d))


def order_of_brute(G, a):
    """Element order by repeated multiplication."""
    k, cur = 1, a
    e = G.identity()
    while cur != e:
        cur = G.multiply(cur, a)
        k += 1
    return k


def proper_subgroup_bound(G):
    """Largest proper subgroup order of PSL2 ``G`` (Dickson: Borel,
    dihedral, A4, S4, A5, subfield; the Borel dominates subfield groups for
    q > 4).  A closure that outgrows it certifies full generation."""
    borel = G.q * (G.q - 1) // G.d
    return max(borel, 2 * (G.q + 1) // G.d, 60)


def trace_identity(G, a, b, g):
    """Whether a**2 + b**2 + g**2 - abg = 4 in G's field: the singular
    trace triples, those of pairs generating a structural subgroup."""
    F = G.field
    s = F.add(F.add(F.mul(a, a), F.mul(b, b)), F.mul(g, g))
    return F.sub(s, F.mul(F.mul(a, b), g)) == F.of_int(4)


def classify_pair_brute(G, x, y):
    """PSL2 classification via BFS closure, independent of the trace
    machinery except for element orders.  The closure stops once it
    outgrows the largest proper subgroup, certifying full generation."""
    bound = proper_subgroup_bound(G)
    h = closure(G, (x, y), stop_above=bound)
    if len(h) > bound:
        return SubgroupClass("full")
    return classify_closure(G, h)


def classify_closure(G, h):
    """Dickson class of a fully materialized subgroup ``h`` of PSL2 ``G``,
    from its structure: order, element orders, a common fixed point on the
    projective line, involution count and subfield group orders."""
    n = len(h)
    if n == G.order:
        return SubgroupClass("full")
    orders = {G.order_of(m) for m in h}
    if max(orders) == n:
        return SubgroupClass("structural")  # cyclic
    if fixes_projective_point(G, h):
        return SubgroupClass("structural")  # inside a Borel
    if n == 4:
        return SubgroupClass("dihedral")  # Klein four-group
    if n % 2 == 0 and (n // 2) in orders:
        involutions = sum(1 for m in h if G.order_of(m) == 2)
        if involutions >= n // 2:
            return SubgroupClass("dihedral")
    if n == 12 and orders == {1, 2, 3}:
        return SubgroupClass("a4")
    if n == 24 and orders == {1, 2, 3, 4}:
        return SubgroupClass("s4")
    if n == 60 and orders == {1, 2, 3, 5}:
        return SubgroupClass("a5")
    deg = subfield_order_match(G, n)
    if deg is not None:
        return SubgroupClass("subfield", deg[0], deg[1])
    raise AssertionError(
        f"closure of order {n} matches no Dickson class in {G.descriptor()}")


def fixes_projective_point(G, h):
    """Common fixed point on P1(GF(q)) for all elements (Borel test)."""
    candidates = None
    for m in h:
        if m == G.identity():
            continue
        pts = fixed_points(G, m)
        candidates = pts if candidates is None else [p for p in candidates if p in pts]
        if not candidates:
            return False
    return candidates is not None and bool(candidates)


def fixed_points(G, m):
    """Fixed points of a non-scalar m on the projective line over GF(q),
    as normalized pairs (x, 1) or (1, 0)."""
    F = G.field
    a, b, c, d = m
    pts = []
    # [x : 1] is fixed iff c*x^2 + (d - a)*x - b = 0
    if c != 0:
        for x in F.solve_quadratic(c, F.sub(d, a), F.neg(b)):
            pts.append((x, 1))
    else:
        diag = F.sub(d, a)
        if diag != 0:
            pts.append((F.div(b, diag), 1))
        pts.append((1, 0))
    return pts


def subfield_order_match(G, n):
    """(degree, 'psl' | 'pgl') of the subfield group of order n, if any."""
    for dd in range(1, G.e):
        if G.e % dd:
            continue
        q1 = G.p**dd
        psl = q1 * (q1 * q1 - 1) // math.gcd(2, q1 - 1)
        pgl = q1 * (q1 * q1 - 1)
        if n == psl:
            return (dd, "psl")
        if n == pgl and (G.e // dd) % 2 == 0:
            return (dd, "pgl")
    return None


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


def class_matrices_all(partition):
    """Every class matrix A_i, (A_i)[j, l] = #{u in C_i : u**-1 w_l in C_j},
    at a cost of |G| * k products."""
    G = partition.group
    k = len(partition)
    reps = [c.representative for c in partition.classes]
    mats = []
    for i in range(k):
        A = np.zeros((k, k))
        for u in partition.members(i):
            u_inv = G.inverse(u)
            for l, w in enumerate(reps):
                A[partition.class_of(G.multiply(u_inv, w)), l] += 1
        mats.append(A)
    return mats


def character_rows_all_matrices(partition, seed=7):
    """(degrees, values) of the character table from a random combination
    of all k class matrices, rows in the order ``character_table`` uses
    (trivial first, then by degree and values rounded to 6 places)."""
    mats = class_matrices_all(partition)
    k = len(mats)
    n = partition.group.order
    sizes = np.array([c.size for c in partition.classes], dtype=float)
    id_idx = next(i for i, c in enumerate(partition.classes)
                  if c.element_order == 1)
    rng = np.random.default_rng(seed)
    for _ in range(24):
        eigvals, eigvecs = np.linalg.eig(
            sum(c * A for c, A in zip(rng.standard_normal(k), mats)))
        spread = max(1.0, float(np.max(np.abs(eigvals))))
        dists = np.abs(eigvals[:, None] - eigvals[None, :]) + np.eye(k) * spread
        if float(np.min(dists)) >= 1e-7 * spread:
            break
    else:
        raise AssertionError("class-matrix eigenvalues would not separate")
    rows = []
    for om in (eigvecs / eigvecs[id_idx, :]).T:
        deg = round(math.sqrt(n / float(np.sum(np.abs(om) ** 2 / sizes))))
        rows.append((deg, [complex(v) for v in deg * om / sizes]))
    trivial = min(rows, key=lambda r: max(abs(v - 1) for v in r[1]))
    rest = sorted((r for r in rows if r is not trivial), key=lambda r: (
        r[0], [(round(v.real, 6), round(v.imag, 6)) for v in r[1]]))
    ordered = [trivial] + rest
    return [d for d, _ in ordered], [v for _, v in ordered]


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


def prime_power_walk(G, g):
    """The classes of the prime-order powers of g, walked element by element:
    for each prime r dividing |g|, h = g**(|g|/r) and its r - 1 powers."""
    n = G.order_of(g)
    out = set()
    for r in prime_factors(n) if n > 1 else ():
        h = cur = G.power(g, n // r)
        for _ in range(r - 1):
            out.add(G.fingerprint(cur))
            cur = G.multiply(cur, h)
    return frozenset(out)


def sigma_prime_walk(G, x, y):
    """The prime-order power classes of x, y and z = (x*y)**-1 walked
    element by element, without the closed forms and memo of
    ``sigma_prime_fingerprints``."""
    z = G.inverse(G.multiply(x, y))
    return prime_power_walk(G, x) | prime_power_walk(G, y) | prime_power_walk(G, z)


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


def pair_census_all_y(G):
    """The class-reduced pair census testing every y in G against each
    non-identity class representative x, without the centralizer-orbit
    reduction of ``pair_census`` and with each pair's Sigma walked
    (``sigma_prime_walk``, fingerprint sets in place of masks)."""
    elements = list(G.elements())
    reps = ClassPartition(G).classes[1:]
    weights, examples = {}, {}
    gen_pairs = 0
    for cls in reps:
        x = cls.representative
        for y in elements:
            if not G.generates(x, y):
                continue
            gen_pairs += 1
            orders = (G.order_of(x), G.order_of(y), G.order_of(G.multiply(x, y)))
            sig = sigma_prime_walk(G, x, y)
            weights[sig] = weights.get(sig, 0) + cls.size
            examples.setdefault((sig, tuple(sorted(orders))), (x, y))
    tested = len(reps) * G.order
    return PairCensus(weights, examples, tested, gen_pairs, len(reps), tested)


def abelian_triple_sweep(G, r, s, t):
    """The generating (x, y, z) of Zn x Zn with orders (r, s, t), or None:
    x = (n/r, 0), complete up to automorphism, and the first y in element
    order that gives |y| = s, |z| = t and generation."""
    x = (G.n // r, 0)
    for y in G.iter_elements():
        if G.order_of(y) != s:
            continue
        z = G.inverse(G.multiply(x, y))
        if G.order_of(z) == t and G.generates(x, y):
            return x, y, z
    return None


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
            mk = element_of_order(G, k)
        except GroupError:
            continue
        for _ in range(n_special // 2):
            pairs.append((mk, G.conjugate(G.random_element(rng), mk)))
    return pairs
