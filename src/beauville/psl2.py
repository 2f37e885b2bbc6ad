"""PSL2(q) as projective 2x2 matrices over GF(q).

Element payloads are 4-tuples ``(a, b, c, d)`` of field-encoded entries of
an SL2 representative with det 1, canonicalized between the pair {M, -M}:
the first nonzero entry in scan order (a, b, c, d) is the smaller of
{v, -v} under the integer encoding order.  Identical group elements
therefore have bit-identical payloads, which makes them hashable and fast
to compare in closures and class maps.

Orders, split/non-split/unipotent classification, conjugacy fingerprints
and the two-generator subgroup classifier all work through traces; an
element of trace a (a != +-2) is semisimple with eigenvalue ratio of
multiplicative order determined by a, so its projective order is the least
k with V_k(a) = +-2, where V is the Lucas sequence V_0 = 2, V_1 = a,
V_{k+1} = a*V_k - V_{k-1} (the trace of the k-th power).

Matrix text encoding: ``[[a,b],[c,d]]`` with field-element encodings;
either lift of a projective element is accepted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .fields import gf
from .groups import Group, GroupError, HandleMismatch, closure
from .numutil import prime_factors

# extension fields up to this q multiply through q x q tables, built in
# 0.8 ms at q = 64 on a 2-vCPU Xeon VM; past it the build (3 ms at 128, 17 ms
# at 243) outweighs a Monte Carlo estimate's products, and every whole-group
# path stays below it
PRODUCT_TABLE_Q = 64


@dataclass(frozen=True)
class SubgroupClass:
    """Dickson class of a two-generated subgroup of PSL2(q).

    kind is one of 'structural' (inside a Borel, or cyclic), 'dihedral',
    'a4', 's4', 'a5', 'subfield', 'full'.  Subfield groups isomorphic to
    A4, S4 or A5 take those names (G itself, for q = 4 or 5, is 'full');
    the others are PSL2(p**degree) or PGL2(p**degree) up to conjugacy,
    subfield_kind 'psl' or 'pgl'.  ``classify_traces`` also records the
    pair's orders (|x|, |y|, |xy|), which equality ignores; they are None
    for a singular triple classified without a pair.
    """

    kind: str
    subfield_degree: int | None = None
    subfield_kind: str | None = None
    orders: tuple | None = field(default=None, compare=False, repr=False)

    def __str__(self):
        if self.kind == "subfield":
            return f"subfield(:{self.subfield_degree}, {self.subfield_kind})"
        return self.kind


class PSL2(Group):
    kind = "psl2"

    def __init__(self, p: int, e: int = 1):
        field = gf(p, e)
        if field.q < 4:
            raise GroupError("PSL2 realization needs q = p**e >= 4")
        self.field = field
        self.p = p
        self.e = e
        self.q = field.q
        self.d = math.gcd(2, self.q - 1)
        self.order = self.q * (self.q * self.q - 1) // self.d
        self.split_order = (self.q - 1) // self.d
        self.nonsplit_order = (self.q + 1) // self.d
        self._split_factors = prime_factors(self.split_order)
        self._nonsplit_factors = prime_factors(self.nonsplit_order)
        self._traces_by_order_cache = None
        # trace -> projective order: +-2 seeded, the rest filled by _semisimple_order
        self._order_by_trace = dict.fromkeys((field.two, field.minus_two), p)
        self._prime_trace: dict[int, int] = {}  # prime r -> an order-r trace

    def descriptor(self):
        return f"psl2:{self.field.descriptor()}"

    # -- canonical payloads ---------------------------------------------------

    def _canon(self, m):
        if self.d == 1:
            return m
        F = self.field
        for v in m:
            if v:
                if v > F.neg(v):
                    return (F.neg(m[0]), F.neg(m[1]), F.neg(m[2]), F.neg(m[3]))
                return m
        raise AssertionError("zero matrix")

    def identity(self):
        return (1, 0, 0, 1)

    def multiply(self, m, n):
        """``_canon(_mat_mul(m, n))`` in one pass: residues mod p on a prime
        field, the product and sum rows of ``_product_tables`` on an
        extension field with q <= PRODUCT_TABLE_Q, else the logs of
        ``_log_tables`` when no entry is 0 (that expression when one is).
        The top row of a det-1 matrix is nonzero, so its first nonzero entry
        fixes the sign, as in ``_canon`` (p is odd when e = 1)."""
        a, b, c, d = m
        x, y, z, w = n
        if self.e == 1:
            p = self.p
            r0, r1 = (a * x + b * z) % p, (a * y + b * w) % p
            r2, r3 = (c * x + d * z) % p, (c * y + d * w) % p
            if (r0 or r1) > p >> 1:
                return -r0 % p, -r1 % p, -r2 % p, -r3 % p
            return r0, r1, r2, r3
        if self.q > PRODUCT_TABLE_Q:
            if 0 in m or 0 in n:
                return self._canon(self._mat_mul(m, n))
            log, exp, zech, neg = self._log_tables
            la, lb, lc, ld = log[a], log[b], log[c], log[d]
            lx, ly, lz, lw = log[x], log[y], log[z], log[w]
            if zech is None:  # p = 2: a sum is an XOR, and the sign is moot
                return (exp[la + lx] ^ exp[lb + lz], exp[la + ly] ^ exp[lb + lw],
                        exp[lc + lx] ^ exp[ld + lz], exp[lc + ly] ^ exp[ld + lw])
            # g**u + g**v = g**(u + zech[v - u])
            u0, u1, u2, u3 = la + lx, la + ly, lc + lx, lc + ly
            r0, r1 = exp[u0 + zech[lb + lz - u0]], exp[u1 + zech[lb + lw - u1]]
            r2, r3 = exp[u2 + zech[ld + lz - u2]], exp[u3 + zech[ld + lw - u3]]
            v = r0 or r1
            if v > neg[v]:
                return neg[r0], neg[r1], neg[r2], neg[r3]
            return r0, r1, r2, r3
        mul, add, neg = self._product_tables
        ma, mb, mc, md = mul[a], mul[b], mul[c], mul[d]
        r0, r1 = add[ma[x]][mb[z]], add[ma[y]][mb[w]]
        r2, r3 = add[mc[x]][md[z]], add[mc[y]][md[w]]
        v = r0 or r1
        if v > neg[v]:
            return neg[r0], neg[r1], neg[r2], neg[r3]
        return r0, r1, r2, r3

    @cached_property
    def _product_tables(self):
        """q x q product rows, q x q sum rows and the negation row, built on
        the first product, so a handle that never multiplies pays nothing."""
        F, els = self.field, range(self.q)
        return ([[F.mul(a, x) for x in els] for a in els],
                [[F.add(a, x) for x in els] for a in els],
                [F.neg(a) for a in els])

    @cached_property
    def _log_tables(self):
        """(log, exp, zech, neg) of the field for ``multiply`` past
        PRODUCT_TABLE_Q, read with no reduction mod n = q - 1: a product's log
        u lies in [0, 2n - 2] and v - u in [2 - 2n, 2n - 2], so exp spans 3n,
        zech repeats 4 times, and 1 + g**k = 0 reads 3n, where exp reads 0."""
        F, n = self.field, self.q - 1
        if self.p == 2:
            return F._log, F._exp, None, None
        zech = [3 * n if k < 0 else k for k in F._zech]
        return F._log, F._exp[:n] * 3 + [0] * (2 * n), zech * 4, F._neg

    def inverse(self, m):
        return self._canon(self._mat_inv(m))

    def trace(self, m):
        """Trace of the canonical lift."""
        return self.field.add(m[0], m[3])

    def determinant(self, m):
        F = self.field
        return F.sub(F.mul(m[0], m[3]), F.mul(m[1], m[2]))

    def check_element(self, m):
        if not (isinstance(m, tuple) and len(m) == 4
                and all(isinstance(v, int) and 0 <= v < self.q for v in m)):
            raise HandleMismatch(f"{m!r} is not a PSL2({self.q}) payload")
        if self.determinant(m) != 1:
            raise HandleMismatch(f"{m!r} has determinant != 1")
        if m != self._canon(m):
            raise HandleMismatch(f"{m!r} is not the canonical lift")

    # -- trace machinery --------------------------------------------------------

    def lucas_trace(self, k: int, a):
        """Trace of the k-th power of an element of trace a (Lucas V_k)."""
        F = self.field
        v0, v1 = F.two, a  # (V_j, V_{j+1}) with j built from the bits of k
        for bit in bin(k)[2:]:
            if bit == "0":
                v0, v1 = (F.sub(F.mul(v0, v0), F.two),
                          F.sub(F.mul(v0, v1), a))
            else:
                v0, v1 = (F.sub(F.mul(v0, v1), a),
                          F.sub(F.mul(v1, v1), F.two))
        return v0

    def _semisimple_order(self, a) -> int:
        """Projective order of the elements of trace a (a != +-2), put in
        the memo.  The torus is split iff V_{(q-1)/d}(a) = +-2: a split x
        has x**((q-1)/d) = +-I, and a non-split x with that power +-I has
        order dividing the coprime (q-1)/d and (q+1)/d, so a = +-2."""
        pm2 = (self.field.two, self.field.minus_two)
        if self.lucas_trace(self.split_order, a) in pm2:
            m, factors = self.split_order, self._split_factors
        else:
            m, factors = self.nonsplit_order, self._nonsplit_factors
        order = m
        for r in factors:
            while order % r == 0 and self.lucas_trace(order // r, a) in pm2:
                order //= r
        self._order_by_trace[a] = order
        return order

    def _trace_order(self, a) -> int:
        """Projective order of the elements of trace a other than +-I: a
        read of the memo, which a semisimple trace misses once."""
        return self._order_by_trace.get(a) or self._semisimple_order(a)

    def order_of(self, m):
        if m == (1, 0, 0, 1):
            return 1
        return self._trace_order(self.trace(m))

    def order_type(self, order: int) -> str:
        """'identity', 'unipotent' (order p), 'split' or 'nonsplit' from an
        element order: a semisimple order divides (q-1)/d when split and
        (q+1)/d when not, and these two are coprime to each other and to p."""
        if order == 1:
            return "identity"
        if order == self.p:
            return "unipotent"
        return "split" if self.split_order % order == 0 else "nonsplit"

    def prime_power_classes(self, m):
        """Mask of the classes of the prime-order powers of m, memoized by
        the order of m unless m is unipotent with p odd and e even: a bit
        ("r", r) for each prime r dividing a semisimple order, and the
        unipotent classes read in closed form.

        Proof (Fact B).  For a prime r != p dividing |m|, the order-r powers
        of m fill the order-r subgroup of a cyclic torus, into which every
        element of order r is conjugate.  A unipotent m is conjugate to
        [[1, u], [0, 1]], whose class is the square class of u (one class for
        p = 2), and its powers are [[1, ku], [0, 1]], k in F_p*: all squares
        in F_q when e is even, non-squares among them when e is odd
        (k**((q-1)/2) = (-1)**e).  So only the unipotent m with p odd and e
        even have a mask that their order does not fix: their own class.
        """
        order = self.order_of(m)
        sigma = self._sigma_memo.get(order)
        if sigma is not None:
            return sigma
        if order == self.p:
            if self.d == 2 and self.e % 2 == 0:  # the class of m, which its order does not fix
                return self._sigma_mask((self.fingerprint(m),))
            classes = (("u", 0), ("u", 1)) if self.d == 2 else (self.fingerprint(m),)
            sigma = self._sigma_mask(classes)
        else:
            for r in prime_factors(order):  # an order-r trace, for sigma_classes
                self._prime_trace.setdefault(r, self.lucas_trace(order // r, self.trace(m)))
            sigma = self._sigma_mask(("r", r) for r in prime_factors(order))
        self._sigma_memo[order] = sigma
        return sigma

    def sigma_of_orders(self, orders):
        """The Sigma mask of a pair whose x, y, xy have these orders, in any
        order, from the ``prime_power_classes`` memo alone, or None if one
        misses: a memoized order fixes the mask of its elements (Fact B)."""
        a, b, c = map(self._sigma_memo.get, orders)
        return None if None in (a, b, c) else a | b | c

    def sigma_classes(self, mask):
        """The fingerprints of a mask's classes.  A bit ("r", r) lists the
        classes of order r in O(r) field ops: those of the traces +-V_k(t),
        1 <= k <= r // 2, for the order-r trace t kept with the bit."""
        F, out = self.field, set()
        for key in Group.sigma_classes(self, mask):
            if key[0] != "r":
                out.add(key)
                continue
            t = v1 = self._prime_trace[key[1]]
            v0 = F.two
            for _ in range(key[1] // 2):
                out.add(self.fingerprint((0, F.minus_one, 1, v1)))  # trace v1
                v0, v1 = v1, F.sub(F.mul(t, v1), v0)
        return frozenset(out)

    def forced_share(self, r):
        # Fact B (prime_power_classes): r != p puts the bit ("r", r) in every
        # such Sigma, and r = p both unipotent classes when e is odd.  Order
        # r has one class at r = 2 (unipotent when p = 2) and at r = 3 != p;
        # other r != p have (r - 1)/2, and an odd r = p has two
        if r == self.p and self.d == 2 and self.e % 2 == 0:
            return None
        return self._share_reason(r, r == 2 or r == 3 != self.p)

    # -- conjugacy fingerprints ---------------------------------------------------

    def fingerprint(self, m):
        if m == (1, 0, 0, 1):
            return ("1",)
        F = self.field
        a = self.trace(m)
        if a in (F.two, F.minus_two):
            if self.p == 2:
                return ("u",)
            # take the trace-(+2) lift; its nilpotent part N = M - I has
            # c-entry -u*r^2 and b-entry u*p^2 for Jordan parameter u, so
            # the square class of -c (or b when c = 0) pins the class
            if a == F.two:
                lift = m
            else:
                lift = (F.neg(m[0]), F.neg(m[1]), F.neg(m[2]), F.neg(m[3]))
            c_entry, b_entry = lift[2], lift[1]
            v = F.neg(c_entry) if c_entry != 0 else b_entry
            return ("u", 1 if F.is_square(v) else 0)
        return ("t",) + tuple(sorted((a, F.neg(a))))

    # -- enumeration / sampling ---------------------------------------------------

    def iter_elements(self):
        F = self.field
        q = self.q
        # restricting the first nonzero entry to the canonical half-set
        # enumerates each projective element exactly once
        if self.d == 2:
            first = [v for v in range(1, q) if v < F.neg(v)]
        else:
            first = list(range(1, q))
        for a in first:
            inva = F.inv(a)
            for b in range(q):
                for c in range(q):
                    yield (a, b, c, F.mul(inva, F.add(1, F.mul(b, c))))
        # a == 0: the first nonzero entry is b, and c = -1/b is forced
        for b in first:
            c = F.neg(F.inv(b))
            for d in range(q):
                yield (0, b, c, d)

    def random_element(self, rng):
        """Uniform: (a, b) != 0 drawn first, then the free one of c and d,
        each draw the ``randrange(q)`` of ``GF.random``; a prime field works
        on residues, the sign fixed as in ``multiply``."""
        q, draw = self.q, rng.randrange
        while True:
            a, b = draw(q), draw(q)
            if a or b:
                break
        if self.e == 1:
            if a:
                c = draw(q)
                d = pow(a, q - 2, q) * (1 + b * c) % q
            else:
                c, d = -pow(b, q - 2, q) % q, draw(q)
            if (a or b) > q >> 1:
                return -a % q, -b % q, -c % q, -d % q
            return a, b, c, d
        F = self.field
        if a:
            c = draw(q)
            d = F.mul(F.inv(a), F.add(1, F.mul(b, c)))
        else:
            c, d = F.neg(F.inv(b)), draw(q)
        return self._canon((a, b, c, d))

    # -- the trace-triple solver -----------------------------------------------------

    def solve_trace_triple(self, a, b, g):
        """Matrices (A, B, C) in SL2(q) with traces (a, b, g) and ABC = I:
        the first solution of the deterministic sweep ``_trace_solutions``,
        which its lemma proves non-empty."""
        sol = next(self._trace_solutions(a, b, g), None)
        assert sol is not None, "empty trace sweep contradicts the _trace_solutions lemma"
        assert self._triple_ok(*sol, a, b, g)
        return sol

    def _triple_ok(self, A, B, C, a, b, g):
        prod = self._mat_mul(self._mat_mul(A, B), C)
        return ((self.trace(A), self.trace(B), self.trace(C)) == (a, b, g)
                and prod == (1, 0, 0, 1)
                and all(self.determinant(m) == 1 for m in (A, B, C)))

    def _mat_mul(self, m, n):
        F = self.field
        a, b, c, d = m
        x, y, z, w = n
        return (F.add(F.mul(a, x), F.mul(b, z)),
                F.add(F.mul(a, y), F.mul(b, w)),
                F.add(F.mul(c, x), F.mul(d, z)),
                F.add(F.mul(c, y), F.mul(d, w)))

    def _mat_inv(self, m):
        F = self.field
        a, b, c, d = m
        return (d, F.neg(b), F.neg(c), a)

    def _trace_solutions(self, a, b, g):
        """Solutions from A = companion(a), then those of the rotation
        (b, g, a) mapped back to (C, A, B).

        Lemma: for q >= 4 this is never empty.  The sweep value s (entry
        (1,1) of B) works iff r**2 + c1*r + c0 has a root, with
        c1 = g - ab + as and c0 = s**2 - bs + 1 (``_companion_solutions``).
        Odd q, a != +-2: D(s) = c1**2 - 4*c0 is quadratic in s with leading
        coefficient a**2 - 4 != 0, so a character-sum count shows it is a
        square (0 included) for some s.  Odd q, a = 2e with e = +-1:
        D(s) = (g - 2eb)**2 - 4 + 4e(g - eb)s hits 0 unless g = eb, where D
        is the constant b**2 - 4; if that is a non-square, b != +-2 and the
        rotation succeeds.  Even q: for a != 0 the s with c1 = 0 works; for
        a = 0 != g a root exists iff the absolute trace condition
        Tr(1/g**2) + Tr(s(g + b)/g**2) = 0 holds, which fails for every s
        only when g = b and Tr(1/b) = 1, and then b != 0 and the rotation
        succeeds.
        """
        yield from self._companion_solutions(a, b, g)
        for A, B, C in self._companion_solutions(b, g, a):
            yield (C, A, B)

    def _companion_solutions(self, x, y, z):
        """All B completing A = companion(x) with tr B = y, tr AB = z,
        det B = 1, swept deterministically."""
        F = self.field
        A = (0, F.minus_one, 1, x)
        for s in range(self.q):
            b22 = F.sub(y, s)
            coef1 = F.add(F.sub(z, F.mul(x, y)), F.mul(x, s))
            coef0 = F.add(1, F.sub(F.mul(s, s), F.mul(s, y)))
            for r in F.solve_quadratic(1, coef1, coef0):
                b12 = F.sub(F.add(z, r), F.mul(x, b22))
                B = (s, b12, r, b22)
                C = self._mat_inv(self._mat_mul(A, B))
                yield (A, B, C)

    # -- subgroup classification -----------------------------------------------------

    def classify_pair(self, x, y) -> SubgroupClass:
        """``classify_traces`` of the lifts x, y and xy, its closure run on
        (x, y); residues mod p on a prime field."""
        if self.e == 1:
            p = self.p
            g = (x[0] * y[0] + x[1] * y[2] + x[2] * y[1] + x[3] * y[3]) % p
            return self.classify_traces((x[0] + x[3]) % p, (y[0] + y[3]) % p, g, (x, y))
        F = self.field
        g = F.add(F.add(F.mul(x[0], y[0]), F.mul(x[1], y[2])),
                  F.add(F.mul(x[2], y[1]), F.mul(x[3], y[3])))
        return self.classify_traces(self.trace(x), self.trace(y), g, (x, y))

    def classify_traces(self, a, b, g, pair=None) -> SubgroupClass:
        """The exact Dickson class, with orders (|x|, |y|, |xy|), of <x, y>
        for lifts X, Y with traces (a, b, g) = (tr X, tr Y, tr XY); by
        Macbeath (Fact A) a non-singular triple fixes it.  The closure runs on
        ``pair``, else on the canonical ``solve_trace_triple`` solution; a
        singular triple takes its orders from ``pair``, else None.

        Decision order: singular trace triple, a**2 + b**2 + g**2 - abg = 4
        (structural: inside a Borel subgroup, or cyclic); two involutions
        among (x, y, xy) (dihedral); small order patterns confirmed by a
        capped closure and classified by its size (A4/S4/A5, or the whole
        group when q is 4 or 5); then the subfield test on the field
        generated by the squared traces and their product, whose degree is
        invariant under the quadratic twist that distinguishes PGL2 of a
        subfield from PSL2; anything left generates the whole group.

        Proof of the size rule.  The triple is non-singular, so <x, y> is
        not structural (cyclic included).  A non-cyclic dihedral group
        generated by x and y has two involutions among x, y and xy, so
        <x, y> is not dihedral either.  By Dickson's list, a subgroup of
        order at most 60 that is neither is A4, S4 or A5 (orders 12, 24,
        60), subfield groups included: PSL2(3) = A4, PGL2(3) = S4 and
        PSL2(4) = PSL2(5) = A5.  The only other case is G itself, of order
        60 when q is 4 or 5.

        Proof of the PSL / PGL verdict.  Let K = F_{p^d0}; a**2, b**2, g**2
        and abg lie in K.  For even q squaring is an automorphism, so a, b
        and g lie in K.  For odd q a trace outside K lies in sqrt(v)*K for
        one non-square v of K; one such trace puts abg in sqrt(v)*K, so a
        trace in K is 0, and three make abg non-zero outside K.  Outer
        elements of PGL2(K) have traces in sqrt(v)*K, so one with a trace in
        K is an involution.  None or two of x, y, xy are outer and two
        involutions were classified dihedral, so the pair lies in PSL2(K)
        exactly when no trace is outside K.

        Proof of the orders.  A non-singular triple has none of X, Y, XY
        equal to +-I: X = eI (e = +-1) gives a = 2e and g = eb, so
        a**2 + b**2 + g**2 - abg = 4, and likewise for Y; XY = eI gives
        Y = eX**-1, so b = ea and g = 2e.  So each of |x|, |y|, |xy| is the
        order of its trace.  A singular triple takes |x|, |y| from
        ``order_of``, and |xy| = 1 iff y = x**-1, else the order of its trace.
        """
        F = self.field
        if self.e == 1:
            singular = (a * a + b * b + g * g - a * b * g - 4) % self.p == 0
        else:
            s = F.add(F.add(F.mul(a, a), F.mul(b, b)), F.mul(g, g))
            singular = F.sub(s, F.mul(F.mul(a, b), g)) == F.of_int(4)
        if singular:
            if pair is None:
                return SubgroupClass("structural")
            x, y = pair
            xy = 1 if y == self.inverse(x) else self._trace_order(g)
            return SubgroupClass("structural", orders=(self.order_of(x), self.order_of(y), xy))
        order = self._trace_order
        orders = (order(a), order(b), order(g))
        if orders.count(2) >= 2:
            return SubgroupClass("dihedral", orders=orders)
        if max(orders) <= 5 and (4 not in orders or 5 not in orders):  # in {2,3,4} or {2,3,5}
            if pair is None:
                pair = tuple(map(self._canon, self.solve_trace_triple(a, b, g)[:2]))
            n = len(closure(self, pair, stop_above=60))
            if n == self.order:
                return SubgroupClass("full", orders=orders)
            if n <= 60:
                assert n in (12, 24, 60), f"closure of order {n} in {self.descriptor()}"
                return SubgroupClass({12: "a4", 24: "s4", 60: "a5"}[n], orders=orders)
        if self.e == 1:  # a prime field has no proper subfield
            return SubgroupClass("full", orders=orders)
        pieces = (F.mul(a, a), F.mul(b, b), F.mul(g, g), F.mul(F.mul(a, b), g))
        d0 = math.lcm(*map(F.subfield_degree, pieces))
        if d0 < self.e:
            twisted = any(d0 % F.subfield_degree(v) for v in (a, b, g))
            return SubgroupClass("subfield", d0, "pgl" if twisted else "psl", orders=orders)
        return SubgroupClass("full", orders=orders)

    def generates(self, x, y) -> bool:
        return self.classify_pair(x, y).kind == "full"

    def read_pair(self, x, y):
        cls = self.classify_pair(x, y)
        return cls.kind == "full", cls.orders

    # -- element lookup by order -------------------------------------------------

    def traces_by_order(self) -> dict[int, list[int]]:
        """Semisimple traces of each projective order > 1, each list in
        encoding order and the orders keyed by their smallest trace
        (unipotent traces excluded); fills the order memo for every trace.

        Proof.  Each cyclic torus T/{+-1}, of order m = (q-1)/d (split) or
        (q+1)/d (non-split), is walked once.  Let a0 be the first trace in
        encoding order of projective order m, and x in SL2(q) of trace a0,
        inside a torus T.  The image of x generates T/{+-1}, so x**k has
        trace V_k(a0) (the Lucas sequence of the module docstring) and
        projective order m / gcd(k, m).  An element of T is fixed up to
        inversion by its eigenvalues {l, 1/l}, that is by its trace, so a
        class of T/{+-1} is fixed up to inversion by the traces +-a of its
        two lifts.  The classes of x**k and x**(m-k) are inverse, so +-V_k
        for 1 <= k <= m // 2 lists the traces of every non-identity class
        exactly once (V_k = -V_k counted once).  Every trace a != +-2 is
        that of a semisimple element, which lies in a conjugate of one of
        the two tori.  Split orders divide (q-1)/d and non-split ones
        (q+1)/d, which are coprime, so a0 is on the side of m, and the two
        walks list all q - 2 (q - 1 for even q) semisimple traces once.
        """
        if self._traces_by_order_cache is None:
            F = self.field
            mul, sub, neg = F.mul, F.sub, F.neg
            memo = self._order_by_trace
            table: dict[int, list[int]] = {}
            for m in (self.split_order, self.nonsplit_order):
                a0 = next(a for a in F.elements() if self._trace_order(a) == m)
                v0, v1 = F.two, a0
                for k in range(1, m // 2 + 1):
                    order = m // math.gcd(k, m)
                    traces = table.setdefault(order, [])
                    for a in {v1, neg(v1)}:
                        memo[a] = order
                        traces.append(a)
                    v0, v1 = v1, sub(mul(a0, v1), v0)
            for traces in table.values():
                traces.sort()
            self._traces_by_order_cache = dict(sorted(table.items(), key=lambda kv: kv[1][0]))
        return self._traces_by_order_cache

    def _order_refusal(self, k: int):
        """Found without a torus walk: the orders >= 2 are p and the
        divisors > 1 of the torus orders, the tori being cyclic."""
        if k != self.p and self.split_order % k and self.nonsplit_order % k:
            return (f"order {k} not realizable in {self.descriptor()}: orders are 1, "
                    f"p = {self.p}, divisors of {self.split_order} and of {self.nonsplit_order}")
        return None

    def traces_of_order(self, k: int) -> list[int]:
        """SL2 traces of the elements of exact projective order k, in
        encoding order; GroupError from ``check_order`` for any other k."""
        self.check_order(k)
        if k == self.p:
            return [self.field.two] if self.d == 1 else [self.field.two, self.field.minus_two]
        return self.traces_by_order()[k]

    # -- text encoding ---------------------------------------------------------------

    def parse_element(self, text):
        t = text.strip().replace(" ", "")
        if not (t.startswith("[[") and t.endswith("]]")):
            raise GroupError(f"malformed matrix {text!r}; expected [[a,b],[c,d]]")
        body = t[2:-2]
        rows = body.split("],[")
        if len(rows) != 2:
            raise GroupError(f"malformed matrix {text!r}")
        entries = []
        for row in rows:
            parts = row.split(",")
            if len(parts) != 2:
                raise GroupError(f"malformed matrix {text!r}")
            entries.extend(self.field.parse(p) for p in parts)
        m = tuple(entries)
        if self.determinant(m) != 1:
            raise GroupError(
                f"matrix {text!r} has determinant {self.field.format(self.determinant(m))}, "
                f"not an SL2({self.field.descriptor()}) lift")
        return self._canon(m)

    def format_element(self, m):
        F = self.field
        return f"[[{F.format(m[0])},{F.format(m[1])}],[{F.format(m[2])},{F.format(m[3])}]]"
