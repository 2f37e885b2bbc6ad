"""Alternating and symmetric groups on n points.

Permutations are tuples ``img`` of length n over 0..n-1 with ``img[i]`` the
image of i; composition is ``(a*b)[i] = a[b[i]]`` (apply b first), matching
the matrix convention of the PSL2 realization.  Text encoding is 1-based
cycle notation ``(1 2 3)(4 5)`` with ``()`` for the identity.

Generation is decided exactly: intransitive pairs fail; for n <= 7 a BFS
closure stopped just above the largest order a proper subgroup can have
decides; for n >= 8 a Jordan prime-cycle certificate proves A_n, and the
rest goes to a deterministic Schreier-Sims base and strong generating set
(also the oracle for both fast paths).  Conjugacy fingerprints are cycle
types, refined by the parity discriminator on the types (all cycle lengths
odd and distinct) whose S_n class splits into two A_n classes.
"""
from __future__ import annotations

import math
from functools import lru_cache

from .groups import Group, GroupError, HandleMismatch, closure
from .numutil import is_prime, prime_factors


# ---------------------------------------------------------------------------
# raw permutation arithmetic
# ---------------------------------------------------------------------------

def perm_identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def perm_mul(a, b):
    """Composition: apply b first, then a."""
    return tuple(a[x] for x in b)


def perm_inv(a):
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def cycles_of(a) -> list[list[int]]:
    """Cycle decomposition including fixed points, each cycle starting at
    its smallest point, cycles ordered by that point."""
    n = len(a)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = a[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = a[x]
        out.append(cyc)
    return out


def cycle_type(a) -> tuple[int, ...]:
    """Multiset of cycle lengths including fixed points, sorted descending."""
    return tuple(sorted((len(c) for c in cycles_of(a)), reverse=True))


def parity(a) -> int:
    """0 for even, 1 for odd."""
    return (len(a) - len(cycles_of(a))) % 2


def perm_order(a) -> int:
    return math.lcm(*(len(c) for c in cycles_of(a)))


def parse_cycles(text: str, n: int) -> tuple[int, ...]:
    text = text.strip()
    if text in ("()", ""):
        return perm_identity(n)
    img = list(range(n))
    touched = set()
    depth_chunks = [c for c in text.replace(")(", ")|(").split("|")]
    for chunk in depth_chunks:
        chunk = chunk.strip()
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise GroupError(f"malformed cycle notation {text!r}")
        body = chunk[1:-1].replace(",", " ").split()
        try:
            pts = [int(s) - 1 for s in body]
        except ValueError as exc:
            raise GroupError(f"malformed cycle notation {text!r}") from exc
        if any(p < 0 or p >= n for p in pts):
            raise GroupError(f"point out of range 1..{n} in {text!r}")
        if len(set(pts)) != len(pts) or touched & set(pts):
            raise GroupError(f"repeated point in {text!r}")
        touched |= set(pts)
        for i, p in enumerate(pts):
            img[p] = pts[(i + 1) % len(pts)]
    return tuple(img)


def format_cycles(a) -> str:
    parts = []
    for cyc in cycles_of(a):
        if len(cyc) > 1:
            parts.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
    return "".join(parts) if parts else "()"


# ---------------------------------------------------------------------------
# Schreier-Sims
# ---------------------------------------------------------------------------

class BSGS:
    """Base and strong generating set for a permutation group.

    Deterministic construction; ``order`` is the product of the basic orbit
    lengths and ``contains`` sifts against the transversals.
    """

    def __init__(self, gens, n: int):
        self.n = n
        self.e = perm_identity(n)
        gens = [tuple(g) for g in gens]
        self.base: list[int] = []
        self.level_gens: list[list[tuple[int, ...]]] = []
        self.transversals: list[dict[int, tuple[int, ...]]] = []
        gens = [g for g in gens if g != self.e]
        for g in gens:
            self._ensure_base_point(g)
        self.level_gens = [[] for _ in self.base]
        self.transversals = [{} for _ in self.base]
        if gens:
            self.level_gens[0] = list(gens)
            self._schreier_sims()

    @property
    def order(self) -> int:
        n = 1
        for t in self.transversals:
            n *= max(1, len(t))
        return n

    def contains(self, g) -> bool:
        residue, level = self._sift(tuple(g), 0)
        return residue == self.e and level == len(self.base)

    # -- internals ----------------------------------------------------------

    def _ensure_base_point(self, g):
        if any(g[b] != b for b in self.base):
            return
        self.base.append(next(p for p in range(self.n) if g[p] != p))

    def _gens_at(self, i):
        return [g for lvl in self.level_gens[i:] for g in lvl]

    def _orbit(self, i):
        beta = self.base[i]
        gens = self._gens_at(i)
        orbit = {beta: self.e}
        frontier = [beta]
        while frontier:
            nxt = []
            for p in frontier:
                u = orbit[p]
                for g in gens:
                    q = g[p]
                    if q not in orbit:
                        orbit[q] = perm_mul(g, u)
                        nxt.append(q)
            frontier = nxt
        self.transversals[i] = orbit

    def _sift(self, g, start):
        for i in range(start, len(self.base)):
            p = g[self.base[i]]
            if p == self.base[i]:
                continue
            t = self.transversals[i]
            if p not in t:
                return g, i
            g = perm_mul(perm_inv(t[p]), g)
        return g, len(self.base)

    def _schreier_sims(self):
        i = len(self.base) - 1
        while i >= 0:
            added_at = self._process_level(i)
            i = added_at if added_at is not None else i - 1

    def _process_level(self, i):
        self._orbit(i)
        orbit = self.transversals[i]
        gens = self._gens_at(i)
        for p, u_p in list(orbit.items()):
            for g in gens:
                q = g[p]
                s = perm_mul(perm_inv(orbit[q]), perm_mul(g, u_p))
                if s == self.e:
                    continue
                residue, j = self._sift(s, i + 1)
                if residue == self.e and j == len(self.base):
                    continue
                if j == len(self.base):
                    self._ensure_base_point(residue)
                    self.level_gens.append([])
                    self.transversals.append({})
                self.level_gens[j].append(residue)
                return j
        return None


# ---------------------------------------------------------------------------
# giant recognition
# ---------------------------------------------------------------------------

GIANT_WALK_STEPS = 60   # product-replacement steps before BSGS decides
_WALK_SEED, _M64 = 0x853C49E6748FEA9B, (1 << 64) - 1


def _walk(x, y):
    """x, y, then the products of a product-replacement walk from the slots
    [x, y, x, y], driven by a constant-seeded LCG (never a caller's RNG)."""
    yield from (x, y)
    slots, state = [x, y, x, y], _WALK_SEED
    for _ in range(GIANT_WALK_STEPS):
        state = (state * 6364136223846793005 + 1442695040888963407) & _M64
        k = (state >> 33) % 12  # an ordered pair of distinct slots
        i, j = k // 3, (k // 3 + 1 + k % 3) % 4
        slots[i] = perm_mul(slots[i], slots[j])
        yield slots[i]


def _generates_giant(G, x, y) -> bool:
    """Exact test for <x, y> = G, where G is A_n, or S_n with x or y odd.

    1. If the orbit of point 0 is not all n points, <x, y> is intransitive:
       False.
    2. For n <= 7 (the prime window of step 3 is empty) the BFS closure of
       x, y is stopped just above b and decides: <x, y> = G exactly when it
       has more than b elements, with b = |G|/n for n >= 5 and b = |G| - 1
       below.  A_n with n >= 5 has no proper subgroup of index < n, and the
       only one of S_n is A_n, which <x, y> is not since x or y is odd
       (``SymmetricGroup.generates`` refused two even generators); so a
       subgroup with more than |G|/n elements is G (Dixon & Mortimer,
       Permutation Groups, Sec. 5.2).
    3. If x, y or a product met by ``_walk`` has a cycle of prime length p
       with n/2 < p < n - 2, then <x, y> contains A_n: True.  Since 2p > n
       that cycle is the only one of length divisible by p, so a power of
       the element is a p-cycle.  A transitive group holding a p-cycle with
       p > n/2 is primitive: the cycle fixes every block of a block system
       (moving p blocks would move at least 2p > n points), so its support
       lies in one block, which then has over n/2 points: all of them.  By
       Jordan's theorem a primitive group holding a p-cycle with p <= n - 3
       contains A_n (Dixon & Mortimer, Permutation Groups, Thm. 3.3E).
    4. Anything else is decided by Schreier-Sims: |<x, y>| == |G|.
    """
    orbit, frontier = {0}, [0]
    for p in frontier:
        for q in (x[p], y[p]):
            if q not in orbit:
                orbit.add(q)
                frontier.append(q)
    if len(orbit) < G.n:
        return False
    if G.n <= 7:
        bound = G.order // G.n if G.n >= 5 else G.order - 1
        return len(closure(G, (x, y), stop_above=bound)) > bound
    primes = G._jordan_primes
    if any(not primes.isdisjoint(map(len, cycles_of(g))) for g in _walk(x, y)):
        return True
    return BSGS([x, y], G.n).order == G.order


# ---------------------------------------------------------------------------
# the group handles
# ---------------------------------------------------------------------------

class _PermGroupBase(Group):
    def __init__(self, n: int):
        if n < 3:
            raise GroupError("permutation realizations need n >= 3")
        self.n = n
        # the primes of the Jordan certificate (see _generates_giant)
        self._jordan_primes = frozenset(
            p for p in range(n // 2 + 1, n - 2) if is_prime(p))

    def identity(self):
        return perm_identity(self.n)

    def multiply(self, a, b):
        return perm_mul(a, b)

    def inverse(self, a):
        return perm_inv(a)

    def order_of(self, a):
        return perm_order(a)

    def prime_power_classes(self, a):
        """Mask of the classes of the prime-order powers of a, memoized by
        cycle type: for each prime r dividing o = |a|, the type of
        h = a**(o/r), both A_n halves of a split type (README, "Notes on
        exactness", has the proof)."""
        ct = cycle_type(a)
        sigma = self._sigma_memo.get(ct)
        if sigma is None:
            o, fps = math.lcm(*ct), []
            for r in sorted({r for l in set(ct) for r in prime_factors(l)}):
                c = sum(l for l in ct if o // r % l) // r  # the r-cycles of h
                fp = ("c",) + (r,) * c + (1,) * (self.n - r * c)
                split = self.kind == "alternating" and c == 1 and r % 2 and self.n <= r + 1
                fps += [fp + ("s", 0), fp + ("s", 1)] if split else [fp]
            sigma = self._sigma_memo[ct] = self._sigma_mask(fps)
        return sigma

    def parse_element(self, text):
        g = parse_cycles(text, self.n)
        self.check_element(g)
        return g

    def format_element(self, a):
        return format_cycles(a)

    def _check_shape(self, a):
        if (not isinstance(a, tuple) or len(a) != self.n
                or sorted(a) != list(range(self.n))):
            raise HandleMismatch(f"{a!r} is not a permutation of {self.n} points")


class AlternatingGroup(_PermGroupBase):
    kind = "alternating"

    def __init__(self, n: int):
        super().__init__(n)
        self.order = math.factorial(n) // 2

    def descriptor(self):
        return f"alt:{self.n}"

    def check_element(self, a):
        self._check_shape(a)
        if parity(a) != 0:
            raise HandleMismatch(
                f"odd permutation {format_cycles(a)} passed to {self.descriptor()}")

    def generates(self, x, y):
        return _generates_giant(self, x, y)

    def fingerprint(self, a):
        ct = cycle_type(a)
        if len(set(ct)) == len(ct) and all(l % 2 == 1 for l in ct):
            # S_n class splits into two A_n classes; the parity of any
            # conjugator onto the canonical layout discriminates (the
            # centralizer is generated by the odd-length cycles, hence even).
            return ("c",) + ct + ("s", _canonical_conjugator_parity(a))
        return ("c",) + ct

    def forced_share(self, r):
        # r = 2: the types 2^(2j), one class below n = 8.  Odd r <= n < 2r:
        # an element whose order r divides has one r-cycle, whose class splits
        # at n = r and r + 1, and its powers reach both halves
        if r == 2:
            return self._share_reason(r, True) if self.n < 8 else None
        return self._share_reason(r, self.n >= r + 2) if r <= self.n < 2 * r else None

    def iter_elements(self):
        from itertools import permutations
        return (g for g in permutations(range(self.n)) if parity(g) == 0)

    def random_element(self, rng):
        g = list(range(self.n))
        rng.shuffle(g)
        g = tuple(g)
        if parity(g) != 0:
            # post-compose with the transposition (0 1); 2-to-1 onto A_n
            g = tuple(x if x > 1 else 1 - x for x in g)
        return g

    def _order_refusal(self, k):
        return (f"no even permutation of order {k} on {self.n} points"
                if order_partition(self.n, k, 0) is None else None)


class SymmetricGroup(_PermGroupBase):
    kind = "symmetric"

    def __init__(self, n: int):
        super().__init__(n)
        self.order = math.factorial(n)

    def descriptor(self):
        return f"sym:{self.n}"

    def check_element(self, a):
        self._check_shape(a)

    def generates(self, x, y):
        # two even permutations generate at most A_n; with an odd one,
        # a group containing A_n is S_n
        return bool(parity(x) or parity(y)) and _generates_giant(self, x, y)

    def fingerprint(self, a):
        return ("c",) + cycle_type(a)

    def iter_elements(self):
        from itertools import permutations
        return iter(permutations(range(self.n)))

    def random_element(self, rng):
        g = list(range(self.n))
        rng.shuffle(g)
        return tuple(g)

    def forced_share(self, r):
        # n < 2r: an element whose order r divides has one r-cycle, and the
        # r-cycles form one class
        return self._share_reason(r, True) if self.n < 2 * r else None

    def _order_refusal(self, k):
        return (f"no permutation of order {k} on {self.n} points"
                if all(order_partition(self.n, k, par) is None for par in (0, 1)) else None)


def _canonical_conjugator_parity(a) -> int:
    # lay out the cycles by increasing length (lengths are distinct here);
    # the permutation sending that layout to 0..n-1 conjugates a onto the
    # canonical representative of its type
    cyc = sorted(cycles_of(a), key=len)
    word = [p for c in cyc for p in c]
    g = [0] * len(a)
    for i, p in enumerate(word):
        g[p] = i
    return parity(tuple(g))


# ---------------------------------------------------------------------------
# almost homogeneous classes
# ---------------------------------------------------------------------------

def permutation_of_shape(n: int, lengths) -> tuple[int, ...]:
    """Cycles of the given lengths laid out left to right on 0..n-1."""
    if sum(lengths) > n:
        raise GroupError(f"shape {lengths} does not fit on {n} points")
    img = list(range(n))
    pos = 0
    for length in lengths:
        for i in range(length):
            img[pos + i] = pos + (i + 1) % length
        pos += length
    return tuple(img)


def construct_almost_homogeneous(n: int, m: int, f: int) -> tuple[int, ...]:
    """An even permutation of cycle shape (m^k, 1^f) on n points.

    Requires m >= 2, n = m*k + f with k >= 1, and even parity (m-1)*k.
    """
    if m < 2:
        raise GroupError("cycle length m must be >= 2")
    if f < 0 or (n - f) % m != 0:
        raise GroupError(
            f"no shape ({m}^k, 1^{f}) on {n} points: n - f = {n - f} "
            f"is not a positive multiple of {m}")
    k = (n - f) // m
    if k < 1:
        raise GroupError(f"shape ({m}^k, 1^{f}) on {n} points needs k >= 1")
    if ((m - 1) * k) % 2 != 0:
        raise GroupError(
            f"shape ({m}^{k}, 1^{f}) is odd: parity (m-1)*k = {(m - 1) * k}")
    return permutation_of_shape(n, [m] * k)


def format_shape(m: int, k: int, f: int) -> str:
    parts = [f"{m}^{k}"]
    if f:
        parts.append(f"1^{f}")
    return ",".join(parts)


def select_six_shapes(n: int, orders) -> list[tuple[int, int, int]]:
    """Six even almost-homogeneous shapes (m, k, f) with the requested
    element orders and pairwise distinct fixed-point counts.

    For each order the smallest feasible f congruent to n mod order is
    taken, bumping by the order until the parity is even and f is unused;
    distinct f values make the classes (and their nontrivial powers)
    pairwise non-conjugate.  Raises with the smallest feasible n' when n is
    too small.
    """
    orders = list(orders)
    if len(orders) != 6 or any(o < 2 for o in orders):
        raise GroupError("need six cycle orders, all >= 2")
    result = _try_six_shapes(n, orders)
    if result is not None:
        return result
    for n2 in range(n + 1, n + 4 * max(orders) * len(orders) + 16):
        if _try_six_shapes(n2, orders) is not None:
            raise GroupError(
                f"n = {n} infeasible for orders {tuple(orders)}; "
                f"smallest feasible n is {n2}")
    raise GroupError(f"n = {n} infeasible for orders {tuple(orders)}")


def _try_six_shapes(n, orders):
    used_f = set()
    shapes = []
    for m in orders:
        f = n % m
        while True:
            k = (n - f) // m
            if k < 1:
                return None
            if ((m - 1) * k) % 2 == 0 and f not in used_f:
                break
            f += m
        used_f.add(f)
        shapes.append((m, k, f))
    return shapes


@lru_cache(maxsize=None)
def order_partition(n: int, k: int, par: int) -> tuple[int, ...] | None:
    """A multiset of cycle lengths > 1 with lcm exactly k, total at most n,
    and total parity ``par`` (0 even, 1 odd); None when no permutation of
    order k and that parity exists on n points."""
    divs = [d for d in range(2, min(k, n) + 1) if k % d == 0]  # a cycle has <= n points

    best: list[tuple[int, ...] | None] = [None]

    def search(idx, remaining, lcm, parts, parts_par):
        if best[0] is not None:
            return
        if lcm == k and parts_par == par:
            best[0] = tuple(parts)
            return
        if idx >= len(divs):
            return
        d = divs[idx]
        max_copies = remaining // d
        for copies in range(max_copies, -1, -1):
            search(idx + 1, remaining - copies * d,
                   math.lcm(lcm, d) if copies else lcm,
                   parts + [d] * copies,
                   (parts_par + copies * (d - 1)) % 2)
            if best[0] is not None:
                return

    search(0, n, 1, [], 0)
    return best[0]
