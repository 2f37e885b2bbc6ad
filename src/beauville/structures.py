"""Unmixed Beauville structures: verification, triple construction, search.

A quadruple (x1, y1; x2, y2) in a finite group G is an unmixed Beauville
structure when, with z_i = (x_i y_i)**-1,

  (i)   x_i y_i z_i = 1 for both triples (holds by construction here),
  (ii)  <x1, y1> = G and <x2, y2> = G,
  (iii) Sigma(x1, y1, z1) & Sigma(x2, y2, z2) = {1}, where Sigma(x, y, z)
        is the union of the conjugacy classes of all powers of x, y and z.

Condition (iii) is decided on prime-order power classes: Sigma is closed
under powers and conjugation and every nontrivial element has a prime-order
power, so the full intersection is trivial exactly when the prime-order
class sets are disjoint.  The reduction is cross-checked against full Sigma
enumeration in the test suite rather than assumed.

The type of a triple is the sorted tuple of element orders; a type (r,s,t)
is hyperbolic when 1/r + 1/s + 1/t < 1.  Spherical and euclidean types
cannot occur in a Beauville structure (their triangle groups have only
dihedral/A4/S4/A5 or soluble quotients), so searches reject them up front.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .groups import ENUMERATION_CAP, CapExceeded, Group, GroupError
from .numutil import PRIME_PROOF_BOUND, is_prime, prime_factors
from .perms import BSGS, order_partition, permutation_of_shape

DEFAULT_SEED = 1729
PAIR_CAP = 2_000_000
# 'auto' runs the pair census first up to this order: an order-60 census
# takes a fraction of a second and certifies, where random search could only
# end inconclusive (no non-abelian group this small has a structure)
AUTO_CENSUS_ORDER = 60


class Unrealizable(GroupError):
    """The requested element orders cannot occur in this group."""


class SearchInconclusive(RuntimeError):
    """A randomized search ran out of attempts without a verdict."""


# ---------------------------------------------------------------------------
# triangle types and the Hurwitz residue criterion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TriangleType:
    orders: tuple[int, int, int]
    kind: str  # 'spherical' | 'euclidean' | 'hyperbolic'
    measure: Fraction

    def to_dict(self):
        return {"orders": list(self.orders), "kind": self.kind,
                "measure": [self.measure.numerator, self.measure.denominator]}


def classify_triangle(r: int, s: int, t: int) -> TriangleType:
    """Spherical/euclidean/hyperbolic trichotomy with measure
    1 - (1/r + 1/s + 1/t)."""
    orders = tuple(sorted((r, s, t)))
    if any(o < 2 for o in orders):
        raise GroupError("triangle orders must be integers >= 2")
    total = Fraction(1, r) + Fraction(1, s) + Fraction(1, t)
    measure = 1 - total
    if total > 1:
        kind = "spherical"
    elif total == 1:
        kind = "euclidean"
    else:
        kind = "hyperbolic"
    return TriangleType(orders, kind, measure)


def is_hurwitz_psl2(p: int, e: int) -> bool:
    """Whether PSL2(p**e) is a quotient of the (2,3,7) triangle group:
    e = 1 with p = 0, +-1 mod 7, or e = 3 with p = +-2, +-3 mod 7."""
    if p >= PRIME_PROOF_BOUND:
        raise GroupError(f"{p} cannot be certified prime (only below {PRIME_PROOF_BOUND})")
    if not is_prime(p):
        raise GroupError(f"{p} is not prime")
    if e < 1:
        raise GroupError("exponent must be >= 1")
    if e == 1:
        return p % 7 in (0, 1, 6)
    if e == 3:
        return p % 7 in (2, 3, 4, 5)
    return False


# ---------------------------------------------------------------------------
# triple types and Sigma sets
# ---------------------------------------------------------------------------

def sigma_prime_fingerprints(G: Group, x, y, orders=None) -> int:
    """Mask, over G's class index, of the prime-order elements among all
    powers of x, y and z = (x*y)**-1.  Two triples have trivially
    intersecting Sigma sets exactly when these masks are disjoint; masks of
    different handles are never mixed, as with payloads.  z and x*y have the
    same powers, so x*y stands for z.  ``orders``, |x|, |y| and |xy| in any
    order, lets PSL2 answer from its memo by order (``sigma_of_orders``)."""
    if orders and G.kind == "psl2" and (sigma := G.sigma_of_orders(orders)) is not None:
        return sigma
    return (G.prime_power_classes(x) | G.prime_power_classes(y)
            | G.prime_power_classes(G.multiply(x, y)))


def shared_classes(G: Group, first, second, fastpath: bool = True):
    """(coprime, shared) for pairs (x, y, orders), the orders of x, y, x*y
    in any order, or None: ``shared`` is the mask (over G's class index;
    ``G.sigma_classes`` decodes it) of what both Sigma sets hold, 0 iff
    condition (iii) holds.
    A Sigma class has prime order dividing its triple's order product, so
    coprime products decide it without Sigma (``coprime``)."""
    (x1, y1, o1), (x2, y2, o2) = first, second
    if fastpath and o1 and o2 and math.gcd(math.prod(o1), math.prod(o2)) == 1:
        return True, 0
    return False, sigma_prime_fingerprints(G, x1, y1, o1) & sigma_prime_fingerprints(G, x2, y2, o2)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    group: str
    quadruple: tuple
    z1: object
    z2: object
    type1: tuple[int, int, int]
    type2: tuple[int, int, int]
    hyperbolic1: bool
    hyperbolic2: bool
    cond_i: bool
    cond_ii: tuple[bool, bool]
    cond_iii: bool
    coprime_fastpath: bool
    witnesses: dict = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.cond_i and all(self.cond_ii) and self.cond_iii

    def to_dict(self, G: Group) -> dict:
        fmt = G.format_element
        return {
            "group": self.group,
            "quadruple": [fmt(m) for m in self.quadruple],
            "z1": fmt(self.z1),
            "z2": fmt(self.z2),
            "type1": list(self.type1),
            "type2": list(self.type2),
            "hyperbolic": [self.hyperbolic1, self.hyperbolic2],
            "cond_i": self.cond_i,
            "cond_ii": list(self.cond_ii),
            "cond_iii": self.cond_iii,
            "coprime_fastpath": self.coprime_fastpath,
            "witnesses": self.witnesses,
            "ok": self.ok,
            "elapsed": self.elapsed,
        }


def _generation_witness(G: Group, x, y) -> str:
    if G.kind == "psl2":
        return str(G.classify_pair(x, y))
    if G.kind == "abelian":
        det = (x[0] * y[1] - x[1] * y[0]) % G.n
        return f"gcd(det, n) = {math.gcd(det, G.n)} != 1"
    return f"subgroup of order {BSGS([x, y], G.n).order} < {G.order}"


def verify_quadruple(G: Group, x1, y1, x2, y2,
                     use_fastpath: bool = True) -> VerificationReport:
    """Full three-condition check of a candidate quadruple.

    z_i is derived as (x_i y_i)**-1, so condition (i) holds by
    construction.  Condition (iii) is decided by ``shared_classes``; its
    coprime shortcut is skipped with use_fastpath=False (the equivalence is
    itself under test).
    """
    t0 = time.perf_counter()
    for m in (x1, y1, x2, y2):
        G.check_element(m)
    z1, z2 = G.inverse(G.multiply(x1, y1)), G.inverse(G.multiply(x2, y2))
    type1, type2 = (tuple(sorted(map(G.order_of, t))) for t in ((x1, y1, z1), (x2, y2, z2)))
    witnesses: dict = {}

    gen1, gen2 = G.generates(x1, y1), G.generates(x2, y2)
    if not gen1:
        witnesses["pair1_subgroup"] = _generation_witness(G, x1, y1)
    if not gen2:
        witnesses["pair2_subgroup"] = _generation_witness(G, x2, y2)

    fastpath, shared = shared_classes(G, (x1, y1, type1), (x2, y2, type2), use_fastpath)
    if shared:
        witnesses["shared_classes"] = sorted(repr(fp) for fp in G.sigma_classes(shared))

    return VerificationReport(
        group=G.descriptor(), quadruple=(x1, y1, x2, y2),
        z1=z1, z2=z2, type1=type1, type2=type2,
        hyperbolic1=_hyperbolic(type1), hyperbolic2=_hyperbolic(type2),
        cond_i=True, cond_ii=(gen1, gen2), cond_iii=not shared,
        coprime_fastpath=fastpath, witnesses=witnesses,
        elapsed=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# generating triples of prescribed type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratingTriple:
    x: object
    y: object
    z: object
    orders: tuple[int, int, int]  # (|x|, |y|, |z|) as requested, unsorted


def find_generating_triple(G: Group, r: int, s: int, t: int,
                           seed: int = DEFAULT_SEED,
                           max_attempts: int = 20000) -> GeneratingTriple:
    """A triple (x, y, z) with x*y*z = 1, exact orders (r, s, t) and
    <x, y> = G.

    PSL2 goes through the trace machinery deterministically: candidate
    trace triples are swept in encoding order and classified from their
    traces alone, which fix the generated subgroup of a non-singular triple
    (Fact A, in ``PSL2.classify_traces``), so an exhausted sweep is a
    nonexistence proof.  Permutation groups use shaped representatives and
    seeded random conjugates (inconclusive on exhaustion).  Zn x Zn has
    one generating type, (n, n, n), read in closed form.
    """
    if min(r, s, t) < 2:
        raise Unrealizable("generating-triple orders must all be >= 2")
    try:  # each order must occur in G, refused in closed form
        for k in (r, s, t):
            G.check_order(k)
    except GroupError as exc:
        raise Unrealizable(str(exc)) from exc
    if G.kind == "psl2":
        return _psl2_triple(G, r, s, t)
    if G.kind == "abelian":
        return _abelian_triple(G, r, s, t)
    return _perm_triple(G, r, s, t, seed, max_attempts)


def _psl2_triple(G, r, s, t):
    """The first generating solution over the trace triples of orders r, s
    and t, each classified from its traces by ``PSL2.classify_traces`` and
    only a generating one solved.  A generating triple is non-singular, so
    no matrix is +-I (proof in ``classify_traces``) and the solution has
    orders (r, s, t)."""
    cand = [G.traces_of_order(k) for k in (r, s, t)]
    for a, b, g in product(*cand):
        if G.classify_traces(a, b, g).kind == "full":
            return GeneratingTriple(*map(G._canon, G.solve_trace_triple(a, b, g)), (r, s, t))
    raise Unrealizable(
        f"{G.descriptor()} has no generating triple of type ({r},{s},{t}): "
        f"every candidate trace triple generates a proper subgroup")


def _perm_triple(G, r, s, t, seed, max_attempts):
    if G.kind == "symmetric":
        x0, y0 = _symmetric_shapes(G.n, r, s, t)
    else:
        x0, y0 = (permutation_of_shape(G.n, order_partition(G.n, k, 0)) for k in (r, s))
    rng = random.Random(seed)
    for _ in range(max_attempts):
        x = G.conjugate(G.random_element(rng), x0)
        y = G.conjugate(G.random_element(rng), y0)
        z = G.inverse(G.multiply(x, y))
        if G.order_of(z) != t:
            continue
        if G.generates(x, y):
            return GeneratingTriple(x, y, z, (r, s, t))
    raise SearchInconclusive(
        f"no ({r},{s},{t}) generating triple of {G.descriptor()} found in "
        f"{max_attempts} random attempts (inconclusive)")


def _symmetric_shapes(n, r, s, t):
    """Elements of orders r and s whose parities allow <x, y> = S_n.

    Two even permutations generate at most A_n, so x or y is odd, and
    z = (xy)**-1 has the parity of xy, so an element of order t with that
    parity must exist.  The first parity pair (x, y) of (even, odd),
    (odd, even), (odd, odd) with all three shapes realizable is taken; when
    none is, S_n has no generating triple of type (r, s, t).
    """
    for px, py in ((0, 1), (1, 0), (1, 1)):
        parts = [order_partition(n, k, par)
                 for k, par in ((r, px), (s, py), (t, px ^ py))]
        if None not in parts:
            return permutation_of_shape(n, parts[0]), permutation_of_shape(n, parts[1])
    raise Unrealizable(
        f"sym:{n} has no generating triple of type ({r},{s},{t}): x or y "
        f"must be odd with z of the parity of xy, and no permutations of "
        f"these orders on {n} points have such parities")


def _abelian_triple(G, r, s, t):
    # a generating pair is a basis of Zn^2, and so are (x, xy) and (xy, y),
    # so x, y and z all have order n; the standard basis is the first pair
    # a sweep of y in element order would find for x = (1, 0)
    n = G.n
    if (r, s, t) != (n, n, n):
        raise Unrealizable(
            f"{G.descriptor()} has no generating triple of type ({r},{s},{t})")
    return GeneratingTriple((1, 0), (0, 1), (n - 1, n - 1), (r, s, t))


# ---------------------------------------------------------------------------
# structure search
# ---------------------------------------------------------------------------

@dataclass
class SearchOutcome:
    found: bool
    quadruple: tuple | None
    report: VerificationReport | None
    certificate: dict | None
    stats: dict

    def to_dict(self, G: Group) -> dict:
        out = {"found": self.found, "stats": self.stats}
        if self.quadruple is not None:
            out["quadruple"] = [G.format_element(m) for m in self.quadruple]
        if self.report is not None:
            out["report"] = self.report.to_dict(G)
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out


def _validate_targets(target_types):
    if target_types is None:
        return None
    t1, t2 = target_types
    for tau in (t1, t2):
        tri = classify_triangle(*tau)
        if tri.kind != "hyperbolic":
            raise GroupError(
                f"type {tuple(tau)} is {tri.kind}; only hyperbolic types can "
                f"occur in an unmixed Beauville structure")
    return (tuple(sorted(t1)), tuple(sorted(t2)))


def search_structure(G: Group, strategy: str = "auto",
                     target_types=None, seed: int = DEFAULT_SEED,
                     max_attempts: int = 200_000,
                     pair_cap: int = PAIR_CAP) -> SearchOutcome:
    """Find an unmixed Beauville structure, or certify nonexistence.

    Strategies: 'exhaustive' enumerates generating pairs with the first
    element reduced to class representatives (all three conditions are
    invariant under simultaneous conjugation), so an empty result is a
    nonexistence certificate; 'macbeath' (PSL2 only) builds triples from
    trace candidates for the fixed coprime type pairs ((m,m,m),(n,n,n)),
    ((m,m,m),(n,n,p)) and ((m,m,n),(p,p,p)), m and n the split and nonsplit
    orders; 'random' draws seeded uniform quadruples.
    'auto' picks exhaustive for |G| <= AUTO_CENSUS_ORDER, then
    macbeath -> random for PSL2, exhaustive for small Zn x Zn, random
    otherwise.
    """
    targets = _validate_targets(target_types)
    t0 = time.perf_counter()
    if strategy == "auto":
        if G.order <= AUTO_CENSUS_ORDER:
            return _exhaustive_search(G, targets, pair_cap, t0)
        if G.kind == "psl2":
            try:
                return _macbeath_search(G, targets, t0)
            except SearchInconclusive:
                return _random_search(G, targets, seed, max_attempts, t0)
        if G.kind == "abelian" and G.order ** 2 <= pair_cap:
            return _exhaustive_search(G, targets, pair_cap, t0)
        return _random_search(G, targets, seed, max_attempts, t0)
    if strategy == "exhaustive":
        return _exhaustive_search(G, targets, pair_cap, t0)
    if strategy == "macbeath":
        if G.kind != "psl2":
            raise GroupError("the macbeath strategy applies to psl2 groups only")
        return _macbeath_search(G, targets, t0)
    if strategy == "random":
        return _random_search(G, targets, seed, max_attempts, t0)
    raise GroupError(f"unknown strategy {strategy!r}")


def _outcome(G, quad, t0, stats):
    report = verify_quadruple(G, *quad)
    assert report.ok, "search returned a quadruple that fails verification"
    stats = dict(stats)
    stats["elapsed"] = time.perf_counter() - t0
    return SearchOutcome(True, quad, report, None, stats)


@dataclass
class PairCensus:
    """Achievable Sigma sets of the class-reduced generating pairs of G.

    ``weights`` maps each Sigma mask to the number of generating
    pairs (x, y) of G that reach it; ``examples`` maps each (Sigma, sorted
    type) reached to its first pair, in census order.
    With x over ``representatives`` non-identity class representatives and
    y over G, ``pairs_checked`` counts the pairs (x, y), of which
    ``generating_pairs`` generate.  ``pairs_tested`` counts the generation
    tests made, one per C_G(x)-orbit of y, up to an early stop.
    """
    weights: dict
    examples: dict
    pairs_checked: int
    generating_pairs: int
    representatives: int
    pairs_tested: int


def pair_census(G: Group, pair_cap: int = PAIR_CAP) -> PairCensus:
    """Enumerate generating pairs with x over non-identity class
    representatives and y over one representative per C_G(x)-orbit.

    Simultaneous conjugation of (x, y) preserves generation, type and Sigma
    fingerprints, so each representative x stands for its whole class and
    weighs the class size.  Conjugation by c in C_G(x) fixes x, so y stands
    for its orbit {c y c**-1} and weighs the orbit size.  The results are
    those of a scan of every y in G order: if y is the first y reaching some
    (Sigma, type), the first member of its orbit reaches it too, so that
    member is y; ``weights``, ``examples`` and their insertion orders agree.
    When ``G.census_closed_form()`` gives the counts, the scan stops before
    the next x once it holds every key.
    The census is kept on the handle; a later call still refuses a smaller
    ``pair_cap``.
    """
    max_classes = pair_cap // G.order + 1  # (k - 1) * |G| <= pair_cap iff k <= this
    try:
        partition = G.classes(max_classes=max_classes)
    except CapExceeded:
        if G.order > ENUMERATION_CAP:
            raise
        required = max_classes * G.order
        raise CapExceeded(f"pair census needs at least {required} pairs, cap is {pair_cap}",
                          required=required, cap=pair_cap) from None
    if G._census is not None:
        return G._census
    reps = partition.classes[1:]  # identity class first
    keys, bases = G.census_closed_form() or (None, None)
    weights, examples = {}, {}
    gen_pairs = tested = 0
    for cls in reps:
        if len(examples) == keys:  # every first pair is in; the rest only adds weight
            gen_pairs, weights = bases, dict.fromkeys(weights, bases // keys)
            break
        x = cls.representative
        for y, size in G.centralizer_orbits(x, partition.elements):
            tested += 1
            gen, orders = G.read_pair(x, y)
            if not gen:
                continue
            gen_pairs += size
            sig = sigma_prime_fingerprints(G, x, y, orders)
            weights[sig] = weights.get(sig, 0) + cls.size * size
            examples.setdefault((sig, tuple(sorted(orders))), (x, y))
    G._census = PairCensus(weights, examples, len(reps) * G.order, gen_pairs, len(reps), tested)
    return G._census


def _exhaustive_search(G, targets, pair_cap, t0):
    """A structure exists iff two achievable Sigma sets of the pair census
    are disjoint, so an empty scan is a nonexistence certificate."""
    census = pair_census(G, pair_cap)
    achievable: dict = {}  # sigma -> sorted type -> first pair, of the target types
    for (sig, tau), pair in census.examples.items():
        if not targets or tau in targets:
            achievable.setdefault(sig, {})[tau] = pair
    sigmas = list(achievable)
    counts = {"pairs_checked": census.pairs_checked,
              "generating_pairs": census.generating_pairs,
              "distinct_sigma_sets": len(sigmas)}
    for i, s1 in enumerate(sigmas):
        for s2 in sigmas[i:]:
            if s1 & s2:
                continue
            for (tau1, pair1), (tau2, pair2) in product(achievable[s1].items(),
                                                        achievable[s2].items()):
                # swap only when the unswapped order misses, so equal
                # target types keep the census order
                if targets and (tau1, tau2) != targets:
                    if (tau2, tau1) != targets:
                        continue
                    pair1, pair2 = pair2, pair1
                return _outcome(G, pair1 + pair2, t0, {"strategy": "exhaustive", **counts})
    certificate = {
        "conclusion": ("no unmixed Beauville structure: no two generating "
                       "pairs have disjoint power-class sets"
                       + (" for the requested types" if targets else "")),
        **counts,
        "class_representatives": census.representatives,
        "exhaustive": True,
    }
    return SearchOutcome(False, None, None, certificate, {
        "strategy": "exhaustive", "pairs_checked": census.pairs_checked,
        "elapsed": time.perf_counter() - t0})


def _random_search(G, targets, seed, max_attempts, t0):
    rng = random.Random(seed)
    target1, target2 = targets or (None, None)
    reason = targets and _forced_failure(G, target1, target2)
    if reason:
        return SearchOutcome(False, None, None, {"unrealizable": reason}, {
            "strategy": "random", "elapsed": time.perf_counter() - t0})

    def draw(target):
        """A random generating (x, y, orders) of the target type, or None;
        an untyped draw tests generation only, and its orders are None."""
        x, y = G.random_element(rng), G.random_element(rng)
        if not target:
            return (x, y, None) if G.generates(x, y) else None
        gen, orders = G.read_pair(x, y)
        return (x, y, orders) if gen and tuple(sorted(orders)) == target else None

    for attempts in range(1, max_attempts + 1):
        first = draw(target1)
        second = first and draw(target2)
        if not second or shared_classes(G, first, second)[1]:
            continue
        return _outcome(G, first[:2] + second[:2], t0,
                        {"strategy": "random", "attempts": attempts, "seed": seed})
    raise SearchInconclusive(
        f"no structure found for {G.descriptor()} in {max_attempts} random "
        f"attempts (inconclusive, not a nonexistence proof)")


def _forced_failure(G, target1, target2):
    """Why no quadruple of these types is a structure, or None: an order G
    lacks, or a prime r dividing both type products for which G forces a
    share (``Group.forced_share``).  A triple whose order product r divides
    has an element of order divisible by r, so both Sigma sets hold the
    class that G forces."""
    try:
        for k in sorted(set(target1 + target2)):
            G.check_order(k)
    except GroupError as exc:
        return str(exc)
    primes1, primes2 = ({r for k in tau for r in prime_factors(k)} for tau in (target1, target2))
    for r in sorted(primes1 & primes2):
        reason = G.forced_share(r)
        if reason:
            return (f"both type products are divisible by {r}, and {reason}, "
                    f"which both Sigma sets hold")
    return None


def _macbeath_search(G, targets, t0):
    """Guided search for PSL2: build each triple from the trace machinery.

    Without targets, the candidates are the hyperbolic pairs among the fixed
    ((m,m,m),(n,n,n)), ((m,m,m),(n,n,p)) and ((m,m,n),(p,p,p)), m = (q-1)/d
    and n = (q+1)/d: m, n and p are pairwise coprime, so each pair's order
    products are.  The first succeeds for every q from 8 to 2,100 (a test
    checks them all), the third at q = 7; q = 4 and 5 have no candidate.
    """
    m, n, p = G.split_order, G.nonsplit_order, G.p  # m < n: only (n, n, p) needs a sort
    fixed = (((m, m, m), (n, n, n)), ((m, m, m), tuple(sorted((n, n, p)))), ((m, m, n), (p, p, p)))
    candidates = [targets] if targets else [pair for pair in fixed if all(map(_hyperbolic, pair))]
    last_error = None
    for attempts, (tau1, tau2) in enumerate(candidates, 1):
        try:
            tri1 = find_generating_triple(G, *tau1)
            tri2 = find_generating_triple(G, *tau2)
        except Unrealizable as exc:
            # certified absent: the sweep is exhaustive, and rotating or
            # inverting a triple realizes every ordering of its type
            if targets:
                return SearchOutcome(False, None, None, {"unrealizable": str(exc)}, {
                    "strategy": "macbeath", "elapsed": time.perf_counter() - t0})
            last_error = exc
            continue
        # both triples generate, so condition (iii) decides
        if not shared_classes(G, (tri1.x, tri1.y, tri1.orders), (tri2.x, tri2.y, tri2.orders))[1]:
            return _outcome(G, (tri1.x, tri1.y, tri2.x, tri2.y), t0, {
                "strategy": "macbeath", "types_tried": attempts,
                "type1": list(tau1), "type2": list(tau2)})
    raise SearchInconclusive(
        f"macbeath strategy exhausted {len(candidates)} type pairs for "
        f"{G.descriptor()}" + (f" (last: {last_error})" if last_error else ""))


def _hyperbolic(tau) -> bool:
    """1/r + 1/s + 1/t < 1, in integers: rs + st + tr < rst (false with a 1)."""
    r, s, t = tau
    return r * s + s * t + t * r < r * s * t
