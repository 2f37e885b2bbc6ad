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
from itertools import combinations_with_replacement, islice, product

from .counting import ClassPartition
from .groups import CapExceeded, Group, GroupError
from .numutil import is_prime, prime_factors

DEFAULT_SEED = 1729
PAIR_CAP = 2_000_000


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

def triple_type(G: Group, x, y) -> tuple:
    """z = (x*y)**-1 and the sorted type (|x|, |y|, |z|) of the triple."""
    z = G.inverse(G.multiply(x, y))
    return z, tuple(sorted((G.order_of(x), G.order_of(y), G.order_of(z))))


def sigma_prime_fingerprints(G: Group, x, y) -> frozenset:
    """Conjugacy fingerprints of the prime-order elements among all powers
    of x, y and z = (x*y)**-1.  Two triples have trivially intersecting
    Sigma sets exactly when these sets are disjoint."""
    z = G.inverse(G.multiply(x, y))
    return (_prime_power_classes(G, x) | _prime_power_classes(G, y)
            | _prime_power_classes(G, z))


def _prime_power_classes(G: Group, g) -> frozenset:
    """Fingerprints of the prime-order powers of g.  Conjugate elements have
    conjugate powers, so the set is memoized on the handle under the
    fingerprint of g and the walk runs once per class."""
    memo = vars(G).setdefault("_sigma_memo", {})
    key = G.fingerprint(g)
    sigma = memo.get(key)
    if sigma is None:
        out = set()
        n = G.order_of(g)
        for r in prime_factors(n) if n > 1 else ():
            h = G.power(g, n // r)
            cur = h
            for _ in range(r - 1):
                out.add(G.fingerprint(cur))
                cur = G.multiply(cur, h)
        sigma = memo[key] = frozenset(out)
    return sigma


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

    def to_dict(self, G: Group | None = None) -> dict:
        fmt = G.format_element if G is not None else repr
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
    from .psl2 import PSL2
    if isinstance(G, PSL2):
        return str(G.classify_pair(x, y))
    from .perms import BSGS, AlternatingGroup, SymmetricGroup
    if isinstance(G, (AlternatingGroup, SymmetricGroup)):
        return f"subgroup of order {BSGS([x, y], G.n).order} < {G.order}"
    det = (x[0] * y[1] - x[1] * y[0]) % G.n
    return f"gcd(det, n) = {math.gcd(det, G.n)} != 1"


def verify_quadruple(G: Group, x1, y1, x2, y2,
                     use_fastpath: bool = True) -> VerificationReport:
    """Full three-condition check of a candidate quadruple.

    z_i is derived as (x_i y_i)**-1, so condition (i) holds by
    construction.  When the products of the two types are coprime,
    condition (iii) holds without computing Sigma; the fastpath is skipped
    with use_fastpath=False (the equivalence is itself under test).
    """
    t0 = time.perf_counter()
    for m in (x1, y1, x2, y2):
        G.check_element(m)
    z1, type1 = triple_type(G, x1, y1)
    z2, type2 = triple_type(G, x2, y2)
    witnesses: dict = {}

    gen1 = G.generates(x1, y1)
    gen2 = G.generates(x2, y2)
    if not gen1:
        witnesses["pair1_subgroup"] = _generation_witness(G, x1, y1)
    if not gen2:
        witnesses["pair2_subgroup"] = _generation_witness(G, x2, y2)

    fastpath = False
    if use_fastpath and math.gcd(math.prod(type1), math.prod(type2)) == 1:
        cond_iii = True
        fastpath = True
    else:
        s1 = sigma_prime_fingerprints(G, x1, y1)
        s2 = sigma_prime_fingerprints(G, x2, y2)
        shared = s1 & s2
        cond_iii = not shared
        if shared:
            witnesses["shared_classes"] = sorted(repr(fp) for fp in shared)

    hyp1 = classify_triangle(*type1).kind == "hyperbolic" if min(type1) >= 2 else False
    hyp2 = classify_triangle(*type2).kind == "hyperbolic" if min(type2) >= 2 else False
    return VerificationReport(
        group=G.descriptor(), quadruple=(x1, y1, x2, y2), z1=z1, z2=z2,
        type1=type1, type2=type2, hyperbolic1=hyp1, hyperbolic2=hyp2,
        cond_i=True, cond_ii=(gen1, gen2), cond_iii=cond_iii,
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
    trace triples are swept in encoding order, each non-singular one is
    solved constructively, and for non-singular triples the generated
    subgroup depends only on the traces, so an exhausted sweep is a
    nonexistence proof.  Permutation groups use shaped representatives and
    seeded random conjugates (inconclusive on exhaustion).  Zn x Zn fixes
    x = (n/r, 0), complete up to automorphism, and sweeps y.
    """
    if min(r, s, t) < 2:
        raise Unrealizable("generating-triple orders must all be >= 2")
    from .perms import AlternatingGroup, SymmetricGroup
    from .psl2 import PSL2
    if isinstance(G, PSL2):
        return _psl2_triple(G, r, s, t)
    if isinstance(G, (AlternatingGroup, SymmetricGroup)):
        return _perm_triple(G, r, s, t, seed, max_attempts)
    return _abelian_triple(G, r, s, t)


def _psl2_triple(G, r, s, t):
    try:
        cand = [G.traces_of_order(k) for k in (r, s, t)]
    except GroupError as exc:
        raise Unrealizable(str(exc)) from exc
    for a, b, g in product(*cand):
        if G.is_singular_triple(a, b, g):
            continue
        A, B, C = G.solve_trace_triple(a, b, g)
        x, y, z = G._canon(A), G._canon(B), G._canon(C)
        if (G.order_of(x), G.order_of(y), G.order_of(z)) != (r, s, t):
            continue
        if G.classify_pair(x, y).kind == "full":
            return GeneratingTriple(x, y, z, (r, s, t))
    raise Unrealizable(
        f"{G.descriptor()} has no generating triple of type ({r},{s},{t}): "
        f"every candidate trace triple generates a proper subgroup")


def _perm_triple(G, r, s, t, seed, max_attempts):
    try:  # t is only checked for realizability
        x0, y0, _ = (G.element_of_order(k) for k in (r, s, t))
    except GroupError as exc:
        raise Unrealizable(str(exc)) from exc
    if G.kind == "symmetric":
        x0, y0 = _symmetric_shapes(G.n, r, s, t)
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
    from .perms import order_partition, permutation_of_shape
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
    n = G.n
    for k in (r, s, t):
        if n % k != 0:
            raise Unrealizable(f"order {k} does not divide n = {n}")
    # x = (n/r, 0) is a complete choice up to automorphisms of Zn x Zn,
    # which preserve all three conditions
    x = (n // r, 0)
    for y in G.iter_elements():
        if G.order_of(y) != s:
            continue
        z = G.inverse(G.multiply(x, y))
        if G.order_of(z) != t:
            continue
        if G.generates(x, y):
            return GeneratingTriple(x, y, z, (r, s, t))
    raise Unrealizable(
        f"{G.descriptor()} has no generating triple of type ({r},{s},{t})")


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

    def to_dict(self, G: Group | None = None) -> dict:
        out = {"found": self.found, "stats": self.stats}
        if self.quadruple is not None:
            fmt = G.format_element if G is not None else repr
            out["quadruple"] = [fmt(m) for m in self.quadruple]
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
    trace candidates, pairing split-order and nonsplit-order types whose
    products are coprime; 'random' draws seeded uniform quadruples.
    'auto' picks macbeath -> random for PSL2, exhaustive for small
    Zn x Zn, random otherwise.
    """
    targets = _validate_targets(target_types)
    from .psl2 import PSL2
    t0 = time.perf_counter()
    if strategy == "auto":
        if isinstance(G, PSL2):
            try:
                return _macbeath_search(G, targets, t0)
            except (SearchInconclusive, Unrealizable):
                return _random_search(G, targets, seed, max_attempts, t0)
        if G.kind == "abelian" and G.order ** 2 <= pair_cap:
            return _exhaustive_search(G, targets, pair_cap, t0)
        return _random_search(G, targets, seed, max_attempts, t0)
    if strategy == "exhaustive":
        return _exhaustive_search(G, targets, pair_cap, t0)
    if strategy == "macbeath":
        if not isinstance(G, PSL2):
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

    ``weights`` maps each Sigma fingerprint set to the number of generating
    pairs (x, y) of G (of a target type, when targets are given) that reach
    it; ``examples`` maps it to the first pair reached per sorted type.  The counts are those of the reduced
    enumeration: ``pairs_checked`` pairs, of which ``generating_pairs``
    generate, with x over ``representatives`` non-identity classes.
    """
    weights: dict
    examples: dict
    pairs_checked: int
    generating_pairs: int
    representatives: int


def pair_census(G: Group, pair_cap: int = PAIR_CAP, targets=None) -> PairCensus:
    """Enumerate generating pairs with x over non-identity class
    representatives and y over all of G.

    Simultaneous conjugation of (x, y) preserves generation, type and Sigma
    fingerprints, so each representative stands for its whole class and
    weighs the class size.  With ``targets``, Sigma is computed only for
    pairs whose sorted type is one of the two targets.
    """
    seen = set()  # refuse once (classes seen - 1) * |G| pairs exceed the cap
    for m in G.elements():
        seen.add(G.fingerprint(m))
        required = (len(seen) - 1) * G.order
        if required > pair_cap:
            raise CapExceeded(
                f"pair census needs at least {required} pairs, cap is {pair_cap}",
                required=required, cap=pair_cap)
    reps = ClassPartition(G).classes[1:]  # the identity class is first
    elements = list(G.elements())
    weights: dict = {}
    examples: dict = {}
    gen_pairs = 0
    for cls in reps:
        x = cls.representative
        for y in elements:
            if not G.generates(x, y):
                continue
            gen_pairs += 1
            _, tau = triple_type(G, x, y)
            if targets and tau not in targets:
                continue
            sig = sigma_prime_fingerprints(G, x, y)
            weights[sig] = weights.get(sig, 0) + cls.size
            examples.setdefault(sig, {}).setdefault(tau, (x, y))
    return PairCensus(weights, examples, required, gen_pairs, len(reps))


def _exhaustive_search(G, targets, pair_cap, t0):
    """A structure exists iff two achievable Sigma sets of the pair census
    are disjoint, so an empty scan is a nonexistence certificate."""
    census = pair_census(G, pair_cap, targets)
    achievable = census.examples
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

    def draw(target):
        """A random generating pair of the target type, or None."""
        x, y = G.random_element(rng), G.random_element(rng)
        if G.generates(x, y) and (not target or triple_type(G, x, y)[1] == target):
            return x, y
        return None

    for attempts in range(1, max_attempts + 1):
        pair1 = draw(target1)
        pair2 = pair1 and draw(target2)
        if not pair2 or (sigma_prime_fingerprints(G, *pair1)
                         & sigma_prime_fingerprints(G, *pair2)):
            continue
        return _outcome(G, pair1 + pair2, t0,
                        {"strategy": "random", "attempts": attempts, "seed": seed})
    raise SearchInconclusive(
        f"no structure found for {G.descriptor()} in {max_attempts} random "
        f"attempts (inconclusive, not a nonexistence proof)")


def _macbeath_search(G, targets, t0):
    """Guided search for PSL2: build each triple from the trace machinery.

    Without targets, the split/nonsplit type pairs ((m,m,m),(n,n,n)) and
    ((m,m,m),(n,n,p)) with m = (q-1)/d, n = (q+1)/d have coprime order
    products and both occur for q > 7; smaller q falls back to scanning
    coprime hyperbolic type pairs from the realizable order menu.
    """
    if targets:
        candidates = [targets]
    else:
        m, n, p = G.split_order, G.nonsplit_order, G.p
        candidates = []
        for tau1, tau2 in (((m, m, m), (n, n, n)), ((m, m, m), (n, n, p))):
            if (classify_triangle(*tau1).kind == "hyperbolic"
                    and classify_triangle(*tau2).kind == "hyperbolic"):
                candidates.append((tuple(sorted(tau1)), tuple(sorted(tau2))))
        candidates.extend(_coprime_type_pairs(G))
    attempts = 0
    last_error = None
    for tau1, tau2 in candidates:
        attempts += 1
        try:
            tri1 = find_generating_triple(G, *tau1)
            tri2 = find_generating_triple(G, *tau2)
        except (Unrealizable, SearchInconclusive) as exc:
            last_error = exc
            continue
        quad = (tri1.x, tri1.y, tri2.x, tri2.y)
        report = verify_quadruple(G, *quad)
        if report.ok:
            stats = {"strategy": "macbeath", "types_tried": attempts,
                     "type1": list(tau1), "type2": list(tau2),
                     "elapsed": time.perf_counter() - t0}
            return SearchOutcome(True, quad, report, None, stats)
    raise SearchInconclusive(
        f"macbeath strategy exhausted {attempts} type pairs for "
        f"{G.descriptor()}" + (f" (last: {last_error})" if last_error else ""))


def _coprime_type_pairs(G, limit: int = 40):
    """Hyperbolic type pairs with coprime order products, smallest first."""
    orders = sorted(o for o in G.realizable_orders() if o >= 2)
    triples = sorted((tau for tau in combinations_with_replacement(orders, 3)
                      if classify_triangle(*tau).kind == "hyperbolic"),
                     key=lambda tau: (math.prod(tau), tau))
    pairs = ((tau1, tau2) for tau1, tau2 in combinations_with_replacement(triples, 2)
             if math.gcd(math.prod(tau1), math.prod(tau2)) == 1)
    return list(islice(pairs, limit))
