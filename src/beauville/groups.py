"""The uniform group contract and the Zn x Zn realization.

Every realization exposes the same small surface over an immutable,
hashable element payload:

* ``identity()``, ``multiply``, ``inverse``, ``power``, ``order_of``
* ``generates(x, y)`` -- exact test for <x, y> == G
* ``read_pair(x, y)`` -- (generates, (|x|, |y|, |xy|)), orders None if not read
* ``fingerprint(x)`` -- canonical conjugacy label, equal iff conjugate in G
* ``prime_power_classes(x)`` -- bit mask of x's prime-order power classes,
  read by each realization in closed form from invariants of x and
  memoized; there is no generic walk over the powers
* ``sigma_classes(mask)`` -- the fingerprints of a mask's classes, for display
* ``check_order(k)`` -- GroupError, answered in closed form, unless some
  element has order k >= 2
* ``forced_share(r)`` -- why every two Sigma sets whose triples' orders the
  prime r divides share a class, in closed form, or None
* ``census_closed_form()`` -- the pair census's key and pair counts, or None
* ``centralizer_orbits(x, elements)`` -- one y per C_G(x)-conjugation orbit
* ``elements(limit)`` -- full enumeration, each element exactly once
* ``classes(cap, max_classes)`` -- the conjugacy-class partition, kept
* ``random_element(rng)`` -- exactly uniform, rng owned by the caller
* ``parse_element`` / ``format_element`` -- the CLI text encoding

Payloads, and Sigma masks (bits over the handle's class index), from
different handles must never be mixed; ``check_element`` validates
membership and is used by the verification layer.

Group handle text encodings: ``psl2:p^e``, ``alt:n``, ``sym:n``, ``ab:n``.
"""
from __future__ import annotations

import math
from functools import cached_property
from itertools import compress, repeat

from .numutil import prime_factors

ENUMERATION_CAP = 1_000_000


class GroupError(ValueError):
    pass


class HandleMismatch(GroupError):
    """An element payload was used with the wrong group handle."""


class CapExceeded(RuntimeError):
    """An enumeration or search exceeded its configured cap."""

    def __init__(self, message, required=None, cap=None):
        super().__init__(message)
        self.required = required
        self.cap = cap


class Group:
    """Base class; concrete realizations fill in the payload semantics."""

    kind = "?"
    order: int
    _sigma_memo = cached_property(lambda self: {})  # made on first use
    # fingerprint -> bit of the Sigma masks, numbered in the order first seen
    _sigma_bits = cached_property(lambda self: {})
    _partition = None  # set by classes()
    _census = None  # set by structures.pair_census

    # -- required surface ---------------------------------------------------

    def identity(self):
        raise NotImplementedError

    def multiply(self, a, b):
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def order_of(self, a) -> int:
        raise NotImplementedError

    def generates(self, x, y) -> bool:
        raise NotImplementedError

    def fingerprint(self, a):
        raise NotImplementedError

    def prime_power_classes(self, a) -> int:
        raise NotImplementedError

    def check_order(self, k: int) -> None:
        """GroupError unless some element has order k >= 2, decided in
        closed form: no element is built or searched for.  Every k < 2 is
        refused alike on every realization."""
        reason = (f"order {k} asked of {self.descriptor()}: only orders >= 2 are checked"
                  if k < 2 else self._order_refusal(k))
        if reason:
            raise GroupError(reason)

    def _order_refusal(self, k: int) -> str | None:
        """Why no element has the order k >= 2, or None when one has."""
        raise NotImplementedError

    def forced_share(self, r: int) -> str | None:
        """Why the Sigma sets of any two elements whose orders the prime r
        (an element order) divides share a class, or None, as on Zn x Zn:
        there r divides n, so r**2 - 1 >= 3 singleton classes have order r."""
        return None

    def _share_reason(self, r: int, one_class: bool) -> str:
        """forced_share's text: one class of order r, or else the powers of
        every element whose order r divides reach every class of order r."""
        if one_class:
            return f"{self.descriptor()} has one class of elements of order {r}"
        return (f"the powers of every element of {self.descriptor()} whose order "
                f"{r} divides meet every class of order {r}")

    def census_closed_form(self) -> tuple[int, int] | None:
        """(number of (Sigma, sorted type) keys, generating pairs) of the pair
        census when known in closed form, each Sigma set then weighing
        pairs // keys; or None."""
        return None

    def iter_elements(self):
        raise NotImplementedError

    def random_element(self, rng):
        raise NotImplementedError

    def check_element(self, a) -> None:
        raise NotImplementedError

    def parse_element(self, text: str):
        raise NotImplementedError

    def format_element(self, a) -> str:
        raise NotImplementedError

    def descriptor(self) -> str:
        raise NotImplementedError

    # -- shared helpers -------------------------------------------------------

    def power(self, a, k: int):
        if k < 0:
            return self.power(self.inverse(a), -k)
        result = self.identity()
        base = a
        while k:
            if k & 1:
                result = self.multiply(result, base)
            base = self.multiply(base, base)
            k >>= 1
        return result

    def _sigma_mask(self, fingerprints) -> int:
        """The mask of these classes, a class first seen taking the next bit;
        built once from a byte buffer (OR-ing bit by bit is quadratic)."""
        bits = self._sigma_bits
        ks = [bits.setdefault(fp, len(bits)) for fp in fingerprints]
        buf = bytearray(max(ks, default=-1) // 8 + 1)
        for k in ks:
            buf[k >> 3] |= 1 << (k & 7)
        return int.from_bytes(buf, "little")

    def sigma_classes(self, mask: int) -> frozenset:
        """The fingerprints of the classes in a Sigma mask of this handle."""
        return frozenset(compress(self._sigma_bits, map(int, bin(mask)[:1:-1])))

    def read_pair(self, x, y):
        """(generates, (|x|, |y|, |x*y|)); the orders are None for a pair that
        does not generate, unless the realization reads them for free (PSL2)."""
        if not self.generates(x, y):
            return False, None
        return True, (self.order_of(x), self.order_of(y), self.order_of(self.multiply(x, y)))

    def conjugate(self, g, a):
        """g * a * g**-1."""
        return self.multiply(self.multiply(g, a), self.inverse(g))

    def centralizer_orbits(self, x, elements):
        """(y, orbit size) for one y per orbit of C_G(x) acting on the
        enumeration ``elements`` of G by conjugation: each y is its orbit's
        first member in ``elements`` order, and the orbits come in that order."""
        mul = self.multiply
        cent = [(c, self.inverse(c)) for c in elements if mul(c, x) == mul(x, c)]
        seen = set()
        for y in elements:
            if y not in seen:
                orbit = {mul(mul(c, y), c_inv) for c, c_inv in cent}
                seen |= orbit
                yield y, len(orbit)

    def elements(self, limit: int = ENUMERATION_CAP):
        """Enumerate the whole group, refusing when |G| exceeds the cap."""
        if self.order > limit:
            raise CapExceeded(
                f"group order {self.order} exceeds enumeration cap {limit}",
                required=self.order, cap=limit)
        return self.iter_elements()

    def classes(self, cap: int = ENUMERATION_CAP, max_classes: int | None = None):
        """The ``ClassPartition`` of G, built once and kept on the handle; a
        call that a first build would refuse rebuilds it, and so refuses."""
        if (self._partition is None or self.order > cap
                or max_classes is not None and len(self._partition) > max_classes):
            from .counting import ClassPartition
            self._partition = ClassPartition(self, cap, max_classes)
        return self._partition

    def __repr__(self):
        return f"<{type(self).__name__} {self.descriptor()} order={self.order}>"

    def __eq__(self, other):
        return isinstance(other, Group) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(self.descriptor())

    def __reduce__(self):  # a copy is a fresh handle: memos stay behind
        return (parse_group, (self.descriptor(),))


class AbelianSquare(Group):
    """Zn x Zn with payloads (a, b), 0 <= a, b < n.

    This is the family of Beauville's original construction; it admits an
    unmixed Beauville structure exactly when gcd(n, 6) == 1, which the
    exhaustive search reproduces without assuming it.
    """

    kind = "abelian"

    def __init__(self, n: int):
        if n < 2:
            raise GroupError("Zn x Zn needs n >= 2")
        self.n = n
        self.order = n * n

    def descriptor(self):
        return f"ab:{self.n}"

    def identity(self):
        return (0, 0)

    def multiply(self, a, b):
        n = self.n
        return ((a[0] + b[0]) % n, (a[1] + b[1]) % n)

    def inverse(self, a):
        n = self.n
        return (-a[0] % n, -a[1] % n)

    def order_of(self, a):
        g = math.gcd(math.gcd(a[0], a[1]), self.n)
        return self.n // g

    def generates(self, x, y):
        # <x, y> = Zn^2 iff the matrix with columns x, y is invertible mod n;
        # over each Z/p^k factor surjectivity reduces mod p, where it is the
        # nonvanishing of the determinant.
        det = (x[0] * y[1] - x[1] * y[0]) % self.n
        return math.gcd(det, self.n) == 1

    def read_pair(self, x, y):
        # a generating pair is a basis of Zn^2, and so are (x, xy) and (xy, y),
        # so x, y and xy all have order n: no product is formed
        return (True, (self.n,) * 3) if self.generates(x, y) else (False, None)

    def prime_power_classes(self, a):
        # classes are single elements, and the order-r powers of a are the
        # multiples k*h of h = a**(o/r), 0 < k < r; the element keys its
        # memo (plain loops: a comprehension would put closure cells on the
        # memo hit, the census's hot path)
        sigma = self._sigma_memo.get(a)
        if sigma is None:
            n, o, fps = self.n, self.order_of(a), []
            for r in prime_factors(o):
                h0, h1 = self.power(a, o // r)
                for k in range(1, r):
                    fps.append(("e", k * h0 % n, k * h1 % n))
            sigma = self._sigma_memo[a] = self._sigma_mask(fps)
        return sigma

    def census_closed_form(self):
        # A generating pair is a basis of Zn^2, and its Sigma is fixed by a
        # 3-subset of P^1(F_r) for each prime r | n: the lines of x, y and xy
        # in the r-torsion F_r^2.  GL2(Z/n) maps onto the product of the
        # GL2(F_r), and each ordered triple of distinct points of P^1(F_r) has
        # r - 1 preimages in GL2(F_r) (PGL2 is sharply 3-transitive), so every
        # 3-subset occurs with one weight; all orders are n, one type.
        keys, bases = 1, self.order ** 2
        for r in prime_factors(self.n):
            keys *= math.comb(r + 1, 3)
            bases = bases // r ** 3 * (r - 1) * (r * r - 1)
        return keys, bases

    def _order_refusal(self, k):
        return f"order {k} does not divide n = {self.n}" if self.n % k else None

    def fingerprint(self, a):
        # conjugacy classes are singletons
        return ("e", a[0], a[1])

    def centralizer_orbits(self, x, elements):
        # conjugation is trivial, so every orbit is a single element
        return zip(elements, repeat(1))

    def iter_elements(self):
        n = self.n
        return ((i, j) for i in range(n) for j in range(n))

    def random_element(self, rng):
        return (rng.randrange(self.n), rng.randrange(self.n))

    def check_element(self, a):
        if (not isinstance(a, tuple) or len(a) != 2
                or not all(isinstance(c, int) and 0 <= c < self.n for c in a)):
            raise HandleMismatch(f"{a!r} is not an element of {self.descriptor()}")

    def parse_element(self, text):
        text = text.strip()
        if not (text.startswith("(") and text.endswith(")")):
            raise GroupError(f"malformed pair {text!r}; expected (a,b)")
        try:
            a_s, b_s = text[1:-1].split(",")
            return (int(a_s) % self.n, int(b_s) % self.n)
        except ValueError as exc:
            raise GroupError(f"malformed pair {text!r}") from exc

    def format_element(self, a):
        return f"({a[0]},{a[1]})"


def closure(group: Group, gens, cap: int = ENUMERATION_CAP, stop_above: int | None = None):
    """BFS multiplicative closure of the generators.

    Returns the set of elements generated.  When ``stop_above`` is given and
    the closure grows past it, the partial set is returned immediately (used
    with the largest-proper-subgroup bound to certify full generation
    without materializing G).
    """
    gens = [g for g in gens if g != group.identity()]
    seen = {group.identity(), *gens}
    frontier = list(seen)
    while frontier:
        new = []
        for b in frontier:
            for a in gens:
                c = group.multiply(a, b)
                if c not in seen:
                    seen.add(c)
                    if stop_above is not None and len(seen) > stop_above:
                        return seen
                    if len(seen) > cap:
                        raise CapExceeded(
                            f"closure exceeded cap {cap}", cap=cap)
                    new.append(c)
        frontier = new
    return seen


def parse_group(descriptor: str) -> Group:
    """Build a group handle from its text descriptor."""
    descriptor = descriptor.strip()
    kind, _, arg = descriptor.partition(":")
    if not arg:
        raise GroupError(f"malformed group descriptor {descriptor!r}")
    if kind in ("ab", "alt", "sym"):
        try:
            n = int(arg)
        except ValueError:
            raise GroupError(f"malformed group descriptor {descriptor!r}") from None
        if kind == "ab":
            return AbelianSquare(n)
        from .perms import AlternatingGroup, SymmetricGroup
        return (AlternatingGroup if kind == "alt" else SymmetricGroup)(n)
    if kind == "psl2":
        from .fields import FieldError, parse_field_descriptor
        from .psl2 import PSL2
        try:
            field = parse_field_descriptor(arg)
        except FieldError as exc:
            raise GroupError(f"bad psl2 field {arg!r}: {exc}") from exc
        return PSL2(field.p, field.e)
    raise GroupError(f"unknown group kind {kind!r} (use psl2:, alt:, sym:, ab:)")
