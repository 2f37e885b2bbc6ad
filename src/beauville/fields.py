"""Exact arithmetic in GF(p**e).

Field elements are plain Python ints in ``[0, q)`` encoding the coefficient
vector of the residue polynomial in base p: the element
``c0 + c1*t + ... + c(e-1)*t**(e-1)`` is encoded as ``c0 + c1*p + ...``.
For prime fields (e == 1) the encoding is the residue itself and all
arithmetic is native modular arithmetic.  For extension fields a generator
of the multiplicative group is found once and multiplication, inversion and
powers go through exp/log tables, which keeps the PSL2 hot loops fast.  The
tables cost O(q) small steps, not a polynomial product per entry: each
power of the generator is a sum of shifted copies reduced by the modulus
(``_build_tables``), and negation and Zech logarithms are read off them.
Addition is XOR in characteristic 2; in odd characteristic it goes through
Zech logarithms, ``a + b = a * (1 + b/a)`` with ``log(1 + g**k)`` tabled
once per field, so no operation loops over the base-p digits.

The defining modulus is deterministic: the lexicographically smallest monic
irreducible polynomial of degree e over F_p, comparing coefficient vectors
from the highest degree downwards (equivalently: the polynomial whose base-p
digit string, read most significant first, is smallest).  This pins element
string encodings across runs.

Text encoding of elements: ``c0+c1*t+...+c(e-1)*t^(e-1)`` with decimal
residues; prime fields accept and print bare integers.  Field descriptors
parse as ``p`` or ``p^e``.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .numutil import factorize, is_prime, prime_factors

_TABLE_CAP = 1 << 16  # build exp/log tables only for q below this


class FieldError(ValueError):
    pass


class ZeroDivisionInField(FieldError):
    """Division or inversion by the zero element."""


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (little-endian coefficient lists), used only
# for modulus selection and the generator test
# ---------------------------------------------------------------------------

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_rem(out, mod, p)


def _poly_rem(a, mod, p):
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        if a[-1] == 0:
            a.pop()
            continue
        coef = a[-1] * inv_lead % p
        shift = len(a) - 1 - dm
        for i, m in enumerate(mod):
            a[shift + i] = (a[shift + i] - coef * m) % p
        _poly_trim(a)
    return a


def _poly_powmod(a, k, mod, p):
    result = [1]
    base = _poly_rem(a, mod, p)
    while k:
        if k & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        k >>= 1
    return result


def _poly_eval(a, x, p):
    value = 0
    for c in reversed(a):
        value = (value * x + c) % p
    return value


def _digits_of(value, p, e):
    """The e base-p digits of value, least significant first."""
    out = []
    for _ in range(e):
        value, c = divmod(value, p)
        out.append(c)
    return out


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a = _poly_rem(a, b, p)
        a, b = b, a
    return a


def _is_irreducible(coeffs, p):
    """Rabin test for a monic polynomial given little-endian over F_p."""
    e = len(coeffs) - 1
    if e == 0:
        return False
    x = [0, 1]
    # x^(p^e) == x mod f
    xp = _poly_powmod(x, p**e, coeffs, p)
    if _poly_trim(list(xp)) != [0, 1]:
        return False
    for r in prime_factors(e):
        xe = _poly_powmod(x, p ** (e // r), coeffs, p)
        diff = list(xe) + [0] * max(0, 2 - len(xe))
        diff[1] = (diff[1] - 1) % p
        _poly_trim(diff)
        if len(_poly_gcd(coeffs, diff, p)) - 1 != 0:
            return False
    return True


def find_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Deterministic monic irreducible of degree e over F_p.

    Returns e+1 coefficients, constant term first.  The choice is the
    lexicographically smallest coefficient vector comparing high-degree
    coefficients first, i.e. the smallest value of
    sum(c_i * p**i) over irreducible monic candidates.
    """
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    if e < 1:
        raise FieldError("exponent must be >= 1")
    if e == 1:
        return (0, 1)
    for value in range(p**e):
        coeffs = _digits_of(value, p, e) + [1]
        # a root in F_p is a linear factor; the Rabin test decides the rest
        if all(_poly_eval(coeffs, x, p) for x in range(p)) and _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# the field
# ---------------------------------------------------------------------------

class GF:
    """GF(p**e) with integer-encoded elements.

    q = p**e must stay within 64-bit magnitude; all arithmetic is exact.
    Instances are immutable after construction and safe to share.
    """

    def __init__(self, p: int, e: int = 1):
        # refuse by size before forming p**e, testing p or seeking a modulus
        if p < 2:
            raise FieldError(f"{p} is not prime")
        if e < 1:
            raise FieldError("exponent must be >= 1")
        if p >= 1 << 63 or e >= 63 or p**e >= 1 << 63:
            raise FieldError("q = p**e exceeds the supported 64-bit magnitude")
        q = p**e
        if e > 1 and q > _TABLE_CAP:
            raise FieldError("extension fields above 2**16 elements are not supported")
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.e = e
        self.q = q
        # subfield degree d -> (q - 1)/(p**d - 1), for subfield_degree
        self._subfield_steps = [(d, (q - 1) // (p**d - 1)) for d in range(1, e + 1) if e % d == 0]
        self.modulus = find_irreducible(p, e)
        if e > 1:
            self._build_tables()
        self.two = self.of_int(2)
        self.minus_one = self.neg(1)
        self.minus_two = self.neg(self.two)
        if p == 2:  # the Artin-Schreier roots need a unit of absolute trace 1
            self._as_delta = next(a for a in self.units() if self.absolute_trace(a) == 1)

    # -- construction / encoding -------------------------------------------

    def of_int(self, n: int) -> int:
        """Embed an integer via the prime subfield."""
        return n % self.p

    def element(self, coeffs) -> int:
        """Encode a coefficient vector (constant term first)."""
        coeffs = list(coeffs)
        if len(coeffs) > self.e:
            raise FieldError("too many coefficients")
        value = 0
        for c in reversed(coeffs):
            value = value * self.p + (int(c) % self.p)
        return value

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Decode to the length-e coefficient vector, constant term first."""
        return tuple(_digits_of(a, self.p, self.e))

    def __eq__(self, other):
        return (isinstance(other, GF)
                and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus))

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"

    def descriptor(self) -> str:
        return f"{self.p}^{self.e}" if self.e > 1 else str(self.p)

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if a == 0 or b == 0:
            return a or b
        la = self._log[a]
        z = self._zech[(self._log[b] - la) % (self.q - 1)]
        return 0 if z < 0 else self._exp[la + z]

    def neg(self, a: int) -> int:
        if self.e == 1:
            return -a % self.p
        if self.p == 2:
            return a
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionInField("inverse of zero")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[self.q - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionInField("division by zero")
        return self.mul(a, self.inv(b))

    def pow(self, a: int, k: int) -> int:
        if self.e == 1:
            if k < 0:
                return pow(self.inv(a), -k, self.p)
            return pow(a, k, self.p)
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionInField("negative power of zero")
            return 0
        return self._exp[(self._log[a] * k) % (self.q - 1)]

    def frobenius(self, a: int, times: int = 1) -> int:
        return self.pow(a, self.p**times)

    # -- squares and quadratics ----------------------------------------------

    def is_square(self, a: int) -> bool:
        if a == 0 or self.p == 2:
            return True
        if self.e == 1:
            return pow(a, (self.p - 1) // 2, self.p) == 1
        return self._log[a] % 2 == 0

    def sqrt(self, a: int) -> int | None:
        """A square root of a, or None when a is a non-square."""
        if a == 0:
            return 0
        if self.p == 2:
            return self.pow(a, self.q // 2)
        if self.e > 1:
            k = self._log[a]
            return None if k % 2 else self._exp[k // 2]
        return _tonelli_shanks(a, self.p)

    def absolute_trace(self, a: int) -> int:
        """Trace down to the prime field, returned as an element of F_p."""
        acc, cur = 0, a
        for _ in range(self.e):
            acc = self.add(acc, cur)
            cur = self.frobenius(cur)
        return acc

    def solve_quadratic(self, a: int, b: int, c: int) -> tuple[int, ...]:
        """All roots in the field of a*z**2 + b*z + c with a != 0.

        Characteristic 2 goes through the Artin-Schreier substitution
        z = (b/a)*w, reducing to w**2 + w = a*c/b**2 whose solvability is
        the absolute-trace test; odd characteristic uses the discriminant.
        """
        if a == 0:
            raise FieldError("leading coefficient must be nonzero")
        if self.p == 2:
            if b == 0:
                return (self.sqrt(self.div(c, a)),)
            u = self.div(self.mul(a, c), self.mul(b, b))
            if self.absolute_trace(u) != 0:
                return ()
            w = self._artin_schreier_root(u)
            r1 = self.mul(self.div(b, a), w)
            r2 = self.add(r1, self.div(b, a))
            return tuple(sorted((r1, r2)))
        disc = self.sub(self.mul(b, b), self.mul(self.of_int(4), self.mul(a, c)))
        r = self.sqrt(disc)
        if r is None:
            return ()
        inv2a = self.inv(self.mul(self.two, a))
        r1 = self.mul(self.sub(r, b), inv2a)
        r2 = self.mul(self.sub(self.neg(r), b), inv2a)
        return (r1,) if r1 == r2 else tuple(sorted((r1, r2)))

    def _artin_schreier_root(self, u: int) -> int:
        """A root of w**2 + w = u in characteristic 2 (trace(u) == 0):
        w = sum_i u^(2^i) * sum_{j <= i} d^(2^j) with Tr(d) = 1.  Squaring
        shifts both indices, so w**2 + w = u*Tr(d) + d*Tr(u) = u."""
        w, head, ui, di = 0, 0, u, self._as_delta
        for _ in range(self.e):
            head = self.add(head, di)
            w = self.add(w, self.mul(ui, head))
            ui, di = self.mul(ui, ui), self.mul(di, di)
        return w

    # -- subfields -----------------------------------------------------------

    def subfield_degree(self, a: int) -> int:
        """Smallest d dividing e with a in GF(p**d), read from log a: the
        units of GF(p**d) are those of order dividing p**d - 1, so g**k is
        one iff (q - 1)/(p**d - 1) divides k (0 lies in the prime field)."""
        if a == 0 or self.e == 1:
            return 1
        k = self._log[a]
        return next(d for d, step in self._subfield_steps if k % step == 0)

    # -- iteration / parsing ---------------------------------------------------

    def elements(self):
        return range(self.q)

    def units(self):
        return range(1, self.q)

    def random(self, rng) -> int:
        return rng.randrange(self.q)

    def format(self, a: int) -> str:
        if self.e == 1:
            return str(a)
        parts = []
        for i, c in enumerate(self.coeffs(a)):
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{i}")
        return "+".join(parts)

    def parse(self, text: str) -> int:
        text = text.strip()
        if not text:
            raise FieldError("empty field element")
        try:
            if "t" not in text:
                return int(text) % self.p if self.e == 1 else self.element([int(text)])
        except ValueError as exc:
            raise FieldError(f"malformed field element {text!r}") from exc
        coeffs = [0] * self.e
        for term in text.replace("-", "+-").split("+"):
            term = term.strip()
            if not term:
                continue
            try:
                if "t" not in term:
                    coeffs[0] = (coeffs[0] + int(term)) % self.p
                    continue
                coef_s, _, rest = term.partition("t")
                coef_s = coef_s.strip()
                if coef_s in ("", "-"):
                    coef = -1 if coef_s == "-" else 1
                elif coef_s.endswith("*"):
                    coef = int(coef_s[:-1])
                else:
                    raise FieldError(f"malformed field element {text!r}")
                power = int(rest[1:]) if rest.startswith("^") else 1
                if power >= self.e:
                    raise FieldError(f"degree {power} term out of range")
                coeffs[power] = (coeffs[power] + coef) % self.p
            except (ValueError, IndexError) as exc:
                raise FieldError(f"malformed field element {text!r}") from exc
        return self.element(coeffs)

    # -- internal table construction -------------------------------------------

    def _build_tables(self):
        """Exp/log, negation and Zech tables, with O(e**2) digit work per entry.

        p = 2: a vector is the int itself, and exp steps g**k -> g**(k+1) as
        the XOR of the shifted copies g**k * t**j over the set bits j of g.
        Each ``* t`` is ``<< 1``, then an XOR of the modulus bits once the
        t**e bit is set.  Odd p: exp doubles, g**(n+k) = g**k * g**n for
        k < n, as one F_p-linear map on the digit rows of g**0 .. g**(n-1);
        its matrix rows t**i * g**n come from the same shift-and-reduce.
        """
        p, e, q = self.p, self.e, self.q
        mod = list(self.modulus)
        # the generator: the smallest integer of multiplicative order q - 1
        fac = [r for r, _ in factorize(q - 1)]
        gen = next(c for c in range(2, q) if all(
            _poly_trim(_poly_powmod(_digits_of(c, p, e), (q - 1) // r, mod, p)) != [1]
            for r in fac))
        if p == 2:
            lead, full = 1 << e, sum(c << i for i, c in enumerate(mod))
            g0, *gtail = _poly_trim(_digits_of(gen, 2, e))
            exp = [1] * (q - 1)
            cur = 1
            for k in range(1, q - 1):
                acc = cur if g0 else 0
                for g in gtail:
                    cur <<= 1
                    if cur & lead:
                        cur ^= full
                    if g:
                        acc ^= cur
                exp[k] = cur = acc
            exp = np.array(exp, dtype=np.int64)
        else:
            place = p ** np.arange(e, dtype=np.int64)
            exp = np.ones(1, dtype=np.int64)
            h = _digits_of(gen, p, e)  # digits of g**n, n = len(exp)
            while len(exp) < q - 1:
                rows = [h]
                for _ in range(e - 1):
                    rows.append(_times_t(rows[-1], mod, p))
                rows = np.array(rows, dtype=np.int64)
                digits = exp[:, None] // place % p
                exp = np.concatenate((exp, digits @ rows % p @ place))
                h = (np.array(h) @ rows % p).tolist()
            exp = exp[:q - 1]
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        self._exp = exp.tolist() * 2
        self._log = log.tolist()
        self.generator = gen
        if p != 2:
            # neg(g**k) = g**(k + (q-1)/2), since g**((q-1)/2) = -1
            half = (q - 1) // 2
            neg = exp[(log + half) % (q - 1)]
            neg[0] = 0
            self._neg = neg.tolist()
            # Zech logarithms zech[k] = log(1 + g**k); adding 1 steps the
            # constant digit of the encoding.  1 + g**k = 0 only at
            # g**((q-1)/2) = -1, marked -1.
            zech = log[exp + 1 - p * (exp % p == p - 1)]
            zech[half] = -1
            self._zech = zech.tolist()
        else:
            self._neg = None  # negation is identity; neg() special-cases p == 2


def _times_t(v, mod, p):
    """t * v for a length-e digit list v (constant first): shift up one
    place and reduce t**e by the monic modulus."""
    top = v[-1]
    return [(c - top * m) % p for c, m in zip([0] + v[:-1], mod)]


def _tonelli_shanks(a: int, p: int) -> int | None:
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return r if r * r % p == a else None
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    s, m = p - 1, 0
    while s % 2 == 0:
        s //= 2
        m += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, s, p)
    r = pow(a, (s + 1) // 2, p)
    t = pow(a, s, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        t = t * b * b % p
        c = b * b % p
        m = i
    return r


@lru_cache(maxsize=None)
def gf(p: int, e: int = 1) -> GF:
    """Shared field instance with the deterministic modulus."""
    return GF(p, e)


def parse_field_descriptor(text: str) -> GF:
    """Parse 'p' or 'p^e' into a field."""
    p_s, caret, e_s = text.strip().partition("^")
    try:
        p, e = int(p_s), int(e_s) if caret else 1
    except ValueError:
        raise FieldError(f"malformed field descriptor {text!r}; expected p or p^e") from None
    return gf(p, e)
