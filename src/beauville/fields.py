"""Exact arithmetic in GF(p**e).

Field elements are plain Python ints in ``[0, q)`` encoding the coefficient
vector of the residue polynomial in base p: the element
``c0 + c1*t + ... + c(e-1)*t**(e-1)`` is encoded as ``c0 + c1*p + ...``.
For prime fields (e == 1) the encoding is the residue itself and all
arithmetic is native modular arithmetic.  For extension fields a generator
of the multiplicative group is found once and multiplication, inversion and
powers go through exp/log tables, which keeps the PSL2 hot loops fast.
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

from .numutil import factorize, is_prime, prime_factors

_TABLE_CAP = 1 << 16  # build exp/log/digit tables only for q below this


class FieldError(ValueError):
    pass


class ZeroDivisionInField(FieldError):
    """Division or inversion by the zero element."""


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (little-endian coefficient lists), used only
# for modulus selection and table construction
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
        coeffs = []
        v = value
        for _ in range(e):
            coeffs.append(v % p)
            v //= p
        coeffs.append(1)
        if _is_irreducible(coeffs, p):
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
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        if e < 1:
            raise FieldError("exponent must be >= 1")
        q = p**e
        if q >= 1 << 63:
            raise FieldError("q = p**e exceeds the supported 64-bit magnitude")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = find_irreducible(p, e)
        self.zero = 0
        self.one = 1
        if e > 1:
            if q > _TABLE_CAP:
                raise FieldError(
                    "extension fields above 2**16 elements are not supported")
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
        if self.e == 1:
            return (a,)
        return self._digits[a]

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
        """Smallest d dividing e with a in GF(p**d)."""
        for d in sorted(d for d in range(1, self.e + 1) if self.e % d == 0):
            if self.frobenius(a, d) == a:
                return d
        raise AssertionError("element fixed by no subfield Frobenius")

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
        p, e, q = self.p, self.e, self.q
        mod = list(self.modulus)

        def raw_mul(x, y):
            ax, ay = [], []
            vx, vy = x, y
            for _ in range(e):
                ax.append(vx % p)
                vx //= p
                ay.append(vy % p)
                vy //= p
            prod = _poly_mulmod(ax, ay, mod, p)
            value = 0
            for c in reversed(prod):
                value = value * p + c
            return value

        digits = []
        for a in range(q):
            v, row = a, []
            for _ in range(e):
                row.append(v % p)
                v //= p
            digits.append(tuple(row))
        self._digits = digits

        if p != 2:
            neg = [0] * q
            for a in range(q):
                value = 0
                for d in reversed(digits[a]):
                    value = value * p + (-d) % p
                neg[a] = value
            self._neg = neg
        else:
            self._neg = None  # negation is identity; neg() special-cases p == 2

        # find a generator of the multiplicative group
        fac = [r for r, _ in factorize(q - 1)]
        gen = None
        for cand in range(2, q):
            if all(_int_pow(cand, (q - 1) // r, raw_mul) != 1 for r in fac):
                gen = cand
                break
        if gen is None:
            raise AssertionError("no multiplicative generator found")
        exp = [1] * (2 * (q - 1))
        log = [0] * q
        cur = 1
        for k in range(q - 1):
            exp[k] = cur
            log[cur] = k
            cur = raw_mul(cur, gen)
        for k in range(q - 1, 2 * (q - 1)):
            exp[k] = exp[k - (q - 1)]
        self._exp = exp
        self._log = log
        self.generator = gen
        if p != 2:
            # Zech logarithms zech[k] = log(1 + g**k); adding 1 steps the
            # constant digit of the encoding.  1 + g**k = 0 only at
            # g**((q-1)/2) = -1, marked -1.
            zech = [log[v + 1 - p * (v % p == p - 1)] for v in exp[:q - 1]]
            zech[(q - 1) // 2] = -1
            self._zech = zech


def _int_pow(a, k, raw_mul):
    result = 1
    while k:
        if k & 1:
            result = raw_mul(result, a)
        a = raw_mul(a, a)
        k >>= 1
    return result


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
