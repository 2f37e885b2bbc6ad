"""The original Beauville example: Z5 x Z5.

An unmixed Beauville structure is a quadruple (x1, y1; x2, y2) whose two
triples (x_i, y_i, z_i), z_i = (x_i y_i)^-1, each generate the group and
whose power-class sets intersect trivially.  In Z5 x Z5 the nontrivial
elements split into the six lines of the projective line over F_5; each
generating triple touches three of them, and a structure is exactly a pair
of triples using complementary line sets.
"""
import math
from fractions import Fraction

from beauville import (AbelianSquare, exact_probability_exhaustive,
                       search_structure, sigma_prime_fingerprints,
                       verify_quadruple)
from beauville.numutil import prime_factors


def closed_form_probability(n):
    """P(Zn x Zn) = (|GL2(Z/n)| / n^4)^2 * prod over primes r | n of
    C(r-2, 3) / C(r+1, 3): every Sigma set (three lines of P^1(F_r) per r)
    weighs the same, and two are disjoint when their lines are."""
    p = Fraction(1)
    for r in prime_factors(n):
        p *= ((1 - Fraction(1, r)) * (1 - Fraction(1, r * r))) ** 2
        p *= Fraction(math.comb(r - 2, 3), math.comb(r + 1, 3))
    return p


G = AbelianSquare(5)

out = search_structure(G, "exhaustive")
x1, y1, x2, y2 = out.quadruple
print("structure found:", [G.format_element(m) for m in out.quadruple])

report = verify_quadruple(G, x1, y1, x2, y2)
print("types:", report.type1, report.type2)
print("conditions:", report.cond_i, report.cond_ii, report.cond_iii)

# Sigma sets are bit masks over the handle's class index; decode to count
s1 = G.sigma_classes(sigma_prime_fingerprints(G, x1, y1))
s2 = G.sigma_classes(sigma_prime_fingerprints(G, x2, y2))
print(f"|Sigma1| = {len(s1)}, |Sigma2| = {len(s2)}, overlap = {len(s1 & s2)}")

p = exact_probability_exhaustive(G)
assert p == Fraction(2304, 78125) == closed_form_probability(5)
print(f"exact P(Z5xZ5) = {p} = {float(p):.6f}, closed form {closed_form_probability(5)}")
print("(20 complementary line-triple pairs, 24 generating pairs each)")

for n in (2, 3, 4, 6, 7, 11, 25):
    G = AbelianSquare(n)
    found = search_structure(G, "exhaustive").found
    p, closed = exact_probability_exhaustive(G), closed_form_probability(n)
    assert p == closed
    print(f"Z{n} x Z{n}: {'admits' if found else 'no'} structure "
          f"(gcd(n,6) = {math.gcd(n, 6)}); exact P = {p}, closed form {closed}")
