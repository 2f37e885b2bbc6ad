"""The original Beauville example: Z5 x Z5.

An unmixed Beauville structure is a quadruple (x1, y1; x2, y2) whose two
triples (x_i, y_i, z_i), z_i = (x_i y_i)^-1, each generate the group and
whose power-class sets intersect trivially.  In Z5 x Z5 the nontrivial
elements split into the six lines of the projective line over F_5; each
generating triple touches three of them, and a structure is exactly a pair
of triples using complementary line sets.
"""
from fractions import Fraction

from beauville import (AbelianSquare, exact_probability_exhaustive,
                       search_structure, sigma_prime_fingerprints,
                       verify_quadruple)

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
assert p == Fraction(2304, 78125)
print(f"exact P(Z5xZ5) = {p} = {float(p):.6f}")
print("(20 complementary line-triple pairs, 24 generating pairs each)")

for n in (2, 3, 4, 6, 7, 11, 25):
    found = search_structure(AbelianSquare(n), "exhaustive").found
    print(f"Z{n} x Z{n}: {'admits' if found else 'no'} structure "
          f"(gcd(n,6) = {__import__('math').gcd(n, 6)})")
