"""Which PSL2(p^e) are Hurwitz groups, i.e. (2,3,7)-generated?

The residue criterion: e = 1 with p = 0, +-1 mod 7, or e = 3 with
p = +-2, +-3 mod 7.  For every positive case in reach we construct an
actual generating triple of exact orders (2, 3, 7); for negative cases
with order-7 elements the trace sweep proves none exists (the candidate
traces all land in a proper subfield or a small subgroup).
"""
from beauville import (PSL2, Unrealizable, find_generating_triple,
                       is_hurwitz_psl2)
from beauville.numutil import is_prime

print("p^e <= 1024, criterion vs constructed witness:")
for p in [n for n in range(2, 100) if is_prime(n)]:
    for e in (1, 2, 3):
        q = p**e
        if q > 1024 or q < 4:
            continue
        hur = is_hurwitz_psl2(p, e)
        if hur:
            tri = find_generating_triple(PSL2(p, e), 2, 3, 7)
            G = PSL2(p, e)
            witness = f"x={G.format_element(tri.x)} y={G.format_element(tri.y)}"
            print(f"  q = {p}^{e} = {q:5d}  Hurwitz      {witness}")
        else:
            G = PSL2(p, e)
            if G.order % 7 == 0:  # Cauchy: an element of order 7 exists
                try:
                    find_generating_triple(G, 2, 3, 7)
                    raise SystemExit(f"criterion violated at q = {q}!")
                except Unrealizable:
                    note = "order 7 exists, no generating (2,3,7) triple"
            else:
                note = "no order-7 elements at all"
            print(f"  q = {p}^{e} = {q:5d}  not Hurwitz  ({note})")
