"""Conjugacy classes, the class-algebra counting formula, character tables.

The number of solutions of x*y*z = 1 with x, y, z in prescribed conjugacy
classes X, Y, Z is computed two ways:

* brute convolution: fix one representative x of X (the count is constant
  on the class) and count y in Y with (x*y)**-1 in Z, times |X|;
* the character formula |X||Y||Z|/|G| * sum over irreducible characters of
  chi(x) chi(y) chi(z) / chi(1).

The brute count is ground truth; the character path exists to embody the
formula and to reuse persisted tables.  Character tables are computed with
the Burnside class-matrix method: the class-sum matrices commute, their
common eigenvectors are the central characters, and degrees follow from
the orthogonality relation.  The matrices are built one class at a time
and only until a random combination of those built so far has distinct
eigenvalues, which usually takes a few of the k (Dixon).  Values are
stored as complex floats with a declared tolerance of 1e-8 rather than
exact cyclotomics.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .groups import ENUMERATION_CAP, CapExceeded, Group

VALUE_TOLERANCE = 1e-8
INTEGER_TOLERANCE = 1e-6

TABLE_CAP = 10_000
CLASS_CAP = 60
TABLE_SEED = 7  # seeds the random class-matrix combination coefficients


class TableInvalid(RuntimeError):
    """A character-table invariant failed (orthogonality, degrees, or
    non-integral class-algebra count)."""


@dataclass
class ClassData:
    index: int
    fingerprint: object
    size: int
    representative: object
    element_order: int

    def label(self) -> str:
        return repr(self.fingerprint)


class ClassPartition:
    """The full partition of G into conjugacy classes.

    Classes are ordered by (element order, size, fingerprint label), so the
    identity class is always first and the ordering is reproducible.
    ``elements`` is the enumeration order; the build is refused as soon as
    it meets a class beyond ``max_classes``.
    """

    def __init__(self, group: Group, cap: int = ENUMERATION_CAP, max_classes=None):
        self.group = group
        self.elements = []
        members: dict = {}
        for m in group.elements(cap):
            self.elements.append(m)
            members.setdefault(group.fingerprint(m), []).append(m)
            if max_classes is not None and len(members) > max_classes:
                raise CapExceeded(f"{group.descriptor()} has more than {max_classes} classes")
        keyed = sorted(
            members.items(),
            key=lambda kv: (group.order_of(kv[1][0]), len(kv[1]), repr(kv[0])))
        self.classes = [
            ClassData(i, fp, len(ms), ms[0], group.order_of(ms[0]))
            for i, (fp, ms) in enumerate(keyed)]
        self._members = [ms for _, ms in keyed]
        self.element_class = {
            m: i for i, ms in enumerate(self._members) for m in ms}
        assert sum(c.size for c in self.classes) == group.order

    def __len__(self):
        return len(self.classes)

    def members(self, i: int):
        return self._members[i]

    def class_of(self, m) -> int:
        return self.element_class[m]


def conjugacy_classes(group: Group, cap: int = ENUMERATION_CAP) -> ClassPartition:
    return group.classes(cap)


def frobenius_count_brute(partition: ClassPartition, i: int, j: int, k: int) -> int:
    """Exact number of (x, y, z) in X_i x Y_j x Z_k with x*y*z = 1.

    The inner count is independent of the representative x by conjugation
    symmetry, so it is computed once and multiplied by |X_i|.
    """
    G = partition.group
    x = partition.classes[i].representative
    target = partition.classes[k].fingerprint
    hits = sum(G.fingerprint(G.inverse(G.multiply(x, y))) == target
               for y in partition.members(j))
    return partition.classes[i].size * hits


# ---------------------------------------------------------------------------
# character tables (Burnside class-matrix method)
# ---------------------------------------------------------------------------

@dataclass
class CharacterTable:
    group: str
    class_labels: list[str]
    class_sizes: list[int]
    class_orders: list[int]
    degrees: list[int]
    values: list[list[complex]]  # rows: characters, columns: classes
    tolerance: float = VALUE_TOLERANCE

    @property
    def group_order(self) -> int:
        return sum(self.class_sizes)

    def validate(self):
        n = self.group_order
        k = len(self.class_labels)
        if sum(d * d for d in self.degrees) != n:
            raise TableInvalid(
                f"degree check failed: sum of squares {sum(d * d for d in self.degrees)} != {n}")
        if not all(abs(v - 1) < self.tolerance for v in self.values[0]):
            raise TableInvalid("first row is not the trivial character")
        vals = np.array(self.values, dtype=complex)
        sizes = np.array(self.class_sizes, dtype=float)
        gram = (vals * sizes) @ vals.conj().T / n
        if not np.allclose(gram, np.eye(k), atol=self.tolerance):
            raise TableInvalid("row orthogonality failed beyond tolerance")
        # column orthogonality: sum_chi chi(g) conj(chi(h)) = |C_G(g)| delta
        col = vals.conj().T @ vals
        expect = np.diag([n / s for s in sizes])
        if not np.allclose(col, expect, atol=self.tolerance * n):
            raise TableInvalid("column orthogonality failed beyond tolerance")

    def to_payload(self) -> dict:
        return {
            "group": self.group,
            "tolerance": self.tolerance,
            "classes": [
                {"fingerprint": lb, "size": s, "order": o}
                for lb, s, o in zip(self.class_labels, self.class_sizes,
                                    self.class_orders)],
            "degrees": self.degrees,
            "values": [[[v.real, v.imag] for v in row] for row in self.values],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=1, sort_keys=True)

    @classmethod
    def from_payload(cls, payload: dict) -> "CharacterTable":
        return cls(
            group=payload["group"],
            class_labels=[c["fingerprint"] for c in payload["classes"]],
            class_sizes=[c["size"] for c in payload["classes"]],
            class_orders=[c["order"] for c in payload["classes"]],
            degrees=list(payload["degrees"]),
            values=[[complex(re, im) for re, im in row] for row in payload["values"]],
            tolerance=payload["tolerance"],
        )

    @classmethod
    def from_json(cls, text: str) -> "CharacterTable":
        return cls.from_payload(json.loads(text))


def _class_matrix(partition: ClassPartition, i: int) -> np.ndarray:
    """A_i with (A_i)[j, l] = #{u in C_i : u**-1 w_l in C_j}: the structure
    constants of the i-th class sum in the center of the group algebra,
    at a cost of |C_i| * k products."""
    G = partition.group
    class_of, mul = partition.element_class, G.multiply
    reps = [c.representative for c in partition.classes]
    counts = [[0] * len(reps) for _ in reps]
    for u in partition.members(i):
        u_inv = G.inverse(u)
        for l, rep in enumerate(reps):
            counts[class_of[mul(u_inv, rep)]][l] += 1
    return np.array(counts, dtype=float)


def _matrix_order(partition: ClassPartition) -> list[int]:
    """Class indices in the order their matrices are built: the first class
    of each element order, by decreasing order, then the remaining classes
    by (decreasing order, index)."""
    ranked = sorted(range(len(partition)),
                    key=lambda i: (-partition.classes[i].element_order, i))
    first: dict[int, int] = {}
    for i in ranked:
        first.setdefault(partition.classes[i].element_order, i)
    lead = list(first.values())
    return lead + [i for i in ranked if i not in lead]


def _central_characters(M: np.ndarray, id_idx: int):
    """Rows omega(K_l) of the eigenvectors of M, scaled to 1 at the identity
    class, or None if two eigenvalues lie within 1e-7 times the largest
    eigenvalue modulus (at least 1)."""
    k = len(M)
    eigvals, eigvecs = np.linalg.eig(M)
    spread = max(1.0, float(np.max(np.abs(eigvals))))
    if k > 1:
        dists = np.abs(eigvals[:, None] - eigvals[None, :])
        dists += np.eye(k) * spread
        if float(np.min(dists)) < 1e-7 * spread:
            return None
    return (eigvecs / eigvecs[id_idx, :]).T


def character_table(group, cap: int = TABLE_CAP) -> CharacterTable:
    """Complex character table via simultaneous diagonalization of the
    class matrices, built lazily.

    The class matrices A_i are the regular representation of the center
    Z(CG), which is commutative, so they commute.  If M_S = sum over i in S
    of c_i A_i has k distinct eigenvalues, each eigenspace of M_S is a line,
    and every A_i preserves it (A_i commutes with M_S); so the eigenvectors
    of M_S are the common eigenvectors of all A_i, the central characters.
    The A_i are therefore built one at a time (see ``_matrix_order``) and
    added with random coefficients c_i until M_S separates; a few classes
    usually suffice (Dixon, Numer. Math. 10, 1967).  If all k do not, fresh
    coefficients over all k matrices are drawn up to 24 times.  Degrees are
    recovered from the self-orthogonality relation and must round to
    integers with sum of squares |G|.  A partition stands for its group.
    """
    group = getattr(group, "group", group)  # a ClassPartition's group
    if group.order > cap:
        raise CapExceeded(f"character table needs |G| = {group.order} <= {cap}",
                          required=group.order, cap=cap)
    partition = group.classes(cap)
    k = len(partition)
    if k > CLASS_CAP:
        raise CapExceeded(f"{k} classes exceed the class cap {CLASS_CAP}",
                          required=k, cap=CLASS_CAP)
    n = group.order
    sizes = np.array([c.size for c in partition.classes], dtype=float)
    id_idx = next(i for i, c in enumerate(partition.classes)
                  if c.element_order == 1)

    rng = np.random.default_rng(TABLE_SEED)
    mats = []
    M = np.zeros((k, k))
    omegas = None
    for i in _matrix_order(partition):
        mats.append(_class_matrix(partition, i))
        M += rng.standard_normal() * mats[-1]
        omegas = _central_characters(M, id_idx)
        if omegas is not None:
            break
    for _ in range(24):  # no prefix separated: fresh draws over all k
        if omegas is not None:
            break
        coeffs = rng.standard_normal(k)
        omegas = _central_characters(
            sum(c * A for c, A in zip(coeffs, mats)), id_idx)
    if omegas is None:
        raise TableInvalid("class-matrix eigenvalues would not separate")

    rows = []
    for om in omegas:
        denom = float(np.sum(np.abs(om) ** 2 / sizes).real)
        deg = math.sqrt(n / denom)
        deg_int = round(deg)
        if abs(deg - deg_int) > 1e-4 or deg_int < 1:
            raise TableInvalid(f"non-integral character degree {deg}")
        chi = deg_int * om / sizes
        rows.append((deg_int, [complex(v) for v in chi]))

    # trivial character first, the rest by degree then value key
    def row_key(row):
        deg, vals = row
        return (deg, [(round(v.real, 6), round(v.imag, 6)) for v in vals])

    trivial = min(rows, key=lambda r: max(abs(v - 1) for v in r[1]))
    rest = sorted((r for r in rows if r is not trivial), key=row_key)
    ordered = [trivial] + rest

    table = CharacterTable(
        group=group.descriptor(),
        class_labels=[c.label() for c in partition.classes],
        class_sizes=[c.size for c in partition.classes],
        class_orders=[c.element_order for c in partition.classes],
        degrees=[deg for deg, _ in ordered],
        values=[vals for _, vals in ordered],
    )
    table.validate()
    return table


def frobenius_count_character(table: CharacterTable, i: int, j: int, k: int) -> int:
    """The class-algebra count from the character table; the complex sum
    must land within 1e-6 of a non-negative integer."""
    n = table.group_order
    total = 0 + 0j
    for deg, row in zip(table.degrees, table.values):
        total += row[i] * row[j] * row[k] / deg
    value = (table.class_sizes[i] * table.class_sizes[j] * table.class_sizes[k]
             / n) * total
    nearest = round(value.real)
    if abs(value.imag) > INTEGER_TOLERANCE or abs(value.real - nearest) > INTEGER_TOLERANCE:
        raise TableInvalid(
            f"character count {value} is not an integer within {INTEGER_TOLERANCE}")
    if nearest < 0:
        raise TableInvalid(f"character count {nearest} is negative")
    return int(nearest)


def witten_zeta(degrees, s: float) -> float:
    """sum over irreducible degrees of degree**(-s); the plain Dirichlet
    sum, no analytic continuation."""
    if s <= 0:
        raise ValueError("witten zeta needs s > 0")
    return float(sum(d ** (-float(s)) for d in degrees))
