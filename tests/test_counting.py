import pytest

from beauville.groups import AbelianSquare, CapExceeded, parse_group
from beauville.perms import AlternatingGroup
from beauville.psl2 import PSL2
from beauville.counting import (VALUE_TOLERANCE, CharacterTable, TableInvalid,
                                character_table, conjugacy_classes,
                                frobenius_count_brute,
                                frobenius_count_character, witten_zeta)

from beauville.probability import exact_probability_exhaustive
from beauville.structures import pair_census, search_structure

from _oracles import character_rows_all_matrices, frobenius_table_brute

ORACLE_GROUPS = ["alt:5", "alt:6", "psl2:7", "psl2:2^3", "ab:5"]


# -- class enumeration -----------------------------------------------------------

def test_a5_classes():
    part = conjugacy_classes(AlternatingGroup(5))
    assert sorted(c.size for c in part.classes) == [1, 12, 12, 15, 20]
    assert part.classes[0].element_order == 1 and part.classes[0].size == 1


def test_z5_squared_classes_are_singletons():
    part = conjugacy_classes(AbelianSquare(5))
    assert len(part) == 25 and all(c.size == 1 for c in part.classes)


def test_psl2_7_classes():
    part = conjugacy_classes(PSL2(7))
    assert len(part) == 6
    assert sum(c.size for c in part.classes) == 168
    for c in part.classes:
        assert 168 % c.size == 0


def test_class_ordering_deterministic():
    p1 = conjugacy_classes(AlternatingGroup(6))
    p2 = conjugacy_classes(AlternatingGroup(6))
    assert [c.fingerprint for c in p1.classes] == [c.fingerprint for c in p2.classes]
    orders = [(c.element_order, c.size, c.label()) for c in p1.classes]
    assert orders == sorted(orders)


def test_one_class_enumeration_per_handle():
    # the census (search and exact P(G)), the class listing and the
    # character table all read the partition kept on the handle, and search
    # and exact P(G) read the one census kept beside it
    g = AlternatingGroup(6)
    calls = reads = 0
    iter_elements, read_pair = g.iter_elements, g.read_pair

    def counted():
        nonlocal calls
        calls += 1
        return iter_elements()

    def counted_read(x, y):
        nonlocal reads
        reads += 1
        return read_pair(x, y)

    g.iter_elements, g.read_pair = counted, counted_read
    assert search_structure(g, "exhaustive").found
    assert len(conjugacy_classes(g)) == 7
    assert len(character_table(g).degrees) == 7
    assert exact_probability_exhaustive(g) > 0
    assert calls == 1
    assert reads == pair_census(g).pairs_tested


def test_kept_partition_still_refuses_smaller_caps():
    g = AlternatingGroup(6)
    kept = g.classes()
    assert conjugacy_classes(g) is kept
    with pytest.raises(CapExceeded, match="exceeds enumeration cap 359") as exc:
        conjugacy_classes(g, 359)
    assert exc.value.required == 360 and exc.value.cap == 359
    with pytest.raises(CapExceeded, match="more than 6 classes"):
        g.classes(max_classes=6)
    # 6 non-identity classes need 6 * 360 pairs; a census that refuses
    # meets class 7 of 7, so it reports them all, and a kept census refuses
    # as a fresh one would
    census = pair_census(g, pair_cap=2160)
    assert census.pairs_checked == 2160 and census.representatives == 6
    with pytest.raises(CapExceeded, match="needs at least 2160 pairs, cap is 2159"):
        pair_census(g, pair_cap=2159)
    assert pair_census(g) is census
    assert g.classes() is kept


def test_class_cap():
    with pytest.raises(CapExceeded):
        conjugacy_classes(AlternatingGroup(13), cap=1000)


# -- brute counts ------------------------------------------------------------------

def test_frobenius_trivial_examples():
    part = conjugacy_classes(AlternatingGroup(5))
    assert frobenius_count_brute(part, 0, 0, 0) == 1
    # X = {1} forces Z to be the inverse class of Y
    assert frobenius_count_brute(part, 0, 1, 2) == 0


def test_frobenius_rotation_and_inversion_invariance():
    for descriptor in ("alt:5", "psl2:7"):
        g = parse_group(descriptor)
        part = conjugacy_classes(g)
        k = len(part)
        inv_of = [part.class_of(g.inverse(c.representative)) for c in part.classes]
        for i in range(k):
            for j in range(k):
                for l in range(k):
                    n = frobenius_count_brute(part, i, j, l)
                    assert n == frobenius_count_brute(part, j, l, i)
                    assert n == frobenius_count_brute(
                        part, inv_of[i], inv_of[j], inv_of[l])


# -- character tables -----------------------------------------------------------------

def test_a5_degrees():
    table = character_table(AlternatingGroup(5))
    assert sorted(table.degrees) == [1, 3, 3, 4, 5]
    table.validate()


def test_abelian_tables_all_linear():
    table = character_table(AbelianSquare(5))
    assert table.degrees == [1] * 25
    table.validate()


def test_psl2_7_degree_squares():
    table = character_table(PSL2(7))
    assert sum(d * d for d in table.degrees) == 168
    assert sorted(table.degrees) == [1, 3, 3, 6, 7, 8]


@pytest.mark.parametrize("descriptor", ORACLE_GROUPS + ["sym:5", "psl2:3^2", "psl2:11", "psl2:13"])
def test_table_invariants(descriptor):
    g = parse_group(descriptor)
    table = character_table(g)
    table.validate()  # sum deg^2, trivial first, row+column orthogonality
    assert sum(d * d for d in table.degrees) == g.order


LAZY_TABLE_GROUPS = ORACLE_GROUPS + [
    f"sym:{n}" for n in range(3, 8)] + ["alt:7"] + [
    f"ab:{n}" for n in range(2, 8)] + [
    f"psl2:{q}" for q in ("2^2", 5, 7, "2^3", "3^2", 11, 13, "2^4", 17, 19,
                          "5^2", "3^3")]


@pytest.mark.parametrize("descriptor", sorted(set(LAZY_TABLE_GROUPS)))
def test_lazy_table_matches_table_from_all_class_matrices(descriptor):
    part = conjugacy_classes(parse_group(descriptor))
    table = character_table(part)
    degrees, values = character_rows_all_matrices(part)
    assert table.degrees == degrees
    for row, expect in zip(table.values, values):
        assert max(abs(a - b) for a, b in zip(row, expect)) < VALUE_TOLERANCE


def test_lazy_table_builds_few_class_matrices():
    g = parse_group("psl2:3^3")
    part = conjugacy_classes(g)
    calls = 0
    multiply = g.multiply

    def counted(a, b):
        nonlocal calls
        calls += 1
        return multiply(a, b)

    g.multiply = counted
    character_table(part)
    assert 0 < calls <= 0.35 * len(part) * g.order


def test_table_cap():
    with pytest.raises(CapExceeded):
        character_table(PSL2(101))
    with pytest.raises(CapExceeded, match="64 classes exceed the class cap 60"):
        character_table(AbelianSquare(8))


@pytest.mark.parametrize("descriptor", ORACLE_GROUPS)
def test_character_counts_equal_brute_on_all_triples(descriptor):
    g = parse_group(descriptor)
    part = conjugacy_classes(g)
    table = character_table(part)
    k = len(part)
    for i in range(k):
        brute = frobenius_table_brute(part, i)
        for j in range(k):
            for l in range(k):
                assert frobenius_count_character(table, i, j, l) == brute[j][l], \
                    (descriptor, i, j, l)


def test_trivial_character_dominance_trend():
    # total non-trivial character contribution relative to the total
    # trivial term Sum|N - T| / Sum T over all class triples, on the fixed
    # PSL2(q) family: logged, asserted as a strictly decreasing trend
    values = []
    for (p, e) in [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]:
        g = PSL2(p, e)
        part = conjugacy_classes(g)
        table = character_table(part)
        n = g.order
        k = len(part)
        num = den = 0.0
        for i in range(k):
            for j in range(k):
                for l in range(k):
                    t_term = (part.classes[i].size * part.classes[j].size
                              * part.classes[l].size / n)
                    s = 0 + 0j
                    for deg, row in zip(table.degrees, table.values):
                        if deg == 1 and all(abs(v - 1) < 1e-9 for v in row):
                            continue
                        s += row[i] * row[j] * row[l] / deg
                    num += abs(t_term * s)
                    den += t_term
        values.append(num / den)
        print(f"q={g.q}: relative non-trivial contribution {num / den:.5f}")
    assert all(a > b for a, b in zip(values, values[1:])), values


# -- witten zeta -------------------------------------------------------------------

def test_witten_zeta_a5():
    table = character_table(AlternatingGroup(5))
    z = witten_zeta(table.degrees, 2)
    assert abs(z - (1 + 1 / 9 + 1 / 9 + 1 / 16 + 1 / 25)) < 1e-12


def test_witten_zeta_abelian_is_group_order():
    table = character_table(AbelianSquare(7))
    for s in (0.5, 1, 2, 3):
        assert witten_zeta(table.degrees, s) == 49


def test_witten_zeta_trend_psl2_family():
    values = []
    for (p, e) in [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]:
        table = character_table(PSL2(p, e))
        values.append(witten_zeta(table.degrees, 2))
    assert all(v > 1 for v in values)
    assert all(a > b for a, b in zip(values, values[1:])), values


def test_witten_zeta_rejects_nonpositive_s():
    with pytest.raises(ValueError):
        witten_zeta([1, 3, 3, 4, 5], 0)


# -- persistence --------------------------------------------------------------------

def test_table_json_round_trip_bit_exact():
    table = character_table(PSL2(2, 3))
    text = table.to_json()
    back = CharacterTable.from_json(text)
    assert back.values == table.values
    assert back.degrees == table.degrees
    assert back.to_json() == text
    back.validate()


def test_tampered_table_fails_validation():
    table = character_table(AlternatingGroup(5))
    payload = table.to_payload()
    payload["values"][1][0][0] += 0.005
    broken = CharacterTable.from_payload(payload)
    with pytest.raises(TableInvalid):
        broken.validate()


def test_counting_examples_match_both_methods():
    # A5, X=Y=Z = the 20-element order-3 class
    g = AlternatingGroup(5)
    part = conjugacy_classes(g)
    table = character_table(part)
    i = next(c.index for c in part.classes if c.size == 20)
    n_brute = frobenius_count_brute(part, i, i, i)
    assert n_brute == frobenius_count_character(table, i, i, i)
    assert n_brute > 0
