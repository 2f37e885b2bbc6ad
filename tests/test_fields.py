import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beauville.fields import (GF, FieldError, ZeroDivisionInField,
                              find_irreducible, gf, parse_field_descriptor)
from beauville.numutil import PRIME_PROOF_BOUND, is_prime

TEST_SPECS = [(7, 1), (11, 1), (101, 1), (2, 2), (2, 3), (2, 7),
              (3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (11, 2)]


def test_find_irreducible_examples():
    assert find_irreducible(7, 1) == (0, 1)            # x
    assert find_irreducible(2, 2) == (1, 1, 1)         # x^2+x+1
    assert find_irreducible(3, 2) == (1, 0, 1)         # x^2+1
    assert find_irreducible(2, 3) == (1, 1, 0, 1)      # x^3+x+1


def test_find_irreducible_x2_plus_1_is_first_for_gf9():
    # exhaustive: x^2+1 has no root mod 3, and the only earlier monic
    # candidate x^2 factors
    f = gf(3, 2)
    t = f.element([0, 1])
    assert f.add(f.mul(t, t), 1) == 0
    for x in range(3):
        assert (x * x + 1) % 3 != 0


def test_rejects_non_prime():
    with pytest.raises(FieldError):
        find_irreducible(6, 2)
    with pytest.raises(FieldError):
        GF(9)


def test_is_prime_matches_a_sieve_below_10_5():
    n = 10**5
    sieve = [False, False] + [True] * (n - 2)
    for i in range(2, 317):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, n, i))
    assert [m for m in range(n) if is_prime(m)] == [m for m in range(n) if sieve[m]]


def test_is_prime_rejects_the_least_strong_pseudoprime_to_bases_2_to_37():
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441
    assert is_prime(399165290221) and is_prime(798330580441)
    assert not is_prime(psi_12)
    assert is_prime(2**61 - 1) and not is_prime(2**61 + 1)
    # the bound is tight: psi_13 = 1287836182261 * 2575672364521 passes
    assert PRIME_PROOF_BOUND == 1287836182261 * 2575672364521
    assert is_prime(PRIME_PROOF_BOUND)


@pytest.mark.parametrize("p,e,message", [
    (2, 10**11, "64-bit"),       # p**e would be a 12.5 GB integer
    (2**64 + 13, 1, "64-bit"),   # p is not tested for primality
    (10**100 + 1, 1, "64-bit"),
    (3, 39, r"2\*\*16"),          # q < 2**63, but no table is built
    (1000, 2, r"2\*\*16"),
], ids=["2^1e11", "2^64+13", "10^100+1", "3^39", "1000^2"])
def test_field_size_is_refused_before_primality_and_modulus(monkeypatch, p, e, message):
    def refuse(*args):
        raise AssertionError("work done before the size check")

    monkeypatch.setattr("beauville.fields.is_prime", refuse)
    monkeypatch.setattr("beauville.fields.find_irreducible", refuse)
    with pytest.raises(FieldError, match=message):
        GF(p, e)


def test_arith_examples():
    f7 = gf(7)
    assert f7.mul(3, 5) == 1
    assert f7.inv(3) == 5
    f4 = gf(2, 2)
    t = f4.element([0, 1])
    assert f4.mul(t, f4.add(t, 1)) == 1  # t*(t+1) = t^2+t = 1 mod x^2+x+1


def test_division_by_zero_distinct_error():
    f = gf(7)
    with pytest.raises(ZeroDivisionInField):
        f.inv(0)
    with pytest.raises(ZeroDivisionInField):
        f.div(3, 0)


@pytest.mark.parametrize("p,e", TEST_SPECS)
def test_field_axioms_random_triples(p, e):
    f = gf(p, e)
    rng = random.Random(p * 1000 + e)
    for _ in range(300):
        a, b, c = f.random(rng), f.random(rng), f.random(rng)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
            assert f.div(b, a) == f.mul(b, f.inv(a))


@pytest.mark.parametrize("p,e", TEST_SPECS)
def test_unit_group_order_and_square_counts(p, e):
    f = gf(p, e)
    q = f.q
    for a in f.units():
        assert f.pow(a, q - 1) == 1
    nonzero_squares = sum(1 for a in f.units() if f.is_square(a))
    assert nonzero_squares == (q - 1 if p == 2 else (q - 1) // 2)


@pytest.mark.parametrize("p,e", [(5, 1), (7, 1), (11, 1), (2, 2), (3, 2),
                                 (2, 3), (5, 2), (7, 2), (3, 4), (11, 2),
                                 (2, 4), (2, 5), (2, 6), (2, 8)])
def test_solve_quadratic_matches_brute_enumeration(p, e):
    # q <= 256 coefficient sweep against full root enumeration
    f = gf(p, e)
    rng = random.Random(17)
    coeff_sets = [(a, b, c) for a in [1, f.q - 1] for b in range(min(f.q, 6))
                  for c in range(min(f.q, 6))]
    coeff_sets += [(rng.randrange(1, f.q), f.random(rng), f.random(rng))
                   for _ in range(120)]
    for a, b, c in coeff_sets:
        roots = f.solve_quadratic(a, b, c)
        brute = tuple(sorted(
            z for z in f.elements()
            if f.add(f.add(f.mul(a, f.mul(z, z)), f.mul(b, z)), c) == 0))
        assert roots == brute


def test_solve_quadratic_examples():
    f7 = gf(7)
    assert f7.solve_quadratic(1, 0, f7.neg(1)) == (1, 6)       # z^2 - 1
    assert f7.solve_quadratic(1, 0, f7.neg(3)) == ()           # 3 non-square
    f9 = gf(3, 2)
    roots = f9.solve_quadratic(1, 0, 1)                        # z^2 + 1
    assert len(roots) == 2
    for r in roots:
        assert f9.add(f9.mul(r, r), 1) == 0


def test_is_square_and_subfield_degree_examples():
    f7 = gf(7)
    assert f7.is_square(2)  # 3^2 = 2 mod 7
    f9 = gf(3, 2)
    assert f9.subfield_degree(f9.generator) == 2
    assert f9.subfield_degree(2) == 1
    f64 = gf(2, 6)
    degrees = {f64.subfield_degree(a) for a in f64.elements()}
    assert degrees == {1, 2, 3, 6}


@pytest.mark.parametrize("p,e", [(2, 4), (2, 6), (2, 7), (3, 4), (3, 5), (5, 2), (7, 2)])
def test_subfield_degree_matches_the_frobenius_definition(p, e):
    # the least d | e whose Frobenius a -> a**(p**d) fixes a, on every element
    F = gf(p, e)
    for a in F.elements():
        d = next(d for d in range(1, e + 1) if e % d == 0 and F.pow(a, p**d) == a)
        assert F.subfield_degree(a) == d, a


@given(st.sampled_from(TEST_SPECS), st.data())
@settings(max_examples=60, deadline=None)
def test_pow_matches_repeated_multiplication(spec, data):
    p, e = spec
    f = gf(p, e)
    a = data.draw(st.integers(min_value=1, max_value=f.q - 1))
    k = data.draw(st.integers(min_value=0, max_value=40))
    acc = 1
    for _ in range(k):
        acc = f.mul(acc, a)
    assert f.pow(a, k) == acc


@pytest.mark.parametrize("p,e", [(7, 1), (2, 3), (3, 2)])
def test_pow_negative_exponents_and_zero_base(p, e):
    f = gf(p, e)
    for a in range(1, f.q):
        assert f.pow(a, -1) == f.inv(a)
        assert f.mul(f.pow(a, -3), f.pow(a, 3)) == 1
    assert f.pow(0, 0) == 1 and f.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionInField):
        f.pow(0, -2)


@given(st.sampled_from(TEST_SPECS), st.data())
@settings(max_examples=60, deadline=None)
def test_sqrt_consistent_with_is_square(spec, data):
    p, e = spec
    f = gf(p, e)
    a = data.draw(st.integers(min_value=0, max_value=f.q - 1))
    r = f.sqrt(a)
    if f.is_square(a):
        assert r is not None and f.mul(r, r) == a
    else:
        assert r is None


def test_format_parse_round_trip():
    for p, e in TEST_SPECS:
        f = gf(p, e)
        sample = list(f.elements()) if f.q <= 200 else random.Random(0).sample(
            range(f.q), 100)
        for a in sample:
            assert f.parse(f.format(a)) == a


def test_parse_prime_field_bare_integers():
    f = gf(7)
    assert f.parse("12") == 5
    assert f.parse("-1") == 6


def test_parse_rejects_garbage():
    f = gf(7, 2)
    for bad in ("", "t^9", "1+*t", "zz"):
        with pytest.raises(FieldError):
            f.parse(bad)


def test_field_descriptor_round_trip():
    assert parse_field_descriptor("7").q == 7
    f = parse_field_descriptor("2^3")
    assert (f.p, f.e) == (2, 3)
    assert f.descriptor() == "2^3"
    assert gf(7).descriptor() == "7"


def test_absolute_trace_is_additive_to_prime_field():
    f = gf(2, 3)
    for a in f.elements():
        tr = f.absolute_trace(a)
        assert tr in (0, 1)
    zeros = sum(1 for a in f.elements() if f.absolute_trace(a) == 0)
    assert zeros == f.q // 2  # trace is a balanced F_2-linear form


# -- Zech-log addition against the digit-wise oracle --------------------------

ODD_EXTENSIONS = [(p, e) for p in (3, 5, 7, 11, 13, 17, 19, 23)
                  for e in range(2, 7) if p ** e <= 729]


@pytest.mark.parametrize("p,e", ODD_EXTENSIONS)
def test_zech_add_and_sub_match_digitwise_oracle_on_every_pair(p, e):
    from _oracles import add_digitwise
    f = gf(p, e)
    a, b = np.arange(f.q)[:, None], np.arange(f.q)[None, :]
    total = np.array([[f.add(x, y) for y in range(f.q)] for x in range(f.q)])
    assert (total == add_digitwise(f, a, b)).all()
    # (a - b) + b = a has one solution, so this pins sub as well
    diff = np.array([[f.sub(x, y) for y in range(f.q)] for x in range(f.q)])
    assert (add_digitwise(f, diff, b) == a).all()


@pytest.mark.parametrize("e", [7, 10])  # 3^10 is the largest table under the cap
def test_zech_add_and_sub_match_digitwise_oracle_on_large_fields(e):
    from _oracles import add_digitwise
    f = gf(3, e)
    rng = random.Random(f"zech:3^{e}")
    a = [f.random(rng) for _ in range(50_000)]
    b = [f.random(rng) for _ in range(50_000)]
    # sums of zero: x + 0, 0 + x and x + (-x)
    a += [0, a[0], a[1]]
    b += [b[0], 0, f.neg(a[1])]
    a_arr, b_arr = np.array(a), np.array(b)
    total = np.array([f.add(x, y) for x, y in zip(a, b)])
    assert (total == add_digitwise(f, a_arr, b_arr)).all()
    diff = np.array([f.sub(x, y) for x, y in zip(a, b)])
    assert (add_digitwise(f, diff, b_arr) == a_arr).all()


# every extension field with q <= 2^13, and GF(3^8)
TABLE_ORACLE_FIELDS = [(p, e) for p in range(2, 91) if is_prime(p)
                       for e in range(2, 14) if p ** e <= 2 ** 13] + [(3, 8)]


@pytest.mark.parametrize("p,e", TABLE_ORACLE_FIELDS)
def test_tables_match_polynomial_product_oracle(p, e):
    from _oracles import field_tables_brute
    f = GF(p, e)
    mod, gen, exp, log, zech, neg, digits = field_tables_brute(p, e)
    assert f.modulus == mod
    assert f.generator == gen
    assert f._exp == exp
    assert f._log == log
    assert getattr(f, "_zech", None) == zech
    assert f._neg == neg
    assert [f.coeffs(a) for a in f.elements()] == digits
