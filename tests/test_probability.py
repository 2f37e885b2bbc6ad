import math
import multiprocessing
import pickle
import random
from fractions import Fraction

import pytest

from beauville import probability
from beauville.groups import AbelianSquare, parse_group
from beauville.numutil import prime_factors
from beauville.perms import AlternatingGroup
from beauville.psl2 import PSL2
from beauville.probability import (EstimationConfig,
                                   estimate_beauville_probability,
                                   estimate_component_stats,
                                   exact_probability_exhaustive,
                                   wilson_interval)
from beauville.structures import sigma_prime_fingerprints

from _oracles import element_of_order


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and lo > 0.95
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        EstimationConfig("ab:5", 0)
    with pytest.raises(ValueError):
        EstimationConfig("ab:5", 10, workers=0)


# -- exact values -----------------------------------------------------------------

def test_exact_probability_alt5_is_zero():
    assert exact_probability_exhaustive(AlternatingGroup(5)) == 0


def test_exact_probability_alt7_frozen_value():
    # the value the scan over every y in G gives
    assert exact_probability_exhaustive(AlternatingGroup(7)) == Fraction(23621, 793800)


def test_exact_probability_ab2_is_zero():
    assert exact_probability_exhaustive(AbelianSquare(2)) == 0


def test_exact_probability_ab5_frozen_value():
    # derived by this enumeration: 480 generating pairs split evenly over
    # the 20 line-triples of P1(F_5); disjoint ordered pairs are the 20
    # complementary choices, giving 20 * 24^2 / 5^8
    assert exact_probability_exhaustive(AbelianSquare(5)) == Fraction(2304, 78125)


def test_exact_probability_psl2_5_is_zero():
    # PSL2(5) is isomorphic to A5, the one simple-group exception
    assert exact_probability_exhaustive(PSL2(5)) == 0
    assert exact_probability_exhaustive(PSL2(2, 2)) == 0  # PSL2(4) = A5 too


def test_exact_probability_psl2_7_positive():
    p = exact_probability_exhaustive(PSL2(7))
    assert 0 < p < 1
    assert p == Fraction(29, 3528)


@pytest.mark.parametrize("descriptor", ["ab:6", "ab:7", "sym:4", "alt:5", "psl2:7"])
def test_exact_probability_matches_unreduced_enumeration(descriptor):
    from _oracles import exact_probability_all_pairs
    g = parse_group(descriptor)
    assert exact_probability_exhaustive(g) == exact_probability_all_pairs(g)


def _abelian_square_probability(n):
    # (|GL2(Z/n)| / n**4)**2 times, for each prime r | n, the share of the
    # ordered pairs of 3-subsets of P^1(F_r) that are disjoint: the census
    # weighs every Sigma set alike, one 3-subset of lines per prime
    p = Fraction(1)
    for r in prime_factors(n):
        p *= ((1 - Fraction(1, r)) * (1 - Fraction(1, r * r))) ** 2
        p *= Fraction(math.comb(r - 2, 3), math.comb(r + 1, 3))
    return p


@pytest.mark.parametrize("n", range(2, 17))
def test_exact_probability_of_zn_squared_has_a_closed_form(n):
    assert exact_probability_exhaustive(AbelianSquare(n)) == _abelian_square_probability(n)
    if n <= 7:
        from _oracles import exact_probability_all_pairs
        assert exact_probability_all_pairs(AbelianSquare(n)) == _abelian_square_probability(n)


# -- determinism --------------------------------------------------------------------

def test_identical_config_identical_result():
    g = PSL2(13)
    r1 = estimate_beauville_probability(g, 1500, seed=5)
    r2 = estimate_beauville_probability(g, 1500, seed=5)
    assert r1.successes == r2.successes
    assert r1.components == r2.components


def test_worker_count_does_not_change_result():
    g = PSL2(13)
    r1 = estimate_beauville_probability(g, 1200, seed=9, workers=1)
    r2 = estimate_beauville_probability(g, 1200, seed=9, workers=2)
    r4 = estimate_beauville_probability(g, 1200, seed=9, workers=4)
    assert r1.successes == r2.successes == r4.successes
    assert r1.components == r2.components == r4.components


class _InProcessContext:
    """A stand-in multiprocessing context whose pool records its size and runs
    each task in this process on a pickled copy of its arguments."""

    def __init__(self, sizes):
        self.sizes = sizes

    def Pool(self, size):
        self.sizes.append(size)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, args):
        return [fn(*pickle.loads(pickle.dumps(a))) for a in args]


def test_pool_has_at_most_one_process_per_chunk_and_cpu(monkeypatch):
    sizes = []
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: _InProcessContext(sizes))
    monkeypatch.setattr(probability.os, "cpu_count", lambda: 4)
    g = PSL2(13)
    few = estimate_beauville_probability(g, 3, seed=9, workers=64)
    many = estimate_beauville_probability(g, 600, seed=9, workers=64)
    assert sizes == [3, 4]
    assert few.to_dict()["workers"] == many.to_dict()["workers"] == 64
    serial = estimate_beauville_probability(g, 600, seed=9, workers=1)
    assert (many.successes, many.components) == (serial.successes, serial.components)


def test_estimate_leaves_its_sigma_memo_on_the_callers_handle():
    g = PSL2(13)
    estimate_beauville_probability(g, 300, seed=3)
    memo = dict(g._sigma_memo)
    assert memo
    # a second run on the same handle finds every key it needs there
    estimate_beauville_probability(g, 300, seed=3)
    assert g._sigma_memo == memo


def test_different_seeds_differ():
    g = PSL2(13)
    r1 = estimate_beauville_probability(g, 1500, seed=1)
    r2 = estimate_beauville_probability(g, 1500, seed=2)
    assert r1.successes != r2.successes  # astronomically unlikely to tie


# -- Monte Carlo consistency -----------------------------------------------------------

def test_monte_carlo_matches_exact_on_ab5():
    exact = float(exact_probability_exhaustive(AbelianSquare(5)))
    for n in (1000, 10_000):
        res = estimate_beauville_probability(AbelianSquare(5), n, seed=42)
        lo, hi = res.interval
        assert lo <= exact <= hi, (n, res.estimate, res.interval, exact)


def test_alt5_sampled_estimate_is_zero():
    res = estimate_beauville_probability(AlternatingGroup(5), 2000, seed=1)
    assert res.successes == 0


# -- component stats ----------------------------------------------------------------

def test_component_stats_psl2_13():
    stats = estimate_component_stats(PSL2(13), 4000, seed=3)
    for key in ("split", "nonsplit", "unipotent", "triple_split", "generating"):
        assert key in stats
        frac = stats[key]["fraction"]
        lo, hi = stats[key]["wilson95"]
        assert 0 <= lo <= frac <= hi <= 1
    # 1/13-ish unipotents: exact fraction is 2/q
    assert stats["unipotent"]["fraction"] < 2 / 13 + 0.03


def test_component_stats_even_q_uses_order_div3():
    stats = estimate_component_stats(PSL2(2, 3), 2000, seed=3)
    assert "order_div3" in stats and "even_order" not in stats


def test_component_stats_odd_q_uses_even_order():
    stats = estimate_component_stats(PSL2(13), 1000, seed=3)
    assert "even_order" in stats and "order_div3" not in stats
    # for odd q at least a quarter of elements have even order: half of
    # each even-order torus, and one torus order is always even
    assert stats["even_order"]["fraction"] > 0.25 - 0.06


def test_estimate_components_come_from_same_samples():
    g = PSL2(11)
    res = estimate_beauville_probability(g, 800, seed=6)
    assert res.components["generating"]["of"] == 1600  # two pairs per sample
    assert res.components["split"]["of"] == 3200       # four elements per sample


def test_non_psl2_components_limited_to_generation():
    res = estimate_beauville_probability(AlternatingGroup(6), 500, seed=2)
    assert "generating" in res.components
    assert "split" not in res.components


def test_even_order_obstruction_diagnostic_logged():
    # among failing quadruples in PSL2(q) with q odd, some fail with both
    # sides containing even-order elements sharing the involution class;
    # logged as a diagnostic, not asserted numerically
    g = PSL2(13)
    rng = random.Random(4)
    failing = both_even = 0
    for _ in range(3000):
        x1, y1, x2, y2 = (g.random_element(rng) for _ in range(4))
        if not (g.generates(x1, y1) and g.generates(x2, y2)):
            continue
        s1 = g.sigma_classes(sigma_prime_fingerprints(g, x1, y1))
        s2 = g.sigma_classes(sigma_prime_fingerprints(g, x2, y2))
        if not (s1 & s2):
            continue
        failing += 1
        orders1 = {g.order_of(m) for m in (x1, y1)}
        orders2 = {g.order_of(m) for m in (x2, y2)}
        if any(o % 2 == 0 for o in orders1) and any(o % 2 == 0 for o in orders2):
            inv_fp = g.fingerprint(element_of_order(g, 2))
            if inv_fp in s1 & s2:
                both_even += 1
    print(f"even-order obstruction: {both_even}/{failing} failing quadruples "
          f"share the involution class with even orders on both sides")
    assert failing > 0


def test_estimate_result_serialization():
    res = estimate_beauville_probability(AbelianSquare(5), 200, seed=8)
    d = res.to_dict()
    assert d["samples"] == 200 and d["seed"] == 8
    assert 0 <= d["estimate"] <= 1


def test_alt_n_trend_reported_without_limit_assertion():
    # the open question whether P(A_n) -> 1 is only reported as data
    fractions = {}
    for n in (5, 6, 7):
        res = estimate_beauville_probability(
            AlternatingGroup(n), 1200, seed=13, component_stats=False)
        fractions[n] = res.estimate
    print("P(A_n) estimates:", fractions)
    assert fractions[5] == 0.0
    assert fractions[6] > 0 and fractions[7] > 0
    # generating fraction beside Dixon's 1 - 1/n, reported only
    for n in (10, 15, 20, 30):
        res = estimate_beauville_probability(AlternatingGroup(n), 200, seed=13)
        gen = res.components["generating"]["fraction"]
        print(f"A_{n}: generating fraction {gen:.3f}, 1 - 1/n = {1 - 1 / n:.3f}, "
              f"P estimate {res.estimate:.3f}")
