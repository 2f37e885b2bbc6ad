"""Monte Carlo and exhaustive estimation of the Beauville probability.

P(G) is the probability that four independent uniform elements
(x1, y1, x2, y2) form an unmixed Beauville structure.  Estimates are
fully deterministic for a fixed (group, sample count, master seed): each
sample index derives its own RNG stream from the master seed by an
injective counter construction, so results are identical no matter how the
index range is chunked across workers.

Component statistics mirror the split/non-split decomposition of PSL2(q):
element-level fractions (split, non-split, unipotent, even order for odd
q / order divisible by 3 for even q) and pair-level fractions (x, y, xy
all split; all non-split; generating).  Intervals are 95% Wilson scores,
which behave correctly near 0 and 1.
"""
from __future__ import annotations

import math
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .groups import Group
from .structures import (DEFAULT_SEED, PAIR_CAP, pair_census, shared_classes,
                         sigma_prime_fingerprints)  # noqa: F401 (perfbench's tracer reads it here)

WILSON_Z = 1.959963984540054  # 97.5% normal quantile


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial fraction."""
    if trials == 0:
        return (0.0, 1.0)
    z2 = WILSON_Z * WILSON_Z
    phat = successes / trials
    denom = 1 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = (WILSON_Z / denom) * math.sqrt(
        phat * (1 - phat) / trials + z2 / (4 * trials * trials))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


_M64 = (1 << 64) - 1


def _sample_rng(master_seed: int, index: int) -> random.Random:
    """Per-sample stream: (seed, index) mixed through the splitmix64
    finalizer so that nearby indices seed uncorrelated generators."""
    z = ((master_seed & _M64) * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9
         + (master_seed >> 64)) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return random.Random(z ^ (z >> 31))


@dataclass(frozen=True)
class EstimationConfig:
    group: str
    samples: int
    seed: int = DEFAULT_SEED
    workers: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("sample_count must be >= 1")
        if self.workers < 1:
            raise ValueError("worker_count must be >= 1")


@dataclass
class EstimateResult:
    config: EstimationConfig
    successes: int
    estimate: float
    interval: tuple[float, float]
    components: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def to_dict(self) -> dict:
        return {
            "group": self.config.group,
            "samples": self.config.samples,
            "seed": self.config.seed,
            "workers": self.config.workers,
            "successes": self.successes,
            "estimate": self.estimate,
            "wilson95": list(self.interval),
            "components": self.components,
        }


def _draw_pair(G: Group, rng, tallies: Counter):
    """Draw x, then y, and count the pair under its ``G.read_pair`` key.
    Returns (x, y, orders) for a generating pair, else None."""
    x, y = G.random_element(rng), G.random_element(rng)
    gen, orders = key = G.read_pair(x, y)
    tallies[key] += 1
    return (x, y, orders) if gen else None


def _is_beauville_sample(G: Group, rng, tallies: Counter) -> bool:
    first, second = _draw_pair(G, rng, tallies), _draw_pair(G, rng, tallies)
    return bool(first and second) and not shared_classes(G, first, second)[1]


def _pair_sample(G: Group, rng, tallies: Counter) -> bool:
    _draw_pair(G, rng, tallies)
    return False


def _sample_range(sample, G: Group, seed: int, start: int,
                  stop: int) -> tuple[int, Counter]:
    tallies: Counter = Counter()
    successes = sum(sample(G, _sample_rng(seed, idx), tallies)
                    for idx in range(start, stop))
    return successes, tallies


def _run_samples(sample, G: Group, cfg: EstimationConfig) -> tuple[int, Counter]:
    """Draw sample indices 0..samples-1 on G with ``sample(G, rng, tallies)``,
    which adds its tallies and returns its success, and sum both; with
    several workers the index range is cut into chunks, run on copies of G in
    a pool of at most one process per chunk and per CPU, or here if that is 1."""
    pieces = min(cfg.workers * 8 if cfg.workers > 1 else 1, cfg.samples)
    step = -(-cfg.samples // pieces)
    args = [(sample, G, cfg.seed, lo, min(lo + step, cfg.samples))
            for lo in range(0, cfg.samples, step)]
    size = min(cfg.workers, len(args), os.cpu_count() or 1)
    if size == 1:
        parts = [_sample_range(*a) for a in args]
    else:
        import multiprocessing as mp
        ctx = mp.get_context("fork" if os.name == "posix" else "spawn")
        with ctx.Pool(size) as pool:
            parts = pool.starmap(_sample_range, args)
    tallies: Counter = Counter()
    for _, t in parts:
        tallies.update(t)
    return sum(ok for ok, _ in parts), tallies


def estimate_beauville_probability(G: Group, samples: int,
                                   seed: int = DEFAULT_SEED,
                                   workers: int = 1,
                                   component_stats: bool = True) -> EstimateResult:
    """Monte Carlo estimate of P(G) from `samples` uniform quadruples.

    Deterministic for fixed (group, samples, seed) regardless of workers:
    RNG streams split per sample index and the reduction is order-free.
    """
    cfg = EstimationConfig(G.descriptor(), samples, seed, workers)
    t0 = time.perf_counter()
    successes, tallies = _run_samples(_is_beauville_sample, G, cfg)
    components = _tallies_to_components(G, tallies) if component_stats else {}
    return EstimateResult(
        config=cfg, successes=successes, estimate=successes / samples,
        interval=wilson_interval(successes, samples), components=components,
        elapsed=time.perf_counter() - t0)


def _tallies_to_components(G: Group, tallies: Counter) -> dict:
    """Component fractions, each (generates, orders) key read once and
    weighted by its count; every PSL2 key is emitted, zero counts included."""
    counts: Counter = Counter()
    for (gen, orders), n in tallies.items():
        counts.update(elements=2 * n, pairs=n, generating=gen * n)
        if G.kind != "psl2":
            continue
        types = [G.order_type(o) for o in orders]
        for st in ("split", "nonsplit", "unipotent"):
            counts[st] += types[:2].count(st) * n
        counts["triple_split"] += (set(types) == {"split"}) * n
        counts["triple_nonsplit"] += (set(types) == {"nonsplit"}) * n
        # even order for odd q, order divisible by 3 for even q
        k, key = (2, "even_order") if G.q % 2 else (3, "order_div3")
        counts[key] += sum(o % k == 0 for o in orders[:2]) * n
    out = {}
    elements, pairs = counts["elements"], counts["pairs"]
    for key, denom in (("split", elements), ("nonsplit", elements),
                       ("unipotent", elements), ("even_order", elements),
                       ("order_div3", elements),
                       ("triple_split", pairs), ("triple_nonsplit", pairs),
                       ("generating", pairs)):
        if denom and key in counts:
            num = counts[key]
            lo, hi = wilson_interval(num, denom)
            out[key] = {"fraction": num / denom, "count": num, "of": denom,
                        "wilson95": [lo, hi]}
    return out


def estimate_component_stats(G: Group, samples: int, seed: int = DEFAULT_SEED,
                             workers: int = 1) -> dict:
    """Element- and pair-level component fractions from `samples` uniform
    pairs (each pair also contributes its two elements)."""
    cfg = EstimationConfig(G.descriptor(), samples, seed, workers)
    t0 = time.perf_counter()
    _, tallies = _run_samples(_pair_sample, G, cfg)
    out = _tallies_to_components(G, tallies)
    out["_meta"] = {"group": cfg.group, "samples": samples, "seed": seed,
                    "workers": workers, "elapsed": time.perf_counter() - t0}
    return out


def exact_probability_exhaustive(G: Group, pair_cap: int = PAIR_CAP) -> Fraction:
    """Exact rational P(G) from the pair census: a quadruple is a structure
    when both pairs generate and their Sigma sets are disjoint, so the count
    is the sum of weight products over ordered disjoint pairs of Sigma sets:
    twice the sum over unordered pairs, as a generating pair's Sigma set is
    never empty and so never disjoint from itself."""
    total = sum(w1 * w2 for (s1, w1), (s2, w2)
                in combinations(pair_census(G, pair_cap).weights.items(), 2) if not s1 & s2)
    return Fraction(2 * total, G.order ** 4)
