"""Seeded per-operation timings (microseconds per call).

Each operation runs once on each element (or pair, or quadruple) of a
fixed, seeded random set of one group.  The calls are timed in chunks of
consecutive inputs, and the result is the median over chunks of the time
per call.  No input is repeated, so a cache inside the library is hit only
as often as distinct random inputs share a key.  The same routine gives
the per-layer ``*_us`` metrics (on a workload's own groups) and the
per-call table of the ROADMAP baseline.
"""
from __future__ import annotations

import random
import statistics
import time

TABLE_GROUPS = ("psl2:101", "psl2:2^7", "psl2:3^5", "alt:8", "alt:12", "ab:25")
TABLE_OPS = ("multiply", "order_of", "fingerprint", "generates", "sigma_prime", "verify")
CHEAP_INPUTS, CHEAP_CHUNK = 2000, 20   # element operations, around a microsecond


def _per_call_us(fn, inputs, chunk: int) -> float:
    clock = time.perf_counter
    per_call = []
    for i in range(0, len(inputs) - chunk + 1, chunk):
        part = inputs[i:i + chunk]
        t0 = clock()
        for item in part:
            fn(*item)
        per_call.append((clock() - t0) / chunk)
    return statistics.median(per_call) * 1e6


def _elements(G, rng, n):
    return [G.random_element(rng) for _ in range(n)]


def op_inputs(lib, G, op: str, seed: int):
    """(callable, argument tuples, chunk size) for one operation on G.

    Predicate-level operations run on 25 inputs (5 on alt:10 and larger,
    where one call takes milliseconds), one call per chunk.
    """
    rng = random.Random(f"{G.descriptor()}:{op}:{seed}")
    n = CHEAP_INPUTS
    if op == "field_mul":
        F = G.field
        return F.mul, [(F.random(rng) or 1, F.random(rng) or 1) for _ in range(n)], CHEAP_CHUNK
    if op == "multiply":
        xs = _elements(G, rng, 2 * n)
        return G.multiply, list(zip(xs[::2], xs[1::2])), CHEAP_CHUNK
    if op == "order_of":
        return G.order_of, [(g,) for g in _elements(G, rng, n)], CHEAP_CHUNK
    if op == "fingerprint":
        return G.fingerprint, [(g,) for g in _elements(G, rng, n)], CHEAP_CHUNK
    k = 5 if G.kind == "alternating" and G.n >= 10 else 25
    if op == "generates":
        xs = _elements(G, rng, 2 * k)
        return G.generates, list(zip(xs[::2], xs[1::2])), 1
    if op == "sigma_prime":
        xs = _elements(G, rng, 2 * k)
        return (lambda x, y: lib.sigma_prime_fingerprints(G, x, y)), list(zip(xs[::2], xs[1::2])), 1
    if op == "verify":
        xs = _elements(G, rng, 4 * k)
        quads = [tuple(xs[i:i + 4]) for i in range(0, len(xs), 4)]
        return (lambda *q: lib.verify_quadruple(G, *q)), quads, 1
    raise ValueError(f"unknown operation {op!r}")


def per_call_us(lib, G, op: str, seed: int) -> float:
    return _per_call_us(*op_inputs(lib, G, op, seed))


def table(lib, seed: int) -> dict[str, dict[str, float]]:
    """The ROADMAP per-call table: group -> operation -> us/op."""
    return {g: {op: per_call_us(lib, lib.parse_group(g), op, seed) for op in TABLE_OPS}
            for g in TABLE_GROUPS}


def format_table(rows: dict[str, dict[str, float]]) -> str:
    head = "| group | " + " | ".join(TABLE_OPS) + " |"
    rule = "|---|" + "---:|" * len(TABLE_OPS)
    lines = [head, rule]
    for g, ops in rows.items():
        lines.append(f"| {g} | " + " | ".join(f"{ops[o]:.1f}" for o in TABLE_OPS) + " |")
    return "\n".join(lines)
