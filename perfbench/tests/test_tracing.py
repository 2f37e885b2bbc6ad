"""The benchmark's own tests: tracing neither misses nor alters calls.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
They use the quick call lists (one call of each kind per workload).
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import bench, layers  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, build_plan  # noqa: E402

REF = json.loads((ROOT / "perfbench" / "reference.json").read_text())
SEED = 5


@pytest.fixture(autouse=True)
def _cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("BEAUVILLE_CACHE_DIR", str(tmp_path))


def _traced_pass(workload: str):
    session = bench.Session(build_plan(workload, SEED, REF, quick=True))
    session.setup()
    tracer = Tracer()
    return session, tracer, session.traced_pass(tracer)


def _summaries(result):
    return [(o.call.label, o.summary, o.quad) for o in result.outcomes]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced quick pass per workload, shared by the tests below."""
    saved = os.environ.get("BEAUVILLE_CACHE_DIR")
    out = {}
    try:
        for w in WORKLOADS:
            cache = str(tmp_path_factory.mktemp(w))
            os.environ["BEAUVILLE_CACHE_DIR"] = cache
            out[w] = _traced_pass(w)
    finally:
        if saved is None:
            os.environ.pop("BEAUVILLE_CACHE_DIR", None)
        else:
            os.environ["BEAUVILLE_CACHE_DIR"] = saved
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_results_identical(workload, traced):
    session = bench.Session(build_plan(workload, SEED, REF, quick=True))
    session.setup()
    plain = session.run_pass()
    assert _summaries(plain) == _summaries(traced[workload][2])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_traced_runs_count_identically(workload, traced):
    _, again, _ = _traced_pass(workload)
    first = traced[workload][1]
    assert {k: v[0] for k, v in first.counts.items() if v[0]} == \
        {k: v[0] for k, v in again.counts.items() if v[0]}
    assert first.tallies == again.tallies and first.sums == again.sums


def test_every_layer_metric_source_is_nonzero_where_it_should_move(traced):
    no_micro = dict.fromkeys((n for n, u in layers.METRICS if u == "us"), 0.0)
    for metric, (workload, _) in layers.TARGETS.items():
        values = layers.layer_metrics(traced[workload][1], (0.0, 0.0), no_micro, 0.0)
        assert values[metric] > 0, f"{metric} reads zero on {workload}"


def test_tracer_wraps_names_bound_by_value_in_other_modules():
    lib = bench.fresh_import()
    import beauville.probability as probability
    import beauville.structures as structures
    original = structures.sigma_prime_fingerprints
    tracer = Tracer()
    tracer.install(bench.PKG)
    try:
        assert probability.sigma_prime_fingerprints is structures.sigma_prime_fingerprints
        assert lib.sigma_prime_fingerprints is structures.sigma_prime_fingerprints
        assert structures.sigma_prime_fingerprints is not original
        G = lib.parse_group("psl2:11")
        lib.estimate_beauville_probability(G, 20, seed=3)
        assert tracer.count("structures.sigma_prime_fingerprints") > 0
        assert tracer.count("fields.GF.mul") > 0
    finally:
        tracer.uninstall()
    assert structures.sigma_prime_fingerprints is original
    assert probability.sigma_prime_fingerprints is original


def test_call_labels_are_unique_and_referenced():
    for workload in WORKLOADS:
        for seed in range(20):
            calls = build_plan(workload, seed, REF).calls
            assert len({c.label for c in calls}) == len(calls)
            for c in calls:
                bench.expected(c, REF)  # raises KeyError if no reference exists


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in layers.METRICS]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in layers.METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
