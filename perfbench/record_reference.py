#!/usr/bin/env python3
"""Record ``reference.json``: the results every benchmark call is checked against.

Run once, from the root of a checkout of the commit whose results are the
reference (it takes a few minutes on two cores):

    python3 perfbench/record_reference.py

It records the Monte Carlo success count of every pooled (group, seed,
samples), the random-search seed pools, the census verdicts, exact
probabilities, class sizes and character degrees, the quadruples the
cold-cli verify commands use, and the exit code and stdout digest of every
cold-cli command.  Zn x Zn verdicts are not recorded: the benchmark checks
them against gcd(n, 6) = 1.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import bench, workloads as W  # noqa: E402
from perfbench.run import machine_info  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import Call  # noqa: E402


def _work(fn) -> int:
    """Number of wrapped library calls one call makes (a machine-free cost)."""
    tracer = Tracer()
    tracer.install(bench.PKG)
    try:
        fn()
    finally:
        tracer.uninstall()
    return sum(cell[0] for cell in tracer.counts.values())


def record() -> dict:
    lib = bench.fresh_import()
    ref: dict = {"recorded": machine_info()}

    ref["mc"] = {}
    for g, n in W.MC_SAMPLES.items():
        G = lib.parse_group(g)
        successes, work = {}, {}
        for s in W.mc_pool(g, W.MC_POOL[g]):
            successes[str(s)] = lib.estimate_beauville_probability(G, n, seed=s).successes
            work[str(s)] = _work(lambda: lib.estimate_beauville_probability(G, n, seed=s))
        ref["mc"][g] = {"samples": n, "successes": successes, "work": work}
        print("mc", g, flush=True)

    ref["search_pools"] = {}
    for g, (lo, hi) in W.SEARCH_BAND.items():
        G = lib.parse_group(g)
        seeds = []
        for s in range(W.SEARCH_SCAN[g]):
            out = lib.search_structure(G, "random", seed=s)
            assert lib.verify_quadruple(G, *out.quadruple).ok
            if lo <= out.stats["attempts"] <= hi:
                seeds.append(s)
        ref["search_pools"][g] = {"band": [lo, hi], "scanned": W.SEARCH_SCAN[g], "seeds": seeds}
        print("search pool", g, len(seeds), flush=True)

    census = ref["census"] = {"found": {}, "exact": {}, "classes": {}, "degrees": {}}
    for g in W.CENSUS_SEARCH:
        census["found"][g] = lib.search_structure(lib.parse_group(g), "exhaustive").found
    for g in W.CENSUS_EXACT:
        census["exact"][g] = str(lib.exact_probability_exhaustive(lib.parse_group(g)))
    for g in W.CENSUS_TABLES:
        G = lib.parse_group(g)
        cp = lib.conjugacy_classes(G)
        census["classes"][g] = [len(cp), sorted(c.size for c in cp.classes)]
        census["degrees"][g] = sorted(lib.character_table(G).degrees)
    print("census", flush=True)

    quads = ref["cli_quads"] = {}
    alt_seed = ref["search_pools"]["alt:7"]["seeds"][0]
    for g in W.CLI_SEARCH_GROUPS + ("alt:7", "ab:7"):
        G = lib.parse_group(g)
        seed = alt_seed if g == "alt:7" else lib.DEFAULT_SEED
        out = lib.search_structure(G, "auto", seed=seed)
        quads[g] = ";".join(G.format_element(m) for m in out.quadruple)

    argvs: dict[str, list[str]] = {}
    est0 = W.mc_pool("psl2:101")[0]
    for alt in ref["search_pools"]["alt:7"]["seeds"]:
        argvs.update((" ".join(a), a) for a in W.cold_cli_argvs(ref, alt, est0))
    for est in W.mc_pool("psl2:101"):
        argvs.update((" ".join(a), a) for a in W.cold_cli_argvs(ref, alt_seed, est))
    (HERE / "out").mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="record-", dir=HERE / "out")
    os.environ["BEAUVILLE_CACHE_DIR"] = cache_dir
    try:
        plan = W.Plan("cold-cli", (), (), (), ())
        session = bench.Session(plan)
        outcomes = ref["cli_outcomes"] = {}
        for key, argv in sorted(argvs.items()):
            call = Call("record", "cli", tuple(argv))
            summary = bench.summarize(call, session.cli_call(call, bench.untimed)[0])
            assert summary[0] != "raised", (key, summary)
            outcomes[key] = summary
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    print("cli", len(argvs), flush=True)
    return ref


def main() -> int:
    ref = record()
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
