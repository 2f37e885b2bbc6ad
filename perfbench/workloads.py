"""The four workloads: how each turns a workload seed into a call list.

A call list is what one timed pass runs.  The library only ever receives
the generated inputs (group descriptors, library seeds, sample counts and
CLI argument vectors); the workload seed itself never reaches it.

Library seeds are drawn from fixed pools whose outcomes were recorded once,
at the commit named in ``reference.json`` (see ``record_reference.py``), so
every call has a reference result whatever workload seed is chosen.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("mc-psl2", "mc-alt", "census", "cold-cli")

# -- Monte Carlo pools ---------------------------------------------------------
# One call estimates P(G) from MC_SAMPLES[group] samples with a library seed
# from the group's pool of MC_POOL[group] recorded seeds.
#
# estimate_beauville_probability re-parses its group in every call, so
# anything the library memoizes on the group lives for one call only.  The
# psl2 calls are therefore large (about 1-2 s each): within one call their
# Sigma inputs repeat their conjugacy class about as often as in one
# N = 20,000 estimate (ROADMAP acceptance criterion 7), which a small call
# would understate.  The alt calls stay small (about 50 ms): Sigma is a few
# per cent of their time, so call size does not change what they measure.
#
# The cost of a call varies between seeds, so a pass does not draw its
# seeds freely: the pool is sorted by the work each seed did when it was
# recorded (its count of wrapped library calls) and cut into one stratum
# per call, and the workload seed picks one seed in each stratum.  The
# calls of a pass then spread over the same range of costs whatever the
# workload seed, which keeps wall time and latency percentiles steady.
POOL = 128
MC_SAMPLES = {
    "psl2:101": 2000, "psl2:2^7": 600, "psl2:3^5": 500,
    "alt:8": 16, "alt:10": 6, "alt:12": 2,
}
MC_POOL = {"psl2:101": 16, "psl2:2^7": 16, "psl2:3^5": 16,
           "alt:8": POOL, "alt:10": POOL, "alt:12": POOL}
MC_CALLS = {"mc-psl2": 1, "mc-alt": 10}  # calls per group in one pass


def mc_pool(group: str, size: int = POOL) -> list[int]:
    """The first ``size`` of a group's fixed list of distinct library seeds."""
    rng = random.Random(f"mc-pool:{group}")
    return rng.sample(range(1, 1 << 30), POOL)[:size]


def stratified(rng: random.Random, work: dict[str, int], k: int) -> list[int]:
    """One seed from each of k strata that together cover the pool sorted
    by work."""
    ranked = sorted(work, key=lambda s: (work[s], int(s)))
    n = len(ranked)
    return [int(rng.choice(ranked[i * n // k:(i + 1) * n // k])) for i in range(k)]


# -- random-search pools ---------------------------------------------------------
# Random search cost grows with the number of attempts, which varies by a
# factor of 100 between library seeds.  The pools keep the seeds among
# SEARCH_SCAN whose recorded attempt count lies in a narrow band around the
# median, so the work of a pass does not depend on the workload seed.
SEARCH_BAND = {"alt:7": (12, 19), "alt:8": (12, 17), "alt:10": (5, 8), "alt:12": (3, 5)}
SEARCH_SCAN = {"alt:7": 96, "alt:8": 96, "alt:10": 96, "alt:12": 64}
SEARCH_CALLS = {"alt:8": 4, "alt:10": 3, "alt:12": 3}

# -- census ------------------------------------------------------------------------
CENSUS_AB = tuple(range(2, 14))           # found iff gcd(n, 6) == 1
CENSUS_SEARCH = ("alt:5", "alt:6", "psl2:11")
CENSUS_EXACT = ("ab:5", "ab:11", "psl2:2^3")
CENSUS_TABLES = ("psl2:3^3", "alt:6")


def ab_has_structure(n: int) -> bool:
    """Zn x Zn has an unmixed Beauville structure iff gcd(n, 6) = 1."""
    return math.gcd(n, 6) == 1


# -- cold CLI ------------------------------------------------------------------------
CLI_TAIL = ["--no-timing", "--format", "json"]
CLI_ESTIMATE_SAMPLES = 40
CLI_SEARCH_GROUPS = ("psl2:10007", "psl2:2^11", "psl2:2^13", "psl2:3^7")
# Inputs whose outcome the ROADMAP fixes but the recorded commit gets wrong:
# key -> (contract, argv, descriptor whose cache file is spoiled first)
KNOWN_DEFECTS = {
    "estimate-samples-0": (
        "estimate --samples 0 must exit 2, not raise",
        ["estimate", "--group", "psl2:101", "--samples", "0"], None),
    "estimate-workers-0": (
        "estimate --workers 0 must exit 2, not raise",
        ["estimate", "--group", "psl2:101", "--samples", "10", "--workers", "0"], None),
    "zeta-corrupt-cache": (
        "a corrupt cache entry must be recomputed, giving the clean-cache output",
        ["zeta", "--group", "psl2:7", "--s", "2"], "psl2:7"),
}


@dataclass(frozen=True)
class Call:
    """One top-level public call of a pass.

    op is 'estimate', 'search', 'exact', 'classes', 'chartable' or 'cli';
    args are the generated inputs; label is unique within a plan and is
    the key of the call's reference result.
    """
    label: str
    op: str
    args: tuple
    corrupt_cache: str | None = None   # descriptor whose cache file is spoiled first
    known_defect: str | None = None    # KNOWN_DEFECTS key, if the recorded commit breaks it


@dataclass(frozen=True)
class Plan:
    workload: str
    groups: tuple[str, ...]       # built during set-up
    warmup: tuple[Call, ...]
    calls: tuple[Call, ...]
    micro_groups: tuple[str, ...]


def _estimate(group: str, seed: int) -> Call:
    n = MC_SAMPLES[group]
    return Call(f"estimate {group} n={n} seed={seed}", "estimate", (group, n, seed))


def _search(group: str, strategy: str, seed: int = 0) -> Call:
    return Call(f"search {group} {strategy} seed={seed}", "search", (group, strategy, seed))


def _cli(argv: list[str], corrupt_cache: str | None = None,
         known_defect: str | None = None) -> Call:
    label = "cli " + " ".join(argv) + (" (corrupt cache)" if corrupt_cache else "")
    return Call(label, "cli", tuple(argv), corrupt_cache, known_defect)


def build_plan(workload: str, seed: int, ref: dict, quick: bool = False) -> Plan:
    """The call list of one workload for one workload seed.

    quick=True keeps one call of each kind (used by the benchmark's own
    tests); the benchmark itself always runs the full list.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("mc-psl2", "mc-alt"):
        groups = (("psl2:101", "psl2:2^7", "psl2:3^5") if workload == "mc-psl2"
                  else ("alt:8", "alt:10", "alt:12"))
        k = 1 if quick else MC_CALLS[workload]
        calls = [_estimate(g, s) for g in groups
                 for s in stratified(rng, ref["mc"][g]["work"], k)]
        if workload == "mc-alt":
            for g in groups:
                pool = ref["search_pools"][g]["seeds"]
                k = 1 if quick else SEARCH_CALLS[g]
                calls += [_search(g, "random", s) for s in rng.sample(pool, k)]
        rng.shuffle(calls)
        warmup = tuple(Call(f"warmup {g}", "estimate", (g, 1, 0)) for g in groups)
        return Plan(workload, groups, warmup, tuple(calls), groups)
    if workload == "census":
        ab, searched, exact, tables = CENSUS_AB, CENSUS_SEARCH, CENSUS_EXACT, CENSUS_TABLES
        if quick:
            ab, searched, exact, tables = (5, 6), searched[:1], exact[:1], tables[1:]
        calls = [_search(f"ab:{n}", "exhaustive") for n in ab]
        calls += [_search(g, "exhaustive") for g in searched]
        calls += [Call(f"exact {g}", "exact", (g,)) for g in exact]
        for g in tables:
            calls += [Call(f"classes {g}", "classes", (g,)),
                      Call(f"chartable {g}", "chartable", (g,))]
        rng.shuffle(calls)
        groups = tuple(dict.fromkeys(c.args[0] for c in calls))
        warmup = (_search("ab:5", "exhaustive"),)
        micro = ("ab:13", "alt:6", "psl2:11", "psl2:3^3")
        return Plan(workload, groups, warmup, tuple(calls), micro)
    if workload == "cold-cli":
        calls = cold_cli_calls(rng, ref, quick)
        warmup = (_cli(["hurwitz", "--p", "7", "--e", "1"] + CLI_TAIL),)
        micro = CLI_SEARCH_GROUPS + ("alt:7", "ab:7")
        return Plan(workload, (), warmup, tuple(calls), micro)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def cold_cli_argvs(ref: dict, alt_seed: int, est_seed: int) -> list[list[str]]:
    """The one-shot commands of cold-cli; only two of them take a seed."""
    quads = ref["cli_quads"]
    big = CLI_SEARCH_GROUPS
    argvs = [["search", "--group", g] for g in big + ("psl2:1009",)]
    argvs += [
        ["search", "--group", "alt:7", "--seed", str(alt_seed)],
        ["search", "--group", "ab:7"],
        ["search", "--group", "ab:6", "--strategy", "exhaustive"],
        ["triple", "--group", "psl2:10007", "--r", "3", "--s", "4", "--t", "6"],
        ["triple", "--group", "psl2:2^11", "--r", "2", "--s", "3", "--t", "23"],
        ["triple", "--group", "psl2:3^7", "--r", "2", "--s", "3", "--t", "547"],
        ["triple", "--group", "psl2:2^13", "--r", "3", "--s", "5", "--t", "17"],
        ["triple", "--group", "psl2:2^13", "--traces", "1,3,5"],
        ["triple", "--group", "psl2:10007", "--traces", "3,5,7"],
        ["triple", "--group", "psl2:2^11", "--traces", "1,3,5"],
        ["triple", "--group", "psl2:3^7", "--traces", "1,2,4"],
    ]
    for g in big:
        argvs.append(["verify", "--group", g, "--quad", quads[g]])
        argvs.append(["verify", "--group", g, "--quad", quads[g], "--no-fastpath"])
        x, y = quads[g].split(";")[:2]
        argvs.append(["classify", "--group", g, "--pair", f"{x};{y}"])
    argvs += [
        ["verify", "--group", "alt:7", "--quad", quads["alt:7"]],
        ["verify", "--group", "ab:7", "--quad", quads["ab:7"]],
        ["verify", "--group", "ab:7", "--quad", "(1,0);(1,0);(0,1);(1,1)"],
        ["classify", "--group", "psl2:3^7", "--pair", "[[1,1],[0,1]];[[1,0],[1,1]]"],
        ["hurwitz", "--p", "7", "--e", "1"],
        ["hurwitz", "--p", "5", "--e", "1"],
        ["hurwitz", "--p", "3", "--e", "3"],
        ["hurwitz", "--p", "10007", "--e", "1"],
        ["classes", "--group", "psl2:2^5"],
        ["classes", "--group", "alt:7"],
        ["classes", "--group", "ab:9"],
        ["zeta", "--group", "psl2:11", "--s", "2"],
        ["zeta", "--group", "alt:6", "--s", "1.5"],
        ["zeta", "--group", "psl2:7", "--s", "2"],
        ["zeta", "--group", "psl2:17", "--s", "2"],
        ["estimate", "--group", "psl2:101", "--samples", str(CLI_ESTIMATE_SAMPLES),
         "--seed", str(est_seed)],
        # malformed inputs with a settled contract (exit 2, or 3 for caps)
        ["classes", "--group", "nope:5"],
        ["classes", "--group", "psl2:6"],
        ["verify", "--group", "ab:5", "--quad", "(1,0);(0,1);junk;(1,1)"],
        ["verify", "--group", "ab:5"],
        ["classes", "--group", "alt:9", "--cap-enumeration", "1000"],
        ["search", "--group", "psl2:101", "--type1", "2,3,4", "--type2", "7,7,7"],
    ]
    return [a + CLI_TAIL for a in argvs]


def cold_cli_calls(rng: random.Random, ref: dict, quick: bool = False) -> list[Call]:
    alt_seed = rng.choice(ref["search_pools"]["alt:7"]["seeds"])
    est_seed = rng.choice(mc_pool("psl2:101"))
    argvs = cold_cli_argvs(ref, alt_seed, est_seed)
    if quick:
        first: dict[str, list[str]] = {}
        for a in argvs:
            first.setdefault(a[0], a)
        argvs = list(first.values())
    calls = [_cli(a) for a in argvs]
    calls += [_cli(argv + CLI_TAIL, corrupt_cache=spoil, known_defect=key)
              for key, (_, argv, spoil) in KNOWN_DEFECTS.items()]
    rng.shuffle(calls)
    return calls


def cli_expected(call: Call, ref: dict):
    """(exit code, stdout digest) the contract requires of a CLI call."""
    if call.known_defect in ("estimate-samples-0", "estimate-workers-0"):
        return [2, None]  # usage error: exit 2, stdout not compared
    # a corrupt cache entry must give the same output as the clean-cache run
    return ref["cli_outcomes"][" ".join(call.args)]
