#!/usr/bin/env python3
"""Benchmark of the beauville library: four workloads, one process each.

Run from the root of a checkout (it imports the library from ``src/``):

    python3 perfbench/run.py --workload mc-psl2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30     # every workload, both runs
    python3 perfbench/run.py --table --seed 1                # ROADMAP per-call table

Every pass follows a set-up of its own.  ``--trace 0`` measures the
end-to-end metrics untraced, in reference seconds: each timed region's
seconds scaled by the host's speed, sampled around and inside it
(``bench.timed``).  ``--trace 1`` runs untraced passes for half
of ``--seconds``, then one traced pass, and reports the per-layer metrics.
``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.  Every
call is checked against ``reference.json``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Known defects of the library (listed in
``workloads.KNOWN_DEFECTS``) are run and reported by name, but count in
neither ``attempted`` nor ``failed``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 21

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("call_p50_ms", "ms"),
              ("call_tail_ms", "ms"), ("peak_rss_mb", "MB"))


def machine_info() -> dict:
    import numpy
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_passes(session, seconds: float, setups: list, reserve: int = 0) -> list:
    """Set up, then run the call list, while another round and ``reserve``
    more set-ups still fit in ``seconds``; each set-up's (seconds, reference
    seconds) is appended to ``setups``."""
    t0 = time.perf_counter()
    passes = []
    while True:
        setups.append(session.setup())
        passes.append(session.run_pass())
        elapsed = time.perf_counter() - t0
        extra = max(reserve - len(setups), 0) * statistics.median(s for s, _ in setups)
        if elapsed + elapsed / len(passes) + extra > seconds:
            return passes


def _latency(passes, attr: str = "ref_seconds") -> dict:
    """Per-call latency: each call's median time over passes, then their
    sum (the time of one pass), p50 and the highest percentile with at
    least ten calls beyond it (the slowest call when a pass has fewer than
    eleven).  ``attr`` picks reference seconds (the metrics) or seconds."""
    per_call: dict[str, list[float]] = {}
    for p in passes:
        for o in p.outcomes:
            per_call.setdefault(o.call.label, []).append(getattr(o, attr))
    lat = sorted(statistics.median(v) for v in per_call.values())
    n = len(lat)
    k = n - 10 if n > 10 else n
    return {"wall": sum(lat), "p50": statistics.median(lat), "tail": lat[k - 1],
            "tail_pct": 100.0 * k / n, "calls": n}


def _report(workload: str, seed: int, chk: dict, ref: dict) -> None:
    from perfbench.workloads import KNOWN_DEFECTS
    m = machine_info()
    print(f"workload {workload}  seed {seed}  nproc {m['nproc']}  python {m['python']}"
          f"  numpy {m['numpy']}  commit {m['commit']}")
    print(f"reference recorded at commit {ref['recorded']['commit']}")
    total = chk["attempted"] + chk["defect_attempted"]
    bad = chk["failed"] + chk["defect_failed"]
    print(f"failed_share = {bad / total:.6f} share  ({bad} of {total} calls; "
          f"{chk['defect_failed']} of them known defects)")
    for key, ok in sorted(chk["defects"].items()):
        state = "now meets its contract" if ok else "FAILS"
        print(f"  known defect {key}: {state} -- ROADMAP: {KNOWN_DEFECTS[key][0]}")
    for label in chk["failed_labels"]:
        print(f"  FAILED {label}")


def _result_line(correct: bool, chk: dict, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": chk["attempted"], "failed": chk["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}})


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench import bench, layers
    from perfbench.tracer import Tracer
    from perfbench.workloads import build_plan

    ref = json.loads((HERE / "reference.json").read_text())
    plan = build_plan(workload, seed, ref)
    OUT.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=OUT)
    os.environ["BEAUVILLE_CACHE_DIR"] = cache_dir
    try:
        session = bench.Session(plan)
        setups: list[tuple[float, float]] = []
        if not trace:
            passes = _timed_passes(session, seconds, setups, SETUPS)
            while len(setups) < SETUPS:
                setups.append(session.setup())
            rss = _peak_rss_mb()
            chk = bench.check(passes, ref, session.verify_quads(passes))
            lat = _latency(passes)
            metrics = {"setup_s": statistics.median(r for _, r in setups),
                       "wall_s": lat["wall"],
                       "call_p50_ms": lat["p50"] * 1e3, "call_tail_ms": lat["tail"] * 1e3,
                       "peak_rss_mb": rss}
            _report(workload, seed, chk, ref)
            raw = _latency(passes, "seconds")
            print(f"passes {len(passes)}; call_tail_ms is p{lat['tail_pct']:.1f} of "
                  f"{lat['calls']} calls (each call's median over passes); times in "
                  f"reference seconds, unscaled seconds in brackets")
            unscaled = {"setup_s": statistics.median(s for s, _ in setups),
                        "wall_s": raw["wall"], "call_p50_ms": raw["p50"] * 1e3,
                        "call_tail_ms": raw["tail"] * 1e3}
            for name, unit in END_TO_END:
                extra = f"  [{unscaled[name]:.6g} {unit}]" if name in unscaled else ""
                print(f"{name} = {metrics[name]:.6g} {unit}{extra}")
            correct = chk["failed"] == 0
            print(_result_line(correct, chk, metrics, dict(END_TO_END)))
            return 0

        untraced = _timed_passes(session, seconds / 2, setups)
        tracer = Tracer()
        session.setup()
        traced = session.traced_pass(tracer)
        same = ([(o.summary, o.quad) for o in traced.outcomes]
                == [(o.summary, o.quad) for o in untraced[0].outcomes])
        passes = untraced + [traced]
        chk = bench.check(passes, ref, session.verify_quads(passes))
        overhead = traced.ref_wall_s / statistics.median(p.ref_wall_s for p in untraced) - 1
        metrics = layers.layer_metrics(
            tracer, layers.sigma_repeat_shares(tracer.sigma_inputs),
            layers.micro_us(session.lib, plan.micro_groups, seed), overhead)
        spans = OUT / f"spans-{workload}-seed{seed}.tsv"
        tracer.write_spans(str(spans))
        _report(workload, seed, chk, ref)
        print(f"traced pass identical to untraced: {same}; "
              f"{len(tracer.span_start)} spans written to {spans.relative_to(ROOT)}")
        for name, unit in layers.METRICS:
            print(f"{name} = {metrics[name]:.6g} {unit}")
        correct = chk["failed"] == 0 and same
        print(_result_line(correct, chk, metrics, dict(layers.METRICS)))
        return 0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process, untraced then traced."""
    from perfbench.workloads import WORKLOADS
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            print()
            if proc.returncode != 0 or not json.loads(proc.stdout.splitlines()[-1])["correct"]:
                status = 1
    return status


def run_table(seed: int) -> int:
    from perfbench import bench, micro
    lib = bench.fresh_import()
    rows = micro.table(lib, seed)
    m = machine_info()
    print(f"us/op, median over seeded random elements (seed {seed}); "
          f"nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, commit {m['commit']}")
    print(micro.format_table(rows))
    print(json.dumps(rows))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    p.add_argument("--table", action="store_true", help="print the ROADMAP per-call table")
    args = p.parse_args(argv)
    if not (SRC / "beauville" / "__init__.py").is_file():
        print(f"error: the library source {SRC / 'beauville'} is missing; "
              "run from the root of a beauville checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import numpy  # noqa: F401  a dependency: loaded before any set-up is timed
    if args.table:
        return run_table(args.seed)
    if args.all:
        return run_all(args.seed, args.seconds)
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
