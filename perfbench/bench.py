"""Running a workload: set-up, timed passes, reference checks.

One workload runs in one process, single-threaded, with ``workers=1``.
Set-up imports the library afresh (its modules are dropped from
``sys.modules`` first, so module state and caches start cold), builds the
workload's groups and makes one small warm-up call per group.  A pass runs
the plan's call list once; each call is timed on its own.  Every pass
follows a set-up of its own, so no pass sees the groups, module-level
caches or anything else an earlier pass left behind.  cold-cli calls
re-import the library before every command (untimed), like a one-shot
process would.

Every timed region (a call or a set-up) is also reported in reference
seconds, scaled by the host's speed while it ran (``timed``).  On a shared
VM the host's speed drifts by a third or more, in bursts of milliseconds to
minutes, for the library and for code that never touches it alike; the
scaled time cancels most of that, while a change to the library still moves
it one for one.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field

from .workloads import Call, Plan, ab_has_structure, cli_expected

PKG = "beauville"

# -- host-speed calibration ------------------------------------------------------
# A fixed calibration routine runs CAL_RUNS times before and after each timed
# region and once every PROBE_S seconds inside it (from a SIGALRM handler, so
# the speed is sampled all through a long call; the probes' own time is taken
# off the region's).  The routine does the kind of work the library does
# (tuple-keyed dicts, modular integer arithmetic, small nested lists) so that
# contention on the host slows it as much as it slows the library.  A region
# that took t seconds while the routine took c on average is reported as
# t * CAL_REF_S / c reference seconds.  CAL_REF_S is a fixed scale, about the
# routine's time on a 2-vCPU KVM guest (Intel Xeon, family 6 model 207) under
# CPython 3.11.
CAL_RUNS = 5
PROBE_S = 0.025
CAL_REF_S = 0.00070


def _calibration_routine() -> int:
    table: dict = {}
    acc = 0
    for i in range(1500):
        key = (i * 7919 % 1009, i % 13)
        table[key] = table.get(key, 0) + 1
        acc = (acc * 31 + len(table)) % 1000003
    rows = [[(a * b + acc) % 101 for b in range(16)] for a in range(16)]
    return acc + rows[3][5]


def _calibrate(times: list[float]) -> None:
    t0 = time.perf_counter()
    _calibration_routine()
    times.append(time.perf_counter() - t0)


def timed(fn):
    """Run ``fn()`` with the host's speed sampled around and inside it;
    return its result, its seconds and its reference seconds."""
    cal: list[float] = []
    for _ in range(CAL_RUNS):
        _calibrate(cal)
    probes: list[float] = []
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: _calibrate(probes))
    signal.setitimer(signal.ITIMER_REAL, PROBE_S, PROBE_S)
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        seconds = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    seconds -= sum(probes)
    for _ in range(CAL_RUNS):
        _calibrate(cal)
    return result, seconds, seconds * CAL_REF_S / statistics.fmean(cal + probes)


def untimed(fn):
    """``timed`` without the clock, for calls inside a set-up."""
    return fn(), 0.0, 0.0


def fresh_import():
    """Import the library as a one-shot process would find it: cold."""
    for name in [n for n in sys.modules if n == PKG or n.startswith(PKG + ".")]:
        del sys.modules[name]
    return importlib.import_module(PKG)


@dataclass(frozen=True)
class Raised:
    """A call that raised instead of returning."""
    kind: str
    message: str


@dataclass
class Outcome:
    call: Call
    seconds: float
    ref_seconds: float         # seconds scaled to the reference host speed
    summary: object            # compared with the reference and across passes
    quad: tuple | None = None  # a found quadruple, re-verified after timing


@dataclass
class PassResult:
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def ref_wall_s(self) -> float:
        return sum(o.ref_seconds for o in self.outcomes)


def summarize(call: Call, result):
    if isinstance(result, Raised):
        return ["raised", result.kind, result.message]
    op = call.op
    if op == "estimate":
        return [result.config.samples, result.successes]
    if op == "search":
        if result.found:
            return [True, None]
        return [False, bool(result.certificate and result.certificate.get("exhaustive"))]
    if op == "exact":
        return str(result)
    if op == "classes":
        return [len(result), sorted(c.size for c in result.classes)]
    if op == "chartable":
        return sorted(result.degrees)
    code, stdout = result
    return [code, hashlib.sha256(stdout.encode()).hexdigest()[:16]]


def expected(call: Call, ref: dict):
    """The reference summary of a call."""
    op, args = call.op, call.args
    if op == "estimate":
        group, _, seed = args
        rec = ref["mc"][group]
        return [rec["samples"], rec["successes"][str(seed)]]
    if op == "search":
        group, strategy, _ = args
        if strategy == "random":
            return [True, None]
        if group.startswith("ab:"):
            found = ab_has_structure(int(group[3:]))
        else:
            found = ref["census"]["found"][group]
        return [True, None] if found else [False, True]
    if op == "exact":
        return ref["census"]["exact"][args[0]]
    if op == "classes":
        return ref["census"]["classes"][args[0]]
    if op == "chartable":
        return ref["census"]["degrees"][args[0]]
    code, digest = cli_expected(call, ref)
    return [code, digest]


class Session:
    """The current library generation and groups of one run."""

    def __init__(self, plan: Plan):
        self.plan = plan
        self.lib = None
        self.groups: dict = {}
        self.tracer = None

    # -- set-up -----------------------------------------------------------------

    def setup(self) -> tuple[float, float]:
        """Fresh import, warm-up and group construction; returns its seconds
        and reference seconds (see ``timed``).

        Earlier generations of the library are collected first, untimed, so
        each set-up starts from the same heap.  The tracer, if any, is
        installed afterwards by the caller, so set-up is never traced.
        """
        self.groups = {}
        gc.collect()
        _, seconds, ref_seconds = timed(self._setup)
        return seconds, ref_seconds

    def _setup(self):
        self._import()
        parse = self.lib.parse_group
        # the warm-up gets group objects of its own, so nothing it leaves on
        # a group reaches the pass
        self.groups = {c.args[0]: parse(c.args[0]) for c in self.plan.warmup if c.op != "cli"}
        for call in self.plan.warmup:
            self._run_call(call, untimed)
        self.groups = {d: parse(d) for d in self.plan.groups}

    def _import(self):
        self.lib = fresh_import()
        if self.plan.workload == "cold-cli":
            importlib.import_module(PKG + ".cli")

    # -- calls ------------------------------------------------------------------

    def _library_call(self, call: Call):
        lib = self.lib
        G = self.groups[call.args[0]]
        if call.op == "estimate":
            _, n, seed = call.args
            return lib.estimate_beauville_probability(G, n, seed=seed, workers=1)
        if call.op == "search":
            _, strategy, seed = call.args
            return lib.search_structure(G, strategy, seed=seed)
        if call.op == "exact":
            return lib.exact_probability_exhaustive(G)
        if call.op == "classes":
            return lib.conjugacy_classes(G)
        if call.op == "chartable":
            return lib.character_table(G)
        raise ValueError(f"unknown call kind {call.op!r}")

    def _spoil_cache(self, run, descriptor: str) -> str:
        """Write ``{bad`` where the CLI keeps the character table of
        ``descriptor``; the path is the one ``chartable --save`` reports."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(["chartable", "--group", descriptor, "--save", "--no-timing",
                        "--format", "json"])
        if code != 0:
            raise RuntimeError(f"chartable --save on {descriptor} exited {code}")
        path = json.loads(out.getvalue())["result"]["saved"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{bad")
        return path

    def cli_call(self, call: Call, timer=timed):
        """One one-shot command: fresh import and garbage collection
        (untimed, as a new process would start), then cli.run.  A cache
        file is spoiled from an import of its own, which is then dropped."""
        spoiled = None
        if call.corrupt_cache:
            self._import()
            spoiled = self._spoil_cache(sys.modules[PKG + ".cli"].run, call.corrupt_cache)
        self._import()
        if self.tracer is not None:
            self.tracer.install(PKG)
        run = sys.modules[PKG + ".cli"].run
        gc.collect()
        out, err = io.StringIO(), io.StringIO()

        def one_shot():
            try:
                return run(list(call.args))
            except SystemExit as exc:
                return exc.code
            except Exception as exc:  # a traceback in a one-shot run
                return Raised(type(exc).__name__, str(exc))

        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code, seconds, ref_seconds = timer(one_shot)
        finally:
            if spoiled and os.path.exists(spoiled):
                os.remove(spoiled)
        result = code if isinstance(code, Raised) else (code, out.getvalue())
        return result, seconds, ref_seconds

    def _run_call(self, call: Call, timer=timed):
        """(result, seconds, reference seconds) of one call, as ``timer``
        gives them."""
        if call.op == "cli":
            return self.cli_call(call, timer)

        def library_call():
            try:
                return self._library_call(call)
            except Exception as exc:  # recorded as a failed call
                return Raised(type(exc).__name__, str(exc))

        return timer(library_call)

    def run_pass(self) -> PassResult:
        """Run the call list once; call after ``setup``."""
        res = PassResult()
        for i, call in enumerate(self.plan.calls):
            if self.tracer is not None:
                self.tracer.current_call = i
            result, seconds, ref_seconds = self._run_call(call)
            quad = None
            if call.op == "search" and not isinstance(result, Raised) and result.found:
                quad = tuple(result.quadruple)
            res.outcomes.append(Outcome(call, seconds, ref_seconds,
                                        summarize(call, result), quad))
        return res

    def traced_pass(self, tracer) -> PassResult:
        """``run_pass`` with ``tracer`` installed; call after ``setup``.
        cold-cli installs it on each command's fresh import instead."""
        self.tracer = tracer
        if self.plan.workload != "cold-cli":
            tracer.install(PKG)
        try:
            return self.run_pass()
        finally:
            tracer.uninstall()
            self.tracer = None

    # -- checks -------------------------------------------------------------------

    def verify_quads(self, passes: list[PassResult]) -> set[str]:
        """Labels of calls whose returned quadruple fails verify_quadruple.

        Passes repeat one call list, so each distinct (call, quadruple) is
        verified once; a pass that returned another quadruple than the
        first is caught by the cross-pass comparison.
        """
        bad = set()
        seen = set()
        for p in passes:
            for o in p.outcomes:
                if o.quad is None or (o.call.label, o.quad) in seen:
                    continue
                seen.add((o.call.label, o.quad))
                G = self.lib.parse_group(o.call.args[0])
                if not self.lib.verify_quadruple(G, *o.quad).ok:
                    bad.add(o.call.label)
        return bad


def check(passes: list[PassResult], ref: dict, bad_quads: set[str]) -> dict:
    """Compare every outcome with the reference and with the first pass.

    Returns attempted / failed counts over calls with a settled reference,
    the known-defect calls separately, and the labels that failed.
    """
    first = {o.call.label: (o.summary, o.quad) for o in passes[0].outcomes}
    attempted = failed = defect_attempted = defect_failed = 0
    failed_labels: list[str] = []
    defects: dict[str, bool] = {}
    for p in passes:
        for o in p.outcomes:
            want = expected(o.call, ref)
            got = o.summary
            if o.call.op == "cli" and want[1] is None and got[0] != "raised":
                got = [got[0], None]  # stdout is not part of a usage-error contract
            ok = (got == want and (o.summary, o.quad) == first[o.call.label]
                  and o.call.label not in bad_quads)
            if o.call.known_defect:
                defect_attempted += 1
                defect_failed += not ok
                defects[o.call.known_defect] = defects.get(o.call.known_defect, True) and ok
                continue
            attempted += 1
            if not ok:
                failed += 1
                if o.call.label not in failed_labels:
                    failed_labels.append(o.call.label)
    return {"attempted": attempted, "failed": failed, "failed_labels": failed_labels,
            "defect_attempted": defect_attempted, "defect_failed": defect_failed,
            "defects": defects}
