"""Call counting and span recording around the library's public names.

The tracer wraps, from outside the library, every public function of each
layer module and every public method of the classes those modules define.
A function imported by value into another module (for example
``probability.sigma_prime_fingerprints``, bound from ``structures``) is
replaced in every module of the package that holds it, so no call path can
bypass the wrapper.

Most wrappers only count.  The names in ``SPANNED`` also record a span
(name, start, end, parent span) in flat arrays, so the traced run's memory
grows with the number of layer-boundary calls, not with element operations.
Hot element operations (field arithmetic, matrix and permutation products)
are always count-only.  ``HOOKS`` read facts from a call's arguments or
return value after the call has finished; they never call into the library.

The tracer changes no argument and no result: a traced and an untraced run
of one input list return identical results (checked by the benchmark's own
tests and on every traced run).
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

LAYERS = ("fields", "groups", "psl2", "perms", "numutil", "structures",
          "counting", "probability", "cli")

# Layer-boundary calls that get a span; everything else is counted only.
SPANNED = frozenset({
    "fields.GF.__init__",
    "groups.parse_group",
    "psl2.PSL2.classify_pair",
    "psl2.PSL2.solve_trace_triple",
    "psl2.PSL2.traces_by_order",
    "perms.AlternatingGroup.generates",
    "perms.SymmetricGroup.generates",
    "structures.sigma_prime_fingerprints",
    "structures.verify_quadruple",
    "structures.search_structure",
    "structures.find_generating_triple",
    "counting.conjugacy_classes",
    "counting.ClassPartition.__init__",
    "counting.character_table",
    "probability.estimate_beauville_probability",
    "probability.estimate_component_stats",
    "probability.exact_probability_exhaustive",
    "cli.run",
})

# Constructors worth counting; other dunder methods are left alone.
_DUNDERS = ("__init__",)


def _hook_classify(tr, args, kwargs, result):
    tr.tally("psl2.classify_pair.kind", result.kind)


def _hook_perm_generates(tr, args, kwargs, result):
    tr.tally("perms.generates.result", bool(result))


def _hook_sigma(tr, args, kwargs, result):
    # (top-level call, G, x, y); fingerprints are taken after the run,
    # with tracing off
    tr.sigma_inputs.append((tr.current_call, *args[:3]))


def _hook_verify(tr, args, kwargs, result):
    tr.tally("structures.verify.fastpath", bool(result.coprime_fastpath))


def _hook_search(tr, args, kwargs, result):
    stats = result.stats
    if stats.get("strategy") != "exhaustive":
        return
    source = result.certificate if result.certificate is not None else stats
    tr.add("structures.exhaustive.pairs", source["pairs_checked"])
    tr.add("structures.exhaustive.generating", source["generating_pairs"])
    tr.add("structures.exhaustive.sigma_sets", source["distinct_sigma_sets"])


def _hook_estimate(tr, args, kwargs, result):
    tr.add("probability.samples", result.config.samples)


def _hook_components(tr, args, kwargs, result):
    tr.add("probability.samples", result["_meta"]["samples"])


HOOKS = {
    "psl2.PSL2.classify_pair": _hook_classify,
    "perms.AlternatingGroup.generates": _hook_perm_generates,
    "perms.SymmetricGroup.generates": _hook_perm_generates,
    "structures.sigma_prime_fingerprints": _hook_sigma,
    "structures.verify_quadruple": _hook_verify,
    "structures.search_structure": _hook_search,
    "probability.estimate_beauville_probability": _hook_estimate,
    "probability.estimate_component_stats": _hook_components,
}


def _package_modules(package: str):
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


class Tracer:
    """Counts, spans and tallies for one traced pass (single thread)."""

    def __init__(self):
        self.counts: dict[str, list[int]] = {}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.tallies: dict[str, dict] = {}
        self.sums: dict[str, int] = {}
        self.sigma_inputs: list[tuple] = []
        self.current_call = 0  # index of the top-level call being run
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _cell(self, key: str) -> list[int]:
        return self.counts.setdefault(key, [0])

    def count(self, key: str) -> int:
        cell = self.counts.get(key)
        return cell[0] if cell else 0

    def tally(self, key: str, value) -> None:
        t = self.tallies.setdefault(key, {})
        t[value] = t.get(value, 0) + 1

    def add(self, key: str, amount: int) -> None:
        self.sums[key] = self.sums.get(key, 0) + amount

    def _counted(self, fn, key):
        cell = self._cell(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, fn, key):
        cell = self._cell(key)
        nid = self._name_ids.setdefault(key, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(key)
        hook = HOOKS.get(key)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return wrapper

    def _wrap(self, fn, key):
        if key in SPANNED:
            return self._spanned(fn, key)
        return self._counted(fn, key)

    # -- installation -----------------------------------------------------------

    def install(self, package: str = "beauville") -> None:
        """Wrap the public names of every layer module of ``package``.

        Call once per fresh import of the package; patches from several
        imports accumulate and are all undone by ``uninstall``.
        """
        modules = _package_modules(package)
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{package}.{layer}")
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._install_class(layer, obj)
                elif callable(obj):
                    replace[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def _install_class(self, layer: str, cls) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, key))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, key))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, key)
            else:
                continue  # properties, class constants
            self._patches.append((cls, name, raw))
            setattr(cls, name, new)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- reading --------------------------------------------------------------

    def span_totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (spans, inclusive seconds, self seconds).

        Self time is a span's duration minus the time its child spans
        cover; children of one parent never overlap (single thread).
        """
        n = len(self.span_start)
        child = [0.0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, list] = {}
        for i in range(n):
            row = out.setdefault(self.names[self.span_name[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def write_spans(self, path: str) -> None:
        """One line per span: id, parent id, name, start and end (s)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}"
                         f"\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n")
