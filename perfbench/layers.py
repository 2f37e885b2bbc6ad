"""Per-layer metrics of one traced pass.

Counts are exact call counts of wrapped names.  ``*_self_s`` is the summed
span time of a name minus the time its child spans cover; count-only
operations called inside a span are part of that span's self time.
``*_ms`` of a name is its inclusive span time.  ``*_us`` comes from
``micro.per_call_us`` on the workload's own groups (mean over the groups
the operation applies to, 0 when it applies to none).
"""
from __future__ import annotations

from .micro import per_call_us

CLASSIFY_KINDS = ("structural", "dihedral", "a4", "s4", "a5", "subfield", "full")
FIELD_OPS = ("add", "neg", "sub", "mul", "inv", "div", "pow", "frobenius", "is_square",
             "sqrt", "absolute_trace", "solve_quadratic", "subfield_degree", "in_subfield")
ABELIAN_OPS = ("identity", "multiply", "inverse", "order_of", "generates", "fingerprint")
PERM_GENERATES = ("perms.AlternatingGroup.generates", "perms.SymmetricGroup.generates")

# (name, unit) in BENCHMARK.json order
METRICS = (
    [("fields.mul_calls", "count"), ("fields.op_calls", "count"),
     ("fields.mul_us", "us"), ("fields.setup_ms", "ms"),
     ("groups.parse_group_ms", "ms"), ("groups.abelian_op_calls", "count"),
     ("groups.power_calls", "count"), ("numutil.prime_factors_calls", "count"),
     ("psl2.multiply_calls", "count"), ("psl2.multiply_us", "us"),
     ("psl2.order_of_calls", "count"), ("psl2.order_of_us", "us"),
     ("psl2.fingerprint_calls", "count"), ("psl2.fingerprint_us", "us"),
     ("psl2.classify_pair_calls", "count"), ("psl2.classify_pair_self_s", "s")]
    + [(f"psl2.classify_pair.{k}_share", "share") for k in CLASSIFY_KINDS]
    + [("psl2.traces_by_order_ms", "ms"), ("psl2.solve_trace_triple_calls", "count"),
       ("psl2.solve_trace_triple_self_s", "s"),
       ("perms.generates_calls", "count"), ("perms.generates_self_s", "s"),
       ("perms.generates_us", "us"), ("perms.generates_true_share", "share"),
       ("perms.perm_mul_calls", "count"),
       ("structures.sigma_calls", "count"), ("structures.sigma_self_s", "s"),
       ("structures.sigma_us", "us"), ("structures.sigma_class_repeat_share", "share"),
       ("structures.sigma_call_repeat_share", "share"),
       ("structures.verify_calls", "count"), ("structures.verify_self_s", "s"),
       ("structures.verify_fastpath_share", "share"),
       ("structures.search_calls", "count"), ("structures.search_self_s", "s"),
       ("structures.exhaustive_pairs", "count"),
       ("structures.exhaustive_generating_share", "share"),
       ("structures.distinct_sigma_sets", "count"),
       ("counting.classes_self_s", "s"), ("counting.chartable_self_s", "s"),
       ("probability.exact_self_s", "s"), ("probability.samples", "count"),
       ("probability.self_s", "s"), ("cli.run_calls", "count"), ("cli.run_self_s", "s"),
       ("trace.overhead_share", "share")]
)

# metric -> (workload, end-to-end metric) it should move.  The benchmark's
# tests require each of these to read nonzero on that workload's traced pass.
TARGETS = {
    "fields.mul_calls": ("mc-psl2", "wall_s"), "fields.op_calls": ("mc-psl2", "wall_s"),
    "fields.setup_ms": ("cold-cli", "call_p50_ms"),
    "groups.parse_group_ms": ("cold-cli", "call_p50_ms"),
    "groups.abelian_op_calls": ("census", "wall_s"), "groups.power_calls": ("census", "wall_s"),
    "numutil.prime_factors_calls": ("census", "wall_s"),
    "psl2.multiply_calls": ("mc-psl2", "wall_s"), "psl2.order_of_calls": ("mc-psl2", "wall_s"),
    "psl2.fingerprint_calls": ("mc-psl2", "wall_s"),
    "psl2.classify_pair_calls": ("mc-psl2", "wall_s"),
    "psl2.classify_pair_self_s": ("mc-psl2", "wall_s"),
    "psl2.traces_by_order_ms": ("cold-cli", "call_tail_ms"),
    "psl2.solve_trace_triple_calls": ("cold-cli", "call_tail_ms"),
    "perms.generates_calls": ("mc-alt", "wall_s"), "perms.generates_self_s": ("mc-alt", "wall_s"),
    "perms.perm_mul_calls": ("mc-alt", "wall_s"),
    "structures.sigma_calls": ("mc-psl2", "wall_s"),
    "structures.sigma_self_s": ("census", "wall_s"),
    "structures.verify_calls": ("cold-cli", "call_p50_ms"),
    "structures.search_calls": ("census", "wall_s"),
    "structures.exhaustive_pairs": ("census", "wall_s"),
    "structures.distinct_sigma_sets": ("census", "wall_s"),
    "counting.classes_self_s": ("census", "wall_s"),
    "counting.chartable_self_s": ("census", "wall_s"),
    "probability.exact_self_s": ("census", "wall_s"),
    "probability.samples": ("mc-psl2", "wall_s"), "probability.self_s": ("mc-alt", "wall_s"),
    "cli.run_calls": ("cold-cli", "call_p50_ms"), "cli.run_self_s": ("cold-cli", "call_p50_ms"),
}


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def sigma_repeat_shares(sigma_inputs) -> tuple[float, float]:
    """Shares of Sigma input elements x, y, z = (xy)^-1 whose conjugacy
    fingerprint was already seen (per group) earlier in the pass, and
    earlier in the same top-level call.  The second is the hit rate of a
    memo kept on the group object, which lives for one call at most.
    Call with tracing off: it multiplies and fingerprints outside the count."""
    in_pass, in_call = set(), set()
    pass_hits = call_hits = total = 0
    for call, G, x, y in sigma_inputs:
        d = G.descriptor()
        for g in (x, y, G.inverse(G.multiply(x, y))):
            key = (d, G.fingerprint(g))
            total += 1
            pass_hits += key in in_pass
            call_hits += (call, key) in in_call
            in_pass.add(key)
            in_call.add((call, key))
    return _share(pass_hits, total), _share(call_hits, total)


def micro_us(lib, group_names, seed: int) -> dict[str, float]:
    """The ``*_us`` metrics: mean over the applicable groups."""
    groups = [lib.parse_group(d) for d in group_names]
    psl2 = [G for G in groups if G.kind == "psl2"]
    perm = [G for G in groups if G.kind in ("alternating", "symmetric")]

    def mean(gs, op):
        vals = [per_call_us(lib, G, op, seed) for G in gs]
        return sum(vals) / len(vals) if vals else 0.0

    return {
        "fields.mul_us": mean(psl2, "field_mul"),
        "psl2.multiply_us": mean(psl2, "multiply"),
        "psl2.order_of_us": mean(psl2, "order_of"),
        "psl2.fingerprint_us": mean(psl2, "fingerprint"),
        "perms.generates_us": mean(perm, "generates"),
        "structures.sigma_us": mean(groups, "sigma_prime"),
    }


def layer_metrics(tr, repeat_shares: tuple[float, float], micro: dict[str, float],
                  overhead_share: float) -> dict[str, float]:
    spans = tr.span_totals()
    c = tr.count

    def calls(*names):
        return sum(c(n) for n in names)

    def self_s(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    def incl_ms(name):
        return spans.get(name, (0, 0.0, 0.0))[1] * 1e3

    kinds = tr.tallies.get("psl2.classify_pair.kind", {})
    n_classify = c("psl2.PSL2.classify_pair")
    gen = tr.tallies.get("perms.generates.result", {})
    fast = tr.tallies.get("structures.verify.fastpath", {})
    pairs = tr.sums.get("structures.exhaustive.pairs", 0)
    out = {
        "fields.mul_calls": c("fields.GF.mul"),
        "fields.op_calls": calls(*(f"fields.GF.{op}" for op in FIELD_OPS)),
        "fields.setup_ms": incl_ms("fields.GF.__init__"),
        "groups.parse_group_ms": incl_ms("groups.parse_group"),
        "groups.abelian_op_calls": calls(*(f"groups.AbelianSquare.{op}" for op in ABELIAN_OPS)),
        "groups.power_calls": c("groups.Group.power"),
        "numutil.prime_factors_calls": c("numutil.prime_factors"),
        "psl2.multiply_calls": c("psl2.PSL2.multiply"),
        "psl2.order_of_calls": c("psl2.PSL2.order_of"),
        "psl2.fingerprint_calls": c("psl2.PSL2.fingerprint"),
        "psl2.classify_pair_calls": n_classify,
        "psl2.classify_pair_self_s": self_s("psl2.PSL2.classify_pair"),
        "psl2.traces_by_order_ms": incl_ms("psl2.PSL2.traces_by_order"),
        "psl2.solve_trace_triple_calls": c("psl2.PSL2.solve_trace_triple"),
        "psl2.solve_trace_triple_self_s": self_s("psl2.PSL2.solve_trace_triple"),
        "perms.generates_calls": calls(*PERM_GENERATES),
        "perms.generates_self_s": self_s(*PERM_GENERATES),
        "perms.generates_true_share": _share(gen.get(True, 0), sum(gen.values())),
        "perms.perm_mul_calls": c("perms.perm_mul"),
        "structures.sigma_calls": c("structures.sigma_prime_fingerprints"),
        "structures.sigma_self_s": self_s("structures.sigma_prime_fingerprints"),
        "structures.sigma_class_repeat_share": repeat_shares[0],
        "structures.sigma_call_repeat_share": repeat_shares[1],
        "structures.verify_calls": c("structures.verify_quadruple"),
        "structures.verify_self_s": self_s("structures.verify_quadruple"),
        "structures.verify_fastpath_share": _share(fast.get(True, 0), sum(fast.values())),
        "structures.search_calls": c("structures.search_structure"),
        "structures.search_self_s": self_s("structures.search_structure"),
        "structures.exhaustive_pairs": pairs,
        "structures.exhaustive_generating_share":
            _share(tr.sums.get("structures.exhaustive.generating", 0), pairs),
        "structures.distinct_sigma_sets": tr.sums.get("structures.exhaustive.sigma_sets", 0),
        "counting.classes_self_s": self_s("counting.conjugacy_classes",
                                          "counting.ClassPartition.__init__"),
        "counting.chartable_self_s": self_s("counting.character_table"),
        "probability.exact_self_s": self_s("probability.exact_probability_exhaustive"),
        "probability.samples": tr.sums.get("probability.samples", 0),
        "probability.self_s": self_s("probability.estimate_beauville_probability",
                                     "probability.estimate_component_stats"),
        "cli.run_calls": c("cli.run"),
        "cli.run_self_s": self_s("cli.run"),
        "trace.overhead_share": overhead_share,
    }
    for k in CLASSIFY_KINDS:
        out[f"psl2.classify_pair.{k}_share"] = _share(kinds.get(k, 0), n_classify)
    out.update(micro)
    return {name: out[name] for name, _ in METRICS}
