"""Command-line front end.

One subcommand per operation.  ``COMMANDS`` is the one registry: it maps
each command to its handler, help and options, and a run builds the parser
of its own command alone.  Every run echoes its fully resolved
configuration; all randomness flows from --seed (a fixed published
default, never entropy), so identical invocations give identical output.
--no-timing strips elapsed fields for byte-identical reruns.

Exit codes: 0 success with a positive verdict; 1 verified-false, not
found, nonexistence or not-Hurwitz; 2 usage or malformed input; 3 cap or
tolerance exceeded.

Quadruples and pairs are ';'-separated element encodings (matrix, cycle
or pair syntax per the group).  Character tables persist under
$BEAUVILLE_CACHE_DIR (default ~/.cache/beauville); --out appends one JSON
record per run (JSONL).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time

from .counting import (TABLE_CAP, CharacterTable, TableInvalid, character_table,
                       frobenius_count_brute, frobenius_count_character, witten_zeta)
from .fields import FieldError
from .groups import ENUMERATION_CAP, CapExceeded, Group, GroupError, parse_group
from .probability import estimate_beauville_probability, estimate_component_stats
from .structures import (DEFAULT_SEED, PAIR_CAP, SearchInconclusive,
                         Unrealizable, classify_triangle,
                         find_generating_triple, is_hurwitz_psl2,
                         search_structure, verify_quadruple)


def cache_dir() -> str:
    return os.environ.get(
        "BEAUVILLE_CACHE_DIR",
        os.path.join(os.path.expanduser("~"), ".cache", "beauville"))


TABLE_FORMAT = 1  # bump when the CharacterTable JSON layout changes


def _table_path(descriptor: str) -> str:
    """Cache file of a group's table; the format version in the name makes a
    file written in another layout a plain miss."""
    name = descriptor.replace(":", "_").replace("^", "e")
    return os.path.join(cache_dir(), f"{name}.v{TABLE_FORMAT}.json")


def _load_or_compute_table(G: Group, cap: int, save: bool = True):
    """(table, cache file holding it or None) for G.  A missing, unreadable
    or invalid file, or one holding another group's table, is a miss (warned
    of unless missing), recomputed and, with ``save``, replaced atomically;
    a cache that cannot be written is skipped with a warning."""
    path = _table_path(G.descriptor())
    try:
        with open(path, encoding="utf-8") as fh:
            table = CharacterTable.from_json(fh.read())
        if (table.group, table.group_order) != (G.descriptor(), G.order):
            raise ValueError(
                f"it holds the table of {table.group} (order "
                f"{table.group_order}), not of {G.descriptor()} (order {G.order})")
        table.validate()
        return table, path
    except FileNotFoundError:
        pass
    except (OSError, ValueError, KeyError, TypeError, TableInvalid) as exc:
        print(f"warning: recomputing the character table, cache file {path} "
              f"is unusable: {type(exc).__name__}: {exc}", file=sys.stderr)
    table = character_table(G, cap=cap)
    if not save:
        return table, None
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(cache_dir(), exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(table.to_json())
        os.replace(tmp, path)
    except OSError as exc:
        print(f"warning: the character table is not saved, cache file {path} "
              f"is unwritable: {type(exc).__name__}: {exc}", file=sys.stderr)
        return table, None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return table, path


def _int_at_least(low: int):
    """An argparse type: an integer >= low; anything else is a usage error."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0 and math.isfinite(value)):  # JSON has no nan or inf
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return value


def _split_elements(G: Group, text: str, expected: int):
    parts = [p for p in text.split(";") if p.strip()]
    if len(parts) != expected:
        raise GroupError(
            f"expected {expected} ';'-separated elements, got {len(parts)}")
    return [G.parse_element(p) for p in parts]


def _parse_type(text: str) -> tuple[int, int, int]:
    try:
        r, s, t = (int(v) for v in text.replace("(", "").replace(")", "").split(","))
    except ValueError as exc:
        raise GroupError(f"malformed type {text!r}; expected r,s,t") from exc
    return (r, s, t)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_verify(args, G):
    quad = _split_elements(G, args.quad, 4)
    report = verify_quadruple(G, *quad, use_fastpath=not args.no_fastpath)
    return report.to_dict(G), 0 if report.ok else 1


def _cmd_search(args, G):
    targets = None
    if args.type1 or args.type2:
        if not (args.type1 and args.type2):
            raise GroupError("--type1 and --type2 must be given together")
        targets = (_parse_type(args.type1), _parse_type(args.type2))
    try:
        out = search_structure(G, strategy=args.strategy, target_types=targets,
                               seed=args.seed, max_attempts=args.attempts,
                               pair_cap=args.cap_pairs)
    except SearchInconclusive as exc:
        return {"found": False, "inconclusive": True, "detail": str(exc)}, 1
    return out.to_dict(G), 0 if out.found else 1


def _cmd_triple(args, G):
    if args.traces is not None:
        return _solve_traces(G, args.traces)
    if None in (args.r, args.s, args.t):
        raise GroupError("give --r/--s/--t, or --traces for a psl2 group")
    try:
        tri = find_generating_triple(G, args.r, args.s, args.t,
                                     seed=args.seed, max_attempts=args.attempts)
    except Unrealizable as exc:
        return {"found": False, "unrealizable": True, "detail": str(exc)}, 1
    except SearchInconclusive as exc:
        return {"found": False, "inconclusive": True, "detail": str(exc)}, 1
    return {"found": True,
            "x": G.format_element(tri.x), "y": G.format_element(tri.y),
            "z": G.format_element(tri.z), "orders": list(tri.orders)}, 0


def _solve_traces(G, text):
    if G.kind != "psl2":
        raise GroupError("--traces applies to psl2 groups")
    parts = text.split(",")
    if len(parts) != 3:
        raise GroupError(f"expected three comma-separated traces, got {text!r}")
    a, b, g = (G.field.parse(p) for p in parts)
    A, B, C = G.solve_trace_triple(a, b, g)
    cls = G.classify_pair(G._canon(A), G._canon(B))
    fmt = G.format_element
    return {"found": True, "singular": cls.kind == "structural",
            "traces": [G.field.format(v) for v in (a, b, g)],
            "A": fmt(A), "B": fmt(B), "C": fmt(C), "orders": list(cls.orders),
            "pair_class": str(cls)}, 0


def _cmd_classify(args, G):
    if G.kind != "psl2":
        raise GroupError("classify applies to psl2 groups")
    x, y = _split_elements(G, args.pair, 2)
    cls = G.classify_pair(x, y)
    return {"class": cls.kind,
            "subfield_degree": cls.subfield_degree,
            "subfield_kind": cls.subfield_kind,
            "generates": cls.kind == "full"}, 0


def _cmd_estimate(args, G):
    res = estimate_beauville_probability(
        G, args.samples, seed=args.seed, workers=args.workers,
        component_stats=not args.no_components)
    return res.to_dict(), 0


def _cmd_stats(args, G):
    comps = estimate_component_stats(G, args.samples, seed=args.seed,
                                     workers=args.workers)
    meta = comps.pop("_meta")
    return {"group": meta["group"], "samples": meta["samples"],
            "seed": meta["seed"], "components": comps,
            "elapsed": meta["elapsed"]}, 0


def _cmd_classes(args, G):
    partition = G.classes(args.cap_enumeration)
    return {"group": G.descriptor(), "count": len(partition),
            "classes": [
                {"index": c.index, "fingerprint": c.label(), "size": c.size,
                 "order": c.element_order,
                 "representative": G.format_element(c.representative)}
                for c in partition.classes]}, 0


def _cmd_frobenius(args, G):
    partition = G.classes(args.cap_enumeration)
    k = len(partition)
    for idx in (args.i, args.j, args.k):
        if not 0 <= idx < k:
            raise GroupError(f"class index {idx} out of range 0..{k - 1}")
    if args.method == "brute":
        count = frobenius_count_brute(partition, args.i, args.j, args.k)
    else:
        table, _ = _load_or_compute_table(G, args.cap_table)
        count = frobenius_count_character(table, args.i, args.j, args.k)
    return {"group": G.descriptor(), "method": args.method, "count": count,
            "classes": [partition.classes[i].label()
                        for i in (args.i, args.j, args.k)]}, 0


def _cmd_chartable(args, G):
    table, saved = (_load_or_compute_table(G, args.cap_table) if args.save
                    else (character_table(G, cap=args.cap_table), None))
    return {"group": G.descriptor(), "degrees": table.degrees,
            "classes": len(table.class_labels),
            "tolerance": table.tolerance,
            "saved": saved}, 0


def _cmd_zeta(args, G):
    table, _ = _load_or_compute_table(G, args.cap_table, save=False)
    value = witten_zeta(table.degrees, args.s)
    return {"group": G.descriptor(), "s": args.s, "zeta": value,
            "degrees": table.degrees}, 0


def _cmd_hurwitz(args, G):
    ok = is_hurwitz_psl2(args.p, args.e)
    return {"p": args.p, "e": args.e, "hurwitz": ok}, 0 if ok else 1


def _cmd_triangle(args, G):
    tri = classify_triangle(args.r, args.s, args.t)
    return tri.to_dict(), 0


_COMMON = (
    ("--format", dict(choices=("json", "text", "tsv"), default="text")),
    ("--out", dict(help="append the JSON record to this JSONL file")),
    ("--no-timing", dict(action="store_true",
                         help="omit elapsed-time fields (byte-identical reruns)")),
)
_GROUP = _COMMON + (("--group", dict(required=True)),)  # the commands that act on a group
_SEED = ("--seed", dict(type=int, default=DEFAULT_SEED))
_SAMPLING = _GROUP + (
    ("--samples", dict(type=_int_at_least(1), required=True)),
    _SEED,
    ("--workers", dict(type=_int_at_least(1), default=1)),
)
_REQUIRED_INT = dict(type=int, required=True)
_ORDER = dict(type=_int_at_least(2))
_CAP_TABLE = ("--cap-table", dict(type=_int_at_least(0), default=TABLE_CAP))
_CAP_ENUMERATION = ("--cap-enumeration", dict(type=_int_at_least(0), default=ENUMERATION_CAP))

# name -> (handler, help, options as (flag, add_argument kwargs) in help order)
COMMANDS = {
    "verify": (_cmd_verify, "check the three conditions for a quadruple", _GROUP + (
        ("--quad", dict(required=True, help="x1;y1;x2;y2")),
        ("--no-fastpath", dict(action="store_true",
                               help="always compute Sigma sets, skip the coprime shortcut")),
    )),
    "search": (_cmd_search, "find a structure or certify nonexistence", _GROUP + (
        ("--strategy", dict(default="auto",
                            choices=("auto", "exhaustive", "macbeath", "random"))),
        ("--type1", dict(help="target type r,s,t for the first triple")),
        ("--type2", dict(help="target type r,s,t for the second triple")),
        _SEED,
        ("--attempts", dict(type=_int_at_least(1), default=200_000)),
        ("--cap-pairs", dict(type=_int_at_least(0), default=PAIR_CAP)),
    )),
    "triple": (_cmd_triple, "find a generating triple of exact orders, or "
                            "solve a psl2 trace triple directly", _GROUP + (
        ("--r", _ORDER), ("--s", _ORDER), ("--t", _ORDER),
        ("--traces", dict(help="psl2 only: comma-separated traces a,b,g; returns "
                               "matrices with those traces and product one")),
        _SEED,
        ("--attempts", dict(type=_int_at_least(1), default=20_000)),
    )),
    "classify": (_cmd_classify, "Dickson class of the subgroup generated by a pair", _GROUP + (
        ("--pair", dict(required=True, help="x;y")),
    )),
    "estimate": (_cmd_estimate, "Monte Carlo estimate of the Beauville probability",
                 _SAMPLING + (("--no-components", dict(action="store_true")),)),
    "stats": (_cmd_stats, "split/non-split/generation component fractions", _SAMPLING),
    "classes": (_cmd_classes, "list the conjugacy classes", _GROUP + (_CAP_ENUMERATION,)),
    "frobenius": (_cmd_frobenius, "count solutions of x*y*z = 1 in three classes", _GROUP + (
        ("--i", dict(type=int, required=True, help="index of class X")),
        ("--j", dict(type=int, required=True, help="index of class Y")),
        ("--k", dict(type=int, required=True, help="index of class Z")),
        ("--method", dict(choices=("brute", "character"), default="brute")),
        _CAP_ENUMERATION, _CAP_TABLE,
    )),
    "chartable": (_cmd_chartable, "compute (and optionally persist) a character table", _GROUP + (
        ("--save", dict(action="store_true", help="persist under $BEAUVILLE_CACHE_DIR")),
        _CAP_TABLE,
    )),
    "zeta": (_cmd_zeta, "Witten zeta: sum of degree**(-s) over Irr(G)", _GROUP + (
        ("--s", dict(type=_positive_float, required=True)),
        _CAP_TABLE,
    )),
    "hurwitz": (_cmd_hurwitz, "is PSL2(p^e) a (2,3,7) triangle-group quotient?",
                _COMMON + (("--p", _REQUIRED_INT), ("--e", _REQUIRED_INT))),
    "triangle": (_cmd_triangle, "spherical/euclidean/hyperbolic type classification",
                 _COMMON + (("--r", _REQUIRED_INT), ("--s", _REQUIRED_INT),
                            ("--t", _REQUIRED_INT))),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone.  Both parse that
    command's argv alike, and the one-command parser's usage line, which an
    unrecognized argument prints, still names every command."""
    top = argparse.ArgumentParser(
        prog="beauville",
        description="Unmixed Beauville structures in PSL2(q), alternating "
                    "and Zn x Zn groups: verify, search, count, estimate.")
    sub = top.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(COMMANDS) + "}")
    for name in COMMANDS if command is None else (command,):
        _, help_text, options = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return top


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items()
                if k not in ("elapsed", "elapsed_s")}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def _config_echo(args) -> dict:
    skip = {"command", "format", "out", "no_timing"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _render_text(envelope: dict) -> str:
    lines = [f"command: {envelope['command']}"]
    for key, val in envelope["config"].items():
        lines.append(f"  {key} = {val}")
    lines.append("result:")
    lines.extend(_render_kv(envelope["result"], indent=2))
    if "timing" in envelope:
        lines.append(f"elapsed: {envelope['timing']['elapsed_s']:.3f}s")
    return "\n".join(lines)


def _render_kv(obj, indent=0):
    pad = " " * indent
    out = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                out.append(f"{pad}{k}:")
                out.extend(_render_kv(v, indent + 2))
            else:
                out.append(f"{pad}{k} = {v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                out.extend(_render_kv(v, indent))
            else:
                out.append(f"{pad}- {v}")
    return out


def _is_flat(v):
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


def _render_tsv(envelope: dict) -> str:
    res = envelope["result"]
    cmd = envelope["command"]
    if cmd == "estimate":
        fields = [res["group"], res["samples"], res["seed"], res["successes"],
                  f"{res['estimate']:.6f}",
                  f"{res['wilson95'][0]:.6f}", f"{res['wilson95'][1]:.6f}"]
        return "\t".join(str(f) for f in fields)
    if cmd == "stats":
        parts = [res["group"], str(res["samples"])]
        for key, comp in res["components"].items():
            parts.append(f"{key}={comp['fraction']:.6f}")
        return "\t".join(parts)
    if cmd == "zeta":
        return "\t".join([res["group"], str(res["s"]), f"{res['zeta']:.10f}"])
    # generic: flatten scalar result fields
    return "\t".join(f"{k}={v}" for k, v in res.items()
                     if not isinstance(v, (dict, list)))


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:  # an --out that cannot be appended to is a usage error, before any work
        log = open(args.out, "a", encoding="utf-8") if args.out else contextlib.nullcontext()
    except OSError as exc:
        print(f"error: cannot append to --out {args.out}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    with log:
        return _run(args, log)


def _run(args, log) -> int:
    t0 = time.perf_counter()
    try:
        G = parse_group(args.group) if hasattr(args, "group") else None
        result, code = COMMANDS[args.command][0](args, G)
    except (CapExceeded, TableInvalid) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GroupError, FieldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    envelope = {
        "command": args.command,
        "config": _config_echo(args),
        "result": result,
    }
    if args.no_timing:
        envelope = _strip_timing(envelope)
    else:
        envelope["timing"] = {"elapsed_s": time.perf_counter() - t0}
    if args.format == "json":
        text = json.dumps(envelope, indent=1, sort_keys=True)
    elif args.format == "tsv":
        text = _render_tsv(envelope)
    else:
        text = _render_text(envelope)
    try:  # a reader that closes stdout early (| head) ends no run in a traceback
        print(text, flush=True)
    except BrokenPipeError:  # fd 1 to devnull, so the interpreter's final flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if args.out:
        log.write(json.dumps(envelope, sort_keys=True) + "\n")
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
