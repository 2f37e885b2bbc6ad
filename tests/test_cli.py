import hashlib
import itertools
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

from beauville import cli
from beauville.cli import run
from beauville.counting import ClassPartition, TableInvalid
from beauville.groups import closure, parse_group

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from _oracles import random_subfield_sl2, random_twisted_pgl, trace_identity

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "src", "beauville",
                           "schemas", "cli_output.schema.json")


def _run(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, argv):
    code, out = _run(capsys, argv + ["--format", "json", "--no-timing"])
    return code, json.loads(out) if out.strip() else None


def _schema():
    with open(SCHEMA_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- exit codes -------------------------------------------------------------------

def test_hurwitz_exit_codes(capsys):
    code, doc = _run_json(capsys, ["hurwitz", "--p", "7", "--e", "1"])
    assert code == 0 and doc["result"]["hurwitz"] is True
    code, doc = _run_json(capsys, ["hurwitz", "--p", "5", "--e", "1"])
    assert code == 1 and doc["result"]["hurwitz"] is False


@pytest.mark.parametrize("e", [1, 3])
def test_hurwitz_refuses_a_composite_that_passes_bases_2_to_37(capsys, e):
    # psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to 2..37
    code = run(["hurwitz", "--p", "318665857834031151167461", "--e", str(e)])
    assert code == 2 and "is not prime" in capsys.readouterr().err


def test_hurwitz_refuses_a_p_whose_primality_cannot_be_certified(capsys):
    # 2**61 - 1 is prime and 2**61 = 2**(3*20 + 1) = 2 mod 7, so p = 1 mod 7
    code, doc = _run_json(capsys, ["hurwitz", "--p", str(2**61 - 1), "--e", "1"])
    assert code == 0 and doc["result"]["hurwitz"] is True
    code = run(["hurwitz", "--p", "3317044064679887385961981", "--e", "1"])
    assert code == 2 and "cannot be certified prime" in capsys.readouterr().err


@pytest.mark.parametrize("group", ["alt:6", "sym:6"])
def test_triple_with_an_order_beyond_every_cycle_length_is_unrealizable(capsys, group):
    code, doc = _run_json(capsys, ["triple", "--group", group, "--r", "2", "--s", "3",
                                   "--t", "100000000000"])
    assert code == 1 and doc["result"]["unrealizable"] is True


def test_typed_random_search_refuses_an_absent_psl2_order_at_once(capsys):
    # the order check is closed form: no torus of the 10^6-element field is walked
    code, doc = _run_json(capsys, ["search", "--group", "psl2:1000003", "--strategy",
                                   "random", "--type1", "2,3,7", "--type2", "3,3,4"])
    assert code == 1 and not doc["result"]["found"]
    assert doc["result"]["certificate"] == {"unrealizable": (
        "order 4 not realizable in psl2:1000003: orders are 1, p = 1000003, "
        "divisors of 500001 and of 500002")}


def test_abelian_triple_of_a_type_other_than_n_n_n_is_unrealizable_at_once(capsys):
    # a generating pair of Zn x Zn is a basis, so only (n,n,n) occurs; no
    # sweep over the 9,000,000 elements of ab:3000 is made
    code, doc = _run_json(capsys, ["triple", "--group", "ab:3000", "--r", "3", "--s", "3",
                                   "--t", "3"])
    assert code == 1 and doc["result"]["unrealizable"] is True


@pytest.mark.parametrize("group", ["psl2:2^100000000000", f"psl2:{2**64 + 13}",
                                   "psl2:3^39", "psl2:1000^2"])
def test_oversized_field_exits_2(capsys, group):
    code = run(["classes", "--group", group])
    assert code == 2 and capsys.readouterr().err.startswith("error: bad psl2 field")


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify"])  # missing required args
    assert exc.value.code == 2


def test_unknown_group_kind_exit_2(capsys):
    code = run(["classes", "--group", "nope:5"])
    err = capsys.readouterr().err
    assert code == 2 and "unknown group kind" in err


def test_malformed_element_exit_2(capsys):
    code = run(["verify", "--group", "ab:5", "--quad", "(1,0);(0,1);junk;(1,1)"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


COUNT_COMMANDS = {
    "estimate": ["estimate", "--group", "ab:5", "--samples", "10"],
    "stats": ["stats", "--group", "ab:5", "--samples", "10"],
    "search": ["search", "--group", "psl2:7", "--strategy", "random"],
    "triple": ["triple", "--group", "psl2:7", "--r", "2", "--s", "3", "--t", "7"],
    "classes": ["classes", "--group", "psl2:7"],
    "frobenius": ["frobenius", "--group", "psl2:7", "--i", "1", "--j", "1", "--k", "1"],
    "chartable": ["chartable", "--group", "psl2:7"],
    "zeta": ["zeta", "--group", "psl2:7", "--s", "2"],
}
# (flag, command, least valid value): counts, triple orders and caps
COUNT_FLAGS = [(flag, command, 1) for command in ("estimate", "stats")
               for flag in ("--samples", "--workers")]
COUNT_FLAGS += [("--attempts", "search", 1), ("--attempts", "triple", 1)]
COUNT_FLAGS += [(flag, "triple", 2) for flag in ("--r", "--s", "--t")]
COUNT_FLAGS += [("--cap-pairs", "search", 0), ("--cap-enumeration", "classes", 0),
                ("--cap-enumeration", "frobenius", 0), ("--cap-table", "frobenius", 0),
                ("--cap-table", "chartable", 0), ("--cap-table", "zeta", 0)]


@pytest.mark.parametrize("flag,command,low", COUNT_FLAGS,
                         ids=[f"{flag}-{command}" for flag, command, _ in COUNT_FLAGS])
def test_nonpositive_count_exit_2(capsys, command, flag, low):
    for value in (low - 1, low - 6):
        with pytest.raises(SystemExit) as exc:
            run(COUNT_COMMANDS[command] + [flag, str(value)])
        assert exc.value.code == 2
        assert f"argument {flag}: must be >= {low}" in capsys.readouterr().err


def test_zero_cap_is_valid_and_refuses(capsys):
    assert run(["classes", "--group", "ab:2", "--cap-enumeration", "0"]) == 3
    assert run(["search", "--group", "ab:2", "--strategy", "exhaustive",
                "--cap-pairs", "0"]) == 3
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["classes", "--group", "ab:x"],
    ["classes", "--group", "psl2:4^x"],
    ["zeta", "--group", "psl2:7", "--s", "0"],
    ["zeta", "--group", "psl2:7", "--s", "-1"],
    ["zeta", "--group", "psl2:7", "--s", "inf"],
    ["zeta", "--group", "psl2:7", "--s", "1e400"],
    ["zeta", "--group", "psl2:7", "--s", "nan"],
], ids=["ab:x", "psl2:4^x", "s=0", "s=-1", "s=inf", "s=1e400", "s=nan"])
def test_malformed_number_exit_2(capsys, argv):
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse rejects --s itself
        code = exc.code
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cap_violation_exit_3(capsys):
    code = run(["classes", "--group", "alt:9", "--cap-enumeration", "1000"])
    assert code == 3


def test_search_nonexistence_exit_1(capsys):
    code, doc = _run_json(capsys, ["search", "--group", "alt:5",
                                   "--strategy", "exhaustive"])
    assert code == 1
    assert doc["result"]["found"] is False
    assert doc["result"]["certificate"]["exhaustive"] is True


# -- round trips --------------------------------------------------------------------

@pytest.mark.parametrize("group", ["ab:5", "psl2:11", "alt:6", "psl2:2^3"])
def test_search_verify_round_trip(capsys, group):
    code, doc = _run_json(capsys, ["search", "--group", group, "--seed", "7"])
    assert code == 0
    quad = ";".join(doc["result"]["quadruple"])
    code2, doc2 = _run_json(capsys, ["verify", "--group", group, "--quad", quad])
    assert code2 == 0 and doc2["result"]["ok"] is True


def _subfield_pair(G, rng, first, size):
    """A pair (first(G, 1, rng), subfield element) generating a subgroup of
    the given order, found by BFS closure."""
    while True:
        pair = (first(G, 1, rng), random_subfield_sl2(G, 1, rng))
        if len(closure(G, pair)) == size:
            return pair


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verify_names_psl_and_pgl_subfield_witnesses(capsys, seed):
    # PSL2(7) (order 168) and PGL2(7) (order 336) inside PSL2(49): the
    # verdict turns on whether a trace lies outside F_7, so on the sign of
    # tr xy of the canonical lifts
    G = parse_group("psl2:7^2")
    rng = random.Random(seed)
    quad = (_subfield_pair(G, rng, random_subfield_sl2, 168)
            + _subfield_pair(G, rng, random_twisted_pgl, 336))
    code, doc = _run_json(capsys, ["verify", "--group", "psl2:7^2", "--quad",
                                   ";".join(map(G.format_element, quad))])
    assert code == 1
    assert doc["result"]["witnesses"]["pair1_subgroup"] == "subfield(:1, psl)"
    assert doc["result"]["witnesses"]["pair2_subgroup"] == "subfield(:1, pgl)"


def test_triple_traces_mode(capsys):
    code, doc = _run_json(capsys, ["triple", "--group", "psl2:13",
                                   "--traces", "3,5,6"])
    assert code == 0
    res = doc["result"]
    assert res["singular"] is False
    # (3,5,7) happens to be singular mod 13: 9+25+49-105-4 = -26
    code_s, doc_sing = _run_json(capsys, ["triple", "--group", "psl2:13",
                                          "--traces", "3,5,7"])
    assert code_s == 0 and doc_sing["result"]["singular"] is True
    assert doc_sing["result"]["pair_class"] == "structural"
    g = parse_group("psl2:13")
    A = g.parse_element(res["A"])
    B = g.parse_element(res["B"])
    C = g.parse_element(res["C"])
    assert g.multiply(g.multiply(A, B), C) == g.identity()
    # traces of the canonical lifts match up to sign of the lift
    assert g.trace(A) in (3, g.field.neg(3))
    code, _ = _run_json(capsys, ["triple", "--group", "psl2:7",
                                 "--traces", "2,2,2"])
    assert code == 0


@pytest.mark.parametrize("descriptor", ["psl2:7", "psl2:2^3"])
def test_solve_traces_reads_singularity_and_orders_off_the_pair_class(descriptor):
    # the oracle: the trace identity, and the orders of the solved matrices
    G = parse_group(descriptor)
    F = G.field
    for a, b, g in itertools.product(F.elements(), repeat=3):
        res, _ = cli._solve_traces(G, ",".join(map(F.format, (a, b, g))))
        assert res["singular"] == trace_identity(G, a, b, g)
        A, B, C = G.solve_trace_triple(a, b, g)
        assert res["orders"] == [G.order_of(G._canon(m)) for m in (A, B, C)]


def test_triple_traces_rejected_for_non_psl2(capsys):
    code = run(["triple", "--group", "alt:5", "--traces", "1,2,3"])
    assert code == 2
    capsys.readouterr()


def test_triple_requires_orders_or_traces(capsys):
    code = run(["triple", "--group", "psl2:7", "--r", "2"])
    assert code == 2
    capsys.readouterr()


def test_triple_output_parses_back(capsys):
    code, doc = _run_json(capsys, ["triple", "--group", "psl2:13",
                                   "--r", "6", "--s", "6", "--t", "6"])
    assert code == 0
    g = parse_group("psl2:13")
    x = g.parse_element(doc["result"]["x"])
    y = g.parse_element(doc["result"]["y"])
    z = g.parse_element(doc["result"]["z"])
    assert g.multiply(g.multiply(x, y), z) == g.identity()


def test_classify_command(capsys):
    code, doc = _run_json(capsys, ["classify", "--group", "psl2:7",
                                   "--pair", "[[1,1],[0,1]];[[1,0],[1,1]]"])
    assert code == 0
    assert doc["result"]["class"] in ("full", "structural", "dihedral",
                                      "a4", "s4", "a5", "subfield")


# -- schema and determinism ------------------------------------------------------------

ALL_COMMANDS = [
    ["verify", "--group", "ab:5", "--quad", "(1,0);(0,1);(1,2);(2,1)"],
    ["search", "--group", "ab:5", "--strategy", "exhaustive"],
    ["triple", "--group", "psl2:7", "--r", "2", "--s", "3", "--t", "7"],
    ["classify", "--group", "psl2:7", "--pair", "[[1,1],[0,1]];[[1,0],[1,1]]"],
    ["estimate", "--group", "ab:5", "--samples", "200"],
    ["stats", "--group", "psl2:13", "--samples", "200"],
    ["classes", "--group", "ab:3"],
    ["frobenius", "--group", "alt:5", "--i", "1", "--j", "1", "--k", "1"],
    ["chartable", "--group", "alt:5"],
    ["zeta", "--group", "alt:5", "--s", "2"],
    ["hurwitz", "--p", "7", "--e", "1"],
    ["triangle", "--r", "2", "--s", "3", "--t", "7"],
]


@pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")
@pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: a[0])
def test_json_output_validates_against_schema(capsys, argv, tmp_path, monkeypatch):
    monkeypatch.setenv("BEAUVILLE_CACHE_DIR", str(tmp_path))
    _, doc = _run_json(capsys, argv)
    jsonschema.validate(doc, _schema())


@pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: a[0])
def test_identical_invocations_are_byte_identical(capsys, argv, tmp_path, monkeypatch):
    monkeypatch.setenv("BEAUVILLE_CACHE_DIR", str(tmp_path))
    _, out1 = _run(capsys, argv + ["--format", "json", "--no-timing"])
    _, out2 = _run(capsys, argv + ["--format", "json", "--no-timing"])
    assert out1 == out2


# -- the command table ----------------------------------------------------------------

def test_command_set_is_named_alike_in_table_schema_and_tests():
    names = list(cli.COMMANDS)
    assert names == _schema()["properties"]["command"]["enum"]
    assert names == [argv[0] for argv in ALL_COMMANDS]


def _parse_exit(capsys, parser, argv):
    """(exit code, stdout, stderr) of a parse that ends the run."""
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: a[0])
def test_one_command_parser_parses_as_the_full_parser(argv):
    full = vars(cli.build_parser().parse_args(argv))
    assert vars(cli.build_parser(argv[0]).parse_args(argv)) == full


@pytest.mark.parametrize("name", [argv[0] for argv in ALL_COMMANDS])
def test_one_command_parser_prints_the_same_help(capsys, name):
    code, out, err = _parse_exit(capsys, cli.build_parser(name), [name, "--help"])
    assert code == 0 and out.startswith(f"usage: beauville {name}")
    assert (code, out, err) == _parse_exit(capsys, cli.build_parser(), [name, "--help"])


@pytest.mark.parametrize("argv", [
    ["verify", "--quad", "(1,0);(0,1);(1,2);(2,1)"],
    ["estimate", "--group", "ab:5", "--samples", "0"],
    ["zeta", "--group", "alt:5", "--s", "-1"],
    ["search", "--group", "ab:5", "--strategy", "bogus"],
    ["hurwitz", "--p", "7", "--e", "1", "extra"],  # reported with the top-level usage
], ids=["missing-group", "samples-0", "s-negative", "unknown-strategy", "unrecognized"])
def test_one_command_parser_gives_the_same_usage_errors(capsys, argv):
    code, out, err = _parse_exit(capsys, cli.build_parser(argv[0]), argv)
    assert code == 2 and err.startswith("usage: beauville")
    assert (code, out, err) == _parse_exit(capsys, cli.build_parser(), argv)


def test_a_run_builds_the_parser_of_its_own_command_alone(capsys, monkeypatch):
    asked, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda command=None: asked.append(command) or build(command))
    assert run(["hurwitz", "--p", "7", "--e", "1"]) == 0
    for argv in (["--help"], ["bogus"], []):  # help and usage errors list every command
        with pytest.raises(SystemExit):
            run(argv)
    assert asked == ["hurwitz", None, None, None]


def test_config_echo_includes_defaults(capsys):
    _, doc = _run_json(capsys, ["estimate", "--group", "ab:5", "--samples", "50"])
    cfg = doc["config"]
    assert cfg["seed"] == 1729 and cfg["workers"] == 1
    assert cfg["samples"] == 50 and cfg["group"] == "ab:5"


# -- outputs and persistence -------------------------------------------------------------

def test_out_appends_jsonl(capsys, tmp_path):
    log = tmp_path / "runs.jsonl"
    run(["hurwitz", "--p", "7", "--e", "1", "--out", str(log), "--no-timing"])
    run(["hurwitz", "--p", "13", "--e", "1", "--out", str(log), "--no-timing"])
    capsys.readouterr()
    lines = log.read_text().strip().splitlines()
    assert len(lines) == 2
    assert all(json.loads(line)["command"] == "hurwitz" for line in lines)


@pytest.mark.parametrize("argv", [
    ["classes", "--group", "alt:6", "--format", "json"],  # larger than a pipe buffer
    ["hurwitz", "--p", "7", "--e", "1"],  # written only by the final flush
], ids=lambda a: a[0])
def test_stdout_closed_by_its_reader_ends_without_a_traceback(tmp_path, argv):
    # as in `beauville classes ... | head -1`: the reader is gone before the
    # answer is written, so every write to stdout fails with EPIPE
    log = tmp_path / "runs.jsonl"
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "beauville.cli", *argv, "--out", str(log)],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                              timeout=120)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert proc.returncode == 0
    assert json.loads(log.read_text())["command"] == argv[0]


def _blocked_path(tmp_path, kind):
    """A path that cannot be opened: a directory, or one under a regular file."""
    if kind == "directory":
        return tmp_path
    (tmp_path / "file").write_text("")
    return tmp_path / "file" / "below"


@pytest.mark.parametrize("kind", ["directory", "under-file"])
def test_out_that_cannot_be_appended_exits_2_before_the_work(capsys, tmp_path, kind):
    code = run(["hurwitz", "--p", "7", "--e", "1", "--no-timing",
                "--out", str(_blocked_path(tmp_path, kind))])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["chartable", "--group", "alt:5", "--save"],
    ["frobenius", "--group", "alt:5", "--i", "2", "--j", "2", "--k", "2",
     "--method", "character"],
], ids=lambda a: a[0])
def test_unwritable_cache_keeps_the_answer(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.setenv("BEAUVILLE_CACHE_DIR", str(tmp_path / "clean"))
    code, clean = _run_json(capsys, argv)
    assert code == 0
    blocked = _blocked_path(tmp_path, "under-file")
    monkeypatch.setenv("BEAUVILLE_CACHE_DIR", str(blocked))
    code = run(argv + ["--format", "json", "--no-timing"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 0 and "Traceback" not in captured.err
    assert "warning:" in captured.err and str(blocked) in captured.err
    if argv[0] == "chartable":
        assert clean["result"].pop("saved") and doc["result"].pop("saved") is None
    assert doc == clean


def test_chartable_cache_roundtrip(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("BEAUVILLE_CACHE_DIR", str(tmp_path))
    code, doc = _run_json(capsys, ["chartable", "--group", "alt:5", "--save"])
    assert code == 0
    saved = doc["result"]["saved"]
    assert saved and os.path.exists(saved)
    # frobenius --method character must reuse the persisted table
    code, doc = _run_json(capsys, ["frobenius", "--group", "alt:5",
                                   "--i", "2", "--j", "2", "--k", "2",
                                   "--method", "character"])
    assert code == 0
    code, doc_b = _run_json(capsys, ["frobenius", "--group", "alt:5",
                                     "--i", "2", "--j", "2", "--k", "2",
                                     "--method", "brute"])
    assert doc["result"]["count"] == doc_b["result"]["count"]


def test_frobenius_character_enumerates_classes_once(capsys, tmp_path, monkeypatch):
    # on a table-cache miss the table is computed from the partition that
    # frobenius already built, and --cap-table still refuses by |G|
    monkeypatch.setenv("BEAUVILLE_CACHE_DIR", str(tmp_path))
    built = []
    init = ClassPartition.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ClassPartition, "__init__", counted)
    argv = ["frobenius", "--group", "psl2:17", "--i", "1", "--j", "1", "--k", "1"]
    code, doc = _run_json(capsys, argv + ["--method", "character"])
    assert code == 0 and len(built) == 1
    _, brute = _run_json(capsys, argv)
    assert doc["result"]["count"] == brute["result"]["count"]
    code = run(["frobenius", "--group", "psl2:7", "--i", "1", "--j", "1", "--k", "1",
                "--method", "character", "--cap-table", "100"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: character table needs |G| = 168 <= 100\n"


@pytest.mark.parametrize("argv", [
    ["zeta", "--group", "alt:5", "--s", "2"],
    ["chartable", "--group", "alt:5", "--save"],
], ids=lambda a: a[0])
def test_corrupt_table_cache_is_recomputed(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.setenv("BEAUVILLE_CACHE_DIR", str(tmp_path))
    code, clean = _run(capsys, argv + ["--format", "json", "--no-timing"])
    assert code == 0
    path = tmp_path / "alt_5.v1.json"
    path.write_text("{bad")
    code = run(argv + ["--format", "json", "--no-timing"])
    captured = capsys.readouterr()
    assert code == 0 and captured.out == clean
    assert "warning:" in captured.err and str(path) in captured.err
    if "--save" in argv:
        json.loads(path.read_text())  # replaced by a valid table
        assert sorted(os.listdir(tmp_path)) == ["alt_5.v1.json"]


@pytest.mark.parametrize("save", [False, True], ids=["zeta", "zeta-after-save"])
def test_table_of_another_group_is_recomputed(capsys, tmp_path, monkeypatch, save):
    monkeypatch.setenv("BEAUVILLE_CACHE_DIR", str(tmp_path))
    code, _ = _run(capsys, ["chartable", "--group", "alt:5", "--save"])
    assert code == 0
    path = tmp_path / "psl2_7.v1.json"
    shutil.copy(tmp_path / "alt_5.v1.json", path)
    if save:  # --save replaces the foreign table with the right one
        code = run(["chartable", "--group", "psl2:7", "--save", "--no-timing"])
        assert code == 0 and "table of alt:5 (order 60)" in capsys.readouterr().err
        assert json.loads(path.read_text())["group"] == "psl2:7"
    code = run(["zeta", "--group", "psl2:7", "--s", "2", "--format", "json",
                "--no-timing"])
    captured = capsys.readouterr()
    result = json.loads(captured.out)["result"]
    assert code == 0 and result["degrees"] == [1, 3, 3, 6, 7, 8]
    assert abs(result["zeta"] - 1.2860) < 1e-4
    assert ("warning:" in captured.err) != save


def test_table_from_an_older_layout_is_a_miss(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("BEAUVILLE_CACHE_DIR", str(tmp_path))
    (tmp_path / "alt_5.json").write_text("{bad")  # unversioned name
    code = run(["chartable", "--group", "alt:5", "--save", "--format", "json",
                "--no-timing"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert json.loads(captured.out)["result"]["saved"] == str(tmp_path / "alt_5.v1.json")


@pytest.mark.parametrize("argv", [
    ["chartable", "--group", "alt:5"],
    ["zeta", "--group", "alt:5", "--s", "2"],
], ids=lambda a: a[0])
def test_table_invalid_exit_3(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.setenv("BEAUVILLE_CACHE_DIR", str(tmp_path))

    def refuse(G, cap):
        raise TableInvalid("row orthogonality failed beyond tolerance")

    monkeypatch.setattr(cli, "character_table", refuse)
    code = run(argv + ["--format", "json", "--no-timing"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: row orthogonality failed beyond tolerance\n"


# sha256 of the --no-timing stdout (--format json unless argv names one),
# each recorded before the change it guards: the merge of the pair census
# and of the Monte Carlo sampling loops into one code path each (ab, alt,
# psl2:13), and the class-keyed Sigma and PSL2 order memos (the three large
# psl2 estimates)
PINNED_DIGESTS = [
    (["search", "--group", "ab:5", "--strategy", "exhaustive"],
     "4123ee3a5324e1abc4a8695ca46627592b567731292170eebf6b0b67b847e729"),
    (["search", "--group", "ab:6", "--strategy", "exhaustive"],
     "e5360e37ac775378ccf33f663d1ca2545fc590a7ba222911e2f8b7c50dfc47d3"),
    (["search", "--group", "ab:7", "--strategy", "exhaustive"],
     "04ee9bbdb3ccdfeabe01765374f776437a5180e655d0f2933cb996153cbf296f"),
    (["search", "--group", "alt:5", "--strategy", "exhaustive"],
     "49a79b06b08f33096acfce8dc960ac6bf9cb5aa8d474fc442c4ccae6412d1d47"),
    (["estimate", "--group", "ab:5", "--samples", "300"],
     "c25592a7e0d457c7fd1afab0c8cceaaa618ece27e24953975b7c434f0aa258f9"),
    (["estimate", "--group", "ab:5", "--samples", "300", "--workers", "2"],
     "e6103732b361b9bbccb988734f398c73a8f51ec3111cbc315a48fa0099d770a6"),
    (["stats", "--group", "psl2:13", "--samples", "300"],
     "177c0b4aedbb9259d6fe49469234d2c141c9b962aec6c6242bfee315dba2b4ac"),
    (["stats", "--group", "psl2:13", "--samples", "300", "--workers", "2"],
     "3e41830b5ca5049a5b712f668d0c6bae726bc4918ff536de7ffbc657af074c1d"),
    (["estimate", "--group", "psl2:101", "--samples", "2000", "--workers", "1"],
     "dac4f77543d863d36fe79abe84868c662dde814faff09f37b21a8787e2a1331e"),
    (["estimate", "--group", "psl2:101", "--samples", "2000", "--workers", "2"],
     "fd2dcc2846a278b2468cd5b14791925f75c8d68792f65594f3025c99021cfe56"),
    (["estimate", "--group", "psl2:2^7", "--samples", "600", "--workers", "1"],
     "080f10b5a0a77031d35eceb759a157cad51a68848e09e931bcbaa09d82ef6a32"),
    (["estimate", "--group", "psl2:2^7", "--samples", "600", "--workers", "2"],
     "87601faf9bab2c049b8ea05a7d035f4fb9e073b49e1d89fa9153a49be1f56cf2"),
    (["estimate", "--group", "psl2:3^5", "--samples", "500", "--workers", "1"],
     "8ea7006fae542b352087dae17a12d9df1e5e11c18aa52722ca00affef3fbda90"),
    (["estimate", "--group", "psl2:3^5", "--samples", "500", "--workers", "2"],
     "88b327ef0e4748bccfbcd4bffe5be75a85123651645a2356cbeba838c4bb0f79"),
    (["search", "--group", "psl2:7", "--strategy", "exhaustive",
      "--type1", "3,3,4", "--type2", "7,7,7"],
     "b1dd7b856891db70b415e62ad4924f8f4ed19c3dafd4225daa9e88708b6898dd"),
    (["search", "--group", "psl2:7", "--strategy", "exhaustive",
      "--type1", "7,7,7", "--type2", "3,3,4"],
     "cb16016f01d6084ea57a006f9f58c6f4b24407dde28a6d51cc41af177b640c14"),
    (["search", "--group", "ab:7", "--strategy", "exhaustive",
      "--type1", "7,7,7", "--type2", "7,7,7"],
     "8380dfa150e8078487ffa07ecd78fef56ff074840336bdc27b537502c0ea88fa"),
    (["search", "--group", "alt:6", "--strategy", "random", "--seed", "5"],
     "bf9242643186121decafb94661ae35eb33026a2999c756ac591ebed84fcde714"),
    (["search", "--group", "psl2:11", "--strategy", "random",
      "--type1", "5,5,5", "--type2", "6,6,6", "--seed", "3"],
     "693c8a69729e1e1ee174ff25067fffbd17db70ba613c63c7428a8c77754f69a0"),
    (["search", "--group", "alt:7", "--seed", "7"],
     "8e5a312d45b2356dddde9e365a3b28832b86e4e2f9cb458c2b0e19a3cf81aa03"),
    (["stats", "--group", "psl2:2^4", "--samples", "500"],
     "f0e3a96b946de00fad8bb663f8ed36ec83cbfc91420a585eef02d93a36322dae"),
    (["estimate", "--group", "psl2:3^3", "--samples", "300"],
     "7616fcac576ef39d818274bf0058769c9c690554826212a4b5c5a9c6b0c40468"),
    # A_n / S_n generation: Jordan certificate, BSGS fallback, witness text
    (["estimate", "--group", "alt:8", "--samples", "200", "--workers", "1"],
     "c6d1bdc7cd344c978085530c41be14912d28d53eb59fa17a5cced7de28324366"),
    (["estimate", "--group", "alt:8", "--samples", "200", "--workers", "2"],
     "41787d916d452bb26926064a2be5fdce361542ca06b6bcc9a9fd4fd938dcca5e"),
    (["stats", "--group", "sym:9", "--samples", "100"],
     "ebf6fcfaafb39b395146ad82c04077bf8dc2ddc2c4e3ae88a0ecba11c6c5bbe3"),
    (["search", "--group", "alt:12", "--strategy", "random", "--seed", "3"],
     "65d8cd7dfa9b8e02e9fc3a000dd15e8956bfe33206f7c487e73c5424471a13d7"),
    (["verify", "--group", "alt:8", "--quad",
      "(1 2 3 4 5 6 7);(1 8)(2 7)(3 4)(5 6);(1 2 3 4 5 6 7);(1 2 3)"],
     "a15b9ebdc0c34b4eb540cf12badb07e226b1136826841106385fd6743f164cd9"),
    # large-q exp/log tables and traces_by_order: Macbeath search, the
    # trace-triple solver and the subgroup classifier on q ~ 10^4
    (["search", "--group", "psl2:10007"],
     "728ed54ee233dd7c23ad4841e3fd9c10b16db4bbd46e54b27b3d43f1c1f6aa6b"),
    (["search", "--group", "psl2:2^13"],
     "2eb7bcd737003ab4a5b5ae32523487dd92f1e6aae2c0b295168daa7e69d1dd91"),
    (["search", "--group", "psl2:3^7"],
     "396fb0aa6a29475494e139e5c7adcf284209229837e512a7203e57531b1a4fd1"),
    (["triple", "--group", "psl2:2^13", "--r", "3", "--s", "5", "--t", "17"],
     "07f37f327bf2a71c92b4a2675a8f205453593e83745467a045296086e7b77239"),
    (["triple", "--group", "psl2:10007", "--r", "3", "--s", "4", "--t", "6"],
     "085d7275656bd6b6dfc63603e0b3ebcaef0ce32fa4ec217d32774f984e96a552"),
    (["classify", "--group", "psl2:3^7", "--pair", "[[1,1],[0,1]];[[1,0],[1,1]]"],
     "cda0227d03f64c84f53bc91c8149fde2d3b93a7285026283bc1a94a67a05fe94"),
    # character tables from lazily built class matrices (the Witten zeta
    # degrees and a 15-class table) and the lazy Macbeath type-pair walk
    (["zeta", "--group", "psl2:3^3", "--s", "2"],
     "a7a83b0ff24c9092e5cb56bddab824ef6db8ea4d293323714e1405a3304a2501"),
    (["zeta", "--group", "psl2:17", "--s", "2"],
     "332059a97560f48632334887dfedf6c4a12fe8e5d43fe73127254b855970e483"),
    (["chartable", "--group", "sym:7"],
     "2b5eed01644fc0d9a8be71fa2275724b45f2920fe3853e3796c234f5599f904d"),
    (["search", "--group", "psl2:1009"],
     "559b655530ae4f2f30b268cea1c8218e23aeae1709003f1e06d6515c2a3e3275"),
    # small closures classified by their size (a4, s4, a5, and the whole
    # group for q = 4, 5), the witness text of a small subgroup, and the
    # hyperbolic flag of a type containing 1
    (["classify", "--group", "psl2:5", "--pair", "[[2,4],[3,4]];[[1,2],[1,3]]"],
     "9f6258fcb32f282d643cffafddcdf0a39521e01402a97c8c5337b6bd03d7c954"),
    (["classify", "--group", "psl2:5", "--pair", "[[1,4],[0,1]];[[2,0],[3,3]]"],
     "2e2b75c86262aa9c813e63586d8b56089420b32215449d8798f062f8d38211ef"),
    (["classify", "--group", "psl2:2^2", "--pair",
      "[[1+0*t,0+0*t],[0+1*t,1+0*t]];[[0+0*t,1+1*t],[0+1*t,1+1*t]]"],
     "979fe948c7a85c9b8982e67d60505f6ef75d47dfdeeb28bad382af62afc30a19"),
    (["classify", "--group", "psl2:7", "--pair", "[[1,6],[3,5]];[[0,2],[3,0]]"],
     "cba3a4f0f291faa8d2238a026e5c18459bc2e0fe8370fbd5d18210399c6724f8"),
    (["classify", "--group", "psl2:11", "--pair", "[[0,1],[10,3]];[[0,5],[2,1]]"],
     "22314e6cc2dcfe6931c93a9f04113f2e93d38ab41077dcfb9436e84750c80f7e"),
    (["classify", "--group", "psl2:3^2", "--pair",
      "[[1+0*t,1+0*t],[1+1*t,2+1*t]];[[0+1*t,0+0*t],[0+1*t,0+2*t]]"],
     "fbea729a460e6714ea671040494dded270568f4e593bd38e448569db9dd5622b"),
    (["verify", "--group", "psl2:7", "--no-fastpath", "--quad",
      "[[1,6],[3,5]];[[0,2],[3,0]];[[2,3],[0,4]];[[1,6],[3,5]]"],
     "726cf71d8bcddd3deaac42a3fed7af2e9ce94ad25d5ce816ac8b57cf0e7b0be0"),
    (["verify", "--group", "psl2:11", "--no-fastpath", "--quad",
      "[[0,1],[10,3]];[[0,5],[2,1]];[[4,4],[1,4]];[[5,8],[10,3]]"],
     "7fb46a808c645fd27cc116d71000aeaf2078ac4b05f37a31888ab4656281de5c"),
    (["verify", "--group", "psl2:7", "--no-fastpath", "--quad",
      "[[1,0],[0,1]];[[0,2],[3,0]];[[2,3],[0,4]];[[1,6],[3,5]]"],
     "6ebe5a65bf017e568b11e97ae2adac059f7a64d69f26b9d53cd3dfa5dada9a32"),
    # the Sigma memo keyed by element order for PSL2 (by class for the
    # unipotents when p is odd and e even: 5^2, 3^4), and the tallies read
    # off each pair's orders
    (["estimate", "--group", "psl2:5^2", "--samples", "3000"],
     "b949df22b73f937c4203cbbce06ca9784832f8b1b08e8e7628a4f5ec4adabd3c"),
    (["stats", "--group", "psl2:5^2", "--samples", "3000"],
     "af7c9b8fc3f26a2eb4a43c6fc2eeac87a629ce7e11f266401eca8030b225555d"),
    (["estimate", "--group", "psl2:3^4", "--samples", "1500"],
     "6aac42836c6ed0912a2dab08a177a0ecdcb6e365daa96a32d15c0abc32b44025"),
    (["estimate", "--group", "psl2:3^4", "--samples", "1500", "--workers", "2"],
     "c0e5dd7110c551eafb3f6faf12bfd6694915fe6b688c1814ada05368238eac32"),
    (["stats", "--group", "psl2:3^4", "--samples", "300"],
     "951513002426d1448a03093f60d1dc33b2efb3ff51eb982dfc5df6c0e2fce2b9"),
    (["stats", "--group", "psl2:2^7", "--samples", "300"],
     "9fcfc3d5a389824fa97402517eb4b43aea946fcd1ab0d14b6165bd9e784c9f44"),
    (["estimate", "--group", "alt:6", "--samples", "300"],
     "9c6af999fd1cf0cd19e934695cac5f58f603619443cf2302de71dcee557a3967"),
    (["stats", "--group", "alt:6", "--samples", "300"],
     "618a660ed231221e20d6d10b2d9695d69f67fc78abda8a7cc0add75d9623dd3c"),
    # the pair census visiting one y per centralizer orbit: found quadruples
    # with their stats, and nonexistence certificates with their counts
    (["search", "--group", "alt:6", "--strategy", "exhaustive"],
     "f98cb2b6df8b27f22b4db493b04dd98b15aec25f046c1fc177865c8b24b8b9d1"),
    (["search", "--group", "psl2:11", "--strategy", "exhaustive"],
     "71869f7d766d22a8af5c0a53c69838331fc34a6335f0ac9501f1686b1ca38661"),
    (["search", "--group", "sym:5", "--strategy", "exhaustive"],
     "8104c4c9b42508adea8b9cfba2be74d4d21bfe604df0ea23fc088263fb54b00e"),
    (["search", "--group", "sym:5", "--strategy", "exhaustive",
      "--type1", "4,5,6", "--type2", "5,6,6"],
     "c39a792b3ca5cfea0ae9b4699cb0c8880b4267f839c1969ec565b60e0c943a15"),
    (["search", "--group", "sym:4", "--strategy", "exhaustive"],
     "79036140f73b134e3202b18ea236ecd5a6e45047c263c2473f0bfd8a31444283"),
    # one pair draw tallied by its (generates, orders) key: PSL2 stats over
    # a subfield tower, a worker split, and the generation-only components
    # of the other kinds
    (["stats", "--group", "psl2:3^2", "--samples", "2000"],
     "3a6bf990a958a85db78368444ac89ef22d4059c323c716141b8c9cddd409d0a0"),
    (["estimate", "--group", "psl2:2^4", "--samples", "500", "--workers", "3"],
     "d7306bbe9d22ac2a762e1aba6856a44cce3ffb25e77661c7b7fe25f83c7d9765"),
    (["stats", "--group", "alt:7", "--samples", "300"],
     "216b3f835f0c751eddea9a9ced6b60b9cc0dd555170b30261b9afd57352d1562"),
    (["estimate", "--group", "ab:7", "--samples", "500"],
     "6065e1545738b8bf938820147b051d57c05b1fde40e5428b901d2eb99a8d13b6"),
    # one read_pair per draw: identity draws are frequent in these small
    # groups, so these fix how the components count them
    (["stats", "--group", "psl2:5", "--samples", "3000"],
     "6ac9069fd6bd3398825f7707dd1bed469250c810874e9224a485e2cc8e4e666a"),
    (["stats", "--group", "psl2:2^2", "--samples", "3000"],
     "2886d368ce7036b8214cea718ccedf57c565d52fd7c18873664a66b87c6606a6"),
    # the unipotent prime-power classes read in closed form (p odd, e odd:
    # both classes) instead of walked through p - 1 matrix products
    (["verify", "--group", "psl2:1000003", "--no-fastpath", "--quad",
      "[[1,1],[0,1]];[[1,1],[0,1]];[[1,0],[1,1]];[[1,0],[1,1]]"],
     "8ef3cc1da444b6ec5be26558447c643a3c336edd4132a21edde01e401bcd75c7"),
    # the text renderer's nested-dict and list branches, and the tsv
    # renderer's stats and generic branches
    (["search", "--group", "alt:5", "--strategy", "exhaustive", "--format", "text"],
     "ea75fdaa0d060fac2ec2611db805f6679e451bde01bb7607fd134607ba98f0d8"),
    (["classes", "--group", "alt:4", "--format", "text"],
     "81361f0f70b66dc6a75cf0b79d97d7a560d8bc1daa58081212610ca96bfd7b35"),
    (["stats", "--group", "psl2:7", "--samples", "50", "--format", "tsv"],
     "810dc85742cefcd7cbac609d258b8bc0924b1d8f6df997580d9229a17279dcda"),
    (["verify", "--group", "ab:5", "--quad", "(1,0);(0,1);(1,2);(2,1)", "--format", "tsv"],
     "3f3a6bead2871b578024714e6b79de0027e9e86dbb9fc6a96e65979a6f7a4e92"),
    # the class partition kept on the handle: class listings and both
    # Frobenius methods (alt:6 exhaustive search and the typed psl2:7
    # search above read it through the pair census)
    (["classes", "--group", "alt:6"],
     "c58a2291f60b34a9dff52a84f03040ee052abfd975076ea5e3450fe455f7a393"),
    (["classes", "--group", "psl2:2^5"],
     "d8ec6b88af94b5155fe21ba749058f7d38d35f50161b60a1b257f83123230e59"),
    (["frobenius", "--group", "psl2:17", "--i", "1", "--j", "2", "--k", "2",
      "--method", "brute"],
     "46ad2c4851052eb5f1ccac4baf135b69bf0d320bda2e1ab50e5cfb5f6c6f8d08"),
    (["frobenius", "--group", "psl2:17", "--i", "1", "--j", "2", "--k", "2",
      "--method", "character"],
     "bfefe7fac844a4197cd5a68d1aaab390c6fc601384d48dd40e3bfc5292509416"),
    # typed exhaustive searches, found and certified absent: the type filter
    # reads the full census in its order, so the Sigma order, the type order
    # within a Sigma and the quadruple found stay as they were
    (["search", "--group", "alt:6", "--strategy", "exhaustive",
      "--type1", "4,4,4", "--type2", "3,5,5"],
     "39fe94bc9769233ad33659fc0f3ddaf6a8e7ab37f3ca3d4fe6cbee1466291eb3"),
    (["search", "--group", "alt:6", "--strategy", "exhaustive",
      "--type1", "3,4,5", "--type2", "3,5,5"],
     "d785e9abe76efc533fe2fcc863042607faf89d9616885ebc6a30ad0c80488769"),
    (["search", "--group", "psl2:2^3", "--strategy", "exhaustive",
      "--type1", "9,9,9", "--type2", "7,7,7"],
     "f4dd388ae35c8012a65ddfd9d8008b7587002da0b108072d44cecd4e85f15ec5"),
    (["search", "--group", "psl2:2^3", "--strategy", "exhaustive",
      "--type1", "2,3,7", "--type2", "2,7,9"],
     "73b1d944c121b6b9da7323a24cdb5345ead3b89a0061ff19f85a5395f7fd8edd"),
    (["search", "--group", "psl2:11", "--strategy", "exhaustive",
      "--type1", "3,5,5", "--type2", "11,11,11"],
     "efd45d58bd227c378e8a8adc399b5fc3c99e9d72eeb79cb2f16fb3b2f95d2b39"),
    (["search", "--group", "psl2:11", "--strategy", "exhaustive",
      "--type1", "5,6,11", "--type2", "5,6,11"],
     "f535d183f5b87c246b773c55f0beaa8979364faaf7fb8b28144a24741afd37f1"),
    # condition (iii) decided by one test: typed random searches found with
    # coprime type products (psl2:13, alt:6) and without (sym:6), one whose
    # types force a shared class (A_6 has one class of involutions), and
    # verify on quadruples whose Sigma sets share classes
    (["search", "--group", "psl2:13", "--strategy", "random",
      "--type1", "6,6,6", "--type2", "7,7,7"],
     "75d94d2adf7f549423c76365d303472fbc967606a6cab51722de1d6e982af979"),
    (["search", "--group", "alt:6", "--strategy", "random", "--seed", "2",
      "--type1", "5,5,5", "--type2", "3,3,4"],
     "f401ffcb4a7942a9032cbd13e4ae58ea157d0d66f04b16ffa5c1d10b1cca9be0"),
    (["search", "--group", "sym:6", "--strategy", "random",
      "--type1", "5,6,6", "--type2", "4,6,6"],
     "8279d989d2cabdc87e28392efd1df721cc5a0e37aff08d4387eb96cfadaaecdd"),
    (["search", "--group", "alt:6", "--strategy", "random",
      "--type1", "3,4,5", "--type2", "4,5,5", "--attempts", "200"],
     "5112c0a0d004de882ed5a2fb3b98882faa22bc5134bb0f24140d85524ec64aba"),
    (["verify", "--group", "alt:6", "--quad",
      "(1 3 6)(2 5 4);(2 3 5 6 4);(3 6 4);(1 3 6 5)(2 4)"],
     "93c7987ed8b3dbf93d42272a5cb3fdb66e8893827efc70306e7bef8a0df921bd"),
    (["verify", "--group", "alt:6", "--no-fastpath", "--quad",
      "(1 3 6)(2 5 4);(2 3 5 6 4);(3 6 4);(1 3 6 5)(2 4)"],
     "14292637bb6ab4295eeec816542471d28163d3ad2a8e2034c754a27c11e83280"),
    (["verify", "--group", "sym:5", "--quad", "(2 3 4 5);(1 2 4);(1 2)(3 5 4);(2 5)"],
     "e184b4c090847887326d8d49323d5b4b2834ff2a91a9f73a06cd0edcca7b2611"),
    (["verify", "--group", "sym:5", "--no-fastpath", "--quad",
      "(2 3 4 5);(1 2 4);(1 2)(3 5 4);(2 5)"],
     "b877462d1d1b9c6d732b94bc79ad0684aeb232865655b9c6f01c70758d89effd"),
    # Sigma in closed form: the shared_classes witness of a PSL2 prime bit
    # (orders 2 and 139: 1 + 69 classes listed from the kept order-r trace),
    # of both halves of the split 7-cycle class of A_7, and estimates whose
    # Sigma sets are keyed by cycle type
    (["verify", "--group", "psl2:10007", "--no-fastpath", "--quad",
      "[[0,1],[10006,0]];[[3,1636],[1572,10005]];[[0,1],[10006,0]];[[1,4839],[4775,63]]"],
     "d457534af7e8731906cfc983b030193a149a898cad1d2bdae985d7a4cb98bf3f"),
    (["verify", "--group", "alt:7", "--no-fastpath", "--quad",
      "(1 3 7)(2 5 4);(2 7 6 5 4);(1 5)(3 6);(1 2 7 6 5 4 3)"],
     "b170325e83aebe187b087dfca00a6484ed54d7c158bdefd2e7b5a0d97fbe7b92"),
    (["estimate", "--group", "alt:40", "--samples", "300"],
     "71d6c95da0ccd98e8a71cde3face5828399009b98c68ea56d1b4fb89a291fb93"),
    (["estimate", "--group", "sym:40", "--samples", "300"],
     "e4e5f6fe7dfd84e40e59d3ef1d1be7b2a6c0ac1e03ea24356246eab1c249c55e"),
    # a typed random search whose types force a shared class (A_7 has one
    # class of order 5) answers before any draw, like the alt:6 search above
    (["search", "--group", "alt:7", "--strategy", "random",
      "--type1", "4,5,7", "--type2", "5,7,7"],
     "4c13c29cedc45383b89e26d3830cfb8eabc1e1cd6cdcf0404df7fb2ce81cfe0d"),
    # the whole-group PSL2 paths through the matrix product: a class
    # listing, exhaustive searches over fields of even and odd
    # characteristic, and the character formula on one class triple
    (["classes", "--group", "psl2:3^3"],
     "9913c313717e938a83b74cd44ae6a1bd738078315dce56da2539f3901f5c6223"),
    (["search", "--group", "psl2:2^3", "--strategy", "exhaustive"],
     "89a12d25f55b02f2216d780f821d01b5319bb9d6cc2e47649ccc8d0b1a6b1942"),
    (["search", "--group", "psl2:5^2", "--strategy", "exhaustive"],
     "31f6f40f327e2685b3bcb4f22415e207e8ff9a0424add8629abaa0436a433bb7"),
    (["frobenius", "--group", "psl2:3^3", "--i", "2", "--j", "4", "--k", "7",
      "--method", "character"],
     "7fc833d55e24f2815979483b9a99246d6d6b5c10140e1cab13b3556b56db9bf4"),
    # typed random searches whose types share a prime that forces a shared
    # class by Fact B, with two classes of that order: r = p = 7 (e odd) and
    # r = 7 != p = 13; both ran their whole budget and ended inconclusive
    (["search", "--group", "psl2:7", "--strategy", "random",
      "--type1", "7,7,7", "--type2", "7,7,7"],
     "0c954b9ba305fb29355140ea04ae57faa63a8b91a8aa7ba7ab66523fedf246a6"),
    (["search", "--group", "psl2:13", "--strategy", "random",
      "--type1", "2,3,7", "--type2", "7,7,7"],
     "7cceabe73490a68f0c8a18fc825280af35e1e860aac285d8453cfed5e5182e19"),
    # typed random searches on alt:6 whose types share 5: every element of
    # order divisible by 5 is a 5-cycle, whose powers reach both classes of
    # 5-cycles; all three ran their whole budget and ended inconclusive
    (["search", "--group", "alt:6", "--strategy", "random",
      "--type1", "2,5,5", "--type2", "3,5,5"],
     "d15b5a3b77af245c2f30122dd586cb1ee3bbf39880fbc6c20606b79ed4cc712a"),
    (["search", "--group", "alt:6", "--strategy", "random",
      "--type1", "5,5,5", "--type2", "3,3,5"],
     "1f303379b11dfa70e45819ff74b2df0f275af5be0d496851ba6ff5b6b97f8093"),
    (["search", "--group", "alt:6", "--strategy", "random",
      "--type1", "4,4,5", "--type2", "3,5,5"],
     "cf2a141dd0e48aca4ce57a1572c288ab19d5220b9c53e81deea8a0969871be75"),
    # order checks answered in closed form on every realization: generating
    # triples of A_n, S_n and Zn x Zn from their shaped seeds, the refusal
    # text of an order each group lacks (and of a Zn x Zn type whose orders
    # exist but are not (n, n, n)), and typed random searches refused
    # before any draw, on S_5 and without a torus walk on psl2:1000003
    (["triple", "--group", "alt:7", "--r", "3", "--s", "5", "--t", "7"],
     "a0384da75b3dd210f6fbd15ebd7357f6ef19d117869c1a1f5da860d8af89f30b"),
    (["triple", "--group", "alt:8", "--r", "2", "--s", "7", "--t", "15"],
     "289e517ebbc8104ac6497a960ef2416bbdad8f47ba350443783814b1dfd4625c"),
    (["triple", "--group", "sym:6", "--r", "2", "--s", "5", "--t", "6"],
     "0b843b70b75926271dea0fa0cd430293ea77cc73e0801b4b5d3eff383ffb3f6d"),
    (["triple", "--group", "ab:7", "--r", "7", "--s", "7", "--t", "7"],
     "3cbfbc458e8d81894e9ba4255a15697c344db20a1a5e95475c51d3bde0b725eb"),
    (["triple", "--group", "alt:5", "--r", "2", "--s", "4", "--t", "5"],
     "de7d17fddcb70048dd9f7e85c7f3c487e486de78ee32f18fcc177696a95520a2"),
    (["triple", "--group", "sym:5", "--r", "2", "--s", "7", "--t", "5"],
     "bb2386fb7f3681c638ecd026b43102acd08abc4955b47127405d493f7666688e"),
    (["triple", "--group", "ab:6", "--r", "4", "--s", "3", "--t", "6"],
     "6f03e6a09f1fba1a9416a69dab89ee156a9813328d9db7730bdd10bcc4ca81c7"),
    (["triple", "--group", "ab:6", "--r", "2", "--s", "3", "--t", "6"],
     "2902f583063fa07978a8b8e7eafc5fd2f79d872f32872d3c22788f6af567a0a6"),
    (["search", "--group", "sym:5", "--strategy", "random",
      "--type1", "2,5,7", "--type2", "3,4,5"],
     "40c4e27afcbe4e33a4e5e603a61904ac90d26677e025994eeeab262fdecaba10"),
    (["search", "--group", "psl2:1000003", "--strategy", "random",
      "--type1", "2,3,7", "--type2", "3,3,4"],
     "bdf2fd286b7c7c490af839a2057141757e6cd7041d3cf6c0b123a368875204a4"),
]


@pytest.mark.parametrize("argv,digest", PINNED_DIGESTS,
                         ids=[" ".join(argv) for argv, _ in PINNED_DIGESTS])
def test_pinned_json_output(capsys, tmp_path, monkeypatch, argv, digest):
    monkeypatch.setenv("BEAUVILLE_CACHE_DIR", str(tmp_path))  # no stale table
    fmt = [] if "--format" in argv else ["--format", "json"]
    _, out = _run(capsys, argv + ["--no-timing"] + fmt)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("type1,type2", [("2,5,5", "3,5,5"), ("5,5,5", "3,3,5"),
                                         ("4,4,5", "3,5,5")])
def test_split_class_share_certificate_exits_1(capsys, type1, type2):
    code, doc = _run_json(capsys, ["search", "--group", "alt:6", "--strategy", "random",
                                   "--type1", type1, "--type2", type2])
    assert code == 1 and not doc["result"]["found"]
    assert "whose order 5 divides" in doc["result"]["certificate"]["unrealizable"]


@pytest.mark.parametrize("group,digest", [
    ("psl2:3^3", "3ad4748c13fba08092aa6318b4ffa4d1113c84b356d780d601b98194601c685f"),
    ("psl2:2^3", "037a85817b047d980a9c4bd100fcf0037494e9f3c2cb7bb15597321eb357ad71"),
])
def test_saved_character_table_is_pinned(capsys, tmp_path, monkeypatch, group, digest):
    """The saved payload, floats included, to the last bit."""
    monkeypatch.setenv("BEAUVILLE_CACHE_DIR", str(tmp_path))
    code, doc = _run_json(capsys, ["chartable", "--group", group, "--save"])
    with open(doc["result"]["saved"], "rb") as fh:
        assert code == 0 and hashlib.sha256(fh.read()).hexdigest() == digest


def test_tsv_formats(capsys):
    code, out = _run(capsys, ["estimate", "--group", "ab:5", "--samples", "200",
                              "--format", "tsv", "--no-timing"])
    assert out == "ab:5\t200\t1729\t4\t0.020000\t0.007804\t0.050287\n"
    code, out = _run(capsys, ["zeta", "--group", "alt:5", "--s", "2",
                              "--format", "tsv", "--no-timing"])
    assert out.startswith("alt:5\t2.0\t1.32472")


def test_text_format_renders(capsys):
    code, out = _run(capsys, ["triangle", "--r", "2", "--s", "3", "--t", "7"])
    assert code == 0
    assert "hyperbolic" in out
