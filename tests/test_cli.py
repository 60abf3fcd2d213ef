"""Command-line contract: report shapes, determinism, exit codes."""

import hashlib
import json
import re
import sys
from pathlib import Path
from time import monotonic

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from jsonschema import Draft202012Validator

from cyclestab.cli import main
from cyclestab.coloring import serialize_coloring, coloring_from_edges
from cyclestab.errors import (
    CycleStabError,
    GraphFormatError,
    HypothesisUnsatisfiableError,
    HypothesisViolatedError,
    InternalContradictionError,
    MalformedCertificateError,
    MonoCycleNotFoundError,
    NoSuchPathError,
    ParameterError,
    PreconditionError,
    SearchTimeout,
    SweepSpaceError,
)
from cyclestab.formats import to_edge_list, to_graph6
from cyclestab.graph import build_graph
from cyclestab.ramsey import RamseyCertificate
from cyclestab.stability import StabilityCertificate

from itertools import combinations

from conftest import complete, petersen, two_disjoint_cliques

REPORT_SCHEMA = Draft202012Validator(json.loads(
    (Path(__file__).parent.parent / "schema" / "report.schema.json").read_text()))


@pytest.fixture()
def files(tmp_path):
    paths = {}
    paths["petersen"] = tmp_path / "petersen.g6"
    paths["petersen"].write_text(to_graph6(petersen()) + "\n")
    paths["two13"] = tmp_path / "two13.edges"
    paths["two13"].write_text(to_edge_list(two_disjoint_cliques(13)))
    paths["k7"] = tmp_path / "k7.edges"
    paths["k7"].write_text(to_edge_list(complete(7)))
    u1, u2 = [1, 2, 3], [4, 5, 6, 7]
    red = list(combinations(u1, 2)) + list(combinations(u2, 2)) + [(0, v) for v in u1]
    blue = [(a, b) for a in u1 for b in u2] + [(0, v) for v in u2]
    paths["golden5"] = tmp_path / "golden5.col"
    paths["golden5"].write_text(serialize_coloring(coloring_from_edges(8, red, blue)))
    paths["allred"] = tmp_path / "allred.col"
    paths["allred"].write_text(
        serialize_coloring(coloring_from_edges(9, combinations(range(9), 2), [])))
    paths["tmp"] = tmp_path
    return paths


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_spectrum_petersen(files, capsys):
    code, out = _run(capsys, ["spectrum", "--graph", str(files["petersen"])])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["lengths"] == [5, 6, 8, 9]
    assert report["result"]["c"] == 9
    assert report["input_digest"].startswith("sha256:")


def test_stdout_byte_identical(files, capsys):
    _, first = _run(capsys, ["spectrum", "--graph", str(files["petersen"])])
    _, second = _run(capsys, ["spectrum", "--graph", str(files["petersen"])])
    assert first == second


def test_bounds_exit_zero(files, capsys):
    code, out = _run(capsys, ["bounds", "--graph", str(files["petersen"])])
    assert code == 0
    names = [b["name"] for b in json.loads(out)["result"]["bounds"]]
    assert names == ["erdos-gallai", "fan-lv-weng", "bollobas-pancyclicity"]


def test_paths_command(files, capsys):
    code, out = _run(capsys, ["paths", "--graph", str(files["petersen"]),
                              "--op", "ham", "--x", "0", "--y", "2"])
    assert code == 0
    assert json.loads(out)["result"]["path"]["order"] == 10


def test_paths_missing_flag(files, capsys):
    code, out = _run(capsys, ["paths", "--graph", str(files["petersen"]),
                              "--op", "ham", "--x", "0"])
    assert code == 2
    assert json.loads(out)["error_kind"] == "ParameterError"


def test_decompose_verify_round_trip(files, capsys):
    code, out = _run(capsys, ["decompose-thdc", "--graph", str(files["two13"]),
                              "--alpha", "2/100", "--beta", "5/100"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["branch"]["kind"] == "partition"
    assert report["checks"]["passed"] is True
    cert_file = files["tmp"] / "cert.json"
    cert_file.write_text(out)
    code, out = _run(capsys, ["verify", "--graph", str(files["two13"]),
                              "--certificate", str(cert_file)])
    assert code == 0
    assert json.loads(out)["result"]["passed"] is True


def test_verify_rejects_corrupted(files, capsys):
    code, out = _run(capsys, ["decompose-thdc", "--graph", str(files["two13"]),
                              "--alpha", "2/100", "--beta", "5/100"])
    report = json.loads(out)
    part1 = report["result"]["branch"]["part1"]
    part2 = report["result"]["branch"]["part2"]
    part2.append(part1.pop())  # move one vertex across the split
    cert_file = files["tmp"] / "bad.json"
    cert_file.write_text(json.dumps(report))
    code, out = _run(capsys, ["verify", "--graph", str(files["two13"]),
                              "--certificate", str(cert_file)])
    assert code == 1
    result = json.loads(out)["result"]
    assert result["passed"] is False
    failing = [c["name"] for c in result["checks"] if not c["holds"]]
    assert "structure-split" in failing


@pytest.mark.parametrize("argv", [
    ["decompose-cycth", "--gamma", "1/25"],
    ["decompose-th3par", "--alpha", "4/100", "--beta", "5/100"],
])
def test_other_decompositions_verify_round_trip(files, capsys, argv):
    code, out = _run(capsys, argv + ["--graph", str(files["two13"])])
    assert code == 0
    cert_file = files["tmp"] / "roundtrip.json"
    cert_file.write_text(out)
    code, out = _run(capsys, ["verify", "--graph", str(files["two13"]),
                              "--certificate", str(cert_file)])
    assert code == 0
    assert json.loads(out)["result"]["passed"] is True


def test_le4_command(files, capsys):
    k44 = files["tmp"] / "k44.edges"
    k44.write_text(to_edge_list(
        __import__("conftest").complete_bipartite(4, 4)))
    code, out = _run(capsys, ["le4", "--graph", str(k44)])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["u"] == 0 and result["star_edges"] == []
    code, out = _run(capsys, ["le4", "--graph", str(files["two13"])])
    assert code == 2


def test_verify_digest_mismatch(files, capsys):
    code, out = _run(capsys, ["decompose-thdc", "--graph", str(files["two13"]),
                              "--alpha", "2/100", "--beta", "5/100"])
    cert_file = files["tmp"] / "cert.json"
    cert_file.write_text(out)
    code, out = _run(capsys, ["verify", "--graph", str(files["petersen"]),
                              "--certificate", str(cert_file)])
    assert code == 2


def test_ramsey_cert_and_verify(files, capsys):
    code, out = _run(capsys, ["ramsey-cert", "--coloring", str(files["golden5"]),
                              "--n", "5", "--beta", "2/5"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["u"] == 0
    assert report["checks"]["passed"] is True
    cert_file = files["tmp"] / "rcert.json"
    cert_file.write_text(out)
    code, out = _run(capsys, ["verify", "--coloring", str(files["golden5"]),
                              "--certificate", str(cert_file)])
    assert code == 0


def _mutate(node, path, value, action="replace", key=None) -> None:
    """Below the JSON value ``node``, replace the value at key path
    ``path``, delete it, rename its key to ``key`` or add ``key`` beside it.
    In an array, "add" inserts ``value`` before it and "rename" replaces it."""
    *parents, last = path
    for step in parents:
        node = node[step]
    if action == "delete":
        del node[last]
    elif action == "replace" or not isinstance(node, dict):
        if action == "add":
            node.insert(last, value)
        else:
            node[last] = value
    elif action == "rename":
        node[key] = node.pop(last)
    else:
        node[key] = value


# the verify sources: a file of the ``files`` fixture, the flag that names
# it and the command whose valid report is mangled
_SOURCES = {
    "ramsey": ("--coloring", "golden5", ["ramsey-cert", "--n", "5", "--beta", "2/5"]),
    "decompose": ("--graph", "two13",
                  ["decompose-thdc", "--alpha", "2/100", "--beta", "5/100"]),
    "cycle": ("--graph", "k7", ["decompose-thdc", "--alpha", "2/100", "--beta", "5/100"]),
}
_MISTYPED = [(source, path, value) for value in ("a", 1.5, None, {}, True)
             for source, path in (("ramsey", ("u1", 0)), ("decompose", ("branch", "part1", 0)))]
_MISTYPED += [("ramsey", ("n",), 5.9), ("ramsey", ("checks", 0, "holds"), "false"),
              ("decompose", ("branch", "checks", 0, "name"), ["x"])]
# non-canonical spellings, unknown keys and the note's empty default
_MISTYPED += [("cycle", ("branch", "witnesses"), {key: list(range(7))})
              for key in (" 7", "+7", "07")]
_MISTYPED += [("ramsey", ("beta",), beta) for beta in (" 2/5", "0.4", "4/10", 0.4, True)]
_MISTYPED += [("ramsey", ("checks", 0, "lhs"), " 3/1"), ("ramsey", ("checks", 0, "note"), ""),
              ("ramsey", ("clique_color",), 0), ("ramsey", ("extra",), 0),
              ("cycle", ("branch", "claim"), 1), ("cycle", ("trace",), "abc"),
              ("cycle", ("trace",), [1, None])]


@pytest.mark.parametrize("source, path, value", _MISTYPED)
def test_verify_rejects_mistyped_field(files, capsys, source, path, value):
    # a vertex entry that is not a JSON integer, any other field of the
    # wrong JSON type, a non-canonical spelling or an unknown key is a
    # malformed certificate
    flag, name, argv = _SOURCES[source]
    code, out = _run(capsys, argv + [flag, str(files[name])])
    report = json.loads(out)
    _mutate(report["result"], path, value)
    cert_file = files["tmp"] / "mangled.json"
    cert_file.write_text(json.dumps(report))
    code, out = _run(capsys, ["verify", flag, str(files[name]),
                              "--certificate", str(cert_file)])
    assert code == 2
    assert json.loads(out)["error_kind"] == "MalformedCertificateError"


def test_ramsey_cert_hypothesis_unsatisfiable(files, capsys):
    allred8 = files["tmp"] / "allred8.col"
    allred8.write_text(
        serialize_coloring(coloring_from_edges(8, combinations(range(8), 2), [])))
    code, out = _run(capsys, ["ramsey-cert", "--coloring", str(allred8),
                              "--n", "5", "--beta", "2/5"])
    assert code == 2
    report = json.loads(out)
    assert report["error_kind"] == "hypothesis-unsatisfiable"
    assert len(report["mono_witness"]) == 5


def test_ramsey_sweep_cli(files, capsys):
    code, out = _run(capsys, ["ramsey-sweep", "--n", "4", "--beta", "1/2",
                              "--serial"])
    assert code == 0
    counts = json.loads(out)["result"]["counts"]
    assert counts == {"total": 32768, "mono_found": 32768,
                      "certificate_found": 0, "failures": 0}


def test_ramsey_sweep_space_guard(files, capsys):
    code, out = _run(capsys, ["ramsey-sweep", "--n", "7", "--beta", "3/7",
                              "--serial"])
    assert code == 2
    assert json.loads(out)["error_kind"] == "SweepSpaceError"


def test_ramsey_sweep_cycle_mask_guard(capsys):
    # C12 in K18 has about 3.7e11 cycles: refused before any is listed
    started = monotonic()
    code, out = _run(capsys, ["ramsey-sweep", "--n", "12", "--beta", "1/2",
                              "--mode", "sampled", "--samples", "1"])
    assert monotonic() - started < 1.0
    assert code == 2
    assert json.loads(out)["error_kind"] == "SweepSpaceError"


@pytest.mark.parametrize("extra", [["--serial"], ["--shards", "2"]],
                         ids=["in-process", "forked-pool"])
def test_ramsey_sweep_timeout(capsys, extra):
    # an expired deadline stops the K7 filter on its first node
    started = monotonic()
    code, out = _run(capsys, ["ramsey-sweep", "--n", "4", "--beta", "1/4",
                              "--timeout", "0"] + extra)
    assert monotonic() - started < 1.0
    assert code == 3
    report = json.loads(out)
    assert report["timeout"] is True
    assert report["message"] == "sweep exceeded its deadline"


def test_ramsey_sweep_override_space(capsys):
    # K9 has 36 edges, beyond the 30-edge guard; R(C5, C5) = 9, so the pruned
    # sweep cuts every branch and finishes in well under a second
    argv = ["ramsey-sweep", "--n", "5", "--beta", "1/5", "--mode", "exhaustive"]
    code, out = _run(capsys, argv)
    assert code == 2
    assert json.loads(out)["error_kind"] == "SweepSpaceError"
    started = monotonic()
    code, out = _run(capsys, argv + ["--override-space"])
    assert monotonic() - started < 30.0
    assert code == 0
    report = json.loads(out)
    assert report["parameters"]["p"] == 9
    assert report["result"]["counts"] == {"total": 1 << 36, "mono_found": 1 << 36,
                                          "certificate_found": 0, "failures": 0}


@pytest.mark.parametrize("extra", [["--serial"], ["--shards", "2"]],
                         ids=["in-process", "forked-pool"])
def test_arrth_timeout(capsys, extra):
    code, out = _run(capsys, ["arrth", "--n", "5", "--samples", "300", "--seed", "1",
                              "--timeout", "0"] + extra)
    assert code == 3
    report = json.loads(out)
    assert report["timeout"] is True
    assert report["message"] == "verdict sweep exceeded its deadline"


def _checkpoint(tmp_path, capsys):
    """A complete progress file of the 2-shard K6/C4 sweep."""
    path = tmp_path / "progress.txt"
    code, _ = _run(capsys, ["ramsey-sweep", "--n", "4", "--beta", "1/2",
                            "--shards", "2", "--checkpoint", str(path)])
    assert code == 0
    return path


def test_ramsey_sweep_checkpoint_needs_exhaustive(capsys, tmp_path):
    path = tmp_path / "progress.txt"
    code, out = _run(capsys, ["ramsey-sweep", "--n", "5", "--beta", "2/5",
                              "--mode", "sampled", "--samples", "10",
                              "--checkpoint", str(path)])
    assert code == 2
    assert json.loads(out)["error_kind"] == "ParameterError"
    assert not path.exists()


def test_ramsey_sweep_checkpoint_line_does_not_parse(capsys, tmp_path):
    path = _checkpoint(tmp_path, capsys)
    header = path.read_text().splitlines()[0]
    path.write_text(header + "\nx y z\n")
    code, out = _run(capsys, ["ramsey-sweep", "--n", "4", "--beta", "1/2",
                              "--shards", "2", "--checkpoint", str(path)])
    assert code == 2
    assert json.loads(out)["error_kind"] == "ParameterError"


# the 2-shard K6/C4 sweep: 15 edges, shards of counters 0..8191 and
# 8192..16383, every coloring monochromatic
@pytest.mark.parametrize("line", [
    "2 8191 0",  # index outside the shard list
    "0 99999999 5",  # last counter outside the shard
    "1 8190 0",  # last counter below the shard's first counter - 1
    "0 99 5",  # counts do not add up to the counters done
    "0 1 1 2",  # an even mask: its first edge is not red
    "0 1 1 10001",  # a mask of more than 15 edges
], ids=["index", "last-above", "last-below", "counts", "even-mask", "wide-mask"])
def test_ramsey_sweep_checkpoint_line_inconsistent(capsys, tmp_path, line):
    path = _checkpoint(tmp_path, capsys)
    header = path.read_text().splitlines()[0]
    path.write_text(f"{header}\n{line}\n")
    code, out = _run(capsys, ["ramsey-sweep", "--n", "4", "--beta", "1/2",
                              "--shards", "2", "--checkpoint", str(path)])
    assert code == 2
    assert json.loads(out)["error_kind"] == "ParameterError"


def test_arrth_single(files, capsys):
    code, out = _run(capsys, ["arrth", "--coloring", str(files["allred"])])
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "red"


def test_arrth_sampled(files, capsys):
    code, out = _run(capsys, ["arrth", "--n", "4", "--samples", "25",
                              "--seed", "5", "--serial"])
    assert code == 0
    counts = json.loads(out)["result"]["counts"]
    assert sum(counts.values()) == 25


def test_csv_format(files, capsys):
    code, out = _run(capsys, ["spectrum", "--graph", str(files["petersen"]),
                              "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "key,value"
    assert any(line.startswith("result.c,9") for line in out.splitlines())


def test_unreadable_file(files, capsys):
    code, out = _run(capsys, ["spectrum", "--graph", str(files["tmp"] / "nope.g6")])
    assert code == 2


def test_malformed_graph(files, capsys):
    bad = files["tmp"] / "bad.edges"
    bad.write_text("2 1\n0 2\n")
    code, out = _run(capsys, ["spectrum", "--graph", str(bad)])
    assert code == 2
    assert json.loads(out)["error_kind"] == "GraphFormatError"


def test_non_utf8_input(files, capsys):
    bad = files["tmp"] / "bad.bin"
    bad.write_bytes(b"\xff\xfe\n")
    for argv in (["spectrum", "--graph", str(bad)],
                 ["ramsey-cert", "--coloring", str(bad), "--n", "5", "--beta", "2/5"],
                 ["verify", "--coloring", str(bad), "--certificate", str(bad)]):
        code, out = _run(capsys, argv)
        assert code == 2
        assert json.loads(out)["error_kind"] == "GraphFormatError"


@pytest.mark.parametrize("argv", [
    ["ramsey-sweep", "--n", "4", "--beta", "1/2", "--serial"],
    ["arrth", "--n", "4", "--samples", "5", "--serial"],
], ids=["ramsey-sweep", "arrth"])
@pytest.mark.parametrize("shards", ["0", "-2"])
def test_nonpositive_shards(capsys, argv, shards):
    code, out = _run(capsys, argv + ["--shards", shards])
    assert code == 2
    assert json.loads(out)["error_kind"] == "ParameterError"


@pytest.mark.parametrize("argv", [
    ["ramsey-sweep", "--n", "4", "--beta", "1/2", "--serial"],
    ["arrth", "--n", "4", "--samples", "5", "--serial"],
], ids=["ramsey-sweep", "arrth"])
def test_shard_count_capped(capsys, argv):
    # the shard list is built whole, so a huge count is refused before it is
    from cyclestab.ramsey import MAX_SHARDS

    for shards in (MAX_SHARDS + 1, 10**9):
        started = monotonic()
        code, out = _run(capsys, argv + ["--shards", str(shards)])
        assert monotonic() - started < 1.0
        assert code == 2
        report = json.loads(out)
        assert report["error_kind"] == "ParameterError"
        assert report["error"] == f"shard count must be at most {MAX_SHARDS}, got {shards}"


def test_threads_variable_ignored(files, capsys, monkeypatch):
    # the shard count has one source, --shards; a stray environment
    # variable of the old name neither sets it nor breaks the parser
    monkeypatch.setenv("CYCLESTAB_THREADS", "abc")
    code, out = _run(capsys, ["spectrum", "--graph", str(files["petersen"])])
    assert code == 0
    assert json.loads(out)["result"]["c"] == 9
    code, out = _run(capsys, ["ramsey-sweep", "--n", "4", "--beta", "1/2", "--serial"])
    assert code == 0
    assert json.loads(out)["parameters"]["shards_requested"] == 1


def test_bounds_one_longest_cycle_search(files, capsys, monkeypatch):
    from cyclestab import _kernel

    k6 = files["tmp"] / "k6.g6"
    k6.write_text(to_graph6(complete(6)) + "\n")
    calls = []
    search = _kernel.find_longest_cycle
    monkeypatch.setattr(_kernel, "find_longest_cycle",
                        lambda *args: calls.append(args) or search(*args))
    code, out = _run(capsys, ["bounds", "--graph", str(k6)])
    assert code == 0
    assert all(b["applicable"] for b in json.loads(out)["result"]["bounds"])
    assert len(calls) == 1


def test_bounds_one_block_search(files, capsys, monkeypatch):
    # K6 is one block, so every block DFS over it closes exactly one Block;
    # the 2-connectivity test and the cycle bounds share one DFS
    from cyclestab import graph

    k6 = files["tmp"] / "k6.g6"
    k6.write_text(to_graph6(complete(6)) + "\n")
    closed = []
    block = graph.Block
    monkeypatch.setattr(graph, "Block", lambda *args: closed.append(args) or block(*args))
    code, out = _run(capsys, ["bounds", "--graph", str(k6)])
    assert code == 0
    assert all(b["applicable"] for b in json.loads(out)["result"]["bounds"])
    assert len(closed) == 1


def test_timeout_exit_code(files, capsys, tmp_path):
    # a 7x7 grid forces a long longest-cycle search; 0 seconds must time out
    side = 7
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1))
            if r + 1 < side:
                edges.append((v, v + side))
    grid = tmp_path / "grid.edges"
    grid.write_text(to_edge_list(build_graph(side * side, edges)))
    code, out = _run(capsys, ["spectrum", "--graph", str(grid), "--timeout", "0"])
    assert code == 3
    assert json.loads(out)["timeout"] is True


def test_enforce_paper_range_exit(files, capsys):
    code, out = _run(capsys, ["decompose-thdc", "--graph", str(files["two13"]),
                              "--alpha", "2/100", "--beta", "0",
                              "--enforce-paper-range"])
    assert code == 2


def test_zero_denominator_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ramsey-cert", "--coloring", "c.col", "--n", "5", "--beta", "1/0"])
    assert exc.value.code == 2
    assert "argument --beta: invalid Fraction value: '1/0'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "NaN", "+nan"])
def test_nan_timeout_is_usage_error(capsys, value):
    # no clock reading exceeds NaN, so it would turn the deadline off
    with pytest.raises(SystemExit) as exc:
        main(["ramsey-sweep", "--n", "4", "--beta", "1/4", "--timeout", value, "--serial"])
    assert exc.value.code == 2
    assert f"argument --timeout: invalid float value: '{value}'" in capsys.readouterr().err


# -- the parser's text and the error reports ---------------------------------

_COMMAND_NAMES = ("spectrum", "bounds", "paths", "decompose-thdc", "decompose-cycth",
                  "decompose-th3par", "le4", "ramsey-cert", "ramsey-sweep", "arrth",
                  "verify")
_TEXT_ARGVS = [[], ["--help"], ["--version"]] + [
    argv for name in _COMMAND_NAMES
    for argv in ([name, "--help"], [name], [name, "--bogus"])] + [
    ["spectrum", "--graph", "g.g6", "--format", "xml"],
    ["paths", "--graph", "g.g6", "--op", "walk"],
    ["ramsey-sweep", "--n", "4", "--beta", "1/2", "--mode", "random"],
    ["ramsey-sweep", "--n", "four", "--beta", "1/2"],
    ["decompose-thdc", "--graph", "g.g6", "--alpha", "x"],
    ["spectrum", "--graph", "g.g6", "--timeout", "soon"],
]


def _text_outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    err = re.sub(r"wall_seconds: \d+\.\d+", "wall_seconds: -", captured.err)
    return code, captured.out, err


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse words its help differently in other Python versions")
def test_cli_text_frozen(capsys, monkeypatch):
    # help, version, usage errors and their exit codes, byte for byte, under
    # Python 3.11's argparse on an 80-column terminal
    monkeypatch.setenv("COLUMNS", "80")
    assert len(_TEXT_ARGVS) == 42
    outcomes = [_text_outcome(capsys, argv) for argv in _TEXT_ARGVS]
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == "a39433c039a5054a7297fd5015dbacb17ab5d5f55eca8c5ce66be3bea961c894"


# argv shapes that main tells apart by their first token: an option before
# or after a command, a name that is not a command or only abbreviates one,
# and a command followed by arguments that only the top-level parser reports
_DISPATCH_ARGVS = [
    ["spectrum", "--version"], ["--version", "spectrum"], ["-h", "ramsey-cert"],
    ["bogus"], ["ramsey"],
    ["ramsey-cert", "--coloring", "c", "--n", "5", "--beta", "1/4", "extra"],
    ["spectrum", "--graph", "g", "x", "y"],
    ["arrth", "--n", "4", "--zzz"],
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse words its help differently in other Python versions")
def test_cli_dispatch_text_frozen(capsys, monkeypatch):
    # the same texts and exit codes whether main builds one subparser or all
    monkeypatch.setenv("COLUMNS", "80")
    outcomes = [_text_outcome(capsys, argv) for argv in _DISPATCH_ARGVS]
    assert [code for code, _, _ in outcomes] == [2, 0, 0, 2, 2, 2, 2, 2]
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == "23495a76c0834b8da0f01fb086e5b8ac3cd27ddc7a4c53b4f11ec232b6b2a35c"


@pytest.mark.parametrize("argv, built", [
    (["ramsey-cert", "--coloring", "c.col", "--n", "5", "--beta", "1/4"], 1),
    (["--help"], 11),
])
@pytest.mark.parametrize("console", [False, True])
def test_main_builds_only_the_named_subparser(capsys, monkeypatch, argv, built,
                                              console):
    # main builds the one subparser its command needs (all of them when argv
    # names none), from its argument or, as the console script calls it,
    # from sys.argv
    import argparse

    calls = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        calls.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    if console:
        monkeypatch.setattr(sys, "argv", ["cyclestab", *argv])
    try:
        main(None if console else argv)
    except SystemExit:
        pass
    capsys.readouterr()
    assert len(calls) == built
    if built == 1:
        assert calls == [argv[0]]


# (raised error, exit code, report keys after command and error; None for
# the timeout report)
_ERROR_CASES = [
    (CycleStabError("e"), 2, {"error_kind": "CycleStabError"}),
    (GraphFormatError("e"), 2, {"error_kind": "GraphFormatError"}),
    (ParameterError("e"), 2, {"error_kind": "ParameterError"}),
    (HypothesisViolatedError("e"), 2, {"error_kind": "HypothesisViolatedError"}),
    (NoSuchPathError("e"), 2, {"error_kind": "NoSuchPathError"}),
    (PreconditionError("which", "e"), 2, {"error_kind": "PreconditionError"}),
    (HypothesisUnsatisfiableError("e", "red", (0, 1, 2)), 2,
     {"error_kind": "hypothesis-unsatisfiable", "mono_color": "red",
      "mono_witness": [0, 1, 2]}),
    (MonoCycleNotFoundError("e"), 2, {"error_kind": "MonoCycleNotFoundError"}),
    (InternalContradictionError("e"), 1, {"error_kind": "internal-contradiction"}),
    (MalformedCertificateError("e"), 2, {"error_kind": "MalformedCertificateError"}),
    (SweepSpaceError("e"), 2, {"error_kind": "SweepSpaceError"}),
    (SearchTimeout("e"), 3, None),
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_library_error_reports(files, capsys, monkeypatch, fmt):
    # every library error leaves the command as one report with its exit code
    from cyclestab import cli

    assert {type(exc) for exc, _, _ in _ERROR_CASES} == {
        CycleStabError, *CycleStabError.__subclasses__()}
    for exc, expected_code, extra in _ERROR_CASES:
        def fail(*args, exc=exc):
            raise exc
        monkeypatch.setattr(cli, "cycle_spectrum", fail)
        code, out = _run(capsys, ["spectrum", "--graph", str(files["petersen"]),
                                  "--format", fmt])
        assert code == expected_code, type(exc)
        if extra is None:
            expected = {"command": "spectrum", "timeout": True, "message": "e"}
        else:
            expected = {"command": "spectrum", "error": "e", **extra}
        if fmt == "json":
            assert list(json.loads(out).items()) == list(expected.items())
        else:
            assert out == cli.payload_to_csv(expected)


# -- exit-code contract for malformed input ---------------------------------

_TOKENS = st.one_of(
    st.integers(-3, 70).map(str),
    st.sampled_from(["", "R", "B", "X", "1e3", "0x10", "+2", "1_0", "\u0663", "\u00b2",
                     "99999999999999999999", ">>graph6<<", "~~", "~"]))


@st.composite
def _small_graph(draw):
    n = draw(st.integers(0, 10))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_graph(n, edges)


@st.composite
def _truncated_graph6(draw):
    line = to_graph6(draw(_small_graph()))
    if draw(st.booleans()):
        line = ">>graph6<<" + line
    cut = draw(st.one_of(st.just(len(line)), st.integers(0, len(line))))
    return line[:cut] + "\n"


@st.composite
def _mangled_lines(draw):
    """An edge list or a coloring of a small complete host, with up to four
    lines dropped or repeated and tokens replaced or appended."""
    if draw(st.booleans()):
        text = to_edge_list(draw(_small_graph()))
    else:
        p = draw(st.integers(1, 9))
        pairs = list(combinations(range(p), 2))
        red = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        text = serialize_coloring(coloring_from_edges(
            p, sorted(red), [e for e in pairs if e not in red]))
    rows = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(rows) - 1))
        action = draw(st.sampled_from(["drop", "repeat", "token", "append"]))
        if action == "drop" and len(rows) > 1:
            del rows[i]
        elif action == "repeat":
            rows.insert(i, list(rows[i]))
        elif action == "token" and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(_TOKENS)
        else:
            rows[i].append(draw(_TOKENS))
    return "\n".join(" ".join(row) for row in rows) + "\n"


_INPUTS = st.one_of(st.binary(max_size=48), _truncated_graph6().map(str.encode),
                    _mangled_lines().map(str.encode))
_ARGVS = st.one_of(
    st.sampled_from([["spectrum", "--graph"], ["bounds", "--graph"]]),
    st.tuples(st.integers(3, 6), st.sampled_from(["0", "1/5", "2/5", "1/2", "1", "3/2"]))
    .map(lambda nb: ["ramsey-cert", "--n", str(nb[0]), "--beta", nb[1], "--coloring"]))


# the verify branch mangles a valid report of one of the _SOURCES under
# "result": it replaces or deletes one value, renames its key or adds a key
# beside it
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 70), st.floats(), st.text(max_size=3),
    st.sampled_from([[], {}, [0], {"0": 0}]))
_KEYS = st.one_of(st.text(max_size=3), st.sampled_from(["kind", "note", "n", "7", "07"]))
_VERIFY_CASES = st.tuples(
    st.sampled_from(sorted(_SOURCES)), st.integers(0, 10**6),
    st.sampled_from(["replace", "delete", "rename", "add"]), _KEYS, _JSON_VALUES)


def _json_paths(node, prefix=()):
    """The key path of every value below ``node``, in document order."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.one_of(st.tuples(_INPUTS, _ARGVS), _VERIFY_CASES))
def test_malformed_input_exit_contract(files, capsys, case):
    # any input maps to a documented exit code and one schema-valid JSON
    # report; an uncaught exception would fail the call itself
    path = files["tmp"] / "input"
    if isinstance(case[0], bytes):
        data, argv = case
    else:
        source, index, action, key, value = case
        flag, name, source_argv = _SOURCES[source]
        argv = [flag, str(files[name])]
        assert main(source_argv + argv) == 0
        report = json.loads(capsys.readouterr().out)
        paths = list(_json_paths(report["result"]))
        _mutate(report["result"], paths[index % len(paths)], value, action, key)
        data = json.dumps(report).encode()
        argv = ["verify"] + argv + ["--certificate"]
    path.write_bytes(data)
    code = main(argv + [str(path), "--timeout", "1"])
    captured = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in captured.out + captured.err
    report = json.loads(captured.out)
    assert [e.message for e in REPORT_SCHEMA.iter_errors(report)] == []
    if argv[0] == "verify" and code in (0, 1):
        # the reader accepted the mangled certificate, so it is canonical
        result = json.loads(data)["result"]
        cls = RamseyCertificate if source == "ramsey" else StabilityCertificate
        again = cls.from_payload(result).to_payload()
        assert json.dumps(again, sort_keys=True) == json.dumps(result, sort_keys=True)
