"""Every report kind the CLI prints conforms to schema/report.schema.json."""

import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from cyclestab.cli import _COMMANDS, main
from cyclestab.coloring import coloring_from_edges, parse_coloring, serialize_coloring
from cyclestab.errors import MalformedCertificateError
from cyclestab.formats import to_edge_list, to_graph6
from cyclestab.ramsey import RamseyCertificate, ramsey_certificate
from cyclestab.stability import (
    DecompositionParams,
    StabilityCertificate,
    decompose_two_parts,
)

from conftest import complete, complete_bipartite, petersen, two_disjoint_cliques

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "schema" / "report.schema.json").read_text())
Draft202012Validator.check_schema(SCHEMA)

# the result shape each command's report names in $defs, where there is one
RESULT_DEFS = {
    "decompose-thdc": "stability_certificate",
    "decompose-cycth": "stability_certificate",
    "decompose-th3par": "stability_certificate",
    "ramsey-cert": "ramsey_certificate",
    "ramsey-sweep": "sweep_result",
    "verify": "check_report",
}


def _validator(ref=None):
    if ref is None:
        return Draft202012Validator(SCHEMA)
    return Draft202012Validator({"$defs": SCHEMA["$defs"], "$ref": f"#/$defs/{ref}"})


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("schema")
    paths = {"tmp": tmp}
    paths["petersen"] = tmp / "petersen.g6"
    paths["petersen"].write_text(to_graph6(petersen()) + "\n")
    paths["two13"] = tmp / "two13.edges"
    paths["two13"].write_text(to_edge_list(two_disjoint_cliques(13)))
    paths["k44"] = tmp / "k44.edges"
    paths["k44"].write_text(to_edge_list(complete_bipartite(4, 4)))
    u1, u2 = [1, 2, 3], [4, 5, 6, 7]
    red = list(combinations(u1, 2)) + list(combinations(u2, 2)) + [(0, v) for v in u1]
    blue = [(a, b) for a in u1 for b in u2] + [(0, v) for v in u2]
    paths["golden5"] = tmp / "golden5.col"
    paths["golden5"].write_text(serialize_coloring(coloring_from_edges(8, red, blue)))
    for p in (8, 9):
        paths[f"allred{p}"] = tmp / f"allred{p}.col"
        paths[f"allred{p}"].write_text(
            serialize_coloring(coloring_from_edges(p, combinations(range(p), 2), [])))
    return paths


def _report(capsys, argv, expected_code):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expected_code, out
    return json.loads(out)


def _assert_valid(report):
    errors = [e.message for e in _validator().iter_errors(report)]
    assert errors == []
    ref = RESULT_DEFS.get(report["command"])
    if ref is not None and "result" in report:
        errors = [e.message for e in _validator(ref).iter_errors(report["result"])]
        assert errors == [], ref


RUNS = {
    "spectrum": (["spectrum", "--graph", "{petersen}"], 0),
    "bounds": (["bounds", "--graph", "{petersen}"], 0),
    "paths": (["paths", "--graph", "{petersen}", "--op", "ham", "--x", "0", "--y", "2"], 0),
    "decompose-thdc": (["decompose-thdc", "--graph", "{two13}",
                        "--alpha", "2/100", "--beta", "5/100"], 0),
    "decompose-cycth": (["decompose-cycth", "--graph", "{two13}", "--gamma", "1/25"], 0),
    "decompose-th3par": (["decompose-th3par", "--graph", "{two13}",
                          "--alpha", "4/100", "--beta", "5/100"], 0),
    "le4": (["le4", "--graph", "{k44}"], 0),
    "ramsey-cert": (["ramsey-cert", "--coloring", "{golden5}", "--n", "5", "--beta", "2/5"], 0),
    "ramsey-sweep-exhaustive": (["ramsey-sweep", "--n", "4", "--beta", "1/2", "--serial"], 0),
    "ramsey-sweep-sampled": (["ramsey-sweep", "--n", "5", "--beta", "2/5", "--mode", "sampled",
                              "--samples", "50", "--seed", "3", "--serial"], 0),
    "arrth-single": (["arrth", "--coloring", "{allred9}"], 0),
    "arrth-sampled": (["arrth", "--n", "4", "--samples", "20", "--seed", "5", "--serial"], 0),
    "checkpoint-refusal": (["ramsey-sweep", "--n", "5", "--beta", "2/5", "--mode", "sampled",
                            "--samples", "10", "--checkpoint", "{tmp}/progress.txt"], 2),
    "hypothesis-unsatisfiable": (["ramsey-cert", "--coloring", "{allred8}",
                                  "--n", "5", "--beta", "2/5"], 2),
    "timeout": (["ramsey-sweep", "--n", "4", "--beta", "1/4", "--timeout", "0",
                 "--serial"], 3),
}


def test_every_command_has_a_run():
    # verify's runs are in test_verify_report_conforms
    assert {argv[0] for argv, _ in RUNS.values()} | {"verify"} == set(_COMMANDS)


@pytest.mark.parametrize("name", list(RUNS))
def test_report_conforms(inputs, capsys, name):
    argv, code = RUNS[name]
    argv = [a.format(**inputs) for a in argv]
    _assert_valid(_report(capsys, argv, code))


def test_verify_report_conforms(inputs, capsys):
    for argv, target in (
            (["decompose-thdc", "--graph", str(inputs["two13"]),
              "--alpha", "2/100", "--beta", "5/100"], ["--graph", str(inputs["two13"])]),
            (["ramsey-cert", "--coloring", str(inputs["golden5"]), "--n", "5",
              "--beta", "2/5"], ["--coloring", str(inputs["golden5"])])):
        report = _report(capsys, argv, 0)
        cert = inputs["tmp"] / "cert.json"
        cert.write_text(json.dumps(report))
        _assert_valid(_report(capsys, ["verify", "--certificate", str(cert), *target], 0))


# spellings the certificate reader rejects: rationals that are not
# frac_str's "num/den" in lowest terms, witness keys that are not the decimal
# cycle length
_SPELLINGS = [("rational", v) for v in (" 2/5", "+2/5", "02/5", "0.4", "2/-5", "-0/1",
                                       "4/10", "2/5\n")]
_SPELLINGS += [("witness-key", v) for v in (" 7", "+7", "07", "0", "7\n")]


@pytest.mark.parametrize("where, spelling", _SPELLINGS)
def test_schema_rejects_what_the_reader_rejects(inputs, where, spelling):
    # the schema's patterns match the reader's, except that lowest terms are
    # beyond a pattern: "4/10" is rejected by the reader alone
    if where == "rational":
        coloring = parse_coloring(inputs["golden5"].read_text())
        cls, ref = RamseyCertificate, "ramsey_certificate"
        payload = ramsey_certificate(coloring, 5, Fraction(2, 5)).to_payload()
        payload["beta"] = spelling
    else:
        cls, ref = StabilityCertificate, "stability_certificate"
        payload = decompose_two_parts(complete(7), DecompositionParams(
            alpha=Fraction(2, 100), beta=Fraction(5, 100))).to_payload()
        payload["branch"]["witnesses"] = {spelling: payload["branch"]["witnesses"]["7"]}
    with pytest.raises(MalformedCertificateError):
        cls.from_payload(payload)
    schema_errors = list(_validator(ref).iter_errors(payload))
    assert (schema_errors == []) == (spelling == "4/10")
