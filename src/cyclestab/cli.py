"""Command-line front end.

Every run prints one JSON (or CSV) report to stdout: command, input
digest, parameters, result payload, and the verifier's checks where a
certificate was produced.  Stdout is byte-identical for identical inputs,
parameters, and seed; wall-clock timing goes to stderr (or into the
report with --timing, which opts out of byte-stability).

Each command is one entry of ``_COMMANDS``: its help text, its handler
and its options; the options that commands share (the input file,
--timeout, --format, --timing, the decomposition and Ramsey parameters)
are written once above it, and ``build_parser`` loops over it.  A handler
gets the arguments and the run's deadline (--timeout seconds after the
arguments parse) and returns (report, exit code) or raises a library
error.  ``main`` turns the error into the report: a SearchTimeout gives
the timeout report (the command, ``timeout`` and the message); any other
error reports its message under its class name, or under the kind that
``_ERROR_KINDS`` gives it (an unsatisfiable hypothesis also carries its
monochromatic witness).

``build_parser`` builds only the subparser of the command that argv's
first token names: building all eleven cost more than the run of a small
command.  When that token names no command (``--help``, ``--version``, no
arguments, an unknown or abbreviated name) it builds them all.  A
one-command parser gives ``add_subparsers`` a metavar that lists every
command, so the usage line of its unrecognised-arguments error is the
full parser's; the full parser keeps the default metavar, under which a
missing command is reported as "command".  Help text, usage errors and
exit codes are the same either way.

Exit codes: 0 success / certificate verified; 1 verification failure,
counterexample exemplar or internal contradiction; 2 input or parameter
error; 3 timeout, with the timeout report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from time import monotonic

from . import __version__
from ._kernel import backend_name
from .coloring import parse_coloring
from .cycles import (
    check_bollobas_pancyclicity,
    check_erdos_gallai,
    check_fan_lv_weng,
    cycle_spectrum,
)
from .errors import (
    CycleStabError,
    GraphFormatError,
    HypothesisUnsatisfiableError,
    InternalContradictionError,
    MalformedCertificateError,
    ParameterError,
    SearchTimeout,
)
from .formats import parse_graph
from .paths import (
    bipartite_even_cycle,
    bipartite_path,
    hamiltonian_path_between,
    near_spanning_paths,
)
from .ramsey import (
    RamseyCertificate,
    extract_biclique_partition,
    pancyclic_color_verdict,
    ramsey_certificate,
    ramsey_sweep,
    verdict_sample_sweep,
    verify_ramsey_certificate,
)
from .reporting import canonical_json, content_digest, frac_str
from .stability import (
    DecompositionParams,
    StabilityCertificate,
    decompose_three_parts,
    decompose_two_parts,
    decompose_vertex_split,
    verify_stability_certificate,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_TIMEOUT = 3


def _number(parse, name: str):
    """An argparse type: a value that ``parse`` rejects (a zero denominator
    included) is a usage error like any other, not a traceback.  So is NaN:
    no clock reading exceeds it, so a NaN deadline would never expire."""
    def convert(text: str):
        try:
            value = parse(text)
        except (ValueError, ZeroDivisionError):
            value = math.nan
        if value != value:
            raise argparse.ArgumentTypeError(f"invalid {name} value: {text!r}")
        return value
    return convert


_fraction = _number(Fraction, "Fraction")
_seconds = _number(float, "float")


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for ``argv`` (``sys.argv[1:]`` when None): with only the
    subparser of the command that its first token names, or with all of
    them when that token names none."""
    if argv is None:
        argv = sys.argv[1:]
    parser = argparse.ArgumentParser(
        prog="cyclestab",
        description="Exact cycle spectra, stability decompositions, and "
                    "Ramsey coloring sweeps on graphs of up to 64 vertices.")
    parser.add_argument("--version", action="version", version=__version__)
    names, metavar = _COMMANDS, None
    if argv and argv[0] in _COMMANDS:
        # the usage line of an unrecognised-arguments error still lists them all
        names, metavar = (argv[0],), "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, _, options = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return parser


def _read_text(path: str) -> tuple[bytes, str]:
    """The file's bytes (for the input digest) and its text."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from exc
    try:
        return data, data.decode()
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path} is not UTF-8 text: {exc}") from exc


def _load(path: str, parse):
    """The input file's digest, and its graph or coloring from ``parse``."""
    data, text = _read_text(path)
    return content_digest(data), parse(text)


def _flatten(payload, prefix="", rows=None):
    if rows is None:
        rows = []
    if isinstance(payload, dict):
        for key, value in payload.items():
            path = f"{prefix}{key}"
            if isinstance(value, (dict, list)):
                _flatten(value, path + ".", rows)
            else:
                rows.append((path, value))
    elif isinstance(payload, list):
        if all(not isinstance(v, (dict, list)) for v in payload):
            rows.append((prefix.rstrip("."), ";".join(str(v) for v in payload)))
        else:
            for i, value in enumerate(payload):
                _flatten(value, f"{prefix}{i}.", rows)
    else:
        rows.append((prefix.rstrip("."), payload))
    return rows


def payload_to_csv(payload: dict) -> str:
    rows = _flatten(payload)
    lines = ["key,value"]
    for key, value in rows:
        text = "" if value is None else str(value)
        if "," in text or '"' in text or "\n" in text:
            text = '"' + text.replace('"', '""') + '"'
        lines.append(f"{key},{text}")
    return "\n".join(lines) + "\n"


def _emit(report: dict, args, wall: float) -> None:
    if args.timing:
        report.setdefault("meta", {})["wall_seconds"] = round(wall, 3)
    text = canonical_json(report) if args.format == "json" else payload_to_csv(report)
    sys.stdout.write(text)
    sys.stderr.write(f"wall_seconds: {wall:.3f}\n")


def _report_skeleton(args, digest, parameters, result, checks=None) -> dict:
    return {
        "command": args.command,
        "input_digest": digest,
        "parameters": parameters,
        "result": result,
        "checks": checks,
        "meta": {"tool_version": __version__, "backend": backend_name},
    }


def _run_spectrum(args, deadline):
    digest, g = _load(args.graph, parse_graph)
    report = cycle_spectrum(g, deadline)
    return _report_skeleton(args, digest, {}, report.to_payload()), EXIT_OK


def _run_bounds(args, deadline):
    digest, g = _load(args.graph, parse_graph)
    reports = [check_erdos_gallai(g, deadline), check_fan_lv_weng(g, deadline),
               check_bollobas_pancyclicity(g, deadline)]
    failed = [r.name for r in reports if r.applicable and not r.passed]
    result = {"bounds": [r.to_payload() for r in reports]}
    return _report_skeleton(args, digest, {}, result), EXIT_FAIL if failed else EXIT_OK


def _run_paths(args, deadline):
    digest, g = _load(args.graph, parse_graph)
    parameters = {"op": args.op}
    for name in ("x", "y", "t"):
        if getattr(args, name) is not None:
            parameters[name] = getattr(args, name)
    if args.op == "ham":
        if args.x is None or args.y is None:
            raise ParameterError("--x and --y are required for op ham")
        result = hamiltonian_path_between(g, args.x, args.y, deadline).to_payload()
    elif args.op == "near":
        if args.x is None or args.y is None:
            raise ParameterError("--x and --y are required for op near")
        result = near_spanning_paths(g, args.x, args.y, deadline).to_payload()
    elif args.op == "bip-path":
        if args.x is None or args.y is None or args.t is None:
            raise ParameterError("--x, --y and --t are required for op bip-path")
        result = bipartite_path(g, args.x, args.y, args.t).to_payload()
    else:
        if args.t is None:
            raise ParameterError("--t is required for op bip-cycle")
        result = {"cycle": list(bipartite_even_cycle(g, args.t))}
    return _report_skeleton(args, digest, parameters, result), EXIT_OK


def _run_decompose(args, deadline):
    digest, g = _load(args.graph, parse_graph)
    if args.command == "decompose-cycth":
        parameters = {"gamma": frac_str(args.gamma),
                      "enforce_paper_range": args.enforce_paper_range}
        cert = decompose_vertex_split(g, args.gamma, args.enforce_paper_range,
                                      deadline)
    else:
        params = DecompositionParams(alpha=args.alpha, beta=args.beta,
                                     enforce_paper_range=args.enforce_paper_range)
        parameters = {"alpha": frac_str(args.alpha), "beta": frac_str(args.beta),
                      "enforce_paper_range": args.enforce_paper_range}
        if args.command == "decompose-thdc":
            cert = decompose_two_parts(g, params, deadline)
        else:
            cert = decompose_three_parts(g, params, deadline)
    checks = None
    code = EXIT_OK
    if cert.branch.kind != "stuck":
        report = verify_stability_certificate(g, cert)
        checks = report.to_payload()
        if not report.passed:
            code = EXIT_FAIL
    return _report_skeleton(args, digest, parameters, cert.to_payload(), checks), code


def _run_le4(args, deadline):
    digest, g = _load(args.graph, parse_graph)
    ext = extract_biclique_partition(g, deadline)
    return _report_skeleton(args, digest, {}, ext.to_payload()), EXIT_OK


def _run_ramsey_cert(args, deadline):
    digest, col = _load(args.coloring, parse_coloring)
    parameters = {"n": args.n, "beta": frac_str(args.beta)}
    cert = ramsey_certificate(col, args.n, args.beta, deadline)
    report = verify_ramsey_certificate(col, cert, deadline)
    code = EXIT_OK if report.passed else EXIT_FAIL
    return _report_skeleton(args, digest, parameters, cert.to_payload(),
                            report.to_payload()), code


def _run_ramsey_sweep(args, deadline):
    report = ramsey_sweep(args.n, args.beta, args.mode, samples=args.samples,
                          shards=args.shards, seed=args.seed,
                          space_override=args.override_space,
                          parallel=not args.serial, checkpoint=args.checkpoint,
                          deadline=deadline)
    result = report.to_payload()
    result["counts_sum_to_total"] = report.counts_sum_ok()
    parameters = dict(result["parameters"], shards_requested=args.shards)
    code = EXIT_FAIL if report.failures else EXIT_OK
    sys.stderr.write(f"shard_layout: {[list(r) for r in report.shard_ranges]}\n")
    return _report_skeleton(args, "sha256:-", parameters, result), code


def _run_arrth(args, deadline):
    if args.coloring is not None:
        digest, col = _load(args.coloring, parse_coloring)
        verdict = pancyclic_color_verdict(col, deadline)
        return _report_skeleton(args, digest, {}, verdict.to_payload()), EXIT_OK
    if args.n is None or args.samples <= 0:
        raise ParameterError("arrth needs --coloring, or --n with --samples")
    report = verdict_sample_sweep(2 * args.n - 1, args.samples, seed=args.seed,
                                  shards=args.shards, parallel=not args.serial,
                                  deadline=deadline)
    result = report.to_payload()
    return _report_skeleton(args, "sha256:-", result["parameters"], result), EXIT_OK


def _run_verify(args, deadline):
    _, cert_text = _read_text(args.certificate)
    try:
        wrapper = json.loads(cert_text)
    except ValueError as exc:
        raise MalformedCertificateError(f"certificate file is not JSON: {exc}") from exc
    if not isinstance(wrapper, dict) or "command" not in wrapper:
        raise MalformedCertificateError("certificate file lacks a command field")
    command = wrapper["command"]
    if command in ("decompose-thdc", "decompose-cycth", "decompose-th3par"):
        path, missing = args.graph, "verify needs --graph for a decomposition certificate"
    elif command == "ramsey-cert":
        path, missing = args.coloring, "verify needs --coloring for a ramsey certificate"
    else:
        raise MalformedCertificateError(
            f"command {command!r} does not produce a verifiable certificate")
    if path is None:
        raise ParameterError(missing)
    data, text = _read_text(path)
    digest = content_digest(data)
    if wrapper.get("input_digest") not in (None, digest):
        raise ParameterError("input digest does not match the certificate")
    result = wrapper.get("result")
    if command == "ramsey-cert":
        report = verify_ramsey_certificate(parse_coloring(text),
                                           RamseyCertificate.from_payload(result),
                                           deadline)
    else:
        report = verify_stability_certificate(parse_graph(text),
                                              StabilityCertificate.from_payload(result))
    code = EXIT_OK if report.passed else EXIT_FAIL
    return _report_skeleton(args, digest, {"certificate": args.certificate},
                            report.to_payload()), code


# argparse options as (flag, add_argument keywords), each shared one once
_GRAPH = ("--graph", {"required": True, "help": "graph6 or edge-list file"})
_COLORING = ("--coloring", {"required": True, "help": "coloring file"})
_COMMON = (
    ("--timeout", {"type": _seconds,
                   "help": "deadline in seconds for the whole run; exit 3 "
                           "with a timeout report on expiry"}),
    ("--format", {"choices": ("json", "csv"), "default": "json"}),
    ("--timing", {"action": "store_true",
                  "help": "embed wall-clock timing in the report "
                          "(report is then not byte-stable)"}),
)
_PAPER_RANGE = ("--enforce-paper-range", {"action": "store_true"})
_ALPHA_BETA = (("--alpha", {"type": _fraction, "required": True}),
               ("--beta", {"type": _fraction, "default": Fraction(0)}), _PAPER_RANGE)
_N_BETA = (("--n", {"type": int, "required": True}),
           ("--beta", {"type": _fraction, "required": True}))
_SAMPLES = ("--samples", {"type": int, "default": 0})
_SEED = ("--seed", {"type": int, "default": 0})
_SHARDS = ("--shards", {"type": int, "default": 1})
_INT = {"type": int}

# name: (help, handler, options), in help order
_COMMANDS = {
    "spectrum": ("exact cycle spectrum with witnesses", _run_spectrum,
                 (_GRAPH, *_COMMON)),
    "bounds": ("classical edge-count bound checks", _run_bounds, (_GRAPH, *_COMMON)),
    "paths": ("constructive path operations", _run_paths, (
        _GRAPH, *_COMMON,
        ("--op", {"required": True, "choices": ("ham", "near", "bip-path", "bip-cycle")}),
        ("--x", _INT), ("--y", _INT), ("--t", _INT))),
    "decompose-thdc": ("two-component stability decomposition", _run_decompose,
                       (_GRAPH, *_COMMON, *_ALPHA_BETA)),
    "decompose-cycth": ("pancyclic-or-vertex-split decomposition", _run_decompose, (
        _GRAPH, *_COMMON, ("--gamma", {"type": _fraction, "required": True}),
        _PAPER_RANGE)),
    "decompose-th3par": ("three-part stability decomposition", _run_decompose,
                         (_GRAPH, *_COMMON, *_ALPHA_BETA)),
    "le4": ("biclique partition extraction", _run_le4, (_GRAPH, *_COMMON)),
    "ramsey-cert": ("certificate for a coloring without a monochromatic C_n",
                    _run_ramsey_cert, (_COLORING, *_COMMON, *_N_BETA)),
    "ramsey-sweep": ("exhaustive or sampled coloring sweep", _run_ramsey_sweep, (
        *_COMMON, *_N_BETA,
        ("--mode", {"choices": ("exhaustive", "sampled"), "default": "exhaustive"}),
        _SAMPLES, _SHARDS, _SEED,
        ("--override-space", {"action": "store_true",
                              "help": "allow exhaustive sweeps beyond 30 edges and "
                                      "sweeps beyond 10^6 cycle masks"}),
        ("--checkpoint", {"help": "plain-text progress file, one line per shard"}),
        ("--serial", {"action": "store_true",
                      "help": "run shards sequentially in-process"}))),
    "arrth": ("which color is pancyclic up to n", _run_arrth, (
        *_COMMON,
        ("--coloring", {"help": "coloring file (single verdict)"}),
        ("--n", {"type": int, "help": "sampled mode: host is complete of order 2n-1"}),
        _SAMPLES, _SEED, _SHARDS, ("--serial", {"action": "store_true"}))),
    "verify": ("re-verify a previously emitted certificate", _run_verify, (
        *_COMMON, ("--graph", {}), ("--coloring", {}),
        ("--certificate", {"required": True,
                           "help": "report JSON from a decompose or ramsey-cert run"}))),
}

# the library errors reported under a kind other than their class name
_ERROR_KINDS = {HypothesisUnsatisfiableError: "hypothesis-unsatisfiable",
                InternalContradictionError: "internal-contradiction"}


def main(argv=None) -> int:
    args = build_parser(argv).parse_args(argv)
    started = monotonic()
    deadline = None if args.timeout is None else started + args.timeout
    try:
        report, code = _COMMANDS[args.command][1](args, deadline)
    except SearchTimeout as exc:
        report = {"command": args.command, "timeout": True, "message": str(exc)}
        code = EXIT_TIMEOUT
    except CycleStabError as exc:
        report = {"command": args.command, "error": str(exc),
                  "error_kind": _ERROR_KINDS.get(type(exc), type(exc).__name__)}
        if isinstance(exc, HypothesisUnsatisfiableError):
            report.update(mono_color=exc.color, mono_witness=list(exc.witness))
        code = EXIT_FAIL if isinstance(exc, InternalContradictionError) else EXIT_INPUT
    _emit(report, args, monotonic() - started)
    return code


if __name__ == "__main__":
    sys.exit(main())
