"""Command-line front end.

Every run prints one JSON (or CSV) report to stdout: command, input
digest, parameters, result payload, and the verifier's checks where a
certificate was produced.  Stdout is byte-identical for identical inputs,
parameters, and seed; wall-clock timing goes to stderr (or into the
report with --timing, which opts out of byte-stability).

Exit codes: 0 success / certificate verified; 1 verification failure or
counterexample exemplar; 2 input or parameter error; 3 timeout with a
partial report.
"""

from __future__ import annotations

import argparse
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
    HypothesisViolatedError,
    InternalContradictionError,
    MalformedCertificateError,
    NoSuchPathError,
    ParameterError,
    PreconditionError,
    SearchTimeout,
    SweepSpaceError,
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


def _fraction(text: str) -> Fraction:
    """A rational option; a zero denominator is a usage error like any other
    malformed value, not a traceback."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclestab",
        description="Exact cycle spectra, stability decompositions, and "
                    "Ramsey coloring sweeps on graphs of up to 64 vertices.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, graph=False, coloring=False):
        if graph:
            p.add_argument("--graph", required=True, help="graph6 or edge-list file")
        if coloring:
            p.add_argument("--coloring", required=True, help="coloring file")
        p.add_argument("--timeout", type=float, default=None,
                       help="per-search deadline in seconds; partial report on expiry")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--timing", action="store_true",
                       help="embed wall-clock timing in the report "
                            "(report is then not byte-stable)")

    p = sub.add_parser("spectrum", help="exact cycle spectrum with witnesses")
    common(p, graph=True)

    p = sub.add_parser("bounds", help="classical edge-count bound checks")
    common(p, graph=True)

    p = sub.add_parser("paths", help="constructive path operations")
    common(p, graph=True)
    p.add_argument("--op", required=True,
                   choices=("ham", "near", "bip-path", "bip-cycle"))
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--y", type=int, default=None)
    p.add_argument("--t", type=int, default=None)

    p = sub.add_parser("decompose-thdc", help="two-component stability decomposition")
    common(p, graph=True)
    p.add_argument("--alpha", type=_fraction, required=True)
    p.add_argument("--beta", type=_fraction, default=Fraction(0))
    p.add_argument("--enforce-paper-range", action="store_true")

    p = sub.add_parser("decompose-cycth", help="pancyclic-or-vertex-split decomposition")
    common(p, graph=True)
    p.add_argument("--gamma", type=_fraction, required=True)
    p.add_argument("--enforce-paper-range", action="store_true")

    p = sub.add_parser("decompose-th3par", help="three-part stability decomposition")
    common(p, graph=True)
    p.add_argument("--alpha", type=_fraction, required=True)
    p.add_argument("--beta", type=_fraction, default=Fraction(0))
    p.add_argument("--enforce-paper-range", action="store_true")

    p = sub.add_parser("le4", help="biclique partition extraction")
    common(p, graph=True)

    p = sub.add_parser("ramsey-cert", help="certificate for a coloring without "
                                           "a monochromatic C_n")
    common(p, coloring=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=_fraction, required=True)

    p = sub.add_parser("ramsey-sweep", help="exhaustive or sampled coloring sweep")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=_fraction, required=True)
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--override-space", action="store_true",
                   help="allow exhaustive sweeps beyond 30 edges and "
                        "sweeps beyond 10^6 cycle masks")
    p.add_argument("--checkpoint", default=None,
                   help="plain-text progress file, one line per shard")
    p.add_argument("--serial", action="store_true",
                   help="run shards sequentially in-process")

    p = sub.add_parser("arrth", help="which color is pancyclic up to n")
    common(p)
    p.add_argument("--coloring", default=None, help="coloring file (single verdict)")
    p.add_argument("--n", type=int, default=None,
                   help="sampled mode: host is complete of order 2n-1")
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--serial", action="store_true")

    p = sub.add_parser("verify", help="re-verify a previously emitted certificate")
    common(p)
    p.add_argument("--graph", default=None)
    p.add_argument("--coloring", default=None)
    p.add_argument("--certificate", required=True, help="report JSON from a "
                                                        "decompose or ramsey-cert run")
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


def _deadline(args):
    if getattr(args, "timeout", None) is None:
        return None
    return monotonic() + args.timeout


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
    if getattr(args, "timing", False):
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


def _run_spectrum(args):
    data, text = _read_text(args.graph)
    g = parse_graph(text)
    report = cycle_spectrum(g, _deadline(args))
    code = EXIT_TIMEOUT if report.timed_out else EXIT_OK
    return _report_skeleton(args, content_digest(data), {}, report.to_payload()), code


def _run_bounds(args):
    data, text = _read_text(args.graph)
    g = parse_graph(text)
    deadline = _deadline(args)
    reports = [check_erdos_gallai(g, deadline), check_fan_lv_weng(g, deadline),
               check_bollobas_pancyclicity(g, deadline)]
    failed = [r.name for r in reports if r.applicable and not r.passed]
    result = {"bounds": [r.to_payload() for r in reports]}
    code = EXIT_FAIL if failed else EXIT_OK
    return _report_skeleton(args, content_digest(data), {}, result), code


def _run_paths(args):
    data, text = _read_text(args.graph)
    g = parse_graph(text)
    deadline = _deadline(args)
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
    return _report_skeleton(args, content_digest(data), parameters, result), EXIT_OK


def _run_decompose(args):
    data, text = _read_text(args.graph)
    g = parse_graph(text)
    deadline = _deadline(args)
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
    return _report_skeleton(args, content_digest(data), parameters,
                            cert.to_payload(), checks), code


def _run_le4(args):
    data, text = _read_text(args.graph)
    g = parse_graph(text)
    ext = extract_biclique_partition(g, _deadline(args))
    return _report_skeleton(args, content_digest(data), {}, ext.to_payload()), EXIT_OK


def _run_ramsey_cert(args):
    data, text = _read_text(args.coloring)
    col = parse_coloring(text)
    deadline = _deadline(args)
    parameters = {"n": args.n, "beta": frac_str(args.beta)}
    cert = ramsey_certificate(col, args.n, args.beta, deadline)
    report = verify_ramsey_certificate(col, cert, deadline)
    code = EXIT_OK if report.passed else EXIT_FAIL
    return _report_skeleton(args, content_digest(data), parameters,
                            cert.to_payload(), report.to_payload()), code


def _run_ramsey_sweep(args):
    deadline = _deadline(args)
    report = ramsey_sweep(args.n, args.beta, args.mode, samples=args.samples,
                          shards=args.shards, seed=args.seed,
                          space_override=args.override_space,
                          parallel=not args.serial, checkpoint=args.checkpoint,
                          deadline=deadline)
    parameters = report.to_payload()["parameters"]
    parameters["shards_requested"] = args.shards
    result = report.to_payload()
    result["counts_sum_to_total"] = report.counts_sum_ok()
    code = EXIT_FAIL if report.failures else EXIT_OK
    skeleton = _report_skeleton(args, "sha256:-", parameters, result)
    sys.stderr.write(f"shard_layout: {[list(r) for r in report.shard_ranges]}\n")
    return skeleton, code


def _run_arrth(args):
    deadline = _deadline(args)
    if args.coloring is not None:
        data, text = _read_text(args.coloring)
        col = parse_coloring(text)
        verdict = pancyclic_color_verdict(col, deadline)
        return _report_skeleton(args, content_digest(data), {},
                                verdict.to_payload()), EXIT_OK
    if args.n is None or args.samples <= 0:
        raise ParameterError("arrth needs --coloring, or --n with --samples")
    order = 2 * args.n - 1
    report = verdict_sample_sweep(order, args.samples, seed=args.seed,
                                  shards=args.shards, parallel=not args.serial,
                                  deadline=deadline)
    parameters = report.to_payload()["parameters"]
    return _report_skeleton(args, "sha256:-", parameters,
                            report.to_payload()), EXIT_OK


def _run_verify(args):
    import json

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
                                           _deadline(args))
    else:
        report = verify_stability_certificate(parse_graph(text),
                                              StabilityCertificate.from_payload(result))
    code = EXIT_OK if report.passed else EXIT_FAIL
    return _report_skeleton(args, digest, {"certificate": args.certificate},
                            report.to_payload()), code


_HANDLERS = {
    "spectrum": _run_spectrum,
    "bounds": _run_bounds,
    "paths": _run_paths,
    "decompose-thdc": _run_decompose,
    "decompose-cycth": _run_decompose,
    "decompose-th3par": _run_decompose,
    "le4": _run_le4,
    "ramsey-cert": _run_ramsey_cert,
    "ramsey-sweep": _run_ramsey_sweep,
    "arrth": _run_arrth,
    "verify": _run_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = monotonic()
    try:
        report, code = _HANDLERS[args.command](args)
    except SearchTimeout as exc:
        partial = {"command": args.command, "timeout": True, "message": str(exc)}
        _emit(partial, args, monotonic() - started)
        return EXIT_TIMEOUT
    except HypothesisUnsatisfiableError as exc:
        report = {"command": args.command, "error": str(exc),
                  "error_kind": "hypothesis-unsatisfiable",
                  "mono_color": exc.color, "mono_witness": list(exc.witness)}
        _emit(report, args, monotonic() - started)
        return EXIT_INPUT
    except (GraphFormatError, ParameterError, PreconditionError,
            HypothesisViolatedError, SweepSpaceError, NoSuchPathError,
            MalformedCertificateError) as exc:
        report = {"command": args.command, "error": str(exc),
                  "error_kind": type(exc).__name__}
        _emit(report, args, monotonic() - started)
        return EXIT_INPUT
    except InternalContradictionError as exc:
        report = {"command": args.command, "error": str(exc),
                  "error_kind": "internal-contradiction"}
        _emit(report, args, monotonic() - started)
        return EXIT_FAIL
    except CycleStabError as exc:  # residual library errors
        report = {"command": args.command, "error": str(exc),
                  "error_kind": type(exc).__name__}
        _emit(report, args, monotonic() - started)
        return EXIT_INPUT
    _emit(report, args, monotonic() - started)
    return code


if __name__ == "__main__":
    sys.exit(main())
