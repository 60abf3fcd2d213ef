"""Independent checks of every report, and a self-test showing each check
can fail.

``problems(op, code, text)`` returns what is wrong with one operation's
outcome: a wrong exit code, a report that is not JSON or does not match
``schema/report.schema.json``, or a claim the benchmark's own computation
(``oracles.py``) contradicts.  An empty list means the operation passed.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction
from functools import lru_cache
from math import ceil
from pathlib import Path

import jsonschema
import networkx as nx

from oracles import (
    colour_classes,
    edge_count,
    in_k8_family,
    is_cycle,
    lengths_up_to,
    read_coloring,
    read_graph,
    sample_red_mask,
)


class Checker:
    def __init__(self, schema_path: Path):
        with open(schema_path, encoding="utf-8") as fh:
            schema = json.load(fh)
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        self._schema = cls(schema)
        self._graphs: dict[str, tuple[int, list[int]]] = {}

    def graph(self, path: str):
        if path not in self._graphs:
            self._graphs[path] = read_graph(path)
        return self._graphs[path]

    def problems(self, op: dict, code: int, text: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}, expected 0: {text[-300:]!r}"]
        try:
            report = json.loads(text)
        except ValueError as exc:
            return [f"report is not JSON: {exc}"]
        return self.report_problems(op, report)

    def report_problems(self, op: dict, report) -> list[str]:
        errors = [e.message for e in self._schema.iter_errors(report)]
        if errors:
            return ["schema: " + errors[0]]
        if report.get("command") != op["argv"][0]:
            return [f"command {report.get('command')!r} is not {op['argv'][0]!r}"]
        if report["meta"]["backend"] not in ("pure", "compiled"):
            return [f"unknown backend {report['meta']['backend']!r}"]
        try:
            return CHECKS[op["kind"]](self, op["check"], report)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return [f"malformed report: {type(exc).__name__}: {exc}"]


def _spectrum(checker, check, report) -> list[str]:
    n, adj = checker.graph(check["graph"])
    res = report["result"]
    out = []
    lengths = set(check["lengths"])
    if res["n"] != n:
        out.append(f"n = {res['n']}, file has {n} vertices")
    if res.get("timed_out"):
        out.append("report timed out")
    if set(res["lengths"]) != lengths:
        out.append(f"lengths differ from the oracle: extra "
                   f"{sorted(set(res['lengths']) - lengths)}, missing "
                   f"{sorted(lengths - set(res['lengths']))}")
    if res["c"] != max(lengths, default=0):
        out.append(f"c = {res['c']}, oracle {max(lengths, default=0)}")
    if sorted(int(t) for t in res["witnesses"]) != sorted(res["lengths"]):
        out.append("witness lengths differ from reported lengths")
    for t, w in res["witnesses"].items():
        if not is_cycle(adj, w, int(t)):
            out.append(f"witness for length {t} is not a cycle of that length")
    return out


def _bounds(checker, check, report) -> list[str]:
    n, adj = checker.graph(check["graph"])
    e = edge_count(adj)
    c = max(check["lengths"], default=0)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((u, v) for u in range(n) for v in range(u + 1, n) if (adj[u] >> v) & 1)
    applicable = {
        "erdos-gallai": n > 0 and e >= n,
        "fan-lv-weng": n >= 3 and nx.is_biconnected(g),
        "bollobas-pancyclicity": 4 * e > n * n,
    }
    out = []
    seen = [b["name"] for b in report["result"]["bounds"]]
    if sorted(seen) != sorted(applicable):
        out.append(f"bounds reported: {seen}")
    for b in report["result"]["bounds"]:
        name = b["name"]
        if b["applicable"] != applicable.get(name):
            out.append(f"{name}: applicable = {b['applicable']}, expected "
                       f"{applicable.get(name)}")
        elif b["applicable"] and b["passed"] is not True:
            out.append(f"{name} failed, but it is a theorem")
        inputs = b["inputs"]
        if inputs.get("n") != n or inputs.get("e") != e:
            out.append(f"{name}: inputs n = {inputs.get('n')}, e = {inputs.get('e')}; "
                       f"file has {n}, {e}")
        if "c" in inputs and inputs["c"] != c:
            out.append(f"{name}: c = {inputs['c']}, oracle {c}")
    return out


def _decompose(checker, check, report) -> list[str]:
    n, adj = checker.graph(check["graph"])
    cert, verdict = report["result"], report["checks"]
    branch = cert["branch"]
    out = []
    if cert["n"] != n:
        out.append(f"certificate order {cert['n']}, file has {n}")
    if branch["kind"] == "stuck":
        return out + ([] if verdict is None else ["stuck outcome carries checks"])
    if verdict is None or not verdict["passed"]:
        out.append("the program's verifier did not pass")
    if branch["kind"] == "cycle":
        threshold = Fraction(branch["threshold"])
        required = branch["required_lengths"]
        if branch["claim"] == "long-cycle":
            if len(required) != 1 or required[0] < threshold:
                out.append(f"long cycle {required} below threshold {threshold}")
        elif required != list(range(3, ceil(threshold) + 1)):
            out.append(f"pancyclic range {required} does not reach {threshold}")
        for t in required:
            if not is_cycle(adj, branch["witnesses"].get(str(t)), t):
                out.append(f"witness for length {t} is not a cycle of that length")
        return out
    removed, p1, p2 = branch["removed"], branch["part1"], branch["part2"]
    flat = removed + p1 + p2
    if sorted(flat) != list(range(n)):
        return out + ["removed, part1 and part2 do not partition the vertex set"]
    m1 = sum(1 << v for v in p1)
    m2 = sum(1 << v for v in p2)
    if len(p1) > len(p2):
        out.append("part1 larger than part2")
    if branch["structure"] == "split":
        if any(adj[v] & m2 for v in p1):
            out.append("split claimed, but an edge joins the parts")
    elif any(adj[v] & m1 for v in p1) or any(adj[v] & m2 for v in p2):
        out.append("bipartite claimed, but an edge lies inside a part")
    return out


@lru_cache(maxsize=None)
def _verdicts(n: int, samples: int, seed: int):
    """Verdict counts and 'neither' samples of a verdict sweep, recomputed
    from each sample's colour classes."""
    order = 2 * n - 1
    m = order * (order - 1) // 2
    counts = {"red": 0, "blue": 0, "both": 0, "neither": 0}
    neither = []
    for idx in range(samples):
        red_mask = sample_red_mask(seed, idx, m)
        red, blue = colour_classes(order, red_mask)
        covers = [len(lengths_up_to(adj, n)) == n - 2 for adj in (red, blue)]
        verdict = {(True, True): "both", (True, False): "red",
                   (False, True): "blue", (False, False): "neither"}[tuple(covers)]
        counts[verdict] += 1
        if verdict == "neither":
            neither.append((idx, red_mask))
    return counts, neither


@lru_cache(maxsize=None)
def _family_members(seed: int, samples: int) -> int:
    return sum(in_k8_family(sample_red_mask(seed, idx, 28)) for idx in range(samples))


def _arrth(checker, check, report) -> list[str]:
    n, samples, seed = check["n"], check["samples"], check["seed"]
    order = 2 * n - 1
    counts, neither = _verdicts(n, samples, seed)
    res = report["result"]
    out = []
    if res["parameters"] != {"order": order, "n": n, "samples": samples, "seed": seed}:
        out.append(f"parameters {res['parameters']}")
    if res["counts"] != counts:
        out.append(f"counts {res['counts']}, recomputed {counts}")
    got = [(x["sample"], x["red_mask"]) for x in res["neither_exemplars"]]
    if got != neither:
        out.append(f"neither exemplars {got[:5]}, recomputed {neither[:5]}")
    return out


def _sweep(checker, check, report) -> list[str]:
    counts = report["result"]["counts"]
    p, n, mode = check["p"], check["n"], check["mode"]
    m = p * (p - 1) // 2
    out = []
    if counts["failures"] or report["result"]["failure_exemplars"]:
        out.append(f"{counts['failures']} failures")
    if counts["mono_found"] + counts["certificate_found"] + counts["failures"] \
            != counts["total"]:
        out.append("counts do not sum to the total")
    if mode == "exhaustive":
        if counts["total"] != 2 ** m:
            out.append(f"total {counts['total']}, expected 2^{m}")
        if n == 4 and p >= 6 and counts["mono_found"] != counts["total"]:
            out.append("R(C4, C4) = 6, yet a colouring without a monochromatic C4 "
                       "was counted")
    else:
        family = _family_members(check["seed"], check["samples"])
        if counts["total"] != check["samples"]:
            out.append(f"total {counts['total']}, expected {check['samples']} samples")
        if counts["certificate_found"] != family:
            out.append(f"certificate_found {counts['certificate_found']}, but "
                       f"{family} samples lie in the mono-C5-free family")
    return out


def _ramsey_cert(checker, check, report) -> list[str]:
    p, red, blue = read_coloring(check["coloring"])
    cert, verdict = report["result"], report["checks"]
    n, beta = check["n"], Fraction(check["beta"])
    out = []
    if verdict is None or not verdict["passed"]:
        out.append("the program's verifier did not pass")
    u, c1, c2 = cert["u"], cert["u1"], cert["u2"]
    if sorted([u] + c1 + c2) != list(range(p)):
        return out + ["u, class1 and class2 do not partition the vertex set"]
    for cls in (c1, c2):
        if not (1 - beta) * n - 1 < len(cls) < n:
            out.append(f"class size {len(cls)} outside (({1 - beta})n - 1, n)")
    if cert["clique_color"] not in ("red", "blue"):
        return out + [f"clique colour {cert['clique_color']!r}"]
    clique, cross = (red, blue) if cert["clique_color"] == "red" else (blue, red)
    for cls in (c1, c2):
        mask = sum(1 << v for v in cls)
        if any((mask & ~(1 << v)) & ~clique[v] for v in cls):
            out.append("a class is not a clique in the clique colour")
    m2 = sum(1 << v for v in c2)
    if any(m2 & ~cross[v] for v in c1):
        out.append("a cross pair does not have the other colour")
    return out


CHECKS = {
    "spectrum": _spectrum,
    "bounds": _bounds,
    "decompose": _decompose,
    "arrth": _arrth,
    "sweep": _sweep,
    "ramsey_cert": _ramsey_cert,
}


# -- self-test: each checker rejects a corrupted report ------------------------

def _break_witness(report):
    res = report["result"]
    witnesses = res["witnesses"] if "witnesses" in res else res["branch"]["witnesses"]
    t, w = next(iter(witnesses.items()))
    w[1] = w[0]  # a repeated vertex breaks the cycle's edges and its length
    return report


def _partition_moved(report):
    branch = report["result"]["branch"]
    branch["part2"].append(branch["part1"].pop())
    return report


def _count_off_by_one(report):
    counts = report["result"]["counts"]
    key = next(k for k in counts if counts[k] > 0)
    counts[key] -= 1
    other = next(k for k in counts if k != key)
    counts[other] += 1
    return report


def _c_off_by_one(report):
    for b in report["result"]["bounds"]:
        if "c" in b["inputs"]:
            b["inputs"]["c"] += 1
    return report


def _vertex_moved(report):
    cert = report["result"]
    cert["u2"].append(cert["u1"].pop())
    return report


CORRUPTIONS = {
    "spectrum": ("broken witness edge", _break_witness),
    "bounds": ("longest cycle off by one", _c_off_by_one),
    "decompose": ("vertex moved across the partition", _partition_moved),
    "arrth": ("count off by one", _count_off_by_one),
    "sweep": ("count off by one", _count_off_by_one),
    "ramsey_cert": ("vertex moved across the certificate", _vertex_moved),
}


def self_test(checker: Checker, ops: list[dict], reports: list[str]) -> list[str]:
    """For the first passing operation of each kind, corrupt its report and
    return the kinds whose checker still accepts it; also a report with an
    unknown top-level key must fail the schema."""
    escaped, tried = [], set()
    for op, text in zip(ops, reports):
        kind = op["kind"]
        if kind in tried:
            continue
        try:
            report = json.loads(text)
        except ValueError:
            continue
        if checker.report_problems(op, report):
            continue
        label, corrupt = CORRUPTIONS[kind]
        try:
            corrupted = corrupt(copy.deepcopy(report))
        except (KeyError, StopIteration):
            continue  # nothing of this shape to corrupt (say, a stuck branch)
        tried.add(kind)
        if not checker.report_problems(op, corrupted):
            escaped.append(f"{kind}: {label}")
        extra = dict(report, unexpected=True)
        if not checker.report_problems(op, extra):
            escaped.append(f"{kind}: unknown key passed the schema")
    missing = {op["kind"] for op in ops} - tried
    return escaped + [f"{kind}: no passing report to corrupt" for kind in sorted(missing)]
