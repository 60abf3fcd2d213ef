"""Ramsey-type machinery: monochromatic even cycles, the biclique
extraction from a Hamiltonian host, the two-clique/biclique certificate
pipeline for colorings without a monochromatic C_n, verdicts on which
color is pancyclic up to n, and the exhaustive/sampled sweep engine.

Both sweep modes run one engine.  A coloring is its red edge mask over
lexicographically sorted edges.  An exhaustive sweep enumerates binary
counters with a symmetry halving that pins the first edge red and doubles
every count; a sampled sweep draws sample i from (seed, i) alone.  The
cycle edge masks are listed once per sweep, and each shard owns a
contiguous counter or sample range.  An exhaustive shard enumerates its
counter range edge by edge and prunes at the first monochromatic cycle
(``_kernel.sweep_filter_range``); a sampled shard scans its draws against
every cycle mask (``_kernel.sweep_filter``).  The results merge in shard
order, so reports do not depend on the shard count.  Every coloring the
filter passes goes through the certificate pipeline and its verifier.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial
from time import monotonic

from . import _kernel
from .coloring import TwoColoring, coloring_from_red_mask, serialize_coloring
from .cycles import cycle_of_length, spectrum_up_to
from .errors import (
    HypothesisUnsatisfiableError,
    InternalContradictionError,
    MonoCycleNotFoundError,
    ParameterError,
    PreconditionError,
    SearchTimeout,
    SweepSpaceError,
)
from .graph import (
    MAX_VERTICES,
    Graph,
    bits,
    complement,
    edges_between,
    induced,
    is_clique,
    is_complete_bipartite_between,
    is_independent,
    mask_of,
)
from .reporting import (
    CHECKS,
    INT,
    INTS,
    RATIONAL,
    STR,
    CheckReport,
    Comparison,
    NamedCheck,
    Record,
    array,
    frac_str,
)

COLOR_NAMES = ("red", "blue")


def _require_complete(col: TwoColoring) -> None:
    p = col.n
    if col.host.edge_count() != p * (p - 1) // 2:
        raise ParameterError("host graph must be complete")


def mono_even_cycle(col: TwoColoring, k: int, deadline=None) -> tuple[str, tuple[int, ...]]:
    """A monochromatic cycle on 2k vertices in a 2-colored complete host of
    order at least 3k - 1 (red searched first).

    Guaranteed for k >= 3; for k = 2 only hosts of order >= 6 force it
    (exhaustively confirmed by the order-6 sweep), so a miss on an order-5
    host raises MonoCycleNotFoundError while a miss on any guaranteed host
    raises InternalContradictionError.
    """
    if k < 2:
        raise ParameterError("k must be at least 2")
    p = col.n
    if p < 3 * k - 1:
        raise ParameterError(f"host order {p} below 3k - 1 = {3 * k - 1}")
    _require_complete(col)
    for name in COLOR_NAMES:
        witness = cycle_of_length(col.color_of(name), 2 * k, deadline)
        if witness is not None:
            return name, witness
    if k == 2 and p == 5:
        raise MonoCycleNotFoundError(
            "order-5 hosts admit colorings without a monochromatic 4-cycle")
    raise InternalContradictionError(
        f"no monochromatic C_{2 * k} in a 2-colored complete host of order {p}")


@dataclass(frozen=True)
class BicliqueExtraction(Record):
    """Alternating halves of a Hamiltonian cycle plus the star center whose
    removal leaves a complete bipartite graph."""

    u1: tuple[int, ...]
    u2: tuple[int, ...]
    u: int
    ham_cycle: tuple[int, ...]
    star_edges: tuple[tuple[int, int], ...]

    FIELDS = (("u1", "u1", INTS), ("u2", "u2", INTS), ("u", "u", INT),
              ("ham_cycle", "ham_cycle", INTS), ("star_edges", "star_edges", array(INTS)))


def extract_biclique_partition(g: Graph, deadline=None) -> BicliqueExtraction:
    """For a Hamiltonian graph of even order 2m with no C_{2m-1} in the
    graph or its complement: alternating cycle positions give two
    independent halves, the complement's cross edges form a star, and
    removing its center leaves K_{m,m-1}.

    Preconditions are checked exactly; conclusion failures raise
    InternalContradictionError since they cannot occur when the
    preconditions hold.
    """
    p = g.n
    if p < 4 or p % 2:
        raise PreconditionError("even-order", f"order {p} is not an even number >= 4")
    ham = cycle_of_length(g, p, deadline)
    if ham is None:
        raise PreconditionError("hamiltonian", "graph has no spanning cycle")
    if cycle_of_length(g, p - 1, deadline) is not None:
        raise PreconditionError("odd-cycle-in-graph",
                                f"graph contains a cycle on {p - 1} vertices")
    comp = complement(g)
    if cycle_of_length(comp, p - 1, deadline) is not None:
        raise PreconditionError("odd-cycle-in-complement",
                                f"complement contains a cycle on {p - 1} vertices")
    u1 = mask_of(ham[0::2])
    u2 = mask_of(ham[1::2])
    if not is_independent(g, u1) or not is_independent(g, u2):
        raise InternalContradictionError(
            "alternating cycle positions are not independent")
    star = sorted((min(a, b), max(a, b)) for a, b in edges_between(comp, u1, u2))
    center = _shared_vertex(star, "complement cross edges do not share a vertex")
    keep1 = u1 & ~(1 << center)
    keep2 = u2 & ~(1 << center)
    if not is_complete_bipartite_between(g, keep1, keep2):
        raise InternalContradictionError(
            "graph minus the star center is not complete bipartite")
    return BicliqueExtraction(tuple(bits(u1)), tuple(bits(u2)), center,
                              tuple(ham), tuple(star))


def _shared_vertex(edges: list[tuple[int, int]], message: str) -> int:
    """The least vertex on every edge (0 when there are none); a pair of
    disjoint edges raises InternalContradictionError with ``message``."""
    if not edges:
        return 0
    core = set(edges[0]).intersection(*edges[1:])
    if not core:
        raise InternalContradictionError(message)
    return min(core)


@dataclass(frozen=True)
class RamseyCertificate(Record):
    """Vertex u plus two classes: cliques in one color, a biclique in the
    other, for a coloring of K_{floor((2-beta)n)} without monochromatic C_n."""

    n: int
    beta: Fraction
    p: int
    u: int
    u1: tuple[int, ...]
    u2: tuple[int, ...]
    clique_color: str  # which input color induces the two cliques
    checks: tuple[Comparison, ...]

    FIELDS = (("n", "n", INT), ("beta", "beta", RATIONAL), ("p", "p", INT),
              ("u", "u", INT), ("u1", "u1", INTS), ("u2", "u2", INTS),
              ("clique_color", "clique_color", STR), ("checks", "checks", CHECKS))


def _expected_host_order(n: int, beta: Fraction) -> int:
    return int((2 - beta) * n)


def _validate_ramsey_params(n: int, beta: Fraction) -> None:
    if n < 4:
        raise ParameterError("n must be at least 4")
    if not (0 < beta <= Fraction(n // 2, n)):
        raise ParameterError("beta must lie in (0, floor(n/2)/n]")


def _partition_checks(col: TwoColoring, n: int, beta: Fraction, m1: int, m2: int,
                      clique_color: str) -> tuple[Comparison, ...]:
    """The stored checks of a certificate with classes m1, m2 in this order."""
    cliques = col.color_of(clique_color)
    cross = col.color_of("blue" if clique_color == "red" else "red")
    size1, size2 = m1.bit_count(), m2.bit_count()
    return (
        Comparison.make("class-sizes-ordered", size1, "<=", size2),
        Comparison.make("class-size-lower", size1, ">", (1 - beta) * n - 1),
        Comparison.make("class-size-upper", size2, "<", n),
        Comparison.make("class1-clique-missing-edges",
                        _missing_clique_edges(cliques, m1), "==", 0),
        Comparison.make("class2-clique-missing-edges",
                        _missing_clique_edges(cliques, m2), "==", 0),
        Comparison.make("cross-missing-edges",
                        _missing_cross_edges(cross, m1, m2), "==", 0),
    )


def _missing_clique_edges(g: Graph, mask: int) -> int:
    count = 0
    for v in bits(mask):
        count += (mask & ~(1 << v) & ~g.adj[v]).bit_count()
    return count // 2


def _missing_cross_edges(g: Graph, a: int, b: int) -> int:
    return sum((b & ~g.adj[v]).bit_count() for v in bits(a))


def ramsey_certificate(col: TwoColoring, n: int, beta, deadline=None) -> RamseyCertificate:
    """Certificate pipeline for a 2-coloring of K_{floor((2-beta)n)} in
    which neither color contains C_n.

    Every odd n = 2k + 1 follows the proof's construction: find a
    monochromatic cycle on 2k + 2 vertices, extract the biclique partition
    of that color inside it, classify the remaining vertices by their
    neighborhoods, and remove the center of the cross star.  For n = 5 the
    only host that can get this far is K8, since R(C5, C5) = 9.  Even n is
    rejected: a monochromatic C_n always exists at this host order, so the
    hypothesis cannot be met.
    """
    beta = Fraction(beta)
    _validate_ramsey_params(n, beta)
    p = _expected_host_order(n, beta)
    if col.n != p:
        raise ParameterError(f"host order {col.n}, expected floor((2-beta)n) = {p}")
    _require_complete(col)
    for name in COLOR_NAMES:
        witness = cycle_of_length(col.color_of(name), n, deadline)
        if witness is not None:
            raise HypothesisUnsatisfiableError(
                f"{name} contains a cycle on {n} vertices", name, witness)
    if n % 2 == 0:
        raise InternalContradictionError(
            "even n admits no coloring without a monochromatic C_n at this "
            "host order, yet none was found")

    # p >= 2n - k = 3(k + 1) - 1, so mono_even_cycle's order guard holds
    k = (n - 1) // 2
    even_color, even_cycle = mono_even_cycle(col, k + 1, deadline)
    clique_color = "blue" if even_color == "red" else "red"
    even_graph = col.color_of(even_color)
    cyc_mask = mask_of(even_cycle)
    ext = extract_biclique_partition(induced(even_graph, cyc_mask), deadline)
    sub_verts = list(bits(cyc_mask))
    u_center = sub_verts[ext.u]
    side1 = mask_of(sub_verts[i] for i in ext.u1)
    side2 = mask_of(sub_verts[i] for i in ext.u2)
    if (side1 >> u_center) & 1:
        w1 = side1 & ~(1 << u_center)
        w2 = side2
    else:
        w1 = side2 & ~(1 << u_center)
        w2 = side1
    # w1 has k vertices, w2 has k + 1
    x1 = 0
    rest = col.host.full_mask() & ~(w1 | w2)
    for v in bits(rest):
        hits1 = even_graph.adj[v] & w1
        hits2 = even_graph.adj[v] & w2
        if hits1 and hits2:
            raise InternalContradictionError(
                "a vertex meets both cycle halves in the even-cycle color")
        if not hits1:
            x1 |= 1 << v
    v1 = x1 | w1
    v2 = (rest & ~x1) | w2

    u = _shared_vertex(edges_between(col.color_of(clique_color), v1, v2),
                       "two disjoint cross edges in the clique color")
    m1, m2 = v1 & ~(1 << u), v2 & ~(1 << u)
    if m1.bit_count() > m2.bit_count():
        m1, m2 = m2, m1
    return RamseyCertificate(n, beta, p, u, tuple(bits(m1)), tuple(bits(m2)), clique_color,
                             _partition_checks(col, n, beta, m1, m2, clique_color))


def verify_ramsey_certificate(col: TwoColoring, cert: RamseyCertificate,
                              deadline=None) -> CheckReport:
    """Independent re-check of a certificate against its coloring."""
    checks: list[NamedCheck] = []

    def named(name: str, holds: bool, detail: str = "") -> None:
        checks.append(NamedCheck(name, holds, detail))

    p = col.n
    expected_p = _expected_host_order(cert.n, cert.beta)
    named("host-order", p == cert.p == expected_p,
          f"host {p}, certificate {cert.p}, expected {expected_p}")
    if cert.clique_color not in COLOR_NAMES:
        named("orientation-known", False, f"unknown color {cert.clique_color!r}")
        return CheckReport(tuple(checks))

    flat = (cert.u,) + cert.u1 + cert.u2
    distinct = len(set(flat)) == len(flat)
    in_range = all(0 <= v < p for v in flat)
    named("partition", distinct and in_range and len(flat) == p,
          "u, class1, class2 partition the vertex set")
    if not (distinct and in_range and len(flat) == p):
        return CheckReport(tuple(checks))

    m1, m2 = mask_of(cert.u1), mask_of(cert.u2)
    rebuilt = {c.name: c for c in _partition_checks(
        col, cert.n, cert.beta, m1, m2, cert.clique_color)}
    named("class-sizes-ordered", rebuilt["class-sizes-ordered"].holds)
    named("class-size-lower", rebuilt["class-size-lower"].holds,
          f"|class1| = {len(cert.u1)}")
    named("class-size-upper", rebuilt["class-size-upper"].holds,
          f"|class2| = {len(cert.u2)}")

    cliques = col.color_of(cert.clique_color)
    cross = col.color_of("blue" if cert.clique_color == "red" else "red")
    named("class1-clique", is_clique(cliques, m1),
          f"class1 complete in {cert.clique_color}")
    named("class2-clique", is_clique(cliques, m2),
          f"class2 complete in {cert.clique_color}")
    named("cross-complete", is_complete_bipartite_between(cross, m1, m2),
          "every cross pair in the other color")
    named("class1-independent-cross", is_independent(cross, m1))
    named("class2-independent-cross", is_independent(cross, m2))
    for name in COLOR_NAMES:
        witness = cycle_of_length(col.color_of(name), cert.n, deadline)
        named(f"no-mono-cycle-{name}", witness is None,
              f"no {name} cycle on {cert.n} vertices")
    for cmp in cert.checks:
        named(f"check-{cmp.name}", rebuilt.pop(cmp.name, None) == cmp,
              "stored check equals the rebuilt one")
    return CheckReport(tuple(checks))


# -- sweep engine ---------------------------------------------------------

MAX_CYCLE_MASKS = 10**6  # a sweep lists more cycle masks only with the override


def cycle_edge_masks(p: int, n: int, deadline=None) -> list[int]:
    """Edge-index masks of every cycle on n vertices inside K_p, for the
    lexicographic edge order.  ``deadline`` is checked as the permutations
    are visited."""
    if n < 3 or n > p:
        return []
    edge_bit = [[0] * p for _ in range(p)]
    for i, (a, b) in enumerate(combinations(range(p), 2)):
        edge_bit[a][b] = edge_bit[b][a] = 1 << i
    out = []
    visited = 0
    for verts in combinations(range(p), n):
        from_anchor = edge_bit[verts[0]]
        for perm in permutations(verts[1:]):
            visited += 1
            _kernel._check_deadline(visited, deadline, "sweep")
            if perm[0] > perm[-1]:
                continue  # each cycle once, orientation-normalized
            mask = from_anchor[perm[0]] | from_anchor[perm[-1]]
            for a, b in zip(perm, perm[1:]):
                mask |= edge_bit[a][b]
            out.append(mask)
    return out


@dataclass(frozen=True)
class SweepReport:
    """Aggregated sweep outcome; the deterministic payload excludes the
    shard layout, which the CLI reports on stderr."""

    n: int
    beta: Fraction
    p: int
    mode: str
    seed: int
    samples: int
    total: int
    mono_found: int
    certificate_found: int
    failures: int
    failure_exemplars: tuple[dict, ...]
    shard_ranges: tuple[tuple[int, int], ...]

    def counts_sum_ok(self) -> bool:
        return self.mono_found + self.certificate_found + self.failures == self.total

    def to_payload(self) -> dict:
        payload = {
            "parameters": {
                "n": self.n,
                "beta": frac_str(self.beta),
                "p": self.p,
                "mode": self.mode,
            },
            "counts": {
                "total": self.total,
                "mono_found": self.mono_found,
                "certificate_found": self.certificate_found,
                "failures": self.failures,
            },
            "failure_exemplars": [dict(x) for x in self.failure_exemplars],
        }
        if self.mode == "sampled":
            payload["parameters"]["seed"] = self.seed
            payload["parameters"]["samples"] = self.samples
        return payload


MAX_SHARDS = 2**16  # the shard list is built and reported whole


def _shard_ranges(space: int, shards: int) -> list[tuple[int, int]]:
    if shards < 1:
        raise ParameterError(f"shard count must be at least 1, got {shards}")
    if shards > MAX_SHARDS:
        raise ParameterError(f"shard count must be at most {MAX_SHARDS}, got {shards}")
    step, extra = divmod(space, shards)
    out = []
    lo = 0
    for i in range(shards):
        hi = lo + step + (1 if i < extra else 0)
        out.append((lo, hi))
        lo = hi
    return out


def _sample_red(seed: int, idx: int, m: int) -> int:
    """The red edge mask of sample ``idx``: a function of (seed, idx) alone,
    so samples do not depend on the shard layout."""
    return random.Random(f"{seed}:{idx}").getrandbits(m)


def _sweep_shard(args) -> tuple[int, list[int]]:
    """(mono count, mono-free red masks in order) of one shard: a counter
    range of an exhaustive sweep, or a sample-index range of a sampled one."""
    mode, masks, m, lo, hi, seed, deadline = args
    if mode == "exhaustive":
        return _kernel.sweep_filter_range(masks, m, lo, hi, deadline)
    reds = (_sample_red(seed, idx, m) for idx in range(lo, hi))
    return _kernel.sweep_filter(masks, m, reds, deadline)


def _run_shards(worker, arg_list, parallel: bool):
    if parallel and len(arg_list) > 1:
        import multiprocessing

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-posix fallback
            ctx = multiprocessing.get_context()
        with ctx.Pool(min(len(arg_list), ctx.cpu_count() or 1)) as pool:
            return pool.map(worker, arg_list)
    return [worker(args) for args in arg_list]


def ramsey_sweep(n: int, beta, mode: str = "exhaustive", samples: int = 0,
                 shards: int = 1, seed: int = 0, space_override: bool = False,
                 parallel: bool = True, checkpoint=None, deadline=None) -> SweepReport:
    """Sweep 2-colorings of K_{floor((2-beta)n)}: count colorings with a
    monochromatic C_n, run the certificate pipeline plus its independent
    verifier on every coloring without one, and record any failure as an
    exemplar.  Exhaustive mode halves the space by pinning edge (0,1) red
    and doubling counts; reports are identical for every shard count.
    ``deadline`` bounds the filter and the certificate pass alike.
    """
    beta = Fraction(beta)
    _validate_ramsey_params(n, beta)
    p = _expected_host_order(n, beta)
    m = p * (p - 1) // 2
    if mode not in ("exhaustive", "sampled"):
        raise ParameterError(f"unknown sweep mode {mode!r}")
    if checkpoint is not None and mode != "exhaustive":
        raise ParameterError("a checkpoint file covers exhaustive sweeps only")
    mask_count = comb(p, n) * factorial(n - 1) // 2  # len(cycle_edge_masks(p, n))
    if mask_count > MAX_CYCLE_MASKS and not space_override:
        raise SweepSpaceError(
            f"K_{p} has {mask_count} cycles C_{n} to list; pass the override to proceed")

    if mode == "exhaustive":
        if m > 30 and not space_override:
            raise SweepSpaceError(
                f"{m} edges give 2^{m} colorings; pass the override to proceed")
        ranges = _shard_ranges(1 << (m - 1), shards)
        scale = 2
        total = 1 << m
    else:
        if samples <= 0:
            raise ParameterError("sampled mode needs a positive sample count")
        ranges = _shard_ranges(samples, shards)
        scale = 1
        total = samples
    if p > MAX_VERTICES:
        raise ParameterError(f"host order {p} exceeds the {MAX_VERTICES}-vertex cap")
    masks = cycle_edge_masks(p, n, deadline)
    if checkpoint is not None:
        results = _checkpointed_shards(checkpoint, n, beta, p, masks, ranges, deadline)
    else:
        args = [(mode, masks, m, lo, hi, seed, deadline) for lo, hi in ranges]
        results = _run_shards(_sweep_shard, args, parallel)

    mono = sum(part for part, _ in results)
    monofree = [red for _, reds in results for red in reds]
    cert_found = 0
    failures = 0
    exemplars: list[dict] = []
    for red in monofree:
        if deadline is not None and monotonic() > deadline:
            raise SearchTimeout("sweep exceeded its deadline")
        col = coloring_from_red_mask(p, red)
        detail = ""
        try:
            cert = ramsey_certificate(col, n, beta)
            report = verify_ramsey_certificate(col, cert)
            ok = report.passed
            if not ok:
                detail = "verifier rejected: " + ", ".join(report.failing())
        except HypothesisUnsatisfiableError as exc:
            ok = False
            detail = f"kernel filter and exact search disagree: {exc}"
        except InternalContradictionError as exc:
            ok = False
            detail = str(exc)
        if ok:
            cert_found += scale
        else:
            failures += scale
            exemplars.append({
                "red_mask": red,
                "coloring": serialize_coloring(col),
                "detail": detail,
            })
    return SweepReport(
        n=n, beta=beta, p=p, mode=mode, seed=seed, samples=samples,
        total=total, mono_found=mono * scale, certificate_found=cert_found,
        failures=failures, failure_exemplars=tuple(exemplars),
        shard_ranges=tuple(ranges))


def _checkpoint_entry(line: str, ranges) -> tuple[int, tuple[int, int, list[int]]]:
    """(shard index, (last counter, mono count, mono-free red masks)) of one
    progress line, checked against the shard it names: the counts must add
    up to the counters done, and every mask must be a counter of them."""
    parts = line.split()
    try:
        if len(parts) not in (3, 4):
            raise ValueError(f"{len(parts)} fields")
        idx, last, mono = (int(x) for x in parts[:3])
        reds = [int(x, 16) for x in parts[3].split(",")] if len(parts) == 4 else []
    except ValueError as exc:
        raise ParameterError(f"checkpoint line {line!r} does not parse: {exc}") from exc
    if not 0 <= idx < len(ranges):
        raise ParameterError(f"checkpoint line {line!r} names no shard")
    lo, hi = ranges[idx]
    if not lo - 1 <= last <= hi - 1 or mono < 0 or mono + len(reds) != last - lo + 1 \
            or any(not red & 1 or not lo <= red >> 1 <= last for red in reds):
        raise ParameterError(
            f"checkpoint line {line!r} does not fit shard {idx} (counters {lo}..{hi - 1})")
    return idx, (last, mono, reds)


def _checkpointed_shards(path, n: int, beta: Fraction, p: int, masks, ranges, deadline):
    """Serial exhaustive shards with a plain-text progress file: one line per
    shard holding the last completed counter and the partial results.  Each
    unfinished shard runs in one filter call from its resume point.  The
    file is replaced whole, so a crash leaves the last complete state, but
    at most once a second and once after the last shard: rewriting it after
    every shard would cost time quadratic in the shard count.  So after a
    crash, at most about one second of completed shards runs again; a
    timeout writes every completed shard before it propagates."""
    import os

    m = p * (p - 1) // 2
    header = f"cyclestab-sweep v1 n={n} beta={frac_str(beta)} p={p} shards={len(ranges)}"
    state: dict[int, tuple[int, int, list[int]]] = {}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParameterError(f"cannot read checkpoint {path}: {exc}") from exc
        if lines and lines[0] == header:
            state = dict(_checkpoint_entry(line, ranges) for line in lines[1:])

    def write_state() -> None:
        rows = [header]
        for idx in sorted(state):
            last, mono, reds = state[idx]
            rows.append(f"{idx} {last} {mono} " + ",".join(format(x, "x") for x in reds))
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
        os.replace(tmp, path)

    results = []
    written = monotonic()
    unwritten = False
    try:
        for idx, (lo, hi) in enumerate(ranges):
            last, mono, reds = state.get(idx, (lo - 1, 0, []))
            if last + 1 < hi:
                mono_s, reds_s = _kernel.sweep_filter_range(masks, m, last + 1, hi, deadline)
                mono += mono_s
                reds.extend(reds_s)
                state[idx] = (hi - 1, mono, reds)
                unwritten = True
                if monotonic() - written >= 1:
                    write_state()
                    written, unwritten = monotonic(), False
            results.append((mono, reds))
    except SearchTimeout:
        if unwritten:
            write_state()
        raise
    if unwritten:
        write_state()
    return results


# -- pancyclic color verdict ----------------------------------------------


@dataclass(frozen=True)
class ColorVerdict:
    """Which color carries every cycle length in [3, n] on a host of odd
    order 2n - 1."""

    n: int
    order: int
    min_degree: int
    degree_check: Comparison
    verdict: str  # red | blue | both | neither
    red_missing: tuple[int, ...]
    blue_missing: tuple[int, ...]
    red_witnesses: dict[int, tuple[int, ...]]
    blue_witnesses: dict[int, tuple[int, ...]]
    note: str = ""

    def to_payload(self) -> dict:
        def side(missing, witnesses):
            if missing:
                return {"covers": False, "missing": list(missing)}
            return {"covers": True,
                    "witnesses": {str(t): list(w) for t, w in sorted(witnesses.items())}}

        payload = {
            "n": self.n,
            "order": self.order,
            "min_degree": self.min_degree,
            "degree_check": self.degree_check.to_payload(),
            "verdict": self.verdict,
            "red": side(self.red_missing, self.red_witnesses),
            "blue": side(self.blue_missing, self.blue_witnesses),
        }
        if self.note:
            payload["note"] = self.note
        return payload


def pancyclic_color_verdict(col: TwoColoring, deadline=None) -> ColorVerdict:
    """Exact spectra of both colors over [3, n] with n = (order + 1) / 2."""
    order = col.n
    if order % 2 == 0 or order < 5:
        raise ParameterError("host order must be an odd number >= 5")
    n = (order + 1) // 2
    delta = col.host.min_degree()
    degree_check = Comparison.make(
        "degree-hypothesis", Fraction(delta), ">=",
        (2 - Fraction(1, 10 ** 6)) * n,
        note="recorded only; the constant makes this vacuous at small orders")
    red_wit = spectrum_up_to(col.red, n, deadline)
    blue_wit = spectrum_up_to(col.blue, n, deadline)
    red_missing = tuple(t for t in range(3, n + 1) if t not in red_wit)
    blue_missing = tuple(t for t in range(3, n + 1) if t not in blue_wit)
    if not red_missing and not blue_missing:
        verdict = "both"
    elif not red_missing:
        verdict = "red"
    elif not blue_missing:
        verdict = "blue"
    else:
        verdict = "neither"
    note = ""
    if verdict == "neither":
        note = ("small-order observation, not a counterexample: the "
                "guarantee concerns large orders only")
    return ColorVerdict(n, order, delta, degree_check, verdict,
                        red_missing, blue_missing,
                        red_wit if not red_missing else {},
                        blue_wit if not blue_missing else {},
                        note)


@dataclass(frozen=True)
class VerdictSweepReport:
    """Verdict counts over sampled colorings of a complete odd-order host."""

    order: int
    n: int
    samples: int
    seed: int
    counts: dict
    neither_exemplars: tuple[dict, ...]

    def to_payload(self) -> dict:
        return {
            "parameters": {"order": self.order, "n": self.n,
                           "samples": self.samples, "seed": self.seed},
            "counts": {k: self.counts[k] for k in ("red", "blue", "both", "neither")},
            "neither_exemplars": [dict(x) for x in self.neither_exemplars],
        }


def _verdict_shard(args) -> tuple[dict, list[tuple[int, int]]]:
    order, seed, start, stop, deadline = args
    m = order * (order - 1) // 2
    counts = {"red": 0, "blue": 0, "both": 0, "neither": 0}
    neither = []
    for idx in range(start, stop):
        if deadline is not None and monotonic() > deadline:
            raise SearchTimeout("verdict sweep exceeded its deadline")
        red = _sample_red(seed, idx, m)
        col = coloring_from_red_mask(order, red)
        verdict = pancyclic_color_verdict(col, deadline).verdict
        counts[verdict] += 1
        if verdict == "neither":
            neither.append((idx, red))
    return counts, neither


def verdict_sample_sweep(order: int, samples: int, seed: int = 0, shards: int = 1,
                         parallel: bool = True, deadline=None) -> VerdictSweepReport:
    """Sampled verdict distribution; sample i is derived from (seed, i), so
    reports are identical for every shard count.  ``deadline`` bounds every
    sample's verdict."""
    if order % 2 == 0 or order < 5:
        raise ParameterError("host order must be an odd number >= 5")
    if samples <= 0:
        raise ParameterError("sample count must be positive")
    ranges = _shard_ranges(samples, shards)
    args = [(order, seed, lo, hi, deadline) for lo, hi in ranges]
    results = _run_shards(_verdict_shard, args, parallel)
    counts = {"red": 0, "blue": 0, "both": 0, "neither": 0}
    neither: list[dict] = []
    for part_counts, part_neither in results:
        for key in counts:
            counts[key] += part_counts[key]
        for idx, red in part_neither:
            neither.append({
                "sample": idx,
                "red_mask": red,
                "coloring": serialize_coloring(coloring_from_red_mask(order, red)),
            })
    return VerdictSweepReport(order, (order + 1) // 2, samples, seed, counts,
                              tuple(neither))
