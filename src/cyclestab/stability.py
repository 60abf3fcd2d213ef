"""Stability decompositions with machine-checkable certificates.

Each of the three procedures (two-parts, vertex-split, three-parts) ends in
one of three branches: a long cycle or a full range of cycle lengths,
witnessed exactly; a partition into removed vertices and two sides,
certified by named exact-arithmetic inequality checks; or, when a step's
required object does not exist on a given instance (possible well below the
asymptotic regime the constants were designed for), a first-class "stuck"
report naming the step, the missing object, and the partial state.

The procedures share their prologue and their tails: ``_start`` (range
gate, density hypothesis, first trace line, and ``done``, which finishes
the certificate), ``_pancyclic_range`` (a witness for every length in
[3, top], or the missing lengths), ``_partition`` (a partition branch with
its table's checks) and ``_inner_two_parts`` (the two-parts run inside
vertex-split and three-parts' majority peel, its trace and stuck steps
prefixed ``two-parts:``).

Certificates refer to host vertex ids and are reproducible byte for byte.

Every bound is written once: one table per procedure (``_BOUNDS``) plus
``_hypothesis`` and ``_threshold``.  The procedures build their checks from
it, and ``verify_stability_certificate`` rebuilds them from the graph, the
certificate's sets and its parameters.  A certificate verifies only if its
order matches the graph; its procedure, structure flag and claim are known;
its hypothesis, threshold and every stored check equal the rebuilt ones
field for field (both sides, operator, verdict, note); every check the
procedure always carries is present (``large-side-gate`` is added on one
route of three-parts only); the removed set and parts are disjoint, cover
the graph and satisfy the structure flag, with part1 no larger than part2;
and every cycle witness is a cycle of its stated length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .cycles import cycle_of_length, longest_cycle, spectrum_up_to, validate_cycle
from .errors import (
    HypothesisViolatedError,
    InternalContradictionError,
    MalformedCertificateError,
    NoSuchPathError,
    ParameterError,
)
from .graph import (
    Graph,
    bipartition,
    bits,
    components,
    cut_vertices,
    induced,
    lowest_bit,
    mask_of,
)
from .paths import hamiltonian_path_between
from .reporting import (
    BOOL,
    CHECKS,
    INT,
    INTS,
    OBJECT,
    RATIONAL,
    STR,
    STRS,
    WITNESSES,
    CheckReport,
    Comparison,
    NamedCheck,
    Record,
    ceil_frac,
    frac_str,
    record,
    sqrt_bound_comparison,
)

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class DecompositionParams(Record):
    """Procedure parameters; all rationals, compared exactly."""

    alpha: Fraction = Fraction(0)
    beta: Fraction = Fraction(0)
    gamma: Fraction = Fraction(0)
    enforce_paper_range: bool = False

    FIELDS = (("alpha", "alpha", RATIONAL), ("beta", "beta", RATIONAL),
              ("gamma", "gamma", RATIONAL),
              ("enforce_paper_range", "enforce_paper_range", BOOL))

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            value = Fraction(getattr(self, name))
            object.__setattr__(self, name, value)
            if value < 0:
                raise ParameterError(f"{name} must be nonnegative")

    def validate_range(self, procedure: str, n: int) -> None:
        """Paper-range gate; only active when enforce_paper_range is set."""
        if not self.enforce_paper_range:
            return
        bad = []
        if procedure == "two-parts":
            if not (0 < self.alpha < Fraction(1, 10 ** 5)):
                bad.append("alpha outside (0, 1e-5)")
            if not (0 <= self.beta < Fraction(1, 10 ** 5)):
                bad.append("beta outside [0, 1e-5)")
            if self.alpha > 0 and n < Fraction(1, 2 * self.alpha):
                bad.append("n below 1/(2 alpha)")
        elif procedure == "three-parts":
            if not (0 < self.alpha < Fraction(5, 10 ** 6)):
                bad.append("alpha outside (0, 5e-6)")
            if not (0 <= self.beta <= self.alpha / 25):
                bad.append("beta outside [0, alpha/25]")
            if self.alpha > 0 and n < Fraction(1, self.alpha):
                bad.append("n below 1/alpha")
        elif procedure == "vertex-split":
            if not (0 < self.gamma < Fraction(1, 10 ** 5)):
                bad.append("gamma outside (0, 1e-5)")
        if bad:
            raise ParameterError("; ".join(bad))


@dataclass(frozen=True)
class CycleBranch(Record):
    """Witnessed cycle conclusion: one long cycle, or a full range."""

    claim: str                      # "long-cycle" | "pancyclic-range"
    threshold: Fraction             # required length bound, exact
    required_lengths: tuple[int, ...]
    witnesses: dict[int, tuple[int, ...]]

    kind = "cycle"
    FIELDS = (("claim", "claim", STR), ("threshold", "threshold", RATIONAL),
              ("required_lengths", "required_lengths", INTS),
              ("witnesses", "witnesses", WITNESSES))


@dataclass(frozen=True)
class PartitionBranch(Record):
    """Removed set plus two sides, with the structure claim and checks."""

    removed: tuple[int, ...]
    part1: tuple[int, ...]
    part2: tuple[int, ...]
    structure: str                  # "split" | "bipartite"
    checks: tuple[Comparison, ...]

    kind = "partition"
    FIELDS = (("removed", "removed", INTS), ("part1", "part1", INTS),
              ("part2", "part2", INTS), ("structure", "structure", STR),
              ("checks", "checks", CHECKS))


@dataclass(frozen=True)
class StuckReport(Record):
    """A required object for some step is missing on this instance; data, not a crash."""

    step: str
    missing: str
    partial: dict = field(default_factory=dict)

    kind = "stuck"
    FIELDS = (("step", "step", STR), ("missing", "missing", STR),
              ("partial", "partial", OBJECT))


Branch = Union[CycleBranch, PartitionBranch, StuckReport]


@dataclass(frozen=True)
class StabilityCertificate(Record):
    procedure: str
    n: int
    params: DecompositionParams
    hypothesis: Comparison
    branch: Branch
    trace: tuple[str, ...]

    FIELDS = (("procedure", "procedure", STR), ("n", "n", INT),
              ("parameters", "params", record(DecompositionParams)),
              ("hypothesis", "hypothesis", record(Comparison)),
              ("branch", "branch", record(CycleBranch, PartitionBranch, StuckReport)),
              ("trace", "trace", STRS))


# -- shared machinery ---------------------------------------------------


def low_degree_mask(g: Graph, num: int, den: int, within: Optional[int] = None,
                    order_n: Optional[int] = None) -> int:
    """Vertices of ``within`` whose degree inside it is at most (num/den) *
    order_n (defaults: whole graph, original order)."""
    if den <= 0:
        raise ParameterError("denominator must be positive")
    scope = g.full_mask() if within is None else within
    n = g.n if order_n is None else order_n
    out = 0
    for v in bits(scope):
        if den * g.degree_within(v, scope) <= num * n:
            out |= 1 << v
    return out


def _edges_within(g: Graph, mask: int) -> int:
    return sum((g.adj[v] & mask).bit_count() for v in bits(mask)) // 2


def _min_degree_within(g: Graph, mask: int) -> int:
    return min(((g.adj[v] & mask).bit_count() for v in bits(mask)), default=0)


def _sorted_parts(g: Graph, p1: int, p2: int) -> tuple[int, int]:
    k1 = (p1.bit_count(), lowest_bit(p1) if p1 else -1)
    k2 = (p2.bit_count(), lowest_bit(p2) if p2 else -1)
    return (p1, p2) if k1 <= k2 else (p2, p1)


def _set_payload(g: Graph, mask: int) -> list[int]:
    return sorted(g.host_ids(bits(mask)))


def _label_mask(g: Graph, labels) -> int:
    """Local vertex mask for a collection of host labels."""
    back = {g.label_of(v): v for v in range(g.n)}
    return mask_of(back[v] for v in labels)


def vertex_disjoint_cross_paths(g: Graph, a_mask: int, b_mask: int,
                                limit: int = 2) -> list[list[int]]:
    """Up to ``limit`` vertex-disjoint paths from a_mask to b_mask whose
    interiors avoid both sets (unit vertex capacities, BFS augmentation)."""
    if a_mask & b_mask:
        raise ParameterError("endpoint sets overlap")
    n = g.n
    src, snk = 2 * n, 2 * n + 1
    cap: dict[tuple[int, int], int] = {}
    nbr: dict[int, list[int]] = {}
    orig: set[tuple[int, int]] = set()

    def add(u: int, v: int) -> None:
        orig.add((u, v))
        cap[(u, v)] = cap.get((u, v), 0) + 1
        cap.setdefault((v, u), 0)
        nbr.setdefault(u, []).append(v)
        nbr.setdefault(v, []).append(u)

    for v in range(n):
        add(2 * v, 2 * v + 1)
    for u in range(n):
        for v in bits(g.adj[u]):
            # no transit out of b_mask, no transit into a_mask
            if not (b_mask >> u) & 1 and not (a_mask >> v) & 1:
                add(2 * u + 1, 2 * v)
    for a in bits(a_mask):
        add(src, 2 * a + 1)
    for b in bits(b_mask):
        add(2 * b, snk)

    flow = 0
    while flow < limit:
        parent: dict[int, int] = {src: src}
        queue = [src]
        while queue and snk not in parent:
            nxt = []
            for u in queue:
                for v in nbr.get(u, ()):
                    if v not in parent and cap.get((u, v), 0) > 0:
                        parent[v] = u
                        nxt.append(v)
            queue = nxt
        if snk not in parent:
            break
        v = snk
        while v != src:
            u = parent[v]
            cap[(u, v)] -= 1
            cap[(v, u)] += 1
            v = u
        flow += 1

    # walk saturated original arcs from each used source arc; unit vertex
    # capacities make the walk unique and loop-free
    paths = []
    for a in sorted(bits(a_mask)):
        if (src, 2 * a + 1) in orig and cap[(src, 2 * a + 1)] == 0:
            path = [a]
            node = 2 * a + 1
            while True:
                nxt = None
                for w in nbr.get(node, ()):
                    if (node, w) in orig and cap[(node, w)] == 0:
                        nxt = w
                        break
                if nxt is None or nxt == snk:
                    break
                if nxt % 2 == 0:
                    path.append(nxt // 2)
                    node = nxt + 1  # continue through the internal arc
                else:
                    node = nxt
            paths.append(path)
    return paths


def _pancyclic_range(g: Graph, threshold: Fraction,
                     deadline=None) -> tuple[Optional[CycleBranch], list[int]]:
    """A ``pancyclic-range`` branch witnessing every length in [3, top],
    top = ceil(threshold), or None; and the lengths of that range with no
    cycle in ``g``, those above the order included."""
    top = ceil_frac(threshold)
    found = spectrum_up_to(g, top, deadline)
    missing = [t for t in range(3, top + 1) if t not in found]
    if missing or top > g.n:
        return None, missing
    return CycleBranch("pancyclic-range", threshold, tuple(range(3, top + 1)),
                       {t: g.host_ids(w) for t, w in found.items()}), missing


# -- the bounds, each written once ----------------------------------------

# procedure -> (factor on the edge count, bound(alpha, beta, gamma, n), bound text)
_DENSITY = {
    "two-parts": (1, lambda a, b, c, n: (Fraction(1, 4) - b) * n * n, "(1/4 - beta) n^2"),
    "vertex-split": (4, lambda a, b, c, n: n * n, "n^2 / 4"),
}
_DENSITY["three-parts"] = _DENSITY["two-parts"]


def _hypothesis(procedure: str, g: Graph, params: DecompositionParams) -> Comparison:
    """The edge-density hypothesis of ``procedure`` on ``g``."""
    factor, bound, text = _DENSITY[procedure]
    return Comparison.make(
        "edge-density", factor * g.edge_count(), ">",
        bound(params.alpha, params.beta, params.gamma, g.n),
        note=f"edge count above {text}")


def _threshold(procedure: str, params: DecompositionParams, n: int) -> Fraction:
    """The cycle length a cycle branch of ``procedure`` must reach."""
    return (HALF + (params.gamma if procedure == "vertex-split" else params.alpha)) * n


# quantity -> value on a partition (removed, part1, part2) of local masks
_QUANTITIES = {
    "removed": lambda g, r, p1, p2: r.bit_count(),
    "part1": lambda g, r, p1, p2: p1.bit_count(),
    "part2": lambda g, r, p1, p2: p2.bit_count(),
    "part1-min-degree": lambda g, r, p1, p2: _min_degree_within(g, p1),
    "part2-min-degree": lambda g, r, p1, p2: _min_degree_within(g, p2),
    "part1-components": lambda g, r, p1, p2: len(components(g, within=p1)),
    "part2-components": lambda g, r, p1, p2: len(components(g, within=p2)),
    "rest-min-degree": lambda g, r, p1, p2: _min_degree_within(g, p1 | p2),
    "part1-deficit": lambda g, r, p1, p2: g.n - 2 * p1.bit_count(),
    "part2-excess": lambda g, r, p1, p2: 2 * p2.bit_count() - g.n,
}
# signed quantities compared with a square root: the bound is its square
_SQRT_COMPARED = frozenset({"part1-deficit", "part2-excess"})

_INFORMATIONAL_TIGHT = "informational tighter bound from the derivation"
_NEAR_HALF_LOWER = lambda a, b, c, n: (HALF - 900 * c) * n
_THREE_SEVENTHS = lambda a, b, c, n: Fraction(3 * n, 7)
_CLASS_BALANCE = lambda a, b, c, n: 400 * (a + b) * n * n

# procedure -> check name -> (quantity, op, bound(alpha, beta, gamma, n), note)
_BOUNDS = {
    "two-parts": {
        "removed-size": ("removed", "<", lambda a, b, c, n: 840 * (a + 2 * b) * n, ""),
        "part1-size-lower": (
            "part1", ">", lambda a, b, c, n: (HALF - 840 * (a + 2 * b)) * n, ""),
        "part1-size-lower-as-printed": (
            "part1", ">", lambda a, b, c, n: (HALF - 840 * (a + 2 * b) * b) * n,
            "informational: the stated bound carries an extra beta factor; "
            "the derived bound is part1-size-lower"),
        "part2-size-upper": (
            "part2", "<", lambda a, b, c, n: (HALF + 20 * (a + 2 * b)) * n, ""),
        "part1-min-degree": ("part1-min-degree", ">=", _THREE_SEVENTHS, ""),
        "part2-min-degree": ("part2-min-degree", ">=", _THREE_SEVENTHS, ""),
        "part1-components": ("part1-components", "==", lambda a, b, c, n: 1, ""),
        "part2-components": ("part2-components", "==", lambda a, b, c, n: 1, ""),
    },
    "vertex-split": {
        "part1-size-lower": ("part1", ">", _NEAR_HALF_LOWER, ""),
        "part2-size-upper": ("part2", "<", lambda a, b, c, n: (HALF + 900 * c) * n, ""),
        "part1-size-upper-tight": (
            "part1", "<", lambda a, b, c, n: (HALF + 840 * c) * n, _INFORMATIONAL_TIGHT),
        "part2-size-lower-tight": ("part2", ">", _NEAR_HALF_LOWER, _INFORMATIONAL_TIGHT),
    },
    "three-parts": {
        "removed-size": ("removed", "<", lambda a, b, c, n: 2000 * a * n, ""),
        "class-balance-lower": (
            "part1-deficit", "<", _CLASS_BALANCE,
            "smaller side above (1/2 - 10 sqrt(alpha + beta)) n;"),
        "class-balance-upper": (
            "part2-excess", "<", _CLASS_BALANCE,
            "larger side below (1/2 + 10 sqrt(alpha + beta)) n;"),
        "min-degree-after-removal": (
            "rest-min-degree", ">=", lambda a, b, c, n: Fraction(2 * n, 5), ""),
        "large-side-gate": (
            "part2-excess", ">=", lambda a, b, c, n: 100 * (a + 2 * b) * n * n,
            "side at least (1/2 + 5 sqrt(alpha + 2 beta)) n;"),
    },
}
# the one check a procedure carries on some routes only: three-parts adds it
# on its low-connectivity route, where it also gates the cycle branch
_LARGE_SIDE_GATE = "large-side-gate"


def _partition_checks(procedure: str, g: Graph, params: DecompositionParams,
                      removed: int, part1: int, part2: int,
                      gate: bool = False) -> tuple[Comparison, ...]:
    """The table's checks of ``procedure`` on a partition given as local
    masks, in table order; the large-side gate only when ``gate`` is set."""
    a, b, c = params.alpha, params.beta, params.gamma
    checks = []
    for name, (quantity, op, bound, note) in _BOUNDS[procedure].items():
        if name == _LARGE_SIDE_GATE and not gate:
            continue
        value = _QUANTITIES[quantity](g, removed, part1, part2)
        rhs = bound(a, b, c, g.n)
        if quantity in _SQRT_COMPARED:
            checks.append(sqrt_bound_comparison(name, value, rhs, op, note=note))
        else:
            checks.append(Comparison.make(name, value, op, rhs, note=note))
    return tuple(checks)


def _start(procedure: str, g: Graph, params: DecompositionParams):
    """Paper-range gate, density hypothesis and the first trace line.
    Returns the hypothesis, the trace, and ``done``, which finishes the
    certificate with a branch and the trace as it then stands."""
    params.validate_range(procedure, g.n)
    hyp = _hypothesis(procedure, g, params)
    if params.enforce_paper_range and not hyp.holds:
        raise HypothesisViolatedError(f"edge density below {_DENSITY[procedure][2]}")
    trace = [f"order {g.n}, edges {g.edge_count()}, "
             f"density hypothesis {'holds' if hyp.holds else 'violated'}"]

    def done(branch: Branch) -> StabilityCertificate:
        return StabilityCertificate(procedure, g.n, params, hyp, branch, tuple(trace))

    return hyp, trace, done


def _partition(procedure: str, g: Graph, params: DecompositionParams,
               removed: int, part1: int, part2: int, structure: str = "split",
               gate: bool = False) -> PartitionBranch:
    """The partition branch on local masks, with the table's checks."""
    return PartitionBranch(
        *(tuple(_set_payload(g, s)) for s in (removed, part1, part2)), structure,
        _partition_checks(procedure, g, params, removed, part1, part2, gate))


def _inner_two_parts(g: Graph, sub: Graph, params: DecompositionParams,
                     trace: list[str], dense: bool, where: str, deadline=None):
    """Two-parts on ``sub`` (``g`` or an induced subgraph of it), its trace
    appended to ``trace`` under a ``two-parts: `` prefix.  Returns a stuck
    outcome, its step prefixed ``two-parts:``, or the partition's (removed,
    part1, part2) as masks of ``g``.  A long cycle is a contradiction when
    the caller has a length missing in a ``dense`` graph (``where`` names
    it), and otherwise a stuck outcome."""
    inner = decompose_two_parts(sub, params, deadline)
    trace.extend("two-parts: " + line for line in inner.trace)
    branch = inner.branch
    if isinstance(branch, CycleBranch):
        if dense:
            raise InternalContradictionError(
                "long cycle at threshold although a required length is missing "
                f"in {where}")
        return StuckReport(
            "inner-long-cycle",
            "a conclusion branch applicable below the density hypothesis",
            {"inner": branch.to_payload()})
    if isinstance(branch, StuckReport):
        return StuckReport("two-parts:" + branch.step, branch.missing, branch.partial)
    return tuple(_label_mask(g, s) for s in (branch.removed, branch.part1, branch.part2))


# -- two-parts procedure ------------------------------------------------


def decompose_two_parts(g: Graph, params: DecompositionParams,
                        deadline=None) -> StabilityCertificate:
    """Long cycle of length >= (1/2 + alpha) n, or a certified split into
    two dense components after removing M = M0 + K + M2."""
    n = g.n
    _, trace, done = _start("two-parts", g, params)
    threshold = _threshold("two-parts", params, n)
    c, cyc = longest_cycle(g, deadline)
    trace.append(f"longest cycle {c}, long-cycle threshold {frac_str(threshold)}")
    if c and Fraction(c) >= threshold:
        return done(CycleBranch("long-cycle", threshold, (c,),
                                {c: g.host_ids(cyc)}))

    full = g.full_mask()
    m0 = low_degree_mask(g, 9, 40)
    r0 = full & ~m0
    trace.append(f"first peel at 9n/40 removed {m0.bit_count()} vertices")
    if not r0:
        return done(StuckReport("first-peel", "nonempty remainder after the 9n/40 peel",
                                {"peeled": _set_payload(g, m0)}))

    comps = components(g, within=r0)
    if len(comps) > 1:
        k_set = 0
        trace.append("remainder already disconnected, no cut vertex needed")
    else:
        arts = cut_vertices(g, within=r0)
        if arts:
            k_set = 1 << lowest_bit(arts)
            trace.append(f"cut vertex {g.label_of(lowest_bit(arts))} removed")
        else:
            sub = induced(g, r0)
            n1, e1 = sub.n, sub.edge_count()
            c1, _ = longest_cycle(sub, deadline)
            if c1 == n1:
                corwo = Comparison("remainder-long-cycle-squared", Fraction(0),
                                   "<", Fraction(1), True,
                                   note="remainder hamiltonian, holds vacuously")
            elif 2 * n1 - c < 0:
                corwo = Comparison("remainder-long-cycle-squared",
                                   Fraction(2 * n1 - c), "<", Fraction(0), True,
                                   note="longest cycle already beyond twice the "
                                        "remainder order, holds by sign")
            else:
                corwo = Comparison.make(
                    "remainder-long-cycle-squared", (2 * n1 - c) ** 2, "<",
                    4 * (n1 * n1 - 2 * e1),
                    note="squared form of c(G) > 2n'(1 - sqrt(1 - 2e'/n'^2)) "
                         "on the two-connected remainder; both sides nonnegative")
            return done(StuckReport(
                "two-connected-remainder",
                "a cut set of size at most 1 (remainder is 2-connected)",
                {"remainder": _set_payload(g, r0),
                 "remainder_longest_cycle": c1,
                 "corollary_check": corwo.to_payload()}))

    gprime = r0 & ~k_set
    comps = components(g, within=gprime)
    sizes = [comp.bit_count() for comp in comps]
    trace.append(f"split component sizes {sizes}")
    small = [comp for comp in comps if 3 * comp.bit_count() <= n]
    if small:
        return done(StuckReport(
            "small-component", "all split components of order above n/3",
            {"component_sizes": sizes,
             "small_components": [_set_payload(g, comp) for comp in small]}))
    h1, h2 = _sorted_parts(g, comps[0], comps[1])

    union = h1 | h2
    m2 = low_degree_mask(g, 9, 20, within=union, order_n=n)
    g1m, g2m = h1 & ~m2, h2 & ~m2
    trace.append(f"second peel at 9n/20 removed {m2.bit_count()} vertices")
    if not g1m or not g2m:
        return done(StuckReport(
            "second-peel", "nonempty parts after the 9n/20 peel",
            {"peeled": _set_payload(g, m2),
             "part_sizes": [g1m.bit_count(), g2m.bit_count()]}))
    g1m, g2m = _sorted_parts(g, g1m, g2m)
    return done(_partition("two-parts", g, params, m0 | k_set | m2, g1m, g2m))


# -- vertex-split procedure ----------------------------------------------


def decompose_vertex_split(g: Graph, gamma, enforce_paper_range: bool = False,
                           deadline=None) -> StabilityCertificate:
    """Every cycle length up to ceil((1/2 + gamma) n), or one vertex whose
    removal splits the graph into two near-half sides."""
    gamma = Fraction(gamma)
    params = DecompositionParams(alpha=gamma, beta=Fraction(0), gamma=gamma,
                                 enforce_paper_range=enforce_paper_range)
    n = g.n
    hyp, trace, done = _start("vertex-split", g, params)
    threshold = _threshold("vertex-split", params, n)
    top = ceil_frac(threshold)
    if top <= n:
        branch, missing = _pancyclic_range(g, threshold, deadline)
        trace.append(f"pancyclicity check up to {top}: "
                     f"{'complete' if not missing else f'missing {missing}'}")
        if branch:
            return done(branch)
    else:
        trace.append(f"required top {top} exceeds the order, cycle branch impossible")

    inner = _inner_two_parts(g, g, DecompositionParams(alpha=gamma), trace,
                             hyp.holds, "a graph denser than n^2/4", deadline)
    if isinstance(inner, StuckReport):
        return done(inner)
    removed_inner, part1, part2 = inner
    cross = vertex_disjoint_cross_paths(g, part1, part2, limit=2)
    trace.append(f"disjoint cross paths found: {len(cross)}")

    if len(cross) >= 2:
        partial = {"cross_paths": [list(map(g.label_of, p)) for p in cross[:2]]}
        sub1 = induced(g, part1)
        sub2 = induced(g, part2)
        verts1 = list(bits(part1))
        verts2 = list(bits(part2))
        pos1 = {v: i for i, v in enumerate(verts1)}
        pos2 = {v: i for i, v in enumerate(verts2)}
        (u1, v1), (u2, v2) = (cross[0][0], cross[0][-1]), (cross[1][0], cross[1][-1])
        try:
            q1 = hamiltonian_path_between(sub1, pos1[u1], pos1[u2], deadline).path
            q2 = hamiltonian_path_between(sub2, pos2[v2], pos2[v1], deadline).path
            cycle = [verts1[i] for i in q1.vertices] + cross[1][1:-1] + \
                    [verts2[i] for i in q2.vertices] + cross[0][1:-1][::-1]
            partial["glued_cycle"] = list(map(g.label_of, cycle))
            partial["glued_cycle_length"] = len(cycle)
        except NoSuchPathError:
            partial["glued_cycle"] = None
            partial["note"] = "spanning path inside a part does not exist at this order"
        return done(StuckReport(
            "single-separator",
            "a single vertex separating the two parts (two disjoint cross paths exist)",
            partial))

    if len(cross) == 0:
        pool = removed_inner if removed_inner else g.full_mask()
        sep = lowest_bit(pool)
        trace.append(f"parts disconnected in the whole graph, "
                     f"separator defaults to vertex {g.label_of(sep)}")
    else:
        sep = None
        for u in sorted(cross[0]):  # min-label candidate first
            a2, b2 = part1 & ~(1 << u), part2 & ~(1 << u)
            if not _cross_paths_avoiding(g, a2, b2, u):
                sep = u
                break
        if sep is None:
            raise InternalContradictionError(
                "no single vertex meets every cross path although at most one "
                "disjoint cross path exists")
        trace.append(f"separating vertex {g.label_of(sep)}")

    sep_bit = 1 << sep
    rest = g.full_mask() & ~sep_bit
    comps = components(g, within=rest)
    h1 = 0
    seed = part1 & ~sep_bit
    for comp in comps:
        if comp & seed:
            h1 |= comp
    h2 = rest & ~h1
    if not h1 or not h2:
        return done(StuckReport(
            "vertex-split-parts", "two nonempty sides after removing the separator",
            {"separator": g.label_of(sep),
             "side_sizes": [h1.bit_count(), h2.bit_count()]}))
    h1, h2 = _sorted_parts(g, h1, h2)
    return done(_partition("vertex-split", g, params, sep_bit, h1, h2))


def _cross_paths_avoiding(g: Graph, a_mask: int, b_mask: int, avoid: int):
    """Cross paths in g minus one vertex, implemented by masking it out."""
    adj = [g.adj[v] & ~(1 << avoid) if v != avoid else 0 for v in range(g.n)]
    masked = Graph(g.n, adj, g.labels)
    return vertex_disjoint_cross_paths(masked, a_mask, b_mask, limit=1)


# -- three-parts procedure -----------------------------------------------


def decompose_three_parts(g: Graph, params: DecompositionParams,
                          deadline=None) -> StabilityCertificate:
    """Every cycle length up to ceil((1/2 + alpha) n), or a partition
    V0 + V1 + V2 where the remainder is split or complete bipartite."""
    n = g.n
    alpha, beta = params.alpha, params.beta
    _, trace, done = _start("three-parts", g, params)
    threshold = _threshold("three-parts", params, n)
    top = ceil_frac(threshold)
    full = g.full_mask()
    m = low_degree_mask(g, 9, 20)
    gate = Comparison.make("peel-size", m.bit_count(), "<", 20 * (alpha + 2 * beta) * n)
    trace.append(f"peel at 9n/20 removed {m.bit_count()} vertices, "
                 f"small-peel gate {'holds' if gate.holds else 'fails'}")

    if not gate.holds:
        # |M| >= 20 (alpha + 2 beta) n >= 24 beta n, so M holds want vertices
        want = ceil_frac(24 * beta * n)
        m0 = mask_of(sorted(bits(m))[:want])
        keep = full & ~m0
        n1 = keep.bit_count()
        e1 = _edges_within(g, keep)
        emin = Comparison.make("majority-remainder-density", 4 * e1, ">", n1 * n1,
                               note="remainder denser than a quarter square")
        trace.append(f"selected {want} lowest-label peeled vertices, "
                     f"density gate {'holds' if emin.holds else 'fails'}")
        if not emin.holds:
            return done(StuckReport(
                "peel-majority-density",
                "remainder density above (n - |M0|)^2 / 4",
                {"selected": _set_payload(g, m0), "check": emin.to_payload()}))
        sub = induced(g, keep)
        inner_params = DecompositionParams(alpha=2 * alpha)
        top2 = ceil_frac(_threshold("two-parts", inner_params, n1))
        witnesses = spectrum_up_to(sub, top2, deadline)
        if all(t in witnesses for t in range(3, top2 + 1)):
            # the remainder is pancyclic up to top2 <= n1; extend in the whole graph
            witnesses = {t: sub.host_ids(w) for t, w in witnesses.items() if t <= top}
            for t in range(top2 + 1, top + 1):
                w = cycle_of_length(g, t, deadline) if t <= n else None
                if w is None:
                    break
                witnesses[t] = g.host_ids(w)
            if all(t in witnesses for t in range(3, top + 1)):
                trace.append(f"remainder pancyclic up to {top2}, conclusion verified")
                return done(CycleBranch("pancyclic-range", threshold,
                                        tuple(range(3, top + 1)), witnesses))
            return done(StuckReport(
                "peel-majority-extension",
                f"cycles of every length up to {top} in the whole graph",
                {"verified_up_to": top2}))
        inner = _inner_two_parts(g, sub, inner_params, trace, True,
                                 "a remainder denser than a quarter square", deadline)
        if isinstance(inner, StuckReport):
            return done(inner)
        removed_inner, part1, part2 = inner
        return done(_partition("three-parts", g, params, m0 | removed_inner,
                               part1, part2))

    g0 = full & ~m
    if not g0:
        return done(StuckReport("peel", "nonempty remainder after the 9n/20 peel",
                                {"peeled": _set_payload(g, m)}))

    bip = bipartition(g, within=g0)
    if bip is not None:
        trace.append("remainder bipartite, complete-bipartite structure claimed")
        return done(_partition("three-parts", g, params, m, *bip, "bipartite"))

    comps = components(g, within=g0)
    arts = cut_vertices(g, within=g0) if len(comps) == 1 else 0
    if len(comps) > 1 or arts:
        k_set = 0 if len(comps) > 1 else (1 << lowest_bit(arts))
        if k_set:
            trace.append(f"cut vertex {g.label_of(lowest_bit(k_set))} removed "
                         f"from the remainder")
        else:
            trace.append("remainder disconnected, no cut vertex needed")
        g0k = g0 & ~k_set
        comps = components(g, within=g0k)
        if len(comps) != 2:
            return done(StuckReport(
                "low-connectivity-split", "exactly two components after the cut",
                {"component_sizes": [c.bit_count() for c in comps]}))
        split = _partition("three-parts", g, params, m | k_set,
                           *_sorted_parts(g, comps[0], comps[1]), gate=True)
        gate2 = split.checks[-1]
        trace.append(f"large-side gate {'holds' if gate2.holds else 'fails'}")
        if not gate2.holds:
            return done(split)
        branch, missing = _pancyclic_range(g, threshold, deadline)
        return done(branch or StuckReport(
            "large-side-pancyclicity", f"cycles of every length up to {top}",
            {"missing": missing, "gate": gate2.to_payload()}))

    trace.append("remainder two-connected and nonbipartite, cycle branch claimed")
    branch, missing = _pancyclic_range(g, threshold, deadline)
    return done(branch or StuckReport(
        "dense-remainder-pancyclicity", f"cycles of every length up to {top}",
        {"missing": missing}))


# -- verification ---------------------------------------------------------


def verify_stability_certificate(g: Graph, cert: StabilityCertificate) -> CheckReport:
    """Re-derive every claim of a certificate from the graph alone; the
    module docstring lists what makes a certificate fail."""
    if isinstance(cert.branch, StuckReport):
        raise MalformedCertificateError(
            "stuck outcome carries no verifiable certificate")
    checks: list[NamedCheck] = []
    label_to_local = {g.label_of(v): v for v in range(g.n)}

    def named(name: str, holds: bool, detail: str = "") -> None:
        checks.append(NamedCheck(name, holds, detail))

    named("order-matches", cert.n == g.n,
          f"certificate order {cert.n}, graph order {g.n}")
    if cert.procedure not in _BOUNDS:
        named("procedure-known", False, f"unknown procedure {cert.procedure!r}")
        return CheckReport(tuple(checks))
    named("hypothesis-consistent",
          cert.hypothesis == _hypothesis(cert.procedure, g, cert.params),
          "stored density comparison matches the graph and re-evaluates")

    if isinstance(cert.branch, CycleBranch):
        _verify_cycle_branch(g, cert, cert.branch, label_to_local, named)
    else:
        _verify_partition_branch(g, cert, cert.branch, label_to_local, named)
    return CheckReport(tuple(checks))


def _verify_cycle_branch(g, cert, branch, label_to_local, named) -> None:
    named("threshold-consistent",
          branch.threshold == _threshold(cert.procedure, cert.params, cert.n),
          f"threshold {frac_str(branch.threshold)}")
    if branch.claim == "long-cycle":
        lengths_ok = len(branch.required_lengths) == 1
        named("required-lengths-shape", lengths_ok, "single long cycle expected")
        if not lengths_ok:
            return
        t = branch.required_lengths[0]
        named("length-meets-threshold", Fraction(t) >= branch.threshold,
              f"cycle length {t}")
        w = branch.witnesses.get(t)
        ok = w is not None and _witness_valid(g, w, t, label_to_local)
        named("witness-valid", ok, f"length {t}")
        return
    if branch.claim == "pancyclic-range":
        top = ceil_frac(branch.threshold)
        named("required-lengths-shape",
              branch.required_lengths == tuple(range(3, top + 1)),
              f"expected every length in [3, {top}]")
        for t in branch.required_lengths:
            w = branch.witnesses.get(t)
            ok = w is not None and _witness_valid(g, w, t, label_to_local)
            named(f"witness-valid-{t}", ok, f"length {t}")
        return
    named("claim-known", False, f"unknown claim {branch.claim!r}")


def _witness_valid(g, w, t, label_to_local) -> bool:
    try:
        local = [label_to_local[v] for v in w]
    except KeyError:
        return False
    return validate_cycle(g, local, t)


def _verify_partition_branch(g, cert, branch, label_to_local, named) -> None:
    removed = branch.removed
    p1, p2 = branch.part1, branch.part2
    all_sets = [removed, p1, p2]
    flat = [v for s in all_sets for v in s]
    distinct = len(set(flat)) == len(flat)
    named("partition-disjoint", distinct, "removed and parts pairwise disjoint")
    covers = set(flat) == set(g.host_ids(range(g.n)))
    named("partition-covers", covers, "removed and parts cover every vertex")
    in_range = all(v in label_to_local for v in flat)
    named("vertices-known", in_range, "every certificate vertex exists in the graph")
    if not (distinct and covers and in_range):
        return

    m1 = mask_of(label_to_local[v] for v in p1)
    m2 = mask_of(label_to_local[v] for v in p2)

    if branch.structure == "split":
        cross = any(g.adj[v] & m2 for v in bits(m1))
        named("structure-split", not cross, "no edges between the two parts")
    elif branch.structure == "bipartite":
        inside = any(g.adj[v] & m1 for v in bits(m1)) or \
                 any(g.adj[v] & m2 for v in bits(m2))
        named("structure-bipartite", not inside, "no edges inside either part")
    else:
        named("structure-known", False, f"unknown structure {branch.structure!r}")
        return

    sizes_ordered = len(p1) <= len(p2)
    named("parts-ordered", sizes_ordered, "part1 no larger than part2")

    m0 = mask_of(label_to_local[v] for v in removed)
    rebuilt = {c.name: c for c in _partition_checks(
        cert.procedure, g, cert.params, m0, m1, m2, gate=True)}
    for cmp in branch.checks:
        named(f"check-{cmp.name}", rebuilt.pop(cmp.name, None) == cmp,
              "stored quantities and verdict match the partition and parameters")
    for name in rebuilt:
        if name != _LARGE_SIDE_GATE:
            named(f"check-{name}", False, "check missing from the certificate")
