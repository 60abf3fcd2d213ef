# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled search kernels.

Mirrors cyclestab._pure operation for operation: identical search order
(anchors ascending, neighbors ascending) and identical pruning, so both
backends return identical results including witnesses.
"""

from time import monotonic

from cyclestab.errors import SearchTimeout

from libc.stdint cimport int64_t, uint64_t
from libc.stdlib cimport free, malloc

cdef extern from *:
    """
    static inline int cs_popcount64(unsigned long long x) {
        return __builtin_popcountll(x);
    }
    static inline int cs_ctz64(unsigned long long x) {
        return __builtin_ctzll(x);
    }
    """
    int cs_popcount64(unsigned long long x) nogil
    int cs_ctz64(unsigned long long x) nogil


cdef uint64_t _reach_from(uint64_t* adj, uint64_t cand, uint64_t free_) nogil:
    cdef uint64_t reach = 0, frontier = cand, nxt, f
    cdef int v
    while frontier:
        reach |= frontier
        nxt = 0
        f = frontier
        while f:
            v = cs_ctz64(f)
            f &= f - 1
            nxt |= adj[v]
        frontier = nxt & free_ & ~reach
    return reach


cdef int _lc_dfs(uint64_t* adj, int a, int u, uint64_t visited, uint64_t allowed,
                 int* path, int depth, int* best_len, int* best_path, int cap,
                 double deadline, int64_t* nodes) except -1:
    """Returns 1 once the best cycle found reaches cap, else 0."""
    cdef uint64_t free_, cand, reach, m
    cdef int v
    nodes[0] += 1
    if deadline > 0 and (nodes[0] & 2047) == 1 and monotonic() > deadline:
        raise SearchTimeout("exact cycle search exceeded its deadline")
    if depth >= 3 and (adj[u] >> a) & 1 and depth > best_len[0]:
        best_len[0] = depth
        for v in range(depth):
            best_path[v] = path[v]
        if depth >= cap:
            return 1
    free_ = allowed & ~visited
    cand = adj[u] & free_
    if cand == 0:
        return 0
    reach = _reach_from(adj, cand, free_)
    if depth + cs_popcount64(reach) <= best_len[0]:
        return 0
    if (adj[a] & reach) == 0:
        return 0
    m = cand
    while m:
        v = cs_ctz64(m)
        m &= m - 1
        path[depth] = v
        if _lc_dfs(adj, a, v, visited | (<uint64_t>1 << v), allowed, path, depth + 1,
                   best_len, best_path, cap, deadline, nodes):
            return 1
    return 0


cdef int _fixed_dfs(uint64_t* adj, int a, int u, uint64_t visited, uint64_t allowed,
                    int* path, int depth, int t, double deadline,
                    int64_t* nodes) except -1:
    """Returns 1 when a cycle of exactly t vertices closes, else 0."""
    cdef uint64_t free_, cand, reach, m
    cdef int v
    nodes[0] += 1
    if deadline > 0 and (nodes[0] & 2047) == 1 and monotonic() > deadline:
        raise SearchTimeout("exact cycle search exceeded its deadline")
    if depth == t:
        return 1 if (adj[u] >> a) & 1 else 0
    free_ = allowed & ~visited
    cand = adj[u] & free_
    if cand == 0:
        return 0
    reach = _reach_from(adj, cand, free_)
    if depth + cs_popcount64(reach) < t:
        return 0
    if (adj[a] & reach) == 0:
        return 0
    m = cand
    while m:
        v = cs_ctz64(m)
        m &= m - 1
        path[depth] = v
        if _fixed_dfs(adj, a, v, visited | (<uint64_t>1 << v), allowed, path,
                      depth + 1, t, deadline, nodes):
            return 1
    return 0


def find_longest_cycle(adj, int n, deadline=None, cap=None):
    """Exact longest cycle length and one witness path, or (0, None);
    ``cap`` stops the search as in the pure twin."""
    cdef uint64_t adjc[64]
    cdef int path[65]
    cdef int best_path[65]
    cdef int best_len = 0, a, i
    cdef int cap_ = n if cap is None or cap > n else cap
    cdef uint64_t allowed
    cdef int64_t nodes = 0
    cdef double dl = deadline if deadline is not None else 0.0
    if n < 3:
        return 0, None
    for i in range(n):
        adjc[i] = adj[i]
    allowed = (<uint64_t>1 << n) - 1
    for a in range(n):
        if cs_popcount64(allowed) <= best_len:
            break
        path[0] = a
        if _lc_dfs(adjc, a, a, <uint64_t>1 << a, allowed, path, 1,
                   &best_len, best_path, cap_, dl, &nodes):
            break
        allowed &= ~(<uint64_t>1 << a)
    if best_len == 0:
        return 0, None
    return best_len, [best_path[i] for i in range(best_len)]


def find_cycle_of_length(adj, int n, int t, deadline=None):
    """First cycle with exactly t vertices in search order, or None."""
    cdef uint64_t adjc[64]
    cdef int path[65]
    cdef int a, i
    cdef uint64_t allowed
    cdef int64_t nodes = 0
    cdef double dl = deadline if deadline is not None else 0.0
    if t < 3 or t > n:
        return None
    for i in range(n):
        adjc[i] = adj[i]
    allowed = (<uint64_t>1 << n) - 1
    for a in range(n):
        if cs_popcount64(allowed) < t:
            break
        path[0] = a
        if _fixed_dfs(adjc, a, a, <uint64_t>1 << a, allowed, path, 1, t, dl, &nodes):
            return [path[i] for i in range(t)]
        allowed &= ~(<uint64_t>1 << a)
    return None


def sweep_filter_range(list cycle_masks, int m, long long start, long long stop,
                       bint fix_first):
    """Filter a counter range of edge 2-colorings; see the pure twin."""
    cdef Py_ssize_t k = len(cycle_masks), i
    cdef uint64_t* masks = <uint64_t*> malloc(k * sizeof(uint64_t)) if k else NULL
    cdef uint64_t full = (<uint64_t>1 << m) - 1
    cdef uint64_t red, blue, first, second
    cdef long long c, mono = 0
    cdef bint found
    if k and masks == NULL:
        raise MemoryError()
    monofree = []
    try:
        for i in range(k):
            masks[i] = cycle_masks[i]
        for c in range(start, stop):
            if fix_first:
                red = ((<uint64_t>c) << 1) | 1
            else:
                red = <uint64_t>c
            blue = red ^ full
            if 2 * cs_popcount64(red) >= m:
                first = red
                second = blue
            else:
                first = blue
                second = red
            found = False
            for i in range(k):
                if (masks[i] & ~first) == 0:
                    found = True
                    break
            if not found:
                for i in range(k):
                    if (masks[i] & ~second) == 0:
                        found = True
                        break
            if found:
                mono += 1
            else:
                monofree.append(red)
        return mono, monofree
    finally:
        if masks != NULL:
            free(masks)
