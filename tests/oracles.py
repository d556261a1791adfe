"""Independent oracles for the test suite.

Deliberately dumb implementations, kept apart from the library code paths
they check: literal adjacency double loops, permutation (pruned once a
prefix reaches the best width) and subset-DP elimination minima, a
full-rescan min-fill ordering and one that rescans only the changed fills
but scans every live vertex for the least, a set-based elimination replay,
networkx-based disjoint path packing, separator minimality by one search
per candidate vertex, a continuous-labeling repair that rescans every edge
after each repair, the weighted-instance generator that builds the graph
and its decomposition before it rejects, the walk pairing under an explicit
edge orientation, the almost-homotopy composite joined piece by piece,
decomposition validation and balanced separation with their own tree
searches and a memo per directed tree edge, the bramble test as a
connectivity search on every pairwise union, the full grid's vertex test as
one generator over the coordinates, its neighbourhoods by a bounds check of
every step, its induced subgraphs by probing every step of each kept vertex
against the kept set, its adjacency rule by generators over the difference,
a partition's class widths by solving each class's built induced subgraph,
the canonical colouring by building every permuted and swapped image, the
hash partition's class through a separate splitmix64 function, the
clipped-square test as a scan of every square vertex, the paper's
retraction of a (b+1)-enlargement onto the b-enlargement, the
blocked-staircase test as a separation check on the built enlargement
graph, and the swallowing component as the class components of the built
(b+1)-enlargement graph, the builder's level step with its own t = 0 layout
and every swallowing component built before a join is tested, a slab's
largest sheet degree read off each sheet's built graph, a side's boundary
run found by listing every maximal cyclic run of members, the generic slab
validator (sides, then each sheet's faces traced from the rotation system
of its coordinate embedding, then the paths) that the ribbon slabs must
pass, the plain k x k grid, and the t x t crosses bramble of the plane and
triangulated grids.
"""

import itertools
import math
from collections import deque
from fractions import Fraction
from math import gcd as math_gcd

from gridtw import grid as _grid
from gridtw.bramble_builder import (
    BlockedStaircase,
    BrambleCertificate,
    BuilderInvariantError,
    BuilderSizeError,
    _verified,
    grid_side,
    required_grid_size,
)
from gridtw.calculus import STAR, LFunction, Walk
from gridtw.decomposition import (
    Separation,
    SizeGuardError,
    TreeDecomposition,
    exact_treewidth,
    heuristic_decomposition,
)
from gridtw.graphs import (
    Graph,
    bfs_path,
    connected_components,
    induced_subgraph,
    is_connected,
)
from gridtw.grid import _STEPS, b_square, enlarge
from gridtw.separators import (
    NotBlockedError,
    blocked_component,
    is_blocked,
    is_separator,
    minimalize,
)


def brute_force_qn_edges(n):
    """All grid edges by the literal inequality rule, double loop."""
    coords = [
        (x, y, z) for x in range(n) for y in range(n) for z in range(n)
    ]
    edges = set()
    for u in coords:
        for v in coords:
            if u == v:
                continue
            x, y, z = u
            a, b, c = v
            if x <= a <= x + 1 and y <= b <= y + 1 and z <= c <= z + 1:
                edges.add((u, v) if u < v else (v, u))
    return edges


def qn_edge_count_closed_form(n):
    """Sum over difference patterns d of (n-1)^|supp d| * n^(3-|supp d|)."""
    total = 0
    for d in itertools.product((0, 1), repeat=3):
        if d == (0, 0, 0):
            continue
        s = sum(d)
        total += (n - 1) ** s * n ** (3 - s)
    return total


def canonical_bits(bits, perms):
    """The least of ``bits`` under every index permutation in ``perms``,
    each image built position by position, and of its class swap."""
    best = None
    for perm in perms:
        moved = tuple(bits[perm[i]] for i in range(len(bits)))
        swapped = tuple(3 - c for c in moved)
        for cand in (moved, swapped):
            if best is None or cand < best:
                best = cand
    return best


def partition_value(g, bits):
    """(the larger class width, whether both classes were solved exactly),
    each class's induced subgraph built and solved: exact treewidth within
    the exact solver's guard, the min-fill decomposition's width over it."""
    verts = g.vertices()
    worst, exact = -1, True
    for c in (1, 2):
        sub = induced_subgraph(g, [v for v, b in zip(verts, bits) if b == c])
        try:
            w, _ = exact_treewidth(sub)
        except SizeGuardError:
            w, exact = heuristic_decomposition(sub).width, False
        worst = max(worst, w)
    return worst, exact


def _graph_to_masks(graph):
    verts = graph.vertices()
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for u, v in graph.edges():
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    return adj


def _eliminate(adj, v):
    """The masks after eliminating v: its neighbours made a clique, v gone."""
    nb = adj[v]
    out = list(adj)
    rest = nb
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        out[u] = (out[u] | nb) & ~(1 << u) & ~(1 << v)
        rest ^= low
    for u in range(len(out)):
        out[u] &= ~(1 << v)
    return out


def minfill_order(adj):
    """(width, order) of min-fill: rescan every vertex's fill at each step,
    keep the lowest-index vertex of least fill."""
    adj = list(adj)
    remaining = set(range(len(adj)))
    width = 0
    order = []
    while remaining:
        best_v, best_fill = -1, None
        for v in sorted(remaining):
            nbrs = [u for u in range(len(adj)) if adj[v] >> u & 1]
            fill = sum(
                1 for a, b in itertools.combinations(nbrs, 2)
                if not adj[a] >> b & 1
            )
            if best_fill is None or fill < best_fill:
                best_v, best_fill = v, fill
        nb = adj[best_v]
        width = max(width, bin(nb).count("1"))
        order.append(best_v)
        remaining.discard(best_v)
        for u in range(len(adj)):
            if nb >> u & 1:
                adj[u] = (adj[u] | nb) & ~(1 << u) & ~(1 << best_v)
        adj[best_v] = 0
    return width, order


def minfill_order_linear_scan(adj):
    """(width, order) of min-fill: recompute only the fills that eliminating
    v can change (its neighbours' and theirs), then take the least fill by
    a linear scan of the live vertices, lowest index first."""
    def bits(mask):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    alive = list(range(len(adj)))
    fills = [0] * len(adj)
    near = (1 << len(adj)) - 1
    width = 0
    order = []
    while alive:
        for u in bits(near):
            nb = adj[u]
            missing = 0
            for w in bits(nb):
                missing += (nb & ~adj[w] & ~(1 << w)).bit_count()
            fills[u] = missing // 2
        v = min(alive, key=fills.__getitem__)
        alive.remove(v)
        nb = adj[v]
        width = max(width, nb.bit_count())
        order.append(v)
        adj = _eliminate(adj, v)
        near = nb
        for u in bits(nb):
            near |= adj[u]
    return width, order


def treewidth_by_permutations(graph):
    """Minimum elimination width over every ordering.  For <= 9 vertices.

    Orderings grow one vertex at a time.  A prefix is dropped once its
    running width reaches the best width found, since no ordering that
    starts with it can do better; every other ordering is run to the end.
    """
    adj = _graph_to_masks(graph)
    n = len(adj)
    if n == 0:
        return -1
    best = n - 1

    def extend(adj, remaining, width):
        nonlocal best
        if not remaining:
            best = width
            return
        for v in range(n):
            if remaining >> v & 1:
                w = max(width, bin(adj[v]).count("1"))
                if w < best:
                    extend(_eliminate(adj, v), remaining & ~(1 << v), w)

    extend(adj, (1 << n) - 1, 0)
    return best


def treewidth_by_subset_dp(graph):
    """Subset dynamic program over eliminated sets.

    TW(S) = min over v in S of max(TW(S - v), degree of v after S - v is
    eliminated); the latter counts vertices outside S reachable from v
    through S - v.
    """
    adj = _graph_to_masks(graph)
    n = len(adj)
    if n == 0:
        return -1
    full = (1 << n) - 1

    def q_value(s_prev, v):
        # Vertices outside s_prev + v reachable from v through s_prev.
        seen = 1 << v
        frontier = adj[v]
        inside = frontier & s_prev
        boundary = frontier & ~s_prev & ~(1 << v)
        seen |= frontier
        while inside:
            nxt = 0
            rest = inside
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                rest ^= low
                nxt |= adj[u]
            nxt &= ~seen
            seen |= nxt
            boundary |= nxt & ~s_prev
            inside = nxt & s_prev
        return bin(boundary & ~(1 << v)).count("1")

    tw = {0: -1}
    by_count = [[] for _ in range(n + 1)]
    for s in range(1, full + 1):
        by_count[bin(s).count("1")].append(s)
    for size in range(1, n + 1):
        for s in by_count[size]:
            best = None
            rest = s
            while rest:
                low = rest & -rest
                v = low.bit_length() - 1
                rest ^= low
                s_prev = s & ~(1 << v)
                val = max(tw[s_prev], q_value(s_prev, v))
                if best is None or val < best:
                    best = val
            tw[s] = best
    return tw[full]


def decomposition_from_order(graph, order):
    """Decomposition whose bags are the elimination neighborhoods."""
    if not order:
        return TreeDecomposition({0: frozenset()}, [])
    adj = {v: set(graph.neighbors(v)) for v in graph.vertices()}
    pos = {v: i for i, v in enumerate(order)}
    bags = {}
    for v in order:
        nb = adj[v]
        bags[pos[v]] = frozenset(nb | {v})
        for a in nb:
            adj[a] |= nb
            adj[a].discard(a)
            adj[a].discard(v)
        for a in adj:
            adj[a].discard(v)
        del adj[v]
    edges = []
    roots = []
    for i, v in enumerate(order):
        later = [pos[w] for w in bags[i] if w != v and pos[w] > i]
        if later:
            edges.append((i, min(later)))
        else:
            roots.append(i)
    for a, b in zip(roots, roots[1:]):
        edges.append((a, b))
    return TreeDecomposition(bags, edges)


def max_disjoint_paths(host, s1, s2, include_sides=False):
    """Maximum packing of vertex-disjoint side-to-side paths, via networkx.

    Interior mode contracts each side to a terminal, so the paths are
    disjoint outside the sides; side-inclusive mode attaches the terminals
    by edges, so the paths are disjoint everywhere.  The returned paths are
    re-checked for disjointness here before counting.
    """
    import networkx as nx

    g = nx.Graph()
    for v in host.vertices():
        g.add_node(v)
    for u, v in host.edges():
        g.add_edge(u, v)
    source, sink = "__s__", "__t__"
    g.add_nodes_from((source, sink))  # a side with no edges still counts 0
    if include_sides:
        for v in s1:
            g.add_edge(source, v)
        for v in s2:
            g.add_edge(v, sink)
    else:
        for v in s1:
            for w in list(g.neighbors(v)):
                if w not in s1:
                    g.add_edge(source, w)
        for v in s2:
            for w in list(g.neighbors(v)):
                if w not in s2 and w != source:
                    g.add_edge(w, sink)
        g.remove_nodes_from(list(s1) + list(s2))
    try:
        paths = list(nx.node_disjoint_paths(g, source, sink))
    except nx.NetworkXNoPath:
        return 0
    interior_seen = set()
    for p in paths:
        for v in p[1:-1]:
            assert v not in interior_seen, "oracle paths overlap"
            interior_seen.add(v)
    return len(paths)


def is_blocked_materialized(g, staircase, b, i, part):
    """The blocked test on the enlargement's induced graph: its class-i
    vertices off the sides separate the two sides."""
    enl = enlarge(g, staircase, b)
    h = induced_subgraph(g, enl.vertex_set)
    blocker = {
        v for v in h.vertices() if v not in enl.sides and part.cls(v) == i
    }
    return is_separator(h, enl.left_side, enl.right_side, blocker)


def blocked_component_materialized(g, staircase, b, i, part):
    """The swallowing component as the component of the class-i vertices,
    in the induced (b+1)-enlargement graph, that holds the minimalized
    blocker of the b-enlargement."""
    m0 = enlarge(g, staircase, b)
    h0 = induced_subgraph(g, m0.vertex_set)
    s1, s2 = m0.left_side, m0.right_side
    blocker = {v for v in m0.interior() if part.cls(v) == i}
    if not is_separator(h0, s1, s2, blocker):
        raise NotBlockedError(f"staircase is not ({b},{i})-blocked")
    m1 = enlarge(g, staircase, b + 1)
    x = minimalize(h0, s1, s2, blocker)
    assert is_connected(h0, within=x)
    class_i = {v for v in m1.vertex_set if part.cls(v) == i}
    comps = connected_components(
        induced_subgraph(g, m1.vertex_set), within=class_i)
    holding = [set(c) for c in comps if x & set(c)]
    assert len(holding) == 1
    return frozenset(holding[0])


def separates(host, s1, s2, x):
    """True iff every s1-s2 path in host meets x, by plain BFS from s1."""
    x = set(x)
    seen = {v for v in s1 if v not in x}
    queue = deque(seen)
    while queue:
        u = queue.popleft()
        for w in host.neighbors(u):
            if w not in seen and w not in x:
                seen.add(w)
                queue.append(w)
    return not (seen & set(s2))


def minimalize_reference(host, s1, s2, x):
    """Sorted greedy scan: drop each vertex whose removal keeps x separating.

    One full search per candidate; the library's one-pass ``minimalize``
    must return the same set.
    """
    x = set(x)
    assert separates(host, s1, s2, x)
    for v in sorted(x):
        if separates(host, s1, s2, x - {v}):
            x.discard(v)
    return frozenset(x)


def is_minimal_separator_brute(host, s1, s2, x):
    """x separates and no x - {v} does, by definition."""
    x = set(x)
    return separates(host, s1, s2, x) and not any(
        separates(host, s1, s2, x - {v}) for v in x
    )


def random_continuous_labeling(g, rng, pinned=()):
    """Random labeling repaired as ``harness._random_continuous_labeling``
    does, rescanning all edges for the first conflict after each repair."""
    pin = dict(pinned)
    values = {
        v: pin.get(v, rng.choice((-1, 0, 1, STAR))) for v in g.vertices()
    }
    for _ in range(10 * g.num_vertices()):
        bad = None
        for u, w in g.edges():
            a, b = values[u], values[w]
            if a is not STAR and b is not STAR and a * b == -1:
                bad = (u, w)
                break
        if bad is None:
            break
        u, w = bad
        target = w if w not in pin else u
        if target in pin:
            raise ValueError("pinned labels conflict")
        values[target] = 0
    return LFunction(g, values)


def contractible_pairwise(triangle, f):
    """Contractibility by definition: f is holomorphic on the triangle's
    vertex set, every pair of its vertices tested for an edge of f's graph
    and no edge labelled -1/+1 or 0/star."""
    verts = sorted(triangle.vertex_set())
    for i, u in enumerate(verts):
        for w in verts[i + 1:]:
            labels = {f(u), f(w)}
            if f.graph.has_edge(u, w) and labels in ({-1, 1}, {0, STAR}):
                return False
    return True


def first_non_edge_by_has_edge(graph, vertices):
    """The index of the first step vertices[i] -> vertices[i + 1] that
    ``graph.has_edge`` rejects, or None."""
    for i in range(len(vertices) - 1):
        if not graph.has_edge(vertices[i], vertices[i + 1]):
            return i
    return None


def homotopy_composite(g, w1, w2, q, r):
    """The closed walk q . w2 . r~ . w1~, each piece appended after the
    vertex it shares with the walk so far."""
    seq = list(q.vertices)
    for piece in (w2.vertices, list(reversed(r.vertices)),
                  list(reversed(w1.vertices))):
        assert seq[-1] == piece[0]
        seq.extend(piece[1:])
    return Walk(g, seq)


def random_weighted_instance(rng):
    """``harness.random_weighted_instance`` as a build-then-test generator:
    a ``Graph`` with one ``add_edge`` per drawn pair, its full min-fill
    decomposition, and only then the rejection of a size below 3t+3."""
    size = rng.randrange(6, 14)
    p = rng.uniform(0.15, 0.5)
    g = Graph(vertices=range(size))
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < p:
                g.add_edge(i, j)
    td = heuristic_decomposition(g)
    target2 = 2 * (3 * td.width + 3)
    if 2 * size < target2:
        return None
    verts = g.vertices()
    lam2 = {v: rng.choice((-2, -1, 0, 1, 2)) for v in verts}
    total2 = sum(lam2.values())
    boost = list(verts)
    rng.shuffle(boost)
    for v in boost:
        if total2 >= target2:
            break
        total2 += 2 - lam2[v]
        lam2[v] = 2
    return g, td, {v: Fraction(c, 2) for v, c in lam2.items()}


def _tail_head(e, flipped):
    """(tail, head) of the sorted edge e when the edges in ``flipped`` point
    from their larger end to their smaller one and all others the other way."""
    u, v = e
    return (v, u) if e in flipped else (u, v)


def oriented_d(f, flipped):
    """Difference chain under an explicit orientation: head value minus tail
    value, keyed by the sorted edge, zero across stars."""
    out = {}
    for u, v in f.graph.edges():
        e = (u, v) if u < v else (v, u)
        tail, head = _tail_head(e, flipped)
        fh, ft = f(head), f(tail)
        if fh is not STAR and ft is not STAR and fh != ft:
            out[e] = fh - ft
    return out


def oriented_indicator(walk, flipped):
    """Signed traversal count per sorted edge: +1 per step into its head."""
    out = {}
    vs = walk.vertices
    for a, b in zip(vs, vs[1:]):
        e = (a, b) if a < b else (b, a)
        out[e] = out.get(e, 0) + (1 if b == _tail_head(e, flipped)[1] else -1)
    return {e: c for e, c in out.items() if c}


def oriented_pairing(walk, chain, flipped):
    """Sum of chain value times traversal sign over the steps of the walk."""
    total = 0
    vs = walk.vertices
    for a, b in zip(vs, vs[1:]):
        e = (a, b) if a < b else (b, a)
        sign = 1 if b == _tail_head(e, flipped)[1] else -1
        total += sign * chain.get(e, 0)
    return total


def grid_has_vertex(n, v):
    """Membership in Q_n: a tuple of three ints (bools are not), each in
    range(n); a list, a range or a dict is not a vertex."""
    return (type(v) is tuple and len(v) == 3
            and all(type(c) is int and 0 <= c < n for c in v))


def grid_neighbors(n, v):
    """Neighbours of v in Q_n: every step of ``_STEPS`` that stays inside
    [0, n)^3, in step order; KeyError for a non-vertex."""
    if not grid_has_vertex(n, v):
        raise KeyError(v)
    out = []
    for dx, dy, dz in _STEPS:
        x, y, z = v[0] + dx, v[1] + dy, v[2] + dz
        if 0 <= x < n and 0 <= y < n and 0 <= z < n:
            out.append((x, y, z))
    return out


def grid_induced_by_steps(n, vertices):
    """The subgraph of Q_n induced on ``vertices``: each kept vertex probes
    its 14 steps against the kept set; ValueError for a vertex outside."""
    keep = set(vertices)
    adj = {}
    for v in keep:
        x, y, z = v
        if not (0 <= x < n and 0 <= y < n and 0 <= z < n):
            raise ValueError(f"vertex {v} outside [0,{n})^3")
        adj[v] = sorted(
            w for w in ((x + dx, y + dy, z + dz) for dx, dy, dz in _STEPS)
            if w in keep
        )
    return Graph.from_adjacency(adj)


def mix64(x):
    """The splitmix64 finalizer."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def hash_partition_class(seed, bias, v):
    """``HashPartition(seed, bias).cls(v)``: pack the three 20-bit
    coordinates, mix with the seed, compare the low byte with the bias."""
    x, y, z = v
    packed = (x & 0xFFFFF) | ((y & 0xFFFFF) << 20) | ((z & 0xFFFFF) << 40)
    return 1 if (mix64(packed ^ seed) & 0xFF) < bias else 2


def coords_adjacent_generator(u, v):
    """The adjacency rule with one generator per sign of the difference."""
    d = (v[0] - u[0], v[1] - u[1], v[2] - u[2])
    if d == (0, 0, 0):
        return False
    return all(0 <= c <= 1 for c in d) or all(-1 <= c <= 0 for c in d)


def clipped_square_error(n, staircase, b):
    """The clipped-square message for a staircase's b-enlargement in Q_n,
    found by testing every vertex of every square; None when all fit."""
    for v in staircase:
        for u in b_square(v, b):
            if not grid_has_vertex(n, u):
                return f"square around {v} leaves the grid at {u} (b={b})"
    return None


def project(u, enlargement):
    """Retract a point of a (b+1)-enlargement onto the b-enlargement.

    ``enlargement`` must be the (b+1)-enlargement; the image lands in the
    b-enlargement of the same staircase, is adjacent-or-equal to u, and the
    map preserves adjacency up to equality.
    """
    if enlargement.b < 1:
        raise ValueError("projection needs a (b+1)-enlargement with b+1 >= 1")
    if u not in enlargement.vertex_set:
        raise ValueError(f"{u} outside the enlargement")
    b = enlargement.b - 1
    base = enlargement.base.vertex_at_x(u[0])
    _, y0, z0 = base
    return (u[0], min(u[1], y0 + b), min(u[2], z0 + b))


def tree_neighbors(td, node):
    """Neighbours of ``node`` in the order its tree edges list them."""
    out = []
    for a, b in td.tree_edges:
        if a == node:
            out.append(b)
        if b == node:
            out.append(a)
    return out


def is_tree(td):
    """At least one node, n - 1 edges, and one DFS from the least node
    reaches every node."""
    nodes = td.nodes
    if not nodes:
        return False
    if len(td.tree_edges) != len(nodes) - 1:
        return False
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        u = stack.pop()
        for w in tree_neighbors(td, u):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(nodes)


def validate_decomposition(graph, td):
    """All three axioms: vertex cover, edge cover (every bag scanned for
    every edge), connected occurrences (one DFS per vertex)."""
    if not is_tree(td):
        return False
    covered = set()
    for bag in td.bags.values():
        covered |= bag
    verts = set(graph.vertices())
    if not verts <= covered:
        return False
    if not covered <= verts:
        return False
    for u, v in graph.edges():
        if not any(u in bag and v in bag for bag in td.bags.values()):
            return False
    occurrences = {}
    for node, bag in td.bags.items():
        for v in bag:
            occurrences.setdefault(v, set()).add(node)
    for v, occ in occurrences.items():
        start = next(iter(occ))
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in tree_neighbors(td, u):
                if w in occ and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != occ:
            return False
    return True


def balanced_separation(graph, td, lam):
    """The pointer walk and greedy grouping, each side of a tree edge taken
    as the bag union beyond it (memoised per directed edge) less the bag."""
    if not validate_decomposition(graph, td):
        raise ValueError("invalid tree decomposition for this graph")
    verts = list(graph.vertices())
    fracs = {v: Fraction(lam[v]) for v in verts}
    scale = 1
    for w in fracs.values():
        if abs(w) > 1:
            raise ValueError(f"|weight| > 1 at weight {w}")
        scale = scale * w.denominator // math_gcd(scale, w.denominator)
    scaled = {v: int(w * scale) for v, w in fracs.items()}
    total = sum(scaled.values())
    t = td.width
    if total < (3 * t + 3) * scale:
        raise ValueError("total weight below 3t+3")

    nodes = td.nodes
    union_beyond = {}

    def union_dir(u, v):
        key = (u, v)
        if key in union_beyond:
            return union_beyond[key]
        stack = [(u, v, False)]
        while stack:
            a, b, expanded = stack.pop()
            if (a, b) in union_beyond:
                continue
            children = [w for w in tree_neighbors(td, b) if w != a]
            if not expanded:
                stack.append((a, b, True))
                stack.extend((b, w, False) for w in children)
            else:
                acc = set(td.bags[b])
                for w in children:
                    acc |= union_beyond[(b, w)]
                union_beyond[(a, b)] = frozenset(acc)
        return union_beyond[key]

    side_cache = {}

    def side_set(u, v):
        key = (u, v)
        if key not in side_cache:
            side_cache[key] = union_dir(u, v) - td.bags[u]
        return side_cache[key]

    def side_mass(u, v):
        return sum(scaled[w] for w in side_set(u, v))

    u = nodes[0]
    visited_steps = 0
    while True:
        heavy = None
        for v in tree_neighbors(td, u):
            if 3 * side_mass(u, v) > 2 * total:
                heavy = v
                break
        if heavy is None:
            break
        u = heavy
        visited_steps += 1
        assert visited_steps <= 2 * len(nodes), (
            "pointer walk failed to terminate; decomposition weights violate "
            "the balancing argument"
        )

    neighbors = tree_neighbors(td, u)
    sides = [side_set(u, v) for v in neighbors]
    masses = [side_mass(u, v) for v in neighbors]
    seen = set()
    for s in sides:
        assert not (seen & s), "neighbor subtree sets overlap"
        seen |= s
    assert seen == set(verts) - td.bags[u], (
        "subtree sets do not cover V minus bag")

    order = sorted(range(len(sides)), key=lambda i: masses[i], reverse=True)
    prefix = 0
    chosen = []
    for i in order:
        chosen.append(i)
        prefix += masses[i]
        if 3 * prefix >= total:
            break
    assert 3 * prefix >= total, "greedy grouping failed to reach one third"
    chosen_set = set(chosen)
    k_side = set(td.bags[u])
    l_side = set(td.bags[u])
    for i, s in enumerate(sides):
        if i in chosen_set:
            k_side |= s
        else:
            l_side |= s
    sep = Separation(K=frozenset(k_side), L=frozenset(l_side))

    mass = sum(scaled[v] for v in sep.K - sep.L)
    assert total <= 3 * mass <= 2 * total, "outer mass left the middle third"
    assert len(sep.cut) <= t + 1
    assert sep.K | sep.L == set(verts)
    for a, b in graph.edges():
        in_k = a in sep.K - sep.L
        in_l = a in sep.L - sep.K
        other_k = b in sep.K - sep.L
        other_l = b in sep.L - sep.K
        assert not ((in_k and other_l) or (in_l and other_k)), (
            "edge crosses the separation"
        )
    return sep


def validate_bramble_pairs(graph, sets):
    """The bramble test by its pairwise-union definition: non-empty sets of
    graph vertices, and each union of two of them, a set with itself
    included, induces a connected subgraph."""
    sets = [frozenset(s) for s in sets]
    if not sets or any(not s for s in sets):
        return False
    if not all(graph.has_vertex(v) for s in sets for v in s):
        return False
    for i, a in enumerate(sets):
        for b in sets[i:]:
            if not is_connected(graph, within=a | b):
                return False
    return True


def required_grid_size_t0(b):
    """The level-b layout side at t = 0: one subgrid, one unit of x margin
    at each end, and room for the b-square in y and z."""
    n0 = grid_side(0, b - 1)
    return max(1 + n0 + 1, n0 + b)


def _three_vertex(g, part, x, y, z, b, i):
    """The staircase (x-1, y, z), (x, y, z), (x+1, y, z), checked
    (b, i)-blocked."""
    conv = _grid.Staircase(((x - 1, y, z), (x, y, z), (x + 1, y, z)))
    if not is_blocked(g, conv, b, i, part):
        raise BuilderInvariantError(
            f"three-vertex staircase through {(x, y, z)} must be "
            f"({b}, {i})-blocked"
        )
    return BlockedStaircase(conv, b, i)


def _reference_base(g, part, t, i, origin, size):
    """Level 0 on its own: the first class-i vertex of the x-interior, x
    outermost, then y, then z, as the middle of a three-vertex staircase;
    else the rows and columns of the (t+1) x (t+1) patch in the plane
    x = x0 + 1 from its corner (x0 + 1, y0, z0)."""
    x0, y0, z0 = origin
    if size < 3:
        raise BuilderSizeError("level-0 region below the minimal span 3")
    for x in range(x0 + 1, x0 + size - 1):
        for y in range(y0, y0 + size):
            for z in range(z0, z0 + size):
                if part.cls((x, y, z)) == i:
                    return _three_vertex(g, part, x, y, z, 0, i)
    span = t + 1
    if span > size:
        raise BuilderSizeError(
            f"subgrid side {size} below crosses patch span {span}"
        )
    rows = [frozenset((x0 + 1, y0 + a, z0 + c) for c in range(span))
            for a in range(span)]
    cols = [frozenset((x0 + 1, y0 + a, z0 + c) for a in range(span))
            for c in range(span)]
    return _verified(g, part, BrambleCertificate(3 - i, rows=rows, cols=cols),
                     t)


def find_reference(g, part, t, b, i, origin, size):
    """The builder's level-b step with its own level 0 and t = 0 layout,
    and every swallowing component built before any join is tested."""
    if b == 0:
        return _reference_base(g, part, t, i, origin, size)
    n0 = grid_side(t, b - 1)
    d = n0 + b

    def resolve(sub):
        """Handle one subgrid outcome; returns a staircase or a final result."""
        if isinstance(sub, BlockedStaircase):
            return sub.staircase, None
        if sub.color == 3 - i:
            return None, sub
        if sub.rows is not None:
            # A patch comes from a level-0 region of side n0.
            px, py, pz = min(sub.rows[0])
            if b + 1 > n0:
                raise BuilderSizeError(
                    "monochrome slab too small for the blocking square"
                )
            return None, _three_vertex(g, part, px, py, pz, b, i)
        # A deeper assembly bramble in color i: still a valid global
        # certificate, only its color differs from this level's principal
        # branch.
        return None, sub

    if t == 0:
        x0, y0, z0 = origin
        if size < n0 + 2 or size < n0 + b:
            raise BuilderSizeError(
                f"region side {size} below required {max(n0 + 2, n0 + b)}"
            )
        sub = find_reference(g, part, t, b - 1, 3 - i, (x0 + 1, y0, z0), n0)
        p_z, final = resolve(sub)
        if final is not None:
            return final
        candidate = p_z.extended()
        if is_blocked(g, candidate, b, i, part):
            return BlockedStaircase(candidate, b, i)
        m_z = blocked_component(g, p_z, b - 1, 3 - i, part)
        sets = [frozenset(m_z)]
        return _verified(g, part, BrambleCertificate(3 - i, sets), t)

    need = required_grid_size(t, b)
    if size < need:
        raise BuilderSizeError(f"region side {size} below required {need}")
    width = 2 * t + 1
    x0, y0, z0 = origin
    stair = {}
    for j in range(width):
        for k in range(width):
            ax, ay, az = _grid.anchor(d, j, k)
            pos = (x0 + 1 + ax, y0 + ay, z0 + az)
            sub = find_reference(g, part, t, b - 1, 3 - i, pos, n0)
            p_z, final = resolve(sub)
            if final is not None:
                return final
            stair[(j, k)] = p_z

    comp = {
        key: blocked_component(g, p, b - 1, 3 - i, part)
        for key, p in sorted(stair.items())
    }

    col_edges = [
        ((j, k), (j, k + 1)) for j in range(width) for k in range(width - 1)
    ]
    row_edges = [
        ((j, k), (j + 1, k)) for k in range(width) for j in range(width - 1)
    ]
    joins = {}
    for e in col_edges + row_edges:
        y_key, z_key = e
        joins[e] = _grid.join_staircases(g, stair[y_key], stair[z_key])
        extended = joins[e].extended()
        if is_blocked(g, extended, b, i, part):
            return BlockedStaircase(extended, b, i)

    enl_sets = {}
    connectors = {}
    for e in col_edges + row_edges:
        y_key, z_key = e
        enl_sets[e] = _grid.enlarge(g, joins[e], b).vertex_set
        allowed = {v for v in enl_sets[e] if part.cls(v) == 3 - i}
        path = bfs_path(g, sorted(comp[y_key]), comp[z_key], allowed=allowed)
        if path is None:
            raise BuilderInvariantError(
                "unblocked extended join without a monochrome connector"
            )
        connectors[e] = tuple(path)

    edge_list = col_edges + row_edges
    for a_idx, e1 in enumerate(edge_list):
        for e2 in edge_list[a_idx + 1:]:
            if set(e1) & set(e2):
                continue
            if enl_sets[e1] & enl_sets[e2]:
                raise BuilderInvariantError(
                    f"join enlargements of {e1} and {e2} overlap"
                )

    col_sets = []
    row_sets = []
    for j in range(width):
        acc = set()
        for k in range(width):
            acc |= comp[(j, k)]
        for e in col_edges:
            if e[0][0] == j:
                acc |= set(connectors[e])
        col_sets.append(acc)
    for k in range(width):
        acc = set()
        for j in range(width):
            acc |= comp[(j, k)]
        for e in row_edges:
            if e[0][1] == k:
                acc |= set(connectors[e])
        row_sets.append(acc)

    sets = [frozenset(col_sets[j] | row_sets[j]) for j in range(width)]
    return _verified(g, part, BrambleCertificate(3 - i, sets), t)


def max_sheet_degree_built(slab):
    """The largest vertex degree of any sheet's induced subgraph, with every
    sheet graph built."""
    best = 0
    for sheet in slab.rows + slab.cols:
        g = induced_subgraph(slab.graph, sheet)
        for v in g.vertices():
            best = max(best, len(g.neighbors(v)))
    return best


def is_subpath_of_boundary(intersection, outer_walk):
    """The intersection appears as one contiguous simple run of the walk."""
    want = set(intersection)
    if not want:
        return False
    if not outer_walk:
        return False
    if len(outer_walk) == 1:
        return want == set(outer_walk)
    n = len(outer_walk)
    flags = [v in want for v in outer_walk]
    if all(flags):
        return len(want) == len(set(outer_walk))
    # Scan maximal cyclic runs of members.
    runs = []
    i = 0
    while i < n:
        if flags[i] and not flags[(i - 1) % n]:
            j = i
            run = []
            while flags[j % n] and len(run) < n:
                run.append(outer_walk[j % n])
                j += 1
            runs.append(run)
        i += 1
    for run in runs:
        if set(run) == want and len(run) == len(want):
            return True
    return False


def _face_orbits(g, emb):
    """Faces traced from the embedding's rotation system.

    Returns a list of vertex cycles.  The next edge after arriving at v from
    u is the neighbor clockwise-next from u around v, which traces bounded
    faces counterclockwise and the outer face clockwise.
    """
    rot = {}
    pos = {}
    for v in g.vertices():
        ordered = sorted(
            g.neighbors(v),
            key=lambda w: math.atan2(
                emb[w][1] - emb[v][1], emb[w][0] - emb[v][0]
            ),
        )
        rot[v] = ordered
        for i, w in enumerate(ordered):
            pos[(v, w)] = i
    faces = []
    used = set()
    for start in sorted(pos):
        if start in used:
            continue
        walk = []
        cur = start
        while cur not in used:
            used.add(cur)
            u, v = cur
            walk.append(u)
            ordered = rot[v]
            cur = (v, ordered[(pos[(v, u)] - 1) % len(ordered)])
        faces.append(walk)
    return faces


def _signed_area2(cycle, emb):
    total = 0
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        ax, ay = emb[a]
        bx, by = emb[b]
        total += ax * by - bx * ay
    return total


def sheet_near_triangulation(g, emb):
    """(ok, outer_walk): every bounded face a triangle, consistent embedding.

    ``g`` is the sheet graph and ``emb`` maps each of its vertices to 2D
    coordinates.  The outer walk is the (single) non-positively-oriented
    face; for sheets without edges it is the vertex list itself.
    """
    if not g.num_vertices() or not is_connected(g):
        return False, None
    if not g.num_edges():
        return g.num_vertices() == 1, g.vertices()
    faces = _face_orbits(g, emb)
    if g.num_vertices() - g.num_edges() + len(faces) != 2:
        return False, None
    outer = None
    for cycle in faces:
        area = _signed_area2(cycle, emb)
        if area <= 0:
            if outer is not None:
                return False, None
            outer = cycle
        elif len(cycle) != 3:
            return False, None
    if outer is None:
        return False, None
    return True, outer


def slab_diagnose(slab):
    """(ok, reason) slab validation with the first failure spelled out."""
    n = slab.n
    if len(slab.cols) != n or n == 0:
        return False, "row/column counts differ or are zero"
    host = slab.graph
    degenerate = set(slab.s1) == set(slab.s2) and len(slab.s1) == 1
    if not degenerate and set(slab.s1) & set(slab.s2):
        return False, "sides intersect"
    for side in (slab.s1, slab.s2):
        if not side:
            return False, "empty side"
        if not is_connected(host, within=side):
            return False, "side subgraph disconnected"
    for sheets in (slab.rows, slab.cols):
        seen = set()
        for sheet in sheets:
            if seen & sheet:
                return False, "sheets overlap"
            seen |= sheet
    # Rows are embedded by (x, z), columns by (x, y).
    edges = {}
    for kind, sheets, axis in (("row", slab.rows, 2),
                               ("column", slab.cols, 1)):
        for idx, sheet in enumerate(sheets):
            g = induced_subgraph(host, sheet)
            edges[kind, idx] = frozenset(g.edges())
            emb = {v: (v[0], v[axis]) for v in sheet}
            ok, outer = sheet_near_triangulation(g, emb)
            if not ok:
                return False, f"{kind} {idx} is not a near-triangulation"
            for side in (slab.s1, slab.s2):
                inter = sheet & side
                if not inter:
                    return False, f"{kind} {idx} misses a side"
                if not is_subpath_of_boundary(inter, outer):
                    return False, (
                        f"{kind} {idx}: side intersection is not a boundary subpath"
                    )
    # Each path's edges are those of a row sheet and a column sheet, so
    # every step is a host edge; and its vertices are its row's meet with
    # its column, which no other path shares, since rows are disjoint and
    # so are columns.
    for i in range(n):
        for j in range(n):
            key = (i, j)
            if key not in slab.paths:
                return False, f"missing path {key}"
            path = slab.paths[key].vertices
            inter_v = slab.rows[i] & slab.cols[j]
            inter_e = edges["row", i] & edges["column", j]
            if set(path) != inter_v:
                return False, f"path {key} vertices differ from intersection"
            if len(path) != len(inter_v):
                return False, f"path {key} repeats vertices"
            path_edges = {
                (a, b) if a < b else (b, a) for a, b in zip(path, path[1:])
            }
            if path_edges != inter_e:
                return False, f"path {key} edges differ from intersection"
            if path[0] not in slab.s1 or path[-1] not in slab.s2:
                return False, f"path {key} endpoints not on the sides"
    return True, "ok"


def crosses_bramble(t, triangulated=True):
    """(graph, sets): the t x t grid and the crosses R_y | C_x of its rows
    and columns, row-major; order exactly t."""
    if t < 1:
        raise ValueError("grid side must be positive")
    graph = _grid.triangulated_grid(t) if triangulated else plane_grid(t)
    rows = [frozenset((x, y) for x in range(t)) for y in range(t)]
    cols = [frozenset((x, y) for y in range(t)) for x in range(t)]
    return graph, [r | c for r in rows for c in cols]


def plane_grid(k):
    """Plain k x k grid graph on (x, y) pairs, 4-neighbor adjacency."""
    if k < 1:
        raise ValueError("grid side must be positive")
    return Graph(
        vertices=((x, y) for x in range(k) for y in range(k)),
        edges=[((x, y), (x + 1, y)) for x in range(k - 1) for y in range(k)]
        + [((x, y), (x, y + 1)) for x in range(k) for y in range(k - 1)],
    )
