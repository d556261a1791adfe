"""Side-to-side separators, minimum vertex cuts, and blocked staircases.

A separator here is a vertex set X meeting every path between two side sets.
Minimum cuts are computed with the standard node-splitting reduction to
max-flow (unit vertex capacities, augmenting BFS); minimalization greedily
drops vertices in lexicographic order, so minimal separators are reproducible
functions of their starting superset.  Blocked staircases and the component
that swallows every monochrome side-to-side path of a (b+1)-enlargement are
the bridge into the bramble construction.
"""

from collections import deque

from . import grid as _grid
from .graphs import bfs_reachable, connected_components, is_connected

_INF = 1 << 40


class NoSeparatorError(ValueError):
    """The sides touch, so no separator over the allowed vertices exists."""


class NotBlockedError(ValueError):
    """Raised when a staircase fails the blockedness precondition."""


# Two-coloring of a vertex set.


class Partition2:
    """Total map from vertices to {1, 2}."""

    def cls(self, v):
        raise NotImplementedError


class DictPartition(Partition2):
    def __init__(self, mapping):
        self._map = dict(mapping)
        bad = {c for c in self._map.values() if c not in (1, 2)}
        if bad:
            raise ValueError(f"partition classes must be 1 or 2, got {bad}")

    def cls(self, v):
        return self._map[v]


def _mix64(x):
    # splitmix64 finalizer; stable across platforms and runs.
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class HashPartition(Partition2):
    """Deterministic pseudo-random coloring, evaluated lazily per vertex.

    Suitable for grids too large to materialize a class map.  ``bias`` is
    the probability weight of class 1 in units of 1/256.
    """

    def __init__(self, seed, bias=128):
        if not 0 <= bias <= 256:
            raise ValueError("bias must lie in [0, 256]")
        self.seed = int(seed)
        self.bias = bias

    def cls(self, v):
        x, y, z = v
        packed = (x & 0xFFFFF) | ((y & 0xFFFFF) << 20) | ((z & 0xFFFFF) << 40)
        return 1 if (_mix64(packed ^ self.seed) & 0xFF) < self.bias else 2


def partition_to_json(g, part):
    import json

    classes = [part.cls(v) for v in g.vertices()]
    return json.dumps({"n": g.n, "class": classes})


def partition_from_json(text):
    import json

    obj = json.loads(text)
    n = obj["n"]
    g = _grid.GridGraph(n)
    classes = obj["class"]
    verts = g.vertices()
    if len(classes) != len(verts):
        raise ValueError("class array length disagrees with n^3")
    return g, DictPartition(dict(zip(verts, classes)))


# Separation testing and minimum cuts.


def is_separator(host, s1, s2, x):
    """True iff no s1-s2 path in host avoids x.  x must avoid the sides."""
    x = set(x)
    if x & (set(s1) | set(s2)):
        raise ValueError("candidate separator intersects a side")
    reach = bfs_reachable(host, s1, blocked=x, targets=s2)
    return not (reach & set(s2))


def _max_flow_cut(host, s1, s2, include_sides):
    s1, s2 = frozenset(s1), frozenset(s2)
    if not s1 or not s2:
        raise ValueError("sides must be non-empty")
    if s1 & s2:
        raise NoSeparatorError("sides intersect")
    capacity = {}
    adj = {}  # node -> neighbor list, insertion-ordered for determinism

    def arc(a, b, cap):
        if (a, b) not in capacity:
            capacity[(a, b)] = 0
            adj.setdefault(a, []).append(b)
        if (b, a) not in capacity:
            capacity[(b, a)] = 0
            adj.setdefault(b, []).append(a)
        capacity[(a, b)] += cap

    splittable = set()
    for v in host.vertices():
        if v in s1 or v in s2:
            if include_sides:
                splittable.add(v)
            continue
        splittable.add(v)
    for v in sorted(splittable):
        arc((v, 0), (v, 1), 1)

    def node_out(v):
        if v in s1 and not include_sides:
            return "s"
        if v in s2 and not include_sides:
            return "t"
        return (v, 1)

    def node_in(v):
        if v in s1 and not include_sides:
            return "s"
        if v in s2 and not include_sides:
            return "t"
        return (v, 0)

    if include_sides:
        for v in sorted(s1):
            arc("s", (v, 0), _INF)
        for v in sorted(s2):
            arc((v, 1), "t", _INF)

    seen_pairs = set()
    for u in host.vertices():
        for w in host.neighbors(u):
            key = (u, w) if u < w else (w, u)
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
            a, b = key
            if not include_sides:
                if a in s1 and b in s2 or a in s2 and b in s1:
                    raise NoSeparatorError(
                        "sides are adjacent; no interior separator exists"
                    )
                if (a in s1 and b in s1) or (a in s2 and b in s2):
                    continue
            arc(node_out(a), node_in(b), _INF)
            arc(node_out(b), node_in(a), _INF)

    if "s" not in adj or "t" not in adj:
        # A side with no way in or out: the empty set separates.
        return frozenset()

    flow = 0
    while True:
        parent = {"s": None}
        queue = deque(["s"])
        while queue and "t" not in parent:
            a = queue.popleft()
            for b in adj[a]:
                if b not in parent and capacity.get((a, b), 0) > 0:
                    parent[b] = a
                    if b == "t":
                        break
                    queue.append(b)
        if "t" not in parent:
            break
        # Unit augmenting path.
        b = "t"
        bottleneck = _INF
        while parent[b] is not None:
            a = parent[b]
            bottleneck = min(bottleneck, capacity[(a, b)])
            b = a
        b = "t"
        while parent[b] is not None:
            a = parent[b]
            capacity[(a, b)] -= bottleneck
            capacity[(b, a)] += bottleneck
            b = a
        flow += bottleneck

    reach = {"s"}
    queue = deque(["s"])
    while queue:
        a = queue.popleft()
        for b in adj[a]:
            if b not in reach and capacity.get((a, b), 0) > 0:
                reach.add(b)
                queue.append(b)
    cut = frozenset(
        v for v in splittable if (v, 0) in reach and (v, 1) not in reach
    )
    assert len(cut) == flow, "residual cut size disagrees with flow value"
    return cut


def min_side_separator(host, s1, s2, include_sides=False):
    """Minimum vertex set meeting every s1-s2 path.

    Default mode restricts the cut to vertices outside the sides and raises
    NoSeparatorError when the sides touch; include_sides allows cutting side
    vertices (Menger form), in which case a cut always exists.
    """
    cut = _max_flow_cut(host, s1, s2, include_sides)
    if not include_sides:
        assert is_separator(host, s1, s2, cut)
    else:
        blocked = set(cut)
        reach = bfs_reachable(
            host, set(s1) - blocked, blocked=blocked, targets=set(s2) - blocked
        )
        assert not (reach & (set(s2) - blocked))
    return cut


def minimalize(host, s1, s2, x):
    """Inclusion-minimal subset of x that still separates.

    Scans candidates in sorted order and drops each vertex whose removal
    keeps the separation; one pass yields a minimal set because separation is
    monotone under supersets.
    """
    x = set(x)
    if not is_separator(host, s1, s2, x):
        raise ValueError("input set is not a separator")
    for v in sorted(x):
        trial = x - {v}
        if is_separator(host, s1, s2, trial):
            x = trial
    return frozenset(x)


def is_minimal_separator(host, s1, s2, x):
    if not is_separator(host, s1, s2, x):
        return False
    return all(not is_separator(host, s1, s2, set(x) - {v}) for v in x)


def check_separator_connected(enlargement, x):
    """Connectivity of the induced subgraph on a minimal side separator.

    The claim under test: every inclusion-minimal separator of an
    enlargement's sides induces a connected subgraph.  Preconditions are
    verified, not assumed.
    """
    g = enlargement.graph
    s1, s2 = enlargement.left_side, enlargement.right_side
    if not is_minimal_separator(g, s1, s2, x):
        raise ValueError("input is not an inclusion-minimal side separator")
    return is_connected(g, within=x)


def is_blocked(g, staircase, b, i, part):
    """Every side-to-side path of the b-enlargement meets class i off-sides."""
    enl = _grid.enlarge(g, staircase, b)
    return _is_blocked_enl(enl, i, part)


def _is_blocked_enl(enl, i, part):
    sides = enl.sides
    blocked = {
        v for v in enl.graph.vertices() if v not in sides and part.cls(v) == i
    }
    reach = bfs_reachable(
        enl.graph, enl.left_side, blocked=blocked, targets=enl.right_side
    )
    return not (reach & enl.right_side)


def blocked_component(g, staircase, b, i, part):
    """The component of class i in the (b+1)-enlargement that swallows
    every class-i side-to-side path.

    Requires the staircase to be (b, i)-blocked.  The returned component
    contains the (connected) minimal class-i separator of the b-enlargement,
    which certifies the swallowing property.
    """
    m0 = _grid.enlarge(g, staircase, b)
    if not _is_blocked_enl(m0, i, part):
        raise NotBlockedError(f"staircase is not ({b},{i})-blocked")
    m1 = _grid.enlarge(g, staircase, b + 1)
    blocker = {
        v
        for v in m0.graph.vertices()
        if v not in m0.sides and part.cls(v) == i
    }
    x = minimalize(m0.graph, m0.left_side, m0.right_side, blocker)
    assert is_connected(m0.graph, within=x), (
        "minimal enlargement separator is disconnected; "
        "connectivity invariant violated"
    )
    class_i = {v for v in m1.graph.vertices() if part.cls(v) == i}
    comps = connected_components(m1.graph, within=class_i)
    holding = [set(c) for c in comps if x & set(c)]
    assert len(holding) == 1, "connected separator split across components"
    return frozenset(holding[0])


def separator_to_json(g, x):
    """Separator set as a JSON vertex-index array."""
    import json

    return json.dumps(sorted(g.vertex_id(v) for v in x))


def separator_from_json(g, text):
    import json

    return frozenset(g.coord_of(i) for i in json.loads(text))


# Separator sampling for the property suites.


def sample_minimal_separator(host, s1, s2, rng, noise=0.3):
    """A random minimal separator: min cut plus random extras, minimalized."""
    base = min_side_separator(host, s1, s2)
    interior = [
        v
        for v in host.vertices()
        if v not in s1 and v not in s2 and v not in base
    ]
    extras = {v for v in interior if rng.random() < noise}
    return minimalize(host, s1, s2, set(base) | extras)


def sample_grid_separator(g, rng, noise=0.3):
    """Random minimal side separator of the full grid between its x-faces."""
    n = g.n
    s1 = frozenset((0, y, z) for y in range(n) for z in range(n))
    s2 = frozenset((n - 1, y, z) for y in range(n) for z in range(n))
    if n < 3:
        raise NoSeparatorError("no interior between the faces")
    plane_x = rng.randrange(1, n - 1)
    plane = {(plane_x, y, z) for y in range(n) for z in range(n)}
    interior = {
        (x, y, z)
        for x in range(1, n - 1)
        for y in range(n)
        for z in range(n)
    }
    extras = {v for v in sorted(interior - plane) if rng.random() < noise}
    return s1, s2, minimalize(g, s1, s2, plane | extras)
