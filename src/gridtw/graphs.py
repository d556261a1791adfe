"""Small generic graph container and traversal helpers.

``Graph`` is the explicit graph of every algorithm layer: induced subgraphs
of ``Q_n`` (subgrids, separator subgraphs ``G[X]``, colour classes), the
triangulated grid, and graphs read from files.  It, the implicit full grid
``grid.GridGraph`` and the implicit enlargement ``grid.Enlargement`` each
supply ``vertices()``, ``neighbors(v)``, ``has_vertex(v)`` and
``adjacent(u, v)``; the base class ``EdgeQueries`` derives from these the
edge test ``has_edge(u, v)``, the walk check ``first_non_edge(vertices)``
(the first step of a sequence that is not an edge, which ``calculus.Walk``
runs on walks from outside) and the edges inside a set, ``edges_within``.
Vertices are arbitrary sortable hashables; each adjacency is a sorted list,
so iteration is always in sorted order and results are deterministic.

``induced_subgraph(host, keep)`` is the package's one builder of induced
``Graph`` objects, of any host (``GridGraph.induced`` is the same function):
it reads only the neighbourhoods of the kept vertices, so its cost does not
grow with the host.  ``_component`` is the one component search inside a
``within`` set, under ``is_connected`` and ``connected_components``.
``bfs_reachable``, the search of the side-to-side test
``separators.side_reach``, avoids a ``blocked`` set instead: the implicit
grid and enlargements cannot list a complement.
"""

from bisect import bisect_left
from collections import deque


class EdgeQueries:
    """The edge test and the walk check of a graph, from its ``has_vertex``
    and its ``adjacent(u, v)``, which is only asked about two vertices."""

    def has_edge(self, u, v):
        return self.has_vertex(u) and self.has_vertex(v) and self.adjacent(u, v)

    def first_non_edge(self, vertices):
        """The index i of the first step vertices[i] -> vertices[i + 1]
        that ``has_edge`` rejects, or None: each vertex is tested once, and
        a missing one fails the first step that touches it."""
        if len(vertices) < 2:
            return None
        has_vertex, adjacent = self.has_vertex, self.adjacent
        for i, v in enumerate(vertices):
            if not has_vertex(v):
                return max(i - 1, 0)
            if i and not adjacent(prev, v):
                return i - 1
            prev = v
        return None

    def edges_within(self, vertices):
        """The edges among ``vertices``: each pair (u, w), u < w, in sorted
        order, found by one ``has_edge`` test per pair."""
        inside = sorted(vertices)
        has_edge = self.has_edge
        for i, u in enumerate(inside):
            for w in inside[i + 1:]:
                if has_edge(u, w):
                    yield u, w


class Graph(EdgeQueries):
    """Undirected simple graph over sortable hashable vertices."""

    def __init__(self, vertices=(), edges=()):
        self._adj = {}
        for v in vertices:
            self._adj.setdefault(v, [])
        for u, v in edges:
            self.add_edge(u, v)

    @classmethod
    def from_adjacency(cls, adj):
        """The graph whose adjacency is ``adj``: sorted, symmetric lists."""
        g = cls()
        g._adj = adj
        return g

    def add_edge(self, u, v):
        if u == v:
            raise ValueError("self-loops not supported")
        for a, b in ((u, v), (v, u)):
            nbrs = self._adj.setdefault(a, [])
            i = bisect_left(nbrs, b)
            if i == len(nbrs) or nbrs[i] != b:
                nbrs.insert(i, b)

    def vertices(self):
        return sorted(self._adj)

    def has_vertex(self, v):
        return v in self._adj

    def neighbors(self, v):
        return list(self._adj[v])

    def adjacent(self, u, v):
        return v in self._adj[u]

    def edges(self):
        out = []
        for u in self.vertices():
            for v in self._adj[u]:
                if u < v:
                    out.append((u, v))
        return out

    def num_vertices(self):
        return len(self._adj)

    def num_edges(self):
        return sum(len(s) for s in self._adj.values()) // 2

    def __repr__(self):
        return f"Graph(|V|={self.num_vertices()}, |E|={self.num_edges()})"


def induced_subgraph(host, keep):
    """The subgraph of ``host`` induced on ``keep`` (all host vertices).

    Reads one neighbourhood per kept vertex; ``host`` is undirected, so the
    filtered neighbourhoods are already symmetric.  Each is sorted once,
    since the full grid lists its neighbours in step order.  The lists hold
    the kept vertex objects themselves, not the fresh tuples the full grid
    builds for each neighbourhood, so the graph costs no more memory per
    edge than one reference.
    """
    own = {v: v for v in keep}
    return Graph.from_adjacency({
        v: sorted([own[w] for w in host.neighbors(v) if w in own])
        for v in own
    })


def relabel(graph, label):
    """A copy of ``graph`` with each vertex v renamed by the injective
    ``label(v)``."""
    return Graph.from_adjacency({
        label(v): sorted([label(w) for w in graph.neighbors(v)])
        for v in graph.vertices()
    })


def bfs_reachable(graph, sources, blocked=frozenset()):
    """The set of vertices reachable from ``sources`` avoiding ``blocked``."""
    blocked = set(blocked)
    seen = set()
    queue = deque()
    for s in sources:
        if s not in blocked and s not in seen and graph.has_vertex(s):
            seen.add(s)
            queue.append(s)
    while queue:
        u = queue.popleft()
        for w in graph.neighbors(u):
            if w in seen or w in blocked:
                continue
            seen.add(w)
            queue.append(w)
    return seen


def bfs_path(graph, sources, sinks, allowed):
    """Shortest path from any source to any sink, or None, using only
    vertices in ``allowed`` (sources and sinks included).

    Sources and each neighbourhood are taken in sorted order, so the path
    found does not depend on how the host lists neighbours: a search on the
    full grid restricted to ``allowed`` finds the same path as one on the
    subgraph induced on ``allowed``.
    """
    sinks = set(sinks)
    parent = {}
    queue = deque()
    for s in sorted(set(sources)):
        if not graph.has_vertex(s) or s not in allowed:
            continue
        parent[s] = None
        if s in sinks:
            return [s]
        queue.append(s)
    while queue:
        u = queue.popleft()
        fresh = [w for w in graph.neighbors(u)
                 if w in allowed and w not in parent]
        for w in sorted(fresh):
            parent[w] = u
            if w in sinks:
                path = [w]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            queue.append(w)
    return None


def _component(graph, start, within):
    """The vertices of ``within`` reachable from ``start`` inside it."""
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in graph.neighbors(u):
            if w in within and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def is_connected(graph, within=None):
    """Connectivity of the induced subgraph on ``within`` (default: all
    of the graph's vertices)."""
    within = set(graph.vertices() if within is None else within)
    return not within or _component(graph, min(within), within) == within


# No package code calls this; perfbench's tracing wraps it by name.
def connected_components(graph, within=None):
    """Components as sorted lists of vertices, in canonical order."""
    verts = sorted(within) if within is not None else graph.vertices()
    vset = set(verts)
    seen = set()
    comps = []
    for v in verts:
        if v not in seen:
            comp = _component(graph, v, vset)
            seen |= comp
            comps.append(sorted(comp))
    return comps
