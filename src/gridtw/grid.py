"""The diagonal 3D grid Q_n and its geometry.

Q_n has vertex set [0,n)^3; two distinct vertices are adjacent when their
coordinatewise difference, after possibly negating, lies in {0,1}^3.  That is
the cube grid with all non-decreasing diagonals of the unit cells.
``GridGraph`` is the full Q_n, implicit: it stores n and computes adjacency
from the rule.  A staircase enlargement is implicit too: it stores its vertex
set and answers the same graph interface from the rule, restricted to that
set.  Every subgraph that is materialized (a subgrid, a graph read by
``grid_from_json``) is an explicit ``graphs.Graph`` built by
``graphs.induced_subgraph``, the one induced-graph builder;
``GridGraph.induced`` is that same function.  Coordinates read from a
document are range-checked in ``read_grid_document``.  On top of the graph
itself this module provides the geometric scaffolding used by the separator
and bramble machinery: staircases, constant-x squares, staircase enlargements
with their two sides, whether two enlargements meet (read off the
staircases), anchor points for laying out far-apart subgrids, and the
monotone routing that joins staircases of adjacent anchors.

Coordinates are plain ``(x, y, z)`` int tuples.  All objects are immutable
after construction.
"""

import json
from dataclasses import dataclass

from .graphs import Graph, induced_subgraph, relabel

# Forward difference vectors: d in {0,1}^3, d != 0.  u and u+d are adjacent.
_FORWARD = tuple(
    (dx, dy, dz)
    for dx in (0, 1)
    for dy in (0, 1)
    for dz in (0, 1)
    if (dx, dy, dz) != (0, 0, 0)
)
_BACKWARD = tuple((-dx, -dy, -dz) for (dx, dy, dz) in _FORWARD)
_STEPS = _FORWARD + _BACKWARD
_STEP_SET = frozenset(_STEPS)


def coords_adjacent(u, v):
    """Adjacency rule of Q_n, independent of any particular grid object:
    the difference v - u is one of the steps."""
    return (v[0] - u[0], v[1] - u[1], v[2] - u[2]) in _STEP_SET


class GridGraph:
    """The full grid Q_n, with adjacency computed from the rule.

    Nothing is stored but n.  Induced subgraphs are explicit
    ``graphs.Graph`` objects built by ``graphs.induced_subgraph``.  Vertex
    ids for serialization are x + n*y + n^2*z, the order of ``vertices()``.
    """

    def __init__(self, n):
        if n < 1:
            raise ValueError("grid side must be positive")
        self.n = n

    def vertices(self):
        n = self.n
        return [
            (x, y, z) for z in range(n) for y in range(n) for x in range(n)
        ]

    def num_vertices(self):
        return self.n ** 3

    def has_vertex(self, v):
        """Whether v is three ints (not bools) inside [0, n)^3."""
        if len(v) != 3:
            return False
        x, y, z = v
        n = self.n
        return (type(x) is type(y) is type(z) is int
                and 0 <= x < n and 0 <= y < n and 0 <= z < n)

    def neighbors(self, v):
        """The grid neighbours of v, in ``_STEPS`` order.

        A tuple of three ints gets one inline bounds test; anything else is
        judged by ``has_vertex``.
        """
        m = self.n - 1
        if type(v) is tuple and len(v) == 3:
            x, y, z = v
            inside = (type(x) is type(y) is type(z) is int
                      and 0 <= x <= m and 0 <= y <= m and 0 <= z <= m)
        else:
            inside = False
        if not inside:
            if not self.has_vertex(v):
                raise KeyError(v)
            x, y, z = v
        if 0 < x < m and 0 < y < m and 0 < z < m:
            # All 14 steps stay inside: _FORWARD, then _BACKWARD.
            a, b, c, d, e, f = x + 1, y + 1, z + 1, x - 1, y - 1, z - 1
            return [(x, y, c), (x, b, z), (x, b, c), (a, y, z), (a, y, c),
                    (a, b, z), (a, b, c), (x, y, f), (x, e, z), (x, e, f),
                    (d, y, z), (d, y, f), (d, e, z), (d, e, f)]
        out = []
        for dx, dy, dz in _STEPS:
            a, b, c = x + dx, y + dy, z + dz
            if 0 <= a <= m and 0 <= b <= m and 0 <= c <= m:
                out.append((a, b, c))
        return out

    def has_edge(self, u, v):
        """Whether u and v are adjacent vertices."""
        return (
            self.has_vertex(u) and self.has_vertex(v) and coords_adjacent(u, v)
        )

    def first_non_edge(self, vertices):
        """The index i of the first step vertices[i] -> vertices[i + 1]
        that ``has_edge`` rejects, or None.

        Each vertex is judged once, a tuple of three ints by one inline
        bounds test and anything else by ``has_vertex``, and each step by
        the adjacency rule as one lookup of its difference in the steps.
        """
        if len(vertices) < 2:
            return None
        m = self.n - 1
        for i, v in enumerate(vertices):
            if type(v) is tuple and len(v) == 3:
                x, y, z = v
                inside = (type(x) is type(y) is type(z) is int
                          and 0 <= x <= m and 0 <= y <= m and 0 <= z <= m)
            else:
                inside = self.has_vertex(v)
                if inside:
                    x, y, z = v
            if not inside:
                return max(i - 1, 0)
            if i and (x - px, y - py, z - pz) not in _STEP_SET:
                return i - 1
            px, py, pz = x, y, z
        return None

    def edges(self):
        """Every edge (u, u + d), u in ``vertices()`` order, d in
        ``_FORWARD`` order; u + d needs only its upper bounds tested."""
        n = self.n
        return [(u, (a, b, c)) for u in self.vertices()
                for dx, dy, dz in _FORWARD
                if (a := u[0] + dx) < n and (b := u[1] + dy) < n
                and (c := u[2] + dz) < n]

    def num_edges(self):
        return len(self.edges())

    def vertex_id(self, v):
        x, y, z = v
        return x + self.n * y + self.n * self.n * z

    # perfbench's gates call ``q.induced(x)``.
    induced = induced_subgraph

    def __repr__(self):
        return f"GridGraph(n={self.n})"


def _int_list(value, length):
    return (isinstance(value, list) and len(value) == length
            and all(type(c) is int for c in value))


def read_grid_document(text):
    """The (n, vertices, edges) of a grid JSON document, shape-checked.

    ``vertices`` is "full" or the set of listed [x, y, z] triples (repeats
    drop out); ``edges`` is "implicit" or a list of position pairs into the
    distinct listed vertices.  Any other shape raises ``ValueError``.
    """
    obj = json.loads(text)
    if not isinstance(obj, dict) or type(obj.get("n")) is not int:
        raise ValueError('grid document needs an integer "n"')
    n = obj["n"]
    vertices = obj.get("vertices", "full")
    if vertices != "full":
        if not (isinstance(vertices, list)
                and all(_int_list(v, 3) for v in vertices)):
            raise ValueError('"vertices" must be "full" or [x, y, z] triples')
        vertices = set(map(tuple, vertices))
        for v in vertices:
            if not all(0 <= c < n for c in v):
                raise ValueError(f"vertex {v} outside [0,{n})^3")
    count = n ** 3 if vertices == "full" else len(vertices)
    edges = obj.get("edges", "implicit")
    if edges != "implicit" and not (
        isinstance(edges, list)
        and all(_int_list(e, 2) and all(0 <= i < count for i in e)
                for e in edges)
    ):
        raise ValueError(
            f'"edges" must be "implicit" or pairs of positions below {count}'
        )
    return n, vertices, edges


def grid_from_json(text):
    """A grid JSON document as a ``Graph`` on vertex ids x + n*y + n^2*z.

    ``vertices`` is "full" or a list of [x, y, z] inside [0, n)^3 (repeats
    are dropped); ``edges`` is "implicit" or a list of position pairs into
    the vertices in id order, which must be exactly the rule's edges.
    """
    n, vertices, edges = read_grid_document(text)
    q = GridGraph(n)
    keep = q.vertices() if vertices == "full" else vertices
    g = relabel(induced_subgraph(q, keep), q.vertex_id)
    if edges != "implicit":
        ids = g.vertices()
        explicit = {tuple(sorted((ids[i], ids[j]))) for i, j in edges}
        if explicit != set(g.edges()):
            raise ValueError("edge list disagrees with the adjacency rule")
    return g


def build_qn(n):
    """The full grid Q_n; rejects n = 0."""
    return GridGraph(n)


def subgrid(g, v, m):
    """The m^3 cube of Q_n anchored at v, as an induced ``Graph``."""
    if m < 1:
        raise ValueError("subgrid side must be positive")
    x0, y0, z0 = v
    if not (
        g.has_vertex(v) and x0 + m <= g.n and y0 + m <= g.n and z0 + m <= g.n
    ):
        raise ValueError(f"subgrid {v}+{m} exceeds bounds of Q_{g.n}")
    return induced_subgraph(g, [
        (x0 + dx, y0 + dy, z0 + dz)
        for dz in range(m)
        for dy in range(m)
        for dx in range(m)
    ])


def b_square(v, b):
    """The (b+1)^2 constant-x square {(x, y+dy, z+dz) : 0 <= dy,dz <= b}."""
    if b < 0:
        raise ValueError("square parameter must be non-negative")
    x, y, z = v
    return {(x, y + dy, z + dz) for dy in range(b + 1) for dz in range(b + 1)}


@dataclass(frozen=True)
class Staircase:
    """x-monotone int path: unit x-steps, y and z each rising by 0 or 1."""

    vertices: tuple

    def __post_init__(self):
        vs = tuple(tuple(v) for v in self.vertices)
        object.__setattr__(self, "vertices", vs)
        if not vs:
            raise ValueError("staircase must be non-empty")
        for v in vs:
            if len(v) != 3 or not type(v[0]) is type(v[1]) is type(v[2]) is int:
                raise ValueError(f"staircase vertex {v} is not three ints")
        for a, b in zip(vs, vs[1:]):
            if b[0] != a[0] + 1 or b[1] - a[1] not in (0, 1) or b[2] - a[2] not in (0, 1):
                raise ValueError(f"invalid staircase step {a} -> {b}")

    @property
    def first(self):
        return self.vertices[0]

    @property
    def last(self):
        return self.vertices[-1]

    def __len__(self):
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def vertex_at_x(self, x):
        i = x - self.first[0]
        if not 0 <= i < len(self.vertices):
            raise KeyError(x)
        return self.vertices[i]

    def extended(self):
        """The staircase with one straight x-step added at each end."""
        x0, y0, z0 = self.first
        x1, y1, z1 = self.last
        return Staircase(((x0 - 1, y0, z0),) + self.vertices
                         + ((x1 + 1, y1, z1),))


@dataclass(frozen=True)
class Enlargement:
    """The union ``vertex_set`` of the b-squares along a staircase, as the
    subgraph of Q_n it induces, with adjacency computed from the rule."""

    base: Staircase
    b: int
    vertex_set: frozenset
    left_side: frozenset
    right_side: frozenset

    @property
    def sides(self):
        return self.left_side | self.right_side

    def interior(self):
        return self.vertex_set - self.sides

    def vertices(self):
        return sorted(self.vertex_set)

    def has_vertex(self, v):
        return v in self.vertex_set

    def neighbors(self, v):
        """The neighbours of v inside the enlargement, in ``_STEPS`` order."""
        inside = self.vertex_set
        if v not in inside:
            raise KeyError(v)
        x, y, z = v
        a, b, c, d, e, f = x + 1, y + 1, z + 1, x - 1, y - 1, z - 1
        return [w for w in ((x, y, c), (x, b, z), (x, b, c), (a, y, z),
                            (a, y, c), (a, b, z), (a, b, c), (x, y, f),
                            (x, e, z), (x, e, f), (d, y, z), (d, y, f),
                            (d, e, z), (d, e, f))
                if w in inside]

    def has_edge(self, u, v):
        inside = self.vertex_set
        return u in inside and v in inside and coords_adjacent(u, v)

    def first_non_edge(self, vertices):
        """The index i of the first step vertices[i] -> vertices[i + 1]
        that ``has_edge`` rejects, or None: each vertex is looked up in the
        vertex set once and each step is tested by the adjacency rule."""
        if len(vertices) < 2:
            return None
        inside = self.vertex_set
        for i, v in enumerate(vertices):
            if v not in inside:
                return max(i - 1, 0)
            if i and not coords_adjacent(prev, v):
                return i - 1
            prev = v
        return None


def enlarge(g, staircase, b):
    """The b-enlargement of a staircase inside the full grid g; rejects
    clipped squares.

    g is a box and a staircase decreases no coordinate, so every square
    lies inside g when the staircase's first vertex and its last vertex
    moved by (0, b, b) do.  Only when that test fails are the squares
    scanned, to name the first vertex outside.
    """
    if b < 0:
        raise ValueError("enlargement parameter must be non-negative")
    x, y, z = staircase.last
    if not (g.has_vertex(staircase.first) and g.has_vertex((x, y + b, z + b))):
        for v in staircase:
            for u in b_square(v, b):
                if not g.has_vertex(u):
                    raise ValueError(
                        f"square around {v} leaves the grid at {u} (b={b})"
                    )
    span = range(b + 1)
    return Enlargement(
        base=staircase,
        b=b,
        vertex_set=frozenset([(x, y + dy, z + dz) for x, y, z in staircase
                              for dy in span for dz in span]),
        left_side=frozenset(b_square(staircase.first, b)),
        right_side=frozenset(b_square(staircase.last, b)),
    )


def enlargements_meet(p, q, b):
    """Whether the b-enlargements of staircases p and q share a vertex: at
    some x in both x-ranges, the staircases differ by at most b in y and in
    z (two b-squares in one x-plane meet exactly then)."""
    lo, hi = max(p.first[0], q.first[0]), min(p.last[0], q.last[0])
    pairs = ((p.vertex_at_x(x), q.vertex_at_x(x)) for x in range(lo, hi + 1))
    return any(abs(u[1] - w[1]) <= b and abs(u[2] - w[2]) <= b
               for u, w in pairs)


def anchor(d, j, k):
    """Anchor point (4dj+4dk, 2dj+dk, dj+2dk) of the (j,k) layout cell."""
    if d < 1:
        raise ValueError("anchor spacing must be positive")
    return (4 * d * j + 4 * d * k, 2 * d * j + d * k, d * j + 2 * d * k)


def join_staircases(g, p_first, p_second):
    """Join two staircases by a monotone route, lower x-range first.

    The result has one input as its initial segment and the other as its
    final segment.  Routing advances x by one per step and greedily raises y
    and z toward the second staircase's first vertex.  Raises if the inputs
    overlap in x, no monotone route exists, or an end of the join lies
    outside g (the join lies in the box of its ends).
    """
    if p_first.first[0] > p_second.first[0]:
        p_first, p_second = p_second, p_first
    a = p_first.last
    c = p_second.first
    if c[0] <= a[0]:
        raise ValueError("staircases overlap in x; cannot join")
    dx = c[0] - a[0]
    if c[1] < a[1] or c[2] < a[2] or c[1] - a[1] > dx or c[2] - a[2] > dx:
        raise ValueError(f"no monotone route from {a} to {c}")
    route = []
    x, y, z = a
    while x + 1 < c[0]:
        x += 1
        if y < c[1]:
            y += 1
        if z < c[2]:
            z += 1
        route.append((x, y, z))
    # Last step must land exactly on c; the greedy advance guarantees the
    # remaining deficits are at most one, and the validator re-checks.
    joined = Staircase(p_first.vertices + tuple(route) + p_second.vertices)
    for v in (joined.first, joined.last):
        if not g.has_vertex(v):
            raise ValueError(f"join leaves the grid at {v}")
    return joined


# The triangulated 2D grid, a treewidth subject (``treewidth --tri-grid``).


def triangulated_grid(k):
    """The k x k grid on (x, y) pairs with the (1,1) diagonal in every unit
    cell (a near-triangulation)."""
    if k < 1:
        raise ValueError("grid side must be positive")
    return Graph(
        vertices=((x, y) for x in range(k) for y in range(k)),
        edges=(((x, y), (x + dx, y + dy)) for x in range(k) for y in range(k)
               for dx, dy in ((1, 0), (0, 1), (1, 1))
               if x + dx < k and y + dy < k),
    )
