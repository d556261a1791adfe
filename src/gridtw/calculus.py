"""L-valued vertex functions and the discrete walk calculus.

Vertex labels live in L = {-1, 0, +1, star}.  A labeling is continuous when
no edge joins -1 to +1, holomorphic when additionally no edge joins 0 to
star, and entire when continuous with no star at all.  An edge function
(a chain) is a dict {(u, v): c} over edges u < v with zero entries absent.
The difference operator sends a labeling to the chain f(v) - f(u); walks
pair with chains through their signed traversal indicator, so a step a -> b
reads f(b) - f(a) whichever end is smaller, and no edge direction needs
choosing.  Triangles on which a labeling is holomorphic integrate to zero,
which is what the contractibility and almost-homotopy certificates verify.

All arithmetic is exact: integers for chains and integrals, Fractions for
the half-integer interior path weights.
"""

from fractions import Fraction


class _Star:
    """The discard label; deliberately not an integer."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "star"


STAR = _Star()


# Labels compare by value, so True and 1.0 equal 1: a label is valid when
# it is in _LVALUES and its type is one of _LTYPES.
_LVALUES = frozenset((-1, 0, 1, STAR))
_LTYPES = frozenset((int, _Star))

# Label pairs an edge may not carry (both orders listed).
_NOT_CONTINUOUS = frozenset({(1, -1), (-1, 1)})
_NOT_HOLOMORPHIC = _NOT_CONTINUOUS | {(0, STAR), (STAR, 0)}


class LFunction:
    """Total map from the vertices of a graph into {-1, 0, +1, star}."""

    def __init__(self, graph, values):
        self.graph = graph
        verts = graph.vertices()
        try:
            self.values = {v: values[v] for v in verts}
            labels = self.values.values()
            valid = (_LVALUES.issuperset(labels)
                     and _LTYPES.issuperset(map(type, labels)))
        except (KeyError, TypeError):
            valid = False
        if not valid:
            # Name the first offender in vertex order.
            for v in verts:
                if v not in values:
                    raise ValueError(f"missing value for vertex {v}")
                val = values[v]
                if not (val is STAR or type(val) is int and val in (-1, 0, 1)):
                    raise ValueError(f"not an L-value: {val!r}")

    def __call__(self, v):
        return self.values[v]

    def _bad_edge(self, forbidden, within=None):
        """An edge (u, w), u < w, whose labels are a pair of ``forbidden``
        (a symmetric set), or None; with ``within``, only edges inside it."""
        vals = self.values
        g = self.graph
        pairs = g.edges() if within is None else g.edges_within(within)
        for u, w in pairs:
            if (vals[u], vals[w]) in forbidden:
                return (u, w)
        return None

    def is_continuous(self, within=None):
        return self._bad_edge(_NOT_CONTINUOUS, within) is None

    def is_holomorphic(self, within=None):
        return self._bad_edge(_NOT_HOLOMORPHIC, within) is None

    def is_entire(self, within=None):
        if within is None:
            has_star = any(v is STAR for v in self.values.values())
        else:
            has_star = any(self.values[u] is STAR for u in within)
        return not has_star and self.is_continuous(within)


class Walk:
    """Directed walk: a vertex sequence whose every step is an edge.

    The graph checks the whole sequence in one ``first_non_edge`` call,
    which agrees with ``has_edge`` on every step; the error names the first
    step that is not an edge, or a lone vertex the graph lacks.  A list or
    a tuple subclass is read as a tuple.
    """

    def __init__(self, graph, vertices):
        vs = [v if type(v) is tuple
              else tuple(v) if isinstance(v, (list, tuple)) else v
              for v in vertices]
        if not vs:
            raise ValueError("walk needs at least one vertex")
        if len(vs) == 1 and not graph.has_vertex(vs[0]):
            raise ValueError(f"walk vertex {vs[0]} is not in the graph")
        bad = graph.first_non_edge(vs)
        if bad is not None:
            raise ValueError(
                f"walk step {vs[bad]} -> {vs[bad + 1]} is not an edge")
        self.graph = graph
        self.vertices = vs

    @classmethod
    def _unchecked(cls, graph, vertices):
        """A walk of vertex tuples built from ``graph``'s own steps,
        unchecked: ``tests/test_harness.py`` and ``oracles.slab_diagnose``
        check each construction that uses it."""
        walk = cls.__new__(cls)
        walk.graph, walk.vertices = graph, vertices
        return walk

    @property
    def start(self):
        return self.vertices[0]

    @property
    def end(self):
        return self.vertices[-1]

    @property
    def length(self):
        return len(self.vertices) - 1

    def is_closed(self):
        return self.start == self.end

    def is_path(self):
        return len(set(self.vertices)) == len(self.vertices)

    def vertex_set(self):
        return set(self.vertices)

    def __repr__(self):
        return f"Walk({self.vertices})"


def d(f):
    """Difference chain {(u, v): f(v) - f(u)} over edges u < v.

    Edges touching a star, and edges with equal ends, carry no entry.
    """
    out = {}
    for u, v in f.graph.edges():
        fu, fv = f(u), f(v)
        if fu is not STAR and fv is not STAR and fu != fv:
            out[(u, v)] = fv - fu
    return out


def indicator(walk):
    """Signed traversal count per edge (u, v), u < v: +1 per step u -> v,
    -1 per step v -> u; edges traversed equally often both ways are absent."""
    out = {}
    for a, b in zip(walk.vertices, walk.vertices[1:]):
        e, sign = ((a, b), 1) if a < b else ((b, a), -1)
        c = out.get(e, 0) + sign
        if c:
            out[e] = c
        else:
            del out[e]
    return out


def integrate(walk, chain):
    """Exact pairing of a walk with an edge chain."""
    total = 0
    for a, b in zip(walk.vertices, walk.vertices[1:]):
        if a < b:
            total += chain.get((a, b), 0)
        else:
            total -= chain.get((b, a), 0)
    return total


def integrate_d(walk, f):
    """integrate(walk, d(f)) without building the chain: the sum of
    f(b) - f(a) over the steps a -> b that touch no star."""
    total = 0
    fa = f.values[walk.vertices[0]]
    for b in walk.vertices[1:]:
        fb = f.values[b]
        if fa is not STAR and fb is not STAR:
            total += fb - fa
        fa = fb
    return total


def is_triangle(walk):
    return walk.length == 3 and walk.is_closed()


def is_contractible(triangle, f):
    """True when f is holomorphic on the triangle's vertex set.

    A triangle walk a -> b -> c -> a has three distinct, pairwise adjacent
    vertices (every step is an edge, and no graph has a loop), so its three
    steps are exactly the edges inside its vertex set.
    """
    if not is_triangle(triangle):
        raise ValueError("contractibility is defined for triangles only")
    a, b, c, _ = triangle.vertices
    vals = f.values
    fa, fb, fc = vals[a], vals[b], vals[c]
    return ((fa, fb) not in _NOT_HOLOMORPHIC
            and (fb, fc) not in _NOT_HOLOMORPHIC
            and (fc, fa) not in _NOT_HOLOMORPHIC)


def verify_almost_contractible(walk, triangles, f, k):
    """Certificate check: indicators of the triangles sum to the walk's.

    True iff the triangle indicator chains sum exactly to the walk's
    indicator and every triangle past the first k is contractible for f.
    """
    if not walk.is_closed():
        raise ValueError("almost-contractibility applies to closed walks")
    total = {}
    for t in triangles:
        if not is_triangle(t):
            return False
        for e, c in indicator(t).items():
            total[e] = total.get(e, 0) + c
    if {e: c for e, c in total.items() if c} != indicator(walk):
        return False
    return all(is_contractible(t, f) for t in triangles[k:])


def verify_almost_homotopic(w1, w2, q, r, triangles, f, k):
    """Certificate check for the composite closed walk q . w2 . r~ . w1~.

    Requires q to join the starts and r the ends; f must be constant and
    integer on the vertices of q and of r.
    """
    if q.start != w1.start or q.end != w2.start:
        raise ValueError("q must join the walks' start vertices")
    if r.start != w1.end or r.end != w2.end:
        raise ValueError("r must join the walks' end vertices")
    for conn in (q, r):
        vals = {f(v) for v in conn.vertex_set()}
        if len(vals) != 1 or STAR in vals:
            return False
    # The endpoint checks above make the four pieces meet, so the composite
    # is their vertex lists joined, checked as one walk.
    composite = Walk(q.graph, q.vertices + w2.vertices[1:]
                     + r.vertices[-2::-1] + w1.vertices[-2::-1])
    return verify_almost_contractible(composite, triangles, f, k)


def path_weights(path, f):
    """Interior weights half of (next value minus previous value).

    Requires f entire on the path's vertex set; the returned Fractions are
    exact multiples of one half in [-1, 1].
    """
    if not path.is_path():
        raise ValueError("weights are defined for paths")
    if not f.is_entire(within=path.vertex_set()):
        raise ValueError("labeling is not entire on the path")
    vs = path.vertices
    out = {}
    for i in range(1, len(vs) - 1):
        out[vs[i]] = Fraction(f(vs[i + 1]) - f(vs[i - 1]), 2)
    return out


def weight_sum(weights, subset):
    return sum((weights[v] for v in subset if v in weights), Fraction(0))
