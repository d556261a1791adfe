"""Side-to-side separators, minimum vertex cuts, and blocked staircases.

A separator here is a vertex set X meeting every path between two side sets
of host vertices.  One search answers whether X separates: ``side_reach``
returns what the first side reaches around X, or None when that reaches the
second side; ``is_separator``, minimalization and the slab's separation
function all call it.  Minimum cuts come from unit vertex-capacity augmenting
paths searched on the host graph itself: each vertex has an entry and an exit
state, and the flow is one map from each used vertex to where its unit came
from.  The cut read off the final residual search is the source-nearest
minimum cut, the same for every maximum flow.  Between an enlargement's
own sides that cut is the b-square at the staircase's second vertex, so the
enlargement sampler starts from that square and runs no flow.
Minimalization labels what each side reaches around X, then scans X in
sorted order and drops every vertex that does not touch both labels, so
minimal separators are reproducible functions of their starting superset.
Blocked staircases and the component that swallows every monochrome
side-to-side path of a (b+1)-enlargement are the bridge into the bramble
construction; that component is one search inside the (b+1)-enlargement,
from the minimal separator of the b-enlargement and blocked at the other
class.  An enlargement is itself a graph, computed from the
adjacency rule, so no search here builds an induced copy of one.
"""

import functools
import json
from collections import deque

from . import grid as _grid
from .graphs import bfs_reachable, is_connected


class NoSeparatorError(ValueError):
    """The sides touch, so no separator over the allowed vertices exists."""


class NotBlockedError(ValueError):
    """Raised when a staircase fails the blockedness precondition."""


# Two-coloring of a vertex set.


class DictPartition:
    """Total map from vertices to {1, 2}, given by a mapping."""

    def __init__(self, mapping):
        self._map = dict(mapping)
        bad = [c for c in self._map.values()
               if type(c) is not int or c not in (1, 2)]
        if bad:
            raise ValueError(
                f"partition classes must be the integers 1 and 2, "
                f"got {bad[0]!r}")

    def cls(self, v):
        return self._map[v]


class HashPartition:
    """Deterministic pseudo-random coloring, evaluated lazily per vertex.

    Suitable for grids too large to materialize a class map.  ``bias`` is
    the probability weight of class 1 in units of 1/256.  The hash reads
    the low 20 bits of each coordinate: period 2^20 along each axis.
    """

    def __init__(self, seed, bias=128):
        if not 0 <= bias <= 256:
            raise ValueError("bias must lie in [0, 256]")
        self.seed = int(seed)
        self.bias = bias

    def cls(self, v):
        x, y, z = v
        packed = (x & 0xFFFFF) | ((y & 0xFFFFF) << 20) | ((z & 0xFFFFF) << 40)
        # The splitmix64 finalizer of packed ^ seed, inline: this is called
        # once per vertex the builder reads.  Stable across platforms.
        h = ((packed ^ self.seed) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return 1 if ((h ^ (h >> 31)) & 0xFF) < self.bias else 2


def partition_from_json(text):
    obj = json.loads(text)
    if not (isinstance(obj, dict) and type(obj.get("n")) is int
            and isinstance(obj.get("class"), list)):
        raise ValueError('partition needs an integer "n" and a "class" list')
    g = _grid.GridGraph(obj["n"])
    classes = obj["class"]
    if len(classes) != g.num_vertices():
        raise ValueError("class array length disagrees with n^3")
    return g, DictPartition(dict(zip(g.vertices(), classes)))


# Separation testing and minimum cuts.


def side_reach(host, s1, s2, x):
    """What s1 reaches in host - x, or None when that reach meets s2.

    ``x`` is a set that must avoid both sides.  Every side-to-side test
    goes through this one search.
    """
    if not (x.isdisjoint(s1) and x.isdisjoint(s2)):
        raise ValueError("candidate separator intersects a side")
    reach = bfs_reachable(host, s1, blocked=x)
    return reach if reach.isdisjoint(s2) else None


def is_separator(host, s1, s2, x):
    """True iff no s1-s2 path in host avoids x.  x must avoid the sides."""
    return side_reach(host, s1, s2, set(x)) is not None


def _frontier(host, side, other):
    """Vertices outside ``side`` adjacent to it; raises if ``other`` is."""
    out = {w for v in side for w in host.neighbors(v)} - side
    if out & other:
        raise NoSeparatorError(
            "sides are adjacent; no interior separator exists"
        )
    return out


def _max_flow_cut(host, s1, s2, include_sides):
    s1, s2 = frozenset(s1), frozenset(s2)
    if not s1 or not s2:
        raise ValueError("sides must be non-empty")
    if s1 & s2:
        raise NoSeparatorError("sides intersect")
    if include_sides:
        blocked, starts, ends = frozenset(), s1, s2
    else:
        # Each side acts as one terminal; paths run between the frontiers.
        blocked = s1 | s2
        starts, ends = _frontier(host, s1, s2), _frontier(host, s2, s1)
    # A vertex has an entry and an exit state.  An entry state's one residual
    # move is across v, or back along the unit's step into v if v carries
    # one, so the search queues exit states.  enter_from[w]: the vertex whose
    # exit led into w (w when backing out); leave_from[v]: whose entry led out.
    # The flow maps each used vertex to the vertex ("s": source) its unit
    # came from.
    into = {}

    @functools.cache
    def steps(v):  # the host neighbours a path may enter from v
        return [w for w in host.neighbors(v) if w not in blocked]

    def residual_search():
        enter_from, leave_from, queue = {}, {"s": None}, deque()

        def enter(w, u):
            enter_from[w] = u
            nxt = into.get(w, w)
            if nxt not in leave_from:
                leave_from[nxt] = w
                queue.append(nxt)

        for w in starts:
            enter(w, "s")
        while queue:
            v = queue.popleft()
            if v in ends:
                return enter_from, leave_from, v
            for w in steps(v):
                if w not in enter_from:
                    enter(w, v)
            if v in into and v not in enter_from:
                enter(v, v)
        return enter_from, leave_from, None

    flow = 0  # stays 0, with an empty cut, when a side has no way out
    while True:
        enter_from, leave_from, v = residual_search()
        if v is None:
            break
        flow += 1
        while v != "s":
            w = leave_from[v]
            v = enter_from[w]
            if v == w:
                del into[w]  # the path backed out through w
            else:
                into[w] = v
    # The residual-reachable set is the same for every maximum flow, so the
    # cut below is the unique source-nearest minimum cut.
    cut = frozenset(v for v in enter_from if v not in leave_from)
    assert len(cut) == flow, "residual cut size disagrees with flow value"
    return cut


def min_side_separator(host, s1, s2, include_sides=False):
    """Minimum vertex set meeting every s1-s2 path.

    Default mode restricts the cut to vertices outside the sides and raises
    NoSeparatorError when the sides touch; include_sides allows cutting side
    vertices (Menger form), in which case a cut always exists.  The cut is
    the source-nearest minimum cut, the same for every maximum flow.
    """
    cut = _max_flow_cut(host, s1, s2, include_sides)
    # Default mode: cut misses the sides, so this is is_separator(cut).
    assert is_separator(host, set(s1) - cut, set(s2) - cut, cut)
    return cut


def _side_labels(host, s1, s2, x):
    """Label 1 what s1 reaches in host - x and 2 what s2 reaches; None when
    x does not separate."""
    reach1 = side_reach(host, s1, s2, x)
    if reach1 is None:
        return None
    label = dict.fromkeys(bfs_reachable(host, s2, blocked=x), 2)
    label.update(dict.fromkeys(reach1, 1))
    return label


def _touched(host, label, v):
    return {label.get(w) for w in host.neighbors(v)}


def minimalize(host, s1, s2, x):
    """Inclusion-minimal subset of x that still separates.

    Scans candidates in sorted order and drops each vertex whose removal
    keeps the separation, i.e. that does not touch both side labels; a
    dropped vertex joins its side's label, flooded into the part it opens.
    One pass yields a minimal set because separation is monotone under
    supersets.
    """
    x = set(x)
    label = _side_labels(host, s1, s2, x)
    if label is None:
        raise ValueError("input set is not a separator")
    for v in sorted(x):
        touched = _touched(host, label, v)
        if {1, 2} <= touched:
            continue
        x.discard(v)
        touched.discard(None)
        if not touched:
            continue
        side = label[v] = touched.pop()
        queue = deque([v])
        while queue:
            for w in host.neighbors(queue.popleft()):
                if w not in label and w not in x:
                    label[w] = side
                    queue.append(w)
    return frozenset(x)


def is_minimal_separator(host, s1, s2, x):
    x = set(x)
    label = _side_labels(host, s1, s2, x)
    return label is not None and all(
        {1, 2} <= _touched(host, label, v) for v in x
    )


def check_separator_connected(enlargement, x):
    """Connectivity of the induced subgraph on a minimal side separator.

    The claim under test: every inclusion-minimal separator of an
    enlargement's sides induces a connected subgraph.  Preconditions are
    verified, not assumed.
    """
    s1, s2 = enlargement.left_side, enlargement.right_side
    if not is_minimal_separator(enlargement, s1, s2, x):
        raise ValueError("input is not an inclusion-minimal side separator")
    return is_connected(enlargement, within=x)


# The steps of Q_n in sorted order: the x-advancing steps come last, so the
# search below pops them first.
_STEPS_X_LAST = tuple(sorted(_grid._STEPS))


def is_blocked(g, staircase, b, i, part):
    """Every side-to-side path of the b-enlargement meets class i off-sides.

    One depth-first search from the left side, over the enlargement's
    vertex set and stopped by class-i vertices off the sides.  Each vertex
    pushes its unseen neighbours in ``_STEPS_X_LAST`` order, so the search
    runs ahead in x wherever it can: an unblocked enlargement is crossed
    after about 4 class reads per x-slice.  The search reads the class of
    only the vertices it reaches and stops at the first right-side vertex.
    Reachability does not depend on the search order, so the answer is that
    of any search, and the reach of a blocked staircase is still read in
    full.
    """
    enl = _grid.enlarge(g, staircase, b)
    inside, right = enl.vertex_set, enl.right_side
    if enl.left_side & right:  # a one-vertex staircase: the sides meet
        return False
    seen = set(enl.left_side)
    stack = sorted(seen)
    while stack:
        x, y, z = stack.pop()
        for dx, dy, dz in _STEPS_X_LAST:
            w = (x + dx, y + dy, z + dz)
            if w in seen or w not in inside:
                continue
            if w in right:
                return False
            seen.add(w)
            if part.cls(w) != i:
                stack.append(w)
    return True


def blocked_component(g, staircase, b, i, part):
    """The component of class i in the (b+1)-enlargement that swallows
    every class-i side-to-side path.

    Requires the staircase to be (b, i)-blocked.  The returned component
    contains the (connected) minimal class-i separator of the b-enlargement,
    which certifies the swallowing property: it is what that separator
    reaches in the (b+1)-enlargement, blocked at the other class.
    """
    m0 = _grid.enlarge(g, staircase, b)
    blocker = {v for v in m0.interior() if part.cls(v) == i}
    try:  # minimalize's separation check is the blocked test
        x = minimalize(m0, m0.left_side, m0.right_side, blocker)
    except ValueError:
        raise NotBlockedError(f"staircase is not ({b},{i})-blocked") from None
    # x lies inside the enlargement, so its connectivity may be read on
    # the host g.
    assert is_connected(g, within=x), (
        "minimal enlargement separator is disconnected; "
        "connectivity invariant violated"
    )
    m1 = _grid.enlarge(g, staircase, b + 1)
    other = {v for v in m1.vertex_set if part.cls(v) != i}
    return frozenset(bfs_reachable(m1, x, blocked=other))


# Separator sampling for the property suites.

# Chance that a sampled separator takes a free vertex as an extra.
SAMPLE_NOISE = 0.3


def sample_minimal_separator(enl, rng):
    """A random minimal separator of an enlargement's sides: the b-square at
    the staircase's second vertex plus random extras, minimalized.

    The square is the cut ``min_side_separator`` finds.  It is the left
    side's whole frontier: a staircase step rises by 0 or 1 in y and in z,
    so the back steps (-1, -dy, -dz), dy, dz in {0, 1}, take each of its
    vertices into the left side, which no other vertex touches.  Its
    (b+1)^2 vertices meet the (b+1)^2 vertex-disjoint offset copies of the
    staircase, so it is the minimum cut nearest the left side.
    """
    if len(enl.base) < 3:
        raise NoSeparatorError(
            "sampled separators need a staircase of three or more vertices")
    s1, s2 = enl.left_side, enl.right_side
    x = set(_grid.b_square(enl.base.vertices[1], enl.b))
    for v in enl.vertices():
        if (v not in s1 and v not in s2 and v not in x
                and rng.random() < SAMPLE_NOISE):
            x.add(v)
    return minimalize(enl, s1, s2, x)


def sample_grid_separator(g, rng):
    """Random minimal side separator of the full grid between its x-faces."""
    n = g.n
    s1, s2 = (_grid.b_square((x, 0, 0), n - 1) for x in (0, n - 1))
    if n < 3:
        raise NoSeparatorError("sampled separators need n >= 3")
    plane_x = rng.randrange(1, n - 1)
    plane = {(plane_x, y, z) for y in range(n) for z in range(n)}
    # A seed fixes the draws: one per off-plane interior vertex, sorted.
    extras = {
        (x, y, z) for x in range(1, n - 1) if x != plane_x
        for y in range(n) for z in range(n) if rng.random() < SAMPLE_NOISE
    }
    return s1, s2, minimalize(g, s1, s2, plane | extras)
