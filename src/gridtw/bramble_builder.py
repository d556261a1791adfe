"""Constructive blocked-staircase / bramble recursion over blocking levels.

Level b of the recursion either produces a staircase whose b-enlargement is
blocked by color class i off the sides, or a bramble of order t+1 inside one
color class.  Level 0 scans a subgrid's x-interior for a class-i vertex (a
three-vertex staircase through it is blocked); if the whole interior slab is
the other color, the crosses family on a (t+1) x (t+1) plane patch of the
slab is an order-(t+1) bramble there.  Higher levels, for every t, lay out
(2t+1)^2 subgrids at spread anchor points (one cell at t = 0), recurse with
the colors swapped, join adjacent staircases by monotone routes, and test
each join (at t = 0, the lone staircase); a blocked one is the result.
Only when every join is unblocked are join overlaps checked, from the
staircases (``grid.enlargements_meet``), and each staircase lifted to its
swallowing component: an unblocked join always yields a monochrome
connector between the neighboring components, and the column/row unions of
components and connectors form the bramble.  The guaranteed side is
``grid_side``, and a level-b subgrid has that side at level b - 1.

Joins are tested after a one-step extension at both ends (the whole layout
is shifted one unit in x to make room).  That closes the fringe case where a
path witnessing non-blockedness touches the sides on the wrong color: if the
extended join is unblocked, the witness crosses the original enlargement
entirely inside the opposite class, so the connector search cannot fail.

All results are verified before being returned; nothing is trusted from the
construction itself.
"""

import itertools
from array import array
from collections import Counter
from dataclasses import dataclass

from . import grid as _grid
from .decomposition import grid_bramble_order, validate_bramble
from .graphs import bfs_path
from .separators import blocked_component, is_blocked


class BuilderSizeError(RuntimeError):
    """The grid is too small for the requested recursion level."""


class BuilderInvariantError(AssertionError):
    """An internal construction guarantee failed; indicates a builder bug."""


def schedule(t, b):
    """Grid size recurrence: t+2 at level zero, then (8t+5)(previous+b)."""
    if t < 0 or b < 0:
        raise ValueError("levels must be non-negative")
    n = t + 2
    for level in range(1, b + 1):
        n = (8 * t + 5) * (n + level)
    return n


def grid_side(t, b):
    """The guaranteed side: the recurrence or the layout minimum, if larger."""
    return max(schedule(t, b), required_grid_size(t, b))


def subgrid_size(t, b):
    """Subgrid side of the level-b layout: the guaranteed side at b - 1."""
    if b < 1:
        raise ValueError("no subgrids at level zero")
    return grid_side(t, b - 1)


def required_grid_size(t, b):
    """Geometric minimum side for the level-b layout (3 at level 0)."""
    if b == 0:
        return 3
    n0 = subgrid_size(t, b)
    d = n0 + b
    spread = _grid.anchor(d, 2 * t, 2 * t)
    x_need = 1 + spread[0] + n0 + 1
    yz_need = max(spread[1], spread[2]) + n0 + b
    return max(x_need, yz_need)


@dataclass
class BlockedStaircase:
    staircase: _grid.Staircase
    b: int
    color: int

    kind = "staircase"

    def to_json_obj(self):
        return {
            "kind": self.kind,
            "b": self.b,
            "color": self.color,
            "staircase": [list(v) for v in self.staircase],
        }


class PackedSet:
    """A set of (x, y, z) vertices packed into one ``array("q")``.

    The vertices are stored in sorted order, three coordinates each, about
    24 bytes a vertex where a tuple of tuples spends about 130.  Iterating
    gives them back as tuples; two packed sets are equal when they hold the
    same vertices.
    """

    __slots__ = ("_coords",)

    def __init__(self, vertices):
        self._coords = array(
            "q", itertools.chain.from_iterable(sorted(set(vertices))))

    def __iter__(self):
        coords = iter(self._coords)
        return zip(coords, coords, coords)

    def __len__(self):
        return len(self._coords) // 3

    def __eq__(self, other):
        if not isinstance(other, PackedSet):
            return NotImplemented
        return self._coords == other._coords

    def __repr__(self):
        return f"PackedSet({list(self)!r})"


class BrambleCertificate:
    """A bramble in class ``color``: a layout's ``sets``, or a patch's
    ``rows`` and ``cols``, whose crosses R_a | C_b, made row-major on each
    read, are its sets.  Sets are packed: the benchmark keeps all outputs."""

    kind = "bramble"

    def __init__(self, color, sets=None, order=None, patch=None, rows=None,
                 cols=None):
        self.color, self.order, self.patch = color, order, patch
        self.rows, self.cols = rows, cols
        self._sets = None if sets is None else [PackedSet(s) for s in sets]

    @property
    def sets(self):
        if self.rows is None:
            return self._sets
        return [PackedSet(itertools.chain(r, c))
                for r in self.rows for c in self.cols]

    def __eq__(self, other):
        if not isinstance(other, BrambleCertificate):
            return NotImplemented
        return vars(self) == vars(other)

    def to_json_obj(self):
        return {
            "kind": self.kind,
            "color": self.color,
            "order": self.order,
            "sets": [[list(v) for v in s] for s in self.sets],
        }


def _crosses_patch(origin, size, t):
    """Crosses bramble on a (t+1)x(t+1) plane patch of a monochrome slab."""
    x0, y0, z0 = origin
    px = x0 + 1
    span = t + 1
    if span > size:
        raise BuilderSizeError(
            f"subgrid side {size} below crosses patch span {span}"
        )
    rows = [
        frozenset((px, y0 + a, z0 + c) for c in range(span))
        for a in range(span)
    ]
    cols = [
        frozenset((px, y0 + c, z0 + b2) for c in range(span))
        for b2 in range(span)
    ]
    return rows, cols, (px, y0, z0, size)


def class_bramble_order(g, part, cert, t):
    """The order of ``cert`` if it is a bramble of g in its class of order
    at least t + 1, proving that class has tw >= t; else None.  A patch is
    checked in grid form; a layout family (2t+1 sets, no vertex in more
    than two) by ``validate_bramble``, and as h vertices hit at most h*p of
    m sets when none lies in more than p, its order is ceil(m/p) or more
    (exact: t+1 vertices hit every set)."""
    if cert.rows is not None:
        pieces = cert.rows + cert.cols
        order = grid_bramble_order(g, cert.rows, cert.cols)
    else:
        pieces = cert.sets
        load = Counter(v for s in pieces for v in s)
        valid = validate_bramble(g, pieces)
        order = -(-len(pieces) // max(load.values())) if valid else None
    if order is None or order <= t or any(
            part.cls(v) != cert.color for s in pieces for v in s):
        return None
    return order


def _verified(g, part, cert, t):
    """``cert`` with the order ``class_bramble_order`` certifies."""
    cert.order = class_bramble_order(g, part, cert, t)
    if cert.order is None:
        raise BuilderInvariantError(
            f"no class-{cert.color} bramble of order {t + 1}"
        )
    return cert


def _patch_staircase(g, part, patch, b, i):
    """The (b, i)-blocked three-vertex staircase through the corner of a
    level-0 monochrome patch."""
    px, py, pz, _ = patch
    conv = _grid.Staircase(((px - 1, py, pz), (px, py, pz), (px + 1, py, pz)))
    if not is_blocked(g, conv, b, i, part):
        raise BuilderInvariantError(
            "staircase through a monochrome slab must be blocked"
        )
    return BlockedStaircase(conv, b, i)


def _find(g, part, t, b, i, origin, size):
    if b == 0:
        return _find_base(g, part, t, i, origin, size)
    n0 = subgrid_size(t, b)
    d = n0 + b
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
            sub = _find(g, part, t, b - 1, 3 - i, pos, n0)
            if isinstance(sub, BlockedStaircase):
                stair[(j, k)] = sub.staircase
            elif sub.patch is not None:
                return _patch_staircase(g, part, sub.patch, b, i)
            else:
                # Any other bramble comes from a deeper assembly, in either
                # color: still a valid global certificate.
                return sub

    col_edges = [
        ((j, k), (j, k + 1)) for j in range(width) for k in range(width - 1)
    ]
    row_edges = [
        ((j, k), (j + 1, k)) for k in range(width) for j in range(width - 1)
    ]
    edges = col_edges + row_edges
    # The candidates are the extended joins, built and tested in turn; a
    # one-cell layout (t = 0) has no joins, and its lone staircase is the
    # candidate.
    joins = {}
    for e in edges or [None]:
        joins[e] = (_grid.join_staircases(g, stair[e[0]], stair[e[1]])
                    if e else stair[(0, 0)])
        extended = joins[e].extended()
        if is_blocked(g, extended, b, i, part):
            return BlockedStaircase(extended, b, i)

    for e1, e2 in itertools.combinations(edges, 2):
        if not set(e1) & set(e2) and _grid.enlargements_meet(
                joins[e1], joins[e2], b):
            raise BuilderInvariantError(
                f"join enlargements of {e1} and {e2} overlap"
            )

    comp = {
        key: blocked_component(g, p, b - 1, 3 - i, part)
        for key, p in stair.items()
    }
    connectors = {}
    for e in edges:
        allowed = {v for v in _grid.enlarge(g, joins[e], b).vertex_set
                   if part.cls(v) == 3 - i}
        path = bfs_path(g, sorted(comp[e[0]]), comp[e[1]], allowed)
        if path is None:
            raise BuilderInvariantError(
                "unblocked extended join without a monochrome connector"
            )
        connectors[e] = path

    # Set j is column j plus row j of the layout: their components, and
    # the connectors of the joins that run along them.
    sets = [
        frozenset().union(
            *(comp[key] for key in comp if j in key),
            *(connectors[e] for e in edges if j in e[0] and j in e[1]),
        )
        for j in range(width)
    ]
    return _verified(g, part, BrambleCertificate(3 - i, sets), t)


def _find_base(g, part, t, i, origin, size):
    x0, y0, z0 = origin
    if size < 3:
        raise BuilderSizeError("level-0 region below the minimal span 3")
    # The x-interior of the region, x outermost.
    for x, y, z in itertools.product(range(x0 + 1, x0 + size - 1),
                                     range(y0, y0 + size),
                                     range(z0, z0 + size)):
        if part.cls((x, y, z)) == i:
            stair = _grid.Staircase(((x - 1, y, z), (x, y, z), (x + 1, y, z)))
            if not is_blocked(g, stair, 0, i, part):
                raise BuilderInvariantError(
                    "three-vertex staircase through a class vertex "
                    "must be blocked at level 0"
                )
            return BlockedStaircase(stair, 0, i)
    rows, cols, patch = _crosses_patch(origin, size, t)
    return _verified(g, part, BrambleCertificate(
        3 - i, patch=patch, rows=rows, cols=cols), t)


def find_blocked_or_bramble(g, part, t, b, i):
    """Either a verified (b,i)-blocked staircase or a verified bramble.

    Raises BuilderSizeError when the grid cannot hold the level-b layout
    (``required_grid_size``).  The guaranteed side is ``grid_side(t, b)``;
    whether to run below that is the caller's decision.
    """
    if i not in (1, 2):
        raise ValueError("color index must be 1 or 2")
    return _find(g, part, t, b, i, (0, 0, 0), g.n)

