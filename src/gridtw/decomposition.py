"""Tree decompositions, exact treewidth, balanced separations, brambles.

The exact solver is a branch-and-bound over elimination orderings on
bitmask adjacency (min-fill upper bound, minor-min-width lower bound,
memoized states).  The graph left after eliminating a vertex set does not
depend on the order, so the memo is keyed by the set of remaining vertices
and also caches which sets their lower bound pruned; a bound stops
contracting as soon as it reaches the incumbent width, which is all the
pruning test needs.  A node does not branch when it can force a vertex
(Bodlaender, Koster & van den Eijkhof, Comput. Intell. 21, 2005): a
simplicial one, or an almost simplicial one (all neighbours but one form a
clique) whose degree is at most the larger of the width already paid and
the remaining graph's lower bound.  Eliminating an almost simplicial vertex
leaves the graph that contracting it into its one other neighbour leaves,
a minor of the remaining graph, whose treewidth is no larger.

The weighted balanced-separation routine follows its correctness argument
literally: locate a node all of whose neighbor-subtree masses are at most
two thirds of the total via the pointer walk, then group the sorted masses
greedily.  Each side of a tree edge is read off the subtree bag unions of
one rooted pass.  Weight arithmetic is exact (Fractions); every step the
argument takes for granted is asserted at runtime.
"""

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations
from math import lcm

from .graphs import is_connected


GUARD = 40  # the exact solver's vertex limit


class SizeGuardError(RuntimeError):
    """Raised when the exact solver is asked to exceed GUARD vertices."""


def check_guard(count):
    """Refuse a graph of ``count`` vertices if it is over GUARD."""
    if count > GUARD:
        raise SizeGuardError(
            f"{count} vertices exceeds exact-solver guard {GUARD}"
        )


class TreeDecomposition:
    """Tree plus bag map; width is the largest bag size minus one."""

    def __init__(self, bags, tree_edges):
        self.bags = {node: frozenset(bag) for node, bag in bags.items()}
        self.tree_edges = [tuple(e) for e in tree_edges]
        self._nbrs = {node: [] for node in self.bags}
        for a, b in self.tree_edges:
            if a not in self.bags or b not in self.bags:
                raise ValueError(f"tree edge {(a, b)} references unknown node")
            self._nbrs[a].append(b)
            self._nbrs[b].append(a)

    @property
    def nodes(self):
        return sorted(self.bags)

    def neighbors(self, node):
        return list(self._nbrs[node])

    @property
    def width(self):
        if not self.bags:
            return -1
        return max(len(b) for b in self.bags.values()) - 1

    def is_tree(self):
        return (len(self.tree_edges) == max(len(self.bags) - 1, 0)
                and is_connected(self, within=self.bags))

    def to_lines(self):
        """Line format: header "nodes width", bags, then tree edges."""
        nodes = self.nodes
        index = {node: i for i, node in enumerate(nodes)}
        out = [f"{len(nodes)} {self.width}"]
        for node in nodes:
            out.append(" ".join(str(v) for v in sorted(self.bags[node])))
        for a, b in self.tree_edges:
            out.append(f"{index[a]} {index[b]}")
        return "\n".join(out) + "\n"

    @classmethod
    def from_lines(cls, text):
        lines = text.splitlines()
        if not lines:
            raise ValueError("empty decomposition text")
        count, width = (int(tok) for tok in lines[0].split())
        bags = {}
        for i in range(count):
            row = lines[1 + i].split()
            bags[i] = frozenset(int(tok) for tok in row)
        edges = []
        for line in lines[1 + count:]:
            if line.strip():
                a, b = (int(tok) for tok in line.split())
                edges.append((a, b))
        td = cls(bags, edges)
        if td.width != width:
            raise ValueError("header width disagrees with bags")
        return td


def validate_decomposition(graph, td):
    """A tree and all three axioms: vertex cover, edge cover, connected
    occurrences, read off one map from each vertex to its nodes.  The tree
    is a graph to the graph layer, so ``is_connected`` checks both."""
    if not td.is_tree():
        return False
    occ = {}
    for node, bag in td.bags.items():
        for v in bag:
            occ.setdefault(v, set()).add(node)
    return (
        occ.keys() == set(graph.vertices())
        and all(occ[u] & occ[v] for u, v in graph.edges())
        and all(is_connected(td, within=nodes) for nodes in occ.values())
    )


# Bitmask elimination-ordering machinery.


def _bit_iter(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _eliminate(adj, v):
    # In place.  Adjacency is symmetric, so only v's neighbors carry v's bit.
    nb = adj[v]
    adj[v] = 0
    m = nb
    while m:
        low = m & -m
        m ^= low
        u = low.bit_length() - 1
        adj[u] = (adj[u] | nb) & ~(1 << u) & ~(1 << v)


def _minfill_order(adj, stop=None):
    """Min-fill ordering: always the lowest-index vertex of least fill.

    A fill (missing pairs among the neighbours) is counted once, then kept
    up to date.  Eliminating v first takes from each u in N(v) its missing
    pairs {v, x}, x in N(u) - N(v).  Each fill edge (a, b) of N(v) is then
    added in turn (``fill`` counts those left): each common neighbour of a
    and b loses the pair {a, b}, and a gains a pair per neighbour of a not
    adjacent to b, as b does.  Each vertex so touched pushes (fill, index),
    so every live vertex keeps an entry that reads its current fill; popped
    entries that do not are skipped (an eliminated vertex's fill reads -1),
    and the first that does is the lowest-index vertex of least fill.
    ``adj`` is left untouched.  With ``stop`` (at least 1) the elimination
    ends once the width reaches it, returning (width, None); a full order
    comes back exactly when the full width is below ``stop``.
    """
    adj = list(adj)
    fills = []
    for nb in adj:
        missing = 0
        m = nb
        while m:
            wbit = m & -m
            m ^= wbit
            missing += (nb & ~adj[wbit.bit_length() - 1] & ~wbit).bit_count()
        fills.append(missing // 2)
    heap = sorted(zip(fills, range(len(adj))))
    width, order = 0, []
    for _ in range(len(adj)):
        fill, v = heappop(heap)
        while fills[v] != fill:
            fill, v = heappop(heap)
        fills[v] = -1
        nb = adj[v]
        width = max(width, nb.bit_count())
        if stop is not None and width >= stop:
            return width, None
        order.append(v)
        adj[v] = 0
        touched = nb
        m = nb
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            adj[u] ^= 1 << v
            fills[u] -= (adj[u] & ~nb).bit_count()
        m = nb
        while fill and m:
            abit = m & -m
            m ^= abit
            a = abit.bit_length() - 1
            for b in _bit_iter(m & ~adj[a]):
                na, nbb = adj[a], adj[b]
                touched |= na & nbb
                for c in _bit_iter(na & nbb):
                    fills[c] -= 1
                fills[a] += (na & ~nbb).bit_count()
                fills[b] += (nbb & ~na).bit_count()
                adj[a] = na | 1 << b
                adj[b] = nbb | abit
                fill -= 1
        while touched:
            low = touched & -touched
            touched ^= low
            u = low.bit_length() - 1
            heappush(heap, (fills[u], u))
    return width, order


def _minor_min_width(adj, alive, stop=None):
    """Minor-min-width lower bound of the graph induced on ``alive``.

    ``adj`` restricted to ``alive`` must be symmetric and carry no bits
    outside ``alive``.  With ``stop`` the contraction ends as soon as the
    bound reaches it: the result is then >= stop (and at most the full
    value); a result below ``stop`` is the full value.
    """
    adj = list(adj)
    # Degrees indexed by vertex, kept up to date; a vertex out of the graph
    # reads n, above every degree, so the first minimum of degs is the
    # lowest-index min-degree vertex.
    n = len(adj)
    degs = [n] * n
    for u in _bit_iter(alive):
        degs[u] = adj[u].bit_count()
    best = 0
    for _ in range(alive.bit_count()):
        dv = min(degs)
        v = degs.index(dv)
        if dv > best:
            best = dv
            if stop is not None and best >= stop:
                return best
        degs[v] = n
        nb = adj[v]
        if nb == 0:
            continue
        # Contract v into the neighbor sharing the fewest other neighbors.
        # (Bit loops are inlined: this is the solver's innermost loop.)
        w, common = -1, None
        m = nb
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            c = (adj[u] & nb).bit_count()
            if common is None or c < common:
                w, common = u, c
        keep = ~(1 << v)
        wbit = 1 << w
        merged = nb & ~wbit | adj[w] & keep
        adj[w] = merged
        degs[w] = merged.bit_count()
        m = merged
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            adj[u] = (adj[u] | wbit) & keep
            degs[u] = adj[u].bit_count()
    return best


def _is_clique(adj, mask):
    for v in _bit_iter(mask):
        if mask & ~adj[v] & ~(1 << v):
            return False
    return True


def _is_almost_clique(adj, mask):
    """All of ``mask`` but at most one vertex is a clique.  That vertex is
    an end of any missing edge, so two clique tests settle it."""
    for v in _bit_iter(mask):
        missing = mask & ~adj[v] & ~(1 << v)
        if missing:
            return (_is_clique(adj, mask & ~(1 << v))
                    or _is_clique(adj, mask & ~(missing & -missing)))
    return True


def _bb_order(adj, cap=None):
    """Best elimination ordering by branch and bound.

    Returns (width, order); when ``cap`` is given, only solutions of width
    strictly below cap are sought and (cap, None) means none exists.

    A node with width g paid and remaining graph H can reach at best
    max(g, tw(H)).  A simplicial vertex is eliminated first without
    branching, and so is an almost simplicial one v (all neighbours but one
    form a clique) with deg(v) <= max(g, lb), where lb <= tw(H) is H's
    minor-min-width.  Eliminating v leaves the graph that contracting v
    into its one other neighbour leaves, a minor of H, so the rest costs at
    most tw(H).
    """
    n = len(adj)
    if n == 0:
        return -1, []
    full = (1 << n) - 1
    ub, ub_order = _minfill_order(adj)
    root_lb = _minor_min_width(adj, full)
    if cap is not None and ub >= cap:
        ub, ub_order = cap, None
    best = [ub, ub_order]
    if root_lb >= best[0]:
        return best[0], best[1]
    # Least width at which each remaining set was entered; -1 marks a set
    # whose lower bound pruned it.  The graph left after eliminating a set
    # does not depend on the order, so neither does its bound, and best[0]
    # only decreases: a set pruned by its bound stays pruned.
    seen = {}

    def dfs(adj_cur, remaining, g, lb, order):
        if remaining == 0:
            if g < best[0]:
                best[0], best[1] = g, list(order)
            return
        prev = seen.get(remaining)
        if prev is not None and prev <= g:
            return
        seen[remaining] = g
        forced = None
        cands = []
        for v in _bit_iter(remaining):
            nb = adj_cur[v]
            if _is_clique(adj_cur, nb):
                forced = v
                break
            cands.append((nb.bit_count(), v))
        if forced is None:
            limit = max(g, lb)
            for deg, v in cands:
                if deg <= limit and _is_almost_clique(adj_cur, adj_cur[v]):
                    forced = v
                    break
        if forced is not None:
            cands = [(adj_cur[forced].bit_count(), forced)]
        else:
            cands.sort()
        for deg, v in cands:
            g1 = max(g, deg)
            if g1 >= best[0]:
                continue
            rem = remaining & ~(1 << v)
            # A child already reached at width <= g1 would return at once.
            prev = seen.get(rem)
            if prev is not None and prev <= g1:
                continue
            adj_next = list(adj_cur)
            _eliminate(adj_next, v)
            # The bound may stop early at best[0]; it is then still >= it,
            # and below it the bound is the child's full minor-min-width.
            child_lb = _minor_min_width(adj_next, rem, best[0])
            if child_lb >= best[0]:
                seen[rem] = -1
                continue
            order.append(v)
            dfs(adj_next, rem, g1, child_lb, order)
            order.pop()

    dfs(list(adj), full, 0, root_lb, [])
    return best[0], best[1]


def _graph_masks(graph):
    verts = graph.vertices()
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for u, v in graph.edges():
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    return verts, adj


def _elimination_decomposition(verts, adj, order):
    """Replay an elimination ordering (indices into ``verts``) on masks.

    Each bag is a vertex with its neighbours when it is eliminated; it hangs
    off the bag of the earliest-eliminated of those neighbours, and the
    roots of the resulting forest are chained in order.
    """
    if not order:
        return TreeDecomposition({0: frozenset()}, [])
    adj = list(adj)
    pos = {v: i for i, v in enumerate(order)}
    bags = {}
    edges = []
    roots = []
    for i, v in enumerate(order):
        nb = adj[v]
        bags[i] = frozenset(verts[u] for u in _bit_iter(nb | 1 << v))
        if nb:
            edges.append((i, min(pos[u] for u in _bit_iter(nb))))
        else:
            roots.append(i)
        _eliminate(adj, v)
    edges.extend(zip(roots, roots[1:]))
    return TreeDecomposition(bags, edges)


def _elimination_width(adj, order):
    """Width of the decomposition that replaying ``order`` on ``adj``
    builds: the largest neighbourhood met at elimination, -1 for the empty
    order."""
    adj = list(adj)
    width = -1
    for v in order:
        width = max(width, adj[v].bit_count())
        _eliminate(adj, v)
    return width


def _mask_width(adj):
    """(width, exact) of the graph with masks ``adj``: within GUARD, the
    branch and bound's width, checked by replaying its order, and True;
    over it, the min-fill width, an upper bound, and False."""
    if len(adj) > GUARD:
        return _minfill_order(adj)[0], False
    width, order = _bb_order(adj)
    assert _elimination_width(adj, order) == width
    return width, True


def heuristic_decomposition(graph):
    """Min-fill elimination decomposition; valid, not necessarily optimal."""
    verts, adj = _graph_masks(graph)
    _, order = _minfill_order(adj)
    return _elimination_decomposition(verts, adj, order)


def exact_treewidth(graph):
    """Exact treewidth with a validating witness decomposition."""
    check_guard(graph.num_vertices())
    verts, adj = _graph_masks(graph)
    width, order = _bb_order(adj)
    td = _elimination_decomposition(verts, adj, order)
    assert td.width == width
    return width, td


def treewidth_if_bounds_meet(graph):
    """tw(G) when the min-fill width meets the minor-min-width bound, else None.

    No search runs: one min-fill ordering and one contraction pass, and
    none at all on a graph over GUARD vertices, which gets None.
    """
    if graph.num_vertices() > GUARD:
        return None
    _, adj = _graph_masks(graph)
    if not adj:
        return -1
    upper, _ = _minfill_order(adj)
    lower = _minor_min_width(adj, (1 << len(adj)) - 1)
    return upper if lower == upper else None


def degree_core(graph, d):
    """The d-core: the largest vertex set in which every vertex has at least
    d neighbours inside it, in graph order; empty when there is none.

    Linear peeling (Batagelj & Zaversnik): a vertex with fewer than d
    remaining neighbours is dropped, which may drop its neighbours in turn.
    A non-empty d-core proves tw >= d, as tree-width is at least the
    minimum degree of any subgraph.
    """
    verts = graph.vertices()
    degree = {v: len(graph.neighbors(v)) for v in verts}
    dropped = {v for v in verts if degree[v] < d}
    stack = list(dropped)
    while stack:
        for w in graph.neighbors(stack.pop()):
            degree[w] -= 1
            if degree[w] < d and w not in dropped:
                dropped.add(w)
                stack.append(w)
    return [v for v in verts if v not in dropped]


def is_core(graph, core, members, t):
    """``core`` is a non-empty subset of ``members`` in which every vertex
    has at least t neighbours inside it, so ``members`` induce tw >= t."""
    inside = set(core)
    return bool(inside) and inside <= members and all(
        len(inside.intersection(graph.neighbors(v))) >= t for v in inside
    )


def find_cycle(graph):
    """Some cycle as a vertex list, or None if the graph is a forest.

    Consecutive list entries are edges and so is (last, first).  Every
    vertex of the 2-core has two neighbours in it, so a walk there that
    never steps straight back goes on until it closes a cycle of at least
    three vertices.
    """
    core = degree_core(graph, 2)
    if not core:
        return None
    inside = set(core)
    pos = {}
    prev, u = None, core[0]
    while u not in pos:
        pos[u] = len(pos)
        step = next(w for w in graph.neighbors(u) if w in inside and w != prev)
        prev, u = u, step
    return list(pos)[pos[u]:]


def decide_width_at_most(graph, k):
    """Decide tw(G) <= k exactly.

    Returns (True, decomposition) or (False, certificate).  A non-empty
    (k+1)-core S refutes at any size with ("core", S).  Without one, a
    graph is empty, edgeless or a forest for k <= 1, where min-fill only
    eliminates isolated vertices and leaves (fill 0), so every bag has at
    most k + 1 vertices; beyond that the branch-and-bound runs with a cap
    on graphs of at most GUARD vertices.
    """
    core = degree_core(graph, k + 1)
    if core:
        return False, ("core", core)
    if k <= 1:
        return True, heuristic_decomposition(graph)
    check_guard(graph.num_vertices())
    verts, adj = _graph_masks(graph)
    _, order = _bb_order(adj, cap=k + 1)
    if order is None:
        return False, ("search", k)
    return True, _elimination_decomposition(verts, adj, order)


# Weighted balanced separation.


@dataclass(frozen=True)
class Separation:
    """Vertex cover pair with no edge between the private parts."""

    K: frozenset
    L: frozenset

    @property
    def cut(self):
        return self.K & self.L


def _as_fraction(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def balanced_separation(graph, td, lam):
    """Separation with middle-third outer mass and a small cut.

    Requires |lam(v)| <= 1 for all v and lam(V) >= 3w+3 where w is the
    decomposition's width.  The cut is the chosen node's bag, so its size is
    at most w+1; the mass of K minus L lands in [1/3, 2/3] of the total.
    Comparisons against the thirds are exact: weights are rescaled to a
    common integer denominator and cross-multiplied.
    """
    if not validate_decomposition(graph, td):
        raise ValueError("invalid tree decomposition for this graph")
    verts = list(graph.vertices())
    fracs = {v: _as_fraction(lam[v]) for v in verts}
    for w in fracs.values():
        if abs(w) > 1:
            raise ValueError(f"|weight| > 1 at weight {w}")
    scale = lcm(*(w.denominator for w in fracs.values()))
    scaled = {v: int(w * scale) for v, w in fracs.items()}
    total = sum(scaled.values())
    t = td.width
    if total < (3 * t + 3) * scale:
        raise ValueError("total weight below 3t+3")

    nodes = td.nodes
    # Root the tree at nodes[0]; below[u] is the bag union of u's subtree,
    # built bottom-up over the reversed BFS order.
    parent = {nodes[0]: None}
    rooted = [nodes[0]]
    for u in rooted:
        for v in td.neighbors(u):
            if v not in parent:
                parent[v] = u
                rooted.append(v)
    below = {u: set(td.bags[u]) for u in rooted}
    for u in reversed(rooted[1:]):
        below[parent[u]] |= below[u]
    everything = set(verts)

    def side_set(u, v):
        # The vertices beyond tree edge u-v, less bag(u).  A vertex seen on
        # both sides of the edge lies in bag(u), because its occurrences are
        # connected (validated above); so beyond the parent lies exactly
        # what u's subtree misses.
        if parent[v] == u:
            return below[v] - td.bags[u]
        return everything - below[u]

    def side_mass(u, v):
        return sum(scaled[w] for w in side_set(u, v))

    u = nodes[0]
    visited_steps = 0
    while True:
        heavy = None
        for v in td.neighbors(u):
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

    neighbors = td.neighbors(u)
    sides = [side_set(u, v) for v in neighbors]
    masses = [side_mass(u, v) for v in neighbors]
    # The neighbor subtrees must partition everything outside the bag.
    seen = set()
    for s in sides:
        assert not (seen & s), "neighbor subtree sets overlap"
        seen |= s
    assert seen == everything - td.bags[u], "subtree sets do not cover V minus bag"

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

    k_only, l_only = sep.K - sep.L, sep.L - sep.K
    mass = sum(scaled[v] for v in k_only)
    assert total <= 3 * mass <= 2 * total, "outer mass left the middle third"
    assert len(sep.cut) <= t + 1
    assert sep.K | sep.L == everything
    for a, b in graph.edges():
        assert not ((a in k_only and b in l_only)
                    or (a in l_only and b in k_only)), (
            "edge crosses the separation"
        )
    return sep


# Brambles.


def _pieces(graph, sets):
    """Frozen ``sets`` if some, each a non-empty connected set of vertices."""
    sets = [frozenset(s) for s in sets]
    ok = sets and all(graph.has_vertex(v) for s in sets for v in s)
    return sets if ok and all(sets) and all(
        is_connected(graph, within=s) for s in sets) else None


def _touch(graph, a, b):
    """a and b meet, or an edge joins them (read from a's neighbours)."""
    return not a.isdisjoint(b) or any(
        not b.isdisjoint(graph.neighbors(v)) for v in a)


def validate_bramble(graph, sets):
    """Non-empty connected vertex sets of ``graph``, every two of which
    touch: they meet, or an edge joins them.

    That is the definition by pairwise unions (Seymour & Thomas, JCTB 58,
    1993): two connected sets induce a connected union exactly when they
    touch.
    """
    sets = _pieces(graph, sets)
    return sets is not None and all(
        _touch(graph, a, b) for a, b in combinations(sets, 2))


def grid_bramble_order(graph, rows, cols):
    """The order k of the crosses R_a | C_b of k rows and k columns: None
    unless both are k non-empty, pairwise disjoint, connected sets of
    ``graph`` vertices and every row touches every column.

    Then each cross is connected, and R_a | C_b touches R_c | C_d since R_a
    touches C_d.  Fewer than k vertices miss some row and some column (each
    lies in at most one of either), hence their cross, and one vertex on
    each row hits every cross: the order is exactly k.  That takes k*k
    touch tests, where the crosses as a family take k**4 / 2.
    """
    rows, cols = _pieces(graph, rows), _pieces(graph, cols)
    if (rows is None or cols is None or len(rows) != len(cols) or any(
            sum(map(len, s)) != len(frozenset().union(*s))
            for s in (rows, cols))):
        return None
    touch = all(_touch(graph, r, c) for r in rows for c in cols)
    return len(rows) if touch else None


def bramble_order(sets):
    """Exact minimum hitting set size over a family of at most 64 sets."""
    family = [frozenset(s) for s in sets]
    if any(not s for s in family):
        raise ValueError("bramble sets must be non-empty")
    if len(family) > 64:
        raise SizeGuardError(f"{len(family)} sets exceeds guard 64")
    # Drop supersets: hitting a subset hits the superset too.
    family.sort(key=len)
    core = []
    for s in family:
        if not any(c <= s for c in core):
            core.append(s)

    def packing_bound(unhit):
        used = set()
        count = 0
        for s in sorted(unhit, key=len):
            if not (s & used):
                used |= s
                count += 1
        return count

    best = len(core)  # one vertex per minimal set hits every set

    def search(unhit, picked):
        nonlocal best
        if not unhit:
            best = min(best, picked)
            return
        if picked + packing_bound(unhit) >= best:
            return
        target = min(unhit, key=len)
        for v in sorted(target):
            search([s for s in unhit if v not in s], picked + 1)

    search(core, 0)
    return best

