import hashlib
import itertools
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gridtw.bramble_builder import BrambleCertificate, class_bramble_order
from gridtw.decomposition import (
    SizeGuardError,
    GUARD,
    _bb_order,
    _elimination_decomposition,
    _graph_masks,
    _minfill_order,
    _minor_min_width,
    TreeDecomposition,
    balanced_separation,
    bramble_order,
    decide_width_at_most,
    decomposition_from_order,
    degree_core,
    exact_treewidth,
    find_cycle,
    grid_bramble_order,
    heuristic_decomposition,
    validate_bramble,
    validate_decomposition,
)
from gridtw.graphs import Graph, induced_subgraph, relabel
from gridtw.grid import build_qn, triangulated_grid
from gridtw.separators import DictPartition

import oracles
from oracles import (
    crosses_bramble,
    plane_grid,
    treewidth_by_permutations,
    treewidth_by_subset_dp,
)


def path_graph(k):
    return Graph(vertices=range(k), edges=[(i, i + 1) for i in range(k - 1)])


def complete_graph(k):
    return Graph(
        vertices=range(k),
        edges=[(i, j) for i in range(k) for j in range(i + 1, k)],
    )


def random_graph(rng, size, p):
    g = Graph(vertices=range(size))
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < p:
                g.add_edge(i, j)
    return g


# Decomposition validation.


def test_validate_single_bag():
    g = complete_graph(4)
    td = TreeDecomposition({0: frozenset(range(4))}, [])
    assert validate_decomposition(g, td)
    assert td.width == 3


def test_validate_sliding_path_bags():
    g = path_graph(5)
    bags = {i: frozenset([i, i + 1]) for i in range(4)}
    td = TreeDecomposition(bags, [(i, i + 1) for i in range(3)])
    assert validate_decomposition(g, td)
    assert td.width == 1


def test_validate_missing_edge_cover():
    g = complete_graph(3)
    bags = {0: frozenset([0, 1]), 1: frozenset([1, 2])}
    td = TreeDecomposition(bags, [(0, 1)])
    assert not validate_decomposition(g, td)  # edge (0,2) uncovered


def test_validate_disconnected_occurrence():
    g = path_graph(3)
    bags = {
        0: frozenset([0, 1]),
        1: frozenset([1, 2]),
        2: frozenset([0, 2]),
    }
    td = TreeDecomposition(bags, [(0, 1), (1, 2)])
    assert not validate_decomposition(g, td)  # vertex 0 occurs at nodes 0, 2


def test_line_format_roundtrip():
    bags = {0: frozenset([0, 1]), 1: frozenset([1, 2]), 2: frozenset()}
    td = TreeDecomposition(bags, [(0, 1), (1, 2)])
    again = TreeDecomposition.from_lines(td.to_lines())
    assert again.width == td.width
    assert sorted(map(sorted, again.bags.values())) == sorted(
        map(sorted, bags.values())
    )


# Exact treewidth.


def test_exact_treewidth_known_values():
    tree = Graph(
        vertices=range(7),
        edges=[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)],
    )
    w, td = exact_treewidth(tree)
    assert w == 1 and validate_decomposition(tree, td)
    w, td = exact_treewidth(complete_graph(4))
    assert w == 3 and validate_decomposition(complete_graph(4), td)
    w, td = exact_treewidth(Graph())
    assert w == -1


@pytest.mark.parametrize("m,expected", [(2, 2), (3, 3), (4, 4)])
def test_exact_treewidth_triangulated_grids(m, expected):
    # Expected values frozen from the subset-DP oracle (and permutations
    # for m <= 3).
    g = triangulated_grid(m)
    w, td = exact_treewidth(g)
    assert validate_decomposition(g, td)
    assert w == expected
    assert treewidth_by_subset_dp(g) == expected
    if m <= 3:
        assert treewidth_by_permutations(g) == expected


def test_exact_treewidth_q2_vs_oracles():
    g = build_qn(2)
    w, td = exact_treewidth(g)
    assert validate_decomposition(g, td)
    assert w == treewidth_by_subset_dp(g) == treewidth_by_permutations(g) == 4


def test_exact_treewidth_random_vs_dp():
    rng = random.Random(7)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(2, 9), rng.uniform(0.2, 0.7))
        w, td = exact_treewidth(g)
        assert validate_decomposition(g, td)
        assert w == treewidth_by_subset_dp(g)


def search_digest():
    """SHA-256 over the solver's output on a fixed graph set.

    Covers the exact decomposition's line format and the capped search's
    (width, order) for caps 1..6, so any change to which ordering the
    branch and bound returns shows up here.
    """
    rng = random.Random(20151221)
    graphs = [
        random_graph(rng, rng.randrange(2, 15), rng.uniform(0.15, 0.8))
        for _ in range(120)
    ]
    graphs += [triangulated_grid(5), plane_grid(4), build_qn(2)]
    h = hashlib.sha256()
    for g in graphs:
        h.update(exact_treewidth(g)[1].to_lines().encode())
        _, adj = _graph_masks(g)
        for k in range(6):
            h.update(repr(_bb_order(adj, cap=k + 1)).encode())
    return h.hexdigest()


GOLDEN_SEARCH_DIGEST = (
    "4ae49125bc901e8535b411257bc29cd870fd3cd8bb79b080a2d9f8927c16fab3"
)


def test_search_golden_digest():
    # Captured from the search before its lower bound was cached and cut
    # short: those changes must leave every returned ordering as it was.
    assert search_digest() == GOLDEN_SEARCH_DIGEST


@pytest.mark.parametrize("g,expected", [
    (triangulated_grid(5), 5),
    (build_qn(3), 9),
    (plane_grid(5), 5),
    (triangulated_grid(6), 6),
], ids=["tri5", "q3", "plane5", "tri6"])
def test_exact_treewidth_large(g, expected):
    w, td = exact_treewidth(g)
    assert w == expected
    assert td.width == expected and validate_decomposition(g, td)


# Treewidth 4.  Vertex 1 is almost simplicial (its neighbours but 8 form a
# clique) and has degree 5, so eliminating it first costs width 5.  The
# search may force such a vertex only when its degree is at most the width
# already paid or the remaining graph's lower bound.
ALMOST_SIMPLICIAL_TRAP = Graph(vertices=range(10), edges=[
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (0, 7), (0, 8), (1, 2), (1, 3),
    (1, 4), (1, 8), (2, 3), (2, 4), (2, 5), (2, 8), (2, 9), (3, 4), (3, 7),
    (3, 8), (4, 5), (4, 7), (5, 7), (6, 9), (8, 9),
])


def test_almost_simplicial_forcing_needs_its_degree_bound():
    g = ALMOST_SIMPLICIAL_TRAP
    assert treewidth_by_subset_dp(g) == 4
    w, td = exact_treewidth(g)
    assert w == 4 and validate_decomposition(g, td)
    ok, td = decide_width_at_most(g, 4)
    assert ok and td.width == 4 and validate_decomposition(g, td)


@st.composite
def small_graphs(draw):
    size = draw(st.integers(1, 11))
    density = draw(st.integers(1, 4))
    pairs = itertools.combinations(range(size), 2)
    edges = [e for e in pairs if draw(st.integers(0, 4)) < density]
    return Graph(vertices=range(size), edges=edges)


@settings(max_examples=200, deadline=None)
@given(small_graphs())
@example(ALMOST_SIMPLICIAL_TRAP)
def test_bb_order_matches_subset_dp(g):
    # Uncapped, the search returns tw and an ordering of that width; capped
    # at k + 1, it returns (k + 1, None) exactly when tw >= k + 1.
    tw = treewidth_by_subset_dp(g)
    _, adj = _graph_masks(g)
    for cap in (None, *range(1, 8)):
        width, order = _bb_order(adj, cap)
        if cap is not None and tw >= cap:
            assert (width, order) == (cap, None)
            continue
        assert width == tw and sorted(order) == g.vertices()
        assert oracles.decomposition_from_order(g, order).width == tw


@st.composite
def masked_graphs(draw):
    size = draw(st.integers(0, 12))
    adj = [0] * size
    for i in range(size):
        for j in range(i + 1, size):
            if draw(st.booleans()):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    alive = draw(st.integers(0, (1 << size) - 1))
    # Restrict to alive, as the solver's eliminated graphs are.
    adj = [a & alive if (alive >> i) & 1 else 0 for i, a in enumerate(adj)]
    return adj, alive


@settings(max_examples=300, deadline=None)
@given(masked_graphs(), st.integers(0, 12))
def test_minor_min_width_early_exit(graph, stop):
    adj, alive = graph
    full = _minor_min_width(adj, alive)
    got = _minor_min_width(adj, alive, stop)
    assert got <= full
    assert (got >= stop) == (full >= stop)
    if got < stop:
        assert got == full


def test_size_guard():
    # GUARD vertices solve; one more is refused before any search.
    assert GUARD == 40
    assert exact_treewidth(path_graph(GUARD))[0] == 1
    ok, td = decide_width_at_most(path_graph(GUARD), 2)
    assert ok and td.width == 1
    for solve in (exact_treewidth, lambda g: decide_width_at_most(g, 2)):
        with pytest.raises(SizeGuardError, match="41 vertices exceeds"):
            solve(path_graph(GUARD + 1))


def test_decomposition_from_order_disconnected():
    g = Graph(vertices=range(4), edges=[(0, 1), (2, 3)])
    td = decomposition_from_order(g, [0, 1, 2, 3])
    assert validate_decomposition(g, td)


@st.composite
def graphs_and_orders(draw):
    size = draw(st.integers(0, 12))
    # Tuple labels, so a mix-up of labels and mask indices cannot pass.
    labels = [(i % 3, i // 3) for i in range(size)]
    pairs = itertools.combinations(labels, 2)
    edges = [e for e in pairs if draw(st.booleans())]
    return Graph(vertices=labels, edges=edges), draw(st.permutations(labels))


@settings(max_examples=300, deadline=None)
@given(graphs_and_orders())
def test_elimination_replay_matches_set_reference(case):
    g, order = case
    got = decomposition_from_order(g, order)
    ref = oracles.decomposition_from_order(g, order)
    assert got.bags == ref.bags
    assert got.to_lines() == ref.to_lines()
    verts, adj = _graph_masks(g)
    width, order = _minfill_order(adj)
    assert (width, order) == oracles.minfill_order(adj)
    ref = oracles.decomposition_from_order(g, [verts[i] for i in order])
    assert heuristic_decomposition(g).to_lines() == ref.to_lines()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 60), st.integers(1, 12), st.integers(0, 2**32))
@example(0, 1, 0)
@example(60, 2, 7)
def test_minfill_heap_matches_linear_scan(size, degree, seed):
    # Sparse to dense random graphs of up to 60 vertices, beyond the reach
    # of the full-rescan oracle: the heap picks the vertex the linear scan
    # picks, so orders and bags agree, and the caller's masks stay as they
    # were.
    rng = random.Random(seed)
    edges = [e for e in itertools.combinations(range(size), 2)
             if rng.random() * size < degree]
    g = Graph(vertices=range(size), edges=edges)
    verts, adj = _graph_masks(g)
    before = list(adj)
    width, order = _minfill_order(adj)
    assert (width, order) == oracles.minfill_order_linear_scan(adj)
    td = _elimination_decomposition(verts, adj, order)
    assert adj == before
    ref = oracles.decomposition_from_order(g, [verts[i] for i in order])
    assert td.to_lines() == ref.to_lines()
    assert heuristic_decomposition(g).to_lines() == ref.to_lines()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 20), st.integers(1, 10), st.integers(1, 12),
       st.integers(0, 2**32))
@example(0, 1, 1, 0)
@example(12, 12, 3, 5)
def test_minfill_stop_returns_the_order_exactly_below_stop(
        size, degree, stop, seed):
    # A stopped run picks what the full run picks, so it returns the full
    # order when the full width stays below stop, and (width >= stop, None)
    # when it does not.
    rng = random.Random(seed)
    edges = [e for e in itertools.combinations(range(size), 2)
             if rng.random() * size < degree]
    _, adj = _graph_masks(Graph(vertices=range(size), edges=edges))
    before = list(adj)
    full = _minfill_order(adj)
    width, order = _minfill_order(adj, stop=stop)
    assert adj == before
    if full[0] < stop:
        assert (width, order) == full
    else:
        assert order is None and stop <= width <= full[0]


def _stopped_run(adj, order, stop):
    # What a run with stop returns, read off the full order: the width at
    # the first elimination that reaches stop, else the full run.
    width = 0
    for v in order:
        width = max(width, adj[v].bit_count())
        if width >= stop:
            return width, None
        adj = oracles._eliminate(adj, v)
    return width, order


def assert_minfill_matches(adj, oracle_orders, stops=None):
    # The counted fills pick what each oracle picks, a run with stop (by
    # default every stop up to one past the width) ends where the full run
    # first reaches it, and the caller's masks stay as they were.
    before = list(adj)
    full = _minfill_order(adj)
    for oracle in oracle_orders:
        assert full == oracle(adj)
    for stop in stops or range(1, full[0] + 2):
        assert _minfill_order(adj, stop=stop) == _stopped_run(
            adj, full[1], stop)
    assert adj == before
    return full


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 60), st.integers(5, 90), st.integers(0, 2**32))
@example(60, 90, 0)
@example(40, 60, 3)
def test_minfill_counts_on_dense_graphs(size, percent, seed):
    # Dense graphs: many fill edges per elimination, each with many common
    # neighbours, so every update rule runs often.
    rng = random.Random(seed)
    _, adj = _graph_masks(random_graph(rng, size, percent / 100))
    assert_minfill_matches(
        adj, (oracles.minfill_order, oracles.minfill_order_linear_scan))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 4]), st.integers(20, 80), st.integers(0, 2**32))
@example(3, 50, 1)
@example(4, 50, 2)
def test_minfill_counts_on_grid_colour_classes(n, percent, seed):
    # Both classes of a random 2-colouring of Q_3 or Q_4, the shape the
    # partition search solves by the hundred.
    rng = random.Random(seed)
    g = build_qn(n)
    ones = {v for v in g.vertices() if rng.random() * 100 < percent}
    for members in (ones, set(g.vertices()) - ones):
        _, adj = _graph_masks(induced_subgraph(g, members))
        assert_minfill_matches(
            adj, (oracles.minfill_order, oracles.minfill_order_linear_scan))


def test_minfill_counts_on_the_n22_plane():
    # The plane separator of Q_22 (484 vertices): min-fill width 34, the
    # size at which the full-rescan oracle is too slow.
    g = build_qn(22)
    plane = [(11, y, z) for y in range(22) for z in range(22)]
    _, adj = _graph_masks(induced_subgraph(g, plane))
    width, _ = assert_minfill_matches(
        adj, (oracles.minfill_order_linear_scan,), (1, 17, 34, 35))
    assert width == 34


# Width decision / refutation.


def assert_core_refutes(g, cert, k):
    # A non-empty set in which each vertex has at least k + 1 neighbours
    # proves tw >= k + 1: an edge for k = 0, a cycle for k = 1.
    kind, core = cert
    inside = set(core)
    assert kind == "core" and core and len(inside) == len(core)
    for v in core:
        assert len(inside.intersection(g.neighbors(v))) >= k + 1


def test_decide_width_structural():
    tri = complete_graph(3)
    ok, cert = decide_width_at_most(tri, 1)
    assert not ok
    assert_core_refutes(tri, cert, 1)
    tree = Graph(vertices=range(5), edges=[(0, 1), (1, 2), (1, 3), (3, 4)])
    ok, td = decide_width_at_most(tree, 1)
    assert ok and validate_decomposition(tree, td) and td.width <= 1
    ok, td = decide_width_at_most(Graph(vertices=range(3)), 0)
    assert ok and td.width <= 0


def test_decide_width_search_matches_exact():
    rng = random.Random(11)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(3, 8), 0.5)
        w, _ = exact_treewidth(g)
        for k in range(max(2, w - 1), w + 2):
            ok, cert = decide_width_at_most(g, k)
            assert ok == (w <= k)
            if ok:
                assert cert.width <= k and validate_decomposition(g, cert)


@st.composite
def forests_and_graphs(draw):
    size = draw(st.integers(0, 11))
    if draw(st.booleans()):
        # A forest: each vertex hangs off an earlier one or starts a tree.
        edges = []
        for v in range(1, size):
            parent = draw(st.integers(-1, v - 1))
            if parent >= 0:
                edges.append((parent, v))
    else:
        pairs = itertools.combinations(range(size), 2)
        edges = [e for e in pairs if draw(st.integers(0, 3)) == 0]
    return Graph(vertices=range(size), edges=edges)


@settings(max_examples=300, deadline=None)
@given(forests_and_graphs(), st.integers(-1, 3))
def test_structural_decision_matches_subset_dp(g, k):
    # A core refutation is sound at any k; the search refutes only from
    # k = 2, when no core does.
    ok, cert = decide_width_at_most(g, k)
    assert ok == (treewidth_by_subset_dp(g) <= k)
    if ok:
        assert validate_decomposition(g, cert) and cert.width <= k
    elif cert[0] == "search":
        assert cert == ("search", k) and k >= 2
        assert not degree_core(g, k + 1)
    else:
        assert_core_refutes(g, cert, k)


@settings(max_examples=200, deadline=None)
@given(forests_and_graphs(), st.integers(0, 4))
def test_degree_core_matches_networkx(g, d):
    ref = nx.Graph(g.edges())
    ref.add_nodes_from(g.vertices())
    assert degree_core(g, d) == sorted(nx.k_core(ref, d))


@settings(max_examples=200, deadline=None)
@given(forests_and_graphs())
def test_find_cycle_matches_networkx(g):
    ref = nx.Graph(g.edges())
    ref.add_nodes_from(g.vertices())
    cyc = find_cycle(g)
    assert (cyc is None) == (not nx.cycle_basis(ref))
    if cyc is not None:
        assert len(set(cyc)) == len(cyc) >= 3
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert g.has_edge(a, b)


def test_find_cycle_none_on_forest():
    tree = Graph(vertices=range(5), edges=[(0, 1), (1, 2), (1, 3), (3, 4)])
    assert find_cycle(tree) is None


# Balanced separation.


def star_decomposition():
    # Star on center c with six leaves; one bag per leaf, bags in a path.
    g = Graph(vertices=["c"] + [f"l{i}" for i in range(1, 7)])
    for i in range(1, 7):
        g.add_edge("c", f"l{i}")
    bags = {i: frozenset(["c", f"l{i + 1}"]) for i in range(6)}
    td = TreeDecomposition(bags, [(i, i + 1) for i in range(5)])
    return g, td


def test_balanced_separation_star_frozen():
    g, td = star_decomposition()
    lam = {v: Fraction(1) for v in g.vertices()}
    sep = balanced_separation(g, td, lam)
    total = Fraction(7)
    mass = sum((lam[v] for v in sep.K - sep.L), Fraction(0))
    assert Fraction(total, 3) <= mass <= Fraction(2) * total / 3
    assert len(sep.cut) <= 2
    assert "c" in sep.cut
    # Frozen hand run: the walk leaves node 0 (far mass 5 > 14/3), stops at
    # node 1, and the grouping takes its far side of mass 4.
    assert mass == 4
    assert sep.cut == {"c", "l2"}


def test_balanced_separation_star_tree_frozen():
    # Same star graph, star-shaped decomposition tree: every far side is a
    # single leaf, so the grouping collects three of them.
    g = Graph(vertices=["c"] + [f"l{i}" for i in range(1, 7)])
    for i in range(1, 7):
        g.add_edge("c", f"l{i}")
    bags = {i: frozenset(["c", f"l{i + 1}"]) for i in range(6)}
    td = TreeDecomposition(bags, [(0, i) for i in range(1, 6)])
    lam = {v: Fraction(1) for v in g.vertices()}
    sep = balanced_separation(g, td, lam)
    assert sep.cut == {"c", "l1"}
    assert sep.K - sep.L == {"l2", "l3", "l4"}


def test_balanced_separation_path_example():
    g = path_graph(12)
    bags = {i: frozenset([i, i + 1]) for i in range(11)}
    td = TreeDecomposition(bags, [(i, i + 1) for i in range(10)])
    lam = {v: Fraction(1) for v in g.vertices()}
    sep = balanced_separation(g, td, lam)
    mass = sum((lam[v] for v in sep.K - sep.L), Fraction(0))
    assert len(sep.cut) <= 2
    assert 4 <= mass <= 8


def test_balanced_separation_rejects_bad_inputs():
    g, td = star_decomposition()
    lam = {v: Fraction(2) for v in g.vertices()}
    with pytest.raises(ValueError):
        balanced_separation(g, td, lam)
    lam = {v: Fraction(0) for v in g.vertices()}
    with pytest.raises(ValueError):
        balanced_separation(g, td, lam)


def test_balanced_separation_random_properties():
    from gridtw.harness import suite_balanced_separation

    result = suite_balanced_separation(samples=800, seed=5)
    assert result["violations"] == 0
    assert result["instances"] == 800


def _random_decomposition(rng, by_order):
    """A random graph on 1..14 vertices, often disconnected, with its
    min-fill decomposition or, when ``by_order``, the decomposition of a
    random elimination order, whose forest is chained at its roots."""
    g = random_graph(rng, rng.randrange(1, 15), rng.uniform(0.05, 0.3))
    if by_order:
        order = g.vertices()
        rng.shuffle(order)
        return g, decomposition_from_order(g, order)
    return g, heuristic_decomposition(g)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_balanced_separation_matches_oracle(seed, by_order):
    # Weights in [-1, 1] with denominators up to 4, raised to 1 in random
    # order until they reach 3t+3.
    rng = random.Random(seed)
    g, td = _random_decomposition(rng, by_order)
    need = 3 * td.width + 3
    assume(g.num_vertices() >= need)
    lam = {}
    for v in g.vertices():
        den = rng.randrange(1, 5)
        lam[v] = Fraction(rng.randrange(-den, den + 1), den)
    boost = g.vertices()
    rng.shuffle(boost)
    for v in boost:
        if sum(lam.values()) >= need:
            break
        lam[v] = Fraction(1)
    got = balanced_separation(g, td, lam)
    ref = oracles.balanced_separation(g, td, lam)
    assert (got.K, got.L) == (ref.K, ref.L)


def test_balanced_separation_far_mass_matches_oracle():
    # Path bags {i, i+1} rooted at node 0 with all mass on vertices 6..11:
    # the walk steps away from the root six times, and at each node past
    # the root it weighs the side towards the root too.
    g = path_graph(12)
    bags = {i: frozenset([i, i + 1]) for i in range(11)}
    td = TreeDecomposition(bags, [(i, i + 1) for i in range(10)])
    lam = {v: Fraction(int(v >= 6)) for v in g.vertices()}
    sep = balanced_separation(g, td, lam)
    ref = oracles.balanced_separation(g, td, lam)
    assert (sep.K, sep.L) == (ref.K, ref.L)
    assert sep.cut == {6, 7}
    assert sep.K - sep.L == {8, 9, 10, 11}


def _drop_vertex(rng, g, bags, edges):
    # An end of an edge from a bag that holds the edge, if any.
    held = [(node, v) for node in sorted(bags) for v in sorted(bags[node])]
    ends = [(node, v) for node, v in held
            if any(bags[node].issuperset(e) for e in g.edges() if v in e)]
    if held:
        node, v = rng.choice(ends or held)
        bags[node].remove(v)


def _stray_vertex(rng, g, bags, edges):
    # Into a bag neither holding v nor next to a node that does, if any.
    v = rng.choice(g.vertices())
    held = {u for u in bags if v in bags[u]}
    near = held | {b for a, b in edges if a in held}
    near |= {a for a, b in edges if b in held}
    far = [u for u in sorted(bags) if u not in near]
    bags[rng.choice(far or sorted(bags))].add(v)


def _outside_vertex(rng, g, bags, edges):
    bags[rng.choice(sorted(bags))].add(-1)


def _close_cycle(rng, g, bags, edges):
    nodes = sorted(bags)
    pairs = [(a, b) for a in nodes for b in nodes if a < b
             and (a, b) not in edges and (b, a) not in edges]
    if pairs:
        edges.append(rng.choice(pairs))
    elif len(nodes) > 1:
        edges.append(edges[0])


def _delete_edge(rng, g, bags, edges):
    if edges:
        edges.pop(rng.randrange(len(edges)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(),
       st.lists(st.sampled_from([_drop_vertex, _stray_vertex,
                                 _outside_vertex, _close_cycle,
                                 _delete_edge]), max_size=2))
def test_validate_decomposition_matches_oracle(seed, by_order, mutations):
    # Up to two mutations: a deleted edge and a closed cycle together keep
    # n - 1 tree edges but may split the tree.
    rng = random.Random(seed)
    g, td = _random_decomposition(rng, by_order)
    bags = {u: set(bag) for u, bag in td.bags.items()}
    edges = list(td.tree_edges)
    for mutate in mutations:
        mutate(rng, g, bags, edges)
    td = TreeDecomposition(bags, edges)
    assert td.is_tree() == oracles.is_tree(td)
    verdict = validate_decomposition(g, td)
    assert verdict == oracles.validate_decomposition(g, td)
    assert verdict or mutations


def test_heuristic_decomposition_validates():
    rng = random.Random(13)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(2, 12), 0.4)
        td = heuristic_decomposition(g)
        assert validate_decomposition(g, td)


# Brambles.


def test_bramble_clique_singletons():
    g = complete_graph(4)
    sets = [frozenset([i]) for i in range(4)]
    assert validate_bramble(g, sets)
    assert bramble_order(sets) == 4


def test_bramble_disconnected_rejected():
    g = Graph(vertices=range(4), edges=[(0, 1), (2, 3)])
    assert not validate_bramble(g, [frozenset([0, 1]), frozenset([2, 3])])


@st.composite
def graphs_and_families(draw):
    """(size, edges, family): a graph on range(size) and a family of at
    most four small sets, whose labels up to size + 1 name vertices the
    graph lacks."""
    size = draw(st.integers(0, 7))
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    top = draw(st.sampled_from((size - 1, size + 1))) if size else 1
    family = draw(st.lists(st.frozensets(st.integers(0, top), max_size=4),
                           max_size=4))
    return size, edges, family


@settings(max_examples=400, deadline=None)
@given(graphs_and_families())
@example((3, [(0, 1), (1, 2)], []))                       # no sets
@example((3, [(0, 1), (1, 2)], [frozenset({0}), frozenset()]))  # empty set
@example((3, [(0, 1), (1, 2)], [frozenset({1, 4})]))      # not a vertex
@example((3, [(0, 1)], [frozenset({0, 2}), frozenset({1})]))  # disconnected
@example((4, [(0, 1), (2, 3)],
          [frozenset({0, 1}), frozenset({2, 3})]))  # disjoint, no edge
@example((3, [(0, 1), (1, 2)], [frozenset({0}), frozenset({1})]))  # an edge
@example((3, [(0, 1), (1, 2)], [frozenset({0, 1}), frozenset({1, 2})]))
def test_validate_bramble_matches_pairwise_unions(case):
    # Two connected sets touch exactly when their union is connected, so
    # the touch test answers as the all-pairs definition does.
    size, edges, family = case
    g = Graph(vertices=range(size), edges=edges)
    assert validate_bramble(g, family) == oracles.validate_bramble_pairs(
        g, family)


def test_bramble_single_set_order():
    assert bramble_order([frozenset([5])]) == 1


@pytest.mark.parametrize("t", [2, 3])
def test_crosses_bramble_order(t):
    g, sets = crosses_bramble(t)
    assert validate_bramble(g, sets)
    assert bramble_order(sets) == t
    w, _ = exact_treewidth(g)
    assert w >= t - 1


def _lines(t):
    """The rows and columns of the t x t grid, in ``crosses_bramble``'s
    order."""
    rows = [frozenset((x, y) for x in range(t)) for y in range(t)]
    cols = [frozenset((x, y) for y in range(t)) for x in range(t)]
    return rows, cols


def _crosses(rows, cols):
    return [r | c for r in rows for c in cols]


@pytest.mark.parametrize("t", range(1, 7))
def test_crosses_bramble_bound_is_exact(t):
    g, sets = crosses_bramble(t)
    rows, cols = _lines(t)
    assert _crosses(rows, cols) == sets
    assert grid_bramble_order(g, rows, cols) == bramble_order(sets) == t


def _grid_family(k, cells, private):
    """Disjoint rows R_a and disjoint columns C_b: cell (a, b) lies in R_a
    and C_b when set in ``cells``, and each row and column gets its
    ``private`` count of its own vertices, plus one."""
    rows = [{100 + 10 * a + j for j in range(private[a] + 1)}
            for a in range(k)]
    cols = [{200 + 10 * b + j for j in range(private[k + b] + 1)}
            for b in range(k)]
    for a, b in cells:
        rows[a].add(a * k + b)
        cols[b].add(a * k + b)
    return [frozenset(r) for r in rows], [frozenset(c) for c in cols]


@st.composite
def grid_families(draw, max_k=4):
    """(k, rows, cols) from ``_grid_family`` with a random shape; the
    missing cells are drawn, so most rows meet most columns."""
    k = draw(st.integers(1, max_k))
    missing = draw(st.sets(st.tuples(st.integers(0, k - 1),
                                     st.integers(0, k - 1))))
    cells = set(itertools.product(range(k), repeat=2)) - missing
    private = draw(st.lists(st.integers(0, 2), min_size=2 * k,
                            max_size=2 * k))
    return (k, *_grid_family(k, cells, private))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bramble_order_lower_bounds(data):
    # The layout family's load bound is never above the exact order, on
    # any family over at most 10 vertices of a clique (where every family
    # is a bramble); certificates hold (x, y, z) vertices.
    family = data.draw(st.lists(st.frozensets(
        st.tuples(st.integers(0, 9), st.just(0), st.just(0)), min_size=1),
        min_size=1, max_size=12))
    g = relabel(complete_graph(10), lambda i: (i, 0, 0))
    one_class = DictPartition({v: 1 for v in g.vertices()})
    cert = BrambleCertificate(1, family)
    assert class_bramble_order(g, one_class, cert, 0) <= bramble_order(family)
    # Exactly k on grids of disjoint rows and disjoint columns.
    k, rows, cols = data.draw(grid_families())
    vertices = frozenset().union(*rows, *cols, {299})
    clique = Graph(vertices=vertices,
                   edges=itertools.combinations(vertices, 2))
    grid = _crosses(rows, cols)
    assert grid_bramble_order(clique, rows, cols) == bramble_order(grid) == k
    # Rows 0 and 1 sharing a vertex: k - 1 vertices hit every set, and
    # the grid form does not credit k.
    if k >= 2:
        shared = [r | {299} if a < 2 else r for a, r in enumerate(rows)]
        assert bramble_order(_crosses(shared, cols)) == k - 1
        assert grid_bramble_order(clique, shared, cols) is None


@settings(max_examples=200, deadline=None)
@given(grid_families(max_k=3), st.data())
def test_grid_form_matches_the_crosses_check(family, data):
    # Rows and columns made connected by a path each, in a graph with
    # random extra edges: the grid form accepts exactly when the crosses
    # are a bramble, and then their order is k.
    k, rows, cols = family
    vertices = sorted(frozenset().union(*rows, *cols))
    edges = [e for line in rows + cols for e in zip(sorted(line),
                                                    sorted(line)[1:])]
    pairs = list(itertools.combinations(vertices, 2))
    edges += data.draw(st.lists(st.sampled_from(pairs), max_size=6))
    g = Graph(vertices=vertices, edges=edges)
    crosses = _crosses(rows, cols)
    valid = validate_bramble(g, crosses)
    assert valid == oracles.validate_bramble_pairs(g, crosses)
    assert grid_bramble_order(g, rows, cols) == (k if valid else None)
    if valid:
        assert bramble_order(crosses) == k


def _mutants(t):
    rows, cols = _lines(t)
    yield "row split in two", [rows[0] - {(1, 0)}] + rows[1:], cols
    yield "rows share a vertex", [rows[0] | {(0, 1)}] + rows[1:], cols
    yield "column misses a row", rows, [
        frozenset((0, y) for y in range(t - 2))] + cols[1:]
    yield "vertex outside", [rows[0] | {(t, 0)}] + rows[1:], cols
    yield "empty row", [frozenset()] + rows[1:], cols
    yield "k rows, k + 1 columns", rows[:-1], cols


@pytest.mark.parametrize("name, rows, cols", _mutants(4),
                         ids=[name for name, _, _ in _mutants(4)])
def test_grid_form_rejects_mutants(name, rows, cols):
    g = plane_grid(4)
    assert grid_bramble_order(g, *_lines(4)) == 4
    assert grid_bramble_order(g, rows, cols) is None


def test_bramble_order_forces_treewidth():
    # Order k bramble forces treewidth >= k - 1, checked jointly.
    for t in (2, 3):
        g, sets = crosses_bramble(t, triangulated=False)
        assert validate_bramble(g, sets)
        order = bramble_order(sets)
        w, _ = exact_treewidth(g)
        assert w >= order - 1
