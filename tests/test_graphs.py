import itertools

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtw.decomposition import TreeDecomposition
from gridtw.graphs import (
    Graph,
    bfs_path,
    connected_components,
    induced_subgraph,
    is_connected,
)
from gridtw.grid import GridGraph, build_qn

from oracles import grid_induced_by_steps

Q3 = build_qn(3)


@st.composite
def hosts_and_keeps(draw):
    size = draw(st.integers(0, 12))
    pairs = itertools.combinations(range(size), 2)
    edges = [e for e in pairs if draw(st.booleans())]
    keep = draw(st.sets(st.integers(0, size - 1))) if size else set()
    return Graph(vertices=range(size), edges=edges), keep


def _edge_set(edges):
    return {tuple(sorted(e)) for e in edges}


@st.composite
def component_queries(draw):
    """(graph, its edges, its size, within): a graph on range(size), size
    at most 14, or a forest on range(size) as a ``TreeDecomposition``,
    whose nodes are its vertices; ``within`` is a subset, possibly empty,
    or for a ``Graph`` also None."""
    size = draw(st.integers(0, 14))
    subsets = st.sets(st.integers(0, size - 1)) if size else st.just(set())
    if draw(st.booleans()):
        parents = [draw(st.integers(-1, i - 1)) for i in range(size)]
        edges = [(p, i) for i, p in enumerate(parents) if p >= 0]
        graph = TreeDecomposition({i: {i} for i in range(size)}, edges)
        return graph, edges, size, draw(subsets)
    pairs = itertools.combinations(range(size), 2)
    edges = [e for e in pairs if draw(st.booleans())]
    graph = Graph(vertices=range(size), edges=edges)
    return graph, edges, size, draw(st.none() | subsets)


@settings(max_examples=400, deadline=None)
@given(component_queries())
def test_components_match_networkx(query):
    graph, edges, size, within = query
    ref = nx.Graph()
    ref.add_nodes_from(range(size))
    ref.add_edges_from(edges)
    if within is not None:
        ref = ref.subgraph(within)
    # Components come ordered by their least vertex, each one sorted.
    want = sorted(sorted(c) for c in nx.connected_components(ref))
    assert connected_components(graph, within) == want
    assert is_connected(graph, within) == (len(want) <= 1)


@settings(max_examples=300, deadline=None)
@given(hosts_and_keeps())
def test_induced_subgraph_matches_networkx(case):
    host, keep = case
    ref = nx.Graph()
    ref.add_nodes_from(host.vertices())
    ref.add_edges_from(host.edges())
    want = ref.subgraph(keep)
    got = induced_subgraph(host, keep)
    assert got.vertices() == sorted(want.nodes)
    assert _edge_set(got.edges()) == _edge_set(want.edges)
    assert all(got.neighbors(v) == sorted(want.adj[v]) for v in keep)


@settings(max_examples=200, deadline=None)
@given(st.sets(st.sampled_from(Q3.vertices())))
def test_induced_subgraph_matches_grid_induced(keep):
    got = induced_subgraph(Q3, keep)
    want = grid_induced_by_steps(3, keep)
    assert got.vertices() == sorted(want.vertices())
    assert _edge_set(got.edges()) == _edge_set(want.edges())
    assert all(got.neighbors(v) == want.neighbors(v) for v in keep)


def test_grid_induced_is_induced_subgraph():
    # One builder: the full grid's ``induced`` is the generic function.
    assert GridGraph.induced is induced_subgraph


def test_add_edge_keeps_sorted_lists_without_repeats():
    g = Graph(vertices=[3], edges=[(2, 1), (1, 2), (1, 0), (3, 1), (0, 1)])
    assert g.neighbors(1) == [0, 2, 3]
    assert g.num_edges() == 3 and g.edges() == [(0, 1), (1, 2), (1, 3)]
    g.neighbors(1).append(9)  # a copy: the graph is unchanged
    assert g.neighbors(1) == [0, 2, 3]


def test_induced_subgraph_shares_its_vertex_objects():
    # Neighbour lists hold the kept tuples, not copies built by the host.
    keep = [(x, y, 1) for x in range(3) for y in range(3)]
    h = induced_subgraph(Q3, keep)
    own = {v: v for v in keep}
    for v in h.vertices():
        assert v is own[v]
        assert all(w is own[w] for w in h.neighbors(v))


@st.composite
def path_queries(draw):
    host, _ = draw(hosts_and_keeps())
    # Labels up to size + 1 name vertices the host lacks.
    labels = st.integers(0, host.num_vertices() + 1)
    allowed = draw(st.sets(labels))
    return host, draw(st.lists(labels)), draw(st.sets(labels)), allowed


@settings(max_examples=500, deadline=None)
@given(path_queries())
def test_bfs_path_is_a_shortest_allowed_path(query):
    host, sources, sinks, allowed = query
    ref = nx.Graph()
    ref.add_nodes_from(host.vertices())
    ref.add_edges_from(host.edges())
    ref = ref.subgraph(allowed)
    starts = set(sources) & set(ref.nodes)
    dist = nx.multi_source_dijkstra_path_length(ref, starts) if starts else {}
    best = min((dist[v] for v in sinks if v in dist), default=None)
    path = bfs_path(host, sources, sinks, allowed=allowed)
    if best is None:
        assert path is None
        return
    assert len(path) - 1 == best
    assert path[0] in starts and path[-1] in sinks
    assert all(ref.has_edge(a, b) for a, b in zip(path, path[1:]))
