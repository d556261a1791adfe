import itertools
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from gridtw.graphs import induced_subgraph
from gridtw.grid import (
    Staircase,
    anchor,
    b_square,
    build_qn,
    coords_adjacent,
    enlarge,
    enlargements_meet,
    grid_from_json,
    join_staircases,
    subgrid,
    triangulated_grid,
)
from gridtw.harness import random_staircase

from oracles import (
    brute_force_qn_edges,
    clipped_square_error,
    coords_adjacent_generator,
    grid_has_vertex,
    grid_induced_by_steps,
    grid_neighbors,
    plane_grid,
    project,
    qn_edge_count_closed_form,
)


def test_single_vertex_grid():
    g = build_qn(1)
    assert g.num_vertices() == 1
    assert g.num_edges() == 0


def test_zero_side_rejected():
    with pytest.raises(ValueError):
        build_qn(0)


@pytest.mark.parametrize("n,expected", [(2, 19), (3, 98)])
def test_edge_counts_frozen(n, expected):
    # Frozen from the brute-force pair enumeration; the closed form agrees.
    g = build_qn(n)
    assert g.num_edges() == expected
    assert len(brute_force_qn_edges(n)) == expected
    assert qn_edge_count_closed_form(n) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_adjacency_matches_brute_force(n):
    # Each edge once, smaller end first.
    edges = build_qn(n).edges()
    assert all(u < w for u, w in edges)
    assert len(edges) == len(brute_force_qn_edges(n))
    assert set(edges) == brute_force_qn_edges(n)


def _vertex_probes(n):
    return [
        (), (0,), (0, 0), (0, 0, 0, 0), [0, 0, 0],
        (0.0, 0, 0), (0, 1.5, 0), "abc", ("0", 0, 0), (0, 0, "a"),
        (True, False, True), (False, 0, True),
        (-1, 0, 0), (0, -1, 0), (0, 0, -1),
        (n - 1, n - 1, n - 1), (0, n - 1, 0),
        (n, 0, 0), (0, n, 0), (0, 0, n), (n, n, n),
    ]


@pytest.mark.parametrize("n", [1, 3])
def test_has_vertex_matches_generator_predicate(n):
    g = build_qn(n)
    probes = _vertex_probes(n)
    for v in probes:
        assert g.has_vertex(v) is grid_has_vertex(n, v), v
    assert sum(map(g.has_vertex, probes)) == 3


@pytest.mark.parametrize("n", [1, 3])
def test_neighbors_rejects_exactly_the_non_vertices(n):
    g = build_qn(n)
    for v in _vertex_probes(n):
        if g.has_vertex(v):
            assert g.neighbors(v) == grid_neighbors(n, v), v
        else:
            with pytest.raises(KeyError):
                g.neighbors(v)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_neighbors_match_bounds_checked_steps(n):
    # Same list, order included: harness._random_path draws over it.
    g = build_qn(n)
    for v in g.vertices():
        assert g.neighbors(v) == grid_neighbors(n, v), v


@pytest.mark.parametrize("n", [1, 3])
def test_has_edge_matches_membership_and_rule_on_every_probe_pair(n):
    # has_edge is has_vertex on both ends and the step-table rule: on every
    # probe pair it gives the oracle's answer.
    g = build_qn(n)
    probes = _vertex_probes(n)
    for u in probes:
        for v in probes:
            want = (grid_has_vertex(n, u) and grid_has_vertex(n, v)
                    and coords_adjacent_generator(u, v))
            assert g.has_edge(u, v) is want, (u, v)


def test_coords_adjacent_matches_generator_rule():
    for u in [(0, 0, 0), (3, 1, 2)]:
        for d in itertools.product(range(-2, 3), repeat=3):
            v = (u[0] + d[0], u[1] + d[1], u[2] + d[2])
            assert coords_adjacent(u, v) is coords_adjacent_generator(u, v)


def test_adjacency_symmetric_and_degree_bounds():
    g = build_qn(4)
    for v in g.vertices():
        nbrs = g.neighbors(v)
        assert len(nbrs) <= 14
        forward = [w for w in nbrs if w > v]
        assert len(forward) <= 7
        for w in nbrs:
            assert coords_adjacent(w, v)
            assert v in g.neighbors(w)


def test_subgrid_identity():
    g = build_qn(3)
    s = subgrid(g, (0, 0, 0), 3)
    assert set(s.vertices()) == set(g.vertices())
    assert s.num_edges() == g.num_edges()


def test_subgrid_isomorphic_to_q2():
    g = build_qn(3)
    s = subgrid(g, (1, 1, 1), 2)
    assert s.num_vertices() == 8
    assert s.num_edges() == 19
    # The translation is the isomorphism.
    shift = lambda v: (v[0] - 1, v[1] - 1, v[2] - 1)
    q2 = build_qn(2)
    mapped = {tuple(sorted((shift(u), shift(v)))) for u, v in s.edges()}
    assert mapped == {tuple(sorted(e)) for e in q2.edges()}


def test_subgrid_out_of_bounds():
    g = build_qn(2)
    with pytest.raises(ValueError):
        subgrid(g, (1, 1, 1), 2)


def test_b_square_cases():
    assert b_square((0, 0, 0), 0) == {(0, 0, 0)}
    assert b_square((2, 1, 1), 1) == {
        (2, 1, 1), (2, 2, 1), (2, 1, 2), (2, 2, 2)
    }
    sq = b_square((0, 0, 0), 2)
    assert len(sq) == 9
    assert all(v[0] == 0 and v[1] <= 2 and v[2] <= 2 for v in sq)


def test_staircase_validation():
    Staircase(((0, 0, 0), (1, 0, 1), (2, 1, 1)))
    with pytest.raises(ValueError):
        Staircase(((0, 0, 0), (2, 0, 0)))  # x jumps by 2
    with pytest.raises(ValueError):
        Staircase(((0, 1, 0), (1, 0, 0)))  # y decreases
    with pytest.raises(ValueError):
        Staircase(((0, 0, 0), (1, 2, 0)))  # y jumps by 2


@pytest.mark.parametrize("odd", [True, 1.0])
def test_staircase_rejects_coordinates_that_are_not_ints(odd):
    # enlarge and join_staircases read a staircase's fit off its two ends,
    # which holds only for int coordinates (has_vertex's rule).
    with pytest.raises(ValueError, match="not three ints"):
        Staircase(((0, 0, 0), (1, odd, 1), (2, 1, 1)))


def test_enlargement_zero_is_staircase():
    g = build_qn(4)
    st = Staircase(((0, 0, 0), (1, 1, 0), (2, 1, 1)))
    enl = enlarge(g, st, 0)
    assert enl.vertex_set == set(st.vertices)
    assert enl.left_side == {st.first}
    assert enl.right_side == {st.last}


@pytest.mark.parametrize("n", [3, 5])
def test_enlargement_straight_staircase(n):
    g = build_qn(n)
    st = Staircase(tuple((x, 0, 0) for x in range(n)))
    enl = enlarge(g, st, 1)
    expected = {(x, y, z) for x in range(n) for y in (0, 1) for z in (0, 1)}
    assert enl.vertex_set == expected
    assert len(enl.vertex_set) == 4 * n


def test_enlargement_single_vertex():
    g = build_qn(3)
    enl = enlarge(g, Staircase(((1, 0, 0),)), 1)
    assert enl.vertex_set == b_square((1, 0, 0), 1)
    assert enl.left_side == enl.right_side


@settings(max_examples=100, deadline=None)
@given(seed=hs.integers(0, 2 ** 32 - 1), b=hs.integers(0, 3))
def test_enlargement_graph_matches_induced_subgraph(seed, b):
    # The enlargement's own adjacency against the subgraph of the full grid
    # induced on its vertex set, at every vertex inside and next to it.
    rng = random.Random(seed)
    n = 18
    g = build_qn(n)
    enl = enlarge(g, random_staircase(rng, n, margin_yz=b), b)
    ref = induced_subgraph(g, enl.vertex_set)
    assert enl.vertices() == ref.vertices()
    outside = {(-1, 0, 0), (n, n, n)}
    for v in ref.vertices():
        assert enl.has_vertex(v)
        assert set(enl.neighbors(v)) == set(ref.neighbors(v))
        for w in g.neighbors(v):
            assert enl.has_edge(v, w) == ref.has_edge(v, w)
            assert enl.has_edge(w, v) == ref.has_edge(w, v)
            if not ref.has_vertex(w):
                outside.add(w)
    assert len(outside) > 2
    for w in outside:
        assert not enl.has_vertex(w)
        with pytest.raises(KeyError):
            enl.neighbors(w)


def _moved(staircase, dx, dy, dz):
    return Staircase(tuple((x + dx, y + dy, z + dz) for x, y, z in staircase))


@hs.composite
def staircase_pairs(draw):
    """b <= 3 and two staircases: the second is the first, or another random
    one, moved by y and z offsets around +-b and +-(b+1) and by x offsets
    that give overlapping and disjoint x-ranges."""
    b = draw(hs.integers(0, 3))
    rng = random.Random(draw(hs.integers(0, 2 ** 32 - 1)))
    p = random_staircase(rng, 12, margin_yz=b)
    q = p if draw(hs.booleans()) else random_staircase(rng, 12, margin_yz=b)
    near = hs.sampled_from([-b - 1, -b, 0, b, b + 1]) | hs.integers(-5, 5)
    dx, dy, dz = draw(hs.integers(-12, 12)), draw(near), draw(near)
    return b, _moved(p, 20, 20, 20), _moved(q, 20 + dx, 20 + dy, 20 + dz)


_LINE = Staircase(((20, 20, 20), (21, 20, 20), (22, 20, 20)))


@settings(max_examples=300, deadline=None)
@given(staircase_pairs())
@example((1, _LINE, _moved(_LINE, 0, 1, -1)))  # exactly b apart: meet
@example((1, _LINE, _moved(_LINE, 0, 0, 2)))  # b + 1 apart in z only
@example((1, _LINE, _moved(_LINE, 3, 0, 0)))  # disjoint x-ranges
def test_enlargements_meet_matches_vertex_sets(pair):
    b, p, q = pair
    g = build_qn(48)
    assert enlargements_meet(p, q, b) == bool(
        enlarge(g, p, b).vertex_set & enlarge(g, q, b).vertex_set)


def test_enlargement_rejects_clipping():
    g = build_qn(3)
    st = Staircase(((0, 2, 0), (1, 2, 0)))
    with pytest.raises(ValueError) as raised:
        enlarge(g, st, 1)
    assert str(raised.value) == clipped_square_error(3, st, 1)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_enlargement_clipping_names_the_scanned_vertex(n):
    # Two- and three-vertex staircases starting in [-1, n]^3 reach past
    # every face of Q_n; the corner test must reject the same squares as
    # a scan of every square vertex and name the vertex that scan finds.
    g = build_qn(n)
    rejected = accepted = 0
    for start in itertools.product(range(-1, n + 1), repeat=3):
        for steps in itertools.chain.from_iterable(
            itertools.product(itertools.product((0, 1), repeat=2),
                              repeat=k)
            for k in (1, 2)
        ):
            verts = [start]
            for dy, dz in steps:
                x, y, z = verts[-1]
                verts.append((x + 1, y + dy, z + dz))
            st = Staircase(tuple(verts))
            for b in (0, 1, 2):
                expected = clipped_square_error(n, st, b)
                if expected is None:
                    enl = enlarge(g, st, b)
                    assert enl.vertex_set == set().union(
                        *(b_square(v, b) for v in st))
                    accepted += 1
                    continue
                with pytest.raises(ValueError) as raised:
                    enlarge(g, st, b)
                assert str(raised.value) == expected
                rejected += 1
    assert rejected and accepted


def test_projection_identity_on_base():
    g = build_qn(5)
    st = Staircase(((0, 0, 0), (1, 1, 1), (2, 1, 2)))
    enl2 = enlarge(g, st, 2)  # to retract onto the 1-enlargement
    for v in st:
        assert project(v, enl2) == v


def test_projection_single_min_active():
    g = build_qn(6)
    st = Staircase(((0, 1, 1), (1, 1, 2)))
    b = 1
    enl = enlarge(g, st, b + 1)
    u = (0, 1 + b + 1, 1)
    assert project(u, enl) == (0, 1 + b, 1)


def test_projection_preserves_adjacency_exhaustive():
    rng = random.Random(42)
    g = build_qn(5)
    for _ in range(10):
        # Random staircase with room for 2-squares.
        x0 = 0
        y = rng.randrange(0, 2)
        z = rng.randrange(0, 2)
        verts = [(x0, y, z)]
        for i in range(1, 3):
            y += rng.randint(0, 1)
            z += rng.randint(0, 1)
            verts.append((i, y, z))
        st = Staircase(tuple(verts))
        try:
            enl2 = enlarge(g, st, 2)
            enl1 = enlarge(g, st, 1)
        except ValueError:
            continue
        inner = enl1.vertex_set
        vs = enl2.vertices()
        images = {u: project(u, enl2) for u in vs}
        for u, pu in images.items():
            assert pu in inner
            assert pu == u or coords_adjacent(u, pu)
            if u in inner:
                assert pu == u  # idempotent on the inner enlargement
        for u in vs:
            for w in enl2.neighbors(u):
                pu, pw = images[u], images[w]
                assert pu == pw or coords_adjacent(pu, pw)


def test_anchor_formula():
    assert anchor(3, 0, 0) == (0, 0, 0)
    for d in (1, 2, 5):
        assert anchor(d, 1, 0) == (4 * d, 2 * d, d)
        assert anchor(d, 1, 1) == (8 * d, 3 * d, 3 * d)


def test_join_single_vertices():
    d = 2
    g = build_qn(20)
    pu = Staircase((anchor(d, 0, 0),))
    pz = Staircase((anchor(d, 1, 0),))
    j = join_staircases(g, pu, pz)
    assert len(j) == 4 * d + 1
    assert j.first == (0, 0, 0)
    assert j.last == (8, 4, 2)


def test_join_concatenation_degenerate():
    g = build_qn(6)
    a = Staircase(((0, 0, 0), (1, 0, 1)))
    b = Staircase(((2, 1, 1), (3, 1, 1)))
    j = join_staircases(g, a, b)
    assert j.vertices == a.vertices + b.vertices


def test_join_order_insensitive():
    g = build_qn(20)
    a = Staircase(((0, 0, 0),))
    b = Staircase(((8, 4, 2),))
    assert join_staircases(g, a, b).vertices == join_staircases(g, b, a).vertices


def test_join_no_route_raises():
    g = build_qn(9)
    a = Staircase(((0, 5, 0),))
    b = Staircase(((2, 0, 0),))  # y would have to decrease
    with pytest.raises(ValueError):
        join_staircases(g, a, b)


@pytest.mark.parametrize("a, b, outside", [
    (((-1, 0, 0),), ((3, 1, 1),), (-1, 0, 0)),
    (((0, 0, 0),), ((5, 2, 3), (6, 3, 4)), (6, 3, 4)),
])
def test_join_names_the_end_outside_the_grid(a, b, outside):
    g = build_qn(6)
    with pytest.raises(ValueError) as raised:
        join_staircases(g, Staircase(a), Staircase(b))
    assert str(raised.value) == f"join leaves the grid at {outside}"


def test_join_disjoint_enlargements_exhaustive():
    # Full anchor layout: straight staircases in each subgrid of a 3x3
    # anchor grid, all grid edges joined; non-incident joins must have
    # disjoint b-enlargements.
    n, b = 3, 1
    d = n + b
    width = 3
    g = build_qn(16 * d + n + 2)
    stairs = {}
    for j in range(width):
        for k in range(width):
            ax, ay, az = anchor(d, j, k)
            stairs[(j, k)] = Staircase(
                tuple((ax + i, ay, az) for i in range(n))
            )
    edges = [((j, k), (j, k + 1)) for j in range(width) for k in range(width - 1)]
    edges += [((j, k), (j + 1, k)) for k in range(width) for j in range(width - 1)]
    joins = {
        e: join_staircases(g, stairs[e[0]], stairs[e[1]]) for e in edges
    }
    enls = {e: enlarge(g, joins[e], b).vertex_set for e in edges}
    for i, e1 in enumerate(edges):
        for e2 in edges[i + 1:]:
            if set(e1) & set(e2):
                continue
            assert not (enls[e1] & enls[e2]), f"joins {e1} and {e2} collide"


def test_grid_json_roundtrip():
    g = build_qn(3)

    def id_edges(edges):
        return {tuple(sorted((g.vertex_id(u), g.vertex_id(v))))
                for u, v in edges}

    again = grid_from_json(
        '{"n": 3, "vertices": "full", "edges": "implicit"}')
    assert again.vertices() == list(range(27))
    assert set(again.edges()) == id_edges(g.edges())
    listed = [(1, 1, 1), (0, 0, 0), (1, 0, 0), (0, 0, 0)]
    sub = grid_from_json(json.dumps({"n": 3, "vertices": listed}))
    assert sub.vertices() == sorted(g.vertex_id(v) for v in set(listed))
    assert set(sub.edges()) == id_edges(
        grid_induced_by_steps(3, listed).edges()
    )
    with pytest.raises(ValueError):
        grid_from_json(json.dumps({"n": 3, "vertices": [[0, 3, 0]]}))


def test_plane_grids():
    pg = plane_grid(3)
    assert pg.num_vertices() == 9 and pg.num_edges() == 12
    tg = triangulated_grid(3)
    assert tg.num_edges() == 12 + 4


def test_vertex_ids_roundtrip():
    # grid_from_json relies on vertex_id being a bijection onto range(n^3).
    g = build_qn(4)
    assert sorted(g.vertex_id(v) for v in g.vertices()) == list(range(64))
