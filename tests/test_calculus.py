import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtw.calculus import (
    LFunction,
    STAR,
    Walk,
    d,
    indicator,
    integrate,
    integrate_d,
    is_contractible,
    path_weights,
    verify_almost_contractible,
    verify_almost_homotopic,
    weight_sum,
)
from gridtw.graphs import Graph
from gridtw.grid import (
    Staircase,
    build_qn,
    enlarge,
    triangulated_grid,
)
from gridtw.slab import strip_rectangle_certificate

import oracles


@pytest.fixture(scope="module")
def q2():
    return build_qn(2)


@pytest.fixture(scope="module")
def q3():
    return build_qn(3)


def const(g, value):
    return LFunction(g, {v: value for v in g.vertices()})


def test_label_predicates(q2):
    values = {v: 0 for v in q2.vertices()}
    values[(1, 0, 0)] = -1
    values[(0, 1, 0)] = 1  # not adjacent to (1,0,0): mixed-sign difference
    f = LFunction(q2, values)
    assert f.is_continuous() and f.is_entire()
    values[(0, 1, 0)] = STAR
    f = LFunction(q2, values)
    assert f.is_continuous() and not f.is_entire()
    assert not f.is_holomorphic()  # a 0 vertex neighbors the star
    values = {v: -1 if v[0] == 0 else 1 for v in q2.vertices()}
    f = LFunction(q2, values)
    assert not f.is_continuous()


def test_lfunction_names_the_first_missing_vertex_or_bad_value(q2):
    verts = q2.vertices()
    values = dict.fromkeys(verts, 0)
    del values[verts[3]], values[verts[5]]
    with pytest.raises(ValueError) as err:
        LFunction(q2, values)
    assert str(err.value) == f"missing value for vertex {verts[3]}"
    for bad in (2, 0.5, "1", None, [1], True, False, 1.0, -1.0, 0.0):
        values = dict.fromkeys(verts, 1)
        values[verts[2]] = bad
        values[verts[6]] = -2
        with pytest.raises(ValueError) as err:
            LFunction(q2, values)
        assert str(err.value) == f"not an L-value: {bad!r}"
    # Checked in vertex order: a bad value before a missing vertex is named.
    values = dict.fromkeys(verts, STAR)
    values[verts[1]] = 7
    del values[verts[4]]
    with pytest.raises(ValueError, match=r"^not an L-value: 7$"):
        LFunction(q2, values)
    # Values equal to an L-value but of another type are not L-values.
    values = dict.fromkeys(verts, 0)
    values[verts[3]] = 1.0
    values[verts[5]] = True
    with pytest.raises(ValueError, match=r"^not an L-value: 1\.0$"):
        LFunction(q2, values)
    f = LFunction(q2, dict.fromkeys(verts, 1))
    assert all(type(f(v)) is int for v in verts)


def test_d_constant_is_zero(q2):
    assert d(const(q2, 1)) == {}


def test_d_single_edge(q2):
    values = {v: 0 for v in q2.vertices()}
    values[(0, 0, 0)] = -1
    f = LFunction(q2, values)
    e = ((0, 0, 0), (1, 0, 0))
    assert d(f)[e] == f(e[1]) - f(e[0]) == 1
    assert ((1, 0, 0), (0, 0, 0)) not in d(f)


def test_d_star_absorbs(q2):
    values = {v: 1 for v in q2.vertices()}
    values[(1, 1, 1)] = STAR
    f = LFunction(q2, values)
    chain = d(f)
    assert chain == {}
    values[(0, 0, 0)] = 0
    chain = d(LFunction(q2, values))
    for w in q2.neighbors((1, 1, 1)):
        assert (w, (1, 1, 1)) not in chain
    assert chain[((0, 0, 0), (1, 0, 0))] == 1


def test_indicator_trivial_and_cancellation(q2):
    w = Walk(q2, [(0, 0, 0)])
    assert indicator(w) == {}
    w = Walk(q2, [(0, 0, 0), (1, 0, 0), (0, 0, 0)])
    assert indicator(w) == {}


def test_indicator_triangle_signs(q2):
    tri = Walk(q2, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 0, 0)])
    chain = indicator(tri)
    assert chain == {
        ((0, 0, 0), (1, 0, 0)): 1,
        ((1, 0, 0), (1, 1, 0)): 1,
        ((0, 0, 0), (1, 1, 0)): -1,
    }
    rev = indicator(Walk(q2, tri.vertices[::-1]))
    assert rev == {e: -c for e, c in chain.items()}


def test_integral_telescopes_on_entire(q2):
    rng = random.Random(0)
    for _ in range(200):
        seq = [(0, 0, 0)]
        for _ in range(rng.randrange(1, 6)):
            seq.append(rng.choice(q2.neighbors(seq[-1])))
        walk = Walk(q2, seq)
        for _ in range(20):
            values = {v: rng.choice((-1, 0, 1)) for v in q2.vertices()}
            f = LFunction(q2, values)
            if not f.is_entire(within=walk.vertex_set()):
                continue
            got = integrate(walk, d(f))
            assert got == f(walk.end) - f(walk.start)
            assert got == integrate_d(walk, f)


def test_closed_walk_integral_vanishes_entire(q2):
    walk = Walk(q2, [(0, 0, 0), (1, 1, 0), (1, 1, 1), (0, 0, 0)])
    values = {v: v[2] - v[1] for v in q2.vertices()}
    f = LFunction(q2, values)
    assert f.is_entire()
    assert integrate(walk, d(f)) == 0


def test_triangle_integral_bound_exhaustive(q2):
    # Every triangle of the 2-grid, every continuous assignment on it.
    edges = q2.edges()
    tris = set()
    for u, v in edges:
        for w in q2.neighbors(v):
            if w > v and q2.has_edge(u, w):
                tris.add((u, v, w))
    assert tris
    for u, v, w in sorted(tris):
        walk = Walk(q2, [u, v, w, u])
        for combo in itertools.product((-1, 0, 1, STAR), repeat=3):
            vals = dict(zip((u, v, w), combo))
            pairs = [(u, v), (v, w), (u, w)]
            if any(
                vals[a] in (1, -1) and vals[b] in (1, -1) and vals[a] != vals[b]
                for a, b in pairs
            ):
                continue
            values = {x: 0 for x in q2.vertices()}
            values.update(vals)
            f = LFunction(q2, values)
            val = integrate_d(walk, f)
            assert abs(val) <= 1
            if is_contractible(walk, f):
                assert val == 0


_GRIDS = {n: build_qn(n) for n in (2, 3)}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3)), st.data())
def test_pairing_agrees_with_every_orientation(n, data):
    # The pairing under any edge orientation, built by the oracle from a
    # random set of flipped edges, equals the orientation-free one.
    g = _GRIDS[n]
    edges = g.edges()
    bits = data.draw(st.lists(st.booleans(), min_size=len(edges),
                              max_size=len(edges)))
    flipped = frozenset(e for e, bit in zip(edges, bits) if bit)
    seq = [data.draw(st.sampled_from(g.vertices()))]
    for i in data.draw(st.lists(st.integers(0, 13), max_size=8)):
        nbrs = g.neighbors(seq[-1])
        seq.append(nbrs[i % len(nbrs)])
    walk = Walk(g, seq)
    labels = data.draw(st.lists(st.sampled_from((-1, 0, 1, STAR)),
                                min_size=g.num_vertices(),
                                max_size=g.num_vertices()))
    f = LFunction(g, dict(zip(g.vertices(), labels)))
    df = oracles.oriented_d(f, flipped)
    paired = oracles.oriented_pairing(walk, df, flipped)
    assert paired == integrate(walk, d(f)) == integrate_d(walk, f)
    ind = oracles.oriented_indicator(walk, flipped)
    assert paired == sum(c * df.get(e, 0) for e, c in ind.items())
    assert oracles.oriented_d(f, frozenset()) == d(f)
    assert oracles.oriented_indicator(walk, frozenset()) == indicator(walk)


def test_reversal_and_concatenation(q2):
    rng = random.Random(2)
    for _ in range(100):
        seq = [(0, 0, 0)]
        for _ in range(4):
            seq.append(rng.choice(q2.neighbors(seq[-1])))
        w1 = Walk(q2, seq[:3])
        w2 = Walk(q2, seq[2:])
        whole = Walk(q2, w1.vertices + w2.vertices[1:])
        values = {v: rng.choice((-1, 0, 1, STAR)) for v in q2.vertices()}
        f = LFunction(q2, values)
        chain = d(f)
        backwards = Walk(q2, whole.vertices[::-1])
        assert integrate(backwards, chain) == -integrate(whole, chain)
        assert (
            integrate(whole, chain)
            == integrate(w1, chain) + integrate(w2, chain)
        )


def test_walk_rejects_a_non_edge_step_and_an_off_grid_vertex(q2):
    with pytest.raises(ValueError,
                       match=r"^walk step \(1, 1, 0\) -> \(0, 0, 1\) is not"):
        Walk(q2, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 0, 1), (1, 1, 1)])
    # (1, 0, 0) -> (0, 1, 0) is a mixed-sign step.
    with pytest.raises(ValueError,
                       match=r"^walk step \(1, 0, 0\) -> \(0, 1, 0\) is not"):
        Walk(q2, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError,
                       match=r"^walk step \(1, 1, 1\) -> \(2, 1, 1\) is not"):
        Walk(q2, [(0, 0, 0), (1, 1, 1), (2, 1, 1)])
    with pytest.raises(ValueError,
                       match=r"^walk step \(-1, 0, 0\) -> \(0, 0, 0\) is not"):
        Walk(q2, [(-1, 0, 0), (0, 0, 0)])
    with pytest.raises(ValueError, match=r"^walk step \(1, 1, 0\) -> \(1, 1, 0\)"):
        Walk(q2, [(1, 0, 0), (1, 1, 0), (1, 1, 0)])
    with pytest.raises(ValueError, match="at least one vertex"):
        Walk(q2, [])


def test_walk_rejects_a_lone_vertex_the_graph_lacks(q2):
    # first_non_edge has no step to test below two vertices, so a lone
    # vertex is tested on its own, and the error names it.
    path = Graph(range(3), [(0, 1)])
    enl = enlarge(build_qn(3), Staircase(((0, 0, 0), (1, 0, 0))), 1)
    for graph, v in ((q2, (5, 5, 5)), (q2, None), (q2, range(3)),
                     (path, 7), (enl, (2, 2, 2))):
        with pytest.raises(ValueError, match=(
                rf"^walk vertex {re.escape(str(v))} is not in the graph$")):
            Walk(graph, [v])
    assert Walk(q2, [[1, 0, 1]]).vertices == [(1, 0, 1)]
    assert Walk(path, [2]).vertices == [2]
    # A range is no grid vertex inside a longer walk either.
    with pytest.raises(ValueError, match=r"^walk step range\(0, 3\) -> "):
        Walk(build_qn(3), [range(3), (1, 1, 2)])


def test_walk_of_probes_with_no_length_is_a_value_error_on_every_graph():
    # 5 and None are not vertices of any graph type, so the walk check
    # rejects the step with a ValueError, not a TypeError from len().
    q3 = build_qn(3)
    enl = enlarge(q3, Staircase(((0, 0, 0), (1, 0, 0))), 1)
    for g in (q3, enl, Graph(vertices=range(3), edges=[(0, 1)])):
        for seq in ([5, 6], [None, 0], [0, None]):
            with pytest.raises(ValueError, match="is not an edge"):
                Walk(g, seq)


def test_boolean_coordinates_are_not_grid_vertices(q2):
    # True == 1, but read_grid_document and has_edge take ints only.
    assert not q2.has_vertex((True, 0, 0))
    assert not q2.has_vertex([0, False, 1])
    assert not q2.has_edge((True, 0, 0), (0, 0, 0))
    with pytest.raises(KeyError):
        q2.neighbors((True, 0, 0))
    with pytest.raises(ValueError, match=r"^walk step \(True, 0, 0\) -> "):
        Walk(q2, [(True, 0, 0), (0, 0, 0)])
    with pytest.raises(ValueError, match=r"-> \(1, 0, False\) is not"):
        Walk(q2, [(0, 0, 0), (1, 0, False)])


# Graphs for the one-pass walk check: the implicit full grid, an implicit
# enlargement, and an explicit Graph on (x, y) pairs.
_DIFF_GRAPHS = {
    "grid": build_qn(3),
    "enlargement": enlarge(build_qn(6), Staircase(
        [(0, 1, 1), (1, 1, 2), (2, 2, 2), (3, 2, 2), (4, 3, 3)]), 1),
    "graph": triangulated_grid(3),
}


@st.composite
def _vertex_sequences(draw, graph):
    """A walk-like sequence near ``graph``: unit offsets (zero and
    mixed-sign ones included) from a vertex, a few entries then replaced by
    a list, a boolean coordinate or an arbitrary off-graph point."""
    start = draw(st.sampled_from(graph.vertices()))
    dim = len(start)
    seq = [start]
    for off in draw(st.lists(st.tuples(*[st.integers(-1, 1)] * dim),
                             max_size=6)):
        seq.append(tuple(c + o for c, o in zip(seq[-1], off)))
    coord = st.one_of(st.integers(-2, 7), st.booleans())
    for i in draw(st.lists(st.integers(0, len(seq) - 1), max_size=2)):
        kind = draw(st.sampled_from(("list", "bool", "point")))
        if kind == "list":
            seq[i] = list(seq[i])
        elif kind == "bool":
            j = draw(st.integers(0, dim - 1))
            v = list(seq[i])
            v[j] = bool(v[j]) if v[j] in (0, 1) else v[j]
            seq[i] = tuple(v)
        else:
            seq[i] = draw(st.tuples(*[coord] * dim))
    return seq


def _outcome(check, graph, seq):
    try:
        return check(graph, seq)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("name", sorted(_DIFF_GRAPHS))
@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_one_pass_walk_check_agrees_with_has_edge(name, data):
    graph = _DIFF_GRAPHS[name]
    seq = data.draw(_vertex_sequences(graph))
    # On the raw sequence, list vertices included: the same first bad step,
    # or the same TypeError for a vertex the graph cannot hash.
    assert (_outcome(type(graph).first_non_edge, graph, seq)
            == _outcome(oracles.first_non_edge_by_has_edge, graph, seq))
    # Walk reads a list vertex as a tuple, then needs every step an edge,
    # or a lone vertex in the graph.
    vs = [tuple(v) if isinstance(v, list) else v for v in seq]
    bad = oracles.first_non_edge_by_has_edge(graph, vs)
    if len(vs) == 1 and not graph.has_vertex(vs[0]):
        want = f"walk vertex {vs[0]} is not in the graph"
    elif bad is not None:
        want = f"walk step {vs[bad]} -> {vs[bad + 1]} is not an edge"
    else:
        assert Walk(graph, seq).vertices == vs
        return
    with pytest.raises(ValueError) as err:
        Walk(graph, seq)
    assert str(err.value) == want


def test_one_pass_walk_check_fixed_cases():
    q3 = _DIFF_GRAPHS["grid"]
    enl = _DIFF_GRAPHS["enlargement"]
    plane = oracles.plane_grid(3)
    cases = [
        (q3, [(0, 0, 0)], None),
        (q3, [(9, 9, 9)], None),  # one vertex: no step to check
        (q3, [(1, 1, 1), (1, 1, 1)], 0),
        (q3, [(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)], 2),
        (q3, [(0, 0, 0), [1, 1, 1], (2, 2, 2)], 0),  # a list is no vertex
        (q3, [(0, 0, 0), (True, 0, 0)], 0),
        (q3, [(1, 1, 1), (0, 0, 0), (0, 0, 0)], 1),
        (enl, [(0, 1, 1), (1, 1, 2), (1, 2, 3), (2, 3, 3)], None),
        (enl, [(0, 1, 1), (1, 1, 1)], 0),  # a grid edge leaving the set
        (enl, [(0, 1, 1), (0, 2, 2), (0, 1, 2), (0, 2, 1)], 2),
        (plane, [(0, 0), (1, 0), (1, 1), (0, 0)], 2),
        (plane, [(0, 0), (0, 1), (0, 1)], 1),
        (Graph([1, 2, 3], [(1, 2), (2, 3)]), [1, 2, 3, 1], 2),
    ]
    for graph, seq, want in cases:
        assert graph.first_non_edge(seq) == want, (graph, seq)
        assert oracles.first_non_edge_by_has_edge(graph, seq) == want


def test_contractible_reads_the_three_steps_on_every_triangle_of_q3(q3):
    # Every triangle of Q_3 in every orientation, under all 4^3 labelings of
    # its three vertices: the same answer as the pairwise definition.
    tris = []
    for u, v in q3.edges():
        tris += [(u, v, w) for w in q3.neighbors(v)
                 if w > v and q3.has_edge(u, w)]
    assert len(tris) == 120
    base = dict.fromkeys(q3.vertices(), 0)
    seen = set()
    for tri in tris:
        walks = [Walk(q3, [a, b, c, a])
                 for a, b, c in itertools.permutations(tri)]
        for combo in itertools.product((-1, 0, 1, STAR), repeat=3):
            values = dict(base)
            values.update(zip(tri, combo))
            f = LFunction(q3, values)
            want = oracles.contractible_pairwise(walks[0], f)
            assert want is f.is_holomorphic(within=set(tri))
            seen.add(want)
            for walk in walks:
                assert is_contractible(walk, f) is want, (walk, combo)
    assert seen == {True, False}


def test_contractible_requires_triangle(q2):
    f = const(q2, 0)
    path = Walk(q2, [(0, 0, 0), (1, 0, 0)])
    with pytest.raises(ValueError):
        is_contractible(path, f)


def test_contractible_cases(q2):
    tri = Walk(q2, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 0, 0)])
    assert is_contractible(tri, const(q2, 1))
    values = {v: 0 for v in q2.vertices()}
    values[(1, 0, 0)] = STAR
    values[(1, 1, 0)] = 1
    f = LFunction(q2, values)
    assert not is_contractible(tri, f)  # 0 next to star on the triangle


def test_almost_contractible_single_triangle(q2):
    tri = Walk(q2, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 0, 0)])
    f = const(q2, 1)
    assert verify_almost_contractible(tri, [tri], f, 0)


def test_almost_contractible_two_triangles(q2):
    # Boundary of two triangles glued along the diagonal.
    quad = Walk(q2, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 0)])
    t1 = Walk(q2, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 0, 0)])
    t2 = Walk(q2, [(0, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 0)])
    i1, i2 = indicator(t1), indicator(t2)
    total = {e: i1.get(e, 0) + i2.get(e, 0) for e in i1.keys() | i2.keys()}
    diagonal = ((0, 0, 0), (1, 1, 0))
    assert total.pop(diagonal) == 0
    assert total == indicator(quad)
    f = const(q2, 0)
    assert verify_almost_contractible(quad, [t1, t2], f, 0)


def test_almost_contractible_wrong_list(q2):
    quad = Walk(q2, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 0)])
    t1 = Walk(q2, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 0, 0)])
    assert not verify_almost_contractible(quad, [t1], const(q2, 0), 0)


def test_almost_homotopic_reflexive(q2):
    w = Walk(q2, [(0, 0, 0), (1, 0, 0), (1, 1, 0)])
    q = Walk(q2, [(0, 0, 0)])
    r = Walk(q2, [(1, 1, 0)])
    assert verify_almost_homotopic(w, w, q, r, [], const(q2, 0), 0)


def test_almost_homotopic_rejects_mismatched_connectors(q2):
    w = Walk(q2, [(0, 0, 0), (1, 0, 0)])
    q = Walk(q2, [(1, 1, 1)])
    r = Walk(q2, [(1, 0, 0)])
    with pytest.raises(ValueError):
        verify_almost_homotopic(w, w, q, r, [], const(q2, 0), 0)


def test_almost_homotopic_rejects_star_connector(q2):
    w = Walk(q2, [(0, 0, 0), (1, 0, 0), (1, 1, 0)])
    q = Walk(q2, [(0, 0, 0)])
    r = Walk(q2, [(1, 1, 0)])
    values = {v: 0 for v in q2.vertices()}
    values[(0, 0, 0)] = STAR
    f = LFunction(q2, values)
    assert not verify_almost_homotopic(w, w, q, r, [], f, 0)


@pytest.mark.parametrize("n", [3, 4])
def test_almost_homotopic_is_contractibility_of_the_composite(n):
    # Every strip certificate of Q_n under a seeded continuous labeling,
    # constant on q and r: the homotopy check answers as the contractibility
    # check of a composite built here, with the right k and with one too
    # few, and both reject the certificate without its first triangle.
    g = build_qn(n)
    rng = random.Random(n)
    answers = set()
    for axis in ("y", "z"):
        for plane in range(n):
            for j1, j2 in itertools.combinations(range(n), 2):
                w1, w2, q, r, tris = strip_rectangle_certificate(
                    g, axis, plane, j1, j2)
                cq, cr = rng.choice((-1, 0, 1)), rng.choice((-1, 0, 1))
                pinned = ([(v, cq) for v in q.vertices]
                          + [(v, cr) for v in r.vertices])
                f = oracles.random_continuous_labeling(g, rng, pinned)
                tris.sort(key=lambda t: is_contractible(t, f))
                k = sum(not is_contractible(t, f) for t in tris)
                comp = oracles.homotopy_composite(g, w1, w2, q, r)
                for kk in {k, max(k - 1, 0)}:
                    got = verify_almost_homotopic(w1, w2, q, r, tris, f, kk)
                    assert got == verify_almost_contractible(comp, tris, f, kk)
                    answers.add(got)
                assert not verify_almost_homotopic(
                    w1, w2, q, r, tris[1:], f, k)
                assert not verify_almost_contractible(comp, tris[1:], f, k)
    assert answers == {True, False}


def test_path_weights_constant(q3):
    path = Walk(q3, [(0, 0, 0), (1, 0, 0), (2, 0, 0)])
    weights = path_weights(path, const(q3, 1))
    assert weights == {(1, 0, 0): Fraction(0)}


def test_path_weights_ramp(q3):
    path = Walk(q3, [(0, 0, 0), (1, 0, 0), (2, 0, 0)])
    values = {v: 1 for v in q3.vertices()}
    values[(0, 0, 0)] = -1
    values[(1, 0, 0)] = 0
    f = LFunction(q3, values)
    weights = path_weights(path, f)
    assert weights[(1, 0, 0)] == 1


def test_path_weights_range_and_rejections(q3):
    rng = random.Random(3)
    allowed = {Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2),
               Fraction(1)}
    found = set()
    for _ in range(300):
        seq = [(rng.randrange(3), rng.randrange(3), rng.randrange(3))]
        seen = {seq[0]}
        for _ in range(5):
            nbrs = [w for w in q3.neighbors(seq[-1]) if w not in seen]
            if not nbrs:
                break
            seq.append(rng.choice(nbrs))
            seen.add(seq[-1])
        if len(seq) < 3:
            continue
        path = Walk(q3, seq)
        values = {v: 0 for v in q3.vertices()}
        for v in seq:
            values[v] = rng.choice((-1, 0, 1))
        f = LFunction(q3, values)
        if not f.is_entire(within=path.vertex_set()):
            continue
        weights = path_weights(path, f)
        found |= set(weights.values())
        assert set(weights.values()) <= allowed
    assert found
    path = Walk(q3, [(0, 0, 0), (1, 0, 0), (2, 0, 0)])
    values = {v: 0 for v in q3.vertices()}
    values[(1, 0, 0)] = STAR
    with pytest.raises(ValueError):
        path_weights(path, LFunction(q3, values))


def test_masked_integral_identity_random(q3):
    # Random labelings with stars only over zeros: half the masked integral
    # equals the weight of the surviving zeros; holomorphic cases integral.
    rng = random.Random(4)
    done = 0
    while done < 200:
        seq = [(rng.randrange(3), rng.randrange(3), rng.randrange(3))]
        seen = {seq[0]}
        for _ in range(6):
            nbrs = [w for w in q3.neighbors(seq[-1]) if w not in seen]
            if not nbrs:
                break
            seq.append(rng.choice(nbrs))
            seen.add(seq[-1])
        if len(seq) < 3:
            continue
        path = Walk(q3, seq)
        vset = sorted(path.vertex_set())
        vals = {v: rng.choice((-1, 0, 1)) for v in vset}
        vals[seq[0]] = rng.choice((-1, 1))
        vals[seq[-1]] = rng.choice((-1, 1))
        bad = any(
            vals[u] * vals[w] == -1
            for u in vset
            for w in vset
            if u < w and q3.has_edge(u, w)
        )
        if bad:
            continue
        f_values = {v: 0 for v in q3.vertices()}
        f_values.update(vals)
        f = LFunction(q3, f_values)
        zeros = [v for v in seq if vals[v] == 0]
        masked = {v for v in zeros if rng.random() < 0.5}
        g_values = dict(f_values)
        for v in masked:
            g_values[v] = STAR
        g_fun = LFunction(q3, g_values)
        x = {v for v in zeros if v not in masked}
        lhs = Fraction(integrate_d(path, g_fun), 2)
        rhs = weight_sum(path_weights(path, f), x)
        assert lhs == rhs
        if g_fun.is_holomorphic(within=path.vertex_set()):
            assert rhs.denominator == 1
        done += 1
