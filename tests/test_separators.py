import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridtw.bramble_builder import BrambleCertificate, find_blocked_or_bramble
from gridtw.graphs import Graph, bfs_path, induced_subgraph
from gridtw import grid
from gridtw.grid import Staircase, build_qn, enlarge
from gridtw.separators import (
    DictPartition,
    HashPartition,
    NoSeparatorError,
    NotBlockedError,
    blocked_component,
    check_separator_connected,
    is_blocked,
    is_minimal_separator,
    is_separator,
    min_side_separator,
    minimalize,
    partition_from_json,
    sample_grid_separator,
    sample_minimal_separator,
)
from gridtw.harness import suite_separator_connectivity
from gridtw.slab import enlargement_as_slab

from oracles import (
    blocked_component_materialized,
    hash_partition_class,
    is_blocked_materialized,
    is_minimal_separator_brute,
    max_disjoint_paths,
    minimalize_reference,
    separates,
)


def faces(n):
    s1 = frozenset((0, y, z) for y in range(n) for z in range(n))
    s2 = frozenset((n - 1, y, z) for y in range(n) for z in range(n))
    return s1, s2


def plane(n, x):
    return frozenset((x, y, z) for y in range(n) for z in range(n))


def test_is_separator_cases():
    n = 4
    g = build_qn(n)
    s1, s2 = faces(n)
    assert is_separator(g, s1, s2, plane(n, 2))
    assert not is_separator(g, s1, s2, frozenset())
    assert not is_separator(g, s1, s2, plane(n, 2) - {(2, 1, 1)})
    with pytest.raises(ValueError):
        is_separator(g, s1, s2, plane(n, 0))


@pytest.mark.parametrize("n", [2, 3])
def test_min_cut_matches_disjoint_path_packing(n):
    g = build_qn(n)
    s1, s2 = faces(n)
    if n == 2:
        cut = min_side_separator(g, s1, s2, include_sides=True)
        packing = max_disjoint_paths(g, s1, s2, include_sides=True)
        assert len(cut) == packing == n * n
        with pytest.raises(NoSeparatorError):
            min_side_separator(g, s1, s2)
    else:
        cut = min_side_separator(g, s1, s2)
        packing = max_disjoint_paths(g, s1, s2)
        assert len(cut) == packing == n * n
        assert is_separator(g, s1, s2, cut)


def test_min_cut_enlargement_square():
    g = build_qn(8)
    st = Staircase(((1, 0, 0), (2, 1, 0), (3, 1, 1), (4, 2, 2)))
    b = 1
    enl = enlarge(g, st, b)
    cut = min_side_separator(enl, enl.left_side, enl.right_side)
    assert len(cut) == (b + 1) ** 2 == 4
    h = induced_subgraph(g, enl.vertex_set)
    packing = max_disjoint_paths(h, enl.left_side, enl.right_side)
    assert packing == 4


def test_min_cut_when_a_path_backs_out_of_a_unit():
    # A sparse graph on which an augmenting path must cancel a unit through
    # a vertex entirely (enter x, back out along x's unit to w, back through
    # w, leave w's predecessor), which shortest paths on small dense graphs
    # almost never need.
    edges = [
        (0, 8), (0, 23), (1, 8), (1, 16), (2, 5), (2, 15), (3, 10), (3, 18),
        (4, 18), (5, 6), (6, 7), (6, 21), (7, 10), (7, 12), (7, 17), (7, 22),
        (8, 23), (9, 10), (9, 12), (9, 21), (10, 18), (11, 21), (13, 22),
        (14, 19), (16, 18), (16, 22), (17, 18), (17, 21), (19, 23),
    ]
    host = Graph(vertices=range(24), edges=edges)
    s1, s2 = {3, 5, 16}, {12, 14}
    cut = min_side_separator(host, s1, s2, include_sides=True)
    assert cut == {12, 16}
    assert len(cut) == max_disjoint_paths(host, s1, s2, include_sides=True)


def test_minimalize_plane_fixed():
    n = 4
    g = build_qn(n)
    s1, s2 = faces(n)
    x = minimalize(g, s1, s2, plane(n, 2))
    assert x == plane(n, 2)  # already minimal: every hole breaks it
    with_extra = set(plane(n, 2)) | {(1, 1, 1)}
    x = minimalize(g, s1, s2, with_extra)
    assert x == plane(n, 2)
    assert minimalize(g, s1, s2, x) == x  # idempotent


def test_minimalize_requires_separator():
    n = 3
    g = build_qn(n)
    s1, s2 = faces(n)
    with pytest.raises(ValueError):
        minimalize(g, s1, s2, {(1, 1, 1)})


def test_minimal_separator_connectivity_suite():
    result = suite_separator_connectivity(samples=60, seed=9)
    assert result["instances"] == 60
    assert result["violations"] == 0


def test_zero_enlargement_separator_trivially_connected():
    g = build_qn(6)
    st = Staircase(((0, 0, 0), (1, 1, 0), (2, 1, 1), (3, 2, 1)))
    enl = enlarge(g, st, 0)
    x = min_side_separator(enl, enl.left_side, enl.right_side)
    assert len(x) == 1
    assert check_separator_connected(enl, x)


def test_bent_staircase_b2_connected():
    g = build_qn(12)
    st = Staircase(
        ((1, 0, 0), (2, 1, 0), (3, 2, 1), (4, 2, 2), (5, 3, 3), (6, 4, 3))
    )
    enl = enlarge(g, st, 2)
    rng = random.Random(21)
    for _ in range(10):
        x = sample_minimal_separator(enl, rng)
        assert check_separator_connected(enl, x)


def test_check_connected_rejects_non_minimal():
    g = build_qn(5)
    st = Staircase(((0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0)))
    enl = enlarge(g, st, 1)
    whole_interior = enl.interior()
    with pytest.raises(ValueError):
        check_separator_connected(enl, whole_interior)


def test_is_blocked_cases():
    g = build_qn(8)
    st = Staircase(((1, 1, 1), (2, 1, 2), (3, 2, 2), (4, 2, 3)))
    all_one = DictPartition({v: 1 for v in g.vertices()})
    assert is_blocked(g, st, 1, 1, all_one)
    assert not is_blocked(g, st, 1, 2, all_one)  # class 2 is empty
    # One interior square column in class 1 blocks on its own.
    column = {(2, 1 + dy, 2 + dz) for dy in (0, 1) for dz in (0, 1)}
    part = DictPartition(
        {v: (1 if v in column else 2) for v in g.vertices()}
    )
    assert is_blocked(g, st, 1, 1, part)


class CountingPartition:
    """A partition that counts its class reads."""

    def __init__(self, part):
        self.part, self.reads = part, 0

    def cls(self, v):
        self.reads += 1
        return self.part.cls(v)


def test_is_blocked_crosses_an_unblocked_enlargement_slice_by_slice():
    # 40 x-slices of 16 vertices each at b = 3, with steps of every kind.
    # With no class-1 vertex the search runs x-first to the right side and
    # reads about 4 classes a slice, where a breadth-first search reads the
    # 38 slices between the sides in full (608); when every vertex is
    # class 1 it reads the second slice and stops.
    g = build_qn(60)
    verts = [(1, 1, 1)]
    for k in range(39):
        dy, dz = ((0, 0), (1, 0), (0, 1), (1, 1))[k % 4]
        x, y, z = verts[-1]
        verts.append((x + 1, y + dy, z + dz))
    stair = Staircase(tuple(verts))
    open_part = CountingPartition(HashPartition(0, bias=0))
    assert not is_blocked(g, stair, 3, 1, open_part)
    assert open_part.reads <= 160
    closed_part = CountingPartition(HashPartition(0, bias=256))
    assert is_blocked(g, stair, 3, 1, closed_part)
    assert closed_part.reads == 16


@st.composite
def blocked_instances(draw, max_b=2):
    """(n, staircase vertices, b, i, partition seed, bias) on Q_n, n <= 8,
    b <= max_b.

    Starts leave room for most squares and for an interior where the grid
    has one, so most draws fit and have something to block; the steps may
    still carry a square out of the grid."""
    n = draw(st.integers(1, 8))
    b = draw(st.integers(0, max_b))
    x = draw(st.integers(0, max(0, n - 3)))
    y, z = (draw(st.integers(0, max(0, n - 1 - b))) for _ in range(2))
    verts = [(x, y, z)]
    for _ in range(draw(st.integers(min(2, n - 1 - x), n - 1 - x))):
        x, y, z = verts[-1]
        verts.append((x + 1, y + draw(st.integers(0, 1)),
                      z + draw(st.integers(0, 1))))
    i = draw(st.sampled_from((1, 2)))
    seed = draw(st.integers(0, 2**32 - 1))
    bias = draw(st.sampled_from((0, 256)) | st.integers(0, 256))
    return n, verts, b, i, seed, bias


@settings(max_examples=400, deadline=None)
@given(blocked_instances())
# A square clipped by the grid: both raise the same ValueError.
@example((4, [(1, 2, 2), (2, 2, 2)], 2, 1, 0, 128))
# One vertex: the sides coincide, so nothing blocks them.
@example((3, [(1, 1, 1)], 1, 1, 0, 256))
@example((3, [(1, 1, 1)], 0, 2, 0, 0))
def test_is_blocked_matches_materialized_check(instance):
    # The CLI and the benchmark gate re-verify staircases with is_blocked,
    # so it is checked here against a separation test on the built graph.
    n, verts, b, i, seed, bias = instance
    g, stair = build_qn(n), Staircase(tuple(verts))
    part = HashPartition(seed, bias=bias)
    try:
        expected = is_blocked_materialized(g, stair, b, i, part)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            is_blocked(g, stair, b, i, part)
        assert str(raised.value) == str(exc)
        return
    assert is_blocked(g, stair, b, i, part) == expected
    if len(verts) == 1:
        assert not expected


@settings(max_examples=300, deadline=None)
@given(blocked_instances(max_b=1))
# Blocked, but the (b+1)-squares leave the grid: the same ValueError.
@example((4, [(0, 2, 2), (1, 2, 2), (2, 2, 2)], 1, 1, 0, 256))
# All class i: the component is the whole (b+1)-enlargement.
@example((8, [(1, 1, 1), (2, 1, 2), (3, 2, 2)], 1, 1, 0, 256))
# No class-i vertex: both raise NotBlockedError.
@example((8, [(1, 1, 1), (2, 1, 2), (3, 2, 2)], 1, 1, 0, 0))
def test_blocked_component_matches_materialized_components(instance):
    # The class components are searched on the host grid; the oracle
    # searches them on the built (b+1)-enlargement graph.
    n, verts, b, i, seed, bias = instance
    g, stair = build_qn(n), Staircase(tuple(verts))
    part = HashPartition(seed, bias=bias)
    try:
        expected = blocked_component_materialized(g, stair, b, i, part)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            blocked_component(g, stair, b, i, part)
        assert type(raised.value) is type(exc)
        assert str(raised.value) == str(exc)
        return
    assert blocked_component(g, stair, b, i, part) == expected


def test_blocked_component_whole_interior():
    g = build_qn(8)
    st = Staircase(((1, 1, 1), (2, 1, 2), (3, 2, 2)))
    all_one = DictPartition({v: 1 for v in g.vertices()})
    comp = blocked_component(g, st, 1, 1, all_one)
    m1 = enlarge(g, st, 2)
    assert comp == m1.vertex_set  # everything is class 1 and connected


def test_blocked_component_requires_blocked():
    g = build_qn(8)
    st = Staircase(((1, 1, 1), (2, 1, 2), (3, 2, 2)))
    all_two = DictPartition({v: 2 for v in g.vertices()})
    with pytest.raises(NotBlockedError):
        blocked_component(g, st, 1, 1, all_two)


def test_blocked_component_swallows_all_paths():
    # Randomized: every class-i side-to-side path of the (b+1)-enlargement
    # lies inside the returned component.
    rng = random.Random(33)
    g = build_qn(9)
    st = Staircase(((1, 1, 1), (2, 1, 2), (3, 2, 2), (4, 2, 3)))
    b = 1
    found = 0
    while found < 20:
        part = HashPartition(rng.randrange(1 << 30), bias=170)
        if not is_blocked(g, st, b, 1, part):
            continue
        found += 1
        comp = blocked_component(g, st, b, 1, part)
        m1 = enlarge(g, st, b + 1)
        class_i = {v for v in m1.vertex_set if part.cls(v) == 1}
        left = sorted(m1.left_side & class_i)
        right = m1.right_side & class_i
        path = bfs_path(m1, left, right, allowed=class_i)
        if path is not None:
            assert set(path) <= comp
        # The component must meet the minimalized blocker of the inner
        # enlargement, which it contains by construction.
        m0 = enlarge(g, st, b)
        blocker = {v for v in m0.interior() if part.cls(v) == 1}
        x = minimalize(m0, m0.left_side, m0.right_side, blocker)
        assert x <= comp


def test_partition_json_roundtrip():
    g = build_qn(2)
    part = DictPartition(
        {v: (1 if sum(v) % 2 == 0 else 2) for v in g.vertices()}
    )
    # The class list follows g.vertices(): x fastest, then y, then z.
    text = '{"n": 2, "class": [1, 2, 2, 1, 2, 1, 1, 2]}'
    g2, again = partition_from_json(text)
    assert g2.n == 2
    for v in g.vertices():
        assert again.cls(v) == part.cls(v)


def test_hash_partition_deterministic():
    p1 = HashPartition(123, bias=100)
    p2 = HashPartition(123, bias=100)
    p3 = HashPartition(124, bias=100)
    vs = [(x, y, z) for x in range(5) for y in range(5) for z in range(5)]
    assert [p1.cls(v) for v in vs] == [p2.cls(v) for v in vs]
    assert [p1.cls(v) for v in vs] != [p3.cls(v) for v in vs]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 1 << 64), st.integers(0, 256),
       st.tuples(*[st.integers(0, 1 << 22)] * 3), st.integers(0, 2),
       st.integers(-3, 3))
def test_hash_partition_repeats_with_period_two_to_the_twenty(
        seed, bias, v, axis, k):
    # Only the low 20 bits of each coordinate are hashed: moving a vertex
    # by a multiple of 2^20 along one axis keeps its class.
    moved = list(v)
    moved[axis] += k << 20
    part = HashPartition(seed, bias)
    assert part.cls(tuple(moved)) == part.cls(v)


@settings(max_examples=300, deadline=None)
@given(st.integers(-(1 << 70), 1 << 70), st.integers(0, 256),
       st.tuples(*[st.integers(-(1 << 21), 1 << 21)] * 3))
def test_hash_partition_matches_two_function_form(seed, bias, v):
    # cls computes the splitmix64 finalizer inline.
    assert HashPartition(seed, bias).cls(v) == hash_partition_class(
        seed, bias, v
    )


def test_sampled_grid_separators_are_minimal():
    g = build_qn(4)
    rng = random.Random(5)
    for _ in range(10):
        s1, s2, x = sample_grid_separator(g, rng)
        assert is_minimal_separator(g, s1, s2, x)


@st.composite
def side_cases(draw):
    """A random graph, two disjoint non-empty sides and a vertex subset."""
    size = draw(st.integers(2, 11))
    pairs = itertools.combinations(range(size), 2)
    edges = [e for e in pairs if draw(st.booleans())]
    order = draw(st.permutations(range(size)))
    k1 = draw(st.integers(1, size - 1))
    k2 = draw(st.integers(1, size - k1))
    rest = order[k1 + k2:]
    subset = {v for v in rest if draw(st.booleans())}
    host = Graph(vertices=range(size), edges=edges)
    return host, frozenset(order[:k1]), frozenset(order[k1:k1 + k2]), subset


@settings(max_examples=400, deadline=None)
@given(side_cases())
def test_separator_layer_matches_oracles(case):
    host, s1, s2, subset = case
    interior = set(host.vertices()) - s1 - s2
    for x in (subset, interior):
        assert is_separator(host, s1, s2, x) == separates(host, s1, s2, x)
    both = min_side_separator(host, s1, s2, include_sides=True)
    assert len(both) == max_disjoint_paths(host, s1, s2, include_sides=True)
    adjacent = any(w in s2 for v in s1 for w in host.neighbors(v))
    if adjacent:
        with pytest.raises(NoSeparatorError):
            min_side_separator(host, s1, s2)
        return
    cut = min_side_separator(host, s1, s2)
    assert len(cut) == max_disjoint_paths(host, s1, s2)
    assert is_minimal_separator_brute(host, s1, s2, cut)
    for x in (set(cut) | subset, interior):
        got = minimalize(host, s1, s2, x)
        assert got == minimalize_reference(host, s1, s2, x)
        assert is_minimal_separator(host, s1, s2, got)
    for x in (subset, set(cut) | subset, set(cut)):
        assert is_minimal_separator(host, s1, s2, x) == (
            is_minimal_separator_brute(host, s1, s2, x)
        )


def test_enlargement_searches_build_no_graph(monkeypatch):
    # Separator checks, enlargement slabs, the connectivity suite and the
    # swallowing component read the enlargement itself, never an induced copy.
    built = []
    original = Graph.from_adjacency.__func__
    monkeypatch.setattr(Graph, "from_adjacency", classmethod(
        lambda cls, adj: built.append(len(adj)) or original(cls, adj)))
    g = build_qn(12)
    st = Staircase(
        ((1, 0, 0), (2, 1, 0), (3, 2, 1), (4, 2, 2), (5, 3, 3), (6, 4, 3))
    )
    enl = enlarge(g, st, 2)
    x = min_side_separator(enl, enl.left_side, enl.right_side)
    assert check_separator_connected(enl, x)
    assert enlargement_as_slab(enl).n == 3
    assert suite_separator_connectivity(samples=5)["violations"] == 0
    outcome = find_blocked_or_bramble(
        build_qn(69), HashPartition(5, bias=26), 1, 1, 1)
    assert isinstance(outcome, BrambleCertificate)
    assert built == []


# An enlargement's cut between its own sides, and the sampler that starts
# from it.

_STAIR_STEPS = ((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1))


def _stair(steps, start=(1, 1, 1)):
    verts = [start]
    for dx, dy, dz in steps:
        x, y, z = verts[-1]
        verts.append((x + dx, y + dy, z + dz))
    return Staircase(tuple(verts))


@st.composite
def enlargement_cases(draw):
    """b <= 4 and a staircase of 3 to 9 vertices, each step advancing x and
    raising y, z, both or neither."""
    steps = draw(st.lists(st.sampled_from(_STAIR_STEPS), min_size=2,
                          max_size=8))
    return _stair(steps), draw(st.integers(0, 4))


@settings(max_examples=60, deadline=None)
@given(enlargement_cases())
@example((_stair([(1, 1, 0), (1, 1, 0), (1, 0, 1)]), 2))  # y-only first
@example((_stair([(1, 1, 1), (1, 0, 1), (1, 0, 1)]), 3))  # z-only last
@example((_stair([(1, 0, 1), (1, 0, 0), (1, 1, 0)]), 4))  # z, then y
def test_enlargement_cut_is_the_square_at_the_second_vertex(case):
    # The sampler starts from this square in place of the cut.
    stair, b = case
    g = build_qn(16)
    enl = enlarge(g, stair, b)
    s1, s2 = enl.left_side, enl.right_side
    square = grid.b_square(stair.vertices[1], b)
    copy = induced_subgraph(g, enl.vertex_set)
    assert square == min_side_separator(enl, s1, s2)
    assert square == min_side_separator(copy, s1, s2)
    assert len(square) == max_disjoint_paths(copy, s1, s2)
    assert len(square) == (b + 1) ** 2


def test_sampler_needs_three_staircase_vertices():
    # One vertex: the sides meet; two: they are adjacent.
    for stair in (_stair([]), _stair([(1, 1, 0)])):
        for b in (0, 2):
            enl = enlarge(build_qn(8), stair, b)
            with pytest.raises(NoSeparatorError):
                sample_minimal_separator(enl, random.Random(0))


def test_enlargement_cut_matches_its_graph_copy_between_any_sides():
    g = build_qn(12)
    enl = enlarge(g, _stair([(1, 1, 0), (1, 0, 1), (1, 1, 1), (1, 0, 0)]), 2)
    s1, s2 = enl.left_side, enl.right_side
    copy = induced_subgraph(g, enl.vertex_set)
    for sides in ((s1, s2), (s2, s1), ({min(s1)}, s2), (s1, {max(s2)})):
        assert min_side_separator(enl, *sides) == min_side_separator(
            copy, *sides)
    both = min_side_separator(enl, s1, s2, include_sides=True)
    assert len(both) == 9
    # Intersecting or adjacent sides have no interior separator.
    for stair in (_stair([]), _stair([(1, 1, 1)])):
        short = enlarge(g, stair, 1)
        with pytest.raises(NoSeparatorError):
            min_side_separator(short, short.left_side, short.right_side)
