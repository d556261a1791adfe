import dataclasses
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridtw
from gridtw import decomposition, harness, slab
from gridtw.calculus import Walk, indicator, integrate_d
from gridtw.decomposition import exact_treewidth
from gridtw.graphs import Graph, induced_subgraph
from gridtw.grid import Staircase, build_qn, enlarge
from gridtw.separators import sample_grid_separator, sample_minimal_separator
from gridtw.slab import (
    Slab,
    audit_separator,
    bound_threshold,
    enlargement_as_slab,
    lambda_assignment,
    qn_as_slab,
    separation_function,
    strip_rectangle_certificate,
)

import oracles
from oracles import sheet_near_triangulation, slab_diagnose


def middle_plane(n):
    mid = n // 2
    return frozenset((mid, y, z) for y in range(n) for z in range(n))


@pytest.mark.parametrize("n", range(1, 13))
def test_grid_slab_validates(n):
    s = qn_as_slab(n)
    ok, why = slab_diagnose(s)
    assert ok, why


def _first_sheets_degree(s):
    # Every sheet is a translate of the first row or the first column, and
    # adjacency depends only on the difference of two vertices.
    nbrs = s.graph.neighbors
    return max((len(sheet.intersection(nbrs(v)))
                for sheet in s.rows[:1] + s.cols[:1] for v in sheet),
               default=0)


def test_grid_slab_max_degree():
    # Delta read off the host's neighbourhoods equals the largest degree of
    # the sheet graphs built by induced_subgraph, and the first row's and
    # column's alone.
    slabs = [qn_as_slab(n) for n in range(1, 9)]
    degrees = [s.max_sheet_degree for s in slabs]
    assert degrees == [0, 3, 6, 6, 6, 6, 6, 6]
    assert degrees == [oracles.max_sheet_degree_built(s) for s in slabs]
    assert degrees == [_first_sheets_degree(s) for s in slabs]


def test_enlargement_slab_max_degree():
    g = build_qn(10)
    st = Staircase(((1, 0, 1), (2, 1, 1), (3, 1, 2), (4, 2, 2)))
    slabs = [enlargement_as_slab(enlarge(g, st, b)) for b in (1, 2, 3)]
    degrees = [s.max_sheet_degree for s in slabs]
    assert degrees == [5, 6, 6]
    assert degrees == [oracles.max_sheet_degree_built(s) for s in slabs]
    assert degrees == [_first_sheets_degree(s) for s in slabs]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), b=st.integers(0, 3))
def test_enlargement_slab_degree_is_read_off_the_first_sheets(seed, b):
    n = 16
    stair = harness.random_staircase(random.Random(seed), n, margin_yz=b)
    s = enlargement_as_slab(enlarge(build_qn(n), stair, b))
    assert s.max_sheet_degree == oracles.max_sheet_degree_built(s)
    assert s.max_sheet_degree == _first_sheets_degree(s)


def test_bound_threshold_values():
    # smallest k with 3*delta*(k+1)^2 >= n^2
    assert bound_threshold(9, 6) == 2
    assert bound_threshold(3, 6) == 0
    assert bound_threshold(13, 6) == 3
    assert bound_threshold(2, 6) == 0


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 10 ** 4))
def test_bound_threshold_is_the_least_k_of_its_definition(n, delta):
    k = bound_threshold(n, delta)
    assert k >= 0
    assert 3 * delta * (k + 1) ** 2 >= n * n
    assert k == 0 or 3 * delta * k * k < n * n


@pytest.mark.parametrize("delta", [0, -1])
def test_bound_threshold_rejects_a_non_positive_delta(delta):
    # No k satisfies the definition when delta <= 0 and n > 0.
    with pytest.raises(ValueError, match="delta must be positive"):
        bound_threshold(5, delta)


def test_slab_rejects_deleted_diagonal():
    # Deleting any one sheet edge from the host breaks the slab: a bounded
    # face becomes a quadrilateral, or a side or path loses an edge.  An
    # x-line edge lies in one row and one column, so Q_3 and Q_4 have 78 and
    # 216 distinct sheet edges.
    cases = 0
    for n in (3, 4):
        s = qn_as_slab(n)
        host_edges = frozenset(s.graph.edges())
        sheet_edges = {
            e for sheet in s.rows + s.cols
            for e in induced_subgraph(s.graph, sheet).edges()
        }
        for e in sorted(sheet_edges):
            broken = Graph(s.graph.vertices(), host_edges - {e})
            ok, why = slab_diagnose(dataclasses.replace(s, graph=broken))
            assert not ok, (n, e)
            u, v = e
            if sum(a != b for a, b in zip(u, v)) == 2:
                # An in-plane diagonal lies inside the sheet.
                assert "near-triangulation" in why, why
            cases += 1
    assert cases == 294


def test_slab_rejects_swapped_rows():
    s = qn_as_slab(4)
    bad = dataclasses.replace(s, rows=[s.rows[1], s.rows[0], *s.rows[2:]])
    assert slab_diagnose(bad) == (
        False, "path (0, 0) vertices differ from intersection"
    )


def test_slab_rejects_row_missing_a_vertex():
    s = qn_as_slab(4)
    bad = dataclasses.replace(s, rows=[s.rows[0] - {(1, 0, 1)}, *s.rows[1:]])
    assert slab_diagnose(bad) == (False, "row 0 is not a near-triangulation")


def test_slab_rejects_overlapping_rows():
    s = qn_as_slab(3)
    bad = Slab(
        graph=s.graph,
        s1=s.s1,
        s2=s.s2,
        rows=[s.rows[0], s.rows[0], s.rows[2]],
        cols=s.cols,
        paths=s.paths,
    )
    ok, why = slab_diagnose(bad)
    assert not ok and "overlap" in why


def test_near_triangulation_path_sheet():
    # A bare path has only the outer face; vacuously triangulated.
    verts = [(x, 0, 0) for x in range(4)]
    edges = {((x, 0, 0), (x + 1, 0, 0)) for x in range(3)}
    ok, outer = sheet_near_triangulation(
        Graph(verts, edges), {v: (v[0], 0) for v in verts}
    )
    assert ok
    assert set(outer) == set(verts)


def test_separation_function_middle_plane():
    n = 3
    s = qn_as_slab(n)
    x = middle_plane(n)
    f = separation_function(s, x)
    assert f.is_entire()
    for v in s.graph.vertices():
        expected = -1 if v[0] < 1 else (0 if v[0] == 1 else 1)
        assert f(v) == expected
    for i in range(n):
        for j in range(n):
            assert integrate_d(s.paths[(i, j)], f) == 2


def test_an_open_reach_gives_a_labeling_that_is_not_entire(monkeypatch):
    # A reach that misses (1, 2, 2) labels it +1 beside its -1 neighbour
    # (0, 2, 2), so is_entire, the check the next test runs, reads False.
    real = slab.side_reach

    def short_reach(*args):
        return real(*args) - {(1, 2, 2)}

    monkeypatch.setattr(slab, "side_reach", short_reach)
    assert not separation_function(qn_as_slab(5), middle_plane(5)).is_entire()


def test_separation_function_is_entire_on_sampled_separators():
    # separation_function does not check entireness: side_reach's closure
    # under neighbours outside X is what makes it hold, here on grid slabs
    # and on enlargement slabs.
    rng = random.Random(21)
    for n in range(3, 7):
        s = qn_as_slab(n)
        for _ in range(5):
            _, _, x = sample_grid_separator(s.graph, rng)
            assert separation_function(s, x).is_entire()
    n = harness.MAX_LEN + 2 * (harness.MAX_B + 1)
    for b in range(harness.MAX_B + 1):
        for _ in range(5):
            enl = enlarge(build_qn(n), harness.random_staircase(
                rng, n, margin_yz=b), b)
            x = sample_minimal_separator(enl, rng)
            f = separation_function(enlargement_as_slab(enl), x)
            assert f.is_entire(within=enl.vertex_set)


def test_separation_function_rejects_non_separator():
    # An X that leaves a side-to-side path, and a separating X that also
    # takes a side vertex.
    s = qn_as_slab(3)
    with pytest.raises(ValueError, match="does not separate"):
        separation_function(s, frozenset({(1, 1, 1)}))
    with pytest.raises(ValueError, match="intersects a side"):
        separation_function(s, middle_plane(3) | {(0, 0, 0)})


def test_lambda_middle_plane():
    n = 3
    s = qn_as_slab(n)
    x = middle_plane(n)
    f = separation_function(s, x)
    lam = lambda_assignment(s, x, f)
    assert set(lam) == set(x)
    assert all(w == 1 for w in lam.values())
    assert sum(lam.values()) == n * n


def test_lambda_sampled_separators_mass():
    # Any separator of the grid slab carries total weight exactly n^2.
    rng = random.Random(8)
    for n in (3, 4):
        s = qn_as_slab(n)
        for _ in range(10):
            _, _, x = sample_grid_separator(s.graph, rng)
            f = separation_function(s, x)
            assert f.is_continuous()
            lam = lambda_assignment(s, x, f)
            assert sum(lam.values()) == n * n
            allowed = {
                Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2),
                Fraction(1),
            }
            assert set(lam.values()) <= allowed


def test_audit_small_n_trivial():
    s = qn_as_slab(3)
    rep = audit_separator(s, middle_plane(3))
    assert rep.threshold == 0
    assert rep.passes and rep.certification == "trivial"
    assert rep.lambda_total == 9
    assert all(v == 2 for v in rep.path_integrals.values())


def test_audit_nine_plane_refutation():
    s = qn_as_slab(9)
    rep = audit_separator(s, middle_plane(9), replay=False)
    assert rep.threshold == 2
    assert rep.certification == "refutation"
    assert rep.tw_certified == 2
    assert rep.passes
    assert rep.lambda_total == 81


def _decide_by_min_fill_above(monkeypatch, floor):
    """Make the audit's width decision accept tw <= k for every k >= floor
    with the min-fill decomposition, which need not have width k."""
    real = slab.decide_width_at_most

    def decide(graph, k):
        if k >= floor:
            return True, decomposition.heuristic_decomposition(graph)
        return real(graph, k)

    monkeypatch.setattr(slab, "decide_width_at_most", decide)


def test_audit_fails_only_when_the_threshold_is_refuted(monkeypatch):
    _decide_by_min_fill_above(monkeypatch, 0)
    (rep,) = harness.audit_rows(7, separator="plane")
    assert rep.threshold == 1
    assert rep.certification == "refuted" and rep.tw_certified is None
    assert not rep.passes
    assert rep.to_json_obj()["pass"] is False
    assert json.loads(rep.to_json())["pass"] is False
    assert rep.csv_row()[-1] == "0"


def test_audit_passes_when_only_a_target_above_the_threshold_is_refuted(
        monkeypatch):
    # The target 3 is refuted, then the plane's 1-core (every vertex has a
    # neighbour) certifies the threshold 1.
    _decide_by_min_fill_above(monkeypatch, 1)
    (rep,) = harness.audit_rows(7, separator="plane", certify_width=3)
    assert rep.threshold == 1
    assert rep.certification == "refutation" and rep.tw_certified == 1
    assert rep.passes
    assert rep.to_json_obj()["pass"] is True
    assert rep.csv_row()[-1] == "1"


def test_audit_never_solves_exactly(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("exact solver called by an audit")

    assert not hasattr(slab, "exact_treewidth")
    monkeypatch.setattr(decomposition, "exact_treewidth", refuse)
    for replay in (False, True):
        reports = []
        for n in range(3, 9):
            reports += harness.audit_rows(n, samples=2, seed=n, replay=replay)
        # Planes from n = 13 have threshold 3 and |X| over the guard: the
        # 3-core refutes there.
        for n in range(7, 17):
            reports += harness.audit_rows(n, separator="plane", replay=replay)
        assert len(reports) == 22
        for rep in reports:
            assert rep.passes
            assert rep.tw_certified == rep.threshold
            assert rep.certification == (
                "trivial" if rep.threshold == 0 else "refutation")
            # Only the bound sandwich gives a width, and only within the
            # guard.
            if rep.n >= 5:
                assert rep.tw_exact is None
            else:
                assert rep.tw_exact >= rep.tw_certified
            assert (rep.pipeline is not None) == replay


def test_audit_rechecks_its_refuting_core(monkeypatch):
    # One vertex has no neighbour inside the set, so it refutes nothing.
    def lone_vertex(graph, k):
        return False, ("core", graph.vertices()[:1])

    monkeypatch.setattr(slab, "decide_width_at_most", lone_vertex)
    with pytest.raises(AssertionError, match="core"):
        audit_separator(qn_as_slab(3), middle_plane(3), replay=False,
                        certify_width=1)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 4]), st.integers(0, 2**32), st.integers(0, 5))
def test_audit_certifies_the_target_below_the_exact_width(n, seed, width):
    s = qn_as_slab(n)
    _, _, x = sample_grid_separator(s.graph, random.Random(seed))
    exact, _ = exact_treewidth(induced_subgraph(s.graph, x))
    rep = audit_separator(s, x, replay=False, certify_width=width)
    target = max(rep.threshold, width)
    assert rep.tw_exact in (None, exact) and rep.passes
    if target <= exact:
        assert target <= rep.tw_certified <= exact
    else:
        # A decomposition below the target certifies nothing; the
        # threshold is settled instead.
        assert rep.tw_certified == rep.threshold <= exact


def test_audit_reports_the_width_when_the_bounds_meet(monkeypatch):
    # Q_3's separators are triangulated 3x3 grids: min-fill and the minor
    # bound both give 3, so the width comes without a search.
    s = qn_as_slab(3)
    _, _, x = sample_grid_separator(s.graph, random.Random(1))
    rep = audit_separator(s, x, replay=False)
    assert rep.tw_exact == exact_treewidth(induced_subgraph(s.graph, x))[0]
    assert rep.certification == "trivial" and rep.tw_certified == 0

    # The n = 6, seed 1 sample is over GUARD: no min-fill bound is computed.
    def refuse(adj):
        raise AssertionError("bounds compared over the guard")

    monkeypatch.setattr(decomposition, "_minfill_order", refuse)
    (over,) = harness.audit_rows(6, samples=1, seed=1)
    assert over.x_size == 42 > decomposition.GUARD
    assert over.tw_exact is None


def test_audit_pipeline_quantities():
    rng = random.Random(11)
    s = qn_as_slab(4)
    _, _, x = sample_grid_separator(s.graph, rng)
    rep = audit_separator(s, x, replay=True)
    pipe = rep.pipeline
    assert pipe is not None and "skipped" not in pipe
    assert pipe["h_identity_ok"]
    assert pipe["h_integrality_ok"]
    assert pipe["h_constant_on_S"]
    assert pipe["deviation_ok"]
    assert pipe["cut_size"] <= pipe["t"] + 1


def _random_greedy_order(graph, rnd, slack):
    """An elimination order that picks, at each step, a random vertex of
    degree at most the current minimum plus ``slack``."""
    adj = {v: set(graph.neighbors(v)) for v in graph.vertices()}
    order = []
    while adj:
        low = min(map(len, adj.values()))
        v = rnd.choice(sorted(u for u, nb in adj.items()
                              if len(nb) <= low + slack))
        nbrs = adj.pop(v)
        for u in nbrs:
            adj[u] |= nbrs - {u}
            adj[u].discard(v)
        order.append(v)
    return order


def _replay_on_greedy_order(n, seed, rnd, slack):
    """The replayed pipeline on a random greedy decomposition of the
    separator that ``seed`` samples in ``Q_n``, with that decomposition."""
    s = qn_as_slab(n)
    _, _, x = sample_grid_separator(s.graph, random.Random(seed))
    h = induced_subgraph(s.graph, x)
    td = oracles.decomposition_from_order(
        h, _random_greedy_order(h, rnd, slack))
    f = separation_function(s, x)
    weights = lambda_assignment(s, x, f)
    delta = max(s.max_sheet_degree, 3)
    return td, slab._replay_pipeline(s, f, weights, delta, h, td)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 4, 5]), st.integers(0, 2**32), st.integers(0, 3),
       st.randoms(use_true_random=False))
def test_replay_holds_on_any_decomposition(n, seed, slack, rnd):
    # The contradiction argument needs a decomposition of width t, not an
    # optimal one.  Random greedy orders give widths from tw(G[X]) up to
    # several above it.
    td, pipe = _replay_on_greedy_order(n, seed, rnd, slack)
    assert pipe["t"] == td.width
    assert ("skipped" in pipe) == (n * n < 3 * td.width + 3)
    if "skipped" not in pipe:
        assert pipe["h_identity_ok"] and pipe["h_integrality_ok"]
        assert pipe["cut_size"] <= pipe["t"] + 1
        if pipe["rows_clear"] and pipe["cols_clear"]:
            assert pipe["h_constant_on_S"] and pipe["deviation_ok"]
        else:
            assert (pipe["deviation_skipped"]
                    == "no clear row or no clear column")
            assert "h_constant_on_S" not in pipe


def test_replay_skips_the_deviation_when_the_cut_meets_every_column():
    # A width-7 decomposition of a Q_5 separator whose cut of 8 vertices
    # meets all five column sheets: S has no clear column, so h need not
    # be constant there and the deviation bound does not apply.
    _, pipe = _replay_on_greedy_order(5, 1, random.Random(8), 2)
    assert (pipe["t"], pipe["cut_size"]) == (7, 8)
    assert pipe["rows_clear"] == [0, 4] and pipe["cols_clear"] == []
    assert pipe["h_identity_ok"] and pipe["h_integrality_ok"]
    assert pipe["deviation_skipped"] == "no clear row or no clear column"
    assert not {"h_constant_on_S", "deviation_ok"} & set(pipe)


def test_audit_report_serialization():
    s = qn_as_slab(3)
    rep = audit_separator(s, middle_plane(3), replay=False)
    obj = json.loads(rep.to_json())
    assert obj["n"] == 3 and obj["lambda_total_doubled"] == 18
    row = rep.csv_row()
    assert row[0] == "3" and row[2] == "18" and row[-1] == "1"


def test_strip_certificates_exact_identity():
    g = build_qn(3)
    for axis in ("y", "z"):
        for plane in range(3):
            for j1 in range(3):
                for j2 in range(j1 + 1, 3):
                    w1, w2, q, r, tris = strip_rectangle_certificate(
                        g, axis, plane, j1, j2
                    )
                    comp = oracles.homotopy_composite(g, w1, w2, q, r)
                    total = {}
                    for t in tris:
                        for e, c in indicator(t).items():
                            total[e] = total.get(e, 0) + c
                    total = {e: c for e, c in total.items() if c}
                    assert total == indicator(comp)


def test_enlargement_slab_validates():
    g = build_qn(10)
    st = Staircase(((1, 0, 1), (2, 1, 1), (3, 1, 2), (4, 2, 2)))
    for b in (1, 2):
        enl = enlarge(g, st, b)
        s = enlargement_as_slab(enl)
        ok, why = slab_diagnose(s)
        assert ok, why
        assert s.n == b + 1
        assert len(s.paths) == (b + 1) ** 2


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), b=st.integers(0, 4))
def test_random_enlargement_slab_validates(seed, b):
    rng = random.Random(seed)
    n = 18
    stair = harness.random_staircase(rng, n, margin_yz=b)
    enl = enlarge(build_qn(n), stair, b)
    ok, why = slab_diagnose(enlargement_as_slab(enl))
    assert ok, why


def test_enlargement_slab_audit():
    g = build_qn(10)
    st = Staircase(((1, 0, 1), (2, 1, 1), (3, 1, 2), (4, 2, 2)))
    enl = enlarge(g, st, 1)
    s = enlargement_as_slab(enl)
    x = min(
        (frozenset({(2, 1 + dy, 1 + dz) for dy in (0, 1) for dz in (0, 1)}),),
    )
    rep = audit_separator(s, x)
    assert rep.passes
    assert rep.lambda_total == (1 + 1) ** 2


def _with_path(s, key, vertices):
    # A walk of the sequence's own path graph, so that a step the host
    # lacks can be written down.
    vs = list(vertices)
    return {"paths": {**s.paths, key: Walk(Graph(vs, zip(vs, vs[1:])), vs)}}


def _swap_middle(path):
    # (0,0,0) (2,0,0) (1,0,0) (3,0,0): both new steps are host non-edges.
    return [path[0], path[2], path[1], *path[3:]]


# Each mutant of Q_4's slab, as the fields it replaces, with the exact first
# failure that slab_diagnose must name.
SLAB_MUTANTS = [
    ("row/column counts differ or are zero",
     lambda s: {"cols": s.cols[:-1]}),
    ("sides intersect", lambda s: {"s2": s.s1}),
    ("empty side", lambda s: {"s1": frozenset()}),
    ("side subgraph disconnected",
     lambda s: {"s1": frozenset({(0, 0, 0), (0, 3, 3)})}),
    ("row 0 misses a side",
     lambda s: {"s1": frozenset(v for v in s.s1 if v[1] != 0)}),
    # The side stays connected and apart from s2; only its run along row 0
    # splits in two.
    ("row 0: side intersection is not a boundary subpath",
     lambda s: {"s1": s.s1 - {(0, 0, 1)}}),
    ("missing path (1, 2)",
     lambda s: {"paths": {k: p for k, p in s.paths.items() if k != (1, 2)}}),
    ("path (0, 0) repeats vertices",
     lambda s: _with_path(s, (0, 0), [*s.paths[(0, 0)].vertices,
                                      s.paths[(0, 0)].vertices[-2]])),
    ("path (0, 0) endpoints not on the sides",
     lambda s: _with_path(s, (0, 0), reversed(s.paths[(0, 0)].vertices))),
    # A path whose steps are not host edges fails the edge comparison, since
    # every row-sheet and column-sheet edge is a host edge.
    ("path (0, 0) edges differ from intersection",
     lambda s: _with_path(s, (0, 0), _swap_middle(s.paths[(0, 0)].vertices))),
    # A path shared by two keys fails the vertex comparison, since rows and
    # columns are disjoint.
    ("path (0, 1) vertices differ from intersection",
     lambda s: {"paths": {**s.paths, (0, 1): s.paths[(0, 0)]}}),
]


@pytest.mark.parametrize("message, mutate", SLAB_MUTANTS,
                         ids=[m for m, _ in SLAB_MUTANTS])
def test_slab_diagnose_names_each_mutant(message, mutate):
    s = qn_as_slab(4)
    assert slab_diagnose(dataclasses.replace(s, **mutate(s))) == (
        False, message)


def test_audits_of_one_slab_build_its_walks_and_delta_once(monkeypatch):
    # The slab's paths are built once, unchecked; no audit checks a walk.
    walks, checked, scans = [], [], []
    walk_unchecked = Walk._unchecked
    delta = Slab.__dict__["max_sheet_degree"]
    delta_scan = delta.func

    def counted_walk(graph, vertices):
        walks.append(len(vertices))
        return walk_unchecked(graph, vertices)

    def counted_scan(s):
        scans.append(s.n)
        return delta_scan(s)

    monkeypatch.setattr(Walk, "_unchecked", staticmethod(counted_walk))
    monkeypatch.setattr(Walk, "__init__",
                        lambda *args: checked.append(args))
    monkeypatch.setattr(delta, "func", counted_scan)
    reports = harness.audit_rows(5, samples=3, seed=1)
    assert len(reports) == 3 and all(rep.delta == 6 for rep in reports)
    assert walks == [5] * 25
    assert checked == []
    assert scans == [5]


# A slab whose path (0, 0) runs backwards, audited at its middle plane, and
# a minimum cut that comes back empty; run under ``python -O``.
_TAMPERED_UNDER_O = """
import dataclasses, sys
from gridtw import separators
from gridtw.calculus import Walk
from gridtw.grid import GridGraph
from gridtw.slab import (
    audit_separator, lambda_assignment, qn_as_slab, separation_function)

print("optimized", sys.flags.optimize >= 1)
s = qn_as_slab(4)
back = Walk(s.graph, s.paths[(0, 0)].vertices[::-1])
bad = dataclasses.replace(s, paths={**s.paths, (0, 0): back})
x = {(2, y, z) for y in range(4) for z in range(4)}
f = separation_function(bad, x)
g = GridGraph(3)
s1, s2 = ({v for v in g.vertices() if v[0] == e} for e in (0, 2))
separators._max_flow_cut = lambda *args: frozenset()
for name, call in (
        ("lambda_assignment", lambda: lambda_assignment(bad, x, f)),
        ("audit_separator", lambda: audit_separator(bad, x, replay=False)),
        ("min_side_separator",
         lambda: separators.min_side_separator(g, s1, s2))):
    try:
        call()
    except AssertionError as exc:
        print(name, exc)
    else:
        print(name, "returned")
"""


def test_certificate_checks_hold_under_python_O():
    src = os.path.dirname(os.path.dirname(gridtw.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-O", "-c", _TAMPERED_UNDER_O],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert run.stdout.splitlines() == [
        "optimized True",
        "lambda_assignment path (0, 0) weight sum is -1, not 1",
        "audit_separator side-to-side integral must be 2",
        "min_side_separator minimum cut does not separate the sides",
    ]
