import itertools
import json
import random
import sys
import weakref
from fractions import Fraction

import pytest

from gridtw import harness
from gridtw.calculus import LFunction, Walk, d, indicator, integrate
from gridtw.decomposition import TreeDecomposition, balanced_separation
from gridtw.graphs import Graph, induced_subgraph
from gridtw.grid import build_qn, grid_from_json, triangulated_grid
from gridtw.slab import qn_as_slab

import oracles


def test_subtree_mass_counts_each_vertex_once():
    # A vertex present in several far-side bags contributes its weight once.
    g = Graph(vertices=range(6), edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    bags = {
        0: frozenset([0, 1]),
        1: frozenset([1, 2]),
        2: frozenset([2, 3]),
        3: frozenset([3, 4]),
        4: frozenset([4, 5]),
    }
    td = TreeDecomposition(bags, [(0, 1), (1, 2), (2, 3), (3, 4)])
    lam = {v: Fraction(1) for v in g.vertices()}
    sep = balanced_separation(g, td, lam)
    # Total mass 6 splits within [2, 4]; with multiset semantics the shared
    # bag vertices would be double-counted and the middle third missed.
    mass = sum((lam[v] for v in sep.K - sep.L), Fraction(0))
    assert 2 <= mass <= 4


def test_grid_plane_is_triangulated_grid():
    # The y=0 plane of the grid and the standalone triangulated grid are the
    # same graph under (x, z) relabeling.
    n = 4
    s = qn_as_slab(n)
    row = induced_subgraph(s.graph, s.rows[0])
    relabeled = {
        tuple(sorted(((u[0], u[2]), (v[0], v[2])))) for u, v in row.edges()
    }
    tg = triangulated_grid(n)
    assert relabeled == {tuple(sorted(e)) for e in tg.edges()}


def test_grid_json_explicit_edges_checked():
    g = build_qn(2)
    listed = [(1, 1, 0), (0, 0, 0), (1, 0, 0)]
    ids = sorted(g.vertex_id(v) for v in listed)
    position = {vid: i for i, vid in enumerate(ids)}
    edges = [
        sorted((position[g.vertex_id(u)], position[g.vertex_id(v)]))
        for u, v in g.induced(listed).edges()
    ]
    obj = {"n": 2, "vertices": [list(v) for v in listed], "edges": edges}
    again = grid_from_json(json.dumps(obj))
    assert again.vertices() == ids and again.num_edges() == len(edges)
    obj["edges"] = edges[:-1]  # drop one: now inconsistent
    try:
        grid_from_json(json.dumps(obj))
    except ValueError:
        pass
    else:
        raise AssertionError("inconsistent explicit edges accepted")


def test_audit_never_passes_below_bound():
    rng = random.Random(17)
    for n in (3, 4):
        s = qn_as_slab(n)
        for _ in range(5):
            from gridtw.separators import sample_grid_separator

            _, _, x = sample_grid_separator(s.graph, rng)
            rep = harness.audit_separator(s, x, replay=False)
            assert rep.passes
            if rep.tw_certified is not None:
                assert rep.tw_certified >= rep.threshold


def test_sampled_search_heuristic_regime_deterministic():
    a = harness.sampled_partition_search(5, samples=3, seed=4)
    b = harness.sampled_partition_search(5, samples=3, seed=4)
    assert a == b
    assert a["estimator"] == "heuristic"
    assert a["best_max_class_treewidth"] >= 1


def test_exhaustive_search_symmetry_consistency():
    # Pruned enumeration must agree with the raw enumeration on the 2-grid.
    import itertools

    from gridtw.grid import build_qn as _b

    pruned = harness.exhaustive_partition_search(2)
    positions, neighbours = harness._sorted_rows(_b(2))
    best = None
    for bits in itertools.product((1, 2), repeat=8):
        value, _ = harness._partition_value(
            neighbours, [bits[p] for p in positions])
        best = value if best is None else min(best, value)
    assert pruned["min_max_class_treewidth"] == best == 1


def _colourings(rng, n, count, ones=0.5, max_class=None):
    # Random colourings of Q_n, each position 1 with probability ``ones``,
    # redrawn while a class is over ``max_class`` vertices.
    out = []
    while len(out) < count:
        bits = tuple(1 if rng.random() < ones else 2 for _ in range(n ** 3))
        if max_class is None or max(bits.count(1), bits.count(2)) <= max_class:
            out.append(bits)
    return out


def test_partition_value_matches_solving_each_induced_class():
    # Within the guard: every raw colouring of Q_1, the one-colour (one
    # empty class) colourings of Q_2, random ones of Q_2 and of Q_3.  Q_3
    # classes are kept at 15 vertices or fewer, where exact solves are fast.
    rng = random.Random(31)
    cases = [(1, [(1,), (2,)]),
             (2, [(1,) * 8, (2,) * 8, *_colourings(rng, 2, 40)]),
             (3, _colourings(rng, 3, 12, max_class=15))]
    # Over the guard: Q_5 colourings with both classes over 40 vertices,
    # and with one class inside it.
    cases.append((5, _colourings(rng, 5, 2)
                  + _colourings(rng, 5, 2, ones=0.1)))
    for n, draws in cases:
        g = build_qn(n)
        positions, neighbours = harness._sorted_rows(g)
        for bits in draws:
            got = harness._partition_value(
                neighbours, [bits[p] for p in positions])
            assert got == oracles.partition_value(g, bits), (n, bits)
            assert got[1] == (n < 5)


def test_canonical_form_matches_building_every_image():
    rng = random.Random(7)
    for n in (1, 2, 3):
        perms = harness.verified_automorphisms(n)
        canon = harness._canonicalizer(n)
        for bits in _colourings(rng, n, 30):
            c = canon(bits)
            assert c == oracles.canonical_bits(bits, perms)
            assert canon(tuple(3 - b for b in bits)) == c
            for perm in perms:
                assert canon(tuple(bits[i] for i in perm)) == c


def test_verified_automorphisms_cached_and_edge_preserving():
    perms = harness.verified_automorphisms(3)
    assert isinstance(perms, tuple)
    assert harness.verified_automorphisms(3) is perms
    g = build_qn(3)
    verts = g.vertices()
    index = {v: i for i, v in enumerate(verts)}
    edges = {frozenset((index[u], index[v])) for u, v in g.edges()}
    assert len(set(perms)) == len(perms) == 12
    for perm in perms:
        assert {frozenset((perm[a], perm[b])) for a, b in edges} == edges


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_verified_automorphisms_are_the_coordinate_maps_in_order(n):
    # Each coordinate permutation, then it followed by the antipodal map.
    verts = build_qn(n).vertices()
    index = {v: i for i, v in enumerate(verts)}
    m = n - 1
    want = []
    for p in itertools.permutations(range(3)):
        for flip in (False, True):
            images = [tuple(m - v[i] if flip else v[i] for i in p)
                      for v in verts]
            want.append(tuple(index[w] for w in images))
    assert harness.verified_automorphisms(n) == tuple(want)


def test_builder_level_two():
    # One level deeper: subgrids at level 1 inside the level-2 layout.
    from gridtw.bramble_builder import (
        BlockedStaircase,
        BrambleCertificate,
        find_blocked_or_bramble,
        required_grid_size,
        schedule,
    )
    from gridtw.decomposition import bramble_order, validate_bramble
    from gridtw.separators import HashPartition, is_blocked

    n = max(schedule(0, 2), required_grid_size(0, 2))
    g = build_qn(n)
    for seed, bias in ((0, 128), (1, 40)):
        part = HashPartition(seed, bias=bias)
        res = find_blocked_or_bramble(g, part, 0, 2, 1)
        if isinstance(res, BlockedStaircase):
            assert is_blocked(g, res.staircase, res.b, res.color, part)
        else:
            assert validate_bramble(g, res.sets)
            assert res.order == bramble_order(res.sets)


def test_one_pass_labeling_repair_matches_the_rescan():
    # Zeroing a vertex creates no conflict, so one pass over the edges makes
    # the same repairs as rescanning after each one, and draws the same.
    for n in (2, 3, 4):
        g = build_qn(n)
        verts = g.vertices()
        edges = g.edges()

        def harness_draw(g, rng, pins):
            return harness._random_continuous_labeling(g, edges, rng, pins)

        for seed in range(40):
            pick = random.Random(seed)
            pinned = [(v, pick.choice((-1, 0, 1)))
                      for v in pick.sample(verts, pick.randrange(3))]
            for pins in ((), pinned):
                got, ref = random.Random(seed), random.Random(seed)
                labels = []
                for draw, rng in ((harness_draw, got),
                                  (oracles.random_continuous_labeling, ref)):
                    try:
                        labels.append(draw(g, rng, pins).values)
                    except ValueError:
                        labels.append("pinned labels conflict")
                assert labels[0] == labels[1]
                assert got.getstate() == ref.getstate()


def test_weighted_instances_match_the_build_then_reject_generator():
    # Drawing into masks and rejecting on the min-fill width alone keeps the
    # draws, the rejections and every accepted instance of the generator
    # that built the graph and its decomposition first.
    outcomes = []
    for seed in range(300):
        got, ref = random.Random(seed), random.Random(seed)
        for _ in range(2):
            a = harness.random_weighted_instance(got)
            b = oracles.random_weighted_instance(ref)
            assert (a is None) == (b is None), seed
            outcomes.append(a is None)
            if a is not None:
                (g, td, lam), (g_ref, td_ref, lam_ref) = a, b
                assert g.vertices() == g_ref.vertices()
                assert g.edges() == g_ref.edges()
                assert td.bags == td_ref.bags
                assert td.tree_edges == td_ref.tree_edges
                assert lam == lam_ref
            assert got.getstate() == ref.getstate()
    assert 0 < sum(outcomes) < len(outcomes)


def test_walk_integral_counts_each_broken_labeling(monkeypatch):
    # Flip one edge's sign in every indicator chain: the labelings whose
    # residual-weighted sum is non-zero are exactly those where the flipped
    # pairing misses f(end) - f(start), counted here one by one through
    # integrate(walk, d(f)) with that edge's difference negated instead.
    g = build_qn(2)
    e0 = min(g.edges())

    def flipped(walk):
        chain = indicator(walk)
        if e0 in chain:
            chain[e0] = -chain[e0]
        return chain

    expected = 0
    for seq in harness._all_walks(g, 2):
        walk = Walk(g, list(seq))
        verts = sorted(set(seq))
        for combo in itertools.product((-1, 0, 1), repeat=len(verts)):
            values = dict.fromkeys(g.vertices(), 0)
            values.update(zip(verts, combo))
            f = LFunction(g, values)
            if not f.is_entire(within=verts):
                continue
            df = d(f)
            if e0 in df:
                df[e0] = -df[e0]
            if integrate(walk, df) != f(seq[-1]) - f(seq[0]):
                expected += 1
    assert expected > 0
    monkeypatch.setattr(harness, "indicator", flipped)
    spotted = harness.suite_walk_integral(n=2, max_len=2)["violations"]
    monkeypatch.setattr(harness, "SPOT_CHECKS", 0)
    assert harness.suite_walk_integral(n=2, max_len=2)["violations"] == expected
    # A spot check that lands on a broken labeling counts once more.
    assert spotted >= expected


def test_all_walks_of_q2_are_walks_of_the_grid():
    # suite_walk_integral wraps each of these walks unchecked.
    g = build_qn(2)
    walks = harness._all_walks(g, 5)
    assert len(walks) == 30126
    assert all(g.first_non_edge(seq) is None for seq in walks)


def test_triangles_of_q3_are_closed_walks_of_the_grid():
    # suite_triangle_bound wraps each triangle's closed walk unchecked.
    g = build_qn(3)
    triangles = harness._triangles(g)
    assert triangles
    for u, v, w in triangles:
        assert g.first_non_edge([u, v, w, u]) is None


@pytest.mark.parametrize("n", [3, 4])
def test_random_paths_are_paths_of_the_grid(n):
    # suite_path_weight_identity wraps each of these paths unchecked.
    g = build_qn(n)
    rng = random.Random(n)
    for _ in range(500):
        seq = harness._random_path(g, rng)
        assert g.first_non_edge(seq) is None
        assert len(set(seq)) == len(seq) >= 2


def test_walk_integral_needs_only_the_standard_library(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert harness.suite_walk_integral(n=2, max_len=3) == {
        "suite": "walk_integral",
        "instances": 26574,
        "violations": 0,
        "walks": 1202,
    }


SUITE_ORDER = ["walk_integral", "triangle_bound", "homotopy_bound",
               "path_weight_identity", "balanced_separation",
               "separator_connectivity"]


def test_run_suites_keeps_table_order_and_ignores_unknown_names(monkeypatch):
    for name in SUITE_ORDER:
        monkeypatch.setattr(harness, f"suite_{name}",
                            lambda name=name, **kw: {"suite": name, **kw})

    def run(names):
        return [row["suite"] for row in harness.run_suites(names=names)]

    assert run(None) == SUITE_ORDER
    assert run([]) == SUITE_ORDER
    assert run(["separator_connectivity", "walk_integral"]) == [
        "walk_integral", "separator_connectivity"]
    assert run(["no_such_suite", "triangle_bound"]) == ["triangle_bound"]
    # The per-suite sizes: n clamped per suite, exhaustive fixes 2000 draws.
    rows = harness.run_suites(n=2, exhaustive=True, samples=40, seed=5)
    assert [row.get("n") for row in rows] == [2, 2, 3, 3, None, None]
    assert [row.get("samples") for row in rows] == [None, None, 40, 40,
                                                    2000, 100]


def test_homotopy_suite_rejects_n_below_three():
    for n in (1, 2):
        with pytest.raises(ValueError, match="n >= 3"):
            harness.suite_homotopy_bound(n=n, samples=5)


def test_homotopy_suite_builds_each_strip_certificate_once(monkeypatch):
    # 2 axes x 3 planes x C(3, 2) line pairs = 18 configs at n = 3.
    build = harness.strip_rectangle_certificate
    built = []
    monkeypatch.setattr(harness, "strip_rectangle_certificate",
                        lambda *args: built.append(args) or build(*args))
    for samples in (10, 1100):
        built.clear()
        row = harness.suite_homotopy_bound(n=3, samples=samples, seed=0)
        assert row["instances"] == samples and row["violations"] == 0
        assert len(built) == min(samples, 18)
        assert len(set(built)) == len(built)


def test_homotopy_suite_x_level_labelings_are_entire(monkeypatch):
    # Every fifth labeling of the homotopy suite is an x-level one, built
    # unchecked: a grid step moves x by at most one.
    made = []
    build = harness.LFunction

    def kept(g, values):
        made.append(build(g, values))
        return made[-1]

    monkeypatch.setattr(harness, "LFunction", kept)
    for n in (3, 4):
        made.clear()
        harness.suite_homotopy_bound(n=n, samples=40, seed=n)
        assert len(made) == 40
        assert all(f.is_entire() for f in made[::5])


def test_homotopy_suite_drops_a_certificate_after_its_last_use(monkeypatch):
    # At 20 samples only configs 0 and 1 are used twice, so at most those
    # two certificates are kept beside the one in use.
    build = harness.strip_rectangle_certificate
    verify = harness.verify_almost_homotopic
    refs, alive = [], []

    def tracked(*args):
        cert = build(*args)
        refs.append(weakref.ref(cert[0]))
        return cert

    def counting(*args):
        alive.append(sum(ref() is not None for ref in refs))
        return verify(*args)

    monkeypatch.setattr(harness, "strip_rectangle_certificate", tracked)
    monkeypatch.setattr(harness, "verify_almost_homotopic", counting)
    harness.suite_homotopy_bound(n=3, samples=20, seed=0)
    assert alive == [1, 2] + [3] * 16 + [2, 1]
