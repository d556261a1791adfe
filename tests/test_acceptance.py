"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its instance counts and wall time;
tolerances are exact (integer/rational arithmetic) and the time budgets are
asserted as stated.  Run with -s to see the lines as they pass.
"""

import json
import random
import time

import pytest

from gridtw import harness
from gridtw.bramble_builder import (
    BrambleCertificate,
    find_blocked_or_bramble,
    required_grid_size,
)
from gridtw.decomposition import (
    bramble_order,
    decide_width_at_most,
    exact_treewidth,
    validate_bramble,
)
from gridtw.graphs import Graph
from gridtw.grid import build_qn, triangulated_grid
from gridtw.separators import (
    HashPartition,
    NoSeparatorError,
    is_blocked,
    is_separator,
    min_side_separator,
    sample_grid_separator,
)
from gridtw.slab import (
    audit_separator,
    bound_threshold,
    lambda_assignment,
    qn_as_slab,
    separation_function,
)

from oracles import (
    crosses_bramble,
    max_disjoint_paths,
    treewidth_by_permutations,
    treewidth_by_subset_dp,
)


def report(num, name, elapsed, budget, extra=""):
    print(
        f"ACCEPTANCE {num:02d} {name}: PASS"
        f" ({elapsed:.1f}s of {budget}s budget{'; ' + extra if extra else ''})"
    )


def test_acceptance_01_walk_integrals_exhaustive():
    t0 = time.time()
    result = harness.suite_walk_integral(n=2, max_len=5, seed=0)
    elapsed = time.time() - t0
    assert result["violations"] == 0
    assert result["walks"] >= 30000  # every walk of length <= 5
    assert result["instances"] >= 1_500_000
    assert elapsed < 10
    report(1, "walk integrals exhaustive", elapsed, 10,
           f"{result['instances']} pairs over {result['walks']} walks")


def test_acceptance_02_triangle_bound_exhaustive():
    t0 = time.time()
    result = harness.suite_triangle_bound(n=3)
    elapsed = time.time() - t0
    assert result["violations"] == 0
    assert result["triangles"] > 0
    assert elapsed < 10
    report(2, "triangle integral bound exhaustive", elapsed, 10,
           f"{result['instances']} labelings over {result['triangles']} triangles")


def test_acceptance_03_almost_homotopy_bound():
    t0 = time.time()
    result = harness.suite_homotopy_bound(n=3, samples=1100, seed=1)
    elapsed = time.time() - t0
    assert result["violations"] == 0
    assert result["instances"] >= 1000
    assert result["zero_exception_pairs"] > 0  # exact-equality cases included
    assert elapsed < 60
    report(3, "almost-homotopy integral bound", elapsed, 60,
           f"{result['instances']} pairs, {result['zero_exception_pairs']} with k=0")


def test_acceptance_04_path_weight_identity():
    t0 = time.time()
    result = harness.suite_path_weight_identity(n=3, samples=1100, seed=2)
    elapsed = time.time() - t0
    assert result["violations"] == 0
    assert result["instances"] >= 1000
    assert result["holomorphic_cases"] > 0
    assert elapsed < 60
    report(4, "masked path weight identity", elapsed, 60,
           f"{result['instances']} instances, "
           f"{result['holomorphic_cases']} integrality cases")


def test_acceptance_05_balanced_separation():
    t0 = time.time()
    result = harness.suite_balanced_separation(samples=10_000, seed=3)
    elapsed = time.time() - t0
    assert result["violations"] == 0
    assert result["instances"] == 10_000
    assert elapsed < 120
    report(5, "weighted balanced separation", elapsed, 120,
           f"{result['instances']} instances")


def test_acceptance_06_separator_mass_identity():
    t0 = time.time()
    # n = 2: no separator disjoint from the faces exists at all (the faces
    # exhaust the grid), so the mass identity is vacuous there; the cut /
    # packing agreement is checked in its side-inclusive form.
    g2 = build_qn(2)
    s1 = frozenset((0, y, z) for y in range(2) for z in range(2))
    s2 = frozenset((1, y, z) for y in range(2) for z in range(2))
    assert not (set(g2.vertices()) - s1 - s2)
    assert not is_separator(g2, s1, s2, frozenset())
    with pytest.raises(NoSeparatorError):
        min_side_separator(g2, s1, s2)
    cut2 = min_side_separator(g2, s1, s2, include_sides=True)
    assert len(cut2) == 4 == max_disjoint_paths(g2, s1, s2, include_sides=True)

    # n = 3: one hundred sampled minimal separators, exact mass 9 each.
    n = 3
    s = qn_as_slab(n)
    rng = random.Random(6)
    checked = 0
    for _ in range(100):
        _, _, x = sample_grid_separator(s.graph, rng)
        f = separation_function(s, x)
        lam = lambda_assignment(s, x, f)
        assert sum(lam.values()) == n * n
        checked += 1
    cut3 = min_side_separator(s.graph, s.s1, s.s2)
    assert len(cut3) == 9 == max_disjoint_paths(s.graph, s.s1, s.s2)
    elapsed = time.time() - t0
    assert elapsed < 60
    report(6, "separator mass identity", elapsed, 60,
           f"{checked} sampled separators at n=3; n=2 vacuous by exhaustion")


def test_acceptance_07_minimal_separator_connectivity():
    t0 = time.time()
    result = harness.suite_separator_connectivity(samples=110, seed=4)
    elapsed = time.time() - t0
    assert result["violations"] == 0
    assert result["instances"] >= 100
    assert elapsed < 120
    report(7, "minimal separator connectivity", elapsed, 120,
           f"{result['instances']} minimalized separators")


def test_acceptance_08_exact_treewidth_oracles():
    t0 = time.time()
    fixed = [build_qn(2), triangulated_grid(2), triangulated_grid(3)]
    for g in fixed:
        w, td = exact_treewidth(g)
        assert w == treewidth_by_subset_dp(g)
        if g.num_vertices() <= 8:
            assert w == treewidth_by_permutations(g)
    # The 4x4 triangulated grid against the subset DP.
    g4 = triangulated_grid(4)
    w4, _ = exact_treewidth(g4)
    assert w4 == treewidth_by_subset_dp(g4) == 4
    # Fifty random graphs of at most 8 vertices against the permutation
    # brute force (and the DP, for good measure).
    rng = random.Random(8)
    for _ in range(50):
        size = rng.randrange(4, 9)
        g = Graph(vertices=range(size))
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < rng.choice((0.25, 0.5, 0.75)):
                    g.add_edge(i, j)
        w, td = exact_treewidth(g)
        assert w == treewidth_by_permutations(g)
        assert w == treewidth_by_subset_dp(g)
    elapsed = time.time() - t0
    assert elapsed < 300
    report(8, "exact treewidth vs elimination oracles", elapsed, 300,
           "Q_2, 2x2, 3x3, 4x4 grids and 50 random graphs")


def test_acceptance_09_bramble_duality_and_builder():
    t0 = time.time()
    for t in (2, 3):
        g, sets = crosses_bramble(t, triangulated=True)
        assert validate_bramble(g, sets)
        assert bramble_order(sets) == t
        w, _ = exact_treewidth(g)
        assert w >= t - 1
    # Builder outputs over random partitions at both parameter points.
    outcomes = {"staircase": 0, "bramble": 0}
    g15 = build_qn(15)
    for seed in range(50):
        part = HashPartition(seed)
        res = find_blocked_or_bramble(g15, part, 0, 1, 1)
        if isinstance(res, BrambleCertificate):
            outcomes["bramble"] += 1
            assert validate_bramble(g15, res.sets)
            assert res.order == bramble_order(res.sets)
            counts = {}
            for sset in res.sets:
                for v in sset:
                    counts[v] = counts.get(v, 0) + 1
            assert max(counts.values()) <= 2
        else:
            outcomes["staircase"] += 1
            assert is_blocked(g15, res.staircase, res.b, res.color, part)
    n11 = required_grid_size(1, 1)
    g69 = build_qn(n11)
    for seed in range(50):
        bias = 26 if seed % 2 == 0 else 128
        part = HashPartition(seed, bias=bias)
        res = find_blocked_or_bramble(g69, part, 1, 1, 1)
        if isinstance(res, BrambleCertificate):
            outcomes["bramble"] += 1
            assert validate_bramble(g69, res.sets)
            assert res.order == bramble_order(res.sets)
            counts = {}
            for sset in res.sets:
                for v in sset:
                    counts[v] = counts.get(v, 0) + 1
            assert max(counts.values()) <= 2
        else:
            outcomes["staircase"] += 1
            assert is_blocked(g69, res.staircase, res.b, res.color, part)
    assert outcomes["bramble"] > 0 and outcomes["staircase"] > 0
    elapsed = time.time() - t0
    assert elapsed < 300
    report(9, "bramble duality and builder outputs", elapsed, 300,
           f"100 builder runs: {outcomes}")


def test_acceptance_10_partition_search_probe(tmp_path):
    t0 = time.time()
    exact = harness.exhaustive_partition_search(2)
    assert exact["min_max_class_treewidth"] >= 1
    # No proper 2-coloring exists: every partition leaves one class an edge.
    assert exact["min_max_class_treewidth"] == 1
    # The full 3-grid enumeration does not fit the time budget in pure
    # Python, so the criterion's sanctioned downgrade applies: the pruned
    # deterministic sampling bound, stable across runs.
    run_a = harness.sampled_partition_search(3, samples=250, seed=2026)
    run_b = harness.sampled_partition_search(3, samples=250, seed=2026)
    blob_a = json.dumps(run_a, sort_keys=True)
    blob_b = json.dumps(run_b, sort_keys=True)
    assert blob_a == blob_b
    assert run_a["best_max_class_treewidth"] >= 1
    archive = tmp_path / "partition_search_q3.json"
    archive.write_text(blob_a)
    elapsed = time.time() - t0
    assert elapsed < 1800
    report(10, "partition search probe", elapsed, 1800,
           f"n=2 exact value {exact['min_max_class_treewidth']}; "
           f"n=3 sampled bound {run_a['best_max_class_treewidth']} archived")


def test_acceptance_11_slab_bound_probe():
    t0 = time.time()
    n = 9
    s = qn_as_slab(n)
    assert bound_threshold(n, 6) == 2  # ceil(9/sqrt(18) - 1)
    x = frozenset((4, y, z) for y in range(n) for z in range(n))
    # No width-1 decomposition of the separator subgraph exists: its
    # 2-core, a set in which every vertex has two neighbours inside, is
    # non-empty, so the refutation is exact at any size.
    sub = Graph(vertices=x)
    for u, v in s.graph.edges():
        if u in x and v in x:
            sub.add_edge(u, v)
    ok, (kind, core) = decide_width_at_most(sub, 1)
    assert not ok and kind == "core" and core
    inside = set(core)
    assert all(len(inside.intersection(sub.neighbors(v))) >= 2 for v in core)
    rep = audit_separator(s, x, replay=False)
    assert rep.threshold == 2
    assert rep.certification == "refutation"
    assert rep.tw_certified == 2
    assert rep.passes
    elapsed = time.time() - t0
    assert elapsed < 60
    report(11, "slab separator treewidth bound probe", elapsed, 60,
           "width-1 refutation certifies tw >= 2")
