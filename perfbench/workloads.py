"""The four benchmark workloads: unit lists, fixtures and the output gate.

A unit is one call into a public ``gridtw`` entry point, the same one a CLI
command makes.  Each workload derives its unit list from the seed alone, so
one seed gives one list; a different seed changes the instances but keeps
the mix (the counts per kind, sizes and biases are fixed).

Every completed unit passes the gate before any number is published: the
package's own validators re-check the certificate, and values fixed by the
mathematics are compared (lambda totals n^2, side-to-side integrals are 2,
the triangulated k x k grid has treewidth k, random graphs agree with the
subset-DP oracle in ``tests/oracles.py``).
"""

import importlib.util
import json
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("audit", "solve", "suites", "build")

# Per-unit deadline in seconds.  Each sits far from the time of every unit
# that completes and from every unit that does not, so the set of timed-out
# units repeats exactly from run to run.  The slowest completing units took
# at most 1.7 s (audit, n=10), 6.9 s (solve, triangulated 5x5 grid), 2.4 s
# (suites, walk integrals) and 1.6 s (build, n=1207) over 40 runs, in slow
# phases of the machine included.  The exact-path n=6 audits and Q_3 run for
# more than 25 s.
DEADLINE_S = {"audit": 6.0, "solve": 15.0, "suites": 8.0, "build": 5.0}

# Treewidth of Q_3, from the exact solver with a validated decomposition.
QN3_TREEWIDTH = 9

MODULES = ("grid", "graphs", "calculus", "decomposition", "separators",
           "slab", "bramble_builder", "harness")


class GateError(AssertionError):
    """A unit's output failed re-verification."""


def check(cond, message):
    if not cond:
        raise GateError(message)


@dataclass
class Unit:
    uid: str
    call: object         # zero-argument callable into gridtw
    gate: object         # output -> certified (bool); raises GateError
    canon: object        # output -> canonical text for the digest


def load_oracles():
    spec = importlib.util.spec_from_file_location(
        "gridtw_bench_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fixtures(workload, gw):
    """The fixed graphs and grids a workload's units and gate use."""
    if workload == "audit":
        return {"slab": {n: gw.slab.qn_as_slab(n) for n in (4, 6)}}
    if workload == "solve":
        return {
            "tri": {k: gw.grid.triangulated_grid(k) for k in (4, 5)},
            "qn": {n: gw.grid.build_qn(n) for n in (2, 3)},
        }
    if workload == "suites":
        return {}  # each suite builds its own grid
    if workload == "build":
        return {"qn": {b: gw.grid.build_qn(_build_size(gw, b))
                       for b in (1, 2)}}
    raise ValueError(workload)


def make_units(workload, gw, fx, seed, tiny=False):
    rng = random.Random(f"{workload}:{seed}")
    maker = {"audit": _audit_units, "solve": _solve_units,
             "suites": _suite_units, "build": _build_units}[workload]
    return maker(gw, fx, rng, tiny)


def _seed(rng):
    return rng.randrange(1 << 30)


# audit: separator audits of Q_n through harness.audit_rows.


def _faces(n):
    s1 = frozenset((0, y, z) for y in range(n) for z in range(n))
    s2 = frozenset((n - 1, y, z) for y in range(n) for z in range(n))
    return s1, s2


def _audit_x_size(gw, fx, n, unit_seed):
    """|X| of the separator audit_rows(n, samples=1, seed) will sample."""
    sample_seed = random.Random(unit_seed).randrange(1 << 62)
    _, _, x = gw.separators.sample_grid_separator(
        fx["slab"][n].graph, random.Random(sample_seed))
    return len(x)


# Sampled separators per pass, by grid side and |X| bucket.  The seed picks
# which samples; the counts per bucket stay fixed, because the audit cost
# depends on |X|: at n=4 an exact solve of |X| >= 18 takes 20 to 70 times
# as long as one of |X| = 16, and at n=6 the exact path (|X| <= 40) runs
# into the deadline while the refutation path (|X| > 40) ends at once.
# About 85% of n=4 samples have |X| = 16, 12% have 17 and 3% have 18-20.
AUDIT_SAMPLES = {
    4: ((16, 16, 340), (17, 17, 50), (18, 99, 3)),
    6: ((0, 40, 1), (41, 99, 1)),
    8: ((0, 999, 4),),
    10: ((0, 999, 1),),
}
AUDIT_PLANES = range(7, 23)


def _audit_units(gw, fx, rng, tiny):
    samples = {4: ((0, 999, 3),), 8: ((0, 999, 1),)} if tiny \
        else AUDIT_SAMPLES
    units = []
    for n, buckets in samples.items():
        wanted = [[lo, hi, k] for lo, hi, k in buckets]
        while any(k for _, _, k in wanted):
            s = _seed(rng)
            size = 0 if wanted[0][:2] == [0, 999] else \
                _audit_x_size(gw, fx, n, s)
            for bucket in wanted:
                if bucket[0] <= size <= bucket[1] and bucket[2]:
                    bucket[2] -= 1
                    units.append(_audit_unit(gw, f"a{n}:{s}", n, s,
                                             plane=False))
    for n in ((7, 8) if tiny else AUDIT_PLANES):
        units.append(_audit_unit(gw, f"p{n}", n, None, plane=True))
    return units


def _audit_unit(gw, uid, n, s, plane):
    harness = gw.harness
    if plane:
        def call():
            return harness.audit_rows(n, separator="plane")
    else:
        def call():
            return harness.audit_rows(n, samples=1, seed=s)
    return Unit(uid, call, lambda out: _audit_gate(gw, n, plane, out),
                lambda out: out[0].to_json())


def _audit_gate(gw, n, plane, reports):
    check(len(reports) == 1 and reports[0] is not None, "no audit report")
    rep = reports[0]
    check(rep.n == n, "report for the wrong grid")
    check(rep.lambda_total == n * n, f"lambda total {rep.lambda_total}")
    check(sum(rep.lambda_doubled.values()) == 2 * n * n,
          "lambda weights do not sum to n^2")
    check(len(rep.path_integrals) == n * n
          and all(v == 2 for v in rep.path_integrals.values()),
          "a side-to-side path integral differs from 2")
    x = frozenset(rep.lambda_doubled)
    check(len(x) == rep.x_size, "x_size disagrees with the weight support")
    q = gw.grid.build_qn(n)
    s1, s2 = _faces(n)
    check(gw.separators.is_separator(q, s1, s2, x), "X does not separate")
    if plane:
        mid = n // 2
        check(x == {(mid, y, z) for y in range(n) for z in range(n)},
              "plane separator is not the middle plane")
    check(rep.passes, "audit reports a failed bound")
    cert = rep.certification
    if cert == "exact":
        check(rep.tw_certified == rep.tw_exact >= rep.threshold,
              "exact certificate below threshold")
        h = q.induced(x)
        upper = gw.decomposition.heuristic_decomposition(h)
        check(gw.decomposition.validate_decomposition(h, upper)
              and upper.width >= rep.tw_exact,
              "exact width above a valid decomposition's width")
    elif cert == "refutation":
        check(rep.tw_certified == rep.threshold, "refutation off threshold")
        h = q.induced(x)
        if rep.threshold == 1:
            check(bool(h.edges()), "tw >= 1 claimed for an edgeless X")
        elif rep.threshold == 2:
            check(gw.decomposition.find_cycle(h) is not None,
                  "tw >= 2 claimed for an acyclic X")
    elif cert == "trivial":
        check(rep.threshold == 0 and rep.tw_certified == 0, "bad trivial")
    else:
        check(cert == "consistent" and rep.tw_certified is None,
              f"unexpected certification {cert}")
    return rep.tw_certified is not None and rep.tw_certified >= rep.threshold


# solve: exact treewidth and partition searches.


def _random_graph(gw, rng, size):
    p = rng.uniform(0.2, 0.5)
    g = gw.graphs.Graph(vertices=range(size))
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < p:
                g.add_edge(i, j)
    return g


def _solve_units(gw, fx, rng, tiny):
    dec = gw.decomposition
    oracles = load_oracles()
    units = []

    def solve_unit(uid, graph, expected):
        def gate(out):
            width, td = out
            want = expected() if callable(expected) else expected
            check(width == want, f"{uid}: width {width}, expected {want}")
            check(td.width == width and dec.validate_decomposition(graph, td),
                  f"{uid}: decomposition does not validate")
            return True
        units.append(Unit(uid, lambda: dec.exact_treewidth(graph), gate,
                          _canon_decomposition))

    sizes = (8, 10) if tiny else [*range(8, 17),
                                  *(8 + i % 6 for i in range(9))]
    for i, size in enumerate(sizes):
        g = _random_graph(gw, rng, size)
        solve_unit(f"r{size}:{i}", g,
                   lambda g=g: oracles.treewidth_by_subset_dp(g))
    solve_unit("tri4", fx["tri"][4], 4)
    solve_unit("q2", fx["qn"][2],
               lambda: oracles.treewidth_by_subset_dp(fx["qn"][2]))
    if not tiny:
        solve_unit("tri5", fx["tri"][5], 5)
        solve_unit("q3", fx["qn"][3], QN3_TREEWIDTH)
    harness = gw.harness
    units.append(Unit(
        "exh2", lambda: harness.exhaustive_partition_search(2),
        lambda out: _partition_gate(gw, oracles, 2, out, True),
        _canon_json))
    for i in range(2 if tiny else 90):
        s = _seed(rng)
        while _largest_class(s, PARTITION_SAMPLES) > PARTITION_MAX_CLASS:
            s = _seed(rng)
        units.append(Unit(
            f"ps3:{s}",
            lambda s=s: harness.sampled_partition_search(
                3, PARTITION_SAMPLES, s),
            lambda out, i=i: _partition_gate(gw, oracles, 3, out, i < 4),
            _canon_json))
    return units


# Partition-search units keep every sampled class of Q_3 at 15 vertices or
# fewer.  Their exact solves then take a few milliseconds with rare tails of
# tens; from 16 vertices on, one class in a few hundred takes 1 to 10 s,
# and how many such classes a seed draws would set the pass time.  The large
# solves are the triangulated 5x5 grid and Q_3.
PARTITION_SAMPLES = 4
PARTITION_MAX_CLASS = 15


def _largest_class(seed, samples, size=27):
    """Largest colour class among the partitions that
    harness.sampled_partition_search(3, samples, seed) draws."""
    rng = random.Random(seed)
    largest = 0
    for _ in range(samples):
        ones = sum(rng.choice((1, 2)) == 1 for _ in range(size))
        largest = max(largest, ones, size - ones)
    return largest


def _canon_decomposition(out):
    width, td = out
    bags = sorted(sorted(bag) for bag in td.bags.values())
    return repr((width, bags, sorted(td.tree_edges)))


def _canon_json(out):
    return json.dumps(out, sort_keys=True)


def _partition_gate(gw, oracles, n, out, use_oracle):
    exhaustive = out["mode"] == "exhaustive"
    value = out["min_max_class_treewidth" if exhaustive
                else "best_max_class_treewidth"]
    bits = out["witness"]
    check(len(bits) == n ** 3 and set(bits) <= {1, 2}, "malformed witness")
    check(out["classes_evaluated"] >= 1, "no class evaluated")
    if exhaustive:
        # The exact minimum over all 2-colourings of Q_2.
        check(value == 1, f"Q_2 partition value {value}, expected 1")
    else:
        check(out["classes_evaluated"] <= out["samples"], "too many classes")
        check(value >= 1, "a Q_3 class partition value below 1")
    q = gw.grid.build_qn(n)
    worst = -1
    for c in (1, 2):
        members = {v for v, b in zip(q.vertices(), bits) if b == c}
        sub = gw.graphs.Graph(vertices=members,
                              edges=[(u, v) for u, v in q.edges()
                                     if u in members and v in members])
        width, td = gw.decomposition.exact_treewidth(sub)
        check(gw.decomposition.validate_decomposition(sub, td)
              and td.width == width, "class decomposition does not validate")
        if use_oracle:
            check(oracles.treewidth_by_subset_dp(sub) == width,
                  "class width disagrees with the subset-DP oracle")
        worst = max(worst, width)
    check(worst == value, f"witness value {worst}, reported {value}")
    return True


# suites: the lemmas property suites as timed units.

SUITE_MIX = {
    # name: (units per pass, samples per call).  The counts put the median
    # inside the homotopy units and p90 inside the balanced-separation
    # units, away from the boundaries between kinds.
    "homotopy_bound": (40, 20),
    "path_weight_identity": (30, 20),
    "balanced_separation": (30, 40),
    "separator_connectivity": (3, 20),
}


def _expected_instances(name, samples):
    if name == "separator_connectivity":
        return max(100, samples // 10)
    return samples


def _suite_units(gw, fx, rng, tiny):
    run_suites = gw.harness.run_suites
    units = []

    def suite_unit(uid, name, n, samples, seed, fixed):
        def gate(rows):
            check(len(rows) == 1 and rows[0]["suite"] == name,
                  f"{uid}: wrong suite rows")
            row = rows[0]
            check(row["violations"] == 0, f"{uid}: {row['violations']} "
                  "violations")
            for key, want in fixed.items():
                check(row[key] == want, f"{uid}: {key} {row[key]} != {want}")
            return True
        units.append(Unit(
            uid, lambda: run_suites(n=n, samples=samples, seed=seed,
                                    names=[name]),
            gate, _canon_json))

    if not tiny:
        # Exhaustive over every walk of length <= 5 in Q_2.
        suite_unit("walk", "walk_integral", 2, 0, _seed(rng),
                   {"instances": 1587442, "walks": 30126})
    suite_unit("triangle", "triangle_bound", 3, 0, 0,
               {"instances": 5520, "triangles": 120})
    for name, (count, samples) in SUITE_MIX.items():
        for _ in range(1 if tiny else count):
            s = _seed(rng)
            suite_unit(f"{name}:{s}", name, 3, samples, s,
                       {"instances": _expected_instances(name, samples)})
    return units


# build: find_blocked_or_bramble over seeds, biases and both colours.

# Cells are (b, bias, colour, seeds per pass).  Biases sit away from the
# ranges where a cell's outcome flips between staircase and bramble from
# seed to seed (about 45-55 and 190-210 out of 256), so every seed gets the
# same mix of outcomes.  At b=2, searching the sparse colour ends in a
# bramble of about 3000 vertices after about 1 s, and the cost of such a
# bramble varies by a sixth from seed to seed; two of them run with a fixed
# partition seed ("anchor" units) so that path is measured without making
# the pass time depend on the workload seed.
BUILD_CELLS = (
    [(1, bias, color, 14) for bias in (26, 64, 84, 104, 128, 152, 172, 230)
     for color in (1, 2)]
    + [(2, bias, color, 1) for bias in (26, 32, 224, 230)
       for color in (1, 2) if (bias < 128) == (color == 2)]
    + [(2, bias, color, 1) for bias in (96, 113, 143, 160)
       for color in (1, 2)]
)
BUILD_ANCHORS = ((2, 26, 1, 0), (2, 230, 2, 0))


def _build_size(gw, b, t=1):
    bb = gw.bramble_builder
    return max(bb.schedule(t, b), bb.required_grid_size(t, b))


def _build_units(gw, fx, rng, tiny):
    cells = [(b, bias, color, _seed(rng))
             for b, bias, color, k in BUILD_CELLS if b == 1 or not tiny
             for _ in range(2 if tiny else k)]
    if not tiny:
        cells += BUILD_ANCHORS
    return [_build_unit(gw, fx["qn"][b], b, bias, color, s)
            for b, bias, color, s in cells]


def _build_unit(gw, g, b, bias, color, s):
    part = gw.separators.HashPartition(s, bias=bias)

    def call():
        return gw.bramble_builder.find_blocked_or_bramble(g, part, 1, b, color)

    return Unit(f"b{b}:{bias}:{color}:{s}", call,
                lambda out: _build_gate(gw, g, part, 1, b, color, out),
                lambda out: _canon_json(out.to_json_obj()))


def _build_gate(gw, g, part, t, b, color, out):
    if out.kind == "staircase":
        check(out.b == b and out.color == color, "staircase for wrong (b,i)")
        check(gw.separators.is_blocked(g, out.staircase, b, color, part),
              "staircase is not blocked")
        return True
    check(out.kind == "bramble", f"unknown outcome {out.kind}")
    sets = [frozenset(s) for s in out.sets]
    union = frozenset().union(*sets)
    check(all(g.has_vertex(v) and part.cls(v) == out.color for v in union),
          "bramble leaves its colour class")
    # Connectivity of a pairwise union only involves its own vertices, so
    # the induced subgraph on the union stands in for the (huge) grid.
    check(gw.decomposition.validate_bramble(g.induced(union), sets),
          "bramble does not validate")
    order = gw.decomposition.bramble_order(sets)
    check(order >= t + 1 and order == out.order,
          f"bramble order {order}, claimed {out.order}")
    return True
