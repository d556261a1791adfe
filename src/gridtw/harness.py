"""Property suites, separator audits, and partition searches.

Everything here is deterministic given its configuration and seed: instances
are generated in a fixed order from a dedicated Random, and results are
emitted in generation order.  The CLI wraps these functions; the acceptance
tests call them directly.
"""

import functools
import itertools
import operator
import random
from fractions import Fraction

from .calculus import (
    _NOT_CONTINUOUS,
    LFunction,
    STAR,
    Walk,
    indicator,
    integrate,
    integrate_d,
    is_contractible,
    path_weights,
    verify_almost_homotopic,
    weight_sum,
    d,
)
from .decomposition import (
    GUARD,
    _bb_order,
    _elimination_decomposition,
    _elimination_width,
    _minfill_order,
    balanced_separation,
)
from .graphs import Graph
from .grid import Staircase, build_qn, enlarge
from .separators import (
    check_separator_connected,
    sample_grid_separator,
    sample_minimal_separator,
)
from .slab import (
    audit_separator,
    qn_as_slab,
    strip_rectangle_certificate,
)


def _all_walks(g, max_len):
    """Every directed walk of length <= max_len, in canonical DFS order."""
    walks = []
    for start in g.vertices():
        stack = [(start,)]
        while stack:
            seq = stack.pop()
            walks.append(seq)
            if len(seq) <= max_len:
                for w in reversed(g.neighbors(seq[-1])):
                    stack.append(seq + (w,))
    return walks


def _entire_assignments(g, vset):
    """All entire labelings of the induced subgraph on vset, as rows."""
    verts = sorted(vset)
    pairs = [
        (i, j)
        for i, u in enumerate(verts)
        for j, v in enumerate(verts)
        if i < j and g.has_edge(u, v)
    ]
    rows = []
    for combo in itertools.product((-1, 0, 1), repeat=len(verts)):
        if any((combo[i], combo[j]) in _NOT_CONTINUOUS for i, j in pairs):
            continue
        rows.append(combo)
    return verts, rows


# Walk/labeling pairs the walk-integral suite re-checks on the scalar path.
SPOT_CHECKS = 2000


def suite_walk_integral(n=2, max_len=5, seed=0):
    """Exhaustive: integral of the difference chain telescopes on every walk.

    Every walk of length <= max_len times every entire labeling of its
    vertex set.  The integral is linear in f, so each walk reduces to one
    residual coefficient per vertex: its indicator chain pushed onto the
    larger (+) and smaller (-) end of each edge, minus end plus start.  A
    labeling violates the identity exactly when the residual-weighted sum
    of its values is non-zero, so only a non-zero residual looks at the
    labelings.
    A seeded sample of pairs is re-checked through the scalar integrate()
    path.
    """
    g = build_qn(n)
    cache = {}
    walks = _all_walks(g, max_len)
    rng = random.Random(seed)
    all_zero = dict.fromkeys(g.vertices(), 0)
    instances = 0
    violations = 0
    spot_budget = SPOT_CHECKS
    for seq in walks:
        vset = frozenset(seq)
        if vset not in cache:
            verts, rows = _entire_assignments(g, vset)
            cache[vset] = (verts, {v: i for i, v in enumerate(verts)}, rows)
        verts, index, rows = cache[vset]
        walk = Walk(g, list(seq))
        residual = [0] * len(verts)
        for (tail, head), coeff in indicator(walk).items():
            residual[index[head]] += coeff
            residual[index[tail]] -= coeff
        residual[index[seq[-1]]] -= 1
        residual[index[seq[0]]] += 1
        terms = [(i, c) for i, c in enumerate(residual) if c]
        if terms:
            violations += sum(
                1 for row in rows if sum(row[i] * c for i, c in terms)
            )
        instances += len(rows)
        if spot_budget > 0 and rng.random() < 0.05:
            row = rows[rng.randrange(len(rows))]
            values = dict(all_zero)
            values.update(zip(verts, row))
            f = LFunction(g, values)
            direct = integrate(walk, d(f))
            expected = row[index[seq[-1]]] - row[index[seq[0]]]
            computed = expected + sum(row[i] * c for i, c in terms)
            if direct != computed or direct != expected:
                violations += 1
            spot_budget -= 1
    return {
        "suite": "walk_integral",
        "instances": instances,
        "violations": violations,
        "walks": len(walks),
    }


def _triangles(g):
    tris = []
    for u, v in g.edges():
        nu = set(g.neighbors(u))
        for w in g.neighbors(v):
            if w > v and w in nu:
                tris.append((u, v, w))
    return tris


def suite_triangle_bound(n=3):
    """Exhaustive: triangle integrals of continuous labelings stay in [-1,1],
    and vanish when the labeling is holomorphic on the triangle."""
    g = build_qn(n)
    tris = _triangles(g)
    instances = 0
    violations = 0
    domain = (-1, 0, 1, STAR)
    all_zero = dict.fromkeys(g.vertices(), 0)
    for u, v, w in tris:
        walk = Walk(g, [u, v, w, u])
        edges = [(u, v), (v, w), (u, w)]
        for combo in itertools.product(domain, repeat=3):
            vals = dict(zip((u, v, w), combo))
            if any((vals[a], vals[b]) in _NOT_CONTINUOUS for a, b in edges):
                continue
            values = dict(all_zero)
            values.update(vals)
            f = LFunction(g, values)
            val = integrate_d(walk, f)
            instances += 1
            if abs(val) > 1:
                violations += 1
            if is_contractible(walk, f) and val != 0:
                violations += 1
    return {
        "suite": "triangle_bound",
        "instances": instances,
        "violations": violations,
        "triangles": len(tris),
    }


def _random_continuous_labeling(g, edges, rng, pinned=()):
    """Random continuous labeling of g, whose edge list is ``edges``;
    pinned (vertex, value) pairs kept fixed.

    Conflicting +1/-1 edges are repaired by zeroing an unpinned endpoint.
    A zero conflicts with nothing, so one pass over the edges repairs all.
    """
    pin = dict(pinned)
    values = {
        v: pin.get(v, rng.choice((-1, 0, 1, STAR))) for v in g.vertices()
    }
    for u, w in edges:
        if (values[u], values[w]) in _NOT_CONTINUOUS:
            target = w if w not in pin else u
            if target in pin:
                raise ValueError("pinned labels conflict")
            values[target] = 0
    return LFunction(g, values)


def suite_homotopy_bound(n=3, samples=1100, seed=0):
    """Constructed almost-homotopic pairs: integral gap bounded by the
    number of non-contractible triangles in the certificate.

    Instance i uses config i mod len(configs); its strip certificate is
    built once and kept only while a later instance will reuse it.
    """
    if n < 3:
        raise ValueError("the homotopy suite needs n >= 3")
    g = build_qn(n)
    verts = g.vertices()
    edges = g.edges()
    rng = random.Random(seed)
    configs = [
        (axis, plane, j1, j2)
        for axis in ("y", "z")
        for plane in range(n)
        for j1 in range(n)
        for j2 in range(j1 + 1, n)
    ]
    certs = {}
    instances = 0
    violations = 0
    zero_k = 0
    while instances < samples:
        i = instances % len(configs)
        cert = certs.pop(i, None) or strip_rectangle_certificate(g, *configs[i])
        if instances + len(configs) < samples:
            certs[i] = cert
        w1, w2, q, r, tris = cert
        cq, cr = rng.choice((-1, 0, 1)), rng.choice((-1, 0, 1))
        pinned = [(v, cq) for v in q.vertices] + [(v, cr) for v in r.vertices]
        if instances % 5 == 0:
            # Forced zero-exception certificate: an entire x-level labeling.
            cut = rng.randrange(1, n - 1)
            values = {
                v: (-1 if v[0] < cut else (0 if v[0] == cut else 1))
                for v in verts
            }
            f = LFunction(g, values)
            if not f.is_entire():
                raise AssertionError("x-level labeling must be entire")
        else:
            f = _random_continuous_labeling(g, edges, rng, pinned)
        # q (x = 0) and r (x = n - 1) share no edge, so their pins never
        # conflict; they are constant and star-free, so repair never changes
        # a pinned label, and the x-level labeling is constant on both.
        flags = [is_contractible(t, f) for t in tris]
        ordered = ([t for t, c in zip(tris, flags) if not c]
                   + [t for t, c in zip(tris, flags) if c])
        k = flags.count(False)
        instances += 1
        if k == 0:
            zero_k += 1
        if not verify_almost_homotopic(w1, w2, q, r, ordered, f, k):
            violations += 1
            continue
        gap = abs(integrate_d(w1, f) - integrate_d(w2, f))
        if gap > k:
            violations += 1
        if k == 0 and gap != 0:
            violations += 1
    return {
        "suite": "homotopy_bound",
        "instances": instances,
        "violations": violations,
        "zero_exception_pairs": zero_k,
    }


def _random_path(g, rng):
    v = rng.choice(g.vertices())
    seq = [v]
    seen = {v}
    for _ in range(rng.randrange(2, 8)):
        nbrs = [w for w in g.neighbors(seq[-1]) if w not in seen]
        if not nbrs:
            break
        w = rng.choice(nbrs)
        seq.append(w)
        seen.add(w)
    return seq if len(seq) >= 2 else None


def suite_path_weight_identity(n=3, samples=1100, seed=0):
    """Random star-masked labelings along paths: half the masked integral
    equals the interior weight of the surviving zeros, integrality included."""
    g = build_qn(n)
    all_zero = dict.fromkeys(g.vertices(), 0)
    rng = random.Random(seed)
    instances = 0
    violations = 0
    holomorphic_cases = 0
    while instances < samples:
        seq = _random_path(g, rng)
        if seq is None:
            continue
        path = Walk(g, seq)
        vset = sorted(path.vertex_set())
        pairs = [(u, w) for i, u in enumerate(vset) for w in vset[i + 1:]
                 if g.has_edge(u, w)]
        for _ in range(60):
            vals = {v: rng.choice((-1, 0, 1)) for v in vset}
            vals[seq[0]] = rng.choice((-1, 1))
            vals[seq[-1]] = rng.choice((-1, 1))
            if not any((vals[u], vals[w]) in _NOT_CONTINUOUS
                       for u, w in pairs):
                break
        else:
            continue
        f_values = dict(all_zero)
        f_values.update(vals)
        f = LFunction(g, f_values)
        zeros = [v for v in seq if vals[v] == 0]
        masked = {v for v in zeros if rng.random() < 0.5}
        g_values = dict(f_values)
        for v in masked:
            g_values[v] = STAR
        g_fun = LFunction(g, g_values)
        x = {v for v in zeros if v not in masked}
        weights = path_weights(path, f)
        lhs = Fraction(integrate_d(path, g_fun), 2)
        rhs = weight_sum(weights, x)
        instances += 1
        if lhs != rhs:
            violations += 1
        if g_fun.is_holomorphic(within=path.vertex_set()):
            holomorphic_cases += 1
            if rhs.denominator != 1:
                violations += 1
    return {
        "suite": "path_weight_identity",
        "instances": instances,
        "violations": violations,
        "holomorphic_cases": holomorphic_cases,
    }


# Vertex counts of the random weighted instances, both ends included.
MIN_V, MAX_V = 6, 13
# The connectivity suite's largest b and longest random staircase.
MAX_B, MAX_LEN = 2, 10


def random_weighted_instance(rng):
    """(graph, decomposition, weights) meeting the separation preconditions.

    The graph on range(size) takes each pair i < j, in order, with
    probability p.  Its min-fill decomposition of width t admits weights
    of total 3t+3 only when size >= 3t+3, that is t < size // 3, so the
    draw is rejected (None) as soon as the min-fill width reaches
    size // 3, before any ``Graph`` or bag is built.
    """
    size = rng.randrange(MIN_V, MAX_V + 1)
    p = rng.uniform(0.15, 0.5)
    adj = [0] * size
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    width, order = _minfill_order(adj, stop=size // 3)
    if order is None:
        return None  # each vertex adds at most 1: no weights can reach 3t+3
    verts = list(range(size))
    g = Graph.from_adjacency(
        {i: [j for j in verts if adj[i] >> j & 1] for i in verts})
    td = _elimination_decomposition(verts, adj, order)
    target2 = 2 * (3 * width + 3)
    lam2 = {v: rng.choice((-2, -1, 0, 1, 2)) for v in verts}
    total2 = sum(lam2.values())
    boost = list(verts)
    rng.shuffle(boost)
    # Raising every vertex to 1 gives size >= 3t+3, so this reaches the target.
    for v in boost:
        if total2 >= target2:
            break
        total2 += 2 - lam2[v]
        lam2[v] = 2
    return g, td, {v: Fraction(c, 2) for v, c in lam2.items()}


def suite_balanced_separation(samples=10_000, seed=0):
    """Random decomposition/weight instances; the separation postconditions
    are re-verified here, independent of the solver's own assertions."""
    rng = random.Random(seed)
    instances = 0
    violations = 0
    while instances < samples:
        inst = random_weighted_instance(rng)
        if inst is None:
            continue
        g, td, lam = inst
        total = sum(lam.values())
        t = td.width
        sep = balanced_separation(g, td, lam)
        instances += 1
        k_only, l_only = sep.K - sep.L, sep.L - sep.K
        mass = sum((lam[v] for v in k_only), Fraction(0))
        if not (Fraction(1, 3) * total <= mass <= Fraction(2, 3) * total):
            violations += 1
        if len(sep.cut) > t + 1:
            violations += 1
        if sep.K | sep.L != set(g.vertices()):
            violations += 1
        for u, w in g.edges():
            if (u in k_only and w in l_only) or (u in l_only and w in k_only):
                violations += 1
                break
    return {
        "suite": "balanced_separation",
        "instances": instances,
        "violations": violations,
    }


def random_staircase(rng, n, margin_yz):
    """Random staircase of 3 to MAX_LEN vertices (at most n) with enough
    room for b-squares up to margin_yz."""
    length = rng.randrange(3, MAX_LEN + 1)
    length = min(length, n)
    x0 = rng.randrange(0, n - length + 1)
    budget = n - 1 - margin_yz
    y = rng.randrange(0, max(1, budget // 2))
    z = rng.randrange(0, max(1, budget // 2))
    verts = [(x0, y, z)]
    for i in range(1, length):
        dy = rng.randint(0, 1) if y < budget else 0
        dz = rng.randint(0, 1) if z < budget else 0
        y += dy
        z += dz
        verts.append((x0 + i, y, z))
    return Staircase(tuple(verts))


def suite_separator_connectivity(samples=120, seed=0):
    """Minimalized side separators of staircase enlargements are connected."""
    rng = random.Random(seed)
    instances = 0
    violations = 0
    while instances < samples:
        b = rng.randint(0, MAX_B)
        n = MAX_LEN + 2 * (MAX_B + 1)
        g = build_qn(n)
        # At least three vertices, with room for the b-enlargement in y and z.
        stair = random_staircase(rng, n, margin_yz=b)
        enl = enlarge(g, stair, b)
        x = sample_minimal_separator(enl, enl.left_side, enl.right_side, rng)
        instances += 1
        if not check_separator_connected(enl, x):
            violations += 1
    return {
        "suite": "separator_connectivity",
        "instances": instances,
        "violations": violations,
    }


def run_suites(n=2, exhaustive=False, samples=1000, seed=0, names=None):
    """Run the named suites (all of them when ``names`` is empty), in the
    table's order; unknown names are ignored.

    ``exhaustive`` affects only the balanced-separation suite, which then
    draws 2000 instances whatever ``samples`` says.
    """
    table = {
        "walk_integral": lambda: suite_walk_integral(n=min(n, 2), seed=seed),
        "triangle_bound": lambda: suite_triangle_bound(n=min(n, 3)),
        "homotopy_bound": lambda: suite_homotopy_bound(
            n=max(n, 3), samples=samples, seed=seed),
        "path_weight_identity": lambda: suite_path_weight_identity(
            n=max(n, 3), samples=samples, seed=seed),
        "balanced_separation": lambda: suite_balanced_separation(
            samples=2000 if exhaustive else samples, seed=seed),
        "separator_connectivity": lambda: suite_separator_connectivity(
            samples=max(100, samples // 10), seed=seed),
    }
    return [run() for name, run in table.items()
            if not names or name in names]


# Separator audits.


def audit_rows(n, samples=0, separator="sampled", seed=0, replay=False,
               certify_width=None):
    """Audit reports for sampled or canonical separators of the grid slab.

    Each sample draws its separator from its own RNG, seeded in sample
    order from ``seed``.  ``certify_width`` raises the width each audit
    certifies above the threshold (``audit_separator``).
    """
    s = qn_as_slab(n)

    def audit(x):
        return audit_separator(s, x, replay=replay, certify_width=certify_width)

    if separator == "plane":
        mid = n // 2
        if 1 <= mid <= n - 2:
            x = frozenset((mid, y, z) for y in range(n) for z in range(n))
            return [audit(x)]
        return [None]  # degenerate: no interior plane exists
    master = random.Random(seed)
    reports = []
    for _ in range(samples):
        rng = random.Random(master.randrange(1 << 62))
        _, _, x = sample_grid_separator(s.graph, rng)
        reports.append(audit(x))
    return reports


# Partition searches.


@functools.cache
def verified_automorphisms(n):
    """The 12 automorphisms of Q_n that permute the coordinates, each
    alone and then followed by v -> (n-1) - v, as index permutations of
    ``vertices()``.

    Each one is checked to map the edge set onto itself before it is
    returned; the result is computed once per process for each n.
    """
    g = build_qn(n)
    verts = g.vertices()
    index = {v: i for i, v in enumerate(verts)}
    m = n - 1
    perms = []
    for p, q, r in itertools.permutations(range(3)):
        moved = [(v[p], v[q], v[r]) for v in verts]
        perms.append(tuple([index[v] for v in moved]))
        perms.append(tuple([index[(m - x, m - y, m - z)]
                            for x, y, z in moved]))
    edges = {frozenset((index[u], index[w])) for u, w in g.edges()}
    for k, perm in enumerate(perms):
        if {frozenset((perm[a], perm[b])) for a, b in edges} != edges:
            raise AssertionError(f"map {k} is not an automorphism of Q_{n}")
    return tuple(perms)


def _picker(idx):
    """``bits -> tuple(bits[i] for i in idx)``, as one itemgetter; an
    itemgetter of one index returns a scalar, so that case gets a tuple."""
    if len(idx) == 1:
        i, = idx
        return lambda bits: (bits[i],)
    return operator.itemgetter(*idx)


def _canonicalizer(n):
    """``bits -> its least image`` under the verified automorphisms of Q_n
    and the class swap.  The swap commutes with every position permutation,
    so the swapped images are the permuted swapped bits."""
    getters = [_picker(perm) for perm in verified_automorphisms(n)]

    def canon(bits):
        swapped = tuple([3 - c for c in bits])
        return min(min([get(bits) for get in getters]),
                   min([get(swapped) for get in getters]))

    return canon


def _sorted_rows(g):
    """(positions, neighbours) of the grid over its vertices in sorted
    order, the order ``Graph.vertices()`` gives an induced subgraph:
    positions[i] is the index in ``g.vertices()`` of the i-th vertex and
    neighbours[i] lists the sorted indices of its grid neighbours."""
    verts = g.vertices()
    positions = sorted(range(len(verts)), key=verts.__getitem__)
    rank = {verts[p]: i for i, p in enumerate(positions)}
    return positions, [[rank[w] for w in g.neighbors(verts[p])]
                       for p in positions]


def _partition_value(neighbours, colours):
    """(the larger class width, whether both classes were solved exactly).

    ``neighbours`` is the grid's from ``_sorted_rows`` and ``colours[i]``
    the class of its i-th vertex.  A class's masks are its members' rows
    with each member renumbered by its rank in the class: exactly the masks
    of the subgraph the class induces, so no graph or decomposition is
    built.  Within the exact solver's guard the branch and bound's order is
    replayed to check its width; over it, the min-fill width stands in, an
    upper bound on the class's width.
    """
    local = []
    count = [0, 0, 0]
    for c in colours:
        local.append(1 << count[c])
        count[c] += 1
    masks = ([], [], [])
    for c, row in zip(colours, neighbours):
        mask = 0
        for u in row:
            if colours[u] == c:
                mask |= local[u]
        masks[c].append(mask)
    worst, exact = -1, True
    for adj in masks[1:]:
        if len(adj) > GUARD:
            w, exact = _minfill_order(adj)[0], False
        else:
            w, order = _bb_order(adj)
            assert _elimination_width(adj, order) == w
        worst = max(worst, w)
    return worst, exact


def _best_partition(n, draws):
    """Evaluate each distinct partition among ``draws`` up to symmetry.

    Returns (smallest value, its canonical bits, partitions evaluated,
    whether every class evaluated was solved exactly).  The grid's rows,
    the canonical form and the reordering of bits into sorted vertex order
    are built once per call.
    """
    g = build_qn(n)
    positions, neighbours = _sorted_rows(g)
    in_sorted_order = _picker(positions)
    canonical = _canonicalizer(n)
    seen = set()
    best = None
    best_bits = None
    all_exact = True
    for raw in draws:
        canon = canonical(raw)
        if canon in seen:
            continue
        seen.add(canon)
        value, exact = _partition_value(neighbours, in_sorted_order(canon))
        all_exact = all_exact and exact
        if best is None or value < best:
            best = value
            best_bits = canon
    return best, best_bits, len(seen), all_exact


def exhaustive_partition_search(n):
    """Exact minimum over all 2-partitions of the larger class treewidth.

    Symmetry pruning via verified automorphisms plus the class swap.
    Guarded to n <= 2: n = 3 has 2^27 partitions.  At n <= 2 the whole grid,
    the one-class partition's class, has at most 8 vertices, within GUARD.
    """
    if n > 2:
        raise ValueError("exhaustive search is guarded to n <= 2")
    best, best_bits, evaluated, _ = _best_partition(
        n, itertools.product((1, 2), repeat=n ** 3)
    )
    return {
        "mode": "exhaustive",
        "n": n,
        "min_max_class_treewidth": best,
        "classes_evaluated": evaluated,
        "witness": list(best_bits),
    }


def sampled_partition_search(n, samples, seed):
    """Deterministic sampled upper bound on the partition search value.

    Class treewidths are exact while a class is within the solver's guard;
    beyond it the min-fill width stands in (still an upper bound per
    class).  The result's estimator is "exact" only if every class was
    solved exactly.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    size = n ** 3
    rng = random.Random(seed)
    draws = (
        tuple(rng.choice((1, 2)) for _ in range(size)) for _ in range(samples)
    )
    best, best_bits, evaluated, all_exact = _best_partition(n, draws)
    return {
        "mode": "sampled",
        "n": n,
        "samples": samples,
        "seed": seed,
        "estimator": "exact" if all_exact else "heuristic",
        "best_max_class_treewidth": best,
        "classes_evaluated": evaluated,
        "witness": list(best_bits),
    }
