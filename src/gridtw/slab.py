"""Slabs: side-to-side path grids made of near-triangulation sheets.

A slab is a host graph with two side subgraphs, n pairwise-disjoint "row"
sheets and n "column" sheets, every row/column intersection being a
side-to-side path.  A sheet is a frozenset of host vertices: the audit reads
only the path matrix, the sheets' vertex sets and Δ, the largest degree
inside one sheet, which is computed on first read and kept.  No sheet graph
or embedding is built here: ribbon slabs are slabs by construction, paths
included, and the validator that checks them is ``oracles.slab_diagnose``.

Every slab built here is a ribbon slab: the b-enlargement of a staircase,
cut into its constant-dy rows and constant-dz columns.  The builder makes
the sides (the b-squares at the staircase's ends) and each path, a
``calculus.Walk`` of the host wrapping one of ``grid.offset_copies``, once
with the slab, unchecked.  ``Q_n`` is the ribbon slab of the x-axis
staircase with b = n - 1, whose sides are the two x-faces.

The audit machinery reproduces, in exact arithmetic, the quantities that
force a separator of the slab to induce a high-treewidth subgraph: the
side-distinguishing labeling, the half-integer path weights summing to n^2,
the balanced separation of the separator subgraph, the star-masked labeling
and its per-path integrals, and the final deviation inequality.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .calculus import STAR, LFunction, Walk, integrate_d, weight_sum
from .decomposition import (
    SizeGuardError,
    balanced_separation,
    decide_width_at_most,
    heuristic_decomposition,
    is_core,
    treewidth_if_bounds_meet,
)
from .graphs import induced_subgraph
from .grid import GridGraph, Staircase, b_square, offset_copies
from .separators import side_reach


@dataclass
class Slab:
    """Host graph, sides, row/column sheets, and the path matrix."""

    graph: object
    s1: frozenset
    s2: frozenset
    rows: list  # frozensets of host vertices
    cols: list
    paths: dict  # (i, j) -> Walk of the host, directed from s1 to s2

    @property
    def n(self):
        return len(self.rows)

    @cached_property
    def max_sheet_degree(self):
        """The largest degree inside one sheet's induced subgraph."""
        nbrs = self.graph.neighbors
        return max(
            (len(sheet.intersection(nbrs(v)))
             for sheet in self.rows + self.cols for v in sheet),
            default=0,
        )


# Ribbon slabs: the diagonal grid and staircase enlargements.


def _ribbon_slab(host, base, b):
    """The b-enlargement of the staircase ``base`` in ``host`` as a
    (b+1) x (b+1) slab whose sides are the b-squares at its ends.

    Rows are the constant-dy ribbons, columns the constant-dz ribbons;
    their intersections are the staircase's ``offset_copies``, each wrapped
    once as an unchecked walk of the host.
    """
    span = range(b + 1)
    paths = {ij: Walk._unchecked(host, path)
             for ij, path in offset_copies(base, b).items()}
    rows = [frozenset(v for dz in span for v in paths[(dy, dz)].vertices)
            for dy in span]
    cols = [frozenset(v for dy in span for v in paths[(dy, dz)].vertices)
            for dz in span]
    return Slab(graph=host, s1=b_square(base.first, b),
                s2=b_square(base.last, b), rows=rows, cols=cols, paths=paths)


def qn_as_slab(n):
    """Q_n as the ribbon slab of the x-axis staircase with b = n - 1.

    The sides are the x-faces, the rows the y-planes, the columns the
    z-planes, and path (i, j) is the x-line (., i, j).
    """
    return _ribbon_slab(
        GridGraph(n), Staircase(tuple((x, 0, 0) for x in range(n))), n - 1)


def enlargement_as_slab(enl):
    """A staircase b-enlargement as a (b+1) x (b+1) ribbon slab."""
    return _ribbon_slab(enl, enl.base, enl.b)


# Labeling, weights, and the audit.


def separation_function(slab, x):
    """Side-distinguishing labeling: -1 on the s1 side, 0 on x, +1 beyond;
    entire, unchecked, since ``side_reach`` closes the -1 set outside x."""
    x = frozenset(x)
    reach = side_reach(slab.graph, slab.s1, slab.s2, x)
    if reach is None:
        raise ValueError("x does not separate the sides")
    values = dict.fromkeys(slab.graph.vertices(), 1)
    values.update(dict.fromkeys(reach, -1))
    values.update(dict.fromkeys(x, 0))
    return LFunction(slab.graph, values)


def lambda_assignment(slab, x, f):
    """Half-integer weights on x: per path, half (next minus previous).

    Supported on x; each path's weights sum to one, the total to n^2.
    """
    x = frozenset(x)
    weights = {v: Fraction(0) for v in x}
    for ij, walk in slab.paths.items():
        path = walk.vertices
        on_path = [k for k, v in enumerate(path) if v in x]
        acc = Fraction(0)
        for k in on_path:
            if k == 0 or k == len(path) - 1:
                raise ValueError("separator vertex at a path endpoint")
            w = Fraction(f(path[k + 1]) - f(path[k - 1]), 2)
            weights[path[k]] = w
            acc += w
        if acc != 1:
            raise AssertionError(f"path {ij} weight sum is {acc}, not 1")
    total = sum(weights.values(), Fraction(0))
    if total != slab.n ** 2:
        raise AssertionError(f"total weight {total} differs from n^2")
    return weights


def bound_threshold(n, delta):
    """Smallest integer k >= 0 with 3*delta*(k+1)^2 >= n^2, that is with
    (k+1)^2 >= c = ceil(n^2 / (3*delta)); so k >= n/sqrt(3d) - 1."""
    if delta < 1:
        raise ValueError("delta must be positive")
    c = -(-n * n // (3 * delta))
    return math.isqrt(c - 1) if c else 0


@dataclass
class AuditReport:
    n: int
    delta: int
    x_size: int
    lambda_doubled: dict
    lambda_total: Fraction
    path_integrals: dict
    bound_value: float
    threshold: int
    tw_certified: object  # certified lower bound (the target or threshold)
    # exact width, found only when the min-fill and minor bounds meet
    # within GUARD vertices; None otherwise
    tw_exact: object
    # trivial | refutation (a degree core at any size, or a capped search
    # within GUARD vertices) | refuted | consistent
    certification: str
    pipeline: object = None

    @property
    def passes(self):
        """The audit fails only when the threshold itself is refuted."""
        return self.certification != "refuted"

    def to_json_obj(self):
        obj = {
            "n": self.n,
            "delta": self.delta,
            "x_size": self.x_size,
            "lambda_total_doubled": int(self.lambda_total * 2),
            "lambda_doubled": {
                ",".join(map(str, v)): int(w)
                for v, w in sorted(self.lambda_doubled.items())
            },
            "path_integrals": {
                f"{i},{j}": val
                for (i, j), val in sorted(self.path_integrals.items())
            },
            "bound_milli": round(self.bound_value * 1000),
            "threshold": self.threshold,
            "tw_certified": self.tw_certified,
            "tw_exact": self.tw_exact,
            "certification": self.certification,
            "pass": self.passes,
        }
        if self.pipeline is not None:
            obj["pipeline"] = self.pipeline
        return obj

    def to_json(self):
        return json.dumps(self.to_json_obj(), sort_keys=True)

    def csv_row(self):
        return [
            str(self.n),
            str(self.x_size),
            str(int(self.lambda_total * 2)),
            str(round(self.bound_value * 1000)),
            "" if self.tw_certified is None else str(self.tw_certified),
            "1" if self.passes else "0",
        ]


def audit_separator(slab, x, replay=True, certify_width=None):
    """Check a separator of the slab against the treewidth lower bound.

    The audit certifies the target width max(threshold, certify_width):
    the paper's claim is only tw(G[X]) >= threshold, so no search for
    tw(G[X]) runs for the verdict.  The report's ``certification`` says how
    the target was settled: "trivial" (target 0, met by any non-empty X),
    "refutation" (the width decision refuted tw <= target-1 by a vertex set
    in which each vertex has at least target neighbours, at any size, or by
    a capped search when |X| is within the solver's GUARD; tw_certified is
    then the target, and the core is re-checked on the slab graph),
    "refuted" (it found a decomposition of width below the target) or
    "consistent" (no core, and |X| is over GUARD; nothing certified).  A
    decomposition is only an upper bound, so when the target above the
    threshold is refuted or is over GUARD, the threshold is settled the
    same way; the audit fails only when a decomposition below the
    threshold turns up.  When |X| is within GUARD, tw_exact is reported
    when the min-fill width meets the minor-min-width bound, which needs
    no search.

    With replay=True the contradiction pipeline is reproduced, with its
    identities checked, on the min-fill decomposition of G[X]: the
    argument holds for any decomposition, so none is solved for.
    """
    x = frozenset(x)
    n = slab.n
    delta = max(slab.max_sheet_degree, 3)
    f = separation_function(slab, x)
    integrals = {ij: integrate_d(walk, f) for ij, walk in slab.paths.items()}
    if set(integrals.values()) != {2}:
        raise AssertionError("side-to-side integral must be 2")
    weights = lambda_assignment(slab, x, f)
    total = sum(weights.values(), Fraction(0))
    threshold = bound_threshold(n, delta)
    bound_value = n / math.sqrt(3 * delta) - 1

    target = max(threshold, certify_width or 0)
    h_graph = induced_subgraph(slab.graph, x)
    tw_exact = treewidth_if_bounds_meet(h_graph)
    tw_certified = None
    # A target above the threshold that is not certified says nothing
    # about the threshold, which still decides the verdict.
    for goal in sorted({target, threshold}, reverse=True):
        if goal == 0:
            # Any separator is non-empty, so its treewidth is at least 0.
            tw_certified, certification = 0, "trivial"
            break
        try:
            ok, cert = decide_width_at_most(h_graph, goal - 1)
        except SizeGuardError:
            certification = "consistent"
            continue
        if not ok:
            kind, witness = cert
            if kind == "core" and not is_core(slab.graph, witness, x, goal):
                raise AssertionError("refuting core fails its check")
            tw_certified, certification = goal, "refutation"
            break
        certification = "refuted"

    report = AuditReport(
        n=n,
        delta=delta,
        x_size=len(x),
        lambda_doubled={v: int(w * 2) for v, w in weights.items()},
        lambda_total=total,
        path_integrals=integrals,
        bound_value=bound_value,
        threshold=threshold,
        tw_certified=tw_certified,
        tw_exact=tw_exact,
        certification=certification,
    )
    if replay:
        report.pipeline = _replay_pipeline(
            slab, f, weights, delta, h_graph, heuristic_decomposition(h_graph)
        )
    return report


def _replay_pipeline(slab, f, weights, delta, h_graph, td):
    """The contradiction pipeline in exact arithmetic.

    ``h_graph`` is the separator subgraph and ``td`` any tree decomposition
    of it; t is that decomposition's width.  Returns a dict of the
    reproduced quantities; skipped stages explain why.
    """
    n = slab.n
    t = td.width
    out = {"t": t}
    total = sum(weights.values(), Fraction(0))
    if total < 3 * t + 3:
        # The width ladder, not t, settles the verdict.
        out["skipped"] = "total weight below 3t+3; no balanced separation"
        return out
    sep = balanced_separation(h_graph, td, weights)
    cut = sep.cut
    out["cut_size"] = len(cut)
    k_minus_l = sep.K - sep.L
    lam_kl = weight_sum(weights, k_minus_l)
    out["lambda_K_minus_L_doubled"] = int(lam_kl * 2)

    g_values = dict(f.values)
    g_values.update(dict.fromkeys(sep.L, STAR))
    g_fun = LFunction(slab.graph, g_values)
    h_table = {}
    integrality_ok = True
    identity_ok = True
    for ij, walk in slab.paths.items():
        val = Fraction(integrate_d(walk, g_fun), 2)
        h_table[ij] = val
        if val != weight_sum(weights, k_minus_l & walk.vertex_set()):
            identity_ok = False
        if not (set(walk.vertices) & cut) and val.denominator != 1:
            integrality_ok = False
    out["h_doubled"] = {
        f"{i},{j}": int(v * 2) for (i, j), v in sorted(h_table.items())
    }
    out["h_identity_ok"] = identity_ok
    out["h_integrality_ok"] = integrality_ok

    rows_clear = [
        i for i in range(n) if not (slab.rows[i] & cut)
    ]
    cols_clear = [
        j for j in range(n) if not (slab.cols[j] & cut)
    ]
    out["rows_clear"] = rows_clear
    out["cols_clear"] = cols_clear
    if not rows_clear or not cols_clear:
        # h is constant on S only when a clear row meets a clear column;
        # a cut of a loose decomposition can meet every row or column.
        out["deviation_skipped"] = "no clear row or no clear column"
        return out
    s_cells = {(i, j) for i in rows_clear for j in range(n)}
    s_cells |= {(i, j) for i in range(n) for j in cols_clear}
    h_values_on_s = sorted({h_table[p] for p in s_cells})
    out["h_constant_on_S"] = len(h_values_on_s) <= 1
    if len(h_values_on_s) == 1:
        h_const = h_values_on_s[0]
        out["h_const_doubled"] = int(h_const * 2)
        deviation = abs(lam_kl - h_const * n * n)
        bound = delta * (t + 1) * (t + 1)
        out["deviation_doubled"] = int(deviation * 2)
        out["deviation_bound"] = bound
        out["deviation_ok"] = deviation <= bound
    return out


# Plane-strip homotopy certificates.


def strip_rectangle_certificate(g, axis, plane_index, j1, j2):
    """Two x-lines of one plane plus the explicit triangle decomposition.

    Returns (w1, w2, q, r, triangles) where the composite q.w2.r~.w1~ is the
    clockwise rectangle boundary and the triangles are the two halves of
    every unit cell between the lines.  Their indicator chains sum exactly
    to the composite's.
    """
    if j1 > j2:
        j1, j2 = j2, j1
    n = g.n

    if axis == "y":
        mk = lambda x, c: (x, plane_index, c)
    elif axis == "z":
        mk = lambda x, c: (x, c, plane_index)
    else:
        raise ValueError(axis)

    w1 = Walk(g, [mk(x, j1) for x in range(n)])
    w2 = Walk(g, [mk(x, j2) for x in range(n)])
    q = Walk(g, [mk(0, c) for c in range(j1, j2 + 1)])
    r = Walk(g, [mk(n - 1, c) for c in range(j1, j2 + 1)])
    triangles = []
    for c in range(j1, j2):
        for x in range(n - 1):
            a = mk(x, c)
            up = mk(x, c + 1)
            diag = mk(x + 1, c + 1)
            right = mk(x + 1, c)
            triangles.append(Walk(g, [a, up, diag, a]))
            triangles.append(Walk(g, [a, diag, right, a]))
    return w1, w2, q, r, triangles
