"""Golden outputs of the CLI, the slabs and the separator layer.

Each digest is a SHA-256 over output captured before the induced-subgraph
builds were merged into ``graphs.induced_subgraph`` and the partition
searches into one loop; the separator digest was captured before the min cut
and ``minimalize`` moved onto the host graph; the ``treewidth`` and
``build --t 1`` digests were captured before induced subgraphs of ``Q_n``
became plain ``Graph`` objects.  The ``--replay`` audit and slab digests
were re-captured when replay moved onto the min-fill decomposition, so that
no certificate rests on the exact solver.  The partition-certificate digests
were deleted along with ``certify_partition``, the class-by-class scan that
no command ran; ``build`` is the route to class certificates, and its
digests are in ``GOLDEN_CLI``.  Any change to what those paths print shows up here.

Three CLI digests were captured before blocked tests and connector searches
stopped building enlargement graphs: ``lemmas3``, whose random paths step
through the full grid's neighbours in the order it lists them, so it pins
that order; ``build_t1_b2_bramble``, a b = 2 bramble whose sets run through
the join connectors; and ``build_t1_b2_staircase``, a b = 2 blocked
staircase.

``build_t1_b1_patch_corner`` was captured while the builder still read the
patch corner back off the level-0 bramble; it pins the staircase through
that corner.

``plane17_consistent`` was captured before the solver's vertex guard became
one constant; it pins the "consistent" audit with its replay.

The sampled-separator digest was captured while the enlargement sampler
still started from a max-flow cut; it pins the separators themselves, where
the suites count only their instances.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random

import pytest

from gridtw.cli import main
from gridtw.graphs import Graph, induced_subgraph
from gridtw.grid import Staircase, build_qn, coords_adjacent, enlarge
from gridtw.separators import (
    NoSeparatorError,
    is_minimal_separator,
    min_side_separator,
    minimalize,
    sample_minimal_separator,
)
from gridtw.slab import audit_separator, enlargement_as_slab, qn_as_slab

GOLDEN_CLI = {
    "audit3": (
        ["audit", "--n", "3", "--samples", "5", "--seed", "1", "--replay",
         "--format", "json"],
        "b36ef7385e5e6ebcb4ef1b5ad43c106d1cba17d597f1309ca0b898693c1b3d75",
    ),
    "audit4": (
        ["audit", "--n", "4", "--samples", "3", "--seed", "2", "--replay",
         "--format", "json"],
        "fff888208d81cd310e35802f7ba2c26ccdcc36adbed488e3520d61f704777ce3",
    ),
    # |X| = 289 is over the guard and has no 4-core: nothing certifies
    # threshold 4, the audit ends "consistent", and the replay still runs.
    "plane17_consistent": (
        ["audit", "--n", "17", "--separator", "plane", "--replay",
         "--format", "json"],
        "b584455eeada33cea45126d794cb3da92302ddf995382a6718dbfca5f6dfbbb9",
    ),
    # |X| = 42 is over the default guard: a 1-core refutes, and the
    # replay runs on the min-fill decomposition.
    "audit6_refutation": (
        ["audit", "--n", "6", "--samples", "1", "--seed", "1", "--replay",
         "--format", "json"],
        "3d9c19f4de6bdc713adc2f44741285ce343f98adb9f540dc4334adfec009697a",
    ),
    "plane4": (
        ["audit", "--n", "4", "--separator", "plane", "--replay",
         "--format", "json"],
        "ade01ebbb6cc0e41cc9257c01208025721f33d23013364a7c2c01a65293b129a",
    ),
    "search2_exhaustive": (
        ["search", "--n", "2", "--exhaustive", "--format", "json"],
        "2e6e19fc61212ede194ca5d2f2570290325299f94d6bfd7f77b2795bb0cd637a",
    ),
    "search3_sampled": (
        ["search", "--n", "3", "--samples", "15", "--seed", "5",
         "--format", "json"],
        "e0693f1dc690ae7df18da206950c031ea8d0ff52a2ff9ceea9590108fb63d8e2",
    ),
    "build": (
        ["build", "--t", "0", "--b", "1", "--seed", "3"],
        "8c3903725966ea47f76151c4c565b008cb413d2f8032a66672c6fd3bec9dfd02",
    ),
    # A bramble outcome, re-verified by the CLI on the full Q_69.
    "build_t1_bramble": (
        ["build", "--t", "1", "--b", "1", "--bias", "26", "--seed", "0"],
        "9ccae92ef644acea91a496f63f7798bf631633a2e394fabf537faa70df83e29c",
    ),
    # The layout family of 2t+1 = 5 sets on Q_166, of order 3.
    "build_t2_bramble": (
        ["build", "--t", "2", "--b", "1", "--bias", "26", "--seed", "0"],
        "bb31435062e5385a061ffe0ab7e0c8ddca0847b76a203d63b0a529572f01185b",
    ),
    # The 36 crosses of a monochrome 6 x 6 patch, of order 6.
    "build_t5_crosses": (
        ["build", "--t", "5", "--b", "0", "--bias", "0", "--seed", "0"],
        "8a304841cf632652aeac61962f77cbacd2808c3b7b5aa52d70ed9f048d4e4cf6",
    ),
    # A b = 2 bramble on Q_1207: component columns and rows joined by the
    # class connectors of the unblocked joins.
    "build_t1_b2_bramble": (
        ["build", "--t", "1", "--b", "2", "--bias", "26", "--seed", "0"],
        "ed70e292500bd5a9f1a392a4c6bd7e3ad22a3b4b90f37b1082d526b9572a4fef",
    ),
    # The first level-0 cell is a monochrome patch, so the b = 1 result is
    # the three-vertex staircase through the patch corner.
    "build_t1_b1_patch_corner": (
        ["build", "--t", "1", "--b", "1", "--bias", "256", "--seed", "0"],
        "33a364dd552a741afe021036033474e7b0b3c508bf8ef676bf13ca245ff9941d",
    ),
    # A b = 2 blocked staircase, re-verified by the CLI.
    "build_t1_b2_staircase": (
        ["build", "--t", "1", "--b", "2", "--bias", "96", "--seed", "5"],
        "0dd96db004c9d467ebf7ddf9db7e930b485185b349a678eaf9b37eed7a9850e7",
    ),
    # Random paths pick steps in the order the full grid lists neighbours.
    "lemmas3": (
        ["lemmas", "--n", "3", "--samples", "20", "--seed", "1",
         "--format", "json"],
        "034264b5aea7f52a22384d345a2b9bc4447e5231ea8976b87d722c15aaf20366",
    ),
}

# stdout and --decomposition-out bytes of each treewidth run, in order.
GOLDEN_TREEWIDTH = (
    "b3886abb79882d679879e83dbf5e94e77f94d6a5747a55f44762b2ff83ad5d42"
)

GOLDEN_SLABS = (
    "9c28f91b7f716871d3364768a5ad06894044a3b5a2e8ad624acfb92a4e5e16d3"
)

GOLDEN_SEPARATORS = (
    "8689bdeec82c83509d8f89168491ae58d2addab249102e2d18ce51fd145f7aed"
)

GOLDEN_SAMPLED_SEPARATORS = (
    "afcba739e4100651414567bf462b5668aa86c3d8454b17d5a8079e52eb3d6658"
)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_CLI))
def test_cli_golden_digest(name):
    argv, digest = GOLDEN_CLI[name]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    assert _sha(buf.getvalue()) == digest


def _vertex_id(v, n):
    return v[0] + n * v[1] + n * n * v[2]


def _treewidth_runs(tmp_path):
    """``treewidth`` argument lists: the full Q_2, the triangulated 4 x 4
    grid, a shuffled vertex list of Q_4 with a repeat, and a vertex list of
    Q_3 with explicit edges (positions in vertex-id order)."""
    rng = random.Random(5)
    cube4 = [(x, y, z) for z in range(4) for y in range(4) for x in range(4)]
    listed = rng.sample(cube4, 30)
    listed.append(listed[3])
    vlist = tmp_path / "vlist.json"
    vlist.write_text(json.dumps({"n": 4, "vertices": listed}))
    cube3 = [(x, y, z) for z in range(3) for y in range(3) for x in range(3)]
    kept = sorted(rng.sample(cube3, 15), key=lambda v: _vertex_id(v, 3))
    edges = [
        [i, j] for i, j in itertools.combinations(range(len(kept)), 2)
        if coords_adjacent(kept[i], kept[j])
    ]
    explicit = tmp_path / "explicit.json"
    explicit.write_text(json.dumps(
        {"n": 3, "vertices": kept[::-1], "edges": edges}
    ))
    return [["--grid", "2"], ["--tri-grid", "4"],
            ["--input", str(vlist)], ["--input", str(explicit)]]


def test_treewidth_golden_digest(tmp_path):
    h = hashlib.sha256()
    out = tmp_path / "td.txt"
    for args in _treewidth_runs(tmp_path):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["treewidth", *args, "--decomposition-out", str(out)])
        assert code == 0
        h.update(buf.getvalue().encode())
        h.update(out.read_bytes())
    assert h.hexdigest() == GOLDEN_TREEWIDTH


def slab_digest():
    """Sheet edge sets of grid and enlargement slabs, plus an audit of the
    enlargement slab with its replayed pipeline."""
    g = build_qn(10)
    st = Staircase(((1, 0, 1), (2, 1, 1), (3, 1, 2), (4, 2, 2)))
    slabs = [qn_as_slab(4)]
    slabs += [enlargement_as_slab(enlarge(g, st, b)) for b in (1, 2)]
    h = hashlib.sha256()
    for s in slabs:
        for sheet in s.rows + s.cols:
            edges = induced_subgraph(s.graph, sheet).edges()
            h.update(repr(sorted(edges)).encode())
    x = frozenset((2, 1 + dy, 1 + dz) for dy in (0, 1) for dz in (0, 1))
    h.update(audit_separator(slabs[1], x).to_json().encode())
    return h.hexdigest()


def test_slab_golden_digest():
    assert slab_digest() == GOLDEN_SLABS


def _separator_cases():
    """(host, s1, s2, extras) for grid faces, enlargements and random graphs.

    ``extras`` are candidate vertices added to the min cut before it is
    minimalized.
    """
    rng = random.Random(2024)
    for n in range(3, 7):
        g = build_qn(n)
        s1 = frozenset((0, y, z) for y in range(n) for z in range(n))
        s2 = frozenset((n - 1, y, z) for y in range(n) for z in range(n))
        inner = [v for v in g.vertices() if 0 < v[0] < n - 1]
        yield g, s1, s2, {v for v in inner if rng.random() < 0.3}
    g = build_qn(10)
    st = Staircase(((1, 0, 1), (2, 1, 1), (3, 1, 2), (4, 2, 2), (5, 3, 3)))
    for b in range(3):
        enl = enlarge(g, st, b)
        inner = sorted(enl.interior())
        extras = {v for v in inner if rng.random() < 0.4}
        yield enl, enl.left_side, enl.right_side, extras
    for _ in range(100):
        size = rng.randrange(4, 16)
        p = rng.choice((0.1, 0.2, 0.35))
        edges = [
            e for e in itertools.combinations(range(size), 2)
            if rng.random() < p
        ]
        host = Graph(vertices=range(size), edges=edges)
        verts = list(range(size))
        rng.shuffle(verts)
        k1, k2 = rng.randrange(1, 4), rng.randrange(1, 4)
        s1, s2 = frozenset(verts[:k1]), frozenset(verts[k1:k1 + k2])
        extras = {v for v in verts[k1 + k2:] if rng.random() < 0.5}
        yield host, s1, s2, extras


def separator_digest():
    """Both min-cut modes, ``minimalize`` of the cut plus extras and of the
    whole interior, and ``is_minimal_separator`` on each set produced."""
    h = hashlib.sha256()
    for host, s1, s2, extras in _separator_cases():
        out = [sorted(min_side_separator(host, s1, s2, include_sides=True))]
        try:
            cut = min_side_separator(host, s1, s2)
        except NoSeparatorError:
            out.append("adjacent")
            h.update(repr(out).encode())
            continue
        interior = {v for v in host.vertices() if v not in s1 | s2}
        for x in (set(cut), set(cut) | extras, interior):
            m = minimalize(host, s1, s2, x)
            out.append((sorted(x), sorted(m)))
            out.append([is_minimal_separator(host, s1, s2, y)
                        for y in (x, m, set(m) | extras)])
        h.update(repr(out).encode())
    return h.hexdigest()


def test_separator_golden_digest():
    assert separator_digest() == GOLDEN_SEPARATORS


# Staircase steps, and the (index, step) that case k % 4 puts first or last:
# y only or z only.
_STEPS = ((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1))
_FORCED = ((0, (1, 1, 0)), (0, (1, 0, 1)), (-1, (1, 1, 0)), (-1, (1, 0, 1)))


def _sampler_cases():
    """b-enlargements for b = 0..4 of seeded staircases of 3 to 12 vertices,
    each starting or ending with a y-only or a z-only step."""
    rng = random.Random(43)
    g = build_qn(17)
    for b in range(5):
        for k in range(3, 13):
            steps = [rng.choice(_STEPS) for _ in range(k - 1)]
            i, step = _FORCED[k % 4]
            steps[i] = step
            verts = [(0, 1, 0)]
            for dx, dy, dz in steps:
                x, y, z = verts[-1]
                verts.append((x + dx, y + dy, z + dz))
            yield enlarge(g, Staircase(tuple(verts)), b)


def test_sampled_separator_golden_digest():
    rng = random.Random(0)
    h = hashlib.sha256()
    for enl in _sampler_cases():
        h.update(repr(sorted(sample_minimal_separator(enl, rng))).encode())
    assert h.hexdigest() == GOLDEN_SAMPLED_SEPARATORS
