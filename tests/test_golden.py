"""Golden outputs of the CLI, the partition certificates and the slabs.

Each digest is a SHA-256 over output captured before the induced-subgraph
builds were merged into ``graphs.induced_subgraph`` and the partition
searches into one loop.  Any change to what those paths print shows up here.
"""

import contextlib
import hashlib
import io

import pytest

from gridtw.bramble_builder import certify_partition
from gridtw.cli import main
from gridtw.grid import Staircase, build_qn, enlarge
from gridtw.separators import HashPartition
from gridtw.slab import audit_separator, enlargement_as_slab, qn_as_slab

GOLDEN_CLI = {
    "audit3": (
        ["audit", "--n", "3", "--samples", "5", "--seed", "1", "--replay",
         "--format", "json"],
        "96b6b7649ce733fdc8320c442ee1198e79fe74aa80f9856a7f7723acd8c9d022",
    ),
    "audit4": (
        ["audit", "--n", "4", "--samples", "3", "--seed", "2", "--replay",
         "--format", "json"],
        "b9cb8e454c17cad546b9424de48cadf6adb486773ca30b0d8edeebfd7d4c32fd",
    ),
    # Guard below |X|: the replay reports the skipped stage.
    "audit4_guard12": (
        ["audit", "--n", "4", "--samples", "4", "--seed", "2", "--replay",
         "--guard-vertices", "12", "--format", "json"],
        "d404536044fe8c172228baa702d6dd8a25b39978cc405d01c0ea1284e11bfc4e",
    ),
    # |X| = 42 is over the default guard: the edge-refutation path.
    "audit6_refutation": (
        ["audit", "--n", "6", "--samples", "1", "--seed", "1", "--replay",
         "--format", "json"],
        "1f38925305187e1eb959084ac48d6b5a1e6767b0ebcb8414a9d254c6683517e6",
    ),
    "plane4": (
        ["audit", "--n", "4", "--separator", "plane", "--replay",
         "--format", "json"],
        "62a81252a5d09d04ab9ed3157d7b7c82fe4a6005cc7213eb0322fa7279eb8ed7",
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
}

# n = 3 takes the exact class-treewidth path, n = 4 the edge (t = 1) and
# cycle (t = 2) evidence paths.
GOLDEN_CERTIFY = {
    3: "b9927b52f775a9ec7f2eeba2f267cbed09ff6ce48ded0de51cb69d625efdc18e",
    4: "00a3747facb55c36a9d8ff65a6f9ac7c1f581727f81ab7fb2d5d86a177983960",
}

GOLDEN_SLABS = (
    "38377ab2a5d0b31fe9118f13b0b1871335e33a117fcdee027d4df69a2c1a2efa"
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


@pytest.mark.parametrize("n", sorted(GOLDEN_CERTIFY))
def test_certify_partition_golden_digest(n):
    h = hashlib.sha256()
    for t in (1, 2):
        for seed in range(4):
            rep = certify_partition(build_qn(n), HashPartition(seed), t)
            h.update(rep.to_json().encode())
    assert h.hexdigest() == GOLDEN_CERTIFY[n]


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
            h.update(repr(sorted(sheet.edges)).encode())
    x = frozenset((2, 1 + dy, 1 + dz) for dy in (0, 1) for dz in (0, 1))
    h.update(audit_separator(slabs[1], x).to_json().encode())
    return h.hexdigest()


def test_slab_golden_digest():
    assert slab_digest() == GOLDEN_SLABS
