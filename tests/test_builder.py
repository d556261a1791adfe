import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import find_reference, required_grid_size_t0

from gridtw import bramble_builder
from gridtw.bramble_builder import (
    BlockedStaircase,
    BrambleCertificate,
    BuilderSizeError,
    PackedSet,
    find_blocked_or_bramble,
    grid_side,
    required_grid_size,
    schedule,
    subgrid_size,
)
from gridtw.decomposition import bramble_order, validate_bramble
from gridtw.grid import GridGraph, build_qn
from gridtw.separators import DictPartition, HashPartition, is_blocked


def test_schedule_values():
    assert schedule(0, 0) == 2
    assert schedule(3, 0) == 5
    assert schedule(0, 1) == 5 * (2 + 1) == 15
    assert schedule(1, 1) == 13 * (3 + 1) == 52
    assert schedule(0, 2) == 5 * (15 + 2) == 85


def test_layout_sizes():
    assert subgrid_size(0, 1) == 3
    assert subgrid_size(1, 1) == 3
    assert required_grid_size(0, 1) == 5
    # At t = 0 the (2t+1)^2 layout is one cell at anchor (0, 0, 0).
    for b in range(1, 5):
        assert required_grid_size(0, b) == required_grid_size_t0(b)
    # 3x3 anchors at spacing d=4: x spans 16d plus margins and the subgrid.
    assert required_grid_size(1, 1) == 69


# max(schedule(t, b), layout minimum) for t, b <= 4; at b = 0 the layout
# minimum is the staircase span 3.
GUARANTEED_SIDES = {
    0: [3, 15, 85, 440, 2220],
    1: [3, 69, 1207, 20569, 349739],
    2: [4, 166, 5544, 183050, 6040780],
    3: [5, 295, 14553, 713243, 34949101],
    4: [6, 456, 29770, 1935244, 125791118],
}


def test_grid_side_is_the_guaranteed_side():
    for t, sides in GUARANTEED_SIDES.items():
        assert [grid_side(t, b) for b in range(5)] == sides
        for b in range(1, 5):
            assert subgrid_size(t, b) == grid_side(t, b - 1)
    assert required_grid_size(4, 0) == 3  # the level-0 span


coordinates = st.integers(-(2**40), 2**40)


@given(st.lists(st.tuples(coordinates, coordinates, coordinates)))
def test_packed_set_gives_back_its_vertices(vertices):
    packed = PackedSet(vertices)
    assert list(packed) == sorted(set(vertices))
    assert list(packed) == list(packed)  # iterable more than once
    assert len(packed) == len(set(vertices))
    assert packed == PackedSet(reversed(vertices))
    assert packed != PackedSet(vertices + [(2**41, 0, 0)])


def test_packed_certificate_json_and_equality():
    g = build_qn(required_grid_size(1, 1))
    part = HashPartition(0, bias=26)
    res = find_blocked_or_bramble(g, part, 1, 1, 1)
    assert isinstance(res, BrambleCertificate)
    sets = [frozenset(s) for s in res.sets]
    # The JSON is that of the unpacked sets, each sorted.
    assert res.to_json_obj() == {
        "kind": "bramble", "color": res.color, "order": res.order,
        "sets": [sorted(map(list, s)) for s in sets],
    }
    assert res == find_blocked_or_bramble(g, part, 1, 1, 1)
    assert res == BrambleCertificate(res.color, sets, res.order)
    smaller = [sets[0] - {min(sets[0])}] + sets[1:]
    assert res != BrambleCertificate(res.color, smaller, res.order)


def test_base_case_staircase():
    g = build_qn(3)
    all_one = DictPartition({v: 1 for v in g.vertices()})
    res = find_blocked_or_bramble(g, all_one, 0, 0, 1)
    assert isinstance(res, BlockedStaircase)
    assert res.b == 0 and res.color == 1
    assert len(res.staircase) == 3
    assert is_blocked(g, res.staircase, 0, 1, all_one)


def test_base_case_bramble_on_monochrome_slab():
    g = build_qn(3)
    all_one = DictPartition({v: 1 for v in g.vertices()})
    # Asking for class 2 must fail over to a crosses bramble in class 1.
    res = find_blocked_or_bramble(g, all_one, 0, 0, 2)
    assert isinstance(res, BrambleCertificate)
    assert res.color == 1
    assert res.order >= 1
    assert res.patch is not None
    assert validate_bramble(g, res.sets)


def test_level_one_monochrome_gives_staircase():
    # Everything class 1, asking for a (1,1)-blocked staircase: immediate.
    g = build_qn(15)
    all_one = DictPartition({v: 1 for v in g.vertices()})
    res = find_blocked_or_bramble(g, all_one, 0, 1, 1)
    assert isinstance(res, BlockedStaircase)
    assert res.b == 1 and res.color == 1
    assert is_blocked(g, res.staircase, 1, 1, all_one)


def test_level_one_random_partitions_validate():
    g = build_qn(15)
    staircases = 0
    brambles = 0
    for seed in range(25):
        part = HashPartition(seed)
        res = find_blocked_or_bramble(g, part, 0, 1, 1)
        if isinstance(res, BlockedStaircase):
            staircases += 1
            assert is_blocked(g, res.staircase, res.b, res.color, part)
        else:
            brambles += 1
            assert res.color == 2
            assert validate_bramble(g, res.sets)
            assert res.order == bramble_order(res.sets)
    assert staircases and brambles  # both branches exercised


def test_level_one_undersized_flag_geometry_error():
    g = build_qn(4)
    part = HashPartition(0)
    with pytest.raises(BuilderSizeError):
        find_blocked_or_bramble(g, part, 0, 1, 1)


def test_t1_builder_both_branches():
    n = required_grid_size(1, 1)
    g = build_qn(n)
    bramble_seen = False
    staircase_seen = False
    for seed in range(6):
        part = HashPartition(seed, bias=26)  # sparse class 1
        res = find_blocked_or_bramble(g, part, 1, 1, 1)
        if isinstance(res, BrambleCertificate):
            bramble_seen = True
            assert res.color == 2
            assert res.order >= 2
            assert len(res.sets) == 3
            # No vertex in more than two elements.
            counts = {}
            for s in res.sets:
                for v in s:
                    counts[v] = counts.get(v, 0) + 1
            assert max(counts.values()) <= 2
            assert validate_bramble(g, res.sets)
            assert res.order == bramble_order(res.sets)
        else:
            staircase_seen = True
            assert is_blocked(g, res.staircase, res.b, res.color, part)
    for seed in range(3):
        part = HashPartition(seed, bias=128)
        res = find_blocked_or_bramble(g, part, 1, 1, 1)
        if isinstance(res, BlockedStaircase):
            staircase_seen = True
            assert is_blocked(g, res.staircase, res.b, res.color, part)
    assert bramble_seen and staircase_seen


def _outcome(find, g, part, t, b, i, size):
    try:
        return find(g, part, t, b, i, (0, 0, 0), size).to_json_obj()
    except (BuilderSizeError, AssertionError) as exc:
        return type(exc), str(exc)


def test_builder_matches_reference_layouts():
    # The reference keeps a separate t = 0 layout and builds every
    # swallowing component before any join is tested; each outcome, or
    # error and message, must be the same.  One undersized region per
    # (t, b) compares the size errors.
    runs = []
    for t, b in ((0, 1), (0, 2), (0, 3), (1, 1), (2, 1)):
        need = required_grid_size(t, b)
        runs += [(t, b, bias, seed, max(schedule(t, b), need))
                 for bias in (0, 26, 64, 128, 192, 230, 256)
                 for seed in range(4)]
        runs.append((t, b, 128, 0, need - 1))
    runs += [(1, 2, bias, seed, 1207) for bias, seed in ((26, 0), (96, 5))]
    kinds = set()
    for t, b, bias, seed, size in runs:
        g, part = GridGraph(size), HashPartition(seed, bias=bias)
        for i in (1, 2):
            got = _outcome(bramble_builder._find, g, part, t, b, i, size)
            assert got == _outcome(find_reference, g, part, t, b, i, size)
            kinds.add((t, b, got["kind"] if isinstance(got, dict) else got[0]))
    assert {(0, 1, "staircase"), (0, 1, "bramble"),
            (0, 1, BuilderSizeError)} <= kinds


def test_find_asks_about_each_non_adjacent_join_pair_once(monkeypatch):
    from gridtw import grid

    ends, asked = {}, []
    join, meet = grid.join_staircases, grid.enlargements_meet

    def recording_join(g, p, q):
        joined = join(g, p, q)
        ends[joined] = {p, q}
        return joined

    def counting_meet(p, q, b):
        asked.append(frozenset((p, q)))
        return meet(p, q, b)

    monkeypatch.setattr(grid, "join_staircases", recording_join)
    monkeypatch.setattr(grid, "enlargements_meet", counting_meet)
    g, part = build_qn(69), HashPartition(0, bias=26)
    assert isinstance(find_blocked_or_bramble(g, part, 1, 1, 1),
                      BrambleCertificate)
    assert len(ends) == 12  # the joins of a 3 x 3 layout
    apart = {frozenset((p, q)) for p, q in itertools.combinations(ends, 2)
             if not ends[p] & ends[q]}
    assert len(asked) == len(apart) and set(asked) == apart


def test_builder_deterministic():
    g = build_qn(15)
    part = HashPartition(7)
    r1 = find_blocked_or_bramble(g, part, 0, 1, 1)
    r2 = find_blocked_or_bramble(g, part, 0, 1, 1)
    assert type(r1) is type(r2)
    assert r1.to_json_obj() == r2.to_json_obj()


def test_builder_symmetric_in_color():
    g = build_qn(15)
    part = HashPartition(42)
    res1 = find_blocked_or_bramble(g, part, 0, 1, 1)
    res2 = find_blocked_or_bramble(g, part, 0, 1, 2)
    for res, color in ((res1, 1), (res2, 2)):
        if isinstance(res, BlockedStaircase):
            assert res.color == color
            assert is_blocked(g, res.staircase, res.b, color, part)
        else:
            assert res.color == 3 - color
            assert validate_bramble(g, res.sets)


def test_bramble_checks_never_list_the_host(monkeypatch, tmp_path):
    # The CLI's b = 2 grid has 1.76e9 vertices: membership must be tested
    # with has_vertex, never against a list of the host's vertices.
    from gridtw.cli import main

    def refuse(self):
        raise AssertionError("the host's vertex list was built")

    monkeypatch.setattr(GridGraph, "vertices", refuse)
    g = build_qn(5)
    sets = [frozenset({(0, 0, 0), (1, 1, 1)}), frozenset({(1, 1, 1), (2, 2, 2)})]
    assert validate_bramble(g, sets)
    assert not validate_bramble(g, [frozenset({(0, 0, 0)}),
                                    frozenset({(0, 0, 5)})])
    argv = ["build", "--t", "1", "--b", "1", "--bias", "26", "--seed", "0",
            "--out", str(tmp_path / "build.json")]
    assert main(argv) == 0


def _refuse_everywhere(monkeypatch, function, message):
    """Make every binding of ``function`` in a loaded gridtw module raise."""
    import sys

    def refuse(*args, **kwargs):
        raise AssertionError(message)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gridtw":
            for key, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, key, refuse)


def test_build_never_searches_hitting_sets(monkeypatch, tmp_path):
    # The builder and the CLI certify the order from the family's shape;
    # the exact hitting-set search is an oracle for tests only.
    from gridtw.cli import main

    _refuse_everywhere(monkeypatch, bramble_order,
                       "exact hitting-set search on a build path")
    runs = [(build_qn(15), HashPartition(seed), 0) for seed in range(4)]
    runs += [(build_qn(required_grid_size(1, 1)),
              HashPartition(seed, bias=26), 1) for seed in range(4)]
    brambles = 0
    for g, part, t in runs:
        res = find_blocked_or_bramble(g, part, t, 1, 1)
        if isinstance(res, BrambleCertificate):
            brambles += 1
            assert res.order == t + 1
    assert brambles
    out = tmp_path / "build.json"
    for t, b, bias in ((0, 1, 26), (1, 1, 26), (3, 0, 0)):
        argv = ["build", "--t", str(t), "--b", str(b), "--bias", str(bias),
                "--seed", "0", "--out", str(out)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["evidence"]["reverified_order"] \
            == t + 1


def test_patch_brambles_are_checked_in_grid_form(monkeypatch, tmp_path):
    # A patch's k*k crosses are checked as k rows and k columns, never as
    # a family of sets, and its sets are the crosses of exactly those.
    from gridtw.cli import main

    _refuse_everywhere(monkeypatch, validate_bramble,
                       "pairwise bramble check on a patch")
    res = find_blocked_or_bramble(build_qn(10), HashPartition(0, bias=0),
                                  8, 0, 1)
    assert res.patch is not None and res.order == 9
    assert res.sets == [PackedSet(r | c) for r in res.rows for c in res.cols]
    out = tmp_path / "build.json"
    argv = ["build", "--t", "8", "--b", "0", "--bias", "0", "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text())["evidence"]["reverified_order"] == 9
