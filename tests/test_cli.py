import json
import os
import subprocess
import sys
import time

import pytest

import gridtw
from gridtw.cli import main
from gridtw.grid import GridGraph


def run_cli(args):
    """Invoke main() in-process, capturing stdout and the exit code."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def run_module(args):
    """Run ``python -m gridtw.cli`` in a child that imports this gridtw."""
    src = os.path.dirname(os.path.dirname(gridtw.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "gridtw.cli", *args],
                          capture_output=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_lemmas_exhaustive_passes():
    code, out = run_cli(
        ["lemmas", "--n", "2", "--exhaustive", "--samples", "60", "--seed", "7"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "suite,instances,violations"
    assert all(line.endswith(",0") for line in lines[1:])
    suites = {line.split(",")[0] for line in lines[1:]}
    assert "walk_integral" in suites and "balanced_separation" in suites


def test_lemmas_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["lemmas", "--n", "3", "--samples", "40", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_malformed_flag_usage_error():
    proc = run_module(["lemmas", "--bogus"])
    assert proc.returncode == 2


def test_missing_subcommand_usage_error():
    proc = run_module([])
    assert proc.returncode == 2


def test_audit_sampled_rows():
    code, out = run_cli(
        ["audit", "--n", "3", "--samples", "5", "--seed", "1"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    for line in lines[1:]:
        n, x_size, lam2, _, _, passed = line.split(",")
        assert (n, x_size, lam2, passed) == ("3", "9", "18", "1")


def test_audit_plane_degenerate_n2():
    code, out = run_cli(["audit", "--n", "2", "--separator", "plane"])
    assert code == 0
    assert out.strip().splitlines()[1].endswith(",1")


def test_audit_plane_degenerate_n2_json():
    code, out = run_cli(["audit", "--n", "2", "--separator", "plane",
                         "--format", "json"])
    assert code == 0
    assert out == '[{"degenerate": true, "n": 2, "pass": true}]\n'


def test_audit_certified_nine():
    code, out = run_cli(
        ["audit", "--n", "9", "--separator", "plane", "--certify-width", "2"]
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[0] == "9" and row[2] == "162" and row[4] == "2" and row[5] == "1"


@pytest.mark.parametrize("seed, replay", [
    pytest.param(seed, replay, id=f"{seed}-replay" if replay else str(seed))
    for replay in (False, True) for seed in (1, 2, 3)
])
def test_audit_six_settles_threshold_by_refutation(seed, replay):
    # Threshold 1 needs one edge of G[X]; at |X| = 36 and 37 the exact
    # solver used to run for minutes first.  Replay runs on the min-fill
    # decomposition.
    started = time.perf_counter()
    code, out = run_cli(["audit", "--n", "6", "--samples", "1", "--seed",
                         str(seed), "--format", "json"]
                        + ["--replay"] * replay)
    assert time.perf_counter() - started < 1
    assert code == 0
    (rep,) = json.loads(out)
    assert rep["certification"] == "refutation"
    assert rep["tw_certified"] == rep["threshold"] == 1
    assert rep["tw_exact"] is None
    if replay:
        pipe = rep["pipeline"]
        assert "skipped" not in pipe and pipe["h_constant_on_S"]
        flags = [k for k in pipe if k.endswith("_ok")]
        assert len(flags) == 3 and all(pipe[k] for k in flags)


def test_audit_certify_width_raises_the_target():
    code, out = run_cli(["audit", "--n", "4", "--samples", "3", "--seed",
                         "2", "--certify-width", "2"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 3 and all(int(row[4]) >= 2 for row in rows)


def test_audit_certify_width_above_the_width_certifies_the_threshold():
    # G[X] has a decomposition of width below 9, which refutes nothing:
    # the row certifies the threshold 0 and passes, the run exits 1.
    code, out = run_cli(["audit", "--n", "4", "--samples", "1", "--seed",
                         "2", "--certify-width", "9", "--format", "json"])
    assert code == 1
    (rep,) = json.loads(out)
    assert rep["certification"] == "trivial" and rep["tw_certified"] == 0
    assert rep["pass"] is True


def test_audit_exits_1_when_the_threshold_is_refuted(monkeypatch):
    import gridtw.slab
    from gridtw.decomposition import heuristic_decomposition

    monkeypatch.setattr(gridtw.slab, "decide_width_at_most",
                        lambda g, k: (True, heuristic_decomposition(g)))
    code, out = run_cli(["audit", "--n", "7", "--separator", "plane"])
    assert code == 1
    assert out.splitlines()[1].split(",")[-1] == "0"
    code, out = run_cli(["audit", "--n", "7", "--separator", "plane",
                         "--format", "json"])
    assert code == 1
    (rep,) = json.loads(out)
    assert rep["certification"] == "refuted" and rep["pass"] is False


def test_search_exhaustive_n2():
    code, out = run_cli(["search", "--n", "2", "--exhaustive", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["min_max_class_treewidth"] == 1
    assert obj["mode"] == "exhaustive"


def test_search_sampled_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["search", "--n", "3", "--samples", "15", "--seed", "5",
            "--format", "json"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["best_max_class_treewidth"] >= 1


def test_search_csv_rows():
    assert run_cli(["search", "--n", "2", "--exhaustive"]) == (
        0, "mode,n,value,classes\nexhaustive,2,1,26\n")
    code, out = run_cli(["search", "--n", "3", "--samples", "15",
                         "--seed", "5"])
    assert code == 0
    assert out.splitlines() == ["mode,n,value,classes", "sampled,3,3,15"]


def test_build_valid_evidence():
    code, out = run_cli(["build", "--t", "0", "--b", "1", "--seed", "3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["verified"] is True
    assert obj["outcome"] in ("staircase", "bramble")
    assert obj["guaranteed"] is True
    assert "elapsed_s" not in obj


def test_build_timings_adds_only_the_elapsed_time():
    argv = ["build", "--t", "0", "--b", "1", "--seed", "3"]
    code, plain = run_cli(argv)
    timed_code, timed = run_cli([*argv, "--timings"])
    assert code == timed_code == 0
    timed = json.loads(timed)
    assert timed.pop("elapsed_s") >= 0
    assert timed == json.loads(plain)


def test_build_monochrome_staircase():
    code, out = run_cli(
        ["build", "--t", "0", "--b", "1", "--seed", "0", "--bias", "256"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["outcome"] == "staircase"
    assert obj["evidence"]["color"] == 1


def test_build_t8_crosses():
    # 81 crosses of a monochrome 9 x 9 patch: the exact hitting-set search
    # refused this family at its 64-set guard.
    code, out = run_cli(
        ["build", "--t", "8", "--b", "0", "--bias", "0", "--seed", "0"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["verified"] is True
    assert obj["evidence"]["reverified_order"] == 9
    assert len(obj["evidence"]["sets"]) == 81


def test_build_rejects_a_bramble_leaving_its_class(monkeypatch):
    # A connected one-set family of order 1 >= t + 1 = 1 whose second
    # vertex lies in the other class proves nothing about the reported one.
    import gridtw.cli
    from gridtw.bramble_builder import BrambleCertificate

    def stray_vertex(g, part, t, b, i):
        v = (1, 1, 1)
        w = next(u for u in g.neighbors(v) if part.cls(u) != part.cls(v))
        return BrambleCertificate(color=part.cls(v),
                                  sets=[frozenset({v, w})], order=1)

    monkeypatch.setattr(gridtw.cli, "find_blocked_or_bramble", stray_vertex)
    code, out = run_cli(["build", "--t", "0", "--b", "1", "--seed", "3"])
    assert code == 1
    obj = json.loads(out)
    assert obj["outcome"] == "bramble"
    assert obj["verified"] is False
    assert obj["evidence"]["reverified_order"] is None


def test_build_rejects_an_overclaimed_order(monkeypatch):
    # One vertex proves order 1: a certificate claiming 5 is not verified.
    import gridtw.cli
    from gridtw.bramble_builder import BrambleCertificate

    def overclaim(g, part, t, b, i):
        v = (1, 1, 1)
        return BrambleCertificate(color=part.cls(v), sets=[{v}], order=5)

    monkeypatch.setattr(gridtw.cli, "find_blocked_or_bramble", overclaim)
    code, out = run_cli(["build", "--t", "0", "--b", "1", "--seed", "3"])
    assert code == 1
    obj = json.loads(out)
    assert obj["verified"] is False
    assert obj["evidence"]["order"] == 5
    assert obj["evidence"]["reverified_order"] == 1


def test_build_refuses_subschedule():
    proc = run_module(["build", "--t", "1", "--b", "1", "--n", "52"])
    assert proc.returncode == 2
    assert b"--allow-undersized" in proc.stderr


def test_build_undersized_inconclusive():
    code, out = run_cli(
        ["build", "--t", "0", "--b", "1", "--n", "4", "--allow-undersized",
         "--seed", "1"]
    )
    assert code == 3
    obj = json.loads(out)
    assert obj["outcome"] == "inconclusive"


def test_build_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["build", "--t", "0", "--b", "1", "--seed", "9"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_treewidth_variants(tmp_path):
    code, out = run_cli(["treewidth", "--grid", "2"])
    assert code == 0 and out.strip() == "treewidth 4"
    code, out = run_cli(["treewidth", "--tri-grid", "3"])
    assert code == 0 and out.strip() == "treewidth 3"
    dec = tmp_path / "dec.txt"
    code, out = run_cli(
        ["treewidth", "--grid", "2", "--decomposition-out", str(dec)]
    )
    assert code == 0
    from gridtw.decomposition import TreeDecomposition

    td = TreeDecomposition.from_lines(dec.read_text())
    assert td.width == 4


def test_treewidth_timings_appends_elapsed():
    code, plain = run_cli(["treewidth", "--grid", "2"])
    assert code == 0 and plain == "treewidth 4\n"
    code, out = run_cli(["treewidth", "--grid", "2", "--timings"])
    assert code == 0
    first, second = out.splitlines()
    assert first + "\n" == plain
    key, value = second.split()
    assert key == "elapsed_s" and float(value) >= 0


def test_treewidth_graph_json(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"n": 2, "vertices": "full", "edges": "implicit"}')
    code, out = run_cli(["treewidth", "--input", str(path)])
    assert code == 0 and out.strip() == "treewidth 4"


def test_treewidth_guard_exceeded(capsys):
    # Q_4 has 64 vertices, over the solver's 40.
    code, out = run_cli(["treewidth", "--grid", "4"])
    assert code == 2 and out == ""
    assert "guard" in capsys.readouterr().err


def test_treewidth_guard_precedes_the_build(monkeypatch, capsys):
    # The triangulated 1000 x 1000 grid is refused on its declared count.
    import gridtw.cli

    def refuse(*args):
        raise AssertionError("graph built before the guard was checked")

    monkeypatch.setattr(gridtw.cli, "triangulated_grid", refuse)
    code, out = run_cli(["treewidth", "--tri-grid", "1000"])
    assert code == 2 and out == ""
    assert "1000000 vertices exceeds" in capsys.readouterr().err


def test_unwritable_out_fails_before_the_work(monkeypatch, capsys):
    import gridtw.harness

    def refuse(**kwargs):
        raise AssertionError("suites ran before --out was checked")

    monkeypatch.setattr(gridtw.harness, "run_suites", refuse)
    code, out = run_cli(["lemmas", "--n", "2", "--out", "/nonexistent/x.csv"])
    assert code == 2 and out == ""
    assert "No such file" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["build", "--t", "0", "--b", "1", "--format", "csv"],
    ["build", "--t", "0", "--b", "1", "--guard-vertices", "5"],
    ["lemmas", "--guard-vertices", "5"],
    ["treewidth", "--grid", "2", "--seed", "1"],
    ["treewidth", "--grid", "2", "--format", "json"],
    ["lemmas", "--timings"],
    ["audit", "--n", "3", "--samples", "1", "--timings"],
    ["search", "--n", "2", "--exhaustive", "--timings"],
    # The solver's vertex guard is fixed.
    ["audit", "--n", "3", "--samples", "1", "--guard-vertices", "10"],
    ["search", "--n", "2", "--exhaustive", "--guard-vertices", "10"],
    ["treewidth", "--grid", "2", "--guard-vertices", "10"],
])
def test_unread_flags_rejected(argv, capsys):
    # A subcommand accepts only the flags it reads; argparse exits 2.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["treewidth", "--grid", "2", "--tri-grid", "3"],
    ["treewidth", "--input", "f", "--grid", "2"],
])
def test_one_graph_source(argv, capsys):
    # treewidth solves one graph; a second source is refused, not dropped.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


INPUT_FILES = {
    "q50": json.dumps({"n": 50}),
    "no_n": json.dumps({"vertices": "full"}),
    "list": json.dumps([1, 2]),
    "text_n": json.dumps({"n": "x"}),
    "short": json.dumps({"n": 2, "class": [1, 2, 1]}),
    "vertex_count": json.dumps({"n": 2, "vertices": 5}),
    "edge_count": json.dumps({"n": 2, "edges": 3}),
    "pair_vertex": json.dumps({"n": 2, "vertices": [[0, 0]]}),
    "outside": json.dumps({"n": 2, "vertices": [[0, 0, 0], [0, 2, 1]]}),
    "far_edge": json.dumps({"n": 2, "edges": [[0, 9]]}),
    "no_class": json.dumps({"n": 2}),
    "class_scalar": json.dumps({"n": 2, "class": 5}),
    "q14": json.dumps({"n": 14, "class": [1, 2] * 1372}),
    "q15": json.dumps({"n": 15, "class": [1, 2] * 1687 + [1]}),
    "q16": json.dumps({"n": 16, "class": [1, 2] * 2048}),
    "q400_short": json.dumps({"n": 400, "class": [1, 2]}),
    "true_class": json.dumps({"n": 2, "class": [1, 2, 1, 2, True, 1, 2, 1]}),
}


@pytest.mark.parametrize("argv, message", [
    (["search", "--n", "2", "--samples", "0"], "samples"),
    (["search", "--n", "0"], "grid side"),
    (["search", "--n", "0", "--exhaustive"], "grid side"),
    # The triangulated 7 x 7 grid has 49 vertices, over the solver's 40.
    (["treewidth", "--tri-grid", "7"], "guard"),
    (["audit", "--n", "2", "--samples", "1"], "n >= 3"),
    (["audit", "--n", "0", "--samples", "1"], "grid side"),
    (["audit", "--n", "-2", "--separator", "plane"], "grid side"),
    (["lemmas", "--n", "0"], "grid side"),
    (["build", "--t", "-1", "--b", "1"], "non-negative"),
    (["build", "--t", "0", "--b", "-1"], "non-negative"),
    (["build", "--t", "0", "--b", "0", "--n", "0", "--allow-undersized"],
     "grid side"),
    (["treewidth", "--grid", "-1"], "grid side"),
    (["treewidth", "--grid", "0"], "grid side"),
    (["treewidth", "--tri-grid", "-2"], "grid side"),
    # Q_50 is refused by the guard before any of it is labelled.
    (["treewidth", "--grid", "50"], "guard"),
    # "@name" is the path of INPUT_FILES[name]; "@missing" does not exist.
    (["treewidth", "--input", "@q50"], "guard"),
    (["treewidth", "--input", "@missing"], "No such file"),
    (["build", "--t", "0", "--b", "1", "--partition-file", "@missing"],
     "No such file"),
    (["build", "--t", "0", "--b", "1", "--partition-file", "@short"],
     "class array length"),
    (["search", "--n", "3", "--exhaustive"], "n <= 2"),
    # Grid documents without an integer "n".
    (["treewidth", "--input", "@no_n"], "integer \"n\""),
    (["treewidth", "--input", "@list"], "integer \"n\""),
    (["treewidth", "--input", "@text_n"], "integer \"n\""),
    # Vertex lists that are not coordinate triples, edges that are not
    # position pairs into the listed vertices.
    (["treewidth", "--input", "@vertex_count"], "[x, y, z] triples"),
    (["treewidth", "--input", "@pair_vertex"], "[x, y, z] triples"),
    (["treewidth", "--input", "@edge_count"], "pairs of positions"),
    (["treewidth", "--input", "@far_edge"], "pairs of positions below 8"),
    # Partition documents without an integer "n" and a "class" list.
    *[(["build", "--t", "0", "--b", "1", "--partition-file", f"@{name}"],
       'integer "n" and a "class" list')
      for name in ("no_n", "list", "text_n", "no_class", "class_scalar")],
    # Runs with nothing to check.
    (["audit", "--n", "4", "--samples", "-1"], "samples"),
    (["audit", "--n", "4"], "samples"),
    (["lemmas", "--n", "2", "--samples", "-5"], "samples"),
    # Values out of range.
    (["build", "--t", "0", "--b", "0", "--bias", "300"], "bias"),
    (["build", "--t", "0", "--b", "0", "--bias", "-1"], "bias"),
    (["audit", "--n", "3", "--samples", "1", "--certify-width", "-1"],
     "certify-width"),
    # Flags the mode does not read.
    (["audit", "--n", "9", "--separator", "plane", "--samples", "50"],
     "only to sampled audits"),
    (["audit", "--n", "9", "--separator", "plane", "--seed", "7"],
     "only to sampled audits"),
    (["search", "--n", "2", "--exhaustive", "--samples", "5"],
     "only to sampled searches"),
    (["search", "--n", "2", "--exhaustive", "--seed", "9"],
     "only to sampled searches"),
    # A listed vertex outside [0,n)^3.
    (["treewidth", "--input", "@outside"], "(0, 2, 1) outside [0,2)^3"),
    # A partition file draws no hashed partition.
    (["build", "--t", "0", "--b", "1", "--partition-file", "@q15",
      "--seed", "7"], "only to hashed partitions"),
    (["build", "--t", "0", "--b", "1", "--partition-file", "@q15",
      "--bias", "3"], "only to hashed partitions"),
    # A partition file fixes the grid side: it must meet the requirement
    # and agree with --n when --n is given.
    (["build", "--t", "0", "--b", "1", "--partition-file", "@q14"],
     "grid side 14 below requirement 15"),
    (["build", "--t", "0", "--b", "1", "--n", "16", "--partition-file",
      "@q15"], "partition grid size disagrees with --n"),
    (["build", "--t", "0", "--b", "1", "--n", "15", "--partition-file",
      "@q16"], "partition grid size disagrees with --n"),
    # An output path that cannot be written.
    (["lemmas", "--n", "2", "--samples", "5", "--out", "/nonexistent/x.csv"],
     "No such file"),
    (["treewidth", "--tri-grid", "3", "--decomposition-out",
      "/nonexistent/x"], "No such file"),
    # The side is checked before the guard: (-7)^2 = 49 is over it.
    (["treewidth", "--tri-grid", "-7"], "grid side"),
    # The class array's length is checked before Q_400's 64M vertices are
    # listed, and a class is the integer 1 or 2, not true.
    (["build", "--t", "0", "--b", "1", "--partition-file", "@q400_short"],
     "class array length disagrees with n^3"),
    (["build", "--t", "0", "--b", "1", "--partition-file", "@true_class"],
     "integers 1 and 2, got True"),
])
def test_bad_runs_are_usage_errors(argv, message, capsys, tmp_path,
                                   monkeypatch):
    # Exit 1 means a property violation; a run that cannot start is exit 2
    # with a one-line message and no traceback.
    list_vertices = GridGraph.vertices

    def small_grids_only(g):
        assert g.n < 400, "listed every vertex of a large grid"
        return list_vertices(g)

    monkeypatch.setattr(GridGraph, "vertices", small_grids_only)
    for name, text in INPUT_FILES.items():
        (tmp_path / f"{name}.json").write_text(text)
    argv = [str(tmp_path / f"{a[1:]}.json") if a[0] == "@" else a
            for a in argv]
    code, out = run_cli(argv)
    assert code == 2 and out == ""
    assert message in capsys.readouterr().err


def test_build_partition_file(tmp_path):
    # The config echoes the seed and bias a hashed partition would use.
    path = tmp_path / "q15.json"
    path.write_text(INPUT_FILES["q15"])
    code, out = run_cli(["build", "--t", "0", "--b", "1",
                         "--partition-file", str(path)])
    assert code == 0
    obj = json.loads(out)
    assert obj["verified"] is True
    assert obj["config"] == {"t": 0, "b": 1, "n": 15, "seed": 0,
                             "bias": 128, "color": 1}


@pytest.mark.parametrize("name, n, extra", [
    ("q16", 16, []),
    ("q16", 16, ["--n", "16"]),
    ("q14", 14, ["--allow-undersized"]),
])
def test_build_partition_file_sets_the_grid_side(tmp_path, name, n, extra):
    # Without --n the grid side is read from the file.
    path = tmp_path / f"{name}.json"
    path.write_text(INPUT_FILES[name])
    code, out = run_cli(["build", "--t", "0", "--b", "1",
                         "--partition-file", str(path), *extra])
    assert code == 0
    obj = json.loads(out)
    assert obj["verified"] is True
    assert obj["guaranteed"] is (n >= 15)
    assert obj["config"] == {"t": 0, "b": 1, "n": n, "seed": 0,
                             "bias": 128, "color": 1}


def test_input_guard_runs_before_labelling(tmp_path, monkeypatch):
    # The guard reads the document's vertex count; labelling all of Q_50
    # first took seconds.
    import gridtw.cli

    def refuse(text):
        raise AssertionError("labelled before the guard")

    monkeypatch.setattr(gridtw.cli, "grid_from_json", refuse)
    layers = [[x, y, z] for x in range(4) for y in range(4) for z in range(3)]
    for doc in ({"n": 50}, {"n": 4, "vertices": layers}):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["treewidth", "--input", str(path)])[0] == 2


def test_sampled_search_rejects_zero_samples():
    from gridtw.harness import sampled_partition_search

    with pytest.raises(ValueError):
        sampled_partition_search(2, 0, 1)


def test_sampled_search_measures_oversized_class_by_min_fill():
    # n^3 = 64 <= 2 * 40 selects exact class solves, but seed 2 draws a
    # 41-vertex class: it is measured by min-fill and the result says so.
    code, out = run_cli(
        ["search", "--n", "4", "--samples", "1", "--seed", "2",
         "--format", "json"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["estimator"] == "heuristic"
    assert obj["classes_evaluated"] == 1
    assert obj["witness"].count(1) in (23, 41)
