"""Self-tests of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_bench.py
"""

import copy
import shutil
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from clock import Clock  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture(autouse=True)
def alarm_handler():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def tiny_units(workload, seed):
    gw = run.load_gridtw()
    fx = workloads.fixtures(workload, gw)
    return workloads.make_units(workload, gw, fx, seed, tiny=True)


def traced_run(workload, seed):
    """(digest, per-layer counts) of one traced pass over the tiny list."""
    units = tiny_units(workload, seed)
    tracer = Tracer()
    tracer.install()
    try:
        results = run.run_pass(units, workloads.DEADLINE_S[workload],
                               Clock(), tracer)
    finally:
        tracer.uninstall()
    gate = run.Gate()
    for unit, status, out, _ in results:
        assert status == "ok", unit.uid
        gate.admit(unit, out)
    counts = {name: value for name, (value, unit)
              in tracer.layer_metrics(0.0).items() if unit == "count"}
    return gate.digest(units), counts


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_repeats_counts_and_digest(workload):
    digest_a, counts_a = traced_run(workload, 5)
    digest_b, counts_b = traced_run(workload, 5)
    assert digest_a == digest_b
    assert counts_a == counts_b
    assert any(counts_a.values())


def _kind(uid):
    return uid.split(":")[0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_changes_units_keeps_mix(workload):
    a = [u.uid for u in tiny_units(workload, 1)]
    b = [u.uid for u in tiny_units(workload, 2)]
    assert Counter(map(_kind, a)) == Counter(map(_kind, b))
    assert a != b


def first_output(workload, prefix):
    for unit in tiny_units(workload, 3):
        if unit.uid.startswith(prefix):
            return unit, unit.call()
    raise LookupError(prefix)


def test_gate_rejects_tampered_audit():
    unit, reports = first_output("audit", "a4")
    assert unit.gate(reports)
    bad = copy.deepcopy(reports)
    key = next(iter(bad[0].path_integrals))
    bad[0].path_integrals[key] = 0
    with pytest.raises(workloads.GateError):
        unit.gate(bad)
    bad = copy.deepcopy(reports)
    bad[0].tw_exact = bad[0].tw_certified = bad[0].tw_exact + 5
    with pytest.raises(workloads.GateError):
        unit.gate(bad)


def test_gate_rejects_tampered_width():
    unit, (width, td) = first_output("solve", "r")
    assert unit.gate((width, td))
    with pytest.raises(workloads.GateError):
        unit.gate((width + 1, td))


def test_gate_rejects_tampered_partition_value():
    unit, out = first_output("solve", "ps3")
    assert unit.gate(out)
    bad = dict(out, best_max_class_treewidth=out["best_max_class_treewidth"]
               + 1)
    with pytest.raises(workloads.GateError):
        unit.gate(bad)


def test_gate_rejects_tampered_builder_result():
    for unit in tiny_units("build", 4):
        out = unit.call()
        assert unit.gate(out)
        bad = copy.deepcopy(out)
        if out.kind == "bramble":
            bad.order += 1
        else:
            bad.color = 3 - bad.color
        with pytest.raises(workloads.GateError):
            unit.gate(bad)


def test_gate_rejects_suite_violation():
    unit, rows = first_output("suites", "triangle")
    assert unit.gate(rows)
    with pytest.raises(workloads.GateError):
        unit.gate([dict(rows[0], violations=1)])


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
