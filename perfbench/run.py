"""gridtw benchmark: one workload per process, closed loop, gated outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload audit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--workload all`` runs audit, solve, suites and build one after another,
each in a fresh single-threaded process.  One caller runs the units: the
next starts only after the previous one returns.  Each unit runs under its
workload's deadline, enforced in-process with ``signal.setitimer``.

With ``--trace 0`` the run makes a first pass over every unit, repeats
passes over the units that completed until ``--seconds`` have gone by (two
passes at least), and reports the end-to-end metrics from each unit's
median time, scaled to the reference speed of ``clock.py``.  With
``--trace 1`` it makes one untraced pass, then one traced pass over the
units that completed, and reports the per-layer metrics; the traced pass
slowdown is ``trace.overhead_frac``.  Any wrong output exits with code 1
before a metric is printed.  The last stdout line is one JSON object.
"""

import argparse
import hashlib
import importlib
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from clock import Clock  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_ROUNDS = 5
MIN_PASSES = 2
TRACE_DEADLINE_FACTOR = 3


class Deadline(Exception):
    """Raised by SIGALRM inside a unit that ran past its deadline."""


def _on_alarm(signum, frame):
    raise Deadline()


def load_gridtw():
    """Import gridtw afresh (dropping any earlier import) and return its
    layer modules."""
    for name in [m for m in sys.modules
                 if m == "gridtw" or m.startswith("gridtw.")]:
        del sys.modules[name]
    importlib.import_module("gridtw")
    return SimpleNamespace(**{
        name: importlib.import_module(f"gridtw.{name}")
        for name in workloads.MODULES
    })


def setup(workload, clock):
    """Median over SETUP_ROUNDS of: import gridtw, build the fixtures."""
    clock.probe()
    slots = []
    for _ in range(SETUP_ROUNDS):
        start = time.perf_counter()
        gw = load_gridtw()
        fx = workloads.fixtures(workload, gw)
        slots.append(clock.record(time.perf_counter() - start))
    clock.probe()
    return gw, fx, statistics.median(slot["scaled"] for slot in slots)


def call_with_deadline(fn, seconds):
    """(status, output) with status "ok", "timeout" or "error"."""
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return "ok", fn()
    except Deadline:
        return "timeout", None
    except Exception:  # a unit that raises is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return "error", None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_pass(units, deadline, clock, tracer=None):
    """Run each unit once, in order.

    Returns [(unit, status, out, slot)]; a slot holds the unit's "raw" wall
    seconds and its "scaled" seconds at the reference speed (clock.py).
    """
    results = []
    for unit in units:
        if tracer is not None:
            tracer.begin(unit.uid)
        start = time.perf_counter()
        status, out = call_with_deadline(unit.call, deadline)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end(keep=status == "ok")
        results.append((unit, status, out, clock.record(elapsed)))
    clock.probe()
    return results


class Gate:
    """Re-verifies each unit's first output; later outputs must match it."""

    def __init__(self):
        self.canon = {}
        self.certified = {}

    def admit(self, unit, out):
        text = unit.canon(out)
        if unit.uid not in self.canon:
            self.certified[unit.uid] = bool(unit.gate(out))
            self.canon[unit.uid] = text
        elif self.canon[unit.uid] != text:
            raise workloads.GateError(f"{unit.uid}: output changed between "
                                      "passes")

    def digest(self, units):
        h = hashlib.sha256()
        for unit in units:
            h.update(f"{unit.uid}\t{self.canon.get(unit.uid, 'TIMEOUT')}\n"
                     .encode())
        return h.hexdigest()


def percentile(sorted_values, q):
    """Nearest-rank percentile and the number of values beyond it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seed, seconds, trace):
    deadline = workloads.DEADLINE_S[workload]
    clock = Clock()
    gw, fx, setup_s = setup(workload, clock)
    units = workloads.make_units(workload, gw, fx, seed)
    gate = Gate()

    start = time.perf_counter()
    first = run_pass(units, deadline, clock)
    passes = [first]
    for unit, status, out, _ in first:
        if status == "ok":
            gate.admit(unit, out)
    timed_out = [u.uid for u, status, _, _ in first if status == "timeout"]
    done = [u for u, status, _, _ in first if status == "ok"]
    lines = [f"workload {workload} seed {seed}: {len(units)} units per "
             f"pass, deadline {deadline} s",
             f"timed_out {' '.join(timed_out) or '-'}",
             f"digest {gate.digest(units)}"]

    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            tracer.begin("setup")
            workloads.fixtures(workload, gw)
            tracer.end(keep=True)
            traced = run_pass(done, deadline * TRACE_DEADLINE_FACTOR, clock,
                              tracer)
        finally:
            tracer.uninstall()
        for unit, status, out, _ in traced:
            if status != "ok":
                raise workloads.GateError(f"{unit.uid}: {status} when traced")
            gate.admit(unit, out)
        base = sum(slot["scaled"] for _, status, _, slot in first
                   if status == "ok")
        overhead = sum(slot["scaled"] for *_, slot in traced) / base - 1
        out_path = ROOT / ".bench_out" / f"spans-{workload}-{seed}.csv.gz"
        tracer.write_spans(out_path)
        lines.append(f"spans {len(tracer.spans)} written to "
                     f"{out_path.relative_to(ROOT)}")
        metrics = {name: metric(value, unit) for name, (value, unit)
                   in tracer.layer_metrics(overhead).items()}
        failed = sum(status == "error" for _, status, _, _ in first)
        return lines, len(first) + len(traced), failed, metrics

    # Repeat passes over the units that completed until the time is used.
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(done, deadline, clock))
        for unit, status, out, _ in passes[-1]:
            if status == "ok":
                gate.admit(unit, out)
        done = [u for u, status, _, _ in passes[-1] if status == "ok"]
    out_path = ROOT / ".bench_out" / f"units-{workload}-{seed}.csv"
    out_path.parent.mkdir(exist_ok=True)
    with open(out_path, "w") as fh:
        fh.write("pass,uid,status,seconds,raw_seconds\n")
        for i, p in enumerate(passes):
            for unit, status, _, slot in p:
                fh.write(f"{i},{unit.uid},{status},{slot['scaled']:.6f},"
                         f"{slot['raw']:.6f}\n")
    lines.append(f"unit times written to {out_path.relative_to(ROOT)}")

    # A unit's time is the median of its passes; a unit counts as completed
    # only if it completed in every pass.  One that did not complete costs
    # the wall time it took in the first pass, its deadline.
    results = [r for p in passes for r in p]
    times = {}
    for unit, status, _, slot in results:
        times.setdefault(unit.uid, []).append(
            slot["scaled"] if status == "ok" else None)
    completed = {uid: statistics.median(ts) for uid, ts in times.items()
                 if len(ts) == len(passes) and None not in ts}
    n = len(units)
    ok = sorted(completed.values())
    pass_s = sum(ok) + sum(slot["raw"] for unit, _, _, slot in first
                           if unit.uid not in completed)
    certified = sum(gate.certified[uid] for uid in completed)
    failed = sum(status == "error" for _, status, _, _ in results)
    p50, _ = percentile(ok, 0.5)
    p90, beyond = percentile(ok, 0.9)
    if beyond < 10:
        raise RuntimeError(f"only {beyond} units beyond p90; the workload "
                           "needs at least 100 completed units")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "instances_per_s": metric(n / pass_s, "1/s"),
        "latency_p50_ms": metric(p50 * 1000, "ms"),
        "latency_p90_ms": metric(p90 * 1000, "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "completed_frac": metric(len(ok) / n, "ratio"),
        "certified_frac": metric(certified / n, "ratio"),
    }
    samples = {
        "setup_s": f"median of {SETUP_ROUNDS} set-ups",
        "instances_per_s": f"{n} units in {pass_s:.3f} s, median of "
                           f"{len(passes)} passes per unit",
        "latency_p50_ms": f"{len(ok)} completed units",
        "latency_p90_ms": f"{len(ok)} completed units, {beyond} beyond",
        "peak_rss_mb": "1 process",
        "completed_frac": f"{len(ok)}/{n} units; "
                          f"fail_frac {1 - len(ok) / n:.6f}",
        "certified_frac": f"{certified}/{n} units",
    }
    for name, m in metrics.items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']} ({samples[name]})")
    return lines, len(results), failed, metrics


def run_all(args):
    """Each workload in its own process; exits non-zero if any does."""
    code = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, check=False)
        code = code or proc.returncode
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gridtw" / "__init__.py").is_file():
        print(f"gridtw sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        lines, attempted, failed, metrics = measure(
            args.workload, args.seed, args.seconds, args.trace)
    except workloads.GateError as exc:
        print(f"wrong output, no metrics published: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
