"""Reference-speed clock: wall time scaled by a calibration probe.

On a 2-core shared virtual machine (Intel Xeon, 2.1 GHz), the same code
ran up to twice as slow in phases that lasted from seconds to over a
minute.  Process time rose with wall time, so the cause is other tenants on
the same physical cores.  A run cannot outlast such a phase, so raw times of
one seed differed between runs by more than any bound worth having.

The probe is fixed pure-Python work shaped like gridtw's inner loops: tuple
coordinates, dict adjacency, and a set/deque BFS.  It imports nothing from
gridtw, so no change to the program moves it.  It runs between units, at
least every PROBE_EVERY_S, with the garbage collector paused.  Each unit's
wall time is scaled by REFERENCE_PROBE_S divided by the mean of the probes
just before and just after it.  The result is the time the unit would take
in a phase where the probe takes REFERENCE_PROBE_S.  In a 150 s test on that
machine, the quartile spread of per-pass median audit times was 31% raw and
7% scaled.
"""

import gc
import time
from collections import deque

# About the probe's time on that 2-core Xeon machine.  It only sets the
# scale that turns probe-relative time back into seconds.
REFERENCE_PROBE_S = 0.002
PROBE_EVERY_S = 0.25
PROBE_REPEATS = 3

_STEPS = [(a, b, c) for a in (-1, 0, 1) for b in (-1, 0, 1)
          for c in (-1, 0, 1)
          if (a, b, c) != (0, 0, 0)
          and (min(a, b, c) >= 0 or max(a, b, c) <= 0)]


def reference_work(n=7):
    """Fixed pure-Python work: build an n^3 diagonal grid and BFS it."""
    adj = {}
    for x in range(n):
        for y in range(n):
            for z in range(n):
                nb = []
                for a, b, c in _STEPS:
                    w = (x + a, y + b, z + c)
                    if 0 <= w[0] < n and 0 <= w[1] < n and 0 <= w[2] < n:
                        nb.append(w)
                adj[(x, y, z)] = sorted(nb)
    seen = {(0, 0, 0)}
    queue = deque([(0, 0, 0)])
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen)


class Clock:
    """Scales spans of wall time to the reference speed."""

    def __init__(self):
        self._last = None        # latest probe, seconds
        self._last_at = 0.0
        self._pending = []       # slots waiting for the probe after them

    def probe(self):
        """Time the probe; fill in every span recorded since the last one."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = None
            for _ in range(PROBE_REPEATS):
                start = time.perf_counter()
                reference_work()
                elapsed = time.perf_counter() - start
                best = elapsed if best is None else min(best, elapsed)
        finally:
            if enabled:
                gc.enable()
        for slot in self._pending:
            slot["scaled"] = (slot["raw"] * 2 * REFERENCE_PROBE_S
                              / (slot["before"] + best))
        self._pending = []
        self._last = best
        self._last_at = time.perf_counter()

    def record(self, raw):
        """A slot for a span of ``raw`` wall seconds that just ended.  Its
        "scaled" entry is set at the next probe; call probe() to flush."""
        if self._last is None:
            self.probe()
        slot = {"raw": raw, "before": self._last}
        self._pending.append(slot)
        if time.perf_counter() - self._last_at >= PROBE_EVERY_S:
            self.probe()
        return slot
