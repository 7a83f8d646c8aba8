"""The host's speed, timed beside the benchmark's ops.

On a shared host, co-tenants slow a vCPU by up to ~1.45x, in a share of the
time that drifts over tens of seconds to minutes. The benchmark times
`reference_loop`, which calls nothing of trackcop, where each op runs (in
the runner before an in-process op, at the start of each CLI child), and
scales op times to a host that runs the loop in REF_S seconds. See
bench/README.md for the measurements behind this.

This module imports only `time`, so CLI children can import it before
trackcop without changing what trackcop's start-up does.
"""

import time

# The loop's median time on the VM the bounds were set on.
REF_S = 1.4e-3
# Prefix of the line on which a CLI child reports its loop time (stderr).
TAG = "#bench-reference-loop "


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop: the host's speed right now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20_000):
        s += i * i
    return time.perf_counter() - t0


def slowdown(ref: list) -> float:
    """How much slower than nominal the host ran while `ref` was sampled."""
    return sum(ref) / len(ref) / REF_S
