"""Spans around calls into trackcop's public functions, from outside src/.

`Tracer.installed()` rebinds each traced function in every trackcop module
that holds it (the defining module, importers such as `trackcop.cli`, and
the package namespace), so cross-module calls get spans too. Spans are kept
in memory as (name, start, end, parent, op) and turned into per-op self
times when the run ends. The program is single-threaded, so no layer ever
queues or waits; the tracer records busy time and call counts only.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
import tracemalloc

# module -> public functions that get a span. Missing names are skipped, so a
# later refactor that folds or renames one only zeroes its metrics.
LAYERS = {
    "funcspace": ["make_pl", "eval_pl", "merge_knots", "combine", "variation"],
    "trackmodel": ["make_diagonal", "diagonal_conditions", "existence_check"],
    "canonical": ["psi_bounds", "quadruplet", "eligibility_by_variation", "blend"],
    "construction": ["region_functions", "c_psi_value", "s_t_split", "materialize_grid"],
    "verification": ["check_grid", "compare", "extract_psi", "dominating_envelope",
                     "pointwise_upper_bound"],
    "splice": ["make_splice", "splice_grid"],
    "cli": ["load_problem", "resolve_candidate", "write_grid_csv", "read_grid_csv",
            "write_function_csv", "cmd_validate", "cmd_bounds", "cmd_build",
            "cmd_compare", "cmd_envelope", "cmd_splice"],
}

# Functions whose tracemalloc peak is reported relative to the grid's n*n*8 bytes.
PEAK_TRACKED = {"construction.materialize_grid", "verification.check_grid",
                "verification.compare", "verification.extract_psi", "splice.splice_grid"}

SUBCOMMANDS = ["validate", "bounds", "build", "compare", "envelope", "splice"]

OP = "op"


def _grid_side(name, args, result):
    """Mesh length of the grid a peak-tracked call works on."""
    grid = result if name in ("construction.materialize_grid", "splice.splice_grid") else args[0]
    return len(grid.mesh)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op]
        self.stack = []
        self.op_index = -1
        self.outcomes = {"exists": [0, 0], "eligible": [0, 0]}
        self.bytes = {"written": 0, "read": 0}
        self.peak_ratio = {}     # name -> max over calls of peak / grid bytes
        self._peak_stack = []    # running peak of enclosing peak-tracked calls

    # -- recording -----------------------------------------------------------

    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_index])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def op(self):
        """Span for one benchmark op; library spans inside it are its children."""
        self.op_index += 1
        idx = self.begin(OP)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, name, fn):
        peak = name in PEAK_TRACKED

        def traced(*args, **kwargs):
            if not self.stack:
                # Outside an op (warm-up, checks): no span, no count.
                return fn(*args, **kwargs)
            if peak:
                # tracemalloc runs only inside peak-tracked calls: elsewhere its
                # per-allocation hook would slow the Python loops several-fold
                # and skew every self time.
                owner = not tracemalloc.is_tracing()
                if owner:
                    tracemalloc.start()
                base = self._peak_enter()
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
                if peak:
                    used = self._peak_exit(base)
                    if owner:
                        tracemalloc.stop()
            if peak:
                n = _grid_side(name, args, result)
                ratio = used / (n * n * 8.0)
                self.peak_ratio[name] = max(self.peak_ratio.get(name, 0.0), ratio)
            self._observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _peak_enter(self):
        current, peak = tracemalloc.get_traced_memory()
        if self._peak_stack:
            self._peak_stack[-1] = max(self._peak_stack[-1], peak)
        tracemalloc.reset_peak()
        self._peak_stack.append(current)
        return current

    def _peak_exit(self, base):
        _, peak = tracemalloc.get_traced_memory()
        own = max(self._peak_stack.pop(), peak)
        if self._peak_stack:
            self._peak_stack[-1] = max(self._peak_stack[-1], own)
        return own - base

    def _observe(self, name, args, result):
        if name == "trackmodel.existence_check":
            self.outcomes["exists"][0] += bool(result.exists)
            self.outcomes["exists"][1] += 1
        elif name == "canonical.quadruplet":
            self.outcomes["eligible"][0] += bool(result.eligible)
            self.outcomes["eligible"][1] += 1
        elif name == "cli.write_grid_csv":
            self.bytes["written"] += os.path.getsize(args[0])
        elif name == "cli.read_grid_csv":
            self.bytes["read"] += os.path.getsize(args[0])

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function across trackcop's modules; undo on exit."""
        import trackcop.cli  # noqa: F401  (loads every module, so all their names get rebound)

        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "trackcop" or k.startswith("trackcop."))]
        undo = []
        for layer, names in LAYERS.items():
            home = sys.modules[f"trackcop.{layer}"]
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapped = self.wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            undo.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in reversed(undo):
                setattr(mod, attr, original)

    # -- reduction -----------------------------------------------------------

    def self_times(self):
        """name -> (total self seconds, calls), plus total op wall seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        op_wall = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if name == OP:
                op_wall += end - start
            own = (end - start) - child[i]
            total, calls = totals.get(name, (0.0, 0))
            totals[name] = (total + own, calls + 1)
        return totals, op_wall

    def dump(self, path):
        """Write the spans, one JSON array per line, when the run ends."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer, ops: int, cli_extra: dict | None = None) -> dict:
    """Per-layer metrics of a traced run, every name present on every workload."""
    totals, op_wall = tracer.self_times()
    ops = max(ops, 1)
    out = {}
    module_self = {layer: 0.0 for layer in LAYERS}
    for layer, names in LAYERS.items():
        for fname in names:
            total, calls = totals.get(f"{layer}.{fname}", (0.0, 0))
            module_self[layer] += total
            out[f"{layer}.{fname}.self_ms"] = (1e3 * total / ops, "ms")
            out[f"{layer}.{fname}.calls"] = (calls / ops, "calls/op")
    for layer, total in module_self.items():
        out[f"{layer}.self_share"] = (total / op_wall if op_wall else 0.0, "ratio")
    hits, seen = tracer.outcomes["exists"]
    out["trackmodel.existence_check.exists_ratio"] = (hits / seen if seen else 0.0, "ratio")
    hits, seen = tracer.outcomes["eligible"]
    out["canonical.quadruplet.eligible_ratio"] = (hits / seen if seen else 0.0, "ratio")
    for name in sorted(PEAK_TRACKED):
        out[f"{name}.peak_over_grid"] = (tracer.peak_ratio.get(name, 0.0), "ratio")
    out["cli.grid_bytes_written"] = (tracer.bytes["written"] / ops, "B/op")
    out["cli.grid_bytes_read"] = (tracer.bytes["read"] / ops, "B/op")
    cli_extra = cli_extra or {}
    for sub in SUBCOMMANDS:
        out[f"cli.{sub}.peak_rss_mb"] = (cli_extra.get(f"{sub}.peak_rss_mb", 0.0), "MiB")
    out["cli.startup_ms"] = (cli_extra.get("startup_ms", 0.0), "ms")
    return out
