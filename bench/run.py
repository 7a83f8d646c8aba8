#!/usr/bin/env python3
"""trackcop benchmark: seeded workloads, end-to-end metrics, per-layer traces.

One workload, as a benchmark driver calls it (run from the repository root):

    python3 bench/run.py --workload section-1d --seed 1 --seconds 50 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

Every workload, each in its own fresh process, timed and traced, with a
summary table (add `--smoke` for tiny sizes that finish in seconds):

    python3 bench/run.py

The benchmark imports trackcop from `src/` next to this directory, so it
measures the source tree it sits in. Its scratch files (chain directories and
span dumps) go to `.bench_build/trackcop` at the root.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
WORK = BUILD / "trackcop"
# No byte code is written, here or in children, so runs leave the source tree as
# it was; a cache prefix would also bypass the installed caches of numpy and
# the standard library.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

NPROC = os.cpu_count() or 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    _cur = os.environ.get(_var, "")
    if not _cur.isdigit() or not 0 < int(_cur) <= NPROC:
        os.environ[_var] = str(NPROC)

NAMES = ["section-1d", "grid-2d", "cli-pipeline"]
MIN_RUNS_PER_SLOT = 1
SETUP_PROBES = 9
END_TO_END = [("ops_per_s", "ops/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("peak_rss_mb", "MiB"), ("setup_s", "s")]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=NAMES + ["all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0,
                   help="length of the timed phase, which also runs on until every "
                        "slot of the mix has run once")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, one set-up probe")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def require_source():
    """Stop unless the checkout's own trackcop sources are importable."""
    src = ROOT / "src"
    if not (src / "trackcop" / "__init__.py").is_file():
        sys.exit(f"bench: no trackcop sources at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import trackcop
    if Path(trackcop.__file__).resolve().parent != (src / "trackcop").resolve():
        sys.exit(f"bench: imported trackcop from {trackcop.__file__}, not from {src}")


def tree_snapshot():
    """(path -> size, mtime) for the checkout, minus the build directory and VCS data."""
    snap = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        if Path(dirpath) == ROOT:
            dirnames[:] = [d for d in dirnames if d not in (".bench_build", ".git")]
        for f in filenames:
            path = os.path.join(dirpath, f)
            st = os.lstat(path)
            snap[os.path.relpath(path, ROOT)] = (st.st_size, st.st_mtime_ns)
    return snap


def environment(args) -> dict:
    import numpy
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": NPROC, "l3": l3.read_text().strip() if l3.is_file() else "unknown",
            "seed": args.seed, "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke}


def make_workload(args, workdir, in_process=False):
    from workloads import WORKLOADS, CliPipeline
    cls = WORKLOADS[args.workload]
    if cls is CliPipeline:
        return cls(args.seed, args.smoke, workdir, ROOT, in_process=in_process)
    return cls(args.seed, args.smoke, workdir)


def run_op(w, op, tracer=None):
    """(seconds inside the library calls, failure messages) of one op."""
    inputs = w.prepare(op)
    elapsed = 0.0
    try:
        with tracer.op() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                out = w.execute(op, inputs)
            finally:
                elapsed = time.perf_counter() - t0
        return elapsed, w.check(op, inputs, out)
    except Exception as exc:  # an unexpected error is a failed op, not a crashed run
        traceback.print_exc(file=sys.stderr)
        return elapsed, [f"{type(exc).__name__}: {exc}"]


def setup_probe(args):
    """Child: import, build the plan, run one warm-up op, then say so and exit."""
    require_source()
    WORK.mkdir(parents=True, exist_ok=True)
    w = make_workload(args, WORK / f"probe-{os.getpid()}")
    try:
        w.cycle(0)
        _, fails = run_op(w, w.warmup())
    finally:
        w.close()
    print("ready" if not fails else "failed", flush=True)
    return 0 if not fails else 1


def measure_setup(args, runs: int):
    """Median seconds from process start to the first timed op, over fresh processes."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                                cwd=ROOT, text=True)
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line != "ready":
            raise RuntimeError(f"set-up probe failed ({line!r})")
        times.append(elapsed)
    return statistics.median(times)


def _done(deadline, samples) -> bool:
    """The timed phase ends at the deadline, once every slot has run."""
    return time.perf_counter() >= deadline and \
        min(map(len, samples.values())) >= MIN_RUNS_PER_SLOT


def mix_latency(samples: dict, mix: dict):
    """ops/s, p50 and p90 seconds of the workload's mix, from every op run.

    A slot's latency is the mean of its runs. A run ends part-way through a
    cycle, so slots are weighted by their shares of the mix, not by how often
    they ran: ops_per_s is 1 / the mix-weighted mean latency (completed ops
    per second of op time, had the run held the mix exactly), and p50 / p90
    are percentiles of the slot latencies weighted by their shares, taken at
    the midpoints of the cumulative weights.
    """
    import numpy as np

    lat = np.array([statistics.fmean(samples[slot]) for slot in mix])
    share = np.array(list(mix.values()))
    order = np.argsort(lat)
    lat, share = lat[order], share[order]
    mid = np.cumsum(share) - share / 2
    return 1.0 / float((lat * share).sum()), float(np.interp(0.5, mid, lat)), \
        float(np.interp(0.9, mid, lat))


def run_workload(args) -> int:
    require_source()
    before = tree_snapshot()
    if not args.trace:
        setup_s = measure_setup(args, 1 if args.smoke else SETUP_PROBES)
    from hostspeed import slowdown
    from tracing import Tracer, layer_metrics

    workdir = WORK / f"run-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    w = make_workload(args, workdir, in_process=bool(args.trace))
    cli_extra = w.subprocess_profile() if args.trace and args.workload == "cli-pipeline" else {}

    mix = w.mix()
    samples = {slot: [] for slot in mix}
    failures = []
    failed = ops = 0
    try:
        _, fails = run_op(w, w.warmup())
        failures += fails
        failed += bool(fails)
        w.refs.clear()  # a CLI warm-up child reports a loop time too
        ctx = tracer.installed() if tracer else contextlib.nullcontext()
        with ctx:
            deadline = time.perf_counter() + args.seconds
            c = 0
            while not _done(deadline, samples):
                for op in w.cycle(c):
                    w.sample_host()
                    elapsed, fails = run_op(w, op, tracer)
                    samples[op.slot].append(elapsed)
                    failures += fails
                    failed += bool(fails)
                    ops += 1
                    if _done(deadline, samples):
                        break
                c += 1
    finally:
        w.close()
    attempted = ops + 1
    ops_per_s, p50, p90 = mix_latency(samples, mix)
    slow = slowdown(w.refs)

    hermetic = tree_snapshot() == before
    if not hermetic:
        changed = sorted(set(before.items()) ^ set(tree_snapshot().items()))
        print(f"bench: the run changed files in the checkout: {changed[:5]}", file=sys.stderr)
    for msg in sorted(set(failures))[:20]:
        print(f"bench: FAILED {msg}", file=sys.stderr)

    if tracer is None:
        if args.workload == "cli-pipeline":
            # The median peak of the heaviest (subcommand, mesh): the largest
            # single child moves by ~10 % with the seeded inputs of the few
            # large-mesh chains.
            peak_kib = max(map(statistics.median, w.rss_kib.values()))
        else:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {"ops_per_s": ops_per_s * slow, "op_p50_ms": 1e3 * p50 / slow,
                  "op_p90_ms": 1e3 * p90 / slow, "peak_rss_mb": peak_kib / 1024.0,
                  "setup_s": setup_s}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        per_layer = layer_metrics(tracer, ops, cli_extra)
        per_layer["traced_ops_per_s"] = (ops_per_s * slow, "ops/s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        WORK.mkdir(parents=True, exist_ok=True)
        tracer.dump(WORK / f"spans-{args.workload}.jsonl")

    counts = [len(v) for v in samples.values()]
    print(f"# {args.workload} seed={args.seed} ops={ops} slots={len(mix)} "
          f"runs per slot={min(counts)}..{max(counts)} error_rate={failed / attempted:.4g} "
          f"({failed}/{attempted}) hermetic={hermetic}")
    print("# env " + json.dumps(environment(args)))
    print(f"# host slowdown={slow:.4f} ({len(w.refs)} reference loops); unscaled "
          f"ops_per_s={ops_per_s:.6g} op_p50_ms={1e3 * p50:.6g} op_p90_ms={1e3 * p90:.6g}")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0 and hermetic, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload timed and traced in its own process, then one summary table."""
    results = {}
    for name in NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"bench: {name} trace={trace} exited {proc.returncode}", file=sys.stderr)
                return 1
            results[name, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'metric':<16}{'unit':<8}" + "".join(f"{n:>16}" for n in NAMES))
    for metric, unit in END_TO_END:
        row = [results[n, 0]["metrics"][metric]["value"] for n in NAMES]
        print(f"{metric:<16}{unit:<8}" + "".join(f"{v:>16.4g}" for v in row))
    rate = [results[n, 0]["failed"] / results[n, 0]["attempted"] for n in NAMES]
    print(f"{'error_rate':<16}{'ratio':<8}" + "".join(f"{v:>16.4g}" for v in rate))
    over = [results[n, 1]["metrics"]["traced_ops_per_s"]["value"]
            - results[n, 0]["metrics"]["ops_per_s"]["value"] for n in NAMES]
    print(f"{'trace_overhead':<16}{'ops/s':<8}" + "".join(f"{v:>16.4g}" for v in over))
    for n in NAMES:
        layer = results[n, 1]["metrics"]
        top = sorted(((v["value"], k) for k, v in layer.items() if k.endswith(".self_ms")),
                     reverse=True)[:6]
        print(f"{n} largest self times per op: "
              + ", ".join(f"{k[:-8]} {v:.1f} ms" for v, k in top))
    ok = all(r["correct"] for r in results.values())
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
