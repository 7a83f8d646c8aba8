"""The three benchmark workloads: their seeded op mix, the op itself, its checks.

A workload hands the runner cycles of ops. Each op has three steps: `prepare`
builds the seeded inputs (not timed), `execute` makes the library calls (timed)
and `check` tests the outputs against identities from the paper (not timed).
A check returns a list of failure messages; an empty list is a success.

Every op belongs to a slot of the workload's mix: ops of one slot do the same
kind of work at the same size, on fresh seeded inputs. Every `period` cycles
hold each slot with its share of the mix, so the mix itself does not vary
with the seed; the runner reports latencies per slot (see run.py).

Library functions are always reached through a module attribute
(`tc.quadruplet`, ...), so the tracer's rebinding sees every call.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import trackcop as tc
import trackcop.cli as tcli

from gen import (
    Section,
    bump,
    frechet_mix_section,
    identity_knots,
    log_strata_midpoints,
    random_track,
)
from hostspeed import TAG, reference_loop

TOL = 1e-9
# Knot counts of the grid and CLI specs are fixed (positions are seeded): the
# spec knots join the mesh, so a varying count would vary n, and with it the
# grid bytes and peak RSS, from seed to seed.
GRID_SECTION_KNOTS = 8
GRID_TRACK_KNOTS = 6
CLI_SECTION_KNOTS = 40
CLI_TRACK_KNOTS = 8
WARMUP = 1 << 30  # first seed word of the warm-up op, never a cycle index
RELATIONS = {"equal": 0, "incomparable": 3, "first-dominates": 4, "second-dominates": 4}


@dataclass
class Op:
    """One op of a cycle: `kind` keys its spec, `seed` its inputs, `slot` its
    place in the mix."""

    kind: str
    seed: tuple
    params: dict = field(default_factory=dict)
    slot: tuple = ()


def _track(s: Section):
    if s.identity:
        return tc.identity_track()
    return tc.make_track(tc.make_pl(s.track_x, s.track_y))


class Workload:
    name = ""
    period = 1

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.refs = []  # reference-loop seconds, one per op

    def sample_host(self):
        """Time the reference loop where the next op runs: in this process."""
        self.refs.append(reference_loop())

    def rng(self, op: Op) -> np.random.Generator:
        return np.random.default_rng([self.seed, *op.seed])

    def cycle(self, c: int) -> list[Op]:
        raise NotImplementedError

    def mix(self) -> dict:
        """Slot -> share of the ops in the workload's mix."""
        ops = [op for c in range(self.period) for op in self.cycle(c)]
        return {slot: n / len(ops) for slot, n in Counter(op.slot for op in ops).items()}

    def warmup(self) -> Op:
        raise NotImplementedError

    def prepare(self, op: Op):
        raise NotImplementedError

    def execute(self, op: Op, inputs):
        raise NotImplementedError

    def check(self, op: Op, inputs, out) -> list[str]:
        raise NotImplementedError

    def close(self):
        """Release what the workload created on disk."""


# ---------------------------------------------------------------------------
# section-1d


class Section1D(Workload):
    """The whole 1-D path on one fresh section per op; no grids, no I/O.

    A cycle holds, in seeded order, eight admissible sections, one per
    log-stratum of the knot count, with track kinds alternating so that two
    cycles hold every size on both the identity and a general track, and one
    section made inadmissible by a bump: one op in nine. Eight strata, not
    fewer, keep the mix's latency distribution free of wide steps, on whose
    edges a percentile would jump with small shifts of host speed.
    """

    name = "section-1d"
    period = 2

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        # Up to 10^4.5 knots, not 10^5: ops near 10^5 knots take 2-3 s, and a
        # 50-second run would hold fewer than the 100 ops that leave ten
        # beyond op_p90_ms.
        lo, hi = (30, 300) if smoke else (1_000, 31_623)
        self.sizes = log_strata_midpoints(lo, hi, 8)
        self.points = 20 if smoke else 200
        self.bound_points = 3 if smoke else 10

    def cycle(self, c):
        ops = []
        for i, n in enumerate(self.sizes):
            identity = (i + c) % 2 == 0
            ops.append(Op("admissible", (c, i), {"knots": int(n), "identity": identity},
                          ("admissible", int(n), identity)))
        n, identity = int(self.sizes[4]), c % 2 == 0
        ops.append(Op("inadmissible", (c, len(self.sizes)), {"knots": n, "identity": identity},
                      ("inadmissible", n, identity)))
        order = np.random.default_rng([self.seed, c]).permutation(len(ops))
        return [ops[i] for i in order]

    def warmup(self):
        return Op("admissible", (WARMUP, 0), {"knots": int(self.sizes[0]), "identity": False})

    def prepare(self, op):
        rng = self.rng(op)
        track = identity_knots() if op.params["identity"] else \
            random_track(rng, int(rng.integers(3, 21)))
        s = frechet_mix_section(rng, track, op.params["knots"])
        if op.kind == "inadmissible":
            s = bump(rng, s)
        xs = rng.random(self.points)
        ys = rng.random(self.points)
        on_track = np.arange(self.points) % 4 == 0
        ys[on_track] = s.phi(xs[on_track])
        bx, by = rng.random(self.bound_points), rng.random(self.bound_points)
        return {"section": s, "t": float(rng.random()), "xs": xs, "ys": ys,
                "on_track": on_track, "bx": bx, "by": by}

    def execute(self, op, inp):
        s = inp["section"]
        track = _track(s)
        delta = tc.make_pl(s.delta_x, s.delta_y)
        if op.kind == "inadmissible":
            return self._inadmissible(delta, track, inp)
        spec = tc.make_diagonal(delta, track)
        out = {"spec": spec, "conditions": tc.diagonal_conditions(delta, track),
               "existence": tc.existence_check(spec)}
        bounds = tc.psi_bounds(spec)
        low = tc.quadruplet(spec, bounds.psi_low)
        up = tc.quadruplet(spec, bounds.psi_up)
        mix = tc.blend(low, up, inp["t"])
        out.update(bounds=bounds, low=low, up=up, mix=mix,
                   by_variation=tc.eligibility_by_variation(spec, mix.psi),
                   region=tc.region_functions(spec, mix))
        out["values"] = [tc.c_psi_value(spec, mix, x, y) for x, y in zip(inp["xs"], inp["ys"])]
        out["splits"] = [tc.s_t_split(spec, mix, x, y) for x, y in zip(inp["xs"], inp["ys"])]
        out["bounds_at"] = [tc.pointwise_upper_bound(spec, x, y)
                            for x, y in zip(inp["bx"], inp["by"])]
        return out

    def _inadmissible(self, delta, track, inp):
        spec = tc.make_diagonal(delta, track, validate=False)
        out = {"conditions": tc.diagonal_conditions(delta, track),
               "existence": tc.existence_check(spec), "raised": {}}
        attempts = {
            "make_diagonal": (lambda: tc.make_diagonal(delta, track),
                              tc.DiagonalConditionViolated),
            "psi_bounds": (lambda: tc.psi_bounds(spec), tc.NoCopulaExists),
            "pointwise_upper_bound": (
                lambda: tc.pointwise_upper_bound(spec, inp["bx"][0], inp["by"][0]),
                tc.NoCopulaExists),
        }
        for name, (call, expected) in attempts.items():
            try:
                call()
                out["raised"][name] = False
            except expected:
                out["raised"][name] = True
        return out

    def check(self, op, inp, out):
        fails = []
        ex = out["existence"]
        conditions_ok = all(ok for ok, _ in out["conditions"].values())
        if ex.variational_ok != ex.lipschitz_ok:
            fails.append("variational and Lipschitz existence forms disagree")
        if op.kind == "inadmissible":
            if conditions_ok or ex.exists:
                fails.append("bumped section passed as admissible")
            fails += [f"{name} did not reject the bumped section"
                      for name, raised in out["raised"].items() if not raised]
            return fails
        s = inp["section"]
        if not conditions_ok or not ex.exists:
            fails.append("generated section rejected as inadmissible")
        low, up, mix = out["low"], out["up"], out["mix"]
        if not (low.eligible and up.eligible and mix.eligible):
            fails.append("psi_L, psi_U or their blend not eligible by quadruplet")
        if not out["by_variation"].eligible:
            fails.append("blend not eligible by variation")
        u = mix.psi.x
        lo_u = np.interp(u, out["bounds"].psi_low.x, out["bounds"].psi_low.y)
        up_u = np.interp(u, out["bounds"].psi_up.x, out["bounds"].psi_up.y)
        if np.any(mix.psi.y < lo_u - TOL) or np.any(mix.psi.y > up_u + TOL):
            fails.append("blend leaves the band [psi_L, psi_U]")
        g, h = out["region"]["g"], out["region"]["h"]
        phi_g = s.phi(g.x)
        if np.any(g.y > phi_g + TOL) or np.any(np.interp(g.x, h.x, h.y) < phi_g - TOL):
            fails.append("track outside the region band g <= phi <= h")
        xs, ys = inp["xs"], inp["ys"]
        vals = np.array(out["values"])
        st = np.array([p["s"] + p["t"] for p in out["splits"]])
        if np.any(np.abs(st - vals) > TOL):
            fails.append("s + t differs from the copula value")
        if np.any(vals > np.minimum(xs, ys) + TOL) or \
                np.any(vals < np.maximum(xs + ys - 1.0, 0.0) - TOL):
            fails.append("copula value outside the Frechet bounds")
        on = inp["on_track"]
        if np.any(np.abs(vals[on] - s.delta(xs[on])) > TOL):
            fails.append("C(x, phi(x)) differs from delta(x)")
        bvals = np.array([tc.c_psi_value(out["spec"], mix, x, y)
                          for x, y in zip(inp["bx"], inp["by"])])
        bounds_at = np.array(out["bounds_at"])
        if np.any(bvals > bounds_at + TOL) or \
                np.any(bounds_at > np.minimum(inp["bx"], inp["by"]) + TOL):
            fails.append("value above pointwise_upper_bound, or bound above min(x, y)")
        return fails


# ---------------------------------------------------------------------------
# grid-2d


class Grid2D(Workload):
    """The n*n kernels on few-knot sections; no per-knot loops, no I/O.

    A cycle is eight ops: on each of the identity and a general track, three
    at mesh 1001 (grid fits the L3 cache) and one at 2001 (its temporaries do
    not), in seeded order.
    """

    name = "grid-2d"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.small, self.large = (41, 81) if smoke else (1001, 2001)

    def cycle(self, c):
        ops = []
        for k in range(2):
            for i in range(4):
                n = self.large if i == 3 else self.small
                ops.append(Op("grid", (c, 4 * k + i), {"n": n, "identity": k == 0},
                              (n, k == 0)))
        order = np.random.default_rng([self.seed, c]).permutation(len(ops))
        return [ops[i] for i in order]

    def warmup(self):
        return Op("grid", (WARMUP, 0), {"n": self.small, "identity": True})

    def prepare(self, op):
        rng = self.rng(op)
        track = identity_knots() if op.params["identity"] else \
            random_track(rng, GRID_TRACK_KNOTS)
        return {"section": frechet_mix_section(rng, track, GRID_SECTION_KNOTS)}

    def execute(self, op, inp):
        s = inp["section"]
        track = _track(s)
        spec = tc.make_diagonal(tc.make_pl(s.delta_x, s.delta_y), track)
        bounds = tc.psi_bounds(spec)
        low = tc.quadruplet(spec, bounds.psi_low)
        up = tc.quadruplet(spec, bounds.psi_up)
        mesh = tc.merge_knots(np.linspace(0.0, 1.0, op.params["n"]), spec.knots,
                              spec.phi_values())
        g_low = tc.materialize_grid(spec, low, mesh)
        g_up = tc.materialize_grid(spec, up, mesh)
        out = {"mesh": mesh, "g_low": g_low, "g_up": g_up,
               "r_low": tc.check_grid(g_low), "r_up": tc.check_grid(g_up),
               "relation": tc.compare(g_low, g_up)}
        spliced = tc.splice_grid(tc.make_splice(up, low), mesh)
        out["r_splice"] = tc.check_grid(spliced, mode="quasi")
        env = tc.dominating_envelope(g_low, track, spec)
        out["env"] = env
        out["g_env"] = tc.materialize_grid(spec, env.candidate, mesh)
        return out

    def check(self, op, inp, out):
        fails = []
        if not (out["r_low"].copula_ok and out["r_up"].copula_ok):
            fails.append("psi_L or psi_U grid fails the copula checks")
        if not out["r_splice"].quasi_ok:
            fails.append("splice fails the quasi-copula checks")
        rel = out["relation"]
        d = out["g_low"].values - out["g_up"].values
        equal = float(np.abs(d).max()) <= TOL
        if rel.relation not in RELATIONS or (rel.relation == "equal") != equal:
            fails.append(f"compare says {rel.relation!r} against the grids")
        if not out["env"].candidate.eligible:
            fails.append("envelope mass function not eligible")
        # The library extracts psi by checkerboard apportionment, exact up to
        # its own discretisation tolerance 2/n (see dominating_envelope).
        mesh_tol = 2.0 / len(out["mesh"])
        if float((out["g_env"].values - out["g_low"].values).min()) < -mesh_tol:
            fails.append("envelope does not dominate its source grid")
        return fails


# ---------------------------------------------------------------------------
# cli-pipeline


CHAIN = ["validate", "bounds", "build", "envelope", "compare", "splice"]
# The chains of one cycle: (diagonal, mesh, psi kind). "knot" is a seeded knot
# track with a knot-object section; the rest are builtin identity diagonals.
# Builtins alternate with knot tracks, and one chain in four uses the large mesh.
VARIANTS = [("knot", "large", "lower"), ("fig1", "small", "upper"),
            ("knot", "small", "blend"), ("fig2", "small", "lower"),
            ("knot", "large", "upper"), ("indep", "small", "blend"),
            ("knot", "small", "lower"), ("w-diag", "small", "upper")]


# A CLI op's child: time the reference loop on the child's own CPU, report it
# on stderr, then run `python -m trackcop.cli` as usual.
CHILD_MAIN = ("import runpy, sys, hostspeed; "
              "sys.stderr.write(hostspeed.TAG + repr(hostspeed.reference_loop()) + '\\n'); "
              "sys.stderr.flush(); "
              "runpy.run_module('trackcop.cli', run_name='__main__', alter_sys=True)")


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(Path(__file__).parent)])
    return env


def _limit_cpu():
    # A hung child is killed by the kernel rather than stalling the run.
    resource.setrlimit(resource.RLIMIT_CPU, (120, 120))


def run_child(argv, cwd, env):
    """Run argv to completion; return (exit code, seconds, ru_maxrss in KiB, stderr)."""
    err_path = Path(cwd) / "stderr.txt"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                preexec_fn=_limit_cpu)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss, err_path.read_text(errors="replace")


class CliPipeline(Workload):
    """One op is one trackcop subcommand, run as its own process.

    A cycle is eight chains validate -> bounds -> build -> envelope ->
    compare lower upper -> splice upper lower, one per entry of VARIANTS, so
    every (subcommand, variant) slot runs once a cycle. Every chain runs in
    its own directory under the work directory, with an explicit --out for
    every output.

    With `in_process` (the traced run) the same argv goes to trackcop.cli.main
    in this process, so the tracer sees the cli layer's calls.
    """

    name = "cli-pipeline"

    def __init__(self, seed, smoke, workdir, root: Path, in_process=False):
        super().__init__(seed, smoke, workdir)
        self.meshes = {"small": 21, "large": 41} if smoke else {"small": 501, "large": 1001}
        self.root = root
        self.env = cli_env(root)
        self.in_process = in_process
        self.rss_kib = {}  # (subcommand, mesh) -> ru_maxrss (KiB) of each run
        self.chains = 0

    def cycle(self, c):
        ops = []
        for k, (diagonal, mesh, psi) in enumerate(VARIANTS):
            chain = {"id": f"c{c}-{k}", "mesh": self.meshes[mesh], "diagonal": diagonal,
                     "psi": psi}
            ops += [Op(sub, (c, k), {"chain": chain}, (sub, k)) for sub in CHAIN]
        return ops

    def warmup(self):
        return Op("validate", (WARMUP, 0), {"chain": {
            "id": "warmup", "mesh": self.meshes["small"], "diagonal": "fig2", "psi": "lower"}})

    def _write_spec(self, op, chain):
        rng = self.rng(op)
        psi = f"blend:{rng.random():.6f}" if chain["psi"] == "blend" else chain["psi"]
        if chain["diagonal"] != "knot":
            spec = {"track": "identity", "diagonal": chain["diagonal"]}
        else:
            s = frechet_mix_section(rng, random_track(rng, CLI_TRACK_KNOTS), CLI_SECTION_KNOTS)
            spec = {"track": {"x": s.track_x.tolist(), "y": s.track_y.tolist()},
                    "diagonal": {"x": s.delta_x.tolist(), "y": s.delta_y.tolist()}}
        spec.update(psi=psi, mesh=chain["mesh"])
        d = self.workdir / chain["id"]
        d.mkdir(parents=True, exist_ok=True)
        (d / "spec.json").write_text(json.dumps(spec))
        chain["dir"] = d

    def prepare(self, op):
        chain = op.params["chain"]
        if op.kind == "validate":
            self._write_spec(op, chain)
        d = chain["dir"]
        spec = str(d / "spec.json")
        out = {sub: ["--out", str(d / sub)] for sub in CHAIN}
        if op.kind == "envelope":
            grids = sorted((d / "build").glob("grid.*"))
            grid = str(grids[0]) if grids else str(d / "build" / "grid.missing")
            args = ["envelope", grid, spec] + out["envelope"]
        elif op.kind == "compare":
            args = ["compare", spec, "lower", "upper"] + out["compare"]
        elif op.kind == "splice":
            args = ["splice", spec, "upper", "lower"] + out["splice"]
        elif op.kind == "validate":
            args = ["validate", spec]
        else:
            args = [op.kind, spec] + out[op.kind]
        return {"args": args + ["--quiet"], "dir": d}

    def execute(self, op, inp):
        if self.in_process:
            return self._execute_in_process(inp)
        argv = [sys.executable, "-c", CHILD_MAIN] + inp["args"]
        code, _, rss_kib, err = run_child(argv, inp["dir"], self.env)
        key = (op.kind, op.params["chain"]["mesh"])
        self.rss_kib.setdefault(key, []).append(rss_kib)
        first, _, rest = err.partition("\n")
        if first.startswith(TAG):
            self.refs.append(float(first[len(TAG):]))
            err = rest
        return {"code": code, "stderr": err}

    def sample_host(self):
        # A child times the loop itself (see CHILD_MAIN): the runner's CPU may
        # not be the one the child runs on.
        if self.in_process:
            super().sample_host()

    def _execute_in_process(self, inp):
        cwd = os.getcwd()
        os.chdir(inp["dir"])
        try:
            code = tcli.main(inp["args"])
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(cwd)
        return {"code": code, "stderr": ""}

    def check(self, op, inp, out):
        fails = self._check(op, inp["dir"], out)
        if fails and out["stderr"]:
            fails.append(out["stderr"].strip().splitlines()[-1])
        if op.kind == CHAIN[-1] or op.seed[0] == WARMUP:
            shutil.rmtree(inp["dir"], ignore_errors=True)
            self.chains += 1
        return fails

    def _check(self, op, d, out):
        code = out["code"]
        sub = op.kind
        if sub == "compare":
            path = d / "compare" / "comparison.json"
            if not path.is_file():
                return [f"compare exit {code} wrote no comparison.json"]
            relation = json.loads(path.read_text())["relation"]
            if RELATIONS.get(relation) != code:
                return [f"compare exit {code} does not match relation {relation!r}"]
            return []
        if code != 0:
            # build and splice write their verification report before they exit 1.
            report = d / sub / "report.json"
            failed = [k for k, v in json.loads(report.read_text()).items() if v is False] \
                if report.is_file() else []
            return [f"{sub} exit {code}" + (f" (report fails {', '.join(failed)})"
                                            if failed else "")]
        if sub == "bounds":
            low = np.loadtxt(d / "bounds" / "psi_lower.csv", delimiter=",", skiprows=1)
            up = np.loadtxt(d / "bounds" / "psi_upper.csv", delimiter=",", skiprows=1)
            if low[0, 1] != 0.0 or np.any(low[:, 1] > up[:, 1] + TOL):
                return ["written psi_L is not anchored or exceeds psi_U"]
        elif sub == "build":
            if not json.loads((d / "build" / "report.json").read_text())["copula_ok"]:
                return ["build report says the grid is not a copula"]
            if not list((d / "build").glob("grid.*")):
                return ["build wrote no grid file"]
        elif sub == "envelope":
            if not (d / "envelope" / "psi_extracted.csv").is_file() or \
                    not list((d / "envelope").glob("envelope_grid.*")):
                return ["envelope wrote no mass function or grid"]
        elif sub == "splice":
            if not json.loads((d / "splice" / "report.json").read_text())["quasi_ok"]:
                return ["splice report says the grid is not a quasi-copula"]
        return []

    def subprocess_profile(self) -> dict:
        """Per-subcommand peak RSS of one untraced mesh-1001 chain, and the
        median wall time of five `trackcop --help` processes (start-up)."""
        probe = CliPipeline(self.seed, self.smoke, self.workdir / "probe", self.root)
        for op in self.cycle(0):
            if op.seed[1] == 0:  # the first chain, on the large mesh
                inputs = probe.prepare(op)
                probe.check(op, inputs, probe.execute(op, inputs))
        extra = {f"{sub}.peak_rss_mb": max(kib) / 1024.0
                 for (sub, _), kib in probe.rss_kib.items()}
        probe.close()
        self.workdir.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, "-m", "trackcop.cli", "--help"]
        starts = [run_child(argv, self.workdir, self.env)[1] for _ in range(5)]
        extra["startup_ms"] = 1e3 * float(np.median(starts))
        return extra

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Section1D, Grid2D, CliPipeline)}
