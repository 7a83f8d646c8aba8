"""Differential harness for the trackcop CLI: a manifest of a fixed list of invocations.

Each invocation runs `trackcop.cli.main` in this process, inside one work
directory and with relative paths only, so that two checkouts print the
same text for the same behaviour. For each one the manifest gives the argv,
the exit code, the SHA-256 of stdout and of stderr (followed by stderr's
first line, to read), and the SHA-256 of every file the invocation wrote or
changed anywhere under the work directory.

Compare this checkout with another in one command:

    python tests/cli_manifest.py --against /path/to/other/checkout

It runs the harness here and, in a subprocess at the same time, with
PYTHONPATH=<checkout>/src; it prints a unified diff of the other
checkout's manifest against this one's and exits 1 when they differ, or
prints one `#` line and exits 0 when they match; it exits 2 when the
other checkout has no src/trackcop or the harness fails there. Without
--against it prints this checkout's manifest. Run as a script, it appends
its own checkout's `src` to sys.path after the PYTHONPATH entries, so
`PYTHONPATH=/path/to/other/checkout/src python tests/cli_manifest.py`
prints the other checkout's.

The harness uses nothing of trackcop but `main`, and it makes its
malformed `.npy` files from a grid that `build` wrote, its drifting psi
files from a psi_L that `bounds` wrote, and a grid of M = min(x, y) with
numpy alone, so it runs against any checkout. Pytest does not collect
this file; tests/test_cli_manifest.py runs `manifest(work, subset=True)`,
a short chain only.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

KNOT_SPEC = Path(__file__).resolve().parent / "data" / "csv_v0" / "knot_spec.json"

# name -> spec file contents; the knot spec is tests/data/csv_v0/knot_spec.json at mesh 21
BUILTIN_SPECS = {
    "fig2": {"diagonal": "fig2", "psi": "lower", "mesh": 21},
    "fig1": {"diagonal": "fig1", "psi": "upper", "mesh": 21},
    "indep": {"diagonal": "indep", "psi": "blend:0.3", "mesh": 17},
    "mdiag": {"diagonal": "m-diag", "psi": "lower", "mesh": 11},
    "wdiag": {"diagonal": "w-diag", "psi": "upper", "mesh": 11},
}
BAD_SPECS = {
    "enormous-mesh": {"diagonal": "fig2", "mesh": 10**13},
    "huge-mesh": {"diagonal": "w-diag", "mesh": 100000},
    "no-diagonal": {"track": "identity", "mesh": 21},
    "bad-psi": {"diagonal": "fig2", "psi": "middle", "mesh": 21},
    "small-mesh": {"diagonal": "fig2", "mesh": 2},
}
SUBCOMMANDS = ["validate", "bounds", "build", "compare", "envelope", "splice"]
SUBSET = {0, 2, 3, 7, 11, 16}  # the chain() entries of a subset manifest: one per subcommand


def write_specs(work: Path):
    specs = {**BUILTIN_SPECS, "knot": {**json.loads(KNOT_SPEC.read_text()), "mesh": 21},
             **BAD_SPECS}
    for name, spec in specs.items():
        (work / f"{name}.json").write_text(json.dumps(spec))
    (work / "not-json.json").write_text("{not json")
    (work / "psi-ineligible.json").write_text(json.dumps({"x": [0, 1], "y": [0, 1 / np.pi]}))


def chain(spec: str, tag: str) -> list:
    """Every subcommand on one good spec, with the options that change what it writes."""
    s, o = f"{spec}.json", f"o/{tag}"
    return [
        ["validate", s],
        ["validate", s, "--tol", "0"],
        ["bounds", s, "--out", f"{o}/bounds"],
        ["build", s, "--out", f"{o}/build"],
        ["build", s, "--out", f"{o}/build-csv", "--format", "csv"],
        ["build", s, "--out", f"{o}/build-tol0", "--tol", "0"],
        ["build", s, "--out", f"{o}/build-mesh", "--mesh", "31", "--quiet"],
        ["compare", s, "lower", "upper"],
        ["compare", s, "lower", "lower", "--out", f"{o}/compare-same"],
        ["compare", s, "upper", "blend:0.5", "--out", f"{o}/compare", "--mesh", "9"],
        ["compare", s, "psi-ineligible.json", "upper", "--tol", "0"],
        ["envelope", f"{o}/build/grid.npy", s, "--out", f"{o}/env-npy"],
        ["envelope", f"{o}/build-csv/grid.csv", s, "--out", f"{o}/env-csv", "--format", "csv"],
        ["envelope", f"{o}/build/grid.npy", s, "--out", f"{o}/build", "--quiet"],
        ["envelope", f"{o}/build/envelope_grid.npy", s, "--out", f"{o}/build"],  # in place
        ["envelope", f"{o}/build-mesh/grid.npy", s, "--out", f"{o}/env-tol0", "--tol", "0"],
        ["splice", s, "upper", "lower", "--out", f"{o}/splice"],
        ["splice", s, "lower", "upper", "--out", f"{o}/splice-csv", "--format", "csv"],
        ["splice", s, "upper", "blend:0.25", "--out", f"{o}/splice-tol0", "--tol", "0"],
        ["splice", s, "upper", "lower", "--out", f"{o}/splice-mesh", "--mesh", "13", "--quiet"],
    ]


def malformed_npy(work: Path) -> list:
    """Grid files made from o/knot/build/grid.npy, the variants of tests/test_grid_sources.py."""
    t = np.load(work / "o" / "knot" / "build" / "grid.npy")
    late, early, nan, repeated = t.copy(), t.copy(), t.copy(), t.copy()
    late[-2, 0] += 1e-3
    early[1, 0] = 0.25
    nan[0, 5] = nan[5, 0] = np.nan
    repeated[0, 5] = repeated[5, 0] = repeated[0, 4]
    two = np.full((3, 3), np.nan)
    two[0, 1:] = two[1:, 0] = [0.0, 1.0]
    two[1:, 1:] = [[0.0, 0.0], [0.0, 1.0]]
    arrays = {
        "plain": t, "int-dtype": np.nan_to_num(t).astype(np.int64),
        "float32": t.astype(np.float32), "big-endian": t.astype(">f8"),
        "fortran": np.asfortranarray(t), "non-square": t[:, :-1],
        "meshes-disagree-first-row": early, "meshes-disagree-late-row": late,
        "nan-mesh": nan, "repeated-mesh": repeated, "two-point-mesh": two,
    }
    payloads = {}
    for name, array in arrays.items():
        buf = io.BytesIO()
        np.save(buf, array)
        payloads[name] = buf.getvalue()
    payloads["trailing-bytes"] = payloads["plain"] + b"\0" * 24
    payloads["truncated"] = payloads["plain"][:-20]
    buf = io.BytesIO()
    np.savez(buf, grid=t)
    payloads["npz"] = buf.getvalue()
    payloads["empty-file"] = b""
    names = []
    (work / "bad").mkdir()
    for name, payload in sorted(payloads.items()):
        (work / "bad" / f"{name}.npy").write_bytes(payload)
        names.append(name)
    return names


# the drifting psi: psi_L lowered by DRIFT_STEP at each of four knots from the
# third on, 3 x DRIFT_TOL in all, though no step falls by DRIFT_TOL
DRIFT_TOL, DRIFT_STEP = 1e-3, 0.00075


def drift_specs(work: Path, spec: str) -> tuple:
    """(psi file, spec file) of the drifting psi, made from o/<spec>/bounds/psi_lower.csv."""
    x, y = np.loadtxt(work / "o" / spec / "bounds" / "psi_lower.csv", delimiter=",",
                      skiprows=1, unpack=True)
    y = y - DRIFT_STEP * np.clip(np.arange(len(x)) - 1, 0, 4)
    psi = {"x": x.tolist(), "y": y.tolist()}
    psi_file, spec_file = f"drift-{spec}.json", f"{spec}-drift.json"
    (work / psi_file).write_text(json.dumps(psi))
    (work / spec_file).write_text(json.dumps({**json.loads((work / f"{spec}.json").read_text()),
                                              "psi": psi}))
    return psi_file, spec_file


def m_grid(work: Path) -> str:
    """The .npy table of M = min(x, y) on 21 uniform points plus the track knots of KNOT_SPEC."""
    mesh = np.union1d(np.linspace(0.0, 1.0, 21), json.loads(KNOT_SPEC.read_text())["track"]["x"])
    table = np.full((len(mesh) + 1, len(mesh) + 1), np.nan)
    table[0, 1:] = table[1:, 0] = mesh
    table[1:, 1:] = np.minimum(mesh[:, None], mesh[None, :])
    np.save(work / "m-grid.npy", table)
    return "m-grid.npy"


def invocations(work: Path, subset: bool):
    """Yield each argv in order; the malformed files are made once the knot chain has run."""
    write_specs(work)
    specs = ["knot"] if subset else ["knot", *BUILTIN_SPECS]
    for spec in specs:
        yield from (argv for k, argv in enumerate(chain(spec, spec)) if not subset or k in SUBSET)
    for name in malformed_npy(work)[::4 if subset else 1]:
        yield ["envelope", f"bad/{name}.npy", "knot.json", "--out", f"o/bad/{name}"]
    if subset:
        return
    yield ["envelope", "missing.npy", "knot.json", "--out", "o/missing"]
    yield ["envelope", "knot.json", "knot.json", "--out", "o/not-a-grid"]
    for name in [*BAD_SPECS, "not-json", "missing"]:
        for sub in SUBCOMMANDS:
            operands = {"compare": ["lower", "upper"], "splice": ["upper", "lower"]}.get(sub, [])
            head = ["envelope", "o/knot/build/grid.npy"] if sub == "envelope" else [sub]
            out = [] if sub == "validate" else ["--out", f"o/{name}/{sub}"]
            yield [*head, f"{name}.json", *operands, *out]
    for sub, operands in (("build", []), ("compare", ["lower", "upper"]),
                          ("splice", ["upper", "lower"])):
        yield [sub, "fig2.json", *operands, "--out", "o/over-budget", "--mesh", "100000"]
    for spec in ("fig2", "knot"):
        psi_file, spec_file = drift_specs(work, spec)
        tol = ["--tol", repr(DRIFT_TOL)]
        yield ["build", spec_file, "--out", f"o/drift/{spec}", *tol]
        yield ["compare", f"{spec}.json", psi_file, "upper", *tol]
    # a copula whose track section is not the knot spec's
    yield ["envelope", m_grid(work), "knot.json", "--out", "o/m-grid"]


def snapshot(work: Path) -> dict:
    return {str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(work.rglob("*")) if p.is_file()}


def run(argv) -> tuple:
    """(exit code, stdout, stderr) of trackcop.cli.main(argv); an escaping exception is exit 1."""
    from trackcop.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
        except Exception as exc:  # a traceback: its last line, without the checkout's paths
            code = 1
            err.write(f"Traceback: {type(exc).__name__}: {exc}\n")
    return code, out.getvalue(), err.getvalue()


def manifest(work: Path, subset: bool = False) -> list:
    """The manifest lines of every invocation, run in `work` (made here, must not exist)."""
    work.mkdir(parents=True)
    here = os.getcwd()
    os.chdir(work)
    try:
        lines = []
        for argv in invocations(Path("."), subset):
            before = snapshot(work)
            code, out, err = run(argv)
            after = snapshot(work)
            first = err.splitlines()[0][:160] if err else ""
            lines += [f"$ trackcop {' '.join(argv)}", f"  exit {code}",
                      f"  stdout {hashlib.sha256(out.encode()).hexdigest()}",
                      f"  stderr {hashlib.sha256(err.encode()).hexdigest()}  {first}".rstrip()]
            lines += [f"  wrote {path} {digest}" for path, digest in after.items()
                      if before.get(path) != digest]
            lines += [f"  removed {path}" for path in before if path not in after]
        return lines
    finally:
        os.chdir(here)


def full_manifest() -> list:
    """The lines the script prints: every invocation's, then their count."""
    with tempfile.TemporaryDirectory() as tmp:
        lines = manifest((Path(tmp) / "work").resolve())
    return lines + [f"# {sum(line.startswith('$ ') for line in lines)} invocations"]


def against(checkout: Path) -> int:
    """Diff the manifest of checkout's src (in a subprocess) against this process's."""
    src = checkout.resolve() / "src"
    if not (src / "trackcop").is_dir():
        print(f"no src/trackcop in {checkout}", file=sys.stderr)
        return 2
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    with subprocess.Popen([sys.executable, str(Path(__file__).resolve())], env=env,
                          stdout=subprocess.PIPE, text=True) as other:
        ours = full_manifest()
        theirs = other.communicate()[0].splitlines()
    if other.returncode:
        print(f"the harness failed against {checkout}", file=sys.stderr)
        return 2
    diff = list(difflib.unified_diff(theirs, ours, str(checkout), "this checkout", lineterm=""))
    print("\n".join(diff) if diff else f"# the manifests match: {len(ours)} lines")
    return 1 if diff else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Print the CLI manifest, or diff it against"
                                                 " another checkout's.")
    parser.add_argument("--against", type=Path, metavar="CHECKOUT",
                        help="a checkout whose src/ holds trackcop")
    args = parser.parse_args(argv)
    if args.against is not None:
        return against(args.against)
    print("\n".join(full_manifest()))
    return 0


if __name__ == "__main__":
    sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
