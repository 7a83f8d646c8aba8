"""Command-line front end.

Subcommands: validate, bounds, build, compare, envelope, splice. Problem
specs are JSON; grids are `.npy` (default) or CSV; univariate functions are
CSV; reports are JSON.

Spec file format::

    {
      "track": "identity" | {"x": [...], "y": [...]},
      "diagonal": "m-diag" | "w-diag" | "indep" | "fig1" | "fig2"
                  | {"x": [...], "y": [...]},
      "psi": "lower" | "upper" | "blend:0.5" | {"x": [...], "y": [...]},
      "mesh": 201
    }
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .canonical import PsiCandidate, blend, psi_bounds, quadruplet
from .construction import GridCopula, _validate_mesh, make_cpsi, materialize_grid
from .errors import BadMesh, TrackcopError
from .funcspace import USER_TOL, PLFunction, make_pl, merge_knots
from .splice import make_splice, splice_grid
from .trackmodel import (
    DiagonalSpec,
    Track,
    diagonal_conditions,
    existence_check,
    identity_track,
    make_diagonal,
    make_track,
)
from .verification import check_grid, compare, dominating_envelope

BUILTIN_DIAGONALS = {
    "m-diag": lambda x: x,
    "indep": lambda x: x * x,
    "fig1": lambda x: x - np.sin(2.0 * np.pi * x) ** 2 / (2.0 * np.pi),
    "fig2": lambda x: x - np.sin(np.pi * x) / np.pi,
}


@dataclass
class ProblemSpec:
    track: Track
    spec: DiagonalSpec
    psi_request: object  # "lower" | "upper" | ("blend", t) | PLFunction
    mesh_n: int


class SpecFileError(TrackcopError):
    """The problem spec file is unreadable or malformed."""


def _knot_function(obj) -> PLFunction:
    try:
        return make_pl(obj["x"], obj["y"])
    except (TypeError, KeyError, TrackcopError) as exc:
        raise SpecFileError(f"expected a valid knot object {{'x': [...], 'y': [...]}}: {exc}")


def builtin_diagonal(name: str, n: int) -> PLFunction:
    """Built-in diagonals, sampled as PL functions at the mesh density."""
    if name == "w-diag":
        return make_pl([0.0, 0.5, 1.0], [0.0, 0.0, 1.0])
    if name not in BUILTIN_DIAGONALS:
        raise SpecFileError(f"unknown builtin diagonal {name!r}")
    xs = np.linspace(0.0, 1.0, n)
    return PLFunction(xs, BUILTIN_DIAGONALS[name](xs))


def parse_psi_request(value):
    if isinstance(value, dict):
        return _knot_function(value)
    if value in ("lower", "upper"):
        return value
    if isinstance(value, str) and value.startswith("blend:"):
        try:
            t = float(value.split(":", 1)[1])
        except ValueError:
            raise SpecFileError(f"bad blend weight in {value!r}")
        if not 0.0 <= t <= 1.0:
            raise SpecFileError(f"blend weight {t} outside [0, 1]")
        return ("blend", t)
    raise SpecFileError(f"bad psi request {value!r}")


def load_problem(path, tol: float = USER_TOL, validate: bool = True) -> ProblemSpec:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or non-UTF-8 bytes
        raise SpecFileError(f"cannot read spec file {path}: {exc}")
    if not isinstance(raw, dict):
        raise SpecFileError("spec file must contain a JSON object")
    n = raw.get("mesh", 201)
    if not isinstance(n, int) or n < 3:
        raise SpecFileError(f"mesh must be an integer >= 3, got {n!r}")
    track_raw = raw.get("track", "identity")
    if track_raw == "identity":
        track = identity_track()
    else:
        track = make_track(_knot_function(track_raw))
    diag_raw = raw.get("diagonal")
    if isinstance(diag_raw, str):
        delta = builtin_diagonal(diag_raw, n)
    elif isinstance(diag_raw, dict):
        delta = _knot_function(diag_raw)
    else:
        raise SpecFileError("spec file must name a diagonal")
    spec = make_diagonal(delta, track, tol=tol, validate=validate)
    psi_request = parse_psi_request(raw.get("psi", "lower"))
    return ProblemSpec(track, spec, psi_request, n)


def resolve_candidate(problem: ProblemSpec, request=None, tol: float = USER_TOL) -> PsiCandidate:
    request = problem.psi_request if request is None else request
    bounds = psi_bounds(problem.spec, tol=tol)
    if request == "lower":
        return quadruplet(problem.spec, bounds.psi_low, tol=tol)
    if request == "upper":
        return quadruplet(problem.spec, bounds.psi_up, tol=tol)
    if isinstance(request, tuple) and request[0] == "blend":
        low = quadruplet(problem.spec, bounds.psi_low, tol=tol)
        up = quadruplet(problem.spec, bounds.psi_up, tol=tol)
        return blend(low, up, request[1])
    return quadruplet(problem.spec, request, tol=tol)


def default_mesh(problem: ProblemSpec, n: int | None = None) -> np.ndarray:
    """Uniform n-point mesh plus all spec knots and their track images.

    n defaults to the spec's mesh; `--mesh` on build, compare and splice sets it.
    """
    uniform = np.linspace(0.0, 1.0, problem.mesh_n if n is None else n)
    knots = problem.spec.knots
    return merge_knots(uniform, knots, problem.spec.phi_values())


# ---------------------------------------------------------------------------
# file formats
#
# A grid file holds the (n+1) x (n+1) table whose row 0 and column 0 are the
# mesh and whose body is the values (first index x). `.npy` stores it as
# float64 with a NaN corner; `.csv` writes it at 17 significant digits with
# an empty corner. Both round-trip bit-exactly.

GRID_FORMATS = ("npy", "csv")
CSV_CHUNK_ROWS = 64  # grid CSV rows formatted per write, to bound memory


def _csv_text(table) -> str:
    """The rows of a 2-D float table as comma-separated lines, 17 significant digits."""
    rows, cols = table.shape
    return (",".join(["%.17g"] * cols) + "\n") * rows % tuple(table.ravel().tolist())


def _write_columns_csv(path, header: str, *columns):
    with open(path, "w") as fh:
        fh.write(header + "\n" + _csv_text(np.column_stack(columns)))


def write_function_csv(path, f: PLFunction):
    _write_columns_csv(path, "x,value", f.x, f.y)


def _grid_table(grid: GridCopula) -> np.ndarray:
    n = len(grid.mesh)
    table = np.empty((n + 1, n + 1))
    table[0, 0] = np.nan
    table[0, 1:] = grid.mesh
    table[1:, 0] = grid.mesh
    table[1:, 1:] = grid.values
    return table


def _grid_from_table(table: np.ndarray, path) -> GridCopula:
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise SpecFileError(f"grid file {path}: expected a square (n+1) x (n+1) table,"
                            f" got shape {table.shape}")
    mesh = table[0, 1:]
    if not np.array_equal(table[1:, 0], mesh):
        raise SpecFileError(f"grid file {path}: row and column meshes disagree")
    try:
        _validate_mesh(mesh)
    except BadMesh as exc:
        raise SpecFileError(f"grid file {path}: {exc}")
    return GridCopula(mesh, table[1:, 1:])


def write_grid_csv(path, grid: GridCopula):
    mesh, values = grid.mesh, grid.values
    with open(path, "w") as fh:
        fh.write("," + _csv_text(mesh[None, :]))
        for start in range(0, len(mesh), CSV_CHUNK_ROWS):
            rows = slice(start, start + CSV_CHUNK_ROWS)
            fh.write(_csv_text(np.column_stack((mesh[rows], values[rows]))))


def read_grid_csv(path) -> GridCopula:
    try:
        with open(path) as fh:
            rows = [line.split(",") for line in map(str.strip, fh) if line]
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecFileError(f"cannot read grid file {path}: {exc}")
    if not rows:
        raise SpecFileError(f"grid file {path} is empty")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise SpecFileError(f"grid file {path}: rows have different lengths")
    rows[0][0] = "nan"  # the empty corner
    try:
        cells = np.array(list(map(float, itertools.chain.from_iterable(rows))))
    except ValueError as exc:
        raise SpecFileError(f"grid file {path}: {exc}")
    return _grid_from_table(cells.reshape(len(rows), width), path)


def write_grid(path, grid: GridCopula, fmt: str) -> Path:
    """Write `grid` as `fmt` ("npy" or "csv") to `path` with that suffix; return the path."""
    path = Path(path).with_suffix("." + fmt)
    if fmt == "csv":
        write_grid_csv(path, grid)
    else:
        with open(path, "wb") as fh:
            np.save(fh, _grid_table(grid))
    return path


def read_grid(path) -> GridCopula:
    """Read a grid file, `.npy` or `.csv` by its suffix."""
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return read_grid_csv(path)
    if suffix != ".npy":
        raise SpecFileError(f"grid file {path}: expected a .npy or .csv suffix")
    try:
        table = np.load(path, allow_pickle=False)
    except (OSError, ValueError, EOFError) as exc:
        raise SpecFileError(f"cannot read grid file {path}: {exc}")
    if not isinstance(table, np.ndarray):  # an .npz archive
        table.close()
        raise SpecFileError(f"grid file {path} is an .npz archive, not an .npy array")
    if table.dtype.kind != "f":
        raise SpecFileError(f"grid file {path} holds {table.dtype} values, not floats")
    return _grid_from_table(table, path)


def write_json(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate(args) -> int:
    problem = load_problem(args.spec, tol=args.tol, validate=False)
    conditions = diagonal_conditions(problem.spec.delta, problem.track, tol=args.tol)
    result = existence_check(problem.spec, tol=args.tol)
    if not args.quiet:
        for cond in "abcd":
            ok, where = conditions[cond]
            suffix = "" if ok else f" (violated near x={where:.6g})"
            print(f"condition ({cond}): {'ok' if ok else 'FAIL'}{suffix}")
        print(f"variational criterion: {'ok' if result.variational_ok else 'FAIL'}")
        print(f"lipschitz criterion:   {'ok' if result.lipschitz_ok else 'FAIL'}")
        if result.witness:
            print(f"witness interval: [{result.witness[0]:.6g}, {result.witness[1]:.6g}]")
        print(f"copula exists: {result.exists}")
    conditions_ok = all(ok for ok, _ in conditions.values())
    return 0 if (result.exists and conditions_ok) else 1


def cmd_bounds(args) -> int:
    problem = load_problem(args.spec, tol=args.tol)
    result = existence_check(problem.spec, tol=args.tol)
    if not result.exists:
        print(f"no copula exists; witness {result.witness}", file=sys.stderr)
        return 1
    bounds = psi_bounds(problem.spec, tol=args.tol)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_function_csv(out / "psi_lower.csv", bounds.psi_low)
    write_function_csv(out / "psi_upper.csv", bounds.psi_up)
    if not args.quiet:
        print(f"wrote {out / 'psi_lower.csv'} and {out / 'psi_upper.csv'}")
    return 0


def cmd_build(args) -> int:
    problem = load_problem(args.spec, tol=args.tol)
    candidate = resolve_candidate(problem, tol=args.tol)
    if not candidate.eligible:
        print(f"ineligible psi: {candidate.violation}", file=sys.stderr)
        return 1
    grid = materialize_grid(problem.spec, candidate, default_mesh(problem, args.mesh))
    cpsi = make_cpsi(problem.spec, candidate)
    report = check_grid(grid, mode="copula", tol=args.tol)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_grid(out / "grid", grid, args.format)
    knots = cpsi.g.x
    _write_columns_csv(out / "region.csv", "x,g,h", knots, cpsi.g(knots), cpsi.h(knots))
    write_json(out / "report.json", report.as_dict())
    if not args.quiet:
        print(f"copula checks: {'pass' if report.copula_ok else 'FAIL'}"
              f" (min cell volume {report.min_cell_volume:.3g})")
    return 0 if report.copula_ok else 1


def cmd_compare(args) -> int:
    problem = load_problem(args.spec, tol=args.tol)
    cand_a = resolve_candidate(problem, _psi_arg(args.psi_a), tol=args.tol)
    cand_b = resolve_candidate(problem, _psi_arg(args.psi_b), tol=args.tol)
    if not cand_a.eligible or not cand_b.eligible:
        bad = cand_a if not cand_a.eligible else cand_b
        print(f"ineligible psi: {bad.violation}", file=sys.stderr)
        return 1
    mesh = default_mesh(problem, args.mesh)
    grid_a = materialize_grid(problem.spec, cand_a, mesh)
    grid_b = materialize_grid(problem.spec, cand_b, mesh)
    result = compare(grid_a, grid_b, tol=args.tol)
    payload = result.as_dict()
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "comparison.json", payload)
    if not args.quiet:
        print(json.dumps(payload))
    if result.relation == "equal":
        return 0
    if result.relation == "incomparable":
        return 3
    return 4


def _psi_arg(value):
    """psi given on the command line: lower | upper | blend:t | JSON file."""
    if value in ("lower", "upper") or value.startswith("blend:"):
        return parse_psi_request(value)
    try:
        with open(value) as fh:
            return _knot_function(json.load(fh))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or non-UTF-8 bytes
        raise SpecFileError(f"cannot read psi file {value}: {exc}")


def cmd_envelope(args) -> int:
    problem = load_problem(args.spec, tol=args.tol)
    grid = read_grid(args.grid)
    cpsi = dominating_envelope(grid, problem.track, problem.spec, tol=args.tol)
    env = materialize_grid(problem.spec, cpsi.candidate, grid.mesh)
    gain = float((env.values - grid.values).max())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_function_csv(out / "psi_extracted.csv", cpsi.candidate.psi)
    write_grid(out / "envelope_grid", env, args.format)
    if not args.quiet:
        print(f"max pointwise gain: {gain:.6g}")
    return 0


def cmd_splice(args) -> int:
    problem = load_problem(args.spec, tol=args.tol)
    upper = resolve_candidate(problem, _psi_arg(args.psi_upper), tol=args.tol)
    lower = resolve_candidate(problem, _psi_arg(args.psi_lower), tol=args.tol)
    if not upper.eligible or not lower.eligible:
        bad = upper if not upper.eligible else lower
        print(f"ineligible psi: {bad.violation}", file=sys.stderr)
        return 1
    spliced = make_splice(upper, lower)
    grid = splice_grid(spliced, default_mesh(problem, args.mesh))
    report = check_grid(grid, mode="quasi", tol=args.tol)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_grid(out / "splice_grid", grid, args.format)
    write_json(out / "report.json", report.as_dict())
    if not args.quiet:
        print(f"quasi-copula checks: {'pass' if report.quasi_ok else 'FAIL'};"
              f" copula checks: {'pass' if report.copula_ok else 'fail'} (reported only)")
    return 0 if report.quasi_ok else 1


# ---------------------------------------------------------------------------

def _mesh_size(text: str) -> int:
    """--mesh value: an integer >= 3, as for the spec file's "mesh"."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 3:
        raise argparse.ArgumentTypeError(f"mesh must be an integer >= 3, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trackcop",
                                     description="copulas with a prescribed track section")
    default_tol = float(os.environ.get("TRACKCOP_TOL", USER_TOL))
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True, grids=False, mesh=False):
        p.add_argument("--tol", type=float, default=default_tol,
                       help="user-facing slack (default 1e-9; env TRACKCOP_TOL)")
        if mesh:
            p.add_argument("--mesh", type=_mesh_size, default=None,
                           help="uniform mesh points, before the spec knots are added"
                                " (default: the spec's mesh)")
        p.add_argument("--quiet", action="store_true")
        if needs_out:
            p.add_argument("--out", default=".", help="output directory")
        if grids:
            p.add_argument("--format", choices=GRID_FORMATS, default="npy",
                           help="grid file format: binary npy (default) or 17-digit csv")

    p = sub.add_parser("validate", help="check diagonal admissibility and existence")
    p.add_argument("spec")
    common(p, needs_out=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bounds", help="write the extremal mass functions")
    p.add_argument("spec")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("build", help="materialize and verify a constructed copula")
    p.add_argument("spec")
    common(p, grids=True, mesh=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("compare", help="pointwise order of two constructions")
    p.add_argument("spec")
    p.add_argument("psi_a")
    p.add_argument("psi_b")
    common(p, mesh=True)
    # comparison.json is written only into an --out the user names
    p.set_defaults(func=cmd_compare, out=None)

    p = sub.add_parser("envelope", help="extract the dominating envelope of a grid")
    p.add_argument("grid", help="grid file, .npy or .csv")
    p.add_argument("spec")
    common(p, grids=True)
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("splice", help="splice two constructions along the track")
    p.add_argument("spec")
    p.add_argument("psi_upper")
    p.add_argument("psi_lower")
    common(p, grids=True, mesh=True)
    p.set_defaults(func=cmd_splice)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrackcopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
