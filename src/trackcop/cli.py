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
import contextlib
import gc
import itertools
import json
import math
import os
import sys
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .canonical import PsiCandidate, blend, psi_bounds, quadruplet
from .construction import GridCopula, _ConstructionRows, _feed, _fill, _validate_mesh, \
    region_functions
from .errors import BadMesh, BadTolerance, IneligiblePsi, TrackcopError
from .funcspace import USER_TOL, PLFunction, check_tol, make_pl, merge_knots
from .splice import _SpliceRows, make_splice
from .trackmodel import (
    DiagonalSpec,
    diagonal_conditions,
    existence_check,
    identity_track,
    make_diagonal,
    make_track,
)
from .verification import _GridCheck, compare, dominating_envelope

BUILTIN_DIAGONALS = {
    "m-diag": lambda x: x,
    "indep": lambda x: x * x,
    "fig1": lambda x: x - np.sin(2.0 * np.pi * x) ** 2 / (2.0 * np.pi),
    "fig2": lambda x: x - np.sin(np.pi * x) / np.pi,
}


@dataclass
class ProblemSpec:
    spec: DiagonalSpec
    psi_request: object  # "lower" | "upper" | ("blend", t) | PLFunction
    mesh_n: int


class SpecFileError(TrackcopError):
    """The problem spec file is unreadable or malformed."""


class MeshTooLarge(SpecFileError):
    """The mesh asked for is over MESH_BUDGET_BYTES."""


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
    elif isinstance(track_raw, str):
        raise SpecFileError(f"unknown track {track_raw!r}")
    elif isinstance(track_raw, dict):
        track = make_track(_knot_function(track_raw))
    else:
        raise SpecFileError('track must be "identity" or a knot object')
    diag_raw = raw.get("diagonal")
    if isinstance(diag_raw, str):
        _check_mesh_budget(n)  # before the built-in diagonal is sampled at n points
        delta = builtin_diagonal(diag_raw, n)
    elif isinstance(diag_raw, dict):
        delta = _knot_function(diag_raw)
    else:
        raise SpecFileError("spec file must name a diagonal")
    spec = make_diagonal(delta, track, tol=tol, validate=validate)
    psi_request = parse_psi_request(raw.get("psi", "lower"))
    return ProblemSpec(spec, psi_request, n)


def resolve_candidate(problem: ProblemSpec, request=None, tol: float = USER_TOL) -> PsiCandidate:
    request = problem.psi_request if request is None else request
    bounds = psi_bounds(problem.spec, tol=tol)
    if request == "lower":
        return quadruplet(problem.spec, bounds.psi_low, tol=tol)
    if request == "upper":
        return quadruplet(problem.spec, bounds.psi_up, tol=tol)
    if isinstance(request, tuple) and request[0] == "blend":
        return blend(quadruplet(problem.spec, bounds.psi_low, tol=tol),
                     quadruplet(problem.spec, bounds.psi_up, tol=tol), request[1], tol)
    return quadruplet(problem.spec, request, tol=tol)


def _eligible_candidates(problem: ProblemSpec, requests, tol: float) -> list:
    """Resolve each request; raise IneligiblePsi at the first ineligible one."""
    candidates = [resolve_candidate(problem, request, tol=tol) for request in requests]
    for candidate in candidates:
        if not candidate.eligible:
            raise IneligiblePsi(f"ineligible psi: {candidate.violation}")
    return candidates


# The largest mesh a command accepts: one whose n x n float grid fits in
# MESH_BUDGET_BYTES, 11 585 points. The commands hold row blocks, not grids, so
# what it caps is the grid file a command writes (n * n * 8 bytes) and the n^2
# work of one command. A mesh over it is refused before any work. It is one
# fixed number, not a probe of the machine, so a spec is accepted or refused
# the same way everywhere.
MESH_BUDGET_BYTES = 1 << 30


def _check_mesh_budget(n: int):
    if n * n * 8 > MESH_BUDGET_BYTES:
        limit = math.isqrt(MESH_BUDGET_BYTES // 8)
        raise MeshTooLarge(f"a mesh of {n} points is over the {limit}-point limit of the"
                           f" {MESH_BUDGET_BYTES / 2**30:.3g} GiB budget; its grid file"
                           f" would take about {n * n * 8 / 2**30:.3g} GiB")


def default_mesh(problem: ProblemSpec, n: int | None = None) -> np.ndarray:
    """Uniform n-point mesh plus all spec knots and their track images.

    n defaults to the spec's mesh; `--mesh` on build, compare and splice sets
    it. A mesh over MESH_BUDGET_BYTES raises MeshTooLarge, checked on n
    before the uniform points are made and again on the merged mesh.
    """
    n = problem.mesh_n if n is None else n
    _check_mesh_budget(n)
    mesh = merge_knots(np.linspace(0.0, 1.0, n), problem.spec.knots, problem.spec.phi_values())
    _check_mesh_budget(len(mesh))
    return mesh


# ---------------------------------------------------------------------------
# file formats
#
# A grid file holds the (n+1) x (n+1) table whose row 0 and column 0 are the
# mesh and whose body is the values (first index x). `.npy` stores it as
# float64 with a NaN corner; `.csv` writes it at 17 significant digits with
# an empty corner. Both round-trip bit-exactly.

GRID_FORMATS = ("npy", "csv")


def _csv_text(table) -> str:
    """The rows of a 2-D float table as comma-separated lines, 17 significant digits."""
    rows, cols = table.shape
    return (",".join(["%.17g"] * cols) + "\n") * rows % tuple(table.ravel().tolist())


@contextlib.contextmanager
def _writing(path, mode: str = "w"):
    """open(path, mode) on a hidden file beside path that replaces path only once whole.

    A write that fails leaves path as it was, so the writer may read path
    itself; an OSError on the way is raised as SpecFileError.
    """
    target = Path(os.path.realpath(path))
    part = target.with_name(f".{target.name}.part")
    try:
        with open(part, mode) as fh:
            yield fh
        os.replace(part, target)
    except OSError as exc:  # a directory in the way, no permission, a full disk
        raise SpecFileError(f"cannot write {path}: {exc.strerror or exc}")
    finally:
        with contextlib.suppress(OSError):
            part.unlink(missing_ok=True)


def _write_columns_csv(path, header: str, *columns):
    with _writing(path) as fh:
        fh.write(header + "\n" + _csv_text(np.column_stack(columns)))


def write_function_csv(path, f: PLFunction):
    _write_columns_csv(path, "x,value", f.x, f.y)


def _grid_from_table(table: np.ndarray, path) -> GridCopula:
    """The GridCopula of a square (n+1) x (n+1) table."""
    mesh = table[0, 1:]
    if not np.array_equal(table[1:, 0], mesh):
        raise SpecFileError(f"grid file {path}: row and column meshes disagree")
    try:
        return GridCopula(mesh, table[1:, 1:])
    except BadMesh as exc:
        raise SpecFileError(f"grid file {path}: {exc}")


class _TableRows:
    """Sink that writes the grid table below its mesh row, rows [mesh[i], values[i]], to a file."""

    def __init__(self, fh, mesh: np.ndarray, fmt: str):
        self._fh, self._mesh, self._csv = fh, mesh, fmt == "csv"

    def add(self, rows: slice, block: np.ndarray):
        body = np.column_stack((self._mesh[rows], block))
        self._fh.write(_csv_text(body) if self._csv else body)  # an array is written as its bytes


def _write_table(path, source, fmt: str, *sinks):
    """Write a row-block source's grid table to `path` as `fmt`, a row block at a time.

    Each block is computed once and also handed to every one of `sinks`.
    `.npy` gets the bytes np.save gives the table. Through _writing, a pass
    that fails leaves `path` as it was, and `source` may read `path` itself.
    """
    mesh = source.mesh
    with _writing(path, "w" if fmt == "csv" else "wb") as fh:
        if fmt == "csv":
            fh.write("," + _csv_text(mesh[None, :]))
        else:
            side = len(mesh) + 1
            np.lib.format.write_array_header_1_0(fh, {
                "descr": np.lib.format.dtype_to_descr(np.dtype(float)),
                "fortran_order": False, "shape": (side, side)})
            fh.write(np.concatenate(([np.nan], mesh)).tobytes())
        _feed(source, _TableRows(fh, mesh, fmt), *sinks)


def read_grid_csv(path) -> GridCopula:
    """Parse a CSV grid a row at a time into one preallocated (n+1) x (n+1) table.

    Only the current row is held as text, so reading costs the table plus
    one row. The table's side is the first row's width; a file too small to
    hold that many rows is refused before anything is allocated.
    """
    try:
        with open(path) as fh:
            rows = (line.split(",") for line in map(str.strip, fh) if line)
            first = next(rows, None)
            if first is None:
                raise SpecFileError(f"grid file {path} is empty")
            width, size = len(first), os.fstat(fh.fileno()).st_size
            if width * width > size:  # every cell takes a byte or more
                raise SpecFileError(f"grid file {path}: {width} columns cannot form a square"
                                    f" table in {size} bytes")
            first[0] = "nan"  # the empty corner
            table = np.empty((width, width))
            n_rows = 0
            for row in itertools.chain([first], rows):
                if len(row) != width:
                    raise SpecFileError(f"grid file {path}: rows have different lengths")
                if n_rows < width:
                    table[n_rows] = list(map(float, row))
                n_rows += 1
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecFileError(f"cannot read grid file {path}: {exc}")
    except ValueError as exc:  # a cell that is not a number
        raise SpecFileError(f"grid file {path}: {exc}")
    if n_rows != width:
        raise SpecFileError(f"grid file {path}: expected a square (n+1) x (n+1) table,"
                            f" got shape {(n_rows, width)}")
    return _grid_from_table(table, path)


def write_grid(path, grid: GridCopula, fmt: str) -> Path:
    """Write `grid` as `fmt` ("npy" or "csv") to `path` with that suffix; return the path."""
    path = Path(path).with_suffix("." + fmt)
    _write_table(path, grid, fmt)
    return path


def read_grid(path) -> GridCopula:
    """Read a grid file, `.npy` or `.csv` by its suffix."""
    grid = _grid_rows(path)
    return grid if isinstance(grid, GridCopula) else _fill(grid)


class _NpyRows:
    """Row-block source over a C-order float .npy grid table, read at row offsets.

    Each block is read with np.fromfile and converted to float64. It is
    never read through a memory map: the pages a pass touches there would
    all count towards the process's peak resident size. Each block's column
    0 is checked against the mesh as it is read, so column and row meshes
    that disagree raise the error _grid_from_table gives.
    """

    def __init__(self, path, table: np.memmap, mesh: np.ndarray):
        self.mesh, self._path, self._dtype, self._offset = mesh, path, table.dtype, table.offset

    def block(self, rows: slice, cols: slice = slice(None)) -> np.ndarray:
        side = len(self.mesh) + 1
        start, stop, _ = rows.indices(len(self.mesh))
        count = (stop - start) * side
        try:
            table = np.fromfile(self._path, dtype=self._dtype, count=count,
                                offset=self._offset + (start + 1) * side * self._dtype.itemsize)
        except OSError as exc:
            raise SpecFileError(f"cannot read grid file {self._path}: {exc}")
        if table.size != count:
            raise SpecFileError(f"cannot read grid file {self._path}: it ended early")
        table = table.astype(float, copy=False).reshape(-1, side)
        if not np.array_equal(table[:, 0], self.mesh[rows]):
            raise SpecFileError(f"grid file {self._path}: row and column meshes disagree")
        return table[:, 1:][:, cols]


# the starts of a file that np.load opens as an .npz archive
_ZIP_PREFIXES = (b"PK\x03\x04", b"PK\x05\x06")


def _grid_rows(path):
    """The grid file at path as a row-block source, `.npy` or `.csv` by its suffix.

    A CSV file and a Fortran-order `.npy` table are read whole into a
    GridCopula; every C-order float `.npy` table becomes an _NpyRows. The
    memory map np.load makes here reads the header and row 0, the mesh.
    """
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return read_grid_csv(path)
    if suffix != ".npy":
        raise SpecFileError(f"grid file {path}: expected a .npy or .csv suffix")
    try:
        with open(path, "rb") as fh:
            magic = fh.read(len(np.lib.format.MAGIC_PREFIX))
        # np.load would take any other start for a pickle it then refuses
        if magic and magic != np.lib.format.MAGIC_PREFIX and not magic.startswith(_ZIP_PREFIXES):
            raise SpecFileError(f"grid file {path} is not an .npy file")
        table = np.load(path, mmap_mode="r", allow_pickle=False)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise SpecFileError(f"cannot read grid file {path}: {exc}")
    if not isinstance(table, np.ndarray):  # an .npz archive
        table.close()
        raise SpecFileError(f"grid file {path} is an .npz archive, not an .npy array")
    if table.dtype.kind != "f":
        raise SpecFileError(f"grid file {path} holds {table.dtype} values, not floats")
    if table.ndim != 2 or table.shape[0] != table.shape[1] or table.size == 0:
        raise SpecFileError(f"grid file {path}: expected a square (n+1) x (n+1) table,"
                            f" got shape {table.shape}")
    if np.isfortran(table):  # read whole from the file, not through the map
        return _grid_from_table(np.load(path, allow_pickle=False), path)
    try:
        mesh = _validate_mesh(table[0, 1:].astype(float))
    except BadMesh as exc:
        raise SpecFileError(f"grid file {path}: {exc}")
    return _NpyRows(path, table, mesh)


def write_json(path, payload: dict):
    with _writing(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate(args, problem: ProblemSpec) -> tuple:
    conditions = diagonal_conditions(problem.spec.delta, problem.spec.track, tol=args.tol)
    result = existence_check(problem.spec, tol=args.tol)
    lines = [f"condition ({cond}): " + ("ok" if ok else f"FAIL (violated near x={where:.6g})")
             for cond, (ok, where) in conditions.items()]
    lines.append(f"variational criterion: {'ok' if result.variational_ok else 'FAIL'}")
    lines.append(f"lipschitz criterion:   {'ok' if result.lipschitz_ok else 'FAIL'}")
    if result.witness:
        lines.append(f"witness interval: [{result.witness[0]:.6g}, {result.witness[1]:.6g}]")
    lines.append(f"copula exists: {result.exists}")
    conditions_ok = all(ok for ok, _ in conditions.values())
    return (0 if (result.exists and conditions_ok) else 1), "\n".join(lines)


def _out_dir(args) -> Path:
    """The --out directory, created if missing."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise SpecFileError(f"cannot make output directory {out}: {exc}")
    return out


def cmd_bounds(args, problem: ProblemSpec) -> tuple:
    bounds = psi_bounds(problem.spec, tol=args.tol)
    out = _out_dir(args)
    write_function_csv(out / "psi_lower.csv", bounds.psi_low)
    write_function_csv(out / "psi_upper.csv", bounds.psi_up)
    return 0, f"wrote {out / 'psi_lower.csv'} and {out / 'psi_upper.csv'}"


def cmd_build(args, problem: ProblemSpec) -> tuple:
    [candidate] = _eligible_candidates(problem, [problem.psi_request], args.tol)
    source = _ConstructionRows(candidate, default_mesh(problem, args.mesh))
    region = region_functions(problem.spec, candidate)
    out = _out_dir(args)
    check = _GridCheck(source.mesh, args.tol)
    _write_table(out / f"grid.{args.format}", source, args.format, check)
    report = check.report()
    _write_columns_csv(out / "region.csv", "x,g,h", region["g"].x, region["g"].y, region["h"].y)
    write_json(out / "report.json", report.as_dict())
    return (0 if report.copula_ok else 1), (
        f"copula checks: {'pass' if report.copula_ok else 'FAIL'}"
        f" (min cell volume {report.min_cell_volume:.3g})")


# compare's exit code for each relation of the two grids
COMPARE_EXIT_CODES = {"equal": 0, "incomparable": 3, "first-dominates": 4, "second-dominates": 4}


def cmd_compare(args, problem: ProblemSpec) -> tuple:
    cand_a, cand_b = _eligible_candidates(
        problem, [_psi_arg(args.psi_a), _psi_arg(args.psi_b)], args.tol)
    mesh = default_mesh(problem, args.mesh)
    result = compare(_ConstructionRows(cand_a, mesh), _ConstructionRows(cand_b, mesh), args.tol)
    payload = result.as_dict()
    if args.out:
        write_json(_out_dir(args) / "comparison.json", payload)
    return COMPARE_EXIT_CODES[result.relation], json.dumps(payload)


def _psi_arg(value):
    """psi given on the command line: lower | upper | blend:t | JSON file."""
    if value in ("lower", "upper") or value.startswith("blend:"):
        return parse_psi_request(value)
    try:
        with open(value) as fh:
            return _knot_function(json.load(fh))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or non-UTF-8 bytes
        raise SpecFileError(f"cannot read psi file {value}: {exc}")


class _Gain:
    """Sink: the most by which the blocks handed to it exceed the same rows of a base source."""

    def __init__(self, base):
        self._base, self._maxima = base, []

    def add(self, rows: slice, block: np.ndarray):
        self._maxima.append((block - self._base.block(rows)).max())

    def value(self) -> float:
        return float(np.max(self._maxima))


def cmd_envelope(args, problem: ProblemSpec) -> tuple:
    # two passes over the grid: check, section and extraction, then the
    # envelope, its gain and its file; nothing is written before the first
    # ends, and the envelope file replaces its target only when whole, so the
    # input may be that target
    grid = _grid_rows(args.grid)
    candidate = dominating_envelope(grid, problem.spec.track, problem.spec, args.tol).candidate
    out = _out_dir(args)
    write_function_csv(out / "psi_extracted.csv", candidate.psi)
    gain = _Gain(grid)
    _write_table(out / f"envelope_grid.{args.format}",
                 _ConstructionRows(candidate, grid.mesh), args.format, gain)
    return 0, f"max pointwise gain: {gain.value():.6g}"


def cmd_splice(args, problem: ProblemSpec) -> tuple:
    upper, lower = _eligible_candidates(
        problem, [_psi_arg(args.psi_upper), _psi_arg(args.psi_lower)], args.tol)
    source = _SpliceRows(make_splice(upper, lower), default_mesh(problem, args.mesh))
    out = _out_dir(args)
    check = _GridCheck(source.mesh, args.tol)
    _write_table(out / f"splice_grid.{args.format}", source, args.format, check)
    report = check.report()
    write_json(out / "report.json", report.as_dict())
    return (0 if report.quasi_ok else 1), (
        f"quasi-copula checks: {'pass' if report.quasi_ok else 'FAIL'};"
        f" copula checks: {'pass' if report.copula_ok else 'fail'} (reported only)")


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


def _tolerance(text: str) -> float:
    """--tol or TRACKCOP_TOL value: a finite float >= 0."""
    try:
        return check_tol(float(text))
    except (ValueError, BadTolerance):
        raise argparse.ArgumentTypeError(
            f"expected a finite number >= 0 (from --tol or TRACKCOP_TOL), got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trackcop",
                                     description="copulas with a prescribed track section")
    # argparse passes a string default, here TRACKCOP_TOL, through the type
    default_tol = os.environ.get("TRACKCOP_TOL", USER_TOL)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True, grids=False, mesh=False):
        p.set_defaults(validate=True)  # the spec is validated as it loads
        p.add_argument("--tol", type=_tolerance, default=default_tol,
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
    # loads an inadmissible spec too, to report which conditions it breaks
    p.set_defaults(func=cmd_validate, validate=False)

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
    """Load the spec, run the subcommand on it and print its summary unless --quiet."""
    args = build_parser().parse_args(argv)
    try:
        problem = load_problem(args.spec, tol=args.tol, validate=args.validate)
        code, summary = args.func(args, problem)
    except SpecFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrackcopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(summary)
    return code


def run():
    """The process entry point: freeze the import-time heap, then exit with main()'s code.

    Frozen, the objects the imports built (numpy's modules, types and ufuncs,
    and trackcop's own) are left out of the collections the interpreter runs
    at exit, which would otherwise walk and free that graph; the OS reclaims
    the memory instead. Objects main() makes are collected as before, and
    every output file is closed before main() returns. The freeze is not in
    main(): tests and the benchmark call main() many times in one process,
    and each call would put every object then alive, earlier calls'
    uncollected cyclic garbage included, out of the collector's reach.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
