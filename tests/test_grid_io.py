"""Grid files: the .npy and 17-digit CSV formats, their equivalence, and
the exit code 2 that every malformed grid file maps to."""

import io
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from trackcop import GridCopula
from trackcop.cli import main, read_grid, write_grid

DATA = Path(__file__).parent / "data"
# Outputs of the 17-digit CSV writers before the .npy format existed, for the
# knot-track spec knot_spec.json (`bounds`; `build --format csv`; `envelope` of
# that grid.csv; `splice upper lower`).
CSV_V0 = DATA / "csv_v0"


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_same_grid(a, b):
    assert same_bits(a.mesh, b.mesh) and same_bits(a.values, b.values)


@pytest.mark.parametrize("fmt", ["npy", "csv"])
def test_grid_roundtrip_is_bit_exact(tmp_path, rng, fmt):
    mesh = np.concatenate(([0.0], np.sort(rng.random(7)), [1.0]))
    vals = rng.random((len(mesh), len(mesh)))
    flat = vals.reshape(-1)
    flat[1::2] = np.nextafter(flat[0:-1:2], 2.0)  # neighbours 1 ulp apart
    flat[:3] = [-0.0, 5e-324, np.nextafter(1.0, 0.0)]
    grid = GridCopula(mesh, vals)
    path = write_grid(tmp_path / "grid", grid, fmt)
    assert path == tmp_path / f"grid.{fmt}"
    assert_same_grid(read_grid(path), grid)


def test_npy_layout(tmp_path):
    mesh = np.array([0.0, 0.25, 1.0])
    grid = GridCopula(mesh, np.minimum(mesh[:, None], mesh[None, :]))
    a = np.load(write_grid(tmp_path / "grid", grid, "npy"))
    assert a.dtype == np.float64 and a.shape == (4, 4) and np.isnan(a[0, 0])
    assert same_bits(a[0, 1:], mesh) and same_bits(a[1:, 0], mesh)
    assert same_bits(a[1:, 1:], grid.values)


def run_outputs(tmp_path, spec, fmt_args):
    """build, envelope of its grid, splice upper lower; return the out dirs."""
    out = {sub: tmp_path / sub for sub in ("bounds", "build", "envelope", "splice")}
    assert main(["bounds", spec, "--out", str(out["bounds"]), "--quiet"]) == 0
    assert main(["build", spec, "--out", str(out["build"]), "--quiet"] + fmt_args) == 0
    grid = next(out["build"].glob("grid.*"))
    assert main(["envelope", str(grid), spec, "--out", str(out["envelope"]), "--quiet"]
                + fmt_args) == 0
    assert main(["splice", spec, "upper", "lower", "--out", str(out["splice"]), "--quiet"]
                + fmt_args) == 0
    return out


def test_csv_format_reproduces_earlier_bytes(tmp_path):
    spec = str(CSV_V0 / "knot_spec.json")
    out = run_outputs(tmp_path, spec, ["--format", "csv"])
    for sub, name in [("bounds", "psi_lower.csv"), ("bounds", "psi_upper.csv"),
                      ("build", "grid.csv"), ("build", "region.csv"),
                      ("envelope", "psi_extracted.csv"), ("envelope", "envelope_grid.csv"),
                      ("splice", "splice_grid.csv")]:
        assert (out[sub] / name).read_bytes() == (CSV_V0 / name).read_bytes(), name


@pytest.fixture(params=["fig2", "knot"])
def any_spec(request, tmp_path):
    if request.param == "knot":
        return str(CSV_V0 / "knot_spec.json")
    path = tmp_path / "fig2.json"
    path.write_text(json.dumps({"diagonal": "fig2", "psi": "lower", "mesh": 51}))
    return str(path)


def test_default_npy_and_csv_outputs_agree(tmp_path, any_spec):
    npy = run_outputs(tmp_path / "npy", any_spec, [])
    csv = run_outputs(tmp_path / "csv", any_spec, ["--format", "csv"])
    # each command writes exactly one grid file, .npy unless asked otherwise
    expected = {"build": {"grid", "region.csv", "report.json"},
                "envelope": {"envelope_grid", "psi_extracted.csv"},
                "splice": {"splice_grid", "report.json"}}
    for sub, names in expected.items():
        for out, fmt in ((npy, "npy"), (csv, "csv")):
            written = {p.name for p in out[sub].iterdir()}
            assert written == {n if "." in n else f"{n}.{fmt}" for n in names}
    for sub, name in [("build", "grid"), ("envelope", "envelope_grid"),
                      ("splice", "splice_grid")]:
        assert_same_grid(read_grid(npy[sub] / f"{name}.npy"),
                         read_grid(csv[sub] / f"{name}.csv"))
    for sub in ("build", "splice"):
        assert (npy[sub] / "report.json").read_bytes() == (csv[sub] / "report.json").read_bytes()
    # envelope reads either format to the same result
    assert (npy["envelope"] / "psi_extracted.csv").read_bytes() == \
        (csv["envelope"] / "psi_extracted.csv").read_bytes()
    cross = tmp_path / "cross"
    assert main(["envelope", str(csv["build"] / "grid.csv"), any_spec,
                 "--out", str(cross), "--quiet"]) == 0
    assert (cross / "psi_extracted.csv").read_bytes() == \
        (npy["envelope"] / "psi_extracted.csv").read_bytes()
    assert_same_grid(read_grid(cross / "envelope_grid.npy"),
                     read_grid(npy["envelope"] / "envelope_grid.npy"))


# ---------------------------------------------------------------------------
# malformed grid files

MESH = [0.0, 0.5, 1.0]


def table(cols=MESH, rows=None):
    """A grid table in the file layout: mesh in row 0 and column 0."""
    cols = np.asarray(cols, dtype=float)
    rows = cols if rows is None else np.asarray(rows, dtype=float)
    t = np.full((len(rows) + 1, len(cols) + 1), np.nan)
    t[0, 1:], t[1:, 0] = cols, rows
    t[1:, 1:] = np.minimum(rows[:, None], cols[None, :])
    return t


def csv_bytes(t):
    lines = [",".join("" if np.isnan(v) and (i, j) == (0, 0) else repr(float(v))
                      for j, v in enumerate(row)) for i, row in enumerate(t)]
    return ("\n".join(lines) + "\n").encode()


def npy_bytes(a, **kwargs):
    buf = io.BytesIO()
    np.save(buf, a, **kwargs)
    return buf.getvalue()


def npz_bytes():
    buf = io.BytesIO()
    np.savez(buf, grid=table())
    return buf.getvalue()


VALID = {"grid.csv": csv_bytes(table()), "grid.npy": npy_bytes(table())}

MALFORMED = {
    "csv-empty": ("grid.csv", b""),
    "csv-blank-lines": ("grid.csv", b"\n  \n\n"),
    "csv-ragged": ("grid.csv", b",0,0.5,1\n0,0,0,0\n0.5,0,0.5\n1,0,0.5,1\n"),
    "csv-unparsable": ("grid.csv", b",0,0.5,1\n0,0,0,0\n0.5,0,abc,0.5\n1,0,0.5,1\n"),
    "csv-empty-cell": ("grid.csv", b",0,0.5,1\n0,0,0,0\n0.5,0,,0.5\n1,0,0.5,1\n"),
    "csv-not-text": ("grid.csv", b"\xff\xfe\x00\x93NUMPY"),
    "csv-non-square": ("grid.csv", csv_bytes(table(MESH, [0.0, 1.0]))),
    "csv-mesh-mismatch": ("grid.csv", csv_bytes(table(MESH, [0.0, 0.4, 1.0]))),
    "csv-mesh-unsorted": ("grid.csv", csv_bytes(table([0.0, 0.7, 0.5, 1.0]))),
    "csv-mesh-misses-1": ("grid.csv", csv_bytes(table([0.0, 0.5, 0.9]))),
    "csv-mesh-too-short": ("grid.csv", csv_bytes(table([0.0, 1.0]))),
    "npy-1d": ("grid.npy", npy_bytes(np.array(MESH))),
    "npy-3d": ("grid.npy", npy_bytes(np.zeros((4, 4, 4)))),
    "npy-non-square": ("grid.npy", npy_bytes(table(MESH, [0.0, 1.0]))),
    "npy-truncated": ("grid.npy", VALID["grid.npy"][:-20]),
    "npy-truncated-header": ("grid.npy", VALID["grid.npy"][:30]),
    "npy-object-dtype": ("grid.npy", npy_bytes(table().astype(object), allow_pickle=True)),
    "npy-int-dtype": ("grid.npy", npy_bytes(np.zeros((4, 4), dtype=np.int64))),
    "npy-not-npy": ("grid.npy", b"0,0.5,1\n"),
    "npy-npz-archive": ("grid.npy", npz_bytes()),
    "npy-broken-zip": ("grid.npy", b"PK\x03\x04junk"),
    "npy-truncated-npz": ("grid.npy", npz_bytes()[:40]),
    "npy-mesh-mismatch": ("grid.npy", npy_bytes(table(MESH, [0.0, 0.4, 1.0]))),
    "npy-mesh-unsorted": ("grid.npy", npy_bytes(table([0.0, 0.7, 0.5, 1.0]))),
    "npy-mesh-nan": ("grid.npy", npy_bytes(table([0.0, np.nan, 1.0]))),
    "npy-mesh-misses-0": ("grid.npy", npy_bytes(table([0.1, 0.5, 1.0]))),
    "unknown-suffix": ("grid.txt", VALID["grid.csv"]),
}
# the whole error line of the cases that pin it
MESSAGES = {"npy-not-npy": "error: grid file {path} is not an .npy file\n"}


@pytest.mark.parametrize("name", sorted(VALID))
def test_well_formed_grid_files_read(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(VALID[name])
    grid = read_grid(path)
    assert same_bits(grid.mesh, MESH) and same_bits(grid.values, table()[1:, 1:])


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_envelope_malformed_grid_exits_2(tmp_path, case, capsys):
    name, payload = MALFORMED[case]
    path = tmp_path / name
    path.write_bytes(payload)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"diagonal": "fig2", "mesh": 51}))
    out = tmp_path / "out"
    assert main(["envelope", str(path), str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "allow_pickle" not in err  # no advice to load a file unsafely
    if case in MESSAGES:
        assert err == MESSAGES[case].format(path=path)
    assert not out.exists()


def test_envelope_missing_grid_exits_2(tmp_path):
    spec = shutil.copy(CSV_V0 / "knot_spec.json", tmp_path / "spec.json")
    assert main(["envelope", str(tmp_path / "grid.npy"), str(spec),
                 "--out", str(tmp_path / "out")]) == 2
