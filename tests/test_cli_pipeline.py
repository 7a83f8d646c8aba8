"""`main` loads the spec once and prints each subcommand's summary once, unless --quiet.

A fresh process runs a subcommand through `run`, the process entry point:
with the import-time heap frozen, it gives main's exit code and output
files, and it never imports numpy.ma, whose import alone takes about 10 ms.
`main` called in a process leaves its heap unfrozen.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trackcop
from trackcop.cli import main

SPECS = {"fig2": {"diagonal": "fig2", "psi": "blend:0.3", "mesh": 41},
         "w-diag": {"diagonal": "w-diag", "psi": "upper", "mesh": 41},
         "inadmissible": {"track": {"x": [0, 0.5, 1], "y": [0, 0.3, 1]},
                          "diagonal": {"x": [0, 0.4, 0.5, 1], "y": [0, 0.4, 0.3, 1]}}}

ARGV = {
    "validate": ["validate", "{spec}"],
    "bounds": ["bounds", "{spec}", "--out", "{out}"],
    "build": ["build", "{spec}", "--out", "{out}"],
    "compare": ["compare", "{spec}", "lower", "upper"],
    "envelope": ["envelope", "{grid}", "{spec}", "--out", "{out}"],
    "splice": ["splice", "{spec}", "upper", "lower", "--out", "{out}"],
}


@pytest.mark.parametrize("spec_name", SPECS)
@pytest.mark.parametrize("command", ARGV)
def test_quiet_prints_nothing_and_keeps_the_exit_code(tmp_path, capsys, spec_name, command):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPECS[spec_name]))
    main(["build", str(spec), "--quiet", "--out", str(tmp_path / "grid")])
    names = {"spec": str(spec), "grid": str(tmp_path / "grid" / "grid.npy")}
    capsys.readouterr()
    codes, stdout = [], []
    for quiet in ([], ["--quiet"]):
        names["out"] = str(tmp_path / ("quiet" if quiet else "loud"))
        codes.append(main([arg.format(**names) for arg in ARGV[command]] + quiet))
        stdout.append(capsys.readouterr().out)
    loud, quiet = stdout
    assert codes[0] == codes[1]
    assert quiet == ""
    # an inadmissible spec is refused as it loads, except by validate
    assert (loud != "") == (spec_name != "inadmissible" or command == "validate")


KNOT_SPEC = Path(__file__).resolve().parent / "data" / "csv_v0" / "knot_spec.json"
# a builtin diagonal on the identity track, and knot data on a knot track
STARTUP_SPECS = {"fig2": {"diagonal": "fig2", "psi": "blend:0.3", "mesh": 41},
                 "knot": {**json.loads(KNOT_SPEC.read_text()), "mesh": 41}}
# runs one subcommand in a fresh interpreter as the benchmark's child does,
# through the __main__ block of trackcop.cli; at exit it prints on stderr
# whether numpy.ma was imported and whether the heap was frozen
CHILD_SCRIPT = ("import atexit, gc, runpy, sys\n"
                "atexit.register(lambda: print('numpy.ma' in sys.modules,"
                " gc.get_freeze_count() > 0, file=sys.stderr))\n"
                "runpy.run_module('trackcop.cli', run_name='__main__', alter_sys=True)\n")


def output_files(out: Path) -> dict:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))}


@pytest.fixture(scope="module", params=STARTUP_SPECS)
def fresh_runs(request, tmp_path_factory):
    """Each subcommand on one spec, in a fresh process and by main() in this one.

    Maps each command to (exit code and stderr of the fresh process, main's
    exit code, the two output directories).
    """
    tmp = tmp_path_factory.mktemp(request.param)
    spec = tmp / "spec.json"
    spec.write_text(json.dumps(STARTUP_SPECS[request.param]))
    assert main(["build", str(spec), "--quiet", "--out", str(tmp / "grid")]) == 0
    src = str(Path(trackcop.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    runs = {}
    for command, argv in ARGV.items():
        outs = (tmp / "fresh" / command, tmp / "in-process" / command)
        fresh, here = ([arg.format(spec=spec, grid=tmp / "grid" / "grid.npy", out=out)
                        for arg in argv] + ["--quiet"] for out in outs)
        child = subprocess.run([sys.executable, "-c", CHILD_SCRIPT, *fresh],
                               capture_output=True, text=True, env=env)
        runs[command] = ((child.returncode, child.stderr), main(here), *outs)
    return runs


def test_subcommands_in_a_fresh_process_never_import_numpy_ma(fresh_runs):
    importers = []
    for command, ((code, stderr), _, _, _) in fresh_runs.items():
        assert code in (0, 3, 4), (command, stderr)
        if stderr.split()[-2] == "True":
            importers.append(command)
    assert importers == []


def test_a_fresh_process_freezes_its_heap_and_writes_what_main_writes(fresh_runs):
    for command, ((code, stderr), main_code, fresh, here) in fresh_runs.items():
        assert stderr.split()[-1] == "True", (command, stderr)
        assert code == main_code, (command, stderr)
        assert output_files(fresh) == output_files(here), command


def test_main_leaves_the_heap_unfrozen(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(STARTUP_SPECS["fig2"]))
    frozen = gc.get_freeze_count()
    assert main(["build", str(spec), "--quiet", "--out", str(tmp_path / "out")]) == 0
    assert gc.get_freeze_count() == frozen


def test_the_console_script_is_the_process_entry_point():
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    # the table's lines, up to the blank line that ends it (tomllib is 3.11+)
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
    assert scripts == 'trackcop = "trackcop.cli:run"'
