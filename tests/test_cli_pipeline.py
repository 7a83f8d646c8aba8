"""`main` loads the spec once and prints each subcommand's summary once, unless --quiet.

A fresh process running a subcommand imports nothing it does not use:
numpy.ma, whose import alone takes about 10 ms, stays out.
"""

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
# runs one subcommand in a fresh interpreter, then prints its exit code and
# whether numpy.ma was imported
STARTUP_SCRIPT = ("import sys\nfrom trackcop.cli import main\n"
                  "code = main(sys.argv[1:] + ['--quiet'])\n"
                  "print(code, 'numpy.ma' in sys.modules)\n")


@pytest.mark.parametrize("spec_name", STARTUP_SPECS)
def test_subcommands_in_a_fresh_process_never_import_numpy_ma(tmp_path, spec_name):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(STARTUP_SPECS[spec_name]))
    assert main(["build", str(spec), "--quiet", "--out", str(tmp_path / "grid")]) == 0
    names = {"spec": str(spec), "grid": str(tmp_path / "grid" / "grid.npy"),
             "out": str(tmp_path / "out")}
    src = str(Path(trackcop.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    importers = []
    for command, argv in ARGV.items():
        run = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT]
                             + [arg.format(**names) for arg in argv],
                             capture_output=True, text=True, env=env, check=True)
        code, imported = run.stdout.split()
        assert code in ("0", "3", "4"), (command, run.stderr)
        if imported == "True":
            importers.append(command)
    assert importers == []
