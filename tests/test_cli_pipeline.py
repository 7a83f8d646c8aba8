"""`main` loads the spec once and prints each subcommand's summary once, unless --quiet."""

import json

import pytest

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
