"""The 1-D chain's digest harness matches an identical checkout and names what another changes."""

import shutil
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "point_manifest.py"


def test_against_matches_a_copy_and_diffs_a_changed_reader(tmp_path):
    same, other = tmp_path / "same", tmp_path / "other"
    for checkout in (same, other):
        shutil.copytree(SCRIPT.parent.parent / "src" / "trackcop", checkout / "src" / "trackcop",
                        ignore=shutil.ignore_patterns("__pycache__"))
    # the other checkout's reader takes the segment's formula from its right end
    funcspace = other / "src" / "trackcop" / "funcspace.py"
    text = funcspace.read_text()
    formula = "out = (y1 - y0) / (x1 - x0) * (t - x0) + y0\n        return _between"
    assert text.count(formula) == 1
    funcspace.write_text(text.replace(formula, formula.replace("(t - x0) + y0", "(t - x1) + y1")))
    run = subprocess.run([sys.executable, str(SCRIPT), "--against", str(same)],
                         capture_output=True, text=True)
    assert run.returncode == 0 and run.stdout.startswith("# the manifests match: ")
    run = subprocess.run([sys.executable, str(SCRIPT), "--against", str(other)],
                         capture_output=True, text=True)
    lines = run.stdout.splitlines()
    assert run.returncode == 1
    assert lines[:2] == [f"--- {other}", "+++ this checkout"]
    outputs = {line.split()[1] for line in lines[2:] if line.startswith("-  ")}
    assert {"c_psi_value", "s_t_split"} <= outputs and "band" not in outputs
