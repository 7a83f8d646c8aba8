"""The CLI differential harness gives the same manifest when run twice, and diffs two checkouts."""

import shutil
import subprocess
import sys
from pathlib import Path

from cli_manifest import manifest

SCRIPT = Path(__file__).resolve().parent / "cli_manifest.py"


def test_subset_manifest_is_reproducible(tmp_path):
    first = manifest(tmp_path / "first", subset=True)
    second = manifest(tmp_path / "second", subset=True)
    assert first == second
    assert sum(line.startswith("$ trackcop ") for line in first) == 10
    assert any(line.startswith("  wrote ") for line in first)


def test_against_prints_the_diff_from_another_checkout(tmp_path):
    # the other checkout: this one's package, with validate's summary worded differently
    other = tmp_path / "other"
    shutil.copytree(SCRIPT.parent.parent / "src" / "trackcop", other / "src" / "trackcop",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = other / "src" / "trackcop" / "cli.py"
    text = cli.read_text()
    assert "copula exists:" in text
    cli.write_text(text.replace("copula exists:", "a copula exists:"))
    run = subprocess.run([sys.executable, str(SCRIPT), "--against", str(other)],
                         capture_output=True, text=True)
    lines = run.stdout.splitlines()
    assert run.returncode == 1
    assert lines[:2] == [f"--- {other}", "+++ this checkout"]
    assert any(line.startswith("-  stdout ") for line in lines)
    assert all(not line.startswith(("-$", "+$")) for line in lines)
    missing = subprocess.run([sys.executable, str(SCRIPT), "--against", str(tmp_path / "none")],
                             capture_output=True, text=True)
    assert missing.returncode == 2 and not missing.stdout
