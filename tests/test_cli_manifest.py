"""The CLI differential harness gives the same manifest when run twice."""

from cli_manifest import manifest


def test_subset_manifest_is_reproducible(tmp_path):
    first = manifest(tmp_path / "first", subset=True)
    second = manifest(tmp_path / "second", subset=True)
    assert first == second
    assert sum(line.startswith("$ trackcop ") for line in first) == 10
    assert any(line.startswith("  wrote ") for line in first)
