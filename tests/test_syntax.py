"""Every Python file under src/, tests/ and tools/ parses as Python 3.10, the oldest version
pyproject.toml admits. This catches syntax only, not a stdlib name that 3.10 lacks."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_source_parses_as_python_3_10():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()
    paths = sorted(path for top in ("src", "tests", "tools") for path in (ROOT / top).rglob("*.py"))
    assert ROOT / "src" / "ncstirling" / "cli.py" in paths and Path(__file__).resolve() in paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
