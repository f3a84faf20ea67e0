"""The package, the demos and the tests parse under the oldest Python that
`pyproject.toml` declares, so syntax newer than the floor is caught on any
interpreter that runs the suite."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_at_the_declared_floor():
    declared = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"',
                         (ROOT / "pyproject.toml").read_text())
    floor = (int(declared[1]), int(declared[2]))
    assert floor == (3, 10)
    paths = sorted(p for d in ("src/ftdesigns", "demos", "tests") for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > 30
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=floor)
