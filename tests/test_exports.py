import ast
import re
from pathlib import Path

import sadcluster

ROOT = Path(__file__).resolve().parent.parent


def test_all_is_sorted_unique_and_resolves():
    names = sadcluster.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(sadcluster, name)]
    assert missing == []


def names_imported_from_the_package(source: str) -> set[str]:
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "sadcluster"
            for alias in node.names}


def test_all_is_exactly_what_the_readme_and_demos_import():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    sources += [path.read_text(encoding="utf-8") for path in (ROOT / "demos").glob("*.py")]
    used = set().union(*map(names_imported_from_the_package, sources))
    assert sorted(used) == sadcluster.__all__
