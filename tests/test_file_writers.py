import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sadcluster"

# every file the package writes is opened by one of these four, so a change to
# how outputs are written (say, to a temporary file renamed into place) has
# these four to change and no other
WRITERS = {"write_jsonl", "_write_json", "write_embeddings", "save_checkpoint"}


def opens_for_writing(node, function=None):
    """(enclosing function, line) of each ``open(...)`` or ``x.open(...)``
    below ``node`` whose mode can write; a mode that is not a literal
    string counts as writing."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from opens_for_writing(child, child.name)
            continue
        if isinstance(child, ast.Call):
            func = child.func
            builtin = isinstance(func, ast.Name) and func.id == "open"
            if builtin or isinstance(func, ast.Attribute) and func.attr == "open":
                modes = child.args[1 if builtin else 0:][:1]
                modes += [k.value for k in child.keywords if k.arg == "mode"]
                mode = modes[0] if modes else ast.Constant("r")
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                        and not set(mode.value) & set("wax+")):
                    yield function, child.lineno
        yield from opens_for_writing(child, function)


@pytest.mark.parametrize("source, expected", [
    ("open(p)\nopen(p, 'rb')\nPath(p).open()", []),
    ("def f():\n    open(p, 'w')", [("f", 2)]),
    ("def f():\n    def g():\n        p.open(mode='ab')\n", [("g", 3)]),
    ("open(p, 'r+')\nopen(p, mode)", [(None, 1), (None, 2)]),
])
def test_write_modes_are_found(source, expected):
    assert list(opens_for_writing(ast.parse(source))) == expected


def test_only_the_writers_open_a_file_for_writing():
    sites = [(path.name, function, line) for path in sorted(SRC.glob("*.py"))
             for function, line in opens_for_writing(ast.parse(path.read_text("utf-8")))]
    assert [site for site in sites if site[1] not in WRITERS] == []
    assert {function for _, function, _ in sites} == WRITERS
