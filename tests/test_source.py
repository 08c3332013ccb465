"""The package's source holds no dead weight: no import it does not use,
and no public function or class that only the tests call."""

import ast
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "essayscore").glob("*.py"))
# where a public name counts as used: the package, the benchmark and the
# demos, not the tests
USERS = sorted(p for d in ("src", "bench", "demos")
               for p in (ROOT / d).rglob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """The names that ``tree``'s imports bind and no expression reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # "import a.b" binds "a"
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def words(path: Path):
    """``(line, identifier)`` for each name in ``path``'s code and each
    string literal that is one identifier (the benchmark's tracer wraps
    functions by name); a comment or a docstring names nothing."""
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NAME:
                yield tok.start[0], tok.string
            elif tok.type == tokenize.STRING:
                try:
                    value = ast.literal_eval(tok.string)
                except (ValueError, SyntaxError):  # an f-string
                    continue
                if isinstance(value, str) and value.isidentifier():
                    yield tok.start[0], value


def unused_public_names(package, users) -> list[str]:
    """``module:name`` of each public module-level function or class of
    ``package`` that no file of ``users`` names outside its definition."""
    places = {}  # identifier -> [(file, line)]
    for user in users:
        for line, word in words(user):
            places.setdefault(word, []).append((user, line))
    unused = []
    for path in package:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            # decorators sit above the def line
            own = range(min([node.lineno]
                            + [d.lineno for d in node.decorator_list]),
                        node.end_lineno + 1)
            if all(user == path and line in own
                   for user, line in places.get(node.name, ())):
                unused.append(f"{path.stem}:{node.name}")
    return unused


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\nimport os\n"
                     "import os.path as osp\nfrom x import (a, b as c)\n"
                     "print(a, osp)\n")
    assert unused_imports(tree) == ["c", "os"]


def test_every_public_name_is_used_outside_its_definition():
    assert unused_public_names(PACKAGE, USERS) == []


def test_a_name_only_a_docstring_comment_or_itself_uses_is_found(tmp_path):
    module = tmp_path / "m.py"
    module.write_text('"""f and g are documented."""\n\n\n'
                      "def f():\n    return f  # g\n\n\n"
                      "def g():\n    pass\n\n\n"
                      "class K:\n    pass\n\n\n"
                      "def h():\n    return K\n")
    user = tmp_path / "u.py"
    user.write_text('HOOKS = ("h", "k")\n')
    assert unused_public_names([module], [module, user]) == ["m:f", "m:g"]
