"""Guard against code in `src/` that only tests reach."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cardioclr"


def _referenced_names() -> set[str]:
    """Every identifier src/ and perfbench/ use: names, attributes, imports,
    and words of string constants (perfbench wraps functions by attribute
    name, and `__all__` lists the public ones), plus pyproject.toml's words
    (the console entry point)."""
    names = set(re.findall(r"\w+", (ROOT / "pyproject.toml").read_text()))
    for path in [*PACKAGE.rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(re.findall(r"\w+", node.value))
    return names


def _definitions():
    """(qualified name, name) of every module-level function and class in
    src/, and of every public method of those classes. A definition is not
    a reference to itself."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).with_suffix("").as_posix().replace("/", ".")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name


def test_every_src_definition_has_a_caller_outside_the_tests():
    used = _referenced_names()
    unused = [qualified for qualified, name in _definitions() if name not in used]
    assert unused == [], "only tests reach these; delete them or move them into the tests"
