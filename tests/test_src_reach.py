"""Guard against code in `src/` that only tests reach."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cardioclr"


def _referenced_names() -> tuple[set[str], set[str]]:
    """Identifiers src/ and perfbench/ use, as two sets. The first holds
    every name, attribute, import and word of a string constant (perfbench
    wraps functions by attribute name, and `__all__` lists the public ones),
    plus pyproject.toml's words (the console entry point). The second holds
    only the attributes and string words, the ways a method is reached: a
    local or a parameter of a method's name does not call it."""
    names = set(re.findall(r"\w+", (ROOT / "pyproject.toml").read_text()))
    members = set()
    for path in [*PACKAGE.rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                members.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                members.update(re.findall(r"\w+", node.value))
    return names | members, members


def _definitions():
    """(qualified name, name, is a method) of every module-level function
    and class in src/, and of every public method or property of those
    classes. A definition is not a reference to itself."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).with_suffix("").as_posix().replace("/", ".")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{module}.{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name, True


def test_every_src_definition_has_a_caller_outside_the_tests():
    names, members = _referenced_names()
    unused = [qualified for qualified, name, method in _definitions()
              if name not in (members if method else names)]
    assert unused == [], "only tests reach these; delete them or move them into the tests"


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _own_scope(node):
    """The nodes of a function's body that are in its own scope: nested
    functions, classes, lambdas and comprehensions are left out."""
    todo = list(node.body)
    while todo:
        child = todo.pop()
        yield child
        if not isinstance(child, _SCOPES):
            todo.extend(ast.iter_child_nodes(child))


def _functions():
    """(qualified name, node, is module-level) of every function in src/."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).with_suffix("").as_posix().replace("/", ".")
        tree = ast.parse(path.read_text())
        top = set(map(id, tree.body))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{module}.{node.name}:{node.lineno}", node, id(node) in top


def _reads(node) -> set[str]:
    """Names a function or anything nested in it reads."""
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}


def test_every_module_level_function_reads_each_of_its_parameters():
    unread = []
    for qualified, node, top in _functions():
        if top:
            a, reads = node.args, _reads(node)
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            unread += [f"{qualified}({p.arg})" for p in params if p.arg not in reads]
    assert unread == [], "drop these parameters, or use them"


def test_every_local_a_function_assigns_is_read():
    unread = []
    for qualified, node, _ in _functions():
        shared = {name for n in _own_scope(node) if isinstance(n, (ast.Global, ast.Nonlocal))
                  for name in n.names}
        stored = {n.id for n in _own_scope(node)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        unread += [f"{qualified} {name}" for name in sorted(stored - shared - _reads(node))
                   if not name.startswith("_")]  # `_x` names a value left unread on purpose
    assert unread == [], "these locals are assigned and never read"


def _calls() -> dict[str, list[ast.Call]]:
    """Every call in src/ and perfbench/, by the name it calls: a function's
    name or a method's attribute."""
    calls: dict[str, list[ast.Call]] = {}
    for path in [*PACKAGE.rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, index, name: str) -> bool:
    """Whether `call` passes the parameter `name`, the `index`th positional
    one (None if keyword-only). `*args` passes every positional parameter,
    `**kwargs` every one."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return index is not None and (index < len(call.args)
                                  or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_is_passed_by_some_call():
    calls = _calls()
    knobs = []
    for qualified, node, top in _functions():
        if top:
            a = node.args
            positional = [*a.posonlyargs, *a.args]
            defaulted = [(i, p.arg) for i, p in enumerate(positional)
                         if i >= len(positional) - len(a.defaults)]
            defaulted += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            knobs += [f"{qualified}({name})" for index, name in defaulted
                      if not any(_passes(c, index, name) for c in calls.get(node.name, []))]
    assert knobs == [], "no call passes these; make each a constant"
