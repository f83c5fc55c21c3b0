"""Every member and public function the package defines has a reader.

A dataclass field, property or method of a class in src/hardylab whose
name is never read as an attribute, by the package itself, by the benchmark
in perfbench/ or by the acceptance criteria, holds a value that no run looks
at: it is dropped, not kept for a reader that does not exist.  Dunder
methods are called by the language and are exempt.  Reads are matched by
name alone, so a member that shares its name with one that is read passes;
a read off numpy's finfo(...) or iinfo(...) (np.finfo(float).eps) reads
numpy's member, not the package's, and is not counted.

The same holds for a public module-level function, which is read by
attribute (fla.derivative_table), by bare name (a call, or a value in a
table) or by name in a from-import.  The benchmark's spans wrap every
public function of their modules by reflection, which reads none of them.
A function only the tests call moves to a tests oracle module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hardylab"
READERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]


def _is_dataclass(cls: ast.ClassDef) -> bool:
    """Decorated @dataclass or @dataclass(...)."""
    return any(getattr(deco.func if isinstance(deco, ast.Call) else deco, "id", None) == "dataclass"
               for deco in cls.decorator_list)


def defined_members(path: Path) -> list[tuple[str, str]]:
    """('module.Class.member', member) for the fields of each dataclass and
    the properties and methods of each class in path, dunders left out."""
    members = []
    for cls in ast.walk(ast.parse(path.read_text())):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                name = node.name
            elif (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                  and _is_dataclass(cls)):
                name = node.target.id
            else:
                continue
            if not (name.startswith("__") and name.endswith("__")):
                members.append((f"{path.stem}.{cls.name}.{name}", name))
    return members


def _is_type_info(node: ast.expr) -> bool:
    """A call of finfo or iinfo, by bare name or as an attribute (np.finfo(...))."""
    func = getattr(node, "func", None)
    return getattr(func, "attr", getattr(func, "id", None)) in ("finfo", "iinfo")


def attributes_read(path: Path) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and not _is_type_info(node.value)}


def defined_functions(path: Path) -> list[tuple[str, str]]:
    """('module.function', function) for each public module-level function of path."""
    return [(f"{path.stem}.{node.name}", node.name) for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def names_read(path: Path) -> set[str]:
    """The attributes read in path, the bare names it loads and the names it imports."""
    tree = ast.parse(path.read_text())
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    return attributes_read(path) | loaded | imported


def test_every_public_function_is_read():
    read = set().union(*map(names_read, READERS))
    unread = [function for path in sorted(PACKAGE.glob("*.py"))
              for function, name in defined_functions(path) if name not in read]
    assert unread == []


def test_every_member_is_read():
    read = set().union(*map(attributes_read, READERS))
    unread = [member for path in sorted(PACKAGE.glob("*.py"))
              for member, name in defined_members(path) if name not in read]
    assert unread == []
