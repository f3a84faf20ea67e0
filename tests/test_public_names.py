"""Every public function, class and method of the package, the demos and
the benchmark is named somewhere outside its own definition, so none is
kept alive by its tests alone; and no module of the package or the demos
imports a name it never uses."""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _references(tree):
    """Counters of the names a tree mentions: as a `Name`, an import alias,
    an attribute or a whole string constant (`any`), and as an attribute or
    a string only (`attr`, what a method is called by).  An `__all__` list
    is not a use: it exports a name, and keeps no code alive."""
    any_, attr = Counter(), Counter()
    nodes = [tree]
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                for t in node.targets):
            continue
        nodes.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name):
            any_[node.id] += 1
        elif isinstance(node, ast.alias):
            for name in (node.name.rpartition(".")[2], node.asname):
                any_[name] += 1
        elif isinstance(node, ast.Attribute):
            any_[node.attr] += 1
            attr[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            any_[node.value] += 1
            attr[node.value] += 1
    return any_, attr


def _definitions(tree):
    """(label, name, is_method, node) for each public top-level function and
    class, and each public method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or node.name.startswith("_"):
            continue
        yield node.name, node.name, False, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, True, item


def unreferenced(paths):
    """Labels of the public definitions in `paths` that no code in them
    names outside the definition itself."""
    trees = [ast.parse(p.read_text(), str(p)) for p in paths]
    total_any, total_attr = Counter(), Counter()
    for tree in trees:
        any_, attr = _references(tree)
        total_any.update(any_)
        total_attr.update(attr)
    out = []
    for tree in trees:
        for label, name, is_method, node in _definitions(tree):
            own_any, own_attr = _references(node)
            total, own = (total_attr, own_attr) if is_method else (total_any, own_any)
            if total[name] - own[name] <= 0:
                out.append(label)
    return sorted(out)


def program_files(root=ROOT):
    return sorted([*(root / "src/ftdesigns").glob("*.py"), *(root / "demos").glob("*.py"),
                   *(root / "perfbench").glob("*.py")])


def unused_imports(paths):
    """`file: name` for each name a module imports and never reads as a
    `Name`; a string in `__all__` is no use, and `from __future__` binds
    no name."""
    out = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                out.extend(f"{path.name}: {name}" for name in
                           (a.asname or a.name.partition(".")[0] for a in node.names)
                           if name not in used)
    return sorted(out)


def test_every_public_name_has_a_caller_in_the_program():
    assert unreferenced(program_files()) == []


def test_a_name_used_only_by_itself_is_flagged(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os\n\n"
                   "def loop(n):\n    return loop(n - 1) if n else os.sep\n\n"
                   "class Box:\n    def size(self):\n        return self.size\n\n"
                   "    def used(self):\n        return 0\n\n"
                   "def main():\n    return Box().used()\n\n"
                   "def exported():\n    return 1\n\n"
                   "SPANNED = ['main']\n__all__ = ['exported', 'main']\n")
    assert unreferenced([src]) == ["Box.size", "exported", "loop"]


def test_no_module_imports_a_name_it_never_uses():
    paths = [p for p in program_files() if p.parent.name != "perfbench"]
    assert unused_imports(paths) == []


def test_an_unused_import_is_flagged(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from __future__ import annotations\n"
                   "import os, os.path, sys as system\n"
                   "from json import dumps, loads\n\n"
                   "__all__ = ['loads']\n\n"
                   "def f(x: system.Any):\n    return dumps(os.sep)\n")
    assert unused_imports([src]) == ["mod.py: loads"]
