"""Public names: everything a module exports in ``__all__`` exists.  Source
hygiene: every imported name is used or re-exported, every private
module-level name is referenced somewhere in the package, and the CLI
prints through one reporter."""

import ast
import importlib
import pkgutil
from pathlib import Path

import skewforms

SOURCES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(Path(skewforms.__file__).parent.glob("*.py"))}


def test_every_exported_name_resolves():
    modules = [skewforms] + [importlib.import_module(f"skewforms.{info.name}")
                             for info in pkgutil.iter_modules(skewforms.__path__)]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in module.__all__ if not hasattr(module, name)]
    assert len(modules) > 1
    assert missing == []


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _names_read(node: ast.AST) -> set[str]:
    """Every identifier that a node reads: bare names and attribute names."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def test_every_imported_name_is_used_or_exported():
    unused = []
    for module, tree in SOURCES.items():
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        used = _names_read(tree) | _exported(tree)
        unused += [f"{module}.{name}" for name in sorted(imported - used)]
    assert unused == []


def test_every_private_module_level_name_is_referenced():
    """A private helper read only by its own body, or by nothing, is dead."""
    defined, referenced = [], set()
    for module, tree in SOURCES.items():
        for node in tree.body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner = node.name
                names = [owner]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.append((module, name))
            referenced |= _names_read(node) - {owner}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    dead = [f"{module}.{name}" for module, name in defined if name not in referenced]
    assert len(defined) > 20
    assert dead == []


def _names_called(tree: ast.Module, function: str) -> set[str]:
    node = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function)
    return {call.func.id for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}


def test_single_base_power_rules_have_one_home():
    """The rules for one base raised to a power live in expr._split, which
    mul's factors (_factors) apply to each accumulated base and power to its
    one factor: mul calls no power, and power calls neither itself nor a
    rule's helper."""
    in_mul, in_power = _names_called(SOURCES["expr"], "mul"), _names_called(SOURCES["expr"], "power")
    in_factors = _names_called(SOURCES["expr"], "_factors")
    assert "_factors" in in_mul and "_split" in in_factors and "power" not in in_mul | in_factors
    assert "_split" in in_power and in_power.isdisjoint({"power", "_nth_root_exact", "_content"})


def _print_calls(node: ast.AST) -> list[ast.Call]:
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name) and call.func.id == "print"]


def test_cli_prints_only_through_the_reporter():
    """cli.py prints results only in Reporter.emit, and main prints only its
    error line, to stderr."""
    tree = SOURCES["cli"]
    scopes = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    scopes += [(f"{cls.name}.{node.name}", node) for cls in tree.body
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef)]
    prints = {name: calls for name, scope in scopes if (calls := _print_calls(scope))}
    assert set(prints) == {"Reporter.emit", "main"}
    assert sum(map(len, prints.values())) == len(_print_calls(tree))
    assert [ast.unparse(k) for call in prints["main"] for k in call.keywords] == \
        ["file=sys.stderr"] * len(prints["main"])
