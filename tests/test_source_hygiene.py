"""Static checks on the library source: imports that are used, no stray prints."""

import ast
import pathlib
import symtable

import artifact

_MODULES = sorted(pathlib.Path(artifact.__file__).resolve().parent.glob("*.py"))


def _reaches_global(table, name):
    """True if ``name`` is read as a module global anywhere below ``table``.

    A function whose parameter or local shadows the name reads its own
    binding, not the module's, so it does not count.
    """
    for child in table.get_children():
        names = child.get_identifiers()
        if name in names:
            sym = child.lookup(name)
            if sym.is_global() and sym.is_referenced():
                return True
            if sym.is_free() or (sym.is_local() and child.get_type() != "class"):
                continue  # shadowed here, and so in every scope below
        if _reaches_global(child, name):
            return True
    return False


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(path):
    source = path.read_text(encoding="utf-8")
    exported = _exported(ast.parse(source))
    module = symtable.symtable(source, str(path), "exec")
    return [
        f"{path.name}: {sym.get_name()}"
        for sym in module.get_symbols()
        if sym.is_imported()
        and not sym.is_referenced()
        and sym.get_name() not in exported
        and not _reaches_global(module, sym.get_name())
    ]


def test_every_imported_name_is_used_or_exported():
    # a function whose parameter shadows an import does not use the import
    assert [name for path in _MODULES for name in _unused_imports(path)] == []


def test_only_the_cli_prints():
    # library code reports through return values and exceptions
    calls = [
        f"{path.name}:{node.lineno}"
        for path in _MODULES
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    ]
    assert calls == []
