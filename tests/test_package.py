import ast
import importlib
import pathlib

import qbmor


def test_package_names_are_public_in_their_modules():
    # every name the package imports from a module is in that module's __all__
    tree = ast.parse(pathlib.Path(qbmor.__file__).read_text())
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"qbmor.{node.module}")
            unlisted += [f"{node.module}.{alias.name}" for alias in node.names
                         if alias.name not in module.__all__]
    assert unlisted == []


def test_modules_use_every_name_they_import():
    # a module of the package imports no name it never uses; a line marked
    # ``# noqa: F401`` keeps a name for code that looks it up on the module
    stale = []
    for path in sorted(pathlib.Path(qbmor.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imported = [alias for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        stale += [f"{path.stem}: {alias.name}" for alias in imported
                  if (alias.asname or alias.name.split(".")[0]) not in used
                  and "# noqa: F401" not in lines[alias.lineno - 1]]
    assert stale == []


def test_every_lu_is_a_raw_lapack_call():
    # one LU idiom: getrf or gttrf with ``info`` checked, never the wrappers
    # that warn on a zero pivot, and no warning filters around them; and one
    # narrow storage, tridiagonal, so no general-band routine
    found = [f"{path.stem}: {word}"
             for path in sorted(pathlib.Path(qbmor.__file__).parent.glob("*.py"))
             for word in ("lu_factor", "lu_solve", "catch_warnings", "gbtrf", "gbtrs", "gbsv")
             if word in path.read_text()]
    assert found == []


def test_every_private_name_is_used_in_the_package():
    # a top-level private function, class or constant, or a method or ``self.``
    # attribute of a private class, that no code of the package reads beyond
    # its own definition is an orphan of deleted code; a member is read only
    # where it is loaded as an attribute (``.name``)
    trees = [ast.parse(path.read_text())
             for path in sorted(pathlib.Path(qbmor.__file__).parent.glob("*.py"))]
    defined, members = [], []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [t.id for t in targets if isinstance(t, ast.Name)]
            if isinstance(node, ast.ClassDef) and node.name.startswith("_"):
                names = [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
                names += [a.attr for a in ast.walk(node) if isinstance(a, ast.Attribute)
                          and isinstance(a.ctx, ast.Store)
                          and isinstance(a.value, ast.Name) and a.value.id == "self"]
                members += [(node.name, name) for name in dict.fromkeys(names)]
    loads = [node for tree in trees for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]
    read = {node.id if isinstance(node, ast.Name) else node.attr for node in loads}
    attributes = {node.attr for node in loads if isinstance(node, ast.Attribute)}
    orphans = [name for name in defined
               if name.startswith("_") and not name.startswith("__") and name not in read]
    orphans += [f"{cls}.{name}" for cls, name in members
                if not name.startswith("__") and name not in attributes]
    assert orphans == []
