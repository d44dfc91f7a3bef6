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
