"""Every module-level definition in ``src/swcnn`` is read somewhere in ``src/``.

A definition is a module-level ``def``, ``class`` or assignment target.
A read is a loaded name or a loaded attribute.  Neither an ``import`` nor
an ``__all__`` entry is a read, so a re-export keeps no name alive.  Code
that only the tests call belongs in the tests (``tests/helpers.py`` holds
the per-region reference).
"""

import ast
from pathlib import Path

import swcnn

SRC = Path(swcnn.__file__).resolve().parent

# benchmark/tracer.py still wraps these two names, so they must resolve;
# ROADMAP item 1 deletes them, and this allowlist with them
ALLOWED = {"tv.region_vector", "tv.sparse_affine"}


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield name.id


def _reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_module_level_definition_is_read_in_src():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    read = {name for tree in trees.values() for name in _reads(tree)}
    defined = {f"{module}.{name}" for module, tree in trees.items()
               for name in _definitions(tree)}
    unread = sorted(qualified for qualified in defined - ALLOWED
                    if qualified.partition(".")[2] not in read)
    assert unread == [], f"defined in src/swcnn but never read there: {unread}"
    assert ALLOWED <= defined, "an allowlisted name is gone: drop it from ALLOWED"
