"""Every definition in ``src/swcnn`` is read somewhere in ``src/``.

A module-level definition is a ``def``, ``class`` or assignment target;
it is read by a loaded name or a loaded attribute.  Neither an
``import`` nor an ``__all__`` entry is a read, so a re-export keeps no
name alive.  A member is a method, property, dataclass field or other
assignment in the body of a module-level class, dunders aside; it is
read by a loaded attribute or a keyword argument of the same name.
Code that only the tests call belongs in the tests (``tests/helpers.py``
holds the per-region reference).
"""

import ast
from pathlib import Path

import swcnn

SRC = Path(swcnn.__file__).resolve().parent

# benchmark/tracer.py still wraps these two names, so they must resolve;
# ROADMAP item 2 deletes them, and this allowlist with them
ALLOWED = {"tv.region_vector", "tv.sparse_affine"}

ALLOWED_MEMBERS = {
    # only benchmark/tracer.py reads it, counting slots and gathered rows
    "model.PreparedView.slots",
    # argparse calls it on a usage error
    "cli._Parser.error",
}


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


def _members(tree):
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("__"):
                    yield cls.name, name


def _member_reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_module_level_definition_is_read_in_src():
    trees = _trees()
    read = {name for tree in trees.values() for name in _reads(tree)}
    defined = {f"{module}.{name}" for module, tree in trees.items()
               for name in _definitions(tree)}
    unread = sorted(qualified for qualified in defined - ALLOWED
                    if qualified.partition(".")[2] not in read)
    assert unread == [], f"defined in src/swcnn but never read there: {unread}"
    assert ALLOWED <= defined, "an allowlisted name is gone: drop it from ALLOWED"


def test_every_class_member_is_read_in_src():
    trees = _trees()
    read = {name for tree in trees.values() for name in _member_reads(tree)}
    defined = {f"{module}.{cls}.{name}" for module, tree in trees.items()
               for cls, name in _members(tree)}
    unread = sorted(qualified for qualified in defined - ALLOWED_MEMBERS
                    if qualified.rpartition(".")[2] not in read)
    assert unread == [], f"members defined in src/swcnn but never read there: {unread}"
    assert ALLOWED_MEMBERS <= defined, "an allowlisted member is gone: drop it from ALLOWED_MEMBERS"
