"""Nothing in the package that only its tests read.

Every module-level function, class and assignment of ``src/gkmhess`` is
read somewhere in the package, the benchmark or the scripts, outside its
own definition, or is exported in the package's ``__all__``; a string that
is a dotted identifier counts as a read of each part, because the
benchmark's tracer names its targets that way.  And no package module
imports a name that it does not use.  A reference that only tests read
lives in ``tests/``.
"""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _reads(node) -> Counter:
    """Names loaded, attributes read and the parts of dotted-identifier
    strings under ``node``."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and _DOTTED.fullmatch(sub.value)):
            out.update(sub.value.split("."))
    return out


def _definitions(tree):
    """(name, node) of each module-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield name.id, node


def _imported(tree):
    """The names each import statement of ``tree`` binds, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def _exports(tree) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _parse(paths):
    return {path: ast.parse(path.read_text(), str(path)) for path in paths}


def scan(root: pathlib.Path) -> tuple[list[str], list[str]]:
    """(unread definitions as ``module.name``, unused imports as
    ``module.name``) of the package under ``root``."""
    package = _parse(sorted((root / "src" / "gkmhess").glob("*.py")))
    readers = _parse(sorted((root / "perfbench").glob("*.py")) + sorted((root / "scripts").glob("*.py")))
    reads = Counter()
    for tree in [*package.values(), *readers.values()]:
        reads += _reads(tree)
    exported = _exports(package[root / "src" / "gkmhess" / "__init__.py"])
    unread, unused = [], []
    for path, tree in package.items():
        for name, node in _definitions(tree):
            if name not in exported and reads[name] <= _reads(node)[name]:
                unread.append(f"{path.stem}.{name}")
        own, exports = _reads(tree), _exports(tree)
        unused += [f"{path.stem}.{name}" for name in _imported(tree)
                   if not own[name] and name not in exports]
    return unread, unused


def test_every_package_name_is_read_outside_the_tests_and_every_import_is_used():
    unread, unused = scan(ROOT)
    assert unread == [], "read only by tests, or by nothing"
    assert unused == [], "imported and not used"
