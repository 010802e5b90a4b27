"""No public name in the package is read only by tests.

Every public top-level name of a `src/loopseq` module (function, class or
constant) must be read outside `tests/`:
- in its own module;
- in another package module, imported by name or read as an attribute of its module;
- in `perfbench/*.py`, the same way or as a string constant, because the
  tracer patches functions by name;
- or as the entry point in `pyproject.toml`.

Reads are matched by module and name, not by call: a guard that a deleted
caller leaves no public function behind, not a proof that every read runs.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "loopseq"
# The sequential scan is the independent oracle the tests hold the production
# scan to, so its only readers are tests by design.
ALLOWED = {("scan", "scan_sequential")}


def _public_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def _package_module(node: ast.ImportFrom) -> str | None:
    """'' for the package itself, a module name for one of its modules, else None."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and (node.module + ".").startswith("loopseq."):
        return node.module[len("loopseq.") :]
    return None


def _reads(path: Path, own: str | None) -> tuple[set, set]:
    """The (module, name) pairs `path` reads, and its string constants.

    `own` is the module `path` is, when it is a package module.
    """
    tree = ast.parse(path.read_text())
    names, modules = {}, {}  # local name -> (module, name) it imports / module it names
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (base := _package_module(node)) is not None:
            for alias in node.names:
                local = alias.asname or alias.name
                if base:
                    names[local] = (base, alias.name)
                else:
                    modules[local] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("loopseq.") and alias.asname:
                    modules[alias.asname] = alias.name[len("loopseq.") :]
    reads, strings = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(names.get(node.id, (own, node.id)))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            reads.add((modules[node.value.id], node.attr))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.add(node.value)
    return reads, strings


def _unread() -> list[tuple[str, str]]:
    reads = set(re.findall(r'"loopseq\.(\w+):(\w+)"', (ROOT / "pyproject.toml").read_text()))
    strings = set()
    for path in sorted(PACKAGE.glob("*.py")):
        reads |= _reads(path, path.stem)[0]
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        more, text = _reads(path, None)
        reads |= more
        strings |= text
    return [
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _public_names(ast.parse(path.read_text()))
        if (path.stem, name) not in reads and name not in strings
    ]


def test_every_public_name_has_a_reader_outside_tests():
    unread = sorted(set(_unread()) - ALLOWED)
    assert not unread, f"public names read only by tests (delete them or make them private): {unread}"


def test_allowlisted_names_exist_and_are_unread():
    # an allowlisted name that gains a reader, or goes, leaves the list stale
    assert ALLOWED <= set(_unread())


def test_the_scan_finds_a_name_read_only_by_a_test(tmp_path, monkeypatch):
    package = tmp_path / "src" / "loopseq"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "pyproject.toml").write_text('[project.scripts]\nloopseq = "loopseq.cli:main"\n')
    (package / "cli.py").write_text(
        "from . import core as c\nfrom .core import used\n\ndef main():\n    used()\n    c.by_attribute()\n"
    )
    (package / "core.py").write_text(
        "LIMIT = 3\n\ndef used():\n    return _helper()\n\ndef _helper():\n    return LIMIT\n\n"
        "def patched():\n    pass\n\ndef by_attribute():\n    pass\n\ndef orphan():\n    pass\n"
    )
    (package / "extra.py").write_text("from .core import orphan  # imported, never read\n")
    (tmp_path / "perfbench" / "probe.py").write_text('from loopseq import core\nRULE = (core, "patched")\n')
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    monkeypatch.setitem(globals(), "PACKAGE", package)
    assert _unread() == [("core", "orphan")]
