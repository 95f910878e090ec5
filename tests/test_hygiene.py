"""Static checks on the package source: no unused imports, stdlib only,
imports at module level, no broad exception handler that swallows what it
catches, no public name or method that only the tests read; what the
command line's start-up imports; that README's module map is whole; and
that the tests' plain references reach no fast path of the package; and
that each listed mutant's text is where it says."""

import ast
import pathlib
import re
import subprocess
import sys

import pytest

from mutants import MUTANTS

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "localcorrect"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(tree):
    """(bound name, line) for every import binding, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def test_package_has_modules():
    assert len(MODULES) > 1


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = parse(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = ["%s (line %d)" % (name, line)
              for name, line in imported_names(tree) if name not in used]
    assert not unused, "%s imports but never uses: %s" % (path.name, ", ".join(unused))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_stdlib_only(path):
    outside = []
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            tops = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops = [node.module.split(".")[0]]
        else:
            continue
        outside += [t for t in tops if t not in sys.stdlib_module_names]
    assert not outside, "%s imports non-stdlib modules: %s" % (path.name, outside)


BROAD = {"ValueError", "Exception", "BaseException"}


def caught_names(handler):
    nodes = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {node.id for node in nodes if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_broad_handlers_reraise(path):
    """Bad input is a ConfigError raised where it is found, so a handler of
    ValueError or wider may only translate what it catches, never end it."""
    swallowing = [
        "line %d" % node.lineno
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ExceptHandler)
        and (node.type is None or caught_names(node) & BROAD)
        and not isinstance(node.body[-1], ast.Raise)
    ]
    assert not swallowing, "%s: broad handler without a final raise at %s" % (
        path.name, ", ".join(swallowing))


def public_top_level_names(tree):
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


def test_every_public_name_is_read():
    """A public function, class or constant that no module of the package
    reads, by name or as an attribute, exists only for its tests."""
    trees = {path.stem: parse(path) for path in MODULES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = sorted("%s.%s" % (module, name)
                    for module, tree in trees.items()
                    for name in public_top_level_names(tree) if name not in read)
    assert not unread, unread


def test_every_public_method_is_read():
    """A public method or property of a package class that no module of
    the package reads as an attribute exists only for its tests."""
    trees = {path.stem: parse(path) for path in MODULES}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    unread = sorted("%s.%s.%s" % (module, cls.name, fn.name)
                    for module, tree in trees.items()
                    for cls in tree.body if isinstance(cls, ast.ClassDef)
                    for fn in cls.body if isinstance(fn, ast.FunctionDef)
                    and not fn.name.startswith("_") and fn.name not in read)
    assert not unread, unread


def test_imports_are_module_level():
    """Imports sit at the top of their module, so a run pays for them
    once, at start-up.  bench's import of acceptance is the one exception:
    acceptance imports cli."""
    local = sorted((path.stem, fn.name)
                   for path in MODULES
                   for fn in ast.walk(parse(path))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert local == [("cli", "_cmd_bench")]


def test_cli_import_skips_dataclasses():
    """Every run starts with `import localcorrect.cli`.  dataclasses, and
    the inspect it imports, would be more than a third of that cost, so
    the package defines its records without them.  Nor is a process pool
    imported: trial chunks run in forked children."""
    code = ("import sys; sys.path.insert(0, %r); import localcorrect.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'multiprocessing', "
            "'concurrent.futures'} & set(sys.modules)))"
            % str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-I", "-B", "-c", code],
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == []


def test_readme_layout_names_each_module_once():
    """README's Layout table has one row per module of the package, and
    no row for a module that is gone."""
    text = (ROOT / "README.md").read_text()
    layout = text.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `localcorrect\.(\w+)` \|", layout, re.MULTILINE)
    assert sorted(rows) == [p.stem for p in MODULES if p.stem != "__init__"]


# The fast paths, and the report template, that the plain references in
# tests/reference.py are compared against, and so must not reach.
FAST_PATHS = {
    "bits_fn", "bytes_fn", "_mobius", "corrupt", "corrupt_many", "query", "query_many",
    "subcube_blocks", "identify_influencing_parts", "build_masked_input",
    "find_corrupted_point", "run_correction_experiment", "emit_report",
    "_RECORD_LINE", "REPORT_ENCODER", "_hard_hits", "run_distinguisher",
    "run_chunks", "_run_trials",
}


def test_references_reach_no_fast_path():
    """A reference that imports or reads a fast path would agree with it
    by construction, so its comparison would check nothing."""
    reached = set()
    for node in ast.walk(parse(ROOT / "tests" / "reference.py")):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            reached.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.Name):
            reached.add(node.id)
        elif isinstance(node, ast.Attribute):
            reached.add(node.attr)
    assert not reached & FAST_PATHS, sorted(reached & FAST_PATHS)


def test_mutant_texts_occur_once():
    """Each listed mutant's text occurs once in its file, and its killer's
    test function exists, so `tests/mutants.py` mutates what it names."""
    for m in MUTANTS:
        assert (ROOT / m.path).read_text().count(m.old) == 1, m.name
        path, *names = m.killer.split("[")[0].split("::")
        assert "def %s(" % names[-1] in (ROOT / path).read_text(), m.killer
