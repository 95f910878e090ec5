"""Static checks on the package source: no unused imports, stdlib only,
no broad exception handler that swallows what it catches."""

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "localcorrect"
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
