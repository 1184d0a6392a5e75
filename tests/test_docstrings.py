"""Every Sphinx cross-reference in the package's docstrings names something
that exists, so a renamed or deleted function leaves no stale reference."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import pcach

_ROLE = re.compile(r":(?:func|meth|class|mod):`~?([\w.]+)`")


def _resolve(module, name):
    """The object a role's target names, or None. ``pcach.mod.name`` is
    imported; a bare name is looked up in the module's globals first, then
    among the attributes of the module's classes."""
    if name.startswith("pcach."):
        parts = name.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            return _attributes(obj, parts[cut:])
        return None
    head, *rest = name.split(".")
    scopes = [vars(module)] + [vars(cls) for _, cls in inspect.getmembers(module, inspect.isclass)
                               if cls.__module__ == module.__name__]
    for scope in scopes:
        if head in scope:
            return _attributes(scope[head], rest)
    return None


def _attributes(obj, names):
    for name in names:
        obj = getattr(obj, name, None)
    return obj


def _roles(path):
    """(line number, target) of every role in a source file."""
    return [(line_no, match.group(1))
            for line_no, line in enumerate(path.read_text().splitlines(), 1)
            for match in _ROLE.finditer(line)]


# the modules that hold roles (importing __main__ would run the CLI)
_SOURCES = [path for path in sorted(Path(pcach.__file__).parent.glob("*.py")) if _roles(path)]


def test_the_package_has_cross_references():
    assert sum(len(_roles(path)) for path in _SOURCES) > 50


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.stem)
def test_docstring_cross_references_resolve(path):
    module = importlib.import_module(f"pcach.{path.stem}")
    stale = [f"{path.name}:{line_no}: {name}" for line_no, name in _roles(path)
             if _resolve(module, name) is None]
    assert not stale
