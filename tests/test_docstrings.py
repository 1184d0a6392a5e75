"""Every Sphinx cross-reference in the package's docstrings, and every name
the README's module table cites, names something that exists, so a renamed
or deleted function leaves no stale reference."""

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
    if name.split(".")[0] == "pcach":
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


_README = Path(__file__).resolve().parents[1] / "README.md"
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
# names the module table cites that no pcach module holds: a builtin, a
# distribution and an attribute each HistoryDB sets on itself
_NOT_IN_PCACH = {"str", "Binomial", "app_counts"}


def _table_names():
    """Every backticked identifier in the README's module table, in order; a
    call ``f(args)`` names ``f``, and code that is not a name (``sweep-k``,
    ``DEFAULT_*``) is left out."""
    rows = [line for line in _README.read_text().splitlines() if line.startswith("| `pcach.")]
    codes = [code.split("(")[0] for row in rows for code in re.findall(r"`([^`]+)`", row)]
    return [code for code in codes if _IDENTIFIER.fullmatch(code)]


def _in_pcach(name):
    """Whether ``name`` is a pcach module, or an attribute or class member of
    one (looked up in every module as a docstring role would be)."""
    modules = [importlib.import_module(f"pcach.{path.stem}")
               for path in sorted(Path(pcach.__file__).parent.glob("*.py"))
               if path.stem not in ("__init__", "__main__")]
    return any(_resolve(module, name) is not None for module in modules)


def test_readme_module_table_names_resolve():
    names = _table_names()
    assert len(names) > 50
    assert not [name for name in names if name not in _NOT_IN_PCACH and not _in_pcach(name)]
    # each exception is still cited and still outside the package
    assert _NOT_IN_PCACH <= set(names)
    assert not [name for name in _NOT_IN_PCACH if _in_pcach(name)]
