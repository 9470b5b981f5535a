"""Every library module is reached from an artifact entry point.

A static pass over the import graph, started from the CLI, the
experiment drivers, ``benchmarks/``, ``examples/`` and ``perfbench/``.
Package ``__init__`` files re-export names eagerly, so following their
imports would reach every module they list; instead a name imported
from a package resolves to the module that defines it.  Runner task
strings (``"repro.x.y:function"``) and module-name strings count as
imports, since the runner and the benchmark's tracer import them by
name.

A module that only tests import fails here: wire it into an artifact or
delete it with its tests.
"""

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, Set

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
ROOT_DIRS = ("benchmarks", "examples", "perfbench")
ROOT_MODULES = ("repro.cli", "repro.__main__")

_MODULE_STRING = re.compile(r"repro(\.\w+)+(:\w+)?")


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


MODULES: Dict[str, Path] = {_module_name(path): path
                            for path in sorted(SRC.rglob("*.py"))}
PACKAGES = {name for name, path in MODULES.items()
            if path.name == "__init__.py"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _reexports(package: str) -> Dict[str, str]:
    """Name -> module it was imported from, for one package __init__."""
    names: Dict[str, str] = {}
    for node in _parse(MODULES[package]).body:
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                names[alias.asname or alias.name] = node.module
    return names


def _resolve(module: str, name: str) -> Iterator[str]:
    """The modules ``from module import name`` reaches."""
    submodule = f"{module}.{name}"
    if submodule in MODULES:
        yield submodule
    elif module in PACKAGES:
        source = _reexports(module).get(name)
        if source is not None and source != module:
            yield from _resolve(source, name)
    elif module in MODULES:
        yield module


def _imports(path: Path) -> Iterator[str]:
    """Every repro module one file reaches directly."""
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in MODULES:
                    yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                yield from _resolve(node.module, alias.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _MODULE_STRING.fullmatch(node.value):
                module, _, name = node.value.partition(":")
                if module in MODULES:
                    yield module
                if name:
                    yield from _resolve(module, name)


def reached() -> Set[str]:
    roots = set(ROOT_MODULES)
    roots |= {name for name in MODULES
              if name.startswith("repro.experiments.")}
    frontier = [MODULES[name] for name in sorted(roots)]
    for directory in ROOT_DIRS:
        frontier.extend(sorted((REPO / directory).rglob("*.py")))
    seen: Set[str] = set(roots)
    while frontier:
        for module in _imports(frontier.pop()):
            if module not in seen:
                seen.add(module)
                # An __init__'s own imports are re-exports: they count
                # only when a name is imported through the package.
                if module not in PACKAGES:
                    frontier.append(MODULES[module])
    return seen


def test_every_library_module_is_reached():
    unreached = sorted(set(MODULES) - PACKAGES - reached())
    assert unreached == []


def test_package_reexports_resolve_to_their_module():
    """A name from a package counts only for the module defining it."""
    assert list(_resolve("repro.obs", "collecting")) == ["repro.obs.runtime"]
    assert list(_resolve("repro.batch", "driver")) == ["repro.batch.driver"]
    assert list(_resolve("repro.experiments.section4", "TEMPORAL_DELTAS")) \
        == ["repro.experiments.section4"]
