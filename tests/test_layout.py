"""Layout: every module under ``src/repro`` is used by the program.

A module counts as used when a file of ``src/``, ``examples/`` or
``benchmarks/`` other than its own package's ``__init__`` imports it — directly,
or by importing from the package a name the ``__init__`` re-exports from it.
A re-export alone keeps nothing alive: a module that only its package's
``__init__`` imports is run by nobody.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Modules nothing imports, and why each stays.
EXEMPT = {
    "repro.obs.report": "an entry point: python -m repro.obs.report",
    "repro.ir.parser": "reads the text print_module writes; only the "
                       "round-trip tests call it",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path, own_name: str, is_package: bool):
    """Yield ``(module, names)`` for everything ``path`` imports.

    ``names`` are the names taken from ``module``: those of a ``from`` import,
    and the attributes read off a module bound by ``import a.b as m`` or
    ``from a import b as m`` (``m.name``).
    """
    package = own_name.split(".") if is_package else own_name.split(".")[:-1]
    tree = ast.parse(path.read_text())
    bound: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, []
                bound[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - (node.level - 1)] if node.level else []
            module = ".".join(base + (node.module.split(".") if node.module else []))
            yield module, [alias.name for alias in node.names]
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in bound:
                yield bound[node.value.id], [node.attr]


def unused_modules() -> list[str]:
    sources = {_module_name(path): path for path in SRC.rglob("*.py")}
    packages = {name for name, path in sources.items() if path.name == "__init__.py"}
    # What each package's __init__ re-exports, and from where.
    reexports: dict[str, dict[str, str]] = {name: {} for name in packages}
    for name in packages:
        for module, names in _imports(sources[name], name, True):
            if module in sources and module.startswith(name + "."):
                reexports[name].update({exported: module for exported in names})

    used: set[str] = set()

    def mark(module: str, names: list[str]) -> None:
        if module not in sources:
            return
        if module not in packages:
            used.add(module)
            return
        for name in names:
            if f"{module}.{name}" in sources:
                mark(f"{module}.{name}", [])
            elif name in reexports[module]:
                mark(reexports[module][name], [name])

    importers = [(name, path, name in packages) for name, path in sources.items()]
    for directory in ("examples", "benchmarks"):
        importers += [("", path, False) for path in (ROOT / directory).rglob("*.py")]
    for name, path, is_package in importers:
        for module, names in _imports(path, name, is_package):
            # A package's import of its own submodule is the re-export itself.
            if not (is_package and module.startswith(name + ".")):
                mark(module, names)
    return sorted(set(sources) - packages - used)


def test_every_module_is_imported_by_the_program():
    assert unused_modules() == sorted(EXEMPT)
