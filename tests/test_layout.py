"""Layout: every module under ``src/repro`` is used by the program.

A module counts as used when a file of ``src/``, ``examples/`` or
``benchmarks/`` other than its own package's ``__init__`` imports it — directly,
or by importing from the package a name the ``__init__`` re-exports from it.
A re-export alone keeps nothing alive: a module that only its package's
``__init__`` imports is run by nobody.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Modules nothing imports, and why each stays.
EXEMPT = {
    "repro.obs.report": "an entry point: python -m repro.obs.report",
}


@lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _bindings(path: Path, own_name: str, is_package: bool):
    """``(imports, bound)`` of ``path``: the ``(module, names)`` of each import
    statement, and ``{local name: dotted path it is bound to}``."""
    package = own_name.split(".") if is_package else own_name.split(".")[:-1]
    imports: list[tuple[str, list[str]]] = []
    bound: dict[str, str] = {}
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports.append((alias.name, []))
                bound[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - (node.level - 1)] if node.level else []
            module = ".".join(base + (node.module.split(".") if node.module else []))
            imports.append((module, [alias.name for alias in node.names]))
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{module}.{alias.name}"
    return imports, bound


def _imports(path: Path, own_name: str, is_package: bool):
    """Yield ``(module, names)`` for everything ``path`` imports.

    ``names`` are the names taken from ``module``: those of a ``from`` import,
    and the attributes read off a module bound by ``import a.b as m`` or
    ``from a import b as m`` (``m.name``).
    """
    imports, bound = _bindings(path, own_name, is_package)
    yield from imports
    for node in ast.walk(_tree(path)):
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


# -- private names ------------------------------------------------------------
# A module that takes an underscore name of another module (``from m import
# _name``, or ``m._name`` of an imported module) leans on what that module
# does not offer.  The list below is a ratchet: it may only shrink.

#: ``(importer, module, name)`` of every private name one module of
#: ``src/repro`` takes from another, and why it stays private.
PRIVATE_IMPORTS = {
    ("repro.interp.codegen", "repro.interp.interpreter", "_wrap_argument"):
        "islands bind their inputs exactly as the walker binds call arguments",
}


def private_imports() -> set[tuple[str, str, str]]:
    found = set()
    for path in SRC.rglob("*.py"):
        name = _module_name(path)
        for module, names in _imports(path, name, path.name == "__init__.py"):
            if module.startswith("repro") and module != name:
                found.update(
                    (name, module, taken) for taken in names
                    if taken.startswith("_") and not taken.startswith("__")
                )
    return found


def test_private_names_cross_modules_only_where_listed():
    assert sorted(private_imports()) == sorted(PRIVATE_IMPORTS)


# -- communicators ------------------------------------------------------------
# Both worlds run the one ``Communicator`` over their own mailbox; a second
# class that receives messages would be a second communicator to keep in step.

def classes_defining(method: str) -> list[str]:
    """Every class of ``src/repro`` whose body defines ``method``."""
    return sorted(
        f"{_module_name(path)}.{node.name}"
        for path in SRC.rglob("*.py")
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ClassDef) and any(
            isinstance(item, ast.FunctionDef) and item.name == method
            for item in node.body
        )
    )


def test_one_class_receives_messages():
    assert classes_defining("irecv") == ["repro.interp.mpi_runtime.Communicator"]


def test_one_class_launches_spmd_rounds():
    assert classes_defining("run_spmd") == ["repro.core.session.Session"]


# -- operations ---------------------------------------------------------------
# An operation is a class something builds.  Testing for an op
# (``isinstance``) or annotating with it keeps nothing alive: the op has to be
# used as a value — called, or put in a table that is called — by a module of
# ``src/repro`` other than the dialect file that defines it.

DIALECTS = SRC / "repro" / "dialects"

_EMITTER = ("no frontend emits it, but the nest emitter spells it: built by the "
            "differential tests of tests/test_properties.py")
_MPI = ("the paper's message-passing dialect, kept whole: built and executed, as "
        "mpi.* and as the lowered MPI_* call, by "
        "tests/test_mpi_runtime.py::test_every_mpi_operation_runs_in_both_forms")

#: Operations no module of ``src/repro`` builds, and why each stays.
UNBUILT = {
    **{f"arith.{op}": _EMITTER for op in (
        "extf", "extsi", "fptosi", "maximumf", "maxsi", "minimumf", "muli",
        "sitofp", "subi", "truncf", "trunci")},
    **{f"mpi.{op}": _MPI for op in (
        "init", "finalize", "barrier", "comm_size", "send", "recv", "wait",
        "test", "reduce", "allreduce", "bcast", "gather")},
    "scf.reduce": "reductions reach the emitter only from hand-built nests: "
                  "tests/conftest.py::build_reduce_module and the fuzz",
}


class _ValueUses(ast.NodeVisitor):
    """Collects the nodes of a tree that are evaluated as values.

    Skipped: annotations, and the class-info argument of ``isinstance``.
    """

    def __init__(self):
        self.nodes: list[ast.AST] = []

    def generic_visit(self, node: ast.AST) -> None:
        self.nodes.append(node)
        super().generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            self.visit(node.args[0])
        else:
            self.generic_visit(node)

    def visit_arg(self, node: ast.arg) -> None:
        pass

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        for child in (*node.decorator_list, *node.args.defaults,
                      *filter(None, node.args.kw_defaults), *node.body):
            self.visit(child)


def _declared_name(cls: ast.ClassDef):
    """The string a class body assigns to ``name``, or None."""
    for statement in cls.body:
        if isinstance(statement, (ast.Assign, ast.AnnAssign)):
            target = statement.targets[0] if isinstance(statement, ast.Assign) else statement.target
            if getattr(target, "id", None) == "name" and isinstance(statement.value, ast.Constant):
                return statement.value.value
    return None


def dialect_names(root: str = "Operation") -> dict[str, str]:
    """``{name: dotted path of its class}`` of every named subclass of
    ``root`` (``Operation`` or ``TypeAttribute``) the dialects define."""
    found: dict[str, str] = {}
    for path in DIALECTS.glob("*.py"):
        classes = [n for n in _tree(path).body if isinstance(n, ast.ClassDef)]
        bases = {c.name: [b.id for b in c.bases if isinstance(b, ast.Name)] for c in classes}

        def derives(name: str) -> bool:
            return name == root or any(map(derives, bases.get(name, ())))

        for cls in classes:
            if derives(cls.name) and _declared_name(cls) is not None:
                found[_declared_name(cls)] = f"{_module_name(path)}.{cls.name}"
    return found


def unbuilt_operations() -> list[str]:
    # A file reaches another file's class through an import, so what a file
    # reads off its imports is what it uses of other files.
    built: set[str] = set()
    for path in (SRC / "repro").rglob("*.py"):
        _, bound = _bindings(path, _module_name(path), path.name == "__init__.py")
        uses = _ValueUses()
        uses.visit(_tree(path))
        for node in uses.nodes:
            if isinstance(node, ast.Name) and node.id in bound:
                built.add(bound[node.id])
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in bound):
                built.add(f"{bound[node.value.id]}.{node.attr}")
    return sorted(name for name, cls in dialect_names().items() if cls not in built)


def dangling_operation_names() -> list[str]:
    """String constants of ``src/repro`` spelled like an op that does not exist.

    Known spellings are the ``name`` of every class (operations, attributes,
    types); prefixes handed to ``str.startswith`` are not names.
    """
    trees = {path: _tree(path) for path in (SRC / "repro").rglob("*.py")}
    known, prefixes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                known.add(_declared_name(node))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "startswith"):
                prefixes |= {id(arg) for arg in node.args}
    dialects = {name.split(".")[0] for name in dialect_names()}
    spelling = re.compile(r"(%s)(\.[a-z_0-9]+)+(:[a-z]+)?" % "|".join(sorted(dialects)))
    return sorted(
        f"{_module_name(path)}: {node.value!r}"
        for path, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in prefixes and spelling.fullmatch(node.value)
        and node.value.split(":")[0] not in known  # "arith.cmpf:oeq" keys a predicate
    )


def test_every_operation_is_built_by_the_program():
    assert unbuilt_operations() == sorted(UNBUILT)


def test_every_operation_name_in_the_source_exists():
    assert dangling_operation_names() == []


# -- types ----------------------------------------------------------------------
# A dialect type is a class something constructs.  An op building its own
# result type counts, in the dialect file too; a test for the type
# (``isinstance``) or an annotation does not.  A type nothing constructs is the
# type of no value.

def constructed_classes() -> set[str]:
    """The dotted path of every class some call of ``src/repro`` names."""
    called: set[str] = set()
    for path in (SRC / "repro").rglob("*.py"):
        own = _module_name(path)
        _, bound = _bindings(path, own, path.name == "__init__.py")
        for node in ast.walk(_tree(path)):
            callee = node.func if isinstance(node, ast.Call) else None
            if isinstance(callee, ast.Name):
                called.add(bound.get(callee.id, f"{own}.{callee.id}"))
            elif (isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name)
                    and callee.value.id in bound):
                called.add(f"{bound[callee.value.id]}.{callee.attr}")
    return called


def test_every_dialect_type_is_constructed_by_the_program():
    called = constructed_classes()
    assert sorted(name for name, cls in dialect_names("TypeAttribute").items()
                  if cls not in called) == []


# -- the op table -------------------------------------------------------------
# What an ``arith`` op computes is written once, in the op table beside the
# op classes (``dialects/arith.py``'s ``SEMANTICS``), and every consumer reads
# it.  A module that spells many ``"arith.<op>"`` names is restating part of
# that table, so the count per module is a ratchet: it may only shrink, and a
# module that drops spellings records its new count here.  Before the table
# there were 161 such literals in five modules.

#: ``"arith.<op>"`` string literals per module of ``src/repro`` outside
#: ``dialects/arith.py`` (``"arith.cmpf:oeq"`` counts once); a module that is
#: not listed has none.
ARITH_SPELLINGS = {
    "repro.interp.interpreter": 2,  # arith.constant / arith.select structure
    "repro.interp.vectorize": 12,  # index arithmetic kept symbolic (affine)
    "repro.transforms.common.constant_folding": 9,  # x+0, x*1 identities
}

_ARITH_SPELLING = re.compile(r"arith\.[a-z_]+(:[a-z]+)?")


def arith_spellings() -> dict[str, int]:
    counts = {}
    for path in (SRC / "repro").rglob("*.py"):
        if path == DIALECTS / "arith.py":
            continue
        count = sum(
            isinstance(node, ast.Constant) and isinstance(node.value, str)
            and _ARITH_SPELLING.fullmatch(node.value) is not None
            for node in ast.walk(_tree(path))
        )
        if count:
            counts[_module_name(path)] = count
    return counts


def test_arith_ops_are_spelled_outside_the_op_table_no_more_than_recorded():
    assert arith_spellings() == ARITH_SPELLINGS


# -- configuration ------------------------------------------------------------
# ExecutionConfig holds what a caller decides, so every field must be decided
# by some caller of the program: passed by keyword to one of the calls that
# take config fields, somewhere in ``src/`` or ``benchmarks/``.  Tests and
# examples do not count; a field only they set is one the program decides.

CONFIG = SRC / "repro" / "core" / "config.py"

#: The calls that take ExecutionConfig fields as keywords.
_CONFIG_CALLS = {"ExecutionConfig", "Session", "plan", "replace", "Server", "submit"}


def config_fields() -> list[str]:
    cls = next(node for node in _tree(CONFIG).body
               if isinstance(node, ast.ClassDef) and node.name == "ExecutionConfig")
    return [statement.target.id for statement in cls.body
            if isinstance(statement, ast.AnnAssign)]


def unset_config_fields() -> list[str]:
    passed: set[str] = set()
    for directory in (SRC, ROOT / "benchmarks"):
        for path in directory.rglob("*.py"):
            for node in ast.walk(_tree(path)):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(
                    callee, "attr", None)
                if name in _CONFIG_CALLS:
                    passed |= {keyword.arg for keyword in node.keywords}
    return sorted(set(config_fields()) - passed)


def test_every_config_field_is_set_by_the_program():
    assert unset_config_fields() == []


# -- the megakernel printer ---------------------------------------------------
# A megakernel is planned into a schedule, then printed from it.  Only the
# printer plans boxes, prints NumPy and writes span lines; the planner takes
# no ``traced`` flag, so nothing it decides can depend on observability.

CODEGEN = SRC / "repro" / "interp" / "codegen.py"
SCHEDULE = SRC / "repro" / "interp" / "schedule.py"

#: The top-level definitions of ``repro.interp.schedule`` that print.
PRINTER = {"print_python", "_PythonPrinter"}

#: Names only the printer may reference, and the span lines it writes.
_PRINTER_NAMES = {"plan_box", "print_numpy", "_span"}
_SPAN_LINE = re.compile(r"_tracer\.(begin|end)\(")


def printing_outside_the_printer() -> list[str]:
    """Where ``schedule.py`` outside the printer, or ``codegen.py``, plans a
    box, prints NumPy or writes a span line."""
    found = []
    for path in (SCHEDULE, CODEGEN):
        for node in _tree(path).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    or path == SCHEDULE and getattr(node, "name", None) in PRINTER:
                continue
            for inner in ast.walk(node):
                name = inner.id if isinstance(inner, ast.Name) else getattr(inner, "attr", None)
                if name in _PRINTER_NAMES or isinstance(inner, ast.Constant) \
                        and isinstance(inner.value, str) and _SPAN_LINE.search(inner.value):
                    found.append(f"{path.name} line {inner.lineno}: {name or inner.value!r}")
    return found


def test_only_the_megakernel_printer_plans_boxes_and_writes_spans():
    assert printing_outside_the_printer() == []


def test_the_megakernel_planner_takes_no_traced_flag():
    planner = next(node for node in _tree(SCHEDULE).body
                   if isinstance(node, ast.FunctionDef) and node.name == "plan_megakernel")
    arguments = planner.args
    names = [arg.arg for arg in (*arguments.posonlyargs, *arguments.args,
                                 *arguments.kwonlyargs)]
    assert "traced" not in names


# -- the megakernel planner reads the layout, never the buffers ---------------
# ``plan_megakernel`` and ``emit_megakernel`` take the buffer layout
# (``megakernel_signature`` of the arguments, the key kernels are cached by),
# not the arguments, and nothing that plans compares memory: regions are
# compared by buffer index and index ranges.  Then a schedule depends on
# nothing its cache key does not state.

NESTPLAN = SRC / "repro" / "interp" / "nestplan.py"

#: Calls that read an array's memory or cut a region out of one.
_ARRAY_CALLS = {"shares_memory", "view"}


def _top_level(path: Path, kind: type, name: str):
    return next(node for node in _tree(path).body
                if isinstance(node, kind) and node.name == name)


def array_reads_in_the_planner() -> list[str]:
    """Where ``plan_megakernel`` or ``nestplan.py`` touches an array: a call
    of ``shares_memory``/``view``, a mention of ``ndarray``, or an
    ``Access`` that holds its array (or a ``view`` of it) to read."""
    found = []
    planner = _top_level(SCHEDULE, ast.FunctionDef, "plan_megakernel")
    for where, tree in (("plan_megakernel", planner), ("nestplan", _tree(NESTPLAN))):
        for node in ast.walk(tree):
            callee = node.func if isinstance(node, ast.Call) else None
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            if name in _ARRAY_CALLS or getattr(node, "attr", None) == "ndarray" \
                    or getattr(node, "id", None) == "ndarray":
                found.append(f"{where} line {node.lineno}: {name or 'ndarray'}")
    access = _top_level(NESTPLAN, ast.ClassDef, "Access")
    for member in access.body:
        name = getattr(member, "name", None) or getattr(getattr(member, "target", None), "id", None)
        if name in ("array", "view"):
            found.append(f"Access.{name}")
    return found


def test_the_megakernel_planner_reads_no_array():
    assert array_reads_in_the_planner() == []


def test_the_megakernel_is_planned_and_emitted_from_its_layout():
    for path, name in ((SCHEDULE, "plan_megakernel"), (CODEGEN, "emit_megakernel")):
        arguments = _top_level(path, ast.FunctionDef, name).args
        assert [arg.arg for arg in arguments.args[:2]] == ["trace", "layout"], name


# -- the schedule is a plain value ----------------------------------------------
# A schedule pickles, compares and prints without its module: the modules
# that plan and print it import nothing of the IR — no ``repro.ir``, and of
# the dialects the op table alone.

#: The modules that plan and print a schedule.
PLAIN_MODULES = (SCHEDULE, NESTPLAN)


def ir_imports_of_the_schedule() -> list[str]:
    """What a module of :data:`PLAIN_MODULES` imports of ``repro.ir`` or of
    ``repro.dialects`` other than ``arith.SEMANTICS``."""
    found = []
    for path in PLAIN_MODULES:
        for module, names in _imports(path, _module_name(path), False):
            for name in names or ["*"]:
                taken = f"{module}.{name}"
                if module.startswith(("repro.ir", "repro.dialects")) \
                        and taken != "repro.dialects.arith.SEMANTICS":
                    found.append(f"{path.name}: {taken}")
    return found


def test_the_schedule_modules_import_nothing_of_the_ir():
    assert ir_imports_of_the_schedule() == []


# -- one stencil-program builder for every frontend ----------------------------
# Devito, PSyclone and the OEC builder lower into the same kernel shape, so one
# module builds it: the skeleton operations and the table from a frontend's
# operators to arith ops are spelled there and nowhere else under frontends/.

FRONTENDS = SRC / "repro" / "frontends"

#: The operations of a kernel's skeleton, by dialect module.
_SKELETON = {"FuncOp": "func", "ForOp": "scf", "ApplyOp": "stencil", "StoreOp": "stencil"}


def frontend_program_builders() -> dict[str, list[str]]:
    """Per module under ``frontends/``: the skeleton operations it constructs
    and ``"operator table"`` if it maps operators to ``arith`` op classes."""
    found: dict[str, set[str]] = {}
    for path in sorted(FRONTENDS.rglob("*.py")):
        for node in ast.walk(_tree(path)):
            callee = node.func if isinstance(node, ast.Call) else None
            if isinstance(callee, ast.Attribute):  # stencil.ApplyOp(...)
                name, dialect = callee.attr, getattr(callee.value, "id", None)
            else:  # ApplyOp(...), imported by name
                name = getattr(callee, "id", None)
                dialect = _SKELETON.get(name)
            if name in _SKELETON and dialect == _SKELETON[name]:
                found.setdefault(_module_name(path), set()).add(name)
            elif isinstance(node, ast.Dict) and any(
                    isinstance(value, ast.Attribute) and getattr(value.value, "id", None) == "arith"
                    for value in node.values):
                found.setdefault(_module_name(path), set()).add("operator table")
    return {module: sorted(things) for module, things in found.items()}


def test_one_frontend_module_builds_stencil_programs():
    assert len(frontend_program_builders()) <= 1, frontend_program_builders()
