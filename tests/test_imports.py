"""Every package module reads each name it imports, the package reads
every private function and class and every module-level constant it
defines, the package or its scripts read every exported function, and
some call passes every defaulted parameter (no linter ships with the
toolchain, so the scans are tests)."""

import ast
import inspect
import pathlib

import pytest

import degenpde

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "degenpde"


def unused_imports(source):
    """Names bound by the import statements of source that no expression
    reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_scan_flags_names_never_read():
    source = ("import os\nimport numpy as np\nimport a.b\n"
              "from .x import y, z as w\nprint(np.pi, y, a.b)\n")
    assert unused_imports(source) == ["os", "w"]


# __init__ imports to re-export, so its names are read only through __all__
@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_reads_every_imported_name(module):
    assert unused_imports((SRC / module).read_text()) == []


def _names_read(node):
    """Every name the subtree reads: loaded names and attribute names."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)
             and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def unread_private_definitions(sources):
    """Module-level functions and classes named _x (not dunders) in the
    sources, a dict module -> text, that no other top-level statement of
    any of them reads, as sorted 'module.name' strings."""
    defs, reads = [], []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and stmt.name.startswith("_") and not stmt.name.startswith("__")):
                defs.append((module, stmt))
            reads.append((stmt, _names_read(stmt)))
    return sorted(f"{module}.{stmt.name}" for module, stmt in defs
                  if not any(stmt.name in read for other, read in reads if other is not stmt))


def test_private_scan_flags_definitions_never_read():
    sources = {"a": "def _used():\n    pass\n\n\ndef _dead():\n    return _dead()\n"
                    "\n\nclass _Kept:\n    pass\n\n\ndef __getattr__(name):\n    pass\n",
               "b": "import a\nx = a._used()\ny = a._Kept\n"}
    assert unread_private_definitions(sources) == ["a._dead"]


def test_package_reads_every_private_definition():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unread_private_definitions(sources) == []


def unread_constants(sources):
    """Module-level UPPER_CASE names assigned in the sources, a dict
    module -> text, that no other top-level statement of any of them
    reads, as sorted 'module.NAME' strings."""
    defs, reads = [], []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defs += [(module, stmt, n.id) for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name) and n.id.isupper()]
            reads.append((stmt, _names_read(stmt)))
    return sorted(f"{module}.{name}" for module, stmt, name in defs
                  if not any(name in read for other, read in reads if other is not stmt))


def test_constant_scan_flags_constants_never_read():
    sources = {"a": "A = 1\nB = A + 1\n_C: int = 2\nD, E = 3, 4\n"
                    "lower = 5\n__all__ = ['B']\n",
               "b": "import a\nx = a._C\n\n\ndef f():\n    return D\n"}
    assert unread_constants(sources) == ["a.B", "a.E"]


def test_package_reads_every_constant():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unread_constants(sources) == []


def unread_exports(exported, sources):
    """Names in exported that no module of sources, a dict module -> text,
    reads as a loaded name or an attribute, sorted."""
    read = set().union(*(_names_read(ast.parse(source)) for source in sources.values()))
    return sorted(set(exported) - read)


def test_export_scan_flags_names_never_read():
    sources = {"a": "def f():\n    return g(h.k)\n", "b": "import a\nx = a.f\n"}
    assert unread_exports(["f", "g", "k", "m"], sources) == ["m"]


# exported functions that no package module and no script reads, each kept
# for its own reason
UNREAD_EXPORTS_KEPT = {
    # the paper's Schmidt regularizer, documented in the README as library API
    "apply_schmidt_inverse",
    # read only by the benchmark's workload generator; it goes with the next
    # change to the benchmark
    "check_spectral_parameter",
}


def test_every_exported_function_is_read():
    functions = [name for name in degenpde.__all__
                 if inspect.isfunction(getattr(degenpde, name))]
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py") if p.name != "__init__.py"}
    sources.update({f"scripts.{p.stem}": p.read_text()
                    for p in (SRC.parents[1] / "scripts").glob("*.py")})
    assert unread_exports(functions, sources) == sorted(UNREAD_EXPORTS_KEPT)


def unpassed_defaults(package, callers):
    """Defaulted parameters of the functions and methods in package, a dict
    module -> text, that no call in package or in callers, a list of
    texts, passes, as sorted 'module.[Class.]function(name)' strings.  A call
    matches by the name it calls (a class name for __init__; other
    dunders are skipped) and passes a parameter by keyword, by position
    (after self for a method) or through *args or **kwargs."""
    calls = {}
    for source in [*package.values(), *callers]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                star = (any(isinstance(a, ast.Starred) for a in node.args)
                        or any(k.arg is None for k in node.keywords))
                calls.setdefault(name, []).append(
                    (star, len(node.args), {k.arg for k in node.keywords}))
    out = []
    for module, source in package.items():
        tree = ast.parse(source)
        owner = {id(stmt): cls.name for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for stmt in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls, name = owner.get(id(fn)), fn.name
            if cls is not None and name == "__init__":
                name = cls
            elif name.startswith("__"):
                continue
            bound = cls is not None and not any(
                getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            defaulted = [(i - bound, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs,
                                                          fn.args.kw_defaults)
                          if d is not None]
            qualified = f"{module}.{cls + '.' if cls else ''}{fn.name}"
            out += [f"{qualified}({param})" for index, param in defaulted
                    if not any(star or param in keys or (index is not None and npos > index)
                               for star, npos, keys in calls.get(name, ()))]
    return sorted(out)


def test_default_scan_flags_parameters_never_passed():
    sources = {"a": "def f(x, y=1, *, z=2, w=3):\n    pass\n\n\n"
                    "def g(p=0):\n    pass\n\n\n"
                    "class C:\n    def __init__(self, a=1, b=2):\n        pass\n\n"
                    "    def m(self, c=0, d=1):\n        pass\n\n"
                    "    def __eq__(self, other=None):\n        pass\n",
               "b": "import a\na.f(1, 2, w=4)\nargs = ()\na.g(*args)\n"
                    "a.C(5).m(6)\n"}
    assert unpassed_defaults(sources, []) == ["a.C.__init__(b)", "a.C.m(d)", "a.f(z)"]


# the package's own calls count, and so do those of its scripts, tests and
# benchmark
def test_every_defaulted_parameter_is_passed():
    package = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    callers = [p.read_text() for folder in ("scripts", "tests", "perfbench")
               for p in (SRC.parents[1] / folder).rglob("*.py")]
    assert unpassed_defaults(package, callers) == []


def importers_of(module, sources):
    """Modules of sources, a dict module -> text, whose import statements
    name the package module `module` (relative, or under degenpde),
    sorted."""
    def names(path):
        parts = [p for p in path.split(".") if p]
        return parts[1:] if parts[:1] == ["degenpde"] else parts

    out = set()
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                paths = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                paths = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(names(path) == [module] for path in paths):
                out.add(name)
    return sorted(out)


def test_import_scan_finds_every_form():
    sources = {"a": "from .solvers import f\n", "b": "from . import solvers, spaces\n",
               "c": "import degenpde.solvers\n", "d": "from degenpde import solvers\n",
               "e": "from .spaces import solvers_x\nimport solvers2\n",
               "f": "from .reduction import FAMILIES\n"}
    assert importers_of("solvers", sources) == ["a", "b", "c", "d"]


def top_level_names(source):
    """Names the module-level statements of source define or assign."""
    out = set()
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            out.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return out


# the closed-form references check the solvers, so they share no module with
# them, and only the front ends reach the solvers
def test_only_the_front_ends_import_the_solvers():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert importers_of("solvers", sources) == ["__init__", "cli"]
    assert sorted(n for n in top_level_names(sources["solvers"])
                  if n.startswith("oracle_")) == []
