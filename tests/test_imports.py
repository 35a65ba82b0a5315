"""Every import in a liegen module is used by that module, and every
top-level name, public or private, and every method and property of a
class is read somewhere in the package or the benchmark.

No linter ships with the project, and a deleted function can leave its
imports behind, or a deleted caller its callee; this reads each module's
syntax tree with the standard ``ast`` module instead.  An integer
argument is decided by one check, ``numeric._check_order``, so no other
module raises ``TypeError`` itself.  Last, the benchmark's tracer must find
every liegen name it patches, and every console script must name a module
that exists.
"""

import ast
import importlib.util
import pathlib
import tomllib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "liegen"
PERFBENCH = ROOT / "perfbench"

#: public names kept for the planned ``liegen run`` command line (ROADMAP,
#: open item 1), which is to be their first caller: ``load_config`` reads a
#: JSON file in the shape of a report block's ``config`` (what
#: ``SuiteConfig.echo`` writes), and ``EMITTERS`` picks the emitter that
#: the command's own ``--format`` names
ORPHAN_ALLOWLIST = {"load_config", "EMITTERS"}


def unused_imports(source: str) -> list[str]:
    """Names an import binds that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read]


def test_guard_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport sys\n"
              "from .x import a, b as c\nsys.exit(a)\n")
    assert unused_imports(source) == ["c (line 4)", "os (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []


def own_type_checks(source: str) -> list[str]:
    """Lines where a module raises ``TypeError`` itself or imports from a
    sibling ``errors`` module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "TypeError":
                found.append((node.lineno, "raise TypeError"))
        elif (isinstance(node, ast.ImportFrom) and node.level
              and node.module == "errors"):
            found.append((node.lineno, "from .errors"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_guard_finds_an_own_type_check():
    source = ("from .errors import RangeError\nfrom .numeric import f\n"
              "def g(n):\n    if not isinstance(n, int):\n"
              "        raise TypeError(f'{n!r}')\n"
              "    if n < 0:\n        raise RangeError(n)\n"
              "    raise TypeError\n")
    assert own_type_checks(source) == ["from .errors (line 1)",
                                       "raise TypeError (line 5)",
                                       "raise TypeError (line 8)"]


def test_only_numeric_raises_a_type_error():
    found = {path.name: own_type_checks(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "numeric.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def _definitions(tree: ast.Module):
    """(name, node) for each name a module binds at top level, public or
    private; dunder names such as ``__version__`` are module metadata and
    are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node


def _reads(node: ast.AST, bare_names: bool = True) -> set[str]:
    """Every name read as an attribute or a string constant
    (``perfbench/tracing.py`` names its patch targets as strings), and as an
    identifier unless ``bare_names`` is false."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and bare_names:
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def orphan_names(modules: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Top-level names of ``modules`` that no code in ``modules`` or
    ``readers`` references outside the name's own definition."""
    trees = {path: ast.parse(source)
             for path, source in {**modules, **readers}.items()}
    reads = [(stmt, _reads(stmt)) for tree in trees.values()
             for stmt in tree.body]
    return sorted(
        f"{name} ({path})" for path in modules
        for name, node in _definitions(trees[path])
        if not any(name in names for stmt, names in reads if stmt is not node))


def test_guard_finds_an_orphan_name():
    modules = {
        "a.py": ("def used():\n    return helper()\n"
                 "def helper():\n    return 1\n"
                 "def recursive():\n    return recursive()\n"
                 "class Named:\n    def m(self) -> 'Named':\n"
                 "        return self\n"
                 "CONST = 1\n_PRIVATE = 2\n_READ = 3\n__version__ = '1'\n"
                 "def _helper():\n    return _READ\n"),
    }
    readers = {"b.py": "import a\na.used()\nspans = ('Named',)\n"}
    assert orphan_names(modules, readers) == ["CONST (a.py)", "_PRIVATE (a.py)",
                                              "_helper (a.py)",
                                              "recursive (a.py)"]
    assert orphan_names(modules, {}) == ["CONST (a.py)", "Named (a.py)",
                                         "_PRIVATE (a.py)", "_helper (a.py)",
                                         "recursive (a.py)", "used (a.py)"]


def _methods(tree: ast.Module):
    """(class name, method name, node) for each method and property of a
    module's top-level classes; dunder methods are called by Python itself
    and are left out."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (node.name.startswith("__")
                                 and node.name.endswith("__"))):
                    yield cls.name, node.name, node


def orphan_methods(modules: dict[str, str],
                   readers: dict[str, str]) -> list[str]:
    """Methods and properties of the classes of ``modules`` whose name no
    code in ``modules`` or ``readers`` reads outside the method itself, as
    an attribute or a string constant: a bare name of the same spelling is
    a local or a parameter, never the method.  A class body counts
    statement by statement, so a method may be read by another method of
    its own class."""
    trees = {path: ast.parse(source)
             for path, source in {**modules, **readers}.items()}
    units = [stmt for tree in trees.values() for top in tree.body
             for stmt in (top.body if isinstance(top, ast.ClassDef) else [top])]
    reads = [(unit, _reads(unit, bare_names=False)) for unit in units]
    return sorted(
        f"{cls}.{name} ({path})" for path in modules
        for cls, name, node in _methods(trees[path])
        if not any(name in names for unit, names in reads if unit is not node))


def test_guard_finds_an_orphan_method():
    modules = {
        "a.py": ("class A:\n"
                 "    def __init__(self):\n        self.x = self._helper()\n"
                 "    def _helper(self):\n        return 1\n"
                 "    def used(self):\n        return 2\n"
                 "    def recursive(self):\n        return self.recursive()\n"
                 "    @property\n    def flag(self):\n        return True\n"
                 "    def named(self):\n        return 3\n"
                 "    @property\n    def x1(self):\n        return 4\n"
                 "def helper():\n    return A().used()\n"
                 "def shadow(x1):\n    x2 = x1\n    return x2\n"),
    }
    readers = {"b.py": "hooks = ('named',)\n"}
    # the parameter and the local named x1 are no reads of A.x1
    assert orphan_methods(modules, readers) == ["A.flag (a.py)",
                                                "A.recursive (a.py)",
                                                "A.x1 (a.py)"]
    assert orphan_methods({"a.py": modules["a.py"].replace(
        "A().used()", "1")}, {}) == ["A.flag (a.py)", "A.named (a.py)",
                                     "A.recursive (a.py)", "A.used (a.py)",
                                     "A.x1 (a.py)"]


def _product_sources() -> tuple[dict[str, str], dict[str, str]]:
    """The package's modules, and the benchmark's as further readers."""
    modules = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = {f"perfbench/{path.name}": path.read_text()
               for path in sorted(PERFBENCH.glob("*.py"))}
    return modules, readers


def product_orphans() -> list[str]:
    """Orphan top-level names of the package, with the package and the
    benchmark as readers, less the allowlist."""
    return [o for o in orphan_names(*_product_sources())
            if o.split(" ")[0] not in ORPHAN_ALLOWLIST]


def test_every_public_name_has_a_reader():
    assert [o for o in product_orphans() if not o.startswith("_")] == []


def test_every_private_name_has_a_reader():
    # a deleted caller must not leave its private helper behind
    assert [o for o in product_orphans() if o.startswith("_")] == []


def test_every_method_has_a_reader():
    assert orphan_methods(*_product_sources()) == []


def test_tracer_finds_every_target():
    # the benchmark's traced runs patch liegen names by string: one that a
    # change inlines or renames is a KeyError here, not only under --trace 1
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from liegen import heisenberg, numeric

    before = (numeric.Polynomial.__dict__["__mul__"], heisenberg.series_exp)
    tracer = tracing.Tracer()
    try:   # uninstall also undoes a partial install
        tracing.install(tracer)
        assert heisenberg.series_exp is not before[1]
    finally:
        tracer.uninstall()
    assert (numeric.Polynomial.__dict__["__mul__"],
            heisenberg.series_exp) == before


def test_every_console_script_has_its_module():
    # an installed command whose module is missing fails on import
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    missing = [f"{name} = {target}" for name, target in scripts.items()
               if importlib.util.find_spec(target.split(":")[0]) is None]
    assert missing == []
