"""Every module-level import is used, the package imports nothing outside
the standard library, every error class is raised, every configuration
constant is imported, and the benchmark tracer binds.

No lint tool is a dependency, so this scans the sources with ``ast``.  A
package ``__init__.py`` is skipped: its imports are re-exports.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src/rescaling", "tests")
                 for p in (ROOT / d).glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = stmt.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        (1, "os"), (2, "b")]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str):
    """The top-level module of every import, at module level or inside a
    function; a relative import names the package, ``rescaling``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("rescaling" if node.level
                      else node.module.split(".")[0])
    return names


def test_scan_finds_imports_at_any_depth():
    assert imported_modules("import os.path\nfrom . import x\n"
                            "from .a.b import c\nfrom json import dumps\n"
                            "def f():\n    import yaml\n") == {
        "os", "rescaling", "json", "yaml"}


def test_package_imports_only_the_standard_library():
    # no runtime dependency: every import names the package or a module of
    # the standard library
    found = set().union(*(imported_modules(p.read_text())
                          for p in (ROOT / "src/rescaling").glob("*.py")))
    assert "importlib" in found
    assert sorted(found - sys.stdlib_module_names - {"rescaling"}) == []


def test_project_declares_no_dependency():
    table = (ROOT / "pyproject.toml").read_text().split("\n[project]\n")[1]
    table = table.split("\n[")[0]
    assert "dependencies = []" in table.splitlines()


def error_classes(source: str):
    """The classes of an errors module that derive from RescalingError."""
    found = {"RescalingError"}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in found for b in stmt.bases):
            found.add(stmt.name)
    return found - {"RescalingError"}


def raised_names(source: str):
    """The names that ``raise X`` or ``raise X(...)`` statements raise."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_scan_finds_error_classes_and_raises():
    assert error_classes("class RescalingError(Exception): pass\n"
                         "class A(RescalingError): pass\n"
                         "class B(A): pass\nclass C(ValueError): pass\n"
                         ) == {"A", "B"}
    assert raised_names("raise A('x')\nraise errors.B\ntry:\n    f()\n"
                        "except C:\n    raise\n") == {"A", "B"}


def test_every_error_class_has_a_raiser():
    package = ROOT / "src/rescaling"
    classes = error_classes((package / "errors.py").read_text())
    raised = set().union(*(raised_names(p.read_text())
                           for p in package.glob("*.py")))
    assert classes and sorted(classes - raised) == []


def assigned_names(source: str):
    """The names that module-level assignments bind."""
    names = set()
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def config_imports(source: str):
    """The names a module imports from its package's ``config``."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[-1] == "config"
            for alias in node.names}


def test_scan_finds_config_constants_and_imports():
    assert assigned_names("A = 1\nB: int = 2\nc, d = 3, 4\n"
                          "def f():\n    E = 5\n") == {"A", "B"}
    assert config_imports("from .config import A\nfrom . import x\n"
                          "from rescaling.config import B\n"
                          "def f():\n    from .config import C\n"
                          ) == {"A", "B", "C"}


def test_every_config_constant_is_imported():
    package = ROOT / "src/rescaling"
    constants = assigned_names((package / "config.py").read_text())
    imported = set().union(*(config_imports(p.read_text())
                             for p in package.glob("*.py")))
    assert constants and sorted(constants - imported) == []


def test_benchmark_tracer_installs_and_uninstalls():
    # bench/tracing.py wraps every function of its SPANNED table at each of
    # its module bindings, and every COUNTED method; a src change that
    # unbinds one makes install() raise
    probe = ("import sys\n"
             "sys.path[:0] = sys.argv[1:]\n"
             "import rescaling.cli\n"
             "from tracing import Tracer\n"
             "tracer = Tracer()\n"
             "tracer.install()\n"
             "tracer.uninstall()\n"
             "print('ok')")
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]
