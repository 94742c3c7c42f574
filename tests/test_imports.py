"""Import hygiene of ``src/pwlrotor``: every imported name is used, only
the backend module knows the backend classes, and only lock-step sweeps
load numpy."""
import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pwlrotor"
MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree):
    """Names bound by import statements, with their line numbers."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree):
    """Names read anywhere in the module, plus the entries of ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = sorted(
        "%s (line %d)" % (name, line)
        for name, line in imported_names(tree).items()
        if name not in used
    )
    assert not unused, "%s imports names it never uses: %s" % (path.name, ", ".join(unused))


#: The backend classes; only these modules may name them.
BACKEND_CLASSES = {"RationalBackend", "FloatBackend"}
KNOWS_BACKENDS = {"backend.py", "__init__.py"}


def identifiers(tree):
    """Every identifier a module binds or reads, with its line number."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name, node.lineno
                if alias.asname:
                    yield alias.asname, node.lineno


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.name not in KNOWS_BACKENDS],
    ids=[p.name for p in MODULES if p.name not in KNOWS_BACKENDS],
)
def test_only_the_backend_names_backend_classes(path):
    """Exact-vs-float decisions go through a backend object, never through
    ``isinstance`` on its class."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    named = sorted(
        "%s (line %d)" % (name, line)
        for name, line in identifiers(tree)
        if name in BACKEND_CLASSES
    )
    assert not named, "%s names backend classes: %s" % (path.name, ", ".join(named))


ROOT = SRC.parent.parent
#: Code that reads the public surface for a purpose other than testing it:
#: the package's own modules, the acceptance criteria and the benchmark.
CONSUMERS = (
    [p for p in MODULES if p.name != "__init__.py"]
    + [ROOT / "tests" / "test_acceptance.py"]
    + [p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
)


def read_names(tree):
    """Names and attributes a module reads; bindings do not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_public_name_has_a_consumer():
    """A name in ``__all__`` that only its own unit test reads is surface
    to delete, not to keep."""
    import pwlrotor

    read = set()
    for path in CONSUMERS:
        read.update(read_names(ast.parse(path.read_text(encoding="utf-8"))))
    unread = sorted(set(pwlrotor.__all__) - {"errors", "__version__"} - read)
    assert not unread, "public names no module, criterion or benchmark reads: %s" % (
        ", ".join(unread))


def public_members(cls):
    """Public methods and properties a class defines itself; dataclass
    fields and plain class attributes are data, not methods."""
    for name, attr in vars(cls).items():
        if not name.startswith("_") and (
            inspect.isfunction(attr) or isinstance(attr, (property, classmethod, staticmethod))
        ):
            yield name


def test_every_public_method_has_a_consumer():
    """The guard above for the public methods and properties of the public
    classes, matched by attribute name: a method that only its own unit
    test calls is surface to delete, not to keep.  A method is only ever
    read as an attribute, so a local variable of the same name does not
    count."""
    import pwlrotor

    read = set()
    for path in CONSUMERS:
        read.update(node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    unread = sorted(
        "%s.%s" % (name, member)
        for name in pwlrotor.__all__
        if inspect.isclass(getattr(pwlrotor, name))
        for member in public_members(getattr(pwlrotor, name))
        if member not in read
    )
    assert not unread, "public methods no module, criterion or benchmark reads: %s" % (
        ", ".join(unread))


def top_level_names(tree):
    """Names a module defines at top level: functions, classes, assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def package_reads(tree, own):
    """Names a module reads from the package: imported from it, read as
    ``pr.X`` or ``pwlrotor.X``, or read where they are defined (``own``).
    A local variable or an attribute of another object that shares a
    public name does not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "pwlrotor"
        ):
            yield from (alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name) and node.value.id in ("pr", "pwlrotor")):
            yield node.attr
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in own:
            yield node.id


def test_every_public_name_is_read_through_the_package():
    """The consumer guard above, counting only reads that reach the
    package's own object."""
    import pwlrotor

    read = set()
    for path in CONSUMERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = set(top_level_names(tree)) if path.parent == SRC else set()
        read.update(package_reads(tree, own))
    unread = sorted(set(pwlrotor.__all__) - {"errors", "__version__"} - read)
    assert not unread, "public names no module, criterion or benchmark reads: %s" % (
        ", ".join(unread))


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=120, env=env)


def test_import_loads_neither_numpy_nor_multiprocessing():
    proc = run_python(
        "import sys, pwlrotor, pwlrotor.cli\n"
        "print(sorted(m for m in ('numpy', 'multiprocessing') if m in sys.modules))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


HERMAN_SQRT2 = {"family": "herman_shifted", "params": {"lam": 1.4142135623730951}}
OFFSET_PLANE = {"family": "herman_offset", "params": {"lam": "1/2", "d": "0"}}

#: One small job per subcommand that should never need numpy.
NUMPY_FREE_JOBS = {
    "rho": {"family": HERMAN_SQRT2, "mu": 0.013},
    "conjugacy": {"family": {"family": "refraction", "params": {"alpha": 2, "beta": 1.05}},
                  "mu": 0.0, "q_cap": 64},
    "modelock": {"family": {"family": "herman_offset", "params": {"lam": "1/2", "d": "1/50"}},
                 "p": 1, "q": 2, "bracket": ["-1/20", "1/20"]},
    "pinch": {"family": OFFSET_PLANE, "p": 1, "q": 2, "d_grid": ["-1/50", "0", "1/50"],
              "mu_bracket": ["-1/10", "1/10"]},
    "scaling": {"family": HERMAN_SQRT2, "mu_c": 0.0, "m_fit": 10**5,
                "window": 0.08, "samples": 6},
}


@pytest.mark.parametrize("command", sorted(NUMPY_FREE_JOBS))
def test_subcommand_runs_without_numpy(tmp_path, command):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(NUMPY_FREE_JOBS[command]))
    out = tmp_path / "out"
    proc = run_python(
        "import sys\n"
        "sys.modules['numpy'] = None  # any 'import numpy' now raises ImportError\n"
        "from pwlrotor import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))",
        command, "--config", str(cfg), "-o", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text()
    if command == "scaling":
        assert "residual" in json.loads(out.read_text())
