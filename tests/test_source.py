"""Source-level guards on the package itself."""

import ast
import importlib
import os
import runpy
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "takiff").glob("*.py"))
# run_path compiles the file from source and writes no bytecode next to it
TRACER = runpy.run_path(str(ROOT / "bench" / "tracer.py"))


def test_sources_found():
    assert len(SOURCES) >= 8


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_in_package(path):
    # asserts vanish under python -O: bad input must raise a real exception
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], "%s has assert statements at lines %s" % (path.name,
                                                                 lines)


@pytest.mark.parametrize("span, sites", TRACER["FUNCTIONS"],
                         ids=[name for name, _ in TRACER["FUNCTIONS"]])
def test_tracer_function_sites_resolve(span, sites):
    # the benchmark tracer wraps each name where its callers look it up; a
    # refactor that drops one of these bindings breaks traced runs
    for module, attr in sites:
        fn = getattr(importlib.import_module(module), attr, None)
        assert callable(fn), "%s: %s.%s is gone" % (span, module, attr)


@pytest.mark.parametrize("span, cls_path, method", TRACER["METHODS"],
                         ids=[name for name, _, _ in TRACER["METHODS"]])
def test_tracer_method_sites_resolve(span, cls_path, method):
    module, _, cls = cls_path.rpartition(".")
    owner = getattr(importlib.import_module(module), cls, None)
    assert isinstance(owner, type), "%s: class %s is gone" % (span, cls_path)
    assert callable(vars(owner).get(method)), \
        "%s: %s.%s is gone" % (span, cls_path, method)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floats_in_package(path):
    # exactness is the contract, and the kernels run on ints: a float
    # literal or a float() call would bring binary approximations in
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Constant)
                 and isinstance(node.value, float))
             or (isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name)
                 and node.func.id == "float")]
    assert lines == [], "%s has floats at lines %s" % (path.name, lines)


# names bench/tracer.py wraps at a module, so the module must bind them
# even where it does not call them
TRACED_NAMES = {site for _, sites in TRACER["FUNCTIONS"] for site in sites}


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports_in_package(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {(alias.asname or alias.name).partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = "takiff." + path.stem
    unused = sorted(name for name in imported - used
                    if (module, name) not in TRACED_NAMES)
    assert unused == [], "%s imports %s without using them" % (path.name,
                                                               unused)


_ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_environment_reads_in_package(path):
    # the package's only inputs are its arguments: no os.environ,
    # os.getenv or a bare environ imported from os
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute)
                 and node.attr in _ENV_READERS)
             or (isinstance(node, ast.Name) and node.id in _ENV_READERS)
             or (isinstance(node, ast.ImportFrom)
                 and any(alias.name in _ENV_READERS
                         for alias in node.names))]
    assert lines == [], "%s reads the environment at lines %s" % (path.name,
                                                                 lines)


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_public_names_are_bound(path):
    module = importlib.import_module("takiff." + path.stem)
    unbound = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert unbound == [], "%s lists unbound names %s in __all__" % (
        path.name, unbound)


def test_package_imports_only_public_names():
    # takiff/__init__.py re-exports a name only if its module lists it
    init = ROOT / "src" / "takiff" / "__init__.py"
    unlisted = [(node.module, alias.name)
                for node in ast.parse(init.read_text()).body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names
                if alias.name not in importlib.import_module(
                    "takiff." + node.module).__all__]
    assert unlisted == []


def test_modules_are_built_only_inside_modules_py():
    # TruncatedModule.build owns the block layout; a direct constructor
    # call elsewhere would lay the blocks out by a rule of its own
    callers = [path.name for path in SOURCES if path.name != "modules.py"
               and "TruncatedModule(" in path.read_text()]
    assert callers == []


def _writes_to_actions(target):
    """True if the assignment target is .actions or lies inside it."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(map(_writes_to_actions, target.elts))
    if isinstance(target, ast.Starred):
        return _writes_to_actions(target.value)
    while isinstance(target, ast.Subscript):
        target = target.value
    return isinstance(target, ast.Attribute) and target.attr == "actions"


def _actions_writers(tree):
    """(qualified scope, line) of each assignment to .actions or into
    .actions[...], scopes named class.method as in TruncatedModule.build."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                walk(child, scope + (child.name,))
                continue
            targets = []
            if isinstance(child, ast.Assign):
                targets = child.targets
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                targets = [child.target]
            elif isinstance(child, ast.Delete):
                targets = child.targets
            if any(map(_writes_to_actions, targets)):
                found.append((".".join(scope), child.lineno))
            walk(child, scope)

    walk(tree, ())
    return found


def test_only_truncated_module_writes_actions():
    # a module is what TruncatedModule.build made of its blocks: only the
    # constructor and build set or fill .actions
    allowed = {"TruncatedModule.__init__", "TruncatedModule.build"}
    writers = [(path.name, scope, line) for path in SOURCES
               for scope, line in _actions_writers(ast.parse(path.read_text()))
               if scope not in allowed]
    assert writers == []


def test_actions_writer_finder_sees_every_form():
    code = ("x.actions = {}\n"
            "def f(m):\n"
            "    m.actions[g][n] = b\n"
            "    a, m.actions[g] = 1, {}\n"
            "    m.actions[g][n] += b\n"
            "    del m.actions[g]\n"
            "    m.other[0] = m.actions\n")
    assert _actions_writers(ast.parse(code)) == [
        ("", 1), ("f", 3), ("f", 4), ("f", 5), ("f", 6)]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda p: p.name)
def test_demos_run_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout


def test_tracer_reads_sparse_system_state():
    # the tracer's eliminate wrapper reads _eliminated to skip the calls
    # that return at once, and counts the nonzeros of the row dicts in
    # ``rows`` before and after each elimination; if either were renamed,
    # every rank() and reduce_vector() would open a span of its own and
    # count a solved system's nonzeros again
    from takiff.linalg import SparseSystem

    def row_dicts(system):
        return type(system.rows) is list and all(type(r) is dict
                                                 for r in system.rows)

    s = SparseSystem(3)
    assert s._eliminated is False and s.rows == []
    s.add_row({0: 1, 1: 2})
    s.add_row({0: 2, 2: 1})
    assert s._eliminated is False and row_dicts(s) and len(s.rows) == 2
    s.eliminate()
    assert s._eliminated is True and row_dicts(s) and len(s.rows) == 2
    s.add_row({2: 5})
    assert s._eliminated is False and row_dicts(s) and len(s.rows) == 3
    assert s.rank() == 3
    assert s._eliminated is True and row_dicts(s)


@pytest.mark.parametrize("with_cocycles", [False, True])
def test_stabilize_calls_ext1_through_the_module(monkeypatch, with_cocycles):
    # bench/tracer.py counts windows by wrapping takiff.ext.ext1; a
    # stabilize_ext that solved windows another way would read 0 there
    from takiff import ext

    seen = []
    ext1 = ext.ext1

    def counting(*args, **kwargs):
        seen.append(kwargs.get("with_cocycles", True))
        return ext1(*args, **kwargs)

    monkeypatch.setattr(ext, "ext1", counting)
    ext.stabilize_ext((3, 1), (3, 1), "O", with_cocycles=with_cocycles)
    # three windows, each solved once: two rank only, then the third with
    # cocycles when they are asked for
    assert seen == [False, False, with_cocycles]


def test_rank_only_windows_build_one_system_each(monkeypatch):
    # a rank-only window takes dim B^1 in closed form, so it builds only the
    # cocycle system; in O that system gets no equation of a pair with h,
    # nor, for hbar = 0, of a pair of barred generators, which would be all
    # zero, nor any other all-zero row
    from takiff import ext

    systems, zero_rows = [], []

    class Recording(ext.SparseSystem):
        def __init__(self, ncols):
            super().__init__(ncols)
            systems.append(self)

        def add_row(self, row):
            if not any(row.values()):
                zero_rows.append(row)
            super().add_row(row)

    monkeypatch.setattr(ext, "SparseSystem", Recording)
    half = Fraction(1, 2)
    for lam, mu in [((3, 1), (3, 1)), ((0, 0), (-2, 0)),
                    ((half, 0), (half, 0)), ((3, 0), (1, 0))]:
        systems.clear()
        assert ext.stabilize_ext(lam, mu, "O").dim == 1
        assert len(systems) == 3 and zero_rows == [], (lam, mu)
