"""List the statements of src/takiff/ that the package's own traffic never
executes.

The traffic is every command of tests/golden/cli_outputs.json (the README
commands, paper-check among them), both demos, and one seed-3 pass of each
benchmark workload in bench/workloads.py with its answer checks.  A line
trace is installed before takiff is imported, so module and class bodies
count.  Afterwards the tool prints, for each file under src/takiff/, the
statements no line event reached (docstrings are not statements here) and
their count.  A compound statement counts as executed when its header line
or any statement inside it ran.

    python tools/reach.py

It traces only its own process, reads bench/ and writes no file, not even
bytecode caches.  It exits 1 if an operation fails its check.
"""

import sys

sys.dont_write_bytecode = True

import ast  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import runpy  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "takiff"
SEED = 3


def traced(files, fn):
    """(fn(), {file: set of line numbers run}) for the file names given,
    with a line trace on this thread while fn runs."""
    hits = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename in hits else None

    sys.settrace(start)
    try:
        return fn(), hits
    finally:
        sys.settrace(None)


def _quiet(fn, *args):
    """fn(*args) with stdout and stderr captured; (result, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        result = fn(*args)
    return result, out.getvalue()


def replay():
    """Run the traffic; returns the list of failed operations."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import takiff
    import takiff.cli
    import workloads

    failures = []
    golden = json.loads((ROOT / "tests" / "golden" /
                         "cli_outputs.json").read_text())
    for rec in golden:
        code, out = _quiet(takiff.cli.main, list(rec["argv"]))
        if (code, out) != (rec["exit"], rec["stdout"]):
            failures.append("golden: %s" % " ".join(rec["argv"]))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        _quiet(runpy.run_path, str(demo), None, "__main__")
    for name, make in workloads.WORKLOADS.items():
        for op in make(SEED, takiff):
            code, out = _quiet(takiff.cli.main, list(op.argv))
            try:
                if code != 0:
                    raise workloads.WrongAnswer("exit status %r" % (code,))
                op.check(out, takiff)
            except workloads.WrongAnswer as exc:
                failures.append("%s: %s: %s" % (name, " ".join(op.argv),
                                                 exc))
    return failures


def _docstrings(tree):
    """The docstring expressions of the module, classes and functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(first)
    return out


def _children(stmt):
    """The statements directly inside a compound statement."""
    for name in ("body", "orelse", "finalbody", "handlers", "cases"):
        for child in getattr(stmt, name, ()):
            if isinstance(child, (ast.excepthandler, ast.match_case)):
                yield from child.body
            else:
                yield child


def unreached(path, hits):
    """[(line, statement)] of the statements in the file at path whose
    lines hits never includes."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    skip = _docstrings(tree)
    missed = []

    def ran(stmt):
        """Whether stmt ran; records every statement under it that did
        not."""
        start = min([stmt.lineno] + [d.lineno for d in
                                     getattr(stmt, "decorator_list", ())])
        body = list(_children(stmt))
        end = body[0].lineno - 1 if body else stmt.end_lineno
        inner = [ran(child) for child in body]
        hit = any(n in hits for n in range(start, max(end, start) + 1))
        if not (hit or any(inner)) and stmt not in skip:
            missed.append((stmt.lineno, lines[stmt.lineno - 1].strip()))
        return hit or any(inner)

    for stmt in tree.body:
        ran(stmt)
    return sorted(missed)


def main():
    paths = sorted(PACKAGE.glob("*.py"))
    failures, hits = traced([str(p) for p in paths], replay)
    total = 0
    for path in paths:
        missed = unreached(path, hits[str(path)])
        total += len(missed)
        print("%s: %d statements never executed"
              % (path.relative_to(ROOT), len(missed)))
        for line, text in missed:
            print("  %5d  %s" % (line, text))
    print("total: %d statements never executed" % total)
    for msg in failures:
        print("FAILED %s" % msg, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
