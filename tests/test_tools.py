"""The line counter that simplicity changes report their counts with."""

import contextlib
import importlib.util
import io
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / ("%s.py" % name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_docstrings_comments_and_blanks():
    code_lines = _load("code_lines")
    sample = ROOT / "tests" / "fixtures" / "code_lines_sample.py"
    # import, def, return, class, def, two lines of one statement and two
    # lines of a string that is not a docstring
    assert code_lines.code_lines(sample) == 9


def test_code_lines_total_is_the_sum_of_the_files():
    code_lines = _load("code_lines")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert code_lines.main() == 0
    counts = [int(line.split()[0]) for line in out.getvalue().splitlines()]
    assert len(counts) > 2 and counts[-1] == sum(counts[:-1])
