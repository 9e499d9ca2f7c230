"""Acceptance gate: the twelve headline claims, one test (and one printed
pass/fail line) per criterion, with wall-clock bounds where a criterion
carries one.  The expected values live in takiff.conformance next to the
checks themselves; everything here is exact rational arithmetic, so there
are no numeric tolerances anywhere.

Run as:  pytest tests/test_acceptance.py -v
"""

import time
from pathlib import Path

from takiff import conformance
from takiff.ext import quiver

GOLDEN_DIR = Path(__file__).parent / "golden"


def _criterion(number, name, check, bound=None):
    t0 = time.monotonic()
    ok, detail = check()
    dt = time.monotonic() - t0
    line = "criterion %02d %s: %s [%0.2fs]" % (number, name, detail, dt)
    if not ok:
        print("FAIL " + line)
        raise AssertionError("criterion %02d failed: %s" % (number, detail))
    if bound is not None and dt >= bound:
        print("FAIL " + line)
        raise AssertionError("criterion %02d exceeded its %.0fs budget "
                             "(%.2fs)" % (number, bound, dt))
    print("PASS " + line)


def test_criterion_01_bracket_axioms():
    _criterion(1, "bracket axioms", conformance.check_bracket_axioms,
               bound=1.0)


def test_criterion_02_casimir_central():
    _criterion(2, "casimir centrality", conformance.check_casimir_central,
               bound=1.0)


def test_criterion_03_verma_dimensions():
    _criterion(3, "verma slice dimensions",
               conformance.check_verma_dimensions, bound=5.0)


def test_criterion_04_depth_one_hbar():
    _criterion(4, "depth-one hbar matrix", conformance.check_depth_one_hbar)


def test_criterion_05_simplicity():
    _criterion(5, "simplicity by singular vectors",
               conformance.check_simplicity)


def test_criterion_06_casimir_scalar():
    _criterion(6, "casimir highest-weight scalar",
               conformance.check_casimir_scalar)


def test_criterion_07_multiplicities():
    _criterion(7, "composition multiplicities",
               conformance.check_multiplicities)


def test_criterion_08_uniserial():
    _criterion(8, "uniserial quotients", conformance.check_uniserial,
               bound=2.0)


def test_criterion_09_hasse_n4():
    _criterion(9, "submodule poset at n=4", conformance.check_hasse_n4)


def test_criterion_10_ext_table():
    _criterion(10, "ext dimension table", conformance.check_ext_table,
               bound=5.0)


def _check_golden_quivers():
    missing, stale = [], []
    for name, seed, lo, hi in conformance.QUIVER_WINDOWS:
        for cat in ("O", "Otilde"):
            path = GOLDEN_DIR / ("quiver_%s_%s.dot" % (name, cat))
            if not path.exists():
                missing.append(path.name)
                continue
            got = quiver(seed, lo=lo, hi=hi, category=cat).to_dot() + "\n"
            if got != path.read_text():
                stale.append(path.name)
    if missing:
        return False, "missing golden files: %s" % ", ".join(missing)
    if stale:
        return False, "regenerated output differs: %s" % ", ".join(stale)
    return True, "8 golden quiver files reproduced byte for byte"


def test_criterion_11_golden_quivers():
    _criterion(11, "golden quiver files", _check_golden_quivers)


def test_criterion_12_duality_and_symmetry():
    _criterion(12, "duality and ext symmetry",
               conformance.check_duality_and_symmetry)
