"""Exact rational linear algebra: RREF, kernels, row spaces, and the sparse
echelon solver used by the cocycle systems."""

import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

from takiff.algebra import E, EnvelopingElement, straighten_word
from takiff.linalg import (Mat, RowSpace, SparseSystem, integer_product_sum,
                           kernel_basis, rref, solve_columns)
from takiff.modules import verma
from takiff.structure import submodule


def M(rows):
    return Mat(len(rows), len(rows[0]), rows)


def rank(mat):
    """The number of RREF pivots: the dense rank the sparse one is checked
    against."""
    return len(rref(mat)[1])


def test_rref_small():
    rows, pivots = rref(M([[2, 4], [1, 2]]))
    assert pivots == [0]
    assert rows == [[Fraction(1), Fraction(2)]]


def test_integer_row_lists_give_fractions():
    # 2 / 1 would be the float 2.0: int rows are read as exact rationals
    rows, pivots = rref(M([[2, 1], [4, 2]]))
    assert rows == [[1, Fraction(1, 2)]] and pivots == [0]
    assert _entries_are_fractions(rows)
    assert kernel_basis(M([[2, 1]])) == [[Fraction(-1, 2), 1]]
    assert _entries_are_fractions(kernel_basis(M([[2, 1]])))
    assert rref(Mat(0, 0)) == ([], []) and kernel_basis(Mat(0, 0)) == []


def test_rank_and_kernel():
    A = M([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(A) == 2
    ker = kernel_basis(A)
    assert len(ker) == 1
    v = ker[0]
    assert A.matvec(v) == [Fraction(0)] * 3


def test_kernel_identity_is_trivial():
    assert kernel_basis(Mat.identity(4)) == []


def test_solve_columns_and_inconsistency():
    A = M([[1, 0], [0, 1], [1, 1]])
    B = M([[1], [2], [3]])
    X = solve_columns(A, B)
    assert (A * X) == B
    with pytest.raises(ValueError):
        solve_columns(A, M([[1], [2], [4]]))


@pytest.mark.parametrize("a_rows, b_rows, shapes", [
    ([[1, 0], [0, 1], [1, 1]], [[1], [2]], "A is 3x2 but B is 2x1"),
    ([[1, 0], [0, 1]], [[1], [2], [3]], "A is 2x2 but B is 3x1"),
])
def test_solve_columns_rejects_a_row_count_mismatch(a_rows, b_rows, shapes):
    # rows must not be paired off silently, dropping the longer side's tail
    with pytest.raises(ValueError, match=shapes):
        solve_columns(M(a_rows), M(b_rows))


def test_matmul_and_transpose():
    A = M([[1, 2], [3, 4]])
    B = M([[0, 1], [1, 0]])
    assert (A * B).rows == [[Fraction(2), Fraction(1)],
                            [Fraction(4), Fraction(3)]]
    assert A.transpose().rows == [[Fraction(1), Fraction(3)],
                                  [Fraction(2), Fraction(4)]]


@pytest.mark.parametrize("op", [
    lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b])
def test_shape_mismatch_raises_value_error(op):
    with pytest.raises(ValueError, match="2x2 . 3x3"):
        op(Mat.identity(2), Mat.identity(3))


def test_matvec_and_constructor_check_shapes():
    with pytest.raises(ValueError, match="2x2 \\* vector of length 3"):
        Mat.identity(2).matvec([Fraction(1)] * 3)
    with pytest.raises(ValueError, match="Mat\\(2, 2\\)"):
        Mat(2, 2, [[1, 2], [3]])
    with pytest.raises(ValueError, match="Mat\\(3, 2\\)"):
        Mat(3, 2, [[1, 2], [3, 4]])


def test_shape_checks_survive_python_O():
    # assert statements vanish under -O; the checks must not
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("from takiff.linalg import Mat\n"
            "try:\n"
            "    Mat.identity(2) + Mat.identity(3)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "shape mismatch: 2x2 + 3x3"


def test_rowspace_is_canonical():
    vecs = [[Fraction(x) for x in v]
            for v in ([1, 2, 0], [0, 0, 3], [1, 2, 3])]
    a = RowSpace(3)
    b = RowSpace(3)
    for v in vecs:
        a.add(v)
    for v in reversed(vecs):
        b.add(v)
    assert a.dim() == b.dim() == 2
    assert a.rows == b.rows
    assert a.contains([Fraction(2), Fraction(4), Fraction(-3)])
    assert not a.contains([Fraction(0), Fraction(1), Fraction(0)])
    assert a.contains_space(b) and b.contains_space(a)


def test_rowspace_add_reports_growth():
    rs = RowSpace(2)
    assert rs.add([Fraction(1), Fraction(1)])
    assert not rs.add([Fraction(2), Fraction(2)])


_SCALAR_ENTRIES = {
    "straighten_word": lambda x: straighten_word((E,), x),
    "EnvelopingElement": lambda x: EnvelopingElement({(0, 0, 0, 0, 1, 0): x}),
    "Mat": lambda x: Mat(1, 1, [[x]]).rows[0][0],
    "RowSpace.add": lambda x: RowSpace(2).add([x, 1]),
    "submodule": lambda x: submodule(verma((2, 0), 2), [(1, [x, 1])]).dims,
}


@pytest.mark.parametrize("bad", [0.1, True])
@pytest.mark.parametrize("entry", sorted(_SCALAR_ENTRIES))
def test_scalar_entries_refuse_floats_and_booleans(entry, bad):
    # 0.1 used to become its binary fraction 3602879701896397/2^55, and
    # True the number 1; ints, Fractions and 'p/q' strings stay exact
    call = _SCALAR_ENTRIES[entry]
    with pytest.raises(ValueError, match="got %r" % bad):
        call(bad)
    assert call(Fraction(1, 10)) == call("1/10")
    assert call(1) == call(Fraction(1)) == call("1")


def test_rowspace_keeps_int_and_float_input_exact():
    # ints and 'p/q' strings are read exactly; a float is refused, so no
    # binary fraction enters the space
    rs = RowSpace(3)
    assert rs.add([2, 1, 0])
    with pytest.raises(ValueError, match="got 0.5"):
        rs.add([0, 0.5, Fraction(3, 2)])
    assert rs.add([0, "1/2", Fraction(3, 2)])
    assert rs.rows == [[1, 0, Fraction(-3, 2)], [0, 1, 3]]
    assert all(type(x) is Fraction for row in rs.rows for x in row)
    # each read builds new rows: writing into one leaves the space as it was
    rs.rows[0][2] = 5
    rs.rows[1][0] = 5
    assert rs.rows == [[1, 0, Fraction(-3, 2)], [0, 1, 3]]
    assert rs.contains([4, "5/2", "3/2"]) and not rs.contains([0, 0, 1])


# ---------------------------------------------------------------------------
# sparse vs dense agreement on random systems

def _random_rows(rng, m, n):
    return [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
             if rng.random() < 0.5 else Fraction(0) for _ in range(n)]
            for _ in range(m)]


def _int_row(row):
    """A dense row as the equation SparseSystem.add_row takes: its
    nonzeros times the lcm of their denominators, as ints."""
    return _int_multiple({c: v for c, v in enumerate(row) if v})


def test_sparse_matches_dense_on_random_systems():
    rng = random.Random(7)
    for _ in range(80):
        m, n = rng.randrange(1, 12), rng.randrange(1, 12)
        rows = _random_rows(rng, m, n)
        sysm = SparseSystem(n)
        for r in rows:
            sysm.add_row(_int_row(r))
        dense = M(rows)
        assert sysm.rank() == rank(dense)
        ker = sysm.nullspace_basis()
        assert len(ker) == len(kernel_basis(dense))
        for v in ker:
            assert all(sum(a * b for a, b in zip(row, v)) == 0
                       for row in rows)


def _dense_normal_form(rref_rows, pivots, vec):
    v = list(vec)
    for row, p in zip(rref_rows, pivots):
        if v[p]:
            c = v[p]
            v = [a - c * b for a, b in zip(v, row)]
    return v


def _rank_deficient_rows(rng, m, n, r):
    """m rows spanning at most r dimensions: combinations of r random rows,
    with some rows repeated verbatim."""
    base = _random_rows(rng, r, n)
    rows = []
    while len(rows) < m:
        if rows and rng.random() < 0.3:
            rows.append(list(rng.choice(rows)))
        else:
            coefs = [rng.randrange(-2, 3) for _ in base]
            rows.append([sum((c * b[j] for c, b in zip(coefs, base)),
                             Fraction(0)) for j in range(n)])
    return rows


@pytest.mark.parametrize("m,n,r", [
    (3, 9, None), (9, 3, None), (7, 7, None), (12, 10, None),
    (8, 8, 3), (10, 6, 2), (6, 12, 4), (5, 5, 1)])
def test_sparse_results_do_not_depend_on_pivot_rows(m, n, r):
    # the sparse and dense engines pick different pivot rows, and row order
    # changes which row wins a tie; kernel basis and reduced vectors agree
    # entry for entry anyway
    rng = random.Random(1000 * m + n)
    for _ in range(25):
        rows = (_random_rows(rng, m, n) if r is None
                else _rank_deficient_rows(rng, m, n, r))
        dense = M(rows)
        ker = kernel_basis(dense)
        rref_rows, pivots = rref(dense)
        probes = _random_rows(rng, 4, n) + rows[:2]
        for order in (rows, rows[::-1], rng.sample(rows, len(rows))):
            sysm = SparseSystem(n)
            for row in order:
                sysm.add_row(_int_row(row))
            assert sysm.nullspace_basis() == ker
            # the lazy form yields the same vectors in the same order
            assert list(sysm.kernel_vectors()) == ker
            for v in probes:
                assert sysm.reduce_vector(v) == \
                    _dense_normal_form(rref_rows, pivots, v)


def test_kernel_vectors_are_built_on_demand():
    sysm = SparseSystem(4)
    sysm.add_row({0: 1, 1: 1})
    vectors = sysm.kernel_vectors()
    assert next(vectors) == [-1, 1, 0, 0]
    assert list(vectors) == [[0, 0, 1, 0], [0, 0, 0, 1]]


# ---------------------------------------------------------------------------
# the integer product that check_relations runs on

def _sparse_int_rows(mat):
    return [[(j, int(x)) for j, x in enumerate(row) if x] for row in mat.rows]


@pytest.mark.parametrize("seed", range(10))
def test_integer_product_sum_matches_mat_products(seed):
    rng = random.Random(seed)
    p, q = rng.randrange(0, 5), rng.randrange(0, 5)

    def rand(nrows, ncols):
        return Mat(nrows, ncols, [[rng.choice([0, 0, 0, 1, -1, 2, 5])
                                   for _ in range(ncols)]
                                  for _ in range(nrows)])

    terms, want = [], Mat.zeros(p, q)
    for _ in range(rng.randrange(0, 4)):
        scale, mid = rng.choice([1, -1, 3, -6]), rng.randrange(0, 5)
        left, right = rand(p, mid), rand(mid, q)
        terms.append((scale, _sparse_int_rows(left), _sparse_int_rows(right)))
        want = want + left * right * scale
    ident = rand(p, q)
    terms.append((-2, _sparse_int_rows(ident), None))
    terms.append((5, (), None))  # an empty left factor adds nothing
    want = want - ident * 2
    got = integer_product_sum(p, q, terms)
    assert got == want.rows
    assert all(type(x) is int for row in got for x in row)


def test_sparse_reduce_vector_zeroes_row_space():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randrange(2, 10)
        rows = _random_rows(rng, rng.randrange(1, 8), n)
        sysm = SparseSystem(n)
        for r in rows:
            sysm.add_row(_int_row(r))
        for r in rows:
            assert all(x == 0 for x in sysm.reduce_vector(r))
        # combinations too
        if len(rows) >= 2:
            combo = [3 * a - 2 * b for a, b in zip(rows[0], rows[1])]
            assert all(x == 0 for x in sysm.reduce_vector(combo))


def test_sparse_reduce_vector_keeps_complement():
    sysm = SparseSystem(3)
    sysm.add_row({0: 1, 1: 1})
    red = sysm.reduce_vector([Fraction(0), Fraction(2), Fraction(5)])
    # pivot column 0 already zero; nothing to do
    assert red == [Fraction(0), Fraction(2), Fraction(5)]
    red = sysm.reduce_vector([Fraction(1), Fraction(0), Fraction(1)])
    assert red[0] == 0


def test_sparse_rank_with_duplicate_rows():
    sysm = SparseSystem(4)
    for _ in range(3):
        sysm.add_row({0: 1, 2: 2})
    sysm.add_row({1: 5})
    assert sysm.rank() == 2
    assert len(sysm.nullspace_basis()) == 2


def test_sparse_empty_system():
    sysm = SparseSystem(3)
    assert sysm.rank() == 0
    assert len(sysm.nullspace_basis()) == 3


@pytest.mark.parametrize("col", [-1, 3])
def test_add_row_rejects_a_column_outside_the_system(col):
    # a negative column would otherwise index the column list from its end
    sysm = SparseSystem(3)
    with pytest.raises(ValueError, match=r"column %d is not an int in 0\.\.2"
                       % col):
        sysm.add_row({0: 1, col: 2})
    assert sysm.rows == []


@pytest.mark.parametrize("col", [1.0, Fraction(1), "1", True, None])
def test_add_row_rejects_a_column_that_is_not_an_int(col):
    # a float key used to be accepted, and the next rank() failed with a
    # TypeError deep inside eliminate
    sysm = SparseSystem(3)
    with pytest.raises(ValueError, match=r"column %s is not an int"
                       % re.escape(repr(col))):
        sysm.add_row({0: 1, col: 2})
    assert sysm.rows == [] and sysm.rank() == 0


@pytest.mark.parametrize("vec", [[1, 2], [1, 2, 3, 4], []])
def test_reduce_vector_rejects_a_vector_of_the_wrong_length(vec):
    # [1, 2] used to come back as [0, 1], and the extra entries of
    # [1, 2, 3, 4] passed through untouched
    sysm = SparseSystem(3)
    sysm.add_row({0: 1, 1: 1})
    with pytest.raises(ValueError, match="length %d for a system of 3"
                       % len(vec)):
        sysm.reduce_vector(vec)


def test_sparse_input_checks_survive_python_O():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("from takiff.linalg import SparseSystem\n"
            "s = SparseSystem(3)\n"
            "for call, arg in ((s.add_row, {1.0: 1}), (s.add_row, {3: 1}),\n"
            "                  (s.reduce_vector, [1, 2])):\n"
            "    try:\n"
            "        call(arg)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "row column 1.0 is not an int in 0..2",
        "row column 3 is not an int in 0..2",
        "vector of length 2 for a system of 3 columns"]


def _only_ints(sysm):
    return all(type(v) is int for r in sysm.rows for v in r.values())


def _normalized(sysm):
    """The echelon rows as Fractions, each pivot row divided by its entry
    at its pivot."""
    leads = {i: sysm.rows[i][c] for c, i in sysm.pivot_of_col.items()}
    return [{c: Fraction(v, leads[i]) for c, v in r.items()}
            for i, r in enumerate(sysm.rows)]


def test_rows_hold_only_ints():
    sysm = SparseSystem(3)
    sysm.add_row({0: 2, 1: 4, 2: 0})
    # a coefficient that is not an int is refused, and the row is not kept
    for bad in (Fraction(1, 3), Fraction(2), 0.5, True):
        with pytest.raises(ValueError, match=r"coefficient %s at column 2 "
                           r"is not an int" % re.escape(repr(bad))):
            sysm.add_row({0: 2, 2: bad})
    sysm.add_row({0: 4, 2: 6})
    # each row is divided by its content, and zeros are dropped
    assert sysm.rows == [{0: 1, 1: 2}, {0: 2, 2: 3}]
    assert _only_ints(sysm)
    assert sysm.rank() == 2
    assert sysm.rows == [{0: 1, 1: 2}, {1: -4, 2: 3}]
    assert _only_ints(sysm)
    assert _normalized(sysm) == [{0: 1, 1: 2}, {1: 1, 2: Fraction(-3, 4)}]
    # a row added after eliminate joins the echelon rows, and the next
    # query eliminates them together
    sysm.add_row({2: 7})
    assert sysm.rows[2] == {2: 1} and _only_ints(sysm)
    assert sysm.rank() == 3
    assert sysm.rows == [{0: 1, 1: 2}, {1: -4, 2: 3}, {2: 1}]
    assert _only_ints(sysm)


def test_add_row_after_eliminate_is_not_ignored():
    sysm = SparseSystem(2)
    sysm.add_row({0: 1})
    assert sysm.rank() == 1
    sysm.add_row({1: 1})
    assert sysm.rank() == 2
    assert sysm.nullspace_basis() == []


def test_add_row_after_eliminate_matches_dense():
    rng = random.Random(5)
    for _ in range(30):
        m, n = rng.randrange(1, 8), rng.randrange(1, 9)
        rows = _random_rows(rng, m + rng.randrange(1, 4), n)
        sysm = SparseSystem(n)
        for row in rows[:m]:
            sysm.add_row(_int_row(row))
        sysm.rank()
        for row in rows[m:]:
            sysm.add_row(_int_row(row))
        dense = M(rows)
        rref_rows, pivots = rref(dense)
        assert sysm.rank() == len(pivots)
        assert sysm.nullspace_basis() == kernel_basis(dense)
        for v in _random_rows(rng, 3, n):
            assert sysm.reduce_vector(v) == \
                _dense_normal_form(rref_rows, pivots, v)


# ---------------------------------------------------------------------------
# the integer sparse elimination against a plain Fraction reference

def _reference_echelon(ncols, rows):
    """Fewest-nonzeros, lowest-index elimination in plain Fractions: the
    rows afterwards ({} unless a pivot row, pivot rows with 1 at the pivot)
    and the pivot row of each pivot column."""
    rows = [dict(r) for r in rows]
    pivot_of_col = {}
    for col in range(ncols):
        live = [i for i, r in enumerate(rows)
                if col in r and i not in pivot_of_col.values()]
        if not live:
            continue
        best = min(live, key=lambda i: (len(rows[i]), i))
        pivot_of_col[col] = best
        piv = rows[best]
        for i in live:
            if i != best:
                f = rows[i][col] / piv[col]
                for c, v in piv.items():
                    x = rows[i].get(c, 0) - f * v
                    if x:
                        rows[i][c] = x
                    else:
                        rows[i].pop(c, None)
    for col, i in pivot_of_col.items():
        lead = rows[i][col]
        rows[i] = {c: v / lead for c, v in rows[i].items()}
    return rows, pivot_of_col


# leads of either sign that divide (1, 2) and do not divide (3, 4/3) the
# entries they eliminate, over mixed denominators
_ENTRIES = [Fraction(x) for x in
            (1, -1, 2, -2, 3, -3, 6, -6, "1/2", "-1/2", "2/3", "-4/3", "5/6")]


def _random_sparse_rows(rng, m, n):
    """m rows over n columns; about a third of the columns stay all zero,
    and some rows repeat an earlier one, verbatim or rescaled."""
    cols = rng.sample(range(n), max(1, 2 * n // 3))
    rows = []
    while len(rows) < m:
        if rows and rng.random() < 0.25:
            k = rng.choice(_ENTRIES)
            rows.append({c: k * v for c, v in rng.choice(rows).items()})
        else:
            row = {c: rng.choice(_ENTRIES) for c in cols
                   if rng.random() < 0.4}
            if row:
                rows.append(row)
    return rows


def _assert_same_echelon(sysm, rows):
    want_rows, want_pivots = _reference_echelon(sysm.ncols, rows)
    assert sysm.pivot_of_col == want_pivots
    assert _only_ints(sysm)
    assert len(sysm.rows) == len(want_rows)
    assert _normalized(sysm) == want_rows


def _int_multiple(row):
    """The row times the lcm of its denominators, with int entries."""
    den = lcm(*[v.denominator for v in row.values()])
    return {c: int(v * den) for c, v in row.items()}


@pytest.mark.parametrize("m,n", [(4, 4), (8, 5), (5, 9), (12, 12), (20, 8)])
def test_sparse_eliminate_matches_fraction_reference(m, n):
    # each row goes in as an int multiple of itself, the form the Ext
    # assembly produces; the reference eliminates the rows as drawn, and
    # the echelon is the same
    rng = random.Random(100 * m + n)
    for _ in range(40):
        rows = _random_sparse_rows(rng, m, n)
        extra = _random_sparse_rows(rng, rng.randrange(1, 4), n)
        sysm = SparseSystem(n)
        for row in rows:
            sysm.add_row(_int_multiple(row))
        assert _only_ints(sysm)
        sysm.eliminate()
        _assert_same_echelon(sysm, rows)
        # add_row after eliminate: the echelon rows plus the new ones; the
        # reference divides, so it gets them as Fractions
        echelon = [{c: Fraction(v) for c, v in r.items()} for r in sysm.rows]
        for row in extra:
            sysm.add_row(_int_multiple(row))
        assert _only_ints(sysm)
        sysm.eliminate()
        _assert_same_echelon(sysm, echelon + extra)


# ---------------------------------------------------------------------------
# the zero-skipping dense kernel against naive references

def _naive_rref(rows, ncols):
    """Gauss-Jordan on every entry, first nonzero row as pivot; the RREF of
    a matrix is unique, so any pivot rule gives the same rows."""
    rows = [list(r) for r in rows]
    out, pivots = [], []
    for col in range(ncols):
        i = next((i for i, r in enumerate(rows) if r[col] != 0), None)
        if i is None:
            continue
        piv = rows.pop(i)
        piv = [x / piv[col] for x in piv]
        rows = [[x - r[col] * y for x, y in zip(r, piv)] for r in rows]
        out = [[x - r[col] * y for x, y in zip(r, piv)] for r in out]
        out.append(piv)
        pivots.append(col)
    return out, pivots


def _sparse_fraction_rows(rng, m, n):
    density = rng.choice([0.0, 0.2, 0.5, 1.0])
    return [[Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
             if rng.random() < density else Fraction(0) for _ in range(n)]
            for _ in range(m)]


def _entries_are_fractions(rows):
    return all(type(x) is Fraction for r in rows for x in r)


def _shares_a_row(result_rows, *operands):
    held = {id(r) for op in operands for r in op}
    return any(id(r) in held for r in result_rows)


def copy_mat(mat):
    """A copy of mat that shares no row with it (the constructor copies)."""
    return Mat(mat.nrows, mat.ncols, mat.rows)


def test_dense_kernel_matches_naive_reference():
    rng = random.Random(2024)
    shapes = [(0, 3), (3, 0), (0, 0), (1, 1)] + [
        (rng.randrange(1, 7), rng.randrange(1, 7)) for _ in range(60)]
    for m, n in shapes:
        a_rows = _sparse_fraction_rows(rng, m, n)
        b_rows = _sparse_fraction_rows(rng, m, n)
        p = rng.randrange(0, 6)
        c_rows = _sparse_fraction_rows(rng, n, p)
        # the public constructor coerces ints given from outside
        A = Mat(m, n, [[int(x) if x.denominator == 1 else x for x in r]
                       for r in a_rows])
        assert A.rows == a_rows and _entries_are_fractions(A.rows)
        B, C = Mat(m, n, b_rows), Mat(n, p, c_rows)
        vec = _sparse_fraction_rows(rng, 1, n)[0]
        results = [
            (A + B, [[x + y for x, y in zip(r, s)]
                     for r, s in zip(a_rows, b_rows)]),
            (A - B, [[x - y for x, y in zip(r, s)]
                     for r, s in zip(a_rows, b_rows)]),
            (A * C, [[sum((r[k] * c_rows[k][j] for k in range(n)),
                          Fraction(0)) for j in range(p)] for r in a_rows]),
            (A.transpose(), [[a_rows[i][j] for i in range(m)]
                             for j in range(n)]),
            (copy_mat(A), a_rows),
        ]
        for s in (0, 1, -1, 3, Fraction(-2, 3)):
            want = [[x * s for x in r] for r in a_rows]
            results.append((A * s, want))
        for got, want in results:
            assert got.rows == want
            assert len(got.rows) == got.nrows
            assert all(len(r) == got.ncols for r in got.rows)
            assert _entries_are_fractions(got.rows)
            assert not _shares_a_row(got.rows, A.rows, B.rows, C.rows)
        mv = A.matvec(vec)
        assert mv == [sum((x * y for x, y in zip(r, vec)), Fraction(0))
                      for r in a_rows]
        assert all(type(x) is Fraction for x in mv)
        assert A.is_zero() == all(x == 0 for r in a_rows for x in r)

        snapshot = [list(r) for r in a_rows]
        rows, pivots = rref(A)
        assert (rows, pivots) == _naive_rref(a_rows, n)
        assert _entries_are_fractions(rows)
        assert not _shares_a_row(rows, A.rows)
        assert A.rows == snapshot

        rs = RowSpace(n)
        added = []
        for v in a_rows + b_rows:
            before = rs.dim()
            assert rs.contains(v) == \
                (len(_naive_rref(added + [v], n)[1]) == before)
            grew = rs.add(v)
            added.append(v)
            want_rows, want_pivots = _naive_rref(added, n)
            assert grew == (len(want_pivots) > before)
            assert rs.rows == want_rows and rs.pivots == want_pivots
            assert _entries_are_fractions(rs.rows)
            assert not _shares_a_row(rs.rows, a_rows, b_rows)
        assert A.rows == snapshot


def _as_input(rng, row):
    """The rational row as ints, Fractions or 'p/q' strings: an int only
    for an integral entry."""
    kind = rng.choice(["int", "fraction", "string", "mixed"])
    out = []
    for x in row:
        k = kind if kind != "mixed" else rng.choice(["int", "fraction",
                                                     "string"])
        if k == "int" and x.denominator == 1:
            out.append(int(x))
        elif k == "string":
            out.append(str(x))
        else:
            out.append(x)
    return out


def _cleared(row):
    """A positive integer multiple of a rational row."""
    den = 1
    for x in row:
        den = den * x.denominator // gcd(den, x.denominator)
    return [int(x * den) for x in row]


@pytest.mark.parametrize("seed", range(4))
def test_integer_rowspace_matches_naive_reference(seed):
    # both entry points, large coefficients and ints, Fractions and strings:
    # after every insertion the Fraction RREF, the pivots and membership
    # equal the naive Gauss-Jordan's
    rng = random.Random(seed)
    big = [1, 10 ** 30, 2 ** 64 + 1]
    for _ in range(25):
        m, n = rng.randrange(1, 9), rng.randrange(1, 8)
        size = rng.choice(big)
        rows = []
        for _ in range(m):
            if rows and rng.random() < 0.3:  # a dependent row
                a, b = rng.choice(rows), rng.choice(rows)
                c = Fraction(rng.randrange(-size, size + 1),
                             rng.randrange(1, 9))
                rows.append([x + c * y for x, y in zip(a, b)])
            else:
                rows.append([Fraction(rng.randrange(-size, size + 1),
                                      rng.choice([1, 2, 4, 3, size]))
                             if rng.random() < 0.6 else Fraction(0)
                             for _ in range(n)])
        public, integer = RowSpace(n), RowSpace(n)
        added = []
        for row in rows:
            want_before = _naive_rref(added, n)[1]
            given = _as_input(rng, row)
            ints = _cleared(row)
            snapshot = list(ints)
            in_span = len(_naive_rref(added + [row], n)[1]) == \
                len(want_before)
            assert public.contains(given) == integer.contains(ints) == in_span
            assert public.add(given) == integer._add_integer(ints) == \
                (not in_span)
            assert ints == snapshot
            added.append(row)
            want_rows, want_pivots = _naive_rref(added, n)
            for space in (public, integer):
                assert space.rows == want_rows
                assert space.pivots == want_pivots and space.dim() == \
                    len(want_pivots)
                assert _entries_are_fractions(space.rows)
            assert public.contains_space(integer)
            assert integer.contains_space(public)
        smaller = RowSpace(n)
        for row in added[:-1]:
            smaller.add(row)
        assert public.contains_space(smaller)
        assert smaller.contains_space(public) == \
            (smaller.dim() == public.dim())


def test_rowspace_rejects_a_vector_of_the_wrong_length():
    rs = RowSpace(3)
    for call in (rs.add, rs.contains):
        with pytest.raises(ValueError, match="length 2 for a space of 3"):
            call([1, 2])


def test_kernel_and_solve_match_naive_reference():
    # kernel_basis and solve_columns read the RREF that RowSpace builds;
    # check both against the naive Gauss-Jordan on random shapes, including
    # empty and rank-deficient ones
    rng = random.Random(606)
    shapes = [(0, 0, 0), (0, 3, 2), (3, 0, 1), (2, 3, 0), (4, 4, 4)] + [
        (rng.randrange(0, 8), rng.randrange(0, 8), rng.randrange(0, 4))
        for _ in range(60)]
    for m, n, p in shapes:
        if m and n and rng.random() < 0.5:
            a_rows = _rank_deficient_rows(rng, m, n, rng.randrange(0, n + 1))
        else:
            a_rows = _sparse_fraction_rows(rng, m, n)
        A = Mat(m, n, a_rows)
        ref_rows, ref_pivots = _naive_rref(a_rows, n)
        free = [c for c in range(n) if c not in ref_pivots]

        ker = kernel_basis(A)
        assert len(ker) == len(free) == n - rank(A)
        for v, f in zip(ker, free):
            assert [v[c] for c in free] == [int(c == f) for c in free]
            assert A.matvec(v) == [0] * m
            assert _entries_are_fractions([v])

        # a consistent right-hand side: B = A X0 for a random X0
        X0 = Mat(n, p, _sparse_fraction_rows(rng, n, p))
        B = A * X0
        X = solve_columns(A, B)
        assert (X.nrows, X.ncols) == (n, p)
        assert A * X == B
        assert all(X.rows[c] == [0] * p for c in free)
        # X is read off the reduced augmented system, pivot by pivot
        aug_rows, aug_pivots = _naive_rref(
            [a + b for a, b in zip(a_rows, B.rows)], n + p)
        assert aug_pivots == ref_pivots
        for row, c in zip(aug_rows, aug_pivots):
            assert X.rows[c] == row[n:]

        # an inconsistent one: a column outside A's column space
        if len(ref_pivots) < m and p:
            col_pivots = _naive_rref([list(c) for c in zip(*a_rows)], m)[1]
            e = next(i for i in range(m) if i not in col_pivots)
            bad = copy_mat(B)
            bad.rows[e][0] += 1
            with pytest.raises(ValueError, match="inconsistent"):
                solve_columns(A, bad)
