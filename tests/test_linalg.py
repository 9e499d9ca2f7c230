"""Exact rational linear algebra: RREF, kernels, row spaces, and the sparse
echelon solver used by the cocycle systems."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from takiff.linalg import (Mat, RowSpace, SparseSystem, kernel_basis, rank,
                           rref, solve_columns)


def M(rows):
    return Mat.from_rows([[Fraction(x) for x in r] for r in rows])


def test_rref_small():
    rows, pivots = rref(M([[2, 4], [1, 2]]))
    assert pivots == [0]
    assert rows == [[Fraction(1), Fraction(2)]]


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
    assert a.basis() == b.basis()
    assert a.contains([Fraction(2), Fraction(4), Fraction(-3)])
    assert not a.contains([Fraction(0), Fraction(1), Fraction(0)])
    assert a.contains_space(b) and b.contains_space(a)


def test_rowspace_add_reports_growth():
    rs = RowSpace(2)
    assert rs.add([Fraction(1), Fraction(1)])
    assert not rs.add([Fraction(2), Fraction(2)])


# ---------------------------------------------------------------------------
# sparse vs dense agreement on random systems

def _random_rows(rng, m, n):
    return [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
             if rng.random() < 0.5 else Fraction(0) for _ in range(n)]
            for _ in range(m)]


def test_sparse_matches_dense_on_random_systems():
    rng = random.Random(7)
    for _ in range(80):
        m, n = rng.randrange(1, 12), rng.randrange(1, 12)
        rows = _random_rows(rng, m, n)
        sysm = SparseSystem(n)
        for r in rows:
            sysm.add_row({c: v for c, v in enumerate(r) if v})
        dense = Mat.from_rows(rows)
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
        dense = Mat.from_rows(rows)
        ker = kernel_basis(dense)
        rref_rows, pivots = rref(dense)
        probes = _random_rows(rng, 4, n) + rows[:2]
        for order in (rows, rows[::-1], rng.sample(rows, len(rows))):
            sysm = SparseSystem(n)
            for row in order:
                sysm.add_row({c: v for c, v in enumerate(row) if v})
            assert sysm.nullspace_basis() == ker
            for v in probes:
                assert sysm.reduce_vector(v) == \
                    _dense_normal_form(rref_rows, pivots, v)


def test_sparse_reduce_vector_zeroes_row_space():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randrange(2, 10)
        rows = _random_rows(rng, rng.randrange(1, 8), n)
        sysm = SparseSystem(n)
        for r in rows:
            sysm.add_row({c: v for c, v in enumerate(r) if v})
        for r in rows:
            assert all(x == 0 for x in sysm.reduce_vector(r))
        # combinations too
        if len(rows) >= 2:
            combo = [3 * a - 2 * b for a, b in zip(rows[0], rows[1])]
            assert all(x == 0 for x in sysm.reduce_vector(combo))


def test_sparse_reduce_vector_keeps_complement():
    sysm = SparseSystem(3)
    sysm.add_row({0: Fraction(1), 1: Fraction(1)})
    red = sysm.reduce_vector([Fraction(0), Fraction(2), Fraction(5)])
    # pivot column 0 already zero; nothing to do
    assert red == [Fraction(0), Fraction(2), Fraction(5)]
    red = sysm.reduce_vector([Fraction(1), Fraction(0), Fraction(1)])
    assert red[0] == 0


def test_sparse_rank_with_duplicate_rows():
    sysm = SparseSystem(4)
    for _ in range(3):
        sysm.add_row({0: Fraction(1), 2: Fraction(2)})
    sysm.add_row({1: Fraction(5)})
    assert sysm.rank() == 2
    assert len(sysm.nullspace_basis()) == 2


def test_sparse_empty_system():
    sysm = SparseSystem(3)
    assert sysm.rank() == 0
    assert len(sysm.nullspace_basis()) == 3
