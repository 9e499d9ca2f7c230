"""Dense and sparse exact linear algebra over the rationals.

Everything here works on fractions.Fraction entries.  Every entry of a Mat
is a Fraction, never an int: the public Mat constructor coerces what it is
given, and the results of Mat operations are built from Fractions already,
so they are adopted without coercion.  No result shares a row list with an
operand, so callers may write into ``mat.rows[r][c]``.  RowSpace and
SparseSystem.add_row convert entries that are not Fractions the same way,
so the rows they keep are Fractions whatever they are given.

The dense kernel skips zeros: sums, differences, scalar and matrix products,
matvec, rref and RowSpace perform Fraction arithmetic only where both
operands are nonzero, and an untouched zero stays the zero it was.  The
modules here are sparse (a depth-20 Verma's action blocks are about 10 %
nonzero), so this removes most of the arithmetic without changing a single
result.

There are two elimination engines, one per job:

- RowSpace, for the slices of a module (small dense matrices, a depth-20
  Verma slice is 21 columns wide).  It is incremental Gauss-Jordan: each
  added vector is reduced by the rows so far, scaled to 1 at its first
  nonzero column and back-substituted into the other rows, so the rows stay
  the canonical RREF of the span.  rref, rank, kernel_basis and
  solve_columns feed their rows into one.
- SparseSystem, for the Ext cocycle systems (large, banded, homogeneous).
  It walks the columns in order and takes as pivot the row with the fewest
  nonzeros, lowest index on ties (Markowitz 1957), which keeps fill-in and
  coefficient growth down.  Inside eliminate() it keeps each row as an
  integer vector with no denominator, eliminates fraction-free
  (cross-multiplying by the pivot's lead and the row's entry, each divided
  by their gcd), and divides out a row's content only after a rescale by a
  factor other than 1; the rows it leaves are Fractions again.

The pivot row never shows in a kernel basis or a reduced vector.  A column
is a pivot column exactly when it is not a combination of the columns
before it, so the pivot columns are fixed by the matrix; and the kernel
vector with 1 at one free column and 0 at the others, like the element of
v + rowspace that vanishes on every pivot column, is unique.
"""

from bisect import bisect_left
from fractions import Fraction
from math import gcd

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _axpy_into(v, c, row):
    """v <- v - c * row in place, touching only the nonzeros of row."""
    for k, b in enumerate(row):
        if b:
            x = v[k]
            v[k] = x - c * b if x else -(c * b)


class Mat:
    """A dense rational matrix with explicit shape (rows may be zero-length)."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows, ncols, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            self.rows = [[_ZERO] * ncols for _ in range(nrows)]
        else:
            self.rows = [[x if type(x) is Fraction else Fraction(x)
                          for x in r] for r in rows]
            if len(self.rows) != nrows or any(len(r) != ncols
                                               for r in self.rows):
                raise ValueError(
                    "Mat(%d, %d) given rows of shape %s"
                    % (nrows, ncols, [len(r) for r in self.rows]))

    @classmethod
    def _adopt(cls, nrows, ncols, rows):
        """Wrap rows of Fractions that nothing else holds: no copy, no
        coercion, no shape check."""
        m = cls.__new__(cls)
        m.nrows = nrows
        m.ncols = ncols
        m.rows = rows
        return m

    @classmethod
    def from_rows(cls, rows, ncols=None):
        rows = [list(r) for r in rows]
        if ncols is None:
            if not rows:
                raise ValueError("need ncols for an empty row list")
            ncols = len(rows[0])
        return cls(len(rows), ncols, rows)

    @classmethod
    def identity(cls, n):
        m = cls(n, n)
        for i in range(n):
            m.rows[i][i] = _ONE
        return m

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls(nrows, ncols)

    def __getitem__(self, rc):
        return self.rows[rc[0]][rc[1]]

    def __setitem__(self, rc, val):
        self.rows[rc[0]][rc[1]] = Fraction(val)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.rows == other.rows)

    def __ne__(self, other):
        return not self.__eq__(other)

    def _same_shape(self, other, op):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch: %dx%d %s %dx%d"
                             % (self.nrows, self.ncols, op,
                                other.nrows, other.ncols))

    def __add__(self, other):
        self._same_shape(other, "+")
        return Mat._adopt(self.nrows, self.ncols,
                          [[(a + b if a else b) if b else a
                            for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._same_shape(other, "-")
        return Mat._adopt(self.nrows, self.ncols,
                          [[(a - b if a else -b) if b else a
                            for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.rows, other.rows)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            s = Fraction(other)
            return Mat._adopt(self.nrows, self.ncols,
                              [[a * s if a else a for a in r]
                               for r in self.rows])
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch: %dx%d * %dx%d"
                             % (self.nrows, self.ncols,
                                other.nrows, other.ncols))
        nonzeros = [[(j, b) for j, b in enumerate(brow) if b]
                    for brow in other.rows]
        out = []
        for row in self.rows:
            orow = [_ZERO] * other.ncols
            for a, bnz in zip(row, nonzeros):
                if a:
                    for j, b in bnz:
                        x = orow[j]
                        orow[j] = x + a * b if x else a * b
            out.append(orow)
        return Mat._adopt(self.nrows, other.ncols, out)

    def __rmul__(self, scalar):
        return self.__mul__(scalar)

    def matvec(self, vec):
        if self.ncols != len(vec):
            raise ValueError("shape mismatch: %dx%d * vector of length %d"
                             % (self.nrows, self.ncols, len(vec)))
        nonzeros = [(j, v) for j, v in enumerate(vec) if v]
        out = []
        for row in self.rows:
            s = _ZERO
            for j, v in nonzeros:
                a = row[j]
                if a:
                    s = s + a * v if s else a * v
            out.append(s)
        return out

    def transpose(self):
        if not self.nrows:
            return Mat(self.ncols, 0)
        return Mat._adopt(self.ncols, self.nrows,
                          [list(col) for col in zip(*self.rows)])

    def column(self, j):
        return [r[j] for r in self.rows]

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def is_zero(self):
        return not any(map(any, self.rows))

    def nonzero_entries(self):
        """The nonzero entries as [row, column, "p/q"] triples in row-major
        order: the sparse form in which matrix blocks are written to JSON."""
        return [[r, c, str(a)] for r, row in enumerate(self.rows)
                for c, a in enumerate(row) if a]

    def copy(self):
        return Mat._adopt(self.nrows, self.ncols,
                          [list(r) for r in self.rows])

    def __repr__(self):
        if self.nrows == 0 or self.ncols == 0:
            return "Mat(%d, %d)" % (self.nrows, self.ncols)
        body = "; ".join(" ".join(str(a) for a in r) for r in self.rows)
        return "Mat[%s]" % body


def _as_mat(mat):
    """A Mat as is; a list of row lists as a Mat of Fractions."""
    if isinstance(mat, Mat):
        return mat
    return Mat(len(mat), len(mat[0]) if mat else 0, mat)


def rref(mat):
    """Reduced row echelon form.  Returns (list of reduced rows, pivot cols).

    Accepts a Mat or a list of row lists; the input is not modified.  The
    rows go, in order, into one RowSpace, whose rows are the RREF.
    """
    mat = _as_mat(mat)
    space = RowSpace(mat.ncols)
    for row in mat.rows:
        space.add(row)
    return space.rows, space.pivots


def rank(mat):
    return len(rref(mat)[1])


def kernel_basis(mat):
    """Basis of {v : mat @ v = 0}, one vector per free column, deterministic.

    Each basis vector has 1 in its free coordinate and the pivot coordinates
    solved from the RREF.
    """
    mat = _as_mat(mat)
    ncols = mat.ncols
    rows, pivots = rref(mat)
    pivot_set = set(pivots)
    basis = []
    for free_col in range(ncols):
        if free_col in pivot_set:
            continue
        v = [_ZERO] * ncols
        v[free_col] = _ONE
        for prow, pcol in zip(rows, pivots):
            v[pcol] = -prow[free_col]
        basis.append(v)
    return basis


def solve_columns(A, B):
    """Solve A @ X = B column by column; raises ValueError if inconsistent
    or if A and B differ in their number of rows.

    A: Mat (m x n) with full column rank not required -- any solution is
    returned (free variables set to 0, deterministically via RREF).
    """
    if A.nrows != B.nrows:
        raise ValueError("solve_columns: A is %dx%d but B is %dx%d; they need "
                         "the same number of rows"
                         % (A.nrows, A.ncols, B.nrows, B.ncols))
    n = A.ncols
    rows, pivots = rref(Mat._adopt(A.nrows, n + B.ncols,
                                   [ar + br for ar, br in zip(A.rows, B.rows)]))
    X = Mat(n, B.ncols)
    for prow, pcol in zip(rows, pivots):
        if pcol >= n:
            raise ValueError("inconsistent linear system")
        X.rows[pcol] = prow[n:]
    return X


class RowSpace:
    """An incrementally built row space in RREF, with membership testing.

    The basis it exposes is the canonical RREF basis of the span, so two
    RowSpaces over the same subspace expose identical bases no matter the
    insertion order.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []     # reduced rows, sorted by pivot column
        self.pivots = []   # pivot column of each row

    def _reduce(self, vec):
        # an int pivot would divide to a float, and float input would
        # reduce inexactly
        v = [x if type(x) is Fraction else Fraction(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                _axpy_into(v, c, row)
        return v

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the space."""
        v = self._reduce(vec)
        for p in range(self.ncols):
            inv = v[p]
            if inv:
                if inv != 1:
                    v = [a / inv if a else a for a in v]
                # back-substitute into existing rows to keep full RREF
                for row in self.rows:
                    c = row[p]
                    if c:
                        _axpy_into(row, c, v)
                idx = bisect_left(self.pivots, p)
                self.rows.insert(idx, v)
                self.pivots.insert(idx, p)
                return True
        return False

    def contains(self, vec):
        return not any(self._reduce(vec))

    def contains_space(self, other):
        return all(self.contains(r) for r in other.rows)

    def dim(self):
        return len(self.rows)

    def basis(self):
        return [list(r) for r in self.rows]


# ---------------------------------------------------------------------------
# sparse elimination (for the cocycle systems, which are large but local)

def _divide_content(row):
    """Divide an integer dict in place by the gcd of its entries."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for c, v in row.items():
            row[c] = v // g


class SparseSystem:
    """Homogeneous system over Q with rows stored as {column: coefficient}.

    eliminate() walks the columns in order and takes as pivot the row with
    the fewest nonzeros, lowest index on ties.  It is forward elimination
    only (row echelon, pivot rows normalized but never revisited): these
    systems are banded along the depth grading and full back-substitution
    during elimination would destroy that locality.  Nullspace vectors are
    back-substituted on demand instead; they and reduced vectors do not
    depend on the pivot rows (see the module docstring).

    After eliminate(), ``rows`` has one entry per row added, in order: a
    pivot row as Fractions with 1 at its pivot, every other row empty; and
    ``pivot_of_col`` maps each pivot column to its row's index.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self._eliminated = False

    def add_row(self, row):
        """Append a row {column: coefficient}; after eliminate() the next
        query eliminates again, with the echelon rows plus this one.  A
        column outside 0..ncols-1 raises ValueError."""
        row = {c: v if type(v) is Fraction else Fraction(v)
               for c, v in row.items() if v}
        if row:
            if min(row) < 0 or max(row) >= self.ncols:
                raise ValueError("row columns %s outside 0..%d"
                                 % (sorted(row), self.ncols - 1))
            self.rows.append(row)
            self._eliminated = False

    @staticmethod
    def _to_integer_row(row):
        """A primitive integer dict that is a positive multiple of the
        rational row."""
        den = 1
        for v in row.values():
            den = den * v.denominator // gcd(den, v.denominator)
        ints = {c: v.numerator * (den // v.denominator)
                for c, v in row.items()}
        _divide_content(ints)
        return ints

    def eliminate(self):
        """Row-echelon pass in column order.  Each column's pivot is the
        available row with the fewest nonzeros, lowest index on ties
        (Markowitz), which keeps fill-in and coefficient growth small.

        The system is homogeneous, so a row matters only up to scale: the
        arithmetic runs on integer rows with no denominator, and a row
        becomes a * row - b * pivot with a = lead / g, b = factor / g,
        g = gcd(lead, factor).  With a = 1 (after folding a sign into b) the
        row is updated in place; only a rescale by |a| > 1 is followed by
        dividing out the row's content."""
        if self._eliminated:
            return
        rows = [self._to_integer_row(r) for r in self.rows]
        # touching[c] holds every row with a nonzero in column c, and may
        # still hold rows whose entry there has since cancelled: a row is
        # added once, when its entry in c first appears.  Fill-in lands only
        # right of the current column, so a finished column's set is dropped.
        touching = [set() for _ in range(self.ncols)]
        for i, row in enumerate(rows):
            for c in row:
                touching[c].add(i)
        self.pivot_of_col = {}
        used = set()
        for col in range(self.ncols):
            live = [i for i in touching[col]
                    if i not in used and col in rows[i]]
            touching[col] = None
            if not live:
                continue
            best = min(live, key=lambda i: (len(rows[i]), i))
            self.pivot_of_col[col] = best
            used.add(best)
            piv = rows[best]
            lead = piv[col]
            pitems = [(c, v) for c, v in piv.items() if c != col]
            for i in live:
                if i == best:
                    continue
                row = rows[i]
                factor = row.pop(col)
                g = gcd(lead, factor)
                a, b = lead // g, factor // g
                if a < 0:
                    a, b = -a, -b
                if a != 1:
                    for c, v in row.items():
                        row[c] = a * v
                for c, pv in pitems:
                    v = row.get(c)
                    if v is None:
                        row[c] = -b * pv
                        touching[c].add(i)
                    else:
                        v -= b * pv
                        if v:
                            row[c] = v
                        else:
                            del row[c]
                if a != 1:
                    _divide_content(row)
        leads = {i: rows[i][col] for col, i in self.pivot_of_col.items()}
        self.rows = [{c: Fraction(v, leads.get(i, 1)) for c, v in row.items()}
                     for i, row in enumerate(rows)]
        self._eliminated = True

    def rank(self):
        self.eliminate()
        return len(self.pivot_of_col)

    def reduce_vector(self, vec):
        """Reduce a dense vector modulo the row space (zeros all pivot
        coordinates); the input list is not modified."""
        self.eliminate()
        v = list(vec)
        for pc in sorted(self.pivot_of_col):
            if v[pc]:
                factor = v[pc]
                for c, val in self.rows[self.pivot_of_col[pc]].items():
                    v[c] -= factor * val
        return v

    def nullspace_basis(self):
        """Kernel basis, one dense vector per free column, obtained by
        back-substitution through the echelon rows in reverse pivot order."""
        self.eliminate()
        pivot_cols = sorted(self.pivot_of_col)
        basis = []
        for free in range(self.ncols):
            if free in self.pivot_of_col:
                continue
            v = {free: _ONE}
            for pc in reversed(pivot_cols):
                row = self.rows[self.pivot_of_col[pc]]
                s = _ZERO
                for c, val in row.items():
                    if c != pc and c in v:
                        s += val * v[c]
                if s:
                    v[pc] = -s
            dense = [_ZERO] * self.ncols
            for c, val in v.items():
                dense[c] = val
            basis.append(dense)
        return basis
