"""Dense and sparse exact linear algebra over the rationals.

Every entry of a Mat is a fractions.Fraction, never an int.  The public
Mat constructor coerces what it is given, and the results of Mat
operations are built from Fractions already, so they are adopted without
coercion.  No result shares a row list with an operand, so callers may
write into ``mat.rows[r][c]``.  The Mat constructor and RowSpace take
ints, Fractions and 'p/q' strings, read by algebra.exact_rat, so a float
or a bool raises ValueError; SparseSystem.add_row takes ints only.  The
reduced rows, kernel vectors and reduced vectors they hand back are
Fractions whatever they were given.

The dense kernel skips zeros: sums, differences, scalar and matrix products
and matvec perform Fraction arithmetic only where both operands are
nonzero, and an untouched zero stays the zero it was.  The modules here
are sparse (a depth-20 Verma's action blocks are about 10 % nonzero), so
this removes most of the arithmetic without changing a single result.

Three kernels run on Python ints.  integer_product_sum sums products of
integer matrices in sparse row form, which check_relations runs on once it
has cleared a module's denominators.  RowSpace and SparseSystem eliminate
fraction-free, and the Ext solver feeds SparseSystem int rows assembled
from cleared action blocks.

There are two elimination engines, one per job, and the only state of
each is a list of integer rows: a vector added to a RowSpace is cleared of
denominators first, by _integer_vector, and a SparseSystem row comes in
ints.

- RowSpace, for the slices of a module (small dense matrices, a depth-20
  Verma slice is 21 columns wide).  It is incremental Gauss-Jordan: an
  added vector is reduced by the rows so far (scaled once by the lcm of
  the leads it uses), divided by its content and back-substituted into the
  other rows as row <- a * row - b * v with a and b divided by their gcd.
  Each row is then the canonical RREF row times its lead, and ``rows``
  divides each by its lead, building the Fraction RREF anew at each read.
  rref, kernel_basis and solve_columns feed their rows into one; the
  submodule closure of the structure module feeds it integer vectors
  directly.
- SparseSystem, for the Ext cocycle systems (large, banded, homogeneous).
  It walks the columns in order and takes as pivot the row with the fewest
  nonzeros, lowest index on ties (Markowitz 1957), which keeps fill-in and
  coefficient growth down.  eliminate() works fraction-free in place
  (cross-multiplying by the pivot's lead and the row's entry, each divided
  by their gcd), and divides out a row's content only after a rescale by a
  factor other than 1.  Kernel vectors and reduced vectors are
  back-substituted through the integer echelon, dividing by each pivot
  row's entry at its pivot, so a rank-only solve builds no Fraction.

The pivot row never shows in a kernel basis or a reduced vector.  A column
is a pivot column exactly when it is not a combination of the columns
before it, so the pivot columns are fixed by the matrix; and the kernel
vector with 1 at one free column and 0 at the others, like the element of
v + rowspace that vanishes on every pivot column, is unique.
"""

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

from .algebra import exact_rat

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Mat:
    """A dense rational matrix with explicit shape (rows may be zero-length)."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows, ncols, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            self.rows = [[_ZERO] * ncols for _ in range(nrows)]
        else:
            self.rows = [[x if type(x) is Fraction
                          else exact_rat(x, "matrix entry")
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
    def identity(cls, n):
        m = cls(n, n)
        for i in range(n):
            m.rows[i][i] = _ONE
        return m

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls(nrows, ncols)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.rows == other.rows)

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

    def is_zero(self):
        return not any(map(any, self.rows))

    def nonzero_entries(self):
        """The nonzero entries as [row, column, "p/q"] triples in row-major
        order: the sparse form in which matrix blocks are written to JSON."""
        return [[r, c, str(a)] for r, row in enumerate(self.rows)
                for c, a in enumerate(row) if a]

    def __repr__(self):
        if self.nrows == 0 or self.ncols == 0:
            return "Mat(%d, %d)" % (self.nrows, self.ncols)
        body = "; ".join(" ".join(str(a) for a in r) for r in self.rows)
        return "Mat[%s]" % body


def integer_product_sum(nrows, ncols, terms):
    """The nrows x ncols dense integer rows of the sum of
    scale * left . right over the (scale, left, right) terms.

    left and right are integer matrices in sparse row form, one list of
    (column, value) nonzeros per row, and right None stands for the
    identity.  A left factor of () contributes nothing.  Only products of
    two nonzeros are formed, and all arithmetic is on Python ints.
    """
    out = [[0] * ncols for _ in range(nrows)]
    for scale, left, right in terms:
        for orow, lrow in zip(out, left):
            for k, a in lrow:
                a *= scale
                if right is None:
                    orow[k] += a
                else:
                    for j, b in right[k]:
                        orow[j] += a * b
    return out


def rref(mat):
    """Reduced row echelon form.  Returns (list of reduced rows, pivot cols).

    Takes a Mat, which is not modified.  The rows go, in order, into one
    RowSpace, whose rows are the RREF.
    """
    space = RowSpace(mat.ncols)
    for row in mat.rows:
        space.add(row)
    return space.rows, space.pivots


def kernel_basis(mat):
    """Basis of {v : mat @ v = 0}, one vector per free column, deterministic.

    Each basis vector has 1 in its free coordinate and the pivot coordinates
    solved from the RREF.  Takes a Mat, which is not modified.
    """
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


def _integer_vector(values):
    """The values times the least common denominator of those that are not
    ints, as a list of ints: a positive multiple of them.  An int is kept as
    it is, anything else read by algebra.exact_rat (so a float or a bool
    raises ValueError), and a list of ints comes back as a copy."""
    v = [x if type(x) is int or type(x) is Fraction
         else exact_rat(x, "vector entry") for x in values]
    dens = [x.denominator for x in v if type(x) is not int]
    if not dens:
        return v
    den = lcm(*dens)
    return [x * den if type(x) is int
            else x.numerator * (den // x.denominator) for x in v]


class RowSpace:
    """An incrementally built row space in RREF, with membership testing.

    Its only state is one primitive integer vector (coprime entries,
    positive lead) per pivot, zero at the pivot columns of the other rows:
    the canonical RREF row times its lead.  ``rows`` divides each row by
    its lead.  The basis it exposes is the canonical RREF basis of the
    span, so two RowSpaces over the same subspace expose identical bases no
    matter the insertion order.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.pivots = []   # pivot columns, increasing
        self._ints = []    # primitive integer rows, one per pivot

    @property
    def rows(self):
        """The reduced rows as Fractions, sorted by pivot column: a new
        list of new rows at each read."""
        return [[Fraction(x, r[p]) if x else _ZERO for x in r]
                for r, p in zip(self._ints, self.pivots)]

    def _integers(self, vec):
        """_integer_vector of vec; raises ValueError unless vec has ncols
        entries."""
        if len(vec) != self.ncols:
            raise ValueError("vector of length %d for a space of %d columns"
                             % (len(vec), self.ncols))
        return _integer_vector(vec)

    def _reduce(self, v):
        """A new integer vector: L * v minus the multiples of the rows that
        zero it at every pivot column, L the lcm of the leads used."""
        hits = [(r, p, v[p]) for r, p in zip(self._ints, self.pivots)
                if v[p]]
        if not hits:
            return list(v)
        scale = lcm(*[r[p] for r, p, _ in hits])
        w = [x * scale for x in v] if scale != 1 else list(v)
        for r, p, c in hits:
            f = c * (scale // r[p])
            for k, b in enumerate(r):
                if b:
                    w[k] -= f * b
        return w

    def add(self, vec):
        """Insert a vector of exact rationals (see _integer_vector);
        returns True if it enlarged the space."""
        return self._add_integer(self._integers(vec))

    def _add_integer(self, vec):
        """add() for a list of ncols ints, which is neither kept nor
        modified."""
        w = self._reduce(vec)
        p = next((k for k, x in enumerate(w) if x), None)
        if p is None:
            return False
        g = gcd(*w)
        if w[p] < 0:
            g = -g
        if g != 1:
            w = [x // g for x in w]
        lead = w[p]
        # back-substitute: row <- a * row - b * w clears row[p]
        for r in self._ints:
            c = r[p]
            if c:
                h = gcd(lead, c)
                a, b = lead // h, c // h
                if a != 1:
                    r[:] = [a * x for x in r]
                for k, x in enumerate(w):
                    if x:
                        r[k] -= b * x
                h = gcd(*r)
                if h != 1:
                    r[:] = [x // h for x in r]
        idx = bisect_left(self.pivots, p)
        self._ints.insert(idx, w)
        self.pivots.insert(idx, p)
        return True

    def contains(self, vec):
        return not any(self._reduce(self._integers(vec)))

    def contains_space(self, other):
        return all(not any(self._reduce(r)) for r in other._ints)

    def dim(self):
        return len(self.pivots)


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
    only (row echelon, pivot rows never revisited): these systems are
    banded along the depth grading and full back-substitution during
    elimination would destroy that locality.  Nullspace vectors are
    back-substituted on demand instead; they and reduced vectors do not
    depend on the pivot rows (see the module docstring).

    ``rows`` holds integer rows only.  add_row appends a primitive one;
    eliminate() turns the list in place into the echelon, one row per row
    added: a pivot row is an integer multiple of the echelon row with 1 at
    its pivot, every other row is empty, and ``pivot_of_col`` maps each
    pivot column to its row's index.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self._eliminated = False

    def add_row(self, row):
        """Append a row {column: int coefficient} as a primitive integer
        row, its zeros dropped and its content divided out; after
        eliminate() the next query eliminates again, with the echelon rows
        plus this one.  A column that is not an int in 0..ncols-1, or a
        coefficient that is not an int, raises ValueError naming it."""
        ncols = self.ncols
        kept = {}
        for c, v in row.items():
            if type(c) is not int or not 0 <= c < ncols:
                raise ValueError("row column %r is not an int in 0..%d"
                                 % (c, ncols - 1))
            if type(v) is not int:
                raise ValueError("row coefficient %r at column %d is not an "
                                 "int" % (v, c))
            if v:
                kept[c] = v
        if kept:
            _divide_content(kept)
            self.rows.append(kept)
            self._eliminated = False

    def eliminate(self):
        """Row-echelon pass in column order.  Each column's pivot is the
        available row with the fewest nonzeros, lowest index on ties
        (Markowitz), which keeps fill-in and coefficient growth small.

        The system is homogeneous, so a row matters only up to scale: the
        arithmetic runs in place on the integer rows, and a row becomes
        a * row - b * pivot with a = lead / g, b = factor / g,
        g = gcd(lead, factor).  With a = 1 (after folding a sign into b) the
        row is updated entry by entry; only a rescale by |a| > 1 is followed
        by dividing out the row's content."""
        if self._eliminated:
            return
        rows = self.rows
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
        self._eliminated = True

    def rank(self):
        self.eliminate()
        return len(self.pivot_of_col)

    def reduce_vector(self, vec):
        """Reduce a dense vector modulo the row space (zeros all pivot
        coordinates); the input list is not modified.  Raises ValueError
        unless vec has ncols entries."""
        if len(vec) != self.ncols:
            raise ValueError("vector of length %d for a system of %d columns"
                             % (len(vec), self.ncols))
        self.eliminate()
        rows = self.rows
        v = list(vec)
        for pc in sorted(self.pivot_of_col):
            if v[pc]:
                row = rows[self.pivot_of_col[pc]]
                factor = Fraction(v[pc], row[pc])
                for c, val in row.items():
                    v[c] -= factor * val
        return v

    def kernel_vectors(self):
        """The kernel basis of nullspace_basis, one dense vector per free
        column in increasing column order, yielded one at a time so that a
        caller who needs only the first few builds only those."""
        self.eliminate()
        rows = self.rows
        pivot_cols = sorted(self.pivot_of_col)
        for free in range(self.ncols):
            if free in self.pivot_of_col:
                continue
            v = {free: _ONE}
            for pc in reversed(pivot_cols):
                row = rows[self.pivot_of_col[pc]]
                s = _ZERO
                for c, val in row.items():
                    if c != pc and c in v:
                        s += v[c] * val
                if s:
                    v[pc] = -s / row[pc]
            dense = [_ZERO] * self.ncols
            for c, val in v.items():
                dense[c] = val
            yield dense

    def nullspace_basis(self):
        """Kernel basis, one dense vector per free column, obtained by
        back-substitution through the echelon rows in reverse pivot order."""
        return list(self.kernel_vectors())
