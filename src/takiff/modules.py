"""Depth-truncated highest-weight modules with exact rational action matrices.

A weight for the Takiff algebra of sl2 is a pair lambda = (lambda(h),
lambda(hbar)) of rationals.  Every module here lives on the coset
lambda - n*alpha (alpha(h) = 2, alpha(hbar) = 0) and is stored as one vector
space per "depth" n = 0..N together with six matrices per depth describing
the generator actions; depth N is a hard truncation unless the module is
genuinely finite-dimensional (``complete``).

Verma construction.  The Verma module of weight lambda has PBW basis
f^i fbar^j v over i, j >= 0; its depth-n slice is spanned by

    c_j = f^(n-j) fbar^j v,   j = 0..n   (f-power descending),

so depth 1 is (f v, fbar v).  All action matrices are obtained by
straightening g * f^(n-j) fbar^j into normal form and evaluating the h/hbar
powers at lambda -- no closed-form shortcuts are baked in (the closed forms
appear only in the tests, as an independent oracle).

In this basis, hbar acts at depth 1 by [[lambda(hbar), 0], [-2, lambda(hbar)]]:
diagonal scalar plus a nilpotent pushing f v to fbar v.  That lower-triangular
Jordan shape persists at every depth and drives the theory: the Verma module
is simple iff lambda(hbar) != 0.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .algebra import (E, EBAR, F, FBAR, H, HBAR, GENERATORS, GEN_NAMES,
                      DEPTH_SHIFT, _BRACKET, _PAIRS, _check_letters,
                      exact_int, exact_rat, straighten_word)
from .linalg import Mat, integer_product_sum

__all__ = [
    "Weight", "Character", "TruncatedModule", "verma", "simple_module",
    "simple_dims", "character", "dualize", "check_relations",
    "RelationReport", "casimir_action", "casimir_scalar", "category_check",
    "module_to_json",
]


@dataclass(frozen=True)
class Weight:
    """A weight (value on h, value on hbar), exact rationals only."""
    h: Fraction
    hbar: Fraction

    def __post_init__(self):
        object.__setattr__(self, "h", exact_rat(self.h, "h"))
        object.__setattr__(self, "hbar", exact_rat(self.hbar, "hbar"))

    @classmethod
    def of(cls, value):
        """value as a Weight: a Weight as it is, an (h, hbar) pair built
        into one.  Anything else raises ValueError naming the value."""
        if isinstance(value, Weight):
            return value
        if isinstance(value, (tuple, list)) and len(value) == 2:
            return cls(value[0], value[1])
        raise ValueError("a weight is a Weight or an (h, hbar) pair, got %r"
                         % (value,))

    def down(self, k=1):
        """lambda - k*alpha."""
        return Weight(self.h - 2 * k, self.hbar)

    def is_integral_dominant(self):
        """True iff hbar-value 0 and h-value a nonnegative integer."""
        return (self.hbar == 0 and self.h.denominator == 1 and self.h >= 0)

    def to_json(self):
        return {"h": str(self.h), "hbar": str(self.hbar)}

    def __str__(self):
        return "(%s, %s)" % (self.h, self.hbar)


@dataclass
class Character:
    """Depth -> dimension, anchored at a top weight (depth d has h-value
    top.h - 2d), given as a Weight or an (h, hbar) pair.  ``depth``
    records the truncation window; dims omit zeros.  A negative depth, or
    a nonzero dimension at a depth outside 0..depth, raises ValueError."""
    top: Weight
    depth: int
    dims: dict

    def __post_init__(self):
        self.top = Weight.of(self.top)
        self.depth = exact_int(self.depth, "depth")
        self.dims = {exact_int(d, "depth"): exact_int(m, "dimension")
                     for d, m in self.dims.items() if m}
        if self.depth < 0:
            raise ValueError("depth must be >= 0, got %d" % self.depth)
        outside = sorted(d for d in self.dims if not 0 <= d <= self.depth)
        if outside:
            raise ValueError("dimensions at depths %s lie outside the window "
                             "0..%d" % (outside, self.depth))

    def dim_at(self, d):
        return self.dims.get(d, 0)

    def to_json(self):
        return {"top": self.top.to_json(), "depth": self.depth,
                "dims": {str(d): m for d, m in sorted(self.dims.items())}}


class TruncatedModule:
    """A module on the coset top - n*alpha, depths 0..depth.

    dims[n] is the dimension of the depth-n slice.  actions[g][n] is the
    matrix of generator g restricted to depth n, shaped
    (dims[n + shift(g)], dims[n]).  Blocks sit at the slots _block_slots
    lists, a nonempty source slice with its target inside the window, and
    build() asks for a block at exactly those; any other block is absent
    (act() reads it as zero).  ``complete`` marks modules that genuinely
    vanish beyond the window, so no relation check need be skipped at the
    boundary.  A negative depth or slice dimension raises ValueError.
    """

    def __init__(self, top, depth, dims, actions, complete=False):
        self.top = Weight.of(top)
        self.depth = exact_int(depth, "depth")
        self.dims = [exact_int(d, "slice dimension") for d in dims]
        if self.depth < 0 or min(self.dims, default=0) < 0:
            raise ValueError("depth and slice dimensions must be >= 0, got "
                             "depth %d and dims %s" % (self.depth, self.dims))
        if len(self.dims) != self.depth + 1:
            raise ValueError("depth %d needs %d slice dimensions, got %d"
                             % (self.depth, self.depth + 1, len(self.dims)))
        self.actions = actions
        self.complete = bool(complete)

    @classmethod
    def build(cls, top, depth, dims, block, complete=False):
        """The module whose block at each slot (g, n, t) of
        _block_slots(dims) is block(g, n, t); a block of None is left
        absent."""
        module = cls(top, depth, dims, {g: {} for g in GENERATORS}, complete)
        for g, n, t in _block_slots(module.dims):
            blk = block(g, n, t)
            if blk is not None:
                module.actions[g][n] = blk
        return module

    def act(self, g, n):
        """Matrix of generator g on depth n (zero-shaped if out of window).
        A g that is not a generator id 0..5, or an n that is not an
        integer, raises ValueError."""
        _check_letters((g,), "generator")
        n = exact_int(n, "depth")
        src = self.dims[n] if 0 <= n <= self.depth else 0
        t = n + DEPTH_SHIFT[g]
        tgt = self.dims[t] if 0 <= t <= self.depth else 0
        blk = self.actions.get(g, {}).get(n)
        if blk is not None:
            return blk
        return Mat.zeros(tgt, src)

    def __eq__(self, other):
        if not isinstance(other, TruncatedModule):
            return NotImplemented
        if (self.top, self.depth, self.dims) != (other.top, other.depth,
                                                 other.dims):
            return False
        for g in GENERATORS:
            for n in range(self.depth + 1):
                if self.act(g, n) != other.act(g, n):
                    return False
        return True

    def __repr__(self):
        return "TruncatedModule(top=%s, depth=%d, dims=%s%s)" % (
            self.top, self.depth, self.dims,
            ", complete" if self.complete else "")


def _block_slots(dims):
    """(g, n, t) for every action block of a module with these slice
    dimensions, generator-major: the source slice n is nonempty and
    t = n + shift(g) lies in the window 0..len(dims) - 1."""
    N = len(dims) - 1
    return [(g, n, n + DEPTH_SHIFT[g]) for g in GENERATORS
            for n in range(N + 1) if dims[n] and 0 <= n + DEPTH_SHIFT[g] <= N]


@lru_cache(maxsize=None)
def _gen_on_lowering_monomial(g, i, j):
    """Normal form of g * f^i fbar^j, shared across all weights."""
    return straighten_word((g,) + (F,) * i + (FBAR,) * j)


def verma(top, depth):
    """Truncated Verma module of highest weight ``top`` down to ``depth``.

    Depth-n basis: f^(n-j) fbar^j v for j = 0..n.  Matrices come from the PBW
    straightener: in the normal form of g * f^(n-j) fbar^j, a term
    f^a fbar^b h^c hbar^d e^p ebar^q contributes
    coef * top.h^c * top.hbar^d to basis vector (a, b) unless p + q > 0
    (in which case it kills the highest-weight vector).
    """
    top = Weight.of(top)
    depth = exact_int(depth, "depth")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    powers = {}  # (c, d) -> top.h^c * top.hbar^d

    def block(g, n, t):
        mat = Mat.zeros(t + 1, n + 1)
        for j in range(n + 1):
            for exps, coef in _gen_on_lowering_monomial(g, n - j, j).items():
                a, b, c, d, p, q = exps
                if p or q:
                    continue
                if a + b != t:
                    raise RuntimeError(
                        "normal form of %s * f^%d fbar^%d has a term "
                        "f^%d fbar^%d outside depth %d"
                        % (GEN_NAMES[g], n - j, j, a, b, t))
                pw = powers.get((c, d))
                if pw is None:
                    pw = powers[c, d] = top.h ** c * top.hbar ** d
                # a first term is stored as is: 0 + term is a Fraction
                # addition
                row, term = mat.rows[b], coef * pw
                row[j] = row[j] + term if row[j] else term
        return mat

    return TruncatedModule.build(top, depth, [n + 1 for n in range(depth + 1)],
                                 block)


def simple_dims(top, depth):
    """Dimensions per depth of the simple highest-weight module L(top)."""
    top = Weight.of(top)
    depth = exact_int(depth, "depth")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if top.hbar != 0:
        return [n + 1 for n in range(depth + 1)]
    if top.is_integral_dominant():
        n = int(top.h)
        return [1 if d <= n else 0 for d in range(depth + 1)]
    return [1] * (depth + 1)


def simple_module(top, depth):
    """The simple highest-weight module L(top), truncated to ``depth``.

    Three shapes:
      * top(hbar) != 0: the Verma module itself (it is simple);
      * top(hbar) == 0, top(h) = n a nonnegative integer: the (n+1)-dim
        simple sl2-module with the barred half acting by zero
        (basis v_0..v_n, e v_i = i v_{i-1}, f v_i = (n-i) v_{i+1});
      * top(hbar) == 0 otherwise: the sl2 Verma module of weight top(h) with
        the barred half acting by zero (basis f^d v, one per depth).
    """
    top = Weight.of(top)
    depth = exact_int(depth, "depth")
    dims = simple_dims(top, depth)  # raises for a negative depth
    if top.hbar != 0:
        return verma(top, depth)
    # one basis vector per nonempty slice d; the barred half acts by zero
    h, dominant = top.h, top.is_integral_dominant()
    if dominant:  # basis v_0..v_n
        coef = {H: lambda d: h - 2 * d, F: lambda d: h - d, E: lambda d: d}
    else:  # basis f^d v
        coef = {H: lambda d: h - 2 * d, F: lambda d: 1,
                E: lambda d: d * (h - d + 1)}

    def block(g, d, t):
        if g in coef and dims[t]:
            return Mat(1, 1, [[coef[g](d)]])
        return None

    return TruncatedModule.build(top, depth, dims, block,
                                 complete=dominant and depth >= h)


def character(module):
    return Character(module.top, module.depth,
                     {d: m for d, m in enumerate(module.dims)})


# ---------------------------------------------------------------------------
# duality

# The transpose-duality twists by the anti-involution swapping e <-> f and
# ebar <-> fbar (fixing h, hbar), so dual modules keep the same character.
_SIGMA = {E: F, F: E, EBAR: FBAR, FBAR: EBAR, H: H, HBAR: HBAR}


def dualize(module):
    """Graded dual with the action twisted by e<->f, ebar<->fbar.

    Same dims; the matrix of g at depth n is the transpose of the matrix of
    sigma(g) at depth n + shift(g) (which maps back onto depth n).
    """
    return TruncatedModule.build(
        module.top, module.depth, module.dims,
        lambda g, n, t: module.act(_SIGMA[g], t).transpose(),
        complete=module.complete)


# ---------------------------------------------------------------------------
# relation checking

# the entry types check_relations takes as exact without a closer look
_EXACT_TYPES = frozenset((Fraction, int))


@dataclass
class RelationReport:
    passed: bool
    checked: int
    skipped: list      # (gen_x, gen_y, depth) not verifiable in the window
    failures: list     # (gen_x, gen_y, depth)


def _integer_blocks(module):
    """(D, acts): D, the least common denominator of the entries of the
    module's action blocks, and acts[g][n + 1] = D * act(g, n) for n in
    -1..depth+1, as integer rows in the sparse row form of
    linalg.integer_product_sum; a block whose source slice lies outside the
    window is ().  Raises ValueError for a block whose shape is not
    (dims[n + shift], dims[n]) and for an entry that is not an int or a
    Fraction (a bool is not one)."""
    N, dims = module.depth, module.dims
    dens = {1}
    stored = []  # (acts[g], n + 1, rows of (column, rational) nonzeros)
    acts = {}
    for g in GENERATORS:
        given = module.actions.get(g, {})
        col = acts[g] = [()] * (N + 3)
        for n in range(N + 1):
            t = n + DEPTH_SHIFT[g]
            want = (dims[t] if 0 <= t <= N else 0, dims[n])
            blk = given.get(n)
            if blk is None:
                col[n + 1] = [()] * want[0]
                continue
            shape = ((blk.nrows, blk.ncols) if isinstance(blk, Mat)
                     else None)
            if shape != want or len(blk.rows) != want[0] \
                    or any(len(r) != want[1] for r in blk.rows):
                raise ValueError(
                    "%s block at depth %d is %s, expected %dx%d"
                    % (GEN_NAMES[g], n,
                       "%dx%d" % shape if shape else type(blk).__name__,
                       want[0], want[1]))
            for r in blk.rows:
                if not _EXACT_TYPES.issuperset(map(type, r)):
                    bad = [x for x in r if isinstance(x, bool)
                           or not isinstance(x, (int, Fraction))]
                    if bad:
                        raise ValueError(
                            "%s block at depth %d has a non-exact entry %r"
                            % (GEN_NAMES[g], n, bad[0]))
            rows = [[(j, x) for j, x in enumerate(r) if x] for r in blk.rows]
            dens.update(x.denominator for nz in rows for _, x in nz)
            stored.append((col, n + 1, rows))
    den = lcm(*dens)
    for col, i, rows in stored:
        col[i] = [[(j, x.numerator * (den // x.denominator)) for j, x in nz]
                  for nz in rows]
    return den, acts


def check_relations(module):
    """Verify rho(x)rho(y) - rho(y)rho(x) = rho([x,y]) on every depth slice.

    For a truncated (non-complete) module, a pair at a depth whose composite
    path visits a slice beyond the window cannot be checked and is skipped
    (and counted); for complete modules everything is checked, since slices
    beyond the window are genuinely zero.

    The check runs on integers and is still exact.  With D the least common
    denominator of all the action entries, every block A is N_A / D for an
    integer matrix N_A.  Multiplying a relation by the nonzero scalar D^2
    gives

        A.B - C.D' - sum c.G = 0  <=>  N_A.N_B - N_C.N_D' - D sum c.N_G = 0,

    and the bracket constants c are integers.  So every pair is checked
    exactly at every depth, and the report is the one the same check over
    Fractions gives.  A block of the wrong shape, or an entry that is not
    an int or a Fraction (a float would be checked only approximately, and
    a bool is refused too), raises ValueError naming the generator and the
    depth.
    """
    den, acts = _integer_blocks(module)
    checked, skipped, failures = 0, [], []
    N, dims = module.depth, module.dims
    for x, y in _PAIRS:
        sx, sy = DEPTH_SHIFT[x], DEPTH_SHIFT[y]
        ax, ay = acts[x], acts[y]
        bracket = [(-den * c, acts[g]) for g, c in _BRACKET[(x, y)]]
        for n in range(N + 1):
            if dims[n] == 0:
                continue
            if not module.complete and max(n + sx, n + sy, n + sx + sy) > N:
                skipped.append((GEN_NAMES[x], GEN_NAMES[y], n))
                continue
            t = n + sx + sy
            # acts[g][k + 1] is D * act(g, k)
            terms = [(1, ax[n + sy + 1], ay[n + 1]),
                     (-1, ay[n + sx + 1], ax[n + 1])]
            terms += [(s, ag[n + 1], None) for s, ag in bracket]
            lhs = integer_product_sum(dims[t] if 0 <= t <= N else 0,
                                      dims[n], terms)
            if any(map(any, lhs)):
                failures.append((GEN_NAMES[x], GEN_NAMES[y], n))
            else:
                checked += 1
    return RelationReport(not failures, checked, skipped, failures)


# ---------------------------------------------------------------------------
# Casimir

def casimir_scalar(top):
    """The scalar top(hbar) * (top(h) + 2) by which the quadratic central
    element acts on any highest-weight module of weight ``top``."""
    top = Weight.of(top)
    return top.hbar * (top.h + 2)


def casimir_action(module, n):
    """Matrix of h*hbar + 2*hbar + 2*f*ebar + 2*fbar*e on depth n.

    The raising factors act first, so the composite never leaves the window
    and the result is exact even at the truncation boundary.
    """
    a = module.act
    return (a(H, n) * a(HBAR, n) + a(HBAR, n) * 2
            + a(F, n - 1) * a(EBAR, n) * 2 + a(FBAR, n - 1) * a(E, n) * 2)


# ---------------------------------------------------------------------------
# category membership

def _is_nilpotent(mat):
    p = mat
    for _ in range(mat.nrows):
        if p.is_zero():
            return True
        p = p * mat
    return p.is_zero()


def category_check(module, flavor="O"):
    """Membership in the strict category ("O": h diagonal, hbar generalized)
    or the relaxed one ("Otilde": both h and hbar only generalized).  On
    each nonempty depth slice n, h - (top.h - 2n) must be zero in O and
    nilpotent in Otilde, and hbar - top.hbar nilpotent in both.  An unknown
    flavor raises ValueError."""
    if flavor not in ("O", "Otilde"):
        raise ValueError("unknown category flavor: %r" % (flavor,))
    h_test = Mat.is_zero if flavor == "O" else _is_nilpotent
    for n, dim in enumerate(module.dims):
        if dim:
            w, one = module.top.down(n), Mat.identity(dim)
            if not (h_test(module.act(H, n) - one * w.h)
                    and _is_nilpotent(module.act(HBAR, n) - one * w.hbar)):
                return False
    return True


# ---------------------------------------------------------------------------
# serialization

def _blocks_to_json(blocks):
    """The JSON form of a map's blocks, given as (from_depth, Mat) pairs:
    one {"from_depth", "entries"} record per block with a nonzero entry, in
    the order given, its entries as Mat.nonzero_entries lists them."""
    out = []
    for d, mat in blocks:
        entries = mat.nonzero_entries()
        if entries:
            out.append({"from_depth": d, "entries": entries})
    return out


def module_to_json(module):
    actions = {}
    for g in GENERATORS:
        actions[GEN_NAMES[g]] = _blocks_to_json(
            (n, module.act(g, n)) for n in range(module.depth + 1))
    return {"top": module.top.to_json(), "depth": module.depth,
            "dims": list(module.dims), "complete": module.complete,
            "actions": actions}
