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

from .algebra import (E, EBAR, F, FBAR, H, HBAR, GENERATORS, GEN_NAMES,
                      GEN_BY_NAME, DEPTH_SHIFT, _BRACKET, _PAIRS,
                      exact_int, exact_rat, straighten_word)
from .linalg import Mat

__all__ = [
    "Weight", "ALPHA", "Character", "TruncatedModule",
    "verma", "simple_module", "simple_dims", "character",
    "dualize", "check_relations", "RelationReport",
    "casimir_action", "casimir_scalar",
    "is_weight_diagonal", "hbar_is_nilpotent", "h_is_nilpotent",
    "category_check", "module_to_json", "module_from_json",
]


@dataclass(frozen=True)
class Weight:
    """A weight (value on h, value on hbar), exact rationals only."""
    h: Fraction
    hbar: Fraction

    def __post_init__(self):
        object.__setattr__(self, "h", exact_rat(self.h, "h"))
        object.__setattr__(self, "hbar", exact_rat(self.hbar, "hbar"))

    def down(self, k=1):
        """lambda - k*alpha."""
        return Weight(self.h - 2 * k, self.hbar)

    def is_integral_dominant(self):
        """True iff hbar-value 0 and h-value a nonnegative integer."""
        return (self.hbar == 0 and self.h.denominator == 1 and self.h >= 0)

    def to_json(self):
        return {"h": str(self.h), "hbar": str(self.hbar)}

    @classmethod
    def from_json(cls, data):
        return cls(data["h"], data["hbar"])

    def __str__(self):
        return "(%s, %s)" % (self.h, self.hbar)


ALPHA = Weight(2, 0)


@dataclass
class Character:
    """Depth -> dimension, anchored at a top weight (depth d has h-value
    top.h - 2d).  ``depth`` records the truncation window; dims omit zeros."""
    top: Weight
    depth: int
    dims: dict

    def __post_init__(self):
        self.depth = exact_int(self.depth, "depth")
        self.dims = {exact_int(d, "depth"): exact_int(m, "dimension")
                     for d, m in self.dims.items() if m}

    def dim_at(self, d):
        return self.dims.get(d, 0)

    def restrict(self, depth):
        return Character(self.top, depth,
                         {d: m for d, m in self.dims.items() if d <= depth})

    def __eq__(self, other):
        return (isinstance(other, Character) and self.top == other.top
                and self.depth == other.depth and self.dims == other.dims)

    def to_json(self):
        return {"top": self.top.to_json(), "depth": self.depth,
                "dims": {str(d): m for d, m in sorted(self.dims.items())}}

    @classmethod
    def from_json(cls, data):
        # JSON object keys are strings; __post_init__ makes them ints
        return cls(Weight.from_json(data["top"]), data["depth"],
                   {exact_rat(d, "depth"): m for d, m in data["dims"].items()})


class TruncatedModule:
    """A module on the coset top - n*alpha, depths 0..depth.

    dims[n] is the dimension of the depth-n slice.  actions[g][n] is the
    matrix of generator g restricted to depth n, shaped
    (dims[n + shift(g)], dims[n]); blocks whose source is empty or whose
    target falls outside the window are simply absent (use act()).
    ``complete`` marks modules that genuinely vanish beyond the window, so
    no relation check need be skipped at the boundary.
    """

    def __init__(self, top, depth, dims, actions, complete=False, label=""):
        self.top = top
        self.depth = exact_int(depth, "depth")
        self.dims = [exact_int(d, "slice dimension") for d in dims]
        if len(self.dims) != self.depth + 1:
            raise ValueError("depth %d needs %d slice dimensions, got %d"
                             % (self.depth, self.depth + 1, len(self.dims)))
        self.actions = actions
        self.complete = bool(complete)
        self.label = label

    def act(self, g, n):
        """Matrix of generator g on depth n (zero-shaped if out of window)."""
        if isinstance(g, str):
            g = GEN_BY_NAME[g]
        src = self.dims[n] if 0 <= n <= self.depth else 0
        t = n + DEPTH_SHIFT[g]
        tgt = self.dims[t] if 0 <= t <= self.depth else 0
        blk = self.actions.get(g, {}).get(n)
        if blk is not None:
            return blk
        return Mat.zeros(tgt, src)

    def weight_at(self, n):
        return self.top.down(n)

    def dim_total(self):
        return sum(self.dims)

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


def _store(actions, dims, depth, g, n, mat):
    if dims[n] > 0 and 0 <= n + DEPTH_SHIFT[g] <= depth:
        actions[g][n] = mat


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
    if not isinstance(top, Weight):
        top = Weight(*top)
    depth = exact_int(depth, "depth")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    dims = [n + 1 for n in range(depth + 1)]
    actions = {g: {} for g in GENERATORS}
    powers = {}  # (c, d) -> top.h^c * top.hbar^d
    for g in GENERATORS:
        shift = DEPTH_SHIFT[g]
        for n in range(depth + 1):
            t = n + shift
            if not (0 <= t <= depth):
                continue
            mat = Mat.zeros(dims[t], dims[n])
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
            actions[g][n] = mat
    return TruncatedModule(top, depth, dims, actions, complete=False,
                           label="verma")


def simple_dims(top, depth):
    """Dimensions per depth of the simple highest-weight module L(top)."""
    if not isinstance(top, Weight):
        top = Weight(*top)
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
    if not isinstance(top, Weight):
        top = Weight(*top)
    depth = exact_int(depth, "depth")
    dims = simple_dims(top, depth)  # raises for a negative depth
    if top.hbar != 0:
        m = verma(top, depth)
        m.label = "simple"
        return m
    actions = {g: {} for g in GENERATORS}
    if top.is_integral_dominant():
        n = int(top.h)
        for d in range(min(n, depth) + 1):
            _store(actions, dims, depth, H, d,
                   Mat(1, 1, [[Fraction(n - 2 * d)]]))
            if d + 1 <= min(n, depth):
                _store(actions, dims, depth, F, d,
                       Mat(1, 1, [[Fraction(n - d)]]))
            if d >= 1:
                _store(actions, dims, depth, E, d,
                       Mat(1, 1, [[Fraction(d)]]))
        complete = depth >= n
    else:
        for d in range(depth + 1):
            _store(actions, dims, depth, H, d, Mat(1, 1, [[top.h - 2 * d]]))
            if d + 1 <= depth:
                _store(actions, dims, depth, F, d, Mat(1, 1, [[Fraction(1)]]))
            if d >= 1:
                _store(actions, dims, depth, E, d,
                       Mat(1, 1, [[d * (top.h - d + 1)]]))
        complete = False
    # barred generators act by zero: store explicit zero blocks for clarity
    for g in (FBAR, HBAR, EBAR):
        for d in range(depth + 1):
            t = d + DEPTH_SHIFT[g]
            if dims[d] and 0 <= t <= depth:
                actions[g][d] = Mat.zeros(dims[t], dims[d])
    return TruncatedModule(top, depth, dims, actions, complete=complete,
                           label="simple")


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
    dims = module.dims
    depth = module.depth
    actions = {g: {} for g in GENERATORS}
    for g in GENERATORS:
        for n in range(depth + 1):
            t = n + DEPTH_SHIFT[g]
            if dims[n] and 0 <= t <= depth:
                actions[g][n] = module.act(_SIGMA[g], t).transpose()
    return TruncatedModule(module.top, depth, dims, actions,
                           complete=module.complete,
                           label=("dual " + module.label).strip())


# ---------------------------------------------------------------------------
# relation checking

@dataclass
class RelationReport:
    passed: bool
    checked: int
    skipped: list      # (gen_x, gen_y, depth) not verifiable in the window
    failures: list     # (gen_x, gen_y, depth)

    def __bool__(self):
        return self.passed


def check_relations(module):
    """Verify rho(x)rho(y) - rho(y)rho(x) = rho([x,y]) on every depth slice.

    For a truncated (non-complete) module, a pair at a depth whose composite
    path visits a slice beyond the window cannot be checked and is skipped
    (and counted); for complete modules everything is checked, since slices
    beyond the window are genuinely zero.
    """
    checked, skipped, failures = 0, [], []
    N = module.depth
    for x, y in _PAIRS:
        sx, sy = DEPTH_SHIFT[x], DEPTH_SHIFT[y]
        for n in range(N + 1):
            if module.dims[n] == 0:
                continue
            if not module.complete and max(n + sx, n + sy, n + sx + sy) > N:
                skipped.append((GEN_NAMES[x], GEN_NAMES[y], n))
                continue
            lhs = (module.act(x, n + sy) * module.act(y, n)
                   - module.act(y, n + sx) * module.act(x, n))
            for g, c in _BRACKET[(x, y)]:
                lhs = lhs - module.act(g, n) * c
            t = n + sx + sy
            tgt = module.dims[t] if 0 <= t <= N else 0
            if (lhs.nrows, lhs.ncols) != (tgt, module.dims[n]) \
                    or not lhs.is_zero():
                failures.append((GEN_NAMES[x], GEN_NAMES[y], n))
            else:
                checked += 1
    return RelationReport(not failures, checked, skipped, failures)


# ---------------------------------------------------------------------------
# Casimir

def casimir_scalar(top):
    """The scalar top(hbar) * (top(h) + 2) by which the quadratic central
    element acts on any highest-weight module of weight ``top``."""
    if not isinstance(top, Weight):
        top = Weight(*top)
    return top.hbar * (top.h + 2)


def casimir_action(module, n=None):
    """Matrix of h*hbar + 2*hbar + 2*f*ebar + 2*fbar*e on depth n.

    The raising factors act first, so the composite never leaves the window
    and the result is exact even at the truncation boundary.  With n=None,
    returns {depth: matrix} for the whole window.
    """
    if n is None:
        return {d: casimir_action(module, d)
                for d in range(module.depth + 1) if module.dims[d]}
    a = module.act
    return (a(H, n) * a(HBAR, n) + a(HBAR, n) * 2
            + a(F, n - 1) * a(EBAR, n) * 2 + a(FBAR, n - 1) * a(E, n) * 2)


# ---------------------------------------------------------------------------
# category membership

def _scalar_matrix_defect(mat, scalar):
    return mat - Mat.identity(mat.nrows) * scalar


def _is_nilpotent(mat):
    p = mat.copy()
    for _ in range(mat.nrows):
        if p.is_zero():
            return True
        p = p * mat
    return p.is_zero()


def is_weight_diagonal(module):
    """h acts by the exact scalar top.h - 2n on each depth slice."""
    for n in range(module.depth + 1):
        if module.dims[n] == 0:
            continue
        if not _scalar_matrix_defect(module.act(H, n),
                                     module.weight_at(n).h).is_zero():
            return False
    return True


def h_is_nilpotent(module):
    """h - (top.h - 2n) is nilpotent on each depth slice."""
    for n in range(module.depth + 1):
        if module.dims[n] == 0:
            continue
        if not _is_nilpotent(_scalar_matrix_defect(module.act(H, n),
                                                   module.weight_at(n).h)):
            return False
    return True


def hbar_is_nilpotent(module):
    """hbar - top.hbar is nilpotent on each depth slice."""
    for n in range(module.depth + 1):
        if module.dims[n] == 0:
            continue
        if not _is_nilpotent(_scalar_matrix_defect(module.act(HBAR, n),
                                                   module.top.hbar)):
            return False
    return True


def category_check(module, flavor="O"):
    """Membership in the strict category ("O": h diagonal, hbar generalized)
    or the relaxed one ("Otilde": both h and hbar only generalized)."""
    if flavor == "O":
        return is_weight_diagonal(module) and hbar_is_nilpotent(module)
    if flavor in ("Otilde", "~O", "O~"):
        return h_is_nilpotent(module) and hbar_is_nilpotent(module)
    raise ValueError("unknown category flavor: %r" % (flavor,))


# ---------------------------------------------------------------------------
# serialization

def module_to_json(module):
    actions = {}
    for g in GENERATORS:
        blocks = []
        for n in range(module.depth + 1):
            entries = module.act(g, n).nonzero_entries()
            if entries:
                blocks.append({"from_depth": n, "entries": entries})
        actions[GEN_NAMES[g]] = blocks
    return {"top": module.top.to_json(), "depth": module.depth,
            "dims": list(module.dims), "complete": module.complete,
            "actions": actions}


def module_from_json(data):
    top = Weight.from_json(data["top"])
    depth = exact_int(data["depth"], "depth")
    dims = [exact_int(x, "slice dimension") for x in data["dims"]]
    if len(dims) != depth + 1:
        raise ValueError("depth %d needs %d slice dimensions, got %d"
                         % (depth, depth + 1, len(dims)))
    actions = {g: {} for g in GENERATORS}
    for name, blocks in data["actions"].items():
        if name not in GEN_BY_NAME:
            raise ValueError("unknown generator %r" % (name,))
        g = GEN_BY_NAME[name]
        for blk in blocks:
            n = exact_int(blk["from_depth"], "%s from_depth" % name)
            t = n + DEPTH_SHIFT[g]
            if not (0 <= n <= depth and 0 <= t <= depth):
                raise ValueError("%s block at from_depth %d maps to depth %d, "
                                 "outside 0..%d" % (name, n, t, depth))
            mat = Mat.zeros(dims[t], dims[n])
            for r, c, val in blk["entries"]:
                r = exact_int(r, "%s entry row" % name)
                c = exact_int(c, "%s entry column" % name)
                if not (0 <= r < dims[t] and 0 <= c < dims[n]):
                    raise ValueError(
                        "%s block at from_depth %d: entry (%d, %d) outside "
                        "its %dx%d shape" % (name, n, r, c, dims[t], dims[n]))
                mat.rows[r][c] = exact_rat(val, "%s entry value" % name)
            actions[g][n] = mat
    return TruncatedModule(top, depth, dims, actions,
                           complete=bool(data.get("complete", False)))
