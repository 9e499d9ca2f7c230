"""Blocks, first extensions between simples, and the resulting quivers.

Ext^1(L(lam), L(mu)) is computed as graded Lie-algebra 1-cocycles modulo
1-coboundaries.  A cochain assigns to each generator g a linear map
V -> W shifting the common coset grading by g's depth shift; the cocycle
condition

    phi([a,b]) = rho_W(a) phi(b) - phi(b) rho_V(a)
               + phi(a) rho_V(b) - rho_W(b) phi(a)

is imposed for the generator pairs on every depth slice whose composites
stay inside the truncation window, and coboundaries are the maps
d psi (g) = rho_W(g) psi - psi rho_V(g) for depth-preserving psi.  This is
exactly the condition for the block-triangular matrices [[W, phi], [0, V]]
to define a module extending V by W.

Two category flavors: in the strict one ("O") the extension must stay
h-semisimple, which forces phi(h) = 0 (on a common coset both modules give
h the same scalar on aligned slices, and a Jordan block above a scalar is
never diagonalizable), so the phi(h) unknowns are simply dropped.  The
relaxed flavor ("Otilde") keeps them and imposes all 15 pairs.  In O the
five pairs that contain h are not imposed: with phi(h) = 0 they read
rho_W(h) phi(x) - phi(x) rho_V(h) = phi([h, x]), and h acts on the aligned
slices by coset scalars that differ by exactly the eigenvalue of [h, x],
so they hold for every graded phi.  In both flavors the three pairs of
barred generators are not imposed when hbar = 0: the barred half acts by
zero on both simples and [xbar, ybar] = 0, so each side of their
condition is 0.

Pairs of simples in different blocks admit no extensions (their central
characters differ), so ext1 short-circuits to 0 unless the two weights are
equal nondegenerate weights or lie in one hbar = 0 coset.

Truncation is handled by solving three consecutive windows, base,
base + 1 and base + 2, and requiring the dimension to be flat on them.
base is sized past both modules' supports; the windows never slide, and
a dimension that moves raises StabilizationError.  Each window is solved
once: the first two rank only, the third with representatives when they
are asked for.  That third solve is laid out top first, so its
dimension, compared with the two rank-only ones below it, also
cross-checks the two layouts.

The unknowns are laid out in blocks, one per (source depth, generator), in
one of two depth orders.  A solve that draws representatives (ext1 with
cocycles, and the third window of stabilize_ext with cocycles) lays them
out top depth first: the column order decides which unknowns are free, so
it decides the kernel basis and with it the representatives (and the
golden cocycle files).  A solve that reads only ranks, that is ext1
without cocycles and each window of stabilize_ext that draws none, lays
them out deepest depth first.  Ranks do not depend on the order, and
eliminating the deep, wide slices first leaves far less fill-in
(measurements in BENCH_colorder.json).

Only the cocycle system is needed for the dimension, because the
coboundary rank is known in closed form:

    dim B^1 = dim C^0 - dim ker d = sum_d dim V_d * dim W_d - [lam == mu].

A psi in ker d commutes with f and fbar, which reach every slice of V from
its top inside the window, so psi is fixed by psi(v_top).  e and ebar kill
psi(v_top), and in the simple W only the top vector is killed by both.
Hence ker d is the scalars when lam == mu and 0 otherwise, with or without
the phi(h) unknowns.  The coboundary system is assembled only where its
span is read, when representatives are drawn; its rank is then checked
against the formula, and a mismatch raises RuntimeError.

The systems are assembled and eliminated on Python ints.  The action
blocks of V and W are cleared of denominators once (N / D with N an
integer matrix), and every equation is multiplied by L = lcm(D_V, D_W):
an action block enters as (L / D) * N and a bracket constant c as c * L.
A homogeneous row means the same up to a nonzero scale, so the solutions,
pivots and ranks are those of the rational system (measurements in
BENCH_intext.json).  The eliminated systems hold only their integer
echelons; representatives are back-substituted through them, so Fractions
appear only in the kernel vectors and the reduced vectors drawn.
"""

from dataclasses import dataclass, field
from math import floor, lcm

from .algebra import (H, BAR_DEGREE, GENERATORS, GEN_NAMES, DEPTH_SHIFT,
                      _BRACKET, _PAIRS, exact_int)
from .linalg import Mat, RowSpace, SparseSystem
from .modules import (TruncatedModule, Weight, _block_slots, _blocks_to_json,
                      _integer_blocks, simple_module)

__all__ = [
    "Block", "block_of", "same_block", "ext1", "stabilize_ext", "ExtResult",
    "StabilizationError", "assemble_extension", "quiver", "Quiver",
]


# ---------------------------------------------------------------------------
# blocks

@dataclass(frozen=True)
class Block:
    """A block of the highest-weight category: a nondegenerate weight is a
    block of its own; the degenerate (hbar = 0) simples clump into one block
    per alpha-coset, represented by the unique coset member with h in [0,2)."""
    kind: str
    rep: Weight

    def label(self):
        if self.kind == "nondegenerate":
            return "nondegenerate %s" % (self.rep,)
        return "coset %s + Z*alpha" % (self.rep,)

    def to_json(self):
        return {"kind": self.kind, "rep": self.rep.to_json()}


def block_of(w):
    w = Weight.of(w)
    if w.hbar != 0:
        return Block("nondegenerate", w)
    rep = w.h - 2 * floor(w.h / 2)
    return Block("coset", Weight(rep, 0))


def same_block(a, b):
    return block_of(a) == block_of(b)


# ---------------------------------------------------------------------------
# results

@dataclass
class ExtResult:
    lam: Weight
    mu: Weight
    category: str
    window: int
    dim: int
    stabilized: bool = False
    depths_checked: list = field(default_factory=list)
    dim_sequence: list = field(default_factory=list)
    cocycles: list = field(default_factory=list)  # {gen name: {depth: Mat}}
    note: str = ""

    def __post_init__(self):
        # a weight may be given as a Weight or an (h, hbar) pair
        self.lam, self.mu = Weight.of(self.lam), Weight.of(self.mu)

    def to_json(self):
        cocycles = []
        for phi in self.cocycles:
            entry = {}
            for gname, blocks in phi.items():
                out = _blocks_to_json(sorted(blocks.items()))
                if out:
                    entry[gname] = out
            cocycles.append(entry)
        return {"lambda": self.lam.to_json(), "mu": self.mu.to_json(),
                "category": self.category, "window": self.window,
                "dim": self.dim, "stabilized": self.stabilized,
                "depths_checked": list(self.depths_checked),
                "dim_sequence": list(self.dim_sequence),
                "note": self.note, "cocycles": cocycles}


class StabilizationError(RuntimeError):
    """Raised when the Ext dimension is not flat on three consecutive
    windows; history lists the (window, dim) pairs solved."""

    def __init__(self, lam, mu, category, history):
        self.history = history
        super().__init__("Ext^1(%s, %s) in %s is not flat on three "
                         "consecutive windows; window -> dim: %s"
                         % (lam, mu, category, history))


# ---------------------------------------------------------------------------
# the cocycle solver

def _coset_layout(lam, mu):
    """Common-coset offsets: the higher weight sits at depth 0."""
    k2 = lam.h - mu.h
    if lam.hbar != mu.hbar or k2.denominator != 1 or int(k2) % 2:
        raise ValueError("weights %s and %s do not share a coset" % (lam, mu))
    k = int(k2) // 2
    if k >= 0:
        return 0, k
    return -k, 0


def _support_extent(w):
    return int(w.h) if w.is_integral_dominant() else 0


def _default_window(lam, mu):
    offv, offw = _coset_layout(lam, mu)
    return max(offv + _support_extent(lam),
               offw + _support_extent(mu), 1) + 2


def _pair_on_coset(lam, mu, N):
    """(V, offv, W, offw): V = L(lam) and W = L(mu), each truncated to its
    part of the common coset window 0..N, with its offset there.  A
    self-pair builds its module once."""
    offv, offw = _coset_layout(lam, mu)
    V = simple_module(lam, N - offv)
    W = V if lam == mu else simple_module(mu, N - offw)
    return V, offv, W, offw


def _on_coset(mod, off, N, block):
    """(dims, act): the slice dimensions of mod placed at offset off on the
    coset window 0..N, and act[g][d] = block(g, d - off) for every slice d
    that mod fills and g maps inside the window."""
    dims = [0] * (N + 1)
    for d in range(mod.depth + 1):
        dims[off + d] = mod.dims[d]
    act = {g: {} for g in GENERATORS}
    for g, d, _ in _block_slots(dims):
        act[g][d] = block(g, d - off)
    return dims, act


def _prepare(lam, mu, category, window):
    """The weights as Weights and, for weights in different blocks, the
    zero result.  Raises ValueError for an unknown category, and for
    weights in different blocks a window below 2, which no same-block
    pair accepts either; stabilize_ext, which picks its own windows,
    passes None."""
    lam, mu = Weight.of(lam), Weight.of(mu)
    if category not in ("O", "Otilde"):
        raise ValueError("category must be 'O' or 'Otilde'")
    if same_block(lam, mu):
        return lam, mu, None
    if window is not None and window < 2:
        raise ValueError("window %d too small: no pair has a window below 2"
                         % window)
    note = ("different blocks (%s vs %s): no extensions"
            % (block_of(lam).label(), block_of(mu).label()))
    return lam, mu, ExtResult(lam, mu, category, 0, 0, stabilized=True,
                              note=note)


def ext1(lam, mu, category="O", *, window, with_cocycles=True):
    """dim Ext^1(L(lam), L(mu)) at the window depth the caller names,
    with representative cocycles.  Categories: "O" (strict) or "Otilde"
    (relaxed).  The window is required: there is no default one.

    The result of a single window is only meaningful once the dimension is
    flat across consecutive windows; use stabilize_ext for the final answer.
    Without cocycles one system is assembled and eliminated, in the faster
    rank-only layout; with them the coboundary system is built too and its
    rank checked against dim B^1 (see the module docstring).
    """
    window = exact_int(window, "window")
    lam, mu, zero = _prepare(lam, mu, category, window)
    if zero is not None:
        return zero
    offv, offw = _coset_layout(lam, mu)
    if window < max(offv, offw) + 2:
        raise ValueError("window %d too small for offsets (%d, %d)"
                         % (window, offv, offw))
    return _solve_window(lam, mu, category, window, with_cocycles)


def _add_product(rows, width, blk, left, right, scale):
    """Add the nonzeros of scale * left . X . right into the equation rows,
    where X is the unknown block blk = (offset, nrows, ncols), stored row
    major, and entry (r, c) of the product is equation rows[r * width + c].
    At most one factor is given, an integer block in sparse row form; a
    None factor is the identity, and a None block is identically zero.
    scale is an int, so every coefficient is an int."""
    if blk is None:
        return
    off, nr, nc = blk
    if left is not None:  # (L X)[r, c] = sum_i L[r, i] X[i, c]
        for r, nz in enumerate(left):
            for i, a in nz:
                coef = scale * a
                for c in range(nc):
                    row = rows[r * width + c]
                    idx = off + i * nc + c
                    row[idx] = row.get(idx, 0) + coef
    elif right is not None:  # (X R)[r, c] = sum_j X[r, j] R[j, c]
        for j, nz in enumerate(right):
            for c, b in nz:
                coef = scale * b
                for r in range(nr):
                    row = rows[r * width + c]
                    idx = off + r * nc + j
                    row[idx] = row.get(idx, 0) + coef
    else:
        for r in range(nr):
            for c in range(nc):
                row = rows[r * width + c]
                idx = off + r * nc + c
                row[idx] = row.get(idx, 0) + scale


def _transpose(block, ncols):
    """The transpose of an integer block in sparse row form with ncols
    columns, in the same form."""
    out = [[] for _ in range(ncols)]
    for r, nz in enumerate(block):
        for c, a in nz:
            out[c].append((r, a))
    return out


def _solve_window(lam, mu, category, N, with_cocycles):
    """Ext^1 of window N (same block, N validated): assemble and eliminate
    the cocycle system, and take dim B^1 in closed form (module
    docstring).  With cocycles the unknowns are laid out top first, and the
    coboundary system is assembled too, its rank checked against dim B^1,
    and representatives drawn; otherwise the layout is the rank-only one
    and no coboundary system is built."""
    V, offv, W, offw = _pair_on_coset(lam, mu, N)
    den_v, iacts_v = _integer_blocks(V)
    den_w, iacts_w = (den_v, iacts_v) if W is V else _integer_blocks(W)
    dv, av = _on_coset(V, offv, N, lambda g, n: iacts_v[g][n + 1])
    dw, aw = _on_coset(W, offw, N, lambda g, n: iacts_w[g][n + 1])
    # every equation is multiplied by L = lcm(D_V, D_W): an action block
    # N / D of V or W enters as (L / D) * N and a bracket constant c as
    # c * L, so the rows are int rows with the same solutions
    L = lcm(den_v, den_w)
    kv, kw = L // den_v, L // den_w
    gens_used = tuple(g for g in GENERATORS if not (category == "O" and g == H))

    # unknown layout: one block of scalars per (source depth, generator),
    # depth-major.  Eliminating the deepest blocks first keeps fill-in low,
    # but the column order fixes the kernel basis, so representatives need
    # the top-first order their golden files were drawn in.
    blocks = {}
    nunk = 0
    for d in (range(N + 1) if with_cocycles else range(N, -1, -1)):
        for g in gens_used:
            t = d + DEPTH_SHIFT[g]
            if dv[d] and 0 <= t <= N and dw[t]:
                blocks[(g, d)] = (nunk, dw[t], dv[d])
                nunk += dw[t] * dv[d]

    # cocycle condition on each pair and depth, as maps V_d -> W_t;
    # phi blocks outside the unknown set are identically zero, and the
    # action each existing block meets is always inside the window.  With
    # phi(h) = 0 a pair with h holds for every graded phi, and in a
    # degenerate pair so does a pair of barred generators (module
    # docstring); neither is imposed.
    system = SparseSystem(nunk)
    for a, b in _PAIRS:
        if a not in gens_used or b not in gens_used:
            continue
        if lam.hbar == 0 and BAR_DEGREE[a] and BAR_DEGREE[b]:
            continue
        sa, sb = DEPTH_SHIFT[a], DEPTH_SHIFT[b]
        for d in range(N + 1):
            t = d + sa + sb
            if max(d + sa, d + sb, t) > N:
                continue  # composite leaves the window: cannot be imposed
            if dv[d] == 0 or t < 0 or dw[t] == 0:
                continue
            rows = [{} for _ in range(dw[t] * dv[d])]
            _add_product(rows, dv[d], blocks.get((b, d)),
                         aw[a].get(d + sb), None, kw)
            _add_product(rows, dv[d], blocks.get((b, d + sa)),
                         None, av[a].get(d), -kv)
            _add_product(rows, dv[d], blocks.get((a, d + sb)),
                         None, av[b].get(d), kv)
            _add_product(rows, dv[d], blocks.get((a, d)),
                         aw[b].get(d + sa), None, -kw)
            for g, coef in _BRACKET[(a, b)]:
                _add_product(rows, dv[d], blocks.get((g, d)), None, None,
                             -coef * L)
            for row in rows:
                system.add_row(row)
    # dim B^1 = dim C^0 - dim ker d, and ker d is the scalars when
    # lam == mu and 0 otherwise
    dim_b = sum(dv[d] * dw[d] for d in range(N + 1)) - (lam == mu)
    dim = nunk - system.rank() - dim_b
    result = ExtResult(lam, mu, category, N, dim, depths_checked=[N],
                       dim_sequence=[dim])
    if not with_cocycles:
        return result

    # coboundaries d psi (g) = rho_W(g) psi - psi rho_V(g): one row per
    # basis map psi = E_(r, c) of depth d, so the factors are transposed
    bsys = SparseSystem(nunk)
    for d in range(N + 1):
        if dv[d] == 0 or dw[d] == 0:
            continue
        rows = [{} for _ in range(dw[d] * dv[d])]
        for g in gens_used:
            s = DEPTH_SHIFT[g]
            blk = blocks.get((g, d))
            if blk is not None:
                _add_product(rows, dv[d], blk, _transpose(aw[g][d], dw[d]),
                             None, kw)
            blk = blocks.get((g, d - s))
            if blk is not None:
                _add_product(rows, dv[d], blk, None,
                             _transpose(av[g][d - s], dv[d - s]), -kv)
        for row in rows:
            bsys.add_row(row)
    rank_b = bsys.rank()
    if rank_b != dim_b:
        raise RuntimeError(
            "Ext^1(%s, %s) in %s at window %d: coboundary rank %d, but "
            "dim B^1 = %d" % (lam, mu, category, N, rank_b, dim_b))
    _add_representatives(result, system, bsys, blocks)
    return result


def _add_representatives(result, system, bsys, blocks):
    """Fill result.cocycles from its window's eliminated cocycle system,
    coboundary system and unknown blocks: the kernel basis reduced modulo
    the coboundary space, first dim independent ones.  Kernel vectors are
    built one at a time and drawing stops at the dim-th representative."""
    if result.dim == 0:
        return
    reps = []
    seen = RowSpace(system.ncols)
    for v in system.kernel_vectors():
        v = bsys.reduce_vector(v)
        if any(v) and seen.add(v):
            reps.append(v)
        if len(reps) == result.dim:
            break
    if len(reps) != result.dim:
        raise RuntimeError(
            "Ext^1(%s, %s) in %s at window %d: found %d independent "
            "cocycle representatives for dimension %d"
            % (result.lam, result.mu, result.category, result.window,
               len(reps), result.dim))
    for v in reps:
        phi = {}
        for (g, d), (off, nr, nc) in sorted(blocks.items()):
            if any(v[off:off + nr * nc]):
                phi.setdefault(GEN_NAMES[g], {})[d] = Mat(
                    nr, nc, [v[off + r * nc:off + (r + 1) * nc]
                             for r in range(nr)])
        result.cocycles.append(phi)
    return result


def stabilize_ext(lam, mu, category="O", *, with_cocycles=False):
    """Ext^1 on the three windows base, base + 1 and base + 2, where base
    is the first window past both modules' supports.  Raises
    StabilizationError at the first window whose dimension differs from
    the first one's.

    Each window is solved once: the first two rank only, the third with
    cocycles when they are asked for, in the top-first layout, so a layout
    disagreement on the third window also raises StabilizationError."""
    lam, mu, zero = _prepare(lam, mu, category, None)
    if zero is not None:
        return zero
    base = _default_window(lam, mu)
    history = []
    for N in (base, base + 1, base + 2):
        result = ext1(lam, mu, category, window=N,
                      with_cocycles=with_cocycles and N == base + 2)
        history.append((N, result.dim))
        if result.dim != history[0][1]:
            raise StabilizationError(lam, mu, category, history)
    result.stabilized = True
    result.depths_checked = [N for N, _ in history]
    result.dim_sequence = [dim for _, dim in history]
    return result


def assemble_extension(result, index=0):
    """Build the block-triangular module [[W, phi], [0, V]] for one of the
    representative cocycles (slices ordered W then V at each depth).  The
    result is a TruncatedModule on the common coset window; its relation
    check is how the solver's output is validated end to end.  A phi block
    may be smaller than its slot: it fills the slot's top-left corner.  An
    index outside 0..len(result.cocycles) - 1 raises ValueError, and so
    does a phi block with no slot (its name is not a generator's, or its
    depth has no such block) or larger than its slot."""
    index = exact_int(index, "index")
    if not 0 <= index < len(result.cocycles):
        raise ValueError("cocycle index %d out of range: the result has %d "
                         "cocycles" % (index, len(result.cocycles)))
    lam, mu, N = result.lam, result.mu, result.window
    V, offv, W, offw = _pair_on_coset(lam, mu, N)
    dv, av = _on_coset(V, offv, N, V.act)
    dw, aw = _on_coset(W, offw, N, W.act)
    phi = result.cocycles[index]
    dims = [dw[d] + dv[d] for d in range(N + 1)]
    slots = {(GEN_NAMES[g], d): (dw[t], dv[d])
             for g, d, t in _block_slots(dims)}
    for gname, blocks in phi.items():
        for d, blk in blocks.items():
            slot = slots.get((gname, d))
            if slot is None:
                raise ValueError("no slot for a %r cocycle block at depth "
                                 "%r in the window 0..%d" % (gname, d, N))
            if blk.nrows > slot[0] or blk.ncols > slot[1]:
                raise ValueError("%s cocycle block at depth %d is %dx%d, "
                                 "larger than its %dx%d slot"
                                 % (gname, d, blk.nrows, blk.ncols, *slot))

    def place(mat, blk, r0, c0):
        if blk is not None:
            for r, row in enumerate(blk.rows):
                mat.rows[r0 + r][c0:c0 + blk.ncols] = row

    def block(g, d, t):
        mat = Mat.zeros(dims[t], dims[d])
        place(mat, aw[g].get(d), 0, 0)
        place(mat, av[g].get(d), dw[t], dw[d])
        place(mat, phi.get(GEN_NAMES[g], {}).get(d), 0, dw[d])
        return mat

    return TruncatedModule.build(lam if offv == 0 else mu, N, dims, block)


# ---------------------------------------------------------------------------
# quivers

@dataclass
class Quiver:
    """Gabriel quiver of a block: one vertex per simple in the window, and
    dim Ext^1(L(u), L(v)) arrows u -> v (loops included)."""
    block: Block
    category: str
    vertices: list   # (offset m, Weight, label)
    arrows: dict     # (m_from, m_to) -> dim

    def to_json(self):
        return {"block": self.block.to_json(), "category": self.category,
                "vertices": [{"offset": m, "h": str(w.h), "hbar": str(w.hbar),
                              "label": label}
                             for m, w, label in self.vertices],
                "arrows": [{"from": a, "to": b, "dim": d}
                           for (a, b), d in sorted(self.arrows.items())]}

    def to_dot(self):
        lines = ["digraph ext_quiver {",
                 '  label="Ext1 quiver: %s, category %s";'
                 % (self.block.label(), self.category),
                 "  rankdir=LR;",
                 "  node [shape=circle];"]
        for m, w, label in self.vertices:
            lines.append('  "m%+d" [label="%s"];' % (m, label))
        for (a, b), d in sorted(self.arrows.items()):
            lines.extend(['  "m%+d" -> "m%+d";' % (a, b)] * d)
        lines.append("}")
        return "\n".join(lines) + "\n"


def _offset_label(m):
    if m == 0:
        return "w"
    mag = abs(m)
    coef = "" if mag == 1 else str(mag)
    return "w%s%sa" % ("+" if m > 0 else "-", coef)


def quiver(seed, lo=-2, hi=2, category="O"):
    """Quiver of the block containing ``seed``.

    A nondegenerate weight yields a single vertex with its self-extensions
    as loops.  For an hbar = 0 coset the window is the block representative
    shifted by lo..hi alphas; every ordered pair in the window (both
    directions, so the symmetry of the table is computed rather than
    assumed) gets its stabilized Ext dimension.
    """
    seed = Weight.of(seed)
    lo, hi = exact_int(lo, "lo"), exact_int(hi, "hi")
    if lo > hi:
        raise ValueError("empty window: lo > hi")
    blk = block_of(seed)
    if blk.kind == "nondegenerate":
        vertices = [(0, blk.rep, "w")]
    else:
        vertices = [(m, blk.rep.down(-m), _offset_label(m))
                    for m in range(lo, hi + 1)]
    arrows = {}
    for m1, w1, _ in vertices:
        for m2, w2, _ in vertices:
            d = stabilize_ext(w1, w2, category).dim
            if d:
                arrows[(m1, m2)] = d
    return Quiver(blk, category, vertices, arrows)
