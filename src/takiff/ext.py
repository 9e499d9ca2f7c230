"""Blocks, first extensions between simples, and the resulting quivers.

Ext^1(L(lam), L(mu)) is computed as graded Lie-algebra 1-cocycles modulo
1-coboundaries.  A cochain assigns to each generator g a linear map
V -> W shifting the common coset grading by g's depth shift; the cocycle
condition

    phi([a,b]) = rho_W(a) phi(b) - phi(b) rho_V(a)
               + phi(a) rho_V(b) - rho_W(b) phi(a)

is imposed for all 15 generator pairs on every depth slice whose composites
stay inside the truncation window, and coboundaries are the maps
d psi (g) = rho_W(g) psi - psi rho_V(g) for depth-preserving psi.  This is
exactly the condition for the block-triangular matrices [[W, phi], [0, V]]
to define a module extending V by W.

Two category flavors: in the strict one ("O") the extension must stay
h-semisimple, which forces phi(h) = 0 (on a common coset both modules give
h the same scalar on aligned slices, and a Jordan block above a scalar is
never diagonalizable), so the phi(h) unknowns are simply dropped.  The
relaxed flavor ("Otilde") keeps them.

Pairs of simples in different blocks admit no extensions (their central
characters differ), so ext1 short-circuits to 0 unless the two weights are
equal nondegenerate weights or lie in one hbar = 0 coset.

Truncation is handled by running the computation at three consecutive
window depths and requiring the dimension to be flat; each window is solved
once, and representatives come from the deepest of the three.  The starting
window is sized past both modules' supports and slides upward (to the cap
given by the environment variable TAKIFF_DEPTH_CAP, default 40) if not yet
flat.

The unknowns are laid out in blocks, one per (source depth, generator), in
one of two depth orders.  A solve that draws representatives lays them out
top depth first: the column order decides which unknowns are free, so it
decides the kernel basis and with it the representatives (and the golden
cocycle files).  A solve that reads only ranks, that is ext1 and
stabilize_ext without cocycles, lays them out deepest depth first.  Ranks
do not depend on the order, and eliminating the deep, wide slices first
leaves far less fill-in (measurements in BENCH_colorder.json).

Both systems are assembled and eliminated on Python ints.  The action
blocks of V and W are cleared of denominators once (N / D with N an
integer matrix), and every equation is multiplied by L = lcm(D_V, D_W):
an action block enters as (L / D) * N and a bracket constant c as c * L.
A homogeneous row means the same up to a nonzero scale, so the solutions,
pivots and ranks are those of the rational system.  The eliminated
systems build their Fraction rows only when representatives are drawn
(measurements in BENCH_intext.json).
"""

import os
from dataclasses import dataclass, field
from math import floor, lcm

from .algebra import (H, GENERATORS, GEN_NAMES, DEPTH_SHIFT, _BRACKET,
                      _PAIRS, exact_int)
from .linalg import Mat, RowSpace, SparseSystem
from .modules import Weight, _integer_blocks, simple_module

__all__ = [
    "Block", "block_of", "same_block", "ext1", "stabilize_ext", "ExtResult",
    "StabilizationError", "assemble_extension", "quiver", "Quiver",
    "DEFAULT_DEPTH_CAP", "depth_cap",
]

DEFAULT_DEPTH_CAP = 40


def depth_cap():
    raw = os.environ.get("TAKIFF_DEPTH_CAP")
    if raw is None:
        return DEFAULT_DEPTH_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError("TAKIFF_DEPTH_CAP must be a positive integer, "
                         "got %r" % raw)
    return cap


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
    if not isinstance(w, Weight):
        w = Weight(*w)
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
    dims_v: list = field(default_factory=list)    # coset-graded dimensions
    dims_w: list = field(default_factory=list)
    # (cocycle system, coboundary system, unknown blocks) of a window solved
    # in the cocycle layout, eliminated, until _add_representatives draws
    # the cocycles from them
    _solved: tuple = field(default=None, init=False, repr=False,
                           compare=False)

    def to_json(self):
        cocycles = []
        for phi in self.cocycles:
            entry = {}
            for gname, blocks in phi.items():
                out = []
                for d in sorted(blocks):
                    ents = blocks[d].nonzero_entries()
                    if ents:
                        out.append({"from_depth": d, "entries": ents})
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
    """Raised when the Ext dimension keeps drifting with the window depth."""

    def __init__(self, lam, mu, category, history, note=None):
        self.history = history
        msg = ("Ext^1(%s, %s) in %s did not stabilize within the depth cap; "
               "window -> dim: %s" % (lam, mu, category, history))
        if note:
            msg = "Ext^1(%s, %s) in %s: %s" % (lam, mu, category, note)
        super().__init__(msg)


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
    act = {}
    for g in GENERATORS:
        s = DEPTH_SHIFT[g]
        act[g] = {d: block(g, d - off) for d in range(N + 1)
                  if dims[d] and 0 <= d + s <= N}
    return dims, act


def _prepare(lam, mu, category):
    """The weights as Weights and, for weights in different blocks, the
    zero result; raises ValueError for an unknown category."""
    if not isinstance(lam, Weight):
        lam = Weight(*lam)
    if not isinstance(mu, Weight):
        mu = Weight(*mu)
    if category not in ("O", "Otilde"):
        raise ValueError("category must be 'O' or 'Otilde'")
    if same_block(lam, mu):
        return lam, mu, None
    note = ("different blocks (%s vs %s): no extensions"
            % (block_of(lam).label(), block_of(mu).label()))
    return lam, mu, ExtResult(lam, mu, category, 0, 0, stabilized=True,
                              note=note)


def ext1(lam, mu, category="O", window=None, with_cocycles=True, *,
         _defer_cocycles=False):
    """dim Ext^1(L(lam), L(mu)) at one window depth, with representative
    cocycles.  Categories: "O" (strict) or "Otilde" (relaxed).

    The result of a single window is only meaningful once the dimension is
    flat across consecutive windows; use stabilize_ext for the final answer.
    Without cocycles the window is solved in the faster rank-only layout
    (see the module docstring).  stabilize_ext passes _defer_cocycles to
    solve a window in the cocycle layout but draw its representatives only
    once it is known to be the final window.
    """
    if window is not None:
        window = exact_int(window, "window")
    lam, mu, zero = _prepare(lam, mu, category)
    if zero is not None:
        return zero
    offv, offw = _coset_layout(lam, mu)
    N = _default_window(lam, mu) if window is None else window
    if N < max(offv, offw) + 2:
        raise ValueError("window %d too small for offsets (%d, %d)"
                         % (N, offv, offw))
    result = _solve_window(lam, mu, category, N, with_cocycles)
    if with_cocycles and not _defer_cocycles:
        _add_representatives(result)
    return result


def _factor_terms(block, n, scale, memo):
    """The nonzeros (row, column, scale * value) of an integer block in the
    sparse row form of modules._integer_blocks, or of the n x n identity
    when block is None, listed once per memo dict.  The memo also keeps
    block referenced, so that no other block can take its id."""
    key = (id(block), n, scale)
    hit = memo.get(key)
    if hit is None:
        if block is None:
            terms = [(k, k, scale) for k in range(n)]
        else:
            terms = [(r, c, scale * a) for r, nz in enumerate(block)
                     for c, a in nz]
        hit = memo[key] = (block, terms)
    return hit[1]


def _add_product(rows, width, blk, left, right, scale, memo=None):
    """Add the nonzeros of scale * left . X . right into the equation rows,
    where X is the unknown block blk = (offset, nrows, ncols), stored row
    major, and entry (r, c) of the product is equation rows[r * width + c].
    The factors are integer blocks in sparse row form and scale is an int,
    so every coefficient is an int.  A None factor is the identity; a None
    block is identically zero.  Calls that share a memo dict list each
    factor's nonzeros once."""
    if blk is None:
        return
    off, nr, nc = blk
    if memo is None:
        memo = {}
    # the scale rides on a factor that is not the identity, so only the
    # product of two given factors multiplies per equation entry
    lterms = _factor_terms(left, nr, scale if right is None else 1, memo)
    rterms = _factor_terms(right, nc, 1 if right is None else scale, memo)
    for r, i, a in lterms:
        for j, c, b in rterms:
            coef = a if right is None else b if left is None else a * b
            row = rows[r * width + c]
            idx = off + i * nc + j
            row[idx] = row.get(idx, 0) + coef


def _transpose(block, ncols):
    """The transpose of an integer block in sparse row form with ncols
    columns, in the same form."""
    out = [[] for _ in range(ncols)]
    for r, nz in enumerate(block):
        for c, a in nz:
            out[c].append((r, a))
    return out


def _solve_window(lam, mu, category, N, top_first):
    """Assemble and eliminate the cocycle and coboundary systems of window
    N (same block, N validated).  top_first picks the layout that
    representatives are drawn in, and then the result carries the
    eliminated systems so they can be drawn later without solving again;
    otherwise the layout is the rank-only one and the systems are dropped."""
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
    for d in (range(N + 1) if top_first else range(N, -1, -1)):
        for g in gens_used:
            t = d + DEPTH_SHIFT[g]
            if dv[d] and 0 <= t <= N and dw[t]:
                blocks[(g, d)] = (nunk, dw[t], dv[d])
                nunk += dw[t] * dv[d]

    # each action block is met by many equations: list its nonzeros once
    # per sign
    memo = {}

    # cocycle condition on each pair and depth, as maps V_d -> W_t;
    # phi blocks outside the unknown set are identically zero, and the
    # action each existing block meets is always inside the window
    system = SparseSystem(nunk)
    for a, b in _PAIRS:
        sa, sb = DEPTH_SHIFT[a], DEPTH_SHIFT[b]
        for d in range(N + 1):
            t = d + sa + sb
            if max(d + sa, d + sb, t) > N:
                continue  # composite leaves the window: cannot be imposed
            if dv[d] == 0 or t < 0 or dw[t] == 0:
                continue
            rows = [{} for _ in range(dw[t] * dv[d])]
            _add_product(rows, dv[d], blocks.get((b, d)),
                         aw[a].get(d + sb), None, kw, memo)
            _add_product(rows, dv[d], blocks.get((b, d + sa)),
                         None, av[a].get(d), -kv, memo)
            _add_product(rows, dv[d], blocks.get((a, d + sb)),
                         None, av[b].get(d), kv, memo)
            _add_product(rows, dv[d], blocks.get((a, d)),
                         aw[b].get(d + sa), None, -kw, memo)
            for g, coef in _BRACKET[(a, b)]:
                _add_product(rows, dv[d], blocks.get((g, d)), None, None,
                             -coef * L, memo)
            for row in rows:
                system.add_row(row)
    dim_z = nunk - system.rank()

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
    dim = dim_z - bsys.rank()

    result = ExtResult(lam, mu, category, N, dim,
                       depths_checked=[N], dim_sequence=[dim],
                       dims_v=dv, dims_w=dw)
    if top_first:
        result._solved = (system, bsys, blocks)
    return result


def _add_representatives(result):
    """Fill result.cocycles from its window's eliminated systems: the
    kernel basis reduced modulo the coboundary space, first dim independent
    ones.  Kernel vectors are built one at a time and drawing stops at the
    dim-th representative.  Releases the systems."""
    system, bsys, blocks = result._solved
    result._solved = None
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


def stabilize_ext(lam, mu, category="O", start=None, cap=None,
                  with_cocycles=False):
    """Ext^1 with the truncation window slid until the dimension is flat on
    three consecutive depths.  Raises StabilizationError at the depth cap."""
    if start is not None:
        start = exact_int(start, "start")
    if cap is not None:
        cap = exact_int(cap, "cap")
    lam, mu, zero = _prepare(lam, mu, category)
    if zero is not None:
        return zero
    cap = depth_cap() if cap is None else cap
    base = _default_window(lam, mu) if start is None else start
    results = {}  # window -> its ExtResult, each window solved once

    if base + 2 > cap:
        raise StabilizationError(
            lam, mu, category, [],
            note="depth cap %d leaves no room for windows %d..%d"
                 % (cap, base, base + 2))
    N = base
    while N + 2 <= cap:
        for M in (N, N + 1, N + 2):
            if M not in results:
                results[M] = ext1(lam, mu, category, window=M,
                                  with_cocycles=with_cocycles,
                                  _defer_cocycles=True)
        seq = [results[M].dim for M in (N, N + 1, N + 2)]
        if seq[0] == seq[1] == seq[2]:
            final = results[N + 2]
            if with_cocycles:
                _add_representatives(final)
            final.stabilized = True
            final.depths_checked = [N, N + 1, N + 2]
            final.dim_sequence = seq
            return final
        results[N]._solved = None  # window N takes no further part
        N += 1
    raise StabilizationError(lam, mu, category,
                             [(M, results[M].dim) for M in sorted(results)])


def assemble_extension(result, index=0):
    """Build the block-triangular module [[W, phi], [0, V]] for one of the
    representative cocycles (slices ordered W then V at each depth).  The
    result is a TruncatedModule on the common coset window; its relation
    check is how the solver's output is validated end to end.  A phi block
    may be smaller than its slot: it fills the slot's top-left corner."""
    from .modules import TruncatedModule
    lam, mu, N = result.lam, result.mu, result.window
    V, offv, W, offw = _pair_on_coset(lam, mu, N)
    dv, av = _on_coset(V, offv, N, V.act)
    dw, aw = _on_coset(W, offw, N, W.act)
    phi = result.cocycles[index] if result.cocycles else {}
    dims = [dw[d] + dv[d] for d in range(N + 1)]
    actions = {g: {} for g in GENERATORS}
    anchor = lam if offv == 0 else mu

    def place(mat, blk, r0, c0):
        if blk is not None:
            for r, row in enumerate(blk.rows):
                mat.rows[r0 + r][c0:c0 + blk.ncols] = row

    for g in GENERATORS:
        s = DEPTH_SHIFT[g]
        gblocks = phi.get(GEN_NAMES[g], {})
        for d in range(N + 1):
            t = d + s
            if dims[d] == 0 or not (0 <= t <= N):
                continue
            mat = Mat.zeros(dims[t], dims[d])
            place(mat, aw[g].get(d), 0, 0)
            place(mat, av[g].get(d), dw[t], dw[d])
            place(mat, gblocks.get(d), 0, dw[d])
            actions[g][d] = mat
    return TruncatedModule(anchor, N, dims, actions, complete=False,
                           label="extension")


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


def quiver(seed, lo=-2, hi=2, category="O", cap=None):
    """Quiver of the block containing ``seed``.

    A nondegenerate weight yields a single vertex with its self-extensions
    as loops.  For an hbar = 0 coset the window is the block representative
    shifted by lo..hi alphas; every ordered pair in the window (both
    directions, so the symmetry of the table is computed rather than
    assumed) gets its stabilized Ext dimension.
    """
    if not isinstance(seed, Weight):
        seed = Weight(*seed)
    lo, hi = exact_int(lo, "lo"), exact_int(hi, "hi")
    blk = block_of(seed)
    if blk.kind == "nondegenerate":
        vertices = [(0, blk.rep, "w")]
    else:
        if lo > hi:
            raise ValueError("empty window: lo > hi")
        vertices = [(m, blk.rep.down(-m), _offset_label(m))
                    for m in range(lo, hi + 1)]
    arrows = {}
    for m1, w1, _ in vertices:
        for m2, w2, _ in vertices:
            d = stabilize_ext(w1, w2, category, cap=cap).dim
            if d:
                arrows[(m1, m2)] = d
    return Quiver(blk, category, vertices, arrows)
