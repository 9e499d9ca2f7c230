"""Submodule structure of truncated highest-weight modules.

Singular vectors, submodule generation and quotients, composition-factor
multiplicities by character peeling, the uniserial filtration of the
quotients Delta/K_n, and submodule Hasse diagrams for integral dominant
Verma modules.

All of this works inside a finite depth window.  Because PBW normal forms
put raising operators on the right, the submodule generated by homogeneous
vectors is computed exactly on the visible window by closing under the six
single-generator actions; no information leaks in from below the truncation.
Characters, on the other hand, are only trusted up to ``depth - _GUARD``
wherever a statement depends on slices near the boundary.

The closure runs on integers: the action blocks are cleared of their common
denominator once per module, and integer images go straight into one
RowSpace per slice.  A submodule's actions are then read off the pivots of
those RowSpaces (see submodule), with no system solved.  hasse_diagram and
mn_filtration read only spans and dimensions, so they take the RowSpaces
of the closure and build no submodule actions at all.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, gcd

from .algebra import E, EBAR, H, HBAR, GENERATORS, DEPTH_SHIFT, exact_int
# solve_columns is imported for bench/tracer.py, which wraps it
# under this module's name
from .linalg import (Mat, RowSpace, _ZERO, _integer_vector, kernel_basis,
                     solve_columns)
from .modules import (Weight, Character, TruncatedModule, _block_slots,
                      _integer_blocks, simple_dims, verma)

__all__ = [
    "singular_vectors", "submodule", "quotient",
    "multiplicities", "MultiplicityTable",
    "mn_filtration", "FiltrationResult",
    "hasse_diagram", "SubmodulePoset",
]

# how many of the deepest slices of a truncated character are not trusted
_GUARD = 2


# ---------------------------------------------------------------------------
# singular vectors

def _slice_of(top, depth, mu):
    """(mu as a Weight, its depth d in the window 0..depth of the coset of
    top), by weight arithmetic alone.  Raises ValueError for a negative
    depth, and unless mu lies on the coset (same hbar-value, h-value
    differing from top's by a nonnegative even integer) within the
    window."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    mu = Weight.of(mu)
    if mu.hbar != top.hbar:
        raise ValueError("weight %s has the wrong hbar-value for this coset"
                         % (mu,))
    k2 = top.h - mu.h
    if k2.denominator != 1 or int(k2) % 2 != 0 or k2 < 0:
        raise ValueError("weight %s is not top - k*alpha for integer k >= 0"
                         % (mu,))
    d = int(k2) // 2
    if d > depth:
        raise ValueError("weight %s lies below the truncation window" % (mu,))
    return mu, d


def singular_vectors(module, mu):
    """Basis of the singular vectors of weight mu: joint eigenvectors of h
    and hbar killed by both raising operators.

    mu must lie on the module's coset (same hbar-value, h-value differing
    from the top by a nonnegative even integer within the window); otherwise
    a ValueError is raised.  Returns a list of coordinate vectors in the
    depth slice d of mu (possibly empty).

    Only slice d and the targets of e and ebar there are read: the blocks
    of e and ebar from d to d - 1, and of h and hbar on d.  Those blocks,
    and so the basis returned, are the same in every window that holds d,
    so a module truncated at depth d gives the answer of a deeper one.
    """
    mu, d = _slice_of(module.top, module.depth, mu)
    dim = module.dims[d]
    if dim == 0:
        return []
    stacked = (module.act(E, d).rows + module.act(EBAR, d).rows
               + (module.act(H, d) - Mat.scalar(dim, mu.h)).rows
               + (module.act(HBAR, d) - Mat.scalar(dim, mu.hbar)).rows)
    return kernel_basis(Mat(len(stacked), dim, stacked))


# ---------------------------------------------------------------------------
# submodules and quotients

def _image(block, vec):
    """An integer matrix in sparse row form times an integer vector."""
    out = []
    for row in block:
        x = 0
        for j, a in row:
            x += a * vec[j]
        out.append(x)
    return out


def _closure(module, generators, iacts):
    """The RowSpaces, one per depth, of the submodule spanned by the
    (depth, vector) generators.  iacts is _integer_blocks(module), D and the
    action blocks times D as integer rows: an image N.v is D times the
    image A.v, so the closure runs on integer vectors with the same span.
    A generator is skipped where its target slice is already full.  Raises
    ValueError for a depth outside the window or a vector of the wrong
    length."""
    N, dims = module.depth, module.dims
    acts = iacts[1]
    spaces = [RowSpace(n) for n in dims]
    work = []
    for d, vec in generators:
        d = exact_int(d, "generator depth")
        if not 0 <= d <= N:
            raise ValueError("generator depth %d outside the window 0..%d"
                             % (d, N))
        if len(vec) != dims[d]:
            raise ValueError("generator at depth %d has length %d, expected %d"
                             % (d, len(vec), dims[d]))
        vec = _integer_vector(vec)
        if spaces[d]._add_integer(vec):
            work.append((d, vec))
    while work:
        d, vec = work.pop()
        for g in GENERATORS:
            t = d + DEPTH_SHIFT[g]
            if not 0 <= t <= N or spaces[t].dim() == dims[t]:
                continue
            img = _image(acts[g][d + 1], vec)
            c = gcd(*img)
            if c == 0:
                continue
            if c > 1:
                img = [x // c for x in img]
            if spaces[t]._add_integer(img):
                work.append((t, img))
    return spaces


def submodule(module, generators):
    """Submodule generated by homogeneous vectors, as a TruncatedModule.

    ``generators`` is a list of (depth, coordinate vector) pairs; a depth
    outside 0..module.depth or a vector of the wrong length raises
    ValueError.  The result keeps the parent's coset anchor (its top
    weight), so leading slices may be zero-dimensional.  The embedding into
    the parent is attached as ``.embedding``: {depth: Mat whose columns are
    the canonical basis}.

    The actions are read off the pivots.  The canonical basis vector b_j at
    depth d is r_j / lead_j for a primitive integer row r_j, and it is 1 at
    its own pivot and 0 at the others.  The image A.b_j = N.r_j / (D
    lead_j) lies in the span at the target depth, so its coordinate on the
    target's i-th basis vector is its entry at that vector's pivot p_i:
    X[i][j] = (N[p_i] . r_j) / (D lead_j).
    """
    N = module.depth
    iacts = _integer_blocks(module)
    den, acts = iacts
    spaces = _closure(module, generators, iacts)
    dims = [space.dim() for space in spaces]
    embedding = {d: Mat(dims[d], module.dims[d], spaces[d].rows).transpose()
                 for d in range(N + 1)}

    def block(g, d, t):
        src = spaces[d]
        rows = [acts[g][d + 1][p] for p in spaces[t].pivots]
        out = [[] for _ in rows]
        for r, p in zip(src._ints, src.pivots):
            q = den * r[p]
            for row, x in zip(out, _image(rows, r)):
                row.append(Fraction(x, q) if x else _ZERO)
        return Mat._adopt(dims[t], dims[d], out)

    sub = TruncatedModule.build(module.top, N, dims, block,
                                complete=module.complete)
    sub.embedding = embedding
    return sub


def _column_space(mat):
    """The RowSpace spanned by the columns of mat."""
    space = RowSpace(mat.nrows)
    for col in mat.transpose().rows:
        space.add(col)
    return space


def quotient(module, sub):
    """Quotient of a module by a submodule carrying an ``.embedding``.

    Coordinates of the quotient at each depth are the non-pivot coordinates
    of the submodule's RREF column space; the projection kills the submodule
    exactly.  Raises ValueError if an embedding does not have the height of
    the module's slice, or if the alleged submodule is not closed under the
    action inside the window (checked on integers, like the closure).
    """
    if not hasattr(sub, "embedding"):
        raise ValueError("submodule must carry an embedding (use submodule())")
    N = module.depth
    for d in range(N + 1):
        if sub.embedding[d].nrows != module.dims[d]:
            raise ValueError("embedding at depth %d has %d rows, expected %d"
                             % (d, sub.embedding[d].nrows, module.dims[d]))
    spaces = [_column_space(sub.embedding[d]) for d in range(N + 1)]
    acts = _integer_blocks(module)[1]
    for g, d, t in _block_slots(module.dims):
        for r in spaces[d]._ints:
            if any(spaces[t]._reduce(_image(acts[g][d + 1], r))):
                raise ValueError("not a submodule: images leave the span")
    return _quotient(module, spaces)


def _quotient(module, spaces):
    """The quotient by the submodule whose slices span the given RowSpaces,
    which the caller has made closed under the action."""
    N = module.depth
    proj, kept_of, dims = {}, {}, []
    for d in range(N + 1):
        amb = module.dims[d]
        pivots, rows = spaces[d].pivots, spaces[d].rows
        kept = kept_of[d] = [c for c in range(amb) if c not in pivots]
        dims.append(len(kept))
        q = Mat.zeros(len(kept), amb)
        for r, c in enumerate(kept):
            q.rows[r][c] = Fraction(1)
            for row, p in zip(rows, pivots):
                q.rows[r][p] -= row[c]
        proj[d] = q

    def block(g, d, t):
        kept = kept_of[d]
        lifted = Mat._adopt(module.dims[t], dims[d],
                            [[row[c] for c in kept]
                             for row in module.act(g, d).rows])
        return proj[t] * lifted

    quo = TruncatedModule.build(module.top, N, dims, block,
                                complete=module.complete)
    quo.projection = proj
    return quo


# ---------------------------------------------------------------------------
# composition multiplicities by peeling

@dataclass
class MultiplicityTable:
    """Composition multiplicities [ch] = sum m_k [simple at top - k*alpha],
    read off a truncated character by peeling top to bottom.  Only depths up
    to ``trusted_depth`` were used; deeper slices of the input are ignored."""
    top: Weight
    trusted_depth: int
    entries: dict  # k -> multiplicity of the simple with top - k*alpha

    def to_json(self):
        return {"top": self.top.to_json(),
                "trusted_depth": self.trusted_depth,
                "multiplicities": {str(k): m
                                   for k, m in sorted(self.entries.items())}}


def multiplicities(ch):
    """Peel a truncated character into simple characters, top to bottom.

    At each depth k within the trusted window the residual dimension there
    is the multiplicity of the simple with highest weight top - k*alpha
    (simple characters are upper triangular against the depth grading, so
    the peeling order is forced and the answer unique).  A negative residual
    means the input was not a character of a module on this coset.
    """
    trusted = ch.depth - _GUARD
    if trusted < 0:
        raise ValueError("window too small for guard %d" % _GUARD)
    residual = [ch.dim_at(d) for d in range(trusted + 1)]
    entries = {}
    for k in range(trusted + 1):
        m = residual[k]
        if m < 0:
            raise ValueError("negative residual at depth %d: not a character "
                             "on this coset" % k)
        if m == 0:
            continue
        entries[k] = m
        sdims = simple_dims(ch.top.down(k), trusted - k)
        for d in range(k, trusted + 1):
            residual[d] -= m * sdims[d - k]
    return MultiplicityTable(ch.top, trusted, entries)


# ---------------------------------------------------------------------------
# the uniserial quotients Delta / K_n

@dataclass
class FiltrationResult:
    """Top-down filtration M = X_0 > X_1 > ... > X_k = 0 of M = Delta/K_n,
    with layer i = X_i / X_{i+1} simple of highest weight top - i*alpha."""
    top: Weight
    n: int
    depth: int
    trusted_depth: int
    layers: list            # Characters of the layers, top-down
    uniserial: bool
    certificate: dict = field(default_factory=dict)


def _dominant_top(top):
    """(top as a Weight, n = top(h) as an int); raises ValueError unless
    top is integral dominant: top(hbar) = 0 and top(h) >= 0 an integer."""
    top = Weight.of(top)
    if not top.is_integral_dominant():
        raise ValueError("top weight must have hbar-value 0 and h-value a "
                         "nonnegative integer, got %s" % (top,))
    return top, int(top.h)


def mn_filtration(top):
    """Filtration certificate for M_n = Delta(top) / <f^(n+1) v>.

    ``top`` must be integral dominant: top(hbar) = 0 and top(h) = n a
    nonnegative integer.  The module M_n is uniserial with
    ceil((n+1)/2) layers, the i-th layer from the top being the simple of
    highest weight top - i*alpha; this function builds the chain
    X_i = image of <fbar^i v> and certifies both the layer characters and
    uniseriality (each successive quotient has exactly one singular line
    generating a character-simple submodule).  The window has depth
    n + _GUARD + 3, and the layers are trusted through depth n + 3.
    """
    top, n = _dominant_top(top)
    depth = n + _GUARD + 3
    trusted = depth - _GUARD
    k = ceil((n + 1) / 2)
    delta = verma(top, depth)
    kn = submodule(delta, [(n + 1, [Fraction(1)] + [Fraction(0)] * (n + 1))])
    mn = quotient(delta, kn)

    # the chain X_0 = M_n  >  X_1  >  ...  >  X_k = 0, each X_i as the
    # RowSpaces of its slices
    mn_acts = _integer_blocks(mn)
    chain = []
    for i in range(k + 1):
        # the image of fbar^i v, the i-th basis vector at depth i
        gen = [row[i] for row in mn.projection[i].rows]
        if all(x == 0 for x in gen):
            chain.append(None)  # the zero submodule
        else:
            chain.append(_closure(mn, [(i, gen)], mn_acts))
    cert = {"layer_characters_match": True, "chain_strictly_decreasing": True,
            "terminates_at_zero": chain[-1] is None,
            "unique_simple_socle": True}

    def dims_of(x):
        return [0] * (depth + 1) if x is None else [s.dim() for s in x]

    if dims_of(chain[0]) != mn.dims:
        cert["chain_strictly_decreasing"] = False  # X_0 must be all of M_n
    layers = []
    for i in range(k):
        xi, xi1 = dims_of(chain[i]), dims_of(chain[i + 1])
        ldims = {d: xi[d] - xi1[d] for d in range(trusted + 1)}
        layers.append(Character(top.down(i), trusted,
                                {d - i: m for d, m in ldims.items() if m}))
        expected = simple_dims(top.down(i), trusted - i)
        if [ldims.get(d + i, 0) for d in range(trusted + 1 - i)] != expected:
            cert["layer_characters_match"] = False
        if sum(xi[d] for d in range(trusted + 1)) <= \
           sum(xi1[d] for d in range(trusted + 1)):
            cert["chain_strictly_decreasing"] = False

    # uniseriality: in each successive quotient M_n / X_{i+1}, exactly one
    # singular line generates a submodule whose character is simple
    for i in range(k):
        if chain[i + 1] is None:
            stage = mn
        else:
            stage = _quotient(mn, chain[i + 1])
        stage_acts = _integer_blocks(stage)
        candidates = 0
        for j in range(trusted + 1):
            if stage.dims[j] == 0:
                continue
            for vec in singular_vectors(stage, top.down(j)):
                gen = _closure(stage, [(j, vec)], stage_acts)
                sdims = simple_dims(top.down(j), trusted - j)
                if [gen[d + j].dim() for d in range(trusted + 1 - j)] == sdims:
                    candidates += 1
        if candidates != 1:
            cert["unique_simple_socle"] = False
    ok = all(cert.values())
    return FiltrationResult(top, n, depth, trusted, layers, ok, cert)


# ---------------------------------------------------------------------------
# Hasse diagram of the known submodules of an integral dominant Verma

@dataclass
class SubmodulePoset:
    """Covering diagram of the standard submodules of Delta(top):
    the embedded Vermas V_i = <fbar^i v> and the kernels K_m = <f^(m+1)
    fbar^((n-m)/2) v>, ordered by inclusion inside the window."""
    top: Weight
    depth: int
    nodes: list       # (label, kind, generator depth, dims list)
    edges: list       # (upper label, lower label) covering pairs

    def to_json(self):
        return {"top": self.top.to_json(), "depth": self.depth,
                "nodes": [{"label": l, "kind": k, "generator_depth": d,
                           "dims": dims} for l, k, d, dims in self.nodes],
                "edges": [list(e) for e in self.edges]}

    def to_dot(self):
        lines = ["digraph submodules {",
                 "  // covering relations, larger module on top",
                 "  rankdir=TB;",
                 "  node [shape=box];"]
        for label, kind, gdepth, dims in self.nodes:
            total = sum(dims)
            lines.append('  "%s" [label="%s\\ndim %d in window"];'
                         % (label, label, total))
        for up, down in self.edges:
            lines.append('  "%s" -> "%s";' % (up, down))
        lines.append("}")
        return "\n".join(lines) + "\n"


def hasse_diagram(top):
    """Hasse diagram of the embedded Vermas and the kernels K_m inside the
    integral dominant Verma module Delta(top), computed by explicit
    generation and pairwise span comparison inside the window.

    With n = top(h) and k = floor(n/2), the nodes are V_i = submodule
    generated by fbar^i v (an embedded Verma of highest weight
    top - i*alpha), for i = 0..k+2; and K_m = submodule generated by
    f^(m+1) fbar^((n-m)/2) v for m = n, n-2, ..., n-2k (the kernels of the
    maps onto the uniserial quotients), in the window of depth n + k + 5.
    """
    top, n = _dominant_top(top)
    k = n // 2  # deepest i with K_{n-2i} distinct
    depth = n + k + 5
    delta = verma(top, depth)
    delta_acts = _integer_blocks(delta)

    def generated(d, i):
        """The RowSpaces of the submodule generated by the basis vector
        f^(d-i) fbar^i v."""
        vec = [0] * delta.dims[d]
        vec[i] = 1
        return _closure(delta, [(d, vec)], delta_acts)

    mods = {}  # label -> (kind, generator depth, RowSpaces of the slices)
    for i in range(k + 3):
        mods["V%d" % i] = ("verma", i, generated(i, i))
    for i in range(k + 1):
        m = n - 2 * i
        d = m + 1 + i
        mods["K%d" % m] = ("kernel", d, generated(d, i))
    labels = sorted(mods)

    def leq(a, b):  # a contained in b
        sa, sb = mods[a][2], mods[b][2]
        if any(x.dim() > y.dim() for x, y in zip(sa, sb)):
            return False
        return all(y.contains_space(x) for x, y in zip(sa, sb))

    strict = {(a, b) for a in labels for b in labels
              if a != b and leq(a, b) and not leq(b, a)}
    edges = []
    for a, b in strict:  # b covers a unless something sits strictly between
        if not any((a, c) in strict and (c, b) in strict for c in labels):
            edges.append((b, a))
    nodes = [(label, mods[label][0], mods[label][1],
              [space.dim() for space in mods[label][2]])
             for label in labels]
    order = {"verma": 0, "kernel": 1}
    nodes.sort(key=lambda t: (order[t[1]], t[2]))
    edges.sort()
    return SubmodulePoset(top, depth, nodes, edges)
