"""Self-checks: recompute the package's headline results and compare them
against independently derived expected values.

Each check is a plain function returning (ok, detail).  The expected values
come from closed-form calculations done by hand (characters, multiplicities,
Ext dimensions, the quiver arrow rule), so a check failing means the engine
and the hand calculation disagree.  ``run_all`` drives them; the CLI's
``paper-check`` subcommand prints one line per check.
"""

import random
from fractions import Fraction
from math import ceil
from time import perf_counter

from .algebra import (GENERATORS, GEN_NAMES, HBAR, casimir, lie_bracket,
                      straighten_word)
from .modules import (Weight, verma, closed_character, character,
                      dualize, casimir_scalar, casimir_action)
from .structure import (singular_vectors, multiplicities, mn_filtration,
                        hasse_diagram)
from .ext import same_block, stabilize_ext, quiver


# ---------------------------------------------------------------------------
# shared expected values (also imported by the test suite)

# (lam, mu, category) -> stabilized dim Ext^1(L(lam), L(mu))
EXT_TABLE = [
    ((0, 0), (0, 0), "O", 0),
    ((0, 0), (0, 0), "Otilde", 0),
    ((Fraction(1, 2), 0), (Fraction(1, 2), 0), "O", 1),
    ((Fraction(1, 2), 0), (Fraction(1, 2), 0), "Otilde", 2),
    ((-4, 0), (-4, 0), "O", 1),
    ((-4, 0), (-4, 0), "Otilde", 2),
    ((Fraction(1, 2), 0), (Fraction(-3, 2), 0), "O", 1),
    ((Fraction(1, 2), 0), (Fraction(-3, 2), 0), "Otilde", 1),
    ((Fraction(-3, 2), 0), (Fraction(1, 2), 0), "O", 1),
    ((Fraction(-3, 2), 0), (Fraction(1, 2), 0), "Otilde", 1),
    ((0, 0), (-2, 0), "O", 1),
    ((0, 0), (-2, 0), "Otilde", 1),
    ((-2, 0), (0, 0), "O", 1),
    ((-2, 0), (0, 0), "Otilde", 1),
    ((1, 0), (-3, 0), "O", 1),
    ((1, 0), (-3, 0), "Otilde", 1),
    ((2, 0), (-4, 0), "O", 1),
    ((2, 0), (-4, 0), "Otilde", 1),
    ((2, 0), (-2, 0), "O", 0),
    ((2, 0), (-2, 0), "Otilde", 0),
    ((3, 0), (3, 0), "O", 1),
    ((3, 0), (3, 0), "Otilde", 1),
    ((1, 0), (1, 0), "O", 1),
    ((1, 0), (1, 0), "Otilde", 1),
    ((3, 0), (1, 0), "O", 1),
    ((3, 0), (1, 0), "Otilde", 1),
    ((1, 0), (3, 0), "O", 1),
    ((1, 0), (3, 0), "Otilde", 1),
    ((Fraction(1, 2), 0), (Fraction(-7, 2), 0), "O", 0),
    ((Fraction(1, 2), 0), (Fraction(-7, 2), 0), "Otilde", 0),
    ((3, 1), (3, 1), "O", 1),
    ((3, 1), (3, 1), "Otilde", 2),
]

# top weight -> multiplicity table of the Verma character, trusted depth 8
MULTIPLICITY_TABLES = {
    (0, 0): {0: 1, 1: 2, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1},
    (1, 0): {0: 1, 1: 1, 2: 2, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1},
    (2, 0): {0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1},
    (Fraction(1, 2), 0): {d: 1 for d in range(9)},
    (3, Fraction(2, 5)): {0: 1},
}

HASSE_N4_EDGES = [
    ("K0", "V3"), ("K2", "K0"), ("K4", "K2"),
    ("V0", "K4"), ("V0", "V1"), ("V1", "K2"),
    ("V1", "V2"), ("V2", "K0"), ("V3", "V4"),
]

# quiver windows regenerated by check_quiver_rule and the golden-file test:
# (name, seed weight, lo, hi)
QUIVER_WINDOWS = [
    ("coset_even", Weight(0, 0), -3, 2),
    ("coset_odd", Weight(1, 0), -3, 2),
    ("coset_half", Weight(Fraction(1, 2), 0), -2, 2),
    ("nondegenerate", Weight(3, 1), 0, 0),
]


def expected_arrow_dim(w1, w2, category):
    """Closed-form count of quiver arrows L(w1) -> L(w2), both weights in
    one block.

    Within a degenerate (hbar = 0) coset, writing t1 = w1(h), t2 = w2(h):

    * loop (t1 = t2 = t): none at t = 0; one for t a positive integer;
      otherwise one in O and two in Otilde;
    * t1 + t2 = -2 (the pair {n, -n-2} joined by a singular vector): one
      arrow each way in both categories;
    * neighbours (|t1 - t2| = 2) otherwise: one arrow each way -- except
      the unjoined pair {-1, +1}, which gets none;
    * anything further apart: none.

    A nondegenerate weight only pairs with itself: one loop in O, two in
    Otilde.
    """
    if not same_block(w1, w2):
        return 0
    if w1.hbar != 0:
        return 1 if category == "O" else 2
    t1, t2 = w1.h, w2.h
    if t1 == t2:
        if t1 == 0:
            return 0
        if t1.denominator == 1 and t1 > 0:
            return 1
        return 1 if category == "O" else 2
    if t1 + t2 == -2:
        return 1
    if abs(t1 - t2) == 2:
        lo, hi = min(t1, t2), max(t1, t2)
        if lo.denominator == 1 and lo < 0 <= hi:
            return 0  # the pair {-1, +1}
        return 1
    return 0


# ---------------------------------------------------------------------------
# the checks

def check_bracket_axioms():
    """Antisymmetry and the Jacobi identity over all generator pairs and
    triples."""
    for a in GENERATORS:
        for b in GENERATORS:
            ab = lie_bracket(a, b)
            ba = lie_bracket(b, a)
            if {g: -c for g, c in ba.items()} != ab:
                return False, "[%s,%s] != -[%s,%s]" % (
                    GEN_NAMES[a], GEN_NAMES[b], GEN_NAMES[b], GEN_NAMES[a])
    for a in GENERATORS:
        for b in GENERATORS:
            for c in GENERATORS:
                total = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    inner = lie_bracket(y, z)
                    for g, cf in inner.items():
                        for g2, cf2 in lie_bracket(x, g).items():
                            total[g2] = total.get(g2, Fraction(0)) + cf * cf2
                if any(v for v in total.values()):
                    return False, "Jacobi fails at (%s,%s,%s)" % (
                        GEN_NAMES[a], GEN_NAMES[b], GEN_NAMES[c])
    return True, "36 antisymmetry pairs, 216 Jacobi triples"


def check_casimir_central():
    """The quadratic element commutes with every generator in the envelope."""
    c = casimir()
    for g in GENERATORS:
        gelt = straighten_word((g,))
        if c * gelt - gelt * c:
            return False, "casimir does not commute with %s" % GEN_NAMES[g]
    return True, "commutes with all 6 generators"


def check_verma_dimensions():
    """Depth-n slice of a Verma module has dimension n + 1 regardless of the
    highest weight."""
    rng = random.Random(20260817)
    depth = 30
    for i in range(10):
        lam = Weight(Fraction(rng.randrange(-12, 13), rng.choice((1, 2, 3))),
                     Fraction(rng.randrange(-12, 13), rng.choice((1, 2, 3))))
        m = verma(lam, depth)
        if m.dims != [d + 1 for d in range(depth + 1)]:
            return False, "bad slice dims for %s: %s" % (lam, m.dims)
    return True, "10 weights, window 30, slice dims 1..31"


def check_depth_one_hbar():
    """On the depth-one slice, spanned by (f v, fbar v), hbar acts by the
    lower-triangular matrix [[hbar, 0], [-2, hbar]]."""
    for lam in (Weight(0, 0), Weight(3, 1), Weight(Fraction(1, 2),
                                                   Fraction(-5, 7))):
        m = verma(lam, 1)
        a = m.act(HBAR, 1)
        want = [[lam.hbar, Fraction(0)], [Fraction(-2), lam.hbar]]
        if a.rows != want:
            return False, "hbar at depth 1 for %s is %s" % (lam, a.rows)
    return True, "[[hbar, 0], [-2, hbar]] at three sample weights"


def check_simplicity():
    """A Verma is simple iff hbar is nonzero: no singular vectors below the
    top when hbar != 0; fbar v singular when hbar = 0."""
    rng = random.Random(1129)
    depth = 6
    for i in range(20):
        lam = Weight(Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3))),
                     Fraction(rng.choice([x for x in range(-6, 7) if x]),
                              rng.choice((1, 2, 3))))
        m = verma(lam, depth)
        for d in range(1, depth - 1):
            if singular_vectors(m, lam.down(d)):
                return False, ("nondegenerate Verma %s has a singular vector "
                               "at depth %d" % (lam, d))
    for i in range(20):
        lam = Weight(Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3))),
                     0)
        m = verma(lam, 3)
        sing = singular_vectors(m, lam.down(1))
        # the line through fbar v, i.e. coordinates (0, 1) in (f v, fbar v)
        if len(sing) != 1 or sing[0][0] != 0 or sing[0][1] == 0:
            return False, ("degenerate Verma %s: singular space at depth 1 "
                           "is %s, expected the fbar v line" % (lam, sing))
    return True, "20 nondegenerate tops simple, 20 degenerate tops not"


def check_casimir_scalar():
    """On a Verma with top lam the Casimir acts by hbar * (h + 2)."""
    rng = random.Random(777)
    for i in range(20):
        lam = Weight(Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3))),
                     Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3))))
        m = verma(lam, 5)
        s = casimir_scalar(lam)
        for n in range(4):
            a = casimir_action(m, n)
            for r in range(a.nrows):
                for c in range(a.ncols):
                    if a.rows[r][c] != (s if r == c else 0):
                        return False, ("casimir not scalar %s on Verma %s "
                                       "at depth %d" % (s, lam, n))
    return True, "scalar hbar*(h+2) at 20 random weights"


def check_multiplicities():
    """Composition multiplicities of Verma characters, by peeling, read
    off the closed-form Verma dimensions."""
    for top, want in MULTIPLICITY_TABLES.items():
        mt = multiplicities(closed_character(top, 10, "verma"))
        if dict(mt.entries) != want:
            return False, "multiplicities at %s: %s != %s" % (
                top, dict(mt.entries), want)
    return True, "%d frozen tables match" % len(MULTIPLICITY_TABLES)


def check_uniserial():
    """Delta(n)/<f^(n+1) v> is uniserial with ceil((n+1)/2) layers, the i-th
    layer simple of highest weight n - 2i."""
    for n in range(7):
        fr = mn_filtration(Weight(n, 0))
        layers = ceil((n + 1) / 2)
        if not fr.uniserial:
            return False, "n=%d: not uniserial: %s" % (n, fr.certificate)
        if len(fr.layers) != layers:
            return False, "n=%d: %d layers, expected %d" % (
                n, len(fr.layers), layers)
        for i, ch in enumerate(fr.layers):
            if ch.top != Weight(n - 2 * i, 0):
                return False, "n=%d: layer %d has top %s" % (n, i, ch.top)
    return True, "n = 0..6 uniserial with ceil((n+1)/2) layers"


def check_hasse_n4():
    """The submodule diagram of Delta(4) restricted to the standard
    generators has the expected nine covering relations."""
    hd = hasse_diagram(Weight(4, 0))
    got = sorted(hd.edges)
    if got != sorted(HASSE_N4_EDGES):
        return False, "edges %s != %s" % (got, sorted(HASSE_N4_EDGES))
    labels = sorted(n[0] for n in hd.nodes)
    want_labels = sorted(["V0", "V1", "V2", "V3", "V4", "K0", "K2", "K4"])
    if labels != want_labels:
        return False, "nodes %s" % labels
    return True, "8 nodes, 9 covering relations"


def check_ext_table():
    """Stabilized Ext^1 dimensions between simples, both categories."""
    for (lh, lb), (mh, mb), cat, want in EXT_TABLE:
        r = stabilize_ext(Weight(lh, lb), Weight(mh, mb), cat)
        if r.dim != want:
            return False, "Ext(%s,%s ; %s,%s) in %s = %d, expected %d" % (
                lh, lb, mh, mb, cat, r.dim, want)
    return True, "%d table entries match" % len(EXT_TABLE)


def check_quiver_rule():
    """Quiver arrows computed by the solver against the closed-form rule,
    over three coset windows and a nondegenerate block."""
    pairs = 0
    for _name, seed, lo, hi in QUIVER_WINDOWS:
        for cat in ("O", "Otilde"):
            q = quiver(seed, lo=lo, hi=hi, category=cat)
            verts = {m: w for m, w, _ in q.vertices}
            for m1, w1 in verts.items():
                for m2, w2 in verts.items():
                    want = expected_arrow_dim(w1, w2, cat)
                    got = q.arrows.get((m1, m2), 0)
                    pairs += 1
                    if got != want:
                        return False, ("block %s %s: arrows %s -> %s = %d, "
                                       "rule says %d" % (q.block.label(), cat,
                                                         w1, w2, got, want))
    return True, "%d ordered vertex pairs match the closed form" % pairs


def check_duality_and_symmetry():
    """The duality functor is an involution fixing characters, and Ext^1
    between simples is symmetric in its arguments."""
    rng = random.Random(4242)
    for i in range(10):
        lam = Weight(Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3))),
                     Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3))))
        m = verma(lam, 6)
        dm = dualize(m)
        if character(dm) != character(m):
            return False, "dual changes the character at %s" % (lam,)
        if dualize(dm) != m:
            return False, "duality not involutive at %s" % (lam,)
    sym_pairs = [
        ((Fraction(1, 2), 0), (Fraction(-3, 2), 0)),
        ((0, 0), (-2, 0)),
        ((1, 0), (-3, 0)),
        ((3, 0), (1, 0)),
    ]
    for (lh, lb), (mh, mb) in sym_pairs:
        lam, mu = Weight(lh, lb), Weight(mh, mb)
        for cat in ("O", "Otilde"):
            a = stabilize_ext(lam, mu, cat).dim
            b = stabilize_ext(mu, lam, cat).dim
            if a != b:
                return False, "Ext(%s;%s) = %d but Ext(%s;%s) = %d in %s" % (
                    lam, mu, a, mu, lam, b, cat)
    return True, "10 dual involutions, 4 symmetric Ext pairs in both cats"


CHECKS = [
    ("lie-bracket-axioms", check_bracket_axioms),
    ("casimir-centrality", check_casimir_central),
    ("verma-slice-dimensions", check_verma_dimensions),
    ("depth-one-hbar-action", check_depth_one_hbar),
    ("verma-simplicity-test", check_simplicity),
    ("casimir-highest-weight-scalar", check_casimir_scalar),
    ("composition-multiplicities", check_multiplicities),
    ("uniserial-quotients", check_uniserial),
    ("submodule-poset-n4", check_hasse_n4),
    ("ext-dimension-table", check_ext_table),
    ("quiver-arrow-rule", check_quiver_rule),
    ("duality-and-ext-symmetry", check_duality_and_symmetry),
]


def run_all(ids=None):
    """Run the checks (all, or the named subset) and return a list of
    {"id", "ok", "detail", "seconds"} dicts in registry order."""
    selected = [(i, f) for i, f in CHECKS if ids is None or i in ids]
    if ids is not None:
        unknown = set(ids) - {i for i, _ in CHECKS}
        if unknown:
            raise ValueError("unknown check ids: %s" % ", ".join(
                sorted(unknown)))
    out = []
    for cid, fn in selected:
        t0 = perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, "%s: %s" % (type(exc).__name__, exc)
        out.append({"id": cid, "ok": bool(ok), "detail": detail,
                    "seconds": round(perf_counter() - t0, 2)})
    return out
