"""First extensions between simples: blocks, the cocycle solver, window
stabilization, assembled extensions, and quivers."""

import json
import random
import re
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from takiff import ext as ext_mod
from takiff.algebra import DEPTH_SHIFT, GENERATORS, GEN_NAMES, H, HBAR
from takiff.cli import main
from takiff.linalg import Mat, SparseSystem
from takiff.modules import (Character, TruncatedModule, Weight,
                            _integer_blocks, category_check, check_relations,
                            module_to_json)
from takiff.structure import multiplicities
from takiff.ext import (Block, ExtResult, StabilizationError,
                        assemble_extension, block_of, ext1, quiver,
                        same_block, stabilize_ext)
from takiff.conformance import EXT_TABLE, expected_arrow_dim

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_COCYCLES = GOLDEN / "ext_3_1_O_cocycles.json"
# window-4 `ext --cocycles --format json` runs: Otilde with phi(h) kept, an
# Otilde offset pair, an O pair anchored at mu (offv != 0), and (0,0)->(-2,0)
GOLDEN_WINDOW4 = json.loads((GOLDEN / "ext_window4_cocycles.json").read_text())


# ---------------------------------------------------------------------------
# blocks

def test_block_of_degenerate_uses_coset_representative():
    assert block_of(Weight(5, 0)) == Block("coset", Weight(1, 0))
    assert block_of(Weight(-4, 0)) == Block("coset", Weight(0, 0))
    assert block_of(Weight(Fraction(-3, 2), 0)) == \
        Block("coset", Weight(Fraction(1, 2), 0))
    assert block_of(Weight(0, 0)).label() == "coset (0, 0) + Z*alpha"


def test_block_of_nondegenerate_is_its_own():
    b = block_of(Weight(3, 1))
    assert b.kind == "nondegenerate"
    assert not same_block(Weight(3, 1), Weight(1, 1))
    assert not same_block(Weight(3, 1), Weight(3, 0))
    assert same_block(Weight(4, 0), Weight(-6, 0))
    assert not same_block(Weight(4, 0), Weight(3, 0))


def test_ext_across_blocks_is_zero_without_solving():
    r = stabilize_ext(Weight(0, 0), Weight(1, 0))
    assert r.dim == 0 and r.stabilized
    assert "block" in r.note


@pytest.mark.parametrize("fn", [ext1, stabilize_ext])
def test_category_is_validated_before_the_block_shortcut(fn):
    kwargs = {"window": 4} if fn is ext1 else {}
    with pytest.raises(ValueError, match="category must be"):
        fn(Weight(0, 0), Weight(1, 0), "bogus", **kwargs)


@pytest.mark.parametrize("mu", [Weight(-2, 0), Weight(1, 0)])
@pytest.mark.parametrize("fn, kwargs, message", [
    (ext1, {"window": 4.9}, "window must be an integer, got 4.9"),
    (ext1, {"window": Fraction(9, 2)},
     r"window must be an integer, got Fraction\(9, 2\)"),
])
def test_window_arguments_must_be_integers(fn, kwargs, message, mu):
    # int() would truncate 4.9 to 4; also across blocks, where no window
    # is ever solved
    with pytest.raises(ValueError, match=message):
        fn(Weight(0, 0), mu, "O", **kwargs)


def test_window_and_switches_are_keyword_only():
    # stabilize_ext(lam, mu, "O", 3) once set its first window; read as
    # with_cocycles=3 it would pass silently
    lam, mu = Weight(0, 0), Weight(-2, 0)
    with pytest.raises(TypeError):
        stabilize_ext(lam, mu, "O", 3)
    with pytest.raises(TypeError):
        ext1(lam, mu, "O", 4)
    with pytest.raises(TypeError):
        ext1(lam, mu, "O")  # a fixed window is always one the caller names


def test_integral_fraction_windows_are_accepted():
    lam, mu = Weight(0, 0), Weight(-2, 0)
    assert ext1(lam, mu, "O", window=Fraction(4)).to_json() == \
        ext1(lam, mu, "O", window=4).to_json()


# ---------------------------------------------------------------------------
# the solver at fixed windows: a self-pair with known window-exact answers

@pytest.mark.parametrize("window", [2, 3, 4])
def test_degenerate_self_pair_window_exact(window):
    lam = Weight(Fraction(1, 2), 0)
    assert ext1(lam, lam, "O", window=window).dim == 1
    assert ext1(lam, lam, "Otilde", window=window).dim == 2


def test_window_validation():
    lam = Weight(2, 0)
    mu = Weight(-4, 0)  # offset 3
    with pytest.raises(ValueError):
        ext1(lam, mu, "O", window=3)
    # different cosets short-circuit to zero instead of erroring
    r = ext1(lam, Weight(3, 0), "O", window=5)
    assert r.dim == 0 and "block" in r.note


@pytest.mark.parametrize("call, message", [
    (lambda: ext1(Weight(2, 0), Weight(3, 0), "O", window=1),
     "window 1 too small: no pair has a window below 2"),
    # the same-block messages are unchanged
    (lambda: ext1(Weight(0, 0), Weight(0, 0), "O", window=1),
     r"window 1 too small for offsets \(0, 0\)"),
])
def test_a_window_below_2_is_refused_in_every_block(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_different_blocks_take_any_window_from_2():
    lam, mu = Weight(2, 0), Weight(3, 0)
    assert ext1(lam, mu, "O", window=2).dim == 0


def test_stabilize_reports_windows():
    r = stabilize_ext(Weight(0, 0), Weight(-2, 0), "O")
    assert r.stabilized
    assert len(r.depths_checked) == 3
    assert r.dim_sequence == [r.dim] * 3


def test_stabilize_raises_when_capped(monkeypatch):
    # three windows are all stabilize_ext solves: windows that report dims
    # 1, 2 stop it at the second, and nothing slides on to look for flatness
    dims = iter([1, 2])

    def drifting(lam, mu, category, window, with_cocycles):
        return ExtResult(lam, mu, category, window, next(dims))

    monkeypatch.setattr(ext_mod, "ext1", drifting)
    lam, mu = Weight(3, 0), Weight(1, 0)
    w = ext_mod._default_window(lam, mu)
    with pytest.raises(StabilizationError,
                       match=r"Ext\^1\(\(3, 0\), \(1, 0\)\) in O is not flat "
                       r"on three consecutive windows; window -> dim: "
                       r"\[\(%d, 1\), \(%d, 2\)\]" % (w, w + 1)) as exc:
        stabilize_ext(lam, mu, "O")
    assert exc.value.history == [(w, 1), (w + 1, 2)]


def _assert_flat_from_the_default_window(lam, mu, cat):
    r = stabilize_ext(lam, mu, cat)
    assert r.stabilized and r.dim_sequence == [r.dim] * 3, (lam, mu, cat)
    assert r.depths_checked[0] == ext_mod._default_window(lam, mu), \
        (lam, mu, cat)


# stabilize_ext never slides past its first three windows; these pairs are
# the evidence that no input needs it to: each is flat from the default
@settings(max_examples=60, deadline=None)
@given(st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2),
                        Fraction(1, 3), Fraction(-5, 3)]),
       st.integers(-5, 4), st.integers(-5, 4),
       st.sampled_from(["O", "Otilde"]))
def test_coset_pairs_are_flat_from_the_default_window(rep, m1, m2, cat):
    _assert_flat_from_the_default_window(Weight(rep + 2 * m1, 0),
                                         Weight(rep + 2 * m2, 0), cat)


@pytest.mark.parametrize("cat", ["O", "Otilde"])
@pytest.mark.parametrize("lam, mu", [
    # far-apart dominant pairs: the windows start at offset + support + 2
    ((12, 0), (-14, 0)), ((13, 0), (-15, 0)), ((-14, 0), (12, 0)),
    # nondegenerate self-pairs
    ((3, 1), (3, 1)), ((Fraction(7, 3), Fraction(-5, 2)),) * 2,
    ((Fraction(-1, 2), 3),) * 2,
])
def test_fixed_pairs_are_flat_from_the_default_window(lam, mu, cat):
    _assert_flat_from_the_default_window(Weight.of(lam), Weight.of(mu), cat)


@pytest.mark.parametrize("with_cocycles", [False, True])
def test_stabilize_solves_each_window_once(monkeypatch, with_cocycles):
    solved = []
    solve = ext_mod._solve_window

    def counting_solve(lam, mu, category, N, with_cocycles):
        solved.append((N, with_cocycles))
        return solve(lam, mu, category, N, with_cocycles)

    monkeypatch.setattr(ext_mod, "_solve_window", counting_solve)
    lam = Weight(3, 1)
    r = stabilize_ext(lam, lam, "O", with_cocycles=with_cocycles)
    # the first two windows are solved rank only, deepest first; the third
    # draws the representatives when asked, laid out top first
    assert solved == [(3, False), (4, False), (5, with_cocycles)]
    golden = json.loads(GOLDEN_COCYCLES.read_text())
    assert (r.dim, r.depths_checked, r.dim_sequence) == \
        (golden["dim"], golden["depths_checked"], golden["dim_sequence"])
    assert r.to_json()["cocycles"] == \
        (golden["cocycles"] if with_cocycles else [])


def test_stabilize_cross_checks_the_two_layouts(monkeypatch):
    # with cocycles the third window is solved top first and the two below
    # it deepest first; a cocycle rank one higher in the top-first layout
    # only gives the third window dim 0
    solve = ext_mod._solve_window
    rank = SparseSystem.rank

    def skewed_solve(lam, mu, category, N, with_cocycles):
        if not with_cocycles:
            return solve(lam, mu, category, N, with_cocycles)
        calls = []

        def skewed_rank(system):
            calls.append(system)  # the cocycle system is read first
            return rank(system) + (len(calls) == 1)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SparseSystem, "rank", skewed_rank)
            return solve(lam, mu, category, N, with_cocycles)

    monkeypatch.setattr(ext_mod, "_solve_window", skewed_solve)
    lam = Weight(3, 1)
    assert stabilize_ext(lam, lam, "O").dim == 1
    with pytest.raises(StabilizationError,
                       match=r"\(3, 1\), \(3, 1\)\) in O is not flat") as exc:
        stabilize_ext(lam, lam, "O", with_cocycles=True)
    assert exc.value.history == [(3, 1), (4, 1), (5, 0)]


@pytest.mark.parametrize("lam, mu, cat", [
    (Weight(0, 0), Weight(-2, 0), "O"),
    (Weight(Fraction(1, 2), 0), Weight(Fraction(1, 2), 0), "Otilde"),
    (Weight(3, 1), Weight(3, 1), "Otilde"),
])
def test_stabilized_cocycles_are_those_of_the_final_window(lam, mu, cat):
    r = stabilize_ext(lam, mu, cat, with_cocycles=True)
    want = ext1(lam, mu, cat, window=r.depths_checked[-1])
    assert r.window == want.window and len(r.cocycles) == r.dim == want.dim
    assert r.to_json()["cocycles"] == want.to_json()["cocycles"]


def test_representatives_stop_drawing_kernel_vectors(monkeypatch):
    # (3, 1) in O at window 5 has 91 kernel vectors, and the first 30 are
    # coboundaries; drawing stops at the 31st, its one representative
    drawn = []
    vectors = SparseSystem.kernel_vectors

    def counting(self):
        for v in vectors(self):
            drawn.append(v)
            yield v

    monkeypatch.setattr(SparseSystem, "kernel_vectors", counting)
    lam = Weight(3, 1)
    r = ext1(lam, lam, "O", window=5, with_cocycles=False)
    assert drawn == []
    r = ext1(lam, lam, "O", window=5)
    assert len(r.cocycles) == r.dim == 1
    assert len(drawn) == 31


def test_missing_representatives_raise_with_the_weights(monkeypatch):
    monkeypatch.setattr(SparseSystem, "reduce_vector",
                        lambda self, vec: [0] * len(vec))
    lam = Weight(Fraction(1, 2), 0)
    with pytest.raises(RuntimeError, match=r"\(1/2, 0\), \(1/2, 0\)"):
        ext1(lam, lam, "O", window=2)


def test_category_O_never_exceeds_Otilde():
    pairs = [
        (Weight(Fraction(1, 2), 0), Weight(Fraction(1, 2), 0)),
        (Weight(-4, 0), Weight(-4, 0)),
        (Weight(1, 0), Weight(-3, 0)),
        (Weight(3, 0), Weight(3, 0)),
    ]
    for lam, mu in pairs:
        a = stabilize_ext(lam, mu, "O").dim
        b = stabilize_ext(lam, mu, "Otilde").dim
        assert a <= b, (lam, mu)


def test_ext_table_spot_checks():
    # a fast subset of the full table (the whole table runs in acceptance)
    fast = [row for row in EXT_TABLE
            if row[0][1] == 0 and abs(row[0][0]) <= 2 and abs(row[1][0]) <= 4]
    assert fast
    for (lh, lb), (mh, mb), cat, want in fast:
        got = stabilize_ext(Weight(lh, lb), Weight(mh, mb), cat).dim
        assert got == want, ((lh, lb), (mh, mb), cat)


# ---------------------------------------------------------------------------
# the two unknown layouts: ranks do not depend on the column order

def _window_ranks(lam, mu, cat, N, with_cocycles):
    """(dim, [cocycle rank, coboundary rank if built]) of one window in the
    layout with_cocycles picks."""
    ranks = []
    rank = SparseSystem.rank

    def recording_rank(system):
        ranks.append(rank(system))
        return ranks[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SparseSystem, "rank", recording_rank)
        r = ext_mod._solve_window(lam, mu, cat, N, with_cocycles)
    return r.dim, ranks


def _assert_layouts_agree(lam, mu, cat, window):
    offv, offw = ext_mod._coset_layout(lam, mu)
    N = max(window, offv + 2, offw + 2)
    top = _window_ranks(lam, mu, cat, N, True)
    deep = _window_ranks(lam, mu, cat, N, False)
    # the rank-only solve eliminates the cocycle system alone; the solve
    # with cocycles also the coboundary system, whose rank it checks
    assert deep == (top[0], top[1][:1]), (lam, mu, cat, N)
    assert len(top[1]) == 2


_COSETS = st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2),
                           Fraction(-2, 3), Fraction(5, 3)])
_CATS = st.sampled_from(["O", "Otilde"])


@settings(max_examples=40, deadline=None)
@given(_COSETS, st.integers(-2, 1), st.integers(-2, 1), _CATS,
       st.integers(3, 6))
def test_layouts_agree_on_coset_pairs(rep, m1, m2, cat, window):
    _assert_layouts_agree(Weight(rep + 2 * m1, 0), Weight(rep + 2 * m2, 0),
                          cat, window)


_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@settings(max_examples=10, deadline=None)
@given(_RATIONALS, _RATIONALS.filter(bool), _CATS, st.integers(3, 6))
def test_layouts_agree_on_nondegenerate_weights(h, hbar, cat, window):
    lam = Weight(h, hbar)
    _assert_layouts_agree(lam, lam, cat, window)


@pytest.mark.parametrize("cat", ["O", "Otilde"])
def test_hbar_rescaling_keeps_every_window(cat):
    # xbar -> c xbar is an automorphism keeping h and the depth grading, so
    # L(3, 1) and L(3, c) give the same dimension window by window
    for window in (3, 4, 5):
        dims = {c: ext1((3, c), (3, c), cat, window=window,
                        with_cocycles=False).dim
                for c in (1, Fraction(1, 7), -5, Fraction(-9, 4))}
        assert len(set(dims.values())) == 1, (cat, window, dims)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2),
                        Fraction(1, 3), Fraction(2, 3)]),
       st.integers(-4, 3), st.integers(-4, 3), _CATS)
def test_random_coset_pairs_are_symmetric_and_follow_the_rule(rep, m1, m2,
                                                             cat):
    # offsets -4..3 reach past the QUIVER_WINDOWS the paper-check covers
    w1, w2 = Weight(rep + 2 * m1, 0), Weight(rep + 2 * m2, 0)
    there = stabilize_ext(w1, w2, cat).dim
    assert there == stabilize_ext(w2, w1, cat).dim == \
        expected_arrow_dim(w1, w2, cat), (w1, w2, cat)


@pytest.mark.parametrize("cat, want", [("O", 1), ("Otilde", 2)])
def test_deep_window_rank_only_solve(cat, want):
    lam = Weight(3, 1)
    assert ext1(lam, lam, cat, window=10, with_cocycles=False).dim == want


# ---------------------------------------------------------------------------
# dim B^1 in closed form: the rank-only solve takes the coboundary rank from
# sum_d dim V_d * dim W_d - [lam == mu], the solve with cocycles eliminates
# the coboundary system and checks its rank against that

def _assert_closed_form_agrees(lam, mu, cat, window):
    offv, offw = ext_mod._coset_layout(lam, mu)
    N = max(window, offv + 2, offw + 2)
    checked = ext1(lam, mu, cat, window=N)
    assert ext1(lam, mu, cat, window=N, with_cocycles=False).dim == \
        checked.dim == len(checked.cocycles), (lam, mu, cat, N)


@settings(max_examples=40, deadline=None)
@given(_COSETS, st.integers(-3, 2), st.integers(-3, 2), _CATS,
       st.integers(3, 8))
def test_closed_form_coboundary_rank_on_coset_pairs(rep, m1, m2, cat, window):
    _assert_closed_form_agrees(Weight(rep + 2 * m1, 0),
                               Weight(rep + 2 * m2, 0), cat, window)


@settings(max_examples=8, deadline=None)
@given(_RATIONALS, _RATIONALS.filter(bool), _CATS, st.integers(3, 5))
def test_closed_form_coboundary_rank_on_nondegenerate_weights(h, hbar, cat,
                                                              window):
    lam = Weight(h, hbar)
    _assert_closed_form_agrees(lam, lam, cat, window)


def test_skewed_coboundary_rank_raises(monkeypatch):
    # the coboundary system is read second; one more rank than the closed
    # form allows is an error, not a silently smaller dimension
    rank = SparseSystem.rank
    calls = []

    def skewed_rank(system):
        calls.append(system)
        return rank(system) + (len(calls) == 2)

    monkeypatch.setattr(SparseSystem, "rank", skewed_rank)
    lam = Weight(3, 1)
    with pytest.raises(RuntimeError, match=r"\(3, 1\), \(3, 1\)\) in Otilde "
                       r"at window 4: coboundary rank 55, but dim B\^1 = 54"):
        ext1(lam, lam, "Otilde", window=4)
    calls.clear()
    assert ext1(lam, lam, "Otilde", window=4, with_cocycles=False).dim == 2
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the Kronecker assembler: rows of scale * L . X or scale * X . R in the
# unknowns of X, one factor or none

def _random_mat(rng, nrows, ncols):
    return Mat(nrows, ncols, [[Fraction(rng.choice([0, 0, 1, -2, 3]),
                                        rng.choice([1, 2, 3]))
                               for _ in range(ncols)] for _ in range(nrows)])


def _cleared(mat):
    """(D, N) with mat = N / D, N an integer block in sparse row form; the
    identity (None) is (1, None)."""
    if mat is None:
        return 1, None
    den = lcm(*[x.denominator for row in mat.rows for x in row])
    return den, [[(j, int(x * den)) for j, x in enumerate(row) if x]
                 for row in mat.rows]


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("left_id, right_id", [(True, False), (False, True),
                                               (True, True)])
def test_add_product_matches_mat_products(seed, left_id, right_id):
    rng = random.Random(seed)
    # seeds 0 and 1 give 0-sized blocks
    nr, nc = (0, 2) if seed == 0 else (3, 0) if seed == 1 else \
        (rng.randint(1, 4), rng.randint(1, 4))
    left = None if left_id else _random_mat(rng, rng.randint(0, 4), nr)
    right = None if right_id else _random_mat(rng, nc, rng.randint(0, 4))
    p = nr if left is None else left.nrows
    q = nc if right is None else right.ncols
    sign = rng.choice([1, -1, -2])
    off = rng.randint(0, 5)
    X = _random_mat(rng, nr, nc)
    x = [Fraction(0)] * off + [a for row in X.rows for a in row]
    # the factors enter as integer blocks N = D * factor, so the rows are
    # those of L * sign * left . X . right with L the product of the D's
    (dl, nl), (dr, nrt) = _cleared(left), _cleared(right)
    L = dl * dr

    rows = [{} for _ in range(p * q)]
    ext_mod._add_product(rows, q, (off, nr, nc), nl, nrt, sign)
    ext_mod._add_product(rows, q, None, nl, nrt, sign)  # zero block

    want = X if left is None else left * X
    want = want if right is None else want * right
    got = [sum((coef * x[idx] for idx, coef in row.items()), Fraction(0))
           for row in rows]
    assert got == [L * sign * a for row in want.rows for a in row]
    assert all(type(coef) is int for row in rows for coef in row.values())
    assert all(0 <= idx - off < nr * nc for row in rows for idx in row)


# ---------------------------------------------------------------------------
# the integer assembly against the Fraction assembler it replaced

def factor_terms_fraction(mat, n, scale, memo):
    """The nonzeros (row, column, scale * value) of mat, or of the n x n
    identity when mat is None, listed once per memo dict.  The memo also
    keeps mat referenced, so that no other matrix can take its id."""
    key = (id(mat), n, scale)
    hit = memo.get(key)
    if hit is None:
        if mat is None:
            terms = [(k, k, scale) for k in range(n)]
        else:
            terms = [(r, c, a if scale == 1 else scale * a)
                     for r, row in enumerate(mat.rows)
                     for c, a in enumerate(row) if a]
        hit = memo[key] = (mat, terms)
    return hit[1]


def add_product_fraction(rows, width, blk, left, right, sign, memo=None):
    """The Fraction assembler the solver used before it moved to integers:
    add the nonzeros of sign * left . X . right, left and right Mats or
    None for the identity, into the equation rows.  An independent oracle
    for the integer assembly."""
    if blk is None:
        return
    off, nr, nc = blk
    if memo is None:
        memo = {}
    lterms = factor_terms_fraction(left, nr, sign if right is None else 1,
                                   memo)
    rterms = factor_terms_fraction(right, nc, 1 if right is None else sign,
                                   memo)
    for r, i, a in lterms:
        for j, c, b in rterms:
            coef = a if right is None else b if left is None else a * b
            row = rows[r * width + c]
            idx = off + i * nc + j
            row[idx] = row[idx] + coef if idx in row else coef


def _fraction_blocks(mod):
    """modules._integer_blocks in the form the Fraction assembler reads:
    D = 1 and the Mat blocks themselves."""
    return 1, {g: [None] + [mod.act(g, n) for n in range(mod.depth + 1)]
               for g in GENERATORS}


def _solve_recording(lam, mu, cat, N, with_cocycles, fraction):
    """One window's result and the systems it built (the cocycle system,
    and with cocycles the coboundary system), assembled from integer
    blocks or, with fraction, by the Fraction assembler."""
    systems = []

    class Recording(SparseSystem):
        def __init__(self, ncols):
            super().__init__(ncols)
            systems.append(self)

        def add_row(self, row):
            if fraction:
                # add_row takes ints: the Fraction assembler's row times
                # the lcm of its denominators, the same equation
                den = lcm(*[Fraction(v).denominator for v in row.values()])
                row = {c: int(v * den) for c, v in row.items()}
            super().add_row(row)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ext_mod, "SparseSystem", Recording)
        if fraction:
            mp.setattr(ext_mod, "_integer_blocks", _fraction_blocks)
            mp.setattr(ext_mod, "_add_product", add_product_fraction)
            mp.setattr(ext_mod, "_transpose",
                       lambda mat, ncols: mat.transpose())
        r = ext_mod._solve_window(lam, mu, cat, N, with_cocycles)
    return r, systems


def _assert_assemblers_agree(lam, mu, cat, window, with_cocycles):
    offv, offw = ext_mod._coset_layout(lam, mu)
    N = max(window, offv + 2, offw + 2)
    got, systems = _solve_recording(lam, mu, cat, N, with_cocycles, False)
    want, oracle = _solve_recording(lam, mu, cat, N, with_cocycles, True)
    assert len(systems) == len(oracle) == 1 + with_cocycles
    for s, o in zip(systems, oracle):
        assert s.pivot_of_col == o.pivot_of_col
        assert s.rows == o.rows
        assert all(type(v) is int for r in s.rows for v in r.values())
    assert got.to_json() == want.to_json()


_LAYOUTS = st.booleans()


@settings(max_examples=30, deadline=None)
@given(_COSETS, st.integers(-2, 1), st.integers(-2, 1), _CATS,
       st.integers(3, 6), _LAYOUTS)
def test_integer_assembly_matches_fraction_on_coset_pairs(rep, m1, m2, cat,
                                                          window,
                                                          with_cocycles):
    _assert_assemblers_agree(Weight(rep + 2 * m1, 0), Weight(rep + 2 * m2, 0),
                             cat, window, with_cocycles)


@settings(max_examples=10, deadline=None)
@given(_RATIONALS, _RATIONALS.filter(bool), _CATS, st.integers(3, 6),
       _LAYOUTS)
def test_integer_assembly_matches_fraction_on_nondegenerate_weights(
        h, hbar, cat, window, with_cocycles):
    lam = Weight(h, hbar)
    _assert_assemblers_agree(lam, lam, cat, window, with_cocycles)


def _rescaled(mod, seed):
    """mod in a basis rescaled vector by vector: an isomorphic module whose
    action blocks have other denominators."""
    rng = random.Random(seed)
    scales = [[rng.choice([1, 2, Fraction(1, 3), Fraction(-3, 2)])
               for _ in range(k)] for k in mod.dims]
    actions = {}
    for g in GENERATORS:
        actions[g] = {}
        for n, blk in mod.actions.get(g, {}).items():
            t = n + DEPTH_SHIFT[g]
            actions[g][n] = Mat(blk.nrows, blk.ncols, [
                [a * scales[n][j] / scales[t][i] for j, a in enumerate(row)]
                for i, row in enumerate(blk.rows)])
    return TruncatedModule(mod.top, mod.depth, list(mod.dims), actions,
                           complete=mod.complete)


@pytest.mark.parametrize("lam, mu, cat", [
    (Weight(3, 1), Weight(3, 1), "O"),
    (Weight(0, 0), Weight(-2, 0), "Otilde"),
    (Weight(Fraction(1, 2), 0), Weight(Fraction(-3, 2), 0), "O")])
@pytest.mark.parametrize("with_cocycles", [False, True])
def test_integer_assembly_scales_unequal_denominators(lam, mu, cat,
                                                      with_cocycles):
    # in one block V and W clear to the same D, so L / D is 1; a rescaled
    # W has another D, and each of its blocks enters scaled by L / D_W
    pair = ext_mod._pair_on_coset

    def rescaled_pair(lam, mu, N):
        V, offv, W, offw = pair(lam, mu, N)
        return V, offv, _rescaled(W, N), offw

    want = ext1(lam, mu, cat, window=4, with_cocycles=False).dim
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ext_mod, "_pair_on_coset", rescaled_pair)
        V, _, W, _ = ext_mod._pair_on_coset(lam, mu, 4)
        assert _integer_blocks(V)[0] != _integer_blocks(W)[0]
        assert ext1(lam, mu, cat, window=4, with_cocycles=False).dim == want
        _assert_assemblers_agree(lam, mu, cat, 4, with_cocycles)


def test_rank_only_solve_stays_on_ints(monkeypatch):
    # the (3, 1) Verma's action blocks hold Fractions; its one system still
    # gets int coefficients only, and its eliminated rows are ints
    lam = Weight(3, 1)
    types, systems = set(), []
    add_row = SparseSystem.add_row

    def recording(self, row):
        types.update(map(type, row.values()))
        if self not in systems:
            systems.append(self)
        add_row(self, row)

    monkeypatch.setattr(SparseSystem, "add_row", recording)
    r = ext1(lam, lam, "O", window=5, with_cocycles=False)
    assert types == {int}
    assert len(systems) == 1
    assert all(type(v) is int for s in systems for row in s.rows
               for v in row.values())
    monkeypatch.undo()
    want, _ = _solve_recording(lam, lam, "O", 5, False, True)
    assert r.to_json() == want.to_json()
    assert r.dim == 1


# ---------------------------------------------------------------------------
# window-4 cocycle JSON and the extensions assembled from it

@pytest.mark.parametrize("case", GOLDEN_WINDOW4,
                         ids=lambda c: " ".join(c["argv"][2:11:2]))
def test_window4_cocycles_match_golden_and_assemble(capsys, case):
    assert main(case["argv"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(case["output"], indent=2) + "\n"

    # assemble from the JSON, each block sized to its last nonzero entry
    data = case["output"]
    lam = Weight(Fraction(data["lambda"]["h"]), Fraction(data["lambda"]["hbar"]))
    mu = Weight(Fraction(data["mu"]["h"]), Fraction(data["mu"]["hbar"]))
    cocycles = []
    for entry in data["cocycles"]:
        phi = {}
        for gname, blocks in entry.items():
            for blk in blocks:
                ents = blk["entries"]
                mat = Mat.zeros(max(r for r, _, _ in ents) + 1,
                                max(c for _, c, _ in ents) + 1)
                for r, c, val in ents:
                    mat.rows[r][c] = Fraction(val)
                phi.setdefault(gname, {})[blk["from_depth"]] = mat
        cocycles.append(phi)
    r = ExtResult(lam, mu, data["category"], data["window"], data["dim"],
                  cocycles=cocycles)
    assert data["dim"] == len(cocycles) > 0
    for index in range(len(cocycles)):
        assert check_relations(assemble_extension(r, index)).passed


# ---------------------------------------------------------------------------
# assembled extensions are genuine modules

def test_assembled_extension_satisfies_relations():
    r = stabilize_ext(Weight(0, 0), Weight(-2, 0), "O", with_cocycles=True)
    assert r.dim == 1 and len(r.cocycles) == 1
    ext_mod = assemble_extension(r)
    assert check_relations(ext_mod).passed
    assert category_check(ext_mod, "O")
    # the glue is nontrivial
    assert any(not mat.is_zero()
               for blocks in r.cocycles[0].values()
               for mat in blocks.values())


def test_relaxed_category_cocycle_bends_h():
    lam = Weight(Fraction(1, 2), 0)
    r = stabilize_ext(lam, lam, "Otilde", with_cocycles=True)
    assert r.dim == 2 and len(r.cocycles) == 2
    seen_h = False
    for phi in r.cocycles:
        mod = assemble_extension(r, index=r.cocycles.index(phi))
        assert check_relations(mod).passed
        assert category_check(mod, "Otilde")
        hblocks = phi.get(GEN_NAMES[H], {})
        if any(not m.is_zero() for m in hblocks.values()):
            seen_h = True
            assert not category_check(mod, "O")
    assert seen_h, "no representative used the h direction"


def test_strict_category_cocycles_never_touch_h():
    lam = Weight(-4, 0)
    r = stabilize_ext(lam, lam, "O", with_cocycles=True)
    assert r.dim == 1
    phi = r.cocycles[0]
    assert GEN_NAMES[H] not in phi or all(m.is_zero()
                                          for m in phi[GEN_NAMES[H]].values())
    mod = assemble_extension(r)
    assert check_relations(mod).passed
    assert category_check(mod, "O")


def test_assemble_extension_rejects_bad_indices():
    r = ext1(Weight(0, 0), Weight(-2, 0), "O", window=4)
    assert r.dim == len(r.cocycles) == 1
    assert check_relations(assemble_extension(r, Fraction(0))).passed
    for index in (1, -1):
        with pytest.raises(ValueError, match="cocycle index %d out of range: "
                           "the result has 1 cocycles" % index):
            assemble_extension(r, index)
    with pytest.raises(ValueError, match="index must be an integer, got 0.5"):
        assemble_extension(r, 0.5)
    # a rank-only result has no cocycles: no split extension V + W instead
    bare = ext1(Weight(0, 0), Weight(-2, 0), "O", window=4,
                with_cocycles=False)
    assert bare.dim == 1 and bare.cocycles == []
    with pytest.raises(ValueError, match="index 0 out of range: the result "
                       "has 0 cocycles"):
        assemble_extension(bare)


@pytest.mark.parametrize("gname, depth, size, message", [
    ("zz", 0, 1, "no slot for a 'zz' cocycle block at depth 0 in the "
                 "window 0..4"),
    ("f", 9, 1, "no slot for a 'f' cocycle block at depth 9 in the "
                "window 0..4"),
    ("f", 0, 3, "f cocycle block at depth 0 is 3x3, larger than its 1x1 "
                "slot"),
], ids=["name", "depth", "shape"])
def test_assemble_extension_refuses_blocks_it_cannot_place(gname, depth,
                                                           size, message):
    # the window-4 cocycle of (0,0)->(-2,0) is one 1x1 block, f at depth
    # 0; the first two blocks used to be dropped, leaving the split
    # extension, and the third raised IndexError
    r = ext1(Weight(0, 0), Weight(-2, 0), "O", window=4)
    assert [(g, list(b)) for g, b in r.cocycles[0].items()] == [("f", [0])]
    bad = ExtResult(r.lam, r.mu, r.category, r.window, r.dim,
                    cocycles=[{gname: {depth: Mat.identity(size)}}])
    with pytest.raises(ValueError, match=re.escape(message)):
        assemble_extension(bad)


def test_ext_result_json():
    r = stabilize_ext(Weight(0, 0), Weight(-2, 0), "O", with_cocycles=True)
    data = r.to_json()
    assert data["dim"] == 1
    assert data["lambda"] == {"h": "0", "hbar": "0"}
    assert data["stabilized"] is True
    assert isinstance(data["cocycles"], list) and data["cocycles"]


def _verma_character(top):
    return Character(top, 6, {d: d + 1 for d in range(7)})


def _assembled(lam, mu):
    phi = ext1(Weight(0, 0), Weight(-2, 0), "O", window=4).cocycles
    return module_to_json(assemble_extension(
        ExtResult(lam, mu, "O", 4, len(phi), cocycles=phi)))


@pytest.mark.parametrize("call", [
    lambda lam, mu: _verma_character(lam).to_json(),
    lambda lam, mu: multiplicities(_verma_character(lam)).to_json(),
    lambda lam, mu: ExtResult(lam, mu, "O", 4, 0).to_json(),
    _assembled,
], ids=["Character", "multiplicities", "ExtResult", "assemble_extension"])
def test_result_weights_may_be_pairs(call):
    # an (h, hbar) pair used to stay a tuple, and to_json, multiplicities
    # and assemble_extension raised AttributeError on it
    assert call((0, 0), (-2, 0)) == call(Weight(0, 0), Weight(-2, 0))


# ---------------------------------------------------------------------------
# quivers

def test_quiver_nondegenerate_single_vertex():
    q = quiver(Weight(3, 1), category="Otilde")
    assert len(q.vertices) == 1
    assert q.arrows == {(0, 0): 2}
    dot = q.to_dot()
    assert dot.count('"m+0" -> "m+0"') == 2


def test_quiver_window_matches_rule():
    q = quiver(Weight(0, 0), lo=-1, hi=1, category="O")
    verts = {m: w for m, w, _ in q.vertices}
    for m1, w1 in verts.items():
        for m2, w2 in verts.items():
            want = expected_arrow_dim(w1, w2, "O")
            assert q.arrows.get((m1, m2), 0) == want


def test_quiver_rejects_empty_window():
    # a nondegenerate seed used to ignore the window and return its vertex
    for seed in (Weight(0, 0), Weight(3, 1)):
        with pytest.raises(ValueError, match="empty window: lo > hi"):
            quiver(seed, lo=2, hi=-2)


@pytest.mark.parametrize("kwargs, message", [
    ({"lo": -2.0}, "lo must be an integer, got -2.0"),
    ({"hi": Fraction(3, 2)}, "hi must be an integer"),
])
def test_quiver_window_bounds_must_be_integers(kwargs, message):
    with pytest.raises(ValueError, match=message):
        quiver(Weight(0, 0), **kwargs)


def test_quiver_dot_labels():
    q = quiver(Weight(Fraction(1, 2), 0), lo=-1, hi=1, category="O")
    dot = q.to_dot()
    assert '"m-1" [label="w-a"]' in dot
    assert '"m+0" [label="w"]' in dot
    assert '"m+1" [label="w+a"]' in dot
    assert "category O" in dot
