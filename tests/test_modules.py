"""Truncated highest-weight modules: Verma action matrices against closed
forms, simples, duality, relation checking, Casimir, serialization."""

import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from takiff.algebra import (E, EBAR, F, FBAR, H, HBAR, GENERATORS,
                            GEN_NAMES, DEPTH_SHIFT, _BRACKET, _PAIRS,
                            exact_rat)
from takiff import modules as modules_mod
from takiff.ext import (assemble_extension, block_of, ext1, quiver,
                        stabilize_ext)
from takiff.structure import hasse_diagram, mn_filtration, singular_vectors
from takiff.linalg import Mat
from takiff.modules import (Character, TruncatedModule, Weight,
                            casimir_action, casimir_scalar, category_check,
                            character, check_relations, dualize,
                            module_to_json, RelationReport, simple_dims, simple_module,
                            verma)

_rationals = st.fractions(min_value=-8, max_value=8, max_denominator=4)


# ---------------------------------------------------------------------------
# closed-form action on the basis c_j(n) = f^(n-j) fbar^j v, j = 0..n.
# These formulas were derived directly from the bracket rules by commuting
# one generator through the monomial, independent of the straightener.

def _closed_form(g, lam, n, j):
    """g . c_j(n) as {(target_n, target_j): coefficient}."""
    lh, lb = lam.h, lam.hbar
    if g == F:
        return {(n + 1, j): Fraction(1)}
    if g == FBAR:
        return {(n + 1, j + 1): Fraction(1)}
    if g == H:
        return {(n, j): lh - 2 * n}
    if g == HBAR:
        out = {(n, j): lb}
        if n - j:
            out[(n, j + 1)] = Fraction(-2) * (n - j)
        return out
    if g == E:
        out = {}
        if j:
            out[(n - 1, j - 1)] = j * lb
        if n - j:
            out[(n - 1, j)] = (n - j) * (lh - n - j + 1)
        return {k: v for k, v in out.items() if v}
    if g == EBAR:
        out = {}
        if n - j:
            out[(n - 1, j)] = (n - j) * lb
        if (n - j) * (n - j - 1):
            out[(n - 1, j + 1)] = Fraction(-1) * (n - j) * (n - j - 1)
        return {k: v for k, v in out.items() if v}
    raise AssertionError(g)


def _oracle_matrix(g, lam, n, depth):
    tgt = n + DEPTH_SHIFT[g]
    nrows = tgt + 1 if 0 <= tgt <= depth else 0
    mat = Mat(nrows, n + 1)
    if not nrows:
        return mat
    for j in range(n + 1):
        for (tn, tj), coef in _closed_form(g, lam, n, j).items():
            assert tn == tgt
            if 0 <= tj <= tgt:
                mat.rows[tj][j] = coef
    return mat


@settings(max_examples=25, deadline=None)
@given(_rationals, _rationals)
def test_verma_matches_closed_form(lh, lb):
    lam = Weight(lh, lb)
    depth = 5
    m = verma(lam, depth)
    for g in GENERATORS:
        for n in range(depth + 1):
            got = m.act(g, n)
            want = _oracle_matrix(g, lam, n, depth)
            assert got.nrows == want.nrows and got.ncols == want.ncols
            assert got.rows == want.rows, (g, n, lam)


def test_verma_dims_and_weights():
    m = verma(Weight(3, 1), 6)
    assert m.dims == [1, 2, 3, 4, 5, 6, 7]
    assert m.top.down(0) == Weight(3, 1)
    assert m.top.down(2) == Weight(-1, 1)
    assert not m.complete


def test_act_outside_window_is_zero_shaped():
    m = verma(Weight(0, 0), 2)
    up = m.act(F, 2)     # would land at depth 3, outside
    assert up.nrows == 0 and up.ncols == 3
    top = m.act(E, 0)    # nothing above the top
    assert top.nrows == 0 and top.ncols == 1


@pytest.mark.parametrize("g", [-1, 6, "e", True, False])
def test_act_refuses_a_bad_generator_id(g):
    # -1 used to wrap round to ebar's depth shift and read as a zero block;
    # True returned fbar's block
    m = verma((1, 0), 2)
    with pytest.raises(ValueError, match=re.escape(
            "letter 0 is %r, not a generator id 0..5" % (g,))):
        m.act(g, 1)


@pytest.mark.parametrize("n", [True, 1.0, "1", Fraction(1, 2)])
def test_act_refuses_a_depth_that_is_not_an_integer(n):
    # True returned h's depth-1 block, and 1.0 raised a TypeError
    m = verma((1, 0), 2)
    with pytest.raises(ValueError, match=re.escape(
            "depth must be an integer, got %r" % (n,))):
        m.act(H, n)


# ---------------------------------------------------------------------------
# simples

def test_simple_nondegenerate_is_verma():
    lam = Weight(Fraction(5, 3), Fraction(1, 2))
    assert simple_module(lam, 4) == verma(lam, 4)


def test_simple_integral_dominant():
    lam = Weight(2, 0)
    m = simple_module(lam, 5)
    assert m.dims == [1, 1, 1, 0, 0, 0]
    assert m.complete
    # barred generators act by zero
    for g in (FBAR, HBAR, EBAR):
        for n in range(m.depth + 1):
            assert m.act(g, n).is_zero()
    # sl2 ladder: e v_d = d v_{d-1}, f v_d = (n - d) v_{d+1}
    assert m.act(E, 1).rows == [[Fraction(1)]]
    assert m.act(E, 2).rows == [[Fraction(2)]]
    assert m.act(F, 0).rows == [[Fraction(2)]]
    assert m.act(F, 1).rows == [[Fraction(1)]]
    assert m.act(F, 2).rows == []
    rep = check_relations(m)
    assert rep.passed and not rep.skipped


def test_simple_incomplete_window_flagged():
    assert not simple_module(Weight(4, 0), 3).complete
    assert simple_module(Weight(4, 0), 4).complete


def test_simple_degenerate_nonintegral():
    lam = Weight(Fraction(1, 2), 0)
    m = simple_module(lam, 4)
    assert m.dims == [1] * 5
    for g in (FBAR, HBAR, EBAR):
        for n in range(m.depth + 1):
            assert m.act(g, n).is_zero()
    # e f^d v = d (lam - d + 1) f^(d-1) v
    for d in range(1, 5):
        assert m.act(E, d).rows == [[d * (lam.h - d + 1)]]
        assert m.act(F, d - 1).rows == [[Fraction(1)]]
    assert check_relations(m).passed


def test_simple_dims_helper():
    assert simple_dims(Weight(3, 0), 5) == [1, 1, 1, 1, 0, 0]
    assert simple_dims(Weight(-1, 0), 3) == [1, 1, 1, 1]
    assert simple_dims(Weight(0, 1), 3) == [1, 2, 3, 4]


def test_simple_dims_depth_is_an_exact_integer():
    assert simple_dims(Weight(1, 0), Fraction(2)) == [1, 1, 0]
    with pytest.raises(ValueError, match="depth must be an integer, got 2.5"):
        simple_dims(Weight(1, 0), 2.5)


@pytest.mark.parametrize("build", [simple_dims, simple_module])
@pytest.mark.parametrize("top", [Weight(1, 0), Weight(Fraction(1, 2), 0),
                                 Weight(0, 1)])
def test_negative_depth_is_rejected(build, top):
    with pytest.raises(ValueError, match="depth must be >= 0"):
        build(top, -1)


# ---------------------------------------------------------------------------
# relations: the checker accepts the real thing and rejects a tampered copy

def copy_mat(mat):
    """A copy of mat that shares no row with it (the constructor copies)."""
    return Mat(mat.nrows, mat.ncols, mat.rows)


def test_check_relations_catches_tampering():
    m = verma(Weight(1, 0), 4)
    assert check_relations(m).passed
    bad = copy_mat(m.act(HBAR, 2))
    bad.rows[0][0] += 1
    m.actions[HBAR][2] = bad
    rep = check_relations(m)
    assert not rep.passed
    assert rep.failures


def test_module_rejects_wrong_number_of_slices():
    with pytest.raises(ValueError, match="depth 2 needs 3 slice"):
        TruncatedModule(Weight(0, 0), 2, [1, 1], {})


def test_module_rejects_non_integer_depth_and_dims():
    with pytest.raises(ValueError, match="depth must be an integer, got 1.5"):
        TruncatedModule(Weight(0, 0), 1.5, [1, 1], {})
    with pytest.raises(ValueError, match="slice dimension must be an integer"):
        TruncatedModule(Weight(0, 0), 1, [1, Fraction(3, 2)], {})
    # True is not the depth 1
    with pytest.raises(ValueError, match="depth must be an integer, got True"):
        TruncatedModule(Weight(0, 0), True, [1, 1], {})


def test_module_rejects_negative_depth_and_dims():
    # a negative slice dimension used to pass, and check_relations then
    # reported every pair as checked
    with pytest.raises(ValueError, match="must be >= 0, got depth 1 and "
                                         r"dims \[1, -1\]"):
        TruncatedModule(Weight(0, 0), 1, [1, -1], {})
    with pytest.raises(ValueError, match="must be >= 0, got depth -1"):
        TruncatedModule(Weight(0, 0), -1, [], {})


def test_build_fills_exactly_the_block_slots():
    dims = [1, 0, 2, 1]
    seen = []

    def block(g, n, t):
        seen.append((g, n, t))
        return None if g == H else Mat.zeros(dims[t], dims[n])

    m = TruncatedModule.build(Weight(0, 0), 3, dims, block)
    # generator-major; a nonempty source slice and a target in the window
    assert seen == sorted(seen) == modules_mod._block_slots(dims)
    assert {(n, t) for g, n, t in seen if g == F} == {(0, 1), (2, 3)}
    assert {(n, t) for g, n, t in seen if g == E} == {(2, 1), (3, 2)}
    assert len(seen) == 14
    assert all(t == n + DEPTH_SHIFT[g] for g, n, t in seen)
    # a None block is left absent, and act() reads it as zero
    assert m.actions[H] == {} and sorted(m.actions[F]) == [0, 2]
    assert m.act(H, 2) == Mat.zeros(2, 2)
    assert (m.complete, m.dims) == (False, dims)


def test_weight_of_takes_a_weight_or_a_pair():
    w = Weight(3, Fraction(1, 2))
    assert Weight.of(w) is w
    assert Weight.of((3, Fraction(1, 2))) == w == Weight.of([3, "1/2"])


@pytest.mark.parametrize("bad", [5, None, (1, 2, 3)])
def test_weight_of_rejects_anything_else(bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        Weight.of(bad)


@pytest.mark.parametrize("call", [
    lambda bad: verma(bad, 3),
    lambda bad: simple_module(bad, 3),
    lambda bad: simple_dims(bad, 3),
    lambda bad: casimir_scalar(bad),
    lambda bad: block_of(bad),
    lambda bad: quiver(bad),
    lambda bad: ext1(bad, (0, 0), window=4),
    lambda bad: ext1((0, 0), bad, window=4),
    lambda bad: singular_vectors(verma(Weight(0, 0), 3), bad),
    lambda bad: stabilize_ext(bad, (0, 0)),
    lambda bad: mn_filtration(bad),
    lambda bad: hasse_diagram(bad),
])
@pytest.mark.parametrize("bad", [5, None, (1, 2, 3)])
def test_entry_points_reject_a_bad_weight_with_value_error(call, bad):
    # these used to raise TypeError from unpacking the value
    with pytest.raises(ValueError, match="a weight is a Weight or an "):
        call(bad)


@pytest.mark.parametrize("build", [verma, simple_module])
def test_depth_must_be_an_integer(build):
    with pytest.raises(ValueError, match="depth must be an integer, got 2.5"):
        build(Weight(1, 0), 2.5)
    with pytest.raises(ValueError, match="depth must be an integer"):
        build(Weight(1, 0), Fraction(5, 2))
    assert build(Weight(1, 0), Fraction(2)) == build(Weight(1, 0), 2)


def test_module_checks_survive_python_O():
    # assert statements vanish under -O; the checks must not
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("from takiff.modules import TruncatedModule, Weight\n"
            "try:\n"
            "    TruncatedModule(Weight(0, 0), 2, [1, 1], {})\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "depth 2 needs 3 slice dimensions, got 2"


def test_verma_rejects_a_normal_form_off_its_slice(monkeypatch):
    # a straightener bug that moved a term to another depth must not pass
    monkeypatch.setattr(modules_mod, "_gen_on_lowering_monomial",
                        lambda g, i, j: {(i + j + 1, 0, 0, 0, 0, 0): 1})
    with pytest.raises(RuntimeError, match="outside depth"):
        verma(Weight(0, 0), 1)


def test_check_relations_skips_only_at_the_edge():
    m = verma(Weight(0, 0), 3)
    rep = check_relations(m)
    assert rep.passed
    assert all(d >= m.depth - 1 for _, _, d in rep.skipped)


def check_relations_fraction(module):
    """Reference relation check on Mat products over Fractions, the form
    check_relations had before it moved to integers: an independent oracle
    for the integer check."""
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


def _assert_checks_agree(module):
    got, want = check_relations(module), check_relations_fraction(module)
    assert (got.passed, got.checked, got.skipped, got.failures) == \
        (want.passed, want.checked, want.skipped, want.failures)
    return got


def _perturbed(module, rnd, delta):
    """A copy of module with delta added to one entry of one nonempty
    block; None when every block is empty."""
    spots = [(g, n, r, c) for g in GENERATORS
             for n, blk in sorted(module.actions[g].items())
             for r in range(blk.nrows) for c in range(blk.ncols)]
    if not spots:
        return None
    g, n, r, c = rnd.choice(spots)
    actions = {h: dict(blocks) for h, blocks in module.actions.items()}
    blk = actions[g][n] = copy_mat(module.actions[g][n])
    blk.rows[r][c] += delta
    return TruncatedModule(module.top, module.depth, module.dims, actions,
                           complete=module.complete)


_tops = st.one_of(
    st.builds(Weight, _rationals, _rationals),
    # integral dominant tops give complete simples, checked to the edge
    st.builds(Weight, st.integers(0, 6), st.just(0)))
_deltas = st.fractions(min_value=-3, max_value=3,
                       max_denominator=5).filter(bool)


@settings(max_examples=40, deadline=None)
@given(_tops, st.integers(0, 6), st.randoms(use_true_random=False), _deltas)
def test_integer_check_matches_fraction_oracle(top, depth, rnd, delta):
    for module in (verma(top, depth), dualize(verma(top, depth)),
                   simple_module(top, depth)):
        assert _assert_checks_agree(module).passed
        bad = _perturbed(module, rnd, delta)
        if bad is not None:
            _assert_checks_agree(bad)


_cosets = st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2),
                           Fraction(-2, 3), Fraction(5, 3)])


@settings(max_examples=30, deadline=None)
@given(_cosets, st.integers(-2, 1), st.integers(-2, 1),
       st.sampled_from(["O", "Otilde"]), st.integers(3, 5),
       st.randoms(use_true_random=False), _deltas)
def test_integer_check_matches_fraction_oracle_on_extensions(
        rep, m1, m2, cat, window, rnd, delta):
    lam, mu = Weight(rep + 2 * m1, 0), Weight(rep + 2 * m2, 0)
    # ext1 needs a window at least 2 past the offset between the weights
    result = ext1(lam, mu, cat, window=max(window, abs(m1 - m2) + 2))
    for index in range(len(result.cocycles)):
        module = assemble_extension(result, index)
        assert _assert_checks_agree(module).passed
        _assert_checks_agree(_perturbed(module, rnd, delta))


def test_tampering_with_a_rational_entry_is_caught():
    # a denominator the other entries lack raises the common denominator
    m = verma(Weight(Fraction(1, 3), Fraction(-2, 5)), 4)
    bad = _perturbed(m, random.Random(0), Fraction(1, 7))
    rep = _assert_checks_agree(bad)
    assert not rep.passed and rep.failures


@pytest.mark.parametrize("g, n, shape, want", [
    (HBAR, 2, (2, 3), "3x3"),   # a depth-2 slice is 3-dimensional
    (F, 1, (3, 3), "3x2"),
    (E, 0, (1, 1), "0x1"),      # nothing lies above the top
])
def test_check_relations_rejects_a_misshapen_block(g, n, shape, want):
    m = verma(Weight(1, 0), 3)
    m.actions[g][n] = Mat.zeros(*shape)
    message = r"%s block at depth %d is %dx%d, expected %s" % (
        GEN_NAMES[g], n, shape[0], shape[1], want)
    with pytest.raises(ValueError, match=message):
        check_relations(m)


def test_check_relations_rejects_a_float_entry():
    # a bool is an int to isinstance, and True was once checked as 1
    for bad in (0.5, True):
        m = verma(Weight(1, 0), 3)
        m.act(HBAR, 2).rows[1][0] = bad
        message = "hbar block at depth 2 has a non-exact entry %r" % bad
        with pytest.raises(ValueError, match=re.escape(message)):
            check_relations(m)


def test_check_relations_input_checks_survive_python_O():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("from takiff.linalg import Mat\n"
            "from takiff.modules import Weight, check_relations, verma\n"
            "for edit in ('shape', 'float'):\n"
            "    m = verma(Weight(1, 0), 3)\n"
            "    if edit == 'shape':\n"
            "        m.actions[1][2] = Mat.zeros(2, 3)\n"
            "    else:\n"
            "        m.act(1, 2).rows[1][0] = 0.5\n"
            "    try:\n"
            "        check_relations(m)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "fbar block at depth 2 is 2x3, expected 4x3",
        "fbar block at depth 2 has a non-exact entry 0.5"]


# ---------------------------------------------------------------------------
# casimir and duality

@settings(max_examples=20, deadline=None)
@given(_rationals, _rationals)
def test_casimir_acts_by_scalar(lh, lb):
    lam = Weight(lh, lb)
    m = verma(lam, 4)
    s = casimir_scalar(lam)
    assert s == lb * (lh + 2)
    for n in range(3):
        a = casimir_action(m, n)
        assert a == Mat.identity(m.dims[n]) * s


@settings(max_examples=20, deadline=None)
@given(_rationals, _rationals)
def test_dualize_involution_and_character(lh, lb):
    m = verma(Weight(lh, lb), 4)
    dm = dualize(m)
    assert character(dm) == character(m)
    assert dualize(dm) == m
    assert check_relations(dm).passed


def test_dualize_swaps_raising_and_lowering():
    m = verma(Weight(2, 0), 4)
    dm = dualize(m)
    for n in range(m.depth):
        assert dm.act(E, n + 1) == m.act(F, n).transpose()
        assert dm.act(EBAR, n + 1) == m.act(FBAR, n).transpose()


# ---------------------------------------------------------------------------
# category membership

def test_category_membership():
    # every Verma has diagonal h and generalized hbar, so it sits in both
    # flavors; Otilde differs only once h itself picks up Jordan blocks,
    # which test_ext exercises on assembled extensions
    for lam in (Weight(3, 0), Weight(3, 1)):
        m = verma(lam, 4)
        assert category_check(m, "O")
        assert category_check(m, "Otilde")
    # the same actions under a top they do not have: an hbar-value off by 1
    # leaves hbar - top.hbar invertible, an h-value off by 2 does the same
    # to h - (top.h - 2n), and either puts the module in neither flavor
    m = verma(Weight(3, 1), 4)
    for top in (Weight(3, 2), Weight(5, 1)):
        relabelled = TruncatedModule(top, m.depth, m.dims, m.actions)
        assert not category_check(relabelled, "O")
        assert not category_check(relabelled, "Otilde")
    # "O" and "Otilde" are the only spellings, as for ext1 and --cat
    for flavor in ("bogus", "~O", "O~"):
        with pytest.raises(ValueError, match="unknown category flavor"):
            category_check(verma(Weight(0, 0), 2), flavor)


def test_weight_and_character_helpers():
    w = Weight(3, Fraction(1, 2))
    assert w.down() == Weight(1, Fraction(1, 2))
    assert w.down(2) == Weight(-1, Fraction(1, 2))
    assert not w.is_integral_dominant()
    assert Weight(4, 0).is_integral_dominant()
    assert w.to_json() == {"h": "3", "hbar": "1/2"}

    ch = character(verma(Weight(0, 0), 5))
    assert ch.dim_at(3) == 4
    assert ch.to_json() == {"top": {"h": "0", "hbar": "0"}, "depth": 5,
                            "dims": {str(d): d + 1 for d in range(6)}}


def test_float_weights_rejected():
    with pytest.raises(ValueError, match="h must be an exact rational"):
        Weight(0.5, 0)
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(ValueError, match="hbar must be an exact rational "
                                         ".* got 0.1"):
        Weight(1, 0.1)
    for h in ("one", None):
        with pytest.raises(ValueError, match="h must be an exact rational"):
            Weight(h, 0)


@pytest.mark.parametrize("depth, dims, message", [
    (3, {0: 1.5, 1: 2}, "dimension must be an integer, got 1.5"),
    (2.7, {0: 1}, "depth must be an integer, got 2.7"),
    (3, {0.5: 1}, "depth must be an integer, got 0.5"),
    (True, {0: 1}, "depth must be an integer, got True"),
    (3, {0: True}, "dimension must be an integer, got True"),
    (3, {True: 1}, "depth must be an integer, got True"),
    (3, {"1/0": 1}, "depth must be an integer, got '1/0'"),
])
def test_character_rejects_non_integers(depth, dims, message):
    # int() would truncate these to 1, 2 and 0
    with pytest.raises(ValueError, match=message):
        Character(Weight(1, 0), depth, dims)


def test_character_accepts_integral_fractions():
    ch = Character(Weight(1, 0), Fraction(3), {Fraction(1): Fraction(2)})
    assert ch.depth == 3 and ch.dims == {1: 2}
    assert type(ch.depth) is int and all(type(x) is int for x in
                                          [*ch.dims, *ch.dims.values()])


@pytest.mark.parametrize("depth, dims, message", [
    (-1, {}, "depth must be >= 0, got -1"),
    (2, {5: 1}, r"dimensions at depths \[5\] lie outside the window 0\.\.2"),
    (2, {-1: 1, 0: 1}, r"depths \[-1\] lie outside"),
])
def test_character_rejects_windows_no_module_has(depth, dims, message):
    with pytest.raises(ValueError, match=message):
        Character(Weight(0, 0), depth, dims)


def test_character_drops_zero_dimensions_before_checking_depths():
    assert Character(Weight(0, 0), 2, {2: 1, 5: 0}).dims == {2: 1}


@pytest.mark.parametrize("call, message", [
    # True is not the number 1
    (lambda: Weight(True, 0), "h must be an exact rational .* got True"),
    (lambda: Weight("1/0", 0), "h must be an exact rational .* got '1/0'"),
    (lambda: Weight(0, "-3/0"),
     "hbar must be an exact rational .* got '-3/0'"),
])
def test_weight_refuses_booleans_and_zero_denominators(call, message):
    with pytest.raises(ValueError, match=message):
        call()




# ---------------------------------------------------------------------------
# serialization: the package writes JSON; these readers, built on the
# constructors, show that what it writes is complete and that the
# constructors refuse inexact JSON-shaped input

def _weight_from_json(data):
    return Weight(data["h"], data["hbar"])


def _character_from_json(data):
    # JSON object keys are strings: read them exactly, and leave the
    # integer and range checks to Character
    return Character(_weight_from_json(data["top"]), data["depth"],
                     {exact_rat(d, "depth"): m
                      for d, m in data["dims"].items()})


def _module_from_json(data):
    dims = data["dims"]
    actions = {}
    for name, blocks in data["actions"].items():
        g = GEN_NAMES.index(name)
        for block in blocks:
            n = block["from_depth"]
            mat = Mat.zeros(dims[n + DEPTH_SHIFT[g]], dims[n])
            for r, c, a in block["entries"]:
                mat.rows[r][c] = Fraction(a)
            actions.setdefault(g, {})[n] = mat
    return TruncatedModule(_weight_from_json(data["top"]), data["depth"],
                           dims, actions, complete=data["complete"])


def _character_json(**changes):
    data = {"top": {"h": "1", "hbar": "0"}, "depth": 3,
            "dims": {"0": 1, "1": 2}}
    data.update(changes)
    return data


@pytest.mark.parametrize("data, message", [
    (_character_json(depth=2.7), "depth must be an integer, got 2.7"),
    (_character_json(dims={"0": 1.5}), "dimension must be an integer, "
                                       "got 1.5"),
    (_character_json(dims={"1.5": 1}), "depth must be an integer"),
    (_character_json(top={"h": 0.1, "hbar": "0"}),
     "h must be an exact rational"),
    (_character_json(depth=-3), "depth must be >= 0, got -3"),
    (_character_json(dims={"4": 1}), r"depths \[4\] lie outside"),
])
def test_character_from_json_rejects_floats_and_non_integers(data, message):
    with pytest.raises(ValueError, match=message):
        _character_from_json(data)


@pytest.mark.parametrize("data, message", [
    ({"h": 0.1, "hbar": "0"}, "h must be an exact rational .* got 0.1"),
    ({"h": "1", "hbar": 0.5}, "hbar must be an exact rational .* got 0.5"),
    ({"h": "1", "hbar": "one"}, "hbar must be an exact rational"),
    ({"h": None, "hbar": "0"}, "h must be an exact rational"),
])
def test_weight_from_json_rejects_floats(data, message):
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(ValueError, match=message):
        _weight_from_json(data)


@pytest.mark.parametrize("data, message", [
    (_character_json(depth=True), "depth must be an integer, got True"),
    (_character_json(dims={"0": True}),
     "dimension must be an integer, got True"),
    (_character_json(dims={"1/0": 1}),
     "depth must be an exact rational .* got '1/0'"),
    (_character_json(top={"h": "1", "hbar": "2/0"}),
     "hbar must be an exact rational .* got '2/0'"),
])
def test_character_from_json_refuses_booleans_and_zero_denominators(
        data, message):
    with pytest.raises(ValueError, match=message):
        _character_from_json(data)


def test_weight_from_json_reads_exact_numbers():
    assert _weight_from_json({"h": "-3/4", "hbar": 2}) == \
        Weight(Fraction(-3, 4), 2)


def test_module_json_roundtrip():
    for lam in (Weight(2, 0), Weight(Fraction(1, 2), Fraction(-3, 4))):
        m = verma(lam, 3)
        again = _module_from_json(module_to_json(m))
        assert again == m
        s = simple_module(Weight(2, 0), 4)
        assert _module_from_json(module_to_json(s)) == s
    assert _character_from_json(character(m).to_json()) == character(m)
