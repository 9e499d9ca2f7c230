"""Singular vectors, submodules and quotients, multiplicity peeling, the
uniserial quotients, and submodule diagrams."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import ceil
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from takiff import structure as structure_mod
from takiff.algebra import DEPTH_SHIFT, E, EBAR, F, FBAR, GENERATORS, H, HBAR
from takiff.ext import assemble_extension, ext1
from takiff.linalg import Mat, RowSpace, solve_columns
from takiff.modules import (TruncatedModule, Weight, character,
                            check_relations, dualize, simple_dims, verma)
from takiff.structure import (hasse_diagram, mn_filtration,
                              multiplicities, quotient, singular_vectors,
                              submodule)
from takiff.conformance import MULTIPLICITY_TABLES, HASSE_N4_EDGES


def _frac(xs):
    return [Fraction(x) for x in xs]


# ---------------------------------------------------------------------------
# singular vectors

def test_fbar_line_is_singular_when_degenerate():
    m = verma(Weight(Fraction(7, 3), 0), 4)
    vs = singular_vectors(m, m.top.down(1))
    assert len(vs) == 1
    v = vs[0]
    assert v[0] == 0 and v[1] != 0  # the fbar v line, not f v


def test_no_singular_vectors_when_nondegenerate():
    m = verma(Weight(Fraction(7, 3), Fraction(1, 5)), 5)
    for d in range(1, 4):
        assert singular_vectors(m, m.top.down(d)) == []


def test_singular_lines_are_fbar_powers():
    m = verma(Weight(1, 0), 6)
    for d in (1, 2, 3):
        vs = singular_vectors(m, Weight(1 - 2 * d, 0))
        assert len(vs) == 1
        assert vs[0] == _frac([0] * d + [1])


def test_singular_rejects_off_coset_weight():
    m = verma(Weight(0, 0), 4)
    with pytest.raises(ValueError):
        singular_vectors(m, Weight(1, 0))       # wrong parity
    with pytest.raises(ValueError):
        singular_vectors(m, Weight(0, 1))       # wrong hbar
    with pytest.raises(ValueError):
        singular_vectors(m, Weight(-12, 0))     # below the window


def cosingular_dim(module, mu):
    """Dimension of the mu-slice modulo everything reachable from above
    (images of both lowering operators) plus the non-eigen directions: the
    number of singular vectors of weight mu in dualize(module), counted
    without dualizing.  mu is validated as in singular_vectors."""
    mu, d = structure_mod._slice_of(module, mu)
    dim = module.dims[d]
    if dim == 0:
        return 0
    space = RowSpace(dim)
    for mat in (module.act(F, d - 1), module.act(FBAR, d - 1),
                module.act(H, d) - Mat.identity(dim) * mu.h,
                module.act(HBAR, d) - Mat.identity(dim) * mu.hbar):
        for col in mat.transpose().rows:
            space.add(col)
    return dim - space.dim()


def test_cosingular_rejects_off_coset_weight():
    m = verma(Weight(2, 0), 4)
    with pytest.raises(ValueError, match="integer k >= 0"):
        cosingular_dim(m, Weight(20, 0))        # above the top
    with pytest.raises(ValueError, match="integer k >= 0"):
        cosingular_dim(m, Weight(1, 0))         # wrong parity
    with pytest.raises(ValueError, match="hbar-value"):
        cosingular_dim(m, Weight(2, 1))         # wrong hbar
    with pytest.raises(ValueError, match="below the truncation window"):
        cosingular_dim(m, Weight(-10, 0))       # below the window


def test_cosingular_agrees_with_dual_singular():
    m = verma(Weight(2, 0), 5)
    dm = dualize(m)
    for d in range(4):
        mu = m.top.down(d)
        assert cosingular_dim(m, mu) == len(singular_vectors(dm, mu))


# ---------------------------------------------------------------------------
# submodules and quotients

def test_submodule_generated_by_fbar():
    m = verma(Weight(2, 0), 6)
    s = submodule(m, [(1, _frac([0, 1]))])
    # the copy of a Verma with top one alpha down: dims 0,1,2,3,...
    assert s.dims == [0, 1, 2, 3, 4, 5, 6]
    # embedding columns really are stable under the parent action
    for g in GENERATORS:
        for n in range(1, 5):
            emb = s.embedding[n]
            img = m.act(g, n) * emb
            tgt = n + (1 if g in (F, FBAR) else (-1 if g in (E, EBAR) else 0))
            if 0 <= tgt <= 6 and img.ncols:
                # each image column must lie in the embedded slice at tgt
                from takiff.linalg import RowSpace
                rs = RowSpace(m.dims[tgt])
                for col in s.embedding[tgt].transpose().rows:
                    rs.add(col)
                for col in img.transpose().rows:
                    assert rs.contains(col)


def test_submodule_relations_hold():
    m = verma(Weight(4, 0), 7)
    s = submodule(m, [(5, _frac([1, 0, 0, 0, 0, 0]))])  # f^5 v
    assert check_relations(s).passed
    # upward closure: contains vectors above the generator depth
    assert s.dims[4] > 0


def test_quotient_dimensions_and_exactness():
    m = verma(Weight(2, 0), 6)
    s = submodule(m, [(3, _frac([1, 0, 0, 0]))])   # f^3 v
    q = quotient(m, s)
    assert q.dims == [m.dims[d] - s.dims[d] for d in range(7)]
    assert check_relations(q).passed
    # projection kills the submodule
    for d in range(7):
        for col in s.embedding[d].transpose().rows:
            img = q.projection[d].matvec(col)
            assert all(x == 0 for x in img)


def _invertible(rng, k):
    """A random invertible k x k matrix: lower unitriangular times a nonzero
    diagonal times upper unitriangular."""
    def entry():
        return Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
    lower = Mat.identity(k)
    upper = Mat.identity(k)
    diag = Mat.identity(k)
    for i in range(k):
        diag.rows[i][i] = Fraction(rng.choice([-3, -1, 2, 5]),
                                   rng.randrange(1, 4))
        for j in range(i):
            lower.rows[i][j] = entry()
            upper.rows[j][i] = entry()
    return lower * diag * upper


def _twisted(module, rng):
    """The module in a random basis of each slice: acts by
    T[t]^-1 * act(g, d) * T[d].  In a Verma's PBW basis the submodules used
    below are spans of basis vectors, where mixing embedding columns cannot
    change the projection; in a random basis they are not."""
    T = [_invertible(rng, n) for n in module.dims]
    T_inv = [solve_columns(t, Mat.identity(t.nrows)) for t in T]
    actions = {g: {} for g in GENERATORS}
    for g in GENERATORS:
        for d in range(module.depth + 1):
            t = d + DEPTH_SHIFT[g]
            if module.dims[d] and 0 <= t <= module.depth:
                actions[g][d] = T_inv[t] * module.act(g, d) * T[d]
    return TruncatedModule(module.top, module.depth, module.dims, actions), \
        T_inv


@pytest.mark.parametrize("top, gens", [
    (Weight(2, 0), [(3, [1, 0, 0, 0])]),                  # f^3 v
    (Weight(4, 0), [(2, [0, 0, 1])]),                     # fbar^2 v
    (Weight(3, 0), [(1, [0, 1]), (4, [1, 0, 0, 0, 0])]),  # fbar v, f^4 v
    (Weight(Fraction(1, 2), 0), [(1, [0, 1])]),
])
def test_quotient_does_not_depend_on_the_embedding_basis(top, gens):
    # quotient() reduces each embedding to its canonical column space, so a
    # basis with rescaled and mixed columns gives the same quotient
    rng = random.Random(17)
    m, T_inv = _twisted(verma(top, 6), rng)
    assert check_relations(m).passed
    s = submodule(m, [(d, T_inv[d].matvec(_frac(v))) for d, v in gens])
    mixed = SimpleNamespace(
        dims=s.dims,
        embedding={d: emb * _invertible(rng, emb.ncols)
                   for d, emb in s.embedding.items()})
    assert any(mixed.embedding[d] != s.embedding[d] for d in s.embedding)
    want, got = quotient(m, s), quotient(m, mixed)
    assert got == want
    assert got.projection == want.projection
    assert check_relations(got).passed


def test_quotient_rejects_non_submodule():
    m = verma(Weight(2, 0), 5)
    s = submodule(m, [(3, _frac([1, 0, 0, 0]))])
    # tamper with the embedding so it is no longer closed
    s.embedding[2] = m.act(F, 1)  # nonsense columns
    with pytest.raises(ValueError):
        quotient(m, s)


# ---------------------------------------------------------------------------
# multiplicities

def test_multiplicity_tables_frozen():
    for top, want in MULTIPLICITY_TABLES.items():
        mt = multiplicities(character(verma(Weight(*top), 10)))
        assert dict(mt.entries) == want, top


def test_peeling_reconstructs_the_character():
    for top in ((0, 0), (1, 0), (2, 0), (Fraction(5, 2), 0), (1, 2)):
        ch = character(verma(Weight(*top), 10))
        mt = multiplicities(ch)
        for d in range(mt.trusted_depth + 1):
            total = 0
            for k, m in mt.entries.items():
                if k <= d:
                    total += m * simple_dims(mt.top.down(k), 10 - k)[d - k]
            assert total == ch.dim_at(d), (top, d)


def test_peeling_rejects_non_characters():
    from takiff.modules import Character
    fake = Character(Weight(0, 0), 4, {0: 1, 1: 3, 2: 0, 3: 0, 4: 0})
    with pytest.raises(ValueError):
        multiplicities(fake)


# ---------------------------------------------------------------------------
# uniserial quotients

def test_mn_filtration_small():
    for n in range(5):
        fr = mn_filtration(Weight(n, 0))
        assert (fr.depth, fr.trusted_depth) == (n + 5, n + 3)
        assert fr.uniserial
        assert len(fr.layers) == ceil((n + 1) / 2)
        for i, ch in enumerate(fr.layers):
            assert ch.top == Weight(n - 2 * i, 0)
        assert fr.certificate["terminates_at_zero"]
        assert fr.certificate["unique_simple_socle"]


def test_mn_filtration_rejects_bad_tops():
    with pytest.raises(ValueError):
        mn_filtration(Weight(Fraction(1, 2), 0))
    with pytest.raises(ValueError):
        mn_filtration(Weight(2, 1))


# ---------------------------------------------------------------------------
# submodule diagrams

def test_hasse_chains_for_small_n():
    # the window has depth n + floor(n/2) + 5
    hd0 = hasse_diagram(Weight(0, 0))
    assert hd0.depth == 5
    assert [x[0] for x in hd0.nodes] == ["V0", "V1", "V2", "K0"]
    assert hd0.edges == [("K0", "V1"), ("V0", "K0"), ("V1", "V2")]

    hd1 = hasse_diagram(Weight(1, 0))
    assert hd1.depth == 6
    assert [x[0] for x in hd1.nodes] == ["V0", "V1", "V2", "K1"]
    assert hd1.edges == [("K1", "V1"), ("V0", "K1"), ("V1", "V2")]


def test_hasse_n2():
    hd = hasse_diagram(Weight(2, 0))
    assert hd.depth == 8
    assert sorted(x[0] for x in hd.nodes) == ["K0", "K2", "V0", "V1",
                                              "V2", "V3"]
    assert hd.edges == [("K0", "V2"), ("K2", "K0"), ("V0", "K2"),
                        ("V0", "V1"), ("V1", "K0"), ("V2", "V3")]


def test_hasse_n4_frozen():
    hd = hasse_diagram(Weight(4, 0))
    assert sorted(hd.edges) == sorted(HASSE_N4_EDGES)


def test_hasse_dot_mentions_every_node():
    hd = hasse_diagram(Weight(2, 0))
    dot = hd.to_dot()
    for label in ("V0", "V1", "V2", "V3", "K0", "K2"):
        assert label in dot
    assert dot.startswith("digraph")


# ---------------------------------------------------------------------------
# the integer closure against the Fraction route

def submodule_by_solving(module, generators):
    """The Fraction route to submodule(): the closure through Mat.matvec
    and RowSpace.add, and every action block solved against the embedding
    with solve_columns.  Returns (module, embedding)."""
    N = module.depth
    spaces = [RowSpace(module.dims[d]) for d in range(N + 1)]
    work = []
    for d, vec in generators:
        vec = [Fraction(x) for x in vec]
        if spaces[d].add(vec):
            work.append((d, vec))
    while work:
        d, vec = work.pop()
        for g in GENERATORS:
            t = d + DEPTH_SHIFT[g]
            if not (0 <= t <= N) or module.dims[t] == 0:
                continue
            img = module.act(g, d).matvec(vec)
            if spaces[t].add(img):
                work.append((t, img))
    dims = [space.dim() for space in spaces]
    embedding = {d: Mat(dims[d], module.dims[d], spaces[d].rows).transpose()
                 for d in range(N + 1)}
    actions = {g: {} for g in GENERATORS}
    for g in GENERATORS:
        for d in range(N + 1):
            t = d + DEPTH_SHIFT[g]
            if dims[d] and 0 <= t <= N:
                actions[g][d] = solve_columns(
                    embedding[t], module.act(g, d) * embedding[d])
    return (TruncatedModule(module.top, N, dims, actions,
                            complete=module.complete), embedding)


def _random_generators(module, rnd):
    """One to three homogeneous vectors of small rationals, sparse or
    dense, at random depths of the module's nonzero slices."""
    depths = [d for d in range(module.depth + 1) if module.dims[d]]
    gens = []
    for _ in range(rnd.randint(1, 3) if depths else 0):
        d = rnd.choice(depths)
        density = rnd.choice([0.2, 0.5, 1.0])
        gens.append((d, [Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
                         if rnd.random() < density else Fraction(0)
                         for _ in range(module.dims[d])]))
    return gens


def _assert_submodule_matches_oracle(module, rnd):
    gens = _random_generators(module, rnd)
    got = submodule(module, gens)
    want, embedding = submodule_by_solving(module, gens)
    assert got.dims == want.dims
    assert got.embedding == embedding
    assert got == want  # every action block
    assert all(type(x) is Fraction for blocks in got.actions.values()
               for blk in blocks.values() for r in blk.rows for x in r)
    # the quotient selects the kept columns: proj . act . lift
    q = quotient(module, got)
    for g in GENERATORS:
        for d, blk in q.actions[g].items():
            pivots = _pivot_rows(got.embedding[d])
            kept = [c for c in range(module.dims[d]) if c not in pivots]
            lift = Mat(module.dims[d], len(kept),
                       [[int(c == k) for k in kept]
                        for c in range(module.dims[d])])
            t = d + DEPTH_SHIFT[g]
            assert blk == q.projection[t] * (module.act(g, d) * lift)
    return got


def _pivot_rows(embedding):
    """The pivot coordinates of an embedding whose columns are an RREF
    basis: the first nonzero row of each column."""
    return {next(r for r in range(embedding.nrows) if embedding.rows[r][c])
            for c in range(embedding.ncols)}


_rational_tops = st.builds(
    Weight, st.fractions(min_value=-8, max_value=8, max_denominator=4),
    st.fractions(min_value=-8, max_value=8, max_denominator=4))
_structure_tops = st.one_of(
    _rational_tops,
    # integral dominant tops have proper submodules and nonzero quotients
    st.builds(Weight, st.integers(0, 6), st.just(0)))


@settings(max_examples=40, deadline=None)
@given(_structure_tops, st.integers(0, 6), st.randoms(use_true_random=False))
def test_submodule_matches_solving_oracle(top, depth, rnd):
    m = verma(top, depth)
    for module in (m, dualize(m)):
        _assert_submodule_matches_oracle(module, rnd)
    sub = submodule(m, _random_generators(m, rnd))
    _assert_submodule_matches_oracle(quotient(m, sub), rnd)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2),
                        Fraction(-2, 3)]),
       st.integers(-2, 1), st.integers(-2, 1),
       st.sampled_from(["O", "Otilde"]), st.randoms(use_true_random=False))
def test_submodule_matches_solving_oracle_on_extensions(rep, m1, m2, cat,
                                                        rnd):
    lam, mu = Weight(rep + 2 * m1, 0), Weight(rep + 2 * m2, 0)
    result = ext1(lam, mu, cat, window=max(3, abs(m1 - m2) + 2))
    for index in range(len(result.cocycles)):
        _assert_submodule_matches_oracle(assemble_extension(result, index),
                                         rnd)


def _closure_by_submodule(module, generators, iacts):
    """_closure's RowSpaces through the full Fraction route."""
    sub, embedding = submodule_by_solving(module, generators)
    return [structure_mod._column_space(embedding[d])
            for d in range(module.depth + 1)]


@pytest.mark.parametrize("n", range(7))
def test_spans_only_routes_match_full_submodules(n, monkeypatch):
    top = Weight(n, 0)
    hasse, filtration = hasse_diagram(top), mn_filtration(top)
    monkeypatch.setattr(structure_mod, "_closure", _closure_by_submodule)
    want_hasse, want_filtration = hasse_diagram(top), mn_filtration(top)
    assert hasse.nodes == want_hasse.nodes
    assert hasse.edges == want_hasse.edges
    assert hasse.to_dot() == want_hasse.to_dot()
    assert filtration.layers == want_filtration.layers
    assert filtration.certificate == want_filtration.certificate
    assert filtration.uniserial and want_filtration.uniserial


# ---------------------------------------------------------------------------
# generator and vector validation

@pytest.mark.parametrize("depth, message", [
    (9, "generator depth 9 outside the window 0..5"),
    (-1, "generator depth -1 outside the window 0..5"),
    (1.0, "generator depth must be an integer, got 1.0"),
    (Fraction(3, 2), "generator depth must be an integer"),
])
def test_submodule_rejects_a_bad_generator_depth(depth, message):
    m = verma(Weight(2, 0), 5)
    with pytest.raises(ValueError, match=message):
        submodule(m, [(depth, [1] * 6)])


def test_submodule_rejects_a_generator_of_the_wrong_length():
    m = verma(Weight(2, 0), 5)
    with pytest.raises(ValueError, match="depth 2 has length 2, expected 3"):
        submodule(m, [(2, [1, 0])])


def test_quotient_rejects_an_embedding_of_the_wrong_height():
    m = verma(Weight(2, 0), 4)
    s = submodule(m, [(3, [1, 0, 0, 0])])
    s.embedding[3] = Mat.identity(3)
    with pytest.raises(ValueError, match="depth 3 has 3 rows, expected 4"):
        quotient(m, s)


def test_generator_depth_checks_survive_python_O():
    # under -O a depth of -1 would index the last slice
    root = Path(__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = ("from takiff.modules import Weight, verma\n"
            "from takiff.structure import submodule\n"
            "m = verma(Weight(2, 0), 5)\n"
            "for d, v in ((-1, [1]), (9, [1])):\n"
            "    try:\n"
            "        submodule(m, [(d, v)])\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "generator depth -1 outside the window 0..5",
        "generator depth 9 outside the window 0..5"]
