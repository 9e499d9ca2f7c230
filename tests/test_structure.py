"""Singular vectors, submodules and quotients, multiplicity peeling, the
uniserial quotients, and submodule diagrams."""

import random
from fractions import Fraction
from math import ceil
from types import SimpleNamespace

import pytest

from takiff.algebra import DEPTH_SHIFT, E, EBAR, F, FBAR, GENERATORS
from takiff.linalg import Mat, solve_columns
from takiff.modules import (TruncatedModule, Weight, character,
                            check_relations, dualize, simple_dims, verma)
from takiff.structure import (cosingular_dim, hasse_diagram, mn_filtration,
                              multiplicities, project_vector, quotient,
                              singular_vectors, submodule)
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
    assert s.parent is m
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
                for c in range(s.embedding[tgt].ncols):
                    rs.add(s.embedding[tgt].column(c))
                for c in range(img.ncols):
                    assert rs.contains(img.column(c))


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
        emb = s.embedding[d]
        for c in range(emb.ncols):
            img = project_vector(q, d, emb.column(c))
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
    with pytest.raises(ValueError):
        mn_filtration(Weight(3, 0), depth=3)  # window too small


# ---------------------------------------------------------------------------
# submodule diagrams

def test_hasse_chains_for_small_n():
    hd0 = hasse_diagram(Weight(0, 0))
    assert [x[0] for x in hd0.nodes] == ["V0", "V1", "V2", "K0"]
    assert hd0.edges == [("K0", "V1"), ("V0", "K0"), ("V1", "V2")]

    hd1 = hasse_diagram(Weight(1, 0))
    assert [x[0] for x in hd1.nodes] == ["V0", "V1", "V2", "K1"]
    assert hd1.edges == [("K1", "V1"), ("V0", "K1"), ("V1", "V2")]


def test_hasse_n2():
    hd = hasse_diagram(Weight(2, 0))
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
