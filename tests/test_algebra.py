"""Straightening, bracket axioms, gradings, and the Casimir element."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from takiff.algebra import (E, EBAR, F, FBAR, H, HBAR, GENERATORS, GEN_NAMES,
                            _BRACKET, EnvelopingElement, casimir, element,
                            lie_bracket, multiply, straighten,
                            straighten_word, word_bar_degree, word_h_weight,
                            word_to_exponents)


def straighten_leftmost(word, coefficient=Fraction(1)):
    """Reference straightener: repeatedly rewrite the leftmost out-of-order
    adjacent pair x*y -> y*x + [x,y].  Same answer as straighten_word (the
    normal form is unique); an independent cross-check of its recursion.
    """
    pending = [(tuple(word), Fraction(coefficient))]
    done = {}
    while pending:
        w, c = pending.pop()
        if c == 0:
            continue
        for i in range(len(w) - 1):
            x, y = w[i], w[i + 1]
            if x > y:
                swapped = w[:i] + (y, x) + w[i + 2:]
                pending.append((swapped, c))
                for g, cb in _BRACKET[(x, y)]:
                    pending.append((w[:i] + (g,) + w[i + 2:], c * cb))
                break
        else:
            key = word_to_exponents(w)
            done[key] = done.get(key, Fraction(0)) + c
    return EnvelopingElement({k: c for k, c in done.items() if c != 0})


# ---------------------------------------------------------------------------
# bracket table

def test_bracket_values():
    assert lie_bracket(E, F) == {H: 1}
    assert lie_bracket(E, FBAR) == {HBAR: 1}
    assert lie_bracket(EBAR, F) == {HBAR: 1}
    assert lie_bracket(H, E) == {E: 2}
    assert lie_bracket(H, F) == {F: -2}
    assert lie_bracket(HBAR, E) == {EBAR: 2}
    assert lie_bracket(H, FBAR) == {FBAR: -2}
    # barred against barred dies (degree-two truncation)
    for a in (FBAR, HBAR, EBAR):
        for b in (FBAR, HBAR, EBAR):
            assert lie_bracket(a, b) == {}


def test_antisymmetry_and_jacobi():
    for a in GENERATORS:
        for b in GENERATORS:
            ab = lie_bracket(a, b)
            assert ab == {g: -c for g, c in lie_bracket(b, a).items()}
    for a in GENERATORS:
        for b in GENERATORS:
            for c in GENERATORS:
                acc = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    for g, cf in lie_bracket(y, z).items():
                        for g2, cf2 in lie_bracket(x, {g: cf}).items():
                            acc[g2] = acc.get(g2, 0) + cf2
                assert not any(acc.values()), (a, b, c)


# ---------------------------------------------------------------------------
# straightening: frozen normal forms, each checked by hand against the
# bracket rules

def test_straighten_ef():
    assert straighten_word((E, F)) == element(((F, E), 1), ((H,), 1))


def test_straighten_e_fbar_fbar():
    want = element(((FBAR, FBAR, E), 1), ((FBAR, HBAR), 2))
    assert straighten_word((E, FBAR, FBAR)) == want


def test_straighten_ebar_f_f():
    want = element(((F, F, EBAR), 1), ((F, HBAR), 2), ((FBAR,), -2))
    assert straighten_word((EBAR, F, F)) == want


def test_straighten_h_f_fbar():
    want = element(((F, FBAR, H), 1), ((F, FBAR), -4))
    assert straighten_word((H, F, FBAR)) == want


def test_straighten_hbar_f():
    assert straighten_word((HBAR, F)) == element(((F, HBAR), 1),
                                                 ((FBAR,), -2))


def test_straighten_ebar_fbar():
    assert straighten_word((EBAR, FBAR)) == element(((FBAR, EBAR), 1))


def test_straighten_e2_f2():
    # acting on an sl2 highest weight vector this must give 2*lam*(lam-1)
    want = element(((H,), -2), ((H, H), 2), ((F, E), -8),
                   ((F, H, E), 4), ((F, F, E, E), 1))
    assert straighten_word((E, E, F, F)) == want


def test_straighten_respects_coefficient():
    assert straighten_word((E, F), Fraction(1, 3)) == \
        element(((F, E), Fraction(1, 3)), ((H,), Fraction(1, 3)))


def test_already_ordered_word_is_fixed():
    w = (F, F, FBAR, H, HBAR, E, EBAR)
    nf = straighten_word(w)
    assert nf == EnvelopingElement({word_to_exponents(w): Fraction(1)})


# ---------------------------------------------------------------------------
# properties: the two independent rewriters agree, and straightening
# preserves both gradings term by term

_word = st.lists(st.sampled_from(GENERATORS), min_size=0, max_size=7)


@settings(max_examples=120, deadline=None)
@given(_word)
def test_rewriters_agree(word):
    word = tuple(word)
    assert straighten_word(word) == straighten_leftmost(word)


@settings(max_examples=120, deadline=None)
@given(_word)
def test_straightening_preserves_gradings(word):
    word = tuple(word)
    hw, bd = word_h_weight(word), word_bar_degree(word)
    for exps, coef in straighten_word(word).items():
        mono = []
        for g, k in enumerate(exps):
            mono.extend([g] * k)
        assert word_h_weight(tuple(mono)) == hw
        # brackets can only keep or consume bar letters, never create them
        assert word_bar_degree(tuple(mono)) <= bd
        assert coef != 0


@settings(max_examples=60, deadline=None)
@given(_word, _word)
def test_multiplication_is_associative_with_concatenation(w1, w2):
    a, b = tuple(w1), tuple(w2)
    assert straighten_word(a + b) == multiply(straighten_word(a),
                                              straighten_word(b))


# ---------------------------------------------------------------------------
# element arithmetic and serialization

def test_element_arithmetic():
    x = element(((E, F), 1))          # straightens on construction
    y = element(((H,), 1))
    assert x - y == element(((F, E), 1))
    assert (x + (-x)) == EnvelopingElement()
    assert x * Fraction(1, 2) == element(((F, E), Fraction(1, 2)),
                                         ((H,), Fraction(1, 2)))
    assert 2 * y == element(((H,), 2))


def test_element_json_roundtrip():
    x = straighten_word((E, EBAR, F, FBAR))
    assert EnvelopingElement.from_json(x.to_json()) == x
    data = x.to_json()
    assert all(isinstance(t["coef"], str) for t in data["terms"])


def test_repr_is_readable():
    assert repr(straighten_word((E, F))) == "h + f*e"
    assert repr(EnvelopingElement()) == "0"


# ---------------------------------------------------------------------------
# casimir

def test_casimir_exponents():
    c = casimir()
    assert c == EnvelopingElement({
        (0, 0, 1, 1, 0, 0): Fraction(1),
        (0, 0, 0, 1, 0, 0): Fraction(2),
        (1, 0, 0, 0, 0, 1): Fraction(2),
        (0, 1, 0, 0, 1, 0): Fraction(2),
    })


def test_casimir_is_central():
    c = casimir()
    for g in GENERATORS:
        x = element(((g,), 1))
        assert multiply(c, x) == multiply(x, c), GEN_NAMES[g]


@settings(max_examples=40, deadline=None)
@given(_word)
def test_casimir_commutes_with_words(word):
    x = straighten_word(tuple(word))
    c = casimir()
    assert multiply(c, x) == multiply(x, c)


def test_straighten_dispatcher_accepts_words_and_pairs():
    nf = straighten((E, F))
    assert nf == straighten([((E, F), 1)])
    assert straighten(nf) == nf
