"""Straightening, bracket axioms, gradings, and the Casimir element."""

import heapq
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from takiff.algebra import (E, EBAR, F, FBAR, H, HBAR, BAR_DEGREE,
                            GENERATORS, GEN_NAMES, _BRACKET, EnvelopingElement,
                            _gen_times_word, casimir, exponents_to_word,
                            lie_bracket, straighten_word)

ONE = (0,) * 6  # the exponents of the constant monomial 1


# ad(h)-eigenvalue of each generator, the grading straightening keeps
H_WEIGHT = (-2, -2, 0, 0, 2, 2)


def element(*words_and_coefs):
    """The sum of the (word, coefficient) pairs, straightened."""
    out = {}
    for word, coef in words_and_coefs:
        for exps, c in straighten_word(word).items():
            out[exps] = out.get(exps, 0) + Fraction(coef) * c
    return EnvelopingElement(out)


def word_to_exponents(word):
    """Exponent 6-tuple of a sorted word."""
    assert list(word) == sorted(word), word
    return tuple(word.count(g) for g in GENERATORS)


def word_h_weight(word):
    return sum(H_WEIGHT[g] for g in word)


def word_bar_degree(word):
    return sum(BAR_DEGREE[g] for g in word)


def _inversions(word):
    seen = [0] * 6
    inv = 0
    for g in word:
        inv += sum(seen[g + 1:])
        seen[g] += 1
    return inv


def straighten_leftmost(word, coefficient=Fraction(1)):
    """Reference straightener: repeatedly rewrite the leftmost out-of-order
    adjacent pair x*y -> y*x + [x,y].  Same answer as straighten_word (the
    normal form is unique); an independent cross-check of its recursion.

    A rewrite either removes one inversion or shortens the word, so words
    are taken longest first, then most inversions first: every contribution
    to a word is merged in before it is rewritten, and a word such as
    e h^40 is rewritten 41 times, not along 2^40 paths.
    """
    word = tuple(word)
    pending = {word: Fraction(coefficient)}
    heap = [(-len(word), -_inversions(word), word)]
    done = {}
    while heap:
        w = heapq.heappop(heap)[2]
        c = pending.pop(w)
        if c == 0:
            continue
        for i in range(len(w) - 1):
            x, y = w[i], w[i + 1]
            if x > y:
                out = [(w[:i] + (y, x) + w[i + 2:], c)]
                out += [(w[:i] + (g,) + w[i + 2:], c * cb)
                        for g, cb in _BRACKET[(x, y)]]
                for w2, c2 in out:
                    if w2 not in pending:
                        pending[w2] = 0
                        heapq.heappush(heap,
                                       (-len(w2), -_inversions(w2), w2))
                    pending[w2] += c2
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
                        for g2, cf2 in lie_bracket(x, g).items():
                            acc[g2] = acc.get(g2, 0) + cf * cf2
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
    # a coefficient enters as a constant element: the product scales the
    # integer normal form of each pair of monomials once
    third = EnvelopingElement({ONE: Fraction(1, 3)})
    nf = third * straighten_word((E, F))
    assert nf == element(((F, E), Fraction(1, 3)), ((H,), Fraction(1, 3)))
    assert [type(c) for c in nf.values()] == [Fraction, Fraction]
    assert EnvelopingElement({ONE: 0}) * straighten_word((E, F)) == {}


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


@settings(max_examples=60, deadline=None)
@given(_word, st.lists(st.sampled_from(GENERATORS), min_size=0, max_size=12))
def test_rewriters_agree_on_long_sorted_suffixes(prefix, suffix):
    word = tuple(prefix) + tuple(sorted(suffix))
    assert straighten_word(word) == straighten_leftmost(word)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GENERATORS),
       st.lists(st.tuples(st.sampled_from(GENERATORS), st.integers(0, 40)),
                max_size=3))
def test_rewriters_agree_on_high_powers(g, powers):
    # the kernel passes a whole power x^a per step, the oracle one letter
    word = (g,) + tuple(x for x, k in sorted(powers) for _ in range(k))
    assert straighten_word(word) == straighten_leftmost(word)


def test_long_words_straighten_with_few_memo_entries():
    # one memo entry per (generator, monomial) met, not per letter passed
    _gen_times_word.cache_clear()
    word = (EBAR, E) + (FBAR,) * 700 + (F,) * 300
    assert len(straighten_word(word)) == 11
    assert _gen_times_word.cache_info().currsize < 2000


def test_exponents_and_words_round_trip():
    exps = (3, 0, 1, 2, 0, 1)
    assert exponents_to_word(exps) == (F, F, F, H, HBAR, HBAR, EBAR)
    assert word_to_exponents(exponents_to_word(exps)) == exps


@pytest.mark.parametrize("exps, message", [
    ((0, 0, 0, 0, 0, 0, 1), "has 7 entries, not 6"),
    ((1, 2), "has 2 entries, not 6"),
    ((0, -1, 0, 0, 0, 0), "entry 1 is -1, not a non-negative int"),
    ((0, 0, Fraction(1, 2), 0, 0, 0), "entry 2 is Fraction"),
    ((1, 0, 0, 0, 0, 0, 0), "has 7 entries, not 6"),
    ((-1, 0, 0, 0, 0, 0), "entry 0 is -1, not a non-negative int"),
    ((True, 0, 0, 0, 0, 0), "entry 0 is True, not a non-negative int"),
])
def test_element_keys_are_checked(exps, message):
    # the constructor checks every key: (1, 0, 0, 0, 0, 0, 0) used to print
    # as f, (-1, 0, 0, 0, 0, 0) to be written as f^-1, and True to read as 1
    with pytest.raises(ValueError, match=re.escape(message)):
        EnvelopingElement({exps: 1})


def test_element_takes_one_form():
    # a dict of terms, and products of two elements; no list of pairs, and
    # no scalar operand
    with pytest.raises(TypeError, match="takes a dict, got list"):
        EnvelopingElement([(ONE, 1)])
    x = straighten_word((E,))
    for bad in (2, {ONE: 2}):
        with pytest.raises(TypeError, match="must be an EnvelopingElement"):
            x * bad


@pytest.mark.parametrize("op", ["+", "-", "*"])
@pytest.mark.parametrize("bad", [2, Fraction(1, 2), {ONE: 2}, None])
def test_element_operands_must_be_elements(op, bad):
    # x + 2 used to fail on a missing attribute, x - 2 inside the
    # constructor, and a plain dict of terms was taken by + and -
    x = straighten_word((E,))
    message = "EnvelopingElement %s %s: the operand must be an " \
              "EnvelopingElement" % (op, type(bad).__name__)
    with pytest.raises(TypeError, match=re.escape(message)):
        {"+": EnvelopingElement.__add__, "-": EnvelopingElement.__sub__,
         "*": EnvelopingElement.__mul__}[op](x, bad)


def test_sorted_word_is_not_pushed_through_the_kernel():
    # the longest sorted suffix is its own normal form: a sorted word asks
    # the memoized kernel nothing
    _gen_times_word.cache_clear()
    w = (F,) * 10 + (FBAR,) * 10 + (H, E)
    assert straighten_word(w) == {word_to_exponents(w): Fraction(1)}
    info = _gen_times_word.cache_info()
    assert info.hits + info.misses == 0


@settings(max_examples=120, deadline=None)
@given(_word, st.sampled_from([1, Fraction(1), Fraction(1, 3), -2,
                               Fraction(-5, 7)]))
def test_straighten_coefficients_are_fractions(word, coefficient):
    # the kernel runs on ints; none of them may reach a result, where an
    # int that compares equal to the right Fraction would still slip past
    # an equality test.  A product scales the integer normal form itself.
    word = tuple(word)
    nf = straighten_word(word)
    scaled = EnvelopingElement({ONE: coefficient}) * nf
    assert all(type(c) is Fraction for c in nf.values())
    assert all(type(c) is Fraction for c in scaled.values())
    assert nf == straighten_leftmost(word)
    assert scaled == straighten_leftmost(word, coefficient)


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
    assert straighten_word(a + b) == straighten_word(a) * straighten_word(b)


# ---------------------------------------------------------------------------
# element arithmetic

def test_element_arithmetic():
    x = element(((E, F), 1))          # straightens on construction
    y = element(((H,), 1))
    assert x - y == element(((F, E), 1))
    assert (x + (-x)) == EnvelopingElement({})


def _element_from_json(data):
    # the package only writes elements; reading one back term by term
    # shows that the written form keeps every exponent and coefficient
    return EnvelopingElement({tuple(t["exp"]): Fraction(t["coef"])
                              for t in data["terms"]})


def test_element_json_roundtrip():
    x = straighten_word((E, EBAR, F, FBAR))
    assert _element_from_json(x.to_json()) == x
    data = x.to_json()
    assert all(isinstance(t["coef"], str) for t in data["terms"])


def test_element_json_roundtrip_keeps_the_constant_term():
    x = element(((E, F), 3), ((), Fraction(-1, 2)))
    assert (0,) * 6 in x
    assert _element_from_json(x.to_json()) == x


@pytest.mark.parametrize("bad", [-1, 6, "e", True, False])
@pytest.mark.parametrize("call, position", [
    (lambda g: straighten_word((E, g)), 1),
    (lambda g: straighten_word((g,)), 0),
    (lambda g: straighten_word((F, H, g)), 2),
    (lambda g: element(((g, F), 1)), 0),
    (lambda g: lie_bracket(g, E), 0),
    (lambda g: lie_bracket(E, g), 1),
])
def test_bad_generator_ids_are_rejected(call, position, bad):
    # -1 used to index the last exponent (ebar), 6 and "e" raised KeyError
    # or IndexError; True and False were read as the ids 1 and 0
    with pytest.raises(ValueError, match=r"letter %d is %r, not a generator "
                       r"id 0\.\.5" % (position, bad)):
        call(bad)


def test_repr_is_readable():
    assert repr(straighten_word((E, F))) == "h + f*e"
    assert repr(EnvelopingElement({})) == "0"


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
        assert c * x == x * c, GEN_NAMES[g]


@settings(max_examples=40, deadline=None)
@given(_word)
def test_casimir_commutes_with_words(word):
    x = straighten_word(tuple(word))
    c = casimir()
    assert c * x == x * c
