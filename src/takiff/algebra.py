"""Exact arithmetic in the universal envelope of the Takiff algebra sl2[x]/(x^2).

The Lie algebra g has six generators: an sl2 triple e, h, f together with
"barred" copies ebar = e*x, hbar = h*x, fbar = f*x, where x is a square-zero
parameter.  Brackets follow [a*x^i, b*x^j] = [a,b]*x^(i+j), which dies once
i+j >= 2, so barred generators commute among themselves and

    [e, f] = h          [h, e] = 2e          [h, f] = -2f
    [e, fbar] = [ebar, f] = hbar
    [h, ebar] = [hbar, e] = 2 ebar
    [h, fbar] = [hbar, f] = -2 fbar

All scalars are exact rationals and no floats appear anywhere.  Every public
result carries fractions.Fraction coefficients.  Inside, the straightening
kernel works in Python ints: the structure constants are the integers 0, +-1
and +-2, so the normal form of a word is an integer combination of sorted
words, and straighten_word multiplies by its rational coefficient only once,
where it builds the result.

PBW conventions
---------------
Generators are totally ordered  f < fbar < h < hbar < e < ebar  and encoded as
the integers 0..5 in that order.  A PBW monomial is an exponent 6-tuple

    (i_f, i_fbar, i_h, i_hbar, i_e, i_ebar)

standing for the ordered product f^i_f fbar^i_fbar h^i_h hbar^i_hbar e^i_e
ebar^i_ebar.  An element of the envelope is a finite rational combination of
such monomials; the canonical form keeps terms sorted lexicographically by
exponent tuple with zero coefficients dropped.

The key fact that makes straightening cheap here: for any two generators x > y
the bracket [x, y] is a combination of generators that are >= y in the PBW
order.  Hence pushing a single generator g into a PBW monomial x^a r from the
left (x its lowest letter, r the rest) never creates disorder further right:

    g x^a r = sum_k C(a, k) x^(a-k) ((-ad x)^k g) r,

where (-ad x)^k g involves only letters >= x.  So the "generator times
monomial" kernel below passes a whole power per step, each recursion is on
a monomial with one distinct letter fewer, calls nest at most six deep, and
the kernel is memoizable on (generator, exponent vector) -- it does not
depend on any highest weight.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb

__all__ = [
    "F", "FBAR", "H", "HBAR", "E", "EBAR", "GENERATORS", "GEN_NAMES",
    "GEN_BY_NAME", "BAR_DEGREE", "DEPTH_SHIFT",
    "lie_bracket", "EnvelopingElement", "element",
    "straighten", "straighten_word", "multiply", "casimir",
    "exponents_to_word", "word_to_exponents",
]

F, FBAR, H, HBAR, E, EBAR = range(6)
GENERATORS = (F, FBAR, H, HBAR, E, EBAR)
_GENERATOR_IDS = frozenset(GENERATORS)
GEN_NAMES = ("f", "fbar", "h", "hbar", "e", "ebar")
GEN_BY_NAME = {name: g for g, name in enumerate(GEN_NAMES)}

# x-degree, and how each generator moves the depth grading of a
# highest-weight module (depth n = weight lambda - n*alpha, alpha(h)=2).
BAR_DEGREE = (0, 1, 0, 1, 0, 1)
DEPTH_SHIFT = (+1, +1, 0, 0, -1, -1)


def exact_int(value, name):
    """value as an int.  Depths, windows and indices are integers: an int or
    an integral Fraction passes, anything else (4.9, 1.5, "3", 2.0, or a
    bool, which JSON readers hand out for true and false) raises ValueError
    naming the argument, where int() would truncate or read true as 1."""
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    raise ValueError("%s must be an integer, got %r" % (name, value))


def exact_rat(value, name):
    """value as a Fraction.  An int, a Fraction or a string such as "-3/4"
    passes; a float (0.1 is only a binary approximation of 1/10, and JSON
    readers hand out floats), a bool, a zero denominator ("1/0") or
    anything else raises ValueError naming the field."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError("%s must be an exact rational (an int or a 'p/q' "
                     "string with q != 0), got %r" % (name, value))


def _check_letters(letters, what):
    """Raise ValueError naming the first entry of the tuple letters that
    is not a generator id 0..5, and its position; what names the tuple."""
    if _GENERATOR_IDS.issuperset(letters):
        return
    for i, g in enumerate(letters):
        if g not in _GENERATOR_IDS:
            raise ValueError("%s %r: letter %d is %r, not a generator id "
                             "0..5" % (what, letters, i, g))


# ---------------------------------------------------------------------------
# structure constants

_SL2 = {
    ("e", "f"): (("h", 1),),
    ("f", "e"): (("h", -1),),
    ("h", "e"): (("e", 2),),
    ("e", "h"): (("e", -2),),
    ("h", "f"): (("f", -2),),
    ("f", "h"): (("f", 2),),
}

_BASE = {"f": (F, FBAR), "h": (H, HBAR), "e": (E, EBAR)}
_NAME_OF = {F: ("f", 0), FBAR: ("f", 1), H: ("h", 0), HBAR: ("h", 1),
            E: ("e", 0), EBAR: ("e", 1)}


def _build_bracket_table():
    table = {}
    for x in GENERATORS:
        for y in GENERATORS:
            ax, dx = _NAME_OF[x]
            ay, dy = _NAME_OF[y]
            out = ()
            if dx + dy <= 1:
                for name, c in _SL2.get((ax, ay), ()):
                    out += ((_BASE[name][dx + dy], c),)
            table[(x, y)] = out
    return table


_BRACKET = _build_bracket_table()

# the 15 unordered generator pairs x < y, one per relation [x, y]
_PAIRS = [(x, y) for x in GENERATORS for y in GENERATORS if x < y]


def lie_bracket(a, b):
    """Bracket of two Lie elements given as {gen: coefficient} dicts.

    Single generators may be passed as bare ids.  Returns a canonical dict
    (zero coefficients dropped).

    >>> lie_bracket({E: 1}, {FBAR: 1})
    {3: Fraction(1, 1)}
    """
    a = a if isinstance(a, dict) else {a: 1}
    b = b if isinstance(b, dict) else {b: 1}
    _check_letters(tuple(a), "first bracket argument")
    _check_letters(tuple(b), "second bracket argument")
    out = {}
    for x, cx in a.items():
        for y, cy in b.items():
            for g, c in _BRACKET[(x, y)]:
                out[g] = out.get(g, Fraction(0)) + Fraction(cx) * Fraction(cy) * c
    return {g: c for g, c in out.items() if c != 0}


# ---------------------------------------------------------------------------
# straightening

def word_to_exponents(word):
    """Exponent 6-tuple of a sorted word.  Raises ValueError naming the first
    entry that is not a generator id, or the word if it is not sorted."""
    word = tuple(word)
    _check_letters(word, "word")
    exps = [0] * 6
    prev = -1
    for g in word:
        if g < prev:
            raise ValueError("word is not in PBW order: %r" % (word,))
        exps[g] += 1
        prev = g
    return tuple(exps)


def exponents_to_word(exps):
    """The sorted word of an exponent 6-tuple.  Raises ValueError unless
    there are six entries, naming the first that is not a non-negative
    int."""
    exps = tuple(exps)
    if len(exps) != 6:
        raise ValueError("exponent vector %r has %d entries, not 6"
                         % (exps, len(exps)))
    for g, k in enumerate(exps):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent vector %r: entry %d is %r, not a "
                             "non-negative int" % (exps, g, k))
    word = ()
    for g in GENERATORS:
        word += (g,) * exps[g]
    return word


@lru_cache(maxsize=None)
def _gen_times_word(g, exps):
    """Normal form of g times the PBW monomial with exponent 6-tuple exps.

    Returns a tuple of (exponent tuple, int) pairs: the structure constants
    are integers, so the coefficients are too.  With x the lowest letter of
    the monomial, a its power and r the rest, the module docstring's sum
    gives g x^a r term by term.  The normal form of ((-ad x)^k g) r is a
    recursive call on r, which lacks x; its monomials have no letter below
    x, so x^(a-k) goes in front by adding to the x exponent.
    """
    x = next((i for i, k in enumerate(exps) if k), 6)  # 6: exps is empty
    if g <= x:
        return ((exps[:g] + (exps[g] + 1,) + exps[g + 1:], 1),)
    a = exps[x]
    rest = exps[:x] + (0,) + exps[x + 1:]
    acc = {}
    y, cy = g, 1  # (-ad x)^k g = cy * y
    for k in range(a + 1):
        for w, c in _gen_times_word(y, rest):
            key = w[:x] + (w[x] + a - k,) + w[x + 1:]
            acc[key] = acc.get(key, 0) + comb(a, k) * cy * c
        if not _BRACKET[(x, y)]:
            break
        # the bracket of two generators is a multiple of one generator
        (y, c), = _BRACKET[(x, y)]
        cy *= -c
    return tuple(sorted((w, c) for w, c in acc.items() if c))


def straighten_word(word, coefficient=Fraction(1)):
    """PBW normal form of a single word (tuple of generator ids), times
    ``coefficient``.  The word is straightened over the integers and scaled
    by the coefficient once at the end, so every coefficient of the result
    is a Fraction.

    >>> sorted(straighten_word((E, FBAR, FBAR)).items())
    [((0, 1, 0, 1, 0, 0), Fraction(2, 1)), ((0, 2, 0, 0, 1, 0), Fraction(1, 1))]
    """
    word = tuple(word)
    _check_letters(word, "word")
    # the longest sorted suffix is its own normal form, so straightening
    # starts from it and pushes in only the letters before it
    k = max(len(word) - 1, 0)
    while k > 0 and word[k - 1] <= word[k]:
        k -= 1
    terms = {word_to_exponents(word[k:]): 1}
    for g in reversed(word[:k]):
        nxt = {}
        for w, c in terms.items():
            for w2, c2 in _gen_times_word(g, w):
                nxt[w2] = nxt.get(w2, 0) + c * c2
        terms = {w: c for w, c in nxt.items() if c}
    coefficient = Fraction(coefficient)
    out = EnvelopingElement()
    if coefficient == 1:
        # dict.update adopts the nonzero Fractions without coercing again
        out.update((w, Fraction(c)) for w, c in terms.items())
    elif coefficient:
        out.update((w, coefficient * c) for w, c in terms.items())
    return out


def straighten(expr):
    """PBW normal form of a rational combination of words.

    ``expr`` may be a single word (tuple/list of generator ids), a mapping
    word -> coefficient, or an iterable of (word, coefficient) pairs.  A
    tuple or list with no tuple or list inside is a word, so a bad letter
    raises straighten_word's ValueError.
    """
    if isinstance(expr, EnvelopingElement):
        return expr
    if isinstance(expr, (tuple, list)) and \
            not any(isinstance(g, (tuple, list)) for g in expr):
        return straighten_word(tuple(expr))
    if isinstance(expr, dict):
        items = expr.items()
    else:
        items = expr
    out = EnvelopingElement({})
    for word, coef in items:
        out = out + straighten_word(tuple(word), Fraction(coef))
    return out


# ---------------------------------------------------------------------------
# elements of the envelope

class EnvelopingElement(dict):
    """A PBW-normal element: {exponent 6-tuple: Fraction}, zeros dropped.

    Supports +, -, scalar *, and associative * of elements (products are
    re-straightened).  Instances compare equal as plain dicts, so the zero
    element is the empty dict.
    """

    def __init__(self, terms=()):
        super().__init__()
        items = terms.items() if isinstance(terms, dict) else terms
        for exps, coef in items:
            coef = Fraction(coef)
            if coef != 0:
                self[tuple(exps)] = coef

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        out = dict(self)
        for exps, coef in other.items():
            s = out.get(exps, Fraction(0)) + coef
            if s == 0:
                out.pop(exps, None)
            else:
                out[exps] = s
        return EnvelopingElement(out)

    def __neg__(self):
        return EnvelopingElement({e: -c for e, c in self.items()})

    def __sub__(self, other):
        return self + (-EnvelopingElement(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out = EnvelopingElement({})
        for e1, c1 in self.items():
            w1 = exponents_to_word(e1)
            for e2, c2 in other.items():
                out = out + straighten_word(w1 + exponents_to_word(e2), c1 * c2)
        return out

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def scale(self, scalar):
        scalar = Fraction(scalar)
        return EnvelopingElement({e: c * scalar for e, c in self.items()})

    # -- inspection ---------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.items())

    def __repr__(self):
        if not self:
            return "0"
        parts = []
        for exps, coef in self.sorted_terms():
            mono = "*".join(
                GEN_NAMES[g] + ("" if exps[g] == 1 else "^%d" % exps[g])
                for g in GENERATORS if exps[g])
            if not mono:
                parts.append(str(coef))
            elif coef == 1:
                parts.append(mono)
            else:
                parts.append("%s*%s" % (coef, mono))
        return " + ".join(parts)

    # -- serialization --------------------------------------------------

    def to_json(self):
        return {"terms": [{"exp": list(exps), "coef": str(coef)}
                          for exps, coef in self.sorted_terms()]}

    @classmethod
    def from_json(cls, data):
        """The element to_json wrote.  Each term's exp must be six
        non-negative integers; anything else raises ValueError naming the
        term."""
        terms = {}
        for t in data["terms"]:
            exps = tuple(exact_int(e, "exp") for e in t["exp"])
            if len(exps) != 6 or min(exps) < 0:
                raise ValueError("exp must be six non-negative integers, "
                                 "got term %r" % (t,))
            terms[exps] = exact_rat(t["coef"], "coef")
        return cls(terms)


def element(*words_and_coefs):
    """Convenience constructor: element((word, coef), ...) straightened."""
    return straighten(list(words_and_coefs))


def multiply(a, b):
    """Product in the envelope (both arguments straightened first)."""
    return straighten(a) * straighten(b)


def casimir():
    """The quadratic central element  h*hbar + 2*hbar + 2*f*ebar + 2*fbar*e.

    It commutes with all six generators (verified in the test suite) and acts
    on a highest-weight module of weight lambda by the scalar
    lambda(hbar) * (lambda(h) + 2).
    """
    return EnvelopingElement({
        (0, 0, 1, 1, 0, 0): Fraction(1),
        (0, 0, 0, 1, 0, 0): Fraction(2),
        (1, 0, 0, 0, 0, 1): Fraction(2),
        (0, 1, 0, 0, 1, 0): Fraction(2),
    })
