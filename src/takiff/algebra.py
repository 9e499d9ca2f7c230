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
order.  Hence pushing a single generator into an already sorted word from the
left never creates disorder further right, and the "generator times sorted
word" kernel below is closed under its own recursion (and memoizable -- it
does not depend on any highest weight).
"""

from fractions import Fraction
from functools import lru_cache

__all__ = [
    "F", "FBAR", "H", "HBAR", "E", "EBAR", "GENERATORS", "GEN_NAMES",
    "GEN_BY_NAME", "H_WEIGHT", "BAR_DEGREE", "DEPTH_SHIFT",
    "bracket", "lie_bracket", "EnvelopingElement", "element",
    "straighten", "straighten_word",
    "multiply", "casimir", "word_h_weight", "word_bar_degree",
    "exponents_to_word", "word_to_exponents",
]

F, FBAR, H, HBAR, E, EBAR = range(6)
GENERATORS = (F, FBAR, H, HBAR, E, EBAR)
_GENERATOR_IDS = frozenset(GENERATORS)
GEN_NAMES = ("f", "fbar", "h", "hbar", "e", "ebar")
GEN_BY_NAME = {name: g for g, name in enumerate(GEN_NAMES)}

# ad(h)-eigenvalue, x-degree, and how each generator moves the depth grading
# of a highest-weight module (depth n = weight lambda - n*alpha, alpha(h)=2).
H_WEIGHT = (-2, -2, 0, 0, 2, 2)
BAR_DEGREE = (0, 1, 0, 1, 0, 1)
DEPTH_SHIFT = (+1, +1, 0, 0, -1, -1)


def exact_int(value, name):
    """value as an int.  Depths, windows and indices are integers: an int or
    an integral Fraction passes, anything else (4.9, 1.5, "3", 2.0) raises
    ValueError naming the argument, where int() would truncate."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    raise ValueError("%s must be an integer, got %r" % (name, value))


def exact_rat(value, name):
    """value as a Fraction.  An int, a Fraction or a string such as "-3/4"
    passes; a float (0.1 is only a binary approximation of 1/10, and JSON
    readers hand out floats) or anything else raises ValueError naming the
    field."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ValueError:
            pass
    raise ValueError("%s must be an exact rational (an int or a 'p/q' "
                     "string), got %r" % (name, value))


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


def bracket(x, y):
    """Bracket of two generators (given as ids 0..5) as a {gen: Fraction} dict."""
    _check_letters((x, y), "bracket")
    return {g: Fraction(c) for g, c in _BRACKET[(x, y)]}


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
    """Exponent 6-tuple of a sorted word.  Raises if the word is not sorted."""
    exps = [0] * 6
    prev = -1
    for g in word:
        if g < prev:
            raise ValueError("word is not in PBW order: %r" % (word,))
        exps[g] += 1
        prev = g
    return tuple(exps)


def exponents_to_word(exps):
    word = ()
    for g in GENERATORS:
        word += (g,) * exps[g]
    return word


def word_h_weight(word):
    return sum(H_WEIGHT[g] for g in word)


def word_bar_degree(word):
    return sum(BAR_DEGREE[g] for g in word)


@lru_cache(maxsize=None)
def _gen_times_word(g, word):
    """Normal form of g * word, where word is already PBW-sorted.

    Returns a tuple of (sorted_word, int) pairs: the structure constants are
    integers, so the coefficients are too.  Closed recursion: the bracket
    [g, x] with x = word[0] < g only involves generators >= x, and the
    recursive results are prepended with letters <= their first letter.
    """
    if not word or g <= word[0]:
        return (((g,) + word, 1),)
    x, rest = word[0], word[1:]
    acc = {}
    for w, c in _gen_times_word(g, rest):
        # x <= every letter of w by induction, so prepending keeps it sorted
        key = (x,) + w
        acc[key] = acc.get(key, 0) + c
    for gb, cb in _BRACKET[(g, x)]:
        for w, c in _gen_times_word(gb, rest):
            acc[w] = acc.get(w, 0) + cb * c
    return tuple(sorted((w, c) for w, c in acc.items() if c))


def straighten_word(word, coefficient=Fraction(1)):
    """PBW normal form of a single word (tuple of generator ids), times
    ``coefficient``.  The word is straightened over the integers and scaled
    by the coefficient once at the end, so every coefficient of the result
    is a Fraction.  _gen_times_word recurses once per letter it passes, so
    a word whose letters nest deeper than Python's recursion limit raises
    ValueError naming its length.

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
    terms = {word[k:]: 1}
    try:
        for g in reversed(word[:k]):
            nxt = {}
            for w, c in terms.items():
                for w2, c2 in _gen_times_word(g, w):
                    nxt[w2] = nxt.get(w2, 0) + c * c2
            terms = {w: c for w, c in nxt.items() if c}
    except RecursionError:
        raise ValueError("a word of %d letters nests too deeply to "
                         "straighten" % len(word)) from None
    coefficient = Fraction(coefficient)
    out = EnvelopingElement()
    if coefficient == 1:
        # dict.update adopts the nonzero Fractions without coercing again
        out.update((word_to_exponents(w), Fraction(c))
                   for w, c in terms.items())
    elif coefficient:
        out.update((word_to_exponents(w), coefficient * c)
                   for w, c in terms.items())
    return out


def straighten(expr):
    """PBW normal form of a rational combination of words.

    ``expr`` may be a single word (tuple/list of generator ids), a mapping
    word -> coefficient, or an iterable of (word, coefficient) pairs.
    """
    if isinstance(expr, EnvelopingElement):
        return expr
    if isinstance(expr, (tuple, list)) and all(isinstance(g, int) for g in expr):
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
