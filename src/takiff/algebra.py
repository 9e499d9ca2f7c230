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
words.  straighten_word turns it into Fractions only where it builds the
result, and the product of two elements scales the integer normal form of
each pair of monomials by the product of their coefficients.

Each entry takes one form: straighten_word a word of generator ids (ints
0..5, not bools), and EnvelopingElement a dict whose keys are exponent
6-tuples of non-negative ints, checked where the element is made.

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
    "lie_bracket", "EnvelopingElement", "straighten_word", "casimir",
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
    bool) raises ValueError naming the argument, where int() would
    truncate or read True as 1."""
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    raise ValueError("%s must be an integer, got %r" % (name, value))


def exact_rat(value, name):
    """value as a Fraction.  An int, a Fraction or a string such as "-3/4"
    passes; a float (0.1 is only a binary approximation of 1/10), a bool,
    a zero denominator ("1/0") or anything else raises ValueError naming
    the field."""
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
    is not a generator id, an int 0..5 (a bool is not one), and its
    position; what names the tuple."""
    if _GENERATOR_IDS.issuperset(letters) and set(map(type, letters)) <= {int}:
        return
    for i, g in enumerate(letters):
        if type(g) is not int or g not in _GENERATOR_IDS:
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
    """Bracket of two generators, given by their ids, as a {gen:
    coefficient} dict with no zero coefficient.  An id that is not a
    generator id raises ValueError.

    >>> lie_bracket(E, FBAR)
    {3: Fraction(1, 1)}
    """
    _check_letters((a, b), "bracket")
    return {g: Fraction(c) for g, c in _BRACKET[(a, b)]}


# ---------------------------------------------------------------------------
# straightening

def exponents_to_word(exps):
    """The sorted word of an exponent 6-tuple, which is not checked: the
    keys of an EnvelopingElement were checked when it was made."""
    return tuple(g for g, k in enumerate(exps) for _ in range(k))


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


def _normal_form(word):
    """PBW normal form of a tuple of generator ids that are known to be
    valid, as {exponent tuple: nonzero int}."""
    # the longest sorted suffix is its own normal form, so straightening
    # starts from it and pushes in only the letters before it; its letters
    # are checked and sorted, so counting them gives its exponents
    k = max(len(word) - 1, 0)
    while k > 0 and word[k - 1] <= word[k]:
        k -= 1
    exps = [0] * 6
    for g in word[k:]:
        exps[g] += 1
    terms = {tuple(exps): 1}
    for g in reversed(word[:k]):
        nxt = {}
        for w, c in terms.items():
            for w2, c2 in _gen_times_word(g, w):
                nxt[w2] = nxt.get(w2, 0) + c * c2
        terms = {w: c for w, c in nxt.items() if c}
    return terms


def straighten_word(word):
    """PBW normal form of a single word (tuple of generator ids).  A letter
    that is not a generator id raises ValueError naming it.  The word is
    straightened over the integers, and every coefficient of the result is
    a Fraction.

    >>> sorted(straighten_word((E, FBAR, FBAR)).items())
    [((0, 1, 0, 1, 0, 0), Fraction(2, 1)), ((0, 2, 0, 0, 1, 0), Fraction(1, 1))]
    """
    word = tuple(word)
    _check_letters(word, "word")
    out = EnvelopingElement({})
    # dict.update adopts the nonzero Fractions without checking them again
    out.update((w, Fraction(c)) for w, c in _normal_form(word).items())
    return out


# ---------------------------------------------------------------------------
# elements of the envelope

class EnvelopingElement(dict):
    """A PBW-normal element: {exponent 6-tuple: Fraction}, zeros dropped.

    Made from a dict only (anything else raises TypeError).  Each key must
    be six non-negative ints (a bool is not one), or ValueError names the
    bad entry, and each coefficient is read by exact_rat, so a float or a
    bool raises ValueError.

    Supports +, - and the associative product * of two elements (products
    are re-straightened).  Instances compare equal as plain dicts, so the zero
    element is the empty dict.
    """

    def __init__(self, terms):
        super().__init__()
        if not isinstance(terms, dict):
            raise TypeError("EnvelopingElement takes a dict, got %s"
                            % type(terms).__name__)
        for exps, coef in terms.items():
            exps = tuple(exps)
            if len(exps) != 6:
                raise ValueError("exponent vector %r has %d entries, not 6"
                                 % (exps, len(exps)))
            for g, k in enumerate(exps):
                if type(k) is not int or k < 0:
                    raise ValueError("exponent vector %r: entry %d is %r, "
                                     "not a non-negative int" % (exps, g, k))
            if type(coef) is not Fraction:
                coef = exact_rat(coef, "coefficient")
            if coef != 0:
                self[exps] = coef

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
        if not isinstance(other, EnvelopingElement):
            raise TypeError("EnvelopingElement * %s: the operand must be an "
                            "EnvelopingElement" % type(other).__name__)
        acc = {}
        for e1, c1 in self.items():
            w1 = exponents_to_word(e1)
            for e2, c2 in other.items():
                c12 = c1 * c2
                for w, c in _normal_form(w1 + exponents_to_word(e2)).items():
                    acc[w] = acc.get(w, 0) + c12 * c
        return EnvelopingElement(acc)

    # -- inspection ---------------------------------------------------------

    def __repr__(self):
        if not self:
            return "0"
        parts = []
        for exps, coef in sorted(self.items()):
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
                          for exps, coef in sorted(self.items())]}


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
