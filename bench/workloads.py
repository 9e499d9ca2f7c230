"""The benchmark workloads: seeded operation lists and answer checks.

A workload turns a seed into a fixed list of operations.  Each operation is
the argv of one ``takiff`` command, run in process through
``takiff.cli.main(argv)``, plus a check that compares the command's output
with an independently known answer.  The program receives only the generated
weights and windows; the seed never reaches it.

Expected answers come from the package's frozen tables (``EXT_TABLE``,
``MULTIPLICITY_TABLES``, ``HASSE_N4_EDGES``), its closed-form arrow rule
(``expected_arrow_dim``) and statements proved in the paper (slice
dimensions, singular vectors, layer counts).  Every check raises
``WrongAnswer`` on a mismatch.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Callable


class WrongAnswer(Exception):
    """An operation finished but its output disagrees with the known answer."""


@dataclass
class Op:
    argv: list
    check: Callable   # check(stdout, takiff) raises WrongAnswer


def _expect(cond, msg):
    if not cond:
        raise WrongAnswer(msg)


def _weight_args(prefix, w):
    h, hbar = w
    return ["--%sh" % prefix, str(h), "--%shbar" % prefix, str(hbar)]


def _ext_table(tk):
    return {(lam, mu, cat): want
            for lam, mu, cat, want in tk.conformance.EXT_TABLE}


# ---------------------------------------------------------------------------
# ext-nondegenerate

def ext_nondegenerate(seed, tk):
    """Stabilized Ext^1(L(lam), L(lam)) in O for the EXT_TABLE weight (3, 1).

    The seed changes nothing here.  Elimination cost of a nondegenerate
    window depends strongly on the weight's arithmetic (window 5 in O took
    5 to 14 s across small-denominator weights), so seeded weights would
    change the work.  The Otilde solve of the same weight (about 26 s, twice
    the O solve) is left out so that a run holds several passes."""
    lam = (3, 1)
    want = _ext_table(tk)[(lam, lam, "O")]
    argv = (["ext"] + _weight_args("", lam) + _weight_args("mu-", lam)
            + ["--cat", "O", "--format", "json"])
    return [Op(argv, _check_stabilized_dim(want))]


def _check_stabilized_dim(want):
    def check(out, tk):
        data = json.loads(out)
        _expect(data["dim"] == want, "dim %s, expected %s" % (data["dim"],
                                                               want))
        _expect(data["stabilized"] is True, "not stabilized")
    return check


# ---------------------------------------------------------------------------
# modules-structure

# Fixed weights: the cost of a Verma, and of its relation check, grows with
# the size of the weight's numerators and denominators (up to 3x between
# denominators 1 and 3), so a seed that drew weights would change the work.
# Depth 20 (about 0.5 s each; depth 30 takes 1.3 s and depth 40 3 s), so
# that a run holds some twenty passes to take the median over.
VERMA_DEPTH = 20
VERMA_TOPS = ((Fraction(7, 3), Fraction(-5, 2)),
              (Fraction(-5, 3), Fraction(0)))
# fbar v spans the singular line one step below a degenerate top; a
# nondegenerate Verma is simple, so it has none below its top.  These small
# operations are numerous enough that the median latency falls among
# operations of like cost, not in the gap between two of them.
SINGULAR_OPS = [((Fraction(h, 2), Fraction(0)), 1, 1)
                for h in (-7, -3, 5, 9)] + \
               [((Fraction(h, 2), Fraction(hbar, 3)), 3, 0)
                for h, hbar in ((-7, 4), (-3, -2), (5, 2), (9, -4))]


def modules_structure(seed, tk):
    """Truncated Vermas with their relation check at depth 20, on a
    nondegenerate and a degenerate weight, plus multiplicities, singular
    vectors, uniserial filtrations and the n = 4 Hasse diagram.  The inputs
    are fixed, and the seed only orders the operations after the two
    Vermas.  Those come first and fill the straightening caches, which are
    emptied once per pass, so every later operation finds them warm whatever
    its place."""
    vermas = [Op(["verma"] + _weight_args("", top)
                 + ["--depth", str(VERMA_DEPTH)], _check_verma(VERMA_DEPTH))
              for top in VERMA_TOPS]
    ops = []
    for top, want in tk.conformance.MULTIPLICITY_TABLES.items():
        argv = (["multiplicities"] + _weight_args("", top)
                + ["--depth", "10", "--format", "json"])
        ops.append(Op(argv, _check_multiplicities(want)))
    for top, depth, want in SINGULAR_OPS:
        mu = (top[0] - 2 * depth, top[1])
        argv = (["singular"] + _weight_args("", top) + _weight_args("mu-", mu)
                + ["--depth", "6", "--format", "json"])
        ops.append(Op(argv, _check_singular(want)))
    for n in range(7):
        ops.append(Op(["filtration", "--n", str(n), "--format", "json"],
                      _check_filtration(n)))
    ops.append(Op(["hasse", "--n", "4", "--format", "json"], _check_hasse_n4))
    random.Random(seed).shuffle(ops)
    return vermas + ops


def _check_verma(depth):
    want = "slice dims: %s" % [n + 1 for n in range(depth + 1)]

    def check(out, tk):
        _expect(want in out, "wrong slice dims")
        _expect("relations: ok" in out, "relation check did not pass")
    return check


def _check_multiplicities(want):
    def check(out, tk):
        got = {int(k): m for k, m in json.loads(out)["multiplicities"].items()}
        _expect(got == want, "multiplicities %s, expected %s" % (got, want))
    return check


def _check_singular(want):
    def check(out, tk):
        data = json.loads(out)
        _expect(data["dimension"] == want, "singular dimension %s, expected %d"
                % (data["dimension"], want))
        if want:
            vec = [Fraction(x) for x in data["basis"][0]]
            _expect(vec[0] == 0 and vec[1] != 0, "singular line %s is not "
                    "fbar v" % vec)
    return check


def _check_filtration(n):
    def check(out, tk):
        data = json.loads(out)
        tops = [Fraction(layer["top"]["h"]) for layer in data["layers"]]
        _expect(data["uniserial"] is True, "n=%d: not uniserial" % n)
        _expect(tops == [n - 2 * i for i in range(ceil((n + 1) / 2))],
                "n=%d: layer tops %s" % (n, tops))
    return check


def _check_hasse_n4(out, tk):
    got = sorted(tuple(e) for e in json.loads(out)["edges"])
    want = sorted(tk.conformance.HASSE_N4_EDGES)
    _expect(got == want, "edges %s, expected %s" % (got, want))


# ---------------------------------------------------------------------------
# ext-cocycles

COCYCLE_WINDOW = 4
# the numerators of the coset representatives p/3 in (0, 2); every one of
# them gives the same module shapes with coefficients of the same size
RATIONAL_NUMERATORS = (1, 2, 4, 5)
# Offsets (m1, m2) of a pair (rep + 2 m1, rep + 2 m2) within a coset: all of
# -2..1 at most two alphas apart.  There window 4 already gives the
# stabilized dimension (wider pairs do not fit the window, and (4, 0) or
# (5, 0) in Otilde are not yet flat at 4).
OFFSETS = [(m1, m2) for m1 in range(-2, 2) for m2 in range(-2, 2)
           if abs(m1 - m2) <= 2]


def ext_cocycles(seed, tk):
    """Fixed-window Ext^1 with representative cocycles on coset pairs and on
    the nondegenerate pair (3, 1); every representative is assembled into an
    extension module whose relations are then checked.

    Each of the even, odd, half-integral and a rational coset gets every pair
    of OFFSETS, in both categories.  The seed picks the rational coset's
    representative p/3 and the order of the operations; neither changes the
    pass's work, since every representative gives the same module shapes
    and the only cache the operations share is emptied once per pass."""
    rng = random.Random(seed)
    rational = Fraction(rng.choice(RATIONAL_NUMERATORS), 3)
    ops = [_cocycle_op((rep + 2 * m1, Fraction(0)),
                       (rep + 2 * m2, Fraction(0)), cat, None)
           for rep in (Fraction(0), Fraction(1), Fraction(1, 2), rational)
           for m1, m2 in OFFSETS for cat in ("O", "Otilde")]
    ops.append(_cocycle_op((3, 1), (3, 1), "O",
                           _ext_table(tk)[((3, 1), (3, 1), "O")]))
    rng.shuffle(ops)
    return ops


def _cocycle_op(lam, mu, cat, want):
    argv = (["ext"] + _weight_args("", lam) + _weight_args("mu-", mu)
            + ["--cat", cat, "--window", str(COCYCLE_WINDOW), "--cocycles",
               "--format", "json"])

    def check(out, tk):
        Weight = tk.modules.Weight
        lw, mw = Weight(*lam), Weight(*mu)
        expected = (tk.conformance.expected_arrow_dim(lw, mw, cat)
                    if want is None else want)
        data = json.loads(out)
        _expect(data["dim"] == expected, "dim %s, expected %d"
                % (data["dim"], expected))
        _expect(len(data["cocycles"]) == expected, "%d representatives for "
                "dimension %d" % (len(data["cocycles"]), expected))
        result = tk.ext.ExtResult(lw, mw, cat, data["window"], data["dim"],
                                  cocycles=[_cocycle_from_json(phi, tk)
                                            for phi in data["cocycles"]])
        for i in range(len(result.cocycles)):
            module = tk.ext.assemble_extension(result, i)
            report = tk.modules.check_relations(module)
            _expect(report.passed, "extension %d fails its relations at %s"
                    % (i, report.failures[:3]))
    return Op(argv, check)


def _cocycle_from_json(phi, tk):
    """{generator name: {source depth: Mat}} from the CLI's entry lists; a
    block is sized to its last nonzero entry, which is all the assembler
    reads."""
    Mat = tk.linalg.Mat
    out = {}
    for gname, blocks in phi.items():
        for blk in blocks:
            ents = blk["entries"]
            mat = Mat.zeros(max(r for r, _, _ in ents) + 1,
                            max(c for _, c, _ in ents) + 1)
            for r, c, val in ents:
                mat.rows[r][c] = Fraction(val)
            out.setdefault(gname, {})[blk["from_depth"]] = mat
    return out


WORKLOADS = {
    "ext-nondegenerate": ext_nondegenerate,
    "modules-structure": modules_structure,
    "ext-cocycles": ext_cocycles,
}
