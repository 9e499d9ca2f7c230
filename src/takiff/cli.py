"""Command line front end.

Every numeric option takes exact rationals written as p or p/q.  Exit status
is 0 on success and 1 for bad input or a failed check, such as a stabilized
Ext dimension that is not flat on its three windows.  Nothing is read from
the environment.
"""

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import lru_cache

from .algebra import (GEN_BY_NAME, GEN_NAMES, GENERATORS, EnvelopingElement,
                      casimir, lie_bracket, straighten_word)
from .modules import (Weight, character, check_relations, module_to_json,
                      simple_module, verma)
from .structure import (hasse_diagram, mn_filtration, multiplicities,
                        singular_vectors)
from .ext import StabilizationError, block_of, ext1, quiver, stabilize_ext
from .conformance import run_all


def _rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("expected a rational p or p/q, "
                                         "got %r" % text)


def _generator(text):
    name = text.strip().lower()
    if name not in GEN_BY_NAME:
        raise argparse.ArgumentTypeError(
            "unknown generator %r (choose from %s)"
            % (text, ", ".join(GEN_NAMES)))
    return GEN_BY_NAME[name]


def _parse_word(tokens):
    """Product expression -> generator word.  Tokens are generator names,
    optionally with ^k, separated by spaces or '*'."""
    word = []
    flat = []
    for tok in tokens:
        flat.extend(t for t in tok.replace("*", " ").split() if t)
    for tok in flat:
        if "^" in tok:
            name, _, power = tok.partition("^")
            try:
                k = int(power)
            except ValueError:
                raise ValueError("bad exponent in %r" % tok)
            if k < 0:
                raise ValueError("negative exponent in %r" % tok)
        else:
            name, k = tok, 1
        name = name.strip().lower()
        if name not in GEN_BY_NAME:
            raise ValueError("unknown generator %r (choose from %s)"
                             % (name, ", ".join(GEN_NAMES)))
        try:
            word.extend([GEN_BY_NAME[name]] * k)
        except OverflowError:
            raise ValueError("exponent too large in %r" % tok) from None
    return tuple(word)


def _weight(args, prefix=""):
    """The weight of the options --<prefix>h and --<prefix>hbar."""
    return Weight(getattr(args, prefix + "h"), getattr(args, prefix + "hbar"))


def _dump(data):
    json.dump(data, sys.stdout, indent=2, sort_keys=False)
    sys.stdout.write("\n")


def _print_character(ch):
    print("top %s, window depth %d" % (ch.top, ch.depth))
    for d in range(ch.depth + 1):
        m = ch.dim_at(d)
        if m:
            print("  depth %2d  (h = %s):  dim %d" % (d, ch.top.h - 2 * d, m))


# ---------------------------------------------------------------------------
# subcommands

def cmd_bracket(args):
    result = lie_bracket(args.x, args.y)
    elt = EnvelopingElement({tuple(int(x == g) for x in GENERATORS): c
                             for g, c in result.items()})
    print("[%s, %s] = %s" % (GEN_NAMES[args.x], GEN_NAMES[args.y], elt))
    return 0


def cmd_straighten(args):
    word = _parse_word(args.expr)
    nf = straighten_word(word)
    if args.format == "json":
        _dump(nf.to_json())
    else:
        print(nf)
    return 0


def cmd_casimir_check(args):
    c = casimir()
    print("casimir element:", c)
    bad = []
    for g, name in enumerate(GEN_NAMES):
        x = straighten_word((g,))
        comm = c * x - x * c
        if comm:
            bad.append(name)
            print("  [c, %s] = %s" % (name, comm))
        else:
            print("  [c, %s] = 0" % name)
    if bad:
        print("NOT central: fails against %s" % ", ".join(bad))
        return 1
    print("central: commutes with all generators")
    return 0


def _build(args):
    """The module that args name: its kind args.module, its top weight and
    args.depth."""
    # looked up at each call, so that a wrapper set over this module's
    # verma or simple_module (as bench/tracer.py sets) sees the call
    build = {"verma": verma, "simple": simple_module}[args.module]
    return build(_weight(args), args.depth)


def cmd_module(args):
    mod = _build(args)
    if args.format == "json":
        _dump(module_to_json(mod))
        return 0
    print(mod)
    print("slice dims:", mod.dims)
    rep = check_relations(mod)
    print("relations: %s (%d checked, %d skipped at the window edge)"
          % ("ok" if rep.passed else "FAILED", rep.checked, len(rep.skipped)))
    return 0 if rep.passed else 1


def cmd_character(args):
    ch = character(_build(args))
    if args.format == "json":
        _dump(ch.to_json())
    else:
        _print_character(ch)
    return 0


def cmd_multiplicities(args):
    ch = character(verma(_weight(args), args.depth))
    table = multiplicities(ch)
    if args.format == "json":
        _dump(table.to_json())
        return 0
    print("Verma top %s, trusted through depth %d" % (table.top,
                                                      table.trusted_depth))
    for k, m in sorted(table.entries.items()):
        print("  [simple at %s]: %d" % (table.top.down(k), m))
    return 0


def cmd_singular(args):
    lam = _weight(args)
    mu = _weight(args, "mu_")
    mod = _build(args)
    vecs = singular_vectors(mod, mu)
    if args.format == "json":
        _dump({"top": lam.to_json(), "mu": mu.to_json(),
               "dimension": len(vecs),
               "basis": [[str(x) for x in v] for v in vecs]})
        return 0
    print("singular space at %s inside the window: dimension %d"
          % (mu, len(vecs)))
    for v in vecs:
        print("  (%s)" % ", ".join(str(x) for x in v))
    return 0


def cmd_filtration(args):
    fr = mn_filtration(Weight(args.n, 0))
    if args.format == "json":
        _dump({"top": fr.top.to_json(), "n": fr.n, "depth": fr.depth,
               "trusted_depth": fr.trusted_depth,
               "uniserial": fr.uniserial,
               "layers": [ch.to_json() for ch in fr.layers],
               "certificate": fr.certificate})
        return 0 if fr.uniserial else 1
    print("M_%d = Verma(%s) / <f^%d v>, window depth %d"
          % (fr.n, fr.top, fr.n + 1, fr.depth))
    for i, ch in enumerate(fr.layers):
        print("  layer %d: simple with top %s" % (i, ch.top))
    print("uniserial:", fr.uniserial)
    for key, val in fr.certificate.items():
        print("  %s: %s" % (key, val))
    return 0 if fr.uniserial else 1


def cmd_hasse(args):
    hd = hasse_diagram(Weight(args.n, 0))
    if args.format == "json":
        _dump(hd.to_json())
    elif args.format == "dot":
        print(hd.to_dot())
    else:
        print("submodules of Verma(%s), window depth %d" % (hd.top, hd.depth))
        for label, kind, gdepth, dims in hd.nodes:
            print("  %-4s %-7s generated at depth %d, dims %s"
                  % (label, kind, gdepth, dims))
        print("covering relations (upper > lower):")
        for upper, lower in hd.edges:
            print("  %s > %s" % (upper, lower))
    return 0


def cmd_block(args):
    blk = block_of(_weight(args))
    if args.format == "json":
        _dump(blk.to_json())
    else:
        print(blk.label())
    return 0


def cmd_ext(args):
    lam = _weight(args)
    mu = _weight(args, "mu_")
    if args.window is not None:
        res = ext1(lam, mu, args.cat, window=args.window,
                   with_cocycles=args.cocycles)
    else:
        res = stabilize_ext(lam, mu, args.cat, with_cocycles=args.cocycles)
    if args.format == "json":
        _dump(res.to_json())
        return 0
    print("Ext^1(L%s, L%s) in category %s: dimension %d"
          % (lam, mu, "Otilde" if args.cat == "Otilde" else "O", res.dim))
    if res.depths_checked:
        print("  windows %s, dims %s, stabilized: %s"
              % (res.depths_checked, res.dim_sequence, res.stabilized))
    if res.note:
        print("  note: %s" % res.note)
    return 0


def cmd_quiver(args):
    q = quiver(_weight(args), lo=args.lo, hi=args.hi, category=args.cat)
    if args.format == "json":
        _dump(q.to_json())
    else:
        print(q.to_dot())
    return 0


def cmd_paper_check(args):
    results = run_all(ids=args.only or None)
    width = max(len(r["id"]) for r in results)
    for r in results:
        print("%s  %-*s  %s" % ("PASS" if r["ok"] else "FAIL",
                                width, r["id"], r["detail"]))
    failed = [r for r in results if not r["ok"]]
    print("%d/%d checks passed" % (len(results) - len(failed), len(results)))
    if args.report:
        with open(args.report, "w") as fh:
            json.dump({"passed": not failed, "checks": results}, fh, indent=2)
            fh.write("\n")
        print("report written to %s" % args.report)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser

def _add_weight_options(p, help_noun="top weight", prefix=""):
    """The options --<prefix>h and --<prefix>hbar of one weight, read back
    by _weight(args, prefix); an underscore in prefix is a dash in the
    option name."""
    flag = "--" + prefix.replace("_", "-")
    p.add_argument(flag + "h", dest=prefix + "h", type=_rational,
                   required=True, metavar="P/Q",
                   help="h-value of the %s" % help_noun)
    p.add_argument(flag + "hbar", dest=prefix + "hbar", type=_rational,
                   default=Fraction(0), metavar="P/Q",
                   help="hbar-value of the %s (default 0)" % help_noun)


# let bare negative rationals like -3/2 pass as option values
_NEGATIVE_RATIONAL = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def build_parser():
    top = argparse.ArgumentParser(
        prog="takiff",
        description="Exact highest-weight computations for the degree-one "
                    "current algebra of sl2: straightening, truncated "
                    "Vermas and simples, characters, submodule structure, "
                    "Ext^1 and quivers.")
    top._negative_number_matcher = _NEGATIVE_RATIONAL
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket", help="bracket of two generators")
    p.add_argument("x", type=_generator)
    p.add_argument("y", type=_generator)
    p.set_defaults(fn=cmd_bracket)

    p = sub.add_parser("straighten",
                       help="normal form of a product of generators, e.g. "
                            "'e*fbar^2' or 'e fbar fbar'")
    p.add_argument("expr", nargs="+")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_straighten)

    p = sub.add_parser("casimir-check",
                       help="verify the quadratic central element commutes "
                            "with every generator")
    p.set_defaults(fn=cmd_casimir_check)

    for name in ("verma", "simple"):
        p = sub.add_parser(name, help="build the %s module as explicit "
                                      "matrices" % name)
        _add_weight_options(p)
        p.add_argument("--depth", type=int, default=6, metavar="N",
                       help="truncation window (default 6)")
        p.add_argument("--format", choices=("table", "json"),
                       default="table")
        p.set_defaults(fn=cmd_module, module=name)

    p = sub.add_parser("character", help="depthwise dimensions of a module")
    _add_weight_options(p)
    p.add_argument("--depth", type=int, default=8, metavar="N")
    p.add_argument("--module", choices=("verma", "simple"), default="verma")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(fn=cmd_character)

    p = sub.add_parser("multiplicities",
                       help="composition multiplicities of a Verma "
                            "character, by peeling")
    _add_weight_options(p)
    p.add_argument("--depth", type=int, default=10, metavar="N")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(fn=cmd_multiplicities)

    p = sub.add_parser("singular",
                       help="basis of the singular vectors at a weight "
                            "inside a module window")
    _add_weight_options(p)
    _add_weight_options(p, "weight mu", "mu_")
    p.add_argument("--depth", type=int, default=6, metavar="N")
    p.add_argument("--module", choices=("verma", "simple"), default="verma")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(fn=cmd_singular)

    p = sub.add_parser("filtration",
                       help="uniserial filtration of Verma(n)/<f^(n+1) v>")
    p.add_argument("--n", type=int, required=True,
                   help="nonnegative integer top weight")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(fn=cmd_filtration)

    p = sub.add_parser("hasse",
                       help="submodule diagram of Verma(n) for an integer "
                            "n >= 0")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("table", "dot", "json"),
                   default="dot")
    p.set_defaults(fn=cmd_hasse)

    p = sub.add_parser("block", help="block of a weight")
    _add_weight_options(p)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(fn=cmd_block)

    p = sub.add_parser("ext",
                       help="dim Ext^1 between two simples, stabilized "
                            "over three windows unless --window is given")
    _add_weight_options(p, "weight lambda")
    _add_weight_options(p, "weight mu", "mu_")
    p.add_argument("--cat", choices=("O", "Otilde"), default="O")
    p.add_argument("--window", type=int, default=None, metavar="N")
    p.add_argument("--cocycles", action="store_true",
                   help="include representative cocycles in JSON output")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(fn=cmd_ext)

    p = sub.add_parser("quiver",
                       help="Ext^1 quiver of the block of a weight")
    _add_weight_options(p, help_noun="seed weight")
    p.add_argument("--lo", type=int, default=-2,
                   help="lowest alpha-offset from the block representative")
    p.add_argument("--hi", type=int, default=2,
                   help="highest alpha-offset from the block representative")
    p.add_argument("--cat", choices=("O", "Otilde"), default="O")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(fn=cmd_quiver)

    p = sub.add_parser("paper-check",
                       help="recompute the headline results and compare "
                            "them to their expected values")
    p.add_argument("--only", nargs="*", metavar="ID",
                   help="run only the named checks")
    p.add_argument("--report", metavar="PATH",
                   help="also write a JSON report")
    p.set_defaults(fn=cmd_paper_check)

    for p in sub.choices.values():
        p._negative_number_matcher = _NEGATIVE_RATIONAL
    return top


@lru_cache(maxsize=None)
def _shared_parser():
    """The parser main() reuses: building one costs more than most
    commands, and parse_args leaves a parser as it found it."""
    return build_parser()


def main(argv=None):
    args = _shared_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (StabilizationError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
