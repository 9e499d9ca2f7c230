"""The command line interface, driven in process through main(argv)."""

import json
import shlex
from pathlib import Path

import pytest

from takiff import cli
from takiff.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bracket(capsys):
    code, out, _ = run(capsys, "bracket", "e", "fbar")
    assert code == 0
    assert out.strip() == "[e, fbar] = hbar"


def test_bracket_zero(capsys):
    code, out, _ = run(capsys, "bracket", "ebar", "fbar")
    assert code == 0
    assert out.strip() == "[ebar, fbar] = 0"


def test_bracket_rejects_unknown_generator(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bracket", "e", "q"])
    assert exc.value.code == 2


def test_main_reuses_one_parser(capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    commands = [["bracket", "e", "fbar"],
                ["ext", "--h", "0", "--mu-h", "-2", "--window", "4"],
                ["bracket", "e", "q"],  # argparse error: exit status 2
                ["verma", "--h", "-1/2", "--depth", "2"],
                ["ext", "--h", "0", "--mu-h", "-2", "--window", "2"],
                ["block", "--h", "1/2", "--format", "json"],
                ["bracket", "e", "fbar"]]

    def outputs(fresh):
        seen = []
        for argv in commands:
            if fresh:
                cli._shared_parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            seen.append((code, out.out, out.err))
        return seen

    cli._shared_parser.cache_clear()
    shared = outputs(fresh=False)
    assert len(built) == 1
    assert shared == outputs(fresh=True)
    assert len(built) == 1 + len(commands)
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 1, 0, 0]


def test_straighten_text_and_json(capsys):
    code, out, _ = run(capsys, "straighten", "e*fbar^2")
    assert code == 0
    assert out.strip() == "2*fbar*hbar + fbar^2*e"
    code, out, _ = run(capsys, "straighten", "e", "fbar", "fbar",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert {"exp": [0, 1, 0, 1, 0, 0], "coef": "2"} in data["terms"]


def test_straighten_bad_expression(capsys):
    code, _, err = run(capsys, "straighten", "e^x")
    assert code == 1
    assert "exponent" in err
    # an exponent past any index was an OverflowError traceback
    code, out, err = run(capsys, "straighten", "e^99999999999999999999")
    assert (code, out) == (1, "")
    assert err == "error: exponent too large in 'e^99999999999999999999'\n"


def test_straighten_passes_a_long_power_in_one_step(capsys):
    # e f^n = f^n e + n f^(n-1) h - n(n-1) f^(n-1); pushing e through f^1999
    # used to recurse once per letter and fail
    code, out, _ = run(capsys, "straighten", "e f^1999")
    assert (code, out) == (0, "-3994002*f^1998 + 1999*f^1998*h + "
                              "f^1999*e\n")
    code, out, _ = run(capsys, "straighten", "e f^3")
    assert (code, out) == (0, "-6*f^2 + 3*f^2*h + f^3*e\n")


def test_casimir_check(capsys):
    code, out, _ = run(capsys, "casimir-check")
    assert code == 0
    assert "central: commutes with all generators" in out


def test_verma_table_and_json(capsys):
    code, out, _ = run(capsys, "verma", "--h", "3", "--depth", "3")
    assert code == 0
    assert "slice dims: [1, 2, 3, 4]" in out
    assert "relations: ok" in out
    code, out, _ = run(capsys, "verma", "--h", "3", "--depth", "2",
                       "--format", "json")
    data = json.loads(out)
    assert data["dims"] == [1, 2, 3]


def test_simple_complete_flag(capsys):
    code, out, _ = run(capsys, "simple", "--h", "2", "--depth", "5",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["dims"] == [1, 1, 1, 0, 0, 0]
    assert data["complete"] is True


def test_character(capsys):
    code, out, _ = run(capsys, "character", "--h", "0", "--depth", "4",
                       "--module", "simple", "--format", "json")
    data = json.loads(out)
    assert data["dims"] == {"0": 1}


def test_multiplicities(capsys):
    code, out, _ = run(capsys, "multiplicities", "--h", "2",
                       "--depth", "10", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["multiplicities"]["2"] == 2
    assert data["multiplicities"]["3"] == 2


def test_singular(capsys):
    code, out, _ = run(capsys, "singular", "--h", "4", "--mu-h", "2",
                       "--depth", "4")
    assert code == 0
    assert "dimension 1" in out


def test_filtration(capsys):
    code, out, _ = run(capsys, "filtration", "--n", "3")
    assert code == 0
    assert "layer 0: simple with top (3, 0)" in out
    assert "layer 1: simple with top (1, 0)" in out
    assert "uniserial: True" in out


def test_hasse_dot_and_table(capsys):
    code, out, _ = run(capsys, "hasse", "--n", "2")
    assert code == 0
    assert out.startswith("digraph")
    code, out, _ = run(capsys, "hasse", "--n", "2", "--format", "table")
    assert "covering relations" in out
    assert "K0 > V2" in out


def test_block(capsys):
    code, out, _ = run(capsys, "block", "--h", "5/2")
    assert out.strip() == "coset (1/2, 0) + Z*alpha"
    code, out, _ = run(capsys, "block", "--h", "3", "--hbar", "1")
    assert out.strip() == "nondegenerate (3, 1)"


def test_ext_stabilized(capsys):
    code, out, _ = run(capsys, "ext", "--h", "1/2", "--mu-h", "-3/2")
    assert code == 0
    assert "dimension 1" in out
    assert "stabilized: True" in out


def test_ext_fixed_window_json(capsys):
    code, out, _ = run(capsys, "ext", "--h", "0", "--mu-h", "-2",
                       "--window", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 1 and data["window"] == 4


def test_ext_cocycles_json_matches_golden(capsys):
    golden = Path(__file__).parent / "golden" / "ext_3_1_O_cocycles.json"
    code, out, _ = run(capsys, "ext", "--h", "3", "--hbar", "1", "--mu-h",
                       "3", "--mu-hbar", "1", "--cat", "O", "--cocycles",
                       "--format", "json")
    assert code == 0
    assert out == golden.read_text()


def test_hasse_rejects_negative_offsets(capsys):
    code, out, err = run(capsys, "hasse", "--n", "4", "--offsets", "-3")
    assert code == 1
    assert out == ""
    assert "offsets must be >= 0, got -3" in err


def test_ext_depth_cap_failure(capsys, monkeypatch):
    # windows that report dims 1, 2: the three-window cap stops the
    # stabilized ext at the second, and main reports it
    from takiff import ext
    dims = iter([1, 2])

    def drifting(lam, mu, category, window, with_cocycles):
        return ext.ExtResult(lam, mu, category, window, next(dims))

    monkeypatch.setattr(ext, "ext1", drifting)
    code, out, err = run(capsys, "ext", "--h", "3", "--mu-h", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: Ext^1((3, 0), (1, 0)) in O is not flat ")
    assert "window -> dim: [(5, 1), (6, 2)]" in err


def test_quiver_dot(capsys):
    code, out, _ = run(capsys, "quiver", "--h", "1/2", "--lo", "-1",
                       "--hi", "1")
    assert code == 0
    assert out.startswith("digraph ext_quiver")
    assert '"m+0" -> "m+1"' in out


def test_quiver_json(capsys):
    code, out, _ = run(capsys, "quiver", "--h", "3", "--hbar", "1",
                       "--cat", "Otilde", "--format", "json")
    data = json.loads(out)
    assert data["arrows"] == [{"from": 0, "to": 0, "dim": 2}]


def test_paper_check_subset_and_report(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "paper-check", "--only",
                       "lie-bracket-axioms", "depth-one-hbar-action",
                       "--report", str(report))
    assert code == 0
    assert "2/2 checks passed" in out
    data = json.loads(report.read_text())
    assert data["passed"] is True
    assert [c["id"] for c in data["checks"]] == ["lie-bracket-axioms",
                                                 "depth-one-hbar-action"]


def test_paper_check_unwritable_report(capsys, tmp_path):
    report = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "paper-check", "--only",
                         "lie-bracket-axioms", "--report", str(report))
    assert code == 1
    assert "1/1 checks passed" in out
    assert err.startswith("error: ") and "No such file" in err
    assert not report.exists()


def test_ext_different_blocks_text(capsys):
    # a different-block result solved no window, so none is printed
    code, out, err = run(capsys, "ext", "--h", "0", "--mu-h", "1")
    assert (code, err) == (0, "")
    assert out == ("Ext^1(L(0, 0), L(1, 0)) in category O: dimension 0\n"
                   "  note: different blocks (coset (0, 0) + Z*alpha vs "
                   "coset (1, 0) + Z*alpha): no extensions\n")


def test_ext_different_blocks_refuse_a_window_below_2(capsys):
    code, out, err = run(capsys, "ext", "--h", "0", "--mu-h", "1",
                         "--window", "-5")
    assert (code, out) == (1, "")
    assert err == "error: window -5 too small: no pair has a window below 2\n"


def _readme_block(heading, fence):
    """The first code block fenced as fence under README's heading."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    section = text.split("\n## %s\n" % heading, 1)[1]
    return section.split("```%s\n" % fence, 1)[1].split("```", 1)[0]


def test_readme_examples_run(capsys, tmp_path, monkeypatch):
    commands = [shlex.split(line, comments=True)
                for line in _readme_block("Command line", "sh").splitlines()
                if line.startswith("takiff ")]
    assert commands
    monkeypatch.chdir(tmp_path)  # paper-check writes report.json here
    for argv in commands:
        if ">" in argv:  # the shell redirect: stdout is captured instead
            argv = argv[:argv.index(">")]
        code, out, err = run(capsys, *argv[1:])
        assert (code, err) == (0, ""), argv
        assert out, argv
    assert json.loads((tmp_path / "report.json").read_text())["passed"]
    exec(_readme_block("Library", "python"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "2"


def test_paper_check_unknown_id(capsys):
    code, _, err = run(capsys, "paper-check", "--only", "no-such-check")
    assert code == 1
    assert "unknown check" in err
