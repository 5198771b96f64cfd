"""Command-line interface: subcommands, exit codes, report schemas."""

import json

import pytest

from graypol import CellError, certify_termination, get_builtin, normalize2, parse_cell, squier_completion
from graypol.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_critical_pairs_pseudomonoid(capsys):
    code, out, _ = run(capsys, "critical-pairs", "builtin:pseudomonoid")
    assert code == 0
    assert "critical branchings: 5" in out


def test_critical_pairs_json_schema(capsys):
    code, out, _ = run(capsys, "critical-pairs", "builtin:pseudoadjunction", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    for row in payload["branchings"]:
        assert set(row) == {"key", "class", "source", "s1", "s2"}
        assert row["class"] == "critical"


def test_include_symmetric_doubles(capsys):
    code, out, _ = run(
        capsys, "critical-pairs", "builtin:pseudomonoid", "--format", "json", "--include-symmetric"
    )
    assert json.loads(out)["count"] == 10


def test_check_termination_exit_codes(capsys):
    code, out, _ = run(capsys, "check-termination", "builtin:pseudomonoid")
    assert code == 0 and "interp" in out
    code, out, _ = run(capsys, "check-termination", "builtin:frobenius")
    assert code == 1
    assert "refused" in out


def test_check_termination_strategy_flag(capsys):
    code, out, _ = run(
        capsys, "check-termination", "builtin:pseudoadjunction", "--strategy", "connected", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["certified"] and payload["strategy"] == "connected"
    assert len(payload["assumptions"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "builtin:pseudoadjunction", "--strategy", "interp"],
        ["normalize", "builtin:selfduality", "--cell", "id(a)", "--strategy", "selfdual"],
        ["critical-pairs", "builtin:pseudomonoid", "--strategy", "interp"],
    ],
    ids=["report", "normalize", "critical-pairs"],
)
def test_strategy_is_a_check_termination_option_only(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --strategy" in err


def test_normalize_identity(capsys):
    code, out, _ = run(capsys, "normalize", "--cell", "id(a)", "builtin:pseudomonoid")
    assert code == 0
    assert "normal form: id(a)" in out
    assert "path length: 0" in out


def test_normalize_zigzag(capsys):
    code, out, _ = run(capsys, "normalize", "--cell", "[.|eta|f];[f|eps|.]", "builtin:pseudoadjunction")
    assert code == 0
    assert "normal form: id(f)" in out
    assert "path length: 1" in out


@pytest.mark.parametrize(
    "text, dimension", [("a a", 1), ("0", 1), ("@x", 1), ("id2([.|mu|.])", 3)], ids=["word", "zero", "at", "id2"]
)
def test_normalize_refuses_a_cell_that_is_not_a_2_cell(capsys, text, dimension):
    code, out, err = run(capsys, "normalize", "builtin:pseudomonoid", f"--cell={text}")
    assert code == 2
    assert out == ""
    assert err == f"error: normalize needs a 2-cell, got a {dimension}-cell\n"
    pres = get_builtin("pseudomonoid").presentation
    with pytest.raises(CellError, match=f"normalize2 needs a 2-cell, got a {dimension}-cell"):
        normalize2(pres, parse_cell(pres.sig, text), max_steps=10)


def test_report_verdicts(capsys):
    code, out, _ = run(capsys, "report", "builtin:pseudomonoid", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "coherent-by-squier"
    assert {b["key"][0][1] for b in payload["branchings"]} <= {"A", "L", "R"}
    code, out, _ = run(capsys, "report", "builtin:frobenius", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "inconclusive"
    assert payload["termination_refusal"]


def test_render_styles(capsys):
    code, out, _ = run(capsys, "render", "--cell", "[.|mu|a];[.|mu|.]", "builtin:pseudomonoid")
    assert code == 0 and out.strip() == "(0|mu|1);(0|mu|0)"
    code, out, _ = run(
        capsys, "render", "--cell", "[.|mu|a];[.|mu|.]", "--style", "tikz", "builtin:pseudomonoid"
    )
    assert code == 0 and "tikzpicture" in out


def test_validate_selfduality(capsys):
    code, out, _ = run(capsys, "validate", "builtin:selfduality")
    assert code == 0
    assert "positive: False" in out


def test_usage_errors(capsys):
    code, _, err = run(capsys, "critical-pairs", "builtin:nope")
    assert code == 2
    code, _, err = run(capsys, "critical-pairs", "no-such-file.gray")
    assert code == 2
    code, _, _ = run(capsys, "bogus-command", "builtin:pseudomonoid")
    assert code == 2


def test_unknown_builtin_is_a_usage_error(capsys):
    code, _, err = run(capsys, "critical-pairs", "builtin:nope")
    assert code == 2
    assert err.startswith("error: unknown builtin 'nope'")


def test_internal_key_error_is_not_a_usage_error(monkeypatch):
    import graypol.cli as cli

    def broken(source):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "_load", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["validate", "builtin:pseudomonoid"])


def test_q_mode_enumeration_refusal_exit_code(capsys):
    code, _, err = run(capsys, "critical-pairs", "builtin:selfduality-q")
    assert code == 1
    assert "refused" in err


def test_file_source_and_output(tmp_path, capsys):
    from graypol import get_builtin, serialize_presentation

    path = tmp_path / "pm.gray"
    path.write_text(serialize_presentation(get_builtin("pseudomonoid").presentation), encoding="utf-8")
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "critical-pairs", str(path), "--format", "json", "-o", str(out_path)
    )
    assert code == 0
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert payload["count"] == 5


def test_parse_error_has_location(tmp_path, capsys):
    path = tmp_path / "bad.gray"
    path.write_text("presentation p\n2 mu : a a => a\n", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "line 2" in err


TWO_STEP_CELL = "[.|mu|a];[.|mu|.];[.|eta|a];[.|mu|.]"


def test_max_steps_env(capsys, monkeypatch):
    monkeypatch.setenv("GRAYPOL_MAX_STEPS", "1")
    code, _, err = run(capsys, "normalize", "builtin:pseudomonoid", "--cell", TWO_STEP_CELL)
    assert code == 1
    assert "no normal form within 1 steps" in err
    monkeypatch.setenv("GRAYPOL_MAX_STEPS", "2")
    code, out, _ = run(capsys, "normalize", "builtin:pseudomonoid", "--cell", TWO_STEP_CELL)
    assert code == 0 and "path length: 2" in out


def test_library_ignores_max_steps_env(monkeypatch):
    monkeypatch.setenv("GRAYPOL_MAX_STEPS", "abc")
    entry = get_builtin("pseudomonoid")
    pres = entry.presentation
    cert = certify_termination(pres, None, entry.interpretation)
    nf, path = normalize2(pres, parse_cell(pres.sig, TWO_STEP_CELL), cert)
    assert len(path.steps) == 2
    _, report = squier_completion(pres, interpretation=entry.interpretation)
    assert report.verdict == "coherent-by-squier"


def test_undeclared_endpoint_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.gray"
    path.write_text("presentation p\n0 x\n1 a : x -> y\n", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "undeclared endpoint" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_bad_max_steps_env_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("GRAYPOL_MAX_STEPS", value)
    code, _, err = run(capsys, "report", "builtin:pseudomonoid")
    assert code == 2
    assert err.startswith("error: GRAYPOL_MAX_STEPS") and "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_bad_max_steps_is_a_usage_error(capsys, value):
    code, _, err = run(capsys, "normalize", "builtin:pseudomonoid", "--cell", "id(a)", "--max-steps", value)
    assert code == 2
    assert err.startswith("error: --max-steps") and "Traceback" not in err


@pytest.mark.parametrize("command", ["critical-pairs", "validate", "check-termination", "render"])
def test_max_steps_is_a_normalize_and_report_option_only(capsys, command):
    code, out, err = run(capsys, command, "builtin:frobenius", "--max-steps", "5")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --max-steps" in err


def test_bad_max_steps_env_leaves_other_commands_working(capsys, monkeypatch):
    monkeypatch.setenv("GRAYPOL_MAX_STEPS", "abc")
    code, _, err = run(capsys, "validate", "builtin:frobenius")
    assert code == 0 and err == ""
    code, out, err = run(capsys, "critical-pairs", "builtin:frobenius")
    assert code == 0 and err == ""
    assert "critical branchings: 19" in out


def test_output_is_deterministic_across_runs(capsys):
    outs = []
    for _ in range(2):
        code = main(["critical-pairs", "builtin:frobenius", "--format", "json"])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    code = main(["report", "builtin:pseudoadjunction", "--format", "json"])
    first = capsys.readouterr().out
    code = main(["report", "builtin:pseudoadjunction", "--format", "json"])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "first, second",
    [
        (
            ["critical-pairs", "builtin:pseudoadjunction", "--format", "json"],
            ["critical-pairs", "builtin:pseudoadjunction"],
        ),
        (
            ["check-termination", "builtin:pseudoadjunction", "--strategy", "interp"],
            ["check-termination", "builtin:pseudoadjunction"],
        ),
        (
            ["check-termination", "builtin:pseudoadjunction", "--strategy", "bogus"],
            ["validate", "builtin:pseudoadjunction"],
        ),
    ],
    ids=["format", "strategy", "usage-error"],
)
def test_repeated_calls_answer_like_the_first(capsys, first, second):
    runs = [run(capsys, *argv) for argv in (first, second, first, second)]
    assert runs[0] != runs[1]
    assert runs[2] == runs[0] and runs[3] == runs[1]


def test_parser_is_built_once():
    from graypol.cli import build_parser

    assert build_parser() is build_parser()


@pytest.mark.parametrize("text", ["²", "٣"])
def test_non_ascii_digits_are_a_parse_error(capsys, text):
    code, _, err = run(capsys, "render", "builtin:pseudomonoid", "--cell", text)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["render", "normalize"])
@pytest.mark.parametrize("text", ["@q", "[.|mu|.];[.|mu|.]"], ids=["unknown-object", "rows-do-not-chain"])
def test_ill_typed_cell_is_a_parse_error(capsys, command, text):
    code, _, err = run(capsys, command, "builtin:pseudomonoid", "--cell", text)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_huge_numeric_word_is_refused_without_allocating(capsys):
    import tracemalloc

    tracemalloc.start()
    try:
        code = main(["render", "builtin:pseudomonoid", "--cell", "99999999999"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert "numeric word longer than" in err
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "tile, message",
    [
        # the second step's lambda ends in ``a``, its rule starts on ``a a a``
        ("{id(a a a) ; @x ; A ; @x ; id(a)}|{[.|mu|.] ; @x ; A ; @x ; id(a)} == id2(id(a))", "not 1-composable"),
        # both steps start on the same 2-cell, so the second cannot follow the first
        ("{id(a a a) ; @x ; A ; @x ; id(a)}|{id(a a a) ; @x ; A ; @x ; id(a)} == id2(id(a))", "chain broken"),
    ],
    ids=["ill-typed-step", "steps-do-not-chain"],
)
def test_bad_tile_steps_are_parse_errors(tmp_path, capsys, tile, message):
    from graypol import get_builtin, serialize_presentation

    text = serialize_presentation(get_builtin("pseudomonoid").presentation.with_tiles(()))
    lineno = text.count("\n") + 1
    path = tmp_path / "bad.gray"
    path.write_text(text + f"tile T : {tile}\n", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert f"line {lineno}" in err and message in err and "Traceback" not in err


def test_internal_invariant_failure_is_not_a_refusal(monkeypatch, capsys):
    # no candidate of the enumeration pairs two interchangers, so one is
    # added, and classify is made to call it critical
    import itertools

    from graypol import Branching, Critical, Interchanger, InternalError, OneCell, find_redexes, get_builtin
    from graypol import rewriting

    from inputs import enumerate_two_cells

    pres = get_builtin("pseudomonoid").presentation
    xx = None
    for phi in enumerate_two_cells(pres.sig, 3, [OneCell("x", ("a",) * n) for n in range(5)]):
        steps = [s for s in find_redexes(pres, phi) if isinstance(s.inner, Interchanger)]
        if len(steps) >= 2:
            xx = Branching(steps[0], steps[1])
            break
    assert xx is not None
    candidates, classify = rewriting._candidates, rewriting.classify

    def both_x(b):
        return isinstance(b.s1.inner, Interchanger) and isinstance(b.s2.inner, Interchanger)

    monkeypatch.setattr(rewriting, "_candidates", lambda p: itertools.chain(candidates(p), [xx]))
    monkeypatch.setattr(rewriting, "classify", lambda p, b: Critical() if both_x(b) else classify(p, b))
    with pytest.raises(InternalError, match="internal invariant violated"):
        main(["critical-pairs", "builtin:pseudomonoid"])
    assert "refused:" not in capsys.readouterr().err


def test_candidate_that_is_not_a_branching_is_an_internal_error(monkeypatch, capsys):
    # candidates are typed by construction, so one whose steps have
    # different sources is a defect of the enumeration, not a refusal
    import itertools

    from graypol import Branching, InternalError, find_redexes, get_builtin
    from graypol import rewriting

    pres = get_builtin("pseudomonoid").presentation
    sig = pres.sig
    sa = find_redexes(pres, sig.gen3_source("A"))[0]
    sl = find_redexes(pres, sig.gen3_source("L"))[0]
    assert sig.step_source(sa) != sig.step_source(sl)
    candidates = rewriting._candidates
    monkeypatch.setattr(rewriting, "_candidates", lambda p: itertools.chain(candidates(p), [Branching(sa, sl)]))
    with pytest.raises(InternalError, match="is not a branching"):
        main(["critical-pairs", "builtin:pseudomonoid"])
    assert "refused:" not in capsys.readouterr().err


@pytest.mark.parametrize("case", ["source-is-a-directory", "source-is-not-utf8", "output-is-a-directory"])
def test_unreadable_paths_are_usage_errors(tmp_path, capsys, case):
    bad = tmp_path / "bad.gray"
    bad.write_bytes(b"\xff\xfe 0 x\n")
    path, argv = {
        "source-is-a-directory": (tmp_path, ["validate", str(tmp_path)]),
        "source-is-not-utf8": (bad, ["validate", str(bad)]),
        "output-is-a-directory": (tmp_path, ["validate", "builtin:pseudomonoid", "-o", str(tmp_path)]),
    }[case]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert str(path) in err


def test_pipeline_commands_never_rebuild_a_window(monkeypatch, capsys):
    # every builtin, built cold, and every shipped file through the
    # benchmark's four pipeline commands: no call builds a whiskered
    # window with ``whisker0``
    import glob
    import os

    from graypol import catalog
    from graypol.cells import Signature

    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    monkeypatch.syspath_prepend(os.path.join(root, "bench"))
    from workloads import Pipeline

    calls = []
    whisker0 = Signature.whisker0

    def counted(self, *args):
        calls.append(args)
        return whisker0(self, *args)

    monkeypatch.setattr(Signature, "whisker0", counted)
    sources = [f"builtin:{name}" for name in catalog.BUILTIN_NAMES]
    sources += sorted(glob.glob(os.path.join(root, "presentations", "*.gray")))
    assert len(sources) == 10
    for name in catalog.BUILTIN_NAMES:
        catalog.get_builtin.__wrapped__(name)
    for source in sources:
        for command in Pipeline.COMMANDS:
            assert main([command[0], source, *command[1:]]) in (0, 1)
    capsys.readouterr()
    assert calls == []


# The self-duality q-mode with eta == eps: ``e : f => f`` crosses itself
# across the path g1 g2 g3 g4, a middle word longer than Q_RULE_MAX_MID.
_EQUAL_Q_RULES = """presentation loop
0 x
0 y
0 p
0 q
0 r
1 f : x -> y
1 g1 : y -> p
1 g2 : p -> q
1 g3 : q -> r
1 g4 : r -> x
2 e : f => f
qmode e e
"""


def test_selfdual_refuses_when_eta_is_eps(tmp_path, capsys):
    path = tmp_path / "loop.gray"
    path.write_text(_EQUAL_Q_RULES, encoding="utf-8")
    code, out, _ = run(capsys, "check-termination", str(path), "--strategy", "selfdual", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert not payload["certified"]
    assert "eta == eps" in payload["reason"]
    # the refusal is right: the two oriented rules undo each other
    cell = "[.|e|g1 g2 g3 g4 f];[f g1 g2 g3 g4|e|.]"
    code, _, err = run(capsys, "normalize", str(path), "--cell", cell, "--max-steps", "50")
    assert code == 1
    assert "no normal form within 50 steps" in err
