"""Command-line interface: subcommands, exit codes, report schemas."""

import json

import pytest

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


def test_max_steps_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GRAYPOL_MAX_STEPS", "17")
    from graypol.coherence import default_budget

    assert default_budget() == 17


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


def test_critical_pairs_ignores_the_rewriting_budget(capsys):
    code, out, _ = run(capsys, "critical-pairs", "builtin:frobenius", "--max-steps", "5")
    assert code == 0
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
