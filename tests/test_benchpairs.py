"""The summary of ``tools/benchpairs.py``, fed canned run lines, checked
against figures worked out by hand; no benchmark runs."""

import json

import pytest

from benchpairs import parse_run, summarize, workload_record

SPEC = [
    {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_ms.p90", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def _stdout(correct=True, rounds=7, **values):
    result = {
        "correct": correct,
        "attempted": 10,
        "failed": 0 if correct else 1,
        "metrics": {name: {"value": value, "unit": "-"} for name, value in values.items()},
    }
    return f"# graypol benchmark: workload normalize\nrounds: {rounds}, ops: 120\n{json.dumps(result)}\n"


def _pairs(base, change, correct=((True, True),) * 10):
    return [
        {
            "seed": 30 + i,
            "first": "base" if i % 2 == 0 else "change",
            "base": parse_run(_stdout(ok[0], **{name: values[i] for name, values in base.items()})),
            "change": parse_run(_stdout(ok[1], **{name: values[i] for name, values in change.items()})),
        }
        for i, ok in enumerate(correct)
    ]


BASE = {
    "work_per_s": [100, 102, 98, 101, 99, 100, 103, 97, 100, 100],
    "latency_ms.p90": [2.0, 2.1, 1.9, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0],
    "setup_s": [0.1, 0.2] * 5,
}
CHANGE = {
    "work_per_s": [110, 111, 109, 112, 108, 110, 99, 111, 110, 110],
    "latency_ms.p90": [2.6] * 10,
    "setup_s": [0.15] * 10,
}


def test_parse_run_reads_the_result_line_and_the_rounds():
    run = parse_run(_stdout(rounds=17, work_per_s=5.0))
    assert run["rounds"] == 17 and run["correct"] is True
    assert run["metrics"]["work_per_s"]["value"] == 5.0


def test_summary_against_hand_figures():
    out = summarize(_pairs(BASE, CHANGE), SPEC)
    # base sorted: 97 98 99 100 100 100 100 101 102 103; the quartiles sit at
    # positions 2.25 and 6.75: 99.25 and 100.75.  The change loses pair 6 only.
    rate = out["work_per_s"]
    assert rate["base"] == pytest.approx({"median": 100, "q1": 99.25, "q3": 100.75})
    assert rate["change"] == pytest.approx({"median": 110, "q1": 109.25, "q3": 110.75})
    assert rate["change_better"] == 9 and rate["pairs"] == 10
    assert rate["base_iqr_share"] == pytest.approx(0.015)
    assert rate["ratio"] == pytest.approx(1.1)
    assert (rate["beyond_spread"], rate["gain"], rate["worse_past_bound"], rate["unresolved"]) == (
        True, True, False, False)
    # lower is better: 2.6 against 2.0 is 0.6 worse, past the bound of 0.5
    latency = out["latency_ms.p90"]
    assert latency["base"] == pytest.approx({"median": 2.0, "q1": 2.0, "q3": 2.0})
    assert latency["change_better"] == 0
    assert (latency["gain"], latency["worse_past_bound"], latency["unresolved"]) == (False, True, False)
    # the base spreads 0.1 around a median of 0.15, wider than the bound's
    # 0.0375, and the change's runs sit among the base's: unresolved
    setup = out["setup_s"]
    assert setup["base"] == pytest.approx({"median": 0.15, "q1": 0.1, "q3": 0.2})
    assert setup["base_iqr_share"] == pytest.approx(2 / 3)
    assert (setup["gain"], setup["worse_past_bound"], setup["unresolved"]) == (False, False, True)


def test_a_change_that_reads_better_in_every_run_is_resolved():
    # every change run below every base run: resolved although the spread is
    # wider than the bound; the gain of 0.09 does not exceed the spread of 0.1
    setup = summarize(_pairs(BASE, dict(CHANGE, setup_s=[0.06] * 10)), SPEC)["setup_s"]
    assert setup["change_better"] == 10
    assert (setup["beyond_spread"], setup["gain"], setup["unresolved"]) == (False, False, False)


def test_eight_wins_in_ten_claim_no_gain():
    change = dict(CHANGE, work_per_s=[110, 111, 109, 112, 108, 110, 99, 96, 110, 110])
    rate = summarize(_pairs(BASE, change), SPEC)["work_per_s"]
    assert rate["change_better"] == 8 and rate["gain"] is False


def test_a_run_that_is_not_correct_fails_the_record():
    correct = [(True, True)] * 10
    correct[3] = (True, False)
    entry = workload_record(_pairs(BASE, CHANGE, correct), SPEC)
    assert entry["failures"] == ["pair 3 (change, seed 33): not correct"]
    assert "metrics" not in entry
    assert workload_record(_pairs(BASE, CHANGE), SPEC)["failures"] == []


def test_both_trees_are_named_by_the_shas_given(tmp_path, monkeypatch, capsys):
    # two trees that are not git checkouts, as ``git archive`` copies are:
    # the record names each by the SHA given for it; the runs are canned
    import benchpairs

    base = tmp_path / "base"
    (base / "bench").mkdir(parents=True)
    (base / "bench" / "run.py").write_text("")
    values = {"work_per_s": 100.0, "latency_ms.p50": 1.0, "latency_ms.p90": 2.0, "setup_s": 0.1, "peak_rss_mb": 25.0}
    runs = []
    monkeypatch.setattr(benchpairs, "run_once", lambda tree, workload, seed, seconds: runs.append(
        (tree, workload, seed)) or parse_run(_stdout(**values)))
    out = tmp_path / "BENCH_9.json"
    argv = ["--base", str(base), "--base-sha", "b" * 40, "--change-sha", "c" * 40, "--pairs", "2",
            "--seconds", "1", "--seeds", "5..6", "--workload", "pipeline", "--out", str(out)]
    assert benchpairs.main(argv) == 0
    record = json.loads(out.read_text())
    assert (record["base_sha"], record["change_sha"]) == ("b" * 40, "c" * 40)
    assert record["ok"] and record["seeds"] == [5, 6]
    assert [p["first"] for p in record["workloads"]["pipeline"]["pairs"]] == ["base", "change"]
    assert runs == [(str(base), "pipeline", 5), (benchpairs.ROOT, "pipeline", 5),
                    (benchpairs.ROOT, "pipeline", 6), (str(base), "pipeline", 6)]
    assert "wrote" in capsys.readouterr().out


def test_the_record_holds_both_trees_line_counts(tmp_path, monkeypatch):
    # two temporary trees, each with a small ``src/graypol``: the record
    # counts every line of each file and the code lines, those that are not
    # blank, not a comment and not in a docstring
    import benchpairs

    sources = {
        "base": {"a.py": '"""Module\ndocstring."""\n\n# a comment\nx = 1\n', "sub/b.py": "y = 2\n"},
        "change": {"a.py": 'def f():\n    """One line."""\n    s = """not a\ndocstring"""\n    return s\n'},
    }
    trees = {}
    for side, files in sources.items():
        trees[side] = tmp_path / side
        (trees[side] / "bench").mkdir(parents=True)
        (trees[side] / "bench" / "run.py").write_text("")
        for name, text in files.items():
            path = trees[side] / "src" / "graypol" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    (trees["change"] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": SPEC}))
    values = {"work_per_s": 100.0, "latency_ms.p90": 2.0, "setup_s": 0.1}
    monkeypatch.setattr(benchpairs, "ROOT", str(trees["change"]))
    monkeypatch.setattr(benchpairs, "run_once", lambda tree, workload, seed, seconds: parse_run(_stdout(**values)))
    out = tmp_path / "BENCH_1.json"
    argv = ["--base", str(trees["base"]), "--pairs", "1", "--seconds", "1", "--seeds", "1..1",
            "--workload", "sweep", "--out", str(out)]
    assert benchpairs.main(argv) == 0
    lines = json.loads(out.read_text())["lines"]
    assert lines["base"] == {
        "files": {"a.py": {"lines": 5, "code": 1}, "sub/b.py": {"lines": 1, "code": 1}},
        "total": {"lines": 6, "code": 2},
    }
    assert lines["change"] == {"files": {"a.py": {"lines": 5, "code": 4}}, "total": {"lines": 5, "code": 4}}
