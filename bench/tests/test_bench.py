"""Tests of the benchmark itself: seeded inputs, the golden check, tracing and failure counting.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import golden
import run
from tracing import Tracer
from workloads import RERANK_RESAMPLES, WORKLOADS, Command, Workload, _rerank_commands

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tree(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_benchmark_json_names_the_workloads_the_code_runs():
    assert BENCHMARK["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert BENCHMARK["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    trees = []
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        out = tmp_path / label
        out.mkdir()
        WORKLOADS[name].generate(seed, out)
        trees.append(_tree(out))
    assert trees[0] == trees[1]
    assert trees[0].keys() == trees[2].keys()
    assert trees[0] != trees[2]


def _votes_file(scores: list[list[float]]) -> bytes:
    lines = []
    for i, row in enumerate(scores):
        ranked = [{"tokens": [f"w{j}", "x"], "logprob": -1.0 - j, "score": s} for j, s in enumerate(row)]
        lines.append(json.dumps({"id": f"row{i}", "ranked": ranked}, sort_keys=True))
    return ("\n".join(lines) + "\n").encode()


SCORES = [[0.25, 0.125, 0.0625], [0.3, 0.2000000001, 0.1]]


def test_golden_accepts_tiny_score_changes():
    entry = golden.record({"votes/sys.jsonl": _votes_file(SCORES), "report.tsv": b"a\t1\n"})
    nudged = [[s * (1 + 1e-15) for s in row] for row in SCORES]
    changed = _votes_file(nudged)
    assert changed != _votes_file(SCORES)
    assert golden.mismatches(entry, {"votes/sys.jsonl": changed, "report.tsv": b"a\t1\n"}) == []


def test_golden_rejects_changed_winner_scores_and_bytes():
    entry = golden.record({"votes/sys.jsonl": _votes_file(SCORES), "report.tsv": b"a\t1\n"})
    swapped = _votes_file(SCORES).decode().replace('"w0"', '"tmp"').replace('"w1"', '"w0"').replace('"tmp"', '"w1"')
    far = _votes_file([[s * (1 + 1e-9) for s in row] for row in SCORES])
    assert golden.mismatches(entry, {"votes/sys.jsonl": swapped.encode(), "report.tsv": b"a\t1\n"})
    assert golden.mismatches(entry, {"votes/sys.jsonl": far, "report.tsv": b"a\t1\n"})
    assert golden.mismatches(entry, {"votes/sys.jsonl": _votes_file(SCORES), "report.tsv": b"a\t2\n"})
    assert golden.mismatches(entry, {"report.tsv": b"a\t1\n"}) == ["votes/sys.jsonl: missing"]


def _tiny_rerank(seed: int, out: Path) -> None:
    cands = [{"tokens": ["a", "b", "c"], "logprob": -1.0}, {"tokens": ["a", "b", "d"], "logprob": -1.5}]
    voters = cands + [{"tokens": ["a", "b", "d", "e"], "logprob": -2.0}]
    rows = [(f"r{i}", ["a b c", "a b d e"]) for i in range(3)]
    (out / "candidates.jsonl").write_text("".join(json.dumps({"id": i, "candidates": cands}) + "\n" for i, _ in rows))
    (out / "voters.jsonl").write_text("".join(json.dumps({"id": i, "candidates": voters}) + "\n" for i, _ in rows))
    (out / "dataset.jsonl").write_text("".join(json.dumps({"id": i, "references": r}) + "\n" for i, r in rows))


TINY = Workload("tiny", "test", 3, _tiny_rerank, _rerank_commands, None)


@pytest.fixture
def vd():
    return run.import_votedecode()


def _targets(vd):
    names = [(vd["cli"], "load_config"), (vd["cli"], "run_experiment"), (vd["harness"], "build_model"),
             (vd["models"].NGramLM, "next_token_logprobs"), (vd["cli"], "paired_bootstrap")]
    for owner in (vd["harness"], vd["voting"], vd["cli"]):
        names += [(owner, "beam_search"), (owner, "sample_sequences")]
    for owner in (vd["harness"], vd["cli"]):
        names += [(owner, a) for a in vars(owner) if a.startswith(("read_", "write_", "range_vote", "evaluate_"))]
    return {(owner, attr): getattr(owner, attr) for owner, attr in names}


def test_traced_run_reports_every_layer_and_restores_originals(vd, tmp_path):
    before = _targets(vd)
    bench_run = run.Run(TINY, 0, tmp_path / "work")
    metrics, detail = run.per_layer(bench_run, vd, 0.0)
    assert bench_run.failures == []
    assert bench_run.attempted == 2  # one untraced and one traced pass
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert [m["unit"] for m in metrics.values()] == [m["unit"] for m in BENCHMARK["per_layer"]]
    assert metrics["voting.elections"]["value"] == 6
    assert metrics["voting.pairs"]["value"] == 3 * 2 * 3 * 2
    assert metrics["metrics.bootstrap_resamples"]["value"] == RERANK_RESAMPLES
    assert metrics["formats.records_written"]["value"] == 6
    assert metrics["trace.self_share"]["value"] == pytest.approx(1.0, abs=0.05)
    assert {span[0] for span in detail["spans"]} >= {"cli.main", "voting.vote", "metrics.bootstrap", "formats.read"}
    after = _targets(vd)
    assert all(after[key] is before[key] for key in before)
    assert not any(hasattr(fn, "__wrapped__") for fn in after.values())


def test_self_times_subtract_child_spans():
    tracer = Tracer()
    tracer.spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1], ["a", 5.0, 6.0, 0]]
    assert tracer.self_times() == {"root": 6.0, "a": 3.0, "b": 1.0}


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    bench_run = run.Run(TINY, 0, tmp_path / "work")
    metrics, detail = run.end_to_end(bench_run, 0.0)
    assert bench_run.failures == []
    assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert [m["unit"] for m in metrics.values()] == [m["unit"] for m in BENCHMARK["end_to_end"]]
    assert len(detail["setup_ref_s"]) == run.SETUP_REPS
    assert metrics["setup_s"]["value"] == statistics.median(detail["setup_ref_s"]) > 0
    assert metrics["rows_per_s"]["value"] == 3 / detail["pass_ref_s"][0]


def test_times_are_scaled_by_the_calibrations_around_them(monkeypatch):
    readings = iter([0.5 * run.CALIBRATION_REF_S, 1.5 * run.CALIBRATION_REF_S])
    monkeypatch.setattr(run, "calibrate", lambda: next(readings))
    assert run.calibrated(lambda: "done") == ("done", 1.0)


def _bad_candidates(seed: int, out: Path) -> None:
    _tiny_rerank(seed, out)
    (out / "candidates.jsonl").write_text('{"id": "r0"}\n')


def test_pass_exiting_3_counts_as_failed(tmp_path):
    bench_run = run.Run(replace(TINY, generate=_bad_candidates), 0, tmp_path / "work")
    metrics, detail = run.end_to_end(bench_run, 0.0)
    assert bench_run.attempted == 1
    assert len(bench_run.failures) == 1 and "exited 3" in bench_run.failures[0]
    assert detail["pass_s"] == [None]
    assert metrics["rows_per_s"]["value"] == 0.0


def test_pass_raising_counts_as_failed(vd, tmp_path):
    crash = Workload("crash", "test", 1, _tiny_rerank, lambda i, o, s: [Command(["vote", "--sim", "bleu"])], None)
    vd["cli"].main, original = (lambda argv: 1 / 0), vd["cli"].main
    try:
        bench_run = run.Run(crash, 0, tmp_path / "work")
        assert bench_run.measured_pass(vd, None) is None
    finally:
        vd["cli"].main = original
    assert "ZeroDivisionError" in bench_run.failures[0]


def test_recorded_golden_fails_a_perturbed_winner(vd, tmp_path):
    bench_run = run.Run(WORKLOADS["rerank"], 0, tmp_path / "work")
    bench_run.check_recorded(vd)
    assert bench_run.measured_pass(vd, None) is not None
    original = vd["cli"].range_vote

    def runner_up_wins(*args, **kwargs):
        result = original(*args, **kwargs)
        ranking = (result.ranking[1], result.ranking[0], *result.ranking[2:])
        return replace(result, ranking=ranking)

    vd["cli"].range_vote = runner_up_wins
    try:
        assert bench_run.measured_pass(vd, None) is None
    finally:
        vd["cli"].range_vote = original
    assert len(bench_run.failures) == 1 and "votes_bleu.jsonl" in bench_run.failures[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rerank", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
