"""Commands driven through `cli.main`: the oracle group, reserved markers in votes, empty decodes."""

import json
import math

import pytest

from votedecode.cli import main
from votedecode.formats import read_votes
from votedecode.oracle import enumerate_distribution, exact_vote
from votedecode.voting import SimilaritySpec

from conftest import FIXTURE5, model_from_texts

MAX_LEN = 6


@pytest.fixture
def tabular(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps({"entries": FIXTURE5}), encoding="utf-8")
    return path


def run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


class TestOracle:
    def test_enumerate_lists_the_support_by_probability(self, tabular, tmp_path, capsys):
        out = tmp_path / "enum.jsonl"
        code, _ = run_cli(capsys, ["oracle", "enumerate", "--tabular", str(tabular), "--max-len", str(MAX_LEN),
                                   "--out", str(out)])
        assert code == 0
        lines = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert [line["sequence"] for line in lines] == [text for text, _ in sorted(FIXTURE5, key=lambda e: -e[1])]
        for line in lines:
            assert line["prob"] == pytest.approx(dict(FIXTURE5)[line["sequence"]], rel=1e-12)
        code, stdout = run_cli(capsys, ["oracle", "enumerate", "--tabular", str(tabular), "--max-len", str(MAX_LEN)])
        assert code == 0
        assert stdout == out.read_text(encoding="utf-8")

    def test_map_is_the_most_likely_sequence(self, tabular, capsys):
        code, stdout = run_cli(capsys, ["oracle", "map", "--tabular", str(tabular), "--max-len", str(MAX_LEN)])
        assert code == 0
        best = json.loads(stdout)
        assert best["sequence"] == "ok"
        assert best["logprob"] == pytest.approx(math.log(0.30), abs=1e-12)

    def test_vote_winner_matches_the_exact_election(self, tabular, capsys):
        code, stdout = run_cli(capsys, ["oracle", "vote-winner", "--tabular", str(tabular), "--max-len", str(MAX_LEN),
                                        "--sim", "overl", "--n", "1"])
        assert code == 0
        winner = json.loads(stdout)
        model, vocab = model_from_texts(FIXTURE5)
        result = exact_vote(model, SimilaritySpec(kind="overl", n=1), MAX_LEN)
        assert winner["sequence"] == " ".join(vocab.token_of(t) for t in result.winner.tokens)
        assert winner["score"] == result.winner_score
        assert winner["sequence"] != "ok"  # the near-duplicates' shared words outvote the MAP sequence

    @pytest.mark.parametrize("command", [["enumerate"], ["map"], ["vote-winner", "--sim", "overl", "--n", "1"]])
    def test_budget_overrun_exits_4(self, tabular, tmp_path, capsys, command):
        model, _ = model_from_texts(FIXTURE5)
        assert enumerate_distribution(model, MAX_LEN).entries  # the full budget suffices
        out = tmp_path / "enum.jsonl"
        extra = ["--out", str(out)] if command == ["enumerate"] else []
        argv = ["oracle", command[0], "--tabular", str(tabular), "--max-len", str(MAX_LEN), "--budget", "2",
                *command[1:], *extra]
        assert main(argv) == 4
        assert "budget error" in capsys.readouterr().err
        assert not out.exists()


class TestReservedMarkersInVotes:
    @pytest.mark.parametrize("voters", ["same", "file"])
    def test_markers_keep_their_ids(self, tmp_path, voters):
        record = {"id": "r1", "candidates": [{"tokens": ["a", "<eos>"], "logprob": -1.0},
                                             {"tokens": ["<bos>", "a", "<unk>"], "logprob": -2.0}]}
        cands = tmp_path / "c.jsonl"
        cands.write_text(json.dumps(record) + "\n", encoding="utf-8")
        out = tmp_path / "votes.jsonl"
        flag = "same" if voters == "same" else f"file:{cands}"
        assert main(["vote", "--candidates", str(cands), "--voters", flag, "--sim", "overl", "--n", "1",
                     "--out", str(out)]) == 0
        ranked = sorted(list(tokens) for tokens, _, _ in read_votes(out)[0].ranked)
        assert ranked == [["<bos>", "a", "<unk>"], ["a", "<eos>"]]


def test_empty_decode_exits_3_before_writing_its_candidates(tmp_path, capsys):
    (tmp_path / "d.jsonl").write_text(json.dumps({"id": 1, "source": "a", "references": ["a"]}) + "\n")
    config = {
        "schema_version": 1,
        "model": {"kind": "tabular", "entries": [["a", 1.0]]},
        "dataset": "d.jsonl",
        # Threshold 0 filters every candidate that shares nothing with "a", and "a" copies all of it.
        "decode": [{"name": "filtered", "kind": "beam", "beam_size": 2, "max_len": 3, "filter_copies": 0.0}],
        "select": [{"name": "map", "kind": "map"}],
        "output_dir": "out",
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", str(tmp_path / "config.json")]) == 3
    assert "decode 'filtered' left no candidates for input 1" in capsys.readouterr().err
    assert not (tmp_path / "out" / "candidates" / "filtered.jsonl").exists()
