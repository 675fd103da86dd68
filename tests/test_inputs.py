"""Bad input fails fast with exit code 3 and leaves no output behind."""

import json
import math

import pytest

from votedecode.cli import main
from votedecode.config import ConfigError, parse_voter_spec
from votedecode.formats import FileFormatError, read_candidates, read_dataset, read_votes
from votedecode.voting import VoterSpec


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def candidates_line(record_id, logprob):
    return f'{{"id": {json.dumps(record_id)}, "candidates": [{{"tokens": ["a"], "logprob": {logprob}}}]}}'


def votes_line(record_id, logprob):
    return f'{{"id": {json.dumps(record_id)}, "ranked": [{{"tokens": ["a"], "logprob": {logprob}, "score": 0.5}}]}}'


def dataset_line(record_id):
    return json.dumps({"id": record_id, "references": ["a"]})


class TestNonFiniteLogprobs:
    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_rejected_with_path_and_line(self, tmp_path, bad):
        cands = write_lines(tmp_path / "c.jsonl", [candidates_line(1, -0.5), candidates_line(2, bad)])
        votes = write_lines(tmp_path / "v.jsonl", [votes_line(1, -0.5), votes_line(2, bad)])
        for reader, path in ((read_candidates, cands), (read_votes, votes)):
            with pytest.raises(FileFormatError, match=f"{path}:2: log-probability"):
                reader(path)

    def test_minus_infinity_is_zero_probability(self, tmp_path):
        cands = write_lines(tmp_path / "c.jsonl", [candidates_line(1, "-Infinity")])
        votes = write_lines(tmp_path / "v.jsonl", [votes_line(1, "-Infinity")])
        assert read_candidates(cands)[0].candidates[0][1] == -math.inf
        assert read_votes(votes)[0].ranked[0][1] == -math.inf

    def test_vote_exits_3_and_writes_nothing(self, tmp_path):
        cands = write_lines(tmp_path / "c.jsonl", [candidates_line(1, "NaN")])
        out = tmp_path / "votes.jsonl"
        assert main(["vote", "--candidates", str(cands), "--sim", "overl", "--n", "1", "--out", str(out)]) == 3
        assert not out.exists()


class TestDuplicateIds:
    @pytest.mark.parametrize(
        "first, second",
        [(7, 7), ("x", "x"), ([1, "a"], [1, "a"]), ({"a": 1, "b": 2}, {"b": 2, "a": 1})],
    )
    def test_every_reader_names_both_lines(self, tmp_path, first, second):
        cases = [
            (read_dataset, [dataset_line(first), dataset_line(0), dataset_line(second)]),
            (read_candidates, [candidates_line(first, -1), candidates_line(0, -1), candidates_line(second, -1)]),
            (read_votes, [votes_line(first, -1), votes_line(0, -1), votes_line(second, -1)]),
        ]
        for reader, lines in cases:
            path = write_lines(tmp_path / f"{reader.__name__}.jsonl", lines)
            with pytest.raises(FileFormatError, match=rf"{path}:3: duplicate id .* \(first on line 1\)"):
                reader(path)

    def test_distinct_structured_ids_pass(self, tmp_path):
        path = write_lines(tmp_path / "d.jsonl", [dataset_line([1]), dataset_line("[1]"), dataset_line([2])])
        assert [row.id for row in read_dataset(path)] == [[1], "[1]", [2]]

    def test_eval_exits_3(self, tmp_path):
        dataset = write_lines(tmp_path / "d.jsonl", [dataset_line(1), dataset_line(1)])
        hyps = write_lines(tmp_path / "h.jsonl", [candidates_line(1, -1)])
        assert main(["eval", "--hyps", str(hyps), "--dataset", str(dataset)]) == 3

    def test_eval_names_the_duplicate_in_a_candidates_file(self, tmp_path, capsys):
        dataset = write_lines(tmp_path / "d.jsonl", [dataset_line(1)])
        hyps = write_lines(tmp_path / "h.jsonl", [candidates_line(1, -1), candidates_line(1, -2)])
        assert main(["eval", "--hyps", str(hyps), "--dataset", str(dataset)]) == 3
        assert f"{hyps}:2: duplicate id 1 (first on line 1)" in capsys.readouterr().err


class TestStructuredIds:
    """List and object ids key records by their JSON text, as the duplicate check does."""

    @pytest.mark.parametrize("record_id", [[1], {"a": [1, 2]}])
    def test_vote_with_voter_file_and_eval_exit_0(self, tmp_path, record_id):
        dataset = write_lines(tmp_path / "d.jsonl", [dataset_line(record_id), dataset_line([2])])
        cands = write_lines(tmp_path / "c.jsonl", [candidates_line([2], -1), candidates_line(record_id, -1)])
        voters = write_lines(tmp_path / "v.jsonl", [candidates_line(record_id, -1), candidates_line([2], -1)])
        votes = tmp_path / "votes.jsonl"
        argv = ["vote", "--candidates", str(cands), "--voters", f"file:{voters}", "--sim", "overl", "--n", "1"]
        assert main(argv + ["--out", str(votes)]) == 0
        assert [rec.id for rec in read_votes(votes)] == [[2], record_id]
        for hyps in (cands, votes):
            assert main(["eval", "--hyps", str(hyps), "--dataset", str(dataset)]) == 0
        assert main(["eval", "--hyps", str(votes), "--dataset", str(dataset), "--compare", str(cands),
                     "--n-bootstrap", "5"]) == 0


class TestSamplingVoterSpecs:
    @pytest.mark.parametrize(
        "fields",
        [
            {"strategy": "gumbel"},
            {"strategy": "top_k"},
            {"strategy": "top_k", "top_k": 0},
            {"strategy": "nucleus"},
            {"strategy": "nucleus", "top_p": 0.0},
            {"strategy": "nucleus", "top_p": 1.5},
        ],
    )
    def test_rejected(self, fields):
        with pytest.raises(ValueError):
            VoterSpec(kind="sample", count=5, seed=0, **fields)

    @pytest.mark.parametrize(
        "fields", [{}, {"strategy": "top_k", "top_k": 1}, {"strategy": "nucleus", "top_p": 1.0}]
    )
    def test_accepted(self, fields):
        VoterSpec(kind="sample", count=5, seed=0, **fields)

    def test_string_spec_is_a_config_error(self):
        with pytest.raises(ConfigError, match="top_k sampling needs top_k >= 1"):
            parse_voter_spec("sample:5:top_k")

    @pytest.mark.parametrize(
        "decode, voters",
        [
            ({"name": "b", "kind": "beam", "beam_size": 2, "max_len": 4}, "sample:5:top_k"),
            ({"name": "s", "kind": "sample", "count": 2, "strategy": "nucleus"}, "same"),
        ],
    )
    def test_run_fails_before_any_output(self, tmp_path, decode, voters):
        write_lines(tmp_path / "d.jsonl", [json.dumps({"id": 1, "references": ["a b"]})])
        config = {
            "schema_version": 1,
            "seed": 1,
            "model": {"kind": "tabular", "entries": [["a b", 0.6], ["a", 0.4]]},
            "dataset": "d.jsonl",
            "decode": [decode],
            "select": [{"name": "v", "kind": "vote", "sim": {"kind": "overl", "n": 1}, "voters": voters}],
            "output_dir": "out",
        }
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(tmp_path / "config.json")]) == 3
        assert not (tmp_path / "out").exists()


class TestDecodeFlags:
    """`decode` checks its flags with the parser `run` uses for a decode entry."""

    @pytest.fixture
    def decode_argv(self, tmp_path):
        tabular = write_lines(tmp_path / "t.json", [json.dumps({"entries": [["a b", 0.6], ["a", 0.4]]})])
        dataset = write_lines(tmp_path / "d.jsonl", [json.dumps({"id": 1, "references": ["a b"]})])
        return ["decode", "--tabular", str(tabular), "--dataset", str(dataset), "--out", str(tmp_path / "c.jsonl")]

    def _fails_before_output(self, argv, tmp_path, capsys):
        assert main(argv) == 3
        assert not (tmp_path / "c.jsonl").exists()
        return capsys.readouterr().err

    def test_beam_flags_with_a_sampling_strategy(self, decode_argv, tmp_path, capsys):
        argv = decode_argv + ["--strategy", "ancestral", "--count", "2", "--filter-copies", "0.5",
                              "--beam-size", "7", "--scoring", "length_normalized"]
        assert "['beam_size', 'filter_copies', 'scoring']" in self._fails_before_output(argv, tmp_path, capsys)

    def test_sampling_flags_with_beam_search(self, decode_argv, tmp_path, capsys):
        argv = decode_argv + ["--top-p", "0.5", "--top-k", "2", "--count", "3"]
        assert "['count', 'top_k', 'top_p']" in self._fails_before_output(argv, tmp_path, capsys)

    def test_copy_threshold_out_of_range_without_sources(self, decode_argv, tmp_path, capsys):
        argv = decode_argv + ["--filter-copies", "1.5"]
        assert "filter_copies must be in [0,1]" in self._fails_before_output(argv, tmp_path, capsys)
