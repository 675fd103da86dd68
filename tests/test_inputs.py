"""Bad input fails fast with exit code 3 and leaves no output behind."""

import io
import json
import math

import pytest

from votedecode.cli import main
from votedecode.config import ConfigError, load_config, parse_voter_spec
from votedecode.formats import FileFormatError, read_candidates, read_dataset, read_votes
from votedecode.models import ModelFormatError, load_model, train_ngram_lm
from votedecode.sequences import Vocabulary, build_vocabulary
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


class TestTrainingSettings:
    """add_k must be finite and >= 0, max_vocab >= 0: at training, loading and config parsing."""

    @pytest.mark.parametrize("add_k", [math.nan, math.inf, -0.5])
    def test_train_ngram_lm_rejects_add_k(self, add_k):
        with pytest.raises(ValueError, match="add_k must be finite and >= 0"):
            train_ngram_lm([(3,)], order=2, add_k=add_k, vocab=Vocabulary(tokens=("a",)))

    def test_build_vocabulary_rejects_a_negative_max_size(self):
        with pytest.raises(ValueError, match="max_vocab must be >= 0, got -1"):
            build_vocabulary(["a b c d"], max_size=-1)
        assert build_vocabulary(["a b c d"], max_size=0).tokens == ()

    @pytest.mark.parametrize("flags", [["--add-k", "nan"], ["--add-k", "inf"], ["--max-vocab", "-1"]])
    def test_train_exits_3_and_writes_nothing(self, tmp_path, flags):
        corpus = write_lines(tmp_path / "corpus.txt", ["a b", "c d"])
        out = tmp_path / "model.json"
        assert main(["train", "--corpus", str(corpus), "--out", str(out), *flags]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("add_k", ["NaN", "Infinity", "-1"])
    def test_load_model_refuses_the_add_k(self, tmp_path, add_k):
        text = '{"add_k":%s,"counts":[],"format":"votedecode-ngram-lm","order":2,"version":1,"vocab":["a"]}' % add_k
        with pytest.raises(ModelFormatError, match="add_k must be finite and >= 0"):
            load_model(io.StringIO(text))

    # A negative total made the first query raise "math domain error"; a negative count under a
    # positive total gave a row summing past 1.
    @pytest.mark.parametrize("events", [[[3, -5], [4, 2]], [[3, -1], [4, 3]]])
    def test_load_model_refuses_negative_counts(self, tmp_path, capsys, events):
        payload = {"format": "votedecode-ngram-lm", "version": 1, "vocab": ["a", "b"], "order": 1, "add_k": 0.0,
                   "counts": [[[], events]]}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="event counts must be >= 0"):
            load_model(io.StringIO(path.read_text(encoding="utf-8")))
        assert main(["oracle", "map", "--model", str(path), "--max-len", "3"]) == 3
        assert "event counts must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"add_k": math.nan}, "add_k must be finite and >= 0"),
            ({"add_k": -1}, "add_k must be finite and >= 0"),
            ({"order": 0}, "order must be >= 1"),
            ({"max_vocab": -1}, "max_vocab must be >= 0"),
        ],
    )
    def test_run_fails_before_any_output(self, tmp_path, capsys, fields, message):
        write_lines(tmp_path / "corpus.txt", ["a b", "b a"])
        write_lines(tmp_path / "d.jsonl", [json.dumps({"id": 1, "references": ["a b"]})])
        config = {
            "schema_version": 1,
            "model": {"kind": "train", "corpus": "corpus.txt", **fields},
            "dataset": "d.jsonl",
            "decode": [{"name": "b", "kind": "beam", "beam_size": 2, "max_len": 4}],
            "select": [{"name": "map", "kind": "map"}],
            "output_dir": "out",
        }
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        with pytest.raises(ConfigError, match=message):
            load_config(tmp_path / "config.json")
        assert main(["run", "--config", str(tmp_path / "config.json")]) == 3
        assert f"model: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestVoteWithModelVoters:
    """Candidate tokens outside the model's vocabulary are an error, not UNK."""

    @pytest.fixture
    def files(self, tmp_path):
        corpus = write_lines(tmp_path / "corpus.txt", ["the cat sat", "the dog ran"])
        model = tmp_path / "model.json"
        assert main(["train", "--corpus", str(corpus), "--out", str(model), "--add-k", "0.1"]) == 0
        return model, tmp_path

    def vote(self, files, tokens, voters):
        model, tmp_path = files
        record = {"id": "r1", "candidates": [{"tokens": ["the", "cat"], "logprob": -1.0},
                                             {"tokens": tokens, "logprob": -2.0}]}
        cands = write_lines(tmp_path / "c.jsonl", [json.dumps(record)])
        out = tmp_path / "votes.jsonl"
        argv = ["vote", "--candidates", str(cands), "--voters", voters, "--model", str(model),
                "--sim", "overl", "--n", "1", "--max-len", "4", "--out", str(out)]
        return main(argv), out

    @pytest.mark.parametrize("voters", ["beam:2", "sample:3"])
    def test_unknown_token_exits_3_before_output(self, files, capsys, voters):
        code, out = self.vote(files, ["the", "zebra", "sat"], voters)
        assert code == 3
        assert "input 'r1': unknown token 'zebra'" in capsys.readouterr().err
        assert not out.exists()

    def test_unk_mark_stays_legal(self, files):
        code, out = self.vote(files, ["the", "<unk>", "sat"], "beam:2")
        assert code == 0
        assert ["the", "<unk>", "sat"] in [list(tokens) for tokens, _, _ in read_votes(out)[0].ranked]
