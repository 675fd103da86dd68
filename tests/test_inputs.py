"""Bad input fails fast with exit code 3 and leaves no output behind."""

import io
import json
import math
import re

import pytest

from votedecode.cli import main
from votedecode.config import ConfigError, load_config, parse_voter_spec
from votedecode.formats import FileFormatError, read_candidates, read_dataset, read_votes
from votedecode.models import ModelFormatError, load_model, train_ngram_lm
from votedecode.sequences import Vocabulary, build_vocabulary
from votedecode.voting import SimilaritySpec


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
        with pytest.raises(ConfigError, match="^voters: "):
            parse_voter_spec({"kind": "sample", "count": 5, **fields})

    @pytest.mark.parametrize(
        "fields", [{}, {"strategy": "top_k", "top_k": 1}, {"strategy": "nucleus", "top_p": 1.0}]
    )
    def test_accepted(self, fields):
        voters = parse_voter_spec({"kind": "sample", "count": 5, **fields})
        assert voters == {"kind": "sample", "count": 5, "strategy": "ancestral", "top_k": None, "top_p": None, **fields}

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


class TestConfigFailsFast:
    """A bad decode, sim or voters entry is a ConfigError naming it, raised before the model is built."""

    SIM = {"kind": "overl", "n": 1}

    def _config(self, tmp_path, decode=None, sim=None, voters="same", model=None, metrics=None):
        write_lines(tmp_path / "d.jsonl", [json.dumps({"id": 1, "references": ["a b"]})])
        config = {
            "schema_version": 1,
            "seed": 1,
            # Building the default model would be an i/o error; the train corpus is absent too.
            "model": model or {"kind": "load", "path": "no-such-model.json"},
            "dataset": "d.jsonl",
            "decode": [{"name": "b", "kind": "beam"}, decode or {"name": "s", "kind": "sample", "count": 2}],
            "select": [{"name": "map", "kind": "map"},
                       {"name": "v", "kind": "vote", "sim": self.SIM if sim is None else sim, "voters": voters}],
            "output_dir": "out",
            **({} if metrics is None else {"metrics": metrics}),
        }
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        return tmp_path / "config.json"

    def _fails(self, path, message, capsys):
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        assert main(["run", "--config", str(path)]) == 3
        assert "validation error" in capsys.readouterr().err
        assert not (path.parent / "out").exists()

    @pytest.mark.parametrize(
        "sim, message",
        [
            ("overl", r"select\[1\]\.sim: must be an object"),
            ({"kind": "overl", "n": 1.5}, r"select\[1\]\.sim: n must be an integer, got 1\.5"),
            ({"kind": "bleu", "max_n": 2.5}, r"select\[1\]\.sim: max_n must be an integer, got 2\.5"),
            ({"kind": "overl", "nn": 2}, r"select\[1\]\.sim: unknown field\(s\) \['nn'\]"),
            ({"kind": "embed_cosine", "vectors": 5}, r"select\[1\]\.sim: vectors must be a file path, got 5"),
        ],
        ids=["string", "fractional-n", "fractional-max_n", "unknown-key", "vectors-not-a-path"],
    )
    def test_bad_sim(self, tmp_path, capsys, sim, message):
        self._fails(self._config(tmp_path, sim=sim), message, capsys)

    @pytest.mark.parametrize(
        "decode, message",
        [
            ({"name": "s", "kind": "sample", "count": 0}, r"decode\[1\]: count must be >= 1, got 0"),
            ({"name": "s", "kind": "sample", "count": 2, "max_len": 0}, r"decode\[1\]: max_len must be >= 1, got 0"),
            ({"name": "s", "kind": "beam", "beam_size": 2.5}, r"decode\[1\]: beam_size must be an integer, got 2\.5"),
            ({"name": "s", "kind": "beam", "diverse_gamma": None},
             r"decode\[1\]: diverse_gamma must be a number, got None"),
            ({"name": "s", "kind": "beam", "filter_copies": {"share": 0.5}},
             r"decode\[1\]: filter_copies must be a number, got \{'share': 0\.5\}"),
            ({"name": "s", "kind": "sample", "count": 2, "strategy": "nucleus", "top_p": [0.5]},
             r"decode\[1\]: top_p must be a number, got \[0\.5\]"),
        ],
        ids=["sample-count-0", "sample-max_len-0", "fractional-beam_size", "null-diverse_gamma",
             "object-filter_copies", "list-top_p"],
    )
    def test_bad_decode_entry(self, tmp_path, capsys, decode, message):
        self._fails(self._config(tmp_path, decode=decode), message, capsys)

    @pytest.mark.parametrize(
        "voters, message",
        [
            ({"kind": "same", "beam_size": 3}, r"select\[1\]\.voters: unknown field\(s\) \['beam_size'\]"),
            ({"kind": "beam", "beam_size": 3, "count": 2}, r"select\[1\]\.voters: unknown field\(s\) \['count'\]"),
            ({"kind": "beam", "beam_size": 0}, r"select\[1\]\.voters: beam_size must be >= 1, got 0"),
            ("sample:0", r"select\[1\]\.voters: count must be >= 1, got 0"),
            ({"kind": "sample", "count": 2, "strategy": "nucleus", "top_p": [0.5]},
             r"select\[1\]\.voters: top_p must be a number, got \[0\.5\]"),
        ],
        ids=["same-with-beam_size", "beam-with-count", "beam-size-0", "sample-count-0", "list-top_p"],
    )
    def test_bad_voters(self, tmp_path, capsys, voters, message):
        self._fails(self._config(tmp_path, voters=voters), message, capsys)

    @pytest.mark.parametrize(
        "model, message",
        [
            ({"kind": "train", "corpus": "absent.txt", "add_k": None}, r"model: add_k must be a number, got None"),
            ({"kind": "train", "corpus": "absent.txt", "add_k": [0.5]}, r"model: add_k must be a number, got \[0\.5\]"),
            ({"kind": "tabular", "entries": [["a b", 0.5], ["a", None]]},
             r"model: entries\[1\]: probability must be a number, got None"),
            ({"kind": "tabular", "entries": [["a b", [0.5]]]},
             r"model: entries\[0\]: probability must be a number, got \[0\.5\]"),
            ({"kind": "tabular", "entries": [["a b", 0.5], ["a", math.nan]]},
             r"model: entries\[1\]: probability must be positive and finite, got nan"),
            ({"kind": "tabular", "entries": [["a b", math.inf]]},
             r"model: entries\[0\]: probability must be positive and finite, got inf"),
            ({"kind": "tabular", "entries": [["a b", 0.5, 1]]},
             r"model: entries\[0\] must be a \[text, probability\] pair"),
            ({"kind": "tabular", "entries": [[5, 0.5]]}, r"model: entries\[0\] must be a \[text, probability\] pair"),
        ],
        ids=["null-add_k", "list-add_k", "null-probability", "list-probability", "nan-probability",
             "inf-probability", "triple-entry", "numeric-text"],
    )
    def test_bad_model_number(self, tmp_path, capsys, model, message):
        self._fails(self._config(tmp_path, model=model), message, capsys)

    @pytest.mark.parametrize(
        "metrics, message",
        [
            ({"copy_threshold": None}, r"metrics: copy_threshold must be a number, got None"),
            ({"copy_threshold": "half"}, r"metrics: copy_threshold must be a number, got 'half'"),
            ({"copy_threshold": math.nan}, r"metrics\.copy_threshold must be in \[0,1\], got nan"),
        ],
        ids=["null", "word", "nan"],
    )
    def test_bad_metrics_number(self, tmp_path, capsys, metrics, message):
        self._fails(self._config(tmp_path, metrics=metrics), message, capsys)

    def test_integral_numbers_and_the_default_voters_are_accepted(self, tmp_path):
        sim = {"kind": "overl", "n": 2.0}
        config = load_config(self._config(tmp_path, decode={"name": "s", "kind": "beam", "beam_size": 3.0}, sim=sim))
        assert config.decode[1].beam_size == 3 and config.select[1].sim == SimilaritySpec(kind="overl", n=2)
        assert config.select[1].voters is None


class TestTabularFileEntries:
    """A tabular file's entries go through the config's entry parser, with faults naming the file."""

    @pytest.mark.parametrize(
        "entries, message",
        [
            (["a1"], r"entries\[0\] must be a \[text, probability\] pair, got 'a1'"),  # was read as ("a", 1.0)
            # was read with the text "5"
            ([["a b", 0.5], [5, 0.5]], r"entries\[1\] must be a \[text, probability\] pair, got \[5, 0\.5\]"),
            ([["a b", -1]], r"entries\[0\]: probability must be positive and finite, got -1\.0"),
        ],
        ids=["string-entry", "numeric-text", "negative-probability"],
    )
    def test_oracle_map_exits_3_naming_the_file(self, tmp_path, capsys, entries, message):
        tabular = write_lines(tmp_path / "t.json", [json.dumps({"entries": entries})])
        assert main(["oracle", "map", "--tabular", str(tabular), "--max-len", "3"]) == 3
        assert re.search(re.escape(f"{tabular}: ") + message, capsys.readouterr().err)


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

    # The counts are int64 arrays: a count or a history's total past that range is refused, not wrapped.
    @pytest.mark.parametrize(
        "events, message",
        [([[3, 2**63]], "malformed model file"), ([[3, 2**62], [4, 2**62]], "counts must sum below 2\\*\\*63")],
    )
    def test_load_model_refuses_counts_past_int64(self, events, message):
        payload = {"format": "votedecode-ngram-lm", "version": 1, "vocab": ["a", "b"], "order": 1, "add_k": 0.0,
                   "counts": [[[], events]]}
        with pytest.raises(ModelFormatError, match=message):
            load_model(io.StringIO(json.dumps(payload)))

    # A dict built from the lists kept the last copy of a repeated history or event.
    @pytest.mark.parametrize(
        "counts, message",
        [
            ([[[], [[3, 1], [3, 5]]], [[], [[4, 2]]]], r"event 3 appears twice in history \[\]"),
            ([[[], [[3, 1]]], [[], [[4, 2]]]], r"history \[\] appears twice"),
        ],
    )
    def test_load_model_refuses_duplicates(self, tmp_path, capsys, counts, message):
        payload = {"format": "votedecode-ngram-lm", "version": 1, "vocab": ["a", "b"], "order": 1, "add_k": 0.0,
                   "counts": counts}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError, match=message):
            load_model(io.StringIO(path.read_text(encoding="utf-8")))
        assert main(["oracle", "map", "--model", str(path), "--max-len", "3"]) == 3
        assert "appears twice" in capsys.readouterr().err

    # An event outside the ids entered its history's total but no row, so the row summed to less than 1.
    @pytest.mark.parametrize("event", [99, -1, 5])
    def test_load_model_refuses_an_event_outside_the_ids(self, tmp_path, capsys, event):
        payload = {"format": "votedecode-ngram-lm", "version": 1, "vocab": ["a", "b"], "order": 1, "add_k": 0.5,
                   "counts": [[[], [[3, 1], [event, 5]]]]}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        message = f"event {event} in history [] is outside the ids 0..4"
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_model(io.StringIO(path.read_text(encoding="utf-8")))
        assert main(["oracle", "map", "--model", str(path), "--max-len", "3"]) == 3
        assert message in capsys.readouterr().err

    def test_load_model_keeps_reserved_events(self):
        payload = {"format": "votedecode-ngram-lm", "version": 1, "vocab": ["a", "b"], "order": 1, "add_k": 0.5,
                   "counts": [[[], [[0, 2], [1, 1], [2, 1], [4, 3]]]]}
        assert load_model(io.StringIO(json.dumps(payload))).counts == {(): {0: 2, 1: 1, 2: 1, 4: 3}}

    # A history of the wrong length can never be queried: its counts were silently ignored and saved back.
    @pytest.mark.parametrize(
        "order, counts, message",
        [
            (1, [[[], [[3, 1], [1, 1]]], [[3, 4], [[4, 7]]]], r"history \[3, 4\] has 2 ids, an order-1 model needs 0"),
            (2, [[[], [[3, 1]]]], r"history \[\] has 0 ids, an order-2 model needs 1"),
        ],
        ids=["too-long", "too-short"],
    )
    def test_load_model_refuses_a_history_of_the_wrong_length(self, tmp_path, capsys, order, counts, message):
        payload = {"format": "votedecode-ngram-lm", "version": 1, "vocab": ["a", "b"], "order": order, "add_k": 0.0,
                   "counts": counts}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError, match=message):
            load_model(io.StringIO(path.read_text(encoding="utf-8")))
        assert main(["oracle", "map", "--model", str(path), "--max-len", "3"]) == 3
        assert "model needs" in capsys.readouterr().err

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


class TestEntryShapes:
    """A candidate or ranked entry of the wrong shape exits 3 naming its line, before any output is written."""

    GOOD = {"tokens": ["a"], "logprob": -1.0}

    @pytest.mark.parametrize(
        "record",
        [
            {"candidates": [{"tokens": "abc", "logprob": -1.0}]},  # was voted on as the tokens a, b, c
            {"candidates": 5},
            {"candidates": []},  # was refused only by the election, without a line
            {"candidates": [{"tokens": [1, 2], "logprob": -1.0}]},
            {"candidates": [{"tokens": [["a"]], "logprob": -1.0}]},
            {"candidates": [{"tokens": ["a"], "logprob": True}]},  # was read as log-probability 1.0
            {"candidates": [GOOD], "source": 5},
        ],
        ids=["string-tokens", "number-candidates", "empty-candidates", "number-tokens", "nested-tokens", "bool-logprob", "number-source"],
    )
    def test_vote(self, tmp_path, capsys, record):
        cands = write_lines(tmp_path / "c.jsonl", [json.dumps({"id": 1, "candidates": [self.GOOD]}),
                                                   json.dumps({"id": 2, **record})])
        out = tmp_path / "votes.jsonl"
        assert main(["vote", "--candidates", str(cands), "--sim", "overl", "--n", "1", "--out", str(out)]) == 3
        assert f"validation error: {cands}:2: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "fields",
        [{"ranked": 7}, {"ranked": [{**GOOD, "score": 0.5}], "contributions": [5]},
         {"ranked": [{**GOOD, "score": None}]}],
        ids=["number-ranked", "number-contribution-row", "null-score"],
    )
    def test_eval_of_a_votes_file(self, tmp_path, capsys, fields):
        dataset = write_lines(tmp_path / "d.jsonl", [dataset_line(1), dataset_line(2)])
        votes = write_lines(tmp_path / "v.jsonl", [votes_line(1, -1.0), json.dumps({"id": 2, **fields})])
        report = tmp_path / "report.tsv"
        assert main(["eval", "--hyps", str(votes), "--dataset", str(dataset), "--out-tsv", str(report)]) == 3
        assert f"validation error: {votes}:2: " in capsys.readouterr().err
        assert not report.exists()


class TestMissingIds:
    """Each join by id refuses an input id the other file lacks, naming that file and the id."""

    @pytest.fixture
    def files(self, tmp_path):
        """Dataset and candidates files with ids 1 and "two", and a copy of each holding id 1 alone."""
        return (write_lines(tmp_path / "d.jsonl", [dataset_line(1), dataset_line("two")]),
                write_lines(tmp_path / "d_short.jsonl", [dataset_line(1)]),
                write_lines(tmp_path / "c.jsonl", [candidates_line(1, -1), candidates_line("two", -1)]),
                write_lines(tmp_path / "c_short.jsonl", [candidates_line(1, -1)]))

    def test_vote_voters_file(self, files, tmp_path, capsys):
        _, _, cands, short = files
        out = tmp_path / "votes.jsonl"
        argv = ["vote", "--candidates", str(cands), "--voters", f"file:{short}", "--sim", "overl", "--n", "1"]
        assert main(argv + ["--out", str(out)]) == 3
        assert f"{short}: no record for input 'two'" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_dataset(self, files, tmp_path, capsys):
        _, dataset, cands, _ = files
        report = tmp_path / "report.tsv"
        assert main(["eval", "--hyps", str(cands), "--dataset", str(dataset), "--out-tsv", str(report)]) == 3
        assert f"{dataset}: no record for input 'two'" in capsys.readouterr().err
        assert not report.exists()

    def test_eval_compare(self, files, capsys):
        dataset, _, cands, short = files
        assert main(["eval", "--hyps", str(cands), "--dataset", str(dataset), "--compare", str(short),
                     "--n-bootstrap", "5"]) == 3
        captured = capsys.readouterr()
        assert f"{short}: no record for input 'two'" in captured.err
        assert captured.out == ""
