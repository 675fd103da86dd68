"""Bad input fails fast with exit code 3 and leaves no output behind."""

import io
import json
import math
import re

import pytest

from votedecode import harness
from votedecode.cli import main
from votedecode.config import ConfigError, load_config, parse_voter_spec
from votedecode.formats import FileFormatError, read_candidates, read_dataset, read_votes
from votedecode.models import ModelFormatError, load_model
from votedecode.sequences import Vocabulary, index_corpus
from votedecode.voting import SimilaritySpec

from conftest import train_ngram_lm


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


# An id that is or holds NaN or ±Infinity has no strict JSON text: writing it back failed after the output was open.
NON_FINITE_IDS = [math.nan, math.inf, -math.inf, [1, math.nan], {"a": -math.inf}]


class TestNonFiniteIds:
    @pytest.mark.parametrize("bad", NON_FINITE_IDS, ids=["nan", "inf", "minus-inf", "list", "object"])
    def test_every_reader_names_the_line(self, tmp_path, bad):
        cases = [
            (read_dataset, [dataset_line(1), dataset_line(bad)]),
            (read_candidates, [candidates_line(1, -1), candidates_line(bad, -1)]),
            (read_votes, [votes_line(1, -1), votes_line(bad, -1)]),
        ]
        for reader, lines in cases:
            path = write_lines(tmp_path / f"{reader.__name__}.jsonl", lines)
            with pytest.raises(FileFormatError, match=rf"{path}:2: id .* is or holds NaN or Infinity"):
                reader(path)

    @pytest.mark.parametrize("command", ["vote", "decode"])
    def test_exits_3_before_any_output(self, tmp_path, capsys, command):
        out = tmp_path / "out.jsonl"
        if command == "vote":
            path = write_lines(tmp_path / "c.jsonl", [candidates_line(math.nan, -1)])
            argv = ["vote", "--candidates", str(path), "--sim", "overl", "--n", "1"]
        else:
            path = write_lines(tmp_path / "d.jsonl", [dataset_line(math.nan)])
            tabular = tmp_path / "t.json"
            tabular.write_text(json.dumps({"entries": [["a", 1.0]]}), encoding="utf-8")
            argv = ["decode", "--tabular", str(tabular), "--dataset", str(path)]
        assert main([*argv, "--out", str(out)]) == 3
        assert f"{path}:1: id nan is or holds NaN or Infinity" in capsys.readouterr().err
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
        with pytest.raises(ConfigError, match="cannot parse voter spec 'sample:5:top_k'"):
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


ABSENT = object()  # a config key that TestConfigFailsFast._config leaves out


class TestConfigFailsFast:
    """A bad decode, sim or voters entry is a ConfigError naming it, raised before the model is built."""

    SIM = {"kind": "overl", "n": 1}

    def _config(self, tmp_path, decode=None, sim=None, voters="same", model=None, metrics=None, vote=None, **root):
        """A config file; ``vote`` adds fields to its vote entry, and ``root`` replaces top-level keys (ABSENT drops one)."""
        write_lines(tmp_path / "d.jsonl", [json.dumps({"id": 1, "references": ["a b"]})])
        config = {
            "schema_version": 1,
            "seed": 1,
            # Building the default model would be an i/o error; the train corpus is absent too.
            "model": model or {"kind": "load", "path": "no-such-model.json"},
            "dataset": "d.jsonl",
            "decode": [{"name": "b", "kind": "beam"}, decode or {"name": "s", "kind": "sample", "count": 2}],
            "select": [{"name": "map", "kind": "map"},
                       {"name": "v", "kind": "vote", "sim": self.SIM if sim is None else sim, "voters": voters,
                        **(vote or {})}],
            "output_dir": "out",
            **({} if metrics is None else {"metrics": metrics}),
            **root,
        }
        config = {key: value for key, value in config.items() if value is not ABSENT}
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
            ({"kind": "embed_cosine", "vectors": 5}, r"select\[1\]\.sim: vectors must be a string, got 5"),
            # Was refused only after the model was built and the first decode entry had run.
            ({"kind": "embed_cosine"}, r"select\[1\]\.sim: embed_cosine needs a 'vectors' file path"),
            ({"kind": "overl", "n": True}, r"select\[1\]\.sim: n must be an integer, got True"),  # was read as 1
            ({"kind": "bleu", "max_n": "2"}, r"select\[1\]\.sim: max_n must be an integer, got '2'"),  # was read as 2
            ({"kind": ["overl"], "n": 1}, r"select\[1\]\.sim: kind must be a string, got \['overl'\]"),
            # Each ran with the key ignored; the vectors file does not even exist.
            ({"kind": "bleu", "n": 2}, r"select\[1\]\.sim: bleu similarity does not read 'n'"),
            ({"kind": "overl", "n": 1, "max_n": 3}, r"select\[1\]\.sim: overl similarity does not read 'max_n'"),
            ({"kind": "prec", "n": 1, "vectors": "v.tsv"},
             r"select\[1\]\.sim: prec similarity does not read 'vectors'"),
            ({"kind": "embed_cosine", "vectors": "v.tsv", "max_n": 2},
             r"select\[1\]\.sim: embed_cosine similarity does not read 'max_n'"),
        ],
        ids=["string", "fractional-n", "fractional-max_n", "unknown-key", "vectors-not-a-path", "no-vectors", "bool-n",
             "string-max_n", "list-kind", "bleu-n", "overl-max_n", "prec-vectors", "embed_cosine-max_n"],
    )
    def test_bad_sim(self, tmp_path, capsys, monkeypatch, sim, message):
        monkeypatch.setattr(harness, "build_model", lambda *args: pytest.fail("the model was built"))
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
            # Each was converted, to 1, 0.0 and 4.
            ({"name": "s", "kind": "beam", "beam_size": True}, r"decode\[1\]: beam_size must be an integer, got True"),
            ({"name": "s", "kind": "beam", "diverse_gamma": False},
             r"decode\[1\]: diverse_gamma must be a number, got False"),
            ({"name": "s", "kind": "beam", "max_len": "4"}, r"decode\[1\]: max_len must be an integer, got '4'"),
            # Converting it raised OverflowError: a traceback, exit 1.
            ({"name": "s", "kind": "beam", "diverse_gamma": 10**400},
             r"decode\[1\]: diverse_gamma must be a number, got 10{400}$"),
            # The names were read as "None" and "5".
            ({"name": None, "kind": "beam"}, r"decode\[1\]: name must be a string, got None"),
            ({"name": 5, "kind": "beam"}, r"decode\[1\]: name must be a string, got 5"),
            ({"name": "s", "kind": {"beam": 1}}, r"decode\[1\]: unknown decode kind \{'beam': 1\}"),
        ],
        ids=["sample-count-0", "sample-max_len-0", "fractional-beam_size", "null-diverse_gamma",
             "object-filter_copies", "list-top_p", "bool-beam_size", "bool-diverse_gamma", "string-max_len",
             "huge-diverse_gamma", "null-name", "number-name", "object-kind"],
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
            ({"kind": "beam", "beam_size": True}, r"select\[1\]\.voters: beam_size must be an integer, got True"),
            ({"kind": "beam", "beam_size": "3"}, r"select\[1\]\.voters: beam_size must be an integer, got '3'"),
            ({"kind": "sample", "count": 2, "strategy": "nucleus", "top_p": True},
             r"select\[1\]\.voters: top_p must be a number, got True"),
            ({"kind": ["same"]}, r"select\[1\]\.voters: unknown voter kind \['same'\]"),
            ("beam:3.0", r"select\[1\]\.voters: cannot parse voter spec 'beam:3\.0'"),
        ],
        ids=["same-with-beam_size", "beam-with-count", "beam-size-0", "sample-count-0", "list-top_p", "bool-beam_size",
             "string-beam_size", "bool-top_p", "list-kind", "fractional-string-form"],
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
            # Each was read as 1: order 1, add_k 1.0 and probability 1.0.
            ({"kind": "train", "corpus": "absent.txt", "order": True}, r"model: order must be an integer, got True"),
            ({"kind": "train", "corpus": "absent.txt", "add_k": True}, r"model: add_k must be a number, got True"),
            ({"kind": "tabular", "entries": [["a b", True]]},
             r"model: entries\[0\]: probability must be a number, got True"),
            # The paths were read as "None" and "5".
            ({"kind": "train", "corpus": None}, r"model: corpus must be a string, got None"),
            ({"kind": "load", "path": 5}, r"model: path must be a string, got 5"),
            ({"kind": ["train"], "corpus": "absent.txt"}, r"model: unknown model kind \['train'\]"),
        ],
        ids=["null-add_k", "list-add_k", "null-probability", "list-probability", "nan-probability",
             "inf-probability", "triple-entry", "numeric-text", "bool-order", "bool-add_k", "bool-probability",
             "null-corpus", "number-path", "list-kind"],
    )
    def test_bad_model_number(self, tmp_path, capsys, model, message):
        self._fails(self._config(tmp_path, model=model), message, capsys)

    @pytest.mark.parametrize(
        "metrics, message",
        [
            ({"copy_threshold": None}, r"metrics: copy_threshold must be a number, got None"),
            ({"copy_threshold": "half"}, r"metrics: copy_threshold must be a number, got 'half'"),
            ({"copy_threshold": math.nan}, r"metrics\.copy_threshold must be in \[0,1\], got nan"),
            ({"copy_threshold": True}, r"metrics: copy_threshold must be a number, got True"),  # was read as 1.0
            ({"bleu_max_n": True}, r"metrics: bleu_max_n must be an integer, got True"),  # was read as 1
            ({"bleu_max_n": "4"}, r"metrics: bleu_max_n must be an integer, got '4'"),  # was read as 4
        ],
        ids=["null", "word", "nan", "bool-copy_threshold", "bool-bleu_max_n", "string-bleu_max_n"],
    )
    def test_bad_metrics_number(self, tmp_path, capsys, metrics, message):
        self._fails(self._config(tmp_path, metrics=metrics), message, capsys)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"lowercase": "false"}, r"config: lowercase must be true or false, got 'false'"),  # was read as True
            ({"vote": {"contributions": "no"}}, r"select\[1\]: contributions must be true or false, got 'no'"),
            ({"vote": {"contributions": "false"}}, r"select\[1\]: contributions must be true or false, got 'false'"),
            ({"seed": True}, r"config: seed must be an integer, got True"),  # was read as 1
            ({"schema_version": True}, r"unsupported schema_version True"),  # was read as 1
            ({"workers": True}, r"config: workers must be an integer, got True"),
            # Was read as the path "None", and the others as "5", "None" and "7".
            ({"dataset": None}, r"config: dataset must be a string, got None"),
            ({"dataset": 5}, r"config: dataset must be a string, got 5"),
            ({"output_dir": None}, r"config: output_dir must be a string, got None"),
            ({"vote": {"name": 7}}, r"select\[1\]: name must be a string, got 7"),
        ],
        ids=["string-lowercase", "no-contributions", "false-contributions", "bool-seed", "bool-schema_version",
             "bool-workers", "null-dataset", "number-dataset", "null-output_dir", "number-select-name"],
    )
    def test_bad_field_kind(self, tmp_path, capsys, fields, message):
        self._fails(self._config(tmp_path, **fields), message, capsys)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"decode": {"kind": "beam"}}, r"decode\[1\]: missing required field 'name'"),
            ({"dataset": ABSENT}, r"config: missing required field 'dataset'"),
            ({"model": {"kind": "train"}}, r"model: missing required field 'corpus'"),
        ],
        ids=["decode-name", "dataset", "train-corpus"],
    )
    def test_missing_required_field(self, tmp_path, capsys, fields, message):
        self._fails(self._config(tmp_path, **fields), message, capsys)

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
            index_corpus(["a b c d"], max_size=-1)
        assert index_corpus(["a b c d"], max_size=0)[0].tokens == ()

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

    # They were truncated: event 3.7 with count 1.5 loaded as event 3 with count 1, history [3.9] as (3,),
    # order 2.5 as 2.
    @pytest.mark.parametrize(
        "fields, counts, message",
        [
            ({}, [[[], [[3.7, 1.5], [4, 2]]]], "events and counts must be integers, got 3.7"),
            ({}, [[[], [[3, 1.5], [4, 2]]]], "events and counts must be integers, got 1.5"),
            ({"order": 2}, [[[3.9], [[3, 1]]]], r"history ids must be integers, got 3\.9"),
            ({"order": 2.5}, [[[3], [[3, 1]]]], r"order must be an integer, got 2\.5"),
            # Numeric strings were converted: ["3", "1"] loaded as event 3 with count 1, history ["3"] as (3,).
            ({}, [[[], [["3", "1"], [4, 2]]]], "events and counts must be integers, got '3'"),
            ({}, [[[], [[3, "1"], [4, 2]]]], "events and counts must be integers, got '1'"),
            ({"order": 2}, [[["3"], [[3, 1]]]], "history ids must be integers, got '3'"),
            # A bool among integers was read as 0 or 1: [3, true] loaded as event 3 with count 1.
            ({}, [[[], [[True, 1], [4, 2]]]], "events and counts must be integers, got True"),
            ({}, [[[], [[3, True], [4, 2]]]], "events and counts must be integers, got True"),
            ({"order": 2}, [[[3], [[3, 1]]], [[False], [[4, 1]]]], "history ids must be integers, got False"),
            ({}, [[[], [[3, 2.0], [4, False]]]], "events and counts must be integers, got False"),
            # A bool order or add_k was read as 1: "order": true loaded as order 1, "add_k": true as add_k 1.0.
            ({"order": True}, [[[], [[3, 1]]]], "order must be an integer, got True"),
            ({"add_k": True}, [[[], [[3, 1]]]], "add_k must be a number, got True"),
        ],
        ids=["event", "count", "history", "order", "event-string", "count-string", "history-string", "event-bool",
             "count-bool", "history-bool", "count-bool-among-floats", "order-bool", "add_k-bool"],
    )
    def test_load_model_refuses_a_fraction(self, tmp_path, capsys, fields, counts, message):
        payload = {"format": "votedecode-ngram-lm", "version": 1, "vocab": ["a", "b"], "order": 1, "add_k": 0.0,
                   "counts": counts, **fields}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError, match=message):
            load_model(io.StringIO(path.read_text(encoding="utf-8")))
        assert main(["oracle", "map", "--model", str(path), "--max-len", "3"]) == 3
        assert re.search(message, capsys.readouterr().err)

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

    # An int entry crashed the CLI with an AttributeError traceback (exit 1); a string split into its
    # characters and was refused as "duplicate vocabulary token: 'a'".
    @pytest.mark.parametrize(
        "vocab, message",
        [
            (["a", 3], "vocabulary token must be a string: 3"),
            (["a", ["b"]], "vocabulary token must be a string: ['b']"),
            ("aab", "vocab must be a list of strings, got str"),
            ({"a": 1}, "vocab must be a list of strings, got dict"),
            (None, "vocab must be a list of strings, got NoneType"),
        ],
        ids=["int-entry", "list-entry", "string", "object", "null"],
    )
    def test_load_model_refuses_a_malformed_vocab(self, tmp_path, capsys, vocab, message):
        payload = {"format": "votedecode-ngram-lm", "version": 1, "vocab": vocab, "order": 1, "add_k": 0.5,
                   "counts": [[[], [[3, 1]]]]}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_model(io.StringIO(path.read_text(encoding="utf-8")))
        write_lines(tmp_path / "d.jsonl", [json.dumps({"id": 1, "source": "a"})])
        record = {"id": "r1", "candidates": [{"tokens": ["a"], "logprob": -1.0}]}
        cands = write_lines(tmp_path / "c.jsonl", [json.dumps(record)])
        model = ["--model", str(path), "--max-len", "3"]
        for argv in (["decode", "--dataset", str(tmp_path / "d.jsonl"), "--out", str(tmp_path / "out.jsonl")],
                     ["vote", "--candidates", str(cands), "--voters", "beam:2", "--sim", "overl", "--n", "1",
                      "--out", str(tmp_path / "out.jsonl")]):
            assert main(argv + model) == 3
            assert message in capsys.readouterr().err
            assert not (tmp_path / "out.jsonl").exists()

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

    # 5.0 was voted on with a score of exp(5) = 148.41; 1000.0 overflowed math.exp in range_vote (a traceback, exit 1).
    @pytest.mark.parametrize("logprob", [5.0, 1000.0])
    def test_a_positive_log_probability_is_refused_before_the_votes_file_is_touched(self, tmp_path, capsys, logprob):
        cands = write_lines(tmp_path / "c.jsonl", [candidates_line(1, -1.0), candidates_line(2, logprob)])
        out = tmp_path / "votes.jsonl"
        out.write_text("old votes\n")
        assert main(["vote", "--candidates", str(cands), "--sim", "overl", "--n", "1", "--out", str(out)]) == 3
        assert f"validation error: {cands}:2: log-probability must be finite and <= 0" in capsys.readouterr().err
        assert out.read_text() == "old votes\n"

    @pytest.mark.parametrize(
        "fields",
        [{"ranked": 7}, {"ranked": [{**GOOD, "score": 0.5}], "contributions": [5]},
         {"ranked": [{**GOOD, "score": None}]},
         # Each was read although no writer emits NaN or Infinity.
         {"ranked": [{**GOOD, "score": math.nan}]}, {"ranked": [{**GOOD, "score": -math.inf}]},
         {"ranked": [{**GOOD, "score": 0.5}], "contributions": [[math.inf]]},
         {"ranked": [{**GOOD, "score": 0.5}], "contributions": [[0.5, math.nan]]}],
        ids=["number-ranked", "number-contribution-row", "null-score", "nan-score", "minus-inf-score",
             "inf-contribution", "nan-contribution"],
    )
    def test_eval_of_a_votes_file(self, tmp_path, capsys, fields):
        dataset = write_lines(tmp_path / "d.jsonl", [dataset_line(1), dataset_line(2)])
        votes = write_lines(tmp_path / "v.jsonl", [votes_line(1, -1.0), json.dumps({"id": 2, **fields})])
        report = tmp_path / "report.tsv"
        assert main(["eval", "--hyps", str(votes), "--dataset", str(dataset), "--out-tsv", str(report)]) == 3
        assert f"validation error: {votes}:2: " in capsys.readouterr().err
        assert not report.exists()


    def test_eval_of_a_dataset_without_references(self, tmp_path, capsys):
        # Was refused only at scoring, as "every segment needs at least one reference", naming no file.
        dataset = write_lines(tmp_path / "d.jsonl", [dataset_line(1), json.dumps({"id": 2, "references": []})])
        hyps = write_lines(tmp_path / "h.jsonl", [candidates_line(1, -1.0), candidates_line(2, -1.0)])
        report = tmp_path / "report.tsv"
        assert main(["eval", "--hyps", str(hyps), "--dataset", str(dataset), "--out-tsv", str(report)]) == 3
        assert f"{dataset}:2: 'references' must be a non-empty list of strings" in capsys.readouterr().err
        assert not report.exists()


# A 400-digit JSON integer has no float: converting it raised OverflowError, a traceback and exit 1.
HUGE = 10**400


class TestIntegersNoFloatHolds:
    """An integer past the float range is refused by the input-value rule, naming ``path:line``, before any output."""

    def test_vote_on_a_candidates_logprob(self, tmp_path, capsys):
        cands = write_lines(tmp_path / "c.jsonl", [candidates_line(1, -1.0), candidates_line(2, -HUGE)])
        out = tmp_path / "votes.jsonl"
        assert main(["vote", "--candidates", str(cands), "--sim", "overl", "--n", "1", "--out", str(out)]) == 3
        assert f"validation error: {cands}:2: logprob must be a number, got -{HUGE}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"ranked": [{"tokens": ["a"], "logprob": -1.0, "score": -HUGE}]}, f"score must be a number, got -{HUGE}"),
            ({"ranked": [{"tokens": ["a"], "logprob": -1.0, "score": 0.5}], "contributions": [[0.5, HUGE]]},
             f"a contribution must be a number, got {HUGE}"),
        ],
        ids=["score", "contribution"],
    )
    def test_eval_of_a_votes_file(self, tmp_path, capsys, fields, message):
        dataset = write_lines(tmp_path / "d.jsonl", [dataset_line(1), dataset_line(2)])
        votes = write_lines(tmp_path / "v.jsonl", [votes_line(1, -1.0), json.dumps({"id": 2, **fields})])
        report = tmp_path / "report.tsv"
        assert main(["eval", "--hyps", str(votes), "--dataset", str(dataset), "--out-tsv", str(report)]) == 3
        assert f"validation error: {votes}:2: {message}" in capsys.readouterr().err
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

    def test_eval_keys_a_bool_id_apart_from_the_number(self, tmp_path, capsys):
        # Hypothesis 1 was scored against the references of the dataset's id true: BLEU-1 1.0, exit 0.
        dataset = write_lines(tmp_path / "d.jsonl", [dataset_line(True)])
        hyps = write_lines(tmp_path / "h.jsonl", [candidates_line(1, -1)])
        assert main(["eval", "--hyps", str(hyps), "--dataset", str(dataset)]) == 3
        assert f"{dataset}: no record for input 1" in capsys.readouterr().err

    def test_eval_compare(self, files, capsys):
        dataset, _, cands, short = files
        assert main(["eval", "--hyps", str(cands), "--dataset", str(dataset), "--compare", str(short),
                     "--n-bootstrap", "5"]) == 3
        captured = capsys.readouterr()
        assert f"{short}: no record for input 'two'" in captured.err
        assert captured.out == ""


class TestBlankAndUnparsableLines:
    """Records and vector files through `vote`: a blank line is skipped; a file with nothing else, a line that is
    not JSON and a token without components each exit 3, naming the file, before the votes file is written."""

    RECORDS = [candidates_line(1, -0.5), candidates_line(2, -1)]
    VECTORS = "a 1 0\nb 0 1\n"

    @staticmethod
    def vote(workdir, lines, vectors=None):
        """`vote` on the candidates ``lines``, by `embed_cosine` over the vector file text ``vectors`` if given."""
        workdir.mkdir()
        argv = ["vote", "--candidates", str(write_lines(workdir / "c.jsonl", lines)), "--out",
                str(workdir / "votes.jsonl")]
        if vectors is None:
            argv += ["--sim", "overl", "--n", "1"]
        else:
            (workdir / "vec.txt").write_text(vectors, encoding="utf-8")
            argv += ["--sim", "embed_cosine", "--vectors", str(workdir / "vec.txt")]
        return main(argv)

    @pytest.mark.parametrize("lines, vectors", [
        pytest.param([RECORDS[0], "", "  ", RECORDS[1]], None, id="records"),
        pytest.param(RECORDS, "a 1 0\n\n \nb 0 1\n", id="vectors"),
    ])
    def test_a_blank_line_is_skipped(self, tmp_path, lines, vectors):
        assert self.vote(tmp_path / "blank", lines, vectors) == 0
        assert self.vote(tmp_path / "plain", self.RECORDS, None if vectors is None else self.VECTORS) == 0
        assert (tmp_path / "blank" / "votes.jsonl").read_bytes() == (tmp_path / "plain" / "votes.jsonl").read_bytes()

    # (candidates lines, vector file text, the file at fault, the error after its name)
    @pytest.mark.parametrize("lines, vectors, name, message", [
        pytest.param(["", "  ", "\t"], None, "c.jsonl", ": no candidate records", id="blank-records"),
        pytest.param([RECORDS[0], '{"id": 2,'], None, "c.jsonl", ":2: not valid JSON", id="not-json"),
        pytest.param(RECORDS, "a 1 0\nb\n", "vec.txt", ":2: token 'b' has no vector components", id="no-components"),
        pytest.param(RECORDS, "", "vec.txt", ": empty vector file", id="empty-vectors"),
    ])
    def test_a_file_that_cannot_be_read_exits_3(self, tmp_path, capsys, lines, vectors, name, message):
        assert self.vote(tmp_path / "w", lines, vectors) == 3
        assert f"{tmp_path / 'w' / name}{message}" in capsys.readouterr().err
        assert not (tmp_path / "w" / "votes.jsonl").exists()
