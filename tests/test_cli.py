"""Commands driven through `cli.main`: flags files, the oracle group, reserved markers in votes, refused inputs,
`eval --metric` columns and `embed_cosine` vector files."""

import json
import math

import pytest

from votedecode.cli import main
from votedecode.formats import read_vector_file, read_votes, vectors_for_vocab
from votedecode.oracle import enumerate_distribution, exact_vote
from votedecode.sequences import Vocabulary
from votedecode.voting import SimilaritySpec, embed_cosine_sim

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


def flag_argv(flags):
    """The command-line form of a flags-file object."""
    argv = []
    for key, value in flags.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            argv.append(flag if value else "--no-" + key.replace("_", "-"))
        elif isinstance(value, list):
            argv += [flag, *map(str, value)]
        else:
            argv += [flag, str(value)]
    return argv


# (command, flags, flag naming each file the command writes, flag overridden by the command line, file's value)
FLAG_CASES = {
    "train": ("train", {"corpus": "corpus.txt", "order": 3, "add_k": 0.25, "max_vocab": 4, "lowercase": True},
              ["out"], "lowercase", False),
    "decode-beam": ("decode", {"tabular": "toy.json", "dataset": "data.jsonl", "strategy": "beam", "beam_size": 3,
                               "max_len": 6, "scoring": "length_normalized", "diverse_gamma": 0.5,
                               "filter_copies": 0.9},
                    ["out"], "beam_size", 2),
    "decode-nucleus": ("decode", {"tabular": "toy.json", "dataset": "data.jsonl", "strategy": "nucleus", "count": 5,
                                  "top_p": 0.8, "max_len": 6, "seed": 7},
                       ["out"], "seed", 0),
    "vote": ("vote", {"candidates": "cands.jsonl", "voters": "beam:4", "tabular": "toy.json", "sim": "prec", "n": 1,
                      "contributions": True, "max_len": 6},
             ["out"], "n", 2),
    "eval": ("eval", {"hyps": "cands.jsonl", "dataset": "data.jsonl", "system": "sys", "metric": "bleu", "max_n": 2,
                      "copy_threshold": 0.3, "lowercase": True},
             ["out_tsv", "out_json"], "max_n", 4),
    "eval-compare": ("eval", {"hyps": "other.jsonl", "dataset": "data.jsonl", "compare": "cands.jsonl",
                              "lowercase": True, "max_n": 2, "n_bootstrap": 50, "seed": 3},
                     [], "n_bootstrap", 7),
    "eval-sign-test": ("eval", {"sign_test": [9, 2]}, [], "sign_test", [5, 1]),
}


class TestFlagFiles:
    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "corpus.txt").write_text("The Cat sat\nthe dog ran home\na cat ran\n", encoding="utf-8")
        (tmp_path / "toy.json").write_text(json.dumps({"entries": FIXTURE5}), encoding="utf-8")
        rows = [{"id": 1, "source": "the tall man", "references": ["The tall man runs fast"]},
                {"id": 2, "source": "ok", "references": ["ok then"]},
                {"id": 3, "source": "ok", "references": ["ok"]}]
        (tmp_path / "data.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        for name, scoring in (("cands.jsonl", "logprob"), ("other.jsonl", "length_normalized")):
            assert main(["decode", "--tabular", "toy.json", "--dataset", "data.jsonl", "--beam-size", "4",
                         "--scoring", scoring, "--max-len", "6", "--out", name]) == 0
        return tmp_path

    def run(self, capsys, tag, outputs, argv):
        """Run one command writing to ``tag``-named files; return its stdout (if nothing is written) and files."""
        out_flags = {key: f"{tag}.{key}" for key in outputs}
        assert main([*argv, *flag_argv(out_flags)]) == 0
        stdout = capsys.readouterr().out
        return ("" if outputs else stdout), [open(path, "rb").read() for path in out_flags.values()]

    def write_flags(self, name, flags):
        with open(name, "w", encoding="utf-8") as fp:
            json.dump(flags, fp)
        return ["--config", name]

    @pytest.mark.parametrize("case", sorted(FLAG_CASES))
    def test_a_flags_file_equals_the_same_flags(self, workdir, capsys, case):
        command, flags, outputs, _, _ = FLAG_CASES[case]
        typed = self.run(capsys, "typed", outputs, [command, *flag_argv(flags)])
        assert typed == self.run(capsys, "file", outputs, [command, *self.write_flags("f.json", flags)])

    @pytest.mark.parametrize("case", sorted(FLAG_CASES))
    def test_an_explicit_flag_overrides_the_file(self, workdir, capsys, case):
        command, flags, outputs, key, file_value = FLAG_CASES[case]
        typed = self.run(capsys, "typed", outputs, [command, *flag_argv(flags)])
        config = self.write_flags("f.json", {**flags, key: file_value})
        assert self.run(capsys, "file", outputs, [command, *config]) != typed  # the file's own value matters
        assert self.run(capsys, "both", outputs, [command, *config, *flag_argv({key: flags[key]})]) == typed

    def test_the_string_false_does_not_lowercase(self, workdir):
        config = self.write_flags("f.json", {"corpus": "corpus.txt", "out": "m.json", "lowercase": "false"})
        assert main(["train", *config]) == 0
        assert "The" in json.loads((workdir / "m.json").read_text(encoding="utf-8"))["vocab"]

    def test_a_bad_value_is_checked_like_the_flag(self, workdir, capsys):
        config = self.write_flags("f.json", {"corpus": "corpus.txt", "out": "m.json", "order": "abc"})
        assert main(["train", *config]) == 1
        assert "'--order'" in capsys.readouterr().err
        assert not (workdir / "m.json").exists()

    def test_null_keeps_the_default_and_unknown_keys_are_ignored(self, workdir, capsys):
        typed = self.run(capsys, "typed", ["out"], ["train", "--corpus", "corpus.txt"])
        config = self.write_flags("f.json", {"corpus": "corpus.txt", "order": None, "sim": "bleu"})
        assert self.run(capsys, "file", ["out"], ["train", *config]) == typed

    @pytest.mark.parametrize("text, code", [("{", 3), ("[1, 2]", 3), (None, 2)])
    def test_unreadable_files(self, workdir, text, code):
        if text is not None:
            (workdir / "f.json").write_text(text, encoding="utf-8")
        assert main(["train", "--config", "f.json", "--corpus", "corpus.txt", "--out", "m.json"]) == code
        assert not (workdir / "m.json").exists()


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


    @pytest.mark.parametrize("budget", ["0", "-1"])
    @pytest.mark.parametrize("command", [["enumerate"], ["map"], ["vote-winner", "--sim", "overl", "--n", "1"]])
    def test_a_budget_below_one_is_rejected_before_enumerating(self, tabular, tmp_path, capsys, command, budget):
        out = tmp_path / "enum.jsonl"
        extra = ["--out", str(out)] if command == ["enumerate"] else []
        argv = ["oracle", command[0], "--tabular", str(tabular), "--max-len", str(MAX_LEN), "--budget", budget,
                *command[1:], *extra]
        assert main(argv) == 3
        assert f"node budget must be >= 1, got {budget}" in capsys.readouterr().err
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
    assert not (tmp_path / "out").exists()


def test_an_empty_decode_command_exits_3_without_writing(tmp_path, capsys):
    (tmp_path / "toy.json").write_text(json.dumps({"entries": [["a", 1.0]]}), encoding="utf-8")
    (tmp_path / "d.jsonl").write_text(json.dumps({"id": 1, "source": "a", "references": ["a"]}) + "\n")
    out = tmp_path / "c.jsonl"
    assert main(["decode", "--tabular", str(tmp_path / "toy.json"), "--dataset", str(tmp_path / "d.jsonl"),
                 "--beam-size", "2", "--max-len", "3", "--filter-copies", "0.0", "--out", str(out)]) == 3
    assert "decode 'decode' left no candidates for input 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("max_n", ["0", "-2"])
def test_eval_refuses_a_bleu_order_below_one(tmp_path, capsys, max_n):
    (tmp_path / "d.jsonl").write_text(json.dumps({"id": 1, "references": ["a b"]}) + "\n")
    hyps = tmp_path / "h.jsonl"
    hyps.write_text(json.dumps({"id": 1, "candidates": [{"tokens": ["a", "b"], "logprob": -1.0}]}) + "\n")
    out = tmp_path / "r.tsv"
    assert main(["eval", "--hyps", str(hyps), "--dataset", str(tmp_path / "d.jsonl"), "--max-n", max_n,
                 "--out-tsv", str(out)]) == 3
    assert "max_n must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def write_dataset(path):
    rows = [{"id": 1, "source": "the tall man", "references": ["the tall man runs fast"]},
            {"id": 2, "source": "ok", "references": ["ok then", "the man sprints"]}]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    return path


class TestEvalMetricGroups:
    """`eval --metric` writes "system" and its group's columns, with the values of the full report."""

    GROUPS = {
        "all": ["bleu_1", "bleu_2", "bleu_3", "avg_length", "distinct_sequences", "distinct_unigrams",
                "distinct_bigrams", "exact_copy_rate", "partial_copy_rate"],
        "bleu": ["bleu_1", "bleu_2", "bleu_3"],
        "length": ["avg_length"],
        "distinct": ["distinct_sequences", "distinct_unigrams", "distinct_bigrams"],
        "copies": ["exact_copy_rate", "partial_copy_rate"],
    }

    @pytest.mark.parametrize("metric", sorted(GROUPS))
    def test_columns_and_values(self, tabular, tmp_path, capsys, metric):
        dataset = write_dataset(tmp_path / "d.jsonl")
        cands = tmp_path / "c.jsonl"
        assert main(["decode", "--tabular", str(tabular), "--dataset", str(dataset), "--beam-size", "3",
                     "--max-len", str(MAX_LEN), "--out", str(cands)]) == 0
        argv = ["eval", "--hyps", str(cands), "--dataset", str(dataset), "--max-n", "3"]
        assert main(argv + ["--out-json", str(tmp_path / "full.json")]) == 0
        full = json.loads((tmp_path / "full.json").read_text(encoding="utf-8"))[0]
        capsys.readouterr()
        assert main(argv + ["--metric", metric]) == 0
        header, values = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert header == ["system", *self.GROUPS[metric]]
        assert values == ["c", *(repr(full[col]) for col in self.GROUPS[metric])]


class TestEmbedCosineVectors:
    """Votes by `embed_cosine` read the vector file, and score each pair by `embed_cosine_sim` over its vectors."""

    @pytest.fixture
    def vectors(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("the 1 0 0\ntall 0 1 0\nman 0 0 1\nruns 1 1 0\nfast 0.5 -1 2\nok -1 0 1\n", encoding="utf-8")
        return path

    @staticmethod
    def pairwise_scores(ranked, vectors_path):
        """Every ranked entry's score recomputed with every entry voting: P(v) * sim(v, c), summed over v."""
        vocab = Vocabulary(tokens=tuple(sorted({token for tokens, _, _ in ranked for token in tokens})))
        vectors = vectors_for_vocab(read_vector_file(vectors_path), vocab)
        seqs = [tuple(map(vocab.id_of, tokens)) for tokens, _, _ in ranked]
        top = max(logprob for _, logprob, _ in ranked)
        weights = [math.exp(logprob - top) for _, logprob, _ in ranked]
        return [math.exp(top) * math.fsum(w * embed_cosine_sim(v, c, vectors) for w, v in zip(weights, seqs))
                for c in seqs]

    def test_vote(self, tabular, tmp_path, vectors):
        dataset = write_dataset(tmp_path / "d.jsonl")
        cands, out = tmp_path / "c.jsonl", tmp_path / "votes.jsonl"
        assert main(["decode", "--tabular", str(tabular), "--dataset", str(dataset), "--beam-size", "5",
                     "--max-len", str(MAX_LEN), "--out", str(cands)]) == 0
        assert main(["vote", "--candidates", str(cands), "--sim", "embed_cosine", "--vectors", str(vectors),
                     "--out", str(out)]) == 0
        for rec in read_votes(out):
            assert len(rec.ranked) == 5
            assert [score for _, _, score in rec.ranked] == self.pairwise_scores(rec.ranked, vectors)

    def test_run(self, tmp_path, vectors):
        write_dataset(tmp_path / "d.jsonl")
        config = {
            "schema_version": 1,
            "model": {"kind": "tabular", "entries": FIXTURE5},
            "dataset": "d.jsonl",
            "decode": [{"name": "beam", "kind": "beam", "beam_size": 5, "max_len": MAX_LEN}],
            "select": [{"name": "cos", "kind": "vote", "sim": {"kind": "embed_cosine", "vectors": vectors.name}}],
            "output_dir": "out",
        }
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(tmp_path / "config.json")]) == 0
        for rec in read_votes(tmp_path / "out" / "votes" / "beam+cos.jsonl"):
            assert len(rec.ranked) == 5
            assert [score for _, _, score in rec.ranked] == self.pairwise_scores(rec.ranked, vectors)

    def test_vote_without_vectors_exits_1(self, tmp_path, capsys):
        cands = tmp_path / "c.jsonl"
        cands.write_text(json.dumps({"id": 1, "candidates": [{"tokens": ["ok"], "logprob": -1.0}]}) + "\n")
        out = tmp_path / "votes.jsonl"
        assert main(["vote", "--candidates", str(cands), "--sim", "embed_cosine", "--out", str(out)]) == 1
        assert "--sim embed_cosine needs --vectors FILE" in capsys.readouterr().err
        assert not out.exists()
