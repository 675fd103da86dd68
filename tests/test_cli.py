"""Commands driven through `cli.main`: flags files, the oracle group, reserved markers in votes, refused inputs,
`eval --metric` columns and `embed_cosine` vector files."""

import io
import json
import math
from pathlib import Path

import pytest

from votedecode import cli, harness
from votedecode.cli import main
from votedecode.formats import read_candidates, read_vector_file, read_votes, write_candidates
from votedecode.oracle import enumerate_distribution, exact_vote
from votedecode.sequences import Vocabulary, detokenize
from votedecode.voting import SimilaritySpec

from conftest import FIXTURE5, model_from_texts, pairwise_sim

MAX_LEN = 6
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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

    # (command, the file's bad entry as JSON text, the flag the error names)
    @pytest.mark.parametrize("command, entry, flag", [
        pytest.param("train", '"order": "abc"', "--order", id="string"),
        pytest.param("train", '"order": true', "--order", id="bool"),  # not 1
        pytest.param("train", '"order": 2.5', "--order", id="fraction"),  # not 2
        pytest.param("train", '"order": 1e400', "--order", id="overflow"),  # not an OverflowError
        pytest.param("eval", '"sign_test": [3, true]', "--sign-test", id="bool-item"),
    ])
    def test_a_bad_value_is_checked_like_the_flag(self, workdir, capsys, command, entry, flag):
        (workdir / "f.json").write_text(f'{{"corpus": "corpus.txt", "out": "m.json", {entry}}}', encoding="utf-8")
        assert main([command, "--config", "f.json"]) == 1
        out, err = capsys.readouterr()
        assert f"'{flag}'" in err
        assert out == ""
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
        assert winner["sequence"] == detokenize(result.winner.tokens, vocab)
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

    @pytest.mark.parametrize("floor", ["nan", "inf", "2", "-1"])
    def test_a_floor_outside_0_1_exits_3(self, tabular, tmp_path, capsys, floor):
        out = tmp_path / "enum.jsonl"
        argv = ["oracle", "enumerate", "--tabular", str(tabular), "--max-len", str(MAX_LEN), "--floor", floor,
                "--out", str(out)]
        assert main(argv) == 3
        assert "prob_floor must be in [0, 1], got" in capsys.readouterr().err
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


class TestOneCrossing:
    """Each token crosses between string and id once per command; later records reuse its strings."""

    @pytest.mark.parametrize("voters", ["same", "file"])
    def test_a_file_fed_vote_maps_no_id_back(self, tabular, tmp_path, monkeypatch, voters):
        dataset, cands = write_dataset(tmp_path / "d.jsonl"), tmp_path / "c.jsonl"
        assert main(["decode", "--tabular", str(tabular), "--dataset", str(dataset), "--beam-size", "4",
                     "--max-len", str(MAX_LEN), "--out", str(cands)]) == 0
        flag = "same" if voters == "same" else f"file:{cands}"
        argv = ["vote", "--candidates", str(cands), "--voters", flag, "--sim", "bleu", "--contributions"]
        assert main([*argv, "--out", str(tmp_path / "plain.jsonl")]) == 0

        def refuse(seq, vocab):
            raise AssertionError(f"ids {seq} mapped back to strings")

        monkeypatch.setattr(harness, "surface_tokens", refuse)
        assert main([*argv, "--out", str(tmp_path / "patched.jsonl")]) == 0
        assert (tmp_path / "patched.jsonl").read_bytes() == (tmp_path / "plain.jsonl").read_bytes()

    def test_a_run_maps_each_decoded_candidate_and_voter_once(self, tmp_path, monkeypatch):
        config = json.loads((CONFIGS / "toy_vote_split.json").read_text(encoding="utf-8"))
        config["select"].append({"name": "beam3", "kind": "vote", "sim": {"kind": "bleu"}, "voters": "beam:3"})
        config["dataset"] = str(CONFIGS / "toy_dataset.jsonl")
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        conversions, surface_tokens = [], harness.surface_tokens

        def counted(seq, vocab):
            conversions.append(seq)
            return surface_tokens(seq, vocab)

        monkeypatch.setattr(harness, "surface_tokens", counted)
        out = tmp_path / "out"
        assert main(["run", "--config", str(tmp_path / "config.json"), "--output-dir", str(out)]) == 0
        decoded = [*read_candidates(out / "candidates" / "beam5.jsonl"),
                   *read_candidates(out / "voters" / "beam5+beam3.jsonl")]
        assert len(conversions) == sum(len(rec.candidates) for rec in decoded)


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


def test_empty_voters_exit_3_naming_the_selection_and_the_input(tmp_path, capsys):
    source = "the tall man runs fast sprints quickly is running"
    (tmp_path / "d.jsonl").write_text(json.dumps({"id": 4, "source": source, "references": ["ok"]}) + "\n")
    config = {
        "schema_version": 1,
        "model": json.loads((CONFIGS / "toy_vote_split.json").read_text(encoding="utf-8"))["model"],
        "dataset": "d.jsonl",
        # "ok" survives the copy filter in the beam of 5, but the beam of 1 keeps only copies of the source.
        "decode": [{"name": "beam5", "kind": "beam", "beam_size": 5, "max_len": 8, "filter_copies": 0.5}],
        "select": [{"name": "greedy", "kind": "vote", "sim": {"kind": "overl", "n": 1}, "voters": "beam:1"}],
        "output_dir": "out",
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", str(tmp_path / "config.json")]) == 3
    assert "selection 'beam5+greedy' left no voters for input 4" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_refuses_an_output_directory_that_holds_a_file(tmp_path, capsys):
    # beam5, then beam3, into one directory used to leave beam5's files beside a report listing only beam3.
    config = json.loads((CONFIGS / "toy_vote_split.json").read_text(encoding="utf-8"))
    config["dataset"] = str(CONFIGS / "toy_dataset.jsonl")
    out = tmp_path / "toy"
    out.mkdir()  # an empty directory is taken
    for name, size, code in [("beam5", 5, 0), ("beam3", 3, 3)]:
        config["decode"] = [{"name": name, "kind": "beam", "beam_size": size, "max_len": 8}]
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(tmp_path / "config.json"), "--output-dir", str(out)]) == code
    assert f"output directory {out} already holds 'candidates'" in capsys.readouterr().err
    assert sorted(p.name for p in (out / "candidates").iterdir()) == ["beam5.jsonl"]
    assert [row["system"] for row in json.loads((out / "report.json").read_text())] == ["beam5+map", "beam5+overl1"]


def test_a_reused_output_directory_is_refused_before_the_model_is_built(tmp_path, capsys):
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "stale.txt").write_text("")
    config = {
        "schema_version": 1,
        "model": {"kind": "load", "path": "missing.json"},
        "dataset": "missing.jsonl",
        "decode": [{"name": "b", "kind": "beam"}],
        "select": [{"name": "map", "kind": "map"}],
        "output_dir": "out",
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", str(tmp_path / "config.json")]) == 3
    assert "already holds 'stale.txt'" in capsys.readouterr().err


def toy_run_argv(tmp_path, out):
    config = json.loads((CONFIGS / "toy_vote_split.json").read_text(encoding="utf-8"))
    config["dataset"] = str(CONFIGS / "toy_dataset.jsonl")
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return ["run", "--config", str(tmp_path / "config.json"), "--output-dir", str(out)]


def test_an_output_path_that_is_a_file_is_refused_before_the_model_is_built(tmp_path, capsys, monkeypatch):
    # The whole grid used to be decoded and voted before out.mkdir failed with "File exists" (exit 2).
    out = tmp_path / "taken"
    out.write_text("keep")
    monkeypatch.setattr(harness, "build_model", lambda *args: pytest.fail("the model was built"))
    assert main(toy_run_argv(tmp_path, out)) == 3
    assert f"output directory {out} exists and is not a directory" in capsys.readouterr().err
    assert out.read_text() == "keep"


@pytest.mark.parametrize("existing", [False, True], ids=["new", "empty"])
def test_a_run_that_fails_part_way_through_writing_leaves_no_tree(tmp_path, capsys, monkeypatch, existing):
    out = tmp_path / "runs" / "toy"
    if existing:
        out.mkdir(parents=True)
    written = []

    def write_then_fail(records, fp):
        written.append(fp.name)
        if len(written) == 2:
            raise OSError("No space left on device")
        write_candidates(records, fp)

    monkeypatch.setattr(harness, "write_candidates", write_then_fail)
    assert main(toy_run_argv(tmp_path, out)) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert len(written) == 2 and not Path(written[0]).exists()
    assert [p.name for p in out.parent.iterdir()] == (["toy"] if existing else [])
    assert not existing or not any(out.iterdir())


def test_a_run_into_an_empty_directory_replaces_it_with_the_usual_mode(tmp_path):
    out = tmp_path / "toy"
    out.mkdir()
    (tmp_path / "probe").mkdir()
    assert main(toy_run_argv(tmp_path, out)) == 0
    assert out.stat().st_mode == (tmp_path / "probe").stat().st_mode
    assert sorted(p.name for p in out.iterdir()) == ["candidates", "report.json", "report.tsv", "selections", "votes"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "probe", "toy"]


# The writer each single-file output goes through, patched by its name in `cli`, and the command writing to `out`.
WRITE_CASES = {
    "train": ("save_model", lambda out: ["train", "--corpus", "corpus.txt", "--out", out]),
    "decode": ("write_candidates", lambda out: ["decode", "--tabular", "toy.json", "--dataset", "data.jsonl",
                                                "--beam-size", "3", "--max-len", "6", "--out", out]),
    "vote": ("write_votes", lambda out: ["vote", "--candidates", "cands.jsonl", "--sim", "overl", "--n", "1",
                                         "--out", out]),
    "eval-tsv": ("write_report_tsv", lambda out: ["eval", "--hyps", "cands.jsonl", "--dataset", "data.jsonl",
                                                  "--out-tsv", out]),
    "eval-json": ("write_report_json", lambda out: ["eval", "--hyps", "cands.jsonl", "--dataset", "data.jsonl",
                                                    "--out-json", out]),
    "oracle-enumerate": ("write_enumeration", lambda out: ["oracle", "enumerate", "--tabular", "toy.json",
                                                           "--max-len", "6", "--out", out]),
}


class TestWriteRule:
    """Every single-file output is staged and renamed into place, as `run`'s tree is."""

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "corpus.txt").write_text("the cat sat\nthe dog ran\n", encoding="utf-8")
        (tmp_path / "toy.json").write_text(json.dumps({"entries": FIXTURE5}), encoding="utf-8")
        write_dataset(tmp_path / "data.jsonl")
        assert main(WRITE_CASES["decode"][1]("cands.jsonl")) == 0
        (tmp_path / "outs").mkdir()
        return tmp_path / "outs"

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize("case", sorted(WRITE_CASES))
    def test_a_write_that_fails_part_way_leaves_the_target_as_it_was(self, workdir, capsys, monkeypatch, case,
                                                                      existing):
        name, argv = WRITE_CASES[case]
        writer = getattr(cli, name)

        def write_half_then_fail(*args):
            *head, fp = args
            buf = io.StringIO()
            writer(*head, buf)
            fp.write(buf.getvalue()[: len(buf.getvalue()) // 2])
            raise OSError("No space left on device")

        out = workdir / "target"
        if existing:
            out.write_text("old bytes\n")
        monkeypatch.setattr(cli, name, write_half_then_fail)
        assert main(argv(str(out))) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert [p.name for p in workdir.iterdir()] == (["target"] if existing else [])
        assert not existing or out.read_text() == "old bytes\n"

    def test_eval_replaces_neither_report_unless_both_writes_succeed(self, workdir, capsys, monkeypatch):
        writer = cli.write_report_json

        def write_half_then_fail(rows, fp):
            buf = io.StringIO()
            writer(rows, buf)
            fp.write(buf.getvalue()[: len(buf.getvalue()) // 2])
            raise OSError("No space left on device")

        tsv, json_out = workdir / "r.tsv", workdir / "r.json"
        tsv.write_text("old tsv\n")
        json_out.write_text("old json\n")
        monkeypatch.setattr(cli, "write_report_json", write_half_then_fail)
        argv = ["eval", "--hyps", "cands.jsonl", "--dataset", "data.jsonl", "--out-tsv", str(tsv),
                "--out-json", str(json_out)]
        assert main(argv) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert (tsv.read_text(), json_out.read_text()) == ("old tsv\n", "old json\n")
        assert sorted(p.name for p in workdir.iterdir()) == ["r.json", "r.tsv"]

    def test_eval_replaces_neither_report_when_one_target_is_a_directory(self, workdir, capsys):
        tsv, json_out = workdir / "r.tsv", workdir / "r.json"
        tsv.write_text("old tsv\n")
        json_out.mkdir()
        argv = ["eval", "--hyps", "cands.jsonl", "--dataset", "data.jsonl", "--out-tsv", str(tsv),
                "--out-json", str(json_out)]
        assert main(argv) == 2
        assert f"{json_out} is a directory" in capsys.readouterr().err
        assert tsv.read_text() == "old tsv\n" and list(json_out.iterdir()) == []
        assert sorted(p.name for p in workdir.iterdir()) == ["r.json", "r.tsv"]

    def test_a_symlinked_target_stays_a_link_to_the_replaced_file(self, workdir):
        assert main(WRITE_CASES["vote"][1]("outs/plain.jsonl")) == 0
        (workdir / "real.jsonl").write_text("old bytes\n")
        (workdir / "link.jsonl").symlink_to("real.jsonl")
        assert main(WRITE_CASES["vote"][1]("outs/link.jsonl")) == 0
        assert (workdir / "link.jsonl").is_symlink()
        assert (workdir / "real.jsonl").read_bytes() == (workdir / "plain.jsonl").read_bytes()
        assert sorted(p.name for p in workdir.iterdir()) == ["link.jsonl", "plain.jsonl", "real.jsonl"]

    def test_a_target_in_a_missing_directory_is_written_with_the_usual_mode(self, workdir):
        assert main(WRITE_CASES["vote"][1]("outs/plain.jsonl")) == 0
        out = workdir / "a" / "b" / "votes.jsonl"
        assert main(WRITE_CASES["vote"][1](str(out))) == 0
        assert out.read_bytes() == (workdir / "plain.jsonl").read_bytes()
        (workdir / "probe").mkdir()
        (workdir / "probe" / "file").write_text("")
        assert out.stat().st_mode == (workdir / "probe" / "file").stat().st_mode
        assert out.parent.stat().st_mode == (workdir / "probe").stat().st_mode
        assert [p.name for p in out.parent.iterdir()] == ["votes.jsonl"]


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


# They were accepted and rates reported; the run config refuses the same values as metrics.copy_threshold.
@pytest.mark.parametrize("threshold", ["2", "nan", "-1"])
def test_eval_refuses_a_copy_threshold_outside_0_1(tmp_path, capsys, threshold):
    (tmp_path / "d.jsonl").write_text(json.dumps({"id": 1, "source": "a b", "references": ["a b"]}) + "\n")
    hyps = tmp_path / "h.jsonl"
    hyps.write_text(json.dumps({"id": 1, "candidates": [{"tokens": ["a", "b"], "logprob": -1.0}]}) + "\n")
    out = tmp_path / "r.tsv"
    assert main(["eval", "--hyps", str(hyps), "--dataset", str(tmp_path / "d.jsonl"), "--metric", "copies",
                 "--copy-threshold", threshold, "--out-tsv", str(out)]) == 3
    assert "copy_threshold must be in [0,1]" in capsys.readouterr().err
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
    """Votes by `embed_cosine` read the vector file, and score each pair as the pairwise reference does over its vectors."""

    @pytest.fixture
    def vectors(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("the 1 0 0\ntall 0 1 0\nman 0 0 1\nruns 1 1 0\nfast 0.5 -1 2\nok -1 0 1\n", encoding="utf-8")
        return path

    @staticmethod
    def pairwise_scores(ranked, vectors_path):
        """Every ranked entry's score recomputed with every entry voting: P(v) * sim(v, c), summed over v."""
        vocab = Vocabulary(tokens=tuple(sorted({token for tokens, _, _ in ranked for token in tokens})))
        vectors = {vocab.id_of(token): vec for token, vec in read_vector_file(vectors_path).items() if token in vocab}
        seqs = [tuple(map(vocab.id_of, tokens)) for tokens, _, _ in ranked]
        top = max(logprob for _, logprob, _ in ranked)
        weights = [math.exp(logprob - top) for _, logprob, _ in ranked]
        sim = pairwise_sim(SimilaritySpec(kind="embed_cosine", vectors=vectors))
        return [math.exp(top) * math.fsum(w * sim(v, c) for w, v in zip(weights, seqs)) for c in seqs]

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

    def test_vote_keys_the_unk_vector(self, tmp_path):
        # The vector of <unk> was dropped: <unk> scored as the zero vector, 0 against every candidate.
        cands = tmp_path / "c.jsonl"
        cands.write_text(json.dumps({"id": 1, "candidates": [{"tokens": ["<unk>"], "logprob": 0.0},
                                                             {"tokens": ["ok"], "logprob": 0.0}]}) + "\n")
        vectors, out = tmp_path / "vectors.txt", tmp_path / "votes.jsonl"
        vectors.write_text("<unk> 1 0\nok 0 1\n", encoding="utf-8")
        assert main(["vote", "--candidates", str(cands), "--sim", "embed_cosine", "--vectors", str(vectors),
                     "--out", str(out)]) == 0
        # Each candidate: 1 from itself, 0.5 from the orthogonal other.
        assert [(tokens, score) for tokens, _, score in read_votes(out)[0].ranked] == [(("<unk>",), 1.5), (("ok",), 1.5)]

    @pytest.mark.parametrize("table, line", [("ok nan 1\n", 1), ("ok 1 0\nthe 0 inf\n", 2), ("ok -inf 1\n", 1)],
                             ids=["nan", "inf", "minus-inf"])
    def test_vote_refuses_a_non_finite_component(self, tmp_path, capsys, table, line):
        cands = tmp_path / "c.jsonl"
        cands.write_text(json.dumps({"id": 1, "candidates": [{"tokens": ["ok"], "logprob": -1.0}]}) + "\n")
        vectors, out = tmp_path / "vectors.txt", tmp_path / "votes.jsonl"
        vectors.write_text(table, encoding="utf-8")
        assert main(["vote", "--candidates", str(cands), "--sim", "embed_cosine", "--vectors", str(vectors),
                     "--out", str(out)]) == 3
        assert f"{vectors}:{line}: token" in capsys.readouterr().err
        assert not out.exists()

    def test_vote_refuses_a_token_listed_twice(self, tmp_path, capsys):
        # The last vector of a repeated token was kept silently.
        cands = tmp_path / "c.jsonl"
        cands.write_text(json.dumps({"id": 1, "candidates": [{"tokens": ["ok"], "logprob": -1.0}]}) + "\n")
        vectors, out = tmp_path / "vectors.txt", tmp_path / "votes.jsonl"
        vectors.write_text("ok 1 0\nthe 1 1\nok 0 1\n", encoding="utf-8")
        assert main(["vote", "--candidates", str(cands), "--sim", "embed_cosine", "--vectors", str(vectors),
                     "--out", str(out)]) == 3
        assert f"{vectors}:3: token 'ok' is listed twice, first on line 1" in capsys.readouterr().err
        assert not out.exists()

    def test_run_reads_the_vector_file_once(self, tmp_path, vectors, monkeypatch):
        # It was read again, and keyed again, for every decode entry.
        write_dataset(tmp_path / "d.jsonl")
        config = {
            "schema_version": 1,
            "model": {"kind": "tabular", "entries": FIXTURE5},
            "dataset": "d.jsonl",
            "decode": [{"name": "beam", "kind": "beam", "beam_size": 5, "max_len": MAX_LEN},
                       {"name": "beam3", "kind": "beam", "beam_size": 3, "max_len": MAX_LEN}],
            "select": [{"name": "cos", "kind": "vote", "sim": {"kind": "embed_cosine", "vectors": vectors.name}}],
            "output_dir": "out",
        }
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        reads = []
        monkeypatch.setattr(harness, "read_vector_file", lambda path: reads.append(path) or read_vector_file(path))
        assert main(["run", "--config", str(tmp_path / "config.json")]) == 0
        assert reads == [tmp_path / vectors.name]

    def test_vote_without_vectors_exits_1(self, tmp_path, capsys):
        cands = tmp_path / "c.jsonl"
        cands.write_text(json.dumps({"id": 1, "candidates": [{"tokens": ["ok"], "logprob": -1.0}]}) + "\n")
        out = tmp_path / "votes.jsonl"
        assert main(["vote", "--candidates", str(cands), "--sim", "embed_cosine", "--out", str(out)]) == 1
        assert "--sim embed_cosine needs --vectors FILE" in capsys.readouterr().err
        assert not out.exists()
