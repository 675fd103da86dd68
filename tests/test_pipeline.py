"""The `decode`, `vote` and `run` commands write the same bytes for the same work.

`run` decodes and votes every row in one process; `train`, `decode` and
`vote` do it one stage per command through files.  Both routes share the
per-row stages, so their files must match byte for byte.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from votedecode.cli import main
from votedecode.config import load_config
from votedecode.decode import DecodeSpec, beam_search, sample_sequences
from votedecode.formats import read_candidates, read_dataset
from votedecode.harness import build_model, candidate_record, derive_seed, source_context

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

WORDS = ["the", "a", "cat", "dog", "sat", "ran", "on", "mat", "home", "big", "red", "fast"]
SEED = 5
NUCLEUS = {"name": "nucleus", "kind": "sample", "count": 5, "strategy": "nucleus", "top_p": 0.8, "max_len": 8}
BEAM = {"name": "beam", "kind": "beam", "beam_size": 4, "max_len": 8, "filter_copies": 0.2}


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    """Corpus, dataset (every row has a source) and the `run` output tree over them."""
    root = tmp_path_factory.mktemp("pipeline")
    rng = random.Random(0)
    lines = [" ".join(rng.choices(WORDS, k=rng.randint(3, 7))) for _ in range(60)]
    (root / "corpus.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    rows = [{"id": i, "source": lines[i], "references": [lines[i + 10], lines[i + 20]]} for i in range(3)]
    (root / "dataset.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    config = {
        "schema_version": 1,
        "seed": SEED,
        "model": {"kind": "train", "corpus": "corpus.txt", "order": 2, "add_k": 0.1},
        "dataset": "dataset.jsonl",
        # The CLI decodes with the seeds of the run's first decode entry.
        "decode": [NUCLEUS, BEAM, {**BEAM, "name": "unfiltered", "filter_copies": None}],
        "select": [{"name": "map", "kind": "map"}, {"name": "bleu", "kind": "vote", "sim": {"kind": "bleu"}}],
    }
    (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", str(root / "config.json"), "--output-dir", str(root / "run")]) == 0
    assert main(["train", "--corpus", str(root / "corpus.txt"), "--out", str(root / "model.json"),
                 "--order", "2", "--add-k", "0.1"]) == 0
    return root


def decode(root, out, *flags):
    argv = ["decode", "--model", str(root / "model.json"), "--dataset", str(root / "dataset.jsonl"),
            "--out", str(out), *flags]
    assert main(argv) == 0
    return out.read_bytes()


def test_beam_decode_with_copy_filter_matches_run(experiment, tmp_path):
    run = experiment / "run" / "candidates"
    # The filter drops candidates here, so the match covers the filtered search.
    assert (run / "beam.jsonl").read_bytes() != (run / "unfiltered.jsonl").read_bytes()
    got = decode(experiment, tmp_path / "beam.jsonl",
                 "--beam-size", "4", "--max-len", "8", "--filter-copies", "0.2")
    assert got == (run / "beam.jsonl").read_bytes()


def test_nucleus_decode_matches_run(experiment, tmp_path):
    got = decode(experiment, tmp_path / "nucleus.jsonl", "--strategy", "nucleus", "--count", "5",
                 "--top-p", "0.8", "--max-len", "8", "--seed", str(SEED))
    assert got == (experiment / "run" / "candidates" / "nucleus.jsonl").read_bytes()


@pytest.mark.parametrize("name", ["nucleus", "beam"])
def test_vote_with_same_voters_matches_run(experiment, tmp_path, name):
    run = experiment / "run"
    out = tmp_path / "votes.jsonl"
    argv = ["vote", "--candidates", str(run / "candidates" / f"{name}.jsonl"), "--sim", "bleu", "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (run / "votes" / f"{name}+bleu.jsonl").read_bytes()


# sha256 of every file `run` writes for configs/toy_vote_split.json.
TOY_DIGESTS = {
    "candidates/beam5.jsonl": "7e00889fbff92c779da2fb59d51d13fc8888ff585857e62dfcc9a82cf085aef5",
    "report.json": "e68b11e1e351e0904d7adddf9cd2f682c0a975ce0c88d2838eaed8bfe2783c02",
    "report.tsv": "89d842250da1c2e30aa2e3b62793944897f5ad05ee92682a70bea6395a4dc87c",
    "selections/beam5+map.jsonl": "a239d251813ef59c9559a279985f80129f8ff051500de962cdb4403d07abccc9",
    "selections/beam5+overl1.jsonl": "2417731d52d334b2622ce753d1aed69dccf6029562e4f7150e087b8f11d8bf46",
    "votes/beam5+overl1.jsonl": "9ab45e28e6adcbfe3d00deba6bf27a779d2cd98954dc80b843b116bb88e4b5e5",
}


def test_toy_vote_split_golden(tmp_path):
    out = tmp_path / "toy"
    assert main(["run", "--config", str(CONFIGS / "toy_vote_split.json"), "--output-dir", str(out)]) == 0
    report = {row["system"]: row for row in json.loads((out / "report.json").read_text(encoding="utf-8"))}
    assert report["beam5+overl1"]["bleu_4"] == 1.0
    assert report["beam5+map"]["bleu_4"] == 0.0
    digests = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.rglob("*")
        if path.is_file()
    }
    assert digests == TOY_DIGESTS


def test_voters_inherit_every_decode_setting_they_do_not_set(experiment, tmp_path):
    """`beam:K` voters run their decode's beam search at beam K; `sample:N` voters sample ancestrally.

    Both keep the decode's max_len; beam voters also keep its scoring, diversity
    penalty and copy filter, and sampled voters drop a nucleus decode's top_p.
    """
    beam = {"name": "beam", "kind": "beam", "beam_size": 3, "max_len": 6, "scoring": "length_normalized",
            "diverse_gamma": 0.5, "filter_copies": 0.2}
    nucleus = {"name": "nucleus", "kind": "sample", "count": 4, "strategy": "nucleus", "top_p": 0.5, "max_len": 4}
    config = {
        "schema_version": 1,
        "seed": SEED,
        "model": {"kind": "train", "corpus": str(experiment / "corpus.txt"), "order": 2, "add_k": 0.1},
        "dataset": str(experiment / "dataset.jsonl"),
        "decode": [beam, nucleus],
        "select": [{"name": name, "kind": "vote", "sim": {"kind": "overl", "n": 1}, "voters": voters}
                   for name, voters in (("beam6", "beam:6"), ("sample7", "sample:7"))],
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", str(tmp_path / "config.json"), "--output-dir", str(tmp_path / "run")]) == 0

    loaded = load_config(tmp_path / "config.json")
    model = build_model(loaded.model, loaded)
    rows = read_dataset(experiment / "dataset.jsonl")
    contexts = [source_context(row.source, model.vocab, False) for row in rows]

    def records(sets):
        return [candidate_record(row.id, row.source, cands, model.vocab) for row, cands in zip(rows, sets)]

    def searched(**fields):
        spec = DecodeSpec(beam_size=6, max_len=6, scoring="length_normalized", diverse_gamma=0.5, **fields)
        return records(beam_search(model, context, spec) for context in contexts)

    def sampled(**fields):
        spec = DecodeSpec(kind="sample", count=7, max_len=4, **fields)
        return records(
            sample_sequences(model, context, spec, derive_seed(SEED, 2, 1, 1, ri)) for ri, context in enumerate(contexts)
        )

    beam_voters = read_candidates(tmp_path / "run" / "voters" / "beam+beam6.jsonl")
    assert beam_voters == searched(filter_copies=0.2)
    assert beam_voters != searched()  # the copy filter drops voters here
    sample_voters = read_candidates(tmp_path / "run" / "voters" / "nucleus+sample7.jsonl")
    assert sample_voters == sampled()
    assert sample_voters != sampled(strategy="nucleus", top_p=0.5)  # a leaked top_p would show
