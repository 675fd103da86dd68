"""The `decode`, `vote` and `run` commands write the same bytes for the same work.

`run` decodes and votes every row in one process; `train`, `decode` and
`vote` do it one stage per command through files.  Both routes share the
stages in `harness`, so their files must match byte for byte.
"""

import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from votedecode.cli import main
from votedecode.config import load_config
from votedecode.decode import DecodeSpec, beam_search, sample_sequences
from votedecode.formats import VoteRecord, read_candidates, read_dataset, write_votes
from votedecode.harness import build_model, candidate_records, derive_seed, source_context, tabular_model_from_text
from votedecode.voting import SimilaritySpec, range_vote

from conftest import FIXTURE5
from test_training import golden_lines

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


def rerun(experiment, workdir, *flags, **fields):
    """`run` in ``workdir`` on the experiment's config, ``fields`` replaced and paths absolute; the output tree."""
    config = json.loads((experiment / "config.json").read_text(encoding="utf-8"))
    config.update(model={**config["model"], "corpus": str(experiment / "corpus.txt")},
                  dataset=str(experiment / "dataset.jsonl"))
    config.update(fields)
    workdir.mkdir(exist_ok=True)
    (workdir / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", str(workdir / "config.json"), "--output-dir", str(workdir / "run"), *flags]) == 0
    return workdir / "run"


def test_run_seed_replaces_the_configs_seed(experiment, tmp_path):
    flag = tree_digests(rerun(experiment, tmp_path / "flag", "--seed", str(SEED + 4)))
    assert flag == tree_digests(rerun(experiment, tmp_path / "key", seed=SEED + 4))
    # The nucleus decode samples, so the config's own seed writes other candidates.
    own = tree_digests(experiment / "run")
    assert flag["candidates/nucleus.jsonl"] != own["candidates/nucleus.jsonl"]


def test_a_run_on_the_saved_model_writes_the_trained_runs_tree(experiment, tmp_path):
    """The fixture's `train` command saves the config's train model; loading it must change no byte."""
    loaded = rerun(experiment, tmp_path, model={"kind": "load", "path": str(experiment / "model.json")})
    assert tree_digests(loaded) == tree_digests(experiment / "run")


# sha256 of every file `run` writes for configs/toy_vote_split.json.
TOY_DIGESTS = {
    "candidates/beam5.jsonl": "7e00889fbff92c779da2fb59d51d13fc8888ff585857e62dfcc9a82cf085aef5",
    "report.json": "e68b11e1e351e0904d7adddf9cd2f682c0a975ce0c88d2838eaed8bfe2783c02",
    "report.tsv": "89d842250da1c2e30aa2e3b62793944897f5ad05ee92682a70bea6395a4dc87c",
    "selections/beam5+map.jsonl": "a239d251813ef59c9559a279985f80129f8ff051500de962cdb4403d07abccc9",
    "selections/beam5+overl1.jsonl": "2417731d52d334b2622ce753d1aed69dccf6029562e4f7150e087b8f11d8bf46",
    "votes/beam5+overl1.jsonl": "9ab45e28e6adcbfe3d00deba6bf27a779d2cd98954dc80b843b116bb88e4b5e5",
}


def tree_digests(out):
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.rglob("*")
        if path.is_file()
    }


def test_toy_vote_split_golden(tmp_path):
    out = tmp_path / "toy"
    assert main(["run", "--config", str(CONFIGS / "toy_vote_split.json"), "--output-dir", str(out)]) == 0
    report = {row["system"]: row for row in json.loads((out / "report.json").read_text(encoding="utf-8"))}
    assert report["beam5+overl1"]["bleu_4"] == 1.0
    assert report["beam5+map"]["bleu_4"] == 0.0
    assert tree_digests(out) == TOY_DIGESTS


# sha256 of every file `run` writes for configs/toy_vote_split.json's model and decode under two BLEU votes.
# At max_n 4 the one-token `ok` scores 0 against everyone while the 4-6 token sequences score each other;
# at max_n 7 every sequence is shorter than the order, so every score is 0.
SHORT_BLEU_DIGESTS = {
    "candidates/beam5.jsonl": "7e00889fbff92c779da2fb59d51d13fc8888ff585857e62dfcc9a82cf085aef5",
    "report.json": "59cc073697ac31193d3a7f1d5fbaf63fdc0cc9ab65b34065188982ebe67ac5ac",
    "report.tsv": "729ff6aaadcc433033a54a72ace6762248cf4dff17f5c52d2a472993ffc61de6",
    "selections/beam5+bleu.jsonl": "2417731d52d334b2622ce753d1aed69dccf6029562e4f7150e087b8f11d8bf46",
    "selections/beam5+bleu7.jsonl": "a239d251813ef59c9559a279985f80129f8ff051500de962cdb4403d07abccc9",
    "votes/beam5+bleu.jsonl": "31717952349a09b38976af868b9fbaf906347c1d9844eac2ffd3962330ce4299",
    "votes/beam5+bleu7.jsonl": "5173116f6e882b9cf687069a2d24a9a8c9a24a5796394dde836d46c7968202fd",
}


def test_bleu_votes_with_sequences_shorter_than_the_order_golden(tmp_path):
    config = json.loads((CONFIGS / "toy_vote_split.json").read_text(encoding="utf-8"))
    config["dataset"] = str(CONFIGS / config["dataset"])
    config["select"] = [{"name": "bleu", "kind": "vote", "sim": {"kind": "bleu"}, "voters": "same"},
                        {"name": "bleu7", "kind": "vote", "sim": {"kind": "bleu", "max_n": 7}, "voters": "same"}]
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["run", "--config", str(tmp_path / "config.json"), "--output-dir", str(out)]) == 0
    rows = (out / "votes" / "beam5+bleu7.jsonl").read_text(encoding="utf-8").splitlines()
    assert {entry["score"] for line in rows for entry in json.loads(line)["ranked"]} == {0.0}
    assert tree_digests(out) == SHORT_BLEU_DIGESTS


SAMPLED_MODELS = {
    # A bigram model trained on test_training's golden lines: most of each row's mass is in its rest run.
    "ngram": {"kind": "train", "corpus": "golden.txt", "order": 2, "add_k": 0.1},
    "captions": {"kind": "tabular", "path": str(CONFIGS / "captions_demo.json")},
}
SAMPLED_DECODES = [
    {"name": "anc", "kind": "sample", "count": 8, "strategy": "ancestral", "max_len": 16},
    {"name": "top3", "kind": "sample", "count": 8, "strategy": "top_k", "top_k": 3, "max_len": 16},
    {"name": "nucleus", "kind": "sample", "count": 8, "strategy": "nucleus", "top_p": 0.9, "max_len": 16},
]
# sha256 of every file `run` writes for each model under the three sampled decodes, each voted by
# regenerated `sample:6` voters.
SAMPLED_DIGESTS = {
    "captions": {
        "candidates/anc.jsonl": "cb36649e77022e7d8d6f71dbd14dc1cb16cc8d292527c41b36b04f9303eeb287",
        "candidates/nucleus.jsonl": "450906784782c67f8cf22b9a1a7c8ef672365364d4398ce02859a8a372476567",
        "candidates/top3.jsonl": "b9a48513d2f9c411e31f9bede43e7e566a1550977f43b570f4c0d793dc453cf3",
        "report.json": "5fa4525452d6264fa6ed3b2fd092a5914e42cd962dbf1831ac876355b6cac0d5",
        "report.tsv": "3914dd2268cc55ed5627e4d3484d5f93bee2aedb44fee209b76883c32bb7ea66",
        "selections/anc+map.jsonl": "c8153ec935cb63ad1fe8c462ca9e4cf5a0c9d875e6a1adfb050e338f3cbacea3",
        "selections/anc+sample6.jsonl": "c8153ec935cb63ad1fe8c462ca9e4cf5a0c9d875e6a1adfb050e338f3cbacea3",
        "selections/nucleus+map.jsonl": "4826e47648d843d57f3a3a2dcef1ecb1f918d63d30c67437b9aa3c09bb000a67",
        "selections/nucleus+sample6.jsonl": "c8153ec935cb63ad1fe8c462ca9e4cf5a0c9d875e6a1adfb050e338f3cbacea3",
        "selections/top3+map.jsonl": "4826e47648d843d57f3a3a2dcef1ecb1f918d63d30c67437b9aa3c09bb000a67",
        "selections/top3+sample6.jsonl": "4826e47648d843d57f3a3a2dcef1ecb1f918d63d30c67437b9aa3c09bb000a67",
        "voters/anc+sample6.jsonl": "ada1f13b517d4b97f15030ab1d412708c71a8f1bcabc76ed1950248e3179ab43",
        "voters/nucleus+sample6.jsonl": "5ef5d3ff03eb1ee658c1dfb1283f72652f7f0c209171449774296b9d5b8acea4",
        "voters/top3+sample6.jsonl": "ea262352f5b017c5bb53a096bff2151dc2d05cd2dc249271919c9d9df27b2180",
        "votes/anc+sample6.jsonl": "4b9cad3109d695a000ea43acc4da4dd615128622238ee49a489d9353fb5d4941",
        "votes/nucleus+sample6.jsonl": "578a8b674b31888031d74b4f915daa3eb5454187dba314d53fdef344c720ff4b",
        "votes/top3+sample6.jsonl": "03d0d2781849f224cf7c2f45fe1716ea6010bb8da7bfaf716654b46cd11b588d",
    },
    "ngram": {
        "candidates/anc.jsonl": "75aac7e97329ecc8169fe3da2a11f935c49dc1fd47b44a38549edaf03194b899",
        "candidates/nucleus.jsonl": "229dfc26d4b84dc28150f09da43caafda8c1a329988a504ad841a95b82796f64",
        "candidates/top3.jsonl": "c04ea712129a712930b1a594d6ed68adb5ca93592915fd3dae8ea47d1cd8dbe9",
        "report.json": "065b4f3e79aba7ca369f2635e8c33422f5d7304366e03d1bcea0be2934613088",
        "report.tsv": "6de16522ec73a579380c9a69a45d73316a796e34dba4bc35b66fd1a08d54ea09",
        "selections/anc+map.jsonl": "9e8452431cd1fd8e84f8263f3a8f5a450e32b9e004359303e77264cd325a5fcd",
        "selections/anc+sample6.jsonl": "9e8452431cd1fd8e84f8263f3a8f5a450e32b9e004359303e77264cd325a5fcd",
        "selections/nucleus+map.jsonl": "1d5574b500f2a6dd5645ace39a0ef1334fe0a3b7cc8449b6236a32e31b57dbb1",
        "selections/nucleus+sample6.jsonl": "1d5574b500f2a6dd5645ace39a0ef1334fe0a3b7cc8449b6236a32e31b57dbb1",
        "selections/top3+map.jsonl": "3477209eddf41fc08c715ff23673e009a13ab3302632760b0184ae6a1214146e",
        "selections/top3+sample6.jsonl": "3477209eddf41fc08c715ff23673e009a13ab3302632760b0184ae6a1214146e",
        "voters/anc+sample6.jsonl": "dd4d176430ed398584c06c254befdca3a32986fb29381620587faba33750640a",
        "voters/nucleus+sample6.jsonl": "b3fb051e6e079196a311e1f4c92c69257ed807061ead72b5ac28daba0d681e21",
        "voters/top3+sample6.jsonl": "31acf00c0ad651150b844c7e0db733c0f08d79d27b8f19c20175adb0d3b2ed0c",
        "votes/anc+sample6.jsonl": "54009b7587af8a54da05ba0321791158f9d2e91695ec7fb9891b6bbf0480591d",
        "votes/nucleus+sample6.jsonl": "53e7005011dac4ca82a9a1f9ebbdf3213e8d1a5a2889ec37fe4f08b068fbd7a1",
        "votes/top3+sample6.jsonl": "e4a628c8eefbcf35d6047d370ed6086923cbf0540308d8f8fc88d4cb6496dc19",
    },
}


@pytest.mark.parametrize("model", sorted(SAMPLED_MODELS))
def test_sampled_run_golden(tmp_path, model):
    lines = golden_lines()
    (tmp_path / "golden.txt").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    rows = [{"id": i, "references": [lines[3 * i + 1], lines[3 * i + 2]]} for i in range(3)]
    (tmp_path / "dataset.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    config = {
        "schema_version": 1,
        "seed": 11,
        "model": SAMPLED_MODELS[model],
        "dataset": "dataset.jsonl",
        "decode": SAMPLED_DECODES,
        "select": [{"name": "map", "kind": "map"},
                   {"name": "sample6", "kind": "vote", "sim": {"kind": "bleu"}, "voters": "sample:6"}],
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["run", "--config", str(tmp_path / "config.json"), "--output-dir", str(out)]) == 0
    assert tree_digests(out) == SAMPLED_DIGESTS[model]


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

    def searched(**fields):
        spec = DecodeSpec(beam_size=6, max_len=6, scoring="length_normalized", diverse_gamma=0.5, **fields)
        return candidate_records(rows, [beam_search(model, context, spec) for context in contexts], model.vocab)

    def sampled(**fields):
        spec = DecodeSpec(kind="sample", count=7, max_len=4, **fields)
        sets = [sample_sequences(model, spec, derive_seed(SEED, 2, 1, 1, ri)) for ri in range(len(rows))]
        return candidate_records(rows, sets, model.vocab)

    beam_voters = read_candidates(tmp_path / "run" / "voters" / "beam+beam6.jsonl")
    assert beam_voters == searched(filter_copies=0.2)
    assert beam_voters != searched()  # the copy filter drops voters here
    sample_voters = read_candidates(tmp_path / "run" / "voters" / "nucleus+sample7.jsonl")
    assert sample_voters == sampled()
    assert sample_voters != sampled(strategy="nucleus", top_p=0.5)  # a leaked top_p would show


@pytest.mark.parametrize("voters, flags", [("beam:3", []), ("sample:4", ["--seed", "5"])])
def test_vote_regenerates_voters_with_the_cli_seed_layout(experiment, tmp_path, voters, flags):
    """`vote --voters beam:K|sample:N` searches each row at --max-len; row ri samples with (seed, 2, 0, ri).

    At --max-len 4 the longer sentences of the tabular model cannot finish, so a length the voters
    did not inherit would change them.
    """
    (tmp_path / "toy.json").write_text(json.dumps({"entries": FIXTURE5}), encoding="utf-8")
    model_flags = ["--tabular", str(tmp_path / "toy.json")]
    dataset = experiment / "dataset.jsonl"
    cands_path, out = tmp_path / "cands.jsonl", tmp_path / "votes.jsonl"
    assert main(["decode", *model_flags, "--dataset", str(dataset), "--beam-size", "5", "--max-len", "8",
                 "--out", str(cands_path)]) == 0
    assert main(["vote", "--candidates", str(cands_path), *model_flags, "--voters", voters, "--sim", "overl",
                 "--n", "1", "--max-len", "4", *flags, "--out", str(out)]) == 0

    model = tabular_model_from_text(FIXTURE5)
    votes = []
    for ri, row in enumerate(read_dataset(dataset)):
        context = source_context(row.source, model.vocab, False)
        cands = beam_search(model, context, DecodeSpec(beam_size=5, max_len=8))
        if voters == "beam:3":
            voter_set = beam_search(model, context, DecodeSpec(beam_size=3, max_len=4))
        else:
            voter_set = sample_sequences(model, DecodeSpec(kind="sample", count=4, max_len=4),
                                         derive_seed(5, 2, 0, ri))
        result = range_vote(cands, voter_set, SimilaritySpec(kind="overl", n=1))
        ranked = tuple((tuple(model.vocab.marked_tokens[i] for i in c.tokens), c.logprob, score)
                       for c, score in zip(result.ranking, result.scores))
        votes.append(VoteRecord(row.id, ranked))
    buf = io.StringIO()
    write_votes(votes, buf)
    assert out.read_text(encoding="utf-8") == buf.getvalue()
