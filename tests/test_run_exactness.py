"""`run` meets the oracle: on an enumerable tabular model the whole pipeline is exact.

A run whose beam holds at least the support's size and whose ``max_len``
covers the model's gets the whole support from its beam search: the early
stop needs a pool of ``beam_size`` finished items, and no depth holds more
live prefixes than the support has sequences.  Enumeration and beam search
sum the same conditionals, so the candidates' log-probabilities equal the
oracle's bit for bit.  Through the config reader, the id→string crossing,
the JSON writers and readers and the report, what the run writes must then
equal ``exact_map``, ``exact_vote`` and ``evaluate_system`` on the oracle's
winners, compared with ``==``.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from votedecode.cli import main
from votedecode.formats import read_candidates, read_votes
from votedecode.harness import surface_tokens, tabular_model_from_text
from votedecode.metrics import evaluate_system
from votedecode.oracle import exact_map, exact_vote
from votedecode.voting import SimilaritySpec

from conftest import make_vote_split_model

SIMS = {
    "prec": {"kind": "prec", "n": 2},
    "overl": {"kind": "overl", "n": 1},
    "bleu": {"kind": "bleu"},
    "smoothed_bleu": {"kind": "smoothed_bleu", "max_n": 3},
}
BLEU_MAX_N = 4


def check_run_is_exact(root, entries):
    """Run a beam over the whole support of the tabular ``entries`` under ``root``; compare it with the oracles."""
    model = tabular_model_from_text(entries)
    max_len = max(model.max_len, 1)
    texts = [text for text, _ in entries]
    refs = [texts[::2], texts[1::2] or texts]
    (root / "d.jsonl").write_text("".join(json.dumps({"id": i, "references": r}) + "\n" for i, r in enumerate(refs)),
                                  encoding="utf-8")
    config = {
        "schema_version": 1,
        "model": {"kind": "tabular", "entries": [list(entry) for entry in entries]},
        "dataset": "d.jsonl",
        "decode": [{"name": "beam", "kind": "beam", "beam_size": len(model.entries), "max_len": max_len}],
        "select": [{"name": "map", "kind": "map"},
                   *({"name": name, "kind": "vote", "sim": sim} for name, sim in SIMS.items())],
        "metrics": {"bleu_max_n": BLEU_MAX_N},
    }
    (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
    out = root / "run"
    assert main(["run", "--config", str(root / "config.json"), "--output-dir", str(out)]) == 0

    def strings(seq):
        return surface_tokens(seq, model.vocab)

    best = exact_map(model, max_len)
    assert [rec.candidates for rec in read_candidates(out / "selections/beam+map.jsonl")] == [
        ((strings(best.tokens), best.logprob),)
    ] * len(refs)
    winners = {"map": strings(best.tokens)}
    for name, sim in SIMS.items():
        exact = exact_vote(model, SimilaritySpec(**sim), max_len)
        ranked = tuple((strings(c.tokens), c.logprob, score) for c, score in zip(exact.ranking, exact.scores))
        assert [rec.ranked for rec in read_votes(out / f"votes/beam+{name}.jsonl")] == [ranked] * len(refs)
        winners[name] = strings(exact.winner.tokens)
    ref_tokens = [tuple(tuple(text.split()) for text in r) for r in refs]
    for row in json.loads((out / "report.json").read_text(encoding="utf-8")):
        winner = winners[row["system"].removeprefix("beam+")]
        expected = evaluate_system(row["system"], [winner] * len(refs), ref_tokens, max_n=BLEU_MAX_N)
        assert [row[f"bleu_{n}"] for n in range(1, BLEU_MAX_N + 1)] == list(expected.bleu)


@pytest.mark.parametrize("seed", range(4))
def test_run_on_a_vote_split_model(tmp_path, seed):
    model = make_vote_split_model(seed)
    check_run_is_exact(tmp_path, [(" ".join(surface_tokens(seq, model.vocab)), p) for seq, p in model.entries.items()])


tables = st.lists(
    st.tuples(st.lists(st.sampled_from("abc"), max_size=4).map(" ".join), st.floats(0.01, 1.0)), min_size=1, max_size=6
)


@settings(max_examples=60, deadline=None)
@given(tables)
def test_run_on_a_random_table(tmp_path_factory, entries):
    check_run_is_exact(tmp_path_factory.mktemp("run"), entries)
