"""Seeded inputs for the benchmark workloads and the CLI calls one pass makes.

Every input file is a pure function of the workload seed (stdlib ``random``
only), so the same seed gives byte-identical files and the program under test
sees nothing but those files.
"""

from __future__ import annotations

import itertools
import json
import random
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

VOCAB_SIZE = 2000
CORPUS_LINES = 5000

# The corpus's n-gram structure (which word follows which, and how often) and
# the sampling seed are fixed; the workload seed only respells the words,
# reorders the corpus lines and draws the dataset.  Respelling keeps the
# words' alphabetical order, so vocabulary ids, and with them every search
# and every draw, are the same for all seeds: a pass does the same work
# whatever the seed.  A corpus drawn afresh per seed moves beam search's
# early-stop depth by a whole step, which changes beam-map's work by half,
# and per-seed sampling changes the sampled lengths.
STRUCTURE_SEED = 1908
SUCCESSORS = 12


def _zipf_cum(n: int, exponent: float) -> list[float]:
    return list(itertools.accumulate(1.0 / rank**exponent for rank in range(1, n + 1)))


class _Chain:
    """Zipf start words, each word followed by one of its own Zipf-weighted successors."""

    def __init__(self):
        rng = random.Random(STRUCTURE_SEED)
        self.ranks = range(VOCAB_SIZE)
        self.start_cum = _zipf_cum(VOCAB_SIZE, 1.0)
        self.next_cum = _zipf_cum(SUCCESSORS, 1.5)
        self.successors = [rng.choices(self.ranks, cum_weights=self.start_cum, k=SUCCESSORS) for _ in self.ranks]

    def walk(self, rng: random.Random, length: int) -> list[int]:
        word = rng.choices(self.ranks, cum_weights=self.start_cum)[0]
        line = [word]
        for _ in range(length - 1):
            word = rng.choices(self.successors[word], cum_weights=self.next_cum)[0]
            line.append(word)
        return line


def _structure() -> tuple[_Chain, list[list[int]]]:
    chain = _Chain()
    rng = random.Random(STRUCTURE_SEED + 1)
    lines = [chain.walk(rng, rng.randint(3, 15)) for _ in range(CORPUS_LINES)]
    # Every word appears at least once, so the vocabulary has exactly VOCAB_SIZE words.
    seen = {word for line in lines for word in line}
    missing = [word for word in chain.ranks if word not in seen]
    if len(missing) > len(lines):
        raise RuntimeError("corpus too small to cover the vocabulary")
    for line, word in zip(lines, missing):
        line.append(word)
    return chain, lines


def _labels(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct lowercase words, in alphabetical order."""
    labels: set[str] = set()
    while len(labels) < count:
        labels.add("".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 8))))
    return sorted(labels)


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows), encoding="utf-8")


def _lm_inputs(seed: int, out: Path, rows: int, decode: dict, select: list[dict]) -> None:
    """Corpus, dataset and experiment config for a `votedecode run` workload."""
    chain, lines = _structure()
    rng = random.Random(seed)
    labels = _labels(rng, VOCAB_SIZE)
    text = [" ".join(labels[word] for word in line) for line in lines]
    rng.shuffle(text)
    (out / "corpus.txt").write_text("\n".join(text) + "\n", encoding="utf-8")

    def sentence() -> str:
        return " ".join(labels[word] for word in chain.walk(rng, rng.randint(5, 12)))

    _write_jsonl(
        out / "dataset.jsonl",
        [{"id": f"row{i:02d}", "source": sentence(), "references": [sentence(), sentence()]} for i in range(rows)],
    )
    config = {
        "schema_version": 1,
        "seed": STRUCTURE_SEED,
        "model": {"kind": "train", "corpus": "corpus.txt", "order": 2, "add_k": 0.01},
        "dataset": "dataset.jsonl",
        "decode": [decode],
        "select": select,
        "workers": 1,
        "output_dir": "out",
    }
    (out / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")


BEAM_MAP_ROWS = 2
SAMPLE_VOTE_ROWS = 1


def beam_map_inputs(seed: int, out: Path) -> None:
    _lm_inputs(
        seed,
        out,
        BEAM_MAP_ROWS,
        {"name": "beam10", "kind": "beam", "beam_size": 10, "max_len": 16},
        [
            {"name": "map", "kind": "map"},
            {"name": "bleu", "kind": "vote", "sim": {"kind": "bleu"}, "voters": "same"},
        ],
    )


def sample_vote_inputs(seed: int, out: Path) -> None:
    _lm_inputs(
        seed,
        out,
        SAMPLE_VOTE_ROWS,
        {"name": "nucleus", "kind": "sample", "count": 10, "strategy": "nucleus", "top_p": 0.9, "max_len": 16},
        [{"name": "prec2", "kind": "vote", "sim": {"kind": "prec", "n": 2}, "voters": "sample:20"}],
    )


RERANK_ROWS = 3
RERANK_CANDIDATES = 40
RERANK_VOTERS = 200
RERANK_WORDS = 40
RERANK_FAMILIES = 4
RERANK_RESAMPLES = 400
RERANK_STEM_LEN = 11


def rerank_inputs(seed: int, out: Path) -> None:
    """Candidates and voters built from near-duplicate families over a small vocabulary.

    Members of a family share a stem and differ by one to three edits, so
    n-grams overlap heavily, as in ``oracle.make_vote_split_model``.
    """
    rng = random.Random(seed)
    words = _labels(rng, RERANK_WORDS)
    rng.shuffle(words)
    cand_rows, voter_rows, dataset = [], [], []
    for i in range(RERANK_ROWS):
        stems = [[rng.choice(words) for _ in range(RERANK_STEM_LEN)] for _ in range(RERANK_FAMILIES)]
        weights = [rng.uniform(0.2, 1.0) for _ in stems]

        def member() -> tuple[list[str], float]:
            family = rng.choices(range(RERANK_FAMILIES), weights=weights)[0]
            tokens = list(stems[family])
            for _ in range(rng.randint(1, 3)):
                pos = rng.randrange(len(tokens))
                op = rng.random()
                if op < 0.4:
                    tokens[pos] = rng.choice(words)
                elif op < 0.7 and len(tokens) > 4:
                    del tokens[pos]
                else:
                    tokens.insert(pos, rng.choice(words))
            return tokens, -rng.uniform(0.4, 1.2) * len(tokens) - 1.5 * family

        unique: dict[tuple[str, ...], float] = {}
        while len(unique) < RERANK_CANDIDATES:
            tokens, logprob = member()
            unique.setdefault(tuple(tokens), logprob)
        ranked = sorted(unique.items(), key=lambda item: (-item[1], item[0]))
        row_id = f"row{i:02d}"
        cand_rows.append({"id": row_id, "candidates": [{"tokens": list(t), "logprob": lp} for t, lp in ranked]})
        voters = sorted((member() for _ in range(RERANK_VOTERS)), key=lambda item: (-item[1], item[0]))
        voter_rows.append({"id": row_id, "candidates": [{"tokens": t, "logprob": lp} for t, lp in voters]})
        dataset.append({"id": row_id, "references": [" ".join(member()[0]) for _ in range(2)]})
    _write_jsonl(out / "candidates.jsonl", cand_rows)
    _write_jsonl(out / "voters.jsonl", voter_rows)
    _write_jsonl(out / "dataset.jsonl", dataset)


@dataclass(frozen=True)
class Command:
    """One `votedecode` invocation; ``stdout`` names the artifact its output becomes, if any."""

    argv: list[str]
    stdout: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rows: int  # dataset rows one pass carries through
    generate: Callable[[int, Path], None]
    commands: Callable[[Path, Path, int], list[Command]]  # (inputs, outputs, seed)
    config: str | None  # input file set-up parses before building the model; None: import only


def _run_commands(inputs: Path, outputs: Path, seed: int) -> list[Command]:
    return [Command(["run", "--config", str(inputs / "config.json"), "--output-dir", str(outputs), "--workers", "1"])]


def _rerank_commands(inputs: Path, outputs: Path, seed: int) -> list[Command]:
    vote = ["vote", "--candidates", str(inputs / "candidates.jsonl"), "--voters", f"file:{inputs / 'voters.jsonl'}"]
    return [
        Command(vote + ["--sim", "bleu", "--out", str(outputs / "votes_bleu.jsonl")]),
        Command(vote + ["--sim", "prec", "--n", "2", "--out", str(outputs / "votes_prec2.jsonl")]),
        Command(
            [
                "eval",
                "--hyps", str(outputs / "votes_bleu.jsonl"),
                "--dataset", str(inputs / "dataset.jsonl"),
                "--compare", str(inputs / "candidates.jsonl"),
                "--n-bootstrap", str(RERANK_RESAMPLES),
                "--seed", str(seed),
            ],
            stdout="eval.stdout",
        ),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "beam-map",
            "model queries and beam search do nearly all the work; the 10x10 elections leave voting idle",
            BEAM_MAP_ROWS,
            beam_map_inputs,
            _run_commands,
            "config.json",
        ),
        Workload(
            "sample-vote",
            "nucleus and ancestral sampling dominate; beam search is never called",
            SAMPLE_VOTE_ROWS,
            sample_vote_inputs,
            _run_commands,
            "config.json",
        ),
        Workload(
            "rerank",
            "no model: file-fed bleu and prec_2 elections plus a paired bootstrap do all the work",
            RERANK_ROWS,
            rerank_inputs,
            _rerank_commands,
            None,
        ),
    )
}
