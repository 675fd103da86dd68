"""Experiment orchestration: decode grids, elections, reports.

Every intermediate artifact (candidates, voters, vote results, selections)
is materialized under the output directory, so fixed candidate files can be
re-voted against swapped voter files.  Given a seed, all output bytes are
deterministic.

The ``decode`` and ``vote`` commands share ``run``'s two stages over a
list of rows: ``decode_rows`` (a search: candidates or voters) and
``elect_rows`` (elections).  One seed formula covers every search:
``decode_rows`` seeds row ``ri`` with ``(seed, *stream, ri)``.  A decode's
candidates use stream ``(1, di)`` and a selection's regenerated voters
``(2, di, si)``; the CLI uses ``(1, 0)`` and ``(2, 0)``.

Candidates and voters come from one search: a ``DecodeSpec`` run by
``decode_rows``.  Voters other than ``same`` set a few of its fields (a
beam size, or a sample count, strategy and truncation) and inherit every
other setting of the decode they vote for.  Beam voters use its max_len,
scoring, diversity penalty and copy filter.  Sampled voters use only its
max_len: a sample search has no scoring, penalty or copy filter.

Ids become strings in one place: ``candidate_records``, for decoded
candidates and regenerated voters.  Vote records, selections and report
hypotheses reuse the strings of the candidates' record (read or made).
"""

from __future__ import annotations

from dataclasses import replace
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable

from .config import ConfigError, ExperimentConfig, ModelSpec
from .decode import CandidateSet, DecodeSpec, beam_search, sample_sequences
from .formats import (
    CandidateRecord,
    DatasetRow,
    VoteRecord,
    read_corpus_lines,
    read_dataset,
    read_tabular_entries,
    read_vector_file,
    report_columns,
    save_outputs,
    write_candidates,
    write_report_json,
    write_report_tsv,
    write_votes,
)
from .metrics import EvalRow, evaluate_system
from .models import NGramLM, SequenceModel, TabularModel, load_model, tabular_model, train_on_stream
from .sequences import RESERVED_MARKS, UNK_ID, Sequence, Vocabulary, index_corpus, tokenize
from .voting import SimilaritySpec, range_vote

_MASK = (1 << 64) - 1


def derive_seed(*parts: int) -> int:
    """Stable 64-bit mix of integer parts for per-row sampling streams."""
    h = 0xCBF29CE484222325
    for p in parts:
        h = ((h ^ (p & _MASK)) * 0x100000001B3) & _MASK
    return h


def tabular_model_from_text(entries: Iterable[tuple[str, float]], lowercase: bool = False) -> TabularModel:
    """Build a tabular model (and its vocabulary) from (text, probability) pairs."""
    entries = list(entries)
    vocab = index_corpus((text for text, _ in entries), lowercase)[0]
    return tabular_model([(tokenize(t, vocab, lowercase), p) for t, p in entries], vocab)


def train_on_lines(lines: list[str], order: int, add_k: float, max_vocab: int | None, lowercase: bool) -> NGramLM:
    """The n-gram model of ``run``'s train models and of the ``train`` command."""
    vocab, ids, lengths = index_corpus(lines, lowercase, max_vocab)
    return train_on_stream(ids, lengths, order, add_k, vocab)


def build_model(spec: ModelSpec, base: ExperimentConfig) -> SequenceModel:
    if spec.kind == "train":
        lines = read_corpus_lines(base.resolve(spec.corpus))
        return train_on_lines(lines, spec.order, spec.add_k, spec.max_vocab, base.lowercase)
    if spec.kind == "load":
        with open(base.resolve(spec.path), encoding="utf-8") as fp:
            return load_model(fp)
    entries = spec.entries
    if entries is None:
        entries = read_tabular_entries(base.resolve(spec.path))
    return tabular_model_from_text(entries, lowercase=base.lowercase)


def surface_tokens(seq: Sequence, vocab: Vocabulary) -> tuple[str, ...]:
    return tuple(map(vocab.marked_tokens.__getitem__, seq))


def adhoc_vocab(token_seqs: Iterable[Iterable[str]]) -> Vocabulary:
    """Vocabulary over observed file tokens (reserved markers map back to their ids: see ``file_ids``)."""
    tokens = sorted({tok for seq in token_seqs for tok in seq} - RESERVED_MARKS)
    return Vocabulary(tokens=tuple(tokens))


def file_ids(tokens: Iterable[str], vocab: Vocabulary) -> Sequence:
    """Ids of tokens read from a file: a reserved marker maps to its own id, an unknown word to UNK."""
    return tuple(map(vocab.marked_index.get, tokens, repeat(UNK_ID)))


def candidate_records(rows: list, sets: list[CandidateSet], vocab: Vocabulary) -> list[CandidateRecord]:
    """Each row's set as a record: its id and source, and each sequence's tokens as strings."""
    items = (tuple((surface_tokens(c.tokens, vocab), c.logprob) for c in cands.items) for cands in sets)
    return [CandidateRecord(row.id, row.source, cands) for row, cands in zip(rows, items)]


def source_context(source: str | None, vocab: Vocabulary, lowercase: bool) -> Sequence | None:
    return tokenize(source, vocab, lowercase) if source is not None else None


def plain_tokens(rows: list[DatasetRow], lowercase: bool) -> tuple[list, list | None]:
    """Whitespace tokens of each row's references, and of its source when every row has one."""

    def words(text: str) -> tuple[str, ...]:
        return tuple((text.lower() if lowercase else text).split())

    refs = [tuple(words(r) for r in row.references) for row in rows]
    if any(row.source is None for row in rows):
        return refs, None
    return refs, [words(row.source) for row in rows]


def decode_rows(model: SequenceModel, spec: DecodeSpec, rows: list, contexts: Iterable, seed: int,
                stream: tuple[int, ...], what: str) -> list[CandidateSet]:
    """Every row's set under ``spec``: a beam search of its ``context``, or draws seeded ``(seed, *stream, ri)``.

    An empty set, over which no election can be held, is refused as ``what`` ("decode 'd' left no candidates").
    """
    sets = []
    for ri, (row, context) in enumerate(zip(rows, contexts)):
        if spec.kind == "beam":
            sets.append(beam_search(model, context, spec))
        else:
            sets.append(sample_sequences(model, spec, derive_seed(seed, *stream, ri)))
        if not sets[-1].items:
            raise ValueError(f"{what} for input {row.id!r} (support empty or everything copy-filtered)")
    return sets


def elect_rows(elect: Callable, records: list[CandidateRecord], candidates: list[CandidateSet],
               voters: list[CandidateSet], sim: SimilaritySpec, contributions: bool) -> list[VoteRecord]:
    """Every row's election by ``elect``, the caller's own ``range_vote`` name, ranked with its record's strings."""
    votes = []
    for rec, cands, voter_set in zip(records, candidates, voters):
        result = elect(cands, voter_set, sim, with_contributions=contributions)
        strings = dict(zip((c.tokens for c in cands.items), (tokens for tokens, _ in rec.candidates)))
        ranked = tuple((strings[c.tokens], c.logprob, score) for c, score in zip(result.ranking, result.scores))
        votes.append(VoteRecord(rec.id, ranked, result.contributions))
    return votes


def keyed_similarity(sim: SimilaritySpec, table: dict | None, vocab: Vocabulary) -> SimilaritySpec:
    """``sim`` with ``table``, an embed_cosine vote's vector file, keyed by ``vocab``'s ids, ``<unk>``'s included."""
    if table is None:
        return sim
    return replace(sim, vectors={i: table[t] for t, i in vocab.marked_index.items() if t in table})


def run_experiment(
    config: ExperimentConfig,
    *,
    output_dir: str | Path | None = None,
) -> tuple[list[EvalRow], Path]:
    """Run the full grid: decode x select per input, then one report row per system.

    Every file is computed first, then the whole tree is written by one
    :func:`formats.save_outputs`, so a run that fails, in computing or
    part-way through writing, leaves no output tree behind.  An output
    path that is not a directory, or a directory that already holds
    anything, is refused before the model is built, so no file of an
    earlier run sits beside the report; an empty directory is replaced.
    """
    out = Path(output_dir) if output_dir is not None else config.resolve(config.output_dir)
    if out.exists() and not out.is_dir():
        raise ConfigError(f"output directory {out} exists and is not a directory")
    held = min(out.iterdir(), default=None) if out.is_dir() else None
    if held is not None:
        raise ConfigError(f"output directory {out} already holds {held.name!r}; run into a new or empty directory")
    tables = [  # each embed_cosine vote's vector file, read before the model is built
        read_vector_file(config.resolve(s.sim.vector_path)) if s.sim and s.sim.kind == "embed_cosine" else None
        for s in config.select
    ]
    model = build_model(config.model, config)
    vocab = model.vocab
    sims = [keyed_similarity(s.sim, table, vocab) for s, table in zip(config.select, tables)]
    rows = read_dataset(config.resolve(config.dataset))

    contexts = [source_context(row.source, vocab, config.lowercase) for row in rows]
    refs, sources = plain_tokens(rows, config.lowercase)

    report: list[EvalRow] = []
    files: list[tuple[str, Callable, tuple]] = []  # (path under out, writer, writer args)
    for di, dspec in enumerate(config.decode):
        cand_sets = decode_rows(model, dspec, rows, contexts, config.seed, (1, di),
                                f"decode {dspec.name!r} left no candidates")
        records = candidate_records(rows, cand_sets, vocab)
        files.append((f"candidates/{dspec.name}.jsonl", write_candidates, (records,)))
        for si, (sspec, sim) in enumerate(zip(config.select, sims)):
            system = f"{dspec.name}+{sspec.name}"
            if sspec.kind == "map":
                tops = [rec.candidates[0] for rec in records]
            else:
                voter_sets = cand_sets
                if sspec.voters is not None:
                    voter_sets = decode_rows(model, replace(dspec, **sspec.voters), rows, contexts, config.seed,
                                             (2, di, si), f"selection {system!r} left no voters")
                    voter_records = candidate_records(rows, voter_sets, vocab)
                    files.append((f"voters/{system}.jsonl", write_candidates, (voter_records,)))
                votes = elect_rows(range_vote, records, cand_sets, voter_sets, sim, sspec.contributions)
                files.append((f"votes/{system}.jsonl", write_votes, (votes,)))
                tops = [vote.ranked[0][:2] for vote in votes]
            selections = [CandidateRecord(row.id, row.source, (top,)) for row, top in zip(rows, tops)]
            files.append((f"selections/{system}.jsonl", write_candidates, (selections,)))
            report.append(evaluate_system(system, [tokens for tokens, _ in tops], refs, sources,
                                          max_n=config.bleu_max_n, copy_threshold=config.copy_threshold))

    files.append(("report.tsv", write_report_tsv, (report, report_columns(config.bleu_max_n))))
    files.append(("report.json", write_report_json, (report,)))
    save_outputs((out, files))
    return report, out
