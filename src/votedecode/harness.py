"""Experiment orchestration: decode grids, elections, reports.

Every intermediate artifact (candidates, voters, vote results, selections)
is materialized under the output directory, so fixed candidate files can be
re-voted against swapped voter files.  Given a seed, all output bytes are
deterministic.  ``decode_row`` and ``row_voters`` are the per-row stages;
the ``decode`` and ``vote`` commands call them too.

Candidates and voters come from one search: a ``DecodeSpec`` run by
``decode_row``.  Voters other than ``same`` set a few of its fields (a
beam size, or a sample count, strategy and truncation) and inherit every
other setting of the decode they vote for: max_len, scoring, diversity
penalty, copy filter.
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
    vectors_for_vocab,
    write_candidates,
    write_report_json,
    write_report_tsv,
    write_votes,
)
from .metrics import EvalRow, evaluate_system
from .models import NGramLM, SequenceModel, TabularModel, load_model, tabular_model, train_on_stream
from .sequences import RESERVED_MARKS, UNK_ID, Sequence, Vocabulary, build_vocabulary, index_corpus, tokenize
from .voting import SimilaritySpec, VoteResult, range_vote

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
    vocab = build_vocabulary((text for text, _ in entries), lowercase=lowercase)
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
    return tuple(vocab.token_of(t) for t in seq)


def adhoc_vocab(token_seqs: Iterable[Iterable[str]]) -> Vocabulary:
    """Vocabulary over observed file tokens (reserved markers map back to their ids: see ``file_ids``)."""
    tokens = sorted({tok for seq in token_seqs for tok in seq} - RESERVED_MARKS)
    return Vocabulary(tokens=tuple(tokens))


def file_ids(tokens: Iterable[str], vocab: Vocabulary) -> Sequence:
    """Ids of tokens read from a file: a reserved marker maps to its own id, an unknown word to UNK."""
    return tuple(map(vocab.marked_index.get, tokens, repeat(UNK_ID)))


def candidate_record(row_id, source: str | None, cands: CandidateSet, vocab: Vocabulary) -> CandidateRecord:
    return CandidateRecord(
        id=row_id,
        source=source,
        candidates=tuple((surface_tokens(c.tokens, vocab), c.logprob) for c in cands.items),
    )


def vote_record(row_id, result: VoteResult, vocab: Vocabulary) -> VoteRecord:
    return VoteRecord(
        id=row_id,
        ranked=tuple(
            (surface_tokens(c.tokens, vocab), c.logprob, score)
            for c, score in zip(result.ranking, result.scores)
        ),
        contributions=result.contributions,
    )


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


def decode_row(
    model: SequenceModel,
    spec: DecodeSpec,
    context: Sequence | None,
    seed: int,
) -> CandidateSet:
    """Run one decode setting on one input (beam or sampling)."""
    if spec.kind == "beam":
        return beam_search(model, context, spec)
    return sample_sequences(
        model,
        context,
        count=spec.count,
        strategy=spec.strategy,
        top_k=spec.top_k,
        top_p=spec.top_p,
        seed=seed,
        max_len=spec.max_len,
    )


def row_voters(
    model: SequenceModel,
    decode: DecodeSpec,
    voters: dict | None,
    context: Sequence | None,
    candidates: CandidateSet,
    seed: int,
) -> CandidateSet:
    """The voter set of one input: the candidates, or ``decode``'s search with the voters' fields set.

    ``voters`` is what ``config.parse_voter_spec`` returns: None for ``same``.
    """
    return candidates if voters is None else decode_row(model, replace(decode, **voters), context, seed)


def _resolve_sim(sim: SimilaritySpec, config: ExperimentConfig, vocab: Vocabulary) -> SimilaritySpec:
    if sim.kind != "embed_cosine" or sim.vectors is not None:
        return sim
    if sim.vector_path is None:
        raise ConfigError("embed_cosine similarity needs a 'vectors' file path")
    table = read_vector_file(config.resolve(sim.vector_path))
    return replace(sim, vectors=vectors_for_vocab(table, vocab))


def run_experiment(
    config: ExperimentConfig,
    *,
    output_dir: str | Path | None = None,
) -> tuple[list[EvalRow], Path]:
    """Run the full grid: decode x select per input, then one report row per system.

    Every file is computed before the output directory is made, so a run
    that fails leaves no output tree behind; the report is written last.
    """
    model = build_model(config.model, config)
    vocab = model.vocab
    rows = read_dataset(config.resolve(config.dataset))
    out = Path(output_dir) if output_dir is not None else config.resolve(config.output_dir)

    contexts = [source_context(row.source, vocab, config.lowercase) for row in rows]
    refs, sources = plain_tokens(rows, config.lowercase)

    report: list[EvalRow] = []
    files: list[tuple[str, Callable, list]] = []  # (path under out, writer, records)
    for di, dspec in enumerate(config.decode):
        cand_sets = [
            decode_row(model, dspec, context, derive_seed(config.seed, 1, di, ri)) for ri, context in enumerate(contexts)
        ]
        for row, cands in zip(rows, cand_sets):
            if not cands.items:
                raise ValueError(
                    f"decode {dspec.name!r} left no candidates for input {row.id!r} "
                    "(support empty or everything copy-filtered)"
                )
        files.append((
            f"candidates/{dspec.name}.jsonl",
            write_candidates,
            [candidate_record(row.id, row.source, cands, vocab) for row, cands in zip(rows, cand_sets)],
        ))
        for si, sspec in enumerate(config.select):
            system = f"{dspec.name}+{sspec.name}"
            if sspec.kind == "map":
                winners = [cands.items[0] for cands in cand_sets]
            else:
                sim = _resolve_sim(sspec.sim, config, vocab)
                results, voter_sets = [], []
                for ri, cands in enumerate(cand_sets):
                    seed = derive_seed(config.seed, 2, di, si, ri)
                    voter_sets.append(row_voters(model, dspec, sspec.voters, contexts[ri], cands, seed))
                    results.append(range_vote(cands, voter_sets[-1], sim, with_contributions=sspec.contributions))
                if sspec.voters is not None:
                    files.append((
                        f"voters/{system}.jsonl",
                        write_candidates,
                        [candidate_record(row.id, row.source, voters, vocab) for row, voters in zip(rows, voter_sets)],
                    ))
                files.append((
                    f"votes/{system}.jsonl",
                    write_votes,
                    [vote_record(row.id, res, vocab) for row, res in zip(rows, results)],
                ))
                winners = [res.winner for res in results]
            files.append((
                f"selections/{system}.jsonl",
                write_candidates,
                [
                    CandidateRecord(
                        id=row.id,
                        source=row.source,
                        candidates=((surface_tokens(w.tokens, vocab), w.logprob),),
                    )
                    for row, w in zip(rows, winners)
                ],
            ))
            hyps = [surface_tokens(w.tokens, vocab) for w in winners]
            report.append(
                evaluate_system(
                    system,
                    hyps,
                    refs,
                    sources,
                    max_n=config.bleu_max_n,
                    copy_threshold=config.copy_threshold,
                )
            )

    out.mkdir(parents=True, exist_ok=True)
    for name, writer, records in files:
        path = out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fp:
            writer(records, fp)
    with open(out / "report.tsv", "w", encoding="utf-8") as fp:
        write_report_tsv(report, config.bleu_max_n, fp)
    with open(out / "report.json", "w", encoding="utf-8") as fp:
        write_report_json(report, config.bleu_max_n, fp)
    return report, out

