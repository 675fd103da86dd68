"""On-disk formats: corpora, datasets, candidates, votes, reports.

The line-delimited JSON formats exchange token *strings*, so downstream
steps (voting, evaluation) do not need the model's vocabulary.  Floats are
serialized with full round-trip precision.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .metrics import EvalRow
from .sequences import Vocabulary


class FileFormatError(ValueError):
    """Raised when an input file's contents do not match the expected format."""


# --- corpus --------------------------------------------------------------

def read_corpus_lines(path: str | Path) -> list[str]:
    """UTF-8 corpus, one sentence per line; blank lines are kept as empty sentences."""
    with open(path, encoding="utf-8") as fp:
        return [line.rstrip("\n") for line in fp]


# --- dataset --------------------------------------------------------------

@dataclass(frozen=True)
class DatasetRow:
    id: object
    source: str | None
    references: tuple[str, ...]


def read_dataset(path: str | Path) -> list[DatasetRow]:
    """Line-delimited JSON: {"id", "source"?, "references": [string, ...]}."""
    rows = []
    seen_ids: dict = {}
    for lineno, obj in _read_jsonl(path):
        if not isinstance(obj, dict) or "id" not in obj or "references" not in obj:
            raise FileFormatError(f"{path}:{lineno}: dataset rows need 'id' and 'references'")
        _check_unique_id(seen_ids, obj["id"], path, lineno)
        refs = obj["references"]
        if not isinstance(refs, list) or not all(isinstance(r, str) for r in refs):
            raise FileFormatError(f"{path}:{lineno}: 'references' must be a list of strings")
        source = obj.get("source")
        if source is not None and not isinstance(source, str):
            raise FileFormatError(f"{path}:{lineno}: 'source' must be a string")
        rows.append(DatasetRow(id=obj["id"], source=source, references=tuple(refs)))
    if not rows:
        raise FileFormatError(f"{path}: dataset is empty")
    return rows


# --- candidates / votes ---------------------------------------------------

@dataclass(frozen=True)
class CandidateRecord:
    """One input's decoded candidates, token strings plus model log-probability."""

    id: object
    source: str | None
    candidates: tuple[tuple[tuple[str, ...], float], ...]


def write_candidates(records: Iterable[CandidateRecord], fp: IO[str]) -> None:
    for rec in records:
        obj: dict = {"id": rec.id}
        if rec.source is not None:
            obj["source"] = rec.source
        obj["candidates"] = [
            {"tokens": list(tokens), "logprob": logprob} for tokens, logprob in rec.candidates
        ]
        fp.write(json.dumps(obj, sort_keys=True) + "\n")


def read_candidates(path: str | Path) -> list[CandidateRecord]:
    records = []
    seen_ids: dict = {}
    for lineno, obj in _read_jsonl(path):
        if not isinstance(obj, dict) or "id" not in obj or "candidates" not in obj:
            raise FileFormatError(f"{path}:{lineno}: candidate rows need 'id' and 'candidates'")
        _check_unique_id(seen_ids, obj["id"], path, lineno)
        cands = []
        for c in obj["candidates"]:
            try:
                tokens, logprob = tuple(c["tokens"]), float(c["logprob"])
            except (KeyError, TypeError, ValueError) as exc:
                raise FileFormatError(f"{path}:{lineno}: bad candidate entry: {exc}") from exc
            cands.append((tokens, _check_logprob(logprob, path, lineno)))
        records.append(CandidateRecord(id=obj["id"], source=obj.get("source"), candidates=tuple(cands)))
    if not records:
        raise FileFormatError(f"{path}: no candidate records")
    return records


@dataclass(frozen=True)
class VoteRecord:
    """One input's ranked election result."""

    id: object
    ranked: tuple[tuple[tuple[str, ...], float, float], ...]  # (tokens, logprob, score)
    contributions: tuple[tuple[float, ...], ...] | None = None


def write_votes(records: Iterable[VoteRecord], fp: IO[str]) -> None:
    for rec in records:
        obj: dict = {
            "id": rec.id,
            "ranked": [
                {"tokens": list(tokens), "logprob": logprob, "score": score}
                for tokens, logprob, score in rec.ranked
            ],
        }
        if rec.contributions is not None:
            obj["contributions"] = [list(row) for row in rec.contributions]
        fp.write(json.dumps(obj, sort_keys=True) + "\n")


def read_votes(path: str | Path) -> list[VoteRecord]:
    records = []
    seen_ids: dict = {}
    for lineno, obj in _read_jsonl(path):
        if not isinstance(obj, dict) or "id" not in obj or "ranked" not in obj:
            raise FileFormatError(f"{path}:{lineno}: vote rows need 'id' and 'ranked'")
        _check_unique_id(seen_ids, obj["id"], path, lineno)
        ranked = []
        for c in obj["ranked"]:
            try:
                tokens, logprob, score = tuple(c["tokens"]), float(c["logprob"]), float(c["score"])
            except (KeyError, TypeError, ValueError) as exc:
                raise FileFormatError(f"{path}:{lineno}: bad ranked entry: {exc}") from exc
            ranked.append((tokens, _check_logprob(logprob, path, lineno), score))
        contributions = None
        if "contributions" in obj:
            contributions = tuple(tuple(float(x) for x in row) for row in obj["contributions"])
        records.append(VoteRecord(id=obj["id"], ranked=tuple(ranked), contributions=contributions))
    if not records:
        raise FileFormatError(f"{path}: no vote records")
    return records


def read_hypotheses(path: str | Path) -> list[tuple[object, tuple[str, ...]]]:
    """Top-ranked output per record from either a candidates or a votes file.

    A first record with a ``ranked`` key makes it a votes file; anything
    else is read, and its faults reported, as a candidates file.
    """
    with contextlib.closing(_read_jsonl(path)) as lines:
        _, first = next(lines, (None, None))
    if isinstance(first, dict) and "ranked" in first:
        records, key = read_votes(path), "ranked"
    else:
        records, key = read_candidates(path), "candidates"
    out = []
    for rec in records:
        entries = getattr(rec, key)
        if not entries:
            raise FileFormatError(f"{path}: record {rec.id!r} has no entries to select from")
        out.append((rec.id, entries[0][0]))
    return out


# --- similarity vectors / tabular distributions ----------------------------

def read_vector_file(path: str | Path) -> dict[str, np.ndarray]:
    """Token vector table: one `token v1 v2 ...` line per token."""
    table: dict[str, np.ndarray] = {}
    dim = None
    with open(path, encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                vec = np.array([float(x) for x in parts[1:]], dtype=float)
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: bad vector component: {exc}") from exc
            if vec.size == 0:
                raise FileFormatError(f"{path}:{lineno}: token {parts[0]!r} has no vector components")
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise FileFormatError(f"{path}:{lineno}: vector dimension {vec.size} != {dim}")
            table[parts[0]] = vec
    if not table:
        raise FileFormatError(f"{path}: empty vector file")
    return table


def vectors_for_vocab(table: dict[str, np.ndarray], vocab: Vocabulary) -> dict[int, np.ndarray]:
    """Re-key a string-keyed vector table by vocabulary id (missing tokens dropped)."""
    return {i: table[token] for i, token in zip(vocab.surface_ids, vocab.tokens) if token in table}


def read_tabular_entries(path: str | Path) -> list[tuple[str, float]]:
    """Whole-sequence distribution file: {"entries": [["text", prob], ...]}."""
    with open(path, encoding="utf-8") as fp:
        try:
            payload = json.load(fp)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: not valid JSON: {exc}") from exc
    entries = payload.get("entries") if isinstance(payload, dict) else None
    if not isinstance(entries, list) or not entries:
        raise FileFormatError(f"{path}: expected a non-empty 'entries' list")
    out = []
    for item in entries:
        try:
            text, prob = item
            out.append((str(text), float(prob)))
        except (TypeError, ValueError) as exc:
            raise FileFormatError(f"{path}: bad entry {item!r}: {exc}") from exc
    return out


def write_enumeration(pairs: Iterable[tuple[str, float]], fp: IO[str]) -> None:
    """Line-delimited JSON (sequence string, probability) for inspection."""
    for text, prob in pairs:
        fp.write(json.dumps({"sequence": text, "prob": prob}, sort_keys=True) + "\n")


# --- evaluation report ------------------------------------------------------

# Report columns after the BLEU ones, each named after its EvalRow field.
_ROW_FIELDS = ("avg_length", "distinct_sequences", "distinct_unigrams", "distinct_bigrams", "exact_copy_rate",
               "partial_copy_rate")


def report_columns(max_n: int) -> list[str]:
    return ["system", *(f"bleu_{n}" for n in range(1, max_n + 1)), *_ROW_FIELDS]


def _row_values(row: EvalRow) -> list:
    return [row.system, *row.bleu, *(getattr(row, name) for name in _ROW_FIELDS)]


def write_report_tsv(rows: list[EvalRow], max_n: int, fp: IO[str]) -> None:
    fp.write("\t".join(report_columns(max_n)) + "\n")
    for row in rows:
        cells = ["" if v is None else (v if isinstance(v, str) else repr(v)) for v in _row_values(row)]
        fp.write("\t".join(cells) + "\n")


def write_report_json(rows: list[EvalRow], max_n: int, fp: IO[str]) -> None:
    cols = report_columns(max_n)
    payload = [dict(zip(cols, _row_values(row))) for row in rows]
    json.dump(payload, fp, sort_keys=True, indent=2)
    fp.write("\n")


METRIC_GROUPS = {
    "bleu": lambda col: col.startswith("bleu_"),
    "length": lambda col: col == "avg_length",
    "distinct": lambda col: col.startswith("distinct_"),
    "copies": lambda col: col.endswith("_copy_rate"),
}


def report_filter_columns(tsv_text: str, metric: str, max_n: int) -> str:
    """Restrict a report TSV to one metric group ('all' passes through)."""
    if metric == "all":
        return tsv_text
    if metric not in METRIC_GROUPS:
        raise FileFormatError(f"unknown metric group {metric!r}")
    keep = METRIC_GROUPS[metric]
    cols = report_columns(max_n)
    indices = [0] + [i for i, col in enumerate(cols) if keep(col)]
    lines = tsv_text.splitlines()
    out = []
    for line in lines:
        cells = line.split("\t")
        out.append("\t".join(cells[i] for i in indices))
    return "\n".join(out) + "\n"


def _check_logprob(logprob: float, path: str | Path, lineno: int) -> float:
    """Reject NaN and +inf; -inf (probability zero) stays legal."""
    if math.isnan(logprob) or logprob == math.inf:
        raise FileFormatError(f"{path}:{lineno}: log-probability must be finite or -Infinity, got {logprob}")
    return logprob


def record_key(record_id) -> object:
    """Hashable dict key for a record id; ids that are lists or objects key by their JSON text."""
    if isinstance(record_id, (list, dict)):
        return ("json", json.dumps(record_id, sort_keys=True))
    return record_id


def _check_unique_id(seen: dict, record_id, path: str | Path, lineno: int) -> None:
    """Record ``record_id``'s line, keyed by :func:`record_key`."""
    first = seen.setdefault(record_key(record_id), lineno)
    if first != lineno:
        raise FileFormatError(f"{path}:{lineno}: duplicate id {record_id!r} (first on line {first})")


def _read_jsonl(path: str | Path):
    with open(path, encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            if not line.strip():
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                raise FileFormatError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
