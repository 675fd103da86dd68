"""On-disk formats: corpora, datasets, candidates, votes, reports.

The line-delimited JSON formats exchange token *strings*, so downstream
steps (voting, evaluation) do not need the model's vocabulary.  Floats are
serialized with full round-trip precision.

Every record of a dataset, candidates or votes file goes through one loop
under one set of rules: a record is a JSON object with an ``id`` and the
file's field; no two records share an id under :func:`record_key`; a file
holds at least one record.  A record's candidates or ranked entries form a
non-empty list; each entry's ``tokens`` is a list of strings and its
``logprob`` a number that is finite or -Infinity (probability zero; NaN and
+Infinity are refused).  A fault is a :class:`FileFormatError` naming
``path:line``.  :func:`join_by_id` aligns one file's records to another's ids.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterable

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


# --- records ----------------------------------------------------------------

def _read_records(path: str | Path, what: str, field: str, parse: Callable[[dict, str], object]) -> list:
    """Every record of a JSON-lines file under the module's record rules, each built by ``parse(obj, where)``."""
    records = []
    seen: dict = {}
    for lineno, obj in _read_jsonl(path):
        where = f"{path}:{lineno}"
        if type(obj) is not dict or "id" not in obj or field not in obj:
            raise FileFormatError(f"{where}: {what} rows need 'id' and '{field}'")
        first = seen.setdefault(record_key(obj["id"]), lineno)
        if first != lineno:
            raise FileFormatError(f"{where}: duplicate id {obj['id']!r} (first on line {first})")
        records.append(parse(obj, where))
    if not records:
        raise FileFormatError(f"{path}: no {what} records")
    return records


_NUMBER = (int, float)  # the types json gives numbers; bool is neither


def _strings(value) -> bool:
    """Whether ``value`` is a list of strings; ``str.join`` checks every item's type in C."""
    try:
        "".join(value)
    except TypeError:
        return False
    return type(value) is list


def _source(obj: dict, where: str) -> str | None:
    source = obj.get("source")
    if source is not None and type(source) is not str:
        raise FileFormatError(f"{where}: 'source' must be a string")
    return source


def _entries(obj: dict, field: str, where: str) -> tuple:
    """A record's checked ``(tokens, logprob)`` entries, ``(tokens, logprob, score)`` for ``ranked``."""
    entries = obj[field]
    if type(entries) is not list or not entries:
        raise FileFormatError(f"{where}: '{field}' must be a non-empty list")
    scored = field == "ranked"
    out = []
    for entry in entries:
        try:
            tokens, logprob = entry["tokens"], entry["logprob"]
            score = entry["score"] if scored else 0.0  # a number, so only a ranked entry's score is checked
        except (KeyError, TypeError) as exc:
            keys = "'tokens', 'logprob' and 'score'" if scored else "'tokens' and 'logprob'"
            raise FileFormatError(f"{where}: {field} entries need {keys}, got {entry!r}") from exc
        if not _strings(tokens):
            raise FileFormatError(f"{where}: 'tokens' must be a list of strings, got {tokens!r}")
        if type(logprob) not in _NUMBER or logprob != logprob or logprob == math.inf:
            raise FileFormatError(f"{where}: log-probability must be finite or -Infinity, got {logprob!r}")
        if type(score) not in _NUMBER:
            raise FileFormatError(f"{where}: 'score' must be a number, got {score!r}")
        out.append((tuple(tokens), float(logprob), float(score)) if scored else (tuple(tokens), float(logprob)))
    return tuple(out)


def join_by_id(ids: list, records: Iterable[tuple[object, object]], path: str | Path) -> list:
    """The record of ``path`` for each of ``ids``, in order; ``records`` are its ``(id, record)`` pairs."""
    by_key = {record_key(rec_id): rec for rec_id, rec in records}
    missing = [rec_id for rec_id in ids if record_key(rec_id) not in by_key]
    if missing:
        raise FileFormatError(f"{path}: no record for input {missing[0]!r}")
    return [by_key[record_key(rec_id)] for rec_id in ids]


def record_key(record_id) -> object:
    """Hashable dict key for a record id; ids that are lists or objects key by their JSON text."""
    if isinstance(record_id, (list, dict)):
        return ("json", json.dumps(record_id, sort_keys=True))
    return record_id


def _read_jsonl(path: str | Path):
    with open(path, encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            if not line.strip():
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                raise FileFormatError(f"{path}:{lineno}: not valid JSON: {exc}") from exc


# --- dataset --------------------------------------------------------------

@dataclass(frozen=True)
class DatasetRow:
    id: object
    source: str | None
    references: tuple[str, ...]


def _dataset_row(obj: dict, where: str) -> DatasetRow:
    if not _strings(obj["references"]):
        raise FileFormatError(f"{where}: 'references' must be a list of strings")
    return DatasetRow(id=obj["id"], source=_source(obj, where), references=tuple(obj["references"]))


def read_dataset(path: str | Path) -> list[DatasetRow]:
    """Line-delimited JSON: {"id", "source"?, "references": [string, ...]}."""
    return _read_records(path, "dataset", "references", _dataset_row)


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


def _candidate_record(obj: dict, where: str) -> CandidateRecord:
    return CandidateRecord(id=obj["id"], source=_source(obj, where), candidates=_entries(obj, "candidates", where))


def read_candidates(path: str | Path) -> list[CandidateRecord]:
    """Line-delimited JSON: {"id", "source"?, "candidates": [{"tokens", "logprob"}, ...]}."""
    return _read_records(path, "candidate", "candidates", _candidate_record)


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


def _vote_record(obj: dict, where: str) -> VoteRecord:
    ranked, contributions = _entries(obj, "ranked", where), None
    if "contributions" in obj:
        rows = obj["contributions"]
        if type(rows) is not list or not all(type(row) is list and all(type(x) in _NUMBER for x in row) for row in rows):
            raise FileFormatError(f"{where}: 'contributions' must be a list of lists of numbers")
        contributions = tuple(tuple(map(float, row)) for row in rows)
    return VoteRecord(id=obj["id"], ranked=ranked, contributions=contributions)


def read_votes(path: str | Path) -> list[VoteRecord]:
    """Line-delimited JSON: {"id", "ranked": [{"tokens", "logprob", "score"}, ...], "contributions"?}."""
    return _read_records(path, "vote", "ranked", _vote_record)


def read_hypotheses(path: str | Path) -> list[tuple[object, tuple[str, ...]]]:
    """Top-ranked output per record from either a candidates or a votes file.

    A first record with a ``ranked`` key makes it a votes file; anything
    else is read, and its faults reported, as a candidates file.
    """
    with contextlib.closing(_read_jsonl(path)) as lines:
        _, first = next(lines, (None, None))
    if isinstance(first, dict) and "ranked" in first:
        return [(rec.id, rec.ranked[0][0]) for rec in read_votes(path)]
    return [(rec.id, rec.candidates[0][0]) for rec in read_candidates(path)]


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


def _row_dict(row: EvalRow) -> dict:
    values = [row.system, *row.bleu, *(getattr(row, name) for name in _ROW_FIELDS)]
    return dict(zip(report_columns(len(row.bleu)), values))


def write_report_tsv(rows: list[EvalRow], columns: list[str], fp: IO[str]) -> None:
    """The report's ``columns``, any of :func:`report_columns`, as a TSV."""
    fp.write("\t".join(columns) + "\n")
    for row in map(_row_dict, rows):
        cells = (row[col] for col in columns)
        fp.write("\t".join("" if v is None else (v if isinstance(v, str) else repr(v)) for v in cells) + "\n")


def write_report_json(rows: list[EvalRow], fp: IO[str]) -> None:
    json.dump(list(map(_row_dict, rows)), fp, sort_keys=True, indent=2)
    fp.write("\n")


# Report columns by metric group; `eval --metric` keeps "system" and the group's columns.
METRIC_GROUPS = {
    "all": lambda col: True,
    "bleu": lambda col: col.startswith("bleu_"),
    "length": lambda col: col == "avg_length",
    "distinct": lambda col: col.startswith("distinct_"),
    "copies": lambda col: col.endswith("_copy_rate"),
}
