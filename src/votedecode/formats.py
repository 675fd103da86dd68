"""On-disk formats: corpora, datasets, candidates, votes, reports.

The line-delimited JSON formats exchange token *strings*, so downstream
steps (voting, evaluation) do not need the model's vocabulary.  Floats are
serialized with full round-trip precision, and every file written is strict
JSON: a -inf log-probability (probability zero) is written as ``null``.

Every record of a dataset, candidates or votes file goes through one loop
under one set of rules: a record is a JSON object with an ``id`` and the
file's field; no two records share an id under :func:`record_key`; no id
is or holds NaN or ±Infinity, which strict JSON cannot write back; a file
holds at least one record.  A record's candidates or ranked entries form a
non-empty list; each entry's ``tokens`` is a list of strings and its
``logprob`` finite and <= 0, or ``null`` or -Infinity for probability zero
(NaN, +Infinity and any positive value are refused: no probability exceeds
1).  A dataset record's ``references`` is a non-empty list of strings, and
a votes record's scores and ``contributions`` are finite numbers.  A fault
is a :class:`FileFormatError` naming ``path:line``.
:func:`join_by_id` aligns one file's records to another's ids.

Every JSON scalar an input reads as a number, string or flag (run configs,
model and tabular files, records) goes through one input-value rule,
:func:`json_value`, which converts nothing: a bool is not a number, a number
is not a string, and a string is neither.  An integral number such as 2.0
reads as an integer, and an integer as a number if a float holds it.

Every output of a command, a single file or ``run``'s whole tree, is
written by one :func:`save_outputs` call, under one rule: no target is
replaced before every write succeeded, so a failed command leaves its
targets as they were and no partial file.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Iterable, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .metrics import EvalRow


class FileFormatError(ValueError):
    """Raised when an input file's contents do not match the expected format."""


# --- JSON values ---------------------------------------------------------------

JSON_KINDS = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}  # each kind's noun


def json_value(key: str, value, kind: type, nullable: bool = False):
    """``value`` read as JSON ``kind`` by the module's input-value rule; a ValueError naming ``key`` if not."""
    if type(value) is kind or value is None and nullable:
        return value
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:  # a larger one has no float
        return float(value)
    if kind is int and type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"{key} must be {JSON_KINDS[kind]}, got {value!r}")


def load_json(path: str | Path, error: type[ValueError] = FileFormatError):
    """The JSON value of the file at ``path``; text that is not JSON is an ``error`` naming the file."""
    with open(path, encoding="utf-8") as fp:
        try:
            return json.load(fp)
        except json.JSONDecodeError as exc:
            raise error(f"{path}: not valid JSON: {exc}") from exc


def parse_entries(entries, where: str, error: type[ValueError] = FileFormatError) -> list[tuple[str, float]]:
    """A run config's or tabular file's ``[text, probability]`` pairs: string texts, positive finite probabilities."""
    if not isinstance(entries, list):
        raise error(f"{where}: entries must be a list of [text, probability] pairs")
    parsed = []
    for i, entry in enumerate(entries):
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)):
            raise error(f"{where}: entries[{i}] must be a [text, probability] pair, got {entry!r}")
        try:
            prob = json_value("probability", entry[1], float)
        except ValueError as exc:
            raise error(f"{where}: entries[{i}]: {exc}") from exc
        if not 0.0 < prob < math.inf:
            raise error(f"{where}: entries[{i}]: probability must be positive and finite, got {prob}")
        parsed.append((entry[0], prob))
    return parsed


# --- writing ----------------------------------------------------------------

def save_outputs(*outputs: tuple[str | Path, Iterable[tuple[str, Callable, tuple]]]) -> None:
    """Write a command's ``(target, files)`` outputs as one: all of them, or nothing.

    Each file is ``(name, writer, args)``, written by ``writer(*args, fp)``
    to ``target / name``; the name ``""`` is ``target`` itself, a single
    file.  Every target is written into a temporary sibling, and the
    siblings are renamed into place once every writer has returned.  So:

    - no target is replaced before the whole write succeeded; a failed
      write leaves every target as it was, and no temporary sibling;
    - a symlinked target stays a link, and what it points to is replaced;
    - missing parent directories of a target are created;
    - new files and directories get the usual mode, the umask's.

    A target that exists as neither a regular file nor a directory (a
    device, a pipe), or as a directory for a file or a file for a tree, is
    refused with an ``OSError`` before any target is replaced.
    """
    with contextlib.ExitStack() as cleanup:
        staged = []
        for target, files in outputs:
            target = Path(target).resolve()  # through a symlink, so the rename replaces what it points to
            if target.exists() and not (target.is_file() or target.is_dir()):
                raise OSError(f"{target} is not a regular file or a directory")
            target.parent.mkdir(parents=True, exist_ok=True)
            staging = Path(tempfile.mkdtemp(prefix=f".{target.name}-", dir=target.parent))
            cleanup.callback(shutil.rmtree, staging, ignore_errors=True)
            tree = staging / target.name  # mkdtemp's own directory is private (mode 0700); this one is not
            for name, writer, args in files:
                path = tree / name
                path.parent.mkdir(parents=True, exist_ok=True)
                with open(path, "w", encoding="utf-8") as fp:
                    writer(*args, fp)
            if target.exists() and target.is_dir() != tree.is_dir():  # its rename would fail after others ran
                raise OSError(f"{target} is {'a' if target.is_dir() else 'not a'} directory")
            staged.append((tree, target))
        for tree, target in staged:
            os.replace(tree, target)


# --- corpus --------------------------------------------------------------

def read_corpus_lines(path: str | Path) -> list[str]:
    """UTF-8 corpus, one sentence per line; blank lines are kept as empty sentences."""
    with open(path, encoding="utf-8") as fp:
        return [line.rstrip("\n") for line in fp]


# --- records ----------------------------------------------------------------

def _read_records(path: str | Path, what: str, field: str, parse: Callable[[dict], object]) -> list:
    """Every record of a JSON-lines file under the module's record rules, each built by ``parse(obj)``."""
    records = []
    seen: dict = {}
    for lineno, obj in _read_jsonl(path):
        where = f"{path}:{lineno}"
        if type(obj) is not dict or "id" not in obj or field not in obj:
            raise FileFormatError(f"{where}: {what} rows need 'id' and '{field}'")
        try:
            first = seen.setdefault(record_key(obj["id"]), lineno)
        except ValueError:
            raise FileFormatError(f"{where}: id {obj['id']!r} is or holds NaN or Infinity") from None
        if first != lineno:
            raise FileFormatError(f"{where}: duplicate id {obj['id']!r} (first on line {first})")
        try:
            records.append(parse(obj))
        except ValueError as exc:
            raise FileFormatError(f"{where}: {exc}") from exc
    if not records:
        raise FileFormatError(f"{path}: no {what} records")
    return records


def _strings(value) -> bool:
    """Whether ``value`` is a list of strings; ``str.join`` checks every item's type in C."""
    try:
        "".join(value)
    except TypeError:
        return False
    return type(value) is list


def _entries(obj: dict, field: str) -> tuple:
    """A record's checked ``(tokens, logprob)`` entries, ``(tokens, logprob, score)`` for ``ranked``."""
    entries = obj[field]
    if type(entries) is not list or not entries:
        raise ValueError(f"'{field}' must be a non-empty list")
    scored = field == "ranked"
    out = []
    for entry in entries:
        try:
            tokens, logprob = entry["tokens"], entry["logprob"]
            score = json_value("score", entry["score"], float) if scored else 0.0
        except (KeyError, TypeError) as exc:
            keys = "'tokens', 'logprob' and 'score'" if scored else "'tokens' and 'logprob'"
            raise ValueError(f"{field} entries need {keys}, got {entry!r}") from exc
        if not _strings(tokens):
            raise ValueError(f"'tokens' must be a list of strings, got {tokens!r}")
        logprob = -math.inf if logprob is None else json_value("logprob", logprob, float)
        if not logprob <= 0:  # NaN compares false
            raise ValueError(f"log-probability must be finite and <= 0, null or -Infinity, got {logprob!r}")
        if not math.isfinite(score):
            raise ValueError(f"'score' must be a finite number, got {score!r}")
        out.append((tuple(tokens), logprob, score) if scored else (tuple(tokens), logprob))
    return tuple(out)


def join_by_id(ids: list, records: Iterable[tuple[object, object]], path: str | Path) -> list:
    """The record of ``path`` for each of ``ids``, in order; ``records`` are its ``(id, record)`` pairs."""
    by_key = {record_key(rec_id): rec for rec_id, rec in records}
    missing = [rec_id for rec_id in ids if record_key(rec_id) not in by_key]
    if missing:
        raise FileFormatError(f"{path}: no record for input {missing[0]!r}")
    return [by_key[record_key(rec_id)] for rec_id in ids]


def record_key(record_id) -> object:
    """Hashable dict key for a record id, a list or object by its JSON text; ValueError if it holds NaN or ±inf.

    A bool keys apart from the number it equals: the id ``true`` is not the id ``1``.
    """
    if isinstance(record_id, (list, dict)):
        return ("json", json.dumps(record_id, sort_keys=True, allow_nan=False))
    if type(record_id) is bool:
        return ("bool", record_id)
    if type(record_id) is float and not math.isfinite(record_id):
        raise ValueError(f"id {record_id!r} is not finite")
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

class DatasetRow(NamedTuple):
    """One input: its id, optional source text and reference texts.

    A NamedTuple: it equals the plain tuple of its fields, it unpacks, and ``_replace`` derives a copy.
    """

    id: object
    source: str | None
    references: tuple[str, ...]


def _dataset_row(obj: dict) -> DatasetRow:
    if not _strings(obj["references"]) or not obj["references"]:
        raise ValueError("'references' must be a non-empty list of strings")
    return DatasetRow(obj["id"], json_value("source", obj.get("source"), str, True), tuple(obj["references"]))


def read_dataset(path: str | Path) -> list[DatasetRow]:
    """Line-delimited JSON: {"id", "source"?, "references": [string, ...]}."""
    return _read_records(path, "dataset", "references", _dataset_row)


# --- candidates / votes ---------------------------------------------------

class CandidateRecord(NamedTuple):
    """One input's decoded candidates, token strings plus model log-probability.

    A NamedTuple: it equals the plain tuple of its fields, it unpacks, and ``_replace`` derives a copy.
    """

    id: object
    source: str | None
    candidates: tuple[tuple[tuple[str, ...], float], ...]


def write_candidates(records: Iterable[CandidateRecord], fp: IO[str]) -> None:
    for rec in records:
        obj: dict = {"id": rec.id}
        if rec.source is not None:
            obj["source"] = rec.source
        obj["candidates"] = [
            {"tokens": list(tokens), "logprob": None if logprob == -math.inf else logprob}
            for tokens, logprob in rec.candidates
        ]
        fp.write(json.dumps(obj, sort_keys=True, allow_nan=False) + "\n")


def _candidate_record(obj: dict) -> CandidateRecord:
    return CandidateRecord(obj["id"], json_value("source", obj.get("source"), str, True), _entries(obj, "candidates"))


def read_candidates(path: str | Path) -> list[CandidateRecord]:
    """Line-delimited JSON: {"id", "source"?, "candidates": [{"tokens", "logprob"}, ...]}."""
    return _read_records(path, "candidate", "candidates", _candidate_record)


class VoteRecord(NamedTuple):
    """One input's ranked election result.

    A NamedTuple: it equals the plain tuple of its fields, it unpacks, and ``_replace`` derives a copy.
    """

    id: object
    ranked: tuple[tuple[tuple[str, ...], float, float], ...]  # (tokens, logprob, score)
    contributions: tuple[tuple[float, ...], ...] | None = None


def write_votes(records: Iterable[VoteRecord], fp: IO[str]) -> None:
    for rec in records:
        obj: dict = {
            "id": rec.id,
            "ranked": [
                {"tokens": list(tokens), "logprob": None if logprob == -math.inf else logprob, "score": score}
                for tokens, logprob, score in rec.ranked
            ],
        }
        if rec.contributions is not None:
            obj["contributions"] = [list(row) for row in rec.contributions]
        fp.write(json.dumps(obj, sort_keys=True, allow_nan=False) + "\n")


def _vote_record(obj: dict) -> VoteRecord:
    ranked, contributions = _entries(obj, "ranked"), None
    if "contributions" in obj:
        rows = obj["contributions"]
        if type(rows) is list and all(type(row) is list for row in rows):
            contributions = tuple(tuple(json_value("a contribution", x, float) for x in row) for row in rows)
        if contributions is None or not all(math.isfinite(x) for row in contributions for x in row):
            raise ValueError("'contributions' must be a list of lists of finite numbers")
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
    """Token vector table: one `token v1 v2 ...` line per token, every component finite."""
    table: dict[str, np.ndarray] = {}
    line_of: dict[str, int] = {}
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
            if not np.isfinite(vec).all():
                raise FileFormatError(f"{path}:{lineno}: token {parts[0]!r} has a non-finite vector component")
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise FileFormatError(f"{path}:{lineno}: vector dimension {vec.size} != {dim}")
            if (first := line_of.setdefault(parts[0], lineno)) != lineno:
                raise FileFormatError(f"{path}:{lineno}: token {parts[0]!r} is listed twice, first on line {first}")
            table[parts[0]] = vec
    if not table:
        raise FileFormatError(f"{path}: empty vector file")
    return table


def read_tabular_entries(path: str | Path) -> list[tuple[str, float]]:
    """Whole-sequence distribution file: {"entries": [["text", prob], ...]}, each entry as a config's."""
    payload = load_json(path)
    entries = payload.get("entries") if isinstance(payload, dict) else None
    if not isinstance(entries, list) or not entries:
        raise FileFormatError(f"{path}: expected a non-empty 'entries' list")
    return parse_entries(entries, str(path))


def write_enumeration(pairs: Iterable[tuple[str, float]], fp: IO[str]) -> None:
    """Line-delimited JSON (sequence string, probability) for inspection."""
    for text, prob in pairs:
        fp.write(json.dumps({"sequence": text, "prob": prob}, sort_keys=True, allow_nan=False) + "\n")


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
    json.dump(list(map(_row_dict, rows)), fp, sort_keys=True, indent=2, allow_nan=False)
    fp.write("\n")


# Report columns by metric group; `eval --metric` keeps "system" and the group's columns.
METRIC_GROUPS = {
    "all": lambda col: True,
    "bleu": lambda col: col.startswith("bleu_"),
    "length": lambda col: col == "avg_length",
    "distinct": lambda col: col.startswith("distinct_"),
    "copies": lambda col: col.endswith("_copy_rate"),
}
