"""Sequence models: the next-token row contract plus two exact realizations.

``TabularModel`` wraps a finite distribution over whole sequences, giving the
oracles something they can enumerate exactly.  ``NGramLM`` is a trainable
add-k n-gram model.  Both are unconditional: a query is a prefix alone.

All probability arithmetic is in log space.  The model contract is one
query, ``next_token_row(prefix)``, returning a sparse :class:`Row`: the
outcomes the history observed (``ids``, ascending, with their own
``logprobs``), and the one value ``rest`` that every other smoothed id (EOS
and the surface ids) shares.  BOS, and UNK when it is not among ``ids``,
have probability 0 (:meth:`Row.logprob_of`).  ``rest`` is -inf under MLE
and for ``TabularModel``.  No consumer reads a dense vector: the one dense
spread, ``NGramLM.next_token_logprobs``, is only the benchmark tracer's hook.

Both models build every row once, when they are trained, loaded or built,
into one :class:`RowTable`: the rows laid end to end (CSR: per-row
offsets, ids, log-probabilities).  The table also holds each row presorted
once, by one stable sort over the whole table: log-probability descending,
ties by ascending id.  Beam search, the oracle's enumeration and sampling
all walk that one order.  Probabilities (``np.exp``) never rise along it,
so the ids of positive probability are a prefix of it, and the table keeps
their probabilities.  Ids whose distinct log-probabilities round to one
probability stay in log-probability order.  A query only slices the
table, and keeps the slices, so equal queries return one row object.

``NGramLM`` keeps its counts in one table: histories in ascending tuple
order, per-history offsets, ascending events and their counts.  Training
builds it off one flat id stream, each line's ids then EOS: one scatter pads
each line with BOS * (order - 1), and one sort counts every (history, event)
code.  Loading checks a file's entries as flat arrays and sorts them into the
same table; saving writes it out row by row.  A row's log-probability is
``LOG[num] - log_denom[h]``, with ``math.log`` taken once per distinct
numerator (a count plus ``add_k``, or UNK's bare count) and once per distinct
denominator: the IEEE subtraction of the two doubles a per-row loop makes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import IO, Iterable, NamedTuple, Protocol

import numpy as np

from .formats import json_value
from .sequences import BOS_ID, EOS_ID, NUM_RESERVED, UNK_ID, Sequence, Vocabulary

NEG_INF = float("-inf")

MODEL_FORMAT = "votedecode-ngram-lm"
MODEL_VERSION = 1


class Row(NamedTuple):
    """One next-token row (see the module docstring); every array is a read-only slice of a :class:`RowTable`."""

    ids: np.ndarray
    logprobs: np.ndarray
    rest: float
    # (ids, logprobs) presorted: log-probability descending, ties by ascending id.
    ranked: tuple[np.ndarray, np.ndarray]
    # The probabilities of ``ranked``'s positive-probability prefix, and the probability of ``rest``.
    probs: np.ndarray
    rest_prob: float

    def logprob_of(self, token: int) -> float:
        """One id's log-probability: its own value if listed, else ``rest`` for EOS and the surface ids, else -inf."""
        ids = self.ids
        i = int(np.searchsorted(ids, token))
        if i < len(ids) and ids[i] == token:
            return float(self.logprobs[i])
        return self.rest if token == EOS_ID or token >= NUM_RESERVED else NEG_INF


def _descending_within_rows(values: np.ndarray, row_of: np.ndarray) -> np.ndarray:
    """Positions by row, then value descending, then position: one stable sort of an integer code.

    The code is the row times the number of distinct values plus the value's
    descending rank, so equal values (-0.0 and 0.0 included) tie.
    """
    distinct, rank = np.unique(-values, return_inverse=True)
    return np.argsort(row_of * len(distinct) + rank, kind="stable")


class RowTable:
    """Rows laid end to end, each also presorted by log-probability descending, ties by ascending id.

    Row r is positions [offsets[r], offsets[r + 1]) of ``ids`` (ascending
    within a row) and ``logprobs``, with ``rest[r]``.
    """

    def __init__(self, offsets: np.ndarray, ids: np.ndarray, logprobs: np.ndarray, rest: np.ndarray):
        n = len(rest)
        row_of = np.repeat(np.arange(n), np.diff(offsets))
        # One np.exp over one contiguous array gives every probability, rest's included.
        probs = np.exp(np.concatenate((logprobs, rest)))
        probs, rest_probs = probs[: len(ids)], probs[len(ids) :]
        ranked = _descending_within_rows(logprobs, row_of)
        self._bounds = offsets.tolist()
        # Zero probabilities sort last, so a row's positive ones end here.
        self._positive = (offsets[:-1] + np.bincount(row_of[probs > 0.0], minlength=n)).tolist()
        self._columns = (ids, logprobs, ids[ranked], logprobs[ranked], probs[ranked])
        for column in self._columns:
            column.flags.writeable = False
        self._rest = rest.tolist()
        self._rest_probs = rest_probs.tolist()
        self._slices: list[Row | None] = [None] * n  # kept, so equal queries return one row object

    def row(self, r: int) -> Row:
        row = self._slices[r]
        if row is None:
            a, b, p = self._bounds[r], self._bounds[r + 1], self._positive[r]
            ids, logprobs, ranked_ids, ranked_logprobs, ranked_probs = self._columns
            row = self._slices[r] = Row(ids[a:b], logprobs[a:b], self._rest[r], (ranked_ids[a:b], ranked_logprobs[a:b]),
                                        ranked_probs[a:p], self._rest_probs[r])
        return row


class ModelFormatError(ValueError):
    """Raised when a model file is malformed or has the wrong version."""


class ZeroMassPrefixError(ValueError):
    """Raised when a tabular model is queried with a prefix of zero mass."""


class SequenceModel(Protocol):
    """Anything that answers next-token queries, one prefix at a time.

    Contract: a ``vocab`` and one method, ``next_token_row(prefix)``, which
    takes no context (models are unconditional) and returns a :class:`Row`
    with ``ids`` distinct, ascending and inside [EOS_ID, vocab.num_ids); see
    the module docstring.  For every reachable prefix the row's
    probabilities sum to 1 within 1e-9, and equal queries give identical
    rows.
    """

    @property
    def vocab(self) -> Vocabulary: ...

    def next_token_row(self, prefix: Sequence) -> Row: ...


@dataclass(frozen=True)
class TabularModel:
    """Exact distribution over a finite set of sequences.

    Conditionals come from prefix masses: P(t | prefix) is
    mass(prefix + t) / mass(prefix), and the EOS mass of a prefix is the
    probability of the prefix as a complete sequence.  Every prefix of
    positive mass has its row in ``_table``.
    """

    vocab: Vocabulary
    entries: dict[Sequence, float]
    _index: dict[Sequence, int] = field(repr=False, compare=False)  # prefix -> its row in _table
    _table: RowTable = field(repr=False, compare=False)

    def next_token_row(self, prefix: Sequence) -> Row:
        r = self._index.get(tuple(prefix))
        if r is None:
            raise ZeroMassPrefixError(f"prefix has zero probability mass: {tuple(prefix)}")
        return self._table.row(r)

    @property
    def max_len(self) -> int:
        return max((len(s) for s in self.entries), default=0)


def tabular_model(pairs: Iterable[tuple[Sequence, float]], vocab: Vocabulary) -> TabularModel:
    """Build a TabularModel from (sequence, probability) pairs.

    Probabilities must be positive; duplicate sequences are merged by
    summation and the result is normalized to total mass 1.
    """
    merged: dict[Sequence, float] = {}
    for seq, prob in pairs:
        seq = tuple(seq)
        if prob <= 0 or not math.isfinite(prob):
            raise ValueError(f"sequence probability must be positive and finite, got {prob}")
        for token in seq:
            if token in (BOS_ID, EOS_ID):
                raise ValueError("sequences may not contain BOS/EOS ids")
            if not (token == UNK_ID or token in vocab.surface_ids):
                raise ValueError(f"token id {token} not in vocabulary")
        merged[seq] = merged.get(seq, 0.0) + prob
    if not merged:
        raise ValueError("tabular model needs at least one entry")
    total = math.fsum(merged.values())
    entries = {seq: p / total for seq, p in merged.items()}

    # Prefix masses via fsum: exact rounding makes them order-independent.
    contributions: dict[Sequence, list[float]] = {}
    child_sets: dict[Sequence, set[int]] = {}
    for seq, p in entries.items():
        for cut in range(len(seq) + 1):
            contributions.setdefault(seq[:cut], []).append(p)
            if cut < len(seq):
                child_sets.setdefault(seq[:cut], set()).add(seq[cut])
    mass = {prefix: math.fsum(parts) for prefix, parts in contributions.items()}
    ids: list[int] = []
    logprobs: list[float] = []
    offsets = [0]
    for prefix, prefix_mass in mass.items():
        log_mass = math.log(prefix_mass)
        if prefix in entries:
            ids.append(EOS_ID)
            logprobs.append(math.log(entries[prefix]) - log_mass)
        for token in sorted(child_sets.get(prefix, ())):  # all above EOS_ID
            ids.append(token)
            logprobs.append(math.log(mass[prefix + (token,)]) - log_mass)
        offsets.append(len(ids))
    table = RowTable(np.array(offsets), np.array(ids, np.int64), np.array(logprobs, np.float64),
                     np.full(len(mass), NEG_INF))
    return TabularModel(vocab=vocab, entries=entries, _index={prefix: r for r, prefix in enumerate(mass)},
                        _table=table)


def _log(values: np.ndarray) -> np.ndarray:
    """``math.log`` of each value (-inf at 0), called once per distinct value."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([math.log(v) if v > 0 else NEG_INF for v in distinct.tolist()], np.float64)[inverse]


def _smoothed_rows(vocab: Vocabulary, add_k: float, offsets: np.ndarray, events: np.ndarray,
                   counts: np.ndarray) -> RowTable:
    """Every history's row of an :class:`NGramLM`, then the one row all unseen histories share."""
    smoothed_outcomes = vocab.size + 1  # surface tokens + EOS
    history = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    # Differences of a running int64 sum are exact (modulo 2**64) for every total below 2**63.
    running = np.concatenate(([0], np.cumsum(counts)))
    totals = np.append(running[offsets[1:]] - running[offsets[:-1]], 0)  # unseen histories count nothing
    denom = totals + add_k * smoothed_outcomes
    log_denom = _log(denom)
    # Only the observed smoothed outcomes and an observed UNK need their own value; every other
    # smoothed outcome shares ``rest``.  Events no row lists still count towards their total.
    smoothed = (events == EOS_ID) | (events >= NUM_RESERVED) & (events < vocab.num_ids)
    listed = (smoothed | (events == UNK_ID) & (counts > 0)) & (denom > 0)[history]
    numerators = np.where(smoothed, counts + add_k, counts)[listed]  # UNK has no pseudo-count
    logprobs = _log(numerators) - log_denom[history[listed]]
    rest = math.log(add_k) - log_denom if add_k > 0 else np.full(len(denom), NEG_INF)
    # A zero denominator (MLE, nothing counted) is unreachable by search, but keep the
    # conditional well defined: uniform over the smoothed outcomes.
    rest[denom == 0] = -math.log(smoothed_outcomes)
    row_offsets = np.append(0, np.cumsum(np.bincount(history[listed], minlength=len(denom))))
    return RowTable(row_offsets, events[listed], logprobs, rest)


class NGramLM:
    """Add-k smoothed n-gram model with EOS as an ordinary outcome.

    P(token | history) = (count + k) / (total + k * (V + 1)) where V + 1
    counts the surface vocabulary plus EOS.  UNK is scored from observed
    counts only (no pseudo-count), which keeps the distribution normalized
    when the training corpus contained out-of-vocabulary tokens.  Histories
    never seen in training fall back to the uniform smoothed distribution.

    Its counts are the module docstring's count table; in the package only
    :func:`train_on_stream` and :func:`load_model` build one.  Events no row
    lists (BOS, zero counts under MLE) still count towards their history's
    total.  A model's value is its vocabulary, order, ``add_k`` and count table.
    """

    def __init__(self, vocab: Vocabulary, order: int, add_k: float, histories: Iterable[tuple[int, ...]],
                 offsets: np.ndarray, events: np.ndarray, event_counts: np.ndarray):
        self.vocab, self.order, self.add_k = vocab, order, add_k
        self._index = {history: h for h, history in enumerate(histories)}
        self._arrays = offsets, events, event_counts
        self._table = _smoothed_rows(vocab, add_k, offsets, events, event_counts)

    @property
    def counts(self) -> dict[tuple[int, ...], dict[int, int]]:
        """The count table as a dict of dicts, in table order; derived on each access, so editing it changes nothing."""
        offsets, events, counts = self._arrays
        pairs = zip(events.tolist(), counts.tolist())
        return {history: dict(islice(pairs, size)) for history, size in zip(self._index, np.diff(offsets).tolist())}

    def __eq__(self, other) -> bool:
        if not isinstance(other, NGramLM):
            return NotImplemented
        mine, theirs = ((m.vocab, m.order, m.add_k, list(m._index), *map(np.ndarray.tolist, m._arrays)) for m in (self, other))
        return mine == theirs

    def __repr__(self) -> str:
        return f"NGramLM(vocab={self.vocab!r}, order={self.order}, add_k={self.add_k}, counts={self.counts!r})"

    def _history(self, prefix: Sequence) -> tuple[int, ...]:
        need = self.order - 1
        tail = tuple(prefix[-need:]) if need else ()
        return (BOS_ID,) * (need - len(tail)) + tail

    def next_token_row(self, prefix: Sequence) -> Row:
        # Row len(_index) is the one every unseen history shares.
        return self._table.row(self._index.get(self._history(prefix), len(self._index)))

    # bench/tracing.py patches next_token_logprobs by its name on this class, so this one
    # dense spread of a row over the id space stays although nothing in the package calls it.
    def next_token_logprobs(self, prefix: Sequence) -> np.ndarray:
        row = self.next_token_row(prefix)
        return np.array([row.logprob_of(token) for token in range(self.vocab.num_ids)])


def check_training(order: int, add_k: float) -> None:
    """Reject n-gram settings no model can be trained or loaded with."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not (math.isfinite(add_k) and add_k >= 0):
        raise ValueError(f"add_k must be finite and >= 0, got {add_k}")


def train_on_stream(events: np.ndarray, lengths: np.ndarray, order: int, add_k: float, vocab: Vocabulary) -> NGramLM:
    """An :class:`NGramLM` counted off a flat stream, each line's ``lengths[i]`` ids (>= 0) then its EOS, BOS-padded."""
    check_training(order, add_k)
    if not len(lengths):
        raise ValueError("training corpus is empty")
    need = order - 1
    spans = lengths + order
    is_event = np.ones(int(spans.sum()), bool)
    is_event[(np.cumsum(spans) - spans)[:, None] + np.arange(need)] = False
    ids = np.full(len(is_event), BOS_ID, np.uint32)
    ids[is_event] = events
    width = int(ids.max()) + 1
    key = np.zeros(len(events), np.int64)
    for offset in range(-need, 0):  # ranked once it spans two slots, a key stays below (#histories) * width
        key *= width
        key += ids[:offset][is_event[-offset:]]
        if offset > -need:
            key = np.unique(key, return_inverse=True)[1]
    # Keys now follow the histories' ascending tuple order: dense ranks, or for order 2 the one id itself.
    where = np.zeros(int(key.max()) + 1, np.int64)
    where[key] = np.flatnonzero(is_event)  # a stream position of each key's history
    key *= width
    key += events
    codes, totals = np.unique(key, return_counts=True)
    offsets = np.append(np.flatnonzero(np.diff(codes // width, prepend=-1)), len(codes))
    histories = ids[where[codes[offsets[:-1]] // width, None] + np.arange(-need, 0)].tolist()
    del ids, is_event, key  # freed before the rows are built, to keep the peak low
    return NGramLM(vocab, order, add_k, map(tuple, histories), offsets, codes % width, totals)


def save_model(model: NGramLM, fp: IO[str]) -> None:
    """Serialize an NGramLM as versioned JSON, its count table row by row; saves are byte-deterministic."""
    pairs = np.stack(model._arrays[1:], axis=1).tolist()
    bounds = model._arrays[0].tolist()
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "order": model.order,
        "add_k": model.add_k,
        "vocab": list(model.vocab.tokens),
        "counts": [[list(hist), pairs[a:b]] for hist, a, b in zip(model._index, bounds, bounds[1:])],
    }
    fp.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")  # one write: json.dump streams many small ones


def _integers(rows: list, width: int, what: str) -> np.ndarray:
    """Rows of ``width`` JSON numbers as one int64 array, by :func:`formats.json_value`'s integer rule in bulk.

    Types are checked before ``np.array``, which would read a bool among integers as 0 or 1.
    """
    flat = list(chain.from_iterable(rows))
    if not (types := set(map(type, flat))) <= {int, float}:
        raise ValueError(f"{what} must be integers, got {next(v for v in flat if type(v) not in (int, float))!r}")
    exact = np.array(flat, np.int64).reshape(len(rows), width)  # refuses ints past int64
    if float in types and (fraction := exact.ravel() != (inferred := np.array(flat))).any():
        raise ValueError(f"{what} must be integers, got {inferred[fraction][0]}")
    return exact


def load_model(fp: IO[str]) -> NGramLM:
    """Parse a model file written by :func:`save_model`, its entries in any order, into the count table.

    Of several faults, the first kind of these is reported: a history of the wrong length or an event
    outside the ids (the first in the file), an event twice in one entry or a history twice (the first in
    ascending order), a negative count, a total of 2**63 or more.
    """
    try:
        payload = json.load(fp)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ModelFormatError("not a votedecode n-gram model file")
    if payload.get("version") != MODEL_VERSION:
        raise ModelFormatError(f"unsupported model file version: {payload.get('version')!r}")
    try:
        if not isinstance(payload["vocab"], list):  # a string would split into its characters
            raise ValueError(f"vocab must be a list of strings, got {type(payload['vocab']).__name__}")
        vocab = Vocabulary(tokens=tuple(payload["vocab"]))
        order, add_k = json_value("order", payload["order"], int), json_value("add_k", payload["add_k"], float)
        check_training(order, add_k)
        entries, need = payload["counts"], order - 1
        if (hist := next((hist for hist, _ in entries if len(hist) != need), None)) is not None:
            raise ValueError(f"history {[int(t) for t in hist]} has {len(hist)} ids, an order-{order} model needs {need}")
        histories = _integers([hist for hist, _ in entries], need, "history ids")
        entry_of = np.repeat(np.arange(len(entries)), [len(events) for _, events in entries])
        pairs = [pair for _, events in entries for pair in events]
        if set(map(len, pairs)) - {2}:
            raise ValueError("every event entry must be an [event, count] pair")
        events, counts = _integers(pairs, 2, "events and counts").T
        if (outside := (events < 0) | (events >= vocab.num_ids)).any():
            e = outside.argmax()
            raise ValueError(f"event {events[e]} in history {histories[entry_of[e]].tolist()} is outside the ids 0..{vocab.num_ids - 1}")
        by_history = np.lexsort((np.arange(len(entries)), *histories.T[::-1]))  # entries in file order on a tie
        histories, row_of = histories[by_history], np.argsort(by_history)[entry_of]  # each event's table row
        by_event = np.lexsort((events, row_of))
        events, counts, row_of = events[by_event], counts[by_event], row_of[by_event]
        if (twice := (events[1:] == events[:-1]) & (row_of[1:] == row_of[:-1])).any():
            e = twice.argmax()
            raise ValueError(f"event {events[e]} appears twice in history {histories[row_of[e]].tolist()}")
        if (twice := (histories[1:] == histories[:-1]).all(axis=1)).any():
            raise ValueError(f"history {histories[twice.argmax()].tolist()} appears twice")
        if np.any(counts < 0):
            raise ValueError("event counts must be >= 0")
        offsets = np.searchsorted(row_of, np.arange(len(entries) + 1))
        # Exact totals: the counts' high and low 32-bit halves, summed apart, cannot wrap.
        running = np.pad(np.cumsum((counts >> 32, counts & 0xFFFFFFFF), axis=1), ((0, 0), (1, 0)))
        high, low = running[:, offsets[1:]] - running[:, offsets[:-1]]
        if np.any(high + (low >> 32) >= 2**31):
            raise ValueError("a history's counts must sum below 2**63")
        return NGramLM(vocab, order, add_k, map(tuple, histories.tolist()), offsets, events, counts)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model file: {exc}") from exc
