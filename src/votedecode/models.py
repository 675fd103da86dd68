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
twice, each order from one stable sort over the whole table.  The beam
order is log-probability descending; the sampling order is probability
(``np.exp`` of the log-probability) descending, over the ids of positive
probability.  Both break ties by ascending id.  The two differ because
distinct log-probabilities can round to one probability, and the sampling
walk must then order those ids by id.  A query only slices the table, and
keeps the slices, so equal queries return one row object.

``NGramLM`` counts off one flat id stream, each line's ids then EOS, as
``index_corpus`` yields it or ``train_ngram_lm`` flattens its sequences:
one scatter pads each line with BOS * (order - 1), and one sort counts
every (history, event) code.  The sorted codes are the model's count table
(per-history offsets, ascending events, counts).  A row's log-probability
is ``LOG[num] - log_denom[h]``, with ``math.log`` taken once per distinct
numerator (a count plus ``add_k``, or UNK's bare count) and once per
distinct denominator: the IEEE subtraction of the two doubles a per-row
``math.log`` loop makes.  The dict-of-dicts ``counts`` is derived from the
table on demand, for saving, equality and tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from typing import IO, Iterable, Mapping, NamedTuple, Protocol

import numpy as np

from .sequences import BOS_ID, EOS_ID, NUM_RESERVED, UNK_ID, Sequence, Vocabulary

NEG_INF = float("-inf")

MODEL_FORMAT = "votedecode-ngram-lm"
MODEL_VERSION = 1


class Row(NamedTuple):
    """One next-token row (see the module docstring); every array is a read-only slice of a :class:`RowTable`."""

    ids: np.ndarray
    logprobs: np.ndarray
    rest: float
    # (ids, logprobs) in beam order: log-probability descending, ties by ascending id.
    beam: tuple[np.ndarray, np.ndarray]
    # (ids, logprobs, probabilities) of the ids of positive probability in sampling order, probability
    # descending, ties by ascending id; then the probability of ``rest``.
    sample: tuple[np.ndarray, np.ndarray, np.ndarray, float]

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
    """Rows laid end to end, each also presorted in beam and in sampling order.

    Row r is positions [offsets[r], offsets[r + 1]) of ``ids`` (ascending
    within a row) and ``logprobs``, with ``rest[r]``.
    """

    def __init__(self, offsets: np.ndarray, ids: np.ndarray, logprobs: np.ndarray, rest: np.ndarray):
        n = len(rest)
        row_of = np.repeat(np.arange(n), np.diff(offsets))
        # One np.exp over one contiguous array gives every probability, rest's included.
        probs = np.exp(np.concatenate((logprobs, rest)))
        probs, rest_probs = probs[: len(ids)], probs[len(ids) :]
        # Two orders: distinct log-probabilities can round to one probability.
        beam, sample = _descending_within_rows(logprobs, row_of), _descending_within_rows(probs, row_of)
        self._bounds = offsets.tolist()
        # Zero probabilities sort last, so a row's positive ones end here.
        self._positive = (offsets[:-1] + np.bincount(row_of[probs > 0.0], minlength=n)).tolist()
        self._columns = (ids, logprobs, ids[beam], logprobs[beam], ids[sample], logprobs[sample], probs[sample])
        for column in self._columns:
            column.flags.writeable = False
        self._rest = rest.tolist()
        self._rest_probs = rest_probs.tolist()
        self._slices: list[Row | None] = [None] * n  # kept, so equal queries return one row object

    def row(self, r: int) -> Row:
        row = self._slices[r]
        if row is None:
            a, b, p = self._bounds[r], self._bounds[r + 1], self._positive[r]
            ids, logprobs, beam_ids, beam_logprobs, sample_ids, sample_logprobs, sample_probs = self._columns
            row = self._slices[r] = Row(
                ids[a:b],
                logprobs[a:b],
                self._rest[r],
                (beam_ids[a:b], beam_logprobs[a:b]),
                (sample_ids[a:p], sample_logprobs[a:p], sample_probs[a:p], self._rest_probs[r]),
            )
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


def sequence_logprob(model: SequenceModel, seq: Sequence) -> float:
    """Log-probability of the full sequence, terminal EOS step included."""
    total = 0.0
    for i, token in enumerate(seq):
        total += model.next_token_row(seq[:i]).logprob_of(token)
        if total == NEG_INF:
            return NEG_INF
    total += model.next_token_row(seq).logprob_of(EOS_ID)
    return total


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
    row_offsets = np.zeros(len(denom) + 1, np.int64)
    np.cumsum(np.bincount(history[listed], minlength=len(denom)), out=row_offsets[1:])
    return RowTable(row_offsets, events[listed], logprobs, rest)


class NGramLM:
    """Add-k smoothed n-gram model with EOS as an ordinary outcome.

    P(token | history) = (count + k) / (total + k * (V + 1)) where V + 1
    counts the surface vocabulary plus EOS.  UNK is scored from observed
    counts only (no pseudo-count), which keeps the distribution normalized
    when the training corpus contained out-of-vocabulary tokens.  Histories
    never seen in training fall back to the uniform smoothed distribution.

    The counts are a table: history ``histories[h]``'s events are
    ``events[offsets[h]:offsets[h + 1]]``, ascending, with
    ``event_counts`` alongside.  A loaded file may hold events no row lists
    (BOS, zero counts under MLE); they still count towards their history's
    total.  Its events are ids of the vocabulary, reserved ones included.  A model's value is its vocabulary,
    order, ``add_k`` and ``counts``.
    """

    def __init__(self, vocab: Vocabulary, order: int, add_k: float, histories: Iterable[tuple[int, ...]],
                 offsets: np.ndarray, events: np.ndarray, event_counts: np.ndarray):
        self.vocab, self.order, self.add_k = vocab, order, add_k
        self._index = {history: h for h, history in enumerate(histories)}
        self._offsets, self._events, self._counts = offsets, events, event_counts
        self._table = _smoothed_rows(vocab, add_k, offsets, events, event_counts)

    @classmethod
    def from_counts(cls, vocab: Vocabulary, order: int, add_k: float,
                    counts: Mapping[tuple[int, ...], Mapping[int, int]]) -> NGramLM:
        """A model from (history, event) counts as a dict of dicts; histories keep the mapping's order."""
        rows = [sorted(events.items()) for events in counts.values()]
        pairs = np.array(list(chain.from_iterable(rows)), np.int64).reshape(-1, 2)
        offsets = np.cumsum([0, *map(len, rows)])
        return cls(vocab, order, add_k, map(tuple, counts), offsets, pairs[:, 0].copy(), pairs[:, 1].copy())

    @property
    def counts(self) -> dict[tuple[int, ...], dict[int, int]]:
        """The (history, event) counts as a dict of dicts, in table order, derived on each access."""
        pairs = zip(self._events.tolist(), self._counts.tolist())
        sizes = np.diff(self._offsets).tolist()
        return {history: dict(islice(pairs, size)) for history, size in zip(self._index, sizes)}

    def __eq__(self, other) -> bool:
        if not isinstance(other, NGramLM):
            return NotImplemented
        return (self.vocab, self.order, self.add_k, self.counts) == (other.vocab, other.order, other.add_k,
                                                                     other.counts)

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


def train_ngram_lm(corpus: Iterable[Sequence], order: int, add_k: float, vocab: Vocabulary) -> NGramLM:
    """Collect (history, event) counts with BOS padding and a terminal EOS per line (ids >= 0)."""
    corpus = list(corpus)
    ids = np.fromiter(chain.from_iterable(chain.from_iterable(zip(corpus, repeat((EOS_ID,))))), np.uint32)
    return train_on_stream(ids, np.fromiter(map(len, corpus), np.int64, len(corpus)), order, add_k, vocab)


def train_on_stream(events: np.ndarray, lengths: np.ndarray, order: int, add_k: float, vocab: Vocabulary) -> NGramLM:
    """:func:`train_ngram_lm` on a flat stream: each line's ``lengths[i]`` ids, then its EOS."""
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
    first = np.full(int(key.max()) + 1, len(ids))  # each key's first position; unused keys sort last
    np.minimum.at(first, key, np.flatnonzero(is_event))
    seen = np.sort(first)
    np.take(np.searchsorted(seen, first), key, out=key)  # renumbered, histories keep first-seen order
    key *= width
    key += events
    codes, totals = np.unique(key, return_counts=True)
    sizes = np.bincount(codes // width)
    offsets = np.zeros(len(sizes) + 1, np.int64)
    np.cumsum(sizes, out=offsets[1:])
    histories = ids[seen[: len(sizes), None] + np.arange(-need, 0)].tolist()
    del ids, is_event, key  # freed before the rows are built, to keep the peak low
    return NGramLM(vocab, order, add_k, map(tuple, histories), offsets, codes % width, totals)


def save_model(model: NGramLM, fp: IO[str]) -> None:
    """Serialize an NGramLM as versioned JSON; saves are byte-deterministic."""
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "order": model.order,
        "add_k": model.add_k,
        "vocab": list(model.vocab.tokens),
        "counts": [
            [list(hist), [[event, count] for event, count in sorted(events.items())]]
            for hist, events in sorted(model.counts.items())
        ],
    }
    json.dump(payload, fp, sort_keys=True, separators=(",", ":"))
    fp.write("\n")


def load_model(fp: IO[str]) -> NGramLM:
    """Parse a model file written by :func:`save_model`."""
    try:
        payload = json.load(fp)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ModelFormatError("not a votedecode n-gram model file")
    if payload.get("version") != MODEL_VERSION:
        raise ModelFormatError(f"unsupported model file version: {payload.get('version')!r}")
    try:
        vocab = Vocabulary(tokens=tuple(payload["vocab"]))
        order = int(payload["order"])
        add_k = float(payload["add_k"])
        check_training(order, add_k)
        counts: dict[tuple[int, ...], dict[int, int]] = {}
        for hist, events in payload["counts"]:
            history = tuple(int(t) for t in hist)
            if len(history) != order - 1:
                raise ValueError(f"history {list(history)} has {len(history)} ids, an order-{order} model needs {order - 1}")
            if history in counts:
                raise ValueError(f"history {list(history)} appears twice")
            row = counts[history] = {}
            for e, c in events:
                if not 0 <= int(e) < vocab.num_ids:
                    raise ValueError(f"event {int(e)} in history {list(history)} is outside the ids 0..{vocab.num_ids - 1}")
                if int(e) in row:
                    raise ValueError(f"event {int(e)} appears twice in history {list(history)}")
                row[int(e)] = int(c)
        if any(c < 0 for events in counts.values() for c in events.values()):
            raise ValueError("event counts must be >= 0")
        if any(sum(events.values()) >= 2**63 for events in counts.values()):
            raise ValueError("a history's counts must sum below 2**63")
        return NGramLM.from_counts(vocab, order, add_k, counts)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model file: {exc}") from exc
