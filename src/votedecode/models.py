"""Sequence models: the next-token row contract plus two exact realizations.

``TabularModel`` wraps a finite distribution over whole sequences, giving the
oracles something they can enumerate exactly.  ``NGramLM`` is a trainable
add-k n-gram model.  Both are unconditional: the optional ``context``
argument is accepted for interface compatibility and ignored.

All probability arithmetic is in log space.  A next-token query returns a
sparse row ``(ids, logprobs, rest)``: the outcomes the history observed, in
ascending id order with their own log-probabilities, and the one value that
every other smoothed id (EOS and the surface ids) shares.  BOS, and UNK
when it is not among ``ids``, have probability 0.  ``rest`` is -inf under
MLE and for ``TabularModel``.  ``next_token_logprobs`` spreads a row over
the full id space for callers that want a dense vector.

An ``NGramLM`` builds a history's row on its first query, with one
``math.log`` per observed successor, and keeps it: the cache holds at most
one row per trained history, plus the one row all unseen histories share,
and never a dense vector.  Training counts off one flat id stream, each
line's ids then EOS, as ``index_corpus`` yields it or ``train_ngram_lm``
flattens its sequences: one scatter pads each line with BOS * (order - 1),
and one sort counts every (history, event) code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from typing import IO, Iterable, Protocol, runtime_checkable

import numpy as np

from .sequences import BOS_ID, EOS_ID, NUM_RESERVED, UNK_ID, Sequence, Vocabulary

NEG_INF = float("-inf")

# (ids, logprobs, rest): see the module docstring.
Row = tuple[np.ndarray, np.ndarray, float]

MODEL_FORMAT = "votedecode-ngram-lm"
MODEL_VERSION = 1


class ModelFormatError(ValueError):
    """Raised when a model file is malformed or has the wrong version."""


class ZeroMassPrefixError(ValueError):
    """Raised when a tabular model is queried with a prefix of zero mass."""


@runtime_checkable
class SequenceModel(Protocol):
    """Anything exposing next-token conditional log-probabilities.

    Contract: ``next_token_row`` returns ``(ids, logprobs, rest)`` with
    ``ids`` distinct, ascending and inside [EOS_ID, vocab.num_ids); see the
    module docstring.  For every reachable prefix the row's probabilities
    sum to 1 within 1e-9, and equal queries give identical rows.
    ``next_token_logprobs`` is the same row as a dense vector.
    """

    @property
    def vocab(self) -> Vocabulary: ...

    def next_token_row(self, prefix: Sequence, context: Sequence | None = None) -> Row: ...

    def next_token_logprobs(self, prefix: Sequence, context: Sequence | None = None) -> np.ndarray: ...


def dense_logprobs(row: Row, num_ids: int) -> np.ndarray:
    """A row spread over the full id space."""
    ids, logprobs, rest = row
    out = np.full(num_ids, NEG_INF)
    out[EOS_ID] = out[NUM_RESERVED:] = rest
    out[ids] = logprobs
    return out


def _frozen_row(ids: list[int], logprobs: list[float], rest: float) -> Row:
    ids_arr, lp_arr = np.array(ids, np.int64), np.array(logprobs, np.float64)
    ids_arr.flags.writeable = lp_arr.flags.writeable = False
    return ids_arr, lp_arr, rest


def sequence_logprob(model: SequenceModel, seq: Sequence, context: Sequence | None = None) -> float:
    """Log-probability of the full sequence, terminal EOS step included."""
    total = 0.0
    for i, token in enumerate(seq):
        total += float(model.next_token_logprobs(seq[:i], context)[token])
        if total == NEG_INF:
            return NEG_INF
    total += float(model.next_token_logprobs(seq, context)[EOS_ID])
    return total


@dataclass(frozen=True)
class TabularModel:
    """Exact distribution over a finite set of sequences.

    Conditionals come from prefix masses: P(t | prefix) is
    mass(prefix + t) / mass(prefix), and the EOS mass of a prefix is the
    probability of the prefix as a complete sequence.
    """

    vocab: Vocabulary
    entries: dict[Sequence, float]
    _mass: dict[Sequence, float] = field(repr=False)
    _children: dict[Sequence, tuple[int, ...]] = field(repr=False)

    def next_token_row(self, prefix: Sequence, context: Sequence | None = None) -> Row:
        prefix = tuple(prefix)
        mass = self._mass.get(prefix)
        if mass is None:
            raise ZeroMassPrefixError(f"prefix has zero probability mass: {prefix}")
        log_mass = math.log(mass)
        exact = self.entries.get(prefix)
        ids = [EOS_ID] if exact is not None else []
        logprobs = [math.log(exact) - log_mass] if exact is not None else []
        for token in self._children.get(prefix, ()):  # ascending, all above EOS_ID
            ids.append(token)
            logprobs.append(math.log(self._mass[prefix + (token,)]) - log_mass)
        return _frozen_row(ids, logprobs, NEG_INF)

    def next_token_logprobs(self, prefix: Sequence, context: Sequence | None = None) -> np.ndarray:
        return dense_logprobs(self.next_token_row(prefix, context), self.vocab.num_ids)

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
    children = {prefix: tuple(sorted(ids)) for prefix, ids in child_sets.items()}
    return TabularModel(vocab=vocab, entries=entries, _mass=mass, _children=children)


@dataclass(frozen=True)
class NGramLM:
    """Add-k smoothed n-gram model with EOS as an ordinary outcome.

    P(token | history) = (count + k) / (total + k * (V + 1)) where V + 1
    counts the surface vocabulary plus EOS.  UNK is scored from observed
    counts only (no pseudo-count), which keeps the distribution normalized
    when the training corpus contained out-of-vocabulary tokens.  Histories
    never seen in training fall back to the uniform smoothed distribution.
    """

    vocab: Vocabulary
    order: int
    add_k: float
    counts: dict[tuple[int, ...], dict[int, int]]
    # History (None for every unseen one) -> row, filled by queries; not part of the model's value.
    _rows: dict[tuple[int, ...] | None, Row] = field(default_factory=dict, init=False, repr=False, compare=False)

    def _history(self, prefix: Sequence) -> tuple[int, ...]:
        need = self.order - 1
        tail = tuple(prefix[-need:]) if need else ()
        return (BOS_ID,) * (need - len(tail)) + tail

    def next_token_row(self, prefix: Sequence, context: Sequence | None = None) -> Row:
        history = self._history(prefix)
        if history not in self.counts:
            history = None
        row = self._rows.get(history)
        if row is None:
            row = self._rows[history] = self._build_row(history)
        return row

    def next_token_logprobs(self, prefix: Sequence, context: Sequence | None = None) -> np.ndarray:
        return dense_logprobs(self.next_token_row(prefix, context), self.vocab.num_ids)

    def _build_row(self, history: tuple[int, ...] | None) -> Row:
        hist_counts = self.counts.get(history, {})
        total = sum(hist_counts.values())
        smoothed_outcomes = self.vocab.size + 1  # surface tokens + EOS
        denom = total + self.add_k * smoothed_outcomes
        if denom == 0.0:
            # Unseen history under MLE: unreachable by search, but keep the
            # conditional well defined (uniform over smoothed outcomes).
            return _frozen_row([], [], -math.log(smoothed_outcomes))
        log_denom = math.log(denom)
        # Every smoothed outcome without a count shares one value; only the
        # observed outcomes need their own log.
        ids, logprobs = [], []
        num_ids = self.vocab.num_ids
        for token, count in sorted(hist_counts.items()):
            if token == EOS_ID or NUM_RESERVED <= token < num_ids:
                num = count + self.add_k
            elif token == UNK_ID and count > 0:
                num = count  # UNK has no pseudo-count
            else:
                continue
            ids.append(token)
            logprobs.append(math.log(num) - log_denom if num > 0 else NEG_INF)
        rest = math.log(self.add_k) - log_denom if self.add_k > 0 else NEG_INF
        return _frozen_row(ids, logprobs, rest)


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
    histories = ids[seen[: len(sizes), None] + np.arange(-need, 0)].tolist()
    del ids, is_event, key  # freed before the dicts are built, to keep the peak low
    pairs = zip((codes % width).tolist(), totals.tolist())
    counts = {tuple(history): dict(islice(pairs, size)) for history, size in zip(histories, sizes.tolist())}
    return NGramLM(vocab=vocab, order=order, add_k=add_k, counts=counts)


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
        counts = {
            tuple(int(t) for t in hist): {int(e): int(c) for e, c in events}
            for hist, events in payload["counts"]
        }
        if any(c < 0 for events in counts.values() for c in events.values()):
            raise ValueError("event counts must be >= 0")
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model file: {exc}") from exc
    return NGramLM(vocab=vocab, order=order, add_k=add_k, counts=counts)
