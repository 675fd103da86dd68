"""Spans around calls into each votedecode layer, recorded from outside the package.

Every public function is wrapped at the name its caller looks it up by
(``harness.beam_search``, ``cli.range_vote``, ...), and the model query at
class level (``NGramLM.next_token_logprobs``).  Spans stay in memory as
``[name, start, end, parent index]``; a layer's self time is its spans'
duration minus the part their child spans cover.  ``restore`` puts every
original back, so untraced passes run unpatched code.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter
from typing import Callable


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        span = [name, time.perf_counter(), None, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def spanned(self, name: str, count: Callable | None = None) -> Callable[[Callable], Callable]:
        """Wrapper factory: a span per call, then ``count(counts, arguments, result)`` on success."""

        def make(original: Callable) -> Callable:
            signature = inspect.signature(original)

            def wrapper(*args, **kwargs):
                result = self.call(name, original, *args, **kwargs)
                if count is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(self.counts, bound.arguments, result)
                return result

            wrapper.__wrapped__ = original
            return wrapper

        return make

    def writer(self, original: Callable) -> Callable:
        """Wrapper for ``formats.write_*(records, ..., fp)``: counts records and bytes."""

        def write(records, *rest):
            fp = rest[-1]
            start = fp.tell()
            records = list(records)
            self.call("formats.write", original, records, *rest)
            self.counts["formats.records_written"] += len(records)
            self.counts["formats.bytes_written"] += fp.tell() - start

        write.__wrapped__ = original
        return write

    def patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def install(self, vd: dict) -> None:
        """Wrap every layer boundary of the imported package (``vd``: module name -> module)."""
        cli, harness, voting = vd["cli"], vd["harness"], vd["voting"]
        self.patch(cli, "load_config", self.spanned("config.load"))
        self.patch(cli, "run_experiment", self.spanned("harness.run"))
        self.patch(harness, "build_model", self.spanned("models.build"))
        self.patch(vd["models"].NGramLM, "next_token_logprobs", self.spanned("models.query"))
        for owner in (harness, voting, cli):
            self.patch(owner, "beam_search", self.spanned("decode.beam", _count_sets))
            self.patch(owner, "sample_sequences", self.spanned("decode.sample", _count_samples))
        for owner in (harness, cli):
            self.patch(owner, "range_vote", self.spanned("voting.vote", _count_pairs))
            self.patch(owner, "evaluate_system", self.spanned("metrics.evaluate"))
            for attr, fn in sorted(vars(owner).items()):
                if getattr(fn, "__module__", None) != vd["formats"].__name__:
                    continue
                if attr.startswith("read_"):
                    self.patch(owner, attr, self.spanned("formats.read", _count_records))
                elif attr.startswith("write_"):
                    self.patch(owner, attr, self.writer)
        self.patch(cli, "paired_bootstrap", self.spanned("metrics.bootstrap", _count_resamples))

    def self_times(self) -> Counter:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out


def _count_sets(counts: Counter, arguments: dict, result) -> None:
    counts["decode.candidates"] += len(result.items)
    counts["decode.empty_sets"] += not result.items


def _count_samples(counts: Counter, arguments: dict, result) -> None:
    _count_sets(counts, arguments, result)
    counts["decode.sample_seqs"] += len(result.items)


def _count_pairs(counts: Counter, arguments: dict, result) -> None:
    counts["voting.pairs"] += len(arguments["candidates"].items) * len(arguments["voters"].items)


def _count_resamples(counts: Counter, arguments: dict, result) -> None:
    counts["metrics.bootstrap_resamples"] += arguments["n_bootstrap"]


def _count_records(counts: Counter, arguments: dict, result) -> None:
    if isinstance(result, list):
        counts["formats.records_read"] += len(result)
