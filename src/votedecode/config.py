"""Experiment configuration: schema, validation, and parsing.

A config is one JSON document (schema_version 1).  Relative paths resolve
against the config file's directory.  CLI flags override config values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .decode import BeamParams, check_sampling, with_copy_filter
from .sequences import Sequence
from .voting import SimilaritySpec, VoterSpec

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Raised for invalid or inconsistent configuration."""


@dataclass(frozen=True)
class ModelSpec:
    kind: str  # train | load | tabular
    corpus: str | None = None
    order: int = 2
    add_k: float = 0.0
    max_vocab: int | None = None
    path: str | None = None
    entries: tuple[tuple[str, float], ...] | None = None


@dataclass(frozen=True)
class DecodeSpec:
    name: str = "decode"
    kind: str = "beam"  # beam | sample
    beam_size: int = 1
    max_len: int = 50
    scoring: str = "logprob"
    diverse_gamma: float = 0.0
    filter_copies: float | None = None
    count: int = 1
    strategy: str = "ancestral"
    top_k: int | None = None
    top_p: float | None = None

    def beam_params(self, context: Sequence | None = None) -> BeamParams:
        """Search settings for one input; the copy filter binds to a non-empty ``context``.

        A sample spec keeps the defaults: greedy search to its ``max_len``.
        """
        params = BeamParams(
            beam_size=self.beam_size,
            max_len=self.max_len,
            scoring=self.scoring,
            diverse_gamma=self.diverse_gamma,
        )
        if self.filter_copies is not None and context:
            params = with_copy_filter(params, context, self.filter_copies)
        return params


@dataclass(frozen=True)
class SelectSpec:
    name: str
    kind: str  # map | vote
    sim: SimilaritySpec | None = None
    voters: VoterSpec | None = None
    contributions: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    dataset: str
    decode: tuple[DecodeSpec, ...]
    select: tuple[SelectSpec, ...]
    seed: int = 0
    lowercase: bool = False
    bleu_max_n: int = 4
    copy_threshold: float = 0.5
    output_dir: str = "out"
    base_dir: Path = field(default_factory=Path, compare=False)

    def resolve(self, path: str) -> Path:
        p = Path(path)
        return p if p.is_absolute() else self.base_dir / p


def _require(mapping: Mapping, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required field '{key}'")
    return mapping[key]


def _check_keys(mapping: Mapping, allowed: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {sorted(unknown)}")


def _parse_model(data, where: str = "model") -> ModelSpec:
    if not isinstance(data, Mapping):
        raise ConfigError(f"{where}: must be an object")
    kind = _require(data, "kind", where)
    if kind == "train":
        _check_keys(data, {"kind", "corpus", "order", "add_k", "max_vocab"}, where)
        return ModelSpec(
            kind="train",
            corpus=str(_require(data, "corpus", where)),
            order=int(data.get("order", 2)),
            add_k=float(data.get("add_k", 0.0)),
            max_vocab=None if data.get("max_vocab") is None else int(data["max_vocab"]),
        )
    if kind == "load":
        _check_keys(data, {"kind", "path"}, where)
        return ModelSpec(kind="load", path=str(_require(data, "path", where)))
    if kind == "tabular":
        _check_keys(data, {"kind", "entries", "path"}, where)
        entries = data.get("entries")
        path = data.get("path")
        if (entries is None) == (path is None):
            raise ConfigError(f"{where}: tabular model needs exactly one of 'entries' or 'path'")
        parsed = None
        if entries is not None:
            try:
                parsed = tuple((str(t), float(p)) for t, p in entries)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{where}: bad tabular entries: {exc}") from exc
        return ModelSpec(kind="tabular", entries=parsed, path=None if path is None else str(path))
    raise ConfigError(f"{where}: unknown model kind {kind!r} (expected train|load|tabular)")


def parse_decode_spec(data, where: str) -> DecodeSpec:
    """One decode entry of a run config; the ``decode`` command's flags form one too."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"{where}: must be an object")
    name = str(_require(data, "name", where))
    kind = data.get("kind", "beam")
    if kind == "beam":
        _check_keys(data, {"name", "kind", "beam_size", "max_len", "scoring", "diverse_gamma", "filter_copies"}, where)
        try:
            spec = DecodeSpec(
                name=name,
                kind="beam",
                beam_size=int(data.get("beam_size", 1)),
                max_len=int(data.get("max_len", 50)),
                scoring=str(data.get("scoring", "logprob")),
                diverse_gamma=float(data.get("diverse_gamma", 0.0)),
                filter_copies=None if data.get("filter_copies") is None else float(data["filter_copies"]),
            )
            spec.beam_params()  # validate ranges now
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        if spec.filter_copies is not None and not 0.0 <= spec.filter_copies <= 1.0:
            raise ConfigError(f"{where}: filter_copies must be in [0,1], got {spec.filter_copies}")
        return spec
    if kind == "sample":
        _check_keys(data, {"name", "kind", "count", "strategy", "top_k", "top_p", "max_len"}, where)
        try:
            spec = DecodeSpec(
                name=name,
                kind="sample",
                count=int(_require(data, "count", where)),
                strategy=str(data.get("strategy", "ancestral")),
                top_k=None if data.get("top_k") is None else int(data["top_k"]),
                top_p=None if data.get("top_p") is None else float(data["top_p"]),
                max_len=int(data.get("max_len", 50)),
            )
            check_sampling(spec.strategy, spec.top_k, spec.top_p)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        return spec
    raise ConfigError(f"{where}: unknown decode kind {kind!r} (expected beam|sample)")


def parse_voter_spec(value, where: str = "voters") -> VoterSpec:
    """Voter source: 'same', 'beam:K', 'sample:N[:strategy]', or an object."""
    try:
        if isinstance(value, str):
            if value == "same":
                return VoterSpec(kind="same")
            head, _, rest = value.partition(":")
            if head == "beam" and rest:
                return VoterSpec(kind="beam", beam_size=int(rest))
            if head == "sample" and rest:
                count, _, strategy = rest.partition(":")
                return VoterSpec(kind="sample", count=int(count), strategy=strategy or "ancestral", seed=0)
            raise ConfigError(f"{where}: cannot parse voter spec {value!r}")
        if isinstance(value, Mapping):
            _check_keys(value, {"kind", "beam_size", "count", "strategy", "top_k", "top_p"}, where)
            kind = _require(value, "kind", where)
            return VoterSpec(
                kind=str(kind),
                beam_size=None if value.get("beam_size") is None else int(value["beam_size"]),
                count=None if value.get("count") is None else int(value["count"]),
                strategy=str(value.get("strategy", "ancestral")),
                top_k=None if value.get("top_k") is None else int(value["top_k"]),
                top_p=None if value.get("top_p") is None else float(value["top_p"]),
                seed=0 if value.get("kind") == "sample" else None,
            )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: voter spec must be a string or object, got {type(value).__name__}")


def _parse_select(data, index: int) -> SelectSpec:
    where = f"select[{index}]"
    if not isinstance(data, Mapping):
        raise ConfigError(f"{where}: must be an object")
    name = str(_require(data, "name", where))
    kind = _require(data, "kind", where)
    if kind == "map":
        _check_keys(data, {"name", "kind"}, where)
        return SelectSpec(name=name, kind="map")
    if kind == "vote":
        _check_keys(data, {"name", "kind", "sim", "voters", "contributions"}, where)
        sim_data = _require(data, "sim", where)
        try:
            sim = SimilaritySpec.from_dict(sim_data)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}.sim: {exc}") from exc
        voters = parse_voter_spec(data.get("voters", "same"), where=f"{where}.voters")
        return SelectSpec(name=name, kind="vote", sim=sim, voters=voters,
                          contributions=bool(data.get("contributions", False)))
    raise ConfigError(f"{where}: unknown selection kind {kind!r} (expected map|vote)")


def parse_config(data: Mapping, base_dir: Path) -> ExperimentConfig:
    if not isinstance(data, Mapping):
        raise ConfigError("config root must be an object")
    allowed = {
        "schema_version", "seed", "lowercase", "model", "dataset",
        "decode", "select", "metrics", "output_dir", "workers",
    }
    _check_keys(data, allowed, "config")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r} (this release reads {SCHEMA_VERSION})")
    model = _parse_model(_require(data, "model", "config"))
    decode_list = _require(data, "decode", "config")
    select_list = _require(data, "select", "config")
    if not isinstance(decode_list, list) or not decode_list:
        raise ConfigError("config: 'decode' must be a non-empty list")
    if not isinstance(select_list, list) or not select_list:
        raise ConfigError("config: 'select' must be a non-empty list")
    decode = tuple(parse_decode_spec(d, f"decode[{i}]") for i, d in enumerate(decode_list))
    select = tuple(_parse_select(s, i) for i, s in enumerate(select_list))
    for label, specs in (("decode", decode), ("select", select)):
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ConfigError(f"config: duplicate {label} names: {names}")

    metrics = data.get("metrics", {})
    if not isinstance(metrics, Mapping):
        raise ConfigError("config: 'metrics' must be an object")
    _check_keys(metrics, {"bleu_max_n", "copy_threshold"}, "metrics")

    stochastic = any(d.kind == "sample" for d in decode) or any(
        s.voters is not None and s.voters.kind == "sample" for s in select
    )
    if stochastic and "seed" not in data:
        raise ConfigError("config: 'seed' is required when sampling is configured")

    try:
        cfg = ExperimentConfig(
            model=model,
            dataset=str(_require(data, "dataset", "config")),
            decode=decode,
            select=select,
            seed=int(data.get("seed", 0)),
            lowercase=bool(data.get("lowercase", False)),
            bleu_max_n=int(metrics.get("bleu_max_n", 4)),
            copy_threshold=float(metrics.get("copy_threshold", 0.5)),
            output_dir=str(data.get("output_dir", "out")),
        )
        # Rows run in order; 'workers' is still read and checked, then ignored.
        workers = None if data.get("workers") is None else int(data["workers"])
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc
    if cfg.bleu_max_n < 1:
        raise ConfigError(f"metrics.bleu_max_n must be >= 1, got {cfg.bleu_max_n}")
    if not 0.0 <= cfg.copy_threshold <= 1.0:
        raise ConfigError(f"metrics.copy_threshold must be in [0,1], got {cfg.copy_threshold}")
    if workers is not None and workers < 1:
        raise ConfigError(f"config: workers must be >= 1, got {workers}")
    object.__setattr__(cfg, "base_dir", base_dir)
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    with open(path, encoding="utf-8") as fp:
        try:
            data = json.load(fp)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    return parse_config(data, base_dir=path.parent)
