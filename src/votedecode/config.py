"""Experiment configuration: schema, validation, and parsing.

A config is one JSON document (schema_version 1).  Relative paths resolve
against the config file's directory.  CLI flags override config values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .decode import DecodeSpec
from .models import check_training
from .voting import SimilaritySpec

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
class SelectSpec:
    name: str
    kind: str  # map | vote
    sim: SimilaritySpec | None = None
    voters: dict | None = None  # see parse_voter_spec
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


def _int(data: Mapping, key: str, default: int | None = None) -> int | None:
    """``data[key]`` as an integer, ``default`` if absent; null only where the default is None, and no fraction."""
    value = data.get(key, default)
    if value is None and default is None:
        return None
    if not isinstance(value, (int, float, str)) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _float(data: Mapping, key: str, default: float | None = None) -> float | None:
    """``data[key]`` as a float, ``default`` if absent; null only where the default is None.

    NaN and infinities pass here: each field's own range check refuses them.
    """
    value = data.get(key, default)
    if value is None and default is None:
        return None
    try:
        if not isinstance(value, (int, float, str)):
            raise TypeError
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be a number, got {value!r}") from None


def parse_entries(entries, where: str, error: type[ValueError] = ConfigError) -> list[tuple[str, float]]:
    """A config's or tabular file's ``[text, probability]`` pairs: string texts, positive finite probabilities."""
    if not isinstance(entries, list):
        raise error(f"{where}: entries must be a list of [text, probability] pairs")
    parsed = []
    for i, entry in enumerate(entries):
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)):
            raise error(f"{where}: entries[{i}] must be a [text, probability] pair, got {entry!r}")
        try:
            prob = _float({"probability": entry[1]}, "probability", 0.0)
        except ValueError as exc:
            raise error(f"{where}: entries[{i}]: {exc}") from exc
        if not 0.0 < prob < math.inf:
            raise error(f"{where}: entries[{i}]: probability must be positive and finite, got {prob}")
        parsed.append((entry[0], prob))
    return parsed


def _parse_model(data, where: str = "model") -> ModelSpec:
    if not isinstance(data, Mapping):
        raise ConfigError(f"{where}: must be an object")
    kind = _require(data, "kind", where)
    if kind == "train":
        _check_keys(data, {"kind", "corpus", "order", "add_k", "max_vocab"}, where)
        corpus = str(_require(data, "corpus", where))
        try:
            spec = ModelSpec(
                kind="train",
                corpus=corpus,
                order=_int(data, "order", 2),
                add_k=_float(data, "add_k", 0.0),
                max_vocab=_int(data, "max_vocab"),
            )
            check_training(spec.order, spec.add_k)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        if spec.max_vocab is not None and spec.max_vocab < 0:
            raise ConfigError(f"{where}: max_vocab must be >= 0, got {spec.max_vocab}")
        return spec
    if kind == "load":
        _check_keys(data, {"kind", "path"}, where)
        return ModelSpec(kind="load", path=str(_require(data, "path", where)))
    if kind == "tabular":
        _check_keys(data, {"kind", "entries", "path"}, where)
        entries = data.get("entries")
        path = data.get("path")
        if (entries is None) == (path is None):
            raise ConfigError(f"{where}: tabular model needs exactly one of 'entries' or 'path'")
        parsed = None if entries is None else tuple(parse_entries(entries, where))
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
    elif kind == "sample":
        _check_keys(data, {"name", "kind", "count", "strategy", "top_k", "top_p", "max_len"}, where)
        _require(data, "count", where)
    else:
        raise ConfigError(f"{where}: unknown decode kind {kind!r} (expected beam|sample)")
    try:
        return DecodeSpec(
            name=name,
            kind=kind,
            beam_size=_int(data, "beam_size", 1),
            max_len=_int(data, "max_len", 50),
            scoring=str(data.get("scoring", "logprob")),
            diverse_gamma=_float(data, "diverse_gamma", 0.0),
            filter_copies=_float(data, "filter_copies"),
            count=_int(data, "count", 1),
            strategy=str(data.get("strategy", "ancestral")),
            top_k=_int(data, "top_k"),
            top_p=_float(data, "top_p"),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# The DecodeSpec fields each voter kind may set; voters inherit every other one from their decode.
_VOTER_FIELDS = {"same": (), "beam": ("beam_size",), "sample": ("count", "strategy", "top_k", "top_p")}


def parse_voter_spec(value, where: str = "voters") -> dict | None:
    """Voter source: 'same', 'beam:K', 'sample:N[:strategy]', or an object of the same fields.

    Returns None for 'same' (the candidates vote), else the DecodeSpec fields
    the voters set.  Voters run their decode's search with those fields
    replaced; sampled voters always set ``top_k``/``top_p`` (None unless
    given), so a nucleus decode's ``top_p`` never reaches ancestral voters.
    """
    if isinstance(value, str):
        head, _, rest = value.partition(":")
        count, _, strategy = rest.partition(":")
        if value == "same":
            value = {"kind": "same"}
        elif head == "beam" and rest:
            value = {"kind": "beam", "beam_size": rest}
        elif head == "sample" and rest:
            value = {"kind": "sample", "count": count, "strategy": strategy or "ancestral"}
        else:
            raise ConfigError(f"{where}: cannot parse voter spec {value!r}")
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where}: voter spec must be a string or object, got {type(value).__name__}")
    kind = str(_require(value, "kind", where))
    if kind not in _VOTER_FIELDS:
        raise ConfigError(f"{where}: unknown voter kind {kind!r} (expected same|beam|sample)")
    _check_keys(value, {"kind", *_VOTER_FIELDS[kind]}, where)
    if kind == "same":
        return None
    _require(value, "beam_size" if kind == "beam" else "count", where)
    try:
        if kind == "beam":
            voters = {"kind": kind, "beam_size": _int(value, "beam_size", 1)}
        else:
            voters = {
                "kind": kind,
                "count": _int(value, "count", 1),
                "strategy": str(value.get("strategy", "ancestral")),
                "top_k": _int(value, "top_k"),
                "top_p": _float(value, "top_p"),
            }
        DecodeSpec(**voters)  # the fields the voters set are checked now, the inherited ones with the decode entry
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return voters


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
        if not isinstance(sim_data, Mapping):
            raise ConfigError(f"{where}.sim: must be an object")
        _check_keys(sim_data, {"kind", "n", "max_n", "vectors"}, f"{where}.sim")
        try:
            sim = SimilaritySpec.from_dict({**sim_data, "n": _int(sim_data, "n"), "max_n": _int(sim_data, "max_n")})
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
    try:
        bleu_max_n = _int(metrics, "bleu_max_n", 4)
        copy_threshold = _float(metrics, "copy_threshold", 0.5)
    except ValueError as exc:
        raise ConfigError(f"metrics: {exc}") from exc

    stochastic = any(d.kind == "sample" for d in decode) or any(
        s.voters is not None and s.voters["kind"] == "sample" for s in select
    )
    if stochastic and "seed" not in data:
        raise ConfigError("config: 'seed' is required when sampling is configured")

    try:
        cfg = ExperimentConfig(
            model=model,
            dataset=str(_require(data, "dataset", "config")),
            decode=decode,
            select=select,
            seed=_int(data, "seed", 0),
            lowercase=bool(data.get("lowercase", False)),
            bleu_max_n=bleu_max_n,
            copy_threshold=copy_threshold,
            output_dir=str(data.get("output_dir", "out")),
        )
        # Rows run in order; 'workers' is still read and checked, then ignored.
        workers = _int(data, "workers")
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
