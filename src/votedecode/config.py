"""Experiment configuration: schema, validation, and parsing.

A config is one JSON document (schema_version 1).  Relative paths resolve
against the config file's directory.  CLI flags override config values.

The spec dataclasses are the schema.  Each scalar field's annotation gives
its JSON kind (an integer, a number, a string, or true/false) and its
default is what an absent key reads as.  Every value is read by the
input-value rule of :mod:`formats` (:func:`formats.json_value`); null stands
only where the field's default is None and the field is not required.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .decode import DecodeSpec
from .formats import JSON_KINDS, json_value, load_json, parse_entries
from .metrics import check_copy_threshold
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


# Each spec field's JSON key, where it is not the field's name.
_JSON_KEYS = {"vector_path": "vectors"}


@functools.cache
def _schema(cls) -> dict[str, tuple[str, type, bool]]:
    """The scalar fields of spec class ``cls`` by JSON key: each one's name, JSON kind and whether null may stand.

    Read once per class from the annotations (``from __future__`` keeps them strings).
    """
    kinds = {kind.__name__: kind for kind in JSON_KINDS}
    schema = {}
    for f in dataclasses.fields(cls):
        kind = kinds.get(f.type.removesuffix(" | None"))
        if kind is not None:
            schema[_JSON_KEYS.get(f.name, f.name)] = f.name, kind, f.default is None
    return schema


def _fields(cls, data, where: str, allowed: set[str], required: tuple[str, ...] = ()) -> dict:
    """The scalar fields of spec class ``cls`` that the object ``data`` sets, by name, each read by :func:`json_value`.

    ``data`` holds no key outside ``allowed`` and every key of ``required``,
    none of which may be null.  Keys that name no scalar field are left to
    the caller; a field ``data`` does not set keeps ``cls``'s default.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: must be an object")
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {sorted(unknown)}")
    for key in required:
        if key not in data:
            raise ConfigError(f"{where}: missing required field '{key}'")
    schema = _schema(cls)
    fields = {}
    try:
        for key, value in data.items():
            if key in schema:
                name, kind, nullable = schema[key]
                fields[name] = json_value(key, value, kind, nullable and key not in required)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return fields


def _kind(data, where: str, what: str, kinds: Mapping, default: str | None = None) -> str:
    """The object ``data``'s ``kind``, a key of ``kinds``; ``default`` where absent, required if that is None."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: must be an object")
    if "kind" not in data and default is None:
        raise ConfigError(f"{where}: missing required field 'kind'")
    kind = data.get("kind", default)
    if type(kind) is not str or kind not in kinds:
        raise ConfigError(f"{where}: unknown {what} kind {kind!r} (expected {'|'.join(kinds)})")
    return kind


def _build(cls, where: str, fields: dict):
    """``cls(**fields)``, a ValueError from its own checks a ConfigError naming ``where``."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# Per kind of each spec: the keys its object may hold, and the ones it must.
_MODEL_KEYS = {
    "train": ({"kind", "corpus", "order", "add_k", "max_vocab"}, ("corpus",)),
    "load": ({"kind", "path"}, ("path",)),
    "tabular": ({"kind", "entries", "path"}, ()),
}
_DECODE_KEYS = {
    "beam": ({"name", "kind", "beam_size", "max_len", "scoring", "diverse_gamma", "filter_copies"}, ("name",)),
    "sample": ({"name", "kind", "count", "strategy", "top_k", "top_p", "max_len"}, ("name", "count")),
}
_SELECT_KEYS = {
    "map": ({"name", "kind"}, ("name",)),
    "vote": ({"name", "kind", "sim", "voters", "contributions"}, ("name", "sim")),
}
# The keys each similarity kind reads; the cli refuses the similarity flags of the other kinds by it too.
SIM_KEYS = {
    "prec": {"kind", "n"},
    "overl": {"kind", "n"},
    "bleu": {"kind", "max_n"},
    "smoothed_bleu": {"kind", "max_n"},
    "embed_cosine": {"kind", "vectors"},
}
_CONFIG_KEYS = {
    "schema_version", "seed", "lowercase", "model", "dataset", "decode", "select", "metrics", "output_dir", "workers",
}


def _parse_model(data, where: str = "model") -> ModelSpec:
    kind = _kind(data, where, "model", _MODEL_KEYS)
    fields = _fields(ModelSpec, data, where, *_MODEL_KEYS[kind])
    if data.get("entries") is not None:
        fields["entries"] = tuple(parse_entries(data["entries"], where, ConfigError))
    spec = ModelSpec(**fields)
    if kind == "tabular" and (spec.entries is None) == (spec.path is None):
        raise ConfigError(f"{where}: tabular model needs exactly one of 'entries' or 'path'")
    if kind == "train":
        try:
            check_training(spec.order, spec.add_k)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        if spec.max_vocab is not None and spec.max_vocab < 0:
            raise ConfigError(f"{where}: max_vocab must be >= 0, got {spec.max_vocab}")
    return spec


def parse_decode_spec(data, where: str) -> DecodeSpec:
    """One decode entry of a run config; the ``decode`` command's flags form one too."""
    kind = _kind(data, where, "decode", _DECODE_KEYS, DecodeSpec.kind)
    return _build(DecodeSpec, where, _fields(DecodeSpec, data, where, *_DECODE_KEYS[kind]))


# The DecodeSpec fields each voter kind may set, the first of them required; voters inherit every other one
# from their decode.
_VOTER_FIELDS = {"same": (), "beam": ("beam_size",), "sample": ("count", "strategy", "top_k", "top_p")}


def parse_voter_spec(value, where: str = "voters") -> dict | None:
    """Voter source: 'same', 'beam:K', 'sample:N' (ancestral), or an object of the same fields.

    Only an object sets a sampling ``strategy`` and its ``top_k``/``top_p``.
    Returns None for 'same' (the candidates vote), else the DecodeSpec fields
    the voters set.  Voters run their decode's search with those fields
    replaced; sampled voters always set ``top_k``/``top_p`` (None unless
    given), so a nucleus decode's ``top_p`` never reaches ancestral voters.
    """
    if isinstance(value, str):
        head, _, rest = value.partition(":")
        if value == "same":
            value = {"kind": "same"}
        elif head in ("beam", "sample") and rest.isdecimal():
            value = {"kind": head, _VOTER_FIELDS[head][0]: int(rest)}
        else:
            raise ConfigError(f"{where}: cannot parse voter spec {value!r}")
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: voter spec must be a string or object, got {type(value).__name__}")
    kind = _kind(value, where, "voter", _VOTER_FIELDS)
    keys = _VOTER_FIELDS[kind]
    fields = _fields(DecodeSpec, value, where, {"kind", *keys}, keys[:1])
    if kind == "same":
        return None
    # The fields the voters set are checked now, the inherited ones with the decode entry.
    spec = _build(DecodeSpec, where, fields)
    return {key: getattr(spec, key) for key in ("kind", *keys)}


def _parse_sim(data, where: str) -> SimilaritySpec:
    """A vote's similarity: every key read and the kind checked, then any key that kind does not read refused."""
    fields = _fields(SimilaritySpec, data, where, set().union(*SIM_KEYS.values()), ("kind",))
    sim = _build(SimilaritySpec, where, fields)
    unread = sorted(data.keys() - SIM_KEYS[sim.kind])
    if unread:
        raise ConfigError(f"{where}: {sim.kind} similarity does not read {unread[0]!r}")
    if sim.kind == "embed_cosine" and sim.vector_path is None:
        raise ConfigError(f"{where}: embed_cosine needs a 'vectors' file path")
    return sim


def _parse_select(data, index: int) -> SelectSpec:
    where = f"select[{index}]"
    kind = _kind(data, where, "selection", _SELECT_KEYS)
    fields = _fields(SelectSpec, data, where, *_SELECT_KEYS[kind])
    if kind == "vote":
        fields["sim"] = _parse_sim(data["sim"], f"{where}.sim")
        if "voters" in data:
            fields["voters"] = parse_voter_spec(data["voters"], where=f"{where}.voters")
    return SelectSpec(**fields)


def parse_config(data: Mapping, base_dir: Path) -> ExperimentConfig:
    fields = _fields(ExperimentConfig, data, "config", _CONFIG_KEYS, ("model", "dataset", "decode", "select"))
    version = data.get("schema_version", SCHEMA_VERSION)
    if type(version) is bool or version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r} (this release reads {SCHEMA_VERSION})")
    model = _parse_model(data["model"])
    decode_list, select_list = data["decode"], data["select"]
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
    fields.update(_fields(ExperimentConfig, data.get("metrics", {}), "metrics", {"bleu_max_n", "copy_threshold"}))

    stochastic = any(d.kind == "sample" for d in decode) or any(
        s.voters is not None and s.voters["kind"] == "sample" for s in select
    )
    if stochastic and "seed" not in data:
        raise ConfigError("config: 'seed' is required when sampling is configured")

    cfg = ExperimentConfig(model=model, decode=decode, select=select, base_dir=base_dir, **fields)
    if cfg.bleu_max_n < 1:
        raise ConfigError(f"metrics.bleu_max_n must be >= 1, got {cfg.bleu_max_n}")
    try:
        check_copy_threshold(cfg.copy_threshold)
    except ValueError as exc:
        raise ConfigError(f"metrics.{exc}") from exc
    try:
        workers = json_value("workers", data.get("workers"), int, True)  # rows run in order: read, checked, ignored
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc
    if workers is not None and workers < 1:
        raise ConfigError(f"config: workers must be >= 1, got {workers}")
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    return parse_config(load_json(path, ConfigError), base_dir=path.parent)
