"""Golden outputs: record a pass's artifacts once, then check every later pass against them.

An artifact is one output file (or captured stdout) of a pass, keyed by its
path relative to the pass's output directory.  Artifacts must be
byte-identical to the record, except votes files (any artifact whose first
path component starts with ``votes``): those must keep the same records,
tokens, log-probabilities and ranking, and every score may move by at most
``REL_TOL`` relative, which leaves room for re-ordered floating-point sums.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import struct
import zlib
from pathlib import Path

REL_TOL = 1e-12


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def is_votes(name: str) -> bool:
    return name.split("/")[0].startswith("votes")


def _split_votes(data: bytes) -> tuple[str, list[float]]:
    """Digest of everything but the scores, and the scores in file order."""
    ranking, scores = [], []
    for line in data.decode("utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        ranking.append([record["id"], [[c["tokens"], c["logprob"]] for c in record["ranked"]]])
        scores.extend(float(c["score"]) for c in record["ranked"])
    return sha256(json.dumps(ranking, sort_keys=True).encode("utf-8")), scores


def _pack(values: list[float]) -> str:
    return base64.b64encode(zlib.compress(struct.pack(f"<{len(values)}d", *values), 9)).decode("ascii")


def _unpack(text: str) -> list[float]:
    raw = zlib.decompress(base64.b64decode(text))
    return list(struct.unpack(f"<{len(raw) // 8}d", raw))


def record(artifacts: dict[str, bytes]) -> dict:
    """Golden entry for one pass's artifacts."""
    entry = {}
    for name, data in sorted(artifacts.items()):
        item = {"sha256": sha256(data)}
        if is_votes(name):
            item["ranking_sha256"], scores = _split_votes(data)
            item["scores"] = _pack(scores)
        entry[name] = item
    return entry


def mismatches(golden: dict, artifacts: dict[str, bytes]) -> list[str]:
    """Every way ``artifacts`` departs from ``golden``; empty when the pass matches.

    Artifacts the golden entry does not name are ignored, so a later version
    may add output files without failing the check.
    """
    problems = []
    for name, want in golden.items():
        data = artifacts.get(name)
        if data is None:
            problems.append(f"{name}: missing")
            continue
        if sha256(data) == want["sha256"]:
            continue
        if "scores" not in want:
            problems.append(f"{name}: bytes differ")
            continue
        try:
            ranking, scores = _split_votes(data)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"{name}: unreadable votes file ({exc!r})")
            continue
        if ranking != want["ranking_sha256"]:
            problems.append(f"{name}: records, tokens, log-probabilities or ranking differ")
            continue
        reference = _unpack(want["scores"])
        off = sum(not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0) for a, b in zip(scores, reference))
        if off or len(scores) != len(reference):
            problems.append(f"{name}: {off} scores differ by more than {REL_TOL} relative")
    return problems


def load(path: Path) -> dict[int, dict]:
    """Recorded seeds of one workload: seed -> {"inputs": {...}, "outputs": {...}}."""
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fp:
        return {int(seed): entry for seed, entry in json.load(fp)["seeds"].items()}


def save(path: Path, seeds: dict[int, dict]) -> None:
    payload = {"format": 1, "seeds": {str(seed): seeds[seed] for seed in sorted(seeds)}}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
