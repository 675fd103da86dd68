"""Every reader meets mutated input with a documented exit code and leaves no output behind.

Each test starts from one valid input of a kind (run config, flags file,
dataset, candidates, votes, model file, tabular file, vector file) and
applies one deterministic mutation at a time:

- a value swapped for another JSON type (bool, number, string, null, list,
  object);
- a number given as NaN, ±Infinity, ``1e400``, a 400-digit integer, a
  fraction or a negative;
- a key dropped or renamed, a list item (a record, an entry) dropped or
  duplicated, which duplicates a record id.

Every mutated input goes through ``cli.main`` with the command that reads
it.  The run must return 0 to 4 and raise nothing; a non-zero run must leave
no output target and no ``.<name>-*`` temporary sibling.

Size fields get no positive 400-digit integer: a run sized by one is
unbounded work (see the SIZE_KEYS comment).
"""

import copy
import json
import math
import re
import shutil

import pytest

from votedecode.cli import main

# Each starts work that grows with its value (a beam, a sample count, a length, an n-gram order, a number of
# resamples or nodes): a huge one can hang the run or exhaust memory instead of being refused.
SIZE_KEYS = {"order", "n", "max_n", "bleu_max_n", "beam_size", "count", "max_len", "n_bootstrap", "budget"}

_RAW = "\x00raw:"  # a string serialized as the JSON number text that follows it
HUGE = 10**400
TYPE_SWAPS = [("bool", True), ("number", 2), ("string", "a"), ("null", None), ("list", [1]), ("object", {"a": 1})]
NUMBERS = [("NaN", math.nan), ("Infinity", math.inf), ("-Infinity", -math.inf), ("1e400", _RAW + "1e400"),
           ("400 digits", HUGE), ("-400 digits", -HUGE), ("fraction", 0.5), ("negative", -1)]
_DROP = object()


def _nodes(value, path=()):
    """Every ``(path, value)`` below ``value``, a JSON document, depth first."""
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield (*path, key), child
        yield from _nodes(child, (*path, key))


def _edit(doc, path, new=_DROP, rename=False, duplicate=False):
    """A copy of ``doc`` with the node at ``path`` replaced by ``new``, dropped, renamed or duplicated."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if rename:
        parent[f"{key}_x"] = parent.pop(key)
    elif duplicate:
        parent.insert(key, copy.deepcopy(parent[key]))
    elif new is _DROP:
        del parent[key]
    else:
        parent[key] = new
    return doc


def mutations(doc):
    """``(label, mutated document)`` for every mutation of every node of ``doc``."""
    for path, value in _nodes(doc):
        key = next((k for k in reversed(path) if isinstance(k, str)), None)
        label = "/".join(map(str, path))
        for name, new in TYPE_SWAPS:
            if type(new) is not type(value):
                yield f"{label} as {name}", _edit(doc, path, new)
        if type(value) in (int, float):
            for name, new in NUMBERS:
                if not (new is HUGE and key in SIZE_KEYS):
                    yield f"{label} as {name}", _edit(doc, path, new)
        if isinstance(path[-1], str):
            yield f"{label} dropped", _edit(doc, path)
            yield f"{label} renamed", _edit(doc, path, rename=True)
        else:
            yield f"{label} dropped", _edit(doc, path)
            yield f"{label} duplicated", _edit(doc, path, duplicate=True)


def dumps(value) -> str:
    """JSON text of ``value``, NaN and ±Infinity included, each ``_RAW`` string as its number text."""
    return re.sub(r'"\\u0000raw:([^"]*)"', r"\1", json.dumps(value))


def jsonl(records) -> str:
    return "".join(dumps(record) + "\n" for record in records)


def vector_lines(lines) -> str:
    return "".join(" ".join(line) + "\n" for line in lines)


TABULAR = {"entries": [["a b", 0.5], ["a", 0.3], ["b a c", 0.2]]}
DATASET = [{"id": 1, "source": "a b", "references": ["a b", "a"]}, {"id": "two", "references": ["b a c"]}]
CANDIDATES = [
    {"id": 1, "source": "a b",
     "candidates": [{"tokens": ["a", "b"], "logprob": -0.5}, {"tokens": ["a"], "logprob": None}]},
    {"id": "two", "candidates": [{"tokens": ["b", "a", "c"], "logprob": -1.5}, {"tokens": ["a"], "logprob": -2}]},
]
VOTES = [
    {"id": 1,
     "ranked": [{"tokens": ["a", "b"], "logprob": -0.5, "score": 0.6},
                {"tokens": ["a"], "logprob": None, "score": 0.25}],
     "contributions": [[0.5, 0.0], [0.1, 0.0]]},
    {"id": "two", "ranked": [{"tokens": ["b", "a", "c"], "logprob": -1.5, "score": 0.2}]},
]
MODEL = {"format": "votedecode-ngram-lm", "version": 1, "order": 2, "add_k": 0.1, "vocab": ["a", "b", "c"],
         "counts": [[[1], [[3, 2], [4, 1]]], [[3], [[2, 1], [4, 1]]], [[4], [[2, 1], [5, 1]]], [[5], [[2, 1]]]]}
VECTORS = [["a", "1.0", "0.0"], ["b", "0.0", "1.0"], ["c", "0.5", "-0.5"]]
CONFIG = {
    "schema_version": 1,
    "seed": 1,
    "lowercase": False,
    "workers": 1,
    "model": {"kind": "tabular", "entries": TABULAR["entries"]},
    "dataset": "d.jsonl",
    "decode": [
        {"name": "b", "kind": "beam", "beam_size": 3, "max_len": 4, "scoring": "logprob", "diverse_gamma": 0.5,
         "filter_copies": 0.9},
        {"name": "s", "kind": "sample", "count": 3, "strategy": "nucleus", "top_p": 0.9, "max_len": 4},
    ],
    "select": [
        {"name": "map", "kind": "map"},
        {"name": "v", "kind": "vote", "sim": {"kind": "bleu", "max_n": 2}, "voters": {"kind": "sample", "count": 2},
         "contributions": True},
        {"name": "w", "kind": "vote", "sim": {"kind": "overl", "n": 1}, "voters": "beam:2"},
    ],
    "metrics": {"bleu_max_n": 2, "copy_threshold": 0.5},
    "output_dir": "out",
}
FLAGS = {"beam_size": 3, "max_len": 4, "scoring": "logprob", "diverse_gamma": 0.5, "filter_copies": 0.9, "seed": 2,
         "lowercase": False}


@pytest.fixture
def dirs(tmp_path):
    """``(inputs, outputs)``: every valid input written to ``inputs``, and an empty ``outputs`` directory."""
    inputs, outputs = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    outputs.mkdir()
    files = {"t.json": dumps(TABULAR), "d.jsonl": jsonl(DATASET), "c.jsonl": jsonl(CANDIDATES),
             "v.jsonl": jsonl(VOTES), "m.json": dumps(MODEL), "cfg.json": dumps(CONFIG), "flags.json": dumps(FLAGS),
             "vec.txt": vector_lines(VECTORS)}
    for name, text in files.items():
        (inputs / name).write_text(text, encoding="utf-8")
    return inputs, outputs


def commands(inputs, outputs):
    """Each input file's commands: argv lists that read it, every output under ``outputs``."""
    i = {name: str(inputs / name) for name in ("t.json", "d.jsonl", "c.jsonl", "v.jsonl", "m.json", "vec.txt")}
    decode = ["decode", "--dataset", i["d.jsonl"], "--beam-size", "3", "--max-len", "4",
              "--out", str(outputs / "c.jsonl")]
    vote = ["vote", "--candidates", i["c.jsonl"], "--out", str(outputs / "v.jsonl")]

    def eval_(hyps):
        return ["eval", "--hyps", i[hyps], "--dataset", i["d.jsonl"], "--out-tsv", str(outputs / "r.tsv")]

    return {
        "cfg.json": [["run", "--config", str(inputs / "cfg.json"), "--output-dir", str(outputs / "run")]],
        "flags.json": [["decode", "--config", str(inputs / "flags.json"), "--tabular", i["t.json"], "--dataset",
                        i["d.jsonl"], "--out", str(outputs / "c.jsonl")]],
        "d.jsonl": [decode + ["--tabular", i["t.json"], "--filter-copies", "0.9"], eval_("c.jsonl")],
        "c.jsonl": [vote + ["--sim", "overl", "--n", "1", "--contributions"],
                    vote + ["--voters", "beam:2", "--tabular", i["t.json"], "--sim", "prec", "--n", "1"],
                    eval_("c.jsonl")],
        "v.jsonl": [eval_("v.jsonl"), eval_("c.jsonl") + ["--compare", i["v.jsonl"], "--n-bootstrap", "5"]],
        "m.json": [decode + ["--model", i["m.json"]]],
        "t.json": [decode + ["--tabular", i["t.json"]]],
        "vec.txt": [vote + ["--sim", "embed_cosine", "--vectors", i["vec.txt"]]],
    }


def check(argv, outputs, label) -> str | None:
    """Run ``argv``; what went wrong, or None.  ``outputs`` is emptied for the next run."""
    try:
        code = main(argv)
    except Exception as exc:  # noqa: BLE001 - any exception escaping main is the defect looked for
        return f"{label}: {argv[0]} raised {type(exc).__name__}: {exc}"
    finally:
        left = sorted(path.name for path in outputs.iterdir())
        shutil.rmtree(outputs)
        outputs.mkdir()
    if code not in range(5):
        return f"{label}: {argv[0]} exited {code}"
    if code and left:
        return f"{label}: {argv[0]} exited {code} and left {left}"
    return None


def run_all(inputs, outputs, name, texts, capsys):
    """Every mutated text of the input ``name`` through each of its commands; assert that none went wrong."""
    path, argvs = inputs / name, commands(inputs, outputs)[name]
    for argv in argvs:  # the valid input itself runs
        assert main(argv) == 0, capsys.readouterr().err
        shutil.rmtree(outputs)
        outputs.mkdir()
    faults, runs = [], 0
    for label, text in texts:
        path.write_text(text, encoding="utf-8")
        for argv in argvs:
            runs += 1
            faults.append(check(argv, outputs, label))
        capsys.readouterr()
    faults = [fault for fault in faults if fault is not None]
    assert not faults, f"{len(faults)} of {runs} runs went wrong:\n" + "\n".join(faults)


@pytest.mark.parametrize(
    "name, doc, write",
    [
        ("cfg.json", CONFIG, dumps),
        ("flags.json", FLAGS, dumps),
        ("d.jsonl", DATASET, jsonl),
        ("c.jsonl", CANDIDATES, jsonl),
        ("v.jsonl", VOTES, jsonl),
        ("m.json", MODEL, dumps),
        ("t.json", TABULAR, dumps),
    ],
    ids=["run-config", "flags-file", "dataset", "candidates", "votes", "model-file", "tabular-file"],
)
def test_mutated_json_input(dirs, capsys, name, doc, write):
    run_all(*dirs, name, ((label, write(mutated)) for label, mutated in mutations(doc)), capsys)


def test_mutated_vector_file(dirs, capsys):
    """The vector file is text: each component becomes each mutation's JSON text, and cells and lines are dropped."""
    texts = [json.dumps(new) for _, new in TYPE_SWAPS] + ["nan", "inf", "-inf", "1e400", str(HUGE), "0.5", "-1"]

    def mutated():
        for li, line in enumerate(VECTORS):
            for ci in range(len(line)):
                for text in texts:
                    yield f"{li}/{ci} as {text[:12]}", vector_lines(_edit(VECTORS, (li, ci), text))
                yield f"{li}/{ci} dropped", vector_lines(_edit(VECTORS, (li, ci)))
            yield f"{li} dropped", vector_lines(_edit(VECTORS, (li,)))
            yield f"{li} duplicated", vector_lines(_edit(VECTORS, (li,), duplicate=True))

    run_all(*dirs, "vec.txt", mutated(), capsys)
