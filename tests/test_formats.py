"""Candidates and votes files: what a writer writes, its reader reads back; and the value records, NamedTuples."""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from votedecode import DistinctStats, EnumeratedDistribution, EvalRow, ScoredSequence
from votedecode.formats import (
    CandidateRecord,
    DatasetRow,
    VoteRecord,
    read_candidates,
    read_hypotheses,
    read_votes,
    write_candidates,
    write_votes,
)

TOKENS = st.lists(st.text(min_size=1, max_size=5), max_size=4).map(tuple)
LOGPROBS = st.one_of(st.floats(max_value=0.0, allow_nan=False, allow_infinity=False), st.just(-math.inf))
SCORES = st.floats(allow_nan=False, allow_infinity=False)
IDS = st.one_of(st.integers(), st.text(max_size=4), st.lists(st.integers(), max_size=2))


def unique_ids(records):
    return [rec for i, rec in enumerate(records) if rec.id not in [r.id for r in records[:i]]]


CANDIDATE_FILES = st.lists(
    st.builds(
        CandidateRecord,
        id=IDS,
        source=st.one_of(st.none(), st.text(max_size=8)),
        candidates=st.lists(st.tuples(TOKENS, LOGPROBS), min_size=1, max_size=3).map(tuple),
    ),
    min_size=1,
    max_size=4,
).map(unique_ids)


@st.composite
def vote_files(draw):
    records = []
    for record_id in draw(st.lists(IDS, min_size=1, max_size=4, unique_by=repr)):
        ranked = tuple(draw(st.lists(st.tuples(TOKENS, LOGPROBS, SCORES), min_size=1, max_size=3)))
        contributions = None
        if draw(st.booleans()):
            voters = draw(st.integers(1, 3))
            contributions = tuple(tuple(draw(SCORES) for _ in ranked) for _ in range(voters))
        records.append(VoteRecord(id=record_id, ranked=ranked, contributions=contributions))
    return records


ROUND_TRIPS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def write(path, writer, records):
    """Write ``records`` to ``path``, and check that every line is strict JSON (no NaN or Infinity)."""
    with open(path, "w", encoding="utf-8") as fp:
        writer(records, fp)
    for line in path.read_text(encoding="utf-8").splitlines():
        json.loads(line, parse_constant=refuse_constant)
    return path


def refuse_constant(name):
    pytest.fail(f"non-standard JSON constant {name}")


@ROUND_TRIPS
@given(CANDIDATE_FILES)
def test_candidates_round_trip(tmp_path, records):
    path = write(tmp_path / "c.jsonl", write_candidates, records)
    assert read_candidates(path) == records
    assert read_hypotheses(path) == [(rec.id, rec.candidates[0][0]) for rec in records]


@ROUND_TRIPS
@given(vote_files())
def test_votes_round_trip(tmp_path, records):
    path = write(tmp_path / "v.jsonl", write_votes, records)
    assert read_votes(path) == records
    assert read_hypotheses(path) == [(rec.id, rec.ranked[0][0]) for rec in records]


# Each value record: field values, and its fields with their defaults, in the order they were declared.
RECORDS = [
    (ScoredSequence, ((3, 4), -1.5), ("tokens", "logprob"), {}),
    (DatasetRow, (0, "a b", ("a",)), ("id", "source", "references"), {}),
    (CandidateRecord, (1, None, ((("a",), -0.5),)), ("id", "source", "candidates"), {}),
    (VoteRecord, ("x", ((("a",), -0.5, 0.25),), ((0.25,),)), ("id", "ranked", "contributions"),
     {"contributions": None}),
    (DistinctStats, (2, 3, 1, 1.5), ("distinct_sequences", "distinct_unigrams", "distinct_bigrams", "avg_length"), {}),
    (EvalRow, ("sys", (0.5, 0.25), 2.0, 2, 3, 1, None, 0.0),
     ("system", "bleu", "avg_length", "distinct_sequences", "distinct_unigrams", "distinct_bigrams", "exact_copy_rate",
      "partial_copy_rate"), {}),
    (EnumeratedDistribution, ((ScoredSequence((3,), 0.0),), 1.0), ("entries", "total_mass"), {}),
]


@pytest.mark.parametrize("cls, values, fields, defaults", RECORDS, ids=[cls.__name__ for cls, *_ in RECORDS])
def test_a_value_record_is_the_tuple_of_its_fields(cls, values, fields, defaults):
    assert (cls._fields, cls._field_defaults) == (fields, defaults)
    record = cls(*values)
    assert record == values and tuple(record) == values
    required = values[: len(fields) - len(defaults)]
    assert cls(*required) == required + tuple(defaults.values())
    with pytest.raises(AttributeError):
        setattr(record, fields[0], "other")
    copy = record._replace(**{fields[0]: "other"})
    assert type(copy) is cls and copy == ("other", *values[1:])
    assert record == values
