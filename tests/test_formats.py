"""Candidates and votes files: what a writer writes, its reader reads back."""

import math

from hypothesis import HealthCheck, given, settings, strategies as st

from votedecode.formats import (
    CandidateRecord,
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
    with open(path, "w", encoding="utf-8") as fp:
        writer(records, fp)
    return path


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
