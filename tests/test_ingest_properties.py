"""Properties of the run and qrels parsers over generated inputs: the
result does not depend on line order, canonical output re-parses to the
same value, and a repeated (topic, doc) pair is reported at its line."""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irdrift.ingest import ParseError, format_run, parse_qrels, parse_run

# tokens as str.split() yields them: non-empty, no whitespace
token = st.text(min_size=1, max_size=4).filter(lambda s: s.split() == [s])
# a few shared values make score ties common, including 0.0 against -0.0
score = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5]),
    st.floats(allow_nan=False, allow_infinity=False),
)
pairs = st.lists(st.tuples(token, token), min_size=1, max_size=30, unique=True)

SETTINGS = settings(deadline=None)


@st.composite
def run_lines(draw):
    """Valid run lines, one per distinct (topic, doc) pair, and their order."""
    keys = draw(pairs)
    tag = draw(token)
    lines = [
        f"{topic} Q0 {doc} {draw(st.integers(-5, 5))} {draw(score)!r} {tag}"
        for topic, doc in keys
    ]
    return lines, draw(st.permutations(lines))


@st.composite
def qrels_lines(draw):
    """Valid qrels lines, equal-grade duplicates included, and their order."""
    keys = draw(pairs)
    lines = [f"{topic} 0 {doc} {draw(st.integers(-2, 3))}" for topic, doc in keys]
    lines += draw(st.lists(st.sampled_from(lines), max_size=3))
    return lines, draw(st.permutations(lines))


@SETTINGS
@given(run_lines())
def test_parse_run_ignores_line_order(case):
    lines, shuffled = case
    assert parse_run(shuffled, "t0") == parse_run(lines, "t0")


@SETTINGS
@given(qrels_lines())
def test_parse_qrels_ignores_line_order(case):
    lines, shuffled = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # clamped grades, deduplicated pairs
        assert parse_qrels(shuffled) == parse_qrels(lines)


@SETTINGS
@given(run_lines())
def test_format_run_reparses_to_the_same_run(case):
    run = parse_run(case[0], "t0")
    assert parse_run(format_run(run).splitlines(), "t0") == run


@SETTINGS
@given(run_lines(), st.data())
def test_repeated_run_pair_is_reported_at_its_line(case, data):
    lines = case[0]
    first = data.draw(st.integers(0, len(lines) - 1))
    at = data.draw(st.integers(first + 1, len(lines)))
    topic, _, doc, *_ = lines[first].split()
    lines = [*lines[:at], f"{topic} Q0 {doc} 1 {data.draw(score)!r} x", *lines[at:]]
    with pytest.raises(ParseError, match=f"^line {at + 1}: duplicate entry"):
        parse_run(lines, "t0")


@SETTINGS
@given(qrels_lines(), st.data())
def test_conflicting_qrels_pair_is_reported_at_its_line(case, data):
    lines = sorted(set(case[0]), key=case[0].index)
    first = data.draw(st.integers(0, len(lines) - 1))
    at = data.draw(st.integers(first + 1, len(lines)))
    topic, _, doc, grade = lines[first].split()
    lines = [*lines[:at], f"{topic} 0 {doc} {max(int(grade), 0) + 1}", *lines[at:]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ParseError, match=f"^line {at + 1}: conflicting grades"):
            parse_qrels(lines)
