"""Suppression parser contract: format ∘ parse round-trips, and a
suppressed line really is silenced end-to-end through the engine."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import (
    Analyzer,
    format_suppression,
    parse_suppressions,
)
from repro.analysis.core import is_suppressed, Violation

rule_ids = st.one_of(
    st.from_regex(r"SIM[0-9]{3}", fullmatch=True),
    st.from_regex(r"[A-Z]{2,8}[0-9]{1,4}", fullmatch=True),
)


@given(st.lists(rule_ids, min_size=1, max_size=8, unique=True))
def test_round_trip_arbitrary_rule_lists(ids: list[str]):
    comment = format_suppression(ids)
    parsed = parse_suppressions(f"x = compute()  {comment}\n")
    assert parsed == {1: frozenset(rid.upper() for rid in ids)}


@given(st.lists(rule_ids, min_size=1, max_size=4, unique=True), st.integers(0, 30))
def test_round_trip_survives_line_position(ids: list[str], offset: int):
    comment = format_suppression(ids)
    source = "\n" * offset + f"y = 1  {comment}\n"
    parsed = parse_suppressions(source)
    assert parsed == {offset + 1: frozenset(rid.upper() for rid in ids)}


@given(st.lists(rule_ids, min_size=1, max_size=8, unique=True))
def test_parse_is_case_insensitive(ids: list[str]):
    lowered = format_suppression([rid.lower() for rid in ids])
    uppered = format_suppression([rid.upper() for rid in ids])
    assert parse_suppressions(lowered) == parse_suppressions(uppered)


def test_all_token_suppresses_everything():
    parsed = parse_suppressions("x = 1  # simlint: disable=all\n")
    violation = Violation("SIM008", "<s>", 1, 0, "m")
    assert is_suppressed(violation, parsed)


def test_multiple_comments_union_on_one_line():
    line = "x = 1  # simlint: disable=SIM003 # simlint: disable=SIM008\n"
    assert parse_suppressions(line) == {1: frozenset({"SIM003", "SIM008"})}


def test_unrelated_comments_parse_to_nothing():
    assert parse_suppressions("x = 1  # a simlint-adjacent remark\n") == {}


def test_format_rejects_empty_list():
    with pytest.raises(ValueError):
        format_suppression([])


def test_suppression_silences_engine_end_to_end():
    source = (
        "import time\n"
        "a = time.time()\n"
        "b = time.time()  # simlint: disable=SIM008\n"
    )
    violations = Analyzer().analyze_source(
        source, Path("<unit>"), module="repro.sim.fake"
    )
    assert [(v.rule_id, v.line) for v in violations] == [("SIM008", 2)]


def test_wrong_rule_id_does_not_suppress():
    source = "import time\na = time.time()  # simlint: disable=SIM003\n"
    violations = Analyzer().analyze_source(
        source, Path("<unit>"), module="repro.sim.fake"
    )
    assert [(v.rule_id, v.line) for v in violations] == [("SIM008", 2)]
