"""The report writer: `report.dumps_indented` against `json.dumps(indent=2)`."""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from lrucheck.report import dumps_indented

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
    | st.sampled_from(["", "\"\\/\b\f\n\r\t", "\x00\x1f\x7f", "é€𝄞", "\ud800"])
)

DOCUMENTS = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=40,
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(DOCUMENTS)
def test_dumps_indented_matches_json_dumps(doc):
    assert dumps_indented(doc) == json.dumps(doc, indent=2)


def test_dumps_indented_empty_containers_and_nesting():
    for doc in ({}, [], (), {"a": {}, "b": [], "c": [{}, [[]]]}, [[[1]], {"x": [None]}]):
        assert dumps_indented(doc) == json.dumps(doc, indent=2)
