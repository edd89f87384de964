"""The report writer against json: byte for byte, on real reports and on
generated JSON values."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import dump_json

from matsos.gallery import GALLERY, list_gallery
from matsos.report import (
    CONFIG_SCHEMA,
    catalog_json,
    dump_report,
    run_config,
    schema_json,
)


@pytest.mark.parametrize("pipeline", ["gallery", "verify", "all"])
@pytest.mark.parametrize("name", sorted(GALLERY))
def test_gallery_reports_match_json(name, pipeline):
    report, _ = run_config(
        {"version": 1, "matrix": {"gallery": name}, "pipeline": pipeline})
    assert dump_report(report) == dump_json(report)


def test_catalog_and_schema_match_json():
    assert catalog_json() == dump_json(list_gallery())
    assert schema_json() == dump_json(CONFIG_SCHEMA)


AWKWARD_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324,
                  1.7976931348623157e308, 0.1, 1e16, 1e-7]
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats()
    | st.sampled_from(AWKWARD_FLOATS)
    | st.text()
    | st.text(alphabet=st.characters(max_codepoint=0x1F))
)
json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=5)),
    max_leaves=40,
)


@settings(max_examples=150, deadline=None)
@given(json_values)
@example([True, 1, 1.0, False, 0, 0.0, -0.0])
@example({"b": [], "a": {}, "c": (), "é☃\U0001f600": "\x00\x1f "})
@example([[[[[]]]], {"x": {"y": {"z": [-0.0, math.nan]}}}])
def test_generated_values_match_json(value):
    assert dump_report(value) == dump_json(value)


@pytest.mark.parametrize("value", [
    np.zeros(2),
    {"a": [1, np.zeros(2)]},
    {1: "x"},
    {"a": {None: 1}},
    [{2.5: 0}],
    {"a": 1, 2: "b"},
    [np.int64(3)],
    {"s": {1, 2}},
])
def test_unwritable_values_raise_type_error(value):
    with pytest.raises(TypeError):
        dump_report(value)
