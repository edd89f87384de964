"""The report writer against json: byte for byte, on real reports and on
generated JSON values with shared sub-values; the node tables of the
config echo and of decompositions, against the nested rendering of the
same objects."""

import json
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import dump_json, expand_tables, nested_decomposition

from matsos import expr as ex
from matsos import gallery
from matsos import report as report_mod
from matsos.decompose import SquareDecomposition
from matsos.gallery import GALLERY, list_gallery
from matsos.grids import GridSpec
from matsos.matfun import SymMatFun
from matsos.report import (
    CONFIG_SCHEMA,
    catalog_json,
    dump_report,
    run_config,
    schema_json,
)
from matsos.verify import decomposition_pipeline


def _containers_met_twice(value):
    """The containers (lists, tuples, dicts) of the JSON value `value` that
    a walk from its root meets at more than one place."""
    seen, twice, stack = set(), [], [value]
    while stack:
        o = stack.pop()
        if not isinstance(o, (list, tuple, dict)):
            continue
        if id(o) in seen:
            twice.append(o)
            continue
        seen.add(id(o))
        stack.extend(o.values() if isinstance(o, dict) else o)
    return twice


@pytest.mark.parametrize("pipeline", report_mod.PIPELINES)
@pytest.mark.parametrize("name", sorted(GALLERY))
def test_gallery_reports_match_json(name, pipeline):
    """Reports hold expressions as row indices into node tables, so no list
    or dict of a report sits at two places: `dump_report` writes each
    container once without keeping what it wrote."""
    report, _ = run_config(
        {"version": 1, "matrix": {"gallery": name}, "pipeline": pipeline})
    assert dump_report(report) == dump_json(report)
    assert _containers_met_twice(report) == []


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


def _nest(inner):
    return (st.lists(inner, max_size=5)
            | st.lists(inner, max_size=5).map(tuple)
            | st.dictionaries(st.text(max_size=8), inner, max_size=5))


# One sub-value is drawn once per example and placed, as the same object, at
# several positions and depths, as v1 expression dicts share children; the
# writer spells it out at each.
json_values = st.recursive(
    scalars | st.shared(st.recursive(scalars, _nest, max_leaves=20),
                        key="repeated"),
    _nest,
    max_leaves=40,
)

SHARED = {"k": [1.5, "s", None], "t": ({"u": -0.0},)}
# unwritable values that occur more than once in one document
BAD = {"a": [np.float32(1)]}
BAD_KEY = {"a": {3: 1}}


@settings(max_examples=150, deadline=None)
@given(json_values)
@example([True, 1, 1.0, False, 0, 0.0, -0.0])
@example({"b": [], "a": {}, "c": (), "é☃\U0001f600": "\x00\x1f "})
@example([[[[[]]]], {"x": {"y": {"z": [-0.0, math.nan]}}}])
@example([SHARED, [SHARED, (SHARED,)], {"a": SHARED, "b": {"c": [SHARED]}}])
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
    [BAD, BAD],
    {"x": BAD, "y": [BAD, {"z": BAD}]},
    (BAD_KEY, [BAD_KEY]),
])
def test_unwritable_values_raise_type_error(value):
    with pytest.raises(TypeError):
        dump_report(value)


def test_no_container_occurs_twice_in_an_inline_report():
    """No container sits at two places in the report of an inline matrix
    whose v1 entries share their dicts (`to_json_dict` writes each distinct
    node once): its echo is the node table it was read into."""
    A = GALLERY["grushin-2x2"].build({})
    cfg = {"version": 1, "matrix": A.to_json_dict(), "pipeline": "all",
           "grid": {"box": [[-1, 1] for _ in range(A.nvars)],
                    "resolution": 7}}
    assert _containers_met_twice(cfg)  # the input shares dicts
    report, _ = run_config(cfg)
    assert report["decomposition"] is not None
    assert _containers_met_twice(report) == []


def _inline_echo_config():
    """A 2x2 inline matrix whose entries spell equal nodes in several ways:
    int 1 for 1.0, a single-child sum, a var with an empty children list,
    extra fields, and a signed zero."""
    x = {"kind": "var", "index": 0}
    canonical = {"kind": "sum", "children": [
        {"kind": "product", "children": [x, {"kind": "const", "value": 0.5}]},
        {"kind": "const", "value": 1.0}]}
    respelled = {"kind": "sum", "children": [
        {"kind": "product", "children": [
            {"kind": "var", "index": 0, "children": []},
            {"kind": "const", "value": 0.5}]},
        {"kind": "sum", "children": [{"kind": "const", "value": 1}]}]}
    diagonal = {"kind": "sum", "children": [
        {"kind": "exp", "children": [x], "note": "kept"},
        {"kind": "const", "value": -0.0},
        {"kind": "const", "value": 3},
        canonical, respelled]}
    return {"version": 1, "pipeline": "verify",
            "matrix": {"dimension": 2, "nvars": 1,
                       "entries": [[{"kind": "const", "value": 4}, canonical],
                                   [respelled, diagonal]]},
            "grid": {"box": [[-1, 1]], "resolution": 11,
                     "exclude_radius": 0.05}}


def test_config_echo_keeps_every_spelling():
    text = json.dumps(_inline_echo_config())
    cfg = json.loads(text)
    report, _ = run_config(cfg)
    assert json.dumps(cfg) == text  # the input is not mutated
    echo = report["config"]
    # the echo inlines to the input byte for byte, -0.0 and ints included
    assert json.dumps(expand_tables(echo)) == text
    assert dump_report(report) == dump_json(report)
    rows, entries = echo["matrix"]["nodes"], echo["matrix"]["entries"]

    def kids(k):
        return rows[k]["children"]

    # byte-equal JSON subtrees share one row, across entries too
    assert kids(entries[1][1])[3] == entries[0][1]
    assert kids(kids(entries[0][1])[0])[1] == kids(kids(entries[1][0])[0])[1]
    assert all(k < i for i, row in enumerate(rows)
               if row["kind"] not in ("var", "const")
               for k in row.get("children", ()))
    # a subtree under a node with extra fields is shared with nothing
    assert kids(entries[1][1])[4] != entries[1][0]
    assert expand_tables({"nodes": rows, "entries": [kids(entries[1][1])[4],
                                                     entries[1][0]]}) == {
        "entries": [cfg["matrix"]["entries"][1][0]] * 2}
    # extra fields, and a leaf's children, are echoed as given
    noted = rows[kids(entries[1][1])[0]]
    assert noted["note"] == "kept"
    assert {"kind": "var", "index": 0, "children": []} in rows


def test_config_echo_of_gallery_matrix_is_the_config():
    cfg = {"version": 1, "matrix": {"gallery": "grushin-2x2"},
           "pipeline": "verify"}
    report, _ = run_config(cfg)
    assert report["config"] is cfg


def _expression_nodes(roots):
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.children)
    return seen


def test_decomposition_json_has_one_dict_per_node():
    """block-M7 under the full pipeline: peel vectors, residual and fields
    share nodes, and the JSON form holds one node table row per distinct
    node, which reads back to the same nodes."""
    A = GALLERY["block-M7"].build({})
    grid = GridSpec(box=((-0.9, 0.9),) * 7, resolution=3, max_points=40,
                    exclude_radius=0.25, seed=3)
    dec = decomposition_pipeline(A, 5, 0.3, 0.1, 0.2, grid).decomposition
    d = dec.to_json_dict()
    R = dec.residual
    nodes = [c for Z in dec.peel_vectors for c in Z]
    nodes += [R.entry(i, j) for i in range(R.n) for j in range(R.n)]
    nodes += [c for Xk in dec.fields for X in Xk for c in X]
    refs = [c for Z in d["peel_vectors"] for c in Z]
    refs += [c for row in d["residual"]["entries"] for c in row]
    refs += [c for Xk in d["fields"] for X in Xk for c in X]
    rows = d["nodes"]
    assert len(rows) == len(_expression_nodes(nodes))
    back = ex.from_table(json.loads(json.dumps(rows)))
    assert all(back[k] is e for k, e in zip(refs, nodes))
    # the same JSON written as a tree would be several times larger
    size = []
    for row in rows:
        size.append(1 + sum(size[k] for k in row.get("children", ())))
    assert sum(size[k] for k in refs) > 3 * len(rows)
    report = {"decomposition": d}
    assert dump_report(report) == dump_json(report)


@pytest.mark.parametrize("pipeline", ["gallery", "all"])
@pytest.mark.parametrize("name", sorted(GALLERY))
def test_expanded_report_equals_the_nested_rendering(name, pipeline,
                                                     monkeypatch):
    """Inlining the node tables of a report gives the report that writes
    each of its decompositions (pipeline or gallery certificate) as nested
    expression objects, one `expr.to_dict` memo per decomposition."""
    nested = {}
    write = SquareDecomposition.to_json_dict

    def spy(dec):
        d = write(dec)
        nested[id(d)] = nested_decomposition(dec), d  # d kept: ids stay
        return d

    monkeypatch.setattr(SquareDecomposition, "to_json_dict", spy)
    report, _ = run_config({"version": 1, "matrix": {"gallery": name},
                            "pipeline": pipeline})

    def renested(v):
        if isinstance(v, list):
            return [renested(x) for x in v]
        if not isinstance(v, dict):
            return v
        if id(v) in nested:
            return nested[id(v)][0]
        return {k: renested(x) for k, x in v.items()}

    want = renested(report)
    assert len(_values_of(report, {"nodes"})) == len(nested)
    assert dump_json(expand_tables(report)) == dump_json(want)


def _chain_config(levels):
    e = ex.var(0)
    for _ in range(levels):
        e = ex.recip(1.0 + 0.5 * e)
    return {"version": 1, "pipeline": "verify",
            "matrix": SymMatFun.from_rows([[e]], nvars=1).to_json_dict(),
            "grid": {"box": [[0, 1]], "resolution": 9}}


def test_deep_chain_dumps_without_recursion():
    """`dump_report` walks with a stack of its own: a 200-level chain
    `recip(1 + 0.5 e)` nests 1,200 JSON containers, beyond the recursion
    limit, and is written byte-equal to json's text, which needs a raised
    limit and a large thread stack.  The text of an indented chain grows
    with the square of its depth (552 MB at 2,000 levels), so no deeper
    chain is written here."""
    e = ex.var(0)
    for _ in range(200):
        e = ex.recip(1.0 + 0.5 * e)
    value = ex.to_dict(e)
    depth, inner = 0, value
    while "children" in inner:
        depth, inner = depth + 2, inner["children"][0]
    assert depth == 1200 > sys.getrecursionlimit()
    text = dump_report(value)
    want = []

    def oracle():
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(4 * depth)
        try:
            want.append(dump_json(value))
        finally:
            sys.setrecursionlimit(limit)

    size = threading.stack_size(256 << 20)
    try:
        thread = threading.Thread(target=oracle)
        thread.start()
        thread.join()
    finally:
        threading.stack_size(size)
    assert want and text == want[0]


def test_deep_chain_config_round_trips_through_its_report():
    """A 2,000-level chain is written as a flat node table: the report's
    text loads with json, and its config runs again to the same report."""
    report, code = run_config(_chain_config(2000))
    text = dump_report(report)
    back = json.loads(text)
    # three nodes a level, then x0 and the constants 0.5 and 1.0
    assert len(back["config"]["matrix"]["nodes"]) == 3 * 2000 + 3
    again, code2 = run_config(back["config"])
    assert code2 == code
    assert again["config"]["matrix"] is back["config"]["matrix"]  # as given
    for r in (report, again):
        del r["timing"]
    assert dump_report(again) == dump_report(report)


@pytest.mark.parametrize("name, pipeline", [("grushin-2x2", "all"),
                                            ("q-lambda", "verify")])
def test_inline_config_echo_reruns_to_the_same_report(name, pipeline):
    """An inline config, and then its echo (a node table), run to the same
    report apart from timing."""
    A = GALLERY[name].build({})
    cfg = {"version": 1, "matrix": A.to_json_dict(), "pipeline": pipeline,
           "grid": {"box": [[-1, 1]] * A.nvars, "resolution": 7}}
    report, code = run_config(json.loads(json.dumps(cfg)))
    again, code2 = run_config(json.loads(dump_report(report))["config"])
    assert code2 == code
    for r in (report, again):
        del r["timing"]
    assert dump_report(again) == dump_report(report)


def _dumped(name, pipeline):
    report, _ = run_config(
        {"version": 1, "matrix": {"gallery": name}, "pipeline": pipeline})
    return json.loads(dump_report(report))


def _values_of(obj, keys):
    """(key, value) of every field of `obj` named in `keys`, at any depth."""
    out, stack = [], [obj]
    while stack:
        o = stack.pop()
        items = o.items() if isinstance(o, dict) else enumerate(o) \
            if isinstance(o, list) else ()
        for k, v in items:
            if k in keys:
                out.append((k, v))
            stack.append(v)
    return out


def test_report_flags_are_json_booleans():
    """Flags that checkers set as Python or numpy booleans are written as
    JSON `true`/`false`, not as 1/0."""
    keys = {"symbolic", "vacuous", "verdict_agreement",
            "divergence_condition_fails", "tau_to_zero"}
    found = [kv for name, pipeline in (("f-phi-psi", "gallery"),
                                       ("grushin-2x2", "all"),
                                       ("grushin-2x2", "verify"))
             for kv in _values_of(_dumped(name, pipeline), keys)]
    assert {k for k, _ in found} == keys
    assert all(type(v) is bool for _, v in found), found


@pytest.mark.parametrize("pipeline", ["all", "decompose"])
def test_decomposition_backend_certificate_is_the_one_its_factors_used(
        pipeline):
    """Every decomposition records in `certificates.backend` the epsilon,
    delta and delta' = 2 delta (1 + delta) / (2 + delta) with which each of
    its scalar SOS factor bounds was checked."""
    decs = [r["decomposition"] for name in sorted(GALLERY)
            for r in [_dumped(name, pipeline)] if r["decomposition"]]
    sos = [(d["certificates"]["backend"], rep["params"]) for d in decs
           for rep in d["certificates"]["sos_reports"]]
    assert sos
    for backend, params in sos:
        for key in ("delta", "delta_prime", "epsilon"):
            assert backend[key] == params[key], (key, backend, params)


@pytest.mark.parametrize("name", ["q-lambda", "q-lambda-dehomogenized"])
def test_lambda_certificates_certify_the_built_lambda(name, monkeypatch):
    """With no `lam` given, the certificates of a run take the lambda its
    matrix was built with: both read `gallery.DEFAULT_LAMBDA`."""
    build = {"q-lambda": gallery.build_q_lambda,
             "q-lambda-dehomogenized": gallery.build_q_lambda_dehomogenized}
    monkeypatch.setattr(gallery, "DEFAULT_LAMBDA", 0.05)
    A = GALLERY[name].build({})
    assert A.entry(0, 0) is build[name](0.05).entry(0, 0)
    report, _ = run_config({"version": 1, "matrix": {"gallery": name},
                            "pipeline": "gallery"}, grid_scale=0.5)
    assert report["checks"][0]["params"]["lam"] == 0.05
    assert report["gallery_certificates"][0]["lam"] == 0.05
