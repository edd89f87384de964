import gc
import json
import math
import sys
import threading

import numpy as np
import pytest
from oracles import entry_tables, tree_entries

from matsos import expr as ex
from matsos import jets
from matsos.decompose import one_sd
from matsos.matfun import SymMatFun


def test_builders_and_operators():
    x, y = ex.var(0), ex.var(1)
    e = (x + 2.0) * y - x / (y + 3.0)
    assert e.nvars == 2
    assert e.kind == "sum"


def test_var_range():
    with pytest.raises(ex.ExprError):
        ex.var(8)
    with pytest.raises(ex.ExprError):
        ex.var(-1)


def test_const_finite():
    with pytest.raises(ex.ExprError):
        ex.const(float("inf"))


def test_intpow_integer_exponent():
    with pytest.raises(ex.ExprError):
        ex.intpow(ex.var(0), 1.5)


def test_immutability():
    e = ex.var(0)
    with pytest.raises(AttributeError):
        e.kind = "const"


@pytest.mark.parametrize(
    "tree",
    [
        ex.var(3),
        ex.const(0.1 + 0.2),
        ex.flat(ex.var(0)),
        ex.flatabs(ex.mul(ex.const(2.0), ex.var(1))),
        ex.bump(ex.var(0) / ex.sqrt(ex.var(1) ** 2 + 1.0)),
        ex.recip(ex.exp(ex.var(2))) + ex.intpow(ex.var(0), -3),
    ],
)
def test_serialization_round_trip(tree):
    s = ex.to_json(tree)
    back = ex.from_json(s)
    assert back == tree
    # bit-exact parameters after a double round trip
    assert ex.to_json(ex.from_json(s)) == s


def test_round_trip_preserves_awkward_floats():
    vals = [0.1, 1e-300, 3.141592653589793, 2**-52, 1.7976931348623157e308,
            -0.0]
    for v in vals:
        e = ex.const(v)
        back = ex.from_json(ex.to_json(e)).param
        assert back == v
        assert math.copysign(1.0, back) == math.copysign(1.0, v)


def test_structural_equality_keeps_the_sign_of_zero():
    pos, neg = ex.const(0.0), ex.const(-0.0)
    assert pos != neg
    assert len({pos, neg, ex.const(0.0)}) == 2
    assert ex.sqrt(ex.var(0) + pos) != ex.sqrt(ex.var(0) + neg)
    assert ex.sqrt(ex.var(0) + pos) == ex.sqrt(ex.var(0) + ex.const(0.0))


X = {"kind": "var", "index": 0}
# (malformed node, text the ExprError message must contain)
GARBAGE = [
    ({"kind": "nope"}, "kind"),
    (["not", "a", "node"], "kind"),
    ({"index": 0}, "kind"),
    ({"kind": "recip", "children": []}, "child"),
    ({"kind": "recip", "children": [X, X]}, "child"),
    ({"kind": "intpow", "children": [X, X], "exponent": 2}, "child"),
    ({"kind": "var"}, "index"),
    ({"kind": "var", "index": 1.5}, "index"),
    ({"kind": "var", "index": True}, "index"),
    ({"kind": "var", "index": "0"}, "index"),
    ({"kind": "var", "index": 8}, "variable index"),
    ({"kind": "const"}, "value"),
    ({"kind": "const", "value": "abc"}, "value"),
    ({"kind": "const", "value": "1.5"}, "value"),
    ({"kind": "const", "value": True}, "value"),
    ({"kind": "const", "value": None}, "value"),
    ({"kind": "const", "value": float("nan")}, "value"),
    ({"kind": "const", "value": 10**400}, "value"),
    ({"kind": "intpow", "children": [X]}, "exponent"),
    ({"kind": "intpow", "children": [X], "exponent": 1.5}, "exponent"),
    ({"kind": "intpow", "children": [X], "exponent": True}, "exponent"),
    ({"kind": "sum", "children": {"a": X}}, "children"),
    ({"kind": "sum", "children": 5}, "children"),
    ({"kind": "exp", "children": "x"}, "children"),
    ({"kind": "product", "children": [X, {"kind": "const"}]}, "value"),
]


def test_from_dict_rejects_garbage():
    for node, field in GARBAGE:
        with pytest.raises(ex.ExprError, match=field):
            ex.from_dict(node)


def test_from_dict_accepts_integral_floats():
    e = ex.from_dict({"kind": "intpow", "exponent": 2.0,
                      "children": [{"kind": "var", "index": 1.0}]})
    assert e == ex.intpow(ex.var(1), 2)
    assert type(e.param) is int and type(e.children[0].param) is int


def _reachable(roots):
    """Distinct node objects reachable from the roots, by identity."""
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(node.children)
    return seen


def _peeled_spd(n, peels, rng):
    """(B B^T + c I) peeled `peels` times with one_sd, B affine in 2 vars."""
    x, y = ex.var(0), ex.var(1)
    B = [[ex.add(ex.const(a), ex.mul(ex.const(b), x), ex.mul(ex.const(c), y))
          for a, b, c in rng.normal(size=(n, 3))] for _ in range(n)]
    shift = float(rng.uniform(0.5, 1.5))
    rows = [[ex.add(*[ex.mul(B[i][k], B[j][k]) for k in range(n)],
                    *([ex.const(shift)] if i == j else []))
             for j in range(n)] for i in range(n)]
    Q = SymMatFun.from_rows(rows, nvars=2)
    for _ in range(peels):
        _, Q = one_sd(Q)
    return json.loads(json.dumps(Q.to_json_dict()))


def _same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("seed, n, peels", [(0, 3, 1), (1, 4, 1), (2, 4, 2)])
def test_interned_load_matches_tree_load(seed, n, peels):
    """A loaded peeled matrix shares its repeated subexpressions, and its
    jets and flags equal, bit for bit, those of evaluating every occurrence
    of every node on its own: sharing changes no jet or flag."""
    d = _peeled_spd(n, peels, np.random.default_rng(seed))
    A = SymMatFun.load_json(d)[0]
    exprs = [e for _, e in A.upper_entries()]
    # a second load is the same objects: one node per distinct structure
    again = SymMatFun.load_json(json.loads(json.dumps(d)))[0]
    assert all(a is b for (_, a), (_, b) in zip(A.upper_entries(),
                                                  again.upper_entries()))
    rng = np.random.default_rng(seed)
    pts = np.vstack([rng.uniform(-1.0, 1.0, size=(40, 2)),
                     [[0.0, 0.0], [-0.0, 0.5], [1.0, -0.0]]])
    for order in (0, 4):
        got, got_ok = entry_tables(A, pts, order)
        want, occurrences = tree_entries(exprs, pts, order, A.nvars)
        # far fewer distinct nodes than occurrences in the trees
        assert len(_reachable(exprs)) < occurrences
        want_ok = ~np.any([jb.invalid for jb in want], axis=0)
        assert np.array_equal(got_ok, want_ok)
        for g, jb in zip(got.values(), want):
            assert _same_bits(g.coef, jb.coef)
            for flag in ("invalid", "poly_singular", "flat_zero"):
                assert np.array_equal(getattr(g, flag), getattr(jb, flag))


def test_interned_load_keeps_both_signed_zeros():
    pos = {"kind": "const", "value": 0.0}
    neg = {"kind": "const", "value": -0.0}
    one = {"kind": "const", "value": 1.0}
    d = json.loads(json.dumps({"dimension": 2, "nvars": 1,
                               "entries": [[one, neg], [neg, pos]]}))
    A = SymMatFun.load_json(d)[0]
    vals, ok = A.values(np.array([[0.5], [-0.25]]))
    assert ok.all()
    assert np.signbit(vals[:, 0, 1]).all() and np.signbit(vals[:, 1, 0]).all()
    assert not np.signbit(vals[:, 1, 1]).any()


def test_json_is_plain_data():
    tree = ex.flat(ex.var(0)) * ex.bump(ex.var(1))
    d = json.loads(ex.to_json(tree))
    assert d["kind"] == "product"
    assert [c["kind"] for c in d["children"]] == ["flat", "bump"]


def _chain(levels, leaf=0):
    e = ex.var(leaf)
    for _ in range(levels):
        e = ex.recip(1.0 + 0.5 * e)
    return e


def test_deep_chain_round_trips_without_recursion():
    """to_dict and from_dict walk with their own stack: a 10,000-level chain
    survives the round trip, comes back as the original node, and
    evaluates bit for bit as it at orders 0 and 2."""
    e = _chain(10_000)
    back = ex.from_dict(ex.to_dict(e))
    assert back.kind == "recip" and back is e
    for order in (0, 2):
        want = jets.eval_jet_batch(e, [[0.3]], order)
        got = jets.eval_jet_batch(back, [[0.3]], order)
        assert _same_bits(got.coef, want.coef)
        assert np.array_equal(got.invalid, want.invalid)


def test_deep_chain_node_table_is_text():
    """A 10,000-level chain written as a node table is flat JSON text:
    json writes and reads it, and the table reads back to the chain."""
    e = _chain(10_000)
    table = ex.NodeTable()
    k = table.ref(e)
    assert len(table.rows) == 3 * 10_000 + 3 and k == len(table.rows) - 1
    text = json.dumps(table.rows)
    assert ex.from_table(json.loads(text))[k] is e


def test_node_table_writes_each_node_once_in_post_order():
    x = ex.var(0)
    s = ex.sqrt(x * x + 1.0)
    e = ex.add(s * s, ex.exp(s))
    table = ex.NodeTable()
    k = table.ref(e)
    order = ex.post_order([e])
    assert len(table.rows) == len(order) and k == len(order) - 1
    assert [r["kind"] for r in table.rows] == [n.kind for n in order]
    assert table.ref(s) == order.index(s) and len(table.rows) == len(order)
    assert table.ref(ex.exp(x)) == len(order)  # new rows go to the end
    back = ex.from_table(table.rows)
    assert back[:len(order)] == order and back[-1] is ex.exp(x)
    # inlining the rows gives the nested form
    nested = []
    for row in table.rows:
        nested.append({**row, **({"children": [nested[c] for c in
                                               row["children"]]}
                                 if "children" in row else {})})
    assert json.dumps(nested[k]) == ex.to_json(e)


def test_read_table_has_one_row_per_distinct_spelling():
    x = {"kind": "var", "index": 0}
    raw = [{"kind": "sum", "children": [dict(x), {"kind": "const",
                                                   "value": 1}]},
           {"kind": "exp", "children": [{"kind": "sum", "children": [
               dict(x), {"kind": "const", "value": 1}]}], "note": "n"},
           {"kind": "var", "index": 0, "children": ["kept as given"]}]
    table = ex.ReadTable()
    for d in raw:
        ex.from_dict(d, table)
    # x, 1, the sum; the noted exp has a row of its own over the same sum
    assert [r["kind"] for r in table.rows] == ["var", "const", "sum", "exp",
                                               "var"]
    assert table.roots == [2, 3, 4]
    assert table.rows[3] == {"kind": "exp", "children": [2], "note": "n"}
    assert table.rows[4] == raw[2]  # a leaf's children are not indices
    assert ex.from_table(table.rows)[3] is ex.exp(ex.var(0) + 1.0)
    assert table.nodes == ex.from_table(table.rows)


def test_from_dict_reads_canonical_json_into_the_written_table():
    """The nested form `to_dict` writes, one shared dict per node, reads
    into the rows `NodeTable` writes for the same expression, in the same
    order: post-order, children in order, first occurrence first."""
    x, y = ex.var(0), ex.var(1)
    s = ex.sqrt(x * x + 1.0)
    e = ex.add(ex.intpow(s, 3) * y, ex.exp(s), 2.0 * x, ex.flat(y))
    written = ex.NodeTable()
    k = written.ref(e)
    table = ex.ReadTable()
    assert ex.from_dict(ex.to_dict(e), table) is e
    assert table.roots == [k] and table.rows == written.rows
    assert json.dumps(table.rows) == json.dumps(written.rows)


@pytest.mark.parametrize("rows", [
    {"kind": "var", "index": 0},
    [{"kind": "var", "index": 0}, {"kind": "exp", "children": [1]}],
    [{"kind": "var", "index": 0}, {"kind": "exp", "children": [True]}],
    [{"kind": "var", "index": 0}, {"kind": "exp", "children": 0}],
    [{"kind": "bogus"}],
])
def test_from_table_rejects_malformed_tables(rows):
    with pytest.raises(ex.ExprError):
        ex.from_table(rows)


def test_deep_chain_hashes_and_compares_without_recursion():
    """Building, hashing and comparing a 10,000-level chain do not recurse:
    a chain built separately is the original node, and one that differs
    only at its leaf is another node at every level."""
    e, same, other = _chain(10_000), _chain(10_000), _chain(10_000, leaf=1)
    assert same is e
    assert hash(same) == hash(e) and same == e and not same != e
    assert len({e, same}) == 1
    assert other is not e and other != e and not other == e
    assert e.children[0] is same.children[0] is not other.children[0]


def test_equal_builds_are_one_node_and_parameters_keep_their_bits():
    x = ex.var(0)
    assert ex.recip(x + 1.0) is ex.recip(ex.add(ex.var(0), ex.const(1)))
    assert ex.const(0.0) is ex.ZERO and ex.const(0.0) is not ex.const(-0.0)
    assert ex.intpow(x, 2) is not ex.intpow(x, 3)
    assert ex.mul(x, ex.ONE) is not ex.mul(ex.ONE, x)
    with pytest.raises(ex.ExprError, match="index"):
        ex.var(True)
    with pytest.raises(ex.ExprError, match="exponent"):
        ex.intpow(x, True)


def test_the_node_table_keeps_no_node_alive():
    """A 10,000-level chain enters the node table and leaves it again, with
    no recursion, when it is dropped."""
    gc.collect()
    before = len(ex._NODES)
    e = _chain(10_000, leaf=7)
    assert len(ex._NODES) > before + 10_000
    del e
    assert len(ex._NODES) == before


def test_threads_building_one_structure_get_one_node():
    """Four threads, switching every microsecond, build the same 3,000
    fresh sums at once: each structure is one node in every thread."""
    interval = sys.getswitchinterval()
    start = threading.Barrier(4)
    out = [None] * 4

    def build(k):
        start.wait(timeout=10)
        out[k] = [ex.var(6) + float(i) + 0.125 for i in range(3000)]

    threads = [threading.Thread(target=build, args=(k,)) for k in range(4)]
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(nodes) == 3000 for nodes in out)
    assert all(a is b for nodes in out[1:] for a, b in zip(out[0], nodes))


def test_to_dict_writes_one_dict_per_node():
    x = ex.var(0)
    s = ex.sqrt(x * x + 1.0)
    e = ex.add(s * s, ex.exp(s))
    d = ex.to_dict(e)
    product, exp_node = d["children"]
    assert product["children"][0] is product["children"][1]
    assert exp_node["children"][0] is product["children"][0]
    memo = {}
    assert ex.to_dict(s, memo) is ex.to_dict(ex.exp(s), memo)["children"][0]
    assert json.loads(json.dumps(d)) == json.loads(ex.to_json(e))


def test_from_dict_echo_keeps_the_spelling_and_shares_equal_json():
    """The rows `from_dict` reads its input into spell it as given, one
    row per distinct spelling, shared across calls into one table."""
    one_int = {"kind": "const", "value": 1}
    one_float = {"kind": "const", "value": 1.0}
    x = {"kind": "var", "index": 0}
    table = ex.ReadTable()
    a = ex.from_dict({"kind": "sum", "children": [dict(x), one_int]}, table)
    b = ex.from_dict({"kind": "sum", "children": [dict(x), one_float]}, table)
    c = ex.from_dict({"kind": "sum", "children": [dict(x), one_int]}, table)
    # one node for 1 and 1.0, one row per spelling
    assert a is b is c
    ra, rb, rc = table.roots
    assert rc == ra and rb != ra
    rows = table.rows
    assert rows[ra] == {"kind": "sum", "children": [0, 1]}
    assert json.dumps(rows[1]) == '{"kind": "const", "value": 1}'
    assert rows[ra]["children"][0] == rows[rb]["children"][0]
    # signed zeros and an exponent of 2 against 2.0 stay apart in the rows
    for v in (0.0, -0.0, 0.0):
        ex.from_dict({"kind": "const", "value": v}, table)
    z0, zm, z1 = table.roots[3:]
    assert z0 == z1 != zm
    assert json.dumps(rows[zm]) == '{"kind": "const", "value": -0.0}'
    p2 = ex.from_dict({"kind": "intpow", "exponent": 2,
                       "children": [dict(x)]}, table)
    p2f = ex.from_dict({"kind": "intpow", "exponent": 2.0,
                        "children": [dict(x)]}, table)
    r2, r2f = table.roots[-2:]
    assert p2 is p2f and r2 != r2f
    assert rows[r2]["exponent"] == 2 and type(rows[r2f]["exponent"]) is float


def test_from_dict_echoes_extra_fields_as_given():
    x = {"kind": "var", "index": 0}
    noted = {"kind": "exp", "children": [x], "note": "kept"}
    table = ex.ReadTable()
    assert ex.from_dict(noted, table) is ex.exp(ex.var(0))
    assert table.rows == [x, {"kind": "exp", "children": [0], "note": "kept"}]
    assert table.rows[0] is not x and noted["children"] == [x]  # copies
    # a field beyond the kind's is never shared with the canonical spelling
    ex.from_dict({"kind": "var", "index": 0}, table)
    ex.from_dict({"kind": "var", "index": 0, "children": []}, table)
    assert table.roots[1:] == [0, 2]
    assert table.rows[2] == {"kind": "var", "index": 0, "children": []}
    # but the same input object is one row, within a call and across calls
    ex.from_dict({"kind": "sum", "children": [noted, noted]}, table)
    ex.from_dict(noted, table)
    assert table.rows[3] == {"kind": "sum", "children": [1, 1]}
    assert table.roots[3:] == [3, 1] and len(table.rows) == 4


def test_from_dict_visits_a_shared_input_dict_once():
    """A Python DAG of dicts 60 levels deep (2^60 root-to-leaf paths) loads
    in time linear in its distinct dicts."""
    d = {"kind": "var", "index": 0}
    for _ in range(60):
        d = {"kind": "product", "children": [d, d]}
    node = ex.from_dict(d)
    depth = 0
    while node.kind == "product":
        assert node.children[0] is node.children[1]
        node, depth = node.children[0], depth + 1
    assert depth == 60


def test_from_dict_rejects_cyclic_input():
    d = {"kind": "exp", "children": []}
    d["children"].append({"kind": "sqrt", "children": [d]})
    with pytest.raises(ex.ExprError, match="cyclic"):
        ex.from_dict(d)
