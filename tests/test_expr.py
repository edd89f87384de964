import json
import math

import numpy as np
import pytest
from oracles import from_dict_tree

from matsos import expr as ex
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
    seen, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.children)
    return list(seen.values())


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
    d = _peeled_spd(n, peels, np.random.default_rng(seed))
    A = SymMatFun.from_json_dict(d)
    n = d["dimension"]
    tree = SymMatFun(n, 2, {(i, j): from_dict_tree(d["entries"][i][j])
                            for i in range(n) for j in range(i, n)})
    interned = _reachable([e for _, e in A.upper_entries()])
    copies = _reachable([e for _, e in tree.upper_entries()])
    # one object per distinct structure, and far fewer objects than copies
    assert len(interned) == len(set(interned)) == len(set(copies))
    assert len(interned) < len(copies)
    rng = np.random.default_rng(seed)
    pts = np.vstack([rng.uniform(-1.0, 1.0, size=(40, 2)),
                     [[0.0, 0.0], [-0.0, 0.5], [1.0, -0.0]]])
    for order in (0, 4):
        got, got_ok = A.entry_jets(pts, order=order)
        want, want_ok = tree.entry_jets(pts, order=order)
        assert np.array_equal(got_ok, want_ok)
        for key, jb in want.items():
            g = got[key]
            assert _same_bits(g.coef, jb.coef)
            for flag in ("invalid", "poly_singular", "flat_zero"):
                assert np.array_equal(getattr(g, flag), getattr(jb, flag))


def test_interned_load_keeps_both_signed_zeros():
    pos = {"kind": "const", "value": 0.0}
    neg = {"kind": "const", "value": -0.0}
    one = {"kind": "const", "value": 1.0}
    d = json.loads(json.dumps({"dimension": 2, "nvars": 1,
                               "entries": [[one, neg], [neg, pos]]}))
    A = SymMatFun.from_json_dict(d)
    vals, ok = A.values(np.array([[0.5], [-0.25]]))
    assert ok.all()
    assert np.signbit(vals[:, 0, 1]).all() and np.signbit(vals[:, 1, 0]).all()
    assert not np.signbit(vals[:, 1, 1]).any()


def test_json_is_plain_data():
    tree = ex.flat(ex.var(0)) * ex.bump(ex.var(1))
    d = json.loads(ex.to_json(tree))
    assert d["kind"] == "product"
    assert [c["kind"] for c in d["children"]] == ["flat", "bump"]
