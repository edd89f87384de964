"""Closed expression trees for scalar functions of up to 8 real variables.

The node vocabulary is deliberately small: variables, constants, sums,
products, integer powers, reciprocals (with a declared positive argument),
square roots, exponentials, and three univariate flat/bump primitives

    flat(t)    = exp(-1/t^2)      (0 at t = 0, together with every jet)
    flatabs(t) = exp(-1/|t|)      (0 at t = 0, together with every jet)
    bump(u)    = exp(1 - 1/(1-u^2)) for |u| < 1, else 0   (bump(0) = 1)

plus composition of any node with those univariate primitives.  Everything
downstream (matrix functions, decompositions, checkers) is built from these
trees, so evaluation and differentiation live in one place (`matsos.jets`).

Trees are immutable; sharing subtrees is what makes the algebraic
identities of the decomposition exact.  Every node is hash-consed at
construction: `ScalarExpr.__new__` looks up (kind, parameter, children) in
a weak table of the live nodes and returns the node already there, so two
structurally equal expressions are one object, however and wherever they
were built (by the builders or by loading), and identity, the default
`==` and `hash()` are structural equality.  Float parameters are compared
by their bits, so `const(0.0)` and `const(-0.0)` stay distinct.  The table
keeps no node alive, and a lock makes its lookup and insert one step, so
threads get one node per structure too.  Every walk and memo keys nodes by
the node itself.

Two JSON forms are read and written.  Schema v1 spells an expression as
nested objects: `to_dict` writes one dict per distinct node from
`post_order`, the walk that every evaluator in `matsos.jets` shares too.
Schema v2 writes the nodes of many expressions once, as the rows of a node
table, and names an expression by the index of its row, so its text is
linear in distinct nodes.  `NodeTable` is a table being written; a
`ReadTable` is one being read, by `from_table` from its rows, or by
`from_dict` from nested objects, one row per distinct spelling, so that
both forms are read by one validator.  Every walk keeps its own stack, so
depth is not limited by recursion.
"""

from __future__ import annotations

import json
import math
import threading
import weakref

__all__ = [
    "ScalarExpr",
    "var",
    "const",
    "add",
    "mul",
    "intpow",
    "recip",
    "sqrt",
    "exp",
    "flat",
    "flatabs",
    "bump",
    "ZERO",
    "ONE",
    "post_order",
    "to_dict",
    "from_dict",
    "NodeTable",
    "ReadTable",
    "from_table",
    "to_json",
    "from_json",
    "ExprError",
    "VariableCountError",
]

MAX_VARS = 8

_LEAF_KINDS = ("var", "const")
_NARY_KINDS = ("sum", "product")
_UNARY_KINDS = ("intpow", "recip", "sqrt", "exp", "flat", "flatabs", "bump")
_ALL_KINDS = _LEAF_KINDS + _NARY_KINDS + _UNARY_KINDS


class ExprError(ValueError):
    """Malformed expression tree."""


class VariableCountError(ExprError):
    """Point dimension does not cover the variables used by the tree."""


class ScalarExpr:
    """A node of an immutable scalar expression tree.

    Do not call the constructor directly; use the module-level builders
    (`var`, `const`, `add`, ...) or the arithmetic operators, which validate
    their arguments.  Nodes are hash-consed: building a node equal in
    structure to a live one returns that node, so structure is identity.
    """

    __slots__ = ("kind", "children", "param", "vmask", "__weakref__")

    def __new__(cls, kind, children=(), param=None):
        children = tuple(children)
        key = (kind, _param_key(param), children)
        # lookup and insert as one step, so that threads building one
        # structure at once still get one node
        with _NODES_LOCK:
            node = _NODES.get(key)
            if node is not None:
                return node
            if kind not in _ALL_KINDS:
                raise ExprError(f"unknown node kind {kind!r}")
            node = object.__new__(cls)
            object.__setattr__(node, "kind", kind)
            object.__setattr__(node, "children", children)
            object.__setattr__(node, "param", param)
            # bit a is set when x_a occurs in the tree
            vmask = 1 << param if kind == "var" else 0
            for c in children:
                vmask |= c.vmask
            object.__setattr__(node, "vmask", vmask)
            _NODES[key] = node
        return node

    def __setattr__(self, name, value):
        raise AttributeError("ScalarExpr nodes are immutable")

    # -- arithmetic sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, _coerce(other))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, _coerce(other))

    __rmul__ = __mul__

    def __neg__(self):
        return mul(const(-1.0), self)

    def __sub__(self, other):
        return add(self, -_coerce(other))

    def __rsub__(self, other):
        return add(_coerce(other), -self)

    def __truediv__(self, other):
        return mul(self, recip(_coerce(other)))

    def __pow__(self, k):
        return intpow(self, k)

    def __repr__(self):
        if self.kind == "var":
            return f"x{self.param}"
        if self.kind == "const":
            return repr(self.param)
        if self.kind == "intpow":
            return f"intpow({self.children[0]!r}, {self.param})"
        args = ", ".join(repr(c) for c in self.children)
        return f"{self.kind}({args})"

    @property
    def max_index(self):
        """Largest variable index in the tree, -1 when it has none."""
        return self.vmask.bit_length() - 1

    @property
    def nvars(self):
        """Smallest variable count covering every variable in the tree."""
        return self.max_index + 1


# (kind, parameter key, children) -> the live node of that structure; the
# table holds no node alive, and a node's entry goes when the node does
_NODES = weakref.WeakValueDictionary()
_NODES_LOCK = threading.Lock()


def _param_key(param):
    """A node parameter as interning sees it: floats by their bits, so that
    0.0 and -0.0 differ."""
    return param.hex() if isinstance(param, float) else param


def _coerce(v):
    if isinstance(v, ScalarExpr):
        return v
    if isinstance(v, (int, float)):
        return const(float(v))
    raise ExprError(f"cannot use {type(v).__name__} in an expression")


# -- builders ----------------------------------------------------------------


def var(index):
    """Coordinate variable x_index, 0-based, at most 8 variables."""
    # a bool is no index: var(True) would intern as var(1)
    if type(index) is not int or not 0 <= index < MAX_VARS:
        raise ExprError(f"variable index must be an int in 0..{MAX_VARS - 1}")
    return ScalarExpr("var", (), index)


def const(value):
    value = float(value)
    if not math.isfinite(value):
        raise ExprError("constants must be finite")
    return ScalarExpr("const", (), value)


def add(*terms):
    terms = tuple(_coerce(t) for t in terms)
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return ScalarExpr("sum", terms)


def mul(*factors):
    factors = tuple(_coerce(f) for f in factors)
    if not factors:
        return ONE
    if len(factors) == 1:
        return factors[0]
    return ScalarExpr("product", factors)


def intpow(base, exponent):
    if type(exponent) is not int:
        raise ExprError("intpow exponent must be an integer")
    return ScalarExpr("intpow", (_coerce(base),), exponent)


def recip(arg):
    """1/arg with a declared positivity domain: evaluating at arg <= 0 is an
    error, never a silent NaN."""
    return ScalarExpr("recip", (_coerce(arg),))


def sqrt(arg):
    return ScalarExpr("sqrt", (_coerce(arg),))


def exp(arg):
    return ScalarExpr("exp", (_coerce(arg),))


def flat(arg):
    return ScalarExpr("flat", (_coerce(arg),))


def flatabs(arg):
    return ScalarExpr("flatabs", (_coerce(arg),))


def bump(arg):
    return ScalarExpr("bump", (_coerce(arg),))


ZERO = const(0.0)
ONE = const(1.0)


# -- serialization -----------------------------------------------------------
#
# JSON schema v1, one object per node:
#   {"kind": "var", "index": int}
#   {"kind": "const", "value": float}
#   {"kind": "intpow", "exponent": int, "children": [node]}
#   {"kind": <other>, "children": [node, ...]}
#
# Schema v2 is a node table: a list of rows, each the v1 object of one node
# whose "children" are the indices of earlier rows; an expression is the
# index of its row.
#
# Floats rely on repr round-tripping, so parameters survive bit-exactly.


def post_order(roots, done=()):
    """The distinct nodes under `roots` that `done` (a memo keyed by node)
    does not hold, each after its children: a depth-first walk, with its
    own stack, that takes roots and children in order and does not descend
    below a node in `done`.  The one walk of the DAG in `to_dict` and
    `matsos.jets`."""
    out, seen = [], set()
    stack = [(None, iter(roots))]  # the roots are the children of None
    while stack:
        node, kids = stack[-1]
        for c in kids:
            if c not in seen and c not in done:
                seen.add(c)
                stack.append((c, iter(c.children)))
                break
        else:
            out.append(stack.pop()[0])
    out.pop()  # None
    return out


def to_dict(expr, memo=None):
    """The JSON form of `expr`, written without recursion.

    Each distinct node becomes one dict, shared by every parent that reads
    it, so the result is a DAG of dicts as large as the expression DAG.
    Pass the same `memo` (a dict from node to dict, kept by the caller) to
    several calls to share dicts across expressions.
    """
    if memo is None:
        memo = {}
    for node in post_order([expr], memo):
        memo[node] = _node_json(node, memo)
    return memo[expr]


def _node_json(node, written):
    """The JSON object of `node`, its children read from `written`: their
    dicts (v1) or row indices (v2)."""
    kind = node.kind
    if kind == "var":
        return {"kind": "var", "index": node.param}
    if kind == "const":
        return {"kind": "const", "value": node.param}
    d = {"kind": kind, "children": [written[c] for c in node.children]}
    if kind == "intpow":
        d["exponent"] = node.param
    return d


class NodeTable:
    """A schema v2 node table being written.  `ref(expr)` appends a row for
    each node of `expr` not in the table yet, children first in
    `post_order`, and returns the index of the row of `expr`; `rows` is the
    table, one row per distinct node of every expression referenced."""

    __slots__ = ("rows", "_index")

    def __init__(self):
        self.rows = []
        self._index = {}

    def ref(self, expr):
        rows, index = self.rows, self._index
        for node in post_order([expr], index):
            index[node] = len(rows)
            rows.append(_node_json(node, index))
        return index[expr]


class ReadTable:
    """A schema v2 node table being read: `rows` are its JSON rows, whose
    children are indices of earlier rows, `nodes` the node of each row, and
    `roots` the row of each expression `from_dict` read into it.  `append`
    validates and builds one row, for both readers (`from_table` and
    `from_dict`)."""

    __slots__ = ("rows", "nodes", "roots", "_keys", "_given")

    def __init__(self):
        self.rows, self.nodes, self.roots = [], [], []
        # exact-JSON key -> row, and id of an input object with fields
        # beyond its kind's -> (the object, its row)
        self._keys, self._given = {}, {}

    def append(self, row):
        """Add `row` and its node, built from the nodes of its children;
        returns its index.  A leaf's "children", like any field beyond its
        kind's, are ignored.  Malformed input raises ExprError naming the
        offending field."""
        kind = _kind(row)
        k = len(self.rows)
        if kind == "var":
            node = var(_integer_field(row, "index"))
        elif kind == "const":
            node = const(_number_field(row, "value"))
        else:
            children = row.get("children", [])
            if not isinstance(children, list):
                raise ExprError(f"{kind} node: 'children' must be a list")
            kids = [self.nodes[_earlier(c, k)] for c in children]
            if kind == "intpow":
                exponent = _integer_field(row, "exponent")
            if kind in _NARY_KINDS:
                node = add(*kids) if kind == "sum" else mul(*kids)
            elif len(kids) != 1:
                raise ExprError(f"{kind} takes exactly one child")
            elif kind == "intpow":
                node = intpow(kids[0], exponent)
            else:
                node = ScalarExpr(kind, kids)
        self.nodes.append(node)
        self.rows.append(row)
        return k

    def _leaf(self, d):
        """The row of a `var` or `const` input object."""
        v = d.get("index" if d["kind"] == "var" else "value")
        if len(d) == 2 and type(v) in (int, float):
            key = (d["kind"], type(v), _bits(v), ())
            k = self._keys.get(key)
            if k is None:
                k = self._keys[key] = self.append(dict(d))
            return k
        hit = self._given.get(id(d))
        if hit is None:
            hit = self._given[id(d)] = (d, self.append(dict(d)))
        return hit[1]

    def _inner(self, d, kids):
        """The row of an input object with children, given their rows."""
        kind, p = d["kind"], d.get("exponent")
        power = kind == "intpow"
        if ("children" in d and len(d) == 2 + power
                and (not power or type(p) in (int, float))):
            key = (kind, type(p), _bits(p), tuple(kids))
            k = self._keys.get(key)
            if k is None:
                k = self._keys[key] = self.append({**d, "children": kids})
            return k
        hit = self._given.get(id(d))
        if hit is None:
            row = dict(d)
            if "children" in d:
                row["children"] = kids
            hit = self._given[id(d)] = (d, self.append(row))
        return hit[1]


def from_table(rows):
    """The node of each row of a schema v2 node table, in order.

    Rows are read in order by `ReadTable.append`; a row's children must be
    integer indices of earlier rows, so reading needs no recursion and
    meets no cycle.  Malformed input raises ExprError naming the row."""
    if not isinstance(rows, list):
        raise ExprError("must be a list of node rows")
    table = ReadTable()
    for k, row in enumerate(rows):
        try:
            table.append(row)
        except ExprError as e:
            raise ExprError(f"row {k}: {e}") from e
    return table.nodes


def _earlier(c, k):
    i = as_integer(c)
    if i is None or not 0 <= i < k:
        raise ExprError(f"child {c!r} is not the index of an earlier row")
    return i


def from_dict(d, table=None):
    """Load an expression from its nested JSON form (schema v1).

    The walk keeps its own stack, so depth is not limited by recursion, and
    reads each input object with children once, however often it is shared
    (a leaf costs one key lookup per occurrence).  Nodes are built through
    the builders, which hash-cons them, so structurally equal subtrees come
    back as one shared node (`1` and `1.0` give one constant).

    The input is read into `table` (a `ReadTable`, kept by the caller; pass
    the same one to several calls to read them into one table), one row per
    distinct spelling, in post-order with children in order, and the row of
    `d` is appended to `table.roots`.  A row is a copy of its object with
    the rows of its children as its children, so inlining the rows gives
    back the input byte for byte.  An object that has its kind's fields and
    no others is keyed on (kind, parameter type and bits, rows of its
    children): equal keys mean byte-equal JSON, so a hit reuses the row
    without validating again.  An object with fields beyond its kind's gets
    a row of its own.  Returns the node; malformed input raises ExprError
    naming the offending field.
    """
    if table is None:
        table = ReadTable()
    # id of an input object with children -> its row, None while its
    # children are read; leaves are read where their parent is
    done = {}
    stack = [(None, iter((d,)), [])]  # (object, its children, their rows)
    while True:
        raw, kids, got = stack[-1]
        for c in kids:
            if isinstance(c, dict) and c.get("kind") in _LEAF_KINDS:
                got.append(table._leaf(c))
                continue
            k = done.get(id(c), -1)
            if k is None:
                raise ExprError(f"{raw['kind']} node: cyclic children")
            if k >= 0:  # read through another parent
                got.append(k)
                continue
            kind = _kind(c)
            children = c.get("children", [])
            if not isinstance(children, list):
                raise ExprError(f"{kind} node: 'children' must be a list")
            done[id(c)] = None
            stack.append((c, iter(children), []))
            break
        else:
            stack.pop()
            if raw is None:
                break
            k = done[id(raw)] = table._inner(raw, got)
            stack[-1][2].append(k)
    table.roots.append(got[0])
    return table.nodes[got[0]]


def _kind(d):
    if not isinstance(d, dict) or "kind" not in d:
        raise ExprError("expression node must be an object with a 'kind'")
    kind = d["kind"]
    if kind not in _ALL_KINDS:
        raise ExprError(f"unknown node kind {kind!r}")
    return kind


def _bits(v):
    """A JSON parameter as the exact-JSON key sees it, next to its type:
    zeros by their sign bit (no two other floats compare equal)."""
    return v.hex() if type(v) is float and not v else v


def as_integer(v):
    """`v` as an int, or None when it is not one.  Integral floats such as
    2.0 are integers; bools are not (no index or exponent is a bool)."""
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    return v if type(v) is int else None


def as_finite_number(v):
    """`v` as a float when it is a finite int or float, else None."""
    try:
        value = float(v) if type(v) in (int, float) else math.nan
    except OverflowError:
        value = math.inf
    return value if math.isfinite(value) else None


def _integer_field(d, name):
    v = as_integer(d.get(name))
    if v is None:
        raise ExprError(f"{d['kind']} node: {name!r} must be an integer, "
                        f"got {d.get(name)!r}")
    return v


def _number_field(d, name):
    value = as_finite_number(d.get(name))
    if value is None:
        raise ExprError(f"{d['kind']} node: {name!r} must be a finite number, "
                        f"got {d.get(name)!r}")
    return value


def to_json(expr, **kwargs):
    return json.dumps(to_dict(expr), **kwargs)


def from_json(s):
    return from_dict(json.loads(s))
