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
identities of the decomposition exact.  Loading (`from_dict`) interns
structurally equal nodes, so a tree that repeats a subexpression comes back
as a DAG in which each distinct node is built once and shared; structural
equality compares float parameters by their bits, so `const(0.0)` and
`const(-0.0)` stay distinct.
"""

from __future__ import annotations

import json
import math

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
    "to_dict",
    "from_dict",
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
    their arguments.
    """

    __slots__ = ("kind", "children", "param", "vmask", "_hash")

    def __init__(self, kind, children=(), param=None):
        if kind not in _ALL_KINDS:
            raise ExprError(f"unknown node kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "children", tuple(children))
        object.__setattr__(self, "param", param)
        # bit a is set when x_a occurs in the tree
        vmask = 1 << param if kind == "var" else 0
        for c in self.children:
            vmask |= c.vmask
        object.__setattr__(self, "vmask", vmask)
        object.__setattr__(self, "_hash", None)

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

    # Structural equality (used by serialization tests; identity is what the
    # evaluator memoizes on, so this is never on a hot path).
    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        return (
            self.kind == other.kind
            and _param_key(self.param) == _param_key(other.param)
            and self.children == other.children
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.kind, _param_key(self.param), self.children))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def max_index(self):
        """Largest variable index in the tree, -1 when it has none."""
        return self.vmask.bit_length() - 1

    @property
    def nvars(self):
        """Smallest variable count covering every variable in the tree."""
        return self.max_index + 1


def _param_key(param):
    """A node parameter as equality and interning see it: floats by their
    bits, so that 0.0 and -0.0 differ."""
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
    if not isinstance(index, int) or not 0 <= index < MAX_VARS:
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
    if not isinstance(exponent, int):
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
# JSON schema, one object per node:
#   {"kind": "var", "index": int}
#   {"kind": "const", "value": float}
#   {"kind": "intpow", "exponent": int, "children": [node]}
#   {"kind": <other>, "children": [node, ...]}
#
# Floats rely on repr round-tripping, so parameters survive bit-exactly.


def to_dict(expr):
    if expr.kind == "var":
        return {"kind": "var", "index": expr.param}
    if expr.kind == "const":
        return {"kind": "const", "value": expr.param}
    d = {"kind": expr.kind, "children": [to_dict(c) for c in expr.children]}
    if expr.kind == "intpow":
        d["exponent"] = expr.param
    return d


def from_dict(d, table=None):
    """Load an expression from its JSON form, interning equal nodes.

    Each node is keyed on (kind, parameter bits, ids of its already interned
    children) and built only when the key is new, so structurally equal
    subtrees come back as one shared node.  Pass the same `table` (a dict,
    kept by the caller) to several calls to share nodes across expressions.
    Malformed input raises ExprError naming the offending field.
    """
    if table is None:
        table = {}
    if not isinstance(d, dict) or "kind" not in d:
        raise ExprError("expression node must be an object with a 'kind'")
    kind = d["kind"]
    if kind not in _ALL_KINDS:
        raise ExprError(f"unknown node kind {kind!r}")
    children = ()
    param = None
    if kind == "var":
        param = _integer_field(d, "index")
    elif kind == "const":
        param = _number_field(d, "value")
    else:
        children = d.get("children", [])
        if not isinstance(children, list):
            raise ExprError(f"{kind} node: 'children' must be a list")
        children = tuple(from_dict(c, table) for c in children)
        if kind == "intpow":
            param = _integer_field(d, "exponent")
    key = (kind, _param_key(param), tuple(map(id, children)))
    node = table.get(key)
    if node is None:
        node = _build(kind, children, param)
        table[key] = node
    return node


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


def _build(kind, children, param):
    if kind == "var":
        return var(param)
    if kind == "const":
        return const(param)
    if kind == "sum":
        return add(*children)
    if kind == "product":
        return mul(*children)
    if len(children) != 1:
        raise ExprError(f"{kind} takes exactly one child")
    if kind == "intpow":
        return intpow(children[0], param)
    return ScalarExpr(kind, children)


def to_json(expr, **kwargs):
    return json.dumps(to_dict(expr), **kwargs)


def from_json(s):
    return from_dict(json.loads(s))
