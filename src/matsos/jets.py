"""Exact mixed partial derivatives of expression trees up to total order 4.

Derivatives are computed by forward propagation of truncated Taylor tables
("jets"), not symbolic expansion: every node maps the jets of its children
to its own jet through truncated series arithmetic, so products realize the
Leibniz rule and compositions realize Faa di Bruno as plain arithmetic.
Tables are batched over sample points (shape ``(ncoef, npts)``), which is
what makes grid sweeps over thousands of points cheap.

Every coefficient of a product is a sum of up to 16 terms, added in an order
that matsos writes out itself (`JetSpace.mul`) instead of inheriting it from
a numpy reduction: the first term plus numpy's pairwise sum of the others.
That is the order of ``np.add.reduceat``, so the tables are bit for bit
those of the gather/``reduceat`` product.

A jet space can keep only the multiindices a caller reads:
``space(nvars, order, support)`` holds the downward closure
``{m : m <= mu for some mu in support}``, in the order of the full space.
Row k of a product sums the pairs with ``mi + mj = mk``; both lie below
``mk``, so they are in the closure, and every kept row is computed with the
same terms in the same order as in the full space.  A sub-space can differ
from the full space in two places only:

1. The constant-operand shortcut of `JetSpace.mul` is decided over the kept
   rows.  An operand that is non-constant only in dropped rows takes the
   shortcut, so only the sign of a zero derivative can differ.
2. A sample is scrubbed as invalid only for non-finite values in kept rows,
   so it fails only where a derivative that is read fails.

Each node is evaluated in a smaller space still: the rows of the caller's
space (full, or a support) whose multiindices involve only the variables
the node reads (`ScalarExpr.vmask`), a restriction kept per (space, mask).
A child's table is lifted into its parent's space by scattering its rows
into zeros.  `eval_jet_batch` returns the root as a jet of the requested
space, so no caller sees a different shape, but scatters its table only
when `coef` is read: values, gradients, per-order maxima and
`derivative_rows` read the kept rows (a block-M7 entry keeps at most 70
of 330 rows).  This is the full-space evaluation up to the sign of a zero:

- Every kept row sums the same terms in the same order as in the full
  space: the terms of row mk pair multiindices below mk, and those involve
  only the variables of mk.
- Every dropped row is zero there in a finite column: each of its terms
  has a factor from a dropped row of an operand.
- A non-finite dropped row implies a non-finite kept row, since 0 * inf
  needs a non-finite operand row, which reaches row 0 or row i of the
  product through ``a[i] * b[0]`` (or ``a[0] * b[j]``).

So values, NaN positions, the three flags below and `limit` are those of
the full space; the constant-operand shortcut can then differ only as in
point 1, in the sign of a zero.

A column of a table depends on the other columns of its point stack only
through that shortcut, which is decided over the whole stack; every other
step works column by column.  So a stack of point blocks evaluates each
block as if alone, up to the sign of a zero, and callers may stack the
points of several evaluations (the Holder pair ladders of several centers)
into one.

Singularities are never silent.  Each point carries three flags:

``invalid``
    evaluation failed there (reciprocal/sqrt domain, overflow, ...);
``poly_singular``
    the failure is a genuine singularity with at most polynomially growing
    jets nearby (1/r-type), as opposed to a domain violation or a
    super-polynomial blowup;
``flat_zero``
    the value is a certified infinite-order zero (a flat or bump primitive
    hit the flat point of its domain).

A product in which one factor is a certified flat zero annihilates siblings
that failed with a polynomially bounded singularity: flat times polynomial
growth is exactly zero, jets included.  This is what lets expressions like
``flat(r) * bump(t/r)`` evaluate to their true zero jets on the set r = 0
instead of erroring.

Most jets carry no flag at all.  Such a *clean* jet shares the read-only
all-False flag arrays of its length, and `limit` is built only when read
(all NaN unless a primitive set it).  A sum, product or power of clean
children skips the flag algebra and starts clean, and `_scrub` then costs
one finiteness test, flagging and zeroing only the non-finite columns it
finds.  The arithmetic is the same with or without flags, so the tables are
bit for bit those of the flag algebra.

Evaluations share work through memos keyed by node identity; every table a
memo holds is read-only.  Within `run_table` (opened by `run_config` for a
run) all order-0 evaluations share one table, one memo per (point stack
shape and bytes, `JetSpace`): the space carries nvars, order and support,
so no support is served from another's table, and the table keeps the
roots it evaluated so that no `id()` in it is reused.  Order-0 tables of a
grid are small and are read by many stages.  Orders >= 1 stay in per-call
memos: keeping them too, with no eviction, raised the peak RSS of the
block-M7 benchmark job (400 points in 7 variables) from 53.8 to 61.2 MB on
a 2-vCPU host with Python 3.11 and numpy 2.4, next to its 15% bound.
"""

from __future__ import annotations

import contextvars
import math
from contextlib import contextmanager
from functools import lru_cache
from itertools import combinations_with_replacement
from itertools import product as _iproduct

import numpy as np

from .expr import ScalarExpr, VariableCountError

__all__ = [
    "JetSpace",
    "JetBatch",
    "Jet4",
    "eval_jet",
    "eval_jet_batch",
    "eval_entries",
    "derivative_rows",
    "eval_ladders",
    "eval_values",
    "eval_log_values",
    "run_table",
    "SingularDomainError",
    "LogEvalError",
    "MAX_ORDER",
]

MAX_ORDER = 4

_TINY_LOG = -710.0  # exp() underflows to exactly 0.0 below this


class SingularDomainError(ValueError):
    """Evaluation hit a declared singular set or a domain violation."""

    def __init__(self, message, point=None):
        if point is not None:
            message = f"{message} at point {np.asarray(point).tolist()}"
        super().__init__(message)
        self.point = point


class LogEvalError(ValueError):
    """Expression structure does not support exact log-space evaluation."""


# ---------------------------------------------------------------------------
# Jet spaces: multiindex enumeration and multiplication tables


def _as_int(v):
    """`v` as an int when it is one (numpy integers included), else None;
    a bool is not an integer here, as in `expr.as_integer`."""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return int(v)
    return None


@lru_cache(maxsize=None)
def space(nvars, order, support=None):
    """The jet space of `nvars` variables to `order`; with a `support` (a
    tuple of multiindices) the sub-space of their downward closure."""
    return JetSpace(nvars, order, support)


class JetSpace:
    """Multiindex bookkeeping for jets in `nvars` variables up to `order`.

    Rows are the multiindices below some element of `support` (every
    multiindex of total order `order` when None), sorted by (|m|, m).
    """

    def __init__(self, nvars, order, support=None):
        if not 1 <= nvars <= 8:
            raise ValueError("nvars must be in 1..8")
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"order must be in 0..{MAX_ORDER}")
        self.nvars = nvars
        self.order = order
        if support is None:
            support = [
                tuple(c.count(a) for a in range(nvars))
                for c in combinations_with_replacement(range(nvars), order)
            ]
        else:
            support = [self.checked(mu) for mu in support]
            if not support:
                raise ValueError("a support needs at least one multiindex")
        closure = set()
        for mu in support:
            closure.update(_iproduct(*(range(k + 1) for k in mu)))
        multi = sorted(closure, key=lambda m: (sum(m), m))
        self.multi = tuple(multi)
        self.ncoef = len(multi)
        self.pos = pos = {m: i for i, m in enumerate(multi)}
        self.total = np.array([sum(m) for m in multi])
        self.fact = np.array(
            [float(math.prod(math.factorial(k) for k in m)) for m in multi]
        )
        # Row k of a product sums the terms a[i] * b[j] over the pairs with
        # mi + mj = mk, in increasing i; term 0 is a[0] * b[k], and row 0 has
        # no other.  Rows 1.. are ranked by decreasing term count, so the
        # rows that have a term t >= 1 form a prefix of the ranking, and
        # _slabs[t - 1] holds the (i, j) index arrays of their term t.
        # Only rows mj with |mi| + |mj| <= order can pair with mi; they are
        # the prefix multi[:end[order - |mi|]].
        end = np.searchsorted(self.total, np.arange(order + 1), side="right")
        terms = [[] for _ in multi]
        for i, mi in enumerate(multi):
            for j, mj in enumerate(multi[:end[order - sum(mi)]]):
                k = pos.get(tuple(a + b for a, b in zip(mi, mj)))
                if k is not None:
                    terms[k].append((i, j))
        counts = np.array([len(t) for t in terms])
        # at order <= 4 a row has at most 16 terms: one pairwise block of 8
        assert counts.max() <= 16
        rank = 1 + np.argsort(-counts[1:], kind="stable")
        self._slabs = []
        for t in range(1, counts.max()):
            ij = np.array([terms[k][t] for k in rank if counts[k] > t],
                          dtype=np.intp)
            self._slabs.append((ij[:, 0], ij[:, 1]))
        self._unrank = np.argsort(rank)
        if order >= 1:
            eye = np.eye(nvars, dtype=int)
            # None where a unit row is not in the space: that variable
            # seeds no derivative
            self.unit = [pos.get(tuple(row)) for row in eye.tolist()]
        else:
            self.unit = []

    def checked(self, mu):
        """`mu` as a tuple of ints, or a named error when no space of this
        variable count and order can hold it."""
        mu = tuple(mu)
        if len(mu) != self.nvars:
            raise VariableCountError(
                f"multiindex length {len(mu)} != {self.nvars} variables"
            )
        ints = tuple(_as_int(k) for k in mu)
        if None in ints or min(ints) < 0:
            raise ValueError(
                f"multiindex {mu} must have non-negative integer components"
            )
        if sum(ints) > self.order:
            raise ValueError(f"multiindex {mu} exceeds order {self.order}")
        return ints

    def row(self, mu):
        """Row index of multiindex `mu`, or a named error when it has none."""
        i = self.pos.get(self.checked(mu))
        if i is None:
            raise ValueError(f"multiindex {tuple(mu)} is outside the support "
                             f"of this jet space")
        return i

    def mul(self, a, b):
        """Truncated product of two Taylor-coefficient tables.

        Output row k sums its terms ``x_t = a[i_t] * b[j_t]`` (the pairs with
        ``mi + mj = mk``, in increasing ``i``) in one fixed order, written
        out here rather than left to a numpy reduction:
        ``x_0 + S(x_1, ..., x_{L-1})``, where ``S`` adds left to right when
        it has fewer than 8 terms, and otherwise forms
        ``((x_1+x_2)+(x_3+x_4))+((x_5+x_6)+(x_7+x_8))`` and then adds the
        rest left to right.  That is how ``np.add.reduceat`` sums a group
        (the first term, then numpy's pairwise sum of the others), so the
        products equal the gather/``reduceat`` form bit for bit.

        Constant-operand shortcut: when one operand is a constant jet
        (every row but the value row is zero) the product is ``a[0] * b``,
        with no gather over multiindex pairs.  The dropped terms are exact
        zeros, so the result can differ from the general product only in
        the sign of a zero, or in which rows of an already non-finite
        column are non-finite (such columns are scrubbed as invalid either
        way).  Most products start from such an operand: the seed 1 of
        products and powers, Horner's constant start, constant factors,
        and every order-0 table.
        """
        if not a[1:].any():
            return a[0] * b
        if not b[1:].any():
            return a * b[0]
        # Term t >= 1 of the ranked rows that have it, one slab at a time, so
        # no temporary is larger than the output.  The sum S accumulates in
        # place in s, whose rows are in ranked order.
        add = np.add
        slabs = self._slabs
        s = a[slabs[0][0]] * b[slabs[0][1]]
        big = len(slabs[7][0]) if len(slabs) > 7 else 0  # rows of 9+ terms
        r = []
        for i, j in slabs[1:8]:
            xt = a[i] * b[j]
            lo = big if r else 0
            add(s[lo:len(xt)], xt[lo:], out=s[lo:len(xt)])
            r.append(xt[:big])
        if big:
            # s[:big] is x1 + x2; add (x3 + x4) + ((x5 + x6) + (x7 + x8))
            x3, x4, x5, x6, x7, x8 = r[1:]
            for u, v in ((x3, x4), (x5, x6), (x7, x8), (x5, x7)):
                add(u, v, out=u)
            add(s[:big], x3, out=s[:big])
            add(s[:big], x5, out=s[:big])
            for i, j in slabs[8:]:
                add(s[:len(i)], a[i] * b[j], out=s[:len(i)])
        out = a[0] * b
        add(out[1:], s[self._unrank], out=out[1:])
        return out

    def const_table(self, values):
        out = np.zeros((self.ncoef, len(values)))
        out[0] = values
        return out


# ---------------------------------------------------------------------------
# Truncated univariate series helpers, tables of shape (order+1, npts)


def _series_mul(a, b):
    L = a.shape[0]
    out = np.zeros_like(a)
    for k in range(L):
        for i in range(k + 1):
            out[k] += a[i] * b[k - i]
    return out


def _series_exp(s):
    """exp of a truncated series, constant term included."""
    L = s.shape[0]
    shat = s.copy()
    shat[0] = 0.0
    out = np.zeros_like(s)
    out[0] = 1.0
    term = out.copy()
    for k in range(1, L):
        term = _series_mul(term, shat) / k
        out += term
    with np.errstate(over="ignore"):
        return out * np.exp(s[0])


def _series_recip(v):
    """1/v as a truncated series; caller guarantees v[0] != 0."""
    L = v.shape[0]
    r = -v / v[0]
    r[0] = 0.0
    out = np.zeros_like(v)
    out[0] = 1.0
    term = out.copy()
    for _ in range(1, L):
        term = _series_mul(term, r)
        out += term
    return out / v[0]


def _binom_series(u0, alpha, L):
    """Taylor table of t**alpha around u0 (u0 > 0 enforced by callers)."""
    out = np.empty((L, len(u0)))
    coeff = np.ones_like(u0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for m in range(L):
            out[m] = coeff * u0 ** (alpha - m)
            coeff = coeff * (alpha - m) / (m + 1)
    return out


# ---------------------------------------------------------------------------
# Batched jets


class JetBatch:
    """Taylor coefficient tables at a batch of points, with validity flags.

    `limit` holds the defined limiting value at invalid points when the
    primitive that failed still has one (sqrt at an interior zero of its
    argument); NaN otherwise.  Flat primitives consult it so that e.g.
    flat(sqrt(x^2+y^2)) is a certified zero jet at the origin.

    Flags left out are all False, and a `limit` left out is all NaN; both
    are then the shared read-only arrays of the jet's length.
    """

    __slots__ = ("space", "coef", "invalid", "poly_singular", "flat_zero",
                 "_limit")

    def __init__(self, space, coef, invalid=None, poly_singular=None,
                 flat_zero=None, limit=None):
        self.space = space
        self.coef = coef
        if invalid is None:
            invalid = poly_singular = flat_zero = _blank(coef.shape[1])[0]
        self.invalid = invalid
        self.poly_singular = poly_singular
        self.flat_zero = flat_zero
        self._limit = limit

    @property
    def limit(self):
        if self._limit is None:
            return _blank(len(self.invalid))[1]
        return self._limit

    @property
    def clean(self):
        """True when no column is invalid or a flat zero (`poly_singular` is
        a subset of `invalid`): the flags are the shared all-False arrays.
        A jet whose flags are all False but not shared reads False, which
        costs only the flag algebra it could have skipped."""
        f = self.invalid
        return f is self.flat_zero and f is _blank(len(f))[0]

    @property
    def npts(self):
        return self.kept()[1].shape[1]

    @property
    def values(self):
        return self.kept()[1][0]

    def derivatives(self):
        """Derivative table D^mu (Taylor coefficients times mu!)."""
        return self.coef * self.space.fact[:, None]

    def derivative(self, mu):
        i = self.space.row(mu)
        return self.coef[i] * self.space.fact[i]

    def max_abs_of_order(self, m):
        """max over |mu| = m of |D^mu| per point (0.0 where the space keeps
        no row of that order); a named error when `m` is not an order of
        the space."""
        _check_order(m, self.space)
        sub, coef = self.kept()
        rows = sub.total == m
        if not rows.any():
            return np.zeros(self.npts)
        d = np.abs(coef[rows] * sub.fact[rows, None])
        return d.max(axis=0)

    def gradient(self):
        _check_gradient(self.space)
        sub, coef = self.kept()
        out = np.zeros((len(sub.unit), self.npts))
        for a, i in enumerate(sub.unit):
            if i is not None:
                out[a] = coef[i] * sub.fact[i]
        return out

    def kept(self):
        """(space, table) of the rows this jet holds; every other row of
        `space` is an exact zero.  Values, gradients and per-order maxima
        are read from these rows, with the same products as from the full
        table."""
        return self.space, self.coef


class _LiftedBatch(JetBatch):
    """A jet evaluated in a restriction of `space` (see `_restrict`), read
    as a jet of `space`.  The rows the restriction drops are exact zeros;
    they are scattered in only when `coef` is read."""

    __slots__ = ("_jet", "_keep", "_full")

    def __init__(self, space, jet, keep):
        self.space = space
        self.invalid = jet.invalid
        self.poly_singular = jet.poly_singular
        self.flat_zero = jet.flat_zero
        self._limit = jet._limit
        self._jet, self._keep, self._full = jet, keep, None

    @property
    def coef(self):
        if self._full is None:
            self._full = np.zeros((self.space.ncoef, self._jet.npts))
            self._full[self._keep] = self._jet.coef
        return self._full

    def kept(self):
        return self._jet.space, self._jet.coef


def _check_order(m, sp):
    if _as_int(m) is None or not 0 <= m <= sp.order:
        raise ValueError(f"derivative order {m!r} is outside 0..{sp.order} "
                         f"of this jet space")


def _check_gradient(sp):
    if not sp.order:
        raise ValueError("an order-0 jet has no gradient")
    if None in sp.unit:
        raise ValueError("the gradient rows are not in this jet space")


@lru_cache(maxsize=64)
def _blank(npts):
    """Read-only all-False flags and all-NaN limits of `npts` columns,
    shared by every jet of that length that leaves them out."""
    flags, limit = np.zeros(npts, dtype=bool), np.full(npts, np.nan)
    flags.flags.writeable = limit.flags.writeable = False
    return flags, limit


def _scrub(jet):
    """Zero out columns that are invalid or non-finite, and flag the latter.
    A clean jet costs one finiteness test, and only the non-finite columns
    it finds are flagged; a jet left without flags takes the shared ones."""
    bad = ~np.isfinite(jet.coef).all(axis=0)
    if jet.clean:
        if bad.any():
            jet.invalid = bad
            jet.coef[:, bad] = 0.0
        return jet
    newbad = bad & ~jet.invalid
    if newbad.any():
        jet.invalid = jet.invalid | newbad
        jet.poly_singular = jet.poly_singular & ~newbad
    if jet.invalid.any():
        jet.coef[:, jet.invalid] = 0.0
        jet.flat_zero = jet.flat_zero & ~jet.invalid
    elif not jet.flat_zero.any():
        jet.invalid = jet.poly_singular = jet.flat_zero = _blank(len(bad))[0]
    return jet


@lru_cache(maxsize=None)
def _restrict(sp, vmask):
    """The sub-space of `sp` whose multiindices involve only the variables
    in `vmask` (bit a for x_a), and the indices of its rows in `sp` (None
    when it keeps every row and is `sp` itself)."""
    keep = [k for k, m in enumerate(sp.multi)
            if not any(e and not vmask >> a & 1 for a, e in enumerate(m))]
    if len(keep) == sp.ncoef:
        return sp, None
    sub = space(sp.nvars, sp.order, tuple(sp.multi[k] for k in keep))
    return sub, np.array(keep, dtype=np.intp)


def _lifted(node, jet, sp):
    """The table of `node`'s jet in `sp`, a space at least as large as the
    one it was evaluated in: its rows, and exact zeros in the rows of the
    variables it does not read."""
    rows = _restrict(sp, node.vmask)[1]
    if rows is None:
        return jet.coef
    out = np.zeros((sp.ncoef, jet.npts))
    out[rows] = jet.coef
    return out


def _eval_node(root, pts, sp, memo):
    """Jets of every node under `root` not yet in `memo`, children first,
    each in the restriction of `sp` to the variables it reads; returns the
    jet of `root`.  The walk keeps its own stack, so the depth of a tree is
    not bounded by Python's recursion limit.  The arrays of every jet put
    in `memo` are made read-only: a memo (a run table's above all) hands
    one jet to many readers."""
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in memo:
            stack.pop()
            continue
        todo = [c for c in node.children if id(c) not in memo]
        if todo:
            stack.extend(reversed(todo))
            continue
        stack.pop()
        jet = _eval_one(node, pts, _restrict(sp, node.vmask)[0], memo)
        for a in (jet.coef, jet.invalid, jet.poly_singular, jet.flat_zero):
            a.flags.writeable = False
        memo[id(node)] = jet
    return memo[id(root)]


def _eval_one(node, pts, sp, memo):
    """Jet of `node` in `sp` from the jets of its children in `memo`.  A
    sum, product or power runs the flag algebra only when some child
    carries a flag; its arithmetic is the same either way."""
    kind = node.kind
    npts = pts.shape[0]
    kids = [memo[id(c)] for c in node.children]
    if kind in ("const", "var"):
        coef = np.zeros((sp.ncoef, npts))
        if kind == "const":
            coef[0] = node.param
        else:
            coef[0] = pts[:, node.param]
            if sp.order >= 1 and sp.unit[node.param] is not None:
                coef[sp.unit[node.param]] = 1.0
        return JetBatch(sp, coef)
    if kind not in ("sum", "product") and not (kind == "intpow"
                                               and node.param >= 0):
        return _compose(node, kids[0], sp)
    if kind == "sum":
        coef = np.zeros((sp.ncoef, npts))
        for c, k in zip(node.children, kids):
            coef += _lifted(c, k, sp)
    else:
        coef = np.zeros((sp.ncoef, npts))
        coef[0] = 1.0
        if kind == "product":
            for c, k in zip(node.children, kids):
                coef = sp.mul(coef, _lifted(c, k, sp))
        else:
            base, k = kids[0].coef, node.param
            while k:
                if k & 1:
                    coef = sp.mul(coef, base)
                k >>= 1
                if k:
                    base = sp.mul(base, base)
    if all(k.clean for k in kids):
        return _scrub(JetBatch(sp, coef))
    if kind == "sum":
        inv = np.zeros(npts, dtype=bool)
        poly = np.ones(npts, dtype=bool)
        flat = np.ones(npts, dtype=bool)
        for k in kids:
            inv |= k.invalid
            poly &= k.poly_singular | ~k.invalid
            flat &= k.flat_zero
        poly &= inv
        flat &= ~inv
    elif kind == "product":
        inv_any = np.zeros(npts, dtype=bool)
        flat_any = np.zeros(npts, dtype=bool)
        poly_ok = np.ones(npts, dtype=bool)
        for k in kids:
            inv_any |= k.invalid
            flat_any |= k.flat_zero
            poly_ok &= k.poly_singular | ~k.invalid
        annihilated = flat_any & inv_any & poly_ok
        inv = inv_any & ~annihilated
        poly = poly_ok & inv
        flat = flat_any & ~inv
        coef[:, annihilated] = 0.0
    else:
        child = kids[0]
        inv = child.invalid.copy()
        poly = child.poly_singular & inv
        flat = child.flat_zero & (node.param >= 1) & ~inv
    return _scrub(JetBatch(sp, coef, inv, poly, flat))


def _compose(node, child, sp):
    """Unary primitives via truncated composition with a univariate series."""
    kind = node.kind
    npts = child.npts
    L = sp.order + 1
    u0 = child.values
    inv = child.invalid.copy()
    poly = np.zeros(npts, dtype=bool)
    flatz = np.zeros(npts, dtype=bool)
    ok = ~inv
    series = np.zeros((L, npts))

    with np.errstate(divide="ignore", over="ignore", invalid="ignore", under="ignore"):
        if kind == "recip":
            sing = ok & (u0 <= 0.0)
            poly = sing & (u0 == 0.0) & ~child.flat_zero
            inv |= sing
            safe = np.where(sing, 1.0, u0)
            for m in range(L):
                series[m] = (-1.0) ** m * safe ** -(m + 1)
        elif kind == "sqrt":
            neg = ok & (u0 < 0.0)
            zero = ok & (u0 == 0.0)
            certified = zero & child.flat_zero
            hard = zero & ~child.flat_zero & (sp.order >= 1)
            inv |= neg | hard
            poly = hard
            flatz = certified
            limit0 = hard
            safe = np.where(u0 <= 0.0, 1.0, u0)
            series = _binom_series(safe, 0.5, L)
            series[:, zero & ~inv] = 0.0
        elif kind == "exp":
            series = np.zeros((L, npts))
            e0 = np.exp(u0)
            f = 1.0
            for m in range(L):
                series[m] = e0 / f
                f *= m + 1
        elif kind == "intpow":  # negative exponent only; k >= 0 handled above
            k = node.param
            zero = ok & (u0 == 0.0)
            poly = zero & ~child.flat_zero
            inv |= zero
            safe = np.where(u0 == 0.0, 1.0, u0)
            series = np.empty((L, npts))
            coeff = np.ones(npts)
            for m in range(L):
                series[m] = coeff * safe ** (k - m)
                coeff = coeff * (k - m) / (m + 1)
        elif kind == "flat":
            rescued = child.invalid & child.poly_singular & (child.limit == 0.0)
            inv &= ~rescued
            zero = (ok & ((u0 == 0.0) | child.flat_zero)) | rescued
            flatz = zero
            safe = np.where(u0 == 0.0, 1.0, u0)
            s = np.empty((L, npts))
            s[0] = -(safe ** -2.0)
            for m in range(1, L):
                s[m] = (-1.0) ** (m + 1) * (m + 1) * safe ** -(2.0 + m)
            dead = s[0] <= _TINY_LOG
            s[:, dead] = 0.0
            series = _series_exp(s)
            series[:, dead] = 0.0
            series[:, zero] = 0.0
        elif kind == "flatabs":
            rescued = child.invalid & child.poly_singular & (child.limit == 0.0)
            inv &= ~rescued
            zero = (ok & ((u0 == 0.0) | child.flat_zero)) | rescued
            flatz = zero
            safe = np.where(u0 == 0.0, 1.0, np.abs(u0))
            sgn = np.where(u0 >= 0.0, 1.0, -1.0)
            s = np.empty((L, npts))
            spow = np.ones(npts)
            for m in range(L):
                s[m] = -((-1.0) ** m) * safe ** -(m + 1.0) * spow
                spow = spow * sgn
            dead = s[0] <= _TINY_LOG
            s[:, dead] = 0.0
            series = _series_exp(s)
            series[:, dead] = 0.0
            series[:, zero] = 0.0
        elif kind == "bump":
            outside = ok & (np.abs(u0) >= 1.0)
            flatz = outside
            safe = np.where(np.abs(u0) >= 1.0, 0.0, u0)
            v = np.zeros((L, npts))
            v[0] = 1.0 - safe ** 2
            if L > 1:
                v[1] = -2.0 * safe
            if L > 2:
                v[2] = -1.0
            w = -_series_recip(v)
            w[0] += 1.0
            series = _series_exp(w)
            series[:, outside] = 0.0
        else:  # pragma: no cover
            raise AssertionError(kind)

    # Horner composition in (u - u0)
    w = child.coef.copy()
    w[0] = 0.0
    coef = sp.const_table(series[L - 1])
    for m in range(L - 2, -1, -1):
        coef = sp.mul(coef, w)
        coef[0] += series[m]
    # Where the child itself failed: reciprocal-type and bounded primitives
    # of a polynomially singular subtree stay polynomially singular; exp of
    # one does not (the blowup can be super-polynomial).
    if kind == "exp":
        carried = np.zeros(npts, dtype=bool)
    else:
        carried = child.poly_singular
    poly = np.where(child.invalid, carried, poly)
    limit = None
    if kind == "sqrt" and (inv & limit0).any():
        limit = np.full(npts, np.nan)
        limit[inv & limit0] = 0.0
    out = JetBatch(sp, coef, inv, poly & inv, flatz & ~inv, limit)
    out.coef[:, out.flat_zero] = 0.0
    return _scrub(out)


# ---------------------------------------------------------------------------
# Public evaluation API


def _as_points(points, nvars):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] < nvars:
        raise VariableCountError(
            f"points have {pts.shape[1]} coordinates, expression uses {nvars}"
        )
    return pts


class _RunTable:
    """The order-0 jets of one run: one memo per (point stack, space).

    The key holds the shape and bytes of the points and the `JetSpace`
    itself, which carries nvars, order and support, so one support is
    never served from another's table.  Every root evaluated into a memo
    is kept, and with it every node below it, so no `id()` in a memo is
    reused while the table lives."""

    def __init__(self):
        self.memos = {}
        self.roots = []

    def memo(self, pts, sp):
        return self.memos.setdefault((pts.shape, pts.tobytes(), sp), {})


_RUN_TABLE = contextvars.ContextVar("matsos_run_table", default=None)


@contextmanager
def run_table():
    """Keep the order-0 jets of every evaluation in the block, so each
    (node, points, space) is evaluated once however many stages read it.
    `report.run_config` opens one per run; library callers may open their
    own.  The table is dropped when the block exits, normally or not; a
    block inside another has its own table while it runs."""
    token = _RUN_TABLE.set(_RunTable())
    try:
        yield
    finally:
        _RUN_TABLE.reset(token)


def _memo(pts, sp):
    """The memo for an evaluation at `pts` in `sp`: the open run table's
    at order 0, else a fresh one."""
    table = _RUN_TABLE.get()
    if table is None or sp.order:
        return {}
    return table.memo(pts, sp)


def _points_and_space(expr_nvars, points, order, nvars, support):
    nv = max(expr_nvars, 1) if nvars is None else nvars
    pts = _as_points(points, nv)
    o = _as_int(order)
    if o is None or not 0 <= o <= MAX_ORDER:
        raise ValueError(f"order must be an integer in 0..{MAX_ORDER}")
    if support is None:
        return pts, space(max(nv, 1), o)  # not (.., None): a second entry
    return pts, space(max(nv, 1), o, tuple(tuple(mu) for mu in support))


def eval_jet_batch(expr, points, order=MAX_ORDER, nvars=None, memo=None,
                   support=None):
    """Jets of `expr` at many points; invalid points are masked, not raised.

    Parameters
    ----------
    expr : ScalarExpr
    points : array_like, shape (npts, nvars)
    order : int in 0..4 (not a bool)
    nvars : optional variable count override (>= expr.nvars)
    memo : dict shared by `eval_entries` across the expressions it
        evaluates at the same points, order and support (entries of a matrix
        function share subtrees, which then get evaluated once); by default
        the open run table's at order 0 (see `run_table`), else a fresh one
    support : optional multiindices, each of total order <= `order`; the
        jets then hold only the rows of their downward closure (see the
        module docstring for the two ways such jets can differ)
    """
    if not isinstance(expr, ScalarExpr):
        raise TypeError("expr must be a ScalarExpr")
    pts, sp = _points_and_space(expr.nvars, points, order, nvars, support)
    if memo is None:
        memo = _memo(pts, sp)
    table = _RUN_TABLE.get()
    if table is not None and not sp.order and id(expr) not in memo:
        table.roots.append(expr)
    with np.errstate(all="ignore"):
        jet = _eval_node(expr, pts, sp, memo)
    if jet.space is sp:
        return jet
    return _LiftedBatch(sp, jet, _restrict(sp, expr.vmask)[1])


def eval_entries(exprs, points, order=MAX_ORDER, nvars=None, support=None):
    """Evaluate several expressions at shared points with a shared memo (the
    open run table's at order 0)."""
    nv = nvars if nvars is not None else max([1] + [e.nvars for e in exprs])
    pts, sp = _points_and_space(nv, points, order, nv, support)
    memo = _memo(pts, sp)
    return [eval_jet_batch(e, pts, order, nvars=nv, memo=memo,
                           support=support) for e in exprs]


def derivative_rows(jbs, mus):
    """The D^mu rows of jets that share one space: one (len(mus), npts)
    array per jet, row k `JetBatch.derivative(mus[k])`.  Each multiindex is
    validated once, and its row looked up once per space of kept rows."""
    if not jbs:
        return []
    sp = jbs[0].space
    if any(jb.space is not sp for jb in jbs):
        raise ValueError("the jets do not share one space")
    want = [sp.multi[sp.row(m)] for m in mus]
    lookup = {}
    out = []
    for jb in jbs:
        sub, coef = jb.kept()
        if sub not in lookup:
            ks = [k for k, m in enumerate(want) if m in sub.pos]
            rows = [sub.pos[want[k]] for k in ks]
            lookup[sub] = ks, rows, sub.fact[rows, None]
        ks, rows, fact = lookup[sub]
        d = np.zeros((len(want), jb.npts))
        d[ks] = coef[rows] * fact
        out.append(d)
    return out


def eval_ladders(exprs, ladders, order, nvars, support):
    """The failure masks and D^mu rows of `exprs` on Holder pair ladders.

    `ladders` is a list of (Y, Z) point stacks, one per center; the result
    has one (inv_y, inv_z, dy, dz) per ladder: the (len(exprs), P) failure
    masks of the two sides and, per expression, the (len(support), P)
    `derivative_rows`, all read-only.  The Y rows of every ladder are one
    point stack, evaluated by one `eval_entries` call at `order` in the
    space of `support`, the Z rows another, and the results are sliced per
    ladder: the rows of a ladder are those of its own evaluation up to the
    sign of a zero (see the module docstring), which |dy - dz| erases.
    One side's jet tables are freed before the other's are built (see
    `SymMatFun.paired` for why the sides are not one stack)."""
    def side(k):
        pts = np.concatenate([L[k] for L in ladders])
        jbs = eval_entries(exprs, pts, order, nvars=nvars, support=support)
        inv = np.array([jb.invalid for jb in jbs]).reshape(len(exprs),
                                                           len(pts))
        rows = derivative_rows(jbs, support)
        for a in [inv] + rows:
            a.flags.writeable = False
        return inv, rows

    (inv_y, dy), (inv_z, dz) = side(0), side(1)
    out = []
    lo = 0
    for Y, _ in ladders:
        cols = slice(lo, lo + len(Y))
        lo = cols.stop
        out.append((inv_y[:, cols], inv_z[:, cols],
                    [d[:, cols] for d in dy], [d[:, cols] for d in dz]))
    return out


class Jet4:
    """Strict single-point view of a jet: exact D^mu for all |mu| <= order."""

    def __init__(self, space, coef, point):
        self.space = space
        self._coef = coef
        self.point = point

    @property
    def order(self):
        return self.space.order

    @property
    def value(self):
        return float(self._coef[0])

    def derivative(self, mu):
        i = self.space.row(mu)
        return float(self._coef[i] * self.space.fact[i])

    def table(self):
        d = self._coef * self.space.fact
        return {m: float(d[i]) for i, m in enumerate(self.space.multi)}

    def gradient(self):
        _check_gradient(self.space)
        return np.array([self._coef[i] * self.space.fact[i] for i in self.space.unit])

    def max_abs_of_order(self, m):
        _check_order(m, self.space)
        rows = self.space.total == m
        if not rows.any():
            return 0.0
        return float(np.max(np.abs(self._coef[rows] * self.space.fact[rows])))


def eval_jet(expr, point, order=MAX_ORDER, nvars=None):
    """Exact partials of `expr` at one point, raising on singular domains."""
    point = np.asarray(point, dtype=float).reshape(-1)
    jb = eval_jet_batch(expr, point[None, :], order, nvars=nvars)
    if jb.invalid[0]:
        raise SingularDomainError("expression undefined", point=point)
    return Jet4(jb.space, jb.coef[:, 0].copy(), point)


def eval_values(expr, points, nvars=None):
    """Values at many points: returns (values, valid mask)."""
    jb = eval_jet_batch(expr, points, order=0, nvars=nvars)
    return jb.values.copy(), ~jb.invalid


# ---------------------------------------------------------------------------
# Exact log-space evaluation for positively-structured expressions


def eval_log_values(expr, points, nvars=None):
    """log(expr) at many points, computed in log space.

    Only defined for expressions built from nonnegative structure: products,
    positive constants, even powers, exp, sqrt, recip, the flat/bump
    primitives, and sums of such.  Exact where ordinary evaluation would
    underflow (flat factors at small arguments).  Raises LogEvalError when
    the structure cannot guarantee a sign.
    """
    nv = max(expr.nvars, 1) if nvars is None else nvars
    pts = _as_points(points, nv)
    return _log_eval(expr, pts)


def _plain_values(expr, pts):
    jb = eval_jet_batch(expr, pts, order=0, nvars=pts.shape[1])
    if jb.invalid.any():
        raise LogEvalError("inner value undefined at some points")
    return jb.values


def _log_eval(node, pts):
    kind = node.kind
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if kind == "const":
            if node.param < 0:
                raise LogEvalError("negative constant")
            return np.full(pts.shape[0], np.log(node.param))
        if kind == "var":
            v = pts[:, node.param]
            if (v < 0).any():
                raise LogEvalError("variable takes negative values")
            return np.log(v)
        if kind == "product":
            return sum(_log_eval(c, pts) for c in node.children)
        if kind == "sum":
            logs = np.stack([_log_eval(c, pts) for c in node.children])
            return np.logaddexp.reduce(logs, axis=0)
        if kind == "intpow":
            k = node.param
            if k % 2 == 0:
                try:
                    return k * _log_eval(node.children[0], pts)
                except LogEvalError:
                    v = _plain_values(node.children[0], pts)
                    return k * np.log(np.abs(v))
            return k * _log_eval(node.children[0], pts)
        if kind == "recip":
            return -_log_eval(node.children[0], pts)
        if kind == "sqrt":
            return 0.5 * _log_eval(node.children[0], pts)
        if kind == "exp":
            return _plain_values(node.children[0], pts)
        if kind == "flat":
            v = _plain_values(node.children[0], pts)
            return np.where(v == 0.0, -np.inf, -1.0 / np.where(v == 0, 1, v) ** 2)
        if kind == "flatabs":
            v = _plain_values(node.children[0], pts)
            return np.where(v == 0.0, -np.inf, -1.0 / np.abs(np.where(v == 0, 1, v)))
        if kind == "bump":
            v = _plain_values(node.children[0], pts)
            inside = np.abs(v) < 1.0
            safe = np.where(inside, v, 0.0)
            return np.where(inside, 1.0 - 1.0 / (1.0 - safe**2), -np.inf)
    raise LogEvalError(f"unsupported node kind {kind!r}")
