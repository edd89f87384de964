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
A term of a sum is lifted into its parent's space by scattering its rows
into zeros.  A product takes its factors in order and decides each from
the variables it reads (`_product`): a factor of one row scales the
product so far, a factor in variables disjoint from it multiplies as an
outer product (each row of their union has one term), and only a factor
that shares a variable is lifted, with the product so far, into the rows
of their union for `JetSpace.mul`.  `eval_jet_batch` returns the root as a
jet of the requested space, so no caller sees a different shape, but
scatters its table only when `coef` is read: values, gradients, per-order
maxima and `derivative_rows` read the kept rows (a block-M7 entry keeps at
most 70 of 330 rows).  This is the full-space evaluation up to the sign of
a zero:

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
point 1, in the sign of a zero.  A product can differ in one more place:

3. A product taken factor by factor leaves out the terms that multiply an
   exact zero of a lifted table: a scaled row is ``a[i] * c`` where the
   dense product adds zeros to it, and so is the one term of a row of an
   outer product.  Adding an exact zero can change only the sign of a
   zero, and a term left out is non-finite only in a column that a kept
   term ``a[i] * b[0]`` (or ``a[0] * b[j]``) makes non-finite already.

A column of a table depends on the other columns of its point stack only
through that shortcut, which is decided over the whole stack; every other
step works column by column (which is also why `JetSpace.mul` may run its
dense kernel on column blocks).  So a stack of point blocks evaluates each
block as if alone, up to the sign of a zero, and callers may stack the
points of several evaluations into one.  `eval_ladders` does so with the
Holder pair ladders of all centers: each side is one (centers, pairs,
dim) array, evaluated as one stack in row order, and its masks and D^mu
rows come back in that shape, with no cut per center.

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
children skips the flag algebra and starts clean, and so does a unary
primitive of a clean child that flags none of its columns; `_scrub` then costs
one finiteness test, flagging and zeroing only the non-finite columns it
finds.  The arithmetic is the same with or without flags, so the tables are
bit for bit those of the flag algebra.

Every evaluation is one `expr.post_order` walk of its roots' DAG, which
lists the nodes its memo does not hold, children first, and one loop that
evaluates them; `eval_log_values` walks the same way.  Evaluations share
work through memos keyed by the node itself: nodes are hash-consed (see
`matsos.expr`), so a memo entry serves every expression that contains that
structure, and its key keeps the node alive.  Every table a memo holds is
read-only.  Within `run_table` (opened by `run_config` for a run) all
order-0 evaluations share one table, one memo per (point stack shape and
bytes, `JetSpace`): the space carries nvars, order and support, so no
support is served from another's table.  Order-0 tables of a grid are
small and are read by many stages, so that memo keeps every table until
the run ends.  Every other evaluation (orders >= 1, and order 0 outside a
run table) has a memo of its own call: from the walk it counts the parent
edges that will read each node, plus one per requested root, and drops a
table at its last read, so it holds the live frontier of the walk and is
empty when the call returns.  A root is handed to the caller's consumer
as soon as it is complete (see `eval_entries`), so a caller that reduces
each root to a few rows holds one root's table at a time.  Keeping every
table instead peaked at 30.7 MB (tracemalloc) for the order-4 record of
f-phi-psi on its 2,052-point default grid, 14.1 MB with the frontier, and
10.0 MB with the roots read as they complete.  The run table
holds nothing else: `eval_ladders` keeps no state, and the rows that two
stages read on one set of pair ladders are kept by the matrix whose
entries they are (`SymMatFun.ladder_rows`).
"""

from __future__ import annotations

import contextvars
import math
from collections import Counter
from contextlib import contextmanager
from functools import lru_cache
from itertools import combinations_with_replacement
from itertools import product as _iproduct

import numpy as np

from .expr import ScalarExpr, VariableCountError, post_order

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

# Doubles per column block of a dense product (`JetSpace.mul`): 256 KB.
_BLOCK = 1 << 15

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
        way).  Operands known to be constant from their structure do not
        reach it: a product scales by a factor that reads no variable, and
        Horner's first step is a scaling (see `_product` and `_compose`).
        What takes the shortcut here is a table that is constant only in
        value, such as every operand of an order-0 power.  The test reads
        the whole table, so one product takes the shortcut in all its
        columns or in none.

        Column blocks: the general product runs on equal blocks of at most
        ``max(1, _BLOCK // ncoef)`` columns (`_column_blocks`), written
        into one output table, so its temporaries stay within a few blocks
        however many points the table has.  Every step of it works column
        by column, so the blocks give the bits of one whole-table pass.
        """
        if not a[1:].any():
            return a[0] * b
        if not b[1:].any():
            return a * b[0]
        blocks = _column_blocks(self.ncoef, a.shape[1])
        if len(blocks) <= 1:
            return self._dense(a, b)
        out = np.empty((self.ncoef, a.shape[1]))
        for cols in blocks:
            self._dense(a[:, cols], b[:, cols], out[:, cols])
        return out

    def _dense(self, a, b, out=None):
        """The general product of `mul` (no shortcut), written into `out`
        when given (a column block of the whole product); else into a table
        allocated last, where the freed temporaries were."""
        # Term t >= 1 of the ranked rows that have it, one slab at a time, so
        # no temporary is larger than the output.  The sum S accumulates in
        # place in s, whose rows are in ranked order.
        add = np.add
        slabs = self._slabs
        s = a[slabs[0][0]] * b[slabs[0][1]]
        big = len(slabs[7][0]) if len(slabs) > 7 else 0  # rows of 9+ terms
        r = []
        for t, (i, j) in enumerate(slabs[1:8]):
            xt = a[i] * b[j]
            lo = big if t else 0
            add(s[lo:len(xt)], xt[lo:], out=s[lo:len(xt)])
            if t and big:  # a copy, so that the slab product is freed
                r.append(xt[:big].copy())
        if big:
            # s[:big] is x1 + x2; add (x3 + x4) + ((x5 + x6) + (x7 + x8))
            x3, x4, x5, x6, x7, x8 = r
            for u, v in ((x3, x4), (x5, x6), (x7, x8), (x5, x7)):
                add(u, v, out=u)
            add(s[:big], x3, out=s[:big])
            add(s[:big], x5, out=s[:big])
            for i, j in slabs[8:]:
                add(s[:len(i)], a[i] * b[j], out=s[:len(i)])
        if out is None:
            out = a[0] * b
        else:
            np.multiply(a[0], b, out=out)
        add(out[1:], s[self._unrank], out=out[1:])
        return out

    def const_table(self, values):
        out = np.zeros((self.ncoef, len(values)))
        out[0] = values
        return out


def _column_blocks(ncoef, npts):
    """Equal column slices of at most ``max(1, _BLOCK // ncoef)`` of `npts`
    columns, with no sliver at the end (none when `npts` is 0)."""
    blocks = max(1, -(-npts // max(1, _BLOCK // ncoef)))
    width = max(1, -(-npts // blocks))
    return [slice(lo, lo + width) for lo in range(0, npts, width)]


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
        lo, hi = np.searchsorted(sub.total, (m, m + 1))  # rows sorted by |mu|
        if lo == hi:
            return np.zeros(self.npts)
        d = coef[lo:hi] * sub.fact[lo:hi, None]
        return np.abs(d, out=d).max(axis=0)

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


def _lifted(coef, vmask, sp):
    """A table evaluated in the restriction of `sp` to the variables in
    `vmask`, as a table of `sp`: its rows, and exact zeros in the rows of
    the other variables."""
    rows = _restrict(sp, vmask)[1]
    if rows is None:
        return coef
    out = np.zeros((sp.ncoef, coef.shape[1]))
    out[rows] = coef
    return out


@lru_cache(maxsize=None)
def _outer_maps(sw, su, sv, u, v):
    """For a product of a table of `su` (variables `u`) and one of `sv`
    (variables `v`, disjoint from `u`) in `sw`: per row of `sw`, the rows of
    its `u` part in `su` and of its `v` part in `sv`, and the rows of `sw`
    that read a variable outside both (none unless `sw` keeps rows of
    variables neither factor reads)."""
    iu, iv, outside = [], [], []
    for k, m in enumerate(sw.multi):
        iu.append(su.pos[tuple(e * (u >> a & 1) for a, e in enumerate(m))])
        iv.append(sv.pos[tuple(e * (v >> a & 1) for a, e in enumerate(m))])
        if any(e and not (u | v) >> a & 1 for a, e in enumerate(m)):
            outside.append(k)
    return (np.array(iu, dtype=np.intp), np.array(iv, dtype=np.intp),
            np.array(outside, dtype=np.intp))


def _product(children, kids, sp):
    """The table in `sp` of the product of the jets `kids` of `children`.

    The factors are taken in child order, and the product so far is kept
    in the restriction of `sp` to the variables of the factors taken.  Each
    factor is decided from the variables it reads, never from its values:

    - A table of one row (a factor that reads no variable, or none that
      `sp` keeps a row of) scales the other: the constant-operand shortcut
      of `JetSpace.mul`, without lifting or scanning either table.
    - A factor in variables disjoint from the product's: every row of their
      union has exactly one term, the product of the rows of its two parts
      (`_outer_maps`), formed in column blocks so that no gather is larger
      than a block.
    - A factor that shares a variable: both tables are lifted into the
      restriction to the union, and `JetSpace.mul` runs there.

    Every term these leave out is a product with an exact zero of a lifted
    table, so the result is the full-space product up to the sign of a zero,
    and a column is non-finite in one exactly when in the other (see the
    module docstring).  Multiplying by the seed 1 is exact, so the product
    starts from its first factor."""
    acc, u = kids[0].coef, children[0].vmask
    for c, jet in zip(children[1:], kids[1:]):
        b, v = jet.coef, c.vmask
        if len(b) == 1:
            acc = acc * b[0]
        elif len(acc) == 1:
            acc = acc[0] * b
        elif not u & v:
            sw = _restrict(sp, u | v)[0]
            iu, iv, outside = _outer_maps(sw, _restrict(sp, u)[0],
                                          _restrict(sp, v)[0], u, v)
            out = np.empty((sw.ncoef, b.shape[1]))
            for cols in _column_blocks(sw.ncoef, b.shape[1]):
                np.multiply(acc[iu, cols], b[iv, cols], out=out[:, cols])
            out[outside] = 0.0
            acc = out
        else:
            sw = _restrict(sp, u | v)[0]
            acc = sw.mul(_lifted(acc, u, sw), _lifted(b, v, sw))
        u |= v
    return _lifted(acc, u, sp)


def _eval_one(node, pts, sp, memo):
    """Jet of `node` in `sp` from the jets of its children in `memo`.  A
    sum, product or power runs the flag algebra only when some child
    carries a flag; its arithmetic is the same either way."""
    kind = node.kind
    npts = pts.shape[0]
    kids = [memo[c] for c in node.children]
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
            coef += _lifted(k.coef, c.vmask, sp)
    elif kind == "product":
        coef = _product(node.children, kids, sp)
    else:
        # from the base, not from the seed 1: multiplying by 1 is exact
        coef, base, k = None, kids[0].coef, node.param
        while k:
            if k & 1:
                coef = base if coef is None else sp.mul(coef, base)
            k >>= 1
            if k:
                base = sp.mul(base, base)
        if coef is None:  # the power 0
            coef = sp.const_table(np.ones(npts))
    if coef is kids[0].coef:  # one factor, or the power 1
        coef = coef.copy()
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
    """Unary primitives via truncated composition with a univariate series.

    Each primitive names the columns it flags itself: `bad` (invalid),
    `poly` (of those, polynomially singular) and `flatz` (certified flat
    zeros), None for none.  A clean child of which it flags no column gives
    a clean jet, with no flag algebra; the arithmetic is the same either
    way.  Runs under the `errstate` of `_evaluate`."""
    kind = node.kind
    npts = child.npts
    L = sp.order + 1
    u0 = child.values
    ok = ~child.invalid
    bad = poly = flatz = rescued = limit = None

    if kind == "recip":
        bad = ok & (u0 <= 0.0)
        poly = bad & (u0 == 0.0) & ~child.flat_zero
        safe = np.where(bad, 1.0, u0)
        series = np.empty((L, npts))
        for m in range(L):
            series[m] = (-1.0) ** m * safe ** -(m + 1)
    elif kind == "sqrt":
        zero = ok & (u0 == 0.0)
        bad = ok & (u0 < 0.0)
        if sp.order >= 1:
            # a zero that is not a certified flat zero: invalid, limit 0
            poly = zero & ~child.flat_zero
            if poly.any():
                bad |= poly
                limit = np.full(npts, np.nan)
                limit[poly] = 0.0
        if not child.clean:
            flatz = zero & child.flat_zero
        safe = np.where(u0 <= 0.0, 1.0, u0)
        series = _binom_series(safe, 0.5, L)
        series[:, zero & ~bad] = 0.0
    elif kind == "exp":
        series = np.empty((L, npts))
        e0 = np.exp(u0)
        f = 1.0
        for m in range(L):
            series[m] = e0 / f
            f *= m + 1
    elif kind == "intpow":  # negative exponent only; k >= 0 handled above
        k = node.param
        bad = ok & (u0 == 0.0)
        poly = bad & ~child.flat_zero
        safe = np.where(u0 == 0.0, 1.0, u0)
        series = np.empty((L, npts))
        coeff = np.ones(npts)
        for m in range(L):
            series[m] = coeff * safe ** (k - m)
            coeff = coeff * (k - m) / (m + 1)
    elif kind in ("flat", "flatabs"):
        flatz = ok & ((u0 == 0.0) | child.flat_zero)
        if not child.clean:
            # a polynomially singular child with limit 0 is a flat zero
            rescued = (child.invalid & child.poly_singular
                       & (child.limit == 0.0))
            flatz |= rescued
        safe = np.where(u0 == 0.0, 1.0, np.abs(u0) if kind == "flatabs"
                        else u0)
        s = np.empty((L, npts))
        if kind == "flat":
            s[0] = -(safe ** -2.0)
            for m in range(1, L):
                s[m] = (-1.0) ** (m + 1) * (m + 1) * safe ** -(2.0 + m)
        else:
            sgn = np.where(u0 >= 0.0, 1.0, -1.0)
            spow = np.ones(npts)
            for m in range(L):
                s[m] = -((-1.0) ** m) * safe ** -(m + 1.0) * spow
                spow = spow * sgn
        dead = s[0] <= _TINY_LOG
        s[:, dead] = 0.0
        series = _series_exp(s)
        series[:, dead] = 0.0
        series[:, flatz] = 0.0
    elif kind == "bump":
        outside = np.abs(u0) >= 1.0
        flatz = ok & outside
        safe = np.where(outside, 0.0, u0)
        v = np.zeros((L, npts))
        v[0] = 1.0 - safe ** 2
        if L > 1:
            v[1] = -2.0 * safe
        if L > 2:
            v[2] = -1.0
        w = -_series_recip(v)
        w[0] += 1.0
        series = _series_exp(w)
        series[:, flatz] = 0.0
    else:  # pragma: no cover
        raise AssertionError(kind)

    # Horner composition in (u - u0); its first step scales w by a constant
    w = child.coef.copy()
    w[0] = 0.0
    coef = series[L - 1] * w if L > 1 else sp.const_table(series[0])
    for m in range(L - 2, -1, -1):
        coef[0] += series[m]
        if m:
            coef = sp.mul(coef, w)
    if child.clean and not any(f is not None and f.any()
                               for f in (bad, flatz)):
        return _scrub(JetBatch(sp, coef))
    none = np.zeros(npts, dtype=bool)
    inv = child.invalid if rescued is None else child.invalid & ~rescued
    if bad is not None:
        inv = inv | bad
    # Where the child itself failed: reciprocal-type and bounded primitives
    # of a polynomially singular subtree stay polynomially singular; exp of
    # one does not (the blowup can be super-polynomial).
    carried = none if kind == "exp" else child.poly_singular
    poly = np.where(child.invalid, carried, none if poly is None else poly)
    flatz = none if flatz is None else flatz & ~inv
    coef[:, flatz] = 0.0
    return _scrub(JetBatch(sp, coef, inv, poly & inv, flatz, limit))


# ---------------------------------------------------------------------------
# Public evaluation API


def _as_points(points, nvars):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2:
        raise ValueError(f"points must have shape (npts, nvars), got shape "
                         f"{np.shape(points)}")
    if pts.shape[1] < nvars:
        raise VariableCountError(
            f"points have {pts.shape[1]} coordinates, expression uses {nvars}"
        )
    return pts


_RUN_TABLE = contextvars.ContextVar("matsos_run_table", default=None)


@contextmanager
def run_table():
    """Keep the order-0 jets of every evaluation in the block, one memo per
    (points shape and bytes, `JetSpace`), so each (node, points, space) is
    evaluated once however many stages read it, and a node is a structure:
    the equal subexpressions of different stages are one node (see
    `matsos.expr`) and share one entry.  Every other evaluation frees each
    table after its last reader within its own call (see `_evaluate`).
    `report.run_config` opens one per run; library callers may open their
    own.  The table is dropped when the block exits, normally or not; a
    block inside another has its own table while it runs."""
    token = _RUN_TABLE.set({})
    try:
        yield
    finally:
        _RUN_TABLE.reset(token)


def _memo(pts, sp):
    """The memo for an evaluation at `pts` in `sp`: the open run table's at
    order 0, which keeps every table, else None (a memo of the call that
    frees each table after its last reader)."""
    table = _RUN_TABLE.get()
    if table is None or sp.order:
        return None
    return table.setdefault((pts.shape, pts.tobytes(), sp), {})


def _points_and_space(expr_nvars, points, order, nvars, support):
    nv = max(expr_nvars, 1) if nvars is None else nvars
    pts = _as_points(points, nv)
    o = _as_int(order)
    if o is None or not 0 <= o <= MAX_ORDER:
        raise ValueError(f"order must be an integer in 0..{MAX_ORDER}")
    full = space(max(nv, 1), o)  # not (.., None): a second entry
    if support is None:
        return pts, full
    # checked first: a cached (2, 0) would serve (2.0, 0)
    return pts, space(full.nvars, o, tuple(full.checked(mu) for mu in support))


def eval_jet_batch(expr, points, order=MAX_ORDER, nvars=None, support=None):
    """Jets of `expr` at many points; invalid points are masked, not raised.
    At order 0 the nodes are memoized in the open run table (see
    `run_table`); `eval_entries` shares one memo across expressions.

    Parameters
    ----------
    expr : ScalarExpr
    points : array_like, shape (npts, nvars)
    order : int in 0..4 (not a bool)
    nvars : optional variable count override (>= expr.nvars)
    support : optional multiindices, each of total order <= `order`; the
        jets then hold only the rows of their downward closure (see the
        module docstring for the two ways such jets can differ)
    """
    if not isinstance(expr, ScalarExpr):
        raise TypeError("expr must be a ScalarExpr")
    return eval_entries([expr], points, order, nvars, support)[0]


def eval_entries(exprs, points, order=MAX_ORDER, nvars=None, support=None,
                 consume=None):
    """Evaluate several expressions at shared points with a shared memo (the
    open run table's at order 0); the points, order and support are
    checked once for all of them, and their DAG is walked once.

    Returns the jets of `exprs`, in order.  With `consume`, the call
    returns None instead, and `consume(expr, jet)` reads each distinct
    expression's jet as soon as the walk completes it; the jet is then
    dropped, unless a later node still reads it or the open run table
    keeps it (order 0; see `_evaluate`).  A caller that reduces each jet
    to a few rows holds one root's table at a time, where a list holds all
    of them."""
    if not all(isinstance(e, ScalarExpr) for e in exprs):
        raise TypeError("expr must be a ScalarExpr")
    nv = nvars if nvars is not None else max([1] + [e.nvars for e in exprs])
    pts, sp = _points_and_space(nv, points, order, nv, support)
    return _evaluate(exprs, pts, sp, _memo(pts, sp), consume)


def _evaluate(exprs, pts, sp, memo, consume=None):
    """The jets of `exprs` at checked points in the space `sp`: the one path
    of every public evaluation.  One `expr.post_order` walk lists the nodes
    not in `memo`, children first, and one loop evaluates each in the
    restriction of `sp` to the variables it reads.  The arrays of every jet
    put in a memo are made read-only: a memo (a run table's above all)
    hands one jet to many readers.

    Each distinct root's jet, read in `sp`, goes to `consume(root, jet)`
    as soon as it is complete (a root already in `memo` first of all).
    `memo` keeps every table; None stands for a memo of this call that
    counts, from the walk, the parent edges and roots that will read each
    node, and drops a table at its last read: a root once consumed, unless
    a later node reads it too.  That memo holds the live frontier of the
    walk and is empty when the call returns.  Without `consume` the jets
    are collected and returned in the order of `exprs`."""
    got = None
    if consume is None:
        got = {}
        consume = got.__setitem__
    roots = dict.fromkeys(exprs)

    def hand(node, jet):
        rows = None if jet.space is sp else _restrict(sp, node.vmask)[1]
        consume(node, jet if rows is None else _LiftedBatch(sp, jet, rows))

    nodes = post_order(exprs, memo or ())
    readers = None
    if memo is None:
        edges = list(roots)
        for node in nodes:
            edges += node.children
        memo, readers = {}, Counter(edges)
    else:
        for e in roots:
            if e in memo:
                hand(e, memo[e])
    with np.errstate(all="ignore"):
        for node in nodes:
            jet = _eval_one(node, pts, _restrict(sp, node.vmask)[0], memo)
            for a in (jet.coef, jet.invalid, jet.poly_singular, jet.flat_zero):
                a.flags.writeable = False
            memo[node] = jet
            if node in roots:
                hand(node, jet)
            if readers is None:
                continue
            # a consumed root is read: it drops its own count too
            done = node.children + (node,) if node in roots else node.children
            for c in done:
                readers[c] -= 1
                if not readers[c]:
                    del memo[c]
    if got is not None:
        return [got[e] for e in exprs]


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


def eval_ladders(exprs, Y, Z, order, nvars, support):
    """The failure masks and D^mu rows of `exprs` on Holder pair ladders.

    `Y` and `Z` are the two sides of the ladders of C centers, each of
    shape (C, P, dim) (see `GridSpec.sample_pairs`).  Returns
    (inv_y, inv_z, dy, dz): the (len(exprs), C, P) failure masks of the
    two sides and the (len(exprs), len(support), C, P) `derivative_rows`,
    all read-only.  All the points of a side are one stack in row order,
    evaluated by one `eval_entries` call at `order` in the space of
    `support`: the rows of a ladder are those of its own evaluation up to
    the sign of a zero (see the module docstring), which |dy - dz| erases.

    Nothing outlives the call.  Each expression's mask and rows are read
    from its jet as the walk completes it, and the jet is then dropped;
    one side's tables are freed before the other's are built: one stack
    for both raised the peak RSS of the block-M7 benchmark job from about
    61 to 78-81 MB in 3 of 3 runs."""
    slots = {}
    for k, e in enumerate(exprs):
        slots.setdefault(e, []).append(k)

    def side(ladders):
        pts = ladders.reshape(-1, ladders.shape[-1])
        inv = np.empty((len(exprs), len(pts)), dtype=bool)
        d = np.empty((len(exprs), len(support), len(pts)))

        def take(e, jb):
            inv[slots[e]] = jb.invalid
            d[slots[e]] = derivative_rows([jb], support)[0]

        eval_entries(exprs, pts, order, nvars=nvars, support=support,
                     consume=take)
        shape = ladders.shape[:-1]
        inv = inv.reshape(len(exprs), *shape)
        d = d.reshape(len(exprs), len(support), *shape)
        inv.flags.writeable = d.flags.writeable = False
        return inv, d

    (inv_y, dy), (inv_z, dz) = side(Y), side(Z)
    return inv_y, inv_z, dy, dz


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

    Each distinct node's log is computed once, in one loop over
    `expr.post_order`: linear in distinct nodes, with no depth limit.  A
    node whose log fails holds its LogEvalError, a parent takes that of its
    first failing child, and only the root's is raised.  So an even power
    falls back to log |values| of its child, and exp, flat, flatabs and
    bump, which read plain values, raise no log error from below.  Plain
    values share one order-0 memo: the open run table's, else one of the
    call, so they too are linear in distinct nodes.
    """
    nv = max(expr.nvars, 1) if nvars is None else nvars
    pts = _as_points(points, nv)
    own = {}

    def plain(node):
        sp = space(pts.shape[1], 0)
        memo = _memo(pts, sp)
        jb = _evaluate([node], pts, sp, own if memo is None else memo)[0]
        if jb.invalid.any():
            raise LogEvalError("inner value undefined at some points")
        return jb.values

    logs = {}
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for node in post_order([expr]):
            try:
                logs[node] = _log_one(node, pts, logs, plain)
            except LogEvalError as err:
                logs[node] = err
    out = logs[expr]
    if isinstance(out, LogEvalError):
        raise out
    return out


def _log_one(node, pts, logs, plain):
    """log of `node` at `pts` from the logs of its children in `logs`, or
    the LogEvalError of its first failing child; `plain(child)` gives the
    plain values of a child."""
    kind = node.kind
    if kind in ("exp", "flat", "flatabs", "bump"):
        v = plain(node.children[0])
        if kind == "exp":
            return v
        if kind != "bump":  # flat, flatabs
            w = np.where(v == 0, 1, v)
            w = w**2 if kind == "flat" else np.abs(w)
            return np.where(v == 0.0, -np.inf, -1.0 / w)
        inside = np.abs(v) < 1.0
        safe = np.where(inside, v, 0.0)
        return np.where(inside, 1.0 - 1.0 / (1.0 - safe**2), -np.inf)
    kids = [logs[c] for c in node.children]
    for k in kids:
        if isinstance(k, LogEvalError):
            if kind == "intpow" and node.param % 2 == 0:
                v = plain(node.children[0])
                return node.param * np.log(np.abs(v))
            return k
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
        return sum(kids)
    if kind == "sum":
        return np.logaddexp.reduce(np.stack(kids), axis=0)
    if kind == "intpow":
        return node.param * kids[0]
    if kind == "recip":
        return -kids[0]
    return 0.5 * kids[0]  # sqrt
