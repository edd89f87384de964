"""Symmetric matrices of scalar expressions.

Entries are shared between the two triangles (symmetry by storage, not by
assumption), and repeated subtrees across entries are evaluated once per
batch of sample points.

`SymMatFun.sampled(grid, order)` evaluates a matrix once per grid and
order into a read-only `Sampled` record of stacks, which every checker of
a run reads; evaluation at other points stays `values(points)`.  Entries
on Holder pair ladders are read through `ladder_rows`, which keeps the
`jets.eval_ladders` rows of each entry on the matrix as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import expr as ex
from . import jets

__all__ = ["EntryError", "FieldError", "Sampled", "StructureTags", "SymMatFun",
           "blockdiag", "check_shape", "MAX_DIM"]

# The declared limit on matrix dimension, enforced here and, for matrices
# in JSON form, by `check_shape`.
MAX_DIM = 16


@dataclass(frozen=True)
class StructureTags:
    """Optional declared structure.

    degenerate_axes: variable indices the matrix degenerates in (the
        singular set is where these coordinates vanish; diagonal entries
        are expected to vary, up to bounded ratio, only in them).
    """

    degenerate_axes: tuple = ()


class Sampled(NamedTuple):
    """Stacks of a matrix function at S points from one `entry_jets` call.

    valid (S,) is True where every entry evaluated; values (S, n, n).  From
    order 1 up also grad (S, nvars, n, n) and dmax (order+1, S, n, n), the
    largest |D^mu a_ij| over |mu| = m.  Invalid samples hold zeros.
    """

    pts: np.ndarray
    valid: np.ndarray
    values: np.ndarray
    grad: np.ndarray | None
    dmax: np.ndarray | None


class SymMatFun:
    """n x n symmetric matrix of ScalarExpr entries in `nvars` variables."""

    def __init__(self, n, nvars, entries, tags=None):
        if not 0 <= n <= MAX_DIM:
            raise ValueError(f"dimension {n} outside 0..MAX_DIM ({MAX_DIM})")
        if not 1 <= nvars <= ex.MAX_VARS:
            raise ValueError(f"nvars must be in 1..{ex.MAX_VARS}")
        self.n = n
        self.nvars = nvars
        tri = {}
        for (i, j), e in entries.items():
            if not 0 <= i <= j < n:
                raise ValueError(f"bad entry index ({i}, {j})")
            if not isinstance(e, ex.ScalarExpr):
                raise TypeError("entries must be ScalarExpr")
            if e.nvars > nvars:
                raise ex.VariableCountError(
                    f"entry ({i},{j}) uses variable x{e.max_index}"
                )
            tri[(i, j)] = e
        for i in range(n):
            for j in range(i, n):
                tri.setdefault((i, j), ex.ZERO)
        self._tri = tri
        self.tags = tags or StructureTags()
        self._sampled = {}
        self._ladders = {}

    @classmethod
    def from_rows(cls, rows, nvars=None, tags=None):
        """Build from a full square of expressions; the upper triangle wins
        and is shared with the lower one."""
        n = len(rows)
        entries = {}
        for i in range(n):
            for j in range(i, n):
                entries[(i, j)] = ex._coerce(rows[i][j])
        nv = nvars or max([1] + [e.nvars for e in entries.values()])
        return cls(n, nv, entries, tags)

    @classmethod
    def constant(cls, array, nvars=1, tags=None):
        a = np.asarray(array, dtype=float)
        entries = {
            (i, j): ex.const(a[i, j])
            for i in range(a.shape[0])
            for j in range(i, a.shape[0])
        }
        return cls(a.shape[0], nvars, entries, tags)

    def entry(self, i, j):
        if i > j:
            i, j = j, i
        return self._tri[(i, j)]

    def upper_entries(self):
        """((i, j), expr) for the stored triangle, row-major."""
        for i in range(self.n):
            for j in range(i, self.n):
                yield (i, j), self._tri[(i, j)]

    # -- evaluation ----------------------------------------------------------

    def entry_jets(self, points, order=0):
        """A `Sampled` record of the matrix at `points` (writable arrays).

        One `jets.eval_entries` walk evaluates every stored entry; the
        values, gradient rows and per-order maxima of each distinct entry
        node are read into the stacks as soon as its jet is complete, and
        the jet is then dropped.  From order 1 up the walk runs once per
        block of at most `jets._POINTS` points (equal blocks), each read
        into its slice of the stacks.  So the build holds the record, the
        live frontier of one block's walk and one entry's table of that
        block, however many points there are.  The blocks give the bits of
        one whole-stack walk on every gallery item (the constant-operand
        shortcut of `jets.JetSpace.mul` could differ in the sign of a
        zero).  Order 0 is one stack: the run table keeps its jets under
        the whole point stack (see `jets.run_table`).  A point is valid
        when every entry evaluated there.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        S, n = pts.shape[0], self.n
        valid = np.ones(S, dtype=bool)
        values = np.zeros((S, n, n))
        grad = np.zeros((S, self.nvars, n, n)) if order else None
        dmax = np.zeros((order + 1, S, n, n)) if order else None
        at = {}
        for key, e in self.upper_entries():
            at.setdefault(e, []).append(key)
        exprs = list(at)
        blocks = jets._column_blocks(S, jets._POINTS) if order else []
        for cols in blocks or [slice(None)]:

            def take(e, jb):
                valid[cols] &= ~jb.invalid
                v = jb.values
                if order:
                    g = jb.gradient().T
                    d = np.array([jb.max_abs_of_order(m)
                                  for m in range(order + 1)])
                for i, j in at[e]:
                    values[cols, i, j] = values[cols, j, i] = v
                    if order:
                        grad[cols, :, i, j] = grad[cols, :, j, i] = g
                        dmax[:, cols, i, j] = dmax[:, cols, j, i] = d

            jets.eval_entries(exprs, pts[cols], order, nvars=self.nvars,
                              consume=take)
        return Sampled(pts, valid, values, grad, dmax)

    def sampled(self, grid, order=0):
        """The matrix at `grid.sample_points()` as a read-only `Sampled`
        record of jets to `order`, built once per (grid, order) and kept on
        this instance.  Orders are never sliced into each other: validity
        depends on the order (sqrt at an interior zero is invalid from order
        1 up), and value rows can differ in the sign of zero."""
        key = (grid, order)
        if key not in self._sampled:
            rec = self.entry_jets(grid.sample_points(), order)
            for a in rec:
                if a is not None:
                    a.flags.writeable = False
            self._sampled[key] = rec
        return self._sampled[key]

    def ladder_rows(self, keys, Y, Z, order, support):
        """`jets.eval_ladders` of the entries at `keys` on the pair ladders
        (Y, Z): the (len(keys), C, P) failure masks of both sides and their
        (len(keys), len(support), C, P) D^mu rows, all read-only.  The rows
        of each distinct entry node are kept on this instance per (Y, Z,
        order, support), and a call evaluates only the entries not held
        yet: both `verify.strong_check` calls of a pipeline read one set of
        ladders."""
        # checked first: a kept (2, 0) would serve (2.0, 0)
        support = tuple(jets.space(self.nvars, jets.MAX_ORDER).checked(mu)
                        for mu in support)
        key = (Y.shape, Y.tobytes(), Z.tobytes(), order, support)
        held = self._ladders.setdefault(key, {})
        exprs = [self.entry(*k) for k in keys]
        new = [e for e in dict.fromkeys(exprs) if e not in held]
        if new:
            rows = jets.eval_ladders(new, Y, Z, order, self.nvars, support)
            held.update(zip(new, zip(*rows)))
        out = tuple(np.array([held[e][k] for e in exprs]) for k in range(4))
        for a in out:
            a.flags.writeable = False
        return out

    def values(self, points):
        """Stack of matrices, shape (npts, n, n), with validity mask."""
        rec = self.entry_jets(points, 0)
        return rec.values, rec.valid

    def value(self, point):
        """Matrix at one point; raises if any entry is undefined there."""
        vals, valid = self.values(np.asarray(point, dtype=float)[None, :])
        if not valid[0]:
            raise jets.SingularDomainError("matrix entry undefined", point=point)
        return vals[0]

    # -- structure -----------------------------------------------------------

    def submatrix(self, indices):
        indices = list(indices)
        entries = {}
        for a, i in enumerate(indices):
            for b, j in enumerate(indices[a:], start=a):
                entries[(a, b)] = self.entry(i, j)
        return SymMatFun(len(indices), self.nvars, entries, self.tags)

    def to_json_dict(self, write=None):
        """JSON form, each entry written by `write(expr)`: by default
        `expr.to_dict` under one memo, so a node shared within or across
        entries is one shared dict (schema v1); a decomposition passes the
        `ref` of its node table (schema v2)."""
        if write is None:
            memo = {}

            def write(e):
                return ex.to_dict(e, memo)

        return {
            "dimension": self.n,
            "nvars": self.nvars,
            "entries": [[write(self.entry(i, j)) for j in range(self.n)]
                        for i in range(self.n)],
        }

    @classmethod
    def load_json(cls, d):
        """(matrix, echo of `d`) from either JSON form.

        Schema v1 entries are nested expression objects, each read by
        `expr.from_dict` into one `expr.ReadTable`, one row per distinct
        spelling within or across entries; the echo is `d` with that table
        as `nodes` and each entry as the index of its row, so every
        spelling is kept and each distinct one written once.  Schema v2
        matrices (a `nodes` field) give each entry as the index of its row
        in the node table `nodes` (`expr.from_table`); their echo is `d`.
        Nodes are hash-consed either way, so subexpressions repeated within
        or across entries come back as one shared node.  An entry below the
        diagonal must be the same node as its mirror above it.

        A bad field raises FieldError naming it (see `check_shape`; `nodes`
        must be a valid node table); a bad entry raises EntryError naming
        its position.
        """
        n, nvars, rows = check_shape(d)
        if "nodes" in d:
            try:
                nodes = ex.from_table(d["nodes"])
            except ex.ExprError as e:
                raise FieldError("nodes", str(e)) from e

            def load(raw):
                k = ex.as_integer(raw)
                if k is None or not 0 <= k < len(nodes):
                    raise ex.ExprError(f"must be the index of a row of "
                                       f"'nodes', got {raw!r}")
                return nodes[k]
        else:
            table = ex.ReadTable()

            def load(raw):
                return ex.from_dict(raw, table)

        entries = {}
        for i in range(n):
            for j in range(n):
                try:
                    node = load(rows[i][j])
                except ex.ExprError as e:
                    raise EntryError(i, j, str(e)) from e
                if i <= j:
                    entries[(i, j)] = node
                elif node is not entries[(j, i)]:
                    raise EntryError(i, j, f"differs from entries[{j}][{i}]; "
                                     "the matrix must be symmetric")
        if "nodes" in d:
            return cls(n, nvars, entries), d
        return cls(n, nvars, entries), {
            **d, "nodes": table.rows,
            "entries": [table.roots[i * n:(i + 1) * n] for i in range(n)]}


def check_shape(d):
    """(dimension, nvars, entries) of a matrix in JSON form: `dimension` an
    integer in 1..MAX_DIM, `nvars` one in 1..8 and `entries` a dimension x
    dimension array, else FieldError naming the field."""
    n = _int_field(d, "dimension", 1, MAX_DIM)
    nvars = _int_field(d, "nvars", 1, ex.MAX_VARS)
    rows = d.get("entries")
    if not (isinstance(rows, list) and len(rows) == n
            and all(isinstance(r, list) and len(r) == n for r in rows)):
        raise FieldError("entries", f"must be a {n} x {n} array")
    return n, nvars, rows


def _int_field(d, name, lo, hi):
    v = ex.as_integer(d.get(name))
    if v is None or not lo <= v <= hi:
        raise FieldError(name, f"must be an integer in {lo}..{hi}, "
                               f"got {d.get(name)!r}")
    return v


class FieldError(ex.ExprError):
    """A bad field of a matrix in JSON form; `field` names it."""

    def __init__(self, field, reason):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


class EntryError(FieldError):
    """A bad entry of a matrix in JSON form; `field` names its position."""

    def __init__(self, i, j, reason):
        super().__init__(f"entries[{i}][{j}]", reason)


def blockdiag(blocks, nvars=None, tags=None):
    """Block-diagonal assembly of SymMatFun blocks."""
    n = sum(b.n for b in blocks)
    nv = nvars or max(b.nvars for b in blocks)
    entries = {}
    off = 0
    for b in blocks:
        for (i, j), e in b.upper_entries():
            entries[(off + i, off + j)] = e
        off += b.n
    return SymMatFun(n, nv, entries, tags)
