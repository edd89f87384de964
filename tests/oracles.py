"""Independent numerical oracles used by the test suite.

These intentionally avoid the library's jet engine: finite differences
with Richardson extrapolation for derivatives, a naive dictionary
convolution for truncated products, the gather/``reduceat`` form of the
dense jet product, and hand-expanded chain rules for reciprocals.  The
walk that keeps every node's jet until the evaluation returns is kept as
the reference for the walk that frees each one after its last reader, the
whole-table product for the product run in column blocks, and the record
read from a list of every entry's jet for the record read from each jet
as it completes.  The
tree-building expression loader and json's report text are kept here as
references for the interning loader and the report writer, the nested
(schema v1) rendering of reports as the reference for their node tables,
and the loop
forms of the strongly-C^4 and Holder seminorm reductions as references
for their stacked forms.  The helpers that pin paper claims without a
pipeline behind them (the coupling constant gamma, the tail embedding,
the bounded-coefficient approximation gap) live here too.
"""

import functools
import json

import numpy as np
import pytest

from matsos import expr as ex
from matsos import jets
from matsos.gallery import _fibonacci_sphere
from matsos.matfun import Sampled, SymMatFun
from matsos.reporting import (FAIL, FLAT_FLOOR, INCONCLUSIVE, PASS,
                              CheckReport, sampled_bound)
from matsos.verify import ROW_FLAT_FLOOR, SEMINORM_CAP


def func_of(expr, nvars):
    def f(x):
        return jets.eval_jet(expr, x, order=0, nvars=nvars).value

    return f


def central_diff(f, x, axis, h):
    x = np.asarray(x, dtype=float)
    e = np.zeros_like(x)
    e[axis] = h
    return (f(x + e) - f(x - e)) / (2.0 * h)


def fd_derivative(f, x, mu, h):
    """Nested central differences for the mixed partial D^mu f(x)."""
    g = f
    for axis, k in enumerate(mu):
        for _ in range(k):
            g = (lambda gg, a: lambda y: central_diff(gg, y, a, h))(g, axis)
    return g(np.asarray(x, dtype=float))

def richardson_derivative(f, x, mu, h0=1e-2, levels=4):
    """Richardson-extrapolated central differences, error O(h^2) per level."""
    vals = [fd_derivative(f, x, mu, h0 / 2.0**k) for k in range(levels)]
    table = [vals]
    for lev in range(1, levels):
        prev = table[-1]
        fac = 4.0**lev
        table.append(
            [(fac * prev[i + 1] - prev[i]) / (fac - 1.0) for i in range(len(prev) - 1)]
        )
    return table[-1][0]


def dict_convolve(ta, tb, order):
    """Truncated product of two derivative tables (as Taylor coefficients).

    Tables map multiindex -> D^mu value; the product is computed through
    Taylor coefficients c_mu = D^mu / mu! by plain polynomial multiplication.
    """
    import math

    def fact(mu):
        return float(np.prod([math.factorial(k) for k in mu]))

    ca = {m: v / fact(m) for m, v in ta.items()}
    cb = {m: v / fact(m) for m, v in tb.items()}
    out = {}
    for ma, va in ca.items():
        for mb, vb in cb.items():
            ms = tuple(a + b for a, b in zip(ma, mb))
            if sum(ms) <= order:
                out[ms] = out.get(ms, 0.0) + va * vb
    return {m: v * fact(m) for m, v in out.items()}


def mul_reduceat(sp, a, b):
    """The dense truncated product as one gather and ``np.add.reduceat``.

    The (k, i, j) triples with ``multi[i] + multi[j] = multi[k]`` are built
    from ``sp.multi`` and ``sp.pos`` (pairs whose sum is not a row of `sp`
    are left out, as in a sub-space) and sorted, so numpy reduces each output
    row k over its terms in increasing i.  `JetSpace.mul`, which writes
    that summation order out, must equal it bit for bit; this form has no
    constant-operand shortcut.
    """
    i, j, start = _reduceat_tables(sp)
    return np.add.reduceat(a[i] * b[j], start, axis=0)


@functools.lru_cache(maxsize=None)
def _reduceat_tables(sp):
    trip = sorted(
        (sp.pos[m], i, j)
        for i, mi in enumerate(sp.multi)
        for j, mj in enumerate(sp.multi)
        if (m := tuple(p + q for p, q in zip(mi, mj))) in sp.pos
    )
    k, i, j = np.array(trip, dtype=np.intp).T
    return i, j, np.searchsorted(k, np.arange(sp.ncoef))


def keep_everything_entries(exprs, points, order, nvars):
    """The jets of `exprs` at `points` in the full space of `nvars`
    variables to `order`, from one memo that keeps the jet of every node
    until the call returns.  Each node is evaluated once, children first,
    by `jets._eval_one` in the rows of the variables it reads."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    sp = jets.space(nvars, order)
    memo = {}
    out = []
    with np.errstate(all="ignore"):
        for root in exprs:
            stack = [root]
            while stack:
                node = stack[-1]
                if node in memo:
                    stack.pop()
                    continue
                todo = [c for c in node.children if c not in memo]
                if todo:
                    stack.extend(reversed(todo))
                    continue
                stack.pop()
                memo[node] = jets._eval_one(
                    node, pts, jets._restrict(sp, node.vmask)[0], memo)
            jet, rows = memo[root], jets._restrict(sp, root.vmask)[1]
            out.append(jet if rows is None else jets._LiftedBatch(sp, jet, rows))
    return out


def mul_unblocked(sp, a, b):
    """`JetSpace.mul` in one pass over the whole table: its constant-operand
    shortcut, then its dense kernel on every column at once."""
    if not a[1:].any():
        return a[0] * b
    if not b[1:].any():
        return a * b[0]
    out = np.empty((sp.ncoef, a.shape[1]))
    sp._dense(a, b, out)
    return out


def entry_tables(A, points, order):
    """(dict (i, j) -> jet, valid mask) of every stored entry of `A`, from
    one `jets.eval_entries` list of all their jets at once; a point is valid
    when every entry evaluated there."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    keys = [key for key, _ in A.upper_entries()]
    jbs = jets.eval_entries([A.entry(*key) for key in keys], pts, order,
                            nvars=A.nvars)
    valid = np.ones(len(pts), dtype=bool)
    for jb in jbs:
        valid &= ~jb.invalid
    return dict(zip(keys, jbs)), valid


def sampled_from_entries(A, points, order):
    """The `Sampled` record of `A` at `points`, read entry by entry from the
    jets of `entry_tables`, all held at once."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ejets, valid = entry_tables(A, pts, order)
    S, n = len(pts), A.n
    values = np.zeros((S, n, n))
    grad = np.zeros((S, A.nvars, n, n)) if order else None
    dmax = np.zeros((order + 1, S, n, n)) if order else None
    for (i, j), jb in ejets.items():
        values[:, i, j] = values[:, j, i] = jb.values
        if order:
            grad[:, :, i, j] = grad[:, :, j, i] = jb.gradient().T
            for m in range(order + 1):
                dmax[m, :, i, j] = dmax[m, :, j, i] = jb.max_abs_of_order(m)
    return Sampled(pts, valid, values, grad, dmax)


def recip_chain_table(h0, h1, h2, h3):
    """Derivatives of 1/h from derivatives of h, expanded by hand (univariate,
    orders 0..3)."""
    return [
        1.0 / h0,
        -h1 / h0**2,
        2.0 * h1**2 / h0**3 - h2 / h0**2,
        -6.0 * h1**3 / h0**4 + 6.0 * h1 * h2 / h0**3 - h3 / h0**2,
    ]


def jacobi_scalar(a):
    """The per-matrix cyclic Jacobi loop that `symmat._jacobi` batches.

    Solves one (n, n) matrix with the same relative skip rule, the same
    rotation formulas and the same 64-sweep cap; the stacked solver must
    return bitwise the same eigenvalues and eigenvectors for every matrix
    of a stack.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return a.diagonal().copy(), v
    for _ in range(64):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                rel = np.sqrt(abs(a[p, p])) * np.sqrt(abs(a[q, q]))
                if abs(apq) <= 1e-15 * rel:
                    continue
                d = a[q, q] - a[p, p]
                if abs(apq) < 5e-151 * abs(d):
                    t = apq / d
                    if t == 0.0:
                        continue
                else:
                    theta = d / (2.0 * apq)
                    if theta == 0.0:
                        t = 1.0
                    else:
                        t = np.sign(theta) / (abs(theta) + np.sqrt(theta**2 + 1.0))
                rotated = True
                c = 1.0 / np.sqrt(t**2 + 1.0)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
        if not rotated:
            break
    w = a.diagonal().copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def tree_entries(exprs, points, order, nvars):
    """The jets of `exprs` at `points` in the full space of `nvars`
    variables to `order` under tree semantics: every occurrence of a node
    is evaluated on its own, from the jets of its own children's
    occurrences, with no memo, so no jet is shared between two parents
    (a node that reads one child twice takes the jet of the later
    occurrence for both).  Each evaluation is `jets._eval_one` in the rows
    of the variables the node reads.  Returns (jets, occurrences), the
    number of nodes evaluated."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    sp = jets.space(nvars, order)
    out, occurrences = [], 0
    with np.errstate(all="ignore"):
        for root in exprs:
            # (occurrence, jets of its children's occurrences so far)
            stack = [(root, [])]
            while True:
                node, kids = stack[-1]
                if len(kids) < len(node.children):
                    stack.append((node.children[len(kids)], []))
                    continue
                stack.pop()
                occurrences += 1
                jet = jets._eval_one(node, pts,
                                     jets._restrict(sp, node.vmask)[0],
                                     dict(zip(node.children, kids)))
                if not stack:
                    break
                stack[-1][1].append(jet)
            rows = jets._restrict(sp, root.vmask)[1]
            out.append(jet if rows is None else jets._LiftedBatch(sp, jet, rows))
    return out, occurrences


def dump_json(obj):
    """The text `report.dump_report` must produce, written by json."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# fields of an object with a node table that hold row indices, in lists
# nested to any depth
_INDEX_FIELDS = ("entries", "peel_vectors", "fields")


def expand_tables(value):
    """A copy of the JSON value `value` with every node table inlined: an
    object with a `nodes` field loses it, and each row index in its
    `entries`, `peel_vectors` and `fields` (and its residual's `entries`)
    becomes the nested expression object of that row, one shared dict per
    row.  A leaf row is inlined as it is."""
    if isinstance(value, list):
        return [expand_tables(v) for v in value]
    if not isinstance(value, dict):
        return value
    if "nodes" not in value:
        return {k: expand_tables(v) for k, v in value.items()}
    nested = []
    for row in value["nodes"]:
        d = dict(row)
        if row["kind"] not in ("var", "const") and "children" in row:
            d["children"] = [nested[i] for i in row["children"]]
        nested.append(d)

    def inline(v):
        return [inline(x) for x in v] if isinstance(v, list) else nested[v]

    out = {}
    for k, v in value.items():
        if k in _INDEX_FIELDS:
            out[k] = inline(v)
        elif k == "residual" and v is not None:
            out[k] = {**v, "entries": inline(v["entries"])}
        elif k != "nodes":
            out[k] = expand_tables(v)
    return out


def nested_decomposition(dec):
    """The JSON form of a `SquareDecomposition` with every expression
    written as nested objects (schema v1), one `expr.to_dict` memo for all
    of them."""
    memo = {}

    def write(e):
        return ex.to_dict(e, memo)

    d = {
        "dimension": dec.n,
        "depth": dec.depth,
        "peel_vectors": [[write(c) for c in Z] for Z in dec.peel_vectors],
        "residual": (dec.residual.to_json_dict(write)
                     if dec.residual else None),
        "certificates": dec.certificates,
    }
    if dec.fields is not None:
        d["fields"] = [[[write(c) for c in X] for X in Xk]
                       for Xk in dec.fields]
    return d


def power_family_loop(cond, pairs, base, rec, epsilon, delta_x):
    """`verify._power_family` as the loop over pairs, then orders, that
    its (pair, order, sample) array replaced."""
    use = np.where(rec.valid)[0]
    excluded = int((~rec.valid).sum())
    upts = rec.pts[use]
    lhs_all, rhs_all, pt_all = [], [], []
    pinned = 0
    flat_pairs = 0
    for p, (k, j) in enumerate(pairs):
        b = np.maximum(base[:, p], 0.0)
        offdiag = k != j
        for m in range(0 if offdiag else 1, 5):
            dmax = rec.dmax[m, use, k, j]
            if offdiag:
                e_free = max(0.5 + (2 - m) * epsilon, 0.0) + delta_x
                e_pin = max(0.5 + (2 - m) * 0.25, 0.0) + delta_x
            else:
                e_free = max(1.0 - m * epsilon, 0.0) + delta_x
                e_pin = max(1.0 - m * 0.25, 0.0) + delta_x
            expo = np.where(b <= 1.0, e_free, e_pin)
            pinned += int((b > 1.0).sum())
            with np.errstate(invalid="ignore"):
                rhs = b**expo
            keep = ~((b < FLAT_FLOOR) & (dmax < ROW_FLAT_FLOOR))
            flat_pairs += int((~keep).sum())
            lhs_all.append(dmax[keep])
            rhs_all.append(rhs[keep])
            pt_all.append(upts[keep])
    if not lhs_all:
        return CheckReport(cond, PASS, params={"vacuous": True},
                           counts={"evaluated": 0, "excluded": 0})
    rep = sampled_bound(cond, np.concatenate(lhs_all),
                        np.concatenate(rhs_all), np.concatenate(pt_all),
                        excluded=excluded + flat_pairs)
    rep.details["pinned_base_gt1"] = pinned
    return rep


def ladder_maxima_loop(Y, Z, inv, dy, dz, delta):
    """`monotone.ladder_maxima` as the loop over rows, centers and
    multiindices, one estimate at a time."""
    rows, nmu, C = dy.shape[:3]
    est = np.zeros((rows, nmu, C))
    live = np.zeros((rows, C), bool)
    for c in range(C):
        sep = np.linalg.norm(Y[c] - Z[c], axis=1)
        for r in range(rows):
            ok = (sep > 1e-300) & ~inv[r, c]
            live[r, c] = ok.any()
            if not ok.any():
                continue
            for k in range(nmu):
                with np.errstate(all="ignore"):
                    est[r, k, c] = (np.abs(dy[r, k, c, ok] - dz[r, k, c, ok])
                                    / sep[ok] ** delta).max()
    return est, live


def seminorm_family_loop(cond, entries, centers, est, live, two_delta):
    """`verify._seminorm_family` as the loop over centers, entries and
    multiindices, one estimate at a time (with its rule that a family
    with entries but no estimate is inconclusive)."""
    if not entries:
        return CheckReport(cond, PASS, params={"vacuous": True},
                           counts={"evaluated": 0, "excluded": 0})
    worst, wit = 0.0, None
    count = 0
    for c, x in enumerate(centers):
        for i in entries:
            if not live[i, c]:
                continue
            for e in est[i, :, c]:
                count += 1
                if e > worst:
                    worst, wit = float(e), x.tolist()
    params = {"holder_exponent": two_delta}
    if not count:
        return CheckReport(cond, INCONCLUSIVE, params=params,
                           counts={"evaluated": 0, "excluded": 0})
    return CheckReport(cond, PASS if worst <= SEMINORM_CAP else FAIL,
                       worst_ratio=worst, constant=worst, witness=wit,
                       params=params, counts={"evaluated": count, "excluded": 0})


def seminorms_loop(Y, Z, tables, delta):
    """`monotone._seminorms` as the loop over centers, orders, expressions
    and multiindices, one estimate at a time."""
    out = []
    count = len(tables[0][0])
    for c, (Yc, Zc) in enumerate(zip(Y, Z)):
        sep = np.linalg.norm(Yc - Zc, axis=1)
        ok = sep > 1e-300
        worst = [0.0] * count
        for inv_y, inv_z, dys, dzs in tables:
            for i in range(count):
                if worst[i] is None:
                    continue
                if inv_y[i, c].any() or inv_z[i, c].any():
                    worst[i] = None
                    continue
                if not ok.any():
                    continue
                for dy, dz in zip(dys[i, :, c], dzs[i, :, c]):
                    with np.errstate(all="ignore"):
                        ratios = np.abs(dy[ok] - dz[ok]) / sep[ok] ** delta
                    worst[i] = max(worst[i], float(ratios.max()))
        out.append(worst)
    return out


def _mp_bump(mp, u):
    return mp.exp(1 - 1 / (1 - u * u)) if abs(u) < 1 else mp.mpf(0)


# node kind -> its value in mpmath from (mpmath, node, child values, point);
# None where the node is undefined, as the jet engine flags it invalid
_MP_RULES = {
    "var": lambda mp, n, k, x: mp.mpf(x[n.param]),
    "const": lambda mp, n, k, x: mp.mpf(n.param),
    "sum": lambda mp, n, k, x: mp.fsum(k),
    "product": lambda mp, n, k, x: mp.fprod(k),
    "intpow": lambda mp, n, k, x: (None if n.param < 0 and k[0] == 0
                                   else k[0] ** n.param),
    "recip": lambda mp, n, k, x: 1 / k[0] if k[0] > 0 else None,
    "sqrt": lambda mp, n, k, x: mp.sqrt(k[0]) if k[0] >= 0 else None,
    "exp": lambda mp, n, k, x: mp.exp(k[0]),
    "flat": lambda mp, n, k, x: (mp.exp(-1 / k[0] ** 2) if k[0]
                                 else mp.mpf(0)),
    "flatabs": lambda mp, n, k, x: (mp.exp(-1 / abs(k[0])) if k[0]
                                    else mp.mpf(0)),
    "bump": lambda mp, n, k, x: _mp_bump(mp, k[0]),
}


def mp_values(roots, x, dps):
    """The value of each expression of `roots` at the point `x`, whose
    floats are read exactly, in mpmath at `dps` digits, or None where it is
    undefined: one rule per node kind, over `expr.post_order`.  No double
    is rounded on the way, and the exponent range of mpmath is unbounded,
    so flat profiles do not underflow."""
    mp = pytest.importorskip("mpmath")
    val = {}
    with mp.workdps(dps):
        for node in ex.post_order(roots):
            kids = [val[c] for c in node.children]
            val[node] = (None if None in kids
                         else _MP_RULES[node.kind](mp, node, kids, x))
    return [val[r] for r in roots]


def schur_gamma(a):
    """gamma = sqrt(b^T D^{-1} b / a11) of the partition [[a11, b^T], [b, D]]:
    the coupling of the first row to the trailing block."""
    a = np.asarray(a, dtype=float)
    b, D = a[1:, 0], a[1:, 1:]
    return float(np.sqrt(b @ np.linalg.solve(D, b) / a[0, 0]))


def embed_tail(Q, n):
    """Embed a k x k matrix function into the bottom-right corner of n x n."""
    off = n - Q.n
    entries = {(i + off, j + off): e for (i, j), e in Q.upper_entries()}
    return SymMatFun(n, Q.nvars, entries, Q.tags)


def delta_nu_estimate(L, nu, c0=4.0, sphere_count=400, multistarts=8, seed=0):
    """Smallest sampled gap between a 3x3 quadratic family L on the sphere
    and nu dyads of bounded coefficient vectors.

    min over f_1..f_nu (|entries| <= c0) of the minimum over sphere samples
    of ||L(W) - sum f f^T||_F, by multistart bounded Nelder-Mead.  Every
    level seeds with the zero-padded best coefficients of nu - 1, so the
    estimate is nonincreasing in nu by construction.
    """
    minimize = pytest.importorskip("scipy.optimize").minimize
    W = _fibonacci_sphere(sphere_count)
    Ls, ok = L.values(W)
    assert ok.all(), "matrix function undefined on a sphere sample"

    def objective(c):
        f = c.reshape(-1, 3)
        gaps = np.linalg.norm(Ls - f.T @ f, axis=(1, 2))
        return float(gaps.min())

    best_prev = np.zeros((0, 3))
    best_val = float(np.linalg.norm(Ls, axis=(1, 2)).min())
    for level in range(1, nu + 1):
        rng = np.random.default_rng((seed, level))
        starts = [np.vstack([best_prev, np.zeros((1, 3))])]
        starts += [rng.uniform(-c0, c0, size=(level, 3))
                   for _ in range(multistarts - 1)]
        level_val, level_best = np.inf, None
        for s0 in starts:
            res = minimize(objective, s0.ravel(), method="Nelder-Mead",
                           bounds=[(-c0, c0)] * (3 * level),
                           options={"maxiter": 400 * level, "fatol": 1e-12,
                                    "xatol": 1e-10})
            at_start = objective(s0.ravel())
            vec = res.x if res.fun <= at_start else s0.ravel()
            if min(at_start, float(res.fun)) < level_val:
                level_val = min(at_start, float(res.fun))
                level_best = vec.reshape(level, 3)
        best_prev = level_best
        best_val = min(best_val, level_val)
    return best_val
