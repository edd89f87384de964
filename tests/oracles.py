"""Independent numerical oracles used by the test suite.

These intentionally avoid the library's jet engine: finite differences
with Richardson extrapolation for derivatives, a naive dictionary
convolution for truncated products, the gather/``reduceat`` form of the
dense jet product, and hand-expanded chain rules for reciprocals.  The
tree-building expression loader and json's report text are kept here as
references for the interning loader and the report writer.
"""

import functools
import json

import numpy as np

from matsos import expr as ex
from matsos import jets


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


def from_dict_tree(d):
    """The tree-building loader that `expr.from_dict` replaced: every copy
    of a repeated subtree becomes a node of its own."""
    kind = d["kind"]
    if kind == "var":
        return ex.var(int(d["index"]))
    if kind == "const":
        return ex.const(float(d["value"]))
    children = [from_dict_tree(c) for c in d.get("children", ())]
    if kind == "intpow":
        return ex.intpow(children[0], int(d["exponent"]))
    if kind == "sum":
        return ex.add(*children)
    if kind == "product":
        return ex.mul(*children)
    return ex.ScalarExpr(kind, (children[0],))


def dump_json(obj):
    """The text `report.dump_report` must produce, written by json."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
