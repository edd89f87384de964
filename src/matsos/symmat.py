"""Cyclic Jacobi eigensolver for small symmetric matrices (n <= 16).

For the tiny, unconditionally symmetric matrices peeled off by the
decomposition it is simple, backward stable to machine precision and
deterministic.  The solver takes a stack of matrices (..., n, n) as well
as a single one, so a checker solves all its grid samples in one call;
each matrix of a stack gets bitwise the result it would get alone.  Flat
matrix functions produce entries spanning hundreds of orders of
magnitude, so no absolute tolerance decides a rotation: a Jacobi pivot is
skipped only when it is negligible relative to its own two diagonal
entries, which keeps small eigenvalues of graded matrices to relative
precision.
"""

from __future__ import annotations

import numpy as np


def _rotate_sweep(a, v):
    """One cyclic sweep over every pivot (p, q) of the stack `a`, in place,
    with its eigenvector stack `v` unless that is None.

    Rotates only the matrices whose pivot is not negligible, so a matrix
    that skips a pivot is left untouched (an identity rotation could flip
    the sign of a zero).  Returns the mask of matrices that rotated.
    """
    S, n, _ = a.shape
    rotated = np.zeros(S, dtype=bool)
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = a[:, p, q]
            rel = np.sqrt(np.abs(a[:, p, p])) * np.sqrt(np.abs(a[:, q, q]))
            idx = np.flatnonzero(~(np.abs(apq) <= 1e-15 * rel))
            if not idx.size:
                continue
            apq = apq[idx]
            d = a[idx, q, q] - a[idx, p, p]
            # |theta| > 1e150: t = 1/(2 theta), without forming theta,
            # which overflows for subnormal couplings
            small = np.abs(apq) < 5e-151 * np.abs(d)
            t = np.empty(idx.size)
            t[small] = apq[small] / d[small]
            theta = d[~small] / (2.0 * apq[~small])
            # float_power rounds as the scalar theta**2 (libm pow) does;
            # the array ** and np.power do not always
            t[~small] = np.where(
                theta == 0.0,
                1.0,
                np.sign(theta)
                / (np.abs(theta) + np.sqrt(np.float_power(theta, 2.0) + 1.0)),
            )
            turn = ~(small & (t == 0.0))
            idx, t = idx[turn], t[turn]
            if not idx.size:
                continue
            rotated[idx] = True
            c = 1.0 / np.sqrt(np.float_power(t, 2.0) + 1.0)
            s = (t * c)[:, None]
            c = c[:, None]
            rp, rq = a[idx, p, :], a[idx, q, :]
            a[idx, p, :] = c * rp - s * rq
            a[idx, q, :] = s * rp + c * rq
            cp, cq = a[idx, :, p], a[idx, :, q]
            a[idx, :, p] = c * cp - s * cq
            a[idx, :, q] = s * cp + c * cq
            if v is not None:
                vp, vq = v[idx, :, p], v[idx, :, q]
                v[idx, :, p] = c * vp - s * vq
                v[idx, :, q] = s * vp + c * vq
    return rotated


def _jacobi(a, vectors=True):
    """Cyclic Jacobi rotations on a matrix or a stack of matrices.

    `a` has shape (..., n, n); returns the eigenvalues ascending, shape
    (..., n), and the eigenvectors as columns, shape (..., n, n), or None
    when `vectors` is false (the rotations of `a` are the same).  Every
    matrix of the stack is solved exactly as it would be alone: it gets its
    own skip decision per pivot, stops after its own sweep without a
    rotation, and runs at most 64 sweeps.

    A pivot is skipped only when it is negligible relative to the
    geometric mean of its two diagonal entries, or when its rotation angle
    underflows to zero (the relative rule of Demmel & Veselic, "Jacobi's
    method is more accurate than QR", 1992).  An absolute threshold would
    silently drop rotations that matter for graded matrices (flat
    functions produce diagonals hundreds of orders of magnitude apart,
    with off-diagonal couplings tiny in absolute terms yet decisive for
    the small eigenvalues).
    """
    a = np.array(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("need a square matrix or a stack of them")
    shape = a.shape
    n = shape[-1]
    a = a.reshape(-1, n, n)
    v = np.broadcast_to(np.eye(n), a.shape).copy() if vectors else None
    live = np.arange(a.shape[0])
    for _ in range(64):
        if not live.size:
            break
        al, vl = a[live], (v[live] if vectors else None)
        rotated = _rotate_sweep(al, vl)
        a[live] = al
        if vectors:
            v[live] = vl
        live = live[rotated]
    w = a.diagonal(axis1=1, axis2=2)
    order = np.argsort(w, axis=-1, kind="stable")
    w = np.take_along_axis(w, order, axis=-1)
    if not vectors:
        return w.reshape(shape[:-1]), None
    # each eigenvector matrix is stored column-major, as a single matrix's
    # v[:, order] is: products taken with it then call the same BLAS
    # kernels and round the same way
    vt = np.take_along_axis(v.transpose(0, 2, 1), order[:, :, None], axis=1)
    return w.reshape(shape[:-1]), vt.transpose(0, 2, 1).reshape(shape)
