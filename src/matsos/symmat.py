"""Dense linear algebra for small symmetric matrices (n <= 16).

Eigendecomposition is a cyclic Jacobi sweep: for the tiny, unconditionally
symmetric matrices peeled off by the decomposition it is simple, backward
stable to machine precision and deterministic.  The solver takes a stack
of matrices (..., n, n) as well as a single one, so a checker solves all
its grid samples in one call; each matrix of a stack gets bitwise the
result it would get alone.  Flat matrix functions produce entries
spanning hundreds of orders of magnitude, so no absolute tolerance decides
a rotation: a Jacobi pivot is skipped only when it is negligible relative
to its own two diagonal entries, which keeps small eigenvalues of graded
matrices to relative precision.  The symmetry, singularity, Loewner-order
and comparability tests are scaled by the max-norm of their input, with no
absolute floor; only the clamp of `sqrt_psd` keeps one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SymMatrix",
    "NotPSDError",
    "SingularMatrixError",
    "eigen",
    "sqrt_psd",
    "bordered_det",
    "loewner_leq",
    "comparable",
    "comparability_gamma",
    "GammaEstimate",
    "alpha_shift_psd",
    "posdef_by_trailing_minors",
]

MAX_DIM = 16
PSD_TOL = 1e-10


class NotPSDError(ValueError):
    def __init__(self, min_eigenvalue):
        super().__init__(f"matrix is not PSD: min eigenvalue {min_eigenvalue:g}")
        self.min_eigenvalue = min_eigenvalue


class SingularMatrixError(ValueError):
    pass


class SymMatrix:
    """Symmetric matrix stored as its packed upper triangle.

    Symmetry holds by construction: only one triangle is stored.  Dimension
    runs 1..16 (1x1 appears as the residual block of a full-depth
    decomposition).
    """

    __slots__ = ("n", "tri")

    def __init__(self, n, tri):
        if not 1 <= n <= MAX_DIM:
            raise ValueError(f"dimension must be in 1..{MAX_DIM}")
        tri = np.asarray(tri, dtype=float).reshape(-1)
        if tri.shape[0] != n * (n + 1) // 2:
            raise ValueError("packed triangle has wrong length")
        if not np.isfinite(tri).all():
            raise ValueError("entries must be finite")
        self.n = n
        self.tri = tri

    @classmethod
    def from_array(cls, a, symmetrize=False, tol=1e-12):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("need a square array")
        if not symmetrize:
            scale = np.abs(a).max(initial=0.0)
            if np.abs(a - a.T).max(initial=0.0) > tol * scale:
                raise ValueError("array is not symmetric; pass symmetrize=True")
        s = 0.5 * (a + a.T)
        n = a.shape[0]
        iu = np.triu_indices(n)
        return cls(n, s[iu])

    def to_array(self):
        n = self.n
        out = np.zeros((n, n))
        iu = np.triu_indices(n)
        out[iu] = self.tri
        out.T[iu] = self.tri
        return out

    def __getitem__(self, ij):
        i, j = ij
        if i > j:
            i, j = j, i
        return self.tri[i * self.n - i * (i - 1) // 2 + (j - i)]

    def max_norm(self):
        return float(np.abs(self.tri).max()) if self.tri.size else 0.0

    def __repr__(self):
        return f"SymMatrix({self.to_array().tolist()})"


def _as_array(M):
    if isinstance(M, SymMatrix):
        return M.to_array()
    return SymMatrix.from_array(M).to_array()


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


def eigen(M):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a SymMatrix.

    Reconstruction satisfies ||V L V^T - M||_max <= 1e-12 (1 + ||M||_max)
    and V^T V = I to 1e-12.
    """
    return _jacobi(_as_array(M))


def sqrt_psd(M, tol=PSD_TOL):
    """Symmetric PSD square root S with ||S S - M||_max <= 1e-10.

    Eigenvalues within `tol` (scaled) of zero are clamped to 0; below that
    the matrix is rejected as not PSD.
    """
    a = _as_array(M)
    w, v = _jacobi(a)
    scale = max(1.0, np.abs(a).max())
    if w[0] < -tol * scale:
        raise NotPSDError(float(w[0]))
    s = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T
    return SymMatrix.from_array(s, symmetrize=True)


def _det_and_solve(a, rhs, rel_floor=1e-12):
    w, v = _jacobi(a)
    det = float(np.prod(w))
    scale = np.abs(a).max()
    if np.abs(w).min() <= rel_floor * scale:
        raise SingularMatrixError(
            f"matrix numerically singular (|det| ~ {abs(det):g}, max-norm {scale:g})"
        )
    x = v @ ((v.T @ rhs) / w)
    return det, x


def bordered_det(alpha, v, M):
    """det [[alpha, v^T], [v, M]] computed as (alpha - v^T M^{-1} v) det M.

    Requires M invertible; near-singular M raises SingularMatrixError.
    Agrees with the direct determinant of the bordered matrix.
    """
    a = _as_array(M)
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape[0] != a.shape[0]:
        raise ValueError("border vector has wrong length")
    det, x = _det_and_solve(a, v)
    return (float(alpha) - float(v @ x)) * det


def loewner_leq(A, B, tol=PSD_TOL):
    """A <= B in the Loewner order: min eigenvalue of B - A >= -tol * s,
    with s the larger max-norm of A and B."""
    a, b = _as_array(A), _as_array(B)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    w, _ = _jacobi(b - a, vectors=False)
    scale = max(np.abs(a).max(), np.abs(b).max())
    return bool(w[0] >= -tol * scale)


def comparable(A, B, beta, alpha, tol=PSD_TOL):
    """beta * B <= A <= alpha * B in the Loewner order (0 < beta < alpha)."""
    if not 0 < beta < alpha:
        raise ValueError("need 0 < beta < alpha")
    a, b = _as_array(A), _as_array(B)
    return loewner_leq(beta * b, a, tol) and loewner_leq(a, alpha * b, tol)


@dataclass
class GammaEstimate:
    """Coupling constant of the first row against the trailing block.

    gamma = sqrt(b^T D^{-1} b / a11) for the partition [[a11, b^T], [b, D]].
    Comparability of the matrix to its own diagonal forces gamma < 1; gamma
    >= 1 is flagged as boundary.  Entrywise violations list pairs (k, j)
    with |a_kj| > gamma * sqrt(a_kk * a_jj) (scaled tolerance).
    """

    gamma: float
    boundary: bool
    ill_conditioned: bool
    entrywise_violations: list = field(default_factory=list)


def comparability_gamma(A, floor_rel=1e-14):
    a = _as_array(A)
    n = a.shape[0]
    if n < 2:
        raise ValueError("need dimension >= 2")
    a11 = a[0, 0]
    if a11 <= 0:
        raise ValueError("leading entry must be positive")
    b = a[1:, 0]
    D = a[1:, 1:]
    w, v = _jacobi(D)
    if w[0] <= 0:
        raise SingularMatrixError("trailing block is not positive definite")
    scale = max(np.abs(D).max(), 1e-300)
    floor = floor_rel * scale
    ill = bool(w[0] < floor)
    weff = np.maximum(w, floor)
    quad = float((v.T @ b) ** 2 @ (1.0 / weff))
    gamma = float(np.sqrt(max(quad, 0.0) / a11))
    viol = []
    tol = 1e-12 * np.abs(a).max()
    for k in range(n):
        for j in range(k + 1, n):
            bound = gamma * np.sqrt(max(a[k, k], 0.0) * max(a[j, j], 0.0))
            if abs(a[k, j]) > bound + tol:
                viol.append((k, j))
    return GammaEstimate(gamma, gamma >= 1.0, ill, viol)


def alpha_shift_psd(h2, H, v, F, f, alpha, tol=PSD_TOL):
    """Does alpha * blockdiag(H, f) <= [[h2, v^T], [v, F]] hold?

    True iff h2 - alpha H > 0, G = F - alpha f is positive definite, and
    v^T G^{-1} v <= h2 - alpha H (non-strict boundary allowed).  Agrees
    with the eigenvalue test on the assembled block difference.
    """
    Fa, fa = _as_array(F), _as_array(f)
    if Fa.shape != fa.shape:
        raise ValueError("dimension mismatch between F and f")
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape[0] != Fa.shape[0]:
        raise ValueError("dimension mismatch for v")
    head = float(h2) - float(alpha) * float(H)
    if head <= 0:
        return False
    G = Fa - float(alpha) * fa
    w, vec = _jacobi(G)
    if w[0] <= 0:
        return False
    quad = float((vec.T @ v) ** 2 @ (1.0 / w))
    slack = tol * max(abs(head), np.abs(G).max())
    return bool(quad <= head + slack)


def posdef_by_trailing_minors(M, tol=0.0):
    """Positive definiteness via determinants of all trailing principal
    submatrices (the bottom-right k x k blocks) being positive."""
    a = _as_array(M)
    n = a.shape[0]
    for k in range(1, n + 1):
        sub = a[n - k :, n - k :]
        w, _ = _jacobi(sub, vectors=False)
        if float(np.prod(w)) <= tol:
            return False
    return True
