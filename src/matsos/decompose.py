"""Rank-one peeling of symmetric matrix functions into sums of squares.

The one-step decomposition splits A with positive leading pivot into the
dyad of its normalized first column plus the Schur complement:

    A = Z Z^T + embed(Q),   Z = (sqrt(a11), a12/sqrt(a11), ..., a1n/sqrt(a11)),
    Q = [a_kj - a_1k a_1j / a11].

Z and Q are built as expression trees sharing the input's nodes, so the
reconstruction identity is algebraically exact and any numerical residual
measures floating-point evaluation error, not method error.  Iterating to
depth p-1 peels dyads Z_1..Z_{p-1} and leaves a residual block Q_p; a
scalar sum-of-squares backend then splits each pivot E_k = q_kk into
factors t_{k,i}, which assemble into the vector fields

    X_{k,i} = t_{k,i} e_k + sum_{j>k} t_{k,i} (q_kj / E_k) e_j,

with sum_i X_{k,i} (x) X_{k,i}^T = Z_k Z_k^T exactly.

The JSON form of a decomposition (`SquareDecomposition.to_json_dict`)
writes the expressions of Z_k, Q_p and X_{k,i} as row indices into one
node table (`expr.NodeTable`), so the subexpressions they share with each
other and with A are written once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from . import jets
from .matfun import SymMatFun
from .monotone import holder_seminorm
from .reporting import CheckReport, FAIL, merge_reports, sampled_bound
from .symmat import _jacobi

__all__ = [
    "PivotError",
    "ScalarSosBackend",
    "SosResult",
    "SquareDecomposition",
    "one_sd",
    "iterated_sd",
    "scalar_sos",
    "assemble_vector_fields",
    "residual_dyads",
]

FLAT_PIVOT = 1e-300

# The softness a of the split-by-sign-cell partition of unity.
SPLIT_SOFTNESS = 0.5


class PivotError(ValueError):
    def __init__(self, message, point=None):
        if point is not None:
            message = f"{message} at point {np.asarray(point).tolist()}"
        super().__init__(message)
        self.point = point


def default_delta_prime(delta):
    """The canonical pairing delta-prime = 2 d (1 + d) / (2 + d)."""
    return 2.0 * delta * (1.0 + delta) / (2.0 + delta)


@dataclass(frozen=True)
class ScalarSosBackend:
    """Backend splitting a nonnegative scalar into a sum of squares.

    principal-sqrt: one factor, realized on the expression tree when the
        input is a perfect square / exponential / flat form, else as a
        sqrt node whose smoothness is verified numerically and reported.
    split-by-sign-cell: two factors weighted by a smooth two-cell partition
        of unity w = (1 +- u / sqrt(u^2 + a^2)) / 2 in u = x0 (softness
        a = `SPLIT_SOFTNESS`); exercises multi-factor assembly while keeping
        sum-of-squares exact.

    Construction is the one range check of epsilon and delta that a
    decomposition reads: the pipeline, the field certificates and the
    factor bounds all take them, and delta' = `dprime`, from here.
    """

    name: str = "principal-sqrt"
    delta: float = 0.1
    epsilon: float = 0.25

    def __post_init__(self):
        if self.name not in ("principal-sqrt", "split-by-sign-cell"):
            raise ValueError(f"unknown backend {self.name!r}")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if not 0.25 <= self.epsilon < 1:
            raise ValueError("epsilon must lie in [1/4, 1)")

    @property
    def dprime(self):
        return default_delta_prime(self.delta)


@dataclass
class SosResult:
    factors: list
    report: CheckReport


@dataclass
class SquareDecomposition:
    """Iterated decomposition A = sum_k Z_k Z_k^T + embed(Q_p)."""

    matrix: SymMatFun
    depth: int
    pivots: list = field(default_factory=list)
    pivot_rows: list = field(default_factory=list)
    peel_vectors: list = field(default_factory=list)
    residual: SymMatFun | None = None
    sos_factors: list | None = None
    fields: list | None = None
    certificates: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.matrix.n

    def field_gram_values(self, k, points):
        """sum_i X_{k,i} X_{k,i}^T at points for peel index k (0-based)."""
        if self.fields is None:
            raise ValueError("vector fields not assembled yet")
        return _dyad_sum(_dyads(self.fields[k], points, self.matrix.nvars))

    def to_json_dict(self):
        """JSON form (schema v2): every expression of the peel vectors,
        residual and fields is the index of its row in one node table,
        `nodes`, so a node they share is written once."""
        table = ex.NodeTable()
        ref = table.ref
        d = {
            "dimension": self.n,
            "depth": self.depth,
            "nodes": table.rows,
            "peel_vectors": [[ref(c) for c in Z] for Z in self.peel_vectors],
            "residual": (self.residual.to_json_dict(ref)
                         if self.residual else None),
            "certificates": self.certificates,
        }
        if self.fields is not None:
            d["fields"] = [[[ref(c) for c in X] for X in Xk]
                           for Xk in self.fields]
        return d


def _dyads(vectors, pts, nvars):
    """v v^T at pts for every expression vector v, each with the mask where
    all of v is defined; all components are evaluated under one memo."""
    jbs = iter(jets.eval_entries([c for v in vectors for c in v], pts, 0,
                                 nvars=nvars))
    out = []
    for v in vectors:
        vj = [next(jbs) for _ in v]
        vals = np.stack([jb.values for jb in vj], axis=1)
        out.append((vals[:, :, None] * vals[:, None, :],
                    ~np.any([jb.invalid for jb in vj], axis=0)))
    return out


def _dyad_sum(dyads):
    """Sum of `_dyads` output (at least one term), with the mask where every
    term is defined."""
    return sum(d for d, _ in dyads), np.logical_and.reduce([ok for _, ok in dyads])


# ---------------------------------------------------------------------------
# one-step and iterated decomposition


def _check_pivot(a11, grid):
    """Positivity of the pivot on the sampled punctured domain.

    Samples where the pivot and its whole order-4 jet are numerically zero
    (a flat region, or underflow of one) are excluded and counted.  A
    negative pivot, or one that vanishes at finite order (zero value but a
    nonzero derivative), is an error: the decomposition is undefined there.
    Returns (evaluated, excluded) counts.
    """
    pts = grid.sample_points()
    jb = jets.eval_jet_batch(a11, pts, order=4, nvars=grid.dim)
    valid = ~jb.invalid
    vals = jb.values
    jet_mag = np.abs(jb.derivatives()).max(axis=0)
    tiny = valid & (np.abs(vals) < FLAT_PIVOT)
    flat = tiny & (jet_mag < 1e-150)
    finite_order = tiny & ~flat
    if finite_order.any():
        raise PivotError(
            "pivot vanishes at finite order", point=pts[np.argmax(finite_order)]
        )
    usable = valid & ~flat
    bad = usable & (vals <= 0.0)
    if bad.any():
        raise PivotError("pivot not positive", point=pts[np.argmax(bad)])
    excluded = int((~valid).sum() + flat.sum())
    return int(usable.sum()), excluded


def one_sd(A, grid=None):
    """One-step decomposition (Z, Q) of A with positive leading pivot.

    When a grid is given, pivot positivity is validated on its samples
    first.  Z and Q share the entries of A as subtrees; the identity
    A = Z Z^T + embed(Q) holds exactly as expression algebra.
    """
    if A.n < 1:
        raise ValueError("matrix must have dimension >= 1")
    a11 = A.entry(0, 0)
    if grid is not None:
        _check_pivot(a11, grid)
    s1 = ex.sqrt(a11)
    inv_s1 = ex.recip(s1)
    inv_a11 = ex.recip(a11)
    Z = [s1] + [ex.mul(A.entry(0, j), inv_s1) for j in range(1, A.n)]
    entries = {}
    for k in range(1, A.n):
        for j in range(k, A.n):
            entries[(k - 1, j - 1)] = ex.add(
                A.entry(k, j),
                ex.mul(ex.const(-1.0), A.entry(0, k), A.entry(0, j), inv_a11),
            )
    Q = SymMatFun(A.n - 1, A.nvars, entries, A.tags)
    return Z, Q


def _bracket_constants(mats, diags, k):
    """Best constants over a stack of samples in
    c a_kk e_k (x) e_k < M_k < C sum_{m>=k} a_mm e_m (x) e_m, where
    M_k = Z_k Z_k^T + sum_{m>k} a_mm e_m (x) e_m (active block only).

    `mats` is (S, n, n) and `diags` (S, n); samples with a flat trailing
    diagonal entry are skipped.  Returns (None, None) when none is left.
    """
    akk = diags[:, k]
    use = ~((akk < FLAT_PIVOT) | (diags[:, k:].min(axis=1) < FLAT_PIVOT))
    if not use.any():
        return None, None
    akk = akk[use]
    Mk = mats[use][:, k:, k:]
    dinv = 1.0 / np.sqrt(diags[use][:, k:])
    w, v = _jacobi(np.concatenate([Mk, Mk * dinv[:, :, None] * dinv[:, None, :]]))
    m = len(akk)
    w, v, w2 = w[:m], v[:m], w[m:]
    pos = ~(w.min(axis=1) <= 0)
    cs = np.zeros(m)
    inv_kk = (v[pos, 0, :] ** 2 / w[pos]).sum(axis=1)
    cs[pos] = 1.0 / (akk[pos] * inv_kk)
    # the builtin folds keep the first of equal extremes, as a running
    # min/max over the samples would
    return float(min(cs)), float(max(w2.max(axis=1)))


def _dyad_domination_constant(Q, grid):
    """Sampled sharp constant in Z Z^T < C Q for one peel of Q.

    For the normalized first column the exact constant is Z^T Q^{-1} Z = 1
    wherever Q is invertible; the sampled value certifies finiteness (and
    the quality of the evaluation) over the first 200 grid samples.
    """
    rec = Q.sampled(grid)
    vals, ok = rec.values[:200], rec.valid[:200]
    q = vals[ok & ~(vals[:, 0, 0] < FLAT_PIVOT)]
    w, v = _jacobi(q)
    pos = ~(w[:, 0] <= 0)
    q, w, v = q[pos], w[pos], v[pos]
    z = q[:, :, 0] / np.sqrt(q[:, 0, 0])[:, None]
    y = (v.transpose(0, 2, 1) @ z[:, :, None]) ** 2
    r = (y.transpose(0, 2, 1) @ (1.0 / w)[:, :, None])[:, 0, 0]
    return {"constant": float(max(0.0, *r)) if r.size else None,
            "samples": int(r.size)}


def iterated_sd(A, p, grid):
    """Iterate the one-step decomposition to depth p-1.

    p runs in 2..n+1; p = n+1 peels every column and leaves an empty
    residual.  Certificates sampled on the grid: the reconstruction
    residual and, for every peel, the bracket constants (c, C) of the
    peeled dyad against the trailing diagonal.
    """
    n = A.n
    if not 2 <= p <= n + 1:
        raise ValueError(f"p must lie in 2..{n + 1}")
    Q = A
    pivots, pivot_rows, peel_vectors = [], [], []
    excluded_total = 0
    dyad_constants = []
    for k in range(p - 1):
        evaluated, excluded = _check_pivot(Q.entry(0, 0), grid)
        excluded_total += excluded
        pivots.append(Q.entry(0, 0))
        pivot_rows.append([Q.entry(0, j) for j in range(Q.n)])
        dyad_constants.append(_dyad_domination_constant(Q, grid))
        Y, Qn = one_sd(Q)
        peel_vectors.append([ex.ZERO] * k + Y)
        Q = Qn
    dec = SquareDecomposition(
        matrix=A,
        depth=p,
        pivots=pivots,
        pivot_rows=pivot_rows,
        peel_vectors=peel_vectors,
        residual=Q,
    )
    arec, qrec = A.sampled(grid), Q.sampled(grid)
    dyads = _dyads(peel_vectors, arec.pts, A.nvars)
    rvals, rvalid = _dyad_sum(dyads)
    rvals[:, n - Q.n:, n - Q.n:] += qrec.values
    use = arec.valid & rvalid & qrec.valid
    cert = {
        "samples": int(use.sum()),
        "excluded": int((~use).sum()) + excluded_total,
        "dyad_domination": dyad_constants,
    }
    if use.any():
        avals = arec.values[use]
        diff = np.abs(avals - rvals[use]).max(axis=(1, 2))
        scale = 1.0 + np.abs(avals).max(axis=(1, 2))
        cert["reconstruction_residual"] = float((diff / scale).max())
        cert["reconstruction_residual_abs"] = float(diff.max())
        zk = []
        diags = avals.diagonal(axis1=1, axis2=2)
        for k, (M, ok) in enumerate(dyads):
            fin = ok[use]
            M, dv = M[use][fin], diags[fin]
            tail = np.arange(k + 1, n)
            M[:, tail, tail] += dv[:, tail]
            c, C = _bracket_constants(M, dv, k)
            zk.append({"k": k + 1, "c": c, "C": C})
        cert["peel_brackets"] = zk
        if Q.n > 0:
            qv = qrec.values[use]
            ref = diags[:, p - 1]
            sel = ~(ref < FLAT_PIVOT)
            w, _ = _jacobi(qv[sel], vectors=False)
            lo = min([np.inf, *(w[:, 0] / ref[sel])])
            hi = max([-np.inf, *(w[:, -1] / ref[sel])])
            if np.isfinite(lo):
                cert["residual_bracket"] = {"beta": float(lo), "alpha": float(hi)}
    dec.certificates = cert
    return dec


# ---------------------------------------------------------------------------
# scalar sum-of-squares backends


def _symbolic_sqrt(e):
    """An expression g with g*g identically e, or None."""
    k = e.kind
    if k == "const":
        return ex.const(np.sqrt(e.param)) if e.param >= 0 else None
    if k == "intpow" and e.param >= 0 and e.param % 2 == 0:
        return ex.intpow(e.children[0], e.param // 2)
    if k == "product":
        parts = [_symbolic_sqrt(c) for c in e.children]
        if all(p is not None for p in parts):
            return ex.mul(*parts)
        return None
    if k == "exp":
        return ex.exp(ex.mul(ex.const(0.5), e.children[0]))
    if k == "flat":
        return ex.flat(ex.mul(ex.const(np.sqrt(2.0)), e.children[0]))
    if k == "flatabs":
        return ex.flatabs(ex.mul(ex.const(2.0), e.children[0]))
    if k == "recip":
        inner = _symbolic_sqrt(e.children[0])
        return ex.recip(inner) if inner is not None else None
    return None


def _sign_cell_weights():
    u = ex.var(0)
    a2 = ex.const(SPLIT_SOFTNESS**2)
    s = ex.mul(u, ex.recip(ex.sqrt(ex.add(ex.intpow(u, 2), a2))))
    half = ex.const(0.5)
    w_plus = ex.mul(half, ex.add(ex.ONE, s))
    w_minus = ex.mul(half, ex.add(ex.ONE, ex.mul(ex.const(-1.0), s)))
    return [ex.sqrt(w_plus), ex.sqrt(w_minus)]


def scalar_sos(f, backend, grid):
    """Split a nonnegative scalar into factors g with sum g^2 = f.

    The report carries the factor-bound families evaluated on the grid,
    with the backend's epsilon, delta and delta':
    |t| against E^{1/2}, |grad t| against E^{([1-2 eps]_+ + delta')/2} and
    |Hess t| against E^{delta^2/(2+delta)}, together with the sampled
    sum-of-squares identity residual.  A smoothness (bound) failure is
    reported, not raised; negativity of f at a sample is an error.
    """
    nv = grid.dim
    pts = grid.sample_points()
    fvals, fvalid = jets.eval_values(f, pts, nvars=nv)
    scale = float(np.abs(fvals[fvalid]).max()) if fvalid.any() else 0.0
    neg = fvalid & (fvals < -1e-12 * scale)
    if neg.any():
        raise ValueError(
            f"f is negative at sampled point {pts[np.argmax(neg)].tolist()}"
        )
    g = _symbolic_sqrt(f)
    symbolic = g is not None
    if g is None:
        g = ex.sqrt(f)
    if backend.name == "split-by-sign-cell":
        factors = [ex.mul(w, g) for w in _sign_cell_weights()]
    else:
        factors = [g]

    delta = backend.delta
    dprime = backend.dprime
    epsilon = backend.epsilon
    order2 = 2
    jfs = [jets.eval_jet_batch(t, pts, order=order2, nvars=nv) for t in factors]
    valid = fvalid.copy()
    for jb in jfs:
        valid &= ~jb.invalid
    E = np.maximum(fvals, 0.0)
    t_abs = np.max([np.abs(jb.values) for jb in jfs], axis=0)
    t_grad = np.max([np.abs(jb.gradient()).max(axis=0) for jb in jfs], axis=0)
    t_hess = np.max([jb.max_abs_of_order(2) for jb in jfs], axis=0)
    # where f underflows, so does every side mathematically; a factor value
    # like sqrt(f) may still be representable, which would compare a number
    # against an unrepresentable bound -- exclude such flat pairs
    t_mag = np.maximum(np.maximum(t_abs, t_grad), t_hess)
    flat_pair = (E < 1e-300) & (t_mag < 1e-150)
    valid &= ~flat_pair
    counts_excluded = int((~valid).sum())
    E = E[valid]
    t_abs, t_grad, t_hess = t_abs[valid], t_grad[valid], t_hess[valid]
    p = pts[valid]
    with np.errstate(invalid="ignore"):
        reps = [
            sampled_bound(
                "factor-value-bound",
                t_abs,
                np.sqrt(E),
                p,
                params={"exponent": 0.5},
                excluded=counts_excluded,
            ),
            sampled_bound(
                "factor-gradient-bound",
                t_grad,
                E ** (0.5 * (max(1.0 - 2.0 * epsilon, 0.0) + dprime)),
                p,
                params={"exponent": 0.5 * (max(1.0 - 2.0 * epsilon, 0.0) + dprime)},
            ),
            sampled_bound(
                "factor-hessian-bound",
                t_hess,
                E ** (delta**2 / (2.0 + delta)),
                p,
                params={"exponent": delta**2 / (2.0 + delta)},
            ),
        ]
    report = merge_reports(
        "scalar-sos-factor-bounds",
        reps,
        params={
            "backend": backend.name,
            "delta": delta,
            "delta_prime": dprime,
            "epsilon": epsilon,
            "factors": len(factors),
            "symbolic": symbolic,
        },
    )
    sq = np.zeros(int(valid.sum()))
    for jb in jfs:
        sq += jb.values[valid] ** 2
    resid = np.abs(sq - E) / (1.0 + E)
    report.details["sos_identity_residual"] = float(resid.max()) if len(resid) else 0.0
    if not symbolic and report.verdict == FAIL:
        report.details["note"] = (
            "numeric square root failed a smoothness bound; consider the"
            " split-by-sign-cell backend or a different exponent choice"
        )
    return SosResult(factors, report)


# ---------------------------------------------------------------------------
# vector field assembly


def assemble_vector_fields(dec, backend, grid):
    """Split every peeled dyad into squares of vector fields.

    For peel k with pivot E_k and first row (q_kk, q_k,k+1, ...), each
    scalar factor t of E_k contributes the field with components
    t, t q_k,k+1 / E_k, ..., t q_kn / E_k on coordinates k..n-1.  The Gram
    identity sum_i X_{k,i} X_{k,i}^T = Z_k Z_k^T is exact; its sampled
    residual, factor bounds, and derivative/seminorm magnitudes of the
    components go into the certificates, with the backend's epsilon, delta
    and delta' (the ones its factor bounds used).
    """
    nv = dec.matrix.nvars
    fields = []
    sos_factors = []
    reports = []
    pts = grid.sample_points()
    gram_resid = 0.0
    deriv_stats = []
    for k in range(dec.depth - 1):
        E = dec.pivots[k]
        row = dec.pivot_rows[k]
        res = scalar_sos(E, backend, grid)
        reports.append(res.report)
        sos_factors.append(res.factors)
        invE = ex.recip(E)
        Xk = []
        for t in res.factors:
            comps = [ex.ZERO] * k + [t]
            for j in range(1, len(row)):
                comps.append(ex.mul(t, row[j], invE))
            Xk.append(comps)
        fields.append(Xk)
    dec.fields = fields
    dec.sos_factors = sos_factors
    # order-2 seminorms of the components of every peel at every center,
    # one batched evaluation per side
    comps = [[c for X in Xk for c in X if c is not ex.ZERO] for Xk in fields]
    centers = pts[:: max(1, len(pts) // 4)][:4]
    mus = [tuple(2 if i == a else 0 for i in range(nv)) for a in range(nv)]
    batch = [c for ck in comps for c in ck]
    estimates = holder_seminorm(batch, centers, mus, backend.delta, grid)
    lo = 0
    # Gram identity against the peeled dyads
    for k, (zz, zok) in enumerate(_dyads(dec.peel_vectors, pts, nv)):
        gv, gok = dec.field_gram_values(k, pts)
        use = gok & zok
        if use.any():
            zz = zz[use]
            num = np.abs(gv[use] - zz).max(axis=(1, 2))
            den = 1.0 + np.abs(zz).max(axis=(1, 2))
            gram_resid = max(gram_resid, float((num / den).max()))
        # sampled derivative magnitudes of the components, |mu| <= 2
        sup = {0: 0.0, 1: 0.0, 2: 0.0}
        for jb in jets.eval_entries(comps[k], pts, 2, nvars=nv):
            okc = ~jb.invalid
            if not okc.any():
                continue
            for m in range(3):
                sup[m] = max(sup[m], float(jb.max_abs_of_order(m)[okc].max()))
        hi = lo + len(comps[k])
        deriv_stats.append({
            "k": k + 1,
            "component_sup": {f"order{m}": sup[m] for m in range(3)},
            "order2_seminorms": [
                {"center": x.tolist(),
                 "estimate": max([0.0] + [e for e in est[lo:hi] if e is not None])}
                for x, est in zip(centers, estimates)
            ],
        })
        lo = hi
    dec.certificates["gram_residual"] = gram_resid
    dec.certificates["field_derivative_stats"] = deriv_stats
    dec.certificates["sos_reports"] = [r.to_json_dict() for r in reports]
    dec.certificates["backend"] = {
        "name": backend.name,
        "delta": backend.delta,
        "delta_prime": backend.dprime,
        "epsilon": backend.epsilon,
    }
    return dec


def residual_dyads(dec, backend, grid):
    """Factor a 1 x 1 residual block into dyads (0, ..., 0, g).

    Complements the peeled fields when the residual has collapsed to a
    single entry, reproducing the two-dyad form of the rank-two examples.
    """
    if dec.residual is None or dec.residual.n != 1:
        raise ValueError("residual dyads need a 1 x 1 residual block")
    q = dec.residual.entry(0, 0)
    res = scalar_sos(q, backend, grid)
    out = []
    for t in res.factors:
        out.append([ex.ZERO] * (dec.n - 1) + [t])
    return out, res.report
