"""Sampled verification of every decomposition hypothesis.

Each checker sweeps a grid, evaluates exact jets of the matrix entries, and
reduces the hypothesis to sup-ratio statements (see `matsos.reporting` for
the shared pass/fail conventions: flat 0/0 samples are excluded and
counted, and a pass needs both a bounded sup and no divergence trend
toward the origin).

The pipeline runs the checks in dependency order, refuses to decompose on
a hard failure (naming the failed family), and otherwise peels the matrix,
assembles the vector fields, and attaches the residual-block certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jets
from .decompose import (
    ScalarSosBackend,
    SquareDecomposition,
    assemble_vector_fields,
    iterated_sd,
)
from .monotone import ladder_maxima
from .reporting import (
    CheckReport,
    DEFAULT_CMAX,
    FAIL,
    FLAT_FLOOR,
    INCONCLUSIVE,
    PASS,
    merge_reports,
    sampled_bound,
)
from .symmat import _jacobi

__all__ = [
    "HypothesisRefusal",
    "diag_elliptic_check",
    "subordinate_check",
    "strong_check",
    "scalar_sos_hypothesis_check",
    "quasiconformal_check",
    "decomposition_pipeline",
    "PipelineResult",
]

# Off-diagonal entries of an underflowed-but-comparable row are at most
# sqrt(flat floor) times the largest diagonal entry; beyond that the row is
# genuinely incomparable to the diagonal.
ROW_FLAT_FLOOR = 1e-150

# `strong_check` samples the order-4 seminorms around this many valid grid
# points, and a family passes when its largest estimate is at most the cap.
SEMINORM_CENTERS = 4
SEMINORM_CAP = 1e3

# The ratio cap of the pivot-tail comparability a_pp ~ ... ~ a_nn.
TAIL_RATIO_CAP = 100.0


class HypothesisRefusal(RuntimeError):
    """A hypothesis check failed hard; the pipeline refuses to decompose."""

    def __init__(self, failed_family, reports):
        super().__init__(f"hypothesis check failed: {failed_family}")
        self.failed_family = failed_family
        self.reports = reports


def _active_masks(vals):
    """Flat directions of a stack of samples (S, n, n).

    Returns (keep, ok): keep (S, n) marks the diagonal entries at or above
    the flat floor.  A dropped entry is fine when its whole row is
    consistently flat; ok (S,) is False where a flat diagonal entry meets
    a non-flat off-diagonal one, which no comparability constant survives.
    """
    keep = vals.diagonal(axis1=1, axis2=2) >= FLAT_FLOOR
    off = np.where(np.eye(vals.shape[-1], dtype=bool), 0.0, np.abs(vals))
    ok = ~(~keep & (off.max(axis=2) > ROW_FLAT_FLOOR)).any(axis=1)
    return keep, ok


def diag_elliptic_check(A, grid):
    """Positivity off the origin plus comparability to the own diagonal.

    Passes when the minimum eigenvalue is positive at every usable sample
    and a single pair (beta, alpha) brackets D^{-1/2} A D^{-1/2} across the
    grid with alpha/beta below the cap and no divergence toward the origin.
    Reports the tightest (beta, alpha).
    """
    pts, valid, vals, _, _ = A.sampled(grid)
    keep, ok = _active_masks(vals)
    some = keep.any(axis=1)
    excluded = int((~valid).sum()) + int((valid & ok & ~some).sum())
    bad_rows = np.flatnonzero(valid & ~ok)
    bad_row_witness = pts[bad_rows[-1]].tolist() if bad_rows.size else None
    use = np.flatnonzero(valid & ok & some)
    if not use.size:
        report = CheckReport("diagonal-comparability", INCONCLUSIVE,
                             counts={"evaluated": 0, "excluded": excluded})
        if bad_row_witness is not None:
            report.verdict = FAIL
            report.witness = bad_row_witness
            report.details["reason"] = "flat-diagonal-vs-nonflat-offdiagonal"
        return report
    # one stack per set of active indices: the sample blocks themselves
    # and their diagonal normalizations D^{-1/2} A D^{-1/2}
    lmin = np.empty(use.size)
    betas = np.empty(use.size)
    alphas = np.empty(use.size)
    groups, inverse = np.unique(keep[use], axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    for g, mask in enumerate(groups):
        rows = np.flatnonzero(inverse == g)
        k = np.flatnonzero(mask)
        sub = vals[use[rows]][:, k[:, None], k]
        d = np.sqrt(np.maximum(sub.diagonal(axis1=1, axis2=2), FLAT_FLOOR))
        B = sub / d[:, :, None] / d[:, None, :]
        w, _ = _jacobi(np.concatenate([sub, B]), vectors=False)
        lmin[rows] = w[: rows.size, 0]
        betas[rows] = w[rows.size :, 0]
        alphas[rows] = w[rows.size :, -1]
    used_pts = pts[use]
    rep = sampled_bound(
        "diagonal-comparability",
        alphas,
        np.maximum(betas, 0.0),
        used_pts,
        excluded=excluded,
    )
    beta, alpha = float(betas.min()), float(alphas.max())
    rep.details["beta"] = beta
    rep.details["alpha"] = alpha
    if rep.verdict == PASS and (beta <= 0 or alpha / beta > DEFAULT_CMAX):
        rep.verdict = FAIL
        rep.details["reason"] = "global-bracket-cap"
    not_pd = np.flatnonzero(lmin <= 0)
    if not_pd.size:
        rep.verdict = FAIL
        rep.witness = used_pts[not_pd[0]].tolist()
        rep.details["reason"] = "not-positive-definite"
        rep.details["min_eigenvalue"] = float(lmin[not_pd[0]])
    if bad_row_witness is not None:
        rep.verdict = FAIL
        rep.witness = bad_row_witness
        rep.details["reason"] = "flat-diagonal-vs-nonflat-offdiagonal"
    rep.worst_ratio = alpha / beta if beta > 0 else float("inf")
    rep.constant = rep.worst_ratio
    return rep


def subordinate_check(A, grid):
    """First derivatives of the matrix controlled by its quadratic form.

    Two independent routes are evaluated: the quadratic-form ratio
    sup_xi |(d_k A) xi|^2 / (xi^T A xi) via the eigenvalue pencil, and the
    entrywise criterion |grad a_ij|^2 <= C min(a_ii, a_jj).  Their verdicts
    agree on diagonally elliptical instances (that equivalence is covered
    by the test suite); the merged report carries both.
    """
    pts, valid, avals, grads, _ = A.sampled(grid, order=1)
    n, nv = A.n, A.nvars
    excluded = int((~valid).sum())
    use = np.where(valid)[0]
    avals, grads = avals[use], grads[use]
    amax = np.abs(avals).max(axis=(1, 2))
    gmax = np.abs(grads).max(axis=(1, 2, 3)) if nv else np.zeros(len(use))
    flat = (amax < FLAT_FLOOR) & (gmax < FLAT_FLOOR)
    # sup over k of the largest eigenvalue of W^{-1/2} V^T G_k V W^{-1/2},
    # G_k = (d_k A)^T (d_k A), at every sample that is not flat; infinite
    # where A itself is flat or some G_k overflows the normalization
    qf_ratios = np.full(len(use), np.inf)
    solve = np.flatnonzero(~(amax < FLAT_FLOOR))
    w, v = _jacobi(avals[solve])
    sw = np.sqrt(np.maximum(w, FLAT_FLOOR))
    vt = v.transpose(0, 2, 1)
    T = np.empty((nv,) + v.shape)
    for k in range(nv):
        Bk = grads[solve, k]
        G = Bk.transpose(0, 2, 1) @ Bk
        T[k] = (vt @ G @ v) / sw[:, :, None] / sw[:, None, :]
    finite = np.isfinite(T).all(axis=(0, 2, 3))
    wt, _ = _jacobi(T[:, finite], vectors=False)
    ratio = np.zeros(int(finite.sum()))
    for k in range(nv):
        ratio = np.where(wt[k, :, -1] > ratio, wt[k, :, -1], ratio)
    qf_ratios[solve[finite]] = ratio
    qf_pts = pts[use][~flat]
    rep_qf = sampled_bound(
        "subordinate-quadratic-form",
        qf_ratios[~flat],
        np.ones((~flat).sum()),
        qf_pts,
        excluded=excluded + int(flat.sum()),
    )
    if rep_qf.worst_ratio is not None:
        rep_qf.constant = float(np.sqrt(max(rep_qf.worst_ratio, 0.0)))
        rep_qf.params["constant_is"] = "Gamma = sqrt(worst_ratio)"
    iu, ju = np.triu_indices(n)
    lhs = np.empty((iu.size, use.size))
    for k, (i, j) in enumerate(zip(iu, ju)):
        # summed on the (sample, variable) layout of the record: an axis-1
        # sum over every pair at once adds 8 variables in another order
        lhs[k] = (grads[:, :, i, j] ** 2).sum(axis=1)
    d = avals.diagonal(axis1=1, axis2=2)
    rep_ew = sampled_bound(
        "subordinate-entrywise",
        lhs,
        np.minimum(d[:, iu], d[:, ju]).T,
        pts[use],
    )
    merged = merge_reports("subordinate", [rep_qf, rep_ew])
    merged.details["verdict_agreement"] = rep_qf.verdict == rep_ew.verdict
    return merged


def _delta_from_prime(dprime):
    """Invert dprime = 2 d (1 + d) / (2 + d) for the seminorm exponent."""
    b = 2.0 - dprime
    return (-b + np.sqrt(b * b + 16.0 * dprime)) / 4.0


def _vacuous(cond):
    return CheckReport(cond, PASS, params={"vacuous": True},
                       counts={"evaluated": 0, "excluded": 0})


def _power_family(cond, pairs, base, rec, epsilon, delta_x):
    """The bound |D^mu a_kj| <= C base^e(|mu|) of one family of all
    diagonal or all off-diagonal pairs, as one (pair and order, sample)
    stack of `sampled_bound`.  `base` (U, P) holds each pair's base at the
    valid samples of the order-4 record `rec`; `delta_x` is the family's
    delta' or delta''."""
    if not pairs:
        return _vacuous(cond)
    ks, js = np.array(pairs).T
    offdiag = ks[0] != js[0]
    orders = range(0 if offdiag else 1, 5)
    power = ((lambda m, e: 0.5 + (2 - m) * e) if offdiag
             else (lambda m, e: 1.0 - m * e))
    e_free, e_pin = np.array([[max(power(m, e), 0.0) + delta_x for m in orders]
                              for e in (epsilon, 0.25)])[:, :, None]
    use = np.flatnonzero(rec.valid)
    dmax = rec.dmax[orders[0]:, use[:, None], ks, js].transpose(2, 0, 1)
    base = np.maximum(base.T, 0.0)[:, None, :]
    # the exponent at the given epsilon where the base is <= 1, else at 1/4
    with np.errstate(invalid="ignore"):
        rhs = base ** np.where(base <= 1.0, e_free, e_pin)
    # an underflowed base against a representable-but-flat derivative is a
    # 0/0 sample in disguise: zeroed, it is excluded as flat
    drop = (base < FLAT_FLOOR) & (dmax < ROW_FLAT_FLOOR)
    dmax[drop] = rhs[drop] = 0.0
    upts = rec.pts[use]
    shape = (len(pairs) * len(orders), use.size)
    rep = sampled_bound(
        cond, dmax.reshape(shape), rhs.reshape(shape), upts,
        radii=np.linalg.norm(upts, axis=1),
        excluded=int((~rec.valid).sum()))
    rep.details["pinned_base_gt1"] = int((base > 1.0).sum()) * len(orders)
    return rep


def _seminorm_family(cond, entries, centers, est, live, two_delta):
    """The order-4 Holder seminorm bound of the `entries` of the
    `ladder_maxima` estimates `est` (entry, multiindex, center) and their
    mask `live` (entry, center) of the entries with a usable pair.  The
    witness is the first center of the largest estimate, and a NaN one is
    never the largest; no witness when the worst is 0.  A family with
    entries but no estimate is inconclusive."""
    if not entries:
        return _vacuous(cond)
    count = int(live[entries].sum()) * est.shape[1]
    worst = wit = None
    if count:
        top = np.fmax.reduce(est[entries], axis=(0, 1), initial=0.0)
        c = int(np.argmax(top))
        worst = float(top[c])
        wit = centers[c].tolist() if worst > 0 else None
    verdict = (INCONCLUSIVE if worst is None
               else PASS if worst <= SEMINORM_CAP else FAIL)
    return CheckReport(cond, verdict, worst_ratio=worst, constant=worst,
                       witness=wit, params={"holder_exponent": two_delta},
                       counts={"evaluated": count, "excluded": 0})


def strong_check(A, ell, epsilon, delta_p, delta_pp, grid, delta=None):
    """The six differential-inequality families on entries up to order 4.

    For diagonal entries a_kk (k <= ell):
        |D^mu a_kk| <= C a_kk^([1 - |mu| eps]_+ + delta');  seminorm of
        order-4 derivatives bounded.
    For off-diagonal entries, with m_k = min_{s<=k} a_ss:
        inner (k < j <= ell):  |D^mu a_kj| <= C m_j^([1/2 + (2-|mu|) eps]_+ + delta'')
        cross (k <= ell < j):  same with m_k;  plus the two order-4
        seminorm families.

    The exponent is evaluated at the given epsilon where the base is <= 1;
    samples with base > 1 are checked at epsilon pinned to 1/4 (making them
    epsilon-independent) and counted separately.  Epsilon may lie anywhere
    in (0, 1) here so the sharpness regime below 1/4 can be expressed; the
    decomposition pipeline itself enforces [1/4, 1).  A seminorm family
    with pairs but no usable estimate is inconclusive.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 1 <= ell <= A.n:
        raise ValueError("ell must lie in 1..n")
    rec = A.sampled(grid, order=4)
    upts = rec.pts[rec.valid]
    n = A.n
    diag = rec.values[rec.valid].diagonal(axis1=1, axis2=2)
    mins = np.minimum.accumulate(diag, axis=1)

    d_sem = _delta_from_prime(delta_p) if delta is None else delta
    two_delta = min(2.0 * d_sem, 1.0)

    # the pair ladders of every family, their entries' ratios reduced once
    centers = upts[:: max(1, len(upts) // SEMINORM_CENTERS)][:SEMINORM_CENTERS]
    nv = A.nvars
    mus = [tuple(4 * (a == b) for a in range(nv)) for b in range(nv)]
    mus += [(2, 2) + (0,) * (nv - 2)] if nv >= 2 else []
    keys = [(k, j) for k in range(ell) for j in range(k, n)]
    Y, Z = grid.sample_pairs(centers)
    inv_y, inv_z, dy, dz = A.ladder_rows(keys, Y, Z, 4, tuple(mus))
    est, live = ladder_maxima(Y, Z, inv_y | inv_z, dy, dz, two_delta)

    def power(cond, pairs, table, side, delta_x):
        base = table[:, [pair[side] for pair in pairs]]
        return _power_family(cond, pairs, base, rec, epsilon, delta_x)

    def seminorm(cond, pairs):
        return _seminorm_family(cond, [keys.index(p) for p in pairs], centers,
                                est, live, two_delta)

    diag_pairs = [(k, k) for k in range(min(ell, n))]
    inner_pairs = [(k, j) for k in range(ell) for j in range(k + 1, ell)]
    cross_pairs = [(k, j) for k in range(ell) for j in range(ell, n)]
    reps = [
        power("diagonal-power-bound", diag_pairs, diag, 0, delta_p),
        seminorm("diagonal-seminorm-bound", diag_pairs),
        power("offdiag-inner-power-bound", inner_pairs, mins, 1, delta_pp),
        seminorm("offdiag-inner-seminorm-bound", inner_pairs),
        power("offdiag-cross-power-bound", cross_pairs, mins, 0, delta_pp),
        seminorm("offdiag-cross-seminorm-bound", cross_pairs),
    ]
    merged = merge_reports("strongly-c4", reps, params={
        "ell": ell, "epsilon": epsilon, "delta": d_sem,
        "delta_prime": delta_p, "delta_pprime": delta_pp})
    merged.details["family_verdicts"] = {r.condition: r.verdict for r in reps}
    return merged


def scalar_sos_hypothesis_check(f, delta, grid):
    """Second/fourth derivative power bounds admitting a scalar SOS.

    Reports sup |grad^2 f| / f^(2 delta (1+delta) / (2+delta)) and
    sup |grad^4 f| / f^(delta / (2+delta)); passes when both stay finite
    (capped, no divergence trend) over the punctured grid.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    pts = grid.sample_points()
    jb = jets.eval_jet_batch(f, pts, order=4, nvars=grid.dim)
    ok = ~jb.invalid
    excluded = int((~ok).sum())
    fv = np.maximum(jb.values[ok], 0.0)
    e2 = 2.0 * delta * (1.0 + delta) / (2.0 + delta)
    e4 = delta / (2.0 + delta)
    reps = [
        sampled_bound(
            "second-derivative-power-bound",
            jb.max_abs_of_order(2)[ok],
            fv**e2,
            pts[ok],
            params={"exponent": e2},
            excluded=excluded,
        ),
        sampled_bound(
            "fourth-derivative-power-bound",
            jb.max_abs_of_order(4)[ok],
            fv**e4,
            pts[ok],
            params={"exponent": e4},
        ),
    ]
    return merge_reports(
        "scalar-sos-hypotheses", reps, params={"delta": delta}
    )


def quasiconformal_check(Q, grid, reference=None):
    """Eigenvalues nonnegative and mutually comparable with one ratio K.

    With a reference diagonal entry supplied, also checks the stronger
    comparability of the block to reference * identity and reports the
    bracket (beta, alpha).
    """
    if Q.n == 0:
        return CheckReport("quasiconformal", PASS, worst_ratio=1.0, constant=1.0,
                           counts={"evaluated": 0, "excluded": 0},
                           params={"empty_block": True})
    pts, valid, vals, _, _ = Q.sampled(grid)
    excluded = int((~valid).sum())
    refvals = None
    if reference is not None:
        refvals, refok = jets.eval_values(reference, pts, nvars=Q.nvars)
        refvals = np.where(refok, refvals, np.nan)
    idx = np.flatnonzero(valid)
    w, _ = _jacobi(vals[idx], vectors=False)
    scale = np.maximum(np.abs(vals[idx]).max(axis=(1, 2)), FLAT_FLOOR)
    # samples after the first negative eigenvalue are not counted
    neg = np.flatnonzero(w[:, 0] < -1e-10 * scale)
    stop = neg[0] if neg.size else idx.size
    flat = w[:stop, -1] < FLAT_FLOOR
    excluded += int(flat.sum())
    if neg.size:
        return CheckReport(
            "quasiconformal", FAIL, witness=pts[idx[stop]].tolist(),
            details={"reason": "negative-eigenvalue"},
            counts={"evaluated": int((~flat).sum()) + 1, "excluded": excluded},
        )
    if flat.all():
        return CheckReport("quasiconformal", INCONCLUSIVE,
                           counts={"evaluated": 0, "excluded": excluded})
    upts = idx[~flat]
    lmins = w[~flat, 0]
    lmins = np.where(lmins < 0.0, 0.0, lmins)
    lmaxs = w[~flat, -1]
    spts = pts[upts]
    rep = sampled_bound("quasiconformal", lmaxs, lmins, spts,
                        excluded=excluded)
    rep.details["K"] = rep.worst_ratio
    reps = [rep]
    if refvals is not None:
        ref = refvals[upts]
        okref = np.isfinite(ref) & (ref > FLAT_FLOOR)
        if okref.any():
            lo = sampled_bound(
                "residual-pivot-comparability-upper",
                lmaxs[okref], ref[okref], spts[okref],
            )
            hi = sampled_bound(
                "residual-pivot-comparability-lower",
                ref[okref], lmins[okref], spts[okref],
            )
            with np.errstate(divide="ignore"):
                lo.details["alpha"] = float((lmaxs[okref] / ref[okref]).max())
                hi.details["beta"] = float((lmins[okref] / ref[okref]).min())
            reps += [lo, hi]
    if len(reps) == 1:
        return rep
    merged = merge_reports("quasiconformal", reps)
    merged.details["K"] = rep.worst_ratio
    return merged


RESIDUAL_GATE = "residual-subordinaticity-gate"


@dataclass
class PipelineResult:
    decomposition: SquareDecomposition | None
    reports: list = field(default_factory=list)


def decomposition_pipeline(A, p, epsilon, delta, delta_pp, grid):
    """Hypothesis checks, then peeling and vector-field assembly.

    Runs the diagonal-comparability check, the strong differential families
    at ell = p-1, and the pivot-tail comparability a_pp ~ ... ~ a_nn; any
    hard failure raises HypothesisRefusal naming the failed family.  On
    success returns the decomposition with certificates plus the residual
    quasiconformality report and, when the strong families also hold at
    ell = p, the subordinaticity report of the residual.

    The one `ScalarSosBackend(delta, epsilon)` it builds checks the ranges
    of epsilon and delta, and gives the delta' of the strong checks and of
    the field certificates.  p = 1 peels nothing: the matrix itself
    is the residual block and only the comparability and quasiconformal
    checks run.  Both strong checks read one set of pair-ladder rows, kept
    on `A` (see `SymMatFun.ladder_rows`).
    """
    n = A.n
    if not 1 <= p <= n + 1:
        raise ValueError(f"p must lie in 1..{n + 1}")
    backend = ScalarSosBackend(delta, epsilon)
    delta_p = backend.dprime
    reports = []

    rep = diag_elliptic_check(A, grid)
    reports.append(rep)
    if rep.verdict == FAIL:
        raise HypothesisRefusal("diagonal-comparability", reports)

    if p >= 2:
        rep = strong_check(A, p - 1, epsilon, delta_p, delta_pp, grid,
                           delta=delta)
        reports.append(rep)
        if rep.verdict == FAIL:
            fams = rep.details.get("family_verdicts", {})
            bad = [k for k, v in fams.items() if v == FAIL]
            raise HypothesisRefusal(bad[0] if bad else "strongly-c4", reports)

    if 2 <= p <= n:
        rec = A.sampled(grid)
        d = rec.values[rec.valid].diagonal(axis1=1, axis2=2)
        pts = rec.pts[rec.valid]
        # each tail entry against the pivot, both ways
        tail = d[:, p:].T
        pivot = np.broadcast_to(d[:, p - 1], tail.shape)
        rep = sampled_bound(
            "pivot-tail-comparability",
            np.stack([tail, pivot], axis=1).reshape(-1, len(pts)),
            np.stack([pivot, tail], axis=1).reshape(-1, len(pts)),
            pts,
            cmax=TAIL_RATIO_CAP,
            params={"ratio_cap": TAIL_RATIO_CAP},
        ) if p < n else _vacuous("pivot-tail-comparability")
        reports.append(rep)
        if rep.verdict == FAIL:
            raise HypothesisRefusal("pivot-tail-comparability", reports)

    if p == 1:
        dec = SquareDecomposition(matrix=A, depth=1, residual=A)
        reports.append(quasiconformal_check(A, grid))
        return PipelineResult(dec, reports)

    dec = assemble_vector_fields(iterated_sd(A, p, grid), backend, grid)
    ref_entry = A.entry(p - 1, p - 1) if p <= n else None
    reports.append(quasiconformal_check(dec.residual, grid,
                                        reference=ref_entry))
    if p <= n:
        rep_p = strong_check(A, p, epsilon, delta_p, delta_pp, grid,
                             delta=delta)
        rep_p.condition = RESIDUAL_GATE
        rep_p.params["gates"] = "residual subordinaticity claim"
        reports.append(rep_p)
        if rep_p.verdict == PASS:
            reports.append(subordinate_check(dec.residual, grid))
    return PipelineResult(dec, reports)
