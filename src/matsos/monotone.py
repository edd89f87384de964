"""Holder seminorm estimation and omega-monotonicity checking.

The seminorm of a derivative D^mu h at a point x is the limsup over pairs
y, z -> x of |D^mu h(y) - D^mu h(z)| / |y - z|^delta.  The limsup is scale
local, so pairs are drawn on a geometric ladder of separations around each
center; the sampled maximum is a certified lower bound of the true value
and is monotone in the number of sampled pairs.

A function f is omega-monotone when f(y) <= C * omega(f(x)) for every y in
the ball B(x/2, |x|/2), i.e. controlled by a modulus of its own value one
dyadic step closer to the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import jets
from .reporting import FAIL, INCONCLUSIVE, PASS, CheckReport, FLAT_FLOOR

__all__ = ["MonotoneSpec", "omega_value", "holder_seminorm", "ladder_maxima",
           "omega_monotone_check"]


@dataclass(frozen=True)
class MonotoneSpec:
    """Modulus omega_s with constant C: t**s, or 1/(2+ln(1/t)) when s == 0."""

    s: float
    C: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.s <= 1.0:
            raise ValueError("exponent s must lie in [0, 1]")
        if not (self.C > 0 and math.isfinite(self.C)):
            raise ValueError("constant C must be finite and positive")

    @property
    def kind(self):
        return "log" if self.s == 0.0 else "holder"


def omega_value(spec, t):
    """omega_s(t) with arguments above 1 clamped to 1 (and flagged).

    The modulus is only defined on [0, 1]; behavior beyond is unspecified,
    so the checker evaluates at 1 there and reports how many samples were
    clamped.  Returns (values, clamped mask).
    """
    t = np.asarray(t, dtype=float)
    clamped = t > 1.0
    tc = np.minimum(t, 1.0)
    if spec.s == 0.0:
        with np.errstate(divide="ignore"):
            w = np.where(tc > 0, 1.0 / (2.0 + np.log(1.0 / np.where(tc > 0, tc, 1.0))), 0.0)
    else:
        w = tc**spec.s
    return w, clamped


def holder_seminorm(h, x, mu, delta, grid):
    """Sampled lower bound for the seminorm of D^mu h at x.

    Takes the max over sampled pairs (y, z) near x of
    |D^mu h(y) - D^mu h(z)| / |y - z|**delta.  `mu` is one multiindex or a
    sequence of them; for a sequence the result is the largest estimate,
    equal to the max of the single-multiindex calls, with h evaluated once
    per distinct order |mu|, in the jet space of that order's multiindices.

    `h` is one expression or a sequence of them; a sequence gives one
    estimate per expression, equal to the single calls, or None where a
    sample of that expression failed.  For a single expression a failure
    raises SingularDomainError at the first failing point in (center,
    order, side, pair) order.  `x` is one center or a (C, nvars) stack of
    them; a stack gives the list of the single-center results.  The
    ladders of all centers are evaluated together by `jets.eval_ladders`,
    shared with `verify.strong_check` (see there why the estimates are
    those of single centers), and each ladder's ratios are reduced as one
    array by `ladder_maxima`.  The rows are evaluated in a `jets.run_table`
    of their own, and freed when the call returns: unlike those of
    `strong_check`, which runs twice per pipeline, no later stage of a run
    reads them.
    """
    single = isinstance(h, ex.ScalarExpr)
    hs = [h] if single else list(h)
    mus = list(mu)
    if not mus:
        raise ValueError("need at least one multiindex")
    if all(np.ndim(k) == 0 for k in mus):
        mus = [mus]
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    x = np.asarray(x, dtype=float)
    stacked = x.ndim == 2
    centers = x if stacked else x[None]
    nv = x.shape[-1]
    # the jet space's rule: integer (not bool) components, |mu| <= MAX_ORDER
    mus = [jets.space(nv, jets.MAX_ORDER).checked(m) for m in mus]
    ladders = [grid.sample_pairs(c) for c in centers]
    if any(len(Y) == 0 for Y, _ in ladders):
        raise ValueError("grid pair-sampling policy produced no pairs")
    # per order, one (inv_y, inv_z, dy, dz) per center: the failure masks
    # (len(hs), P) and, per expression, the D^mu rows (len(support), P);
    # only the rows below that order's multiindices are computed
    with jets.run_table():
        tables = [jets.eval_ladders(hs, ladders, order, nv,
                                    tuple(m for m in mus if sum(m) == order))
                  for order in sorted({sum(m) for m in mus})]
    if single:
        for c, L in enumerate(ladders):
            for t in tables:
                for inv, pts in zip(t[c][:2], L):
                    if inv[0].any():
                        raise jets.SingularDomainError(
                            "seminorm sample failed",
                            point=pts[np.argmax(inv[0])])
    out = _seminorms(ladders, tables, len(hs), delta)
    if single:
        out = [worst[0] for worst in out]
    return out if stacked else out[0]


def ladder_maxima(ladder, inv, dy, dz, delta):
    """Per (row, multiindex) of the (rows, multiindices, pairs) arrays dy
    and dz, the max of |dy - dz| / |y - z|**delta over the pairs (y, z) of
    `ladder` that are apart and not failed in `inv` (rows, pairs): 0 for
    a row with no such pair, NaN where one of its ratios is NaN.  Also
    returns the mask of the rows with such a pair."""
    Y, Z = ladder
    sep = np.linalg.norm(Y - Z, axis=1)
    ok = (sep > 1e-300) & ~inv
    with np.errstate(all="ignore"):
        ratio = np.abs(dy - dz) / sep**delta
    return np.where(ok[:, None, :], ratio, 0.0).max(axis=2), ok.any(axis=1)


def _seminorms(ladders, tables, count, delta):
    """Per ladder, the estimates of `count` expressions from the
    `eval_ladders` tables of all orders, or None where a sample of one
    failed; a NaN ratio never becomes an estimate."""
    if not count:
        return [[] for _ in ladders]
    out = []
    for c, L in enumerate(ladders):
        parts = [t[c] for t in tables]
        inv = np.any([p[0] | p[1] for p in parts], axis=0)
        dy, dz = (np.concatenate([np.array(p[k]) for p in parts], axis=1)
                  for k in (2, 3))
        top = np.fmax.reduce(ladder_maxima(L, inv, dy, dz, delta)[0], axis=1)
        out.append([None if f else max(0.0, float(t))
                    for f, t in zip(inv.any(axis=1), top)])
    return out


def omega_monotone_check(f, spec, grid, ball_count=64):
    """Is f(y) <= C * omega(f(x)) for sampled x and sampled y in B(x/2, |x|/2)?

    Reports the sup of f(y) / omega(f(x)); passes when that sup is at most
    C.  Samples with f(x) and the ball values both flat-zero are excluded.
    Samples with f(x) > 1 are evaluated with omega clamped at 1 and counted
    in ``counts['clamped']``.
    """
    centers = grid.sample_points()
    nv = centers.shape[1]
    balls = [grid.ball_points(x / 2.0, np.linalg.norm(x) / 2.0, ball_count) for x in centers]
    allpts = np.concatenate([np.atleast_2d(b) for b in balls] + [centers], axis=0)
    vals, valid = jets.eval_values(f, allpts, nvars=nv)
    if not valid.all():
        bad = allpts[np.argmax(~valid)]
        raise jets.SingularDomainError("monotonicity sample failed", point=bad)
    if vals.min() < -1e-12 * float(np.abs(vals).max()):
        raise ValueError("f must be nonnegative on the sampled grid")
    vals = np.maximum(vals, 0.0)
    fx = vals[-len(centers):]
    wvals, clamped = omega_value(spec, fx)
    worst = -np.inf
    witness = None
    evaluated = excluded = 0
    offset = 0
    for i, b in enumerate(balls):
        fy = vals[offset : offset + len(b)]
        offset += len(b)
        w = wvals[i]
        if w < FLAT_FLOOR:
            flat = fy < FLAT_FLOOR
            excluded += int(flat.sum())
            if (~flat).any():
                worst = np.inf
                witness = centers[i].tolist()
                evaluated += int((~flat).sum())
            continue
        ratios = fy / w
        evaluated += len(ratios)
        j = int(np.argmax(ratios))
        if ratios[j] > worst:
            worst = float(ratios[j])
            witness = centers[i].tolist()
    report = CheckReport(
        "omega-monotone",
        INCONCLUSIVE,
        params={"s": spec.s, "C": spec.C, "kind": spec.kind},
        counts={
            "evaluated": evaluated,
            "excluded": excluded,
            "clamped": int(clamped.sum()),
        },
    )
    if evaluated == 0:
        return report
    report.worst_ratio = float(worst)
    report.constant = float(worst)
    report.witness = witness
    report.verdict = PASS if worst <= spec.C * (1.0 + 1e-9) else FAIL
    return report
