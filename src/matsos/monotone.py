"""Holder seminorm estimation and omega-monotonicity checking.

The seminorm of a derivative D^mu h at a point x is the limsup over pairs
y, z -> x of |D^mu h(y) - D^mu h(z)| / |y - z|^delta.  The limsup is scale
local, so pairs are drawn on a geometric ladder of separations around each
center; the sampled maximum is a certified lower bound of the true value.

A function f is omega-monotone when f(y) <= C * omega(f(x)) for every y in
the ball B(x/2, |x|/2), i.e. controlled by a modulus of its own value one
dyadic step closer to the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def holder_seminorm(hs, centers, mus, delta, grid):
    """Sampled lower bounds for the seminorms of D^mu h at centers x.

    Takes the max over sampled pairs (y, z) near x of
    |D^mu h(y) - D^mu h(z)| / |y - z|**delta.  `hs` is a list of
    expressions, `centers` a (C, nvars) stack and `mus` a list of
    multiindices; the result holds, per center, one estimate per
    expression: the largest over `mus`, or None where a sample of that
    expression failed.  Each expression is evaluated once per distinct
    order |mu|, in the jet space of that order's multiindices.  The pair
    ladders of all centers are one (C, P, nvars) array per side
    (`GridSpec.sample_pairs`), evaluated once per order by
    `jets.eval_ladders` (see `matsos.jets` for why the estimates are those
    of single centers), and reduced in one `ladder_maxima` call.  No later
    stage reads the rows, so nothing keeps them past the call.
    """
    mus = list(mus)
    if not mus:
        raise ValueError("need at least one multiindex")
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2:
        raise ValueError("centers must be a (C, nvars) stack")
    nv = centers.shape[1]
    # the jet space's rule: integer (not bool) components, |mu| <= MAX_ORDER
    mus = [jets.space(nv, jets.MAX_ORDER).checked(m) for m in mus]
    Y, Z = grid.sample_pairs(centers)
    # per order, the failure masks (len(hs), C, P) and D^mu rows
    # (len(hs), len(support), C, P) of both sides; only the rows below
    # that order's multiindices are computed
    tables = [jets.eval_ladders(hs, Y, Z, order, nv,
                                tuple(m for m in mus if sum(m) == order))
              for order in sorted({sum(m) for m in mus})]
    return _seminorms(Y, Z, tables, delta)


def ladder_maxima(Y, Z, inv, dy, dz, delta):
    """Per (row, multiindex, center) of the (rows, multiindices, C, P)
    arrays dy and dz, the max of |dy - dz| / |y - z|**delta over the pairs
    (y, z) of the (C, P, dim) ladders `Y`, `Z` that are apart and not
    failed in `inv` (rows, C, P): 0 for a row with no such pair at a
    center, NaN where one of its ratios is NaN.  Also returns the
    (rows, C) mask of the rows with such a pair."""
    sep = np.linalg.norm(Y - Z, axis=-1)
    ok = (sep > 1e-300) & ~inv
    with np.errstate(all="ignore"):
        ratio = np.abs(dy - dz) / sep**delta
    return np.where(ok[:, None], ratio, 0.0).max(axis=-1), ok.any(axis=-1)


def _seminorms(Y, Z, tables, delta):
    """Per center, the estimates of the expressions of the `eval_ladders`
    tables of all orders, or None where a sample of one failed; a NaN
    ratio never becomes an estimate."""
    inv = np.any([t[0] | t[1] for t in tables], axis=0)
    dy, dz = (np.concatenate([t[k] for t in tables], axis=1) for k in (2, 3))
    top = np.fmax.reduce(ladder_maxima(Y, Z, inv, dy, dz, delta)[0], axis=1)
    return [[None if f else max(0.0, float(t)) for f, t in zip(fc, tc)]
            for fc, tc in zip(inv.any(axis=-1).T, top.T)]


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
