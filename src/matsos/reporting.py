"""Check reports and the sampled operationalization of "bounded by".

Every checker in this package reduces to statements of the form
"LHS(x) <= C * RHS(x) over the sampled domain, for a finite C that does not
blow up toward the origin".  `sampled_bound` turns arrays of sampled sides
into a verdict with the shared conventions.  A family of several such
statements on one set of samples (the pairs and orders of a power bound,
the entries of a matrix) is one (K, U) stack over the U samples, so no
sample point or radius is copied per statement:

* samples where both sides are below the flat floor (1e-300) are excluded
  and counted, never failed: the inequalities are trivially true where both
  sides vanish;
* a pass requires the sup of LHS/RHS to stay below a cap and the per-shell
  maxima over the three finest dyadic shells toward the origin to show no
  growth trend (log-log slope test) --- a sup test alone cannot
  distinguish a large constant from divergence on a finite grid.

The cap is `DEFAULT_CMAX` = 1e6 for every checker; the pivot-tail
comparability of the pipeline alone passes its own, 100, as `cmax=`.
Reports write Python and numpy booleans as JSON booleans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CheckReport",
    "sampled_bound",
    "PASS",
    "FAIL",
    "INCONCLUSIVE",
    "CONDITION_IDS",
]

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive-by-flatness"

# The fixed enumeration of condition identifiers a report may carry.
CONDITION_IDS = frozenset(
    {
        "diagonal-comparability",
        "subordinate",
        "subordinate-quadratic-form",
        "subordinate-entrywise",
        "strongly-c4",
        "strongly-c4-sharpness-offdiag",
        "diagonal-power-bound",
        "diagonal-seminorm-bound",
        "offdiag-inner-power-bound",
        "offdiag-inner-seminorm-bound",
        "offdiag-cross-power-bound",
        "offdiag-cross-seminorm-bound",
        "scalar-sos-hypotheses",
        "second-derivative-power-bound",
        "fourth-derivative-power-bound",
        "scalar-sos-factor-bounds",
        "factor-value-bound",
        "factor-gradient-bound",
        "factor-hessian-bound",
        "quasiconformal",
        "residual-pivot-comparability-upper",
        "residual-pivot-comparability-lower",
        "residual-subordinaticity-gate",
        "pivot-tail-comparability",
        "omega-monotone",
        "quadratic-form-positivity",
        "linear-sos-obstruction",
        "sos-failure-condition",
        "block-trace-comparability",
        "flat-profile-incomparability",
    }
)

FLAT_FLOOR = 1e-300
DEFAULT_CMAX = 1e6
TREND_SLOPE = 0.05


@dataclass
class CheckReport:
    """Verdict for one named condition on a sampled domain."""

    condition: str
    verdict: str
    worst_ratio: float | None = None
    witness: list | None = None
    constant: float | None = None
    params: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "condition": self.condition,
            "verdict": self.verdict,
            "worst_ratio": _jsonable(self.worst_ratio),
            "witness": _jsonable(self.witness),
            "constant": _jsonable(self.constant),
            "params": _jsonable(self.params),
            "counts": _jsonable(self.counts),
            "details": _jsonable(self.details),
        }


def _jsonable(v):
    # before the int branch, which a Python bool would also take
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (np.floating, float)):
        v = float(v)
        if v != v:
            return "nan"
        if v == float("inf"):
            return "inf"
        if v == float("-inf"):
            return "-inf"
        return v
    if isinstance(v, (np.integer, int)):
        return int(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def shell_trend_slope(radii, ratios, nshells=3):
    """Log-log slope of per-shell max ratios over the finest dyadic shells.

    Negative slope means the ratio grows as the radius shrinks.  Returns
    None when fewer than `nshells` nonempty shells exist.
    """
    radii = np.asarray(radii)
    ratios = np.asarray(ratios)
    pos = (radii > 0) & (ratios > 0) & np.isfinite(ratios)
    if pos.sum() < nshells:
        return None
    radii, ratios = radii[pos], ratios[pos]
    rmax = radii.max()
    shells = np.floor(np.log2(rmax / radii)).astype(int)
    levels = np.unique(shells)[::-1]  # finest (largest level) first
    xs, ys = [], []
    for lev in levels:
        m = shells == lev
        xs.append(np.log(rmax / 2.0 ** (lev + 0.5)))
        ys.append(np.log(ratios[m].max()))
        if len(xs) == nshells:
            break
    if len(xs) < nshells:
        return None
    xs, ys = np.array(xs), np.array(ys)
    xbar, ybar = xs.mean(), ys.mean()
    denom = ((xs - xbar) ** 2).sum()
    if denom == 0:
        return None
    return float(((xs - xbar) * (ys - ybar)).sum() / denom)


def sampled_bound(
    condition,
    lhs,
    rhs,
    pts,
    *,
    params=None,
    cmax=DEFAULT_CMAX,
    radii=None,
    excluded=0,
):
    """Verdict for sup |lhs| / rhs <= C over sampled points.

    `lhs` and `rhs` are (U,) arrays over the samples `pts` (U, d), or
    (K, U) stacks of K statements on those samples: entry (k, u) is
    checked at `pts[u]`, at radius `radii[u]` (default the norm of
    `pts[u]`); other shapes raise ValueError.  The report is that of the
    K * U entries flattened, each with its own copy of its point and
    radius: each entry counts as evaluated, or as excluded when flat; the
    witness is the first worst entry in (k, u) order; and the trend reads
    each sample's largest finite positive ratio, which gives the per-shell
    maxima of the entries.  `excluded` counts samples dropped before this
    call (evaluation masked out, flat pivots, ...); they are added to the
    report's counts.
    """
    lhs = np.abs(np.atleast_2d(np.asarray(lhs, dtype=float)))
    rhs = np.atleast_2d(np.asarray(rhs, dtype=float))
    pts = np.asarray(pts, dtype=float)
    U = lhs.shape[1]
    if rhs.shape != lhs.shape or len(pts) != U or (
            radii is not None and np.shape(radii) != (U,)):
        raise ValueError(f"sides {lhs.shape} and {rhs.shape} do not stack "
                         f"over {len(pts)} points")
    flat = (lhs < FLAT_FLOOR) & (rhs < FLAT_FLOOR)
    n_flat = int(flat.sum())
    report = CheckReport(
        condition,
        INCONCLUSIVE,
        params=dict(params or {}),
        counts={"evaluated": flat.size - n_flat,
                "excluded": int(excluded) + n_flat},
    )
    if n_flat == flat.size:
        return report
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(rhs > 0, lhs / np.where(rhs > 0, rhs, 1.0), np.inf)
    ratio[lhs == 0.0] = 0.0
    ratio[flat] = -np.inf
    k, u = np.unravel_index(np.argmax(ratio), ratio.shape)
    worst = float(ratio[k, u])
    report.worst_ratio = worst
    report.constant = worst
    report.witness = pts[u].tolist()
    r = np.linalg.norm(pts, axis=1) if radii is None else np.asarray(radii)
    ratio[~np.isfinite(ratio)] = 0.0
    slope = shell_trend_slope(r, ratio.max(axis=0))
    report.details["trend_slope"] = slope
    if not np.isfinite(worst) or worst > cmax:
        report.verdict = FAIL
        report.details["reason"] = "ratio-cap"
    elif slope is not None and slope < -TREND_SLOPE:
        report.verdict = FAIL
        report.details["reason"] = "divergence-trend"
    else:
        report.verdict = PASS
    return report


def merge_reports(condition, reports, params=None):
    """Combine family subreports into one: pass iff all pass, worst of worsts."""
    out = CheckReport(condition, PASS, params=dict(params or {}))
    out.counts = {"evaluated": 0, "excluded": 0}
    worst = -np.inf
    any_eval = False
    for rep in reports:
        out.details[rep.condition] = rep.to_json_dict()
        out.counts["evaluated"] += rep.counts.get("evaluated", 0)
        out.counts["excluded"] += rep.counts.get("excluded", 0)
        if rep.verdict == FAIL and out.verdict != FAIL:
            out.verdict = FAIL
            out.witness = rep.witness
        if rep.worst_ratio is not None:
            any_eval = True
            if rep.worst_ratio > worst:
                worst = rep.worst_ratio
                if out.verdict != FAIL:
                    out.witness = rep.witness
    if any_eval:
        out.worst_ratio = float(worst)
        out.constant = float(worst)
    elif out.verdict == PASS:
        out.verdict = INCONCLUSIVE
    return out
