"""Sampled verification of the decomposition hypotheses.

Each checker reduces a hypothesis to sup-ratio statements over a grid:
flat 0/0 samples are excluded (never failed), and a pass needs both a
bounded sup and no divergence trend toward the origin.  The pipeline runs
the checks in dependency order and refuses to decompose on a hard failure,
naming the family that failed.
"""

import numpy as np

from matsos import expr as ex
from matsos.gallery import build_grushin_2x2, build_nondiag_noncomparable_2x2, build_q_lambda
from matsos.grids import GridSpec
from matsos.matfun import SymMatFun
from matsos.verify import (
    HypothesisRefusal,
    decomposition_pipeline,
    diag_elliptic_check,
    strong_check,
    subordinate_check,
)

grid = GridSpec(box=((-1.0, 1.0),), resolution=81, exclude_radius=0.05)
grid3 = GridSpec(box=((-1.0, 1.0),) * 3, resolution=9, exclude_radius=0.05)

print("== diagonal comparability distinguishes the two 2x2 examples")
G = build_grushin_2x2(0.5)
rep = diag_elliptic_check(G, grid)
print(f"   rank-two example: {rep.verdict}, bracket "
      f"({rep.details['beta']:.3f}, {rep.details['alpha']:.3f})")
N = build_nondiag_noncomparable_2x2()
rep = diag_elliptic_check(N, grid)
print(f"   flat-coupling example: {rep.verdict} ({rep.details['reason']})")

print("== subordinaticity: quadratic-form and entrywise routes agree")
rep = subordinate_check(build_q_lambda(0.02), grid3)
print(f"   quadratic family: {rep.verdict}, worst ratio {rep.worst_ratio:.3g}")
rep = subordinate_check(G, grid)
print(f"   rank-two example: {rep.verdict}, worst ratio {rep.worst_ratio:.3g}, "
      f"routes agree: {rep.details['verdict_agreement']}")

print("== the strong differential families on a flat diagonal")
f = ex.flat(ex.var(0))
A = SymMatFun.from_rows(
    [[ex.ONE, ex.intpow(f, 3)], [ex.intpow(f, 3), ex.intpow(f, 2)]], nvars=1
)
rep = strong_check(A, 2, 0.25, 0.1, 0.15, grid)
for fam, verdict in rep.details["family_verdicts"].items():
    print(f"   {fam}: {verdict}")

print("== the pipeline refuses hard failures, naming the family")
bad = SymMatFun.from_rows(
    [[ex.intpow(f, 2), 0.5 * f, ex.ZERO],
     [0.5 * f, ex.ONE, ex.ZERO],
     [ex.ZERO, ex.ZERO, ex.ONE]],
    nvars=1,
)
try:
    decomposition_pipeline(bad, 2, 0.25, 0.1, 0.2, grid)
except HypothesisRefusal as refusal:
    print("   refusal:", refusal.failed_family)

print("== and certifies the rank-two example end to end")
res = decomposition_pipeline(G, 2, 0.25, 0.1, 0.2, grid)
reports = {r.condition: r for r in res.reports}
for r in res.reports:
    print(f"   {r.condition}: {r.verdict}")
print("   residual eigenvalue ratio K =",
      reports["quasiconformal"].details["K"])
