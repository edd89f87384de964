"""Closed-form certificates for the counterexamples.

The quadratic family with small coupling is positive definite away from
the origin yet no sum of squares of linear matrix forms: the obstruction
is one arithmetic chain, not an SDP.  Its flat extension on the cylinder
obstructs squares of C^(1,beta) fields whenever the isotropic part decays
fast enough, checked in log space where doubles underflow.
"""

import math

from matsos import expr as ex
from matsos.gallery import (
    FPhiPsiParams,
    build_blocks,
    failure_condition_check,
    incomparable_profiles_check,
    q_lambda_non_sos_certificate,
    q_lambda_positivity_certificate,
)
from matsos.grids import GridSpec

print("== the coupling threshold 2/81, decided on the exact value of lam")
for lam in (0.02, 2.0 / 81.0, math.nextafter(2.0 / 81.0, 1.0), 0.5):
    cert = q_lambda_non_sos_certificate(lam)
    print(f"   lam = {lam!r}: bound 18 sqrt(2 lam) = {cert.bound:.6g} "
          f"-> {cert.verdict}")

print("== positivity at ten thousand sphere samples")
rep = q_lambda_positivity_certificate(0.02)
print("   verdict:", rep.verdict)
for name, slack in rep.details["min_slacks"].items():
    print(f"   min slack, {name}: {slack:.3e}")
print("   determinant expansion rel error:",
      rep.details["det_expansion_rel_error"])

print("== the failure condition for the flat cylinder example, in log space")
tgrid = GridSpec(box=((0.003, 0.9),), resolution=300, exclude_radius=0.0)
rep = failure_condition_check(None, beta=0.5, grid=tgrid)
print(f"   matched exponents: ratio = {rep.worst_ratio:.12g} "
      f"({rep.details['obstruction']})")
for mark, val in rep.details["tau_log10_at_decades"].items():
    print(f"   log10 tau at {mark}: {val:.6g}")
slow = FPhiPsiParams(psi=lambda t: ex.mul(ex.flat(t), ex.intpow(t, 2)))
rep = failure_condition_check(slow, beta=0.5, grid=tgrid)
print(f"   slow isotropic decay: {rep.details['obstruction']} "
      f"(tau -> 0: {rep.details['tau_to_zero']})")

print("== the block assemblies")
M = build_blocks("M7")
print("   M7:", M.n, "x", M.n, "over", M.nvars, "variables")
rep = incomparable_profiles_check(
    GridSpec(box=((0.01, 0.9),), resolution=200, exclude_radius=0.0)
)
print(f"   N8 profile ratio sweep: {rep.verdict} "
      f"(sup ratio {rep.worst_ratio:.3e}): the two flat scales share no "
      f"bracket")
