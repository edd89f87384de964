"""Rank-one peeling: matrices into sums of squares of vector fields.

The one-step decomposition splits off the dyad of the normalized first
column and leaves the Schur complement; iterating peels depth p-1 and the
scalar backend writes each pivot as the square of its principal root,
assembling vector fields whose squares reproduce the peeled dyads exactly.  Everything is built as
expression algebra, so the only residual is floating point.
"""

import math

import numpy as np

from matsos import expr as ex
from matsos import jets
from matsos.decompose import (
    ScalarSosBackend,
    assemble_vector_fields,
    iterated_sd,
    one_sd,
    residual_dyads,
)
from matsos.grids import GridSpec
from matsos.matfun import SymMatFun

grid = GridSpec(box=((-1.0, 1.0),), resolution=201, exclude_radius=0.05)

print("== a constant matrix peels in closed form")
A = SymMatFun.constant([[4.0, 2.0], [2.0, 5.0]], nvars=1)
Z, Q = one_sd(A, grid)
pt = np.array([[0.0]])
print("   Z =", [float(jets.eval_values(z, pt)[0][0]) for z in Z],
      "  Schur complement =", jets.eval_values(Q.entry(0, 0), pt)[0][0])

print("== the rank-two degenerate example, gamma = 1/2")
gamma = 0.5
f = ex.flat(ex.var(0))
G = SymMatFun.from_rows(
    [[ex.ONE, gamma * f], [gamma * f, f * f]], nvars=1
)
dec = iterated_sd(G, 2, grid)
dec = assemble_vector_fields(dec, ScalarSosBackend(), grid)
print("   reconstruction residual over the grid:",
      dec.certificates["reconstruction_residual"])
print("   field-gram residual:", dec.certificates["gram_residual"])

t = 0.37
fv = math.exp(-1.0 / t**2)
field = [float(jets.eval_values(c, np.array([[t]]))[0][0]) for c in dec.fields[0][0]]
print(f"   X_1({t}) = {field}  (expected (1, {gamma * fv:.6g}))")
res = jets.eval_values(dec.residual.entry(0, 0), np.array([[t]]))[0][0]
print(f"   residual({t}) = {res:.6g}  (expected {(1 - gamma**2) * fv**2:.6g})")

dyads, _ = residual_dyads(dec, ScalarSosBackend(), grid)
dv = [float(jets.eval_values(c, np.array([[t]]))[0][0]) for c in dyads[0]]
print(f"   residual dyad({t}) = {dv}  "
      f"(expected (0, {math.sqrt(1 - gamma**2) * fv:.6g}))")

print("== peeling order matters, the reconstruction identity never does")
rng = np.random.default_rng(1)
a = rng.normal(size=(4, 4))
B = SymMatFun.constant(a @ a.T + 2 * np.eye(4), nvars=1)
for perm in ([0, 1, 2, 3], [2, 0, 3, 1]):
    d = iterated_sd(B.submatrix(perm), 3, grid)
    z0 = jets.eval_values(d.peel_vectors[0][0], pt)[0][0]
    print(f"   order {perm}: first pivot sqrt {z0:.6g}, "
          f"reconstruction {d.certificates['reconstruction_residual']:.2e}")
