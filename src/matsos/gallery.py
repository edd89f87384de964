"""Builders and certificates for the concrete example matrix functions.

Everything here is closed-form: the positive-but-not-sum-of-squares
quadratic family, its flat smooth extension on the cylinder, the rank-two
degenerate example and the block assemblies.  Certificates are arithmetic
identities and sampled inequalities, not SDP solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from . import jets
from .grids import GridSpec
from .matfun import StructureTags, SymMatFun, blockdiag
from .reporting import CheckReport, DEFAULT_CMAX, FAIL, PASS, sampled_bound
from .symmat import _jacobi

__all__ = [
    "build_q_lambda",
    "build_q_lambda_dehomogenized",
    "q_lambda_positivity_certificate",
    "q_lambda_non_sos_certificate",
    "NonSosCertificate",
    "FPhiPsiParams",
    "build_f_phi_psi",
    "failure_condition_check",
    "build_grushin_2x2",
    "build_nondiag_noncomparable_2x2",
    "build_blocks",
    "GALLERY",
    "list_gallery",
]

LAMBDA_THRESHOLD = 2.0 / 81.0
DEFAULT_LAMBDA = 0.02  # comfortably inside the certificate region
# The sphere samples of the positivity certificate and their slack tolerance.
SPHERE_COUNT = 10_000
SLACK_TOL = 1e-9


# ---------------------------------------------------------------------------
# The quadratic family: positive definite away from 0, not a sum of squares
# of linear matrix polynomials for small coupling


def build_q_lambda(lam=DEFAULT_LAMBDA):
    """3x3 matrix of homogeneous quadratics in (x, y, z)."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    x, y, z = ex.var(0), ex.var(1), ex.var(2)
    c = ex.const
    return SymMatFun.from_rows(
        [
            [x**2 + c(lam) * y**2 + c(2.0) * z**2, -x * y, -x * z],
            [-x * y, y**2 + c(lam) * z**2 + c(2.0) * x**2, -y * z],
            [-x * z, -y * z, z**2 + c(lam) * x**2 + c(2.0) * y**2],
        ],
        nvars=3,
    )


def build_q_lambda_dehomogenized(lam=DEFAULT_LAMBDA):
    """The same family with z fixed to 1, in variables (x, y)."""
    x, y = ex.var(0), ex.var(1)
    c = ex.const
    return SymMatFun.from_rows(
        [
            [x**2 + c(lam) * y**2 + c(2.0), -x * y, -x],
            [-x * y, y**2 + c(lam) + c(2.0) * x**2, -y],
            [-x, -y, c(1.0) + c(lam) * x**2 + c(2.0) * y**2],
        ],
        nvars=2,
    )


def _fibonacci_sphere(count):
    i = np.arange(count, dtype=float) + 0.5
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    ct = 1.0 - 2.0 * i / count
    st = np.sqrt(np.maximum(1.0 - ct**2, 0.0))
    return np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=1)


def _q_lambda_values(lam, W):
    x, y, z = W[:, 0], W[:, 1], W[:, 2]
    out = np.empty((len(W), 3, 3))
    out[:, 0, 0] = x**2 + lam * y**2 + 2 * z**2
    out[:, 1, 1] = y**2 + lam * z**2 + 2 * x**2
    out[:, 2, 2] = z**2 + lam * x**2 + 2 * y**2
    out[:, 0, 1] = out[:, 1, 0] = -x * y
    out[:, 0, 2] = out[:, 2, 0] = -x * z
    out[:, 1, 2] = out[:, 2, 1] = -y * z
    return out


def _det_expansion(lam, W):
    """The closed-form determinant expansion of the quadratic family."""
    x2, y2, z2 = W[:, 0] ** 2, W[:, 1] ** 2, W[:, 2] ** 2
    cyc1 = x2 * z2**2 + z2 * y2**2 + y2 * x2**2  # x^2 z^4 + z^2 y^4 + y^2 x^4
    cyc2 = x2 * y2**2 + y2 * z2**2 + z2 * x2**2  # x^2 y^4 + y^2 z^4 + z^2 x^4
    sixth = x2**3 + y2**3 + z2**3
    xyz = x2 * y2 * z2
    return (
        lam**3 * xyz
        + lam**2 * (2.0 * cyc1 + cyc2)
        + 2.0 * lam * (sixth + 2.0 * cyc2 + 3.0 * xyz)
        + 4.0 * (cyc1 + xyz)
    )


def q_lambda_positivity_certificate(lam=DEFAULT_LAMBDA):
    """Leading-minor lower bounds and the determinant expansion identity.

    On `SPHERE_COUNT` sphere samples, checks
        a11 >= min(lam, 1) |W|^2,
        2x2 leading minor >= min(lam, 2) (x^4 + y^4 + z^4),
        det >= 2 lam (x^6 + y^6 + z^6),
    each with slack >= -`SLACK_TOL`, and the closed-form determinant
    expansion against the direct determinant to 1e-9 relative.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    W = _fibonacci_sphere(SPHERE_COUNT)
    Q = _q_lambda_values(lam, W)
    x2, y2, z2 = W[:, 0] ** 2, W[:, 1] ** 2, W[:, 2] ** 2
    det3 = np.linalg.det(Q)
    minor2 = Q[:, 0, 0] * Q[:, 1, 1] - Q[:, 0, 1] ** 2
    slacks = {
        "entry-bound": Q[:, 0, 0] - min(lam, 1.0) * (x2 + y2 + z2),
        "minor-bound": minor2 - min(lam, 2.0) * (x2**2 + y2**2 + z2**2),
        "determinant-bound": det3 - 2.0 * lam * (x2**3 + y2**3 + z2**3),
    }
    expansion = _det_expansion(lam, W)
    rel = np.abs(expansion - det3) / np.maximum(1.0, np.abs(det3))
    worst_rel = float(rel.max())
    min_slacks = {k: float(v.min()) for k, v in slacks.items()}
    ok = (all(v >= -SLACK_TOL for v in min_slacks.values())
          and worst_rel <= 1e-9)
    rep = CheckReport(
        "quadratic-form-positivity",
        PASS if ok else FAIL,
        worst_ratio=worst_rel,
        constant=worst_rel,
        params={"lam": lam, "sphere_count": SPHERE_COUNT},
        counts={"evaluated": SPHERE_COUNT, "excluded": 0},
        details={"min_slacks": min_slacks, "det_expansion_rel_error": worst_rel},
    )
    if not ok:
        worst_name = min(min_slacks, key=min_slacks.get)
        rep.witness = W[int(np.argmin(slacks[worst_name]))].tolist()
        rep.details["failing"] = worst_name
    return rep


@dataclass
class NonSosCertificate:
    """Closed-form obstruction to a sum of squares of linear matrix forms.

    Equating coefficients in any hypothetical decomposition pins the
    coefficient-vector norms |m11|^2 = 1, |m13|^2 = 2, |m12|^2 = lam and
    the three mixed sums to -1; Cauchy-Schwarz then forces
    4 <= 18 sqrt(2 lam), impossible for lam < 2/81.
    """

    lam: float
    bound: float
    verdict: str  # "not-SOS-of-linear-forms" | "inconclusive"
    pinned: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "condition": "linear-sos-obstruction",
            "lam": self.lam,
            "bound": self.bound,
            "verdict": self.verdict,
            "pinned": self.pinned,
        }


def q_lambda_non_sos_certificate(lam=DEFAULT_LAMBDA):
    """The obstruction at `lam`, decided on its exact binary value:
    4 > 18 sqrt(2 lam) exactly when lam < 2/81.  `bound` is that float."""
    bound = 18.0 * math.sqrt(2.0 * lam)
    p, q = lam.as_integer_ratio()  # lam = p/q exactly, q > 0
    verdict = "not-SOS-of-linear-forms" if 81 * p < 2 * q else "inconclusive"
    pinned = {
        "diag_norms_sq": 1.0,
        "corner_norms_sq": 2.0,
        "coupling_norms_sq": lam,
        "mixed_dot_sums": -1.0,
        "threshold": LAMBDA_THRESHOLD,
    }
    return NonSosCertificate(lam, bound, verdict, pinned)


# ---------------------------------------------------------------------------
# The flat smooth extension F on B(0,1) x (-1,1)


@dataclass(frozen=True)
class FPhiPsiParams:
    """Profiles for the flat cylinder example.

    phi, psi, window are callables mapping an argument expression to the
    profile expression; defaults are phi(t) = exp(-1/t^2),
    psi(t) = (phi(t) t^2)^4 and the standard bump window.
    """

    lam: float = DEFAULT_LAMBDA
    phi: callable = ex.flat
    psi: callable = None
    window: callable = ex.bump

    def psi_of(self, t):
        if self.psi is not None:
            return self.psi(t)
        return ex.intpow(ex.mul(self.phi(t), ex.intpow(t, 2)), 4)


def build_f_phi_psi(params=None):
    """phi(t) L(W) + (psi(t) + phi(r) window(t/r)) I3 on (x, y, z, t).

    Diagonally elliptical, flat and smooth on the cylinder; the window
    term keeps the diagonal alive on the slice t = 0, W != 0.
    """
    p = params or FPhiPsiParams()
    X, Y, Z, T = (ex.var(i) for i in range(4))
    L = build_q_lambda(p.lam)
    phi_t = p.phi(T)
    r = ex.sqrt(X**2 + Y**2 + Z**2)
    eta = ex.mul(p.phi(r), p.window(ex.mul(T, ex.recip(r))))
    iso = ex.add(p.psi_of(T), eta)
    entries = {}
    for i in range(3):
        for j in range(i, 3):
            e = ex.mul(phi_t, L.entry(i, j))
            if i == j:
                e = ex.add(e, iso)
            entries[(i, j)] = e
    return SymMatFun(3, 4, entries, StructureTags(degenerate_axes=(0, 1, 2, 3)))


def failure_condition_check(params, beta, grid):
    """Obstruction to squares of C^(1,beta) fields: psi <= C phi^(2/beta) t^(4/beta).

    Evaluated in log space on the 1-D grid over t (flat profiles underflow
    long before the asymptotics show otherwise).  Also sweeps
    tau(t) = psi / (phi t^2), reporting its decay over three decades of t
    (the obstruction needs tau -> 0; unbounded tau is the regime the
    decomposition machinery leaves open).
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    if grid.dim != 1:
        raise ValueError("failure_condition_check sweeps a 1-D grid over t")
    p = params or FPhiPsiParams()
    t = ex.var(0)
    pts = grid.sample_points()
    ts = np.abs(pts[:, 0])
    keep = ts > 0
    pts, ts = pts[keep], ts[keep]
    log_phi = jets.eval_log_values(p.phi(t), pts)
    log_psi = jets.eval_log_values(p.psi_of(t), pts)
    log_ratio = log_psi - (2.0 / beta) * log_phi - (4.0 / beta) * np.log(ts)
    log_tau = log_psi - log_phi - 2.0 * np.log(ts)
    with np.errstate(over="ignore"):
        ratio = np.exp(log_ratio)
    rep = sampled_bound(
        "sos-failure-condition",
        ratio,
        np.ones_like(ratio),
        pts,
        params={"beta": beta},
        radii=ts,
    )
    t_hi = max(abs(grid.box[0][0]), abs(grid.box[0][1]))
    marks = np.array([[t_hi * 10.0**-k] for k in range(3)])
    tau_marks = (
        jets.eval_log_values(p.psi_of(t), marks)
        - jets.eval_log_values(p.phi(t), marks)
        - 2.0 * np.log(marks[:, 0])
    ) / math.log(10.0)
    decreasing = bool(np.all(np.diff(tau_marks) < 0))
    tau_sup_log = float(log_tau.max())
    rep.details.update(
        {
            "obstruction": "active" if rep.verdict == PASS else "inactive",
            "tau_log10_at_decades": {
                f"t={m[0]:g}": float(v) for m, v in zip(marks, tau_marks)
            },
            "tau_to_zero": decreasing and tau_marks[-1] < -6.0,
            "divergence_condition_fails": bool(
                tau_sup_log < math.log(DEFAULT_CMAX)),
            "log10_worst_ratio": float(log_ratio.max() / math.log(10.0)),
        }
    )
    return rep


# ---------------------------------------------------------------------------
# Small named examples and the block assemblies


def build_grushin_2x2(gamma=0.5):
    """[[1, g f], [g f, f^2]] with f = exp(-1/x^2): rank-two degenerate,
    a sum of two smooth dyads, never subordinate."""
    if not 0 < abs(gamma) < 1:
        raise ValueError("gamma must satisfy 0 < |gamma| < 1")
    f = ex.flat(ex.var(0))
    g = ex.const(gamma)
    return SymMatFun.from_rows(
        [[ex.ONE, ex.mul(g, f)], [ex.mul(g, f), ex.mul(f, f)]],
        nvars=1,
        tags=StructureTags(degenerate_axes=(0,)),
    )


def build_nondiag_noncomparable_2x2():
    """[[1, 1 - f], [1 - f, 1]]: positive definite off the origin but not
    comparable to any diagonal matrix function."""
    f = ex.flat(ex.var(0))
    off = ex.add(ex.ONE, ex.mul(ex.const(-1.0), f))
    return SymMatFun.from_rows([[ex.ONE, off], [off, ex.ONE]], nvars=1)


def _second_profile(t):
    return ex.flatabs(t)


def build_blocks(kind, params=None):
    """The three block assemblies built from the flat cylinder example.

    M7: blockdiag(I4, F) on 7 variables; the comparability pattern of the
        diagonal is (1, 1, 1, 1, f, f, f) with f the trace of F.
    N8: blockdiag(M7, G) on 8 variables, G built from a second flat
        profile exp(-1/|t|) incomparable with exp(-1/t^2); no admissible
        final block survives any permutation.
    P7: blockdiag(I5, diag(f, g)) with declared diagonal comparability
        pattern (1, 1, 1, 1, 1, f, g); defaults take radially flat f, g
        (any pair of elliptical flat smooth non-decomposable functions
        serves).
    """
    p = params or FPhiPsiParams()
    if kind == "M7":
        eye4 = SymMatFun.constant(np.eye(4), nvars=7)
        F = build_f_phi_psi(p)
        M = blockdiag([eye4, F], nvars=7,
                      tags=StructureTags(degenerate_axes=(0, 1, 2, 3)))
        return M
    if kind == "N8":
        M = build_blocks("M7", p)
        q = FPhiPsiParams(lam=p.lam, phi=_second_profile, window=p.window)
        G = build_f_phi_psi(q)
        return blockdiag([M, G], nvars=8,
                         tags=StructureTags(degenerate_axes=(0, 1, 2, 3)))
    if kind == "P7":
        prm = params if isinstance(params, dict) else {}
        r5sq = ex.add(*[ex.intpow(ex.var(i), 2) for i in range(5)])
        f = prm.get("f", ex.flat(ex.sqrt(r5sq)))
        g = prm.get("g", ex.flatabs(ex.sqrt(r5sq)))
        eye5 = SymMatFun.constant(np.eye(5), nvars=7)
        tail = SymMatFun.from_rows([[f, ex.ZERO], [ex.ZERO, g]], nvars=7)
        return blockdiag(
            [eye5, tail],
            nvars=7,
            tags=StructureTags(degenerate_axes=(0, 1, 2, 3, 4)),
        )
    raise ValueError(f"unknown block kind {kind!r}; use M7, N8 or P7")


def block_trace_comparability(M, grid):
    """M7 against blockdiag(I4, trace(F) I3): sampled bracket constants."""
    F = M.submatrix(range(4, 7))
    tr = ex.add(*[F.entry(i, i) for i in range(3)])
    pts, ok, vals, _, _ = M.sampled(grid)
    tvals, tok = jets.eval_values(tr, pts, nvars=M.nvars)
    use = ok & tok & (tvals > 1e-300)
    # B = ref^{-1/2} M ref^{-1/2} with ref = blockdiag(I4, trace(F) I3)
    d = np.ones((int(use.sum()), 7))
    d[:, 4:] = 1.0 / np.sqrt(tvals[use])[:, None]
    w, _ = _jacobi(vals[use] * d[:, :, None] * d[:, None, :], vectors=False)
    lhs = w[:, -1]
    rhs = np.where(w[:, 0] < 0.0, 0.0, w[:, 0])
    return sampled_bound(
        "block-trace-comparability",
        lhs,
        rhs,
        pts[use],
        excluded=int((~use).sum()),
    )


def incomparable_profiles_check(grid):
    """The two flat profiles of N8 have unbounded mutual ratio: the sampled
    sup of exp(-1/|t|) / exp(-1/t^2) diverges toward the origin."""
    t = ex.var(0)
    pts = grid.sample_points()
    la = jets.eval_log_values(ex.flatabs(t), pts)
    lb = jets.eval_log_values(ex.flat(t), pts)
    ratio = np.exp(np.minimum(la - lb, 700.0))
    return sampled_bound(
        "flat-profile-incomparability",
        ratio,
        np.ones_like(ratio),
        pts,
    )


# ---------------------------------------------------------------------------
# Catalog


@dataclass(frozen=True)
class GalleryItem:
    name: str
    anchor: str
    dimension: int
    nvars: int
    param_schema: dict
    build: callable
    default_grid: callable


def _grid1(scale=1.0, seed=0):
    return GridSpec(box=((-1.0, 1.0),), resolution=int(81 * scale) | 1,
                    exclude_radius=0.05, seed=seed)


def _grid2(scale=1.0, seed=0):
    return GridSpec(box=((-1.0, 1.0), (-1.0, 1.0)),
                    resolution=int(21 * scale) | 1, exclude_radius=0.05,
                    seed=seed)


def _grid3(scale=1.0, seed=0):
    return GridSpec(box=((-1.0, 1.0),) * 3, resolution=int(9 * scale) | 1,
                    exclude_radius=0.05, seed=seed)


def _grid4(scale=1.0, seed=0):
    from .grids import Exclusion

    return GridSpec(
        box=((-0.9, 0.9),) * 3 + ((-0.9, 0.9),),
        resolution=int(7 * scale) | 1,
        exclusions=(
            Exclusion(0.05, axes=(0, 1, 2)),
            Exclusion(0.2, axes=(3,)),
        ),
        seed=seed,
    )


def _grid7(scale=1.0, seed=0):
    return GridSpec(box=((-0.9, 0.9),) * 7, resolution=3, max_points=600,
                    exclude_radius=0.05, seed=seed)


def _grid8(scale=1.0, seed=0):
    return GridSpec(box=((-0.9, 0.9),) * 8, resolution=3, max_points=500,
                    exclude_radius=0.05, seed=seed)


GALLERY = {
    item.name: item
    for item in [
        GalleryItem(
            "block-M7",
            "identity block over a flat 3x3 tail; decomposable only down to"
            " the flat block",
            7, 7,
            {"lam": {"type": "number", "default": DEFAULT_LAMBDA}},
            lambda prm: build_blocks("M7", FPhiPsiParams(lam=prm.get("lam", DEFAULT_LAMBDA))),
            _grid7,
        ),
        GalleryItem(
            "block-N8",
            "two flat tails with incomparable profiles; no admissible final"
            " block under any permutation",
            10, 8,
            {"lam": {"type": "number", "default": DEFAULT_LAMBDA}},
            lambda prm: build_blocks("N8", FPhiPsiParams(lam=prm.get("lam", DEFAULT_LAMBDA))),
            _grid8,
        ),
        GalleryItem(
            "block-P7",
            "identity block over two incomparable scalar flats on the"
            " diagonal",
            7, 7,
            {},
            lambda prm: build_blocks("P7", prm),
            _grid7,
        ),
        GalleryItem(
            "f-phi-psi",
            "flat cylinder example: sharp off-diagonal differential bounds,"
            " obstruction to squares of C^{1,beta} fields",
            3, 4,
            {"lam": {"type": "number", "default": DEFAULT_LAMBDA}},
            lambda prm: build_f_phi_psi(FPhiPsiParams(lam=prm.get("lam", DEFAULT_LAMBDA))),
            _grid4,
        ),
        GalleryItem(
            "grushin-2x2",
            "rank-two degenerate matrix: sum of two smooth dyads, never"
            " subordinate",
            2, 1,
            {"gamma": {"type": "number", "default": 0.5}},
            lambda prm: build_grushin_2x2(prm.get("gamma", 0.5)),
            _grid1,
        ),
        GalleryItem(
            "nondiag-noncomparable-2x2",
            "positive definite off the origin yet comparable to no diagonal"
            " matrix function",
            2, 1,
            {},
            lambda prm: build_nondiag_noncomparable_2x2(),
            _grid1,
        ),
        GalleryItem(
            "q-lambda",
            "positive quadratic matrix family that is no sum of squares of"
            " linear matrix forms below the coupling threshold",
            3, 3,
            {"lam": {"type": "number", "default": DEFAULT_LAMBDA}},
            lambda prm: build_q_lambda(prm.get("lam", DEFAULT_LAMBDA)),
            _grid3,
        ),
        GalleryItem(
            "q-lambda-dehomogenized",
            "the quadratic family on the affine slice z = 1",
            3, 2,
            {"lam": {"type": "number", "default": DEFAULT_LAMBDA}},
            lambda prm: build_q_lambda_dehomogenized(prm.get("lam", DEFAULT_LAMBDA)),
            _grid2,
        ),
    ]
}


def list_gallery():
    """Stable, alphabetized catalog of the named examples."""
    out = []
    for name in sorted(GALLERY):
        item = GALLERY[name]
        out.append(
            {
                "name": item.name,
                "anchor": item.anchor,
                "dimension": item.dimension,
                "nvars": item.nvars,
                "params": item.param_schema,
            }
        )
    return out
