"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Exact algebraic identities and closed-form certificates are
asserted tightly; sampled inequality verification reports lower-bound
estimates at the tolerances fixed here.
"""

import math
import time

import numpy as np
import pytest

from matsos import expr as ex
from matsos import jets
from matsos.decompose import (
    ScalarSosBackend,
    assemble_vector_fields,
    iterated_sd,
    one_sd,
    residual_dyads,
)
from matsos.gallery import (
    build_q_lambda,
    failure_condition_check,
    q_lambda_non_sos_certificate,
    q_lambda_positivity_certificate,
)
from matsos.grids import Exclusion, GridSpec
from matsos.matfun import SymMatFun
from matsos.verify import (
    RESIDUAL_GATE,
    decomposition_pipeline,
    strong_check,
    subordinate_check,
)

from oracles import (delta_nu_estimate, dict_convolve, embed_tail, func_of,
                     richardson_derivative, schur_gamma)

rng = np.random.default_rng(0xACCE)


def announce(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def grid1(**kw):
    kw.setdefault("box", ((-1.0, 1.0),))
    kw.setdefault("resolution", 41)
    kw.setdefault("exclude_radius", 0.05)
    return GridSpec(**kw)


def random_psd(n, min_corner=0.1):
    a = rng.normal(size=(n, n))
    m = a @ a.T
    if m[0, 0] < min_corner:
        m[0, 0] += min_corner
    return m


def test_criterion_1_one_sd_reconstruction():
    """100 random 5x5 PSD constants with a11 >= 0.1: max-norm reconstruction
    error <= 1e-12, total runtime < 1 s."""
    t0 = time.perf_counter()
    grid = grid1(resolution=5)
    worst = 0.0
    pt = np.array([[0.25]])
    for _ in range(100):
        m = random_psd(5)
        A = SymMatFun.constant(m, nvars=1)
        Z, Q = one_sd(A, grid)
        zv = np.array([jets.eval_values(z, pt)[0][0] for z in Z])
        qv, _ = embed_tail(Q, 5).values(pt)
        recon = np.outer(zv, zv) + qv[0]
        worst = max(worst, float(np.abs(m - recon).max()))
    elapsed = time.perf_counter() - t0
    announce(
        1,
        "one-step reconstruction",
        worst <= 1e-12 and elapsed < 1.0,
        f"max error {worst:.2e}, runtime {elapsed:.2f}s",
    )


def test_criterion_2_schur_inheritance():
    """20 random diagonally elliptical constants with gamma <= 0.9: the
    Schur complement is PSD with q_ii / a_ii in [(1-gamma^2)/2 - 1e-9,
    1 + 1e-9] entrywise."""
    grid = grid1(resolution=5)
    ok = True
    detail = ""
    for _ in range(20):
        n = int(rng.integers(3, 7))
        d = rng.uniform(0.3, 2.0, size=n)
        m = np.diag(d)
        b = rng.normal(size=n - 1)
        quad = b @ np.linalg.solve(m[1:, 1:], b)
        gamma_target = rng.uniform(0.2, 0.9)
        b *= math.sqrt(gamma_target**2 * m[0, 0] / quad)
        m[0, 1:] = m[1:, 0] = b
        gamma = schur_gamma(m)
        assert gamma <= 0.9 + 1e-12
        Z, Q = one_sd(SymMatFun.constant(m, nvars=1), grid)
        qv, _ = Q.values(np.array([[0.0]]))
        w = np.linalg.eigvalsh(qv[0])
        ratios = np.diag(qv[0]) / d[1:]
        lo = (1.0 - gamma**2) / 2.0 - 1e-9
        if w[0] < -1e-10 or (ratios < lo).any() or (ratios > 1.0 + 1e-9).any():
            ok = False
            detail = f"gamma={gamma:.3f}, ratios={ratios}"
            break
    announce(2, "Schur-complement diagonal inheritance", ok, detail)


def test_criterion_3_quadratic_family_certificates():
    """Closed-form certificates of the quadratic family: obstruction bound
    18 sqrt(2 lam), decided on the exact lam (fl(2/81) lies below 2/81, the
    next float up above it), minor bounds at 1e4 sphere samples with slack
    >= -1e-9, determinant expansion to 1e-9 relative, under 5 s."""
    t0 = time.perf_counter()
    c_in = q_lambda_non_sos_certificate(0.02)
    c_bd = q_lambda_non_sos_certificate(2.0 / 81.0)
    c_out = q_lambda_non_sos_certificate(math.nextafter(2.0 / 81.0, 1.0))
    pos = q_lambda_positivity_certificate(0.02)
    elapsed = time.perf_counter() - t0
    ok = (
        c_in.bound == pytest.approx(3.6)
        and c_in.verdict == "not-SOS-of-linear-forms"
        and c_bd.bound == pytest.approx(4.0)
        and c_bd.verdict == "not-SOS-of-linear-forms"
        and c_out.verdict == "inconclusive"
        and pos.verdict == "pass"
        and pos.counts["evaluated"] == 10_000
        and pos.details["det_expansion_rel_error"] <= 1e-9
        and all(v >= -1e-9 for v in pos.details["min_slacks"].values())
        and elapsed < 5.0
    )
    announce(
        3,
        "quadratic-family certificates",
        ok,
        f"bound {c_in.bound}, det rel err "
        f"{pos.details['det_expansion_rel_error']:.2e}, runtime {elapsed:.2f}s",
    )


def _grushin(gamma=0.5):
    f = ex.flat(ex.var(0))
    g = ex.const(gamma)
    return SymMatFun.from_rows([[ex.ONE, g * f], [g * f, f * f]], nvars=1)


def test_criterion_4_subordinaticity():
    """Subordinaticity: passes on the quadratic family and smooth diagonal
    matrices, fails on the rank-two flat example with worst ratio > 1e3 on
    |x| in [0.05, 0.3], and the quadratic-form and entrywise verdicts agree
    on every diagonally elliptical test instance."""
    g3 = GridSpec(box=((-1, 1),) * 3, resolution=9, exclude_radius=0.05)
    rep_q = subordinate_check(build_q_lambda(0.02), g3)
    x = ex.var(0)
    diag = SymMatFun.from_rows(
        [[x**2, ex.ZERO], [ex.ZERO, ex.ONE + x**2]], nvars=1
    )
    rep_d = subordinate_check(diag, grid1())
    band = GridSpec(box=((-0.3, 0.3),), resolution=101, exclude_radius=0.05)
    rep_g = subordinate_check(_grushin(0.5), band)
    agree = all(
        subordinate_check(A, grid1()).details["verdict_agreement"]
        for A in (
            _grushin(0.5),
            _grushin(0.8),
            diag,
            SymMatFun.constant(random_psd(3) + 3 * np.eye(3), nvars=1),
        )
    ) and rep_q.details["verdict_agreement"]
    ok = (
        rep_q.verdict == "pass"
        and rep_d.verdict == "pass"
        and rep_g.verdict == "fail"
        and rep_g.worst_ratio > 1e3
        and agree
    )
    announce(
        4,
        "subordinaticity characterization",
        ok,
        f"flat example worst ratio {rep_g.worst_ratio:.3g}",
    )


def test_criterion_5_grushin_end_to_end():
    """Pipeline on the rank-two example with unit corner: fields (1, g f),
    residual (1-g^2) f^2, reconstruction <= 1e-10 at 1e3 samples, residual
    quasiconformal with K = 1, matching the two-dyad form."""
    gamma = 0.5
    A = _grushin(gamma)
    grid = GridSpec(box=((-1.0, 1.0),), resolution=1001, exclude_radius=0.05)
    res = decomposition_pipeline(A, 2, 0.25, 0.1, 0.2, grid)
    dec = res.decomposition
    pts = grid.sample_points()
    assert len(pts) >= 1000 - 60
    fvals, _ = jets.eval_values(ex.flat(ex.var(0)), pts)
    X1 = dec.fields[0][0]
    x0, _ = jets.eval_values(X1[0], pts)
    x1, _ = jets.eval_values(X1[1], pts)
    field_ok = (
        np.abs(x0 - 1.0).max() <= 1e-12
        and np.abs(x1 - gamma * fvals).max() <= 1e-12 * (1 + fvals.max())
    )
    qv, _ = jets.eval_values(dec.residual.entry(0, 0), pts)
    resid_ok = np.abs(qv - (1 - gamma**2) * fvals**2).max() <= 1e-12
    dyads, _ = residual_dyads(dec, ScalarSosBackend(), grid)
    dv, _ = jets.eval_values(dyads[0][1], pts)
    dyad_ok = (
        np.abs(dv - math.sqrt(1 - gamma**2) * fvals).max()
        <= 1e-10 * (1 + fvals.max())
    )
    recon = dec.certificates["reconstruction_residual"]
    reports = {r.condition: r for r in res.reports}
    K = reports["quasiconformal"].details["K"]
    ok = (
        all(r.verdict != "fail" for r in res.reports
            if r.condition != RESIDUAL_GATE)
        and field_ok
        and resid_ok
        and dyad_ok
        and recon <= 1e-10
        and K == pytest.approx(1.0)
    )
    announce(
        5,
        "rank-two example end-to-end",
        ok,
        f"reconstruction {recon:.2e}, K={K}",
    )


def test_criterion_6_sharpness_inequalities():
    """The flat cylinder example: off-diagonal families pass at eps = 0.2
    (delta'' = 0.01) and diagonal families at eps = 0.3 (delta' = 0.01) on
    the grid |t| in [0.2, 0.9], r in [0.05, 0.9]; the failure condition at
    beta = 1/2 reports unit ratio, with tau decaying over three decades."""
    from matsos.gallery import build_f_phi_psi

    F = build_f_phi_psi()
    grid = GridSpec(
        box=((-0.9, 0.9),) * 3 + ((-0.9, 0.9),),
        resolution=7,
        exclusions=(Exclusion(0.05, axes=(0, 1, 2)), Exclusion(0.2, axes=(3,))),
    )
    rep_diag = strong_check(F, 3, 0.3, 0.01, 0.01, grid)
    fams_d = rep_diag.details["family_verdicts"]
    rep_off = strong_check(F, 3, 0.2, 0.01, 0.01, grid)
    fams_o = rep_off.details["family_verdicts"]
    diag_ok = (
        fams_d["diagonal-power-bound"] == "pass"
        and fams_d["diagonal-seminorm-bound"] == "pass"
    )
    off_ok = (
        fams_o["offdiag-inner-power-bound"] == "pass"
        and fams_o["offdiag-inner-seminorm-bound"] == "pass"
        and fams_o["offdiag-cross-power-bound"] == "pass"
    )
    tgrid = GridSpec(box=((0.003, 0.9),), resolution=300, exclude_radius=0.0)
    rep_f = failure_condition_check(None, 0.5, tgrid)
    taus = list(rep_f.details["tau_log10_at_decades"].values())
    tau_ok = (
        rep_f.verdict == "pass"
        and rep_f.worst_ratio == pytest.approx(1.0, rel=1e-9)
        and rep_f.details["tau_to_zero"]
        and len(taus) == 3
    )
    announce(
        6,
        "sharpness inequality families",
        diag_ok and off_ok and tau_ok,
        f"failure-condition ratio {rep_f.worst_ratio}",
    )


def test_criterion_7_property_suite():
    """Jets vs finite differences (rel err <= 1e-6, orders <= 3, away from
    singularities); exact truncated product rule; strong-family inheritance
    through one peel wherever it holds at ell >= 2; approximation-gap
    estimates nonnegative and monotone in the number of forms."""
    X, Y = ex.var(0), ex.var(1)
    battery = [
        (ex.exp(X * Y), [0.4, -0.3], 2),
        (ex.flat(X) * ex.bump(Y), [0.5, 0.2], 2),
        (ex.recip(ex.const(1.0) + X**2) + ex.sqrt(ex.const(2.0) + X), [0.6], 1),
        (ex.flatabs(X) + ex.intpow(ex.const(1.5) + X, -2), [0.45], 1),
    ]
    fd_ok = True
    for expr, point, nv in battery:
        jet = jets.eval_jet(expr, point, order=3, nvars=nv)
        f = func_of(expr, nv)
        for mu, val in jet.table().items():
            if sum(mu) > 3:
                continue
            fd = richardson_derivative(f, point, mu, h0=2e-2)
            scale = max(abs(val), abs(fd))
            if abs(val - fd) > max(1e-6 * scale, 5e-8):
                fd_ok = False

    jf = jets.eval_jet(ex.exp(X * Y) + X**3, [0.3, -0.7], 4, nvars=2)
    jg = jets.eval_jet(ex.sqrt(ex.const(2.0) + X) * Y, [0.3, -0.7], 4, nvars=2)
    jfg = jets.eval_jet(
        (ex.exp(X * Y) + X**3) * (ex.sqrt(ex.const(2.0) + X) * Y),
        [0.3, -0.7],
        4,
        nvars=2,
    )
    conv = dict_convolve(jf.table(), jg.table(), order=4)
    prod_ok = all(
        abs(v - conv[mu]) <= 1e-13 * max(1.0, abs(v))
        for mu, v in jfg.table().items()
    )

    F = ex.flat(ex.var(0))
    g2 = ex.intpow(F, 2)
    instances = [
        SymMatFun.from_rows(
            [[g2, ex.intpow(F, 4), ex.ZERO],
             [ex.intpow(F, 4), g2, ex.ZERO],
             [ex.ZERO, ex.ZERO, ex.ONE]],
            nvars=1,
        ),
        SymMatFun.from_rows(
            [[ex.ONE, ex.intpow(F, 3), ex.ZERO],
             [ex.intpow(F, 3), g2, ex.ZERO],
             [ex.ZERO, ex.ZERO, g2]],
            nvars=1,
        ),
    ]
    grid = GridSpec(box=((-1.0, 1.0),), resolution=61, exclude_radius=0.1)
    inherit_ok = True
    checked = 0
    for A in instances:
        rep = strong_check(A, 2, 0.25, 0.1047, 0.15, grid)
        if rep.verdict != "pass":
            continue
        checked += 1
        _, Q = one_sd(A, grid)
        if strong_check(Q, 1, 0.25, 0.1047, 0.15, grid).verdict != "pass":
            inherit_ok = False
    inherit_ok = inherit_ok and checked >= 2

    L = build_q_lambda(0.02)
    vals = [
        delta_nu_estimate(L, k, sphere_count=200, multistarts=3, seed=7)
        for k in range(4)
    ]
    delta_ok = all(v >= 0 for v in vals) and all(
        vals[i + 1] <= vals[i] + 1e-12 for i in range(3)
    )

    announce(
        7,
        "property suite",
        fd_ok and prod_ok and inherit_ok and delta_ok,
        f"gap estimates {['%.3f' % v for v in vals]}",
    )
