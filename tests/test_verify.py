import numpy as np
import pytest

import oracles
from matsos import expr as ex
from matsos import gallery, jets, monotone, verify
from matsos.decompose import ScalarSosBackend, default_delta_prime, one_sd
from matsos.grids import GridSpec
from matsos.matfun import Sampled, SymMatFun
from matsos.report import dump_report, run_config
from matsos.reporting import sampled_bound
from matsos.verify import (
    HypothesisRefusal,
    RESIDUAL_GATE,
    decomposition_pipeline,
    diag_elliptic_check,
    quasiconformal_check,
    scalar_sos_hypothesis_check,
    strong_check,
    subordinate_check,
    _active_masks,
)

X = ex.var(0)
F = ex.flat(X)


def grid1(**kw):
    kw.setdefault("box", ((-1.0, 1.0),))
    kw.setdefault("resolution", 81)
    kw.setdefault("exclude_radius", 0.05)
    return GridSpec(**kw)


def grushin(gamma=0.5):
    g = ex.const(gamma)
    return SymMatFun.from_rows([[ex.ONE, g * F], [g * F, F * F]], nvars=1)


class TestDiagElliptic:
    def test_positive_diagonal_passes_with_unit_bracket(self):
        A = SymMatFun.from_rows(
            [[X**2 + ex.const(0.1), ex.ZERO], [ex.ZERO, ex.exp(X)]], nvars=1
        )
        rep = diag_elliptic_check(A, grid1())
        assert rep.verdict == "pass"
        assert rep.details["beta"] == pytest.approx(1.0)
        assert rep.details["alpha"] == pytest.approx(1.0)

    def test_flat_coupling_fails(self):
        off = ex.ONE - F
        A = SymMatFun.from_rows([[ex.ONE, off], [off, ex.ONE]], nvars=1)
        rep = diag_elliptic_check(A, grid1())
        assert rep.verdict == "fail"

    def test_quadratic_family_passes(self):
        from matsos.gallery import build_q_lambda

        A = build_q_lambda(0.02)
        g = GridSpec(box=((-1, 1),) * 3, resolution=9, exclude_radius=0.05)
        rep = diag_elliptic_check(A, g)
        assert rep.verdict == "pass"

    def test_grushin_passes_with_gamma_bracket(self):
        rep = diag_elliptic_check(grushin(0.5), grid1())
        assert rep.verdict == "pass"
        assert rep.details["beta"] == pytest.approx(0.5, rel=1e-6)
        assert rep.details["alpha"] == pytest.approx(1.5, rel=1e-6)

    def test_pd_witness_is_first_in_grid_order_across_active_sets(self):
        # a coupling b > 1 breaks positivity near x = -0.4 and x = 0.8; the
        # third diagonal entry is flat (and dropped) only near x = 0.8, so
        # the failing samples fall into two active-index sets, and the set
        # holding the later failures sorts first
        def bump(c):
            return ex.exp(ex.const(-20.0) * (X - ex.const(c)) ** 2)

        b = ex.const(1.5) * (bump(-0.4) + bump(0.8))
        h = ex.flat(X - ex.const(0.8))
        A = SymMatFun.from_rows(
            [[ex.ONE, b, ex.ZERO], [b, ex.ONE, ex.ZERO], [ex.ZERO, ex.ZERO, h]],
            nvars=1,
        )
        g = grid1()
        pts = g.sample_points()
        vals, _ = A.values(pts)
        keep, ok = _active_masks(vals)
        assert ok.all() and len(np.unique(keep, axis=0)) == 2
        x = pts[:, 0]
        bx = 1.5 * (np.exp(-20 * (x + 0.4) ** 2) + np.exp(-20 * (x - 0.8) ** 2))
        failing = np.flatnonzero(bx >= 1.0)
        assert (~keep[failing, 2]).any() and keep[failing[0], 2]
        rep = diag_elliptic_check(A, g)
        assert rep.verdict == "fail"
        assert rep.details["reason"] == "not-positive-definite"
        assert rep.witness == pts[failing[0]].tolist()
        assert rep.details["min_eigenvalue"] == pytest.approx(1.0 - bx[failing[0]])
        assert rep.counts == {"evaluated": len(pts), "excluded": 0}


class TestSubordinate:
    def test_smooth_diagonal_passes(self):
        A = SymMatFun.from_rows(
            [[X**2, ex.ZERO], [ex.ZERO, ex.ONE + X**2]], nvars=1
        )
        rep = subordinate_check(A, grid1())
        assert rep.verdict == "pass"
        assert rep.details["verdict_agreement"]

    def test_grushin_fails_with_large_ratio_on_stated_band(self):
        g = GridSpec(box=((-0.3, 0.3),), resolution=101, exclude_radius=0.05)
        rep = subordinate_check(grushin(0.5), g)
        assert rep.verdict == "fail"
        assert rep.worst_ratio > 1e3
        assert rep.details["verdict_agreement"]

    def test_quadratic_family_passes(self):
        from matsos.gallery import build_q_lambda

        g = GridSpec(box=((-1, 1),) * 3, resolution=9, exclude_radius=0.05)
        rep = subordinate_check(build_q_lambda(0.02), g)
        assert rep.verdict == "pass"
        assert rep.details["verdict_agreement"]

    def test_equivalence_on_diag_elliptical_instances(self):
        """Quadratic-form and entrywise verdicts agree whenever the
        diagonal-comparability check passes (both computed independently)."""
        instances = [
            grushin(0.3),
            grushin(0.7),
            SymMatFun.from_rows(
                [[ex.ONE, ex.mul(ex.const(0.4), F, F)],
                 [ex.mul(ex.const(0.4), F, F), F * F]], nvars=1),
            SymMatFun.constant(np.array([[2.0, 0.3], [0.3, 1.0]]), nvars=1),
        ]
        for A in instances:
            if diag_elliptic_check(A, grid1()).verdict != "pass":
                continue
            rep = subordinate_check(A, grid1())
            assert rep.details["verdict_agreement"], rep.to_json_dict()


class TestStrongCheck:
    def test_constant_diagonal_is_vacuous(self):
        A = SymMatFun.constant(np.eye(2), nvars=1)
        rep = strong_check(A, 1, 0.3, 0.05, 0.05, grid1())
        assert rep.verdict == "pass"
        d = rep.details["diagonal-power-bound"]
        assert d["worst_ratio"] == 0.0

    def test_flat_diagonal_passes(self):
        # a_kk = exp(-2/x^2) passes the diagonal family on |x| in [0.05, 1]
        A = SymMatFun.from_rows([[ex.intpow(F, 2)]], nvars=1)
        rep = strong_check(A, 1, 0.3, 0.05, 0.05, grid1())
        assert rep.details["family_verdicts"]["diagonal-power-bound"] == "pass"

    def test_quadratic_diagonal_fails(self):
        # second derivative of x^2 is 2 while (x^2)^(delta') vanishes at 0
        A = SymMatFun.from_rows([[X**2 + ex.mul(X, X)]], nvars=1)
        rep = strong_check(A, 1, 0.3, 0.05, 0.05, grid1())
        assert rep.details["family_verdicts"]["diagonal-power-bound"] == "fail"

    def test_epsilon_range(self):
        A = SymMatFun.constant(np.eye(2), nvars=1)
        with pytest.raises(ValueError):
            strong_check(A, 1, 1.0, 0.05, 0.05, grid1())
        with pytest.raises(ValueError):
            strong_check(A, 3, 0.3, 0.05, 0.05, grid1())
        # the sharpness regime below 1/4 stays expressible
        rep = strong_check(A, 1, 0.2, 0.05, 0.05, grid1())
        assert rep.verdict == "pass"

    def test_epsilon_monotonicity_of_diagonal_family(self):
        """On samples with base <= 1, a diagonal-family pass at eps1
        implies a pass at every eps2 > eps1 (the exponent shrinks while
        the base stays below one)."""
        A = SymMatFun.from_rows(
            [[ex.intpow(F, 2), ex.ZERO], [ex.ZERO, ex.ONE]], nvars=1
        )
        worst = {}
        for eps in (0.3, 0.5, 0.75, 0.9):
            rep = strong_check(A, 1, eps, 0.05, 0.05, grid1())
            fam = rep.details["diagonal-power-bound"]
            assert fam["verdict"] == "pass"
            worst[eps] = fam["worst_ratio"]
        assert worst[0.5] <= worst[0.3] + 1e-12
        assert worst[0.75] <= worst[0.5] + 1e-12

    def test_offdiag_family_controls_coupling(self):
        # a12 = f^3 against m2 = f^2: passes every exponent family
        f3 = ex.intpow(F, 3)
        A = SymMatFun.from_rows(
            [[ex.ONE, f3], [f3, ex.intpow(F, 2)]], nvars=1
        )
        rep = strong_check(A, 2, 0.25, 0.1, 0.05, grid1())
        assert rep.details["family_verdicts"]["offdiag-inner-power-bound"] == "pass"

    def test_offdiag_violation_detected(self):
        # a12 = 0.5 f against m1 = f^2: |a12| >> (f^2)^(1/2 + 2 eps + d'')
        A = SymMatFun.from_rows(
            [[ex.intpow(F, 2), ex.mul(ex.const(0.5), F)],
             [ex.mul(ex.const(0.5), F), ex.ONE]], nvars=1
        )
        rep = strong_check(A, 1, 0.25, 0.1, 0.05, grid1())
        assert rep.details["family_verdicts"]["offdiag-cross-power-bound"] == "fail"


class TestStrongPropagation:
    """If the strong families hold at (ell, ...) for A, they hold at
    (ell - 1, ...) for the Schur complement of one peel."""

    def instances(self):
        g = ex.intpow(F, 2)
        out = []
        out.append(
            SymMatFun.from_rows(
                [[g, ex.intpow(F, 4), ex.ZERO],
                 [ex.intpow(F, 4), g, ex.ZERO],
                 [ex.ZERO, ex.ZERO, ex.ONE]],
                nvars=1,
            )
        )
        out.append(
            SymMatFun.from_rows(
                [[ex.ONE, ex.intpow(F, 3), ex.ZERO],
                 [ex.intpow(F, 3), g, ex.ZERO],
                 [ex.ZERO, ex.ZERO, g]],
                nvars=1,
            )
        )
        return out

    @pytest.mark.parametrize("idx", [0, 1])
    def test_inheritance(self, idx):
        A = self.instances()[idx]
        eps, dp, dpp = 0.25, 0.1047, 0.15
        g = grid1(resolution=61, exclude_radius=0.1)
        rep = strong_check(A, 2, eps, dp, dpp, g)
        assert rep.verdict == "pass", rep.details["family_verdicts"]
        _, Q = one_sd(A, g)
        repq = strong_check(Q, 1, eps, dp, dpp, g)
        assert repq.verdict == "pass", repq.details["family_verdicts"]


class TestAuxReciprocalBound:
    def test_reciprocal_derivatives_follow_inverse_power(self):
        """For a pivot passing the diagonal family, |D^g (1/a11)| stays
        within a11^(-1 - |g| eps + delta') over the grid."""
        a11 = ex.intpow(F, 2)
        eps, dp = 0.25, 0.1047
        g = GridSpec(box=((-1.0, 1.0),), resolution=41, exclude_radius=0.2)
        pts = g.sample_points()
        jb = jets.eval_jet_batch(ex.recip(a11), pts, order=4)
        base, _ = jets.eval_values(a11, pts)
        ok = ~jb.invalid
        for m in range(1, 5):
            lhs = jb.max_abs_of_order(m)[ok]
            rhs = base[ok] ** (-1.0 - m * eps + dp)
            rep = sampled_bound(f"aux-order-{m}", lhs, rhs, pts[ok])
            assert rep.verdict == "pass", (m, rep.worst_ratio)


class TestScalarSosHypotheses:
    def test_flat_profile_passes(self):
        rep = scalar_sos_hypothesis_check(ex.intpow(F, 2), 0.1, grid1())
        assert rep.verdict == "pass"

    def test_polynomial_fails_toward_origin(self):
        rep = scalar_sos_hypothesis_check(X**2, 0.5, grid1())
        assert rep.verdict == "fail"

    def test_zero_region_excluded_not_failed(self):
        # identically zero function: all samples are 0/0, never failures
        rep = scalar_sos_hypothesis_check(ex.ZERO, 0.1, grid1())
        assert rep.verdict == "inconclusive-by-flatness"
        assert rep.counts["excluded"] > 0

    def test_delta_range(self):
        with pytest.raises(ValueError):
            scalar_sos_hypothesis_check(X**2, 1.5, grid1())


class TestQuasiconformal:
    def test_single_entry_block(self):
        Q = SymMatFun.from_rows([[F * F]], nvars=1)
        rep = quasiconformal_check(Q, grid1())
        assert rep.verdict == "pass"
        assert rep.details["K"] == pytest.approx(1.0)

    def test_shifted_identity_plus_quadratic(self):
        from matsos.gallery import build_q_lambda

        L = build_q_lambda(0.02)
        entries = {}
        for i in range(3):
            for j in range(i, 3):
                e = L.entry(i, j)
                if i == j:
                    e = e + ex.const(0.5)
                entries[(i, j)] = e
        Q = SymMatFun(3, 3, entries)
        g = GridSpec(box=((-1, 1),) * 3, resolution=7, exclude_radius=0.05)
        rep = quasiconformal_check(Q, g)
        assert rep.verdict == "pass"

    def test_flat_direction_fails(self):
        Q = SymMatFun.from_rows([[ex.ONE, ex.ZERO], [ex.ZERO, F]], nvars=1)
        rep = quasiconformal_check(Q, grid1())
        assert rep.verdict == "fail"

    def test_counts_stop_at_first_negative_eigenvalue(self):
        # f (x + 1/2) is flat (excluded) at x = -0.525, -0.5, -0.475; the
        # block turns negative from x = 0.525 on: the 57 samples before it,
        # less the 3 flat ones, plus the failing one are evaluated
        f = ex.flat(X + ex.const(0.5))
        Q = SymMatFun.from_rows(
            [[f, ex.ZERO], [ex.ZERO, f * (ex.const(0.5) - X)]], nvars=1
        )
        rep = quasiconformal_check(Q, grid1())
        assert rep.verdict == "fail"
        assert rep.details["reason"] == "negative-eigenvalue"
        assert rep.witness == pytest.approx([0.525])
        assert rep.counts == {"evaluated": 55, "excluded": 3}

    def test_reference_bracket(self):
        Q = SymMatFun.from_rows([[ex.mul(ex.const(0.75), F, F)]], nvars=1)
        rep = quasiconformal_check(Q, grid1(), reference=ex.mul(F, F))
        sub = rep.details["residual-pivot-comparability-lower"]
        assert sub["details"]["beta"] == pytest.approx(0.75, rel=1e-9)


def _passed(res):
    """No hard failure in a pipeline result: a failed residual gate only
    withholds the subordinaticity claim (the exit-code rule of
    `report.run_config`)."""
    return all(r.verdict != "fail" for r in res.reports
               if r.condition != RESIDUAL_GATE)


class TestPipeline:
    def test_grushin_end_to_end(self):
        res = decomposition_pipeline(grushin(0.5), 2, 0.25, 0.1, 0.2, grid1())
        assert _passed(res)
        names = [r.condition for r in res.reports]
        assert "diagonal-comparability" in names
        assert "quasiconformal" in names
        assert res.decomposition.certificates["reconstruction_residual"] <= 1e-10

    def test_refusal_names_offdiagonal_family(self):
        A = SymMatFun.from_rows(
            [[ex.intpow(F, 2), ex.mul(ex.const(0.5), F), ex.ZERO],
             [ex.mul(ex.const(0.5), F), ex.ONE, ex.ZERO],
             [ex.ZERO, ex.ZERO, ex.ONE]],
            nvars=1,
        )
        with pytest.raises(HypothesisRefusal) as info:
            decomposition_pipeline(A, 2, 0.25, 0.1, 0.2, grid1())
        assert "offdiag" in info.value.failed_family
        assert info.value.reports

    def test_no_peel_runs_quasiconformal_only(self):
        A = SymMatFun.constant(np.array([[2.0, 0.2], [0.2, 1.0]]), nvars=1)
        res = decomposition_pipeline(A, 1, 0.25, 0.1, 0.2, grid1())
        names = [r.condition for r in res.reports]
        assert names == ["diagonal-comparability", "quasiconformal"]
        assert res.decomposition.residual is A

    def test_tail_comparability_refusal(self):
        A = SymMatFun.from_rows(
            [[ex.ONE, ex.ZERO, ex.ZERO],
             [ex.ZERO, ex.ONE, ex.ZERO],
             [ex.ZERO, ex.ZERO, F * F]],
            nvars=1,
        )
        with pytest.raises(HypothesisRefusal) as info:
            decomposition_pipeline(A, 2, 0.25, 0.1, 0.2, grid1())
        assert info.value.failed_family == "pivot-tail-comparability"

    def test_subordinate_residual_claimed_when_gate_passes(self):
        # diagonal blocks all flat-comparable: the strong families hold
        # through depth p, so the residual's subordinaticity is certified
        g2 = ex.intpow(F, 2)
        A = SymMatFun.from_rows(
            [[ex.ONE, ex.ZERO], [ex.ZERO, g2]], nvars=1
        )
        res = decomposition_pipeline(A, 2, 0.25, 0.1, 0.2, grid1())
        names = [r.condition for r in res.reports]
        assert RESIDUAL_GATE in names
        reports = {r.condition: r for r in res.reports}
        assert reports[RESIDUAL_GATE].verdict == "pass"
        assert "subordinate" in names
        assert reports["subordinate"].verdict == "pass"
        assert _passed(res)

    def test_epsilon_range_enforced(self):
        with pytest.raises(ValueError):
            decomposition_pipeline(grushin(0.5), 2, 0.1, 0.1, 0.2, grid1())


def test_scalar_sos_hypotheses_exclude_flat_subregion():
    """A profile vanishing identically on part of the domain: those samples
    are excluded by flatness, the live region still gets checked."""
    b = ex.bump(X)
    f = ex.intpow(b, 2)
    g = GridSpec(box=((-2.0, 2.0),), resolution=41, exclude_radius=0.0)
    rep = scalar_sos_hypothesis_check(f, 0.3, g)
    assert rep.counts["excluded"] > 0
    assert rep.counts["evaluated"] > 0


@pytest.mark.parametrize("name, grids", [
    ("q-lambda", [None, {"resolution": 5}, {"resolution": 11}]),
    ("block-M7", [None, {"max_points": 150}, {"max_points": 900}]),
])
def test_checkers_solve_whole_stacks(name, grids, monkeypatch):
    """A gallery run makes a few stacked eigensolves, however many samples
    its grid has: no checker loops over the samples one solve at a time."""
    from matsos import decompose, gallery, symmat, verify
    from matsos.report import run_config

    solve = symmat._jacobi
    calls = []

    def counting(a, vectors=True):
        calls.append(a.shape)
        return solve(a, vectors)

    for mod in (symmat, verify, decompose, gallery):
        monkeypatch.setattr(mod, "_jacobi", counting)
    counts, points = [], []
    for grid in grids:
        calls.clear()
        cfg = {"version": 1, "matrix": {"gallery": name},
               "pipeline": "gallery", "seed": 0}
        if grid is not None:
            cfg["grid"] = grid
        report, _ = run_config(cfg)
        counts.append(len(calls))
        points.append(report["counts"]["grid_points"])
    assert len(set(points)) == len(points)
    assert max(counts) <= 4


def test_seminorm_family_without_estimates_is_inconclusive():
    """A seminorm family with pairs but no usable sample has no estimate;
    it was reported as a pass with worst 0.0 and made the whole check
    pass on a matrix that is undefined everywhere."""
    A = SymMatFun.from_rows([[ex.sqrt(-1 - X * X), X], [X, 1 + X * X]],
                            nvars=1)
    rep = strong_check(A, 1, 0.3, 0.01, 0.01, grid1())
    fams = rep.details["family_verdicts"]
    for cond in ("diagonal-seminorm-bound", "offdiag-cross-seminorm-bound"):
        assert fams[cond] == "inconclusive-by-flatness"
        assert rep.details[cond]["worst_ratio"] is None
        assert rep.details[cond]["counts"]["evaluated"] == 0
    assert fams["offdiag-inner-seminorm-bound"] == "pass"  # no pairs
    assert rep.verdict == "inconclusive-by-flatness"
    assert rep.worst_ratio is None
    assert rep.counts["evaluated"] == 0


def _loop_reductions(monkeypatch):
    """Swap the stacked reductions for their loop forms; returns the list
    of the reductions called."""
    calls = []

    def spy(name, fn):
        def run(*args):
            calls.append(name)
            return fn(*args)
        return run

    monkeypatch.setattr(verify, "_power_family",
                        spy("power", oracles.power_family_loop))
    monkeypatch.setattr(verify, "ladder_maxima",
                        spy("maxima", oracles.ladder_maxima_loop))
    monkeypatch.setattr(verify, "_seminorm_family",
                        spy("seminorm", oracles.seminorm_family_loop))
    monkeypatch.setattr(monotone, "_seminorms",
                        spy("holder", oracles.seminorms_loop))
    return calls


@pytest.mark.parametrize("pipeline", ["gallery", "all", "decompose"])
@pytest.mark.parametrize("name", sorted(gallery.GALLERY))
def test_stacked_reductions_equal_their_loops(name, pipeline, monkeypatch):
    """The reports of every gallery item, on its default grid, equal bit
    for bit those of the loop forms of the power, ladder, seminorm and
    Holder reductions (tests/oracles.py).  block-M7 peels at p = 5, as in the
    benchmark, so that its run reaches all three."""
    cfg = {"version": 1, "matrix": {"gallery": name}, "pipeline": pipeline}
    if name == "block-M7":
        cfg["params"] = {"p": 5, "epsilon": 0.3}
    report, code = run_config(cfg)
    del report["timing"]
    want = dump_report(report)
    calls = _loop_reductions(monkeypatch)
    report, loop_code = run_config(cfg)
    del report["timing"]
    assert (dump_report(report), loop_code) == (want, code)
    if (name, pipeline) in (("block-M7", "all"), ("grushin-2x2", "gallery")):
        assert set(calls) == {"power", "maxima", "seminorm", "holder"}


def _ladder_rows(rng, centers, pairs, nexpr, nmu, scales):
    """Hand-made ladders (Y, Z) around `centers` and `jets.eval_ladders`
    rows (inv_y, inv_z, dy, dz) on them, the rows of center c scaled by
    scales[c]."""
    C, dim = centers.shape
    Y = centers[:, None] + rng.uniform(-0.1, 0.1, (C, pairs, dim))
    Z = centers[:, None] + rng.uniform(-0.1, 0.1, (C, pairs, dim))
    Z[:, 0] = Y[:, 0]  # a zero separation, never used
    scale = np.asarray(scales)[:, None]
    return Y, Z, (np.zeros((nexpr, C, pairs), bool),
                  np.zeros((nexpr, C, pairs), bool),
                  scale * rng.normal(size=(nexpr, nmu, C, pairs)),
                  scale * rng.normal(size=(nexpr, nmu, C, pairs)))


def _same_report(a, b):
    return repr(a.to_json_dict()) == repr(b.to_json_dict())


def test_stacked_seminorms_keep_the_loop_witness_on_ties_and_inf():
    """The stacked seminorm reductions equal their loops (tests/oracles.py)
    on a tie between centers, an inf estimate and a NaN estimate: the
    witness is the first center of the worst estimate, and a NaN estimate
    never becomes the worst."""
    rng = np.random.default_rng(7)
    centers = rng.uniform(-0.5, 0.5, (3, 2))
    Y, Z, rows = _ladder_rows(rng, centers, 9, 4, 3, (1.0, 1.0, 1e-3))
    inv_y, inv_z, dy, dz = rows
    dy[2, 1, 0, 4] = dz[2, 1, 0, 4] = np.inf   # inf - inf: a NaN estimate
    # center 1 has center 0's ladder and rows: a tie
    for a in (Y, Z):
        a[1] = a[0]
    for a in (dy, dz):
        a[:, :, 1] = a[:, :, 0]
    inv_y[1, 2, 3] = True                      # one failed sample of entry 1
    inv_z[3, 2, :] = True                      # entry 3 fails everywhere

    def both(entries, two_delta):
        est, live = monotone.ladder_maxima(Y, Z, inv_y | inv_z, dy, dz,
                                           two_delta)
        want = oracles.ladder_maxima_loop(Y, Z, inv_y | inv_z, dy, dz,
                                          two_delta)
        assert all(np.array_equal(g, w, equal_nan=True)
                   for g, w in zip((est, live), want))
        args = ("diagonal-seminorm-bound", entries, centers, est, live,
                two_delta)
        got = verify._seminorm_family(*args)
        assert _same_report(got, oracles.seminorm_family_loop(*args))
        return got

    for two_delta in (0.4, 1.0):
        got = both([0, 1, 2, 3], two_delta)
        assert got.witness == centers[0].tolist()
        assert np.isfinite(got.worst_ratio)
        assert got.counts["evaluated"] == 3 * 4 * 3 - 3
    # an inf estimate at the last center is the worst
    dy[2, 0, 2, 5] = np.inf
    got = both([1, 2], 0.5)
    assert (got.verdict, got.worst_ratio) == ("fail", np.inf)
    assert got.witness == centers[2].tolist()
    # the Holder reduction over two orders, with failed expressions
    tables = [rows, _ladder_rows(rng, centers, 9, 4, 2, (1.0,) * 3)[2]]
    got = monotone._seminorms(Y, Z, tables, 0.5)
    assert got == oracles.seminorms_loop(Y, Z, tables, 0.5)
    assert all(e is not None and np.isfinite(e) for e in got[0])
    assert (got[2][1], got[2][2], got[2][3]) == (None, np.inf, None)


def _stack_cases():
    """(lhs, rhs, pts, radii, drop) stacks of K families over U samples,
    built to break a stacked reduction: worst-ratio ties across samples
    and families, inf and NaN ratios, flat and dropped entries, zero radii,
    fewer than three shells, and no samples or no families at all."""
    rng = np.random.default_rng(5)
    K, U = 4, 30
    pts = rng.normal(size=(U, 3))
    pts *= 2.0 ** -rng.uniform(0, 6, (U, 1)) / np.linalg.norm(pts, axis=1,
                                                              keepdims=True)
    pts[0] = 0.0                                   # a zero radius
    r = np.linalg.norm(pts, axis=1)
    base = np.maximum(r, 1e-3) ** rng.uniform(-1.5, 0.5, (K, 1))
    lhs = base * rng.uniform(0.5, 1.0, (K, U))
    rhs = np.ones((K, U))
    none = np.zeros((K, U), bool)
    tie = lhs.copy()
    tie[[3, 1, 1], [2, 9, 4]] = 1e3                # ties: first at (1, 4)
    inf = rhs.copy()
    inf[[2, 0], [5, 11]] = [0.0, -1.0]             # inf ratios
    nan = lhs.copy()
    nan[1, 3] = np.nan
    flat = lhs.copy()
    flat[:, ::3] = 1e-310                          # flat where rhs is too
    flat_rhs = np.where(flat < 1e-300, 0.0, rhs)
    drop = rng.random((K, U)) < 0.3
    drop[[3, 1, 1], [2, 9, 4]] = False
    two = np.where(r < 0.5, 0.3, 0.9)              # two shells only
    yield lhs, rhs, pts, None, none
    yield tie, rhs, pts, None, none
    yield tie, rhs, pts, r, drop
    yield lhs, inf, pts, None, drop
    yield nan, rhs, pts, r, none
    yield flat, flat_rhs, pts, None, drop
    yield flat, flat_rhs, pts, np.zeros(U), none
    yield lhs, rhs, pts, two, none
    yield lhs, rhs, pts, two, drop
    yield np.zeros((K, U)), np.zeros((K, U)), pts, None, none
    yield lhs[:, :0], rhs[:, :0], pts[:0], None, none[:, :0]
    yield lhs[:0], rhs[:0], pts, r, none[:0]


@pytest.mark.parametrize("case", range(12))
def test_stacked_sampled_bound_equals_its_flat_form(case):
    """`sampled_bound` of (K, U) stacks over U samples equals its flat form
    (tests/oracles.py), which takes every entry with its own point and
    radius, and drops the entries that the stack zeroes."""
    lhs, rhs, pts, radii, drop = list(_stack_cases())[case]
    K, U = lhs.shape
    sample = np.tile(np.arange(U), K)[~drop.reshape(-1)]
    want = oracles.flat_sampled_bound(
        "c", lhs[~drop], rhs[~drop], pts[sample],
        radii=None if radii is None else radii[sample],
        excluded=3 + int(drop.sum()), params={"p": 1})
    got = sampled_bound("c", np.where(drop, 0.0, lhs),
                        np.where(drop, 0.0, rhs), pts, radii=radii,
                        excluded=3, params={"p": 1})
    assert _same_report(got, want)
    assert (got.counts["evaluated"] == 0) is (case >= 9)
    if case in (1, 2):
        assert (got.worst_ratio, got.witness) == (1e3, pts[4].tolist())
    if case == 3:
        assert got.worst_ratio == np.inf


def test_sampled_bound_refuses_sides_that_do_not_stack():
    pts = np.zeros((4, 2))
    for lhs, rhs, radii in ((np.ones((2, 4)), np.ones((2, 3)), None),
                            (np.ones((2, 3)), np.ones((2, 3)), None),
                            (np.ones((2, 4)), np.ones((2, 4)), np.ones(3))):
        with pytest.raises(ValueError):
            sampled_bound("c", lhs, rhs, pts, radii=radii)


def test_stacked_power_family_equals_its_loop():
    """`verify._power_family` equals its loop (tests/oracles.py) on bases
    above 1, underflowed bases against flat and non-flat derivatives,
    negative and NaN bases, and invalid samples."""
    rng = np.random.default_rng(11)
    S, n, nv = 40, 3, 2
    pts = rng.uniform(-1.0, 1.0, (S, nv))
    valid = rng.random(S) > 0.2
    dmax = 10.0 ** rng.uniform(-320, 3, (5, S, n, n))
    dmax = np.maximum(dmax, dmax.transpose(0, 1, 3, 2))
    rec = Sampled(pts, valid, None, None, dmax)
    U = int(valid.sum())
    base = 10.0 ** np.where(rng.random((U, n)) < 0.5,
                            rng.uniform(-320, -280, (U, n)),
                            rng.uniform(-3, 1, (U, n)))
    base[:3, 0] = [-1e-3, np.nan, 0.0]
    for pairs, table in ([(0, 0), (1, 1), (2, 2)], base),  \
                        ([(0, 1), (0, 2), (1, 2)], base[:, [0, 0, 1]]):
        for epsilon in (0.3, 0.2):
            got = verify._power_family("diagonal-power-bound", pairs, table,
                                       rec, epsilon, 0.05)
            want = oracles.power_family_loop("diagonal-power-bound", pairs,
                                             table, rec, epsilon, 0.05)
            assert _same_report(got, want)
            assert got.details["pinned_base_gt1"] > 0
            assert got.counts["excluded"] > int((~valid).sum())


def test_library_pipeline_evaluates_each_pair_ladder_row_once(monkeypatch):
    """`decomposition_pipeline` called by a library, outside `run_config`,
    opens no run table: its second `strong_check` reads the pair-ladder
    rows that the matrix keeps from the first instead of evaluating them
    again."""
    A = gallery.GALLERY["block-M7"].build({})
    grid = GridSpec(box=((-0.9, 0.9),) * 7, resolution=9, max_points=40,
                    exclude_radius=0.25)
    stacks = set()
    eval_ladders = jets.eval_ladders

    def ladder_call(exprs, Y, Z, order, nvars, support):
        stacks.update((Y.tobytes(), Z.tobytes()))
        return eval_ladders(exprs, Y, Z, order, nvars, support)

    evaluate = jets._evaluate
    seen = {}

    def counted(exprs, points, sp, memo, consume=None):
        assert jets._RUN_TABLE.get() is None
        side = points.tobytes()
        for expr in {id(e): e for e in exprs}.values():
            if side in stacks and not (memo and id(expr) in memo):
                key = (id(expr), side, sp)
                seen[key] = expr, seen.get(key, (expr, 0))[1] + 1
        return evaluate(exprs, points, sp, memo, consume)

    monkeypatch.setattr(jets, "eval_ladders", ladder_call)
    monkeypatch.setattr(jets, "_evaluate", counted)
    res = decomposition_pipeline(A, 5, 0.3, 0.1, 0.2, grid)
    # both strong checks ran
    assert RESIDUAL_GATE in [r.condition for r in res.reports]
    orders = {sp.order for _, _, sp in seen}
    assert orders == {2, 4}
    assert seen and max(n for _, n in seen.values()) == 1
    assert jets._RUN_TABLE.get() is None
