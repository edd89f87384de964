import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from matsos import expr as ex
from matsos import jets
from matsos.gallery import (
    FPhiPsiParams,
    GALLERY,
    LAMBDA_THRESHOLD,
    build_blocks,
    build_f_phi_psi,
    build_grushin_2x2,
    build_nondiag_noncomparable_2x2,
    build_q_lambda,
    build_q_lambda_dehomogenized,
    block_trace_comparability,
    failure_condition_check,
    incomparable_profiles_check,
    list_gallery,
    q_lambda_non_sos_certificate,
    q_lambda_positivity_certificate,
    _det_expansion,
    _q_lambda_values,
)
from matsos.grids import Exclusion, GridSpec
from matsos.verify import diag_elliptic_check, quasiconformal_check
from oracles import delta_nu_estimate, mp_values

rng = np.random.default_rng(5)


class TestQuadraticFamily:
    def test_axis_evaluation(self):
        A = build_q_lambda(0.02)
        v = A.value(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(np.diag(v), [1.0, 2.0, 0.02])
        assert np.allclose(v - np.diag(np.diag(v)), 0.0)

    def test_determinant_at_ones(self):
        lam = 0.37
        A = build_q_lambda(lam)
        v = A.value(np.array([1.0, 1.0, 1.0]))
        expect = lam**3 + 9 * lam**2 + 24 * lam + 16
        assert np.linalg.det(v) == pytest.approx(expect, rel=1e-12)

    def test_zero_coupling_determinant_vanishes_on_axes(self):
        A = build_q_lambda(1e-300)  # effectively the uncoupled form
        for axis in np.eye(3):
            v = A.value(axis * 0.7)
            assert abs(np.linalg.det(v)) < 1e-250

    def test_dehomogenization_is_slice_z_equals_one(self):
        lam = 0.05
        A3 = build_q_lambda(lam)
        A2 = build_q_lambda_dehomogenized(lam)
        for _ in range(10):
            x, y = rng.uniform(-1, 1, size=2)
            v3 = A3.value(np.array([x, y, 1.0]))
            v2 = A2.value(np.array([x, y]))
            assert np.allclose(v3, v2, rtol=1e-14)

    @pytest.mark.parametrize("lam", [0.005, 0.02, 0.3, 1.0, 3.7])
    def test_det_expansion_matches_direct(self, lam):
        W = rng.uniform(-2.0, 2.0, size=(10_000, 3))
        direct = np.linalg.det(_q_lambda_values(lam, W))
        disp = _det_expansion(lam, W)
        rel = np.abs(direct - disp) / np.maximum(1.0, np.abs(direct))
        assert rel.max() <= 1e-9

    def test_positivity_certificate(self):
        rep = q_lambda_positivity_certificate(0.02)
        assert rep.verdict == "pass"
        assert rep.params["sphere_count"] == 10_000
        assert all(v >= -1e-9 for v in rep.details["min_slacks"].values())
        assert rep.details["det_expansion_rel_error"] <= 1e-9


class TestNonSosCertificate:
    def test_inside_threshold(self):
        cert = q_lambda_non_sos_certificate(0.02)
        assert cert.bound == pytest.approx(3.6)
        assert cert.verdict == "not-SOS-of-linear-forms"
        assert cert.pinned["coupling_norms_sq"] == 0.02
        assert cert.pinned["mixed_dot_sums"] == -1.0

    def test_float_nearest_the_threshold_lies_below_it(self):
        # fl(2/81) < 2/81 exactly, so the obstruction holds there, although
        # 18 sqrt(2 lam) rounds to 4.0
        assert Fraction(LAMBDA_THRESHOLD) < Fraction(2, 81)
        cert = q_lambda_non_sos_certificate(2.0 / 81.0)
        assert cert.bound == 4.0
        assert cert.verdict == "not-SOS-of-linear-forms"

    def test_above_threshold(self):
        cert = q_lambda_non_sos_certificate(0.5)
        assert cert.bound == pytest.approx(18.0, rel=1e-12)
        assert cert.verdict == "inconclusive"

    def test_verdict_flips_at_threshold_up_to_floating_point(self):
        # decided on the exact value of lam: the flip lies between fl(2/81)
        # and the next float up
        below = math.nextafter(LAMBDA_THRESHOLD, 0.0)
        above = math.nextafter(LAMBDA_THRESHOLD, 1.0)
        for lam in (LAMBDA_THRESHOLD * (1.0 - 1e-12), below, LAMBDA_THRESHOLD):
            cert = q_lambda_non_sos_certificate(lam)
            assert cert.verdict == "not-SOS-of-linear-forms", lam
        for lam in (above, LAMBDA_THRESHOLD * (1.0 + 1e-12)):
            cert = q_lambda_non_sos_certificate(lam)
            assert cert.verdict == "inconclusive", lam
        assert Fraction(above) > Fraction(2, 81)
        # the float test of the bound read 4.0 on both sides of 2/81
        assert q_lambda_non_sos_certificate(below).bound == 4.0


class TestFlatCylinder:
    def test_window_vanishes_when_radius_below_t(self):
        # r <= |t| kills the window: F = phi(t) L + psi(t) I there
        Fm = build_f_phi_psi()
        lam = 0.02
        W = np.array([0.05, 0.02, 0.01])
        t = 0.5
        v = Fm.value(np.concatenate([W, [t]]))
        phi = math.exp(-1.0 / t**2)
        psi = (phi * t**2) ** 4
        from matsos.gallery import _q_lambda_values

        L = _q_lambda_values(lam, W[None, :])[0]
        assert np.allclose(v, phi * L + psi * np.eye(3), rtol=1e-12)

    def test_slice_t_zero_is_radial_identity(self):
        Fm = build_f_phi_psi()
        W = np.array([0.3, 0.2, -0.1])
        r = np.linalg.norm(W)
        v = Fm.value(np.concatenate([W, [0.0]]))
        assert np.allclose(v, math.exp(-1.0 / r**2) * np.eye(3), rtol=1e-12)

    def test_quadratic_part_scales_with_degree_two(self):
        # phi(t) L(t W) = phi(t) t^2 L(W): homogeneity of the quadratic part
        lam = 0.02
        from matsos.gallery import _q_lambda_values

        for _ in range(5):
            W = rng.uniform(-0.5, 0.5, size=3)
            t = rng.uniform(0.1, 0.9)
            lhs = _q_lambda_values(lam, (t * W)[None, :])[0]
            rhs = t**2 * _q_lambda_values(lam, W[None, :])[0]
            assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_diag_elliptical_on_punctured_cylinder(self):
        Fm = build_f_phi_psi()
        g = GridSpec(
            box=((-0.9, 0.9),) * 4,
            resolution=7,
            exclude_radius=0.1,
        )
        rep = diag_elliptic_check(Fm, g)
        assert rep.verdict == "pass"


class TestFailureCondition:
    def tgrid(self):
        return GridSpec(box=((0.003, 0.9),), resolution=300, exclude_radius=0.0)

    def test_matched_exponent_gives_unit_ratio(self):
        rep = failure_condition_check(None, 0.5, self.tgrid())
        assert rep.verdict == "pass"
        assert rep.worst_ratio == pytest.approx(1.0, rel=1e-9)
        assert rep.details["obstruction"] == "active"
        assert rep.details["tau_to_zero"]

    def test_larger_beta_ratio_decays(self):
        rep = failure_condition_check(None, 0.9, self.tgrid())
        assert rep.verdict == "pass"
        assert rep.worst_ratio <= 1.0 + 1e-9
        assert rep.details["obstruction"] == "active"

    def test_tau_identically_one_is_inactive(self):
        p = FPhiPsiParams(psi=lambda t: ex.mul(ex.flat(t), ex.intpow(t, 2)))
        rep = failure_condition_check(p, 0.5, self.tgrid())
        assert rep.verdict == "fail"
        assert rep.details["obstruction"] == "inactive"
        assert not rep.details["tau_to_zero"]

    def test_beta_range(self):
        with pytest.raises(ValueError):
            failure_condition_check(None, 1.0, self.tgrid())


class TestDeltaNu:
    """The approximation-gap oracle that acceptance criterion 7 reads."""

    def L(self):
        return build_q_lambda(0.02)

    def test_zero_forms_positive(self):
        val = delta_nu_estimate(self.L(), 0, sphere_count=500)
        assert val > 0
        # dense-sphere oracle: min over many samples of the Frobenius norm
        from matsos.gallery import _fibonacci_sphere, _q_lambda_values

        W = _fibonacci_sphere(4000)
        oracle = np.linalg.norm(_q_lambda_values(0.02, W), axis=(1, 2)).min()
        assert val == pytest.approx(oracle, rel=0.01)

    def test_monotone_nonincreasing_and_nonnegative(self):
        vals = [
            delta_nu_estimate(self.L(), k, sphere_count=200, multistarts=4,
                              seed=3)
            for k in range(4)
        ]
        assert all(v >= 0 for v in vals)
        assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(3))

    def test_scaling_under_exact_power_of_two(self):
        # c = 4: sqrt(c) = 2 is exact, so the scaled searches follow
        # bit-identical trajectories and delta scales linearly
        L = self.L()
        L4 = type(L).from_rows(
            [[ex.mul(ex.const(4.0), L.entry(i, j)) for j in range(3)]
             for i in range(3)],
            nvars=3,
        )
        kw = dict(sphere_count=200, multistarts=3, seed=1)
        v1 = delta_nu_estimate(L, 2, c0=4.0, **kw)
        v4 = delta_nu_estimate(L4, 2, c0=8.0, **kw)
        assert v4 == pytest.approx(4.0 * v1, rel=1e-9)


class TestSmallExamples:
    def test_grushin_builder(self):
        A = build_grushin_2x2(0.5)
        t = 0.4
        f = math.exp(-1.0 / t**2)
        v = A.value(np.array([t]))
        assert np.allclose(v, [[1.0, 0.5 * f], [0.5 * f, f * f]], rtol=1e-14)
        with pytest.raises(ValueError):
            build_grushin_2x2(1.0)

    def test_noncomparable_builder(self):
        A = build_nondiag_noncomparable_2x2()
        v = A.value(np.array([0.5]))
        c = 1.0 - math.exp(-4.0)
        assert v[0, 1] == pytest.approx(c, rel=1e-14)


class TestBlocks:
    def test_m7_shape_and_identity_block(self):
        M = build_blocks("M7")
        assert M.n == 7 and M.nvars == 7
        v = M.value(np.array([0.2, 0.1, 0.3, 0.5, 0.0, 0.0, 0.0]))
        assert np.allclose(v[:4, :4], np.eye(4))

    def test_m7_trace_comparability(self):
        M = build_blocks("M7")
        g = GridSpec(box=((-0.9, 0.9),) * 7, resolution=3, max_points=300,
                     exclude_radius=0.3, seed=2)
        rep = block_trace_comparability(M, g)
        assert rep.verdict == "pass"

    def test_n8_incomparable_profiles(self):
        g = GridSpec(box=((0.01, 0.9),), resolution=200, exclude_radius=0.0)
        rep = incomparable_profiles_check(g)
        assert rep.verdict == "fail"
        assert rep.worst_ratio > 1e6

    def test_n8_shape(self):
        N = build_blocks("N8")
        assert N.n == 10 and N.nvars == 8

    def test_p7_quasiconformal_fails(self):
        P = build_blocks("P7")
        g = GridSpec(box=((-0.9, 0.9),) * 7, resolution=3, max_points=300,
                     exclude_radius=0.3, seed=2)
        assert diag_elliptic_check(P, g).verdict == "pass"
        # eigenvalue ratio 1/f blows up along a ray into the degeneracy
        ray = GridSpec(
            box=((-0.9, 0.9),) * 7,
            points=tuple(
                (r, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
                for r in (0.5, 0.35, 0.25, 0.18, 0.12)
            ),
        )
        rep = quasiconformal_check(P, ray)
        assert rep.verdict == "fail"
        assert rep.worst_ratio > 1e6

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_blocks("Q9")


class TestCatalog:
    def test_required_items_present(self):
        names = [item["name"] for item in list_gallery()]
        for required in [
            "q-lambda",
            "q-lambda-dehomogenized",
            "f-phi-psi",
            "block-M7",
            "block-N8",
            "block-P7",
            "grushin-2x2",
            "nondiag-noncomparable-2x2",
        ]:
            assert required in names

    def test_alphabetized_and_stable(self):
        names = [item["name"] for item in list_gallery()]
        assert names == sorted(names)
        assert list_gallery() == list_gallery()

    def test_entries_carry_anchor_strings(self):
        for item in list_gallery():
            assert isinstance(item["anchor"], str) and item["anchor"]

    def test_builders_produce_declared_shapes(self):
        for item in list_gallery():
            A = GALLERY[item["name"]].build({})
            assert A.n == item["dimension"]
            assert A.nvars == item["nvars"]


class TestBlockPipelineConsistency:
    def test_m7_decomposes_down_to_the_flat_block(self):
        """Peeling the four unit columns of the block example succeeds and
        leaves exactly the flat 3x3 tail as the residual."""
        from matsos.verify import decomposition_pipeline

        M = build_blocks("M7")
        g = GridSpec(box=((-0.9, 0.9),) * 7, resolution=3, max_points=400,
                     exclude_radius=0.25, seed=3)
        res = decomposition_pipeline(M, 5, 0.3, 0.1, 0.2, g)
        assert res.decomposition.residual.n == 3
        hard = [r for r in res.reports
                if r.condition != "residual-subordinaticity-gate"]
        assert all(r.verdict != "fail" for r in hard)
        # the residual is the flat block itself: same values at samples
        F = build_f_phi_psi()
        pts = g.sample_points()[:40]
        rv, rok = res.decomposition.residual.values(pts)
        fv, fok = F.values(pts[:, :4])
        assert np.allclose(rv[rok & fok], fv[rok & fok], rtol=1e-10)


class TestSharpnessFailureDirection:
    def test_offdiag_bounds_degrade_off_the_certified_region(self):
        """The off-diagonal families hold on the stated grid (radii bounded
        away from the degenerate axis) but break at radii r^2 ~ psi/(lam
        phi), where the isotropic part takes over the diagonal scale: the
        certified region in the acceptance grid is not an artifact."""
        F = build_f_phi_psi()
        pts = []
        for t in (0.13, 0.15, 0.17):
            phi = math.exp(-1.0 / t**2)
            psi = (phi * t**2) ** 4
            rstar = math.sqrt(psi / (0.02 * phi))
            x = rstar / math.sqrt(2.0)
            pts.append((x, x, 0.0, t))
        g = GridSpec(box=((-1, 1),) * 4, points=tuple(pts))
        from matsos.verify import strong_check

        rep_hi = strong_check(F, 3, 0.3, 0.01, 0.01, g)
        assert rep_hi.details["family_verdicts"]["offdiag-inner-power-bound"] == "fail"
        # the zero-order ratio alone flips sign across eps = 1/4 at these
        # points: psi^(1/2 - 2 eps) explodes for eps > 1/4 and decays below
        a12, _ = jets.eval_values(F.entry(0, 1), np.array(pts))
        a11, _ = jets.eval_values(F.entry(0, 0), np.array(pts))
        hi = np.abs(a12) / a11 ** (0.5 + 2 * 0.3 + 0.01)
        lo = np.abs(a12) / a11 ** (0.5 + 2 * 0.2 + 0.01)
        assert (hi > 1e6).all()
        assert (lo < 1e-5).all()


def test_positivity_determinant_bound_is_sharp_on_the_axis():
    # at (0, 0, 1) the determinant equals the lower bound 2 lam exactly
    lam = 0.02
    v = build_q_lambda(lam).value(np.array([0.0, 0.0, 1.0]))
    assert np.linalg.det(v) == pytest.approx(2.0 * lam, rel=1e-12)


# Exact nonzero entry values that the doubles flush to 0, per item, at the
# points of the test below: the flat profiles underflow near the degenerate
# set.  Exact arithmetic through the flat regime would drive these to 0.
FLUSHED_TO_ZERO = {
    "block-M7": 213,
    "block-N8": 213,
    "block-P7": 25,
    "f-phi-psi": 180,
    "grushin-2x2": 48,
    "nondiag-noncomparable-2x2": 0,
    "q-lambda": 0,
    "q-lambda-dehomogenized": 0,
}


def _shell_points(name, nvars, per_shell=8):
    """`per_shell` seeded directions on each shell |x| = 2^-1 .. 2^-7."""
    rnd = random.Random(name)
    pts = []
    for k in range(1, 8):
        for _ in range(per_shell):
            d = np.array([rnd.gauss(0.0, 1.0) for _ in range(nvars)])
            pts.append(d * (2.0 ** -k / np.linalg.norm(d)))
    return np.array(pts)


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_entry_values_match_mpmath_on_dyadic_shells(name):
    """Every distinct entry of a gallery item, evaluated by
    `jets.eval_values` on dyadic shells around the origin, is valid exactly
    where mpmath at 60 digits defines it, and agrees with it to 1e-12
    relative wherever the double is normal; the exact nonzeros it flushes
    to 0 are counted in FLUSHED_TO_ZERO."""
    A = GALLERY[name].build({})
    roots = list(dict.fromkeys(e for _, e in A.upper_entries()))
    pts = _shell_points(name, A.nvars)
    got = [jets.eval_values(e, pts, nvars=A.nvars) for e in roots]
    flushed = compared = 0
    for p, x in enumerate(pts):
        exact = mp_values(roots, x.tolist(), 60)
        for e, (values, valid), want in zip(roots, got, exact):
            assert valid[p] == (want is not None), (e, x)
            v = values[p]
            if want is None:
                continue
            flushed += v == 0 and want != 0
            if abs(v) >= sys.float_info.min:
                compared += 1
                assert abs(v - float(want)) <= 1e-12 * abs(v), (e, x)
    assert compared >= len(pts)
    assert flushed == FLUSHED_TO_ZERO[name]
