import dataclasses
import math

import numpy as np
import pytest

from matsos import decompose
from matsos import expr as ex
from matsos import jets
from matsos.decompose import (
    PivotError,
    ScalarSosBackend,
    assemble_vector_fields,
    default_delta_prime,
    iterated_sd,
    one_sd,
    residual_dyads,
    scalar_sos,
)
from matsos.grids import GridSpec
from matsos.matfun import SymMatFun
from matsos.verify import diag_elliptic_check
from oracles import embed_tail, schur_gamma, sign_cell_sos

X = ex.var(0)
rng = np.random.default_rng(11)


def grid1(**kw):
    kw.setdefault("box", ((-1.0, 1.0),))
    kw.setdefault("resolution", 41)
    kw.setdefault("exclude_radius", 0.05)
    return GridSpec(**kw)


def grushin(gamma=0.5):
    f = ex.flat(X)
    g = ex.const(gamma)
    return SymMatFun.from_rows(
        [[ex.ONE, g * f], [g * f, f * f]], nvars=1
    )


def eval_matrix(A, pts):
    vals, ok = A.values(pts)
    assert ok.all()
    return vals


class TestOneSd:
    def test_identity(self):
        Z, Q = one_sd(SymMatFun.constant(np.eye(4), nvars=1), grid1())
        pt = np.array([[0.2]])
        zv = [jets.eval_values(z, pt)[0][0] for z in Z]
        assert zv == [1.0, 0.0, 0.0, 0.0]
        qv = eval_matrix(Q, pt)[0]
        assert np.allclose(qv, np.eye(3))

    def test_constant_example(self):
        A = SymMatFun.constant([[4.0, 2.0], [2.0, 5.0]], nvars=1)
        Z, Q = one_sd(A, grid1())
        pt = np.array([[0.0]])
        assert [jets.eval_values(z, pt)[0][0] for z in Z] == [2.0, 1.0]
        assert eval_matrix(Q, pt)[0][0, 0] == 4.0

    def test_grushin_schur_complement(self):
        A = grushin(0.5)
        Z, Q = one_sd(A, grid1())
        t = 0.37
        pt = np.array([[t]])
        f = math.exp(-1.0 / t**2)
        zv = [jets.eval_values(z, pt)[0][0] for z in Z]
        assert zv[0] == 1.0
        assert zv[1] == pytest.approx(0.5 * f, rel=1e-14)
        assert eval_matrix(Q, pt)[0][0, 0] == pytest.approx(0.75 * f * f, rel=1e-13)

    def test_exact_reconstruction_identity(self):
        A = grushin(0.7)
        Z, Q = one_sd(A, grid1())
        pts = grid1().sample_points()
        av = eval_matrix(A, pts)
        zv = np.stack(
            [jets.eval_values(z, pts)[0] for z in Z], axis=1
        )
        qv = eval_matrix(embed_tail(Q, 2), pts)
        recon = zv[:, :, None] * zv[:, None, :] + qv
        assert np.abs(av - recon).max() <= 1e-10 * (1 + np.abs(av).max())

    def test_vanishing_pivot_is_error(self):
        A = SymMatFun.from_rows([[X**2, ex.ZERO], [ex.ZERO, ex.ONE]], nvars=1)
        bad = GridSpec(box=((-1, 1),), resolution=21, exclude_radius=0.0)
        with pytest.raises(PivotError):
            one_sd(A, bad)

    def test_negative_pivot_is_error(self):
        A = SymMatFun.from_rows([[-ex.ONE, ex.ZERO], [ex.ZERO, ex.ONE]], nvars=1)
        with pytest.raises(PivotError):
            one_sd(A, grid1())

    def test_flat_pivot_excluded_not_failed(self):
        # pivot f^2 underflows near the origin: those samples are excluded
        f = ex.flat(X)
        A = SymMatFun.from_rows([[f * f, ex.ZERO], [ex.ZERO, ex.ONE]], nvars=1)
        g = GridSpec(box=((-1, 1),), resolution=81, exclude_radius=0.01)
        Z, Q = one_sd(A, g)  # no PivotError
        assert Q.n == 1


class TestIteratedSd:
    def test_diagonal_peeling(self):
        D = SymMatFun.constant(np.diag([4.0, 9.0, 25.0]), nvars=1)
        dec = iterated_sd(D, 3, grid1())
        pt = np.array([[0.5]])
        z1 = [jets.eval_values(z, pt)[0][0] for z in dec.peel_vectors[0]]
        z2 = [jets.eval_values(z, pt)[0][0] for z in dec.peel_vectors[1]]
        assert z1 == [2.0, 0.0, 0.0]
        assert z2 == [0.0, 3.0, 0.0]
        assert eval_matrix(dec.residual, pt)[0][0, 0] == 25.0
        assert dec.certificates["reconstruction_residual"] <= 1e-12

    def test_determinant_chain(self):
        # det A = a11 * det Q at every sample, the bordered-determinant
        # identity applied to the decomposition
        a = rng.normal(size=(4, 4))
        A = SymMatFun.constant(a @ a.T + 4.0 * np.eye(4), nvars=1)
        Z, Q = one_sd(A, grid1())
        pt = np.array([[0.3]])
        av = eval_matrix(A, pt)[0]
        qv = eval_matrix(Q, pt)[0]
        assert np.linalg.det(av) == pytest.approx(
            av[0, 0] * np.linalg.det(qv), rel=1e-9
        )

    def test_grushin_residual_certificates(self):
        dec = iterated_sd(grushin(0.5), 2, grid1())
        assert dec.certificates["reconstruction_residual"] <= 1e-10
        br = dec.certificates["residual_bracket"]
        assert br["beta"] == pytest.approx(0.75, rel=1e-6)
        assert br["alpha"] == pytest.approx(0.75, rel=1e-6)

    def test_peel_bracket_constants_finite(self):
        dec = iterated_sd(grushin(0.5), 2, grid1())
        zk = dec.certificates["peel_brackets"][0]
        assert 0 < zk["c"] and np.isfinite(zk["C"])

    def test_p_range(self):
        D = SymMatFun.constant(np.eye(3), nvars=1)
        with pytest.raises(ValueError):
            iterated_sd(D, 1, grid1())
        with pytest.raises(ValueError):
            iterated_sd(D, 5, grid1())
        dec = iterated_sd(D, 4, grid1())  # full peel, empty residual
        assert dec.residual.n == 0

    @pytest.mark.parametrize("trial", range(10))
    def test_reconstruction_holds_for_every_permutation(self, trial):
        a = rng.normal(size=(4, 4))
        A = SymMatFun.constant(a @ a.T + 2.0 * np.eye(4), nvars=1)
        perm = rng.permutation(4).tolist()
        Ap = A.submatrix(perm)
        dec = iterated_sd(Ap, 3, grid1())
        assert dec.certificates["reconstruction_residual"] <= 1e-12

    def test_peeling_is_order_sensitive(self):
        A = SymMatFun.constant(
            np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]]),
            nvars=1,
        )
        pt = np.array([[0.0]])
        d1 = iterated_sd(A, 2, grid1())
        d2 = iterated_sd(A.submatrix([1, 0, 2]), 2, grid1())
        z1 = [jets.eval_values(z, pt)[0][0] for z in d1.peel_vectors[0]]
        z2 = [jets.eval_values(z, pt)[0][0] for z in d2.peel_vectors[0]]
        assert not np.allclose(z1, z2)


class TestSchurDiagonalInheritance:
    """Diagonal ellipticity survives one peel, with the sampled pivot
    ratios q_ii / a_ii inside [(1 - gamma^2)/2, 1]."""

    @pytest.mark.parametrize("trial", range(20))
    def test_schur_diag_ratio_bracket(self, trial):
        n = int(rng.integers(3, 7))
        d = rng.uniform(0.5, 3.0, size=n)
        A = np.diag(d).astype(float)
        b = rng.normal(size=n - 1)
        D = A[1:, 1:]
        quad = b @ np.linalg.solve(D, b)
        target = rng.uniform(0.1, 0.81)  # gamma^2 <= 0.81
        b *= math.sqrt(target * A[0, 0] / quad)
        A[0, 1:] = b
        A[1:, 0] = b
        gamma = schur_gamma(A)
        assert gamma <= 0.9 + 1e-9
        Af = SymMatFun.constant(A, nvars=1)
        Z, Q = one_sd(Af, grid1())
        qv = eval_matrix(Q, np.array([[0.0]]))[0]
        w = np.linalg.eigvalsh(qv)
        assert w[0] >= -1e-12
        ratios = np.diag(qv) / d[1:]
        lo = (1.0 - gamma**2) / 2.0
        assert (ratios >= lo - 1e-9).all()
        assert (ratios <= 1.0 + 1e-9).all()

    def test_diag_ellipticity_inherited_for_flat_instance(self):
        A = grushin(0.5)
        Z, Q = one_sd(A, grid1())
        rep = diag_elliptic_check(Q, grid1())
        assert rep.verdict == "pass"


class TestScalarSos:
    def test_constant(self):
        res = scalar_sos(ex.const(4.0), ScalarSosBackend(), grid1())
        assert len(res.factors) == 1
        assert jets.eval_jet(res.factors[0], [0.1], 0).value == 2.0

    def test_flat_square_has_exact_smooth_root(self):
        f = ex.intpow(ex.flat(X), 2)  # exp(-2/x^2)
        res = scalar_sos(f, ScalarSosBackend(delta=0.1, epsilon=0.25), grid1())
        g = res.factors[0]
        t = 0.4
        assert jets.eval_jet(g, [t], 0).value == pytest.approx(
            math.exp(-1.0 / t**2), rel=1e-14
        )
        assert res.report.verdict == "pass"
        assert res.report.params["symbolic"]
        assert res.report.details["sos_identity_residual"] <= 1e-10

    def test_quartic_root_is_square_but_hessian_bound_fails(self):
        # sqrt(x^4) = x^2 is smooth, yet |Hess t| = 2 against E^(d^2/(2+d))
        # diverges toward the origin: reported honestly as a failure
        res = scalar_sos(ex.intpow(X, 4), ScalarSosBackend(delta=0.3), grid1())
        g = res.factors[0]
        assert jets.eval_jet(g, [0.5], 0).value == pytest.approx(0.25)
        hess = res.report.details["factor-hessian-bound"]
        assert hess["verdict"] == "fail"

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            scalar_sos(-ex.ONE, ScalarSosBackend(), grid1())

    def test_negativity_guard_is_relative(self):
        with pytest.raises(ValueError):
            scalar_sos(ex.const(-1e-13) * (ex.ONE + X**2), ScalarSosBackend(),
                       grid1())
        res = scalar_sos(ex.const(1e-20) * (ex.ONE + X**2), ScalarSosBackend(),
                         grid1())
        assert res.report.details["sos_identity_residual"] <= 1e-12

    def test_split_backend_exact_identity(self, monkeypatch):
        # a two-factor split of the residual of grushin-2x2: its two
        # residual dyads (0, t_i) square-sum to the residual
        monkeypatch.setattr(decompose, "scalar_sos", sign_cell_sos)
        g = grid1()
        dec = iterated_sd(grushin(0.6), 2, g)
        dyads, _ = residual_dyads(dec, ScalarSosBackend(), g)
        assert len(dyads) == 2
        pts = g.sample_points()
        total = np.zeros(len(pts))
        for zero, t in dyads:
            assert zero is ex.ZERO
            v, ok = jets.eval_values(t, pts)
            assert ok.all()
            total += v**2
        qv, _ = jets.eval_values(dec.residual.entry(0, 0), pts)
        assert np.abs(total - qv).max() <= 1e-12 * (1 + np.abs(qv).max())

    def test_default_delta_prime_formula(self):
        d = 0.1
        assert ScalarSosBackend(delta=d).dprime == pytest.approx(
            2 * d * (1 + d) / (2 + d)
        )
        assert default_delta_prime(d) == pytest.approx(0.1047619047619048)

    def test_backend_validation(self):
        assert [f.name for f in dataclasses.fields(ScalarSosBackend)] == [
            "delta", "epsilon"]
        for kw in ({"epsilon": 0.1}, {"epsilon": 1.0}, {"delta": 0.0},
                   {"delta": 1.0}):
            with pytest.raises(ValueError):
                ScalarSosBackend(**kw)


class TestAssembleFields:
    def test_single_factor_fields_equal_peel_vectors(self):
        A = grushin(0.5)
        dec = iterated_sd(A, 2, grid1())
        dec = assemble_vector_fields(dec, ScalarSosBackend(), grid1())
        pts = grid1().sample_points()[:50]
        X1 = dec.fields[0][0]
        for comp, zcomp in zip(X1, dec.peel_vectors[0]):
            xv, _ = jets.eval_values(comp, pts)
            zv, _ = jets.eval_values(zcomp, pts)
            assert np.allclose(xv, zv, rtol=1e-12, atol=1e-300)

    def test_grushin_field_matches_two_dyad_display(self):
        gamma = 0.5
        A = grushin(gamma)
        dec = iterated_sd(A, 2, grid1())
        dec = assemble_vector_fields(dec, ScalarSosBackend(), grid1())
        t = 0.37
        f = math.exp(-1.0 / t**2)
        pt = np.array([[t]])
        xv = [jets.eval_values(c, pt)[0][0] for c in dec.fields[0][0]]
        assert xv[0] == pytest.approx(1.0)
        assert xv[1] == pytest.approx(gamma * f, rel=1e-13)
        dyads, rep = residual_dyads(dec, ScalarSosBackend(), grid1())
        dv = [jets.eval_values(c, pt)[0][0] for c in dyads[0]]
        assert dv[0] == 0.0
        assert dv[1] == pytest.approx(math.sqrt(1 - gamma**2) * f, rel=1e-12)

    def test_random_elliptical_gram_identity(self):
        # randomized 3x3 diagonally elliptical instance: reconstruction and
        # Gram residuals below 1e-10 at about a thousand samples
        a = rng.normal(size=(3, 3))
        A = SymMatFun.constant(a @ a.T + 3.0 * np.eye(3), nvars=1)
        g = GridSpec(box=((-1, 1),), resolution=1001, exclude_radius=0.001)
        dec = iterated_sd(A, 3, g)
        dec = assemble_vector_fields(dec, ScalarSosBackend(), g)
        assert dec.certificates["reconstruction_residual"] <= 1e-10
        assert dec.certificates["gram_residual"] <= 1e-10

    def test_multi_factor_gram_identity(self, monkeypatch):
        monkeypatch.setattr(decompose, "scalar_sos", sign_cell_sos)
        A = grushin(0.6)
        g = grid1()
        dec = iterated_sd(A, 2, g)
        dec = assemble_vector_fields(dec, ScalarSosBackend(), g)
        assert len(dec.fields[0]) == 2
        assert dec.certificates["gram_residual"] <= 1e-10

    def test_epsilon_range_enforced(self):
        A = grushin(0.5)
        dec = iterated_sd(A, 2, grid1())
        with pytest.raises(ValueError):
            assemble_vector_fields(dec, ScalarSosBackend(epsilon=0.1), grid1())

    def test_derivative_stats_attached(self):
        A = grushin(0.5)
        dec = iterated_sd(A, 2, grid1())
        dec = assemble_vector_fields(dec, ScalarSosBackend(), grid1())
        stats = dec.certificates["field_derivative_stats"][0]
        assert set(stats["component_sup"]) == {"order0", "order1", "order2"}
        assert stats["order2_seminorms"]


def test_serialization_of_decomposition():
    A = grushin(0.5)
    dec = iterated_sd(A, 2, grid1())
    dec = assemble_vector_fields(dec, ScalarSosBackend(), grid1())
    d = dec.to_json_dict()
    import json

    s = json.dumps(d)
    back = json.loads(s)
    assert back["dimension"] == 2
    assert back["residual"]["dimension"] == 1
    # Z entries round-trip as rows of the node table
    z = ex.from_table(back["nodes"])[back["peel_vectors"][0][1]]
    t = 0.3
    assert jets.eval_jet(z, [t], 0).value == pytest.approx(
        0.5 * math.exp(-1 / t**2), rel=1e-14
    )


def test_dyad_domination_constant_is_one():
    """Z Z^T < C Q holds with the sharp sampled constant Z^T Q^{-1} Z = 1,
    finite across the punctured grid at every peel."""
    A = grushin(0.5)
    dec = iterated_sd(A, 2, grid1())
    dom = dec.certificates["dyad_domination"][0]
    assert dom["samples"] > 0
    assert dom["constant"] == pytest.approx(1.0, abs=1e-9)


def test_determinant_chain_on_shifted_quadratic_family():
    """det A = a11 det Q for the quadratic family frozen at (1,1,1) plus a
    small identity shift, cross-checked through the bordered determinant."""
    from matsos.gallery import build_q_lambda

    Q3 = build_q_lambda(0.02)
    a = Q3.value(np.array([1.0, 1.0, 1.0])) + 0.1 * np.eye(3)
    A = SymMatFun.constant(a, nvars=1)
    Z, Q = one_sd(A, grid1())
    pt = np.array([[0.0]])
    qv, _ = Q.values(pt)
    det_q = np.linalg.det(qv[0])
    # bordered-determinant route: det A = (a11 - b^T D^{-1} b) det D and the
    # Schur route must agree
    direct = np.linalg.det(a)
    assert a[0, 0] * det_q == pytest.approx(direct, rel=1e-10)
    b, D = a[0, 1:], a[1:, 1:]
    border = (a[0, 0] - b @ np.linalg.solve(D, b)) * np.linalg.det(D)
    assert border == pytest.approx(direct, rel=1e-10)
