import warnings

import numpy as np
import pytest

from matsos import expr as ex
from matsos import symmat as sm
from matsos.matfun import MAX_DIM, EntryError, FieldError, SymMatFun
from matsos.report import ConfigError, build_matrix, validate_config
from oracles import jacobi_scalar, schur_gamma

rng = np.random.default_rng(20240811)


def rand_sym(n, scale=1.0):
    a = rng.normal(size=(n, n)) * scale
    return 0.5 * (a + a.T)


def rand_spd(n, scale=1.0):
    a = rng.normal(size=(n, n)) * scale
    s = a @ a.T + 0.1 * scale**2 * np.eye(n)
    return 0.5 * (s + s.T)


def eigvals(a):
    return sm._jacobi(a, vectors=False)[0]


def psd_sqrt(a):
    """The PSD square root v sqrt(w) v^T from the eigenpairs of `a`."""
    w, v = sm._jacobi(a)
    return (v * np.sqrt(w)) @ v.T


def schur_det(alpha, b, D):
    """det [[alpha, b^T], [b, D]] as (alpha - b^T D^{-1} b) det D, with D
    solved and its determinant taken from its eigenpairs."""
    w, v = sm._jacobi(D)
    return (alpha - b @ (v @ ((v.T @ b) / w))) * np.prod(w)


def loewner_leq(a, b, tol=1e-10):
    """a <= b in the Loewner order: the least eigenvalue of b - a is at
    least -tol times the larger max-norm of a and b."""
    scale = max(np.abs(a).max(), np.abs(b).max())
    return bool(eigvals(b - a)[0] >= -tol * scale)


def comparable(a, b, beta, alpha, tol=1e-10):
    """beta b <= a <= alpha b in the Loewner order."""
    return loewner_leq(beta * b, a, tol) and loewner_leq(a, alpha * b, tol)


def alpha_shift_psd(h2, H, v, F, f, alpha):
    """alpha blockdiag(H, f) <= [[h2, v^T], [v, F]] by its Schur complement:
    h2 - alpha H > 0, G = F - alpha f positive definite, and
    v^T G^{-1} v <= h2 - alpha H."""
    head = h2 - alpha * H
    w, vec = sm._jacobi(np.asarray(F) - alpha * np.asarray(f))
    if head <= 0 or w[0] <= 0:
        return False
    return bool((vec.T @ v) ** 2 @ (1.0 / w) <= head * (1.0 + 1e-10))


def inline_matrix(rows):
    return {"dimension": len(rows), "nvars": 1, "entries": rows}


def c(value):
    return {"kind": "const", "value": value}


class TestStorage:
    """Symmetric storage is `SymMatFun`'s: one expression per entry of the
    upper triangle, shared with its mirror, in dimension 1..MAX_DIM."""

    def test_packed_triangle_round_trip(self):
        a = rand_sym(5)
        A = SymMatFun.constant(a)
        assert (A.value([0.0]) == a).all()
        assert A.entry(1, 3) is A.entry(3, 1)

    def test_asymmetry_rejected(self):
        with pytest.raises(EntryError) as info:
            SymMatFun.load_json(inline_matrix([[c(1.0), c(2.0)],
                                               [c(0.0), c(1.0)]]))
        assert info.value.field == "entries[1][0]"

    @pytest.mark.parametrize("field, patch", [
        ("dimension", {"dimension": 2.5}),
        ("dimension", {"dimension": True}),
        ("dimension", {"dimension": "2"}),
        ("dimension", {"dimension": MAX_DIM + 1}),
        ("dimension", {"dimension": None}),
        ("nvars", {"nvars": 1.7}),
        ("nvars", {"nvars": 0}),
        ("nvars", {"nvars": 9}),
        ("entries", {"dimension": 1}),
        ("entries", {"dimension": 3}),
        ("entries", {"entries": [[c(1.0), c(0.0)]]}),
        ("entries", {"entries": [[c(1.0), c(0.0)], [c(0.0)]]}),
        ("entries", {"entries": [[c(1.0), c(0.0)], "row"]}),
        ("entries", {"entries": None}),
    ])
    def test_bad_fields_are_named_errors(self, field, patch):
        """A dimension or variable count that is not an integer in range,
        or entries that are not dimension x dimension, is an error naming
        the field, and a config error naming it under `matrix`."""
        d = {**inline_matrix([[c(1.0), c(0.0)], [c(0.0), c(1.0)]]), **patch}
        with pytest.raises(FieldError) as info:
            SymMatFun.load_json(d)
        assert info.value.field == field
        with pytest.raises(ConfigError) as info:
            build_matrix({"matrix": d})
        assert info.value.field == "matrix." + field

    def test_integral_float_fields_load(self):
        d = {**inline_matrix([[c(1.0), c(0.0)], [c(0.0), c(1.0)]]),
             "dimension": 2.0, "nvars": 1.0}
        A = SymMatFun.load_json(d)[0]
        assert (A.n, A.nvars) == (2, 1)

    def test_tiny_asymmetry_rejected(self):
        # the mirror must be the same expression, however small the entries
        with pytest.raises(EntryError):
            SymMatFun.load_json(inline_matrix([[c(1e-20), c(2e-20)],
                                               [c(0.0), c(1e-20)]]))

    def test_dimension_bounds(self):
        with pytest.raises(ValueError, match="MAX_DIM"):
            SymMatFun(MAX_DIM + 1, 1, {})
        assert SymMatFun(MAX_DIM, 1, {}).n == MAX_DIM
        # 1x1 residual blocks are allowed
        assert SymMatFun(1, 1, {(0, 0): ex.const(3.0)}).value([0.0]) == 3.0

        def config(n):
            return {"version": 1, "matrix": inline_matrix([[c(1.0)] * n] * n)}

        validate_config(config(MAX_DIM))
        for n in (0, MAX_DIM + 1):
            with pytest.raises(ConfigError) as info:
                validate_config(config(n))
            assert info.value.field == "matrix.dimension"

    def test_nonfinite_rejected(self):
        with pytest.raises(ex.ExprError):
            SymMatFun.constant([[1.0, np.nan], [np.nan, 1.0]])


class TestEigen:
    def test_identity(self):
        w, v = sm._jacobi(np.eye(3))
        assert np.allclose(w, 1.0)

    def test_hand_characteristic_roots(self):
        # det(lambda I - [[1,2],[2,1]]) = lambda^2 - 2 lambda - 3
        w, _ = sm._jacobi([[1.0, 2.0], [2.0, 1.0]])
        assert np.allclose(w, [-1.0, 3.0], atol=1e-13)

    def test_diagonal(self):
        w, v = sm._jacobi(np.diag([4.0, 9.0]))
        assert np.allclose(w, [4.0, 9.0])
        assert np.allclose(np.abs(v), np.eye(2))

    @pytest.mark.parametrize("n", [2, 5, 9, 16])
    def test_reconstruction_and_orthogonality(self, n):
        a = rand_sym(n, scale=3.0)
        w, v = sm._jacobi(a)
        tol = 1e-12 * (1.0 + np.abs(a).max())
        assert np.abs(v @ np.diag(w) @ v.T - a).max() <= tol
        assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-12
        assert (np.diff(w) >= 0).all()

    def test_graded_flat_matrix_keeps_small_eigenvalue(self):
        # entries spanning ~90 orders of magnitude: the small eigenvalue
        # (1 - g^2) f^2 survives the Jacobi sweep to relative precision
        f2 = 1e-88
        f = 1e-44
        a = np.array([[1.0, 0.5 * f], [0.5 * f, f2]])
        w, _ = sm._jacobi(a)
        assert w[0] == pytest.approx(0.75 * f2, rel=1e-10, abs=0)

    def test_subnormal_coupling_against_zero_pivot(self):
        # the relative skip rule rotates any nonzero coupling of a zero
        # diagonal entry; a subnormal one must not overflow the angle
        a = np.array([[1.0, 1e-310], [1e-310, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, v = sm._jacobi(a)
        assert w.tolist() == [0.0, 1.0]
        assert np.abs(v.T @ v - np.eye(2)).max() <= 1e-15

    def test_graded_spd_eigenvalues_match_mpmath(self):
        # D H D with D spanning 1e-150..1: Jacobi with a relative skip rule
        # gets every eigenvalue to relative accuracy, however small
        mpmath = pytest.importorskip("mpmath")
        g = np.random.default_rng(1992)
        with mpmath.workdps(400):
            for _ in range(60):
                n = int(g.integers(2, 7))
                b = g.normal(size=(n, n))
                d = 10.0 ** g.uniform(-150.0, 0.0, size=n)
                a = d[:, None] * (b @ b.T + n * np.eye(n)) * d[None, :]
                a = 0.5 * (a + a.T)
                w, _ = sm._jacobi(a)
                exact = mpmath.eigsy(mpmath.matrix(a.tolist()),
                                     eigvals_only=True)
                exact = np.sort([float(e) for e in exact])
                assert w == pytest.approx(exact, rel=1e-13, abs=0)


def assert_bitwise(x, y):
    assert x.shape == y.shape
    assert np.array_equal(x, y)
    assert np.array_equal(np.signbit(x), np.signbit(y))


class TestStackedJacobi:
    """`_jacobi` on a stack returns, matrix by matrix, bitwise what the
    per-matrix loop of the oracle returns (signs of zeros included)."""

    def check(self, stack):
        stack = np.asarray(stack, dtype=float)
        w, v = sm._jacobi(stack)
        n = stack.shape[-1]
        assert w.shape == stack.shape[:-1] and v.shape == stack.shape
        for a, wk, vk in zip(stack.reshape(-1, n, n), w.reshape(-1, n),
                             v.reshape(-1, n, n)):
            w1, v1 = jacobi_scalar(a)
            assert_bitwise(wk, w1)
            assert_bitwise(vk, v1)
            # same memory layout too, so products with it round the same
            assert vk.strides == v1.strides

    @pytest.mark.parametrize("n", range(1, 17))
    def test_random_symmetric_and_spd(self, n):
        g = np.random.default_rng(n)
        b = g.normal(size=(24, n, n))
        sym = b + b.transpose(0, 2, 1)
        spd = b @ b.transpose(0, 2, 1) + 0.1 * np.eye(n)
        self.check(np.concatenate([sym, spd]))

    def test_graded_dhd(self):
        g = np.random.default_rng(1992)
        for n in range(2, 9):
            b = g.normal(size=(20, n, n))
            d = 10.0 ** g.uniform(-150.0, 0.0, size=(20, n))
            h = b @ b.transpose(0, 2, 1) + n * np.eye(n)
            self.check(d[:, :, None] * h * d[:, None, :])

    def test_subnormal_coupling_in_a_stack(self):
        a = np.array([[1.0, 1e-310], [1e-310, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.check([a, [[2.0, 1.0], [1.0, 2.0]], a.T, np.eye(2)])

    def test_signed_zeros(self):
        z = -0.0
        self.check([
            [[z, z, 0.0], [z, 1.0, 0.5], [0.0, 0.5, z]],
            [[z, 0.0, 0.0], [0.0, z, 0.0], [0.0, 0.0, z]],
            [[1.0, 2.0, z], [2.0, 1.0, 3.0], [z, 3.0, 1.0]],
            [[0.0, z, z], [z, 0.0, z], [z, z, 2.0]],
        ])

    def test_matrices_stop_after_their_own_sweeps(self, monkeypatch):
        # a diagonal matrix stops after one sweep, a 2x2 block after two,
        # a dense matrix after several; finished matrices are not swept
        g = np.random.default_rng(7)
        dense = g.normal(size=(6, 6))
        block = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        block[0, 1] = block[1, 0] = 0.5
        stack = np.array([np.diag([3.0, -0.0, 1.0, 2.0, 0.0, 5.0]), block,
                          dense + dense.T])
        sizes = []
        sweep = sm._rotate_sweep

        def counting(a, v):
            sizes.append(a.shape[0])
            return sweep(a, v)

        monkeypatch.setattr(sm, "_rotate_sweep", counting)
        self.check(stack)
        assert sizes[:3] == [3, 2, 1] and len(sizes) > 4

    def test_empty_stack(self):
        w, v = sm._jacobi(np.zeros((0, 4, 4)))
        assert w.shape == (0, 4) and v.shape == (0, 4, 4)

    def test_plain_matrix_and_nested_stack(self):
        g = np.random.default_rng(3)
        b = g.normal(size=(2, 3, 5, 5))
        b = b + b.transpose(0, 1, 3, 2)
        self.check(b)
        w, v = sm._jacobi(b[1, 2])
        w1, v1 = jacobi_scalar(b[1, 2])
        assert_bitwise(w, w1)
        assert_bitwise(v, v1)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            sm._jacobi(np.zeros((3, 2, 4)))


class TestSqrtPsd:
    """Square roots built from the eigenpairs multiply back."""

    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_multiply_back(self):
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        S = psd_sqrt(M)
        assert np.abs(S @ S - M).max() <= 1e-10
        assert eigvals(S)[0] >= 0

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_random_psd(self, n):
        M = rand_spd(n)
        S = psd_sqrt(M)
        assert np.abs(S @ S - M).max() <= 1e-10 * (1 + np.abs(M).max())


class TestBorderedDet:
    """The Schur determinant through the eigenpairs of the trailing block
    against the direct determinant."""

    def test_block_identity(self):
        assert schur_det(1.0, np.zeros(2), np.eye(2)) == 1.0

    def test_hand_cofactor_case(self):
        # (d,a,b,e,c,f) = (1,1,1,2,0,3): bordered = (1 - (1/2 + 1/3)) * 6 = 1
        D = np.array([[2.0, 0.0], [0.0, 3.0]])
        assert schur_det(1.0, np.ones(2), D) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("trial", range(10))
    def test_random_vs_lu_oracle(self, trial):
        M = rand_spd(4)
        v = rng.normal(size=4)
        alpha = rng.normal()
        full = np.zeros((5, 5))
        full[0, 0] = alpha
        full[0, 1:] = v
        full[1:, 0] = v
        full[1:, 1:] = M
        direct = np.linalg.det(full)
        got = schur_det(alpha, v, M)
        assert got == pytest.approx(direct, rel=1e-10, abs=1e-12)

    def test_tiny_invertible_block_is_not_singular(self):
        # the eigenvalues of a tiny block keep their relative precision
        D = np.diag([1e-20, 1e-30])
        got = schur_det(1.0, np.zeros(2), D)
        assert got == pytest.approx(1e-50, rel=1e-12)


class TestLoewnerOrder:
    def test_reflexive(self):
        A = rand_sym(3)
        assert loewner_leq(A, A)

    def test_diagonal_dominance(self):
        assert loewner_leq(np.diag([1.0, 1.0]), np.diag([2.0, 2.0]))

    @pytest.mark.parametrize("trial", range(5))
    def test_psd_doubling(self, trial):
        P = rand_spd(4)
        assert loewner_leq(P, 2.0 * P)
        assert not loewner_leq(2.0 * P, P)

    def test_tolerance_scales_with_the_inputs(self):
        # 1e-20 I <= 0.5e-20 I is as false as I <= 0.5 I
        assert not loewner_leq(1e-20 * np.eye(2), 0.5e-20 * np.eye(2))
        assert loewner_leq(0.5e-20 * np.eye(2), 1e-20 * np.eye(2))


class TestComparable:
    def test_self_comparable(self):
        A = rand_spd(3)
        assert comparable(A, A, 0.5, 2.0)

    def test_tiny_matrices_keep_their_bracket(self):
        assert not comparable(1e-20 * np.eye(2), 1e-23 * np.eye(2), 0.5, 2.0)
        assert comparable(1e-20 * np.eye(2), 1e-20 * np.eye(2), 0.5, 2.0)

    def test_scaled_diagonals(self):
        A = np.diag([1.0, 2.0])
        B = np.diag([2.0, 4.0])
        assert comparable(A, B, 0.4, 0.6)

    def test_flat_coupling_defeats_fixed_bracket(self):
        # [[1, 1-e^{-1/x^2}], [1-e^{-1/x^2}, 1]] against its diagonal: any
        # fixed (beta, alpha) fails once x is small enough
        def A(x):
            c = 1.0 - np.exp(-1.0 / x**2)
            return np.array([[1.0, c], [c, 1.0]])

        beta, alpha = 0.01, 100.0
        ok = [comparable(A(x), np.eye(2), beta, alpha) for x in (0.8, 0.5)]
        assert all(ok)
        assert not comparable(A(0.1), np.eye(2), beta, alpha)

    def test_bracket_transfer_to_own_diagonal(self):
        # beta D <= A <= alpha D forces (beta/alpha) A_diag <= A <= (alpha/beta) A_diag
        for _ in range(20):
            n = int(rng.integers(2, 6))
            lam = rng.uniform(0.5, 2.0, size=n)
            D = np.diag(lam)
            B = rand_spd(n, scale=0.2)
            # build A comparable to D by construction
            A = 0.6 * D + 0.05 * np.abs(B).max() ** -1 * B * lam.min()
            # certified bracket via generalized scaling
            d = np.sqrt(lam)
            wT = eigvals(A / d[:, None] / d[None, :])
            beta, alpha = wT[0] * 0.999, wT[-1] * 1.001
            assert comparable(A, D, beta, alpha)
            Ad = np.diag(np.diag(A))
            assert comparable(A, Ad, beta / alpha * 0.999, alpha / beta * 1.001)

    def test_principal_submatrix_monotonicity(self):
        for _ in range(20):
            n = int(rng.integers(3, 7))
            B = rand_spd(n)
            A = B + rand_sym(n, 0.05)
            L = np.linalg.cholesky(B)
            T = np.linalg.solve(L, np.linalg.solve(L, A).T)
            w = np.linalg.eigvalsh(0.5 * (T + T.T))
            beta, alpha = w[0] * 0.999, w[-1] * 1.001
            if beta <= 0:
                continue
            assert comparable(A, B, beta, alpha)
            idx = sorted(rng.choice(n, size=2, replace=False))
            Ah = A[np.ix_(idx, idx)]
            Bh = B[np.ix_(idx, idx)]
            assert comparable(Ah, Bh, beta, alpha, tol=1e-9)


class TestComparabilityGamma:
    """gamma = sqrt(b^T D^{-1} b / a11) of the first row against the
    trailing block; comparability to the own diagonal forces gamma < 1."""

    def test_zero_coupling(self):
        assert schur_gamma(np.diag([1.0, 2.0, 3.0])) == 0.0

    def test_scalar_algebra_case(self):
        g0, f = 0.5, 0.3
        A = np.array([[1.0, g0 * f], [g0 * f, f * f]])
        assert schur_gamma(A) == pytest.approx(g0, rel=1e-12)

    def test_rank_one_boundary(self):
        assert schur_gamma(np.ones((2, 2))) == pytest.approx(1.0)


class TestAlphaShift:
    """The Schur-complement test of alpha blockdiag(H, f) <= [[h2, v^T],
    [v, F]] against the eigenvalues of the assembled difference."""

    def test_decoupled_blocks(self):
        assert alpha_shift_psd(2.0, 1.0, np.zeros(1), [[2.0]], [[1.0]], 1.0)

    def test_exact_boundary_is_true(self):
        # v = (1), G_alpha = (1), h^2 - alpha H = 1: non-strict boundary
        assert alpha_shift_psd(2.0, 1.0, np.ones(1), [[2.0]], [[1.0]], 1.0)

    def test_slack_is_relative(self):
        # head 1e-20 against v^T G^{-1} v = 1e-40 / 9e-21: exactly False
        F, f = np.array([[1e-20]]), np.array([[1e-21]])
        assert not alpha_shift_psd(2e-20, 1e-20, np.array([1e-20]), F, f, 1.0)
        assert alpha_shift_psd(2e-20, 1e-20, np.array([0.9e-20]), F, f, 1.0)

    def test_negative_shifted_block(self):
        one = [[1.0]]
        assert not alpha_shift_psd(2.0, 0.1, np.zeros(1), one, one, 2.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_cross_validation_with_block_eigenvalues(self, n):
        for _ in range(200):
            F = rand_spd(n)
            f = rand_spd(n, 0.7)
            v = rng.normal(size=n)
            h2 = abs(rng.normal()) + 0.1
            H = abs(rng.normal())
            alpha = rng.uniform(0.05, 1.5)
            got = alpha_shift_psd(h2, H, v, F, f, alpha)
            block = np.zeros((n + 1, n + 1))
            block[0, 0] = h2 - alpha * H
            block[0, 1:] = v
            block[1:, 0] = v
            block[1:, 1:] = F - alpha * f
            w = eigvals(0.5 * (block + block.T))
            assert got == bool(w[0] >= -1e-10 * (1 + np.abs(block).max()))


class TestTrailingMinors:
    def test_matches_eigen_positivity(self):
        # positive definite iff every trailing principal minor is positive
        for _ in range(50):
            n = int(rng.integers(2, 6))
            M = rand_sym(n)
            w = eigvals(M)
            if abs(w[0]) < 1e-10:
                continue
            minors = [np.prod(eigvals(M[k:, k:])) for k in range(n)]
            assert all(m > 0 for m in minors) == bool(w[0] > 0)
