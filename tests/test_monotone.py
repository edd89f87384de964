import numpy as np
import pytest

from matsos import expr as ex
from matsos import jets
from matsos.grids import GridSpec
from matsos.monotone import (
    MonotoneSpec,
    holder_seminorm,
    omega_monotone_check,
    omega_value,
)

X = ex.var(0)


def grid1(**kw):
    kw.setdefault("box", ((-1.0, 1.0),))
    kw.setdefault("resolution", 17)
    kw.setdefault("exclude_radius", 0.1)
    return GridSpec(**kw)


class TestModulus:
    def test_power_modulus(self):
        spec = MonotoneSpec(s=0.5)
        w, clamped = omega_value(spec, np.array([0.0, 0.25, 1.0]))
        assert w.tolist() == [0.0, 0.5, 1.0]
        assert not clamped.any()

    def test_log_modulus(self):
        spec = MonotoneSpec(s=0.0)
        w, _ = omega_value(spec, np.array([1.0, np.exp(-2.0)]))
        assert w[0] == pytest.approx(0.5)
        assert w[1] == pytest.approx(1.0 / 4.0)
        assert spec.kind == "log"

    def test_clamping_above_one(self):
        w, clamped = omega_value(MonotoneSpec(s=0.5), np.array([4.0]))
        assert clamped[0] and w[0] == 1.0

    def test_invariants(self):
        with pytest.raises(ValueError):
            MonotoneSpec(s=1.5)
        with pytest.raises(ValueError):
            MonotoneSpec(s=0.5, C=0.0)


def seminorm(h, x, mus, delta, grid):
    """The estimate of one expression at one center."""
    return holder_seminorm([h], [x], mus, delta, grid)[0][0]


class TestHolderSeminorm:
    def test_constant_is_zero(self):
        assert seminorm(ex.const(3.0), [0.2], [(0,)], 0.5, grid1()) == 0.0

    def test_second_derivative_of_square_is_constant(self):
        assert seminorm(X**2, [0.4], [(2,)], 0.3, grid1()) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_sqrt_abs_attains_one(self):
        # |x|^(1/2) = sqrt(sqrt(x^2)); pairs anchored at the center z = 0
        # attain ratio 1; subadditivity of t^(1/2) caps it
        h = ex.sqrt(ex.sqrt(X**2))
        est = seminorm(h, [0.0], [(0,)], 0.5, grid1())
        assert est == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("mus", [
        [(2, 0), (0, 2)],
        [(2, 0), (1, 1), (0, 2), (1, 0), (0, 3), (4, 0)],
    ])
    def test_several_multiindices_equal_max_of_single_calls(self, mus):
        Y = ex.var(1)
        h = ex.exp(X * Y) * ex.recip(ex.const(2.0) + X**2) + ex.sqrt(ex.const(1.5) + Y)
        grid = GridSpec(box=((-1.0, 1.0), (-1.0, 1.0)))
        x = [0.3, -0.2]
        single = [seminorm(h, x, [mu], 0.4, grid) for mu in mus]
        assert seminorm(h, x, mus, 0.4, grid) == max(single)
        assert max(single) > 0.0

    def test_batch_equals_single_calls_bit_for_bit(self):
        Y = ex.var(1)
        hs = [
            ex.exp(X * Y) * ex.recip(ex.const(2.0) + X**2),
            ex.sqrt(ex.const(1.5) + Y) * ex.exp(X * Y),
            ex.const(-2.0),
            X**3 * Y - Y**2,
        ]
        grid = GridSpec(box=((-1.0, 1.0), (-1.0, 1.0)))
        x = [[0.3, -0.2]]
        mus = [(2, 0), (1, 1), (0, 2), (1, 0), (0, 3), (4, 0)]
        batch = holder_seminorm(hs, x, mus, 0.4, grid)[0]
        assert batch == [seminorm(h, x[0], mus, 0.4, grid) for h in hs]
        assert holder_seminorm(hs[:1], x, mus, 0.4, grid)[0] == batch[:1]
        assert holder_seminorm(hs, x, [(0, 2)], 0.4, grid)[0] == [
            seminorm(h, x[0], [(0, 2)], 0.4, grid) for h in hs]

    def test_failing_expression_is_none_in_batch(self):
        bad = ex.recip(X)
        good = ex.exp(X)
        batch = holder_seminorm([good, bad, good], [[0.0]], [(1,)], 0.5,
                                grid1())[0]
        assert batch[1] is None
        assert batch[0] == batch[2] == seminorm(good, [0.0], [(1,)], 0.5,
                                                grid1())
        assert seminorm(bad, [0.0], [(1,)], 0.5, grid1()) is None

    def test_center_stack_equals_single_center_calls(self):
        bad = ex.sqrt(X)  # fails left of 0, and at 0 from order 1 up
        hs = [ex.exp(X) * X**3, bad, ex.const(2.0)]
        centers = np.array([[0.6], [0.0], [-0.5], [0.6], [0.3]])
        grid = grid1()
        for mus in [[(1,)], [(2,), (0,), (1,)]]:
            want = [holder_seminorm(hs, [x], mus, 0.5, grid)[0]
                    for x in centers]
            assert holder_seminorm(hs, centers, mus, 0.5, grid) == want
            assert [w[1] is None for w in want] == [False, True, True, False,
                                                   False]
            good = [holder_seminorm(hs[:1], [x], mus, 0.5, grid)[0]
                    for x in centers]
            assert holder_seminorm(hs[:1], centers, mus, 0.5, grid) == good
        assert holder_seminorm(hs, centers[:0], [(1,)], 0.5, grid) == []

    def test_empty_expression_list_gives_empty_estimates(self):
        """No expressions: one empty list per center, and masks that are
        bool arrays with no rows."""
        grid = GridSpec(box=((-1.0, 1.0),) * 2, resolution=5)
        centers = [[0.5, 0.25], [-0.5, 0.75], [0.1, 0.1]]
        for mus in ([(1, 0)], [(2, 0), (0, 1)]):
            assert holder_seminorm([], centers, mus, 0.5, grid) == [[]] * 3
        Y, Z = grid.sample_pairs(centers)
        inv_y, inv_z, dy, dz = jets.eval_ladders([], Y, Z, 2, 2, [(2, 0)])
        assert inv_y.dtype == inv_z.dtype == bool
        assert inv_y.shape == (0, 3, Y.shape[1])
        assert dy.shape == dz.shape == (0, 1, 3, Y.shape[1])

    def test_empty_multiindex_list_rejected(self):
        # once a VariableCountError about a multiindex of length 0
        grid2 = GridSpec(box=((-1.0, 1.0),) * 2, resolution=5)
        for h, x, grid in ((X**2, [0.4], grid1()),
                           (X * ex.var(1), [0.5, 0.5], grid2)):
            for mu in ([], (), np.zeros((0, len(x)), dtype=int)):
                with pytest.raises(ValueError,
                                   match="need at least one multiindex"):
                    holder_seminorm([h], [x], mu, 0.3, grid)

    def test_center_of_wrong_length_is_named_error(self):
        from matsos.expr import VariableCountError

        grid = GridSpec(box=((-1.0, 1.0),) * 3)
        with pytest.raises(VariableCountError):
            seminorm(X**2, [0.3], [(2,)], 0.5, grid)
        with pytest.raises(ValueError, match=r"\(C, nvars\) stack"):
            holder_seminorm([X**2], [0.3, 0.2, 0.1], [(2, 0, 0)], 0.5, grid)

    @pytest.mark.parametrize("mu", [[(-1, 5)], [(2, 0), (3, -1)], [(-1, 1)]])
    def test_negative_multiindex_component_is_named_error(self, mu):
        grid = GridSpec(box=((-1.0, 1.0),) * 2, resolution=5)
        with pytest.raises(ValueError, match="non-negative integer"):
            seminorm(X * ex.var(1), [0.3, 0.2], mu, 0.5, grid)


    @pytest.mark.parametrize("component", [2.5, True, -1])
    @pytest.mark.parametrize("listed", [False, True])
    def test_non_integer_multiindex_component_is_named_error(self, component,
                                                             listed):
        # 2.5 once ran as (2,) and True as (1,); the multiindices may come
        # as a tuple or a list
        mu = [(component,)] if listed else ((component,),)
        with pytest.raises(ValueError, match="non-negative integer"):
            seminorm(X**3, [0.4], mu, 0.5, grid1())


class TestOmegaMonotone:
    def test_constant_function(self):
        rep = omega_monotone_check(ex.const(1.0), MonotoneSpec(s=0.5), grid1())
        assert rep.verdict == "pass"
        assert rep.worst_ratio == pytest.approx(1.0)

    def test_square_norm_is_linearly_monotone(self):
        # domain kept inside the unit ball so the modulus is never clamped
        g = GridSpec(box=((-0.7, 0.7), (-0.7, 0.7)), resolution=9,
                     exclude_radius=0.2)
        f = ex.var(0) ** 2 + ex.var(1) ** 2
        rep = omega_monotone_check(f, MonotoneSpec(s=1.0), g)
        assert rep.verdict == "pass"
        assert rep.worst_ratio <= 1.0 + 1e-9
        assert rep.counts["clamped"] == 0

    def test_flat_radial_profile(self):
        # exp(-1/|x|) with |y| <= |x| on the ball: monotone radial profile
        f = ex.flatabs(ex.sqrt(ex.var(0) ** 2 + ex.var(1) ** 2))
        g = GridSpec(box=((-1, 1), (-1, 1)), resolution=9, exclude_radius=0.2)
        rep = omega_monotone_check(f, MonotoneSpec(s=1.0), g)
        assert rep.verdict == "pass"

    def test_clamp_counted(self):
        f = ex.const(2.0) + X**2
        rep = omega_monotone_check(f, MonotoneSpec(s=0.5, C=4.0), grid1())
        assert rep.counts["clamped"] > 0

    def test_negative_function_rejected(self):
        with pytest.raises(ValueError):
            omega_monotone_check(-ex.const(1.0), MonotoneSpec(s=0.5), grid1())

    def test_nonnegativity_guard_is_relative(self):
        # a uniformly negative function refused at any scale, a uniformly
        # positive one accepted at any scale
        with pytest.raises(ValueError):
            omega_monotone_check(ex.const(-1e-13) * (ex.ONE + X**2),
                                 MonotoneSpec(s=0.5), grid1())
        rep = omega_monotone_check(ex.const(1e-20) * (ex.ONE + X**2),
                                   MonotoneSpec(s=0.5), grid1())
        assert rep.counts["evaluated"] > 0

    def test_non_monotone_fails(self):
        # f vanishing at x = 1/2 but not at x: the ball around x/2 sees
        # large values while omega(f(x)) is tiny for f(x) small
        f = (X - ex.const(0.5)) ** 2
        rep = omega_monotone_check(f, MonotoneSpec(s=1.0, C=1.0), grid1())
        assert rep.verdict == "fail"
        assert rep.witness is not None
