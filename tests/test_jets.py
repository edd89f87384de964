import math
import tracemalloc

import numpy as np
import pytest

from matsos import expr as ex
from matsos import gallery, jets
from matsos.grids import GridSpec

from oracles import (
    dict_convolve,
    entry_tables,
    func_of,
    keep_everything_entries,
    mul_reduceat,
    mul_unblocked,
    recip_chain_table,
    richardson_derivative,
)

X, Y = ex.var(0), ex.var(1)


def test_square_polynomial():
    j = jets.eval_jet(X**2, [3.0], order=2)
    assert j.value == 9.0
    assert j.derivative((1,)) == 6.0
    assert j.derivative((2,)) == 2.0


def test_flat_primitive_all_zero_at_origin():
    j = jets.eval_jet(ex.flat(X), [0.0], order=4)
    assert all(j.derivative((m,)) == 0.0 for m in range(5))


def test_flatabs_all_zero_at_origin():
    j = jets.eval_jet(ex.flatabs(X), [0.0], order=4)
    assert all(j.derivative((m,)) == 0.0 for m in range(5))


def test_reciprocal_jet_matches_frozen_values():
    # central finite differences with step sweep, Richardson extrapolated,
    # freeze (0.5, -0.25, 0.25) for 1/(2+x) at 0
    j = jets.eval_jet(ex.recip(ex.const(2.0) + X), [0.0], order=2)
    assert j.value == pytest.approx(0.5, abs=1e-15)
    assert j.derivative((1,)) == pytest.approx(-0.25, abs=1e-12)
    assert j.derivative((2,)) == pytest.approx(0.25, abs=1e-12)


def test_order_validation():
    with pytest.raises(ValueError):
        jets.eval_jet(X, [0.0], order=5)
    with pytest.raises(ValueError):
        jets.eval_jet(X, [0.0], order=-1)


@pytest.mark.parametrize("order", [True, False])
def test_bool_order_is_refused(order):
    """A bool is not an order, though True == 1, also as a cache key."""
    jets.eval_jet(X, [0.5], order=1)
    with pytest.raises(ValueError, match="order"):
        jets.eval_jet(X, [0.5], order=order)
    with pytest.raises(ValueError, match="order"):
        jets.eval_jet_batch(X, [[0.5]], order=order)


def test_variable_count_mismatch():
    with pytest.raises(ex.VariableCountError):
        jets.eval_jet(ex.var(2), [0.0, 1.0], order=1)


def test_misshaped_points_are_a_named_error():
    with pytest.raises(ValueError, match=r"\(npts, nvars\), got shape "
                                         r"\(2, 2, 2\)"):
        jets.eval_jet_batch(X * Y, np.zeros((2, 2, 2)), 1)
    with pytest.raises(ValueError, match=r"\(npts, nvars\)"):
        jets.eval_log_values(X, np.ones((1, 1, 1)))


def test_singular_domain_errors():
    with pytest.raises(jets.SingularDomainError):
        jets.eval_jet(ex.recip(X), [0.0], order=0)
    with pytest.raises(jets.SingularDomainError):
        jets.eval_jet(ex.recip(X), [-1.0], order=0)  # declared positivity
    with pytest.raises(jets.SingularDomainError):
        jets.eval_jet(ex.sqrt(X), [-0.5], order=0)
    with pytest.raises(jets.SingularDomainError):
        jets.eval_jet(ex.sqrt(X), [0.0], order=1)
    # sqrt at zero is fine for order 0
    assert jets.eval_jet(ex.sqrt(X), [0.0], order=0).value == 0.0


BATTERY = [
    (ex.exp(X * Y), [0.4, -0.3], 2),
    (ex.sqrt(ex.const(2.0) + X), [0.7], 1),
    (ex.recip(ex.const(1.0) + X**2), [0.5], 1),
    (ex.flat(X), [0.6], 1),
    (ex.flat(X), [-0.35], 1),
    (ex.flatabs(X), [0.45], 1),
    (ex.flatabs(X), [-0.52], 1),
    (ex.bump(X), [0.3], 1),
    (ex.bump(X), [-0.62], 1),
    (ex.mul(ex.flat(X), ex.bump(Y), ex.exp(X)), [0.5, 0.2], 2),
    (ex.add(X**3, ex.mul(ex.const(2.0), X, Y), ex.exp(Y)), [0.3, 0.8], 2),
    (ex.intpow(ex.const(1.5) + X, -2), [0.25], 1),
    (ex.sqrt(ex.flat(X) + ex.const(0.5)), [0.4], 1),
]


@pytest.mark.parametrize("expr,point,nv", BATTERY)
def test_jets_match_richardson_fd_to_order_3(expr, point, nv):
    """Every primitive and compositions: orders <= 3 agree with Richardson-
    extrapolated central differences to relative error 1e-6, at points
    bounded away from singularities."""
    jet = jets.eval_jet(expr, point, order=3, nvars=nv)
    f = func_of(expr, nv)
    for mu, val in jet.table().items():
        if sum(mu) > 3:
            continue
        fd = richardson_derivative(f, point, mu, h0=2e-2)
        scale = max(abs(val), abs(fd))
        # 5e-8 absorbs the FD noise floor around exactly-zero derivatives
        assert abs(val - fd) <= max(1e-6 * scale, 5e-8), (mu, val, fd)


@pytest.mark.parametrize(
    "f,g,point,nv",
    [
        (ex.exp(X * Y) + X**3, ex.sqrt(ex.const(2.0) + X) * Y, [0.3, -0.7], 2),
        (ex.flat(X), ex.recip(ex.const(1.0) + X**2), [0.5], 1),
        (X * Y + ex.const(1.0), ex.bump(X) * ex.bump(Y), [0.2, 0.4], 2),
    ],
)
def test_product_rule_is_truncated_convolution(f, g, point, nv):
    """jet(f*g) equals the truncated convolution of jet(f) and jet(g): the
    executable form of the Leibniz rule."""
    jf = jets.eval_jet(f, point, order=4, nvars=nv)
    jg = jets.eval_jet(g, point, order=4, nvars=nv)
    jfg = jets.eval_jet(f * g, point, order=4, nvars=nv)
    conv = dict_convolve(jf.table(), jg.table(), order=4)
    for mu, v in jfg.table().items():
        scale = max(1.0, abs(v))
        assert abs(v - conv[mu]) <= 1e-13 * scale, mu


@pytest.mark.parametrize(
    "h,point",
    [
        (ex.const(2.0) + X**2, 0.8),
        (ex.exp(X), -0.4),
        (ex.const(1.0) + ex.flat(X), 0.5),
        (ex.sqrt(ex.const(3.0) + X), 0.9),
    ],
)
def test_reciprocal_matches_faa_di_bruno(h, point):
    """Jets of 1/h agree with the hand-expanded chain rule to order 3."""
    jh = jets.eval_jet(h, [point], order=3)
    hs = [jh.value] + [jh.derivative((m,)) for m in (1, 2, 3)]
    expected = recip_chain_table(*hs)
    jr = jets.eval_jet(ex.recip(h), [point], order=3)
    got = [jr.value] + [jr.derivative((m,)) for m in (1, 2, 3)]
    assert np.allclose(got, expected, rtol=1e-12, atol=0)


def test_jet_ring_homomorphism_on_sums():
    a, b = ex.exp(X), ex.flat(X)
    pt = [0.37]
    ja = jets.eval_jet(a, pt, 4).table()
    jb = jets.eval_jet(b, pt, 4).table()
    jsum = jets.eval_jet(a + b, pt, 4).table()
    for mu in jsum:
        assert jsum[mu] == pytest.approx(ja[mu] + jb[mu], rel=1e-15)


class TestFlatAnnihilation:
    """flat x polynomial-growth = 0, precomputed on the tree."""

    def setup_method(self):
        x, y, z, t = (ex.var(i) for i in range(4))
        self.r = ex.sqrt(x**2 + y**2 + z**2)
        self.eta = ex.flat(self.r) * ex.bump(t / self.r)

    def test_zero_jets_on_degenerate_slice(self):
        jb = jets.eval_jet_batch(
            self.eta, np.array([[0.0, 0.0, 0.0, 0.5]]), order=4
        )
        assert not jb.invalid[0]
        assert jb.flat_zero[0]
        assert np.abs(jb.coef).max() == 0.0

    def test_matches_direct_value_off_slice(self):
        pt = np.array([[0.1, 0.0, 0.0, 0.05]])
        jb = jets.eval_jet_batch(self.eta, pt, order=0)
        expect = math.exp(-100.0) * math.exp(1.0 - 1.0 / (1.0 - 0.25))
        assert jb.values[0] == pytest.approx(expect, rel=1e-12)

    def test_no_rescue_for_exponential_growth(self):
        # flat(x) * exp(1/x^2) == 1 mathematically; the engine must refuse
        # rather than claim zero
        bad = ex.flat(X) * ex.exp(ex.recip(X**2))
        jb = jets.eval_jet_batch(bad, np.array([[0.0]]), order=0)
        assert jb.invalid[0]

    def test_no_rescue_for_reciprocal_of_flat(self):
        bad = ex.flat(X) * ex.recip(ex.flat(X))
        jb = jets.eval_jet_batch(bad, np.array([[0.0]]), order=0)
        assert jb.invalid[0]


def test_bump_support_and_normalization():
    b = ex.bump(X)
    assert jets.eval_jet(b, [0.0], 2).value == 1.0
    for t in (1.0, -1.0, 1.3):
        j = jets.eval_jet(b, [t], 4)
        assert j.value == 0.0
        assert j.max_abs_of_order(4) == 0.0


def test_batched_matches_single_point():
    e = ex.flat(X) * ex.bump(Y) + ex.sqrt(ex.const(1.0) + X**2)
    pts = np.array([[0.3, 0.1], [0.5, -0.7], [1.2, 0.0]])
    jb = jets.eval_jet_batch(e, pts, order=3, nvars=2)
    for i, p in enumerate(pts):
        ji = jets.eval_jet(e, p, order=3, nvars=2)
        for mu, v in ji.table().items():
            got = jb.derivative(mu)[i]
            assert got == pytest.approx(v, rel=1e-15, abs=1e-300)


def test_shared_memo_consistency():
    shared = ex.flat(X)
    e1 = shared * ex.const(2.0)
    e2 = shared + ex.const(1.0)
    pts = np.array([[0.4]])
    out = jets.eval_entries([e1, e2], pts, order=2)
    v = jets.eval_jet(shared, [0.4], 2).value
    assert out[0].values[0] == pytest.approx(2 * v)
    assert out[1].values[0] == pytest.approx(1 + v)


def test_log_values_exact_under_underflow():
    t = X
    psi = (ex.flat(t) * t**2) ** 4
    pts = np.array([[0.009]])
    lv = jets.eval_log_values(psi, pts)
    expect = 4.0 * (-1.0 / 0.009**2 + 2.0 * math.log(0.009))
    assert lv[0] == pytest.approx(expect, rel=1e-12)
    # plain evaluation underflows to zero there
    vals, ok = jets.eval_values(psi, pts)
    assert ok[0] and vals[0] == 0.0


def test_log_values_sum_uses_logaddexp():
    e = ex.flat(X) + ex.flat(ex.mul(ex.const(2.0), X))
    pts = np.array([[0.1]])
    lv = jets.eval_log_values(e, pts)
    expect = np.logaddexp(-100.0, -25.0)
    assert lv[0] == pytest.approx(expect, rel=1e-12)


def test_log_values_reject_signed_structure():
    with pytest.raises(jets.LogEvalError):
        jets.eval_log_values(X - ex.const(1.0), np.array([[0.5]]))


def test_log_values_keep_their_error_rules():
    """The first failing child, in child order, names the error; an even
    power of a signed child falls back to log |values|; exp, flat, flatabs
    and bump read plain values, so a log error below them does not raise."""
    pts = np.array([[0.5], [-0.25]])
    neg, signed = ex.const(-2.0), X - ex.const(1.0)
    with pytest.raises(jets.LogEvalError, match="variable takes negative"):
        jets.eval_log_values(ex.mul(X, neg), pts)
    with pytest.raises(jets.LogEvalError, match="negative constant"):
        jets.eval_log_values(ex.add(neg, X), pts)
    with pytest.raises(jets.LogEvalError, match="negative constant"):
        jets.eval_log_values(ex.intpow(ex.mul(neg, X), 3), pts)
    lv = jets.eval_log_values(ex.intpow(signed, 2), pts)
    assert lv.tolist() == (2 * np.log(np.abs([-0.5, -1.25]))).tolist()
    for f in (ex.exp, ex.flat, ex.flatabs, ex.bump):
        lv = jets.eval_log_values(f(signed) * f(signed * ex.const(0.5)), pts)
        with np.errstate(divide="ignore"):  # bump is 0 outside (-1, 1)
            want = np.log(jets.eval_values(f(signed), pts)[0]) + np.log(
                jets.eval_values(f(signed * ex.const(0.5)), pts)[0])
        assert lv == pytest.approx(want, rel=1e-14, abs=0.0)


def test_log_values_compute_each_distinct_node_once(monkeypatch):
    """The doubling DAG e = e * e over 1 + x0, 40 levels deep, has 43
    distinct nodes and 2**42 - 1 tree nodes: each distinct node's log is
    computed once, and the value is exactly 2**40 log(1.5) at x0 = 0.5,
    where the plain value overflows."""
    e = ex.add(ex.ONE, X)
    for _ in range(40):
        e = ex.mul(e, e)
    calls = {}
    log_one = jets._log_one

    def counted(node, *args):
        calls[id(node)] = calls.get(id(node), 0) + 1
        return log_one(node, *args)

    monkeypatch.setattr(jets, "_log_one", counted)
    lv = jets.eval_log_values(e, np.array([[0.5]]))
    assert len(calls) == 43 and set(calls.values()) == {1}
    assert lv[0] == 2.0**40 * math.log(1.5)


def test_log_values_evaluate_each_plain_node_once(monkeypatch):
    """Outside a run table, the plain values that 60 nested exp nodes read
    share one order-0 memo of the call: each node below them is evaluated
    once, not once per exp above it."""
    e = X
    for _ in range(60):
        e = ex.exp(e * ex.const(0.001))
    seen = {}
    eval_one = jets._eval_one

    def counted(node, pts, sp, memo):
        seen[node] = seen.get(node, 0) + 1
        return eval_one(node, pts, sp, memo)

    monkeypatch.setattr(jets, "_eval_one", counted)
    jets.eval_log_values(e, np.array([[0.5], [1.0]]))
    # x0, the constant, 60 products and the 59 inner exps
    assert len(seen) == 121 and set(seen.values()) == {1}


def test_log_values_of_a_deep_chain():
    """A 10,000-level chain e = sqrt(e**2) * e_const (40,001 nodes) has log
    log(x0) + 10,000, exactly at x0 = 1; its depth is not limited by
    recursion."""
    e = X
    for _ in range(10_000):
        e = ex.sqrt(ex.intpow(e, 2)) * ex.const(math.e)
    lv = jets.eval_log_values(e, np.array([[1.0], [2.0]]))
    assert lv[0] == 10_000.0
    assert lv[1] == pytest.approx(10_000.0 + math.log(2.0), rel=1e-12)


@pytest.mark.parametrize("order", [0, 2])
def test_eval_entries_walks_its_roots_once(order, monkeypatch):
    """One `eval_entries` call walks the DAG of all its roots once, and
    lists each distinct node once; within a run table, a second call at
    order 0 finds every node in the memo."""
    walks = []
    post_order = jets.post_order

    def spy(roots, done=()):
        nodes = post_order(roots, done)
        walks.append((list(roots), nodes))
        return nodes

    monkeypatch.setattr(jets, "post_order", spy)
    inner = ex.exp(X) * Y + X
    exprs = [inner, ex.recip(inner) + inner, ex.mul(inner, inner), inner]
    pts = np.array([[0.5, 0.25], [-1.0, 2.0]])
    with jets.run_table():
        for again in (False, True):
            walks.clear()
            jets.eval_entries(exprs, pts, order, nvars=2)
            assert len(walks) == 1
            roots, nodes = walks[0]
            assert all(r is e for r, e in zip(roots, exprs))
            assert len({id(n) for n in nodes}) == len(nodes)
            assert len(nodes) == (0 if again and not order else 8)


def test_grid_partitions_merge_deterministically():
    """Evaluating a partitioned batch yields exactly the full-batch tables:
    sweeps can be split across workers with deterministic merges."""
    e = ex.flat(X) * ex.bump(Y) + ex.recip(ex.const(1.5) + X**2)
    pts = np.linspace(-0.9, 0.9, 40).reshape(20, 2)
    full = jets.eval_jet_batch(e, pts, order=3, nvars=2)
    parts = [jets.eval_jet_batch(e, chunk, order=3, nvars=2)
             for chunk in np.array_split(pts, 4)]
    merged = np.concatenate([p.coef for p in parts], axis=1)
    assert (merged == full.coef).all()
    assert (np.concatenate([p.invalid for p in parts]) == full.invalid).all()


@pytest.mark.parametrize("nvars", range(1, 9))
@pytest.mark.parametrize("order", range(jets.MAX_ORDER + 1))
def test_mul_constant_operand_shortcut_matches_gather(nvars, order):
    sp = jets.space(nvars, order)
    rng = np.random.default_rng((nvars, order))
    const = sp.const_table(rng.normal(size=5))
    const2 = sp.const_table(rng.normal(size=5))
    dense = rng.normal(size=(sp.ncoef, 5))
    dense2 = rng.normal(size=(sp.ncoef, 5))
    for a, b in [(const, dense), (dense, const), (const, const2), (dense, dense2)]:
        got = sp.mul(a, b)
        assert got.shape == (sp.ncoef, 5)
        assert np.array_equal(got, mul_reduceat(sp, a, b))


def _assert_bitwise(got, want):
    """Equal values and NaN positions, and equal signs off NaN.

    The sign of a NaN made from two NaNs is not compared: numpy's loops keep
    either operand's NaN depending on where an element falls in a SIMD pass,
    so it follows the memory layout, not the summation order.  Non-finite
    columns are scrubbed as invalid before any result is read.
    """
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    real = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[real]), np.signbit(want[real]))


def _hostile_table(rng, ncoef, npts):
    """Rows graded from 1e-300 to 1e300, with signed zeros and subnormals
    throughout, and inf, -inf and NaN entries in columns 1, 2 and 3."""
    x = rng.normal(size=(ncoef, npts)) * np.logspace(-300, 300, ncoef)[:, None]
    r = rng.random((ncoef, npts))
    x[r < 0.1] = 0.0
    x[(r >= 0.1) & (r < 0.2)] = -0.0
    sub = (r >= 0.2) & (r < 0.3)
    x[sub] = 5e-324 * rng.integers(-8, 9, size=sub.sum())
    if npts > 3:
        x[r[:, 1] < 0.5, 1] = np.inf
        x[r[:, 2] < 0.5, 2] = -np.inf
        x[r[:, 3] < 0.5, 3] = np.nan
        x[r[:, 3] > 0.8, 3] = -np.inf
    return x


@pytest.mark.parametrize("npts", [0, 1, 37])
@pytest.mark.parametrize("nvars", range(1, 9))
@pytest.mark.parametrize("order", range(jets.MAX_ORDER + 1))
def test_mul_bitwise_equal_to_reduceat(nvars, order, npts):
    """The explicit summation order of `JetSpace.mul` is numpy's: equal to
    the gather/``reduceat`` product bit for bit, squares (``a is b``, as in
    `intpow`) included."""
    sp = jets.space(nvars, order)
    rng = np.random.default_rng((nvars, order, npts))
    a = _hostile_table(rng, sp.ncoef, npts)
    b = _hostile_table(rng, sp.ncoef, npts)
    if sp.ncoef > 1 and npts:
        a[1, 0] = b[1, 0] = 1.5  # no constant operand: the dense kernel runs
    with np.errstate(all="ignore"):
        for x, y in [(a, b), (b, a), (a, a)]:
            _assert_bitwise(sp.mul(x, y), mul_reduceat(sp, x, y))


def _blocked_operands(rng, sp, npts, width):
    """Hostile tables `a` and `b` of `npts` columns, both non-constant, with
    non-finite columns at the start and in the last block; and `c`, equal to
    `b` but constant in every other block of `width` columns, so its
    derivative rows vanish in some blocks only."""
    a = _hostile_table(rng, sp.ncoef, npts)
    b = _hostile_table(rng, sp.ncoef, npts)
    if npts > 4:
        a[0, -1], b[-1, -2] = np.inf, np.nan
    c = b.copy()
    for lo in range(0, npts, 2 * width):
        c[1:, lo:lo + width] = 0.0
    if npts > width:
        assert c[1:].any() and not c[1:, :width].any()
    return a, b, c


@pytest.mark.parametrize("kind", [None, "seminorm", "lone"])
@pytest.mark.parametrize("nvars, order", [(1, 4), (2, 2), (3, 4), (8, 1),
                                          (8, 3), (8, 4)])
def test_blocked_mul_equals_the_unblocked_kernel(nvars, order, kind):
    """`JetSpace.mul` runs its dense kernel on column blocks and gives the
    bits of one pass over the whole table, at widths around the block
    width, in full spaces and in support sub-spaces, with non-finite
    columns, and with an operand that is constant in some blocks only
    (the shortcut is decided over the whole table, never per block)."""
    sp = jets.space(nvars, order, None if kind is None
                    else _support(nvars, order, kind))
    width = max(1, jets._BLOCK // sp.ncoef)
    rng = np.random.default_rng((nvars, order, len(sp.multi)))
    with np.errstate(all="ignore"):
        for npts in (0, 1, width - 1, width, width + 1, 3 * width + 7):
            a, b, c = _blocked_operands(rng, sp, npts, width)
            for x, y in [(a, b), (b, a), (a, a), (a, c), (c, b)]:
                _assert_bitwise(sp.mul(x, y), mul_unblocked(sp, x, y))


@pytest.mark.parametrize("name", ["block-M7", "f-phi-psi", "grushin-2x2"])
def test_gallery_records_do_not_depend_on_the_block_size(name, monkeypatch):
    """Order-4 records of gallery matrices on their default grids are the
    same bits with dense products run in blocks of a few columns."""
    item = gallery.GALLERY[name]
    pts = item.default_grid().sample_points()
    want = item.build({}).entry_jets(pts, 4)
    monkeypatch.setattr(jets, "_BLOCK", 1 << 12)
    got = item.build({}).entry_jets(pts, 4)
    for g, w in zip(got, want):
        assert _same_bits(g, w)


@pytest.mark.parametrize("name", sorted(gallery.GALLERY))
def test_gallery_entry_jets_bitwise_equal_to_reduceat(name, monkeypatch):
    """Order-4 jets of every gallery matrix on its default grid are the same
    bits when every dense product is the gather/``reduceat`` form."""
    item = gallery.GALLERY[name]
    A = item.build({})
    pts = item.default_grid().sample_points()
    got, got_valid = entry_tables(A, pts, 4)
    mul = jets.JetSpace.mul

    def former_mul(sp, a, b):
        if not a[1:].any() or not b[1:].any():
            return mul(sp, a, b)  # the constant-operand shortcut
        return mul_reduceat(sp, a, b)

    monkeypatch.setattr(jets.JetSpace, "mul", former_mul)
    want, want_valid = entry_tables(A, pts, 4)
    assert np.array_equal(got_valid, want_valid)
    for key, jb in want.items():
        _assert_bitwise(got[key].coef, jb.coef)
        for flag in ("invalid", "poly_singular", "flat_zero"):
            assert np.array_equal(getattr(got[key], flag), getattr(jb, flag))
        _assert_bitwise(got[key].limit, jb.limit)


# ---------------------------------------------------------------------------
# Jet spaces with a support


def _support(nvars, order, kind):
    """Supports of total order `order`: the axis powers, the Holder seminorm
    set (axis powers and (2, 2, 0, ...) at order 4), one lone multiindex
    mixing the first and last variable, and every multiindex of the order."""
    def e(a, k):
        return tuple(k * (b == a) for b in range(nvars))

    axes = tuple(e(a, order) for a in range(nvars))
    if kind == "axes":
        return axes
    if kind == "seminorm":
        half = (order - order // 2, order // 2) + (0,) * (nvars - 2)
        return axes + ((half,) if nvars >= 2 else ())
    if kind == "lone":
        return ((1,) + (0,) * (nvars - 2) + (order - 1,),) if nvars >= 2 else axes
    return tuple(m for m in jets.space(nvars, order).multi if sum(m) == order)


SUPPORT_KINDS = ["axes", "seminorm", "lone", "full"]


@pytest.mark.parametrize("kind", SUPPORT_KINDS)
@pytest.mark.parametrize("nvars", range(1, 9))
@pytest.mark.parametrize("order", range(1, jets.MAX_ORDER + 1))
def test_support_space_is_the_closure_in_full_order(nvars, order, kind):
    support = _support(nvars, order, kind)
    full = jets.space(nvars, order)
    sub = jets.space(nvars, order, support)
    below = [m for m in full.multi
             if any(all(a <= b for a, b in zip(m, mu)) for mu in support)]
    assert sub.multi == tuple(below)
    if kind == "full":
        assert sub.multi == full.multi


@pytest.mark.parametrize("kind", SUPPORT_KINDS)
@pytest.mark.parametrize("nvars", range(1, 9))
@pytest.mark.parametrize("order", range(1, jets.MAX_ORDER + 1))
def test_mul_in_a_support_is_the_restriction_of_the_full_product(nvars, order,
                                                                 kind):
    """Row k of a product only reads rows below k, so on operands that are
    not constant in the sub-space the product is the restriction of the
    full one, bit for bit, on hostile tables."""
    full = jets.space(nvars, order)
    sub = jets.space(nvars, order, _support(nvars, order, kind))
    rows = [full.pos[m] for m in sub.multi]
    rng = np.random.default_rng((nvars, order, len(rows)))
    a = _hostile_table(rng, full.ncoef, 37)
    b = _hostile_table(rng, full.ncoef, 37)
    a[rows[1], 0] = b[rows[1], 0] = 1.5  # not constant in the sub-space
    with np.errstate(all="ignore"):
        for x, y in [(a, b), (b, a), (a, a)]:
            _assert_bitwise(sub.mul(x[rows], y[rows]), full.mul(x, y)[rows])


@pytest.mark.parametrize("kind", SUPPORT_KINDS)
@pytest.mark.parametrize("nvars", range(1, 9))
@pytest.mark.parametrize("order", range(1, jets.MAX_ORDER + 1))
def test_mul_shortcut_in_a_support_differs_only_in_the_sign_of_zero(nvars,
                                                                     order,
                                                                     kind):
    """An operand constant in the kept rows but not in the dropped ones
    takes the constant-operand shortcut in the sub-space only.  On finite
    columns the product then differs from the full one at most in the sign
    of a zero; the other columns are non-finite (so scrubbed) in both."""
    full = jets.space(nvars, order)
    sub = jets.space(nvars, order, _support(nvars, order, kind))
    rows = [full.pos[m] for m in sub.multi]
    rng = np.random.default_rng((nvars, order, len(rows), 1))
    a = _hostile_table(rng, full.ncoef, 37)
    b = _hostile_table(rng, full.ncoef, 37)
    a[rows[1:]] = 0.0
    a[sorted(set(range(full.ncoef)) - set(rows)), 0] = 1.5
    b[rows[1], 0] = 1.5
    with np.errstate(all="ignore"):
        for x, y in [(a, b), (b, a)]:
            got, want = sub.mul(x[rows], y[rows]), full.mul(x, y)[rows]
            fin = np.isfinite(got).all(axis=0)
            assert np.array_equal(fin, np.isfinite(want).all(axis=0))
            assert np.array_equal(got[:, fin], want[:, fin])


def test_scrub_ignores_non_finite_values_in_dropped_rows():
    """exp(1e80 * y) at y = 1e-80 has finite x-derivatives but a fourth
    y-derivative of 1e320 * e: the full jet is invalid there, the jet on
    the x-axis powers is valid, and y seeds no derivative in it."""
    f = ex.exp(ex.const(1e80) * Y)
    pts = np.array([[0.3, 1e-80], [0.1, 2e-80]])
    full = jets.eval_jet_batch(f, pts, 4, nvars=2)
    sub = jets.eval_jet_batch(f, pts, 4, nvars=2, support=[(4, 0)])
    assert full.invalid.all() and not sub.invalid.any()
    assert np.array_equal(sub.values, jets.eval_jet_batch(f, pts, 3).values)
    assert sub.derivative((4, 0)).tolist() == [0.0, 0.0]


def test_bad_multiindices_are_named_errors():
    jb = jets.eval_jet_batch(X * Y, [[0.5, 0.25]], 4, support=[(2, 2)])
    assert jb.derivative((1, 1)).tolist() == [1.0]
    with pytest.raises(ex.VariableCountError):
        jb.derivative((1, 1, 0))
    with pytest.raises(ValueError, match="exceeds order"):
        jb.derivative((3, 2))
    with pytest.raises(ValueError, match="outside the support"):
        jb.derivative((3, 0))
    with pytest.raises(ValueError, match="non-negative integer"):
        jb.derivative((-1, 5))
    with pytest.raises(ValueError, match="gradient"):
        jets.eval_jet_batch(X * Y, [[0.5, 0.25]], 4, support=[(4, 0)]).gradient()
    full = jets.eval_jet_batch(X * Y, [[0.5, 0.25]], 4)
    with pytest.raises(ValueError, match="exceeds order"):
        full.derivative((3, 2))
    with pytest.raises(ex.VariableCountError):
        full.derivative((4,))


@pytest.mark.parametrize("support, error", [
    ([(-1, 5)], ValueError),
    ([(1, 0.5)], ValueError),
    ([(True, 0)], ValueError),
    ([(3, 2)], ValueError),
    ([], ValueError),
    ([(1, 1, 0)], ex.VariableCountError),
    ([(2,)], ex.VariableCountError),
])
def test_supports_are_validated_when_their_space_is_built(support, error):
    with pytest.raises(error):
        jets.eval_jet_batch(X * Y, [[0.5, 0.25]], 4, support=support)


def test_seminorm_support_in_8_variables_builds_only_its_closure(monkeypatch):
    """The closure is the union of the boxes below each multiindex: 49
    tuples for the 8-variable seminorm set, not the 5**8 of the full cube."""
    iproduct = jets._iproduct
    made = []

    def counted(*ranges):
        for m in iproduct(*ranges):
            made.append(m)
            yield m

    monkeypatch.setattr(jets, "_iproduct", counted)
    sp = jets.JetSpace(8, 4, _support(8, 4, "seminorm"))
    assert len(made) == 8 * 5 + 9
    assert sp.ncoef == 37
    assert list(sp.multi) == sorted(sp.multi, key=lambda m: (sum(m), m))
    assert sp.multi[0] == (0,) * 8 and sp.multi[-1] == (4,) + (0,) * 7


# ---------------------------------------------------------------------------
# Evaluation restricted to the variables a node reads


def _full_space(monkeypatch):
    """Evaluate every node in the caller's whole jet space."""
    monkeypatch.setattr(jets, "_restrict", lambda sp, vmask: (sp, None))


def _assert_same_up_to_zero_sign(got, want):
    """Equal values and NaN positions, and equal signs where non-zero."""
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    nz = (want != 0) & ~np.isnan(want)
    assert np.array_equal(np.signbit(got[nz]), np.signbit(want[nz]))


def _assert_same_jet(got, want):
    assert got.space is want.space
    _assert_same_up_to_zero_sign(got.coef, want.coef)
    for flag in ("invalid", "poly_singular", "flat_zero"):
        assert np.array_equal(getattr(got, flag), getattr(want, flag))
    _assert_same_up_to_zero_sign(got.limit, want.limit)


def test_block_m7_entries_read_at_most_4_of_7_variables():
    A = gallery.GALLERY["block-M7"].build({})
    masks = [e.vmask for _, e in A.upper_entries()]
    assert A.nvars == 7
    assert max(bin(m).count("1") for m in masks) <= 4
    sp = jets.space(7, 4)
    assert {jets._restrict(sp, m)[0].ncoef for m in masks} <= {1, 5, 15, 35, 70}


@pytest.mark.parametrize("order", range(jets.MAX_ORDER + 1))
@pytest.mark.parametrize("name", sorted(gallery.GALLERY))
def test_gallery_entry_jets_equal_full_space_evaluation(name, order,
                                                       monkeypatch):
    item = gallery.GALLERY[name]
    A = item.build({})
    pts = item.default_grid().sample_points()
    got, got_valid = entry_tables(A, pts, order)
    _full_space(monkeypatch)
    want, want_valid = entry_tables(A, pts, order)
    assert np.array_equal(got_valid, want_valid)
    for key, jb in want.items():
        _assert_same_jet(got[key], jb)


@pytest.mark.parametrize("name", sorted(gallery.GALLERY))
def test_pair_records_equal_full_space_evaluation(name, monkeypatch):
    item = gallery.GALLERY[name]
    grid = item.default_grid()
    nv = item.build({}).nvars
    mus = [tuple(4 * (a == b) for a in range(nv)) for b in range(nv)]
    mus += [(2, 2) + (0,) * (nv - 2)] if nv > 1 else [(3,)]

    def rows():
        A = item.build({})
        center = A.sampled(grid).pts[0]
        return jets.eval_ladders([e for _, e in A.upper_entries()],
                                 *grid.sample_pairs([center]), 4, nv, mus)

    got = rows()
    _full_space(monkeypatch)
    want = rows()
    m = len(list(item.build({}).upper_entries()))
    assert [g.shape[:2] for g in got] == [(m, 1)] * 2 + [(m, len(mus))] * 2
    for g, w in zip(got, want):
        _assert_same_up_to_zero_sign(g, w)


def _hostile_points():
    axis = [-1.0, -0.0, 0.0, 0.5, 2.0]
    return np.array([(a, b, c) for a in axis for b in axis for c in axis])


Z = ex.var(2)
R = ex.sqrt(X**2 + Y**2)
HOSTILE = {
    "exp overflow": ex.exp(800.0 * X) * Y + Z,
    "exp overflow squared": ex.exp(400.0 * X) ** 2 * (Y - Z),
    "sqrt interior zero": ex.sqrt(X**2) * Y,
    "sqrt interior zero at the root": ex.sqrt(X**2 + Y**2),
    "flat of sqrt zero": ex.flat(R) * Z + ex.sqrt(Y**2 + Z**2),
    "flat annihilates bump": ex.flat(R) * ex.bump(Z / R),
    "flatabs annihilates recip": ex.flatabs(X) * ex.recip(X**2) * Y,
    "const subtree under exp": ex.exp(ex.const(2.0) * ex.const(3.0)) * Y,
    "const overflow under exp": ex.exp(ex.const(800.0)) * Y + X,
    "sqrt of const zero": ex.sqrt(ex.const(0.0)) + Z,
    "negative zero sums": (-X) * Y + X * Y - Z * 0.0,
}


@pytest.mark.parametrize("support", [None, ((2, 0, 0), (0, 1, 1)), ((0, 0, 3),)])
@pytest.mark.parametrize("order", range(jets.MAX_ORDER + 1))
def test_hostile_expressions_equal_full_space_evaluation(order, support,
                                                         monkeypatch):
    pts = _hostile_points()
    if support is not None and max(sum(m) for m in support) > order:
        support = ((0, 0, order),)
    exprs = list(HOSTILE.values())
    got = jets.eval_entries(exprs, pts, order, nvars=3, support=support)
    _full_space(monkeypatch)
    want = jets.eval_entries(exprs, pts, order, nvars=3, support=support)
    for g, w in zip(got, want):
        _assert_same_jet(g, w)
    if order == jets.MAX_ORDER:
        assert any(w.invalid.any() for w in want)
        assert any(w.flat_zero.any() for w in want)
        assert any((w.limit == 0.0).any() for w in want)


@pytest.mark.parametrize("support", [None, ((2, 0, 0), (0, 1, 1)), ((0, 0, 3),)])
@pytest.mark.parametrize("order", range(jets.MAX_ORDER + 1))
def test_hostile_expressions_do_not_depend_on_the_rest_of_the_stack(order,
                                                                    support):
    """Evaluated on a stack of point blocks, every block's columns equal the
    evaluation of that block alone, up to the sign of a zero.  Blocks of
    one point, repeated blocks and blocks out of order included."""
    pts = _hostile_points()
    if support is not None and max(sum(m) for m in support) > order:
        support = ((0, 0, order),)
    blocks = [pts[60:], pts[:1], pts[1:60], pts[:25], pts[7:8]]
    exprs = list(HOSTILE.values())
    stacked = jets.eval_entries(exprs, np.concatenate(blocks), order,
                                nvars=3, support=support)
    lo = 0
    for block in blocks:
        cols = slice(lo, lo + len(block))
        lo = cols.stop
        alone = jets.eval_entries(exprs, block, order, nvars=3,
                                  support=support)
        for jb, want in zip(stacked, alone):
            got = jets.JetBatch(jb.space, jb.coef[:, cols], jb.invalid[cols],
                                jb.poly_singular[cols], jb.flat_zero[cols],
                                jb.limit[cols])
            _assert_same_jet(got, want)


C = ex.const(3.0)
PRODUCTS = {
    "constant last": [X, C],
    "constant first": [C, X],
    "constants only": [C, ex.const(-0.5)],
    "disjoint": [X, Y],
    "disjoint chain": [X, Y, Z],
    "disjoint blocks": [X * Y, Z],
    "shared": [X * Y, Y * Z],
    "disjoint then shared": [X, Y, X * Z],
    "mixed": [C, X * Y, ex.const(-0.5), Z, Y * Z, X],
}


def _factor_table(rng, ncoef, npts):
    """Rows graded from 1e-20 to 1e20, with signed zeros throughout, and
    inf, -inf and NaN entries in columns 1, 2 and 3.  A one-row table (a
    constant factor) is +0.0 in columns 1 and 5 and -0.0 in 2 and 6."""
    x = rng.normal(size=(ncoef, npts)) * np.logspace(-20, 20, ncoef)[:, None]
    r = rng.random((ncoef, npts))
    x[r < 0.15] = 0.0
    x[r > 0.85] = -0.0
    if ncoef == 1:
        x[0, [1, 2, 5, 6]] = [0.0, -0.0, 0.0, -0.0]
        return x
    x[r[:, 1] < 0.5, 1] = np.inf
    x[r[:, 2] < 0.5, 2] = -np.inf
    x[r[:, 3] < 0.5, 3] = np.nan
    return x


@pytest.mark.parametrize("mode", ["restricted", "full space"])
@pytest.mark.parametrize("support", [None, ((2, 0, 0), (0, 1, 1)), ((0, 0, 3),)])
@pytest.mark.parametrize("order", range(jets.MAX_ORDER + 1))
@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_structural_products_equal_the_dense_product(name, order, support,
                                                     mode, monkeypatch):
    """A product taken factor by factor (a constant scales, disjoint
    variables multiply as an outer product, shared ones run the dense
    kernel) equals the fold of the dense product over the factors lifted
    into the node's space, up to the sign of a zero, with the same
    non-finite columns: in full spaces, support sub-spaces and with every
    node in the caller's whole space, on tables with inf and NaN columns
    and constant factors of +-0.0."""
    node = ex.mul(*PRODUCTS[name])
    if support is not None and max(sum(m) for m in support) > order:
        support = ((0, 0, order),)
    restrict = jets._restrict  # the lift of the reference, also once patched
    if mode == "full space":
        _full_space(monkeypatch)
    caller = jets.space(3, order, support)
    sp = jets._restrict(caller, node.vmask)[0]
    rng = np.random.default_rng(sorted(PRODUCTS).index(name))
    npts = 37
    kids, want = [], None
    with np.errstate(all="ignore"):
        for f in node.children:
            table = _factor_table(rng, restrict(caller, f.vmask)[0].ncoef,
                                  npts)
            rows = restrict(sp, f.vmask)[1]
            lifted = np.zeros((sp.ncoef, npts))
            lifted[slice(None) if rows is None else rows] = table
            kids.append(jets.JetBatch(jets._restrict(caller, f.vmask)[0],
                                      table if mode == "restricted"
                                      else lifted))
            want = lifted if want is None else mul_unblocked(sp, want, lifted)
        got = jets._product(node.children, kids, sp)
    fin = np.isfinite(want).all(axis=0)
    assert fin.any()
    assert np.array_equal(np.isfinite(got).all(axis=0), fin)
    _assert_same_up_to_zero_sign(got[:, fin], want[:, fin])


def test_f_phi_psi_products_reach_the_kernel_only_on_shared_variables(
        monkeypatch):
    """f-phi-psi's order-4 record sends `JetSpace.mul` no operand that is
    constant, and its dense kernel no pair of tables whose non-zero rows
    read disjoint variables: constant factors scale, and factors in
    disjoint variables multiply as outer products (taking a product from
    the seed 1 over the whole space made 38 and 32 such calls)."""
    mul, dense = jets.JetSpace.mul, jets.JetSpace._dense
    seen = {"constant": 0, "disjoint": 0, "dense": 0}

    def reads(sp, t):
        return {a for k in np.flatnonzero(t.any(axis=1))
                for a, e in enumerate(sp.multi[k]) if e}

    def spy_mul(sp, a, b):
        seen["constant"] += not (a[1:].any() and b[1:].any())
        return mul(sp, a, b)

    def spy_dense(sp, a, b, out=None):
        seen["dense"] += 1
        seen["disjoint"] += not reads(sp, a) & reads(sp, b)
        return dense(sp, a, b, out)

    monkeypatch.setattr(jets.JetSpace, "mul", spy_mul)
    monkeypatch.setattr(jets.JetSpace, "_dense", spy_dense)
    item = gallery.GALLERY["f-phi-psi"]
    item.build({}).sampled(item.default_grid(), 4)
    assert seen["dense"] and not seen["constant"] and not seen["disjoint"]


def _same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("support", [None, ((2, 0, 0), (0, 1, 1))])
@pytest.mark.parametrize("order", range(jets.MAX_ORDER + 1))
def test_root_reads_equal_reads_of_its_full_table(order, support):
    """A root evaluated in the rows of its variables gives the values,
    derivatives, gradient and per-order maxima of its full table, bit for
    bit, without building that table."""
    if support is not None and max(sum(m) for m in support) > order:
        support = None
    pts = _hostile_points()
    exprs = list(HOSTILE.values()) + [X, ex.exp(Y) * ex.const(-0.0)]
    jbs = jets.eval_entries(exprs, pts, order, nvars=3, support=support)
    # at order 0 every restriction is the whole one-row space
    assert any(jb.kept()[0] is not jb.space for jb in jbs) is (order > 0)
    multi = list(jbs[0].space.multi)
    rows = jets.derivative_rows(jbs, multi[::-1])
    for jb, d in zip(jbs, rows):
        full = jets.JetBatch(jb.space, jb.coef.copy(), jb.invalid,
                             jb.poly_singular, jb.flat_zero, jb.limit)
        assert _same_bits(jb.values, full.values)
        for m in range(order + 1):
            assert _same_bits(jb.max_abs_of_order(m), full.max_abs_of_order(m))
        for k, mu in enumerate(multi[::-1]):
            assert _same_bits(jb.derivative(mu), full.derivative(mu))
            assert _same_bits(d[k], full.derivative(mu))
        if support is None and order:
            assert _same_bits(jb.gradient(), full.gradient())


def test_nodes_are_evaluated_in_the_space_of_their_variables():
    memo = {}
    e = X * Y + ex.exp(ex.const(2.0))
    jb, = jets._evaluate([e], _hostile_points(), jets.space(3, 4), memo)
    assert jb.space is jets.space(3, 4)
    assert memo[X].space.multi == tuple((k, 0, 0) for k in range(5))
    assert memo[e.children[1]].space.ncoef == 1
    assert memo[e].space.ncoef == 15
    assert not jb.coef[[m[2] > 0 for m in jb.space.multi]].any()


@pytest.mark.parametrize("order", [0, 2])
def test_deep_chain_evaluates_without_recursion(order):
    """A 10,000-level chain of reciprocals evaluates without hitting the
    recursion limit, and its value is the plain float recurrence."""
    e, v, x = X, 0.3, 0.3
    for _ in range(10_000):
        e = ex.recip(1.0 + 0.5 * e)
        v = 1.0 / (1.0 + 0.5 * v)
    jb = jets.eval_jet_batch(e, [[x]], order)
    assert not jb.invalid[0]
    assert jb.values[0] == pytest.approx(v, rel=1e-14, abs=0.0)


def test_orders_above_the_space_are_named_errors():
    """A per-order maximum above the order of the requested space, or not
    an integer order at all, is a named error and not a silent 0.0; so is
    the gradient of an order-0 jet."""
    j = jets.eval_jet(ex.exp(X), [0.5], order=2)
    assert j.max_abs_of_order(2) == pytest.approx(math.exp(0.5), rel=1e-15)
    # a root read in the rows of x0 only: the bound is the requested space's
    jb = jets.eval_jet_batch(ex.exp(X), [[0.5, 0.25]], 2, nvars=2)
    assert jb.kept()[0] is not jb.space
    assert jb.max_abs_of_order(2)[0] == j.max_abs_of_order(2)
    for jet in (j, jb):
        for m in (3, -1, 2.0, True):
            with pytest.raises(ValueError):
                jet.max_abs_of_order(m)
    for jet in (jets.eval_jet(X, [0.5], order=0),
                jets.eval_jet_batch(X * Y, [[0.5, 0.25]], 0)):
        with pytest.raises(ValueError, match="order-0"):
            jet.gradient()


MIXED = {
    "recip at 0": ex.recip(X) * Y + Y,
    "sqrt of a negative": ex.sqrt(X) * ex.exp(Y),
    "flat(r) / r annihilated at r = 0": ex.flat(R) * ex.recip(R),
    "overflow of clean factors": X * X * Y,
    "clean": X * Y + ex.exp(Y) ** 3,
}


@pytest.mark.parametrize("order", range(jets.MAX_ORDER + 1))
def test_mixed_stack_columns_equal_their_one_point_evaluations(order):
    """Clean columns stacked with failing ones (a reciprocal at 0, sqrt of a
    negative, flat(r) * (1/r) annihilated at r = 0, a product of clean
    factors that overflows): every column's table
    equals its one-point evaluation bit for bit, and so do its three flags
    and `limit`."""
    pts = np.array([[0.5, 0.25], [0.0, 0.5], [-0.5, -1.0], [0.0, 0.0],
                    [2.0, -0.0], [-0.0, 0.0], [0.25, 1.5], [1e200, 0.5]])
    for name, e in MIXED.items():
        stacked = jets.eval_jet_batch(e, pts, order, nvars=2)
        for c, p in enumerate(pts):
            alone = jets.eval_jet_batch(e, p[None, :], order, nvars=2)
            _assert_bitwise(stacked.coef[:, c:c + 1], alone.coef)
            for flag in ("invalid", "poly_singular", "flat_zero"):
                assert getattr(stacked, flag)[c] == getattr(alone, flag)[0]
            _assert_bitwise(stacked.limit[c:c + 1], alone.limit)
        assert stacked.clean is (name == "clean")
    failed = {name: jets.eval_jet_batch(e, pts, 1, nvars=2).invalid
              for name, e in MIXED.items()}
    assert failed["recip at 0"][1] and failed["sqrt of a negative"][2]
    assert failed["overflow of clean factors"].tolist() == [False] * 7 + [True]
    annihilated = jets.eval_jet_batch(MIXED["flat(r) / r annihilated at r = 0"],
                                      pts, order, nvars=2)
    assert annihilated.flat_zero[3] and not annihilated.invalid[3]


def test_clean_jets_share_read_only_flags():
    pts = np.array([[0.5, 0.25], [1.0, -2.0]])
    a = jets.eval_jet_batch(X * Y, pts, 2)
    b = jets.eval_jet_batch(ex.exp(X) + Y, pts, 0)
    assert a.clean and b.clean
    assert a.invalid is b.invalid is a.flat_zero is b.poly_singular
    assert np.isnan(a.limit).all() and a.limit is b.limit
    for arr in (a.invalid, a.poly_singular, a.flat_zero, a.limit, a.values):
        with pytest.raises(ValueError):
            arr[0] = 1
    # all-False flags that are not the shared arrays evaluate the same
    own = jets.JetBatch(b.space, b.coef.copy(), np.zeros(2, dtype=bool),
                        np.zeros(2, dtype=bool), np.zeros(2, dtype=bool))
    assert not own.clean and np.isnan(own.limit).all()


def test_run_table_serves_order_0_jets_within_a_block():
    pts = np.array([[0.5, 0.25], [1.0, -2.0]])
    e = ex.exp(X) * Y + X
    assert jets.eval_jet_batch(e, pts, 0) is not jets.eval_jet_batch(e, pts, 0)
    with jets.run_table():
        first = jets.eval_jet_batch(e, pts, 0)
        assert jets.eval_entries([X, e], pts, 0)[1] is first
        assert jets.eval_jet_batch(e, pts.copy(), 0) is first
        with jets.run_table():
            assert jets.eval_jet_batch(e, pts, 0) is not first
        # another space, other points, or order >= 1: evaluated again
        assert jets.eval_jet_batch(e, pts, 0, support=[(0, 0)]) is not first
        assert jets.eval_jet_batch(e, pts[::-1], 0) is not first
        assert (jets.eval_jet_batch(e, pts, 1) is not
                jets.eval_jet_batch(e, pts, 1))
    assert jets.eval_jet_batch(e, pts, 0) is not first


# ---------------------------------------------------------------------------
# Tables freed after their last reader


def _same_jet_bytes(got, want):
    """The kept rows, flags and limit of two jets, bit for bit."""
    (gsp, gcoef), (wsp, wcoef) = got.kept(), want.kept()
    return (got.space is want.space and gsp is wsp
            and gcoef.tobytes() == wcoef.tobytes()
            and all(getattr(got, f).tobytes() == getattr(want, f).tobytes()
                    for f in ("invalid", "poly_singular", "flat_zero",
                              "limit")))


def _memos(monkeypatch):
    """One entry per `jets._evaluate` call, in call order: the memo that
    `jets._eval_one` read the children's jets from in that call."""
    memos, inside = [], []
    evaluate, eval_one = jets._evaluate, jets._eval_one

    def spy(exprs, pts, sp, memo, consume=None):
        memos.append(None)
        inside.append(True)
        try:
            return evaluate(exprs, pts, sp, memo, consume)
        finally:
            inside.pop()

    def spy_one(node, pts, sp, memo):
        if inside:
            memos[-1] = memo
        return eval_one(node, pts, sp, memo)

    monkeypatch.setattr(jets, "_evaluate", spy)
    monkeypatch.setattr(jets, "_eval_one", spy_one)
    return memos


@pytest.mark.parametrize("order", [0, 1, jets.MAX_ORDER])
@pytest.mark.parametrize("name", sorted(gallery.GALLERY))
def test_freed_tables_equal_a_keep_everything_memo(name, order, monkeypatch):
    """Outside a run table, the entries of every gallery matrix on its
    default grid equal, bit for bit, those of a memo that keeps every
    node's table; the memo of the call is empty when it returns."""
    item = gallery.GALLERY[name]
    A = item.build({})
    pts = item.default_grid().sample_points()
    exprs = [e for _, e in A.upper_entries()]
    memos = _memos(monkeypatch)
    got = jets.eval_entries(exprs, pts, order, nvars=A.nvars)
    want = keep_everything_entries(exprs, pts, order, A.nvars)
    assert all(_same_jet_bytes(g, w) for g, w in zip(got, want))
    assert memos == [{}]  # one call for all roots, its memo empty after it


def _chain(depth):
    e = X
    for _ in range(depth):
        e = ex.recip(1.0 + 0.5 * e) * Y
    return e


@pytest.mark.parametrize("order", [0, 1, jets.MAX_ORDER])
def test_freed_tables_keep_repeated_and_nested_roots(order, monkeypatch):
    """A root listed twice, a root that is also a child of another root
    (before and after it), a product of a node with itself, and a chain
    deeper than the recursion limit: every jet equals the keep-everything
    memo's, bit for bit, and no table outlives the call."""
    pts = np.array([[0.5, 0.25], [0.0, -1.0], [-0.0, 0.0], [2.0, 1e-200]])
    inner = ex.exp(X) * Y + X
    outer = ex.recip(inner) + inner
    square = ex.mul(inner, inner)
    assert square.children[0] is square.children[1]
    chain = _chain(3000)
    memos = _memos(monkeypatch)
    for exprs in ([inner, inner], [inner, outer], [outer, inner],
                  [square, inner, square], [X, ex.mul(X, X)], [chain]):
        memos.clear()
        got = jets.eval_entries(exprs, pts, order, nvars=2)
        want = keep_everything_entries(exprs, pts, order, 2)
        assert all(_same_jet_bytes(g, w) for g, w in zip(got, want))
        # one call for all roots, and the repeated root is the same jet
        assert memos == [{}]
        if exprs[0] is exprs[-1]:
            assert got[0] is got[-1]


def test_eval_entries_holds_only_its_live_frontier(monkeypatch):
    """While a node is evaluated, the memo holds no table that no later
    node or root reads.  For a balanced product tree of 16 leaves
    exp((k + 1) x0) it holds x0, one finished operand per level of the
    tree (4) and one factor of the leaf being built: at most 6 tables,
    where keeping every table reaches 63."""
    leaves = [ex.exp(X * (k + 1)) for k in range(16)]
    level = leaves
    while len(level) > 1:
        level = [a * b for a, b in zip(level[::2], level[1::2])]
    sizes = []
    eval_one = jets._eval_one

    def counted(node, pts, sp, memo):
        sizes.append(len(memo))
        return eval_one(node, pts, sp, memo)

    monkeypatch.setattr(jets, "_eval_one", counted)
    jets.eval_entries(level, np.array([[0.5], [0.25]]), 2, nvars=1)
    assert len(sizes) == 64 and max(sizes) == 6


def test_order_4_matrix_build_peak_memory():
    """The tracemalloc peak of building f-phi-psi's order-4 record on its
    default grid (2,052 points) stays at 12 MB: the memo holds the live
    frontier of the walk, each entry's jet is read into the record as it
    completes and then dropped, and a dense product runs in column blocks
    (keeping every table peaked at 30.7 MB, the frontier alone at 13.8
    MB)."""
    item = gallery.GALLERY["f-phi-psi"]
    A, grid = item.build({}), item.default_grid()
    pts = grid.sample_points()
    A.entry_jets(pts[:2], 4)  # the jet spaces of the entries, built once
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        rec = A.sampled(grid, 4)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(rec.pts) == len(pts) == 2052
    assert peak <= 12e6, f"peak {peak / 1e6:.1f} MB"


_UNARY = {
    "recip": ex.recip, "sqrt": ex.sqrt, "exp": ex.exp, "flat": ex.flat,
    "flatabs": ex.flatabs, "bump": ex.bump,
    "intpow": lambda u: ex.intpow(u, -3),
}


@pytest.mark.parametrize("order", range(jets.MAX_ORDER + 1))
@pytest.mark.parametrize("kind", sorted(_UNARY))
def test_clean_compositions_equal_the_flag_algebra(kind, order):
    """A unary primitive of a clean child equals, bit for bit, the same
    composition of that child with its all-False flags as its own arrays
    (which runs the flag algebra); the result is clean exactly when no
    column is flagged.  The hostile points hit every domain edge: zeros of
    both signs, negatives, |u| >= 1, underflow and overflow; on the tame
    ones no column is flagged."""
    vals = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 1e-200, -1e-200,
            1e-160, 1e200, 0.03, -700.0]
    hostile = np.array([[v, w] for v in vals for w in (0.5, -0.25)])
    tame = np.array([[0.25, 0.5], [0.5, 0.25], [0.5, -0.25]])
    u = X * Y + X  # a clean child with non-zero derivative rows
    sp = jets.space(2, order)
    node = _UNARY[kind](u)
    for pts, flagged in ((hostile, True), (tame, False)):
        child = jets.eval_jet_batch(u, pts, order)
        assert child.clean
        no = np.zeros(len(pts), dtype=bool)
        own = jets.JetBatch(child.space, child.coef, no, no.copy(), no.copy())
        with np.errstate(all="ignore"):
            fast = jets._compose(node, child, sp)
            slow = jets._compose(node, own, sp)
        assert _same_jet_bytes(fast, slow)
        assert bool(fast.invalid.any() or fast.flat_zero.any()) is flagged
        assert fast.clean is not flagged
