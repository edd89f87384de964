"""The sampled and pair records: one evaluation of a matrix per grid and
order, and of each entry per seminorm center and side."""

import numpy as np
import pytest

from matsos import decompose, gallery, jets
from matsos import expr as ex
from matsos.grids import GridSpec
from matsos.matfun import SymMatFun
from matsos.monotone import holder_seminorm
from matsos.report import run_config

X0, X1 = ex.var(0), ex.var(1)


def _same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _stacks_from_tables(A, pts, order):
    """values, grad and dmax written out entry by entry from the jet tables."""
    ejets, valid = A.entry_jets(pts, order=order)
    S, n, nv = len(pts), A.n, A.nvars
    values = np.zeros((S, n, n))
    grad = np.zeros((S, nv, n, n))
    dmax = np.zeros((order + 1, S, n, n))
    for i in range(n):
        for j in range(n):
            jb = ejets[(min(i, j), max(i, j))]
            values[:, i, j] = jb.values
            if not order:
                continue
            sp = jb.space
            for a in range(nv):
                grad[:, a, i, j] = jb.derivative([int(b == a) for b in range(nv)])
            d = np.abs(jb.derivatives())
            for m in range(order + 1):
                dmax[m, :, i, j] = d[sp.total == m].max(axis=0)
    return valid, values, grad, dmax


@pytest.mark.parametrize("order", [0, 1, 4])
@pytest.mark.parametrize("name", sorted(gallery.GALLERY))
def test_record_equals_stacks_of_entry_jets(name, order):
    item = gallery.GALLERY[name]
    A = item.build({})
    grid = item.default_grid()
    rec = A.sampled(grid, order)
    assert A.sampled(grid, order) is rec
    assert _same_bits(rec.pts, grid.sample_points())
    valid, values, grad, dmax = _stacks_from_tables(A, rec.pts, order)
    assert np.array_equal(rec.valid, valid)
    assert _same_bits(rec.values, values)
    if order:
        assert _same_bits(rec.grad, grad) and _same_bits(rec.dmax, dmax)
    else:
        assert rec.grad is None and rec.dmax is None
    for a in rec:
        if a is not None:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a.reshape(-1)[:1] = 0


def _config(name, pipeline):
    nvars = gallery.GALLERY[name].nvars
    return {
        "version": 1,
        "matrix": {"gallery": name},
        "pipeline": pipeline,
        "params": {"p": 5 if name == "block-M7" else 3, "epsilon": 0.3},
        "grid": {"box": [[-0.9, 0.9]] * nvars, "resolution": 9,
                 "max_points": 40, "exclude_radius": 0.25},
    }


@pytest.mark.parametrize("pipeline", ["gallery", "all"])
@pytest.mark.parametrize("name", ["f-phi-psi", "block-M7"])
def test_each_matrix_points_and_order_is_evaluated_once(name, pipeline,
                                                       monkeypatch):
    entry_jets = SymMatFun.entry_jets
    seen = {}

    def counted(A, points, order=0):
        key = (id(A), np.asarray(points, dtype=float).tobytes(), order)
        assert key not in seen, f"{A.n}x{A.n} matrix evaluated again at order {order}"
        seen[key] = A  # keeps the id from being reused
        return entry_jets(A, points, order=order)

    monkeypatch.setattr(SymMatFun, "entry_jets", counted)
    run_config(_config(name, pipeline))
    assert seen


def _report(cfg):
    report, code = run_config(cfg)
    del report["timing"]
    return report, code


@pytest.mark.parametrize("pipeline", ["gallery", "all"])
@pytest.mark.parametrize("name", sorted(gallery.GALLERY))
def test_reports_equal_rebuilding_on_every_call(name, pipeline, monkeypatch):
    cfg = _config(name, pipeline)
    want = _report(cfg)
    monkeypatch.setattr(SymMatFun, "sampled",
                        lambda A, grid, order=0:
                        A._stacks(grid.sample_points(), order))
    assert _report(cfg) == want


@pytest.mark.parametrize("name", sorted(gallery.GALLERY))
def test_pair_record_equals_rows_of_entry_jets(name):
    item = gallery.GALLERY[name]
    A = item.build({})
    grid = item.default_grid()
    center = A.sampled(grid).pts[0]
    nv = A.nvars
    mus = [tuple(4 * (a == b) for a in range(nv)) for b in range(nv)]
    keys = [key for key, _ in A.upper_entries()]
    rec = A.paired(grid, center, mus, keys[:1])
    assert A.paired(grid, center, mus, keys) is rec
    assert list(rec.rows) == keys
    Y, Z = grid.sample_pairs(center)
    assert _same_bits(rec.Y, Y) and _same_bits(rec.Z, Z)
    for key in keys:
        inv_y, inv_z, dys, dzs = rec.rows[key]
        for P, inv, ds in ((Y, inv_y, dys), (Z, inv_z, dzs)):
            jb = jets.eval_jet_batch(A.entry(*key), P, 4, nvars=nv)
            assert np.array_equal(inv, jb.invalid)
            assert _same_bits(ds, np.array([jb.derivative(mu) for mu in mus]))
        for a in (rec.Y, rec.Z) + rec.rows[key]:
            assert not a.flags.writeable


def _same_up_to_zero_sign(a, b):
    nz = (b != 0) & ~np.isnan(b)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a[nz]), np.signbit(b[nz])))


@pytest.mark.parametrize("name", sorted(gallery.GALLERY))
def test_stacked_pair_records_equal_single_center_ones(name):
    """The records of a stack of centers are those of the single centers,
    up to the sign of a zero, also when some centers already hold some of
    the rows or a center repeats."""
    item = gallery.GALLERY[name]
    grid = item.default_grid()
    A = item.build({})
    nv = A.nvars
    pts = A.sampled(grid).pts
    centers = pts[:: max(1, len(pts) // 4)][:4]
    centers = np.concatenate([centers, centers[:1]])
    mus = [tuple(4 * (a == b) for a in range(nv)) for b in range(nv)]
    mus += [(2, 2) + (0,) * (nv - 2)] if nv > 1 else [(3,)]
    keys = [key for key, _ in A.upper_entries()]
    early = A.paired(grid, centers[1], mus, keys[:1])
    recs = A.paired(grid, centers, mus, keys)
    assert recs[1] is early and recs[-1] is recs[0]
    again = A.paired(grid, centers, mus, keys)
    assert all(r is rec for r, rec in zip(again, recs))
    B = item.build({})
    for x, rec in zip(centers, recs):
        want = B.paired(grid, x, mus, keys)
        assert _same_bits(rec.Y, want.Y) and _same_bits(rec.Z, want.Z)
        assert list(rec.rows) == keys
        for key in keys:
            for g, w in zip(rec.rows[key], want.rows[key]):
                assert _same_up_to_zero_sign(g, w)
                assert not g.flags.writeable


@pytest.mark.parametrize("name, pipeline",
                         [("f-phi-psi", "gallery"), ("block-M7", "all")])
def test_each_expression_is_evaluated_once_per_pair_ladder(name, pipeline,
                                                            monkeypatch):
    """Within one call of `paired` or `holder_seminorm`, every evaluation is
    on the stack of one side of all the ladders the call sampled, and each
    expression is evaluated once per (side, order, support); no stack or
    single ladder is evaluated again, within a call or by a later one."""
    ladders = set()
    sample_pairs = GridSpec.sample_pairs

    def recorded(grid, center):
        Y, Z = sample_pairs(grid, center)
        ladders.update((Y.tobytes(), Z.tobytes()))
        return Y, Z

    calls = []

    def ladder_call(fn, where):
        def wrapped(*args):
            grid, centers = where(*args)
            pairs = [grid.sample_pairs(x) for x in np.atleast_2d(centers)]
            # a side's stack, and the single ladders it is made of
            calls.append({b"".join(L[s].tobytes() for L in pairs):
                          [L[s].tobytes() for L in pairs] for s in (0, 1)})
            try:
                return fn(*args)
            finally:
                calls.pop()
        return wrapped

    eval_jet_batch = jets.eval_jet_batch
    seen = {}

    def counted(expr, points, order=jets.MAX_ORDER, nvars=None, memo=None,
                support=None):
        side = np.asarray(points, dtype=float).tobytes()
        if calls:
            assert side in calls[-1], "evaluated on part of a side's stack"
            parts = [side] + calls[-1][side]
        else:
            parts = [side] if side in ladders else []
        # an expression already in a shared memo is read, not evaluated
        if not (memo and id(expr) in memo):
            for part in parts:
                key = (id(expr), part, order, support)
                assert key not in seen, \
                    "expression evaluated again on a pair ladder"
                seen[key] = expr  # keeps the id from being reused
        return eval_jet_batch(expr, points, order, nvars=nvars, memo=memo,
                              support=support)

    monkeypatch.setattr(GridSpec, "sample_pairs", recorded)
    monkeypatch.setattr(SymMatFun, "paired", ladder_call(
        SymMatFun.paired, lambda A, grid, centers, mus, keys: (grid, centers)))
    monkeypatch.setattr(decompose, "holder_seminorm", ladder_call(
        holder_seminorm, lambda h, x, mu, delta, grid: (grid, x)))
    monkeypatch.setattr(jets, "eval_jet_batch", counted)
    run_config(_config(name, pipeline))
    assert seen


@pytest.mark.parametrize("mus, error", [
    ([(-1, 5)], ValueError),
    ([(4, 0), (-1, 5)], ValueError),
    ([(4,)], jets.VariableCountError),
    ([(4, 0, 0)], jets.VariableCountError),
    ([(2.5, 0)], ValueError),
    ([(True, 0)], ValueError),
    ([(2, 0), (0, -1)], ValueError),
])
def test_pair_record_refuses_bad_multiindices(mus, error):
    A = SymMatFun.from_rows([[1 + X0 * X0, X0 * X1], [X0 * X1, 1 + X1 * X1]])
    grid = GridSpec(box=((-1.0, 1.0),) * 2, resolution=5)
    with pytest.raises(error):
        A.paired(grid, [0.5, 0.5], mus, [(0, 1)])


@pytest.mark.parametrize("name, pipeline, zero",
                         [("f-phi-psi", "decompose", False),
                          ("block-M7", "all", True)])
def test_peel_seminorms_equal_full_space_ones(name, pipeline, zero,
                                              monkeypatch):
    """The seminorms of the peel components, at the order 2 of
    `assemble_vector_fields` and on the order-4 set of `strong_check`, equal
    those evaluated in the full jet space (==).  The block-M7 components
    have no second or fourth derivative that varies on the ladders."""
    calls = []

    def recorded(h, x, mu, delta, grid):
        calls.append((h, x, delta, grid))
        return holder_seminorm(h, x, mu, delta, grid)

    monkeypatch.setattr(decompose, "holder_seminorm", recorded)
    run_config(_config(name, pipeline))
    assert calls
    nv = np.shape(calls[0][1])[-1]
    order2 = [tuple(2 * (a == b) for a in range(nv)) for b in range(nv)]
    order4 = [tuple(4 * (a == b) for a in range(nv)) for b in range(nv)]
    order4.append((2, 2) + (0,) * (nv - 2))

    def estimates():
        # one list of per-expression estimates per call, order and center
        return [est for h, x, delta, grid in calls for mus in (order2, order4)
                for est in holder_seminorm(h, np.atleast_2d(x), mus, delta,
                                           grid)]

    got = estimates()
    eval_entries = jets.eval_entries

    def full_space(exprs, points, order=jets.MAX_ORDER, nvars=None,
                   support=None):
        return eval_entries(exprs, points, order, nvars=nvars)

    monkeypatch.setattr(jets, "eval_entries", full_space)
    assert estimates() == got
    assert all(e is not None for est in got for e in est)
    assert any(e > 0 for est in got for e in est) is not zero


@pytest.mark.parametrize("pipeline", ["gallery", "all"])
@pytest.mark.parametrize("name", sorted(gallery.GALLERY))
def test_reports_equal_rebuilding_pair_record_on_every_call(name, pipeline,
                                                          monkeypatch):
    cfg = _config(name, pipeline)
    want = _report(cfg)
    paired = SymMatFun.paired

    def rebuilt(A, *args):
        A._paired.clear()
        return paired(A, *args)

    monkeypatch.setattr(SymMatFun, "paired", rebuilt)
    assert _report(cfg) == want
