"""The sampled records and the pair-ladder rows: one evaluation of a matrix
per grid and order, and of each entry per set of ladders and support."""

import contextlib
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from matsos import decompose, gallery, jets, report
from matsos import expr as ex
from matsos.grids import GridSpec
from matsos.matfun import SymMatFun
from matsos.monotone import holder_seminorm
from matsos.report import run_config

from oracles import entry_tables, sampled_from_entries

X0, X1 = ex.var(0), ex.var(1)


def _same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _stacks_from_tables(A, pts, order):
    """values, grad and dmax written out entry by entry from the jet tables."""
    ejets, valid = entry_tables(A, pts, order)
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


def dense_limit_matrix():
    """The declared limits as a test fixture: a dense MAX_DIM x MAX_DIM
    matrix in 8 variables.  The diagonal is 2 + |x|^2, and entry (i, j)
    off it is c_ij exp(-|x|^2 / 2) with every c_ij distinct, so that no two
    entries hash-cons into one node: 121 distinct roots, each reading all
    8 variables."""
    r2 = ex.add(*[ex.var(a) ** 2 for a in range(8)])
    g = ex.exp(-0.5 * r2)
    n = 16
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = (2.0 + r2 if i == j else
                                       ex.const(0.1 / (1 + n * i + j)) * g)
    return SymMatFun.from_rows(rows, nvars=8)


DENSE_LIMIT_GRID = GridSpec(box=((-1.0, 1.0),) * 8, resolution=9,
                            max_points=256)


def test_dense_limit_record_peaks_below_2_5_times_its_bytes():
    """The order-4 record of the 16 x 16 fixture at 256 points peaks
    (tracemalloc) below 2.5 times its own bytes: each entry's jet is read
    into the stacks as it completes and then dropped.  Holding every
    entry's table at once peaked at about 18 times."""
    A = dense_limit_matrix()
    pts = DENSE_LIMIT_GRID.sample_points()
    A.entry_jets(pts[:2], 4)  # the jet spaces of the entries, built once
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        rec = A.sampled(DENSE_LIMIT_GRID, 4)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    nbytes = sum(a.nbytes for a in rec if a is not None)
    assert A.n == 16 and A.nvars == 8 and len(rec.pts) == len(pts) == 256
    assert len({e for _, e in A.upper_entries()}) == 121
    assert peak < 2.5 * nbytes, f"peak {peak / 1e6:.1f} MB, " \
        f"record {nbytes / 1e6:.1f} MB"


def test_dense_limit_record_equals_one_list_of_all_entry_jets():
    A = dense_limit_matrix()
    rec = A.sampled(DENSE_LIMIT_GRID, 4)
    want = sampled_from_entries(A, rec.pts, 4)
    assert rec.valid.all()
    for got, w in zip(rec, want):
        assert _same_bits(got, w)


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


def test_each_order_0_jet_is_evaluated_once_per_run(monkeypatch):
    """One run of block-M7 evaluates each (node, points, space) at order 0
    once, under a run table whose tables are read-only; the table is
    dropped when the run returns."""
    eval_one = jets._eval_one
    seen, tables = {}, []

    def counted(node, pts, sp, memo):
        jet = eval_one(node, pts, sp, memo)
        if not sp.order:
            key = (id(node), pts.shape, pts.tobytes(), sp)
            assert key not in seen, "order-0 jet evaluated again in one run"
            seen[key] = node  # keeps the id from being reused
            tables.append(jet)
        return jet

    monkeypatch.setattr(jets, "_eval_one", counted)
    run_config(_config("block-M7", "all"))
    assert len(seen) > 100
    assert jets._RUN_TABLE.get() is None
    for jet in tables:
        for a in (jet.coef, jet.invalid, jet.poly_singular, jet.flat_zero):
            assert not a.flags.writeable


def test_matrix_keeps_pair_ladder_rows_per_ladders_and_support(monkeypatch):
    """A later `ladder_rows` call of one matrix evaluates only the entry
    nodes it does not hold yet for its ladders, order and support; another
    matrix, and `jets.eval_ladders` itself, evaluate all of them."""
    grid = GridSpec(box=((-1.0, 1.0),) * 2, resolution=5)
    Ys, Zs = grid.sample_pairs([[0.5, 0.25], [-0.5, 0.75]])
    e1, e2 = ex.exp(X0) * X1 + X0, X0 * X0 * X1
    eval_entries = jets.eval_entries
    calls = []

    def counted(exprs, points, order=jets.MAX_ORDER, nvars=None,
                support=None, consume=None):
        calls.append([id(e) for e in exprs])
        return eval_entries(exprs, points, order, nvars=nvars,
                            support=support, consume=consume)

    monkeypatch.setattr(jets, "eval_entries", counted)
    jets.eval_ladders([e1, e1], Ys, Zs, 4, 2, [(4, 0)])
    jets.eval_ladders([e1, e1], Ys, Zs, 4, 2, [(4, 0)])
    assert calls == [[id(e1)] * 2] * 4
    for order, support in ((4, ((4, 0), (2, 2))), (0, ((0, 0),))):
        A = SymMatFun.from_rows([[e1, e1], [e1, e2]])
        calls.clear()
        with jets.run_table():
            first = A.ladder_rows([(0, 0), (0, 1)], Ys, Zs, order, support)
            second = A.ladder_rows([(1, 1), (0, 0)], Ys, Zs, order, support)
            assert calls == [[id(e1)]] * 2 + [[id(e2)]] * 2
            assert np.array_equal(first[0][0], second[0][1])
            assert np.array_equal(first[3][1], second[3][1], equal_nan=True)
            assert first[2].shape == (2, len(support), 2, Ys.shape[1])
            # held: no evaluation
            A.ladder_rows([(0, 1), (1, 1)], Ys, Zs, order, list(support))
            assert len(calls) == 4
            # another support, or another matrix: evaluated again
            A.ladder_rows([(0, 0)], Ys, Zs, order, support + ((0, 0),))
            SymMatFun.from_rows([[e1]]).ladder_rows([(0, 0)], Ys, Zs, order,
                                                    support)
            assert calls[4:] == [[id(e1)]] * 4


def test_second_battery_strong_check_evaluates_no_ladder_row(monkeypatch):
    """The f-phi-psi battery checks the strong families at two epsilons on
    one matrix: the second `strong_check` reads every ladder row the
    first evaluated, kept on the matrix."""
    strong_check = report.strong_check
    eval_ladders = jets.eval_ladders
    calls = []

    def check(*args, **kw):
        calls.append(0)
        return strong_check(*args, **kw)

    def ladder_call(*args):
        calls[-1] += 1
        return eval_ladders(*args)

    monkeypatch.setattr(report, "strong_check", check)
    monkeypatch.setattr(jets, "eval_ladders", ladder_call)
    run_config(_config("f-phi-psi", "gallery"))
    assert calls == [1, 0]


def test_run_table_keeps_no_row_that_no_later_stage_reads(monkeypatch):
    """In a block-M7 `all` run, the run table holds order-0 jets only; the
    matrix holds the order-4 ladder rows that both `strong_check` calls
    read, and nothing holds the order-2 rows of `holder_seminorm` once it
    returns: no later stage reads them."""
    eval_ladders = jets.eval_ladders
    made, matrices, tables = [], [], []

    def ladder_call(exprs, Y, Z, order, nvars, support):
        rows = eval_ladders(exprs, Y, Z, order, nvars, support)
        made.append([weakref.ref(a) for a in rows])
        return rows

    def seminorms(hs, centers, mus, delta, grid):
        made.clear()
        out = holder_seminorm(hs, centers, mus, delta, grid)
        gc.collect()
        assert made and all(r() is None for refs in made for r in refs)
        tables.append(jets._RUN_TABLE.get())
        return out

    ladder_rows = SymMatFun.ladder_rows

    def kept_rows(A, *args):
        matrices.append(A)
        return ladder_rows(A, *args)

    monkeypatch.setattr(jets, "eval_ladders", ladder_call)
    monkeypatch.setattr(decompose, "holder_seminorm", seminorms)
    monkeypatch.setattr(SymMatFun, "ladder_rows", kept_rows)
    run_config(_config("block-M7", "all"))
    assert len(matrices) == 2 and matrices[0] is matrices[1]
    assert {key[3] for key in matrices[0]._ladders} == {4}
    (table,) = {id(t): t for t in tables}.values()
    assert table and {sp.order for _, _, sp in table} == {0}
    assert all(isinstance(jet, jets.JetBatch)
               for memo in table.values() for jet in memo.values())


def test_run_table_is_dropped_when_a_run_raises(monkeypatch):
    eval_one = jets._eval_one
    open_tables = []

    def failing(node, pts, sp, memo):
        open_tables.append(jets._RUN_TABLE.get())
        if len(open_tables) == 50:
            raise RuntimeError("evaluation failed")
        return eval_one(node, pts, sp, memo)

    monkeypatch.setattr(jets, "_eval_one", failing)
    with pytest.raises(RuntimeError, match="evaluation failed"):
        run_config(_config("block-M7", "all"))
    assert open_tables[-1] is open_tables[0] and open_tables[0]
    assert jets._RUN_TABLE.get() is None


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
                        A.entry_jets(grid.sample_points(), order))
    assert _report(cfg) == want


def _entry_ladders(A, Y, Z, mus, keys):
    return A.ladder_rows(keys, Y, Z, 4, mus)


@pytest.mark.parametrize("name", sorted(gallery.GALLERY))
def test_pair_record_equals_rows_of_entry_jets(name):
    """The ladder rows of every entry, some kept by the matrix from an
    earlier call, are the rows of its jets on each side."""
    item = gallery.GALLERY[name]
    A = item.build({})
    grid = item.default_grid()
    center = A.sampled(grid).pts[0]
    nv = A.nvars
    mus = tuple(tuple(4 * (a == b) for a in range(nv)) for b in range(nv))
    keys = [key for key, _ in A.upper_entries()]
    Y, Z = grid.sample_pairs([center])
    P = Y.shape[1]
    _entry_ladders(A, Y, Z, mus, keys[:1])
    inv_y, inv_z, dy, dz = _entry_ladders(A, Y, Z, mus, keys)
    assert inv_y.shape == inv_z.shape == (len(keys), 1, P)
    assert dy.shape == dz.shape == (len(keys), len(mus), 1, P)
    for i, key in enumerate(keys):
        for pts, inv, ds in ((Y[0], inv_y[i, 0], dy[i, :, 0]),
                             (Z[0], inv_z[i, 0], dz[i, :, 0])):
            jb = jets.eval_jet_batch(A.entry(*key), pts, 4, nvars=nv)
            assert np.array_equal(inv, jb.invalid)
            assert _same_bits(ds, np.array([jb.derivative(mu) for mu in mus]))
    for a in (inv_y, inv_z, dy, dz):
        assert not a.flags.writeable


def _same_up_to_zero_sign(a, b):
    nz = (b != 0) & ~np.isnan(b)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a[nz]), np.signbit(b[nz])))


@pytest.mark.parametrize("name", sorted(gallery.GALLERY))
def test_stacked_pair_records_equal_single_center_ones(name):
    """The rows of a stack of centers are those of the single centers, up
    to the sign of a zero, also when the matrix already keeps some of them
    or a center repeats."""
    item = gallery.GALLERY[name]
    grid = item.default_grid()
    A = item.build({})
    nv = A.nvars
    pts = A.sampled(grid).pts
    centers = pts[:: max(1, len(pts) // 4)][:4]
    centers = np.concatenate([centers, centers[:1]])
    Y, Z = grid.sample_pairs(centers)
    mus = [tuple(4 * (a == b) for a in range(nv)) for b in range(nv)]
    mus += [(2, 2) + (0,) * (nv - 2)] if nv > 1 else [(3,)]
    mus = tuple(mus)
    keys = [key for key, _ in A.upper_entries()]
    _entry_ladders(A, Y, Z, mus, keys[:1])
    got = _entry_ladders(A, Y, Z, mus, keys)
    again = _entry_ladders(A, Y, Z, mus, keys)
    B = item.build({})
    assert all(_same_bits(g, s) for g, s in zip(got, again))
    for c in range(len(centers)):
        want = _entry_ladders(B, Y[c:c + 1], Z[c:c + 1], mus, keys)
        for g, w in zip(got, want):
            assert _same_up_to_zero_sign(g[..., c:c + 1, :], w)
    for g in got:
        assert not g.flags.writeable


@pytest.mark.parametrize("name, pipeline",
                         [("f-phi-psi", "gallery"), ("block-M7", "all")])
def test_each_expression_is_evaluated_once_per_pair_ladder(name, pipeline,
                                                            monkeypatch):
    """Within one call of `jets.eval_ladders`, the path of `strong_check`
    and of `holder_seminorm`, every evaluation is on the stack of one side
    of all the ladders of the call, and each expression is evaluated once
    per (side, order, support); no stack or single ladder is evaluated
    again, within a call or by a later one."""
    ladders = set()
    sample_pairs = GridSpec.sample_pairs

    def recorded(grid, centers):
        Y, Z = sample_pairs(grid, centers)
        for side in (Y, Z):
            P, dim = side.shape[-2:]
            ladders.update(L.tobytes() for L in side.reshape(-1, P, dim))
        return Y, Z

    calls = []
    eval_ladders = jets.eval_ladders

    def ladder_call(exprs, Y, Z, order, nvars, support):
        # a side's stack, and the single ladders it is made of
        calls.append({side.tobytes(): [L.tobytes() for L in side]
                      for side in (Y, Z)})
        try:
            return eval_ladders(exprs, Y, Z, order, nvars, support)
        finally:
            calls.pop()

    evaluate = jets._evaluate
    seen = {}

    def counted(exprs, points, sp, memo, consume=None):
        # every public evaluation reaches the jets through `_evaluate`, at
        # checked points in a space that carries the order and support
        side = points.tobytes()
        if calls:
            assert side in calls[-1], "evaluated on part of a side's stack"
            parts = {side, *calls[-1][side]}
        else:
            parts = [side] if side in ladders else []
        # an expression already in a shared memo is read, not evaluated
        for expr in dict.fromkeys(exprs):
            if memo and expr in memo:
                continue
            for part in parts:
                key = (id(expr), part, sp.order, sp.multi)
                assert key not in seen, \
                    "expression evaluated again on a pair ladder"
                seen[key] = expr  # keeps the id from being reused
        return evaluate(exprs, points, sp, memo, consume)

    monkeypatch.setattr(GridSpec, "sample_pairs", recorded)
    monkeypatch.setattr(jets, "eval_ladders", ladder_call)
    monkeypatch.setattr(jets, "_evaluate", counted)
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
        _entry_ladders(A, *grid.sample_pairs([[0.5, 0.5]]), mus, [(0, 1)])
    assert not A._ladders


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
                for est in holder_seminorm(h, x, mus, delta, grid)]

    got = estimates()
    eval_entries = jets.eval_entries

    def full_space(exprs, points, order=jets.MAX_ORDER, nvars=None,
                   support=None, consume=None):
        return eval_entries(exprs, points, order, nvars=nvars,
                            consume=consume)

    monkeypatch.setattr(jets, "eval_entries", full_space)
    assert estimates() == got
    assert all(e is not None for est in got for e in est)
    assert any(e > 0 for est in got for e in est) is not zero


@pytest.mark.parametrize("pipeline", ["gallery", "all"])
@pytest.mark.parametrize("name", sorted(gallery.GALLERY))
def test_reports_equal_rebuilding_pair_record_on_every_call(name, pipeline,
                                                          monkeypatch):
    """With no run table and no ladder rows kept on the matrix, every
    order-0 jet and every pair-ladder row is evaluated again by each stage
    that reads it; the reports are those of the run that keeps them."""
    cfg = _config(name, pipeline)
    want = _report(cfg)

    def rebuilt(A, keys, Y, Z, order, support):
        return jets.eval_ladders([A.entry(*key) for key in keys], Y, Z,
                                 order, A.nvars, support)

    monkeypatch.setattr(jets, "run_table", contextlib.nullcontext)
    monkeypatch.setattr(SymMatFun, "ladder_rows", rebuilt)
    assert _report(cfg) == want
