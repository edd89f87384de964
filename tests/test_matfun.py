"""The sampled record: one evaluation of a matrix per grid and order."""

import numpy as np
import pytest

from matsos import gallery
from matsos.matfun import SymMatFun
from matsos.report import run_config


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
