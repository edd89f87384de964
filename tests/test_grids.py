import numpy as np
import pytest

from matsos.expr import VariableCountError
from matsos.grids import (PAIR_SCALES, PAIRS_PER_SCALE, Exclusion, GridSpec,
                          MisconfiguredGridError)


def test_lattice_points_and_exclusion():
    g = GridSpec(box=((-1, 1), (-1, 1)), resolution=5, exclude_radius=0.3)
    pts = g.sample_points()
    assert pts.shape[1] == 2
    assert (np.linalg.norm(pts, axis=1) >= 0.3).all()
    # corners present
    assert any((p == [-1.0, -1.0]).all() for p in pts)


def test_determinism():
    g = GridSpec(box=((-1, 1),) * 4, resolution=9, max_points=200, seed=7)
    a = g.sample_points()
    b = GridSpec(box=((-1, 1),) * 4, resolution=9, max_points=200, seed=7).sample_points()
    assert (a == b).all()
    c = GridSpec(box=((-1, 1),) * 4, resolution=9, max_points=200, seed=8).sample_points()
    assert a.shape == c.shape and not (a == c).all()


def test_axis_subset_exclusions():
    g = GridSpec(
        box=((-1, 1), (-1, 1)),
        resolution=9,
        exclusions=(Exclusion(0.5, axes=(0,)),),
    )
    pts = g.sample_points()
    assert (np.abs(pts[:, 0]) >= 0.5).all()
    assert (np.abs(pts[:, 1]) <= 1.0).all()


def test_over_excluded_grid_raises():
    with pytest.raises(MisconfiguredGridError):
        GridSpec(box=((-1, 1),), resolution=5, exclude_radius=10.0).sample_points()


def test_empty_box_rejected():
    with pytest.raises(MisconfiguredGridError):
        GridSpec(box=((1, 1),))


@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("resolution", 1), ("resolution", 0),
    ("exclude_radius", -1.0), ("exclude_radius", float("nan")),
    ("exclude_radius", float("inf")),
    ("max_points", 0)])
def test_out_of_range_fields_are_named_at_construction(field, value):
    with pytest.raises(MisconfiguredGridError, match=field):
        GridSpec(box=((-1, 1), (-1, 1)), **{field: value})


@pytest.mark.parametrize("radius, axes, field", [
    (-1.0, None, "radius"), (float("nan"), None, "radius"),
    (float("inf"), None, "radius"), (0.5, (5,), "axes"),
    (0.5, (-1,), "axes"), (0.5, (True,), "axes"), (0.5, (0.5,), "axes"),
    (0.5, (0, 2), "axes")])
def test_exclusion_misuse_is_named_at_construction(radius, axes, field):
    """A radius that is negative or not finite, and an axis that is not an
    int of 0..dim-1, are named errors of the spec, not a silently kept,
    emptied or mis-measured grid."""
    with pytest.raises(MisconfiguredGridError, match=field):
        GridSpec(box=((-1, 1), (-1, 1)), resolution=3,
                 exclusions=(Exclusion(radius, axes),))


def test_explicit_points():
    g = GridSpec(box=((-1, 1),), points=((0.5,), (0.25,), (0.01,)),
                 exclude_radius=0.1)
    pts = g.sample_points()
    assert pts.tolist() == [[0.5], [0.25]]


def test_pair_ladder_scales():
    g = GridSpec(box=((-1, 1), (-1, 1)))
    Y, Z = g.sample_pairs([0.2, -0.1])
    assert len(Y) == len(Z) == PAIR_SCALES * (PAIRS_PER_SCALE + 1) == 99
    sep = np.linalg.norm(Y - Z, axis=1)
    base = g.default_pair_base()
    assert sep.max() <= 2 * base + 1e-12
    # the anchored pair at the finest scale touches the center exactly
    assert (Z == np.array([0.2, -0.1])).all(axis=1).any()


def test_ball_points_cover_key_points():
    g = GridSpec(box=((-1, 1), (-1, 1)))
    center = np.array([0.3, 0.4])
    b = g.ball_points(center / 2, np.linalg.norm(center) / 2, count=32)
    r = np.linalg.norm(b - center / 2, axis=1)
    assert (r <= np.linalg.norm(center) / 2 + 1e-12).all()
    assert (np.abs(b - center) < 1e-12).all(axis=1).any()  # x itself
    assert (np.abs(b) < 1e-12).all(axis=1).any()  # the origin


def _pairs_loop(g, center):
    """Reference pair sampler: one generator per pair, drawn at every call."""
    center = np.asarray(center, dtype=float)
    base = g.default_pair_base()
    ys, zs = [], []
    for k in range(PAIR_SCALES):
        r = base / 2.0**k
        for i in range(PAIRS_PER_SCALE):
            rng = np.random.default_rng((g.seed, 2, k, i))
            u = rng.normal(size=g.dim)
            u /= max(np.linalg.norm(u), 1e-300)
            v = rng.normal(size=g.dim)
            v /= max(np.linalg.norm(v), 1e-300)
            ys.append(center + r * u * rng.random())
            zs.append(center + r * v * rng.random())
        rng = np.random.default_rng((g.seed, 3, k))
        d = rng.normal(size=g.dim)
        d /= max(np.linalg.norm(d), 1e-300)
        ys.append(center + r * d)
        zs.append(center.copy())
    return np.array(ys), np.array(zs)


@pytest.mark.parametrize("center", [
    [0.2, -0.1, 0.7],
    [-0.0, 0.3, -0.0],
    [0.0, -0.0, 1e-300],
])
def test_pairs_bit_identical_to_per_pair_generators(center):
    g = GridSpec(box=((-1, 1), (-2, 2), (0, 1)), seed=5)
    Y, Z = g.sample_pairs(center)
    Yr, Zr = _pairs_loop(g, center)
    assert Y.view(np.uint64).tolist() == Yr.view(np.uint64).tolist()
    assert Z.view(np.uint64).tolist() == Zr.view(np.uint64).tolist()
    anchored = Z[PAIRS_PER_SCALE :: PAIRS_PER_SCALE + 1]
    assert (np.signbit(anchored) == np.signbit(center)).all()


def test_pairs_returned_arrays_are_fresh():
    g = GridSpec(box=((-1, 1), (-1, 1)))
    Y, Z = g.sample_pairs([0.1, 0.2])
    Y[:] = 7.0
    Z[:] = 7.0
    Y2, Z2 = g.sample_pairs([0.1, 0.2])
    Yr, Zr = _pairs_loop(g, [0.1, 0.2])
    assert np.array_equal(Y2, Yr) and np.array_equal(Z2, Zr)


def test_pair_offsets_are_drawn_once_per_spec_fields(monkeypatch):
    """Two specs with the same seed, dimension and pair base (from the
    box) share one draw of the 99 pair generators, although each run builds
    its own spec; a spec that differs in one of them draws its own."""
    import matsos.grids as grids

    calls = []
    rng = np.random.default_rng

    def counted(seed):
        calls.append(seed)
        return rng(seed)

    monkeypatch.setattr(grids.np.random, "default_rng", counted)
    grids._pair_offsets.cache_clear()
    box = ((-1, 1), (-1, 1))
    first = GridSpec(box=box, seed=41).sample_pairs([0.1, 0.2])
    assert len(calls) == 11 * (8 + 1)
    again = GridSpec(box=box, seed=41, resolution=5).sample_pairs([0.1, 0.2])
    assert len(calls) == 99
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    GridSpec(box=((-1, 1), (-0.5, 0.5)), seed=41).sample_pairs([0.1, 0.2])
    assert len(calls) == 2 * 99


def test_pair_center_of_wrong_length_is_named_error():
    g = GridSpec(box=((-1, 1),) * 3)
    with pytest.raises(VariableCountError):
        g.sample_pairs([0.3])
    with pytest.raises(VariableCountError):
        g.sample_pairs([0.1, 0.2, 0.3, 0.4])


def test_pairs_of_a_center_stack_equal_single_center_calls():
    """A (C, dim) stack of centers gives, bit for bit, the ladders of C
    single-center calls in rows 0..C-1, signed zeros of the anchored rows
    included; a stack whose last axis is not `dim` is a named error."""
    g = GridSpec(box=((-1, 1), (-2, 2), (0, 1)), seed=5)
    centers = np.array([[0.2, -0.1, 0.7], [-0.0, 0.3, -0.0],
                        [0.0, -0.0, 1e-300], [0.2, -0.1, 0.7]])
    Y, Z = g.sample_pairs(centers)
    assert Y.shape == Z.shape == (4, 99, 3)
    for c, x in enumerate(centers):
        for got, want in zip((Y[c], Z[c]), g.sample_pairs(x)):
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert g.sample_pairs(centers[:0])[0].shape == (0, 99, 3)
    for bad in (centers[:, :2], centers[None], [[0.1, 0.2, 0.3, 0.4]]):
        with pytest.raises(VariableCountError):
            g.sample_pairs(bad)
