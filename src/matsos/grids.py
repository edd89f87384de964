"""Sampling plans for grid sweeps, seminorm pairs and ball sampling.

A GridSpec fixes everything a checker needs to be deterministic: the domain
box, the lattice resolution (or the sample budget once a full lattice would
be too large), exclusion balls (the punctured origin, possibly measured on a
subset of coordinates), and the pair-sampling policy used by the Holder
seminorm estimators.  Identical specs always produce identical samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .expr import VariableCountError

__all__ = ["Exclusion", "GridSpec", "MisconfiguredGridError"]

# The seminorm pair ladder (see `GridSpec.sample_pairs`): scales, and
# random pairs per scale besides the one anchored at the center.
PAIR_SCALES = 11
PAIRS_PER_SCALE = 8


class MisconfiguredGridError(ValueError):
    """The sampling plan has a field out of range, or excludes everything it
    was asked to sample."""


@dataclass(frozen=True)
class Exclusion:
    """Exclude points with |x restricted to `axes`| < radius (all axes if None)."""

    radius: float
    axes: tuple[int, ...] | None = None

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius >= 0):
            raise MisconfiguredGridError(
                "Exclusion.radius must be finite and >= 0, "
                f"got {self.radius!r}")

    def keep(self, pts):
        if self.radius <= 0:
            return np.ones(len(pts), dtype=bool)
        sub = pts if self.axes is None else pts[:, list(self.axes)]
        return np.linalg.norm(sub, axis=1) >= self.radius


@dataclass(frozen=True)
class GridSpec:
    """Deterministic sampling plan over a box.

    Parameters
    ----------
    box : ((lo, hi), ...) per coordinate
    resolution : lattice points per axis; if resolution**dim exceeds
        `max_points` the lattice is replaced by `max_points` uniform draws
        from the seeded generator
    exclusions : punctured regions; default is a ball of radius
        `exclude_radius` about the origin in all coordinates
    exclude_radius : shorthand for the default exclusion
    points : explicit sample points, bypassing lattice generation (still
        subject to exclusions)
    """

    box: tuple
    resolution: int = 9
    exclude_radius: float = 0.0
    exclusions: tuple = ()
    max_points: int = 4096
    seed: int = 0
    points: tuple | None = None

    def __post_init__(self):
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        for lo, hi in box:
            if not lo < hi:
                raise MisconfiguredGridError(f"empty box side ({lo}, {hi})")
        for name, least in (("seed", 0), ("resolution", 2),
                            ("exclude_radius", 0), ("max_points", 1)):
            if not getattr(self, name) >= least:
                raise MisconfiguredGridError(
                    f"{name} must be at least {least}, "
                    f"got {getattr(self, name)!r}")
        if not math.isfinite(self.exclude_radius):
            raise MisconfiguredGridError(
                f"exclude_radius must be finite, got {self.exclude_radius!r}")
        object.__setattr__(self, "box", box)
        excl = tuple(self.exclusions)
        for i, e in enumerate(excl):
            if not all(isinstance(a, (int, np.integer))
                       and not isinstance(a, bool) and 0 <= a < len(box)
                       for a in e.axes or ()):
                raise MisconfiguredGridError(
                    f"exclusions[{i}].axes must be ints in 0..{len(box) - 1}, "
                    f"got {e.axes!r}")
        if self.exclude_radius > 0:
            excl = excl + (Exclusion(self.exclude_radius),)
        object.__setattr__(self, "exclusions", excl)

    @property
    def dim(self):
        return len(self.box)

    def _rng(self, salt=0):
        return np.random.default_rng((self.seed, salt))

    def sample_points(self):
        """All kept sample points, shape (N, dim)."""
        if self.points is not None:
            pts = np.asarray(self.points, dtype=float).reshape(-1, self.dim)
        elif self.resolution**self.dim <= self.max_points:
            axes = [np.linspace(lo, hi, self.resolution) for lo, hi in self.box]
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=1)
        else:
            lo = np.array([b[0] for b in self.box])
            hi = np.array([b[1] for b in self.box])
            u = self._rng(1).random((self.max_points, self.dim))
            pts = lo + u * (hi - lo)
        keep = np.ones(len(pts), dtype=bool)
        for e in self.exclusions:
            keep &= e.keep(pts)
        pts = pts[keep]
        if len(pts) == 0:
            raise MisconfiguredGridError(
                "exclusions removed every sample point of the grid"
            )
        return pts

    # -- pair sampling for Holder seminorms ---------------------------------

    def default_pair_base(self):
        """The largest pair ladder radius: 1/8 of the smallest box extent."""
        return min(hi - lo for lo, hi in self.box) / 8.0

    def sample_pairs(self, centers):
        """Pairs (y, z) concentrating at each center on a dyadic scale ladder.

        `centers` is one center of `dim` coordinates or a (C, dim) stack of
        them; returns arrays (Y, Z) of shape (P, dim) or (C, P, dim), the
        ladder of center c in row c.  Scales run through
        default_pair_base() / 2**k for k < PAIR_SCALES; each scale
        contributes PAIRS_PER_SCALE random pairs inside the ball of that
        radius around the center plus one pair anchored at the center
        itself (so one-sided ratios like |h(y) - h(center)| / |y - center|^d
        are always represented): P = PAIR_SCALES * (PAIRS_PER_SCALE + 1).

        Pair i of scale k is a pure function of (seed, k, i).  The offsets
        from a center do not depend on the center, so they are drawn once
        per spec and added to every center in one broadcast; the anchored
        z rows are copies of their center (signed zeros included).  Raises
        VariableCountError when the last axis of `centers` does not have
        `dim` coordinates.
        """
        centers = np.asarray(centers, dtype=float)
        if centers.ndim not in (1, 2) or centers.shape[-1] != self.dim:
            raise VariableCountError(
                f"pair centers have shape {centers.shape}, grid has "
                f"{self.dim} coordinates")
        dY, dZ, anchor = _pair_offsets(self.seed, self.dim,
                                       self.default_pair_base())
        c = centers[..., None, :]
        Y = c + dY
        Z = c + dZ
        Z[..., anchor, :] = c
        return Y, Z

    def ball_points(self, center, radius, count=64):
        """Deterministic points of the closed ball B(center, radius).

        Includes the center, the two boundary points along the center
        direction (which for the balls B(x/2, |x|/2) of the monotonicity
        test are the origin and x itself), and seeded interior points.
        """
        center = np.asarray(center, dtype=float)
        rng = self._rng(3)
        pts = [center]
        n = np.linalg.norm(center)
        if n > 0:
            d = center / n
            pts.append(center + radius * d)
            pts.append(center - radius * d)
        while len(pts) < count:
            u = rng.normal(size=self.dim)
            nu = np.linalg.norm(u)
            if nu == 0:
                continue
            pts.append(center + radius * (u / nu) * rng.random() ** (1.0 / self.dim))
        return np.array(pts)


@lru_cache(maxsize=64, typed=True)
def _pair_offsets(seed, dim, base):
    """(dY, dZ, anchor): the read-only pair offsets from a center of every
    `GridSpec` with these fields, drawn once per process however many
    specs share them (each run builds its own spec).

    `anchor` marks the rows whose z is the center itself; their dZ row is
    unused.
    """
    dys, dzs, anchor = [], [], []
    for k in range(PAIR_SCALES):
        r = base / 2.0**k
        for i in range(PAIRS_PER_SCALE):
            rng = np.random.default_rng((seed, 2, k, i))
            u = rng.normal(size=dim)
            u /= max(np.linalg.norm(u), 1e-300)
            v = rng.normal(size=dim)
            v /= max(np.linalg.norm(v), 1e-300)
            dys.append(r * u * rng.random())
            dzs.append(r * v * rng.random())
            anchor.append(False)
        rng = np.random.default_rng((seed, 3, k))
        d = rng.normal(size=dim)
        d /= max(np.linalg.norm(d), 1e-300)
        dys.append(r * d)
        dzs.append(np.zeros(dim))
        anchor.append(True)
    shape = (len(dys), dim)
    out = (np.array(dys).reshape(shape), np.array(dzs).reshape(shape),
           np.array(anchor, dtype=bool))
    for a in out:
        a.flags.writeable = False
    return out
