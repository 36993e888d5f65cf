"""Nodal density builders and analytic drift presets.

Targets and initial conditions are evaluated at mesh vertices and then
rescaled so F.q = 1 exactly; nodal quadrature of an analytic profile would
otherwise carry a small mass error.
"""

from __future__ import annotations

import math

import numpy as np

from .export import read_vector_csv
from .fem import FemOperators
from .mesh import Circle, Rect
from .state import DensityField, normalized_density

__all__ = [
    "uniform_density",
    "gaussian_density",
    "indicator_density",
    "density_from_file",
    "DRIFT_PRESETS",
]


def uniform_density(ops: FemOperators) -> DensityField:
    return normalized_density(ops, np.ones(ops.n))


def gaussian_density(ops: FemOperators, center, sigma: float) -> DensityField:
    """Unit-mass nodal Gaussian bump centered inside the domain."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    cx, cy = center
    v = ops.mesh.vertices
    r2 = (v[:, 0] - cx) ** 2 + (v[:, 1] - cy) ** 2
    return normalized_density(ops, np.exp(-0.5 * r2 / sigma**2))


def indicator_density(ops: FemOperators, regions) -> DensityField:
    """Unit-mass indicator of a union of Circle / Rect regions."""
    v = ops.mesh.vertices
    mask = np.zeros(ops.n, dtype=bool)
    for region in regions:
        if not isinstance(region, (Circle, Rect)):
            raise TypeError(f"unsupported region {region!r}")
        mask |= region.contains(v[:, 0], v[:, 1])
    if not mask.any():
        raise ValueError("indicator regions contain no mesh vertices")
    return normalized_density(ops, mask.astype(float))


def density_from_file(ops: FemOperators, path) -> DensityField:
    """Load nodal values from a density CSV (node_index,x,y,q) and normalize."""
    with open(path, "r", encoding="ascii") as fh:
        if not fh.readline().startswith("node_index"):
            raise ValueError(f"{path}: expected a density CSV header")
    return normalized_density(ops, read_vector_csv(path, ops.n))


def _swirl(x, y):
    return -np.sin(math.pi * x) * np.cos(math.pi * y), np.cos(math.pi * x) * np.sin(
        math.pi * y
    )


# named analytic drift fields usable from run configs
DRIFT_PRESETS = {
    "swirl": _swirl,
}
