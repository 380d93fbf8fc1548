"""References for the navigation grid router's masks.

`nav_grid_reference` is the router's static mask as it was built before the
router read it from the medial axis's distance grid: its own grid of 0.5r
cells, each tested with `disks_free`. `free_mask_reference` is
`assignment._stamp_disks` from one cells x centres distance array over the
whole grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from swapmotion.geometry import Workspace, disks_free


@dataclass
class NavGridReference:
    """Cell centres and the static free mask: the cells whose disk of radius
    r lies in the free space, ignoring the agents."""

    xs: np.ndarray
    ys: np.ndarray
    free: np.ndarray  # bool[len(xs), len(ys)]


def nav_grid_reference(w: Workspace, r: float) -> NavGridReference:
    cell = 0.5 * r
    bx = w.bounds
    nx = max(2, int(bx.width / cell))
    ny = max(2, int(bx.height / cell))
    xs = bx.xmin + (np.arange(nx) + 0.5) * (bx.width / nx)
    ys = bx.ymin + (np.arange(ny) + 0.5) * (bx.height / ny)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    return NavGridReference(xs, ys, disks_free(pts, w, r - 1e-9).reshape(nx, ny))


def free_mask_reference(grid: NavGridReference, others, r) -> np.ndarray:
    """`grid.free` with every cell closer than 2r to one of the `others`
    centres cleared."""
    gx, gy = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    ok = grid.free.ravel().copy()
    if len(others):
        d = np.linalg.norm(pts[:, None, :] - np.asarray(others)[None, :, :], axis=2)
        ok &= (d >= 2 * r * (1 - 1e-9)).all(axis=1)
    return ok.reshape(grid.free.shape)
