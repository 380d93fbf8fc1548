"""Reference for `assignment._stamp_disks`: the router's free mask from one
cells x centres distance array over the whole grid."""

from __future__ import annotations

import numpy as np


def free_mask_reference(grid, others, r) -> np.ndarray:
    """`grid.free` with every cell closer than 2r to one of the `others`
    centres cleared."""
    gx, gy = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    ok = grid.free.ravel().copy()
    if len(others):
        d = np.linalg.norm(pts[:, None, :] - np.asarray(others)[None, :, :], axis=2)
        ok &= (d >= 2 * r * (1 - 1e-9)).all(axis=1)
    return ok.reshape(grid.free.shape)
