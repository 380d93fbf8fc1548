"""Reference for `assignment._stamp_disks`: the router's free mask from one
cells x disks distance array over the whole grid."""

from __future__ import annotations

import numpy as np


def free_mask_reference(grid, others, r) -> np.ndarray:
    """`grid.free` with every cell closer than o.radius + r to a disk o cleared."""
    gx, gy = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    ok = grid.free.ravel().copy()
    if others:
        oc = np.array([o.center for o in others])
        orad = np.array([o.radius for o in others])
        d = np.linalg.norm(pts[:, None, :] - oc[None, :, :], axis=2)
        ok &= (d >= (orad[None, :] + r) * (1 - 1e-9)).all(axis=1)
    return ok.reshape(grid.free.shape)
