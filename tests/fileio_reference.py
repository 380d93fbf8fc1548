"""Reference for `fileio.trajectory_to_csv`: the segment table written one
row at a time, every float through its own `repr` in an f-string."""

from __future__ import annotations

from swapmotion.fileio import TRAJECTORY_HEADER
from swapmotion.trajectory import KIND_NAMES, TrajectorySet


def trajectory_to_csv_reference(ts: TrajectorySet, path) -> None:
    with open(path, "w") as f:
        f.write(f"# horizon={ts.horizon!r}\n{TRAJECTORY_HEADER}\n")
        for a in ts.agents():
            tr = ts.segments[a]
            f.write("".join([
                f"{a},{t0!r},{t1!r},{KIND_NAMES[k]},{p0!r},{p1!r},{p2!r},{p3!r},{p4!r}\n"
                for t0, t1, k, (p0, p1, p2, p3, p4) in zip(
                    tr.t0.tolist(), tr.t1.tolist(), tr.kind.tolist(), tr.par.tolist()
                )
            ]))
