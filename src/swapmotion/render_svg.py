"""Deterministic SVG rendering of workspaces, graphs, and trajectories."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .conversion import ConversionResult
from .geometry import Workspace
from .trajectory import TrajectorySet

_PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]


def _fmt(x: float) -> str:
    return f"{x:.4f}".rstrip("0").rstrip(".")


# what `_fmt` strips from a `.4f` number: trailing zeros, then a bare dot
_TRAILING_ZEROS = re.compile(r"\.?0+(?=[ ,]|$)")


class _Svg:
    def __init__(self, w: Workspace, scale: float = 20.0, pad: float = 1.0):
        self.b = w.bounds
        self.scale = scale
        self.pad = pad
        self.parts: list[str] = []

    def x(self, v: float) -> str:
        return _fmt((v - self.b.xmin + self.pad) * self.scale)

    def y(self, v: float) -> str:
        return _fmt((self.b.ymax - v + self.pad) * self.scale)

    def d(self, v: float) -> str:
        return _fmt(v * self.scale)

    def add(self, s: str):
        self.parts.append(s)

    def line(self, a, b, stroke, width=1.0, dash=None):
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.add(
            f'<line x1="{self.x(a[0])}" y1="{self.y(a[1])}" x2="{self.x(b[0])}" '
            f'y2="{self.y(b[1])}" stroke="{stroke}" stroke-width="{width}"{extra}/>'
        )

    def circle(self, c, r, stroke, fill="none", width=1.0):
        self.add(
            f'<circle cx="{self.x(c[0])}" cy="{self.y(c[1])}" r="{self.d(r)}" '
            f'stroke="{stroke}" fill="{fill}" stroke-width="{width}"/>'
        )

    def poly(self, pts, stroke, fill="none", width=1.0):
        coords = " ".join(f"{self.x(p[0])},{self.y(p[1])}" for p in pts)
        self.add(
            f'<polygon points="{coords}" stroke="{stroke}" fill="{fill}" '
            f'stroke-width="{width}"/>'
        )

    def polyline(self, pts: np.ndarray, stroke, width=1.0):
        """Polyline through the (n, 2) points `pts`, every number formatted
        as `_fmt` would, in one pass."""
        x = (pts[:, 0] - self.b.xmin + self.pad) * self.scale
        y = (self.b.ymax - pts[:, 1] + self.pad) * self.scale
        xy = np.column_stack([x, y]).ravel().tolist()
        coords = _TRAILING_ZEROS.sub("", " ".join(["%.4f,%.4f"] * len(pts)) % tuple(xy))
        self.add(
            f'<polyline points="{coords}" stroke="{stroke}" fill="none" '
            f'stroke-width="{width}"/>'
        )

    def render(self) -> str:
        wpx = _fmt((self.b.xmax - self.b.xmin + 2 * self.pad) * self.scale)
        hpx = _fmt((self.b.ymax - self.b.ymin + 2 * self.pad) * self.scale)
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{wpx}" height="{hpx}" '
            f'viewBox="0 0 {wpx} {hpx}">\n{body}\n</svg>\n'
        )


def _draw_workspace(svg: _Svg, w: Workspace):
    b = w.bounds
    svg.poly(
        [(b.xmin, b.ymin), (b.xmax, b.ymin), (b.xmax, b.ymax), (b.xmin, b.ymax)],
        stroke="#000000",
        fill="#fbfbfb",
        width=2,
    )
    for poly in w.obstacles:
        fill = "#555555" if poly.is_ccw() else "#fbfbfb"
        svg.poly([tuple(p) for p in poly.vertices], stroke="#333333", fill=fill)


def render_scene(
    w: Workspace,
    res: ConversionResult,
    trajectories: TrajectorySet,
    agents: dict,
    goals: dict,
    r: float,
) -> str:
    """Workspace with circles, swap graph, paths, and start and goal marks."""
    svg = _Svg(w)
    _draw_workspace(svg, w)
    for c in res.circles:
        svg.circle(tuple(c.center), c.radius, "#bbddff", width=1)
    for ci, ring in res.loop_layer:
        c = res.circles[ci]
        svg.circle(tuple(c.center), 2 * res.r * ring, "#dddddd", width=0.5)
    g = res.graph
    for li, cyc in enumerate(g.loops):
        color = _PALETTE[li % len(_PALETTE)]
        for k in range(len(cyc)):
            a = g.positions[cyc[k]]
            b = g.positions[cyc[(k + 1) % len(cyc)]]
            svg.line(tuple(a), tuple(b), color, width=1.2)
    for u, v in sorted(g.inter_edges):
        svg.line(
            tuple(g.positions[u]), tuple(g.positions[v]), "#444444", width=1.0,
            dash="4,3",
        )
    for v in g.vertex_ids():
        shared = len(g.loops_of(v)) > 1
        svg.circle(
            tuple(g.positions[v]), 0.12 * res.r,
            "#aa0000" if shared else "#000000",
            fill="#aa0000" if shared else "#000000",
        )
    times = np.linspace(0.0, trajectories.horizon, 160)
    for k, a in enumerate(trajectories.agents()):
        pts = trajectories.segments[a].sample(times)
        svg.polyline(pts, _PALETTE[k % len(_PALETTE)], width=0.8)
    for _, p in sorted(agents.items(), key=lambda kv: repr(kv[0])):
        svg.circle(tuple(p), r, "#cc0000", fill="#ffbbbb")
    for _, p in sorted(goals.items(), key=lambda kv: repr(kv[0])):
        svg.circle(tuple(p), r, "#0000cc", fill="none")
    return svg.render()


def render_frames(
    out_dir,
    ts: TrajectorySet,
    w: Workspace,
    r: float,
    dt: float,
    max_frames: int = 120,
) -> list[str]:
    """Numbered animation frames of agent disks along the trajectory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n = max(2, min(max_frames, int(ts.horizon / dt) + 1 if dt > 0 else 2))
    times = np.linspace(0.0, ts.horizon, n)
    # (agents, frames, 2): each track sampled once over all frame times
    pos = np.array([ts.segments[a].sample(times) for a in ts.agents()]).reshape(-1, n, 2)
    paths = []
    for i in range(n):
        svg = _Svg(w)
        _draw_workspace(svg, w)
        for k, p in enumerate(pos[:, i]):
            svg.circle(
                (float(p[0]), float(p[1])), r, "#222222",
                fill=_PALETTE[k % len(_PALETTE)], width=0.5,
            )
        path = out / f"frame_{i:04d}.svg"
        path.write_text(svg.render())
        paths.append(str(path))
    return paths
