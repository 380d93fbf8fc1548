"""Seeded inputs of the benchmark workloads.

The seed is a benchmark argument; the program only ever receives the
scenarios built here. Each workload is a list of `Scene`s that one pass runs
in order.

- ``dense_exec``: the shipped rect_50 run with artifact export. It has the
  longest horizon, so realize, verify and artifact writing dominate.
- ``cluttered``: the shipped grid_20 and maple_approx_24 run in memory.
  Geometry (convert and navigate) dominates; plan, realize and verify are
  small, so it bypasses trajectory and artifact changes.
- ``fuzz_small``: seeded random rectangles with up to three rectangular
  obstacles. It is the only workload with typed failures and with the
  navigation retry tail.

For the shipped scenarios the seed permutes the goals of a tenth of the
agents among themselves. Every position stays valid and the convert cost
stays the same, while the plan differs from seed to seed. Permuting all
goals made rect_50's ops range over 30% across six seeds, wider than the
regressions the benchmark has to catch; with a tenth the range is near 10%.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from swapmotion.fileio import AgentSpec, Scenario, ScenarioParams, scenario_from_dict
from swapmotion.geometry import Point2, Polygon, rectangle_workspace
from swapmotion.pipeline import sample_free_positions

PERMUTED_SHARE = 0.1
FUZZ_SCENES = 12


@dataclass(frozen=True)
class Scene:
    """One pipeline input of a workload; `exec` runs it with an out_dir."""

    label: str
    scenario: Scenario
    exec: bool = False


def load_shipped(root: Path, name: str) -> Scenario:
    return scenario_from_dict(json.loads((root / "scenarios" / f"{name}.json").read_text()))


def permute_goals(s: Scenario, rng: np.random.Generator, share: float = PERMUTED_SHARE) -> Scenario:
    """Shuffle the goals of a random `share` of the agents among themselves."""
    n = len(s.agents)
    chosen = sorted(int(i) for i in rng.choice(n, size=max(2, round(share * n)), replace=False))
    goal_of = {i: s.agents[i].goal for i in range(n)}
    for i, j in zip(chosen, rng.permutation(chosen)):
        goal_of[i] = s.agents[int(j)].goal
    agents = [AgentSpec(a.id, a.start, goal_of[k]) for k, a in enumerate(s.agents)]
    return Scenario(s.name, s.workspace, s.r, agents, s.params)


def fuzz_scenario(rng: np.random.Generator, name: str) -> Scenario:
    """Random 24-40 x 14-24 rectangle, 0-3 disjoint box obstacles, 3-10 agents."""
    width = int(rng.integers(24, 41))
    height = int(rng.integers(14, 25))
    boxes: list[tuple[float, float, float, float]] = []
    for _ in range(int(rng.integers(0, 4))):
        for _attempt in range(50):
            bw, bh = float(rng.uniform(2, 6)), float(rng.uniform(2, 6))
            x0 = float(rng.uniform(3, width - 3 - bw))
            y0 = float(rng.uniform(3, height - 3 - bh))
            box = (x0, y0, x0 + bw, y0 + bh)
            # keep a two-unit gap between obstacles so they stay disjoint polygons
            if all(box[0] > b[2] + 2 or box[2] < b[0] - 2 or box[1] > b[3] + 2
                   or box[3] < b[1] - 2 for b in boxes):
                boxes.append(box)
                break
    obstacles = [
        Polygon((Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1)))
        for x0, y0, x1, y1 in boxes
    ]
    w = rectangle_workspace(width, height, obstacles)
    n = int(rng.integers(3, 11))
    r = 1.0
    starts = sample_free_positions(w, r, n, rng, 2.0 * r)
    goals = sample_free_positions(w, r, n, rng, 2.0 * r)
    agents = [AgentSpec(i, starts[i], goals[i]) for i in range(n)]
    return Scenario(name, w, r, agents, ScenarioParams(dt=0.25))


def build(root: Path, workload: str, seed: int) -> list[Scene]:
    """The scenes of `workload` for `seed`; equal seeds give equal scenes."""
    if workload == "dense_exec":
        rng = np.random.default_rng([seed, 0])
        return [Scene("rect_50", permute_goals(load_shipped(root, "rect_50"), rng), exec=True)]
    if workload == "cluttered":
        rng = np.random.default_rng([seed, 1])
        return [
            Scene(name, permute_goals(load_shipped(root, name), rng))
            for name in ("grid_20", "maple_approx_24")
        ]
    if workload == "fuzz_small":
        rng = np.random.default_rng([seed, 2])
        return [
            Scene(f"fuzz_{k}", fuzz_scenario(rng, f"fuzz_{seed}_{k}"))
            for k in range(FUZZ_SCENES)
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("dense_exec", "cluttered", "fuzz_small")
