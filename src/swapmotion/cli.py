"""Command-line interface: convert, plan, exec, verify, render, bench."""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .errors import (
    AssignmentFailure,
    InsufficientCapacity,
    NavigationFailure,
    SwapMotionError,
)
from .fileio import (
    Scenario,
    dump_json,
    graph_from_dict,
    graph_to_dict,
    load_json,
    plan_to_dict,
    scenario_from_dict,
    scenario_to_dict,
)
from .pipeline import bench, bench_table, run_pipeline
from .render_svg import render_frames, render_scene

_EXIT_CODES = {
    InsufficientCapacity: 3,
    AssignmentFailure: 4,
    NavigationFailure: 5,
}


def _load_scenario(args) -> Scenario:
    s = scenario_from_dict(load_json(args.scenario))
    p = s.params
    if args.epsilon is not None:
        p.epsilon = args.epsilon
    if args.grid is not None:
        p.grid_resolution = args.grid
    if args.kmax is not None:
        p.k_max = args.kmax
    if args.threshold is not None:
        p.threshold = args.threshold
    if args.dt is not None:
        p.dt = args.dt
    if args.seed is not None:
        p.seed = args.seed
    if args.max_agents is not None and len(s.agents) > args.max_agents:
        s.agents = s.agents[: args.max_agents]
    return s


def _out_dir(args) -> Path:
    out = Path(args.out or "out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_convert(args) -> int:
    from .conversion import greedy_convert

    s = _load_scenario(args)
    n = len(s.agents)
    res = greedy_convert(
        s.workspace,
        s.r,
        threshold=s.params.threshold if s.params.threshold is not None else n + 1,
        starts=s.starts(),
        epsilon=s.params.epsilon,
        grid_resolution=s.params.grid_resolution,
        k_max=s.params.k_max,
    )
    out = _out_dir(args)
    dump_json(graph_to_dict(res), out / "graph.json")
    print(
        f"convert: {res.graph.num_vertices()} vertices in {res.graph.K} loops "
        f"from {len(res.circles)} circles -> {out/'graph.json'}"
    )
    if res.graph.num_vertices() < n + 1:
        print(f"convert: insufficient capacity for {n} agents", file=sys.stderr)
        return _EXIT_CODES[InsufficientCapacity]
    return 0


def cmd_plan(args) -> int:
    s = _load_scenario(args)
    out = _out_dir(args)
    run, art = run_pipeline(s)
    dump_json(graph_to_dict(art.conversion), out / "graph.json")
    dump_json(plan_to_dict(art.plan), out / "plan.json")
    print(f"plan: {run.op_count} ops over {run.num_vertices} vertices -> {out/'plan.json'}")
    return 0


def cmd_exec(args) -> int:
    s = _load_scenario(args)
    out = _out_dir(args)
    t0 = time.perf_counter()
    run, art = run_pipeline(s, out_dir=out)
    wall = time.perf_counter() - t0
    print(
        f"exec: {s.name}: N={run.n_agents} |V|={run.num_vertices} ops={run.op_count} "
        f"horizon={run.horizon:.1f} violations={run.violations} wall={wall:.2f}s"
    )
    for stage, secs in run.timings.items():
        print(f"  {stage:>8}: {secs:.3f}s")
    return 0 if run.success else 1


def cmd_verify(args) -> int:
    s = _load_scenario(args)
    run, art = run_pipeline(s)
    rep = art.verification
    print(
        f"verify: min pairwise {rep.min_pairwise:.6f} (2r = {2*s.r}), "
        f"min clearance {rep.min_clearance:.6f} (r = {s.r}), "
        f"{len(rep.violations)} violations over {rep.samples} samples"
    )
    for v in rep.violations[:20]:
        print(f"  {v.kind} {v.agents} t=[{v.t_start:.2f},{v.t_end:.2f}] worst={v.worst:.6f}")
    return 0 if rep.ok else 1


def cmd_render(args) -> int:
    s = _load_scenario(args)
    out = _out_dir(args)
    run, art = run_pipeline(s)
    svg = render_scene(
        s.workspace,
        res=art.conversion,
        trajectories=art.trajectory,
        agents={a.id: a.start for a in s.agents},
        goals={a.id: a.goal for a in s.agents},
        r=s.r,
    )
    (out / "scene.svg").write_text(svg)
    frames = render_frames(out / "frames", art.trajectory, s.workspace, s.r, s.params.dt)
    print(f"render: scene + {len(frames)} frames -> {out}")
    return 0


def cmd_bench(args) -> int:
    suite = [scenario_from_dict(load_json(p)) for p in args.scenario]
    rows = bench(suite, trials=args.trials, seed=args.seed or 0)
    print(bench_table(rows))
    if args.out:
        out = _out_dir(args)
        dump_json({"rows": rows}, out / "bench.json")
        print(f"bench: rows -> {out/'bench.json'}")
    return 0 if all(r["success"] for r in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="swapmotion",
        description="Plan collision-free motions for disk agents via swap graphs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn, multi in [
        ("convert", cmd_convert, False),
        ("plan", cmd_plan, False),
        ("exec", cmd_exec, False),
        ("verify", cmd_verify, False),
        ("render", cmd_render, False),
        ("bench", cmd_bench, True),
    ]:
        p = sub.add_parser(name)
        if multi:
            p.add_argument("--scenario", nargs="+", required=True, help="scenario JSON file(s)")
            p.add_argument("--trials", type=int, default=15)
        else:
            p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--grid", type=float, default=None)
        p.add_argument("--kmax", type=int, default=None)
        p.add_argument("--threshold", type=int, default=None)
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--max-agents", type=int, default=None, dest="max_agents")
        p.set_defaults(func=fn)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SwapMotionError as e:
        code = _EXIT_CODES.get(type(e), 2)
        print(f"error [{type(e).__name__}]: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
