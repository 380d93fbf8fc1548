"""Command-line interface: exec (the whole pipeline), convert, render.

`exec` is the one command that plans; `convert` stops after the swap graph,
and `render` draws frames from the files an `exec --out` run wrote.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from .errors import (
    AssignmentFailure,
    InsufficientCapacity,
    InvalidScenario,
    NavigationFailure,
    SwapMotionError,
)
from .fileio import (
    Scenario,
    _is_number,
    dump_json,
    graph_to_dict,
    load_json,
    scenario_from_dict,
    trajectory_from_csv,
)
from .pipeline import convert_scenario, run_pipeline
from .render_svg import render_frames

_EXIT_CODES = {
    InsufficientCapacity: 3,
    AssignmentFailure: 4,
    NavigationFailure: 5,
}


def _read(path, parse):
    """`parse(path)`; a missing or malformed input file is an InvalidScenario."""
    try:
        return parse(path)
    except OSError as e:
        raise InvalidScenario(f"cannot read {path}: {e.strerror or e}") from e
    except (KeyError, TypeError, ValueError) as e:
        what = f"missing key {e}" if isinstance(e, KeyError) else f"{type(e).__name__}: {e}"
        raise InvalidScenario(f"{path}: malformed ({what})") from e


def _scenario_file(path) -> Scenario:
    return scenario_from_dict(load_json(path))


def _load_scenario(args) -> Scenario:
    """The scenario of `--scenario`, trimmed to `--max-agents`; InvalidScenario
    if `--out`, or the nearest of its ancestors that exists, is no directory."""
    s = _read(args.scenario, _scenario_file)
    if args.out is not None:
        out = Path(args.out)
        there = next(q for q in (out, *out.parents) if q.exists())
        if not there.is_dir():
            raise InvalidScenario(f"--out {args.out}: {there} is not a directory")
    if args.max_agents is not None:
        if args.max_agents < 1:
            raise InvalidScenario(f"--max-agents {args.max_agents} below 1")
        s.agents = s.agents[: args.max_agents]
    return s


def cmd_convert(args) -> int:
    s = _load_scenario(args)
    n = len(s.agents)
    res = convert_scenario(s)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dump_json(graph_to_dict(res), out / "graph.json")
    print(
        f"convert: {res.graph.num_vertices()} vertices in {res.graph.K} loops "
        f"from {len(res.circles)} circles -> {out/'graph.json'}"
    )
    if res.graph.num_vertices() < n + 1:
        print(f"convert: insufficient capacity for {n} agents", file=sys.stderr)
        return _EXIT_CODES[InsufficientCapacity]
    return 0


def cmd_exec(args) -> int:
    s = _load_scenario(args)
    t0 = time.perf_counter()
    run, art = run_pipeline(s, out_dir=args.out)
    wall = time.perf_counter() - t0
    print(
        f"exec: {s.name}: N={run.n_agents} |V|={run.num_vertices} ops={run.op_count} "
        f"horizon={run.horizon:.1f} violations={run.violations} wall={wall:.2f}s"
    )
    for stage, secs in run.timings.items():
        print(f"  {stage:>8}: {secs:.3f}s")
    rep = art.verification
    at = f" at t={rep.worst_pair[-1]:.2f}" if rep.worst_pair else ""
    print(
        f"verify: min pairwise {rep.min_pairwise:.6f} (2r = {2*s.r}){at}, "
        f"min clearance {rep.min_clearance:.6f} (r = {s.r}), "
        f"{len(rep.violations)} violations over {rep.samples} intervals"
    )
    for v in rep.violations[:20]:
        print(f"  {v.kind} {v.agents} t=[{v.t_start:.2f},{v.t_end:.2f}] worst={v.worst:.6f}")
    return 0 if run.success else 1


def cmd_render(args) -> int:
    out = Path(args.out)
    s = _read(out / "scenario.json", _scenario_file)
    dt = s.params.dt if args.dt is None else args.dt
    if not (_is_number(dt) and math.isfinite(dt) and dt > 0):
        where = "scenario.json params.dt" if args.dt is None else "--dt"
        raise InvalidScenario(f"frame step {where} {dt!r} not a finite number > 0")
    ts = _read(out / "trajectory.csv", trajectory_from_csv)
    frames = render_frames(out / "frames", ts, s.workspace, s.r, dt)
    print(f"render: {len(frames)} frames -> {out/'frames'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="swapmotion",
        description="Plan collision-free motions for disk agents via swap graphs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn, out, out_help in [
        ("exec", cmd_exec, None, "write every artifact here (default: none, run in memory)"),
        ("convert", cmd_convert, "out", "write graph.json here (default: out)"),
    ]:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", default=out, help=out_help)
        p.add_argument("--max-agents", type=int, default=None, dest="max_agents")
        p.set_defaults(func=fn)
    p = sub.add_parser("render")
    p.add_argument("--out", required=True, help="directory written by exec --out")
    p.add_argument("--dt", type=float, default=None,
                   help="frame step (default: the scenario's dt)")
    p.set_defaults(func=cmd_render)
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
