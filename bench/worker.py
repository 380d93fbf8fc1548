"""One benchmark run of one workload, in its own process.

Set-up (imports plus building the seeded scenes) is timed from the top of
this file. Then whole passes over the workload's scenes are repeated until
the next pass would end after ``--seconds``, with at least two passes so
that every scene is solved twice. Each scene is timed from the call of
`pipeline.run_pipeline` to its verdict; the correctness gate and artifact
clean-up run outside the timed region.

Every verified scene must pass the gate in `check_verified`, every other
outcome must be a typed `SwapMotionError`, and every scene must give the
same plan digest, ops and horizon in every pass. A breach prints the result
with ``"correct": false`` and exits with code 1.

Every reported time is scaled to a fixed host speed by `hostspeed`, because
the speed of a shared host drifts more between runs than any bound the
benchmark could set; the median measured pass time goes to standard error as
``raw_wall_s``.

With ``--trace 1`` traced and untraced passes alternate; the per-layer
metrics are medians over the traced passes, and ``trace.overhead_share``
compares the median traced and untraced pass times.

The last line of standard output is the run's result as JSON.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "scene_s.p50": "s",
    "scene_s.max": "s",
    "solved_share": "share",
    "ops": "count",
    "horizon": "time_units",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "medial_axis.extract_s": "s",
    "conversion.convert_self_s": "s",
    "conversion.vertices": "count",
    "conversion.circles_kept": "count",
    "conversion.loops": "count",
    "geometry.capsule_free.calls": "count",
    "geometry.capsule_free_s": "s",
    "geometry.capsule_free.free_share": "share",
    "assignment.match_s": "s",
    "assignment.navigate_s": "s",
    "assignment.navigate.calls": "count",
    "assignment.stuck_agents": "count",
    "planner.plan_s": "s",
    "planner.simplify_s": "s",
    "planner.ops_raw": "count",
    "planner.ops": "count",
    "planner.simplify_keep_share": "share",
    "trajectory.realize_s": "s",
    "trajectory.segments": "count",
    "pipeline.concat_s": "s",
    "trajectory.verify_s": "s",
    "trajectory.verify_samples": "count",
    "trajectory.verify_agent_samples": "count",
    "fileio.csv_s": "s",
    "fileio.json_s": "s",
    "fileio.bytes": "bytes",
    "render_svg.render_s": "s",
    "pipeline.self_s": "s",
    "trace.overhead_share": "share",
}


def import_program():
    """Put the checkout's own `src/` first on the path, or fail."""
    package = ROOT / "src" / "swapmotion"
    if not (package / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        raise SystemExit(f"bench: no swapmotion sources under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    import swapmotion

    if Path(swapmotion.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported swapmotion from {swapmotion.__file__}")


class GateFailure(Exception):
    """A scene broke the benchmark's correctness or determinism gate."""


@dataclass(frozen=True)
class Outcome:
    label: str
    seconds: float
    verified: bool
    error: str  # class name of the typed error, "" when verified
    digest: str  # of the plan, or of the typed error
    ops: int
    horizon: float
    artifact_bytes: int
    raw_seconds: float = 0.0  # as measured, before scaling to the reference host speed

    def fingerprint(self):
        return (self.verified, self.error, self.digest, self.ops, self.horizon)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_verified(scenario, report, art) -> list[str]:
    """Broken guarantees of one verified run (empty when all hold)."""
    from swapmotion.geometry import dist
    from swapmotion.planner import execute

    r = scenario.r
    tol = 1e-6 * r
    problems = []
    if report.violations or not report.success:
        problems.append(f"{report.violations} violations")
    if report.min_pairwise < 2 * r - tol:
        problems.append(f"min_pairwise {report.min_pairwise} < 2r")
    if report.min_clearance < r - tol:
        problems.append(f"min_clearance {report.min_clearance} < r")
    if execute(art.plan, art.conversion.graph).mapping != art.plan.goal.mapping:
        problems.append("executing the plan does not reach plan.goal")
    traj = art.trajectory
    for a in scenario.agents:
        if dist(traj.position(a.id, 0.0), a.start) > tol:
            problems.append(f"agent {a.id} does not start at its start")
        if dist(traj.position(a.id, traj.horizon), a.goal) > tol:
            problems.append(f"agent {a.id} does not end at its goal")
    return problems


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_scene(scene, tmp_root: Path) -> Outcome:
    """Solve one scene; typed errors are outcomes, anything else propagates."""
    from hostspeed import Sampler
    from swapmotion import pipeline
    from swapmotion.errors import SwapMotionError
    from swapmotion.fileio import plan_to_dict

    out_dir = Path(tempfile.mkdtemp(dir=tmp_root)) if scene.exec else None
    try:
        error = None
        with Sampler() as speed:
            t0 = time.perf_counter()
            try:
                report, art = pipeline.run_pipeline(scene.scenario, out_dir=out_dir)
            except SwapMotionError as e:
                error = e
            raw = time.perf_counter() - t0
        seconds = speed.scale(raw)
        if error is not None:
            text = f"{type(error).__name__}: {error}"
            return Outcome(scene.label, seconds, False, type(error).__name__, _digest(text),
                           0, 0.0, 0, raw)
        problems = check_verified(scene.scenario, report, art)
        if problems:
            raise GateFailure(f"{scene.label}: " + "; ".join(problems))
        plan = json.dumps(plan_to_dict(art.plan), sort_keys=True)
        size = _tree_bytes(out_dir) if out_dir else 0
        return Outcome(
            scene.label, seconds, True, "", _digest(plan), report.op_count, report.horizon, size, raw
        )
    finally:
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)


def run_pass(scenes, tmp_root: Path, tracer=None) -> list[Outcome]:
    """Solve every scene once, traced when a tracer is given."""
    from tracing import installed

    if tracer is None:
        return [run_scene(s, tmp_root) for s in scenes]
    out = []
    with installed(tracer):
        for s in scenes:
            tracer.scene = s.label
            out.append(run_scene(s, tmp_root))
    return out


def check_repeats(passes: list[list[Outcome]]):
    """Every pass must reproduce the first pass's plans exactly."""
    first = passes[0]
    for k, p in enumerate(passes[1:], start=1):
        for a, b in zip(first, p):
            if a.fingerprint() != b.fingerprint():
                raise GateFailure(f"{a.label}: pass {k} differs from pass 0 "
                                  f"({b.fingerprint()} != {a.fingerprint()})")


def measure(scenes, seconds: float, trace: bool, tmp_root: Path):
    """Repeat passes for about `seconds`; returns the passes and their tracers."""
    from tracing import Tracer

    passes, tracers, elapsed = [], [], []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = Tracer() if traced else None
        t0 = time.perf_counter()
        passes.append(run_pass(scenes, tmp_root, tracer))
        elapsed.append(time.perf_counter() - t0)
        tracers.append(tracer)
        if len(passes) >= 2 and (
            time.perf_counter() - start + statistics.median(elapsed) > seconds
        ):
            break
    check_repeats(passes)
    return passes, tracers


def wall(p: list[Outcome]) -> float:
    return sum(o.seconds for o in p)


def e2e_metrics(passes) -> dict[str, float]:
    per_scene = [statistics.median(ts) for ts in zip(*[[o.seconds for o in p] for p in passes])]
    solved = [o for o in passes[0] if o.verified]
    return {
        "wall_s": statistics.median(wall(p) for p in passes),
        "scene_s.p50": statistics.median(per_scene),
        "scene_s.max": max(per_scene),
        "solved_share": len(solved) / len(passes[0]),
        "ops": sum(o.ops for o in solved),
        "horizon": sum(o.horizon for o in solved),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(passes, tracers) -> dict[str, float]:
    from tracing import layer_metrics as of_tracer

    traced = [(p, t) for p, t in zip(passes, tracers) if t is not None]
    per_pass = []
    for p, t in traced:
        m = of_tracer(t, {o.label: o.seconds / o.raw_seconds for o in p})
        m["fileio.bytes"] = sum(o.artifact_bytes for o in p)
        per_pass.append(m)
    out = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    plain = statistics.median(wall(p) for p, t in zip(passes, tracers) if t is None)
    out["trace.overhead_share"] = statistics.median(wall(p) for p, _ in traced) / plain - 1.0
    return out


def write_spans(path: Path, tracers):
    rows = [
        [k, s.name, s.scene, s.start, s.end, s.parent]
        for k, t in enumerate(tracers) if t is not None
        for s in t.spans
    ]
    path.write_text(json.dumps({"columns": ["pass", "name", "scene", "start", "end", "parent"],
                                "spans": rows}))


def result_line(passes, metrics, units) -> dict:
    runs = [o for p in passes for o in p]
    return {
        "correct": True,
        "attempted": len(runs),
        "failed": sum(1 for o in runs if not o.verified),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_program()
    import workloads
    from hostspeed import at_reference_speed, time_kernel

    scenes = workloads.build(ROOT, args.workload, args.seed)
    raw_setup = time.perf_counter() - T0
    setup_s = at_reference_speed(raw_setup, [time_kernel() for _ in range(9)])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tmp_root = OUT / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    try:
        passes, tracers = measure(scenes, args.seconds, bool(args.trace), tmp_root)
    except Exception:  # noqa: BLE001 - a broken gate or an untyped error fails the run
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    if args.trace:
        write_spans(OUT / f"spans_{args.workload}_{args.seed}.json", tracers)
        result = result_line(passes, layer_metrics(passes, tracers), LAYER_UNITS)
    else:
        metrics = {"setup_s": setup_s, **e2e_metrics(passes)}
        result = result_line(passes, metrics, E2E_UNITS)
    raw = statistics.median(sum(o.raw_seconds for o in p) for p in passes)
    print(json.dumps({"raw_wall_s": raw}), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
