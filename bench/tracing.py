"""Outside-in tracing of the pipeline layers.

Timing wrappers are swapped into the module attributes through which
`pipeline`, `conversion`, `assignment`, `medial_axis` and `planner` look up
each layer's public function, and the originals are put back afterwards.
Nothing under ``src/`` changes. Spans are kept in memory with name, scene,
start, end and parent; a span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    scene: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the top


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.scene = ""
        self._open: list[int] = []

    def wrap(self, fn, name, observe=None):
        def traced(*args, **kwargs):
            span = Span(name, self.scene, 0.0, 0.0, self._open[-1] if self._open else -1)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if observe is not None:
                observe(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def self_by_name(self, scale: dict[str, float]) -> dict[str, float]:
        """Self time summed per span name, times the factor of the span's scene."""
        out: dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, self.self_times()):
            out[s.name] += t * scale.get(s.scene, 1.0)
        return out

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)


def _conversion(counts, args, res):
    counts["conversion.vertices"] += res.graph.num_vertices()
    counts["conversion.circles_kept"] += len(res.circles)
    counts["conversion.loops"] += len(res.graph.loops)


def _capsule(counts, args, free):
    counts["geometry.capsule_free.free"] += bool(free)


def _navigate(counts, args, result):
    counts["assignment.stuck_agents"] += len(result.stuck_agents)


def _simplify(counts, args, ops):
    counts["planner.ops_raw"] += len(args[0])
    counts["planner.ops"] += len(ops)


def _realize(counts, args, ts):
    counts["trajectory.segments"] += sum(len(segs) for segs in ts.segments.values())


def _verify(counts, args, report):
    counts["trajectory.verify_samples"] += report.samples
    counts["trajectory.verify_agent_samples"] += report.samples * len(args[0].segments)


def hooks():
    """(module, attribute, span name, observer) for every wrapped lookup."""
    from swapmotion import assignment, conversion, medial_axis, pipeline, planner

    return [
        (pipeline, "run_pipeline", "pipeline", None),
        (pipeline, "greedy_convert", "conversion.convert", _conversion),
        (conversion, "extract_medial_axis", "medial_axis.extract", None),
        (conversion, "capsule_free", "geometry.capsule_free", _capsule),
        (assignment, "capsule_free", "geometry.capsule_free", _capsule),
        (medial_axis, "capsule_free", "geometry.capsule_free", _capsule),
        (pipeline, "optimal_assignment", "assignment.match", None),
        (pipeline, "navigate", "assignment.navigate", _navigate),
        (pipeline, "plan_permutation", "planner.plan", None),
        (planner, "simplify_ops", "planner.simplify", _simplify),
        (pipeline, "realize_plan", "trajectory.realize", _realize),
        (pipeline, "concat_trajectories", "pipeline.concat", None),
        (pipeline, "verify_trajectories", "trajectory.verify", _verify),
        (pipeline, "trajectory_to_csv", "fileio.csv", None),
        (pipeline, "dump_json", "fileio.json", None),
        (pipeline, "render_scene", "render_svg.render", None),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Route every hooked lookup through `tracer` until the block exits."""
    saved = []
    try:
        for module, attr, name, observe in hooks():
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, observe))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, scale: dict[str, float]) -> dict[str, float]:
    """Per-layer self times (s, scaled per scene by `scale`) and counts of one pass."""
    own = tracer.self_by_name(scale)
    c = tracer.counts
    capsule_calls = tracer.calls("geometry.capsule_free")
    return {
        "medial_axis.extract_s": own["medial_axis.extract"],
        "conversion.convert_self_s": own["conversion.convert"],
        "conversion.vertices": c["conversion.vertices"],
        "conversion.circles_kept": c["conversion.circles_kept"],
        "conversion.loops": c["conversion.loops"],
        "geometry.capsule_free.calls": capsule_calls,
        "geometry.capsule_free_s": own["geometry.capsule_free"],
        "geometry.capsule_free.free_share": _share(c["geometry.capsule_free.free"], capsule_calls),
        "assignment.match_s": own["assignment.match"],
        "assignment.navigate_s": own["assignment.navigate"],
        "assignment.navigate.calls": tracer.calls("assignment.navigate"),
        "assignment.stuck_agents": c["assignment.stuck_agents"],
        "planner.plan_s": own["planner.plan"],
        "planner.simplify_s": own["planner.simplify"],
        "planner.ops_raw": c["planner.ops_raw"],
        "planner.ops": c["planner.ops"],
        "planner.simplify_keep_share": _share(c["planner.ops"], c["planner.ops_raw"]),
        "trajectory.realize_s": own["trajectory.realize"],
        "trajectory.segments": c["trajectory.segments"],
        "pipeline.concat_s": own["pipeline.concat"],
        "trajectory.verify_s": own["trajectory.verify"],
        "trajectory.verify_samples": c["trajectory.verify_samples"],
        "trajectory.verify_agent_samples": c["trajectory.verify_agent_samples"],
        "fileio.csv_s": own["fileio.csv"],
        "fileio.json_s": own["fileio.json"],
        "render_svg.render_s": own["render_svg.render"],
        "pipeline.self_s": own["pipeline"],
    }
