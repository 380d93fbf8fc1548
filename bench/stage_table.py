"""Informational per-scenario stage table; not part of the gated benchmark.

    python3 bench/stage_table.py [--out bench/stage_table.json]

One traced, in-memory pass over every shipped file in ``scenarios/`` with its
shipped goals. Each row has the columns of the ROADMAP baseline (N, |V|, ops,
horizon, and the inclusive seconds of convert, navigate, plan, realize,
verify and the whole run) plus that scenario's per-layer metrics.
``corridor_narrow_4`` is expected to end in `InsufficientCapacity`; any other
unexpected outcome makes the script exit with code 1.
"""

import os

from run import THREAD_VARS

os.environ.update({v: "1" for v in THREAD_VARS})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from worker import OUT, ROOT, GateFailure, import_program, run_pass  # noqa: E402

EXPECTED_ERRORS = {"corridor_narrow_4": "InsufficientCapacity"}
COLUMNS = {
    "convert": ("conversion.convert",),
    "navigate": ("assignment.navigate",),
    "plan": ("planner.plan",),
    "realize": ("trajectory.realize", "pipeline.concat"),
    "verify": ("trajectory.verify",),
    "wall": ("pipeline",),
}


def stage_row(scene, tmp_root: Path) -> dict:
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    row = {"scenario": scene.label, "N": len(scene.scenario.agents)}
    try:
        (outcome,) = run_pass([scene], tmp_root, tracer)
    except GateFailure as e:
        return {**row, "outcome": "gate failure", "detail": str(e), "expected": False}
    inclusive = defaultdict(float)
    for span in tracer.spans:
        inclusive[span.name] += span.end - span.start
    expected = EXPECTED_ERRORS.get(scene.label, "")
    row.update(
        outcome=outcome.error or "verified",
        expected=outcome.error == expected,
        V=int(tracer.counts["conversion.vertices"]),
        ops=outcome.ops,
        horizon=outcome.horizon,
        seconds={col: sum(inclusive[n] for n in names) for col, names in COLUMNS.items()},
        layers=layer_metrics(tracer, {}),
    )
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default=str(Path(__file__).resolve().parent / "stage_table.json"))
    args = ap.parse_args(argv)

    import_program()
    import numpy
    import scipy
    from workloads import Scene, load_shipped

    tmp_root = OUT / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    rows = []
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        scene = Scene(path.stem, load_shipped(ROOT, path.stem))
        rows.append(stage_row(scene, tmp_root))
        print(json.dumps({k: rows[-1][k] for k in ("scenario", "outcome")}), flush=True)
    table = {
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "loadavg": list(os.getloadavg()),
        },
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(table, indent=1) + "\n")
    return 0 if all(r["expected"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
