"""The end-to-end benchmark of the ``repro`` query-automata program.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload oneshot|serve --seed N --seconds S --trace 0|1

Every run drives all three user-facing paths, so it can print every
end-to-end metric: ``oneshot`` (``repro query`` / ``repro decide`` in
fresh interpreters), ``ingest`` (the library API over a document stream)
and ``serve`` (an open loop against ``repro serve --tcp``).  The
workload names the path that runs for ``--seconds`` and whose set-up
``setup_s`` and ``peak_rss_mb`` report; the other paths run a fixed
pass.  ``ingest`` is no workload of its own: every run measures it
(8 s over three processes), and the time a third workload would take
is spent on longer ``serve`` traffic, whose latencies need it.  The paths
run one after another in slices, taking turns, so each metric samples
the whole run rather than one stretch of it: the machine's speed drifts
over seconds, and a path measured in one stretch would carry that
stretch's speed.  Inputs come only from ``--seed``; every answer is
checked against the benchmark's own evaluator (``inputs.py``), never
the program's.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` adds traced
replays that time each layer's public functions and read the program's
``repro.obs`` counters, prints the per-layer metrics, and writes every
span to ``.perfbench_work/trace-<workload>-<seed>.json``.

The last stdout line is the result object; the line before it is a
report of the input properties (sizes, label sets, answer counts,
compile-cache misses, fresh share, hash seeds) behind the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ingest  # noqa: E402
import oneshot  # noqa: E402
import proc  # noqa: E402
import serve  # noqa: E402
from common import Run  # noqa: E402
from spans import self_times  # noqa: E402

PATHS = ("oneshot", "ingest", "serve")
WORKLOADS = ("oneshot", "serve")
PHASES = {"oneshot": oneshot.run_phase, "ingest": ingest.run_phase, "serve": serve.run_phase}
#: Slices per path and run: each round of the run takes one slice of every path.
SLICES = 6
#: Set-ups of the named path (``setup_s`` is their median).
SETUPS = 3
#: Seconds and set-ups of the paths a run does not name (``oneshot`` makes
#: one pass of its short list).  ``ingest`` and ``serve`` spread their
#: time over three processes, each with its own hash seed, because their
#: speed follows it: one ingest process ran 51-61 docs/s on the same
#: documents under three hash seeds, and the hot p99 is set by compile
#: stalls whose length varies with the server's hash seed.  ``serve``
#: runs as when named, for the run length BENCHMARK.json sets (20 s).
SHORT = {"oneshot": (0.0, 1), "ingest": (8.0, SETUPS), "serve": (20.0, SETUPS)}

END_TO_END = {
    "cold_query_s": "s",
    "decide_s": "s",
    "ingest_docs_per_s": "1/s",
    "ttfa_ms": "ms",
    "hot_p50_ms": "ms",
    "hot_p99_ms": "ms",
    "edit_p50_ms": "ms",
    "page_p50_ms": "ms",
    "fresh_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per path, the layers whose self time is reported as a share of that
#: path's traced operations.
SHARE_LAYERS = {
    "oneshot": ("import", "xml.parse", "dtd", "lang", "compile", "eval", "xml.serialize", "decide"),
    "ingest": ("xml.parse", "dtd", "eval", "xml.serialize", "enum"),
    "serve": ("serve.server",),
}


def cpu_probe() -> float:
    """Seconds a fixed pure-Python loop takes now: how fast the machine is
    running, recorded beside the results to explain run-to-run drift."""
    began = time.perf_counter()
    total = 0
    for number in range(1_000_000):
        total += number * number
    return time.perf_counter() - began


def layer_units(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    stem = name.split(".")[1] if name.count(".") > 1 else name
    if stem.endswith("_ms"):
        return "ms"
    if stem.endswith("_s") or name == "import.s":
        return "s"
    if name.startswith(("share.", "trace.")) or "ratio" in name or name.endswith("_share_p99"):
        return "ratio"
    return "count"


def shares(run: Run) -> None:
    """Self-time shares of each path's traced operations, the remainder no
    layer accounts for, and the tracing overhead."""
    run.report["trace"] = {}
    for path, traced in run.report.pop("trace_ops").items():
        totals = self_times(run.tracer.spans, traced["ops"])
        roots = [s for s in run.tracer.spans if s["op"] in traced["ops"] and s["parent"] is None]
        wall = sum(s["end"] - s["start"] for s in roots)
        for layer in SHARE_LAYERS[path]:
            run.layers[f"share.{path}.{layer}"] = totals.get(layer, 0.0) / wall
        run.layers[f"share.{path}.remainder"] = sum(
            value for name, value in totals.items() if name.startswith("op.")) / wall
        run.layers[f"trace.overhead_share.{path}"] = (
            (traced["wall_s"] - traced["untraced_s"]) / traced["untraced_s"])
        run.report["trace"][path] = {
            "operations": len(traced["ops"]),
            "self_s": {name: round(value, 6) for name, value in sorted(totals.items())},
            "traced_s": traced["wall_s"],
            "untraced_s": traced["untraced_s"],
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"no program to measure: {root / 'src' / 'repro'} is missing "
              "(run from the root of a checkout)", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run = Run(root=root, work=work, seed=args.seed, trace=bool(args.trace))
    try:
        work.mkdir(parents=True, exist_ok=True)
        # Byte-compile once, as an installed package would be, so no
        # measured process pays for it.
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src")],
                       check=True, stdout=subprocess.DEVNULL)
        phases = {}
        for phase in PATHS:
            named = phase == args.workload
            seconds, setups = (args.seconds, SETUPS) if named else SHORT[phase]
            phases[phase] = PHASES[phase](run, named, seconds, SLICES, setups)
        spent = dict.fromkeys(phases, 0.0)
        try:
            while phases:
                run.report.setdefault("cpu_probe_s", []).append(cpu_probe())
                for phase, slices in list(phases.items()):
                    began = time.perf_counter()
                    if next(slices, StopIteration) is StopIteration:
                        del phases[phase]
                    spent[phase] += time.perf_counter() - began
        finally:
            for slices in phases.values():  # stops the processes of an abandoned path
                slices.close()
        print(" ".join(f"{phase}: {value:.1f} s" for phase, value in spent.items()), file=sys.stderr)
        if run.trace:
            shares(run)
            run.tracer.dump(root / ".perfbench_work" / f"trace-{args.workload}-{args.seed}.json")
    except (proc.ProgramError, subprocess.CalledProcessError, OSError, KeyError, ValueError):
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(run.attempted.values())
    failed = sum(run.failed.values())
    if run.trace:
        metrics = {name: {"value": value, "unit": layer_units(name)}
                   for name, value in sorted(run.layers.items())}
    else:
        metrics = {name: {"value": run.metrics[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    run.report.update(
        workload=args.workload,
        seed=args.seed,
        hash_seeds=run.hash_seeds,
        attempted=run.attempted,
        failed=run.failed,
    )
    print(json.dumps({"report": run.report}, default=sorted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
