"""The ``oneshot`` path: ``repro query`` / ``repro decide``, each in a fresh interpreter.

A closed loop with one caller.  The command list covers the cells of
the template family that fit a run (shape x syntax for ``query``,
template for ``decide``; see ``FULL``, ``LIGHT`` and ``TEMPLATES``) with
labels the seed picks, in a seeded order; the named phase repeats the
list until ``--seconds`` have passed and always finishes one full pass,
so every cell is measured.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

import proc
from common import Run, cell_geomean
from inputs import (
    BIB_DTD,
    SHAPES,
    SYNTAXES,
    Decision,
    Query,
    bibliography,
    evaluate,
    check_decision,
    check_witness,
    decisions,
    from_nested,
    random_query,
    size,
    to_xml,
)

HERE = Path(__file__).resolve().parent

#: Query cells of the named phase: all but the legacy ``child`` and
#: ``filter`` cells (5-6 s and 3-4 s a command here, the latter moving
#: 20% with the hash seed), so a run fits its time.
FULL = [(shape, syntax) for shape in SHAPES for syntax in SYNTAXES
        if (shape, syntax) not in (("child", "legacy"), ("filter", "legacy"))]
#: Query cells of the short pass other workloads run: the cheaper ones.
LIGHT = [("desc", syntax) for syntax in SYNTAXES] + [("filter", "xpath")]
#: Decision templates of each phase; the short pass leaves out the
#: containment case (3 s a command here).
TEMPLATES = {True: ("nonempty", "not_contained"), False: ("nonempty",)}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.cli; "
    "print(time.perf_counter() - t)"
)


@dataclass
class Command:
    """One CLI command and what it must answer."""

    cell: str
    query: Query | None = None
    decision: Decision | None = None

    def argv(self, doc: Path, dtd: Path) -> list[str]:
        if self.query is not None:
            return proc.cli("query", str(doc), self.query.text, "--dtd", str(dtd))
        patterns = [pattern.text for pattern in self.decision.patterns]
        return proc.cli("decide", self.decision.mode, str(dtd), *patterns)


def plan(seed: int, full: bool):
    """The document and the seeded command list."""
    rng = random.Random(f"oneshot:{seed}")
    document = bibliography(rng, 25, "mixed", rng.uniform(0.3, 0.7))
    commands = [
        Command(f"query:{shape}:{syntax}", query=random_query(rng, shape, syntax))
        for shape, syntax in (FULL if full else LIGHT)
    ] + [
        Command(f"decide:{template}", decision=decision) for template, decision in decisions(rng)
        if template in TEMPLATES[full]
    ]
    rng.shuffle(commands)
    return document, commands


def answer_paths(stdout: str) -> list[tuple]:
    """The match locations ``repro query`` printed, in order."""
    paths = []
    for line in stdout.splitlines():
        if line.startswith("/") and line.endswith(":"):
            paths.append(tuple(int(part) for part in line[:-1].strip("/").split("/") if part))
    return paths


def check(command: Command, document, returncode: int, stdout: str) -> str | None:
    """``None`` when the command answered right, else what is wrong."""
    if command.query is None:
        return check_decision(command.decision, returncode, stdout)
    if returncode != 0:
        return f"{command.query.text}: exit code {returncode}"
    got = answer_paths(stdout)
    want = evaluate(command.query, document)
    if got != want:
        return f"{command.query.text}: {len(got)} answers, expected {len(want)}"
    return None


def import_times(run: Run, samples: int) -> tuple[list[float], list[float]]:
    """(launch-to-exit, in-interpreter) seconds of ``import repro.cli``, ``samples`` times."""
    walls, inside = [], []
    for index in range(samples):
        env = proc.program_env(run.root, run.next_hash_seed())
        result = proc.run([sys.executable, "-c", IMPORT_PROBE], env, run.work / f"import{index}")
        if result["returncode"] != 0:
            raise proc.ProgramError(f"import repro.cli failed: {result['stderr'][-500:]}")
        walls.append(result["wall_s"])
        inside.append(float(result["stdout"].strip()))
    return walls, inside


def run_phase(run: Run, named: bool, seconds: float, slices: int, setups: int):
    """Run the command loop; record metrics, layer figures and the report.

    A generator: it yields ``slices`` times per pass over the command
    list, so the caller can interleave the other paths.  ``seconds``
    counts only this path's own command time.  Set-up is the launch of
    a fresh interpreter through ``import repro.cli``, probed ``setups``
    times.
    """
    document, commands = plan(run.seed, named)
    work = run.work / "oneshot"
    work.mkdir(parents=True, exist_ok=True)
    doc_path, dtd_path = work / "doc.xml", work / "bib.dtd"
    doc_path.write_text(to_xml(document))
    dtd_path.write_text(BIB_DTD)

    walls, inside = import_times(run, setups)
    samples: dict[str, dict[str, list[float]]] = {"query": {}, "decide": {}}
    peak_rss = 0.0
    rows = []
    traced: list[dict] = []
    own = 0.0
    passes = 0
    while passes == 0 or own < seconds:
        for position, command in enumerate(commands):
            if passes and own >= seconds:
                break
            index = len(rows)
            seed = run.next_hash_seed()
            env = proc.program_env(run.root, seed)
            result = proc.run(command.argv(doc_path, dtd_path), env, work / f"cmd{index}")
            own += result["wall_s"]
            kind = "query" if command.query is not None else "decide"
            error = check(command, document, result["returncode"], result["stdout"])
            if run.count(kind, error):
                samples[kind].setdefault(command.cell, []).append(result["wall_s"])
            peak_rss = max(peak_rss, result["rss_mb"])
            rows.append({
                "cell": command.cell,
                "args": command.argv(Path("doc.xml"), Path("bib.dtd"))[3:],
                "hash_seed": seed,
                "answers": len(evaluate(command.query, document)) if command.query else None,
                "wall_s": round(result["wall_s"], 4),
                "rss_mb": round(result["rss_mb"], 1),
            })
            if run.trace:
                traced.append(_traced_replay(run, command, document, doc_path, dtd_path, env,
                                             index, result["wall_s"]))
            if (position + 1) * slices // len(commands) > position * slices // len(commands):
                yield
        passes += 1

    if samples["query"]:
        run.metrics["cold_query_s"] = cell_geomean(samples["query"])
    if samples["decide"]:
        run.metrics["decide_s"] = cell_geomean(samples["decide"])
    if named:
        run.metrics["setup_s"] = statistics.median(walls)
        run.metrics["peak_rss_mb"] = peak_rss
    run.report["oneshot"] = {
        "document_nodes": size(document),
        "label_set": "mixed",
        "import_s": [round(value, 4) for value in inside],
        "commands": rows,
    }
    if run.trace:
        _layer_metrics(run, traced, inside)


def _traced_replay(run: Run, command: Command, document, doc_path: Path, dtd_path: Path,
                   env: dict, index: int, untraced_s: float) -> dict:
    """Replay one command through the layers' public functions, with spans."""
    spec = {"doc": str(doc_path), "dtd": str(dtd_path), "prefix": f"q{index}."}
    if command.query is not None:
        spec.update(mode="query", pattern=command.query.text)
    else:
        spec.update(mode="decide", decide=command.decision.mode,
                    patterns=[pattern.text for pattern in command.decision.patterns])
    spec_path = run.work / "oneshot" / f"trace{index}.json"
    out_path = run.work / "oneshot" / f"trace{index}.out.json"
    spec_path.write_text(json.dumps(spec))
    argv = [sys.executable, str(HERE / "trace_worker.py"), str(spec_path), str(out_path)]
    proc_handle, launched = proc.start(argv, env)
    returncode, _, _ = proc.reap(proc_handle)
    if returncode != 0:
        raise proc.ProgramError(f"traced replay of {command.cell} exited {returncode}")
    out = json.loads(out_path.read_text())
    op = f"oneshot.{index}"
    root = run.tracer.add("op.oneshot", launched, out["done"], op=op)
    run.tracer.extend(out["spans"], parent=root, op=op)
    if command.query is not None:
        got = [tuple(path) for path in out["paths"]]
        error = None if got == evaluate(command.query, document) else "traced answers differ"
    elif out["witness"] is None:
        error = f"traced replay found no witness for {command.cell}"
    else:
        error = check_witness(command.decision, from_nested(out["witness"]), tuple(out["marked"]))
    run.count("traced", error)
    return {"command": command, "op": op, "out": out, "traced_s": out["done"] - launched,
            "untraced_s": untraced_s}


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _layer_metrics(run: Run, traced: list[dict], inside: list[float]) -> None:
    """Per-layer figures of the oneshot path from the traced replays."""
    def span_total(item: dict, name: str) -> float:
        return sum(s["end"] - s["start"] for s in item["out"]["spans"] if s["name"] == name)

    layers = run.layers
    layers["import.s"] = statistics.median(inside)
    queries = [item for item in traced if item["command"].query is not None]
    decides = [item for item in traced if item["command"].query is None]
    for syntax in SYNTAXES:
        chosen = [item for item in queries if item["command"].query.syntax == syntax]
        layers[f"lang.lower_ms.{syntax}"] = _mean([span_total(i, "lang") for i in chosen]) * 1e3
        layers[f"compile.query_s.{syntax}"] = _mean([span_total(i, "compile") for i in chosen])
    layers["compile.decide_s"] = _mean([span_total(i, "compile") for i in decides])
    counters = [item["out"]["counters"] for item in traced]
    before = sum(c.get("minimize.states_before", 0) for c in counters)
    after = sum(c.get("minimize.states_after", 0) for c in counters)
    layers["minimize.kept_ratio"] = after / before if before else 0.0
    layers["engine.registry_evictions"] = _mean([c.get("engine.registry_evictions", 0) for c in counters])
    layers["bitset.packed_nfas"] = _mean([c.get("bitset.packed_nfas", 0) for c in counters])
    layers["decide.product_s"] = _mean([span_total(i, "decide") for i in decides])
    layers["decide.product_states"] = _mean([i["out"]["product_states"] for i in decides])
    run.report.setdefault("trace_ops", {})["oneshot"] = {
        "ops": {item["op"] for item in traced},
        "wall_s": sum(item["traced_s"] for item in traced),
        "untraced_s": sum(item["untraced_s"] for item in traced),
    }
