"""The ``ingest`` path: the library API in one process, a closed loop with one caller.

Documents come in two label sets (mixed bibliographies and irregular
trees share one, articles-only bibliographies have their own); set-up
compiles every query for each, so the timed phase compiles nothing and
its work is parsing, validation, evaluation, enumeration and
serialization.  Irregular trees share few subtrees, bibliographies many.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import proc
from common import Run, geomean
from inputs import (
    ARTICLES,
    BIB_DTD,
    MIXED,
    TEXT,
    Node,
    FIELDS,
    Query,
    at,
    bibliography,
    evaluate,
    irregular,
    size,
    to_xml,
)

HERE = Path(__file__).resolve().parent
FIRST_ANSWERS = 3
#: Rounds of documents: 1200 in all.  The three processes start 400
#: apart and each runs 8/3 s; the fastest seen on a 2-vCPU VM got
#: through ~110 a second, so none reaches the next one's documents.
ROUNDS = 100


def plan(seed: int):
    """Seeded documents ``(node, family, valid, label set)`` and queries.

    Every run has the same mix of families, label sets and sizes (the
    cells below, in a seeded order); the seed picks contents and labels.
    There are enough documents that no process sees one twice: the program
    caches subtree types, so a repeated document would be cheaper, and
    more of them would repeat the faster the machine ran.
    """
    rng = random.Random(f"ingest:{seed}")
    p_book = rng.uniform(0.3, 0.7)
    # Rounds with every cell: a timed phase that gets through only part of
    # the list still sees the same mix.
    cells = ([("mixed", entries) for entries in (8, 20, 40)] * 2
             + [("articles", entries) for entries in (8, 20, 40)]
             + [("irregular", nodes) for nodes in (100, 250, 500)])
    order = []
    for _ in range(ROUNDS):
        rng.shuffle(cells)
        order += cells
    docs = []
    for kind, amount in order:
        if kind == "irregular":
            docs.append((irregular(rng, amount), "irregular", False, MIXED))
        else:
            node = bibliography(rng, amount, kind, p_book)
            docs.append((node, "bib", True, MIXED if kind == "mixed" else ARTICLES))
    # The seed picks labels, but every run selects the same volume: each
    # field once under ``desc``, and one field under both entry kinds.
    fields = list(FIELDS)
    rng.shuffle(fields)
    child = rng.choice(FIELDS)
    queries = [Query("desc", syntax, (field,)) for syntax, field in zip(("xpath", "mso", "xpath"), fields)]
    queries += [Query("child", "xpath", ("book", child)), Query("child", "mso", ("article", child))]
    exemplars = [bibliography(rng, 2, "mixed", 0.5), bibliography(rng, 1, "articles", 0.0)]
    return docs, queries, exemplars


def _same(element: ElementTree.Element, node: Node) -> bool:
    """Does a reparsed serialized match equal the expected subtree?"""
    if element.tag != node.label:
        return False
    texts = [child.text for child in node.children if child.label == TEXT]
    inner = [child for child in node.children if child.label != TEXT]
    if (element.text or "").split() != " ".join(texts).split() or len(element) != len(inner):
        return False
    return all(_same(sub, child) for sub, child in zip(element, inner))


def check(record: dict, docs, queries, expected: dict) -> str | None:
    """``None`` when one processed document's answers are right."""
    node = docs[record["doc"]][0]
    for number, query in enumerate(queries):
        key = (record["doc"], number)
        if key not in expected:
            expected[key] = evaluate(query, node)
        want = expected[key]
        got = [tuple(path) for path in record["answers"][number]]
        if got != want:
            return f"doc {record['doc']} {query.text}: {len(got)} answers, expected {len(want)}"
        if [tuple(path) for path in record["firsts"][number]] != want[:FIRST_ANSWERS]:
            return f"doc {record['doc']} {query.text}: select_iter first answers differ"
        if record["serialized"] is not None:
            for path, text in zip(want, record["serialized"][number]):
                if not _same(ElementTree.fromstring(text), at(node, path)):
                    return f"doc {record['doc']} {query.text}: serialized match at {path} differs"
    return None


class _Worker:
    """One ingest process, set up and then driven slice by slice."""

    def __init__(self, run: Run, spec: dict, name: str, hash_seed: int | None = None) -> None:
        spec_path = run.work / "ingest" / f"{name}.json"
        self.out_path = run.work / "ingest" / f"{name}.out.json"
        spec_path.write_text(json.dumps(spec))
        self.hash_seed = run.next_hash_seed() if hash_seed is None else hash_seed
        env = proc.program_env(run.root, self.hash_seed)
        argv = [sys.executable, str(HERE / "ingest_worker.py"), str(spec_path), str(self.out_path)]
        self.handle, launched = proc.start(argv, env, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            self._expect(b"ready")
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - launched

    def _expect(self, word: bytes) -> None:
        line = proc.read_line(self.handle, self.handle.stdout)
        if line.strip() != word:
            raise proc.ProgramError(f"ingest process wrote {line[:200]!r}, expected {word!r}")

    def slice(self, seconds: float) -> None:
        """One timed slice of ``seconds``."""
        self.handle.stdin.write(f"{seconds}\n".encode())
        self.handle.stdin.flush()
        self._expect(b"done")

    def finish(self) -> dict:
        """End the process; its results, set-up time and peak RSS."""
        self.handle.stdin.close()
        self.handle.stdout.close()
        returncode, _, rss = proc.reap(self.handle)
        if returncode != 0:
            raise proc.ProgramError(f"ingest process exited {returncode}")
        out = json.loads(self.out_path.read_text())
        out["setup_s"] = self.setup_s
        out["hash_seed"] = self.hash_seed
        out["rss_mb"] = rss
        return out

    def kill(self) -> None:
        self.handle.kill()
        self.handle.wait()


def run_phase(run: Run, named: bool, seconds: float, slices: int, setups: int):
    """Run the ingest processes; record metrics, layer figures and the report.

    A generator yielding after each of ``slices`` timed slices: ``setups``
    processes, each set up once and then given an equal share of the
    slices and of ``seconds``.  No workload names this path (``named`` is
    always false), so its set-up times go to the report, not to
    ``setup_s``.
    """
    docs, queries, exemplars = plan(run.seed)
    (run.work / "ingest").mkdir(parents=True, exist_ok=True)
    per_worker = slices // setups
    spec = {
        "dtd": BIB_DTD,
        "docs": [{"text": to_xml(node), "valid": valid, "family": family}
                 for node, family, valid, _ in docs],
        "queries": [query.text for query in queries],
        "exemplars": [to_xml(node) for node in exemplars],
        "limit": FIRST_ANSWERS,
        "trace": False,
        "prefix": "",
        "start": 0,
    }
    outs = []
    for number in range(setups):
        # Each process starts at its own round, so together they see more documents.
        spec["start"] = number * len(docs) // setups
        worker = _Worker(run, spec, f"run{number}")
        try:
            for _ in range(per_worker):
                worker.slice(seconds / slices)
                yield
        except BaseException:  # the run failed or was abandoned: stop the process
            worker.kill()
            raise
        outs.append(worker.finish())
    expected: dict = {}
    for out in outs:
        for record in out["records"]:
            run.count("ingest", check(record, docs, queries, expected))
        misses = sum(out["compile_misses"].values())
        run.count("ingest_compile", None if misses == 0 else f"{misses} compile-cache misses")
    processed = sum(out["processed"] for out in outs)
    elapsed = sum(piece["elapsed_s"] for out in outs for piece in out["slices"])
    ttfa = [value for out in outs for value in out["ttfa_s"]]
    # Medians over the slices, as on the serve path (``common.slice_median``).
    rates, firsts = [], []
    for out in outs:
        begin = 0
        for piece in out["slices"]:
            rates.append(piece["processed"] / piece["elapsed_s"])
            # Geometric mean, not median: the sample is multi-modal (three
            # document sizes), and its median jumps between modes.
            firsts.append(geomean(out["ttfa_s"][begin:piece["ttfa_end"]]))
            begin = piece["ttfa_end"]
    run.metrics["ingest_docs_per_s"] = statistics.median(rates)
    run.metrics["ttfa_ms"] = statistics.median(firsts) * 1e3
    answers = {query.text: [len(expected[(d, n)]) for d in range(len(docs)) if (d, n) in expected]
               for n, query in enumerate(queries)}
    run.report["ingest"] = {
        "documents": [{"family": family, "nodes": size(node), "label_set": "mixed" if ls == MIXED
                       else "articles"} for node, family, _, ls in docs],
        "queries": [query.text for query in queries],
        "answers_per_query": {text: sum(counts) / max(1, len(counts)) for text, counts in answers.items()},
        "label_sets": {"mixed": list(MIXED), "articles": list(ARTICLES)},
        "compile_misses_timed": [out["compile_misses"] for out in outs],
        "processed": processed,
        "documents_repeated": sum(max(0, out["processed"] - len(docs)) for out in outs),
        "elapsed_s": elapsed,
        "setup_s": [out["setup_s"] for out in outs],
        "rss_mb": [out["rss_mb"] for out in outs],
        "ttfa_samples": len(ttfa),
    }
    if run.trace:
        _traced(run, spec, docs, queries, expected, outs, seconds / setups)


def _traced(run: Run, spec: dict, docs, queries, expected, outs: list, seconds: float) -> None:
    """One traced process running ``seconds``; per-layer figures of the ingest path.

    It goes through the documents of the first untraced process, from the
    same start and under the same hash seed, so the two compare for the
    tracing overhead.
    """
    first = outs[0]
    worker = _Worker(run, dict(spec, trace=True, prefix="i.", start=0), "traced",
                     hash_seed=first["hash_seed"])
    try:
        worker.slice(seconds)
    except BaseException:
        worker.kill()
        raise
    out = worker.finish()
    for record in out["records"]:
        run.count("traced", check(record, docs, queries, expected))
    ops = {span["op"] for span in out["spans"]}
    run.tracer.spans.extend(out["spans"])
    per_doc = {}
    for span in out["spans"]:
        per_doc.setdefault(span["name"], []).append(span["end"] - span["start"])
    docs_done = max(1, out["processed"])
    valid_done = sum(1 for record in out["records"] if docs[record["doc"]][2])
    layers = run.layers
    layers["xml.parse_ms"] = sum(per_doc.get("xml.parse", [])) / docs_done * 1e3
    layers["dtd.validate_ms"] = sum(per_doc.get("dtd", [])) / max(1, valid_done) * 1e3
    layers["eval.select_ms"] = sum(per_doc.get("eval", [])) / (docs_done * len(queries)) * 1e3
    layers["xml.serialize_ms"] = sum(per_doc.get("xml.serialize", [])) / docs_done * 1e3
    layers["enum.first_answer_ms"] = geomean(out["ttfa_s"]) * 1e3 if out["ttfa_s"] else 0.0
    counters = out["counters"]
    answers = counters.get("enumerate.answers", 0)
    layers["enumerate.nodes_per_answer"] = counters.get("enumerate.nodes", 0) / answers if answers else 0.0
    for family in ("bib", "irregular"):
        got = out["families"].get(family, {})
        nodes = got.get("trees.nodes", 0)
        layers[f"trees.type_miss_ratio.{family}"] = got.get("trees.type_misses", 0) / nodes if nodes else 0.0
    layers["compile.cache_misses.ingest"] = sum(sum(o["compile_misses"].values()) for o in outs) + sum(
        out["compile_misses"].values())
    run.report.setdefault("trace_ops", {})["ingest"] = {
        "ops": ops,
        "wall_s": sum(s["end"] - s["start"] for s in out["spans"] if s["parent"] is None),
        "untraced_s": out["processed"] * sum(piece["elapsed_s"] for piece in first["slices"])
        / first["processed"],
    }
