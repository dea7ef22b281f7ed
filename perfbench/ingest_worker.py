"""The ``ingest`` process: the library API over a stream of documents.

Usage: ``python perfbench/ingest_worker.py SPEC.json OUT.json`` with the
program's sources on ``PYTHONPATH``.  Set-up imports the library and
compiles every query once per label set (by selecting on one small
document of each), then prints ``ready``.  Each line then read from
stdin is a number of seconds: a timed slice that goes on through the
documents where the last one stopped, answered by ``done``; each
slice's documents, time and first answers are kept apart.  Per
document: ``Document.from_text`` (with the DTD when the document is
valid), ``select`` for each query with every match serialized, and
``select_iter(limit=...)`` for the first answers.  At the end of stdin
the results go to OUT.json.  With ``trace`` set, every layer call is a
span and a recording ``repro.obs.Stats`` sink is installed.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext

from spans import Tracer

from repro import obs
from repro.core.pipeline import Document, ValidationError, pattern_cache_info
from repro.perf.compile import compile_cache_info
from repro.trees.dtd import parse_dtd
from repro.trees.xml import parse_document, serialize, to_tree


def main() -> int:
    spec = json.load(open(sys.argv[1]))
    queries = spec["queries"]
    dtd = parse_dtd(spec["dtd"])
    for text in spec["exemplars"]:
        document = Document.from_text(text, dtd)
        for query in queries:
            document.select(query)
    print("ready", flush=True)

    trace = spec["trace"]
    tracer = Tracer(prefix=spec["prefix"])
    stats = obs.Stats()
    if trace:
        obs.set_sink(stats)
    span = tracer.span if trace else (lambda name: nullcontext())
    docs = spec["docs"]
    limit = spec["limit"]
    records, ttfa, families = [], [], {}

    def process(number: int) -> None:
        index = (spec["start"] + number) % len(docs)
        text, valid = docs[index]["text"], docs[index]["valid"]
        counted = dict(stats.counters) if trace else None
        with (tracer.op("op.ingest", op_id=f"{spec['prefix']}d{number}") if trace else nullcontext()):
            if trace:
                with span("xml.parse"):
                    element = parse_document(text)
                    tree = to_tree(element)
                if valid:
                    with span("dtd"):
                        if dtd.violations(tree):
                            raise ValidationError(f"document {index} rejected")
                document = Document(element, tree)
            else:
                document = Document.from_text(text, dtd if valid else None)
            answers, serialized, firsts = [], [], []
            for query in queries:
                with span("eval"):
                    paths = document.select(query)
                with span("xml.serialize"):
                    rendered = [serialize(document.element_at(path)) for path in paths]
                answers.append(paths)
                serialized.append(rendered)
            for query in queries:
                with span("enum"):
                    begin = time.perf_counter()
                    stream = document.select_iter(query, limit=limit)
                    first = next(stream, None)
                    waited = time.perf_counter() - begin
                    rest = list(stream)
                if first is not None:
                    ttfa.append(waited)
                firsts.append(([first] if first is not None else []) + rest)
        if trace:
            family = families.setdefault(docs[index]["family"], {})
            for name, value in stats.counters.items():
                family[name] = family.get(name, 0) + value - counted.get(name, 0)
        records.append({"doc": index, "answers": answers, "firsts": firsts,
                        "serialized": serialized if number < len(docs) else None})

    before = (pattern_cache_info()["misses"], compile_cache_info()["misses"])
    processed = 0
    slices = []
    for line in iter(sys.stdin.readline, ""):
        started = time.perf_counter()
        first = processed
        while time.perf_counter() - started < float(line):
            process(processed)
            processed += 1
        slices.append({"processed": processed - first, "elapsed_s": time.perf_counter() - started,
                       "ttfa_end": len(ttfa)})
        print("done", flush=True)
    after = (pattern_cache_info()["misses"], compile_cache_info()["misses"])
    if trace:
        obs.set_sink(obs.NULL_SINK)
    with open(sys.argv[2], "w") as handle:
        json.dump({
            "processed": processed,
            "slices": slices,
            "ttfa_s": ttfa,
            "compile_misses": {"pattern_cache": after[0] - before[0],
                               "compile_cache": after[1] - before[1]},
            "records": records,
            "families": families,
            "counters": stats.counters,
            "spans": tracer.spans,
        }, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
