"""Traced replays: one operation's work through each layer's public functions.

Usage: ``python perfbench/trace_worker.py SPEC.json OUT.json`` with the
program's sources on ``PYTHONPATH``.  The spec's ``mode`` is ``query``
or ``decide`` (one CLI command, replayed in a fresh interpreter as the
CLI would run it) or ``store`` (a served document's edits and selects,
replayed on an in-process ``DocumentStore``).  Each call into a layer
is one span; a recording ``repro.obs.Stats`` sink collects the
program's own counters.  OUT.json gets the spans, the counters, the
answers (checked by the caller) and ``done``, the time the replay ended.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext

from spans import Tracer


def nested(tree) -> list:
    """A program tree as ``[label, [children...]]`` for JSON."""
    return [tree.label, [nested(child) for child in tree.children]]


def replay_query(spec: dict, tracer: Tracer, out: dict) -> None:
    with tracer.span("import"):
        import repro.cli  # noqa: F401  (the CLI's import cost)
        from repro import obs
        from repro.core.pipeline import Document
        from repro.lang import compile_query_string
        from repro.trees.dtd import parse_dtd
        from repro.trees.xml import parse_document, serialize, to_tree
    stats = obs.Stats()
    obs.set_sink(stats)
    with tracer.span("xml.parse"):
        element = parse_document(open(spec["doc"]).read())
        tree = to_tree(element)
    with tracer.span("dtd"):
        problems = parse_dtd(open(spec["dtd"]).read()).violations(tree)
    if problems:
        raise SystemExit(f"document rejected by the DTD: {problems[:3]}")
    document = Document(element, tree)
    with tracer.span("lang"):
        query = compile_query_string(spec["pattern"], document.alphabet)
    with tracer.span("compile"):
        query.compiled()
    with tracer.span("eval"):
        paths = document.select(query)
    with tracer.span("xml.serialize"):
        for path in paths:
            serialize(document.element_at(path))
    out["paths"] = paths
    out["counters"] = stats.counters


def replay_decide(spec: dict, tracer: Tracer, out: dict) -> None:
    with tracer.span("import"):
        import repro.cli  # noqa: F401
        from repro import obs
        from repro.core.patterns import compile_pattern
        from repro.decision import patterns as decision
        from repro.trees.dtd import parse_dtd
    stats = obs.Stats()
    obs.set_sink(stats)
    with tracer.span("dtd"):
        dtd = parse_dtd(open(spec["dtd"]).read())
        alphabet = sorted(dtd.to_tree_automaton().states, key=repr)
    with tracer.span("lang"):
        queries = [compile_pattern(pattern, alphabet) for pattern in spec["patterns"]]
    with tracer.span("compile"):
        for query in queries:
            query.compiled()
    with tracer.span("decide"):
        if spec["decide"] == "emptiness":
            result = decision.pattern_query_witness(spec["patterns"][0], dtd)
        else:
            result = decision.pattern_containment_counterexample(*spec["patterns"], dtd)
    out["done"] = time.perf_counter()
    out["witness"] = None if result is None else nested(result[0])
    out["marked"] = None if result is None else list(result[1])
    out["counters"] = stats.counters
    out["product_states"] = product_states(decision, dtd, queries)


def product_states(decision, dtd, queries) -> int:
    """States of the trimmed decision product.

    The public decision functions keep their product to themselves, so
    it is built again here, after the timed call, from the same helpers
    they use; a helper renamed or removed fails the traced run.
    """
    dtd_marked = decision._marked_dtd_automaton(dtd)
    product = dtd_marked.intersection(decision._one_mark_automaton(dtd_marked.alphabet)).trimmed()
    product = product.intersection(queries[0].compiled().to_nbta()).trimmed()
    if len(queries) == 2:
        product = product.intersection(queries[1].compiled().complement().to_nbta()).trimmed()
    return len(product.states)


def replay_store(spec: dict, tracer: Tracer, out: dict) -> None:
    """Replay a served document's edits, loads and selects on an in-process store.

    The ``setup`` operations (loading the preloaded documents and one
    select of each hot query on each) run first and untimed, so the
    timed operations compile nothing, as on the warm server.
    """
    from repro import obs
    from repro.serve import DocumentStore
    from repro.serve.store import parse_fragment
    from repro.trees.dtd import parse_dtd

    dtd = parse_dtd(spec["dtd"])
    store = DocumentStore()
    stats = obs.Stats()
    dirty: set = set()

    def apply(op: dict) -> None:
        if op["op"] == "load":
            store.load(op["doc"], op["text"], dtd if op["dtd"] else None)
        elif op["op"] == "edit" and op["fragment"] is not None:
            store.replace_subtree(op["doc"], tuple(op["path"]), parse_fragment(op["fragment"]))
        elif op["op"] == "edit":
            store.delete_subtree(op["doc"], tuple(op["path"]))
        else:
            store.select(op["doc"], op["query"])

    for op in spec["setup"]:
        apply(op)
    if spec["traced"]:
        obs.set_sink(stats)
    begin = time.perf_counter()
    for number, op in enumerate(spec["ops"]):
        layer = {"load": "store.load", "edit": "store.edit"}.get(op["op"])
        if layer is None:
            layer = "store.reselect" if op["doc"] in dirty else "store.select"
        with (tracer.op(layer, op_id=f"{spec['prefix']}{number}") if spec["traced"] else nullcontext()):
            apply(op)
        if op["op"] == "edit":
            dirty.add(op["doc"])
        elif op["op"] == "select":
            dirty.discard(op["doc"])
    out["elapsed_s"] = time.perf_counter() - begin
    obs.set_sink(obs.NULL_SINK)
    out["counters"] = stats.counters


def main() -> int:
    spec_path, out_path = sys.argv[1], sys.argv[2]
    spec = json.load(open(spec_path))
    tracer = Tracer(prefix=spec["prefix"])
    out: dict = {}
    {"query": replay_query, "decide": replay_decide, "store": replay_store}[spec["mode"]](
        spec, tracer, out
    )
    out.setdefault("done", time.perf_counter())
    out["spans"] = tracer.spans
    with open(out_path, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
