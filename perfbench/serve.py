"""The ``serve`` path: an open loop against ``repro serve --tcp``.

One client, two connections, seeded Poisson arrivals at a fixed rate.
Requests are pipelined: a sender writes each request when it is due,
whatever is still in flight, and a reader per connection matches
responses in order.  Latency runs from the due time, so a stalled
server also delays everything scheduled behind the stall.

Most requests are ``hot`` queries compiled during set-up.  Beside them:
``edit`` (``replace``/``delete`` that keep the label set), ``page``
(cursor sessions on a document no edit touches), ``stats`` scrapes,
``load`` of new documents, and, at fixed intervals, ``fresh`` queries
the server has not compiled (a new query string, or a hot query on a
new label set).  Every document's requests go over one connection, so
the client's replica of it sees edits in the order the server applies
them; answers are checked against the replica after the run.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import proc
from common import Run, percentile, slice_median
from inputs import (
    ARTICLES,
    BIB_DTD,
    ELEMENT_LABELS,
    MIXED,
    Query,
    bibliography,
    entry,
    evaluate,
    irregular,
    random_query,
    replaced,
    size,
    to_xml,
)

HERE = Path(__file__).resolve().parent
#: Arrivals per second.  A p99 needs ten samples beyond it: 1000 hot
#: queries, which 125 hot/s (160/s with the mix below) gives in 8 s; a
#: 20 s run has ~2600.  That is far from saturation.  On a 2-vCPU VM
#: (20 s a rate, two seeds, with a load generator that slept between
#: requests) the hot p50 was 2.2 ms at 50/s, 1.9-2.0 ms at 160/s and
#: 1.8-1.9 ms at 600/s, and the generator's p99 lateness stayed under
#: 2.4 ms at all three.
RATE_PER_S = 160.0
#: Request classes and their shares of the Poisson arrivals.  Reads
#: dominate; edits are frequent enough for a steady median (~250 a run)
#: and to keep the incremental store busy; stats scrapes and loads
#: are occasional.
MIX = (("hot", 0.80), ("edit", 0.08), ("page", 0.07), ("stats", 0.03), ("load", 0.02))
#: Fresh queries repeat in a cycle of FRESH_CYCLE_S seconds: two new
#: query strings and two label sets new to the hot ``desc`` query (~30 ms
#: to compile each), then an expensive one (the ``filter`` hot query on
#: a new label set, 0.3-0.5 s) whose stall sets the hot p99, far above
#: the ~0.1 s stalls of other causes (the host, a collector pause).  The
#: expensive one comes last, so no cheap fresh query waits behind it and
#: the fresh median stays among the cheap ones.  A 20 s run has six
#: cycles.  Their stalls hold up a seventh to a fifth of the hot queries,
#: which moves the hot p50 by 4-18%; six expensive ones in 10 s held up
#: a third or more, and the p50s then measured how long compiles took.
FRESH_CYCLE_S = 10 / 3
FRESH_CYCLE = ((0.15, "fresh-query"), (0.75, "fresh-labels"), (1.35, "fresh-query"),
               (1.95, "fresh-labels"), (2.55, "fresh-heavy"))
#: A process that runs beside the traffic at idle priority, so the CPU
#: the server is not on never halts: the kernel runs it only when nothing
#: else wants a CPU, and preempts it the moment the server wakes.  On a
#: shared 2-vCPU VM, waking a halted CPU took a variable 0.3-0.9 ms more
#: per request; with the spinner the hot p50 read 1.23-1.44 ms where it
#: read 1.86-2.17 ms without, in alternating runs.  It quits when its
#: parent does, or after its deadline (``argv[1]`` seconds).
SPINNER = """\
import os, sys, time
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent, deadline = os.getppid(), time.monotonic() + float(sys.argv[1])
print("ready", flush=True)
while os.getppid() == parent and time.monotonic() < deadline:
    pass
"""
PAGE_SIZE = 4
PAGES_PER_SESSION = 5
DRAIN_TIMEOUT_S = 60.0
STORE_REPLAY_OPS = 300


def plan(seed: int):
    """Preloaded documents, hot queries and the fresh-query pool.

    The three edited documents take the sizes 10, 25 and 40 entries in a
    seeded order, so every run serves the same sizes.  Cheap fresh queries
    have the ``desc`` shape of the first hot query, one per other label,
    each in a seeded syntax: the same query in two syntaxes lowers to one
    formula, and the second would find it compiled.
    """
    rng = random.Random(f"serve:{seed}")
    p_book = rng.uniform(0.3, 0.7)
    sizes = [10, 25, 40]
    rng.shuffle(sizes)
    docs = {
        "d0": bibliography(rng, sizes[0], "mixed", p_book),
        "d1": bibliography(rng, sizes[1], "mixed", p_book),
        "d2": bibliography(rng, sizes[2], "articles", p_book),
        "pg": bibliography(rng, 30, "mixed", p_book),
    }
    hot = [random_query(rng, "desc", "xpath"), random_query(rng, "child", "mso"),
           random_query(rng, "filter", "xpath")]
    fresh = [Query("desc", rng.choice(("xpath", "mso")), (label,))
             for label in ELEMENT_LABELS if label != hot[0].labels[0]]
    rng.shuffle(fresh)
    return docs, hot, fresh


class Client:
    """The load generator's state for one server instance."""

    def __init__(self, seed: int, instance: int, docs: dict, hot: list, fresh: list,
                 seconds: float) -> None:
        self.rng = random.Random(f"serve-traffic:{seed}:{instance}")
        self.docs = {name: [node, 0] for name, node in docs.items()}
        self.route = {name: number % 2 for number, name in enumerate(docs)}
        self.hot = hot
        self.fresh = list(fresh)
        self.seconds = seconds
        self.records: list[dict] = []
        self.pending = [[], []]
        self.cursor: dict | None = None
        self.loaded = 0
        self.label_sets = {MIXED, ARTICLES}
        self.editable = [name for name in docs if name != "pg"]
        self.hot_docs = list(docs)
        self.page_answers = evaluate(hot[0], docs["pg"])  # "pg" is never edited
        self.store_ops: list[dict] = []
        self.schedule = self._schedule()

    def _schedule(self) -> list[tuple[float, str]]:
        arrivals = []
        moment = 0.0
        classes, weights = zip(*MIX)
        while True:
            moment += self.rng.expovariate(RATE_PER_S)
            if moment >= self.seconds:
                break
            arrivals.append((moment, self.rng.choices(classes, weights)[0]))
        cycle = 0.0
        while cycle < self.seconds:
            arrivals += [(cycle + offset, op_class) for offset, op_class in FRESH_CYCLE
                         if cycle + offset < self.seconds]
            cycle += FRESH_CYCLE_S
        return sorted(arrivals)

    # -- building requests (at send time, against the replica) -----------

    def _record(self, op_class: str, frame: dict, doc: str | None, check: dict) -> tuple[int, dict]:
        frame["id"] = len(self.records)
        record = {"class": op_class, "frame": frame, "check": check, "due": None,
                  "sent": None, "received": None, "response": None}
        self.records.append(record)
        connection = self.route.get(doc, 0) if doc is not None else frame["id"] % 2
        return connection, record

    def _query(self, op_class: str, doc: str, query: Query):
        node, revision = self.docs[doc]
        if op_class == "hot":
            self.store_ops.append({"op": "select", "doc": doc, "query": query.text})
        return self._record(op_class, {"op": "query", "doc": doc, "query": query.text}, doc,
                            {"query": query, "node": node, "revision": revision})

    def _edit(self):
        doc = self.rng.choice(self.editable)
        node, revision = self.docs[doc]
        index = self.rng.randrange(len(node.children))
        kind = node.children[index].label
        authors = sum(1 for child in node.children[index].children if child.label == "author")
        if authors >= 2 and self.rng.random() < 0.5:
            path, fragment = (index, self.rng.randrange(authors)), None
            frame = {"op": "delete", "doc": doc, "path": list(path)}
        else:
            path, fragment = (index,), entry(self.rng, kind)
            frame = {"op": "replace", "doc": doc, "path": list(path), "fragment": to_xml(fragment)}
        node = replaced(node, path, fragment)
        self.docs[doc] = [node, revision + 1]
        self.store_ops.append({"op": "edit", "doc": doc, "path": list(path),
                               "fragment": frame.get("fragment")})
        return self._record("edit", frame, doc, {"node": node, "revision": revision + 1})

    def _load(self, node, op_class: str = "load", dtd: bool = True):
        name = f"n{self.loaded}"
        self.loaded += 1
        self.docs[name] = [node, 0]
        self.route[name] = self.loaded % 2
        frame = {"op": "load", "doc": name, "text": to_xml(node)}
        if dtd:
            frame["dtd"] = BIB_DTD
            self.editable.append(name)
            self.hot_docs.append(name)
        self.store_ops.append({"op": "load", "doc": name, "text": frame["text"], "dtd": dtd})
        return name, self._record(op_class, frame, name, {"node": node, "revision": 0})

    def _page(self):
        state = self.cursor
        if state is None:
            self.cursor = {"id": None, "offset": 0, "pages": 0}
            frame = {"op": "open_cursor", "doc": "pg", "query": self.hot[0].text,
                     "page_size": PAGE_SIZE}
            return self._record("page_open", frame, "pg", {"cursor": self.cursor})
        if state["id"] is None:
            return None
        if state["pages"] >= PAGES_PER_SESSION:
            self.cursor = None
            return self._record("page_close", {"op": "close_cursor", "cursor": state["id"]}, "pg", {})
        state["pages"] += 1
        expected = self.page_answers
        offset = state["offset"]
        state["offset"] += PAGE_SIZE
        done = len(expected) < offset + PAGE_SIZE  # a short page ends the stream
        if done:
            self.cursor = None  # the server drops a finished cursor itself
        return self._record("page", {"op": "next_page", "cursor": state["id"]}, "pg",
                            {"expected": expected[offset:offset + PAGE_SIZE], "offset": offset,
                             "done": done})

    def _fresh_labels(self, query: Query):
        """Load an irregular tree with a label never seen, then query it."""
        extra = f"x{len(self.label_sets)}"
        alphabet = tuple(sorted(MIXED + (extra,)))
        self.label_sets.add(alphabet)
        name, load = self._load(irregular(self.rng, 150, alphabet), dtd=False)
        return [load, self._query("fresh", name, query)]

    def build(self, op_class: str) -> list:
        """The request(s) for one arrival: ``(connection, record)`` pairs."""
        if op_class == "hot":
            doc = self.rng.choice(self.hot_docs)
            return [self._query("hot", doc, self.rng.choice(self.hot))]
        if op_class == "edit":
            return [self._edit()]
        if op_class == "load":
            return [self._load(bibliography(self.rng, 10, "mixed", 0.5))[1]]
        if op_class == "stats":
            return [self._record("stats", {"op": "stats"}, None, {})]
        if op_class == "page":
            built = self._page()
            return [built] if built is not None else self.build("hot")
        if op_class == "fresh-query" and self.fresh:
            return [self._query("fresh", self.rng.choice(["d0", "d1"]), self.fresh.pop(0))]
        if op_class == "fresh-heavy":
            return self._fresh_labels(self.hot[2])
        return self._fresh_labels(self.hot[0])

    # -- the open loop ----------------------------------------------------

    async def run(self, port: int, begin: float, end: float) -> None:
        """Send the arrivals scheduled in ``[begin, end)`` and wait for every answer."""
        connections = [await asyncio.open_connection("127.0.0.1", port) for _ in range(2)]
        readers = [asyncio.create_task(self._read(number, reader))
                   for number, (reader, _) in enumerate(connections)]
        start = time.perf_counter() + 0.05 - begin
        for offset, op_class in self.schedule:
            if not begin <= offset < end:
                continue
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            for connection, record in self.build(op_class):
                record["due"] = due
                record["sent"] = time.perf_counter()
                self.pending[connection].append(record)
                connections[connection][1].write(json.dumps(record["frame"]).encode() + b"\n")
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while any(self.pending) and time.perf_counter() < deadline:
            await asyncio.sleep(0.01)
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _, writer in connections:
            writer.close()
            await writer.wait_closed()
        if any(self.pending):
            raise proc.ProgramError("server left requests unanswered")

    async def _read(self, number: int, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            received = time.perf_counter()
            record = self.pending[number].pop(0)
            record["received"] = received
            response = json.loads(line)
            record["response"] = response
            if record["class"] == "page_open" and response.get("ok"):
                record["check"]["cursor"]["id"] = response["result"]["cursor"]


def check(record: dict) -> str | None:
    """``None`` when one response is right, else what is wrong."""
    response, expect = record["response"], record["check"]
    if not response.get("ok"):
        return f"{record['frame']['op']}: error {response.get('error')}"
    result = response["result"]
    op_class = record["class"]
    if op_class in ("hot", "fresh"):
        want = evaluate(expect["query"], expect["node"])
        got = [tuple(path) for path in result["paths"]]
        if got != want or result["revision"] != expect["revision"]:
            return f"{expect['query'].text} on {record['frame']['doc']}: {len(got)} answers, expected {len(want)}"
        if op_class == "fresh" and not response["stats"]["counters"].get("compile.cache_misses"):
            return f"fresh {expect['query'].text} on {record['frame']['doc']} compiled nothing"
    elif op_class in ("edit", "load"):
        if result["nodes"] != size(expect["node"]) or result["revision"] != expect["revision"]:
            return f"{record['frame']['op']} {record['frame']['doc']}: {result['nodes']} nodes rev {result['revision']}"
    elif op_class == "page":
        got = [tuple(path) for path in result["paths"]]
        if got != expect["expected"] or result["offset"] != expect["offset"] or result["done"] != expect["done"]:
            return f"next_page at {expect['offset']}: got {len(got)} answers, done={result['done']}"
    return None


async def _setup(port: int, docs: dict, hot: list) -> None:
    """Answer every hot query once on every document; check the answers."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for name, node in docs.items():
            for query in hot:
                writer.write(json.dumps({"id": 0, "op": "query", "doc": name, "query": query.text}).encode() + b"\n")
                response = json.loads(await reader.readline())
                got = [tuple(path) for path in response.get("result", {}).get("paths", [])]
                if not response.get("ok") or got != evaluate(query, node):
                    raise proc.ProgramError(f"set-up query {query.text} on {name} answered {response}")
    finally:
        writer.close()
        await writer.wait_closed()


async def _final(port: int) -> dict:
    """The server's lifetime stats, then a drained shutdown."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(b'{"id": "stats", "op": "stats"}\n')
        stats = json.loads(await reader.readline())
        writer.write(b'{"id": "bye", "op": "shutdown"}\n')
        await reader.readline()
    finally:
        writer.close()
        await writer.wait_closed()
    return stats["result"]


class _PollingSelector(selectors.DefaultSelector):
    """A selector that polls rather than sleeps until a socket is ready or
    the timeout passes.

    The load generator then never waits for the kernel to wake it, for a
    due request or for a response.  On a shared 2-vCPU VM those wake-ups
    took 0.3-1.3 ms, varying from run to run, and made most of the spread
    of the latency medians; polling took that spread from ~0.4 to ~0.1 of
    the median, and the server's own time per query did not change.
    """

    def select(self, timeout=None):
        deadline = None if timeout is None else time.perf_counter() + timeout
        while True:
            ready = super().select(0)
            if ready or (deadline is not None and time.perf_counter() >= deadline):
                return ready


def _polling_loop() -> asyncio.AbstractEventLoop:
    return asyncio.SelectorEventLoop(_PollingSelector())


class _Server:
    """One ``repro serve`` process, set up and then driven slice by slice."""

    def __init__(self, run: Run, number: int, docs: dict, hot: list, fresh: list,
                 seconds: float) -> None:
        work = run.work / "serve"
        work.mkdir(parents=True, exist_ok=True)
        (work / "bib.dtd").write_text(BIB_DTD)
        argv = proc.cli("serve", "--tcp", "0", "--dtd", str(work / "bib.dtd"))
        for name, node in docs.items():
            (work / f"{name}.xml").write_text(to_xml(node))
            argv += ["--preload", f"{name}={work / f'{name}.xml'}"]
        env = proc.program_env(run.root, run.next_hash_seed())
        self.handle, launched = proc.start(argv, env, stderr=subprocess.PIPE)
        try:
            line = proc.read_line(self.handle, self.handle.stderr).decode()
            if not line.startswith("serving on "):
                raise proc.ProgramError(f"server did not start: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
            asyncio.run(_setup(self.port, docs, hot))
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - launched
        self.client = Client(run.seed, number, docs, hot, fresh, seconds)

    def drive(self, begin: float, end: float) -> None:
        """The open loop over the arrivals scheduled in ``[begin, end)``."""
        spinner = subprocess.Popen(
            [sys.executable, "-c", SPINNER, str(end - begin + DRAIN_TIMEOUT_S)], stdout=subprocess.PIPE)
        gc.disable()  # no collector pauses in the load generator while it keeps time
        try:
            if proc.read_line(spinner, spinner.stdout).strip() != b"ready":
                raise proc.ProgramError("the idle-priority spinner did not start")
            with asyncio.Runner(loop_factory=_polling_loop) as runner:
                runner.run(self.client.run(self.port, begin, end))
        finally:
            gc.enable()
            spinner.kill()
            spinner.wait()
            spinner.stdout.close()

    def finish(self) -> dict:
        """Lifetime stats, a drained shutdown; what the run records of this server."""
        try:
            stats = asyncio.run(_final(self.port))
        except BaseException:
            self.kill()
            raise
        returncode, _, rss = proc.reap(self.handle)
        self.handle.stderr.close()
        if returncode != 0:
            raise proc.ProgramError(f"server exited {returncode}")
        return {"setup_s": self.setup_s, "rss_mb": rss, "client": self.client, "stats": stats}

    def kill(self) -> None:
        self.handle.kill()
        self.handle.wait()
        self.handle.stderr.close()


def run_phase(run: Run, named: bool, seconds: float, slices: int, setups: int):
    """Run the servers; record metrics, layer figures and the report.

    A generator yielding after each of ``slices`` stretches of traffic:
    ``setups`` servers, each set up once and then given an equal share
    of the slices and of ``seconds``.
    """
    docs, hot, fresh = plan(run.seed)
    per_server = slices // setups
    outs = []
    for number in range(setups):
        server = _Server(run, number, docs, hot, fresh, seconds / setups)
        try:
            for piece in range(per_server):
                first = len(server.client.records)
                server.drive(piece * seconds / slices, (piece + 1) * seconds / slices)
                for record in server.client.records[first:]:
                    record["slice"] = number * per_server + piece
                yield
        except BaseException:  # the run failed or was abandoned: stop the server
            server.kill()
            raise
        outs.append(server.finish())
    latency: dict[str, list[float]] = {}
    by_slice: dict[str, dict[int, list[float]]] = {}
    server_ms, wait_ms, late_ms = [], [], []
    hot_misses = hot_batched = 0
    for out in outs:
        for record in out["client"].records:
            op_class = record["class"]
            if not run.count(op_class, check(record)):
                continue
            elapsed = (record["received"] - record["due"]) * 1e3
            latency.setdefault(op_class, []).append(elapsed)
            by_slice.setdefault(op_class, {}).setdefault(record["slice"], []).append(elapsed)
            late_ms.append((record["sent"] - record["due"]) * 1e3)
            if op_class == "hot":
                stats = record["response"]["stats"]
                server_ms.append(stats["elapsed_ms"])
                wait_ms.append(elapsed - stats["elapsed_ms"])
                if stats["batch"] == 1:
                    counters = stats["counters"]
                    hot_misses += counters.get("pipeline.pattern_cache_misses", 0)
                    hot_misses += counters.get("compile.cache_misses", 0)
                else:
                    hot_batched += 1
    run.count("serve_hot_compile", None if hot_misses == 0 else f"{hot_misses} hot compile misses")
    hot_lat = latency["hot"]
    # The medians of the frequent classes are taken per slice.  The p99
    # needs ten samples beyond it, a slice has four; and a slice holds a
    # few fresh queries, cheap and expensive in a mix that depends on
    # where the slice falls in the fresh cycle.
    run.metrics["hot_p50_ms"] = slice_median(by_slice["hot"])
    run.metrics["hot_p99_ms"] = percentile(hot_lat, 99)
    run.metrics["edit_p50_ms"] = slice_median(by_slice["edit"])
    run.metrics["page_p50_ms"] = slice_median(by_slice["page"])
    run.metrics["fresh_p50_ms"] = statistics.median(latency["fresh"])
    if named:
        run.metrics["setup_s"] = statistics.median([out["setup_s"] for out in outs])
        run.metrics["peak_rss_mb"] = max(out["rss_mb"] for out in outs)
    total = sum(len(out["client"].records) for out in outs)
    run.report["serve"] = {
        "rate_per_s": RATE_PER_S,
        "connections": 2,
        "documents": {name: size(node) for name, node in docs.items()},
        "hot_queries": [query.text for query in hot],
        "samples": {op_class: len(values) for op_class, values in latency.items()},
        "slices": slices,
        "hot_samples_beyond_p99": len(hot_lat) - int(0.99 * len(hot_lat)),
        "fresh_share": len(latency.get("fresh", [])) / total if total else 0.0,
        "gen_late_p99_ms": percentile(late_ms, 99) if late_ms else 0.0,
        "hot_compile_misses": hot_misses,
        "hot_batched": hot_batched,
        "setup_s": [out["setup_s"] for out in outs],
        "rss_mb": [out["rss_mb"] for out in outs],
        "label_sets_loaded": sum(len(out["client"].label_sets) for out in outs),
    }
    if run.trace:
        _traced(run, outs, hot_lat, server_ms, wait_ms, late_ms, latency, hot_misses)


def _traced(run: Run, outs: list, hot_lat, server_ms, wait_ms, late_ms, latency,
            hot_misses) -> None:
    """Per-layer figures of the serve path: protocol timings and a store replay."""
    layers = run.layers
    layers["serve.server_ms"] = statistics.median(server_ms)
    ranked = sorted(zip(hot_lat, wait_ms))
    tail = ranked[int(0.99 * len(ranked)):]
    layers["serve.wait_ms"] = percentile(wait_ms, 99)
    layers["serve.wait_share_p99"] = sum(w for _, w in tail) / sum(l for l, _ in tail)
    layers["serve.stats_ms"] = statistics.median(latency.get("stats", [0.0]))
    counters = {}
    for out in outs:
        for name, value in out["stats"]["report"]["counters"].items():
            counters[name] = counters.get(name, 0) + value
    batches = counters.get("serve.batches", 0)
    layers["serve.batch_size"] = counters.get("serve.batch_members", 0) / batches if batches else 1.0
    layers["serve.memo_pruned"] = counters.get("serve.memo_pruned", 0)
    layers["compile.cache_misses.serve_hot"] = hot_misses
    layers["gen.late_p99_ms"] = percentile(late_ms, 99)
    for op_class in ("hot", "edit", "page", "stats", "load", "fresh"):
        layers[f"gen.attempted.{op_class}"] = run.attempted.get(op_class, 0)
        layers[f"gen.failed.{op_class}"] = run.failed.get(op_class, 0)
    client = outs[0]["client"]
    replay = _store_replay(run, client)
    layers.update(replay["layers"])
    ops = set()
    for number, record in enumerate(r for out in outs for r in out["client"].records):
        if record["class"] != "hot" or record["response"] is None:
            continue
        op = f"serve.{number}"
        ops.add(op)
        root = run.tracer.add("op.serve", record["due"], record["received"], op=op)
        server = record["response"]["stats"]["elapsed_ms"] / 1e3
        run.tracer.add("serve.server", record["received"] - server, record["received"],
                       parent=root, op=op)
    run.report.setdefault("trace_ops", {})["serve"] = {
        "ops": ops, "wall_s": replay["traced_s"], "untraced_s": replay["untraced_s"]}


def _store_replay(run: Run, client: Client) -> dict:
    """Replay the first instance's store operations in-process, untraced then traced."""
    docs = plan(run.seed)[0]
    setup = [{"op": "load", "doc": name, "text": to_xml(node), "dtd": True}
             for name, node in docs.items()]
    setup += [{"op": "select", "doc": name, "query": query.text}
              for name in docs for query in client.hot]
    known = {op["doc"] for op in setup}
    known |= {op["doc"] for op in client.store_ops if op["op"] == "load" and op["dtd"]}
    ops = [op for op in client.store_ops
           if op["doc"] in known and (op["op"] != "load" or op["dtd"])][:STORE_REPLAY_OPS]
    results = {}
    hash_seed = run.next_hash_seed()  # one for both replays, so they compare
    for traced in (False, True):
        spec = {"mode": "store", "dtd": BIB_DTD, "setup": setup, "ops": ops,
                "traced": traced, "prefix": "s."}
        spec_path = run.work / "serve" / f"replay{int(traced)}.json"
        out_path = run.work / "serve" / f"replay{int(traced)}.out.json"
        spec_path.write_text(json.dumps(spec))
        env = proc.program_env(run.root, hash_seed)
        argv = [sys.executable, str(HERE / "trace_worker.py"), str(spec_path), str(out_path)]
        result = proc.run(argv, env, run.work / "serve" / f"replay{int(traced)}")
        if result["returncode"] != 0:
            raise proc.ProgramError(f"store replay failed: {result['stderr'][-500:]}")
        results[traced] = json.loads(out_path.read_text())
    traced_out = results[True]
    run.tracer.spans.extend(traced_out["spans"])
    durations: dict[str, list[float]] = {}
    for span in traced_out["spans"]:
        durations.setdefault(span["name"], []).append((span["end"] - span["start"]) * 1e3)
    reselects = max(1, len(durations.get("store.reselect", [])))
    counters = traced_out["counters"]
    return {
        "traced_s": traced_out["elapsed_s"],
        "untraced_s": results[False]["elapsed_s"],
        "layers": {
            "store.edit_ms": statistics.median(durations.get("store.edit", [0.0])),
            "store.load_ms": statistics.median(durations.get("store.load", [0.0])),
            "store.reselect_ms": statistics.median(durations.get("store.reselect", [0.0])),
            "trees.incremental_walked": counters.get("trees.incremental_walked", 0) / reselects,
        },
    }
