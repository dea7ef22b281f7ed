"""Parallel sharded query execution across worker processes.

Query automata are embarrassingly parallel across documents: the
behavior-function machinery (Theorem 3.9, Theorem 5.17) is per-tree, so
a corpus can be sharded across ``multiprocessing`` workers with no
coordination beyond result collection.  :class:`ParallelExecutor` does
exactly that:

* the compiled query ships **once per worker**, pickled, through the
  pool initializer, which warms the worker-local engine registries of
  :mod:`repro.perf.registry` — every chunk the worker later receives
  reuses the same behavior tables and subtree-type caches;
* inputs are chunked adaptively by estimated node count
  (:mod:`repro.perf.shard`), submitted with a bounded in-flight window
  (streaming corpora are never fully materialized), and merged back
  **in submission order** regardless of completion order — ``jobs=N``
  output is byte-identical to ``jobs=1``;
* each worker evaluates its chunk under a recording
  :class:`repro.obs.Stats` and ships the snapshot home; the parent
  merges every snapshot into the installed sink (counters summed,
  high-water gauges maxed, spans concatenated) plus the executor's own
  counters — ``parallel.chunks``, ``parallel.workers``,
  ``parallel.items``, ``parallel.merge_wait_ns`` — and per-worker
  high-water gauges ``parallel.worker_items_max`` /
  ``parallel.worker_cost_max`` / ``parallel.worker_init_ns`` (initializer
  time: unpickling the query and warming the engines);
* a failure inside a worker surfaces as a structured
  :class:`~repro.perf.shard.ShardError` carrying the failing input's
  submission index and the worker's counter snapshot (including the
  counters attached to a ``BudgetExceededError``), never as a bare
  pickled traceback;
* ``jobs=1`` bypasses the pool entirely — same call path as
  :func:`repro.perf.batch.batch_evaluate`, zero process overhead.

The executor is spawn-safe (it always uses the ``spawn`` start method,
so it behaves identically on Linux, macOS, and Windows) and reusable:
keep one per (query, jobs) pair and ``map`` as many corpora through it
as you like; the pool and the workers' warmed engines persist across
calls.  Use it as a context manager, or call :func:`parallel_map` for
one-shot convenience.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import traceback
from collections.abc import Iterable, Sequence

from .. import obs
from .shard import ShardError, chunk_cost_target, iter_chunks

#: Chunks allowed in flight per worker; bounds parent-side memory when
#: streaming a corpus through the pool.
_INFLIGHT_PER_WORKER = 2

#: Seconds to wait for the post-spawn worker ping before declaring the
#: pool broken (workers that die during bootstrap are respawned forever
#: by ``multiprocessing.Pool``, so without this cap a broken pool hangs).
_SPAWN_PING_TIMEOUT = float(os.environ.get("REPRO_PARALLEL_SPAWN_TIMEOUT", "120"))


def default_jobs() -> int:
    """The default worker count: the CPUs *this process may run on*.

    Respects CPU affinity (cgroup/cpuset limits, ``taskset``) via
    ``os.sched_getaffinity`` where available, then
    ``os.process_cpu_count()`` (Python 3.13+), then ``os.cpu_count()``;
    at least 1.  Raw ``cpu_count()`` oversubscribes affinity-restricted
    containers with workers that time-share a fraction of the machine.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        pass
    process_cpu_count = getattr(os, "process_cpu_count", None)
    if process_cpu_count is not None:
        return process_cpu_count() or 1
    return os.cpu_count() or 1


def _check_spawn_main() -> None:
    """Refuse to spawn when ``__main__`` cannot be re-imported.

    The ``spawn`` start method re-runs the parent's ``__main__`` in every
    worker.  A parent fed through stdin (``python < script.py``, a shell
    heredoc) has ``__file__ == "<stdin>"`` — workers would die on import
    and the pool would respawn them forever, hanging ``map`` with an
    endless traceback stream.  Fail fast with the fix instead.
    """
    import sys

    main = sys.modules.get("__main__")
    if main is None or getattr(main, "__spec__", None) is not None:
        return  # python -m …: workers re-import by module name
    main_file = getattr(main, "__file__", None)
    if main_file is None:
        return  # interactive interpreter: nothing is re-run
    if not os.path.exists(main_file):
        raise RuntimeError(
            f"cannot spawn workers: the __main__ module ({main_file!r}) is "
            "not importable from a worker process. Run your script from a "
            "real file (python script.py), use python -m, or use jobs=1."
        )


def _resolve_call(spec):
    """The per-input evaluation callable for a shipped (kind, payload, engine) spec."""
    kind, payload, engine = spec
    if kind == "call":
        return payload
    from .batch import _engine_call

    return _engine_call(payload, engine=engine)


def _prepare_spec(query, engine: str | None = None) -> tuple:
    """Classify ``query`` into a shippable (kind, payload, engine) spec.

    Known query-automaton types go through the engine dispatch of
    :mod:`repro.perf.batch` (``MSOQuery`` is compiled *now*, so workers
    receive the finished automaton rather than recompiling the formula);
    any other callable is treated as a custom selection function.  The
    ``engine`` choice rides along so workers build the same engine kind.
    """
    from ..core.query import MSOQuery

    if isinstance(query, MSOQuery):
        query.compiled()
        return ("query", query, engine)
    try:
        from .batch import _engine_call

        _engine_call(query, engine=engine)
        return ("query", query, engine)
    except TypeError:
        if callable(query):
            return ("call", query, engine)
        raise TypeError(
            f"cannot evaluate {type(query).__name__} objects in parallel: "
            "expected a query automaton, a core Query, or a callable"
        ) from None


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Worker-local evaluation callable, set once by the pool initializer.
_WORKER_CALL = None

#: Nanoseconds this worker spent in its initializer — unpickling the
#: query and building its engine.  Shipped home with every chunk record
#: and surfaced as the ``parallel.worker_init_ns`` gauge, so per-worker
#: setup cost is visible without process-spawn noise.
_WORKER_INIT_NS = 0


def _initialize_worker(spec_bytes: bytes) -> None:
    """Pool initializer: unpickle the query spec and warm the local engines.

    Runs once per worker process.  Resolving the evaluation callable
    builds the engine through the worker-local
    :class:`~repro.perf.registry.EngineRegistry`, so the behavior tables
    and subtree-type caches exist before the first chunk arrives and are
    shared by every chunk this worker ever processes.
    """
    global _WORKER_CALL, _WORKER_INIT_NS
    started = time.perf_counter_ns()
    _WORKER_CALL = _resolve_call(pickle.loads(spec_bytes))
    _WORKER_INIT_NS = time.perf_counter_ns() - started


def _worker_ping() -> int:
    """Round-trip probe proving a worker finished bootstrap + initializer."""
    return os.getpid()


def _run_chunk(task: tuple) -> dict:
    """Evaluate one chunk in a worker; never raises.

    Returns a plain, picklable record: the chunk ordinal, the worker's
    pid, the results (or ``None`` on failure), the worker's ``obs``
    snapshot for the chunk, and — on failure — a structured error entry
    naming the failing input's submission index.
    """
    ordinal, start, items, cost = task
    stats = obs.Stats()
    results: list | None = []
    error: dict | None = None
    with obs.collecting(stats):
        for offset, item in enumerate(items):
            try:
                results.append(_WORKER_CALL(item))
            except Exception as exc:  # noqa: BLE001 - shipped, not swallowed
                error = {
                    "index": start + offset,
                    "kind": type(exc).__name__,
                    "detail": str(exc),
                    "exc_counters": dict(getattr(exc, "counters", None) or {}),
                    "budget": getattr(exc, "budget", None),
                    "traceback": traceback.format_exc(),
                }
                results = None
                break
    return {
        "ordinal": ordinal,
        "worker": os.getpid(),
        "items": len(items),
        "cost": cost,
        "init_ns": _WORKER_INIT_NS,
        "results": results,
        "stats": stats.snapshot(),
        "error": error,
    }


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


class ParallelExecutor:
    """Shard corpora across worker processes for one query.

    Parameters
    ----------
    query:
        A query automaton / core ``Query`` (evaluated through the cached
        engines) or any picklable callable ``item -> result``.
    jobs:
        Worker count; defaults to :func:`default_jobs` (affinity-aware).
        ``jobs=1`` is the serial fast path: no pool, no pickling,
        identical results.
    engine:
        Per-item engine choice shipped to the workers (e.g. ``"numpy"``
        for the vectorized string kernel); ``None`` keeps each query
        type's default engine.

    Picklability of the query is checked here, at submit time, so a
    closure that cannot cross a process boundary fails with a clear
    message instead of a mid-pool crash.
    """

    def __init__(
        self,
        query,
        jobs: int | None = None,
        engine: str | None = None,
    ) -> None:
        self.jobs = default_jobs() if jobs is None else jobs
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        self.engine = engine
        self._spec = _prepare_spec(query, engine)
        self._pool = None
        self._closed = False
        if self.jobs > 1:
            try:
                self._payload = pickle.dumps(self._spec)
            except Exception as exc:
                raise TypeError(
                    f"jobs={self.jobs} requires a picklable query/selection "
                    f"function, but pickling {query!r} failed: {exc}. "
                    "Use a module-level function or a query automaton, or "
                    "run with jobs=1."
                ) from exc

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self._closed = True
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def _ensure_pool(self):
        if self._closed:
            raise RuntimeError("executor is closed")
        if self._pool is None:
            if multiprocessing.current_process().daemon:
                raise RuntimeError(
                    "ParallelExecutor cannot spawn a pool from inside a "
                    "worker process. If this surfaced while importing your "
                    "script, guard its entry point with "
                    "if __name__ == '__main__':"
                )
            _check_spawn_main()
            context = multiprocessing.get_context("spawn")
            self._pool = context.Pool(
                processes=self.jobs,
                initializer=_initialize_worker,
                initargs=(self._payload,),
            )
            # Workers that die during bootstrap (unguarded __main__,
            # initializer failure) are respawned forever by Pool; a
            # bounded ping turns that hang into a diagnosable error.
            try:
                self._pool.apply_async(_worker_ping).get(_SPAWN_PING_TIMEOUT)
            except multiprocessing.TimeoutError:
                self._pool.terminate()
                self._pool.join()
                self._pool = None
                raise RuntimeError(
                    f"worker pool failed to initialize within "
                    f"{_SPAWN_PING_TIMEOUT:.0f}s — workers are dying during "
                    "bootstrap. Most likely your script's entry point is "
                    "not guarded with if __name__ == '__main__': (required "
                    "by the spawn start method), or the worker cannot "
                    "import the query's module. Run with jobs=1 to stay "
                    "in-process."
                ) from None
        return self._pool

    # -- mapping ---------------------------------------------------------

    def map(self, items: Iterable) -> list:
        """Evaluate every item; results in submission order.

        ``items`` may be any iterable — a streaming corpus is consumed
        one chunk at a time with at most ``2 * jobs`` chunks in flight,
        so arbitrarily large corpora never materialize in the parent.
        """
        if self.jobs == 1:
            return self._map_serial(items)
        return self._map_parallel(items)

    def _map_serial(self, items: Iterable) -> list:
        """The pool-free path: same engines ``batch_evaluate`` uses."""
        call = _resolve_call(self._spec)
        return [call(item) for item in items]

    def _map_parallel(self, items: Iterable) -> list:
        pool = self._ensure_pool()
        target = chunk_cost_target(
            items if isinstance(items, Sequence) else None, self.jobs
        )
        chunks = enumerate(iter_chunks(items, target))
        window = max(2, self.jobs * _INFLIGHT_PER_WORKER)

        pending: dict[int, object] = {}
        records: dict[int, dict] = {}
        failure: dict | None = None
        exhausted = False
        next_to_merge = 0
        merge_wait_ns = 0
        worker_items: dict[int, int] = {}
        worker_cost: dict[int, int] = {}
        worker_init: dict[int, int] = {}
        chunk_count = 0
        item_count = 0

        def submit_more() -> None:
            nonlocal exhausted
            while not exhausted and failure is None and len(pending) < window:
                try:
                    ordinal, chunk = next(chunks)
                except StopIteration:
                    exhausted = True
                    return
                pending[ordinal] = pool.apply_async(_run_chunk, (
                    (ordinal,) + chunk,
                ))

        submit_more()
        while pending:
            waited = time.perf_counter_ns()
            record = pending.pop(next_to_merge).get()
            merge_wait_ns += time.perf_counter_ns() - waited
            records[record["ordinal"]] = record
            chunk_count += 1
            item_count += record["items"]
            worker = record["worker"]
            worker_items[worker] = worker_items.get(worker, 0) + record["items"]
            worker_cost[worker] = worker_cost.get(worker, 0) + record["cost"]
            worker_init[worker] = record.get("init_ns", 0)
            if record["error"] is not None and (
                failure is None or record["error"]["index"] < failure["index"]
            ):
                failure = dict(record["error"], worker=worker,
                               counters=record["stats"]["counters"])
            next_to_merge += 1
            submit_more()

        sink = obs.SINK
        if sink.enabled and chunk_count:
            for ordinal in sorted(records):
                self._merge_stats(sink, records[ordinal]["stats"])
            sink.incr("parallel.chunks", chunk_count)
            sink.incr("parallel.items", item_count)
            sink.incr("parallel.workers", len(worker_items))
            sink.incr("parallel.merge_wait_ns", merge_wait_ns)
            if worker_items:
                sink.gauge_max(
                    "parallel.worker_items_max", max(worker_items.values())
                )
                sink.gauge_max(
                    "parallel.worker_cost_max", max(worker_cost.values())
                )
                sink.gauge_max(
                    "parallel.worker_init_ns", max(worker_init.values())
                )

        if failure is not None:
            raise ShardError(
                failure["index"],
                failure["kind"],
                failure["detail"],
                worker=failure["worker"],
                counters=failure["counters"],
                exc_counters=failure["exc_counters"],
                budget=failure["budget"],
                worker_traceback=failure["traceback"],
            )

        results: list = []
        for ordinal in sorted(records):
            results.extend(records[ordinal]["results"])
        return results

    @staticmethod
    def _merge_stats(sink: obs.StatsSink, snapshot: dict) -> None:
        """Fold one worker snapshot into the installed sink.

        Uses only the :class:`~repro.obs.StatsSink` protocol (counters
        summed, gauges maxed, samples concatenated), so any sink works —
        the semantics match :meth:`repro.obs.Stats.merge`.
        """
        for name, amount in snapshot.get("counters", {}).items():
            sink.incr(name, amount)
        for name, value in snapshot.get("gauges", {}).items():
            sink.gauge_max(name, value)
        for name, values in snapshot.get("samples", {}).items():
            for value in values:
                sink.observe(name, value)


def parallel_map(
    query,
    items: Iterable,
    jobs: int | None = None,
    engine: str | None = None,
) -> list:
    """One-shot :class:`ParallelExecutor` convenience.

    Spawns a pool, maps, and tears the pool down.  For repeated corpora
    against the same query, keep a :class:`ParallelExecutor` instead —
    its workers' warmed engines survive across ``map`` calls.
    """
    with ParallelExecutor(query, jobs=jobs, engine=engine) as executor:
        return executor.map(items)
