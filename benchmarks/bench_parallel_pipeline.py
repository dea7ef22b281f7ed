"""Experiment P1: sharded corpus execution (jobs=1 vs jobs=N).

Workload: a corpus of bibliography documents served by one precompiled
``//author`` query through persistent :class:`ParallelExecutor` pools —
the pools are spun up and warmed *before* measurement, so the rows time
steady-state ``map`` calls (chunk dispatch, worker evaluation, and the
submission-order merge), not process spawning.

The ``jobs`` parametrization is the scaling curve recorded in
``BENCH_parallel_pipeline.json``; ``test_scaling_curve`` additionally
stamps one wall-clock measurement per worker count (and the machine's
CPU count — scaling beyond the physical core count is not expected) into
``extra_info``, and every parallel result is asserted byte-identical to
the serial one before it may be timed.

``test_worker_setup_cost`` rows time the *cold* path — spawn workers,
ship the pickled query, map one small corpus — once per engine (the
default table engine, and the numpy kernel when numpy is installed).
"""

import os
import random
import time

import pytest

from repro.core.patterns import compile_pattern
from repro.core.pipeline import Corpus
from repro.perf import npkernel
from repro.perf.parallel import ParallelExecutor
from repro.strings.examples import multi_sweep_query_automaton
from repro.trees.xml import make_bibliography

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
DOCUMENTS = 6 if SMOKE else 24
ENTRIES = 2 if SMOKE else 12
JOBS_CURVE = [1, 2] if SMOKE else [1, 2, 4]
SETUP_JOBS = 2
SETUP_PASSES = 2 if SMOKE else 6

SETUP_ENGINES = [
    pytest.param(None, id="default"),
    pytest.param(
        "numpy",
        id="numpy",
        marks=pytest.mark.skipif(
            not npkernel.available(), reason="numpy not installed"
        ),
    ),
]


@pytest.fixture(scope="module")
def corpus():
    return Corpus.from_texts(
        make_bibliography(ENTRIES, ENTRIES + offset)
        for offset in range(DOCUMENTS)
    )


@pytest.fixture(scope="module")
def trees(corpus):
    return [document.tree for document in corpus]


@pytest.fixture(scope="module")
def query(corpus):
    return compile_pattern("//author", corpus.alphabet)


@pytest.fixture(scope="module", params=JOBS_CURVE)
def warm_executor(request, query, trees):
    """One persistent executor per worker count, warmed before timing."""
    with ParallelExecutor(query, jobs=request.param) as executor:
        executor.map(trees)  # spawn + initialize workers off the clock
        yield request.param, executor


@pytest.fixture(scope="module")
def serial_results(query, trees):
    with ParallelExecutor(query, jobs=1) as executor:
        return executor.map(trees)


def test_map_scaling(benchmark, warm_executor, trees, serial_results):
    """The curve row: one warm ``map`` per worker count."""
    jobs, executor = warm_executor
    assert executor.map(trees) == serial_results  # byte-identical, pre-timing
    benchmark.extra_info["jobs"] = jobs
    benchmark.extra_info["documents"] = len(trees)
    benchmark.extra_info["total_nodes"] = sum(tree.size for tree in trees)
    benchmark.extra_info["serial_equivalent"] = True
    if jobs == 1:
        results = benchmark(executor.map, trees)
    else:
        results = benchmark.pedantic(
            executor.map, args=(trees,), rounds=3 if SMOKE else 5, iterations=1
        )
    assert results == serial_results


def test_scaling_curve(benchmark, query, trees, serial_results):
    """One wall-clock sample per worker count, in a single row's extra_info."""
    wall_seconds = {}
    for jobs in JOBS_CURVE:
        with ParallelExecutor(query, jobs=jobs) as executor:
            first = executor.map(trees)  # warm the pool off the clock
            assert first == serial_results
            start = time.perf_counter()
            executor.map(trees)
            wall_seconds[str(jobs)] = time.perf_counter() - start
    benchmark.extra_info["wall_seconds_by_jobs"] = wall_seconds
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["documents"] = len(trees)
    serial = wall_seconds["1"]
    benchmark.extra_info["speedup_by_jobs"] = {
        jobs: serial / seconds if seconds else None
        for jobs, seconds in wall_seconds.items()
    }
    with ParallelExecutor(query, jobs=1) as executor:
        assert benchmark(executor.map, trees) == serial_results


@pytest.mark.parametrize("engine", SETUP_ENGINES)
def test_worker_setup_cost(benchmark, engine):
    """Cold start per engine: spawn, ship the pickled query, map one corpus.

    Wall clock is dominated by process spawn, so the per-worker numbers
    land in ``extra_info``: ``worker_init_ms`` (the
    ``parallel.worker_init_ns`` gauge — time a worker spent unpickling
    the query and building its engine) and ``worker_closure_steps`` /
    ``worker_rebuilds`` (dense-closure work the numpy workers performed
    themselves; every worker re-derives it).
    """
    from repro import obs

    qa = multi_sweep_query_automaton(SETUP_PASSES)
    rng = random.Random(0x5E7)
    words = [
        "".join(rng.choice("01") for _ in range(32)) for _ in range(8)
    ]
    expected = [qa.evaluate(word) for word in words]

    def cold_run():
        with ParallelExecutor(qa, jobs=SETUP_JOBS, engine=engine) as executor:
            return executor.map(words)

    assert cold_run() == expected  # warm-up: parent-side imports and engines
    with obs.collecting() as stats:
        assert cold_run() == expected
    report = stats.report()
    counters = report["counters"]
    benchmark.extra_info["engine"] = engine or "default"
    benchmark.extra_info["jobs"] = SETUP_JOBS
    benchmark.extra_info["documents"] = len(words)
    benchmark.extra_info["automaton_states"] = len(qa.automaton.states)
    benchmark.extra_info["worker_init_ms"] = (
        report["gauges"]["parallel.worker_init_ns"] / 1e6
    )
    benchmark.extra_info["worker_closure_steps"] = counters.get(
        "npkernel.closure_steps", 0
    )
    benchmark.extra_info["worker_rebuilds"] = counters.get(
        "npkernel.rebuilds", 0
    )
    results = benchmark.pedantic(
        cold_run, rounds=2 if SMOKE else 3, iterations=1
    )
    assert results == expected


def test_corpus_select_parallel(benchmark, corpus, serial_results):
    """The pipeline-level entry point: ``Corpus.select(..., jobs=N)``."""
    jobs = max(JOBS_CURVE)
    benchmark.extra_info["jobs"] = jobs
    results = benchmark.pedantic(
        corpus.select,
        args=("//author",),
        kwargs={"jobs": jobs},
        rounds=2 if SMOKE else 3,
        iterations=1,
    )
    assert results == [sorted(paths) for paths in serial_results]
