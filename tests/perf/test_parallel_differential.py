"""Parallel sharded execution vs. serial: 200+ seeded random corpora.

The contract under test: for every corpus, ``jobs=N`` output is
byte-identical (``repr`` equality) to ``jobs=1`` output and to the naive
per-document ``select``/``evaluate`` — including empty corpora,
single-document corpora, and corpus sizes straddling the chunk
boundaries of the worker count.

Worker count comes from ``REPRO_PARALLEL_JOBS`` (default 2; CI pins 2).
One executor per workload family is shared across all its corpora, so
the suite exercises exactly the serving shape the executor is for: one
query, one warm pool, many corpora.
"""

import os
import random

import pytest

from repro import obs
from repro.core.patterns import compile_pattern
from repro.core.pipeline import Corpus, Document, batch_select
from repro.perf.parallel import ParallelExecutor, default_jobs
from repro.perf.shard import estimate_cost, iter_chunks
from repro.strings.examples import odd_ones_query_automaton
from repro.trees.generators import random_tree, random_unranked_circuit
from repro.unranked.examples import circuit_query_automaton

JOBS = int(os.environ.get("REPRO_PARALLEL_JOBS", "2"))

TREE_LABELS = ("a", "b", "c")


@pytest.fixture(scope="module")
def marked_executor():
    """A warm pool for the compiled ``//a[has(b)]`` pattern query."""
    query = compile_pattern("//a[has(b)]", TREE_LABELS)
    with ParallelExecutor(query, jobs=JOBS) as executor:
        yield executor, query


@pytest.fixture(scope="module")
def circuit_executor():
    """A warm pool for the Example 5.9 circuit QA^u."""
    qa = circuit_query_automaton()
    with ParallelExecutor(qa, jobs=JOBS) as executor:
        yield executor, qa


@pytest.fixture(scope="module")
def string_executor():
    """A warm pool for the odd-ones string QA."""
    qa = odd_ones_query_automaton()
    with ParallelExecutor(qa, jobs=JOBS) as executor:
        yield executor, qa


def _tree_corpus(seed: int) -> list:
    rng = random.Random(0xC0 + seed)
    return [
        random_tree(rng.randrange(1, 28), list(TREE_LABELS), seed_or_rng=rng)
        for _ in range(rng.randrange(9))
    ]


def _circuit_corpus(seed: int) -> list:
    rng = random.Random(0x5EED + seed)
    return [
        random_unranked_circuit(
            rng.randrange(1, 4), max_arity=3, seed_or_rng=rng
        )
        for _ in range(rng.randrange(8))
    ]


def _word_corpus(seed: int) -> list:
    rng = random.Random(0xABC + seed)
    return [
        "".join(rng.choice("01") for _ in range(rng.randrange(16)))
        for _ in range(rng.randrange(10))
    ]


class TestSeededCorpora:
    """80 + 70 + 60 = 210 seeded corpora, three workload families."""

    def test_marked_pattern_query(self, marked_executor):
        executor, query = marked_executor
        for seed in range(80):
            corpus = _tree_corpus(seed)
            parallel = [sorted(r) for r in executor.map(corpus)]
            serial = [sorted(r) for r in executor._map_serial(corpus)]
            naive = [sorted(query.evaluate(tree)) for tree in corpus]
            assert repr(parallel) == repr(serial) == repr(naive), f"seed {seed}"

    def test_unranked_circuit_query(self, circuit_executor):
        executor, qa = circuit_executor
        for seed in range(70):
            corpus = _circuit_corpus(seed)
            parallel = [sorted(r) for r in executor.map(corpus)]
            naive = [sorted(qa.evaluate(tree)) for tree in corpus]
            assert repr(parallel) == repr(naive), f"seed {seed}"

    def test_string_query(self, string_executor):
        executor, qa = string_executor
        for seed in range(60):
            corpus = _word_corpus(seed)
            parallel = [sorted(r) for r in executor.map(corpus)]
            naive = [sorted(qa.evaluate(word)) for word in corpus]
            assert repr(parallel) == repr(naive), f"seed {seed}"


class TestBoundaries:
    """Empty, single-document, and chunk-boundary corpus sizes."""

    def test_empty_corpus(self, marked_executor):
        executor, _query = marked_executor
        assert executor.map([]) == []

    def test_single_document(self, marked_executor):
        executor, query = marked_executor
        tree = random_tree(13, list(TREE_LABELS), seed_or_rng=7)
        assert executor.map([tree]) == [query.evaluate(tree)]

    @pytest.mark.parametrize(
        "count",
        sorted({0, 1, JOBS - 1, JOBS, JOBS + 1, 2 * JOBS, 2 * JOBS + 1}),
    )
    def test_chunk_boundary_sizes(self, marked_executor, count):
        executor, query = marked_executor
        corpus = [
            random_tree(6 + i, list(TREE_LABELS), seed_or_rng=1000 + i)
            for i in range(count)
        ]
        parallel = [sorted(r) for r in executor.map(corpus)]
        naive = [sorted(query.evaluate(tree)) for tree in corpus]
        assert repr(parallel) == repr(naive)


class TestPipelineParallel:
    """batch_select / Corpus.select with jobs= against their serial twins."""

    def _documents(self, seed: int) -> list[Document]:
        rng = random.Random(seed)
        texts = []
        for _ in range(rng.randrange(1, 6)):
            books = "".join(
                f"<book><author>A{rng.randrange(4)}</author>"
                f"<title>T</title></book>"
                for _ in range(rng.randrange(4))
            )
            texts.append(f"<bibliography>{books}</bibliography>")
        return [Document.from_text(text) for text in texts]

    def test_batch_select_jobs(self):
        for seed in range(4):
            documents = self._documents(seed)
            parallel = batch_select(documents, "//author", jobs=JOBS)
            serial = batch_select(documents, "//author")
            naive = [document.select("//author") for document in documents]
            assert repr(parallel) == repr(serial) == repr(naive)

    def test_corpus_select_jobs(self):
        documents = self._documents(99)
        corpus = Corpus(documents)
        parallel = corpus.select("//author", jobs=JOBS)
        serial = corpus.select("//author")
        assert repr(parallel) == repr(serial)

    def test_document_batch_select_staticmethod(self):
        documents = self._documents(3)
        assert Document.batch_select(documents, "//author", jobs=JOBS) == (
            batch_select(documents, "//author")
        )

    def test_streaming_corpus_matches_materialized(self, tmp_path):
        import io

        inner = "".join(
            f"<bib><book><author>A{i}</author><title>T{i}</title></book></bib>"
            for i in range(7)
        )
        source = io.BytesIO(f"<corpus>{inner}</corpus>".encode())
        streamed = Corpus.stream(source)
        alphabet = ("#text", "author", "bib", "book", "title")
        parallel = streamed.select("//author", jobs=JOBS, alphabet=alphabet)
        materialized = Corpus.from_texts(
            f"<bib><book><author>A{i}</author><title>T{i}</title></book></bib>"
            for i in range(7)
        )
        assert repr(parallel) == repr(materialized.select("//author"))

    def test_streaming_pattern_needs_alphabet(self):
        import io

        corpus = Corpus.stream(io.BytesIO(b"<corpus><d/></corpus>"))
        with pytest.raises(ValueError, match="alphabet"):
            corpus.select("//d", jobs=1)


class TestStatsParity:
    """Merged worker counters equal the serial run's work counters.

    Cache-locality counters (``trees.type_hits``/``_misses``,
    ``engine.registry_*``) legitimately differ per worker; the *work*
    counters — evaluations and node visits — are invariant, as is the
    per-evaluation invariant ``type_hits + type_misses == trees.nodes``.
    """

    WORK = ("trees.evaluations", "trees.nodes")

    def test_parallel_counters_match_serial(self, marked_executor):
        executor, query = marked_executor
        corpus = _tree_corpus(17) or _tree_corpus(19)
        with obs.collecting() as parallel_stats:
            executor.map(corpus)
        with ParallelExecutor(query, jobs=1) as serial:
            with obs.collecting() as serial_stats:
                serial.map(corpus)
        for name in self.WORK:
            assert parallel_stats.counter(name) == serial_stats.counter(name)
        for stats in (parallel_stats, serial_stats):
            assert (
                stats.counter("trees.type_hits")
                + stats.counter("trees.type_misses")
                == stats.counter("trees.nodes")
            )

    def test_parallel_counters_present(self, marked_executor):
        executor, _query = marked_executor
        corpus = _tree_corpus(23) or _tree_corpus(29)
        with obs.collecting() as stats:
            executor.map(corpus)
        assert stats.counter("parallel.chunks") >= 1
        assert stats.counter("parallel.workers") >= 1
        assert stats.counter("parallel.items") == len(corpus)
        assert stats.counter("parallel.merge_wait_ns") >= 0
        assert stats.gauges["parallel.worker_items_max"] >= 1

    def test_serial_path_emits_no_parallel_counters(self, marked_executor):
        _executor, query = marked_executor
        corpus = _tree_corpus(31) or _tree_corpus(37)
        with ParallelExecutor(query, jobs=1) as serial:
            with obs.collecting() as stats:
                serial.map(corpus)
        assert not any(name.startswith("parallel.") for name in stats.counters)


class TestShardPlanning:
    """The chunk planner: contiguity, order, cost accounting."""

    def test_chunks_partition_in_order(self):
        items = [random_tree(3 + i, ["a"], seed_or_rng=i) for i in range(17)]
        chunks = list(iter_chunks(items, target_cost=20))
        flattened = [item for _start, chunk, _cost in chunks for item in chunk]
        assert flattened == items
        starts = [start for start, _chunk, _cost in chunks]
        sizes = [len(chunk) for _start, chunk, _cost in chunks]
        expected_starts = [sum(sizes[:i]) for i in range(len(sizes))]
        assert starts == expected_starts

    def test_chunk_costs_are_item_cost_sums(self):
        items = ["x" * (i + 1) for i in range(9)]
        for _start, chunk, cost in iter_chunks(items, target_cost=7):
            assert cost == sum(estimate_cost(item) for item in chunk)

    def test_max_items_cap(self):
        chunks = list(iter_chunks(["x"] * 100, target_cost=10**9, max_items=8))
        assert all(len(chunk) <= 8 for _s, chunk, _c in chunks)

    def test_estimate_cost_families(self):
        tree = random_tree(12, ["a"], seed_or_rng=0)
        assert estimate_cost(tree) == 12
        assert estimate_cost(Document.from_text("<a><b/></a>")) == 2
        assert estimate_cost("hello") == 5
        assert estimate_cost(object()) == 1


class TestDefaultJobs:
    """The default worker count follows CPU affinity, not raw core count."""

    def test_respects_sched_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5})
        assert default_jobs() == 3

    def test_affinity_failure_falls_back_to_cpu_counts(self, monkeypatch):
        def broken(pid):
            raise OSError("no affinity on this platform")

        monkeypatch.setattr(os, "sched_getaffinity", broken)
        if hasattr(os, "process_cpu_count"):
            monkeypatch.setattr(os, "process_cpu_count", lambda: 7)
        else:
            monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert default_jobs() == 7

    def test_never_below_one(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set())
        assert default_jobs() == 1

    def test_missing_affinity_api(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert default_jobs() == 4
