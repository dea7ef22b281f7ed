"""Behavior-composition fast paths for query evaluation.

This package makes query evaluation single-sweep and cached end-to-end:

* :class:`~repro.perf.table.BehaviorTable` — interned, memoized behavior
  functions of a 2DFA with monoid-style composition (step, doubling and
  prefix-product tables), shared across calls;
* :func:`fast_evaluate` / :func:`fast_transduce` — linear two-pass
  evaluation of string query automata and GSQAs (Theorem 3.9 / Lemma
  3.10, executable);
* :func:`fast_evaluate_unranked` / :func:`fast_evaluate_marked` — tree
  evaluation with hashed subtree types, so identical subtrees and sibling
  words are summarized once (Lemma 5.16 / Figure 5);
* :func:`batch_evaluate` — one engine, many inputs;
* :class:`~repro.perf.parallel.ParallelExecutor` /
  :func:`parallel_map` — one query, many documents, many *processes*:
  spawn-safe sharded execution with worker-local engine registries,
  adaptive chunking (:mod:`~repro.perf.shard`), submission-order merge,
  and structured :class:`~repro.perf.shard.ShardError` failures;
* :mod:`~repro.perf.bitset` — the bitset kernel (interned ids,
  Python-int state sets, :class:`PackedNFA`) powering the subset
  construction, NBTA emptiness, and the packed worklist closure of
  :mod:`repro.decision.closure`;
* :mod:`~repro.perf.npkernel` — the optional numpy kernel behind
  ``engine="numpy"`` for string QAs/GSQAs: dense two-sweep scans (whole
  words and batches as array gathers plus a logarithmic
  prefix-composition scan);
* :mod:`~repro.perf.nptrees` — the tree side of the numpy kernel: a
  struct-of-arrays postorder document encoding with globally interned
  subtree types, per-distinct-type bottom-up state passes (child-sequence
  sweeps through the Cayley scan), and vectorized level-order Figure 5 /
  Lemma 5.16 propagation.

The two numpy kernels are not imported by this package: the one resolver
:func:`repro.perf.registry.numpy_kernel` imports them on the first
``engine="numpy"`` request, so default-engine paths never load numpy.
Without numpy installed they fall back to the table engines, counted in
``npkernel.fallbacks``.

The naive simulators in :mod:`repro.strings`, :mod:`repro.ranked` and
:mod:`repro.unranked` remain the reference oracles; the differential
tests in ``tests/perf/`` enforce agreement.
"""

from .batch import batch_evaluate, evaluate_one
from .bitset import Interner, PackedNFA, is_subset, iter_bits, mask_of
from .compile import (
    CompileCache,
    cached,
    canonical_key,
    compile_cache_clear,
    compile_cache_info,
    set_disk_cache,
)
from .minimize import (
    canonical_relabeled,
    canonical_relabeled_dbta,
    dbta_equivalent,
    hopcroft_minimized,
    minimize_dbta,
    moore_minimized,
)
from .parallel import ParallelExecutor, default_jobs, parallel_map
from .registry import EngineRegistry
from .shard import ShardError
from .strings import (
    StringQueryEngine,
    TransductionEngine,
    fast_accepts,
    fast_evaluate,
    fast_final_state,
    fast_transduce,
)
from .table import BehaviorTable
from .trees import (
    MarkedQueryEngine,
    UnrankedQueryEngine,
    fast_evaluate_marked,
    fast_evaluate_unranked,
    marked_engine,
)

__all__ = [
    "BehaviorTable",
    "CompileCache",
    "EngineRegistry",
    "Interner",
    "MarkedQueryEngine",
    "PackedNFA",
    "ParallelExecutor",
    "ShardError",
    "StringQueryEngine",
    "TransductionEngine",
    "UnrankedQueryEngine",
    "batch_evaluate",
    "cached",
    "canonical_key",
    "compile_cache_clear",
    "compile_cache_info",
    "canonical_relabeled",
    "canonical_relabeled_dbta",
    "dbta_equivalent",
    "default_jobs",
    "evaluate_one",
    "fast_accepts",
    "fast_evaluate",
    "fast_evaluate_marked",
    "fast_evaluate_unranked",
    "fast_final_state",
    "fast_transduce",
    "hopcroft_minimized",
    "is_subset",
    "iter_bits",
    "mask_of",
    "marked_engine",
    "minimize_dbta",
    "moore_minimized",
    "parallel_map",
    "set_disk_cache",
]
