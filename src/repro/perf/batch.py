"""Batched query evaluation: one engine, many inputs.

``batch_evaluate`` dispatches any query-like object in this codebase to
its fast cached engine and maps it over an input sequence, so table and
type-index construction is amortized across the whole batch (and — since
the engines live in identity-keyed registries — across batches too).

Accepted query objects:

* :class:`~repro.strings.twoway.StringQueryAutomaton` over words,
* :class:`~repro.strings.twoway.GeneralizedStringQA` over words
  (results are output tuples rather than position sets),
* :class:`~repro.unranked.twoway.UnrankedQueryAutomaton` over trees,
* compiled marked-alphabet DBTA^u
  (:class:`~repro.unranked.dbta.DeterministicUnrankedAutomaton`) over trees,
* any :class:`~repro.core.query.Query` — ``MSOQuery`` (compiled once,
  then the cached marked engine), ``UnrankedAutomatonQuery``,
  ``CompiledQuery``; other ``Query`` subclasses fall back to their own
  ``evaluate``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .. import obs
from ..strings.twoway import GeneralizedStringQA, StringQueryAutomaton
from ..unranked.dbta import DeterministicUnrankedAutomaton, evaluate_marked_query
from ..unranked.twoway import UnrankedQueryAutomaton
from .registry import numpy_kernel, validate_engine
from .strings import _QUERY_ENGINES, _TRANSDUCERS
from .trees import _MARKED_ENGINES, _UNRANKED_ENGINES


def _pair_mark(label, bit):
    """The pair marking every compiled query in this codebase uses."""
    return (label, bit)


def _uncached_marked(automaton):
    """The uncached Figure 5 two-pass — the ``engine="naive"`` oracle."""
    return lambda tree: evaluate_marked_query(automaton, tree, _pair_mark)


def _engine_call(query, engine: str | None = None):
    """The per-input evaluation callable for a query-like object.

    ``engine="numpy"`` selects the vectorized kernels — the string kernel
    of :mod:`repro.perf.npkernel` and the tree kernel of
    :mod:`repro.perf.nptrees`, both resolved (and imported) by
    :func:`repro.perf.registry.numpy_kernel`; without numpy installed
    the choice degrades to the table/dict engines behind
    ``npkernel.fallbacks``.
    ``engine="naive"`` selects the uncached differential oracles (cut
    simulation for query automata, the uncached two-pass for compiled
    queries); ``None`` / ``"table"`` the interned-dict default engines.
    Any other name raises the uniform
    :func:`repro.perf.registry.unknown_engine` ``ValueError``.
    """
    validate_engine(engine)
    if isinstance(query, StringQueryAutomaton):
        if engine == "naive":
            return query.evaluate
        kernel = numpy_kernel(engine)
        if kernel is not None:
            return kernel.query_engine(query).evaluate
        return _QUERY_ENGINES.get(query).evaluate
    if isinstance(query, GeneralizedStringQA):
        if engine == "naive":
            return query.transduce
        kernel = numpy_kernel(engine)
        if kernel is not None:
            return kernel.transducer_engine(query).transduce
        return _TRANSDUCERS.get(query).transduce
    if isinstance(query, UnrankedQueryAutomaton):
        if engine == "naive":
            return query.evaluate
        kernel = numpy_kernel(engine, trees=True)
        if kernel is not None:
            return kernel.unranked_engine(query).evaluate
        return _UNRANKED_ENGINES.get(query).evaluate
    if isinstance(query, DeterministicUnrankedAutomaton):
        if engine == "naive":
            return _uncached_marked(query)
        kernel = numpy_kernel(engine, trees=True)
        if kernel is not None:
            return kernel.marked_engine(query).evaluate
        return _MARKED_ENGINES.get(query).evaluate

    # Core Query objects: imported lazily (core.query does not depend on
    # this package at import time).
    from ..core.query import CompiledQuery, MSOQuery, Query, UnrankedAutomatonQuery

    if isinstance(query, MSOQuery):
        if query.engine == "naive":
            return query.evaluate
        if engine == "naive":
            return _uncached_marked(query.compiled())
        kernel = numpy_kernel(engine, trees=True)
        if kernel is not None:
            return kernel.marked_engine(query.compiled()).evaluate
        return _MARKED_ENGINES.get(query.compiled()).evaluate
    if isinstance(query, CompiledQuery):
        if engine == "naive":
            return _uncached_marked(query.automaton)
        kernel = numpy_kernel(engine, trees=True)
        if kernel is not None:
            return kernel.marked_engine(query.automaton).evaluate
        return _MARKED_ENGINES.get(query.automaton).evaluate
    if isinstance(query, UnrankedAutomatonQuery):
        if engine == "naive":
            return query.automaton.evaluate
        kernel = numpy_kernel(engine, trees=True)
        if kernel is not None:
            return kernel.unranked_engine(query.automaton).evaluate
        return _UNRANKED_ENGINES.get(query.automaton).evaluate
    if isinstance(query, Query):
        return query.evaluate
    raise TypeError(f"cannot batch-evaluate {type(query).__name__} objects")


def batch_evaluate(query, inputs: Iterable, engine: str | None = None) -> list:
    """Evaluate ``query`` on every input, amortizing engine construction.

    Returns one result per input, in order: position sets for string QAs,
    output tuples for GSQAs, path sets for tree queries.

    With ``engine="numpy"`` and a string query, the whole batch is
    evaluated in one flat vectorized scan (offset-indexed ragged layout —
    see :mod:`repro.perf.npkernel`) rather than word by word.
    """
    if engine == "numpy" and isinstance(
        query, (StringQueryAutomaton, GeneralizedStringQA)
    ):
        kernel = numpy_kernel(engine)
        if kernel is None:  # numpy missing: one fallback, counted above
            engine = None
        elif isinstance(query, StringQueryAutomaton):
            return _count_batch(kernel.query_engine(query).evaluate_batch(list(inputs)))
        else:
            return _count_batch(
                kernel.transducer_engine(query).transduce_batch(list(inputs))
            )
    call = _engine_call(query, engine=engine)
    return _count_batch([call(item) for item in inputs])


def _count_batch(results: list) -> list:
    sink = obs.SINK
    if sink.enabled:
        sink.incr("batch.calls")
        sink.incr("batch.inputs", len(results))
    return results


def evaluate_one(query, item, engine: str | None = None):
    """``batch_evaluate`` for a single input (shares the same engines)."""
    return _engine_call(query, engine=engine)(item)
