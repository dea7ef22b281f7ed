"""Single-sweep string query evaluation over cached behavior tables.

The naive :meth:`StringQueryAutomaton.evaluate` replays the entire
two-way run — for a machine making ``k`` head sweeps that is ``k·n``
simulated steps plus a trace and a seen-set per call.  The fast path here
is the executable form of Theorem 3.9 (and of Lemma 3.10's output pairs):
one left-to-right pass fixes the behavior functions and ``first`` states,
one right-to-left pass fixes the ``Assumed`` sets, and selection (or GSQA
output) is read off per position.  All recurrences go through the
interned :class:`~repro.perf.table.BehaviorTable`, so the cost per
position is a few dictionary hits regardless of how much the simulated
head zig-zags — and the tables persist across calls, making batch
workloads cheaper still.

The naive simulators remain the reference oracle; agreement is enforced
by the differential tests in ``tests/perf/``.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from .. import obs
from ..strings.behavior import BehaviorError
from ..strings.twoway import (
    BOTTOM,
    GeneralizedStringQA,
    StringQueryAutomaton,
    TwoWayDFA,
    as_symbol_sequence,
)
from ..strings.dfa import AutomatonError
from .registry import EngineRegistry, numpy_kernel
from .table import BehaviorTable

State = Hashable
Symbol = Hashable

#: Cache marker for "two distinct outputs assumed at one position".
_CONFLICT = object()


def _swept(table: BehaviorTable, word: tuple):
    """Both passes: cells, assumed-set ids, rightmost position, halting state."""
    cells, function_ids, firsts = table.sweep(word)
    rightmost = max(i for i, state in enumerate(firsts) if state is not None)
    assumed = table.assumed_ids(cells, function_ids, firsts, rightmost)
    halting_configurations = [
        (i, state)
        for i in range(rightmost + 1)
        for state in table.halting_states(assumed[i], cells[i])
    ]
    if len(halting_configurations) != 1:
        raise BehaviorError(
            f"expected one halting configuration, found {halting_configurations!r}"
        )
    return cells, assumed, rightmost, halting_configurations[0][1]


def fast_final_state(automaton: TwoWayDFA, word: Sequence[Symbol]) -> State:
    """The halting state of the run, without simulating it."""
    table = BehaviorTable.for_automaton(automaton)
    _cells, _assumed, _rightmost, halting = _swept(
        table, as_symbol_sequence(word)
    )
    return halting


def fast_accepts(automaton: TwoWayDFA, word: Sequence[Symbol]) -> bool:
    """Sweep-based equivalent of :meth:`TwoWayDFA.accepts`."""
    return fast_final_state(automaton, word) in automaton.accepting


class StringQueryEngine:
    """Cached evaluator for one :class:`StringQueryAutomaton`.

    Holds the shared behavior table of the underlying 2DFA plus a
    selection cache keyed on interned ``(Assumed, symbol)`` pairs, so
    repeated local contexts — across positions and across words — decide
    selection with one dictionary hit.
    """

    def __init__(self, qa: StringQueryAutomaton) -> None:
        self.qa = qa
        self.table = BehaviorTable.for_automaton(qa.automaton)
        self._selects: dict[tuple[int, Symbol], bool] = {}

    def evaluate(self, word: Sequence[Symbol]) -> frozenset[int]:
        """All selected positions of the word, in two table sweeps."""
        word = as_symbol_sequence(word)
        sink = obs.SINK
        if sink.enabled:
            sink.incr("strings.evaluations")
            select_cache_before = len(self._selects)
        table = self.table
        cells, assumed, rightmost, halting = _swept(table, word)
        if halting not in self.qa.automaton.accepting:
            return frozenset()
        selects, selecting = self._selects, self.qa.selecting
        selected: set[int] = set()
        for position in range(1, min(rightmost, len(word)) + 1):
            symbol = word[position - 1]
            key = (assumed[position], symbol)
            hit = selects.get(key)
            if hit is None:
                hit = any(
                    (state, symbol) in selecting
                    for state in table.assumed_set(assumed[position])
                )
                selects[key] = hit
            if hit:
                selected.add(position)
        if sink.enabled:
            decided = min(rightmost, len(word))
            misses = len(self._selects) - select_cache_before
            sink.incr("strings.select_cache_misses", misses)
            sink.incr("strings.select_cache_hits", decided - misses)
        return frozenset(selected)


class TransductionEngine:
    """Cached transducer for one :class:`GeneralizedStringQA`.

    The output at a position depends only on its ``Assumed`` set and its
    symbol; both the value and the paper's well-formedness violations
    (zero or two outputs) are cached per interned pair.
    """

    def __init__(self, gsqa: GeneralizedStringQA) -> None:
        self.gsqa = gsqa
        self.table = BehaviorTable.for_automaton(gsqa.automaton)
        self._outputs: dict[tuple[int, Symbol], object] = {}

    def _output_at(self, set_id: int, symbol: Symbol):
        key = (set_id, symbol)
        if key in self._outputs:
            return self._outputs[key]
        output = self.gsqa.output
        value = BOTTOM
        for state in self.table.assumed_set(set_id):
            candidate = output.get((state, symbol), BOTTOM)
            if candidate is BOTTOM:
                continue
            if value is not BOTTOM and value != candidate:
                value = _CONFLICT
                break
            value = candidate
        self._outputs[key] = value
        return value

    def transduce(self, word: Sequence[Symbol]) -> tuple[Hashable, ...]:
        """The GSQA's output at every position, in two table sweeps."""
        word = as_symbol_sequence(word)
        obs.SINK.incr("strings.transductions")
        _cells, assumed, rightmost, _halting = _swept(self.table, word)
        outputs: list[Hashable] = [BOTTOM] * len(word)
        for position in range(1, min(rightmost, len(word)) + 1):
            value = self._output_at(assumed[position], word[position - 1])
            if value is _CONFLICT:
                raise AutomatonError(f"two outputs at position {position}")
            outputs[position - 1] = value
        missing = [index + 1 for index, value in enumerate(outputs) if value is BOTTOM]
        if missing:
            raise AutomatonError(f"no output at positions {missing!r} of {word!r}")
        return tuple(outputs)


_QUERY_ENGINES: EngineRegistry[StringQueryEngine] = EngineRegistry(
    StringQueryEngine, name="perf.query_engines"
)
_TRANSDUCERS: EngineRegistry[TransductionEngine] = EngineRegistry(
    TransductionEngine, name="perf.transducers"
)


def fast_evaluate(
    qa: StringQueryAutomaton,
    word: Sequence[Symbol],
    engine: str | None = None,
) -> frozenset[int]:
    """Selected positions of ``word``; ≡ :meth:`StringQueryAutomaton.evaluate`.

    One forward and one backward sweep over cached behavior tables —
    O(n·|Q|) worst case, a few dict hits per position once warm.
    ``engine="numpy"`` runs the sweeps as vectorized array scans
    (:mod:`repro.perf.npkernel`), falling back here when numpy is absent.
    """
    kernel = numpy_kernel(engine)
    if kernel is not None:
        return kernel.query_engine(qa).evaluate(word)
    return _QUERY_ENGINES.get(qa).evaluate(word)


def fast_transduce(
    gsqa: GeneralizedStringQA,
    word: Sequence[Symbol],
    engine: str | None = None,
) -> tuple[Hashable, ...]:
    """``M(w)`` per Definition 3.5; ≡ :meth:`GeneralizedStringQA.transduce`.

    ``engine="numpy"`` selects the vectorized kernel, when available.
    """
    kernel = numpy_kernel(engine)
    if kernel is not None:
        return kernel.transducer_engine(gsqa).transduce(word)
    return _TRANSDUCERS.get(gsqa).transduce(word)
