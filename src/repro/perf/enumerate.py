"""Constant-delay answer enumeration: linear preprocessing, streaming cursors.

Every other entry point in this codebase *materializes* a selection —
``Document.select`` builds the complete answer list before returning its
first path, so time-to-first-answer, peak memory and response size all
scale with answer count even when the caller wants the first k hits.
This module turns the same Theorem 3.9 / Lemma 5.16 behavior-table
machinery into an *enumerator*: after the existing bottom-up typing
sweep (the linear preprocessing pass), a cursor walks only subtrees that
contain answers and yields selected nodes one at a time, in document
order, without ever building the full answer set.

The enabling fact is context-independence (Theorem 3.9): whether a
subtree contains *any* answer is fully determined by its ``(subtree
type, context)`` pair — the same pair the cached engines already key
their per-node work on.  So the module maintains, per engine, a lazily
resolved *productivity* memo::

    productive(type, ctx)  =  hit(type, ctx)  or  any child productive

and a *jump pointer* memo — for each productive ``(type, ctx)`` pair,
the child positions whose subtrees contain answers.  A cursor then runs
a preorder DFS that descends only through productive children: between
two consecutive answers it touches at most the jump chain connecting
them, never a barren subtree, which is what bounds the inter-answer
delay independently of document size.  Both memos are shared across
cursors (and documents) on the same engine, so repeated types pay once.

Entry points:

* :func:`stream_select` — the dispatcher behind
  :meth:`repro.core.pipeline.Document.select_iter`: routes marked-DBTA^u
  queries (compiled XPath/MSO/legacy patterns) and QA^u/SQA^u automata to
  their streaming cursors, on the dict engines of
  :mod:`repro.perf.trees` or the vectorized combo tables of
  :mod:`repro.perf.nptrees` (``engine="numpy"``);
* ``engine="naive"`` and unrecognized query objects degrade to a
  materialized-then-iterated select behind ``enumerate.fallbacks`` —
  results are identical either way, only the delay profile differs.

Counters: ``enumerate.cursors`` (streams opened), ``enumerate.answers``
(paths yielded), ``enumerate.nodes`` (nodes visited by cursors),
``enumerate.productive_misses`` (freshly resolved productivity flags)
and ``enumerate.fallbacks`` (cursors degraded to a materialized select).
"""

from __future__ import annotations

from .. import obs
from ..trees.tree import Path, Tree
from ..unranked.dbta import DeterministicUnrankedAutomaton
from ..unranked.twoway import UnrankedQueryAutomaton
from .registry import numpy_kernel, validate_engine
from .trees import _MARKED_ENGINES, _UNRANKED_ENGINES

#: Cap on a per-engine productivity memo.  A memo that outgrows the cap
#: is reset wholesale at the next cursor open — correctness is unchanged
#: (flags are recomputed), only amortization restarts.
MAX_PRODUCTIVE = 65536

_EXHAUSTED = object()


class _Productivity:
    """Per-engine memo of productive-subtree flags and jump pointers.

    Keys are engine-specific ``(type, context)`` identities (tuples for
    the dict engines, ``(type id, set id)`` pairs for the numpy combo
    engines); values answer "does a subtree with this type, seen under
    this context, contain at least one selected node?".  ``jumps`` memo
    the productive child positions per key — the next-answer pointers
    the cursor follows.
    """

    __slots__ = ("flags", "jumps")

    def __init__(self) -> None:
        self.flags: dict = {}
        self.jumps: dict = {}

    def productive(self, adapter, key) -> bool:
        """Resolve one key, filling the memo along the explored spine.

        Iterative DFS over the ``(type, context)`` dependency DAG (type
        ids strictly decrease from parent to child, so there are no
        cycles), short-circuiting on the first hit: resolution only
        descends until it finds one answer, and a ``True`` verdict marks
        every open frame — each is an ancestor of the hit — in one pass.
        """
        flags = self.flags
        cached = flags.get(key)
        if cached is not None:
            return cached
        before = len(flags)
        stack: list[tuple] = []
        current = key
        verdict = False
        while True:
            cached = flags.get(current)
            if cached is None:
                if adapter.hit(current):
                    flags[current] = True
                    cached = True
                else:
                    stack.append((current, iter(adapter.child_keys(current))))
            if cached:
                for open_key, _children in stack:
                    flags[open_key] = True
                verdict = True
                break
            # Advance: the next unresolved child of the innermost frame.
            while stack:
                frame_key, children = stack[-1]
                child = next(children, _EXHAUSTED)
                if child is _EXHAUSTED:
                    flags[frame_key] = False
                    stack.pop()
                    continue
                current = child
                break
            else:
                break
        sink = obs.SINK
        if sink.enabled:
            sink.incr("enumerate.productive_misses", len(flags) - before)
        return verdict

    def jump_positions(self, adapter, key, child_keys) -> tuple[int, ...]:
        """The productive child positions under ``key`` (the jump pointers)."""
        found = self.jumps.get(key)
        if found is None:
            found = tuple(
                i
                for i, child in enumerate(child_keys)
                if self.productive(adapter, child)
            )
            self.jumps[key] = found
        return found


def _productivity(engine) -> _Productivity:
    """The engine's shared productivity index (reset past the cap)."""
    found = getattr(engine, "_enum_productivity", None)
    if found is None or len(found.flags) >= MAX_PRODUCTIVE:
        found = _Productivity()
        engine._enum_productivity = found
    return found


# ----------------------------------------------------------------------
# Engine adapters: hit(key) and child_keys(key) per evaluator family
# ----------------------------------------------------------------------


class _MarkedAdapter:
    """Keys ``(type id, context frozenset)`` over a dict MarkedQueryEngine."""

    __slots__ = ("engine",)

    def __init__(self, engine) -> None:
        self.engine = engine

    def hit(self, key) -> bool:
        """Is a node with this (type, context) selected?  (Figure 5 test.)"""
        engine = self.engine
        found = engine._selects.get(key)
        if found is None:
            type_id, context = key
            found = engine._marked[type_id] in context
            engine._selects[key] = found
        return found

    def child_keys(self, key) -> tuple:
        """Per-child ``(type, context)`` keys (Lemma 3.10 sibling sweeps)."""
        type_id, context = key
        engine = self.engine
        child_types = engine.types.children[type_id]
        if not child_types:
            return ()
        return tuple(zip(child_types, engine._contexts_below(type_id, context)))


class _UnrankedAdapter:
    """Keys ``(type id, Assumed frozenset)`` over a dict UnrankedQueryEngine."""

    __slots__ = ("engine",)

    def __init__(self, engine) -> None:
        self.engine = engine

    def hit(self, key) -> bool:
        """Is a node with this (type, Assumed) selected?  (Lemma 5.16 test.)"""
        type_id, assumed = key
        engine = self.engine
        label = engine.types.labels[type_id]
        select_key = (label, assumed)
        found = engine._selects.get(select_key)
        if found is None:
            selecting = engine.qa.selecting
            found = any((state, label) in selecting for state in assumed)
            engine._selects[select_key] = found
        return found

    def child_keys(self, key) -> tuple:
        """Per-child ``(type, Assumed)`` keys (behavior contributions)."""
        type_id, assumed = key
        engine = self.engine
        child_types = engine.types.children[type_id]
        if not child_types:
            return ()
        return tuple(
            zip(child_types, engine._children_assumed(type_id, assumed))
        )


class _ComboAdapter:
    """Keys ``(global type id, set id)`` over a numpy combo propagator.

    Serves both :class:`~repro.perf.nptrees.NumpyMarkedEngine` and
    :class:`~repro.perf.nptrees.NumpyUnrankedEngine` — the shared
    ``_combo`` machinery memoizes the hit bit and the per-child set-id
    row per distinct combination, so the cursor reads the exact same
    tables the level-order array passes would.
    """

    __slots__ = ("engine", "universe")

    def __init__(self, engine, universe) -> None:
        self.engine = engine
        self.universe = universe

    def hit(self, key) -> bool:
        engine = self.engine
        return bool(engine._combo_hits.data[engine._combo(*key)])

    def child_keys(self, key) -> tuple:
        type_id, set_id = key
        kids = self.universe.type_children[type_id]
        if not kids:
            return ()
        engine = self.engine
        combo = engine._combo(type_id, set_id)
        rows = engine._combo_rows
        offset = int(rows.offsets[combo])
        return tuple(zip(kids, rows.values[offset : offset + len(kids)].tolist()))


# ----------------------------------------------------------------------
# The cursors
# ----------------------------------------------------------------------


def _dict_walk(adapter, tree: Tree, root_key):
    """Preorder DFS through productive children only (dict engines).

    Yields selected paths in document order: children are pushed in
    reversed jump order so the leftmost productive subtree pops first,
    and preorder visitation of Dewey paths *is* sorted-tuple order.
    """
    productivity = _productivity(adapter.engine)
    visited = yielded = 0
    try:
        if not productivity.productive(adapter, root_key):
            return
        stack: list[tuple] = [((), tree, root_key)]
        while stack:
            path, node, key = stack.pop()
            visited += 1
            if adapter.hit(key):
                yielded += 1
                yield path
            if node.children:
                child_keys = adapter.child_keys(key)
                jumps = productivity.jump_positions(adapter, key, child_keys)
                for i in reversed(jumps):
                    stack.append((path + (i,), node.children[i], child_keys[i]))
    finally:
        sink = obs.SINK
        if sink.enabled:
            sink.incr("enumerate.nodes", visited)
            sink.incr("enumerate.answers", yielded)


def _marked_cursor(engine, tree: Tree, type_memo: dict | None):
    """Stream a dict MarkedQueryEngine; ≡ sorted(engine.evaluate(tree)).

    The preprocessing pass is :meth:`incremental_type` against
    ``type_memo`` — with a warm per-document memo (the serve path) the
    root type is an O(1) identity hit and the first answer arrives after
    walking only its jump chain.
    """
    memo = type_memo if type_memo is not None else {}
    root_type = engine.incremental_type(tree, memo)
    root_context = frozenset(engine.automaton.accepting)
    yield from _dict_walk(_MarkedAdapter(engine), tree, (root_type, root_context))


def _unranked_cursor(engine, tree: Tree):
    """Stream a dict UnrankedQueryEngine; ≡ sorted(engine.evaluate(tree))."""
    types, _pairs = engine.types.type_tree(tree, engine._build_behavior)
    root_type = types[()]
    root_states, halting = engine._root_trajectory(root_type)
    if halting is None or halting not in engine.automaton.accepting:
        return
    root_key = (root_type, frozenset(root_states))
    yield from _dict_walk(_UnrankedAdapter(engine), tree, root_key)


def _combo_walk(engine, enc, root_key):
    """Preorder DFS over an :class:`EncodedDocument` (numpy engines)."""
    from .nptrees import UNIVERSE

    adapter = _ComboAdapter(engine, UNIVERSE)
    productivity = _productivity(engine)
    visited = yielded = 0
    try:
        if not productivity.productive(adapter, root_key):
            return
        paths, types = enc.paths, enc.types
        child_start, child_index = enc.child_start, enc.child_index
        stack: list[tuple] = [(enc.size - 1, root_key)]
        while stack:
            index, key = stack.pop()
            visited += 1
            if adapter.hit(key):
                yielded += 1
                yield paths[index]
            child_keys = adapter.child_keys(key)
            if child_keys:
                start = int(child_start[index])
                jumps = productivity.jump_positions(adapter, key, child_keys)
                for i in reversed(jumps):
                    stack.append(
                        (int(child_index[start + i]), child_keys[i])
                    )
    finally:
        sink = obs.SINK
        if sink.enabled:
            sink.incr("enumerate.nodes", visited)
            sink.incr("enumerate.answers", yielded)


def _numpy_marked_stream(engine, tree: Tree, encoding):
    """Stream a NumpyMarkedEngine, degrading exactly like its evaluate.

    Dead types (partial classifiers) fall back to the dict cursor —
    still streaming — behind ``npkernel.tree_fallbacks``; a kernel
    overflow mid-stream marks the engine dead and finishes the
    enumeration from the dict engine's materialized result (sound
    because both paths are differentially identical), behind
    ``npkernel.overflows`` + ``enumerate.fallbacks``.
    """
    from .nptrees import KernelOverflowError, encode

    count = 0
    try:
        enc = encoding if encoding is not None else encode(tree)
        engine._ensure_types(enc)
        if (engine._tstate.data[enc.distinct] < 0).any():
            obs.SINK.incr("npkernel.tree_fallbacks")
            yield from _marked_cursor(
                _MARKED_ENGINES.get(engine.automaton), tree, None
            )
            return
        root_key = (int(enc.types[enc.size - 1]), engine._root_sid())
        for path in _combo_walk(engine, enc, root_key):
            count += 1
            yield path
    except KernelOverflowError:
        engine.dead = True
        obs.SINK.incr("npkernel.overflows")
        obs.SINK.incr("enumerate.fallbacks")
        full = sorted(_MARKED_ENGINES.get(engine.automaton).evaluate(tree))
        yield from full[count:]


def _numpy_unranked_stream(engine, tree: Tree):
    """Stream a NumpyUnrankedEngine; overflow degrades to its dict oracle."""
    from .nptrees import KernelOverflowError, encode

    count = 0
    try:
        enc = encode(tree)
        engine._ensure_types(enc)
        root_local = int(engine._local.data[int(enc.types[enc.size - 1])])
        root_states, halting = engine.oracle._root_trajectory(root_local)
        if halting is None or halting not in engine.automaton.accepting:
            return
        root_key = (
            int(enc.types[enc.size - 1]),
            engine._intern_set(frozenset(root_states)),
        )
        for path in _combo_walk(engine, enc, root_key):
            count += 1
            yield path
    except KernelOverflowError:
        engine.dead = True
        obs.SINK.incr("npkernel.overflows")
        obs.SINK.incr("enumerate.fallbacks")
        yield from sorted(engine.oracle.evaluate(tree))[count:]


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------


def _materialized(query, tree: Tree, engine: str | None):
    """The counter-tracked fallback: iterate a materialized select."""
    from .batch import evaluate_one

    obs.SINK.incr("enumerate.fallbacks")
    return iter(sorted(evaluate_one(query, tree, engine=engine)))


def _marked_stream(automaton, tree: Tree, engine, type_memo, encoding):
    kernel = numpy_kernel(engine, trees=True)
    if kernel is not None:
        np_engine = kernel.marked_engine(automaton)
        if not np_engine.dead:
            return _numpy_marked_stream(np_engine, tree, encoding)
        obs.SINK.incr("npkernel.tree_fallbacks")
    return _marked_cursor(_MARKED_ENGINES.get(automaton), tree, type_memo)


def _unranked_stream(qa, tree: Tree, engine):
    kernel = numpy_kernel(engine, trees=True)
    if kernel is not None:
        np_engine = kernel.unranked_engine(qa)
        if not np_engine.dead:
            return _numpy_unranked_stream(np_engine, tree)
        obs.SINK.incr("npkernel.tree_fallbacks")
    return _unranked_cursor(_UNRANKED_ENGINES.get(qa), tree)


def stream_select(
    query,
    tree: Tree,
    engine: str | None = None,
    *,
    type_memo: dict | None = None,
    encoding=None,
):
    """An iterator of selected paths in document order; ≡ a sorted select.

    ``query`` is a compiled query object — a pair-marked
    :class:`DeterministicUnrankedAutomaton`, an
    :class:`UnrankedQueryAutomaton`, or any :class:`~repro.core.query.Query`
    wrapper (``MSOQuery``/``CompiledQuery``/``UnrankedAutomatonQuery``);
    query *strings* are compiled by the callers
    (:meth:`~repro.core.pipeline.Document.select_iter`,
    :meth:`~repro.serve.store.DocumentStore.select_iter`) so the pattern
    LRU and compile cache are shared with ``select``.

    ``engine`` follows the usual taxonomy: ``None``/``"table"`` stream
    through the dict engines, ``"numpy"`` through the vectorized combo
    tables (degrading behind the ``npkernel.*`` counters), ``"naive"``
    materializes through the uncached oracles (``enumerate.fallbacks``).

    ``type_memo`` threads a per-document incremental typing memo
    (:class:`~repro.perf.trees.TypeMemo`) into the preprocessing pass;
    ``encoding`` supplies a pre-built
    :class:`~repro.perf.nptrees.EncodedDocument` — the serve layer passes
    its per-revision state for O(1) warm preprocessing.

    Closing the returned generator stops the walk immediately; nothing
    past the last yielded answer is computed.
    """
    validate_engine(engine)
    obs.SINK.incr("enumerate.cursors")
    if engine == "naive":
        return _materialized(query, tree, engine)
    if isinstance(query, DeterministicUnrankedAutomaton):
        return _marked_stream(query, tree, engine, type_memo, encoding)
    if isinstance(query, UnrankedQueryAutomaton):
        return _unranked_stream(query, tree, engine)

    from ..core.query import CompiledQuery, MSOQuery, UnrankedAutomatonQuery

    if isinstance(query, MSOQuery) and query.engine != "naive":
        return _marked_stream(
            query.compiled(), tree, engine, type_memo, encoding
        )
    if isinstance(query, CompiledQuery):
        return _marked_stream(
            query.automaton, tree, engine, type_memo, encoding
        )
    if isinstance(query, UnrankedAutomatonQuery):
        return _unranked_stream(query.automaton, tree, engine)
    return _materialized(query, tree, engine)
