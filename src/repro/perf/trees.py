"""Tree query evaluation with hashed subtree types and cached behaviors.

Both tree evaluators in this module rest on one idea: in a deterministic
bottom-up (or behavior-function) computation, everything a node
contributes is determined by its *subtree type* — the label plus the
types of its children.  Interning types as small integers turns forests
with repeated structure (XML documents, generated circuits, sibling
sequences) into a handful of distinct computations:

* :class:`UnrankedQueryEngine` — the Lemma 5.16 evaluator for QA^u/SQA^u
  with per-type behavior functions, per-``(type, state)`` excursion
  results (stay transitions routed through the fast GSQA transducer of
  :mod:`repro.perf.strings`), and per-``(type, Assumed)`` child
  contributions.
* :class:`MarkedQueryEngine` — the Figure 5 two-phase propagation over a
  marked-alphabet DBTA^u (the Theorem 4.8 / §6 ``A'`` form): per-type
  subtree states, and per-``(type, context)`` sibling-word summaries
  (forward/backward horizontal sweeps — the Lemma 3.10 pattern) reused
  across nodes with identical hashed subtree types.

Both engines persist across calls via :class:`EngineRegistry`; the cut
simulators and the uncached evaluators remain the differential oracles.
"""

from __future__ import annotations

from collections.abc import Hashable

from .. import obs
from ..strings.twoway import NonTerminatingRunError
from ..trees.tree import Path, Tree
from ..unranked.dbta import DeterministicUnrankedAutomaton
from ..unranked.twoway import (
    STAY,
    StayLimitError,
    TwoWayUnrankedAutomaton,
    UnrankedQueryAutomaton,
    UP,
)
from .registry import EngineRegistry, numpy_kernel
from .strings import fast_transduce

State = Hashable
Label = Hashable
BehaviorFunction = dict

#: Cap on the per-engine ``(type, context) -> relative selection`` memo.
#: Entries past the cap live in a per-call overlay and are recomputed on
#: the next evaluation instead of growing the engine without bound.
MAX_REL_SELECTED = 65536

#: A per-document incremental typing memo: ``id(node) -> (node, type_id)``.
#: The node is kept in the tuple both to pin the id (CPython reuses ids of
#: collected objects) and to verify identity on lookup.
TypeMemo = dict


class _TypeIndex:
    """Shared interning of subtree types: ``(label, child types) -> id``."""

    def __init__(self) -> None:
        self._ids: dict[tuple, int] = {}
        self.labels: list[Label] = []
        self.children: list[tuple[int, ...]] = []

    def intern(self, label: Label, child_ids: tuple[int, ...]) -> tuple[int, bool]:
        """The type id plus whether it is new (first time seen)."""
        key = (label, child_ids)
        found = self._ids.get(key)
        if found is not None:
            return found, False
        index = len(self.labels)
        self._ids[key] = index
        self.labels.append(label)
        self.children.append(child_ids)
        return index, True

    def rollback(self, label: Label, child_ids: tuple[int, ...]) -> None:
        """Forget the most recently interned type (failed construction)."""
        del self._ids[(label, child_ids)]
        self.labels.pop()
        self.children.pop()

    def type_tree(self, tree: Tree, on_new) -> tuple[dict[Path, int], list]:
        """Type ids per node path (document order also returned as pairs).

        ``on_new(type_id)`` runs once per freshly interned type, after its
        children are available — the hook that builds cached per-type data.
        """
        types: dict[Path, int] = {}
        pairs: list[tuple[Path, Tree]] = []
        stack: list[tuple[Path, Tree, bool]] = [((), tree, False)]
        while stack:
            path, node, expanded = stack.pop()
            if expanded:
                child_ids = tuple(
                    types[path + (i,)] for i in range(len(node.children))
                )
                type_id, new = self.intern(node.label, child_ids)
                if new:
                    try:
                        on_new(type_id)
                    except BaseException:
                        self.rollback(node.label, child_ids)
                        raise
                types[path] = type_id
            else:
                pairs.append((path, node))
                stack.append((path, node, True))
                for i in range(len(node.children) - 1, -1, -1):
                    stack.append((path + (i,), node.children[i], False))
        return types, pairs


class UnrankedQueryEngine:
    """Cached Lemma 5.16 evaluation of one QA^u / SQA^u."""

    def __init__(self, qa: UnrankedQueryAutomaton) -> None:
        self.qa = qa
        self.automaton = qa.automaton
        self.types = _TypeIndex()
        self._behaviors: list[BehaviorFunction] = []
        self._orbits: dict[tuple[int, State], tuple[State, ...]] = {}
        self._excursions: dict[tuple[int, State], tuple] = {}
        self._downs: dict[tuple[State, Label, int], tuple | None] = {}
        self._classifications: dict[tuple, tuple | None] = {}
        self._contributions: dict[tuple[int, frozenset], tuple] = {}
        self._selects: dict[tuple[Label, frozenset], bool] = {}

    # -- per-type data --------------------------------------------------

    def _down(self, state: State, label: Label, arity: int):
        key = (state, label, arity)
        if key in self._downs:
            return self._downs[key]
        result = self.automaton.delta_down(state, label, arity)
        self._downs[key] = result
        return result

    def _classify(self, word: tuple):
        if word in self._classifications:
            return self._classifications[word]
        found = self.automaton.up_classifier.classify(word)
        self._classifications[word] = found
        return found

    def orbit(self, type_id: int, state: State) -> tuple[State, ...]:
        """States visited from ``state`` under the type's behavior (memoized)."""
        key = (type_id, state)
        found = self._orbits.get(key)
        if found is not None:
            return found
        behavior = self._behaviors[type_id]
        trail = [state]
        seen = {state}
        current = state
        while current in behavior:
            nxt = behavior[current]
            if nxt == current:
                break
            if nxt in seen:
                raise NonTerminatingRunError(f"behavior cycles from {state!r}")
            trail.append(nxt)
            seen.add(nxt)
            current = nxt
        result = tuple(trail)
        self._orbits[key] = result
        return result

    def _settle(self, type_id: int, state: State) -> State | None:
        """``up(f, q)``: the fixed point reached from ``state``, if any."""
        trail = self.orbit(type_id, state)
        last = trail[-1]
        return last if self._behaviors[type_id].get(last) == last else None

    def _settle_word(self, child_types: tuple[int, ...], entry_states):
        word = []
        for child_type, entry in zip(child_types, entry_states):
            settled = self._settle(child_type, entry)
            if settled is None:
                return None
            word.append((settled, self.types.labels[child_type]))
        return tuple(word)

    def _excursion(self, type_id: int, state: State) -> tuple:
        """``(return_state, stay_states)`` of one down excursion (cached)."""
        key = (type_id, state)
        found = self._excursions.get(key)
        if found is not None:
            return found
        automaton = self.automaton
        label = self.types.labels[type_id]
        child_types = self.types.children[type_id]
        result: tuple = (None, None)
        down = self._down(state, label, len(child_types))
        if down is not None:
            word = self._settle_word(child_types, down)
            if word is not None:
                outcome = self._classify(word)
                if outcome is None:
                    pass
                elif outcome[0] == UP:
                    result = (outcome[1], None)
                else:
                    assert outcome[0] == STAY and automaton.stay_gsqa is not None
                    stay_states = fast_transduce(automaton.stay_gsqa, word)
                    result = (None, stay_states)
                    word2 = self._settle_word(child_types, stay_states)
                    if word2 is not None:
                        outcome2 = self._classify(word2)
                        if outcome2 is not None:
                            if outcome2[0] == STAY:
                                if (
                                    automaton.stay_limit is not None
                                    and automaton.stay_limit <= 1
                                ):
                                    raise StayLimitError(
                                        "second stay transition at the "
                                        "children of one node"
                                    )
                                raise NotImplementedError(
                                    "behavior evaluation supports at most "
                                    "one stay per node"
                                )
                            result = (outcome2[1], stay_states)
        self._excursions[key] = result
        return result

    def _build_behavior(self, type_id: int) -> None:
        """The ``on_new`` hook: fix ``f^A`` for a freshly interned type."""
        automaton = self.automaton
        label = self.types.labels[type_id]
        leaf = not self.types.children[type_id]
        behavior: BehaviorFunction = {}
        self._behaviors.append(behavior)
        try:
            for state in automaton.states:
                pair = (state, label)
                if pair in automaton.up_pairs:
                    behavior[state] = state
                elif pair in automaton.down_pairs:
                    if leaf:
                        target = automaton.delta_leaf.get(pair)
                        if target is not None:
                            behavior[state] = target
                    else:
                        returned, _stays = self._excursion(type_id, state)
                        if returned is not None:
                            behavior[state] = returned
        except BaseException:
            # The type is about to be rolled back; its id will be reused,
            # so evict everything cached under it.
            self._behaviors.pop()
            for cache in (self._orbits, self._excursions, self._contributions):
                for key in [k for k in cache if k[0] == type_id]:
                    del cache[key]
            raise

    # -- per-tree passes ------------------------------------------------

    def _root_trajectory(
        self, type_id: int
    ) -> tuple[list[State], State | None]:
        automaton = self.automaton
        label = self.types.labels[type_id]
        arity = len(self.types.children[type_id])
        behavior = self._behaviors[type_id]
        assumed: list[State] = []
        seen: set[State] = set()
        state = automaton.initial
        while True:
            if state in seen:
                raise NonTerminatingRunError("root trajectory cycles")
            seen.add(state)
            assumed.append(state)
            pair = (state, label)
            if pair in automaton.down_pairs:
                if state in behavior:
                    state = behavior[state]
                    continue
                fires = (
                    pair in automaton.delta_leaf
                    if arity == 0
                    else self._down(state, label, arity) is not None
                )
                return assumed, (None if fires else state)
            if pair in automaton.up_pairs:
                target = automaton.delta_root.get(pair)
                if target is None:
                    return assumed, state
                state = target
                continue
            return assumed, state

    def _children_assumed(
        self, type_id: int, assumed: frozenset
    ) -> tuple[frozenset, ...]:
        """What a node with this type and Assumed set hands its children."""
        key = (type_id, assumed)
        found = self._contributions.get(key)
        if found is not None:
            return found
        automaton = self.automaton
        label = self.types.labels[type_id]
        child_types = self.types.children[type_id]
        buckets: list[set] = [set() for _ in child_types]
        for state in assumed:
            if (state, label) not in automaton.down_pairs:
                continue
            down = self._down(state, label, len(child_types))
            if down is None:
                continue
            _returned, stay_states = self._excursion(type_id, state)
            for i, child_state in enumerate(down):
                buckets[i].update(self.orbit(child_types[i], child_state))
            if stay_states is not None:
                for i, child_state in enumerate(stay_states):
                    buckets[i].update(self.orbit(child_types[i], child_state))
        result = tuple(frozenset(bucket) for bucket in buckets)
        self._contributions[key] = result
        return result

    def evaluate(self, tree: Tree) -> frozenset[Path]:
        """The computed query ``A(t)``; ≡ the cut-simulation ``evaluate``."""
        sink = obs.SINK
        types_before = len(self.types.labels) if sink.enabled else 0
        types, pairs = self.types.type_tree(tree, self._build_behavior)
        if sink.enabled:
            misses = len(self.types.labels) - types_before
            sink.incr("trees.evaluations")
            sink.incr("trees.nodes", len(pairs))
            sink.incr("trees.type_misses", misses)
            sink.incr("trees.type_hits", len(pairs) - misses)
        root_states, halting = self._root_trajectory(types[()])
        if halting is None or halting not in self.automaton.accepting:
            return frozenset()
        assumed: dict[Path, frozenset] = {(): frozenset(root_states)}
        selects, selecting = self._selects, self.qa.selecting
        selected: set[Path] = set()
        for path, node in pairs:
            here = assumed[path]
            key = (node.label, here)
            hit = selects.get(key)
            if hit is None:
                hit = any((state, node.label) in selecting for state in here)
                selects[key] = hit
            if hit:
                selected.add(path)
            if node.children:
                contributions = self._children_assumed(types[path], here)
                for i, contribution in enumerate(contributions):
                    assumed[path + (i,)] = contribution
        return frozenset(selected)


class MarkedQueryEngine:
    """Cached Figure 5 propagation over a marked-alphabet DBTA^u."""

    def __init__(
        self, automaton: DeterministicUnrankedAutomaton, mark=None
    ) -> None:
        self.automaton = automaton
        self.mark = mark if mark is not None else (lambda label, bit: (label, bit))
        self.types = _TypeIndex()
        self._states: list[State] = []
        self._marked: list[State] = []
        self._child_contexts: dict[tuple[int, frozenset], tuple] = {}
        self._selects: dict[tuple[int, frozenset], bool] = {}
        self._rel_selected: dict[tuple[int, frozenset], frozenset] = {}

    def _build_states(self, type_id: int) -> None:
        label = self.types.labels[type_id]
        children = [self._states[c] for c in self.types.children[type_id]]
        try:
            self._states.append(
                self.automaton.classifiers[self.mark(label, 0)].result(children)
            )
            self._marked.append(
                self.automaton.classifiers[self.mark(label, 1)].result(children)
            )
        except BaseException:
            del self._states[type_id:]
            del self._marked[type_id:]
            raise

    def _contexts_below(
        self, type_id: int, context: frozenset
    ) -> tuple[frozenset, ...]:
        """Per-child context sets via one forward + one backward sibling sweep."""
        key = (type_id, context)
        found = self._child_contexts.get(key)
        if found is not None:
            return found
        classifier = self.automaton.classifiers[
            self.mark(self.types.labels[type_id], 0)
        ]
        dfa = classifier.dfa
        child_states = [self._states[c] for c in self.types.children[type_id]]

        forward = [dfa.initial]
        for state in child_states:
            forward.append(dfa.transitions[(forward[-1], state)])

        good_horizontal = frozenset(
            h for h, v in classifier.classify.items() if v in context
        )
        backward: list[frozenset] = [good_horizontal]
        for state in reversed(child_states):
            previous = backward[-1]
            backward.append(
                frozenset(
                    h for h in dfa.states if dfa.transitions[(h, state)] in previous
                )
            )
        backward.reverse()

        result = tuple(
            frozenset(
                q
                for q in self.automaton.states
                if dfa.transitions[(forward[i], q)] in backward[i + 1]
            )
            for i in range(len(child_states))
        )
        self._child_contexts[key] = result
        return result

    def evaluate(self, tree: Tree) -> frozenset[Path]:
        """Selected paths; ≡ :func:`repro.unranked.dbta.evaluate_marked_query`."""
        sink = obs.SINK
        types_before = len(self.types.labels) if sink.enabled else 0
        types, pairs = self.types.type_tree(tree, self._build_states)
        if sink.enabled:
            misses = len(self.types.labels) - types_before
            sink.incr("trees.evaluations")
            sink.incr("trees.nodes", len(pairs))
            sink.incr("trees.type_misses", misses)
            sink.incr("trees.type_hits", len(pairs) - misses)
        contexts: dict[Path, frozenset] = {
            (): frozenset(self.automaton.accepting)
        }
        selects = self._selects
        selected: set[Path] = set()
        for path, node in pairs:
            type_id = types[path]
            context = contexts[path]
            key = (type_id, context)
            hit = selects.get(key)
            if hit is None:
                hit = self._marked[type_id] in context
                selects[key] = hit
            if hit:
                selected.add(path)
            if node.children:
                below = self._contexts_below(type_id, context)
                for i, child_context in enumerate(below):
                    contexts[path + (i,)] = child_context
        return frozenset(selected)

    # -- incremental maintenance ----------------------------------------

    def incremental_type(self, tree: Tree, memo: TypeMemo) -> int:
        """The root's type id, descending only into unmemoized subtrees.

        ``memo`` maps ``id(node) -> (node, type_id)`` for subtrees typed
        by earlier calls.  After a structural-sharing edit, every
        untouched subtree object is still in the memo, so only the fresh
        spine (and the edited fragment) is walked and interned — the
        dirty-set threading of ROADMAP item 2.  The walk is iterative, so
        chain-deep documents do not recurse, and fresh types run
        :meth:`_build_states` exactly as :meth:`evaluate` would.
        """
        found = memo.get(id(tree))
        if found is not None and found[0] is tree:
            return found[1]
        sink = obs.SINK
        walked = interned = 0
        results: list[int] = []
        stack: list[tuple[Tree, bool]] = [(tree, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                arity = len(node.children)
                child_ids = tuple(results[len(results) - arity :])
                del results[len(results) - arity :]
                type_id, new = self.types.intern(node.label, child_ids)
                if new:
                    interned += 1
                    try:
                        self._build_states(type_id)
                    except BaseException:
                        self.types.rollback(node.label, child_ids)
                        raise
                memo[id(node)] = (node, type_id)
                results.append(type_id)
            else:
                hit = memo.get(id(node))
                if hit is not None and hit[0] is node:
                    results.append(hit[1])
                    continue
                walked += 1
                stack.append((node, True))
                for child in reversed(node.children):
                    stack.append((child, False))
        if sink.enabled:
            sink.incr("trees.incremental_walked", walked)
            sink.incr("trees.incremental_interned", interned)
        return results[0]

    def _rel_paths(self, type_id: int, context: frozenset) -> frozenset:
        """Paths selected inside a subtree of this type, relative to it.

        Memoized per ``(type, context)``: the selection set of a subtree
        is fully determined by its type and the context set its root sees
        (Theorem 3.9's two sweeps), so repeated types across — and within
        — documents pay once.  Computed iteratively over the
        ``(type, context)`` dependency DAG (child types are interned
        before parents, so ids strictly decrease downward); entries past
        ``MAX_REL_SELECTED`` live in a per-call overlay only.
        """
        memo = self._rel_selected
        overlay: dict[tuple[int, frozenset], frozenset] = {}
        stack = [(type_id, context, False)]
        while stack:
            tid, ctx, expanded = stack.pop()
            key = (tid, ctx)
            if key in memo or key in overlay:
                continue
            child_types = self.types.children[tid]
            below = (
                self._contexts_below(tid, ctx) if child_types else ()
            )
            if not expanded:
                stack.append((tid, ctx, True))
                for ctid, cctx in zip(child_types, below):
                    ckey = (ctid, cctx)
                    if ckey not in memo and ckey not in overlay:
                        stack.append((ctid, cctx, False))
                continue
            selected: list[Path] = [()] if self._marked[tid] in ctx else []
            for i, (ctid, cctx) in enumerate(zip(child_types, below)):
                ckey = (ctid, cctx)
                sub = memo.get(ckey)
                if sub is None:
                    sub = overlay[ckey]
                for rel in sub:
                    selected.append((i,) + rel)
            value = frozenset(selected)
            if len(memo) < MAX_REL_SELECTED:
                memo[key] = value
            else:
                overlay[key] = value
        found = memo.get((type_id, context))
        return found if found is not None else overlay[(type_id, context)]

    def incremental_evaluate(
        self, tree: Tree, memo: TypeMemo
    ) -> frozenset[Path]:
        """:meth:`evaluate` with per-*changed*-type cost; ≡ ``evaluate``.

        Typing reuses ``memo`` so only fresh subtrees are interned, and
        the selection itself assembles cached relative path sets instead
        of sweeping every node — after a small edit the work is
        proportional to the fresh ``(type, context)`` pairs on the spine,
        not to the document size.  The result is exactly
        ``self.evaluate(tree)`` (the differential suites hold both paths
        identical).
        """
        sink = obs.SINK
        rel_before = len(self._rel_selected) if sink.enabled else 0
        type_id = self.incremental_type(tree, memo)
        root_context = frozenset(self.automaton.accepting)
        result = self._rel_paths(type_id, root_context)
        if sink.enabled:
            sink.incr("trees.incremental_evaluations")
            sink.incr(
                "trees.rel_select_misses",
                len(self._rel_selected) - rel_before,
            )
        return result


_UNRANKED_ENGINES: EngineRegistry[UnrankedQueryEngine] = EngineRegistry(
    UnrankedQueryEngine
)
_MARKED_ENGINES: EngineRegistry[MarkedQueryEngine] = EngineRegistry(
    MarkedQueryEngine
)


def fast_evaluate_unranked(
    qa: UnrankedQueryAutomaton, tree: Tree, engine: str | None = None
) -> frozenset[Path]:
    """``A(t)`` via cached behavior composition; ≡ ``qa.evaluate(tree)``.

    ``engine="numpy"`` routes through the vectorized tree kernel of
    :mod:`repro.perf.nptrees` (degrading to this dict engine when numpy
    is missing); ``None`` / ``"table"`` select the dict engine directly.
    """
    kernel = numpy_kernel(engine, trees=True)
    if kernel is not None:
        return kernel.unranked_engine(qa).evaluate(tree)
    return _UNRANKED_ENGINES.get(qa).evaluate(tree)


def marked_engine(
    automaton: DeterministicUnrankedAutomaton,
) -> MarkedQueryEngine:
    """The shared pair-marked engine of a compiled query automaton."""
    return _MARKED_ENGINES.get(automaton)


def fast_evaluate_marked(
    automaton: DeterministicUnrankedAutomaton,
    tree: Tree,
    engine: str | None = None,
) -> frozenset[Path]:
    """Marked-alphabet unary query with cross-call caching.

    Equivalent to ``evaluate_marked_query(automaton, tree, lambda label,
    bit: (label, bit))`` — the pair-marking every compiled query in this
    codebase uses.  ``engine="numpy"`` selects the vectorized tree
    kernel of :mod:`repro.perf.nptrees` (falling back here when numpy is
    missing); ``None`` / ``"table"`` select this dict engine.
    """
    kernel = numpy_kernel(engine, trees=True)
    if kernel is not None:
        return kernel.marked_engine(automaton).evaluate(tree)
    return marked_engine(automaton).evaluate(tree)
