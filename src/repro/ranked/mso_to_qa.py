"""Theorem 4.8: every MSO-definable unary query is computed by a QA^r.

The construction follows Figure 5 and the surrounding proof.  The MSO
formula φ(x) is first compiled to a deterministic bottom-up automaton
``D`` over the *marked* alphabet ``(σ, 0)/(σ, 1)``
(:func:`repro.logic.compile_trees.compile_tree_query`), accepting a tree
with one marked node iff the node satisfies φ.  Two pieces of data then
decide selection of a node ``v`` locally:

* ``s_w`` — the ``D``-state of every unmarked subtree (the analogue of
  ``τ(t_w, w)``), and
* the *context set* ``C_v ⊆ Q_D`` — the subtree states at ``v`` that make
  the whole (unmarked-elsewhere) tree accepted (the analogue of
  ``τ(t̄_v, v)``);

``v`` is selected iff the state of ``v``'s subtree *with v marked* lies in
``C_v`` — exactly steps 2–4 of Figure 5 with MSO types replaced by the
equivalent automaton states.

The QA^r realizes the level-by-level algorithm with the paper's pebbling
trick, generalized from the binary exposition to any rank ``m``: at a
node with known context the children are evaluated **one at a time**, the
accumulated tuple of subtree states riding along in a U-state at the
first child (the pebble) while already-finished children park and
not-yet-visited children wait; the per-phase down transitions are slender
(one fixed prefix, then ``wait*``), as Definition 4.1's tables require.
When the tuple is complete, a ``combine`` state at ``v`` decides the
selection and pushes every child's context down in one (explicit,
arity-specific) down transition.  A final ascent returns the head to the
root so the run accepts.

As in the paper's proof, nodes with exactly one child are handled by the
Lemma 3.10 string treatment and are outside this automaton's domain
(inner arity must be ≥ 2); the Figure 5 *algorithm* itself
(:func:`two_phase_evaluate`) covers every arity.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from itertools import product as iter_product

from ..logic.syntax import Formula, Var
from ..strings.dfa import AutomatonError
from ..trees.tree import Path, Tree
from ..unranked.dbta import DeterministicUnrankedAutomaton
from .twoway import RankedQueryAutomaton, TwoWayRankedAutomaton

State = Hashable
Label = Hashable

#: Context sets are frozensets of D-states (the α functions of the proof,
#: represented by their true-set).
Context = frozenset


def _step(d: DeterministicUnrankedAutomaton, label, bit: int, children) -> State:
    """One transition of the marked-alphabet automaton ``D``."""
    return d.classifiers[(label, bit)].result(list(children))


class QueryAutomatonBuilder:
    """Builds the Theorem 4.8 QA^r from a marked-alphabet DBTA.

    ``d`` must run over labels ``(σ, 0)/(σ, 1)`` with ``σ`` in ``alphabet``
    (the output of :func:`~repro.logic.compile_trees.compile_tree_query`).
    The resulting QA^r works on trees of rank ≤ ``max_rank`` whose inner
    nodes have at least two children.
    """

    def __init__(
        self,
        d: DeterministicUnrankedAutomaton,
        alphabet: Sequence[Label],
        max_rank: int = 2,
    ) -> None:
        if max_rank < 2:
            raise AutomatonError("the construction needs rank ≥ 2")
        self.d = d
        self.alphabet = tuple(alphabet)
        self.max_rank = max_rank
        self.sigma_index = {sigma: i for i, sigma in enumerate(self.alphabet)}
        self.leaf_state = {
            sigma: _step(d, sigma, 0, ()) for sigma in self.alphabet
        }
        self.marked_leaf_state = {
            sigma: _step(d, sigma, 1, ()) for sigma in self.alphabet
        }
        self.reachable = self._close_d_states()
        self.functions = self._close_functions()
        self.contexts = self._close_contexts()

    # -- closures of the auxiliary state families ----------------------

    def _close_d_states(self) -> frozenset[State]:
        """Unmarked subtree states, for arities 0 and 2..max_rank."""
        reached = set(self.leaf_state.values())
        changed = True
        while changed:
            changed = False
            for sigma in self.alphabet:
                for arity in range(2, self.max_rank + 1):
                    for children in iter_product(
                        sorted(reached, key=repr), repeat=arity
                    ):
                        target = _step(self.d, sigma, 0, children)
                        if target not in reached:
                            reached.add(target)
                            changed = True
        return frozenset(reached)

    def _close_functions(self) -> frozenset[tuple]:
        """Reachable function states ``f : Σ → Q_D`` (stored as tuples)."""
        leaf_f = tuple(self.leaf_state[sigma] for sigma in self.alphabet)
        functions = {leaf_f}
        changed = True
        while changed:
            changed = False
            for arity in range(2, self.max_rank + 1):
                for child_functions in iter_product(
                    sorted(functions, key=repr), repeat=arity
                ):
                    for child_labels in iter_product(self.alphabet, repeat=arity):
                        children = tuple(
                            f[self.sigma_index[label]]
                            for f, label in zip(child_functions, child_labels)
                        )
                        combined = tuple(
                            _step(self.d, sigma, 0, children)
                            for sigma in self.alphabet
                        )
                        if combined not in functions:
                            functions.add(combined)
                            changed = True
        return frozenset(functions)

    def _child_context(
        self, context: Context, sigma: Label, siblings: tuple, position: int
    ) -> Context:
        """``C_{v(position)}`` given the other children's states."""
        return frozenset(
            q
            for q in self.d.states
            if _step(
                self.d,
                sigma,
                0,
                siblings[:position] + (q,) + siblings[position:],
            )
            in context
        )

    def _close_contexts(self) -> frozenset[Context]:
        contexts = {frozenset(self.d.accepting)}
        frontier = list(contexts)
        while frontier:
            context = frontier.pop()
            for sigma in self.alphabet:
                for arity in range(2, self.max_rank + 1):
                    for siblings in iter_product(
                        sorted(self.reachable, key=repr), repeat=arity - 1
                    ):
                        for position in range(arity):
                            child = self._child_context(
                                context, sigma, siblings, position
                            )
                            if child not in contexts:
                                contexts.add(child)
                                frontier.append(child)
        return frozenset(contexts)

    # -- assembling the QA^r -------------------------------------------

    def build(self) -> RankedQueryAutomaton:
        """Assemble the QA^r (states, the four tables, and λ)."""
        alphabet = self.alphabet
        sigma_index = self.sigma_index
        m = self.max_rank

        states: set = {"eval", "parked", "leaf_sel", "leaf_nosel", "ascend"}
        down_pairs: set = set()
        up_pairs: set = set()
        delta_leaf: dict = {}
        delta_root: dict = {}
        delta_up: dict = {}
        delta_down: dict = {}
        selecting: set = set()

        def down(context: Context):
            return ("down", context)

        def wait(context: Context):
            return ("wait", context)

        def turn(context: Context, collected: tuple):
            return ("turn", context, collected)

        def hold(context: Context, collected: tuple, parent_label: Label):
            return ("hold", context, collected, parent_label)

        def combine(context: Context, collected: tuple, flag: bool):
            return ("combine", context, collected, flag)

        def func(f: tuple):
            return ("func", f)

        leaf_f = tuple(self.leaf_state[sigma] for sigma in alphabet)

        # --- subtree evaluation by function states (the §4.1 simulation)
        for sigma in alphabet:
            down_pairs.add(("eval", sigma))
            up_pairs.add(("parked", sigma))
            for arity in range(2, m + 1):
                delta_down[("eval", sigma, arity)] = tuple(
                    "eval" for _ in range(arity)
                )
            delta_leaf[("eval", sigma)] = func(leaf_f)
        for f in self.functions:
            states.add(func(f))
            for sigma in alphabet:
                up_pairs.add((func(f), sigma))
        # δ_up on all-func words of every arity 2..m.
        for arity in range(2, m + 1):
            for child_functions in iter_product(
                sorted(self.functions, key=repr), repeat=arity
            ):
                for child_labels in iter_product(alphabet, repeat=arity):
                    children = tuple(
                        f[sigma_index[label]]
                        for f, label in zip(child_functions, child_labels)
                    )
                    combined = tuple(
                        _step(self.d, sigma, 0, children) for sigma in alphabet
                    )
                    word = tuple(
                        (func(f), label)
                        for f, label in zip(child_functions, child_labels)
                    )
                    delta_up[word] = func(combined)

        # --- collected tuples (pebble payloads).
        def tuples_up_to(length: int):
            for size in range(1, length + 1):
                yield from iter_product(
                    sorted(self.reachable, key=repr), repeat=size
                )

        for context in self.contexts:
            states.add(down(context))
            states.add(wait(context))
            for sigma in alphabet:
                down_pairs.add((down(context), sigma))
                up_pairs.add((wait(context), sigma))
                # Entry: first child evaluates, the rest wait (arity ≥ 2).
                for arity in range(2, m + 1):
                    delta_down[(down(context), sigma, arity)] = (
                        "eval",
                        *[wait(context) for _ in range(arity - 1)],
                    )
                marked = self.marked_leaf_state[sigma]
                delta_leaf[(down(context), sigma)] = (
                    "leaf_sel" if marked in context else "leaf_nosel"
                )
            for collected in tuples_up_to(m - 1):
                states.add(turn(context, collected))
                for sigma in alphabet:
                    down_pairs.add((turn(context, collected), sigma))
                    states.add(hold(context, collected, sigma))
                    for child_label in alphabet:
                        up_pairs.add(
                            (hold(context, collected, sigma), child_label)
                        )
                    # Phase i = len(collected) + 1: pebble at child 1,
                    # children 2..i-1 parked, child i evaluates, rest wait.
                    i = len(collected) + 1
                    for arity in range(max(i, 2), m + 1):
                        delta_down[(turn(context, collected), sigma, arity)] = (
                            hold(context, collected, sigma),
                            *["parked" for _ in range(i - 2)],
                            "eval",
                            *[wait(context) for _ in range(arity - i)],
                        )
            for collected in tuples_up_to(m):
                if len(collected) < 2:
                    continue
                for flag in (False, True):
                    state = combine(context, collected, flag)
                    states.add(state)
                    for sigma in alphabet:
                        down_pairs.add((state, sigma))
                        if flag:
                            selecting.add((state, sigma))
                        arity = len(collected)
                        delta_down[(state, sigma, arity)] = tuple(
                            down(
                                self._child_context(
                                    context,
                                    sigma,
                                    collected[:j] + collected[j + 1 :],
                                    j,
                                )
                            )
                            for j in range(arity)
                        )

        # --- up transitions closing each pebbling phase.
        for context in self.contexts:
            # Phase 1: (func, wait^{arity-1}) → turn with a 1-tuple.
            for f in sorted(self.functions, key=repr):
                for arity in range(2, m + 1):
                    for labels in iter_product(alphabet, repeat=arity):
                        word = ((func(f), labels[0]),) + tuple(
                            (wait(context), label) for label in labels[1:]
                        )
                        delta_up[word] = turn(
                            context, (f[sigma_index[labels[0]]],)
                        )
            # Phase i ≥ 2: (hold, parked^{i-2}, func, wait^{arity-i}).
            for collected in tuples_up_to(m - 1):
                i = len(collected) + 1
                for parent_label in alphabet:
                    hold_state = hold(context, collected, parent_label)
                    for f in sorted(self.functions, key=repr):
                        for arity in range(max(i, 2), m + 1):
                            for labels in iter_product(alphabet, repeat=arity):
                                word = (
                                    ((hold_state, labels[0]),)
                                    + tuple(
                                        ("parked", label)
                                        for label in labels[1 : i - 1]
                                    )
                                    + ((func(f), labels[i - 1]),)
                                    + tuple(
                                        (wait(context), label)
                                        for label in labels[i:]
                                    )
                                )
                                extended = collected + (
                                    f[sigma_index[labels[i - 1]]],
                                )
                                if arity == i:
                                    marked = _step(
                                        self.d, parent_label, 1, extended
                                    )
                                    delta_up[word] = combine(
                                        context, extended, marked in context
                                    )
                                else:
                                    delta_up[word] = turn(context, extended)

        # --- final ascent over finished subtrees.
        finished = ("leaf_sel", "leaf_nosel", "ascend")
        for sigma in alphabet:
            for state in finished:
                up_pairs.add((state, sigma))
        for arity in range(2, m + 1):
            for parts in iter_product(finished, repeat=arity):
                for labels in iter_product(alphabet, repeat=arity):
                    delta_up[tuple(zip(parts, labels))] = "ascend"
        selecting.update(("leaf_sel", sigma) for sigma in alphabet)

        root_context: Context = frozenset(self.d.accepting)
        automaton = TwoWayRankedAutomaton.build(
            states,
            alphabet,
            m,
            down(root_context),
            set(finished),
            up_pairs,
            down_pairs,
            delta_leaf,
            delta_root,
            delta_up,
            delta_down,
        )
        return RankedQueryAutomaton(automaton, frozenset(selecting))


def build_query_qar(
    formula: Formula,
    var: Var,
    alphabet: Sequence[Label],
    max_rank: int = 2,
    engine: str = "optimized",
) -> RankedQueryAutomaton:
    """MSO unary query φ(x) → QA^r over rank-``max_rank`` trees (Thm 4.8).

    With the default ``engine="optimized"`` the intermediate DBTA^u is
    congruence-minimized before the builder's closures enumerate its
    state set, and the finished QA^r is cached by canonical formula
    digest (:mod:`repro.perf.compile`); ``engine="naive"`` is the
    unoptimized reference.

    >>> from repro.logic.syntax import Var, Label
    >>> qa = build_query_qar(Label(Var("x"), "a"), Var("x"), ["a", "b"])
    >>> from repro.trees.tree import Tree
    >>> sorted(qa.evaluate(Tree.parse("a(b, a)")))
    [(), (1,)]
    """
    from ..logic.compile_strings import check_compile_engine
    from ..logic.compile_trees import compile_tree_query

    if not check_compile_engine(engine):
        d = compile_tree_query(formula, var, alphabet, engine="naive")
        return QueryAutomatonBuilder(d, alphabet, max_rank).build()
    from ..perf.compile import cached

    def _build() -> RankedQueryAutomaton:
        d = compile_tree_query(formula, var, alphabet)
        return QueryAutomatonBuilder(d, alphabet, max_rank).build()

    return cached(
        "qar",
        formula,
        (var,),
        frozenset(alphabet),
        _build,
        extra=("max_rank", max_rank),
    )


def two_phase_evaluate(
    d: DeterministicUnrankedAutomaton, tree: Tree
) -> frozenset[Path]:
    """The Figure 5 algorithm itself, run directly on any ranked tree.

    Level-by-level: contexts flow down, subtree states are computed
    bottom-up; selection is decided per node by the marked transition.
    Reference implementation for the QA^r above (and works for arity 1,
    which the automaton construction delegates to Lemma 3.10).
    """
    states: dict[Path, State] = {}
    for path in tree.postorder():
        node = tree.subtree(path)
        children = [states[path + (i,)] for i in range(len(node.children))]
        states[path] = _step(d, node.label, 0, children)

    contexts: dict[Path, Context] = {(): frozenset(d.accepting)}
    selected: set[Path] = set()
    for level in tree.nodes_by_depth():
        for path in level:
            node = tree.subtree(path)
            context = contexts[path]
            children_states = [
                states[path + (i,)] for i in range(len(node.children))
            ]
            marked = _step(d, node.label, 1, children_states)
            if marked in context:
                selected.add(path)
            for i in range(len(node.children)):
                child_context = frozenset(
                    q
                    for q in d.states
                    if _step(
                        d,
                        node.label,
                        0,
                        children_states[:i] + [q] + children_states[i + 1 :],
                    )
                    in context
                )
                contexts[path + (i,)] = child_context
    return frozenset(selected)


def fast_two_phase_evaluate(
    d: DeterministicUnrankedAutomaton, tree: Tree
) -> frozenset[Path]:
    """Figure 5 over cached subtree types (see :mod:`repro.perf`).

    Same query as :func:`two_phase_evaluate`, but states, contexts and
    selection decisions are computed once per *subtree type* — nodes whose
    label and hashed child-type tuple repeat (common in document trees)
    reuse the sibling-word summaries, and the caches persist across calls
    on the same automaton.
    """
    from ..perf.trees import fast_evaluate_marked

    return fast_evaluate_marked(d, tree)
