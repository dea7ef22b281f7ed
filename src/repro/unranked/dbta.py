"""Deterministic bottom-up unranked tree automata and determinization.

A DBTA^u (paper §5.1) is an NBTA^u whose horizontal languages are pairwise
disjoint per label, so every tree gets exactly one state.  We use a more
convenient *classifier* representation: per label ``a``, a total horizontal
DFA ``H_a`` over the vertical state set together with a map from ``H_a``'s
states to vertical states.  Disjointness and totality are then structural
rather than checked.

:func:`determinize` implements the subset construction for unranked
automata (Brüggemann-Klein–Murata–Wood): vertical states of the result are
*sets* of original states; the horizontal DFA for label ``a`` tracks, for
every original state ``q``, the set of states the horizontal NFA
``δ(q, a)`` can be in, reading child *subsets* by "any member" steps.

The classifier form is what the two-phase query evaluator
(:func:`evaluate_marked_query`) and the Figure 5/6 constructions consume:
it gives, per node, deterministic bottom-up states and — via a forward /
backward sweep over each sibling word, the Lemma 3.10 pattern — the
"context" information flowing top-down.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass

from ..strings.dfa import DFA, AutomatonError
from ..strings.nfa import NFA
from ..trees.tree import Path, Tree
from .nbta import UnrankedTreeAutomaton

State = Hashable
Label = Hashable


@dataclass(frozen=True)
class HorizontalClassifier:
    """A total DFA over vertical states whose states classify to a vertical state.

    ``classify[h]`` is the vertical state assigned to a node whose
    children-word drives the DFA from its initial state to ``h``.
    """

    dfa: DFA
    classify: dict[State, State]

    def __post_init__(self) -> None:
        missing = self.dfa.states - self.classify.keys()
        if missing:
            raise AutomatonError(f"unclassified horizontal states {missing!r}")

    def result(self, children_states: list[State]) -> State:
        """The vertical state for a node with the given children states."""
        here = self.dfa.run(children_states)
        if here is None:
            raise AutomatonError("horizontal DFA is not total on this word")
        return self.classify[here]


@dataclass(frozen=True)
class DeterministicUnrankedAutomaton:
    """A DBTA^u in classifier form: exactly one state per tree."""

    states: frozenset[State]
    alphabet: frozenset[Label]
    accepting: frozenset[State]
    classifiers: dict[Label, HorizontalClassifier]

    def __post_init__(self) -> None:
        if not self.accepting <= self.states:
            raise AutomatonError("accepting states must be a subset of states")
        for label in self.alphabet:
            if label not in self.classifiers:
                raise AutomatonError(f"no classifier for label {label!r}")

    @property
    def size(self) -> int:
        """|Q| + |Σ| + Σ classifier DFA sizes."""
        return (
            len(self.states)
            + len(self.alphabet)
            + sum(c.dfa.size for c in self.classifiers.values())
        )

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def run(self, tree: Tree) -> dict[Path, State]:
        """The unique state of every subtree, bottom-up."""
        result: dict[Path, State] = {}
        for path in tree.postorder():
            node = tree.subtree(path)
            children = [result[path + (i,)] for i in range(len(node.children))]
            result[path] = self.classifiers[node.label].result(children)
        return result

    def state_of(self, tree: Tree) -> State:
        """``δ*(t)``."""
        return self.run(tree)[()]

    def accepts(self, tree: Tree) -> bool:
        """Membership."""
        return self.state_of(tree) in self.accepting

    def complement(self) -> "DeterministicUnrankedAutomaton":
        """Flip acceptance (sound because the automaton is deterministic/total)."""
        return DeterministicUnrankedAutomaton(
            self.states,
            self.alphabet,
            self.states - self.accepting,
            self.classifiers,
        )

    def minimized(self) -> "DeterministicUnrankedAutomaton":
        """A language-equivalent automaton with merged vertical states and
        minimal horizontal classifier DFAs, by the joint congruence
        refinement of :func:`repro.perf.minimize.minimize_dbta`."""
        from ..perf.minimize import minimize_dbta

        return minimize_dbta(self)

    def to_nbta(self) -> UnrankedTreeAutomaton:
        """View as an NBTA^u (horizontal NFAs with disjoint languages).

        The NFAs of one label share the classifier DFA's transition table
        and differ only in their accepting states.
        """
        horizontal: dict[tuple[State, Label], NFA] = {}
        for label, classifier in self.classifiers.items():
            dfa = classifier.dfa
            transitions = {
                key: frozenset({target}) for key, target in dfa.transitions.items()
            }
            for vertical in self.states:
                accepting_h = frozenset(
                    h for h, v in classifier.classify.items() if v == vertical
                )
                if not accepting_h:
                    continue
                horizontal[(vertical, label)] = NFA(
                    dfa.states,
                    dfa.alphabet,
                    transitions,
                    frozenset({dfa.initial}),
                    accepting_h,
                )
        return UnrankedTreeAutomaton(
            self.states, self.alphabet, self.accepting, horizontal
        )


def determinize(nbta: UnrankedTreeAutomaton) -> DeterministicUnrankedAutomaton:
    """The BMW subset construction for unranked tree automata.

    Vertical states of the result are frozensets of original states (only
    those realized by some tree are materialized).  The horizontal DFA for
    label ``a`` has states that are *profiles*: tuples assigning to each
    original vertical state ``q`` the subset of ``δ(q, a)``'s NFA states
    reachable on the children word read so far (child letters are subsets;
    a step takes the union over their members).
    """
    originals = sorted(nbta.states, key=repr)

    def initial_profile(label: Label) -> tuple:
        parts = []
        for q in originals:
            nfa = nbta.horizontal.get((q, label))
            parts.append(
                frozenset() if nfa is None else nfa.epsilon_closure(nfa.initials)
            )
        return tuple(parts)

    def step_profile(label: Label, profile: tuple, child: frozenset) -> tuple:
        parts = []
        for index, q in enumerate(originals):
            nfa = nbta.horizontal.get((q, label))
            if nfa is None:
                parts.append(frozenset())
                continue
            moved: set = set()
            for symbol in child:
                moved.update(nfa.step(profile[index], symbol))
            parts.append(frozenset(moved))
        return tuple(parts)

    def classify_profile(label: Label, profile: tuple) -> frozenset:
        out = set()
        for index, q in enumerate(originals):
            nfa = nbta.horizontal.get((q, label))
            if nfa is not None and profile[index] & nfa.accepting:
                out.add(q)
        return frozenset(out)

    # Discover realizable subsets and horizontal profiles simultaneously,
    # memoizing every transition computed (they form the final DFAs).
    subsets: set[frozenset] = set()
    profiles: dict[Label, set[tuple]] = {}
    step_cache: dict[Label, dict[tuple, tuple]] = {label: {} for label in nbta.alphabet}
    for label in nbta.alphabet:
        start = initial_profile(label)
        profiles[label] = {start}
        subsets.add(classify_profile(label, start))

    changed = True
    while changed:
        changed = False
        for label in nbta.alphabet:
            cache = step_cache[label]
            for profile in list(profiles[label]):
                for child in list(subsets):
                    key = (profile, child)
                    if key in cache:
                        continue
                    target = step_profile(label, profile, child)
                    cache[key] = target
                    changed = True
                    if target not in profiles[label]:
                        profiles[label].add(target)
                    classified = classify_profile(label, target)
                    if classified not in subsets:
                        subsets.add(classified)

    classifiers: dict[Label, HorizontalClassifier] = {}
    for label in nbta.alphabet:
        cache = step_cache[label]
        transitions = {
            (profile, child): cache.get(
                (profile, child), step_profile(label, profile, child)
            )
            for profile in profiles[label]
            for child in subsets
        }
        dfa = DFA.build(
            profiles[label],
            subsets,
            transitions,
            initial_profile(label),
            set(),  # acceptance is irrelevant; classification matters
        )
        classify = {
            profile: classify_profile(label, profile) for profile in profiles[label]
        }
        classifiers[label] = HorizontalClassifier(dfa, classify)

    accepting = frozenset(
        subset for subset in subsets if subset & nbta.accepting
    )
    return DeterministicUnrankedAutomaton(
        frozenset(subsets), nbta.alphabet, accepting, classifiers
    )


# ----------------------------------------------------------------------
# Two-pass unary query evaluation (marked alphabet)
# ----------------------------------------------------------------------


def evaluate_marked_query(
    automaton: DeterministicUnrankedAutomaton, tree: Tree, mark
) -> frozenset[Path]:
    """Evaluate a unary query given by a marked-alphabet DBTA^u.

    ``automaton`` runs over labels ``mark(σ, bit)``; it must accept exactly
    the trees with one marked node satisfying the query.  Selection of node
    ``v`` is decided without materializing marked trees: one bottom-up pass
    computes unmarked subtree states ``s_v``; one top-down pass computes
    context sets ``C_v`` (the subtree states at ``v`` that would make the
    whole unmarked-elsewhere tree accepted) using a forward/backward sweep
    over each sibling word — the same two-DFA pattern Lemma 3.10 packages
    into a single two-way automaton.  Then ``v`` is selected iff the state
    of ``v``'s subtree *with v's own label marked* lies in ``C_v``.
    """
    states = automaton.run(
        tree.relabel(lambda _path, label: mark(label, 0))
    )

    # marked_state[v]: state of t_v when v itself carries the marked label.
    marked_state: dict[Path, State] = {}
    for path in tree.nodes():
        node = tree.subtree(path)
        children = [states[path + (i,)] for i in range(len(node.children))]
        marked_state[path] = automaton.classifiers[mark(node.label, 1)].result(
            children
        )

    context: dict[Path, frozenset[State]] = {(): frozenset(automaton.accepting)}
    for path in tree.nodes():
        node = tree.subtree(path)
        arity = len(node.children)
        if arity == 0:
            continue
        classifier = automaton.classifiers[mark(node.label, 0)]
        dfa = classifier.dfa
        child_states = [states[path + (i,)] for i in range(arity)]
        good_results = context[path]

        # Forward pass: horizontal DFA state before each child.
        forward = [dfa.initial]
        for q in child_states:
            forward.append(dfa.transitions[(forward[-1], q)])

        # Backward pass: horizontal states from which the remaining suffix
        # classifies into a good vertical state.
        good_horizontal = frozenset(
            h for h, v in classifier.classify.items() if v in good_results
        )
        backward: list[frozenset] = [good_horizontal]
        for q in reversed(child_states):
            previous = backward[-1]
            backward.append(
                frozenset(
                    h for h in dfa.states if dfa.transitions[(h, q)] in previous
                )
            )
        backward.reverse()

        for i in range(arity):
            child_context = frozenset(
                q
                for q in automaton.states
                if dfa.transitions[(forward[i], q)] in backward[i + 1]
            )
            context[path + (i,)] = child_context

    return frozenset(
        path for path in tree.nodes() if marked_state[path] in context[path]
    )


def brute_force_marked_query(
    automaton: DeterministicUnrankedAutomaton, tree: Tree, mark
) -> frozenset[Path]:
    """Reference: test each node by materializing the marked tree (O(n²))."""
    selected = set()
    for target in tree.nodes():
        marked = tree.relabel(
            lambda path, label: mark(label, 1 if path == target else 0)
        )
        if automaton.accepts(marked):
            selected.add(target)
    return frozenset(selected)
