"""Bottom-up tree automata over unranked trees (Definition 5.1).

A nondeterministic bottom-up unranked tree automaton (NBTA^u) assigns
states to nodes leaf-to-root; a node may take state ``q`` when the word of
its children's states belongs to the *horizontal language* ``δ(q, a)``,
a regular language over the state set represented here by an NFA.

This is the Brüggemann-Klein–Murata–Wood model the paper builds on; we
provide the full toolkit the later sections need:

* :meth:`UnrankedTreeAutomaton.reachable_states` /
  :meth:`~UnrankedTreeAutomaton.is_empty` — the PTIME fixpoint of
  Lemma 5.2, with witness-tree extraction;
* products (intersection/union), homomorphic relabeling (the projection
  step of the MSO compiler);
* :meth:`~UnrankedTreeAutomaton.run` — the inductive semantics ``δ*``.

Determinization lives in :mod:`repro.unranked.dbta`.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass

from ..strings.dfa import AutomatonError
from ..strings.nfa import NFA, intersection_nfa, union_nfa
from ..trees.tree import Path, Tree

State = Hashable
Label = Hashable

#: Lazily-created identity-keyed cache of :class:`~repro.perf.bitset.PackedNFA`
#: wrappers for horizontal NFAs, shared by ``run``/emptiness/witness search.
#: Created on first use to keep ``repro.perf`` out of the import cycle.
_PACKED_NFAS = None


def _packed_nfa(nfa: NFA):
    global _PACKED_NFAS
    if _PACKED_NFAS is None:
        from ..perf.bitset import PackedNFA
        from ..perf.registry import EngineRegistry

        _PACKED_NFAS = EngineRegistry(PackedNFA, capacity=512)
    return _PACKED_NFAS.get(nfa)


def empty_word_nfa(alphabet: Iterable[State]) -> NFA:
    """An NFA accepting only the empty word (leaf transitions)."""
    return NFA.build({0}, frozenset(alphabet), {}, {0}, {0})


def all_words_nfa(alphabet: Iterable[State]) -> NFA:
    """An NFA accepting every word over the alphabet."""
    alphabet = frozenset(alphabet)
    return NFA.build(
        {0}, alphabet, {(0, symbol): frozenset({0}) for symbol in alphabet}, {0}, {0}
    )


@dataclass(frozen=True)
class UnrankedTreeAutomaton:
    """An NBTA^u: ``(Q, Σ, F, δ)`` with regular horizontal languages.

    ``horizontal`` maps ``(q, a)`` to an NFA over ``Q`` recognizing
    ``δ(q, a)``; absent entries denote the empty language.
    """

    states: frozenset[State]
    alphabet: frozenset[Label]
    accepting: frozenset[State]
    horizontal: dict[tuple[State, Label], NFA]

    def __post_init__(self) -> None:
        if not self.accepting <= self.states:
            raise AutomatonError("accepting states must be a subset of states")
        for (state, label), nfa in self.horizontal.items():
            if state not in self.states:
                raise AutomatonError(f"unknown vertical state {state!r}")
            if label not in self.alphabet:
                raise AutomatonError(f"unknown label {label!r}")
            if not nfa.alphabet <= self.states:
                raise AutomatonError(
                    "horizontal language must be over the vertical state set"
                )

    @property
    def size(self) -> int:
        """|Q| + |Σ| + Σ sizes of the horizontal NFAs (paper's measure)."""
        return (
            len(self.states)
            + len(self.alphabet)
            + sum(nfa.size for nfa in self.horizontal.values())
        )

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def run(self, tree: Tree) -> dict[Path, frozenset[State]]:
        """``δ*`` at every node: the possible states of each subtree."""
        result: dict[Path, frozenset[State]] = {}
        for path in tree.postorder():
            node = tree.subtree(path)
            child_sets = [result[path + (i,)] for i in range(len(node.children))]
            possible: set[State] = set()
            for state in self.states:
                nfa = self.horizontal.get((state, node.label))
                if nfa is None:
                    continue
                if _word_of_sets_intersects(nfa, child_sets):
                    possible.add(state)
            result[path] = frozenset(possible)
        return result

    def states_of(self, tree: Tree) -> frozenset[State]:
        """``δ*(t)``: the possible root states."""
        return self.run(tree)[()]

    def accepts(self, tree: Tree) -> bool:
        """``δ*(t) ∩ F ≠ ∅``."""
        return bool(self.states_of(tree) & self.accepting)

    # ------------------------------------------------------------------
    # Lemma 5.2: PTIME non-emptiness
    # ------------------------------------------------------------------

    def reachable_states(self) -> frozenset[State]:
        """States ``q`` with ``q ∈ δ*(t)`` for some tree (the ``R`` fixpoint)."""
        return frozenset(self._reachable_with_witnesses())

    def _reachable_with_witnesses(self) -> dict[State, Tree]:
        """The Lemma 5.2 fixpoint, remembering a witness tree per state."""
        witnesses: dict[State, Tree] = {}
        changed = True
        while changed:
            changed = False
            for state in self.states:
                if state in witnesses:
                    continue
                for label in self.alphabet:
                    nfa = self.horizontal.get((state, label))
                    if nfa is None:
                        continue
                    word = _shortest_word_over(nfa, witnesses.keys())
                    if word is None:
                        continue
                    witnesses[state] = Tree(label, [witnesses[q] for q in word])
                    changed = True
                    break
        return witnesses

    def is_empty(self) -> bool:
        """Is ``L(B)`` empty?  Polynomial time (Lemma 5.2)."""
        return not (self.reachable_states() & self.accepting)

    def witness(self) -> Tree | None:
        """Some accepted tree, or ``None`` when the language is empty."""
        witnesses = self._reachable_with_witnesses()
        for state in self.accepting:
            if state in witnesses:
                return witnesses[state]
        return None

    # ------------------------------------------------------------------
    # Boolean operations / relabeling
    # ------------------------------------------------------------------

    def intersection(self, other: "UnrankedTreeAutomaton") -> "UnrankedTreeAutomaton":
        """Product automaton for the intersection."""
        return _product(self, other, accept_both=True)

    def union(self, other: "UnrankedTreeAutomaton") -> "UnrankedTreeAutomaton":
        """Disjoint-union automaton for the union."""
        if self.alphabet != other.alphabet:
            raise AutomatonError("union requires identical alphabets")

        def tag(which: int, state: State) -> State:
            return (which, state)

        states = frozenset(tag(0, q) for q in self.states) | frozenset(
            tag(1, q) for q in other.states
        )
        horizontal: dict[tuple[State, Label], NFA] = {}
        for which, automaton in ((0, self), (1, other)):
            for (state, label), nfa in automaton.horizontal.items():
                horizontal[(tag(which, state), label)] = _relabel_nfa(
                    nfa, lambda q, w=which: tag(w, q), states
                )
        accepting = frozenset(tag(0, q) for q in self.accepting) | frozenset(
            tag(1, q) for q in other.accepting
        )
        return UnrankedTreeAutomaton(states, self.alphabet, accepting, horizontal)

    def trimmed(self) -> "UnrankedTreeAutomaton":
        """Restrict to *useful* vertical states (reachable and co-reachable).

        A state is reachable when some tree realizes it (the Lemma 5.2
        fixpoint) and co-reachable when some context can extend it to an
        accepted tree.  Trimming dramatically shrinks the profile spaces of
        the BMW determinization, keeping the MSO compiler tractable.
        Horizontal NFAs are trimmed to their live parts as well.
        """
        reachable = self.reachable_states()
        # Co-reachability fixpoint: a state is useful if it can appear as a
        # letter of an accepted horizontal word of a useful parent state
        # (with the siblings all reachable), or is accepting itself.
        useful: set[State] = set(self.accepting & reachable)
        changed = True
        while changed:
            changed = False
            for (parent, _label), nfa in self.horizontal.items():
                if parent not in useful:
                    continue
                for symbol in _live_symbols(nfa, reachable):
                    if symbol not in useful and symbol in reachable:
                        useful.add(symbol)
                        changed = True
        horizontal: dict[tuple[State, Label], NFA] = {}
        for (parent, label), nfa in self.horizontal.items():
            if parent not in useful:
                continue
            restricted = _restrict_nfa(nfa, frozenset(useful))
            if restricted is not None:
                horizontal[(parent, label)] = restricted
        return UnrankedTreeAutomaton(
            frozenset(useful),
            self.alphabet,
            self.accepting & frozenset(useful),
            horizontal,
        )

    def relabel(
        self, mapping: dict[Label, Label]
    ) -> "UnrankedTreeAutomaton":
        """Image under an alphabet homomorphism (projection of tracks).

        The new automaton accepts ``h(t)`` for every accepted ``t``; its
        horizontal language for ``(q, b)`` is the union over the preimages
        of ``b``.
        """
        new_alphabet = frozenset(mapping.values())
        merged: dict[tuple[State, Label], NFA] = {}
        for (state, label), nfa in self.horizontal.items():
            key = (state, mapping[label])
            if key in merged:
                merged[key] = union_nfa(merged[key], nfa)
            else:
                merged[key] = nfa
        return UnrankedTreeAutomaton(
            self.states, new_alphabet, self.accepting, merged
        )


def _relabel_nfa(nfa: NFA, mapping, new_alphabet: frozenset[State]) -> NFA:
    """Rename the alphabet symbols of an NFA (injective mapping)."""
    from ..strings.nfa import EPSILON

    transitions = {}
    for (source, symbol), targets in nfa.transitions.items():
        key_symbol = symbol if symbol is EPSILON else mapping(symbol)
        transitions[(source, key_symbol)] = targets
    return NFA(
        nfa.states, new_alphabet, transitions, nfa.initials, nfa.accepting
    )


def _product(
    left: UnrankedTreeAutomaton,
    right: UnrankedTreeAutomaton,
    accept_both: bool,
) -> UnrankedTreeAutomaton:
    if left.alphabet != right.alphabet:
        raise AutomatonError("product requires identical alphabets")
    states = frozenset(
        (p, q) for p in left.states for q in right.states
    )
    horizontal: dict[tuple[State, Label], NFA] = {}
    for p in left.states:
        for q in right.states:
            for label in left.alphabet:
                left_nfa = left.horizontal.get((p, label))
                right_nfa = right.horizontal.get((q, label))
                if left_nfa is None or right_nfa is None:
                    continue
                horizontal[((p, q), label)] = _pair_word_intersection(
                    left_nfa, right_nfa, states
                )
    accepting = frozenset(
        (p, q)
        for p in left.states
        for q in right.states
        if p in left.accepting and q in right.accepting
    )
    return UnrankedTreeAutomaton(states, left.alphabet, accepting, horizontal)


def _pair_word_intersection(
    left_nfa: NFA, right_nfa: NFA, pair_alphabet: frozenset
) -> NFA:
    """NFA over pair states accepting ``(p_1,q_1)..(p_n,q_n)`` with both
    projections accepted by the respective horizontal NFAs."""
    from ..strings.nfa import EPSILON

    def lift(nfa: NFA, project) -> NFA:
        transitions: dict[tuple, frozenset] = {}
        for (source, symbol), targets in nfa.transitions.items():
            if symbol is EPSILON:
                transitions[(source, EPSILON)] = targets
                continue
            for pair in pair_alphabet:
                if project(pair) == symbol:
                    key = (source, pair)
                    transitions[key] = transitions.get(key, frozenset()) | targets
        return NFA(nfa.states, pair_alphabet, transitions, nfa.initials, nfa.accepting)

    return intersection_nfa(
        lift(left_nfa, lambda pair: pair[0]),
        lift(right_nfa, lambda pair: pair[1]),
    )


def _live_symbols(nfa: NFA, allowed: frozenset[State]) -> frozenset[State]:
    """Symbols (⊆ allowed) occurring on some accepting path of the NFA
    restricted to the allowed alphabet."""
    from ..strings.nfa import EPSILON

    # Forward-reachable NFA states under allowed symbols.
    forward = set(nfa.epsilon_closure(nfa.initials))
    frontier = list(forward)
    while frontier:
        state = frontier.pop()
        for symbol in list(allowed) + [EPSILON]:
            for target in nfa.transitions.get((state, symbol), ()):
                if target not in forward:
                    forward.add(target)
                    frontier.append(target)
    # Backward-reachable from accepting states.
    inverse: dict[State, set[tuple[State, State]]] = {}
    for (source, symbol), targets in nfa.transitions.items():
        if symbol is not EPSILON and symbol not in allowed:
            continue
        for target in targets:
            inverse.setdefault(target, set()).add((source, symbol))
    backward = set(nfa.accepting)
    frontier = list(backward)
    while frontier:
        state = frontier.pop()
        for source, _symbol in inverse.get(state, ()):
            if source not in backward:
                backward.add(source)
                frontier.append(source)
    live = forward & backward
    symbols: set[State] = set()
    for (source, symbol), targets in nfa.transitions.items():
        if symbol is EPSILON or symbol not in allowed or source not in live:
            continue
        if targets & live:
            symbols.add(symbol)
    return frozenset(symbols)


def _restrict_nfa(nfa: NFA, allowed: frozenset[State]) -> NFA | None:
    """The NFA with non-allowed alphabet symbols removed and dead states
    trimmed; ``None`` when the restricted language is empty."""
    from ..strings.nfa import EPSILON

    transitions = {
        key: targets
        for key, targets in nfa.transitions.items()
        if key[1] is EPSILON or key[1] in allowed
    }
    restricted = NFA(
        nfa.states, allowed, transitions, nfa.initials, nfa.accepting
    ).trimmed()
    if restricted.is_empty():
        return None
    return restricted


def _word_of_sets_intersects(
    nfa: NFA, child_sets: list[frozenset[State]]
) -> bool:
    """Is some word ``q_1..q_n`` with ``q_i ∈ child_sets[i]`` accepted?

    Runs on the bitset kernel: the frontier is a Python-int mask advanced
    by the precomputed (ε-closed) per-symbol successor rows of the cached
    :class:`~repro.perf.bitset.PackedNFA`.
    """
    from ..perf.bitset import iter_bits

    packed = _packed_nfa(nfa)
    current = packed.initial_mask
    for options in child_sets:
        moved = 0
        for symbol in options:
            rows = packed.succ.get(symbol)
            if rows is None:
                continue
            for i in iter_bits(current):
                moved |= rows[i]
        current = moved
        if not current:
            return False
    return bool(current & packed.accepting_mask)


def _shortest_word_over(
    nfa: NFA, allowed: Iterable[State]
) -> tuple[State, ...] | None:
    """A shortest accepted word using only ``allowed`` symbols.

    Level-order BFS over bitset frontiers with *antichain* pruning: a
    frontier contained in an already-explored frontier can reach
    acceptance no sooner (reachability is monotone in the state set), so
    only ⊆-maximal frontiers are kept.  Level order preserves minimality
    of the returned word's length.
    """
    from .. import obs
    from ..perf.bitset import iter_bits

    packed = _packed_nfa(nfa)
    sink = obs.SINK
    sink.incr("antichain.searches")
    allowed_set = set(allowed)
    symbols = [
        symbol
        for symbol in packed.symbols
        if symbol in allowed_set and symbol in packed.succ
    ]
    rows = [packed.succ[symbol] for symbol in symbols]
    start = packed.initial_mask
    accepting = packed.accepting_mask
    if start & accepting:
        return ()
    antichain = [start]
    frontier: list[tuple[int, tuple]] = [(start, ())]
    while frontier:
        next_frontier: list[tuple[int, tuple]] = []
        for mask, word in frontier:
            for symbol, row in zip(symbols, rows):
                target = 0
                for i in iter_bits(mask):
                    target |= row[i]
                if not target:
                    continue
                if target & accepting:
                    return word + (symbol,)
                if any(target & ~seen == 0 for seen in antichain):
                    sink.incr("antichain.prunes")
                    continue
                antichain = [seen for seen in antichain if seen & ~target != 0]
                antichain.append(target)
                if sink.enabled:
                    sink.incr("antichain.expansions")
                    sink.gauge_max("antichain.max_size", len(antichain))
                next_frontier.append((target, word + (symbol,)))
        frontier = next_frontier
    return None
