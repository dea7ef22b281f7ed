"""Bottom-up tree automata over unranked trees (Definition 5.1).

A nondeterministic bottom-up unranked tree automaton (NBTA^u) assigns
states to nodes leaf-to-root; a node may take state ``q`` when the word of
its children's states belongs to the *horizontal language* ``δ(q, a)``,
a regular language over the state set represented here by an NFA.

This is the Brüggemann-Klein–Murata–Wood model the paper builds on; we
provide the full toolkit the later sections need:

* :meth:`UnrankedTreeAutomaton.reachable_states` /
  :meth:`~UnrankedTreeAutomaton.is_empty` — the PTIME fixpoint of
  Lemma 5.2, with witness-tree extraction (states, labels and accepting
  states are tried in ``repr`` order, so the witness does not depend on
  the interpreter's hash seed);
* :meth:`~UnrankedTreeAutomaton.intersection` — the product, built
  bottom-up: a pair state exists only once some tree reaches it, each
  pair's horizontal automaton runs over the pair states reached so far,
  and the result comes back trim;
* union, :meth:`~UnrankedTreeAutomaton.trimmed`, homomorphic relabeling
  (the projection step of the MSO compiler);
* :meth:`~UnrankedTreeAutomaton.run` — the inductive semantics ``δ*``.

Horizontal NFAs are packed to bitsets (:class:`~repro.perf.bitset.PackedNFA`)
once per call that needs them; no packing outlives the call.
Determinization lives in :mod:`repro.unranked.dbta`.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass

from ..strings.dfa import AutomatonError
from ..strings.nfa import EPSILON, NFA, union_nfa
from ..trees.tree import Path, Tree

State = Hashable
Label = Hashable


def _packer():
    """A per-call ``nfa -> PackedNFA`` memo (imported lazily: ``repro.perf``
    imports this module)."""
    from ..perf.bitset import PackedNFA

    packed: dict[int, PackedNFA] = {}

    def pack(nfa: NFA) -> PackedNFA:
        entry = packed.get(id(nfa))
        if entry is None:
            entry = packed[id(nfa)] = PackedNFA(nfa)
        return entry

    return pack


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
        pack = _packer()
        result: dict[Path, frozenset[State]] = {}
        for path in tree.postorder():
            node = tree.subtree(path)
            child_sets = [result[path + (i,)] for i in range(len(node.children))]
            possible: set[State] = set()
            for state in self.states:
                nfa = self.horizontal.get((state, node.label))
                if nfa is None:
                    continue
                if _word_of_sets_intersects(pack(nfa), child_sets):
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
        """The Lemma 5.2 fixpoint, remembering a witness tree per state.

        States and labels are tried in ``repr`` order, so the witnesses
        do not depend on set iteration (the hash seed).
        """
        pack = _packer()
        states = sorted(self.states, key=repr)
        labels = sorted(self.alphabet, key=repr)
        witnesses: dict[State, Tree] = {}
        changed = True
        while changed:
            changed = False
            for state in states:
                if state in witnesses:
                    continue
                for label in labels:
                    nfa = self.horizontal.get((state, label))
                    if nfa is None:
                        continue
                    word = _shortest_word_over(pack(nfa), witnesses.keys())
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
        for state in sorted(self.accepting, key=repr):
            if state in witnesses:
                return witnesses[state]
        return None

    # ------------------------------------------------------------------
    # Boolean operations / relabeling
    # ------------------------------------------------------------------

    def intersection(self, other: "UnrankedTreeAutomaton") -> "UnrankedTreeAutomaton":
        """Product automaton for the intersection, already trim.

        Pair states ``(p, q)`` are created bottom-up, only once some tree
        reaches them, and kept only when some accepted tree uses them; see
        :func:`_product`.  ``.trimmed()`` of the result is the result.
        """
        return _product(self, other)

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
        Idempotent: a trim automaton comes back unchanged.
        """
        reachable = self.reachable_states()
        by_parent: dict[State, list[NFA]] = {}
        for (parent, _label), nfa in self.horizontal.items():
            if parent in reachable:
                by_parent.setdefault(parent, []).append(nfa)
        # Co-reachability: a state is useful if it is accepting, or a live
        # letter of (an accepted horizontal word over reachable states of)
        # a useful parent.  One backward pass per NFA.
        useful = _closure(
            self.accepting & reachable,
            lambda parent: [
                symbol
                for nfa in by_parent.get(parent, ())
                for symbol in _live_symbols(nfa, reachable)
            ],
        )
        horizontal: dict[tuple[State, Label], NFA] = {}
        for (parent, label), nfa in self.horizontal.items():
            if parent not in useful:
                continue
            restricted = _restrict_nfa(nfa, useful)
            if restricted is not None:
                horizontal[(parent, label)] = restricted
        return UnrankedTreeAutomaton(
            useful, self.alphabet, self.accepting & useful, horizontal
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
    transitions = {}
    for (source, symbol), targets in nfa.transitions.items():
        key_symbol = symbol if symbol is EPSILON else mapping(symbol)
        transitions[(source, key_symbol)] = targets
    return NFA(
        nfa.states, new_alphabet, transitions, nfa.initials, nfa.accepting
    )


def _closure(seeds: Iterable[State], successors) -> frozenset[State]:
    """Everything reachable from ``seeds`` through ``successors(state)``."""
    found = set(seeds)
    stack = list(found)
    while stack:
        for successor in successors(stack.pop()):
            if successor not in found:
                found.add(successor)
                stack.append(successor)
    return frozenset(found)


# ----------------------------------------------------------------------
# The product, bottom-up from reachable pair states
# ----------------------------------------------------------------------


def _operands(automaton: UnrankedTreeAutomaton) -> dict[Label, list[tuple]]:
    """Per label, ``(state, structure, accepting)`` for each horizontal NFA.

    A *structure* is ``(initials, out)`` with ``out[h][symbol]`` the
    successor set of NFA state ``h``.  An NFA with ε-moves is determinized
    first (without the empty dead subset); its accepting set is then the
    subsets meeting the NFA's accepting states.  NFAs with equal
    transition tables and initial sets share one structure, so every
    distinct operand is determinized and packed once per product.
    """
    structures: dict[tuple, tuple] = {}
    by_label: dict[Label, list[tuple]] = {}
    for (state, label), nfa in automaton.horizontal.items():
        key = (frozenset(nfa.transitions.items()), nfa.initials)
        packed = structures.get(key)
        if packed is None:
            packed = structures[key] = _packed_structure(nfa)
        structure, subsets = packed
        if subsets is None:
            accepting = nfa.accepting
        else:
            accepting = frozenset(s for s in subsets if s & nfa.accepting)
        by_label.setdefault(label, []).append((state, structure, accepting))
    return by_label


def _packed_structure(nfa: NFA) -> tuple:
    """``((initials, out), subsets)``: ``subsets`` lists the determinized
    states when the NFA had ε-moves, else it is ``None``."""
    out: dict[State, dict] = {}
    if not any(symbol is EPSILON for _source, symbol in nfa.transitions):
        for (source, symbol), targets in nfa.transitions.items():
            if targets:
                out.setdefault(source, {})[symbol] = targets
        return (nfa.initials, out), None
    dfa = nfa.determinized()
    dead = frozenset()
    for (source, symbol), target in dfa.transitions.items():
        if source != dead and target != dead:
            out.setdefault(source, {})[symbol] = frozenset({target})
    initials = frozenset() if dfa.initial == dead else frozenset({dfa.initial})
    return (initials, out), dfa.states


class _Run:
    """The product of two operand structures, explored over the pair
    letters reached so far.  Candidates ``(p, q, label, lacc, racc, run)``
    with the same pair of structures share one run and differ only in
    their accepting states."""

    __slots__ = ("left", "right", "initials", "seen", "edges", "pending")

    def __init__(self, left: tuple, right: tuple) -> None:
        self.left = left[1]
        self.right = right[1]
        self.initials = frozenset((a, b) for a in left[0] for b in right[0])
        self.seen: set[tuple] = set()
        self.edges: dict[tuple, list[tuple]] = {}
        self.pending: list[tuple] = []


def _product(
    left: UnrankedTreeAutomaton, right: UnrankedTreeAutomaton
) -> UnrankedTreeAutomaton:
    """The trim product automaton for ``L(left) ∩ L(right)``.

    Bottom-up worklist: a pair state ``(p, q)`` is created once, for some
    label ``a``, the horizontal languages ``δ(p, a)`` and ``δ(q, a)``
    share a word over pair states that already exist; every
    ``(pair, label)`` product NFA is explored on the fly over exactly
    those letters (each pair letter is joined once with each product
    state that can read its left half).  Co-reachability then takes one
    backward pass per kept NFA, and the result is restricted to the
    useful pair states: the eager ``|L|·|R|`` product followed by
    :meth:`~UnrankedTreeAutomaton.trimmed`, without building the rest.
    """
    if left.alphabet != right.alphabet:
        raise AutomatonError("product requires identical alphabets")
    left_ops, right_ops = _operands(left), _operands(right)
    runs: dict[tuple[int, int], _Run] = {}
    candidates: list[tuple] = []
    stack: list[tuple] = []  # (run, product NFA state) to expand
    for label, lefts in left_ops.items():
        for q, right_structure, racc in right_ops.get(label, ()):
            for p, left_structure, lacc in lefts:
                key = (id(left_structure), id(right_structure))
                run = runs.get(key)
                if run is None:
                    run = runs[key] = _Run(left_structure, right_structure)
                    run.seen.update(run.initials)
                    stack.extend((run, start) for start in run.initials)
                candidate = (p, q, label, lacc, racc, run)
                run.pending.append(candidate)
                candidates.append(candidate)

    pairs: set[tuple] = set()
    new_pairs: list[tuple] = []
    right_halves: dict[State, list[State]] = {}  # p -> q of reached (p, q)
    waiting: dict[State, list[tuple]] = {}  # p -> expanded states reading p

    def add_edge(run, source, letter, left_targets, right_targets) -> None:
        targets = [(a, b) for a in left_targets for b in right_targets]
        run.edges.setdefault(source, []).append((letter, targets))
        for target in targets:
            if target not in run.seen:
                run.seen.add(target)
                stack.append((run, target))

    while stack or new_pairs:
        if stack:
            run, state = stack.pop()
            a, b = state
            if run.pending:
                still = []
                for candidate in run.pending:
                    pair = candidate[:2]
                    if pair in pairs:
                        continue
                    if a in candidate[3] and b in candidate[4]:
                        pairs.add(pair)
                        new_pairs.append(pair)
                    else:
                        still.append(candidate)
                run.pending = still
            right_out = run.right.get(b, {})
            for p, left_targets in run.left.get(a, {}).items():
                waiting.setdefault(p, []).append((run, state))
                for q in right_halves.get(p, ()):
                    right_targets = right_out.get(q)
                    if right_targets:
                        add_edge(run, state, (p, q), left_targets, right_targets)
        else:
            p, q = pair = new_pairs.pop()
            right_halves.setdefault(p, []).append(q)
            for run, state in waiting.get(p, ()):
                right_targets = run.right.get(state[1], {}).get(q)
                if right_targets:
                    add_edge(run, state, pair, run.left[state[0]][p], right_targets)

    # Keep, per reached pair, the candidates whose product NFA accepts.
    kept: dict[tuple, list[tuple]] = {}
    for p, q, label, lacc, racc, run in candidates:
        if (p, q) not in pairs:
            continue
        accepting = frozenset(s for s in run.seen if s[0] in lacc and s[1] in racc)
        if accepting:
            kept.setdefault((p, q), []).append((label, run, accepting))

    reverse: dict[int, dict] = {}

    def live_letters(pair: tuple) -> list[tuple]:
        letters: list[tuple] = []
        for _label, run, accepting in kept.get(pair, ()):
            inverse = reverse.get(id(run))
            if inverse is None:
                inverse = reverse[id(run)] = {}
                for source, moves in run.edges.items():
                    for letter, targets in moves:
                        for target in targets:
                            inverse.setdefault(target, []).append((source, letter))
            seen = set(accepting)
            frontier = list(accepting)
            while frontier:
                for source, letter in inverse.get(frontier.pop(), ()):
                    letters.append(letter)
                    if source not in seen:
                        seen.add(source)
                        frontier.append(source)
        return letters

    final = frozenset(
        pair
        for pair in pairs
        if pair[0] in left.accepting and pair[1] in right.accepting
    )
    useful = _closure(final, live_letters)

    # Each run restricted to useful letters and trimmed forward once; the
    # NFAs of its candidates share the transition table.
    trimmed_runs: dict[int, tuple] = {}
    horizontal: dict[tuple[State, Label], NFA] = {}
    for pair in useful:
        for label, run, accepting in kept[pair]:
            shared = trimmed_runs.get(id(run))
            if shared is None:
                states = _closure(
                    run.initials,
                    lambda source, run=run: [
                        target
                        for letter, targets in run.edges.get(source, ())
                        if letter in useful
                        for target in targets
                    ],
                )
                transitions = {
                    (source, letter): frozenset(targets)
                    for source in states
                    for letter, targets in run.edges.get(source, ())
                    if letter in useful
                }
                shared = trimmed_runs[id(run)] = (states, transitions)
            states, transitions = shared
            horizontal[(pair, label)] = NFA(
                states, useful, transitions, run.initials, accepting & states
            )
    return UnrankedTreeAutomaton(useful, left.alphabet, final, horizontal)


def _live_symbols(nfa: NFA, allowed: frozenset[State]) -> frozenset[State]:
    """Symbols (⊆ allowed) occurring on some accepting path of the NFA
    restricted to the allowed alphabet."""
    moves: dict[State, list[tuple]] = {}
    inverse: dict[State, list[State]] = {}
    for (source, symbol), targets in nfa.transitions.items():
        if symbol is not EPSILON and symbol not in allowed:
            continue
        moves.setdefault(source, []).append((symbol, targets))
        for target in targets:
            inverse.setdefault(target, []).append(source)
    forward = _closure(
        nfa.initials,
        lambda state: [t for _symbol, ts in moves.get(state, ()) for t in ts],
    )
    backward = _closure(nfa.accepting, lambda state: inverse.get(state, ()))
    return frozenset(
        symbol
        for source in forward
        for symbol, targets in moves.get(source, ())
        if symbol is not EPSILON and not targets.isdisjoint(backward)
    )


def _restrict_nfa(nfa: NFA, allowed: frozenset[State]) -> NFA | None:
    """The NFA with non-allowed alphabet symbols removed and dead states
    trimmed; ``None`` when the restricted language is empty."""
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


def _word_of_sets_intersects(packed, child_sets: list[frozenset[State]]) -> bool:
    """Is some word ``q_1..q_n`` with ``q_i ∈ child_sets[i]`` accepted?

    Runs on the bitset kernel: the frontier is a Python-int mask advanced
    by the precomputed (ε-closed) per-symbol successor rows of the
    :class:`~repro.perf.bitset.PackedNFA`.
    """
    from ..perf.bitset import iter_bits

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


def _shortest_word_over(packed, allowed: Iterable[State]) -> tuple[State, ...] | None:
    """A shortest accepted word using only ``allowed`` symbols.

    Level-order BFS over bitset frontiers with *antichain* pruning: a
    frontier contained in an already-explored frontier can reach
    acceptance no sooner (reachability is monotone in the state set), so
    only ⊆-maximal frontiers are kept.  Level order preserves minimality
    of the returned word's length.
    """
    from .. import obs
    from ..perf.bitset import iter_bits

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
