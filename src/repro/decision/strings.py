"""Decision problems for QA^string: the Section 6 questions on strings.

The paper states non-emptiness/containment/equivalence for tree QAs; the
string case falls out of the same machinery and is implemented here
directly: the graph of a ``QA^string``'s query — the set of *marked
words* ``mark(w, i)`` with ``i ∈ A(w)`` — is regular, recognized by a
one-way NFA that guesses the Theorem 3.9 data ``(f⁻, first, Assumed)``
per position and verifies it locally (the construction behind
Proposition 6.2's bound).  Boolean operations on these regular languages
then decide everything, with witnesses.

States of the selection NFA: ``(f⁻, first, Assumed, cell, marked,
halted)`` — the behavior function and first-state are determined
left-to-right; the Assumed component is guessed and checked against the
next position; ``marked`` records whether the marked position has been
passed and whether it was visited in a selecting state; ``halted``
remembers the unique inner halting state, if already seen.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from .. import obs
from ..strings.dfa import DFA
from ..strings.nfa import NFA
from ..strings.twoway import (
    GeneralizedStringQA,
    LEFT_MARKER,
    RIGHT_MARKER,
    StringQueryAutomaton,
)
from .annotation import AnnotationNFA

State = Hashable

#: marked-position status: not seen / seen & selected / seen & not selected.
UNMARKED, SELECTED, UNSELECTED = 0, 1, 2


class StringSelectionNFA(AnnotationNFA):
    """Lazy NFA over ``Σ × {0,1}`` for the query graph of a QA^string."""

    def __init__(self, qa: StringQueryAutomaton) -> None:
        super().__init__(
            GeneralizedStringQA(qa.automaton, {}, frozenset())
        )
        self.qa = qa

    # -- helpers ---------------------------------------------------------

    def _halt_state(self, assumed: frozenset, cell) -> tuple[bool, State | None]:
        """(valid, halting state) among the assumed states at this cell."""
        halters = [
            state for state in assumed if self.automaton.move(state, cell) is None
        ]
        if len(halters) > 1:
            return False, None
        return True, (halters[0] if halters else None)

    def _assumed_options(self, frozen, first):
        if first is None:
            return [frozenset()]
        return self._assumed_candidates(frozen, first)

    def _consistent_chain(self, frozen, first, assumed, assumed_next, cell_next):
        if first is None:
            bucket = set()
        else:
            bucket = set(self._orbit(frozen, first))
        for later in assumed_next:
            if self.automaton.in_left(later, cell_next):
                entered = self.automaton.left_moves[(later, cell_next)]
                bucket.update(self._orbit(frozen, entered))
        return frozenset(bucket) == assumed

    # -- the NFA interface -------------------------------------------------

    def initial_states(self) -> frozenset[tuple]:
        """NFA start states: the ``⊳`` boundary data with guessed Assumed."""
        base = self._base_behavior()
        first = self.automaton.initial
        out = []
        for assumed in self._assumed_candidates(base, first):
            ok, halted = self._halt_state(assumed, LEFT_MARKER)
            if not ok:
                continue
            out.append((base, first, assumed, LEFT_MARKER, UNMARKED, halted))
        return frozenset(out)

    def step(self, state: tuple, letter: tuple) -> frozenset[tuple]:
        """Successors after one marked letter ``(σ, bit)``."""
        symbol, bit = letter
        frozen, first, assumed, cell, marked, halted = state
        if bit and marked != UNMARKED:
            return frozenset()
        extended = self._extend_behavior(frozen, cell, symbol)
        if first is None:
            first_next: State | None = None
        else:
            mover = self._right_state(frozen, first, cell)
            first_next = (
                None
                if mover is None
                else self.automaton.right_moves[(mover, cell)]
            )
        successors = []
        for assumed_next in self._assumed_options(extended, first_next):
            if not self._consistent_chain(
                frozen, first, assumed, assumed_next, symbol
            ):
                continue
            ok, new_halt = self._halt_state(assumed_next, symbol)
            if not ok:
                continue
            if new_halt is not None and halted is not None:
                continue  # a run halts exactly once
            combined_halt = halted if new_halt is None else new_halt
            if bit:
                selected = any(
                    (s, symbol) in self.qa.selecting for s in assumed_next
                )
                new_marked = SELECTED if selected else UNSELECTED
            else:
                new_marked = marked
            successors.append(
                (extended, first_next, assumed_next, symbol, new_marked, combined_halt)
            )
        return frozenset(successors)

    def accepting_status(self, state: tuple) -> tuple | None:
        """``(marked, halting_state)`` when the end-of-word data checks out."""
        frozen, first, assumed, cell, marked, halted = state
        extended = self._extend_behavior(frozen, cell, RIGHT_MARKER)
        if first is None:
            assumed_end: frozenset = frozenset()
        else:
            mover = self._right_state(frozen, first, cell)
            if mover is None:
                assumed_end = frozenset()
            else:
                first_end = self.automaton.right_moves[(mover, cell)]
                assumed_end = frozenset(self._orbit(extended, first_end))
        if not self._consistent_chain(
            frozen, first, assumed, assumed_end, RIGHT_MARKER
        ):
            return None
        ok, end_halt = self._halt_state(assumed_end, RIGHT_MARKER)
        if not ok:
            return None
        if end_halt is not None and halted is not None:
            return None
        final_halt = halted if end_halt is None else end_halt
        if final_halt is None:
            return None  # the run never halts: not a legal (halting) run
        return marked, final_halt

    # -- materialization ----------------------------------------------------

    def to_nfa(self, alphabet: Sequence) -> NFA:
        """The explicit NFA over ``Σ × {0,1}`` accepting the query graph."""
        letters = [(symbol, bit) for symbol in alphabet for bit in (0, 1)]
        initials = self.initial_states()
        states = set(initials)
        transitions: dict = {}
        frontier = list(initials)
        while frontier:
            source = frontier.pop()
            for letter in letters:
                targets = self.step(source, letter)
                if not targets:
                    continue
                transitions[(source, letter)] = targets
                for target in targets:
                    if target not in states:
                        states.add(target)
                        frontier.append(target)
        accepting = set()
        for state in states:
            status = self.accepting_status(state)
            if status is None:
                continue
            marked, halt = status
            if marked == SELECTED and halt in self.automaton.accepting:
                accepting.add(state)
        return NFA.build(
            states, frozenset(letters), transitions, initials, accepting
        )


def selection_language(qa: StringQueryAutomaton, alphabet: Sequence) -> DFA:
    """A DFA over ``Σ × {0,1}`` for ``{mark(w, i) : i ∈ A(w)}``."""
    return StringSelectionNFA(qa).to_nfa(alphabet).determinized().minimized()


def _decode_witness(word) -> tuple[list, int]:
    plain = [symbol for symbol, _bit in word]
    position = next(i + 1 for i, (_s, bit) in enumerate(word) if bit)
    return plain, position


def _marked_letters(alphabet: Sequence) -> list[tuple]:
    return [(symbol, bit) for symbol in alphabet for bit in (0, 1)]


def _frontier_step(snfa: StringSelectionNFA, frontier: frozenset, letter) -> frozenset:
    moved: set = set()
    for state in frontier:
        moved |= snfa.step(state, letter)
    return frozenset(moved)


def _frontier_accepts(snfa: StringSelectionNFA, frontier: frozenset) -> bool:
    for state in frontier:
        status = snfa.accepting_status(state)
        if status is None:
            continue
        marked, halt = status
        if marked == SELECTED and halt in snfa.automaton.accepting:
            return True
    return False


def string_query_witness(
    qa: StringQueryAutomaton, alphabet: Sequence
) -> tuple[list, int] | None:
    """Non-emptiness: some ``(w, i)`` with ``i ∈ A(w)``, or ``None``.

    Level-order BFS on the lazy selection NFA's subset frontiers with
    antichain pruning (a frontier contained in an explored frontier can
    reach acceptance no sooner), never materializing or determinizing the
    exponential NFA.
    """
    sink = obs.SINK
    sink.incr("antichain.searches")
    snfa = StringSelectionNFA(qa)
    letters = _marked_letters(alphabet)
    start = snfa.initial_states()
    antichain: list[frozenset] = [start]
    frontier: list[tuple[frozenset, tuple]] = [(start, ())]
    while frontier:
        next_frontier: list[tuple[frozenset, tuple]] = []
        for states, word in frontier:
            for letter in letters:
                target = _frontier_step(snfa, states, letter)
                if not target:
                    continue
                new_word = word + (letter,)
                if _frontier_accepts(snfa, target):
                    return _decode_witness(new_word)
                if any(target <= seen for seen in antichain):
                    sink.incr("antichain.prunes")
                    continue
                antichain = [
                    seen for seen in antichain if not seen <= target
                ]
                antichain.append(target)
                if sink.enabled:
                    sink.incr("antichain.expansions")
                    sink.gauge_max("antichain.max_size", len(antichain))
                next_frontier.append((target, new_word))
        frontier = next_frontier
    return None


def string_containment_counterexample(
    first: StringQueryAutomaton,
    second: StringQueryAutomaton,
    alphabet: Sequence,
) -> tuple[list, int] | None:
    """A ``(w, i)`` selected by ``first`` but not ``second`` (Thm 6.4 on strings).

    Antichain product search (De Wulf–Doyen–Raskin style): pairs
    ``(S₁, S₂)`` of subset frontiers, accepting when ``S₁`` accepts and
    ``S₂`` does not; a pair with smaller ``S₁`` and larger ``S₂`` than an
    explored pair is dominated and pruned.  Avoids determinizing and
    complementing the second query's exponential selection NFA.
    """
    sink = obs.SINK
    sink.incr("antichain.searches")
    left = StringSelectionNFA(first)
    right = StringSelectionNFA(second)
    letters = _marked_letters(alphabet)
    start = (left.initial_states(), right.initial_states())
    antichain: list[tuple[frozenset, frozenset]] = [start]
    frontier: list[tuple[tuple, tuple]] = [(start, ())]
    while frontier:
        next_frontier: list[tuple[tuple, tuple]] = []
        for (s1, s2), word in frontier:
            for letter in letters:
                t1 = _frontier_step(left, s1, letter)
                if not t1:
                    continue  # the first query can never select this word
                t2 = _frontier_step(right, s2, letter)
                new_word = word + (letter,)
                if _frontier_accepts(left, t1) and not _frontier_accepts(
                    right, t2
                ):
                    return _decode_witness(new_word)
                if any(
                    t1 <= a1 and a2 <= t2 for (a1, a2) in antichain
                ):
                    sink.incr("antichain.prunes")
                    continue
                antichain = [
                    (a1, a2)
                    for (a1, a2) in antichain
                    if not (a1 <= t1 and t2 <= a2)
                ]
                antichain.append((t1, t2))
                if sink.enabled:
                    sink.incr("antichain.expansions")
                    sink.gauge_max("antichain.max_size", len(antichain))
                next_frontier.append(((t1, t2), new_word))
        frontier = next_frontier
    return None


def string_queries_equivalent(
    first: StringQueryAutomaton,
    second: StringQueryAutomaton,
    alphabet: Sequence,
) -> bool:
    """Do two QA^string compute the same query?  Two antichain containments."""
    return (
        string_containment_counterexample(first, second, alphabet) is None
        and string_containment_counterexample(second, first, alphabet) is None
    )
