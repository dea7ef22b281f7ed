"""Doner–Thatcher–Wright for unranked trees: MSO → tree automata (Thm 5.4).

The tree analogue of :mod:`repro.logic.compile_strings`: formulas over the
tree vocabulary (``E``, sibling ``<``, labels) are compiled to
:class:`~repro.unranked.nbta.UnrankedTreeAutomaton` over the extended
alphabet ``Σ × {0,1}^k``, one bit track per free variable.  Negation goes
through the BMW determinization of :mod:`repro.unranked.dbta` — the
exponential step, exactly as in the paper's Theorem 5.4.

Because ranked trees are a special case of unranked ones, the same
compiler serves the ranked Theorem 2.8 (restrict inputs to bounded rank).

* :func:`compile_tree_sentence` — sentence → NBTA^u over Σ.
* :func:`compile_tree_query` — unary φ(x) → *deterministic* automaton over
  the marked alphabet ``(σ, 0) / (σ, 1)`` (the §6 marking device), the
  canonical query intermediate representation consumed by the Theorem 4.8
  and 5.17 constructions.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Hashable

from .. import obs
from ..strings.nfa import NFA
from ..strings.regex import Atom, Regex, Star, concat_all, to_nfa, union_all
from ..unranked.dbta import DeterministicUnrankedAutomaton, determinize
from ..unranked.nbta import UnrankedTreeAutomaton
from .compile_strings import CompilationError, check_compile_engine
from .syntax import (
    And,
    Descendant,
    Edge,
    Equal,
    Exists,
    ExistsSet,
    Forall,
    ForallSet,
    Formula,
    Implies,
    Label,
    Less,
    Member,
    Not,
    Or,
    Var,
)

Symbol = Hashable
Tracks = tuple


def extended_tree_alphabet(
    alphabet: frozenset[Symbol], tracks: Tracks
) -> frozenset[tuple]:
    """Letters ``(σ, bits)``, one bit per track."""
    letters: set[tuple] = set()

    def bit_vectors(length: int):
        if length == 0:
            yield ()
            return
        for rest in bit_vectors(length - 1):
            yield (0,) + rest
            yield (1,) + rest

    for sigma in alphabet:
        for bits in bit_vectors(len(tracks)):
            letters.add((sigma, bits))
    return frozenset(letters)


def _language(states: Sequence, expr: Regex) -> NFA:
    """Horizontal NFA over the given vertical states from a regex."""
    return to_nfa(expr, frozenset(states))


class _TreeCompiler:
    """Recursive MSO→NBTA^u compilation over the tree vocabulary.

    With ``optimize`` (the default), subformulas are hash-consed per
    (canonical key, track shape), validity automata are interned per
    track shape, and every determinization — the exponential step — is
    followed by the DBTA^u congruence-refinement minimizer of
    :mod:`repro.perf.minimize`.  ``optimize=False`` is the naive
    reference pipeline for the differential suite.
    """

    def __init__(self, alphabet: frozenset[Symbol], optimize: bool = True) -> None:
        self.alphabet = alphabet
        self.optimize = optimize
        self._memo: dict[tuple, UnrankedTreeAutomaton] = {}
        self._validity_memo: dict[tuple, UnrankedTreeAutomaton] = {}

    def _determinize(self, nbta: UnrankedTreeAutomaton):
        """BMW determinization, minimized when optimizing.

        The minimized quotient is relabeled to small integer states so
        chained stages never compound frozenset state-name depth (see
        :func:`repro.perf.minimize.canonical_relabeled_dbta`).
        """
        automaton = determinize(nbta)
        if not self.optimize:
            return automaton
        from ..perf.minimize import canonical_relabeled_dbta, minimize_dbta

        return canonical_relabeled_dbta(minimize_dbta(automaton))

    # -- validity -------------------------------------------------------

    def _validity_interned(self, tracks: Tracks) -> UnrankedTreeAutomaton:
        """``_validity`` interned per FO-track mask (cf. the string
        compiler's ``_validity_nfa`` cache), counted under
        ``compile.validity_hits`` / ``_misses``."""
        key = tuple(isinstance(variable, Var) for variable in tracks)
        sink = obs.SINK
        interned = self._validity_memo.get(key)
        if interned is not None:
            if sink.enabled:
                sink.incr("compile.validity_hits")
            return interned
        if sink.enabled:
            sink.incr("compile.validity_misses")
        built = self._validity(tracks)
        self._validity_memo[key] = built
        return built

    def _validity(self, tracks: Tracks) -> UnrankedTreeAutomaton:
        """Exactly one marked node per first-order track.

        Bottom-up: the state counts, per FO track, how many marks the
        subtree holds (0, 1, or "many" = dead).  Only the 0/1 product
        states are kept; overflow kills the run.
        """
        alphabet = extended_tree_alphabet(self.alphabet, tracks)
        fo_indices = [
            i for i, variable in enumerate(tracks) if isinstance(variable, Var)
        ]
        # Vertical states: tuples of counts (0/1), one entry per FO track.
        def tuples(length: int):
            if length == 0:
                yield ()
                return
            for rest in tuples(length - 1):
                yield (0,) + rest
                yield (1,) + rest

        states = frozenset(tuples(len(fo_indices)))
        horizontal: dict[tuple, NFA] = {}
        for letter in alphabet:
            _sigma, bits = letter
            own = tuple(bits[i] for i in fo_indices)
            for total in states:
                # Children contributions must sum with `own` to `total`
                # without exceeding 1 per component: the horizontal
                # language is a shuffle of at most one "1" per needed
                # component.  Encode as a regex over child state tuples.
                needed = []
                possible = True
                for o, t in zip(own, total):
                    if o > t:
                        possible = False
                        break
                    needed.append(t - o)
                if not possible:
                    continue
                horizontal[(total, letter)] = _counting_language(states, tuple(needed))
        accepting = frozenset({tuple(1 for _ in fo_indices)}) if fo_indices else states
        return UnrankedTreeAutomaton(states, alphabet, accepting, horizontal)

    # -- atoms ----------------------------------------------------------

    def _atom(self, formula: Formula, tracks: Tracks) -> UnrankedTreeAutomaton:
        alphabet = extended_tree_alphabet(self.alphabet, tracks)
        index = {variable: i for i, variable in enumerate(tracks)}

        if isinstance(formula, Label):
            return self._atom_label(alphabet, index[formula.var], formula.label)
        if isinstance(formula, Edge):
            return self._atom_edge(
                alphabet, index[formula.parent], index[formula.child]
            )
        if isinstance(formula, Descendant):
            return self._atom_descendant(
                alphabet, index[formula.ancestor], index[formula.descendant]
            )
        if isinstance(formula, Less):
            return self._atom_less(alphabet, index[formula.left], index[formula.right])
        if isinstance(formula, Equal):
            return self._atom_equal(alphabet, index[formula.left], index[formula.right])
        if isinstance(formula, Member):
            return self._atom_member(
                alphabet, index[formula.var], index[formula.set_var]
            )
        raise CompilationError(f"not an atom: {formula!r}")

    def _atom_label(self, alphabet, i: int, label: Symbol) -> UnrankedTreeAutomaton:
        """The x-marked node carries the label.  States: c (no mark), d (done)."""
        states = frozenset({"c", "d"})
        horizontal: dict[tuple, NFA] = {}
        for letter in alphabet:
            sigma, bits = letter
            if bits[i]:
                if sigma == label:
                    horizontal[("d", letter)] = _language(states, Star(Atom("c")))
            else:
                horizontal[("c", letter)] = _language(states, Star(Atom("c")))
                horizontal[("d", letter)] = _language(
                    states, _one_of(("d",), padding="c")
                )
        return UnrankedTreeAutomaton(states, alphabet, frozenset({"d"}), horizontal)

    def _atom_edge(self, alphabet, i: int, j: int) -> UnrankedTreeAutomaton:
        """``E(x, y)``: the y-marked node is a child of the x-marked node.

        States: c (no relevant mark), y (root is the y-marked node),
        d (edge established).
        """
        states = frozenset({"c", "y", "d"})
        horizontal: dict[tuple, NFA] = {}
        for letter in alphabet:
            _sigma, bits = letter
            x_bit, y_bit = bits[i], bits[j]
            if x_bit and y_bit:
                continue  # x = y cannot satisfy E(x, y)
            if x_bit:
                horizontal[("d", letter)] = _language(states, _one_of(("y",), "c"))
            elif y_bit:
                horizontal[("y", letter)] = _language(states, Star(Atom("c")))
            else:
                horizontal[("c", letter)] = _language(states, Star(Atom("c")))
                horizontal[("d", letter)] = _language(states, _one_of(("d",), "c"))
                # an unmatched y under a non-x parent dies (no transition)
        return UnrankedTreeAutomaton(states, alphabet, frozenset({"d"}), horizontal)

    def _atom_descendant(self, alphabet, i: int, j: int) -> UnrankedTreeAutomaton:
        """``Desc(x, y)``: the y-marked node is a proper descendant of the
        x-marked node.

        States: c (no relevant mark below), y (the y-mark is in the
        subtree, the x-mark not yet above it), d (established).
        """
        states = frozenset({"c", "y", "d"})
        horizontal: dict[tuple, NFA] = {}
        for letter in alphabet:
            _sigma, bits = letter
            x_bit, y_bit = bits[i], bits[j]
            if x_bit and y_bit:
                continue  # x = y is not a proper descendant
            if x_bit:
                # x's subtree must contain the pending y-mark.
                horizontal[("d", letter)] = _language(states, _one_of(("y",), "c"))
            elif y_bit:
                horizontal[("y", letter)] = _language(states, Star(Atom("c")))
            else:
                horizontal[("c", letter)] = _language(states, Star(Atom("c")))
                # the y-mark bubbles up through unmarked ancestors ...
                horizontal[("y", letter)] = _language(states, _one_of(("y",), "c"))
                # ... and once matched, d bubbles to the root.
                horizontal[("d", letter)] = _language(states, _one_of(("d",), "c"))
        return UnrankedTreeAutomaton(states, alphabet, frozenset({"d"}), horizontal)

    def _atom_less(self, alphabet, i: int, j: int) -> UnrankedTreeAutomaton:
        """Sibling order: x and y are children of one node, x before y.

        States: c, x (root x-marked), y (root y-marked), d (established).
        """
        states = frozenset({"c", "x", "y", "d"})
        horizontal: dict[tuple, NFA] = {}
        for letter in alphabet:
            _sigma, bits = letter
            x_bit, y_bit = bits[i], bits[j]
            if x_bit and y_bit:
                continue  # same node: not <
            if x_bit:
                horizontal[("x", letter)] = _language(states, Star(Atom("c")))
            elif y_bit:
                horizontal[("y", letter)] = _language(states, Star(Atom("c")))
            else:
                horizontal[("c", letter)] = _language(states, Star(Atom("c")))
                horizontal[("d", letter)] = _language(
                    states,
                    union_all(
                        _one_of(("d",), "c"),
                        concat_all(
                            Star(Atom("c")),
                            Atom("x"),
                            Star(Atom("c")),
                            Atom("y"),
                            Star(Atom("c")),
                        ),
                    ),
                )
        return UnrankedTreeAutomaton(states, alphabet, frozenset({"d"}), horizontal)

    def _atom_equal(self, alphabet, i: int, j: int) -> UnrankedTreeAutomaton:
        """``x = y``: the two marks coincide."""
        states = frozenset({"c", "d"})
        horizontal: dict[tuple, NFA] = {}
        for letter in alphabet:
            _sigma, bits = letter
            if bits[i] != bits[j]:
                continue
            if bits[i]:
                horizontal[("d", letter)] = _language(states, Star(Atom("c")))
            else:
                horizontal[("c", letter)] = _language(states, Star(Atom("c")))
                horizontal[("d", letter)] = _language(states, _one_of(("d",), "c"))
        return UnrankedTreeAutomaton(states, alphabet, frozenset({"d"}), horizontal)

    def _atom_member(self, alphabet, i: int, j: int) -> UnrankedTreeAutomaton:
        """``X(x)``: the x-marked node carries a 1 in the X track."""
        states = frozenset({"c", "d"})
        horizontal: dict[tuple, NFA] = {}
        for letter in alphabet:
            _sigma, bits = letter
            if bits[i]:
                if bits[j]:
                    horizontal[("d", letter)] = _language(states, Star(Atom("c")))
            else:
                horizontal[("c", letter)] = _language(states, Star(Atom("c")))
                horizontal[("d", letter)] = _language(states, _one_of(("d",), "c"))
        return UnrankedTreeAutomaton(states, alphabet, frozenset({"d"}), horizontal)

    # -- recursion -------------------------------------------------------

    def compile(self, formula: Formula, tracks: Tracks) -> UnrankedTreeAutomaton:
        """NBTA^u over the extended alphabet; FO-track validity enforced.

        When optimizing, results are hash-consed per (canonical formula
        key, track shape), so α-equivalent subformulas compile once.
        """
        if isinstance(formula, Implies):
            return self.compile(Or(Not(formula.left), formula.right), tracks)
        if isinstance(formula, Forall):
            return self.compile(
                Not(Exists(formula.var, Not(formula.inner))), tracks
            )
        if isinstance(formula, ForallSet):
            return self.compile(
                Not(ExistsSet(formula.set_var, Not(formula.inner))), tracks
            )
        if not self.optimize:
            return self._compile(formula, tracks)
        from ..perf.compile import canonical_key

        key = (
            canonical_key(formula, tracks),
            tuple(isinstance(variable, Var) for variable in tracks),
        )
        sink = obs.SINK
        memoized = self._memo.get(key)
        if memoized is not None:
            if sink.enabled:
                sink.incr("compile.subformula_hits")
            return memoized
        if sink.enabled:
            sink.incr("compile.subformula_misses")
        result = self._compile(formula, tracks)
        self._memo[key] = result
        return result

    def _compile(self, formula: Formula, tracks: Tracks) -> UnrankedTreeAutomaton:
        """One connective's construction (recursion re-enters ``compile``)."""
        if isinstance(formula, (Label, Edge, Descendant, Less, Equal, Member)):
            return self._atom(formula, tracks).intersection(
                self._validity_interned(tracks)
            )

        if isinstance(formula, Not):
            inner = self._determinize(self.compile(formula.inner, tracks))
            return (
                inner.complement()
                .to_nbta()
                .intersection(self._validity_interned(tracks))
            )

        if isinstance(formula, And):
            return self.compile(formula.left, tracks).intersection(
                self.compile(formula.right, tracks)
            )

        if isinstance(formula, Or):
            return (
                self.compile(formula.left, tracks)
                .union(self.compile(formula.right, tracks))
                .trimmed()
            )

        if isinstance(formula, Implies):
            return self.compile(Or(Not(formula.left), formula.right), tracks)

        if isinstance(formula, (Exists, ExistsSet)):
            variable = formula.var if isinstance(formula, Exists) else formula.set_var
            if variable in tracks:
                raise CompilationError(f"variable {variable!r} shadowed")
            inner = self.compile(formula.inner, tracks + (variable,))
            mapping = {
                (sigma, bits): (sigma, bits[:-1]) for (sigma, bits) in inner.alphabet
            }
            return inner.relabel(mapping).trimmed()

        if isinstance(formula, Forall):
            return self.compile(Not(Exists(formula.var, Not(formula.inner))), tracks)

        if isinstance(formula, ForallSet):
            return self.compile(
                Not(ExistsSet(formula.set_var, Not(formula.inner))), tracks
            )

        raise CompilationError(f"unknown formula node {formula!r}")


def _one_of(symbols: tuple, padding) -> Regex:
    """``padding* s padding*`` summed over the given symbols."""
    return union_all(
        *(
            concat_all(Star(Atom(padding)), Atom(symbol), Star(Atom(padding)))
            for symbol in symbols
        )
    )


def _counting_language(states: frozenset, needed: tuple) -> NFA:
    """Children words whose component-wise mark counts equal ``needed``.

    Child letters are count tuples; a letter may contribute at most what is
    still needed in each component.  Implemented as a DFA whose states are
    the remaining-needs tuples, then viewed as an NFA.
    """
    def sub(remaining: tuple, letter: tuple) -> tuple | None:
        out = []
        for r, l in zip(remaining, letter):
            if l > r:
                return None
            out.append(r - l)
        return tuple(out)

    def tuples_leq(bound: tuple):
        if not bound:
            yield ()
            return
        for rest in tuples_leq(bound[1:]):
            for value in range(bound[0] + 1):
                yield (value,) + rest

    dfa_states = set(tuples_leq(needed))
    transitions: dict[tuple, frozenset] = {}
    for remaining in dfa_states:
        for letter in states:
            target = sub(remaining, letter)
            if target is not None:
                transitions[(remaining, letter)] = frozenset({target})
    zero = tuple(0 for _ in needed)
    return NFA.build(dfa_states, states, transitions, {needed}, {zero})


def compile_tree_nbta(
    formula: Formula,
    tracks: Tracks,
    alphabet: Sequence[Symbol],
    engine: str = "optimized",
) -> UnrankedTreeAutomaton:
    """Compile with explicit tracks (advanced use; see the two wrappers)."""
    optimize = check_compile_engine(engine)
    return _TreeCompiler(frozenset(alphabet), optimize=optimize).compile(
        formula, tracks
    )


def _build_tree_sentence(
    sentence: Formula, alphabet: Sequence[Symbol], optimize: bool
) -> UnrankedTreeAutomaton:
    """The uncached sentence compilation (strip the empty bits track)."""
    compiler = _TreeCompiler(frozenset(alphabet), optimize=optimize)
    extended = compiler.compile(sentence, ())
    mapping = {(sigma, bits): sigma for (sigma, bits) in extended.alphabet}
    return extended.relabel(mapping)


def compile_tree_sentence(
    sentence: Formula, alphabet: Sequence[Symbol], engine: str = "optimized"
) -> UnrankedTreeAutomaton:
    """NBTA^u over Σ accepting exactly the trees satisfying the sentence.

    ``engine="optimized"`` (default) hash-conses subformulas, minimizes
    every determinization, and serves repeats from the content-addressed
    cache of :mod:`repro.perf.compile`; ``engine="naive"`` is the
    reference construction.
    """
    if sentence.free_vars() or sentence.free_set_vars():
        raise CompilationError("a sentence may not have free variables")
    if not check_compile_engine(engine):
        return _build_tree_sentence(sentence, alphabet, optimize=False)
    from ..perf.compile import cached

    return cached(
        "tree-sentence",
        sentence,
        (),
        frozenset(alphabet),
        lambda: _build_tree_sentence(sentence, alphabet, optimize=True),
    )


def mark(label: Symbol, bit: int):
    """The marked-alphabet letter constructor used across the library."""
    return (label, bit)


def compile_tree_query(
    formula: Formula,
    var: Var,
    alphabet: Sequence[Symbol],
    engine: str = "optimized",
) -> DeterministicUnrankedAutomaton:
    """Deterministic marked-alphabet automaton for the unary query φ(x).

    The result runs over labels ``(σ, 0) / (σ, 1)`` and accepts a tree iff
    exactly one node is marked and the formula holds of it — the canonical
    query representation fed to the Theorem 4.8 / 5.17 constructions and
    to :func:`repro.unranked.dbta.evaluate_marked_query`.  With the
    default ``engine="optimized"`` the result is congruence-minimized
    (:func:`repro.perf.minimize.minimize_dbta`) and cached by canonical
    formula digest; ``engine="naive"`` is the reference construction.
    """
    free = formula.free_vars()
    if not free <= {var} or formula.free_set_vars():
        raise CompilationError(f"free variables {free!r} must be exactly {{{var!r}}}")
    if not check_compile_engine(engine):
        return _build_tree_query(formula, var, alphabet, optimize=False)
    from ..perf.compile import cached

    return cached(
        "tree-query",
        formula,
        (var,),
        frozenset(alphabet),
        lambda: _build_tree_query(formula, var, alphabet, optimize=True),
    )


def _build_tree_query(
    formula: Formula, var: Var, alphabet: Sequence[Symbol], optimize: bool
) -> DeterministicUnrankedAutomaton:
    """The uncached marked-alphabet query compilation."""
    compiler = _TreeCompiler(frozenset(alphabet), optimize=optimize)
    extended = compiler.compile(formula, (var,))
    mapping = {
        (sigma, bits): (sigma, bits[0]) for (sigma, bits) in extended.alphabet
    }
    return compiler._determinize(extended.relabel(mapping))
