"""Büchi's theorem, executable: MSO on strings → finite automata (Thm 2.5).

The compiler uses the standard *extended alphabet* construction that the
paper's type-theoretic proof is equivalent to: a formula with free
variables ``v_1..v_k`` (first- or second-order) is compiled over the
alphabet ``Σ × {0,1}^k``, where bit ``j`` of a letter says whether the
position belongs to the interpretation of ``v_j``.  First-order tracks
must carry exactly one ``1`` (*validity*); every compiled automaton
enforces validity of all first-order tracks in scope, which makes
complementation sound.

* :func:`compile_sentence` — a sentence φ to a DFA with ``L = {w : w ⊨ φ}``.
* :func:`compile_query` — a unary formula φ(x) to a DFA over the *marked*
  alphabet ``Σ × {0,1}`` accepting exactly the words with one marked
  position ``i`` such that ``w ⊨ φ[i]``.  This is the same marking device
  the paper uses in the Theorem 6.3/6.4 reductions.
* :func:`evaluate_marked_query` — linear-time unary-query evaluation from
  a marked-alphabet DFA (one forward pass of states, one backward pass of
  accepting-state sets).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Hashable

from .. import obs
from ..strings.dfa import DFA
from ..strings.nfa import NFA, intersection_nfa, union_nfa
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
#: A track list: the ordered free variables of the automaton under
#: construction.  Letters of the extended alphabet are ``(σ, bits)`` with
#: ``bits`` a 0/1 tuple indexed like the track list.
Tracks = tuple


class CompilationError(ValueError):
    """Raised for formulas outside the string vocabulary."""


def extended_alphabet(
    alphabet: frozenset[Symbol], tracks: Tracks
) -> frozenset[tuple]:
    """All letters ``(σ, bits)`` for the given base alphabet and tracks."""
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


def _singleton_track_dfa(
    alphabet: frozenset[tuple], index: int
) -> DFA:
    """DFA enforcing exactly one ``1`` in track ``index`` (validity)."""
    transitions = {}
    for letter in alphabet:
        bit = letter[1][index]
        transitions[(0, letter)] = 1 if bit else 0
        transitions[(1, letter)] = 2 if bit else 1
        transitions[(2, letter)] = 2
    return DFA.build({0, 1, 2}, alphabet, transitions, 0, {1})


#: Interned validity automata, keyed by (extended alphabet, FO-track mask).
#: The same validity NFA is intersected in at every atom and negation of a
#: compilation, so rebuilding it per connective dominated small compiles;
#: hits/misses surface as ``compile.validity_hits`` / ``_misses``.
_VALIDITY_CACHE: dict[tuple, NFA] = {}
_VALIDITY_CACHE_LIMIT = 512


def _validity_nfa(alphabet: frozenset[tuple], tracks: Tracks) -> NFA:
    """Validity of every first-order track in scope.

    Interned per (alphabet, FO-track mask): the automaton depends only on
    which track positions are first-order, not on the variables' names.
    """
    fo_mask = tuple(isinstance(variable, Var) for variable in tracks)
    key = (alphabet, fo_mask)
    sink = obs.SINK
    interned = _VALIDITY_CACHE.get(key)
    if interned is not None:
        if sink.enabled:
            sink.incr("compile.validity_hits")
        return interned
    if sink.enabled:
        sink.incr("compile.validity_misses")
    result: DFA | None = None
    for index, variable in enumerate(tracks):
        if not isinstance(variable, Var):
            continue
        track_dfa = _singleton_track_dfa(alphabet, index)
        result = track_dfa if result is None else result.intersection(track_dfa)
    if result is None:
        all_accept = DFA.build(
            {0}, alphabet, {(0, letter): 0 for letter in alphabet}, 0, {0}
        )
        built = NFA.from_dfa(all_accept)
    else:
        from ..perf.minimize import canonical_relabeled

        built = NFA.from_dfa(canonical_relabeled(result.minimized()))
    if len(_VALIDITY_CACHE) >= _VALIDITY_CACHE_LIMIT:
        _VALIDITY_CACHE.clear()
    _VALIDITY_CACHE[key] = built
    return built


class _Compiler:
    """Recursive compilation; one instance per (alphabet, outer tracks).

    With ``optimize`` (the default), every connective's automaton is
    reduced — determinized and Hopcroft-minimized — before feeding the
    next construction step, and subformulas are hash-consed: structurally
    equal (α-equivalent, commutativity-normalized) subformulas compile
    once per track shape, via :func:`repro.perf.compile.canonical_key`.
    ``optimize=False`` is the naive reference pipeline the differential
    suite compares against.
    """

    def __init__(self, alphabet: frozenset[Symbol], optimize: bool = True) -> None:
        self.alphabet = alphabet
        self.optimize = optimize
        self._memo: dict[tuple, NFA] = {}

    def _reduce(self, nfa: NFA) -> NFA:
        """Minimal deterministic form of an intermediate automaton.

        Relabeled to small integer states after minimization — the
        quotient's frozenset state names would otherwise nest deeper at
        every pipeline stage, and their hashing/ordering cost dominates
        deep compilations (see
        :func:`repro.perf.minimize.canonical_relabeled`).
        """
        if not self.optimize:
            return nfa
        from ..perf.minimize import canonical_relabeled

        return NFA.from_dfa(canonical_relabeled(nfa.determinized().minimized()))

    # -- atoms ---------------------------------------------------------

    def _atom_core(self, formula: Formula, tracks: Tracks) -> DFA:
        alphabet = extended_alphabet(self.alphabet, tracks)
        index = {variable: i for i, variable in enumerate(tracks)}

        if isinstance(formula, Label):
            i = index[formula.var]
            transitions = {}
            for letter in alphabet:
                sigma, bits = letter
                if bits[i]:
                    if sigma == formula.label:
                        transitions[(0, letter)] = 1
                    # else: no transition (reject)
                else:
                    transitions[(0, letter)] = 0
                transitions[(1, letter)] = 1 if not bits[i] else None
            transitions = {k: v for k, v in transitions.items() if v is not None}
            return DFA.build({0, 1}, alphabet, transitions, 0, {1})

        if isinstance(formula, Less):
            # States: 0 = x not yet seen, 1 = x seen / y not, 2 = both seen.
            i, j = index[formula.left], index[formula.right]
            transitions = {}
            for letter in alphabet:
                x_bit, y_bit = letter[1][i], letter[1][j]
                if x_bit and y_bit:
                    continue  # x = y: not <, reject from every state
                if x_bit:
                    transitions[(0, letter)] = 1
                elif y_bit:
                    transitions[(1, letter)] = 2  # y after x: good
                else:
                    transitions[(0, letter)] = 0
                    transitions[(1, letter)] = 1
                    transitions[(2, letter)] = 2
            return DFA.build({0, 1, 2}, alphabet, transitions, 0, {2})

        if isinstance(formula, Equal):
            i, j = index[formula.left], index[formula.right]
            transitions = {
                (0, letter): 0
                for letter in alphabet
                if letter[1][i] == letter[1][j]
            }
            return DFA.build({0}, alphabet, transitions, 0, {0})

        if isinstance(formula, Member):
            i, j = index[formula.var], index[formula.set_var]
            transitions = {}
            for letter in alphabet:
                bits = letter[1]
                if bits[i] and not bits[j]:
                    continue  # x outside X: reject
                transitions[(0, letter)] = 0
            return DFA.build({0}, alphabet, transitions, 0, {0})

        if isinstance(formula, (Edge, Descendant)):
            raise CompilationError(
                f"{type(formula).__name__} is not part of the string vocabulary"
            )

        raise CompilationError(f"not an atom: {formula!r}")

    # -- main recursion --------------------------------------------------

    def compile(self, formula: Formula, tracks: Tracks) -> NFA:
        """An NFA over the extended alphabet for the formula.

        Accepts exactly the valid-encoded words satisfying the formula;
        validity of *all* first-order tracks in ``tracks`` is enforced.
        When optimizing, results are hash-consed per (canonical formula
        key, track shape) and reduced after every connective.
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
        result = self._reduce(self._compile(formula, tracks))
        self._memo[key] = result
        return result

    def _compile(self, formula: Formula, tracks: Tracks) -> NFA:
        """One connective's construction (recursion re-enters ``compile``)."""
        alphabet = extended_alphabet(self.alphabet, tracks)

        if isinstance(formula, (Label, Less, Equal, Member, Edge, Descendant)):
            core = NFA.from_dfa(self._atom_core(formula, tracks))
            return intersection_nfa(core, _validity_nfa(alphabet, tracks))

        if isinstance(formula, Not):
            inner = self.compile(formula.inner, tracks).determinized()
            complemented = NFA.from_dfa(inner.complement())
            return intersection_nfa(complemented, _validity_nfa(alphabet, tracks))

        if isinstance(formula, And):
            return intersection_nfa(
                self.compile(formula.left, tracks),
                self.compile(formula.right, tracks),
            )

        if isinstance(formula, Or):
            return union_nfa(
                self.compile(formula.left, tracks),
                self.compile(formula.right, tracks),
            )

        if isinstance(formula, Implies):
            return self.compile(Or(Not(formula.left), formula.right), tracks)

        if isinstance(formula, (Exists, ExistsSet)):
            variable = formula.var if isinstance(formula, Exists) else formula.set_var
            if variable in tracks:
                raise CompilationError(f"variable {variable!r} shadowed")
            inner = self.compile(formula.inner, tracks + (variable,))
            return self._project(inner, tracks)

        if isinstance(formula, Forall):
            return self.compile(
                Not(Exists(formula.var, Not(formula.inner))), tracks
            )

        if isinstance(formula, ForallSet):
            return self.compile(
                Not(ExistsSet(formula.set_var, Not(formula.inner))), tracks
            )

        raise CompilationError(f"unknown formula node {formula!r}")

    def _project(self, inner: NFA, outer_tracks: Tracks) -> NFA:
        """Erase the last track (existential projection)."""
        alphabet = extended_alphabet(self.alphabet, outer_tracks)
        transitions: dict[tuple, set] = {}
        for (source, letter), targets in inner.transitions.items():
            sigma, bits = letter
            projected = (sigma, bits[:-1])
            key = (source, projected)
            transitions.setdefault(key, set()).update(targets)
        return NFA.build(
            inner.states,
            alphabet,
            {key: frozenset(value) for key, value in transitions.items()},
            inner.initials,
            inner.accepting,
        )


def check_compile_engine(engine: str) -> bool:
    """True for the optimized pipeline, False for naive; else raise.

    The one ``engine=`` check of every MSO compiler entry point — string
    and tree compilation and the Theorem 4.8 / 5.17 query-automaton
    builders — so a misspelling raises :class:`CompilationError`
    everywhere instead of silently selecting a pipeline.
    """
    if engine not in ("optimized", "naive"):
        raise CompilationError(f"unknown compile engine {engine!r}")
    return engine == "optimized"


def _build_sentence_dfa(
    sentence: Formula, alphabet: Sequence[Symbol], optimize: bool
) -> DFA:
    """The uncached sentence compilation (strip tracks, minimize)."""
    compiler = _Compiler(frozenset(alphabet), optimize=optimize)
    extended = compiler.compile(sentence, ())
    # Strip the now-trivial bits component from letters.
    dfa = extended.determinized()
    transitions = {
        (state, letter[0]): target
        for (state, letter), target in dfa.transitions.items()
    }
    plain = DFA.build(
        dfa.states, frozenset(alphabet), transitions, dfa.initial, dfa.accepting
    )
    if not optimize:
        return plain.minimized()
    from ..perf.minimize import canonical_relabeled

    return canonical_relabeled(plain.minimized())


def compile_sentence(
    sentence: Formula, alphabet: Sequence[Symbol], engine: str = "optimized"
) -> DFA:
    """A minimal DFA over Σ for the language defined by the sentence.

    ``engine="optimized"`` (default) hash-conses subformulas, reduces
    after every connective, and serves repeats from the content-addressed
    cache of :mod:`repro.perf.compile`; ``engine="naive"`` is the
    unoptimized reference construction the differential suite compares
    against.

    >>> from repro.logic.syntax import *
    >>> x = Var("x")
    >>> contains_a = Exists(x, Label(x, "a"))
    >>> dfa = compile_sentence(contains_a, ["a", "b"])
    >>> dfa.accepts("bba"), dfa.accepts("bbb")
    (True, False)
    """
    if sentence.free_vars() or sentence.free_set_vars():
        raise CompilationError("a sentence may not have free variables")
    if not check_compile_engine(engine):
        return _build_sentence_dfa(sentence, alphabet, optimize=False)
    from ..perf.compile import cached

    return cached(
        "string-sentence",
        sentence,
        (),
        frozenset(alphabet),
        lambda: _build_sentence_dfa(sentence, alphabet, optimize=True),
    )


#: Marked-alphabet letters are ``(σ, 0)`` / ``(σ, 1)`` pairs.
def mark_word(word: Sequence[Symbol], position: int) -> list[tuple]:
    """Encode ``w`` with 1-based ``position`` marked (§6's marking device)."""
    return [
        (symbol, 1 if index + 1 == position else 0)
        for index, symbol in enumerate(word)
    ]


def compile_query(
    formula: Formula,
    var: Var,
    alphabet: Sequence[Symbol],
    engine: str = "optimized",
) -> DFA:
    """A minimal DFA over ``Σ × {0,1}`` for the unary query ``φ(x)``.

    Accepts a marked word iff exactly one position is marked and the
    formula holds of it.  ``engine`` selects the optimized (hash-consed,
    per-connective-minimized, cached) or naive pipeline, as in
    :func:`compile_sentence`.
    """
    free = formula.free_vars()
    if not free <= {var} or formula.free_set_vars():
        raise CompilationError(f"free variables {free!r} must be exactly {{{var!r}}}")
    if check_compile_engine(engine):
        from ..perf.compile import cached

        return cached(
            "string-query",
            formula,
            (var,),
            frozenset(alphabet),
            lambda: _build_query_dfa(formula, var, alphabet, optimize=True),
        )
    return _build_query_dfa(formula, var, alphabet, optimize=False)


def _build_query_dfa(
    formula: Formula, var: Var, alphabet: Sequence[Symbol], optimize: bool
) -> DFA:
    """The uncached marked-alphabet query compilation."""
    compiler = _Compiler(frozenset(alphabet), optimize=optimize)
    extended = compiler.compile(formula, (var,))
    dfa = extended.determinized()
    transitions = {
        (state, (letter[0], letter[1][0])): target
        for (state, letter), target in dfa.transitions.items()
    }
    marked_alphabet = frozenset(
        (symbol, bit) for symbol in alphabet for bit in (0, 1)
    )
    plain = DFA.build(
        dfa.states, marked_alphabet, transitions, dfa.initial, dfa.accepting
    )
    if not optimize:
        return plain.minimized()
    from ..perf.minimize import canonical_relabeled

    return canonical_relabeled(plain.minimized())


def evaluate_marked_query(query_dfa: DFA, word: Sequence[Symbol]) -> frozenset[int]:
    """Linear-time evaluation of a marked-alphabet query DFA.

    Forward pass: the state of the DFA on the unmarked prefix before each
    position.  Backward pass: the set of states from which the unmarked
    suffix after each position leads to acceptance.  Position ``i`` is
    selected iff stepping the forward state over the *marked* letter lands
    in the backward set — two linear passes, the classical unary-query
    evaluation that Theorem 3.9's automaton internalizes via Lemma 3.10.
    """
    dfa = query_dfa.completed()
    n = len(word)

    forward: list = [dfa.initial]
    for symbol in word:
        forward.append(dfa.transitions[(forward[-1], (symbol, 0))])

    backward: list[frozenset] = [frozenset(dfa.accepting)]
    for symbol in reversed(word):
        previous = backward[-1]
        backward.append(
            frozenset(
                state
                for state in dfa.states
                if dfa.transitions[(state, (symbol, 0))] in previous
            )
        )
    backward.reverse()  # backward[i] = good states before reading suffix i+1..n

    selected = frozenset(
        i
        for i in range(1, n + 1)
        if dfa.transitions[(forward[i - 1], (word[i - 1], 1))] in backward[i]
    )
    return selected
