"""Theorem 5.17: every MSO-definable unary query is computed by an SQA^u.

The construction realizes the Figure 6 algorithm with genuine SQA^u
machinery.  As in :mod:`repro.ranked.mso_to_qa`, the MSO formula is first
compiled to a deterministic bottom-up automaton ``D`` over the marked
alphabet; subtree states ``s_v`` play the role of the types
``τ(t_v, v)`` and context sets ``C_v ⊆ Q_D`` the role of ``τ(t̄_v, v)``.

Per node ``v`` with known context the automaton runs the paper's two
phases (each an instance of the §5.2 pebbling):

* **Round A (selection, Fig. 6 steps 1–4).**  ``δ_↓`` sends the first
  child into bottom-up evaluation by function states ``f : Σ → Q_D``
  while its siblings wait; a turnaround pebbles ``s_{v1}`` at the first
  child; the remaining subtrees evaluate in parallel; the closing up
  transition knows ``C``, ``σ_v`` and all the ``s_{vj}``, so it decides
  whether the *marked* transition lands in ``C`` — selecting ``v`` — and
  returns control to ``v``.
* **Round B (contexts, step 5).**  The subtree states are *recomputed*
  (the paper notes they were lost in Round A's up transition) by the same
  pebbling, and then the automaton makes its **single stay transition**:
  a GSQA built by Lemma 3.10 from a forward prefix-state DFA and a
  backward suffix-transition-function DFA reads the children word and
  hands every child its context ``C_{vj}`` in one pass.

A final ascent over finished subtrees returns the head to the root.

Like the paper's proof, the construction assumes inner nodes have at
least two children (monadic chains are reduced to the string case via
Lemma 3.10 in the paper; our general-arity query processor is
:func:`repro.unranked.dbta.evaluate_marked_query`).  Trees violating the
assumption make the run stick, rejecting the tree.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from ..logic.syntax import Formula, Var
from ..strings.dfa import DFA
from ..strings.hopcroft_ullman import reversed_hopcroft_ullman_gsqa
from ..strings.simple_regex import Branch, SimpleRegex
from ..trees.tree import Path, Tree
from ..unranked.dbta import DeterministicUnrankedAutomaton
from .twoway import (
    STAY,
    TwoWayUnrankedAutomaton,
    UnrankedQueryAutomaton,
    UP,
    UpClassifier,
)

State = Hashable
Label = Hashable
Context = frozenset

_DEAD = "dead"


class StrongQueryAutomatonBuilder:
    """Assembles the Theorem 5.17 SQA^u from a marked-alphabet DBTA^u."""

    def __init__(
        self, d: DeterministicUnrankedAutomaton, alphabet: Sequence[Label]
    ) -> None:
        self.d = d
        self.alphabet = tuple(alphabet)
        # Horizontal machinery of D per (label, bit).
        self.h0 = {sigma: d.classifiers[(sigma, 0)] for sigma in self.alphabet}
        self.h1 = {sigma: d.classifiers[(sigma, 1)] for sigma in self.alphabet}
        self.sigma_index = {sigma: i for i, sigma in enumerate(self.alphabet)}
        self.reachable = self._close_reachable()
        self.functions = self._close_functions()
        self.h_states = {
            sigma: sorted(self.h0[sigma].dfa.states, key=repr)
            for sigma in self.alphabet
        }
        self.h_index = {
            sigma: {h: i for i, h in enumerate(states)}
            for sigma, states in self.h_states.items()
        }
        self.monoid = self._close_monoid()
        self.contexts = self._close_contexts()

    # -- auxiliary closures ---------------------------------------------

    def _h0_step(self, sigma: Label, h, s) -> State:
        return self.h0[sigma].dfa.transitions[(h, s)]

    def _close_reachable(self) -> frozenset:
        """All D-states of unmarked subtrees (possible ``s_v`` values)."""
        reached: set = set()
        changed = True
        while changed:
            changed = False
            for sigma in self.alphabet:
                classifier = self.h0[sigma]
                h_seen = {classifier.dfa.initial}
                frontier = [classifier.dfa.initial]
                while frontier:
                    h = frontier.pop()
                    for s in list(reached):
                        nxt = classifier.dfa.transitions[(h, s)]
                        if nxt not in h_seen:
                            h_seen.add(nxt)
                            frontier.append(nxt)
                for h in h_seen:
                    s = classifier.classify[h]
                    if s not in reached:
                        reached.add(s)
                        changed = True
        return frozenset(reached)

    def _close_functions(self) -> frozenset[tuple]:
        """Reachable function states ``f : Σ → Q_D`` as tuples over Σ."""
        initial = tuple(
            self.h0[sigma].classify[self.h0[sigma].dfa.initial]
            for sigma in self.alphabet
        )
        # Track reachable tuples of per-σ horizontal states.
        init_tuple = tuple(self.h0[sigma].dfa.initial for sigma in self.alphabet)
        tuples = {init_tuple}
        frontier = [init_tuple]
        while frontier:
            current = frontier.pop()
            for s in self.reachable:
                nxt = tuple(
                    self._h0_step(sigma, h, s)
                    for sigma, h in zip(self.alphabet, current)
                )
                if nxt not in tuples:
                    tuples.add(nxt)
                    frontier.append(nxt)
        functions = {
            tuple(
                self.h0[sigma].classify[h]
                for sigma, h in zip(self.alphabet, current)
            )
            for current in tuples
        }
        functions.add(initial)
        return frozenset(functions)

    def _close_monoid(self) -> frozenset[tuple]:
        """The joint suffix-transition monoid: tuples, per σ, of maps
        ``h ↦ h'`` on the horizontal states, generated by
        ``left-extend by s`` for reachable ``s``."""
        identity = tuple(
            tuple(range(len(self.h_states[sigma]))) for sigma in self.alphabet
        )
        elements = {identity}
        frontier = [identity]
        while frontier:
            fn = frontier.pop()
            for s in self.reachable:
                extended = self._extend_fn(fn, s)
                if extended not in elements:
                    elements.add(extended)
                    frontier.append(extended)
        return frozenset(elements)

    def _apply_fn(self, sigma: Label, fn: tuple, h) -> State:
        index = self.sigma_index[sigma]
        return self.h_states[sigma][fn[index][self.h_index[sigma][h]]]

    def _extend_fn(self, fn: tuple, s) -> tuple:
        """Left-extend the joint function by one sibling state ``s``."""
        return tuple(
            tuple(
                fn_sigma[self.h_index[sigma][self._h0_step(sigma, h, s)]]
                for h in self.h_states[sigma]
            )
            for sigma, fn_sigma in zip(self.alphabet, fn)
        )

    def _identity_fn(self) -> tuple:
        return tuple(
            tuple(range(len(self.h_states[sigma]))) for sigma in self.alphabet
        )

    def _context_of(
        self, context: Context, sigma: Label, h, fn: tuple
    ) -> Context:
        """``C_{vj}`` from the parent data (prefix state ``h``, suffix
        function ``fn``): the D-states that, plugged at the position,
        classify into the parent context."""
        classifier = self.h0[sigma]
        return frozenset(
            q
            for q in self.d.states
            if classifier.classify[
                self._apply_fn(sigma, fn, self._h0_step(sigma, h, q))
            ]
            in context
        )

    def _close_contexts(self) -> frozenset[Context]:
        contexts = {frozenset(self.d.accepting)}
        frontier = list(contexts)
        while frontier:
            context = frontier.pop()
            for sigma in self.alphabet:
                for h in self.h_states[sigma]:
                    for fn in self.monoid:
                        child = self._context_of(context, sigma, h, fn)
                        if child not in contexts:
                            contexts.add(child)
                            frontier.append(child)
        return frozenset(contexts)

    # -- the SQA^u state vocabulary ---------------------------------------

    @staticmethod
    def down(context: Context):
        return ("down", context)

    @staticmethod
    def wait(round_tag: str, context: Context):
        return ("wait", round_tag, context)

    @staticmethod
    def turn(round_tag: str, context: Context, s1):
        return ("turn", round_tag, context, s1)

    @staticmethod
    def hold(round_tag: str, context: Context, s1, parent_label):
        return ("hold", round_tag, context, s1, parent_label)

    @staticmethod
    def round2(context: Context, flag: bool):
        return ("round2", context, flag)

    @staticmethod
    def func(f: tuple):
        return ("func", f)

    # -- assembly ---------------------------------------------------------

    def build(self) -> UnrankedQueryAutomaton:
        """Assemble the SQA^u (classifier, slender downs, stay GSQA, λ)."""
        alphabet = self.alphabet
        sigma_index = {sigma: i for i, sigma in enumerate(alphabet)}
        leaf_function = tuple(
            self.h0[sigma].classify[self.h0[sigma].dfa.initial]
            for sigma in alphabet
        )

        states: set = {"eval", "done_sel", "done_nosel", "ascend", _DEAD}
        down_pairs: set = set()
        up_pairs: set = set()
        delta_leaf: dict = {}
        down: dict = {}
        selecting: set = set()

        def add_down(state, sigma, branch: Branch):
            down_pairs.add((state, sigma))
            down[(state, sigma)] = SimpleRegex([branch])

        # Shared evaluation machinery.
        for sigma in alphabet:
            add_down("eval", sigma, Branch(("eval",), ("eval",), ()))
            down_pairs.add(("eval", sigma))
            delta_leaf[("eval", sigma)] = self.func(leaf_function)
        for f in self.functions:
            states.add(self.func(f))
            for sigma in alphabet:
                up_pairs.add((self.func(f), sigma))

        # Context-indexed states and their down transitions.
        for context in self.contexts:
            states.add(self.down(context))
            for tag in ("A", "B"):
                states.add(self.wait(tag, context))
                for sigma in alphabet:
                    up_pairs.add((self.wait(tag, context), sigma))
            for flag in (False, True):
                states.add(self.round2(context, flag))
            for sigma in alphabet:
                add_down(
                    self.down(context),
                    sigma,
                    Branch(
                        ("eval", self.wait("A", context)),
                        (self.wait("A", context),),
                        (),
                    ),
                )
                for flag in (False, True):
                    add_down(
                        self.round2(context, flag),
                        sigma,
                        Branch(
                            ("eval", self.wait("B", context)),
                            (self.wait("B", context),),
                            (),
                        ),
                    )
                marked_leaf = self.h1[sigma].classify[self.h1[sigma].dfa.initial]
                delta_leaf[(self.down(context), sigma)] = (
                    "done_sel" if marked_leaf in context else "done_nosel"
                )
            for s1 in self.reachable:
                for tag in ("A", "B"):
                    states.add(self.turn(tag, context, s1))
                    for sigma in alphabet:
                        states.add(self.hold(tag, context, s1, sigma))
                for sigma_parent in alphabet:
                    for tag in ("A", "B"):
                        add_down(
                            self.turn(tag, context, s1),
                            sigma_parent,
                            Branch(
                                (
                                    self.hold(tag, context, s1, sigma_parent),
                                    "eval",
                                ),
                                ("eval",),
                                (),
                            ),
                        )

        # The hold states carry the *parent's* label but sit at a child
        # whose own label can be anything: register all pairs.
        for context in self.contexts:
            for s1 in self.reachable:
                for tag in ("A", "B"):
                    for parent_label in alphabet:
                        state = self.hold(tag, context, s1, parent_label)
                        for child_label in alphabet:
                            up_pairs.add((state, child_label))

        for sigma in alphabet:
            for state in ("done_sel", "done_nosel", "ascend"):
                up_pairs.add((state, sigma))

        selecting.update(("done_sel", sigma) for sigma in alphabet)
        for context in self.contexts:
            for sigma in alphabet:
                selecting.add((self.round2(context, True), sigma))

        classifier = self._build_classifier(up_pairs)
        stay_gsqa = self._build_stay_gsqa()

        root_context: Context = frozenset(self.d.accepting)
        automaton = TwoWayUnrankedAutomaton(
            states=frozenset(states),
            alphabet=frozenset(alphabet),
            initial=self.down(root_context),
            accepting=frozenset({"ascend", "done_sel", "done_nosel"}),
            up_pairs=frozenset(up_pairs),
            down_pairs=frozenset(down_pairs),
            delta_leaf=delta_leaf,
            delta_root={},
            up_classifier=classifier,
            down=down,
            stay_gsqa=stay_gsqa,
            stay_limit=1,
        )
        return UnrankedQueryAutomaton(automaton, frozenset(selecting))

    # -- the up/stay classifier -------------------------------------------

    def _build_classifier(self, pair_alphabet: set) -> UpClassifier:
        """One DFA classifying every children word into its outcome.

        Patterns (inner nodes have ≥ 2 children):

        ========================================  =====================
        word shape                                 outcome
        ========================================  =====================
        ``func⁺``                                  up: combined ``func``
        ``func  waitA(C)⁺``                        up: ``turnA(C, s₁)``
        ``holdA(C,s₁,σᵥ)  func⁺``                  up: ``round2(C, flag)``
        ``func  waitB(C)⁺``                        up: ``turnB(C, s₁)``
        ``holdB(C,s₁,σᵥ)  func⁺``                  **stay**
        ``(done_sel|done_nosel|ascend)⁺``          up: ``ascend``
        ========================================  =====================
        """
        alphabet = self.alphabet

        def step(state: tuple, letter) -> tuple | None:
            q, child_label = letter
            kind = q[0] if isinstance(q, tuple) else q
            if state == ("start",):
                if kind == "func":
                    h_tuple = tuple(
                        self._h0_step(sigma, self.h0[sigma].dfa.initial, q[1][self.sigma_index[child_label]])
                        for sigma in alphabet
                    )
                    return ("amb", h_tuple, q[1][self.sigma_index[child_label]])
                if kind == "hold":
                    _tag, tag, context, s1, parent_label = q
                    if tag == "A":
                        h = self.h1[parent_label].dfa.transitions[
                            (self.h1[parent_label].dfa.initial, s1)
                        ]
                        return ("ra", context, parent_label, h)
                    return ("sb",)
                if kind in ("done_sel", "done_nosel", "ascend"):
                    return ("asc",)
                return None
            tag = state[0]
            if tag == "amb":
                _t, h_tuple, s1 = state
                if kind == "func":
                    s = q[1][self.sigma_index[child_label]]
                    return (
                        "comb",
                        tuple(
                            self._h0_step(sigma, h, s)
                            for sigma, h in zip(alphabet, h_tuple)
                        ),
                    )
                if kind == "wait":
                    _k, round_tag, context = q
                    return ("t" + round_tag.lower(), context, s1)
                return None
            if tag == "comb":
                if kind == "func":
                    s = q[1][self.sigma_index[child_label]]
                    return (
                        "comb",
                        tuple(
                            self._h0_step(sigma, h, s)
                            for sigma, h in zip(alphabet, state[1])
                        ),
                    )
                return None
            if tag in ("ta", "tb"):
                _t, context, s1 = state
                if kind == "wait" and q[1] == ("A" if tag == "ta" else "B") and q[2] == context:
                    return state
                return None
            if tag == "ra":
                _t, context, parent_label, h = state
                if kind == "func":
                    s = q[1][self.sigma_index[child_label]]
                    return (
                        "ra",
                        context,
                        parent_label,
                        self.h1[parent_label].dfa.transitions[(h, s)],
                    )
                return None
            if tag == "sb":
                return ("sb",) if kind == "func" else None
            if tag == "asc":
                return (
                    ("asc",)
                    if kind in ("done_sel", "done_nosel", "ascend")
                    else None
                )
            return None

        def outcome_of(state: tuple) -> tuple | None:
            tag = state[0]
            if tag in ("amb", "comb"):
                h_tuple = state[1]
                f = tuple(
                    self.h0[sigma].classify[h]
                    for sigma, h in zip(alphabet, h_tuple)
                )
                return (UP, self.func(f))
            if tag == "ta":
                return (UP, self.turn("A", state[1], state[2]))
            if tag == "tb":
                return (UP, self.turn("B", state[1], state[2]))
            if tag == "ra":
                _t, context, parent_label, h = state
                flag = self.h1[parent_label].classify[h] in context
                return (UP, self.round2(context, flag))
            if tag == "sb":
                return (STAY,)
            if tag == "asc":
                return (UP, "ascend")
            return None

        # BFS over reachable classifier states.
        initial = ("start",)
        dfa_states = {initial}
        transitions: dict[tuple, tuple] = {}
        outcome: dict[tuple, tuple] = {}
        frontier = [initial]
        while frontier:
            source = frontier.pop()
            for letter in pair_alphabet:
                target = step(source, letter)
                if target is None:
                    continue
                transitions[(source, letter)] = target
                if target not in dfa_states:
                    dfa_states.add(target)
                    frontier.append(target)
                    value = outcome_of(target)
                    if value is not None:
                        outcome[target] = value
        dfa = DFA.build(
            dfa_states, frozenset(pair_alphabet), transitions, initial, set()
        )
        return UpClassifier(dfa, outcome)

    # -- the stay GSQA (Lemma 3.10 instance) --------------------------------

    def _build_stay_gsqa(self):
        """The one stay transition: children contexts in a single pass.

        ``M1`` (left-to-right) carries the parent context/label and the
        horizontal prefix state over ``s_1 .. s_{j-1}``; ``M2``
        (right-to-left) carries the joint suffix transition function over
        ``s_{j+1} .. s_n``.  Lemma 3.10 combines them into one
        deterministic two-way transducer; the rendered output at child j
        is its ``down(C_{vj})`` state.
        """
        holds = [
            self.hold("B", context, s1, parent_label)
            for context in self.contexts
            for s1 in self.reachable
            for parent_label in self.alphabet
        ]
        letters = frozenset(
            (state, label) for state in holds for label in self.alphabet
        ) | frozenset(
            (self.func(f), label)
            for f in self.functions
            for label in self.alphabet
        )

        sink = ("sink",)

        def m1_step(state, letter):
            q, child_label = letter
            kind = q[0]
            if state == ("m1",):
                if kind == "hold":
                    _k, _tag, context, s1, parent_label = q
                    return (
                        "m1",
                        context,
                        parent_label,
                        self.h0[parent_label].dfa.initial,
                        s1,
                    )
                return sink
            if state == sink or len(state) != 5:
                return sink
            _m, context, parent_label, h, pending = state
            if kind != "func":
                return sink
            s = q[1][self.sigma_index[child_label]]
            return (
                "m1",
                context,
                parent_label,
                self._h0_step(parent_label, h, pending),
                s,
            )

        def m2_step(state, letter):
            q, child_label = letter
            kind = q[0]
            if kind == "func":
                s = q[1][self.sigma_index[child_label]]
            elif kind == "hold":
                s = q[3]
            else:
                return sink
            if state == ("m2",):
                return ("m2", self._identity_fn(), s)
            if state == sink:
                return sink
            _m, fn, pending = state
            return ("m2", self._extend_fn(fn, pending), s)

        m1 = _bfs_dfa(("m1",), letters, m1_step, sink)
        m2 = _bfs_dfa(("m2",), letters, m2_step, sink)

        def render(p, q, letter):
            if len(p) != 5 or len(q) != 3:
                return _DEAD
            _m1, context, parent_label, h, _pending_p = p
            _m2, fn, _pending_q = q
            return self.down(self._context_of(context, parent_label, h, fn))

        return reversed_hopcroft_ullman_gsqa(m1, m2, render=render)


def _bfs_dfa(initial, alphabet, step, sink) -> DFA:
    """Materialize a DFA from a transition function by reachability."""
    states = {initial, sink}
    transitions = {}
    frontier = [initial]
    while frontier:
        source = frontier.pop()
        for letter in alphabet:
            target = step(source, letter)
            transitions[(source, letter)] = target
            if target not in states:
                states.add(target)
                frontier.append(target)
    for letter in alphabet:
        transitions[(sink, letter)] = sink
    return DFA.build(states, alphabet, transitions, initial, set())


def build_query_sqa(
    formula: Formula,
    var: Var,
    alphabet: Sequence[Label],
    engine: str = "optimized",
) -> UnrankedQueryAutomaton:
    """MSO unary query φ(x) → SQA^u (Theorem 5.17).

    The automaton computes the query on trees whose inner nodes have at
    least two children (the case the paper's Figure 6 flow covers; monadic
    chains are handled by the Lemma 3.10 string treatment, implemented in
    :mod:`repro.strings.hopcroft_ullman`).

    With the default ``engine="optimized"`` the intermediate DBTA^u is
    congruence-minimized before the builder's exponential closures run
    over its state set, and the finished SQA is cached by canonical
    formula digest (:mod:`repro.perf.compile`) so repeated constructions
    are near-free; ``engine="naive"`` is the unoptimized reference.
    """
    from ..logic.compile_strings import check_compile_engine
    from ..logic.compile_trees import compile_tree_query

    if not check_compile_engine(engine):
        d = compile_tree_query(formula, var, alphabet, engine="naive")
        return StrongQueryAutomatonBuilder(d, alphabet).build()
    from ..perf.compile import cached

    def _build() -> UnrankedQueryAutomaton:
        d = compile_tree_query(formula, var, alphabet)
        return StrongQueryAutomatonBuilder(d, alphabet).build()

    return cached("sqa", formula, (var,), frozenset(alphabet), _build)


def figure6_evaluate(
    d: DeterministicUnrankedAutomaton, tree: Tree
) -> frozenset[Path]:
    """The Figure 6 algorithm run directly (any arity) — the reference.

    Identical in content to
    :func:`repro.unranked.dbta.evaluate_marked_query` but organized
    level-by-level exactly as the paper's pseudo-code.
    """
    states: dict[Path, State] = {}
    for path in tree.postorder():
        node = tree.subtree(path)
        children = [states[path + (i,)] for i in range(len(node.children))]
        states[path] = d.classifiers[(node.label, 0)].result(children)

    contexts: dict[Path, Context] = {(): frozenset(d.accepting)}
    selected: set[Path] = set()
    for level in tree.nodes_by_depth():
        for path in level:
            node = tree.subtree(path)
            context = contexts[path]
            child_states = [states[path + (i,)] for i in range(len(node.children))]
            marked = d.classifiers[(node.label, 1)].result(child_states)
            if marked in context:
                selected.add(path)
            classifier = d.classifiers[(node.label, 0)]
            dfa = classifier.dfa
            forward = [dfa.initial]
            for s in child_states:
                forward.append(dfa.transitions[(forward[-1], s)])
            good = frozenset(
                h for h, v in classifier.classify.items() if v in context
            )
            backward = [good]
            for s in reversed(child_states):
                previous = backward[-1]
                backward.append(
                    frozenset(
                        h
                        for h in dfa.states
                        if dfa.transitions[(h, s)] in previous
                    )
                )
            backward.reverse()
            for i in range(len(node.children)):
                contexts[path + (i,)] = frozenset(
                    q
                    for q in d.states
                    if dfa.transitions[(forward[i], q)] in backward[i + 1]
                )
    return frozenset(selected)
