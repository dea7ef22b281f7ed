"""NBTA^u (Definition 5.1) and the PTIME emptiness of Lemma 5.2."""

import random

from repro import obs
from repro.core.patterns import compile_pattern
from repro.decision import patterns as decision
from repro.strings.nfa import EPSILON, NFA, intersection_nfa
from repro.strings.regex import parse_regex, to_nfa
from repro.trees.dtd import BIBLIOGRAPHY_DTD, parse_dtd
from repro.trees.generators import enumerate_trees
from repro.trees.tree import Tree
from repro.unranked.nbta import UnrankedTreeAutomaton


def has_a_automaton() -> UnrankedTreeAutomaton:
    """Simple guess-free NBTA: state y iff subtree contains an 'a'."""
    states = {"n", "y"}
    n_children = parse_regex("n*")
    y_children = parse_regex("n* y (n|y)*  | (n|y)* y n*")
    horizontal = {
        ("n", "b"): to_nfa(n_children, frozenset(states)),
        ("y", "a"): to_nfa(parse_regex("(n|y)*"), frozenset(states)),
        ("y", "b"): to_nfa(y_children, frozenset(states)),
    }
    return UnrankedTreeAutomaton(
        frozenset(states), frozenset({"a", "b"}), frozenset({"y"}), horizontal
    )


def random_nbta(rng: random.Random, max_states: int = 3) -> UnrankedTreeAutomaton:
    """Regex horizontal languages over a random state set of size ≤ 3."""
    names = [f"s{i}" for i in range(rng.randint(1, max_states))]
    states = frozenset(names)

    def piece():
        first, second = rng.choice(names), rng.choice(names)
        return rng.choice(
            [first, f"{first}*", f"({first}|{second})", f"({first}|{second})*"]
        )

    horizontal = {}
    for state in names:
        for symbol in ("a", "b"):
            if rng.random() < 0.7:
                expr = " ".join(piece() for _ in range(rng.randint(1, 3)))
                if rng.random() < 0.3:
                    expr += " | " + piece()
                horizontal[(state, symbol)] = to_nfa(parse_regex(expr), states)
    accepting = frozenset(
        state for state in names if rng.random() < 0.5
    ) or frozenset({names[0]})
    return UnrankedTreeAutomaton(
        states, frozenset({"a", "b"}), accepting, horizontal
    )


def eager_product(
    left: UnrankedTreeAutomaton, right: UnrankedTreeAutomaton
) -> UnrankedTreeAutomaton:
    """The reference product: every pair state, and every horizontal NFA
    lifted to the whole pair alphabet before intersecting."""
    pairs = frozenset((p, q) for p in left.states for q in right.states)

    def lift(nfa: NFA, half: int) -> NFA:
        transitions: dict = {}
        for (source, symbol), targets in nfa.transitions.items():
            if symbol is EPSILON:
                transitions[(source, EPSILON)] = targets
                continue
            for pair in pairs:
                if pair[half] == symbol:
                    key = (source, pair)
                    transitions[key] = transitions.get(key, frozenset()) | targets
        return NFA(nfa.states, pairs, transitions, nfa.initials, nfa.accepting)

    horizontal = {}
    for p, q in pairs:
        for label in left.alphabet:
            left_nfa = left.horizontal.get((p, label))
            right_nfa = right.horizontal.get((q, label))
            if left_nfa is not None and right_nfa is not None:
                horizontal[((p, q), label)] = intersection_nfa(
                    lift(left_nfa, 0), lift(right_nfa, 1)
                )
    accepting = frozenset(
        (p, q) for p, q in pairs if p in left.accepting and q in right.accepting
    )
    return UnrankedTreeAutomaton(pairs, left.alphabet, accepting, horizontal)


class TestSemantics:
    def test_has_a(self):
        nbta = has_a_automaton()
        for tree in enumerate_trees(["a", "b"], 4):
            expected = "a" in tree.labels()
            assert nbta.accepts(tree) == expected, str(tree)

    def test_run_is_per_node(self):
        nbta = has_a_automaton()
        run = nbta.run(Tree.parse("b(a, b)"))
        assert run[(0,)] == frozenset({"y"})
        assert run[(1,)] == frozenset({"n"})
        assert run[()] == frozenset({"y"})


class TestLemma52:
    def test_nonempty_with_witness(self):
        nbta = has_a_automaton()
        assert not nbta.is_empty()
        witness = nbta.witness()
        assert witness is not None and nbta.accepts(witness)

    def test_empty_language(self):
        states = frozenset({"q"})
        # q requires a q-child forever: no finite tree works.
        horizontal = {
            ("q", "a"): to_nfa(parse_regex("q q*"), states),
        }
        nbta = UnrankedTreeAutomaton(states, frozenset({"a"}), states, horizontal)
        assert nbta.is_empty()
        assert nbta.witness() is None

    def test_reachability_fixpoint(self):
        nbta = has_a_automaton()
        assert nbta.reachable_states() == frozenset({"n", "y"})

    def test_random_automata_witness_iff_nonempty(self):
        """220 seeded NBTAs: a witness exists exactly when the language is
        non-empty, the run semantics accepts it, and an empty language
        rejects every small tree."""
        rng = random.Random(0xE2)
        small_trees = list(enumerate_trees(["a", "b"], 3))
        empties = 0
        for case in range(220):
            nbta = random_nbta(rng)
            witness = nbta.witness()
            if nbta.is_empty():
                empties += 1
                assert witness is None, case
                assert not any(nbta.accepts(tree) for tree in small_trees), case
            else:
                assert witness is not None and nbta.accepts(witness), case
        # The generator must exercise both outcomes for this to mean much.
        assert 5 <= empties <= 215


class TestBooleanOperations:
    def test_intersection_union(self):
        has_a = has_a_automaton()
        # all-b automaton
        states = frozenset({"n"})
        all_b = UnrankedTreeAutomaton(
            states,
            frozenset({"a", "b"}),
            states,
            {("n", "b"): to_nfa(parse_regex("n*"), states)},
        )
        both = has_a.intersection(all_b)
        either = has_a.union(all_b)
        for tree in enumerate_trees(["a", "b"], 3):
            expected_a = "a" in tree.labels()
            expected_b = tree.labels() == frozenset({"b"})
            assert both.accepts(tree) == (expected_a and expected_b)
            assert either.accepts(tree) == (expected_a or expected_b)
        assert both.is_empty()

    def test_trimmed_preserves_language(self):
        nbta = has_a_automaton()
        trimmed = nbta.trimmed()
        for tree in enumerate_trees(["a", "b"], 3):
            assert trimmed.accepts(tree) == nbta.accepts(tree)

    def test_relabel_projection(self):
        nbta = has_a_automaton()
        # Map both labels to 'c': accepts any tree over 'c' that is the
        # image of an accepted tree — every shape has an accepted preimage
        # (relabel some node to a), so all 'c'-trees are accepted.
        projected = nbta.relabel({"a": "c", "b": "c"})
        for tree in enumerate_trees(["c"], 3):
            assert projected.accepts(tree), str(tree)


class TestProduct:
    """The bottom-up product against the eager reference construction."""

    def test_random_pairs_match_the_reference(self):
        """210 seeded pairs: the product accepts exactly the trees both
        operands accept, agrees with the eager product on emptiness,
        witnesses are accepted by both operands, and the result is trim."""
        rng = random.Random(0x5A1)
        small_trees = list(enumerate_trees(["a", "b"], 3))
        empties = 0
        for case in range(210):
            left, right = random_nbta(rng), random_nbta(rng)
            product = left.intersection(right)
            for tree in small_trees:
                expected = left.accepts(tree) and right.accepts(tree)
                assert product.accepts(tree) == expected, (case, str(tree))
            assert product.is_empty() == eager_product(left, right).is_empty(), case
            witness = product.witness()
            if witness is None:
                empties += 1
                assert product.is_empty(), case
            else:
                assert left.accepts(witness) and right.accepts(witness), case
            assert product.reachable_states() == product.states, case
            assert product.trimmed().states == product.states, case
        assert 10 <= empties <= 200

    def test_trimmed_is_idempotent_on_products(self):
        product = has_a_automaton().intersection(has_a_automaton())
        again = product.trimmed()
        assert again.states == product.states
        assert again.accepting == product.accepting
        assert again.horizontal.keys() == product.horizontal.keys()

    def test_bibliography_containment_product(self):
        """The decision product on the bibliography DTD: no packing is
        evicted while it is built, and the trimmed product has 12 states
        (the count the eager construction gives)."""
        dtd = parse_dtd(BIBLIOGRAPHY_DTD)
        with obs.collecting() as stats:
            result = decision.pattern_containment_counterexample(
                "//author", "//title", dtd
            )
        assert result is not None
        assert not stats.counters.get("engine.registry_evictions")
        assert stats.counters["antichain.searches"] > 0
        alphabet = sorted(dtd.to_tree_automaton().states, key=repr)
        first = compile_pattern("//author", alphabet).compiled()
        second = compile_pattern("//title", alphabet).compiled()
        marked = decision._marked_dtd_automaton(dtd)
        product = (
            marked.intersection(decision._one_mark_automaton(marked.alphabet))
            .intersection(first.to_nbta())
            .intersection(second.complement().to_nbta())
        )
        assert len(product.states) == 12
        assert product.trimmed().states == product.states
