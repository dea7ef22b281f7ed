"""NBTA^u (Definition 5.1) and the PTIME emptiness of Lemma 5.2."""

import random

import pytest

from repro.strings.regex import parse_regex, to_nfa
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
