"""Section 6 on strings: QA^string non-emptiness/containment/equivalence."""

import itertools
import random

import pytest

from repro.decision.strings import (
    selection_language,
    string_containment_counterexample,
    string_queries_equivalent,
    string_query_witness,
)
from repro.strings.examples import (
    endpoints_if_contains,
    odd_ones_query_automaton,
    sweep_right_dfa_as_qa,
)
from repro.strings.twoway import LEFT_MARKER, StringQueryAutomaton, TwoWayDFA

from ..conftest import random_total_dfa

ALPHABET = ("a", "b")

#: Every word of length ≤ 4 — the brute-force side of the random checks.
SHORT_WORDS = [
    list(letters)
    for n in range(5)
    for letters in itertools.product(ALPHABET, repeat=n)
]


def random_qa(rng: random.Random, rate: float = 0.3) -> StringQueryAutomaton:
    """A one-way QA sweeping right through a random total DFA.

    (Two-way Hopcroft–Ullman machines blow up the determinized search
    space: fine for one decision, too slow for hundreds.)
    """
    dfa = random_total_dfa(rng, ALPHABET)
    right = {(state, LEFT_MARKER): dfa.initial for state in dfa.states}
    right.update(dfa.transitions)
    automaton = TwoWayDFA.build(
        dfa.states, ALPHABET, dfa.initial, dfa.accepting, {}, right
    )
    selecting = frozenset(
        (state, symbol)
        for state in sorted(dfa.states, key=repr)
        for symbol in ALPHABET
        if rng.random() < rate
    )
    return StringQueryAutomaton(automaton, selecting)


class TestSelectionLanguage:
    def test_exact_on_exhaustive_words(self):
        qa = odd_ones_query_automaton()
        language = selection_language(qa, ["0", "1"])
        for n in range(7):
            for letters in itertools.product("01", repeat=n):
                word = list(letters)
                selected = qa.evaluate(word)
                for i in range(1, n + 1):
                    marked = [
                        (symbol, 1 if j + 1 == i else 0)
                        for j, symbol in enumerate(word)
                    ]
                    assert language.accepts(marked) == (i in selected), (word, i)

    def test_exact_for_two_way_endpoint_query(self):
        qa = endpoints_if_contains("01", "1")
        language = selection_language(qa, ["0", "1"])
        for n in range(6):
            for letters in itertools.product("01", repeat=n):
                word = list(letters)
                selected = qa.evaluate(word)
                for i in range(1, n + 1):
                    marked = [
                        (symbol, 1 if j + 1 == i else 0)
                        for j, symbol in enumerate(word)
                    ]
                    assert language.accepts(marked) == (i in selected), (word, i)

    def test_language_rejects_unmarked_and_double_marked(self):
        qa = odd_ones_query_automaton()
        language = selection_language(qa, ["0", "1"])
        assert not language.accepts([("1", 0), ("1", 0)])
        assert not language.accepts([("1", 1), ("1", 1)])


class TestStringDecisions:
    def test_nonemptiness_witness(self):
        qa = odd_ones_query_automaton()
        result = string_query_witness(qa, ["0", "1"])
        assert result is not None
        word, position = result
        assert position in qa.evaluate(word)

    def test_empty_query(self):
        """A QA^string with empty λ selects nothing, everywhere."""
        qa = odd_ones_query_automaton()
        from repro.strings.twoway import StringQueryAutomaton

        never = StringQueryAutomaton(qa.automaton, frozenset())
        assert string_query_witness(never, ["0", "1"]) is None

    def test_containment_both_ways(self):
        endpoints = endpoints_if_contains("01", "1")
        all_ones = sweep_right_dfa_as_qa("01", ["1"])
        cx = string_containment_counterexample(endpoints, all_ones, ["0", "1"])
        assert cx is not None
        word, position = cx
        assert position in endpoints.evaluate(word)
        assert position not in all_ones.evaluate(word)
        cx2 = string_containment_counterexample(all_ones, endpoints, ["0", "1"])
        assert cx2 is not None  # e.g. a middle 1 is not an endpoint

    def test_equivalence(self):
        qa = odd_ones_query_automaton()
        assert string_queries_equivalent(qa, qa, ["0", "1"])
        assert not string_queries_equivalent(
            qa, sweep_right_dfa_as_qa("01", ["1"]), ["0", "1"]
        )

    def test_equivalence_of_distinct_machines_same_query(self):
        """A one-way and a two-way machine computing the same query."""
        one_way = sweep_right_dfa_as_qa("01", ["1"])  # select all 1s
        # Two-way variant: Example 3.4's walker but selecting 1s in both
        # sweep states (s1 and s2), i.e. every 1 — the same query.
        from repro.strings.twoway import StringQueryAutomaton

        base = odd_ones_query_automaton()
        both_sweeps = StringQueryAutomaton(
            base.automaton, frozenset({("s1", "1"), ("s2", "1")})
        )
        assert string_queries_equivalent(one_way, both_sweeps, ["0", "1"])


class TestRandomQueries:
    def test_witness_is_selected(self):
        """220 seeded QAs: every witness is selected by ``qa.evaluate``;
        without one, no short word has a selected position."""
        rng = random.Random(0xF1)
        nonempty = 0
        for case in range(220):
            qa = random_qa(rng)
            witness = string_query_witness(qa, ALPHABET)
            if witness is None:
                assert not any(qa.evaluate(word) for word in SHORT_WORDS), case
                continue
            nonempty += 1
            word, position = witness
            assert position in qa.evaluate(word), case
        assert 5 <= nonempty <= 215

    def test_counterexample_separates(self):
        """110 seeded pairs: every containment counterexample is selected
        by the first query and not the second; without one, the first
        query's selections on short words are contained in the second's."""
        rng = random.Random(0xF2)
        found = 0
        for case in range(110):
            first, second = random_qa(rng), random_qa(rng)
            counterexample = string_containment_counterexample(
                first, second, ALPHABET
            )
            if counterexample is None:
                for word in SHORT_WORDS:
                    assert first.evaluate(word) <= second.evaluate(word), case
                continue
            found += 1
            word, position = counterexample
            assert position in first.evaluate(word), case
            assert position not in second.evaluate(word), case
        assert 5 <= found <= 105
