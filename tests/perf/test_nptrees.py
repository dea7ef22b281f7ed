"""Differential suite for the vectorized tree kernel (``engine="numpy"``).

The dict engines of :mod:`repro.perf.trees` and the uncached evaluators
are the oracles: across the seeded sweeps below (> 500 trees in total,
plus adversarial shapes — deep chains, wide flat fans, heavily shared
subtree types, single-node and empty-label documents) the numpy engines
must return identical results *and raise identical errors*.  The
no-numpy and overflow paths must degrade silently behind the
``npkernel.*`` fallback counters, and ``jobs=N`` workers running the
kernel must return the serial answer.
"""

import os
import random

import pytest

from repro import obs
from repro.core.patterns import compile_pattern
from repro.perf import nptrees
from repro.perf.batch import batch_evaluate, evaluate_one
from repro.perf.parallel import parallel_map
from repro.perf.registry import numpy_kernel
from repro.perf.trees import fast_evaluate_marked, fast_evaluate_unranked
from repro.strings.dfa import DFA
from repro.trees.generators import (
    flat_tree,
    random_tree,
    random_unranked_circuit,
)
from repro.trees.tree import Tree
from repro.unranked.dbta import (
    DeterministicUnrankedAutomaton,
    HorizontalClassifier,
    evaluate_marked_query,
)
from repro.unranked.examples import (
    circuit_query_automaton,
    circuit_reference_query,
    first_one_sqa,
)

requires_numpy = pytest.mark.skipif(
    not nptrees.available(), reason="numpy not installed"
)

LABELS = ("a", "b", "c")
PATTERNS = ("//a", "//a[has(b)]", "/a/b")


def _pair(label, bit):
    return (label, bit)


def _random_trees(seed, count, max_size=40, labels=LABELS):
    rng = random.Random(seed)
    return [
        random_tree(rng.randrange(1, max_size), list(labels), seed_or_rng=rng)
        for _ in range(count)
    ]


def _deep_chain(depth=300):
    tree = Tree("a", ())
    for _ in range(depth):
        tree = Tree("a", (Tree("b", ()), tree))
    return tree


def _shared_forest(seed=11):
    """A tree whose subtrees repeat heavily (few distinct types)."""
    rng = random.Random(seed)
    sub = random_tree(15, list(LABELS), seed_or_rng=rng)
    layer = Tree("b", (sub,) * 8)
    return Tree("a", (layer,) * 6 + (sub,) * 4)


ADVERSARIAL = [
    _deep_chain(),
    flat_tree(["a", "b", "c"] * 300, root="a"),
    _shared_forest(),
    Tree("a", ()),
    Tree("b", ()),
]


class TestMarkedDifferential:
    """Figure 5: numpy vs the dict engine vs the uncached two-pass."""

    @pytest.mark.parametrize("pattern", PATTERNS)
    @requires_numpy
    def test_seeded_random_trees(self, pattern):
        query = compile_pattern(pattern, LABELS)
        automaton = query.compiled()
        for i, tree in enumerate(_random_trees(hash(pattern) & 0xFFFF, 70)):
            table = fast_evaluate_marked(automaton, tree)
            uncached = evaluate_marked_query(automaton, tree, _pair)
            vectorized = fast_evaluate_marked(automaton, tree, engine="numpy")
            assert vectorized == table == uncached, (pattern, i, tree)

    @requires_numpy
    def test_adversarial_shapes(self):
        query = compile_pattern("//a[has(b)]", LABELS)
        automaton = query.compiled()
        for tree in ADVERSARIAL:
            expected = evaluate_marked_query(automaton, tree, _pair)
            assert fast_evaluate_marked(
                automaton, tree, engine="numpy"
            ) == expected

    @requires_numpy
    def test_empty_label_documents(self):
        alphabet = ("", "a")
        query = compile_pattern("//a", alphabet)
        automaton = query.compiled()
        for tree in (
            Tree("", ()),
            Tree("", (Tree("a", ()), Tree("", ()))),
            Tree("a", (Tree("", (Tree("a", ()),)),)),
        ):
            expected = evaluate_marked_query(automaton, tree, _pair)
            assert fast_evaluate_marked(
                automaton, tree, engine="numpy"
            ) == expected

    @requires_numpy
    def test_unknown_label_raises_identically(self):
        query = compile_pattern("//a", LABELS)
        automaton = query.compiled()
        bad = Tree("zzz", ())
        with pytest.raises(KeyError) as oracle_error:
            fast_evaluate_marked(automaton, bad)
        with pytest.raises(KeyError) as numpy_error:
            fast_evaluate_marked(automaton, bad, engine="numpy")
        assert repr(numpy_error.value) == repr(oracle_error.value)

    @requires_numpy
    def test_batch_and_document_paths_agree(self):
        from repro.core.pipeline import Document
        from repro.trees.xml import make_bibliography

        document = Document.from_text(make_bibliography(6, 6))
        assert document.select("//author", engine="numpy") == document.select(
            "//author"
        )
        query = compile_pattern("//author", document.alphabet)
        trees = [document.tree] * 3
        assert batch_evaluate(query, trees, engine="numpy") == batch_evaluate(
            query, trees
        )


class TestUnrankedDifferential:
    """Lemma 5.16: numpy vs the dict engine vs cut simulation."""

    @requires_numpy
    def test_seeded_circuits(self):
        qa = circuit_query_automaton()
        rng = random.Random(0x516)
        for i in range(160):
            tree = random_unranked_circuit(
                rng.randrange(1, 5), max_arity=4, seed_or_rng=rng
            )
            table = fast_evaluate_unranked(qa, tree)
            vectorized = fast_evaluate_unranked(qa, tree, engine="numpy")
            assert vectorized == table, (i, tree)
            assert vectorized == circuit_reference_query(tree), (i, tree)

    @requires_numpy
    def test_stay_sqa_flat_trees(self):
        """Example 5.14: stays route through the oracle's GSQA path."""
        sqa = first_one_sqa()
        rng = random.Random(0x514)
        for i in range(120):
            leaves = [rng.choice("01") for _ in range(rng.randrange(1, 12))]
            tree = flat_tree(leaves, root=rng.choice("01"))
            table = fast_evaluate_unranked(sqa, tree)
            vectorized = fast_evaluate_unranked(sqa, tree, engine="numpy")
            assert vectorized == table == sqa.evaluate(tree), (i, leaves)

    @requires_numpy
    def test_deep_circuit_chain(self):
        qa = circuit_query_automaton()
        tree = Tree("1", ())
        for _ in range(200):
            tree = Tree("AND", (tree,))
        expected = fast_evaluate_unranked(qa, tree)
        assert fast_evaluate_unranked(qa, tree, engine="numpy") == expected

    @requires_numpy
    def test_query_object_dispatch(self):
        from repro.core.query import UnrankedAutomatonQuery

        qa = circuit_query_automaton()
        query = UnrankedAutomatonQuery(qa)
        tree = random_unranked_circuit(3, 3, seed_or_rng=5)
        assert evaluate_one(query, tree, engine="numpy") == evaluate_one(
            query, tree
        )
        assert evaluate_one(query, tree, engine="naive") == evaluate_one(
            query, tree
        )


class TestNaiveEngine:
    """``engine="naive"`` selects the uncached oracles (regression: it
    used to raise through the string-kernel resolver)."""

    def test_batch_naive_matches_default(self):
        query = compile_pattern("//a[has(b)]", LABELS)
        trees = _random_trees(0xA1, 15)
        assert batch_evaluate(query, trees, engine="naive") == batch_evaluate(
            query, trees
        )

    def test_document_select_naive(self):
        from repro.core.pipeline import Document
        from repro.trees.xml import make_bibliography

        document = Document.from_text(make_bibliography(3, 3))
        assert document.select("//author", engine="naive") == document.select(
            "//author"
        )


class TestFallbacks:
    def test_missing_numpy_degrades_with_counter(self, monkeypatch):
        monkeypatch.setattr(nptrees, "np", None)
        query = compile_pattern("//a", LABELS)
        automaton = query.compiled()
        tree = Tree("a", (Tree("b", ()),))
        for evaluate in (
            lambda: fast_evaluate_marked(automaton, tree, engine="numpy"),
            lambda: batch_evaluate(automaton, [tree], engine="numpy")[0],
        ):
            with obs.collecting() as stats:
                result = evaluate()
            assert result == fast_evaluate_marked(automaton, tree)
            counters = stats.report()["counters"]
            assert counters["npkernel.fallbacks"] == 1
            assert "npkernel.tree_evaluations" not in counters

    def test_unknown_engine_rejected(self):
        with pytest.raises(
            ValueError, match="unknown engine 'bogus': valid engines are"
        ):
            numpy_kernel("bogus", trees=True)

    @requires_numpy
    def test_combo_overflow_kills_engine(self, monkeypatch):
        monkeypatch.setattr(nptrees, "MAX_TREE_COMBOS", 0)
        # A pattern no other test compiles, so the engine is built fresh
        # under the patched cap instead of reusing interned combos.
        query = compile_pattern("//a[has(c)]", LABELS)
        automaton = query.compiled()
        tree = Tree("a", (Tree("b", ()),))
        expected = fast_evaluate_marked(automaton, tree)
        with obs.collecting() as stats:
            result = fast_evaluate_marked(automaton, tree, engine="numpy")
        assert result == expected
        counters = stats.report()["counters"]
        assert counters["npkernel.overflows"] == 1
        assert counters["npkernel.tree_fallbacks"] == 1
        # The engine is dead: later calls fall straight back.
        with obs.collecting() as stats:
            assert fast_evaluate_marked(
                automaton, tree, engine="numpy"
            ) == expected
        counters = stats.report()["counters"]
        assert counters["npkernel.tree_fallbacks"] == 1
        assert "npkernel.overflows" not in counters

    @requires_numpy
    def test_set_overflow_kills_unranked_engine(self, monkeypatch):
        monkeypatch.setattr(nptrees, "MAX_TREE_SETS", 0)
        qa = circuit_query_automaton()
        tree = Tree("AND", (Tree("1", ()), Tree("1", ())))
        expected = fast_evaluate_unranked(qa, tree)
        assert expected  # a selecting tree, so the root set must intern
        with obs.collecting() as stats:
            result = fast_evaluate_unranked(qa, tree, engine="numpy")
        assert result == expected
        counters = stats.report()["counters"]
        assert counters["npkernel.overflows"] == 1
        assert counters["npkernel.tree_fallbacks"] == 1

    @requires_numpy
    def test_partial_classifier_falls_back_per_tree(self):
        """A non-total horizontal DFA routes the whole tree to the oracle."""
        dfa = DFA(
            states=frozenset({0, 1}),
            alphabet=frozenset({"v0", "v1"}),
            transitions={(0, "v0"): 1},
            initial=0,
            accepting=frozenset({1}),
        )
        classifier = HorizontalClassifier(dfa, {0: "v0", 1: "v1"})
        automaton = DeterministicUnrankedAutomaton(
            states=frozenset({"v0", "v1"}),
            alphabet=frozenset({("a", 0), ("a", 1)}),
            accepting=frozenset({"v0"}),
            classifiers={("a", 0): classifier, ("a", 1): classifier},
        )
        tree = Tree("a", ())
        expected = evaluate_marked_query(automaton, tree, _pair)
        with obs.collecting() as stats:
            result = fast_evaluate_marked(automaton, tree, engine="numpy")
        assert result == expected
        counters = stats.report()["counters"]
        assert counters["npkernel.tree_fallbacks"] == 1


class TestCountersAndCaching:
    @requires_numpy
    def test_evaluation_counters_fire(self):
        query = compile_pattern("//a", LABELS)
        automaton = query.compiled()
        tree = random_tree(30, list(LABELS), seed_or_rng=3)
        with obs.collecting() as stats:
            fast_evaluate_marked(automaton, tree, engine="numpy")
            fast_evaluate_marked(automaton, tree, engine="numpy")
        counters = stats.report()["counters"]
        assert counters["npkernel.tree_evaluations"] == 2
        assert counters["npkernel.tree_nodes"] == 2 * tree.size
        # Same tree object: one encoding; types interned once globally.
        assert counters["npkernel.tree_encodings"] <= 1

    @requires_numpy
    def test_type_work_shared_across_trees(self):
        """A re-parsed identical tree re-encodes but re-uses every type."""
        query = compile_pattern("//a", LABELS)
        automaton = query.compiled()
        first = Tree.parse("a(b, c(a, b), b)")
        second = Tree.parse("a(b, c(a, b), b)")
        fast_evaluate_marked(automaton, first, engine="numpy")
        with obs.collecting() as stats:
            fast_evaluate_marked(automaton, second, engine="numpy")
        counters = stats.report()["counters"]
        assert "npkernel.tree_types" not in counters


class TestParallelWorkers:
    @requires_numpy
    def test_tree_query_matches_serial(self):
        query = compile_pattern("//a[has(b)]", LABELS)
        corpus = _random_trees(0xE1, 8, max_size=24)
        jobs = int(os.environ.get("REPRO_PARALLEL_JOBS", "2"))
        observed = parallel_map(query, corpus, jobs=jobs, engine="numpy")
        assert repr(observed) == repr([evaluate_one(query, t) for t in corpus])
