"""Pattern-query decision problems over a DTD (the Lemma 5.2 route).

The closure engine decides emptiness/containment for two-way query
automata; for the *pattern* queries of the XML pipeline the same
questions reduce to NBTA^u emptiness over the marked alphabet
``Σ × {0,1}``:

* the DTD's derivation-tree automaton is lifted to marked labels
  (ignoring the bits);
* a two-state automaton enforces exactly one marked node;
* the pattern compiles (through MSO) to a deterministic bottom-up
  automaton over marked trees, used directly for emptiness and via its
  complement for containment.

The intersection's emptiness check runs on the bitset/antichain fixpoint
of :mod:`repro.unranked.nbta`, and a ``budget`` caps the product size
(raising :class:`~repro.decision.closure.BudgetExceededError`).
"""

from __future__ import annotations

from ..core.patterns import compile_pattern
from ..strings.nfa import NFA
from ..trees.dtd import DTD
from ..trees.tree import Path, Tree
from ..unranked.nbta import UnrankedTreeAutomaton
from .closure import BudgetExceededError

#: The marked alphabet bit values.
_BITS = (0, 1)


def _marked_dtd_automaton(dtd: DTD) -> UnrankedTreeAutomaton:
    """The DTD's derivation-tree automaton, lifted to ``Σ × {0,1}``."""
    automaton = dtd.to_tree_automaton()
    alphabet = frozenset(
        (label, bit) for label in automaton.alphabet for bit in _BITS
    )
    horizontal = {}
    for (state, label), nfa in automaton.horizontal.items():
        for bit in _BITS:
            horizontal[(state, (label, bit))] = nfa
    return UnrankedTreeAutomaton(
        automaton.states, alphabet, automaton.accepting, horizontal
    )


def _one_mark_automaton(alphabet: frozenset) -> UnrankedTreeAutomaton:
    """States 0/1 = number of marked nodes in the subtree; accepts 1."""
    states = frozenset({0, 1})
    zeros = NFA.build({"z"}, states, {("z", 0): {"z"}}, {"z"}, {"z"})  # 0*
    one = NFA.build(  # 0*10*
        {"z", "o"},
        states,
        {("z", 0): {"z"}, ("z", 1): {"o"}, ("o", 0): {"o"}},
        {"z"},
        {"o"},
    )
    horizontal = {}
    for label, bit in sorted(alphabet, key=repr):
        if bit:
            horizontal[(1, (label, bit))] = zeros
        else:
            horizontal[(0, (label, bit))] = zeros
            horizontal[(1, (label, bit))] = one
    return UnrankedTreeAutomaton(
        states, frozenset(alphabet), frozenset({1}), horizontal
    )


def _decode_marked_tree(marked: Tree) -> tuple[Tree, Path]:
    """Split a ``Σ × {0,1}`` witness into (plain tree, marked path)."""
    found: list[Path] = []

    def strip(node: Tree, path: Path) -> Tree:
        label, bit = node.label
        if bit:
            found.append(path)
        return Tree(
            label,
            [
                strip(child, path + (index,))
                for index, child in enumerate(node.children)
            ],
        )

    plain = strip(marked, ())
    assert len(found) == 1, "witness must carry exactly one mark"
    return plain, found[0]


def _budgeted_witness(
    product: UnrankedTreeAutomaton, budget: int | None
) -> Tree | None:
    if budget is not None and product.size > budget:
        raise BudgetExceededError(budget, work=product.size)
    return product.witness()


def pattern_query_witness(
    pattern: str, dtd: DTD, budget: int | None = None
) -> tuple[Tree, Path] | None:
    """A DTD-valid tree and node the pattern selects, or ``None``."""
    dtd_marked = _marked_dtd_automaton(dtd)
    query = compile_pattern(pattern, sorted(dtd_marked.states, key=repr))
    product = dtd_marked.intersection(
        _one_mark_automaton(dtd_marked.alphabet)
    ).intersection(query.compiled().to_nbta())
    witness = _budgeted_witness(product, budget)
    if witness is None:
        return None
    return _decode_marked_tree(witness)


def pattern_containment_counterexample(
    first: str, second: str, dtd: DTD, budget: int | None = None
) -> tuple[Tree, Path] | None:
    """A DTD-valid (tree, node) selected by ``first`` but not ``second``."""
    dtd_marked = _marked_dtd_automaton(dtd)
    alphabet = sorted(dtd_marked.states, key=repr)
    first_query = compile_pattern(first, alphabet)
    second_query = compile_pattern(second, alphabet)
    product = (
        dtd_marked.intersection(_one_mark_automaton(dtd_marked.alphabet))
        .intersection(first_query.compiled().to_nbta())
        .intersection(second_query.compiled().complement().to_nbta())
    )
    witness = _budgeted_witness(product, budget)
    if witness is None:
        return None
    return _decode_marked_tree(witness)


def pattern_queries_contained(
    first: str, second: str, dtd: DTD, budget: int | None = None
) -> bool:
    """Is every node ``first`` selects (on DTD-valid trees) selected by ``second``?"""
    return (
        pattern_containment_counterexample(first, second, dtd, budget=budget)
        is None
    )
