"""The public query API: one interface over every engine in the library.

A *query* (Section 3's definition) maps a tree to a set of its nodes.
The paper provides four ways to get one — an MSO formula with one free
variable, a QA^r, a QA^u/SQA^u, or a compiled marked-alphabet bottom-up
automaton — and three evaluation strategies (naive logic semantics,
two-way simulation, behavior functions / two-pass).  This module wraps
them behind a single :class:`Query` interface so applications (and the
benchmarks) can switch engines freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..logic.compile_trees import compile_tree_query
from ..logic.semantics import tree_query
from ..logic.syntax import Formula, Var
from ..ranked.behavior import evaluate_query_via_behavior as ranked_behavior_eval
from ..ranked.twoway import RankedQueryAutomaton
from ..trees.tree import Path, Tree
from ..unranked.behavior import evaluate_query_via_behavior as unranked_behavior_eval
from ..unranked.dbta import DeterministicUnrankedAutomaton, evaluate_marked_query
from ..unranked.twoway import UnrankedQueryAutomaton


def _check_engine(engine: str, valid: tuple[str, ...]) -> None:
    """Reject a misspelled ``engine=`` when the query is built.

    Raises the uniform :func:`repro.perf.registry.unknown_engine`
    ``ValueError`` rather than silently running the default strategy.
    """
    if engine not in valid:
        from ..perf.registry import unknown_engine

        raise unknown_engine(engine, valid)


class Query:
    """A unary query over Σ-trees."""

    def evaluate(self, tree: Tree) -> frozenset[Path]:
        """The selected nodes of the tree."""
        raise NotImplementedError

    def __call__(self, tree: Tree) -> frozenset[Path]:
        return self.evaluate(tree)


@dataclass
class MSOQuery(Query):
    """A query given by an MSO formula φ(x).

    ``engine`` selects the evaluation strategy:

    * ``"naive"`` — direct model checking (exponential; the oracle);
    * ``"automaton"`` — compile once to a marked-alphabet deterministic
      bottom-up automaton, evaluate with the two-pass algorithm (linear
      per tree; the Figure 5/6 content);
    * ``"fast"`` — like ``"automaton"``, but through the cached
      :mod:`repro.perf` engine: per-node sweeps are memoized by hashed
      subtree type and shared across calls.
    """

    formula: Formula
    var: Var
    alphabet: tuple
    engine: str = "automaton"
    _compiled: DeterministicUnrankedAutomaton | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        _check_engine(self.engine, ("naive", "automaton", "fast"))

    def compiled(self) -> DeterministicUnrankedAutomaton:
        """The marked-alphabet automaton (compiled on first use)."""
        if self._compiled is None:
            self._compiled = compile_tree_query(
                self.formula, self.var, list(self.alphabet)
            )
        return self._compiled

    def evaluate(self, tree: Tree) -> frozenset[Path]:
        """Selected node paths of the tree."""
        if self.engine == "naive":
            return tree_query(tree, self.formula, self.var)
        if self.engine == "fast":
            from ..perf.trees import fast_evaluate_marked

            return fast_evaluate_marked(self.compiled(), tree)
        return evaluate_marked_query(
            self.compiled(), tree, lambda label, bit: (label, bit)
        )


@dataclass
class RankedAutomatonQuery(Query):
    """A query computed by a QA^r (Definition 4.3).

    ``engine``: ``"simulate"`` runs the cut semantics; ``"behavior"`` uses
    the linear-time Lemma 4.7 evaluation.
    """

    automaton: RankedQueryAutomaton
    engine: str = "behavior"

    def __post_init__(self) -> None:
        _check_engine(self.engine, ("simulate", "behavior"))

    def evaluate(self, tree: Tree) -> frozenset[Path]:
        """Selected node paths of the tree."""
        if self.engine == "simulate":
            return self.automaton.evaluate(tree)
        return ranked_behavior_eval(self.automaton, tree)


@dataclass
class UnrankedAutomatonQuery(Query):
    """A query computed by a QA^u or SQA^u (Definitions 5.8, 5.13).

    ``engine``: ``"simulate"`` runs the cut semantics, ``"behavior"`` the
    Lemma 5.16 per-call evaluation, ``"fast"`` the cached
    :mod:`repro.perf` engine (behaviors memoized per subtree type, shared
    across calls).
    """

    automaton: UnrankedQueryAutomaton
    engine: str = "behavior"

    def __post_init__(self) -> None:
        _check_engine(self.engine, ("simulate", "behavior", "fast"))

    def evaluate(self, tree: Tree) -> frozenset[Path]:
        """Selected node paths of the tree."""
        if self.engine == "simulate":
            return self.automaton.evaluate(tree)
        if self.engine == "fast":
            from ..perf.trees import fast_evaluate_unranked

            return fast_evaluate_unranked(self.automaton, tree)
        return unranked_behavior_eval(self.automaton, tree)


@dataclass
class CompiledQuery(Query):
    """A query given directly by a marked-alphabet DBTA^u.

    ``engine``: ``"two_pass"`` re-runs the two-pass algorithm per call;
    ``"fast"`` routes through the cached :mod:`repro.perf` engine.
    """

    automaton: DeterministicUnrankedAutomaton
    engine: str = "two_pass"

    def __post_init__(self) -> None:
        _check_engine(self.engine, ("two_pass", "fast"))

    def evaluate(self, tree: Tree) -> frozenset[Path]:
        """Selected node paths of the tree."""
        if self.engine == "fast":
            from ..perf.trees import fast_evaluate_marked

            return fast_evaluate_marked(self.automaton, tree)
        return evaluate_marked_query(
            self.automaton, tree, lambda label, bit: (label, bit)
        )


def select(query: Query, tree: Tree) -> list[Path]:
    """Selected nodes in document order (convenience)."""
    return sorted(query.evaluate(tree))


def subtrees(query: Query, tree: Tree) -> list[Tree]:
    """The subtrees rooted at the selected nodes, in document order."""
    return [tree.subtree(path) for path in select(query, tree)]
