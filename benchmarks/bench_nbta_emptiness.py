"""Experiment L5.2: NBTA^u non-emptiness is PTIME.

Workload: random NBTA^u with a growing number of vertical states (the
horizontal languages are random letterwise NFAs).  Measured: the
reachability fixpoint on Python-int frontier masks — polynomial growth,
in contrast to the EXPTIME procedures of bench_nonemptiness.py — and
witness extraction.
"""

import random

import pytest

from repro.strings.nfa import NFA
from repro.unranked.nbta import UnrankedTreeAutomaton

SIZES = [4, 8, 16]


def random_nbta(states_count: int, seed: int) -> UnrankedTreeAutomaton:
    rng = random.Random(seed)
    states = [f"q{i}" for i in range(states_count)]
    labels = ["a", "b"]
    horizontal = {}
    for state in states:
        for label in labels:
            if rng.random() < 0.4:
                continue
            # Random letterwise NFA over the vertical states.
            allowed = frozenset(q for q in states if rng.random() < 0.5)
            accept_empty = rng.random() < 0.4
            transitions = {}
            for q in allowed:
                transitions[(0, q)] = frozenset({1})
                transitions[(1, q)] = frozenset({1})
            accepting = {1} | ({0} if accept_empty else set())
            horizontal[(state, label)] = NFA.build(
                {0, 1}, states, transitions, {0}, accepting
            )
    accepting = frozenset(q for q in states if rng.random() < 0.3)
    return UnrankedTreeAutomaton(
        frozenset(states), frozenset(labels), accepting, horizontal
    )


@pytest.mark.parametrize("size", SIZES)
def test_emptiness_fixpoint(benchmark, size):
    nbta = random_nbta(size, size)
    benchmark(nbta.is_empty)


@pytest.mark.parametrize("size", SIZES)
def test_witness_extraction(benchmark, size):
    nbta = random_nbta(size, size + 1)
    witness = benchmark(nbta.witness)
    if witness is not None:
        assert nbta.accepts(witness)
