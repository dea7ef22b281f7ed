"""Differential suite: the numpy kernel ≡ the table/naive engines.

Every ``engine="numpy"`` path must be *byte-identical* to its oracle —
same results on well-behaved machines, same exception types and messages
on ill-behaved ones — across ≥200 seeded random cases per family.  The
suite also proves the import-optional contract: with numpy simulated
absent, every entry point silently degrades to the default engine and
counts an ``npkernel.fallbacks`` event.
"""

import os
import random

import pytest

from repro import obs
from repro.perf import batch_evaluate, fast_evaluate, fast_transduce
from repro.perf import npkernel
from repro.perf.parallel import parallel_map
from repro.perf.registry import numpy_kernel
from repro.strings.behavior import BehaviorError
from repro.strings.dfa import AutomatonError
from repro.strings.examples import (
    endpoints_if_contains,
    multi_sweep_query_automaton,
    odd_ones_gsqa,
    odd_ones_query_automaton,
)
from repro.strings.hopcroft_ullman import hopcroft_ullman_gsqa
from repro.strings.twoway import (
    LEFT_MARKER,
    RIGHT_MARKER,
    NonTerminatingRunError,
    StringQueryAutomaton,
    TwoWayDFA,
)

from ..conftest import all_words, random_total_dfa

ALPHABET = ("a", "b")

needs_numpy = pytest.mark.skipif(
    not npkernel.available(), reason="numpy not installed"
)


def _random_word(rng, alphabet=ALPHABET, max_length=10):
    return [rng.choice(alphabet) for _ in range(rng.randrange(max_length + 1))]


def _random_hu_gsqa(rng):
    forward = random_total_dfa(rng, ALPHABET)
    backward = random_total_dfa(rng, ALPHABET)
    return hopcroft_ullman_gsqa(forward, backward)


def _random_qa(rng, automaton, rate=0.25):
    states = sorted(automaton.states, key=repr)
    selecting = frozenset(
        (state, symbol)
        for state in states
        for symbol in ALPHABET
        if rng.random() < rate
    )
    return StringQueryAutomaton(automaton, selecting)


def _random_raw_2dfa(rng, alphabet=ALPHABET, max_states=3):
    n = rng.randint(1, max_states)
    left_moves = {}
    right_moves = {}
    for state in range(n):
        for cell in [*alphabet, LEFT_MARKER, RIGHT_MARKER]:
            roll = rng.random()
            if cell != RIGHT_MARKER and roll < 0.45:
                right_moves[(state, cell)] = rng.randrange(n)
            elif cell != LEFT_MARKER and roll < 0.8:
                left_moves[(state, cell)] = rng.randrange(n)
    accepting = {state for state in range(n) if rng.random() < 0.5}
    return TwoWayDFA.build(
        list(range(n)), alphabet, 0, accepting, left_moves, right_moves
    )


def _outcome(call, *args, **kwargs):
    """(tag, value-or-error-identity) — the byte-identity comparison unit."""
    try:
        return ("ok", call(*args, **kwargs))
    except (NonTerminatingRunError, BehaviorError, AutomatonError) as exc:
        return ("err", type(exc).__name__, str(exc))


@needs_numpy
class TestQueryDifferential:
    def test_random_halting_machines_agree(self):
        """≥200 random Lemma 3.10 machines: numpy ≡ table, per word."""
        rng = random.Random(0xD1)
        for case in range(220):
            qa = _random_qa(rng, _random_hu_gsqa(rng).automaton)
            word = _random_word(rng)
            expected = fast_evaluate(qa, word)
            assert fast_evaluate(qa, word, engine="numpy") == expected, (
                case,
                word,
            )

    def test_examples_exhaustively(self):
        for qa, alphabet in [
            (odd_ones_query_automaton(), "01"),
            (endpoints_if_contains("ab", "a"), "ab"),
            (multi_sweep_query_automaton(3), "01"),
        ]:
            for word in all_words(list(alphabet), 6):
                assert fast_evaluate(qa, word, engine="numpy") == qa.evaluate(
                    word
                ), word

    def test_raw_random_machines_same_errors(self):
        """Ill-behaved 2DFAs: identical exception types AND messages."""
        rng = random.Random(0xD2)
        for case in range(250):
            qa = _random_qa(rng, _random_raw_2dfa(rng), rate=0.3)
            word = _random_word(rng, max_length=6)
            expected = _outcome(fast_evaluate, qa, word)
            observed = _outcome(fast_evaluate, qa, word, engine="numpy")
            assert observed == expected, (case, word)


@needs_numpy
class TestTransduceDifferential:
    def test_random_halting_machines_agree(self):
        rng = random.Random(0xD3)
        for case in range(220):
            gsqa = _random_hu_gsqa(rng)
            word = _random_word(rng)
            expected = fast_transduce(gsqa, word)
            assert fast_transduce(gsqa, word, engine="numpy") == expected, (
                case,
                word,
            )

    def test_example_3_6_exhaustively(self):
        gsqa = odd_ones_gsqa()
        for word in all_words(["0", "1"], 6):
            assert fast_transduce(gsqa, word, engine="numpy") == gsqa.transduce(
                word
            )

    def test_missing_output_same_message(self):
        gsqa = _random_hu_gsqa(random.Random(0xD4))
        broken = type(gsqa)(gsqa.automaton, {}, gsqa.gamma)
        word = ["a", "b"]
        expected = _outcome(fast_transduce, broken, word)
        assert expected[0] == "err"
        assert _outcome(fast_transduce, broken, word, engine="numpy") == expected


@needs_numpy
class TestBatchDifferential:
    def test_batch_evaluate_engine_numpy(self):
        """One flat ragged scan ≡ per-word dict evaluation, in order."""
        rng = random.Random(0xD5)
        qa = _random_qa(rng, _random_hu_gsqa(rng).automaton)
        words = [_random_word(rng, max_length=20) for _ in range(60)]
        assert batch_evaluate(qa, words, engine="numpy") == batch_evaluate(
            qa, words
        )

    def test_batch_transduce_engine_numpy(self):
        rng = random.Random(0xD6)
        gsqa = _random_hu_gsqa(rng)
        words = [_random_word(rng, max_length=20) for _ in range(60)]
        assert batch_evaluate(gsqa, words, engine="numpy") == batch_evaluate(
            gsqa, words
        )

    def test_empty_and_degenerate_batches(self):
        """No words, and batches made only of empty/short words."""
        qa = odd_ones_query_automaton()
        gsqa = odd_ones_gsqa()
        assert batch_evaluate(qa, [], engine="numpy") == []
        assert batch_evaluate(gsqa, [], engine="numpy") == []
        for words in (["", "", ""], ["", "1", ""]):
            assert batch_evaluate(qa, words, engine="numpy") == [
                qa.evaluate(word) for word in words
            ]
            assert batch_evaluate(gsqa, words, engine="numpy") == [
                gsqa.transduce(word) for word in words
            ]

    def test_batch_with_anomalous_words_falls_back_per_word(self):
        """A batch mixing good and poisoned words answers the good ones
        vectorized and routes only the bad ones to the dict engine."""
        rng = random.Random(0xD7)
        engine = None
        for _ in range(300):
            qa = _random_qa(rng, _random_raw_2dfa(rng), rate=0.3)
            word = _random_word(rng, max_length=6)
            expected = _outcome(fast_evaluate, qa, word)
            if expected[0] == "err":
                engine = npkernel.query_engine(qa)
                bad_word = word
                break
        assert engine is not None, "no anomalous machine found"
        good = [[], ["a"], ["b", "a"]]
        outcomes = [
            _outcome(engine.evaluate_batch, [w, bad_word]) for w in good
        ]
        for (w, outcome) in zip(good, outcomes):
            # The batch raises the bad word's error only when reached —
            # after the good word produced its (discarded) result, i.e.
            # identical to a per-word dict loop hitting bad_word second.
            assert outcome == _outcome(
                lambda: [fast_evaluate(qa, w), fast_evaluate(qa, bad_word)]
            ), w

    def test_counters(self):
        qa = odd_ones_query_automaton()
        with obs.collecting() as stats:
            batch_evaluate(qa, [["0", "1"], ["1"]], engine="numpy")
        counters = stats.report()["counters"]
        assert counters["npkernel.batches"] >= 1
        assert counters["npkernel.sweeps"] >= 2
        assert counters["batch.inputs"] == 2


@needs_numpy
class TestSequenceInputs:
    def test_str_and_list_interchangeable(self):
        qa = odd_ones_query_automaton()
        gsqa = odd_ones_gsqa()
        for text in ["", "1", "0110", "111101"]:
            assert fast_evaluate(qa, text, engine="numpy") == qa.evaluate(text)
            assert fast_transduce(gsqa, text, engine="numpy") == gsqa.transduce(
                list(text)
            )


class TestImportOptionalFallback:
    """The no-numpy contract — runs in every environment (numpy absence
    is *simulated* by monkeypatching the kernel's module handle)."""

    def test_fast_evaluate_falls_back_and_counts(self, monkeypatch):
        monkeypatch.setattr(npkernel, "np", None)
        qa = odd_ones_query_automaton()
        with obs.collecting() as stats:
            result = fast_evaluate(qa, "0110", engine="numpy")
        assert result == qa.evaluate("0110")
        assert stats.report()["counters"]["npkernel.fallbacks"] >= 1

    def test_fast_transduce_falls_back(self, monkeypatch):
        monkeypatch.setattr(npkernel, "np", None)
        gsqa = odd_ones_gsqa()
        assert fast_transduce(gsqa, "01", engine="numpy") == gsqa.transduce(
            "01"
        )

    def test_batch_evaluate_falls_back(self, monkeypatch):
        monkeypatch.setattr(npkernel, "np", None)
        qa = odd_ones_query_automaton()
        words = [["0"], ["1", "1"]]
        with obs.collecting() as stats:
            result = batch_evaluate(qa, words, engine="numpy")
        assert result == batch_evaluate(qa, words)
        assert stats.report()["counters"]["npkernel.fallbacks"] == 1

    def test_unknown_engine_rejected(self):
        qa = odd_ones_query_automaton()
        with pytest.raises(
            ValueError, match="unknown engine 'warp-drive': valid engines are"
        ):
            fast_evaluate(qa, "01", engine="warp-drive")
        with pytest.raises(ValueError):
            numpy_kernel("warp-drive")

    def test_default_engines_never_touch_numpy(self, monkeypatch):
        monkeypatch.setattr(npkernel, "np", None)
        qa = odd_ones_query_automaton()
        with obs.collecting() as stats:
            fast_evaluate(qa, "0110")
            batch_evaluate(qa, [["0"]])
        assert "npkernel.fallbacks" not in stats.report()["counters"]


@needs_numpy
class TestKernelInternals:
    def test_overflow_kills_kernel_permanently(self, monkeypatch):
        qa = multi_sweep_query_automaton(2)
        engine = npkernel.NumpyQueryEngine(qa)
        monkeypatch.setattr(npkernel, "MAX_SWEEP_STATES", 1)
        with obs.collecting() as stats:
            assert engine.evaluate("0101") == qa.evaluate("0101")
        counters = stats.report()["counters"]
        assert counters["npkernel.overflows"] == 1
        assert engine.sweep.dead
        # Dead kernels route every later word to the dict engine without
        # recounting overflows.
        with obs.collecting() as stats:
            assert engine.evaluate("11") == qa.evaluate("11")
        counters = stats.report()["counters"]
        assert "npkernel.overflows" not in counters
        assert counters["npkernel.word_fallbacks"] >= 1

    def test_prefix_compose_matches_sequential(self):
        np = npkernel.np
        rng = random.Random(0xD9)
        for _ in range(20):
            size = rng.randint(1, 6)
            count = rng.randint(1, 33)
            rows = np.array(
                [
                    [rng.randrange(size) for _ in range(size)]
                    for _ in range(count)
                ],
                dtype=np.int32,
            )
            expected = []
            state_map = list(range(size))
            for row in rows:
                state_map = [int(row[s]) for s in state_map]
                expected.append(list(state_map))
            composed = npkernel._prefix_compose(rows.copy())
            assert composed.tolist() == expected

    def test_registries_are_named_caches(self):
        providers = obs.cache_providers()
        for name in (
            "perf.np_sweeps",
            "perf.np_query_engines",
            "perf.np_transducers",
        ):
            assert name in providers
            snapshot = providers[name]()
            assert set(snapshot) == {
                "size",
                "capacity",
                "hits",
                "misses",
                "evictions",
            }


@needs_numpy
class TestParallelWorkers:
    """``jobs=N`` workers running the numpy kernel ≡ the serial answer."""

    JOBS = int(os.environ.get("REPRO_PARALLEL_JOBS", "2"))

    def test_string_query(self):
        qa = odd_ones_query_automaton()
        rng = random.Random(0xD9)
        corpus = [_random_word(rng, ("0", "1"), 15) for _ in range(30)]
        observed = parallel_map(qa, corpus, jobs=self.JOBS, engine="numpy")
        assert observed == [qa.evaluate(word) for word in corpus]

    def test_transducer(self):
        gsqa = odd_ones_gsqa()
        rng = random.Random(0xDA)
        corpus = [_random_word(rng, ("0", "1"), 15) for _ in range(30)]
        observed = parallel_map(gsqa, corpus, jobs=self.JOBS, engine="numpy")
        assert repr(observed) == repr([gsqa.transduce(word) for word in corpus])
