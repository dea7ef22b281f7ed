"""The numpy transition kernel: dense automata, vectorized sweeps.

The dict engines of :mod:`repro.perf.strings` pay a few Python dict hits
per position; this module compiles the same Theorem 3.9 recurrences into
*dense integer arrays* and evaluates whole words (and whole batches of
words) with array gathers and a logarithmic prefix-composition scan:

* :class:`DenseSweep` — the two sweep recurrences of one
  :class:`~repro.strings.twoway.TwoWayDFA` closed into transition
  matrices over interned *sweep states* ``(f⁻, first, cell)`` and
  *assumed* set ids.  A word's forward trajectory is then the prefix
  composition of per-position columns — computed for a whole batch at
  once by Hillis–Steele doubling (``O(S · N log N)`` vectorized work
  instead of ``O(N)`` sequential dict hits), with per-word *reset*
  letters giving an offset-indexed ragged layout: many words ride in one
  flat scan.
* :class:`NumpyQueryEngine` / :class:`NumpyTransducerEngine` — selection
  and GSQA output as boolean/code matrix gathers over the swept data,
  selectable as ``engine="numpy"`` through
  :func:`repro.perf.strings.fast_evaluate` /
  :func:`~repro.perf.strings.fast_transduce` /
  :func:`repro.perf.batch.batch_evaluate`.

Callers reach this module only through
:func:`repro.perf.registry.numpy_kernel`, which imports it on the first
``engine="numpy"`` request — default-engine paths never load numpy.
numpy is optional.  Every entry point degrades to the dict engines when
it is missing (counted as ``npkernel.fallbacks``), and any per-word
anomaly — an entry the closure could not compute because the underlying
machine cycles there, a capped table, a malformed run — falls back to
the dict engine for that word (``npkernel.word_fallbacks``), so results
and raised errors are *identical by construction* to the oracle's.  The
seeded differential suites in ``tests/perf/test_npkernel.py`` enforce
this.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from .. import obs
from ..strings.twoway import (
    BOTTOM,
    LEFT_MARKER,
    RIGHT_MARKER,
    GeneralizedStringQA,
    NonTerminatingRunError,
    StringQueryAutomaton,
    as_symbol_sequence,
)
from ..strings.dfa import AutomatonError
from .registry import EngineRegistry
from .table import BehaviorTable

try:  # pragma: no cover - exercised via the availability tests
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

Symbol = Hashable

#: Sentinel sweep/assumed id for "the dict recurrence raised here" — the
#: closure records it instead of raising, and a trajectory touching it
#: sends that word to the dict engine (which raises or answers exactly
#: as the oracle would).
POISON = 0

#: Size caps for the dense spaces; a kernel that outgrows them is dead
#: and routes every call to the dict engine (``npkernel.overflows``).
MAX_SWEEP_STATES = 8192
MAX_ASSUMED_IDS = 8192
MAX_BACK_LETTERS = 16384

#: Cap on distinct transition-monoid elements tracked by a
#: :class:`_MonoidScan`; outgrowing it falls back to the (correct but
#: slower) matrix-row doubling scan, not to the dict engine.
MAX_MONOID = 1024

#: GSQA output codes below which no real output value is encoded.
_CODE_BOTTOM = 0
_CODE_CONFLICT = 1


def available() -> bool:
    """Is numpy importable in this process?"""
    return np is not None


class KernelOverflowError(RuntimeError):
    """A dense space outgrew its cap; the kernel falls back permanently."""


# ----------------------------------------------------------------------
# The prefix-composition scan
# ----------------------------------------------------------------------


def _prefix_compose(functions):
    """In-place Hillis–Steele prefix composition of function rows.

    ``functions`` is an ``(N, S)`` int array; row ``i`` is a function on
    ``range(S)``.  Afterwards row ``i`` is the composition ``f_i ∘ … ∘
    f_0`` (earliest applied first): ``log₂ N`` rounds of one aligned
    gather each, instead of ``N`` sequential applications.
    """
    count = len(functions)
    jump = 1
    while jump < count:
        functions[jump:] = np.take_along_axis(
            functions[jump:], functions[:-jump], axis=1
        )
        jump <<= 1
    return functions


class _MonoidOverflow(Exception):
    """A scan's transition monoid outgrew :data:`MAX_MONOID`."""


class _MonoidScan:
    """Prefix composition over interned transition-monoid element ids.

    The function rows a sweep composes are drawn from the (typically
    tiny) transition monoid they generate.  Interning each distinct row
    to an id and composing *ids* through a lazily filled Cayley table
    turns every doubling round of :func:`_prefix_compose` — an ``(N, S)``
    aligned gather — into one 1-D int32 gather, an ``S``-fold saving per
    round.  New products are composed on demand from the stored rows
    (each distinct pair exactly once, ever), so results are identical to
    the matrix scan by construction.
    """

    def __init__(self, matrix) -> None:
        self._size = int(matrix.shape[1])
        self._ids: dict[bytes, int] = {}
        self._count = 0
        capacity = 64
        self.rows = np.empty((capacity, self._size), dtype=np.int32)
        self.comp = np.full((capacity, capacity), -1, dtype=np.int32)
        self.identity = self._intern(np.arange(self._size, dtype=np.int32))
        base = np.ascontiguousarray(matrix, dtype=np.int32)
        self.letters = np.fromiter(
            (self._intern(row) for row in base), np.int32, count=len(base)
        )

    def _grow(self) -> None:
        capacity = len(self.rows) * 2
        rows = np.empty((capacity, self._size), dtype=np.int32)
        rows[: self._count] = self.rows[: self._count]
        comp = np.full((capacity, capacity), -1, dtype=np.int32)
        comp[: self._count, : self._count] = self.comp[
            : self._count, : self._count
        ]
        self.rows, self.comp = rows, comp

    def _intern(self, row) -> int:
        key = row.tobytes()
        found = self._ids.get(key)
        if found is None:
            if self._count >= MAX_MONOID:
                raise _MonoidOverflow
            if self._count >= len(self.rows):
                self._grow()
            found = self._count
            self.rows[found] = row
            self._ids[key] = found
            self._count += 1
        return found

    def constant(self, value: int) -> int:
        """The constant function ``s -> value`` as a monoid element.

        Word boundaries in a flat multi-word scan are these constants —
        like the matrix path's reset/seed rows, they absorb everything
        composed before them, so words cannot leak into each other.
        """
        return self._intern(
            np.full(self._size, value, dtype=np.int32)
        )

    def compose_scan(self, ids):
        """In-place doubling scan: ``ids[i]`` becomes ``e_i ∘ … ∘ e_0``."""
        count = len(ids)
        jump = 1
        while jump < count:
            later, earlier = ids[jump:], ids[: count - jump]
            found = self.comp[later, earlier]
            missing = found < 0
            if missing.any():
                pairs = np.unique(
                    np.stack([later[missing], earlier[missing]], axis=1),
                    axis=0,
                )
                for a, b in pairs.tolist():
                    self.comp[a, b] = self._intern(
                        self.rows[a][self.rows[b]]
                    )
                found = self.comp[later, earlier]
            ids[jump:] = found
            jump <<= 1
        return ids


# ----------------------------------------------------------------------
# Dense two-sweep kernel for one 2DFA
# ----------------------------------------------------------------------


class DenseSweep:
    """Both Theorem 3.9 sweeps of one 2DFA as dense transition matrices.

    Shared per automaton (via an :class:`EngineRegistry`) between the
    query and transducer engines, exactly as the dict engines share one
    :class:`~repro.perf.table.BehaviorTable` — which this class uses as
    its micro-oracle to fill matrix entries, so every dense entry is the
    interned dict recurrence's answer by construction.
    """

    def __init__(self, automaton) -> None:
        self.automaton = automaton
        self.table = BehaviorTable.for_automaton(automaton)
        self.dead = False
        # Cells (symbols + markers) interned to contiguous ids.
        self._cell_ids: dict = {}
        self._cells: list = []
        # Sweep states: (pair_id, cell_id); pair = (function_id, first).
        # Id 0 is POISON.
        self._pairs: list[tuple[int, object]] = [(-1, None)]
        self._pair_ids: dict[tuple[int, object], int] = {}
        self._sweep_states: list[tuple[int, int]] = [(-1, -1)]
        self._sweep_ids: dict[tuple[int, int], int] = {}
        # Forward transitions: cell id -> column (list over sweep ids).
        self._fwd_cols: dict[int, list[int]] = {}
        # Backward letters: (next_cell_id, pair_id) -> letter id; columns
        # over assumed ids (assumed id = table set id + 1; 0 is POISON).
        self._bletters: list[tuple[int, int]] = []
        self._bletter_ids: dict[tuple[int, int], int] = {}
        self._bwd_cols: list[list[int]] = []
        # Per-sweep-state caches.
        self._seed_aids: list[int] = [POISON]
        self._first_defined: list[bool] = [False]
        # Materialized ndarrays (rebuilt when the dict tables grow).
        self._fwd_matrix = None
        self._fwd_stamp = None
        self._bwd_matrix = None
        self._bwd_stamp = None
        # Monoid-id scans over the matrices (None: matrix fallback).
        self._fwd_scan = None
        self._fwd_scan_stamp = None
        self._fwd_monoid_ok = True
        self._bwd_scan = None
        self._bwd_scan_stamp = None
        self._bwd_monoid_ok = True
        # Dense (cell, pair) -> backward-letter id lookup.
        self._bletter_table = None
        self._lm = self._intern_cell(LEFT_MARKER)
        self._rm = self._intern_cell(RIGHT_MARKER)
        base_pair = self._intern_pair(self.table.base_id, automaton.initial)
        self.base = self._intern_sweep(base_pair, self._lm)

    # -- interning -------------------------------------------------------

    def _intern_cell(self, cell) -> int:
        found = self._cell_ids.get(cell)
        if found is None:
            found = len(self._cells)
            self._cells.append(cell)
            self._cell_ids[cell] = found
        return found

    def _intern_pair(self, function_id: int, first) -> int:
        key = (function_id, first)
        found = self._pair_ids.get(key)
        if found is None:
            found = len(self._pairs)
            self._pairs.append(key)
            self._pair_ids[key] = found
            self._seed_aids.append(-1)  # lazy
            self._first_defined.append(first is not None)
        return found

    def _intern_sweep(self, pair_id: int, cell_id: int) -> int:
        key = (pair_id, cell_id)
        found = self._sweep_ids.get(key)
        if found is None:
            found = len(self._sweep_states)
            if found > MAX_SWEEP_STATES:
                raise KernelOverflowError("sweep-state space overflow")
            self._sweep_states.append(key)
            self._sweep_ids[key] = found
        return found

    def _intern_bletter(self, cell_id: int, pair_id: int) -> int:
        key = (cell_id, pair_id)
        found = self._bletter_ids.get(key)
        if found is None:
            found = len(self._bletters)
            if found > MAX_BACK_LETTERS:
                raise KernelOverflowError("backward-letter space overflow")
            self._bletters.append(key)
            self._bletter_ids[key] = found
            self._bwd_cols.append([])
        return found

    # -- scalar recurrence fills (the dict oracle, poison on raise) ------

    def _fwd_step(self, sweep_id: int, cell_id: int) -> int:
        if sweep_id == POISON:
            return POISON
        pair_id, prev_cell_id = self._sweep_states[sweep_id]
        function_id, first = self._pairs[pair_id]
        previous = self._cells[prev_cell_id]
        cell = self._cells[cell_id]
        table = self.table
        try:
            next_function = table.step(function_id, previous, cell)
            next_first = table.first_step(function_id, first, previous)
        except NonTerminatingRunError:
            return POISON
        return self._intern_sweep(
            self._intern_pair(next_function, next_first), cell_id
        )

    def _bwd_step(self, bletter_id: int, assumed_id: int) -> int:
        if assumed_id == POISON:
            return POISON
        cell_id, pair_id = self._bletters[bletter_id]
        function_id, first = self._pairs[pair_id]
        try:
            next_set = self.table.assumed_step(
                assumed_id - 1, self._cells[cell_id], function_id, first
            )
        except NonTerminatingRunError:
            return POISON
        return next_set + 1

    def seed_aid(self, sweep_id: int) -> int:
        """The assumed id seeding the backward pass at ``rightmost``."""
        if sweep_id == POISON:
            return POISON
        pair_id, _cell = self._sweep_states[sweep_id]
        found = self._seed_aids[pair_id]
        if found < 0:
            function_id, first = self._pairs[pair_id]
            try:
                found = self.table.seed_id(function_id, first) + 1
            except NonTerminatingRunError:
                found = POISON
            self._seed_aids[pair_id] = found
        return found

    def _sweep_first_defined(self):
        """Per-*sweep-state* "is ``first`` defined" mask (POISON: False)."""
        defined = self._first_defined
        return np.array(
            [False]
            + [defined[pair_id] for pair_id, _cell in self._sweep_states[1:]],
            dtype=bool,
        )

    # -- closure ---------------------------------------------------------

    def _close_forward(self) -> None:
        """Complete every cell's column over every sweep state (fixpoint)."""
        filled = 0
        while True:
            grew = False
            for cell_id in range(len(self._cells)):
                column = self._fwd_cols.setdefault(cell_id, [POISON])
                while len(column) < len(self._sweep_states):
                    column.append(self._fwd_step(len(column), cell_id))
                    filled += 1
                    grew = True
            if not grew and all(
                len(self._fwd_cols.get(c, ())) == len(self._sweep_states)
                for c in range(len(self._cells))
            ):
                break
        if filled:
            obs.SINK.incr("npkernel.closure_steps", filled)

    def _assumed_count(self) -> int:
        return self.table.set_count() + 1

    def _close_backward(self) -> None:
        """Complete every backward letter's column over every assumed id.

        Filling may intern *new* assumed sets in the shared table, so the
        loop runs to a fixpoint; the cap bounds pathological machines.
        """
        filled = 0
        while True:
            count = self._assumed_count()
            if count > MAX_ASSUMED_IDS:
                raise KernelOverflowError("assumed-space overflow")
            grew = False
            for letter_id, column in enumerate(self._bwd_cols):
                if len(column) < count:
                    if not column:
                        column.append(POISON)
                    while len(column) < count:
                        column.append(self._bwd_step(letter_id, len(column)))
                        filled += 1
                    grew = True
            if not grew and self._assumed_count() == count:
                break
        if filled:
            obs.SINK.incr("npkernel.closure_steps", filled)

    # -- materialized matrices ------------------------------------------

    def forward_matrix(self):
        """``(cells+1, S)`` int32: per-cell columns plus the reset row."""
        self._close_forward()
        stamp = (len(self._cells), len(self._sweep_states))
        if self._fwd_stamp != stamp:
            rows = [self._fwd_cols[c] for c in range(len(self._cells))]
            rows.append([self.base] * len(self._sweep_states))  # reset
            self._fwd_matrix = np.array(rows, dtype=np.int32)
            self._fwd_stamp = stamp
            obs.SINK.incr("npkernel.rebuilds")
            obs.SINK.gauge_max("npkernel.sweep_states", stamp[1])
        return self._fwd_matrix

    def backward_matrix(self, seed_aids: Sequence[int]):
        """``(letters + seeds, A)`` int32 plus the seed-row index map."""
        self._close_backward()
        stamp = (len(self._bwd_cols), self._assumed_count())
        if self._bwd_stamp != stamp:
            base = (
                np.array(self._bwd_cols, dtype=np.int32)
                if self._bwd_cols
                else np.empty((0, stamp[1]), dtype=np.int32)
            )
            self._bwd_matrix = base
            self._bwd_stamp = stamp
            obs.SINK.incr("npkernel.rebuilds")
            obs.SINK.gauge_max("npkernel.assumed_ids", stamp[1])
        distinct = sorted(set(seed_aids))
        seed_rows = {
            aid: len(self._bwd_cols) + index
            for index, aid in enumerate(distinct)
        }
        if distinct:
            const = np.repeat(
                np.array(distinct, dtype=np.int32)[:, None],
                self._bwd_stamp[1],
                axis=1,
            )
            matrix = np.concatenate([self._bwd_matrix, const], axis=0)
        else:
            matrix = self._bwd_matrix
        return matrix, seed_rows

    # -- monoid-id scans -------------------------------------------------

    def _forward_scan(self):
        """The monoid scan over the forward matrix (None: use matrices)."""
        if not self._fwd_monoid_ok:
            return None
        if self._fwd_scan is None or self._fwd_scan_stamp != self._fwd_stamp:
            try:
                # The reset row is replaced by the monoid identity plus a
                # base-column readout, so only the cell rows are letters.
                self._fwd_scan = _MonoidScan(self._fwd_matrix[:-1])
            except _MonoidOverflow:
                self._fwd_monoid_ok = False
                self._fwd_scan = None
                obs.SINK.incr("npkernel.monoid_fallbacks")
            self._fwd_scan_stamp = self._fwd_stamp
        return self._fwd_scan

    def _backward_scan(self):
        """The monoid scan over the seedless backward matrix."""
        if not self._bwd_monoid_ok:
            return None
        if self._bwd_scan is None or self._bwd_scan_stamp != self._bwd_stamp:
            try:
                self._bwd_scan = _MonoidScan(self._bwd_matrix)
            except _MonoidOverflow:
                self._bwd_monoid_ok = False
                self._bwd_scan = None
                obs.SINK.incr("npkernel.monoid_fallbacks")
            self._bwd_scan_stamp = self._bwd_stamp
        return self._bwd_scan

    def _bletter_lookup(self, cells, pairs):
        """Vectorized ``(next cell, pair) -> backward letter id`` interning."""
        table = self._bletter_table
        n_cells, n_pairs = len(self._cells), len(self._pairs)
        if (
            table is None
            or table.shape[0] < n_cells
            or table.shape[1] < n_pairs
        ):
            table = np.full((n_cells, n_pairs), -1, dtype=np.int32)
            for letter_id, (cell_id, pair_id) in enumerate(self._bletters):
                table[cell_id, pair_id] = letter_id
            self._bletter_table = table
        found = table[cells, pairs]
        missing = found < 0
        if missing.any():
            combos = np.unique(
                np.stack([cells[missing], pairs[missing]], axis=1), axis=0
            )
            for cell_id, pair_id in combos.tolist():
                table[cell_id, pair_id] = self._intern_bletter(
                    cell_id, pair_id
                )
            found = table[cells, pairs]
        return found

    # -- the batched two-sweep scan --------------------------------------

    def sweep_batch(self, words: Sequence[tuple]):
        """Both sweeps for a whole batch, in two flat doubling scans.

        Returns, per word, ``(cell_ids, assumed_ids, rightmost)`` —
        int32 arrays over marked positions ``0 … n+1`` — or ``None``
        where the word must be answered by the dict engine.
        """
        if self.dead:
            raise KernelOverflowError("kernel is dead")
        if not words:
            return []
        cell_ids = self._cell_ids
        for word in words:
            for symbol in word:
                if symbol not in cell_ids:
                    self._intern_cell(symbol)
        fwd = self.forward_matrix()

        # Forward: flat [reset/identity, cells 1..n+1] per word — the
        # constant reset row restarts each word's composition at base.
        word_cells = []
        for word in words:
            ids = np.empty(len(word) + 2, dtype=np.int32)
            ids[0] = self._lm
            if word:
                ids[1:-1] = np.fromiter(
                    (cell_ids[symbol] for symbol in word),
                    np.int32,
                    count=len(word),
                )
            ids[-1] = self._rm
            word_cells.append(ids)
        states = self._forward_states(fwd, word_cells)
        total_positions = len(states)

        pair_of = np.fromiter(
            (pair_id for pair_id, _cell in self._sweep_states),
            np.int32,
            count=len(self._sweep_states),
        )
        first_defined = self._sweep_first_defined()
        results: list = [None] * len(words)
        sweeps: list = [None] * len(words)
        offset = 0
        for index, word in enumerate(words):
            span = len(word) + 2
            trajectory = states[offset : offset + span]
            offset += span
            if (trajectory == POISON).any():
                continue
            defined = first_defined[trajectory]
            rightmost = int(np.nonzero(defined)[0][-1])
            seed = self.seed_aid(int(trajectory[rightmost]))
            if seed == POISON:
                continue
            sweeps[index] = (trajectory, rightmost, seed)

        # Backward: flat reversed [seed, letters rightmost-1 .. 0] per word.
        back_parts = []
        spans = []
        seeds = []
        for index, word in enumerate(words):
            if sweeps[index] is None:
                continue
            trajectory, rightmost, seed = sweeps[index]
            seeds.append(seed)
            letters = np.empty(rightmost + 1, dtype=np.int32)
            if rightmost:
                cells = word_cells[index]
                letters[1:] = self._bletter_lookup(
                    cells[1 : rightmost + 1], pair_of[trajectory[:rightmost]]
                )[::-1]
            spans.append((index, rightmost + 1))
            back_parts.append(letters)
        if back_parts:
            assumed_flat = self._backward_values(back_parts, seeds)
            offset = 0
            empty_aid = self.table.empty_set_id + 1
            for (index, span), part in zip(spans, back_parts):
                values = assumed_flat[offset : offset + span]
                offset += span
                if (values == POISON).any():
                    continue
                trajectory, rightmost, _seed = sweeps[index]
                cells = word_cells[index]
                assumed = np.full(len(cells), empty_aid, dtype=np.int32)
                assumed[rightmost :: -1] = values  # noqa: E203
                results[index] = (cells, assumed, rightmost)
        sink = obs.SINK
        if sink.enabled:
            sink.incr("npkernel.sweeps", len(words))
            sink.incr("npkernel.scan_positions", int(total_positions))
        return results

    def _forward_states(self, fwd, word_cells):
        """Flat forward trajectories (sweep ids) for concatenated words."""
        scan = self._forward_scan()
        if scan is not None:
            try:
                reset = scan.constant(self.base)
                parts = []
                for ids in word_cells:
                    part = np.empty(len(ids), dtype=np.int32)
                    part[0] = reset
                    part[1:] = scan.letters[ids[1:]]
                    parts.append(part)
                composed = scan.compose_scan(np.concatenate(parts))
            except _MonoidOverflow:
                self._fwd_monoid_ok = False
                self._fwd_scan = None
                obs.SINK.incr("npkernel.monoid_fallbacks")
            else:
                return scan.rows[composed, self.base]
        reset_row = fwd.shape[0] - 1
        parts = []
        for ids in word_cells:
            part = np.empty(len(ids), dtype=np.int32)
            part[0] = reset_row
            part[1:] = ids[1:]
            parts.append(part)
        flat = np.concatenate(parts)
        return _prefix_compose(fwd[flat])[:, self.base]

    def _backward_values(self, back_parts, seeds):
        """Flat assumed-id values for the reversed backward parts.

        ``back_parts`` hold backward-letter ids from slot 1 on; slot 0 is
        the per-word seed — the monoid identity read out at the seed
        column, or a constant seed row under the matrix fallback.
        """
        bwd, seed_rows = self.backward_matrix(seeds)
        scan = self._backward_scan()
        if scan is not None:
            try:
                parts = []
                for letters, seed in zip(back_parts, seeds):
                    part = np.empty(len(letters), dtype=np.int32)
                    part[0] = scan.constant(seed)
                    part[1:] = scan.letters[letters[1:]]
                    parts.append(part)
                composed = scan.compose_scan(np.concatenate(parts))
            except _MonoidOverflow:
                self._bwd_monoid_ok = False
                self._bwd_scan = None
                obs.SINK.incr("npkernel.monoid_fallbacks")
            else:
                return scan.rows[composed, 0]
        for letters, seed in zip(back_parts, seeds):
            letters[0] = seed_rows[seed]
        flat_back = np.concatenate(back_parts)
        return _prefix_compose(bwd[flat_back])[:, 0]


_SWEEPS: EngineRegistry[DenseSweep] = EngineRegistry(
    DenseSweep, name="perf.np_sweeps"
)


# ----------------------------------------------------------------------
# Readout engines
# ----------------------------------------------------------------------


class _ReadoutEngine:
    """Shared plumbing: the dense sweep plus lazily rebuilt readout
    matrices over ``(assumed id, cell id)``."""

    def __init__(self, automaton) -> None:
        self.sweep = _SWEEPS.get(automaton)
        self._matrices = None
        self._stamp = None

    def _readout(self):
        sweep = self.sweep
        stamp = (sweep._assumed_count(), len(sweep._cells))
        if self._stamp != stamp:
            self._matrices = self._build_readout(*stamp)
            self._stamp = stamp
        return self._matrices

    def _halting_matrices(self, assumed_count, cell_count):
        """Count of halting states and acceptance per (assumed, cell)."""
        sweep = self.sweep
        table, accepting = sweep.table, sweep.automaton.accepting
        counts = np.zeros((assumed_count, cell_count), dtype=np.int8)
        accepts = np.zeros((assumed_count, cell_count), dtype=bool)
        for aid in range(1, assumed_count):
            for cid, cell in enumerate(sweep._cells):
                halters = table.halting_states(aid - 1, cell)
                counts[aid, cid] = min(len(halters), 127)
                if len(halters) == 1:
                    accepts[aid, cid] = halters[0] in accepting
        return counts, accepts

    def _dict_fallback(self, word):
        raise NotImplementedError

    def _finish(self, word, swept):
        raise NotImplementedError

    def _batch(self, words: Sequence) -> list:
        words = [as_symbol_sequence(word) for word in words]
        sweep = self.sweep
        sink = obs.SINK
        if sweep.dead:
            swept: list = [None] * len(words)
        else:
            try:
                swept = sweep.sweep_batch(words)
            except KernelOverflowError:
                sweep.dead = True
                sink.incr("npkernel.overflows")
                swept = [None] * len(words)
        results = []
        for word, data in zip(words, swept):
            if data is None:
                sink.incr("npkernel.word_fallbacks")
                results.append(self._dict_fallback(word))
            else:
                results.append(self._finish(word, data))
        return results


class NumpyQueryEngine(_ReadoutEngine):
    """``engine="numpy"`` evaluator for one :class:`StringQueryAutomaton`."""

    def __init__(self, qa: StringQueryAutomaton) -> None:
        super().__init__(qa.automaton)
        self.qa = qa

    def _build_readout(self, assumed_count, cell_count):
        sweep = self.sweep
        table, selecting = sweep.table, self.qa.selecting
        select = np.zeros((assumed_count, cell_count), dtype=bool)
        for aid in range(1, assumed_count):
            states = table.assumed_set(aid - 1)
            for cid, cell in enumerate(sweep._cells):
                select[aid, cid] = any(
                    (state, cell) in selecting for state in states
                )
        counts, accepts = self._halting_matrices(assumed_count, cell_count)
        return select, counts, accepts

    def _dict_fallback(self, word):
        from .strings import _QUERY_ENGINES

        return _QUERY_ENGINES.get(self.qa).evaluate(word)

    def _finish(self, word, swept) -> frozenset[int]:
        cells, assumed, rightmost = swept
        select, counts, accepts = self._readout()
        live_assumed = assumed[: rightmost + 1]
        live_cells = cells[: rightmost + 1]
        halting = counts[live_assumed, live_cells]
        if int(halting.sum()) != 1:
            obs.SINK.incr("npkernel.word_fallbacks")
            return self._dict_fallback(word)  # raises the oracle's error
        position = int(np.nonzero(halting)[0][0])
        if not accepts[int(assumed[position]), int(cells[position])]:
            return frozenset()
        stop = min(rightmost, len(word))
        hits = select[assumed[1 : stop + 1], cells[1 : stop + 1]]
        return frozenset((np.nonzero(hits)[0] + 1).tolist())

    def evaluate(self, word) -> frozenset[int]:
        """Selected positions; ≡ the dict engine and the naive oracle."""
        obs.SINK.incr("npkernel.evaluations")
        return self._batch([word])[0]

    def evaluate_batch(self, words: Sequence) -> list:
        """One flat scan for many words (offset-indexed ragged layout)."""
        obs.SINK.incr("npkernel.batches")
        return self._batch(words)


class NumpyTransducerEngine(_ReadoutEngine):
    """``engine="numpy"`` transducer for one :class:`GeneralizedStringQA`."""

    def __init__(self, gsqa: GeneralizedStringQA) -> None:
        super().__init__(gsqa.automaton)
        self.gsqa = gsqa
        self._values: list = []

    def _build_readout(self, assumed_count, cell_count):
        sweep = self.sweep
        table, output = sweep.table, self.gsqa.output
        value_codes: dict = {}
        self._values = []
        codes = np.zeros((assumed_count, cell_count), dtype=np.int32)
        for aid in range(1, assumed_count):
            states = table.assumed_set(aid - 1)
            for cid, cell in enumerate(sweep._cells):
                value = BOTTOM
                conflict = False
                for state in states:
                    candidate = output.get((state, cell), BOTTOM)
                    if candidate is BOTTOM:
                        continue
                    if value is not BOTTOM and value != candidate:
                        conflict = True
                        break
                    value = candidate
                if conflict:
                    codes[aid, cid] = _CODE_CONFLICT
                elif value is not BOTTOM:
                    code = value_codes.get(value)
                    if code is None:
                        code = len(self._values) + 2
                        value_codes[value] = code
                        self._values.append(value)
                    codes[aid, cid] = code
        counts, accepts = self._halting_matrices(assumed_count, cell_count)
        return codes, counts

    def _dict_fallback(self, word):
        from .strings import _TRANSDUCERS

        return _TRANSDUCERS.get(self.gsqa).transduce(word)

    def _finish(self, word, swept) -> tuple:
        cells, assumed, rightmost = swept
        codes, counts = self._readout()
        halting = counts[assumed[: rightmost + 1], cells[: rightmost + 1]]
        if int(halting.sum()) != 1:
            obs.SINK.incr("npkernel.word_fallbacks")
            return self._dict_fallback(word)  # raises the oracle's error
        stop = min(rightmost, len(word))
        outputs = np.zeros(len(word), dtype=np.int32)
        outputs[:stop] = codes[assumed[1 : stop + 1], cells[1 : stop + 1]]
        conflicts = np.nonzero(outputs == _CODE_CONFLICT)[0]
        if len(conflicts):
            raise AutomatonError(
                f"two outputs at position {int(conflicts[0]) + 1}"
            )
        missing = (np.nonzero(outputs == _CODE_BOTTOM)[0] + 1).tolist()
        if missing:
            raise AutomatonError(f"no output at positions {missing!r} of {word!r}")
        values = self._values
        return tuple(values[code - 2] for code in outputs.tolist())

    def transduce(self, word) -> tuple:
        """``M(w)``; ≡ the dict engine and the naive oracle."""
        obs.SINK.incr("npkernel.transductions")
        return self._batch([word])[0]

    def transduce_batch(self, words: Sequence) -> list:
        """One flat scan for many words."""
        obs.SINK.incr("npkernel.batches")
        return self._batch(words)


_NP_QUERY_ENGINES: EngineRegistry = EngineRegistry(
    NumpyQueryEngine, name="perf.np_query_engines"
)
_NP_TRANSDUCERS: EngineRegistry = EngineRegistry(
    NumpyTransducerEngine, name="perf.np_transducers"
)


def query_engine(qa: StringQueryAutomaton) -> NumpyQueryEngine:
    """The shared numpy evaluator of ``qa`` (requires numpy)."""
    return _NP_QUERY_ENGINES.get(qa)


def transducer_engine(gsqa: GeneralizedStringQA) -> NumpyTransducerEngine:
    """The shared numpy transducer of ``gsqa`` (requires numpy)."""
    return _NP_TRANSDUCERS.get(gsqa)
