"""Vectorized tree-query kernel: ``engine="numpy"`` for the serving path.

This module extends the numpy kernel of :mod:`repro.perf.npkernel` from
strings to *trees* — the Lemma 5.16 QA^u/SQA^u evaluator and the
Figure 5 two-phase marked-DBTA^u propagation, i.e. the hot loop behind
``Document.select``:

* :class:`EncodedDocument` — a struct-of-arrays postorder encoding of
  one tree (label ids, arities, child-span offsets into a flat child
  index, level-order node groups), built in one pass and cached per tree
  object, with subtree types interned into a process-global
  :class:`TreeTypeUniverse` so *every* engine shares one type id space;
* per-type work is deduplicated with ``np.unique``: vertical states and
  sibling summaries are computed once per *distinct* subtree type (and
  per distinct ``(type, context)`` / ``(type, Assumed)`` combination),
  not once per node;
* horizontal child-sequence sweeps are dispatched through the existing
  :class:`~repro.perf.npkernel._MonoidScan` transition-monoid Cayley
  scan — the Lemma 3.10 forward/backward sweeps reuse the Theorem 3.9
  machinery the string kernel already built;
* the Figure 5 two-phase propagation runs as level-order array passes: a
  bottom-up per-type state pass, then one vectorized ragged scatter per
  level pushing interned context ids to children.

Callers reach this module through
:func:`repro.perf.registry.numpy_kernel` (``trees=True``), which imports
it only on an ``engine="numpy"`` request.  Every missing-numpy /
overflow / partial-classifier path silently degrades to the dict engines
of :mod:`repro.perf.trees` behind ``npkernel.*`` counters, so results
*and raised errors* are identical by construction to the oracles; the
uncached evaluators remain the differential reference.
"""

from __future__ import annotations

from .. import obs
from ..trees.tree import Path, Tree
from ..unranked.dbta import DeterministicUnrankedAutomaton
from ..unranked.twoway import UnrankedQueryAutomaton
from .npkernel import KernelOverflowError, _MonoidOverflow, _MonoidScan
from .registry import EngineRegistry
from .trees import _MARKED_ENGINES, _UNRANKED_ENGINES

try:  # pragma: no cover - exercised via the availability tests
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

#: Per-type sentinel states: not yet computed / uncomputable with the
#: dense tables (the dict oracle reproduces the exact behavior, errors
#: included, for any tree touching a dead type).
_UNBUILT = -1
_DEAD = -2

#: Caps on the interned propagated-set and ``(type, set)`` combo spaces;
#: an engine that outgrows them is dead and routes every call to the
#: dict engine (``npkernel.overflows``).
MAX_TREE_SETS = 8192
MAX_TREE_COMBOS = 65536

#: Minimum total child-sequence length before a per-label batch is worth
#: routing through the Cayley scan rather than scalar table walks.
_SCAN_THRESHOLD = 16


def available() -> bool:
    """Is numpy importable in this process?"""
    return np is not None


# ----------------------------------------------------------------------
# The shared type universe and the struct-of-arrays document encoding
# ----------------------------------------------------------------------


class TreeTypeUniverse:
    """Process-global interning of labels and subtree types.

    Types are pure shape+label data — ``(label id, child type ids)`` —
    so one universe serves every automaton: a type interned while
    serving one query is a cache hit for the next.  Ids are assigned in
    first-intern order, which is postorder within any single tree, so a
    type's children always have strictly smaller ids than the type —
    ascending id order is a valid bottom-up build order.
    """

    def __init__(self) -> None:
        self._label_ids: dict = {}
        self.labels: list = []
        self._type_ids: dict[tuple[int, tuple[int, ...]], int] = {}
        self.type_label: list[int] = []
        self.type_children: list[tuple[int, ...]] = []

    def label_id(self, label) -> int:
        """The id of ``label`` (interned on first use)."""
        found = self._label_ids.get(label)
        if found is None:
            found = len(self.labels)
            self._label_ids[label] = found
            self.labels.append(label)
        return found

    def intern(self, label_id: int, child_ids: tuple[int, ...]) -> int:
        """The global type id of ``(label, children types)``."""
        key = (label_id, child_ids)
        found = self._type_ids.get(key)
        if found is None:
            found = len(self.type_label)
            self._type_ids[key] = found
            self.type_label.append(label_id)
            self.type_children.append(child_ids)
        return found

    def __len__(self) -> int:
        return len(self.type_label)


#: The one universe per process; worker processes build their own.
UNIVERSE = TreeTypeUniverse()


class EncodedDocument:
    """One tree as flat postorder arrays (automaton-independent).

    Built in a single iterative pass: node ``i`` (postorder) carries its
    global type id, label id, arity and an offset into ``child_index``
    (the postorder indices of its children, grouped per parent), plus
    the node-index arrays of every depth level for the top-down passes
    and the Dewey path per node for result readout.  The root is the
    last postorder index.
    """

    __slots__ = (
        "size",
        "types",
        "labels",
        "arity",
        "child_start",
        "child_index",
        "levels",
        "paths",
        "distinct",
    )

    def __init__(self, tree: Tree, type_memo: dict | None = None) -> None:
        universe = UNIVERSE
        reused = 0
        n = tree.size
        types = np.empty(n, dtype=np.int32)
        labels = np.empty(n, dtype=np.int32)
        arity = np.empty(n, dtype=np.int32)
        child_start = np.empty(n, dtype=np.int32)
        child_index = np.empty(max(0, n - 1), dtype=np.int32)
        depths = np.empty(n, dtype=np.int32)
        paths: list[Path] = [()] * n
        type_of = [0] * n
        index = 0
        cpos = 0
        stack: list = [(tree, (), 0, None)]
        while stack:
            entry = stack.pop()
            if len(entry) == 4:
                node, path, depth, parent_kids = entry
                kids: list[int] = []
                stack.append((node, path, depth, parent_kids, kids))
                children = node.children
                for i in range(len(children) - 1, -1, -1):
                    stack.append((children[i], path + (i,), depth + 1, kids))
            else:
                node, path, depth, parent_kids, kids = entry
                hit = (
                    type_memo.get(id(node))
                    if type_memo is not None
                    else None
                )
                if hit is not None and hit[0] is node:
                    _node, tid, lid = hit
                    reused += 1
                else:
                    lid = universe.label_id(node.label)
                    tid = universe.intern(
                        lid, tuple(type_of[k] for k in kids)
                    )
                    if type_memo is not None:
                        type_memo[id(node)] = (node, tid, lid)
                type_of[index] = tid
                types[index] = tid
                labels[index] = lid
                arity[index] = len(kids)
                child_start[index] = cpos
                for k in kids:
                    child_index[cpos] = k
                    cpos += 1
                depths[index] = depth
                paths[index] = path
                if parent_kids is not None:
                    parent_kids.append(index)
                index += 1
        self.size = n
        self.types = types
        self.labels = labels
        self.arity = arity
        self.child_start = child_start
        self.child_index = child_index
        self.levels = [
            np.nonzero(depths == d)[0]
            for d in range(int(depths.max()) + 1)
        ]
        self.paths = paths
        self.distinct = np.unique(types)
        obs.SINK.incr("npkernel.tree_encodings")
        if reused:
            obs.SINK.incr("npkernel.type_memo_hits", reused)


#: Encoded documents, keyed on the tree object.  ``Tree`` has no
#: ``__weakref__`` slot, so entries hold strong references — the modest
#: capacity bounds how many trees stay resident.
_DOCUMENTS: EngineRegistry[EncodedDocument] = EngineRegistry(
    EncodedDocument, capacity=64, name="perf.tree_documents"
)


def encode(tree: Tree) -> EncodedDocument:
    """The cached struct-of-arrays encoding of ``tree``."""
    return _DOCUMENTS.get(tree)


def encode_with_memo(tree: Tree, type_memo: dict) -> EncodedDocument:
    """An encoding that reuses per-node type ids from earlier encodings.

    ``type_memo`` maps ``id(node) -> (node, type id, label id)`` and is
    updated in place.  After a structural-sharing edit every untouched
    subtree object still hits the memo, so its cached global type id is
    reused verbatim (no interning-dict probes) and only the fresh spine
    and edited fragment are typed anew — the :mod:`repro.serve`
    incremental-maintenance path.  The arrays produced are identical to
    a fresh :class:`EncodedDocument` (verified by the serve differential
    suite).  Bypasses the :func:`encode` registry: the caller owns the
    encoding's lifetime (one per document revision).
    """
    return EncodedDocument(tree, type_memo)


# ----------------------------------------------------------------------
# Small growable-array helpers
# ----------------------------------------------------------------------


class _IdArray:
    """An int32 array over a growing id space, padded with a sentinel."""

    __slots__ = ("data", "fill")

    def __init__(self, fill: int) -> None:
        self.fill = fill
        self.data = np.full(16, fill, dtype=np.int32)

    def ensure(self, size: int) -> None:
        if size <= len(self.data):
            return
        capacity = len(self.data)
        while capacity < size:
            capacity *= 2
        data = np.full(capacity, self.fill, dtype=np.int32)
        data[: len(self.data)] = self.data
        self.data = data


class _Bits:
    """A growable bool vector (per-combo selection hits)."""

    __slots__ = ("data", "count")

    def __init__(self) -> None:
        self.data = np.zeros(64, dtype=bool)
        self.count = 0

    def append(self, value: bool) -> None:
        if self.count >= len(self.data):
            data = np.zeros(len(self.data) * 2, dtype=bool)
            data[: self.count] = self.data[: self.count]
            self.data = data
        self.data[self.count] = value
        self.count += 1


class _FlatRows:
    """Append-only int32 rows in one flat buffer with per-row offsets."""

    __slots__ = ("values", "used", "offsets", "count")

    def __init__(self) -> None:
        self.values = np.empty(64, dtype=np.int32)
        self.used = 0
        self.offsets = np.empty(64, dtype=np.int64)
        self.count = 0

    def append(self, row) -> None:
        width = len(row)
        while self.used + width > len(self.values):
            grown = np.empty(len(self.values) * 2, dtype=np.int32)
            grown[: self.used] = self.values[: self.used]
            self.values = grown
        if self.count >= len(self.offsets):
            grown = np.empty(len(self.offsets) * 2, dtype=np.int64)
            grown[: self.count] = self.offsets[: self.count]
            self.offsets = grown
        self.offsets[self.count] = self.used
        if width:
            self.values[self.used : self.used + width] = row
        self.used += width
        self.count += 1


_EMPTY_I32 = None  # assigned below when numpy is present
if np is not None:
    _EMPTY_I32 = np.empty(0, dtype=np.int32)


# ----------------------------------------------------------------------
# The shared two-phase propagation (Figure 5 / Lemma 5.16 top-down pass)
# ----------------------------------------------------------------------


class _TreePropagator:
    """Level-order propagation of interned per-node sets.

    Both tree engines reduce their top-down phase to the same shape:
    each node carries an interned *set id* (a context for the marked
    engine, an Assumed set for the QA^u engine); for every distinct
    ``(type, set)`` combination the engine computes — exactly once, via
    :meth:`_new_combo` — whether such a node is selected and which set
    id each child receives.  The per-level pass is then pure array work:
    one ``np.unique`` over packed ``(type, set)`` keys, a gather for the
    hit mask, and a ragged ``np.repeat``/``cumsum`` scatter pushing the
    pooled child rows to the children.
    """

    def _init_propagation(self) -> None:
        self._combo_ids: dict[tuple[int, int], int] = {}
        self._combo_hits = _Bits()
        self._combo_rows = _FlatRows()

    def _new_combo(self, type_id: int, set_id: int):
        raise NotImplementedError  # pragma: no cover - subclass hook

    def _combo(self, type_id: int, set_id: int) -> int:
        key = (type_id, set_id)
        found = self._combo_ids.get(key)
        if found is None:
            if len(self._combo_ids) >= MAX_TREE_COMBOS:
                raise KernelOverflowError(
                    f"more than {MAX_TREE_COMBOS} (type, set) combinations"
                )
            hit, row = self._new_combo(type_id, set_id)
            found = self._combo_rows.count
            self._combo_rows.append(row)
            self._combo_hits.append(hit)
            self._combo_ids[key] = found
        return found

    def _propagate(self, enc: EncodedDocument, root_sid: int):
        """Per-node selection hits for the whole tree, level by level."""
        sids = np.full(enc.size, -1, dtype=np.int64)
        sids[enc.size - 1] = root_sid
        hits = np.zeros(enc.size, dtype=bool)
        for nodes in enc.levels:
            keys = (enc.types[nodes].astype(np.int64) << 32) | sids[nodes]
            uniq, inverse = np.unique(keys, return_inverse=True)
            cids = np.empty(len(uniq), dtype=np.int64)
            for j, key in enumerate(uniq.tolist()):
                cids[j] = self._combo(key >> 32, key & 0xFFFFFFFF)
            node_cids = cids[inverse]
            hits[nodes] = self._combo_hits.data[node_cids]
            ar = enc.arity[nodes]
            active = np.nonzero(ar)[0]
            if not len(active):
                continue
            a_nodes = nodes[active]
            a_ar = ar[active]
            a_cids = node_cids[active]
            total = int(a_ar.sum())
            rep = np.repeat(np.arange(len(a_nodes)), a_ar)
            starts = np.cumsum(a_ar) - a_ar
            pos = np.arange(total) - starts[rep]
            src = self._combo_rows.offsets[a_cids][rep] + pos
            dst = enc.child_index[enc.child_start[a_nodes][rep] + pos]
            sids[dst] = self._combo_rows.values[src]
        return hits


# ----------------------------------------------------------------------
# Figure 5: the marked-alphabet DBTA^u engine (the XML serving path)
# ----------------------------------------------------------------------


class _LabelTables:
    """Dense per-label classifier tables over interned state ids.

    ``delta0``/``delta1`` are ``(V, H+1)`` int32 next-state tables for
    the ``(label, 0)`` / ``(label, 1)`` horizontal DFAs — row ``v`` is
    the monoid letter "read child state ``v``", with horizontal id 0 the
    absorbing poison for missing transitions.  ``classify*`` map
    horizontal ids back to vertical ids (-1 at poison).  ``partial``
    flags a non-total DFA: trees touching such a label fall back
    wholesale so the dict oracle reproduces its exact error.
    """

    __slots__ = (
        "delta0",
        "classify0",
        "initial0",
        "delta1",
        "classify1",
        "initial1",
        "partial",
        "_scans",
    )

    def __init__(
        self, delta0, classify0, initial0, delta1, classify1, initial1, partial
    ) -> None:
        self.delta0 = delta0
        self.classify0 = classify0
        self.initial0 = initial0
        self.delta1 = delta1
        self.classify1 = classify1
        self.initial1 = initial1
        self.partial = partial
        self._scans: list = [None, None]

    def scan(self, which: int):
        """The lazily built Cayley scan over this table's letters.

        Returns ``None`` (permanently) once the transition monoid
        outgrows its cap — callers then use the scalar table walk, which
        is slower but identical (``npkernel.monoid_fallbacks``).
        """
        found = self._scans[which]
        if found is None:
            delta = self.delta0 if which == 0 else self.delta1
            try:
                found = _MonoidScan(np.ascontiguousarray(delta))
            except _MonoidOverflow:
                obs.SINK.incr("npkernel.monoid_fallbacks")
                found = False
            self._scans[which] = found
        return found if found is not False else None


class NumpyMarkedEngine(_TreePropagator):
    """Vectorized Figure 5 propagation for one pair-marked DBTA^u.

    Per distinct subtree type the bottom-up phase stores the vertical
    states of the unmarked and marked readings (``np.unique`` over the
    encoded tree dedupes the work; batches of new types with one label
    go through the transition-monoid Cayley scan).  The top-down phase
    interns contexts as bool masks over vertical ids and runs the
    shared level-order propagation; per ``(type, context)`` combination
    the Lemma 3.10 forward/backward sibling sweep is vectorized over the
    vertical state axis and computed once, ever.
    """

    def __init__(self, automaton: DeterministicUnrankedAutomaton) -> None:
        self.automaton = automaton
        self.dead = np is None
        if self.dead:  # pragma: no cover - engines are not built without numpy
            return
        self._vstates = sorted(automaton.states, key=repr)
        self._vids = {state: i for i, state in enumerate(self._vstates)}
        self._nv = len(self._vstates)
        self._accept_mask = np.fromiter(
            (state in automaton.accepting for state in self._vstates),
            dtype=bool,
            count=self._nv,
        )
        self._tstate = _IdArray(_UNBUILT)
        self._tmarked = _IdArray(_UNBUILT)
        self._labels: dict[int, _LabelTables | None] = {}
        self._set_ids: dict[bytes, int] = {}
        self._set_masks: list = []
        self._root_sid_cache: int | None = None
        self._init_propagation()

    # -- per-label dense tables -----------------------------------------

    def _dense(self, classifier):
        dfa = classifier.dfa
        hstates = sorted(dfa.states, key=repr)
        hid = {h: i + 1 for i, h in enumerate(hstates)}
        width = len(hstates) + 1
        delta = np.zeros((self._nv, width), dtype=np.int32)
        written = 0
        for (h, v), nh in dfa.transitions.items():
            vi = self._vids.get(v)
            hi = hid.get(h)
            if vi is None or hi is None:
                continue
            delta[vi, hi] = hid[nh]
            written += 1
        partial = written < self._nv * len(hstates)
        classify = np.full(width, -1, dtype=np.int32)
        for h, v in classifier.classify.items():
            vi = self._vids.get(v)
            if vi is not None:
                classify[hid[h]] = vi
        partial = partial or bool((classify[1:] < 0).any())
        return delta, classify, hid[dfa.initial], partial

    def _label_tables(self, label_id: int) -> _LabelTables | None:
        found = self._labels.get(label_id, _UNBUILT)
        if found is not _UNBUILT:
            return found
        label = UNIVERSE.labels[label_id]
        classifiers = self.automaton.classifiers
        plain = classifiers.get((label, 0))
        marked = classifiers.get((label, 1))
        if plain is None or marked is None:
            # The dict oracle raises its exact KeyError for this label.
            self._labels[label_id] = None
            return None
        delta0, classify0, initial0, partial0 = self._dense(plain)
        delta1, classify1, initial1, partial1 = self._dense(marked)
        tables = _LabelTables(
            delta0, classify0, initial0,
            delta1, classify1, initial1,
            partial0 or partial1,
        )
        self._labels[label_id] = tables
        return tables

    # -- bottom-up phase: per-type vertical states ----------------------

    def _run_seq(self, delta, initial: int, states) -> int:
        here = initial
        for v in states.tolist():
            here = int(delta[v, here])
        return here

    def _scan_finals(self, tables: _LabelTables, which: int, seqs):
        scan = tables.scan(which)
        if scan is None:
            return None
        initial = tables.initial0 if which == 0 else tables.initial1
        boundary = scan.constant(initial)
        total = sum(len(seq) for seq in seqs) + len(seqs)
        flat = np.empty(total, dtype=np.int32)
        ends = np.empty(len(seqs), dtype=np.int64)
        offset = 0
        for i, seq in enumerate(seqs):
            flat[offset] = boundary
            flat[offset + 1 : offset + 1 + len(seq)] = scan.letters[seq]
            offset += 1 + len(seq)
            ends[i] = offset - 1
        try:
            composed = scan.compose_scan(flat)
        except _MonoidOverflow:
            obs.SINK.incr("npkernel.monoid_fallbacks")
            tables._scans[which] = False
            return None
        obs.SINK.incr("npkernel.tree_scans")
        return scan.rows[composed[ends]][:, 0].tolist()

    def _build_group(self, label_id: int, group: list[int]) -> None:
        universe = UNIVERSE
        tstate, tmarked = self._tstate.data, self._tmarked.data
        tables = self._label_tables(label_id)
        if tables is None or tables.partial:
            for t in group:
                tstate[t] = tmarked[t] = _DEAD
            return
        ready: list[int] = []
        seqs: list = []
        for t in group:
            kids = universe.type_children[t]
            if kids:
                states = tstate[np.asarray(kids, dtype=np.int64)]
                if (states < 0).any():
                    tstate[t] = tmarked[t] = _DEAD
                    continue
            else:
                states = _EMPTY_I32
            ready.append(t)
            seqs.append(states)
        if not ready:
            return
        finals0 = finals1 = None
        if len(ready) > 1 and sum(len(s) for s in seqs) >= _SCAN_THRESHOLD:
            finals0 = self._scan_finals(tables, 0, seqs)
            finals1 = self._scan_finals(tables, 1, seqs)
        if finals0 is None:
            finals0 = [
                self._run_seq(tables.delta0, tables.initial0, s) for s in seqs
            ]
        if finals1 is None:
            finals1 = [
                self._run_seq(tables.delta1, tables.initial1, s) for s in seqs
            ]
        for t, h0, h1 in zip(ready, finals0, finals1):
            tstate[t] = tables.classify0[h0]
            tmarked[t] = tables.classify1[h1]

    def _ensure_types(self, enc: EncodedDocument) -> None:
        universe = UNIVERSE
        self._tstate.ensure(len(universe))
        self._tmarked.ensure(len(universe))
        state = self._tstate.data
        todo = enc.distinct[state[enc.distinct] == _UNBUILT]
        if not len(todo):
            return
        obs.SINK.incr("npkernel.tree_types", int(len(todo)))
        # Dependency rounds: ascending ids guarantee progress (children
        # have smaller ids), batching sibling-ready types per label so
        # each round's horizontal sweeps share one Cayley scan.
        pending = todo.tolist()
        while pending:
            rest: list[int] = []
            by_label: dict[int, list[int]] = {}
            for t in pending:
                if all(
                    state[c] != _UNBUILT for c in universe.type_children[t]
                ):
                    by_label.setdefault(universe.type_label[t], []).append(t)
                else:
                    rest.append(t)
            for label_id, group in by_label.items():
                self._build_group(label_id, group)
            pending = rest

    # -- top-down phase: interned contexts ------------------------------

    def _intern_mask(self, mask) -> int:
        key = mask.tobytes()
        found = self._set_ids.get(key)
        if found is None:
            if len(self._set_masks) >= MAX_TREE_SETS:
                raise KernelOverflowError(
                    f"more than {MAX_TREE_SETS} distinct contexts"
                )
            found = len(self._set_masks)
            self._set_ids[key] = found
            self._set_masks.append(np.ascontiguousarray(mask))
        return found

    def _root_sid(self) -> int:
        if self._root_sid_cache is None:
            self._root_sid_cache = self._intern_mask(self._accept_mask)
        return self._root_sid_cache

    def _new_combo(self, type_id: int, set_id: int):
        universe = UNIVERSE
        mask = self._set_masks[set_id]
        hit = bool(mask[self._tmarked.data[type_id]])
        kids = universe.type_children[type_id]
        if not kids:
            return hit, _EMPTY_I32
        tables = self._labels[universe.type_label[type_id]]
        delta0 = tables.delta0
        states = self._tstate.data[np.asarray(kids, dtype=np.int64)]
        count = len(kids)
        # Forward sweep: the horizontal state *before* each child.
        forward = np.empty(count, dtype=np.int32)
        here = tables.initial0
        states_list = states.tolist()
        for i, v in enumerate(states_list):
            forward[i] = here
            here = int(delta0[v, here])
        # Backward sweep: which horizontal states still reach a state
        # classifying into the context (vectorized over H).
        good = np.zeros(delta0.shape[1], dtype=bool)
        classified = tables.classify0 >= 0
        good[classified] = mask[tables.classify0[classified]]
        backward = np.empty((count + 1, delta0.shape[1]), dtype=bool)
        backward[count] = good
        for i in range(count - 1, -1, -1):
            backward[i] = backward[i + 1][delta0[states_list[i]]]
        # Child context i: vertical states driving forward[i] into
        # backward[i+1] — one gather over the whole vertical axis.
        row = np.empty(count, dtype=np.int32)
        for i in range(count):
            row[i] = self._intern_mask(backward[i + 1][delta0[:, forward[i]]])
        return hit, row

    # -- evaluation ------------------------------------------------------

    def _fallback(self, tree: Tree):
        obs.SINK.incr("npkernel.tree_fallbacks")
        return _MARKED_ENGINES.get(self.automaton).evaluate(tree)

    def evaluate(
        self, tree: Tree, enc: EncodedDocument | None = None
    ) -> frozenset[Path]:
        """Selected paths; ≡ the dict engine and the uncached two-pass.

        ``enc`` supplies a pre-built encoding (the incremental serving
        path builds one per document revision via
        :func:`encode_with_memo`); by default the :func:`encode`
        registry caches one per tree object.
        """
        if self.dead or np is None:
            return self._fallback(tree)
        try:
            if enc is None:
                enc = encode(tree)
            self._ensure_types(enc)
            if (self._tstate.data[enc.distinct] < 0).any():
                return self._fallback(tree)
            hits = self._propagate(enc, self._root_sid())
        except KernelOverflowError:
            self.dead = True
            obs.SINK.incr("npkernel.overflows")
            return self._fallback(tree)
        sink = obs.SINK
        if sink.enabled:
            sink.incr("npkernel.tree_evaluations")
            sink.incr("npkernel.tree_nodes", enc.size)
        paths = enc.paths
        return frozenset(paths[i] for i in np.nonzero(hits)[0].tolist())


# ----------------------------------------------------------------------
# Lemma 5.16: the QA^u / SQA^u engine
# ----------------------------------------------------------------------


class NumpyUnrankedEngine(_TreePropagator):
    """Vectorized Lemma 5.16 evaluation of one QA^u / SQA^u.

    The per-type quantities — behavior functions, excursion results
    (stays routed through the fast GSQA transducer) and per-``(type,
    Assumed)`` child contributions — come from the shared dict
    :class:`~repro.perf.trees.UnrankedQueryEngine`, used as a micro-
    oracle and warmed for both engines at once; this class contributes
    the array side: the cached struct-of-arrays encoding, ``np.unique``
    type dedup against a global-to-oracle id map, and the level-order
    vectorized propagation of interned Assumed sets.
    """

    def __init__(self, qa: UnrankedQueryAutomaton) -> None:
        self.qa = qa
        self.automaton = qa.automaton
        self.dead = np is None
        if self.dead:  # pragma: no cover - engines are not built without numpy
            return
        self.oracle = _UNRANKED_ENGINES.get(qa)
        self._local = _IdArray(_UNBUILT)
        self._set_ids: dict[frozenset, int] = {}
        self._sets: list[frozenset] = []
        self._init_propagation()

    def _ensure_types(self, enc: EncodedDocument) -> None:
        universe = UNIVERSE
        self._local.ensure(len(universe))
        local = self._local.data
        todo = enc.distinct[local[enc.distinct] == _UNBUILT]
        if not len(todo):
            return
        obs.SINK.incr("npkernel.tree_types", int(len(todo)))
        oracle = self.oracle
        for t in todo.tolist():
            label = universe.labels[universe.type_label[t]]
            local_kids = tuple(
                int(local[c]) for c in universe.type_children[t]
            )
            local_id, new = oracle.types.intern(label, local_kids)
            if new:
                try:
                    oracle._build_behavior(local_id)
                except BaseException:
                    oracle.types.rollback(label, local_kids)
                    raise
            local[t] = local_id

    def _intern_set(self, states: frozenset) -> int:
        found = self._set_ids.get(states)
        if found is None:
            if len(self._sets) >= MAX_TREE_SETS:
                raise KernelOverflowError(
                    f"more than {MAX_TREE_SETS} distinct Assumed sets"
                )
            found = len(self._sets)
            self._set_ids[states] = found
            self._sets.append(states)
        return found

    def _new_combo(self, type_id: int, set_id: int):
        universe = UNIVERSE
        assumed = self._sets[set_id]
        label = universe.labels[universe.type_label[type_id]]
        oracle = self.oracle
        key = (label, assumed)
        hit = oracle._selects.get(key)
        if hit is None:
            selecting = self.qa.selecting
            hit = any((state, label) in selecting for state in assumed)
            oracle._selects[key] = hit
        kids = universe.type_children[type_id]
        if not kids:
            return hit, _EMPTY_I32
        contributions = oracle._children_assumed(
            int(self._local.data[type_id]), assumed
        )
        row = np.fromiter(
            (self._intern_set(s) for s in contributions),
            dtype=np.int32,
            count=len(kids),
        )
        return hit, row

    def _fallback(self, tree: Tree):
        obs.SINK.incr("npkernel.tree_fallbacks")
        return _UNRANKED_ENGINES.get(self.qa).evaluate(tree)

    def evaluate(self, tree: Tree) -> frozenset[Path]:
        """``A(t)``; ≡ the dict engine and ``qa.evaluate(tree)``."""
        if self.dead or np is None:
            return self._fallback(tree)
        try:
            enc = encode(tree)
            self._ensure_types(enc)
            root_local = int(self._local.data[int(enc.types[enc.size - 1])])
            root_states, halting = self.oracle._root_trajectory(root_local)
            sink = obs.SINK
            if sink.enabled:
                sink.incr("npkernel.tree_evaluations")
                sink.incr("npkernel.tree_nodes", enc.size)
            if halting is None or halting not in self.automaton.accepting:
                return frozenset()
            hits = self._propagate(
                enc, self._intern_set(frozenset(root_states))
            )
        except KernelOverflowError:
            self.dead = True
            obs.SINK.incr("npkernel.overflows")
            return self._fallback(tree)
        paths = enc.paths
        return frozenset(paths[i] for i in np.nonzero(hits)[0].tolist())


# ----------------------------------------------------------------------
# Registries and entry points
# ----------------------------------------------------------------------

_NP_MARKED: EngineRegistry[NumpyMarkedEngine] = EngineRegistry(
    NumpyMarkedEngine, name="perf.np_marked_engines"
)
_NP_UNRANKED: EngineRegistry[NumpyUnrankedEngine] = EngineRegistry(
    NumpyUnrankedEngine, name="perf.np_unranked_engines"
)


def marked_engine(automaton: DeterministicUnrankedAutomaton) -> NumpyMarkedEngine:
    """The shared vectorized engine of a pair-marked DBTA^u."""
    return _NP_MARKED.get(automaton)


def unranked_engine(qa: UnrankedQueryAutomaton) -> NumpyUnrankedEngine:
    """The shared vectorized engine of a QA^u / SQA^u."""
    return _NP_UNRANKED.get(qa)
