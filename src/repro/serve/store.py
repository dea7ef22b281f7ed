"""The mutable document layer under the query server.

A :class:`DocumentStore` holds named :class:`~repro.core.pipeline.Document`
revisions and serves selections through the *incremental* engine paths:

* edits (:meth:`DocumentStore.replace_subtree` /
  :meth:`DocumentStore.delete_subtree`) rebuild only the spine from the
  edit site to the root — every untouched subtree object is shared with
  the previous revision (``Document.with_replaced`` / ``with_deleted``);
* selections re-derive only the dirty subtree types: the per-document
  type memos of :meth:`repro.perf.trees.MarkedQueryEngine.incremental_type`
  (and :func:`repro.perf.nptrees.encode_with_memo` for ``engine="numpy"``)
  recognize shared subtrees by object identity, so after a small edit the
  typing work is proportional to the spine, and the selection itself
  assembles cached per-``(type, context)`` relative path sets.

Every select is equivalent to ``Document.select`` on a fresh parse of the
current revision — the serve differential suites hold this byte-identical
across engines, and ``verify=True`` re-checks it per call (the
belt-and-braces mode the oracle tests run under).
"""

from __future__ import annotations

from ..core.pipeline import Document, _pattern_for
from ..core.query import Query
from ..trees.dtd import DTD
from ..trees.tree import Path, Tree
from ..trees.xml import XMLElement, parse_document
from .. import obs

#: Memo entries tolerated per document before dead nodes are pruned, as
#: a multiple of the live tree size (old revisions keep their entries
#: until an edit pushes a memo past this factor).
_PRUNE_FACTOR = 4
_PRUNE_SLACK = 256


class IncrementalMismatchError(AssertionError):
    """``verify=True`` caught an incremental result diverging from fresh."""


class StoredDocument:
    """One named document revision plus its per-engine incremental state."""

    __slots__ = ("name", "document", "dtd", "revision", "_memos", "_np_enc")

    def __init__(
        self, name: str, document: Document, dtd: DTD | None = None
    ) -> None:
        self.name = name
        self.document = document
        self.dtd = dtd
        self.revision = 0
        #: ``id(engine) -> (engine, type memo)`` — identity-checked on
        #: lookup because engine registries may evict and ids recycle.
        #: The numpy path stores its universe-level memo under ``"np"``.
        self._memos: dict = {}
        self._np_enc: tuple[Tree, object] | None = None

    @property
    def tree(self) -> Tree:
        """The current revision's tree abstraction."""
        return self.document.tree

    def memo_for(self, engine) -> dict:
        """The ``id(node) -> (node, type id)`` memo of one dict engine."""
        key = id(engine)
        found = self._memos.get(key)
        if found is not None and found[0] is engine:
            return found[1]
        memo: dict = {}
        self._memos[key] = (engine, memo)
        return memo

    def np_memo(self) -> dict:
        """The universe-level type memo shared by every numpy engine."""
        found = self._memos.get("np")
        if found is None:
            found = (None, {})
            self._memos["np"] = found
        return found[1]

    def np_encoding(self):
        """One struct-of-arrays encoding per revision (numpy path)."""
        if self._np_enc is None or self._np_enc[0] is not self.tree:
            from ..perf.nptrees import encode_with_memo

            self._np_enc = (self.tree, encode_with_memo(self.tree, self.np_memo()))
        return self._np_enc[1]

    def bump(self, document: Document) -> None:
        """Install a new revision and prune memo entries for dead nodes."""
        self.document = document
        self.revision += 1
        self._np_enc = None
        limit = _PRUNE_FACTOR * document.tree.size + _PRUNE_SLACK
        if not any(len(memo) > limit for _, memo in self._memos.values()):
            return
        live: set[int] = set()
        stack = [document.tree]
        while stack:
            node = stack.pop()
            live.add(id(node))
            stack.extend(node.children)
        for key, (engine, memo) in list(self._memos.items()):
            if len(memo) > limit:
                kept = {k: v for k, v in memo.items() if k in live}
                self._memos[key] = (engine, kept)
                obs.SINK.incr("serve.memo_pruned", len(memo) - len(kept))

    def info(self) -> dict:
        """The JSON-ready description the protocol returns for this doc."""
        return {
            "doc": self.name,
            "revision": self.revision,
            "nodes": self.tree.size,
            "alphabet": list(self.document.alphabet),
        }


class DocumentStore:
    """Named mutable documents with incremental re-selection."""

    def __init__(self) -> None:
        self._docs: dict[str, StoredDocument] = {}

    # -- container ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._docs)

    def __contains__(self, name: str) -> bool:
        return name in self._docs

    def names(self) -> list[str]:
        """The stored document names, sorted."""
        return sorted(self._docs)

    def get(self, name: str) -> StoredDocument:
        """The stored document, or :class:`KeyError` with the known names."""
        found = self._docs.get(name)
        if found is None:
            raise KeyError(
                f"unknown document {name!r}; loaded: {self.names()!r}"
            )
        return found

    def document(self, name: str) -> Document:
        """The current :class:`Document` revision under ``name``."""
        return self.get(name).document

    # -- mutation ------------------------------------------------------

    def load(
        self, name: str, text: str, dtd: DTD | None = None
    ) -> StoredDocument:
        """Parse (and optionally validate) a document under ``name``.

        Re-loading an existing name replaces it wholesale — revision
        counting and incremental state start over.
        """
        obs.SINK.incr("serve.store_loads")
        stored = StoredDocument(name, Document.from_text(text, dtd), dtd)
        self._docs[name] = stored
        return stored

    def load_document(
        self, name: str, document: Document, dtd: DTD | None = None
    ) -> StoredDocument:
        """Install an already-parsed document under ``name``."""
        obs.SINK.incr("serve.store_loads")
        stored = StoredDocument(name, document, dtd)
        self._docs[name] = stored
        return stored

    def unload(self, name: str) -> None:
        """Drop a stored document (and its incremental state)."""
        self.get(name)
        del self._docs[name]

    def replace_subtree(
        self, name: str, path: Path, fragment: XMLElement | str
    ) -> StoredDocument:
        """Replace the subtree at ``path`` with a parsed fragment.

        ``fragment`` is an :class:`XMLElement` (or a raw text chunk); a
        serialized fragment string goes through
        :func:`~repro.trees.xml.parse_document` first — the server's
        ``replace`` op does exactly that.  Only the spine is rebuilt,
        which is what keeps the incremental type memos hot.
        """
        obs.SINK.incr("serve.store_edits")
        stored = self.get(name)
        stored.bump(stored.document.with_replaced(tuple(path), fragment))
        return stored

    def delete_subtree(self, name: str, path: Path) -> StoredDocument:
        """Remove the subtree at ``path`` (its later siblings shift left)."""
        obs.SINK.incr("serve.store_edits")
        stored = self.get(name)
        stored.bump(stored.document.with_deleted(tuple(path)))
        return stored

    # -- querying ------------------------------------------------------

    def select(
        self,
        name: str,
        query: Query | str,
        engine: str | None = None,
        verify: bool = False,
    ) -> list[Path]:
        """Document-ordered selected paths; ≡ ``Document.select``.

        The default (table) engine runs
        :meth:`~repro.perf.trees.MarkedQueryEngine.incremental_evaluate`
        against this document's type memo; ``engine="numpy"`` evaluates
        the per-revision :func:`~repro.perf.nptrees.encode_with_memo`
        encoding; ``engine="naive"`` is the uncached oracle (a fresh
        full evaluation — the escape hatch, never incremental).
        ``verify=True`` re-runs the plain ``Document.select`` path and
        raises :class:`IncrementalMismatchError` on any divergence.
        """
        obs.SINK.incr("serve.store_selects")
        from ..perf.registry import validate_engine

        validate_engine(engine)
        stored = self.get(name)
        document = stored.document
        compiled = None
        query_obj = query
        if isinstance(query, str):
            query_obj = _pattern_for(query, document.alphabet)
        compiled = getattr(query_obj, "compiled", None)
        if compiled is None or engine == "naive":
            # No marked automaton to key incremental state on (or the
            # oracle engine was asked for): the one-shot path.
            result = document.select(query_obj, engine=engine)
        elif engine == "numpy":
            result = self._select_numpy(stored, query_obj)
        else:
            from ..perf.trees import marked_engine

            eng = marked_engine(compiled())
            result = sorted(
                eng.incremental_evaluate(stored.tree, stored.memo_for(eng))
            )
        if verify:
            obs.SINK.incr("serve.verify_checks")
            fresh = document.select(query_obj, engine=engine)
            if result != fresh:
                obs.SINK.incr("serve.verify_failures")
                raise IncrementalMismatchError(
                    f"incremental select diverged on {name!r} "
                    f"rev {stored.revision}: {result!r} != {fresh!r}"
                )
        return result

    def select_iter(
        self, name: str, query: Query | str, engine: str | None = None
    ):
        """Stream selected paths in document order; ≡ :meth:`select`.

        The constant-delay enumeration path over the stored document's
        *warm* incremental state: the default (table) engine threads
        this document's per-engine type memo into
        :func:`repro.perf.enumerate.stream_select`, so with a hot memo
        the preprocessing pass is an O(1) root identity hit and the
        first answer costs only its jump chain; ``engine="numpy"``
        streams over the per-revision :meth:`StoredDocument.np_encoding`
        combo tables; ``engine="naive"`` degrades to iterating a fresh
        materialized select.  The iterator is bound to the revision it
        was opened on — the server's cursor ops invalidate it on edits.
        """
        obs.SINK.incr("serve.store_select_iters")
        from ..perf.registry import numpy_kernel, validate_engine

        validate_engine(engine)
        stored = self.get(name)
        document = stored.document
        query_obj = query
        if isinstance(query, str):
            query_obj = _pattern_for(query, document.alphabet)
        compiled = getattr(query_obj, "compiled", None)
        if compiled is None or engine == "naive":
            return document.select_iter(query_obj, engine=engine)
        from ..perf.enumerate import stream_select

        if engine == "numpy" and numpy_kernel(engine, trees=True) is not None:
            kwargs = {"encoding": stored.np_encoding()}
        else:
            from ..perf.trees import marked_engine

            kwargs = {"type_memo": stored.memo_for(marked_engine(compiled()))}
        return stream_select(
            query_obj, stored.tree, engine=engine, **kwargs
        )

    def _select_numpy(self, stored: StoredDocument, query_obj) -> list[Path]:
        from ..perf.registry import numpy_kernel

        kernel = numpy_kernel("numpy", trees=True)
        if kernel is None:  # numpy missing: degrade like Document.select
            from ..perf.trees import marked_engine

            eng = marked_engine(query_obj.compiled())
            return sorted(
                eng.incremental_evaluate(stored.tree, stored.memo_for(eng))
            )
        eng = kernel.marked_engine(query_obj.compiled())
        return sorted(eng.evaluate(stored.tree, stored.np_encoding()))

    def info(self) -> dict:
        """Store-wide description: one :meth:`StoredDocument.info` per doc."""
        return {
            "documents": [self._docs[name].info() for name in self.names()]
        }


def parse_fragment(text: str) -> XMLElement:
    """Parse one XML fragment (the server's ``fragment`` field)."""
    return parse_document(text)
