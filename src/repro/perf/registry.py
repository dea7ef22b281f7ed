"""A tiny LRU registry mapping live objects to lazily-built engines.

Engines (behavior tables, tree-type indexes, …) are keyed by object
*identity* — the automata they serve contain dicts and are therefore not
hashable — with a weak finalizer evicting entries when the keyed object is
collected, and an LRU bound as a backstop for long-running processes.

A registry constructed with a ``name`` additionally registers a cache
snapshot provider with :func:`repro.obs.register_cache`, so every
:meth:`repro.obs.Stats.report` shows the registry's occupancy, hit/miss
counts, and evictions — the per-instance counters survive LRU eviction
(they count *events*, not live entries), which is what the eviction
differential tests assert.

The module also owns the ``engine=`` vocabulary of the evaluation entry
points: :func:`validate_engine` checks a name up front, and
:func:`numpy_kernel` is the one place that turns ``engine="numpy"`` into
an (imported) numpy kernel module.  It never imports numpy itself.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, TypeVar
import weakref

from .. import obs

Engine = TypeVar("Engine")

#: Default number of engines retained per registry.
DEFAULT_CAPACITY = 128

#: Every ``engine=`` name the evaluation entry points accept
#: (``None`` always means the ``"table"`` default).
VALID_ENGINES = ("naive", "table", "numpy")


def unknown_engine(engine: object, valid: tuple = VALID_ENGINES) -> ValueError:
    """The uniform error for an unrecognized ``engine=`` choice.

    Every dispatcher raises this one format — ``unknown engine <name>:
    valid engines are ...`` — so callers see the same message whether
    the bad name reaches :func:`repro.perf.batch._engine_call`, the
    kernel resolver :func:`numpy_kernel`, or a :mod:`repro.core.pipeline`
    entry point.
    """
    choices = ", ".join(repr(name) for name in valid)
    return ValueError(f"unknown engine {engine!r}: valid engines are {choices}")


def validate_engine(engine: str | None) -> str | None:
    """Check an ``engine=`` choice up front; returns it unchanged.

    Accepts ``None`` and :data:`VALID_ENGINES`; anything else raises the
    :func:`unknown_engine` ``ValueError``.  Entry points that shard work
    to subprocesses call this so a typo fails fast in the parent.
    """
    if engine is not None and engine not in VALID_ENGINES:
        raise unknown_engine(engine)
    return engine


def numpy_kernel(engine: str | None, *, trees: bool = False):
    """Resolve an ``engine=`` choice to a numpy kernel module, or ``None``.

    ``None`` / ``"table"`` select the interned-dict default and return
    ``None``; ``"numpy"`` returns :mod:`repro.perf.npkernel` (string
    queries and transducers) or, with ``trees=True``,
    :mod:`repro.perf.nptrees` (tree queries).  The kernel module — and
    with it numpy — is imported only here, on the first ``"numpy"``
    request, so default-engine paths never load numpy.  Asking for numpy
    without numpy installed degrades to the default and counts an
    ``npkernel.fallbacks`` event; callers never guard the import.
    """
    if engine is None or engine == "table":
        return None
    if engine != "numpy":
        raise unknown_engine(engine, ("table", "numpy"))
    if trees:
        from . import nptrees as kernel
    else:
        from . import npkernel as kernel
    if kernel.available():
        return kernel
    obs.SINK.incr("npkernel.fallbacks")
    return None


class EngineRegistry(Generic[Engine]):
    """``get(obj)`` returns the engine built for ``obj``, caching by identity."""

    def __init__(
        self,
        factory: Callable[[object], Engine],
        capacity: int = DEFAULT_CAPACITY,
        name: str | None = None,
    ) -> None:
        self._factory = factory
        self._capacity = capacity
        self._entries: OrderedDict[int, tuple[Callable[[], object], Engine]] = (
            OrderedDict()
        )
        self.name = name
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if name is not None:
            obs.register_cache(name, self.snapshot)

    def get(self, obj: object) -> Engine:
        """The cached engine for ``obj`` (built on first use, LRU-evicted)."""
        key = id(obj)
        entry = self._entries.get(key)
        if entry is not None and entry[0]() is obj:
            self._entries.move_to_end(key)
            self.hits += 1
            obs.SINK.incr("engine.registry_hits")
            return entry[1]
        self.misses += 1
        obs.SINK.incr("engine.registry_misses")
        engine = self._factory(obj)
        try:
            ref: Callable[[], object] = weakref.ref(obj)
            weakref.finalize(obj, self._evict, key)
        except TypeError:  # non-weakrefable: keep a strong reference
            ref = lambda: obj  # noqa: E731
        self._entries[key] = (ref, engine)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            obs.SINK.incr("engine.registry_evictions")
        return engine

    def _evict(self, key: int) -> None:
        """Finalizer hook: drop the entry of a collected keyed object."""
        if self._entries.pop(key, None) is not None:
            self.evictions += 1

    def snapshot(self) -> dict:
        """Occupancy and event counters, JSON-ready (a cache provider)."""
        return {
            "size": len(self._entries),
            "capacity": self._capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __len__(self) -> int:
        return len(self._entries)
