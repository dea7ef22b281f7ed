"""State shared by the phases of one benchmark run."""

from __future__ import annotations

import math
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

from inputs import hash_seed
from spans import Tracer


@dataclass
class Run:
    """One benchmark run: where it works, what it measured, what failed."""

    root: Path
    work: Path
    seed: int
    trace: bool
    tracer: Tracer = field(default_factory=Tracer)
    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    attempted: dict = field(default_factory=dict)
    failed: dict = field(default_factory=dict)
    hash_seeds: list = field(default_factory=list)

    def next_hash_seed(self) -> int:
        """A fresh ``PYTHONHASHSEED`` for the next program process, recorded."""
        value = hash_seed(self.seed, len(self.hash_seeds))
        self.hash_seeds.append(value)
        return value

    def count(self, op_class: str, error: str | None = None) -> bool:
        """Count one attempted operation; a non-``None`` error counts it failed."""
        self.attempted[op_class] = self.attempted.get(op_class, 0) + 1
        if error is not None:
            self.failed[op_class] = self.failed.get(op_class, 0) + 1
            if self.failed[op_class] <= 3:
                print(f"FAILED {op_class}: {error}", file=sys.stderr)
        return error is None


def geomean(values: list[float]) -> float:
    """Geometric mean of positive values."""
    return math.exp(sum(math.log(v) for v in values) / len(values))


def cell_geomean(samples: dict[str, list[float]]) -> float:
    """Geometric mean over cells of each cell's geometric mean.

    Every cell weighs the same however many times it ran, so a run that
    repeats part of its command list keeps the same mix.
    """
    return geomean([geomean(values) for values in samples.values()])


def slice_median(by_slice: dict) -> float:
    """The median over a run's slices of each slice's median.

    The shared host runs slow for stretches of a run; such a stretch
    moves the slices it covers and leaves the median of the others,
    where it would shift the median of the pooled samples.
    """
    return statistics.median(statistics.median(values) for values in by_slice.values())


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear interpolation."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
