"""Seeded random generation of algebras and batch genericity experiments.

Structure constants are drawn as integers in [-H, H] from a SplitMix64
stream seeded by seed XOR index, so every trial is a pure function of the
configuration and its index: trials can be evaluated in any order (or in
parallel) and the aggregate report never changes.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterator

from .algebra import MAX_DIM, MIN_DIM, SkewAlgebra, is_lie
from .qlinalg import _check_index
from .structmats import is_homlie, orbit_dimension

_MASK = (1 << 64) - 1


def _randints(state: int, lo: int, hi: int) -> Iterator[int]:
    """Uniform integers in [lo, hi], rejection-sampled for exactness, from the SplitMix64
    stream seeded by ``state``: one 64-bit output per step of the state, taken mod 2^64."""
    size = hi - lo + 1
    limit = (1 << 64) - ((1 << 64) % size)
    while True:
        state = z = (state + 0x9E3779B97F4A7C15) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        if (u := z ^ (z >> 31)) < limit:
            yield lo + u % size


class SampleConfig(namedtuple("SampleConfig", "dim trials seed height")):
    """One experiment: ``trials`` algebras of dimension ``dim`` whose structure constants are
    integers drawn uniformly from [-height, height]. ``_make`` and ``_replace`` check too."""

    __slots__ = ()

    def __new__(cls, dim: int, trials: int, seed: int, height: int = 2) -> SampleConfig:
        for name, value in zip(cls._fields, (dim, trials, seed, height)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an int, not {type(value).__name__}")
        if not MIN_DIM <= dim <= MAX_DIM:
            raise ValueError(f"dim {dim} outside {MIN_DIM}..{MAX_DIM}")
        if trials < 1:
            raise ValueError("trials must be >= 1")
        if not 1 <= height < (1 << 63):
            raise ValueError("height must be in 1..2**63 - 1: one 64-bit draw must "
                             "cover [-height, height]")
        if not 0 <= seed < (1 << 64):
            raise ValueError("seed must fit in 64 bits")
        return super().__new__(cls, dim, trials, seed, height)

    _make = classmethod(lambda cls, fields: cls(*fields))


def random_algebra(cfg: SampleConfig, index: int) -> SkewAlgebra:
    """Deterministic trial: the same (seed, index) always yields the same algebra."""
    _check_index(index)
    if not 0 <= index < cfg.trials:
        raise ValueError(f"index {index} outside 0..{cfg.trials - 1}")
    n, draws = cfg.dim, _randints(cfg.seed ^ index, -cfg.height, cfg.height)
    table = {ij: [*itertools.islice(draws, n)] for ij in itertools.combinations(range(n), 2)}
    return SkewAlgebra._of(n, table, 1)


class GenericityReport(namedtuple("GenericityReport",
                                   "rank_histogram_M homlie_count lie_count trials")):
    """Aggregates over all trials of one configuration: the count of each rank of M
    (a dict), of the Hom-Lie algebras and of the Lie ones, and the number of trials."""

    __slots__ = ()


def run_experiment(cfg: SampleConfig) -> GenericityReport:
    """Rank of the derivation matrix, Hom-Lie admissibility, and Lie-ness per
    trial, merged index by index."""
    histogram: dict[int, int] = {}
    homlie_count = 0
    lie_count = 0
    for index in range(cfg.trials):
        a = random_algebra(cfg, index)
        r = orbit_dimension(a)
        histogram[r] = histogram.get(r, 0) + 1
        homlie_count += is_homlie(a)
        lie_count += is_lie(a)
    return GenericityReport(histogram, homlie_count, lie_count, cfg.trials)
